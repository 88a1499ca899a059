"""Shared fixtures: the family/parameter sweep and random custom transforms."""

import numpy as np
import pytest

from riskbound import bounds, envelope
from riskbound.distortion import egs_tau_max

# Family/parameter coverage used by the agreement, attainment and envelope
# suites.  Tail and dynamic families sweep their level over {0.2, 0.5, 0.9}.
SWEEP = []

for a in (0.6, 0.8, 1.5, 2.0, 3.0):
    SWEEP.append(("CT", {"alpha": a}))
    SWEEP.append(("CRT", {"alpha": a}))
for r in (1.5, 2.0, 3.0):
    SWEEP.append(("EGini", {"r": r}))
for a in (0.6, 1.0, 2.0, 3.0):
    SWEEP.append(("FGRE", {"alpha": a}))
    SWEEP.append(("FGE", {"alpha": a}))
for n in (2, 3):
    SWEEP.append(("GCRE", {"n": n}))
    SWEEP.append(("GCE", {"n": n}))
for fam in ("GiniSemidiff", "Gini", "CRE", "CE"):
    SWEEP.append((fam, {}))

_LEVELS = (0.2, 0.5, 0.9)
for lvl in _LEVELS:
    for a in (2.0 / 3.0, 3.0):
        SWEEP.append(("DCRT", {"alpha": a, "F_t": lvl}))
        SWEEP.append(("TCRTE", {"alpha": a, "p": lvl}))
        SWEEP.append(("DCT", {"alpha": a, "F_t": lvl}))
    for r in (1.5, 3.0):
        SWEEP.append(("TNEGini", {"r": r, "p": lvl}))
        SWEEP.append(("TEGini", {"r": r, "p": lvl}))
    SWEEP.append(("TNGini", {"p": lvl}))
    SWEEP.append(("TCRE", {"p": lvl}))
    SWEEP.append(("TGini", {"p": lvl}))
    SWEEP.append(("DGini", {"F_t": lvl}))
    SWEEP.append(("DCE", {"F_t": lvl}))
    SWEEP.append(("ES", {"p": lvl}))

# weighted counterparts (moments refer to Psi(X))
for a in (0.8, 2.0, 3.0):
    SWEEP.append(("WCT", {"alpha": a}))
    SWEEP.append(("WCRT", {"alpha": a}))
for fam in ("WGini", "WGCRE", "WCRE", "WGCE", "WCE"):
    SWEEP.append((fam, {}))
for lvl in _LEVELS:
    SWEEP.append(("DWGCRE", {"F_t": lvl}))
    SWEEP.append(("DWCRE", {"F_t": lvl}))
    SWEEP.append(("DWGCE", {"F_t": lvl}))
    SWEEP.append(("DWCE", {"F_t": lvl}))

# shortfalls over admissible (p, tau) grids
for p in (0.2, 0.5, 0.9):
    for tau in (0.0, 0.25, 0.5):
        SWEEP.append(("GS", {"p": p, "tau": tau}))
    for tau in (0.0, 0.5, 1.0):
        SWEEP.append(("CRES", {"p": p, "tau": tau}))
for p in (0.2, 0.9):
    for r in (1.5, 3.0):
        tmax = egs_tau_max(r, p)
        for tau in (0.0, 0.5 * tmax, tmax):
            SWEEP.append(("EGS", {"r": r, "p": p, "tau": tau}))
    for a in (2.0 / 3.0, 3.0):
        for tau in (0.0, 1.0):
            SWEEP.append(("CRTES", {"alpha": a, "p": p, "tau": tau}))

# one representative parameter set per family, for the heavier checks
STRESS_CONFIGS = [
    ("CT", {"alpha": 2.0}),
    ("CRT", {"alpha": 0.8}),
    ("GiniSemidiff", {}),
    ("Gini", {}),
    ("EGini", {"r": 3.0}),
    ("FGRE", {"alpha": 3.0}),
    ("GCRE", {"n": 2}),
    ("CRE", {}),
    ("FGE", {"alpha": 3.0}),
    ("GCE", {"n": 2}),
    ("CE", {}),
    ("DCRT", {"alpha": 3.0, "F_t": 0.5}),
    ("TCRTE", {"alpha": 3.0, "p": 0.5}),
    ("TNGini", {"p": 0.5}),
    ("TCRE", {"p": 0.5}),
    ("TNEGini", {"r": 3.0, "p": 0.5}),
    ("TEGini", {"r": 3.0, "p": 0.5}),
    ("TGini", {"p": 0.5}),
    ("DCT", {"alpha": 3.0, "F_t": 0.5}),
    ("DGini", {"F_t": 0.5}),
    ("DCE", {"F_t": 0.5}),
    ("ES", {"p": 0.9}),
    ("GS", {"p": 0.9, "tau": 0.5}),
    ("EGS", {"r": 3.0, "p": 0.9, "tau": 0.5}),
    ("CRES", {"p": 0.9, "tau": 0.5}),
    ("CRTES", {"alpha": 3.0, "p": 0.9, "tau": 0.5}),
    ("WCRE", {}),
    ("DWGCE", {"F_t": 0.5}),
]


def random_piecewise_smooth(rng: np.random.Generator):
    """A random piecewise-smooth map on [0, 1] with raw(0) = 0.

    Integrates a random piecewise slope profile (linear segments give C^1
    quadratic pieces, constant segments give kinks), so the result mixes
    smooth arcs and corners.
    """
    k = int(rng.integers(3, 7))
    knots = np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0.05, 0.95, size=k)]))
    slopes = rng.normal(0.0, 3.0, size=len(knots))
    styles = rng.integers(0, 2, size=len(knots) - 1)  # 1: ramp, 0: step

    seg_vals = [0.0]
    for j in range(len(knots) - 1):
        h = knots[j + 1] - knots[j]
        if styles[j]:
            seg_vals.append(seg_vals[-1] + 0.5 * (slopes[j] + slopes[j + 1]) * h)
        else:
            seg_vals.append(seg_vals[-1] + slopes[j] * h)
    seg_vals = np.asarray(seg_vals)

    def raw(u):
        u = np.asarray(u, dtype=float)
        idx = np.clip(np.searchsorted(knots, u, side="right") - 1, 0, len(knots) - 2)
        a = knots[idx]
        h = knots[idx + 1] - a
        x = u - a
        ramp = seg_vals[idx] + slopes[idx] * x \
            + 0.5 * (slopes[idx + 1] - slopes[idx]) / h * x * x
        step = seg_vals[idx] + slopes[idx] * x
        return np.where(styles[idx].astype(bool), ramp, step)

    kinks = tuple(float(x) for x in knots[1:-1])
    return raw, kinks


@pytest.fixture
def no_envelopes(monkeypatch):
    """Make every envelope build fail, for checking value-only paths."""
    def boom(*args, **kwargs):
        raise AssertionError("an envelope was built for a value-only result")

    for mod in (envelope, bounds):
        monkeypatch.setattr(mod, "convex_envelope_analytic", boom)
        monkeypatch.setattr(mod, "convex_envelope_numeric", boom)

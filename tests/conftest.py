"""Shared fixtures: the family/parameter sweep and random custom transforms."""

import csv
import io
import math

import numpy as np
import pytest

from riskbound import bounds, envelope, ingest, oracle
from riskbound._num import (bisect_root, fractional_root, log_chain, log_tail_root,
                            tsallis_tail_root)
from riskbound.errors import NonConvergent
from riskbound.distortion import family_spec

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
        tmax = 1.0 / family_spec("EGS").scale({"r": r, "p": p})
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


def reference_numeric_grid(tg, n_grid: int) -> np.ndarray:
    """The numeric envelope's first grid, deduplicated with ``np.unique``.
    The reference for ``riskbound.envelope._numeric_grid``."""
    interior_kinks = sorted(k for k in tg.kinks if 0.0 < k < 1.0)
    specials = [0.0] + interior_kinks + [1.0]
    pieces = []
    for a, b in zip(specials[:-1], specials[1:]):
        span = b - a
        if span <= 0.0:
            continue
        pieces.append(np.linspace(a, b, n_grid))
        if span > 4.0 * envelope.GRID_FLOOR:
            offs = log_chain(0.5 * span, envelope.GRID_FLOOR, 32)
            pieces.append(a + offs)
            pieces.append(b - offs)
    for k in interior_kinks:
        pieces.append(np.array([k - 1e-12, k, k + 1e-12]))
    grid = np.unique(np.clip(np.concatenate(pieces), 0.0, 1.0))
    return grid[envelope._untwinned(grid)]


def reference_lower_hull(us, ys) -> list:
    """Monotone-chain lower hull of points with increasing ``us``; a point
    is merged when it is not below the chord of its neighbours by more than
    1e-14 of the cross products' scale.  The reference for the vectorized
    hull in ``riskbound.envelope``."""
    xs = list(map(float, us))
    vs = list(map(float, ys))
    stack: list = []
    for i in range(len(xs)):
        while len(stack) >= 2:
            x0, y0 = xs[stack[-2]], vs[stack[-2]]
            x1, y1 = xs[stack[-1]], vs[stack[-1]]
            a = (x1 - x0) * (vs[i] - y0)
            b = (xs[i] - x0) * (y1 - y0)
            if a - b > 1e-14 * (abs(a) + abs(b) + 1e-300):
                break
            stack.pop()
        stack.append(i)
    return stack


def reference_pool_convex(lengths: np.ndarray, slopes: np.ndarray):
    """Merge adjacent pieces (chord-combine) until slopes are nondecreasing,
    one piece at a time on a stack.  The reference for the vectorized
    ``riskbound.envelope._pool_convex``."""
    if np.all(np.diff(slopes) >= 0.0):
        return np.asarray(lengths, dtype=float), np.asarray(slopes, dtype=float)
    Ls: list = []
    Ss: list = []
    for l, s in zip(lengths, slopes):
        Ls.append(float(l))
        Ss.append(float(s))
        while len(Ss) >= 2 and Ss[-1] < Ss[-2]:
            l2, s2 = Ls.pop(), Ss.pop()
            l1, s1 = Ls.pop(), Ss.pop()
            Ls.append(l1 + l2)
            Ss.append((s1 * l1 + s2 * l2) / (l1 + l2))
    return np.asarray(Ls), np.asarray(Ss)


def _reference_chain_side(f, edges, order):
    """Gauss panels over [edges[-1], edges[0]], then the sliver [0, edges[-1]]
    at its midpoint from a second call of ``f``."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[:-1] - edges[1:])
    vals = np.asarray(f((mid[:, None] + half[:, None] * nodes[None, :]).ravel()),
                      dtype=float)
    panels = vals.reshape(vals.shape[:-1] + (len(mid), order)) @ weights
    sliver = np.asarray(f(np.array([0.5 * edges[-1]])), dtype=float)[..., 0]
    return panels @ half + sliver * edges[-1]


def reference_integrate_segment(fn, a, b, fn_lo=None, fn_hi=None, t_floor=1e-60,
                                per_octave=4, order=20):
    """``∫_a^b fn`` on geometric panel chains toward both ends, each chain's
    panels and closing sliver evaluated by separate calls.  ``fn_lo(t)`` /
    ``fn_hi(t)`` are the integrand at distance t from u = 0 / u = 1, read
    (down to ``t_floor``) only when the segment ends there; interior ends
    are chained to 1e-14 of the half.  The tests' Gauss integrator, apart
    from the oracle's panels: it checks the closed forms' L
    (``reference_slope_l2_norm``) and the oracle's moments and panel sums."""
    if b <= a:
        return 0.0
    half = 0.5 * (b - a)
    total = 0.0
    if a == 0.0 and fn_lo is not None:
        total += _reference_chain_side(fn_lo, log_chain(half, t_floor, per_octave), order)
    else:
        total += _reference_chain_side(lambda t: fn(a + t),
                                       log_chain(half, half * 1e-14, per_octave), order)
    if b == 1.0 and fn_hi is not None:
        total += _reference_chain_side(fn_hi, log_chain(half, t_floor, per_octave), order)
    else:
        total += _reference_chain_side(lambda t: fn(b - t),
                                       log_chain(half, half * 1e-14, per_octave), order)
    return total


#: largest share of the squared-slope mass that the quadrature may leave at
#: its 1e-60 floor
REFERENCE_FLOOR_MASS_TOL = 1e-7


def reference_slope_l2_norm(env, center):
    """The squared-slope norm of an analytic envelope with four Gauss panels
    per octave and a separate sliver call per chain.  It raises
    NonConvergent when more than ``REFERENCE_FLOOR_MASS_TOL`` of the mass
    lies at the floor.  A catalog bound takes its L from the closed-form
    table, so this quadrature of the envelope is the closed forms'
    independent check."""
    def squared(slope):
        return lambda x: (np.asarray(slope(x), dtype=float) - center) ** 2

    tg = env.source
    total = 0.0
    floor_mass = 0.0
    knots = env.knots.tolist()
    for lo, hi, slope in zip(knots[:-1], knots[1:], env.slopes.tolist()):
        if not math.isnan(slope):
            total += (slope - center) ** 2 * (hi - lo)
            continue
        f_lo = squared(tg.slope_lower) if lo == 0.0 and tg.slope_lower else None
        f_hi = squared(tg.slope_upper) if hi == 1.0 and tg.slope_upper else None
        # the branch (nan slope) reaches an end; its points are read through
        # the transform's form at that end
        if hi == 1.0:
            inner = lambda u: tg.slope_upper(1.0 - np.asarray(u, dtype=float))
        else:
            inner = tg.slope_lower
        total += reference_integrate_segment(
            squared(inner), lo, hi, fn_lo=f_lo, fn_hi=f_hi,
            t_floor=envelope.CHAIN_FLOOR, per_octave=4)
        floor_mass += sum(float(f(envelope.CHAIN_FLOOR)) * envelope.CHAIN_FLOOR
                          for f in (f_lo, f_hi) if f is not None)
    if floor_mass > REFERENCE_FLOOR_MASS_TOL * total:
        raise NonConvergent("squared-slope mass at the quadrature floor")
    return math.sqrt(max(total, 0.0))


def reference_L_tcre(F: float) -> float:
    """The tail cumulative residual entropy's L at unit scale, with its
    contact point u0 from the tangency equation in u, u + log((1 - u)/(1 - F))
    = 0 on [F, 1].  The reference for the distance form of the residual
    log-kernel tail in ``riskbound.distortion``."""
    lq = math.log(1.0 - F)
    u0 = bisect_root(lambda u: u + math.log1p(-u) - lq, F, 1.0 - (1.0 - F) * math.exp(-3.0))
    w = math.log((1.0 - u0) / (1.0 - F))
    return math.sqrt((1.0 - u0) / u0 * w * w + (1.0 - u0)) / (1.0 - F)


def reference_L_tcrt(a: float, F: float) -> float:
    """The order-a Tsallis tail's L at unit scale over [F, 1], with its
    contact point u0 from the tangency equation in u, (1 - F)^(a-1) =
    (1 - u)^(a-1) * (1 + (a - 1) u) on [F, 1]; u0 = sqrt(F) at a = 2.  The
    reference for the distance form of the residual Tsallis tail in
    ``riskbound.distortion``."""
    q = 1.0 - F
    if a == 2.0:
        u0 = math.sqrt(F)
    else:
        c = q ** (a - 1.0)
        u0 = bisect_root(lambda u: c - (1.0 - u) ** (a - 1.0) * (1.0 + (a - 1.0) * u),
                         F, 1.0 - 1e-13)
    t = 1.0 - u0
    d = (t / u0
         - 2.0 * t * (t / q) ** (a - 1.0) / u0
         + t * (t / q) ** (2.0 * a - 2.0) * (1.0 / u0 + (a - 1.0) ** 2 / (2.0 * a - 1.0)))
    return math.sqrt(d) / (abs(a - 1.0) * q)


def contact_point(equation: str, params: dict) -> float:
    """The contact point u of a named tangency equation, from the three
    distance solvers.  FGE, DCT and DCE are solved in u itself; FGRE, TCRTE
    and TCRE in t = 1 - u, with TCRTE and TCRE read as the DCT and DCE
    equations on the window of length 1 - F_t.

    FGRE:  alpha*u + log(1 - u) = 0
    FGE:   alpha*(1 - u) + log(u) = 0
    TCRE:  u + log((1 - u)/(1 - F_t)) = 0
    TCRTE: (1-F_t)^(a-1) - (1-u)^(a-1)*(1+(a-1)u) = 0
    DCT:   F_t^(a-1) - u^(a-1)*(u + a*(1-u)) = 0
    DCE:   u - 1 - log(u/F_t) = 0
    """
    past = equation in ("FGE", "DCT", "DCE")
    if equation in ("FGRE", "FGE"):
        t = fractional_root(float(params["alpha"]))
    else:
        q = params["F_t"] if past else 1.0 - params["F_t"]
        t = (log_tail_root(q) if equation in ("TCRE", "DCE")
             else tsallis_tail_root(float(params["alpha"]), q))
    return t if past else 1.0 - t


def reference_tnegini_root(r: float, p: float) -> float:
    """The contact point of the new-type tail extended Gini transform from
    its own tangency equation, (1-u)^r + r u (1-u)^(r-1) = (1-p)^(r-1) on
    [p, 1]; the root is sqrt(p) at r = 2."""
    if r == 2.0:
        return math.sqrt(p)
    c = (1.0 - p) ** (r - 1.0)
    return bisect_root(lambda u: (1.0 - u) ** r + r * u * (1.0 - u) ** (r - 1.0) - c,
                       p, 1.0 - 1e-13)


def _reference_d_tnegini(r: float, p: float) -> float:
    u0 = reference_tnegini_root(r, p)
    q = 1.0 - p
    t = 1.0 - u0
    return (t / u0
            + t * (t / q) ** (2.0 * r - 2.0)
            * (1.0 / u0 + (r - 1.0) ** 2 / (2.0 * r - 1.0))
            - 2.0 * t * (t / q) ** (r - 1.0) / u0)


def _reference_L_tnegini(r: float, p: float) -> float:
    return 2.0 * math.sqrt(_reference_d_tnegini(r, p)) / (1.0 - p)


def _reference_L_egs(r: float, p: float, tau: float) -> float:
    q = 1.0 - p
    return math.sqrt(p / q + 4.0 * tau * tau * q ** (2.0 * r - 5.0) * (r - 1.0) ** 2
                     / (2.0 * r - 1.0))


# each Gini-type family's closed-form L, derived for the family itself
# rather than read as a scaled Tsallis form.  The references for the Gini
# rows of ``riskbound.distortion``'s catalog
REFERENCE_GINI_L = {
    "GiniSemidiff": lambda P: 1.0 / math.sqrt(3.0),
    "WGini": lambda P: 1.0 / math.sqrt(3.0),
    "Gini": lambda P: 2.0 / math.sqrt(3.0),
    "EGini": lambda P: 2.0 * (P["r"] - 1.0) / math.sqrt(2.0 * P["r"] - 1.0),
    "TNEGini": lambda P: _reference_L_tnegini(P["r"], P["p"]),
    "TEGini": lambda P: (2.0 * (1.0 - P["p"]) ** (P["r"] - 3.0)
                         * math.sqrt(_reference_d_tnegini(P["r"], P["p"]))),
    "TGini": lambda P: _reference_L_tnegini(2.0, P["p"]),
    "GS": lambda P: math.sqrt((3.0 * P["p"] + 4.0 * P["tau"] ** 2) / (3.0 * (1.0 - P["p"]))),
    "EGS": lambda P: _reference_L_egs(P["r"], P["p"], P["tau"]),
}


def reference_feasibility_stress(g, moments, trials: int, seed: int):
    """The dominance stress test one trial at a time: every trial drawn from
    its own stream and valued through its own quantile function by
    ``riskmetric_of_quantile``.  Returns the ``StressReport`` and the worst
    trial's quantile, and raises nothing.  The reference for the batched
    ``riskbound.oracle.feasibility_stress`` and its exact piece sums.  A
    shape that draws nothing is the same quantile at every repeat, so its
    first value stands for the others."""
    tg = oracle._as_transform(g, None, None)
    bound = bounds.worst_case_bound(g, None, None, moments).sup_value
    max_obs = -math.inf
    worst_shape = ""
    worst_Q = None
    shape_max: dict = {}
    fixed: dict = {}
    for k in range(trials):
        kind = oracle._SHAPES[k % len(oracle._SHAPES)]
        rng = np.random.default_rng([seed, k])
        Q = oracle._affine(oracle._standard_shape(kind, rng), moments.mu, moments.sigma)
        if kind not in fixed:
            val = oracle.riskmetric_of_quantile(tg, None, None, Q)
            if kind in oracle._FIXED:
                fixed[kind] = val
        else:
            val = fixed[kind]
        if val > shape_max.get(kind, -math.inf):
            shape_max[kind] = val
        if val > max_obs:
            max_obs, worst_shape, worst_Q = val, kind, Q
    report = oracle.StressReport(
        family=g.family, params=dict(g.params), mode=tg.mode, bound=bound,
        max_observed=max_obs, gap=bound - max_obs, trials=trials, seed=seed,
        worst_shape=worst_shape, shape_max=shape_max)
    return report, worst_Q


def reference_build_report(moment_sets, premium_families=ingest.DEMO_PREMIUM_FAMILIES,
                           shortfall_specs=ingest.DEMO_SHORTFALLS,
                           kappa_grid=None, p_grid=None) -> tuple:
    """The rows of ``ingest.build_report``, one row at a time: every bound is
    its own ``closed_form_sup`` call (the engine for a custom shortfall)."""
    kappa_grid = list(kappa_grid if kappa_grid is not None else np.linspace(0.0, 1.0, 11))
    p_grid = list(p_grid if p_grid is not None else np.arange(0.90, 1.00, 0.01))

    def param_str(params):
        return ";".join(f"{k}={params[k]:g}" for k in sorted(params))

    rows = []
    for label, mom in moment_sets:
        for family, params in premium_families:
            prev = None
            for kappa in kappa_grid:
                bound = mom.mu + float(kappa) * bounds.closed_form_sup(
                    family, params, bounds.MomentInfo(0.0, mom.sigma))
                rows.append({"label": label, "family": family,
                             "params": param_str(dict(params)),
                             "grid_var": "kappa", "grid_value": float(kappa),
                             "bound": bound,
                             "delta_vs_prev": "" if prev is None else bound - prev})
                prev = bound
        for spec in shortfall_specs:
            prev = None
            for p in p_grid:
                sweep = bounds.ShortfallSpec(spec.family, p=float(p), tau=spec.tau,
                                             alpha=spec.alpha, r=spec.r,
                                             custom_g=spec.custom_g)
                if spec.family == "custom":
                    bound = bounds.shortfall_bound(sweep, mom).sup_value
                else:
                    bound = bounds.closed_form_sup(spec.family, sweep.catalog_params(), mom)
                params = dict(sweep.catalog_params())
                params.pop("p", None)
                rows.append({"label": label, "family": spec.family,
                             "params": param_str(params),
                             "grid_var": "p", "grid_value": float(p),
                             "bound": bound,
                             "delta_vs_prev": "" if prev is None else bound - prev})
                prev = bound
    return tuple(rows)


def reference_report_csv(rows) -> str:
    """Report rows as CSV, each float cell written as its own ``repr``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(ingest.REPORT_COLUMNS)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v
                         for v in (row[c] for c in ingest.REPORT_COLUMNS)])
    return buf.getvalue()


@pytest.fixture
def no_envelopes(monkeypatch):
    """Make every envelope build fail, for checking value-only paths."""
    def boom(*args, **kwargs):
        raise AssertionError("an envelope was built for a value-only result")

    for mod in (envelope, bounds):
        monkeypatch.setattr(mod, "convex_envelope_analytic", boom)
        monkeypatch.setattr(mod, "convex_envelope_numeric", boom)

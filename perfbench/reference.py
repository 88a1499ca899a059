"""Reference values computed without riskbound.

Every constant here is derived from the paper's formulas and coded again in
the benchmark, so a check compares the program against an independent
computation, never against a saved copy of its own output.

The sharp bound is ``mu * c + sigma * L``, with ``c`` the transform's value at
1 and ``L**2`` the integral of the squared excess slope of the greatest convex
minorant.  The tangency families share one structure.  With a concave kernel
``G`` on [0, 1] and a level ``c`` (``1 - F_t`` for residual families, ``F_t``
for past families, 1 for the fractional families), the contact point ``x`` of
the linear piece solves

    c * G(x) + (1 - c * x) * G'(x) = 0,        0 < x < 1,

and then ``L**2 = G(x)**2 / (1 - c * x) + I(x) / c`` with
``I(x) = integral_0^x G'(s)**2 ds``.  Without an interior root the transform
is already convex and ``L**2 = I(1) / c``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gamma, gammaincc


# ---------------------------------------------------------------------------
# kernels: G, G' and I(x) = integral_0^x G'^2
# ---------------------------------------------------------------------------

class PowerKernel:
    """G(x) = k (x - x^r); Tsallis with k = 1/(alpha-1), Gini with r = 2."""

    def __init__(self, k: float, r: float):
        self.k, self.r = k, r

    def G(self, x):
        return self.k * (x - x ** self.r)

    def dG(self, x):
        return self.k * (1.0 - self.r * x ** (self.r - 1.0))

    def I(self, x):
        r = self.r
        return self.k ** 2 * (x - 2.0 * x ** r + r * r * x ** (2.0 * r - 1.0) / (2.0 * r - 1.0))


class LogKernel:
    """G(x) = -x log x, the cumulative (residual) entropy kernel."""

    def G(self, x):
        return -x * np.log(x)

    def dG(self, x):
        return -np.log(x) - 1.0

    def I(self, x):
        h = math.log(x) + 1.0
        return x * h * h - 2.0 * x * (h - 1.0)


class FractionalKernel:
    """G(x) = x (-log x)^a / Gamma(a + 1), the fractional entropy kernel."""

    def __init__(self, a: float):
        self.a = a
        self.norm = math.gamma(a + 1.0)

    def G(self, x):
        return x * (-np.log(x)) ** self.a / self.norm

    def dG(self, x):
        w = -np.log(x)
        return (w ** self.a - self.a * w ** (self.a - 1.0)) / self.norm

    def I(self, x):
        # substitute w = -log s: integral_w^inf (w^a - a w^(a-1))^2 e^-w dw
        a, w = self.a, -math.log(x)

        def upper(s):
            return gammaincc(s, w) * gamma(s)

        return (upper(2 * a + 1) - 2 * a * upper(2 * a) + a * a * upper(2 * a - 1)) \
            / self.norm ** 2


def tsallis(a: float) -> PowerKernel:
    return PowerKernel(1.0 / (a - 1.0), a)


# ---------------------------------------------------------------------------
# the benchmark's own root finder for the contact equation
# ---------------------------------------------------------------------------

_SCAN = np.unique(np.concatenate([np.geomspace(1e-300, 0.5, 700),
                                  1.0 - np.geomspace(1e-13, 0.5, 300)]))


def contact_point(kernel, c: float):
    """Root of c G(x) + (1 - c x) G'(x) in (0, 1), or None if it has none."""

    def f(x):
        return c * kernel.G(x) + (1.0 - c * x) * kernel.dG(x)

    with np.errstate(all="ignore"):
        vals = f(_SCAN)
    change = np.nonzero((vals[:-1] > 0.0) & (vals[1:] < 0.0))[0]
    if change.size == 0:
        return None
    lo, hi = float(_SCAN[change[0]]), float(_SCAN[change[0] + 1])
    for _ in range(400):
        mid = math.sqrt(lo * hi) if hi > 2.0 * lo else 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def tangency_L(kernel, c: float) -> float:
    x = contact_point(kernel, c)
    if x is None:
        return math.sqrt(kernel.I(1.0) / c)
    return math.sqrt(kernel.G(x) ** 2 / (1.0 - c * x) + kernel.I(x) / c)


# ---------------------------------------------------------------------------
# L for every catalog family
# ---------------------------------------------------------------------------

def _fractional_L(a: float) -> float:
    if a <= 1.0:
        return math.sqrt(math.gamma(2.0 * a - 1.0)) / math.gamma(a)
    return tangency_L(FractionalKernel(a), 1.0)


def _shortfall_L(p: float, tau: float, base_sq: float) -> float:
    """ES plus tau times a tail entropy: L^2 = (p + tau^2 * integral g'^2) / (1-p)."""
    return math.sqrt((p + tau * tau * base_sq) / (1.0 - p))


def reference_L(family: str, params: dict) -> float:
    """Sharp L of a catalog family, from the paper's formulas."""
    P = params
    a = P.get("alpha")
    if family in ("CT", "CRT", "WCT", "WCRT"):
        return 1.0 / math.sqrt(2.0 * a - 1.0)
    if family in ("GiniSemidiff", "WGini"):
        return 1.0 / math.sqrt(3.0)
    if family == "Gini":
        return 2.0 / math.sqrt(3.0)
    if family == "EGini":
        r = P["r"]
        return 2.0 * (r - 1.0) / math.sqrt(2.0 * r - 1.0)
    if family in ("CRE", "CE", "WCRE", "WCE", "WGCRE", "WGCE"):
        return 1.0
    if family in ("FGRE", "FGE"):
        return _fractional_L(a)
    if family in ("GCRE", "GCE"):
        return _fractional_L(float(P["n"]))
    if family in ("DCRT", "TCRTE"):
        level = P.get("F_t", P.get("p"))
        return tangency_L(tsallis(a), 1.0 - level)
    if family in ("TCRE", "DWGCRE", "DWCRE"):
        return tangency_L(LogKernel(), 1.0 - P.get("F_t", P.get("p")))
    if family == "TNGini":
        return tangency_L(PowerKernel(1.0, 2.0), 1.0 - P["p"])
    if family == "TGini":
        return tangency_L(PowerKernel(2.0, 2.0), 1.0 - P["p"])
    if family == "TNEGini":
        return tangency_L(PowerKernel(2.0, P["r"]), 1.0 - P["p"])
    if family == "TEGini":
        r, q = P["r"], 1.0 - P["p"]
        return tangency_L(PowerKernel(2.0 * q ** (r - 2.0), r), q)
    if family == "DCT":
        return tangency_L(tsallis(a), P["F_t"])
    if family == "DGini":
        return tangency_L(PowerKernel(1.0, 2.0), P["F_t"])
    if family in ("DCE", "DWGCE", "DWCE"):
        return tangency_L(LogKernel(), P["F_t"])
    if family == "ES":
        p = P["p"]
        return math.sqrt(p / (1.0 - p))
    if family == "GS":
        p, tau = P["p"], P["tau"]
        return math.sqrt((3.0 * p + 4.0 * tau * tau) / (3.0 * (1.0 - p)))
    if family == "EGS":
        r, p, tau = P["r"], P["p"], P["tau"]
        q = 1.0 - p
        return math.sqrt(p / q + 4.0 * tau * tau * q ** (2.0 * r - 5.0) * (r - 1.0) ** 2
                         / (2.0 * r - 1.0))
    if family == "CRES":
        return _shortfall_L(P["p"], P["tau"], 1.0)
    if family == "CRTES":
        return _shortfall_L(P["p"], P["tau"], 1.0 / (2.0 * a - 1.0))
    raise KeyError(f"no reference for family {family!r}")


SHORTFALL_FAMILIES = ("ES", "GS", "EGS", "CRES", "CRTES")


def center(family: str) -> float:
    """The mu coefficient c: 1 for expected shortfall and the shortfalls."""
    return 1.0 if family in SHORTFALL_FAMILIES else 0.0


def egs_tau_max(r: float, p: float) -> float:
    """Largest loading that keeps the extended-Gini shortfall convex."""
    return 1.0 / (2.0 * (r - 1.0) * (1.0 - p) ** (r - 2.0))


# ---------------------------------------------------------------------------
# independent lower hull for custom transforms
# ---------------------------------------------------------------------------

def lower_hull(xs, ys):
    """Indices of the lower convex hull of points sorted by x (monotone chain).

    Points within rounding of a hull edge are dropped, so a straight piece
    becomes one chord.
    """
    X, Y = xs.tolist(), ys.tolist()
    hull: list = []
    for i in range(len(X)):
        x, y = X[i], Y[i]
        while len(hull) >= 2:
            j, k = hull[-2], hull[-1]
            a, b = (X[k] - X[j]) * (y - Y[j]), (x - X[j]) * (Y[k] - Y[j])
            if a - b <= 1e-12 * (abs(a) + abs(b)):
                hull.pop()
            else:
                break
        hull.append(i)
    return hull


def hull_L(raw, slope, kinks, center: float, n: int = 20001) -> float:
    """sqrt(integral (envelope slope - center)^2) for a piecewise-smooth ``raw``.

    The envelope is the lower hull of a sample of ``raw``.  A uniform sample
    places the contact points of each chord only to within a step or so, so
    two more passes resample 16 steps around the ends of every chord longer
    than 32 steps a hundred times more densely.  Where the hull runs through adjacent samples it follows
    ``raw`` itself, and the exact ``slope`` is integrated there (two-point
    Gauss, exact for the piecewise-linear slopes of the custom maps).
    """
    xs = np.unique(np.concatenate([np.linspace(0.0, 1.0, n), kinks]))
    ys = raw(xs)
    idx = lower_hull(xs, ys)
    step = 1.0 / (n - 1)
    for _ in range(2):
        # ends of chords long against the step: short ones are rounding noise
        ends = {xs[i] for a, b in zip(idx[:-1], idx[1:])
                if b > a + 1 and xs[b] - xs[a] > 32.0 * step for i in (a, b)}
        local = [np.linspace(x - 16.0 * step, x + 16.0 * step, 3201) for x in ends]
        xs = np.unique(np.clip(np.concatenate([xs] + local), 0.0, 1.0))
        ys = raw(xs)
        idx = lower_hull(xs, ys)
        step /= 100.0
    idx = np.asarray(idx)
    hx, hy = xs[idx], ys[idx]
    h = np.diff(hx)
    follows = np.diff(idx) == 1
    mid, off = 0.5 * (hx[:-1] + hx[1:]), 0.5 * h / math.sqrt(3.0)
    on_raw = 0.5 * ((slope(mid - off) - center) ** 2 + (slope(mid + off) - center) ** 2)
    chord = (np.diff(hy) / h - center) ** 2
    return math.sqrt(float(np.dot(np.where(follows, on_raw, chord), h)))

"""Shared numerical kernels.

Bracketed root finding, the named tangency equations solved with it, and
Gauss-Legendre panel quadrature on geometric panel chains (stable down to
distances ~1e-60 from an endpoint, far below what a double can represent as
``1 - t``).
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from .errors import NoSignChange, ParamOutOfDomain

_GL20 = np.polynomial.legendre.leggauss(20)
_GL10 = np.polynomial.legendre.leggauss(10)


def bisect_root(f: Callable[[float], float], lo: float, hi: float,
                max_iter: int = 200) -> float:
    """Unique root of ``f`` in ``[lo, hi]`` by bisection with secant polish.

    The bracket must straddle a sign change, otherwise NoSignChange is
    raised.  Iterates essentially to machine precision.
    """
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if not (np.isfinite(flo) and np.isfinite(fhi)):
        raise NoSignChange(f"non-finite bracket values f({lo})={flo}, f({hi})={fhi}")
    if flo * fhi > 0.0:
        raise NoSignChange(f"no sign change on [{lo}, {hi}]: f(lo)={flo}, f(hi)={fhi}")
    a, b, fa, fb = lo, hi, flo, fhi
    for _ in range(max_iter):
        m = 0.5 * (a + b)
        if b - a <= 4.0 * np.finfo(float).eps * max(1.0, abs(m)):
            break
        fm = f(m)
        if fm == 0.0:
            return m
        if fa * fm < 0.0:
            b, fb = m, fm
        else:
            a, fa = m, fm
    root = 0.5 * (a + b)
    # a couple of secant steps sharpen the last bits when f is smooth
    x0, x1, f0, f1 = a, b, fa, fb
    for _ in range(3):
        if f1 == f0:
            break
        x2 = x1 - f1 * (x1 - x0) / (f1 - f0)
        if not (a <= x2 <= b):
            break
        f2 = f(x2)
        x0, f0, x1, f1 = x1, f1, x2, f2
        if f2 == 0.0:
            break
    if a <= x1 <= b and abs(f1) <= abs(f(root)):
        root = x1
    return root


def solve_breakpoint(equation: str, params: dict) -> float:
    """Solve a named tangency equation to (near) machine precision.

    Equations (u is the unknown contact point):

    FGRE:     alpha*u + log(1 - u) = 0                     on [1 - e^(1-alpha), 1)
    FGE:      alpha*(1 - u) + log(u) = 0                   on (0, e^(1-alpha)]
    TCRE:     u + log((1 - u)/(1 - F_t)) = 0               on [F_t, 1]
    TCRTE:    (1-F_t)^(a-1) - (1-u)^(a-1)*(1+(a-1)u) = 0   on [F_t, 1]
    TNEGini:  (1-u)^r + r*u*(1-u)^(r-1) - (1-p)^(r-1) = 0  on [p, 1]
    DCT:      F_t^(a-1) - u^(a-1)*(u + a*(1-u)) = 0        on [0, F_t]
    DCE:      u - 1 - log(u/F_t) = 0                       on (0, F_t]

    The FGRE root is 1 - t for the FGE root t, which is solved as
    x = t * e^alpha in [1/2, e] so that it keeps full relative precision
    however small t is.  At a = 2 / r = 2 the TCRTE, TNEGini and DCT
    equations are quadratic and their roots are returned exactly.
    """
    if equation in ("FGRE", "FGE"):
        a = float(params["alpha"])
        if a <= 1.0:
            raise ParamOutOfDomain(f"{equation} breakpoint exists only for alpha > 1")
        scale = math.exp(-a)
        t = scale * bisect_root(lambda x: math.log(x) - a * scale * x, 0.5, math.e)
        return 1.0 - t if equation == "FGRE" else t

    F = float(params.get("F_t", params.get("p", math.nan)))

    if equation == "TCRE":
        if not (0.0 < F < 1.0):
            raise ParamOutOfDomain("TCRE breakpoint requires F_t in (0, 1)")
        lq = math.log(1.0 - F)
        hi = 1.0 - (1.0 - F) * math.exp(-3.0)

        def f(u):
            return u + math.log1p(-u) - lq

        return bisect_root(f, F, hi)

    if equation == "TCRTE":
        a = float(params["alpha"])
        if not (0.0 < F < 1.0):
            raise ParamOutOfDomain("TCRTE breakpoint requires F_t in (0, 1)")
        if a <= 0.0 or a == 1.0:
            raise ParamOutOfDomain("TCRTE breakpoint requires alpha > 0, alpha != 1")
        if a == 2.0:
            return math.sqrt(F)
        c = (1.0 - F) ** (a - 1.0)

        def f(u):
            return c - (1.0 - u) ** (a - 1.0) * (1.0 + (a - 1.0) * u)

        return bisect_root(f, F, 1.0 - 1e-13)

    if equation == "TNEGini":
        r = float(params["r"])
        if not (0.0 < F < 1.0) or r <= 1.0:
            raise ParamOutOfDomain("TNEGini breakpoint requires r > 1 and p in (0, 1)")
        if r == 2.0:
            return math.sqrt(F)
        c = (1.0 - F) ** (r - 1.0)

        def f(u):
            return (1.0 - u) ** r + r * u * (1.0 - u) ** (r - 1.0) - c

        return bisect_root(f, F, 1.0 - 1e-13)

    if equation == "DCT":
        a = float(params["alpha"])
        if not (0.0 < F <= 1.0):
            raise ParamOutOfDomain("DCT breakpoint requires F_t in (0, 1]")
        if a <= 0.0 or a == 1.0:
            raise ParamOutOfDomain("DCT breakpoint requires alpha > 0, alpha != 1")
        if a == 2.0:
            return 1.0 - math.sqrt(1.0 - F)
        c = F ** (a - 1.0)

        def f(u):
            return c - u ** (a - 1.0) * (u + a * (1.0 - u))

        return bisect_root(f, min(1e-13, 0.5 * F), F)

    if equation == "DCE":
        if not (0.0 < F <= 1.0):
            raise ParamOutOfDomain("DCE breakpoint requires F_t in (0, 1]")

        def f(u):
            return u - 1.0 - math.log(u / F)

        return bisect_root(f, F * 1e-12, F)

    raise ParamOutOfDomain(f"unknown breakpoint equation {equation!r}")


def log_chain(hi: float, lo: float, per_octave: int) -> np.ndarray:
    """Descending geometric offsets from ``hi`` to ~``lo``, ratio 2**(-1/per_octave)."""
    if hi <= lo:
        return np.array([hi], dtype=float)
    n = int(math.ceil(per_octave * math.log2(hi / lo)))
    return hi * np.exp2(-np.arange(n + 1, dtype=float) / per_octave)


def panel_gauss(f: Callable[[np.ndarray], np.ndarray], edges_desc: np.ndarray,
                order: int = 20) -> float:
    """Integrate ``f`` over [edges[-1], edges[0]] given descending panel edges."""
    nodes, weights = _GL20 if order >= 20 else _GL10
    hi = edges_desc[:-1]
    lo = edges_desc[1:]
    mid = 0.5 * (hi + lo)
    half = 0.5 * (hi - lo)
    ts = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    vals = np.asarray(f(ts), dtype=float).reshape(len(mid), len(nodes))
    return float(np.dot(half, vals @ weights))


def integrate_segment(fn: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                      fn_lo: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                      fn_hi: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                      t_floor: float = 1e-60, per_octave: int = 4,
                      order: int = 20) -> float:
    """``∫_a^b fn(u) du`` with geometric panels accumulating toward both ends.

    ``fn_lo(t)`` / ``fn_hi(t)`` are stable reparametrizations of the integrand
    at distance ``t`` from u=0 / u=1; they are used (and the chain deepened to
    ``t_floor``) only when the segment actually ends at 0 or 1.  Interior ends
    are assumed smooth and chained to a relative depth of ~1e-14.
    """
    if b <= a:
        return 0.0
    half = 0.5 * (b - a)
    total = 0.0
    # lower side: u = a + t
    if a == 0.0 and fn_lo is not None:
        edges = log_chain(half, t_floor, per_octave)
        total += panel_gauss(fn_lo, edges, order)
        total += float(np.asarray(fn_lo(np.array([0.5 * edges[-1]])))[0]) * edges[-1]
    else:
        edges = log_chain(half, half * 1e-14, per_octave)
        total += panel_gauss(lambda t: fn(a + t), edges, order)
        total += float(np.asarray(fn(np.array([a + 0.5 * edges[-1]])))[0]) * edges[-1]
    # upper side: u = b - t
    if b == 1.0 and fn_hi is not None:
        edges = log_chain(half, t_floor, per_octave)
        total += panel_gauss(fn_hi, edges, order)
        total += float(np.asarray(fn_hi(np.array([0.5 * edges[-1]])))[0]) * edges[-1]
    else:
        edges = log_chain(half, half * 1e-14, per_octave)
        total += panel_gauss(lambda t: fn(b - t), edges, order)
        total += float(np.asarray(fn(np.array([b - 0.5 * edges[-1]])))[0]) * edges[-1]
    return total

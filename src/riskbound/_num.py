"""Shared numerical kernels.

Bracketed root finding, the three contact solvers built on it (each in the
distance of the contact from its window's far end), and Gauss-Legendre
panel quadrature on geometric panel chains (stable down to
distances ~1e-60 from an endpoint, far below what a double can represent as
``1 - t``).  Each half of a segment is one chain of panels toward its end,
``per_octave`` panels per halving of the distance (fractional densities
allowed), closed by a midpoint-rule sliver; the integrand is evaluated once
per chain, at all panel nodes and the sliver midpoint together.  A chain's
nodes and weights are a cached, read-only template of the unit chain at its
density, scaled to the chain's length.  Integrands analytic off the endpoint
(t^p- and log-type blow-ups) need only one 20-point panel per two octaves:
the Bernstein ellipse of a panel [x, 4x] that avoids t = 0 has parameter 3,
so the panel's error is ~3^-40 ~ 8e-20 relative, below double rounding.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import NoSignChange, ParamOutOfDomain

_GL20 = np.polynomial.legendre.leggauss(20)
# bisection stops once the bracket is this many ulps (relative) wide
_BRACKET_TOL = 4.0 * float(np.finfo(float).eps)


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
        if b - a <= _BRACKET_TOL * max(1.0, abs(m)):
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


def fractional_root(a: float) -> float:
    """The FGE contact point t, the small root of alpha*(1 - t) + log(t) = 0
    (alpha > 1).  It is solved as x = t * e^alpha in [1/2, e], so that it keeps
    full relative precision however small t is."""
    if a <= 1.0:
        raise ParamOutOfDomain("the fractional breakpoint exists only for alpha > 1")
    scale = math.exp(-a)
    return scale * bisect_root(lambda x: math.log(x) - a * scale * x, 0.5, math.e)


def log_tail_root(q: float) -> float:
    """The contact distance t in (0, q] of the log-kernel tail window of
    length q in (0, 1]: t - 1 - log(t/q) = 0.  Solved as x = t/q in
    [1/(2e), 1], where log(x) + 1 - q*x changes sign; t = q at q = 1."""
    return q * bisect_root(lambda x: math.log(x) + 1.0 - q * x, 0.5 / math.e, 1.0)


def tsallis_tail_root(a: float, q: float) -> float:
    """The contact distance t in (0, q] of the order-a Tsallis tail window of
    length q in (0, 1]: q^(a-1) = t^(a-1) * (t + a*(1 - t)).  Solved as
    x = t/q, which lies above a^(1/(1 - a)) for every q, so neither q^(a-1)
    nor the bracket depends on the window's length; t = q at q = 1.  At
    a = 2 the root is t = q/(1 + sqrt(1 - q)), exact to rounding."""
    if a == 2.0:
        return q / (1.0 + math.sqrt(1.0 - q))
    lo = 0.5 * a ** (1.0 / (1.0 - a))
    return q * bisect_root(lambda x: 1.0 - x ** (a - 1.0) * (a - (a - 1.0) * q * x), lo, 1.0)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _unit_ratios(n: int, per_octave: float) -> np.ndarray:
    return np.exp2(-np.arange(n + 1, dtype=float) / per_octave)


@lru_cache(maxsize=16)
def _chain_ratios(per_octave: float) -> np.ndarray:
    """2**(-k/per_octave) for k = 0 .. 200*per_octave, read-only: 200 octaves
    cover every chain from 1/2 down to 1e-60.  ``per_octave`` may be
    fractional; at 1/2 each ratio is a quarter of the last, so the panels of
    ``_chain_template`` built on them are [x, 4x]."""
    return _read_only(_unit_ratios(int(math.ceil(200 * per_octave)), per_octave))


def _panel_count(hi: float, lo: float, per_octave: float) -> int:
    """Panels of ratio 2**(-1/per_octave) that take a chain from ``hi`` to ~``lo``."""
    return int(math.ceil(per_octave * math.log2(hi / lo))) if hi > lo else 0


def log_chain(hi: float, lo: float, per_octave: float) -> np.ndarray:
    """Descending geometric offsets from ``hi`` to ~``lo``, ratio 2**(-1/per_octave).

    The ratios come from the cached ``_chain_ratios``; a chain deeper than
    those 200 octaves gets its ratios computed afresh."""
    n = _panel_count(hi, lo, per_octave)
    ratios = _chain_ratios(per_octave)
    if n >= len(ratios):
        ratios = _unit_ratios(n, per_octave)
    return hi * ratios[:n + 1]


def _gauss_chain(ratios: np.ndarray) -> tuple:
    """(ratios, nodes, weights) of the unit chain with edges ``ratios``:
    20-point Gauss-Legendre nodes of every panel in descending panel order,
    and their weights scaled by the panel's half-width, all read-only."""
    x, w = _GL20
    half = 0.5 * (ratios[:-1] - ratios[1:])
    nodes = (0.5 * (ratios[:-1] + ratios[1:])[:, None] + half[:, None] * x).ravel()
    return ratios, _read_only(nodes), _read_only((half[:, None] * w).ravel())


@lru_cache(maxsize=16)
def _chain_template(per_octave: float) -> tuple:
    """The Gauss panels of the unit chain over ``_chain_ratios(per_octave)``.
    A chain from ``hi`` with n panels is these nodes and weights cut at 20n
    and scaled by ``hi``."""
    return _gauss_chain(_chain_ratios(per_octave))


def _chain_side(f: Callable[[np.ndarray], np.ndarray], hi: float, lo: float,
                per_octave: float) -> float | np.ndarray:
    """``∫_0^hi f(t) dt`` on the geometric chain of ``log_chain(hi, lo, per_octave)``.

    Gauss-Legendre panels cover the chain and the sliver [0, end] left below
    it is valued at its midpoint; the sliver midpoint rides along with the
    panel nodes, so ``f`` is called once.  ``f`` may return a stack of k rows
    of values, shape (k, n), to integrate k integrands from one evaluation;
    the result is then an array of k integrals, each equal to the one its row
    alone would give.
    """
    n = _panel_count(hi, lo, per_octave)
    ratios, nodes, weights = _chain_template(per_octave)
    if n >= len(ratios):
        ratios, nodes, weights = _gauss_chain(_unit_ratios(n, per_octave))
    k = n * len(_GL20[0])
    end = hi * float(ratios[n])
    ts = np.empty(k + 1)
    np.multiply(nodes[:k], hi, out=ts[:k])
    ts[k] = 0.5 * end
    vals = np.asarray(f(ts), dtype=float)
    return hi * (vals[..., :k] @ weights[:k]) + vals[..., k] * end


def integrate_segment(fn: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                      fn_lo: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                      fn_hi: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                      t_floor: float = 1e-60,
                      per_octave: float = 4) -> float | np.ndarray:
    """``∫_a^b fn(u) du`` with geometric panels accumulating toward both ends.

    Each half of the segment is a chain of panels [x 2^(-1/per_octave), x]
    from the midpoint toward its end, with 20-point Gauss-Legendre on each
    panel and the midpoint rule on the sliver left below the chain.  The
    panels come from the cached template of the unit chain, scaled to the
    half's length.  The integrand is called once per side, at every panel
    node and the sliver midpoint together.  ``per_octave`` may be
    fractional: at 1/2 each panel spans two octaves.

    ``fn_lo(t)`` / ``fn_hi(t)`` are stable reparametrizations of the integrand
    at distance ``t`` from u=0 / u=1; they are used (and the chain deepened to
    ``t_floor``) only when the segment actually ends at 0 or 1.  Interior ends
    are assumed smooth and chained to a relative depth of ~1e-14.  Stacked
    integrands are integrated row by row, as in ``_chain_side``.

    Panel density: an integrand analytic off t = 0 (t^p- and log-type
    blow-ups) is analytic inside the largest Bernstein ellipse of the panel
    [x, 4x] that avoids t = 0, whose parameter is 5/3 + sqrt((5/3)^2 - 1) = 3,
    so 20-point Gauss-Legendre errs there by ~3^-40 ~ 8e-20 relative, below
    double rounding, and one panel per two octaves (``per_octave=0.5``)
    integrates such a tail to rounding.
    """
    if b <= a:
        return 0.0
    half = 0.5 * (b - a)
    total = 0.0
    # lower side: u = a + t
    if a == 0.0 and fn_lo is not None:
        total += _chain_side(fn_lo, half, t_floor, per_octave)
    else:
        total += _chain_side(lambda t: fn(a + t), half, half * 1e-14, per_octave)
    # upper side: u = b - t
    if b == 1.0 and fn_hi is not None:
        total += _chain_side(fn_hi, half, t_floor, per_octave)
    else:
        total += _chain_side(lambda t: fn(b - t), half, half * 1e-14, per_octave)
    return total

"""Shared numerical kernels.

Bracketed root finding, the three contact solvers built on it (each in the
distance of the contact from its window's far end), geometric panel chains
(``log_chain``: offsets from an end down to distances ~1e-60, far below what
a double can represent as ``1 - t``, on cached ratios) and the 10-point
Gauss-Legendre rule ``_GL10``.  The numeric envelope's grid cascades and the
slope norm's end chains are ``log_chain``s; the oracle's Gauss panels
(``oracle._Layout``) are ``_GL10`` on them.  Ten nodes are enough there by
a Bernstein-ellipse bound: a panel [x, 2x] of a tail analytic off t = 0 has
ellipse parameter rho = 3 + 2*sqrt(2), so its 10-point rule errs by about
rho^-20 ~ 5e-16 relative, and a panel [x, 4x] (rho = 3) by about
3^-20 ~ 3e-10.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import NoSignChange, ParamOutOfDomain

_GL10 = np.polynomial.legendre.leggauss(10)
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
    fractional; at 1/2 each ratio is a quarter of the last, so the panels
    between them are [x, 4x]."""
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

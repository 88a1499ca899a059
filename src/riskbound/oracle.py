"""Independent verification of bounds.

Evaluates a distortion riskmetric (or weighted entropy) at an explicit
quantile function through its Riemann-Stieltjes quantile representation,
computes quantile moments, and stress-tests a bound against randomized
feasible distributions.  Everything here deliberately avoids the envelope
machinery so it can serve as an oracle for it.

One panel layout (``_Layout``) does all three jobs.  The transform's kinks
cut (0, 1) into segments; each half of a segment is a chain of 10-point
Gauss-Legendre panels toward its own end, down to 1e-60 at u = 0 and u = 1
and to 1e-14 of the half at a kink, and the quantile's breakpoints cut the
panels they fall in.  The end segment next to u = 1 is read in its distance
from u = 1, through the stable tails of the transform and the quantile;
every other panel is read in u.

The Stieltjes sum uses only values of the transform (never its derivative):
on each panel Q is interpolated at the nodes by a polynomial P, and
``int Q dghat = [P ghat] - int ghat P'`` is taken by the panel's own Gauss
rule.  Moments are Gauss sums of Q and Q^2 on the same panels.  Both take
their value at one panel per octave, and their error estimate is the change
from one panel per two octaves, plus the rounding of the sum.  Ten nodes
are enough by a Bernstein-ellipse bound: an integrand analytic off t = 0
(t^p- and log-type blow-ups) is analytic inside the largest Bernstein
ellipse of its panel that avoids t = 0.  On [x, 2x] its parameter is
rho = 3 + sqrt(3^2 - 1) = 3 + 2*sqrt(2) ~ 5.83, so the panel's 10-point
Gauss-Legendre rule errs by about rho^-20 ~ 5e-16 relative, and one panel
per octave reads such a tail to rounding.  On [x, 4x] it is
5/3 + sqrt((5/3)^2 - 1) = 3, so one panel per two octaves errs by about
3^-20 ~ 3e-10, and the estimate is conservative by up to that much on a
smooth tail.  The stress test reads the transform once
per call, at one panel per octave: the shapes that draw nothing take the
product rule, a step trial sums its levels times the change in ghat across
each step, and a spline trial its slopes times the integral of ghat over
each piece.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from ._num import _GL10, log_chain
from .distortion import DistortionFn, TransformedGHat, WeightSpec, make_ghat
from .errors import BoundViolated, DomainError, NonConvergent, NonFiniteValue

_DIVERGENT = ("log-divergent", "power-divergent")
_T_MIN = 2.0 ** -53  # the least distance t from u = 1 with 1 - t < 1


@dataclass(frozen=True)
class QuantileFn:
    """A nondecreasing map on (0, 1) representing a distribution.

    ``upper_tail(t) = Q(1 - t)`` and ``lower_tail(t) = Q(t)`` are stable
    evaluators at distance t from an end.  The oracle reads each across the
    end segment at its end: from u = 1 down to the last kink of the
    transform or breakpoint of Q (or u = 1/2, if that lies lower), and from
    u = 0 up to the first (or u = 1/2), so each must agree with ``fn``
    there, not only in the far tail.  When absent, the upper tail reads
    ``fn(1 - t)`` with t clamped at 2**-53 so that 1 - t stays below 1, and
    the lower tail reads ``fn(t)``.
    """

    fn: Callable
    breakpoints: tuple = ()
    tail_class: str = "bounded"
    upper_tail: Optional[Callable] = None
    lower_tail: Optional[Callable] = None
    name: str = "quantile"

    def __call__(self, u):
        return self.fn(u)

    def _upper(self):
        if self.upper_tail is not None:
            return self.upper_tail
        return lambda t: self.fn(1.0 - np.maximum(np.asarray(t, dtype=float), _T_MIN))

    def _lower(self):
        return self.fn if self.lower_tail is None else self.lower_tail

    def map(self, f: Callable, **changes) -> "QuantileFn":
        """The quantile ``f(Q)`` for a nondecreasing ``f`` of float arrays:
        ``f`` applied to ``fn`` and to both tails.  Breakpoints, tail class
        and name are kept unless ``changes`` overrides them."""
        up, lo = self._upper(), self._lower()
        return replace(self, fn=lambda u: f(np.asarray(self.fn(u), dtype=float)),
                       upper_tail=lambda t: f(np.asarray(up(t), dtype=float)),
                       lower_tail=lambda t: f(np.asarray(lo(t), dtype=float)),
                       **changes)

    @classmethod
    def from_callable(cls, fn, **kw) -> "QuantileFn":
        return cls(fn=lambda u: np.asarray(fn(np.asarray(u, dtype=float)), dtype=float),
                   **kw)

    @classmethod
    def constant(cls, c: float, name: str = "constant") -> "QuantileFn":
        return cls(fn=lambda u: np.full_like(np.asarray(u, dtype=float), float(c)),
                   name=name)

    @classmethod
    def from_grid(cls, us, qs, interp: str = "linear", name: str = "grid",
                  **kw) -> "QuantileFn":
        us = np.asarray(us, dtype=float)
        qs = np.asarray(qs, dtype=float)
        if np.any(np.diff(qs) < -1e-12 * (1.0 + np.max(np.abs(qs)))):
            raise DomainError("grid quantile values must be nondecreasing")
        if interp == "linear":
            fn = lambda u: np.interp(np.asarray(u, dtype=float), us, qs)
        elif interp == "step":
            def fn(u):
                idx = np.searchsorted(us, np.asarray(u, dtype=float), side="right") - 1
                return qs[np.clip(idx, 0, len(qs) - 1)]
        else:
            raise DomainError(f"unknown interpolation rule {interp!r}")
        return cls(fn=fn, breakpoints=tuple(us), name=name, **kw)


# ---------------------------------------------------------------------------
# Gauss panels and the product rule
# ---------------------------------------------------------------------------

_X, _W = _GL10
_EPS = float(np.finfo(float).eps)


def _product_rule() -> tuple:
    """(l, wD): the Lagrange basis of the 10 Gauss nodes at x = 1, l[j] =
    l_j(1), and wD[i, j] = w_i l_j'(x_i), from the barycentric weights of the
    nodes.  On a panel read as x in [-1, 1], P = sum_j q_j l_j interpolates
    Q, and integration by parts gives
    int P dg = sum_j q_j ((g(1) - g(-1)) l[j] - sum_i (g(x_i) - g(-1)) wD[i, j])."""
    diff = _X[:, None] - _X[None, :]
    np.fill_diagonal(diff, 1.0)
    bary = 1.0 / diff.prod(axis=1)
    slopes = bary[None, :] / bary[:, None] / diff
    np.fill_diagonal(slopes, 0.0)
    # each row of l_j'(x_i) sums to 0, the derivative of sum_j l_j = 1
    np.fill_diagonal(slopes, -slopes.sum(axis=1))
    at_one = bary / (1.0 - _X)
    return at_one / at_one.sum(), _W[:, None] * slopes


_L1, _WD = _product_rule()


def _chain(h: float, floor: float, per_octave: float) -> np.ndarray:
    """Ascending distances of a chain's panel edges from its end: 0, then the
    chain of ``log_chain(h, floor, per_octave)`` below h (h excluded)."""
    d = log_chain(h, floor, per_octave)
    return np.concatenate([[0.0], d[:0:-1]])


@lru_cache(maxsize=32)
def _chains(kinks: tuple, per_octave: float, floor: float) -> tuple:
    """(u, t): the ascending panel edges of the transform's chains (see
    ``_Layout``), those read in u and those of the end segment next to
    u = 1 in its distance t from u = 1, both read-only."""
    ends = [0.0, *kinks, 1.0]
    u_parts, t_parts = [], []
    for lo_end, hi_end in zip(ends[:-1], ends[1:]):
        h = 0.5 * (hi_end - lo_end)
        lo = _chain(h, floor if lo_end == 0.0 else 1e-14 * h, per_octave)
        hi = _chain(h, floor if hi_end == 1.0 else 1e-14 * h, per_octave)
        if hi_end < 1.0:
            u_parts += [lo_end + lo, [lo_end + h], hi_end - hi]
        elif lo_end > 0.0:
            t_parts += [hi, [h], (1.0 - lo_end) - lo]
        else:
            u_parts += [lo, [h]]
            t_parts += [hi, [h]]
    u, t = (np.unique(np.concatenate(p)) for p in (u_parts, t_parts))
    u.flags.writeable = t.flags.writeable = False
    return u, t


def _nodes(edges: np.ndarray, half: np.ndarray) -> np.ndarray:
    """The Gauss nodes of each panel between consecutive ``edges``, one row
    per panel.  A node that rounds onto an edge is moved one ulp inside, so
    that it reads Q on its own side of a breakpoint."""
    x = (0.5 * (edges[:-1] + edges[1:]))[:, None] + half[:, None] * _X
    np.maximum(x, np.nextafter(edges[:-1], np.inf)[:, None], out=x)
    return np.minimum(x, np.nextafter(edges[1:], 0.0)[:, None], out=x)


def _at(fn, x: np.ndarray) -> np.ndarray:
    """Values of ``fn`` at the points ``x`` as a float array of x's shape."""
    v = np.asarray(fn(x), dtype=float)
    return v if v.shape == x.shape else np.broadcast_to(v, x.shape)


class _Layout:
    """The Gauss panels of the oracle on (0, 1).

    The transform's kinks cut (0, 1) into segments.  Each segment is split
    at its midpoint, and each half is a chain of panels toward its own end,
    ``per_octave`` per halving of the distance: down to ``floor`` at u = 0
    and u = 1, and to 1e-14 of the half at a kink; the sliver left below a
    chain is one more panel.  The quantile's breakpoints cut the panels they
    fall in, so that Q is smooth on every panel.  Each panel carries the 10
    Gauss-Legendre nodes of its own coordinate.

    The end segment next to u = 1, from the last kink or breakpoint up (from
    u = 1/2 when that lies lower), is read in its distance t = 1 - u from
    u = 1, with Q read through its upper tail; every other panel is read in
    u, with Q read through its lower tail up to the first kink or breakpoint
    (or u = 1/2) and through ``fn`` above.  ``mass`` holds the weights of du
    at the nodes, for moments.
    """

    def __init__(self, kinks, breakpoints, per_octave: float, floor: float = 1e-60):
        kinks = tuple(sorted(k for k in kinks if 0.0 < k < 1.0))
        u, t = _chains(kinks, per_octave, floor)
        b = np.asarray(breakpoints, dtype=float)
        b = b[(b > 0.0) & (b < 1.0)]
        inner = list(kinks) + b.tolist()
        #: the lower end of the segment read in distance
        self.split = max(inner) if kinks else max(inner + [0.5])
        top = 1.0 - self.split
        if b.size:
            u = np.unique(np.concatenate([u, b, 1.0 - t[t > top]]))
            t = np.append(t[t < top], top)
        self.u, self.t = u, t
        self.n_lower = int(np.searchsorted(u, min(inner + [0.5])))
        halves = [0.5 * np.diff(e) for e in (self.u, self.t)]
        self.u_nodes, self.t_nodes = (_nodes(e, hw) for e, hw in zip((self.u, self.t), halves))
        self.mass = np.concatenate([(hw[:, None] * _W).ravel() for hw in halves])

    def values(self, Q: QuantileFn) -> np.ndarray:
        """Q at every node, the u-read panels first, as one flat array."""
        k = self.n_lower
        return np.concatenate([_at(Q._lower(), self.u_nodes[:k].ravel()),
                               _at(Q.fn, self.u_nodes[k:].ravel()),
                               _at(Q._upper(), self.t_nodes.ravel())])

    def read(self, tg: TransformedGHat) -> "_Layout":
        """Read ghat once at every edge and node.  Sets ``weights``, those
        of Q at the nodes in the product rule, so that ``values(Q) @
        weights`` is the integral of Q against dghat, and ``integrals``, the
        integral of ghat over each panel in ascending u.  The distance-read
        panels take ``ghat_upper_rel``, ghat less its value at u = 1, for its
        relative accuracy near u = 1; the product rule is blind to that
        constant."""
        weights, integrals = [], []
        for edges, nodes, fn, sign in ((self.u, self.u_nodes, tg.ghat, 1.0),
                                       (self.t, self.t_nodes, tg.ghat_upper_rel, -1.0)):
            # one call at the edges and nodes; ghat is 0 at u = 0 and its
            # relative form 0 at t = 0
            v = _at(fn, np.concatenate([edges[1:], nodes.ravel()]))
            ge = np.concatenate([[0.0], v[:len(edges) - 1]])
            gn = v[len(edges) - 1:].reshape(nodes.shape)
            weights.append(sign * ((ge[1:] - ge[:-1])[:, None] * _L1
                                   - (gn - ge[:-1, None]) @ _WD).ravel())
            integrals.append(0.5 * np.diff(edges) * (gn @ _W))
        self.weights = np.concatenate(weights)
        self.integrals = np.concatenate([integrals[0],
                                         (integrals[1] + tg.center * np.diff(self.t))[::-1]])
        return self

    def integrals_between(self, knots: np.ndarray) -> np.ndarray:
        """The integral of ghat between consecutive knots of each row of
        ``knots`` (after ``read``), each row ascending from 0 to 1 with its
        inner knots edges at or below ``split``.  Each piece sums its own
        panels, so a short piece keeps its relative accuracy."""
        n = len(self.integrals)
        at = np.where(knots < 1.0, np.searchsorted(self.u, knots), n)
        # a trailing 0 closes each row's last piece at the end of the panels
        sums = np.add.reduceat(np.append(self.integrals, 0.0), at.ravel())
        return sums.reshape(knots.shape)[:, :-1]


def _tolerance(Q: QuantileFn, rel_tol: Optional[float]) -> float:
    if rel_tol is not None:
        return rel_tol
    return 1e-6 if Q.tail_class in _DIVERGENT else 1e-8


def _as_transform(g, mode, extras) -> TransformedGHat:
    if isinstance(g, TransformedGHat):
        return g
    if mode is None:
        mode = g.mode_default
        if extras is None:
            extras = dict(g.extras_default)
    return make_ghat(g, mode, extras or {})


def _estimate(layout, terms) -> tuple:
    """(sum, error estimate) of the last axis of ``terms(layout(po))`` at
    one panel per octave.  The estimate is the change from one panel per two
    octaves plus the rounding of a sum of n terms, sqrt(n) eps times the sum
    of their magnitudes.  The fine density reads a tail analytic off its
    end to rounding and the coarse one to about 3e-10 relative (the
    Bernstein-ellipse bound in the module docstring), so a change above
    that marks a panel on which Q or ghat is not analytic: a kink or
    breakpoint the layout does not hold, or a tail cut at the floor."""
    coarse, fine = (terms(layout(po)) for po in (0.5, 1))
    value = fine.sum(axis=-1)
    err = (np.abs(value - coarse.sum(axis=-1))
           + math.sqrt(fine.shape[-1]) * _EPS * np.abs(fine).sum(axis=-1))
    return value, err


def riskmetric_of_quantile(g, mode=None, extras=None, Q: QuantileFn = None,
                           rel_tol: Optional[float] = None) -> float:
    """Riemann-Stieltjes value of the riskmetric at an explicit quantile.

    The product rule on the oracle's Gauss panels (``_Layout``), split at
    the transform's kinks and the quantile's breakpoints, at one panel per
    octave, with the change from one panel per two octaves as its error
    estimate (``_estimate``; the Bernstein-ellipse bound in the module
    docstring says why that density is enough).  Raises
    NonFiniteValue when the sum is not finite, and NonConvergent when its
    error estimate exceeds 10x the tolerance target (1e-8 smooth, 1e-6 for
    divergent tails).
    """
    if Q is None:
        raise DomainError("riskmetric_of_quantile requires a quantile function")
    tg = _as_transform(g, mode, extras)
    value, err = _estimate(lambda po: _Layout(tg.kinks, Q.breakpoints, po).read(tg),
                           lambda lay: lay.values(Q) * lay.weights)
    if not math.isfinite(value):
        raise NonFiniteValue(f"the Stieltjes sum of {Q.name} is {value}")
    tol = _tolerance(Q, rel_tol)
    if err > 10.0 * tol * max(1.0, abs(value)):
        raise NonConvergent(
            f"Stieltjes sum {value} has error estimate {err} (target {tol})")
    return float(value)


def weighted_entropy_of_quantile(g, w: WeightSpec, Q: QuantileFn,
                                 mode: Optional[str] = None, extras=None,
                                 rel_tol: Optional[float] = None) -> float:
    """Stieltjes value of the weighted form: integral of Psi(Q) against dghat."""
    psiQ = Q.map(w.Psi, name=f"Psi({Q.name})")
    return riskmetric_of_quantile(g, mode, extras, psiQ, rel_tol=rel_tol)


def quantile_moments(Q: QuantileFn, rel_tol: Optional[float] = None,
                     t_floor: float = 1e-60):
    """(mean, variance) of the distribution represented by ``Q``.

    Gauss sums of Q and Q^2 on the oracle's panels (``_Layout`` with no
    kinks, the end chains down to ``t_floor``), both powers from one
    evaluation of Q per panel density (``_estimate``).  NonConvergent is
    raised if an error estimate exceeds 10x tolerance, NonFiniteValue if a
    moment is not finite.
    """
    def terms(lay):
        q = lay.values(Q)
        return np.stack([q, q * q]) * lay.mass

    (m1, m2), err = _estimate(lambda po: _Layout((), Q.breakpoints, po, t_floor), terms)
    if not (math.isfinite(m1) and math.isfinite(m2)):
        raise NonFiniteValue(f"moments of {Q.name} are {m1} and {m2}")
    tol = _tolerance(Q, rel_tol)
    if np.max(err) > 10.0 * tol * max(1.0, abs(m1), abs(m2)):
        raise NonConvergent(f"moments {m1}, {m2} have error estimates {err} (target {tol})")
    return float(m1), float(m2 - m1 * m1)


# ---------------------------------------------------------------------------
# randomized feasible shapes
# ---------------------------------------------------------------------------

_SHAPES = ("uniform", "two-point", "three-point", "gaussian", "exponential", "spline")
#: shapes that draw nothing from their trial's stream, so every repeat is equal
_FIXED = ("uniform", "gaussian", "exponential")


def _affine(Q0: QuantileFn, mu: float, sigma: float) -> QuantileFn:
    return Q0.map(lambda v: mu + sigma * v,
                  tail_class=Q0.tail_class if sigma != 0.0 else "bounded")


def _draw(kind: str, rng: np.random.Generator) -> tuple:
    """(knots, levels) of a random shape with mean 0 and variance 1: a step
    function taking ``levels[i]`` from knot i on (two- and three-point), or
    the linear interpolant through (knots, levels) on [0, 1] (spline)."""
    if kind == "two-point":
        q = float(rng.uniform(0.05, 0.95))
        return np.array([q]), np.array([-math.sqrt((1.0 - q) / q), math.sqrt(q / (1.0 - q))])
    if kind == "three-point":
        q = np.sort(rng.uniform(0.05, 0.95, size=2))
        xs = np.sort(rng.normal(size=3))
        masses = np.array([q[0], q[1] - q[0], 1.0 - q[1]])
        mean = float(np.dot(masses, xs))
        var = float(np.dot(masses, (xs - mean) ** 2))
        if var < 1e-12:
            xs = xs + np.array([-1.0, 0.0, 1.0])
            mean = float(np.dot(masses, xs))
            var = float(np.dot(masses, (xs - mean) ** 2))
        return q, (xs - mean) / math.sqrt(var)
    if kind == "spline":
        nodes = np.concatenate([[0.0], np.sort(rng.uniform(0.02, 0.98, size=6)), [1.0]])
        vals = np.cumsum(rng.uniform(0.05, 1.0, size=len(nodes)))
        # exact moments of the piecewise-linear quantile
        a, b = vals[:-1], vals[1:]
        dl = np.diff(nodes)
        m1 = float(np.dot(0.5 * (a + b), dl))
        m2 = float(np.dot((a * a + a * b + b * b) / 3.0, dl))
        return nodes, (vals - m1) / math.sqrt(m2 - m1 * m1)
    raise DomainError(f"unknown shape {kind!r}")


def _standard_shape(kind: str, rng: np.random.Generator) -> QuantileFn:
    """A quantile function with mean 0 and variance 1 of the requested shape."""
    if kind == "uniform":
        s3 = math.sqrt(3.0)
        return QuantileFn(fn=lambda u: s3 * (2.0 * np.asarray(u, dtype=float) - 1.0),
                          name="uniform")
    if kind == "gaussian":
        from scipy.special import ndtri

        return QuantileFn(fn=lambda u: ndtri(np.asarray(u, dtype=float)),
                          tail_class="log-divergent",
                          upper_tail=lambda t: -ndtri(np.asarray(t, dtype=float)),
                          lower_tail=lambda t: ndtri(np.asarray(t, dtype=float)),
                          name="gaussian")
    if kind == "exponential":
        def fn(u):
            u = np.asarray(u, dtype=float)
            ok = u < 1.0
            return np.where(ok, -np.log1p(-np.where(ok, u, 0.0)) - 1.0, np.inf)

        return QuantileFn(fn=fn, tail_class="log-divergent",
                          upper_tail=lambda t: -np.log(np.asarray(t, dtype=float)) - 1.0,
                          lower_tail=lambda t: -np.log1p(-np.asarray(t, dtype=float)) - 1.0,
                          name="exponential")
    return _drawn_shape(kind, *_draw(kind, rng))


def _drawn_shape(kind: str, knots: np.ndarray, levels: np.ndarray) -> QuantileFn:
    """The quantile function of a random shape with the draw ``_draw`` gave."""
    if kind == "two-point":
        (q,), (a, b) = knots.tolist(), levels.tolist()
        return QuantileFn(fn=lambda u: np.where(np.asarray(u, dtype=float) < q, a, b),
                          breakpoints=(q,), name="two-point")
    if kind == "three-point":
        q1, q2 = knots

        def fn(u, xs=levels):
            u = np.asarray(u, dtype=float)
            return np.where(u < q1, xs[0], np.where(u < q2, xs[1], xs[2]))

        return QuantileFn(fn=fn, breakpoints=(float(q1), float(q2)), name="three-point")
    return QuantileFn(fn=lambda u: np.interp(np.asarray(u, dtype=float), knots, levels),
                      breakpoints=tuple(knots[1:-1]), name="spline")


@lru_cache(maxsize=8)
def _seeded_draws(kind: str, seed: int, trials: int) -> tuple:
    """(knots, levels) of the random-shape trials of a stress call, one row
    per trial k < ``trials`` of shape ``kind``, each drawn by ``_draw`` from
    its stream ``default_rng([seed, k])``.  The draws depend on neither the
    transform nor the moments, so repeated calls share them; the arrays are
    read-only."""
    ks = range(_SHAPES.index(kind), trials, len(_SHAPES))
    draws = [_draw(kind, np.random.default_rng([seed, k])) for k in ks]
    knots, levels = (np.array(a) for a in zip(*draws))
    knots.flags.writeable = levels.flags.writeable = False
    return knots, levels


def _trial_values(kind: str, draws: tuple, mu: float, sigma: float,
                  tg: TransformedGHat, lay: _Layout) -> np.ndarray:
    """The riskmetric of each random-shape trial, from its draw ``draws``
    (knots, levels) standardized to (mu, sigma), summed exactly.

    A step trial takes level c between knots c - 1 and c (u = 0 and u = 1
    at the ends), so its sum is that of level c times the change in ghat
    across its step.  A spline is linear between its knots, which start at
    u = 0 and end at u = 1, and continuous, so integration by parts leaves
    Q(1) ghat(1) less the sum over its pieces of slope times the integral
    of ghat over the piece, which ``lay`` holds with every spline knot as
    one of its edges."""
    knots, levels = draws
    if kind == "spline":
        slopes = np.diff(levels, axis=1) / np.diff(knots, axis=1)
        dG = lay.integrals_between(knots)
        return (mu + sigma * levels[:, -1]) * tg.center - sigma * np.sum(slopes * dG, axis=1)
    n = len(knots)
    at_knots = np.hstack([np.zeros((n, 1)), _at(tg.ghat, knots), np.full((n, 1), tg.center)])
    return np.sum((mu + sigma * levels) * np.diff(at_knots, axis=1), axis=1)


@dataclass(frozen=True)
class StressReport:
    """Outcome of a randomized dominance check for one bound."""

    family: str
    params: dict
    mode: str
    bound: float
    max_observed: float
    gap: float
    trials: int
    seed: int
    worst_shape: str
    shape_max: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {"family": self.family, "params": dict(self.params),
                   "mode": self.mode, "bound": self.bound,
                   "max_observed": self.max_observed, "gap": self.gap,
                   "trials": self.trials, "seed": self.seed,
                   "worst_shape": self.worst_shape,
                   "shape_max": dict(self.shape_max)}
        return json.dumps(payload, sort_keys=True)


def feasibility_stress(g: DistortionFn, mode=None, extras=None, moments=None,
                       trials: int = 1000, seed: int = 0,
                       result=None) -> StressReport:
    """Evaluate the riskmetric at randomized feasible distributions.

    Draws quantile functions of six shape types, affinely standardized to the
    requested mean and standard deviation, and asserts none exceeds the sharp
    bound beyond 1e-8 relative slack.  Deterministic for a fixed seed: trial
    k has shape k mod 6 and uses the counter-based stream seeded with
    (seed, k).

    One layout of the transform, with every spline knot as an edge, is read
    once per call, at one panel per octave: the density at which
    ``_estimate`` takes its value, enough by the Bernstein-ellipse bound in
    the module docstring.  The uniform, Gaussian and exponential
    shapes draw nothing, so each is evaluated once by the product rule on
    it, and its value stands for every repeat.  The draws of the other
    shapes depend only on (shape, seed, trials) and are made once for all
    calls (``_seeded_draws``); their trials are summed exactly from their
    draws (``_trial_values``), and a trial's own quantile function is built
    only when it is reported.  ``result`` is the ``BoundResult`` of
    ``worst_case_bound`` for these inputs when the caller already has it;
    otherwise it is computed here.  ``moments`` is required, and ``trials``
    must be an integer.
    """
    try:
        trials = operator.index(trials)
    except TypeError:
        raise DomainError(f"trials must be an integer, not {trials!r}") from None
    if trials < 0:
        raise DomainError("trials must be >= 0")
    if moments is None:
        raise DomainError("feasibility_stress requires moments")
    if result is None:
        from .bounds import worst_case_bound

        result = worst_case_bound(g, mode, extras, moments)
    tg = _as_transform(g, mode, extras)
    bound = result.sup_value
    if trials == 0:
        return StressReport(family=g.family, params=dict(g.params), mode=tg.mode,
                            bound=bound, max_observed=-math.inf, gap=math.inf,
                            trials=0, seed=seed, worst_shape="")
    mu, sigma = moments.mu, moments.sigma

    def trial(k):
        """Trial k's quantile function, from its draw."""
        kind = _SHAPES[k % len(_SHAPES)]
        if kind in _FIXED:
            return _affine(_standard_shape(kind, None), mu, sigma)
        draws = _seeded_draws(kind, seed, trials)
        return _affine(_drawn_shape(kind, *(a[k // len(_SHAPES)] for a in draws)), mu, sigma)

    # the spline knots are edges of the layout, so G is read at each
    knots = _seeded_draws("spline", seed, trials)[0] if trials > _SHAPES.index("spline") else ()
    lay = _Layout(tg.kinks, np.ravel(knots), 1).read(tg)
    vals = np.empty(trials)
    for j, kind in enumerate(_SHAPES[:trials]):
        if kind in _FIXED:
            vals[j::len(_SHAPES)] = lay.values(trial(j)) @ lay.weights
        else:
            vals[j::len(_SHAPES)] = _trial_values(kind, _seeded_draws(kind, seed, trials),
                                                 mu, sigma, tg, lay)
    max_obs = -math.inf
    worst = -1
    shape_max: dict = {}
    for k, val in enumerate(vals.tolist()):
        kind = _SHAPES[k % len(_SHAPES)]
        if val > shape_max.get(kind, -math.inf):
            shape_max[kind] = val
        if val > max_obs:
            max_obs, worst = val, k
    worst_shape = _SHAPES[worst % len(_SHAPES)] if worst >= 0 else ""
    gap = bound - max_obs
    if max_obs > bound + 1e-8 * (1.0 + abs(bound)):
        raise BoundViolated(
            f"{g.family}: feasible value {max_obs} exceeds bound {bound}",
            quantile=trial(worst), shape=worst_shape, observed=max_obs, bound=bound)
    return StressReport(family=g.family, params=dict(g.params), mode=tg.mode,
                        bound=bound, max_observed=max_obs, gap=gap, trials=trials,
                        seed=seed, worst_shape=worst_shape, shape_max=shape_max)

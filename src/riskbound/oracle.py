"""Independent verification of bounds.

Evaluates a distortion riskmetric (or weighted entropy) at an explicit
quantile function through its Riemann-Stieltjes quantile representation,
computes quantile moments, and stress-tests a bound against randomized
feasible distributions.  Everything here deliberately avoids the envelope
machinery so it can serve as an oracle for it.

The Stieltjes sums use only values of the transformed distortion (never its
derivative).  Each segment between the transform's kinks is split at its
midpoint, and each half is one chain in distance from its own end, as
``_num.integrate_segment`` lays out its panels: the segment's uniform mesh
points plus cells shrinking in proportion to the distance, so that log- and
power-divergent quantile tails are integrated to tolerance.  The halves at
u = 0 and u = 1 run down to ~1e-60 and are read in distance through the
stable tail evaluators of the transform and the quantile; the others are
read in u.  One ascending array of cell edges in u carries the values of the
transform, so its increments telescope with no handover between coordinates.

The stress test evaluates the trials of each random shape together.  Their
parameters come from each trial's own seeded stream, drawn once per (shape,
seed, trial count) and kept for later calls.  Each trial is piecewise
constant or linear in u, so its sum is taken piece by piece from two running
sums per partition level, of dghat and of u * dghat, with the cells that
hold a knot split as for any quantile.  Quantile moments use Gauss panels
at 1/2 and 1 per octave of distance from each end, two densities a factor
2 apart.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from ._num import integrate_segment, log_chain
from .distortion import DistortionFn, TransformedGHat, WeightSpec, make_ghat
from .errors import BoundViolated, DomainError, NonConvergent, NonFiniteValue

_DIVERGENT = ("log-divergent", "power-divergent")
_T_MIN = 2.0 ** -53  # the least distance t from u = 1 with 1 - t < 1


@dataclass(frozen=True)
class QuantileFn:
    """A nondecreasing map on (0, 1) representing a distribution.

    ``upper_tail(t) = Q(1 - t)`` and ``lower_tail(t) = Q(t)`` are stable
    evaluators at distance t from an end.  The oracle reads them at every
    distance up to half the transform's end segment, so each must agree
    with ``fn`` there, not only in the far tail.  When absent, the upper
    tail reads ``fn(1 - t)`` with t clamped at 2**-53 so that 1 - t stays
    below 1, and the lower tail reads ``fn(t)``.
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
# Stieltjes machinery
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _half_chain(span: float, n_base: int, per_octave: int, stop: float) -> tuple:
    """Ascending distances from one end of a segment to its midpoint, 0 and
    the midpoint included, and the midpoints of the cells between them.

    The distances are the segment's uniform mesh points in that half and a
    geometric chain from the midpoint down to ``stop``.  Both arrays are
    read-only, so the partitions of every transform share them.
    """
    step = span / n_base
    chain = log_chain(0.5 * span, stop, per_octave)[::-1]
    # only the chain above the first mesh point interleaves with the mesh
    k = np.searchsorted(chain, step)
    mesh = step * np.arange(1, (n_base + 1) // 2)
    d = np.concatenate([[0.0], chain[:k], np.unique(np.concatenate([mesh, chain[k:]]))])
    mid = 0.5 * (d[:-1] + d[1:])
    d.flags.writeable = mid.flags.writeable = False
    return d, mid


def _at(fn, x: np.ndarray) -> np.ndarray:
    """Values of ``fn`` at the points ``x`` as a float array of x's shape."""
    v = np.asarray(fn(x), dtype=float)
    return v if v.shape == x.shape else np.broadcast_to(v, x.shape)


class _StieltjesCache:
    """Precomputed two-level partition of a transform for repeated evaluation.

    Each segment between the transform's kinks is split at its midpoint, and
    each half is one chain in distance from its own end (``_half_chain``):
    down to ``t_floor`` at u = 0 and u = 1, to 1e-9 of the segment at a kink.
    A level holds one ascending array of cell edges in u (0 and 1 included)
    with ghat at each edge, ghat(0) = 0 and ghat(1) = ``center`` at the two
    ends, so the increments telescope with no handover.
    The two end halves are read in distance, through the quantile's tails
    and, for ghat, ``ghat_upper`` at u = 1 and ``ghat`` at u = 0, where the
    distance is u itself; every other half is read in u.
    Quantiles are valued per cell at its midpoint in the coordinate it is
    read in; the last cell at each end is the sliver [0, floor].
    """

    def __init__(self, tg: TransformedGHat, n_base: int = 2048,
                 per_octave: int = 16, t_floor: float = 1e-60):
        self.tg = tg
        self.levels = []
        edges = [0.0] + sorted(k for k in tg.kinks if 0.0 < k < 1.0) + [1.0]
        for nb, po in ((n_base, per_octave), (2 * n_base, 2 * per_octave)):
            d_lo, t_lo = _half_chain(edges[1], nb, po, t_floor)
            d_hi, t_hi = (a[::-1] for a in _half_chain(1.0 - edges[-2], nb, po, t_floor))
            # the u-read edges: each segment from its lower end up to (not
            # including) its upper end, less the two end halves
            inner = []
            for a, b in zip(edges[:-1], edges[1:]):
                if a > 0.0:
                    inner.append(a + _half_chain(b - a, nb, po, 1e-9 * (b - a))[0])
                if b < 1.0:
                    inner.append(b - _half_chain(b - a, nb, po, 1e-9 * (b - a))[0][-2:0:-1])
            inner = np.concatenate(inner) if inner else np.empty(0)
            n_u = len(d_lo) + len(inner)
            # the upper end half's edges 1 - d are written in place
            pts = np.concatenate([d_lo, inner, d_hi[1:]])
            np.subtract(1.0, d_hi[1:], out=pts[n_u:])
            # ghat reads the edges below the upper end half in u, and that
            # half's in distance
            gv = np.concatenate([[0.0], _at(tg.ghat, pts[1:n_u]),
                                 _at(tg.ghat_upper, d_hi[1:-1]), [tg.center]])
            # the u-read cells run from the lower end half's last edge
            u = pts[len(d_lo) - 1:n_u]
            self.levels.append({"pts": pts, "gv": gv, "dg": np.diff(gv),
                                "nodes": (t_lo, 0.5 * (u[:-1] + u[1:]), t_hi)})

    def _running_sums(self, level) -> tuple:
        """The level's nodes in u, as ``_Trials`` reads them, and the
        running sums of dghat and of u * dghat over its cells, 0 first.
        The increments of ghat telescope, so their running sum is ``gv``.
        The other is a pair: the running sum, and the running sum of the
        rounding error of each of its steps (recovered exactly by TwoSum),
        so that the difference of two entries keeps the accuracy of the
        terms between them however large the sum before them.  Built once
        per level and shared by every batch of trials."""
        if "running" not in level:
            t_lo, u, t_hi = level["nodes"]
            x = np.concatenate([t_lo, u, 1.0 - np.maximum(t_hi, _T_MIN)])
            xdg = x * level["dg"]
            s1, err = np.zeros(len(x) + 1), np.zeros(len(x) + 1)
            np.cumsum(xdg, out=s1[1:])
            before, after = s1[:-1], s1[1:]
            part = after - before
            np.cumsum((before - (after - part)) + (xdg - part), out=err[1:])
            level["running"] = x, level["gv"], (s1, err)
        return level["running"]

    def _split_terms(self, batch, cells=None) -> np.ndarray:
        """What inserting each quantile's breakpoints into each level's
        partition adds to its sum, shape (levels, quantiles).

        A cell [p_c, p_c+1] holding breakpoints b_1 < ... < b_m is replaced
        by its sub-cells [p_c, b_1], ..., [b_m, p_c+1], each valued in u at
        its midpoint.  ghat is evaluated once on the breakpoints of all
        quantiles.  The value the level's sum took on the cell is taken from
        ``cells``, each level's matrix of values, when given; otherwise the
        batch is read at the cell's node in u (``_running_sums``) together
        with the sub-cells, in one call for all levels.
        """
        n, n_lv = batch.size, len(self.levels)
        tr, b = batch.breaks
        if not b.size:
            return np.zeros((n_lv, n))
        gb = _at(self.tg.ghat, b)
        key, at, dg = [], [], []
        split = np.zeros(n_lv * n)
        for li, level in enumerate(self.levels):
            pts, gv = level["pts"], level["gv"]
            c = np.searchsorted(pts, b) - 1
            first = np.ones(len(b), dtype=bool)
            first[1:] = (tr[1:] != tr[:-1]) | (c[1:] != c[:-1])
            last = np.append(first[1:], True)
            cf, cl = c[first], c[last] + 1
            # the sub-cell ending at each breakpoint, then the one closing each cell
            x_lo, g_lo = np.empty_like(b), np.empty_like(gb)
            x_lo[1:], g_lo[1:] = b[:-1], gb[:-1]
            x_lo[first], g_lo[first] = pts[cf], gv[cf]
            key += [li * n + tr, li * n + tr[last]]
            at += [0.5 * (x_lo + b), 0.5 * (b[last] + pts[cl])]
            dg += [gb - g_lo, gv[cl] - gb[last]]
            if cells is None:
                key.append(li * n + tr[first])
                at.append(self._running_sums(level)[0][cf])
                dg.append(-level["dg"][cf])
            else:
                split += np.bincount(li * n + tr[first], minlength=n_lv * n,
                                     weights=cells[li][tr[first], cf] * level["dg"][cf])
        key, at, dg = (np.concatenate(a) for a in (key, at, dg))
        added = np.bincount(key, weights=batch.pairs(key % n, at) * dg, minlength=n_lv * n)
        return (added - split).reshape(n_lv, n)

    def values(self, Qs):
        """(coarse, fine) Stieltjes sums of the integral of each quantile
        against dghat, as two arrays.  ``Qs`` is a list of ``QuantileFn`` or
        the ``_Trials`` of one random shape.  The cells of a list form one
        matrix per level, multiplied by that level's fixed increments of
        ghat.  Trials are piecewise in u, so each sums its pieces from the
        level's running sums (``_running_sums``), at a cost set by its
        pieces, not by the level's cells."""
        if isinstance(Qs, (list, tuple)):
            batch = _Rows(Qs)
            cells = [batch.cells(*level["nodes"]) for level in self.levels]
            sums = np.stack([c @ level["dg"] for c, level in zip(cells, self.levels)])
        else:
            batch, cells = Qs, None
            sums = np.stack([batch.sums(*self._running_sums(level)) for level in self.levels])
        coarse, fine = sums + self._split_terms(batch, cells)
        return coarse, fine


class _Rows:
    """A list of ``QuantileFn`` evaluated as a batch, one row per quantile."""

    def __init__(self, Qs):
        self.Qs = list(Qs)
        self.size = len(self.Qs)
        brk = [np.sort(np.asarray(Q.breakpoints, dtype=float)) for Q in self.Qs]
        tr = np.repeat(np.arange(self.size), [len(b) for b in brk])
        b = np.concatenate(brk)
        inside = (b > 0.0) & (b < 1.0)
        #: each breakpoint inside (0, 1) and its quantile, grouped by quantile
        self.breaks = tr[inside], b[inside]

    def cells(self, t_lo, u, t_hi):
        """Each quantile at the distances ``t_lo`` from u = 0, the points
        ``u`` and the distances ``t_hi`` from u = 1, one row per quantile."""
        out = np.empty((self.size, len(t_lo) + len(u) + len(t_hi)))
        a, b = len(t_lo), len(t_lo) + len(u)
        for row, Q in zip(out, self.Qs):
            row[:a], row[a:b], row[b:] = Q._lower()(t_lo), Q.fn(u), Q._upper()(t_hi)
        return out

    def pairs(self, rows, u):
        """The value of quantile ``rows[i]`` at ``u[i]``."""
        order = np.argsort(rows, kind="stable")
        parts = np.split(u[order], np.searchsorted(rows[order], np.arange(1, self.size)))
        out = np.empty_like(u)
        out[order] = np.concatenate([_at(Q.fn, x) for Q, x in zip(self.Qs, parts)])
        return out


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


_PER_OCTAVE = {"bounded": 12, "log-divergent": 64, "power-divergent": 96}


def riskmetric_of_quantile(g, mode=None, extras=None, Q: QuantileFn = None,
                           rel_tol: Optional[float] = None, n_base: int = 2048,
                           *, _caches=None) -> float:
    """Riemann-Stieltjes value of the riskmetric at an explicit quantile.

    A midpoint partition sum (kinks and quantile breakpoints inserted,
    spacing proportional to the distance from either endpoint), refined once
    and Richardson-extrapolated.  Raises NonFiniteValue when a sum is not
    finite, and NonConvergent when the refinement levels disagree beyond
    10x the tolerance target (1e-8 smooth, 1e-6 for divergent tails).

    ``_caches`` maps points per octave (set by the tail class) to partitions
    of this transform at this ``n_base``; a partition missing from it is
    built and added, so callers evaluating many quantiles share them.
    """
    if Q is None:
        raise DomainError("riskmetric_of_quantile requires a quantile function")
    tg = _as_transform(g, mode, extras)
    po = _PER_OCTAVE.get(Q.tail_class, 64)
    cache = None if _caches is None else _caches.get(po)
    if cache is None:
        cache = _StieltjesCache(tg, n_base=n_base, per_octave=po)
        if _caches is not None:
            _caches[po] = cache
    (s1,), (s2,) = cache.values([Q])
    value = s2 + (s2 - s1) / 3.0
    if not math.isfinite(value):
        raise NonFiniteValue(f"Stieltjes sums of {Q.name} are {s1} and {s2}")
    tol = _tolerance(Q, rel_tol)
    # the observed order is ~2 in the partition density, so the extrapolated
    # value carries roughly a third of the level disagreement as residual
    if abs(s2 - s1) / 3.0 > 10.0 * tol * max(1.0, abs(value)):
        raise NonConvergent(
            f"Stieltjes refinements disagree: {s1} vs {s2} (target {tol})")
    return float(value)


def weighted_entropy_of_quantile(g, w: WeightSpec, Q: QuantileFn,
                                 mode: Optional[str] = None, extras=None,
                                 rel_tol: Optional[float] = None,
                                 n_base: int = 2048) -> float:
    """Stieltjes value of the weighted form: integral of Psi(Q) against dghat."""
    psiQ = Q.map(w.Psi, name=f"Psi({Q.name})")
    return riskmetric_of_quantile(g, mode, extras, psiQ, rel_tol=rel_tol,
                                  n_base=n_base)


def quantile_moments(Q: QuantileFn, rel_tol: Optional[float] = None,
                     t_floor: float = 1e-60):
    """(mean, variance) of the distribution represented by ``Q``.

    Plain integrals of Q and Q^2 on breakpoint-split panels with geometric
    endpoint refinement, both powers from one evaluation of Q per node set;
    two panel densities, 1/2 and 1 per octave, are compared and
    NonConvergent is raised if they disagree beyond 10x tolerance,
    NonFiniteValue if a moment is not finite.
    """
    def powers(fn):
        def f(u):
            v = np.asarray(fn(u), dtype=float)
            return np.stack([v, v * v])
        return f

    f, f_lo, f_hi = powers(Q.fn), powers(Q._lower()), powers(Q._upper())
    edges = [0.0] + sorted(b for b in Q.breakpoints if 0.0 < b < 1.0) + [1.0]
    results = []
    for po in (0.5, 1):
        m = 0.0
        for a, b in zip(edges[:-1], edges[1:]):
            m = m + integrate_segment(f, a, b, fn_lo=f_lo if a == 0.0 else None,
                                      fn_hi=f_hi if b == 1.0 else None,
                                      t_floor=t_floor, per_octave=po)
        results.append(tuple(m))
    (m1a, m2a), (m1b, m2b) = results
    if not (math.isfinite(m1b) and math.isfinite(m2b)):
        raise NonFiniteValue(f"moments of {Q.name} are {m1b} and {m2b}")
    tol = _tolerance(Q, rel_tol)
    scale = max(1.0, abs(m1b), abs(m2b))
    if max(abs(m1b - m1a), abs(m2b - m2a)) > 10.0 * tol * scale:
        raise NonConvergent("moment quadrature refinements disagree")
    return float(m1b), float(m2b - m1b * m1b)


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


class _Trials:
    """The trials of one random shape, their draws standardized to
    (mu, sigma), evaluated as arrays.

    Each trial is piecewise in u: piece c holds the u with c knots at or
    left of them.  A step shape takes its level there; the spline takes its
    linear piece, flat left of the first node and from the last, which is
    ``np.interp``'s arithmetic.  The affine map comes last, so row i of
    ``inner`` matches ``_affine(_standard_shape(kind, rng), mu, sigma)`` bit
    for bit, for the stream ``rng`` that drew row i.  ``sums`` integrates
    each piece from running sums, with no value at any node.  ``draws`` is
    (knots, levels), one row per trial, as ``_draw`` gives them.
    """

    def __init__(self, kind: str, draws: tuple, mu: float, sigma: float):
        knots, levels = draws
        self.knots, self.mu, self.sigma = knots, mu, sigma
        self.size = len(knots)
        inf = np.full((self.size, 1), np.inf)
        self._bounds = np.hstack([-inf, knots, inf])
        if kind == "spline":
            flat = np.zeros((self.size, 1))
            brk = knots[:, 1:-1]
            # (slope, left node, value there) of each piece
            self.pieces = (np.hstack([flat, np.diff(levels, axis=1) / np.diff(knots, axis=1), flat]),
                           np.hstack([knots[:, :1], knots]), np.hstack([levels[:, :1], levels]))
        else:
            brk = knots
            self.pieces = (levels,)
        #: each breakpoint and its trial, grouped by trial
        self.breaks = np.repeat(np.arange(self.size), brk.shape[1]), brk.ravel()

    def _on_pieces(self, take, u):
        """The values at ``u``, given ``take(a)``: each point's entry of a
        per-piece array ``a`` of shape (trials, pieces)."""
        if len(self.pieces) == 1:
            v = take(self.pieces[0])
        else:
            slope, x0, y0 = map(take, self.pieces)
            v = slope * (u - x0) + y0
        return self.mu + self.sigma * v

    def inner(self, u):
        """Every trial at the nondecreasing points ``u``, shape (trials, len(u))."""
        # the knots split u into runs, one per piece
        at = np.searchsorted(u, self._bounds)
        runs = (at[:, 1:] - at[:, :-1]).ravel()
        return self._on_pieces(
            lambda a: np.repeat(a.ravel(), runs).reshape(self.size, len(u)), u)

    def sums(self, x, s0, s1):
        """Every trial's sum of its values at the nondecreasing nodes ``x``
        times weights w, given the running sums ``s0`` of w and ``s1`` of
        x * w (0 first), the latter as a pair (sum, error sum).  Piece c
        spans the nodes from ``at[c]`` on, so its weight and first moment
        are differences of the running sums, and its sum is linear in them."""
        at = np.searchsorted(x, self._bounds)
        lo, hi = at[:, :-1], at[:, 1:]
        w0 = s0[hi] - s0[lo]
        if len(self.pieces) == 1:
            return np.sum((self.mu + self.sigma * self.pieces[0]) * w0, axis=1)
        slope, x0, y0 = self.pieces
        w1 = (s1[0][hi] - s1[0][lo]) + (s1[1][hi] - s1[1][lo])
        return np.sum((self.mu + self.sigma * y0) * w0
                      + self.sigma * slope * (w1 - x0 * w0), axis=1)

    def pairs(self, rows, u):
        """The value of trial ``rows[i]`` at ``u[i]``."""
        c = (self.knots[rows] <= u[:, None]).sum(axis=1)
        return self._on_pieces(lambda a: a[rows, c], u)


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
    bound beyond 1e-8 relative slack.  Trials run on a cheap quadrature; any
    trial landing near the bound is re-evaluated at full precision before the
    comparison.  Deterministic for a fixed seed: trial k has shape k mod 6
    and uses the counter-based stream seeded with (seed, k).

    The uniform, Gaussian and exponential shapes draw nothing, so each is
    evaluated once and its value stands for every repeat.  The draws of the
    other shapes depend only on (shape, seed, trials) and are made once for
    all calls (``_seeded_draws``).  The trials of each random shape are
    summed together (``_Trials``) from running sums that the cheap
    partition builds once per level and call, at a cost per trial set by
    its pieces; a trial's own quantile function is built only when it is
    refined or reported.  The full-precision partitions (one per tail
    class) are built at most once per call and shared by all refinements.
    ``result`` is the ``BoundResult`` of ``worst_case_bound`` for these
    inputs when the caller already has it; otherwise it is computed here.
    ``moments`` is required, and ``trials`` must be an integer.
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
    cheap = _StieltjesCache(tg, n_base=512, per_octave=6, t_floor=1e-45)
    fine: dict = {}
    near = 2e-3 * (1.0 + abs(bound))
    mu, sigma = moments.mu, moments.sigma

    def trial(k):
        """Trial k's quantile function, from its draw."""
        kind = _SHAPES[k % len(_SHAPES)]
        if kind in _FIXED:
            return _affine(_standard_shape(kind, None), mu, sigma)
        draws = _seeded_draws(kind, seed, trials)
        return _affine(_drawn_shape(kind, *(a[k // len(_SHAPES)] for a in draws)), mu, sigma)

    vals = np.empty(trials)
    for j, kind in enumerate(_SHAPES[:trials]):
        if kind in _FIXED:
            batch = [trial(j)]
        else:
            batch = _Trials(kind, _seeded_draws(kind, seed, trials), mu, sigma)
        s1, s2 = cheap.values(batch)
        v = s2 + (s2 - s1) / 3.0
        for i in np.flatnonzero(v > bound - near):
            v[i] = riskmetric_of_quantile(tg, None, None, trial(j + i * len(_SHAPES)),
                                          n_base=4096, _caches=fine)
        vals[j::len(_SHAPES)] = v
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

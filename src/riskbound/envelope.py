"""Convex envelopes of transformed distortions on [0, 1].

The sharp worst-case bound is driven by the right derivative of the greatest
convex minorant of the transformed distortion.  Two routes are provided: a
closed-form assembly for catalog families (linear piece + analytic branch
meeting at a contact point solved from the family's tangency equation) and a
numeric route (lower convex hull of a refined sample of the graph).

The squared-slope integral is evaluated so that log- and power-type slope
blow-ups at the ends of [0, 1] are captured: analytic branches are integrated
on geometric panels in distance-to-endpoint coordinates, and hull chords get
a curvature (Jensen) correction plus a chord-chain continuation below the
grid floor using the transform's stable tail evaluators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ._num import integrate_segment, log_chain, solve_breakpoint
from .errors import NoAnalyticForm, NonConvergent, NonFiniteValue, ParamOutOfDomain
from .distortion import TransformedGHat

DEFAULT_GRID = 4097
GRID_FLOOR = 1e-9     # deepest cascade offset represented in u coordinates
CHAIN_FLOOR = 1e-60   # deepest distance reached through stable tail evaluators
FLOOR_MASS_TOL = 1e-7  # largest share of the squared-slope mass left at that floor


@dataclass(frozen=True)
class Segment:
    """One envelope piece: a straight chord or an analytic branch."""

    lo: float
    hi: float
    kind: str                       # "chord" | "analytic"
    slope: Optional[float] = None   # chords
    slope_fn: Optional[Callable] = None
    slope_lo: Optional[Callable] = None  # slope at u = t      (stable, lo == 0)
    slope_hi: Optional[Callable] = None  # slope at u = 1 - t  (stable, hi == 1)
    contact_run: bool = False       # envelope coincides with the source here


@dataclass(frozen=True)
class PiecewiseEnvelope:
    """The greatest convex minorant of a transformed distortion.

    ``knots`` are the segment boundaries, ``values`` the envelope there.
    Slopes are right derivatives: constants on chords, evaluable on analytic
    branches.
    """

    knots: np.ndarray
    values: np.ndarray
    segments: tuple
    source: TransformedGHat
    meta: dict = field(default_factory=dict)

    def _locate(self, u):
        u = np.asarray(u, dtype=float)
        idx = np.searchsorted(self.knots, u, side="right") - 1
        return u, np.clip(idx, 0, len(self.segments) - 1)

    def _arrays(self):
        cached = self.meta.get("_seg_arrays")
        if cached is None:
            slopes = np.array([s.slope if s.slope is not None else np.nan
                               for s in self.segments])
            contact = np.array([s.contact_run for s in self.segments], dtype=bool)
            analytic = np.array([s.kind == "analytic" for s in self.segments],
                                dtype=bool)
            cached = (slopes, contact, analytic)
            self.meta["_seg_arrays"] = cached
        return cached

    def value(self, u):
        u_arr, idx = self._locate(u)
        slopes, contact, analytic = self._arrays()
        out = self.values[idx] + slopes[idx] * (u_arr - self.knots[idx])
        # analytic branches and one-step hull segments coincide with the source
        delegate = contact[idx] | analytic[idx]
        if np.any(delegate):
            out = np.where(delegate,
                           np.asarray(self.source.ghat(u_arr), dtype=float), out)
        if np.ndim(u) == 0:
            return float(out.reshape(-1)[0])
        return out

    def slope(self, u):
        u_arr, idx = self._locate(u)
        slopes, _, analytic = self._arrays()
        out = slopes[idx]
        if np.any(analytic):
            for k, seg in enumerate(self.segments):
                if seg.kind != "analytic":
                    continue
                m = idx == k
                if np.any(m):
                    out = np.where(m, np.asarray(seg.slope_fn(np.where(m, u_arr, seg.lo)),
                                                 dtype=float), out)
        if np.ndim(u) == 0:
            return float(out.reshape(-1)[0])
        return out


# ---------------------------------------------------------------------------
# numeric envelope
# ---------------------------------------------------------------------------

def _numeric_grid(tg: TransformedGHat, n_grid: int):
    """Per-panel uniform grid plus geometric cascades toward panel edges."""
    interior_kinks = sorted(k for k in tg.kinks if 0.0 < k < 1.0)
    specials = [0.0] + interior_kinks + [1.0]
    pieces = []
    for a, b in zip(specials[:-1], specials[1:]):
        span = b - a
        if span <= 0.0:
            continue
        pieces.append(np.linspace(a, b, n_grid))
        if span > 4.0 * GRID_FLOOR:
            offs = log_chain(0.5 * span, GRID_FLOOR, 32)
            pieces.append(a + offs)
            pieces.append(b - offs)
    for k in interior_kinks:
        pieces.append(np.array([k - 1e-12, k, k + 1e-12]))
    grid = np.unique(np.clip(np.concatenate(pieces), 0.0, 1.0))
    # drop 1-ulp twins created by unioning uniform and cascade points; they
    # carry rounding-level value noise that corrupts the hull's geometry
    keep = np.concatenate([[True], np.diff(grid) > 1e-15])
    if not keep[-1]:
        keep[-1] = True   # the endpoint itself must survive, not its twin
        keep[-2] = False
    return grid[keep]


def _lower_hull_indices(us: np.ndarray, ys: np.ndarray) -> list:
    """Monotone-chain lower hull; collinear points (1e-14 scale) are merged."""
    xs = us.tolist()
    vs = ys.tolist()
    stack: list = []
    sx: list = []
    sy: list = []
    push = stack.append
    for i in range(len(xs)):
        xi = xs[i]
        yi = vs[i]
        while len(sx) >= 2:
            x1 = sx[-1]
            y1 = sy[-1]
            x0 = sx[-2]
            y0 = sy[-2]
            a = (x1 - x0) * (yi - y0)
            b = (xi - x0) * (y1 - y0)
            if a - b <= 1e-14 * (abs(a) + abs(b) + 1e-300):
                stack.pop()
                sx.pop()
                sy.pop()
            else:
                break
        push(i)
        sx.append(xi)
        sy.append(yi)
    return stack


def convex_envelope_numeric(ghat: TransformedGHat, n_grid: int = DEFAULT_GRID,
                            extra_points=None) -> PiecewiseEnvelope:
    """Lower convex hull of the sampled graph of ``ghat``.

    The grid is a per-panel uniform mesh (panels split at the transform's
    kinks) plus geometric refinement toward 0, 1 and every kink down to a
    spacing of ~1e-9, with jump guards at kink +/- 1e-12.  ``extra_points``
    are merged into the grid (useful to re-envelope an envelope exactly).
    """
    if n_grid < 17:
        raise ParamOutOfDomain(f"n_grid must be >= 17, got {n_grid}")
    us = _numeric_grid(ghat, n_grid)
    if extra_points is not None:
        pts = np.clip(np.asarray(extra_points, dtype=float), 0.0, 1.0)
        us = np.unique(np.concatenate([us, pts]))
    ys = np.asarray(ghat.ghat(us), dtype=float)
    if not np.all(np.isfinite(ys)):
        bad = us[~np.isfinite(ys)][:3]
        raise NonFiniteValue(f"ghat evaluates non-finite near u={bad}")

    jump = False
    for k in ghat.kinks:
        if 0.0 < k < 1.0:
            lo_v = float(ghat.ghat(k - 1e-12))
            hi_v = float(ghat.ghat(k + 1e-12))
            if abs(hi_v - lo_v) > 1e-9 * (1.0 + abs(hi_v) + abs(lo_v)):
                jump = True

    idx = _lower_hull_indices(us, ys)
    # second pass: pin down contact points of long hull chords, whose exact
    # location is only known to one grid step after the first pass
    centers = set()
    for j in range(len(idx) - 1):
        if idx[j + 1] != idx[j] + 1:
            span = us[idx[j + 1]] - us[idx[j]]
            if span > 16.0 * GRID_FLOOR:
                centers.update((us[idx[j]], us[idx[j + 1]]))
    centers = [c for c in centers if 0.0 < c < 1.0]
    if centers:
        # 1e-7 pins the tangency to curvature*d^2 <= 1e-9 while keeping the
        # local chord geometry resolvable in double precision
        offs = log_chain(2.0 / n_grid, 1e-7, 16)
        extra = np.concatenate([np.concatenate([c - offs, c + offs])
                                for c in centers])
        extra = extra[(extra > 0.0) & (extra < 1.0)]
        us = np.unique(np.concatenate([us, extra]))
        keep = np.concatenate([[True], np.diff(us) > 1e-15])
        if not keep[-1]:
            keep[-1] = True
            keep[-2] = False
        us = us[keep]
        ys = np.asarray(ghat.ghat(us), dtype=float)
        idx = _lower_hull_indices(us, ys)
    knots = us[idx]
    values = ys[idx]
    segs = []
    for j in range(len(idx) - 1):
        lo, hi = knots[j], knots[j + 1]
        slope = (values[j + 1] - values[j]) / (hi - lo)
        segs.append(Segment(lo=lo, hi=hi, kind="chord", slope=slope,
                            contact_run=(idx[j + 1] == idx[j] + 1)))
    meta = {"kind": "numeric", "n_grid": n_grid, "grid_floor": GRID_FLOOR,
            "jump_chord": jump}
    return PiecewiseEnvelope(knots=knots, values=values, segments=tuple(segs),
                             source=ghat, meta=meta)


# ---------------------------------------------------------------------------
# analytic envelopes
# ---------------------------------------------------------------------------

def _env_from_segments(tg, segs, knots, meta=None):
    knots = np.asarray(knots, dtype=float)
    values = np.asarray(tg.ghat(knots), dtype=float)
    return PiecewiseEnvelope(knots=knots, values=values, segments=tuple(segs),
                             source=tg, meta=dict(meta or {"kind": "analytic"}))


# (mode, base) -> (tangency equation of the contact point, side of the chord)
_TANGENCY = {
    ("entropy", "FGRE"): ("FGRE", "left"),
    ("entropy", "FGE"): ("FGE", "right"),
    ("residual", "GiniSemidiff"): ("TCRTE", "left"),
    ("residual", "CRT"): ("TCRTE", "left"),
    ("residual", "CRE"): ("TCRE", "left"),
    ("residual", "EGini"): ("TNEGini", "left"),
    ("residual", "TEGini"): ("TNEGini", "left"),
    ("past", "GiniSemidiff"): ("DCT", "right"),
    ("past", "CT"): ("DCT", "right"),
    ("past", "CE"): ("DCE", "right"),
}


def _contact_point(tg: TransformedGHat, equation: str) -> float:
    p = tg.source.params
    # the Gini bases are the order-2 Tsallis / extended-Gini members, and
    # GCRE / GCE are FGRE / FGE at integer order n
    return solve_breakpoint(equation, {"alpha": p.get("alpha", p.get("n", 2.0)),
                                       "r": p.get("r", 2.0), "F_t": tg.F_t})


def _tangent_env(tg: TransformedGHat, u: float, side: str,
                 scale: float) -> PiecewiseEnvelope:
    """A chord from the transform's zero end to the contact point ``u``, and
    the transform itself on the other side of ``u``.

    ``side`` places the chord: "left" on [0, u] (residual mode, FGRE) or
    "right" on [u, 1] (past mode, FGE).  ``scale`` is the length 1 - F_t, F_t
    or 1 of the source argument's range: the branch slope is
    g'((1 - u)/scale)/scale left of a chord and g'(1 - u/scale)/scale right of
    one.  ``u = 0`` on the left means no chord: an untruncated convex
    transform (scale 1) is its own envelope.
    """
    src = tg.source
    if (u >= 1.0) if side == "left" else (u <= 0.0):
        raise ParamOutOfDomain(
            f"{src.family}: the contact point rounds to the end of [0, 1], so the "
            "analytic branch beyond it is not representable in double precision")

    # stable tail forms at distance t from u = 1 and from u = 0, each read
    # only where the branch reaches that end; at scale 1 they are the
    # source's own, called directly on the quadrature's long chains
    slope_hi, slope_lo = src.gp_lo, src.gp_hi
    if scale != 1.0:
        def slope_hi(t):
            return np.asarray(src.gp_lo(np.asarray(t, dtype=float) / scale)) / scale

        def slope_lo(t):
            return np.asarray(src.gp_hi(np.asarray(t, dtype=float) / scale)) / scale

    if side == "left":
        branch = Segment(u, 1.0, "analytic", slope_lo=slope_lo, slope_hi=slope_hi,
                         slope_fn=lambda v: slope_hi(1.0 - np.asarray(v, dtype=float)))
        if u == 0.0:
            return _env_from_segments(tg, [branch], [0.0, 1.0])
        segs = [Segment(0.0, u, "chord", slope=float(tg.ghat(u)) / u), branch]
    else:
        branch = Segment(0.0, u, "analytic", slope_fn=slope_lo,
                         slope_lo=slope_lo, slope_hi=slope_hi)
        segs = [branch, Segment(u, 1.0, "chord", slope=-float(tg.ghat(u)) / (1.0 - u))]
    return _env_from_segments(tg, segs, [0.0, u, 1.0],
                              meta={"kind": "analytic", "breakpoint": u})


def _es_env(tg: TransformedGHat) -> PiecewiseEnvelope:
    # riskmetric transform of the expected-shortfall distortion: kink at 1-p
    k = tg.kinks[0]
    q = 1.0 - k
    segs = [Segment(0.0, k, "chord", slope=0.0, contact_run=True),
            Segment(k, 1.0, "chord", slope=1.0 / q, contact_run=True)]
    return _env_from_segments(tg, segs, [0.0, k, 1.0])


def _shortfall_env(tg: TransformedGHat) -> PiecewiseEnvelope:
    src = tg.source
    if not src.concave or src.g_prime is None:
        raise NoAnalyticForm("shortfall envelope recipe needs a concave base with a derivative")
    p, tau = tg.p, tg.tau
    q = 1.0 - p
    kink_slope = 1.0 + tau * float(src.g_prime(1.0))
    if kink_slope < -1e-9:
        raise NoAnalyticForm("loading tau outside the convexity range of the shortfall")

    if tau == 0.0:
        def slope_fn(u):
            return np.full_like(np.asarray(u, dtype=float), 1.0 / q)

        slope_hi = lambda t: np.full_like(np.asarray(t, dtype=float), 1.0 / q)
    else:
        def slope_fn(u):
            v = (1.0 - np.asarray(u, dtype=float)) / q
            return (1.0 + tau * np.asarray(src.g_prime(v))) / q

        slope_hi = lambda t: (1.0 + tau * np.asarray(
            src.gp_lo(np.asarray(t, dtype=float) / q))) / q

    segs = [Segment(0.0, p, "chord", slope=0.0, contact_run=True),
            Segment(p, 1.0, "analytic", slope_fn=slope_fn, slope_hi=slope_hi)]
    return _env_from_segments(tg, segs, [0.0, p, 1.0])


def convex_envelope_analytic(ghat: TransformedGHat) -> PiecewiseEnvelope:
    """Closed-form envelope for catalog transforms; NoAnalyticForm otherwise."""
    src = ghat.source
    mode = ghat.mode
    if mode == "shortfall":
        return _shortfall_env(ghat)
    if mode == "riskmetric" and src.base == "ES":
        return _es_env(ghat)
    # entropy and riskmetric transforms, residual ones at F_t = 0 and past
    # ones at F_t = 1 truncate nothing, so a convex base is its own envelope
    untruncated = {"residual": ghat.F_t == 0.0, "past": ghat.F_t == 1.0}.get(mode, True)
    if untruncated and src.entropy_convex:
        return _tangent_env(ghat, 0.0, "left", 1.0)
    if (mode, src.base) not in _TANGENCY:
        raise NoAnalyticForm(f"no {mode}-mode envelope recipe for base {src.base!r}")
    equation, side = _TANGENCY[mode, src.base]
    scale = 1.0
    if mode == "residual":
        scale = 1.0 - ghat.F_t
    elif mode == "past":
        scale = ghat.F_t
    return _tangent_env(ghat, _contact_point(ghat, equation), side, scale)


# ---------------------------------------------------------------------------
# squared-slope integral
# ---------------------------------------------------------------------------

def _pool_convex(lengths: np.ndarray, slopes: np.ndarray):
    """Merge adjacent pieces (chord-combine) until slopes are nondecreasing."""
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


def _chord_sq_with_curvature(lengths: np.ndarray, slopes: np.ndarray,
                             center: float, correct: np.ndarray) -> float:
    """Sum of (slope-c)^2*len plus a Jensen curvature correction.

    Chord slopes are exact segment averages of the true derivative, so the
    plain sum underestimates the integral by the within-segment variance;
    that gap is estimated from neighboring slopes where ``correct`` is set.
    """
    base = float(np.dot((slopes - center) ** 2, lengths))
    n = len(slopes)
    if n >= 3:
        k = np.arange(1, n - 1)
        ok = correct[k] & correct[k - 1] & correct[k + 1]
        if np.any(ok):
            kk = k[ok]
            # distance between neighboring segment midpoints, kept in scale
            # even when adjacent lengths differ by many orders of magnitude
            denom = 0.5 * lengths[kk - 1] + lengths[kk] + 0.5 * lengths[kk + 1]
            curv = (slopes[kk + 1] - slopes[kk - 1]) / denom
            base += float(np.sum(curv ** 2 * lengths[kk] ** 3) / 12.0)
    return base


def _tail_chain_sq(tail_fn, t_hi: float, end_val: float, center: float,
                   ascending_u: bool, per_octave: int = 8,
                   t_floor: float = CHAIN_FLOOR) -> float:
    """Squared-slope mass of the function-following region within ``t_hi`` of
    an endpoint, from chords of the stable tail evaluator down to the floor."""
    ts = log_chain(t_hi, max(t_floor, 1e-3 * t_hi if t_hi < 1e-12 else t_floor),
                   per_octave)
    vals = np.asarray(tail_fn(ts), dtype=float)
    dts = ts[:-1] - ts[1:]
    dvs = vals[1:] - vals[:-1]
    if ascending_u:
        # upper endpoint: u = 1 - t, pieces listed with u ascending as t falls
        lengths = np.concatenate([dts, [ts[-1]]])
        slopes = np.concatenate([dvs / dts, [(end_val - vals[-1]) / ts[-1]]])
    else:
        # lower endpoint: u = t; ascending u means ascending t
        lengths = np.concatenate([[ts[-1]], dts[::-1]])
        slopes = np.concatenate([[(vals[-1] - end_val) / ts[-1]], (-dvs / dts)[::-1]])
    lengths, slopes = _pool_convex(lengths, slopes)
    return _chord_sq_with_curvature(lengths, slopes, center,
                                    np.ones(len(slopes), dtype=bool))


def slope_l2_norm(env: PiecewiseEnvelope, center: float) -> float:
    """sqrt(integral of (envelope slope - center)^2 over [0, 1])."""
    segs = env.segments
    if all(s.kind == "chord" for s in segs) and env.meta.get("kind") == "numeric":
        knots = env.knots
        values = env.values
        lengths = np.diff(knots)
        slopes = np.diff(values) / lengths
        correct = np.array([s.contact_run for s in segs], dtype=bool)
        tg = env.source
        total = 0.0
        lo_cut = 0
        hi_cut = len(slopes)
        follow_floor = 8.0 * env.meta.get("grid_floor", GRID_FLOOR)
        floor = CHAIN_FLOOR if tg.tails_exact else 1e-12
        if (knots[1] - knots[0]) <= follow_floor and tg.ghat_lower is not None \
                and segs[0].contact_run:
            total += _tail_chain_sq(tg.ghat_lower, float(knots[1]),
                                    0.0, center, ascending_u=False, t_floor=floor)
            lo_cut = 1
        if (knots[-1] - knots[-2]) <= follow_floor and segs[-1].contact_run \
                and (tg.ghat_upper_rel is not None or tg.ghat_upper is not None):
            rel = tg.ghat_upper_rel
            if rel is None:
                up = tg.ghat_upper
                rel = lambda t: np.asarray(up(t), dtype=float) - tg.center
            total += _tail_chain_sq(rel, float(1.0 - knots[-2]),
                                    0.0, center, ascending_u=True, t_floor=floor)
            hi_cut = len(slopes) - 1
        sl = slice(lo_cut, hi_cut)
        total += _chord_sq_with_curvature(lengths[sl], slopes[sl], center, correct[sl])
        return math.sqrt(max(total, 0.0))

    total = 0.0
    floor_mass = 0.0   # squared-slope mass per unit of log t at CHAIN_FLOOR
    for seg in segs:
        if seg.kind == "chord":
            total += (seg.slope - center) ** 2 * (seg.hi - seg.lo)
            continue

        def f(u, _s=seg):
            return (np.asarray(_s.slope_fn(u), dtype=float) - center) ** 2

        f_lo = None
        f_hi = None
        if seg.lo == 0.0 and seg.slope_lo is not None:
            def f_lo(t, _s=seg):
                return (np.asarray(_s.slope_lo(t), dtype=float) - center) ** 2
        if seg.hi == 1.0 and seg.slope_hi is not None:
            def f_hi(t, _s=seg):
                return (np.asarray(_s.slope_hi(t), dtype=float) - center) ** 2
        total += integrate_segment(f, seg.lo, seg.hi, fn_lo=f_lo, fn_hi=f_hi,
                                   t_floor=CHAIN_FLOOR, per_octave=4)
        floor_mass += sum(float(fn(CHAIN_FLOOR)) * CHAIN_FLOOR
                          for fn in (f_lo, f_hi) if fn is not None)
    if floor_mass > FLOOR_MASS_TOL * total:
        # the slope blows up so steeply that a material share of the integral
        # lies below the floor; the norm would come out low
        raise NonConvergent(
            f"squared-slope mass {floor_mass:.3g} at the quadrature floor "
            f"{CHAIN_FLOOR:g} exceeds {FLOOR_MASS_TOL:g} of the total {total:.6g}")
    return math.sqrt(max(total, 0.0))


def envelope_table(env: PiecewiseEnvelope, n: int = 1001) -> np.ndarray:
    """Columns (u, ghat, envelope, slope) for plotting/export."""
    us = np.unique(np.concatenate([np.linspace(0.0, 1.0, n), env.knots]))
    gh = np.asarray(env.source.ghat(us), dtype=float)
    ev = np.asarray(env.value(us), dtype=float)
    sl = np.asarray(env.slope(us), dtype=float)
    return np.column_stack([us, gh, ev, sl])

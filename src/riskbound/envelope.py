"""Convex envelopes of transformed distortions on [0, 1].

The sharp worst-case bound is driven by the right derivative of the greatest
convex minorant of the transformed distortion.  Two routes are provided: a
closed-form assembly for catalog families (linear piece + analytic branch
meeting at a contact point solved from the family's tangency equation) and a
numeric route (lower convex hull of a refined sample of the graph).  Both
give the same arrays; an analytic branch is the piece with a nan slope,
read through the transform's slope forms.

An analytic envelope's L is the closed form of the catalog's (mode, shape)
table at the contact it solved (``bounds``).  ``slope_l2_norm`` computes the
L of a chord envelope: its squared chord slopes get a curvature (Jensen)
correction, and a chord-chain continuation below the grid floor through the
transform's stable tail evaluators captures log- and power-type slope
blow-ups at the ends of [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from ._num import log_chain
from .errors import DomainError, NoAnalyticForm, NonFiniteValue, ParamOutOfDomain
from .distortion import TransformedGHat, _order, _shape

DEFAULT_GRID = 4097
GRID_FLOOR = 1e-9     # deepest cascade offset represented in u coordinates
CHAIN_FLOOR = 1e-60   # deepest distance reached through stable tail evaluators
# nearest distance from u = 1 at which a tail window's analytic branch may
# start: the branch is read in u, where that distance keeps ~3 digits
BRANCH_FLOOR = 1e-13


@dataclass(frozen=True)
class PiecewiseEnvelope:
    """The greatest convex minorant of a transformed distortion.

    ``knots`` are the piece boundaries and ``values`` the envelope there.
    ``slopes`` holds each piece's chord slope and ``contact`` marks the
    pieces where the envelope coincides with the source.  An analytic
    envelope has one branch, the piece whose slope is nan: it coincides with
    the source and reaches u = 0 or u = 1, and its slope is read through the
    source's form at the end it reaches, ``slope_upper(1 - u)`` on a branch
    that ends at 1, otherwise ``slope_lower(u)``.  Slopes are right
    derivatives.
    """

    knots: np.ndarray
    values: np.ndarray
    slopes: np.ndarray
    contact: np.ndarray
    source: TransformedGHat
    meta: dict = field(default_factory=dict)

    @cached_property
    def _branch(self) -> Optional[int]:
        """The index of the analytic branch, or None for chords only."""
        at = np.flatnonzero(np.isnan(self.slopes))
        return int(at[0]) if at.size else None

    def _branch_slope(self, u):
        """The branch's slope at points ``u`` inside it."""
        if self.knots[self._branch + 1] == 1.0:
            return self.source.slope_upper(1.0 - np.asarray(u, dtype=float))
        return self.source.slope_lower(u)

    def _locate(self, u):
        u = np.asarray(u, dtype=float)
        # the piece holding u, the first or last one outside [0, 1]: the
        # count of interior knots at or below u, which needs no clamp
        return u, np.searchsorted(self.knots[1:-1], u, side="right")

    def value(self, u):
        u_arr, idx = self._locate(u)
        slopes = self.slopes[idx]
        out = self.values[idx] + slopes * (u_arr - self.knots[idx])
        # analytic branches and one-step hull segments coincide with the source
        delegate = self.contact[idx] | np.isnan(slopes)
        if np.any(delegate):
            out = np.where(delegate,
                           np.asarray(self.source.ghat(u_arr), dtype=float), out)
        if np.ndim(u) == 0:
            return float(out.reshape(-1)[0])
        return out

    def slope(self, u):
        u_arr, idx = self._locate(u)
        # fancy indexing copies already; a scalar u gives a writable 0-d array
        out = np.asarray(self.slopes[idx])
        # the branch is evaluated on its own points only
        if self._branch is not None:
            m = idx == self._branch
            if m.any():
                out[m] = self._branch_slope(u_arr[m])
        if np.ndim(u) == 0:
            return float(out.reshape(-1)[0])
        return out


# ---------------------------------------------------------------------------
# numeric envelope
# ---------------------------------------------------------------------------

def _untwinned(grid: np.ndarray) -> np.ndarray:
    """Mask that drops 1-ulp twins created by unioning point sets; they carry
    rounding-level value noise that corrupts the hull's geometry."""
    keep = np.concatenate([[True], np.diff(grid) > 1e-15])
    if not keep[-1]:
        keep[-1] = True   # the endpoint itself must survive, not its twin
        keep[-2] = False
    return keep


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
    # the pieces are sorted runs, which a stable sort (timsort) merges
    grid = np.sort(np.clip(np.concatenate(pieces), 0.0, 1.0), kind="stable")
    grid = grid[np.concatenate([[True], grid[1:] != grid[:-1]])]
    return grid[_untwinned(grid)]


def _below(us, ys, lo, mid, hi):
    """Depth of the points ``mid`` below the chords ``lo``-``hi``, scaled by
    the chords' widths, and whether it passes the monotone chain's
    collinearity test (more than 1e-14 of the cross products' scale).

    The arithmetic runs in place on the gathered copies: a first pass covers
    every grid point, and fresh temporaries of that length cost more than
    the arithmetic itself."""
    x0, y0 = us[lo], ys[lo]
    a = us[mid]
    a -= x0
    a *= ys[hi] - y0
    b = ys[mid]
    b -= y0
    b *= us[hi] - x0
    depth = a - b
    scale = np.abs(a, out=a)
    scale += np.abs(b, out=b)
    scale += 1e-300
    scale *= 1e-14
    return depth, depth > scale


def _lower_hull_indices(us: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Indices of the lower convex hull of points with increasing ``us``.

    Level-synchronous quickhull: each pass assigns every remaining candidate
    to the chord between its enclosing hull vertices and drops the candidates
    on or above that chord.  A candidate that is not below the chord joining
    its two neighbours in the sequence of vertices and candidates cannot be a
    vertex either, and is dropped.  Where every candidate of a chord passes
    that test, the run through them is strictly convex, so all of them become
    vertices at once; elsewhere the deepest point below the chord does.  A
    sampled convex arc thus resolves in one pass, not one vertex per chord
    per pass.  Collinear points (1e-14 scale) are merged.

    The first pass, over every point, has the single chord ``0 -> n-1``, so
    its ends are scalars and no point needs its chord looked up.
    """
    n = len(us)
    if n < 3:
        return np.arange(n)
    hull = np.array([0, n - 1])
    cand = np.arange(1, n - 1)
    depth, below = _below(us, ys, 0, cand, n - 1)
    cand, depth = cand[below], depth[below]
    j = np.ones(cand.size, dtype=np.intp)
    while cand.size:
        first = np.empty(cand.size, dtype=bool)
        first[0] = True
        np.not_equal(j[1:], j[:-1], out=first[1:])
        last = np.empty_like(first)
        last[:-1] = first[1:]
        last[-1] = True
        starts, chord = np.flatnonzero(first), np.cumsum(first) - 1
        # neighbours in the sequence of hull vertices and candidates
        prev = np.empty_like(cand)
        prev[1:] = cand[:-1]
        prev[first] = hull[j[first] - 1]
        succ = np.empty_like(cand)
        succ[:-1] = cand[1:]
        succ[last] = hull[j[last]]
        convex = _below(us, ys, prev, cand, succ)[1]
        run = np.logical_and.reduceat(convex, starts)[chord]
        rest = convex & ~run
        # the first deepest survivor of each chord that is not one run
        depth = np.where(rest, depth, -np.inf)
        at = np.flatnonzero(rest & (depth == np.maximum.reduceat(depth, starts)[chord]))
        at = at[np.unique(chord[at], return_index=True)[1]]
        rest[at] = False
        hull = np.sort(np.concatenate([hull, cand[run], cand[at]]))
        cand = cand[rest]
        if not cand.size:
            break
        j = np.searchsorted(hull, cand)
        depth, below = _below(us, ys, hull[j - 1], cand, hull[j])
        cand, j, depth = cand[below], j[below], depth[below]
    # quickhull tested each vertex against the wide chord it was found under;
    # the collinearity test is local: a vertex stays only when it lies below
    # the chord of its two hull neighbours.  A vertex's test reads only those
    # neighbours, so after a round only the neighbours of the vertices it
    # removed are tested again
    test = np.arange(1, len(hull) - 1)
    while test.size:
        keep = _below(us, ys, hull[test - 1], hull[test], hull[test + 1])[1]
        if keep.all():
            break
        alive = np.ones(len(hull), dtype=bool)
        alive[test[~keep]] = False
        # the new position of each removed vertex's left neighbour
        left = (np.cumsum(alive) - 1)[~alive]
        hull = hull[alive]
        again = np.zeros(len(hull), dtype=bool)
        again[left] = again[left + 1] = True
        test = np.flatnonzero(again[1:-1]) + 1
    return hull


def _unresolved_ends(us, ys, idx) -> np.ndarray:
    """Interior ends of the first-pass hull chords whose contact points are
    only known to one grid step: chords wider than 16 grid floors that skip a
    sample standing above them by more than 1e-12 of the value range.  A
    chord that skips only samples on it (a straight piece of the graph)
    needs nothing, and the test scales with the values, not with rounding."""
    above = ys - np.interp(us, us[idx], ys[idx])
    clear = np.maximum.reduceat(above, idx[:-1]) > 1e-12 * (ys.max() - ys.min())
    long = clear & (np.diff(us[idx]) > 16.0 * GRID_FLOOR)
    centers = np.unique(np.concatenate([us[idx[:-1]][long], us[idx[1:]][long]]))
    return centers[(centers > 0.0) & (centers < 1.0)]


def _refine(ghat, us, ys, idx, centers, n_grid: int):
    """The first grid with geometric offsets around each centre inserted.

    Returns the refined grid and its values (``ghat`` runs on the new points
    only), the positions ``sub`` of the points that can be vertices of the
    refined hull (first-pass vertices and new points: a point above the
    first hull stays above the refined one), and which of those are pinned:
    first-pass vertices farther than the widest offset from every centre.
    """
    # 1e-7 pins the tangency to curvature*d^2 <= 1e-9 while keeping the
    # local chord geometry resolvable in double precision
    offs = log_chain(2.0 / n_grid, 1e-7, 16)
    extra = (centers[:, None] + np.concatenate([-offs, offs])).ravel()
    # offsets within 8 grid floors of an end would split the end cascade's
    # first piece, from which ``slope_l2_norm`` starts its end chain
    edge = 8.0 * GRID_FLOOR
    extra = np.unique(extra[(extra >= edge) & (extra <= 1.0 - edge)])
    at = np.searchsorted(us, extra)
    fresh = us[np.minimum(at, len(us) - 1)] != extra
    extra, at = extra[fresh], at[fresh]
    grid = np.insert(us, at, extra)
    keep = _untwinned(grid)
    grid = grid[keep]
    known = np.insert(np.ones(len(us), dtype=bool), at, False)[keep]
    vertex = np.zeros(len(us), dtype=bool)
    vertex[idx] = True
    vertex = np.insert(vertex, at, False)[keep]
    vals = np.insert(ys, at, 0.0)[keep]
    if not known.all():
        vals[~known] = np.asarray(ghat.ghat(grid[~known]), dtype=float)
    sub = np.flatnonzero(~known | vertex)
    near = np.searchsorted(centers, grid[sub])
    gap = np.minimum(np.abs(grid[sub] - centers[np.maximum(near - 1, 0)]),
                     np.abs(centers[np.minimum(near, len(centers) - 1)] - grid[sub]))
    pinned = known[sub] & (gap > offs[0])
    pinned[[0, -1]] = True
    return grid, vals, sub, pinned


def _pinned_hull(us, ys, pinned) -> np.ndarray:
    """``_lower_hull_indices(us, ys)`` when the ``pinned`` points are likely
    vertices: only the windows between consecutive pinned points that hold
    other points are hulled.  The chain so formed is convex inside each
    window; a pinned point at a window's edge that fails the hull's local
    vertex test against its final neighbours is released with the pinned
    points next to it, and the merged window is hulled again.  A convex chain
    through the points with every point on or above it is their lower hull.

    ``pinned`` must hold both ends, and a pinned point whose neighbours are
    pinned too is not tested: the caller pins vertices of the first hull,
    whose neighbours there are the same points."""
    pinned = pinned.copy()
    last = len(us) - 1
    while True:
        pin = np.flatnonzero(pinned)
        wide = np.flatnonzero(np.diff(pin) > 1)
        parts = [pin]
        for a, b in zip(pin[wide].tolist(), pin[wide + 1].tolist()):
            parts.append(a + _lower_hull_indices(us[a:b + 1], ys[a:b + 1])[1:-1])
        chain = np.sort(np.concatenate(parts))
        # only pinned points at the edge of a window meet new neighbours
        edge = np.union1d(pin[wide], pin[wide + 1])
        edge = edge[(edge > 0) & (edge < last)]
        k = np.searchsorted(chain, edge)
        ok = _below(us, ys, chain[k - 1], edge, chain[k + 1])[1]
        if ok.all():
            return chain
        j = np.searchsorted(pin, edge[~ok])
        pinned[np.concatenate([pin[j - 1], pin[j], pin[j + 1]])] = False
        pinned[[0, last]] = True


def convex_envelope_numeric(ghat: TransformedGHat, n_grid: int = DEFAULT_GRID,
                            extra_points=None) -> PiecewiseEnvelope:
    """Lower convex hull of the sampled graph of ``ghat``.

    The grid is a per-panel uniform mesh (panels split at the transform's
    kinks) plus geometric refinement toward 0, 1 and every kink down to a
    spacing of ~1e-9, with jump guards at kink +/- 1e-12.  ``extra_points``
    are merged into the grid (useful to re-envelope an envelope exactly).

    A second pass refines the ends of the first hull's chords that skip a
    sample lying above them by more than 1e-12 of the value range, so the
    choice scales with ``ghat`` and never rests on rounding.  Geometric
    offsets around those ends are inserted into the grid, ``ghat`` runs on
    them alone, and the hull is recomputed only in the windows around them;
    first-pass vertices away from every refined end stay, unless the
    recomputed hull next to them undercuts them.
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

    idx = _lower_hull_indices(us, ys)
    centers = _unresolved_ends(us, ys, idx)
    if centers.size:
        us, ys, sub, pinned = _refine(ghat, us, ys, idx, centers, n_grid)
        idx = sub[_pinned_hull(us[sub], ys[sub], pinned)]
    knots = us[idx]
    values = ys[idx]
    return PiecewiseEnvelope(knots=knots, values=values,
                             slopes=np.diff(values) / np.diff(knots),
                             contact=np.diff(idx) == 1, source=ghat)


# ---------------------------------------------------------------------------
# analytic envelopes
# ---------------------------------------------------------------------------

def _tangent_env(tg: TransformedGHat, t: float, mirrored: bool = False,
                 u: Optional[float] = None) -> PiecewiseEnvelope:
    """A chord from the transform's zero end to the contact point, and the
    transform itself on the other side of it, read through its slope forms.

    The contact lies at distance ``t`` from the far end of the window: at
    u = 1 - t with the chord on [0, u] (residual side: FGRE, residual mode),
    or, ``mirrored``, at u = t with the chord on [u, 1] (past side: FGE,
    past mode).  ``u`` places it where 1 - t would round it: at the inner
    edge p of an ES or shortfall window, t = 1 - p.  ``t = 1`` on the
    residual side means no chord: an untruncated convex transform is its own
    envelope.  ``meta["t"]`` keeps ``t``, at which the table's closed form
    reads the bound's value.
    """
    src = tg.source
    if u is None:
        u = t if mirrored else 1.0 - t
    if (u <= 0.0) if mirrored else (u >= 1.0):
        raise ParamOutOfDomain(
            f"{src.family}: the contact point rounds to the end of [0, 1], so the "
            "analytic branch beyond it is not representable in double precision")
    # a branch from a truncated window to u = 1 whose slope varies (a tail, or
    # a shortfall with tau > 0) holds its squared-slope mass at distances of
    # about t, which its points in u resolve only to ~1e-16/t
    if not mirrored and (tg.F_t or tg.p) and tg.tau != 0.0 and t < BRANCH_FLOOR:
        raise ParamOutOfDomain(
            f"{src.family}: the analytic branch starts {t:.3g} from u = 1, closer "
            f"than the {BRANCH_FLOOR:g} that its points in u resolve")

    meta = {"t": t}
    knots = np.array([0.0, 1.0] if u == 0.0 else [0.0, u, 1.0])
    values = np.asarray(tg.ghat(knots), dtype=float)
    # the branch (nan slope) coincides with the transform, and so does a
    # chord along its zero (below an ES or shortfall window)
    if u == 0.0:
        slopes, contact = [np.nan], [False]
    elif mirrored:
        slopes, contact = [np.nan, -float(values[1]) / (1.0 - u)], [False, False]
    else:
        slopes, contact = [float(values[1]) / u, np.nan], [values[1] == 0.0, False]
    if u != 0.0:
        meta["breakpoint"] = u
    return PiecewiseEnvelope(knots=knots, values=values, slopes=np.array(slopes),
                             contact=np.array(contact, dtype=bool), source=tg, meta=meta)


def convex_envelope_analytic(ghat: TransformedGHat) -> PiecewiseEnvelope:
    """Closed-form envelope for catalog transforms; NoAnalyticForm otherwise.

    The contact lies at the window's inner edge p for ES and the shortfalls,
    which are 0 below it and convex above it with a nonnegative slope there;
    at the table's root for a truncated tail; and nowhere for an untruncated
    convex base."""
    src = ghat.source
    if ghat.p is not None:
        q = 1.0 - ghat.p
        if not src.concave or ghat.slope_upper is None:
            raise NoAnalyticForm("shortfall envelope recipe needs a concave base with a derivative")
        if ghat.slope_upper(q) * q < -1e-9:
            raise NoAnalyticForm("loading tau outside the convexity range of the shortfall")
        return _tangent_env(ghat, q, u=ghat.p)
    # a window of [0, 1] (F_t unset, 0 residual or 1 past) truncates nothing,
    # so a convex base is its own envelope
    F = ghat.F_t
    if F in (None, 0.0, 1.0) and src.entropy_convex:
        return _tangent_env(ghat, 1.0)
    a = _order(src.params)
    mode = ghat.mode
    shape, mirrored = _shape(mode, src.base, a)
    if shape is None or shape.root is None:
        raise NoAnalyticForm(f"no {mode}-mode envelope recipe for base {src.base!r}")
    # the window's length: 1 - F_t residual, F_t past
    q = 1.0 - F if mode == "residual" else F if mode == "past" else 1.0
    return _tangent_env(ghat, shape.root(a, q), mirrored)


# ---------------------------------------------------------------------------
# squared-slope integral
# ---------------------------------------------------------------------------

def _pool_convex(lengths: np.ndarray, slopes: np.ndarray):
    """Merge adjacent pieces (chord-combine) until slopes are nondecreasing.

    Pool-adjacent-violators in rounds: each round merges every maximal run
    of pieces whose slopes strictly fall (``s[i+1] < s[i]``) into one piece
    with the run's total length and length-weighted mean slope, and rounds
    repeat until no slope falls.  Equal neighbours stay separate.  The
    tail chains pooled here need a handful of rounds; a chain that needs
    one merge per round (a convex run ending in one steep drop) would take
    as many rounds as it has pieces.
    """
    lengths = np.asarray(lengths, dtype=float)
    slopes = np.asarray(slopes, dtype=float)
    falls = slopes[1:] < slopes[:-1]
    if not falls.any():
        return lengths, slopes
    mass = slopes * lengths
    while falls.any():
        # a piece opens a new one unless its slope falls below its left neighbour's
        starts = np.flatnonzero(np.concatenate([[True], ~falls]))
        lengths = np.add.reduceat(lengths, starts)
        mass = np.add.reduceat(mass, starts)
        slopes = mass / lengths
        falls = slopes[1:] < slopes[:-1]
    return lengths, slopes


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
        ok = correct[1:-1] & correct[:-2] & correct[2:]
        if ok.any():
            kk = np.flatnonzero(ok) + 1
            # distance between neighboring segment midpoints, kept in scale
            # even when adjacent lengths differ by many orders of magnitude
            denom = 0.5 * lengths[kk - 1] + lengths[kk] + 0.5 * lengths[kk + 1]
            curv = (slopes[kk + 1] - slopes[kk - 1]) / denom
            base += float(np.sum(curv ** 2 * lengths[kk] ** 3) / 12.0)
    return base


def _end_chain_sq(tail_fn, t_hi: float, end_val: float, center: float,
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
    """sqrt(integral of (envelope slope - center)^2 over [0, 1]) of a chord
    envelope.

    An envelope with an analytic branch (a nan slope) raises DomainError: its
    L is the closed form of the catalog table, which ``worst_case_bound``
    reads."""
    if env._branch is not None:
        raise DomainError("slope_l2_norm takes chord envelopes; an analytic "
                          "branch's L is its closed form")
    knots = env.knots
    lengths = np.diff(knots)
    slopes = env.slopes
    correct = env.contact
    tg = env.source
    total = 0.0
    lo_cut = 0
    hi_cut = len(slopes)
    follow_floor = 8.0 * GRID_FLOOR
    floor = CHAIN_FLOOR if tg.tails_exact else 1e-12
    # near u = 0 the distance is u itself, so ghat is its own tail form
    if (knots[1] - knots[0]) <= follow_floor and correct[0]:
        total += _end_chain_sq(tg.ghat, float(knots[1]),
                               0.0, center, ascending_u=False, t_floor=floor)
        lo_cut = 1
    if (knots[-1] - knots[-2]) <= follow_floor and correct[-1]:
        total += _end_chain_sq(tg.ghat_upper_rel, float(1.0 - knots[-2]),
                               0.0, center, ascending_u=True, t_floor=floor)
        hi_cut = len(slopes) - 1
    sl = slice(lo_cut, hi_cut)
    total += _chord_sq_with_curvature(lengths[sl], slopes[sl], center, correct[sl])
    return math.sqrt(max(total, 0.0))


def envelope_table(env: PiecewiseEnvelope, n: int = 1001) -> np.ndarray:
    """Columns (u, ghat, envelope, slope) for plotting/export."""
    us = np.unique(np.concatenate([np.linspace(0.0, 1.0, n), env.knots]))
    gh = np.asarray(env.source.ghat(us), dtype=float)
    ev = np.asarray(env.value(us), dtype=float)
    sl = np.asarray(env.slope(us), dtype=float)
    return np.column_stack([us, gh, ev, sl])


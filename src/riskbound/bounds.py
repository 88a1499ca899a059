"""The worst-case engine.

Computes the sharp supremum of a distortion riskmetric, entropy, weighted
entropy, premium principle or entropy shortfall over all distributions with
given mean and variance, and materializes the quantile function of the
attaining distribution:

    sup = mu * c + sigma * L,   L = sqrt(integral (envelope_slope(u) - c)^2 du)

where c is the transform's center (its value at 1) and the envelope is the
greatest convex minorant of the transformed distortion.  Any analytic
envelope reads L from its read's closed form in the distortion table
instead, and the envelope is only its certificate.  The
worst-case quantile is the standardized excess slope mu + sigma * (slope(u) - c) / L.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .distortion import (
    DistortionFn,
    TransformedGHat,
    WeightSpec,
    _L_at,
    _order,
    catalog_lookup,
    closed_form_L,
    family_names,
    family_spec,
    make_ghat,
    sup_admissible,
)
from .envelope import (
    DEFAULT_GRID,
    GRID_FLOOR,
    PiecewiseEnvelope,
    convex_envelope_analytic,
    convex_envelope_numeric,
    slope_l2_norm,
)
from .errors import (
    DegenerateResult,
    DomainError,
    ModeContractViolation,
    NoAnalyticForm,
    NonConvergent,
    NonInvertibleWeight,
    ParamOutOfDomain,
    UnknownFamily,
)
from .oracle import QuantileFn

DEGENERATE_EPS = 1e-12

# the catalog's shortfall rows, ES (their tau = 0 member) included, and
# each row's parameter names
_SHORTFALL_PARAMS = {spec.name: spec.param_names for spec in map(family_spec, family_names())
                     if spec.mode == "shortfall" or spec.base == "ES"}


@dataclass(frozen=True)
class MomentInfo:
    """Partial information: mean and standard deviation (of X, or of Psi(X))."""

    mu: float
    sigma: float
    weighted: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.mu) and math.isfinite(self.sigma)):
            raise DomainError("moments must be finite")
        if self.sigma < 0.0:
            raise DomainError(f"sigma must be >= 0, got {self.sigma}")
        # numpy scalars would carry their type into every bound and report cell
        object.__setattr__(self, "mu", float(self.mu))
        object.__setattr__(self, "sigma", float(self.sigma))

    @classmethod
    def from_variance(cls, mu: float, variance: float, weighted: bool = False):
        if variance < 0.0:
            raise DomainError(f"variance must be >= 0, got {variance}")
        return cls(mu=float(mu), sigma=math.sqrt(float(variance)), weighted=weighted)


@dataclass(frozen=True)
class ShortfallSpec:
    """A tail shortfall: expected shortfall plus tau times a tail entropy."""

    family: str
    p: float
    tau: float = 0.0
    alpha: Optional[float] = None
    r: Optional[float] = None
    custom_g: Optional[DistortionFn] = None

    def catalog_params(self) -> dict:
        """The parameters of the named shortfall's catalog row, read off the
        spec's fields of the same names.  A field set that the row does not
        take raises ParamOutOfDomain; ES, the tau = 0 shortfall, takes no tau
        but 0.  A custom shortfall takes ``custom_g``, p and tau."""
        if self.family == "custom":
            if self.custom_g is None:
                raise ParamOutOfDomain("custom shortfall requires custom_g")
            names, takes = (), ("tau", "custom_g")
        else:
            names = takes = _SHORTFALL_PARAMS.get(self.family)
            if names is None:
                raise UnknownFamily(f"unknown shortfall family {self.family!r}")
        given = {"tau": self.tau != 0.0, "alpha": self.alpha is not None,
                 "r": self.r is not None, "custom_g": self.custom_g is not None}
        unknown = [name for name, is_set in given.items() if is_set and name not in takes]
        if unknown:
            raise ParamOutOfDomain(f"{self.family} shortfall takes no {', '.join(unknown)}")
        params = {}
        for name in names:
            if getattr(self, name) is None:
                raise ParamOutOfDomain(f"{self.family} shortfall requires {name}")
            params[name] = getattr(self, name)
        return params


@dataclass(frozen=True)
class BoundResult:
    """A computed supremum with its attaining quantile function."""

    sup_value: float
    l2_term: float
    center: float
    degenerate: bool
    quantile: Optional[QuantileFn]
    weighted_quantile: Optional[QuantileFn] = None
    family: str = "custom"
    params: dict = field(default_factory=dict)
    mode: str = ""
    moments: Optional[MomentInfo] = None
    envelope: Optional[PiecewiseEnvelope] = None
    engine: str = ""

    def record(self) -> dict:
        """Flat serializable summary."""
        params = ";".join(f"{k}={self.params[k]!r}" for k in sorted(self.params))
        return {
            "family": self.family,
            "params": params,
            "mode": self.mode,
            "mu": self.moments.mu if self.moments else float("nan"),
            "sigma": self.moments.sigma if self.moments else float("nan"),
            "sup": self.sup_value,
            "l2_term": self.l2_term,
            "center": self.center,
            "degenerate": self.degenerate,
            "engine": self.engine,
        }

    def quantile_grid(self, n: int = 1001):
        """(u, Q) arrays on [1e-9, 1-1e-9] with envelope knots inserted.

        Points are denser toward the interval ends (geometrically, down to
        1e-9) so that divergent tails survive a linear-interpolation round
        trip through the exported grid.  The envelope's knots strictly
        inside (1e-9, 1 - 1e-9) are merged into the cached skeleton, which
        gives the points of their sorted union.
        """
        quantile = _plain_quantile(self)
        us = _grid_skeleton(n)
        knots = self.envelope.knots if self.envelope is not None else np.empty(0)
        knots = knots[(knots > 1e-9) & (knots < 1.0 - 1e-9)]
        if knots.size:
            # both runs are sorted, so a stable sort (timsort) merges them in
            # one pass; a knot already on the skeleton is kept once.  Locating
            # each knot by searchsorted costs more once a numeric envelope's
            # thousands of knots are merged
            us = np.sort(np.concatenate([us, knots]), kind="stable")
            keep = np.empty(us.size, dtype=bool)
            keep[0] = True
            np.not_equal(us[1:], us[:-1], out=keep[1:])
            us = us[keep]
        else:
            us = us.copy()
        return us, np.asarray(quantile.fn(us), dtype=float)


def _plain_quantile(result: BoundResult) -> QuantileFn:
    """The stored quantile of X: DegenerateResult for a degenerate bound,
    NonInvertibleWeight for a weighted one whose weight has no
    ``Psi_inverse``."""
    if result.degenerate:
        raise DegenerateResult(
            "every feasible distribution attains the bound; no quantile stored")
    if result.quantile is None:
        raise NonInvertibleWeight(
            f"{result.family}: quantile recovery requires a weight with an "
            "invertible antiderivative (Psi_inverse)")
    return result.quantile


@functools.lru_cache(maxsize=32)
def _grid_skeleton(n: int) -> np.ndarray:
    """The knot-free points of ``BoundResult.quantile_grid(n)``, sorted and
    deduplicated, built once per ``n``; read-only, so callers hand out copies."""
    n_uniform = max(2, int(0.5 * n))
    per_end = max(8, (n - n_uniform) // 2)
    ends = np.geomspace(1e-9, 0.5, per_end)
    us = np.unique(np.concatenate([np.linspace(1e-9, 1.0 - 1e-9, n_uniform),
                                   ends, 1.0 - ends]))
    us.flags.writeable = False
    return us


# ---------------------------------------------------------------------------
# envelope-driven quantile
# ---------------------------------------------------------------------------

def _quantile_from_envelope(env: PiecewiseEnvelope, center: float, L: float,
                            moments: MomentInfo, tail_class: str,
                            name: str) -> QuantileFn:
    mu, sigma = moments.mu, moments.sigma
    scale = sigma / L

    def fn(u):
        return mu + scale * (np.asarray(env.slope(u), dtype=float) - center)

    def end_tail(k, length, beyond):
        # Q at distance t from the end of piece k (0 or -1): the piece's own
        # form inside it, and ``beyond(t)`` past its far end, each only where
        # it applies.  A chord's Q is constant there; an analytic branch (nan
        # slope) needs the transform's slope form at that end, and without
        # one QuantileFn reads fn
        if math.isnan(env.slopes[k]):
            stable = env.source.slope_lower if k == 0 else env.source.slope_upper
            if stable is None:
                return None

            def own(t):
                return mu + scale * (np.asarray(stable(t), dtype=float) - center)
        else:
            q = mu + scale * (float(env.slopes[k]) - center)

            def own(t):
                return np.full(t.shape, q)

        def tail(t):
            t = np.asarray(t, dtype=float)
            inside = t <= length
            if inside.all():
                return own(t)
            vals = np.empty(t.shape)
            vals[inside] = own(t[inside])
            vals[~inside] = beyond(t[~inside])
            return vals
        return tail

    knots = env.knots
    interior = tuple(knots[(knots > 0.0) & (knots < 1.0)].tolist())
    return QuantileFn(fn=fn, breakpoints=interior, tail_class=tail_class,
                      upper_tail=end_tail(-1, 1.0 - knots[-2], lambda t: fn(1.0 - t)),
                      lower_tail=end_tail(0, knots[1], fn), name=name)


def _build_envelope(tg: TransformedGHat, engine: str, n_grid: Optional[int]):
    if engine == "numeric":
        return convex_envelope_numeric(tg, n_grid or DEFAULT_GRID), "numeric"
    if engine == "analytic":
        return convex_envelope_analytic(tg), "analytic"
    try:
        return convex_envelope_analytic(tg), "analytic"
    except NoAnalyticForm:
        return convex_envelope_numeric(tg, n_grid or DEFAULT_GRID), "numeric"


# ---------------------------------------------------------------------------
# main operations
# ---------------------------------------------------------------------------

def worst_case_bound(g: DistortionFn, mode: Optional[str] = None,
                     extras: Optional[dict] = None, moments: MomentInfo = None,
                     engine: str = "auto", n_grid: Optional[int] = None) -> BoundResult:
    """Sharp supremum of the transformed riskmetric over all distributions
    with the given mean and variance, with its worst-case quantile.  Its L
    is the table's closed form, at the envelope's contact point, for any
    analytic envelope, and the envelope's squared-slope integral for a
    numeric one.  A catalog row's parameters are checked for a diverging
    supremum whatever the mode, extras or engine.  A numeric L that reads as
    degenerate raises NonConvergent when a segment between the transform's
    ends and kinks is at most 4 * GRID_FLOOR wide: the grid samples almost
    nothing of it."""
    if moments is None:
        raise DomainError("worst_case_bound requires moments")
    if mode is None:
        mode = g.mode_default
        if extras is None:
            extras = dict(g.extras_default)
    if g.base != "custom":
        # diverging-sup parameters are rejected up front for catalog families
        sup_admissible(g.family, g.params)
    tg = make_ghat(g, mode, extras)
    env, used = _build_envelope(tg, engine, n_grid)
    if used == "analytic":
        # the read's closed form, at the contact distance the envelope solved
        level = tg.p if tg.tau is not None else (
            1.0 - tg.F_t if tg.mode == "residual" else tg.F_t)
        L = _L_at(tg.mode, g.base, _order(g.params), level,
                  family_spec(g.family).scale(g.params), tg.tau, env.meta["t"])
    else:
        L = slope_l2_norm(env, tg.center)
        if not math.isfinite(L):
            raise ParamOutOfDomain(
                f"{g.family}: squared-slope integral diverges; no finite bound")
        # below the norm's rounding floor, which customs (no exact endpoint
        # forms) keep well above machine precision, slope == center a.e.
        if L < (DEGENERATE_EPS if tg.tails_exact else 1e-9):
            # unless a segment between the ends and kinks is too narrow for
            # the grid to sample: _numeric_grid gives a segment at most
            # 4 * GRID_FLOOR wide no cascade
            spans = np.diff([0.0, *sorted(k for k in tg.kinks if 0.0 < k < 1.0), 1.0])
            narrow = spans[(spans > 0.0) & (spans <= 4.0 * GRID_FLOOR)]
            if narrow.size:
                raise NonConvergent(
                    f"{g.family}: the numeric grid cannot sample a segment "
                    f"{narrow.min():.3g} wide between the transform's ends and kinks, "
                    f"and its L reads as 0")
            L = 0.0
    degenerate = L == 0.0
    sup = moments.mu * tg.center + moments.sigma * L
    quantile = None if degenerate else _quantile_from_envelope(
        env, tg.center, L, moments, g.tail_class, f"worst[{g.family}]")
    return BoundResult(sup_value=float(sup), l2_term=float(L), center=tg.center,
                       degenerate=degenerate, quantile=quantile,
                       family=g.family, params=dict(g.params), mode=tg.mode,
                       moments=moments, envelope=env, engine=used)


def worst_case_weighted(g: DistortionFn, w: Optional[WeightSpec],
                        moments: MomentInfo, engine: str = "auto",
                        n_grid: Optional[int] = None) -> BoundResult:
    """Sharp supremum of the weighted entropy form given moments of Psi(X).

    The stored ``weighted_quantile`` is Psi composed with the worst-case
    quantile; the plain quantile is recovered through ``w.Psi_inverse`` when
    available.
    """
    if not moments.weighted:
        raise ModeContractViolation(
            "worst_case_weighted expects MomentInfo(..., weighted=True) for Psi(X)")
    if abs(g.g1) > 1e-12:
        raise ModeContractViolation("weighted form requires g(1) = 0")
    mode = g.mode_default if g.mode_default in ("entropy", "residual", "past") else "entropy"
    inner = worst_case_bound(g, mode, dict(g.extras_default),
                             MomentInfo(moments.mu, moments.sigma),
                             engine=engine, n_grid=n_grid)
    wq = inner.quantile
    quantile = None
    if wq is not None and w is not None and w.Psi_inverse is not None:
        quantile = wq.map(w.Psi_inverse, name=f"PsiInv({wq.name})")
    return replace(inner, quantile=quantile, weighted_quantile=wq, moments=moments)


def closed_form_factor(family: str, params: Optional[dict]) -> tuple:
    """``(center, L)`` of a catalog family's closed-form sharp supremum
    ``mu * center + sigma * L``, after validating its parameters.

    The value needs no envelope, and ``L`` depends on the family and its
    parameters alone, so a caller sweeping moments or a premium loading
    computes it once.
    """
    spec = family_spec(family)
    L = closed_form_L(spec, sup_admissible(family, params))
    center = 1.0 if spec.mode in ("riskmetric", "shortfall") else 0.0
    return center, L


def closed_form_sup(family: str, params: Optional[dict], moments: MomentInfo) -> float:
    """The family's closed-form sharp supremum (constants from the named
    tangency equations, incomplete-gamma terms by quadrature)."""
    center, L = closed_form_factor(family, params)
    return moments.mu * center + moments.sigma * L


def premium_factor(family: str, params: Optional[dict]) -> float:
    """The entropy bound ``L`` at unit standard deviation that a premium
    principle loads: ``premium_value(L, kappa, moments)`` is the premium."""
    spec = family_spec(family)
    if spec.mode != "entropy" or spec.weighted:
        raise ParamOutOfDomain(
            f"{family}: premium principles load a plain entropy family")
    return closed_form_factor(family, params)[1]


def premium_value(L: float, kappa: float, moments: MomentInfo) -> float:
    """``mu + kappa * sigma * L`` for a loading ``kappa`` in [0, inf)."""
    if not (math.isfinite(kappa) and kappa >= 0.0):
        raise DomainError(f"kappa must be finite and >= 0, got {kappa}")
    return moments.mu + kappa * (moments.sigma * L)


def premium_bound(family: str, params: Optional[dict], kappa: float,
                  moments: MomentInfo) -> float:
    """mu + kappa times the entropy bound: the sharp premium-principle value."""
    return premium_value(premium_factor(family, params), kappa, moments)


def shortfall_value(spec: ShortfallSpec, moments: MomentInfo) -> float:
    """Sharp worst-case value of an entropy shortfall, with no certificate.

    Named families take their closed form and build no envelope; a custom
    base distortion has none, so the engine computes it.
    """
    if spec.family == "custom":
        return shortfall_bound(spec, moments).sup_value
    return closed_form_sup(spec.family, spec.catalog_params(), moments)


def shortfall_bound(spec: ShortfallSpec, moments: MomentInfo,
                    engine: str = "auto", n_grid: Optional[int] = None) -> BoundResult:
    """The shortfall's bound from the engine, with its certificate: the
    envelope and attaining quantile.  A named shortfall is its catalog row's
    ``worst_case_bound``, so under the analytic engine its value is
    ``shortfall_value``'s closed form, and under the numeric engine its
    value and quantile share the numeric L."""
    params = spec.catalog_params()
    if spec.family == "custom":
        return worst_case_bound(spec.custom_g, "shortfall",
                                {"p": spec.p, "tau": spec.tau}, moments,
                                engine=engine, n_grid=n_grid)
    result = worst_case_bound(catalog_lookup(spec.family, params), moments=moments,
                              engine=engine, n_grid=n_grid)
    return replace(result, params=dict(params), mode="shortfall")


def worst_case_quantile(result: BoundResult, u):
    """Evaluate the stored worst-case quantile (right-continuous at knots)."""
    quantile = _plain_quantile(result)
    arr = np.asarray(u, dtype=float)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise DomainError("quantile argument must lie in the open interval (0, 1)")
    out = np.asarray(quantile.fn(arr), dtype=float)
    if np.ndim(u) == 0:
        return float(out.reshape(-1)[0])
    return out

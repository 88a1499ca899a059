"""The worst-case engine.

Computes the sharp supremum of a distortion riskmetric, entropy, weighted
entropy, premium principle or entropy shortfall over all distributions with
given mean and variance, and materializes the quantile function of the
attaining distribution:

    sup = mu * c + sigma * sqrt(integral (envelope_slope(u) - c)^2 du)

where c is the transform's center (its value at 1) and the envelope is the
greatest convex minorant of the transformed distortion.  The worst-case
quantile is the standardized excess slope mu + sigma * (slope(u) - c) / L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .distortion import (
    DistortionFn,
    TransformedGHat,
    WeightSpec,
    catalog_lookup,
    family_spec,
    make_ghat,
)
from .envelope import (
    DEFAULT_GRID,
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
    NonInvertibleWeight,
    ParamOutOfDomain,
    UnknownFamily,
)
from .oracle import QuantileFn

DEGENERATE_EPS = 1e-12


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
        if self.family == "GS":
            return {"p": self.p, "tau": self.tau}
        if self.family == "EGS":
            if self.r is None:
                raise ParamOutOfDomain("EGS shortfall requires r")
            return {"r": self.r, "p": self.p, "tau": self.tau}
        if self.family == "CRES":
            return {"p": self.p, "tau": self.tau}
        if self.family == "CRTES":
            if self.alpha is None:
                raise ParamOutOfDomain("CRTES shortfall requires alpha")
            return {"alpha": self.alpha, "p": self.p, "tau": self.tau}
        if self.family == "ES":
            return {"p": self.p}
        if self.family == "custom":
            if self.custom_g is None:
                raise ParamOutOfDomain("custom shortfall requires custom_g")
            return {}
        raise UnknownFamily(f"unknown shortfall family {self.family!r}")


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
        trip through the exported grid.
        """
        if self.quantile is None:
            raise DegenerateResult("no quantile stored for a degenerate bound")
        n_uniform = max(2, int(0.5 * n))
        per_end = max(8, (n - n_uniform) // 2)
        ends = np.geomspace(1e-9, 0.5, per_end)
        parts = [np.linspace(1e-9, 1.0 - 1e-9, n_uniform), ends, 1.0 - ends]
        if self.envelope is not None:
            knots = self.envelope.knots
            parts.append(knots[(knots > 1e-9) & (knots < 1.0 - 1e-9)])
        us = np.unique(np.concatenate(parts))
        return us, np.asarray(self.quantile.fn(us), dtype=float)


# ---------------------------------------------------------------------------
# envelope-driven quantile
# ---------------------------------------------------------------------------

def _tail_class_for(g: DistortionFn) -> str:
    try:
        spec = family_spec(g.family)
    except UnknownFamily:
        return "log-divergent"  # conservative quadrature for customs
    try:
        return spec.tail_class({k: float(v) for k, v in g.params.items()})
    except Exception:
        return "log-divergent"


def _quantile_from_envelope(env: PiecewiseEnvelope, center: float, L: float,
                            moments: MomentInfo, tail_class: str,
                            name: str) -> QuantileFn:
    mu, sigma = moments.mu, moments.sigma
    scale = sigma / L

    def fn(u):
        return mu + scale * (np.asarray(env.slope(u), dtype=float) - center)

    last = env.segments[-1]
    first = env.segments[0]
    if last.kind == "analytic" and last.slope_hi is not None:
        hi_len = 1.0 - last.lo

        def upper_tail(t):
            t = np.asarray(t, dtype=float)
            inside = t <= hi_len
            safe = np.where(inside, t, 0.5 * hi_len)
            vals = mu + scale * (np.asarray(last.slope_hi(safe), dtype=float) - center)
            return np.where(inside, vals, fn(1.0 - t))
    else:
        top = mu + scale * ((last.slope if last.kind == "chord"
                             else float(last.slope_fn(1.0))) - center)
        upper_tail = (lambda t: np.full_like(np.asarray(t, dtype=float), top))
    if first.kind == "analytic" and first.slope_lo is not None:
        lo_len = first.hi

        def lower_tail(t):
            t = np.asarray(t, dtype=float)
            inside = t <= lo_len
            safe = np.where(inside, t, 0.5 * lo_len)
            vals = mu + scale * (np.asarray(first.slope_lo(safe), dtype=float) - center)
            return np.where(inside, vals, fn(t))
    else:
        bottom = mu + scale * ((first.slope if first.kind == "chord"
                                else float(first.slope_fn(0.0))) - center)
        lower_tail = (lambda t: np.full_like(np.asarray(t, dtype=float), bottom))
    interior = tuple(k for k in env.knots if 0.0 < k < 1.0)
    return QuantileFn(fn=fn, breakpoints=interior, tail_class=tail_class,
                      upper_tail=upper_tail, lower_tail=lower_tail, name=name)


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
    with the given mean and variance, with its worst-case quantile."""
    if moments is None:
        raise DomainError("worst_case_bound requires moments")
    if mode is None:
        mode = g.mode_default
        if extras is None:
            extras = dict(g.extras_default)
    if mode == g.mode_default and dict(extras or {}) == dict(g.extras_default):
        # diverging-sup parameters are rejected up front for catalog families
        try:
            family_spec(g.family).sup_check({k: float(v) for k, v in g.params.items()})
        except UnknownFamily:
            pass
    tg = make_ghat(g, mode, extras)
    env, used = _build_envelope(tg, engine, n_grid)
    L = slope_l2_norm(env, tg.center)
    if not math.isfinite(L):
        raise ParamOutOfDomain(
            f"{g.family}: squared-slope integral diverges; no finite bound")
    # custom transforms lack exact endpoint forms, so the computed norm has a
    # rounding floor well above machine precision
    eps = DEGENERATE_EPS if tg.tails_exact else 1e-9
    degenerate = L < eps
    if degenerate:
        L = 0.0  # slope == center a.e.; the residual norm is rounding noise
    sup = moments.mu * tg.center + moments.sigma * L
    quantile = None
    if not degenerate:
        quantile = _quantile_from_envelope(env, tg.center, L, moments,
                                           _tail_class_for(g), f"worst[{g.family}]")
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
        inv = w.Psi_inverse
        quantile = QuantileFn(
            fn=lambda u: np.asarray(inv(wq.fn(u)), dtype=float),
            breakpoints=wq.breakpoints, tail_class=wq.tail_class,
            upper_tail=lambda t: np.asarray(inv(wq._upper()(t)), dtype=float),
            lower_tail=lambda t: np.asarray(inv(wq._lower()(t)), dtype=float),
            name=f"PsiInv({wq.name})")
    return BoundResult(sup_value=inner.sup_value, l2_term=inner.l2_term,
                       center=inner.center, degenerate=inner.degenerate,
                       quantile=quantile, weighted_quantile=wq,
                       family=g.family, params=dict(g.params), mode=inner.mode,
                       moments=moments, envelope=inner.envelope, engine=inner.engine)


def closed_form_sup(family: str, params: Optional[dict], moments: MomentInfo) -> float:
    """The family's closed-form sharp supremum (constants from the named
    tangency equations, incomplete-gamma terms by quadrature)."""
    spec = family_spec(family)
    clean = {k: float(v) for k, v in dict(params or {}).items()}
    missing = [n for n in spec.param_names if n not in clean]
    if missing:
        raise ParamOutOfDomain(f"{family}: missing parameter(s) {missing}")
    spec.validate(clean)
    spec.sup_check(clean)
    L = spec.sup_factor(clean)
    center = 1.0 if spec.mode in ("riskmetric", "shortfall") else 0.0
    return moments.mu * center + moments.sigma * L


def premium_bound(family: str, params: Optional[dict], kappa: float,
                  moments: MomentInfo) -> float:
    """mu + kappa times the entropy bound: the sharp premium-principle value."""
    if kappa < 0.0:
        raise DomainError(f"kappa must be >= 0, got {kappa}")
    spec = family_spec(family)
    if spec.mode != "entropy" or spec.weighted:
        raise ParamOutOfDomain(
            f"{family}: premium principles load a plain entropy family")
    return moments.mu + kappa * closed_form_sup(family, params,
                                                MomentInfo(0.0, moments.sigma))


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
    """The value of ``shortfall_value`` together with its certificate: the
    envelope and attaining quantile from the engine."""
    params = spec.catalog_params()
    if spec.family == "custom":
        return worst_case_bound(spec.custom_g, "shortfall",
                                {"p": spec.p, "tau": spec.tau}, moments,
                                engine=engine, n_grid=n_grid)
    g = catalog_lookup(spec.family, params)
    result = worst_case_bound(g, moments=moments, engine=engine, n_grid=n_grid)
    L = shortfall_value(spec, MomentInfo(0.0, 1.0))
    sup = moments.mu + moments.sigma * L
    return BoundResult(sup_value=float(sup), l2_term=float(L), center=1.0,
                       degenerate=result.degenerate, quantile=result.quantile,
                       family=spec.family, params=dict(params), mode="shortfall",
                       moments=moments, envelope=result.envelope,
                       engine=f"closed-form+{result.engine}")


def worst_case_quantile(result: BoundResult, u):
    """Evaluate the stored worst-case quantile (right-continuous at knots)."""
    if result.degenerate:
        raise DegenerateResult(
            "every feasible distribution attains the bound; no quantile stored")
    if result.quantile is None:
        raise NonInvertibleWeight(
            "quantile recovery requires an invertible weight antiderivative")
    arr = np.asarray(u, dtype=float)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise DomainError("quantile argument must lie in the open interval (0, 1)")
    out = np.asarray(result.quantile.fn(arr), dtype=float)
    if np.ndim(u) == 0:
        return float(out.reshape(-1)[0])
    return out

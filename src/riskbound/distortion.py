"""Distortion functions, the named-family catalog, and quantile-side transforms.

A distortion function is a bounded-variation map ``g`` on [0, 1] with
``g(0) = 0``.  Every catalog entry also carries numerically stable
reparametrizations ``g_lo(t) = g(t)`` and ``g_hi(t) = g(1 - t)`` (and the
same for the derivative) so that downstream quadrature can work at distances
from an endpoint far below 1 ulp of 1.0.

``make_ghat`` turns a distortion into the integrand of its quantile
representation: the reflected function whose Stieltjes measure integrates a
quantile function, optionally truncated to a residual ``[X - t | X > t]`` or
past ``[X | X <= t]`` conditioning, or combined with an expected-shortfall
term into a tail shortfall.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

import numpy as np

from ._num import solve_breakpoint
from .errors import (
    BadTruncationPoint,
    DomainError,
    ModeContractViolation,
    NonFiniteValue,
    ParamOutOfDomain,
    UnknownFamily,
)

MODES = ("riskmetric", "entropy", "residual", "past", "shortfall")

Evaluable = Callable[[np.ndarray], np.ndarray]


def _ev(fn):
    """Wrap an array-kernel so scalars go in and come out as floats."""

    def wrapped(u):
        arr = np.asarray(u, dtype=float)
        out = np.asarray(fn(arr), dtype=float)
        if np.ndim(u) == 0:
            return float(out.reshape(-1)[0])
        return out

    return wrapped


# ---------------------------------------------------------------------------
# stable elementary pieces (all mask their singular endpoints, no warnings)
# ---------------------------------------------------------------------------

def _safe_log(t):
    """log t, returning -inf at t <= 0 without floating warnings."""
    t = np.asarray(t, dtype=float)
    pos = t > 0.0
    return np.where(pos, np.log(np.where(pos, t, 1.0)), -np.inf)


def _safe_log1m(t):
    """log(1 - t) via log1p, returning -inf at t >= 1 without warnings."""
    t = np.asarray(t, dtype=float)
    ok = t < 1.0
    return np.where(ok, np.log1p(-np.where(ok, t, 0.0)), -np.inf)


def _xlogx(t):
    """t log t with its limit 0 filled in at t = 0."""
    t = np.asarray(t, dtype=float)
    pos = t > 0.0
    safe = np.where(pos, t, 1.0)
    return np.where(pos, safe * np.log(safe), 0.0)


def _xlog1m_one_minus(t):
    """(1 - t) log(1 - t), stable for small t, limit 0 at t = 1."""
    t = np.asarray(t, dtype=float)
    ok = t < 1.0
    safe = np.where(ok, t, 0.5)
    return np.where(ok, (1.0 - safe) * np.log1p(-safe), 0.0)


def _pow_neglog(t, a):
    """t * (-log t)^a; 0 at both ends."""
    t = np.asarray(t, dtype=float)
    inside = (t > 0.0) & (t < 1.0)
    safe = np.where(inside, t, 0.5)
    return np.where(inside, safe * (-np.log(safe)) ** a, 0.0)


def _pow_neglog_one_minus(t, a):
    """(1 - t) * (-log(1 - t))^a evaluated stably for small t; 0 at both ends."""
    t = np.asarray(t, dtype=float)
    inside = (t > 0.0) & (t < 1.0)
    safe = np.where(inside, t, 0.5)
    return np.where(inside, (1.0 - safe) * (-np.log1p(-safe)) ** a, 0.0)


def _phi(s, a):
    """(s - s^a)/(a - 1), the Tsallis kernel, stable for s near 0 and a near 1."""
    s = np.asarray(s, dtype=float)
    pos = s > 0.0
    safe = np.where(pos, s, 1.0)
    out = safe * (-np.expm1((a - 1.0) * np.log(safe))) / (a - 1.0)
    return np.where(pos, out, 0.0)


def _phi_one_minus(t, a):
    """phi(1 - t, a) computed stably for small t; 0 at t = 1."""
    t = np.asarray(t, dtype=float)
    ok = t < 1.0
    safe = np.where(ok, t, 0.5)
    out = (1.0 - safe) * (-np.expm1((a - 1.0) * np.log1p(-safe))) / (a - 1.0)
    return np.where(ok, out, 0.0)


def _phi_prime(s, a):
    """d/ds Tsallis kernel: (1 - a s^(a-1))/(a - 1), stable near a = 1."""
    s = np.asarray(s, dtype=float)
    pos = s > 0.0
    ls = np.where(pos, np.log(np.where(pos, s, 1.0)), 0.0)
    out = (-np.expm1((a - 1.0) * ls)) / (a - 1.0) - np.exp((a - 1.0) * ls)
    fill = 1.0 / (a - 1.0) if a > 1.0 else -np.inf
    return np.where(pos, out, fill)


def _phi_prime_one_minus(t, a):
    """phi'(1 - t, a), stable for small t."""
    t = np.asarray(t, dtype=float)
    ok = t < 1.0
    ls = np.where(ok, np.log1p(-np.where(ok, t, 0.0)), 0.0)
    out = (-np.expm1((a - 1.0) * ls)) / (a - 1.0) - np.exp((a - 1.0) * ls)
    fill = 1.0 / (a - 1.0) if a > 1.0 else -np.inf
    return np.where(ok, out, fill)


def _fge_kernel_prime(w, a):
    """w^a - a w^(a-1) for w >= 0, with the correct limits at 0 and +inf."""
    w = np.asarray(w, dtype=float)
    mid = (w > 0.0) & np.isfinite(w)
    safe = np.where(mid, w, 1.0)
    out = safe ** a - a * safe ** (a - 1.0)
    at_zero = 0.0 if a > 1.0 else (-1.0 if a == 1.0 else -np.inf)
    return np.where(mid, out, np.where(w <= 0.0, at_zero, np.inf))


# ---------------------------------------------------------------------------
# core value types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DistortionFn:
    """An evaluable distortion function with catalog metadata.

    ``g_lo(t) = g(t)`` and ``g_hi(t) = g(1 - t)`` are stable near t = 0, and
    ``gp_lo`` / ``gp_hi`` are the analogous forms of the right derivative.
    ``base`` names the canonical shape the envelope recipes key on; it equals
    ``family`` for base families and the underlying base for derived ones.
    """

    family: str
    params: Mapping[str, float]
    g: Evaluable
    g1: float
    g_prime: Optional[Evaluable] = None
    g_lo: Optional[Evaluable] = None
    g_hi: Optional[Evaluable] = None
    gp_lo: Optional[Evaluable] = None
    gp_hi: Optional[Evaluable] = None
    kinks: tuple = ()
    base: str = ""
    entropy_convex: bool = False
    concave: bool = False
    weighted: bool = False
    mode_default: str = "entropy"
    extras_default: Mapping[str, float] = field(default_factory=dict)

    def __call__(self, u):
        return self.g(u)


@dataclass(frozen=True)
class TransformedGHat:
    """The integrand of a quantile representation together with its mode.

    ``ghat`` is the map on [0, 1] whose Stieltjes measure integrates the
    quantile function; ``center`` is the constant subtracted from envelope
    slopes in the sharp bound, and always equals ``ghat(1)``.
    ``ghat_upper(t) = ghat(1 - t)`` and ``ghat_lower(t) = ghat(t)`` are stable
    for tiny t.
    """

    mode: str
    source: DistortionFn
    ghat: Evaluable
    center: float
    F_t: Optional[float] = None
    p: Optional[float] = None
    tau: Optional[float] = None
    ghat_upper: Optional[Evaluable] = None
    ghat_lower: Optional[Evaluable] = None
    ghat_upper_rel: Optional[Evaluable] = None  # ghat(1-t) - ghat(1), offset-free
    tails_exact: bool = True
    kinks: tuple = ()

    def __call__(self, u):
        return self.ghat(u)


@dataclass(frozen=True)
class WeightSpec:
    """A weight ψ together with its antiderivative Ψ (Ψ' = ψ)."""

    psi: Evaluable
    Psi: Evaluable
    Psi_inverse: Optional[Evaluable] = None
    domain: tuple = (-math.inf, math.inf)
    name: str = "custom"


def unit_weight() -> WeightSpec:
    """ψ ≡ 1, Ψ = identity; turns the weighted form into the plain one."""
    return WeightSpec(
        psi=_ev(lambda x: np.ones_like(x)),
        Psi=_ev(lambda x: x),
        Psi_inverse=_ev(lambda y: y),
        name="unit",
    )


def linear_weight() -> WeightSpec:
    """ψ(x) = x, Ψ(x) = x²/2, restricted to nonnegative support so Ψ inverts."""
    return WeightSpec(
        psi=_ev(lambda x: x),
        Psi=_ev(lambda x: 0.5 * x * x),
        Psi_inverse=_ev(lambda y: np.sqrt(np.maximum(2.0 * y, 0.0))),
        domain=(0.0, math.inf),
        name="linear",
    )


def eval_weight(w: WeightSpec, x: float):
    """Return (ψ(x), Ψ(x)), rejecting x outside the declared domain."""
    lo, hi = w.domain
    if not (lo <= x <= hi):
        raise DomainError(f"x={x} outside weight domain [{lo}, {hi}]")
    return float(w.psi(x)), float(w.Psi(x))


# ---------------------------------------------------------------------------
# family catalog
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FamilySpec:
    name: str
    description: str
    param_names: tuple
    validate: Callable[[dict], None]
    build: Callable[[dict], DistortionFn]
    mode: str
    extras: Callable[[dict], dict]
    weighted: bool
    sup_check: Callable[[dict], None]
    sup_factor: Optional[Callable[[dict], float]]
    tail_class: Callable[[dict], str]


_CATALOG: dict = {}


def _register(spec: FamilySpec):
    _CATALOG[spec.name] = spec


def _need(params: dict, names: tuple, family: str) -> dict:
    unknown = set(params) - set(names)
    if unknown:
        raise ParamOutOfDomain(f"{family}: unexpected parameter(s) {sorted(unknown)}")
    missing = [n for n in names if n not in params]
    if missing:
        raise ParamOutOfDomain(f"{family}: missing parameter(s) {missing}")
    return {n: float(params[n]) for n in names}


def _check_alpha_tsallis(a: float, family: str):
    if not (a > 0.0) or a == 1.0:
        raise ParamOutOfDomain(
            f"{family}: alpha must satisfy alpha > 0 and alpha != 1 (got {a})")


def _check_sup_alpha(a: float, family: str):
    if not (a > 0.5):
        raise ParamOutOfDomain(f"{family}: supremum requires alpha > 1/2 (got {a})")


def _check_r(r: float, family: str):
    if not (r > 1.0):
        raise ParamOutOfDomain(f"{family}: requires r > 1 (got {r})")


def _check_p(p: float, family: str):
    if not (0.0 < p < 1.0):
        raise ParamOutOfDomain(f"{family}: p must lie in (0, 1) (got {p})")


def _check_Ft(F: float, family: str, lo_open: bool, hi_open: bool):
    lo_ok = F > 0.0 if lo_open else F >= 0.0
    hi_ok = F < 1.0 if hi_open else F <= 1.0
    if not (lo_ok and hi_ok):
        raise ParamOutOfDomain(f"{family}: F_t={F} outside admissible range")


def _check_tau(tau: float, tau_max: float, family: str):
    if not (0.0 <= tau <= tau_max + 1e-12):
        raise ParamOutOfDomain(
            f"{family}: tau={tau} outside the convexity range [0, {tau_max:.6g}]")


def egs_tau_max(r: float, p: float) -> float:
    """Largest loading keeping the extended-Gini shortfall integrand convex."""
    return 1.0 / (2.0 * (r - 1.0) * (1.0 - p) ** (r - 2.0))


# -- base builders ----------------------------------------------------------

def _base_ct(a: float, family: str, params: dict, **meta) -> DistortionFn:
    return DistortionFn(
        family=family, params=params,
        g=_ev(lambda u: _phi_one_minus(u, a)), g1=0.0,
        g_prime=_ev(lambda u: -_phi_prime_one_minus(u, a)),
        g_lo=_ev(lambda t: _phi_one_minus(t, a)),
        g_hi=_ev(lambda t: _phi(t, a)),
        gp_lo=_ev(lambda t: -_phi_prime_one_minus(t, a)),
        gp_hi=_ev(lambda t: -_phi_prime(t, a)),
        base="CT", entropy_convex=True, concave=True, **meta)


def _base_crt(a: float, family: str, params: dict, **meta) -> DistortionFn:
    return DistortionFn(
        family=family, params=params,
        g=_ev(lambda u: _phi(u, a)), g1=0.0,
        g_prime=_ev(lambda u: _phi_prime(u, a)),
        g_lo=_ev(lambda t: _phi(t, a)),
        g_hi=_ev(lambda t: _phi_one_minus(t, a)),
        gp_lo=_ev(lambda t: _phi_prime(t, a)),
        gp_hi=_ev(lambda t: _phi_prime_one_minus(t, a)),
        base="CRT", entropy_convex=True, concave=True, **meta)


def _base_gini_semi(family: str, params: dict, scale: float = 1.0, **meta) -> DistortionFn:
    g = _ev(lambda u: scale * u * (1.0 - u))
    return DistortionFn(
        family=family, params=params, g=g, g1=0.0,
        g_prime=_ev(lambda u: scale * (1.0 - 2.0 * u)),
        g_lo=g, g_hi=g,
        gp_lo=_ev(lambda t: scale * (1.0 - 2.0 * t)),
        gp_hi=_ev(lambda t: scale * (2.0 * t - 1.0)),
        base="GiniSemidiff", entropy_convex=True, concave=True, **meta)


def _base_egini(r: float, family: str, params: dict, scale: float = 1.0, **meta) -> DistortionFn:
    c = 2.0 * scale * (r - 1.0)
    base = "TEGini" if scale != 1.0 else "EGini"
    return DistortionFn(
        family=family, params=params,
        g=_ev(lambda u: c * _phi(u, r)), g1=0.0,
        g_prime=_ev(lambda u: c * _phi_prime(u, r)),
        g_lo=_ev(lambda t: c * _phi(t, r)),
        g_hi=_ev(lambda t: c * _phi_one_minus(t, r)),
        gp_lo=_ev(lambda t: c * _phi_prime(t, r)),
        gp_hi=_ev(lambda t: c * _phi_prime_one_minus(t, r)),
        base=base, entropy_convex=True, concave=True, **meta)


def _gamma_norm(a: float, family: str) -> float:
    """Gamma(alpha + 1), the normalizer of the fractional entropies."""
    try:
        return math.gamma(a + 1.0)
    except OverflowError:
        raise ParamOutOfDomain(
            f"{family}: Gamma(alpha + 1) overflows double precision at alpha={a}") from None


def _base_fgre(a: float, family: str, params: dict, **meta) -> DistortionFn:
    gam = _gamma_norm(a, family)
    return DistortionFn(
        family=family, params=params,
        g=_ev(lambda u: _pow_neglog(u, a) / gam), g1=0.0,
        g_prime=_ev(lambda u: _fge_kernel_prime(-_safe_log(u), a) / gam),
        g_lo=_ev(lambda t: _pow_neglog(t, a) / gam),
        g_hi=_ev(lambda t: _pow_neglog_one_minus(t, a) / gam),
        gp_lo=_ev(lambda t: _fge_kernel_prime(-_safe_log(t), a) / gam),
        gp_hi=_ev(lambda t: _fge_kernel_prime(-_safe_log1m(t), a) / gam),
        base="FGRE", entropy_convex=(a <= 1.0), concave=(a <= 1.0), **meta)


def _base_fge(a: float, family: str, params: dict, **meta) -> DistortionFn:
    gam = _gamma_norm(a, family)
    return DistortionFn(
        family=family, params=params,
        g=_ev(lambda u: _pow_neglog_one_minus(u, a) / gam), g1=0.0,
        g_prime=_ev(lambda u: -_fge_kernel_prime(-_safe_log1m(u), a) / gam),
        g_lo=_ev(lambda t: _pow_neglog_one_minus(t, a) / gam),
        g_hi=_ev(lambda t: _pow_neglog(t, a) / gam),
        gp_lo=_ev(lambda t: -_fge_kernel_prime(-_safe_log1m(t), a) / gam),
        gp_hi=_ev(lambda t: -_fge_kernel_prime(-_safe_log(t), a) / gam),
        base="FGE", entropy_convex=(a <= 1.0), concave=(a <= 1.0), **meta)


def _base_cre(family: str, params: dict, **meta) -> DistortionFn:
    return DistortionFn(
        family=family, params=params,
        g=_ev(lambda u: -_xlogx(u)), g1=0.0,
        g_prime=_ev(lambda u: -_safe_log(u) - 1.0),
        g_lo=_ev(lambda t: -_xlogx(t)),
        g_hi=_ev(lambda t: -_xlog1m_one_minus(t)),
        gp_lo=_ev(lambda t: -_safe_log(t) - 1.0),
        gp_hi=_ev(lambda t: -_safe_log1m(t) - 1.0),
        base="CRE", entropy_convex=True, concave=True, **meta)


def _base_ce(family: str, params: dict, **meta) -> DistortionFn:
    return DistortionFn(
        family=family, params=params,
        g=_ev(lambda u: -_xlog1m_one_minus(u)), g1=0.0,
        g_prime=_ev(lambda u: _safe_log1m(u) + 1.0),
        g_lo=_ev(lambda t: -_xlog1m_one_minus(t)),
        g_hi=_ev(lambda t: -_xlogx(t)),
        gp_lo=_ev(lambda t: _safe_log1m(t) + 1.0),
        gp_hi=_ev(lambda t: _safe_log(t) + 1.0),
        base="CE", entropy_convex=True, concave=True, **meta)


def _base_es(p: float, family: str, params: dict, **meta) -> DistortionFn:
    q = 1.0 - p
    g = _ev(lambda u: np.minimum(u / q, 1.0))
    return DistortionFn(
        family=family, params=params, g=g, g1=1.0,
        g_prime=_ev(lambda u: np.where(u < q, 1.0 / q, 0.0)),
        g_lo=g,
        g_hi=_ev(lambda t: np.where(t <= p, 1.0, (1.0 - t) / q)),
        gp_lo=_ev(lambda t: np.where(t < q, 1.0 / q, 0.0)),
        gp_hi=_ev(lambda t: np.where(t <= p, 0.0, 1.0 / q)),
        kinks=(q,), base="ES", entropy_convex=False, concave=True, **meta)


# -- closed-form sup factors (multiply sigma; the mu coefficient is the center)

def _L_tsallis(a: float) -> float:
    return 1.0 / math.sqrt(2.0 * a - 1.0)


def _L_egini(r: float) -> float:
    return 2.0 * (r - 1.0) / math.sqrt(2.0 * r - 1.0)


def _L_fgre(a: float) -> float:
    """L of FGRE and of FGE alike: their contact points mirror each other
    (u_FGRE = 1 - u_FGE), so both read the small FGE root t."""
    if a <= 1.0:
        return math.sqrt(math.gamma(2.0 * a - 1.0)) / math.gamma(a)
    from scipy.special import gammaincc

    t = solve_breakpoint("FGE", {"alpha": a})
    w = a * (1.0 - t)  # contact identity: -log(t) = alpha * (1 - t)
    s = 2.0 * a - 1.0
    try:
        d = w ** (2.0 * a) * t / (1.0 - t) + a * a * float(gammaincc(s, w)) * math.gamma(s)
        L = math.sqrt(d) / math.gamma(a + 1.0)
    except OverflowError:
        L = math.inf
    if not math.isfinite(L):
        raise ParamOutOfDomain(
            f"alpha={a}: the fractional-entropy bound overflows double precision")
    return L


def _L_tcre(F: float) -> float:
    u0 = solve_breakpoint("TCRE", {"F_t": F})
    w = math.log((1.0 - u0) / (1.0 - F))
    d = (1.0 - u0) / u0 * w * w + (1.0 - u0)
    return math.sqrt(d) / (1.0 - F)


def _L_tcrt(a: float, F: float) -> float:
    u0 = solve_breakpoint("TCRTE", {"alpha": a, "F_t": F})
    q = 1.0 - F
    t = 1.0 - u0
    d = (t / u0
         - 2.0 * t ** a / (u0 * q ** (a - 1.0))
         + (t ** (2.0 * a - 1.0) / q ** (2.0 * a - 2.0))
         * (1.0 / u0 + (a - 1.0) ** 2 / (2.0 * a - 1.0)))
    return math.sqrt(d) / (abs(a - 1.0) * q)


def _d_tnegini(r: float, p: float) -> float:
    u0 = solve_breakpoint("TNEGini", {"r": r, "p": p})
    q = 1.0 - p
    t = 1.0 - u0
    return (t / u0
            + (t ** (2.0 * r - 1.0) / q ** (2.0 * r - 2.0))
            * (1.0 / u0 + (r - 1.0) ** 2 / (2.0 * r - 1.0))
            - 2.0 * t ** r / (u0 * q ** (r - 1.0)))


def _L_tnegini(r: float, p: float) -> float:
    return 2.0 * math.sqrt(_d_tnegini(r, p)) / (1.0 - p)


def _L_tegini(r: float, p: float) -> float:
    return 2.0 * (1.0 - p) ** (r - 3.0) * math.sqrt(_d_tnegini(r, p))


def _L_dct(a: float, F: float) -> float:
    u1 = solve_breakpoint("DCT", {"alpha": a, "F_t": F})
    d1 = (u1 / (1.0 - u1)
          - 2.0 * u1 ** a / ((1.0 - u1) * F ** (a - 1.0))
          + (u1 ** (2.0 * a - 1.0) / F ** (2.0 * a - 2.0))
          * (u1 / (1.0 - u1) + a * a / (2.0 * a - 1.0)))
    return math.sqrt(d1) / (abs(a - 1.0) * F)


def _L_dce(F: float) -> float:
    u1 = solve_breakpoint("DCE", {"F_t": F})
    w = math.log(u1 / F)
    d1 = u1 + u1 * w * w / (1.0 - u1)
    return math.sqrt(d1) / F


def _L_es(p: float) -> float:
    return math.sqrt(p / (1.0 - p))


def _L_gs(p: float, tau: float) -> float:
    return math.sqrt((3.0 * p + 4.0 * tau * tau) / (3.0 * (1.0 - p)))


def _L_egs(r: float, p: float, tau: float) -> float:
    q = 1.0 - p
    return math.sqrt(p / q + 4.0 * tau * tau * q ** (2.0 * r - 5.0) * (r - 1.0) ** 2
                     / (2.0 * r - 1.0))


def _L_cres(p: float, tau: float) -> float:
    return math.sqrt((p + tau * tau) / (1.0 - p))


def _L_crtes(a: float, p: float, tau: float) -> float:
    k = 2.0 * a - 1.0
    return math.sqrt((k * p + tau * tau) / (k * (1.0 - p)))


# -- registration -----------------------------------------------------------

def _tail_tsallis(a: float) -> str:
    # below 2 the worst-case quantile tail (or its derivative) carries a
    # fractional power singularity; the hint steers quadrature depth
    return "power-divergent" if a < 2.0 else "bounded"


def _no_sup_check(_params: dict):
    return None


def _reg(name, desc, param_names, validate, build, mode, extras, weighted,
         sup_check, sup_factor, tail_class):
    _register(FamilySpec(name, desc, param_names, validate, build, mode, extras,
                         weighted, sup_check, sup_factor, tail_class))


def _meta(mode, extras, weighted=False):
    return dict(weighted=weighted, mode_default=mode, extras_default=extras)


def _positive_alpha(p: dict, family: str):
    if not p["alpha"] > 0.0:
        raise ParamOutOfDomain(f"{family}: alpha must be > 0 (got {p['alpha']})")


def _integer_n(p: dict, family: str):
    if p["n"] != int(p["n"]) or p["n"] < 1:
        raise ParamOutOfDomain(f"{family}: n must be a positive integer (got {p['n']})")


def _build_catalog():
    # plain entropies -------------------------------------------------------
    _reg("CT", "cumulative Tsallis past entropy", ("alpha",),
         lambda p: _check_alpha_tsallis(p["alpha"], "CT"),
         lambda p: _base_ct(p["alpha"], "CT", p, **_meta("entropy", {})),
         "entropy", lambda p: {}, False,
         lambda p: _check_sup_alpha(p["alpha"], "CT"),
         lambda p: _L_tsallis(p["alpha"]),
         lambda p: _tail_tsallis(p["alpha"]))
    _reg("CRT", "cumulative residual Tsallis entropy", ("alpha",),
         lambda p: _check_alpha_tsallis(p["alpha"], "CRT"),
         lambda p: _base_crt(p["alpha"], "CRT", p, **_meta("entropy", {})),
         "entropy", lambda p: {}, False,
         lambda p: _check_sup_alpha(p["alpha"], "CRT"),
         lambda p: _L_tsallis(p["alpha"]),
         lambda p: _tail_tsallis(p["alpha"]))
    _reg("GiniSemidiff", "Gini mean semi-difference", (),
         lambda p: None,
         lambda p: _base_gini_semi("GiniSemidiff", p, 1.0, **_meta("entropy", {})),
         "entropy", lambda p: {}, False, _no_sup_check,
         lambda p: 1.0 / math.sqrt(3.0), lambda p: "bounded")
    _reg("Gini", "Gini coefficient (twice the mean semi-difference)", (),
         lambda p: None,
         lambda p: _base_gini_semi("Gini", p, 2.0, **_meta("entropy", {})),
         "entropy", lambda p: {}, False, _no_sup_check,
         lambda p: 2.0 / math.sqrt(3.0), lambda p: "bounded")
    _reg("EGini", "extended Gini coefficient", ("r",),
         lambda p: _check_r(p["r"], "EGini"),
         lambda p: _base_egini(p["r"], "EGini", p, 1.0, **_meta("entropy", {})),
         "entropy", lambda p: {}, False, _no_sup_check,
         lambda p: _L_egini(p["r"]),
         lambda p: "bounded" if p["r"] >= 2.0 else "power-divergent")
    _reg("FGRE", "fractional generalized cumulative residual entropy", ("alpha",),
         lambda p: _positive_alpha(p, "FGRE"),
         lambda p: _base_fgre(p["alpha"], "FGRE", p, **_meta("entropy", {})),
         "entropy", lambda p: {}, False,
         lambda p: _check_sup_alpha(p["alpha"], "FGRE"),
         lambda p: _L_fgre(p["alpha"]),
         lambda p: "log-divergent" if p["alpha"] >= 1.0 else "power-divergent")
    _reg("GCRE", "generalized cumulative residual entropy (integer order)", ("n",),
         lambda p: _integer_n(p, "GCRE"),
         lambda p: _base_fgre(float(int(p["n"])), "GCRE", p, **_meta("entropy", {})),
         "entropy", lambda p: {}, False, _no_sup_check,
         lambda p: _L_fgre(float(int(p["n"]))), lambda p: "log-divergent")
    _reg("CRE", "cumulative residual entropy", (),
         lambda p: None,
         lambda p: _base_cre("CRE", p, **_meta("entropy", {})),
         "entropy", lambda p: {}, False, _no_sup_check,
         lambda p: 1.0, lambda p: "log-divergent")
    _reg("FGE", "fractional generalized cumulative entropy", ("alpha",),
         lambda p: _positive_alpha(p, "FGE"),
         lambda p: _base_fge(p["alpha"], "FGE", p, **_meta("entropy", {})),
         "entropy", lambda p: {}, False,
         lambda p: _check_sup_alpha(p["alpha"], "FGE"),
         lambda p: _L_fgre(p["alpha"]),
         lambda p: "log-divergent" if p["alpha"] >= 1.0 else "power-divergent")
    _reg("GCE", "generalized cumulative entropy (integer order)", ("n",),
         lambda p: _integer_n(p, "GCE"),
         lambda p: _base_fge(float(int(p["n"])), "GCE", p, **_meta("entropy", {})),
         "entropy", lambda p: {}, False, _no_sup_check,
         lambda p: _L_fgre(float(int(p["n"]))), lambda p: "log-divergent")
    _reg("CE", "cumulative entropy", (),
         lambda p: None,
         lambda p: _base_ce("CE", p, **_meta("entropy", {})),
         "entropy", lambda p: {}, False, _no_sup_check,
         lambda p: 1.0, lambda p: "log-divergent")

    # residual (tail) entropies ----------------------------------------------
    _reg("DCRT", "dynamic cumulative residual Tsallis entropy", ("alpha", "F_t"),
         lambda p: (_check_alpha_tsallis(p["alpha"], "DCRT"),
                    _check_Ft(p["F_t"], "DCRT", False, True)),
         lambda p: _base_crt(p["alpha"], "DCRT", p, **_meta("residual", {"F_t": p["F_t"]})),
         "residual", lambda p: {"F_t": p["F_t"]}, False,
         lambda p: _check_sup_alpha(p["alpha"], "DCRT"),
         lambda p: _L_tcrt(p["alpha"], p["F_t"]),
         lambda p: _tail_tsallis(p["alpha"]))
    _reg("TCRTE", "tail cumulative residual Tsallis entropy", ("alpha", "p"),
         lambda p: (_check_alpha_tsallis(p["alpha"], "TCRTE"), _check_p(p["p"], "TCRTE")),
         lambda p: _base_crt(p["alpha"], "TCRTE", p, **_meta("residual", {"F_t": p["p"]})),
         "residual", lambda p: {"F_t": p["p"]}, False,
         lambda p: _check_sup_alpha(p["alpha"], "TCRTE"),
         lambda p: _L_tcrt(p["alpha"], p["p"]),
         lambda p: _tail_tsallis(p["alpha"]))
    _reg("TNGini", "new-type tail Gini functional", ("p",),
         lambda p: _check_p(p["p"], "TNGini"),
         lambda p: _base_gini_semi("TNGini", p, 1.0, **_meta("residual", {"F_t": p["p"]})),
         "residual", lambda p: {"F_t": p["p"]}, False, _no_sup_check,
         lambda p: _L_tcrt(2.0, p["p"]), lambda p: "bounded")
    _reg("TCRE", "tail cumulative residual entropy", ("p",),
         lambda p: _check_p(p["p"], "TCRE"),
         lambda p: _base_cre("TCRE", p, **_meta("residual", {"F_t": p["p"]})),
         "residual", lambda p: {"F_t": p["p"]}, False, _no_sup_check,
         lambda p: _L_tcre(p["p"]), lambda p: "log-divergent")
    _reg("TNEGini", "new-type tail extended Gini coefficient", ("r", "p"),
         lambda p: (_check_r(p["r"], "TNEGini"), _check_p(p["p"], "TNEGini")),
         lambda p: _base_egini(p["r"], "TNEGini", p, 1.0, **_meta("residual", {"F_t": p["p"]})),
         "residual", lambda p: {"F_t": p["p"]}, False, _no_sup_check,
         lambda p: _L_tnegini(p["r"], p["p"]),
         lambda p: "bounded" if p["r"] >= 2.0 else "power-divergent")
    _reg("TEGini", "tail extended Gini coefficient", ("r", "p"),
         lambda p: (_check_r(p["r"], "TEGini"), _check_p(p["p"], "TEGini")),
         lambda p: _base_egini(p["r"], "TEGini", p, (1.0 - p["p"]) ** (p["r"] - 2.0),
                               **_meta("residual", {"F_t": p["p"]})),
         "residual", lambda p: {"F_t": p["p"]}, False, _no_sup_check,
         lambda p: _L_tegini(p["r"], p["p"]),
         lambda p: "bounded" if p["r"] >= 2.0 else "power-divergent")
    _reg("TGini", "tail Gini functional", ("p",),
         lambda p: _check_p(p["p"], "TGini"),
         lambda p: _base_egini(2.0, "TGini", p, 1.0, **_meta("residual", {"F_t": p["p"]})),
         "residual", lambda p: {"F_t": p["p"]}, False, _no_sup_check,
         lambda p: _L_tnegini(2.0, p["p"]), lambda p: "bounded")

    # past (dynamic) entropies ------------------------------------------------
    _reg("DCT", "dynamic cumulative Tsallis entropy", ("alpha", "F_t"),
         lambda p: (_check_alpha_tsallis(p["alpha"], "DCT"),
                    _check_Ft(p["F_t"], "DCT", True, False)),
         lambda p: _base_ct(p["alpha"], "DCT", p, **_meta("past", {"F_t": p["F_t"]})),
         "past", lambda p: {"F_t": p["F_t"]}, False,
         lambda p: _check_sup_alpha(p["alpha"], "DCT"),
         lambda p: _L_dct(p["alpha"], p["F_t"]),
         lambda p: _tail_tsallis(p["alpha"]))
    _reg("DGini", "dynamic Gini functional", ("F_t",),
         lambda p: _check_Ft(p["F_t"], "DGini", True, False),
         lambda p: _base_gini_semi("DGini", p, 1.0, **_meta("past", {"F_t": p["F_t"]})),
         "past", lambda p: {"F_t": p["F_t"]}, False, _no_sup_check,
         lambda p: _L_dct(2.0, p["F_t"]), lambda p: "bounded")
    _reg("DCE", "dynamic cumulative past entropy", ("F_t",),
         lambda p: _check_Ft(p["F_t"], "DCE", True, False),
         lambda p: _base_ce("DCE", p, **_meta("past", {"F_t": p["F_t"]})),
         "past", lambda p: {"F_t": p["F_t"]}, False, _no_sup_check,
         lambda p: _L_dce(p["F_t"]), lambda p: "log-divergent")

    # weighted entropies (moments refer to Psi(X)) -----------------------------
    _reg("WCT", "weighted cumulative Tsallis entropy", ("alpha",),
         lambda p: _check_alpha_tsallis(p["alpha"], "WCT"),
         lambda p: _base_ct(p["alpha"], "WCT", p, **_meta("entropy", {}, weighted=True)),
         "entropy", lambda p: {}, True,
         lambda p: _check_sup_alpha(p["alpha"], "WCT"),
         lambda p: _L_tsallis(p["alpha"]),
         lambda p: _tail_tsallis(p["alpha"]))
    _reg("WCRT", "weighted cumulative residual Tsallis entropy", ("alpha",),
         lambda p: _check_alpha_tsallis(p["alpha"], "WCRT"),
         lambda p: _base_crt(p["alpha"], "WCRT", p, **_meta("entropy", {}, weighted=True)),
         "entropy", lambda p: {}, True,
         lambda p: _check_sup_alpha(p["alpha"], "WCRT"),
         lambda p: _L_tsallis(p["alpha"]),
         lambda p: _tail_tsallis(p["alpha"]))
    _reg("WGini", "weighted Gini functional", (),
         lambda p: None,
         lambda p: _base_gini_semi("WGini", p, 1.0, **_meta("entropy", {}, weighted=True)),
         "entropy", lambda p: {}, True, _no_sup_check,
         lambda p: 1.0 / math.sqrt(3.0), lambda p: "bounded")
    for wname, wdesc in (("WGCRE", "weighted generalized cumulative residual entropy"),
                         ("WCRE", "weighted cumulative residual entropy")):
        _reg(wname, wdesc, (),
             lambda p: None,
             lambda p, n=wname: _base_cre(n, p, **_meta("entropy", {}, weighted=True)),
             "entropy", lambda p: {}, True, _no_sup_check,
             lambda p: 1.0, lambda p: "log-divergent")
    for wname, wdesc in (("WGCE", "weighted generalized cumulative entropy"),
                         ("WCE", "weighted cumulative entropy")):
        _reg(wname, wdesc, (),
             lambda p: None,
             lambda p, n=wname: _base_ce(n, p, **_meta("entropy", {}, weighted=True)),
             "entropy", lambda p: {}, True, _no_sup_check,
             lambda p: 1.0, lambda p: "log-divergent")
    for wname, wdesc in (("DWGCRE", "dynamic weighted generalized cumulative residual entropy"),
                         ("DWCRE", "dynamic weighted cumulative residual entropy")):
        _reg(wname, wdesc, ("F_t",),
             lambda p, n=wname: _check_Ft(p["F_t"], n, False, True),
             lambda p, n=wname: _base_cre(n, p, **_meta("residual", {"F_t": p["F_t"]},
                                                        weighted=True)),
             "residual", lambda p: {"F_t": p["F_t"]}, True, _no_sup_check,
             lambda p: _L_tcre(p["F_t"]), lambda p: "log-divergent")
    for wname, wdesc in (("DWGCE", "dynamic weighted generalized cumulative entropy"),
                         ("DWCE", "dynamic weighted cumulative entropy")):
        _reg(wname, wdesc, ("F_t",),
             lambda p, n=wname: _check_Ft(p["F_t"], n, True, False),
             lambda p, n=wname: _base_ce(n, p, **_meta("past", {"F_t": p["F_t"]},
                                                       weighted=True)),
             "past", lambda p: {"F_t": p["F_t"]}, True, _no_sup_check,
             lambda p: _L_dce(p["F_t"]), lambda p: "log-divergent")

    # expected shortfall and entropy shortfalls --------------------------------
    _reg("ES", "expected shortfall", ("p",),
         lambda p: _check_p(p["p"], "ES"),
         lambda p: _base_es(p["p"], "ES", p, **_meta("riskmetric", {})),
         "riskmetric", lambda p: {}, False, _no_sup_check,
         lambda p: _L_es(p["p"]), lambda p: "bounded")
    _reg("GS", "Gini shortfall", ("p", "tau"),
         lambda p: (_check_p(p["p"], "GS"), _check_tau(p["tau"], 0.5, "GS")),
         lambda p: _base_gini_semi("GS", p, 2.0,
                                   **_meta("shortfall", {"p": p["p"], "tau": p["tau"]})),
         "shortfall", lambda p: {"p": p["p"], "tau": p["tau"]}, False, _no_sup_check,
         lambda p: _L_gs(p["p"], p["tau"]), lambda p: "bounded")
    _reg("EGS", "extended Gini shortfall", ("r", "p", "tau"),
         lambda p: (_check_r(p["r"], "EGS"), _check_p(p["p"], "EGS"),
                    _check_tau(p["tau"], egs_tau_max(p["r"], p["p"]), "EGS")),
         lambda p: _base_egini(p["r"], "EGS", p, (1.0 - p["p"]) ** (p["r"] - 2.0),
                               **_meta("shortfall", {"p": p["p"], "tau": p["tau"]})),
         "shortfall", lambda p: {"p": p["p"], "tau": p["tau"]}, False, _no_sup_check,
         lambda p: _L_egs(p["r"], p["p"], p["tau"]),
         lambda p: "bounded" if (p["r"] >= 2.0 or p["tau"] == 0.0) else "power-divergent")
    _reg("CRES", "cumulative residual entropy shortfall", ("p", "tau"),
         lambda p: (_check_p(p["p"], "CRES"), _check_tau(p["tau"], 1.0, "CRES")),
         lambda p: _base_cre("CRES", p, **_meta("shortfall", {"p": p["p"], "tau": p["tau"]})),
         "shortfall", lambda p: {"p": p["p"], "tau": p["tau"]}, False, _no_sup_check,
         lambda p: _L_cres(p["p"], p["tau"]),
         lambda p: "log-divergent" if p["tau"] > 0 else "bounded")
    _reg("CRTES", "cumulative residual Tsallis entropy shortfall", ("alpha", "p", "tau"),
         lambda p: (_check_alpha_tsallis(p["alpha"], "CRTES"), _check_p(p["p"], "CRTES"),
                    _check_tau(p["tau"], 1.0, "CRTES")),
         lambda p: _base_crt(p["alpha"], "CRTES", p,
                             **_meta("shortfall", {"p": p["p"], "tau": p["tau"]})),
         "shortfall", lambda p: {"p": p["p"], "tau": p["tau"]}, False,
         lambda p: _check_sup_alpha(p["alpha"], "CRTES"),
         lambda p: _L_crtes(p["alpha"], p["p"], p["tau"]),
         lambda p: _tail_tsallis(p["alpha"]) if p["tau"] > 0 else "bounded")


_build_catalog()


# ---------------------------------------------------------------------------
# public catalog operations
# ---------------------------------------------------------------------------

def family_names() -> list:
    """Catalog names in deterministic alphabetical order."""
    return sorted(_CATALOG)


def family_spec(name: str) -> FamilySpec:
    try:
        return _CATALOG[name]
    except KeyError:
        raise UnknownFamily(f"unknown family {name!r}; see family_names()") from None


def catalog_lookup(family: str, params: Optional[dict] = None) -> DistortionFn:
    """Build the named distortion with validated parameters."""
    spec = family_spec(family)
    clean = _need(dict(params or {}), spec.param_names, family)
    spec.validate(clean)
    return spec.build(clean)


def default_transform(g: DistortionFn) -> "TransformedGHat":
    """Apply the family's canonical mode (residual/past families carry their own F_t)."""
    return make_ghat(g, g.mode_default, dict(g.extras_default))


def sup_admissible(family: str, params: Optional[dict]):
    """Raise ParamOutOfDomain when the sharp bound diverges for these parameters."""
    spec = family_spec(family)
    clean = _need(dict(params or {}), spec.param_names, family)
    spec.validate(clean)
    spec.sup_check(clean)


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def make_ghat(g: DistortionFn, mode: str, extras: Optional[dict] = None) -> TransformedGHat:
    """Build the quantile-representation integrand for ``g`` under ``mode``.

    riskmetric:  ghat(u) = g(1) - g(1-u)
    entropy:     ghat(u) = -g(1-u)                       (requires g(1) = 0)
    residual:    ghat(u) = -g((1-u)/(1-F_t)) on [F_t, 1], 0 below
    past:        ghat(u) = -g(1 - u/F_t)    on [0, F_t], 0 above
    shortfall:   ghat(u) = (u-p)/(1-p) - tau*g((1-u)/(1-p)) on [p, 1], 0 below

    The center (= ghat(1)) is g(1), 0, 0, 0 and 1 respectively.
    """
    extras = dict(extras or {})
    if mode not in MODES:
        raise ModeContractViolation(f"unknown mode {mode!r}; expected one of {MODES}")

    exact = g.g_lo is not None and g.g_hi is not None
    g_lo = g.g_lo or g.g
    g_hi = g.g_hi or _ev(lambda t: np.asarray(g.g(1.0 - np.asarray(t, dtype=float))))

    if mode == "riskmetric":
        g1 = g.g1
        ghat = _ev(lambda u: g1 - np.asarray(g_hi(np.asarray(u, dtype=float))))
        upper = _ev(lambda t: g1 - np.asarray(g_lo(t)))
        lower = _ev(lambda t: g1 - np.asarray(g_hi(t)))
        rel = _ev(lambda t: -np.asarray(g_lo(t)))
        kinks = tuple(sorted(1.0 - k for k in g.kinks))
        return TransformedGHat(mode=mode, source=g, ghat=ghat, center=g1,
                               ghat_upper=upper, ghat_lower=lower,
                               ghat_upper_rel=rel, tails_exact=exact, kinks=kinks)

    if mode == "entropy":
        if abs(g.g1) > 1e-12:
            raise ModeContractViolation(
                f"entropy mode requires g(1) = 0, got g(1) = {g.g1}")
        ghat = _ev(lambda u: -np.asarray(g_hi(np.asarray(u, dtype=float))))
        upper = _ev(lambda t: -np.asarray(g_lo(t)))
        lower = _ev(lambda t: -np.asarray(g_hi(t)))
        kinks = tuple(sorted(1.0 - k for k in g.kinks))
        return TransformedGHat(mode=mode, source=g, ghat=ghat, center=0.0,
                               ghat_upper=upper, ghat_lower=lower,
                               ghat_upper_rel=upper, tails_exact=exact, kinks=kinks)

    if mode == "residual":
        if "F_t" not in extras:
            raise BadTruncationPoint("residual mode requires extras={'F_t': ...}")
        F = float(extras["F_t"])
        if not (0.0 <= F < 1.0):
            raise BadTruncationPoint(f"residual mode requires F_t in [0, 1), got {F}")
        q = 1.0 - F

        def ghat_arr(u):
            u = np.asarray(u, dtype=float)
            v = np.clip((1.0 - u) / q, 0.0, 1.0)
            return np.where(u >= F, -np.asarray(g.g(v)), 0.0)

        ghat = _ev(ghat_arr)
        upper = _ev(lambda t: -np.asarray(g_lo(np.asarray(t, dtype=float) / q)))
        lower = _ev(ghat_arr)
        kinks = (F,) if F > 0.0 else ()
        return TransformedGHat(mode=mode, source=g, ghat=ghat, center=0.0,
                               F_t=F, ghat_upper=upper, ghat_lower=lower,
                               ghat_upper_rel=upper, tails_exact=exact, kinks=kinks)

    if mode == "past":
        if "F_t" not in extras:
            raise BadTruncationPoint("past mode requires extras={'F_t': ...}")
        F = float(extras["F_t"])
        if not (0.0 < F <= 1.0):
            raise BadTruncationPoint(f"past mode requires F_t in (0, 1], got {F}")

        def ghat_arr(u):
            u = np.asarray(u, dtype=float)
            w = np.clip(u / F, 0.0, 1.0)
            return np.where(u <= F, -np.asarray(g_hi(w)), 0.0)

        ghat = _ev(ghat_arr)
        lower = _ev(lambda t: -np.asarray(g_hi(np.asarray(t, dtype=float) / F)))
        upper = _ev(lambda t: np.asarray(ghat_arr(1.0 - np.asarray(t, dtype=float))))
        kinks = (F,) if F < 1.0 else ()
        return TransformedGHat(mode=mode, source=g, ghat=ghat, center=0.0,
                               F_t=F, ghat_upper=upper, ghat_lower=lower,
                               ghat_upper_rel=upper, tails_exact=exact, kinks=kinks)

    # shortfall
    if "p" not in extras or "tau" not in extras:
        raise BadTruncationPoint("shortfall mode requires extras={'p': ..., 'tau': ...}")
    p = float(extras["p"])
    tau = float(extras["tau"])
    if not (0.0 < p < 1.0):
        raise BadTruncationPoint(f"shortfall mode requires p in (0, 1), got {p}")
    if p > 1.0 - 1e-6:
        warnings.warn("shortfall level p capped at 1 - 1e-6", RuntimeWarning)
        p = 1.0 - 1e-6
    if tau < 0.0:
        raise ParamOutOfDomain(f"shortfall mode requires tau >= 0, got {tau}")
    if abs(g.g1) > 1e-12:
        raise ModeContractViolation("shortfall mode requires an entropy base with g(1) = 0")
    q = 1.0 - p

    def ghat_arr(u):
        u = np.asarray(u, dtype=float)
        v = np.clip((1.0 - u) / q, 0.0, 1.0)
        return np.where(u >= p, (u - p) / q - tau * np.asarray(g.g(v)), 0.0)

    upper = _ev(lambda t: 1.0 - np.asarray(t, dtype=float) / q
                - tau * np.asarray(g_lo(np.asarray(t, dtype=float) / q)))
    rel = _ev(lambda t: -np.asarray(t, dtype=float) / q
              - tau * np.asarray(g_lo(np.asarray(t, dtype=float) / q)))
    return TransformedGHat(mode="shortfall", source=g, ghat=_ev(ghat_arr), center=1.0,
                           p=p, tau=tau, ghat_upper=upper, ghat_lower=_ev(ghat_arr),
                           ghat_upper_rel=rel, tails_exact=exact, kinks=(p,))


def custom_distortion(g: Callable, g_prime: Optional[Callable] = None,
                      name: str = "custom", kinks: tuple = ()) -> DistortionFn:
    """Wrap a user-supplied distortion; bounded variation is assumed, not checked."""
    gv = _ev(lambda u: np.asarray(g(np.asarray(u, dtype=float))))
    g0 = float(gv(0.0))
    if abs(g0) > 1e-12:
        raise DomainError(f"custom distortion must satisfy g(0) = 0, got {g0}")
    g1 = float(gv(1.0))
    if not np.isfinite(g1):
        raise NonFiniteValue("custom distortion must be finite at 1")
    return DistortionFn(family=name, params={}, g=gv, g1=g1,
                        g_prime=_ev(g_prime) if g_prime is not None else None,
                        kinks=tuple(kinks), base="custom",
                        mode_default="riskmetric", extras_default={})


def custom_transform(raw: Callable, kinks: tuple = (), name: str = "custom") -> TransformedGHat:
    """Treat a raw map on [0, 1] with raw(0) = 0 directly as a ghat integrand.

    Internally this is the riskmetric transform of g(v) = raw(1) - raw(1 - v),
    so the center equals raw(1).
    """
    rawv = _ev(lambda u: np.asarray(raw(np.asarray(u, dtype=float))))
    r0 = float(rawv(0.0))
    if abs(r0) > 1e-12:
        raise DomainError(f"custom ghat must vanish at 0, got {r0}")
    center = float(rawv(1.0))
    if not np.isfinite(center):
        raise NonFiniteValue("custom ghat must be finite at 1")
    src = custom_distortion(lambda v: center - rawv(1.0 - np.asarray(v, dtype=float)),
                            name=name, kinks=tuple(1.0 - k for k in kinks))
    return TransformedGHat(mode="riskmetric", source=src, ghat=rawv, center=center,
                           ghat_upper=_ev(lambda t: rawv(1.0 - np.asarray(t, dtype=float))),
                           ghat_lower=rawv,
                           ghat_upper_rel=_ev(lambda t: rawv(1.0 - np.asarray(t, dtype=float)) - center),
                           tails_exact=False, kinks=tuple(kinks))

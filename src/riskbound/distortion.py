"""Distortion functions, the named-family catalog, and quantile-side transforms.

A distortion function is a bounded-variation map ``g`` on [0, 1] with
``g(0) = 0``.  Every catalog entry carries ``g`` and its right derivative
``g_prime``, which are stable near u = 0, and their reflections
``g_hi(t) = g(1 - t)`` and ``gp_hi(t) = g'(1 - t)``, which are stable near
u = 1, so that downstream quadrature can work at distances from either
endpoint far below 1 ulp of 1.0.

The catalog is one table with a row per family: its base shape, default
mode and scale.  Four base shapes cover every row (Tsallis, fractional and
log entropies, ES) with the past-side mirrors of the first three; the Gini
rows are scaled Tsallis rows.  A second table, keyed by (mode, shape),
holds each closed-form sup factor at unit scale and, where the envelope has
a contact point, its contact solver.  It holds the residual side only: a
past tail is the mirrored residual tail, so a past-side (mode, shape) reads
its mirror's entry, and a shortfall, ES plus tau times its base's entropy
term, reads the base's entropy entry; ES is its tau = 0 case.  The
parameter checks, transform extras and tail class are worked out from the
row.

``make_ghat`` turns a distortion into the integrand of its quantile
representation: the reflected function whose Stieltjes measure integrates a
quantile function, read through one window of [0, 1]: the whole interval,
or a residual ``[X - t | X > t]`` or past ``[X | X <= t]`` truncation, or a
tail combined with an expected-shortfall term into a tail shortfall; ES
reads the shortfall window at tau = 0.  The window's slope forms near each
end it reaches are the analytic envelope's branches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

import numpy as np

from ._num import fractional_root, log_tail_root, tsallis_tail_root
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
    # the limit at s = 0: 1/(a - 1) above order 1, and +inf below it
    fill = 1.0 / (a - 1.0) if a > 1.0 else np.inf
    return np.where(pos, out, fill)


def _phi_prime_one_minus(t, a):
    """phi'(1 - t, a), stable for small t."""
    t = np.asarray(t, dtype=float)
    ok = t < 1.0
    ls = np.where(ok, np.log1p(-np.where(ok, t, 0.0)), 0.0)
    out = (-np.expm1((a - 1.0) * ls)) / (a - 1.0) - np.exp((a - 1.0) * ls)
    fill = 1.0 / (a - 1.0) if a > 1.0 else np.inf
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

    ``g`` and ``g_prime`` (the right derivative) are stable near u = 0, and
    ``g_hi(t) = g(1 - t)`` and ``gp_hi(t) = g'(1 - t)`` are their stable
    forms near u = 1.  ``base`` names the canonical shape the envelope
    recipes key on, or is "custom" for a user-supplied distortion.
    ``tail_class`` is the tail behaviour of the worst-case quantile, which
    picks the oracle's default tolerance; customs take the conservative
    "log-divergent".
    """

    family: str
    params: Mapping[str, float]
    g: Evaluable
    g1: float
    g_prime: Optional[Evaluable] = None
    g_hi: Optional[Evaluable] = None
    gp_hi: Optional[Evaluable] = None
    kinks: tuple = ()
    base: str = "custom"
    entropy_convex: bool = False
    concave: bool = False
    weighted: bool = False
    mode_default: str = "entropy"
    extras_default: Mapping[str, float] = field(default_factory=dict)
    tail_class: str = "log-divergent"

    def __call__(self, u):
        return self.g(u)


@dataclass(frozen=True)
class TransformedGHat:
    """The integrand of a quantile representation together with its mode.

    ``ghat`` is the map on [0, 1] whose Stieltjes measure integrates the
    quantile function; ``center`` is the constant subtracted from envelope
    slopes in the sharp bound, and always equals ``ghat(1)``.
    ``ghat_upper_rel(t) = ghat(1 - t) - ghat(1)`` is stable for tiny t; near
    u = 0, ``ghat`` itself is.  So are the slopes ``slope_lower(t) = ghat'(t)``
    and ``slope_upper(t) = ghat'(1 - t)``, each None where the window stops
    short of that end or ``g`` has no derivative form there.
    """

    mode: str
    source: DistortionFn
    ghat: Evaluable
    center: float
    F_t: Optional[float] = None
    p: Optional[float] = None
    tau: Optional[float] = None
    ghat_upper_rel: Optional[Evaluable] = None
    tails_exact: bool = True
    kinks: tuple = ()
    slope_lower: Optional[Evaluable] = None
    slope_upper: Optional[Evaluable] = None

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
# base shapes: each returns the array kernels (g, g', g(1 - t), g'(1 - t))
# ---------------------------------------------------------------------------

def _phi_kernel(a: float, c: float):
    """c * phi(., a), the Tsallis shape under a scale.  At order 2 the kernel
    is the polynomial c * u * (1 - u), symmetric about 1/2, with exact
    derivatives."""
    if a == 2.0:
        g = lambda u: c * u * (1.0 - u)
        return g, lambda u: c * (1.0 - 2.0 * u), g, lambda t: c * (2.0 * t - 1.0)
    return (lambda u: c * _phi(u, a), lambda u: c * _phi_prime(u, a),
            lambda t: c * _phi_one_minus(t, a), lambda t: c * _phi_prime_one_minus(t, a))


def _log_kernel():
    return (lambda u: -_xlogx(u), lambda u: -_safe_log(u) - 1.0,
            lambda t: -_xlog1m_one_minus(t), lambda t: -_safe_log1m(t) - 1.0)


def _fractional_kernel(a: float, family: str):
    try:
        gam = math.gamma(a + 1.0)  # the normalizer Gamma(alpha + 1)
    except OverflowError:
        raise ParamOutOfDomain(
            f"{family}: Gamma(alpha + 1) overflows double precision at alpha={a}") from None
    return (lambda u: _pow_neglog(u, a) / gam,
            lambda u: _fge_kernel_prime(-_safe_log(u), a) / gam,
            lambda t: _pow_neglog_one_minus(t, a) / gam,
            lambda t: _fge_kernel_prime(-_safe_log1m(t), a) / gam)


def _es_kernel(p: float):
    q = 1.0 - p
    return (lambda u: np.minimum(u / q, 1.0), lambda u: np.where(u < q, 1.0 / q, 0.0),
            lambda t: np.where(t <= p, 1.0, (1.0 - t) / q),
            lambda t: np.where(t <= p, 0.0, 1.0 / q))


def _mirror(g, gp, g_hi, gp_hi):
    """The past-side shape u -> g(1 - u) of a residual-side kernel: the value
    forms trade ends and the slopes change sign."""
    return g_hi, lambda u: -gp_hi(u), g, lambda t: -gp(t)


# past-side bases, each the mirror of the residual-side base it names
_MIRRORS = {"CT": "CRT", "CE": "CRE", "FGE": "FGRE"}


def _order(P: dict) -> float:
    """The shape's order: alpha, the integer order n, or r; 2 for the Gini
    rows, which are order-2 Tsallis rows."""
    return P.get("alpha", P.get("n", P.get("r", 2.0)))


def _kernels(base: str, P: dict, scale: float, family: str):
    shape = _MIRRORS.get(base, base)
    if shape == "CRT":
        k = _phi_kernel(_order(P), scale)
    elif shape == "FGRE":
        k = _fractional_kernel(_order(P), family)
    elif shape == "CRE":
        k = _log_kernel()
    else:
        k = _es_kernel(P["p"])
    return _mirror(*k) if base in _MIRRORS else k


def _tail_class(base: str, P: dict) -> str:
    """The worst-case quantile's tail behaviour, the hint that picks the
    oracle's default tolerance."""
    if base == "ES" or P.get("tau") == 0.0:  # a shortfall at tau = 0 is ES
        return "bounded"
    if base in ("CRE", "CE"):
        return "log-divergent"
    if base in ("FGRE", "FGE"):
        return "log-divergent" if _order(P) >= 1.0 else "power-divergent"
    # below order 2 the Tsallis tails (or their derivatives) carry a
    # fractional power singularity
    return "power-divergent" if _order(P) < 2.0 else "bounded"


# ---------------------------------------------------------------------------
# family catalog
# ---------------------------------------------------------------------------

def _egini_scale(P: dict) -> float:
    """2(r - 1), the extended-Gini factor on the order-r Tsallis kernel."""
    return 2.0 * (P["r"] - 1.0)


def _tail_scale(P: dict) -> float:
    """2(r - 1)(1 - p)^(r - 2), the extended-Gini factor of the tail and
    shortfall forms."""
    return 2.0 * (P["r"] - 1.0) * (1.0 - P["p"]) ** (P["r"] - 2.0)


@dataclass(frozen=True)
class FamilySpec:
    """One catalog row: ``scale(params)`` multiplies the base shape, whose
    (mode, shape) entry holds the closed-form ``L`` at unit scale."""

    name: str
    description: str
    param_names: tuple
    base: str
    mode: str
    weighted: bool = False
    scale: Callable[[dict], float] = lambda P: 1.0


def _validated(spec: FamilySpec, params: Optional[dict]) -> dict:
    """The row's parameters as floats, each checked in declaration order by
    the rule its name, the base and the mode imply."""
    family, names, params = spec.name, spec.param_names, dict(params or {})
    unknown = set(params) - set(names)
    if unknown:
        raise ParamOutOfDomain(f"{family}: unexpected parameter(s) {sorted(unknown)}")
    missing = [n for n in names if n not in params]
    if missing:
        raise ParamOutOfDomain(f"{family}: missing parameter(s) {missing}")
    P = {n: float(params[n]) for n in names}
    for name in names:
        v = P[name]
        if name == "alpha" and spec.base in ("FGRE", "FGE"):
            if not v > 0.0:
                raise ParamOutOfDomain(f"{family}: alpha must be > 0 (got {v})")
        elif name == "alpha":
            if not (v > 0.0) or v == 1.0:
                raise ParamOutOfDomain(
                    f"{family}: alpha must satisfy alpha > 0 and alpha != 1 (got {v})")
        elif name == "n":
            if not (v.is_integer() and v >= 1.0):
                raise ParamOutOfDomain(f"{family}: n must be a positive integer (got {v})")
        elif name == "r":
            if not (v > 1.0):
                raise ParamOutOfDomain(f"{family}: requires r > 1 (got {v})")
        elif name == "p":
            if not (0.0 < v < 1.0):
                raise ParamOutOfDomain(f"{family}: p must lie in (0, 1) (got {v})")
        elif name == "F_t":
            # the residual window [F_t, 1] and the past window [0, F_t] are nonempty
            if not ((0.0 <= v < 1.0) if spec.mode == "residual" else (0.0 < v <= 1.0)):
                raise ParamOutOfDomain(f"{family}: F_t={v} outside admissible range")
        else:  # tau: tau times the base's slope at 1 keeps the kink slope >= 0
            scale = spec.scale(P)
            if not scale > 0.0:
                raise ParamOutOfDomain(
                    f"{family}: the kernel scale underflows double precision at {P}")
            tau_max = 1.0 / scale
            if not (0.0 <= v <= tau_max + 1e-12):
                raise ParamOutOfDomain(
                    f"{family}: tau={v} outside the convexity range [0, {tau_max:.6g}]")
    return P


# -- closed-form sup factors at unit scale (multiply sigma; the mu
# coefficient is the center).  A contact point u comes in already solved.

def _L_tsallis(a: float) -> float:
    return 1.0 / math.sqrt(2.0 * a - 1.0)


def _L_fgre(a: float, contact: Callable[[], float]) -> float:
    """L of FGRE and of FGE alike: their contact points mirror each other
    (u_FGRE = 1 - u_FGE), so both read the small FGE root t = ``contact()``,
    which exists above order 1 only."""
    if a <= 1.0:
        return math.sqrt(math.gamma(2.0 * a - 1.0)) / math.gamma(a)
    from scipy.special import gammaincc

    t = contact()
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


def _L_tsallis_tail(a: float, q: float, t: float) -> float:
    """L of the order-a Tsallis tail window of length q with its contact at
    distance t from the window's far end; the untruncated L at t = q = 1."""
    if t == q:
        return _L_tsallis(a)
    # a sum of squares in y = (t/q)^(a-1): no cancellation as t -> q -> 1, and
    # no underflow of t^(2a-1) or q^(2a-2) at large alpha
    y = (t / q) ** (a - 1.0)
    d = t * ((1.0 - y) ** 2 / (1.0 - t) + (a - 1.0) ** 2 * y * y / (2.0 * a - 1.0))
    return math.sqrt(d) / (abs(a - 1.0) * q)


def _L_log_tail(q: float, t: float) -> float:
    """L of the log-kernel tail window of length q with its contact at
    distance t from the window's far end; 1 at t = q = 1."""
    if t == q:
        return 1.0
    w = math.log(t / q)
    return math.sqrt(t + t * w * w / (1.0 - t)) / q


def _L_shortfall(p: float, entropy: float) -> float:
    """L of ES at level p plus a loaded entropy term whose own L is
    ``entropy``: tau times the row's scale times its base's entropy L."""
    return math.sqrt((p + entropy * entropy) / (1.0 - p))


@dataclass(frozen=True)
class _Shape:
    """One (mode, shape) entry on the residual side.  ``L(order, level, t)``
    is the closed-form ``L`` at unit scale, where ``level`` is the window
    length q of a tail mode (1 - F_t residual, F_t past) and p otherwise,
    and ``t()`` gives the contact distance ``root(order, level)`` from the
    far end of the window.  An entry with a root has its envelope's chord on
    [0, 1 - t] and its branch on [1 - t, 1]; its mirror has the chord on
    [t, 1] and the branch on [0, t]."""

    L: Callable[..., float]
    root: Optional[Callable[[float, float], float]] = None


# the only map from a (mode, shape) to a closed form and a contact equation.
# It holds the residual side only: a past-side (mode, shape) reads its
# mirror's entry, with the chord on the other side
_SHAPES: dict = {
    ("entropy", "CRT"): _Shape(lambda a, lvl, t: _L_tsallis(a)),
    ("entropy", "CRE"): _Shape(lambda a, lvl, t: 1.0),
    ("entropy", "FGRE"): _Shape(lambda a, lvl, t: _L_fgre(a, t),
                                lambda a, lvl: fractional_root(a)),
    ("residual", "CRT"): _Shape(lambda a, q, t: _L_tsallis_tail(a, q, t()),
                                tsallis_tail_root),
    ("residual", "CRE"): _Shape(lambda a, q, t: _L_log_tail(q, t()),
                                lambda a, q: log_tail_root(q)),
}

# the mirror u -> 1 - u: past and residual windows trade ends, and each
# residual-side base trades with the past-side base built as its ``_mirror``
_MIRROR_MODE = {"entropy": "entropy", "residual": "past", "past": "residual"}
_MIRROR_BASE = {**_MIRRORS, **{v: k for k, v in _MIRRORS.items()}}


def _shape(mode: str, base: str, a: float) -> tuple:
    """``(entry, mirrored)``: the (mode, base) entry of ``_SHAPES``, or its
    mirror's with ``mirrored`` set; ``(None, False)`` when neither exists.
    At order 2 the Tsallis kernel u(1 - u) is its own mirror, so CT and CRT
    read each other's entries too."""
    bases = (base, _MIRROR_BASE[base]) if a == 2.0 and base in ("CT", "CRT") else (base,)
    for b in bases:
        if (mode, b) in _SHAPES:
            return _SHAPES[mode, b], False
        mirror = (_MIRROR_MODE.get(mode), _MIRROR_BASE.get(b))
        if mirror in _SHAPES:
            return _SHAPES[mirror], True
    return None, False


def closed_form_L(spec: FamilySpec, P: dict) -> float:
    """The closed-form ``L`` of the sharp bound ``mu * center + sigma * L``
    for a row and its checked parameters."""
    level = P.get("F_t", P.get("p"))
    if spec.mode == "residual":  # the window [F_t, 1]
        level = 1.0 - level
    tau = P.get("tau", 0.0) if spec.mode == "shortfall" or spec.base == "ES" else None
    return _L_at(spec.mode, spec.base, _order(P), level, spec.scale(P), tau)


def _L_at(mode: str, base: str, a: float, level: Optional[float], scale: float,
          tau: Optional[float] = None, t: Optional[float] = None) -> float:
    """The closed-form ``L`` of a read of an order-``a`` base under ``mode``:
    ``scale`` times the (mode, shape) entry's unit-scale ``L``, with the
    contact at distance ``t`` (at the entry's root when None).  ``level`` is
    the window length of a tail read (1 - F_t residual, F_t past) and p of a
    shortfall window, the read whose ``tau`` is set: its L is ES plus tau
    times the scaled entropy L, and ES is the shortfall at tau = 0.  A
    riskmetric read of a base with g(1) = 0 is its entropy read, and so is a
    tail window of length 1, which truncates nothing."""
    if tau is not None:
        entropy = _L_at("entropy", base, a, None, 1.0) if tau else 0.0
        return _L_shortfall(level, tau * scale * entropy)
    if mode == "riskmetric" or level == 1.0:
        mode = "entropy"
    shape = _shape(mode, base, a)[0]
    contact = (lambda: shape.root(a, level)) if t is None else (lambda: t)
    return scale * shape.L(a, level, contact)


def _aliases(*names: tuple, row: tuple) -> tuple:
    """One weighted catalog row under each (name, description) of ``names``:
    the generalized and plain names of a weighted entropy share their
    parameters, base shape and mode."""
    return tuple(FamilySpec(name, description, *row, weighted=True)
                 for name, description in names)


# -- the table ----------------------------------------------------------------
# name, description, parameters, base shape, default mode, then the weighted
# flag and the kernel scale where they differ from the default.  The Gini
# rows are Tsallis rows of order 2, or of order r under an extended-Gini scale

_CATALOG: dict = {spec.name: spec for spec in (
    # plain entropies
    FamilySpec("CT", "cumulative Tsallis past entropy", ("alpha",), "CT", "entropy"),
    FamilySpec("CRT", "cumulative residual Tsallis entropy", ("alpha",), "CRT", "entropy"),
    FamilySpec("GiniSemidiff", "Gini mean semi-difference", (), "CRT", "entropy"),
    FamilySpec("Gini", "Gini coefficient (twice the mean semi-difference)", (),
               "CRT", "entropy", scale=lambda P: 2.0),
    FamilySpec("EGini", "extended Gini coefficient", ("r",),
               "CRT", "entropy", scale=_egini_scale),
    FamilySpec("FGRE", "fractional generalized cumulative residual entropy", ("alpha",),
               "FGRE", "entropy"),
    FamilySpec("GCRE", "generalized cumulative residual entropy (integer order)", ("n",),
               "FGRE", "entropy"),
    FamilySpec("CRE", "cumulative residual entropy", (), "CRE", "entropy"),
    FamilySpec("FGE", "fractional generalized cumulative entropy", ("alpha",),
               "FGE", "entropy"),
    FamilySpec("GCE", "generalized cumulative entropy (integer order)", ("n",),
               "FGE", "entropy"),
    FamilySpec("CE", "cumulative entropy", (), "CE", "entropy"),

    # residual (tail) entropies
    FamilySpec("DCRT", "dynamic cumulative residual Tsallis entropy", ("alpha", "F_t"),
               "CRT", "residual"),
    FamilySpec("TCRTE", "tail cumulative residual Tsallis entropy", ("alpha", "p"),
               "CRT", "residual"),
    FamilySpec("TNGini", "new-type tail Gini functional", ("p",), "CRT", "residual"),
    FamilySpec("TCRE", "tail cumulative residual entropy", ("p",), "CRE", "residual"),
    FamilySpec("TNEGini", "new-type tail extended Gini coefficient", ("r", "p"),
               "CRT", "residual", scale=_egini_scale),
    FamilySpec("TEGini", "tail extended Gini coefficient", ("r", "p"),
               "CRT", "residual", scale=_tail_scale),
    FamilySpec("TGini", "tail Gini functional", ("p",),
               "CRT", "residual", scale=lambda P: 2.0),

    # past (dynamic) entropies
    FamilySpec("DCT", "dynamic cumulative Tsallis entropy", ("alpha", "F_t"), "CT", "past"),
    FamilySpec("DGini", "dynamic Gini functional", ("F_t",), "CT", "past"),
    FamilySpec("DCE", "dynamic cumulative past entropy", ("F_t",), "CE", "past"),

    # weighted entropies (moments refer to Psi(X))
    FamilySpec("WCT", "weighted cumulative Tsallis entropy", ("alpha",),
               "CT", "entropy", weighted=True),
    FamilySpec("WCRT", "weighted cumulative residual Tsallis entropy", ("alpha",),
               "CRT", "entropy", weighted=True),
    FamilySpec("WGini", "weighted Gini functional", (), "CRT", "entropy", weighted=True),
    *_aliases(("WGCRE", "weighted generalized cumulative residual entropy"),
              ("WCRE", "weighted cumulative residual entropy"),
              row=((), "CRE", "entropy")),
    *_aliases(("WGCE", "weighted generalized cumulative entropy"),
              ("WCE", "weighted cumulative entropy"),
              row=((), "CE", "entropy")),
    *_aliases(("DWGCRE", "dynamic weighted generalized cumulative residual entropy"),
              ("DWCRE", "dynamic weighted cumulative residual entropy"),
              row=(("F_t",), "CRE", "residual")),
    *_aliases(("DWGCE", "dynamic weighted generalized cumulative entropy"),
              ("DWCE", "dynamic weighted cumulative entropy"),
              row=(("F_t",), "CE", "past")),

    # expected shortfall and entropy shortfalls
    FamilySpec("ES", "expected shortfall", ("p",), "ES", "riskmetric"),
    FamilySpec("GS", "Gini shortfall", ("p", "tau"),
               "CRT", "shortfall", scale=lambda P: 2.0),
    FamilySpec("EGS", "extended Gini shortfall", ("r", "p", "tau"),
               "CRT", "shortfall", scale=_tail_scale),
    FamilySpec("CRES", "cumulative residual entropy shortfall", ("p", "tau"),
               "CRE", "shortfall"),
    FamilySpec("CRTES", "cumulative residual Tsallis entropy shortfall", ("alpha", "p", "tau"),
               "CRT", "shortfall"),
)}


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
    P = _validated(spec, params)
    base, mode = spec.base, spec.mode
    g, gp, g_hi, gp_hi = _kernels(base, P, spec.scale(P), family)
    if mode == "shortfall":
        extras = {"p": P["p"], "tau": P["tau"]}
    elif mode in ("residual", "past"):
        extras = {"F_t": P["F_t"] if "F_t" in P else P["p"]}
    else:
        extras = {}
    # the fractional shapes are concave only up to order 1; ES is concave,
    # but its entropy transform is not convex
    convex = base != "ES" and (base not in ("FGRE", "FGE") or _order(P) <= 1.0)
    return DistortionFn(
        family=family, params=P, g=_ev(g), g1=1.0 if base == "ES" else 0.0,
        g_prime=_ev(gp), g_hi=_ev(g_hi), gp_hi=_ev(gp_hi),
        kinks=(1.0 - P["p"],) if base == "ES" else (), base=base,
        entropy_convex=convex, concave=convex or base == "ES",
        weighted=spec.weighted, mode_default=mode, extras_default=extras,
        tail_class=_tail_class(base, P))


def default_transform(g: DistortionFn) -> "TransformedGHat":
    """Apply the family's canonical mode (residual/past families carry their own F_t)."""
    return make_ghat(g, g.mode_default, dict(g.extras_default))


def sup_admissible(family: str, params: Optional[dict]) -> dict:
    """The validated parameters as floats; ParamOutOfDomain when they are
    outside the family's domain or the sharp bound diverges for them."""
    P = _validated(family_spec(family), params)
    if "alpha" in P and not P["alpha"] > 0.5:
        raise ParamOutOfDomain(f"{family}: supremum requires alpha > 1/2 (got {P['alpha']})")
    return P


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def make_ghat(g: DistortionFn, mode: str, extras: Optional[dict] = None) -> TransformedGHat:
    """Build the quantile-representation integrand for ``g`` under ``mode``.

    Every mode reads ``g`` through one window [lo, hi] of length q: [0, 1],
    or [F_t, 1] in residual mode, [0, F_t] in past mode and [p, 1] in
    shortfall mode.  In the window coordinate s = (u - lo)/q,

        ghat = c + lin*s - w*g(1 - s)  inside the window, 0 outside,

    with (c, lin, w) = (g(1), 0, 1) in riskmetric mode, (0, 0, 1) in
    entropy, residual and past mode and (0, 1, tau) in shortfall mode.  ES
    in riskmetric mode is the shortfall at tau = 0: (0, 1, 0) on [p, 1].

    riskmetric:  ghat(u) = g(1) - g(1-u)
    ES:          ghat(u) = (u-p)/(1-p)       on [p, 1], 0 below
    entropy:     ghat(u) = -g(1-u)                       (requires g(1) = 0)
    residual:    ghat(u) = -g((1-u)/(1-F_t)) on [F_t, 1], 0 below
    past:        ghat(u) = -g(1 - u/F_t)    on [0, F_t], 0 above
    shortfall:   ghat(u) = (u-p)/(1-p) - tau*g((1-u)/(1-p)) on [p, 1], 0 below

    The center (= ghat(1)) is g(1), 1, 0, 0, 0 and 1 respectively.  A window
    that starts above u = 0 is read at the distance (1 - u)/q from its far
    end, and a window that ends at u = 1 reads its tail ghat(1 - t) as
    c + lin*(1 - t/q) - w*g(t/q), and its slope ghat'(1 - t) as
    (lin + w*g'(t/q))/q (ghat'(t) reads g'(1 - t/q) near u = 0), or lin/q at
    w = 0.  The window's inner edges and, where w != 0, the kinks of ``g``
    are the transform's kinks.
    """
    extras = dict(extras or {})
    if mode not in MODES:
        raise ModeContractViolation(f"unknown mode {mode!r}; expected one of {MODES}")
    lo, hi, c, lin, w = 0.0, 1.0, 0.0, 0.0, 1.0
    F = p = tau = None
    if mode == "riskmetric" and g.base == "ES":
        p, tau = g.params["p"], 0.0
        lo, lin, w = p, 1.0, 0.0
    elif mode == "riskmetric":
        c = g.g1
    elif mode in ("residual", "past"):
        if "F_t" not in extras:
            raise BadTruncationPoint(f"{mode} mode requires extras={{'F_t': ...}}")
        F = float(extras["F_t"])
        if mode == "residual" and not 0.0 <= F < 1.0:
            raise BadTruncationPoint(f"residual mode requires F_t in [0, 1), got {F}")
        if mode == "past" and not 0.0 < F <= 1.0:
            raise BadTruncationPoint(f"past mode requires F_t in (0, 1], got {F}")
        lo, hi = (F, 1.0) if mode == "residual" else (0.0, F)
    elif mode == "shortfall":
        if "p" not in extras or "tau" not in extras:
            raise BadTruncationPoint("shortfall mode requires extras={'p': ..., 'tau': ...}")
        p, tau = float(extras["p"]), float(extras["tau"])
        if not 0.0 < p < 1.0:
            raise BadTruncationPoint(f"shortfall mode requires p in (0, 1), got {p}")
        if tau < 0.0:
            raise ParamOutOfDomain(f"shortfall mode requires tau >= 0, got {tau}")
        lo, lin, w = p, 1.0, tau
    if mode in ("entropy", "shortfall") and abs(g.g1) > 1e-12:
        raise ModeContractViolation(f"{mode} mode requires g(1) = 0, got g(1) = {g.g1}")

    q = hi - lo
    g_hi = g.g_hi or _ev(lambda t: np.asarray(g.g(1.0 - np.asarray(t, dtype=float))))
    # the window's edge inside (0, 1), if any, and the side of it the window is on
    edge, inside = (hi, np.less_equal) if lo == 0.0 else (lo, np.greater_equal)
    cut = 0.0 < edge < 1.0

    def combine(G, s, c0):
        """c0 + lin*s - w*G: the window formula with g read as G at coordinate s."""
        G = np.asarray(G)
        if w != 1.0:
            G = w * G
        val = c0 - G if c0 else -G
        return val + lin * s if lin else val

    def ghat_arr(u):
        u = np.asarray(u, dtype=float)
        v = np.clip(u, lo, hi) if cut else u
        if lo == 0.0:  # read from u = 0
            s = v / q if cut else v
            val = combine(g_hi(s), s, c)
        else:          # read from the window's far end, u = 1
            val = combine(g.g((1.0 - v) / q), (v - lo) / q if lin else 0.0, c)
        return np.where(inside(u, edge), val, 0.0) if cut else val

    center = c + lin if hi == 1.0 else 0.0
    if hi == 1.0:
        # ghat(1 - t) - center, read as g(t/q)
        def rel_arr(t):
            x = np.asarray(t, dtype=float) / q
            return combine(g.g(x), -x, 0.0)

        rel = _ev(rel_arr)
    else:
        rel = _ev(lambda t: ghat_arr(1.0 - np.asarray(t, dtype=float)))
    kinks = (edge,) if cut else ()
    if g.kinks and w:
        kinks = tuple(sorted(kinks + tuple(1.0 - q * v if hi == 1.0 else q * (1.0 - v)
                                           for v in g.kinks)))

    def slope_form(gp):
        """(lin + w*gp(t/q))/q, with ``gp`` the form of g' at the end read."""
        if not w:
            return _ev(lambda t: np.full(np.shape(t), lin / q))
        if gp is None or (q, lin, w) == (1.0, 0.0, 1.0):
            return gp
        return _ev(lambda t: (lin + w * np.asarray(gp(np.asarray(t, dtype=float) / q))) / q)

    return TransformedGHat(mode=mode, source=g, ghat=_ev(ghat_arr), center=center,
                           F_t=F, p=p, tau=tau, ghat_upper_rel=rel,
                           tails_exact=g.g_hi is not None, kinks=kinks,
                           slope_lower=slope_form(g.gp_hi) if lo == 0.0 else None,
                           slope_upper=slope_form(g.g_prime) if hi == 1.0 else None)


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
                        kinks=tuple(kinks), mode_default="riskmetric", extras_default={})


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
                           ghat_upper_rel=_ev(lambda t: rawv(1.0 - np.asarray(t, dtype=float)) - center),
                           tails_exact=False, kinks=tuple(kinks))

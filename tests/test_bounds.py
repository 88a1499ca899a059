import math

import numpy as np
import pytest

from riskbound import _num
from riskbound import bounds as B
from riskbound import distortion as D
from riskbound import envelope as E
from riskbound import oracle as O
from riskbound.errors import (
    DegenerateResult,
    DomainError,
    ModeContractViolation,
    NoAnalyticForm,
    NonConvergent,
    NonInvertibleWeight,
    ParamOutOfDomain,
    RiskboundError,
    UnknownFamily,
)

from conftest import (REFERENCE_GINI_L, SWEEP, reference_integrate_segment, reference_L_tcre,
                      reference_L_tcrt, reference_slope_l2_norm)

STD = B.MomentInfo(0.0, 1.0)


def test_moment_info_validation():
    with pytest.raises(DomainError):
        B.MomentInfo(0.0, -1.0)
    with pytest.raises(DomainError):
        B.MomentInfo(math.nan, 1.0)
    m = B.MomentInfo.from_variance(2.0, 4.0)
    assert m.sigma == 2.0


def test_gini_semidifference_worst_case():
    res = B.worst_case_bound(D.catalog_lookup("GiniSemidiff", {}), moments=STD)
    assert res.sup_value == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-12)
    for u in (0.1, 0.5, 0.9):
        assert B.worst_case_quantile(res, u) == pytest.approx(
            math.sqrt(3.0) * (2.0 * u - 1.0), rel=1e-10, abs=1e-10)


def test_cre_worst_case():
    res = B.worst_case_bound(D.catalog_lookup("CRE", {}),
                             moments=B.MomentInfo(2.0, 3.0))
    assert res.sup_value == pytest.approx(3.0, abs=1e-10)
    for u in (0.2, 0.7, 0.95):
        expected = 2.0 - 3.0 * (math.log(1.0 - u) + 1.0)
        assert B.worst_case_quantile(res, u) == pytest.approx(expected, rel=1e-10)


def test_zero_variance_collapses_to_mean_term():
    g = D.catalog_lookup("GS", {"p": 0.8, "tau": 0.2})
    res = B.worst_case_bound(g, moments=B.MomentInfo(1.5, 0.0))
    assert res.sup_value == pytest.approx(1.5, abs=1e-14)
    assert not res.degenerate
    us = np.linspace(0.01, 0.99, 11)
    assert np.allclose(B.worst_case_quantile(res, us), 1.5, atol=1e-14)


def test_identity_distortion_is_degenerate():
    g = D.custom_distortion(lambda u: np.asarray(u, dtype=float))
    res = B.worst_case_bound(g, "riskmetric", {}, B.MomentInfo(0.7, 2.0))
    assert res.degenerate
    assert res.sup_value == pytest.approx(0.7, abs=1e-12)
    with pytest.raises(DegenerateResult):
        B.worst_case_quantile(res, 0.5)
    with pytest.raises(DegenerateResult):
        res.quantile_grid(101)


def test_egini_closed_value():
    res = B.worst_case_bound(D.catalog_lookup("EGini", {"r": 3.0}), moments=STD)
    assert res.sup_value == pytest.approx(4.0 / math.sqrt(5.0), rel=1e-9)


def test_closed_form_sup_examples():
    assert B.closed_form_sup("CRT", {"alpha": 2.0}, STD) == pytest.approx(
        1.0 / math.sqrt(3.0), rel=1e-14)
    assert B.closed_form_sup("FGRE", {"alpha": 1.0}, STD) == pytest.approx(1.0, rel=1e-14)
    engine = B.worst_case_bound(D.catalog_lookup("TGini", {"p": 0.81}),
                                moments=STD, engine="numeric")
    assert B.closed_form_sup("TGini", {"p": 0.81}, STD) == pytest.approx(
        engine.sup_value, rel=1e-7)
    with pytest.raises(ParamOutOfDomain):
        B.closed_form_sup("CT", {"alpha": 0.4}, STD)


def test_premium_bounds():
    mom = B.MomentInfo.from_variance(0.04371627, 0.191021554)
    bound = B.premium_bound("Gini", {}, 1.0, mom)
    expected = 0.04371627 + 2.0 * math.sqrt(0.191021554) / math.sqrt(3.0)
    assert bound == pytest.approx(expected, abs=1e-14)
    assert B.premium_bound("Gini", {}, 0.0, mom) == pytest.approx(mom.mu, abs=1e-15)
    assert B.premium_bound("CT", {"alpha": 3.0}, 1.0, STD) == pytest.approx(
        1.0 / math.sqrt(5.0), rel=1e-14)
    with pytest.raises(DomainError):
        B.premium_bound("Gini", {}, -0.5, mom)
    with pytest.raises(ParamOutOfDomain):
        B.premium_bound("ES", {"p": 0.9}, 1.0, mom)
    with pytest.raises(ParamOutOfDomain):
        B.premium_bound("WCRE", {}, 1.0, mom)


def test_shortfall_es_two_point():
    spec = B.ShortfallSpec("ES", p=0.5)
    res = B.shortfall_bound(spec, STD)
    assert res.sup_value == pytest.approx(1.0, rel=1e-12)
    assert B.worst_case_quantile(res, 0.75) == pytest.approx(1.0, rel=1e-9)
    assert B.worst_case_quantile(res, 0.25) == pytest.approx(-1.0, rel=1e-9)
    res9 = B.shortfall_bound(B.ShortfallSpec("ES", p=0.9), STD)
    assert B.worst_case_quantile(res9, 0.95) == pytest.approx(3.0, rel=1e-9)


def test_shortfall_closed_values():
    gs = B.shortfall_bound(B.ShortfallSpec("GS", p=0.9, tau=0.5), STD)
    assert gs.sup_value == pytest.approx(math.sqrt(3.7 / 0.3), rel=1e-12)
    cres = B.shortfall_bound(B.ShortfallSpec("CRES", p=0.9, tau=0.5), STD)
    assert cres.sup_value == pytest.approx(math.sqrt(11.5), rel=1e-12)


def test_shortfall_bound_is_its_rows_bound():
    moments = B.MomentInfo(0.3, 1.7)
    shortfalls = [(f, P) for f, P in SWEEP if f in B._SHORTFALL_PARAMS]
    assert {f for f, _ in shortfalls} == {"ES", "GS", "EGS", "CRES", "CRTES"}
    first = {}
    for family, params in shortfalls:
        spec = B.ShortfallSpec(family, **params)
        res = B.shortfall_bound(spec, moments)
        # the analytic engine's value is the closed form, bit for bit
        assert res.sup_value == moments.mu + moments.sigma * B.closed_form_factor(family, params)[1]
        assert (res.mode, res.engine, res.params) == ("shortfall", "analytic", params)
        first.setdefault(family, spec)
    # under the numeric engine, the value and the quantile share the
    # engine's own L
    for family, spec in first.items():
        numeric = B.shortfall_bound(spec, moments, engine="numeric")
        row = B.worst_case_bound(D.catalog_lookup(family, spec.catalog_params()),
                                 moments=moments, engine="numeric")
        assert numeric.l2_term == row.l2_term and numeric.sup_value == row.sup_value
        assert numeric.engine == "numeric"
        u = np.linspace(0.001, 0.999, 999)
        assert np.array_equal(numeric.quantile.fn(u), row.quantile.fn(u))


def test_shortfall_both_paths_agree():
    for spec in (B.ShortfallSpec("GS", p=0.9, tau=0.5),
                 B.ShortfallSpec("EGS", p=0.5, tau=0.3, r=3.0),
                 B.ShortfallSpec("CRES", p=0.2, tau=1.0),
                 B.ShortfallSpec("CRTES", p=0.9, tau=1.0, alpha=2.0 / 3.0)):
        closed = B.shortfall_bound(spec, STD).sup_value
        numeric = B.shortfall_bound(spec, STD, engine="numeric")
        engine_sup = STD.mu + STD.sigma * B.worst_case_bound(
            D.catalog_lookup(spec.family, spec.catalog_params()),
            moments=STD, engine="numeric").l2_term
        assert closed == pytest.approx(engine_sup, rel=1e-7)
        assert numeric.sup_value == engine_sup


_CUSTOM_BASE = D.catalog_lookup("CRE", {})


@pytest.mark.parametrize("kw, expected", [
    ({"family": "GS", "p": 0.9, "tau": 0.5}, {"p": 0.9, "tau": 0.5}),
    ({"family": "EGS", "p": 0.9, "tau": 0.5, "r": 3.0}, {"r": 3.0, "p": 0.9, "tau": 0.5}),
    ({"family": "EGS", "p": 0.9, "tau": 0.5}, ParamOutOfDomain),
    ({"family": "CRES", "p": 0.2, "tau": 1.0, "r": 3.0}, ParamOutOfDomain),
    ({"family": "CRTES", "p": 0.9, "tau": 1.0, "alpha": 2.0}, {"alpha": 2.0, "p": 0.9, "tau": 1.0}),
    ({"family": "CRTES", "p": 0.9, "tau": 1.0}, ParamOutOfDomain),
    ({"family": "ES", "p": 0.5, "tau": 0.3, "alpha": 2.0}, ParamOutOfDomain),
    ({"family": "custom", "p": 0.9, "tau": 0.5, "custom_g": _CUSTOM_BASE}, {}),
    ({"family": "custom", "p": 0.9, "tau": 0.5}, ParamOutOfDomain),
    ({"family": "CRE", "p": 0.9}, UnknownFamily),
    ({"family": "TGini", "p": 0.9}, UnknownFamily),
    ({"family": "nonsense", "p": 0.9}, UnknownFamily),
    # ES, the tau = 0 shortfall, takes tau = 0 and nothing else
    ({"family": "ES", "p": 0.5, "tau": 0.0}, {"p": 0.5}),
    ({"family": "ES", "p": 0.5, "r": 3.0}, ParamOutOfDomain),
    ({"family": "GS", "p": 0.9, "tau": 0.5, "custom_g": _CUSTOM_BASE}, ParamOutOfDomain),
    ({"family": "custom", "p": 0.9, "tau": 0.5, "alpha": 2.0, "custom_g": _CUSTOM_BASE},
     ParamOutOfDomain),
])
def test_shortfall_catalog_params(kw, expected):
    spec = B.ShortfallSpec(**kw)
    if isinstance(expected, dict):
        params = spec.catalog_params()
        assert params == expected and list(params) == list(expected)
    else:
        with pytest.raises(expected):
            spec.catalog_params()


@pytest.mark.parametrize("spec", [B.ShortfallSpec("ES", p=0.9, tau=0.5),
                                  B.ShortfallSpec("GS", p=0.9, tau=0.5, alpha=3.0)],
                         ids=["ES-tau", "GS-alpha"])
def test_a_shortfall_field_its_row_does_not_take_is_refused(spec):
    # the ES value 3.0 and the GS value 3.5119 came back with the field dropped
    with pytest.raises(ParamOutOfDomain):
        B.shortfall_value(spec, STD)
    with pytest.raises(ParamOutOfDomain):
        B.shortfall_bound(spec, STD)


_GINI_ROWS = sorted(REFERENCE_GINI_L) + ["TNGini", "DGini"]


@pytest.mark.parametrize("family, params",
                         [(f, P) for f, P in SWEEP if f in _GINI_ROWS])
def test_gini_rows_match_their_own_closed_forms(family, params):
    # every Gini row is a scaled Tsallis row; its closed form must agree with
    # the one derived for the family itself.  TNGini and DGini, at unit
    # scale, are TCRTE and DCT at order 2
    L = B.closed_form_factor(family, params)[1]
    if family == "TNGini":
        expected = B.closed_form_factor("TCRTE", {"alpha": 2.0, "p": params["p"]})[1]
    elif family == "DGini":
        expected = B.closed_form_factor("DCT", {"alpha": 2.0, "F_t": params["F_t"]})[1]
    else:
        expected = REFERENCE_GINI_L[family](params)
    assert abs(L - expected) <= 1e-14 * expected, (family, params, L, expected)


def test_shortfall_custom_base():
    base = D.catalog_lookup("CRE", {})
    custom = D.custom_distortion(base.g, g_prime=base.g_prime)
    spec = B.ShortfallSpec("custom", p=0.9, tau=0.5, custom_g=custom)
    res = B.shortfall_bound(spec, STD)
    assert res.sup_value == pytest.approx(math.sqrt(11.5), rel=1e-7)


def test_crtes_limit_to_cres():
    lim = B.closed_form_sup("CRTES", {"alpha": 1.0 + 1e-6, "p": 0.9, "tau": 0.5}, STD)
    target = B.closed_form_sup("CRES", {"p": 0.9, "tau": 0.5}, STD)
    assert abs(lim - target) <= 1e-4


def test_shortfall_monotone_in_p():
    for spec_kw in ({"family": "GS", "tau": 0.5},
                    {"family": "CRES", "tau": 0.5},
                    {"family": "CRTES", "tau": 0.5, "alpha": 3.0},
                    {"family": "EGS", "tau": 0.5, "r": 3.0}):
        vals = [B.shortfall_bound(B.ShortfallSpec(p=p, **spec_kw), STD).sup_value
                for p in np.arange(0.90, 1.00, 0.01)]
        assert np.all(np.diff(vals) > 0)


def test_translation_and_scale_equivariance():
    g = D.catalog_lookup("TCRE", {"p": 0.5})
    base = B.worst_case_bound(g, moments=STD)
    for a in (-1.0, 1.0):
        shifted = B.worst_case_bound(g, moments=B.MomentInfo(a, 1.0))
        assert shifted.sup_value == pytest.approx(
            base.sup_value + a * base.center, rel=1e-10, abs=1e-10)
    for c in (0.5, 2.0):
        scaled = B.worst_case_bound(g, moments=B.MomentInfo(0.0, c))
        assert scaled.sup_value == pytest.approx(c * base.sup_value, rel=1e-10)
    es = D.catalog_lookup("ES", {"p": 0.9})
    base = B.worst_case_bound(es, moments=STD)
    shifted = B.worst_case_bound(es, moments=B.MomentInfo(2.0, 1.0))
    assert shifted.sup_value == pytest.approx(base.sup_value + 2.0, rel=1e-10)


def test_center_slope_residual_vanishes():
    from riskbound.envelope import convex_envelope_analytic

    for family, params in (("CRE", {}), ("TCRE", {"p": 0.9}),
                           ("GS", {"p": 0.9, "tau": 0.5}), ("ES", {"p": 0.5})):
        tg = D.default_transform(D.catalog_lookup(family, params))
        env = convex_envelope_analytic(tg)
        total = 0.0
        knots = env.knots.tolist()
        for lo, hi, slope in zip(knots[:-1], knots[1:], env.slopes.tolist()):
            if not math.isnan(slope):
                total += slope * (hi - lo)
                continue
            # the branch's points are read through the transform's form at
            # the end it reaches
            inner = ((lambda u: tg.slope_upper(1.0 - np.asarray(u, dtype=float)))
                     if hi == 1.0 else tg.slope_lower)
            total += reference_integrate_segment(
                lambda u, f=inner: np.asarray(f(u), dtype=float), lo, hi,
                fn_lo=tg.slope_lower, fn_hi=tg.slope_upper)
        assert total - tg.center == pytest.approx(0.0, abs=1e-8)


def test_weighted_bounds():
    wm = B.MomentInfo(0.0, 1.0, weighted=True)
    res = B.worst_case_weighted(D.catalog_lookup("WCRE", {}), D.linear_weight(), wm)
    assert res.sup_value == pytest.approx(1.0, rel=1e-12)
    # weighted Gini: sigma_Psi = sqrt(Var(X^2))/2 = sqrt(3) gives sup 1
    res = B.worst_case_weighted(D.catalog_lookup("WGini", {}), D.linear_weight(),
                                B.MomentInfo(0.0, math.sqrt(3.0), weighted=True))
    assert res.sup_value == pytest.approx(1.0, rel=1e-12)
    res = B.worst_case_weighted(D.catalog_lookup("WCT", {"alpha": 2.0}),
                                D.linear_weight(),
                                B.MomentInfo(0.0, math.sqrt(3.0), weighted=True))
    assert res.sup_value == pytest.approx(1.0, rel=1e-12)


def test_unit_weight_reduces_to_plain_entropy():
    g = D.catalog_lookup("CRE", {})
    plain = B.worst_case_bound(g, moments=STD)
    weighted = B.worst_case_weighted(g, D.unit_weight(),
                                     B.MomentInfo(0.0, 1.0, weighted=True))
    assert weighted.sup_value == pytest.approx(plain.sup_value, rel=1e-14)
    us = np.linspace(0.05, 0.95, 19)
    assert np.allclose(weighted.quantile.fn(us), plain.quantile.fn(us), rtol=1e-12)


def test_weighted_quantile_recovery():
    wm = B.MomentInfo(10.0, 1.0, weighted=True)
    res = B.worst_case_weighted(D.catalog_lookup("WCRE", {}), D.linear_weight(), wm)
    us = np.linspace(0.01, 0.99, 21)
    wq = res.weighted_quantile.fn(us)
    q = res.quantile.fn(us)
    assert np.all(np.diff(q) > 0)
    assert np.allclose(0.5 * q * q, wq, rtol=1e-12)
    # moments of the weighted quantile are the Psi moments
    mean, var = O.quantile_moments(res.weighted_quantile)
    assert mean == pytest.approx(10.0, abs=1e-8)
    assert var == pytest.approx(1.0, rel=1e-8)


def test_weighted_requires_flag_and_inverse():
    g = D.catalog_lookup("WGCRE", {})
    with pytest.raises(ModeContractViolation):
        B.worst_case_weighted(g, None, STD)
    res = B.worst_case_weighted(g, None, B.MomentInfo(0.0, 1.0, weighted=True))
    # the bound is not degenerate; the weight has no inverse
    assert res.quantile is None and not res.degenerate
    with pytest.raises(NonInvertibleWeight, match="weight"):
        B.worst_case_quantile(res, 0.5)
    with pytest.raises(NonInvertibleWeight, match="weight"):
        res.quantile_grid(101)


def test_worst_case_quantile_domain():
    res = B.worst_case_bound(D.catalog_lookup("CRE", {}), moments=STD)
    with pytest.raises(DomainError):
        B.worst_case_quantile(res, 1.0)
    with pytest.raises(DomainError):
        B.worst_case_quantile(res, -0.2)


def test_quantile_tails_inside_their_branch_read_no_envelope_slope(monkeypatch):
    calls = []
    real = E.PiecewiseEnvelope.slope

    def counting(self, u):
        calls.append(np.size(u))
        return real(self, u)

    # CRE's envelope is one analytic branch over [0, 1], so every t in (0, 1)
    # lies inside both tails' branches
    res = B.worst_case_bound(D.catalog_lookup("CRE", {}), moments=STD)
    ts = np.geomspace(0.5, 1e-40, 200)
    monkeypatch.setattr(E.PiecewiseEnvelope, "slope", counting)
    up = res.quantile.upper_tail(ts)
    lo = res.quantile.lower_tail(ts)
    assert calls == []
    assert np.allclose(up, -(np.log(ts) + 1.0), rtol=1e-12, atol=0.0)
    assert np.allclose(lo, -(np.log1p(-ts) + 1.0), rtol=1e-12, atol=0.0)
    # FGRE's branch starts at its contact point: only t beyond it reads the
    # envelope, and there the tail is Q(1 - t)
    res = B.worst_case_bound(D.catalog_lookup("FGRE", {"alpha": 3.0}), moments=STD)
    hi_len = 1.0 - res.envelope.knots[1]
    ts = np.array([0.5, 2.0 * hi_len, 0.5 * hi_len, 1e-30])
    calls.clear()
    up = res.quantile.upper_tail(ts)
    assert calls == [2]
    assert np.array_equal(up[:2], res.quantile.fn(1.0 - ts[:2]))
    assert np.all(np.diff(up) >= 0.0) and up[-1] > up[1]


def test_bound_result_invariant_and_record():
    g = D.catalog_lookup("GS", {"p": 0.9, "tau": 0.5})
    res = B.worst_case_bound(g, moments=B.MomentInfo(0.3, 1.7))
    assert res.sup_value == pytest.approx(
        0.3 * res.center + 1.7 * res.l2_term, rel=1e-12)
    rec = res.record()
    assert rec["family"] == "GS"
    assert rec["mode"] == "shortfall"
    assert isinstance(rec["params"], str) and "p=0.9" in rec["params"]
    us, qs = res.quantile_grid(n=101)
    assert len(us) == len(qs) >= 90
    assert us[0] == pytest.approx(1e-9) and us[-1] == pytest.approx(1.0 - 1e-9)
    assert np.all(np.diff(qs) >= -1e-12)


def _grid_results():
    # (result, whether its envelope has a knot strictly inside the grid):
    # an analytic envelope with an interior contact knot, a numeric
    # envelope, a weighted result, ES p = 0.5, whose knot is a skeleton point
    # (the end of the geometric run), and TCRE p = 1 - 1e-10, whose only
    # interior knot lies within 1e-9 of 1
    yield B.worst_case_bound(D.catalog_lookup("TCRE", {"p": 0.9}), moments=STD), True
    yield B.worst_case_bound(D.catalog_lookup("CT", {"alpha": 2.0}), moments=STD,
                             engine="numeric"), True
    yield B.worst_case_weighted(D.catalog_lookup("DWGCE", {"F_t": 0.5}),
                                D.linear_weight(), B.MomentInfo(0.0, 1.0, weighted=True)), True
    yield B.worst_case_bound(D.catalog_lookup("ES", {"p": 0.5}), moments=STD), True
    yield B.worst_case_bound(D.catalog_lookup("TCRE", {"p": 1.0 - 1e-10}), moments=STD), False


@pytest.mark.parametrize("n", [11, 101, 1001])
def test_quantile_grid_points_are_the_unique_union(n):
    for res, inside in _grid_results():
        knots = res.envelope.knots
        assert np.any((knots > 1e-9) & (knots < 1.0 - 1e-9)) == inside
        if res.family == "ES":
            assert 0.5 in knots and 0.5 in B._grid_skeleton(n)
        n_uniform = max(2, int(0.5 * n))
        ends = np.geomspace(1e-9, 0.5, max(8, (n - n_uniform) // 2))
        parts = [np.linspace(1e-9, 1.0 - 1e-9, n_uniform), ends, 1.0 - ends,
                 knots[(knots > 1e-9) & (knots < 1.0 - 1e-9)]]
        expected = np.unique(np.concatenate(parts))
        us, qs = res.quantile_grid(n)
        assert us.dtype == expected.dtype and us.shape == expected.shape
        assert us.tobytes() == expected.tobytes()
        assert qs.tobytes() == np.asarray(res.quantile.fn(expected), dtype=float).tobytes()


def test_quantile_grid_returns_a_fresh_array():
    res = B.worst_case_bound(D.catalog_lookup("CT", {"alpha": 2.0}), moments=STD)
    assert not np.any((res.envelope.knots > 1e-9) & (res.envelope.knots < 1.0 - 1e-9))
    first, _ = res.quantile_grid(101)
    before = first.copy()
    first[:] = 0.5
    again, _ = res.quantile_grid(101)
    assert again.tobytes() == before.tobytes()
    assert not np.shares_memory(first, again)
    again[0] = -1.0
    assert res.quantile_grid(101)[0][0] == before[0]


@pytest.mark.parametrize("alpha", [1.5, 3.0, 8.0, 20.0, 34.0])
def test_fgre_and_fge_closed_forms_agree(alpha):
    # the two tangency equations mirror each other, so the bounds are equal
    fgre = B.closed_form_sup("FGRE", {"alpha": alpha}, STD)
    fge = B.closed_form_sup("FGE", {"alpha": alpha}, STD)
    assert abs(fgre - fge) <= 1e-13 * fge


@pytest.mark.parametrize("n_grid", [4097, 8193, 16385])
@pytest.mark.parametrize("alpha", [8.0, 12.0])
@pytest.mark.parametrize("family", ["FGRE", "FGE"])
def test_fractional_entropies_numeric_on_larger_grids(family, alpha, n_grid):
    # at alpha = 12 the contact point lies within 1e-5 of an end, and the
    # refinement around it must not break the end cascade that the squared-
    # slope integral continues from; a larger grid may not come out lower
    params = {"alpha": alpha}
    closed = B.closed_form_sup(family, params, STD)
    res = B.worst_case_bound(D.catalog_lookup(family, params), moments=STD,
                             engine="numeric", n_grid=n_grid)
    assert res.engine == "numeric"
    assert abs(res.sup_value - closed) <= 1e-6 * closed


def _value_or_error(fn):
    try:
        value = fn()
    except RiskboundError:
        return None
    assert math.isfinite(value)
    return value


@pytest.mark.parametrize("alpha", [34.0, 36.0, 40.0, 60.0, 200.0])
def test_fractional_entropies_at_large_alpha(alpha):
    """Each route gives a finite bound or a typed error, never a bare one."""
    params = {"alpha": alpha}
    closed = {fam: _value_or_error(lambda: B.closed_form_sup(fam, params, STD))
              for fam in ("FGRE", "FGE")}
    engine = {fam: _value_or_error(
        lambda: B.worst_case_bound(D.catalog_lookup(fam, params), moments=STD).sup_value)
        for fam in ("FGRE", "FGE")}
    assert (closed["FGRE"] is None) == (closed["FGE"] is None)
    if closed["FGE"] is not None:
        assert closed["FGRE"] == pytest.approx(closed["FGE"], rel=1e-13)
    for fam, value in engine.items():
        if value is not None:
            assert closed[fam] is not None
            assert value == pytest.approx(closed[fam], rel=1e-6)


def test_closed_form_rejects_stray_parameters():
    with pytest.raises(ParamOutOfDomain, match=r"unexpected parameter\(s\) \['alpha'\]"):
        B.closed_form_sup("CRE", {"alpha": 2.0}, STD)
    with pytest.raises(ParamOutOfDomain, match="unexpected"):
        B.premium_factor("Gini", {"p": 0.5})


def test_an_underflowing_shortfall_scale_is_a_typed_error():
    # 2(r - 1)(1 - p)^(r - 2) is 8e-396 here, so 1/scale has no double
    params = {"r": 400.0, "p": 0.9, "tau": 0.0}
    with pytest.raises(ParamOutOfDomain, match="underflows"):
        D.catalog_lookup("EGS", params)
    with pytest.raises(ParamOutOfDomain, match="underflows"):
        B.closed_form_sup("EGS", params, STD)


ORDER_TWO_MIRROR_READS = [
    ("GiniSemidiff", {}, "past", {"F_t": 0.6}),
    ("Gini", {}, "past", {"F_t": 0.6}),
    ("CRT", {"alpha": 2.0}, "past", {"F_t": 0.6}),
    ("DGini", {"F_t": 0.5}, "residual", {"F_t": 0.3}),
]


@pytest.mark.parametrize("family, params, mode, extras", ORDER_TWO_MIRROR_READS)
def test_order_two_tsallis_rows_take_their_mirror_recipe(family, params, mode, extras):
    # u(1 - u) is its own mirror, so an order-2 Tsallis row has an analytic
    # envelope in the mirrored mode too; it must match the numeric hull
    g = D.catalog_lookup(family, params)
    res = B.worst_case_bound(g, mode, extras, STD)
    assert res.engine == "analytic"
    numeric = B.worst_case_bound(g, mode, extras, STD, engine="numeric")
    assert res.sup_value == pytest.approx(numeric.sup_value, rel=1e-9)


@pytest.mark.parametrize("family, params, mode, extras", [
    ("CRT", {"alpha": 0.7}, "residual", {"F_t": 0.4}),
    ("CRT", {"alpha": 3.0}, "residual", {"F_t": 0.4}),
    ("CRE", {}, "residual", {"F_t": 0.25}),
    ("CE", {}, "past", {"F_t": 0.25}),
    ("CT", {"alpha": 1.5}, "past", {"F_t": 0.25}),
    ("CRT", {"alpha": 3.0}, "riskmetric", {}),
    ("CRE", {}, "riskmetric", {}),
    ("FGRE", {"alpha": 0.8}, "riskmetric", {}),
    ("FGRE", {"alpha": 3.0}, "entropy", {}),
    ("FGE", {"alpha": 3.0}, "entropy", {}),
    ("TCRE", {"p": 0.9}, "residual", {"F_t": 0.5}),
    ("CRT", {"alpha": 3.0}, "shortfall", {"p": 0.9, "tau": 0.5}),
    ("CRE", {}, "shortfall", {"p": 0.9, "tau": 0.5}),
    ("CT", {"alpha": 3.0}, "shortfall", {"p": 0.9, "tau": 0.5}),
    ("GS", {"p": 0.9, "tau": 0.5}, "residual", {"F_t": 0.4}),
    *ORDER_TWO_MIRROR_READS,
], ids=str)
def test_reads_under_other_modes_take_the_table(monkeypatch, family, params, mode, extras):
    # an analytic envelope's L is its read's closed form in any mode; the
    # reference quadrature of the same envelope is its independent check
    g = D.catalog_lookup(family, params)
    with monkeypatch.context() as m:
        m.setattr(B, "slope_l2_norm", None)
        res = B.worst_case_bound(g, mode, extras, STD)
    assert res.engine == "analytic"
    env, center = res.envelope, res.center
    assert res.l2_term == pytest.approx(reference_slope_l2_norm(env, center), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("engine", ["auto", "numeric"])
@pytest.mark.parametrize("family, params, mode, extras", [
    ("CRT", {"alpha": 0.45}, "riskmetric", {}),
    ("CT", {"alpha": 0.4}, "past", {"F_t": 0.5}),
    ("CRT", {"alpha": 0.45}, "residual", {"F_t": 0.5}),
], ids=str)
def test_a_diverging_supremum_is_refused_under_every_mode(family, params, mode, extras, engine):
    # the numeric hull of a diverging read is finite at any grid, so the
    # parameters are checked whatever the mode, extras or engine
    g = D.catalog_lookup(family, params)
    with pytest.raises(ParamOutOfDomain, match="alpha > 1/2"):
        B.worst_case_bound(g, mode, extras, STD, engine=engine)


def test_a_shortfall_whose_slope_at_p_is_minus_infinity_has_no_analytic_form():
    # below order 1, the CT kernel's slope at 1 is -inf (the Tsallis kernel's
    # at 0 is +inf), so the shortfall window falls from its inner edge and
    # its envelope is not the ES chord plus the window
    g = D.catalog_lookup("CT", {"alpha": 0.6})
    extras = {"p": 0.7, "tau": 0.5}
    with pytest.raises(NoAnalyticForm, match="convexity range"):
        B.worst_case_bound(g, "shortfall", extras, STD, engine="analytic")
    res = B.worst_case_bound(g, "shortfall", extras, STD)
    assert res.engine == "numeric"
    table = D._L_at("shortfall", "CT", 0.6, 0.7, 1.0, 0.5)
    assert res.l2_term < 0.8 * table


@pytest.mark.parametrize("name", ["CT", "Gini"])
def test_custom_named_like_a_family_stays_custom(name):
    # no catalog sup check and no catalog tail class for a user distortion
    g = D.custom_distortion(lambda u: u * (1.0 - u), name=name)
    res = B.worst_case_bound(g, moments=STD)
    assert res.sup_value == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-6)
    assert res.quantile.tail_class == "log-divergent"


@pytest.mark.parametrize("family, params", [
    ("DCE", {"F_t": 1.0}), ("DCT", {"alpha": 0.7, "F_t": 1.0}),
    ("DCT", {"alpha": 3.0, "F_t": 1.0}), ("DGini", {"F_t": 1.0}),
    ("DWCE", {"F_t": 1.0}), ("DWGCE", {"F_t": 1.0})])
def test_closed_form_at_an_untruncated_past_level(family, params):
    # F_t = 1 truncates nothing, so the bound is the base family's
    g = D.catalog_lookup(family, params)
    if g.weighted:
        engine = B.worst_case_weighted(g, D.linear_weight(),
                                       B.MomentInfo(0.0, 1.0, weighted=True))
    else:
        engine = B.worst_case_bound(g, moments=STD)
    closed = B.closed_form_sup(family, params, STD)
    assert abs(closed - engine.sup_value) <= 1e-10


@pytest.mark.parametrize("family,params", [
    ("DCRT", {"alpha": 180.0, "F_t": 0.9}), ("TNEGini", {"r": 180.0, "p": 0.9}),
    ("TEGini", {"r": 180.0, "p": 0.9})])
def test_closed_form_at_a_large_residual_order(family, params):
    # t**(2a-1) and q**(2a-2) both underflow here; their ratio does not
    engine = B.worst_case_bound(D.catalog_lookup(family, params), moments=STD).sup_value
    closed = B.closed_form_sup(family, params, STD)
    assert engine > 0.0
    assert abs(closed - engine) <= 1e-10 * engine


@pytest.mark.parametrize("family, params", [
    ("CT", {"alpha": 0.51}), ("CRT", {"alpha": 0.51}), ("FGE", {"alpha": 45.0}),
    ("FGRE", {"alpha": 37.0}), ("TCRTE", {"alpha": 3.0, "p": 1.0 - 1e-10})], ids=str)
def test_catalog_bound_takes_its_value_from_the_table(family, params):
    # the squared-slope quadrature loses these values (a power tail below its
    # floor, a contact next to an end); the table's closed form does not
    res = B.worst_case_bound(D.catalog_lookup(family, params), moments=STD)
    closed = B.closed_form_sup(family, params, STD)
    assert abs(res.sup_value - closed) <= 1e-12 * closed
    assert res.engine == "analytic"
    us, qs = res.quantile_grid(1001)
    assert np.all(np.isfinite(qs))
    assert np.all(np.diff(qs) >= 0.0)


@pytest.mark.parametrize("family, params", [
    ("DCRT", {"alpha": 2.0 / 3.0, "F_t": 0.5}), ("TCRE", {"p": 0.5}),
    ("FGRE", {"alpha": 3.0})])
def test_one_contact_solve_per_bound(monkeypatch, family, params):
    # the envelope solves the contact point, and the value reads it there
    calls = []
    real = _num.bisect_root

    def counted(*args, **kw):
        calls.append(args[1:])
        return real(*args, **kw)

    monkeypatch.setattr(_num, "bisect_root", counted)
    B.worst_case_bound(D.catalog_lookup(family, params), moments=STD)
    assert len(calls) == 1, calls  # the brackets of each solve


def _breakpoint(family, params):
    tg = D.default_transform(D.catalog_lookup(family, params))
    return E.convex_envelope_analytic(tg).meta["breakpoint"]


@pytest.mark.parametrize("F", [0.125, 0.25, 0.5, 0.75])
@pytest.mark.parametrize("past, residual, order", [
    *(("DCT", "TCRTE", a) for a in (0.7, 1.5, 3.0, 8.0)),
    ("DCE", "TCRE", None), ("DGini", "TNGini", None)])
def test_past_tails_are_mirrored_residual_tails(past, residual, order, F):
    # the past window [0, F] is the residual window [1 - F, 1] read from the
    # other end, and 1 - F is exact at these levels: the contact lies at the
    # same distance t from each window's far end, and L is the same
    shape = {} if order is None else {"alpha": order}
    L_past = B.closed_form_sup(past, {**shape, "F_t": F}, STD)
    L_residual = B.closed_form_sup(residual, {**shape, "p": 1.0 - F}, STD)
    assert abs(L_past - L_residual) <= 2e-15 * L_residual
    t = _breakpoint(past, {**shape, "F_t": F})
    assert abs(t - (1.0 - _breakpoint(residual, {**shape, "p": 1.0 - F}))) <= 2e-15


@pytest.mark.parametrize("family, params", [
    (f, p) for f, p in SWEEP if D.family_spec(f).mode == "residual"], ids=str)
def test_residual_closed_forms_match_their_forms_in_u(family, params):
    spec = D.family_spec(family)
    F = params.get("F_t", params.get("p"))
    if spec.base == "CRE":
        ref = reference_L_tcre(F)
    else:
        ref = reference_L_tcrt(params.get("alpha", params.get("r", 2.0)), F)
    closed = B.closed_form_sup(family, params, STD)
    assert abs(closed - spec.scale(params) * ref) <= 1e-14 * closed


@pytest.mark.parametrize("family, params, L", [
    *(("DCRT", {"alpha": a, "F_t": 0.0}, 1.0 / math.sqrt(2.0 * a - 1.0))
      for a in (0.6, 0.7, 1.5, 2.0, 3.0, 8.0)),
    ("DWCRE", {"F_t": 0.0}, 1.0), ("DWGCRE", {"F_t": 0.0}, 1.0)])
def test_closed_form_at_an_untruncated_residual_level(family, params, L):
    # F_t = 0 truncates nothing, so the bound is the untruncated family's
    assert B.closed_form_sup(family, params, STD) == pytest.approx(L, rel=1e-15)
    g = D.catalog_lookup(family, params)
    if g.weighted:
        engine = B.worst_case_weighted(g, D.linear_weight(),
                                       B.MomentInfo(0.0, 1.0, weighted=True))
    else:
        engine = B.worst_case_bound(g, moments=STD)
    assert abs(engine.sup_value - L) <= 1e-10


# sharp bounds at (mu, sigma) = (0, 1) next to an end of the level, from
# 60-digit references
EDGE_VALUES = [
    ("TCRTE", {"alpha": 3.0, "p": 1.0 - 1e-13}, 877246.29814508630),
    ("TCRTE", {"alpha": 3.0, "p": 1.0 - 1e-14}, 2775637.1078765384),
    ("TNEGini", {"r": 3.0, "p": 1.0 - 1e-13}, 3508985.1925803452),
    ("TEGini", {"r": 3.0, "p": 1.0 - 1e-13}, 3.5100762946381659e-7),
    ("TNGini", {"p": 1.0 - 1e-13}, 1290793.7812767421),
    ("TCRE", {"p": 1.0 - 1e-13}, 2712065.9519554178),
    ("DGini", {"F_t": 1e-13}, 1290994.4487358298),
]


@pytest.mark.parametrize("family, params, value", EDGE_VALUES, ids=str)
def test_closed_forms_next_to_an_end_of_the_level(family, params, value):
    assert abs(B.closed_form_sup(family, params, STD) - value) <= 1e-12 * value
    # the engine reads L from the same closed form, or refuses a residual
    # branch that starts too close to u = 1 for its certificate
    try:
        engine = B.worst_case_bound(D.catalog_lookup(family, params), moments=STD)
    except ParamOutOfDomain:
        return
    assert abs(engine.sup_value - value) <= 1e-12 * value


@pytest.mark.parametrize("family, params", [
    ("TCRE", {"p": 1.0 - 1e-13}),
    ("TCRTE", {"alpha": 3.0, "p": 1.0 - 1e-12}),
    ("DGini", {"F_t": 1e-13}),
    ("DCT", {"alpha": 3.0, "F_t": 1e-13}),
], ids=str)
def test_a_window_the_numeric_grid_cannot_sample_is_a_typed_error(family, params):
    # the window lies within GRID_FLOOR of an end, so the grid samples almost
    # nothing of it and its L would read as a degenerate 0; the closed forms
    # are about 1e6
    assert B.closed_form_sup(family, params, STD) > 1e5
    with pytest.raises(NonConvergent):
        B.worst_case_bound(D.catalog_lookup(family, params), moments=STD, engine="numeric")


def test_a_narrow_kink_pair_keeps_a_finite_numeric_bound():
    # a segment 1e-10 wide between two kinks, on a map with real curvature
    # elsewhere: L is not degenerate, so the narrow segment is no error
    def raw(u):
        u = np.asarray(u, dtype=float)
        return u * u + 0.3 * np.clip(u - 0.4, 0.0, 1e-10)

    tg = D.custom_transform(raw, kinks=(0.4, 0.4 + 1e-10))
    res = B.worst_case_bound(tg.source, "riskmetric", {}, STD, engine="numeric")
    # the slope of u^2 is 2u about its center 1: L^2 = 1/3
    assert not res.degenerate
    assert res.l2_term == pytest.approx(math.sqrt(1.0 / 3.0), rel=1e-9)

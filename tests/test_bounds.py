import math

import numpy as np
import pytest

from riskbound import bounds as B
from riskbound import distortion as D
from riskbound import oracle as O
from riskbound.errors import (
    DegenerateResult,
    DomainError,
    ModeContractViolation,
    NonInvertibleWeight,
    ParamOutOfDomain,
    RiskboundError,
)

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
        assert numeric.sup_value == pytest.approx(closed, rel=1e-12)


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
    from riskbound._num import integrate_segment

    for family, params in (("CRE", {}), ("TCRE", {"p": 0.9}),
                           ("GS", {"p": 0.9, "tau": 0.5}), ("ES", {"p": 0.5})):
        tg = D.default_transform(D.catalog_lookup(family, params))
        env = convex_envelope_analytic(tg)
        total = 0.0
        for seg in env.segments:
            if seg.kind == "chord":
                total += seg.slope * (seg.hi - seg.lo)
            else:
                total += integrate_segment(
                    lambda u, s=seg: np.asarray(s.slope_fn(u), dtype=float),
                    seg.lo, seg.hi,
                    fn_lo=seg.slope_lo, fn_hi=seg.slope_hi)
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
    assert res.quantile is None
    with pytest.raises(NonInvertibleWeight):
        B.worst_case_quantile(res, 0.5)


def test_worst_case_quantile_domain():
    res = B.worst_case_bound(D.catalog_lookup("CRE", {}), moments=STD)
    with pytest.raises(DomainError):
        B.worst_case_quantile(res, 1.0)
    with pytest.raises(DomainError):
        B.worst_case_quantile(res, -0.2)


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


@pytest.mark.parametrize("alpha", [1.5, 3.0, 8.0, 20.0, 34.0])
def test_fgre_and_fge_closed_forms_agree(alpha):
    # the two tangency equations mirror each other, so the bounds are equal
    fgre = B.closed_form_sup("FGRE", {"alpha": alpha}, STD)
    fge = B.closed_form_sup("FGE", {"alpha": alpha}, STD)
    assert abs(fgre - fge) <= 1e-13 * fge


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

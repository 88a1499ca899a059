import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from riskbound import bounds as B
from riskbound import distortion as D
from riskbound import envelope as E
from riskbound.errors import (
    BadTruncationPoint,
    DomainError,
    ModeContractViolation,
    ParamOutOfDomain,
    UnknownFamily,
)

from conftest import SWEEP


@pytest.mark.parametrize("generalized, plain", [("WGCRE", "WCRE"), ("WGCE", "WCE"),
                                                 ("DWGCRE", "DWCRE"), ("DWGCE", "DWCE")])
def test_weighted_aliases_share_one_row(generalized, plain):
    a, b = D.family_spec(generalized), D.family_spec(plain)
    assert a.name != b.name and a.description != b.description
    assert dataclasses.replace(a, name=b.name, description=b.description) == b


def test_family_names_alphabetical():
    names = D.family_names()
    assert names == sorted(names)
    for expected in ("CT", "CRT", "GiniSemidiff", "EGini", "FGRE", "CRE", "FGE",
                     "CE", "TCRE", "TGini", "DCT", "DCE", "ES", "GS", "EGS",
                     "CRES", "CRTES", "WCRE", "DWGCE"):
        assert expected in names


@pytest.mark.parametrize("family,params", SWEEP, ids=str)
def test_catalog_g_basics(family, params):
    g = D.catalog_lookup(family, params)
    assert g.g(0.0) == 0.0
    assert abs(g.g(1.0) - g.g1) <= 1e-12
    rng = np.random.default_rng(20240808)
    us = rng.uniform(0.0, 1.0, size=1000)
    vals = g.g(us)
    assert np.all(np.isfinite(vals))


@pytest.mark.parametrize("family,params", SWEEP, ids=str)
def test_catalog_derivative_matches_finite_difference(family, params):
    g = D.catalog_lookup(family, params)
    if g.g_prime is None:
        pytest.skip("no analytic derivative")
    us = np.linspace(0.01, 0.99, 41)
    us = us[np.all(np.abs(us[:, None] - np.asarray(g.kinks or (2.0,))[None, :]) > 1e-3,
                   axis=1)]
    h = 1e-7
    fd = (g.g(us + h) - g.g(us - h)) / (2.0 * h)
    an = g.g_prime(us)
    assert np.allclose(fd, an, rtol=1e-6, atol=1e-6)


def test_catalog_point_values():
    gini = D.catalog_lookup("GiniSemidiff", {})
    assert gini.g(0.5) == pytest.approx(0.25, abs=1e-15)
    cre = D.catalog_lookup("CRE", {})
    assert cre.g(1.0) == 0.0
    es = D.catalog_lookup("ES", {"p": 0.75})
    assert es.g1 == 1.0
    assert es.g(0.25) == pytest.approx(1.0)


def test_catalog_domain_errors():
    with pytest.raises(ParamOutOfDomain):
        D.catalog_lookup("EGini", {"r": 1.0})
    with pytest.raises(ParamOutOfDomain):
        D.catalog_lookup("CT", {"alpha": 1.0})
    with pytest.raises(ParamOutOfDomain):
        D.catalog_lookup("CRT", {"alpha": -2.0})
    with pytest.raises(ParamOutOfDomain):
        D.catalog_lookup("GS", {"p": 0.9, "tau": 0.8})
    with pytest.raises(ParamOutOfDomain):
        D.catalog_lookup("ES", {"p": 1.2})
    with pytest.raises(ParamOutOfDomain):
        D.catalog_lookup("CT", {})
    with pytest.raises(ParamOutOfDomain):
        D.catalog_lookup("CRE", {"alpha": 2.0})
    with pytest.raises(UnknownFamily):
        D.catalog_lookup("NotAFamily", {})


def test_sup_admissibility():
    with pytest.raises(ParamOutOfDomain):
        D.sup_admissible("CT", {"alpha": 0.4})
    D.sup_admissible("CT", {"alpha": 0.6})



@pytest.mark.parametrize("family", ["GCRE", "GCE"])
@pytest.mark.parametrize("n", [math.nan, math.inf, -math.inf, 2.5, 0.0])
def test_integer_order_rejects_non_integers(family, n):
    with pytest.raises(ParamOutOfDomain, match="n must be a positive integer"):
        D.catalog_lookup(family, {"n": n})


# dyadic t in (0, 1), where 1 - t is exact: the grid of step 2^-10 and the
# powers 2^-k down to 2^-52 and their complements
_DYADIC = np.unique(np.concatenate([np.arange(1, 1024) / 1024.0,
                                    2.0 ** -np.arange(11, 53),
                                    1.0 - 2.0 ** -np.arange(11, 53)]))


@pytest.mark.parametrize("family,params", SWEEP, ids=str)
def test_tail_forms_reflect_g_and_g_prime(family, params):
    g = D.catalog_lookup(family, params)
    u = 1.0 - _DYADIC
    far = np.min(np.abs(u[:, None] - np.asarray(g.kinks or (2.0,))[None, :]), axis=1) > 1e-9
    t, u = _DYADIC[far], u[far]
    np.testing.assert_allclose(g.g_hi(t), g.g(u), rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(g.gp_hi(t), g.g_prime(u), rtol=1e-13, atol=1e-13)

@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0))
def test_riskmetric_mode_roundtrip(u):
    es = D.catalog_lookup("ES", {"p": 0.8})
    tg = D.make_ghat(es, "riskmetric", {})
    assert float(tg.ghat(1.0 - u)) + float(es.g(u)) == pytest.approx(es.g1, abs=1e-12)


def test_ghat_mode_invariants():
    cre = D.catalog_lookup("CRE", {})
    for mode, extras in (("entropy", {}), ("residual", {"F_t": 0.3}),
                         ("shortfall", {"p": 0.5, "tau": 0.5})):
        tg = D.make_ghat(cre, mode, extras)
        assert float(tg.ghat(0.0)) == pytest.approx(0.0, abs=1e-15)
        assert float(tg.ghat(1.0)) == pytest.approx(tg.center, abs=1e-12)
    ce = D.catalog_lookup("CE", {})
    tg = D.make_ghat(ce, "past", {"F_t": 0.7})
    assert float(tg.ghat(0.0)) == pytest.approx(0.0, abs=1e-15)
    assert float(tg.ghat(1.0)) == pytest.approx(0.0, abs=1e-15)


def test_entropy_mode_rejects_nonzero_g1():
    es = D.catalog_lookup("ES", {"p": 0.8})
    with pytest.raises(ModeContractViolation):
        D.make_ghat(es, "entropy", {})


def test_residual_cre_formula():
    cre = D.catalog_lookup("CRE", {})
    tg = D.make_ghat(cre, "residual", {"F_t": 0.9})
    us = np.linspace(0.9, 1.0 - 1e-9, 50)
    v = (1.0 - us) / 0.1
    expected = v * np.log(v)
    assert np.allclose(tg.ghat(us), expected, atol=1e-12)
    assert np.all(tg.ghat(np.linspace(0.0, 0.9 - 1e-9, 20)) == 0.0)


def test_past_ce_formula():
    ce = D.catalog_lookup("CE", {})
    tg = D.make_ghat(ce, "past", {"F_t": 0.9})
    us = np.linspace(1e-9, 0.9, 50)
    w = us / 0.9
    expected = w * np.log(w)
    assert np.allclose(tg.ghat(us), expected, atol=1e-12)
    assert np.all(tg.ghat(np.linspace(0.90001, 1.0, 20)) == 0.0)


def test_residual_without_truncation_matches_entropy():
    fgre = D.catalog_lookup("FGRE", {"alpha": 2.0})
    te = D.make_ghat(fgre, "entropy", {})
    tr = D.make_ghat(fgre, "residual", {"F_t": 0.0})
    us = np.linspace(0.0, 1.0, 257)
    assert np.allclose(te.ghat(us), tr.ghat(us), atol=1e-14)


@pytest.mark.parametrize("p", [1e-13, 0.2, 0.7, 0.9, 1.0 - 1e-14])
def test_shortfall_zero_loading_matches_expected_shortfall_transform(p):
    # ES reads the shortfall window (u - p)/(1 - p) on [p, 1] with tau = 0:
    # the same transform, kink, envelope and bound as every tau = 0 shortfall
    us = np.concatenate([np.linspace(0.0, 1.0, 1001), [p]])
    ts = np.geomspace(1e-300, 0.5, 301)
    moments = B.MomentInfo(0.3, 1.7)
    es = D.make_ghat(D.catalog_lookup("ES", {"p": p}), "riskmetric", {})
    env = E.convex_envelope_analytic(es)
    sup = B.worst_case_bound(D.catalog_lookup("ES", {"p": p}), moments=moments).sup_value
    assert es.kinks == (p,) and env.knots.tolist() == [0.0, p, 1.0]
    for family in ("CRES", "GS"):
        g = D.catalog_lookup(family, {"p": p, "tau": 0.0})
        tg = D.make_ghat(g, "shortfall", {"p": p, "tau": 0.0})
        assert tg.kinks == (p,)
        assert np.array_equal(tg.ghat(us), es.ghat(us))
        assert tg.center == es.center
        assert np.array_equal(tg.ghat_upper_rel(ts), es.ghat_upper_rel(ts))
        assert np.array_equal(E.convex_envelope_analytic(tg).knots, env.knots)
        assert B.worst_case_bound(g, moments=moments).sup_value == sup


def test_truncation_point_validation():
    cre = D.catalog_lookup("CRE", {})
    with pytest.raises(BadTruncationPoint):
        D.make_ghat(cre, "residual", {"F_t": 1.0})
    with pytest.raises(BadTruncationPoint):
        D.make_ghat(cre, "past", {"F_t": 0.0})
    with pytest.raises(BadTruncationPoint):
        D.make_ghat(cre, "shortfall", {"tau": 0.5})


@pytest.mark.parametrize("family,params,mode,extras", [
    ("CRE", {}, "entropy", {}),
    ("CRE", {}, "residual", {"F_t": 0.4}),
    ("CE", {}, "past", {"F_t": 0.8}),
    ("CRT", {"alpha": 0.8}, "entropy", {}),
    ("GS", {"p": 0.6, "tau": 0.4}, "shortfall", {"p": 0.6, "tau": 0.4}),
    ("ES", {"p": 0.6}, "riskmetric", {}),
])
def test_tail_evaluators_agree_with_ghat(family, params, mode, extras):
    g = D.catalog_lookup(family, params)
    tg = D.make_ghat(g, mode, extras)
    ts = np.geomspace(1e-9, 0.35, 40)
    assert np.allclose(tg.ghat_upper_rel(ts) + tg.center, tg.ghat(1.0 - ts),
                       rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("past, entropy, params", [
    ("DCT", "CT", {"alpha": 3.0}), ("DCE", "CE", {}), ("DGini", "GiniSemidiff", {})])
def test_untruncated_past_tails_are_the_entropy_tails(past, entropy, params):
    # the past window [0, 1] ends at u = 1, so its tail is read as -g(t)
    tp = D.default_transform(D.catalog_lookup(past, {**params, "F_t": 1.0}))
    te = D.default_transform(D.catalog_lookup(entropy, params))
    ts = np.array([1e-30, 1e-17, 1e-12])
    assert tp.center == te.center
    assert tp.ghat_upper_rel(ts).tolist() == te.ghat_upper_rel(ts).tolist()
    assert np.all(tp.ghat_upper_rel(ts) + tp.center != 0.0)


@pytest.mark.parametrize("mode, extras, kinks", [
    ("riskmetric", {}, (0.5,)),
    ("residual", {"F_t": 0.5}, (0.5, 0.75)),
    ("past", {"F_t": 0.5}, (0.25, 0.5)),
    ("shortfall", {"p": 0.75, "tau": 0.5}, (0.75, 0.875)),
])
def test_kinks_of_g_map_into_the_window(mode, extras, kinks):
    # g(v) = min(v, 1 - v) has its kink at v = 1/2, which sits at s = 1/2 of
    # every window, next to the window's inner edge
    g = D.custom_distortion(lambda v: np.minimum(v, 1.0 - v), kinks=(0.5,))
    tg = D.make_ghat(g, mode, extras)
    assert tg.kinks == kinks
    for k in kinks:
        assert float(tg.ghat(k)) == pytest.approx(
            float(tg.ghat_upper_rel(1.0 - k)) + tg.center, abs=1e-15)


def test_eval_weight():
    unit = D.unit_weight()
    assert D.eval_weight(unit, 3.0) == (1.0, 3.0)
    lin = D.linear_weight()
    assert D.eval_weight(lin, 2.0) == (2.0, 2.0)
    assert D.eval_weight(lin, 0.0) == (0.0, 0.0)
    with pytest.raises(DomainError):
        D.eval_weight(lin, -1.0)


@pytest.mark.parametrize("weight", [D.unit_weight(), D.linear_weight()])
def test_weight_consistency(weight):
    rng = np.random.default_rng(5)
    xs = rng.uniform(0.5, 10.0, size=25)
    for x in xs:
        h = 1e-5 * max(1.0, abs(x))
        fd = (weight.Psi(x + h) - weight.Psi(x - h)) / (2.0 * h)
        assert fd == pytest.approx(float(weight.psi(x)), rel=1e-6)
        y = float(weight.Psi(x))
        assert float(weight.Psi_inverse(y)) == pytest.approx(x, rel=1e-9)


def test_custom_distortion_validation():
    with pytest.raises(DomainError):
        D.custom_distortion(lambda u: u + 1.0)
    g = D.custom_distortion(lambda u: u ** 2)
    assert g.g1 == pytest.approx(1.0)
    tg = D.custom_transform(lambda u: np.sqrt(u))
    assert tg.center == pytest.approx(1.0)
    assert float(tg.ghat(0.25)) == pytest.approx(0.5)


def test_shortfall_level_near_one_is_kept():
    # the shortfall window [p, 1] is read from its far end, so a level next
    # to 1 needs no cap, and the engine bound is the closed form's
    cre = D.catalog_lookup("CRE", {})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tg = D.make_ghat(cre, "shortfall", {"p": 1.0 - 1e-9, "tau": 0.0})
    assert tg.p == 1.0 - 1e-9
    params = {"p": 1.0 - 1e-7, "tau": 0.5}
    std = B.MomentInfo(0.0, 1.0)
    closed = B.closed_form_sup("GS", params, std)
    assert closed == pytest.approx(3651.4835807, rel=1e-10)
    sup = B.worst_case_bound(D.catalog_lookup("GS", params), moments=std).sup_value
    assert abs(sup - closed) <= 1e-9 * closed

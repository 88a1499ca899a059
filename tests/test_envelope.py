import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from riskbound import distortion as D
from riskbound import envelope as E
from riskbound._num import bisect_root, integrate_segment
from riskbound.errors import (
    NoAnalyticForm,
    NonFiniteValue,
    NoSignChange,
    ParamOutOfDomain,
    RiskboundError,
)

from conftest import random_piecewise_smooth

REPRESENTATIVE = [
    ("GiniSemidiff", {}),
    ("CRE", {}),
    ("CE", {}),
    ("CT", {"alpha": 0.6}),
    ("FGRE", {"alpha": 3.0}),
    ("FGE", {"alpha": 3.0}),
    ("TCRE", {"p": 0.9}),
    ("TCRTE", {"alpha": 3.0, "p": 0.5}),
    ("TGini", {"p": 0.81}),
    ("DCT", {"alpha": 2.0 / 3.0, "F_t": 0.2}),
    ("DCE", {"F_t": 0.9}),
    ("DGini", {"F_t": 0.19}),
    ("DCRT", {"alpha": 3.0, "F_t": 0.0}),   # residual mode truncating nothing
    ("DCT", {"alpha": 3.0, "F_t": 1.0}),    # past mode truncating nothing
    ("ES", {"p": 0.9}),
    ("GS", {"p": 0.9, "tau": 0.5}),
]


def _transform(family, params):
    return D.default_transform(D.catalog_lookup(family, params))


def test_convex_input_is_its_own_envelope():
    tg = D.custom_transform(lambda u: u ** 2)
    env = E.convex_envelope_numeric(tg)
    dev = np.abs(env.value(env.knots) - tg.ghat(env.knots))
    assert np.max(dev) == 0.0
    mids = np.linspace(0.0, 1.0, 2049)
    assert np.all(env.value(mids) <= tg.ghat(mids) + 1e-9)


def test_concave_input_gets_the_chord():
    tg = D.custom_transform(lambda u: np.sqrt(u))
    env = E.convex_envelope_numeric(tg)
    us = np.linspace(0.0, 1.0, 101)
    assert np.allclose(env.value(us), us, atol=1e-12)
    assert np.allclose(env.slope(np.linspace(0.01, 0.99, 13)), 1.0, atol=1e-10)


BREAKPOINT_CASES = [
    ("FGRE", {"alpha": 3.0}, 0.94048),
    ("FGE", {"alpha": 3.0}, 0.05952),
    ("TCRE", {"F_t": 0.9}, 0.96178),
    ("TCRTE", {"alpha": 3.0, "F_t": 0.5}, 0.67365),
    ("DCT", {"alpha": 2.0 / 3.0, "F_t": 0.2}, 0.06525),
    ("DCE", {"F_t": 0.9}, 0.60834),
    ("FGE", {"alpha": 40.0}, 0.0),          # contact far below 1e-15
    ("TCRTE", {"alpha": 2.0, "F_t": 0.81}, 0.9),
    ("DCT", {"alpha": 2.0, "F_t": 0.19}, 0.1),
]


@pytest.mark.parametrize("eq,params,expected", BREAKPOINT_CASES, ids=str)
def test_breakpoints_match_catalog_constants(eq, params, expected):
    root = E.solve_breakpoint(eq, params)
    assert root == pytest.approx(expected, abs=5e-5)


def test_breakpoint_residuals_are_tiny():
    residuals = {
        "FGRE": lambda u, p: p["alpha"] * u + math.log1p(-u),
        "FGE": lambda u, p: p["alpha"] * (1 - u) + math.log(u),
        "TCRE": lambda u, p: u + math.log((1 - u) / (1 - p["F_t"])),
        "TCRTE": lambda u, p: (1 - p["F_t"]) ** (p["alpha"] - 1)
        - (1 - u) ** (p["alpha"] - 1) * (1 + (p["alpha"] - 1) * u),
        "DCT": lambda u, p: p["F_t"] ** (p["alpha"] - 1)
        - u ** (p["alpha"] - 1) * (u + p["alpha"] * (1 - u)),
        "DCE": lambda u, p: u - 1 - math.log(u / p["F_t"]),
    }
    for eq, params, _ in BREAKPOINT_CASES:
        root = E.solve_breakpoint(eq, params)
        assert abs(residuals[eq](root, params)) <= 1e-12
    root = E.solve_breakpoint("TNEGini", {"r": 3.0, "p": 0.5})
    res = (1 - root) ** 3 + 3 * root * (1 - root) ** 2 - 0.25
    assert abs(res) <= 1e-12


@pytest.mark.parametrize("alpha", [1.1, 1.6, 3.0, 20.0, 34.0, 36.0])
def test_fgre_and_fge_breakpoints_mirror_exactly(alpha):
    fgre = E.convex_envelope_analytic(_transform("FGRE", {"alpha": alpha}))
    fge = E.convex_envelope_analytic(_transform("FGE", {"alpha": alpha}))
    assert fgre.meta["breakpoint"] + fge.meta["breakpoint"] == 1.0


def test_fgre_envelope_refuses_a_contact_that_rounds_to_one():
    # at alpha = 40 the FGRE contact 1 - 4.2e-18 is 1.0 in double precision;
    # the envelope must not collapse to the chord over [0, 1]
    assert 1.0 - E.solve_breakpoint("FGE", {"alpha": 40.0}) == 1.0
    with pytest.raises(RiskboundError):
        E.convex_envelope_analytic(_transform("FGRE", {"alpha": 40.0}))


def test_quadratic_tail_breakpoints_are_exact():
    env = E.convex_envelope_analytic(_transform("TNGini", {"p": 0.25}))
    assert env.meta["breakpoint"] == 0.5
    for p in (0.25, 0.81, 0.9):
        env = E.convex_envelope_analytic(_transform("TGini", {"p": p}))
        assert abs(env.meta["breakpoint"] - math.sqrt(p)) <= 1e-12
    env = E.convex_envelope_analytic(_transform("DGini", {"F_t": 0.19}))
    assert abs(env.meta["breakpoint"] - (1.0 - math.sqrt(0.81))) <= 1e-12


def test_tgini_envelope_is_linear_then_quadratic():
    tg = _transform("TGini", {"p": 0.81})
    env = E.convex_envelope_analytic(tg)
    assert env.segments[0].kind == "chord"
    assert env.segments[1].kind == "analytic"
    assert env.knots[1] == pytest.approx(0.9, abs=1e-12)
    # quadratic branch: slope is affine in u
    us = np.linspace(0.91, 0.99, 9)
    sl = env.slope(us)
    assert np.allclose(np.diff(sl, 2), 0.0, atol=1e-9)


@pytest.mark.parametrize("family,params", REPRESENTATIVE, ids=str)
def test_envelope_properties(family, params):
    tg = _transform(family, params)
    env = E.convex_envelope_numeric(tg)
    us = np.linspace(0.0, 1.0, 2049)
    # minorant and endpoint agreement
    assert np.all(env.value(us) <= tg.ghat(us) + 1e-9)
    assert abs(env.value(0.0) - float(tg.ghat(0.0))) <= 1e-10
    assert abs(env.value(1.0) - float(tg.ghat(1.0))) <= 1e-10
    # convexity of hull slopes
    slopes = np.array([s.slope for s in env.segments])
    assert np.all(np.diff(slopes) >= -1e-10 * np.maximum(1.0, np.abs(slopes[:-1])))
    # fundamental theorem: hull slopes integrate to the endpoint difference
    lens = np.diff(env.knots)
    assert float(np.dot(slopes, lens)) == pytest.approx(
        float(tg.ghat(1.0)) - float(tg.ghat(0.0)), abs=1e-8)


@pytest.mark.parametrize("family,params", REPRESENTATIVE, ids=str)
def test_analytic_and_numeric_l2_agree(family, params):
    tg = _transform(family, params)
    la = E.slope_l2_norm(E.convex_envelope_analytic(tg), tg.center)
    ln = E.slope_l2_norm(E.convex_envelope_numeric(tg), tg.center)
    assert ln == pytest.approx(la, rel=1e-6)


def test_envelope_idempotent():
    for family, params in (("TCRE", {"p": 0.9}), ("FGRE", {"alpha": 3.0}),
                           ("GiniSemidiff", {})):
        tg = _transform(family, params)
        env = E.convex_envelope_numeric(tg)
        pl = lambda u, e=env: np.interp(np.asarray(u, dtype=float), e.knots, e.values)
        tg2 = D.custom_transform(pl)
        env2 = E.convex_envelope_numeric(tg2, 1025, extra_points=env.knots)
        again = env2.value(env.knots)
        assert np.max(np.abs(again - env.values)) <= 1e-12


@settings(max_examples=12, deadline=None)
@given(st.floats(min_value=0.1, max_value=8.0), st.integers(min_value=0, max_value=10 ** 6))
def test_scaling_equivariance(c, seed):
    raw, kinks = random_piecewise_smooth(np.random.default_rng(seed))
    tg = D.custom_transform(raw, kinks=kinks)
    tgc = D.custom_transform(lambda u: c * np.asarray(raw(u)), kinks=kinks)
    env = E.convex_envelope_numeric(tg, 513)
    envc = E.convex_envelope_numeric(tgc, 513)
    us = np.linspace(0.0, 1.0, 257)
    scale = max(1.0, float(np.max(np.abs(env.value(us)))))
    assert np.allclose(envc.value(us), c * env.value(us), atol=1e-10 * c * scale)
    mid = np.linspace(0.01, 0.99, 97)
    sl = env.slope(mid)
    assert np.allclose(envc.slope(mid), c * sl,
                       atol=1e-10 * c * max(1.0, float(np.max(np.abs(sl)))))


def test_small_grid_rejected():
    tg = _transform("CRE", {})
    with pytest.raises(ParamOutOfDomain):
        E.convex_envelope_numeric(tg, 16)


def test_non_finite_ghat_rejected():
    def raw(u):
        u = np.asarray(u, dtype=float)
        with np.errstate(divide="ignore"):
            interior = np.where(u == 0.5, np.inf, u / np.abs(u - 0.5))
        return np.where((u == 0.0) | (u == 1.0), u, interior)

    tg = D.custom_transform(raw)
    with pytest.raises(NonFiniteValue):
        E.convex_envelope_numeric(tg)


def test_no_analytic_form_for_custom():
    raw, kinks = random_piecewise_smooth(np.random.default_rng(11))
    tg = D.custom_transform(raw, kinks=kinks)
    with pytest.raises(NoAnalyticForm):
        E.convex_envelope_analytic(tg)


def test_bisect_root_requires_sign_change():
    with pytest.raises(NoSignChange):
        bisect_root(lambda x: x * x + 1.0, -2.0, 2.0)
    root = bisect_root(lambda x: x * x - 2.0, 0.0, 2.0)
    assert root == pytest.approx(math.sqrt(2.0), abs=1e-14)


def test_breakpoint_param_validation():
    with pytest.raises(ParamOutOfDomain):
        E.solve_breakpoint("FGRE", {"alpha": 0.9})
    with pytest.raises(ParamOutOfDomain):
        E.solve_breakpoint("TCRE", {"F_t": 0.0})
    with pytest.raises(ParamOutOfDomain):
        E.solve_breakpoint("nonsense", {})


def test_slope_l2_examples():
    ident = D.custom_transform(lambda u: np.asarray(u, dtype=float))
    env = E.convex_envelope_numeric(ident)
    assert E.slope_l2_norm(env, 1.0) == pytest.approx(0.0, abs=1e-9)
    gini = _transform("GiniSemidiff", {})
    env = E.convex_envelope_analytic(gini)
    assert E.slope_l2_norm(env, 0.0) == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-12)
    es = _transform("ES", {"p": 0.5})
    env = E.convex_envelope_analytic(es)
    assert E.slope_l2_norm(env, 1.0) == pytest.approx(1.0, rel=1e-12)


def test_envelope_table_columns():
    tg = _transform("TCRE", {"p": 0.9})
    env = E.convex_envelope_analytic(tg)
    table = E.envelope_table(env, n=101)
    assert table.shape[1] == 4
    us, gh, ev, sl = table.T
    assert np.all(np.diff(us) > 0)
    assert np.all(ev <= gh + 1e-9)
    assert np.all(np.diff(sl) >= -1e-9)


def test_integrate_segment_log_singularity():
    # integral of (log(1-u) + 1)^2 over [0, 1] equals 1
    val = integrate_segment(
        lambda u: (np.log1p(-np.asarray(u)) + 1.0) ** 2, 0.0, 1.0,
        fn_lo=lambda t: (np.log1p(-np.asarray(t)) + 1.0) ** 2,
        fn_hi=lambda t: (np.log(np.asarray(t)) + 1.0) ** 2)
    assert val == pytest.approx(1.0, rel=1e-12)

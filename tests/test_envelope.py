import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from riskbound import bounds as B
from riskbound import distortion as D
from riskbound import envelope as E
from riskbound._num import bisect_root, fractional_root
from riskbound.errors import (
    DomainError,
    NoAnalyticForm,
    NonConvergent,
    NonFiniteValue,
    NoSignChange,
    ParamOutOfDomain,
    RiskboundError,
)

from conftest import (
    SWEEP,
    contact_point,
    random_piecewise_smooth,
    reference_lower_hull,
    reference_numeric_grid,
    reference_pool_convex,
    reference_slope_l2_norm,
    reference_tnegini_root,
)

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
    root = contact_point(eq, params)
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
        root = contact_point(eq, params)
        assert abs(residuals[eq](root, params)) <= 1e-12
    # the extended-Gini tail forms are Tsallis forms of order r: the TCRTE
    # root at alpha = r solves their own tangency equation
    for r, p in ((3.0, 0.5), (1.5, 0.2), (1.5, 0.9), (6.0, 0.5)):
        root = contact_point("TCRTE", {"alpha": r, "F_t": p})
        res = (1 - root) ** r + r * root * (1 - root) ** (r - 1) - (1 - p) ** (r - 1)
        assert abs(res) <= 1e-12, (r, p)
        assert root == pytest.approx(reference_tnegini_root(r, p), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("alpha", [1.1, 1.6, 3.0, 20.0, 34.0, 36.0])
def test_fgre_and_fge_breakpoints_mirror_exactly(alpha):
    fgre = E.convex_envelope_analytic(_transform("FGRE", {"alpha": alpha}))
    fge = E.convex_envelope_analytic(_transform("FGE", {"alpha": alpha}))
    assert fgre.meta["breakpoint"] + fge.meta["breakpoint"] == 1.0


def test_fgre_envelope_refuses_a_contact_that_rounds_to_one():
    # at alpha = 40 the FGRE contact 1 - 4.2e-18 is 1.0 in double precision,
    # though its distance from u = 1 is not 0; the envelope must not
    # collapse to the chord over [0, 1]
    t = fractional_root(40.0)
    assert t > 0.0 and abs(40.0 * (1.0 - t) + math.log(t)) <= 1e-12 and 1.0 - t == 1.0
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


@pytest.mark.parametrize("family, params", SWEEP, ids=str)
def test_slope_forms_match_the_expressions_they_replace(family, params):
    # the envelope's branches read the window's own slope forms: bit for bit
    # g'(t/q)/q at u = 1, g'(1 - t/q)/q at u = 0, and (1 + tau g'(t/q))/q on
    # ES's and a shortfall's window [p, 1]
    tg = _transform(family, params)
    E.convex_envelope_analytic(tg)
    g, t = tg.source, np.geomspace(1e-300, 0.5, 241)
    if tg.p is not None:
        q = 1.0 - tg.p
        assert tg.slope_upper(t).tobytes() == ((1.0 + tg.tau * g.g_prime(t / q)) / q).tobytes()
        assert tg.slope_lower is None
        return
    F = tg.F_t
    q = 1.0 - F if tg.mode == "residual" else F if tg.mode == "past" else 1.0
    if tg.mode == "past" and F < 1.0:
        assert tg.slope_upper is None
    else:
        assert tg.slope_upper(t).tobytes() == (g.g_prime(t / q) / q).tobytes()
    if tg.mode == "residual" and F > 0.0:
        assert tg.slope_lower is None
    else:
        assert tg.slope_lower(t).tobytes() == (g.gp_hi(t / q) / q).tobytes()


def test_tgini_envelope_is_linear_then_quadratic():
    tg = _transform("TGini", {"p": 0.81})
    env = E.convex_envelope_analytic(tg)
    # a chord, then the branch (nan slope)
    assert np.isnan(env.slopes).tolist() == [False, True]
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
    slopes = env.slopes
    assert np.all(np.diff(slopes) >= -1e-10 * np.maximum(1.0, np.abs(slopes[:-1])))
    # fundamental theorem: hull slopes integrate to the endpoint difference
    lens = np.diff(env.knots)
    assert float(np.dot(slopes, lens)) == pytest.approx(
        float(tg.ghat(1.0)) - float(tg.ghat(0.0)), abs=1e-8)


@pytest.mark.parametrize("family,params", REPRESENTATIVE, ids=str)
def test_analytic_and_numeric_l2_agree(family, params):
    tg = _transform(family, params)
    ln = E.slope_l2_norm(E.convex_envelope_numeric(tg), tg.center)
    assert ln == pytest.approx(B.closed_form_factor(family, params)[1], rel=1e-6)


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


@pytest.mark.parametrize("seed", [354, 405])
def test_scaling_equivariance_fixed_draws(seed):
    # draws where rounding-level first-pass vertices once decided which
    # chords were refined, so the scaled copy got another certificate
    test_scaling_equivariance.hypothesis.inner_test(3.75, seed)


def test_linear_pieces_need_no_refinement():
    # every long first-pass chord of a convex polygon skips only samples on
    # it, so ghat runs on the first grid and the kink guards, nothing else
    kinks = (0.2, 0.45, 0.7)
    tg = D.custom_transform(lambda u: np.maximum.reduce(
        [-2.0 * u, 0.5 * u - 0.5, 3.0 * u - 1.625, 6.0 * u - 3.725]), kinks=kinks)
    seen = []

    def ghat(u):
        seen.append(np.atleast_1d(np.asarray(u, dtype=float)))
        return tg.ghat(u)

    env = E.convex_envelope_numeric(dataclasses.replace(tg, ghat=ghat), 1025)
    first = np.concatenate([E._numeric_grid(tg, 1025),
                            [k + d for k in kinks for d in (-1e-12, 1e-12)]])
    assert np.isin(np.concatenate(seen), first).all()
    us = np.linspace(0.0, 1.0, 2049)
    assert np.allclose(env.value(us), tg.ghat(us), rtol=0.0, atol=1e-12)


def test_windowed_second_pass_matches_a_full_rehull():
    cases = [_transform(f, p) for f, p in SWEEP]
    rng = np.random.default_rng(20241019)
    for _ in range(24):
        raw, kinks = random_piecewise_smooth(rng)
        cases.append(D.custom_transform(raw, kinks=kinks))
    passes = 0
    for n_grid in (513, 1025):
        for tg in cases:
            us = E._numeric_grid(tg, n_grid)
            ys = np.asarray(tg.ghat(us), dtype=float)
            idx = E._lower_hull_indices(us, ys)
            centers = E._unresolved_ends(us, ys, idx)
            if not centers.size:
                continue
            us, ys, sub, pinned = E._refine(tg, us, ys, idx, centers, n_grid)
            got = E._pinned_hull(us[sub], ys[sub], pinned)
            assert got.tolist() == E._lower_hull_indices(us[sub], ys[sub]).tolist(), \
                (tg.source.family, tg.source.params, n_grid)
            passes += 1
    assert passes >= len(cases)


@pytest.mark.parametrize("seed", range(6))
def test_pinned_hull_releases_undercut_pins(seed):
    # pins on a convex arc, and new points dipping below it between some of
    # them: pins next to a dip stop being vertices and must be released
    rng = np.random.default_rng(seed)
    us = np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 400)]))
    ys = (us - 0.3) ** 2
    pinned = np.ones(len(us), dtype=bool)
    for at in rng.integers(5, len(us) - 25, size=3):
        width = int(rng.integers(2, 20))
        pinned[at:at + width] = False
        ys[at:at + width] -= rng.uniform(0.0, 0.05) * np.sin(
            np.linspace(0.0, np.pi, width + 2)[1:-1])
    got = E._pinned_hull(us, ys, pinned)
    assert got.tolist() == E._lower_hull_indices(us, ys).tolist()


def _chord_l2(us, ys, idx):
    """slope_l2_norm of the chords through the points ``idx``."""
    base = ys - ys[0]
    tg = D.custom_transform(lambda u: np.interp(u, us, base))
    knots, values = us[idx], base[idx]
    env = E.PiecewiseEnvelope(knots=knots, values=values,
                              slopes=np.diff(values) / np.diff(knots),
                              contact=np.diff(idx) == 1, source=tg)
    return E.slope_l2_norm(env, tg.center)


def _check_hull(us, ys):
    us = np.asarray(us, dtype=float)
    ys = np.asarray(ys, dtype=float)
    idx = E._lower_hull_indices(us, ys)
    assert idx[0] == 0 and idx[-1] == len(us) - 1
    assert np.all(np.diff(idx) > 0)
    slopes = np.diff(ys[idx]) / np.diff(us[idx])
    assert np.all(np.diff(slopes) >= 0.0)
    scale = max(1.0, float(np.max(np.abs(ys))))
    assert np.all(ys >= np.interp(us, us[idx], ys[idx]) - 1e-12 * scale)
    ref = np.asarray(reference_lower_hull(us, ys))
    L, L_ref = _chord_l2(us, ys, idx), _chord_l2(us, ys, ref)
    assert abs(L - L_ref) <= 1e-12 * max(1.0, L_ref)
    return idx


def _cascade():
    tg = _transform("CT", {"alpha": 3.0})
    us = E._numeric_grid(tg, 1025)
    return us, tg.ghat(us)


_U = np.linspace(0.0, 1.0, 257)
HULL_CASES = {
    "linear-pieces": (_U, np.maximum(-0.5 * _U, 2.0 * _U - 1.0)),
    "all-collinear": (_U, 3.0 * _U),
    "two-points": ([0.0, 1.0], [0.0, 2.0]),
    "three-points-below": ([0.0, 0.5, 1.0], [0.0, -1.0, 1.0]),
    "three-points-above": ([0.0, 0.5, 1.0], [0.0, 1.0, 1.0]),
    "concave-arc": (_U, np.sqrt(_U)),
    "cascade": _cascade(),
}


@pytest.mark.parametrize("case", sorted(HULL_CASES))
def test_lower_hull_fixed_cases(case):
    us, ys = HULL_CASES[case]
    idx = _check_hull(us, ys)
    if case != "cascade":
        # on these the merges match the chain's exactly, so the refinement
        # centres (ends of multi-step chords) fall in the same places; the
        # cascade's hull keeps collinear vertices the chain drops
        assert idx.tolist() == reference_lower_hull(us, ys)
    if case in ("all-collinear", "concave-arc", "two-points", "three-points-above"):
        assert list(idx) == [0, len(us) - 1]
    if case == "all-collinear":
        assert _chord_l2(np.asarray(us), np.asarray(ys), idx) == 0.0


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=1e-6, max_value=1.0 - 1e-6), min_size=0, max_size=60,
                unique=True),
       st.data())
def test_lower_hull_random_points(xs, data):
    us = np.concatenate([[0.0], np.sort(xs), [1.0]])
    us = us[np.concatenate([[True], np.diff(us) > 1e-9])]
    # small integer heights make exactly collinear runs common
    ys = data.draw(st.lists(st.integers(-4, 4), min_size=len(us), max_size=len(us)))
    _check_hull(us, 0.25 * np.asarray(ys, dtype=float))


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_lower_hull_random_customs(seed):
    raw, kinks = random_piecewise_smooth(np.random.default_rng(seed))
    tg = D.custom_transform(raw, kinks=kinks)
    us = E._numeric_grid(tg, 513)
    _check_hull(us, tg.ghat(us))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_lower_hull_rounding_noise(seed):
    # a line plus noise at the level of rounding: the collinear merges decide
    # every vertex, so the hull's properties and its L are pinned, not its indices
    us = np.linspace(0.0, 1.0, 257)
    noise = np.random.default_rng(seed).standard_normal(us.size)
    _check_hull(us, 2.0 * us + 1e-15 * noise)


def test_first_pass_hulls_match_the_chain():
    cases = [_transform(f, p) for f, p in SWEEP]
    rng = np.random.default_rng(20240808)
    for _ in range(20):
        raw, kinks = random_piecewise_smooth(rng)
        cases.append(D.custom_transform(raw, kinks=kinks))
    for tg in cases:
        us = E._numeric_grid(tg, 1025)
        _check_hull(us, tg.ghat(us))


def _kinked_transforms():
    cases = [_transform("DCT", {"alpha": 3.0, "F_t": 0.9}), _transform("TCRE", {"p": 0.9})]
    rng = np.random.default_rng(20240808)
    for _ in range(9):
        raw, kinks = random_piecewise_smooth(rng)
        cases.append(D.custom_transform(raw, kinks=kinks))
    return cases


@pytest.mark.parametrize("n_grid", [4097, 8193])
def test_first_pass_hulls_match_the_chain_on_large_grids(n_grid):
    # the customs' grids hold 23k-69k points, so the first pass over all of
    # them, with its scalar chord ends, is tested at the sizes it runs at
    for tg in _kinked_transforms():
        us = E._numeric_grid(tg, n_grid)
        _check_hull(us, tg.ghat(us))


@pytest.mark.parametrize("n_grid", [513, 4097])
@pytest.mark.parametrize("seed", [722, 431911, 427068])
def test_lower_hull_keeps_convex_kink_corners(seed, n_grid):
    # seeds of test_lower_hull_random_customs whose hull once skipped a convex
    # corner at a kink guard sample k + 1e-12, leaving a sample 1e-12 to
    # 3e-12 of scale below it: a vertex was also tested against the chord to
    # the next grid sample, and rounding decided that test
    raw, kinks = random_piecewise_smooth(np.random.default_rng(seed))
    tg = D.custom_transform(raw, kinks=kinks)
    us = E._numeric_grid(tg, n_grid)
    _check_hull(us, tg.ghat(us))


@pytest.mark.parametrize("n_grid", [513, 4097, 8193])
def test_numeric_grid_sorts_like_unique(n_grid):
    for tg in [_transform(f, p) for f, p in SWEEP] + _kinked_transforms():
        got = E._numeric_grid(tg, n_grid)
        assert got.tobytes() == reference_numeric_grid(tg, n_grid).tobytes()


# pieces whose sums and means are exact in binary: (lengths, slopes, pooled)
DYADIC_CHAINS = {
    "nondecreasing": ([1.0, 2.0, 1.0], [-1.0, 0.5, 0.5], ([1.0, 2.0, 1.0], [-1.0, 0.5, 0.5])),
    "one-run": ([1.0] * 5, [0.0, 6.0, 2.0, 1.0, -1.0], ([1.0, 4.0], [0.0, 2.0])),
    # the merged run meets its left neighbour's slope and stays apart from it
    "equal-neighbours": ([1.0, 1.0, 1.0, 1.0, 2.0], [1.0, 1.0, 3.0, 2.0, 2.0],
                         ([1.0, 1.0, 4.0], [1.0, 1.0, 2.25])),
    # each round's merged piece falls below the piece before it: four rounds
    "cascade": ([1.0, 8.0, 4.0, 2.0, 1.0, 1.0, 1.0, 2.0],
                [-3.0, 4.0, 5.0, 6.0, 7.0, -9.0, 3.875, 10.0],
                ([1.0, 16.0, 1.0, 2.0], [-3.0, 3.875, 3.875, 10.0])),
}


@pytest.mark.parametrize("case", sorted(DYADIC_CHAINS))
def test_pooling_rounds_match_the_stack_on_exact_chains(case):
    lengths, slopes, (pooled_l, pooled_s) = DYADIC_CHAINS[case]
    got_l, got_s = E._pool_convex(np.array(lengths), np.array(slopes))
    ref_l, ref_s = reference_pool_convex(np.array(lengths), np.array(slopes))
    assert got_l.tolist() == ref_l.tolist() == pooled_l
    assert got_s.tolist() == ref_s.tolist() == pooled_s


@pytest.mark.parametrize("n_grid", [1025, 4097])
def test_numeric_slope_norms_match_the_stack_pooling(monkeypatch, n_grid):
    envs = [E.convex_envelope_numeric(_transform(f, p), n_grid) for f, p in SWEEP]
    got = [E.slope_l2_norm(env, env.source.center) for env in envs]
    monkeypatch.setattr(E, "_pool_convex", reference_pool_convex)
    for env, L in zip(envs, got):
        ref = E.slope_l2_norm(env, env.source.center)
        assert L == pytest.approx(ref, rel=1e-12, abs=0.0), env.source.source.params


def _below_calls(monkeypatch, us, ys):
    """Every ``_below`` call made while finding one hull: two a quickhull
    pass, and those of the final merge rounds."""
    calls = []
    real = E._below

    def counting(us_, ys_, lo, mid, hi):
        calls.append(mid.size)
        return real(us_, ys_, lo, mid, hi)

    monkeypatch.setattr(E, "_below", counting)
    E._lower_hull_indices(us, ys)
    n = len(calls)
    _check_hull(us, ys)
    return n


def test_convex_runs_resolve_in_few_passes(monkeypatch):
    # a strictly convex sample is its own hull, found in one pass and kept
    # by one merge round
    us = np.linspace(0.0, 1.0, 4097)
    assert _below_calls(monkeypatch, us, np.exp(3.0 * us)) <= 2 * 2
    # the geometric cascades toward 0, 1 and the kinks are convex runs too
    tg = _transform("CT", {"alpha": 3.0})
    us = E._numeric_grid(tg, 4097)
    assert _below_calls(monkeypatch, us, tg.ghat(us)) <= 2 * 12


def test_numeric_envelope_matches_the_reference_hull(monkeypatch):
    cases = [_transform(f, p) for f, p in (("CT", {"alpha": 3.0}), ("TCRE", {"p": 0.9}),
                                          ("DCT", {"alpha": 3.0, "F_t": 0.9}))]
    raw, kinks = random_piecewise_smooth(np.random.default_rng(20240808))
    cases.append(D.custom_transform(raw, kinks=kinks))
    got = [E.slope_l2_norm(E.convex_envelope_numeric(tg, 1025), tg.center) for tg in cases]
    monkeypatch.setattr(E, "_lower_hull_indices",
                        lambda us, ys: np.asarray(reference_lower_hull(us, ys)))
    for tg, L in zip(cases, got):
        ref = E.slope_l2_norm(E.convex_envelope_numeric(tg, 1025), tg.center)
        assert L == pytest.approx(ref, rel=1e-12)


def test_numeric_bound_imports_no_hull_library():
    # scipy.optimize and scipy.spatial each add megabytes to the process
    code = ("import sys, riskbound as rb\n"
            "g = rb.catalog_lookup('CRE', {})\n"
            "rb.worst_case_bound(g, moments=rb.MomentInfo(0.0, 1.0), engine='numeric')\n"
            "print(sorted({'scipy.optimize', 'scipy.spatial'} & set(sys.modules)))\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.abspath(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


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
    for alpha in (0.9, 1.0):
        with pytest.raises(ParamOutOfDomain):
            fractional_root(alpha)


def test_slope_l2_examples():
    ident = D.custom_transform(lambda u: np.asarray(u, dtype=float))
    env = E.convex_envelope_numeric(ident)
    assert E.slope_l2_norm(env, 1.0) == pytest.approx(0.0, abs=1e-9)
    # an analytic envelope's L is its closed form, which the reference
    # quadrature checks; slope_l2_norm takes chord envelopes only
    gini = _transform("GiniSemidiff", {})
    env = E.convex_envelope_analytic(gini)
    assert reference_slope_l2_norm(env, 0.0) == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-12)
    with pytest.raises(DomainError):
        E.slope_l2_norm(env, 0.0)
    es = _transform("ES", {"p": 0.5})
    env = E.convex_envelope_analytic(es)
    assert reference_slope_l2_norm(env, 1.0) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(DomainError):
        E.slope_l2_norm(env, 1.0)


def test_envelope_table_columns():
    tg = _transform("TCRE", {"p": 0.9})
    env = E.convex_envelope_analytic(tg)
    table = E.envelope_table(env, n=101)
    assert table.shape[1] == 4
    us, gh, ev, sl = table.T
    assert np.all(np.diff(us) > 0)
    assert np.all(ev <= gh + 1e-9)
    assert np.all(np.diff(sl) >= -1e-9)


def test_the_slope_quadrature_checks_the_closed_forms():
    # a catalog bound takes its L from the table; the reference quadrature of
    # its analytic envelope is the closed forms' independent check
    for family, params in SWEEP + [("FGRE", {"alpha": 30.0}), ("FGE", {"alpha": 30.0})]:
        tg = _transform(family, params)
        env = E.convex_envelope_analytic(tg)
        norm = reference_slope_l2_norm(env, tg.center)
        assert norm == pytest.approx(B.closed_form_factor(family, params)[1], rel=1e-12), \
            (family, params)
        # slope_l2_norm takes chord envelopes only
        with pytest.raises(DomainError):
            E.slope_l2_norm(env, tg.center)
    # where a share of ~1e-8 of the squared-slope mass lies at the 1e-60
    # floor, the quadrature falls short of the closed form by about that share
    for family, params in (("FGE", {"alpha": 40.0}), ("CT", {"alpha": 0.56}),
                           ("CRT", {"alpha": 0.56})):
        tg = _transform(family, params)
        env = E.convex_envelope_analytic(tg)
        exact = B.closed_form_sup(family, params, B.MomentInfo(0.0, 1.0))
        assert abs(reference_slope_l2_norm(env, tg.center) - exact) <= 1e-7 * exact, \
            (family, params)
    # a material share below the floor raises
    for family, params in (("CT", {"alpha": 0.51}), ("CRT", {"alpha": 0.51}),
                           ("FGE", {"alpha": 45.0})):
        tg = _transform(family, params)
        env = E.convex_envelope_analytic(tg)
        with pytest.raises(NonConvergent):
            reference_slope_l2_norm(env, tg.center)

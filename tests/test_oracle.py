import dataclasses
import math

import numpy as np
import pytest

from riskbound import bounds as B
from riskbound import distortion as D
from riskbound import oracle as O
from riskbound._num import integrate_segment
from riskbound.errors import BoundViolated, DomainError, NonConvergent, NonFiniteValue

from conftest import SWEEP, reference_feasibility_stress, reference_stieltjes_sums

STD = B.MomentInfo(0.0, 1.0)
PARITY_MOMENTS = B.MomentInfo(0.3, 1.7)
#: the first swept parameter set of every catalog family
FIRST_PARAMS = {}
for _family, _params in SWEEP:
    FIRST_PARAMS.setdefault(_family, _params)


def test_identity_distortion_is_the_mean():
    ident = D.custom_distortion(lambda u: np.asarray(u, dtype=float))
    Q = O.QuantileFn.from_callable(lambda u: 0.2 + u)  # uniform on [0.2, 1.2]
    val = O.riskmetric_of_quantile(ident, "riskmetric", {}, Q)
    assert val == pytest.approx(0.7, abs=1e-9)


def test_gini_of_uniform01():
    Q = O.QuantileFn.from_callable(lambda u: u)
    val = O.riskmetric_of_quantile(D.catalog_lookup("GiniSemidiff", {}), None, None, Q)
    assert val == pytest.approx(1.0 / 6.0, abs=1e-8)


def test_es_of_uniform01():
    Q = O.QuantileFn.from_callable(lambda u: u)
    val = O.riskmetric_of_quantile(D.catalog_lookup("ES", {"p": 0.5}), None, None, Q)
    assert val == pytest.approx(0.75, abs=1e-10)


def test_gaussian_gini_value():
    from scipy.special import ndtri

    Q = O.QuantileFn(fn=lambda u: ndtri(np.asarray(u, dtype=float)),
                     tail_class="log-divergent",
                     upper_tail=lambda t: -ndtri(np.asarray(t, dtype=float)),
                     lower_tail=lambda t: ndtri(np.asarray(t, dtype=float)))
    val = O.riskmetric_of_quantile(D.catalog_lookup("GiniSemidiff", {}), None, None, Q)
    assert val == pytest.approx(1.0 / math.sqrt(math.pi), abs=1e-6)


def test_weighted_unit_weight_consistency():
    g = D.catalog_lookup("CRE", {})
    Q = O.QuantileFn.from_callable(lambda u: 1.0 + u)
    plain = O.riskmetric_of_quantile(g, "entropy", {}, Q)
    weighted = O.weighted_entropy_of_quantile(g, D.unit_weight(), Q)
    assert weighted == pytest.approx(plain, rel=1e-10)


def test_weighted_attainment():
    wm = B.MomentInfo(5.0, 2.0, weighted=True)
    res = B.worst_case_weighted(D.catalog_lookup("WCRE", {}), D.linear_weight(), wm)
    val = O.weighted_entropy_of_quantile(D.catalog_lookup("WCRE", {}),
                                         D.linear_weight(), res.quantile)
    assert val == pytest.approx(res.sup_value, rel=1e-5)


def test_weighted_constant_is_zero():
    g = D.catalog_lookup("CRE", {})
    val = O.weighted_entropy_of_quantile(g, D.linear_weight(),
                                         O.QuantileFn.constant(3.0))
    assert val == pytest.approx(0.0, abs=1e-10)


def test_quantile_moments_cases():
    mean, var = O.quantile_moments(O.QuantileFn.constant(2.5))
    assert (mean, var) == (pytest.approx(2.5, abs=1e-12), pytest.approx(0.0, abs=1e-12))
    # two-point worst case of the expected shortfall at level 0.9
    res = B.worst_case_bound(D.catalog_lookup("ES", {"p": 0.9}), moments=STD)
    mean, var = O.quantile_moments(res.quantile)
    assert mean == pytest.approx(0.0, abs=1e-10)
    assert var == pytest.approx(1.0, rel=1e-10)
    res = B.worst_case_bound(D.catalog_lookup("CRE", {}), moments=STD)
    mean, var = O.quantile_moments(res.quantile)
    assert mean == pytest.approx(0.0, abs=1e-6)
    assert var == pytest.approx(1.0, rel=1e-6)


def test_grid_quantile_and_step_interpolation():
    us = np.linspace(0.0, 1.0, 11)
    qs = np.linspace(-1.0, 1.0, 11)
    Q = O.QuantileFn.from_grid(us, qs, interp="linear")
    assert float(Q.fn(0.55)) == pytest.approx(0.1)
    Qs = O.QuantileFn.from_grid(us, qs, interp="step")
    assert float(Qs.fn(0.55)) == pytest.approx(0.0)
    with pytest.raises(DomainError):
        O.QuantileFn.from_grid(us, qs[::-1], interp="linear")
    with pytest.raises(DomainError):
        O.QuantileFn.from_grid(us, qs, interp="cubic")


def test_nonconvergent_raised_for_unreachable_tolerance():
    res = B.worst_case_bound(D.catalog_lookup("CRE", {}), moments=STD)
    with pytest.raises(NonConvergent):
        O.riskmetric_of_quantile(D.catalog_lookup("CRE", {}), None, None,
                                 res.quantile, rel_tol=1e-16)


def test_shapes_are_standardized():
    for kind in O._SHAPES:
        rng = np.random.default_rng(17)
        Q = O._standard_shape(kind, rng)
        mean, var = O.quantile_moments(Q)
        assert mean == pytest.approx(0.0, abs=1e-8)
        assert var == pytest.approx(1.0, rel=1e-8)


def test_stress_empty_and_deterministic():
    g = D.catalog_lookup("GiniSemidiff", {})
    empty = O.feasibility_stress(g, None, None, STD, trials=0, seed=9)
    assert empty.trials == 0 and empty.worst_shape == ""
    r1 = O.feasibility_stress(g, None, None, STD, trials=120, seed=9)
    r2 = O.feasibility_stress(g, None, None, STD, trials=120, seed=9)
    assert r1.to_json() == r2.to_json()
    r3 = O.feasibility_stress(g, None, None, STD, trials=120, seed=10)
    assert r3.to_json() != r1.to_json()


def test_stress_uniform_attains_gini():
    rep = O.feasibility_stress(D.catalog_lookup("GiniSemidiff", {}), None, None,
                               STD, trials=60, seed=3)
    assert rep.worst_shape == "uniform"
    assert abs(rep.bound - rep.shape_max["uniform"]) < 1e-9
    assert rep.shape_max["gaussian"] == pytest.approx(1.0 / math.sqrt(math.pi), abs=1e-6)


def test_stress_detects_violation(monkeypatch):
    # shrink the engine's bound: the dominance check must trip
    import dataclasses

    real = B.worst_case_bound

    def shrunken(*args, **kwargs):
        res = real(*args, **kwargs)
        return dataclasses.replace(res, sup_value=res.sup_value * 0.9)

    monkeypatch.setattr(B, "worst_case_bound", shrunken)
    with pytest.raises(BoundViolated) as exc:
        O.feasibility_stress(D.catalog_lookup("GiniSemidiff", {}), None, None,
                             STD, trials=12, seed=1)
    assert exc.value.observed > exc.value.bound
    assert exc.value.quantile is not None


def test_quantile_moments_integrate_both_powers_from_one_evaluation():
    res = B.worst_case_bound(D.catalog_lookup("CRE", {}), moments=PARITY_MOMENTS)
    gauss = O._affine(O._standard_shape("gaussian", None), 0.3, 1.7)
    for Q in (res.quantile, gauss):
        calls = [0]

        def fn(u, inner=Q.fn):
            calls[0] += 1
            return inner(u)

        counted = dataclasses.replace(Q, fn=fn)
        mean, var = O.quantile_moments(counted)
        once = calls[0]
        # the finer depth again, each power integrated on its own
        calls[0] = 0
        edges = [0.0] + sorted(b for b in Q.breakpoints if 0.0 < b < 1.0) + [1.0]
        m = [0.0, 0.0]
        for p in (1, 2):
            for a, b in zip(edges[:-1], edges[1:]):
                m[p - 1] += integrate_segment(
                    lambda u: np.asarray(counted.fn(u), dtype=float) ** p, a, b,
                    fn_lo=(lambda t: np.asarray(Q._lower()(t), dtype=float) ** p)
                    if a == 0.0 else None,
                    fn_hi=(lambda t: np.asarray(Q._upper()(t), dtype=float) ** p)
                    if b == 1.0 else None,
                    t_floor=1e-60, per_octave=6)
        # quantile_moments runs two depths and this one depth twice, so
        # equal counts mean one evaluation of Q per node set for both powers
        assert calls[0] == once
        assert mean == pytest.approx(m[0], rel=1e-14, abs=1e-15)
        assert var == pytest.approx(m[1] - m[0] * m[0], rel=1e-14)


def test_batched_sums_match_the_reference():
    shapes = [O._affine(O._standard_shape(kind, np.random.default_rng([3, k])), 0.3, 1.7)
              for k, kind in enumerate(O._SHAPES * 3)]
    for family, params, engine in (("TCRE", {"p": 0.5}, "auto"),
                                   ("DCT", {"alpha": 3.0, "F_t": 0.5}, "numeric")):
        g = D.catalog_lookup(family, params)
        tg = O._as_transform(g, None, None)
        # the worst-case quantile carries every envelope knot as a breakpoint
        Qs = [B.worst_case_bound(g, moments=PARITY_MOMENTS, engine=engine).quantile] + shapes
        for cache in (O._StieltjesCache(tg, n_base=512, per_octave=6, t_floor=1e-45),
                      O._StieltjesCache(tg, n_base=2048, per_octave=12)):
            s1, s2 = cache.values(Qs)
            for j, Q in enumerate(Qs):
                r1, r2 = reference_stieltjes_sums(cache, Q)
                assert abs(s1[j] - r1) <= 1e-12 * max(1.0, abs(r1)), (family, Q.name)
                assert abs(s2[j] - r2) <= 1e-12 * max(1.0, abs(r2)), (family, Q.name)


@pytest.mark.parametrize("family", D.family_names())
def test_stress_matches_the_per_trial_reference(family):
    g = D.catalog_lookup(family, FIRST_PARAMS[family])
    for seed in (0, 7, 20240808):
        rep = O.feasibility_stress(g, None, None, PARITY_MOMENTS, trials=48, seed=seed)
        ref, _ = reference_feasibility_stress(g, PARITY_MOMENTS, 48, seed)
        assert rep.bound == ref.bound
        assert rep.worst_shape == ref.worst_shape
        assert rep.max_observed == pytest.approx(ref.max_observed, rel=1e-12)
        assert rep.shape_max.keys() == ref.shape_max.keys()
        # a step shape on a flat stretch of ghat sums to rounding noise near
        # zero, so each shape is compared on the scale of the bound at least
        for kind, val in ref.shape_max.items():
            scale = max(abs(val), abs(ref.bound))
            assert abs(rep.shape_max[kind] - val) <= 1e-12 * scale, (seed, kind)


def test_stress_evaluates_each_fixed_shape_once(monkeypatch):
    real_shape = O._standard_shape
    real_refine = O.riskmetric_of_quantile
    calls, refines = {}, {}

    def counted_shape(kind, rng):
        Q = real_shape(kind, rng)

        def fn(u, inner=Q.fn):
            calls[kind] = calls.get(kind, 0) + 1
            return inner(u)

        return dataclasses.replace(Q, fn=fn)

    def counted_refine(*args, **kwargs):
        name = args[3].name
        refines[name] = refines.get(name, 0) + 1
        return real_refine(*args, **kwargs)

    monkeypatch.setattr(O, "_standard_shape", counted_shape)
    monkeypatch.setattr(O, "riskmetric_of_quantile", counted_refine)
    g = D.catalog_lookup("GiniSemidiff", {})
    seen = []
    for trials in (12, 120):
        calls.clear()
        refines.clear()
        O.feasibility_stress(g, None, None, STD, trials=trials, seed=5)
        seen.append(({k: calls.get(k, 0) for k in O._FIXED},
                     {k: refines.get(k, 0) for k in O._FIXED}))
    # ten times the trials, the same work on the shapes that draw nothing
    assert seen[0] == seen[1]
    assert all(seen[0][0].values())
    # the uniform attains the Gini bound, so it is refined, once
    assert seen[0][1]["uniform"] == 1
    assert max(seen[0][1].values()) == 1


def test_stress_shares_one_fine_partition_per_tail_class(monkeypatch):
    builds = []
    refines = []
    real_refine = O.riskmetric_of_quantile

    class Counted(O._StieltjesCache):
        def __init__(self, tg, n_base=2048, per_octave=16, t_floor=1e-60):
            builds.append((n_base, per_octave))
            super().__init__(tg, n_base, per_octave, t_floor)

    def counted_refine(*args, **kwargs):
        refines.append(args[3].tail_class)
        return real_refine(*args, **kwargs)

    monkeypatch.setattr(O, "_StieltjesCache", Counted)
    monkeypatch.setattr(O, "riskmetric_of_quantile", counted_refine)
    O.feasibility_stress(D.catalog_lookup("GiniSemidiff", {}), None, None, STD,
                         trials=120, seed=4)
    fine = [b for b in builds if b[0] == 4096]
    assert len(fine) == len(set(fine)) == len(set(refines)) >= 1
    assert len(refines) > len(fine)
    assert [b for b in builds if b[0] != 4096] == [(512, 6)]


@pytest.mark.parametrize("family, params", [("GiniSemidiff", {}), ("ES", {"p": 0.9})])
def test_stress_violation_reports_the_worst_trial(monkeypatch, family, params):
    real = B.worst_case_bound

    def shrunken(*args, **kwargs):
        res = real(*args, **kwargs)
        return dataclasses.replace(res, sup_value=res.sup_value * 0.9)

    monkeypatch.setattr(B, "worst_case_bound", shrunken)
    g = D.catalog_lookup(family, params)
    ref, ref_Q = reference_feasibility_stress(g, STD, 48, 3)
    with pytest.raises(BoundViolated) as exc:
        O.feasibility_stress(g, None, None, STD, trials=48, seed=3)
    assert exc.value.shape == ref.worst_shape
    assert exc.value.observed == pytest.approx(ref.max_observed, rel=1e-12)
    assert exc.value.bound == ref.bound
    u = np.linspace(0.0005, 0.9995, 1999)
    assert np.array_equal(exc.value.quantile.fn(u), ref_Q.fn(u))


def _same_bits(a, b):
    a, b = np.ascontiguousarray(a, dtype=float), np.ascontiguousarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("kind", [k for k in O._SHAPES if k not in O._FIXED])
def test_trial_arrays_match_the_per_trial_shapes(kind):
    def streams():
        return [np.random.default_rng([11, k]) for k in range(40)]

    draws = tuple(np.array(a) for a in zip(*(O._draw(kind, rng) for rng in streams())))
    trials = O._Trials(kind, draws, 0.3, 1.7)
    Qs = [O._affine(O._standard_shape(kind, rng), 0.3, 1.7) for rng in streams()]

    def each(fn_of, x):
        return np.stack([np.asarray(fn_of(Q)(x), dtype=float) for Q in Qs])

    # the nodes of both partitions of a transform with a kink
    tg = O._as_transform(D.catalog_lookup("ES", {"p": 0.9}), None, None)
    for cache in (O._StieltjesCache(tg, n_base=512, per_octave=6, t_floor=1e-45),
                  O._StieltjesCache(tg, n_base=4096, per_octave=12)):
        for level in cache.levels:
            t_lo, u, t_hi = level["nodes"]
            # the nodes in u that the running sums place the trials' pieces by
            x = cache._running_sums(level)[0]
            assert _same_bits(trials.inner(u), each(lambda Q: Q.fn, u))
            assert _same_bits(trials.inner(x),
                              np.hstack([each(lambda Q: Q._lower(), t_lo),
                                         each(lambda Q: Q.fn, u),
                                         each(lambda Q: Q._upper(), t_hi)]))
            assert _same_bits(trials.inner(x), O._Rows(Qs).cells(t_lo, u, t_hi))
    # distances down past the point where 1 - t rounds to 1
    t = np.geomspace(0.5, 1e-30, 301)
    assert _same_bits(trials.inner(1.0 - np.maximum(t, O._T_MIN)), each(lambda Q: Q._upper(), t))
    assert _same_bits(trials.inner(t[::-1]), each(lambda Q: Q._lower(), t[::-1]))
    # exactly at each trial's breakpoints and knots, and between them
    grid = np.linspace(0.0, 1.0, 257)
    for i, Q in enumerate(Qs):
        u = np.sort(np.concatenate([grid, trials.knots[i], np.asarray(Q.breakpoints)]))
        ref = np.asarray(Q.fn(u), dtype=float)
        assert _same_bits(trials.inner(u)[i], ref)
        assert _same_bits(trials.pairs(np.full(len(u), i), u), ref)
    # pairs mixing every trial, in no particular order
    rng = np.random.default_rng(5)
    rows = rng.integers(0, trials.size, 500)
    u = np.where(rng.random(500) < 0.3, trials.knots[rows, 0], rng.random(500))
    ref = np.array([float(Qs[r].fn(np.array([x]))[0]) for r, x in zip(rows, u)])
    assert _same_bits(trials.pairs(rows, u), ref)


@pytest.mark.parametrize("p", [1e-13, 0.3, 0.5, 1.0 - 1e-13])
def test_partition_edges_ascend_from_zero_to_one(p):
    for family, params in (("ES", {"p": p}), ("TCRE", {"p": p}), ("CRE", {})):
        tg = O._as_transform(D.catalog_lookup(family, params), None, None)
        kinks = [k for k in tg.kinks if 0.0 < k < 1.0]
        cache = O._StieltjesCache(tg, n_base=512, per_octave=6, t_floor=1e-45)
        for level in cache.levels:
            pts, gv = level["pts"], level["gv"]
            t_lo, u, t_hi = level["nodes"]
            assert pts[0] == 0.0 and pts[-1] == 1.0 and np.all(np.diff(pts) >= 0.0)
            assert gv[0] == 0.0 and gv[-1] == tg.center
            assert np.array_equal(level["dg"], np.diff(gv))
            assert len(t_lo) + len(u) + len(t_hi) == len(pts) - 1
            assert set(kinks) <= set(pts.tolist()), (family, params)
            # both end chains reach the floor, and the u-read cells lie
            # between the two end halves
            assert t_lo[0] < 1e-45 and t_hi[-1] < 1e-45
            assert np.all(np.diff(t_lo) > 0.0) and np.all(np.diff(t_hi) < 0.0)
            if u.size:
                assert t_lo[-1] <= u[0] and u[-1] <= 1.0 - t_hi[0]


def test_moments_match_a_dense_reference_on_every_worst_case():
    checked = 0
    for family, params in SWEEP:
        g = D.catalog_lookup(family, params)
        if g.weighted:
            res = B.worst_case_weighted(g, D.linear_weight(),
                                        B.MomentInfo(0.3, 1.7, weighted=True))
            Q = res.weighted_quantile
        else:
            Q = B.worst_case_bound(g, moments=PARITY_MOMENTS).quantile
        if Q is None:
            continue
        # the moments at six panels per octave, each power on its own.  Both
        # chains run to 1e-200, where the sliver left below them carries no
        # mass at double precision for any SWEEP tail; at the default 1e-60
        # the sliver of the alpha = 0.6 tails holds ~1e-13 of the variance,
        # and where it ends depends on the panel density
        edges = [0.0] + sorted(b for b in Q.breakpoints if 0.0 < b < 1.0) + [1.0]
        m = [0.0, 0.0]
        for p in (1, 2):
            for a, b in zip(edges[:-1], edges[1:]):
                m[p - 1] += integrate_segment(
                    lambda u: np.asarray(Q.fn(u), dtype=float) ** p, a, b,
                    fn_lo=(lambda t: np.asarray(Q._lower()(t), dtype=float) ** p)
                    if a == 0.0 else None,
                    fn_hi=(lambda t: np.asarray(Q._upper()(t), dtype=float) ** p)
                    if b == 1.0 else None,
                    t_floor=1e-200, per_octave=6)
        mean, var = O.quantile_moments(Q, t_floor=1e-200)
        ref_var = m[1] - m[0] * m[0]
        assert abs(mean - m[0]) <= 1e-14 * max(1.0, abs(m[0])), (family, params)
        assert abs(var - ref_var) <= 1e-14 * max(1.0, ref_var), (family, params)
        checked += 1
    assert checked == len(SWEEP)


@pytest.mark.parametrize("family", ["FGRE", "FGE"])
@pytest.mark.parametrize("alpha", [9.0, 12.0, 16.0, 20.0, 30.0])
def test_attainment_with_the_contact_point_near_an_end(family, alpha):
    # the worst case carries its mass within e^-alpha of u = 1 (FGRE) or
    # u = 0 (FGE), deep in the chain that the end half reads in distance
    g = D.catalog_lookup(family, {"alpha": alpha})
    res = B.worst_case_bound(g, moments=STD)
    attained = O.riskmetric_of_quantile(g, None, None, res.quantile)
    closed = B.closed_form_sup(family, {"alpha": alpha}, STD)
    assert abs(attained - closed) <= 1e-8 * max(1.0, abs(closed))


@pytest.mark.parametrize("left, right", [
    (("FGRE", {"alpha": 3.0}), ("FGE", {"alpha": 3.0})),
    (("FGRE", {"alpha": 16.0}), ("FGE", {"alpha": 16.0})),
    (("CRT", {"alpha": 0.6}), ("CT", {"alpha": 0.6})),
    (("DCRT", {"alpha": 3.0, "F_t": 0.3}), ("DCT", {"alpha": 3.0, "F_t": 0.7})),
    (("TCRE", {"p": 0.4}), ("DCE", {"F_t": 0.6})),
])
def test_mirrored_families_attain_the_same_value(left, right):
    # each pair's transforms mirror each other about u = 1/2, and so do the
    # partitions: both ends are chains in distance from their own end
    attained = []
    for family, params in (left, right):
        g = D.catalog_lookup(family, params)
        res = B.worst_case_bound(g, moments=PARITY_MOMENTS)
        attained.append(O.riskmetric_of_quantile(g, None, None, res.quantile))
    assert abs(attained[0] - attained[1]) <= 1e-12 * max(1.0, abs(attained[0]))


@pytest.mark.parametrize("p", [1e-13, 1.0 - 1e-13])
def test_kinks_next_to_an_end(p):
    # the kink's segment is narrower than any fixed tail cut-off.  The worst
    # case is two-point with its jump at the kink, so its ES is its upper
    # level exactly
    g = D.catalog_lookup("ES", {"p": p})
    (kink,) = O._as_transform(g, None, None).kinks
    res = B.worst_case_bound(g, moments=STD)
    Q = res.quantile
    attained = O.riskmetric_of_quantile(g, None, None, Q)
    assert kink == p and Q.breakpoints == (kink,)
    assert attained == pytest.approx(float(Q.fn(0.5 * (1.0 + kink))), rel=1e-12)
    # the jump sits at p itself, so each level carries its exact mass: the
    # certificate has the variance and attains the bound
    var = O.quantile_moments(Q)[1]
    assert abs(var - 1.0) <= 1e-10
    assert abs(attained - res.sup_value) <= 1e-8 * max(1.0, res.sup_value)
    uniform = O.riskmetric_of_quantile(g, None, None, O.QuantileFn.from_callable(lambda u: u))
    assert uniform == pytest.approx(0.5 * (1.0 + p), abs=1e-12)


@pytest.mark.xfail(
    strict=True,
    reason="the upper level of ES's worst case is mu + sigma*(1/q - 1)/L with "
    "q = 1 - p: at p = 1e-13, 1/q - 1 keeps ~3 digits, so the mean is 4.5e-10 "
    "off and the level 1.4e-3 off relative")
def test_es_certificate_mean_at_a_small_level():
    Q = B.worst_case_bound(D.catalog_lookup("ES", {"p": 1e-13}), moments=STD).quantile
    assert abs(O.quantile_moments(Q)[0]) <= 1e-10


def test_dce_attains_with_its_kink_next_to_zero():
    g = D.catalog_lookup("DCE", {"F_t": 1e-13})
    res = B.worst_case_bound(g, moments=STD)
    attained = O.riskmetric_of_quantile(g, None, None, res.quantile)
    assert abs(attained - res.sup_value) <= 1e-6 * max(1.0, abs(res.sup_value))


def test_identity_transform_reads_ghat_at_every_edge():
    # the identity's ghat, read in u or in distance from either end, is
    # the edge itself, and its quantile's mean comes out exact
    tg = D.custom_transform(lambda u: u)
    cache = O._StieltjesCache(tg, n_base=64, per_octave=4)
    for level in cache.levels:
        assert np.array_equal(level["gv"], level["pts"])
    Q = O.QuantileFn.from_callable(lambda u: 0.2 + u)
    assert O.riskmetric_of_quantile(tg, None, None, Q) == pytest.approx(0.7, abs=1e-12)


def test_a_non_finite_quantile_raises():
    Q = O.QuantileFn.from_callable(lambda u: np.where(u > 0.7, np.nan, u))
    with pytest.raises(NonFiniteValue):
        O.riskmetric_of_quantile(D.catalog_lookup("Gini", {}), None, None, Q)
    with pytest.raises(NonFiniteValue):
        O.quantile_moments(Q)


def test_stress_rejects_missing_moments_and_fractional_trials():
    g = D.catalog_lookup("GiniSemidiff", {})
    res = B.worst_case_bound(g, moments=STD)
    for result in (res, None):
        with pytest.raises(DomainError):
            O.feasibility_stress(g, None, None, None, trials=12, seed=1, result=result)
    for trials in (2.5, 12.0, "12"):
        with pytest.raises(DomainError):
            O.feasibility_stress(g, None, None, STD, trials=trials, seed=1, result=res)
    # a numpy integer is an integer
    assert (O.feasibility_stress(g, None, None, STD, trials=np.int64(12), seed=1).to_json()
            == O.feasibility_stress(g, None, None, STD, trials=12, seed=1).to_json())


def _crafted_draws(kind, cache):
    """(knots, levels) of trials whose knots sit exactly on edges of both
    levels (in each end half and in between), on the kinks, on an edge of
    the fine level only, and two inside one cell of the coarse level."""
    coarse, fine = (level["pts"] for level in cache.levels)
    t_lo, u, t_hi = cache.levels[0]["nodes"]
    c = len(t_lo) + len(u) // 2
    two = [coarse[c] + 0.3 * (coarse[c + 1] - coarse[c]),
           coarse[c] + 0.7 * (coarse[c + 1] - coarse[c])]
    only_fine = np.setdiff1d(fine[(fine > 0.05) & (fine < 0.95)], coarse)[7]
    edges = [coarse[np.searchsorted(coarse, 0.01)], coarse[len(t_lo) + len(u) // 3],
             coarse[np.searchsorted(coarse, 0.99)], only_fine]
    kinks = [k for k in cache.tg.kinks if 0.0 < k < 1.0] or [0.5]
    if kind == "two-point":
        knots = np.array([[q] for q in edges + kinks + two])
        levels = np.array([[-math.sqrt((1.0 - q) / q), math.sqrt(q / (1.0 - q))]
                           for (q,) in knots])
    elif kind == "three-point":
        knots = np.sort([two, [edges[0], kinks[0]], [kinks[0], edges[2]],
                         [edges[1], edges[3]]], axis=1)
        levels = np.tile([-1.2, 0.1, 0.9], (len(knots), 1))
    else:
        inside = np.sort([two + edges[:3] + kinks[:1], edges + two])
        knots = np.hstack([np.zeros((2, 1)), inside, np.ones((2, 1))])
        levels = np.cumsum(np.linspace(0.1, 0.9, 8 * len(knots)).reshape(len(knots), 8),
                           axis=1) - 2.0
    return knots, levels


@pytest.mark.parametrize("kind", [k for k in O._SHAPES if k not in O._FIXED])
def test_trial_sums_match_the_reference(kind):
    mu, sigma = PARITY_MOMENTS.mu, PARITY_MOMENTS.sigma
    for family, params in (("ES", {"p": 0.9}), ("TCRE", {"p": 0.5}),
                           ("DCT", {"alpha": 3.0, "F_t": 0.5})):
        tg = O._as_transform(D.catalog_lookup(family, params), None, None)
        for cache in (O._StieltjesCache(tg, n_base=512, per_octave=6, t_floor=1e-45),
                      O._StieltjesCache(tg, n_base=4096, per_octave=12)):
            crafted = _crafted_draws(kind, cache)
            knots, levels = (np.vstack(a) for a in zip(crafted, O._seeded_draws(kind, 3, 60)))
            s1, s2 = cache.values(O._Trials(kind, (knots, levels), mu, sigma))
            for i in range(len(knots)):
                Q = O._affine(O._drawn_shape(kind, knots[i], levels[i]), mu, sigma)
                r1, r2 = reference_stieltjes_sums(cache, Q)
                assert abs(s1[i] - r1) <= 1e-13 * max(1.0, abs(r1)), (family, i)
                assert abs(s2[i] - r2) <= 1e-13 * max(1.0, abs(r2)), (family, i)


@pytest.mark.parametrize("family, params", SWEEP)
def test_each_level_reads_ghat_on_its_own_edges(family, params):
    tg = O._as_transform(D.catalog_lookup(family, params), None, None)
    edges = [0.0] + sorted(k for k in tg.kinks if 0.0 < k < 1.0) + [1.0]
    for n_base, po, t_floor in ((512, 6, 1e-45), (2048, 12, 1e-60), (2048, 64, 1e-60),
                                (2048, 96, 1e-60)):
        cache = O._StieltjesCache(tg, n_base, po, t_floor)
        for (nb, p), level in zip(((n_base, po), (2 * n_base, 2 * po)), cache.levels):
            d_lo = O._half_chain(edges[1], nb, p, t_floor)[0]
            d_hi = O._half_chain(1.0 - edges[-2], nb, p, t_floor)[0]
            pts = level["pts"]
            a, b = len(d_lo), len(pts) - len(d_hi) + 1
            assert _same_bits(pts[:a], d_lo) and _same_bits(pts[b:], 1.0 - d_hi[-2::-1])
            # ghat at the level's own edges, each in the coordinate it is
            # read in; the upper end half's midpoint is an edge read in u
            direct = np.concatenate([[0.0], O._at(tg.ghat, d_lo[1:]),
                                     O._at(tg.ghat, pts[a:b]),
                                     O._at(tg.ghat_upper, d_hi[-2:0:-1]), [tg.center]])
            assert _same_bits(level["gv"], direct), (n_base, po, nb)


def test_seeded_draws_are_made_once_and_read_only():
    O._seeded_draws.cache_clear()
    for kind in [k for k in O._SHAPES if k not in O._FIXED]:
        knots, levels = O._seeded_draws(kind, 7, 48)
        assert not knots.flags.writeable and not levels.flags.writeable
        ks = range(O._SHAPES.index(kind), 48, len(O._SHAPES))
        assert len(knots) == len(levels) == len(ks)
        for i, k in enumerate(ks):
            ref_knots, ref_levels = O._draw(kind, np.random.default_rng([7, k]))
            assert _same_bits(knots[i], ref_knots) and _same_bits(levels[i], ref_levels)
        assert O._seeded_draws(kind, 7, 48)[0] is knots
    # a call after calls with other moments and trial counts, and one with
    # the draws made afresh, give the same report
    g = D.catalog_lookup("TCRE", {"p": 0.5})
    for moments, trials in ((STD, 12), (STD, 48), (PARITY_MOMENTS, 100)):
        O.feasibility_stress(g, None, None, moments, trials=trials, seed=7)
    warm = O.feasibility_stress(g, None, None, PARITY_MOMENTS, trials=48, seed=7)
    O._seeded_draws.cache_clear()
    cold = O.feasibility_stress(g, None, None, PARITY_MOMENTS, trials=48, seed=7)
    assert warm.to_json() == cold.to_json()

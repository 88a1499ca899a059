"""Acceptance suite.

Each test prints one pass line per criterion when run with ``pytest -s``;
under plain ``pytest -v`` the test names serve as the per-criterion report.
"""

import math

import numpy as np
import pytest

from riskbound import bounds as B
from riskbound import distortion as D
from riskbound import envelope as E
from riskbound import ingest as I
from riskbound import oracle as O

from conftest import SWEEP, STRESS_CONFIGS, contact_point, random_piecewise_smooth

MOMENTS = B.MomentInfo(0.5, 2.0)
STD = B.MomentInfo(0.0, 1.0)

CSCO = B.MomentInfo.from_variance(0.04371627, 0.191021554)
AAPL = B.MomentInfo.from_variance(0.123873016, 3.204667195)
EBAY = B.MomentInfo.from_variance(0.021860317, 0.39813437)


def _bound_pair(family, params, engine):
    g = D.catalog_lookup(family, params)
    if g.weighted:
        res = B.worst_case_weighted(
            g, D.linear_weight(), B.MomentInfo(MOMENTS.mu, MOMENTS.sigma, weighted=True),
            engine=engine)
    else:
        res = B.worst_case_bound(g, moments=MOMENTS, engine=engine)
    closed = B.closed_form_sup(family, params, MOMENTS)
    return res, closed


def test_criterion_1_closed_form_engine_equivalence():
    worst = 0.0
    for family, params in SWEEP:
        res, closed = _bound_pair(family, params, engine="numeric")
        rel = abs(res.sup_value - closed) / max(1e-12, abs(closed))
        worst = max(worst, rel)
        assert rel <= 1e-6, (family, params, res.sup_value, closed, rel)
    print(f"\n[criterion 1] closed-form vs numeric envelope over {len(SWEEP)} "
          f"configurations: max rel err {worst:.2e}  PASS")


def test_criterion_2_breakpoint_constants():
    checks = [
        ("FGRE", {"alpha": 3.0}, 0.94048, 5e-5),
        ("FGE", {"alpha": 3.0}, 0.05952, 5e-5),
        ("DCT", {"alpha": 2.0 / 3.0, "F_t": 0.2}, 0.06525, 5e-5),
        ("TCRE", {"F_t": 0.9}, 0.96178, 5e-5),
        ("TCRTE", {"alpha": 3.0, "F_t": 0.5}, 0.67365, 5e-5),
        ("DCE", {"F_t": 0.9}, 0.60834, 5e-5),
    ]
    for eq, params, expected, tol in checks:
        root = contact_point(eq, params)
        assert abs(root - expected) <= tol, (eq, params, root)
    for p in (0.25, 0.5, 0.81, 0.9):
        env = E.convex_envelope_analytic(
            D.default_transform(D.catalog_lookup("TNGini", {"p": p})))
        assert abs(env.meta["breakpoint"] - math.sqrt(p)) <= 1e-12
    print("\n[criterion 2] contact-point constants reproduced  PASS")


def test_criterion_3_worst_case_feasibility_and_attainment():
    worst_m = worst_v = worst_a = 0.0
    for family, params in SWEEP:
        g = D.catalog_lookup(family, params)
        if g.weighted:
            res = B.worst_case_weighted(
                g, D.linear_weight(),
                B.MomentInfo(MOMENTS.mu, MOMENTS.sigma, weighted=True))
            Q = res.weighted_quantile
        else:
            res = B.worst_case_bound(g, moments=MOMENTS)
            Q = res.quantile
        if res.degenerate or MOMENTS.sigma == 0.0:
            continue
        mean, var = O.quantile_moments(Q)
        em = abs(mean - MOMENTS.mu) / max(1.0, abs(MOMENTS.mu))
        ev = abs(var - MOMENTS.sigma ** 2) / MOMENTS.sigma ** 2
        attained = O.riskmetric_of_quantile(g, None, None, Q)
        ea = abs(attained - res.sup_value) / max(1.0, abs(res.sup_value))
        worst_m, worst_v, worst_a = (max(worst_m, em), max(worst_v, ev),
                                     max(worst_a, ea))
        assert em <= 1e-6, (family, params, mean)
        assert ev <= 1e-6, (family, params, var)
        assert ea <= 1e-5, (family, params, attained, res.sup_value)
    print(f"\n[criterion 3] attainment over {len(SWEEP)} configurations: "
          f"mean err {worst_m:.2e}, var err {worst_v:.2e}, value err {worst_a:.2e}  PASS")


def test_criterion_4_dominance_stress():
    worst_gap = math.inf
    for family, params in STRESS_CONFIGS:
        g = D.catalog_lookup(family, params)
        report = O.feasibility_stress(g, None, None,
                                      B.MomentInfo(MOMENTS.mu, MOMENTS.sigma),
                                      trials=1000, seed=20240808)
        assert report.max_observed <= report.bound + 1e-8 * (1.0 + abs(report.bound))
        worst_gap = min(worst_gap, report.gap)
    gini = O.feasibility_stress(D.catalog_lookup("GiniSemidiff", {}), None, None,
                                STD, trials=1000, seed=20240808)
    assert abs(gini.bound - gini.shape_max["uniform"]) < 1e-9
    print(f"\n[criterion 4] dominance over {len(STRESS_CONFIGS)} families x 1000 "
          f"trials: min gap {worst_gap:.2e}; uniform attains the Gini bound  PASS")


def _report_rows():
    return I.build_report([("CSCO", CSCO), ("AAPL", AAPL), ("EBAY", EBAY)],
                          kappa_grid=np.linspace(0.0, 1.0, 11),
                          p_grid=np.arange(0.90, 1.00, 0.01)).rows


def test_criterion_5_report_reproduction():
    rows = _report_rows()
    moments = {"CSCO": CSCO, "AAPL": AAPL, "EBAY": EBAY}
    groups = {}
    for r in rows:
        groups.setdefault((r["label"], r["family"], r["params"], r["grid_var"]),
                          []).append(r)
    for (label, family, params, grid_var), g_rows in groups.items():
        vals = [r["bound"] for r in g_rows]
        xs = [r["grid_value"] for r in g_rows]
        if grid_var == "kappa":
            mu = moments[label].mu
            slope = (vals[-1] - mu) / xs[-1]
            for x, v in zip(xs, vals):
                assert abs(v - (mu + slope * x)) <= 1e-12
            assert all(b - a > 0 for a, b in zip(vals[:-1], vals[1:]))
        else:
            assert all(b - a > 0 for a, b in zip(vals[:-1], vals[1:]))
    # AAPL strictly dominates at every grid point with positive loading
    by_key = {}
    for r in rows:
        by_key[(r["label"], r["family"], r["params"], r["grid_var"],
                round(r["grid_value"], 10))] = r["bound"]
    for (label, family, params, grid_var, x), v in by_key.items():
        if label == "AAPL":
            continue
        if grid_var == "kappa" and x == 0.0:
            continue
        assert by_key[("AAPL", family, params, grid_var, x)] > v
    print("\n[criterion 5] report: premium bounds linear-increasing in kappa, "
          "shortfalls increasing in p, AAPL dominates  PASS")


def test_criterion_5_csco_gini_premium_exact_arithmetic():
    bound = B.premium_bound("Gini", {}, 1.0, CSCO)
    expected = 0.04371627 + 2.0 * math.sqrt(0.191021554) / math.sqrt(3.0)
    assert abs(bound - expected) <= 1e-14
    print(f"\n[criterion 5] Gini premium on CSCO moments at kappa=1: "
          f"{bound:.7f} (independent arithmetic {expected:.7f})  PASS")


@pytest.mark.xfail(
    strict=True,
    reason="the stated target 0.548404 is not reproducible from the quoted "
    "moments: mu + 2*sigma/sqrt(3) = 0.5483898 exactly (1.4e-5 away, outside "
    "the 1e-5 window); 0.548404 matches the same formula only when sqrt(3) is "
    "truncated to 1.732")
def test_criterion_5_csco_gini_premium_stated_target():
    bound = B.premium_bound("Gini", {}, 1.0, CSCO)
    assert abs(bound - 0.548404) <= 1e-5


def test_criterion_6_special_value_identities():
    # unit-slope entropies equal sigma exactly
    for family in ("CRE", "CE"):
        res = B.worst_case_bound(D.catalog_lookup(family, {}), moments=STD)
        assert abs(res.sup_value - 1.0) <= 1e-10
    # the two Tsallis entropies share one bound
    for a in (0.6, 0.8, 1.5, 2.0, 3.0):
        ct = B.closed_form_sup("CT", {"alpha": a}, STD)
        crt = B.closed_form_sup("CRT", {"alpha": a}, STD)
        assert ct == crt
        e_ct = B.worst_case_bound(D.catalog_lookup("CT", {"alpha": a}), moments=STD)
        e_crt = B.worst_case_bound(D.catalog_lookup("CRT", {"alpha": a}), moments=STD)
        assert e_ct.sup_value == pytest.approx(e_crt.sup_value, rel=1e-9)
    # zero loading reduces every shortfall to the expected-shortfall bound
    for p in (0.2, 0.5, 0.9):
        expected = 0.5 + 2.0 * math.sqrt(p / (1.0 - p))
        for family, kw in (("GS", {}), ("CRES", {}), ("EGS", {"r": 3.0}),
                           ("CRTES", {"alpha": 3.0})):
            spec = B.ShortfallSpec(family, p=p, tau=0.0, **kw)
            assert B.shortfall_bound(spec, MOMENTS).sup_value == pytest.approx(
                expected, rel=1e-12)
    # the Gini shortfall is the extended-Gini shortfall at r = 2
    for p, tau in ((0.2, 0.3), (0.9, 0.5)):
        gs = B.closed_form_sup("GS", {"p": p, "tau": tau}, STD)
        egs = B.closed_form_sup("EGS", {"r": 2.0, "p": p, "tau": tau}, STD)
        assert gs == pytest.approx(egs, rel=1e-12)
    # Tsallis shortfall converges to the plain one as alpha -> 1
    lim = B.closed_form_sup("CRTES", {"alpha": 1.0 + 1e-6, "p": 0.9, "tau": 0.5}, STD)
    target = B.closed_form_sup("CRES", {"p": 0.9, "tau": 0.5}, STD)
    assert abs(lim - target) <= 1e-4
    print("\n[criterion 6] special-value identities hold  PASS")


def _check_envelope_properties(tg, n_grid=None):
    env = E.convex_envelope_numeric(tg) if n_grid is None else \
        E.convex_envelope_numeric(tg, n_grid)
    us = np.linspace(0.0, 1.0, 2049)
    assert np.all(env.value(us) <= tg.ghat(us) + 1e-9)
    assert abs(env.value(0.0) - float(tg.ghat(0.0))) <= 1e-10
    assert abs(env.value(1.0) - float(tg.ghat(1.0))) <= 1e-10
    slopes = env.slopes
    assert np.all(np.diff(slopes) >= -1e-10 * np.maximum(1.0, np.abs(slopes[:-1])))
    # idempotence of the envelope's piecewise representation
    pl = lambda u, e=env: np.interp(np.asarray(u, dtype=float), e.knots, e.values)
    env2 = E.convex_envelope_numeric(D.custom_transform(pl), 1025,
                                     extra_points=env.knots)
    assert np.max(np.abs(env2.value(env.knots) - env.values)) <= 1e-12
    return env


def test_criterion_7_envelope_property_suite():
    seen = set()
    for family, params in SWEEP:
        if family in seen:
            continue
        seen.add(family)
        tg = D.default_transform(D.catalog_lookup(family, params))
        _check_envelope_properties(tg)
    rng = np.random.default_rng(20240808)
    for k in range(50):
        raw, kinks = random_piecewise_smooth(rng)
        tg = D.custom_transform(raw, kinks=kinks)
        env = E.convex_envelope_numeric(tg, 1025)
        us = np.linspace(0.0, 1.0, 2049)
        assert np.all(env.value(us) <= tg.ghat(us) + 1e-9)
        assert abs(env.value(0.0) - float(tg.ghat(0.0))) <= 1e-10
        assert abs(env.value(1.0) - float(tg.ghat(1.0))) <= 1e-10
        slopes = env.slopes
        assert np.all(np.diff(slopes) >= -1e-10 * np.maximum(1.0, np.abs(slopes[:-1])))
        pl = lambda u, e=env: np.interp(np.asarray(u, dtype=float), e.knots, e.values)
        env2 = E.convex_envelope_numeric(D.custom_transform(pl), 1025,
                                         extra_points=env.knots)
        assert np.max(np.abs(env2.value(env.knots) - env.values)) <= 1e-12
        # scaling equivariance
        c = float(rng.uniform(0.3, 3.0))
        envc = E.convex_envelope_numeric(
            D.custom_transform(lambda u: c * np.asarray(raw(u)), kinks=kinks), 1025)
        scale = max(1.0, float(np.max(np.abs(env.value(us)))))
        assert np.allclose(envc.value(us), c * env.value(us), atol=1e-10 * c * scale)
    print(f"\n[criterion 7] envelope properties over {len(seen)} catalog transforms "
          "and 50 random piecewise-smooth customs  PASS")

import csv
import io
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from riskbound import bounds as B
from riskbound import distortion as D
from riskbound import ingest as I
from riskbound.errors import (
    DomainError,
    EmptySeries,
    MalformedCsv,
    NonNumericCell,
    ParamOutOfDomain,
    TooFewObservations,
)

from conftest import reference_build_report, reference_report_csv


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_load_returns_csv(tmp_path):
    path = _write(tmp_path, "date,ret\n2024-01-01,1\n2024-01-02,2\n2024-01-03,3\n")
    series = I.load_returns_csv(path, "ret")
    assert len(series) == 3
    assert series.skipped == 0
    assert np.allclose(series.values, [1.0, 2.0, 3.0])
    by_index = I.load_returns_csv(path, 1)
    assert np.allclose(by_index.values, series.values)
    # a series is labelled with its column's header cell, however selected
    assert series.label == by_index.label == I.load_returns_csv(path, "1").label == "ret"
    assert I.load_returns_csv(path, 1, label="mine").label == "mine"


def test_missing_file_raises():
    with pytest.raises(FileNotFoundError):
        I.load_returns_csv("/nonexistent/returns.csv", "ret")


def test_blank_cells_skipped_and_counted(tmp_path):
    rows = "\n".join(f"r{i},{i}" if i != 4 else f"r{i}," for i in range(10))
    path = _write(tmp_path, "label,ret\n" + rows + "\n")
    series = I.load_returns_csv(path, "ret")
    assert len(series) == 9
    assert series.skipped == 1


def test_csv_errors(tmp_path):
    path = _write(tmp_path, "a,b\n1,2\n3\n")
    with pytest.raises(MalformedCsv):
        I.load_returns_csv(path, "a")
    path = _write(tmp_path, "a,b\n1,x\n", name="bad.csv")
    with pytest.raises(NonNumericCell) as exc:
        I.load_returns_csv(path, "b")
    assert ":2:" in str(exc.value)
    path = _write(tmp_path, "a,b\n,1\n,2\n", name="empty_col.csv")
    with pytest.raises(EmptySeries):
        I.load_returns_csv(path, "a")
    path = _write(tmp_path, "a,b\n1,2\n", name="no_col.csv")
    with pytest.raises(MalformedCsv):
        I.load_returns_csv(path, "zzz")


def test_sample_moments():
    series = I.ReturnSeries("x", np.array([1.0, 2.0, 3.0]))
    pop = I.sample_moments(series, "population")
    assert pop.mu == pytest.approx(2.0)
    assert pop.sigma ** 2 == pytest.approx(2.0 / 3.0)
    samp = I.sample_moments(series, "sample")
    assert samp.sigma ** 2 == pytest.approx(1.0)
    const = I.sample_moments(I.ReturnSeries("c", np.array([4.0, 4.0, 4.0])))
    assert (const.mu, const.sigma) == (4.0, 0.0)
    with pytest.raises(TooFewObservations):
        I.sample_moments(I.ReturnSeries("s", np.array([1.0])))
    with pytest.raises(DomainError):
        I.sample_moments(series, "bayes")


def test_moments_permutation_invariant():
    rng = np.random.default_rng(0)
    vals = rng.normal(size=50)
    a = I.sample_moments(I.ReturnSeries("a", vals))
    b = I.sample_moments(I.ReturnSeries("b", rng.permutation(vals)))
    assert a.mu == pytest.approx(b.mu, abs=1e-15)
    assert a.sigma == pytest.approx(b.sigma, rel=1e-15)


def test_prices_to_simple_returns():
    rets = I.prices_to_simple_returns([100.0, 110.0, 99.0])
    assert rets == pytest.approx([10.0, -10.0])
    with pytest.raises(TooFewObservations):
        I.prices_to_simple_returns([100.0])


def test_return_series_validation():
    with pytest.raises(EmptySeries):
        I.ReturnSeries("x", np.array([]))
    with pytest.raises(DomainError):
        I.ReturnSeries("x", np.array([1.0, np.inf]))
    with pytest.raises(MalformedCsv):
        I.ReturnSeries("x", np.array([1.0, 2.0]), dates=("2024-01-02", "2024-01-01"))


def test_report_structure_and_properties():
    report = I.build_report(I.DEMO_MOMENTS,
                            kappa_grid=np.linspace(0.0, 1.0, 5),
                            p_grid=np.arange(0.90, 0.95, 0.01))
    rows = report.rows
    assert set(I.REPORT_COLUMNS) == set(rows[0])
    # linearity in kappa within each premium group
    for label, _ in I.DEMO_MOMENTS:
        for family, params in I.DEMO_PREMIUM_FAMILIES:
            key = ";".join(f"{k}={params[k]:g}" for k in sorted(params))
            group = [r for r in rows if r["label"] == label and r["family"] == family
                     and r["grid_var"] == "kappa" and r["params"] == key]
            mu = dict(I.DEMO_MOMENTS)[label].mu
            slope = group[-1]["bound"] - mu
            for r in group:
                assert r["bound"] == pytest.approx(mu + r["grid_value"] * slope,
                                                   abs=1e-12)
    # monotone delta column for shortfalls
    for r in rows:
        if r["grid_var"] == "p" and r["delta_vs_prev"] != "":
            assert r["delta_vs_prev"] > 0
    csv_text = report.to_csv()
    assert csv_text.splitlines()[0] == ",".join(I.REPORT_COLUMNS)


def test_report_grid_validation():
    with pytest.raises(DomainError):
        I.build_report(I.DEMO_MOMENTS, kappa_grid=[], p_grid=[0.9])
    with pytest.raises(DomainError):
        I.build_report(I.DEMO_MOMENTS, kappa_grid=[0.5], p_grid=[1.5])


def test_report_builds_no_envelope(request):
    expected = I.build_report(I.DEMO_MOMENTS).to_csv()
    label, moments = I.DEMO_MOMENTS[0]
    gs = B.shortfall_bound(B.ShortfallSpec("GS", p=0.9, tau=0.5), moments).sup_value
    request.getfixturevalue("no_envelopes")
    report = I.build_report(I.DEMO_MOMENTS)
    assert report.to_csv() == expected
    row = next(r for r in report.rows if r["label"] == label and r["family"] == "GS")
    assert row["grid_value"] == 0.9 and row["bound"] == gs


def test_undecodable_csv_is_malformed(tmp_path):
    path = tmp_path / "binary.csv"
    path.write_bytes(b"ret\n1.0\n\xff\xfe\x00\x81\n")
    with pytest.raises(MalformedCsv):
        I.load_returns_csv(str(path), "ret")


def test_report_rejects_non_finite_kappa():
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            I.build_report(I.DEMO_MOMENTS, kappa_grid=[0.0, bad], p_grid=[0.9])


def _assert_matches_reference(moment_sets, **kwargs):
    report = I.build_report(moment_sets, **kwargs)
    expected = reference_build_report(moment_sets, **kwargs)
    assert report.rows == expected
    assert repr(report.rows) == repr(expected)
    assert report.to_csv() == reference_report_csv(expected)


def test_demo_report_matches_the_row_by_row_reference():
    _assert_matches_reference(I.DEMO_MOMENTS)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=1, max_size=12),
       st.lists(st.floats(min_value=0.6, max_value=0.99), min_size=1, max_size=8))
def test_random_grids_match_the_row_by_row_reference(kappas, ps):
    _assert_matches_reference(I.DEMO_MOMENTS, kappa_grid=kappas, p_grid=ps)


@pytest.mark.parametrize("spec", [B.ShortfallSpec("ES", p=0.9, tau=0.5),
                                  B.ShortfallSpec("GS", p=0.9, tau=0.5, alpha=3.0)],
                         ids=["ES-tau", "GS-alpha"])
def test_report_refuses_a_shortfall_field_its_row_does_not_take(spec):
    with pytest.raises(ParamOutOfDomain):
        I.build_report(I.DEMO_MOMENTS[:1], premium_families=(), shortfall_specs=(spec,))


def test_extra_families_and_custom_shortfall_match_the_reference():
    base = D.catalog_lookup("CRE", {})
    custom = D.custom_distortion(base.g, g_prime=base.g_prime)
    premiums = I.DEMO_PREMIUM_FAMILIES + (("FGRE", {"alpha": 2.0}), ("GCRE", {"n": 3}),
                                          ("FGE", {"alpha": 0.6}), ("GCE", {"n": 2}))
    shortfalls = I.DEMO_SHORTFALLS + (B.ShortfallSpec("ES", p=0.5),
                                      B.ShortfallSpec("custom", p=0.9, tau=0.5,
                                                      custom_g=custom))
    moments = I.DEMO_MOMENTS[:2] + (("flat", B.MomentInfo(-0.2, 0.0)),)
    _assert_matches_reference(moments, premium_families=premiums,
                              shortfall_specs=shortfalls,
                              kappa_grid=np.linspace(0.0, 2.0, 4),
                              p_grid=np.linspace(0.9, 0.97, 3))


def test_report_evaluates_each_closed_form_once(monkeypatch):
    calls = Counter()
    real = B.closed_form_L

    def counted(spec, params):
        calls[spec.name, tuple(sorted(params.items()))] += 1
        return real(spec, params)

    monkeypatch.setattr(B, "closed_form_L", counted)
    kappas, ps = np.linspace(0.0, 1.0, 7), np.linspace(0.9, 0.98, 5)
    distinct = len(I.DEMO_PREMIUM_FAMILIES) + len(I.DEMO_SHORTFALLS) * len(ps)
    for n_sets in (1, 3):
        calls.clear()
        I.build_report(I.DEMO_MOMENTS[:n_sets], kappa_grid=kappas, p_grid=ps)
        assert len(calls) == distinct
        assert set(calls.values()) == {1}


def test_report_runs_the_engine_once_per_custom_shortfall_level(monkeypatch):
    base = D.catalog_lookup("CRE", {})
    custom = B.ShortfallSpec("custom", p=0.9, tau=0.5,
                             custom_g=D.custom_distortion(base.g, g_prime=base.g_prime))
    calls = Counter()
    real = B.worst_case_bound

    def counted(g, mode=None, extras=None, moments=None, **kw):
        calls[mode, tuple(sorted((extras or {}).items()))] += 1
        return real(g, mode, extras, moments, **kw)

    monkeypatch.setattr(B, "worst_case_bound", counted)
    ps = np.linspace(0.9, 0.96, 4)
    for n_sets in (1, 3):
        calls.clear()
        I.build_report(I.DEMO_MOMENTS[:n_sets], premium_families=(),
                       shortfall_specs=(custom,), kappa_grid=[1.0], p_grid=ps)
        assert len(calls) == len(ps)
        assert set(calls.values()) == {1}


def test_column_header_name_wins_over_index(tmp_path):
    path = _write(tmp_path, 'x,2,"ret,USD",1\n1,10,100,1000\n2,20,200,2000\n')
    assert list(I.load_returns_csv(path, "2").values) == [10.0, 20.0]
    assert list(I.load_returns_csv(path, "1").values) == [1000.0, 2000.0]
    assert list(I.load_returns_csv(path, "ret,USD").values) == [100.0, 200.0]
    assert list(I.load_returns_csv(path, "0").values) == [1.0, 2.0]
    assert list(I.load_returns_csv(path, 1).values) == [10.0, 20.0]
    for column in ("4", 4, -1, "x2", "²"):
        with pytest.raises(MalformedCsv):
            I.load_returns_csv(path, column)


QUOTED_LABELS = ("a,b", 'say "hi"', "two\nlines", " lead", "")


def test_to_csv_quotes_labels_like_the_csv_module():
    moments = tuple((label, mom) for label, (_, mom) in
                    zip(QUOTED_LABELS, I.DEMO_MOMENTS * 2))
    report = I.build_report(moments, kappa_grid=[0.0, 0.5], p_grid=[0.9, 0.95])
    text = report.to_csv()
    assert text == reference_report_csv(report.rows)
    read = [row["label"] for row in csv.DictReader(io.StringIO(text))]
    assert read == [row["label"] for row in report.rows]
    assert set(read) == set(QUOTED_LABELS)


def test_to_csv_of_rows_out_of_group_order():
    rows = list(I.build_report(I.DEMO_MOMENTS, kappa_grid=[0.0, 0.3, 1.0],
                               p_grid=[0.9, 0.93]).rows)
    rows += reference_build_report(I.DEMO_MOMENTS[:1], kappa_grid=[0.25], p_grid=[0.91])
    for seed in range(3):
        shuffled = [rows[i] for i in np.random.default_rng(seed).permutation(len(rows))]
        assert I.Report(rows=tuple(shuffled)).to_csv() == reference_report_csv(shuffled)


def test_to_csv_keeps_signed_zero_grid_values_apart():
    report = I.build_report(I.DEMO_MOMENTS, kappa_grid=[-0.0, 0.0, 0.5, -0.0],
                            p_grid=[0.9])
    text = report.to_csv()
    assert text == reference_report_csv(report.rows)
    kappas = [row["grid_value"] for row in csv.DictReader(io.StringIO(text))
              if row["grid_var"] == "kappa"]
    assert kappas == ["-0.0", "0.0", "0.5", "-0.0"] * (len(kappas) // 4)


def test_to_csv_writes_other_value_cells_through_the_csv_module():
    base = I.build_report(I.DEMO_MOMENTS[:1], kappa_grid=[0.0, 1.0], p_grid=[0.9]).rows
    odd = (dict(base[0], grid_value=0), dict(base[1], bound=np.float64(base[1]["bound"])),
           dict(base[1], delta_vs_prev=None), dict(base[1], bound="x,y"))
    numpy_moments = B.MomentInfo(np.float64(0.1), np.float64(2.0))
    blank = dict(base[0], label=None, family=None, params=None, grid_var=None)
    rows = (blank, base[0]) + odd + base[1:] + I.build_report(
        [("np", numpy_moments)], kappa_grid=[0.0, 1.0], p_grid=[0.9]).rows
    # csv.writer writes a float subclass as a plain float, unlike repr()
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        [I.REPORT_COLUMNS] + [[row[c] for c in I.REPORT_COLUMNS] for row in rows])
    assert I.Report(rows=rows).to_csv() == buf.getvalue()


def test_numpy_moments_report_like_plain_floats():
    moments = B.MomentInfo(np.float64(0.1), np.float64(2.0))
    report = I.build_report([("np", moments)], kappa_grid=[0.0, 1.0], p_grid=[0.9])
    assert report.to_csv() == reference_report_csv(report.rows)
    assert type(moments.mu) is float and type(moments.sigma) is float
    rec = B.worst_case_bound(D.catalog_lookup("Gini", {}), moments=moments).record()
    assert type(rec["mu"]) is float and type(rec["sigma"]) is float

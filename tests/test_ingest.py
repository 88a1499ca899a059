import numpy as np
import pytest

from riskbound import bounds as B
from riskbound import ingest as I
from riskbound.errors import (
    DomainError,
    EmptySeries,
    MalformedCsv,
    NonNumericCell,
    TooFewObservations,
)


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

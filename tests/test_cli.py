import io
import csv as csvmod
import json
import math

import numpy as np
import pytest

from riskbound import bounds as B
from riskbound import cli
from riskbound import distortion as D
from riskbound import oracle as O
from riskbound.errors import BoundViolated


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_families_listing(capsys):
    code, out, _ = run_cli(capsys, "families")
    assert code == 0
    names = [line.split("\t")[0] for line in out.strip().splitlines()]
    assert names == sorted(names)
    assert "GiniSemidiff" in names and "CRTES" in names


def test_bound_human_output(capsys):
    code, out, _ = run_cli(capsys, "bound", "--family", "GiniSemidiff",
                           "--mu", "0", "--sigma", "1")
    assert code == 0
    assert "sup = 0.577350" in out


def test_shortfall_es(capsys):
    code, out, _ = run_cli(capsys, "shortfall", "--family", "ES", "--p", "0.5",
                           "--tau", "0", "--mu", "0", "--sigma", "1")
    assert code == 0
    assert "sup = 1.000000" in out


def test_shortfall_builds_no_envelope(capsys, request):
    moments = B.MomentInfo(0.1, 1.3)
    expected = [B.shortfall_bound(B.ShortfallSpec("CRTES", p=p, tau=0.5, alpha=3.0),
                                  moments).sup_value for p in np.linspace(0.5, 0.9, 3)]
    request.getfixturevalue("no_envelopes")
    code, out, _ = run_cli(capsys, "shortfall", "--family", "CRTES", "--param", "alpha=3",
                           "--tau", "0.5", "--p-grid", "0.5:0.9:3",
                           "--mu", "0.1", "--sigma", "1.3", "--format", "json")
    assert code == 0
    assert [row["bound"] for row in json.loads(out)] == expected


@pytest.mark.parametrize("family", ["FGRE", "FGE"])
@pytest.mark.parametrize("alpha", ["34", "36", "40", "60", "200"])
def test_bound_at_large_fractional_alpha(capsys, family, alpha):
    code, out, err = run_cli(capsys, "bound", "--family", family, "--param",
                             f"alpha={alpha}", "--mu", "0", "--sigma", "1",
                             "--format", "json")
    assert code in (0, 3)
    if code == 0:
        assert math.isfinite(json.loads(out)["sup"])
    else:
        assert err.startswith("error: ")


def test_domain_error_exit_code(capsys):
    code, out, err = run_cli(capsys, "bound", "--family", "EGini", "--param", "r=1",
                             "--mu", "0", "--sigma", "1")
    assert code == 3
    assert "r > 1" in err


def test_usage_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "bound", "--family", "Gini", "--mu", "0")
    assert code == 2
    assert "usage" in err.lower()
    code, _, _ = run_cli(capsys, "premium", "--family", "Gini",
                         "--mu", "0", "--sigma", "1")
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        cli.run(["bound", "--family", "Gini", "--nonsense"])
    assert exc.value.code == 2


def test_mutually_exclusive_moment_sources(tmp_path, capsys):
    path = tmp_path / "r.csv"
    path.write_text("ret\n1\n2\n3\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "bound", "--family", "Gini", "--mu", "0",
                           "--sigma", "1", "--input", str(path))
    assert code == 2
    code, out, _ = run_cli(capsys, "bound", "--family", "Gini",
                           "--input", str(path), "--column", "ret")
    assert code == 0
    sigma = math.sqrt(2.0 / 3.0)
    assert f"sup = {2 * sigma / math.sqrt(3):.6f}" in out


def test_byte_identical_output(capsys):
    args = ("bound", "--family", "TGini", "--param", "p=0.81",
            "--mu", "0.5", "--sigma", "2", "--format", "json")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_quantile_roundtrip(capsys):
    # divergent tails need a denser export grid to survive linear re-parsing
    cases = (("GiniSemidiff", [], "1001", "bounded"),
             ("TGini", ["--param", "p=0.81"], "1001", "bounded"),
             ("ES", ["--param", "p=0.9"], "1001", "bounded"),
             ("CRE", [], "4001", "log-divergent"))
    for family, params, points, tail in cases:
        code, out, _ = run_cli(capsys, "quantile", "--family", family, *params,
                               "--mu", "0", "--sigma", "1", "--points", points)
        assert code == 0
        rows = list(csvmod.reader(io.StringIO(out)))
        assert rows[0] == ["u", "Q"]
        us = np.array([float(r[0]) for r in rows[1:]])
        qs = np.array([float(r[1]) for r in rows[1:]])
        Q = O.QuantileFn.from_grid(us, qs, interp="linear", tail_class=tail)
        g = D.catalog_lookup(family, {"p": 0.81} if family == "TGini" else
                             ({"p": 0.9} if family == "ES" else {}))
        val = O.riskmetric_of_quantile(g, None, None, Q)
        codeb, outb, _ = run_cli(capsys, "bound", "--family", family, *params,
                                 "--mu", "0", "--sigma", "1", "--format", "json")
        import json
        sup = json.loads(outb)["sup"]
        assert val == pytest.approx(sup, rel=1e-5)


def test_envelope_csv(capsys):
    code, out, _ = run_cli(capsys, "envelope", "--family", "TCRE",
                           "--param", "p=0.9", "--points", "101")
    assert code == 0
    rows = list(csvmod.reader(io.StringIO(out)))
    assert rows[0] == ["u", "ghat", "envelope", "slope"]
    data = np.array([[float(c) for c in r] for r in rows[1:]])
    assert np.all(data[:, 2] <= data[:, 1] + 1e-9)


def test_premium_grid(capsys):
    code, out, _ = run_cli(capsys, "premium", "--family", "Gini",
                           "--kappa-grid", "0:1:3", "--mu", "1", "--sigma", "1",
                           "--format", "csv")
    assert code == 0
    rows = list(csvmod.reader(io.StringIO(out)))
    assert rows[0] == ["kappa", "bound"]
    bounds = [float(r[1]) for r in rows[1:]]
    assert bounds[0] == pytest.approx(1.0)
    assert np.all(np.diff(bounds) > 0)


def test_report_subcommand(tmp_path, capsys):
    out_path = tmp_path / "report.csv"
    code, _, _ = run_cli(capsys, "report", "--kappa-grid", "0:1:3",
                         "--p-grid", "0.9:0.92:3", "--out", str(out_path))
    assert code == 0
    text = out_path.read_text(encoding="utf-8")
    assert text.splitlines()[0].startswith("label,family,params")
    assert "CSCO" in text and "AAPL" in text and "EBAY" in text


def test_grid_env_override(capsys, monkeypatch):
    monkeypatch.setenv(cli.GRID_ENV, "banana")
    code, _, _ = run_cli(capsys, "bound", "--family", "Gini", "--mu", "0",
                         "--sigma", "1", "--engine", "numeric")
    assert code == 2
    monkeypatch.setenv(cli.GRID_ENV, "5")
    code, _, _ = run_cli(capsys, "bound", "--family", "Gini", "--mu", "0",
                         "--sigma", "1", "--engine", "numeric")
    assert code == 2
    monkeypatch.setenv(cli.GRID_ENV, "257")
    code, out, _ = run_cli(capsys, "bound", "--family", "Gini", "--mu", "0",
                           "--sigma", "1", "--engine", "numeric")
    assert code == 0
    assert "sup = 1.154" in out


def test_verify_ok_and_failure(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "verify", "--family", "GiniSemidiff",
                           "--mu", "0", "--sigma", "1", "--trials", "36",
                           "--seed", "2")
    assert code == 0
    assert "[ok]" in out

    def boom(*args, **kwargs):
        raise BoundViolated("synthetic violation", observed=1.0, bound=0.5)

    monkeypatch.setattr(cli.O, "feasibility_stress", boom)
    code, out, _ = run_cli(capsys, "verify", "--family", "GiniSemidiff",
                           "--mu", "0", "--sigma", "1", "--trials", "12",
                           "--seed", "2")
    assert code == 4


def test_weighted_bound_cli(capsys):
    code, out, _ = run_cli(capsys, "bound", "--family", "WCRE",
                           "--mu", "0", "--sigma", "1")
    assert code == 0
    assert "sup = 1.000000" in out

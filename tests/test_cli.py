import argparse
import io
import csv as csvmod
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from riskbound import bounds as B
from riskbound import cli
from riskbound import distortion as D
from riskbound import ingest
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


@pytest.mark.parametrize("argv, err", [
    (["shortfall", "--family", "GS", "--param", "alpha=3", "--p", "0.9", "--tau", "0.5"],
     "GS: unexpected parameter(s) ['alpha']"),
    (["shortfall", "--family", "CRTES", "--param", "alpha=3", "--param", "bogus=1",
      "--p", "0.9", "--tau", "0.5"], "CRTES: unexpected parameter(s) ['bogus']"),
    (["shortfall", "--family", "ES", "--tau", "0.5", "--p", "0.9"],
     "ES: unexpected parameter(s) ['tau']"),
    (["shortfall", "--family", "ES", "--param", "tau=0.5", "--p-grid", "0.5:0.9:3"],
     "ES: unexpected parameter(s) ['tau']"),
    (["bound", "--family", "GS", "--param", "alpha=3", "--param", "p=0.9",
      "--param", "tau=0.5"], "GS: unexpected parameter(s) ['alpha']"),
])
def test_shortfall_refuses_stray_parameters_as_bound_does(capsys, argv, err):
    # by the catalog row's own check
    code, out, got = run_cli(capsys, *argv, "--mu", "0", "--sigma", "1")
    assert (code, out) == (3, "")
    assert got == f"error: {err}\n"


def test_shortfall_reads_tau_and_p_once(capsys):
    # tau defaults to 0, where a shortfall is ES; p comes from --p or --p-grid
    es = B.closed_form_sup("ES", {"p": 0.9}, B.MomentInfo(0.1, 1.3))
    for argv in (["--family", "GS"], ["--family", "GS", "--param", "tau=0"],
                 ["--family", "ES"], ["--family", "ES", "--tau", "0"]):
        code, out, _ = run_cli(capsys, "shortfall", *argv, "--p", "0.9",
                               "--mu", "0.1", "--sigma", "1.3", "--format", "json")
        assert code == 0
        assert json.loads(out) == [{"p": 0.9, "bound": es}], argv
    code, out, _ = run_cli(capsys, "shortfall", "--family", "GS", "--param", "p=0.5",
                           "--p", "0.9", "--mu", "0", "--sigma", "1")
    assert code == 2 and out == ""


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


def test_a_window_the_numeric_grid_cannot_sample_exits_3(capsys):
    code, out, err = run_cli(capsys, "bound", "--family", "TCRE", "--param",
                             "p=0.9999999999999", "--engine", "numeric",
                             "--mu", "0", "--sigma", "1")
    assert code == 3 and out == ""
    assert "cannot sample" in err


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


def test_quantile_of_a_weight_without_inverse_names_the_weight(capsys):
    # DWGCE's name implies no weight, so the CLI reads it without Psi_inverse:
    # its bound is not degenerate, and its quantile of X cannot be recovered
    base = ["--family", "DWGCE", "--param", "F_t=0.5", "--mu", "0", "--sigma", "1"]
    code, out, _ = run_cli(capsys, "bound", *base)
    assert code == 0 and "degenerate = False" in out
    code, out, err = run_cli(capsys, "quantile", *base)
    assert (code, out) == (3, "")
    assert "weight" in err and "degenerate" not in err


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


def test_verify_computes_the_bound_once(capsys, monkeypatch):
    real = B.worst_case_bound
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].family)
        return real(*args, **kwargs)

    monkeypatch.setattr(B, "worst_case_bound", counted)
    code, out, _ = run_cli(capsys, "verify", "--family", "TCRE", "--param", "p=0.5",
                           "--mu", "0.3", "--sigma", "1.7", "--trials", "24")
    assert code == 0
    assert calls == ["TCRE"]


def test_import_leaves_scipy_special_unloaded():
    # scipy.special is most of the import time; it loads on first use
    code = ("import sys, riskbound\n"
            "from riskbound import cli\n"
            "print('scipy.special' in sys.modules)\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.abspath(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=120)
    assert out.stdout.strip() == "False"


def test_weighted_bound_cli(capsys):
    code, out, _ = run_cli(capsys, "bound", "--family", "WCRE",
                           "--mu", "0", "--sigma", "1")
    assert code == 0
    assert "sup = 1.000000" in out


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    built = []
    real = argparse.ArgumentParser.add_subparsers

    def counted(self, *args, **kwargs):
        built.append(self.prog)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counted)
    cli.build_parser.cache_clear()
    try:
        first = run_cli(capsys, "premium", "--family", "CT", "--param", "alpha=3",
                        "--kappa", "1", "--mu", "0", "--sigma", "1")
        # a second --param list must not see the first call's entries
        second = run_cli(capsys, "premium", "--family", "EGini", "--param", "r=1.5",
                         "--kappa", "1", "--mu", "0", "--sigma", "1")
        parser = cli.build_parser()
        params = [parser.parse_args(["bound", "--family", "TGini", "--param", p]).param
                  for p in ("p=0.5", "p=0.9")]
    finally:
        cli.build_parser.cache_clear()
    assert built == ["riskbound"]
    assert first == (0, f"kappa = 1.000000  bound = {1 / math.sqrt(5):.6f}\n", "")
    expected = B.premium_bound("EGini", {"r": 1.5}, 1.0, B.MomentInfo(0.0, 1.0))
    assert second == (0, f"kappa = 1.000000  bound = {expected:.6f}\n", "")
    assert params == [["p=0.5"], ["p=0.9"]]


@pytest.mark.parametrize("argv, code", [
    (("report", "--kappa-grid", "0:nan:3"), 2),
    (("report", "--kappa-grid", "0:inf:3"), 2),
    (("report", "--p-grid", "0.9:nan:2"), 2),
    (("premium", "--family", "Gini", "--kappa-grid", "0:inf:3", "--mu", "0", "--sigma", "1"), 2),
    (("premium", "--family", "Gini", "--kappa", "nan", "--mu", "0", "--sigma", "1"), 3),
    (("premium", "--family", "Gini", "--kappa", "inf", "--mu", "0", "--sigma", "1"), 3),
])
def test_non_finite_kappa_is_rejected(capsys, argv, code):
    got, out, err = run_cli(capsys, *argv)
    assert (got, out) == (code, "")
    assert "nan" in err or "inf" in err


def _unreadable_input(tmp_path, kind):
    if kind == "input-dir":
        return ("--input", str(tmp_path))
    if kind == "input-binary":
        path = tmp_path / "binary.csv"
        path.write_bytes(b"\x7fELF\x02\x01\x01\x00" + bytes(range(256)))
        return ("--input", str(path))
    return ("--out", str(tmp_path))


@pytest.mark.parametrize("kind", ["input-dir", "input-binary", "out-dir"])
def test_unreadable_files_exit_with_one_error_line(tmp_path, capsys, kind):
    code, out, err = run_cli(capsys, "report", "--kappa-grid", "0:1:2", "--p-grid",
                             "0.9:0.95:2", *_unreadable_input(tmp_path, kind))
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("family, params", [("Gini", []), ("CT", ["--param", "alpha=3"]),
                                            ("FGRE", ["--param", "alpha=2"])])
def test_premium_grid_matches_one_closed_form_per_point(capsys, family, params):
    code, out, _ = run_cli(capsys, "premium", "--family", family, *params,
                           "--kappa-grid", "0:2.3:7", "--mu", "0.3", "--sigma", "1.7",
                           "--format", "json")
    assert code == 0
    parsed = {k: float(v) for k, v in (p.split("=") for p in params[1:])}
    expected = [0.3 + k * B.closed_form_sup(family, parsed, B.MomentInfo(0.0, 1.7))
                for k in np.linspace(0.0, 2.3, 7).tolist()]
    assert [row["bound"] for row in json.loads(out)] == expected


def test_points_below_two_is_a_usage_error(capsys):
    for argv in (["envelope", "--family", "Gini", "--points", "-3"],
                 ["quantile", "--family", "Gini", "--mu", "0", "--sigma", "1",
                  "--points", "0"]):
        with pytest.raises(SystemExit) as exc:
            cli.run(argv)
        assert exc.value.code == 2
        assert "at least 2 points" in capsys.readouterr().err


def test_premium_rejects_stray_parameter(capsys):
    code, out, err = run_cli(capsys, "premium", "--family", "CRE", "--param", "alpha=2",
                             "--kappa", "1", "--mu", "0", "--sigma", "1")
    assert (code, out) == (3, "")
    assert err == "error: CRE: unexpected parameter(s) ['alpha']\n"


COLUMNS_CSV = 'date,"ret,USD",2024\nd1,1,-3\nd2,2,5\nd3,4,2\nd4,-1,0\n'


@pytest.mark.parametrize("column, label, values", [
    ("2024", "2024", [-3.0, 5.0, 2.0, 0.0]),
    ("ret,USD", "ret,USD", [1.0, 2.0, 4.0, -1.0]),
    ("1", "ret,USD", [1.0, 2.0, 4.0, -1.0]),
])
def test_column_by_header_name_then_index(tmp_path, capsys, column, label, values):
    path = tmp_path / "returns.csv"
    path.write_text(COLUMNS_CSV, encoding="utf-8")
    mom = B.MomentInfo.from_variance(np.mean(values), np.var(values))
    code, out, err = run_cli(capsys, "bound", "--family", "Gini", "--format", "json",
                             "--input", str(path), "--column", column)
    assert (code, err) == (0, "")
    assert json.loads(out)["sup"] == B.worst_case_bound(
        D.catalog_lookup("Gini", {}), moments=mom).sup_value
    code, out, err = run_cli(capsys, "report", "--kappa-grid", "0:1:3", "--p-grid",
                             "0.9:0.95:2", "--input", str(path), "--column", column)
    assert (code, err) == (0, "")
    assert out == ingest.build_report([(label, mom)], kappa_grid=np.linspace(0, 1, 3),
                                      p_grid=np.linspace(0.9, 0.95, 2)).to_csv()
    assert {row["label"] for row in csvmod.DictReader(io.StringIO(out))} == {label}

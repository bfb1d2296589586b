"""Command-line front end: parsing, routing, exit codes, serialization."""

import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

import fbmlocal
from fbmlocal import cli
from fbmlocal.cli import _build_parser, main, parse_eps
from fbmlocal.acceptance import CHECKS, FAMILIES
from fbmlocal.experiments import ExponentFit, Levy2dReport, ScanRow, ScanTable, local_independence_scan
from fbmlocal.sampler import load_samples

EPS4 = (0.125, 0.0625, 0.03125, 0.015625)


def test_parse_eps_forms():
    assert parse_eps("0.125,0.0625") == (0.125, 0.0625)
    assert parse_eps("0.125") == (0.125,)
    assert parse_eps("0.125:0.03125:0.5") == (0.125, 0.0625, 0.03125)
    for bad in ("", "1:2:0.5", "0.1:0.2:0.5:0.9", "0.1:0.01:2.0"):
        with pytest.raises(ValueError):
            parse_eps(bad)


def test_constants_output(capsys):
    assert main(["constants", "--H", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "a_H = 1, r_H = 0" in out


def test_mi_brownian_spec_example(capsys):
    assert main(["mi", "--H", "0.5", "--t1", "0", "--t2", "1", "--eps", "0.125", "--n", "32"]) == 0
    out = capsys.readouterr().out
    data = [l for l in out.strip().split("\n") if not l.startswith("#")]
    mi = float(data[1].split(",")[0])
    assert abs(mi) < 1e-10


def test_mi_infinite_serializes_as_inf(capsys):
    # both 3-point grids hold the increment (0, 0.125), so sigma = 1
    argv = ["mi", "--H", "0.7", "--t1", "0", "--t2", "0.125", "--eps", "0.125", "--n", "3"]
    assert main(argv) == 0
    row = capsys.readouterr().out.strip().split("\n")[-1].split(",")
    assert row[0] == "inf" and row[2] == "inf"
    assert main(argv + ["--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mi"] == "inf" and doc["hs_upper"] == "inf"


def test_cov_command(capsys):
    assert main(["cov", "--H", "0.75", "--t1", "1", "--t2", "2"]) == 0
    out = capsys.readouterr().out
    val = float([l for l in out.strip().split("\n") if not l.startswith("#")][1])
    assert val == pytest.approx(math.sqrt(2.0), rel=1e-12)


@pytest.mark.parametrize("h, t1, t2, fmt", [("0.9", "1e300", "2e300", "csv"), ("0.99", "1e160", "1e160", "json")])
def test_cov_refuses_an_overflowed_value(h, t1, t2, fmt, capsys):
    # once nan, once inf; neither is written (inf means infinite information)
    assert main(["cov", "--H", h, "--t1", t1, "--t2", t2, "--format", fmt]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("fbmlocal: error: covariance overflows float64")


def test_angle_rejects_eps_schedule(capsys):
    assert main(["angle", "--H", "0.7", "--eps", "0.125,0.0625"]) == 1
    err = capsys.readouterr().err
    assert "single --eps" in err


def test_validation_exit_codes(capsys):
    assert main(["angle", "--H", "1.5", "--eps", "0.125"]) == 1
    assert main(["thm21", "--H", "0.5"]) == 1  # |2H-1| < 0.1 precondition
    capsys.readouterr()


@pytest.mark.parametrize("command", ["angle", "mi"])
@pytest.mark.parametrize("flags, message", [
    (["--H", "0.7", "--eps", "0"], "eps values must be positive"),
    (["--H", "0.7", "--eps", "-0.1"], "eps values must be positive"),
    (["--H", "0.7", "--n", "0"], "need at least 2 grid points, got n=0"),
    (["--H", "0.7", "--n", "1"], "need at least 2 grid points, got n=1"),
    (["--H", "1.5", "--eps", "-0.1"], "Hurst index must lie in (1e-09, 0.999999999), got 1.5"),
], ids=["eps-0", "eps-negative", "n-0", "n-1", "hurst-first"])
def test_window_commands_name_a_bad_eps_or_grid(command, flags, message, capsys):
    # the window is validated before any spacing is raised to -H
    assert main([command, *flags]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"fbmlocal: error: {message}\n"


@pytest.mark.parametrize("command, flags", [
    ("cov", ["--H", "0.75"]),
    ("angle", ["--H", "0.75", "--eps", "0.125"]),
    ("scan", ["--H", "0.75", "--eps", "0.125,0.0625,0.03125,0.015625"]),
])
@pytest.mark.parametrize("t1, t2, decimal", [
    ("-1e-3", "1", ("-0.001", "1")),
    ("-2", "-1.5E+1", ("-2", "-15")),
    ("-1.25e0", "-.5e1", ("-1.25", "-5")),
], ids=["t1", "t2", "both"])
def test_time_flags_take_negative_values_in_exponent_form(command, flags, t1, t2, decimal, capsys):
    # argparse read '-1e-3' as a flag and exited 1 with "expected one
    # argument"; the value is the same run as its decimal spelling
    assert main([command, *flags, "--t1", decimal[0], "--t2", decimal[1]]) == 0
    want = capsys.readouterr()
    assert main([command, *flags, "--t1", t1, "--t2", t2]) == 0
    assert capsys.readouterr() == want


@pytest.mark.parametrize("command", ["thm22", "complement"])
def test_truncation_reports_refuse_h_near_one_half(command, capsys):
    # H = 0.5 leaves nothing but round-off to fit a rate to
    assert main([command, "--H", "0.5", "--n", "8", "--eps", "0.125,0.0625,0.03125,0.015625"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "fbmlocal: error: rate fit needs |2H-1| >= 0.1\n"


def test_scan_keeps_its_table_but_fits_no_slope_near_one_half(capsys):
    assert main(["scan", "--H", "0.5", "--n", "8", "--eps", "0.125,0.0625,0.03125,0.015625"]) == 0
    out, err = capsys.readouterr()
    assert "# summary = no slope fit (rate fit needs |2H-1| >= 0.1)\n" in out
    assert "fit_cos_slope" not in out
    assert len([line for line in out.splitlines() if not line.startswith("#")]) == 5  # header + 4 rows
    assert err == ""


@pytest.mark.parametrize("n", ["1", "3"])
def test_complement_rejects_grid_below_4(n, capsys):
    assert main(["complement", "--H", "0.75", "--n", n]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "grid_n must be at least 4" in err


def test_scan_csv_stdout(capsys):
    code = main(["scan", "--H", "0.75", "--t1", "0", "--t2", "1",
                 "--eps", "0.125,0.0625,0.03125,0.015625,0.0078125", "--n", "16"])
    assert code == 0
    out = capsys.readouterr().out
    assert "# H = 0.75" in out
    assert "# summary = " in out
    data = [l for l in out.strip().split("\n") if not l.startswith("#")]
    assert data[0].startswith("eps,cos_angle,mi")
    assert len(data) == 6


def test_scan_json_stdout(capsys):
    code = main(["scan", "--H", "0.7", "--eps", "0.125,0.0625,0.03125,0.015625",
                 "--n", "12", "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["H"] == 0.7
    assert "summary" in doc
    assert len(doc["rows"]) == 4


def test_out_routing(tmp_path, capsys):
    target = tmp_path / "scan.csv"
    code = main(["scan", "--H", "0.7", "--eps", "0.125,0.0625,0.03125,0.015625",
                 "--n", "12", "--out", str(target)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "slope" in printed  # one-line summary on stdout
    text = target.read_text()
    assert text.count("\n") >= 5
    assert "# summary = " in text


def test_csv_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["scan", "--H", "0.6", "--eps", "0.125,0.0625,0.03125,0.015625", "--n", "12"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_strict_escalates_quality_flags(capsys):
    args = ["scan", "--H", "0.95", "--eps", "0.0001,0.00001,0.000001", "--n", "48"]
    assert main(args) == 0
    assert "quality flag" in capsys.readouterr().err
    assert main(args + ["--strict"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command, h, flag", [
    ("thm21", "0.02", "fbmlocal: quality flag: grid bias: dual-Gram r_H on 63 cells is -35.0% off the exact r_H (> 5%)\n"),
    ("thm21", "0.98", "fbmlocal: quality flag: MI regime: MI/(cos^2/2) - 1 = 0.536 at eps 0.00390625 (> 0.1)\n"),
    ("thm22", "0.98", "fbmlocal: quality flag: MI regime: MI/(cos^2/2) - 1 = 0.806 at eps 0.00390625 (> 0.1)\n"),
], ids=["thm21-grid-bias", "thm21-mi-regime", "thm22-mi-regime"])
def test_a_rate_report_outside_its_regime_is_flagged(command, h, flag, capsys):
    # near H = 0 the 63-cell constant misses r_H by the dual-Gram route's
    # grid bias, and near H = 1 MI is far from cos^2/2 at every eps; both
    # printed exit 0 unflagged.  The flag moves no artifact byte
    assert main([command, "--H", h]) == 0
    plain = capsys.readouterr()
    assert plain.err == flag
    assert main([command, "--H", h, "--strict"]) == 2
    assert capsys.readouterr() == plain


@pytest.mark.parametrize("h", ["0.2", "0.25", "0.7", "0.75", "0.8"])
@pytest.mark.parametrize("command", ["thm21", "thm22"])
def test_rate_reports_raise_no_flag_at_the_gate_h(command, h, capsys):
    # the grid bias is at most 1.48% here and MI/(cos^2/2) - 1 at most
    # 0.0025 (thm21) and 0.0175 (thm22)
    assert main([command, "--H", h, "--strict"]) == 0
    assert capsys.readouterr().err == ""


def test_adjacency_command(capsys):
    assert main(["adjacency", "--H", "0.8"]) == 0
    out = capsys.readouterr().out
    assert "strictly increasing: True" in out
    data = [l for l in out.strip().split("\n") if not l.startswith("#")]
    assert data[0] == "n,mi,mi_alt_eps"


def test_pastfuture_command(capsys):
    assert main(["pastfuture", "--H", "0.8", "--T", "8", "--n", "32"]) == 0
    out = capsys.readouterr().out
    assert "margin" in out


def test_sample_command(tmp_path, capsys):
    target = tmp_path / "paths.bin"
    code = main(["sample", "--H", "0.75", "--n", "64", "--m", "4", "--seed", "7",
                 "--out", str(target)])
    assert code == 0
    assert "wrote 4 x 64" in capsys.readouterr().out
    p = load_samples(target)
    assert p.data.shape == (4, 64)
    assert p.dt == 1.0
    assert main(["sample", "--n", "32", "--dt", "0.25", "--out", str(target)]) == 0
    assert load_samples(target).dt == 0.25
    assert main(["sample", "--H", "0.75", "--n", "64"]) == 1  # --out required
    capsys.readouterr()


@pytest.mark.parametrize("n, method", [("8", "cholesky"), ("64", "cholesky"), ("65", "circulant"), ("4096", "circulant")])
def test_sample_reports_its_route(n, method, tmp_path, capsys):
    # the route follows from n alone: stdout and the sidecar name it
    target = tmp_path / "paths.bin"
    assert main(["sample", "--n", n, "--m", "4", "--seed", "3", "--out", str(target)]) == 0
    assert f"method={method})" in capsys.readouterr().out
    assert json.loads((tmp_path / "paths.bin.json").read_text())["method"] == method
    assert load_samples(target).method == method


@pytest.mark.parametrize("n", ["0", "-4"])
def test_sample_rejects_empty_grid_with_horizon(n, tmp_path, capsys):
    # the sampler rejects the grid before anything is written
    target = tmp_path / "paths.bin"
    assert main(["sample", "--n", n, "--out", str(target)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "fbmlocal: error: n and m must be at least 1\n"
    assert not target.exists()


@pytest.mark.parametrize("argv, message", [
    (["sample", "--H", "0.7", "--n", "4", "--dt", "1e300", "--out", "{tmp}/x.bin"],
     "increment autocovariance overflows float64"),
    (["adjacency", "--H", "0.8", "--eps", "1e300", "--out", "{tmp}/x.csv"],
     "increment autocovariance overflows float64"),
    # a finite increment column whose circulant transform overflows
    (["sample", "--H", "0.99", "--n", "4096", "--m", "4", "--dt", "1e155", "--out", "{tmp}/x.bin"],
     "circulant spectrum overflows float64 at n=4096, H=0.99, dt=1e+155\n"),
], ids=["sample", "adjacency", "sample-spectrum"])
def test_an_overflowing_spacing_is_a_named_error(argv, message, tmp_path, capsys):
    # dt^2H overflowed as a Python float and ended in a traceback
    assert main([a.replace("{tmp}", str(tmp_path)) for a in argv]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"fbmlocal: error: {message}")
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_rank_tolerance_is_fixed(capsys):
    # no flag sets it (see angle-rtol below); the output still records it
    assert main(["angle", "--H", "0.8", "--eps", "0.0625", "--n", "64"]) == 0
    assert "# rtol = 1e-10\n" in capsys.readouterr().out


@pytest.mark.parametrize("argv, bad", [
    (["cov", "--H", "0.75", "--t1", "nan", "--t2", "1"], "'nan'"),
    (["scan", "--H", "0.7", "--eps", "0.125,nan"], "'0.125,nan'"),
    (["scan", "--H", "0.7", "--eps", "0.125:inf:0.5"], "'0.125:inf:0.5'"),
    (["levy2d", "--H", "0.7", "--eps", "nan"], "'nan'"),
    (["thm22", "--H", "0.7", "--T", "nan"], "'nan'"),
    (["thm22", "--H", "0.7", "--T", "inf"], "'inf'"),
    (["pastfuture", "--H", "0.7", "--T=-inf"], "'-inf'"),
    (["complement", "--H", "0.7", "--T", "nan"], "'nan'"),
    (["sample", "--n", "4096", "--dt", "nan", "--out", "{tmp}/paths.bin"], "'nan'"),
], ids=["cov-t1", "scan-eps-list", "scan-eps-range", "levy2d-eps", "thm22-T-nan", "thm22-T-inf",
        "pastfuture-T", "complement-T", "sample-dt"])
def test_non_finite_flags_are_rejected(argv, bad, tmp_path, capsys):
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects a flag by exiting
        code = exc.code
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert bad in err
    assert not (tmp_path / "paths.bin").exists()


@pytest.mark.parametrize("h, t2, eps, n", [(0.8, 1.0, 0.0625, 64), (0.3, 0.5, 0.1, 9), (0.75, 2.0, 0.25, 17)])
def test_angle_and_mi_equal_the_scan_row(h, t2, eps, n, capsys):
    row = local_independence_scan(h, 0.0, t2, (eps,), n).rows[0]
    args = ["--H", str(h), "--t1", "0", "--t2", str(t2), "--eps", str(eps), "--n", str(n), "--format", "json"]
    assert main(["angle", *args]) == 0
    angle = json.loads(capsys.readouterr().out)
    assert main(["mi", *args]) == 0
    mi = json.loads(capsys.readouterr().out)
    assert not row.skipped
    assert (angle["cos_angle"], angle["rank_a"], angle["rank_b"], angle["cond"]) == (
        row.cos, row.rank_a, row.rank_b, row.cond)
    assert (mi["mi"], mi["hs_lower"], mi["hs_upper"]) == (row.mi, row.hs_lower, row.hs_upper)
    assert angle["ill_conditioned"] == mi["ill_conditioned"] == row.ill_conditioned


def test_check_all_single(capsys, tmp_path):
    report = tmp_path / "report.json"
    code = main(["check-all", "--only", "brownian", "--json", str(report)])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS")
    doc = json.loads(report.read_text())
    assert doc["results"][0]["name"] == "brownian-exactness"
    assert doc["results"][0]["passed"] is True


def test_check_all_report_serializes_numpy_verdicts(capsys, tmp_path):
    # mi-route-equivalence produces its verdict as a numpy bool; the
    # report must still come out as strict JSON with plain types
    report = tmp_path / "report.json"
    code = main(["check-all", "--only", "mi-route-equivalence", "--json", str(report)])
    assert code == 0
    capsys.readouterr()
    doc = json.loads(report.read_text())
    row = doc["results"][0]
    assert row["passed"] is True
    assert isinstance(row["seconds"], float)


def test_check_all_unknown_name(capsys):
    assert main(["check-all", "--only", "no-such-check"]) == 1
    capsys.readouterr()


def test_check_all_failing_check_exits_1(capsys, monkeypatch):
    monkeypatch.setitem(CHECKS, "brownian-exactness", lambda: (False, "forced red"))
    assert main(["check-all", "--only", "brownian-exactness"]) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith("FAIL")
    assert "1 of 1 acceptance checks failed" in captured.err


def test_only_aliases_cover_known_checks():
    for names in FAMILIES.values():
        for name in names:
            assert name in CHECKS


def test_no_command_and_unknown_command(capsys):
    assert main([]) == 1
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1
    capsys.readouterr()


_FIT_KEYS = ["slope", "intercept", "r2", "theory_slope", "theory_gap", "correction_order", "eps_lo", "eps_hi", "n_used"]


@pytest.mark.parametrize("argv, keys", [
    (["thm21", "--H", "0.75"], [
        "fit_cos", "fit_mi", "r_h_extrapolated", "r_h_theory", "r_h_spectral", "r_h_rel_gap",
        "r_h_dual_gram", "mi_cos_ratio", "constant_inconclusive", "table",
    ]),
    (["thm22", "--H", "0.75"], [
        "fit_cos", "fit_mi", "fit_cos_2t", "fit_mi_2t", "truncation_sensitivity", "truncation_dominated",
        "table", "table_2t",
    ]),
    (["adjacency", "--H", "0.8"], [
        "n_schedule", "mi", "mi_alt_eps", "eps", "alt_eps", "strictly_increasing", "min_doubling_growth",
        "eps_invariance_gap",
    ]),
    (["pastfuture", "--H", "0.8", "--T", "8", "--n", "32"], [
        "value", "value_2n", "value_2t", "drift_n", "drift_t", "margin",
    ]),
    (["complement", "--H", "0.75"], [
        "fit_hs", "fit_hs_2t", "truncation_sensitivity", "truncation_dominated", "table", "table_2t",
    ]),
    (["levy2d", "--H", "0.75", "--n", "5"], ["fit_cos", "table"]),
], ids=["thm21", "thm22", "adjacency", "pastfuture", "complement", "levy2d"])
def test_report_json_key_order(argv, keys, capsys):
    # reports serialize their fields in declaration order, then the run's
    # config and summary; every fit carries the ExponentFit fields in order
    assert main(argv + ["--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == keys + ["config", "summary"]
    for key in keys:
        if key.startswith("fit_"):
            assert list(doc[key]) == _FIT_KEYS


# the artifact forms of a scan table and of one value, each through the
# CLI's one encoder as _emit applies it
def scan_csv_text(table):
    return cli._csv_text(table.meta, cli._plain(table.rows))


scan_to_dict = _json_val = cli._plain


def _fmt_csv(value):
    return cli._cell(cli._plain(value))


def test_csv_round_trip():
    table = local_independence_scan(0.75, 0.0, 1.0, EPS4, 8)
    text = scan_csv_text(table)
    assert text.startswith("#")
    assert "# H = 0.75" in text
    lines = [l for l in text.strip().split("\n") if not l.startswith("#")]
    assert lines[0].split(",")[:3] == ["eps", "cos_angle", "mi"]
    assert len(lines) == 1 + len(table.rows)
    # values survive a parse
    got = [float(l.split(",")[1]) for l in lines[1:]]
    assert got == [r.cos for r in table.rows]


def test_csv_inf_and_nan_literals(tmp_path):
    rows = (
        ScanRow(eps=0.5, cos=1.0, mi=math.inf, hs_lower=1.0, hs_upper=math.inf, rank_a=3, rank_b=3,
                cond=1.0, ill_conditioned=False),
        ScanRow(eps=0.25, cos=math.nan, mi=math.nan, hs_lower=math.nan, hs_upper=math.nan,
                rank_a=1, rank_b=1, cond=1e15, ill_conditioned=True, skipped=True),
    )
    table = ScanTable(rows=rows, meta={"experiment": "synthetic"})
    text = scan_csv_text(table)
    data = [l for l in text.strip().split("\n") if not l.startswith("#")][1:]
    assert data[0].split(",")[2] == "inf"
    assert data[0].split(",")[4] == "inf"
    assert data[1].split(",")[1] == "nan"
    assert data[1].split(",")[8:] == ["1", "1"]


def test_json_document():
    table = local_independence_scan(0.75, 0.0, 1.0, EPS4, 8)
    doc = scan_to_dict(table)
    assert doc["config"]["H"] == 0.75
    assert len(doc["rows"]) == len(table.rows)
    assert json.loads(json.dumps(doc, allow_nan=False)) == doc
    # infinite MI serializes as the string "inf"
    rows = (
        ScanRow(eps=0.5, cos=1.0, mi=math.inf, hs_lower=1.0, hs_upper=math.inf, rank_a=3, rank_b=3,
                cond=1.0, ill_conditioned=False),
    )
    d = scan_to_dict(ScanTable(rows=rows, meta={}))
    assert d["rows"][0]["mi"] == "inf"
    assert d["rows"][0]["hs_upper"] == "inf"


@pytest.mark.parametrize("value, cell, json_value", [
    (math.inf, "inf", "inf"),
    (-math.inf, "-inf", "-inf"),
    (math.nan, "nan", None),
    (np.float64(-math.inf), "-inf", "-inf"),
], ids=["+inf", "-inf", "nan", "np-inf"])
def test_serializers_agree_on_non_finite(value, cell, json_value):
    assert _fmt_csv(value) == cell
    assert _json_val(value) == json_value
    json.dumps(_json_val(value), allow_nan=False)


def test_plain_is_idempotent_on_non_finite():
    # an encoded value encodes to itself, so a second pass cannot turn
    # nan's null into "inf"
    for value in (math.inf, -math.inf, math.nan, np.float64(math.nan)):
        once = cli._plain(value)
        assert cli._plain(once) == once, value


def test_exponent_fit_dataclass():
    fit = ExponentFit(slope=0.5, intercept=0.1, r2=0.999, theory_slope=0.5, theory_gap=0.0,
                      correction_order=0.5, eps_lo=0.01, eps_hi=0.1, n_used=5)
    d = cli._plain(fit)
    assert d["slope"] == 0.5 and d["n_used"] == 5


def _table_with_skipped_row():
    # a real scan with its second row replaced by a rank-loss skip
    table = local_independence_scan(0.75, 0.0, 1.0, EPS4, 8)
    rows = list(table.rows)
    rows[1] = ScanRow(eps=rows[1].eps, cos=math.nan, mi=math.nan, hs_lower=math.nan, hs_upper=math.nan,
                      rank_a=1, rank_b=1, cond=1e15, ill_conditioned=False, skipped=True)
    return ScanTable(rows=tuple(rows), meta=table.meta)


def _skipped_row_artifacts(argv, json_rows, capsys):
    # the skipped row's paper quantities are JSON null and CSV nan: a
    # skipped row has no cosine, no information and no bounds
    assert main(argv + ["--format", "json"]) == 0
    row = json_rows(json.loads(capsys.readouterr().out))[1]
    assert [row[k] for k in ("cos_angle", "mi", "hs_lower", "hs_upper")] == [None] * 4
    assert row["skipped"] is True
    assert main(argv) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")]
    cells = dict(zip(lines[0].split(","), lines[2].split(",")))
    assert [cells[k] for k in ("cos_angle", "mi", "hs_lower", "hs_upper")] == ["nan"] * 4
    assert cells["skipped"] == "1"


def test_skipped_scan_row_is_null_in_json_and_nan_in_csv(monkeypatch, capsys):
    monkeypatch.setattr(cli, "local_independence_scan", lambda *args: _table_with_skipped_row())
    _skipped_row_artifacts(["scan", "--H", "0.75"], lambda doc: doc["rows"], capsys)


def test_skipped_report_row_is_null_in_json_and_nan_in_csv(monkeypatch, capsys):
    fit = ExponentFit(slope=0.5, intercept=0.1, r2=0.999, theory_slope=0.5, theory_gap=0.0,
                      correction_order=math.nan, eps_lo=0.01, eps_hi=0.1, n_used=3)
    rep = Levy2dReport(fit_cos=fit, table=_table_with_skipped_row())
    monkeypatch.setattr(cli, "levy2d_scan", lambda *args, **kwargs: rep)
    _skipped_row_artifacts(["levy2d", "--H", "0.75"], lambda doc: doc["table"]["rows"], capsys)


@pytest.mark.parametrize("argv", [
    ["thm21"], ["thm22"], ["complement"], ["adjacency"],
], ids=["thm21", "thm22", "complement", "adjacency"])
def test_rate_reports_run_at_their_default_h(argv, capsys):
    # H = 0.5 is refused by all four (|2H-1| < 0.1); their default is 0.75
    assert main(argv) == 0
    bare = capsys.readouterr()
    assert main(argv + ["--H", "0.75"]) == 0
    assert capsys.readouterr() == bare


@pytest.mark.parametrize("argv", [
    ["cov", "--seed", "1"],
    ["constants", "--eps", "0.1"],
    ["sample", "--strict"],
    ["check-all", "--format", "json"],
    ["scan", "--threads", "2"],
    ["check-all", "--threads", "2"],
    ["angle", "--rtol", "1e-8"],
    ["sample", "--threads", "2"],
    ["cov", "--config", "run.cfg"],
    ["sample", "--T", "8"],
], ids=["cov-seed", "constants-eps", "sample-strict", "check-all-format", "scan-threads", "check-all-threads",
        "angle-rtol", "sample-threads", "cov-config", "sample-T"])
def test_flag_a_command_does_not_read_is_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err
    # the usage line is the subcommand's, which lists the flags it does read
    assert err.startswith(f"usage: fbmlocal {argv[0]} ")


def _readme_flag_table():
    """{command: [flags]} from README's `| command | flags |` table."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = {}
    for line in text.split("| command | flags |\n|---|---|\n", 1)[1].splitlines():
        if not line.startswith("|"):
            break
        names, flags = (cell.strip().replace("`", "") for cell in line.strip("|").split("|"))
        for name in names.split(", "):
            assert name not in table, f"{name} listed twice"
            table[name] = flags.split()
    return table


def test_readme_flag_table_matches_the_parser():
    # each row lists exactly the flags the command's subparser accepts, in
    # its order, --help aside
    (sub,) = (a for a in _build_parser()._actions if a.dest == "command")
    accepted = {
        name: [a.option_strings[0] for a in p._actions if a.option_strings[0] != "-h"]
        for name, p in sub.choices.items()
    }
    assert _readme_flag_table() == accepted


def _load_bench_workloads():
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_WORKLOADS = _load_bench_workloads()


@pytest.mark.parametrize("name", list(_WORKLOADS.README_CLI))
def test_readme_commands_match_golden(name, tmp_path):
    # the benchmark's own judgement: exit code, numbers against the golden
    # artifact, and for sample the sidecar and the data size; these three
    # write the golden's bytes exactly
    out = _WORKLOADS._run_cli(name, fbmlocal, _WORKLOADS.load_golden(), 1, tmp_path)
    assert out["ok"], out["output"]
    if name in ("constants", "cov", "sample"):
        assert out["exact"], out["output"]

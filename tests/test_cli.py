"""Command-line front end: parsing, routing, exit codes, serialization."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

import fbmlocal
from fbmlocal.cli import _ONLY_ALIASES, load_config, main, parse_eps
from fbmlocal.acceptance import CHECKS
from fbmlocal.sampler import load_samples


def test_parse_eps_forms():
    assert parse_eps("0.125,0.0625") == (0.125, 0.0625)
    assert parse_eps("0.125") == (0.125,)
    assert parse_eps("0.125:0.03125:0.5") == (0.125, 0.0625, 0.03125)
    for bad in ("", "1:2:0.5", "0.1:0.2:0.5:0.9", "0.1:0.01:2.0"):
        with pytest.raises(ValueError):
            parse_eps(bad)


def test_load_config(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("H = 0.8   # hurst\n\n# comment line\nn=32\n")
    assert load_config(p) == {"H": "0.8", "n": "32"}
    p.write_text("just a line\n")
    with pytest.raises(ValueError):
        load_config(p)


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


def test_angle_rejects_eps_schedule(capsys):
    assert main(["angle", "--H", "0.7", "--eps", "0.125,0.0625"]) == 1
    err = capsys.readouterr().err
    assert "single --eps" in err


def test_validation_exit_codes(capsys):
    assert main(["angle", "--H", "1.5", "--eps", "0.125"]) == 1
    assert main(["thm21", "--H", "0.5"]) == 1  # |2H-1| < 0.1 precondition
    capsys.readouterr()


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


def test_config_file_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("H = 0.3\nt2 = 2.0\n")
    assert main(["cov", "--config", str(cfg), "--t1", "0", "--t2", "1"]) == 0
    out = capsys.readouterr().out
    assert "# H = 0.3" in out  # from file
    assert "# t2 = 1.0" in out  # flag wins over file
    assert main(["cov", "--config", str(tmp_path / "missing.cfg")]) == 1
    cfg.write_text("H = abc\n")  # a file value goes through the flag's cast
    assert main(["cov", "--config", str(cfg)]) == 1
    cfg.write_text("format = xml\n")
    assert main(["cov", "--config", str(cfg)]) == 1
    capsys.readouterr()


def test_strict_escalates_quality_flags(capsys):
    args = ["scan", "--H", "0.95", "--eps", "0.0001,0.00001,0.000001", "--n", "48"]
    assert main(args) == 0
    assert "quality flag" in capsys.readouterr().err
    assert main(args + ["--strict"]) == 2
    capsys.readouterr()


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
    assert main(["sample", "--H", "0.75", "--n", "64"]) == 1  # --out required
    capsys.readouterr()


def test_sample_dt_from_horizon(tmp_path, capsys):
    target = tmp_path / "paths.bin"
    assert main(["sample", "--H", "0.6", "--n", "32", "--m", "2", "--seed", "1",
                 "--T", "8", "--out", str(target)]) == 0
    capsys.readouterr()
    assert load_samples(target).dt == pytest.approx(0.25)


def test_sample_rejects_dt_with_horizon(tmp_path, capsys):
    target = tmp_path / "paths.bin"
    assert main(["sample", "--n", "32", "--T", "8", "--dt", "0.5", "--out", str(target)]) == 1
    err = capsys.readouterr().err
    assert err == "fbmlocal: error: sample takes --dt or --T, not both\n"
    assert not target.exists()


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
    (["cov", "--config", "{tmp}/run.cfg"], "'inf'"),
], ids=["cov-t1", "scan-eps-list", "scan-eps-range", "levy2d-eps", "thm22-T-nan", "thm22-T-inf",
        "pastfuture-T", "complement-T", "sample-dt", "config-file"])
def test_non_finite_flags_are_rejected(argv, bad, tmp_path, capsys):
    (tmp_path / "run.cfg").write_text("t2 = inf\n")
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
    row = fbmlocal.local_independence_scan(h, 0.0, t2, (eps,), n).rows[0]
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
    for names in _ONLY_ALIASES.values():
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


@pytest.mark.parametrize("argv", [
    ["cov", "--seed", "1"],
    ["constants", "--eps", "0.1"],
    ["sample", "--strict"],
    ["check-all", "--format", "json"],
    ["scan", "--threads", "2"],
    ["check-all", "--threads", "2"],
], ids=["cov-seed", "constants-eps", "sample-strict", "check-all-format", "scan-threads", "check-all-threads"])
def test_flag_a_command_does_not_read_is_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err
    # the usage line is the subcommand's, which lists the flags it does read
    assert err.startswith(f"usage: fbmlocal {argv[0]} ")


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
    # artifact, and for sample the sidecar and the data size
    out = _WORKLOADS._run_cli(name, fbmlocal, _WORKLOADS.load_golden(), 1, tmp_path)
    assert out["ok"], out["output"]

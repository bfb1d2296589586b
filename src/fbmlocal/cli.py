"""Command-line front end: every experiment as a reproducible run.

Output is CSV (default) or JSON, always embedding the full parameter
set ('#'-prefixed header lines / a top-level "config" object), so a
result file identifies its own run. Exit codes: 0 success, 1 parameter
validation or a failing acceptance check, 2 numerical-quality flags
under --strict.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import fields, is_dataclass

import numpy as np

from fbmlocal.geometry import RANK_RTOL
from fbmlocal.kernels import fbm_cov
from fbmlocal.sobolev import a_h_constant, r_h_constant
from fbmlocal.experiments import (
    DEFAULT_EPS,
    DEFAULT_GRID_N,
    DEFAULT_TRUNCATION,
    ScanRow,
    ScanTable,
    adjacency_divergence,
    check_off_half,
    complement_window_scan,
    fit_exponent,
    levy2d_scan,
    local_independence_scan,
    past_future_report,
    r_h_dual_gram,
    theorem21_check,
    theorem22_check,
    window_row,
)
from fbmlocal import sampler
from fbmlocal.acceptance import run_checks

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes '-1e-3' for a flag, since its negative-number
        # pattern has no exponent; this one has, so '--t1 -1e-3' is a value
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    # the contract reserves exit status 2 for numerical-quality failures,
    # so argparse's own errors must leave with 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")

    # argparse hands a subcommand's unknown flags up to the top-level
    # parser, whose usage does not name them; reject them where they occur
    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def finite_float(text: str) -> float:
    """A float flag value; argparse names this function in its error."""
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"expected a finite number, got {text!r}")
    return x


def parse_eps(text: str) -> tuple:
    """Comma list '0.125,0.0625' or geometric 'start:stop:factor'."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError("geometric eps spec must be start:stop:factor")
        a, b, f = (finite_float(p) for p in parts)
        if a <= 0.0 or b <= 0.0 or not 0.0 < f < 1.0:
            raise ValueError("geometric eps spec needs start, stop > 0 and 0 < factor < 1")
        if b > a:
            raise ValueError("geometric eps spec must descend: stop <= start")
        out, v = [], a
        while v >= b * (1.0 - 1e-12):
            out.append(v)
            v *= f
            if len(out) > 64:
                raise ValueError("geometric eps spec expands to more than 64 values")
        return tuple(out)
    vals = tuple(finite_float(p) for p in text.split(",") if p.strip())
    if not vals:
        raise ValueError("empty eps list")
    return vals


def csv_or_json(text: str) -> str:
    """The --format value; argparse names this function in its error."""
    if text not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, not {text!r}")
    return text


# every flag: its argparse type and help; a None type marks a switch
_FLAGS = {
    "H": (finite_float, "Hurst index in (0, 1)"),
    "t1": (finite_float, None),
    "t2": (finite_float, None),
    "eps": (parse_eps, "comma list '0.125,0.0625' or geometric 'start:stop:factor'"),
    "n": (int, "grid size (points per window / lattice per axis)"),
    "T": (finite_float, "truncation horizon"),
    "seed": (int, None),
    "m": (int, "number of paths"),
    "dt": (finite_float, "grid spacing (default 1.0)"),
    "format": (csv_or_json, "csv (default) or json"),
    "out": (str, "output file (default: stdout)"),
    "strict": (None, "exit 2 when numerical-quality flags are raised"),
    "only": (str, "run only checks matching a name or family"),
    "json": (str, "write a machine-readable report here"),
}


def _fmt(x) -> str:
    return f"{x:.6g}"


# run-routing keys; everything else is part of the reproducible config,
# and keeping these out keeps output byte-identical across --out
_RUN_ONLY = frozenset(("format", "out", "strict", "only", "json"))


# -- artifact format --------------------------------------------------------
# every value a run writes goes through _plain once; the CSV cell is a thin
# layer over its result

# a scan row's cells are its fields in declaration order; cos is written as
# cos_angle
_SCAN_COLUMNS = tuple("cos_angle" if f.name == "cos" else f.name for f in fields(ScanRow))


def _plain(x):
    """The artifact value of x, recursively: a ScanTable is its config and
    rows, a ScanRow its _SCAN_COLUMNS cells, any other dataclass its fields
    in order; +inf -> "inf", -inf -> "-inf", nan -> None (null),
    numpy scalars to Python ones.  json.dumps would otherwise emit bare
    NaN/Infinity, which is not valid JSON."""
    if isinstance(x, ScanTable):
        return {"config": _plain(x.meta), "rows": _plain(x.rows)}
    if isinstance(x, ScanRow):
        return {c: _plain(getattr(x, f.name)) for c, f in zip(_SCAN_COLUMNS, fields(x))}
    if is_dataclass(x):
        return {f.name: _plain(getattr(x, f.name)) for f in fields(x)}
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if isinstance(x, np.generic):
        x = x.item()
    if isinstance(x, float) and not math.isfinite(x):
        return None if math.isnan(x) else ("inf" if x > 0 else "-inf")
    return x


def _cell(v) -> str:
    """A CSV cell from a _plain value: booleans as 1/0, null as nan."""
    if isinstance(v, bool):
        return "1" if v else "0"
    if v is None:
        return "nan"
    return repr(v) if isinstance(v, float) else str(v)


def _csv_text(header: dict, rows: list) -> str:
    """CSV of _plain row dicts under '#'-prefixed header lines, LF endings,
    '.' decimals."""
    lines = [f"# {k} = {v}" for k, v in header.items()]
    lines.append(",".join(rows[0]))
    lines.extend(",".join(map(_cell, row.values())) for row in rows)
    return "\n".join(lines) + "\n"


def _emit(params: dict, payload, csv, summary: str) -> None:
    """Serialize the run: full text to stdout, or to --out with a summary line.

    The JSON document is the payload (a report or a dict) with the run's
    config and the summary.  `csv` is None, for the payload as one row
    under the run's config, or (header, rows): the '#' header, None for
    the run's config, over ScanRows or dicts.
    """
    cfg = {k: _cfg_val(v) for k, v in params.items() if k not in _RUN_ONLY}
    if params["format"] == "json":
        doc = _plain(payload)
        doc["config"] = {**doc.get("config", {}), **_plain(cfg)}
        doc["summary"] = summary
        text = json.dumps(doc, indent=2) + "\n"
    else:
        header, rows = csv or (None, None)
        rows = _plain([payload] if rows is None else rows)
        text = _csv_text({**(cfg if header is None else header), "summary": summary}, rows)
    if params["out"]:
        with open(params["out"], "w", newline="") as fh:
            fh.write(text)
        print(summary)
    else:
        sys.stdout.write(text)


def _cfg_val(v):
    if isinstance(v, tuple):
        return ",".join(repr(float(x)) for x in v)
    return v


def _single_eps(params: dict) -> float:
    eps = params["eps"]
    if len(eps) != 1:
        raise ValueError("this command takes a single --eps value; use scan for schedules")
    return eps[0]


def _scan_flags(table) -> list:
    flags = []
    if any(r.ill_conditioned for r in table.rows):
        flags.append("ill-conditioned rows")
    if any(r.skipped for r in table.rows):
        flags.append("skipped (rank-deficient) rows")
    return flags


# numbers outside their law's regime: a grid bias of the leading constant
# beyond its 5% tolerance, and MI / (cos^2 / 2) - 1 above 0.1, where MI is
# not yet in the small-cos limit its rate law describes
_GRID_BIAS_TOL = 0.05
_MI_REGIME_TOL = 0.1


def _mi_regime_flags(table) -> list:
    """The MI-regime flag, read on the smallest-eps row that is neither
    skipped nor ill-conditioned."""
    clean = [r for r in table.rows if not (r.skipped or r.ill_conditioned)]
    if not clean or clean[-1].cos == 0.0:
        return []
    last = clean[-1]
    excess = last.mi / (0.5 * last.cos**2) - 1.0
    if excess <= _MI_REGIME_TOL:
        return []
    return [f"MI regime: MI/(cos^2/2) - 1 = {excess:.3f} at eps {last.eps:g} (> {_MI_REGIME_TOL:g})"]


def _table_csv(table, extra: dict):
    """The csv of _emit for a scan table: its meta and extra over its rows."""
    return {**table.meta, **extra}, table.rows


# -- command handlers -------------------------------------------------------
# each takes the resolved params and returns (payload, csv, summary,
# quality_flags) for _emit; a handler that prints its own output returns
# payload None


def _cmd_cov(params):
    v = fbm_cov(params["t1"], params["t2"], params["H"])
    return {"cov": v}, None, f"cov({params['t1']:g}, {params['t2']:g}) = {_fmt(v)}", []


def _cmd_angle(params):
    row = window_row(params["H"], params["t1"], params["t2"], _single_eps(params), params["n"])
    flags = ["ill-conditioned whitening"] if row.ill_conditioned else []
    payload = {
        "cos_angle": row.cos,
        "rank_a": row.rank_a,
        "rank_b": row.rank_b,
        "cond": row.cond,
        "ill_conditioned": row.ill_conditioned,
    }
    return payload, None, f"cos_angle = {_fmt(row.cos)} (ranks {row.rank_a}/{row.rank_b})", flags


def _cmd_mi(params):
    row = window_row(params["H"], params["t1"], params["t2"], _single_eps(params), params["n"])
    flags = ["ill-conditioned whitening"] if row.ill_conditioned else []
    payload = {
        "mi": row.mi,
        "hs_lower": row.hs_lower,
        "hs_upper": row.hs_upper,
        "ill_conditioned": row.ill_conditioned,
    }
    return payload, None, f"mi = {_fmt(row.mi)} nats (bounds {_fmt(row.hs_lower)} .. {_fmt(row.hs_upper)})", flags


def _cmd_scan(params):
    table = local_independence_scan(params["H"], params["t1"], params["t2"], params["eps"], params["n"])
    theory = 2.0 - 2.0 * params["H"]
    try:
        check_off_half(params["H"], "rate fit")
        fit = fit_exponent(table, "cos", theory=theory, correction_order=min(1.0, theory))
        summary = f"cos slope {fit.slope:.4f} vs theory {theory:.4f} (gap {fit.slope - theory:+.4f}, r2 {fit.r2:.5f})"
        extra = {"fit_cos_slope": fit.slope, "fit_cos_theory": theory, "fit_cos_r2": fit.r2}
    except ValueError as exc:
        summary = f"no slope fit ({exc})"
        extra = {}
    payload = {"config": table.meta, "rows": table.rows, **extra}
    return payload, _table_csv(table, extra), summary, _scan_flags(table)


def _cmd_thm21(params):
    rep = theorem21_check(params["H"], params["t1"], params["t2"], params["eps"], params["n"])
    summary = (
        f"cos slope {rep.fit_cos.slope:.4f} vs {rep.fit_cos.theory_slope:.4f}, "
        f"mi slope {rep.fit_mi.slope:.4f} vs {rep.fit_mi.theory_slope:.4f}, "
        f"r_H extrap {rep.r_h_extrapolated:.4f} vs spectral {rep.r_h_spectral:.4f}"
    )
    flags = _scan_flags(rep.table) + _mi_regime_flags(rep.table)
    if rep.constant_inconclusive:
        flags.append("constant extrapolation inconclusive (rank loss)")
    # the scan's constant carries the grid bias of its grid_n - 1 cells,
    # which the dual-Gram route on as many cells measures
    cells = params["n"] - 1
    bias = r_h_dual_gram(params["H"], cells) / rep.r_h_theory - 1.0
    if abs(bias) > _GRID_BIAS_TOL:
        flags.append(f"grid bias: dual-Gram r_H on {cells} cells is {bias:+.1%} off the exact r_H (> {_GRID_BIAS_TOL:.0%})")
    extra = {
        "fit_cos_slope": rep.fit_cos.slope,
        "fit_mi_slope": rep.fit_mi.slope,
        "r_h_extrapolated": rep.r_h_extrapolated,
        "r_h_spectral": rep.r_h_spectral,
        "r_h_dual_gram": rep.r_h_dual_gram,
        "mi_cos_ratio": rep.mi_cos_ratio,
    }
    return rep, _table_csv(rep.table, extra), summary, flags


def _cmd_thm22(params):
    rep = theorem22_check(params["H"], params["t1"], params["T"], params["eps"], params["n"])
    summary = (
        f"cos slope {rep.fit_cos.slope:.4f} vs {rep.fit_cos.theory_slope:.4f}, "
        f"mi slope {rep.fit_mi.slope:.4f} vs {rep.fit_mi.theory_slope:.4f}, "
        f"truncation sensitivity {rep.truncation_sensitivity:.2e}"
    )
    flags = _scan_flags(rep.table) + _mi_regime_flags(rep.table)
    if rep.truncation_dominated:
        flags.append("truncation-dominated (2T shifts a slope by > 0.02)")
    extra = {
        "fit_cos_slope": rep.fit_cos.slope,
        "fit_mi_slope": rep.fit_mi.slope,
        "truncation_sensitivity": rep.truncation_sensitivity,
    }
    return rep, _table_csv(rep.table, extra), summary, flags


def _cmd_adjacency(params):
    rep = adjacency_divergence(params["H"], _single_eps(params))
    summary = (
        f"MI strictly increasing: {rep.strictly_increasing}, min growth/doubling "
        f"{rep.min_doubling_growth:.2%}, eps-invariance gap {rep.eps_invariance_gap:.2e}"
    )
    rows = [{"n": n, "mi": mi, "mi_alt_eps": alt} for n, mi, alt in zip(rep.n_schedule, rep.mi, rep.mi_alt_eps)]
    return rep, (None, rows), summary, []


def _cmd_pastfuture(params):
    rep = past_future_report(params["H"], params["T"], params["n"])
    summary = (
        f"cos = {rep.value:.6f} (2n: {rep.value_2n:.6f}, 2T: {rep.value_2t:.6f}), "
        f"drift n {rep.drift_n:.2%} T {rep.drift_t:.2%}, margin {rep.margin:.4f}"
    )
    return rep, None, summary, []


def _cmd_complement(params):
    t_mid = 0.5 * (params["t1"] + params["t2"])
    rep = complement_window_scan(
        params["H"], params["t1"], t_mid, params["t2"], params["eps"], params["T"], params["n"],
    )
    summary = (
        f"hs slope {rep.fit_hs.slope:.4f} vs {rep.fit_hs.theory_slope:.4f}, "
        f"truncation sensitivity {rep.truncation_sensitivity:.2e}"
    )
    flags = _scan_flags(rep.table)
    if rep.truncation_dominated:
        flags.append("truncation-dominated (2T shifts the slope by > 0.02)")
    return rep, _table_csv(rep.table, {"fit_hs_slope": rep.fit_hs.slope}), summary, flags


def _cmd_levy2d(params):
    rep = levy2d_scan(params["H"], eps=params["eps"], grid_per_axis=params["n"])
    fit = rep.fit_cos
    summary = f"cos slope {fit.slope:.4f} vs {fit.theory_slope:.4f} (gap {fit.slope - fit.theory_slope:+.4f})"
    return rep, _table_csv(rep.table, {"fit_cos_slope": fit.slope}), summary, _scan_flags(rep.table)


def _cmd_constants(params):
    h = params["H"]
    a = a_h_constant(h)
    r = r_h_constant(h)
    return {"a_H": a, "r_H": r}, None, f"a_H = {a:g}, r_H = {r:g}", []


def _cmd_sample(params):
    if params["out"] is None:
        raise ValueError("sample requires --out PATH for the binary dump")
    paths = sampler.sample_fbm_increments(params["n"], params["dt"], params["H"], params["m"], params["seed"])
    sampler.write_samples(paths, params["out"])
    print(
        f"wrote {paths.m} x {paths.n} increments (dt={params['dt']:g}, method={paths.method}) "
        f"to {params['out']} (+ .json sidecar)"
    )
    return None, None, None, []


def _cmd_check_all(params):
    only = params["only"]
    results = run_checks(only)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name:26s} [{r.seconds:6.1f}s]  {r.detail}")
    npass = sum(r.passed for r in results)
    total = sum(r.seconds for r in results)
    print(f"{npass}/{len(results)} checks passed in {total:.1f}s")
    if params["json"]:
        doc = {
            "config": {"only": only},
            "results": [
                {"name": r.name, "passed": r.passed, "detail": r.detail, "seconds": r.seconds}
                for r in results
            ],
        }
        with open(params["json"], "w", newline="") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    if npass < len(results):
        raise ValueError(f"{len(results) - npass} of {len(results)} acceptance checks failed")
    return None, None, None, []


# each command: help, then its defaults, which are the argparse defaults of
# every flag it reads (any other flag is rejected); a whitening command's
# defaults also carry the fixed rank tolerance, no flag, so that its output
# records it
_OUTPUT = {"format": "csv", "out": None}
_WINDOW = {"H": 0.5, "t1": 0.0, "t2": 1.0, "eps": (0.125,), "n": 32, "rtol": RANK_RTOL, "strict": False, **_OUTPUT}
_SCAN = {
    "H": 0.5, "t1": 0.0, "t2": 1.0, "eps": DEFAULT_EPS, "n": DEFAULT_GRID_N, "rtol": RANK_RTOL, "strict": False,
    **_OUTPUT,
}
_COMMANDS = {
    "cov": (
        "process covariance at two times",
        {"H": 0.5, "t1": 0.0, "t2": 1.0, **_OUTPUT},
        _cmd_cov,
    ),
    "angle": ("cos angle between two windows at a single eps", _WINDOW, _cmd_angle),
    "mi": ("mutual information between two windows at a single eps", _WINDOW, _cmd_mi),
    "scan": ("angle/MI table over an eps schedule between two windows", _SCAN, _cmd_scan),
    "thm21": ("two-window rate report: slopes and the leading constant", {**_SCAN, "H": 0.75}, _cmd_thm21),
    "thm22": (
        "past-vs-window rate report with truncation sensitivity",
        {
            "H": 0.75, "t1": 1.0, "T": DEFAULT_TRUNCATION, "eps": DEFAULT_EPS, "n": DEFAULT_GRID_N,
            "rtol": RANK_RTOL, "strict": False, **_OUTPUT,
        },
        _cmd_thm22,
    ),
    "adjacency": (
        "adjacent-interval MI growth under grid refinement",
        {"H": 0.75, "eps": (1.0,), "rtol": RANK_RTOL, **_OUTPUT},
        _cmd_adjacency,
    ),
    "pastfuture": (
        "past-future angle with doubling studies",
        {"H": 0.5, "T": 16.0, "n": 128, "rtol": RANK_RTOL, **_OUTPUT},
        _cmd_pastfuture,
    ),
    "complement": (
        "window against the two-sided complement",
        {
            "H": 0.75, "t1": 0.0, "t2": 1.0, "eps": DEFAULT_EPS,
            "T": DEFAULT_TRUNCATION, "n": DEFAULT_GRID_N, "rtol": RANK_RTOL,
            "strict": False, **_OUTPUT,
        },
        _cmd_complement,
    ),
    "levy2d": (
        "planar ball-to-ball angle rate",
        {"H": 0.5, "eps": DEFAULT_EPS, "n": 9, "rtol": RANK_RTOL, "strict": False, **_OUTPUT},
        _cmd_levy2d,
    ),
    "constants": ("a_H and r_H for a given H", {"H": 0.5, **_OUTPUT}, _cmd_constants),
    "sample": (
        "draw increment paths and export them",
        {"H": 0.5, "n": 1024, "m": 1, "dt": 1.0, "seed": 0, "out": None},
        _cmd_sample,
    ),
    "check-all": ("run the acceptance suite", {"only": None, "json": None}, _cmd_check_all),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="fbmlocal", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, (text, defaults, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=text, description=text)
        for key, default in defaults.items():
            if key not in _FLAGS:
                continue
            cast, flag_help = _FLAGS[key]
            kind = {"action": "store_true"} if cast is None else {"type": cast}
            p.add_argument(f"--{key}", default=default, help=flag_help, **kind)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 1
    _, defaults, handler = _COMMANDS[args.command]
    # a default with no flag (rtol) is fixed
    params = {key: getattr(args, key, default) for key, default in defaults.items()}
    try:
        payload, csv, summary, flags = handler(params)
    except (OSError, ValueError) as exc:
        print(f"fbmlocal: error: {exc}", file=sys.stderr)
        return 1
    if payload is not None:
        _emit(params, payload, csv, summary)
    for f in flags:
        print(f"fbmlocal: quality flag: {f}", file=sys.stderr)
    return 2 if flags and params.get("strict") else 0


if __name__ == "__main__":
    sys.exit(main())

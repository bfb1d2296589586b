"""Command-line front end: every experiment as a reproducible run.

Output is CSV (default) or JSON, always embedding the full parameter
set ('#'-prefixed header lines / a top-level "config" object), so a
result file identifies its own run. Exit codes: 0 success, 1 parameter
validation, 2 numerical-quality flags under --strict.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from fbmlocal.kernels import cross_gram, fbm_cov, gram
from fbmlocal.geometry import canonical_correlations, cos_angle, mutual_information_gy
from fbmlocal.sobolev import a_h_constant, r_h_constant
from fbmlocal.experiments import (
    DEFAULT_EPS,
    DEFAULT_GRID_N,
    DEFAULT_TRUNCATION,
    ScanConfig,
    _window_basis,
    adjacency_divergence,
    complement_window_scan,
    fit_exponent,
    levy2d_scan,
    local_independence_scan,
    past_future_report,
    scan_csv_text,
    scan_to_dict,
    theorem21_check,
    theorem22_check,
)
from fbmlocal import sampler
from fbmlocal.acceptance import run_checks

__all__ = ["main"]

_COMMANDS = (
    "cov",
    "angle",
    "mi",
    "scan",
    "thm21",
    "thm22",
    "adjacency",
    "pastfuture",
    "complement",
    "levy2d",
    "constants",
    "sample",
    "check-all",
)

# check-all --only accepts these family names next to literal check names
_ONLY_ALIASES = {
    "thm21": ("two-window-angle-rate", "two-window-mi-rate", "leading-constant"),
    "thm22": ("past-window-rates",),
    "adjacency": ("adjacent-divergence",),
    "pastfuture": ("past-future-angle",),
    "levy2d": ("levy2d-rate",),
    "sample": ("sampler-consistency",),
    "sobolev": ("sobolev-scaling", "pairing-identity"),
}


class _Parser(argparse.ArgumentParser):
    # the contract reserves exit status 2 for numerical-quality failures,
    # so argparse's own errors must leave with 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def parse_eps(text: str) -> tuple:
    """Comma list '0.125,0.0625' or geometric 'start:stop:factor'."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError("geometric eps spec must be start:stop:factor")
        a, b, f = (float(p) for p in parts)
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
    vals = tuple(float(p) for p in text.split(",") if p.strip())
    if not vals:
        raise ValueError("empty eps list")
    return vals


def load_config(path: str) -> dict:
    """Flat key=value file, '#' comments; values stay strings."""
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, val = (part.strip() for part in line.split("=", 1))
            out[key] = val
    return out


_CASTS = {
    "H": float,
    "t1": float,
    "t2": float,
    "eps": parse_eps,
    "n": int,
    "T": float,
    "seed": int,
    "rtol": float,
    "format": str,
    "out": str,
    "strict": lambda v: str(v).lower() in ("1", "true", "yes", "on"),
    "threads": int,
    "only": str,
    "dt": float,
    "m": int,
    "json": str,
}


def _resolve(args: argparse.Namespace, config: dict, defaults: dict) -> dict:
    """CLI flag > config-file entry > built-in default."""
    params = {}
    for key, default in defaults.items():
        cli_val = getattr(args, key.replace("-", "_"), None)
        if cli_val is not None:
            params[key] = cli_val
        elif key in config:
            params[key] = _CASTS[key](config[key])
        else:
            params[key] = default
    return params


def _fmt(x) -> str:
    if x is None:
        return "inf"
    return f"{x:.6g}"


# run-routing keys; everything else is part of the reproducible config,
# and keeping these out keeps output byte-identical across --out/--threads
_RUN_ONLY = frozenset(("format", "out", "strict", "threads", "only", "json", "config"))


def _emit(params: dict, payload: dict, rows_csv: str | None, summary: str, out, fmt: str) -> None:
    """Serialize the run: full text to stdout, or to --out with a summary line."""
    cfg = {k: _cfg_val(v) for k, v in params.items() if k not in _RUN_ONLY}
    if fmt == "json":
        doc = dict(payload)
        doc["config"] = {**doc.get("config", {}), **cfg}
        doc["summary"] = summary
        text = json.dumps(_scrub(doc), indent=2) + "\n"
    elif rows_csv is not None:
        text = rows_csv
    else:
        lines = [f"# {k} = {v}" for k, v in cfg.items()]
        lines.append(f"# summary = {summary}")
        cols = list(payload)
        lines.append(",".join(cols))
        lines.append(",".join(_csv_scalar(payload[k]) for k in cols))
        text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
        print(summary)
    else:
        sys.stdout.write(text)


def _cfg_val(v):
    if isinstance(v, tuple):
        return ",".join(repr(float(x)) for x in v)
    return v


def _scrub(obj):
    """nan -> null and +/-inf -> strings, recursively; json.dumps would
    otherwise emit bare NaN, which is not valid JSON."""
    if isinstance(obj, dict):
        return {k: _scrub(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_scrub(v) for v in obj]
    if isinstance(obj, float):
        if math.isnan(obj):
            return None
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
    return obj


def _csv_scalar(v) -> str:
    if v is None:
        return "inf"
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf"
        return repr(v)
    return str(v)


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


# -- command handlers -------------------------------------------------------
# each returns (params, payload_dict, rows_csv_or_None, summary, quality_flags)


def _cmd_cov(args, config):
    params = _resolve(args, config, {"H": 0.5, "t1": 0.0, "t2": 1.0, "format": "csv", "out": None})
    v = fbm_cov(params["t1"], params["t2"], params["H"])
    return params, {"cov": v}, None, f"cov({params['t1']:g}, {params['t2']:g}) = {_fmt(v)}", []


def _window_spectrum(params):
    h = params["H"]
    eps = _single_eps(params)
    a = _window_basis(params["t1"], eps, params["n"])
    b = _window_basis(params["t2"], eps, params["n"])
    return canonical_correlations(gram(a, h), gram(b, h), cross_gram(a, b, h), rtol=params["rtol"])


_WINDOW_DEFAULTS = {
    "H": 0.5,
    "t1": 0.0,
    "t2": 1.0,
    "eps": (0.125,),
    "n": 32,
    "rtol": 1e-10,
    "format": "csv",
    "out": None,
}


def _cmd_angle(args, config):
    params = _resolve(args, config, dict(_WINDOW_DEFAULTS))
    spec = _window_spectrum(params)
    v = cos_angle(spec)
    flags = ["ill-conditioned whitening"] if spec.ill_conditioned else []
    payload = {
        "cos_angle": v,
        "rank_a": spec.rank_a,
        "rank_b": spec.rank_b,
        "cond": spec.cond,
        "ill_conditioned": spec.ill_conditioned,
    }
    return params, payload, None, f"cos_angle = {_fmt(v)} (ranks {spec.rank_a}/{spec.rank_b})", flags


def _cmd_mi(args, config):
    params = _resolve(args, config, dict(_WINDOW_DEFAULTS))
    spec = _window_spectrum(params)
    mi = mutual_information_gy(spec)
    flags = ["ill-conditioned whitening"] if spec.ill_conditioned else []
    payload = {
        "mi": mi.value if mi.value is not None else None,
        "hs_lower": mi.lower,
        "hs_upper": mi.upper,
        "ill_conditioned": spec.ill_conditioned,
    }
    return params, payload, None, f"mi = {_fmt(mi.value)} nats (bounds {_fmt(mi.lower)} .. {_fmt(mi.upper)})", flags


_SCAN_DEFAULTS = {
    "H": 0.5,
    "t1": 0.0,
    "t2": 1.0,
    "eps": DEFAULT_EPS,
    "n": DEFAULT_GRID_N,
    "rtol": 1e-10,
    "threads": None,
    "format": "csv",
    "out": None,
}


def _cmd_scan(args, config):
    params = _resolve(args, config, dict(_SCAN_DEFAULTS))
    cfg = ScanConfig(
        h=params["H"], t1=params["t1"], t2=params["t2"], eps=params["eps"],
        grid_n=params["n"], rtol=params["rtol"],
    )
    table = local_independence_scan(cfg, threads=params["threads"])
    theory = 2.0 - 2.0 * params["H"]
    try:
        fit = fit_exponent(table, "cos", theory=theory, correction_order=min(1.0, theory))
        summary = f"cos slope {fit.slope:.4f} vs theory {theory:.4f} (gap {fit.slope - theory:+.4f}, r2 {fit.r2:.5f})"
        extra = {"fit_cos_slope": fit.slope, "fit_cos_theory": theory, "fit_cos_r2": fit.r2}
    except ValueError as exc:
        summary = f"no slope fit ({exc})"
        extra = {}
    payload = scan_to_dict(table)
    payload.update(extra)
    return params, payload, scan_csv_text(table, {**extra, "summary": summary}), summary, _scan_flags(table)


def _cmd_thm21(args, config):
    params = _resolve(args, config, dict(_SCAN_DEFAULTS))
    rep = theorem21_check(
        params["H"], params["t1"], params["t2"], params["eps"], params["n"],
        params["rtol"], params["threads"],
    )
    summary = (
        f"cos slope {rep.fit_cos.slope:.4f} vs {rep.fit_cos.theory_slope:.4f}, "
        f"mi slope {rep.fit_mi.slope:.4f} vs {rep.fit_mi.theory_slope:.4f}, "
        f"r_H extrap {rep.r_h_extrapolated:.4f} vs spectral {rep.r_h_spectral:.4f}"
    )
    flags = _scan_flags(rep.table)
    if rep.constant_inconclusive:
        flags.append("constant extrapolation inconclusive (rank loss)")
    extra = {
        "fit_cos_slope": rep.fit_cos.slope,
        "fit_mi_slope": rep.fit_mi.slope,
        "r_h_extrapolated": rep.r_h_extrapolated,
        "r_h_spectral": rep.r_h_spectral,
        "r_h_dual_gram": rep.r_h_dual_gram,
        "mi_cos_ratio": rep.mi_cos_ratio,
        "summary": summary,
    }
    return params, rep.as_dict(), scan_csv_text(rep.table, extra), summary, flags


def _cmd_thm22(args, config):
    defaults = {
        "H": 0.5, "t1": 1.0, "T": DEFAULT_TRUNCATION, "eps": DEFAULT_EPS,
        "n": DEFAULT_GRID_N, "rtol": 1e-10, "threads": None, "format": "csv", "out": None,
    }
    params = _resolve(args, config, defaults)
    rep = theorem22_check(
        params["H"], params["t1"], params["T"], params["eps"], params["n"],
        params["rtol"], None, params["threads"],
    )
    summary = (
        f"cos slope {rep.fit_cos.slope:.4f} vs {rep.fit_cos.theory_slope:.4f}, "
        f"mi slope {rep.fit_mi.slope:.4f} vs {rep.fit_mi.theory_slope:.4f}, "
        f"truncation sensitivity {rep.truncation_sensitivity:.2e}"
    )
    flags = _scan_flags(rep.table)
    if rep.truncation_dominated:
        flags.append("truncation-dominated (2T shifts a slope by > 0.02)")
    extra = {
        "fit_cos_slope": rep.fit_cos.slope,
        "fit_mi_slope": rep.fit_mi.slope,
        "truncation_sensitivity": rep.truncation_sensitivity,
        "summary": summary,
    }
    return params, rep.as_dict(), scan_csv_text(rep.table, extra), summary, flags


def _cmd_adjacency(args, config):
    defaults = {"H": 0.5, "eps": (1.0,), "rtol": 1e-10, "format": "csv", "out": None}
    params = _resolve(args, config, defaults)
    rep = adjacency_divergence(params["H"], _single_eps(params), rtol=params["rtol"])
    summary = (
        f"MI strictly increasing: {rep.strictly_increasing}, min growth/doubling "
        f"{rep.min_doubling_growth:.2%}, eps-invariance gap {rep.eps_invariance_gap:.2e}"
    )
    lines = [f"# {k} = {_cfg_val(v)}" for k, v in params.items() if k not in _RUN_ONLY]
    lines.append(f"# summary = {summary}")
    lines.append("n,mi,mi_alt_eps")
    for n, a, b in zip(rep.n_schedule, rep.mi, rep.mi_alt_eps):
        lines.append(f"{n},{_csv_scalar(a)},{_csv_scalar(b)}")
    return params, rep.as_dict(), "\n".join(lines) + "\n", summary, []


def _cmd_pastfuture(args, config):
    defaults = {"H": 0.5, "T": 16.0, "n": 128, "rtol": 1e-10, "format": "csv", "out": None}
    params = _resolve(args, config, defaults)
    rep = past_future_report(params["H"], params["T"], params["n"], None, params["rtol"])
    summary = (
        f"cos = {rep.value:.6f} (2n: {rep.value_2n:.6f}, 2T: {rep.value_2t:.6f}), "
        f"drift n {rep.drift_n:.2%} T {rep.drift_t:.2%}, margin {rep.margin:.4f}"
    )
    return params, rep.as_dict(), None, summary, []


def _cmd_complement(args, config):
    defaults = {
        "H": 0.5, "t1": 0.0, "t2": 1.0, "eps": tuple(e for e in DEFAULT_EPS if e <= 0.125),
        "T": DEFAULT_TRUNCATION, "n": DEFAULT_GRID_N, "rtol": 1e-10,
        "threads": None, "format": "csv", "out": None,
    }
    params = _resolve(args, config, defaults)
    t_mid = 0.5 * (params["t1"] + params["t2"])
    rep = complement_window_scan(
        params["H"], params["t1"], t_mid, params["t2"], params["eps"],
        params["T"], params["n"], params["rtol"], None, params["threads"],
    )
    summary = (
        f"hs slope {rep.fit_hs.slope:.4f} vs {rep.fit_hs.theory_slope:.4f}, "
        f"truncation sensitivity {rep.truncation_sensitivity:.2e}"
    )
    flags = _scan_flags(rep.table)
    if rep.truncation_dominated:
        flags.append("truncation-dominated (2T shifts the slope by > 0.02)")
    extra = {"fit_hs_slope": rep.fit_hs.slope, "summary": summary}
    return params, rep.as_dict(), scan_csv_text(rep.table, extra), summary, flags


def _cmd_levy2d(args, config):
    defaults = {"H": 0.5, "eps": DEFAULT_EPS, "n": 9, "rtol": 1e-10, "threads": None, "format": "csv", "out": None}
    params = _resolve(args, config, defaults)
    rep = levy2d_scan(params["H"], eps=params["eps"], grid_per_axis=params["n"],
                      rtol=params["rtol"], threads=params["threads"])
    theory = 2.0 - 2.0 * params["H"]
    summary = f"cos slope {rep.fit_cos.slope:.4f} vs {theory:.4f} (gap {rep.fit_cos.slope - theory:+.4f})"
    extra = {"fit_cos_slope": rep.fit_cos.slope, "summary": summary}
    return params, rep.as_dict(), scan_csv_text(rep.table, extra), summary, _scan_flags(rep.table)


def _cmd_constants(args, config):
    params = _resolve(args, config, {"H": 0.5, "format": "csv", "out": None})
    h = params["H"]
    a = a_h_constant(h)
    r = r_h_constant(h)
    payload = {"a_H": a, "r_H": r}
    return params, payload, None, f"a_H = {a:g}, r_H = {r:g}", []


def _cmd_sample(args, config):
    defaults = {
        "H": 0.5, "n": 1024, "m": 1, "dt": None, "T": None, "seed": 0,
        "threads": None, "format": "csv", "out": None,
    }
    params = _resolve(args, config, defaults)
    if params["out"] is None:
        raise ValueError("sample requires --out PATH for the binary dump")
    dt = params["dt"]
    if dt is None:
        dt = params["T"] / params["n"] if params["T"] is not None else 1.0
    paths = sampler.sample_fbm_increments(
        params["n"], dt, params["H"], params["m"], params["seed"], threads=params["threads"],
    )
    sampler.write_samples(paths, params["out"])
    summary = (
        f"wrote {paths.m} x {paths.n} increments (dt={dt:g}, method={paths.method}) "
        f"to {params['out']} (+ .json sidecar)"
    )
    print(summary)
    return None, None, None, None, []


def _cmd_check_all(args, config):
    defaults = {"only": None, "threads": None, "json": None, "strict": None, "format": "csv", "out": None}
    params = _resolve(args, config, defaults)
    only = params["only"]
    if only in _ONLY_ALIASES:
        results = []
        for token in _ONLY_ALIASES[only]:
            results.extend(run_checks(only=token, threads=params["threads"]))
    else:
        results = run_checks(only=only, threads=params["threads"])
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
    return None, None, None, None, [] if npass == len(results) else ["acceptance failures"]


_HANDLERS = {
    "cov": _cmd_cov,
    "angle": _cmd_angle,
    "mi": _cmd_mi,
    "scan": _cmd_scan,
    "thm21": _cmd_thm21,
    "thm22": _cmd_thm22,
    "adjacency": _cmd_adjacency,
    "pastfuture": _cmd_pastfuture,
    "complement": _cmd_complement,
    "levy2d": _cmd_levy2d,
    "constants": _cmd_constants,
    "sample": _cmd_sample,
    "check-all": _cmd_check_all,
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="fbmlocal", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")
    descriptions = {
        "cov": "process covariance at two times",
        "angle": "cos angle between two windows at a single eps",
        "mi": "mutual information between two windows at a single eps",
        "scan": "angle/MI table over an eps schedule between two windows",
        "thm21": "two-window rate report: slopes and the leading constant",
        "thm22": "past-vs-window rate report with truncation sensitivity",
        "adjacency": "adjacent-interval MI growth under grid refinement",
        "pastfuture": "past-future angle with doubling studies",
        "complement": "window against the two-sided complement",
        "levy2d": "planar ball-to-ball angle rate",
        "constants": "a_H and r_H for a given H",
        "sample": "draw increment paths and export them",
        "check-all": "run the acceptance suite",
    }
    for name in _COMMANDS:
        p = sub.add_parser(name, help=descriptions[name], description=descriptions[name])
        p.add_argument("--H", type=float, default=None, help="Hurst index in (0, 1)")
        p.add_argument("--t1", type=float, default=None)
        p.add_argument("--t2", type=float, default=None)
        p.add_argument("--eps", type=parse_eps, default=None,
                       help="comma list '0.125,0.0625' or geometric 'start:stop:factor'")
        p.add_argument("--n", type=int, default=None, help="grid size (points per window / lattice per axis)")
        p.add_argument("--T", type=float, default=None, help="truncation horizon")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--rtol", type=float, default=None, help="pivoted-Cholesky relative tolerance")
        p.add_argument("--format", choices=("csv", "json"), default=None)
        p.add_argument("--out", default=None, help="output file (default: stdout)")
        p.add_argument("--strict", action="store_const", const=True, default=None,
                       help="exit 2 when numerical-quality flags are raised")
        p.add_argument("--threads", type=int, default=None)
        p.add_argument("--config", default=None, help="key=value file, overridden by explicit flags")
        if name == "sample":
            p.add_argument("--dt", type=float, default=None, help="grid spacing (default T/n, else 1)")
            p.add_argument("--m", type=int, default=None, help="number of paths")
        if name == "check-all":
            p.add_argument("--only", default=None, help="run only checks matching a name or family")
            p.add_argument("--json", default=None, help="write a machine-readable report here")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 1
    config = {}
    if getattr(args, "config", None):
        try:
            config = load_config(args.config)
        except (OSError, ValueError) as exc:
            print(f"fbmlocal: error: {exc}", file=sys.stderr)
            return 1
    try:
        params, payload, rows_csv, summary, flags = _HANDLERS[args.command](args, config)
    except ValueError as exc:
        print(f"fbmlocal: error: {exc}", file=sys.stderr)
        return 1
    strict = args.strict if args.strict is not None else _CASTS["strict"](config.get("strict", "0"))
    if args.command in ("sample", "check-all"):
        if flags and (strict or args.command == "check-all"):
            return 2 if args.command == "sample" else 1
        return 0
    _emit(params, payload, rows_csv, summary, params["out"], params["format"])
    if flags:
        for f in flags:
            print(f"fbmlocal: quality flag: {f}", file=sys.stderr)
        if strict:
            return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One pass of a workload in a fresh process; started by ``bench/run.py``.

The process imports fbmlocal from ``src/``, makes one warm-up call per
layer (set-up), then runs the pass's operations, optionally under the
tracer, and writes a JSON result to ``--out``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))


def setup():
    """Import every layer and make one cheap call into each."""
    import fbmlocal
    from fbmlocal import acceptance, cli, experiments, geometry, kernels, sampler, sobolev

    basis = kernels.IncrementBasis.from_grid(kernels.TimeGrid(0.0, 1.0, 9))
    other = kernels.IncrementBasis.from_grid(kernels.TimeGrid(2.0, 3.0, 9))
    ga, gb, c = kernels.gram(basis, 0.7), kernels.gram(other, 0.7), kernels.cross_gram(basis, other, 0.7)
    geometry.canonical_correlations(ga, gb, c)
    geometry.mutual_information_det(ga, gb, c)
    hat = sobolev.TestFunction.hat(0.0, 1.0)
    sobolev.sobolev_inner(hat, hat.shifted(0.5), 0.1)
    sobolev.fbm_pairing_time(hat, hat, 0.6)
    experiments.r_h_dual_gram(0.7, n=16)
    sampler.sample_fbm_increments(16, 1.0, 0.7, 2, seed=0)
    acceptance.check_mi_route_equivalence()
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["constants", "--H", "0.75"])
    return fbmlocal


def machine_facts():
    import ctypes
    from concurrent.futures import ThreadPoolExecutor

    import numpy
    import scipy

    facts = {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    # OpenBLAS builds loaded by numpy and by scipy, with the thread count each reports
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        maps = []
    blas = {}
    for path in sorted({ln.split()[-1] for ln in maps
                        if "openblas" in ln.lower() and ln.split()[-1].startswith("/")}):
        lib = ctypes.CDLL(path)
        entry = {"threads": None, "threads_source": "assumed nproc (no query symbol)", "config": None}
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas", "openblas"):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if get is not None and entry["threads"] is None:
                    get.restype = ctypes.c_int
                    entry.update(threads=get(), threads_source="read via openblas_get_num_threads")
                conf = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if conf is not None and entry["config"] is None:
                    conf.restype = ctypes.c_char_p
                    entry["config"] = conf().decode()
        if entry["threads"] is None:
            entry["threads"] = os.cpu_count()
        blas[Path(path).name] = entry
    facts["openblas"] = blas
    # the pool sample_fbm_increments opens when no thread count is passed
    pool = ThreadPoolExecutor()
    facts["sampler_default_workers"] = pool._max_workers
    pool.shutdown()
    return facts


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned", type=float, required=True, help="time.monotonic() at spawn")
    ap.add_argument("--out", required=True)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    fbm = setup()
    result = {"setup_s": time.monotonic() - args.spawned}
    if args.setup_only:
        result["facts"] = machine_facts()
        Path(args.out).write_text(json.dumps(result))
        return 0

    from tracer import Tracer, layer_metrics
    from workloads import load_golden, op_label, plan, run_op

    golden = load_golden()
    tmp = Path(args.tmp)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install(fbm)
    ops = []
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    for spec in plan(args.workload, args.seed):
        t = time.perf_counter()
        res = run_op(spec, fbm, golden, args.seed, tmp)
        res.update(label=op_label(spec), spec=spec, s=time.perf_counter() - t)
        ops.append(res)
    pass_s = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    if tracer:
        tracer.uninstall()
        result["layers"] = layer_metrics(tracer)
    result.update(
        pass_s=pass_s,
        cpu_s=(ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        peak_rss_mb=ru1.ru_maxrss / 1024.0,
        ops=ops,
    )
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""fbmlocal benchmark: three workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload rate-reports --seed 1 --seconds 30 --trace 0

Run from the repository root (a plain checkout works; nothing needs to be
installed). One parent process starts one pass process at a time (a closed
loop with a single client) for as long as the next pass should end within
``--seconds``, and at least twice. Each pass is a fresh process, because
``check-all`` and every CLI call are one process per invocation: an
in-process cache carried across passes would show a gain no user sees.

--trace 0 prints the end-to-end metrics, measured untraced:
  setup_s      process start until fbmlocal is imported and one warm-up call
               per layer is done (median over three set-up-only processes
               and every pass process)
  pass_s       wall time of one pass (median)
  cpu_s        user + system CPU time of one pass, all threads (median)
  peak_rss_mb  peak resident set of a pass process (median)
  success_rate operations that did not fail / operations attempted
               (1 - error_rate)

--trace 1 runs one untraced and two traced passes and prints the per-layer
metrics (medians of the two traced passes; counts must repeat exactly
between them, and traced outputs must equal untraced ones) plus the
tracing overhead. Human-readable lines come first; the last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import GOLDEN, RATE_CHECKS, README_CLI, WORKLOADS  # noqa: E402

SETUP_PROBES = 3
MIN_PASSES = 2
PASS_TIMEOUT_S = 170

ALL_CHECKS = (*RATE_CHECKS, "pairing-identity", "sobolev-scaling", "sampler-consistency")
# counts derived from arguments and array shapes, not measured work; each Gram
# entry costs four |x|^2H evaluations
COMPUTED = {"kernels.gram.entries", "geometry.dim3", "sampler.increments", "sampler.blocks",
            "sampler.fft_points", "sampler.write_samples.bytes"}


class PassFailed(RuntimeError):
    pass


def spawn(workload, seed, tmp, index, trace=False, setup_only=False):
    """Run one worker process to completion and return its JSON result."""
    work = Path(tmp, f"p{index}")
    work.mkdir()
    out = work / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--out", str(out), "--tmp", str(work)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    cmd += ["--spawned", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0 or not out.exists():
        raise PassFailed(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(out.read_text())


def judge(passes):
    """(attempted, failed, notes) over all passes; sample bytes must repeat within the run."""
    attempted = failed = 0
    notes = []
    first_sha = None
    for i, p in enumerate(passes):
        for op in p["ops"]:
            attempted += 1
            bad = not op["ok"]
            sha = op.get("data_sha256")
            if sha is not None:
                first_sha = first_sha or sha
                if sha != first_sha:
                    bad = True
                    notes.append(f"pass {i}: sample bytes differ from pass 0 for the same seed")
            if bad:
                failed += 1
                notes.append(f"pass {i}: {op['label']} {json.dumps(op['spec'])} failed: {op['output'][:300]}")
            elif op.get("note"):
                notes.append(f"pass {i}: {op['label']}: {op['note']}")
    return attempted, failed, notes


def op_times(p):
    """acceptance.<check>.s for all 14 checks and cli.<command>.s for the 12 README commands."""
    out = {f"acceptance.{c}.s": 0.0 for c in ALL_CHECKS}
    out.update({f"cli.{c}.s": 0.0 for c in README_CLI})
    for op in p["ops"]:
        out[f"{op['label']}.s"] += op["s"]
    return out


def run_e2e(args, tmp, setups, units):
    # start another pass only if it should end within --seconds, judged by the last one
    passes, t0, last = [], time.monotonic(), 0.0
    while len(passes) < MIN_PASSES or time.monotonic() - t0 + last <= args.seconds:
        t = time.monotonic()
        passes.append(spawn(args.workload, args.seed, tmp, f"pass{len(passes)}"))
        last = time.monotonic() - t
    setups += [p["setup_s"] for p in passes]
    attempted, failed, notes = judge(passes)
    med = {k: statistics.median(p[k] for p in passes) for k in ("pass_s", "cpu_s", "peak_rss_mb")}
    metrics = {"setup_s": statistics.median(setups), **med, "success_rate": 1.0 - failed / attempted}
    print(f"passes {len(passes)}, set-up samples {len(setups)}")
    samples = {"setup_s": setups, **{k: [p[k] for p in passes] for k in med}}
    for k, vals in samples.items():
        print(f"  {k:12s} median {metrics[k]:.4f} {units[k]}  min {min(vals):.4f}  max {max(vals):.4f}  n={len(vals)}")
    print(f"  success_rate {metrics['success_rate']:.4f} {units['success_rate']}  "
          f"(error_rate {failed}/{attempted} = {failed / attempted:.4f})")
    return attempted, failed, notes, metrics


def run_traced(args, tmp, units):
    plain = spawn(args.workload, args.seed, tmp, "plain")
    traced = [spawn(args.workload, args.seed, tmp, f"traced{i}", trace=True) for i in range(2)]
    attempted, failed, notes = judge([plain, *traced])
    # self-test, three more operations: every count repeats exactly between
    # the traced passes, and each traced pass gives the untraced outputs
    la, lb = traced[0]["layers"], traced[1]["layers"]
    moved = [f"{k}: {la[k]} vs {lb[k]}" for k in la if not k.endswith("self_s") and la[k] != lb[k]]
    attempted += 1 + len(traced)
    if moved:
        failed += 1
        notes.append("self-test: counts differ between traced passes: " + "; ".join(moved))
    for t in traced:
        differ = [a["label"] for a, b in zip(plain["ops"], t["ops"]) if a["output"] != b["output"]]
        if differ:
            failed += 1
            notes.append("self-test: traced outputs differ from untraced for " + ", ".join(differ))
    layers = {}
    for k in la:
        vals = [t["layers"][k] for t in traced]
        layers[k] = statistics.median(vals) if k.endswith("self_s") else la[k]
    times = [op_times(t) for t in traced]
    for k in times[0]:
        layers[k] = statistics.median(t[k] for t in times)
    traced_pass = statistics.median(t["pass_s"] for t in traced)
    layers["trace.overhead_s"] = traced_pass - plain["pass_s"]
    layers["cli.artifacts_byte_identical"] = sum(bool(op.get("exact")) for op in traced[0]["ops"])
    print(f"traced pass_s {traced_pass:.4f} s vs untraced {plain['pass_s']:.4f} s "
          f"(overhead {layers['trace.overhead_s']:+.4f} s)")
    for k, v in layers.items():
        print(f"  {k:45s} {v:.6g} {units.get(k, '?')}{' (computed)' if k in COMPUTED else ''}")
    return attempted, failed, notes, layers


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "fbmlocal" / "__init__.py").is_file() or not GOLDEN.is_file():
        print("bench: no fbmlocal sources under src/ or no golden data; run from a checkout",
              file=sys.stderr)
        return 2
    # BENCHMARK.json declares every metric with its unit; print exactly those
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=scratch)
    try:
        why = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
        print(f"workload {args.workload} ({why}), seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
        probes = [spawn(args.workload, args.seed, tmp, f"setup{i}", setup_only=True)
                  for i in range(1 if args.trace else SETUP_PROBES)]
        print("machine " + json.dumps(probes[0]["facts"]))
        setups = [p["setup_s"] for p in probes]
        if args.trace:
            attempted, failed, notes, metrics = run_traced(args, tmp, units)
        else:
            attempted, failed, notes, metrics = run_e2e(args, tmp, setups, units)
    except (PassFailed, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still be using it
            scratch.rmdir()
    for n in notes:
        print("note: " + n)
    if set(metrics) != set(declared):
        print(f"bench: measured metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(declared))}",
              file=sys.stderr)
        return 1
    metrics = {k: {"value": v, "unit": declared[k]} for k, v in metrics.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

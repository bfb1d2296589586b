"""The benchmark's workloads, the operations they run and how each is judged.

Every operation is taken from the acceptance gate or from the README's CLI
session and runs with the gate's own arguments (no ``threads``), in the
gate's order and then the README's. The seed picks which points of the
lemma-2.2 k schedule a sobolev pass builds and is the ``--seed`` of the
README's ``sample`` command; it never changes how much work a pass does.
The gate's scan and report checks take no inputs, so rate-reports is the
same for every seed. The order stays fixed because peak RSS depends on it
(measured: 216 vs 231 MB on sampling-cli for two shuffles).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import re
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden" / "reference.json"

# Load comes from one parent process that starts one pass process at a time
# (a closed loop with one client), so passes never overlap: the verdict of
# two-window-angle-rate also depends on each theorem21_check taking < 10 s.
WORKLOADS = ("sobolev-protocols", "rate-reports", "sampling-cli")  # why each: BENCHMARK.json

RATE_CHECKS = (
    "two-window-angle-rate", "two-window-mi-rate", "leading-constant", "past-window-rates",
    "brownian-exactness", "mi-route-equivalence", "mi-bound-sandwich", "adjacent-divergence",
    "past-future-angle", "levy2d-rate", "invariance-suite",
)

# the two decay protocols of the gate's sobolev-scaling check: (alpha, s, T, n)
LEMMA22 = {"p1": (2.0, 0.25, 128.0, 256), "p2": (1.5, -0.25, 64.0, 512)}
K_SCHEDULE = (2.0, 4.0, 8.0, 16.0, 32.0)
DILATION_TOL = 1e-6  # the check's own tolerance on the dilation law

# README CLI session; check-all is the gate itself and is measured op by op
README_CLI = {
    "constants": ["constants", "--H", "0.5"],
    "cov": ["cov", "--H", "0.75", "--t1", "1", "--t2", "2"],
    "angle": ["angle", "--H", "0.8", "--t1", "0", "--t2", "1", "--eps", "0.0625", "--n", "64"],
    "mi": ["mi", "--H", "0.5", "--t1", "0", "--t2", "1", "--eps", "0.125", "--n", "32"],
    "scan": ["scan", "--H", "0.8", "--eps", "0.125:0.00390625:0.5", "--format", "json"],
    "thm21": ["thm21", "--H", "0.75"],
    "thm22": ["thm22", "--H", "0.75", "--t1", "1", "--T", "64"],
    "adjacency": ["adjacency", "--H", "0.8"],
    "pastfuture": ["pastfuture", "--H", "0.2", "--T", "16", "--n", "128"],
    "complement": ["complement", "--H", "0.75"],
    "levy2d": ["levy2d", "--H", "0.75", "--n", "9"],
    "sample": ["sample", "--H", "0.7", "--n", "4096", "--m", "64", "--seed", "{seed}", "--out", "{tmp}/paths.bin"],
}
SAMPLE_BYTES = 4096 * 64 * 8

# CLI artifacts: text exactly, numbers within this relative tolerance, an
# absolute floor for round-off-level values, and one unit in the last
# printed digit for rounded figures
NUM_RTOL = 1e-6
NUM_ATOL = 1e-9

_NUM = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")
_TOOK = re.compile(r"\(\d+\.\d+s\)")


def plan(workload: str, seed: int) -> list:
    """The operations of one pass, identical for every pass of a run."""
    rng = random.Random(seed)
    if workload == "sobolev-protocols":
        ops = [{"op": "check", "name": "pairing-identity"}, {"op": "dilation"}]  # gate order
        ops += [{"op": "lemma22", "protocol": p, "k": rng.choice(K_SCHEDULE)} for p in LEMMA22]
    elif workload == "rate-reports":
        ops = [{"op": "check", "name": name} for name in RATE_CHECKS]
    elif workload == "sampling-cli":
        ops = [{"op": "check", "name": "sampler-consistency"}]
        ops += [{"op": "cli", "name": name} for name in README_CLI]
    else:
        raise ValueError(f"unknown workload {workload!r}; have {', '.join(WORKLOADS)}")
    return ops


def op_label(spec: dict) -> str:
    """Metric stem an operation's time is reported under."""
    if spec["op"] == "check":
        return f"acceptance.{spec['name']}"
    if spec["op"] == "cli":
        return f"cli.{spec['name']}"
    return "acceptance.sobolev-scaling"  # dilation and lemma-2.2 builds are that check's parts


def mask_timing(detail: str) -> str:
    return _TOOK.sub("(~s)", detail)


def same_numbers(got: str, want: str) -> bool:
    """Equal text, and numbers equal within NUM_RTOL / NUM_ATOL / last printed digit."""
    if _NUM.split(got) != _NUM.split(want):
        return False
    for g, w in zip(_NUM.findall(got), _NUM.findall(want)):
        if g == w:
            continue
        gv, wv = float(g), float(w)
        mant = w.lower().split("e")[0]
        unit = 0.0
        if "." in mant:
            exp = int(w.lower().split("e")[1]) if "e" in w.lower() else 0
            unit = 10.0 ** (exp - len(mant.split(".")[1]))
        if abs(gv - wv) > NUM_RTOL * max(abs(gv), abs(wv)) + NUM_ATOL + unit:
            return False
    return True


def run_op(spec: dict, fbm, golden: dict, seed: int, tmp: Path) -> dict:
    """Run one operation through the package's public names (looked up at
    call time, so a tracer's bindings are used) and judge it.

    Returns ok (not a failure), output (what traced and untraced passes must
    agree on) and, for CLI commands, exact (byte-identical to the golden).
    """
    kind = spec["op"]
    try:
        if kind == "check":
            return _run_check(spec["name"], fbm, golden)
        if kind == "dilation":
            return _run_dilation(fbm)
        if kind == "lemma22":
            return _run_lemma22(spec, fbm, golden)
        return _run_cli(spec["name"], fbm, golden, seed, tmp)
    except Exception as exc:  # an operation that raises is a failure with its reason
        return {"ok": False, "output": f"raised {type(exc).__name__}: {exc}", "note": "raised"}


def _run_check(name, fbm, golden):
    passed, detail = fbm.acceptance.CHECKS[name]()
    want = golden["checks"][name]
    out = {"ok": bool(passed) or not want, "output": f"{bool(passed)} {mask_timing(detail)}"}
    if passed and not want:
        out["note"] = "turned green"
    return out


def _run_dilation(fbm):
    # the dilation clause of sobolev-scaling, as the check computes it
    sob = fbm.sobolev
    phi = sob.TestFunction.from_samples([-1.0, -0.3, 0.4, 1.1], [0.8, -0.5])
    worst = 0.0
    for s in (-0.25, 0.0, 0.25):
        base = sob.sobolev_norm(phi, s) ** 2
        for k in (2.0, 4.0, 8.0):
            got = sob.sobolev_norm(phi.dilated(k), s) ** 2
            worst = max(worst, abs(got / (k ** (2.0 * s - 1.0) * base) - 1.0))
    return {"ok": worst <= DILATION_TOL, "output": repr(worst)}


def _run_lemma22(spec, fbm, golden):
    alpha, s, t, n = LEMMA22[spec["protocol"]]
    v = fbm.sobolev.lemma22_dual_norm(alpha, s, spec["k"], t, n)
    want = golden["lemma22"][spec["protocol"]][repr(spec["k"])]
    ok = math.isfinite(v) and abs(v - want) <= NUM_RTOL * abs(want)
    return {"ok": ok, "output": repr(v)}


def _run_cli(name, fbm, golden, seed, tmp):
    argv = [a.format(seed=seed, tmp=tmp) for a in README_CLI[name]]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = fbm.cli.main(argv)
    text = stdout.getvalue().replace(str(tmp), "{tmp}")
    want = golden["cli"][name]
    exact = code == want["exit"] and text == want["stdout"]
    ok = code == want["exit"] and same_numbers(text, want["stdout"])
    out = {"output": f"{code}\n{text}"}
    if name == "sample":
        data = Path(tmp, "paths.bin").read_bytes()
        sidecar = Path(tmp, "paths.bin.json").read_text()
        sidecar_ok = sidecar == want["sidecar"].replace("{seed}", str(seed))
        exact &= sidecar_ok
        ok &= sidecar_ok and len(data) == SAMPLE_BYTES
        # the bytes themselves are not golden: a faster sampler may change the
        # stream; bench/run.py requires them equal across the passes of a run
        out["data_sha256"] = hashlib.sha256(data).hexdigest()
    out.update(ok=ok, exact=exact)
    return out


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text())

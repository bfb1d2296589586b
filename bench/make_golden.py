"""Regenerate ``bench/golden/reference.json`` from the current program.

    python3 bench/make_golden.py

Run it only on a commit whose outputs are the accepted reference: the
benchmark counts every later departure from these outputs as a failure.
It takes about 100 s (the ten lemma-2.2 builds dominate).
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from fbmlocal import acceptance, cli, sobolev  # noqa: E402
from workloads import GOLDEN, K_SCHEDULE, LEMMA22, RATE_CHECKS, README_CLI  # noqa: E402

SEED = 1  # the README's sample seed; the sidecar stores it as a placeholder


def main():
    checks = {}
    for name in (*RATE_CHECKS, "sampler-consistency", "pairing-identity"):
        passed, _ = acceptance.CHECKS[name]()
        checks[name] = bool(passed)
    lemma22 = {
        p: {repr(k): sobolev.lemma22_dual_norm(alpha, s, k, t, n) for k in K_SCHEDULE}
        for p, (alpha, s, t, n) in LEMMA22.items()
    }
    runs = {}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        for name, argv in README_CLI.items():
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main([a.format(seed=SEED, tmp=tmp) for a in argv])
            runs[name] = {"exit": code, "stdout": out.getvalue().replace(tmp, "{tmp}")}
        sidecar = Path(tmp, "paths.bin.json").read_text()
    runs["sample"]["sidecar"] = sidecar.replace(f'"seed": {SEED},', '"seed": {seed},')
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({"checks": checks, "lemma22": lemma22, "cli": runs}, indent=1) + "\n")


if __name__ == "__main__":
    main()

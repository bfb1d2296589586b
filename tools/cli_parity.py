"""Show that two source trees give the same fbmlocal CLI runs, byte for byte.

    python3 tools/cli_parity.py PARENT CHANGE

PARENT and CHANGE are checkouts of this repository (the change is usually
the working tree, ``.``). Each case runs ``python -m fbmlocal.cli`` once
per tree, in a fresh process with ``PYTHONPATH=<tree>/src`` and a fresh
empty working directory. Stdout, stderr, the exit code and every file the
run writes there are compared byte for byte; ``check-all`` timings are
masked first. One line per case; the exit status is 1 on any difference.
Standard library only; nothing is written inside either tree.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# check-all's timings: "[   0.1s]" per check, "(0.12s)" in a detail, the
# closing "in 0.3s" and the report's "seconds"
_TIMING = re.compile(rb"\[ *\d+\.\d+s\]|\(\d+\.\d+s\)|in \d+\.\d+s$|\"seconds\": [-+.\de]+", re.M)


def readme_session() -> dict:
    """bench/workloads.py's README_CLI, loaded by path without writing bytecode."""
    sys.dont_write_bytecode = True
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.README_CLI


def cases() -> list:
    """(label, argv) pairs; a run's files land in its working directory."""
    readme = readme_session()
    session = {name: [a.format(seed=1, tmp=".") for a in argv] for name, argv in readme.items()}
    out = [(f"readme {name}", argv) for name, argv in session.items()]
    out.append(("readme sample seed 2", [a.format(seed=2, tmp=".") for a in readme["sample"]]))
    # the README samples take the circulant route at n = 4096; these add the
    # Cholesky route, with two full 8192-path blocks and an odd 37, and with
    # 16 serial products per block, and a circulant run ending in an odd
    # 7-path block
    out += [
        ("sample cholesky n=8", ["sample", "--H", "0.75", "--n", "8", "--m", "16421", "--seed", "9", "--out", "p.bin"]),
        ("sample cholesky n=64",
         ["sample", "--H", "0.3", "--n", "64", "--m", "2085", "--dt", "0.5", "--seed", "4", "--out", "p.bin"]),
        ("sample circulant n=5000",
         ["sample", "--H", "0.3", "--n", "5000", "--m", "67", "--dt", "0.5", "--seed", "42", "--out", "p.bin"]),
    ]
    for name, argv in session.items():
        if name == "sample":
            continue
        csv = [a for a in argv if a not in ("--format", "json")]
        out += [
            (f"{name} csv", csv),
            (f"{name} json", csv + ["--format", "json"]),
            (f"{name} csv --out", csv + ["--out", "out.csv"]),
            (f"{name} json --out", csv + ["--format", "json", "--out", "out.json"]),
        ]
    out.append(("check-all --only levy2d", ["check-all", "--only", "levy2d", "--json", "report.json"]))
    out += [
        ("bare", []),
        ("-h", ["-h"]),
        ("unknown command", ["frobnicate"]),
        ("flag before command", ["--H", "0.5"]),
        ("flag before named command", ["--H", "0.5", "angle"]),
        ("unknown flag", ["angle", "--foo"]),
        ("flag another command reads", ["cov", "--seed", "1"]),
        ("bad value", ["angle", "--H", "abc"]),
        ("bad format", ["scan", "--format", "xml"]),
        ("negative exponent value", ["cov", "--H", "0.75", "--t1", "-1e-3", "--t2", "2"]),
        ("validation error", ["angle", "--H", "1.5"]),
        ("sample without --out", ["sample", "--n", "8"]),
        ("window below resolution", ["angle", "--H", "0.75", "--t1", "0", "--t2", "1e300"]),
        ("overflowing spacing", ["sample", "--H", "0.7", "--n", "4", "--dt", "1e300", "--out", "x.bin"]),
        ("strict quality flag", ["scan", "--H", "0.95", "--eps", "0.0001,0.00001,0.000001", "--n", "48", "--strict"]),
    ]
    out += [(f"{name} -h", [name, "-h"]) for name in (*session, "check-all")]
    # a README command is also one of its command's variants; run it once
    unique = {}
    for label, argv in out:
        unique.setdefault(tuple(argv), label)
    return [(label, list(argv)) for argv, label in unique.items()]


def run(tree: Path, argv: list) -> tuple:
    """(exit code, stdout, stderr, {file: bytes}) of one fresh-process run."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    with tempfile.TemporaryDirectory() as work:
        proc = subprocess.run([sys.executable, "-m", "fbmlocal.cli", *argv], cwd=work, env=env,
                              capture_output=True, timeout=600)
        written = {p.name: p.read_bytes() for p in sorted(Path(work).iterdir())}
    stdout = proc.stdout
    if argv[:1] == ["check-all"]:
        stdout = _TIMING.sub(b"~", stdout)
        written = {k: _TIMING.sub(b"~", v) for k, v in written.items()}
    return proc.returncode, stdout, proc.stderr, written


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="checkout to compare against")
    ap.add_argument("change", type=Path, help="checkout under test")
    args = ap.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    todo = cases()
    differ = 0
    for label, argv in todo:
        a, b = run(parent, argv), run(change, argv)
        parts = [part for part, x, y in zip(("exit", "stdout", "stderr", "files"), a, b) if x != y]
        differ += bool(parts)
        print(f"{'DIFF' if parts else 'same'}  exit {b[0]}  {label}" + (f": {', '.join(parts)}" if parts else ""))
    print(f"{len(todo) - differ}/{len(todo)} cases identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

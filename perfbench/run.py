"""Layered benchmark of scalefisher.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from ``src/``.
Each workload runs in fresh child processes of this one.  Untraced runs
(``--trace 0``) set the workload up three times, in three processes, and
report the median set-up time with the timed-phase metrics of the last one.
Traced runs (``--trace 1``) set up once, run the timed phase untraced, then
replay the same ops with every public library function wrapped in spans.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full result,
with provenance and failure reasons, goes to
``perfbench/out/<workload>-seed<seed>-trace<trace>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_NAMES = ("dense_exact", "spectral_scan", "mc_desk", "cli_roundtrip")
SETUPS = 3
DEADLINE_S = 170.0
# one BLAS thread: the host gives the benchmark two shared cores, and a second
# BLAS thread makes latency follow the neighbours' load (up to 40 % apart
# between identical runs); one thread repeats within about 1 %
BLAS_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"}


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="small sizes, for tests")
    p.add_argument("--role", choices=("setup", "measure"), help=argparse.SUPPRESS)
    p.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    p.add_argument("--result", help=argparse.SUPPRESS)
    return p


def _commit():
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _child(args, role: str, deadline: float, env: dict) -> dict:
    """Run one child process; returns its record or raises RuntimeError."""
    out = BENCH_DIR / "out" / f".child-{os.getpid()}-{role}.json"
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--role", role, "--result", str(out)]
    if args.smoke:
        cmd.append("--smoke")
    t0 = time.monotonic()
    proc = subprocess.Popen([*cmd, "--t0", repr(t0)], cwd=ROOT, env=env,
                            stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=max(deadline - t0, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError(f"{role} child exceeded the {DEADLINE_S:.0f} s deadline")
    if code != 0:
        raise RuntimeError(f"{role} child exited with code {code}")
    try:
        return json.loads(out.read_text())
    finally:
        out.unlink()


def orchestrate(args) -> tuple[dict, dict]:
    """(result line, full record) for one benchmark run."""
    deadline = time.monotonic() + DEADLINE_S
    env = dict(os.environ, **BLAS_THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    n_setups = 1 if args.trace else SETUPS
    setups = [_child(args, "setup", deadline, env)["setup_s"] for _ in range(n_setups - 1)]
    rec = _child(args, "measure", deadline, env)
    setups.append(rec.pop("setup_s"))

    units = rec["units"]
    if args.trace:
        values = rec["per_layer"]
    else:
        values = dict(rec["end_to_end"], setup_s=statistics.median(setups))
    line = {
        "correct": rec["failed"] == 0,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()
                    if k in values},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "setup_s_samples": setups,
        "failed_frac": rec["failed"] / rec["attempted"],
        **rec,
        "result": line,
    }
    return line, record


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not (ROOT / "src" / "scalefisher" / "__init__.py").is_file():
        sys.stderr.write(f"no scalefisher sources under {ROOT / 'src'}\n")
        return 2
    if args.role:
        from harness import child_main
        return child_main(args)
    (BENCH_DIR / "out").mkdir(exist_ok=True)
    try:
        line, record = orchestrate(args)
    except RuntimeError as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (BENCH_DIR / "out" / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

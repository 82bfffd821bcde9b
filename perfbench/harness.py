"""Child side of a benchmark run: set-up, the timed phase, and for traced
runs a replay of the same ops under the tracer.

``run.py`` calls ``child_main`` in each child process it starts
(``--role setup`` or ``--role measure``).
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import scalefisher as sf
from tracing import ROOT, Tracer, layer_stats, self_times
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10

# per-layer metrics taken from spans: span name -> stats reported
SPAN_METRICS = {
    "model.cov_x": ("calls", "self_s"),
    "linalg.diff_cov": ("calls", "self_s"),
    "linalg.whiten": ("calls", "self_s"),
    "fisher.whitened_system": ("hits", "misses", "self_s"),
    "fisher.fisher_exact": ("calls", "self_s"),
    "model.spectral_density_x": ("calls", "self_s", "points"),
    "quad.cos_tail_sum": ("calls", "self_s"),
    "model.spectral_density_x_aliased": ("calls", "self_s", "points"),
    "fisher.spectral_crossover": ("calls", "self_s"),
    "quad.panel_integrate": ("calls", "self_s", "points"),
    "fisher.fisher_integral": ("calls", "self_s", "passes"),
    "fisher.fisher_closed_form": ("calls", "self_s"),
    "model.sum_gamma_squared": ("calls", "self_s"),
    "montecarlo.run_study": ("calls", "self_s"),
    "montecarlo.sample_z": ("calls", "self_s"),
    "estimator.estimate": ("calls", "self_s"),
    "estimator.make_split": ("calls", "self_s"),
    "linalg.transform": ("calls", "self_s"),
    "linalg.dct_basis": ("hits", "misses", "self_s"),
}
# per-layer metrics computed from results, latencies and process counters
OTHER_METRICS = {
    "cli.import_s": "s",
    "cli.fisher.p50_ms": "ms",
    "cli.simulate.p50_ms": "ms",
    "cli.estimate.p50_ms": "ms",
    "cli.mc-study.p50_ms": "ms",
    "cli.rate-scan.p50_ms": "ms",
    "cli.bytes_written": "bytes",
    "estimator.imse": "ratio",
    "estimator.imse_se": "ratio",
    "estimator.split_floor": "ratio",
    "process.cpu_s": "s",
    "trace.op_s": "s",
    "trace.untraced_op_s": "s",
    "trace.overhead_frac": "ratio",
}
# self time summed per layer; "process" is op time outside every library
# span (harness, and for CLI ops interpreter start-up)
LAYERS = ("model", "linalg", "quad", "fisher", "estimator", "montecarlo", "cli", ROOT)
OTHER_METRICS.update({f"layer.{layer}.self_s": "s" for layer in LAYERS})
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
              "op_tail_ms": "ms", "peak_rss_mb": "MB"}


def per_layer_units() -> dict:
    units = {f"{name}.{stat}": ("s" if stat == "self_s" else "count")
             for name, stats in SPAN_METRICS.items() for stat in stats}
    units.update(OTHER_METRICS)
    return units


def tail_percentile(count: int) -> float | None:
    """The highest listed percentile that leaves at least TAIL_BEYOND of
    ``count`` samples above its nearest rank, or None."""
    for p in PERCENTILES:
        k = math.ceil(p / 100.0 * count)
        if k >= 1 and count - k >= TAIL_BEYOND:
            return p
    return None


def nearest_rank(latencies, p: float) -> float:
    xs = sorted(latencies)
    return xs[max(math.ceil(p / 100.0 * len(xs)), 1) - 1]


def timed_phase(wl, seconds: float, plan=None, tracer: Tracer | None = None) -> dict:
    """Closed loop over whole rounds until the round boundary nearest to
    ``seconds`` once at least ``wl.min_ops`` ops are done, or over the
    rounds of ``plan``."""
    rounds, ops, results, lat, reasons = [], [], [], [], []
    start = time.perf_counter()
    r = 0
    while plan is None or r < len(plan):
        batch = wl.round_ops(r) if plan is None else plan[r]
        first = len(ops)
        for op in batch:
            root = tracer.begin_op(len(ops)) if tracer else None
            t0 = time.perf_counter()
            try:
                res, why = wl.run(op), None
            except Exception as exc:  # an op that raises counts as failed
                traceback.print_exc()
                res, why = None, f"{type(exc).__name__}: {exc}"
            lat.append(time.perf_counter() - t0)
            if tracer:
                tracer.end_op(root)
                lat[-1] = tracer.spans[root][2] - tracer.spans[root][1]
            if why is None:
                try:
                    why = wl.check(op, res)
                except Exception as exc:  # e.g. output that does not parse
                    traceback.print_exc()
                    why = f"check raised {type(exc).__name__}: {exc}"
            ops.append(op)
            results.append(res)
            reasons.append(why)
        for i, why in enumerate(wl.check_round(batch, results[first:])):
            if why and reasons[first + i] is None:
                reasons[first + i] = why
        rounds.append(batch)
        r += 1
        if plan is None and len(ops) >= wl.min_ops:
            # stop at the round boundary nearest to ``seconds``
            elapsed = time.perf_counter() - start
            if elapsed + 0.5 * elapsed / r >= seconds:
                break
    return {"rounds": rounds, "ops": ops, "results": results, "lat": lat,
            "reasons": reasons, "wall": time.perf_counter() - start,
            "run_reason": wl.check_run(ops, results)}


def end_to_end(phase: dict, min_ops: int, peak_rss_mb: float) -> tuple[dict, dict]:
    """Timed-phase metrics (set-up is added by the parent) and the tail
    record.  The tail percentile is the one that qualifies at ``min_ops``,
    the fewest ops a run can have, so every run reports the same percentile."""
    lat = phase["lat"]
    metrics = {"ops_per_s": len(lat) / phase["wall"],
               "op_p50_ms": 1e3 * statistics.median(lat),
               "peak_rss_mb": peak_rss_mb}
    p = tail_percentile(min(min_ops, len(lat)))
    if p is not None:
        metrics["op_tail_ms"] = 1e3 * nearest_rank(lat, p)
    return metrics, {"percentile": p, "samples": len(lat),
                     "beyond": len(lat) - math.ceil(p / 100.0 * len(lat)) if p else None}


def per_layer(tracer: Tracer, untraced: dict, traced: dict, extras: dict,
              cpu_s: float) -> dict:
    stats = layer_stats(tracer.spans, tracer.cache)
    out = {}
    for name, keys in SPAN_METRICS.items():
        s = stats.get(name, {})
        for k in keys:
            out[f"{name}.{k}"] = s.get(k, 0)
    imports = [t1 - t0 for name, t0, t1, *_ in tracer.spans if name == "cli.import"]
    out["cli.import_s"] = statistics.median(imports) if imports else 0.0
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = sum(
            s["self_s"] for name, s in stats.items() if name.split(".")[0] == layer)
    out["process.cpu_s"] = cpu_s
    out["trace.op_s"] = sum(traced["lat"])
    out["trace.untraced_op_s"] = sum(untraced["lat"])
    out["trace.overhead_frac"] = out["trace.op_s"] / out["trace.untraced_op_s"] - 1.0
    out.update({name: extras.get(name, 0.0) for name in OTHER_METRICS if name not in out})
    return out


def _cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def _failures(phase: dict) -> list[str | None]:
    reasons = list(phase["reasons"])
    if phase["run_reason"]:
        reasons = [why or phase["run_reason"] for why in reasons]
    return reasons


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    import ctypes
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def versions() -> dict:
    import platform
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas_version = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def child_main(args) -> int:
    root = BENCH_DIR.parent
    src = (root / "src").resolve()
    if Path(sf.__file__).resolve().parent.parent != src:
        sys.stderr.write(f"scalefisher imported from {sf.__file__}, not {src}\n")
        return 2
    wl = WORKLOADS[args.workload](args.seed, smoke=args.smoke,
                                  workdir=BENCH_DIR / "out" / f"tmp-{os.getpid()}")
    try:
        wl.setup()
        record = {"setup_s": time.monotonic() - args.t0}
        if args.role == "measure":
            record.update(measure(wl, args))
    finally:
        wl.close()
    Path(args.result).write_text(json.dumps(record))
    return 0


def _label_counts(ops) -> dict:
    counts: dict[str, int] = {}
    for op in ops:
        counts[op.label] = counts.get(op.label, 0) + 1
    return counts


def measure(wl, args) -> dict:
    cpu0 = _cpu_seconds()
    phase = timed_phase(wl, args.seconds)
    cpu_s = _cpu_seconds() - cpu0
    fewest = max(wl.min_ops, len(phase["rounds"][0]))  # runs hold whole rounds
    metrics, tail_rec = end_to_end(phase, fewest, _peak_rss_mb())
    reasons = _failures(phase)
    rec = {
        "versions": versions(),
        "rounds": len(phase["rounds"]),
        "op_mix_per_round": _label_counts(phase["rounds"][0]),
        "op_counts": _label_counts(phase["ops"]),
        "tail": tail_rec,
        "wall_s": phase["wall"],
        "cpu_s": cpu_s,
        "end_to_end": metrics,
        "units": END_TO_END,
        "ops": [[op.key, round(1e3 * t, 3)] for op, t in zip(phase["ops"], phase["lat"])],
    }
    if args.trace:
        tracer = Tracer()
        tracer.install(sf)
        wl.tracer = tracer
        try:
            traced = timed_phase(wl, args.seconds, plan=phase["rounds"], tracer=tracer)
        finally:
            tracer.uninstall()
            wl.tracer = None
        for i, (a, b) in enumerate(zip(phase["results"], traced["results"])):
            if a != b and reasons[i] is None:
                reasons[i] = "traced result differs from untraced result"
        for i, why in enumerate(_failures(traced)):
            if why and reasons[i] is None:
                reasons[i] = f"traced: {why}"
        extras = wl.extras(phase["ops"], phase["results"], phase["lat"])
        rec["per_layer"] = per_layer(tracer, phase, traced, extras, cpu_s)
        rec["units"] = per_layer_units()
        spans_path = BENCH_DIR / "out" / f"{wl.name}-seed{wl.seed}.spans.jsonl"
        with open(spans_path, "w") as fh:
            for span, st in zip(tracer.spans, self_times(tracer.spans)):
                fh.write(json.dumps([*span, st]) + "\n")
        rec["spans_file"] = str(spans_path.relative_to(BENCH_DIR.parent))
    rec["failures"] = [{"op": op.key, "why": why}
                       for op, why in zip(phase["ops"], reasons) if why]
    rec["attempted"] = len(phase["ops"])
    rec["failed"] = len(rec["failures"])
    return rec

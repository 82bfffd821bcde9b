"""The benchmark's own tests: span arithmetic, tracer patching, seed
determinism, and a smoke-size pass of every workload."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import scalefisher as sf  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
from tracing import Tracer, layer_stats, self_times  # noqa: E402
from workloads import WORKLOADS, McDesk  # noqa: E402


def test_self_times_on_synthetic_tree():
    # root [0, 10] with children [1, 4] and [3, 6] (overlapping: union 5),
    # the first child has a grandchild [2, 3]
    spans = [("process", 0.0, 10.0, -1, 0, 0),
             ("fisher.a", 1.0, 4.0, 0, 0, 0),
             ("linalg.b", 2.0, 3.0, 1, 0, 0),
             ("model.c", 3.0, 6.0, 0, 0, 7)]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 3.0])
    stats = layer_stats(spans, {"fisher.a": [2, 1]})
    assert stats["model.c"]["points"] == 7
    assert stats["fisher.a"]["hits"] == 2 and stats["fisher.a"]["misses"] == 1


def test_self_times_sum_to_root_duration_for_nested_spans():
    spans = [("process", 0.0, 4.0, -1, 0, 0), ("fisher.a", 0.5, 3.0, 0, 0, 0),
             ("fisher.b", 1.0, 2.0, 1, 0, 0), ("quad.c", 2.0, 2.5, 1, 0, 0)]
    assert sum(self_times(spans)) == pytest.approx(4.0)


def test_tracer_rebinds_every_namespace_and_restores():
    originals = (sf.fisher.diff_cov, sf.montecarlo.sample_z, sf.sample_z,
                 sf.ModelSpec.spectral_density_x)
    sf.fisher.whitened_system.cache_clear()
    tracer = Tracer()
    tracer.install(sf)
    try:
        assert sf.fisher.diff_cov is sf.linalg.diff_cov is not originals[0]
        assert sf.montecarlo.sample_z is sf.sample_z is not originals[1]
        assert sf.ModelSpec.spectral_density_x is not originals[3]
        root = tracer.begin_op(0)
        sf.fisher_exact(sf.fbm_wn_spec(32, 0.4))
        tracer.end_op(root)
        sf.fisher_exact(sf.fbm_wn_spec(33, 0.4))  # outside an op: not recorded
    finally:
        tracer.uninstall()
    assert (sf.fisher.diff_cov, sf.montecarlo.sample_z, sf.sample_z,
            sf.ModelSpec.spectral_density_x) == originals
    names = {s[0] for s in tracer.spans}
    assert {"process", "fisher.fisher_exact", "fisher.whitened_system",
            "linalg.diff_cov", "linalg.whiten", "model.cov_x"} <= names
    assert all(s[4] == 0 for s in tracer.spans)
    assert sum(self_times(tracer.spans)) == pytest.approx(
        tracer.spans[root][2] - tracer.spans[root][1])


def test_absent_layers_report_zero():
    phase = {"lat": [1.0]}
    out = harness.per_layer(Tracer(), phase, phase, {}, 0.0)
    assert set(out) == set(harness.per_layer_units())
    assert out["linalg.diff_cov.calls"] == 0 and out["linalg.diff_cov.self_s"] == 0


def test_tail_percentile_leaves_ten_samples_beyond():
    assert harness.tail_percentile(19) is None
    assert harness.tail_percentile(20) == 50.0
    assert harness.tail_percentile(40) == 75.0
    assert harness.tail_percentile(100) == 90.0
    assert harness.nearest_rank(list(range(1, 41)), 75.0) == 30


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.per_layer_units()


def _mc_pass(seed):
    wl = McDesk(seed, smoke=True)
    wl.setup()
    plan = [wl.round_ops(0), wl.round_ops(1)]
    phase = harness.timed_phase(wl, 0.0, plan=plan)
    return phase["results"], phase["reasons"], phase["run_reason"]


def test_mc_desk_same_seed_same_estimates_and_checks():
    first, second, other = _mc_pass(11), _mc_pass(11), _mc_pass(12)
    assert first == second
    assert first[0] != other[0]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_pass_has_no_failures(workload):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0.1", "--trace", "1" if workload == "dense_exact" else "0",
         "--smoke"], cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-2000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 20
    if workload == "dense_exact":
        m = {k: v["value"] for k, v in line["metrics"].items()}
        assert m["linalg.diff_cov.calls"] == m["fisher.fisher_exact.calls"] > 0
        layers = sum(v for k, v in m.items() if k.startswith("layer."))
        assert layers == pytest.approx(m["trace.op_s"], rel=1e-6)
    else:
        assert set(line["metrics"]) == set(harness.END_TO_END)

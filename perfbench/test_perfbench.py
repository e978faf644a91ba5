"""Self-tests of the benchmark.  Run from the repository root::

    python -m pytest perfbench -q
"""

from __future__ import annotations

import os

# Same BLAS pinning as run.py (effective when NumPy is not imported yet).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import json  # noqa: E402
import math  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from perf_metrics import END_TO_END, PER_LAYER, run_workload  # noqa: E402
from perf_workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
#: Small enough that every workload finishes in a few seconds.
TINY_SECONDS = 0.5
#: Counted per-layer quantities that must repeat exactly for one seed.
COUNTED = ("engine.steps", "model.prefill_tokens", "model.decode_tokens",
           "scheduler.preemptions", "radix.reuse_frac", "cluster.rounds")


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_reports_every_end_to_end_metric(name):
    outcome = run_workload(name, seed=3, seconds=TINY_SECONDS, trace=False)
    assert outcome.correct and outcome.failed == 0
    metrics = outcome.as_json()["metrics"]
    assert set(metrics) == set(END_TO_END)
    for metric, entry in metrics.items():
        assert entry["unit"] == END_TO_END[metric]
        assert math.isfinite(entry["value"]) and entry["value"] > 0, metric
        # Host-speed scaling rescales times; it never turns them into noise.
        assert 0.2 < entry["value"] / outcome.unscaled[metric] < 5.0, metric
    for metric in ("completed_frac", "token_match_frac", "peak_rss_mb"):
        assert outcome.metrics[metric] == outcome.unscaled[metric], metric


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_runs_repeat_counts_and_self_times_sum_to_root(name):
    first = run_workload(name, seed=3, seconds=TINY_SECONDS, trace=True)
    second = run_workload(name, seed=3, seconds=TINY_SECONDS, trace=True)
    assert first.correct and second.correct
    assert set(first.as_json()["metrics"]) == set(PER_LAYER)
    for metric in COUNTED:
        assert first.metrics[metric] == second.metrics[metric], metric

    tracer = first.tracer
    roots = [i for i, parent in enumerate(tracer.parents) if parent < 0]
    assert [tracer.names[i] for i in roots] == ["bench.run"]
    root_duration = tracer.ends[roots[0]] - tracer.starts[roots[0]]
    assert sum(tracer.by_layer().values()) == pytest.approx(root_duration, rel=1e-9)
    assert np.all(tracer.self_times() >= -1e-9)

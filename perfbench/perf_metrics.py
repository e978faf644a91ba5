"""One benchmark run: set-up, timed phase, output check and metrics.

End-to-end numbers come from untraced runs only.  Their times are scaled to
a reference host speed: each step's wall time is multiplied by
``GAUGE_REFERENCE_S`` over the median duration of the host gauge's samples
around it (see :class:`perf_workloads.HostGauge`), and ``wall_s`` and
``setup_s`` by the steps' time-weighted mean factor.  This takes the shared
host's speed swings out of run-to-run comparisons.  The unscaled values are
printed beside them.

A traced run (``trace=True``) serves the input once untraced as its base,
then once under the probes of :mod:`perf_trace`, and reports the unscaled
per-layer metrics plus the traced/untraced wall-time ratio as
``trace.overhead_frac``.
"""

from __future__ import annotations

import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from perf_trace import Tracer, installed
from perf_workloads import WORKLOADS, Run

#: Set-ups per untraced run (the last one is measured); ``setup_s`` is
#: their median.
SETUP_REPEATS = 5
#: Median host-gauge sample on the reference host (2-vCPU x86 VM, NumPy
#: 1-thread OpenBLAS): scaled times read as wall times on that host.
GAUGE_REFERENCE_S = 3.3e-4
#: Gauge samples on each side of a step whose median scales that step.
GAUGE_NEIGHBOURS = 16
#: Processes that compute reference tokens after the timed phase.
REFERENCE_WORKERS = 2
#: Longest wait for one reference worker, in seconds.
REFERENCE_TIMEOUT_S = 120.0
REFERENCE_WORKER = Path(__file__).resolve().with_name("perf_reference.py")

#: End-to-end metrics: name -> unit.  Every workload reports all of them.
END_TO_END = {
    "setup_s": "s",
    "decode_tok_s": "tok/s",
    "makespan_s": "s",
    "wall_s": "s",
    "ttft_p50_ms": "ms",
    "ttft_p90_ms": "ms",
    "itl_p50_ms": "ms",
    "itl_p99_ms": "ms",
    "slo_goodput_frac": "frac",
    "completed_frac": "frac",
    "token_match_frac": "frac",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics of the traced run: name -> unit.
PER_LAYER = {
    "cluster.rounds": "count", "cluster.self_s": "s", "router.route_calls": "count",
    "router.route_s": "s", "cluster.load_imbalance": "ratio",
    "engine.steps": "count", "engine.step_p50_ms": "ms", "engine.step_p99_ms": "ms",
    "engine.self_s": "s",
    "scheduler.s": "s", "scheduler.batch_mean": "seqs",
    "scheduler.queue_wait_p50_ms": "ms", "scheduler.preemptions": "count",
    "kv_manager.s": "s", "kv_manager.reserve_calls": "count",
    "kv_manager.reserve_fail_frac": "frac", "kv_manager.peak_used_frac": "frac",
    "radix.match_calls": "count", "radix.reuse_frac": "frac", "radix.inserts": "count",
    "radix.evictions": "count", "radix.s": "s",
    "executor.prefill_s": "s", "executor.decode_s": "s", "executor.self_s": "s",
    "model.prefill_s": "s", "model.prefill_tokens": "count", "model.decode_s": "s",
    "model.decode_calls": "count", "model.decode_tokens": "count",
    "model.decode_ms_per_call": "ms", "model.gflop": "GFLOP",
    "kv_pool.gather_s": "s", "kv_pool.gather_calls": "count", "kv_pool.gather_mb": "MB",
    "kv_pool.scatter_s": "s", "kv_pool.peak_pages": "count",
    "aerp.observe_s": "s", "aerp.fetch_s": "s", "aerp.append_s": "s",
    "aerp.end_step_s": "s", "aerp.recompute_frac": "frac",
    "refresh.corrupt_calls": "count", "refresh.corrupt_s": "s",
    "trace.overhead_frac": "frac",
}


@dataclass
class Outcome:
    """A run's printed result plus what the self-tests inspect."""

    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    tracer: Tracer | None = None
    #: The end-to-end metrics without host-speed scaling (untraced runs).
    unscaled: dict[str, float] | None = None

    def as_json(self) -> dict:
        units = {**END_TO_END, **PER_LAYER}
        return {"correct": self.correct, "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {name: {"value": value, "unit": units[name]}
                            for name, value in self.metrics.items()}}


def _pct(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def check_outputs(name: str, runs: list[Run], seed: int, seconds: float) -> tuple[int, int]:
    """(finished results, those whose tokens equal their request's reference).

    References are computed after the timed phase, outside every timed
    window, split across ``REFERENCE_WORKERS`` worker processes
    (``perf_reference.py``; each regenerates the same requests and rebuilds
    the same seeded model).  Every worker has ended before this returns,
    also when one fails or times out.
    """
    procs: list[subprocess.Popen] = []
    reference: dict[str, list[int]] = {}
    try:
        for index in range(REFERENCE_WORKERS):
            procs.append(subprocess.Popen(
                [sys.executable, str(REFERENCE_WORKER), name, str(seed), repr(seconds),
                 str(index), str(REFERENCE_WORKERS)],
                stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True))
        for proc in procs:
            out, _ = proc.communicate(timeout=REFERENCE_TIMEOUT_S)
            if proc.returncode != 0:
                raise RuntimeError(f"reference worker exited with {proc.returncode}")
            reference.update(json.loads(out))
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    finished = [r for run in runs for r in run.results if r.status == "finished"]
    matched = sum(list(r.generated_tokens) == reference.get(r.request.request_id)
                  for r in finished)
    return len(finished), matched


def host_scales(run: Run) -> dict[tuple[int, int], float]:
    """Each step's factor to reference host speed, from the gauge samples around it."""
    at, took = np.asarray(run.gauge.at), np.asarray(run.gauge.took)
    scales = {}
    for key, started in run.step_at.items():
        i = int(np.searchsorted(at, started))
        near = took[max(0, i - GAUGE_NEIGHBOURS):i + GAUGE_NEIGHBOURS]
        scales[key] = GAUGE_REFERENCE_S / float(np.median(near))
    return scales


def timeline(run: Run, scale: dict[tuple[int, int], float] | None = None
             ) -> tuple[dict[int, float], float, dict[str, list[float]]]:
    """Clock start times, makespan and token times on the run's step clock.

    A clock (engine step or cluster round) lasts as long as its slowest
    lane, which for a cluster is the parallel clock; a token's time is its
    clock's start plus its offset into its lane's step.  ``scale``: each
    step's factor applied to its time and offsets (:func:`host_scales`).
    """
    if scale is None:
        scale = dict.fromkeys(run.step_s, 1.0)
    clock_s: dict[int, float] = {}
    for (clock, lane), seconds in run.step_s.items():
        clock_s[clock] = max(clock_s.get(clock, 0.0), seconds * scale[(clock, lane)])
    start, elapsed = {}, 0.0
    for clock in sorted(set(clock_s) | set(run.due_clock.values())):
        start[clock] = elapsed
        elapsed += clock_s.get(clock, 0.0)
    tokens = {rid: [start[clock] + offset * scale[(clock, lane)]
                    for clock, lane, offset in marks]
              for rid, marks in run.tokens.items()}
    return start, elapsed, tokens


def end_to_end(workload, run: Run, setup_s: float, rss_mb: float,
               finished: int, matched: int, scaled: bool) -> dict[str, float]:
    scale = host_scales(run) if scaled else None
    start, makespan_s, token_s = timeline(run, scale)
    wall_s = run.wall_s
    if scale is not None:
        run_scale = (sum(run.step_s[key] * factor for key, factor in scale.items())
                     / sum(run.step_s.values()))
        wall_s *= run_scale
        setup_s *= run_scale
    ttft, itl, good = [], [], 0
    for result in run.results:
        if result.status != "finished":
            continue
        rid = result.request.request_id
        times = token_s[rid]
        first = (times[0] - start[run.due_clock[rid]]) * 1e3
        gaps = np.diff(times) * 1e3
        ttft.append(first)
        itl.extend(gaps.tolist())
        mean_gap = float(gaps.mean()) if gaps.size else 0.0
        if first <= workload.slo_ttft_ms and mean_gap <= workload.slo_itl_ms:
            good += 1
    sent = len(run.requests)
    return {
        "setup_s": setup_s,
        "decode_tok_s": sum(len(r.generated_tokens) for r in run.results) / makespan_s,
        "makespan_s": makespan_s,
        "wall_s": wall_s,
        "ttft_p50_ms": _pct(ttft, 50),
        "ttft_p90_ms": _pct(ttft, 90),
        "itl_p50_ms": _pct(itl, 50),
        "itl_p99_ms": _pct(itl, 99),
        "slo_goodput_frac": good / sent,
        "completed_frac": finished / sent,
        "token_match_frac": matched / finished if finished else 0.0,
        "peak_rss_mb": rss_mb,
    }


def per_layer(tracer: Tracer, run: Run, untraced_wall_s: float) -> dict[str, float]:
    table = tracer.by_name()
    counts, peaks = tracer.counts, tracer.peaks

    def busy(*names: str) -> float:
        return sum(table[n]["busy_s"] for n in names if n in table)

    def calls(name: str) -> int:
        return int(table[name]["count"]) if name in table else 0

    def self_s(layer: str) -> float:
        return sum(row["self_s"] for name, row in table.items()
                   if name.split(".", 1)[0] == layer)

    durations = tracer.durations()
    names = np.asarray(tracer.names)
    steps_ms = (durations[names == "engine.step"] * 1e3).tolist()
    start, _, _ = timeline(run)
    waits = [(start[clock] - start[run.due_clock[rid]]) * 1e3
             for rid, clock in tracer.admit_clock.items()]
    decode_calls = calls("model.decode_step_batch")
    decode_s = busy("model.decode_step_batch")
    reserve_calls = calls("kv_manager.reserve")
    fracs = tracer.recompute_fracs
    return {
        "cluster.rounds": run.counted.get("cluster.rounds", 0),
        "cluster.self_s": self_s("cluster"),
        "router.route_calls": calls("router.route"),
        "router.route_s": busy("router.route"),
        "cluster.load_imbalance": run.counted.get("cluster.load_imbalance", 0.0),
        "engine.steps": run.counted["engine.steps"],
        "engine.step_p50_ms": _pct(steps_ms, 50),
        "engine.step_p99_ms": _pct(steps_ms, 99),
        "engine.self_s": self_s("engine"),
        "scheduler.s": self_s("scheduler"),
        "scheduler.batch_mean": counts["model.decode_tokens"] / max(decode_calls, 1),
        "scheduler.queue_wait_p50_ms": _pct(waits, 50),
        "scheduler.preemptions": run.counted["scheduler.preemptions"],
        "kv_manager.s": self_s("kv_manager"),
        "kv_manager.reserve_calls": reserve_calls,
        "kv_manager.reserve_fail_frac": (counts["kv_manager.reserve_fails"]
                                         / max(reserve_calls, 1)),
        "kv_manager.peak_used_frac": peaks["kv_manager.peak_used_frac"],
        "radix.match_calls": calls("radix.match"),
        "radix.reuse_frac": run.counted["reused_tokens"] / max(run.counted["prompt_tokens"], 1),
        "radix.inserts": int(counts["radix.inserted"]),
        "radix.evictions": int(counts["radix.evicted"]),
        "radix.s": self_s("radix"),
        "executor.prefill_s": busy("executor.prefill_whole", "executor.prefill_chunks"),
        "executor.decode_s": busy("executor.decode_step"),
        "executor.self_s": self_s("executor"),
        "model.prefill_s": busy("model.prefill_batch", "model.prefill_chunk"),
        "model.prefill_tokens": int(counts["model.prefill_tokens"]),
        "model.decode_s": decode_s,
        "model.decode_calls": decode_calls,
        "model.decode_tokens": int(counts["model.decode_tokens"]),
        "model.decode_ms_per_call": decode_s * 1e3 / max(decode_calls, 1),
        "model.gflop": counts["model.flop"] / 1e9,
        "kv_pool.gather_s": busy("kv_pool.gather_pages"),
        "kv_pool.gather_calls": calls("kv_pool.gather_pages"),
        "kv_pool.gather_mb": counts["kv_pool.gather_bytes"] / 1e6,
        "kv_pool.scatter_s": busy("kv_pool.scatter_tokens"),
        "kv_pool.peak_pages": int(peaks["kv_pool.peak_pages"]),
        "aerp.observe_s": busy("aerp.observe_attention"),
        "aerp.fetch_s": busy("aerp.fetch"),
        "aerp.append_s": busy("aerp.append"),
        "aerp.end_step_s": busy("aerp.end_step"),
        "aerp.recompute_frac": float(np.mean(fracs)) if fracs else 0.0,
        "refresh.corrupt_calls": calls("refresh.corrupt"),
        "refresh.corrupt_s": busy("refresh.corrupt"),
        "trace.overhead_frac": run.wall_s / untraced_wall_s - 1.0,
    }


def _setups(workload, seed: int, count: int) -> tuple[list, float]:
    """``count`` timed set-ups: the first and last (model, target) pairs, and
    the median time."""
    built, times = [], []
    for _ in range(count):
        start = time.perf_counter()
        built[1:] = [workload.setup(seed)]
        times.append(time.perf_counter() - start)
    return built, statistics.median(times)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Outcome:
    workload = WORKLOADS[name]
    requests, due = workload.inputs(seed, seconds)
    built, setup_s = _setups(workload, seed, 2 if trace else SETUP_REPEATS)
    lm, target = built[-1]
    run = workload.drive(lm, target, requests, due, None)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    runs = [run]
    tracer = unscaled = None
    if trace:
        tracer = Tracer()
        lm, target = built[0]
        with installed(tracer):
            runs.append(workload.drive(lm, target, requests, due, tracer))
        metrics = per_layer(tracer, runs[1], run.wall_s)
    finished, matched = check_outputs(name, runs, seed, seconds)
    if not trace:
        metrics = end_to_end(workload, run, setup_s, rss_mb, finished, matched, True)
        unscaled = end_to_end(workload, run, setup_s, rss_mb, finished, matched, False)
    attempted = sum(len(r.requests) for r in runs)
    return Outcome(correct=(matched == finished == attempted), attempted=attempted,
                   failed=attempted - matched, metrics=metrics, tracer=tracer,
                   unscaled=unscaled)

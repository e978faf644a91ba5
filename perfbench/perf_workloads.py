"""The three benchmark workloads: request generation, set-up, drivers, references.

Arrivals run on the engine-step clock (cluster: the round clock), never on
the wall clock: request *i* is due at a fixed step or round whatever has
completed, steps run back to back, and a request's latency is wall time
from the start of its due step.  Batch composition, step counts and
preemption counts therefore repeat exactly for one seed; only service time
varies from run to run.

The amount of work grows with ``seconds`` through a per-workload request
rate calibrated so that the timed phase takes about that long on a 2-core
x86 host; the work is fixed for a given ``(seed, seconds)``, so counted
quantities repeat exactly.
"""

from __future__ import annotations

import gc
import time
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro import resolve
from repro.llm.config import tiny_config
from repro.llm.generation import generate
from repro.llm.model import DecoderLM
from repro.serve import ClusterEngine, Request, ServingEngine

from perf_trace import Tracer, trace_router

#: The random-weight model every workload serves.
MODEL = dict(n_layers=4, d_model=64, n_heads=4, d_ff=128, vocab_size=128, max_seq_len=512)


class HostGauge:
    """A fixed calibration kernel, timed between steps outside every timed window.

    A shared host runs at speeds up to 2x apart over seconds to minutes.
    The kernel (small GEMMs, element-wise NumPy and interpreter work, like a
    serving step) calls no ``repro`` code, so no change to the program can
    move it: its duration next to a step says how fast the host ran then.
    :mod:`perf_metrics` scales step times by it.
    """

    #: Least wall time between two samples: bounds the overhead to ~2%.
    every_s = 0.02
    _a = np.random.default_rng(0).standard_normal((32, 64))
    _b = np.random.default_rng(1).standard_normal((64, 64))

    def __init__(self) -> None:
        #: perf_counter at the start of each sample, and its duration.
        self.at: list[float] = []
        self.took: list[float] = []

    def sample(self) -> None:
        """Time the kernel, unless the last sample is less than ``every_s`` old."""
        start = time.perf_counter()
        if self.at and start - self.at[-1] < self.every_s:
            return
        for _ in range(16):
            np.exp((self._a @ self._b)[0] * 0.01).sum()
            sum(range(64))
        self.at.append(start)
        self.took.append(time.perf_counter() - start)


def build_model() -> DecoderLM:
    return DecoderLM(tiny_config("perfbench", **MODEL), seed=0)


def _prompt(rng: np.random.Generator, n: int) -> tuple[int, ...]:
    return tuple(int(t) for t in rng.integers(0, MODEL["vocab_size"], size=n))


def _jitter(rng: np.random.Generator, mean: int, spread: float) -> int:
    return max(1, int(round(mean * rng.uniform(1.0 - spread, 1.0 + spread))))


@dataclass
class Run:
    """One timed phase, recorded on the step (cluster: round) clock.

    ``step_s`` maps ``(clock, lane)`` to that step's wall time, where the
    lane is 0 for one engine and the replica for a cluster, and ``step_at``
    to its start.  ``tokens`` maps a request id to the ``(clock, lane,
    offset)`` of each generated token, the offset measured from the start of
    that step.  ``wall_s`` excludes the host gauge's samples.
    """

    requests: list[Request]
    results: list
    #: request id -> clock the request was due at.
    due_clock: dict[str, int]
    step_s: dict[tuple[int, int], float]
    step_at: dict[tuple[int, int], float]
    tokens: dict[str, list[tuple[int, int, float]]]
    wall_s: float
    gauge: HostGauge
    #: Counted quantities from the serving reports (exactly repeatable).
    counted: dict[str, float] = field(default_factory=dict)


class TokenLog:
    """``on_token`` callback: each token's step, lane and offset into the step."""

    def __init__(self) -> None:
        self.tokens: dict[str, list[tuple[int, int, float]]] = defaultdict(list)
        #: (clock, lane, start) of the step being run, set by the driver.
        self.step = (0, 0, 0.0)

    def __call__(self, event) -> None:
        clock, lane, start = self.step
        self.tokens[event.request_id].append((clock, lane, time.perf_counter() - start))


class Workload:
    """Shared shape: requests and their due clocks from the seed."""

    name = ""
    why = ""
    #: Requests per ``--seconds`` (calibrated; see the module docstring).
    requests_per_s = 1.0
    #: SLO limits behind ``slo_goodput_frac``.
    slo_ttft_ms = 0.0
    slo_itl_ms = 0.0

    def make_requests(self, rng: np.random.Generator, n: int, tag: str) -> list[Request]:
        raise NotImplementedError

    def due_steps(self, rng: np.random.Generator, n: int) -> list[int] | None:
        """Open loop: each request's due step or round.  ``None``: closed loop."""
        return None

    def inputs(self, seed: int, seconds: float) -> tuple[list[Request], list[int] | None]:
        n = max(1, int(round(seconds * self.requests_per_s)))
        rng = np.random.default_rng(seed)
        return self.make_requests(rng, n, self.name[0]), self.due_steps(rng, n)

    def reference(self, lm: DecoderLM, request: Request, seed: int) -> list[int]:
        """Greedy tokens of ``request`` served alone with the ``full`` cache."""
        return generate(lm, request.prompt_tokens, request.decode_len).generated_tokens


# ---------------------------------------------------------------------------
# Single-engine workloads
# ---------------------------------------------------------------------------
class EngineWorkload(Workload):
    """One :class:`ServingEngine` session driven step by step."""

    concurrency = 8
    prompt_len = decode_len = 1
    #: Uniform +/- spreads of prompt and decode lengths.
    prompt_jitter = decode_jitter = 0.0

    def session_kwargs(self) -> dict:
        raise NotImplementedError

    def make_requests(self, rng: np.random.Generator, n: int, tag: str) -> list[Request]:
        out = []
        for i in range(n):
            prompt = _prompt(rng, _jitter(rng, self.prompt_len, self.prompt_jitter))
            out.append(Request(f"{tag}{i}", float(i), len(prompt),
                               _jitter(rng, self.decode_len, self.decode_jitter),
                               prompt_tokens=prompt))
        return out

    def warmup_requests(self) -> list[Request]:
        rng = np.random.default_rng(99)
        return [Request(f"warm{i}", float(i), 16, 4, prompt_tokens=_prompt(rng, 16))
                for i in range(self.concurrency)]

    def setup(self, seed: int):
        """Build the model, warm it up, and open the measured session.

        Warm-up runs a throwaway session on the same model (workspace and
        group-buffer allocation), so the measured session starts clean.
        """
        lm = build_model()
        warm = ServingEngine(max_concurrency=self.concurrency).start_functional(
            lm, seed=seed, **self.session_kwargs())
        warm.submit(self.warmup_requests())
        while warm.step():
            pass
        warm.finish()
        log = TokenLog()
        session = ServingEngine(max_concurrency=self.concurrency).start_functional(
            lm, seed=seed, on_token=log, **self.session_kwargs())
        return lm, (session, log)

    def drive(self, lm: DecoderLM, target, requests: list[Request],
              due: list[int] | None, tracer: Tracer | None) -> Run:
        """Step the session back to back, submitting each request when due.

        Open loop: request ``i`` is submitted at step ``due[i]``; idle
        stretches before the next arrival are skipped.  Closed loop: keep
        ``concurrency`` requests outstanding (clients join one per step),
        each client sending its next request at the step after its previous
        one finished.
        """
        session, log = target
        report = session.report
        step_s: dict[tuple[int, int], float] = {}
        step_at: dict[tuple[int, int], float] = {}
        gauge = HostGauge()
        due_clock: dict[str, int] = {}
        sent = step = 0
        n = len(requests)
        gc.collect()
        start = time.perf_counter()
        with tracer.span("bench.run") if tracer is not None else nullcontext():
            while True:
                if due is None:
                    limit = min(n, min(self.concurrency, step + 1) + len(report.results))
                else:
                    limit = sent
                    while limit < n and due[limit] <= step:
                        limit += 1
                if limit == sent and not session.has_work():
                    if due is None or sent == n:
                        break
                    step = due[sent]
                    continue
                step_start = time.perf_counter()
                log.step = (step, 0, step_start)
                if limit > sent:
                    batch = requests[sent:limit]
                    session.submit(batch)
                    for request in batch:
                        due_clock[request.request_id] = step
                    sent = limit
                session.step(clock=step)
                step_s[(step, 0)] = time.perf_counter() - step_start
                step_at[(step, 0)] = step_start
                gauge.sample()
                step += 1
        wall = time.perf_counter() - start - sum(gauge.took)
        report = session.finish()
        counted = {"engine.steps": len(report.step_latencies_s),
                   "scheduler.preemptions": report.n_preemptions,
                   "prompt_tokens": report.total_prompt_tokens,
                   "reused_tokens": report.reused_prefix_tokens}
        return Run(requests, report.results, due_clock, step_s, step_at, dict(log.tokens),
                   wall, gauge, counted)


class KelleDecode(EngineWorkload):
    name = "kelle_decode"
    why = ("closed loop on the paper's kelle cache (AERP eviction+recompute, "
           "2DRP faults), budget below context: the slowest decode path")
    requests_per_s = 8.0
    spec = "kelle:budget=16,sink_tokens=2,recent_window=4"
    # Equal decode lengths keep the clients, which join one step apart, out
    # of phase: at most one admission per step, so TTFT is one prefill.
    prompt_len, decode_len, prompt_jitter = 12, 32, 0.25
    slo_ttft_ms, slo_itl_ms = 400.0, 150.0

    def session_kwargs(self) -> dict:
        return {"cache": resolve("cache", self.spec)}

    def reference(self, lm: DecoderLM, request: Request, seed: int) -> list[int]:
        """The request served alone through a kelle session (same spec, seed)."""
        report = ServingEngine(max_concurrency=1).run_functional(
            lm, [request], seed=seed, **self.session_kwargs())
        return report.results[0].generated_tokens


class PagedPoisson(EngineWorkload):
    name = "paged_poisson"
    why = ("open-loop Poisson arrivals of disjoint long prompts on the bounded "
           "paged pool with chunked prefill and fused decode: the fast path")
    requests_per_s = 23.0
    prompt_len, decode_len = 192, 32
    prompt_jitter = decode_jitter = 0.3
    #: Mean arrivals per engine step.
    rate_per_step = 0.08
    page_tokens, pool_pages = 16, 104
    token_budget = 64
    radix_max_tokens = 1024
    slo_ttft_ms, slo_itl_ms = 300.0, 30.0

    def session_kwargs(self) -> dict:
        cache = resolve("cache", f"paged:page_tokens={self.page_tokens},"
                                 f"initial_pages={self.pool_pages},grow=false")
        return {"cache": cache, "prefix_cache": True, "token_budget": self.token_budget,
                "radix_max_tokens": self.radix_max_tokens}

    def due_steps(self, rng: np.random.Generator, n: int) -> list[int]:
        gaps = rng.exponential(1.0 / self.rate_per_step, size=n)
        return [int(s) for s in np.floor(np.cumsum(gaps) - gaps[0])]


# ---------------------------------------------------------------------------
# Cluster workload
# ---------------------------------------------------------------------------
class PrefixCluster(Workload):
    name = "prefix_cluster"
    why = ("4-replica cluster, radix-affinity routing, Zipf shared-prefix "
           "traffic: the read side of the radix and KV layers plus the router")
    n_replicas = 4
    concurrency = 8
    requests_per_s = 80.0
    n_templates, alpha = 12, 1.1
    prefix_len, suffix_len, decode_len = 192, 24, 6
    arrivals_per_round = 2
    page_tokens, pool_pages = 16, 224
    token_budget = 128
    radix_max_tokens = 1080
    slo_ttft_ms, slo_itl_ms = 250.0, 30.0

    def cluster(self, seed: int) -> ClusterEngine:
        cache = (f"paged:page_tokens={self.page_tokens},"
                 f"initial_pages={self.pool_pages},grow=false")
        return ClusterEngine(
            self.n_replicas, router=f"radix-affinity:threshold={self.prefix_len // 4}",
            max_concurrency=self.concurrency, cache=cache, prefix_cache=True,
            token_budget=self.token_budget, radix_max_tokens=self.radix_max_tokens,
            arrivals_per_step=self.arrivals_per_round, seed=seed)

    def make_requests(self, rng: np.random.Generator, n: int, tag: str) -> list[Request]:
        templates = [_prompt(rng, self.prefix_len) for _ in range(self.n_templates)]
        weights = np.arange(1, self.n_templates + 1, dtype=float) ** -self.alpha
        picks = rng.choice(self.n_templates, size=n, p=weights / weights.sum())
        out = []
        for i, pick in enumerate(picks):
            prompt = templates[pick] + _prompt(rng, _jitter(rng, self.suffix_len, 0.5))
            out.append(Request(f"{tag}{i}", float(i), len(prompt),
                               _jitter(rng, self.decode_len, 0.34), prompt_tokens=prompt))
        return out

    def due_steps(self, rng: np.random.Generator, n: int) -> list[int]:
        # ClusterEngine routes arrivals_per_step requests per round in
        # arrival order, and arrival times here follow list order.
        return [i // self.arrivals_per_round for i in range(n)]

    def setup(self, seed: int):
        """Build the model, warm up on a throwaway cluster, build the cluster."""
        lm = build_model()
        rng = np.random.default_rng(99)
        template = _prompt(rng, 64)
        warm = [Request(f"warm{i}", float(i), 72, 4,
                        prompt_tokens=template + _prompt(rng, 8)) for i in range(8)]
        self.cluster(seed).run(lm, warm)
        return lm, self.cluster(seed)

    def drive(self, lm: DecoderLM, cluster: ClusterEngine, requests: list[Request],
              due: list[int], tracer: Tracer | None) -> Run:
        """One ``ClusterEngine.run``, each replica step timed from its session.

        Latencies are taken on the parallel clock: a round lasts as long as
        its slowest replica step, so control-plane time between steps is
        excluded there and shows in ``wall_s`` instead.
        """
        step_s: dict[tuple[int, int], float] = {}
        step_at: dict[tuple[int, int], float] = {}
        gauge = HostGauge()
        log = TokenLog()

        def instrument(engine: ServingEngine, replica: int) -> None:
            start_functional = engine.start_functional

            def start(*args, **kwargs):
                session = start_functional(*args, on_token=log, **kwargs)
                step = session.step

                def timed_step(clock=None):
                    step_start = time.perf_counter()
                    log.step = (clock, replica, step_start)
                    try:
                        return step(clock=clock)
                    finally:
                        step_s[(clock, replica)] = time.perf_counter() - step_start
                        step_at[(clock, replica)] = step_start
                        gauge.sample()

                session.step = timed_step
                return session

            engine.start_functional = start

        for replica, engine in enumerate(cluster.engines):
            instrument(engine, replica)
        if tracer is not None:
            trace_router(tracer, cluster)
        gc.collect()
        start = time.perf_counter()
        with tracer.span("bench.run") if tracer is not None else nullcontext():
            report = cluster.run(lm, requests)
        wall = time.perf_counter() - start - sum(gauge.took)
        counted = {
            "engine.steps": sum(len(r.step_latencies_s) for r in report.replica_reports),
            "scheduler.preemptions": sum(r.n_preemptions for r in report.replica_reports),
            "prompt_tokens": report.total_prompt_tokens,
            "reused_tokens": report.reused_prefix_tokens,
            "cluster.rounds": report.cluster_steps,
            "cluster.load_imbalance": report.load_imbalance,
        }
        return Run(requests, report.results, {r.request_id: d for r, d in zip(requests, due)},
                   step_s, step_at, dict(log.tokens), wall, gauge, counted)


WORKLOADS = {w.name: w for w in (KelleDecode(), PagedPoisson(), PrefixCluster())}

"""Multi-request serving engine on top of the :class:`EdgeSystem` simulator.

The seed reproduction evaluates one workload trace at a time (one prompt
length, one decode length, one batch).  Real edge serving is a *stream* of
requests arriving over time -- a multi-tenant traffic scenario the paper's
north star calls for.  :class:`ServingEngine` closes that gap:

* a :class:`Request` describes one serving job (arrival time, prompt length,
  decode length, priority class);
* the engine composes a model config, an :class:`EdgeSystem` (both resolvable
  from registry spec strings) and a *continuous-batching admission* model:
  the accelerator runs up to ``max_concurrency`` sequences at once (the
  running batch), and a waiting request is admitted the moment a running
  sequence completes -- sequences join and leave the batch at request
  boundaries, which is exactly the continuous-batching discipline at request
  granularity;
* each admitted request's service latency and energy come from the underlying
  single-request :meth:`EdgeSystem.simulate` call for its geometry, so
  per-request accounting matches the dedicated-system simulation exactly
  while the queueing model adds the admission delays on top.

:meth:`ServingEngine.run_functional` drives the same admission discipline at
token granularity against a real :class:`~repro.llm.model.DecoderLM`, wired
through three explicit layers (the vLLM/SGLang-style split):

* :class:`~repro.serve.scheduler.Scheduler` — request lifecycle
  (``WAITING → PREFILL → DECODE → PREEMPTED → FINISHED/CANCELLED``) driven
  by a pluggable ``"policy"`` registry component (``fcfs``, ``priority``,
  ``sjf``);
* :class:`~repro.serve.kv_manager.KVSpaceManager` — KV-space accounting over
  the paged pool + radix prefix index, including preemption by
  eviction-and-recompute when a bounded pool runs out of pages;
* :class:`~repro.serve.executor.ModelExecutor` — batched prefill / decode /
  speculative-verify forwards, emitting per-token streaming events.

The engine loop itself is a thin wiring of those layers.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.accelerator.accelerator import EdgeSystem, SimulationResult
from repro.accelerator.energy import EnergyBreakdown
from repro.llm.config import ModelConfig
from repro.registry import resolve
from repro.serve.executor import ModelExecutor, OnToken, StepOutcome
from repro.serve.faults import TransientExecutorError, resolve_fault_plan
from repro.serve.kv_manager import KVSpaceManager, RequestCheckpoint
from repro.serve.scheduler import (
    Scheduler,
    SchedulingPolicy,
    SequenceState,
    resolve_policy,
)
from repro.utils.rng import derive_rng

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from repro.llm.cache import KVCacheFactory
    from repro.llm.model import DecoderLM
    from repro.llm.speculate import Drafter
    from repro.workloads.generator import WorkloadTrace


def _percentiles_from_sorted(sorted_values: np.ndarray,
                             percentiles: tuple[float, ...]) -> list[float]:
    """Percentiles of an already-sorted array (linear interpolation).

    Matches ``np.percentile``'s default method but sorts nothing, so one
    ``np.sort`` can serve every percentile a report needs.
    """
    if sorted_values.size == 0:
        return [0.0] * len(percentiles)
    ranks = (sorted_values.size - 1) * np.asarray(percentiles, dtype=np.float64) / 100.0
    low = np.floor(ranks).astype(np.intp)
    high = np.ceil(ranks).astype(np.intp)
    frac = ranks - low
    values = sorted_values[low] * (1.0 - frac) + sorted_values[high] * frac
    return [float(v) for v in values]


@dataclass(frozen=True)
class Request:
    """One serving request: arrival time plus prompt/decode geometry.

    ``prompt_tokens`` optionally pins the actual prompt contents (the
    shared-prefix and multi-turn workload generators use this so requests
    really share token prefixes); when None the functional engine
    synthesises a random prompt of ``prompt_len`` tokens.  ``priority`` is
    the traffic class consumed by the ``"priority"`` scheduling policy
    (0 is the most important; FCFS ignores it).

    ``deadline_steps`` bounds how many session steps the request may spend
    live after (re)submission before it is expired to ``status="timeout"``
    (``None`` = no deadline); ``max_retries`` caps how many injected
    transient executor failures are retried before the request is given up
    as ``status="failed"``.  Both are step-based, never wall-clock, so
    timeout behaviour is deterministic.

    ``tenant`` names the paying traffic source the request belongs to; the
    cluster's ``admission:`` policies (token buckets, weighted-fair shares)
    and the per-tenant goodput breakdown in :class:`ClusterReport` key off
    it.  Distinct from ``priority``: tenant is *who*, priority is *how
    urgent within the batch*.
    """

    request_id: str
    arrival_time_s: float
    prompt_len: int
    decode_len: int
    prompt_tokens: tuple[int, ...] | None = None
    priority: int = 0
    deadline_steps: int | None = None
    max_retries: int = 8
    tenant: str = "default"

    def __post_init__(self) -> None:
        if self.arrival_time_s < 0:
            raise ValueError("arrival_time_s must be non-negative")
        if self.prompt_len <= 0 or self.decode_len <= 0:
            raise ValueError("prompt_len and decode_len must be positive")
        if self.priority < 0:
            raise ValueError("priority must be non-negative (0 is most important)")
        if not self.tenant or not isinstance(self.tenant, str):
            raise ValueError("tenant must be a non-empty string")
        if self.deadline_steps is not None and self.deadline_steps <= 0:
            raise ValueError("deadline_steps must be positive (or None)")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.prompt_tokens is not None:
            object.__setattr__(self, "prompt_tokens",
                               tuple(int(t) for t in self.prompt_tokens))
            if len(self.prompt_tokens) != self.prompt_len:
                raise ValueError(
                    f"prompt_tokens has {len(self.prompt_tokens)} tokens but "
                    f"prompt_len={self.prompt_len}")

    @property
    def arrival_time(self) -> float:
        """Alias for :attr:`arrival_time_s` (scheduler-policy naming)."""
        return self.arrival_time_s

    @property
    def tokens_generated(self) -> int:
        return self.decode_len

    def trace(self) -> "WorkloadTrace":
        """The single-sequence hardware trace equivalent to this request."""
        # Imported here (not at module level) to keep repro.serve and
        # repro.workloads free of an import cycle.
        from repro.workloads.generator import WorkloadTrace

        return WorkloadTrace(name=f"req-{self.request_id}", context_len=self.prompt_len,
                             decode_len=self.decode_len, batch_size=1)


def poisson_requests(n_requests: int, rate_rps: float, prompt_len: int = 512,
                     decode_len: int = 512, length_jitter: float = 0.5,
                     seed: int = 0) -> list[Request]:
    """A synthetic Poisson arrival trace with uniform length jitter.

    ``length_jitter`` is the +/- spread applied multiplicatively to both the
    prompt and decode lengths (0 disables it), giving the mixed-length traffic
    a production serving queue sees.
    """
    if n_requests <= 0:
        raise ValueError("n_requests must be positive")
    if rate_rps <= 0:
        raise ValueError("rate_rps must be positive")
    if not 0.0 <= length_jitter < 1.0:
        raise ValueError("length_jitter must lie in [0, 1)")
    rng = derive_rng(seed, "poisson-requests")
    arrivals = np.cumsum(rng.exponential(1.0 / rate_rps, size=n_requests))
    requests = []
    for index, arrival in enumerate(arrivals):
        if length_jitter > 0:
            low, high = 1.0 - length_jitter, 1.0 + length_jitter
            prompt = max(1, int(round(prompt_len * rng.uniform(low, high))))
            decode = max(1, int(round(decode_len * rng.uniform(low, high))))
        else:
            prompt, decode = prompt_len, decode_len
        requests.append(Request(request_id=str(index), arrival_time_s=float(arrival),
                                prompt_len=prompt, decode_len=decode))
    return requests


@dataclass
class RequestResult:
    """Per-request serving outcome: admission, completion, latency and energy."""

    request: Request
    admitted_at_s: float
    finished_at_s: float
    prefill_latency_s: float
    decode_latency_s: float
    energy: EnergyBreakdown

    @property
    def queue_delay_s(self) -> float:
        return self.admitted_at_s - self.request.arrival_time_s

    @property
    def service_latency_s(self) -> float:
        return self.prefill_latency_s + self.decode_latency_s

    @property
    def total_latency_s(self) -> float:
        return self.finished_at_s - self.request.arrival_time_s

    @property
    def energy_j(self) -> float:
        return self.energy.total

    @property
    def tokens_generated(self) -> int:
        return self.request.decode_len

    @property
    def latency_per_token_s(self) -> float:
        return self.total_latency_s / self.tokens_generated

    @property
    def energy_per_token_j(self) -> float:
        return self.energy_j / self.tokens_generated


@dataclass
class ServingReport:
    """Aggregate outcome of one :meth:`ServingEngine.run` call."""

    system_name: str
    model_name: str
    max_concurrency: int
    results: list[RequestResult] = field(default_factory=list)

    @property
    def n_requests(self) -> int:
        return len(self.results)

    @property
    def makespan_s(self) -> float:
        """First arrival to last completion."""
        if not self.results:
            return 0.0
        start = min(r.request.arrival_time_s for r in self.results)
        end = max(r.finished_at_s for r in self.results)
        return end - start

    @property
    def total_tokens(self) -> int:
        return sum(r.tokens_generated for r in self.results)

    @property
    def total_energy_j(self) -> float:
        return sum(r.energy_j for r in self.results)

    @property
    def energy(self) -> EnergyBreakdown:
        merged = EnergyBreakdown()
        for result in self.results:
            merged = merged.merge(result.energy)
        return merged

    @property
    def throughput_tokens_per_s(self) -> float:
        makespan = self.makespan_s
        if makespan == 0:
            return 0.0
        return self.total_tokens / makespan

    @property
    def mean_queue_delay_s(self) -> float:
        if not self.results:
            return 0.0
        return float(np.mean([r.queue_delay_s for r in self.results]))

    @property
    def mean_total_latency_s(self) -> float:
        if not self.results:
            return 0.0
        return float(np.mean([r.total_latency_s for r in self.results]))

    def latency_percentile_s(self, percentile: float) -> float:
        """Total-latency percentile across requests (e.g. 95 for p95)."""
        if not self.results:
            return 0.0
        return float(np.percentile([r.total_latency_s for r in self.results], percentile))

    @property
    def peak_concurrency(self) -> int:
        """Maximum number of simultaneously running requests."""
        events: list[tuple[float, int]] = []
        for result in self.results:
            events.append((result.admitted_at_s, 1))
            events.append((result.finished_at_s, -1))
        events.sort(key=lambda item: (item[0], item[1]))
        level = peak = 0
        for _, delta in events:
            level += delta
            peak = max(peak, level)
        return peak

    def summary(self) -> str:
        """Human-readable multi-line summary of the run."""
        # One sort serves every latency statistic (mean and all percentiles).
        latencies = np.sort([r.total_latency_s for r in self.results])
        mean_latency = float(latencies.mean()) if latencies.size else 0.0
        (p95,) = _percentiles_from_sorted(latencies, (95,))
        lines = [
            f"ServingEngine report: {self.n_requests} requests on {self.system_name} "
            f"serving {self.model_name} (<= {self.max_concurrency} concurrent)",
            f"  makespan           {self.makespan_s:12.2f} s",
            f"  throughput         {self.throughput_tokens_per_s:12.1f} tok/s",
            f"  mean latency       {mean_latency:12.2f} s "
            f"(p95 {p95:.2f} s)",
            f"  mean queue delay   {self.mean_queue_delay_s:12.2f} s",
            f"  peak concurrency   {self.peak_concurrency:12d}",
            f"  total energy       {self.total_energy_j / 1e3:12.2f} kJ "
            f"({self.total_energy_j / max(self.total_tokens, 1) * 1e3:.2f} mJ/token)",
        ]
        return "\n".join(lines)


@dataclass
class FunctionalRequestResult:
    """Outcome of one functionally-decoded request (real tokens, real cache)."""

    request: Request
    prompt_tokens: list[int]
    generated_tokens: list[int]
    admitted_step: int
    finished_step: int
    #: Wall-clock seconds from admission to this request's first token.
    ttft_s: float = 0.0
    #: Prompt tokens restored from the radix prefix cache instead of prefilled.
    reused_prefix_tokens: int = 0
    #: Terminal status: ``"finished"``, ``"cancelled"``, ``"timeout"``
    #: (deadline exceeded), ``"failed"`` (transient retries exhausted) or
    #: ``"shed"`` (admission refused under cluster KV pressure).
    status: str = "finished"
    #: Decode-step counter when the first token was produced (-1 if never).
    first_token_step: int = -1
    #: Times this request was evicted-and-recomputed under KV pressure.
    n_preemptions: int = 0
    #: Injected transient executor failures this request retried through.
    n_retries: int = 0
    #: Finished early under a brownout decode cap (fewer tokens than asked).
    truncated: bool = False
    #: Session clock (cluster round) when the terminal status was reached
    #: (-1 when the session was never driven with an external clock).
    finished_clock: int = -1

    @property
    def tokens_generated(self) -> int:
        return len(self.generated_tokens)

    @property
    def cancelled(self) -> bool:
        return self.status == "cancelled"

    @property
    def completed(self) -> bool:
        """Whether the request ran to full completion."""
        return self.status == "finished"


@dataclass(frozen=True)
class LoadSnapshot:
    """A cheap point-in-time view of one engine's serving load.

    This is the introspection surface cluster routers consume (via
    :meth:`ServingEngine.load_snapshot`): queue depth, running-batch size,
    outstanding work in tokens, and — for a bounded paged pool — the free
    pool space.  Everything here is derivable in O(live requests) without
    touching scheduler or KV-manager internals.
    """

    #: Requests waiting for admission (preempted requeues included).
    n_queued: int
    #: Requests currently in the running batch (prefilling or decoding).
    n_running: int
    #: Outstanding work across live requests: prompt tokens not yet
    #: prefilled plus decode tokens not yet generated.
    inflight_tokens: int
    #: Free tokens in a bounded KV pool (``None`` when unbounded).
    free_pool_tokens: int | None = None
    #: Peak KV footprint (prompt + decode tokens) summed over live requests
    #: — the load-shedding admission signal.
    projected_kv_tokens: int = 0
    #: The bounded pool's capacity (``None`` when unbounded).
    capacity_tokens: int | None = None

    @property
    def n_live(self) -> int:
        return self.n_queued + self.n_running


class _ResultStats:
    """Status counts, token totals and TTFT statistics over ``self.results``.

    One implementation for the single-engine and the cluster report, so
    both aggregate a run from its terminal results the same way.
    """

    def _n_status(self, status: str) -> int:
        return sum(1 for r in self.results if r.status == status)

    @property
    def n_requests(self) -> int:
        return len(self.results)

    @property
    def n_cancelled(self) -> int:
        return self._n_status("cancelled")

    @property
    def n_timeouts(self) -> int:
        return self._n_status("timeout")

    @property
    def n_failed(self) -> int:
        return self._n_status("failed")

    @property
    def n_truncated(self) -> int:
        """Requests finished early under a brownout decode cap."""
        return sum(1 for r in self.results if r.truncated)

    @property
    def total_decode_tokens(self) -> int:
        return sum(r.tokens_generated for r in self.results)

    @property
    def total_prompt_tokens(self) -> int:
        return sum(len(r.prompt_tokens) for r in self.results)

    @property
    def reused_prefix_tokens(self) -> int:
        """Prompt tokens served from radix prefix caches across all requests."""
        return sum(r.reused_prefix_tokens for r in self.results)

    def _ttft_values(self) -> list[float]:
        """TTFT samples of requests that actually produced a first token
        (a request cancelled before its first token has no TTFT)."""
        return [r.ttft_s for r in self.results if r.first_token_step >= 0]

    @property
    def mean_ttft_s(self) -> float:
        values = self._ttft_values()
        return float(np.mean(values)) if values else 0.0

    def ttft_percentile_s(self, percentile: float) -> float:
        """Time-to-first-token percentile across requests (e.g. 99 for p99)."""
        values = self._ttft_values()
        return float(np.percentile(values, percentile)) if values else 0.0

    def _common_lines(self, step_latencies_s) -> list[str]:
        """The TTFT, step-latency and prefix-reuse summary lines.

        Each latency series is sorted once; every percentile derives from
        the sorted array instead of re-sorting inside ``np.percentile``.
        """
        ttft_p50, ttft_p99 = _percentiles_from_sorted(
            np.sort(self._ttft_values()), (50, 99))
        step_p50, step_p99 = _percentiles_from_sorted(
            np.sort(step_latencies_s), (50, 99))
        reused, prompts = self.reused_prefix_tokens, self.total_prompt_tokens
        return [
            f"  TTFT           mean {self.mean_ttft_s * 1e3:8.2f} ms | "
            f"p50 {ttft_p50 * 1e3:8.2f} ms | p99 {ttft_p99 * 1e3:8.2f} ms",
            f"  step latency   p50  {step_p50 * 1e3:8.2f} ms | "
            f"p99 {step_p99 * 1e3:8.2f} ms",
            f"  prefix reuse   {reused} / {prompts} prompt tokens "
            f"({100.0 * reused / max(prompts, 1):.1f}%)",
        ]


@dataclass
class FunctionalServingReport(_ResultStats):
    """Aggregate outcome of one :meth:`ServingEngine.run_functional` call.

    Unlike :class:`ServingReport` (analytical latency/energy model), every
    token here was actually decoded through the batched model path, so the
    throughput figure is a *measured* wall-clock rate.
    """

    model_name: str
    max_concurrency: int
    results: list[FunctionalRequestResult] = field(default_factory=list)
    wall_s: float = 0.0
    n_steps: int = 0
    peak_batch: int = 0
    #: Wall-clock duration of every engine step (admission+prefill+decode).
    step_latencies_s: list[float] = field(default_factory=list)
    #: Drafter description when the run speculated (None otherwise).
    drafter: str | None = None
    #: Tokens the drafter proposed / the target model accepted across the run.
    spec_proposed_tokens: int = 0
    spec_accepted_tokens: int = 0
    #: Scheduling policy the run used (``"fcfs"`` unless overridden).
    policy: str = "fcfs"
    #: Total eviction-and-recompute preemptions across the run.
    n_preemptions: int = 0
    #: Injected transient executor failures retried across the run.
    n_retries: int = 0
    #: Fault plan description when the run injected faults (None otherwise).
    faults: str | None = None
    #: Requests re-admitted from a KV checkpoint (recompute-free failover).
    n_restored: int = 0
    #: Prefill tokens those restores skipped — what eviction-and-recompute
    #: recovery would have replayed for the same re-admissions.
    recompute_tokens_saved: int = 0

    @property
    def decode_tokens_per_s(self) -> float:
        if self.wall_s <= 0:
            return 0.0
        return self.total_decode_tokens / self.wall_s

    def step_latency_percentile_s(self, percentile: float) -> float:
        """Engine-step wall-latency percentile (e.g. 50/99 for p50/p99)."""
        if not self.step_latencies_s:
            return 0.0
        return float(np.percentile(self.step_latencies_s, percentile))

    @property
    def spec_acceptance_rate(self) -> float:
        """Fraction of drafter-proposed tokens the target model accepted."""
        if self.spec_proposed_tokens == 0:
            return 0.0
        return self.spec_accepted_tokens / self.spec_proposed_tokens

    def summary(self) -> str:
        """Human-readable multi-line summary of the functional run."""
        lines = [
            f"FunctionalServingReport: {self.n_requests} requests on {self.model_name} "
            f"(<= {self.max_concurrency} concurrent, peak batch {self.peak_batch}): "
            f"{self.total_decode_tokens} tokens decoded in {self.wall_s:.2f} s "
            f"({self.decode_tokens_per_s:.1f} tok/s, {self.n_steps} batched steps)",
            *self._common_lines(self.step_latencies_s),
        ]
        if self.drafter is not None:
            lines.append(
                f"  speculation    drafter {self.drafter} | accept rate "
                f"{100.0 * self.spec_acceptance_rate:.1f}% "
                f"({self.spec_accepted_tokens}/{self.spec_proposed_tokens} "
                f"proposed) | {self.decode_tokens_per_s:.1f} speculative tok/s")
        if self.n_preemptions or self.n_cancelled:
            lines.append(
                f"  scheduling     policy {self.policy} | "
                f"{self.n_preemptions} preemptions | "
                f"{self.n_cancelled} cancelled")
        if self.n_retries or self.n_timeouts or self.n_failed or self.faults:
            lines.append(
                f"  robustness     faults {self.faults or 'none'} | "
                f"{self.n_retries} transient retries | "
                f"{self.n_timeouts} timeouts | {self.n_failed} failed")
        if self.n_restored:
            lines.append(
                f"  failover       {self.n_restored} checkpoint restores | "
                f"{self.recompute_tokens_saved} recompute tokens saved")
        return "\n".join(lines)


class ServingEngine:
    """Continuous-batching request-level serving simulator.

    ``system`` and ``model`` accept either built objects or registry spec
    strings (``"kelle+edram:kv_budget=1024"``, ``"llama2-7b"``).  The engine
    admits queued requests into at most ``max_concurrency`` running sequences;
    each sequence's service time and energy are the underlying single-request
    :meth:`EdgeSystem.simulate` results for its geometry.
    """

    def __init__(self, system: EdgeSystem | str = "kelle+edram",
                 model: ModelConfig | str = "llama2-7b",
                 max_concurrency: int = 8) -> None:
        if max_concurrency <= 0:
            raise ValueError("max_concurrency must be positive")
        self.system: EdgeSystem = resolve("system", system)
        self.model: ModelConfig = resolve("model", model)
        self.max_concurrency = max_concurrency
        self._service_cache: dict[tuple[int, int], SimulationResult] = {}
        self._cancelled: set[str] = set()
        self._session: "FunctionalSession | None" = None

    # ------------------------------------------------------------------
    def service_simulation(self, request: Request) -> SimulationResult:
        """The dedicated single-request simulation for one geometry (memoised)."""
        key = (request.prompt_len, request.decode_len)
        if key not in self._service_cache:
            self._service_cache[key] = self.system.simulate(self.model, request.trace())
        return self._service_cache[key]

    def run(self, requests: list[Request]) -> ServingReport:
        """Serve ``requests`` and return the per-request/aggregate report."""
        if not requests:
            raise ValueError("requests must be non-empty")
        seen: set[str] = set()
        for request in requests:
            if request.request_id in seen:
                raise ValueError(f"duplicate request_id '{request.request_id}'")
            seen.add(request.request_id)
        ordered = sorted(requests, key=lambda r: (r.arrival_time_s, r.request_id))
        # One heap entry per continuous-batching slot: the time it frees up.
        slots = [0.0] * self.max_concurrency
        heapq.heapify(slots)
        report = ServingReport(system_name=self.system.name, model_name=self.model.name,
                               max_concurrency=self.max_concurrency)
        for request in ordered:
            free_at = heapq.heappop(slots)
            admitted = max(request.arrival_time_s, free_at)
            sim = self.service_simulation(request)
            finished = admitted + sim.total_latency_s
            heapq.heappush(slots, finished)
            report.results.append(RequestResult(
                request=request,
                admitted_at_s=admitted,
                finished_at_s=finished,
                prefill_latency_s=sim.prefill.latency_s,
                decode_latency_s=sim.decode.latency_s,
                energy=sim.prefill.energy.merge(sim.decode.energy),
            ))
        report.results.sort(key=lambda r: (r.request.arrival_time_s, r.request.request_id))
        return report

    # ------------------------------------------------------------------
    def cancel(self, request_id: str) -> None:
        """Request cancellation of one in-flight request.

        Takes effect at the next step boundary of a :meth:`run_functional`
        call in progress (streaming ``on_token`` callbacks may call this to
        abort mid-decode); the request's pages are released and its partial
        output is reported with ``status="cancelled"``.
        """
        self._cancelled.add(request_id)

    def _materialise(self, requests: list[Request], lm: "DecoderLM",
                     rng: np.random.Generator) -> list[SequenceState]:
        """Sequence states in arrival order, prompts synthesised up front.

        Prompts draw from ``rng`` in arrival order — the same order the
        former inline loop drew at admission time under FCFS — so outputs
        stay identical while becoming policy-independent.
        """
        ordered = sorted(requests, key=lambda r: (r.arrival_time_s, r.request_id))
        states = []
        for request in ordered:
            if request.prompt_tokens is not None:
                prompt = list(request.prompt_tokens)
            else:
                prompt = rng.integers(0, lm.config.vocab_size,
                                      size=request.prompt_len).tolist()
            states.append(SequenceState(request=request, prompt=prompt))
        return states

    def _apply_cancellations(self, scheduler: Scheduler, kv: KVSpaceManager,
                             should_cancel: Callable[[str], bool] | None,
                             report: FunctionalServingReport, step: int) -> None:
        """Cancel flagged requests between steps, releasing their KV space."""
        if not self._cancelled and should_cancel is None:
            return
        for state in scheduler.live_states():
            rid = state.request_id
            if rid in self._cancelled or (should_cancel is not None
                                          and should_cancel(rid)):
                scheduler.cancel(state, kv)
                self._cancelled.discard(rid)
                report.results.append(self._result(state, step))

    @staticmethod
    def _result(state: SequenceState, step: int,
                status: str | None = None) -> FunctionalRequestResult:
        """``state``'s terminal result; ``status`` overrides its phase."""
        if status is None:
            terminal = state.phase.value
            status = (terminal if terminal in ("cancelled", "timeout", "failed")
                      else "finished")
        return FunctionalRequestResult(
            request=state.request,
            prompt_tokens=state.prompt,
            generated_tokens=state.generated,
            admitted_step=state.admitted_step,
            finished_step=step,
            ttft_s=state.ttft_s,
            reused_prefix_tokens=state.reused,
            status=status,
            first_token_step=state.first_token_step,
            n_preemptions=state.n_preemptions,
            n_retries=state.n_retries,
            truncated=(status == "finished"
                       and len(state.generated) < state.request.decode_len),
        )

    def run_functional(self, lm: "DecoderLM", requests: list[Request],
                       cache: "KVCacheFactory | str | None" = None,
                       seed: int = 0, *, prefix_cache: bool = False,
                       token_budget: int | None = None,
                       radix_max_tokens: int | None = None,
                       drafter: "Drafter | str | None" = None,
                       policy: "SchedulingPolicy | str | None" = "fcfs",
                       on_token: OnToken | None = None,
                       should_cancel: Callable[[str], bool] | None = None,
                       capacity_tokens: int | None = None,
                       on_step: Callable[[int], None] | None = None,
                       faults: "object | None" = None,
                       paranoid: bool = False,
                       replica_id: int = 0,
                       fused: bool = True,
                       ) -> FunctionalServingReport:
        """Serve ``requests`` by *actually decoding tokens* with batched forwards.

        The loop wires the three serving layers: a
        :class:`~repro.serve.scheduler.Scheduler` (admission, lifecycle,
        ``policy`` — a spec string such as ``"fcfs"``, ``"priority:levels=3"``
        or ``"sjf"``), a :class:`~repro.serve.kv_manager.KVSpaceManager`
        (radix prefix reuse, KV capacity, preemption) and a
        :class:`~repro.serve.executor.ModelExecutor` (batched forwards,
        streaming token events).  Up to ``max_concurrency`` sequences run
        simultaneously through :meth:`DecoderLM.decode_step_batch`, each with
        per-layer KV caches built from ``cache`` (a factory, registry spec
        string or ``None`` for the full cache).

        Optional mechanisms (all default off, which reproduces the plain
        per-request-cache path exactly):

        * ``prefix_cache=True`` maintains a radix-trie prefix index: every
          prefilled prompt is snapshotted (a zero-copy copy-on-write fork for
          the ``"paged"`` cache), and a new request whose prompt shares a
          prefix with a cached one forks that state and prefills only its
          novel suffix.  Requires a cache with chunked-prefill support
          (``"full"`` or ``"paged"``); other specs silently run unshared.
          ``radix_max_tokens`` bounds the index with LRU eviction.
        * ``token_budget=N`` enables the chunked-prefill scheduler: each
          engine step first decodes every running sequence, then spends the
          remaining budget on prompt *chunks* of admitted sequences, so a
          long prompt no longer stalls the running batch for a whole-prompt
          prefill.  Caches without chunked-prefill support fall back to
          whole-prompt prefill at admission.
        * ``drafter`` (a spec string such as ``"ngram:k=4"`` or a built
          :class:`~repro.llm.speculate.Drafter`) enables batch-wide
          speculative decoding, token-identical to the non-speculative
          greedy path; verify tokens are charged against ``token_budget``
          (decode keeps priority).  Requires a rollback-capable cache
          (``full``/``paged``); other specs silently run non-speculatively.
        * a *bounded* paged cache (``"paged:...,grow=false"``, or an explicit
          ``capacity_tokens``) enables preemption: when the pool cannot hold
          every running sequence, the policy picks victims whose pages are
          released and whose generated tokens are preserved for
          eviction-and-recompute, so the engine survives oversubscription
          instead of raising :class:`~repro.core.kv_pool.PoolExhausted`.
        * ``fused=True`` (the default) decodes through the fused grouped-
          attention path — one gathered BLAS attention call per layer per
          compatible cache group; sequences whose caches cannot expose a
          fused layout fall back per-sequence with identical tokens.
          ``fused=False`` forces the per-sequence reference path everywhere.
        * ``on_token`` streams every generated token as a
          :class:`~repro.serve.executor.TokenEvent`; ``should_cancel`` (or
          :meth:`cancel`) aborts requests between steps, releasing their
          pages and reporting partial output with ``status="cancelled"``.
        * ``faults`` (a :class:`~repro.serve.faults.FaultPlan`, ``"fault"``
          registry spec string, fault dataclass or sequence of those) arms
          deterministic chaos injection: transient executor failures are
          retried with capped step-based exponential backoff, spurious
          KV-reservation failures are waited out, and per-request
          ``deadline_steps`` / ``max_retries`` bound how long the engine
          keeps trying.  ``paranoid=True`` asserts the full invariant sweep
          (pool accounting, scheduler legality, request conservation) after
          every step.  ``replica_id`` scopes straggler faults when the
          session is one cluster replica.

        Returns a :class:`FunctionalServingReport` with the decoded tokens,
        measured throughput, per-request TTFT, per-step latencies,
        preemption/cancellation counts and (when a drafter is set) the
        proposal-acceptance counters.

        The run is exactly a :class:`FunctionalSession` driven to completion:
        ``submit(requests); while step(): pass; finish()``.  Callers that need
        step-at-a-time control (the cluster layer drives many replicas in
        lockstep rounds) use :meth:`start_functional` directly.
        """
        session = self.start_functional(
            lm, cache=cache, seed=seed, prefix_cache=prefix_cache,
            token_budget=token_budget, radix_max_tokens=radix_max_tokens,
            drafter=drafter, policy=policy, on_token=on_token,
            should_cancel=should_cancel, capacity_tokens=capacity_tokens,
            on_step=on_step, faults=faults, paranoid=paranoid,
            replica_id=replica_id, fused=fused)
        session.submit(requests)
        while session.step():
            pass
        return session.finish()

    def start_functional(self, lm: "DecoderLM",
                         cache: "KVCacheFactory | str | None" = None,
                         seed: int = 0, *, prefix_cache: bool = False,
                         token_budget: int | None = None,
                         radix_max_tokens: int | None = None,
                         drafter: "Drafter | str | None" = None,
                         policy: "SchedulingPolicy | str | None" = "fcfs",
                         on_token: OnToken | None = None,
                         should_cancel: Callable[[str], bool] | None = None,
                         capacity_tokens: int | None = None,
                         on_step: Callable[[int], None] | None = None,
                         faults: "object | None" = None,
                         paranoid: bool = False,
                         replica_id: int = 0,
                         fused: bool = True,
                         ) -> "FunctionalSession":
        """Open a step-at-a-time functional serving session.

        Same parameters and semantics as :meth:`run_functional`, but the
        caller drives the loop: requests may be submitted while the session
        runs (dynamic arrival), :meth:`FunctionalSession.step` executes one
        engine step, and :meth:`FunctionalSession.finish` seals the report.
        Pending :meth:`cancel` flags from a previous run are cleared.
        """
        self._cancelled = set()
        session = FunctionalSession(
            self, lm, cache=cache, seed=seed, prefix_cache=prefix_cache,
            token_budget=token_budget, radix_max_tokens=radix_max_tokens,
            drafter=drafter, policy=policy, on_token=on_token,
            should_cancel=should_cancel, capacity_tokens=capacity_tokens,
            on_step=on_step, faults=faults, paranoid=paranoid,
            replica_id=replica_id, fused=fused)
        self._session = session
        return session

    def load_snapshot(self) -> LoadSnapshot:
        """Queue/batch/token-pressure snapshot of the active functional session.

        The cheap introspection surface cluster routers consume — an idle
        snapshot (all zeros, unbounded pool) when no session is running.
        """
        if self._session is None:
            return LoadSnapshot(n_queued=0, n_running=0, inflight_tokens=0)
        return self._session.load_snapshot()


class FunctionalSession:
    """One functional serving run driven step-by-step by the caller.

    Created by :meth:`ServingEngine.start_functional`.  The blocking
    :meth:`ServingEngine.run_functional` is ``submit(requests); while step():
    pass; finish()``; keeping the loop outside the session lets a
    :class:`~repro.serve.cluster.ClusterEngine` interleave many replicas'
    steps in lockstep rounds, route arrivals while replicas run, and — on a
    replica failure — :meth:`drain` every in-flight request for resubmission
    (:meth:`resubmit`) to a surviving replica, reusing the scheduler's
    eviction-and-recompute semantics.
    """

    def __init__(self, engine: ServingEngine, lm: "DecoderLM",
                 cache: "KVCacheFactory | str | None" = None,
                 seed: int = 0, *, prefix_cache: bool = False,
                 token_budget: int | None = None,
                 radix_max_tokens: int | None = None,
                 drafter: "Drafter | str | None" = None,
                 policy: "SchedulingPolicy | str | None" = "fcfs",
                 on_token: OnToken | None = None,
                 should_cancel: Callable[[str], bool] | None = None,
                 capacity_tokens: int | None = None,
                 on_step: Callable[[int], None] | None = None,
                 faults: "object | None" = None,
                 paranoid: bool = False,
                 replica_id: int = 0,
                 fused: bool = True) -> None:
        from repro.llm.speculate import resolve_drafter

        if token_budget is not None and token_budget <= 0:
            raise ValueError("token_budget must be positive (or None to disable)")
        self.engine = engine
        self.lm = lm
        cache_factory = resolve("cache", cache) if isinstance(cache, str) else cache
        self.kv = KVSpaceManager(lm, cache_factory, prefix_cache=prefix_cache,
                                 radix_max_tokens=radix_max_tokens,
                                 capacity_tokens=capacity_tokens)
        self._drafter = resolve_drafter(drafter)
        # Speculation needs chunked verification and KV rollback;
        # caches without them run the plain decode path, as generate() does.
        self.spec_on = (self._drafter is not None and self._drafter.k > 0
                        and self.kv.chunkable and self.kv.rollbackable)
        if self.spec_on:
            self._drafter.check_compatible(lm.config)
        if self._drafter is None or self._drafter.k <= 0:
            drafter_desc = None
        elif self.spec_on:
            drafter_desc = self._drafter.describe()
        else:  # keep the silent fallback observable in the report/summary
            drafter_desc = self._drafter.describe() + " (disabled: cache lacks rollback)"
        self.policy = resolve_policy(policy)
        self.scheduler = Scheduler(self.policy, engine.max_concurrency)
        self.executor = ModelExecutor(lm, self.kv, on_token=on_token, fused=fused)
        self.rng = derive_rng(seed, "serve-functional")
        self.token_budget = token_budget
        self.should_cancel = should_cancel
        self.on_step = on_step
        self.whole_prefill = not self.kv.chunkable or token_budget is None
        # Chaos wiring: resolve the plan once and arm every layer's hook.
        # Each hook defaults to None, so an unfaulted session pays only a
        # handful of attribute checks per step.
        self.fault_plan = resolve_fault_plan(faults, seed=seed)
        self.replica_id = replica_id
        self.paranoid = paranoid
        self._stragglers = (self.fault_plan.stragglers_for(replica_id)
                           if self.fault_plan is not None else ())
        if self.fault_plan is not None:
            self.executor.fault_gate = self.fault_plan.exec_gate()
            self.kv.pressure_gate = self.fault_plan.alloc_gate()
            pool_gate = self.fault_plan.pool_gate()
            arm = getattr(self.kv.cache_factory, "arm_fault_gate", None)
            if pool_gate is not None and arm is not None:
                arm(pool_gate)
        self.report = FunctionalServingReport(
            model_name=lm.config.name, max_concurrency=engine.max_concurrency,
            drafter=drafter_desc, policy=self.policy.describe(),
            faults=(self.fault_plan.describe()
                    if self.fault_plan is not None else None))
        self._step = 0
        #: Session clock: advances every step() call (unlike _step, which
        #: only counts decoded steps), so backoff/deadline/fault draws always
        #: make forward progress.
        self._clock = 0
        self._has_deadlines = False
        self._submitted_ids: set[str] = set()
        self._drained_ids: set[str] = set()
        self._start: float | None = None
        self._finished = False
        #: Whether the cache/drafter pair could speculate at all — the upper
        #: bound :meth:`set_speculation` can re-enable to.
        self._spec_capable = self.spec_on
        #: Results already stamped with a terminal clock (prefix of
        #: ``report.results``).
        self._stamped = 0

    # -- submission ------------------------------------------------------
    def submit(self, requests: list[Request]) -> None:
        """Materialise and queue ``requests`` (callable while running)."""
        if not requests:
            raise ValueError("requests must be non-empty")
        max_len = self.lm.config.max_seq_len
        for request in requests:
            if request.prompt_len + request.decode_len > max_len:
                raise ValueError(
                    f"request '{request.request_id}' needs {request.prompt_len + request.decode_len} "
                    f"positions but the model supports max_seq_len={max_len}")
        states = self.engine._materialise(requests, self.lm, self.rng)
        for state in states:
            self.kv.validate_footprint(state)  # reject never-servable requests now
            state.submitted_clock = self._clock
            if state.request.deadline_steps is not None:
                self._has_deadlines = True
        self.scheduler.submit(states)
        self._submitted_ids.update(state.request_id for state in states)

    def resubmit(self, states: "list[SequenceState]") -> None:
        """Queue states drained from another session (cluster requeue).

        States keep their original :class:`Request` — arrival time, priority
        and accumulated results (generated tokens, TTFT, preemption counts)
        — so policy ranking does not penalise the re-admission, and a state
        with generated tokens resumes by eviction-and-recompute exactly as a
        locally-preempted one would.  The deadline baseline restarts here: a
        requeued request gets a fresh ``deadline_steps`` budget on its new
        replica rather than inheriting rounds burned on the failed one.
        """
        for state in states:
            self.kv.validate_footprint(state)
            state.submitted_clock = self._clock
            if state.request.deadline_steps is not None:
                self._has_deadlines = True
        self.scheduler.resubmit(states)
        for state in states:
            self._submitted_ids.add(state.request_id)
            self._drained_ids.discard(state.request_id)

    # -- stepping --------------------------------------------------------
    def has_work(self) -> bool:
        return not self._finished and self.scheduler.has_work()

    def _on_admit(self, state: SequenceState, first: bool) -> None:
        if self.spec_on:
            state.spec_session = self._drafter.session()

    def step(self, clock: int | None = None) -> bool:
        """Run one engine step; returns False when there is nothing to do.

        ``clock`` pins the session clock to an external counter (the cluster
        passes its round number so fault draws, backoffs and deadlines line
        up across replicas); left ``None`` it simply advances by one per
        call.  The clock advances even on steps that decode nothing, so a
        request blocked by an injected fault always redraws a fresh gate
        decision instead of failing forever.
        """
        if self._finished:
            raise RuntimeError("session already finished")
        scheduler, kv, executor = self.scheduler, self.kv, self.executor
        if not scheduler.has_work():
            return False
        self._clock = self._clock + 1 if clock is None else clock
        if self.fault_plan is not None:
            if executor.fault_gate is not None:
                executor.fault_clock = self._clock
            if kv.pressure_gate is not None:
                kv.fault_clock = self._clock
        if self._start is None:
            self._start = time.perf_counter()
        step_start = time.perf_counter()
        expired = self._expire_deadlines() if self._has_deadlines else 0
        self.engine._apply_cancellations(scheduler, kv, self.should_cancel,
                                         self.report, self._step)
        if not scheduler.has_work():
            self._stamp_results()
            return False
        admitted = scheduler.admit(self._step, time.perf_counter(), kv,
                                   whole_prefill=self.whole_prefill,
                                   on_admit=self._on_admit, clock=self._clock)
        kv.resolve_caches(list(scheduler.running.values()))
        decision = scheduler.plan(self._step, kv, token_budget=self.token_budget,
                                  spec_on=self.spec_on, chunkable=kv.chunkable)
        faulted: TransientExecutorError | None = None
        try:
            executor.prefill_whole(decision.prefill_whole, self._step)
            executor.prefill_chunks(decision.prefill_chunks, self._step)
            outcome = executor.decode_step(scheduler.decode_ready(), self._step,
                                           self.spec_on)
        except TransientExecutorError as err:
            # The gate raises before any forward touches KV, so every state
            # is exactly as it was at step entry; the faulted request is
            # preempted (eviction-and-recompute) and retried after backoff.
            faulted = err
            outcome = StepOutcome()
            self._handle_transient(err)
        if outcome.decoded:
            self._step += 1
            self.report.n_steps += 1
            self.report.peak_batch = max(self.report.peak_batch, outcome.batch)
            self.report.spec_proposed_tokens += outcome.spec_proposed
            self.report.spec_accepted_tokens += outcome.spec_accepted
        retired = scheduler.retire_finished()
        for state in retired:
            kv.release(state)
            self.report.results.append(self.engine._result(state, self._step))
        self.report.n_restored = kv.n_restored
        self.report.recompute_tokens_saved = kv.restored_tokens
        if kv.bounded:
            kv.check_accounting()  # pool invariant holds after every step
        dt = time.perf_counter() - step_start
        if self._stragglers:
            # Straggling inflates the *reported* simulated latency only —
            # progress per step is unchanged, so tokens stay identical.
            dt *= self.fault_plan.inflation(self.replica_id, self._clock)
        self.report.step_latencies_s.append(dt)
        self._stamp_results()
        if self.paranoid:
            self.check_invariants()
        if self.on_step is not None:
            self.on_step(self._step)
        if not (admitted or decision.has_model_work or outcome.decoded
                or retired or decision.preempted or expired
                or faulted is not None or kv.last_failure_spurious
                or scheduler.has_blocked(self._clock)):
            raise RuntimeError(
                "serving stalled: no admission, prefill, decode, retirement "
                "or preemption was possible this step (KV pool too small?)")
        return True

    def _expire_deadlines(self) -> int:
        """Expire live requests past their step deadline (terminal timeout)."""
        expired = 0
        for state in self.scheduler.live_states():
            deadline = state.request.deadline_steps
            if (deadline is not None
                    and self._clock - state.submitted_clock >= deadline):
                self.scheduler.timeout(state, self.kv)
                self.report.results.append(self.engine._result(state, self._step))
                expired += 1
        return expired

    def _handle_transient(self, err: TransientExecutorError) -> None:
        """Retry (preempt + backoff) or give up on a faulted request."""
        state = self.scheduler.running.get(err.request_id)
        if state is None:  # already retired/cancelled — nothing to retry
            return
        state.n_retries += 1
        self.report.n_retries += 1
        if state.n_retries > state.request.max_retries:
            self.scheduler.fail(state, self.kv)
            self.report.results.append(self.engine._result(state, self._step))
            return
        self.scheduler.preempt(state, self.kv)
        # Deterministic capped exponential backoff in *steps* (1, 2, 4, 8,
        # 8, ...) — never wall clock, so retry schedules replay exactly.
        state.blocked_until_step = (
            self._clock + min(2 ** (state.n_retries - 1), 8))

    def check_invariants(self) -> None:
        """The paranoid-mode invariant sweep (asserted every step under chaos).

        * **page accounting** — every replica pool's allocated pages equal
          referenced + free (:meth:`KVPagePool.check_accounting`);
        * **state-machine legality** — scheduler sets hold only legal phases
          with consistent progress counters (:meth:`Scheduler.check_legal`);
        * **conservation of requests** — every submitted request is exactly
          live, terminal (reported) or drained; none lost, none duplicated.
        """
        self.kv.check_accounting()
        self.scheduler.check_legal()
        live = {s.request_id for s in self.scheduler.live_states()}
        done = {r.request.request_id for r in self.report.results}
        assert len(done) == len(self.report.results), (
            "duplicate terminal results in the report")
        assert not live & done, (
            f"requests both live and terminal: {sorted(live & done)}")
        missing = self._submitted_ids - (live | done | self._drained_ids)
        assert not missing, f"requests lost (not live/terminal/drained): " \
                            f"{sorted(missing)}"

    # -- introspection ---------------------------------------------------
    def load_snapshot(self) -> LoadSnapshot:
        """Queue depth, batch size, outstanding tokens and free pool space."""
        inflight = 0
        projected = 0
        for state in self.scheduler.live_states():
            outstanding = (len(state.prompt) + state.request.decode_len
                           - state.prefilled - len(state.generated))
            inflight += max(0, outstanding)
            projected += len(state.prompt) + state.request.decode_len
        return LoadSnapshot(
            n_queued=self.scheduler.n_waiting,
            n_running=len(self.scheduler.running),
            inflight_tokens=inflight,
            free_pool_tokens=self.kv.free_tokens if self.kv.bounded else None,
            projected_kv_tokens=projected,
            capacity_tokens=self.kv.capacity_tokens if self.kv.bounded else None)

    # -- live migration ---------------------------------------------------
    def checkpoint_requests(self) -> "dict[str, RequestCheckpoint]":
        """Checkpoint every checkpointable running request (periodic pass).

        Read-only: the live decode state and pool accounting are untouched,
        so the cluster can stash these every ``interval`` rounds and attach
        them to drained states if this replica later crashes — bounding the
        loss to at most ``interval`` decode steps.  Waiting, prefilling and
        non-checkpointable requests simply don't appear (recompute covers
        them).
        """
        checkpoints: dict[str, RequestCheckpoint] = {}
        for state in self.scheduler.running.values():
            ckpt = self.kv.checkpoint(state)
            if ckpt is not None:
                checkpoints[state.request_id] = ckpt
        return checkpoints

    def extract_request(self, request_id: str) \
            -> "tuple[SequenceState, RequestCheckpoint | None] | None":
        """Pull one live request out of this session for migration.

        Checkpoints the request first when possible (decode-phase on a
        checkpoint-capable cache), then removes it from the scheduler and
        releases its local KV — the returned state carries the checkpoint
        and is ready for :meth:`inject_request` on another session.  A
        request that cannot be checkpointed (still waiting/prefilling, or a
        non-paged cache) migrates with ``None`` and resumes by
        eviction-and-recompute; ``None`` overall means the id is not live
        here (already finished, cancelled or never submitted).
        """
        state = self.scheduler.find(request_id)
        if state is None:
            return None
        ckpt = self.kv.checkpoint(state)
        self.scheduler.extract(state, self.kv)
        if ckpt is not None:
            state.checkpoint = ckpt
        self._drained_ids.add(request_id)
        # A queued state may already carry a (stash-attached) checkpoint.
        return state, state.checkpoint

    def inject_request(self, state: "SequenceState",
                       checkpoint: "RequestCheckpoint | None" = None) -> None:
        """Admit a migrated request, restoring from ``checkpoint`` if possible.

        ``checkpoint`` defaults to whatever rides on the state.  A *stale*
        periodic checkpoint (its ``generated`` a strict prefix of the
        state's) rewinds the decode to the capture point — greedy decoding
        re-produces the identical suffix tokens, so results stay
        token-identical (downstream ``on_token`` listeners may see those
        suffix tokens again).  A checkpoint inconsistent with the token
        history is dropped: eviction-and-recompute is always correct.
        """
        if checkpoint is None:
            checkpoint = state.checkpoint
        if checkpoint is not None:
            ckgen = tuple(checkpoint.generated)
            gen = tuple(state.generated)
            if ckgen and gen[:len(ckgen)] == ckgen:
                state.generated = list(ckgen)
                state.checkpoint = checkpoint
            else:
                state.checkpoint = None
        self.resubmit([state])

    # -- overload / brownout controls -------------------------------------
    def _stamp_results(self) -> None:
        """Stamp newly-appended terminal results with the session clock.

        ``finished_clock`` is the deterministic (round-domain) counterpart
        of the wall-clock latency series: under an external cluster clock it
        records the exact round each request reached its terminal status.
        """
        results = self.report.results
        while self._stamped < len(results):
            results[self._stamped].finished_clock = self._clock
            self._stamped += 1

    def set_speculation(self, enabled: bool) -> None:
        """Toggle speculative decoding at runtime (brownout level 1).

        Re-enabling is bounded by what the session could ever do
        (``drafter`` present, rollback-capable cache).  Requests admitted
        while speculation was off keep decoding non-speculatively — the
        toggle only affects future admissions — and tokens are identical
        either way (speculation is exact).
        """
        self.spec_on = bool(enabled) and self._spec_capable

    def limit_radix(self, max_tokens: int | None) -> None:
        """Clamp (or restore) the radix prefix-cache budget (brownout level 2).

        ``0`` freezes the index entirely — existing snapshots are evicted
        and new prefills are not snapshotted — returning every cached page
        to the pool for live requests; ``None`` restores the budget the
        session was built with.  No-op without a prefix cache.
        """
        self.kv.limit_radix(max_tokens)

    def cap_decodes(self, cap: int, min_priority: int = 1) -> int:
        """Cap remaining decode length of live low-tier requests (level 3).

        Every live request with ``priority >= min_priority`` and more than
        ``cap`` total decode tokens is clamped to finish early (never below
        what it has already generated, so nothing retroactively breaks);
        results finished this way report ``truncated=True``.  Returns how
        many states were (re)capped.  Deterministic: depends only on live
        scheduler state.
        """
        if cap <= 0:
            raise ValueError("cap must be positive")
        capped = 0
        for state in self.scheduler.live_states():
            request = state.request
            if request.priority < min_priority or request.decode_len <= cap:
                continue
            effective = max(cap, len(state.generated))
            if state.decode_cap != effective:
                state.decode_cap = effective
                capped += 1
        return capped

    def uncap_decodes(self) -> None:
        """Lift brownout decode caps from every live request (recovery)."""
        for state in self.scheduler.live_states():
            state.decode_cap = None

    def harvest_result(self, request_id: str) -> FunctionalRequestResult | None:
        """Remove and return one terminal result (hedged-request accounting).

        The cluster uses this to take a hedge duplicate's terminal result
        out of the per-replica report — the surviving copy is the request's
        single terminal record — while keeping this session's conservation
        sweep sound (the id moves to the drained set).  ``None`` when the id
        has no terminal result here.
        """
        results = self.report.results
        for i, result in enumerate(results):
            if result.request.request_id == request_id:
                if i < self._stamped:
                    self._stamped -= 1
                self._drained_ids.add(request_id)
                self._submitted_ids.discard(request_id)
                return results.pop(i)
        return None

    # -- teardown --------------------------------------------------------
    def drain(self) -> "list[SequenceState]":
        """Evacuate every live request (replica failure), releasing all KV.

        Returns the drained states — generated tokens and original requests
        preserved, caches dropped — ready for :meth:`resubmit` on another
        session; the local radix index is cleared so every pool page is back
        on the free list.
        """
        drained = self.scheduler.evacuate(self.kv)
        self.kv.clear()
        if self.kv.bounded:
            self.kv.check_accounting()
        self._drained_ids.update(state.request_id for state in drained)
        return drained

    def finish(self) -> FunctionalServingReport:
        """Seal the session and return its report (idempotent)."""
        if not self._finished:
            self._finished = True
            self.kv.clear()  # return every radix snapshot's pages to the pool
            self.report.n_preemptions = self.scheduler.n_preemptions
            self.report.n_restored = self.kv.n_restored
            self.report.recompute_tokens_saved = self.kv.restored_tokens
            self.report.wall_s = (time.perf_counter() - self._start
                                  if self._start is not None else 0.0)
            self._stamp_results()
            self.report.results.sort(
                key=lambda r: (r.request.arrival_time_s, r.request.request_id))
        return self.report


def simulate(system: EdgeSystem | str = "kelle+edram", model: ModelConfig | str = "llama2-7b",
             trace: WorkloadTrace | str = "pg19") -> SimulationResult:
    """One-shot spec-driven simulation: ``simulate("kelle+edram", "llama2-7b", "pg19")``.

    Every argument accepts a registry spec string or an already-built object,
    so the whole design space is addressable without touching any factory.
    """
    return resolve("system", system).simulate(resolve("model", model), resolve("trace", trace))

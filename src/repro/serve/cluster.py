"""Multi-replica cluster serving with cache-aware routing and failure handling.

The layer *above* the single-node engine: a :class:`ClusterEngine` owns N
independent :class:`~repro.serve.engine.ServingEngine` replicas — each with
its own KV pool and radix prefix index — and drives them step-by-step in
lockstep rounds from a shared arrival queue.  Three pieces make it a cluster
rather than N engines:

* **Routing** — a new ``"router"`` registry kind decides which replica serves
  each arriving request.  ``round-robin`` cycles replicas, ``least-loaded``
  picks the lowest in-flight token pressure (queue depth as tiebreak), and
  ``radix-affinity`` sends a request to the replica whose *prefix digest*
  holds the longest match for its prompt — cache-affinity placement in the
  spirit of Icarus-style per-node request routing — falling back to
  least-loaded below a match threshold.  Routers see only
  :class:`ReplicaView` objects (replica id + a
  :class:`~repro.serve.engine.LoadSnapshot`); the affinity router maintains
  its own lightweight per-replica :class:`PrefixDigest` of routed prompts,
  so no router ever reaches into engine internals.

* **Failure handling** — :meth:`ClusterEngine.fail_replica` kills a replica
  at a chosen cluster step.  Its in-flight requests (waiting *and* running)
  are drained back to the arrival queue and re-routed to survivors; a
  request that already generated tokens resumes by eviction-and-recompute
  (re-prefill prompt + generated tokens), exactly the single-node preemption
  semantics, so completion stays 100% under single-replica failure.

* **Cluster metrics** — a :class:`ClusterReport` aggregates per-replica and
  cluster-wide outcomes: TTFT, p50/p99 step latency, per-replica load
  imbalance, radix-reuse tokens, requeue counts, and a *simulated parallel
  makespan* (``parallel_wall_s``): replicas run sequentially in-process, so
  each lockstep round contributes the maximum of its replicas' measured
  step latencies — the wall time a truly parallel cluster would take.

* **Health supervision & self-healing** — every replica carries a
  :class:`ReplicaHealth` (HEALTHY / DEGRADED / DOWN) driven by its step
  outcomes: transient-failure retries inside a sliding window or an active
  straggler slowdown demote it to DEGRADED, a crash marks it DOWN.  Routers
  are health-aware (every router skips DOWN replicas; radix-affinity also
  demotes DEGRADED ones to last resort), and a crashed replica whose fault
  plan allows recovery *rejoins* after its recovery delay with a fresh KV
  pool, an empty radix index and a rebuilt router-side prefix digest.
  Chaos testing composes these through a deterministic
  :class:`~repro.serve.faults.FaultPlan` (``faults=...``), with per-request
  deadlines/retries, projected-KV load shedding
  (``admission="kv-pressure:threshold=X"``) and a paranoid per-step
  invariant sweep (``paranoid=True``) guaranteeing every request ends in
  exactly one explicit terminal status.

* **Overload control & tail taming** — the ``"admission"`` registry kind
  (:mod:`repro.serve.admission`) puts an explicit per-arrival policy in
  front of routing: every candidate is admitted, *deferred* (re-offered
  next round — lossless backpressure) or shed, with per-tenant token
  buckets and weighted-fair shares keyed off :attr:`Request.tenant`.  A
  :class:`~repro.serve.overload.BrownoutLadder` steps through graceful-
  degradation levels under sustained KV/queue pressure (disable
  speculation → shrink the radix cache → cap low-tier answer lengths) and
  steps back up on recovery; per-replica
  :class:`~repro.serve.overload.CircuitBreaker` state machines
  (closed → open → half-open over transient-retry rates) gate routing
  faster than health demotion; and a
  :class:`~repro.serve.overload.HedgePolicy` duplicates decode-phase
  requests stuck on a persistently slow replica onto a healthy one
  (checkpoint-seeded where the cache supports it), first copy to finish
  wins, loser cancelled with its pages released.  Every decision is
  round-clock keyed, so admission/brownout/hedge/breaker event logs are
  byte-reproducible.

* **Live migration & checkpointing** — the ``"migration"`` registry kind
  (:class:`MigrationPolicy`) makes recovery *recompute-free* where the KV
  layer allows it.  ``drain-on-degraded:max_inflight=K`` proactively
  checkpoints and moves in-flight requests off DEGRADED replicas onto
  HEALTHY ones (via :meth:`~repro.serve.engine.FunctionalSession.
  extract_request` / :meth:`~repro.serve.engine.FunctionalSession.
  inject_request`), and ``checkpoint:interval=S`` stashes periodic KV
  checkpoints of every decoding request so a crash loses at most ``S``
  decode steps instead of the whole prefix.  Restored requests skip
  PREFILL and resume DECODE token-identically; requests whose cache
  cannot checkpoint keep PR 7's eviction-and-recompute path.
"""

from __future__ import annotations

import abc
import time
from collections import Counter, deque
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.registry import register, resolve
from repro.serve.admission import (
    AdmissionContext,
    AdmissionDecision,
    AdmissionPolicy,
    resolve_admission,
)
from repro.serve.engine import (
    FunctionalRequestResult,
    FunctionalServingReport,
    LoadSnapshot,
    Request,
    ServingEngine,
    _ResultStats,
)
from repro.serve.faults import resolve_fault_plan
from repro.serve.overload import (
    BreakerConfig,
    BrownoutConfig,
    BrownoutLadder,
    CircuitBreaker,
    HedgePolicy,
    resolve_breaker,
    resolve_brownout,
    resolve_hedge,
)
from repro.serve.radix import RadixPrefixIndex
from repro.serve.scheduler import SequenceState

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from repro.llm.cache import KVCacheFactory
    from repro.llm.model import DecoderLM
    from repro.llm.speculate import Drafter
    from repro.serve.engine import FunctionalSession
    from repro.serve.kv_manager import RequestCheckpoint
    from repro.serve.scheduler import SchedulingPolicy


class ReplicaHealth(Enum):
    """Supervised health of one replica, driven by its step outcomes."""

    HEALTHY = "healthy"
    DEGRADED = "degraded"
    DOWN = "down"


#: Sliding window (in lockstep rounds) over which retry errors accumulate.
HEALTH_WINDOW = 8
#: Retries within the window that demote a replica to DEGRADED.
DEGRADE_ERRORS = 2
#: Straggler latency inflation at or above which a replica is DEGRADED.
DEGRADE_SLOWDOWN = 1.5


@dataclass(frozen=True)
class ReplicaView:
    """What a router may see of one replica: identity, load and health.

    ``breaker_open`` reflects the replica's circuit breaker (when the
    cluster runs one): True while the breaker refuses *new* routing — OPEN,
    or HALF_OPEN with this round's probe slot already spent.
    """

    replica_id: int
    load: LoadSnapshot
    health: ReplicaHealth = ReplicaHealth.HEALTHY
    breaker_open: bool = False


class PrefixDigest:
    """Token-only radix digest of the prompts routed to one replica.

    A :class:`~repro.serve.radix.RadixPrefixIndex` carrying no KV payloads:
    the router observes every prompt it routes and later asks for the
    longest stored prefix match — a cheap router-side proxy for the
    replica's real radix cache (which the router must not touch, and whose
    contents lag routing anyway: a routed prompt is only cached once its
    prefill completes).  ``max_tokens`` bounds the digest with LRU eviction,
    mirroring the replica-side budget.
    """

    def __init__(self, max_tokens: int | None = None) -> None:
        self._index = RadixPrefixIndex(max_tokens=max_tokens)

    def observe(self, tokens: Sequence[int]) -> None:
        """Record one routed prompt (duplicates refresh recency)."""
        if len(tokens):
            self._index.insert(tokens, [])

    def longest_match_len(self, tokens: Sequence[int]) -> int:
        """Longest recorded prefix of ``tokens`` (read-only on stats)."""
        return self._index.longest_match_len(tokens)

    @property
    def n_prompts(self) -> int:
        return self._index.n_entries

    @property
    def stored_tokens(self) -> int:
        return self._index.stored_tokens


# ----------------------------------------------------------------------
# Routers (the "router" registry kind)
# ----------------------------------------------------------------------
class Router(abc.ABC):
    """Routing policy: pick the replica that serves one arriving request.

    :meth:`route` sees the request and a :class:`ReplicaView` per *alive*
    replica and returns the chosen ``replica_id``; any internal state (turn
    counters, prefix digests) is the router's own.  :meth:`forget` tells the
    router a replica died, so per-replica state can be dropped.
    """

    name: str = "router"

    @staticmethod
    def routable(views: list[ReplicaView]) -> list[ReplicaView]:
        """Replicas eligible for new work: not DOWN, breaker permitting.

        Every built-in router filters through this first, so a replica the
        health supervisor marked DOWN never receives a request even if it
        still appears in the view list.  Replicas whose circuit breaker is
        refusing new work are likewise excluded — unless *every* up replica
        is refusing, in which case the fleet keeps serving rather than
        dropping traffic on the floor (breakers shift load, never strand it).
        """
        up = [view for view in views if view.health is not ReplicaHealth.DOWN]
        if not up:
            raise RuntimeError("no routable (non-DOWN) replica")
        closed = [view for view in up if not view.breaker_open]
        return closed or up

    @abc.abstractmethod
    def route(self, request: Request, views: list[ReplicaView]) -> int:
        """The ``replica_id`` (from ``views``) that should serve ``request``."""

    def forget(self, replica_id: int) -> None:
        """Drop any per-replica state for a dead replica (default: none)."""

    def describe(self) -> str:
        return self.name


class RoundRobinRouter(Router):
    """Cycle the alive replicas in order, ignoring load and content."""

    name = "round-robin"

    def __init__(self) -> None:
        self._turn = 0

    def route(self, request: Request, views: list[ReplicaView]) -> int:
        views = self.routable(views)
        view = views[self._turn % len(views)]
        self._turn += 1
        return view.replica_id


class LeastLoadedRouter(Router):
    """Lowest in-flight token pressure wins; queue depth breaks ties.

    Pressure is the replica's outstanding work in tokens (prompt tokens not
    yet prefilled + decode tokens not yet generated, queued requests
    included), the EPLB-style balancing signal; replica id is the final
    deterministic tiebreak.
    """

    name = "least-loaded"

    @staticmethod
    def pressure(view: ReplicaView) -> tuple:
        return (view.load.inflight_tokens, view.load.n_live, view.replica_id)

    def route(self, request: Request, views: list[ReplicaView]) -> int:
        return min(self.routable(views), key=self.pressure).replica_id


class RadixAffinityRouter(Router):
    """Route to the replica whose prefix digest best matches the prompt.

    Each routed prompt is recorded in the chosen replica's
    :class:`PrefixDigest`; a new request goes to the replica with the
    longest digest match for its prompt **if** that match reaches
    ``threshold`` tokens (ties broken by load), otherwise — and for requests
    without pinned prompt tokens — it falls back to least-loaded routing.
    ``digest_tokens`` bounds each per-replica digest (LRU).

    Health-aware: DOWN replicas are never candidates, and DEGRADED ones are
    demoted to last resort — both the affinity match and the fallback only
    consider them when no HEALTHY replica exists (cache affinity is not
    worth routing onto a struggling replica).
    """

    name = "radix-affinity"

    def __init__(self, threshold: int = 16,
                 digest_tokens: int | None = None) -> None:
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        self.threshold = threshold
        self.digest_tokens = digest_tokens
        self._digests: dict[int, PrefixDigest] = {}
        self._fallback = LeastLoadedRouter()

    def digest(self, replica_id: int) -> PrefixDigest:
        """The (lazily-created) digest of one replica's routed prompts."""
        if replica_id not in self._digests:
            self._digests[replica_id] = PrefixDigest(max_tokens=self.digest_tokens)
        return self._digests[replica_id]

    def route(self, request: Request, views: list[ReplicaView]) -> int:
        views = self.routable(views)
        healthy = [v for v in views if v.health is ReplicaHealth.HEALTHY]
        pool = healthy or views  # DEGRADED replicas only as a last resort
        prompt = request.prompt_tokens
        chosen: int | None = None
        if prompt:
            matches = {view.replica_id: self.digest(view.replica_id)
                       .longest_match_len(prompt) for view in pool}
            best = max(matches.values())
            if best >= self.threshold:
                tied = [v for v in pool if matches[v.replica_id] == best]
                chosen = min(tied, key=LeastLoadedRouter.pressure).replica_id
        if chosen is None:
            chosen = self._fallback.route(request, pool)
        if prompt:
            self.digest(chosen).observe(prompt)
        return chosen

    def forget(self, replica_id: int) -> None:
        self._digests.pop(replica_id, None)

    def describe(self) -> str:
        return f"radix-affinity:threshold={self.threshold}"


@register("router", "round-robin", "rr",
          description="cycle alive replicas in order")
def _build_round_robin() -> Router:
    return RoundRobinRouter()


@register("router", "least-loaded",
          description="lowest in-flight token pressure (queue depth tiebreak)")
def _build_least_loaded() -> Router:
    return LeastLoadedRouter()


@register("router", "radix-affinity",
          description="longest prompt-prefix digest match above a threshold, "
                      "least-loaded fallback")
def _build_radix_affinity(threshold: int = 16,
                          digest_tokens: int | None = None) -> Router:
    return RadixAffinityRouter(threshold=threshold, digest_tokens=digest_tokens)


def resolve_router(router: "Router | str | None") -> Router:
    """Build a router from a spec string (``None`` means ``"round-robin"``)."""
    if router is None:
        return RoundRobinRouter()
    return resolve("router", router)


# ----------------------------------------------------------------------
# Migration policies (the "migration" registry kind)
# ----------------------------------------------------------------------
@dataclass
class MigrationPolicy:
    """When the cluster moves KV state instead of recomputing it.

    Two orthogonal mechanisms, individually spec-addressable and composable
    (``migration=["drain-on-degraded:max_inflight=2", "checkpoint:interval=8"]``):

    * ``drain_max_inflight`` — a DEGRADED replica is proactively drained
      down to at most this many live requests per round; each drained
      request is checkpointed (when its cache supports it) and injected
      into a HEALTHY replica, resuming decode without re-prefilling.
    * ``checkpoint_interval`` — every ``interval`` rounds the cluster
      stashes a checkpoint of each decoding request, so a *crash* (which
      gives no chance to drain) loses at most ``interval`` decode steps:
      the drained state rewinds to its stashed checkpoint and re-decodes
      only the suffix, token-identically.

    Both default off (:attr:`enabled` False = PR 7 recompute-only recovery).
    """

    drain_max_inflight: int | None = None
    checkpoint_interval: int | None = None

    @property
    def enabled(self) -> bool:
        return (self.drain_max_inflight is not None
                or self.checkpoint_interval is not None)

    def describe(self) -> str:
        parts = []
        if self.drain_max_inflight is not None:
            parts.append(f"drain-on-degraded:max_inflight={self.drain_max_inflight}")
        if self.checkpoint_interval is not None:
            parts.append(f"checkpoint:interval={self.checkpoint_interval}")
        return "+".join(parts) or "none"


@register("migration", "none",
          description="no live migration (eviction-and-recompute recovery only)")
def _build_no_migration() -> MigrationPolicy:
    return MigrationPolicy()


@register("migration", "drain-on-degraded",
          description="checkpoint-drain DEGRADED replicas down to max_inflight "
                      "live requests, injecting into HEALTHY replicas")
def _build_drain_on_degraded(max_inflight: int = 0) -> MigrationPolicy:
    if max_inflight < 0:
        raise ValueError("max_inflight must be non-negative")
    return MigrationPolicy(drain_max_inflight=max_inflight)


@register("migration", "checkpoint",
          description="periodic KV checkpoints every `interval` rounds; a crash "
                      "loses at most `interval` decode steps")
def _build_checkpoint_migration(interval: int = 8) -> MigrationPolicy:
    if interval <= 0:
        raise ValueError("interval must be positive")
    return MigrationPolicy(checkpoint_interval=interval)


def resolve_migration(
        migration: "MigrationPolicy | str | Sequence | None") -> MigrationPolicy:
    """Build a migration policy from a spec, policy, or sequence of those.

    ``None`` disables migration; a sequence merges its members (later
    members override a field the earlier ones also set), which is how the
    composed ``drain-on-degraded`` + ``checkpoint`` deployment is spelled.
    """
    if migration is None:
        return MigrationPolicy()
    if isinstance(migration, MigrationPolicy):
        return migration
    if isinstance(migration, (list, tuple)):
        merged = MigrationPolicy()
        for spec in migration:
            part = resolve_migration(spec)
            if part.drain_max_inflight is not None:
                merged.drain_max_inflight = part.drain_max_inflight
            if part.checkpoint_interval is not None:
                merged.checkpoint_interval = part.checkpoint_interval
        return merged
    return resolve("migration", migration)


#: Suffix appended to a request id to name its hedge duplicate.
HEDGE_SUFFIX = "~hedge"


@dataclass
class _HedgeFlight:
    """One in-flight hedge duplicate (cluster-internal bookkeeping)."""

    request: Request
    hedge_id: str
    src: int
    dst: int
    launched: int
    #: Generated tokens at fork time (seeded via checkpoint when ``via`` is
    #: ``"checkpoint"``; re-decoded from scratch when ``"recompute"``).
    fork_len: int
    via: str


# ----------------------------------------------------------------------
# Cluster report
# ----------------------------------------------------------------------
@dataclass
class ClusterReport(_ResultStats):
    """Aggregate outcome of one :meth:`ClusterEngine.run` call.

    ``replica_reports`` holds each replica's own
    :class:`~repro.serve.engine.FunctionalServingReport` (a failed replica's
    report contains only the requests it finished before dying); cluster-wide
    views pool them.  Status counts, token totals and TTFT statistics run
    over the pooled :attr:`results`, so a hedge win — whose result moves from
    the winning replica's report into ``cluster_results`` — still counts.
    ``parallel_wall_s`` is the simulated parallel makespan: per lockstep
    round, the maximum of the stepping replicas' measured wall latencies —
    what a cluster with truly concurrent replicas would take — and is the
    denominator of :attr:`decode_tokens_per_s`.
    """

    router: str
    n_replicas: int
    max_concurrency: int
    replica_reports: list[FunctionalServingReport] = field(default_factory=list)
    #: request_id -> replica that (last) served it.
    assignments: dict[str, int] = field(default_factory=dict)
    #: request_id -> times the request was drained and re-routed.
    requeues: dict[str, int] = field(default_factory=dict)
    failed_replicas: list[int] = field(default_factory=list)
    #: Lockstep rounds until every replica drained its work.
    cluster_steps: int = 0
    #: Sequential in-process wall time of the whole run.
    wall_s: float = 0.0
    #: Simulated parallel makespan (sum over rounds of the slowest step).
    parallel_wall_s: float = 0.0
    #: Requests terminated at the cluster layer (shed admissions, requests
    #: cancelled while queued/requeued), plus hedge wins: the winning
    #: copy's result, moved out of its replica's report.
    cluster_results: list[FunctionalRequestResult] = field(default_factory=list)
    #: replica_id -> {"healthy->degraded": count, ...} transition counters.
    health_transitions: dict[int, dict[str, int]] = field(default_factory=dict)
    #: Replicas that crashed and later rejoined.
    recovered_replicas: list[int] = field(default_factory=list)
    #: Fault-plan description when the run injected faults (None otherwise).
    faults: str | None = None
    #: Migration-policy description (``None`` when migration is disabled).
    migration: str | None = None
    #: Requests injected into a replica *carrying a KV checkpoint* (drain
    #: passes and crash requeues with a stashed checkpoint).
    migrated_requests: int = 0
    #: Source-pool pages those checkpoints carried (the migration payload).
    migrated_pages: int = 0
    #: Admission-policy description (``None`` when admission is disabled).
    admission: str | None = None
    #: tenant -> {"admitted"/"deferred"/"shed"/"timeout": count} admission
    #: counters ("deferred" counts deferral *rounds*, not distinct requests).
    tenant_admission: dict[str, dict[str, int]] = field(default_factory=dict)
    #: Brownout config description + transition log (round, from, to, reason).
    brownout: str | None = None
    brownout_events: list[tuple[int, int, int, str]] = field(default_factory=list)
    #: Rounds the cluster spent at each brownout level (level 0 included).
    brownout_rounds: dict[int, int] = field(default_factory=dict)
    #: Hedge-policy description + event log (round, event, request_id, detail).
    hedge: str | None = None
    hedge_events: list[tuple] = field(default_factory=list)
    n_hedges: int = 0
    hedge_wins: int = 0
    #: Decode tokens the losing copies produced that the winner didn't use.
    hedge_waste_tokens: int = 0
    #: Breaker config description + transition log (round, replica, change).
    breaker: str | None = None
    breaker_events: list[tuple[int, int, str]] = field(default_factory=list)

    # -- pooled views ----------------------------------------------------
    @property
    def results(self) -> list[FunctionalRequestResult]:
        """Every request's result, pooled across replicas, arrival-ordered."""
        pooled = [r for report in self.replica_reports for r in report.results]
        pooled += self.cluster_results
        pooled.sort(key=lambda r: (r.request.arrival_time_s, r.request.request_id))
        return pooled

    @property
    def n_requeued(self) -> int:
        """Drain-and-re-route events across the run (one request may count
        several times if it survived several failures)."""
        return sum(self.requeues.values())

    @property
    def completed_fraction(self) -> float:
        n = self.n_requests
        return self._n_status("finished") / n if n else 0.0

    @property
    def decode_tokens_per_s(self) -> float:
        """Cluster decode throughput over the simulated parallel makespan."""
        if self.parallel_wall_s <= 0:
            return 0.0
        return self.total_decode_tokens / self.parallel_wall_s

    # -- robustness ------------------------------------------------------
    @property
    def n_retries(self) -> int:
        """Transient executor failures retried across every replica."""
        return sum(r.n_retries for r in self.replica_reports)

    @property
    def n_shed(self) -> int:
        return self._n_status("shed")

    @property
    def n_health_transitions(self) -> int:
        return sum(sum(counts.values())
                   for counts in self.health_transitions.values())

    @property
    def n_breaker_trips(self) -> int:
        """Breaker transitions into OPEN (closed→open and half-open→open)."""
        return sum(1 for _, _, change in self.breaker_events
                   if change.endswith("->open"))

    @property
    def brownout_degraded_rounds(self) -> int:
        """Rounds the cluster spent at any brownout level above 0."""
        return sum(n for level, n in self.brownout_rounds.items() if level > 0)

    def per_tenant(self) -> dict[str, dict[str, int]]:
        """Per-tenant outcome breakdown over the pooled results.

        ``goodput_tokens`` counts decode tokens of *finished* requests only
        — the deterministic (round-domain) goodput numerator the overload
        bench compares across admission policies.
        """
        stats: dict[str, dict[str, int]] = {}
        for result in self.results:
            row = stats.setdefault(result.request.tenant, {
                "n": 0, "finished": 0, "shed": 0, "timeout": 0,
                "failed": 0, "cancelled": 0, "goodput_tokens": 0})
            row["n"] += 1
            if result.status in row:
                row[result.status] += 1
            if result.status == "finished":
                row["goodput_tokens"] += result.tokens_generated
        return stats

    # -- migration -------------------------------------------------------
    @property
    def n_restored(self) -> int:
        """Requests re-admitted from a KV checkpoint across every replica."""
        return sum(r.n_restored for r in self.replica_reports)

    @property
    def recompute_tokens_saved(self) -> int:
        """Prefill tokens checkpoint restores skipped — what recompute-based
        recovery would have replayed for the same re-admissions."""
        return sum(r.recompute_tokens_saved for r in self.replica_reports)

    # -- latency ---------------------------------------------------------
    def step_latency_percentile_s(self, percentile: float) -> float:
        """Pooled per-replica engine-step latency percentile."""
        values = [s for r in self.replica_reports for s in r.step_latencies_s]
        if not values:
            return 0.0
        return float(np.percentile(values, percentile))

    # -- balance ---------------------------------------------------------
    @property
    def per_replica_decode_tokens(self) -> list[int]:
        return [r.total_decode_tokens for r in self.replica_reports]

    @property
    def load_imbalance(self) -> float:
        """Max/mean of per-replica decode tokens (1.0 is perfectly even)."""
        tokens = self.per_replica_decode_tokens
        mean = float(np.mean(tokens)) if tokens else 0.0
        if mean <= 0:
            return 1.0
        return max(tokens) / mean

    def summary(self) -> str:
        """Human-readable multi-line summary of the cluster run."""
        lines = [
            f"ClusterReport: {self.n_requests} requests on {self.n_replicas} "
            f"replicas (router {self.router}, <= {self.max_concurrency} "
            f"concurrent each): {self.total_decode_tokens} tokens decoded in "
            f"{self.cluster_steps} rounds / {self.parallel_wall_s:.2f} s "
            f"parallel makespan ({self.decode_tokens_per_s:.1f} tok/s)",
            *self._common_lines([s for r in self.replica_reports
                                 for s in r.step_latencies_s]),
            f"  balance        decode tokens per replica "
            f"{self.per_replica_decode_tokens} "
            f"(imbalance {self.load_imbalance:.2f}x)",
        ]
        if self.failed_replicas or self.n_requeued:
            recovered = (f" ({self.recovered_replicas} rejoined)"
                         if self.recovered_replicas else "")
            lines.append(
                f"  failures       replicas {self.failed_replicas} killed"
                f"{recovered} | "
                f"{self.n_requeued} requests drained and re-routed | "
                f"completion {100.0 * self.completed_fraction:.1f}%")
        if (self.faults or self.n_retries or self.n_timeouts or self.n_shed
                or self.n_failed or self.n_health_transitions):
            lines.append(
                f"  robustness     faults {self.faults or 'none'} | "
                f"{self.n_retries} retries | {self.n_timeouts} timeouts | "
                f"{self.n_shed} shed | {self.n_failed} failed | "
                f"{self.n_health_transitions} health transitions")
        if (self.migration and self.migration != "none") or self.migrated_requests:
            lines.append(
                f"  migration      policy {self.migration or 'none'} | "
                f"{self.migrated_requests} migrated "
                f"({self.migrated_pages} pages) | "
                f"{self.n_restored} checkpoint restores | "
                f"{self.recompute_tokens_saved} recompute tokens saved")
        tenants = self.per_tenant()
        if self.admission is not None or len(tenants) > 1:
            lines.append(f"  admission      policy {self.admission or 'none'} "
                         f"| per tenant:")
            for tenant in sorted(tenants):
                row = tenants[tenant]
                deferred = self.tenant_admission.get(tenant, {}).get("deferred", 0)
                lines.append(
                    f"    {tenant:<12} {row['n']:4d} requests | "
                    f"{row['finished']} finished "
                    f"({row['goodput_tokens']} goodput tokens) | "
                    f"{row['shed']} shed | {row['timeout']} timeouts | "
                    f"{deferred} deferred rounds")
        if self.hedge is not None or self.n_hedges:
            lines.append(
                f"  hedging        policy {self.hedge or 'none'} | "
                f"{self.n_hedges} launched | {self.hedge_wins} hedge wins | "
                f"{self.hedge_waste_tokens} duplicate tokens wasted")
        if self.breaker is not None or self.breaker_events:
            lines.append(
                f"  breakers       config {self.breaker or 'none'} | "
                f"{self.n_breaker_trips} trips | "
                f"{len(self.breaker_events)} transitions")
        if self.brownout is not None or self.brownout_events:
            lines.append(
                f"  brownout       config {self.brownout or 'none'} | "
                f"{len(self.brownout_events)} transitions | "
                f"{self.brownout_degraded_rounds}/{self.cluster_steps} rounds "
                f"degraded | {self.n_truncated} truncated")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# The cluster engine
# ----------------------------------------------------------------------
#: Admission verdict -> per-tenant admission counter key.
_ADMISSION_OUTCOMES = {AdmissionDecision.ADMIT: "admitted",
                       AdmissionDecision.DEFER: "deferred",
                       AdmissionDecision.SHED: "shed"}


def _describe(policy) -> str | None:
    return policy.describe() if policy is not None else None


class _Run:
    """Everything one :meth:`ClusterEngine.run` call reads and mutates.

    Built fresh per call, so every run starts with new sessions, healthy
    replicas, closed breakers, empty queues and an empty report.
    """

    def __init__(self, cluster: "ClusterEngine", lm: "DecoderLM",
                 requests: list[Request]) -> None:
        if not requests:
            raise ValueError("requests must be non-empty")
        #: Every request id the run must account for (burst clones join).
        self.seen: set[str] = set()
        for request in requests:
            if request.request_id in self.seen:
                raise ValueError(f"duplicate request_id '{request.request_id}'")
            self.seen.add(request.request_id)
        n, faults = cluster.n_replicas, cluster.faults
        # Merge the fault plan's crash schedule into the manual fail_replica
        # one (earliest kill wins); crashes with recover_after rejoin later.
        self.fail_at = dict(cluster._fail_at)
        self.recover_delay: dict[int, int] = {}
        self.recover_at: dict[int, int] = {}
        for crash in (faults.crashes if faults is not None else ()):
            if not 0 <= crash.replica < n:
                raise ValueError(
                    f"fault plan kills replica {crash.replica} but the "
                    f"cluster has {n} replicas")
            self.fail_at[crash.replica] = min(
                self.fail_at.get(crash.replica, crash.at), crash.at)
            if crash.recover_after is not None:
                self.recover_delay[crash.replica] = crash.recover_after
        self.cancel_at = dict(cluster._cancel_at)
        #: Cancellations due this round (a cancelled primary's hedge too).
        self.due_cancels: set[str] = set()
        self.lm = lm
        self.step = 0
        self.pending = deque(sorted(
            requests, key=lambda r: (r.arrival_time_s, r.request_id)))
        self.sessions = [cluster._start_session(lm, i) for i in range(n)]
        self.alive = [True] * n
        self.health = [ReplicaHealth.HEALTHY] * n
        self.breakers = [CircuitBreaker(cluster.breaker)
                         if cluster.breaker is not None else None
                         for _ in range(n)]
        # Health-supervision signals: per-replica retry deltas over a
        # sliding window of rounds, and consecutive slow rounds for hedging.
        self.retry_hist = [deque(maxlen=HEALTH_WINDOW) for _ in range(n)]
        self.last_retries = [0] * n
        self.slow_streak = [0] * n
        #: Drained states awaiting re-routing (routed before fresh arrivals).
        self.requeue: "deque[SequenceState]" = deque()
        #: request_id -> latest periodic KV checkpoint (checkpoint:interval=S
        #: mode); rebuilt wholesale each interval so finished requests drop
        #: out.  Attached to crash-drained states, whose own state rides the
        #: requeue — the checkpoint data is self-contained, so it survives
        #: the pool it was exported from.
        self.ckpt_stash: "dict[str, RequestCheckpoint]" = {}
        # The admission policy is resolved fresh per run so stateful
        # policies (token buckets, stride schedulers) start clean;
        # `deferred` is the lossless backpressure queue its DEFER verdicts
        # feed; `first_offered` dates each request's first admission attempt
        # so deadlines and max_wait count queueing rounds.
        self.admission = resolve_admission(cluster.admission)
        self.deferred: "deque[Request]" = deque()
        self.first_offered: dict[str, int] = {}
        self.burst_counts: dict[int, int] = {}
        self.ladder = (BrownoutLadder(cluster.brownout)
                       if cluster.brownout is not None else None)
        #: primary request_id -> in-flight hedge duplicate.
        self.hedges: "dict[str, _HedgeFlight]" = {}
        self.hedged_ever: set[str] = set()
        #: Reports of crashed sessions sealed when their replica rejoined.
        self.retired: list[FunctionalServingReport] = []
        self.report = ClusterReport(
            router=cluster.router.describe(), n_replicas=n,
            max_concurrency=cluster.max_concurrency,
            faults=_describe(faults),
            migration=(cluster.migration.describe()
                       if cluster.migration.enabled else None),
            admission=_describe(self.admission),
            brownout=_describe(cluster.brownout),
            hedge=_describe(cluster.hedge), breaker=_describe(cluster.breaker))

    def alive_ids(self) -> list[int]:
        return [i for i, up in enumerate(self.alive) if up]

    def has_work(self) -> bool:
        return bool(self.pending or self.requeue or self.deferred
                    or any(self.sessions[i].has_work()
                           for i in self.alive_ids()))

    def reset_replica(self, i: int) -> None:
        """Clear replica ``i``'s supervision history (crash and rejoin)."""
        self.retry_hist[i].clear()
        self.last_retries[i] = 0
        self.slow_streak[i] = 0
        if self.breakers[i] is not None:
            self.breakers[i].reset()

    def set_health(self, i: int, health: ReplicaHealth) -> None:
        old = self.health[i]
        if old is health:
            return
        self.health[i] = health
        counts = self.report.health_transitions.setdefault(i, {})
        key = f"{old.value}->{health.value}"
        counts[key] = counts.get(key, 0) + 1

    def log_breaker(self, i: int, moved: "tuple[str, str] | None") -> None:
        """Log replica ``i``'s breaker transition (``None``: it held)."""
        if moved is not None:
            self.report.breaker_events.append(
                (self.step, i, f"{moved[0]}->{moved[1]}"))

    def count_tenant(self, tenant: str, key: str) -> None:
        bucket = self.report.tenant_admission.setdefault(
            tenant, {"admitted": 0, "deferred": 0, "shed": 0, "timeout": 0})
        bucket[key] += 1

    def terminate(self, request: Request, status: str,
                  state: "SequenceState | None" = None) -> None:
        """Mint a terminal result at the cluster layer (shed / cancelled /
        timed out before reaching a replica, or cancelled while requeued)."""
        if state is None:
            state = SequenceState(request=request,
                                  prompt=list(request.prompt_tokens or ()))
        result = ServingEngine._result(state, self.step, status)
        result.finished_clock = self.step
        self.report.cluster_results.append(result)

    def place(self, state: "SequenceState", target: int) -> None:
        """Inject a drained state into replica ``target`` and count the move
        (a state carrying a KV checkpoint counts as migrated)."""
        self.sessions[target].inject_request(state)
        report, rid = self.report, state.request_id
        if state.checkpoint is not None:
            report.migrated_requests += 1
            report.migrated_pages += state.checkpoint.n_pages
        report.assignments[rid] = target
        report.requeues[rid] = report.requeues.get(rid, 0) + 1


class ClusterEngine:
    """N independent serving replicas behind a routing policy.

    Each replica is a :class:`~repro.serve.engine.ServingEngine` running a
    :class:`~repro.serve.engine.FunctionalSession` with its *own* cache
    factory (``cache`` spec strings are resolved once per replica, so
    bounded paged pools and radix indices are never shared); the cluster
    loop routes arrivals through ``router`` and then steps every busy
    replica once per lockstep round.

    ``cache`` accepts a registry spec string (resolved per replica), ``None``
    (full cache), or a sequence of ``n_replicas`` pre-built factories; a
    single pre-built factory is rejected because the replicas would share
    one KV pool.  ``arrivals_per_step`` throttles routing to at most that
    many requests per round (``None`` routes the whole trace up front, the
    closed-loop regime); drained requests from a failed replica are always
    re-routed before fresh arrivals.

    Greedy decoding over pinned prompts makes per-request outputs depend
    only on the prompt, so cluster outputs are token-identical to any
    single-replica serving of the same per-replica partition — routing,
    lockstep interleaving and failures change *when* tokens appear, never
    *which* tokens.
    """

    def __init__(self, n_replicas: int, *,
                 router: "Router | str | None" = "round-robin",
                 max_concurrency: int = 4,
                 cache: "KVCacheFactory | str | Sequence | None" = None,
                 prefix_cache: bool = False,
                 token_budget: int | None = None,
                 radix_max_tokens: int | None = None,
                 drafter: "Drafter | str | None" = None,
                 policy: "SchedulingPolicy | str | None" = "fcfs",
                 capacity_tokens: int | None = None,
                 seed: int = 0,
                 arrivals_per_step: int | None = None,
                 faults: "object | None" = None,
                 paranoid: bool = False,
                 migration: "MigrationPolicy | str | Sequence | None" = None,
                 admission: "AdmissionPolicy | str | Sequence | None" = None,
                 brownout: "BrownoutConfig | str | bool | None" = None,
                 hedge: "HedgePolicy | str | bool | None" = None,
                 breaker: "BreakerConfig | str | bool | None" = None,
                 ) -> None:
        if n_replicas <= 0:
            raise ValueError("n_replicas must be positive")
        if arrivals_per_step is not None and arrivals_per_step <= 0:
            raise ValueError("arrivals_per_step must be positive (or None)")
        self.n_replicas = n_replicas
        self.router = resolve_router(router)
        self.max_concurrency = max_concurrency
        self._caches = self._per_replica_caches(cache, n_replicas)
        self.prefix_cache = prefix_cache
        self.token_budget = token_budget
        self.radix_max_tokens = radix_max_tokens
        self.drafter = drafter
        self.policy = policy
        self.capacity_tokens = capacity_tokens
        self.seed = seed
        self.arrivals_per_step = arrivals_per_step
        #: Deterministic chaos plan shared by the cluster (crash schedule)
        #: and every replica session (transient-exec / alloc-pressure gates,
        #: straggler inflation scoped by replica_id).
        self.faults = resolve_fault_plan(faults, seed=seed)
        self.paranoid = paranoid
        #: Live-migration policy (``"migration"`` registry kind): proactive
        #: drain of DEGRADED replicas and/or periodic crash checkpoints.
        self.migration = resolve_migration(migration)
        #: Admission spec (``"admission"`` registry kind).  Kept as the raw
        #: spec and resolved fresh at every :meth:`run`, so stateful policies
        #: (token-bucket levels, weighted-fair virtual clocks) start clean
        #: per run and repeated runs stay byte-identical.
        self.admission = admission
        resolve_admission(admission)  # fail fast on bad specs
        #: Brownout ladder config (``None`` disables graceful degradation).
        self.brownout = resolve_brownout(brownout)
        #: Hedged-request policy (``None`` disables duplication).
        self.hedge = resolve_hedge(hedge)
        #: Per-replica circuit-breaker config (``None`` disables breakers).
        self.breaker = resolve_breaker(breaker)
        self.engines = [ServingEngine(max_concurrency=max_concurrency)
                        for _ in range(n_replicas)]
        self._fail_at: dict[int, int] = {}
        self._cancel_at: dict[str, int] = {}

    @staticmethod
    def _per_replica_caches(cache, n_replicas: int) -> list:
        """One cache factory (or spec/None) per replica, never shared."""
        if cache is None or isinstance(cache, str):
            return [cache] * n_replicas
        if isinstance(cache, (list, tuple)):
            if len(cache) != n_replicas:
                raise ValueError(
                    f"cache sequence has {len(cache)} factories for "
                    f"{n_replicas} replicas")
            return list(cache)
        raise TypeError(
            "cache must be a registry spec string, None, or a sequence of "
            "n_replicas factories — a single pre-built factory would share "
            "one KV pool across every replica")

    # -- fault injection -------------------------------------------------
    def fail_replica(self, replica_id: int, at_step: int = 0) -> None:
        """Kill ``replica_id`` at cluster step ``at_step`` (0 = immediately).

        Takes effect at the next round boundary at or after ``at_step``: the
        replica's in-flight requests are drained back to the shared queue
        and re-routed among survivors (the router is told to
        :meth:`~Router.forget` the replica), and the replica never steps
        again.  Requests it finished before the failure keep their results.
        """
        if not 0 <= replica_id < self.n_replicas:
            raise ValueError(f"no replica {replica_id} in a "
                             f"{self.n_replicas}-replica cluster")
        if at_step < 0:
            raise ValueError("at_step must be non-negative")
        self._fail_at[replica_id] = at_step

    def cancel(self, request_id: str, at_step: int = 0) -> None:
        """Cancel ``request_id`` at cluster round ``at_step`` (0 = first round).

        Works wherever the request is at that round: still queued for
        routing, waiting in a replica, mid-decode, preempted, or requeued
        after a replica failure — its pages are released and it terminates
        with ``status="cancelled"`` exactly once.
        """
        if at_step < 0:
            raise ValueError("at_step must be non-negative")
        self._cancel_at[request_id] = at_step

    # -- routing ---------------------------------------------------------
    def _views(self, run: _Run) -> list[ReplicaView]:
        views = [ReplicaView(i, run.sessions[i].load_snapshot(), run.health[i],
                             breaker_open=(run.breakers[i] is not None
                                           and not run.breakers[i]
                                           .allows_routing()))
                 for i in run.alive_ids()]
        if not views:
            raise RuntimeError("every replica has failed with work outstanding")
        return views

    def _route(self, run: _Run, request: Request) -> int:
        target = self.router.route(request, self._views(run))
        if not (0 <= target < self.n_replicas and run.alive[target]):
            raise RuntimeError(
                f"router {self.router.describe()} chose unavailable replica "
                f"{target}")
        if run.breakers[target] is not None:
            run.breakers[target].note_routed()  # spends a half-open probe
        return target

    def _admission_context(self, run: _Run, waited: int = 0) -> AdmissionContext:
        """The cluster-wide load the admission policy sees for one candidate.

        Rebuilt per candidate (views are recomputed), so a request admitted
        earlier in the same round already counts toward the pressure a later
        candidate is judged against.
        """
        projected = n_live = 0
        capacity: int | None = 0
        for view in self._views(run):
            n_live += view.load.n_live
            projected += view.load.projected_kv_tokens
            if capacity is not None:
                capacity = (None if view.load.capacity_tokens is None
                            else capacity + view.load.capacity_tokens)
        return AdmissionContext(clock=run.step, projected_kv_tokens=projected,
                                capacity_tokens=capacity, n_live=n_live,
                                waited=waited)

    # -- replicas --------------------------------------------------------
    def _start_session(self, lm: "DecoderLM",
                       replica_id: int) -> "FunctionalSession":
        """Open one replica's session (fresh pool/index — also the rejoin path)."""
        spec = self._caches[replica_id]
        return self.engines[replica_id].start_functional(
            lm, cache=(resolve("cache", spec) if isinstance(spec, str)
                       else spec),
            seed=self.seed, prefix_cache=self.prefix_cache,
            token_budget=self.token_budget,
            radix_max_tokens=self.radix_max_tokens, drafter=self.drafter,
            policy=self.policy, capacity_tokens=self.capacity_tokens,
            faults=self.faults, paranoid=self.paranoid,
            replica_id=replica_id)

    def _slowdown(self, replica_id: int, step: int) -> float:
        """The fault plan's deterministic slowdown signal (1.0 unfaulted)."""
        return (self.faults.slowdown(replica_id, step)
                if self.faults is not None else 1.0)

    def _apply_brownout(self, session: "FunctionalSession", level: int) -> None:
        """Set one replica to the ladder's current degradation rung.

        Levels are cumulative and idempotent: L1 disables speculation, L2
        shrinks (or freezes) the radix budget, L3 caps low-tier decode
        lengths.  Applied on every transition and to rejoining replicas, so
        the whole fleet always sits on the same rung.
        """
        cfg = self.brownout
        assert cfg is not None
        session.set_speculation(level < 1)
        if cfg.levels >= 2:
            session.limit_radix(cfg.radix_cap_tokens if level >= 2 else None)
        if cfg.levels >= 3:
            if level >= 3:
                session.cap_decodes(cfg.decode_cap, cfg.min_tier)
            else:
                session.uncap_decodes()

    # -- the cluster loop ------------------------------------------------
    def run(self, lm: "DecoderLM", requests: list[Request]) -> ClusterReport:
        """Serve ``requests`` across the replicas and aggregate the outcome.

        Every lockstep round runs the phases below in order, until no
        request is pending, deferred, requeued or live on an alive replica.
        """
        run = _Run(self, lm, requests)
        start = time.perf_counter()
        while run.has_work():
            self._rejoin_recovered(run)
            self._fail_due(run)
            if self.migration.drain_max_inflight is not None:
                self._drain_degraded(run)
            self._tick_breakers(run)
            if run.ladder is not None:
                self._step_brownout(run)
            self._forward_cancels(run)
            if any(run.alive):
                self._route_requeued(run)
                self._admit_arrivals(run)
                if self.hedge is not None:
                    self._launch_hedges(run)
            elif (run.pending or run.requeue or run.deferred) \
                    and not run.recover_at:
                raise RuntimeError(
                    "every replica has failed with work outstanding")
            self._step_replicas(run)
            self._stash_checkpoints(run)
            self._resolve_hedges(run)
            self._supervise(run)
            run.step += 1
            if self.paranoid:
                self._check_conservation(run)
        report = run.report
        report.cluster_steps = run.step
        report.replica_reports = (run.retired
                                  + [session.finish() for session in run.sessions])
        report.wall_s = time.perf_counter() - start
        return report

    # -- round phases, in the order run() calls them ----------------------
    def _rejoin_recovered(self, run: _Run) -> None:
        """Rejoin crashed replicas whose recovery delay has elapsed.

        The crashed session's report is sealed (pre-crash completions
        survive) and a fresh session starts: new pool, empty radix index,
        clean health history, the fleet's current brownout rung.
        """
        for i in sorted(run.recover_at):
            if run.recover_at[i] > run.step or run.alive[i]:
                continue
            del run.recover_at[i]
            run.retired.append(run.sessions[i].finish())
            run.sessions[i] = self._start_session(run.lm, i)
            run.alive[i] = True
            run.reset_replica(i)
            if run.ladder is not None:
                self._apply_brownout(run.sessions[i], run.ladder.level)
            run.set_health(i, ReplicaHealth.HEALTHY)
            run.report.recovered_replicas.append(i)

    def _fail_due(self, run: _Run) -> None:
        """Kill the replicas whose failure is due and requeue their work.

        A crash gives no chance to checkpoint: each drained state gets the
        latest *periodic* checkpoint instead, bounding the loss to at most
        ``interval`` decode steps (a state already carrying one — e.g. a
        queued migrant — keeps its own, which is at least as fresh).  A
        drained hedge copy dies with its replica: the primary is still
        running, so re-routing the duplicate would just double the work.
        """
        for i, due in sorted(run.fail_at.items()):
            if due > run.step or not run.alive[i]:
                continue
            run.alive[i] = False
            del run.fail_at[i]
            primary_of = {f.hedge_id: rid for rid, f in run.hedges.items()}
            for state in run.sessions[i].drain():
                if state.checkpoint is None:
                    state.checkpoint = run.ckpt_stash.get(state.request_id)
                rid = primary_of.get(state.request_id)
                if rid is None:
                    run.requeue.append(state)
                    continue
                run.hedges.pop(rid, None)
                run.report.hedge_events.append(
                    (run.step, "hedge-lost-replica", rid, i))
            run.reset_replica(i)
            self.router.forget(i)
            run.report.failed_replicas.append(i)
            run.set_health(i, ReplicaHealth.DOWN)
            if i in run.recover_delay:
                run.recover_at[i] = run.step + run.recover_delay.pop(i)

    def _drain_degraded(self, run: _Run) -> None:
        """One proactive-drain pass over the DEGRADED replicas.

        Each DEGRADED replica is drained down to ``max_inflight`` live
        requests; every extracted request is routed (HEALTHY replicas only)
        and injected immediately, carrying its KV checkpoint when the cache
        could produce one — the recompute-free handoff.  With no HEALTHY
        replica available the pass is skipped this round rather than
        shuffling load between struggling replicas.
        """
        limit = self.migration.drain_max_inflight
        for i in run.alive_ids():
            if run.health[i] is not ReplicaHealth.DEGRADED:
                continue
            session = run.sessions[i]
            excess = session.load_snapshot().n_live - limit
            if excess <= 0:
                continue
            # Queued first (nothing to checkpoint, cheapest to move), then
            # decoding (checkpointable — the recompute-free case), then
            # prefilling (restart their prefill elsewhere).
            running = list(session.scheduler.running.values())
            candidates = ([s.request_id for s in session.scheduler.waiting]
                          + [s.request_id for s in running if s.prefill_done]
                          + [s.request_id for s in running if not s.prefill_done])
            for rid in candidates[:excess]:
                healthy = [v for v in self._views(run)
                           if v.health is ReplicaHealth.HEALTHY]
                if not healthy:
                    return  # nowhere to drain to this round
                extracted = session.extract_request(rid)
                if extracted is not None:
                    state = extracted[0]
                    run.place(state, self.router.route(state.request, healthy))

    def _tick_breakers(self, run: _Run) -> None:
        """Expire OPEN breaker cooldowns into HALF_OPEN; refresh probe slots."""
        for i in run.alive_ids():
            if run.breakers[i] is not None:
                run.log_breaker(i, run.breakers[i].tick(run.step))

    def _step_brownout(self, run: _Run) -> None:
        """Step the brownout ladder on cluster KV pressure and queue depth.

        Pressure is live footprint over bounded capacity across the alive
        replicas (unbounded pools add none), read from the sessions directly
        so the ladder still steps while the fleet recovers.  A new rung is
        pushed to every alive replica; at level 3 the decode caps are
        re-applied each round, since they only stick to admitted requests.
        """
        projected = capacity = 0
        for i in run.alive_ids():
            load = run.sessions[i].load_snapshot()
            if load.capacity_tokens is not None:
                projected += load.projected_kv_tokens
                capacity += load.capacity_tokens
        ladder, cfg = run.ladder, self.brownout
        moved = ladder.observe(projected / capacity if capacity else 0.0,
                               len(run.deferred) + len(run.requeue), run.step)
        if moved is not None:
            run.report.brownout_events.append((run.step, *moved))
            for i in run.alive_ids():
                self._apply_brownout(run.sessions[i], ladder.level)
        elif ladder.level >= 3:
            for i in run.alive_ids():
                run.sessions[i].cap_decodes(cfg.decode_cap, cfg.min_tier)
        rounds = run.report.brownout_rounds
        rounds[ladder.level] = rounds.get(ladder.level, 0) + 1

    def _forward_cancels(self, run: _Run) -> None:
        """Forward this round's due cancellations to the replicas; a
        cancelled primary takes its hedge duplicate down with it."""
        due = {rid for rid, at in run.cancel_at.items() if at <= run.step}
        run.due_cancels = due | {run.hedges[rid].hedge_id
                                 for rid in due if rid in run.hedges}
        for rid in run.due_cancels:
            for i in run.alive_ids():
                self.engines[i].cancel(rid)

    def _route_requeued(self, run: _Run) -> None:
        """Re-route drained requests first: they arrived earliest and their
        ranks still say so."""
        while run.requeue:
            state = run.requeue.popleft()
            if state.request_id in run.due_cancels:
                run.terminate(state.request, "cancelled", state)
            else:
                run.place(state, self._route(run, state.request))

    def _admit_arrivals(self, run: _Run) -> None:
        """Offer deferred requests, then this round's arrivals, to admission.

        Deferred requests go first (they keep their queueing age).  Fresh
        arrivals are expanded through any active tenant-burst fault, so
        clones face the policy exactly like organic traffic.  ADMIT routes
        now, DEFER re-offers next round, and SHED — or a deadline that
        expired while queued — terminates at the cluster layer.
        """
        candidates = list(run.deferred)
        run.deferred.clear()
        n_route = (len(run.pending) if self.arrivals_per_step is None
                   else min(self.arrivals_per_step, len(run.pending)))
        bursts = self.faults.bursts if self.faults is not None else ()
        for _ in range(n_route):
            request = run.pending.popleft()
            candidates.append(request)
            for b_idx, burst in enumerate(bursts):
                if burst.tenant != request.tenant or not burst.active(run.step):
                    continue
                for _k in range(burst.copies):
                    made = run.burst_counts.get(b_idx, 0)
                    if burst.limit is not None and made >= burst.limit:
                        break
                    run.burst_counts[b_idx] = made + 1
                    candidates.append(replace(
                        request, request_id=f"{request.request_id}~b{made}"))
                    run.seen.add(candidates[-1].request_id)
        admission = run.admission
        if admission is not None and candidates:
            admission.begin_round(candidates, self._admission_context(run))
        for request in candidates:
            rid = request.request_id
            waited = run.step - run.first_offered.get(rid, run.step)
            if rid in run.due_cancels:
                outcome = "cancelled"
            elif admission is None:
                outcome = "admitted"
            elif (request.deadline_steps is not None
                  and waited >= request.deadline_steps):
                # Expired while queued: the deadline would fire on the
                # replica anyway; fail fast here instead.
                outcome = "timeout"
            else:
                outcome = _ADMISSION_OUTCOMES[admission.decide(
                    request, self._admission_context(run, waited))]
            if outcome == "deferred":
                run.first_offered.setdefault(rid, run.step)
                run.deferred.append(request)
            else:
                run.first_offered.pop(rid, None)
            if outcome != "cancelled":
                run.count_tenant(request.tenant, outcome)
            if outcome == "admitted":
                target = self._route(run, request)
                run.sessions[target].submit([request])
                run.report.assignments[rid] = target
            elif outcome != "deferred":
                run.terminate(request, outcome)

    def _launch_hedges(self, run: _Run) -> None:
        """Duplicate the decoding requests of persistently slow replicas.

        A replica whose simulated slowdown has reached the hedge threshold
        for ``patience`` consecutive rounds gets its decoding requests
        copied onto the least-loaded healthy sibling; first copy to finish
        wins.  A request is hedged at most once.
        """
        hedge = self.hedge
        for i in range(self.n_replicas):
            slow = run.alive[i] and self._slowdown(i, run.step) >= hedge.slowdown
            run.slow_streak[i] = run.slow_streak[i] + 1 if slow else 0
            if run.slow_streak[i] < hedge.patience:
                continue
            for state in list(run.sessions[i].scheduler.running.values()):
                if len(run.hedges) >= hedge.max_concurrent:
                    break
                rid = state.request_id
                if (not state.prefill_done or not state.generated
                        or rid in run.hedged_ever or rid in run.due_cancels
                        or rid.endswith(HEDGE_SUFFIX)):
                    continue
                if not self._launch_hedge(run, i, state):
                    break  # no healthy sibling this round

    def _launch_hedge(self, run: _Run, src: int, state: "SequenceState") -> bool:
        """Duplicate one straggling decode onto the best healthy replica.

        KV-checkpoint-seeded when the source cache supports it (the copy
        resumes decoding with zero recompute), full-recompute otherwise.
        Returns False when no healthy, breaker-closed sibling exists.
        """
        views = [v for v in self._views(run)
                 if v.replica_id != src and v.health is ReplicaHealth.HEALTHY
                 and not v.breaker_open]
        if not views:
            return False
        dst = min(views, key=LeastLoadedRouter.pressure).replica_id
        request = state.request
        hedge_id = request.request_id + HEDGE_SUFFIX
        ckpt = run.sessions[src].kv.checkpoint(state)
        if ckpt is not None:
            ckpt = replace(ckpt, request_id=hedge_id)
        run.sessions[dst].inject_request(SequenceState(
            request=replace(request, request_id=hedge_id),
            prompt=list(state.prompt), generated=list(state.generated),
            decode_cap=state.decode_cap, checkpoint=ckpt))
        via = "checkpoint" if ckpt is not None else "recompute"
        run.report.n_hedges += 1
        run.report.assignments[hedge_id] = dst
        run.report.hedge_events.append(
            (run.step, "launch", request.request_id, src, dst, via))
        run.hedges[request.request_id] = _HedgeFlight(
            request=request, hedge_id=hedge_id, src=src, dst=dst,
            launched=run.step, fork_len=len(state.generated), via=via)
        run.hedged_ever.add(request.request_id)
        return True

    def _step_replicas(self, run: _Run) -> None:
        """One lockstep round: every busy alive replica steps once at the
        shared cluster clock.  A straggler's simulated latency inflates both
        its own report and the round maximum (the parallel makespan)."""
        round_max = 0.0
        for i in run.alive_ids():
            session = run.sessions[i]
            if not session.has_work():
                continue
            if self.faults is not None and self.faults.stall_skips(i, run.step):
                continue  # stalled: the replica loses this round
            t0 = time.perf_counter()
            session.step(clock=run.step)
            dt = time.perf_counter() - t0
            if self.faults is not None:
                dt *= self.faults.inflation(i, run.step)
            round_max = max(round_max, dt)
        run.report.parallel_wall_s += round_max

    def _stash_checkpoints(self, run: _Run) -> None:
        """Every ``interval`` rounds, stash a fresh checkpoint of each
        decoding request.  Rebuilt wholesale (not merged) so finished
        requests drop out and the stash never outgrows the live decode set."""
        interval = self.migration.checkpoint_interval
        if interval is None or run.step % interval != interval - 1:
            return
        run.ckpt_stash = {}
        for i in run.alive_ids():
            run.ckpt_stash.update(run.sessions[i].checkpoint_requests())

    def _resolve_hedges(self, run: _Run) -> None:
        """Settle each hedged pair once either copy reaches a terminal status.

        A finished primary wins outright; otherwise a finished copy wins and
        its result stands in for the primary's.  Either way the loser is
        cancelled and its KV pages released wherever it sits.  A copy that
        ended non-finished is dropped and the primary runs on (never
        re-hedged).  Resolved the same round the result appears, so exactly
        one terminal result per original request ever reaches the report.
        """
        report = run.report
        for rid, flight in list(run.hedges.items()):
            primary = self._find_result(run, rid)
            copy = self._find_result(run, flight.hedge_id)
            if primary is not None and primary.status == "finished":
                event = ("primary-win", flight.src, flight.dst)
            elif copy is not None and copy.status == "finished":
                event = ("hedge-win", flight.src, flight.dst)
            elif primary is not None:
                event = ("primary-terminal", primary.status)
            elif copy is not None:
                event = ("hedge-terminal", copy.status)
            else:
                continue  # both still running
            if event[0] == "hedge-win":
                self._find_result(run, flight.hedge_id, take=True)
                waste = self._discard_copy(run, rid)
                report.cluster_results.append(
                    replace(copy, request=flight.request))
                report.hedge_wins += 1
                report.assignments[rid] = flight.dst
            else:
                waste = self._discard_copy(run, flight.hedge_id)
            report.hedge_events.append((run.step, event[0], rid, *event[1:]))
            if flight.via == "checkpoint":
                # Tokens up to the fork were decoded once and cloned, not
                # re-decoded — only post-fork duplicates are waste.
                waste = max(0, waste - flight.fork_len)
            report.hedge_waste_tokens += waste
            del run.hedges[rid]

    def _find_result(self, run: _Run, rid: str, take: bool = False,
                     ) -> FunctionalRequestResult | None:
        """``rid``'s terminal result on an alive replica or in a retired
        report, removed from there when ``take`` (``None`` if none yet)."""
        for i in run.alive_ids():
            session = run.sessions[i]
            for result in session.report.results:
                if result.request.request_id == rid:
                    return session.harvest_result(rid) if take else result
        for rep in run.retired:
            for idx, result in enumerate(rep.results):
                if result.request.request_id == rid:
                    return rep.results.pop(idx) if take else result
        return None

    def _discard_copy(self, run: _Run, rid: str) -> int:
        """Cancel the losing copy of a hedged pair; returns its decoded tokens.

        The copy may have already finished (take its result), still be live
        on a replica (extract — releases its KV pages), or be sitting in the
        requeue after its replica crashed (drop it there).
        """
        result = self._find_result(run, rid, take=True)
        if result is not None:
            return len(result.generated_tokens)
        for i in run.alive_ids():
            extracted = run.sessions[i].extract_request(rid)
            if extracted is not None:
                return len(extracted[0].generated)
        for idx, state in enumerate(run.requeue):
            if state.request_id == rid:
                del run.requeue[idx]
                return len(state.generated)
        return 0

    def _supervise(self, run: _Run) -> None:
        """Health supervision and circuit breakers from this round's outcomes.

        Retries inside the sliding window or an active straggler slowdown
        demote a replica to DEGRADED; a clean window restores HEALTHY.
        """
        for i in run.alive_ids():
            retries = run.sessions[i].report.n_retries
            delta = retries - run.last_retries[i]
            run.retry_hist[i].append(delta)
            run.last_retries[i] = retries
            degraded = (sum(run.retry_hist[i]) >= DEGRADE_ERRORS
                        or self._slowdown(i, run.step) >= DEGRADE_SLOWDOWN)
            run.set_health(i, ReplicaHealth.DEGRADED if degraded
                           else ReplicaHealth.HEALTHY)
            if run.breakers[i] is not None:
                run.log_breaker(i, run.breakers[i].record(delta, run.step))

    def _check_conservation(self, run: _Run) -> None:
        """Assert every submitted request is tracked exactly once.

        Conservation of requests across the whole cluster: each request must
        be pending, deferred by admission, requeued, live inside exactly one
        replica, or terminal in exactly one report (replica, retired
        pre-crash, or cluster-level shed/timeout/cancel) — never lost, never
        duplicated.  Hedge duplicates (``~hedge`` ids) are transient and not
        in ``run.seen``; the duplicate check still covers them.
        """
        live = [*run.pending, *run.deferred, *run.requeue]
        results = list(run.report.cluster_results)
        for rep in run.retired:
            results += rep.results
        for session in run.sessions:
            live += session.scheduler.live_states()
            results += session.report.results
        counts = Counter([item.request_id for item in live]
                         + [result.request.request_id for result in results])
        duplicated = sorted(rid for rid, n in counts.items() if n > 1)
        assert not duplicated, f"requests tracked twice: {duplicated}"
        missing = sorted(run.seen - counts.keys())
        assert not missing, f"requests lost: {missing}"


__all__ = [
    "DEGRADE_ERRORS",
    "DEGRADE_SLOWDOWN",
    "HEALTH_WINDOW",
    "ClusterEngine",
    "ClusterReport",
    "LeastLoadedRouter",
    "MigrationPolicy",
    "PrefixDigest",
    "RadixAffinityRouter",
    "ReplicaHealth",
    "ReplicaView",
    "RoundRobinRouter",
    "Router",
    "resolve_migration",
    "resolve_router",
]

"""In-memory span tracer and the per-layer probes of the traced benchmark run.

The probes wrap public methods of each serving layer's classes from this
file, for the duration of one ``with installed(tracer):`` block; nothing
under ``src/`` knows it is being traced.  A span is ``(name, start, end,
parent, request id)``; spans of one request (KV-manager calls that take a
sequence state) carry that request's id.  Spans stay in memory and are
written out once, as gzip-compressed Chrome trace-event JSON, after the run.

A span's *self time* is its duration minus the durations of its direct
children.  Calls are nested on one thread, so the self times of every span
under a root sum to the root's duration.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from repro.core.kv_cache import AERPCache
from repro.core.kv_pool import KVPagePool
from repro.core.refresh import KVFaultInjector
from repro.llm.model import DecoderLM
from repro.serve.cluster import ClusterEngine
from repro.serve.engine import FunctionalSession
from repro.serve.executor import ModelExecutor
from repro.serve.kv_manager import KVSpaceManager
from repro.serve.radix import RadixPrefixIndex
from repro.serve.scheduler import Scheduler

_MISSING = object()


class Tracer:
    """Spans in parallel lists plus the counters the probes' hooks keep."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.rids: list[str | None] = []
        self._stack: list[int] = [-1]
        self.counts: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = defaultdict(float)
        #: request id -> clock (engine step or cluster round) of first admission.
        self.admit_clock: dict[str, int] = {}
        #: recompute-format share of each AERP cache, sampled at release.
        self.recompute_fracs: list[float] = []

    def open(self, name: str, rid: str | None = None) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.rids.append(rid)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        index = self.open(name)
        try:
            yield index
        finally:
            self.close(index)

    # -- analysis --------------------------------------------------------
    def durations(self) -> np.ndarray:
        return np.asarray(self.ends) - np.asarray(self.starts)

    def self_times(self) -> np.ndarray:
        durations = self.durations()
        covered = np.zeros_like(durations)
        parents = np.asarray(self.parents, dtype=np.int64)
        has_parent = parents >= 0
        np.add.at(covered, parents[has_parent], durations[has_parent])
        return durations - covered

    def by_name(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive busy seconds, self seconds.

        Busy time counts only the outermost span of a name, so a call that
        re-enters itself is not counted twice.
        """
        durations, selfs = self.durations(), self.self_times()
        table: dict[str, dict[str, float]] = defaultdict(
            lambda: {"count": 0, "busy_s": 0.0, "self_s": 0.0})
        names, parents = self.names, self.parents
        for i, name in enumerate(names):
            row = table[name]
            row["count"] += 1
            row["self_s"] += float(selfs[i])
            parent = parents[i]
            while parent >= 0 and names[parent] != name:
                parent = parents[parent]
            if parent < 0:
                row["busy_s"] += float(durations[i])
        return table

    def by_layer(self) -> dict[str, float]:
        """Self seconds per layer (the span-name prefix before the first dot)."""
        layers: dict[str, float] = defaultdict(float)
        for name, selfs in zip(self.names, self.self_times()):
            layers[name.split(".", 1)[0]] += float(selfs)
        return dict(layers)

    def write_chrome(self, path: Path) -> None:
        """Write every span as a Chrome trace-event ``X`` event (microseconds),
        gzip-compressed (Perfetto and chrome://tracing open it as is)."""
        if not self.names:
            return
        origin = min(self.starts)
        events = []
        for i, name in enumerate(self.names):
            args = {"parent": self.parents[i]}
            if self.rids[i] is not None:
                args["rid"] = self.rids[i]
            events.append({"name": name, "cat": name.split(".", 1)[0], "ph": "X",
                           "ts": round((self.starts[i] - origin) * 1e6, 3),
                           "dur": round((self.ends[i] - self.starts[i]) * 1e6, 3),
                           "pid": 0, "tid": 0, "args": args})
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            json.dump({"traceEvents": events}, out)


# -- probe hooks (run after the wrapped call returns) --------------------
Hook = Callable[[Tracer, tuple, dict, object], None]


def _dense_flops_per_token(config) -> float:
    """Matmul FLOPs of one token through every layer plus the LM head."""
    d, ff = config.d_model, config.d_ff
    mlp = (3 if config.mlp == "gated" else 2) * d * ff
    return 2.0 * (config.n_layers * (4 * d * d + mlp) + d * config.vocab_size)


def _on_session_step(tracer: Tracer, args, kwargs, result) -> None:
    session: FunctionalSession = args[0]
    if not result:
        return
    kv = session.kv
    if kv.bounded:
        frac = kv.used_tokens / kv.capacity_tokens
        tracer.peaks["kv_manager.peak_used_frac"] = max(
            tracer.peaks["kv_manager.peak_used_frac"], frac)
    pools = getattr(kv.cache_factory, "pools", None)
    if pools:
        pages = sum(pool.n_pages - pool.n_free for pool in pools)
        tracer.peaks["kv_pool.peak_pages"] = max(tracer.peaks["kv_pool.peak_pages"],
                                                 pages)


def _on_admit(tracer: Tracer, args, kwargs, result) -> None:
    clock = kwargs.get("clock")
    for state in result:
        tracer.admit_clock.setdefault(state.request_id, clock)


def _on_reserve(tracer: Tracer, args, kwargs, result) -> None:
    if not result:
        tracer.counts["kv_manager.reserve_fails"] += 1


def _on_radix_insert(tracer: Tracer, args, kwargs, result) -> None:
    if result and args[2]:
        tracer.counts["radix.inserted"] += 1


def _radix_insert_name(args) -> str:
    # The router's prefix digest is a payload-free radix index: its inserts
    # are routing work, not KV-side radix work.
    return "radix.insert" if args[2] else "router.digest_insert"


def _on_radix_evict(tracer: Tracer, args, kwargs, result) -> None:
    if result:
        tracer.counts["radix.evicted"] += 1


def _on_prefill_batch(tracer: Tracer, args, kwargs, result) -> None:
    lm: DecoderLM = args[0]
    per_token = _dense_flops_per_token(lm.config)
    attn = 4.0 * lm.config.d_model * lm.config.n_layers
    for tokens in args[1]:
        n = len(tokens)
        tracer.counts["model.prefill_tokens"] += n
        tracer.counts["model.flop"] += per_token * n + attn * n * (n + 1) / 2


def _on_prefill_chunk(tracer: Tracer, args, kwargs, result) -> None:
    lm: DecoderLM = args[0]
    n, position = len(args[1]), args[2]
    attn = 4.0 * lm.config.d_model * lm.config.n_layers
    tracer.counts["model.prefill_tokens"] += n
    tracer.counts["model.flop"] += (_dense_flops_per_token(lm.config) * n
                                    + attn * (n * position + n * (n + 1) / 2))


def _on_decode(tracer: Tracer, args, kwargs, result) -> None:
    lm: DecoderLM = args[0]
    caches_batch = args[3]
    attn = 4.0 * lm.config.d_model * lm.config.n_layers
    attended = sum(caches[0].num_tokens for caches in caches_batch)
    tracer.counts["model.decode_tokens"] += len(caches_batch)
    tracer.counts["model.flop"] += (_dense_flops_per_token(lm.config)
                                    * len(caches_batch) + attn * attended)


def _on_gather(tracer: Tracer, args, kwargs, result) -> None:
    pool: KVPagePool = args[0]
    pages = args[1].size
    written = 2 * pool.n_heads * pool.page_tokens * pool.head_dim * 4
    tracer.counts["kv_pool.gather_bytes"] += pages * (pool.bytes_per_page + written)


def _on_aerp_release(tracer: Tracer, args, kwargs, result) -> None:
    tracer.recompute_fracs.append(args[0].recompute_fraction)


#: (class, method, span name, per-request?, hook).  One row per layer call
#: the traced run times; the span name's prefix is the layer.  A callable
#: name picks the span name from the call's arguments.
PROBES: list[tuple[type, str, str | Callable[[tuple], str], bool, Hook | None]] = [
    (ClusterEngine, "run", "cluster.run", False, None),
    (FunctionalSession, "step", "engine.step", False, _on_session_step),
    (Scheduler, "admit", "scheduler.admit", False, _on_admit),
    (Scheduler, "plan", "scheduler.plan", False, None),
    (Scheduler, "retire_finished", "scheduler.retire_finished", False, None),
    (KVSpaceManager, "reserve", "kv_manager.reserve", True, _on_reserve),
    (KVSpaceManager, "resolve_caches", "kv_manager.resolve_caches", False, None),
    (KVSpaceManager, "snapshot", "kv_manager.snapshot", True, None),
    (KVSpaceManager, "release", "kv_manager.release", True, None),
    (KVSpaceManager, "sync", "kv_manager.sync", True, None),
    (KVSpaceManager, "check_accounting", "kv_manager.check_accounting", False, None),
    (RadixPrefixIndex, "match", "radix.match", False, None),
    (RadixPrefixIndex, "insert", _radix_insert_name, False, _on_radix_insert),
    (RadixPrefixIndex, "evict_lru", "radix.evict_lru", False, _on_radix_evict),
    (ModelExecutor, "prefill_whole", "executor.prefill_whole", False, None),
    (ModelExecutor, "prefill_chunks", "executor.prefill_chunks", False, None),
    (ModelExecutor, "decode_step", "executor.decode_step", False, None),
    (DecoderLM, "prefill_batch", "model.prefill_batch", False, _on_prefill_batch),
    (DecoderLM, "prefill_chunk", "model.prefill_chunk", False, _on_prefill_chunk),
    (DecoderLM, "decode_step_batch", "model.decode_step_batch", False, _on_decode),
    (KVPagePool, "gather_pages", "kv_pool.gather_pages", False, _on_gather),
    (KVPagePool, "scatter_tokens", "kv_pool.scatter_tokens", False, None),
    (AERPCache, "observe_attention", "aerp.observe_attention", False, None),
    (AERPCache, "fetch", "aerp.fetch", False, None),
    (AERPCache, "append", "aerp.append", False, None),
    (AERPCache, "end_step", "aerp.end_step", False, None),
    (AERPCache, "release", "aerp.release", False, _on_aerp_release),
    (KVFaultInjector, "corrupt", "refresh.corrupt", False, None),
]


def _wrap(tracer: Tracer, fn: Callable, name: str | Callable[[tuple], str],
          per_request: bool, hook: Hook | None) -> Callable:
    open_span, close_span = tracer.open, tracer.close
    name_of = name if callable(name) else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = open_span(name if name_of is None else name_of(args),
                          args[1].request_id if per_request else None)
        try:
            result = fn(*args, **kwargs)
        finally:
            close_span(index)
        if hook is not None:
            hook(tracer, args, kwargs, result)
        return result

    return traced


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every probe's method for the duration of the block, then restore."""
    saved = []
    try:
        for cls, attr, name, per_request, hook in PROBES:
            saved.append((cls, attr, cls.__dict__.get(attr, _MISSING)))
            setattr(cls, attr, _wrap(tracer, getattr(cls, attr), name, per_request, hook))
        yield tracer
    finally:
        for cls, attr, original in reversed(saved):
            if original is _MISSING:
                delattr(cls, attr)
            else:
                setattr(cls, attr, original)


def trace_router(tracer: Tracer, cluster: ClusterEngine) -> None:
    """Time the cluster's router (a per-instance policy object)."""
    router = cluster.router
    router.route = _wrap(tracer, router.route, "router.route", False, None)

"""Algorithmic KV-cache eviction baselines: StreamingLLM, H2O and random.

These are the methods Kelle is compared against in Table 2 of the paper:

* **StreamingLLM** keeps the attention-sink tokens at the start of the
  sequence plus a window of the most recent tokens; everything else is
  dropped as soon as it leaves the window.
* **H2O** keeps "heavy hitter" tokens with the highest accumulated attention
  scores plus the recent window.  Unlike AERP it evicts the *same* token from
  every head (scores are summed over heads) and never recomputes.
* **Random eviction** is a sanity-check baseline that evicts a uniformly
  random unprotected token; it lower-bounds what an importance-aware policy
  should achieve.
"""

from __future__ import annotations

import numpy as np

from repro.llm.cache import ContiguousKVStore, KVCacheFactory, LayerKVCache, RecomputeFn
from repro.registry import register
from repro.utils.rng import derive_rng


class _SharedSlotCache(LayerKVCache):
    """Common machinery for policies whose token set is shared across heads.

    K/V slots live in a :class:`ContiguousKVStore`; positions and accumulated
    scores live in parallel preallocated arrays, so prefill bulk-writes whole
    context blocks, ``fetch`` returns zero-copy views and eviction is one
    vectorised tail shift per victim.
    """

    def __init__(self, n_heads: int, head_dim: int, d_model: int, budget: int,
                 sink_tokens: int, recent_window: int) -> None:
        super().__init__(n_heads, head_dim, d_model)
        if budget <= sink_tokens:
            raise ValueError("budget must exceed the number of sink tokens")
        self.budget = budget
        self.sink_tokens = sink_tokens
        self.recent_window = recent_window
        self._store = ContiguousKVStore(n_heads, head_dim, initial_capacity=max(8, budget))
        self._positions_buf = np.empty(self._store.capacity, dtype=np.int64)
        self._scores_buf = np.zeros(self._store.capacity, dtype=np.float64)
        self._current_position = -1
        self._last_slot_count = 0
        self.eviction_count = 0

    # -- back-compat views ---------------------------------------------------
    @property
    def _positions(self) -> list[int]:
        """Live slot positions as a plain list (kept for introspection)."""
        return self._positions_buf[:len(self._store)].tolist()

    @property
    def _scores(self) -> list[float]:
        """Live accumulated attention scores as a plain list."""
        return self._scores_buf[:len(self._store)].tolist()

    # -- policy hook ---------------------------------------------------------
    def _select_victim(self, eligible: np.ndarray) -> int:
        """Pick one slot from the ascending ``eligible`` slot indices."""
        raise NotImplementedError

    # -- helpers ---------------------------------------------------------------
    def _eligible_slots(self) -> np.ndarray:
        positions = self._positions_buf[:len(self._store)]
        unprotected = (positions >= self.sink_tokens) & (
            positions <= self._current_position - self.recent_window)
        eligible = np.nonzero(unprotected)[0]
        if eligible.size == 0:
            eligible = np.nonzero(positions >= self.sink_tokens)[0]
        if eligible.size == 0:
            eligible = np.arange(positions.size)
        return eligible

    def _evict_if_needed(self) -> None:
        while len(self._store) >= self.budget:
            victim = self._select_victim(self._eligible_slots())
            count = len(self._store)
            self._store.delete_slot(victim)
            self._positions_buf[victim:count - 1] = self._positions_buf[victim + 1:count]
            self._scores_buf[victim:count - 1] = self._scores_buf[victim + 1:count]
            self.eviction_count += 1

    def _reserve_meta(self) -> None:
        """Grow the position/score arrays alongside the K/V store."""
        capacity = self._store.capacity
        if self._positions_buf.size < capacity:
            grown_pos = np.empty(capacity, dtype=np.int64)
            grown_pos[:self._positions_buf.size] = self._positions_buf
            grown_scores = np.zeros(capacity, dtype=np.float64)
            grown_scores[:self._scores_buf.size] = self._scores_buf
            self._positions_buf = grown_pos
            self._scores_buf = grown_scores

    def _insert(self, key: np.ndarray, value: np.ndarray, position: int, score: float) -> None:
        slot = self._store.append(key, value)
        self._reserve_meta()
        self._positions_buf[slot] = int(position)
        self._scores_buf[slot] = float(score)

    # -- LayerKVCache interface ------------------------------------------------
    def prefill(self, keys: np.ndarray, values: np.ndarray, inputs: np.ndarray,
                attn_probs: np.ndarray) -> None:
        del inputs
        keys = np.asarray(keys, dtype=np.float32)
        values = np.asarray(values, dtype=np.float32)
        n_ctx = keys.shape[1]
        self._current_position = n_ctx - 1
        importance = np.asarray(attn_probs, dtype=np.float64).sum(axis=(0, 1))  # [N]
        n = 0
        while n < n_ctx:
            # Tokens inserted while the cache is below budget trigger no
            # eviction, so they can be written as one contiguous block.
            chunk = min(n_ctx - n, self.budget - len(self._store))
            if chunk > 0:
                start = len(self._store)
                self._store.extend(keys[:, n:n + chunk], values[:, n:n + chunk])
                self._reserve_meta()
                self._positions_buf[start:start + chunk] = np.arange(n, n + chunk)
                self._scores_buf[start:start + chunk] = importance[n:n + chunk]
                n += chunk
            else:
                self._evict_if_needed()

    def append(self, key: np.ndarray, value: np.ndarray, x: np.ndarray, position: int) -> None:
        del x
        self._current_position = max(self._current_position, position)
        self._evict_if_needed()
        self._insert(key, value, position, 0.0)

    def fetch(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        keys, values = self._store.view()
        self._last_slot_count = keys.shape[1]
        return keys, values, self._store.valid_view()

    def observe_attention(self, probs: np.ndarray) -> None:
        summed = np.asarray(probs, dtype=np.float64).sum(axis=0)  # over heads
        m = min(self._last_slot_count, len(self._store))
        self._scores_buf[:m] += summed[:m]

    @property
    def num_tokens(self) -> int:
        return len(self._store)

    def stored_bytes(self, bits_per_element: int = 16) -> int:
        elements = 2 * len(self._store) * self.n_heads * self.head_dim
        return elements * bits_per_element // 8


class StreamingLLMCache(_SharedSlotCache):
    """Sink + recent-window policy (StreamingLLM).  Evicts the oldest non-sink token."""

    def _select_victim(self, eligible: np.ndarray) -> int:
        return int(eligible[np.argmin(self._positions_buf[eligible])])


class H2OCache(_SharedSlotCache):
    """Heavy-hitter oracle: evicts the token with the lowest accumulated score."""

    def _select_victim(self, eligible: np.ndarray) -> int:
        return int(eligible[np.argmin(self._scores_buf[eligible])])


class RandomEvictionCache(_SharedSlotCache):
    """Evicts a uniformly random unprotected token (sanity-check baseline)."""

    def __init__(self, n_heads: int, head_dim: int, d_model: int, budget: int,
                 sink_tokens: int, recent_window: int, seed: int = 0) -> None:
        super().__init__(n_heads, head_dim, d_model, budget, sink_tokens, recent_window)
        self._rng = derive_rng(seed, "random-eviction")

    def _select_victim(self, eligible: np.ndarray) -> int:
        return int(self._rng.choice(eligible))


@register("cache", "streaming_llm", "streaming-llm", "slm",
          description="attention sinks + recent window (StreamingLLM)")
def _build_streaming_llm(budget: int = 512, sink_tokens: int = 10,
                         recent_window: int | None = None) -> KVCacheFactory:
    """StreamingLLM factory; by default the window fills the whole budget."""
    window = recent_window if recent_window is not None else max(1, budget - sink_tokens)

    def factory(layer_index: int, n_heads: int, head_dim: int, d_model: int,
                recompute_fn: RecomputeFn) -> LayerKVCache:
        del layer_index, recompute_fn
        return StreamingLLMCache(n_heads, head_dim, d_model, budget, sink_tokens, window)

    return factory


@register("cache", "h2o", description="heavy-hitter oracle eviction (H2O)")
def _build_h2o(budget: int = 512, sink_tokens: int = 10,
               recent_window: int = 64) -> KVCacheFactory:
    """H2O heavy-hitter factory."""

    def factory(layer_index: int, n_heads: int, head_dim: int, d_model: int,
                recompute_fn: RecomputeFn) -> LayerKVCache:
        del layer_index, recompute_fn
        return H2OCache(n_heads, head_dim, d_model, budget, sink_tokens, recent_window)

    return factory


@register("cache", "random", description="uniform random eviction (sanity baseline)")
def _build_random(budget: int = 512, sink_tokens: int = 10, recent_window: int = 64,
                  seed: int = 0) -> KVCacheFactory:
    """Random-eviction factory (per-layer derived seeds)."""

    def factory(layer_index: int, n_heads: int, head_dim: int, d_model: int,
                recompute_fn: RecomputeFn) -> LayerKVCache:
        del recompute_fn
        return RandomEvictionCache(n_heads, head_dim, d_model, budget, sink_tokens, recent_window,
                                   seed=seed + layer_index)

    return factory

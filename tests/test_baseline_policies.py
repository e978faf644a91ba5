"""Tests for the baseline KV-cache policies (StreamingLLM, H2O, random, quantized)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.eviction import H2OCache, RandomEvictionCache, StreamingLLMCache
from repro.baselines.quant_kv import QuantizedKVCache
from repro.llm.generation import generate
from repro.registry import resolve


def _fill(cache, n_tokens, rng, scores=None):
    for position in range(n_tokens):
        key = rng.standard_normal((cache.n_heads, cache.head_dim)).astype(np.float32)
        value = rng.standard_normal((cache.n_heads, cache.head_dim)).astype(np.float32)
        cache.append(key, value, np.zeros(cache.d_model, dtype=np.float32), position)
        keys, values, valid = cache.fetch()
        n = keys.shape[1]
        probs = np.full((cache.n_heads, n), 1.0 / n)
        if scores is not None:
            probs = np.tile(scores(position, n), (cache.n_heads, 1))
        cache.observe_attention(probs)


class TestStreamingLLM:
    def test_keeps_sinks_and_recent_window(self, rng):
        cache = StreamingLLMCache(2, 4, 8, budget=8, sink_tokens=2, recent_window=5)
        _fill(cache, 30, rng)
        positions = sorted(cache._positions)
        assert cache.num_tokens <= 8
        assert 0 in positions and 1 in positions  # sinks
        assert positions[-1] == 29  # newest token kept

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            StreamingLLMCache(2, 4, 8, budget=2, sink_tokens=2, recent_window=2)


class TestH2O:
    def test_keeps_heavy_hitters(self, rng):
        cache = H2OCache(2, 4, 8, budget=6, sink_tokens=1, recent_window=2)

        def scores(position, n):
            # Token at position 3 always receives all the attention mass.
            row = np.full(n, 1e-4)
            if n > 3:
                row[3] = 1.0
            return row / row.sum()

        _fill(cache, 20, rng, scores=scores)
        assert 3 in cache._positions
        assert cache.num_tokens <= 6

    def test_eviction_counts(self, rng):
        cache = H2OCache(2, 4, 8, budget=5, sink_tokens=1, recent_window=2)
        _fill(cache, 12, rng)
        assert cache.eviction_count == 12 - cache.num_tokens


class TestRandomEviction:
    def test_budget_and_determinism(self, rng):
        cache_a = RandomEvictionCache(2, 4, 8, budget=6, sink_tokens=1, recent_window=2, seed=3)
        cache_b = RandomEvictionCache(2, 4, 8, budget=6, sink_tokens=1, recent_window=2, seed=3)
        _fill(cache_a, 15, np.random.default_rng(0))
        _fill(cache_b, 15, np.random.default_rng(0))
        assert cache_a._positions == cache_b._positions
        assert cache_a.num_tokens <= 6


class TestQuantizedCaches:
    def test_storage_bytes_scale_with_bits(self, rng):
        kivi = QuantizedKVCache(2, 8, 16, bits=2)
        quarot = QuantizedKVCache(2, 8, 16, bits=4, use_hadamard=True)
        for cache in (kivi, quarot):
            _fill(cache, 10, rng)
        assert kivi.stored_bytes() == quarot.stored_bytes() // 2
        assert kivi.num_tokens == 10

    def test_roundtrip_error_decreases_with_bits(self, rng):
        key = rng.standard_normal((2, 8)).astype(np.float32)
        low = QuantizedKVCache(2, 8, 16, bits=2)._roundtrip(key)
        high = QuantizedKVCache(2, 8, 16, bits=8)._roundtrip(key)
        assert np.abs(high - key).mean() < np.abs(low - key).mean()

    def test_hadamard_requires_power_of_two_head_dim(self):
        with pytest.raises(ValueError):
            QuantizedKVCache(2, 12, 24, bits=4, use_hadamard=True)

    def test_8bit_quantized_cache_nearly_matches_full_cache(self, small_model, rng):
        prompt = rng.integers(0, small_model.config.vocab_size, size=10).tolist()
        reference = generate(small_model, prompt, 6, cache_factory=None)
        quantized = generate(small_model, prompt, 6,
                             cache_factory=lambda *a, **k: QuantizedKVCache(
                                 small_model.config.n_heads, small_model.config.head_dim,
                                 small_model.config.d_model, bits=8))
        assert reference.generated_tokens == quantized.generated_tokens


class TestFactoriesWithModel:
    @pytest.mark.parametrize("factory_builder", [
        lambda: resolve("cache", "streaming_llm:budget=16,sink_tokens=2"),
        lambda: resolve("cache", "h2o:budget=16,sink_tokens=2,recent_window=4"),
        lambda: resolve("cache", "random:budget=16,sink_tokens=2,recent_window=4"),
        lambda: resolve("cache", "kivi:bits=2"),
        lambda: resolve("cache", "quarot:bits=4"),
    ])
    def test_generation_runs_under_every_policy(self, small_model, rng, factory_builder):
        prompt = rng.integers(0, small_model.config.vocab_size, size=20).tolist()
        result = generate(small_model, prompt, 12, cache_factory=factory_builder())
        assert len(result.generated_tokens) == 12
        assert all(0 <= t < small_model.config.vocab_size for t in result.generated_tokens)
        assert result.caches[0].num_tokens <= 32

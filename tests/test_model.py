"""Tests for the DecoderLM model: shapes, decode consistency, variants."""

from __future__ import annotations

import numpy as np
import pytest

from repro.llm.cache import FullKVCache
from repro.llm.config import FULL_SIZE_CONFIGS, ModelConfig, get_config, tiny_config
from repro.llm.generation import generate
from repro.llm.model import DecoderLM
from repro.registry import resolve


class TestModelConfig:
    def test_full_size_param_counts_in_expected_range(self):
        """Parameter counts of the shape configs should land near the model names."""
        expectations = {
            "llama2-7b": (6e9, 8e9),
            "llama2-13b": (12e9, 14.5e9),
            "llama3.2-3b": (2.5e9, 4e9),
            "mistral-7b": (6.5e9, 8e9),
            "opt-6.7b": (6e9, 7.5e9),
        }
        for name, (low, high) in expectations.items():
            params = FULL_SIZE_CONFIGS[name].total_params()
            assert low < params < high, f"{name}: {params:.2e}"

    def test_kv_bytes_per_token(self):
        config = get_config("llama2-7b")
        # 2 vectors x 4096 channels x 2 bytes x 32 layers = 1 MiB per token.
        assert config.kv_bytes_per_token(bits=16) == 2 * 4096 * 2 * 32
        assert config.kv_bytes_per_token_per_layer(bits=16) == 2 * 4096 * 2

    def test_gqa_reduces_kv_footprint(self):
        llama2 = get_config("llama2-7b")
        mistral = get_config("mistral-7b")
        assert mistral.kv_bytes_per_token_per_layer() < llama2.kv_bytes_per_token_per_layer()

    def test_decode_macs_grow_with_context(self):
        config = get_config("llama2-7b")
        assert config.decode_macs_per_token(4096) > config.decode_macs_per_token(128)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig("bad", 2, 30, 4, 64, 100)  # d_model not divisible by heads
        with pytest.raises(ValueError):
            ModelConfig("bad", 2, 32, 4, 64, 100, norm="weird")
        with pytest.raises(ValueError):
            ModelConfig("bad", 2, 32, 4, 64, 100, n_kv_heads=3)

    def test_get_config_lookup(self):
        assert get_config("tiny-llama2-7b").n_layers >= 2
        with pytest.raises(KeyError):
            get_config("nonexistent-model")


class TestDecoderLM:
    def test_parameter_shapes(self, small_model):
        config = small_model.config
        assert small_model.params["embed.weight"].shape == (config.vocab_size, config.d_model)
        assert small_model.params["layers.0.wq"].shape == (config.d_model, config.d_model)
        assert small_model.num_params() > 0

    def test_forward_full_shapes(self, small_model, rng):
        tokens = rng.integers(0, small_model.config.vocab_size, size=12)
        logits = small_model.forward_full(tokens)
        assert logits.shape == (12, small_model.config.vocab_size)
        batched = small_model.forward_full(np.stack([tokens, tokens]))
        assert batched.shape == (2, 12, small_model.config.vocab_size)
        np.testing.assert_allclose(batched[0], logits, atol=1e-5)

    def test_prefill_matches_full_forward(self, small_model, rng):
        tokens = rng.integers(0, small_model.config.vocab_size, size=10)
        caches = small_model.make_caches()
        logits = small_model.prefill_batch([tokens], [caches])[0]
        reference = small_model.forward_full(tokens)[-1]
        np.testing.assert_allclose(logits, reference, atol=1e-4)

    def test_incremental_decode_matches_full_forward(self, small_model, rng):
        tokens = rng.integers(0, small_model.config.vocab_size, size=16)
        caches = small_model.make_caches()
        logits = small_model.prefill_batch([tokens[:6]], [caches])[0]
        for position, token in enumerate(tokens[6:], start=6):
            logits = small_model.decode_step_batch([int(token)], [position], [caches])[0]
        reference = small_model.forward_full(tokens)[-1]
        np.testing.assert_allclose(logits, reference, atol=1e-3)

    def test_opt_style_decode_matches_full_forward(self, opt_style_model, rng):
        tokens = rng.integers(0, opt_style_model.config.vocab_size, size=12)
        caches = opt_style_model.make_caches()
        logits = opt_style_model.prefill_batch([tokens[:5]], [caches])[0]
        for position, token in enumerate(tokens[5:], start=5):
            logits = opt_style_model.decode_step_batch([int(token)], [position], [caches])[0]
        reference = opt_style_model.forward_full(tokens)[-1]
        np.testing.assert_allclose(logits, reference, atol=1e-3)

    def test_full_cache_tracks_tokens_and_bytes(self, small_model, rng):
        tokens = rng.integers(0, small_model.config.vocab_size, size=8)
        caches = small_model.make_caches()
        small_model.prefill_batch([tokens], [caches])
        cache = caches[0]
        assert isinstance(cache, FullKVCache)
        assert cache.num_tokens == 8
        expected = 2 * 8 * small_model.config.n_heads * small_model.config.head_dim * 2
        assert cache.stored_bytes(16) == expected

    def test_recompute_fn_matches_stored_projection(self, small_model, rng):
        tokens = rng.integers(0, small_model.config.vocab_size, size=6)
        caches = small_model.make_caches()
        small_model.prefill_batch([tokens], [caches])
        # Recomputing the K/V of the last prefill position from the block input
        # must reproduce what the attention layer computed.
        config = small_model.config
        hidden = small_model._embed(np.asarray(tokens)[None, :])[0]
        normed = small_model._norm(hidden, "layers.0.attn_norm")
        recompute = small_model.recompute_fn(0)
        k, v = recompute(normed[3], 3)
        keys, values = small_model._project_kv(normed, 0, np.arange(6))
        np.testing.assert_allclose(k, keys[:, 3, :], atol=1e-5)
        np.testing.assert_allclose(v, values[:, 3, :], atol=1e-5)
        assert k.shape == (config.n_heads, config.head_dim)

    def test_gqa_config_not_instantiable(self):
        with pytest.raises(ValueError):
            DecoderLM(get_config("mistral-7b"))

    def test_deterministic_initialisation(self):
        config = tiny_config("det", vocab_size=32)
        a = DecoderLM(config, seed=3)
        b = DecoderLM(config, seed=3)
        np.testing.assert_array_equal(a.params["layers.0.wq"], b.params["layers.0.wq"])
        c = DecoderLM(config, seed=4)
        assert not np.allclose(a.params["layers.0.wq"], c.params["layers.0.wq"])


def _sharpened(model):
    """Q/K weights scaled up: attention over a random init is nearly uniform,
    which would hide a wrong position or a dropped prefix."""
    return model.copy_with_params({name: value * 8 if name.endswith((".wq", ".wk")) else value
                                   for name, value in model.params.items()})


def _greedy_oracle(model, prompt, n_tokens):
    """Greedy continuation by re-running the cache-free forward every step."""
    tokens = list(prompt)
    for _ in range(n_tokens):
        tokens.append(int(np.argmax(model.forward_full(np.asarray(tokens))[-1])))
    return tokens[len(prompt):]


class TestCacheFreeOracle:
    """The cached forwards against ``forward_full``, which keeps no cache."""

    @pytest.mark.parametrize("model_name", ["small_model", "opt_style_model"])
    @pytest.mark.parametrize("spec", ["full", "paged:page_tokens=4"])
    def test_greedy_generate_matches_forward_full(self, request, rng, model_name, spec):
        model = _sharpened(request.getfixturevalue(model_name))
        prompt = rng.integers(0, model.config.vocab_size, size=9).tolist()
        result = generate(model, prompt, 12, cache_factory=resolve("cache", spec))
        assert result.generated_tokens == _greedy_oracle(model, prompt, 12)

    @pytest.mark.parametrize("model_name", ["small_model", "opt_style_model"])
    @pytest.mark.parametrize("spec", ["full", "paged:page_tokens=4"])
    def test_verify_rows_match_forward_full(self, request, rng, model_name, spec):
        model = _sharpened(request.getfixturevalue(model_name))
        tokens = rng.integers(0, model.config.vocab_size, size=17)
        caches = model.make_caches(resolve("cache", spec))
        model.prefill_batch([tokens[:6]], [caches])
        first = model.verify_chunk_batch([tokens[6:11]], [6], [caches])[0]
        # The second chunk attends to the first one's freshly extended K/V.
        second = model.verify_chunk_batch([tokens[11:]], [11], [caches])[0]
        reference = model.forward_full(tokens)
        np.testing.assert_allclose(first, reference[6:11], atol=1e-3)
        np.testing.assert_allclose(second, reference[11:], atol=1e-3)


KELLE_SPEC = "kelle:budget=8,sink_tokens=2,recent_window=3,refresh=none"


def _cache_state(caches):
    return [[np.array(part) for part in cache.fetch()] for cache in caches]


class TestChunkForwardEdgeCases:
    """Pins the row rules of the one ragged chunk forward."""

    def test_mixed_prefill_and_verify_rows_match_separate_calls(self, small_model, rng):
        vocab = small_model.config.vocab_size
        fresh = rng.integers(0, vocab, size=10).tolist()
        prefix = rng.integers(0, vocab, size=7).tolist()
        chunk = rng.integers(0, vocab, size=4).tolist()

        def fresh_kelle():
            return small_model.make_caches(resolve("cache", KELLE_SPEC))

        def full_with_prefix():
            caches = small_model.make_caches()
            small_model.prefill_batch([prefix], [caches])
            return caches

        mixed = [fresh_kelle(), full_with_prefix()]
        rows = small_model.verify_chunk_batch([fresh, chunk], [0, len(prefix)], mixed)
        alone = [fresh_kelle(), full_with_prefix()]
        singles = [small_model.verify_chunk_batch([fresh], [0], [alone[0]])[0],
                   small_model.verify_chunk_batch([chunk], [len(prefix)], [alone[1]])[0]]
        for row, single, caches, caches_alone in zip(rows, singles, mixed, alone):
            np.testing.assert_allclose(row, single, atol=1e-4)
            for got, want in zip(_cache_state(caches), _cache_state(caches_alone)):
                for a, b in zip(got, want):
                    np.testing.assert_allclose(a, b, atol=1e-5)
        # The kelle row went through the cache's own prefill: the budget holds.
        assert all(cache.num_tokens <= 8 for cache in mixed[0])
        np.testing.assert_allclose(
            rows[0][-1], small_model.prefill_batch([fresh], [fresh_kelle()])[0], atol=1e-4)

    def test_prefill_into_caches_holding_tokens_raises(self, small_model):
        caches = small_model.make_caches()
        small_model.prefill_batch([[1, 2, 3]], [caches])
        with pytest.raises(ValueError, match="hold 3 tokens"):
            small_model.prefill_batch([[4, 5]], [caches])

    def test_position_mismatch_raises(self, small_model):
        caches = small_model.make_caches()
        small_model.prefill_batch([[1, 2, 3]], [caches])
        with pytest.raises(ValueError, match="position 4"):
            small_model.prefill_chunk([4, 5], 4, caches)
        assert caches[0].num_tokens == 3  # nothing ran

    def test_later_chunk_without_chunked_prefill_support_raises(self, small_model):
        caches = small_model.make_caches(resolve("cache", KELLE_SPEC))
        small_model.prefill_batch([[1, 2, 3]], [caches])
        with pytest.raises(ValueError, match="chunked-prefill support"):
            small_model.prefill_chunk([4], 3, caches)

    def test_generate_zero_tokens_does_no_work(self, small_model):
        result = generate(small_model, [1, 2, 3], 0)
        assert result.generated_tokens == [] and result.logprobs == []
        assert len(result.caches) == small_model.config.n_layers
        assert all(cache.num_tokens == 0 for cache in result.caches)

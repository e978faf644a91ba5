"""Tests for the evaluation metrics, harness and bundled Kelle policies."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.policy import PAPER_DATASET_SETTINGS, KellePolicy, paper_policy_for_dataset
from repro.eval.accuracy import multiple_choice_accuracy, unigram_overlap_f1
from repro.eval.perplexity import perplexity_full, perplexity_over_documents, perplexity_with_cache
from repro.workloads.synthetic import SyntheticLanguage
from repro.workloads.tasks import MultipleChoiceItem, make_multiple_choice_task


@pytest.fixture(scope="module")
def language():
    return SyntheticLanguage(n_keys=4, n_values=4, n_content=19, n_topics=4, topic_vocab_size=5,
                             seed=0)


class TestPerplexity:
    def test_full_and_cached_perplexity_agree_for_full_cache(self, small_model, rng):
        tokens = rng.integers(0, small_model.config.vocab_size, size=32)
        cached = perplexity_with_cache(small_model, tokens, None, prefill_len=16)
        assert cached > 0
        full = perplexity_full(small_model, tokens)
        # Same model, same data: the two estimates are within a small factor
        # (they score different subsets of positions).
        assert 0.2 < cached / full < 5.0

    def test_uniform_random_model_ppl_near_vocab_size(self, small_model, rng):
        """An untrained model's perplexity is close to the vocabulary size."""
        tokens = rng.integers(0, small_model.config.vocab_size, size=48)
        ppl = perplexity_with_cache(small_model, tokens, None, prefill_len=16)
        assert 0.3 * small_model.config.vocab_size < ppl < 3 * small_model.config.vocab_size

    def test_input_validation(self, small_model, rng):
        tokens = rng.integers(0, small_model.config.vocab_size, size=16)
        with pytest.raises(ValueError):
            perplexity_with_cache(small_model, tokens, None, prefill_len=16)
        with pytest.raises(ValueError):
            perplexity_with_cache(small_model, tokens, None, prefill_len=0)
        with pytest.raises(ValueError):
            perplexity_over_documents(small_model, [], None, prefill_len=4)

    def test_document_weighted_average(self, small_model, rng):
        docs = [rng.integers(0, small_model.config.vocab_size, size=24) for _ in range(3)]
        ppl = perplexity_over_documents(small_model, docs, None, prefill_len=8)
        singles = [perplexity_with_cache(small_model, d, None, 8) for d in docs]
        assert min(singles) <= ppl <= max(singles)


class TestAccuracyMetrics:
    def test_multiple_choice_accuracy_bounds(self, small_model, language):
        items = make_multiple_choice_task(language, 4, 32, seed=0)
        accuracy = multiple_choice_accuracy(small_model, items, None)
        assert 0.0 <= accuracy <= 1.0
        with pytest.raises(ValueError):
            multiple_choice_accuracy(small_model, [], None)

    def test_item_validation(self):
        with pytest.raises(ValueError):
            MultipleChoiceItem((1, 2), ((1,),), 0)
        with pytest.raises(ValueError):
            MultipleChoiceItem((1, 2), ((1,), (2,)), 5)

    def test_unigram_overlap(self):
        assert unigram_overlap_f1([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)
        assert unigram_overlap_f1([4, 5], [1, 2]) == 0.0
        assert unigram_overlap_f1([], [1]) == 0.0
        partial = unigram_overlap_f1([1, 9], [1, 2])
        assert 0 < partial < 1
        with pytest.raises(ValueError):
            unigram_overlap_f1([1], [])


class TestKellePolicy:
    def test_paper_settings_cover_all_datasets(self):
        for name in ("pg19", "wikitext2", "piqa", "triviaqa"):
            assert name in PAPER_DATASET_SETTINGS
        assert PAPER_DATASET_SETTINGS["pg19"].aerp.budget == 2048

    def test_policy_variants(self):
        policy = paper_policy_for_dataset("wikitext2")
        assert policy.aerp.budget == 512
        aep = policy.without_recomputation()
        assert not aep.aerp.recompute_enabled
        guard = policy.with_guard_refresh()
        assert guard.refresh.make_injector().is_noop
        assert policy.with_budget(64).aerp.budget == 64

    def test_cache_factory_produces_aerp_caches(self, small_model, rng):
        from repro.core.kv_cache import AERPCache

        policy = KellePolicy()
        caches = small_model.make_caches(policy.cache_factory(seed=0))
        assert all(isinstance(cache, AERPCache) for cache in caches)
        tokens = rng.integers(0, small_model.config.vocab_size, size=12).tolist()
        logits = small_model.prefill_batch([tokens], [caches])[0]
        assert np.all(np.isfinite(logits))

    def test_fault_injection_can_be_disabled(self, small_model):
        policy = KellePolicy()
        factory = policy.cache_factory(inject_faults=False)
        cache = factory(0, small_model.config.n_heads, small_model.config.head_dim,
                        small_model.config.d_model, small_model.recompute_fn(0))
        assert cache.injector.is_noop

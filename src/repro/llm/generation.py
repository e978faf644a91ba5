"""Prefill + auto-regressive decode drivers.

This is the serving loop of Figure 1 (a) of the paper: the context is
processed in parallel during pre-filling, then tokens are generated
auto-regressively, each step reading the KV cache managed by the active
policy.  The batched drivers run ``B`` independent sequences through
:meth:`DecoderLM.prefill_batch` / :meth:`DecoderLM.decode_step_batch`, each
with its own per-layer caches, reproducing ``B`` single-sequence runs up to
floating-point precision (batched BLAS reductions reorder float ops, so the
last bits of a logit can differ; the equivalence suite pins the tokens).
The single-sequence drivers are the batched ones at ``B = 1``.

Both drivers accept a ``drafter`` (a :class:`repro.llm.speculate.Drafter` or
spec string such as ``"ngram:k=4"``): with greedy decoding and a
rollback-capable cache (``full``/``paged``), each decode round verifies the
drafter's proposed tokens in one :meth:`DecoderLM.verify_chunk_batch`
forward and emits the accepted prefix plus the first-mismatch token —
token-identical to plain greedy decoding, but with up to ``k + 1`` tokens
per forward pass.  Caches without rollback support silently run
non-speculatively.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.llm.cache import KVCacheFactory, LayerKVCache
from repro.llm.functional import log_softmax, softmax
from repro.llm.model import DecoderLM
from repro.llm.speculate import Drafter, accept_greedy, resolve_drafter
from repro.utils.rng import derive_rng

#: Streaming hook for :func:`generate`: called with ``(token, index)`` the
#: moment each token is generated.  :func:`generate_batch` prepends the
#: sequence index: ``(seq_index, token, index)``.
OnGenToken = Callable[[int, int], None]
OnBatchToken = Callable[[int, int, int], None]


def _noop(*_args: int) -> None:
    return None


@dataclass
class GenerationResult:
    """Outcome of one prefill + decode run."""

    prompt_tokens: list[int]
    generated_tokens: list[int]
    logprobs: list[float] = field(default_factory=list)
    caches: list[LayerKVCache] = field(default_factory=list)
    #: Speculative-decoding counters (0/0 when no drafter was active).
    spec_proposed: int = 0
    spec_accepted: int = 0

    @property
    def total_tokens(self) -> int:
        return len(self.prompt_tokens) + len(self.generated_tokens)

    @property
    def acceptance_rate(self) -> float:
        """Fraction of drafter-proposed tokens the target model accepted."""
        if self.spec_proposed == 0:
            return 0.0
        return self.spec_accepted / self.spec_proposed


def _select_from_logprobs(logp: np.ndarray, temperature: float,
                          rng: np.random.Generator) -> tuple[int, float]:
    """Pick the next token from a log-softmax row, returning (token, logprob).

    A single ``log_softmax`` serves both selection and scoring: softmax is
    shift-invariant, so ``softmax(logp / T) == softmax(logits / T)`` exactly,
    and the sampled token's log-probability is just ``logp[token]`` — no
    second full-vocabulary normalisation.
    """
    if temperature <= 0:
        token = int(np.argmax(logp))
    else:
        probs = softmax(logp / temperature)
        token = int(rng.choice(probs.size, p=probs))
    return token, float(logp[token])


def _speculation_enabled(model: DecoderLM, drafter: Drafter | None,
                         caches: list[LayerKVCache], temperature: float) -> bool:
    """Whether the speculative path can run for this (drafter, cache) pair.

    Speculation is greedy-only (acceptance compares argmax choices), so an
    active drafter with ``temperature > 0`` is an error; caches without
    rollback support silently disable it (the documented fallback).
    """
    if drafter is None or drafter.k <= 0:
        return False
    if temperature > 0:
        raise ValueError("speculative decoding requires greedy decoding "
                         "(temperature=0); drop the drafter to sample")
    if not all(c.supports_chunked_prefill and c.supports_rollback for c in caches):
        return False
    drafter.check_compatible(model.config)
    return True


def _decode_batch_speculative(model: DecoderLM, drafter: Drafter,
                              caches_batch: Sequence[list[LayerKVCache]],
                              results: list[GenerationResult], logits: np.ndarray,
                              max_new_tokens: int, eos_id: int | None,
                              on_token: OnBatchToken = _noop) -> None:
    """Batched speculative decode: one verify forward per round for the batch.

    Every active sequence contributes its chunk (``[next_input, *proposals]``,
    possibly proposal-free) to one :meth:`DecoderLM.verify_chunk_batch` call;
    acceptance, rollback and EOS dropout are handled per sequence, exactly as
    ``B`` independent single-sequence runs would.
    """
    batch = len(results)
    sessions = [drafter.session() for _ in range(batch)]
    positions = [len(r.prompt_tokens) for r in results]
    logp = log_softmax(logits, axis=-1)
    active: list[int] = []
    for b, result in enumerate(results):
        token = int(np.argmax(logp[b]))
        result.generated_tokens.append(token)
        result.logprobs.append(float(logp[b, token]))
        on_token(b, token, len(result.generated_tokens) - 1)
        if max_new_tokens > 1 and not (eos_id is not None and token == eos_id):
            active.append(b)
    while active:
        chunks: list[list[int]] = []
        for b in active:
            result = results[b]
            remaining = max_new_tokens - len(result.generated_tokens)
            proposals = sessions[b].propose(
                result.prompt_tokens + result.generated_tokens,
                max_tokens=remaining - 1)
            chunks.append([result.generated_tokens[-1], *proposals])
        logits_list = model.verify_chunk_batch(
            chunks, [positions[b] for b in active], [caches_batch[b] for b in active])
        still_active: list[int] = []
        for row, b in enumerate(active):
            result = results[b]
            proposals = chunks[row][1:]
            accepted, emitted = accept_greedy(logits_list[row], proposals)
            result.spec_proposed += len(proposals)
            result.spec_accepted += accepted
            for cache in caches_batch[b]:
                cache.truncate(positions[b] + 1 + accepted)
            positions[b] += 1 + accepted
            logp_rows = log_softmax(logits_list[row][:len(emitted)], axis=-1)
            stopped = False
            for j, tok in enumerate(emitted):
                result.generated_tokens.append(tok)
                result.logprobs.append(float(logp_rows[j, tok]))
                on_token(b, tok, len(result.generated_tokens) - 1)
                if eos_id is not None and tok == eos_id:
                    stopped = True
                    break
            if not stopped and len(result.generated_tokens) < max_new_tokens:
                still_active.append(b)
        active = still_active
    for result, caches in zip(results, caches_batch):
        for cache in caches:
            cache.truncate(len(result.prompt_tokens) + len(result.generated_tokens) - 1)


def generate_batch(model: DecoderLM, prompts: Sequence[Sequence[int]], max_new_tokens: int,
                   cache_factory: KVCacheFactory | None = None, temperature: float = 0.0,
                   eos_id: int | None = None, seed: int = 0,
                   drafter: Drafter | str | None = None,
                   on_token: OnBatchToken | None = None) -> list[GenerationResult]:
    """Generate continuations for ``B`` prompts with batched forward passes.

    Each sequence gets its own per-layer caches (one :meth:`make_caches` call
    per prompt) and its own generation RNG derived from ``seed`` alone, so
    every sequence matches a separate :func:`generate` call to
    floating-point precision.  Sequences that emit ``eos_id`` drop out of
    the running batch; the rest continue.  ``drafter`` enables batched
    speculative decoding (see :func:`generate`): every sequence's proposal
    chunk is verified in one batched forward per round.  ``on_token``
    streams each generated token as ``(seq_index, token, index)``.  With
    ``max_new_tokens=0`` nothing runs: the results carry empty caches.
    """
    if max_new_tokens < 0:
        raise ValueError("max_new_tokens must be non-negative")
    prompt_lists = [list(int(t) for t in prompt) for prompt in prompts]
    if not prompt_lists or any(not prompt for prompt in prompt_lists):
        raise ValueError("prompts must be a non-empty list of non-empty sequences")
    drafter = resolve_drafter(drafter)
    batch = len(prompt_lists)
    rngs = [derive_rng(seed, "generate") for _ in range(batch)]
    caches_batch = [model.make_caches(cache_factory) for _ in range(batch)]
    speculative = _speculation_enabled(model, drafter, caches_batch[0], temperature)
    results = [GenerationResult(prompt_tokens=prompt, generated_tokens=[], caches=caches)
               for prompt, caches in zip(prompt_lists, caches_batch)]
    if max_new_tokens == 0:
        return results
    emit = on_token or _noop
    logits = model.prefill_batch(prompt_lists, caches_batch)  # [B, vocab]
    if speculative:
        _decode_batch_speculative(model, drafter, caches_batch, results, logits,
                                  max_new_tokens, eos_id, on_token=emit)
        return results
    positions = [len(prompt) for prompt in prompt_lists]
    active = list(range(batch))
    for step in range(max_new_tokens):
        logp = log_softmax(logits, axis=-1)
        next_tokens: list[int] = []
        still_active: list[int] = []
        for row, b in enumerate(active):
            token, token_logp = _select_from_logprobs(logp[row], temperature, rngs[b])
            results[b].generated_tokens.append(token)
            results[b].logprobs.append(token_logp)
            emit(b, token, len(results[b].generated_tokens) - 1)
            if eos_id is not None and token == eos_id:
                continue
            next_tokens.append(token)
            still_active.append(b)
        active = still_active
        if not active or step == max_new_tokens - 1:
            break
        logits = model.decode_step_batch(next_tokens, [positions[b] for b in active],
                                         [caches_batch[b] for b in active])
        for b in active:
            positions[b] += 1
    return results


def generate(model: DecoderLM, prompt_tokens: Sequence[int], max_new_tokens: int,
             cache_factory: KVCacheFactory | None = None, temperature: float = 0.0,
             eos_id: int | None = None, seed: int = 0,
             drafter: Drafter | str | None = None,
             on_token: OnGenToken | None = None) -> GenerationResult:
    """Generate ``max_new_tokens`` continuation tokens for ``prompt_tokens``.

    ``cache_factory`` selects the KV-cache policy (full cache by default);
    ``temperature`` 0 means greedy decoding.  ``drafter`` (a spec string such
    as ``"ngram:k=4"`` or a built :class:`~repro.llm.speculate.Drafter`)
    enables speculative decoding: token-identical to greedy decoding, but
    emitting up to ``k + 1`` tokens per forward pass when proposals are
    accepted.  Requires a rollback-capable cache (``full``/``paged``); other
    caches run non-speculatively.  ``on_token`` streams each generated token
    as ``(token, index)`` the moment it is produced (the serving engine's
    :class:`~repro.serve.executor.TokenEvent` hook reduced to one sequence).
    This is :func:`generate_batch` at ``B = 1``; in particular
    ``max_new_tokens=0`` returns at once, without prefilling the caches.
    """
    emit = None if on_token is None else (lambda _seq, token, index: on_token(token, index))
    return generate_batch(model, [prompt_tokens], max_new_tokens, cache_factory,
                          temperature, eos_id, seed, drafter, emit)[0]


def forced_decode_logprobs(model: DecoderLM, prompt_tokens: Sequence[int],
                           continuation_tokens: Sequence[int],
                           cache_factory: KVCacheFactory | None = None) -> list[float]:
    """Log-probabilities of a forced continuation under a cache policy.

    This is the primitive behind the cache-aware perplexity evaluation: the
    prompt is pre-filled, then each continuation token is scored with the
    logits produced while the *policy-managed* cache serves attention, and fed
    back as the next input (teacher forcing).  It is
    :func:`forced_decode_logprobs_batch` at ``B = 1``.
    """
    return forced_decode_logprobs_batch(model, [prompt_tokens], [continuation_tokens],
                                        cache_factory)[0]


def forced_decode_logprobs_batch(model: DecoderLM, prompts: Sequence[Sequence[int]],
                                 continuations: Sequence[Sequence[int]],
                                 cache_factory: KVCacheFactory | None = None,
                                 ) -> list[list[float]]:
    """Batched teacher-forced scoring: ``B`` (prompt, continuation) pairs.

    Scores every continuation with batched prefill and decode passes, one
    sequence per batch lane (ragged prompt and continuation lengths are fine).
    Matches ``B`` :func:`forced_decode_logprobs` calls to floating-point
    precision.
    """
    prompt_lists = [list(int(t) for t in prompt) for prompt in prompts]
    cont_lists = [list(int(t) for t in cont) for cont in continuations]
    if len(prompt_lists) != len(cont_lists):
        raise ValueError("prompts and continuations must have equal length")
    if not prompt_lists or any(not p for p in prompt_lists) or any(not c for c in cont_lists):
        raise ValueError("prompts and continuations must be non-empty")
    batch = len(prompt_lists)
    caches_batch = [model.make_caches(cache_factory) for _ in range(batch)]
    logits = model.prefill_batch(prompt_lists, caches_batch)  # [B, vocab]
    positions = [len(prompt) for prompt in prompt_lists]
    cursors = [0] * batch
    logprobs: list[list[float]] = [[] for _ in range(batch)]
    active = list(range(batch))
    while active:
        logp = log_softmax(logits, axis=-1)
        feed_tokens: list[int] = []
        still_active: list[int] = []
        for row, b in enumerate(active):
            token = cont_lists[b][cursors[b]]
            logprobs[b].append(float(logp[row, token]))
            cursors[b] += 1
            if cursors[b] < len(cont_lists[b]):
                feed_tokens.append(token)
                still_active.append(b)
        active = still_active
        if not active:
            break
        logits = model.decode_step_batch(feed_tokens, [positions[b] for b in active],
                                         [caches_batch[b] for b in active])
        for b in active:
            positions[b] += 1
    return logprobs

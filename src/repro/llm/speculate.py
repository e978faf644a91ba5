"""Speculative-decoding drafters: propose cheap tokens, verify in one forward.

Auto-regressive decode pays one full forward pass per generated token.  A
**drafter** breaks that serial chain: it proposes up to ``k`` continuation
tokens from a cheap source, the target model scores the whole proposal in one
:meth:`~repro.llm.model.DecoderLM.verify_chunk_batch` forward, and greedy
acceptance keeps the longest proposal prefix that matches the target's own
argmax choices — plus the *first-mismatch token*, which the verification
logits provide for free.  With greedy decoding the emitted tokens are
provably identical to plain decode (each token is the target's argmax given
exactly the same prefix), so speculation is a pure latency optimisation.

Three drafters are registered under the ``"drafter"`` registry kind:

* ``"ngram:k=4"`` — prompt-lookup self-speculation.  The recent context is
  matched (longest n-gram first) against the prompt + generated history, and
  the tokens that followed the most recent earlier occurrence are proposed.
  No second model, no extra memory: repetitive/templated traffic (JSON,
  code, chat boilerplate, multi-turn echoes) accepts most proposals, while
  unmatched contexts propose nothing and fall back to plain decode steps.
* ``"draft-model:model=tiny-llama2-7b,k=4"`` — a smaller
  :class:`~repro.llm.model.DecoderLM` proposes ``k`` greedy tokens.  Each
  per-sequence session keeps its own full KV caches and rolls them back with
  :meth:`~repro.llm.cache.LayerKVCache.truncate` when the target rejects a
  proposal, so drafting stays incremental (no per-step re-prefill).
* ``"none"`` — proposes nothing; the speculative drivers degenerate to the
  plain decode loop.

Drafters are **stateless across sequences**: :meth:`Drafter.session` returns
a fresh per-sequence :class:`DrafterSession` whose :meth:`~DrafterSession.propose`
sees the full token context (prompt + generated so far) each call.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.registry import register, resolve

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from repro.llm.config import ModelConfig
    from repro.llm.model import DecoderLM


class DrafterSession(abc.ABC):
    """Per-sequence drafting state (created by :meth:`Drafter.session`)."""

    @abc.abstractmethod
    def propose(self, context: Sequence[int],
                max_tokens: int | None = None) -> list[int]:
        """Propose up to ``min(k, max_tokens)`` continuation tokens.

        ``context`` is the full token history (prompt + generated so far).
        An empty proposal means "no speculation this step" — the driver runs
        a plain decode step instead.
        """


class Drafter(abc.ABC):
    """A speculative-decoding proposal source (registry kind ``"drafter"``)."""

    #: Maximum tokens proposed per step (0 disables speculation).
    k: int = 0

    @abc.abstractmethod
    def session(self) -> DrafterSession:
        """Fresh per-sequence drafting state."""

    def describe(self) -> str:
        """Short spec-style description for reports (e.g. ``"ngram:k=4"``)."""
        return f"{type(self).__name__}:k={self.k}"

    def check_compatible(self, config: "ModelConfig") -> None:
        """Raise ``ValueError`` if this drafter cannot draft for ``config``."""


class _NoSession(DrafterSession):
    def propose(self, context: Sequence[int],
                max_tokens: int | None = None) -> list[int]:
        del context, max_tokens
        return []


class NoneDrafter(Drafter):
    """The no-speculation fallback: never proposes anything."""

    k = 0

    def session(self) -> DrafterSession:
        return _NoSession()

    def describe(self) -> str:
        return "none"


class _NgramSession(DrafterSession):
    def __init__(self, drafter: "NgramDrafter") -> None:
        self._drafter = drafter

    def _lookup(self, context: np.ndarray, budget: int) -> np.ndarray:
        """One prompt-lookup step: longest-suffix-first, most recent match.

        The scan is one vectorised sliding-window comparison per n-gram
        length (``max_ngram - min_ngram + 1`` O(context) passes in C, no
        per-candidate Python slicing), so the no-match case on long contexts
        stays cheap.  A match may overlap the suffix itself, which is what
        lets a repeated-token run propose more of the run.
        """
        d = self._drafter
        n_ctx = context.size
        for n in range(min(d.max_ngram, n_ctx - 1), d.min_ngram - 1, -1):
            pattern = context[-n:]
            # Windows over context[:-1]: candidate starts 0..n_ctx-1-n, i.e.
            # every start strictly before the suffix's own start.
            windows = np.lib.stride_tricks.sliding_window_view(context[:-1], n)
            hits = np.nonzero((windows == pattern).all(axis=1))[0]
            if hits.size:  # most recent earlier occurrence wins
                start = int(hits[-1])
                return context[start + n:start + n + budget]
        return context[:0]

    def propose(self, context: Sequence[int],
                max_tokens: int | None = None) -> list[int]:
        d = self._drafter
        budget = d.k if max_tokens is None else min(d.k, max_tokens)
        if budget <= 0 or len(context) < d.min_ngram + 1:
            return []
        context = np.asarray(context, dtype=np.int64)
        # A match near the end of the context yields fewer than ``budget``
        # following tokens (the window hits the context boundary — always the
        # case on a short-period loop).  Treat the proposal as accepted and
        # keep looking it up until the budget is filled or the match dries up.
        proposals: list[int] = []
        while len(proposals) < budget:
            follow = self._lookup(context, budget - len(proposals))
            if follow.size == 0:
                break
            proposals.extend(int(t) for t in follow)
            context = np.concatenate([context, follow])
        return proposals


class NgramDrafter(Drafter):
    """Prompt-lookup (n-gram) self-speculation — no draft model needed.

    Matches the last ``max_ngram``..``min_ngram`` context tokens against the
    earlier context and proposes up to ``k`` tokens that followed the most
    recent match.  Sessions are stateless; each proposal round costs at most
    ``max_ngram - min_ngram + 1`` vectorised sliding-window passes over the
    context (no per-candidate Python work).
    """

    def __init__(self, k: int = 4, max_ngram: int = 3, min_ngram: int = 1) -> None:
        if k <= 0:
            raise ValueError("k must be positive")
        if not 1 <= min_ngram <= max_ngram:
            raise ValueError("need 1 <= min_ngram <= max_ngram")
        self.k = k
        self.max_ngram = max_ngram
        self.min_ngram = min_ngram

    def session(self) -> DrafterSession:
        return _NgramSession(self)

    def describe(self) -> str:
        return f"ngram:k={self.k}"


class _DraftModelSession(DrafterSession):
    """Incremental draft-model state: private full caches + rollback sync."""

    def __init__(self, drafter: "DraftModelDrafter") -> None:
        self._drafter = drafter
        self._caches = drafter.model.make_caches()  # full caches: rollbackable
        self._tokens: list[int] = []  # tokens whose KV is in the caches

    def propose(self, context: Sequence[int],
                max_tokens: int | None = None) -> list[int]:
        drafter = self._drafter
        model = drafter.model
        budget = drafter.k if max_tokens is None else min(drafter.k, max_tokens)
        if budget <= 0:
            return []
        context = list(context)
        # Sync the draft caches with the accepted history: roll back to the
        # longest common prefix (discarding the KV of rejected proposals),
        # then feed the novel context tokens in one chunk.
        common = 0
        for mine, theirs in zip(self._tokens, context):
            if mine != theirs:
                break
            common += 1
        if common == len(context):  # context fully cached: re-derive the
            common -= 1             # last token's logits from a 1-token chunk
        if common < len(self._tokens):
            for cache in self._caches:
                cache.truncate(common)
            del self._tokens[common:]
        chunk = context[common:]
        logits = model.prefill_chunk(chunk, common, self._caches)
        self._tokens.extend(chunk)
        proposals: list[int] = []
        position = len(self._tokens)
        while True:
            token = int(np.argmax(logits))
            proposals.append(token)
            if len(proposals) >= budget:
                return proposals
            logits = model.decode_step_batch([token], [position], [self._caches])[0]
            self._tokens.append(token)
            position += 1


class DraftModelDrafter(Drafter):
    """A smaller :class:`DecoderLM` proposing ``k`` greedy continuation tokens.

    ``model`` is either a built :class:`DecoderLM` or a model-registry spec
    name (``"tiny-llama2-7b"``); its vocabulary must match the target model's
    (proposed token ids are fed straight into the target's embedding).
    """

    def __init__(self, model: "DecoderLM | str", k: int = 4, seed: int = 0) -> None:
        if k <= 0:
            raise ValueError("k must be positive")
        if isinstance(model, str):
            from repro.llm.model import DecoderLM

            model = DecoderLM(resolve("model", model), seed=seed)
        self.model = model
        self.k = k

    def session(self) -> DrafterSession:
        return _DraftModelSession(self)

    def describe(self) -> str:
        return f"draft-model:model={self.model.config.name},k={self.k}"

    def check_compatible(self, config: "ModelConfig") -> None:
        if self.model.config.vocab_size != config.vocab_size:
            raise ValueError(
                f"draft model '{self.model.config.name}' has vocab_size="
                f"{self.model.config.vocab_size} but the target "
                f"'{config.name}' has vocab_size={config.vocab_size}")


def accept_greedy(chunk_logits: np.ndarray,
                  proposals: Sequence[int]) -> tuple[int, list[int]]:
    """Greedy accepted-prefix + first-mismatch acceptance.

    ``chunk_logits`` are one sequence's :meth:`DecoderLM.verify_chunk_batch`
    rows for a chunk ``[next_input, *proposals]``: row ``i`` is the target's
    next-token distribution after ``chunk[: i + 1]``.  Returns
    ``(n_accepted, emitted)`` where ``emitted`` is the accepted proposal
    prefix followed by one token the target chose itself — the corrected token at the first mismatch, or
    the bonus token after a fully-accepted proposal.  Every emitted token is
    the target's argmax given exactly its prefix, so the stream is identical
    to plain greedy decoding.
    """
    emitted: list[int] = []
    for i, proposal in enumerate(proposals):
        choice = int(np.argmax(chunk_logits[i]))
        if choice != int(proposal):
            return i, emitted + [choice]
        emitted.append(int(proposal))
    return len(proposals), emitted + [int(np.argmax(chunk_logits[len(proposals)]))]


def resolve_drafter(drafter: "Drafter | str | None") -> Drafter | None:
    """Resolve a drafter spec string (pass through built drafters / None)."""
    if drafter is None:
        return None
    if isinstance(drafter, str):
        return resolve("drafter", drafter)
    return drafter


@register("drafter", "ngram", "prompt-lookup",
          description="prompt-lookup n-gram self-speculation (no draft model)")
def _build_ngram(k: int = 4, max_ngram: int = 3, min_ngram: int = 1) -> NgramDrafter:
    """Registry builder: ``resolve("drafter", "ngram:k=4")``."""
    return NgramDrafter(k=k, max_ngram=max_ngram, min_ngram=min_ngram)


@register("drafter", "draft-model", "draft_model",
          description="smaller DecoderLM proposing k greedy tokens")
def _build_draft_model(model: str = "tiny-llama2-7b", k: int = 4,
                       seed: int = 0) -> DraftModelDrafter:
    """Registry builder: ``resolve("drafter", "draft-model:model=...,k=4")``."""
    return DraftModelDrafter(model=model, k=k, seed=seed)


@register("drafter", "none", description="no speculation (plain decode)")
def _build_none() -> NoneDrafter:
    return NoneDrafter()


__all__ = [
    "Drafter",
    "DrafterSession",
    "DraftModelDrafter",
    "NgramDrafter",
    "NoneDrafter",
    "accept_greedy",
    "resolve_drafter",
]

"""Decoder-only transformer language model on NumPy.

The model owns a flat parameter dictionary (name -> ``np.ndarray``) and
has three forwards, the only code that loops over the layers:

* :meth:`DecoderLM.forward_full` -- full-sequence teacher-forced forward pass
  without a cache (used for training-data perplexity and as the reference
  oracle for the cached paths);
* :meth:`DecoderLM._forward_chunks` -- one ragged chunk forward over ``B``
  sequences with pluggable per-layer KV caches, behind the public
  :meth:`~DecoderLM.prefill_batch`, :meth:`~DecoderLM.prefill_chunk` and
  :meth:`~DecoderLM.verify_chunk_batch`; a prompt's first chunk hands its
  attention probabilities to the cache, which is where the paper's AERP
  importance scores are seeded;
* :meth:`DecoderLM.decode_step_batch` -- one auto-regressive decode step
  for ``B`` sequences, fused grouped attention where the cache layouts
  allow it and a per-sequence path (read, score, evict) otherwise.

Only configurations without grouped-query attention are instantiated
(``n_kv_heads is None``); the full-size GQA configs are used purely for shape
accounting by the performance model.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.llm.cache import KVCacheFactory, LayerKVCache, full_cache_factory
from repro.llm.config import ModelConfig
from repro.llm.functional import (
    apply_rope,
    causal_mask,
    gelu,
    layer_norm,
    rms_norm,
    rope_frequencies,
    silu,
    softmax,
)
from repro.llm.workspace import StepWorkspace
from repro.utils.rng import derive_rng


class _FusedGroupBuffer:
    """Persistent stacked K/V for one fused decode group at one layer.

    The fused decode path's steady state: ``keys``/``values`` hold the whole
    group's cache contents as ``[G, H, capacity, d]`` fp32 stacks, built once
    by a *restack* (page-table gather for paged groups, fetch-view copies for
    contiguous ones) and then extended by a single ``[H, d]`` token write per
    sequence per step — so a steady decode step touches O(G·H·d) bytes of
    bookkeeping plus the unavoidable attention reads, instead of re-copying
    the entire K/V history every step.

    A buffer is *current* only while every member cache advanced by exactly
    one appended token since the last sync and its :attr:`~repro.llm.cache.
    LayerKVCache.write_epoch` is unchanged (no truncate/release/import
    touched stored tokens); anything else — rollback, preemption, chunked
    prefill catch-up, capacity overflow — triggers a fresh restack.

    Invariant for paged (ragged) groups: ``values[g, :, lengths[g]:]`` is
    zero all the way to capacity, so the length-masked attention matmul can
    read past a short row's end without 0·NaN poisoning or stale-value
    leakage as ``n_max`` grows between restacks.
    """

    __slots__ = ("caches", "epochs", "lengths", "keys", "values", "last_used",
                 "store_identity")

    def __init__(self, caches: "list[LayerKVCache]") -> None:
        #: Strong references pin member identity: a live cache's ``id`` can
        #: never be recycled, so the state key (layer, cache ids) is sound.
        self.caches = list(caches)
        self.epochs = [-1] * len(caches)  # forces a restack on first use
        self.lengths = [-1] * len(caches)
        self.keys: "np.ndarray | None" = None
        self.values: "np.ndarray | None" = None
        self.last_used = 0
        #: Every member stores appended K/V verbatim, so incremental stack
        #: extension can scatter straight from the batched projections.
        self.store_identity = all(c.fused_store_identity for c in caches)


class DecoderLM:
    """A decoder-only transformer LM with explicit NumPy parameters."""

    def __init__(self, config: ModelConfig, params: dict[str, np.ndarray] | None = None,
                 seed: int = 0) -> None:
        if config.n_kv_heads is not None:
            raise ValueError("DecoderLM does not instantiate grouped-query configurations")
        self.config = config
        # Reusable scratch buffers for the batched hot paths (context
        # accumulators, fused-attention gather workspaces):
        # steady-state decode steps perform zero scratch allocations.
        self._ws = StepWorkspace()
        # Persistent fused-decode group buffers, keyed by
        # (layer, tuple(id(cache) for cache in group)); see _FusedGroupBuffer.
        self._fused_states: dict = {}
        self._fused_clock = 0
        # Lazily-built concatenated [C, 3C] QKV weights per layer so the
        # decode hot paths issue one projection GEMM instead of three.
        # Keyed by the identity of the source arrays: replacing a params
        # entry (e.g. copy_with_params, checkpoint load) rebuilds the
        # concat; nothing in the repo mutates weight arrays in place while
        # also running inference on the same model object.
        self._qkv_cache: dict[int, tuple[tuple[int, int, int], np.ndarray]] = {}
        self.params = params if params is not None else self._init_params(config, seed)
        if config.positional == "rope":
            self._rope_cos, self._rope_sin = rope_frequencies(config.head_dim, config.max_seq_len)
        else:
            self._rope_cos = self._rope_sin = None

    # ------------------------------------------------------------------
    # Parameter initialisation
    # ------------------------------------------------------------------
    @staticmethod
    def _init_params(config: ModelConfig, seed: int) -> dict[str, np.ndarray]:
        rng = derive_rng(seed, "init", config.name)
        params: dict[str, np.ndarray] = {}
        scale = 0.02

        def normal(shape: tuple[int, ...]) -> np.ndarray:
            return (rng.standard_normal(shape) * scale).astype(np.float32)

        params["embed.weight"] = normal((config.vocab_size, config.d_model))
        if config.positional == "learned":
            params["pos_embed.weight"] = normal((config.max_seq_len, config.d_model))
        for i in range(config.n_layers):
            prefix = f"layers.{i}"
            params[f"{prefix}.attn_norm.weight"] = np.ones(config.d_model, dtype=np.float32)
            params[f"{prefix}.mlp_norm.weight"] = np.ones(config.d_model, dtype=np.float32)
            if config.norm == "layer":
                params[f"{prefix}.attn_norm.bias"] = np.zeros(config.d_model, dtype=np.float32)
                params[f"{prefix}.mlp_norm.bias"] = np.zeros(config.d_model, dtype=np.float32)
            for proj in ("wq", "wk", "wv", "wo"):
                params[f"{prefix}.{proj}"] = normal((config.d_model, config.d_model))
            if config.mlp == "gated":
                params[f"{prefix}.w1"] = normal((config.d_model, config.d_ff))
                params[f"{prefix}.w3"] = normal((config.d_model, config.d_ff))
                params[f"{prefix}.w2"] = normal((config.d_ff, config.d_model))
            else:
                params[f"{prefix}.w1"] = normal((config.d_model, config.d_ff))
                params[f"{prefix}.w2"] = normal((config.d_ff, config.d_model))
        params["final_norm.weight"] = np.ones(config.d_model, dtype=np.float32)
        if config.norm == "layer":
            params["final_norm.bias"] = np.zeros(config.d_model, dtype=np.float32)
        if not config.tie_embeddings:
            params["lm_head.weight"] = normal((config.vocab_size, config.d_model))
        return params

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _norm(self, x: np.ndarray, prefix: str) -> np.ndarray:
        weight = self.params[f"{prefix}.weight"]
        if self.config.norm == "rms":
            return rms_norm(x, weight)
        return layer_norm(x, weight, self.params[f"{prefix}.bias"])

    def _mlp(self, x: np.ndarray, layer: int) -> np.ndarray:
        prefix = f"layers.{layer}"
        if self.config.mlp == "gated":
            gate = silu(x @ self.params[f"{prefix}.w1"])
            up = x @ self.params[f"{prefix}.w3"]
            return (gate * up) @ self.params[f"{prefix}.w2"]
        hidden = gelu(x @ self.params[f"{prefix}.w1"])
        return hidden @ self.params[f"{prefix}.w2"]

    def _embed(self, tokens: np.ndarray) -> np.ndarray:
        hidden = self.params["embed.weight"][tokens]
        if self.config.positional == "learned":
            positions = np.arange(tokens.shape[-1])
            hidden = hidden + self.params["pos_embed.weight"][positions]
        return hidden.astype(np.float32)

    def _lm_head(self, hidden: np.ndarray) -> np.ndarray:
        weight = self.params["embed.weight"] if self.config.tie_embeddings else self.params[
            "lm_head.weight"
        ]
        return hidden @ weight.T

    def _split_heads(self, x: np.ndarray) -> np.ndarray:
        """[..., C] -> [..., H, d] -> moved to [H, ..., d]."""
        new_shape = x.shape[:-1] + (self.config.n_heads, self.config.head_dim)
        y = x.reshape(new_shape)
        nd = y.ndim  # axis -2 to the front (transpose view, no moveaxis overhead)
        return y.transpose((nd - 2,) + tuple(range(nd - 2)) + (nd - 1,))

    def _project_kv(self, x: np.ndarray, layer: int,
                    positions: np.ndarray | int) -> tuple[np.ndarray, np.ndarray]:
        """Compute per-head K/V (with RoPE on K) for block input ``x`` ``[T, C]``.

        ``positions`` is either an explicit position array or an int ``T``
        meaning positions ``0..T-1`` (served from RoPE table views).
        """
        prefix = f"layers.{layer}"
        keys = self._split_heads(x @ self.params[f"{prefix}.wk"])  # [H, T, d]
        values = self._split_heads(x @ self.params[f"{prefix}.wv"])
        if self.config.positional == "rope":
            keys = apply_rope(keys, positions, self._rope_cos, self._rope_sin)
        return keys, values

    def _qkv_weight(self, layer: int) -> np.ndarray:
        """Concatenated ``[C, 3C]`` Q|K|V projection weight for ``layer``.

        One GEMM against this replaces three separate projections in the
        decode loops; the slices of the result are the exact BLAS outputs
        of a wider matmul, within float tolerance of the split GEMMs.
        """
        prefix = f"layers.{layer}"
        wq = self.params[f"{prefix}.wq"]
        wk = self.params[f"{prefix}.wk"]
        wv = self.params[f"{prefix}.wv"]
        key = (id(wq), id(wk), id(wv))
        entry = self._qkv_cache.get(layer)
        if entry is None or entry[0] != key:
            entry = (key, np.concatenate([wq, wk, wv], axis=1))
            self._qkv_cache[layer] = entry
        return entry[1]

    def recompute_fn(self, layer: int):
        """Return the recompute callback the AERP cache uses for this layer."""

        def recompute(x: np.ndarray, position: int) -> tuple[np.ndarray, np.ndarray]:
            keys, values = self._project_kv(x[None, :], layer, np.array([position]))
            return keys[:, 0, :], values[:, 0, :]

        return recompute

    # ------------------------------------------------------------------
    # Full-sequence forward (no cache)
    # ------------------------------------------------------------------
    def forward_full(self, tokens: np.ndarray) -> np.ndarray:
        """Teacher-forced forward pass.

        ``tokens`` has shape ``[T]`` or ``[B, T]``; returns logits of shape
        ``[..., T, vocab]``.
        """
        tokens = np.asarray(tokens)
        squeeze = tokens.ndim == 1
        if squeeze:
            tokens = tokens[None, :]
        batch, seq_len = tokens.shape
        hidden = self._embed(tokens)  # [B, T, C]
        positions = seq_len  # int form: RoPE tables are sliced, not gathered
        mask = causal_mask(seq_len)
        scale = 1.0 / np.sqrt(self.config.head_dim)
        for layer in range(self.config.n_layers):
            prefix = f"layers.{layer}"
            normed = self._norm(hidden, f"{prefix}.attn_norm")
            queries = self._split_heads(normed @ self.params[f"{prefix}.wq"])  # [H, B, T, d]
            keys = self._split_heads(normed @ self.params[f"{prefix}.wk"])
            values = self._split_heads(normed @ self.params[f"{prefix}.wv"])
            if self.config.positional == "rope":
                queries = apply_rope(queries, positions, self._rope_cos, self._rope_sin)
                keys = apply_rope(keys, positions, self._rope_cos, self._rope_sin)
            scores = queries @ keys.swapaxes(-1, -2) * scale + mask  # [H, B, T, T]
            probs = softmax(scores, axis=-1)
            context = probs @ values  # [H, B, T, d]
            context = np.moveaxis(context, 0, -2).reshape(batch, seq_len, self.config.d_model)
            hidden = hidden + context @ self.params[f"{prefix}.wo"]
            normed = self._norm(hidden, f"{prefix}.mlp_norm")
            hidden = hidden + self._mlp(normed, layer)
        hidden = self._norm(hidden, "final_norm")
        logits = self._lm_head(hidden)
        return logits[0] if squeeze else logits

    # ------------------------------------------------------------------
    # Chunked prefill + speculative verify with pluggable KV caches
    # ------------------------------------------------------------------
    def make_caches(self, factory: KVCacheFactory | None = None) -> list[LayerKVCache]:
        """Build one cache per layer using ``factory`` (full cache by default)."""
        factory = factory or full_cache_factory
        return [
            factory(layer, self.config.n_heads, self.config.head_dim, self.config.d_model,
                    self.recompute_fn(layer))
            for layer in range(self.config.n_layers)
        ]

    def _attend_chunk(self, cache: LayerKVCache, queries: np.ndarray,
                      keys_new: np.ndarray, values_new: np.ndarray,
                      mask: np.ndarray, scale: float) -> np.ndarray:
        """Causal chunk attention over the cached prefix plus the chunk itself.

        ``queries``/``keys_new``/``values_new`` are ``[H, c, d]`` blocks for a
        chunk whose queries attend to everything in ``cache`` (positions
        before the chunk) and causally within the chunk — exactly the rows a
        whole-sequence forward would compute.  Returns the ``[H, c, d]``
        context; the caller extends the cache with the chunk's K/V.
        """
        keys_old, values_old, valid = cache.fetch()  # [H, n, d] views
        n_old = keys_old.shape[1]
        scores_old = queries @ keys_old.swapaxes(-1, -2) * scale  # [H, c, n]
        if not valid.all():
            scores_old = np.where(valid[:, None, :], scores_old, -np.inf)
        scores_new = queries @ keys_new.swapaxes(-1, -2) * scale + mask  # [H, c, c]
        probs = softmax(np.concatenate([scores_old, scores_new], axis=-1))
        return probs[:, :, :n_old] @ values_old + probs[:, :, n_old:] @ values_new

    def _forward_chunks(self, token_chunks: Sequence[Sequence[int]],
                        positions: Sequence[int],
                        caches_batch: Sequence[list[LayerKVCache]],
                        all_logits: bool) -> "np.ndarray | list[np.ndarray]":
        """One ragged chunk forward for ``B`` sequences — every cached
        prefill and speculative-verify call runs through here.

        ``token_chunks[b]`` is sequence ``b``'s chunk starting at absolute
        position ``positions[b]``; ``caches_batch[b]`` its per-layer caches.
        The dense projections (QKV, output, MLP, LM head) run once over the
        concatenated, unpadded ``[N, C]`` chunk tokens, so ragged lengths
        cost no padding work; attention runs per sequence:

        * a row at position 0 needs empty caches and loads its chunk through
          :meth:`LayerKVCache.prefill` together with the chunk's causal
          attention probabilities — the prompt-attention signal that AERP
          and H2O importance scoring seed from;
        * a row at ``position > 0`` needs caches with chunked-prefill
          support (``full``/``paged``) holding exactly ``position`` tokens:
          its queries attend to the cached prefix plus the chunk
          (:meth:`_attend_chunk`) and the caches grow by ``extend_chunk``.

        Either way each row computes what a whole-sequence
        :meth:`forward_full` computes at those positions.  With
        ``all_logits`` the result is one ``[len(chunk_b), vocab]`` array per
        sequence (verification: row ``i`` scores the token after
        ``chunk_b[: i + 1]``); otherwise only each chunk's last position
        reaches the LM head and the result is ``[B, vocab]`` (prefill).
        """
        if len(token_chunks) == 0:
            raise ValueError("expected at least one token chunk")
        if not len(token_chunks) == len(positions) == len(caches_batch):
            raise ValueError("token chunks, positions and caches_batch must have "
                             "equal length")
        chunks = [np.asarray(chunk, dtype=np.int64) for chunk in token_chunks]
        positions = [int(position) for position in positions]
        for b, (chunk, position, caches) in enumerate(zip(chunks, positions, caches_batch)):
            if chunk.ndim != 1 or chunk.size == 0:
                raise ValueError("token chunks must be non-empty 1-D sequences")
            if position != 0 and not all(c.supports_chunked_prefill for c in caches):
                raise ValueError(
                    f"sequence {b}: a chunk at position {position} needs caches with "
                    "chunked-prefill support (e.g. 'full' or 'paged')")
            held = caches[0].num_tokens if caches else 0
            if held != position:
                raise ValueError(f"sequence {b}: caches hold {held} tokens but the "
                                 f"chunk starts at position {position}")
        lengths = [chunk.size for chunk in chunks]
        bounds = np.cumsum([0] + lengths)
        slices = [slice(int(bounds[b]), int(bounds[b + 1])) for b in range(len(chunks))]
        flat_pos = np.concatenate([np.arange(p, p + n, dtype=np.int64)
                                   for p, n in zip(positions, lengths)])
        hidden = self.params["embed.weight"][np.concatenate(chunks)].astype(np.float32)
        if self.config.positional == "learned":
            hidden = hidden + self.params["pos_embed.weight"][flat_pos]  # [N, C]
        masks = [causal_mask(n) for n in lengths]
        scale = 1.0 / np.sqrt(self.config.head_dim)
        d_model = self.config.d_model
        for layer in range(self.config.n_layers):
            prefix = f"layers.{layer}"
            normed = self._norm(hidden, f"{prefix}.attn_norm")  # [N, C]
            queries = self._split_heads(normed @ self.params[f"{prefix}.wq"])  # [H, N, d]
            if self.config.positional == "rope":
                queries = apply_rope(queries, flat_pos, self._rope_cos, self._rope_sin)
            keys_new, values_new = self._project_kv(normed, layer, flat_pos)
            context = self._ws.get("chunk.context", (int(bounds[-1]), d_model))
            for b, sl in enumerate(slices):
                cache = caches_batch[b][layer]
                q_b, k_b, v_b = queries[:, sl], keys_new[:, sl], values_new[:, sl]
                if positions[b] == 0:
                    probs = softmax(q_b @ k_b.swapaxes(-1, -2) * scale + masks[b], axis=-1)
                    cache.prefill(k_b, v_b, normed[sl], probs)
                    ctx = probs @ v_b  # [H, n, d]
                else:
                    ctx = self._attend_chunk(cache, q_b, k_b, v_b, masks[b], scale)
                    cache.extend_chunk(k_b, v_b, normed[sl], flat_pos[sl])
                context[sl] = np.moveaxis(ctx, 0, -2).reshape(lengths[b], d_model)
            hidden = hidden + context @ self.params[f"{prefix}.wo"]
            normed = self._norm(hidden, f"{prefix}.mlp_norm")
            hidden = hidden + self._mlp(normed, layer)
        if not all_logits:
            hidden = hidden[bounds[1:] - 1]  # each chunk's last position, [B, C]
        logits = self._lm_head(self._norm(hidden, "final_norm"))
        return [logits[sl] for sl in slices] if all_logits else logits

    def prefill_batch(self, token_seqs: Sequence[Sequence[int]],
                      caches_batch: Sequence[list[LayerKVCache]]) -> np.ndarray:
        """Prefill ``B`` ragged prompts into empty caches in one forward.

        ``caches_batch[b]`` is sequence ``b``'s per-layer cache list (as
        built by :meth:`make_caches`, one call per sequence); every cache
        receives its prompt through :meth:`LayerKVCache.prefill` with the
        prompt's attention probabilities.  Caches that already hold tokens
        are rejected (continue them with :meth:`prefill_chunk`).  Returns
        the last position's logits per sequence, shape ``[B, vocab]``.
        """
        return self._forward_chunks(token_seqs, [0] * len(token_seqs), caches_batch,
                                    all_logits=False)

    def prefill_chunk(self, tokens: Sequence[int], position: int,
                      caches: list[LayerKVCache]) -> np.ndarray:
        """Prefill a *chunk* of context starting at absolute ``position``.

        The chunk's queries attend causally to everything already in the
        caches (positions ``0..position-1``) plus the chunk itself, exactly
        as the corresponding rows of a whole-prompt prefill would — this is
        what lets the serving engine split a long prompt into
        token-budgeted pieces (chunked prefill) or resume after a shared
        prefix restored from the radix cache.  The caches must hold exactly
        ``position`` tokens; at ``position > 0`` they must support chunked
        prefill (``full``/``paged``).

        Returns the logits of the chunk's last position (shape ``[vocab]``).
        """
        return self._forward_chunks([tokens], [position], [caches], all_logits=False)[0]

    def verify_chunk_batch(self, token_chunks: Sequence[Sequence[int]],
                           positions: Sequence[int],
                           caches_batch: Sequence[list[LayerKVCache]],
                           ) -> list[np.ndarray]:
        """Score ``B`` ragged speculation chunks in one forward.

        ``token_chunks[b]`` is sequence ``b``'s next input token followed by
        the drafter's proposed continuation, starting at absolute position
        ``positions[b]`` (its caches' token count).  Returns one
        ``[len(chunk_b), vocab]`` logits array per sequence: row ``i`` is
        what ``i + 1`` sequential decode steps feeding ``chunk_b[: i + 1]``
        would produce, so the caller can find the longest accepted proposal
        prefix and the first-mismatch token.  Every cache is extended with
        its full chunk; the caller rolls rejected positions back via
        :meth:`LayerKVCache.truncate`.
        """
        return self._forward_chunks(token_chunks, positions, caches_batch, all_logits=True)

    # ------------------------------------------------------------------
    # Batched decode (ragged sequences, per-sequence caches)
    # ------------------------------------------------------------------
    def _fused_decode_groups(self, caches_batch: Sequence[list[LayerKVCache]],
                             ) -> tuple[list[list[int]], list[list[int]], list[int]]:
        """Partition sequence indices into fused-attention groups by layout.

        Returns ``(paged_groups, contig_groups, loose)``.  A *paged* group
        shares every per-layer :class:`~repro.core.kv_pool.KVPagePool`, so
        one page-table gather plus one length-masked BLAS matmul per layer
        serves the whole (possibly ragged) group.  A *contig* group holds
        equal-length full-prefix caches (``fused_kind == "contig"``) whose
        fetch views stack without padding, keeping every BLAS slice
        bit-identical to the per-sequence path.  Everything else — eviction
        policies that consume ``observe_attention``, mixed per-layer kinds —
        stays on the per-sequence fallback (``loose``), as do singleton
        groups, for which the gather copy buys nothing.
        """
        paged: dict[tuple[int, ...], list[int]] = {}
        contig: dict[int, list[int]] = {}
        loose: list[int] = []
        for b, caches in enumerate(caches_batch):
            kind = caches[0].fused_kind if caches else None
            if kind is not None and any(c.fused_kind != kind for c in caches):
                kind = None
            if kind == "paged":
                paged.setdefault(tuple(id(c.pool) for c in caches), []).append(b)
            elif kind == "contig":
                n_tokens = caches[0].num_tokens
                if any(c.num_tokens != n_tokens for c in caches):
                    loose.append(b)  # uneven layers: not stackable this step
                else:
                    contig.setdefault(n_tokens, []).append(b)
            else:
                loose.append(b)
        paged_groups: list[list[int]] = []
        contig_groups: list[list[int]] = []
        for rows in paged.values():
            if len(rows) > 1:
                paged_groups.append(rows)
            else:
                loose.extend(rows)
        for rows in contig.values():
            if len(rows) > 1:
                contig_groups.append(rows)
            else:
                loose.extend(rows)
        return paged_groups, contig_groups, loose

    def _fused_state(self, layer: int, caches: list[LayerKVCache]) -> _FusedGroupBuffer:
        """The persistent group buffer for this exact (layer, member) tuple."""
        key = (layer, tuple(id(cache) for cache in caches))
        state = self._fused_states.get(key)
        if state is None:
            state = _FusedGroupBuffer(caches)
            self._fused_states[key] = state
        state.last_used = self._fused_clock
        return state

    @staticmethod
    def _buffer_current(state: _FusedGroupBuffer, caches: list[LayerKVCache],
                        n_max: int) -> bool:
        """True iff every member advanced by exactly one appended token.

        ``write_epoch`` catches mutations of already-stored tokens (rollback,
        release, checkpoint import); the exact ``+1`` length check catches
        multi-token catch-up (chunked prefill, a step spent on the loose
        path) and group-membership drift across an absence.  Capacity
        overflow also restacks — into freshly doubled buffers.
        """
        if state.keys is None or state.keys.shape[2] < n_max:
            return False
        epochs, lengths = state.epochs, state.lengths
        for g, cache in enumerate(caches):
            if cache.write_epoch != epochs[g] or cache.num_tokens != lengths[g] + 1:
                return False
        return True

    @staticmethod
    def _softmax_inplace(scores: np.ndarray) -> np.ndarray:
        """Softmax over the last axis, in place in a workspace buffer.

        The exact op sequence of :func:`~repro.llm.functional.softmax`
        (subtract row-max, exp, divide by row-sum) so fused logits stay
        bit-identical to the per-sequence path — just without allocating
        the three score-sized temporaries every step.
        """
        m = np.maximum.reduce(scores, axis=-1, keepdims=True)
        np.subtract(scores, m, out=scores)
        np.exp(scores, out=scores)
        s = np.add.reduce(scores, axis=-1, keepdims=True)
        np.divide(scores, s, out=scores)
        return scores

    def _grow_buffers(self, state: _FusedGroupBuffer, n_groups: int,
                      n_needed: int) -> None:
        """(Re)allocate group stacks to a power-of-two token capacity."""
        n_heads, head_dim = self.config.n_heads, self.config.head_dim
        capacity = 64
        while capacity < n_needed:
            capacity *= 2
        state.keys = np.empty((n_groups, n_heads, capacity, head_dim), dtype=np.float32)
        state.values = np.zeros((n_groups, n_heads, capacity, head_dim), dtype=np.float32)

    def _attend_paged_group(self, rows: list[int], layer: int,
                            caches_batch: Sequence[list[LayerKVCache]],
                            query: np.ndarray, keys_new: np.ndarray,
                            values_new: np.ndarray, context: np.ndarray,
                            scale: float) -> None:
        """Paged-attention for one group: incremental stacks, mask, matmul.

        Appends every row's new K/V straight into pool pages, then extends
        the group's persistent ``[G, H, cap, d]`` stacks with one ``[H, d]``
        write per row — read back from the tail page slot so fp16 pools
        contribute their *stored* (rounded) values, exactly as a full
        re-gather would.  Only when the buffer went stale (rollback,
        preemption, first use, capacity) does the page-table gather rebuild
        it.  Attention then runs as one batched BLAS matmul per projection
        with a shared length mask replacing per-sequence ``-inf`` patching.
        """
        ws = self._ws
        n_groups = len(rows)
        n_heads, head_dim = self.config.n_heads, self.config.head_dim
        caches = [caches_batch[b][layer] for b in rows]
        state = self._fused_state(layer, caches)
        pool = caches[0].pool
        # Group-major [G, H, d] slices of the new projections: a zero-copy
        # transpose view when the group is the whole batch (the common
        # decode-wave case), a single fancy-indexed copy otherwise.
        if n_groups == query.shape[1]:
            k_rows = keys_new.swapaxes(0, 1)
            v_rows = values_new.swapaxes(0, 1)
            q_rows = query.swapaxes(0, 1)
        else:
            k_rows = keys_new[:, rows].swapaxes(0, 1)
            v_rows = values_new[:, rows].swapaxes(0, 1)
            q_rows = query[:, rows].swapaxes(0, 1)
        # Reserve one tail-page slot per row (bookkeeping only), then land
        # the whole group's new K/V with two batched pool scatters.
        pages = ws.get("fused.pages", (n_groups,), np.intp)
        offsets = ws.get("fused.offsets", (n_groups,), np.intp)
        for g, cache in enumerate(caches):
            pages[g], offsets[g] = cache.reserve_slot()
        pool.scatter_tokens(pages, offsets, k_rows, v_rows)
        lengths = [cache.num_tokens for cache in caches]
        n_max = max(lengths)
        n_min = min(lengths)
        if pool.dtype == np.float32:
            k_stored, v_stored = k_rows, v_rows
        else:
            # Round-trip through the pool dtype: the stacks must hold what
            # the pages hold (same cast the scatter assignment applied).
            k_stored = k_rows.astype(pool.dtype).astype(np.float32)
            v_stored = v_rows.astype(pool.dtype).astype(np.float32)
        if self._buffer_current(state, caches, n_max):
            skeys, svalues = state.keys, state.values
            if n_min == n_max:  # uniform: one slice assignment per stack
                skeys[:, :, n_max - 1] = k_stored
                svalues[:, :, n_max - 1] = v_stored
            else:
                rows_idx = np.arange(n_groups)
                tails = np.array(lengths, dtype=np.intp) - 1
                skeys[rows_idx, :, tails] = k_stored
                svalues[rows_idx, :, tails] = v_stored
            state.lengths = list(lengths)
        else:
            page_tokens = pool.page_tokens
            pages_max = -(-n_max // page_tokens)  # ceil
            n_gather = pages_max * page_tokens
            if state.keys is None or state.keys.shape[2] < n_gather:
                self._grow_buffers(state, n_groups, n_gather)
            skeys, svalues = state.keys, state.values
            tables = ws.get("fused.tables", (n_groups, pages_max), np.intp)
            for g, cache in enumerate(caches):
                row_pages = cache.page_list()
                tables[g, :len(row_pages)] = row_pages
                tables[g, len(row_pages):] = 0  # padded with a live page; masked
            pool.gather_pages(tables, skeys[:, :, :n_gather], svalues[:, :, :n_gather])
            for g, n_tokens in enumerate(lengths):
                # Restore the zero-beyond-length invariant to full capacity:
                # page-granular gather garbage and stale pre-restack values
                # must never reach the V matmul (0·NaN poisons real outputs)
                # and zero K keeps the masked score matmul NaN-free.
                skeys[g, :, n_tokens:] = 0.0
                svalues[g, :, n_tokens:] = 0.0
            state.epochs = [cache.write_epoch for cache in caches]
            state.lengths = list(lengths)
        keys = skeys[:, :, :n_max]
        values = svalues[:, :, :n_max]
        scores = np.matmul(
            keys, q_rows[:, :, :, None],
            out=ws.get("fused.scores", (n_groups, n_heads, n_max, 1)))[..., 0]
        scores *= scale  # [G, H, n_max]
        if n_min != n_max:
            padmask = ws.get("fused.padmask", (n_groups, n_max), np.bool_)
            for g, n_tokens in enumerate(lengths):
                padmask[g, :n_tokens] = False
                padmask[g, n_tokens:] = True
            # Overwrite (not add): garbage-K scores may be NaN/inf.
            np.copyto(scores, -np.inf, where=padmask[:, None, :])
        probs = self._softmax_inplace(scores)  # padding rows -> exactly 0
        ctx = np.matmul(probs[:, :, None, :], values,
                        out=ws.get("fused.ctx", (n_groups, n_heads, 1, head_dim)))
        context[rows] = ctx.reshape(n_groups, n_heads * head_dim)

    def _attend_contig_group(self, rows: list[int], layer: int,
                             caches_batch: Sequence[list[LayerKVCache]],
                             query: np.ndarray, keys_new: np.ndarray,
                             values_new: np.ndarray, normed: np.ndarray,
                             positions: np.ndarray, context: np.ndarray,
                             scale: float) -> None:
        """Stacked attention for an equal-length contiguous-cache group.

        Appends through each cache's own ``append`` (so e.g. quantized
        caches still apply their storage transform), then extends the
        persistent group stacks with each cache's newest *stored* token —
        read back from its zero-copy fetch view, so quantization round-trips
        land in the stacks bit-for-bit.  A stale buffer is restacked from
        whole fetch views.  No padding exists (the group is equal-length by
        construction), so every BLAS slice is the same op the per-sequence
        path would issue — results are bit-identical.
        """
        ws = self._ws
        n_groups = len(rows)
        n_heads, head_dim = self.config.n_heads, self.config.head_dim
        caches = [caches_batch[b][layer] for b in rows]
        state = self._fused_state(layer, caches)
        for g, b in enumerate(rows):
            caches[g].append(keys_new[:, b, :], values_new[:, b, :], normed[b],
                             int(positions[b]))
        n_tokens = caches[0].num_tokens
        if n_groups == query.shape[1]:
            q_rows = query.swapaxes(0, 1)  # zero-copy whole-batch view
        else:
            q_rows = query[:, rows].swapaxes(0, 1)
        if self._buffer_current(state, caches, n_tokens):
            skeys, svalues = state.keys, state.values
            if state.store_identity:
                # Verbatim storage: extend the stacks straight from the
                # batched projections — one slice assignment per stack.
                if n_groups == query.shape[1]:
                    skeys[:, :, n_tokens - 1] = keys_new.swapaxes(0, 1)
                    svalues[:, :, n_tokens - 1] = values_new.swapaxes(0, 1)
                else:
                    skeys[:, :, n_tokens - 1] = keys_new[:, rows].swapaxes(0, 1)
                    svalues[:, :, n_tokens - 1] = values_new[:, rows].swapaxes(0, 1)
            else:
                # Quantizing members: read each newly *stored* token back so
                # the stacks hold the round-tripped values bit-for-bit.
                for g, cache in enumerate(caches):
                    keys_g, values_g, _valid = cache.fetch()  # zero-copy views
                    skeys[g, :, n_tokens - 1] = keys_g[:, n_tokens - 1]
                    svalues[g, :, n_tokens - 1] = values_g[:, n_tokens - 1]
            state.lengths = [n_tokens] * n_groups
        else:
            if state.keys is None or state.keys.shape[2] < n_tokens:
                self._grow_buffers(state, n_groups, n_tokens)
            skeys, svalues = state.keys, state.values
            for g, cache in enumerate(caches):
                keys_g, values_g, _valid = cache.fetch()  # all-valid by contract
                skeys[g, :, :n_tokens] = keys_g
                svalues[g, :, :n_tokens] = values_g
            state.epochs = [cache.write_epoch for cache in caches]
            state.lengths = [n_tokens] * n_groups
        scores = np.matmul(
            skeys[:, :, :n_tokens], q_rows[:, :, :, None],
            out=ws.get("fused.scores", (n_groups, n_heads, n_tokens, 1)))[..., 0]
        scores *= scale  # [G, H, n]
        probs = self._softmax_inplace(scores)
        ctx = np.matmul(probs[:, :, None, :], svalues[:, :, :n_tokens],
                        out=ws.get("fused.ctx", (n_groups, n_heads, 1, head_dim)))
        context[rows] = ctx.reshape(n_groups, n_heads * head_dim)

    def decode_step_batch(self, tokens: Sequence[int], positions: Sequence[int],
                          caches_batch: Sequence[list[LayerKVCache]],
                          fused: bool = True) -> np.ndarray:
        """Decode one token for each of ``B`` sequences in one forward pass.

        ``tokens[b]`` is sequence ``b``'s newest token at absolute position
        ``positions[b]``; ``caches_batch[b]`` its per-layer caches.  The dense
        projections (QKV, output, MLP, LM head) run batched over ``B``.

        With ``fused=True`` (the default) the attention reads are batched
        too: sequences whose caches expose a fused layout (paged caches
        sharing pool geometry; equal-length contiguous full caches) are
        grouped by :meth:`_fused_decode_groups` and each group runs as one
        gathered, length-masked BLAS attention call per layer — paged-
        attention style — instead of per-sequence GEMVs.  Sequences whose
        caches need per-token attention feedback (``observe_attention``-
        driven eviction policies) automatically keep the per-sequence
        fallback, which reads each cache's zero-copy ``fetch`` views.
        ``fused=False`` forces the fallback for everything — the pre-fusion
        reference path used by equivalence tests and benchmarks.  Either
        way each sequence's logits match decoding it alone (``B = 1``).

        Returns logits of shape ``[B, vocab]``.
        """
        tokens = np.asarray(tokens, dtype=np.int64)
        positions = np.asarray(positions, dtype=np.int64)
        if tokens.ndim != 1 or tokens.size == 0 or tokens.shape != positions.shape:
            raise ValueError("tokens and positions must be equal-length non-empty 1-D")
        if len(caches_batch) != tokens.size:
            raise ValueError("caches_batch must hold one cache list per sequence")
        batch = tokens.size
        hidden = self.params["embed.weight"][tokens].astype(np.float32)  # [B, C]
        if self.config.positional == "learned":
            hidden = hidden + self.params["pos_embed.weight"][positions]
        scale = 1.0 / np.sqrt(self.config.head_dim)
        if fused and batch > 1:
            self._fused_clock += 1
            paged_groups, contig_groups, loose = self._fused_decode_groups(caches_batch)
        else:
            paged_groups, contig_groups = [], []
            loose = list(range(batch))
        for layer in range(self.config.n_layers):
            prefix = f"layers.{layer}"
            normed = self._norm(hidden, f"{prefix}.attn_norm")  # [B, C]
            d_model = self.config.d_model
            qkv = normed @ self._qkv_weight(layer)  # [B, 3C], one GEMM
            query = self._split_heads(qkv[:, :d_model])  # [H, B, d] view-reshape
            keys_new = self._split_heads(qkv[:, d_model:2 * d_model])
            values_new = self._split_heads(qkv[:, 2 * d_model:])
            if self.config.positional == "rope":
                query = apply_rope(query, positions, self._rope_cos, self._rope_sin)
                keys_new = apply_rope(keys_new, positions, self._rope_cos, self._rope_sin)
            context = self._ws.get("decode.context", (batch, self.config.d_model))
            for rows in contig_groups:
                self._attend_contig_group(rows, layer, caches_batch, query, keys_new,
                                          values_new, normed, positions, context, scale)
            for rows in paged_groups:
                self._attend_paged_group(rows, layer, caches_batch, query, keys_new,
                                         values_new, context, scale)
            for b in loose:
                cache = caches_batch[b][layer]
                cache.append(keys_new[:, b, :], values_new[:, b, :], normed[b],
                             int(positions[b]))
                keys, values, valid = cache.fetch()  # zero-copy views, ragged n_b
                scores = (keys @ query[:, b, :, None])[:, :, 0] * scale  # [H, n_b]
                if not valid.all():
                    scores = np.where(valid, scores, -np.inf)
                probs = softmax(scores, axis=-1)
                cache.observe_attention(probs)
                context[b] = ((probs[:, None, :] @ values)[:, 0, :]
                              .reshape(self.config.d_model))
            hidden = hidden + context @ self.params[f"{prefix}.wo"]
            normed = self._norm(hidden, f"{prefix}.mlp_norm")
            hidden = hidden + self._mlp(normed, layer)
        for caches in caches_batch:
            for cache in caches:
                cache.end_step()
        if self._fused_states:
            # Drop group buffers whose exact membership has not decoded for a
            # few steps (a member finished or was preempted, so the key will
            # never recur) — they pin released caches and big K/V stacks.
            clock = self._fused_clock
            stale = [key for key, state in self._fused_states.items()
                     if clock - state.last_used > 4]
            for key in stale:
                del self._fused_states[key]
        hidden = self._norm(hidden, "final_norm")
        return self._lm_head(hidden)

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def num_params(self) -> int:
        """Total number of scalar parameters."""
        return int(sum(p.size for p in self.params.values()))

    def copy_with_params(self, params: dict[str, np.ndarray]) -> "DecoderLM":
        """Return a model sharing this config with replacement parameters."""
        return DecoderLM(self.config, params=params)

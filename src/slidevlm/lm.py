"""Tokenizer, multimodal sequence assembly, and a tiny causal decoder.

Sequences carry a visual prefix: [IMG_START, v_1..v_N, IMG_END, BOS,
prompt..., answer..., EOS]. A sequence holds the token ids of its text
rows alone, BOS onward; the prefix rows' inputs are the image marks and
the visual tokens. The loss mask covers the answer span plus EOS only.
Every position attends causally, the position at i to those at 0..i, so
the prefix rows (IMG_START, visual tokens, IMG_END) never see text: their
keys and values depend only on the visual tokens and the weights.

Training and decoding share one path. A prefix pass runs the prefix rows
through the blocks and keeps each block's keys and values; in the last
block, whose prefix outputs nothing reads, it computes only those. The
text rows then run against that cache. Only text rows have logits.
Keys are transposed per head, [H, dh, positions], from the key projection
on: on the tape, in the cache and in the decode buffer alike, so the one
attention op scores them where they lie. Its mask is one causal offset:
0 for the prefix rows and m for rows from position m on. It scores a
block of query rows at a time over the keys that block can see and tapes
no weights, so the prefix pass tapes O(N·d) values per decoder block, not
its [H, N, N] weights.

Generation is greedy with ties broken by the lowest token id, and keeps
no autodiff tape. Each request decodes into a key/value buffer of its
own, sized to the text rows it can reach and filled once with a copy of
the prefix rows' cache, which stays unwritten. One prefill forward over
BOS and the prompt writes its rows in place, then each further token is
the sequence grown by that token, whose forward runs one row and writes
one. The attention trace, from each generated token to every visual
position, comes from one more forward that rewinds the buffer to the end
of the prompt and reruns just the generated rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .interpret import AttentionTrace
from .layers import HeadProjections, Linear, PostNormBlock
from .numerics import (
    Parameter,
    Tensor,
    UsageError,
    attention,
    concat,
    cross_entropy,
    no_grad,
    stream,
    take_rows,
)

__all__ = [
    "Vocab",
    "MultimodalSequence",
    "DecoderConfig",
    "DecoderLM",
    "KVCache",
    "assemble",
]

SPECIALS = ("<pad>", "<bos>", "<eos>", "<unk>", "<img>", "</img>")
PAD, BOS, EOS, UNK, IMG_START, IMG_END = range(6)


class Vocab:
    """Whitespace word vocabulary with reserved special tokens.

    Plain text never tokenizes to a special id: a word that spells a
    special token maps to UNK like any other out-of-vocabulary word.
    Texts are sequences of vocabulary words separated by single spaces;
    over that alphabet encode/decode round-trip exactly.
    """

    def __init__(self, words: list[str]):
        self._tokens = list(SPECIALS)
        self._ids = {t: i for i, t in enumerate(self._tokens)}
        for w in words:
            self._add(w)

    def _add(self, w: str, where: str = "") -> None:
        """Append `w`; `where` prefixes the error of a word it rejects."""
        if w in SPECIALS:
            raise UsageError(f"{where}{w!r} collides with a special token")
        if not w or any(c.isspace() for c in w):
            raise UsageError(f"{where}invalid vocabulary word {w!r}")
        if w in self._ids:
            raise UsageError(f"{where}duplicate vocabulary word {w!r}")
        self._ids[w] = len(self._tokens)
        self._tokens.append(w)

    @staticmethod
    def build(corpus) -> "Vocab":
        words = set()
        for text in corpus:
            words.update(text.split())
        return Vocab(sorted(w for w in words if w not in SPECIALS))

    def __len__(self) -> int:
        return len(self._tokens)

    def token(self, idx: int) -> str:
        return self._tokens[idx]

    def encode(self, text: str) -> list[int]:
        return [self._ids.get(w, UNK) if w not in SPECIALS else UNK for w in text.split()]

    def decode(self, ids) -> str:
        # Specials render literally; an untrained model may emit them.
        return " ".join(self._tokens[i] for i in ids)

    def save(self, path) -> None:
        Path(path).write_text("\n".join(self._tokens) + "\n", encoding="utf-8")

    @staticmethod
    def load(path) -> "Vocab":
        try:
            tokens = Path(path).read_text(encoding="utf-8").splitlines()
        except UnicodeDecodeError as exc:
            raise UsageError(f"{path}: vocab file is not UTF-8: {exc}") from exc
        if tuple(tokens[: len(SPECIALS)]) != SPECIALS:
            raise UsageError(f"{path}: vocab file missing special-token header")
        vocab = Vocab([])
        for lineno, w in enumerate(tokens[len(SPECIALS) :], start=len(SPECIALS) + 1):
            vocab._add(w, where=f"{path}:{lineno}: ")
        return vocab


@dataclass
class MultimodalSequence:
    """One assembled training or inference example.

    Its positions are the prefix rows (IMG_START, the visual tokens,
    IMG_END), then the text rows. `ids` holds the text rows' token ids,
    [BOS, prompt..., answer..., EOS], and `loss_mask` is true over them
    exactly on the answer span plus its EOS.
    """

    visual: object                 # Tensor or ndarray [N, D_lm]
    prompt_ids: list[int]
    answer_ids: list[int] | None
    n_visual: int = field(init=False)
    ids: np.ndarray = field(init=False)
    loss_mask: np.ndarray = field(init=False)

    def __post_init__(self):
        data = self.visual.data if isinstance(self.visual, Tensor) else np.asarray(self.visual)
        if data.ndim != 2 or data.shape[0] < 1:
            raise UsageError("visual tokens must form a non-empty [N, D] matrix")
        if not self.prompt_ids:
            raise UsageError("prompt must not be empty")
        self.n_visual = data.shape[0]
        ids = [BOS, *self.prompt_ids]
        mask = [False] * len(ids)
        if self.answer_ids is not None:
            ids += [*self.answer_ids, EOS]
            mask += [True] * (len(self.answer_ids) + 1)
        self.ids = np.array(ids, dtype=np.int64)
        self.loss_mask = np.array(mask, dtype=bool)

    @property
    def total_len(self) -> int:
        return self.n_prefix + self.ids.size

    @property
    def n_prefix(self) -> int:
        """Positions up to and including IMG_END, the rows of the prefix
        pass; also the index of BOS, where learned positions begin."""
        return self.n_visual + 2

    def visual_slice(self) -> slice:
        return slice(1, 1 + self.n_visual)


def assemble(visual, prompt: str, answer: str | None, vocab: Vocab) -> MultimodalSequence:
    """Tokenize prompt/answer around the visual span."""
    answer_ids = None if answer is None else vocab.encode(answer)
    return MultimodalSequence(visual, vocab.encode(prompt), answer_ids)


def text_positions(prompt: str, answer: str) -> int:
    """Learned positions of a training sequence: BOS, each word, EOS."""
    return len(prompt.split()) + len(answer.split()) + 2


@dataclass
class DecoderConfig:
    """Decoder shape; the vocabulary size comes from the vocabulary."""

    heads: int = 4
    head_dim: int = 32
    layers: int = 2
    ffn_mult: int = 4
    max_positions: int = 256

    def __post_init__(self):
        if min(self.heads, self.head_dim, self.ffn_mult, self.max_positions) < 1 or self.layers < 0:
            raise UsageError("heads, head_dim, ffn_mult, max_positions must be >= 1, layers >= 0")

    @property
    def dim(self) -> int:
        return self.heads * self.head_dim


@dataclass
class KVCache:
    """Keys and values of the first `length` positions, one entry per
    decoder block.

    The prefix pass leaves a [k_t, v] pair in each entry: the keys
    transposed, [H, dh, length], and the values, [H, length, dh]. Built
    with grad on, they are on the tape, so a loss over later rows trains
    the prefix through them; a forward over more rows joins those rows'
    keys and values on. A decode request runs in
    `buffer(capacity)` instead, whose entries each preallocate keys stored
    transposed, [H, dh, capacity], and values, [H, capacity, dh]; a forward
    writes its rows at `length` in place and attends to the filled views.
    """

    length: int
    kv: list

    def buffer(self, capacity: int) -> "KVCache":
        """A decode buffer of `capacity` positions that holds a copy of
        this cache; this cache is never written through it."""
        if capacity < self.length:
            raise UsageError(f"a buffer of {capacity} positions cannot hold {self.length}")
        return KVCache(self.length, [_InPlaceKV(k_t, v, capacity) for k_t, v in self.kv])


class _InPlaceKV:
    """One block's entry of a decode buffer: keys stored transposed,
    [H, dh, capacity], and values, [H, capacity, dh]."""

    def __init__(self, k_t: Tensor, v: Tensor, capacity: int):
        heads, dh, rows = k_t.shape
        self.keys_t = np.empty((heads, dh, capacity))
        self.keys_t[..., :rows] = k_t.data
        self.values = np.empty((heads, capacity, dh))
        self.values[:, :rows] = v.data

    def extend(self, k_t: Tensor, v: Tensor, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """Write the keys and values of the rows before `stop` after the
        cached ones; return views of every filled position's."""
        if stop > self.values.shape[1]:
            raise UsageError(f"decode buffer holds {self.values.shape[1]} positions, not {stop}")
        rows = slice(stop - v.shape[1], stop)
        self.keys_t[..., rows] = k_t.data
        self.values[:, rows] = v.data
        return self.keys_t[..., :stop], self.values[:, :stop]


class _MaskedSelfAttention(HeadProjections):
    """Multi-head causal attention over rows at positions `causal` on.

    The rows of `x` come after the `causal` positions cached in `past`,
    this block's [k_t, v] cache entry (empty before the first rows): the
    row at position i attends to those at 0..i, and `past` then holds the
    keys and values of all of them. A decode buffer's entry takes the rows'
    keys and values in place, at positions `causal` on.
    """

    def __call__(self, x: Tensor, causal: int, capture: list | None, past) -> Tensor:
        q, v = self.project(x, self.wq, self.wv)
        k_t = self.keys_t(x)
        if isinstance(past, _InPlaceKV):
            k_t, v = past.extend(k_t, v, causal + x.shape[0])
        else:
            if past:
                k_t, v = concat([past[0], k_t], axis=2), concat([past[1], v], axis=1)
            past[:] = [k_t, v]
        out, _ = attention(q, k_t, v, causal=causal, capture=capture)
        return self.merge(out)


class DecoderLM:
    """Tiny decoder-only transformer over multimodal sequences.

    Learned absolute positions apply to the text span (BOS onward); the
    visual tokens are position-free and ordered by patch index.
    """

    GROUP = "lm"

    def __init__(self, cfg: DecoderConfig, vocab_size: int, seed: int = 0):
        if vocab_size < len(SPECIALS):
            raise UsageError("vocab must at least hold the special tokens")
        self.cfg = cfg
        rng = stream(seed, "lm")
        dim = cfg.dim
        scale = 1.0 / math.sqrt(dim)
        self.tok_embed = Parameter(
            f"{self.GROUP}.tok_embed", rng.uniform(-scale, scale, size=(vocab_size, dim))
        )
        self.pos_embed = Parameter(
            f"{self.GROUP}.pos_embed", rng.uniform(-scale, scale, size=(cfg.max_positions, dim))
        )
        self.blocks = [
            PostNormBlock(
                f"{self.GROUP}.block{i}",
                _MaskedSelfAttention(f"{self.GROUP}.block{i}.attn", dim, cfg.heads, rng),
                dim,
                cfg.ffn_mult,
                rng,
            )
            for i in range(cfg.layers)
        ]
        self.head = Linear(f"{self.GROUP}.head", dim, vocab_size, rng)

    def params(self) -> list[Parameter]:
        out = [self.tok_embed, self.pos_embed]
        for block in self.blocks:
            out.extend(block.params())
        out.extend(self.head.params())
        return out

    def _visual_rows(self, visual) -> Tensor:
        """Input rows 0..N+1: IMG_START, the visual tokens, IMG_END."""
        if not isinstance(visual, Tensor):
            visual = Tensor(np.asarray(visual, dtype=np.float64))
        if visual.shape[1] != self.cfg.dim:
            raise UsageError(
                f"visual token dim {visual.shape[1]} != model dim {self.cfg.dim}"
            )
        marks = take_rows(self.tok_embed.value, [IMG_START, IMG_END])
        return concat([marks.rows(0, 1), visual, marks.rows(1, 2)], axis=0)

    def _prefix_pass(self, visual) -> KVCache:
        """The cache of rows 0..N+1 (IMG_START, the visual tokens, IMG_END),
        on the tape when grad is on.

        Those rows attend causally among themselves. Nothing reads their
        outputs of the last block, so there they get only keys and values.
        """
        x = self._visual_rows(visual)
        kv: list[list[Tensor]] = [[] for _ in self.blocks]
        for block, past in zip(self.blocks[:-1], kv):
            x = block(x, 0, None, past)
        if self.blocks:
            attn = self.blocks[-1].attn
            kv[-1][:] = [attn.keys_t(x), *attn.project(x, attn.wv)]
        return KVCache(x.shape[0], kv)

    @no_grad()
    def prefix_cache(self, visual) -> KVCache:
        """The prefix pass without a tape. The prefix rows never attend to
        text, so every prompt about one slide can start from this cache."""
        return self._prefix_pass(visual)

    def forward(
        self,
        seq: MultimodalSequence,
        capture_attention: bool = False,
        cache: KVCache | None = None,
    ) -> tuple[Tensor, list[np.ndarray] | None]:
        """Logits [T - m, V] for rows m..T-1 and, when asked, per-layer
        [H, T - m, T] attention; m is the cache's length, from the
        prefix's up to T. Without a cache the prefix pass makes one, so the
        rows are the text rows, BOS onward. A decode step is the sequence
        grown by one token over a cache of all rows but its last.

        The rows attend to the m cached positions, and the cache then
        holds all T.
        """
        p, t = seq.n_prefix, seq.total_len
        if t - p > self.cfg.max_positions:
            raise UsageError(f"text span {t - p} exceeds max positions {self.cfg.max_positions}")
        if cache is None:
            cache = self._prefix_pass(seq.visual)
        start = cache.length
        if not p <= start <= t:
            raise UsageError(f"cache holds {start} rows; the sequence has {p} prefix rows, {t} in all")
        # Text rows carry a token plus a position counted from BOS.
        x = take_rows(self.tok_embed.value, seq.ids[start - p :]) + take_rows(
            self.pos_embed.value, range(start - p, t - p)
        )
        capture: list | None = [] if capture_attention else None
        for block, past in zip(self.blocks, cache.kv):
            x = block(x, start, capture, past)
        cache.length = t
        return self.head(x), capture

    def loss(self, seq: MultimodalSequence) -> Tensor:
        """Mean cross-entropy of next-token prediction over the answer span."""
        if seq.answer_ids is None:
            raise UsageError("loss needs a sequence with an answer")
        logits, _ = self.forward(seq)
        return cross_entropy(logits.rows(0, seq.ids.size - 1), seq.ids[1:], seq.loss_mask[1:])

    @no_grad()
    def generate(
        self,
        seq: MultimodalSequence,
        max_len: int = 32,
        capture_attention: bool = True,
        prefix: KVCache | None = None,
    ) -> tuple[list[int], AttentionTrace | None]:
        """Greedy decode; returns generated ids (EOS excluded) and the trace.

        Decoding runs in a buffer of its own filled with one copy of
        `prefix`, the `prefix_cache` of the sequence's visual tokens
        (computed here when not given), so the prefill runs only BOS and
        the prompt, and each step, the sequence grown by one token, runs
        that token's row alone. Decoding stops after `max_len` tokens or
        once BOS, the prompt and the answer fill `max_positions`.
        """
        if max_len < 1:
            raise UsageError("max_len must be >= 1")
        if seq.answer_ids is not None:
            raise UsageError("generation starts from a sequence without an answer")
        p, m = seq.n_prefix, seq.total_len
        if m - p >= self.cfg.max_positions:
            raise UsageError(
                f"BOS and the prompt take {m - p} text positions of max positions "
                f"{self.cfg.max_positions}, leaving none for an answer"
            )
        max_len = min(max_len, self.cfg.max_positions - (m - p))
        if prefix is None:
            prefix = self.prefix_cache(seq.visual)
        if prefix.length != p:
            raise UsageError(f"prefix cache holds {prefix.length} rows, not {p}")
        # The trace forward reaches row m + max_len - 1, the furthest any forward here runs.
        cache = prefix.buffer(m + max_len)
        logits, _ = self.forward(seq, cache=cache)  # prefill BOS and the prompt
        generated: list[int] = []
        while (next_id := int(np.argmax(logits.data[-1]))) != EOS:
            generated.append(next_id)
            if len(generated) == max_len:
                break
            step = MultimodalSequence(seq.visual, seq.prompt_ids + generated, None)
            logits, _ = self.forward(step, cache=cache)
        if not capture_attention:
            return generated, None
        cache.length = m  # rerun the generated rows after the prompt's
        final = MultimodalSequence(seq.visual, seq.prompt_ids + generated, None)
        _, recorded = self.forward(final, capture_attention=True, cache=cache)
        # [layers, heads, generated, T] -> [generated, layers, heads, visual]
        shape = (self.cfg.layers, self.cfg.heads, len(generated), final.total_len)
        layers = np.array(recorded).reshape(shape)[..., seq.visual_slice()]
        return generated, AttentionTrace(values=layers.transpose(2, 0, 1, 3))

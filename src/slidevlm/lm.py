"""Tokenizer, multimodal sequence assembly, and a tiny causal decoder.

Sequences carry a visual prefix: [IMG_START, v_1..v_N, IMG_END, BOS,
prompt..., answer..., EOS]. The loss mask covers the answer span plus
EOS only. Text positions attend causally; every text position sees every
visual position; visual positions attend bidirectionally among
themselves unless the fully-causal flag is set. Generation is greedy
with ties broken by the lowest token id, recording attention from each
generated token to every visual position.
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
    concat,
    cross_entropy,
    masked_softmax,
    stream,
    take_rows,
)

__all__ = [
    "Vocab",
    "MultimodalSequence",
    "DecoderConfig",
    "DecoderLM",
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
        for w in words:
            if w in SPECIALS:
                raise UsageError(f"{w!r} collides with a special token")
            if not w or any(c.isspace() for c in w):
                raise UsageError(f"invalid vocabulary word {w!r}")
        if len(set(words)) != len(words):
            raise UsageError("duplicate vocabulary word")
        self._tokens = list(SPECIALS) + list(words)
        self._ids = {t: i for i, t in enumerate(self._tokens)}

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
        Path(path).write_text("\n".join(self._tokens) + "\n")

    @staticmethod
    def load(path) -> "Vocab":
        tokens = Path(path).read_text().splitlines()
        if tuple(tokens[: len(SPECIALS)]) != SPECIALS:
            raise UsageError(f"{path}: vocab file missing special-token header")
        return Vocab(tokens[len(SPECIALS) :])


@dataclass
class MultimodalSequence:
    """One assembled training or inference example.

    `ids` holds the token id at every position, with visual positions
    set to PAD as placeholders (their content comes from `visual`).
    `loss_mask` is true exactly on the answer span plus its EOS.
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
        tail = [IMG_END, BOS, *self.prompt_ids]
        mask_tail = [False] * len(tail)
        if self.answer_ids is not None:
            tail += [*self.answer_ids, EOS]
            mask_tail += [True] * (len(self.answer_ids) + 1)
        self.ids = np.array([IMG_START] + [PAD] * self.n_visual + tail, dtype=np.int64)
        self.loss_mask = np.array(
            [False] * (1 + self.n_visual) + mask_tail, dtype=bool
        )

    @property
    def total_len(self) -> int:
        return self.ids.size

    @property
    def n_prefix(self) -> int:
        """Positions up to and including IMG_END (the bidirectional block)."""
        return self.n_visual + 2

    @property
    def text_start(self) -> int:
        """Index of BOS, where learned positions begin."""
        return self.n_visual + 2

    def visual_slice(self) -> slice:
        return slice(1, 1 + self.n_visual)


def assemble(visual, prompt: str, answer: str | None, vocab: Vocab) -> MultimodalSequence:
    """Tokenize prompt/answer around the visual span."""
    prompt_ids = vocab.encode(prompt)
    if not prompt_ids:
        raise UsageError("prompt must not be empty")
    answer_ids = None if answer is None else vocab.encode(answer)
    return MultimodalSequence(visual, prompt_ids, answer_ids)


@dataclass
class DecoderConfig:
    vocab_size: int
    heads: int = 4
    head_dim: int = 32
    layers: int = 2
    ffn_mult: int = 4
    max_positions: int = 256
    tied_head: bool = False
    causal_visual: bool = False   # True drops the bidirectional visual block

    def __post_init__(self):
        if self.vocab_size < len(SPECIALS):
            raise UsageError("vocab must at least hold the special tokens")
        if self.heads < 1 or self.head_dim < 1 or self.layers < 0:
            raise UsageError("bad decoder shape")

    @property
    def dim(self) -> int:
        return self.heads * self.head_dim


class _MaskedSelfAttention(HeadProjections):
    """Dense multi-head attention under an arbitrary boolean layout mask."""

    def __call__(self, x: Tensor, allow: np.ndarray, capture: list | None) -> Tensor:
        q, k, v = self.split(x)
        scores = (q @ k.transpose(0, 2, 1)) * (1.0 / math.sqrt(q.shape[-1]))
        att = masked_softmax(scores, np.broadcast_to(allow, scores.shape), axis=-1)
        if capture is not None:
            capture.append(att.data)
        return self.merge(att @ v)


class DecoderLM:
    """Tiny decoder-only transformer over multimodal sequences.

    Learned absolute positions apply to the text span (BOS onward); the
    visual block is position-free and ordered by patch index.
    """

    GROUP = "lm"

    def __init__(self, cfg: DecoderConfig, seed: int = 0):
        self.cfg = cfg
        rng = stream(seed, "lm")
        dim = cfg.dim
        scale = 1.0 / math.sqrt(dim)
        self.tok_embed = Parameter(
            f"{self.GROUP}.tok_embed", rng.uniform(-scale, scale, size=(cfg.vocab_size, dim))
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
        self.head = None
        if not cfg.tied_head:
            self.head = Linear(f"{self.GROUP}.head", dim, cfg.vocab_size, rng)

    def params(self) -> list[Parameter]:
        out = [self.tok_embed, self.pos_embed]
        for block in self.blocks:
            out.extend(block.params())
        if self.head is not None:
            out.extend(self.head.params())
        return out

    def _layout_mask(self, seq: MultimodalSequence) -> np.ndarray:
        t = seq.total_len
        allow = np.tril(np.ones((t, t), dtype=bool))
        if not self.cfg.causal_visual:
            p = seq.n_prefix
            allow[:p, :p] = True
        return allow

    def _embed(self, seq: MultimodalSequence) -> Tensor:
        visual = seq.visual if isinstance(seq.visual, Tensor) else Tensor(np.asarray(seq.visual, dtype=np.float64))
        if visual.shape[1] != self.cfg.dim:
            raise UsageError(
                f"visual token dim {visual.shape[1]} != model dim {self.cfg.dim}"
            )
        tail_ids = seq.ids[seq.n_visual + 1 :].tolist()
        n_text = seq.total_len - seq.text_start
        if n_text > self.cfg.max_positions:
            raise UsageError(
                f"text span {n_text} exceeds max positions {self.cfg.max_positions}"
            )
        start = take_rows(self.tok_embed.value, [IMG_START])
        tail = take_rows(self.tok_embed.value, tail_ids)
        # tail = [IMG_END, BOS, text...]; positions start at BOS.
        img_end = tail.rows(0, 1)
        text = tail.rows(1, tail.shape[0]) + take_rows(self.pos_embed.value, range(n_text))
        return concat([start, visual, img_end, text], axis=0)

    def forward(
        self, seq: MultimodalSequence, capture_attention: bool = False
    ) -> tuple[Tensor, list[np.ndarray] | None]:
        """Logits [T, V] and, when asked, per-layer [H, T, T] attention."""
        x = self._embed(seq)
        allow = self._layout_mask(seq)
        capture: list | None = [] if capture_attention else None
        for block in self.blocks:
            x = block(x, allow, capture)
        if self.head is not None:
            logits = self.head(x)
        else:
            logits = x @ self.tok_embed.value.T
        return logits, capture

    def loss(self, seq: MultimodalSequence) -> Tensor:
        """Mean cross-entropy of next-token prediction over the answer span."""
        if seq.answer_ids is None:
            raise UsageError("loss needs a sequence with an answer")
        logits, _ = self.forward(seq)
        t = seq.total_len
        return cross_entropy(
            logits.rows(0, t - 1), seq.ids[1:], seq.loss_mask[1:]
        )

    def generate(
        self, seq: MultimodalSequence, max_len: int = 32, capture_attention: bool = True
    ) -> tuple[list[int], AttentionTrace | None]:
        """Greedy decode; returns generated ids (EOS excluded) and the trace."""
        if max_len < 1:
            raise UsageError("max_len must be >= 1")
        if seq.answer_ids is not None:
            raise UsageError("generation starts from a sequence without an answer")
        generated: list[int] = []
        hit_eos = False
        for _ in range(max_len):
            probe = MultimodalSequence(seq.visual, seq.prompt_ids, generated)
            # Drop the trailing EOS the assembly appends; it is not input yet.
            probe.ids = probe.ids[:-1]
            probe.loss_mask = probe.loss_mask[:-1]
            logits, _ = self.forward(probe)
            next_id = int(np.argmax(logits.data[-1]))
            if next_id == EOS:
                hit_eos = True
                break
            generated.append(next_id)
        trace = None
        if capture_attention:
            final = MultimodalSequence(seq.visual, seq.prompt_ids, generated)
            if not hit_eos:
                final.ids = final.ids[:-1]
                final.loss_mask = final.loss_mask[:-1]
            _, recorded = self.forward(final, capture_attention=True)
            n = seq.n_visual
            gen_start = final.text_start + 1 + len(seq.prompt_ids)
            rows = []
            for g in range(len(generated)):
                pos = gen_start + g
                rows.append(
                    np.stack([layer[:, pos, 1 : 1 + n] for layer in recorded])
                )
            values = (
                np.stack(rows)
                if rows
                else np.zeros((0, self.cfg.layers, self.cfg.heads, n))
            )
            trace = AttentionTrace(values=values)
        return generated, trace

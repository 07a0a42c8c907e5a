"""Patch featurization, the dilated-attention slide encoder, and the projector.

Three stages: a frozen per-patch featurizer (stand-in for a pretrained
patch model, never trained), a sequence encoder over all patch features
of one slide built from multi-branch dilated attention, and an affine or
two-layer projector into the language model's embedding width. A config
flag can bypass the slide encoder entirely, feeding patch features
straight to the projector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .layers import HeadProjections, Linear, PostNormBlock
from .numerics import (
    Parameter,
    Tensor,
    UsageError,
    concat,
    masked_logsumexp,
    masked_softmax,
    put_rows,
    stream,
    take_rows,
)
from .slide_io import PatchGrid, Raster, box_weights, saturation

__all__ = [
    "EmbeddingMatrix",
    "save_embeddings",
    "load_embeddings",
    "PatchEncoder",
    "SlideEncoderConfig",
    "SlideEncoder",
    "Projector",
    "dilated_branch",
]

EMBEDDINGS_MAGIC = b"SVLMEMB1"


@dataclass
class EmbeddingMatrix:
    """Per-patch feature rows, ordered like the grid's tissue tiles."""

    n_patches: int
    dim: int
    values: np.ndarray  # float64 [N, D]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (self.n_patches, self.dim):
            raise UsageError(
                f"embedding shape {self.values.shape} != ({self.n_patches}, {self.dim})"
            )
        if not np.isfinite(self.values).all():
            raise UsageError("embeddings contain non-finite values")


def save_embeddings(path, emb: EmbeddingMatrix) -> None:
    """Write `magic | u32 N | u32 D | float32-LE values` to disk."""
    header = EMBEDDINGS_MAGIC + np.array([emb.n_patches, emb.dim], dtype="<u4").tobytes()
    Path(path).write_bytes(header + emb.values.astype("<f4").tobytes(order="C"))


def load_embeddings(path, expect_n: int | None = None, expect_dim: int | None = None) -> EmbeddingMatrix:
    data = Path(path).read_bytes()
    if data[:8] != EMBEDDINGS_MAGIC:
        raise UsageError(f"{path}: not an embeddings file")
    n, dim = (int(v) for v in np.frombuffer(data[8:16], dtype="<u4"))
    body = data[16:]
    if len(body) != n * dim * 4:
        raise UsageError(f"{path}: expected {n * dim} float32 values")
    values = np.frombuffer(body, dtype="<f4").reshape(n, dim).astype(np.float64)
    if expect_n is not None and n != expect_n:
        raise UsageError(f"{path}: embedding rows {n} != expected {expect_n}")
    if expect_dim is not None and dim != expect_dim:
        raise UsageError(f"{path}: embedding dim {dim} != expected {expect_dim}")
    if not np.isfinite(values).all():
        raise UsageError(f"{path}: embeddings contain non-finite values")
    return EmbeddingMatrix(n, dim, values)


# -- frozen patch featurizer ---------------------------------------------------


class PatchEncoder:
    """Fixed random projection of pooled patch statistics.

    The projection matrix is drawn once from the seed and marked
    non-trainable; identical patches always map to identical vectors.
    Statistics: per-channel mean and spread, a 4x4 grid of cell means,
    and two saturation summaries, 56 values in total.
    """

    N_STATS = 56

    def __init__(self, dim: int = 32, patch_size: int = 224, seed: int = 0):
        if dim < 1 or patch_size < 1:
            raise UsageError("dim and patch_size must be >= 1")
        self.dim = dim
        self.patch_size = patch_size
        rng = stream(seed, "patch-encoder")
        scale = 1.0 / math.sqrt(self.N_STATS)
        weight = rng.uniform(-scale, scale, size=(self.N_STATS, dim))
        self.weight = Parameter("patch_encoder.weight", weight, trainable=False)
        self.bias = Parameter("patch_encoder.bias", np.zeros(dim), trainable=False)
        self._cell_w = box_weights(patch_size, 4)

    def params(self) -> list[Parameter]:
        return [self.weight, self.bias]

    def _stats(self, patch: np.ndarray) -> np.ndarray:
        x = patch.astype(np.float64) / 255.0
        if x.shape[2] == 1:
            x = np.repeat(x, 3, axis=2)
        cells = np.stack(
            [self._cell_w @ x[:, :, c] @ self._cell_w.T for c in range(3)], axis=2
        )
        sat = saturation(patch)
        return np.concatenate(
            [
                x.mean(axis=(0, 1)),
                x.std(axis=(0, 1)),
                cells.reshape(-1),
                [sat.mean(), float(np.mean(sat > 0.08))],
            ]
        )

    def encode(self, patch: np.ndarray) -> np.ndarray:
        patch = np.asarray(patch)
        if patch.ndim != 3 or patch.shape[:2] != (self.patch_size, self.patch_size):
            raise UsageError(
                f"patch shape {patch.shape} does not match patch size {self.patch_size}"
            )
        if patch.shape[2] not in (1, 3):
            raise UsageError("patch must have 1 or 3 channels")
        return self._stats(patch) @ self.weight.value.data + self.bias.value.data

    def encode_grid(self, raster: Raster, grid: PatchGrid) -> EmbeddingMatrix:
        """Featurize every tissue tile, row-major order."""
        ps = grid.patch_size
        rows = []
        for entry in grid.tissue_entries():
            patch = raster.pixels[entry.y : entry.y + ps, entry.x : entry.x + ps]
            rows.append(self.encode(patch))
        values = np.stack(rows) if rows else np.zeros((0, self.dim))
        return EmbeddingMatrix(len(rows), self.dim, values)


# -- dilated attention ----------------------------------------------------------


def dilated_branch(
    q: Tensor, k: Tensor, v: Tensor, w: int, r: int, offsets
) -> tuple[Tensor, Tensor, np.ndarray]:
    """One (segment length, dilation) branch of sparse attention, all heads at once.

    q, k and v are [H, N, d]. Each head's sequence is cut into ceil(N/w)
    segments; within each, the rows at that head's offset with stride `r`
    attend densely among themselves. The final segment is right-padded
    with zero rows and padded keys are masked out. Returns the [H, N, d]
    output (zero at unselected rows), the [H, N] log of each row's softmax
    denominator (zero at unselected rows), and the boolean [H, N]
    selection mask.
    """
    if r < 1 or w < r:
        raise UsageError("branch needs w >= r >= 1")
    if w % r:
        raise UsageError(f"segment length {w} not divisible by dilation {r}")
    heads, n, dim = q.shape
    offsets = np.asarray(offsets, dtype=np.int64)
    if offsets.shape != (heads,):
        raise UsageError(f"need one offset per head ({heads}), got {offsets.size}")
    if ((offsets < 0) | (offsets >= r)).any():
        raise UsageError("offsets must lie in [0, r)")
    segments, m = -(-n // w), w // r
    padded = segments * w
    # Group g = h * segments + s holds the m dilated rows of segment s of
    # head h, at sequence positions pos[g]; positions >= n are padding.
    pos = offsets[:, None, None] + np.arange(0, padded, w)[:, None] + np.arange(0, w, r)
    pos = pos.reshape(-1, m)
    head = np.repeat(np.arange(heads), segments)[:, None]
    real = pos < n
    unpadded = (np.arange(heads)[:, None] * padded + np.arange(n)).ravel()

    def gather(t: Tensor) -> Tensor:
        padded_t = put_rows(heads * padded, unpadded, t.reshape(heads * n, t.shape[-1]))
        return take_rows(padded_t, head * padded + pos)

    qs, ks, vs = gather(q), gather(k), gather(v)
    mask = np.broadcast_to(real[:, None, :], (len(pos), m, m))
    scores = (qs @ ks.transpose(0, 2, 1)) * (1.0 / math.sqrt(dim))
    out = masked_softmax(scores, mask, axis=-1) @ vs
    logden = masked_logsumexp(scores, mask, axis=-1)
    slots = np.flatnonzero(real)
    targets = (head * n + pos).ravel()[slots]
    out = put_rows(heads * n, targets, take_rows(out.reshape(-1, v.shape[-1]), slots))
    logden = put_rows(heads * n, targets, take_rows(logden.reshape(-1), slots))
    selected = np.zeros(heads * n, dtype=bool)
    selected[targets] = True
    return out.reshape(heads, n, v.shape[-1]), logden.reshape(heads, n), selected.reshape(heads, n)


@dataclass
class SlideEncoderConfig:
    """Shape and sparsity schedule of the slide-level encoder."""

    in_dim: int = 32
    heads: int = 4
    head_dim: int = 32
    layers: int = 2
    ffn_mult: int = 4
    branches: tuple[tuple[int, int], ...] = ((16, 1), (32, 2), (64, 4))
    positional: str = "none"   # "none" | "grid"
    grid_rows: int = 64
    grid_cols: int = 64

    def __post_init__(self):
        if self.heads < 1 or self.head_dim < 1:
            raise UsageError("heads and head_dim must be >= 1")
        if self.layers < 0 or self.ffn_mult < 1:
            raise UsageError("layers must be >= 0 and ffn_mult >= 1")
        if not self.branches:
            raise UsageError("at least one branch required")
        for w, r in self.branches:
            if r < 1 or w < r:
                raise UsageError(f"branch ({w},{r}) needs w >= r >= 1")
            if w % r:
                raise UsageError(f"branch ({w},{r}): segment length not divisible by dilation")
        if self.positional not in ("none", "grid"):
            raise UsageError("positional must be 'none' or 'grid'")

    @property
    def model_dim(self) -> int:
        return self.heads * self.head_dim

    def effective_branches(self, n: int) -> list[tuple[int, int]]:
        """Cap segment lengths at the sequence, keeping divisibility by r."""
        out = []
        for w, r in self.branches:
            cap = math.ceil(n / r) * r
            out.append((min(w, cap), r))
        return out


class DilatedSelfAttention(HeadProjections):
    """Multi-head attention where head h uses segment offset h mod r.

    Branch outputs at each position are combined with weights
    proportional to each branch's softmax denominator, so branches that
    barely attend contribute little.
    """

    def __init__(self, prefix: str, cfg: SlideEncoderConfig, rng):
        super().__init__(prefix, cfg.model_dim, cfg.heads, rng)
        self.cfg = cfg

    def __call__(self, x: Tensor) -> Tensor:
        q, k, v = self.split(x)
        heads, n, dim = q.shape
        outs, logdens, sels = zip(
            *(
                dilated_branch(q, k, v, w, r, np.arange(heads) % r)
                for w, r in self.cfg.effective_branches(n)
            )
        )
        weights = masked_softmax(
            concat([ld.reshape(heads * n, 1) for ld in logdens], axis=1),
            np.stack(sels, axis=-1).reshape(heads * n, len(sels)),
            axis=1,
        )
        stacked = concat([out.reshape(1, heads, n, dim) for out in outs], axis=0)
        mixed = (weights.T.reshape(len(outs), heads, n, 1) * stacked).sum(axis=0)
        return self.merge(mixed)


class SlideEncoder:
    """Input projection plus `layers` post-norm dilated-attention blocks.

    With layers=0 this reduces to the input projection alone. Positional
    treatment is configurable: none (pure set encoder) or a learned pair
    of row/column embeddings looked up from grid coordinates.
    """

    GROUP = "slide_encoder"

    def __init__(self, cfg: SlideEncoderConfig, seed: int = 0):
        self.cfg = cfg
        rng = stream(seed, "slide-encoder")
        self.input_proj = Linear(f"{self.GROUP}.input", cfg.in_dim, cfg.model_dim, rng)
        self.blocks = [
            PostNormBlock(
                f"{self.GROUP}.block{i}",
                DilatedSelfAttention(f"{self.GROUP}.block{i}.attn", cfg, rng),
                cfg.model_dim,
                cfg.ffn_mult,
                rng,
            )
            for i in range(cfg.layers)
        ]
        self.row_embed = self.col_embed = None
        if cfg.positional == "grid":
            scale = 1.0 / math.sqrt(cfg.model_dim)
            self.row_embed = Parameter(
                f"{self.GROUP}.pos_row",
                rng.uniform(-scale, scale, size=(cfg.grid_rows, cfg.model_dim)),
            )
            self.col_embed = Parameter(
                f"{self.GROUP}.pos_col",
                rng.uniform(-scale, scale, size=(cfg.grid_cols, cfg.model_dim)),
            )

    def params(self) -> list[Parameter]:
        out = self.input_proj.params()
        for block in self.blocks:
            out.extend(block.params())
        if self.row_embed is not None:
            out.extend([self.row_embed, self.col_embed])
        return out

    def __call__(self, features, coords: list[tuple[int, int]] | None = None) -> Tensor:
        if isinstance(features, EmbeddingMatrix):
            features = features.values
        x = features if isinstance(features, Tensor) else Tensor(features)
        if x.shape[0] == 0:
            raise UsageError("slide encoder needs at least one patch")
        x = self.input_proj(x)
        if self.cfg.positional == "grid":
            if coords is None:
                raise UsageError("grid positional encoding needs patch coordinates")
            rows = [c[0] for c in coords]
            cols = [c[1] for c in coords]
            if max(rows) >= self.cfg.grid_rows or max(cols) >= self.cfg.grid_cols:
                raise UsageError("patch coordinate outside configured positional grid")
            x = x + take_rows(self.row_embed.value, rows) + take_rows(self.col_embed.value, cols)
        for block in self.blocks:
            x = block(x)
        return x


class Projector:
    """Affine (or two-layer) map from encoder width into LM width."""

    GROUP = "projector"

    def __init__(self, in_dim: int, out_dim: int, layers: int = 1, seed: int = 0):
        if layers not in (1, 2):
            raise UsageError("projector supports 1 or 2 layers")
        rng = stream(seed, "projector")
        self.layers = layers
        if layers == 1:
            self.maps = [Linear(f"{self.GROUP}.map", in_dim, out_dim, rng)]
        else:
            self.maps = [
                Linear(f"{self.GROUP}.map0", in_dim, out_dim, rng),
                Linear(f"{self.GROUP}.map1", out_dim, out_dim, rng),
            ]

    def params(self) -> list[Parameter]:
        out = []
        for m in self.maps:
            out.extend(m.params())
        return out

    def __call__(self, x) -> Tensor:
        x = x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))
        if self.layers == 1:
            return self.maps[0](x)
        return self.maps[1](self.maps[0](x).gelu())

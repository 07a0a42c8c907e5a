"""Patch featurization, the dilated-attention slide encoder, and the projector.

Three stages: a frozen per-patch featurizer (stand-in for a pretrained
patch model, plain numpy that runs once ahead of training and is not part
of the model), a sequence encoder over all patch features of one slide
built from multi-branch dilated attention, and an affine or two-layer
projector into the language model's embedding width. A config flag can
bypass the slide encoder entirely, feeding patch features straight to the
projector. The featurizer takes the tissue tiles of one strip of tile rows
as a batch; a single patch is a batch of one and gets the same bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .layers import HeadProjections, Linear, PostNormBlock
from .numerics import (
    Parameter,
    Tensor,
    UsageError,
    attention,
    concat,
    ffn,
    put_rows,
    stream,
    take_rows,
)
from .slide_io import PatchGrid, Raster, box_weights, channel_range, stained

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


def load_embeddings(path) -> EmbeddingMatrix:
    data = Path(path).read_bytes()
    if data[:8] != EMBEDDINGS_MAGIC:
        raise UsageError(f"{path}: not an embeddings file")
    if len(data) < 16:
        raise UsageError(f"{path}: embeddings header cut short at {len(data)} bytes")
    n, dim = (int(v) for v in np.frombuffer(data[8:16], dtype="<u4"))
    body = data[16:]
    if len(body) != n * dim * 4:
        raise UsageError(f"{path}: expected {n * dim} float32 values")
    values = np.frombuffer(body, dtype="<f4").reshape(n, dim).astype(np.float64)
    try:
        return EmbeddingMatrix(n, dim, values)
    except UsageError as exc:
        raise UsageError(f"{path}: {exc}") from exc


# -- frozen patch featurizer ---------------------------------------------------


class PatchEncoder:
    """Fixed random projection of pooled patch statistics.

    The projection is a plain array drawn once from the seed, outside the
    model; identical patches always map to identical vectors.
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
        self.weight = rng.uniform(-scale, scale, size=(self.N_STATS, dim))
        self._cell_w = box_weights(patch_size, 4)

    def _features(self, tiles: np.ndarray) -> np.ndarray:
        """Feature rows of a batch of [n, ps, ps, channels] uint8 tiles.

        Channel means and spreads come from each plane's sums S1 = sum(v) and
        S2 = sum(v**2) over the 8-bit levels. Every partial sum is an integer
        below 2**53, so any summation order gives the exact value, and each
        statistic is one correctly rounded division of exact integers (for
        patches up to 610 px). Against running sums in pixel order, the
        features move by at most 8.7e-14 on the test rasters. Cell means are
        two matmuls per plane of levels, the saturation mean reduces each
        tile's contiguous map, the stained share counts `stained` pixels, and
        the projection takes one row at a time, so a tile's features do not
        depend on its batch.
        """
        n, size = tiles.shape[0], self.patch_size**2
        planes = np.ascontiguousarray(tiles.transpose(0, 3, 1, 2))
        if planes.shape[1] == 1:
            planes = np.repeat(planes, 3, axis=1)
        levels = planes.astype(np.float64)
        cells = (self._cell_w @ levels @ self._cell_w.T).transpose(0, 2, 3, 1) / 255.0
        flat = levels.reshape(n * 3, size)
        s1 = flat.sum(axis=1).astype(np.int64)
        s2 = np.einsum("ij,ij->i", flat, flat).astype(np.int64)
        high, spread = channel_range(planes.reshape(n, 3, size).transpose(1, 0, 2))
        stats = np.concatenate(
            [
                (s1 / (255 * size)).reshape(n, 3),
                np.sqrt((size * s2 - s1 * s1) / (255**2 * size**2)).reshape(n, 3),
                cells.reshape(n, -1),
                (spread / np.maximum(high, 1)).mean(axis=1)[:, None],
                (np.count_nonzero(stained(high, spread), axis=1) / size)[:, None],
            ],
            axis=1,
        )
        return (stats[:, None, :] @ self.weight)[:, 0]

    def encode_grid(self, raster: Raster, grid: PatchGrid) -> EmbeddingMatrix:
        """Featurize every tissue tile, row-major order, one strip of tiles at a time."""
        ps = self.patch_size
        if grid.patch_size != ps:
            raise UsageError(f"grid patch size {grid.patch_size} does not match patch size {ps}")
        strips: dict[int, list[int]] = {}
        for e in grid.tissue_entries():
            if e.x + ps > raster.width or e.y + ps > raster.height:
                raise UsageError(
                    f"tile at ({e.x},{e.y}) exceeds the {raster.width}x{raster.height} raster"
                )
            strips.setdefault(e.y, []).append(e.x)
        if (grid.width, grid.height) != (raster.width, raster.height):
            raise UsageError(
                f"grid was cut from a {grid.width}x{grid.height} raster, "
                f"not from this {raster.width}x{raster.height} one"
            )
        rows = [
            self._features(np.stack([raster.pixels[y : y + ps, x : x + ps] for x in xs]))
            for y, xs in strips.items()
        ]
        values = np.concatenate(rows) if rows else np.zeros((0, self.dim))
        return EmbeddingMatrix(len(values), self.dim, values)


# -- dilated attention ----------------------------------------------------------


def dilated_branch(
    q: Tensor, k: Tensor, v: Tensor, w: int, r: int, offsets
) -> tuple[Tensor, Tensor, np.ndarray]:
    """One (segment length, dilation) branch of sparse attention, all heads at once.

    q, k and v are [H, N, d]. Each head's sequence is cut into ceil(N/w)
    segments; within each, the rows at that head's offset with stride `r`
    attend densely among themselves; the final segment may run past the
    sequence, and its missing rows take no part. Returns the [H, N, d]
    output (zero at unselected rows), the [H, N] log of each row's softmax
    denominator (zero at unselected rows), and the boolean [H, N]
    selection mask.
    """
    if r < 1 or w < r:
        raise UsageError("branch needs w >= r >= 1")
    if w % r:
        raise UsageError(f"segment length {w} not divisible by dilation {r}")
    heads, n, _ = q.shape
    offsets = np.asarray(offsets, dtype=np.int64)
    if offsets.shape != (heads,):
        raise UsageError(f"need one offset per head ({heads}), got {offsets.size}")
    if ((offsets < 0) | (offsets >= r)).any():
        raise UsageError("offsets must lie in [0, r)")
    segments, m = -(-n // w), w // r
    # Group g = h * segments + s holds the m dilated rows of segment s of head
    # h, at positions pos[g]. Positions >= n are padding: they read row n - 1,
    # are masked as keys and are dropped as queries.
    pos = offsets[:, None, None] + np.arange(0, segments * w, w)[:, None] + np.arange(0, w, r)
    pos = pos.reshape(-1, m)
    real = pos < n
    rows = np.repeat(np.arange(heads) * n, segments)[:, None] + np.minimum(pos, n - 1)
    qs, vs = (take_rows(t.reshape(heads * n, t.shape[-1]), rows) for t in (q, v))
    ks_t = take_rows(k.reshape(heads * n, k.shape[-1]), rows).transpose(0, 2, 1)
    out, logden = attention(qs, ks_t, vs, keys=real)
    slots = np.flatnonzero(real)
    targets = rows.ravel()[slots]
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
    positional: str = "grid"   # "none" | "grid"
    grid_rows: int = 64
    grid_cols: int = 64

    def __post_init__(self):
        if self.heads < 1 or self.head_dim < 1:
            raise UsageError("heads and head_dim must be >= 1")
        if self.layers < 0 or self.ffn_mult < 1:
            raise UsageError("layers must be >= 0 and ffn_mult >= 1")
        if self.grid_rows < 1 or self.grid_cols < 1:
            raise UsageError("grid_rows and grid_cols must be >= 1")
        if not self.branches:
            raise UsageError("at least one branch required")
        for branch in self.branches:
            if len(branch) != 2:
                raise UsageError(f"branch {list(branch)} is not a [w, r] pair")
            w, r = branch
            if r < 1 or w < r:
                raise UsageError(f"branch ({w},{r}) needs w >= r >= 1")
            if w % r:
                raise UsageError(f"branch ({w},{r}): segment length not divisible by dilation")
        if self.positional not in ("none", "grid"):
            raise UsageError("positional must be 'none' or 'grid'")

    @property
    def model_dim(self) -> int:
        return self.heads * self.head_dim

    def check_coords(self, coords) -> np.ndarray:
        """`coords` as an [N, 2] (row, col) array inside [0, grid_rows) x [0, grid_cols)."""
        at = np.asarray(coords, dtype=np.int64).reshape(-1, 2)
        for axis, key in enumerate(("grid_rows", "grid_cols")):
            size = getattr(self, key)
            outside = np.flatnonzero((at[:, axis] < 0) | (at[:, axis] >= size))
            if outside.size:
                row, col = at[outside[0]]
                raise UsageError(f"tissue tile at row {row}, col {col} is outside model.encoder.{key} {size}")
        return at

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
        # The merge is attention of a unit query over the branches: the
        # log-denominators are the scores, the branch outputs the values.
        rows = heads * n
        mixed, _ = attention(
            Tensor(np.ones((rows, 1, 1))),
            concat([ld.reshape(rows, 1, 1) for ld in logdens], axis=2),
            concat([out.reshape(rows, 1, dim) for out in outs], axis=1),
            keys=np.stack(sels, axis=-1).reshape(rows, len(sels)),
        )
        return self.merge(mixed.reshape(heads, n, dim))


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
            at = self.cfg.check_coords(coords)
            x = x + take_rows(self.row_embed.value, at[:, 0]) + take_rows(self.col_embed.value, at[:, 1])
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
        first, second = self.maps
        return ffn(x, first.weight.value, first.bias.value, second.weight.value, second.bias.value)

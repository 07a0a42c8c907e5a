"""Attention-based patch saliency and thumbnail overlays.

A trace stores, for every generated token, the attention paid to each
visual position per layer and head. Saliency averages those rows (after
renormalizing each over the visual positions, unless disabled) and ranks
patches by mean weight, ties going to the lower patch index. The top-k
patches are drawn onto the slide thumbnail with rank-colored borders.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .numerics import UsageError, load_checkpoint, save_checkpoint
from .slide_io import GridEntry, PatchGrid, Raster, letterbox

__all__ = [
    "AttentionTrace",
    "PatchSaliency",
    "saliency",
    "render_overlay",
    "save_trace",
    "load_trace",
    "saliency_csv",
]


@dataclass
class AttentionTrace:
    """Raw generated-token attention over visual positions.

    values: [gen_tokens, layers, heads, n_patches], each row the LM's
    attention restricted to the visual span (mass on text positions
    discarded, rows not renormalized). tokens names the generating tokens.
    """

    values: np.ndarray
    tokens: list[str] | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 4:
            raise UsageError("trace must be [tokens, layers, heads, patches]")
        if not ((self.values >= 0.0) & (self.values <= 1.0)).all():
            raise UsageError("attention weights must lie in [0, 1]")

    @property
    def n_patches(self) -> int:
        return self.values.shape[3]


@dataclass
class PatchSaliency:
    """Ranked (patch index, score) pairs, scores non-increasing, indices in [0, n_patches)."""

    entries: list[tuple[int, float]]
    k: int
    n_patches: int

    def __post_init__(self):
        scores = [s for _, s in self.entries]
        if any(b > a for a, b in zip(scores, scores[1:])):
            raise UsageError("saliency scores must be non-increasing")
        if len({i for i, _ in self.entries}) != len(self.entries):
            raise UsageError("duplicate patch index in saliency")
        outside = next((i for i, _ in self.entries if not 0 <= i < self.n_patches), None)
        if outside is not None:
            raise UsageError(f"patch index {outside} outside [0, {self.n_patches})")


def saliency(trace: AttentionTrace, k: int = 5, renormalize: bool = True) -> PatchSaliency:
    """Mean attention per patch across tokens, layers, and heads, top-k.

    With renormalize each (token, layer, head) row is scaled to sum to 1
    over the visual positions before averaging, so tokens that put most
    of their mass on text count equally.
    """
    if k < 0:
        raise UsageError(f"saliency k must be >= 0, got {k}")
    if trace.values.shape[0] == 0:
        raise UsageError("empty trace: no generated tokens")
    n = trace.n_patches
    if k > n:
        warnings.warn(f"k={k} clamped to {n} patches", stacklevel=2)
        k = n
    rows = trace.values.reshape(-1, n)
    if renormalize:
        sums = rows.sum(axis=1, keepdims=True)
        rows = rows / np.where(sums == 0.0, 1.0, sums)
    scores = rows.mean(axis=0)
    order = sorted(range(n), key=lambda i: (-scores[i], i))
    entries = [(i, float(scores[i])) for i in order[:k]]
    return PatchSaliency(entries, k=k, n_patches=n)


# Border/tint colors by rank: red, orange, yellow, green, blue, repeating.
_RANK_COLORS = [
    (214, 40, 40),
    (244, 140, 6),
    (252, 208, 18),
    (56, 176, 80),
    (58, 110, 230),
]

# 3x5 bitmaps for digits 0-9, drawn as rank labels.
_DIGITS = {
    "0": ("111", "101", "101", "101", "111"),
    "1": ("010", "110", "010", "010", "111"),
    "2": ("111", "001", "111", "100", "111"),
    "3": ("111", "001", "111", "001", "111"),
    "4": ("101", "101", "111", "001", "001"),
    "5": ("111", "100", "111", "001", "111"),
    "6": ("111", "100", "111", "101", "111"),
    "7": ("111", "001", "010", "010", "010"),
    "8": ("111", "101", "111", "101", "111"),
    "9": ("111", "101", "111", "001", "111"),
}


def _draw_digit(pixels: np.ndarray, digit: str, x: int, y: int, scale: int, color) -> None:
    rows = _DIGITS[digit]
    h, w = pixels.shape[:2]
    for dy, row in enumerate(rows):
        for dx, bit in enumerate(row):
            if bit != "1":
                continue
            y0, x0 = y + dy * scale, x + dx * scale
            y1, x1 = min(y0 + scale, h), min(x0 + scale, w)
            if y0 < h and x0 < w:
                pixels[y0:y1, x0:x1] = color


def _tissue_tiles(grid: PatchGrid, sal: PatchSaliency) -> list[GridEntry]:
    """The grid's tissue tiles, tile i holding patch i: the order in which
    `encode_grid` writes embedding rows, so positions come from the grid alone."""
    tiles = grid.tissue_entries()
    if len(tiles) != sal.n_patches:
        raise UsageError(f"tissue tile count {len(tiles)} != trace patch count {sal.n_patches}")
    return tiles


def render_overlay(thumb: Raster, grid: PatchGrid, sal: PatchSaliency) -> Raster:
    """Mark top-k patches on a copy of the thumbnail.

    Each ranked patch gets a 3-pixel border and a 30% tint in its rank
    color plus a small numeric rank label. k=0 returns an identical copy.
    """
    if thumb.width != thumb.height:
        raise UsageError("overlay expects a square thumbnail")
    tiles = _tissue_tiles(grid, sal)
    pixels = thumb.pixels.copy()
    if pixels.shape[2] == 1:
        pixels = np.repeat(pixels, 3, axis=2)
    out_w, out_h, x_off, y_off = letterbox(grid.width, grid.height, thumb.width)
    sx, sy = out_w / grid.width, out_h / grid.height
    ps = grid.patch_size
    for rank, (patch_idx, _score) in enumerate(sal.entries, start=1):
        entry = tiles[patch_idx]
        x1 = x_off + int(round(entry.x * sx))
        y1 = y_off + int(round(entry.y * sy))
        x2 = x_off + int(round((entry.x + ps) * sx))
        y2 = y_off + int(round((entry.y + ps) * sy))
        color = np.array(_RANK_COLORS[(rank - 1) % len(_RANK_COLORS)], dtype=np.float64)
        region = pixels[y1:y2, x1:x2].astype(np.float64)
        pixels[y1:y2, x1:x2] = np.clip(
            np.rint(0.7 * region + 0.3 * color), 0, 255
        ).astype(np.uint8)
        border = color.astype(np.uint8)
        b = 3
        pixels[y1 : min(y1 + b, y2), x1:x2] = border
        pixels[max(y2 - b, y1) : y2, x1:x2] = border
        pixels[y1:y2, x1 : min(x1 + b, x2)] = border
        pixels[y1:y2, max(x2 - b, x1) : x2] = border
        label_x, label_y, scale = x1 + b + 2, y1 + b + 2, 2
        for ch in str(rank):
            _draw_digit(pixels, ch, label_x, label_y, scale, (255, 255, 255))
            label_x += 4 * scale
    return Raster(thumb.width, thumb.height, 3, pixels)


def saliency_csv(sal: PatchSaliency, grid: PatchGrid) -> str:
    """CSV body `rank,patch_index,row,col,score`, row and col from the grid."""
    tiles = _tissue_tiles(grid, sal)
    lines = ["rank,patch_index,row,col,score"]
    for rank, (idx, score) in enumerate(sal.entries, start=1):
        lines.append(f"{rank},{idx},{tiles[idx].row},{tiles[idx].col},{score!r}")
    return "\n".join(lines) + "\n"


def save_trace(path, trace: AttentionTrace) -> None:
    meta = {"kind": "attention-trace", "tokens": trace.tokens}
    save_checkpoint(path, {"trace": trace.values}, meta)


def load_trace(path) -> AttentionTrace:
    """A trace saved by `save_trace`; a `coords` key older traces carry is ignored."""
    tensors, meta = load_checkpoint(path)
    if meta.get("kind") != "attention-trace" or "trace" not in tensors:
        raise UsageError(f"{path}: not an attention trace file")
    try:
        return AttentionTrace(tensors["trace"], tokens=meta.get("tokens"))
    except UsageError as exc:
        raise UsageError(f"{path}: {exc}") from exc

"""Slide rasters and tiling.

Rasters travel as binary PPM (P6, RGB) or PGM (P5, gray) with max value
255. Tiling cuts non-overlapping `patch_size` squares, drops partial edge
tiles, and flags each tile tissue/background with an HSV-saturation
heuristic. A seeded synthetic-slide generator provides ground-truth
fixtures for the rest of the pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .numerics import UsageError, stream

__all__ = [
    "Raster",
    "GridEntry",
    "PatchGrid",
    "Region",
    "SlideSpec",
    "read_raster",
    "write_raster",
    "tile_slide",
    "tissue_filter",
    "saturation",
    "thumbnail",
    "box_weights",
    "synth_slide",
]

DEFAULT_PATCH_SIZE = 224
DEFAULT_SATURATION_THRESHOLD = 0.08
DEFAULT_TISSUE_FRACTION = 0.25


@dataclass
class Raster:
    """8-bit image, row-major, 1 (gray) or 3 (RGB) channels."""

    width: int
    height: int
    channels: int
    pixels: np.ndarray  # uint8, shape [height, width, channels]

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels, dtype=np.uint8)
        if self.pixels.shape != (self.height, self.width, self.channels):
            raise UsageError(
                f"pixel buffer shape {self.pixels.shape} != "
                f"({self.height}, {self.width}, {self.channels})"
            )
        if self.channels not in (1, 3):
            raise UsageError("channels must be 1 or 3")

    @staticmethod
    def filled(width: int, height: int, color) -> "Raster":
        color = np.atleast_1d(np.asarray(color, dtype=np.uint8))
        pixels = np.empty((height, width, color.size), dtype=np.uint8)
        pixels[...] = color
        return Raster(width, height, color.size, pixels)

    @staticmethod
    def from_pixels(pixels: np.ndarray) -> "Raster":
        pixels = np.asarray(pixels, dtype=np.uint8)
        if pixels.ndim != 3:
            raise UsageError("pixel buffer must be [height, width, channels]")
        return Raster(pixels.shape[1], pixels.shape[0], pixels.shape[2], pixels)


class GridEntry(NamedTuple):
    row: int
    col: int
    x: int
    y: int
    tissue: bool


@dataclass
class PatchGrid:
    """Tile coordinates for one slide, sorted row-major."""

    patch_size: int
    width: int   # source raster dimensions
    height: int
    entries: list[GridEntry] = field(default_factory=list)

    def __post_init__(self):
        seen = set()
        for e in self.entries:
            if e.x % self.patch_size or e.y % self.patch_size:
                raise UsageError(f"origin ({e.x},{e.y}) not a multiple of patch size")
            if e.x + self.patch_size > self.width or e.y + self.patch_size > self.height:
                raise UsageError(f"tile at ({e.x},{e.y}) exceeds raster bounds")
            if (e.row, e.col) in seen:
                raise UsageError(f"duplicate tile ({e.row},{e.col})")
            seen.add((e.row, e.col))
        if self.entries != sorted(self.entries, key=lambda e: (e.row, e.col)):
            raise UsageError("grid entries must be sorted row-major")

    def tissue_entries(self) -> list[GridEntry]:
        return [e for e in self.entries if e.tissue]

    def save(self, path) -> None:
        lines = [f"{self.patch_size} {self.width} {self.height}"]
        for e in self.entries:
            lines.append(f"{e.row} {e.col} {e.x} {e.y} {1 if e.tissue else 0}")
        Path(path).write_text("\n".join(lines) + "\n")

    @staticmethod
    def load(path) -> "PatchGrid":
        lines = Path(path).read_text().splitlines()
        if not lines:
            raise UsageError(f"{path}: empty grid file")
        patch_size, width, height = (int(v) for v in lines[0].split())
        entries = []
        for line in lines[1:]:
            if not line.strip():
                continue
            row, col, x, y, tissue = (int(v) for v in line.split())
            entries.append(GridEntry(row, col, x, y, bool(tissue)))
        return PatchGrid(patch_size, width, height, entries)


# -- PPM / PGM -----------------------------------------------------------------


def write_raster(path, raster: Raster) -> None:
    magic = b"P6" if raster.channels == 3 else b"P5"
    header = magic + f"\n{raster.width} {raster.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + raster.pixels.tobytes(order="C"))


def _read_token(data: bytes, pos: int) -> tuple[bytes, int]:
    # Skip whitespace and '#' comment lines between header tokens.
    while pos < len(data):
        c = data[pos : pos + 1]
        if c == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    start = pos
    while pos < len(data) and not data[pos : pos + 1].isspace():
        pos += 1
    return data[start:pos], pos


def read_raster(path) -> Raster:
    data = Path(path).read_bytes()
    magic, pos = _read_token(data, 0)
    if magic not in (b"P5", b"P6"):
        raise UsageError(f"{path}: unsupported raster magic {magic!r}")
    channels = 3 if magic == b"P6" else 1
    fields = []
    for _ in range(3):
        token, pos = _read_token(data, pos)
        fields.append(int(token))
    width, height, maxval = fields
    if maxval != 255:
        raise UsageError(f"{path}: only max value 255 is supported")
    pos += 1  # single whitespace byte after maxval
    expected = width * height * channels
    body = data[pos : pos + expected]
    if len(body) != expected:
        raise UsageError(f"{path}: truncated pixel data")
    pixels = np.frombuffer(body, dtype=np.uint8).reshape(height, width, channels)
    return Raster(width, height, channels, pixels.copy())


# -- tiling ----------------------------------------------------------------------


def saturation(pixels: np.ndarray) -> np.ndarray:
    """Per-pixel HSV saturation in [0, 1]; zero for grayscale input."""
    pixels = np.asarray(pixels)
    if pixels.ndim != 3:
        raise UsageError("expected [h, w, channels] pixels")
    if pixels.shape[2] == 1:
        return np.zeros(pixels.shape[:2], dtype=np.float64)
    as_float = pixels.astype(np.float64)
    high = as_float.max(axis=2)
    low = as_float.min(axis=2)
    return np.where(high > 0.0, (high - low) / np.where(high > 0.0, high, 1.0), 0.0)


def tissue_filter(
    patch: np.ndarray,
    saturation_threshold: float = DEFAULT_SATURATION_THRESHOLD,
    tissue_fraction: float = DEFAULT_TISSUE_FRACTION,
) -> bool:
    """True iff the fraction of saturated pixels exceeds `tissue_fraction`."""
    sat = saturation(patch)
    return bool(np.mean(sat > saturation_threshold) > tissue_fraction)


def tile_slide(
    raster: Raster,
    patch_size: int = DEFAULT_PATCH_SIZE,
    saturation_threshold: float = DEFAULT_SATURATION_THRESHOLD,
    tissue_fraction: float = DEFAULT_TISSUE_FRACTION,
) -> PatchGrid:
    """Cut non-overlapping tiles and flag each tissue/background.

    Partial edge tiles are dropped; a raster smaller than one patch yields
    an empty grid.
    """
    if patch_size < 1:
        raise UsageError("patch_size must be >= 1")
    if raster.width < 1 or raster.height < 1:
        raise UsageError("raster must be non-empty")
    rows = raster.height // patch_size
    cols = raster.width // patch_size
    entries = []
    for row in range(rows):
        for col in range(cols):
            x = col * patch_size
            y = row * patch_size
            patch = raster.pixels[y : y + patch_size, x : x + patch_size]
            entries.append(
                GridEntry(row, col, x, y, tissue_filter(patch, saturation_threshold, tissue_fraction))
            )
    return PatchGrid(patch_size, raster.width, raster.height, entries)


def extract_patch(raster: Raster, entry: GridEntry, patch_size: int) -> np.ndarray:
    return raster.pixels[entry.y : entry.y + patch_size, entry.x : entry.x + patch_size]


# -- thumbnails --------------------------------------------------------------------


def box_weights(src: int, dst: int) -> np.ndarray:
    """Exact area-overlap weights for 1-D box resampling, rows sum to 1."""
    scale = src / dst
    weights = np.zeros((dst, src), dtype=np.float64)
    for i in range(dst):
        lo = i * scale
        hi = (i + 1) * scale
        j0 = int(np.floor(lo))
        j1 = min(int(np.ceil(hi)), src)
        for j in range(j0, j1):
            weights[i, j] = min(hi, j + 1.0) - max(lo, float(j))
    return weights / scale


def _area_resize(pixels: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    src_h, src_w, channels = pixels.shape
    wh = box_weights(src_h, out_h)
    ww = box_weights(src_w, out_w)
    out = np.empty((out_h, out_w, channels), dtype=np.float64)
    as_float = pixels.astype(np.float64)
    for c in range(channels):
        out[:, :, c] = wh @ as_float[:, :, c] @ ww.T
    return np.clip(np.rint(out), 0, 255).astype(np.uint8)


def thumbnail(raster: Raster, target: int = 1024) -> Raster:
    """Area-averaged square thumbnail.

    Non-square rasters are scaled so the longest side equals `target`
    and centered on a white canvas.
    """
    if target < 1:
        raise UsageError("target must be >= 1")
    if raster.width == raster.height:
        return Raster(target, target, raster.channels, _area_resize(raster.pixels, target, target))
    long_side = max(raster.width, raster.height)
    out_w = max(1, round(raster.width * target / long_side))
    out_h = max(1, round(raster.height * target / long_side))
    scaled = _area_resize(raster.pixels, out_h, out_w)
    canvas = np.full((target, target, raster.channels), 255, dtype=np.uint8)
    x0 = (target - out_w) // 2
    y0 = (target - out_h) // 2
    canvas[y0 : y0 + out_h, x0 : x0 + out_w] = scaled
    return Raster(target, target, raster.channels, canvas)


# -- synthetic slides ----------------------------------------------------------------


@dataclass(frozen=True)
class Region:
    """A tile-aligned rectangle carrying one ground-truth label."""

    label: str
    x: int
    y: int
    width: int
    height: int


@dataclass
class SlideSpec:
    """Layout for a synthetic slide; regions must be tile-aligned."""

    width: int = 448
    height: int = 448
    patch_size: int = DEFAULT_PATCH_SIZE
    regions: list[Region] = field(default_factory=list)


# Saturated H&E-ish base colors assigned to region labels in order.
_PALETTE = [
    (186, 76, 142),   # magenta
    (114, 70, 170),   # violet
    (196, 114, 84),   # salmon
    (88, 132, 188),   # slate blue
    (170, 150, 60),   # ochre
    (96, 164, 120),   # sage
]


def synth_slide(seed: int, spec: SlideSpec) -> tuple[Raster, dict[tuple[int, int], str]]:
    """Render a deterministic synthetic slide and its per-tile labels.

    Background is neutral gray noise (zero saturation, never tissue);
    regions get saturated textured fills. Returns the raster and a map
    (row, col) -> region label for every covered tile.
    """
    ps = spec.patch_size
    for region in spec.regions:
        for value, name in (
            (region.x, "x"), (region.y, "y"), (region.width, "width"), (region.height, "height"),
        ):
            if value % ps:
                raise UsageError(f"region {region.label!r}: {name} not a multiple of patch size")
        if region.x + region.width > spec.width or region.y + region.height > spec.height:
            raise UsageError(f"region {region.label!r} exceeds canvas")

    covered: dict[tuple[int, int], str] = {}
    for region in spec.regions:
        for row in range(region.y // ps, (region.y + region.height) // ps):
            for col in range(region.x // ps, (region.x + region.width) // ps):
                if (row, col) in covered:
                    raise UsageError(f"regions overlap at tile ({row},{col})")
                covered[(row, col)] = region.label

    rng = stream(seed, "synth-slide")
    gray = rng.integers(245, 256, size=(spec.height, spec.width, 1), dtype=np.int64)
    pixels = np.repeat(gray, 3, axis=2)
    labels = sorted({r.label for r in spec.regions})
    color_of = {label: _PALETTE[i % len(_PALETTE)] for i, label in enumerate(labels)}
    for region in spec.regions:
        base = np.array(color_of[region.label], dtype=np.int64)
        noise = rng.integers(-12, 13, size=(region.height, region.width, 3))
        block = np.clip(base + noise, 30, 255)
        pixels[region.y : region.y + region.height, region.x : region.x + region.width] = block
    raster = Raster(spec.width, spec.height, 3, pixels.astype(np.uint8))
    # Only tiles fully inside the canvas grid are reportable.
    rows, cols = spec.height // ps, spec.width // ps
    labels_by_tile = {k: v for k, v in covered.items() if k[0] < rows and k[1] < cols}
    return raster, labels_by_tile

"""Slide rasters and tiling.

Rasters travel as binary PPM (P6, RGB) or PGM (P5, gray) with max value
255; the reader parses the header and reads the body straight into one
uint8 array. Tiling cuts non-overlapping `patch_size` squares, drops
partial edge tiles, and flags each tile tissue/background with an
HSV-saturation heuristic, one strip of `patch_size` pixel rows at a time.
Thumbnails apply an exact box filter as a banded sum, rows then columns,
so each output pixel reads at most ceil(scale) + 1 inputs per axis. A
seeded synthetic-slide generator provides ground-truth fixtures for the
rest of the pipeline.
"""

from __future__ import annotations

import os
import stat
from dataclasses import dataclass, field
from fractions import Fraction
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
    "channel_range",
    "stained",
    "thumbnail",
    "letterbox",
    "box_band",
    "box_weights",
    "synth_slide",
]

DEFAULT_PATCH_SIZE = 224
SATURATION_THRESHOLD = 0.08  # a pixel above this HSV saturation is stained
TISSUE_FRACTION = 0.25  # a tile whose stained share of pixels exceeds this is tissue
_THUMBNAIL_BLOCK = 32  # output rows per pass of the banded box filter


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
        if self.patch_size < 1:
            raise UsageError(f"patch size {self.patch_size} must be >= 1")
        entries, self.entries = self.entries, []
        for e in entries:
            self._add(e)

    def _add(self, e: GridEntry) -> None:
        """Append `e` after checking it against the grid and the last tile."""
        if e.row < 0 or e.col < 0:
            raise UsageError(f"tile ({e.row},{e.col}) has a negative row or col")
        x, y = e.col * self.patch_size, e.row * self.patch_size
        if (e.x, e.y) != (x, y):
            raise UsageError(f"tile ({e.row},{e.col}) has origin ({e.x},{e.y}), not ({x},{y})")
        if e.x + self.patch_size > self.width or e.y + self.patch_size > self.height:
            raise UsageError(f"tile at ({e.x},{e.y}) exceeds raster bounds")
        if self.entries and (e.row, e.col) <= (last := self.entries[-1])[:2]:
            raise UsageError(f"tile ({e.row},{e.col}) follows tile ({last.row},{last.col}): "
                             "grid entries must be sorted row-major without repeats")
        self.entries.append(e)

    def tissue_entries(self) -> list[GridEntry]:
        return [e for e in self.entries if e.tissue]

    def save(self, path) -> None:
        lines = [f"{self.patch_size} {self.width} {self.height}"]
        for e in self.entries:
            lines.append(f"{e.row} {e.col} {e.x} {e.y} {1 if e.tissue else 0}")
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    @staticmethod
    def load(path) -> "PatchGrid":
        # Undecodable bytes become U+FFFD and fail the integer parse below.
        lines = Path(path).read_text(encoding="utf-8", errors="replace").splitlines()
        if not lines:
            raise UsageError(f"{path}: empty grid file")

        def ints(line: str, count: int) -> list[int]:
            try:
                values = [int(f) for f in line.split()]
            except ValueError:
                values = []
            if len(values) != count:
                raise UsageError(f"expected {count} integers, got {line!r}")
            return values

        lineno = 1
        try:
            grid = PatchGrid(*ints(lines[0], 3))
            for lineno, line in enumerate(lines[1:], start=2):
                if line.strip():
                    row, col, x, y, tissue = ints(line, 5)
                    if tissue not in (0, 1):
                        raise UsageError(f"tissue flag must be 0 or 1, got {tissue}")
                    grid._add(GridEntry(row, col, x, y, tissue == 1))
        except UsageError as exc:
            raise UsageError(f"{path}:{lineno}: {exc}") from exc
        return grid


# -- PPM / PGM -----------------------------------------------------------------


def write_raster(path, raster: Raster) -> None:
    magic = b"P6" if raster.channels == 3 else b"P5"
    header = magic + f"\n{raster.width} {raster.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + raster.pixels.tobytes(order="C"))


def _read_token(f) -> bytes:
    """Next header token. Whitespace and '#' comment lines before it are
    skipped, and the one whitespace byte that ends it is consumed."""
    c = f.read(1)
    while c == b"#" or c.isspace():
        if c == b"#":
            while c not in (b"\n", b""):
                c = f.read(1)
        c = f.read(1)
    token = b""
    while c and not c.isspace():
        token += c
        c = f.read(1)
    return token


def read_raster(path) -> Raster:
    with open(path, "rb") as f:
        magic = _read_token(f)
        if magic not in (b"P5", b"P6"):
            raise UsageError(f"{path}: unsupported raster magic {magic!r}")
        channels = 3 if magic == b"P6" else 1
        fields = []
        for _ in range(3):
            token = _read_token(f)
            if not token.isdigit():
                raise UsageError(f"{path}: header field {token!r} is not a non-negative integer")
            fields.append(int(token))
        width, height, maxval = fields
        if width < 1 or height < 1:
            raise UsageError(f"{path}: raster must be non-empty, got {width}x{height}")
        if maxval != 255:
            raise UsageError(f"{path}: only max value 255 is supported")
        expected = width * height * channels
        # For a regular file the size check comes first, so a forged header
        # cannot make us allocate more than the file holds; a pipe has no size.
        st = os.fstat(f.fileno())
        if stat.S_ISREG(st.st_mode) and st.st_size - f.tell() < expected:
            raise UsageError(f"{path}: truncated pixel data")
        pixels = np.empty((height, width, channels), dtype=np.uint8)
        if f.readinto(pixels) != expected:
            raise UsageError(f"{path}: truncated pixel data")
    return Raster(width, height, channels, pixels)


# -- tiling ----------------------------------------------------------------------


def channel_range(planes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel max and max - min over the leading channel axis of uint8
    planes; gray repeats its one plane, so its spread is zero. On planes
    made contiguous first, numpy's elementwise max and min run several
    times faster than on the interleaved channel slices of a raster."""
    r, g, b = (planes[c % len(planes)] for c in range(3))
    high = np.maximum(np.maximum(r, g), b)
    return high, high - np.minimum(np.minimum(r, g), b)


def stained(high: np.ndarray, spread: np.ndarray) -> np.ndarray:
    """Whether HSV saturation spread / high exceeds SATURATION_THRESHOLD, in
    exact integer arithmetic: q * spread > p * high, where p / q (2 / 25) is
    the fraction nearest the threshold with a denominator up to 255. Any
    8-bit saturation other than p / q lies at least 1 / 255**2 away from it,
    far beyond float rounding, so the float64 test agrees on every pixel."""
    p, q = Fraction(SATURATION_THRESHOLD).limit_denominator(255).as_integer_ratio()
    return np.multiply(spread, q, dtype=np.uint16) > np.multiply(high, p, dtype=np.uint16)


def tile_slide(raster: Raster, patch_size: int = DEFAULT_PATCH_SIZE) -> PatchGrid:
    """Cut non-overlapping tiles and flag each tissue/background.

    A tile is tissue iff the fraction of its `stained` pixels exceeds
    TISSUE_FRACTION. Partial edge tiles are dropped; a raster smaller than
    one patch yields an empty grid. Flags are computed one strip of
    `patch_size` pixel rows at a time.
    """
    if patch_size < 1:
        raise UsageError("patch_size must be >= 1")
    if raster.width < 1 or raster.height < 1:
        raise UsageError("raster must be non-empty")
    cols, entries = raster.width // patch_size, []
    for row in range(raster.height // patch_size):
        y = row * patch_size
        strip = raster.pixels[y : y + patch_size, : cols * patch_size]
        planes = np.ascontiguousarray(strip.transpose(2, 0, 1))
        saturated = stained(*channel_range(planes)).reshape(patch_size, cols, patch_size)
        counts = np.count_nonzero(saturated, axis=(0, 2))
        entries.extend(
            GridEntry(row, col, col * patch_size, y, bool(flag))
            for col, flag in enumerate(counts / patch_size**2 > TISSUE_FRACTION)
        )
    return PatchGrid(patch_size, raster.width, raster.height, entries)


# -- thumbnails --------------------------------------------------------------------


def box_band(src: int, dst: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact area-overlap weights for 1-D box resampling, in banded form.

    Output i is the sum over t of `weights[i, t] * input[first[i] + t]`;
    each row of `weights` sums to 1 and has at most ceil(src / dst) + 1
    taps. Taps past the end of the input carry weight 0.
    """
    scale = src / dst
    lo = np.arange(dst) * scale
    hi = np.arange(1, dst + 1) * scale
    first = np.floor(lo).astype(np.int64)
    end = np.minimum(np.ceil(hi).astype(np.int64), src)
    j = first[:, None] + np.arange(int((end - first).max()))
    overlap = np.minimum(hi[:, None], j + 1.0) - np.maximum(lo[:, None], j)
    return first, np.where(j < end[:, None], overlap, 0.0) / scale


def box_weights(src: int, dst: int) -> np.ndarray:
    """The weights of `box_band` as a dense [dst, src] matrix."""
    first, weights = box_band(src, dst)
    dense = np.zeros((dst, src + weights.shape[1]))
    np.put_along_axis(dense, first[:, None] + np.arange(weights.shape[1]), weights, axis=1)
    return np.ascontiguousarray(dense[:, :src])


def _box_rows(values: np.ndarray, first: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Banded weighted sum over the rows of a 2-D array, one tap at a time."""
    last = len(values) - 1
    out = weights[:, :1] * values[first]
    for t in range(1, weights.shape[1]):
        out += weights[:, t : t + 1] * values[np.minimum(first + t, last)]
    return out


def letterbox(width: int, height: int, target: int) -> tuple[int, int, int, int]:
    """Size and offset (w, h, x0, y0) of a width x height image scaled so its
    longest side is `target` and centred on a target x target canvas."""
    long_side = max(width, height)
    out_w = max(1, round(width * target / long_side))
    out_h = max(1, round(height * target / long_side))
    return out_w, out_h, (target - out_w) // 2, (target - out_h) // 2


def thumbnail(raster: Raster, target: int = 1024) -> Raster:
    """Area-averaged square thumbnail.

    The raster is scaled so its longest side equals `target` and centred
    on a white canvas. Each channel plane is box-filtered as a banded sum,
    rows then columns, so the cost is linear in the slide's pixel count
    and no float copy of the whole slide is made.
    """
    if target < 1:
        raise UsageError("target must be >= 1")
    out_w, out_h, x0, y0 = letterbox(raster.width, raster.height, target)
    first, weights = box_band(raster.height, out_h)
    cols = box_band(raster.width, out_w)
    canvas = np.full((target, target, raster.channels), 255, dtype=np.uint8)
    for c in range(raster.channels):
        plane = raster.pixels[:, :, c]
        # A block of output rows at a time keeps the float intermediates
        # small; the column pass runs over the transpose of the row pass so
        # both gather whole rows.
        for i in range(0, out_h, _THUMBNAIL_BLOCK):
            tall = _box_rows(plane, first[i : i + _THUMBNAIL_BLOCK], weights[i : i + _THUMBNAIL_BLOCK])
            wide = _box_rows(np.ascontiguousarray(tall.T), *cols)
            block = np.clip(np.rint(wide), 0, 255).astype(np.uint8).T
            canvas[y0 + i : y0 + i + len(block), x0 : x0 + out_w, c] = block
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

    def __post_init__(self):
        if min(self.x, self.y, self.width, self.height) < 0:
            raise UsageError(f"region {self.label!r}: x, y, width and height must be >= 0")


@dataclass
class SlideSpec:
    """Layout for a synthetic slide; regions must be tile-aligned."""

    width: int = 448
    height: int = 448
    patch_size: int = DEFAULT_PATCH_SIZE
    regions: list[Region] = field(default_factory=list)

    def __post_init__(self):
        for name in ("width", "height", "patch_size"):
            if getattr(self, name) < 1:
                raise UsageError(f"slide {name} must be >= 1, got {getattr(self, name)}")


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
    pixels = np.repeat(gray.astype(np.uint8), 3, axis=2)
    del gray  # the int64 draw is 8 bytes a pixel; drop it before the regions
    labels = sorted({r.label for r in spec.regions})
    color_of = {label: _PALETTE[i % len(_PALETTE)] for i, label in enumerate(labels)}
    for region in spec.regions:
        base = np.array(color_of[region.label], dtype=np.int64)
        noise = rng.integers(-12, 13, size=(region.height, region.width, 3))
        block = np.clip(base + noise, 30, 255).astype(np.uint8)
        pixels[region.y : region.y + region.height, region.x : region.x + region.width] = block
    raster = Raster(spec.width, spec.height, 3, pixels)
    # Only tiles fully inside the canvas grid are reportable.
    rows, cols = spec.height // ps, spec.width // ps
    labels_by_tile = {k: v for k, v in covered.items() if k[0] < rows and k[1] < cols}
    return raster, labels_by_tile

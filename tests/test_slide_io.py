"""Raster IO, tiling, tissue filtering, thumbnails, synthetic slides."""

import math
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BENCH_SPEC, oracle_rasters, oracle_saturation
from slidevlm.numerics import UsageError, stream
from slidevlm.slide_io import (
    SATURATION_THRESHOLD,
    TISSUE_FRACTION,
    GridEntry,
    PatchGrid,
    Raster,
    Region,
    SlideSpec,
    box_band,
    box_weights,
    channel_range,
    letterbox,
    read_raster,
    stained,
    synth_slide,
    thumbnail,
    tile_slide,
    write_raster,
)


def solid(width, height, color):
    return Raster.from_pixels(np.full((height, width, 3), color, dtype=np.uint8))


def tissue_flag(pixels):
    """The flag `tile_slide` gives a raster that is exactly one tile."""
    return tile_slide(Raster.from_pixels(pixels), patch_size=pixels.shape[0]).entries[0].tissue


# -- oracles: the per-tile tiling, dense thumbnail and int64 synth they replaced --------


def oracle_tile_slide(raster, ps, threshold=0.08, fraction=0.25):
    entries = []
    for row in range(raster.height // ps):
        for col in range(raster.width // ps):
            patch = raster.pixels[row * ps : (row + 1) * ps, col * ps : (col + 1) * ps]
            tissue = bool(np.mean(oracle_saturation(patch) > threshold) > fraction)
            entries.append(GridEntry(row, col, col * ps, row * ps, tissue))
    return entries


def oracle_box_weights(src, dst):
    scale = src / dst
    weights = np.zeros((dst, src))
    for i in range(dst):
        lo, hi = i * scale, (i + 1) * scale
        for j in range(int(np.floor(lo)), min(int(np.ceil(hi)), src)):
            weights[i, j] = min(hi, j + 1.0) - max(lo, float(j))
    return weights / scale


def oracle_thumbnail(raster, target):
    """Dense [dst, src] box weights applied to a float64 copy of the whole slide."""
    out_w, out_h, x0, y0 = letterbox(raster.width, raster.height, target)
    wh, ww = oracle_box_weights(raster.height, out_h), oracle_box_weights(raster.width, out_w)
    as_float = raster.pixels.astype(np.float64)
    canvas = np.full((target, target, raster.channels), 255, dtype=np.uint8)
    for c in range(raster.channels):
        plane = np.clip(np.rint(wh @ as_float[:, :, c] @ ww.T), 0, 255)
        canvas[y0 : y0 + out_h, x0 : x0 + out_w, c] = plane
    return canvas


def oracle_synth_pixels(seed, spec):
    rng = stream(seed, "synth-slide")
    gray = rng.integers(245, 256, size=(spec.height, spec.width, 1), dtype=np.int64)
    pixels = np.repeat(gray, 3, axis=2)
    labels = sorted({r.label for r in spec.regions})
    palette = [(186, 76, 142), (114, 70, 170), (196, 114, 84), (88, 132, 188), (170, 150, 60), (96, 164, 120)]
    color_of = {label: palette[i % len(palette)] for i, label in enumerate(labels)}
    for region in spec.regions:
        base = np.array(color_of[region.label], dtype=np.int64)
        noise = rng.integers(-12, 13, size=(region.height, region.width, 3))
        pixels[region.y : region.y + region.height, region.x : region.x + region.width] = np.clip(
            base + noise, 30, 255
        )
    return pixels.astype(np.uint8)


def count_level_flips(got, want):
    """Pixels where the banded and dense filters round apart; float reordering
    can move a value sitting on a .5 tie by one level, never more."""
    diff = np.abs(got.astype(np.int64) - want.astype(np.int64))
    assert diff.max(initial=0) <= 1
    return int(np.count_nonzero(diff))


# -- tiling --------------------------------------------------------------------


def test_tile_counts_full_grid():
    grid = tile_slide(solid(448, 448, (200, 40, 120)), patch_size=224)
    assert len(grid.entries) == 4
    origins = {(e.x, e.y) for e in grid.entries}
    assert origins == {(0, 0), (224, 0), (0, 224), (224, 224)}
    assert all(e.tissue for e in grid.entries)


def test_tile_partial_edges_dropped():
    grid = tile_slide(solid(500, 500, (200, 40, 120)), patch_size=224)
    assert len(grid.entries) == 4


def test_tile_white_slide_has_no_tissue():
    grid = tile_slide(solid(448, 448, (255, 255, 255)), patch_size=224)
    assert len(grid.entries) == 4
    assert grid.tissue_entries() == []


def test_tile_smaller_than_patch_is_empty():
    grid = tile_slide(solid(100, 100, (0, 0, 0)), patch_size=224)
    assert grid.entries == []


def test_tile_entries_sorted_row_major():
    grid = tile_slide(solid(672, 448, (200, 40, 120)), patch_size=224)
    keys = [(e.row, e.col) for e in grid.entries]
    assert keys == sorted(keys)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 1200), st.integers(1, 1200))
def test_tile_count_is_floor_product(width, height):
    ps = 224
    raster = Raster(width, height, 3, np.full((height, width, 3), 128, dtype=np.uint8))
    grid = tile_slide(raster, patch_size=ps)
    assert len(grid.entries) == (width // ps) * (height // ps)


def test_tiles_partition_without_overlap():
    grid = tile_slide(solid(448, 672, (10, 200, 10)), patch_size=224)
    seen = np.zeros((672, 448), dtype=int)
    for e in grid.entries:
        seen[e.y : e.y + 224, e.x : e.x + 224] += 1
    assert seen.max() == 1
    assert seen.sum() == len(grid.entries) * 224 * 224


def test_strip_tiling_matches_per_tile_oracle():
    rasters = oracle_rasters()
    for raster in rasters:
        for ps in (224, 50, 16):
            if (raster.width // ps) * (raster.height // ps) > 2000:
                continue  # the oracle loops over tiles in Python
            grid = tile_slide(raster, patch_size=ps)
            assert grid.entries == oracle_tile_slide(raster, ps), (raster.pixels.shape, ps)
    assert {e.tissue for e in tile_slide(rasters[0], patch_size=16).entries} == {True, False}


# -- tissue filter ----------------------------------------------------------------


def test_tissue_filter_white_false_magenta_true():
    white = np.full((8, 8, 3), 255, dtype=np.uint8)
    magenta = np.zeros((8, 8, 3), dtype=np.uint8)
    magenta[:, :, 0] = 255
    magenta[:, :, 2] = 255
    assert not tissue_flag(white)
    assert tissue_flag(magenta)
    # Saturation 20/255 sits just below SATURATION_THRESHOLD, 21/255 just above.
    assert not tissue_flag(np.full((8, 8, 3), (255, 235, 235), dtype=np.uint8))
    assert tissue_flag(np.full((8, 8, 3), (255, 234, 234), dtype=np.uint8))


def test_tissue_filter_fraction_cut():
    # Three of eight columns magenta (saturation 1), the rest white.
    patch = np.full((8, 8, 3), 255, dtype=np.uint8)
    patch[:, :3, 1] = 0
    assert tissue_flag(patch)
    # The cut is strict: exactly TISSUE_FRACTION (2 of 8 columns) is background.
    patch[:, 2, 1] = 255
    assert not tissue_flag(patch)
    assert SATURATION_THRESHOLD == 0.08 and TISSUE_FRACTION == 0.25


def test_channel_range_values():
    px = np.zeros((1, 3, 3), dtype=np.uint8)
    px[0, 0] = (255, 255, 255)
    px[0, 1] = (255, 0, 0)
    px[0, 2] = (30, 90, 60)
    high, spread = channel_range(px.transpose(2, 0, 1))
    assert high.dtype == spread.dtype == np.uint8
    assert high.tolist() == [[255, 255, 90]] and spread.tolist() == [[0, 255, 60]]
    gray_high, gray_spread = channel_range(np.full((1, 2, 2), 77, dtype=np.uint8))
    assert (gray_high == 77).all() and (gray_spread == 0).all()


def test_integer_tissue_rule_matches_float_saturation_on_every_8bit_pair():
    # One pixel (max, min, min) for every 8-bit pair with min <= max.
    high, low = np.triu_indices(256)[::-1]
    px = np.stack([high, low, low], axis=1).astype(np.uint8)[None]
    assert px.shape == (1, 32896, 3)
    got = stained(*channel_range(px.transpose(2, 0, 1)))
    np.testing.assert_array_equal(got, oracle_saturation(px) > SATURATION_THRESHOLD)
    assert got.any() and not got.all()
    # The channel order does not matter.
    np.testing.assert_array_equal(stained(*channel_range(px.transpose(2, 0, 1)[::-1])), got)


# -- grid persistence ---------------------------------------------------------------


def test_grid_save_load_round_trip(tmp_path):
    grid = tile_slide(solid(448, 448, (200, 40, 120)), patch_size=224)
    path = tmp_path / "grid.txt"
    grid.save(path)
    loaded = PatchGrid.load(path)
    assert loaded == grid


def test_grid_rejects_misaligned_origin():
    with pytest.raises(UsageError):
        PatchGrid(224, 448, 448, [GridEntry(0, 0, 10, 0, True)])


def test_grid_rejects_an_origin_of_another_tile():
    # Both origins are multiples of the patch size, but swapped.
    with pytest.raises(UsageError, match=r"tile \(0,0\) has origin \(224,0\), not \(0,0\)"):
        PatchGrid(224, 448, 224, [GridEntry(0, 0, 224, 0, True), GridEntry(0, 1, 0, 0, True)])


def test_grid_rejects_out_of_bounds():
    with pytest.raises(UsageError):
        PatchGrid(224, 300, 300, [GridEntry(0, 0, 224, 0, True)])


def test_grid_rejects_duplicates_and_disorder():
    with pytest.raises(UsageError):
        PatchGrid(
            224, 448, 448,
            [GridEntry(0, 0, 0, 0, True), GridEntry(0, 0, 0, 0, False)],
        )
    with pytest.raises(UsageError):
        PatchGrid(
            224, 448, 448,
            [GridEntry(0, 1, 224, 0, True), GridEntry(0, 0, 0, 0, True)],
        )


GRID_HEADER = "224 448 448\n"
BAD_GRID_LINES = {
    "negative-row": ("-1 0 0 -224 1\n", 2, "negative row or col"),
    "negative-col": ("0 0 0 0 1\n0 -1 -224 0 1\n", 3, "negative row or col"),
    "tissue-flag": ("0 0 0 0 7\n", 2, "tissue flag must be 0 or 1, got 7"),
    "origin": ("0 0 0 0 1\n\n0 1 0 0 1\n", 4, r"has origin \(0,0\), not \(224,0\)"),
    "bounds": ("0 2 448 0 1\n", 2, "exceeds raster bounds"),
    "duplicate": ("0 0 0 0 1\n0 0 0 0 0\n", 3, r"tile \(0,0\) follows tile \(0,0\)"),
    "order": ("0 1 224 0 1\n0 0 0 0 1\n", 3, r"tile \(0,0\) follows tile \(0,1\): .* row-major"),
}


@pytest.mark.parametrize("body,line,message", BAD_GRID_LINES.values(), ids=list(BAD_GRID_LINES))
def test_grid_load_names_the_line_of_a_bad_tile(tmp_path, body, line, message):
    path = tmp_path / "grid.txt"
    path.write_text(GRID_HEADER + body)
    with pytest.raises(UsageError, match=f"^{re.escape(str(path))}:{line}: .*{message}"):
        PatchGrid.load(path)


# -- PPM / PGM ---------------------------------------------------------------------


def test_raster_round_trip_rgb(tmp_path):
    rng = stream(9, "ppm")
    pixels = rng.integers(0, 256, size=(5, 7, 3)).astype(np.uint8)
    raster = Raster(7, 5, 3, pixels)
    path = tmp_path / "img.ppm"
    write_raster(path, raster)
    back = read_raster(path)
    assert back.width == 7 and back.height == 5 and back.channels == 3
    np.testing.assert_array_equal(back.pixels, pixels)


def test_raster_round_trip_gray(tmp_path):
    pixels = np.arange(12, dtype=np.uint8).reshape(3, 4, 1)
    path = tmp_path / "img.pgm"
    write_raster(path, Raster(4, 3, 1, pixels))
    back = read_raster(path)
    assert back.channels == 1
    np.testing.assert_array_equal(back.pixels, pixels)


def test_raster_reader_handles_comments(tmp_path):
    path = tmp_path / "c.ppm"
    body = bytes([1, 2, 3])
    path.write_bytes(b"P6\n# a comment\n1 1\n255\n" + body)
    back = read_raster(path)
    np.testing.assert_array_equal(back.pixels.ravel(), [1, 2, 3])


def test_raster_reader_rejects_truncation(tmp_path):
    path = tmp_path / "t.ppm"
    # The second header claims 10^12 pixels; it is refused before any allocation.
    for data in (b"P6\n2 2\n255\n\x00\x00\x00", b"P6\n1000000 1000000\n255\n\x00"):
        path.write_bytes(data)
        with pytest.raises(UsageError, match="truncated"):
            read_raster(path)


def test_raster_reader_rejects_wide_maxval(tmp_path):
    path = tmp_path / "m.ppm"
    path.write_bytes(b"P6\n1 1\n65535\n\x00\x00\x00")
    with pytest.raises(UsageError):
        read_raster(path)


def test_raster_reader_rejects_unknown_magic(tmp_path):
    path = tmp_path / "x.ppm"
    path.write_bytes(b"P3\n1 1\n255\n1 2 3\n")
    with pytest.raises(UsageError):
        read_raster(path)


def test_raster_from_pixels_shape_check():
    with pytest.raises(UsageError):
        Raster.from_pixels(np.zeros((4, 4), dtype=np.uint8))


# -- thumbnails ----------------------------------------------------------------------


def test_thumbnail_constant_image_unchanged():
    thumb = thumbnail(solid(64, 64, (90, 90, 90)), target=32)
    assert (thumb.pixels == 90).all()
    assert thumb.width == thumb.height == 32


def test_thumbnail_block_means():
    px = np.zeros((2, 2, 1), dtype=np.uint8)
    px[0, 0, 0] = 100
    px[0, 1, 0] = 200
    px[1, 0, 0] = 50
    px[1, 1, 0] = 250
    thumb = thumbnail(Raster(2, 2, 1, px), target=1)
    assert thumb.pixels[0, 0, 0] == 150  # mean of the four, rounded


def test_thumbnail_letterboxes_non_square():
    raster = solid(100, 200, (0, 0, 0))
    thumb = thumbnail(raster, target=64)
    assert thumb.width == thumb.height == 64
    # Scaled content is 32x64, centered; the side bands stay white.
    assert (thumb.pixels[:, :16] == 255).all()
    assert (thumb.pixels[:, 48:] == 255).all()
    assert (thumb.pixels[:, 16:48] == 0).all()


def test_box_weights_rows_sum_to_one():
    for src, dst in ((10, 3), (7, 7), (5, 2), (1024, 100), (3, 10), (1792, 1024), (224, 4), (1, 1)):
        w = box_weights(src, dst)
        np.testing.assert_allclose(w.sum(axis=1), np.ones(dst), atol=1e-12)
        np.testing.assert_array_equal(w, oracle_box_weights(src, dst))
        first, band = box_band(src, dst)
        assert band.shape[1] <= math.ceil(src / dst) + 1
        assert (band[first[:, None] + np.arange(band.shape[1]) >= src] == 0).all()


def test_banded_thumbnail_matches_dense_oracle():
    for raster in oracle_rasters():
        for target in (1, 37, 256, 1024, 2 * max(raster.width, raster.height) + 3):
            if raster.width * target > 2**21:
                continue  # the dense oracle costs O(H * W * target)
            got = thumbnail(raster, target).pixels
            flips = count_level_flips(got, oracle_thumbnail(raster, target))
            assert flips <= max(1, got.size // 10_000), (raster.pixels.shape, target, flips)
    # The benchmark's slide rounds identically: no value lies within 0.01 of a tie.
    bench = synth_slide(0, BENCH_SPEC)[0]
    for target in (256, 1024):
        assert count_level_flips(thumbnail(bench, target).pixels, oracle_thumbnail(bench, target)) == 0


def test_ingest_memory_does_not_scale_with_target():
    # Tiling and the thumbnail of a 4480^2 (20 MP) slide fit in 256 MiB above
    # what the process holds once the slide is built. The dense resize
    # needed a float64 copy of the whole slide, 460 MiB here, on its own.
    code = textwrap.dedent(
        """
        import resource
        import numpy as np
        from slidevlm.slide_io import Region, SlideSpec, synth_slide, thumbnail, tile_slide

        spec = SlideSpec(4480, 4480, 224, [Region("tumor", 896, 448, 2240, 1344)])
        raster, labels = synth_slide(0, spec)
        with open("/proc/self/status") as f:
            vm = next(int(line.split()[1]) * 1024 for line in f if line.startswith("VmSize:"))
        cap = vm + 256 * 2**20
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
        try:
            raster.pixels.astype(np.float64)
        except MemoryError:
            pass
        else:
            raise SystemExit("the cap does not exclude a float64 copy of the slide")
        grid = tile_slide(raster)
        assert {(e.row, e.col) for e in grid.tissue_entries()} == set(labels)
        assert thumbnail(raster, 1024).pixels.shape == (1024, 1024, 3)
        """
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


# -- synthetic slides ---------------------------------------------------------------


def test_synth_slide_labels_match_tissue_flags():
    spec = SlideSpec(regions=[Region("tumor", 0, 0, 224, 224)])
    raster, labels = synth_slide(3, spec)
    assert labels == {(0, 0): "tumor"}
    grid = tile_slide(raster)
    flags = {(e.row, e.col): e.tissue for e in grid.entries}
    assert flags == {(0, 0): True, (0, 1): False, (1, 0): False, (1, 1): False}


def test_synth_slide_deterministic_and_seed_sensitive():
    spec = SlideSpec(regions=[Region("tumor", 224, 0, 224, 448)])
    a1, l1 = synth_slide(5, spec)
    a2, l2 = synth_slide(5, spec)
    b, l3 = synth_slide(6, spec)
    assert a1.pixels.tobytes() == a2.pixels.tobytes()
    assert a1.pixels.tobytes() != b.pixels.tobytes()
    assert l1 == l2 == l3


def test_synth_slide_rejects_overlap_and_misalignment():
    with pytest.raises(UsageError):
        synth_slide(0, SlideSpec(regions=[
            Region("a", 0, 0, 224, 224), Region("b", 0, 0, 224, 224),
        ]))
    with pytest.raises(UsageError):
        synth_slide(0, SlideSpec(regions=[Region("a", 10, 0, 224, 224)]))
    with pytest.raises(UsageError):
        synth_slide(0, SlideSpec(regions=[Region("a", 448, 0, 224, 224)]))
    with pytest.raises(UsageError, match="must be >= 0"):
        Region("a", -224, 0, 224, 224)
    for bad in ({"patch_size": 0}, {"width": -1}, {"height": 0}):
        with pytest.raises(UsageError, match="must be >= 1"):
            SlideSpec(**bad)


def test_synth_slide_matches_int64_oracle():
    specs = [
        SlideSpec(),
        SlideSpec(500, 300, 100, [Region("a", 0, 0, 200, 100), Region("b", 300, 100, 200, 200)]),
        BENCH_SPEC,
    ]
    for spec in specs:
        for seed in (0, 7):
            raster, _ = synth_slide(seed, spec)
            assert raster.pixels.dtype == np.uint8
            assert raster.pixels.tobytes() == oracle_synth_pixels(seed, spec).tobytes()

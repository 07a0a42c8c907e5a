"""Raster IO, tiling, tissue filtering, thumbnails, synthetic slides."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slidevlm.numerics import UsageError, stream
from slidevlm.slide_io import (
    GridEntry,
    PatchGrid,
    Raster,
    Region,
    SlideSpec,
    box_weights,
    read_raster,
    saturation,
    synth_slide,
    thumbnail,
    tile_slide,
    tissue_filter,
    write_raster,
)


def solid(width, height, color):
    return Raster.filled(width, height, color)


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


# -- tissue filter ----------------------------------------------------------------


def test_tissue_filter_white_false_magenta_true():
    white = np.full((8, 8, 3), 255, dtype=np.uint8)
    magenta = np.zeros((8, 8, 3), dtype=np.uint8)
    magenta[:, :, 0] = 255
    magenta[:, :, 2] = 255
    for thr in (0.01, 0.25, 0.5, 0.99):
        assert not tissue_filter(white, saturation_threshold=thr)
        assert tissue_filter(magenta, saturation_threshold=thr)


def test_tissue_filter_fraction_cut():
    # Left half magenta (saturation 1), right half white (saturation 0).
    patch = np.full((8, 8, 3), 255, dtype=np.uint8)
    patch[:, :4, 1] = 0
    assert tissue_filter(patch, tissue_fraction=0.25)
    assert not tissue_filter(patch, tissue_fraction=0.75)
    # The cut is strict: exactly at the fraction is background.
    assert not tissue_filter(patch, tissue_fraction=0.5)


def test_saturation_values():
    px = np.zeros((1, 2, 3), dtype=np.uint8)
    px[0, 0] = (255, 255, 255)
    px[0, 1] = (255, 0, 0)
    sat = saturation(px)
    assert sat[0, 0] == 0.0 and sat[0, 1] == 1.0
    gray = saturation(np.full((2, 2, 1), 77, dtype=np.uint8))
    assert gray.max() == 0.0


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
    path.write_bytes(b"P6\n2 2\n255\n\x00\x00\x00")
    with pytest.raises(UsageError):
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
    for src, dst in ((10, 3), (7, 7), (5, 2), (1024, 100)):
        w = box_weights(src, dst)
        np.testing.assert_allclose(w.sum(axis=1), np.ones(dst), atol=1e-12)


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

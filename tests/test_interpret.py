"""Saliency ranking, overlays, and trace persistence."""

import numpy as np
import pytest

from slidevlm.interpret import (
    AttentionTrace,
    PatchSaliency,
    load_trace,
    render_overlay,
    saliency,
    saliency_csv,
    save_trace,
)
from slidevlm.numerics import UsageError, stream
from slidevlm.slide_io import (
    GridEntry,
    PatchGrid,
    Raster,
    Region,
    SlideSpec,
    synth_slide,
    thumbnail,
    tile_slide,
)


def random_trace(seed, g=4, layers=2, heads=3, n=6):
    rng = stream(seed, "trace")
    raw = rng.random(size=(g, layers, heads, n))
    # Leave some mass unnormalized, as real rows keep text-position mass out.
    return AttentionTrace(raw / raw.sum(axis=3, keepdims=True) * rng.uniform(0.3, 1.0))


def brute_force_rank(values, k, renormalize):
    rows = values.reshape(-1, values.shape[3])
    if renormalize:
        rows = rows / rows.sum(axis=1, keepdims=True)
    means = rows.mean(axis=0)
    order = sorted(range(values.shape[3]), key=lambda i: (-means[i], i))
    return [(i, means[i]) for i in order[:k]]


# -- saliency ----------------------------------------------------------------------


def test_single_dominant_patch():
    values = np.zeros((3, 2, 2, 5))
    values[:, :, :, 3] = 1.0
    top = saliency(AttentionTrace(values), k=1)
    assert top.entries == [(3, 1.0)]


def test_uniform_trace_breaks_ties_by_index():
    values = np.full((2, 1, 1, 5), 0.2)
    top = saliency(AttentionTrace(values), k=5)
    assert [i for i, _ in top.entries] == [0, 1, 2, 3, 4]
    assert all(abs(s - 0.2) < 1e-12 for _, s in top.entries)


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("renormalize", [True, False])
def test_matches_brute_force_oracle(seed, renormalize):
    trace = random_trace(seed)
    got = saliency(trace, k=6, renormalize=renormalize)
    want = brute_force_rank(trace.values, 6, renormalize)
    assert [i for i, _ in got.entries] == [i for i, _ in want]
    for (gi, gs), (wi, ws) in zip(got.entries, want):
        assert abs(gs - ws) < 1e-12


def test_renormalize_flag_changes_scores():
    trace = random_trace(3)
    a = saliency(trace, k=6, renormalize=True)
    b = saliency(trace, k=6, renormalize=False)
    assert any(abs(sa - sb) > 1e-9 for (_, sa), (_, sb) in zip(a.entries, b.entries))


def test_renormalized_scores_sum_to_one():
    trace = random_trace(4)
    top = saliency(trace, k=trace.n_patches, renormalize=True)
    assert abs(sum(s for _, s in top.entries) - 1.0) <= 1e-9
    assert all(0.0 <= s <= 1.0 for _, s in top.entries)


def test_permutation_equivariance():
    trace = random_trace(5)
    perm = np.array([3, 0, 5, 1, 4, 2])
    permuted = AttentionTrace(trace.values[:, :, :, perm])
    base = saliency(trace, k=6)
    moved = saliency(permuted, k=6)
    # Ranking by original identity must be unchanged after the permutation.
    assert [perm[i] for i, _ in moved.entries] == [i for i, _ in base.entries]
    np.testing.assert_allclose(
        [s for _, s in moved.entries], [s for _, s in base.entries], atol=1e-15
    )


def test_k_clamped_with_warning():
    trace = random_trace(6, n=4)
    with pytest.warns(UserWarning):
        top = saliency(trace, k=9)
    assert top.k == 4
    assert len(top.entries) == 4


def test_empty_trace_rejected():
    with pytest.raises(UsageError):
        saliency(AttentionTrace(np.zeros((0, 2, 2, 4))))


def test_trace_validation():
    with pytest.raises(UsageError):
        AttentionTrace(np.zeros((2, 2, 4)))
    with pytest.raises(UsageError):
        AttentionTrace(np.full((1, 1, 1, 2), 1.5))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_trace_rejects_non_finite_weights(bad):
    values = np.full((1, 1, 1, 3), 0.25)
    values[0, 0, 0, 1] = bad
    with pytest.raises(UsageError, match=r"must lie in \[0, 1\]"):
        AttentionTrace(values)


def test_saliency_entry_validation():
    with pytest.raises(UsageError):
        PatchSaliency([(0, 0.1), (1, 0.5)], k=2, n_patches=2)
    with pytest.raises(UsageError):
        PatchSaliency([(0, 0.5), (0, 0.5)], k=2, n_patches=2)


@pytest.mark.parametrize("index", [-1, 2])
def test_saliency_rejects_an_index_outside_its_patches(index):
    with pytest.raises(UsageError, match=rf"patch index {index} outside \[0, 2\)"):
        PatchSaliency([(index, 0.5)], k=1, n_patches=2)


# -- overlay -------------------------------------------------------------------------


def overlay_world():
    spec = SlideSpec(448, 448, 224, [Region("tumor", 0, 0, 448, 448)])
    raster, _ = synth_slide(2, spec)
    grid = tile_slide(raster)
    thumb = thumbnail(raster, target=128)
    return raster, grid, thumb


def test_overlay_k0_is_identical_copy():
    _, grid, thumb = overlay_world()
    out = render_overlay(thumb, grid, PatchSaliency([], k=0, n_patches=4))
    assert out.pixels.tobytes() == thumb.pixels.tobytes()
    assert out.pixels is not thumb.pixels


def test_overlay_marks_only_the_ranked_quadrant():
    _, grid, thumb = overlay_world()
    sal = PatchSaliency([(0, 1.0)], k=1, n_patches=4)
    out = render_overlay(thumb, grid, sal)
    # Patch 0 is grid (0,0): top-left 64x64 of the 128 thumbnail.
    changed = (out.pixels != thumb.pixels).any(axis=2)
    assert changed[:64, :64].any()
    assert not changed[:64, 64:].any()
    assert not changed[64:, :].any()


def test_overlay_is_deterministic():
    _, grid, thumb = overlay_world()
    sal = PatchSaliency([(i, 1.0 - 0.1 * i) for i in range(4)], k=4, n_patches=4)
    a = render_overlay(thumb, grid, sal)
    b = render_overlay(thumb, grid, sal)
    assert a.pixels.tobytes() == b.pixels.tobytes()


def test_overlay_rejects_unknown_patches():
    _, grid, thumb = overlay_world()
    with pytest.raises(UsageError):
        render_overlay(thumb, grid, PatchSaliency([(9, 1.0)], k=1, n_patches=4))
    # A saliency over five patches does not fit the grid's four tissue tiles.
    with pytest.raises(UsageError, match=r"tissue tile count 4 != trace patch count 5"):
        render_overlay(thumb, grid, PatchSaliency([(0, 1.0)], k=1, n_patches=5))


def test_overlay_requires_square_thumbnail():
    _, grid, _ = overlay_world()
    bad = Raster(10, 20, 3, np.zeros((20, 10, 3), dtype=np.uint8))
    with pytest.raises(UsageError):
        render_overlay(bad, grid, PatchSaliency([], k=0, n_patches=4))


# -- csv and persistence ------------------------------------------------------------


def test_saliency_csv_format():
    # Tissue tiles (0,0), (0,1) and (1,1) are patches 0, 1 and 2.
    tiles = [(0, 0, True), (0, 1, True), (1, 0, False), (1, 1, True)]
    grid = PatchGrid(1, 2, 2, [GridEntry(r, c, c, r, t) for r, c, t in tiles])
    sal = PatchSaliency([(2, 0.5), (0, 0.25)], k=2, n_patches=3)
    text = saliency_csv(sal, grid)
    lines = text.splitlines()
    assert lines[0] == "rank,patch_index,row,col,score"
    assert lines[1] == "1,2,1,1,0.5"
    assert lines[2] == "2,0,0,0,0.25"


def test_trace_round_trip(tmp_path):
    trace = random_trace(8)
    trace.tokens = ["tumor", "tissue", "margin", "seen"]
    path = tmp_path / "trace.ckpt"
    save_trace(path, trace)
    back = load_trace(path)
    np.testing.assert_array_equal(back.values, trace.values)
    assert back.tokens == trace.tokens


def test_traces_carry_no_coordinates_and_older_ones_still_load(tmp_path):
    from slidevlm.numerics import load_checkpoint, save_checkpoint

    trace = random_trace(9)
    path = tmp_path / "trace.ckpt"
    save_trace(path, trace)
    assert "coords" not in load_checkpoint(path)[1]
    # A trace written when traces still held the grid coordinates.
    coords = [[i // 3, i % 3] for i in range(trace.n_patches)]
    meta = {"kind": "attention-trace", "coords": coords, "tokens": ["tumor"] * 4}
    save_checkpoint(path, {"trace": trace.values}, meta)
    back = load_trace(path)
    np.testing.assert_array_equal(back.values, trace.values)
    assert back.tokens == ["tumor"] * 4
    assert not hasattr(back, "coords")


def test_load_trace_rejects_other_checkpoints(tmp_path):
    from slidevlm.numerics import save_checkpoint

    path = tmp_path / "w.ckpt"
    save_checkpoint(path, {"weight": np.zeros(2)})
    with pytest.raises(UsageError):
        load_trace(path)

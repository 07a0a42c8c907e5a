"""Patch featurizer, embedding files, dilated attention, slide encoder, projector."""

import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from conftest import oracle_rasters, oracle_saturation, run_capped, tiny_model
from slidevlm.numerics import Parameter, Tensor, UsageError, attention, concat, stream
from slidevlm.encoders import (
    EMBEDDINGS_MAGIC,
    DilatedSelfAttention,
    EmbeddingMatrix,
    PatchEncoder,
    Projector,
    SlideEncoder,
    SlideEncoderConfig,
    dilated_branch,
    load_embeddings,
    save_embeddings,
)
from slidevlm.slide_io import GridEntry, PatchGrid, Raster, box_weights, tile_slide


def dense_attention(q, k, v, allowed=None):
    """Reference softmax attention; `allowed` is a boolean key mask per row."""
    scale = 1.0 / math.sqrt(q.shape[1])
    scores = (q @ k.T) * scale
    if allowed is not None:
        scores = np.where(allowed, scores, -np.inf)
    scores = scores - scores.max(axis=1, keepdims=True)
    weights = np.exp(scores)
    weights = weights / weights.sum(axis=1, keepdims=True)
    return weights @ v


# -- dilated branch ------------------------------------------------------------------


def dilated_attention(q, k, v, w, r, offset=0):
    """Output of one single-head branch on plain [N, d] arrays."""
    out, _, _ = dilated_branch(Tensor(q[None]), Tensor(k[None]), Tensor(v[None]), w, r, [offset])
    return out.data[0]


def test_single_branch_full_window_equals_dense():
    rng = stream(2, "dense-eq")
    for _ in range(10):
        n = int(rng.integers(1, 33))
        d = int(rng.integers(1, 65))
        q, k, v = (rng.normal(size=(n, d)) for _ in range(3))
        got = dilated_attention(q, k, v, w=n, r=1)
        want = dense_attention(q, k, v)
        assert np.abs(got - want).max() <= 1e-9


def test_dilated_rows_attend_within_their_offset_class():
    rng = stream(3, "offset")
    q, k, v = (rng.normal(size=(4, 5)) for _ in range(3))
    got = dilated_attention(q, k, v, w=4, r=2, offset=0)
    # Offset 0 selects rows {0, 2}; they attend among themselves only.
    allowed = np.zeros((4, 4), dtype=bool)
    allowed[np.ix_([0, 2], [0, 2])] = True
    want = np.zeros_like(got)
    sub = dense_attention(q[[0, 2]], k[[0, 2]], v[[0, 2]])
    want[[0, 2]] = sub
    np.testing.assert_allclose(got, want, atol=1e-12)
    assert (got[[1, 3]] == 0.0).all()


def test_dilated_offset_one_selects_odd_rows():
    rng = stream(4, "offset1")
    q, k, v = (rng.normal(size=(4, 5)) for _ in range(3))
    got = dilated_attention(q, k, v, w=4, r=2, offset=1)
    sub = dense_attention(q[[1, 3]], k[[1, 3]], v[[1, 3]])
    np.testing.assert_allclose(got[[1, 3]], sub, atol=1e-12)
    assert (got[[0, 2]] == 0.0).all()


def test_padded_segment_keys_carry_no_weight():
    rng = stream(5, "pad")
    q, k, v = (rng.normal(size=(5, 3)) for _ in range(3))
    got = dilated_attention(q, k, v, w=4, r=1)
    # Segment 2 holds only row 4; with padding masked its attention is a
    # self-loop, so the output row must equal v[4] exactly.
    np.testing.assert_allclose(got[4], v[4], atol=1e-12)
    # Ones as values reveal each row's total attention mass over real keys.
    ones = np.ones((5, 1))
    mass = dilated_attention(q, k, ones, w=4, r=1)
    np.testing.assert_allclose(mass, np.ones((5, 1)), atol=1e-12)


def test_multi_segment_rows_stay_inside_their_segment():
    rng = stream(6, "segments")
    q, k, v = (rng.normal(size=(8, 4)) for _ in range(3))
    got = dilated_attention(q, k, v, w=4, r=1)
    want = np.vstack([
        dense_attention(q[:4], k[:4], v[:4]),
        dense_attention(q[4:], k[4:], v[4:]),
    ])
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_branch_validation():
    t = Tensor(np.zeros((2, 4, 2)))
    with pytest.raises(UsageError):
        dilated_branch(t, t, t, w=5, r=2, offsets=[0, 1])
    with pytest.raises(UsageError):
        dilated_branch(t, t, t, w=2, r=3, offsets=[0, 1])
    with pytest.raises(UsageError):
        dilated_branch(t, t, t, w=4, r=2, offsets=[0, 2])
    with pytest.raises(UsageError):
        dilated_branch(t, t, t, w=4, r=2, offsets=[0])


def test_branch_mix_weights_sum_to_one_over_selecting_branches():
    # Mixing rule: softmax over per-branch log-denominators, masked to the
    # branches that selected each row, i.e. `attention` of a unit query with
    # the log-denominators as scores. With all-ones values every branch
    # output is 1 at selected rows, so the mix must return exactly 1.
    rng = stream(7, "mix")
    heads, n = 3, 6
    q, k = (Tensor(rng.normal(size=(heads, n, 4))) for _ in range(2))
    v = Tensor(np.ones((heads, n, 1)))
    branch_specs = [(2, 1), (6, 2), (6, 3)]
    outs, logdens, sels = [], [], []
    for w, r in branch_specs:
        out, logden, sel = dilated_branch(q, k, v, w, r, offsets=np.arange(heads) % r)
        outs.append(out.reshape(heads * n, 1, 1))
        logdens.append(logden.reshape(heads * n, 1))
        sels.append(sel.reshape(heads * n))
    capture = []
    mixed, _ = attention(
        Tensor(np.ones((heads * n, 1, 1))),
        concat(logdens, axis=1).reshape(heads * n, 1, len(sels)),
        concat(outs, axis=1),
        keys=np.stack(sels, axis=1),
        capture=capture,
    )
    weights = capture[0][:, 0]
    assert (weights >= 0.0).all()
    selected_any = np.stack(sels, axis=1).any(axis=1)
    sums = weights.sum(axis=1)
    np.testing.assert_allclose(sums[selected_any], 1.0, atol=1e-12)
    np.testing.assert_allclose(mixed.data[selected_any, 0, 0], 1.0, atol=1e-12)


def reference_dilated_self_attention(attn, x):
    """Plain-numpy loops over heads, branches and segments of DilatedSelfAttention."""
    cfg, dh, n = attn.cfg, attn.cfg.head_dim, x.shape[0]
    p = {prm.name.split(".", 1)[1]: prm.value.data for prm in attn.params()}
    q = x @ p["q.weight"] + p["q.bias"]
    k = x @ p["k.weight"]
    v = x @ p["v.weight"] + p["v.bias"]
    merged = np.zeros((n, cfg.model_dim))
    for h in range(cfg.heads):
        cols = slice(h * dh, (h + 1) * dh)
        outs, logdens, sels = [], [], []
        for w, r in cfg.effective_branches(n):
            out, logden, sel = np.zeros((n, dh)), np.full(n, -np.inf), np.zeros(n, dtype=bool)
            for start in range(0, n, w):
                rows = list(range(start + h % r, min(start + w, n), r))
                if not rows:
                    continue
                scores = q[rows, cols] @ k[rows, cols].T / math.sqrt(dh)
                peak = scores.max(axis=1, keepdims=True)
                e = np.exp(scores - peak)
                out[rows] = e / e.sum(axis=1, keepdims=True) @ v[rows, cols]
                logden[rows] = peak[:, 0] + np.log(e.sum(axis=1))
                sel[rows] = True
            outs.append(out)
            logdens.append(logden)
            sels.append(sel)
        for i in range(n):
            live = [b for b in range(len(outs)) if sels[b][i]]
            if not live:
                continue
            peak = max(logdens[b][i] for b in live)
            mix = {b: math.exp(logdens[b][i] - peak) for b in live}
            total = sum(mix.values())
            merged[i, cols] = sum(mix[b] / total * outs[b][i] for b in live)
    return merged @ p["out.weight"] + p["out.bias"]


@pytest.mark.parametrize(
    "n, heads, branches",
    [
        (1, 3, ((4, 1), (8, 2))),                 # a single patch
        (5, 5, ((8, 1), (16, 2), (32, 4))),       # N < w, heads > r
        (13, 4, ((4, 1), (8, 2), (12, 3))),       # N not a multiple of w
        (24, 4, ((4, 1), (8, 2), (12, 3))),       # N a multiple of every w
        (11, 3, ((8, 2),)),                       # one branch; each head skips half its rows
        (37, 6, ((16, 1), (32, 2), (64, 4))),     # default schedule, heads > r
    ],
)
def test_batched_dilated_attention_matches_loop_oracle(n, heads, branches):
    cfg = SlideEncoderConfig(in_dim=8, heads=heads, head_dim=3, branches=branches)
    attn = DilatedSelfAttention("attn", cfg, stream(n, "oracle", "weights"))
    x = stream(n, "oracle", "x").normal(size=(n, cfg.model_dim))
    got = attn(Tensor(x)).data
    np.testing.assert_allclose(got, reference_dilated_self_attention(attn, x), rtol=0, atol=1e-12)


def test_encoder_tape_budget_at_1024_patches():
    # The traced peak of one default encoder forward and backward bounds
    # what the tape keeps per patch. Composed norms and bias adds, with a
    # backward that held every node to the end, took 276 KiB per patch;
    # gathered keys kept both untransposed and transposed, 115.5; parent
    # links that held every intermediate value, 110.4; a feed-forward that
    # kept its tanh term and activation, 73.0; now 50.0.
    n = 1024
    enc = SlideEncoder(SlideEncoderConfig(positional="none"), seed=0)
    x = Tensor(stream(0, "tape-budget").normal(size=(n, 32)))
    tracemalloc.start()
    try:
        enc(x).sum().backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n <= 53 * 1024, f"{peak / n / 1024:.1f} KiB per patch"


def loss_budget_case():
    """A default-dims model with grid positions, every group trainable, and
    a 1024-patch slide for its loss."""
    from slidevlm.lm import Vocab
    from slidevlm.model import ModelConfig, SlideInputs, SlideVLM

    n, side = 1024, 32
    vocab = Vocab.build(["the slide shows tumor tissue with stroma margin"])
    model = SlideVLM(ModelConfig(encoder=SlideEncoderConfig(positional="grid")), vocab, seed=0)
    model.set_trainable_groups({"slide_encoder", "projector", "lm"})
    emb = stream(0, "loss-budget").normal(size=(n, 32))
    coords = [(i // side, i % side) for i in range(n)]
    return model, SlideInputs(EmbeddingMatrix(n, 32, emb), coords)


def test_full_model_loss_budget_at_1024_patches():
    # The traced peak of one full-model loss forward and backward, default
    # dims with grid positions. A decoder that ran every block over all rows
    # kept the last block's prefix rows on the tape and took 268 KiB per
    # patch; the prefix pass and text rows took 207, and 211 with the prefix
    # pass's [H, p, p] weights on the tape; attention that rebuilds them in
    # backward took 147.7 with parent links that held every intermediate
    # value, and took 97.1 with a tape that keeps only what backward reads
    # while each feed-forward kept its tanh term and activation; now 66.0.
    model, inputs = loss_budget_case()
    n = inputs.embeddings.n_patches
    tracemalloc.start()
    try:
        model.loss(inputs, "the slide shows", "tumor tissue with stroma margin").backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n <= 70 * 1024, f"{peak / n / 1024:.1f} KiB per patch"


def test_taped_forward_budget_at_1024_patches():
    # What a full-model loss forward holds with grad on and no backward, as
    # any evaluation that does not turn grad off runs it. Parent links that
    # held every intermediate value kept 130.8 KiB per patch; the tape keeps
    # only what backward reads, 78.2, and without the feed-forwards' tanh
    # terms and activations, 54.0.
    model, inputs = loss_budget_case()
    n = inputs.embeddings.n_patches
    tracemalloc.start()
    try:
        loss = model.loss(inputs, "the slide shows", "tumor tissue with stroma margin")
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert loss.requires_grad
    assert held / n <= 57 * 1024, f"{held / n / 1024:.1f} KiB per patch"


def test_encoder_memory_is_linear_at_4096_patches():
    # Forward and backward at default dims under a 3 GiB address-space cap.
    # A per-segment scatter into fresh N-row tensors needs O(N^2 / w) memory
    # and raises MemoryError here even with 6 GiB.
    code = """
        from slidevlm.encoders import SlideEncoder, SlideEncoderConfig
        from slidevlm.numerics import Tensor, stream
        enc = SlideEncoder(SlideEncoderConfig(positional="none"), seed=0)
        x = Tensor(stream(0, "memory-guard").normal(size=(4096, 32)))
        y = enc(x)
        ((y * y).sum() * (1.0 / y.size)).backward()
        """
    proc = run_capped(code, 3 * 2**30)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_effective_branches_cap():
    cfg = SlideEncoderConfig(branches=((16, 1), (32, 2), (64, 4)))
    assert cfg.effective_branches(5) == [(5, 1), (6, 2), (8, 4)]
    assert cfg.effective_branches(100) == [(16, 1), (32, 2), (64, 4)]


def test_config_validation():
    with pytest.raises(UsageError):
        SlideEncoderConfig(branches=((5, 2),))
    with pytest.raises(UsageError):
        SlideEncoderConfig(branches=())
    with pytest.raises(UsageError):
        SlideEncoderConfig(positional="spiral")
    with pytest.raises(UsageError, match="not a"):
        SlideEncoderConfig(branches=((16,),))
    with pytest.raises(UsageError, match="grid_rows"):
        SlideEncoderConfig(grid_rows=0)


# -- slide encoder ---------------------------------------------------------------


def small_cfg(**kw):
    base = dict(in_dim=6, heads=2, head_dim=4, layers=1, ffn_mult=2, branches=((8, 1),),
                positional="none")
    base.update(kw)
    return SlideEncoderConfig(**base)


def test_layers_zero_is_input_projection():
    cfg = small_cfg(layers=0)
    enc = SlideEncoder(cfg, seed=1)
    x = stream(1, "x").normal(size=(3, 6))
    got = enc(x).data
    w = enc.input_proj.weight.value.data
    b = enc.input_proj.bias.value.data
    np.testing.assert_allclose(got, x @ w + b, atol=1e-12)


def test_single_branch_block_matches_dense_oracle():
    cfg = small_cfg()
    enc = SlideEncoder(cfg, seed=2)
    x = stream(2, "x").normal(size=(5, 6))
    got = enc(x).data

    def param(name):
        return {p.name: p.value.data for p in enc.params()}[name]

    def layer_norm(v, gain, shift):
        mu = v.mean(axis=1, keepdims=True)
        var = v.var(axis=1, keepdims=True)
        return (v - mu) / np.sqrt(var + 1e-5) * gain + shift

    h = x @ param("slide_encoder.input.weight") + param("slide_encoder.input.bias")
    q = h @ param("slide_encoder.block0.attn.q.weight") + param("slide_encoder.block0.attn.q.bias")
    k = h @ param("slide_encoder.block0.attn.k.weight")
    v = h @ param("slide_encoder.block0.attn.v.weight") + param("slide_encoder.block0.attn.v.bias")
    heads = []
    for hd in range(2):
        sl = slice(hd * 4, (hd + 1) * 4)
        heads.append(dense_attention(q[:, sl], k[:, sl], v[:, sl]))
    att = np.hstack(heads) @ param("slide_encoder.block0.attn.out.weight")
    att = att + param("slide_encoder.block0.attn.out.bias")
    h = layer_norm(h + att, param("slide_encoder.block0.ln1.gain"), param("slide_encoder.block0.ln1.bias"))
    up = h @ param("slide_encoder.block0.ffn.up.weight") + param("slide_encoder.block0.ffn.up.bias")
    act = 0.5 * up * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (up + 0.044715 * up**3)))
    ff = act @ param("slide_encoder.block0.ffn.down.weight") + param("slide_encoder.block0.ffn.down.bias")
    want = layer_norm(h + ff, param("slide_encoder.block0.ln2.gain"), param("slide_encoder.block0.ln2.bias"))
    np.testing.assert_allclose(got, want, atol=1e-9)


def test_permutation_equivariance_without_positions():
    cfg = small_cfg(layers=2)
    enc = SlideEncoder(cfg, seed=3)
    x = stream(3, "x").normal(size=(6, 6))
    perm = np.array([4, 0, 5, 2, 1, 3])
    base = enc(x).data
    permuted = enc(x[perm]).data
    np.testing.assert_allclose(permuted, base[perm], atol=1e-10)


def test_grid_positions_break_equivariance_and_need_coords():
    cfg = small_cfg(positional="grid", grid_rows=4, grid_cols=4)
    enc = SlideEncoder(cfg, seed=4)
    x = stream(4, "x").normal(size=(3, 6))
    with pytest.raises(UsageError):
        enc(x)
    with pytest.raises(UsageError):
        enc(x, coords=[(0, 0), (1, 9), (2, 2)])
    a = enc(x, coords=[(0, 0), (0, 1), (1, 0)]).data
    b = enc(x, coords=[(1, 0), (0, 1), (0, 0)]).data
    assert np.abs(a - b).max() > 1e-6


def test_empty_sequence_rejected():
    enc = SlideEncoder(small_cfg(), seed=0)
    with pytest.raises(UsageError):
        enc(np.zeros((0, 6)))


def test_encoder_is_deterministic_per_seed():
    a = SlideEncoder(small_cfg(), seed=7)
    b = SlideEncoder(small_cfg(), seed=7)
    c = SlideEncoder(small_cfg(), seed=8)
    pa = {p.name: p.value.data for p in a.params()}
    pb = {p.name: p.value.data for p in b.params()}
    pc = {p.name: p.value.data for p in c.params()}
    assert all(pa[k].tobytes() == pb[k].tobytes() for k in pa)
    assert any(pa[k].tobytes() != pc[k].tobytes() for k in pa)


# -- embeddings file --------------------------------------------------------------


def test_embeddings_round_trip(tmp_path):
    values = stream(8, "emb").normal(size=(4, 8)).astype(np.float32).astype(np.float64)
    emb = EmbeddingMatrix(4, 8, values)
    path = tmp_path / "e.emb"
    save_embeddings(path, emb)
    raw = path.read_bytes()
    assert raw[:8] == EMBEDDINGS_MAGIC
    # magic | u32 N | u32 D | float32-LE rows
    assert raw[8:16] == np.array([4, 8], dtype="<u4").tobytes()
    assert raw[16:] == values.astype("<f4").tobytes()
    back = load_embeddings(path)
    assert (back.n_patches, back.dim) == (4, 8)
    np.testing.assert_array_equal(back.values, values)


def test_embeddings_reject_bad_bytes(tmp_path):
    path = tmp_path / "bad.emb"
    path.write_bytes(b"WRONGMAG" + b"\x00" * 8)
    with pytest.raises(UsageError):
        load_embeddings(path)
    path.write_bytes(EMBEDDINGS_MAGIC + np.array([2, 2], dtype="<u4").tobytes() + b"\x00" * 4)
    with pytest.raises(UsageError):
        load_embeddings(path)
    path.write_bytes(
        EMBEDDINGS_MAGIC + np.array([1, 2], dtype="<u4").tobytes() + np.array([0.0, np.nan], "<f4").tobytes()
    )
    with pytest.raises(UsageError, match=f"^{re.escape(str(path))}: embeddings contain non-finite values$"):
        load_embeddings(path)


def test_embedding_matrix_rejects_non_finite():
    with pytest.raises(UsageError):
        EmbeddingMatrix(1, 2, np.array([[np.nan, 0.0]]))


# -- patch encoder ----------------------------------------------------------------


def encode_one(enc, patch):
    """Features of one patch, through `encode_grid` on a one-tile grid."""
    ps = enc.patch_size
    grid = PatchGrid(ps, ps, ps, [GridEntry(0, 0, 0, 0, True)])
    return enc.encode_grid(Raster.from_pixels(patch), grid).values[0]


def test_patch_encoder_deterministic_and_injective_on_constants():
    enc = PatchEncoder(dim=16, patch_size=8, seed=0)
    zero = np.zeros((8, 8, 3), dtype=np.uint8)
    full = np.full((8, 8, 3), 255, dtype=np.uint8)
    np.testing.assert_array_equal(encode_one(enc, zero), encode_one(enc, zero))
    assert np.abs(encode_one(enc, zero) - encode_one(enc, full)).max() > 1e-9


def test_patch_encoder_is_frozen():
    # The featurizer holds no Parameter, and the model holds none of it.
    enc = PatchEncoder(dim=4, patch_size=8, seed=0)
    assert not any(isinstance(v, Parameter) for v in vars(enc).values())
    assert not [p.name for p in tiny_model().params() if p.name.startswith("patch_encoder")]


def test_patch_encoder_rejects_grids_that_do_not_fit():
    enc = PatchEncoder(dim=4, patch_size=16, seed=0)
    raster = oracle_rasters()[2]  # 60 x 100
    with pytest.raises(UsageError, match="patch size"):
        enc.encode_grid(raster, tile_slide(raster, patch_size=8))
    magenta = Raster.from_pixels(np.full((128, 64, 3), (200, 40, 120), dtype=np.uint8))
    outside = tile_slide(magenta, patch_size=16)
    with pytest.raises(UsageError, match="exceeds"):
        enc.encode_grid(raster, outside)
    # A grid whose tiles all fit, but cut from a raster of another size.
    other = tile_slide(Raster.from_pixels(magenta.pixels[:48, :48]), patch_size=16)
    with pytest.raises(UsageError, match="from a 48x48 raster, not from this 60x100 one"):
        enc.encode_grid(raster, other)


def test_patch_statistics_equal_exact_rationals():
    """Channel means and variances are the correctly rounded exact fractions."""
    ps = 224
    enc = PatchEncoder(dim=PatchEncoder.N_STATS, patch_size=ps, seed=0)
    enc.weight[...] = np.eye(PatchEncoder.N_STATS)  # the features are the statistics
    rng = stream(3, "exact-stats")
    checker = np.where((np.arange(ps)[:, None] + np.arange(ps)) % 2, 255, 0)
    tiles = [
        np.zeros((ps, ps, 3)),
        np.full((ps, ps, 3), 255),
        np.repeat(checker[:, :, None], 3, axis=2),
        rng.integers(0, 256, size=(ps, ps, 3)),
        rng.integers(0, 256, size=(ps, ps, 1)),
    ]
    for tile in tiles:
        stats = encode_one(enc, tile.astype(np.uint8))
        for c in range(3):
            levels = [int(v) for v in tile[:, :, c % tile.shape[2]].ravel()]
            mean = Fraction(sum(levels), 255 * len(levels))
            var = Fraction(sum(v * v for v in levels), 255**2 * len(levels)) - mean**2
            assert stats[c] == float(mean)
            assert stats[3 + c] == math.sqrt(float(var))


def oracle_features(enc, patch):
    """Statistics of one patch, then the projection, as a per-patch loop computed them."""
    x = patch.astype(np.float64) / 255.0
    if x.shape[2] == 1:
        x = np.repeat(x, 3, axis=2)
    cell_w = box_weights(enc.patch_size, 4)
    cells = np.stack([cell_w @ x[:, :, c] @ cell_w.T for c in range(3)], axis=2)
    sat = oracle_saturation(patch)
    stats = np.concatenate(
        [x.mean(axis=(0, 1)), x.std(axis=(0, 1)), cells.reshape(-1), [sat.mean(), float(np.mean(sat > 0.08))]]
    )
    return stats @ enc.weight


def test_strip_featurizer_matches_per_patch_oracle():
    # Every tile is featurized, tissue or not, so each strip is a full batch.
    for raster in oracle_rasters():
        for ps in (224, 50, 16):
            if (raster.width // ps) * (raster.height // ps) > 2000:
                continue  # the oracle loops over tiles in Python
            grid = tile_slide(raster, patch_size=ps)
            grid = PatchGrid(ps, raster.width, raster.height, [e._replace(tissue=True) for e in grid.entries])
            enc = PatchEncoder(dim=32, patch_size=ps, seed=ps)
            got = enc.encode_grid(raster, grid).values
            want = np.array(
                [oracle_features(enc, raster.pixels[e.y : e.y + ps, e.x : e.x + ps]) for e in grid.entries]
            ).reshape(len(grid.entries), 32)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
            assert got.astype("<f4").tobytes() == want.astype("<f4").tobytes()
            for e, row in zip(grid.entries, got):
                patch = raster.pixels[e.y : e.y + ps, e.x : e.x + ps]
                np.testing.assert_array_equal(encode_one(enc, patch), row)


# -- projector ----------------------------------------------------------------------


def test_projector_identity_and_zero_configurations():
    proj = Projector(3, 3, layers=1, seed=0)
    proj.maps[0].weight.value.data[...] = np.eye(3)
    proj.maps[0].bias.value.data[...] = 0.0
    x = stream(9, "p").normal(size=(4, 3))
    np.testing.assert_allclose(proj(x).data, x, atol=1e-12)
    proj.maps[0].weight.value.data[...] = 0.0
    proj.maps[0].bias.value.data[...] = [1.0, 2.0, 3.0]
    out = proj(x).data
    np.testing.assert_allclose(out, np.tile([1.0, 2.0, 3.0], (4, 1)), atol=1e-12)


def test_projector_two_layer_and_validation():
    proj = Projector(3, 5, layers=2, seed=1)
    out = proj(np.zeros((2, 3)))
    assert out.shape == (2, 5)
    assert len(proj.params()) == 4
    with pytest.raises(UsageError):
        Projector(3, 5, layers=3)

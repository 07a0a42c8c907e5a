"""Patch featurizer, embedding files, dilated attention, slide encoder, projector."""

import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import slidevlm

from slidevlm.numerics import Tensor, UsageError, concat, masked_softmax, stream
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
    # branches that selected each row. With all-ones values every branch
    # output is 1 at selected rows, so the mix must return exactly 1.
    rng = stream(7, "mix")
    heads, n = 3, 6
    q, k = (Tensor(rng.normal(size=(heads, n, 4))) for _ in range(2))
    v = Tensor(np.ones((heads, n, 1)))
    branch_specs = [(2, 1), (6, 2), (6, 3)]
    outs, logdens, sels = [], [], []
    for w, r in branch_specs:
        out, logden, sel = dilated_branch(q, k, v, w, r, offsets=np.arange(heads) % r)
        outs.append(out.reshape(heads * n, 1))
        logdens.append(logden.reshape(heads * n, 1))
        sels.append(sel.reshape(heads * n))
    weights = masked_softmax(concat(logdens, axis=1), np.stack(sels, axis=1), axis=1)
    assert (weights.data >= 0.0).all()
    selected_any = np.stack(sels, axis=1).any(axis=1)
    sums = weights.data.sum(axis=1)
    np.testing.assert_allclose(sums[selected_any], 1.0, atol=1e-12)
    mixed = (weights * concat(outs, axis=1)).sum(axis=1)
    np.testing.assert_allclose(mixed.data[selected_any], 1.0, atol=1e-12)


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


def test_encoder_memory_is_linear_at_4096_patches():
    # Forward and backward at default dims under a 3 GiB address-space cap.
    # A per-segment scatter into fresh N-row tensors needs O(N^2 / w) memory
    # and raises MemoryError here even with 6 GiB.
    code = textwrap.dedent(
        """
        import resource
        cap = 3 * 2**30
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
        from slidevlm.encoders import SlideEncoder, SlideEncoderConfig
        from slidevlm.numerics import Tensor, stream
        enc = SlideEncoder(SlideEncoderConfig(), seed=0)
        x = Tensor(stream(0, "memory-guard").normal(size=(4096, 32)))
        (enc(x) ** 2.0).mean().backward()
        """
    )
    src = str(Path(slidevlm.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
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


# -- slide encoder ---------------------------------------------------------------


def small_cfg(**kw):
    base = dict(in_dim=6, heads=2, head_dim=4, layers=1, ffn_mult=2, branches=((8, 1),))
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


def test_embeddings_expectation_checks(tmp_path):
    path = tmp_path / "e.emb"
    save_embeddings(path, EmbeddingMatrix(2, 3, np.zeros((2, 3))))
    with pytest.raises(UsageError):
        load_embeddings(path, expect_n=5)
    with pytest.raises(UsageError):
        load_embeddings(path, expect_dim=4)
    load_embeddings(path, expect_n=2, expect_dim=3)


def test_embeddings_reject_bad_bytes(tmp_path):
    path = tmp_path / "bad.emb"
    path.write_bytes(b"WRONGMAG" + b"\x00" * 8)
    with pytest.raises(UsageError):
        load_embeddings(path)
    path.write_bytes(EMBEDDINGS_MAGIC + np.array([2, 2], dtype="<u4").tobytes() + b"\x00" * 4)
    with pytest.raises(UsageError):
        load_embeddings(path)


def test_embedding_matrix_rejects_non_finite():
    with pytest.raises(UsageError):
        EmbeddingMatrix(1, 2, np.array([[np.nan, 0.0]]))


# -- patch encoder ----------------------------------------------------------------


def test_patch_encoder_deterministic_and_injective_on_constants():
    enc = PatchEncoder(dim=16, patch_size=8, seed=0)
    zero = np.zeros((8, 8, 3), dtype=np.uint8)
    full = np.full((8, 8, 3), 255, dtype=np.uint8)
    np.testing.assert_array_equal(enc.encode(zero), enc.encode(zero))
    assert np.abs(enc.encode(zero) - enc.encode(full)).max() > 1e-9


def test_patch_encoder_is_frozen():
    enc = PatchEncoder(dim=4, patch_size=8, seed=0)
    assert all(not p.trainable for p in enc.params())


def test_patch_encoder_rejects_wrong_size():
    enc = PatchEncoder(dim=4, patch_size=8, seed=0)
    with pytest.raises(UsageError):
        enc.encode(np.zeros((9, 8, 3), dtype=np.uint8))
    with pytest.raises(UsageError):
        enc.encode(np.zeros((8, 8, 2), dtype=np.uint8))


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

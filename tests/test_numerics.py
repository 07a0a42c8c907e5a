"""Tensor ops, losses, optimizer, checkpoints, and seeded streams."""

import hashlib
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from conftest import reference_attention, structural_mask, tiny_model
from hypothesis import strategies as st

from slidevlm.numerics import (
    AdamW,
    CheckpointError,
    Parameter,
    Tensor,
    UsageError,
    affine,
    attention,
    concat,
    cross_entropy,
    ffn,
    layer_norm,
    load_checkpoint,
    no_grad,
    put_rows,
    save_checkpoint,
    stream,
    take_rows,
)
from slidevlm.layers import HeadProjections, Linear
from slidevlm.numerics.optim import EPS
from slidevlm.numerics.tensor import _BLOCK_ROWS, _needs


# -- attention -------------------------------------------------------------------


def unit_query(logits, keys=None):
    """`attention` of one query of width 1 over keys whose scores are the
    logits [..., m], with identity values: `out` is then the weights."""
    x = np.asarray(logits, dtype=np.float64)
    q = Tensor(np.ones(x.shape[:-1] + (1, 1)))
    eye = np.broadcast_to(np.eye(x.shape[-1]), x.shape[:-1] + (x.shape[-1],) * 2)
    return attention(q, Tensor(x[..., None, :]), Tensor(eye), keys=keys)


def softmax(logits):
    """Plain softmax of a vector: the weights with every key allowed."""
    return unit_query(logits)[0].data[0]


def test_softmax_equal_logits():
    np.testing.assert_allclose(softmax([0.0, 0.0]), [0.5, 0.5], atol=1e-15)


def test_softmax_log2_logit():
    out = softmax([math.log(2.0), 0.0])
    np.testing.assert_allclose(out, [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)


def test_softmax_extreme_logit_saturates():
    out = softmax([1000.0, 0.0])
    np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-300)
    assert np.isfinite(out).all()


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
        min_size=1,
        max_size=16,
    )
)
def test_softmax_is_probability_vector(logits):
    out = softmax(logits)
    assert (out >= 0.0).all()
    assert abs(out.sum() - 1.0) <= 1e-12


def test_masked_softmax_zeroes_masked_entries():
    out, _ = unit_query([1.0, 2.0, 3.0, 4.0], np.array([True, False, True, False]))
    assert out.data[0, 1] == 0.0 and out.data[0, 3] == 0.0
    # Allowed entries renormalize among themselves.
    ref = np.exp([1.0, 3.0])
    np.testing.assert_allclose(out.data[0, [0, 2]], ref / ref.sum(), atol=1e-12)


def test_masked_softmax_fully_masked_row_is_zero():
    out, lse = unit_query([5.0, 7.0], np.array([False, False]))
    np.testing.assert_array_equal(out.data, [[0.0, 0.0]])
    np.testing.assert_array_equal(lse.data, [0.0])


def test_masked_softmax_shape_mismatch():
    q, k = Tensor(np.ones((2, 3))), Tensor(np.ones((4, 3)))
    with pytest.raises(UsageError, match="mask"):
        attention(q, k.T, k, keys=np.ones(3, dtype=bool))  # one validity per key
    with pytest.raises(UsageError):
        attention(q, Tensor(np.ones((2, 4))), k)  # key width != query width
    with pytest.raises(UsageError):
        attention(q, k.T, Tensor(np.ones((3, 3))))  # one value row per key
    with pytest.raises(UsageError):
        attention(Tensor(np.ones(3)), k.T, k)


def test_masked_logsumexp_matches_dense_on_full_mask():
    x = stream(3, "lse").normal(size=(4, 6))
    _, lse = unit_query(x)
    np.testing.assert_allclose(lse.data[:, 0], np.log(np.exp(x).sum(axis=1)), atol=1e-12)


def test_masked_logsumexp_ignores_masked_entries():
    _, lse = unit_query([0.0, 1000.0], np.array([True, False]))
    np.testing.assert_allclose(lse.data, [0.0], atol=1e-12)


def composed_attention(q, k, v, allow, g_out, g_lse):
    """The scores, masked softmax and masked log-sum-exp that the two stacks
    composed before `attention`, in plain numpy, with the gradients of
    sum(out * g_out) + sum(lse * g_lse) by their chain rule."""
    scale = 1.0 / math.sqrt(q.shape[-1])
    scores = (q @ np.swapaxes(k, -1, -2)) * scale
    mask = np.broadcast_to(allow, scores.shape)
    peak = np.where(mask, scores, -np.inf).max(axis=-1, keepdims=True)
    peak = np.where(np.isfinite(peak), peak, 0.0)
    expd = np.where(mask, np.exp(np.where(mask, scores - peak, 0.0)), 0.0)
    total = expd.sum(axis=-1, keepdims=True)
    safe = np.where(total == 0.0, 1.0, total)
    weights = expd / safe
    out = weights @ v
    lse = np.where(total > 0.0, peak + np.log(safe), 0.0)[..., 0]
    d_weights = g_out @ np.swapaxes(v, -1, -2)
    d_scores = weights * (d_weights - (d_weights * weights).sum(axis=-1, keepdims=True))
    d_scores = (d_scores + weights * g_lse[..., None]) * scale
    grads = (d_scores @ k, np.swapaxes(d_scores, -1, -2) @ q, np.swapaxes(weights, -1, -2) @ g_out)
    return out, lse, weights, grads


def test_attention_matches_composed_oracle():
    rng = stream(4, "attention-oracle")
    heads, t, d, e = 3, 7, 5, 4
    sparse = rng.random(size=(heads, t)) < 0.5
    sparse[0] = False  # a head whose query rows see no key
    # Causal from -2 leaves rows 0 and 1 with no key; then a key mask per
    # head; then both; then no mask.
    for causal, keys in ((-2, None), (None, sparse), (1, sparse), (None, None)):
        allow = structural_mask(t, t, causal, keys)
        arrays = [rng.normal(size=(heads, t, d)) for _ in range(2)] + [rng.normal(size=(heads, t, e))]
        g_out, g_lse = rng.normal(size=(heads, t, e)), rng.normal(size=(heads, t))
        q, k, v = (Tensor(a, requires_grad=True) for a in arrays)
        capture = []
        out, lse = attention(q, k.transpose(0, 2, 1), v, causal=causal, keys=keys, capture=capture)
        ((out * Tensor(g_out)).sum() + (lse * Tensor(g_lse)).sum()).backward()
        want_out, want_lse, want_weights, want_grads = composed_attention(*arrays, allow, g_out, g_lse)
        np.testing.assert_allclose(out.data, want_out, rtol=0, atol=1e-12)
        np.testing.assert_allclose(lse.data, want_lse, rtol=0, atol=1e-12)
        assert len(capture) == 1 and capture[0].shape == (heads, t, t)
        np.testing.assert_allclose(capture[0], want_weights, rtol=0, atol=1e-12)
        for got, want in zip((q.grad, k.grad, v.grad), want_grads):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        blind = ~np.broadcast_to(allow, (heads, t, t)).any(axis=-1)
        assert (out.data[blind] == 0.0).all() and (lse.data[blind] == 0.0).all()


@pytest.mark.parametrize("n", [_BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS, 2 * _BLOCK_ROWS + 5])
def test_attention_matches_dense_reference_across_blocks(n):
    # Query rows in blocks, each over the keys it can see, against the dense
    # op they replace: out, lse, the captured weights and every gradient
    # agree within 1e-12 over several blocks or skipped keys, and bit for
    # bit when the rows fit in one block that sees every key.
    rng = stream(n, "attention-blocks")
    heads, m, d, e = 2, n + 3, 5, 4
    valid = rng.random(size=(heads, m)) < 0.8
    valid[1] = False  # a head whose rows see no key
    # No causal offset; causal from 0, the decoder's prefix rows; rows after
    # m - n keys, its text rows; the first three rows blind. Each without
    # and with a key mask.
    cases = [(causal, keys) for causal in (None, 0, m - n, -3) for keys in (None, valid)]
    for causal, keys in cases:
        arrays = rng.normal(size=(heads, n, d)), rng.normal(size=(heads, d, m)), rng.normal(size=(heads, m, e))
        g_out, g_lse = Tensor(rng.normal(size=(heads, n, e))), Tensor(rng.normal(size=(heads, n)))
        allow = structural_mask(n, m, causal, keys)
        results = []
        for op in (
            lambda *qkv, capture: attention(*qkv, causal=causal, keys=keys, capture=capture),
            lambda *qkv, capture: reference_attention(*qkv, allow, capture),
        ):
            leaves = [Tensor(a, requires_grad=True) for a in arrays]
            capture = []
            out, lse = op(*leaves, capture=capture)
            ((out * g_out).sum() + (lse * g_lse).sum()).backward()
            results.append([out.data, lse.data, capture[0]] + [t.grad for t in leaves])
        skips = causal is not None and causal + n < m
        for got, want in zip(*results):
            if n <= _BLOCK_ROWS and not skips:
                np.testing.assert_array_equal(got, want)
            else:
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        out, lse = results[0][:2]
        blind = ~np.broadcast_to(allow, (heads, n, m)).any(axis=-1)
        assert (out[blind] == 0.0).all() and (lse[blind] == 0.0).all()


@pytest.mark.parametrize("n", [_BLOCK_ROWS - 1, 2 * _BLOCK_ROWS + 5])
def test_attention_reads_no_key_past_the_causal_stop(n):
    # Keys and values no query row can see hold NaN; a block that read them
    # would raise, as any op does on a non-finite output.
    rng = stream(n, "attention-stop")
    heads, m, d, causal = 2, n + 9, 4, 3
    q = rng.normal(size=(heads, n, d))
    keys_t, values = rng.normal(size=(heads, d, m)), rng.normal(size=(heads, m, d))
    want, _ = reference_attention(q, keys_t[..., : causal + n], values[:, : causal + n],
                                  structural_mask(n, causal + n, causal))
    keys_t[..., causal + n :] = np.nan
    values[:, causal + n :] = np.nan
    with no_grad():
        out, lse = attention(Tensor(q), keys_t, values, causal=causal)
    assert np.isfinite(out.data).all() and np.isfinite(lse.data).all()
    np.testing.assert_allclose(out.data, want.data, rtol=0, atol=1e-12)


def held_by(fn) -> list:
    """Every array and tensor that a closure holds, through the functions it holds."""
    found, stack = [], [fn]
    while stack:
        for cell in stack.pop().__closure__ or ():
            item = cell.cell_contents
            if callable(item) and getattr(item, "__closure__", None):
                stack.append(item)
            elif isinstance(item, (np.ndarray, Tensor)):
                found.append(item)
    return found


def test_attention_tape_keeps_no_weights():
    # Over several blocks of query rows, the tape holds the input arrays and
    # O(n) row statistics, and no tensor: no array ends in [n, m], and the
    # weights that `capture` receives are not on it.
    n, m = 2 * _BLOCK_ROWS + 3, 70
    rng = stream(7, "attention-tape")
    q = Tensor(rng.normal(size=(2, n, 4)), requires_grad=True)
    k_t = Tensor(rng.normal(size=(2, 4, m)), requires_grad=True)
    v = Tensor(rng.normal(size=(2, m, 4)), requires_grad=True)
    capture = []
    out, lse = attention(q, k_t, v, causal=m - n, keys=np.arange(m) % 5 > 0, capture=capture)
    assert capture[0].shape == (2, n, m)
    for t in (out, lse):
        held = held_by(t._node.backward)
        assert not any(isinstance(a, Tensor) for a in held)
        assert not any(a.shape[-2:] == (n, m) for a in held)
        assert not any(a is capture[0] or a.base is capture[0] for a in held)
        others = [a for a in held if not any(a is x.data for x in (q, k_t, v))]
        assert sum(a.size for a in others) <= 2 * 2 * n + m


def test_attention_over_views_equals_attention_over_tensors():
    # Keys stored transposed in a wider buffer, read through views, give
    # attention's output and weights bit for bit.
    rng = stream(6, "cached-attention")
    heads, n, t, d, e, cap = 3, 2, 7, 5, 4, 11
    q, k, v = rng.normal(size=(heads, n, d)), rng.normal(size=(heads, t, d)), rng.normal(size=(heads, t, e))
    causal = t - n
    keys_t, values = np.zeros((heads, d, cap)), np.zeros((heads, cap, e))
    keys_t[..., :t], values[:, :t] = np.swapaxes(k, 1, 2), v
    want, got = [], []
    out, _ = attention(Tensor(q), Tensor(np.swapaxes(k, 1, 2)), Tensor(v), causal=causal, capture=want)
    cached, _ = attention(Tensor(q), keys_t[..., :t], values[:, :t], causal=causal, capture=got)
    assert np.array_equal(cached.data, out.data) and np.array_equal(got[0], want[0])
    assert not cached.requires_grad
    tracked = Tensor(q, requires_grad=True)
    with pytest.raises(UsageError, match="no_grad"):
        attention(tracked, keys_t[..., :t], values[:, :t], causal=causal)
    with no_grad():
        assert np.array_equal(attention(tracked, keys_t[..., :t], values[:, :t], causal=causal)[0].data, out.data)
    with pytest.raises(UsageError, match="k_t"):
        attention(Tensor(q), keys_t[..., :t], values[:, : t - 1], causal=causal)
    with pytest.raises(UsageError, match="mask"):
        attention(Tensor(q), keys_t[..., :t], values[:, :t], keys=np.ones(t - 1, dtype=bool))


# -- affine and layer norm ----------------------------------------------------------


def test_affine_matches_numpy_oracle():
    rng = stream(5, "affine-oracle")
    x, w, b = rng.normal(size=(6, 4)), rng.normal(size=(4, 3)), rng.normal(size=3)
    g = rng.normal(size=(6, 3))
    leaves = [Tensor(a, requires_grad=True) for a in (x, w, b)]
    out = affine(*leaves)
    (out * Tensor(g)).sum().backward()
    np.testing.assert_array_equal(out.data, x @ w + b)
    for leaf, want in zip(leaves, (g @ w.T, x.T @ g, g.sum(axis=0))):
        np.testing.assert_allclose(leaf.grad, want, rtol=0, atol=1e-12)


def composed_layer_norm(x, gain, bias, eps, g):
    """Layer norm in the float-op order of the ops it was once composed
    from (mean, centre, variance, sqrt, divide, scale, shift), with the
    gradients of sum(out * g) by that composition's chain rule."""
    inv_d = 1.0 / x.shape[1]
    centered = x - x.sum(axis=1, keepdims=True) * inv_d
    std = np.sqrt((centered * centered).sum(axis=1, keepdims=True) * inv_d + eps)
    normed = centered / std
    d_normed = g * gain
    d_centered = d_normed / std
    d_std = (-d_normed * centered / (std * std)).sum(axis=1, keepdims=True)
    d_centered += (d_std * 0.5 / std) * inv_d * 2.0 * centered
    d_x = d_centered - d_centered.sum(axis=1, keepdims=True) * inv_d
    grads = (d_x, (g * normed).sum(axis=0), g.sum(axis=0))
    return normed * gain + bias, grads


def test_layer_norm_matches_composed_oracle():
    rng = stream(6, "layer-norm-oracle")
    x = rng.normal(loc=2.0, scale=3.0, size=(7, 16))
    x[3] = 0.25  # a constant row: its variance is eps alone
    gain, bias, g = rng.normal(size=16), rng.normal(size=16), rng.normal(size=(7, 16))
    leaves = [Tensor(a, requires_grad=True) for a in (x, gain, bias)]
    out = layer_norm(*leaves, 1e-5)
    (out * Tensor(g)).sum().backward()
    want, want_grads = composed_layer_norm(x, gain, bias, 1e-5, g)
    np.testing.assert_array_equal(out.data, want)
    for leaf, want_grad in zip(leaves, want_grads):
        np.testing.assert_allclose(leaf.grad, want_grad, rtol=0, atol=1e-12)


def test_layer_norm_tape_keeps_normed_rows_and_std():
    # And the gain, which x's grad reads; never x itself nor a tensor.
    leaves = [Tensor(np.ones(s), requires_grad=True) for s in ((5, 8), 8, 8)]
    out = layer_norm(*leaves, 1e-5)
    held = held_by(out._node.backward)
    assert not any(isinstance(a, Tensor) for a in held)
    assert sorted(a.shape for a in held) == [(5, 1), (5, 8), (8,)]
    assert any(a is leaves[1].data for a in held)


def composed_gelu(x: Tensor) -> Tensor:
    """Tanh-form GELU as an op of its own, the one `ffn` fused between its
    two affine maps: its tape keeps x and the tanh t."""
    (na,) = _needs(x)
    u = x.data
    c = np.sqrt(2.0 / np.pi)
    t = u * u
    t *= u
    t *= 0.044715
    t += u
    t *= c
    np.tanh(t, out=t)
    data = t + 1.0 if na is not None else np.add(t, 1.0, out=t)
    data *= u
    data *= 0.5

    def backward(grad):
        du = c * (1.0 + 3.0 * 0.044715 * (u * u))
        local = 0.5 * (1.0 + t) + 0.5 * u * (1.0 - t * t) * du
        na.accumulate(grad * local)

    return Tensor._result(data, (x,), backward)


# Which of x, w1, b1, w2 and b2 need a grad, and which of x, w1, w2 and the
# pre-activation u the tape then keeps.
FFN_PATTERNS = {
    "all-trainable": ((True,) * 5, ("x", "w1", "w2", "u")),
    "frozen-weights": ((True, False, False, False, False), ("w1", "w2", "u")),  # stage 1's decoder
    "frozen-input": ((False, True, True, True, True), ("x", "w2", "u")),
    "second-map-only": ((False, False, False, True, True), ("u",)),
    "output-bias-only": ((False, False, False, False, True), ()),
}


def ffn_operands(rows, needs, seed=0):
    rng = stream(seed, "ffn", str(rows))
    d, hidden, e = 32, 128, 24
    shapes = ((rows, d), (d, hidden), (hidden,), (hidden, e), (e,))
    scales = (1.0, d**-0.5, 0.5, hidden**-0.5, 0.5)
    return [Tensor(rng.normal(scale=s, size=shape), requires_grad=r) for s, shape, r in zip(scales, shapes, needs)]


@pytest.mark.parametrize("rows", [37, 1024])
@pytest.mark.parametrize("pattern", ["all-trainable", "frozen-weights", "frozen-input"])
def test_ffn_matches_composed_oracle(rows, pattern):
    # `affine`, GELU and `affine` as three ops give the same values, with
    # grad on and under no_grad(), and the same grads, bit for bit.
    needs = FFN_PATTERNS[pattern][0]
    g = Tensor(stream(1, "ffn-grad", str(rows)).normal(size=(rows, 24)))

    def composed(x, w1, b1, w2, b2):
        return affine(composed_gelu(affine(x, w1, b1)), w2, b2)

    results = []
    for op in (ffn, composed):
        leaves = ffn_operands(rows, needs)
        out = op(*leaves)
        (out * g).sum().backward()
        with no_grad():
            plain = op(*leaves)
        results.append((out.data, plain.data, [leaf.grad for leaf in leaves]))
    (got, got_plain, got_grads), (want, want_plain, want_grads) = results
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(got_plain, want)
    for need, got_grad, want_grad in zip(needs, got_grads, want_grads):
        assert (got_grad is None) == (want_grad is None) == (not need)
        if need:
            np.testing.assert_array_equal(got_grad, want_grad)


@pytest.mark.parametrize("pattern", FFN_PATTERNS)
def test_ffn_keeps_its_input_and_pre_activation_only(pattern, monkeypatch):
    # The tape holds x only for w1's grad, each weight only for a grad below
    # it, and the pre-activation u, and no tanh term or activation: the
    # buffer tanh wrote, which becomes the activation, dies with forward.
    needs, kept = FFN_PATTERNS[pattern]
    x, w1, b1, w2, b2 = leaves = ffn_operands(5, needs)
    tanh, written = np.tanh, []

    def spy(*args, **kwargs):
        result = tanh(*args, **kwargs)
        written.append(weakref.ref(result))
        return result

    monkeypatch.setattr(np, "tanh", spy)
    out = ffn(*leaves)
    monkeypatch.undo()
    assert len(written) == 1 and written[0]() is None
    held = held_by(out._node.backward)
    named = {"x": x.data, "w1": w1.data, "w2": w2.data}
    assert not any(isinstance(a, Tensor) for a in held)
    assert sorted(n for n, a in named.items() if any(h is a for h in held)) == sorted(set(kept) - {"u"})
    rest = [h for h in held if not any(h is a for a in named.values())]
    if "u" in kept:
        assert len(rest) == 1
        np.testing.assert_array_equal(rest[0], x.data @ w1.data + b1.data)
    else:
        assert rest == []
    out.sum().backward()
    assert all((leaf.grad is not None) == need for leaf, need in zip(leaves, needs))


def test_ops_reject_shapes_that_would_broadcast():
    a, row, col = Tensor(np.ones((3, 4))), Tensor(np.ones(4)), Tensor(np.ones((3, 1)))
    heads, flat = Tensor(np.ones((2, 3, 4))), Tensor(np.ones((3, 4)))
    calls = [
        lambda: a + row,
        lambda: a + col,
        lambda: a * row,
        lambda: a * 2.0,
        lambda: heads @ Tensor(np.ones((4, 2))),
        lambda: a @ Tensor(np.ones((2, 4, 2))),
        lambda: a @ Tensor(np.ones((3, 2))),
        lambda: attention(heads, flat.T, flat),
        lambda: attention(flat, heads.transpose(0, 2, 1), heads),
        lambda: attention(Tensor(np.ones((1, 3, 4))), heads.transpose(0, 2, 1), heads),
        lambda: affine(a, Tensor(np.ones((4, 2))), Tensor(np.ones((1, 2)))),
        lambda: affine(heads, Tensor(np.ones((4, 2))), Tensor(np.ones(2))),
        lambda: layer_norm(a, Tensor(np.ones((1, 4))), row, 1e-5),
        lambda: layer_norm(heads, row, row, 1e-5),
        lambda: ffn(a, Tensor(np.ones((4, 2))), Tensor(np.ones((1, 2))), Tensor(np.ones((2, 3))), Tensor(np.ones(3))),
        lambda: ffn(a, Tensor(np.ones((4, 2))), Tensor(np.ones(2)), Tensor(np.ones((3, 3))), Tensor(np.ones(3))),
        lambda: ffn(heads, Tensor(np.ones((4, 2))), Tensor(np.ones(2)), Tensor(np.ones((2, 3))), Tensor(np.ones(3))),
        lambda: ffn(a, Tensor(np.ones(4)), Tensor(np.ones(())), Tensor(np.ones(3)), Tensor(np.ones(3))),
    ]
    for call in calls:
        with pytest.raises(UsageError, match="shapes"):
            call()


# -- cross entropy ---------------------------------------------------------------


def test_cross_entropy_confident_correct_is_tiny():
    logits = Tensor([[20.0, 0.0, 0.0, 0.0]])
    loss = cross_entropy(logits, [0], [True])
    assert loss.item() < 1e-3


def test_cross_entropy_uniform_is_log_vocab():
    logits = Tensor([[0.0, 0.0, 0.0, 0.0]])
    loss = cross_entropy(logits, [2], [True])
    assert abs(loss.item() - math.log(4.0)) < 1e-12


def test_cross_entropy_matches_brute_force():
    rng = stream(7, "ce-oracle")
    logits = rng.normal(size=(6, 5))
    targets = rng.integers(0, 5, size=6)
    mask = np.array([True, False, True, True, False, True])
    loss = cross_entropy(Tensor(logits), targets, mask)
    # Direct definition: mean of -log p[target] over masked-in rows.
    probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    want = np.mean([-math.log(probs[t, targets[t]]) for t in np.flatnonzero(mask)])
    assert abs(loss.item() - want) < 1e-12


def test_cross_entropy_rejects_empty_mask():
    with pytest.raises(UsageError):
        cross_entropy(Tensor([[1.0, 2.0]]), [0], [False])


def test_cross_entropy_rejects_bad_target():
    with pytest.raises(UsageError):
        cross_entropy(Tensor([[1.0, 2.0]]), [5], [True])


# -- backward -------------------------------------------------------------------


def test_backward_sum_of_squares():
    x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
    (x * x).sum().backward()
    np.testing.assert_allclose(x.grad, 2.0 * x.data, atol=1e-15)


def test_backward_composite_matches_finite_difference():
    rng = stream(11, "composite")
    base = rng.normal(size=(3, 4))
    w = rng.normal(size=(4, 2))

    def loss_at(arr):
        x = Tensor(arr, requires_grad=True)
        y = ffn(x, Tensor(w), Tensor(np.zeros(2)), Tensor(np.eye(2)), Tensor(np.zeros(2)))
        return x, (y * y).sum() * (1.0 / y.size)

    x, loss = loss_at(base)
    loss.backward()
    grad = x.grad.copy()
    eps = 1e-6
    for idx in np.ndindex(base.shape):
        hi = base.copy()
        hi[idx] += eps
        lo = base.copy()
        lo[idx] -= eps
        fd = (loss_at(hi)[1].item() - loss_at(lo)[1].item()) / (2 * eps)
        assert abs(grad[idx] - fd) < 1e-6


def test_backward_frees_each_node_once_its_grads_are_out():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    freed = []

    def probe_backward(grad):
        freed.append(mid_ref() is None)
        x._tape().accumulate(grad)

    probe = Tensor._result(x.data.copy(), (x,), probe_backward)
    mid = probe * probe
    mid_ref = weakref.ref(mid._node)
    loss = mid.sum()
    del mid
    assert mid_ref() is not None  # the tape holds mid's node, not its value
    loss.backward()
    # mid's node passed its grad to probe's and was gone before probe's turn.
    assert freed == [True]
    np.testing.assert_array_equal(x.grad, 2.0 * x.data)
    assert loss.grad is not None and loss._node.parents is None and probe._node.parents is None


def test_a_second_backward_raises():
    w = Tensor([1.0, 2.0], requires_grad=True)
    loss = (w * w).sum()
    loss.backward()
    first = w.grad.copy()
    with pytest.raises(UsageError, match="earlier backward"):
        loss.backward()
    # So does a loss that shares a value whose tape another backward freed.
    shared = w * w
    shared.sum().backward()
    with pytest.raises(UsageError, match="earlier backward"):
        take_rows(shared, [0]).sum().backward()
    np.testing.assert_array_equal(w.grad, 2.0 * first)


def release_case(case, monkeypatch):
    """A taped forward as `case` names it: its loss, the values in it that
    no backward reads, and the leaves."""
    rng = stream(14, "release", case)
    a, b = (Tensor(rng.normal(size=(6, 4)), requires_grad=True) for _ in range(2))
    if case == "add":
        total = a + b
        return take_rows(total, [0, 2, 2]).sum(), [total.data], (a, b)
    if case == "reshape-transpose":
        chain = [a + b]
        chain.append(chain[-1].reshape(2, 3, 4))
        chain.append(chain[-1].transpose(2, 0, 1))
        chain.append(chain[-1].reshape(4, 6).T)
        return take_rows(chain[-1], [1, 5]).sum(), [t.data for t in chain], (a, b)
    # The q/k/v projections that `split` reshapes and transposes into heads.
    projected = []
    call = Linear.__call__

    def watched(self, x):
        out = call(self, x)
        projected.append(out.data)
        return out

    monkeypatch.setattr(Linear, "__call__", watched)
    proj = HeadProjections("attn", 4, 2, stream(15, "release", "weights"))
    q, k, v = proj.split(a + b)
    monkeypatch.undo()
    out, _ = attention(q, k.transpose(0, 2, 1), v)
    return out.sum(), projected, (a, b) + tuple(p.value for p in proj.params())


@pytest.mark.parametrize("case", ["add", "reshape-transpose", "qkv-split"])
def test_forward_frees_what_no_backward_reads(case, monkeypatch):
    # Each value dies as soon as forward drops it, while the loss and its
    # tape live on, and the grads equal those of a run that kept it alive.
    loss, values, leaves = release_case(case, monkeypatch)
    refs = [weakref.ref(v) for v in values]
    del values
    assert refs and loss.requires_grad and all(r() is None for r in refs)
    loss.backward()
    kept, values, kept_leaves = release_case(case, monkeypatch)
    kept.backward()
    assert len(values) == len(refs)
    for leaf, want in zip(leaves, kept_leaves):
        np.testing.assert_array_equal(leaf.grad, want.grad)


def test_affine_keeps_x_only_for_the_weight_grad():
    # A frozen weight (stage 1 freezes the decoder) keeps no input alive;
    # a frozen input keeps no weight, only x itself for the weight's grad.
    rng = stream(16, "affine-keeps")
    a, b = (Tensor(rng.normal(size=(5, 3)), requires_grad=True) for _ in range(2))
    w, bias = rng.normal(size=(3, 2)), Tensor(np.zeros(2), requires_grad=True)
    x, frozen = a + b, Tensor(w)
    x_ref = weakref.ref(x.data)
    out = affine(x, frozen, bias)
    del x
    assert x_ref() is None and [id(h) for h in held_by(out._node.backward)] == [id(frozen.data)]
    out.sum().backward()
    np.testing.assert_array_equal(a.grad, np.ones((5, 2)) @ w.T)
    x = Tensor(a.data)
    out = affine(x, Tensor(w, requires_grad=True), bias)
    assert [id(h) for h in held_by(out._node.backward)] == [id(x.data)]


def test_rows_backward_adds_into_the_slice():
    x = Tensor(stream(8, "rows").normal(size=(4096, 64)), requires_grad=True)
    x.grad = np.ones_like(x.data)
    loss = (x.rows(10, 12) * x.rows(10, 12)).sum()
    tracemalloc.start()
    try:
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    want = np.ones_like(x.data)
    want[10:12] += x.data[10:12]  # once through each slice
    want[10:12] += x.data[10:12]
    np.testing.assert_array_equal(x.grad, want)
    assert peak < x.data.nbytes / 8  # no parent-sized array on the way


def test_take_rows_backward_equals_add_at_bit_for_bit():
    rng = stream(12, "take-oracle")
    # dilated_branch's gathers: 4 heads, n = 1000, w = 64, r = 4; every
    # position past the end reads the clipped padding row n - 1.
    heads, n, w, r = 4, 1000, 64, 4
    pos = np.arange(heads)[:, None, None] + np.arange(0, 16 * w, w)[:, None] + np.arange(0, w, r)
    dilated = np.repeat(np.arange(heads) * n, 16)[:, None] + np.minimum(pos.reshape(-1, w // r), n - 1)
    # The grid positional lookups: one row index per patch, mostly repeats.
    positional = rng.integers(0, 8, size=700)
    for rows, indices in ((heads * n, dilated), (8, positional)):
        x = Tensor(rng.normal(size=(rows, 5)), requires_grad=True)
        x.grad = rng.normal(size=x.shape)
        want = x.grad.copy()
        upstream = rng.normal(size=indices.shape + (5,))
        (take_rows(x, indices) * Tensor(upstream)).sum().backward()
        np.add.at(want, indices, upstream)
        assert np.unique(indices).size < indices.size
        np.testing.assert_array_equal(x.grad, want)


def test_take_rows_backward_scatters_into_the_grad():
    x = Tensor(stream(8, "take").normal(size=(4096, 64)), requires_grad=True)
    x.grad = np.ones_like(x.data)
    taken = take_rows(x, [7, 3, 7])
    loss = (taken * taken).sum()
    tracemalloc.start()
    try:
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    want = np.ones_like(x.data)
    want[3] += 2.0 * x.data[3]
    want[7] += 4.0 * x.data[7]  # a duplicated row gathers both grads
    np.testing.assert_allclose(x.grad, want, rtol=0, atol=1e-12)
    assert peak < x.data.nbytes / 8  # no parent-sized array on the way


def test_first_grad_is_a_buffer_of_its_own():
    # `+` hands one array to both parents and `sum` a read-only broadcast
    # view; each parent's grad must be its own writable array all the same.
    a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    b = Tensor(np.ones((2, 3)), requires_grad=True)
    (a + b).sum().backward()
    for t in (a, b):
        np.testing.assert_array_equal(t.grad, np.ones((2, 3)))
        assert t.grad.flags.c_contiguous and t.grad.flags.writeable
    assert not np.shares_memory(a.grad, b.grad)
    (a * a).sum().backward()  # a second pass adds into the first grad
    np.testing.assert_array_equal(a.grad, 1.0 + 2.0 * a.data)
    np.testing.assert_array_equal(b.grad, np.ones((2, 3)))


def test_frozen_tensor_accumulates_no_gradient():
    x = Tensor([1.0, 2.0], requires_grad=True)
    frozen = Tensor([3.0, 4.0], requires_grad=False)
    ((x * frozen).sum()).backward()
    np.testing.assert_allclose(x.grad, frozen.data)
    assert frozen.grad is None or not frozen.grad.any()


def test_no_grad_results_keep_no_tape():
    w = Parameter("w", np.arange(6.0).reshape(3, 2))
    x = Tensor(np.ones((4, 3)))
    with no_grad():
        hidden = ffn(take_rows(x @ w.value, [0, 2]), w.value.T, Tensor(np.zeros(3)), w.value, Tensor(np.zeros(2)))
        out = concat([hidden, x.rows(0, 1) @ w.value], axis=0)
        att, lse = attention(out, out.T, out)
        loss = att.sum()
    for t in (out, att, lse, loss):
        assert not t.requires_grad and t._node is None
    with pytest.raises(UsageError):
        loss.backward()
    with no_grad(), np.errstate(over="ignore"), pytest.raises(UsageError):
        Tensor([1e300], requires_grad=True) * 1e300  # the finiteness check stays
    taped = (x @ w.value).sum()
    assert taped.requires_grad and taped._node.parents


def test_no_grad_restores_the_flag_after_nesting_and_errors():
    w = Tensor([2.0], requires_grad=True)
    with no_grad():
        with no_grad():
            assert not (w * 3.0).requires_grad
        assert not (w * 3.0).requires_grad
    assert (w * 3.0).requires_grad
    with pytest.raises(RuntimeError), no_grad():
        raise RuntimeError("boom")
    assert (w * 3.0).requires_grad


def test_transpose_and_matmul_shapes():
    a = np.arange(24.0).reshape(2, 3, 4)
    np.testing.assert_array_equal(Tensor(a).transpose(2, 0, 1).data, a.transpose(2, 0, 1))
    np.testing.assert_array_equal(Tensor(a).transpose().data, a.T)
    b = np.arange(8.0).reshape(4, 2)
    np.testing.assert_array_equal((Tensor(a[0]) @ Tensor(b)).data, a[0] @ b)
    with pytest.raises(UsageError):
        Tensor(a).transpose(0, 0, 1)
    with pytest.raises(UsageError):
        Tensor(a).T
    with pytest.raises(UsageError):
        Tensor(a) @ Tensor(np.ones(4))


def test_gather_scatter_concat_round_trips():
    x = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
    taken = take_rows(x, [2, 0, 2])
    np.testing.assert_array_equal(taken.data, x.data[[2, 0, 2]])
    put = put_rows(5, [4, 1], Tensor([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]]))
    assert put.data[4, 0] == 1.0 and put.data[1, 0] == 2.0 and put.data[0].sum() == 0.0
    both = concat([Tensor([[1.0]]), Tensor([[2.0]])], axis=0)
    np.testing.assert_array_equal(both.data, [[1.0], [2.0]])
    with pytest.raises(UsageError):
        put_rows(4, [1, 1], Tensor([[0.0], [0.0]]))
    with pytest.raises(UsageError):
        concat([Tensor([1.0])], axis=2)


def test_gelu_matches_pow_form():
    # `ffn` spells x**3 and x**2 as products; the textbook pow form is the
    # oracle. Identity maps and zero biases pass x and the grads through
    # exactly, so this checks the activation alone.
    x = stream(3, "gelu").normal(scale=3.0, size=(1040, 64))
    x[0, :3] = [0.0, -12.0, 12.0]
    a = Tensor(x, requires_grad=True)
    eye, zero = Tensor(np.eye(64)), Tensor(np.zeros(64))
    out = ffn(a, eye, zero, eye, zero)
    out.sum().backward()
    c = np.sqrt(2.0 / np.pi)
    t = np.tanh(c * (x + 0.044715 * x**3))
    want = 0.5 * x * (1.0 + t)
    want_grad = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * c * (1.0 + 3.0 * 0.044715 * x**2)
    np.testing.assert_allclose(out.data, want, rtol=1e-12, atol=0)
    # The derivative crosses zero near x = -0.75; there only an absolute bound means anything.
    np.testing.assert_allclose(a.grad, want_grad, rtol=1e-12, atol=1e-15)


# -- optimizer -------------------------------------------------------------------


def test_adamw_zero_grad_zero_decay_is_identity():
    p = Parameter("w", np.array([1.5, -2.5]))
    before = p.value.data.copy()
    opt = AdamW([p], lr=0.1, weight_decay=0.0)
    opt.zero_grad()
    opt.step()
    np.testing.assert_array_equal(p.value.data, before)


def test_adamw_single_scalar_hand_step():
    # One step at g=1: m_hat=1, v_hat=1, update = lr*(1/(1+eps) + wd*w0).
    lr, wd, w0 = 0.1, 0.01, 2.0
    p = Parameter("w", np.array([w0]))
    p.grad[...] = 1.0
    opt = AdamW([p], lr=lr, weight_decay=wd)
    opt.step()
    want = w0 - lr * (1.0 / (1.0 + EPS) + wd * w0)
    assert abs(p.value.data[0] - want) < 1e-15


def test_adamw_skips_frozen_parameters():
    p = Parameter("w", np.array([1.0, 2.0]))
    p.set_trainable(False)
    before = p.value.data.tobytes()
    opt = AdamW([p], lr=0.5)
    p.value.grad = np.array([10.0, 10.0])
    for _ in range(5):
        opt.step()
    assert p.value.data.tobytes() == before


def test_adamw_rejects_duplicate_names():
    with pytest.raises(UsageError):
        AdamW([Parameter("w", np.zeros(1)), Parameter("w", np.zeros(1))])


def test_parameter_freeze_flag_controls_gradient_flow():
    p = Parameter("w", np.array([2.0]))
    (p.value * p.value).sum().backward()
    assert p.grad[0] == 4.0
    p.zero_grad()
    p.set_trainable(False)
    live = Tensor([1.0], requires_grad=True)
    (p.value * live).sum().backward()
    assert p.grad[0] == 0.0
    assert live.grad[0] == 2.0


# -- checkpoints ------------------------------------------------------------------


def test_checkpoint_round_trip_bit_identical(tmp_path):
    rng = stream(5, "ckpt")
    tensors = {
        "a.weight": rng.normal(size=(3, 4)),
        "b.bias": rng.normal(size=(4,)),
    }
    path = tmp_path / "t.ckpt"
    save_checkpoint(path, tensors, meta={"stage": 1})
    loaded, meta = load_checkpoint(path)
    assert meta["stage"] == 1
    assert set(loaded) == set(tensors)
    for name in tensors:
        assert loaded[name].tobytes() == tensors[name].tobytes()


def test_checkpoint_serialization_is_name_order_independent(tmp_path):
    a = {"x": np.ones(2), "y": np.zeros(3)}
    b = {"y": np.zeros(3), "x": np.ones(2)}
    save_checkpoint(tmp_path / "a.ckpt", a)
    save_checkpoint(tmp_path / "b.ckpt", b)
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_checkpoint_rejects_foreign_bytes(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "t.ckpt"
    save_checkpoint(path, {"x": np.ones(1)})
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_detects_truncation_and_bit_flips(tmp_path):
    path = tmp_path / "t.ckpt"
    save_checkpoint(path, {"a": np.arange(6.0).reshape(2, 3), "b": np.ones(2)}, meta={"stage": 1})
    whole = path.read_bytes()
    for cut in (9, 12, 16, 40, len(whole) // 2, len(whole) - 33, len(whole) - 1):
        path.write_bytes(whole[:cut])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
    for byte in (9, 20, len(whole) // 2, len(whole) - 40, len(whole) - 1):
        flipped = bytearray(whole)
        flipped[byte] ^= 0x10
        path.write_bytes(bytes(flipped))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


def test_checkpoints_of_other_versions_are_rejected(tmp_path):
    path = tmp_path / "t.ckpt"
    save_checkpoint(path, {"a": np.arange(6.0).reshape(2, 3)}, meta={"stage": 2})
    v2 = path.read_bytes()
    # Version 1 had no digest trailer; a version-3 header keeps the version-2 body.
    for version, body in ((1, v2[12:-32]), (3, v2[12:])):
        path.write_bytes(v2[:8] + version.to_bytes(4, "little") + body)
        with pytest.raises(CheckpointError, match=f"unsupported checkpoint version {version}") as exc:
            load_checkpoint(path)
        assert str(path) in str(exc.value)


def test_checkpoint_rejects_bad_meta_under_a_valid_digest(tmp_path):
    path = tmp_path / "t.ckpt"
    save_checkpoint(path, {"a": np.arange(6.0)}, meta={"stage": 2})
    raw = path.read_bytes()[:-32]
    meta_len = int.from_bytes(raw[12:16], "little")
    body = raw[:16] + b"{" * meta_len + raw[16 + meta_len :]
    path.write_bytes(body + hashlib.sha256(body).digest())
    with pytest.raises(CheckpointError, match="meta"):
        load_checkpoint(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_checkpoint_names_a_non_finite_tensor(tmp_path, bad):
    path = tmp_path / "t.ckpt"
    values = np.arange(6.0).reshape(2, 3)
    values[1, 2] = bad
    save_checkpoint(path, {"a": np.ones(2), "b": values})
    with pytest.raises(CheckpointError) as exc:
        load_checkpoint(path)
    assert str(exc.value) == f"{path}: tensor 'b' holds NaN or inf"


def test_load_tensors_checks_names_and_shapes(tmp_path):
    path = tmp_path / "t.ckpt"
    source, target = tiny_model(seed=1), tiny_model(seed=2)
    save_checkpoint(path, source.tensors())
    tensors, _ = load_checkpoint(path)
    target.load_tensors(tensors)
    assert all(
        target.tensors()[name].tobytes() == arr.tobytes() for name, arr in source.tensors().items()
    )
    name = sorted(tensors)[0]
    missing = {k: v for k, v in tensors.items() if k != name}
    with pytest.raises(UsageError, match="missing"):
        target.load_tensors(missing)
    with pytest.raises(UsageError, match="extra"):
        target.load_tensors({**tensors, "stray": np.zeros(1)})
    with pytest.raises(UsageError, match=name):
        target.load_tensors({**tensors, name: np.zeros(tensors[name].shape + (2,))})


# -- seeded streams ----------------------------------------------------------------


def test_stream_is_deterministic_per_path():
    a = stream(42, "shuffle", 3).normal(size=8)
    b = stream(42, "shuffle", 3).normal(size=8)
    np.testing.assert_array_equal(a, b)


def test_stream_paths_are_independent():
    a = stream(42, "shuffle", 3).normal(size=8)
    b = stream(42, "shuffle", 4).normal(size=8)
    c = stream(43, "shuffle", 3).normal(size=8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)

"""Central finite-difference checks for every differentiable op.

Each case builds a scalar loss from leaf arrays, backpropagates, then
compares the gradient norm against a central difference along the
normalized gradient direction. Constants (masks, indices, targets) are
hoisted out of the closures so both FD evaluations see identical graphs.
"""

import math

import numpy as np
import pytest

from slidevlm.numerics import (
    Tensor,
    affine,
    attention,
    concat,
    cross_entropy,
    ffn,
    layer_norm,
    put_rows,
    stream,
    take_rows,
)
from slidevlm.numerics.tensor import _BLOCK_ROWS

EPS = 1e-5
TOL = 1e-4
SEEDS = range(20)


def square(t):
    return t * t


def unit_query(scores):
    """`attention` of one width-1 query per row over keys scored by the rows
    of `scores` [r, m], with identity values: `out` [r, 1, m] is the
    softmax of each row and `lse` [r, 1] its log-sum-exp."""
    rows, m = scores.shape
    values = Tensor(np.broadcast_to(np.eye(m), (rows, m, m)))
    return attention(Tensor(np.ones((rows, 1, 1))), scores.reshape(rows, 1, m), values)


def mean(t):
    return t.sum() * (1.0 / t.size)


def check(build, arrays):
    """Assert analytic gradient norm matches the directional FD derivative."""
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    build(leaves).backward()
    grads = [leaf.grad.copy() for leaf in leaves]
    nrm = math.sqrt(sum(float((g * g).sum()) for g in grads))
    if nrm == 0.0:
        raise AssertionError("zero gradient; case exercises nothing")
    direction = [g / nrm for g in grads]

    def at(sign):
        moved = [Tensor(a + sign * EPS * v) for a, v in zip(arrays, direction)]
        return build(moved).item()

    fd = (at(+1.0) - at(-1.0)) / (2.0 * EPS)
    rel = abs(nrm - fd) / (nrm + 1e-8)
    assert rel < TOL, f"rel={rel:.3e} analytic={nrm:.6e} fd={fd:.6e}"


@pytest.mark.parametrize("seed", SEEDS)
def test_arithmetic_chain(seed):
    rng = stream(seed, "gc", "arith")
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(3, 4))
    check(lambda ts: square(ts[0] * ts[1] + ts[0]).sum(), [a, b])


@pytest.mark.parametrize("seed", SEEDS)
def test_broadcast_add(seed):
    # `+` takes equal shapes only; a row is added to every row by gathering it.
    rng = stream(seed, "gc", "bcast")
    a = rng.normal(size=(4, 5))
    row = rng.normal(size=(1, 5))
    check(lambda ts: mean(square(ts[0] + take_rows(ts[1], [0, 0, 0, 0]))), [a, row])


@pytest.mark.parametrize("seed", SEEDS)
def test_exp_log_sqrt(seed):
    # exp and log through the op's `lse`, sqrt through layer_norm's std.
    rng = stream(seed, "gc", "explog")
    a = rng.uniform(0.5, 2.0, size=(3, 3))
    w = rng.normal(size=(1, 3))
    one, zero = Tensor(np.ones(3)), Tensor(np.zeros(3))

    def build(ts):
        lse = unit_query(ts[0])[1].reshape(1, 3)
        return (layer_norm(lse, one, zero, 1e-5) * Tensor(w)).sum()

    check(build, [a])


@pytest.mark.parametrize("seed", SEEDS)
def test_affine(seed):
    rng = stream(seed, "gc", "affine")
    x = rng.normal(size=(3, 4))
    w = rng.normal(size=(4, 2))
    b = rng.normal(size=(2,))
    check(lambda ts: square(affine(ts[0], ts[1], ts[2])).sum(), [x, w, b])


@pytest.mark.parametrize("seed", SEEDS)
def test_layer_norm(seed):
    rng = stream(seed, "gc", "layer_norm")
    x = rng.normal(size=(3, 5))
    gain = rng.normal(size=(5,))
    bias = rng.normal(size=(5,))
    w = rng.normal(size=(3, 5))
    check(lambda ts: (square(layer_norm(*ts, 1e-5)) * Tensor(w)).sum(), [x, gain, bias])


@pytest.mark.parametrize("seed", SEEDS)
def test_tanh_gelu(seed):
    # GELU in its tanh form alone: `ffn` between identity maps.
    rng = stream(seed, "gc", "act")
    a = rng.normal(size=(2, 6))
    eye, zero = Tensor(np.eye(6)), Tensor(np.zeros(6))
    check(lambda ts: ffn(ts[0], eye, zero, eye, zero).sum(), [a])


@pytest.mark.parametrize("seed", SEEDS)
def test_ffn(seed):
    rng = stream(seed, "gc", "ffn")
    arrays = [rng.normal(size=s) for s in ((3, 4), (4, 6), (6,), (6, 2), (2,))]
    check(lambda ts: square(ffn(*ts)).sum(), arrays)


@pytest.mark.parametrize("seed", SEEDS)
def test_matmul(seed):
    rng = stream(seed, "gc", "mm")
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    check(lambda ts: square(ts[0] @ ts[1]).sum(), [a, b])


@pytest.mark.parametrize("seed", SEEDS)
def test_reshape_transpose_slices(seed):
    rng = stream(seed, "gc", "shape")
    a = rng.normal(size=(4, 6))
    check(
        lambda ts: square(ts[0].reshape(2, 3, 4).transpose(1, 2, 0).rows(1, 3).reshape(8, 2).T).sum(),
        [a],
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_sum_mean_axes(seed):
    rng = stream(seed, "gc", "reduce")
    a = rng.normal(size=(3, 5))
    # `sum` reduces everything; column sums and row means are products with
    # constant rows and columns.
    ones_row, mean_col = Tensor(np.ones((1, 3))), Tensor(np.full((5, 1), 1.0 / 5))
    check(lambda ts: square(ones_row @ ts[0]).sum() * (ts[0] @ mean_col).sum(), [a])


@pytest.mark.parametrize("seed", SEEDS)
def test_softmax(seed):
    rng = stream(seed, "gc", "sm")
    a = rng.normal(size=(4, 6))
    w = rng.normal(size=(4, 1, 6))
    check(lambda ts: (unit_query(ts[0])[0] * Tensor(w)).sum(), [a])


def attention_case(rng, n=4):
    """q, k, v of two heads, n query rows over n + 1 keys, and the mask: each
    row causal from -1, so row 0 sees no key, under a key mask shared by both
    heads that keeps key 0."""
    q, k, v = rng.normal(size=(2, n, 3)), rng.normal(size=(2, n + 1, 3)), rng.normal(size=(2, n + 1, 2))
    keys = rng.random(size=n + 1) < 0.7
    keys[0] = True
    return q, k, v, dict(causal=-1, keys=keys)


@pytest.mark.parametrize("seed", SEEDS)
def test_masked_softmax(seed):
    # The masked softmax inside `attention`, seen through its `out`.
    rng = stream(seed, "gc", "msm")
    q, k, v, mask = attention_case(rng)
    w = rng.normal(size=(2, 4, 2))
    check(lambda ts: (attention(ts[0], ts[1].transpose(0, 2, 1), ts[2], **mask)[0] * Tensor(w)).sum(), [q, k, v])


@pytest.mark.parametrize("seed", SEEDS)
def test_masked_logsumexp(seed):
    # The masked log-sum-exp inside `attention`, seen through its `lse`.
    rng = stream(seed, "gc", "mlse")
    q, k, v, mask = attention_case(rng)
    w = rng.normal(size=(2, 4))
    check(lambda ts: (attention(ts[0], ts[1].transpose(0, 2, 1), Tensor(v), **mask)[1] * Tensor(w)).sum(), [q, k])


@pytest.mark.parametrize("seed", range(5))
def test_attention_over_blocks_of_rows(seed):
    # More query rows than one block holds: backward rebuilds the weights a
    # block at a time, and its out and lse grads both reach q and k.
    rng = stream(seed, "gc", "blocks")
    q, k, v, mask = attention_case(rng, n=_BLOCK_ROWS + 6)
    w_out, w_lse = rng.normal(size=(2, _BLOCK_ROWS + 6, 2)), rng.normal(size=(2, _BLOCK_ROWS + 6))

    def build(ts):
        out, lse = attention(ts[0], ts[1].transpose(0, 2, 1), ts[2], **mask)
        return (out * Tensor(w_out)).sum() + (lse * Tensor(w_lse)).sum()

    check(build, [q, k, v])


@pytest.mark.parametrize("seed", SEEDS)
def test_cross_entropy(seed):
    rng = stream(seed, "gc", "ce")
    logits = rng.normal(size=(5, 7))
    targets = rng.integers(0, 7, size=5)
    mask = np.array([True, True, False, True, False])
    check(lambda ts: cross_entropy(ts[0], targets, mask), [logits])


@pytest.mark.parametrize("seed", SEEDS)
def test_take_put_concat(seed):
    rng = stream(seed, "gc", "gather")
    a = rng.normal(size=(4, 3))
    b = rng.normal(size=(2, 3))
    take_idx = rng.integers(0, 4, size=5)
    put_idx = [3, 1]

    def build(ts):
        taken = take_rows(ts[0], take_idx)
        put = put_rows(5, put_idx, ts[1])
        return square(concat([taken, put], axis=0)).sum()

    check(build, [a, b])


@pytest.mark.parametrize("seed", SEEDS)
def test_composite_attention_like_expression(seed):
    rng = stream(seed, "gc", "full")
    x = rng.normal(size=(5, 4))
    wq = rng.normal(size=(4, 4)) * 0.5
    wv = rng.normal(size=(4, 4)) * 0.5
    targets = rng.integers(0, 4, size=5)
    mask = np.ones(5, dtype=bool)

    def build(ts):
        out, lse = attention(ts[0] @ ts[1], ts[0].T, ts[0] @ ts[2])
        return cross_entropy(out, targets, mask) + mean(lse * lse)

    check(build, [x, wq, wv])

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
    concat,
    cross_entropy,
    masked_logsumexp,
    masked_softmax,
    put_rows,
    softmax,
    stream,
    take_rows,
)

EPS = 1e-5
TOL = 1e-4
SEEDS = range(20)


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
    b = rng.normal(size=(3, 4)) + 3.0  # keep divisor away from zero
    check(lambda ts: ((ts[0] * ts[1] - ts[0] / ts[1] + ts[0]) ** 2.0).sum(), [a, b])


@pytest.mark.parametrize("seed", SEEDS)
def test_broadcast_add(seed):
    rng = stream(seed, "gc", "bcast")
    a = rng.normal(size=(4, 5))
    row = rng.normal(size=(5,))
    check(lambda ts: ((ts[0] + ts[1]) ** 2.0).mean(), [a, row])


@pytest.mark.parametrize("seed", SEEDS)
def test_exp_log_sqrt(seed):
    rng = stream(seed, "gc", "explog")
    a = rng.uniform(0.5, 2.0, size=(3, 3))
    check(lambda ts: (ts[0].exp().log().sqrt()).sum(), [a])


@pytest.mark.parametrize("seed", SEEDS)
def test_tanh_gelu(seed):
    rng = stream(seed, "gc", "act")
    a = rng.normal(size=(2, 6))
    check(lambda ts: (ts[0].tanh() + ts[0].gelu()).sum(), [a])


@pytest.mark.parametrize("seed", SEEDS)
def test_matmul(seed):
    rng = stream(seed, "gc", "mm")
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    check(lambda ts: ((ts[0] @ ts[1]) ** 2.0).sum(), [a, b])
    # Batched: a's size-1 axis and b's missing leading axis both broadcast.
    a = rng.normal(size=(2, 1, 3, 4))
    b = rng.normal(size=(5, 4, 2))
    check(lambda ts: ((ts[0] @ ts[1]) ** 2.0).sum(), [a, b])


@pytest.mark.parametrize("seed", SEEDS)
def test_reshape_transpose_slices(seed):
    rng = stream(seed, "gc", "shape")
    a = rng.normal(size=(4, 6))
    check(
        lambda ts: (ts[0].reshape(2, 3, 4).transpose(1, 2, 0).rows(1, 3).reshape(8, 2).T ** 2.0).sum(),
        [a],
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_sum_mean_axes(seed):
    rng = stream(seed, "gc", "reduce")
    a = rng.normal(size=(3, 5))
    check(lambda ts: (ts[0].sum(axis=0) * ts[0].mean(axis=1).sum()).sum(), [a])


@pytest.mark.parametrize("seed", SEEDS)
def test_softmax(seed):
    rng = stream(seed, "gc", "sm")
    a = rng.normal(size=(4, 6))
    w = rng.normal(size=(4, 6))
    check(lambda ts: (softmax(ts[0], axis=1) * Tensor(w)).sum(), [a])


@pytest.mark.parametrize("seed", SEEDS)
def test_masked_softmax(seed):
    rng = stream(seed, "gc", "msm")
    a = rng.normal(size=(4, 6))
    w = rng.normal(size=(4, 6))
    mask = rng.random(size=(4, 6)) < 0.7
    mask[:, 0] = True  # no fully-masked rows
    check(lambda ts: (masked_softmax(ts[0], mask, axis=1) * Tensor(w)).sum(), [a])


@pytest.mark.parametrize("seed", SEEDS)
def test_masked_logsumexp(seed):
    rng = stream(seed, "gc", "mlse")
    a = rng.normal(size=(4, 6))
    mask = rng.random(size=(4, 6)) < 0.7
    mask[:, 0] = True
    check(lambda ts: masked_logsumexp(ts[0], mask, axis=1).sum(), [a])


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
        return ((concat([taken, put], axis=0)) ** 2.0).sum()

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
        q = ts[0] @ ts[1]
        att = softmax(q @ ts[0].T, axis=1)
        out = att @ (ts[0] @ ts[2])
        return cross_entropy(out, targets, mask)

    check(build, [x, wq, wv])

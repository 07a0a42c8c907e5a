"""Tensor ops, losses, optimizer, checkpoints, and seeded streams."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from conftest import tiny_model
from hypothesis import strategies as st

from slidevlm.numerics import (
    AdamW,
    CheckpointError,
    Parameter,
    Tensor,
    UsageError,
    concat,
    cross_entropy,
    load_checkpoint,
    masked_logsumexp,
    masked_softmax,
    put_rows,
    save_checkpoint,
    softmax,
    stream,
    take_rows,
)


# -- softmax -------------------------------------------------------------------


def test_softmax_equal_logits():
    out = softmax(Tensor([0.0, 0.0]), axis=0)
    np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-15)


def test_softmax_log2_logit():
    out = softmax(Tensor([math.log(2.0), 0.0]), axis=0)
    np.testing.assert_allclose(out.data, [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)


def test_softmax_extreme_logit_saturates():
    out = softmax(Tensor([1000.0, 0.0]), axis=0)
    np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-300)
    assert np.isfinite(out.data).all()


def test_softmax_bad_axis():
    with pytest.raises(UsageError):
        softmax(Tensor([[1.0, 2.0]]), axis=2)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
        min_size=1,
        max_size=16,
    )
)
def test_softmax_is_probability_vector(logits):
    out = softmax(Tensor(logits), axis=0).data
    assert (out >= 0.0).all()
    assert abs(out.sum() - 1.0) <= 1e-12


def test_masked_softmax_zeroes_masked_entries():
    x = Tensor([[1.0, 2.0, 3.0, 4.0]])
    mask = np.array([[True, False, True, False]])
    out = masked_softmax(x, mask, axis=1)
    assert out.data[0, 1] == 0.0 and out.data[0, 3] == 0.0
    # Unmasked entries renormalize among themselves.
    ref = np.exp([1.0, 3.0])
    np.testing.assert_allclose(out.data[0, [0, 2]], ref / ref.sum(), atol=1e-12)


def test_masked_softmax_fully_masked_row_is_zero():
    x = Tensor([[5.0, 7.0]])
    out = masked_softmax(x, np.array([[False, False]]), axis=1)
    np.testing.assert_array_equal(out.data, [[0.0, 0.0]])


def test_masked_softmax_shape_mismatch():
    with pytest.raises(UsageError):
        masked_softmax(Tensor([1.0, 2.0]), np.array([True]), axis=0)


def test_masked_logsumexp_matches_dense_on_full_mask():
    rng = stream(3, "lse")
    x = rng.normal(size=(4, 6))
    out = masked_logsumexp(Tensor(x), np.ones_like(x, dtype=bool), axis=1)
    ref = np.log(np.exp(x).sum(axis=1))
    np.testing.assert_allclose(out.data, ref, atol=1e-12)


def test_masked_logsumexp_ignores_masked_entries():
    x = Tensor([[0.0, 1000.0]])
    out = masked_logsumexp(x, np.array([[True, False]]), axis=1)
    np.testing.assert_allclose(out.data, [0.0], atol=1e-12)


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
        y = (x @ Tensor(w)).tanh()
        return x, (y * y).mean()

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


def test_frozen_tensor_accumulates_no_gradient():
    x = Tensor([1.0, 2.0], requires_grad=True)
    frozen = Tensor([3.0, 4.0], requires_grad=False)
    ((x * frozen).sum()).backward()
    np.testing.assert_allclose(x.grad, frozen.data)
    assert frozen.grad is None or not frozen.grad.any()


def test_transpose_and_matmul_shapes():
    a = np.arange(24.0).reshape(2, 3, 4)
    np.testing.assert_array_equal(Tensor(a).transpose(2, 0, 1).data, a.transpose(2, 0, 1))
    np.testing.assert_array_equal(Tensor(a).transpose().data, a.T)
    b = np.arange(8.0).reshape(4, 2)
    np.testing.assert_array_equal((Tensor(a) @ Tensor(b)).data, a @ b)
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
    lr, eps, wd, w0 = 0.1, 1e-8, 0.01, 2.0
    p = Parameter("w", np.array([w0]))
    p.grad[...] = 1.0
    opt = AdamW([p], lr=lr, eps=eps, weight_decay=wd)
    opt.step()
    want = w0 - lr * (1.0 / (1.0 + eps) + wd * w0)
    assert abs(p.value.data[0] - want) < 1e-15


def test_adamw_skips_frozen_parameters():
    p = Parameter("w", np.array([1.0, 2.0]), trainable=False)
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

"""Dense float64 tensors with reverse-mode differentiation.

Just enough array machinery to train every block in this repo at desk
scale: row-major numpy storage, a taped backward pass, and the handful
of fused ops (attention, cross entropy, row gather/scatter) that the two
stacks need. `attention` is their only softmax over scores, and its tape
keeps just the attention weights. Every public operation checks that its
output is finite, so numerical blowups surface at the op that caused
them instead of three modules later. Under `no_grad()` operations keep
no tape: their results have no parents and need no gradient.
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np

__all__ = [
    "UsageError",
    "Tensor",
    "attention",
    "concat",
    "cross_entropy",
    "take_rows",
    "put_rows",
    "no_grad",
]


class UsageError(ValueError):
    """A caller violated an operation's precondition."""


class _GradMode(threading.local):
    enabled = True


_grad_mode = _GradMode()


@contextlib.contextmanager
def no_grad():
    """Compute without a tape on this thread, e.g. for inference.

    Results made inside keep no parents and no backward closure, even when
    their inputs require grad, so nothing they were computed from is held.
    """
    before = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = before


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A dense float64 array plus the tape entry that produced it."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        if not np.all(np.isfinite(self.data)):
            raise UsageError("tensor values must be finite")
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _result(data: np.ndarray, parents: tuple["Tensor", ...], backward) -> "Tensor":
        out = Tensor.__new__(Tensor)
        out.data = np.ascontiguousarray(data, dtype=np.float64)
        if not np.all(np.isfinite(out.data)):
            raise UsageError("operation produced non-finite values")
        out.grad = None
        out.requires_grad = _grad_mode.enabled and any(p.requires_grad for p in parents)
        if out.requires_grad:
            out._parents = parents
            out._backward = backward
        else:
            out._parents = ()
            out._backward = None
        return out

    @staticmethod
    def _coerce(other) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        return Tensor(other)

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += grad

    # -- introspection ---------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise UsageError("item() requires a single-element tensor")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- elementwise arithmetic -------------------------------------------------

    def __add__(self, other) -> "Tensor":
        a, b = self, Tensor._coerce(other)
        data = a.data + b.data

        def backward(grad):
            if a.requires_grad:
                a._accumulate(_unbroadcast(grad, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(grad, b.shape))

        return Tensor._result(data, (a, b), backward)

    def __neg__(self) -> "Tensor":
        a = self

        def backward(grad):
            a._accumulate(-grad)

        return Tensor._result(-a.data, (a,), backward)

    def __sub__(self, other) -> "Tensor":
        return self.__add__(Tensor._coerce(other).__neg__())

    def __mul__(self, other) -> "Tensor":
        a, b = self, Tensor._coerce(other)
        data = a.data * b.data

        def backward(grad):
            if a.requires_grad:
                a._accumulate(_unbroadcast(grad * b.data, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(grad * a.data, b.shape))

        return Tensor._result(data, (a, b), backward)

    def __truediv__(self, other) -> "Tensor":
        a, b = self, Tensor._coerce(other)
        data = a.data / b.data

        def backward(grad):
            if a.requires_grad:
                a._accumulate(_unbroadcast(grad / b.data, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(-grad * a.data / (b.data * b.data), b.shape))

        return Tensor._result(data, (a, b), backward)

    # -- transcendental --------------------------------------------------------

    def sqrt(self) -> "Tensor":
        a = self
        data = np.sqrt(a.data)

        def backward(grad):
            a._accumulate(grad * 0.5 / data)

        return Tensor._result(data, (a,), backward)

    def gelu(self) -> "Tensor":
        # tanh-form GELU; smooth everywhere, which keeps finite-difference
        # gradient checks clean (no ReLU kinks).
        # Powers are written as products: numpy's `x**3` calls pow(), which
        # is some forty times slower than two multiplies.
        a = self
        x = a.data
        c = np.sqrt(2.0 / np.pi)
        u = c * (x + 0.044715 * (x * x * x))
        t = np.tanh(u)
        data = 0.5 * x * (1.0 + t)

        def backward(grad):
            du = c * (1.0 + 3.0 * 0.044715 * (x * x))
            local = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du
            a._accumulate(grad * local)

        return Tensor._result(data, (a,), backward)

    # -- shape manipulation ------------------------------------------------------

    def reshape(self, *shape: int) -> "Tensor":
        a = self
        data = a.data.reshape(shape)

        def backward(grad):
            a._accumulate(grad.reshape(a.shape))

        return Tensor._result(data, (a,), backward)

    def transpose(self, *axes: int) -> "Tensor":
        """Permute axes like numpy; no axes reverses them."""
        a = self
        axes = axes or tuple(reversed(range(a.data.ndim)))
        if sorted(axes) != list(range(a.data.ndim)):
            raise UsageError(f"axes {axes} do not permute a {a.data.ndim}-D tensor")
        inverse = tuple(np.argsort(axes))

        def backward(grad):
            a._accumulate(grad.transpose(inverse))

        return Tensor._result(a.data.transpose(axes), (a,), backward)

    @property
    def T(self) -> "Tensor":
        if self.data.ndim != 2:
            raise UsageError("T is defined for 2-D tensors only; use transpose()")
        return self.transpose()

    def rows(self, start: int, stop: int) -> "Tensor":
        """Contiguous row slice along the first axis."""
        a = self
        data = a.data[start:stop]

        def backward(grad):
            full = np.zeros_like(a.data)
            full[start:stop] = grad
            a._accumulate(full)

        return Tensor._result(data, (a,), backward)

    # -- reductions ---------------------------------------------------------------

    def sum(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        a = self
        data = a.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad):
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            a._accumulate(np.broadcast_to(g, a.shape).copy())

        return Tensor._result(data, (a,), backward)

    def mean(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        a = self
        count = a.data.size if axis is None else a.data.shape[axis]
        return a.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # -- linear algebra -------------------------------------------------------------

    def __matmul__(self, other) -> "Tensor":
        """Matrix product over the last two axes; leading axes broadcast."""
        a, b = self, Tensor._coerce(other)
        if a.data.ndim < 2 or b.data.ndim < 2:
            raise UsageError("matmul needs tensors of at least 2 dimensions")
        data = a.data @ b.data

        def backward(grad):
            if a.requires_grad:
                a._accumulate(_unbroadcast(grad @ np.swapaxes(b.data, -1, -2), a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(np.swapaxes(a.data, -1, -2) @ grad, b.shape))

        return Tensor._result(data, (a, b), backward)

    # -- backward pass -----------------------------------------------------------------

    def backward(self) -> None:
        """Populate grads of everything this scalar was computed from."""
        if self.data.size != 1:
            raise UsageError("backward() requires a scalar value")
        if not self.requires_grad:
            raise UsageError("backward() on a value detached from any graph")

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)
        # Intermediate grads are no longer needed; drop the tape so repeated
        # forwards on long-lived tensors do not leak graph memory.
        for node in topo:
            if node is not self and node._parents:
                node.grad = None
            node._parents = ()
            node._backward = None


# -- free functions ------------------------------------------------------------


def attention(q: Tensor, k: Tensor, v: Tensor, allow, capture=None) -> tuple[Tensor, Tensor]:
    """Masked softmax attention and each row's log-denominator, in one pass.

    q is [..., n, d], k [..., m, d], v [..., m, e]; the boolean `allow`
    broadcasts to [..., n, m] and lets query i see key j where true. Returns
    `out` [..., n, e], the softmax of the allowed scores q·k / sqrt(d) times
    v, and `lse` [..., n], the log of each row's softmax denominator; a row
    with no allowed key gives zeros in both. The scores become the weights
    in one buffer, the only array the tape keeps; `capture` receives it too.
    """
    if min(q.data.ndim, k.data.ndim, v.data.ndim) < 2 or (
        q.shape[-1] != k.shape[-1] or k.shape[-2] != v.shape[-2]
    ):
        raise UsageError("attention needs q [..., n, d], k [..., m, d] and v [..., m, e]")
    scale = 1.0 / np.sqrt(q.shape[-1])
    # A contiguous k^T makes the scores equal a plain q @ k^T bit for bit.
    weights = q.data @ np.ascontiguousarray(np.swapaxes(k.data, -1, -2))
    allow = np.asarray(allow, dtype=bool)
    try:
        np.broadcast_to(allow, weights.shape)
    except ValueError:
        raise UsageError(f"mask of shape {allow.shape} does not fit scores {weights.shape}") from None
    weights *= scale
    peak = np.max(weights, axis=-1, keepdims=True, where=allow, initial=-np.inf)
    peak[peak == -np.inf] = 0.0
    weights -= peak
    np.copyto(weights, -np.inf, where=~allow)
    np.exp(weights, out=weights)
    total = weights.sum(axis=-1, keepdims=True)
    np.copyto(total, 1.0, where=total == 0.0)
    weights /= total
    lse = (peak + np.log(total))[..., 0]
    if capture is not None:
        capture.append(weights)

    def scores_backward(d_scores):
        d_scores *= scale
        if q.requires_grad:
            q._accumulate(_unbroadcast(d_scores @ k.data, q.shape))
        if k.requires_grad:
            k._accumulate(_unbroadcast(np.swapaxes(d_scores, -1, -2) @ q.data, k.shape))

    def out_backward(grad):
        if v.requires_grad:
            v._accumulate(_unbroadcast(np.swapaxes(weights, -1, -2) @ grad, v.shape))
        if q.requires_grad or k.requires_grad:
            d_weights = grad @ np.swapaxes(v.data, -1, -2)
            d_weights -= (d_weights * weights).sum(axis=-1, keepdims=True)
            d_weights *= weights
            scores_backward(d_weights)

    def lse_backward(grad):
        scores_backward(weights * grad[..., None])

    out = Tensor._result(weights @ v.data, (q, k, v), out_backward)
    return out, Tensor._result(lse, (q, k), lse_backward)


def cross_entropy(logits: Tensor, targets, mask) -> Tensor:
    """Mean negative log-softmax probability over masked-in positions.

    logits: [T, V]; targets: int ids [T]; mask: booleans [T] selecting the
    positions that contribute to the loss.
    """
    targets = np.asarray(targets, dtype=np.int64)
    mask = np.asarray(mask, dtype=bool)
    if logits.data.ndim != 2:
        raise UsageError("cross_entropy expects [T, V] logits")
    t_len, vocab = logits.shape
    if targets.shape != (t_len,) or mask.shape != (t_len,):
        raise UsageError("targets and mask must have one entry per row")
    if not mask.any():
        raise UsageError("cross_entropy needs at least one masked-in position")
    if targets[mask].min() < 0 or targets[mask].max() >= vocab:
        raise UsageError("target ids must lie in [0, vocab)")

    a = logits
    peak = a.data.max(axis=1, keepdims=True)
    expd = np.exp(a.data - peak)
    total = expd.sum(axis=1, keepdims=True)
    logp = a.data - peak - np.log(total)
    rows = np.flatnonzero(mask)
    n = rows.size
    data = -logp[rows, targets[rows]].sum() / n

    def backward(grad):
        probs = expd / total
        g = np.zeros_like(a.data)
        g[rows] = probs[rows]
        g[rows, targets[rows]] -= 1.0
        a._accumulate(g * (float(np.ravel(grad)[0]) / n))

    return Tensor._result(np.asarray(data), (a,), backward)


def take_rows(x: Tensor, indices) -> Tensor:
    """Gather rows along the first axis; duplicates allowed."""
    indices = np.asarray(indices, dtype=np.int64)
    a = x
    data = a.data[indices]

    def backward(grad):
        full = np.zeros_like(a.data)
        np.add.at(full, indices, grad)
        a._accumulate(full)

    return Tensor._result(data, (a,), backward)


def put_rows(n_rows: int, indices, x: Tensor) -> Tensor:
    """Scatter rows of `x` into a zero tensor with `n_rows` rows."""
    indices = np.asarray(indices, dtype=np.int64)
    if np.unique(indices).size != indices.size:
        raise UsageError("put_rows indices must be unique")
    a = x
    data = np.zeros((n_rows,) + a.shape[1:], dtype=np.float64)
    data[indices] = a.data

    def backward(grad):
        a._accumulate(grad[indices])

    return Tensor._result(data, (a,), backward)


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    """Concatenate along axis 0 or 1."""
    if axis not in (0, 1):
        raise UsageError("concat supports axis 0 or 1 only")
    parents = tuple(tensors)
    data = np.concatenate([t.data for t in parents], axis=axis)
    sizes = [t.shape[axis] for t in parents]
    offsets = np.cumsum([0] + sizes)

    def backward(grad):
        for t, lo, hi in zip(parents, offsets[:-1], offsets[1:]):
            if not t.requires_grad:
                continue
            piece = grad[lo:hi] if axis == 0 else grad[:, lo:hi]
            t._accumulate(piece)

    return Tensor._result(data, parents, backward)

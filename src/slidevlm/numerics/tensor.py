"""Dense float64 tensors with reverse-mode differentiation.

Just enough array machinery to train every block in this repo at desk
scale: row-major numpy storage, a taped backward pass, and the handful
of fused ops (masked softmax, cross entropy, row gather/scatter) that
the attention stacks need. Every public operation checks that its
output is finite, so numerical blowups surface at the op that caused
them instead of three modules later.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "UsageError",
    "Tensor",
    "concat",
    "cross_entropy",
    "masked_logsumexp",
    "masked_softmax",
    "softmax",
    "take_rows",
    "put_rows",
]


class UsageError(ValueError):
    """A caller violated an operation's precondition."""


def _as_array(value) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    return np.ascontiguousarray(arr)


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
        self.data = _as_array(data)
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
        out.data = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
        if not np.all(np.isfinite(out.data)):
            raise UsageError("operation produced non-finite values")
        out.grad = None
        out.requires_grad = any(p.requires_grad for p in parents)
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

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

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

    def __radd__(self, other) -> "Tensor":
        return self.__add__(other)

    def __neg__(self) -> "Tensor":
        a = self

        def backward(grad):
            a._accumulate(-grad)

        return Tensor._result(-a.data, (a,), backward)

    def __sub__(self, other) -> "Tensor":
        return self.__add__(Tensor._coerce(other).__neg__())

    def __rsub__(self, other) -> "Tensor":
        return Tensor._coerce(other).__sub__(self)

    def __mul__(self, other) -> "Tensor":
        a, b = self, Tensor._coerce(other)
        data = a.data * b.data

        def backward(grad):
            if a.requires_grad:
                a._accumulate(_unbroadcast(grad * b.data, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(grad * a.data, b.shape))

        return Tensor._result(data, (a, b), backward)

    def __rmul__(self, other) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other) -> "Tensor":
        a, b = self, Tensor._coerce(other)
        data = a.data / b.data

        def backward(grad):
            if a.requires_grad:
                a._accumulate(_unbroadcast(grad / b.data, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(-grad * a.data / (b.data * b.data), b.shape))

        return Tensor._result(data, (a, b), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return Tensor._coerce(other).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise UsageError("only scalar exponents are supported")
        a, p = self, float(exponent)
        data = a.data**p

        def backward(grad):
            a._accumulate(grad * p * a.data ** (p - 1.0))

        return Tensor._result(data, (a,), backward)

    # -- transcendental --------------------------------------------------------

    def exp(self) -> "Tensor":
        a = self
        data = np.exp(a.data)

        def backward(grad):
            a._accumulate(grad * data)

        return Tensor._result(data, (a,), backward)

    def log(self) -> "Tensor":
        a = self

        def backward(grad):
            a._accumulate(grad / a.data)

        return Tensor._result(np.log(a.data), (a,), backward)

    def sqrt(self) -> "Tensor":
        a = self
        data = np.sqrt(a.data)

        def backward(grad):
            a._accumulate(grad * 0.5 / data)

        return Tensor._result(data, (a,), backward)

    def tanh(self) -> "Tensor":
        a = self
        data = np.tanh(a.data)

        def backward(grad):
            a._accumulate(grad * (1.0 - data * data))

        return Tensor._result(data, (a,), backward)

    def gelu(self) -> "Tensor":
        # tanh-form GELU; smooth everywhere, which keeps finite-difference
        # gradient checks clean (no ReLU kinks).
        a = self
        c = np.sqrt(2.0 / np.pi)
        u = c * (a.data + 0.044715 * a.data**3)
        t = np.tanh(u)
        data = 0.5 * a.data * (1.0 + t)

        def backward(grad):
            du = c * (1.0 + 3.0 * 0.044715 * a.data**2)
            local = 0.5 * (1.0 + t) + 0.5 * a.data * (1.0 - t * t) * du
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


def softmax(x: Tensor, axis: int) -> Tensor:
    """Max-stabilized softmax along `axis`."""
    if not -x.data.ndim <= axis < x.data.ndim:
        raise UsageError(f"axis {axis} invalid for shape {x.shape}")
    mask = np.ones(x.shape, dtype=bool)
    return masked_softmax(x, mask, axis=axis)


def masked_softmax(x: Tensor, mask: np.ndarray, axis: int = -1) -> Tensor:
    """Softmax over the entries where `mask` is true; zeros elsewhere.

    Rows that are fully masked out come back as all zeros rather than NaN,
    so padded attention segments stay inert.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != x.shape:
        raise UsageError("mask shape must match tensor shape")
    if not -x.data.ndim <= axis < x.data.ndim:
        raise UsageError(f"axis {axis} invalid for shape {x.shape}")
    a = x
    # Work in one buffer: a batch of attention maps can outgrow the cache,
    # and each full-size temporary costs another pass over memory.
    masked_out = ~mask
    data = np.where(mask, a.data, -np.inf)
    peak = data.max(axis=axis, keepdims=True)
    peak = np.where(np.isfinite(peak), peak, 0.0)
    np.subtract(a.data, peak, out=data)
    np.copyto(data, 0.0, where=masked_out)
    np.exp(data, out=data)
    np.copyto(data, 0.0, where=masked_out)
    total = data.sum(axis=axis, keepdims=True)
    data /= np.where(total == 0.0, 1.0, total)

    def backward(grad):
        dot = (grad * data).sum(axis=axis, keepdims=True)
        a._accumulate(data * (grad - dot))

    return Tensor._result(data, (a,), backward)


def masked_logsumexp(x: Tensor, mask: np.ndarray, axis: int = -1) -> Tensor:
    """log(sum(exp(x))) over unmasked entries, stabilized.

    Fully-masked slices yield 0.0; callers are expected to mask those slices
    out of any downstream combination themselves.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != x.shape:
        raise UsageError("mask shape must match tensor shape")
    a = x
    neg = np.where(mask, a.data, -np.inf)
    peak = neg.max(axis=axis, keepdims=True)
    alive = np.isfinite(peak)
    peak = np.where(alive, peak, 0.0)
    expd = np.where(mask, np.exp(np.where(mask, a.data - peak, 0.0)), 0.0)
    total = expd.sum(axis=axis, keepdims=True)
    data = np.where(alive, peak + np.log(np.where(total == 0.0, 1.0, total)), 0.0)
    data = np.squeeze(data, axis=axis)
    weights = expd / np.where(total == 0.0, 1.0, total)

    def backward(grad):
        g = np.expand_dims(grad, axis)
        a._accumulate(weights * g)

    return Tensor._result(data, (a,), backward)


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

"""Dense float64 tensors with reverse-mode differentiation.

Just enough array machinery to train every block in this repo at desk
scale: row-major numpy storage, a taped backward pass, and the fused ops
(affine maps, layer norm, attention, cross entropy, row gather/scatter)
that the two stacks need. Each keeps on the tape only what its backward
reads. `attention` holds the only softmax over scores and takes its keys
transposed; given plain arrays, such as a decoder's in-place cache, it
reads them where they lie and keeps no tape. Nothing
broadcasts: `+` and `*` take equal shapes and `@` two matrices, and a
mismatch raises `UsageError` instead of summing a gradient down to a
wrong shape. Every op checks that its output is finite, so numerical
blowups surface at the op that caused them. `backward` frees each tape
node once its grads are out. Under `no_grad()` ops keep no tape: their
results have no parents.
"""

from __future__ import annotations

import contextlib
import operator
import threading

import numpy as np

__all__ = [
    "UsageError",
    "Tensor",
    "affine",
    "attention",
    "concat",
    "cross_entropy",
    "layer_norm",
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


def _operands(need: str, fits, *operands) -> tuple["Tensor", ...]:
    """Wrap non-tensor operands as constants; raise UsageError with `need`
    and their shapes unless `fits(*shapes)`. No op broadcasts, so this is
    the only shape check an op needs."""
    tensors = tuple(t if isinstance(t, Tensor) else Tensor(t) for t in operands)
    shapes = [t.shape for t in tensors]
    if not fits(*shapes):
        raise UsageError(f"{need}; got shapes {', '.join(map(str, shapes))}")
    return tensors


class Tensor:
    """A dense float64 array plus the tape entry that produced it."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "__weakref__")

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
        out._parents = parents if out.requires_grad else ()
        out._backward = backward if out.requires_grad else None
        return out

    def _accumulate(self, grad: np.ndarray, index=...) -> None:
        """Add `grad` into this tensor's grad at `index` (a basic index). A first
        whole grad is copied, for an op may pass one array to two parents."""
        if self.grad is None and index is ...:
            self.grad = np.empty_like(self.data)
            np.copyto(self.grad, grad)
            return
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad[index] += grad

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

    # -- elementwise ops -----------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        a, b = _operands("+ needs equal shapes", operator.eq, self, other)

        def backward(grad):
            if a.requires_grad:
                a._accumulate(grad)
            if b.requires_grad:
                b._accumulate(grad)

        return Tensor._result(a.data + b.data, (a, b), backward)

    def __mul__(self, other) -> "Tensor":
        a, b = _operands("* needs equal shapes", operator.eq, self, other)

        def backward(grad):
            if a.requires_grad:
                a._accumulate(grad * b.data)
            if b.requires_grad:
                b._accumulate(grad * a.data)

        return Tensor._result(a.data * b.data, (a, b), backward)

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

        def backward(grad):
            a._accumulate(grad, index=slice(start, stop))

        return Tensor._result(a.data[start:stop], (a,), backward)

    # -- reductions ---------------------------------------------------------------

    def sum(self) -> "Tensor":
        """The sum of every element."""
        a = self

        def backward(grad):
            a._accumulate(np.broadcast_to(grad, a.shape))

        return Tensor._result(a.data.sum(), (a,), backward)

    # -- linear algebra -------------------------------------------------------------

    def __matmul__(self, other) -> "Tensor":
        """Product of two matrices."""
        need = "@ needs [n, d] and [d, e] matrices"
        a, b = _operands(need, lambda a, b: len(a) == len(b) == 2 and a[1] == b[0], self, other)

        def backward(grad):
            if a.requires_grad:
                a._accumulate(grad @ b.data.T)
            if b.requires_grad:
                b._accumulate(a.data.T @ grad)

        return Tensor._result(a.data @ b.data, (a, b), backward)

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

        # `topo` lists each node after all it was computed from, so a node is
        # popped once every consumer has passed it its grad. Having passed
        # that on, it drops its grad, parents and closure: the tape lets go.
        self.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            if node._backward is None:
                continue  # a leaf keeps its grad
            node._backward(node.grad)
            if node is not self:
                node.grad = None
            node._parents = ()
            node._backward = None


# -- free functions ------------------------------------------------------------


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for x [n, d], w [d, e] and b [e], as one op: the bias row
    is added to every row of the product. The tape keeps only the inputs."""
    need = "affine needs x [n, d], w [d, e] and b [e]"
    x, w, b = _operands(need, lambda x, w, b: len(x) == 2 and x[1:] + b == w, x, w, b)
    data = x.data @ w.data
    data += b.data

    def backward(grad):
        if x.requires_grad:
            x._accumulate(grad @ w.data.T)
        if w.requires_grad:
            w._accumulate(x.data.T @ grad)
        if b.requires_grad:
            b._accumulate(grad.sum(axis=0))

    return Tensor._result(data, (x, w, b), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float) -> Tensor:
    """Each row of x [n, d] normalized to mean 0 and variance 1 (with `eps`
    added to the variance), times `gain` [d] plus `bias` [d]. The tape keeps
    the normalized rows and each row's std; the backward is closed-form."""
    need = "layer_norm needs x [n, d], gain [d] and bias [d]"
    x, gain, bias = _operands(need, lambda x, g, b: len(x) == 2 and g == b == x[1:], x, gain, bias)
    inv_d = 1.0 / x.shape[1]
    normed = x.data - x.data.sum(axis=1, keepdims=True) * inv_d
    std = np.sqrt((normed * normed).sum(axis=1, keepdims=True) * inv_d + eps)
    normed /= std

    def backward(grad):
        if gain.requires_grad:
            gain._accumulate((grad * normed).sum(axis=0))
        if bias.requires_grad:
            bias._accumulate(grad.sum(axis=0))
        if x.requires_grad:
            d_normed = grad * gain.data
            mean_dn = (d_normed * normed).sum(axis=1, keepdims=True) * inv_d
            d_normed -= d_normed.sum(axis=1, keepdims=True) * inv_d
            d_normed -= normed * mean_dn
            d_normed /= std
            x._accumulate(d_normed)

    return Tensor._result(normed * gain.data + bias.data, (x, gain, bias), backward)


def _masked_softmax(weights: np.ndarray, scale: float, v: np.ndarray, allow, capture):
    """The weights and `lse` of `attention` and their product with v, from
    the unscaled scores q·k, which become the weights in place and which
    `capture` receives."""
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
    if capture is not None:
        capture.append(weights)
    return weights, (peak + np.log(total))[..., 0], weights @ v


def attention(q: Tensor, k_t, v, allow, capture=None) -> tuple[Tensor, Tensor]:
    """Masked softmax attention and each row's log-denominator, in one pass.

    q is [..., n, d], the keys come transposed, k_t [..., d, m], and v is
    [..., m, e], with equal leading axes; the boolean `allow` broadcasts to
    [..., n, m] and lets query i see key j where true. Returns `out`
    [..., n, e], the softmax of the allowed scores q·k / sqrt(d) times v,
    and `lse` [..., n], the log of each row's softmax denominator; a row
    with no allowed key gives zeros in both. The scores become the weights
    in one buffer, the only array the tape keeps; `capture` receives it too.

    k_t and v may be plain arrays, such as views of a decoder's in-place
    cache: they are read where they lie, neither copied nor scanned, and
    the results keep no tape, so grad must be off or no operand need it.
    """
    shapes = qs, ks, vs = tuple(map(np.shape, (q, k_t, v)))
    if not (min(map(len, shapes)) >= 2 and qs[:-2] + qs[-1:] == ks[:-1] and ks[:-2] + ks[-1:] == vs[:-1]):
        raise UsageError(
            "attention needs q [..., n, d], k_t [..., d, m] and v [..., m, e]; "
            f"got shapes {', '.join(map(str, shapes))}"
        )
    q = q if isinstance(q, Tensor) else Tensor(q)
    scale = 1.0 / np.sqrt(q.shape[-1])
    if not (isinstance(k_t, Tensor) and isinstance(v, Tensor)):
        if _grad_mode.enabled and any(getattr(t, "requires_grad", False) for t in (q, k_t, v)):
            raise UsageError("attention over plain arrays keeps no tape; run it under no_grad()")
        k_t, v = (t.data if isinstance(t, Tensor) else t for t in (k_t, v))
        _, lse, out = _masked_softmax(q.data @ k_t, scale, v, allow, capture)
        return Tensor._result(out, (), None), Tensor._result(lse, (), None)
    weights, lse, out = _masked_softmax(q.data @ k_t.data, scale, v.data, allow, capture)

    def scores_backward(d_scores):
        d_scores *= scale
        if q.requires_grad:
            # A contiguous k makes d_q equal a plain d_scores @ k bit for bit.
            q._accumulate(d_scores @ np.ascontiguousarray(np.swapaxes(k_t.data, -1, -2)))
        if k_t.requires_grad:
            k_t._accumulate(np.swapaxes(np.swapaxes(d_scores, -1, -2) @ q.data, -1, -2))

    def out_backward(grad):
        if v.requires_grad:
            v._accumulate(np.swapaxes(weights, -1, -2) @ grad)
        if q.requires_grad or k_t.requires_grad:
            d_weights = grad @ np.swapaxes(v.data, -1, -2)
            d_weights -= (d_weights * weights).sum(axis=-1, keepdims=True)
            d_weights *= weights
            scores_backward(d_weights)

    def lse_backward(grad):
        scores_backward(weights * grad[..., None])

    out = Tensor._result(out, (q, k_t, v), out_backward)
    return out, Tensor._result(lse, (q, k_t), lse_backward)


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
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        # A fancy-index += adds each row's first occurrence and np.add.at the
        # repeats in order: the same adds, in the same order, as np.add.at alone.
        flat, grad = indices.ravel(), grad.reshape((indices.size,) + a.shape[1:])
        first = np.zeros(flat.size, dtype=bool)
        first[np.unique(flat, return_index=True)[1]] = True
        a.grad[flat[first]] += grad[first]
        np.add.at(a.grad, flat[~first], grad[~first])

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
    """Concatenate along any one axis."""
    parents = tuple(tensors)
    try:
        data = np.concatenate([t.data for t in parents], axis=axis)
    except ValueError as exc:
        raise UsageError(f"concat: {exc}") from None
    splits = np.cumsum([t.shape[axis] for t in parents[:-1]])

    def backward(grad):
        for t, piece in zip(parents, np.split(grad, splits, axis=axis)):
            if t.requires_grad:
                t._accumulate(piece)

    return Tensor._result(data, parents, backward)

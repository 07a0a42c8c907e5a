"""Dense float64 tensors with reverse-mode differentiation.

Just enough array machinery to train every block in this repo at desk
scale: row-major numpy storage, a taped backward pass, and the fused ops
(affine maps, layer norm, attention, cross entropy, row gather/scatter)
that the two stacks need. Each keeps on the tape only what its backward
reads. `attention` holds the only softmax over scores and takes its keys
transposed. It scores a block of query rows at a time under a structural
mask (a causal offset, a key-validity vector), and its tape keeps its
inputs and O(n) row statistics, from which backward rebuilds each block's
weights; given plain arrays, such as a decoder's in-place cache, it reads
them where they lie and keeps no tape. Nothing broadcasts: `+` and `*`
take equal shapes and `@` two matrices, and a mismatch raises
`UsageError` instead of summing a gradient down to a wrong shape. Every
op checks that its output is finite, so numerical blowups surface at the
op that caused them. `backward` frees each tape node once its grads are
out. Under `no_grad()` ops keep no tape: their results have no parents.
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
    "take_rows_t",
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
        # is some forty times slower than two multiplies. The forward runs in
        # place, each step rounding as the plain expression would (halving
        # last is exact): t takes c * (x + 0.044715 * x**3), then its tanh,
        # and when no tape keeps t the output reuses its buffer. So it makes
        # one or two arrays of x's size, not four; each big temporary is
        # fresh pages to fault in once freed memory has gone back to the OS.
        a = self
        x = a.data
        c = np.sqrt(2.0 / np.pi)
        t = x * x
        t *= x
        t *= 0.044715
        t += x
        t *= c
        np.tanh(t, out=t)
        data = t + 1.0 if _grad_mode.enabled and a.requires_grad else np.add(t, 1.0, out=t)
        data *= x
        data *= 0.5

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


# Query rows `attention` scores at a time. A block's [..., 64, m] scores
# bound what it holds beyond its O((n + m)·d) operands and results, in
# forward and in backward, which rebuilds them a block at a time.
_BLOCK_ROWS = 64


def _allow(causal, keys, rows: slice, m: int):
    """The mask of one block of query rows over m keys, or None when every
    row sees every key."""
    allow = None if causal is None else np.tri(rows.stop - rows.start, m, causal + rows.start, dtype=bool)
    if keys is not None:
        allow = keys[..., None, :] if allow is None else allow & keys[..., None, :]
    return allow


def _weights(q_rows, k_t, scale, allow, stats=None):
    """One block's softmax weights, [..., b, m], and each row's peak and
    denominator, [..., b, 1], from the scores q·k, which become the weights
    in place. Given `stats`, the peaks and denominators found before, it
    rebuilds the same weights by the same operations."""
    weights = q_rows @ k_t
    weights *= scale
    if stats is not None:
        peak, total = stats
    elif allow is None:
        peak = weights.max(axis=-1, keepdims=True)
    else:
        peak = np.max(weights, axis=-1, keepdims=True, where=allow, initial=-np.inf)
        peak[peak == -np.inf] = 0.0
    weights -= peak
    if allow is not None:
        np.copyto(weights, -np.inf, where=~allow)
    np.exp(weights, out=weights)
    if stats is None:
        total = weights.sum(axis=-1, keepdims=True)
        np.copyto(total, 1.0, where=total == 0.0)
    weights /= total
    return weights, peak, total


def _plus(total, part):
    """Sum `part` into a running `total`, None before the first part."""
    if total is None:
        return part
    total += part
    return total


def _attention_backward(q, k_t, v, blocks, weights_of, scale, grad, of_lse):
    """Pass the grad of `attention`'s out (or, with `of_lse`, of its lse) to
    q, k_t and v, a block of query rows at a time, with each block's weights
    rebuilt by `weights_of(rows)`: d_q takes the block's rows, d_k_t and d_v
    sum over blocks."""
    # A contiguous k makes d_q equal a plain d_scores @ k bit for bit.
    k = np.ascontiguousarray(np.swapaxes(k_t.data, -1, -2)) if q.requires_grad else None
    d_q = np.empty(q.shape) if q.requires_grad else None
    d_k = d_v = None
    for rows in blocks:
        weights = weights_of(rows)
        if of_lse:
            d_scores = weights * grad[..., rows, None]
        else:
            g = grad[..., rows, :]
            if v.requires_grad:
                d_v = _plus(d_v, np.swapaxes(weights, -1, -2) @ g)
            if not (q.requires_grad or k_t.requires_grad):
                continue
            d_scores = g @ np.swapaxes(v.data, -1, -2)
            d_scores -= (d_scores * weights).sum(axis=-1, keepdims=True)
            d_scores *= weights
        d_scores *= scale
        if q.requires_grad:
            d_q[..., rows, :] = d_scores @ k
        if k_t.requires_grad:
            d_k = _plus(d_k, np.swapaxes(d_scores, -1, -2) @ q.data[..., rows, :])
    if d_v is not None:
        v._accumulate(d_v)
    if d_q is not None:
        q._accumulate(d_q)
    if d_k is not None:
        k_t._accumulate(np.swapaxes(d_k, -1, -2))


def attention(q: Tensor, k_t, v, *, causal=None, keys=None, capture=None) -> tuple[Tensor, Tensor]:
    """Masked softmax attention and each row's log-denominator.

    q is [..., n, d], the keys come transposed, k_t [..., d, m], and v is
    [..., m, e], with equal leading axes. Query row i sees key j when
    j <= causal + i, `causal` being the position of row 0 (every key when
    None), and when `keys`, booleans [..., m] that apply to every row, holds
    true at j. Returns `out` [..., n, e], the softmax of the visible scores
    q·k / sqrt(d) times v, and `lse` [..., n], the log of each row's softmax
    denominator; a row that sees no key gives zeros in both.

    Query rows are scored _BLOCK_ROWS at a time, each block's mask built for
    its rows alone. The tape keeps q, k_t, v and each row's peak and
    denominator, no [n, m] array: backward rebuilds each block's weights from
    them by the forward's own operations. `capture` receives the [..., n, m]
    weights.

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
    n, m = qs[-2], ks[-1]
    if keys is not None:
        keys = np.asarray(keys, dtype=bool)
        try:
            np.broadcast_to(keys, ks[:-2] + (m,))
        except ValueError:
            raise UsageError(f"key mask of shape {keys.shape} does not fit keys {ks[:-2] + (m,)}") from None
    q = q if isinstance(q, Tensor) else Tensor(q)
    scale = 1.0 / np.sqrt(q.shape[-1])
    taped = isinstance(k_t, Tensor) and isinstance(v, Tensor)
    if not taped and _grad_mode.enabled and any(getattr(t, "requires_grad", False) for t in (q, k_t, v)):
        raise UsageError("attention over plain arrays keeps no tape; run it under no_grad()")
    keys_t, values = (t.data if isinstance(t, Tensor) else t for t in (k_t, v))
    blocks = [slice(lo, min(lo + _BLOCK_ROWS, n)) for lo in range(0, max(n, 1), _BLOCK_ROWS)]
    out = np.empty(qs[:-1] + vs[-1:])
    peak, total = np.empty(qs[:-1] + (1,)), np.empty(qs[:-1] + (1,))
    seen = []
    for rows in blocks:
        allow = _allow(causal, keys, rows, m)
        weights, peak[..., rows, :], total[..., rows, :] = _weights(q.data[..., rows, :], keys_t, scale, allow)
        out[..., rows, :] = weights @ values
        if capture is not None:
            seen.append(weights)
    if capture is not None:
        capture.append(seen[0] if len(seen) == 1 else np.concatenate(seen, axis=-2))
    lse = (peak + np.log(total))[..., 0]
    if not taped:
        return Tensor._result(out, (), None), Tensor._result(lse, (), None)

    def weights_of(rows):
        stats = peak[..., rows, :], total[..., rows, :]
        return _weights(q.data[..., rows, :], k_t.data, scale, _allow(causal, keys, rows, m), stats)[0]

    def out_backward(grad):
        _attention_backward(q, k_t, v, blocks, weights_of, scale, grad, of_lse=False)

    def lse_backward(grad):
        _attention_backward(q, k_t, v, blocks, weights_of, scale, grad, of_lse=True)

    return (
        Tensor._result(out, (q, k_t, v), out_backward),
        Tensor._result(lse, (q, k_t), lse_backward),
    )


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


def _add_rows(a: Tensor, indices: np.ndarray, grad: np.ndarray) -> None:
    """Add the rows of `grad` into a's grad at the rows `indices` gathered."""
    if a.grad is None:
        a.grad = np.zeros_like(a.data)
    # A fancy-index += adds each row's first occurrence and np.add.at the
    # repeats in order: the same adds, in the same order, as np.add.at alone.
    flat, grad = indices.ravel(), grad.reshape((indices.size,) + a.shape[1:])
    first = np.zeros(flat.size, dtype=bool)
    first[np.unique(flat, return_index=True)[1]] = True
    a.grad[flat[first]] += grad[first]
    np.add.at(a.grad, flat[~first], grad[~first])


def take_rows(x: Tensor, indices) -> Tensor:
    """Gather rows along the first axis; duplicates allowed."""
    indices = np.asarray(indices, dtype=np.int64)
    a = x

    def backward(grad):
        _add_rows(a, indices, grad)

    return Tensor._result(a.data[indices], (a,), backward)


def take_rows_t(x: Tensor, indices) -> Tensor:
    """`take_rows` of x [R, d] at indices [..., m] with its last two axes
    swapped, [..., d, m], as one op: gathered keys come out in the layout
    `attention` reads, and the tape keeps no untransposed copy."""
    indices = np.asarray(indices, dtype=np.int64)
    a = x

    def backward(grad):
        _add_rows(a, indices, np.swapaxes(grad, -1, -2))

    return Tensor._result(np.swapaxes(a.data[indices], -1, -2), (a,), backward)


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

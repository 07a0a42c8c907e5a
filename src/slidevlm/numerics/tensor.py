"""Dense float64 tensors with reverse-mode differentiation.

Just enough array machinery to train every block in this repo at desk
scale: row-major numpy storage, a taped backward pass, and the fused ops
(affine maps, the feed-forward, layer norm, attention, cross entropy, row
gather/scatter) that the two stacks need. The tape is kept apart from the
values: a tensor that needs a grad points to a small node holding its
shape, grad, the nodes of the parents that need a grad and a backward
closure, and each closure holds only the arrays its backward reads.
`affine` and `@` keep x only when the weight needs a grad and the weight
only when x does; `ffn`, GELU between two affine maps, keeps what those
maps would and its pre-activation, and backward rebuilds the tanh term
and the activation from it; `+`, the shape ops, the row gathers and
scatters, `sum`, `concat` and `cross_entropy` keep no parent value. A
value thus lives only while its caller or some backward holds it, and
forward frees the rest as it goes. `attention` holds the only softmax
over scores and takes its keys transposed. It scores a block of query
rows at a time, over the keys that block can see, under a structural
mask (a causal offset, a key-validity vector), and its tape keeps its
inputs and O(n) row statistics, from which backward rebuilds each block's
weights; given plain arrays, such as a decoder's in-place cache, it reads
them where they lie and keeps no tape. Nothing broadcasts: `+` and `*` take equal shapes and `@` two
matrices, and a mismatch raises `UsageError` instead of summing a
gradient down to a wrong shape. Every op checks that its output is
finite, so numerical blowups surface at the op that caused them. `backward` frees each tape node once its grads are
out, and a second `backward` through a freed tape raises `UsageError`.
Under `no_grad()`, or when no parent needs a grad, ops make no node.
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
    "ffn",
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


class _Node:
    """A value's entry on the tape, without the value: its shape and grad,
    the nodes of the parents that need a grad, and the closure that passes
    its grad to them. Backward sets `parents` to None once the closure ran."""

    __slots__ = ("shape", "grad", "parents", "backward", "__weakref__")

    def __init__(self, shape: tuple[int, ...], parents: tuple["_Node", ...] = (), backward=None):
        self.shape = shape
        self.grad: np.ndarray | None = None
        self.parents = parents
        self.backward = backward

    def accumulate(self, grad: np.ndarray, index=...) -> None:
        """Add `grad` into this grad at `index` (a basic index). A first
        whole grad is copied, for an op may pass one array to two parents."""
        if self.grad is None and index is ...:
            self.grad = np.empty(self.shape)
            np.copyto(self.grad, grad)
            return
        if self.grad is None:
            self.grad = np.zeros(self.shape)
        self.grad[index] += grad


def _finite(data: np.ndarray) -> np.ndarray:
    """`data`, once checked to hold only finite values."""
    if not np.all(np.isfinite(data)):
        raise UsageError("operation produced non-finite values")
    return data


def _needs(*tensors: "Tensor") -> tuple[_Node | None, ...]:
    """The tape node of each tensor that an op's backward must pass a grad
    to, and None for the others and for every tensor under no_grad()."""
    if not _grad_mode.enabled:
        return (None,) * len(tensors)
    return tuple(t._tape() if t.requires_grad else None for t in tensors)


class Tensor:
    """A dense float64 array and, once it needs a grad, its tape node."""

    __slots__ = ("data", "requires_grad", "_node", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        if not np.all(np.isfinite(self.data)):
            raise UsageError("tensor values must be finite")
        self.requires_grad = bool(requires_grad)
        self._node: _Node | None = None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _result(data: np.ndarray, parents: tuple["Tensor", ...], backward) -> "Tensor":
        """The output of an op: a node linking the parents that need a grad
        to `backward`, or none when no parent does or under no_grad()."""
        out = Tensor.__new__(Tensor)
        out.data = _finite(np.ascontiguousarray(data, dtype=np.float64))
        linked = tuple(p._tape() for p in parents if p.requires_grad) if _grad_mode.enabled else ()
        out.requires_grad = bool(linked)
        out._node = _Node(out.data.shape, linked, backward) if linked else None
        return out

    def _tape(self) -> _Node:
        """This tensor's tape node; a leaf's is made on first use."""
        if self._node is None:
            self._node = _Node(self.data.shape)
        return self._node

    @property
    def grad(self) -> np.ndarray | None:
        return None if self._node is None else self._node.grad

    @grad.setter
    def grad(self, value: np.ndarray | None) -> None:
        self._tape().grad = value

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
        na, nb = _needs(a, b)

        def backward(grad):
            if na is not None:
                na.accumulate(grad)
            if nb is not None:
                nb.accumulate(grad)

        return Tensor._result(a.data + b.data, (a, b), backward)

    def __mul__(self, other) -> "Tensor":
        a, b = _operands("* needs equal shapes", operator.eq, self, other)
        na, nb = _needs(a, b)
        # Each side's grad reads the other side's value.
        a_data = a.data if nb is not None else None
        b_data = b.data if na is not None else None

        def backward(grad):
            if na is not None:
                na.accumulate(grad * b_data)
            if nb is not None:
                nb.accumulate(grad * a_data)

        return Tensor._result(a.data * b.data, (a, b), backward)

    # -- shape manipulation ------------------------------------------------------

    def reshape(self, *shape: int) -> "Tensor":
        (na,) = _needs(self)
        before = self.shape

        def backward(grad):
            na.accumulate(grad.reshape(before))

        return Tensor._result(self.data.reshape(shape), (self,), backward)

    def transpose(self, *axes: int) -> "Tensor":
        """Permute axes like numpy; no axes reverses them."""
        ndim = self.data.ndim
        axes = axes or tuple(reversed(range(ndim)))
        if sorted(axes) != list(range(ndim)):
            raise UsageError(f"axes {axes} do not permute a {ndim}-D tensor")
        inverse = tuple(np.argsort(axes))
        (na,) = _needs(self)

        def backward(grad):
            na.accumulate(grad.transpose(inverse))

        return Tensor._result(self.data.transpose(axes), (self,), backward)

    @property
    def T(self) -> "Tensor":
        if self.data.ndim != 2:
            raise UsageError("T is defined for 2-D tensors only; use transpose()")
        return self.transpose()

    def rows(self, start: int, stop: int) -> "Tensor":
        """Contiguous row slice along the first axis."""
        (na,) = _needs(self)

        def backward(grad):
            na.accumulate(grad, index=slice(start, stop))

        return Tensor._result(self.data[start:stop], (self,), backward)

    # -- reductions ---------------------------------------------------------------

    def sum(self) -> "Tensor":
        """The sum of every element."""
        (na,) = _needs(self)

        def backward(grad):
            na.accumulate(np.broadcast_to(grad, na.shape))

        return Tensor._result(self.data.sum(), (self,), backward)

    # -- linear algebra -------------------------------------------------------------

    def __matmul__(self, other) -> "Tensor":
        """Product of two matrices."""
        need = "@ needs [n, d] and [d, e] matrices"
        a, b = _operands(need, lambda a, b: len(a) == len(b) == 2 and a[1] == b[0], self, other)
        na, nb = _needs(a, b)
        # Each side's grad reads the other side's value.
        a_data = a.data if nb is not None else None
        b_data = b.data if na is not None else None

        def backward(grad):
            if na is not None:
                na.accumulate(grad @ b_data.T)
            if nb is not None:
                nb.accumulate(a_data.T @ grad)

        return Tensor._result(a.data @ b.data, (a, b), backward)

    # -- backward pass -----------------------------------------------------------------

    def backward(self) -> None:
        """Populate grads of everything this scalar was computed from."""
        if self.data.size != 1:
            raise UsageError("backward() requires a scalar value")
        if not self.requires_grad:
            raise UsageError("backward() on a value detached from any graph")

        root = self._tape()
        topo: list[_Node] = []
        visited: set[int] = set()
        stack: list[tuple[_Node, bool]] = [(root, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if node.parents is None:
                raise UsageError(
                    "backward() through a graph whose tape an earlier backward() freed; "
                    "run the forward again"
                )
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node.parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        # `topo` lists each node after all it was computed from, so a node is
        # popped once every consumer has passed it its grad. Having passed
        # that on, it drops its grad, parents and closure: the tape lets go.
        root.grad = np.ones(root.shape)
        while topo:
            node = topo.pop()
            if node.backward is None:
                continue  # a leaf keeps its grad
            node.backward(node.grad)
            if node is not root:
                node.grad = None
            node.parents = None
            node.backward = None


# -- free functions ------------------------------------------------------------


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for x [n, d], w [d, e] and b [e], as one op: the bias row
    is added to every row of the product. The tape keeps x only when w
    needs a grad and w only when x does."""
    need = "affine needs x [n, d], w [d, e] and b [e]"
    x, w, b = _operands(need, lambda x, w, b: len(x) == 2 and x[1:] + b == w, x, w, b)
    nx, nw, nb = _needs(x, w, b)
    x_data = x.data if nw is not None else None
    w_data = w.data if nx is not None else None
    data = x.data @ w.data
    data += b.data

    def backward(grad):
        _affine_backward(grad, nx, nw, nb, x_data, w_data)

    return Tensor._result(data, (x, w, b), backward)


def _affine_backward(grad, nx, nw, nb, x_data, w_data) -> None:
    """Pass the grad of x @ w + b to the nodes of x, w and b that are not
    None; x's grad reads w_data and w's grad x_data."""
    if nx is not None:
        nx.accumulate(grad @ w_data.T)
    if nw is not None:
        nw.accumulate(x_data.T @ grad)
    if nb is not None:
        nb.accumulate(grad.sum(axis=0))


_GELU_C = np.sqrt(2.0 / np.pi)


def _tanh_term(u: np.ndarray) -> np.ndarray:
    """tanh(c * (u + 0.044715 * u**3)), the tanh in tanh-form GELU, as a new
    array. Powers are written as products: numpy's `u**3` calls pow(), some
    forty times slower than two multiplies. Each in-place step rounds as the
    plain expression would."""
    t = u * u
    t *= u
    t *= 0.044715
    t += u
    t *= _GELU_C
    return np.tanh(t, out=t)


def _gelu(t: np.ndarray, u: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """0.5 * u * (1 + t), GELU from u and its tanh term, into `out` (which
    may be t, or None for a new array). Halving last is exact."""
    out = np.add(t, 1.0, out=out)
    out *= u
    out *= 0.5
    return out


def ffn(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """gelu(x @ w1 + b1) @ w2 + b2 for x [n, d], w1 [d, h], b1 [h], w2 [h, e]
    and b2 [e], as one op, with GELU in its tanh form: smooth everywhere,
    which keeps finite-difference gradient checks clean.

    The tape keeps what two `affine` ops would, x only when w1 needs a grad
    and each weight only when a grad below it is needed, and beyond that the
    pre-activation u = x @ w1 + b1 alone: no tanh term and no activation.
    Backward rebuilds them from u by the forward's own operations and forms
    the GELU derivative in place in the plain expression's rounding order,
    so values and grads equal those of `affine`, GELU and `affine` bit for
    bit. u, the activation and the output are each checked finite."""
    need = "ffn needs x [n, d], w1 [d, h], b1 [h], w2 [h, e] and b2 [e]"

    def fits(x, w1, b1, w2, b2):
        return len(x) == len(w1) == len(w2) == 2 and x[1:] + b1 == w1 and b1 + b2 == w2

    x, w1, b1, w2, b2 = _operands(need, fits, x, w1, b1, w2, b2)
    nx, nw1, nb1, nw2, nb2 = _needs(x, w1, b1, w2, b2)
    below = nx is not None or nw1 is not None or nb1 is not None  # u needs its grad
    x_data = x.data if nw1 is not None else None
    w1_data = w1.data if nx is not None else None
    w2_data = w2.data if below else None
    u = x.data @ w1.data
    u += b1.data
    _finite(u)
    pre = u if below or nw2 is not None else None
    t = _tanh_term(u)
    h = _finite(_gelu(t, u, out=t))
    del u, t
    data = h @ w2.data
    data += b2.data

    def backward(grad):
        t = None if pre is None else _tanh_term(pre)
        h = None if nw2 is None else _gelu(t, pre, out=None if below else t)
        _affine_backward(grad, None, nw2, nb2, h, None)
        if not below:
            return
        # d gelu / du = 0.5 * (1 + t) + 0.5 * u * (1 - t * t) * du_inner,
        # du_inner = c * (1 + 3 * 0.044715 * (u * u)), in that order.
        part = np.multiply(t, t, out=h)
        np.subtract(1.0, part, out=part)
        scratch = np.multiply(pre, 0.5)
        part *= scratch
        du_inner = np.multiply(pre, pre, out=scratch)
        du_inner *= 3.0 * 0.044715
        du_inner += 1.0
        du_inner *= _GELU_C
        part *= du_inner
        del scratch, du_inner
        t += 1.0
        t *= 0.5
        t += part
        del part
        d_u = grad @ w2_data.T
        d_u *= t
        del t
        _affine_backward(d_u, nx, nw1, nb1, x_data, w1_data)

    return Tensor._result(data, (x, w1, b1, w2, b2), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float) -> Tensor:
    """Each row of x [n, d] normalized to mean 0 and variance 1 (with `eps`
    added to the variance), times `gain` [d] plus `bias` [d]. The tape keeps
    the normalized rows, each row's std and, when x needs a grad, the gain;
    the backward is closed-form."""
    need = "layer_norm needs x [n, d], gain [d] and bias [d]"
    x, gain, bias = _operands(need, lambda x, g, b: len(x) == 2 and g == b == x[1:], x, gain, bias)
    nx, ng, nb = _needs(x, gain, bias)
    gain_data = gain.data if nx is not None else None
    inv_d = 1.0 / x.shape[1]
    normed = x.data - x.data.sum(axis=1, keepdims=True) * inv_d
    std = np.sqrt((normed * normed).sum(axis=1, keepdims=True) * inv_d + eps)
    normed /= std

    def backward(grad):
        if ng is not None:
            ng.accumulate((grad * normed).sum(axis=0))
        if nb is not None:
            nb.accumulate(grad.sum(axis=0))
        if nx is not None:
            d_normed = grad * gain_data
            mean_dn = (d_normed * normed).sum(axis=1, keepdims=True) * inv_d
            d_normed -= d_normed.sum(axis=1, keepdims=True) * inv_d
            d_normed -= normed * mean_dn
            d_normed /= std
            nx.accumulate(d_normed)

    return Tensor._result(normed * gain.data + bias.data, (x, gain, bias), backward)


# Query rows `attention` scores at a time. A block's [..., 64, m] scores
# bound what it holds beyond its O((n + m)·d) operands and results, in
# forward and in backward, which rebuilds them a block at a time.
_BLOCK_ROWS = 64


def _blocks(n: int, m: int, causal) -> list[tuple[slice, int]]:
    """The blocks of _BLOCK_ROWS query rows out of n, each with the end of
    the m keys its rows can see: under `causal`, none past causal + its
    last row."""
    blocks = []
    for lo in range(0, max(n, 1), _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, n)
        blocks.append((slice(lo, hi), m if causal is None else min(m, max(0, causal + hi))))
    return blocks


def _allow(causal, keys, rows: slice, stop: int):
    """The mask of one block of query rows over its first `stop` keys as
    (lo, mask): every row sees every key before lo, and the [..., b, stop -
    lo] booleans `mask`, None when they see every one, say which of the
    rest each row sees. A causal block without `keys` masks only the keys
    past its first row's last."""
    b = rows.stop - rows.start
    if keys is not None:
        mask = keys[..., None, :stop]
        return 0, mask if causal is None else mask & np.tri(b, stop, causal + rows.start, dtype=bool)
    if causal is None:
        return stop, None
    lo = min(stop, max(0, causal + rows.start + 1))
    return lo, np.tri(b, stop - lo, causal + rows.start - lo, dtype=bool)


def _weights(q_rows, k_t, scale, allow, stats=None):
    """One block's softmax weights, [..., b, stop], and each row's peak and
    denominator, [..., b, 1], from the scores q·k, which become the weights
    in place; `allow` is the block's (lo, mask). Given `stats`, the peaks
    and denominators found before, it rebuilds the same weights by the same
    operations."""
    weights = q_rows @ k_t
    weights *= scale
    lo, mask = allow
    if mask is not None:
        np.copyto(weights[..., lo:], -np.inf, where=~mask)
    if stats is not None:
        peak, total = stats
    else:
        peak = weights.max(axis=-1, keepdims=True, initial=-np.inf)
        peak[peak == -np.inf] = 0.0
    weights -= peak
    np.exp(weights, out=weights)
    if stats is None:
        total = weights.sum(axis=-1, keepdims=True)
        np.copyto(total, 1.0, where=total == 0.0)
    weights /= total
    return weights, peak, total


def _plus(total, part, m: int):
    """Sum `part`, the grads of the first rows of m, into a running
    `total` of all m, None before the first part. A first part of all m
    rows becomes the total, so blocks that skip no key sum as they did."""
    stop = part.shape[-2]
    if total is None:
        if stop == m:
            return part
        total = np.zeros(part.shape[:-2] + (m, part.shape[-1]))
    total[..., :stop, :] += part
    return total


def _attention_backward(nodes, q, k_t, v, blocks, weights_of, scale, grad, of_lse):
    """Pass the grad of `attention`'s out (or, with `of_lse`, of its lse) to
    the nodes of q, k_t and v that are not None, a block of query rows at a
    time, with each block's weights over its first `stop` keys rebuilt by
    `weights_of(rows, stop)`: d_q takes the block's rows, d_k_t and d_v sum
    over blocks. q, k_t and v are the arrays; v is read only when q or k_t
    takes a grad."""
    nq, nk, nv = nodes
    m = k_t.shape[-1]
    # A contiguous k makes d_q equal a plain d_scores @ k bit for bit.
    k = np.ascontiguousarray(np.swapaxes(k_t, -1, -2)) if nq is not None else None
    d_q = np.empty(q.shape) if nq is not None else None
    d_k = d_v = None
    for rows, stop in blocks:
        weights = weights_of(rows, stop)
        if of_lse:
            d_scores = weights * grad[..., rows, None]
        else:
            g = grad[..., rows, :]
            if nv is not None:
                d_v = _plus(d_v, np.swapaxes(weights, -1, -2) @ g, m)
            if nq is None and nk is None:
                continue
            d_scores = g @ np.swapaxes(v[..., :stop, :], -1, -2)
            d_scores -= (d_scores * weights).sum(axis=-1, keepdims=True)
            d_scores *= weights
        d_scores *= scale
        if nq is not None:
            d_q[..., rows, :] = d_scores @ k[..., :stop, :]
        if nk is not None:
            d_k = _plus(d_k, np.swapaxes(d_scores, -1, -2) @ q[..., rows, :], m)
    if d_v is not None:
        nv.accumulate(d_v)
    if d_q is not None:
        nq.accumulate(d_q)
    if d_k is not None:
        nk.accumulate(np.swapaxes(d_k, -1, -2))


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
    its rows alone. Under `causal` a block scores only the keys its rows can
    see, none past causal + its last row, in forward and in backward. The
    tape keeps q, k_t, v and each row's peak and denominator, no [n, m]
    array: backward rebuilds each block's weights from them by the forward's
    own operations. `capture` receives the [..., n, m] weights, zero at the
    keys a block skipped.

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
    blocks = _blocks(n, m, causal)
    out = np.empty(qs[:-1] + vs[-1:])
    peak, total = np.empty(qs[:-1] + (1,)), np.empty(qs[:-1] + (1,))
    seen = np.zeros(qs[:-1] + (m,)) if capture is not None else None
    for rows, stop in blocks:
        allow = _allow(causal, keys, rows, stop)
        weights, peak[..., rows, :], total[..., rows, :] = _weights(
            q.data[..., rows, :], keys_t[..., :stop], scale, allow
        )
        out[..., rows, :] = weights @ values[..., :stop, :]
        if seen is not None:
            seen[..., rows, :stop] = weights
    if seen is not None:
        capture.append(seen)
    lse = (peak + np.log(total))[..., 0]
    if not taped:
        return Tensor._result(out, (), None), Tensor._result(lse, (), None)

    nq, nk, nv = _needs(q, k_t, v)
    queries = q.data
    read_v = values if nq is not None or nk is not None else None  # only their grads read v

    def weights_of(rows, stop):
        stats = peak[..., rows, :], total[..., rows, :]
        allow = _allow(causal, keys, rows, stop)
        return _weights(queries[..., rows, :], keys_t[..., :stop], scale, allow, stats)[0]

    def out_backward(grad):
        args = queries, keys_t, read_v, blocks, weights_of, scale, grad
        _attention_backward((nq, nk, nv), *args, of_lse=False)

    def lse_backward(grad):
        args = queries, keys_t, None, blocks, weights_of, scale, grad
        _attention_backward((nq, nk, None), *args, of_lse=True)

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

    (na,) = _needs(logits)
    peak = logits.data.max(axis=1, keepdims=True)
    expd = np.exp(logits.data - peak)
    total = expd.sum(axis=1, keepdims=True)
    logp = logits.data - peak - np.log(total)
    rows = np.flatnonzero(mask)
    n = rows.size
    data = -logp[rows, targets[rows]].sum() / n

    def backward(grad):
        probs = expd / total
        g = np.zeros(na.shape)
        g[rows] = probs[rows]
        g[rows, targets[rows]] -= 1.0
        na.accumulate(g * (float(np.ravel(grad)[0]) / n))

    return Tensor._result(np.asarray(data), (logits,), backward)


def _add_rows(a: _Node, indices: np.ndarray, grad: np.ndarray) -> None:
    """Add the rows of `grad` into a's grad at the rows `indices` gathered."""
    if a.grad is None:
        a.grad = np.zeros(a.shape)
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
    (na,) = _needs(x)

    def backward(grad):
        _add_rows(na, indices, grad)

    return Tensor._result(x.data[indices], (x,), backward)


def put_rows(n_rows: int, indices, x: Tensor) -> Tensor:
    """Scatter rows of `x` into a zero tensor with `n_rows` rows."""
    indices = np.asarray(indices, dtype=np.int64)
    if np.unique(indices).size != indices.size:
        raise UsageError("put_rows indices must be unique")
    (na,) = _needs(x)
    data = np.zeros((n_rows,) + x.shape[1:], dtype=np.float64)
    data[indices] = x.data

    def backward(grad):
        na.accumulate(grad[indices])

    return Tensor._result(data, (x,), backward)


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    """Concatenate along any one axis."""
    parents = tuple(tensors)
    try:
        data = np.concatenate([t.data for t in parents], axis=axis)
    except ValueError as exc:
        raise UsageError(f"concat: {exc}") from None
    splits = np.cumsum([t.shape[axis] for t in parents[:-1]])
    nodes = _needs(*parents)

    def backward(grad):
        for node, piece in zip(nodes, np.split(grad, splits, axis=axis)):
            if node is not None:
                node.accumulate(piece)

    return Tensor._result(data, parents, backward)

"""Building blocks shared by the slide encoder and the decoder.

Both stacks are post-norm transformer blocks whose attention projects
into heads, mixes them with their own attention pattern, and projects
back. The blocks here draw their weights from the caller's RNG stream in
construction order, so parameter values depend only on the seed and the
order in which a stack builds its layers.
"""

from __future__ import annotations

import math

import numpy as np

from .numerics import Parameter, Tensor

__all__ = ["Linear", "LayerNorm", "FeedForward", "HeadProjections", "PostNormBlock"]


def _linear_init(rng, fan_in: int, fan_out: int) -> np.ndarray:
    scale = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-scale, scale, size=(fan_in, fan_out))


class Linear:
    def __init__(self, prefix: str, fan_in: int, fan_out: int, rng, bias: bool = True):
        self.weight = Parameter(f"{prefix}.weight", _linear_init(rng, fan_in, fan_out))
        self.bias = Parameter(f"{prefix}.bias", np.zeros(fan_out)) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        out = x @ self.weight.value
        return out + self.bias.value if self.bias is not None else out

    def params(self) -> list[Parameter]:
        return [self.weight] if self.bias is None else [self.weight, self.bias]


class LayerNorm:
    EPS = 1e-5

    def __init__(self, prefix: str, dim: int):
        self.gain = Parameter(f"{prefix}.gain", np.ones(dim))
        self.bias = Parameter(f"{prefix}.bias", np.zeros(dim))

    def __call__(self, x: Tensor) -> Tensor:
        mu = x.mean(axis=-1, keepdims=True)
        centered = x - mu
        var = (centered * centered).mean(axis=-1, keepdims=True)
        normed = centered / (var + self.EPS).sqrt()
        return normed * self.gain.value + self.bias.value

    def params(self) -> list[Parameter]:
        return [self.gain, self.bias]


class FeedForward:
    def __init__(self, prefix: str, dim: int, mult: int, rng):
        self.up = Linear(f"{prefix}.up", dim, mult * dim, rng)
        self.down = Linear(f"{prefix}.down", mult * dim, dim, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return self.down(self.up(x).gelu())

    def params(self) -> list[Parameter]:
        return self.up.params() + self.down.params()


class HeadProjections:
    """The q/k/v/out maps of multi-head attention, heads on a leading axis.

    `split` maps [N, D] rows to three [H, N, D/H] tensors; `merge` maps an
    [H, N, D/H] attention result back to [N, D] through the output map.
    Head h owns columns h*D/H:(h+1)*D/H of each projection.
    """

    def __init__(self, prefix: str, dim: int, heads: int, rng):
        self.heads = heads
        self.wq = Linear(f"{prefix}.q", dim, dim, rng)
        # A key bias shifts every score in a row equally, which softmax
        # cancels, so it would train with an exactly-zero gradient.
        self.wk = Linear(f"{prefix}.k", dim, dim, rng, bias=False)
        self.wv = Linear(f"{prefix}.v", dim, dim, rng)
        self.wo = Linear(f"{prefix}.out", dim, dim, rng)

    def params(self) -> list[Parameter]:
        return self.wq.params() + self.wk.params() + self.wv.params() + self.wo.params()

    def split(self, x: Tensor) -> tuple[Tensor, Tensor, Tensor]:
        n = x.shape[0]
        q, k, v = (
            w(x).reshape(n, self.heads, -1).transpose(1, 0, 2) for w in (self.wq, self.wk, self.wv)
        )
        return q, k, v

    def merge(self, heads: Tensor) -> Tensor:
        h, n, dh = heads.shape
        return self.wo(heads.transpose(1, 0, 2).reshape(n, h * dh))


class PostNormBlock:
    """x -> ln1(x + attn(x, ...)) -> ln2(x + ffn(x)).

    The caller builds `attn` from the same `rng` before this block, so its
    weights are drawn ahead of the feed-forward's.
    """

    def __init__(self, prefix: str, attn, dim: int, ffn_mult: int, rng):
        self.attn = attn
        self.ln1 = LayerNorm(f"{prefix}.ln1", dim)
        self.ffn = FeedForward(f"{prefix}.ffn", dim, ffn_mult, rng)
        self.ln2 = LayerNorm(f"{prefix}.ln2", dim)

    def __call__(self, x: Tensor, *attn_args) -> Tensor:
        x = self.ln1(x + self.attn(x, *attn_args))
        return self.ln2(x + self.ffn(x))

    def params(self) -> list[Parameter]:
        return self.attn.params() + self.ln1.params() + self.ffn.params() + self.ln2.params()

"""Minimal float64 tensor engine: autograd, AdamW, RNG streams, checkpoints."""

from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .optim import AdamW, Parameter
from .rng import stream
from .tensor import (
    Tensor,
    UsageError,
    affine,
    attention,
    concat,
    cross_entropy,
    ffn,
    layer_norm,
    no_grad,
    put_rows,
    take_rows,
)

__all__ = [
    "AdamW",
    "CheckpointError",
    "Parameter",
    "Tensor",
    "UsageError",
    "affine",
    "attention",
    "concat",
    "cross_entropy",
    "ffn",
    "layer_norm",
    "load_checkpoint",
    "no_grad",
    "put_rows",
    "save_checkpoint",
    "stream",
    "take_rows",
]

"""Minimal float64 tensor engine: autograd, AdamW, RNG streams, checkpoints."""

from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .optim import AdamW, Parameter
from .rng import stream
from .tensor import (
    Tensor,
    UsageError,
    concat,
    cross_entropy,
    masked_logsumexp,
    masked_softmax,
    put_rows,
    softmax,
    take_rows,
)

__all__ = [
    "AdamW",
    "CheckpointError",
    "Parameter",
    "Tensor",
    "UsageError",
    "concat",
    "cross_entropy",
    "load_checkpoint",
    "masked_logsumexp",
    "masked_softmax",
    "put_rows",
    "save_checkpoint",
    "softmax",
    "stream",
    "take_rows",
]

"""Named trainable parameters and the AdamW optimizer."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, UsageError

__all__ = ["Parameter", "AdamW"]

BETA1, BETA2 = 0.9, 0.999  # decay rates of the first and second moment estimates
EPS = 1e-8


class Parameter:
    """A named weight tensor with a freeze flag; it starts trainable.

    Frozen parameters never accumulate gradient and are skipped by the
    optimizer, so their bytes are identical before and after any number
    of steps. The gradient buffer is allocated on first use, so a model
    that only runs inference holds none.
    """

    def __init__(self, name: str, value):
        self.name = name
        self.value = Tensor(value, requires_grad=True)
        self.value.grad = None

    @property
    def trainable(self) -> bool:
        return self.value.requires_grad

    def set_trainable(self, flag: bool) -> None:
        self.value.requires_grad = bool(flag)

    @property
    def grad(self) -> np.ndarray:
        if self.value.grad is None:
            self.value.grad = np.zeros_like(self.value.data)
        return self.value.grad

    def zero_grad(self) -> None:
        self.value.grad = np.zeros_like(self.value.data)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.shape}, trainable={self.trainable})"


class AdamW:
    """Adam with decoupled weight decay.

    Moments are tracked per parameter name; the step counter increases by
    one on every `step()` call. Non-trainable parameters are never touched.
    """

    def __init__(self, params: list[Parameter], lr: float = 1e-3, weight_decay: float = 0.01):
        names = [p.name for p in params]
        if len(set(names)) != len(names):
            raise UsageError("optimizer parameters must have unique names")
        self.params = list(params)
        self.lr = float(lr)
        self.weight_decay = float(weight_decay)
        self.step_count = 0
        self._m = {p.name: np.zeros_like(p.value.data) for p in self.params}
        self._v = {p.name: np.zeros_like(p.value.data) for p in self.params}

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1**t
        bc2 = 1.0 - BETA2**t
        for p in self.params:
            if not p.trainable:
                continue
            m = self._m[p.name]
            v = self._v[p.name]
            if m.shape != p.value.data.shape:
                raise UsageError(f"optimizer state shape mismatch for {p.name!r}")
            g = p.grad
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            m_hat = m / bc1
            v_hat = v / bc2
            p.value.data -= self.lr * (
                m_hat / (np.sqrt(v_hat) + EPS) + self.weight_decay * p.value.data
            )

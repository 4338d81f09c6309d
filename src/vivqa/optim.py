"""AdamW with decoupled weight decay, and the cosine-with-warmup schedule."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .tensor import Tensor


@dataclass
class ScheduleConfig:
    peak_lr: float = 3e-5
    total_steps: int = 1
    warmup_ratio: float = 0.1
    floor_lr: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.warmup_ratio < 1.0:
            raise ValueError(f"warmup_ratio must be in [0, 1), got {self.warmup_ratio}")
        if self.peak_lr <= 0:
            raise ValueError(f"peak_lr must be positive, got {self.peak_lr}")


def lr_at(step: int, cfg: ScheduleConfig) -> float:
    """Linear ramp 0 -> peak over the warmup steps, then half-cosine to floor."""
    if step < 0 or step > cfg.total_steps:
        raise ValueError(f"step {step} outside [0, {cfg.total_steps}]")
    warmup_steps = cfg.warmup_ratio * cfg.total_steps
    if step < warmup_steps:
        return cfg.peak_lr * step / warmup_steps
    span = cfg.total_steps - warmup_steps
    if span <= 0:
        return cfg.peak_lr if step < cfg.total_steps else cfg.floor_lr
    frac = (step - warmup_steps) / span
    return cfg.floor_lr + (cfg.peak_lr - cfg.floor_lr) * 0.5 * (1.0 + math.cos(math.pi * frac))


class AdamW:
    """Bias-corrected Adam plus decoupled decay p <- p - lr*wd*p.

    Parameters flagged decay-exempt (norm scales/shifts, biases) skip the
    decay term.  Moments are lazily allocated per parameter name.
    """

    def __init__(self, params: dict[str, Tensor], betas=(0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.01, exempt=None):
        self.params = params
        self.betas = (float(betas[0]), float(betas[1]))
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self.exempt = set(exempt or ())
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self, lr: float) -> None:
        if lr < 0:
            raise ValueError(f"lr must be nonnegative, got {lr}")
        b1, b2 = self.betas
        self.t += 1
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            if g.shape != p.data.shape:
                raise ShapeError(f"grad shape {g.shape} != param shape {p.data.shape} for {name}")
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            p.data -= lr * update
            if self.weight_decay != 0.0 and name not in self.exempt:
                p.data -= lr * self.weight_decay * p.data

"""Parameters by arena name (`linear_params`, `norm_params`), the flat value
and gradient arenas over them (`pack`) and their finite check (`nonfinite_param`),
AdamW with decoupled weight decay over them, and the cosine-with-warmup schedule."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import RngStream
from .tensor import Tensor

_CHUNK = 1 << 14     # elements per pass of AdamW.step: the fastest size measured


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


def linear_params(out: dict, name: str, rng: RngStream, d_in: int, d_out: int,
                  bias: float | None = 0.0) -> None:
    """`name.weight`, (d_in, d_out) drawn from `rng` at scale 1/sqrt(d_in), into
    `out`; then `name.bias` unless `bias` is None: zeros, or with a nonzero
    `bias` drawn next from `rng` at that scale."""
    out[f"{name}.weight"] = Tensor(rng.normal((d_in, d_out), scale=1.0 / np.sqrt(d_in)),
                                   requires_grad=True)
    if bias is not None:
        b = rng.normal((d_out,), scale=bias) if bias else np.zeros(d_out)
        out[f"{name}.bias"] = Tensor(b, requires_grad=True)


def norm_params(out: dict, name: str, d: int) -> None:
    out[f"{name}.gamma"] = Tensor(np.ones(d), requires_grad=True)
    out[f"{name}.beta"] = Tensor(np.zeros(d), requires_grad=True)


def pack(params: dict[str, Tensor], fill: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Flat value and gradient arenas over `params` in dict order, each
    `p.data` and `p.grad` rebound to a reshaped view of its slice; the
    gradients are calloc'd zeros.  With `fill` each value is copied in, one
    array at a time, each freed as it goes; without, the value views are
    bound over uninitialised memory, for a caller that fills them afterwards."""
    size = sum(p.size for p in params.values())
    arena = np.empty(size, np.result_type(np.float32, *{p.data.dtype for p in params.values()}))
    grad = np.zeros(size, arena.dtype)
    start = 0
    for p in params.values():
        if fill:
            arena[start:start + p.size] = p.data.reshape(-1)
        p.data = arena[start:start + p.size].reshape(p.shape)
        p.grad = grad[start:start + p.size].reshape(p.shape)
        start += p.size
    return arena, grad


def nonfinite_param(params: dict[str, Tensor], flat: np.ndarray, start: int = 0) -> str | None:
    """The first of `params`, in arena order, with a non-finite element in
    `flat`, the slice of an arena over them that begins at element `start`;
    None when `flat` is all finite."""
    if np.isfinite(flat).all():
        return None
    ends = np.cumsum([p.size for p in params.values()])
    first = start + np.flatnonzero(~np.isfinite(flat))[0]
    return list(params)[np.searchsorted(ends, first, side="right")]


class AdamW:
    """Bias-corrected Adam plus decoupled decay p <- p - lr*wd*p, in place
    over the flat `data` and `grad` arenas that `pack` made for `params`.
    The first `n_decay` elements are decayed, the rest (norm scales/shifts,
    biases) exempt, so the decay is one slice; the moments `m`, `v` are flat."""

    def __init__(self, params: dict[str, Tensor], data: np.ndarray, grad: np.ndarray,
                 n_decay: int, betas=(0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.01):
        self.params = params
        self.data, self.grad, self.n_decay = data, grad, n_decay
        self.betas = (float(betas[0]), float(betas[1]))
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self.t = 0
        # calloc'd zeros stay unmapped until written
        self.m, self.v = (np.zeros(data.size, data.dtype) for _ in range(2))

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def nonfinite_grad(self) -> str | None:
        """The first parameter, in arena order, whose `grad` slice holds a
        non-finite value; None when the whole arena is finite."""
        return nonfinite_param(self.params, self.grad)

    def step(self, lr: float) -> None:
        if lr < 0:
            raise ValueError(f"lr must be nonnegative, got {lr}")
        b1, b2 = self.betas
        self.t += 1
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        tmp = np.empty((2, min(_CHUNK, self.data.size)), self.data.dtype)
        for start in range(0, self.data.size, _CHUNK):
            # in the per-parameter update's order of operations: bitwise equal
            span = slice(start, start + _CHUNK)
            p, g, m, v = self.data[span], self.grad[span], self.m[span], self.v[span]
            a, b = tmp[:, :p.size]
            m *= b1
            m += np.multiply(g, 1.0 - b1, out=a)
            v *= b2
            v += np.multiply(np.multiply(g, 1.0 - b2, out=a), g, out=a)
            np.sqrt(np.divide(v, bc2, out=a), out=a)
            a += self.eps
            np.divide(np.divide(m, bc1, out=b), a, out=b)
            p -= np.multiply(b, lr, out=b)
            if self.weight_decay != 0.0 and start < self.n_decay:
                q = p[:self.n_decay - start]
                q -= np.multiply(q, lr * self.weight_decay, out=a[:q.size])

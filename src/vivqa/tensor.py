"""Dense n-dimensional tensors with reverse-mode automatic differentiation.

The graph is define-by-run: every differentiable op attaches its parents and
a backward function to the output tensor.  The math of the hot ops lives in
kernel pairs on plain arrays, `*_fwd(...) -> (out, saved)` and
`*_bwd(saved, g) -> (one gradient per input)`.  One graph node runs one
pair or several (`chain`, or `residual`, which adds its input), the forwards
in turn and the backwards in reverse.  `backward(loss)` walks the graph
once in reverse topological order, accumulates total derivatives into
requires_grad leaves, then clears the graph so a second backward on the same
loss is a usage error.  The walk keeps its state on the nodes: `_mark` holds
the number of the last walk that reached a node, `_g` its pending gradient.
The order is a depth-first postorder that enters each node's parents last to
first; it fixes the order in which a shared node's gradients are summed, and
so every bit of the result.  Inside `with no_grad():` ops compute their
values but record no graph, so inference keeps no activations alive.

A minibatch travels as one leading batch axis: the model's activations are
(B, rows, width), `matmul` and `linear` take (..., n, k) @ (k, m),
`layer_norm` normalizes the last axis of any rank (its sums, like softmax's,
are products with a ones vector), `multi_head_attention` takes (B, S, width)
with a (B, S) key bias, `cross_entropy` takes (B, C) logits and (B,) targets
with mean reduction, and drop path scales each item's residual branch by its
entry of a (B,) mask column.  Broadcasting is otherwise deliberately
restricted: elementwise ops demand identical shapes, save `linear`'s bias row.
64-bit is the default dtype; 32-bit is allowed for training speed but all
gradient checks assume 64-bit.
"""
from __future__ import annotations

import contextlib
import functools
import math
from typing import Callable, Sequence

import numpy as np

from .errors import ShapeError, UsageError

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)   # a Python float keeps float32 gradients

# Additive attention-mask value: exp(x - max) underflows to exactly 0.0.
MASK_VALUE = -1e30

# False inside `no_grad()`: `node` then records no parents or closures.
_grad_enabled = True

# Nodes visited across all backward passes; the freeze ablation compares this.
_backward_node_visits = 0
# Backward walks so far; a node's `_mark` is the number of the last that reached it.
_walks = 0


@contextlib.contextmanager
def no_grad():
    """Inference mode: ops inside the block record no graph."""
    global _grad_enabled
    saved = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = saved


def backward_node_visits() -> int:
    return _backward_node_visits


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn", "_backward_done",
                 "_g", "_mark")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple = ()
        self._backward_fn: Callable | None = None
        self._backward_done = False
        self._g, self._mark = None, 0     # backward's pending gradient and walk number

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def node(data: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    """An op's output: `backward_fn(g)` returns one gradient per parent."""
    out = Tensor.__new__(Tensor)    # op outputs are float arrays: no coercion
    out.data, out.grad, out._g, out._mark, out._backward_done = data, None, None, 0, False
    if _grad_enabled:
        for p in parents:
            if p.requires_grad:
                out.requires_grad, out._parents, out._backward_fn = True, parents, backward_fn
                return out
    out.requires_grad, out._parents, out._backward_fn = False, (), None
    return out


def chain_fwd(x, steps):
    """Kernels in turn; each step is (fwd, bwd, parameter tensors)."""
    saved = []
    for fwd, bwd, params in steps:
        x, s = fwd(x, *[p.data for p in params])
        saved.append((bwd, s))
    return x, saved


def chain_bwd(saved, g):
    """The input's gradient, then every step's parameter gradients in step order."""
    grads = []
    for bwd, s in reversed(saved):
        g, *gp = bwd(s, g)
        grads[:0] = gp
    return (g, *grads)


def add_leading(dx: np.ndarray, g: np.ndarray) -> None:
    """dx += g zero-padded along axis 1, as a walk sums the two: the
    padding adds 0.0, which turns -0.0 into 0.0."""
    dx[:, :g.shape[1]] += g
    if g.shape[1] < dx.shape[1]:
        dx[:, g.shape[1]:] += 0.0


def chain_params(steps) -> list[Tensor]:
    return [p for _, _, params in steps for p in params]


def chain(x: Tensor, steps) -> Tensor:
    """`chain_fwd` as one graph node over x and `chain_params(steps)`."""
    out, saved = chain_fwd(x.data, steps)
    return node(out, (x, *chain_params(steps)), functools.partial(chain_bwd, saved))


def residual(x: Tensor, steps, keep: np.ndarray | None = None) -> Tensor:
    """x + drop_path(chain_fwd(x, steps), keep) as one graph node; x's
    leading rows when the steps return fewer."""
    out, saved = chain_fwd(x.data, steps)
    out, mask = drop_path_fwd(out, keep)

    def backward(g):
        dx, *grads = chain_bwd(saved, drop_path_bwd(mask, g)[0])
        add_leading(dx, g)
        return (dx, *grads)

    return node(out + x.data[:, :out.shape[1]], (x, *chain_params(steps)), backward)


def _same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


# ---------------------------------------------------------------------------
# Elementwise and linear-algebra primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "add")
    return node(a.data + b.data, (a, b), lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "sub")
    return node(a.data - b.data, (a, b), lambda g: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "mul")
    ad, bd = a.data, b.data
    return node(ad * bd, (a, b), lambda g: (g * bd, g * ad))


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)
    return node(a.data * s, (a,), lambda g: (g * s,))


def _rows(arr: np.ndarray) -> np.ndarray:
    """Fold every leading axis into one: (..., d) -> (n, d)."""
    return arr.reshape(-1, arr.shape[-1])


_ones = functools.lru_cache(maxsize=None)(      # (shape, dtype) -> one shared, read-only array
    lambda shape, dtype: np.lib.stride_tricks.as_strided(np.ones(shape, dtype), writeable=False))


def _product(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x @ w, a 2-D x's rows zero-padded to a multiple of 8 and cut back: OpenBLAS rounds
    a partial row block apart from a full one.  (B, ...) products are per item already."""
    if x.ndim != 2 or len(x) % 8 == 0:
        return x @ w
    return (np.concatenate([x, np.zeros((-len(x) % 8, x.shape[1]), x.dtype)]) @ w)[:len(x)]


def _row_sums(x: np.ndarray) -> np.ndarray:
    """(..., d) -> (..., 1) sums, one product with a ones column: BLAS loops the rows."""
    return _product(x, _ones((x.shape[-1], 1), x.dtype))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """(..., n, k) @ (k, m); the leading axes of `a` are batch axes."""
    if a.data.ndim < 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul: expects (..., n, k) @ (k, m), got {a.shape} and {b.shape}")
    if a.data.shape[-1] != b.data.shape[0]:
        raise ShapeError(f"matmul: inner dimensions disagree, {a.shape} x {b.shape}")
    return chain(a, [(linear_fwd, linear_bwd, (b,))])


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map in one node: (..., n, k) @ (k, m) + the bias row b[m],
    the one permitted broadcast."""
    xd, wd = x.data, w.data
    if xd.ndim < 2 or wd.ndim != 2 or xd.shape[-1] != wd.shape[0] or b.data.shape != wd.shape[1:]:
        raise ShapeError(f"linear: expects (..., n, k) @ (k, m) + (m,), got "
                         f"{x.shape} @ {w.shape} + {b.shape}")
    return chain(x, [(linear_fwd, linear_bwd, (w, b))])


def sum_all(a: Tensor) -> Tensor:
    shape = a.data.shape
    return node(np.asarray(a.data.sum()), (a,), lambda g: (np.broadcast_to(g, shape).copy(),))


# ---------------------------------------------------------------------------
# Structural ops


def stack(parts: Sequence[Tensor]) -> Tensor:
    """Equal-shaped tensors -> one tensor with a new leading batch axis."""
    if not parts:
        raise ShapeError("stack: empty part list")
    ref = parts[0].data.shape
    for p in parts[1:]:
        if p.data.shape != ref:
            raise ShapeError(f"stack: shape mismatch {ref} vs {p.shape}")
    # backward: tuple(g) splits g along the new axis, one slice per part
    return node(np.stack([p.data for p in parts]), tuple(parts), tuple)


def concat(parts: Sequence[Tensor], axis: int) -> Tensor:
    if not parts:
        raise ShapeError("concat: empty part list")
    ref = parts[0].data.shape
    if not -len(ref) <= axis < len(ref):
        raise ShapeError(f"concat: axis {axis} outside a {len(ref)}-d shape")
    axis %= len(ref)
    for p in parts[1:]:
        if len(p.data.shape) != len(ref) or any(
            p.data.shape[i] != ref[i] for i in range(len(ref)) if i != axis
        ):
            raise ShapeError(f"concat: incompatible shapes {ref} vs {p.shape} on axis {axis}")
    lead, start, slices = (slice(None),) * axis, 0, []
    for p in parts:
        slices.append(lead + (slice(start, start + p.data.shape[axis]),))
        start += p.data.shape[axis]

    def bwd(g):
        return tuple(g[s] for s in slices)

    return node(np.concatenate([p.data for p in parts], axis=axis), tuple(parts), bwd)


def narrow(t: Tensor, axis: int, start: int, length: int) -> Tensor:
    if start < 0 or start + length > t.data.shape[axis]:
        raise ShapeError(f"narrow: [{start}, {start + length}) outside axis {axis} of {t.shape}")
    idx = (slice(None),) * (axis % t.data.ndim) + (slice(start, start + length),)
    return chain(t, [(functools.partial(select_fwd, idx=idx), select_bwd, ())])


def permute(t: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    if sorted(axes) != list(range(t.data.ndim)):
        raise ValueError(f"permute: {axes} is not a permutation of axes of rank {t.data.ndim}")
    inv = tuple(np.argsort(axes))
    return node(np.transpose(t.data, axes).copy(), (t,), lambda g: (np.transpose(g, inv).copy(),))


def reshape(t: Tensor, shape: Sequence[int]) -> Tensor:
    old = t.data.shape
    return node(t.data.reshape(shape).copy(), (t,), lambda g: (g.reshape(old).copy(),))


def flatten(t: Tensor, keep_axis: int = 0) -> Tensor:
    """Collapse all axes except keep_axis (row-major) into one trailing axis."""
    if t.data.ndim < 2:
        raise ShapeError(f"flatten: rank >= 2 required, got {t.shape}")
    if keep_axis != 0:
        order = (keep_axis,) + tuple(i for i in range(t.data.ndim) if i != keep_axis)
        t = permute(t, order)
    return reshape(t, (t.shape[0], -1))


# ---------------------------------------------------------------------------
# Adaptive average pooling

@functools.lru_cache(maxsize=None)
def pool_matrix(n: int, m: int) -> np.ndarray:
    """m x n averaging matrix: output bin i averages inputs
    [floor(i*n/m), ceil((i+1)*n/m)).  Bins overlap when m > n."""
    if m <= 0:
        raise ValueError(f"adaptive_avg_pool: target size must be positive, got {m}")
    w = np.zeros((m, n))
    for i in range(m):
        lo = (i * n) // m
        hi = -((-(i + 1) * n) // m)  # ceil
        w[i, lo:hi] = 1.0 / (hi - lo)
    w.setflags(write=False)  # cached and shared between calls
    return w


def pool_fwd(x, mats, first, transposed=False):
    """Average-pool axes first, first + 1, ... by (m, n) `mats`, with np.tensordot's np.dot."""
    for axis, w in enumerate(mats, first):      # np.moveaxis there and back, as transposes
        moved = x.transpose(*range(axis), *range(axis + 1, x.ndim), axis)
        out = np.dot(moved.reshape(-1, moved.shape[-1]), w if transposed else w.T)
        x = out.reshape(moved.shape[:-1] + out.shape[-1:]).transpose(
            *range(axis), x.ndim - 1, *range(axis, x.ndim - 1))
    return x, (mats, first)


def pool_bwd(saved, g):
    return pool_fwd(g, *saved, transposed=True)[:1]


def pool_step(shape, dtype, out_sizes) -> tuple:
    """The chain step that pools the trailing len(out_sizes) axes of a `shape` array."""
    if len(out_sizes) > len(shape):
        raise ShapeError(f"adaptive_avg_pool: {len(out_sizes)} target axes, rank {len(shape)}")
    first = len(shape) - len(out_sizes)
    mats = [pool_matrix(n, m).astype(dtype, copy=False) for n, m in zip(shape[first:], out_sizes)]
    return functools.partial(pool_fwd, mats=mats, first=first), pool_bwd, ()


def adaptive_avg_pool(t: Tensor, out_sizes: Sequence[int]) -> Tensor:
    """Pool the trailing len(out_sizes) axes to the given sizes."""
    return chain(t, [pool_step(t.data.shape, t.data.dtype, out_sizes)])


# ---------------------------------------------------------------------------
# Nonlinearities, normalization and attention: kernel pairs and their ops


# W. J. Cody, "Rational Chebyshev approximations for the error function",
# Math. Comp. 23 (1969) 631-637: the coefficients of his CALERF routine for
# |x| <= 0.46875 (erf), 0.46875 < |x| <= 4 and |x| > 4 (erfc).
_ERF_A = (3.16112374387056560e00, 1.13864154151050156e02, 3.77485237685302021e02,
          3.20937758913846947e03, 1.85777706184603153e-1)
_ERF_B = (2.36012909523441209e01, 2.44024637934444173e02, 1.28261652607737228e03,
          2.84423683343917062e03)
_ERF_C = (5.64188496988670089e-1, 8.88314979438837594e00, 6.61191906371416295e01,
          2.98635138197400131e02, 8.81952221241769090e02, 1.71204761263407058e03,
          2.05107837782607147e03, 1.23033935479799725e03, 2.15311535474403846e-8)
_ERF_D = (1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02,
          1.62138957456669019e03, 3.29079923573345963e03, 4.36261909014324716e03,
          3.43936767414372164e03, 1.23033935480374942e03)
_ERF_P = (3.05326634961232344e-1, 3.60344899949804439e-1, 1.25781726111229246e-1,
          1.60837851487422766e-2, 6.58749161529837803e-4, 1.63153871373020978e-2)
_ERF_Q = (2.56852019228982242e00, 1.87295284992346725e00, 5.27905102951428412e-1,
          6.05183413124413191e-2, 2.33520497626869185e-3)
_INV_SQRTPI = 1.0 / np.sqrt(np.pi)


def _cody_ratio(z: np.ndarray, num_coef, den_coef):
    """Numerator and denominator of one of Cody's rational forms in z, in
    his evaluation order (in place, so no temporaries).  As in CALERF,
    num_coef[-1] multiplies the highest power and num_coef[-2], den_coef[-1]
    are the constant terms."""
    num = num_coef[-1] * z
    den = z.copy()
    for a, b in zip(num_coef[:-2], den_coef[:-1]):
        num += a
        num *= z
        den += b
        den *= z
    num += num_coef[-2]
    den += den_coef[-1]
    return num, den


def erf(x) -> np.ndarray:
    """Error function to within a few ulp, elementwise (Cody 1969)."""
    x = np.asarray(x, dtype=np.float64)
    flat = x.reshape(-1)
    y = np.abs(flat)        # both branches give erf(|x|), and x's sign goes on once, last
    out = np.empty_like(y)
    is_small = y <= 0.46875
    small = np.flatnonzero(is_small)
    rest = np.flatnonzero(~is_small)            # NaN included
    ys = y[small]
    num, den = _cody_ratio(ys * ys, _ERF_A, _ERF_B)
    out[small] = ys * num / den

    # erfc(y) = exp(-y^2) R(y); erf(6) already rounds to 1
    y = np.minimum(y[rest], 6.0)
    num, den = _cody_ratio(np.minimum(y, 4.0), _ERF_C, _ERF_D)
    erfc = num / den
    tail = np.flatnonzero(y > 4.0)
    if tail.size:
        yt = y[tail]
        z = 1.0 / (yt * yt)
        num, den = _cody_ratio(z, _ERF_P, _ERF_Q)
        erfc[tail] = (_INV_SQRTPI - z * num / den) / yt
    # erf needs erfc only to absolute accuracy, so Cody's split of exp(-y^2)
    # into two factors (for relative accuracy in the far tail) is not needed
    erfc *= np.exp(-y * y)
    out[rest] = (0.5 - erfc) + 0.5
    return np.copysign(out, flat, out=out).reshape(x.shape)


def linear_fwd(x, w, b=None):
    """(..., n, k) @ (k, m), plus the bias row b[m] when given."""
    return (_product(x, w) if b is None else _product(x, w) + b), (x, w, b is not None)


def linear_bwd(saved, g):
    x, w, has_bias = saved      # each product folds all rows into one
    g2 = _rows(g)
    grads = ((g2 @ w.T).reshape(x.shape), _rows(x).T @ g2)
    return grads + (_ones(len(g2), g2.dtype) @ g2,) if has_bias else grads


def select_fwd(x, idx):
    return x[idx].copy(), (x.shape, idx)


def select_bwd(saved, g):
    full = np.zeros(saved[0], dtype=g.dtype)
    full[saved[1]] = g
    return (full,)


def layer_norm_fwd(x, gamma, beta, eps=1e-5):
    xhat = x - _row_sums(x) / x.shape[-1]
    inv = 1.0 / np.sqrt(_row_sums(xhat * xhat) / x.shape[-1] + eps)
    xhat *= inv
    out = xhat * gamma
    out += beta
    return out, (xhat, inv, gamma)


def layer_norm_bwd(saved, g):
    xhat, inv, gamma = saved        # gamma's and beta's gradients: a ones row @ all rows
    d, ones = xhat.shape[-1], _ones(g.size // xhat.shape[-1], g.dtype)
    dxhat = g * gamma
    dx = dxhat - _row_sums(dxhat) / d
    dxhat *= xhat
    dx -= xhat * (_row_sums(dxhat) / d)
    dx *= inv
    return dx, ones @ _rows(g * xhat), ones @ _rows(g)


def tanh_fwd(x):
    y = np.tanh(x)
    return y, y


def tanh_bwd(y, g):
    return (g * (1.0 - y * y),)


def gelu_fwd(x):
    """Exact Gaussian-CDF GELU: x * Phi(x)."""
    cdf = erf(x * _INV_SQRT2)
    cdf += 1.0
    cdf *= 0.5
    cdf = cdf.astype(x.dtype, copy=False)
    return x * cdf, (x, cdf)


def gelu_bwd(saved, g):
    x, cdf = saved      # g * (cdf + x * (_INV_SQRT2PI * exp(-0.5 * x * x))) in one temporary
    t = -0.5 * x
    np.exp(np.multiply(t, x, out=t), out=t)
    np.multiply(np.multiply(t, _INV_SQRT2PI, out=t), x, out=t)
    return (np.multiply(np.add(t, cdf, out=t), g, out=t),)


def softmax_fwd(x, out=None):
    y = np.subtract(x, x.max(axis=-1, keepdims=True), out=out)
    np.exp(y, out=y)
    y /= _row_sums(y)
    return y, y


def softmax_bwd(y, g):
    return (y * (g - _row_sums(g * y)),)


def _heads(arr, heads):
    """(B, S, heads*d) -> (B, heads, S, d)."""
    return arr.reshape(arr.shape[0], arr.shape[1], heads, -1).transpose(0, 2, 1, 3)


def _merged(arr):
    return arr.transpose(0, 2, 1, 3).reshape(arr.shape[0], arr.shape[2], -1)


def attention_fwd(q, k, v, key_bias, heads, weights_sink=None):
    qd, kd, vd = _heads(q, heads), _heads(k, heads), _heads(v, heads)
    s = 1.0 / math.sqrt(qd.shape[-1])     # a Python float keeps float32 scores float32
    w = qd @ kd.transpose(0, 1, 3, 2)
    w *= s
    w += np.asarray(key_bias, dtype=q.dtype)[:, None, None, :]
    softmax_fwd(w, out=w)                                       # (B, H, n, S)
    if weights_sink is not None:
        weights_sink.append(w.copy())
    return _merged(w @ vd), (qd, kd, vd, w, s)


def attention_bwd(saved, g):
    qd, kd, vd, w, s = saved
    gout = _heads(g, w.shape[1])
    ds, = softmax_bwd(w, gout @ vd.transpose(0, 1, 3, 2))
    return (_merged((ds @ kd) * s), _merged((ds.transpose(0, 1, 3, 2) @ qd) * s),
            _merged(w.transpose(0, 1, 3, 2) @ gout))


def drop_path_fwd(x, keep):
    """Stochastic depth on one residual branch, per sample: item i of the
    leading batch axis scales its whole branch by keep[i], 0 or 1/(1-rate)
    (a column of `rng.keep_table`).  Without a column (evaluation, or a
    rate-0 block) the branch passes as it is, and the saved mask is None."""
    if keep is None:
        return x, None
    if np.shape(keep) != x.shape[:1]:
        raise ShapeError(f"drop_path: a {np.shape(keep)} mask for a batch of {x.shape[0]}")
    mask = np.asarray(keep, dtype=x.dtype).reshape((-1,) + (1,) * (x.ndim - 1))   # (B, 1, 1)
    return x * mask, mask


def drop_path_bwd(mask, g):
    return (g if mask is None else g * mask,)


def tanh(t: Tensor) -> Tensor:
    return chain(t, [(tanh_fwd, tanh_bwd, ())])


def gelu(t: Tensor) -> Tensor:
    return chain(t, [(gelu_fwd, gelu_bwd, ())])


def softmax(t: Tensor, axis: int = -1) -> Tensor:
    if axis not in (-1, t.data.ndim - 1):       # the only axis supported
        raise ShapeError(f"softmax: axis {axis} is not the last axis of {t.shape}")
    return chain(t, [(softmax_fwd, softmax_bwd, ())])


def layer_norm(t: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    d = t.data.shape[-1:]
    if gamma.data.shape != d or beta.data.shape != d:
        raise ShapeError(
            f"layer_norm: last axis {t.shape} vs gamma {gamma.shape} / beta {beta.shape}"
        )
    return chain(t, [(functools.partial(layer_norm_fwd, eps=eps), layer_norm_bwd, (gamma, beta))])


def multi_head_attention(q: Tensor, k: Tensor, v: Tensor, key_bias: np.ndarray,
                         heads: int, weights_sink: list | None = None) -> Tensor:
    """Scaled dot-product attention over all heads and items in one node.

    q is (B, n, heads*head_dim) and k, v are (B, rows, heads*head_dim): n
    query rows attend to all rows.  Columns are laid out head-major, so head
    h owns columns [h*head_dim, (h+1)*head_dim).  `key_bias` (B, rows) is
    added to every score row of its item before the softmax; a large
    negative bias drives a key's weight to exactly zero.  `weights_sink`,
    when given, receives the (B, heads, n, rows) attention-weight array.
    """
    if q.data.ndim != 3 or k.data.shape != v.data.shape or q.data.shape[::2] != k.data.shape[::2]:
        raise ShapeError(f"multi_head_attention: q/k/v shapes {q.shape}/{k.shape}/{v.shape}")
    batch, rows, width = k.data.shape
    if width % heads != 0:
        raise ShapeError(f"multi_head_attention: width {width} not divisible by {heads} heads")
    if np.shape(key_bias) != (batch, rows):
        raise ShapeError(f"multi_head_attention: key bias {np.shape(key_bias)} vs {(batch, rows)}")
    fwd = functools.partial(attention_fwd, key_bias=key_bias, heads=heads,
                            weights_sink=weights_sink)
    return chain(q, [(fwd, attention_bwd, (k, v))])


# ---------------------------------------------------------------------------
# Lookup, loss, drop path


def as_ids(ids, size: int, what: str) -> np.ndarray:
    """`ids` as int64; IndexError names the first one outside [0, size)."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= size):
        raise IndexError(f"{what} {ids[(ids < 0) | (ids >= size)][0]} outside [0, {size})")
    return ids


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Rows of `table` for an id array of any shape, e.g. (B, S) -> (B, S, d)."""
    ids = as_ids(ids, table.data.shape[0], "embedding_lookup: id")

    def bwd(g):
        dt = np.zeros(table.data.shape, dtype=g.dtype)
        np.add.at(dt, ids, g)
        return (dt,)

    return node(table.data[ids], (table,), bwd)


def cross_entropy(logits: Tensor, targets) -> Tensor:
    """Batch mean of -log softmax(logits[i])[targets[i]], in log space.
    logits: (B, C); targets: (B,) class indices."""
    targets = np.asarray(targets, dtype=np.int64)
    if logits.data.ndim != 2 or targets.shape != logits.data.shape[:1]:
        raise ShapeError(f"cross_entropy: logits {logits.shape} vs targets {targets.shape}")
    batch, c = logits.data.shape
    targets = as_ids(targets, c, "cross_entropy: target")
    x = logits.data
    m = x.max(axis=1, keepdims=True)
    lse = m + np.log(np.exp(x - m).sum(axis=1, keepdims=True))
    items = np.arange(batch)
    loss = (lse[:, 0] - x[items, targets]).mean()

    def bwd(g):
        d = np.exp(x - lse)
        d[items, targets] -= 1.0
        return (d * (float(g) / batch),)

    return node(np.asarray(loss), (logits,), bwd)


# ---------------------------------------------------------------------------
# Backward engine and gradient check


def backward(loss: Tensor) -> None:
    global _backward_node_visits, _walks
    if loss.data.size != 1:
        raise ValueError(f"backward: loss must be scalar, got shape {loss.shape}")
    if loss._backward_done:
        raise UsageError("backward: already called on this loss; run a new forward pass")
    # postorder of an iterative depth-first search, parents entered last to
    # first; entering a node clears any gradient a failed walk left on it
    _walks += 1
    mark = loss._mark = _walks
    topo: list[Tensor] = []
    stack = [(loss, reversed(loss._parents))]
    while stack:
        node, parents = stack[-1]
        for p in parents:
            if p.requires_grad and p._mark != mark:
                p._mark, p._g = mark, None
                stack.append((p, reversed(p._parents)))
                break
        else:
            stack.pop()
            topo.append(node)

    loss._g = np.ones_like(loss.data)
    for node in reversed(topo):
        g, node._g = node._g, None
        if g is None:
            continue
        if node._backward_fn is not None:
            for p, pg in zip(node._parents, node._backward_fn(g)):
                if p.requires_grad and pg is not None:
                    p._g = pg if p._g is None else p._g + pg
            node._backward_fn, node._parents = None, ()
        elif node.grad is None:     # a leaf owns its grad buffer: `g` may be shared
            node.grad = g.copy()
        else:
            node.grad += g
    _backward_node_visits += len(topo)
    loss._backward_done = True


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, h: float = 1e-5) -> float:
    """Max relative error of the tape gradient of scalar f vs central differences."""
    leaf = Tensor(x.data.astype(np.float64).copy(), requires_grad=True)
    loss = f(leaf)
    backward(loss)
    analytic = np.zeros_like(leaf.data) if leaf.grad is None else leaf.grad

    numeric = np.zeros_like(leaf.data)
    flat = leaf.data.reshape(-1)
    nflat = numeric.reshape(-1)
    with no_grad():
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = float(f(Tensor(leaf.data.copy())).data)
            flat[i] = orig - h
            fm = float(f(Tensor(leaf.data.copy())).data)
            flat[i] = orig
            nflat[i] = (fp - fm) / (2.0 * h)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))

"""Frozen visual feature extraction, the pooling adapter chain, and fusion.

Two stub extractors stand in for the real pretrained backbones while
honoring their output contracts (32x768 query tokens and 2560x7x7 local
grid at paper scale):

* local stub: mean-pool the image into the block grid, then a seeded
  per-cell channel map 3 -> local_channels.  It sees block means and
  nothing finer.
* global stub: a seeded linear map of a whole-image summary made of the
  per-channel image means plus per-patch *centered* pixel projections
  (texture).  Subtracting each patch's mean before projecting makes the
  stub blind to which block carries a mean offset, so block-level cues
  stay invisible to it; conversely zero-mean textures are invisible to
  the local stub.  This exact complementarity is what the synthetic
  ablation corpus relies on.

Both stubs take an (N, channels, H, W) stack of images, are linear in the
pixels and deterministic per seed; frozen weights record no gradient tape.
Their weights and biases live in one `params` dict under their arena names
(`extractor.global.weight`).
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .optim import linear_params
from .rng import RngStream
from .tensor import Tensor, add, chain, concat, linear, mul, permute, pool_step, reshape

FUSION_OPS = ("multiply", "add", "concatenate")

# Fixed affine offset of the local stub: block means are expressed as
# contrast against mid-gray so features are not dominated by a shared
# brightness background.  Images are expected in [0, 1].
MID_GRAY = 0.5


@dataclass(frozen=True)
class VisionDims:
    image_size: int = 224
    channels: int = 3
    block: int = 32              # local pooling block edge; grid = image_size // block
    n_tokens: int = 32           # query-token count of the global contract
    token_dim: int = 768
    local_channels: int = 2560
    texture_dim: int = 8         # per-patch texture projection width in the global stub

    @property
    def grid(self) -> int:
        return self.image_size // self.block

    @property
    def summary_dim(self) -> int:
        return self.channels + self.grid * self.grid * self.texture_dim

    @property
    def extractor_size(self) -> int:    # entries of the stubs' weights and biases
        return (self.summary_dim + 1) * self.n_tokens * self.token_dim + (
            self.channels + 1) * self.local_channels


def extractor_stream(seed: int) -> RngStream:
    """The stream both stubs' parameters and the texture projector draw from."""
    return RngStream(seed).split("stub-extractors")


class StubExtractorParams:
    """Seeded projection weights for both stubs.  Never optimizer-registered
    unless explicitly unfrozen for the freeze ablation."""

    def __init__(self, dims: VisionDims, seed: int, trainable: bool = False,
                 rng: RngStream | None = None):
        """`rng` replaces the seed's stream for the four parameters only."""
        self.dims = dims
        self.seed = seed
        rng = extractor_stream(seed) if rng is None else rng
        d = dims
        self.params: dict[str, Tensor] = {}
        for part, d_in, d_out in (("global", d.summary_dim, d.n_tokens * d.token_dim),
                                  ("local", d.channels, d.local_channels)):
            linear_params(self.params, f"extractor.{part}", rng.split(part), d_in, d_out, bias=0.02)
        for t in self.params.values():
            t.requires_grad = trainable

    @functools.cached_property
    def patch_proj(self) -> np.ndarray:
        """The texture projector: fixed preprocessing even in the unfrozen
        arm, drawn from the seed when the global stub first needs it."""
        d = self.dims
        return extractor_stream(self.seed).split("patch-proj").normal(
            (d.texture_dim, d.block * d.block * d.channels),
            scale=1.0 / np.sqrt(d.block * d.block * d.channels),
        )

    def byte_digest(self) -> bytes:
        import hashlib
        h = hashlib.sha256()
        for t in self.params.values():
            h.update(np.ascontiguousarray(t.data).tobytes())
        return h.digest()


@functools.cache
def frozen_extractor(dims: VisionDims, seed: int) -> StubExtractorParams:
    """The frozen stubs of every model with (dims, seed): one read-only draw."""
    p = StubExtractorParams(dims, seed)
    for t in p.params.values():
        t.data.flags.writeable = False
    return p


def _check_images(imgs: np.ndarray, dims: VisionDims) -> None:
    want = (dims.channels, dims.image_size, dims.image_size)
    if imgs.ndim != 4 or imgs.shape[1:] != want:
        raise ShapeError(f"image stack shape {imgs.shape} != (N, *{want})")


def _block_means(imgs: np.ndarray, dims: VisionDims) -> np.ndarray:
    """(N, grid*grid, channels) means over block x block patches, in the order of the
    6-D view's `mean(axis=(3, 5))`: a row by numpy's pairwise rule, then rows in turn."""
    n, c, g, b = len(imgs), dims.channels, dims.grid, dims.block
    blocks = imgs.reshape(n, c, g, b, g, b)
    rows = np.add.reduce(blocks, axis=5) if b >= 8 else sum(
        (blocks[..., j] for j in range(1, b)), blocks[..., 0])
    return (np.add.reduce(rows, axis=3) / (b * b)).transpose(0, 2, 3, 1).reshape(n, g * g, c)


def _image_summary(imgs: np.ndarray, p: StubExtractorParams) -> np.ndarray:
    d = p.dims
    n, c, g, b = len(imgs), d.channels, d.grid, d.block
    patches = imgs.reshape(n, c, g, b, g, b).transpose(0, 2, 4, 1, 3, 5).reshape(n, g * g, c, -1)
    centered = patches - _block_means(imgs, d)[..., None]   # less each patch channel's mean
    texture = centered.reshape(n, g * g, -1) @ p.patch_proj.T   # (N, grid^2, texture_dim)
    return np.concatenate([imgs.mean(axis=(2, 3)), texture.reshape(n, -1)], axis=1)


def extract_global_stub(imgs: np.ndarray, p: StubExtractorParams) -> Tensor:
    """Global-contract features of N images: (N, n_tokens, token_dim).  The
    projection is N one-row products, (N, 1, S) @ W: an (N, S) product
    would round some rows differently from a stack of one."""
    _check_images(imgs, p.dims)
    summary = Tensor(_image_summary(imgs, p)[:, None, :])
    out = linear(summary, p.params["extractor.global.weight"], p.params["extractor.global.bias"])
    return reshape(out, (len(imgs), p.dims.n_tokens, p.dims.token_dim))


def extract_local_stub(imgs: np.ndarray, p: StubExtractorParams) -> Tensor:
    """Local-contract features of N images: (N, local_channels, grid, grid).

    Block means are expressed as contrast against the fixed MID_GRAY level
    before projection so the features are not dominated by a shared
    brightness background; the map stays affine in the pixels, per-cell
    local, and still depends on nothing finer than block means."""
    _check_images(imgs, p.dims)
    d = p.dims
    means = Tensor(_block_means(imgs, d) - MID_GRAY)        # (N, grid^2, channels)
    cells = linear(means, p.params["extractor.local.weight"], p.params["extractor.local.bias"])
    return permute(reshape(cells, (len(imgs), d.grid, d.grid, d.local_channels)), (0, 3, 1, 2))


def adapt_local(v: Tensor, dims: VisionDims) -> Tensor:
    """Local-to-global adapter over leading batch axes, one node: pool, permute, pool, flatten.

    At paper scale: 2560x7x7 -> 2560x1x32 -> 32x1x2560 -> 32x1x768 -> 32x768.
    """
    want = (dims.local_channels, dims.grid, dims.grid)
    if v.shape[-3:] != want:
        raise ShapeError(f"adapt_local: input shape {v.shape} does not end in {want}")
    k, lead, dtype = v.data.ndim - 3, v.shape[:-3], v.data.dtype
    swap = functools.partial(np.swapaxes, axis1=k, axis2=k + 2)    # its own inverse
    return chain(v, [
        pool_step(v.shape, dtype, (1, dims.n_tokens)),
        (lambda x: (swap(x), None), lambda _, g: (swap(g),), ()),     # a view: pool copies
        pool_step(lead + (dims.n_tokens, 1, dims.local_channels), dtype, (dims.token_dim,)),
        (lambda x: (x.reshape(lead + (dims.n_tokens, dims.token_dim)), x.shape),
         lambda shape, g: (g.reshape(shape),), ())])


def fuse(g: Tensor, l_adapted: Tensor, op: str) -> Tensor:
    """Combine global and adapted local features, (..., n_tokens, token_dim)
    each.  multiply/add keep the token count; concatenate stacks global rows
    first, doubling it."""
    if op not in FUSION_OPS:
        raise ValueError(f"unknown fusion op {op!r}; expected one of {FUSION_OPS}")
    if g.shape != l_adapted.shape:
        raise ShapeError(f"fuse: shape mismatch {g.shape} vs {l_adapted.shape}")
    if op == "multiply":
        return mul(g, l_adapted)
    if op == "add":
        return add(g, l_adapted)
    return concat([g, l_adapted], axis=-2)


def fused_token_count(op: str, n_tokens: int) -> int:
    return 2 * n_tokens if op == "concatenate" else n_tokens


def sparsity_stats(v: Tensor | np.ndarray) -> dict[str, float]:
    """Order statistics of the elements: mean, quartiles (median-exclusive
    midpoint rule), min, max."""
    arr = (v.data if isinstance(v, Tensor) else np.asarray(v)).reshape(-1)
    if arr.size == 0:
        raise ValueError("sparsity_stats: empty tensor")
    s = np.sort(arr)
    n = s.size

    def median(x):
        m = x.size
        return float(x[m // 2]) if m % 2 else float(0.5 * (x[m // 2 - 1] + x[m // 2]))

    half = n // 2
    lower = s[:half]
    upper = s[n - half:]
    if n == 1:
        q1 = q3 = float(s[0])
    else:
        q1 = median(lower)
        q3 = median(upper)
    return {
        "mean": float(s.mean()),
        "q1": q1,
        "q2": median(s),
        "q3": q3,
        "min": float(s[0]),
        "max": float(s[-1]),
    }

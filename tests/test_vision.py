"""Vision path tests: stub contracts and complementarity, adapter shape
chain with a brute-force oracle, fusion ops, and sparsity statistics."""
import numpy as np
import pytest

from vivqa.config import preset_dims
from vivqa.data import SyntheticSpec, render_synthetic
from vivqa.errors import ShapeError
from vivqa.tensor import (
    Tensor, backward, grad_check, mul, node, permute, pool_matrix, reshape, sum_all,
)
from vivqa.vision import (
    FUSION_OPS, MID_GRAY, StubExtractorParams, VisionDims, _block_means, adapt_local,
    extract_global_stub, extract_local_stub, frozen_extractor, fuse, fused_token_count,
    sparsity_stats,
)

TINY = preset_dims("tiny").vision
PAPER = preset_dims("paper").vision


def tiny_image(seed=0):
    return np.random.default_rng(seed).uniform(
        0, 1, size=(TINY.channels, TINY.image_size, TINY.image_size))


@pytest.fixture(scope="module")
def params():
    return StubExtractorParams(TINY, seed=777)


# ---------------------------------------------------------------------------
# Contracts and determinism.  The stubs take an (N, c, H, W) stack.


def test_output_contract_shapes(params):
    imgs = np.stack([tiny_image(0), tiny_image(1)])
    assert extract_global_stub(imgs, params).shape == (2, TINY.n_tokens, TINY.token_dim)
    assert extract_local_stub(imgs, params).shape == (2, TINY.local_channels, TINY.grid,
                                                      TINY.grid)


def test_extractors_deterministic_per_seed():
    imgs = tiny_image()[None]
    a = StubExtractorParams(TINY, seed=5)
    b = StubExtractorParams(TINY, seed=5)
    c = StubExtractorParams(TINY, seed=6)
    np.testing.assert_array_equal(extract_global_stub(imgs, a).data,
                                  extract_global_stub(imgs, b).data)
    assert not np.array_equal(extract_global_stub(imgs, a).data,
                              extract_global_stub(imgs, c).data)
    assert a.byte_digest() == b.byte_digest()
    assert a.byte_digest() != c.byte_digest()


def test_frozen_extractor_is_one_read_only_draw_per_dims_and_seed():
    """The seed's own draw, bit for bit, taken once; its size is the dims'."""
    frozen = frozen_extractor(TINY, 5)
    assert frozen is frozen_extractor(TINY, 5) and frozen is not frozen_extractor(TINY, 6)
    assert frozen.byte_digest() == StubExtractorParams(TINY, seed=5).byte_digest()
    assert sum(p.size for p in frozen.params.values()) == TINY.extractor_size
    assert not any(p.data.flags.writeable or p.requires_grad for p in frozen.params.values())


def test_extractors_reject_wrong_image_shape(params):
    with pytest.raises(ShapeError):
        extract_global_stub(np.ones((1, 3, 8, 8)), params)
    with pytest.raises(ShapeError):
        extract_local_stub(np.ones((1, 1, TINY.image_size, TINY.image_size)), params)
    for extract in (extract_global_stub, extract_local_stub):
        with pytest.raises(ShapeError):     # one image, not a stack of one
            extract(tiny_image(), params)


def test_stubs_are_linear_in_pixels(params):
    """f(a*x + b*y) - offsets must match a*f'(x) + b*f'(y) where f' is the
    same map without its constant part."""
    x, y = tiny_image(1), tiny_image(2)
    a, b = 0.3, 1.7
    for extract in (extract_global_stub, extract_local_stub):
        fx, fy, f0, fmix = extract(np.stack([x, y, np.zeros_like(x), a * x + b * y]),
                                   params).data
        np.testing.assert_allclose(fmix - f0, a * (fx - f0) + b * (fy - f0),
                                   atol=1e-9)


def test_local_stub_sees_only_block_means(params):
    """Shuffling pixels inside a block leaves the local features unchanged."""
    img = tiny_image(3)
    shuffled = img.copy()
    b = TINY.block
    block = shuffled[:, :b, :b].reshape(TINY.channels, -1)
    perm = np.random.default_rng(0).permutation(b * b)
    shuffled[:, :b, :b] = block[:, perm].reshape(TINY.channels, b, b)
    out = extract_local_stub(np.stack([img, shuffled]), params).data
    np.testing.assert_allclose(out[0], out[1], atol=1e-12)


def test_local_stub_single_block_change_is_local(params):
    """Two images differing in exactly one block differ only in that cell."""
    img = tiny_image(4)
    other = img.copy()
    bi, bj = 1, 3
    b = TINY.block
    other[:, bi * b:(bi + 1) * b, bj * b:(bj + 1) * b] += 0.25
    out = extract_local_stub(np.stack([other, img]), params).data
    changed = np.abs(out[0] - out[1]) > 1e-12
    cells = np.argwhere(changed.any(axis=0))
    assert cells.tolist() == [[bi, bj]]


def test_global_stub_blind_to_block_mean_offsets(params):
    """Adding a constant to one block changes only the whole-image means
    component, equal to adding the same average shift anywhere."""
    img = tiny_image(5)
    b = TINY.block
    v1 = img.copy()
    v1[:, :b, :b] += 0.2          # block (0,0)
    v2 = img.copy()
    v2[:, b:2 * b, b:2 * b] += 0.2  # block (1,1): same image mean shift
    out = extract_global_stub(np.stack([v1, v2]), params).data
    np.testing.assert_allclose(out[0], out[1], atol=1e-9)


def test_local_stub_blind_to_zero_mean_texture(params):
    """A within-block zero-mean pattern is invisible to block-mean pooling."""
    img = tiny_image(6)
    b = TINY.block
    pattern = np.kron(np.array([[1.0, -1.0], [-1.0, 1.0]]),
                      np.ones((b // 2, b // 2)))
    textured = img + 0.1 * np.tile(pattern, (TINY.grid, TINY.grid))[None, :, :]
    imgs = np.stack([img, textured])
    local = extract_local_stub(imgs, params).data
    np.testing.assert_allclose(local[0], local[1], atol=1e-9)
    # ...but the global stub does see it
    glob = extract_global_stub(imgs, params).data
    assert np.abs(glob[0] - glob[1]).max() > 1e-3


def test_block_means_oracle(params):
    imgs = np.stack([tiny_image(7), tiny_image(8)])
    got = _block_means(imgs, TINY)
    b, g = TINY.block, TINY.grid
    for n, img in enumerate(imgs):
        for bi in range(g):
            for bj in range(g):
                want = img[:, bi * b:(bi + 1) * b, bj * b:(bj + 1) * b].mean(axis=(1, 2))
                np.testing.assert_allclose(got[n, bi * g + bj], want, atol=1e-12)


@pytest.mark.parametrize("dims,n", [(TINY, 16), (PAPER, 2)], ids=["block4", "block32"])
def test_block_means_are_bitwise_the_6d_mean(dims, n):
    """The block means keep every bit of `mean(axis=(3, 5))` on the 6-D view,
    on stacks with negative values, zeros of both signs and blocks of -0.0."""
    r = np.random.default_rng(11)
    c, g, b = dims.channels, dims.grid, dims.block
    for _ in range(5):
        imgs = r.normal(size=(n, c, dims.image_size, dims.image_size))
        imgs[r.random(imgs.shape) < 0.2] = 0.0
        imgs[r.random(imgs.shape) < 0.2] = -0.0
        imgs[0, 0, :2 * b, :b] = -0.0
        want = imgs.reshape(n, c, g, b, g, b).mean(axis=(3, 5))
        want = want.transpose(0, 2, 3, 1).reshape(n, g * g, c)
        assert _block_means(imgs, dims).tobytes() == want.tobytes()


def test_unfrozen_stub_params_receive_gradients():
    p = StubExtractorParams(TINY, seed=1, trainable=True)
    imgs = tiny_image(8)[None]
    out = extract_local_stub(imgs, p)
    backward(sum_all(out))
    assert p.params["extractor.local.weight"].grad is not None
    assert p.params["extractor.local.bias"].grad is not None
    out = extract_global_stub(imgs, p)
    backward(sum_all(out))
    assert p.params["extractor.global.weight"].grad is not None


# ---------------------------------------------------------------------------
# Batch-first stubs against the one-image code they replace

# A second geometry: 56 px in 8 px blocks, still a 7x7 grid.
WIDE = VisionDims(image_size=56, block=8, n_tokens=4, token_dim=12, local_channels=10,
                  texture_dim=3)


def _one_image_stubs(img, p):
    """The per-image stubs as they were before they took a stack: a one-row
    global projection and the block means of a single (c, H, W) image."""
    d = p.dims
    c, g, b = d.channels, d.grid, d.block
    means = img.reshape(c, g, b, g, b).mean(axis=(2, 4)).transpose(1, 2, 0).reshape(g * g, c)
    patches = img.reshape(c, g, b, g, b).transpose(1, 3, 0, 2, 4).reshape(g * g, c * b * b)
    texture = (patches - np.repeat(means, b * b, axis=1)) @ p.patch_proj.T
    summary = np.concatenate([img.mean(axis=(1, 2)), texture.reshape(-1)]).reshape(1, -1)
    w = {name.removeprefix("extractor."): t.data for name, t in p.params.items()}
    glob = (summary @ w["global.weight"] + w["global.bias"]).reshape(d.n_tokens, d.token_dim)
    cells = (means - MID_GRAY) @ w["local.weight"] + w["local.bias"]
    return glob, cells.reshape(g, g, d.local_channels).transpose(2, 0, 1)


@pytest.mark.parametrize("dims", [TINY, WIDE], ids=["tiny", "56px-block8"])
def test_stub_stack_rows_are_bitwise_one_image_calls(dims):
    """Every row of a stack's features is bitwise the one-image code's and a
    stack of one's: rendered images and uniform noise, N = 9."""
    p = StubExtractorParams(dims, seed=31)
    r = np.random.default_rng(4)
    imgs = np.stack([render_synthetic(SyntheticSpec(g, l), dims, noise_seed=g + 10 * l)
                     for g, l in ((0, 0), (3, 5), (14, 48), (7, 20))]
                    + [r.uniform(0, 1, (dims.channels, dims.image_size, dims.image_size))
                       for _ in range(5)])
    glob, local = extract_global_stub(imgs, p).data, extract_local_stub(imgs, p).data
    for i, img in enumerate(imgs):
        want_g, want_l = _one_image_stubs(img, p)
        assert glob[i].tobytes() == want_g.tobytes()
        assert local[i].tobytes() == want_l.tobytes()
        assert extract_global_stub(imgs[i:i + 1], p).data[0].tobytes() == want_g.tobytes()
        assert extract_local_stub(imgs[i:i + 1], p).data[0].tobytes() == want_l.tobytes()


# Small enough that central differences run over every weight.
GRAD_DIMS = VisionDims(image_size=16, block=8, n_tokens=2, token_dim=3, local_channels=4,
                       texture_dim=2)


@pytest.mark.parametrize("stub,name", [(extract_global_stub, "global_weight"),
                                       (extract_global_stub, "global_bias"),
                                       (extract_local_stub, "local_weight"),
                                       (extract_local_stub, "local_bias")])
def test_stub_gradient_in_weights_at_n3(stub, name):
    p = StubExtractorParams(GRAD_DIMS, seed=2, trainable=True)
    r = np.random.default_rng(5)
    imgs = r.uniform(0, 1, (3, GRAD_DIMS.channels, GRAD_DIMS.image_size,
                            GRAD_DIMS.image_size))
    proj = Tensor(r.normal(size=stub(imgs, p).shape))
    key = "extractor." + name.replace("_", ".")

    def f(w):
        p.params[key] = w
        return sum_all(mul(stub(imgs, p), proj))

    assert grad_check(f, p.params[key]) < 1e-4


# ---------------------------------------------------------------------------
# Adapter chain


def _adapter_oracle(v, dims):
    """Straight-line reimplementation of the documented pooling chain."""
    def pool_axis(x, axis, m):
        n = x.shape[axis]
        out_slices = []
        for i in range(m):
            lo = (i * n) // m
            hi = -((-(i + 1) * n) // m)
            out_slices.append(np.take(x, range(lo, hi), axis=axis).mean(axis=axis,
                                                                        keepdims=True))
        return np.concatenate(out_slices, axis=axis)

    x = pool_axis(v, 1, 1)                     # (C, 1, n_tokens)
    x = pool_axis(x, 2, dims.n_tokens)
    x = x.transpose(2, 1, 0)                   # (n_tokens, 1, C)
    x = pool_axis(x, 2, dims.token_dim)        # (n_tokens, 1, token_dim)
    return x.reshape(dims.n_tokens, dims.token_dim)


def _tensordot_pool(t, out_sizes):
    """adaptive_avg_pool as a closure over np.tensordot, one axis at a time."""
    first = t.data.ndim - len(out_sizes)
    mats = [pool_matrix(t.shape[first + j], m) for j, m in enumerate(out_sizes)]

    def apply(x, transposed):
        for axis, w in enumerate(mats, first):
            x = np.moveaxis(np.tensordot(x, w.T if transposed else w, axes=([axis], [1])),
                            -1, axis)
        return x

    return node(apply(t.data, False), (t,), lambda g: (apply(g, True),))


def _four_op_adapter(v, dims):
    """The adapter as four graph nodes: pool, permute, pool, reshape."""
    k = v.data.ndim - 3
    v = _tensordot_pool(v, (1, dims.n_tokens))
    v = permute(v, (*range(k), k + 2, k + 1, k))
    v = _tensordot_pool(v, (dims.token_dim,))
    return reshape(v, v.shape[:k] + (dims.n_tokens, dims.token_dim))


@pytest.mark.parametrize("dims,lead", [(TINY, ()), (TINY, (16,)), (PAPER, (2,))],
                         ids=["tiny", "tiny-batch", "paper-batch"])
def test_adapter_node_is_bitwise_the_four_op_chain(dims, lead):
    """One node, whose output and input gradient keep every bit of the
    four-op chain's."""
    r = np.random.default_rng(5)
    v = r.normal(size=lead + (dims.local_channels, dims.grid, dims.grid))
    proj = Tensor(r.normal(size=lead + (dims.n_tokens, dims.token_dim)))
    results = []
    for adapter in (adapt_local, _four_op_adapter):
        leaf = Tensor(v, requires_grad=True)
        out = adapter(leaf, dims)
        backward(sum_all(mul(out, proj)))
        results.append((out, leaf.grad))
    (out, grad), (want, want_grad) = results
    assert out.data.tobytes() == want.data.tobytes()
    assert grad.tobytes() == want_grad.tobytes()
    leaf = Tensor(v, requires_grad=True)
    assert adapt_local(leaf, dims)._parents == (leaf,)


def test_adapter_shape_chain_tiny():
    v = Tensor(np.random.default_rng(0).normal(
        size=(TINY.local_channels, TINY.grid, TINY.grid)))
    out = adapt_local(v, TINY)
    assert out.shape == (TINY.n_tokens, TINY.token_dim)


def test_adapter_matches_bruteforce_oracle():
    r = np.random.default_rng(1)
    v = r.normal(size=(TINY.local_channels, TINY.grid, TINY.grid))
    out = adapt_local(Tensor(v), TINY)
    np.testing.assert_allclose(out.data, _adapter_oracle(v, TINY), atol=1e-12)


def test_adapter_rejects_wrong_shape():
    with pytest.raises(ShapeError):
        adapt_local(Tensor(np.ones((3, 2, 2))), TINY)


@pytest.mark.parametrize("seed", range(5))
def test_adapter_gradient(seed):
    r = np.random.default_rng(seed)
    proj = r.normal(size=(TINY.n_tokens, TINY.token_dim))
    v = Tensor(r.normal(size=(TINY.local_channels, TINY.grid, TINY.grid)))
    f = lambda x: sum_all(mul(adapt_local(x, TINY), Tensor(proj)))
    assert grad_check(f, v) < 1e-4


@pytest.mark.parametrize("dims,lead", [(TINY, (3,)), (TINY, (2, 3)), (PAPER, (8,))],
                         ids=["tiny-batch", "tiny-two-axes", "paper-batch"])
def test_adapter_batch_equals_per_item_calls(dims, lead):
    """Leading batch axes change nothing but the loop: every item's tokens
    are bitwise those of its own call."""
    v = np.random.default_rng(2).normal(size=lead + (dims.local_channels, dims.grid, dims.grid))
    out = adapt_local(Tensor(v), dims).data
    assert out.shape == lead + (dims.n_tokens, dims.token_dim)
    for idx in np.ndindex(*lead):
        np.testing.assert_array_equal(out[idx], adapt_local(Tensor(v[idx]), dims).data)


@pytest.mark.parametrize("seed", range(3))
def test_adapter_batched_gradient(seed):
    r = np.random.default_rng(seed)
    proj = r.normal(size=(2, TINY.n_tokens, TINY.token_dim))
    v = Tensor(r.normal(size=(2, TINY.local_channels, TINY.grid, TINY.grid)))
    f = lambda x: sum_all(mul(adapt_local(x, TINY), Tensor(proj)))
    assert grad_check(f, v) < 1e-4


# ---------------------------------------------------------------------------
# Fusion


def test_fused_token_count():
    assert fused_token_count("multiply", 32) == 32
    assert fused_token_count("add", 32) == 32
    assert fused_token_count("concatenate", 32) == 64


def test_fuse_shapes_and_values(rng):
    g = Tensor(rng.normal(size=(8, 24)))
    l = Tensor(rng.normal(size=(8, 24)))
    np.testing.assert_array_equal(fuse(g, l, "multiply").data, g.data * l.data)
    np.testing.assert_array_equal(fuse(g, l, "add").data, g.data + l.data)
    cat = fuse(g, l, "concatenate")
    assert cat.shape == (16, 24)
    np.testing.assert_array_equal(cat.data[:8], g.data)   # global rows first
    np.testing.assert_array_equal(cat.data[8:], l.data)


def test_fuse_rejects_unknown_op_and_mismatch(rng):
    g = Tensor(rng.normal(size=(8, 24)))
    with pytest.raises(ValueError):
        fuse(g, g, "average")
    with pytest.raises(ShapeError):
        fuse(g, Tensor(rng.normal(size=(4, 24))), "add")


# ---------------------------------------------------------------------------
# Sparsity statistics


def test_sparsity_hand_case():
    stats = sparsity_stats(np.array([1.0, 2.0, 3.0, 4.0]))
    assert stats["q1"] == 1.5
    assert stats["q2"] == 2.5
    assert stats["q3"] == 3.5
    assert stats["min"] == 1.0 and stats["max"] == 4.0
    assert stats["mean"] == 2.5


def test_sparsity_odd_count_excludes_median():
    stats = sparsity_stats(np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
    assert stats["q2"] == 3.0
    assert stats["q1"] == 1.5   # median of [1,2]
    assert stats["q3"] == 4.5   # median of [4,5]


def test_sparsity_single_element():
    stats = sparsity_stats(np.array([7.0]))
    assert stats["q1"] == stats["q2"] == stats["q3"] == 7.0


def test_sparsity_empty_rejected():
    with pytest.raises(ValueError):
        sparsity_stats(np.array([]))


def test_multiply_iqr_smaller_than_add_on_uniform():
    r = np.random.default_rng(2024)
    g = Tensor(r.uniform(-1, 1, size=(32, 64)))
    l = Tensor(r.uniform(-1, 1, size=(32, 64)))
    s_mul = sparsity_stats(fuse(g, l, "multiply"))
    s_add = sparsity_stats(fuse(g, l, "add"))
    assert (s_mul["q3"] - s_mul["q1"]) < (s_add["q3"] - s_add["q1"])


# ---------------------------------------------------------------------------
# Paper-scale dims (cheap arithmetic only)


def test_paper_dims():
    assert PAPER.grid == 7
    assert PAPER.summary_dim == 3 + 49 * 8
    assert (PAPER.local_channels, PAPER.n_tokens, PAPER.token_dim) == (2560, 32, 768)

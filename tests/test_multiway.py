"""Multiway fusion stack tests on the tiny preset (hidden 24, expert width
96): shape preservation, expert routing, masking, embeddings, drop-path
ramp, pooling, and a composed gradient check of one block.  Sequences carry
a leading batch axis: (B, rows, hidden) with a (B, rows) mask."""
import numpy as np
import pytest

from vivqa.config import RunConfig
from vivqa.errors import ShapeError
from vivqa.multiway import (
    FusedSequence, FusionStackParams, MultiwayBlockParams,
    block_drop_rates, concat_modalities, encode, expert_sublayer, multiway_block,
    pool_cls, shared_attention,
)
from vivqa.rng import RngStream
from vivqa.tensor import Tensor, backward, grad_check, mul, sum_all


H = 24   # the tiny preset's hidden width


def small_cfg(**kw):
    return RunConfig(**dict(dict(preset="tiny", layers=2, heads=2, drop_path=0.0), **kw))


def make_seq(k=3, t=4, seed=0, masked=(), batch=2):
    r = np.random.default_rng(seed)
    x = Tensor(r.normal(size=(batch, k + t, H)))
    mask = np.ones((batch, k + t))
    for i in masked:
        mask[:, i] = 0.0
    return FusedSequence(x=x, boundary=k, mask=mask)


def test_fused_sequence_boundary_guard():
    with pytest.raises(ValueError):
        FusedSequence(x=Tensor(np.zeros((1, 4, 8))), boundary=4, mask=np.ones((1, 4)))
    with pytest.raises(ValueError):
        FusedSequence(x=Tensor(np.zeros((1, 4, 8))), boundary=0, mask=np.ones((1, 4)))


def test_block_preserves_shape():
    cfg = small_cfg()
    p = MultiwayBlockParams(cfg, RngStream(0))
    f = make_seq()
    out = multiway_block(f, p, drop_rate=0.0)
    assert out.x.shape == f.x.shape
    assert out.boundary == f.boundary


@pytest.mark.parametrize("keep", [1, 3, 5])
def test_block_keep_computes_the_leading_rows(keep):
    """With `keep`, a block returns the leading rows of its full output, with
    the same drop-path draws; with vision rows only, the language expert
    does not run."""
    cfg = small_cfg(drop_path=0.5)
    p = MultiwayBlockParams(cfg, RngStream(8))
    f = make_seq(k=3, t=4, masked=(6,))

    def streams():
        return [RngStream(1), RngStream(2)]

    full_sink, sink = [], []
    full = multiway_block(f, p, 0.5, streams(), weights_sink=full_sink)
    lang = p["language.fc1.weight"].data
    if keep <= f.boundary:
        p["language.fc1.weight"].data = np.full_like(lang, np.nan)
    out = multiway_block(f, p, 0.5, streams(), keep=keep, weights_sink=sink)
    p["language.fc1.weight"].data = lang
    assert out.x.shape == (2, keep, H) and out.boundary == 3 and out.mask is f.mask
    np.testing.assert_allclose(out.x.data, full.x.data[:, :keep], rtol=0, atol=1e-12)
    np.testing.assert_allclose(sink[0], full_sink[0][:, :, :keep], rtol=0, atol=1e-12)


def test_expert_routing_disjoint():
    """Perturbing vision-expert weights changes only vision rows of the
    expert sublayer output, and symmetrically for the language expert."""
    cfg = small_cfg()
    p = MultiwayBlockParams(cfg, RngStream(1))
    f = make_seq(k=3, t=4)
    base = expert_sublayer(f.x, f.boundary, p).data.copy()

    saved = p["vision.fc2.weight"].data.copy()
    p["vision.fc2.weight"].data = saved + 0.5
    bumped = expert_sublayer(f.x, f.boundary, p).data
    assert np.abs(bumped[:, :3] - base[:, :3]).max() > 1e-6
    np.testing.assert_array_equal(bumped[:, 3:], base[:, 3:])

    p["vision.fc2.weight"].data = saved
    lang = p["language.fc1.weight"].data.copy()
    lang[0, 0] += 0.5
    p["language.fc1.weight"].data = lang
    bumped = expert_sublayer(f.x, f.boundary, p).data
    np.testing.assert_array_equal(bumped[:, :3], base[:, :3])
    assert np.abs(bumped[:, 3:] - base[:, 3:]).max() > 1e-6


def test_attention_is_shared_across_modalities():
    """The attention sublayer has no modality routing: moving the boundary
    must not change shared_attention output."""
    cfg = small_cfg()
    p = MultiwayBlockParams(cfg, RngStream(2))
    f = make_seq(k=3, t=4)
    a = shared_attention(f.x, f.mask, p, cfg).data
    g = make_seq(k=3, t=4)  # same seed data, boundary irrelevant to attention
    b = shared_attention(g.x, g.mask, p, cfg).data
    np.testing.assert_array_equal(a, b)


def test_masked_positions_have_zero_attention_weight():
    cfg = small_cfg()
    p = MultiwayBlockParams(cfg, RngStream(3))
    f = make_seq(k=3, t=4, masked=(5, 6))
    f.mask[1, 4] = 0.0                      # item 1 has one more padded key
    sink = []
    shared_attention(f.x, f.mask, p, cfg, weights_sink=sink)
    w = sink[0]
    assert np.all(w[:, :, :, 5] == 0.0)
    assert np.all(w[:, :, :, 6] == 0.0)
    assert np.all(w[1, :, :, 4] == 0.0) and np.all(w[0, :, :, 4] > 0.0)
    np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-12)


def test_masked_key_value_cannot_leak():
    """Changing the content of a masked row leaves all other rows' attention
    output unchanged."""
    cfg = small_cfg()
    p = MultiwayBlockParams(cfg, RngStream(4))
    f = make_seq(k=3, t=4, masked=(6,))
    base = shared_attention(f.x, f.mask, p, cfg).data
    x2 = f.x.data.copy()
    x2[:, 6] += 3.0
    out = shared_attention(Tensor(x2), f.mask, p, cfg).data
    np.testing.assert_allclose(out[:, :6], base[:, :6], atol=1e-12)


def test_permutation_equivariance_within_modality():
    """A block adds no position information: with a full mask, permuting
    vision rows permutes the block output the same way."""
    cfg = small_cfg()
    p = MultiwayBlockParams(cfg, RngStream(5))
    f = make_seq(k=4, t=3, seed=7)
    out = multiway_block(f, p, 0.0).x.data
    perm = [2, 0, 3, 1]
    x2 = f.x.data.copy()
    x2[:, :4] = x2[:, perm]
    out2 = multiway_block(FusedSequence(Tensor(x2), 4, f.mask), p, 0.0).x.data
    np.testing.assert_allclose(out2[:, :4], out[:, perm], atol=1e-10)
    np.testing.assert_allclose(out2[:, 4:], out[:, 4:], atol=1e-10)


def test_drop_rates_linear_ramp():
    cfg = small_cfg(layers=4, drop_path=0.3)
    np.testing.assert_allclose(block_drop_rates(cfg), [0.0, 0.1, 0.2, 0.3],
                               atol=1e-12)
    assert block_drop_rates(small_cfg(layers=1, drop_path=0.3)) == [0.3]


def test_concat_modalities_layout():
    """With both embedding tables zeroed, the sequence is the vision rows
    followed by the text rows."""
    stack = FusionStackParams(small_cfg(), max_rows=10, rng=RngStream(0))
    for name in ("fusion.position", "fusion.type"):
        stack.extra[name].data[:] = 0.0
    r = np.random.default_rng(0)
    v = Tensor(r.normal(size=(2, 3, H)))
    q = Tensor(r.normal(size=(2, 5, H)))
    q_mask = np.array([[1.0, 1.0, 1.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0, 0.0]])
    f = concat_modalities(v, q, q_mask, stack)
    assert f.boundary == 3
    np.testing.assert_array_equal(f.x.data[:, :3], v.data)   # vision rows first
    np.testing.assert_array_equal(f.x.data[:, 3:], q.data)
    np.testing.assert_array_equal(f.mask, [[1, 1, 1, 1, 1, 1, 0, 0],
                                           [1, 1, 1, 1, 1, 1, 1, 0]])


def test_concat_modalities_adds_position_and_type():
    cfg = small_cfg()
    stack = FusionStackParams(cfg, max_rows=10, rng=RngStream(1))
    r = np.random.default_rng(1)
    v = Tensor(r.normal(size=(2, 3, H)))
    q = Tensor(r.normal(size=(2, 4, H)))
    f = concat_modalities(v, q, np.ones((2, 4)), stack)
    pos = stack.extra["fusion.position"].data
    typ = stack.extra["fusion.type"].data
    want = np.concatenate([v.data, q.data], axis=1) + pos[:7]
    want[:, :3] += typ[0]
    want[:, 3:] += typ[1]
    np.testing.assert_allclose(f.x.data, want, atol=1e-12)


def test_concat_modalities_rejects_wrong_width():
    cfg = small_cfg()
    stack = FusionStackParams(cfg, max_rows=10, rng=RngStream(2))
    with pytest.raises(ShapeError):
        concat_modalities(Tensor(np.zeros((1, 3, H + 1))), Tensor(np.zeros((1, 4, H))),
                          np.ones((1, 4)), stack)
    with pytest.raises(ShapeError):
        concat_modalities(Tensor(np.zeros((2, 3, H))), Tensor(np.zeros((1, 4, H))),
                          np.ones((1, 4)), stack)


def test_encode_runs_all_layers_and_is_deterministic_in_eval():
    cfg = small_cfg(layers=3)
    stack = FusionStackParams(cfg, max_rows=10, rng=RngStream(3))
    f = make_seq(k=3, t=4)
    a = encode(f, stack).x.data
    b = encode(make_seq(k=3, t=4), stack).x.data
    np.testing.assert_array_equal(a, b)
    assert a.shape == (2, 7, H)


def test_encode_training_drop_path_reproducible_per_seed():
    cfg = small_cfg(layers=3, drop_path=0.5)
    stack = FusionStackParams(cfg, max_rows=10, rng=RngStream(4))
    a = encode(make_seq(), stack, rngs=[RngStream(9), RngStream(10)]).x.data
    b = encode(make_seq(), stack, rngs=[RngStream(9), RngStream(10)]).x.data
    np.testing.assert_array_equal(a, b)


def test_pool_cls_rows():
    """The pooler reads row 0 only: perturbing every later row leaves its
    output bitwise unchanged, and perturbing row 0 changes it."""
    stack = FusionStackParams(small_cfg(), max_rows=10, rng=RngStream(5))
    f = make_seq(k=3, t=4, seed=11)
    out = pool_cls(f, stack).data
    assert out.shape == (2, H)
    assert np.all(np.abs(out) < 1.0)  # tanh range

    x2 = f.x.data.copy()
    x2[:, 1:] += np.linspace(-1.0, 1.0, H)   # not a uniform shift, which the norm removes
    np.testing.assert_array_equal(pool_cls(FusedSequence(Tensor(x2), 3, f.mask), stack).data,
                                  out)
    x2[:, 0] += np.linspace(-1.0, 1.0, H)
    assert np.abs(pool_cls(FusedSequence(Tensor(x2), 3, f.mask), stack).data - out).max() > 1e-6


@pytest.mark.parametrize("seed", range(3))
def test_block_gradient_check(seed):
    cfg = small_cfg()
    p = MultiwayBlockParams(cfg, RngStream(100 + seed))
    r = np.random.default_rng(seed)
    mask = np.array([[1.0, 1.0, 1.0, 1.0, 1.0, 0.0], [1.0, 1.0, 1.0, 1.0, 0.0, 0.0]])
    proj = r.normal(size=(2, 6, H))

    def f(x):
        seq = FusedSequence(x=x, boundary=3, mask=mask)
        out = multiway_block(seq, p, 0.0)
        return sum_all(mul(out.x, Tensor(proj)))

    assert grad_check(f, Tensor(r.normal(size=(2, 6, H)))) < 1e-4


def test_block_param_gradients_flow():
    cfg = small_cfg()
    p = MultiwayBlockParams(cfg, RngStream(6))
    f = make_seq()
    out = multiway_block(f, p, 0.0)
    backward(sum_all(out.x))
    for name, t in p.params.items():
        assert t.grad is not None, name


def test_named_params_cover_stack():
    cfg = small_cfg(layers=2)
    stack = FusionStackParams(cfg, max_rows=10, rng=RngStream(7))
    names = set(stack.named_params())
    assert "fusion.block0.attn.q.weight" in names
    assert "fusion.block0.language.fc2.bias" in names
    assert not [name for name in names if name.startswith("fusion.block1.language")]
    assert not [name for name in names if name.endswith("attn.k.bias")]
    assert "fusion.position" in names
    assert "fusion.type" in names
    assert "fusion.pooler.weight" in names
    assert "fusion.pooler_norm.gamma" in names

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
from vivqa.rng import RngStream, keep_table
from vivqa import tensor as T
from vivqa.tensor import Tensor, backward, grad_check, mul, no_grad, sum_all


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
    out = multiway_block(f, p)
    assert out.x.shape == f.x.shape
    assert out.boundary == f.boundary


@pytest.mark.parametrize("keep", [1, 3, 5])
def test_block_keep_computes_the_leading_rows(keep):
    """With `keep`, a block returns the leading rows of its full output, with
    the same drop-path masks; with vision rows only, the language expert
    does not run."""
    cfg = small_cfg(drop_path=0.5)
    p = MultiwayBlockParams(cfg, RngStream(8))
    f = make_seq(k=3, t=4, masked=(6,))
    drop = np.array([[2.0, 0.0], [0.0, 2.0]])

    full_sink, sink = [], []
    full = multiway_block(f, p, drop, weights_sink=full_sink)
    lang = p["language.fc1.weight"].data
    if keep <= f.boundary:
        p["language.fc1.weight"].data = np.full_like(lang, np.nan)
    out = multiway_block(f, p, drop, keep=keep, weights_sink=sink)
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
    out = multiway_block(f, p).x.data
    perm = [2, 0, 3, 1]
    x2 = f.x.data.copy()
    x2[:, :4] = x2[:, perm]
    out2 = multiway_block(FusedSequence(Tensor(x2), 4, f.mask), p).x.data
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
        stack.params[name].data[:] = 0.0
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
    pos = stack.params["fusion.position"].data
    typ = stack.params["fusion.type"].data
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

    def table(seed):
        return keep_table(seed, 0, [9, 10], np.repeat(block_drop_rates(cfg), 2))

    a = encode(make_seq(), stack, table(4)).x.data
    np.testing.assert_array_equal(a, encode(make_seq(), stack, table(4)).x.data)
    assert not np.array_equal(a, encode(make_seq(), stack, table(5)).x.data)


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
        out = multiway_block(seq, p)
        return sum_all(mul(out.x, Tensor(proj)))

    assert grad_check(f, Tensor(r.normal(size=(2, 6, H)))) < 1e-4


def test_block_param_gradients_flow():
    cfg = small_cfg()
    p = MultiwayBlockParams(cfg, RngStream(6))
    f = make_seq()
    out = multiway_block(f, p)
    backward(sum_all(out.x))
    for name, t in p.params.items():
        assert t.grad is not None, name


def test_params_cover_stack():
    """The stack's `params` holds every block's own entries, the same
    tensors, then the embeddings and the pooler."""
    cfg = small_cfg(layers=2)
    stack = FusionStackParams(cfg, max_rows=10, rng=RngStream(7))
    names = list(stack.params)
    blocks = [name for bp in stack.blocks for name in bp.params]
    assert names[:len(blocks)] == blocks
    assert all(stack.params[n] is bp.params[n] for bp in stack.blocks for n in bp.params)
    assert names[len(blocks):] == ["fusion.position", "fusion.type", "fusion.pooler_norm.gamma",
                                   "fusion.pooler_norm.beta", "fusion.pooler.weight",
                                   "fusion.pooler.bias"]
    assert "fusion.block0.attn.q.weight" in names
    assert "fusion.block0.language.fc2.bias" in names
    assert not [name for name in names if name.startswith("fusion.block1.language")]
    assert not [name for name in names if name.endswith("attn.k.bias")]


# ---------------------------------------------------------------------------
# Sublayer nodes against the op-by-op graph they replaced


def composed_block(f, p, drop=None, keep=None, weights_sink=None):
    """The block as one op node per step (19 in an inner block): the oracle
    for `multiway_block`'s two sublayer nodes, each branch multiplied by its
    column of the (B, 2) `drop`."""
    def lin(x, name):
        return T.linear(x, p[f"{name}.weight"], p[f"{name}.bias"])

    def dropped(branch, col):
        if drop is None:
            return branch
        return T.mul(branch, Tensor(np.broadcast_to(drop[:, col, None, None], branch.shape)))

    def ffn(x, e):
        xn = T.layer_norm(x, p[f"{e}_norm.gamma"], p[f"{e}_norm.beta"])
        return lin(T.gelu(lin(xn, f"{e}.fc1")), f"{e}.fc2")

    x = f.x
    xn = T.layer_norm(x, p["attn_norm.gamma"], p["attn_norm.beta"])
    q = lin(xn if keep is None else T.narrow(xn, 1, 0, keep), "attn.q")
    k = T.matmul(xn, p["attn.k.weight"])
    v = lin(xn, "attn.v")
    merged = T.multi_head_attention(q, k, v, np.where(f.mask > 0.0, 0.0, T.MASK_VALUE),
                                    p.cfg.heads, weights_sink=weights_sink)
    attn = lin(merged, "attn.o")
    if keep is not None:
        x = T.narrow(x, 1, 0, keep)
    x = T.add(x, dropped(attn, 0))
    rows = x.shape[1]
    if rows <= f.boundary:
        experts = ffn(x, "vision")
    else:
        xv = T.narrow(x, 1, 0, f.boundary)
        xt = T.narrow(x, 1, f.boundary, rows - f.boundary)
        text = ffn(xt, "language") if "language" in p.experts else Tensor(np.zeros_like(xt.data))
        experts = T.concat([ffn(xv, "vision"), text], axis=1)
    return T.add(x, dropped(experts, 1))


def composed_pool(f, stack):
    e = stack.params
    row = T.reshape(T.narrow(f.x, 1, 0, 1), (f.x.shape[0], stack.hidden))
    row = T.layer_norm(row, e["fusion.pooler_norm.gamma"], e["fusion.pooler_norm.beta"])
    return T.tanh(T.linear(row, e["fusion.pooler.weight"], e["fusion.pooler.bias"]))


def _randomize(params, seed, shape_of=lambda name, t: t.shape):
    """Fresh leaves with random values (gammas near 1) in `params`, in place."""
    r = np.random.default_rng(seed)
    for name, t in params.items():
        params[name] = Tensor(r.normal(size=shape_of(name, t)) * 0.5 + name.endswith("gamma"),
                              requires_grad=True)


def _small(name, t, h=4, w=6):
    """Hidden 4 and expert width 6, so a grad_check of every entry stays quick."""
    if name.endswith("fc1.weight"):
        return (h, w)
    if name.endswith("fc2.weight"):
        return (w, h)
    return (h, h) if name.endswith("weight") else (w if name.endswith("fc1.bias") else h,)


def _columns(batch):
    """Item 0 keeps both branches, item 1 drops its attention branch and
    item 2 its expert branch, at rate 0.5."""
    return np.array([[2.0, 2.0], [0.0, 2.0], [2.0, 0.0]])[:batch]


def _op_nodes(out) -> int:
    seen, stack = set(), [out]
    while stack:
        t = stack.pop()
        if t._parents and id(t) not in seen:
            seen.add(id(t))
            stack.extend(t._parents)
    return len(seen)


def _run(block, x, params, proj):
    """Output, sink and every gradient (x first, then params in name order)
    of one backward through sum(block(x) * proj)."""
    for t in params.values():
        t.grad = None
    leaf, sink = Tensor(x, requires_grad=True), []
    out = block(leaf, sink)
    backward(sum_all(mul(out, Tensor(proj))))
    grads = [leaf.grad] + [params[name].grad for name in sorted(params)]
    return out.data, sink, grads


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("rate", [0.0, 0.5])
@pytest.mark.parametrize("keep", [None, 1, 5])
@pytest.mark.parametrize("language", [True, False])
def test_block_nodes_are_bitwise_the_composed_ops(batch, rate, keep, language):
    """Outputs, attention weights and every gradient of the two sublayer
    nodes equal the op-by-op graph's byte for byte (tiny dims, random
    parameters), with the same drop-path masks."""
    cfg = small_cfg(drop_path=rate)
    p = MultiwayBlockParams(cfg, RngStream(9), language=language)
    _randomize(p.params, 10 + batch)
    r = np.random.default_rng(batch)
    x = r.normal(size=(batch, 7, H))
    mask = np.ones((batch, 7))
    mask[:, 6] = mask[-1, 5] = 0.0
    rows = 7 if keep is None else keep
    proj = r.normal(size=(batch, rows, H))

    def fused(leaf, sink):
        f = FusedSequence(leaf, 3, mask)
        out = multiway_block(f, p, _columns(batch) if rate else None, keep, sink)
        assert out.boundary == 3 and out.mask is mask and _op_nodes(out.x) == 2
        return out.x

    def composed(leaf, sink):
        f = FusedSequence(leaf, 3, mask)
        return composed_block(f, p, _columns(batch) if rate else None, keep, sink)

    got, want = _run(fused, x, p.params, proj), _run(composed, x, p.params, proj)
    assert got[0].tobytes() == want[0].tobytes()
    assert [w.tobytes() for w in got[1]] == [w.tobytes() for w in want[1]]
    assert len(got[2]) == len(p.params) + 1
    for g, w in zip(got[2], want[2]):
        assert g is w is None or (g.dtype == w.dtype and g.tobytes() == w.tobytes())


def test_pool_node_is_bitwise_the_composed_ops():
    stack = FusionStackParams(small_cfg(), max_rows=10, rng=RngStream(12))
    params = {n: t for n, t in stack.params.items() if n.startswith("fusion.pooler")}
    _randomize(params, 13)
    stack.params.update(params)
    r = np.random.default_rng(14)
    x, proj = r.normal(size=(3, 7, H)), r.normal(size=(3, H))

    def fused(leaf, sink):
        out = pool_cls(FusedSequence(leaf, 3, np.ones((3, 7))), stack)
        assert _op_nodes(out) == 1
        return out

    got = _run(fused, x, params, proj)
    want = _run(lambda leaf, sink: composed_pool(FusedSequence(leaf, 3, np.ones((3, 7))), stack),
                x, params, proj)
    assert got[0].tobytes() == want[0].tobytes()
    assert [g.tobytes() for g in got[2]] == [w.tobytes() for w in want[2]]


def _grad_errors(node, x, params):
    """grad_check of sum(node(x) * proj) in x and in each of `params`."""
    with no_grad():
        proj = Tensor(np.random.default_rng(1).normal(size=node(Tensor(x)).shape))
    errors = {"x": grad_check(lambda t: sum_all(mul(node(t), proj)), Tensor(x))}
    for name, leaf in list(params.items()):
        def f(t, name=name):
            params[name] = t
            return sum_all(mul(node(Tensor(x)), proj))
        errors[name] = grad_check(f, leaf)
        params[name] = leaf
    return errors


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("rate", [0.0, 0.5])
@pytest.mark.parametrize("keep", [None, 1])
@pytest.mark.parametrize("language", [True, False])
def test_sublayer_nodes_gradient_check(batch, rate, keep, language):
    """Each sublayer node in its input and in every parameter it reads, at
    hidden 4 and expert width 6: full and row-0-only attention, drop path on
    and off, and the last block's expert node without a language expert."""
    cfg = small_cfg(drop_path=rate)
    p = MultiwayBlockParams(cfg, RngStream(3), language=language)
    _randomize(p.params, 20 + batch, _small)
    r = np.random.default_rng(30 + batch)
    mask = np.ones((batch, 5))
    mask[:, 4] = 0.0
    drop = _columns(batch).T if rate else (None, None)

    def attention(t):
        return shared_attention(t, mask, p, cfg, keep=keep, drop=drop[0])

    def experts(t):
        return expert_sublayer(t, 2, p, drop[1])

    errors = _grad_errors(attention, r.normal(size=(batch, 5, 4)), p.params)
    rows = 5 if keep is None else keep
    errors.update({f"experts {n}": e for n, e in
                   _grad_errors(experts, r.normal(size=(batch, rows, 4)), p.params).items()})
    assert max(errors.values()) <= 1e-4, errors

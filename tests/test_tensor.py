"""Autodiff engine tests: hand-evaluated forward oracles, finite-difference
gradient oracles for every op (batched ops at B > 1), brute-force pooling
and per-item oracles, the erf oracle, graph lifecycle rules, and the
backward walk against the id()-keyed walk it replaced."""
import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st

import vivqa.tensor as T
from vivqa.errors import ShapeError, UsageError
from vivqa.rng import keep_table
from vivqa.tensor import Tensor, backward, grad_check

GRAD_TOL = 1e-4


def scalarize(op):
    """Wrap a tensor->tensor op into a scalar loss with a fixed projection so
    grad_check exercises a non-trivial upstream gradient."""
    def make(proj):
        def f(x):
            y = op(x)
            return T.sum_all(T.mul(y, Tensor(proj)))
        return f
    return make


# ---------------------------------------------------------------------------
# Forward oracles (hand evaluation)


def test_add_hand():
    out = T.add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
    np.testing.assert_array_equal(out.data, [4.0, 6.0])


def test_mul_hand():
    out = T.mul(Tensor([0.5, -1.0]), Tensor([0.5, 0.5]))
    np.testing.assert_array_equal(out.data, [0.25, -0.5])


def test_matmul_hand():
    out = T.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    np.testing.assert_array_equal(out.data, [[11.0]])


def test_sub_hand():
    np.testing.assert_array_equal(
        T.sub(Tensor([3.0, 1.0]), Tensor([1.0, 5.0])).data, [2.0, -4.0])


def test_elementwise_shape_mismatch():
    with pytest.raises(ShapeError):
        T.add(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))
    with pytest.raises(ShapeError):
        T.mul(Tensor(np.ones((2, 2))), Tensor(np.ones((2, 3))))


def test_matmul_rejects_bad_shapes():
    with pytest.raises(ShapeError):
        T.matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))
    with pytest.raises(ShapeError):
        T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


def test_layer_norm_hand():
    out = T.layer_norm(Tensor([[1.0, 3.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)),
                       eps=1e-12)
    np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-5)


def test_cross_entropy_hand():
    loss = T.cross_entropy(Tensor([[10.0, -10.0]]), [0])
    assert math.isclose(float(loss.data), math.log1p(math.exp(-20.0)),
                        rel_tol=1e-6, abs_tol=1e-18)


def test_cross_entropy_uniform():
    # C equal logits -> loss = ln C, independent of the shared value
    loss = T.cross_entropy(Tensor([[7.0, 7.0, 7.0, 7.0]]), [2])
    assert math.isclose(float(loss.data), math.log(4.0), rel_tol=1e-12)


def test_cross_entropy_is_batch_mean():
    logits = np.array([[10.0, -10.0], [7.0, 7.0]])
    loss = T.cross_entropy(Tensor(logits), [0, 1])
    want = 0.5 * (math.log1p(math.exp(-20.0)) + math.log(2.0))
    assert math.isclose(float(loss.data), want, rel_tol=1e-12)


def test_cross_entropy_target_out_of_range():
    with pytest.raises(IndexError):
        T.cross_entropy(Tensor([[1.0, 2.0]]), [2])
    with pytest.raises(ShapeError):
        T.cross_entropy(Tensor([1.0, 2.0]), 0)
    with pytest.raises(ShapeError):
        T.cross_entropy(Tensor([[1.0, 2.0]]), [0, 1])


def test_softmax_rows_sum_to_one(rng):
    x = Tensor(rng.normal(size=(4, 7)))
    y = T.softmax(x, axis=-1)
    np.testing.assert_allclose(y.data.sum(axis=-1), np.ones(4), atol=1e-12)
    assert np.all(y.data > 0)


def test_softmax_extreme_logits_no_overflow():
    y = T.softmax(Tensor([[1000.0, 0.0, -1000.0]]), axis=-1)
    assert np.all(np.isfinite(y.data))
    assert math.isclose(float(y.data[0, 0]), 1.0, abs_tol=1e-12)


def test_mask_value_underflows_to_zero():
    y = T.softmax(Tensor([[0.0, T.MASK_VALUE]]), axis=-1)
    assert y.data[0, 1] == 0.0
    assert y.data[0, 0] == 1.0


def test_gelu_fixed_points():
    y = T.gelu(Tensor([0.0, 1.0, -1.0]))
    # x * Phi(x) against the normal CDF evaluated independently
    phi = lambda v: 0.5 * (1.0 + math.erf(v / math.sqrt(2.0)))
    np.testing.assert_allclose(y.data, [0.0, 1.0 * phi(1.0), -1.0 * phi(-1.0)],
                               atol=1e-12)


@pytest.mark.parametrize("seed", range(3))
def test_gelu_backward_in_place_is_bitwise_the_expression(seed):
    """The in-place backward equals g * (cdf + x * (c * exp(-0.5 * x * x)))
    byte for byte on float64, and keeps float32 inputs float32."""
    r = np.random.default_rng(seed)
    x = r.normal(scale=3.0, size=(4, 5, 6))
    x.flat[:4] = [0.0, -0.0, 40.0, -40.0]
    g = r.normal(size=x.shape)
    _, saved = T.gelu_fwd(x)
    cdf = saved[1]
    want = g * (cdf + x * (T._INV_SQRT2PI * np.exp(-0.5 * x * x)))
    got, = T.gelu_bwd(saved, g)
    assert got.tobytes() == want.tobytes()
    for dtype in (np.float32, np.float64):
        leaf = Tensor(x.astype(dtype), requires_grad=True)
        backward(T.sum_all(T.mul(T.gelu(leaf), Tensor(g.astype(dtype)))))
        assert leaf.grad.dtype == dtype


def test_erf_matches_scipy_oracle():
    grid = np.linspace(-30.0, 30.0, 600_001)
    edges = np.array([0.46875, 4.0, 6.0, 26.0, 1e-300, 5e-324])
    near = np.concatenate([np.nextafter(edges, 0.0), edges, np.nextafter(edges, np.inf)])
    x = np.concatenate([grid, near, -near, [0.0, -0.0, 1e308, -1e308, np.inf, -np.inf]])
    got = T.erf(x)
    assert np.max(np.abs(got - scipy.special.erf(x))) <= 1e-15
    assert np.array_equal(np.signbit(T.erf(np.array([0.0, -0.0]))), [False, True])
    assert np.isnan(T.erf(np.array([np.nan]))[0])
    assert T.erf(np.ones((2, 3))).shape == (2, 3)


def test_tanh_matches_numpy(rng):
    x = rng.normal(size=5)
    np.testing.assert_allclose(T.tanh(Tensor(x)).data, np.tanh(x), atol=1e-15)


# ---------------------------------------------------------------------------
# Structural ops


def test_concat_forward_and_backward():
    a = Tensor(np.ones((1, 3)), requires_grad=True)
    b = Tensor(np.full((1, 3), 2.0), requires_grad=True)
    out = T.concat([a, b], axis=0)
    np.testing.assert_array_equal(out.data, [[1, 1, 1], [2, 2, 2]])
    backward(T.sum_all(out))
    np.testing.assert_array_equal(a.grad, np.ones((1, 3)))
    np.testing.assert_array_equal(b.grad, np.ones((1, 3)))


@pytest.mark.parametrize("axis", [0, -2])
def test_concat_unequal_parts_on_negative_axis(axis):
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    b = Tensor(np.full((1, 3), 2.0), requires_grad=True)
    out = T.concat([a, b], axis=axis)
    np.testing.assert_array_equal(out.data, [[1, 1, 1], [1, 1, 1], [2, 2, 2]])
    backward(T.sum_all(T.mul(out, Tensor(np.arange(9.0).reshape(3, 3)))))
    np.testing.assert_array_equal(a.grad, np.arange(6.0).reshape(2, 3))
    np.testing.assert_array_equal(b.grad, [[6.0, 7.0, 8.0]])


def test_concat_rejects_mismatched_shapes():
    with pytest.raises(ShapeError):
        T.concat([Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4)))], axis=0)
    with pytest.raises(ShapeError):
        T.concat([Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4)))], axis=-2)
    with pytest.raises(ShapeError):
        T.concat([Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3)))], axis=2)
    with pytest.raises(ShapeError):
        T.concat([], axis=0)


def test_narrow_forward():
    x = Tensor(np.arange(12.0).reshape(3, 4))
    np.testing.assert_array_equal(T.narrow(x, 1, 1, 2).data, [[1, 2], [5, 6], [9, 10]])
    with pytest.raises(ShapeError):
        T.narrow(x, 0, 2, 2)


def test_narrow_backward_scatters():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    backward(T.sum_all(T.narrow(x, 1, 1, 1)))
    np.testing.assert_array_equal(x.grad, [[0, 1, 0], [0, 1, 0]])


def test_permute_reshape_flatten_roundtrip(rng):
    x = rng.normal(size=(2, 3, 4))
    t = Tensor(x)
    np.testing.assert_array_equal(T.permute(t, (2, 0, 1)).data, x.transpose(2, 0, 1))
    np.testing.assert_array_equal(T.reshape(t, (6, 4)).data, x.reshape(6, 4))
    np.testing.assert_array_equal(T.flatten(t, keep_axis=0).data, x.reshape(2, 12))
    np.testing.assert_array_equal(
        T.flatten(t, keep_axis=2).data, x.transpose(2, 0, 1).reshape(4, 6))


def test_permute_invalid_axes():
    with pytest.raises(ValueError):
        T.permute(Tensor(np.ones((2, 3))), (0, 0))


# ---------------------------------------------------------------------------
# Adaptive average pooling: hand case plus brute-force oracle


def _pool_oracle_1d(x, m):
    n = x.shape[-1]
    out = np.empty(x.shape[:-1] + (m,))
    for i in range(m):
        lo = (i * n) // m
        hi = math.ceil((i + 1) * n / m)
        out[..., i] = x[..., lo:hi].mean(axis=-1)
    return out


def test_pool_hand():
    out = T.adaptive_avg_pool(Tensor([1.0, 2.0, 3.0, 4.0]), (2,))
    np.testing.assert_array_equal(out.data, [1.5, 3.5])


def test_pool_identity():
    x = np.arange(5.0)
    np.testing.assert_array_equal(T.adaptive_avg_pool(Tensor(x), (5,)).data, x)


def test_pool_upsample_overlapping_bins():
    # n=2 -> m=3: bins [0,1), [0,2), [1,2)
    out = T.adaptive_avg_pool(Tensor([1.0, 3.0]), (3,))
    np.testing.assert_array_equal(out.data, [1.0, 2.0, 3.0])


@pytest.mark.parametrize("n,m", [(7, 32), (32, 7), (1, 4), (4, 1), (40, 13), (13, 40)])
def test_pool_matches_bruteforce(n, m, rng):
    x = rng.normal(size=(3, n))
    out = T.adaptive_avg_pool(Tensor(x), (m,))
    np.testing.assert_allclose(out.data, _pool_oracle_1d(x, m), atol=1e-12)


def test_pool_two_axes_matches_sequential(rng):
    x = rng.normal(size=(2, 6, 5))
    out = T.adaptive_avg_pool(Tensor(x), (3, 8))
    oracle = _pool_oracle_1d(np.moveaxis(_pool_oracle_1d(np.moveaxis(x, 1, -1), 3),
                                         -1, 1), 8)
    np.testing.assert_allclose(out.data, oracle, atol=1e-12)


def test_pool_rejects_bad_target():
    with pytest.raises(ValueError):
        T.adaptive_avg_pool(Tensor(np.ones(4)), (0,))
    with pytest.raises(ShapeError):
        T.adaptive_avg_pool(Tensor(np.ones(4)), (2, 2))


def test_pool_preserves_mean_when_divisible(rng):
    # when n % m == 0 every input contributes once with equal weight
    x = rng.normal(size=12)
    out = T.adaptive_avg_pool(Tensor(x), (4,))
    assert math.isclose(float(out.data.mean()), float(x.mean()), rel_tol=1e-12)


# ---------------------------------------------------------------------------
# Gradient checks for every differentiable op (20 seeds where cheap)


@pytest.mark.parametrize("seed", range(20))
def test_grad_elementwise_and_linear(seed):
    r = np.random.default_rng(seed)
    a = Tensor(r.normal(size=(3, 4)))
    b = r.normal(size=(3, 4))
    proj = r.normal(size=(3, 4))
    w = r.normal(size=(4, 2))
    pj2 = r.normal(size=(3, 2))

    make = scalarize(lambda x: T.add(x, Tensor(b)))(proj)
    assert grad_check(make, a) < GRAD_TOL
    make = scalarize(lambda x: T.mul(x, Tensor(b)))(proj)
    assert grad_check(make, a) < GRAD_TOL
    make = scalarize(lambda x: T.matmul(x, Tensor(w)))(pj2)
    assert grad_check(make, a) < GRAD_TOL


def test_grad_sum_of_squares_is_2x(rng):
    x = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    backward(T.sum_all(T.mul(x, x)))
    np.testing.assert_allclose(x.grad, 2.0 * x.data, atol=1e-12)


def test_grad_matmul_bias_broadcast(rng):
    # grad of sum(A@B + bias) w.r.t. A equals row-broadcast column sums of B
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = rng.normal(size=(4, 5))
    backward(T.sum_all(T.matmul(a, Tensor(b))))
    np.testing.assert_allclose(a.grad, np.tile(b.sum(axis=1), (3, 1)), atol=1e-12)


@pytest.mark.parametrize("seed", range(20))
def test_grad_nonlinearities(seed):
    r = np.random.default_rng(100 + seed)
    x = Tensor(r.normal(size=(2, 5)))
    proj = r.normal(size=(2, 5))
    for op in (T.tanh, T.gelu, lambda t: T.softmax(t, axis=-1)):
        f = scalarize(op)(proj)
        assert grad_check(f, x) < GRAD_TOL


@pytest.mark.parametrize("seed", range(20))
def test_grad_layer_norm_all_inputs(seed):
    r = np.random.default_rng(200 + seed)
    x = r.normal(size=(2, 6))
    gamma = r.normal(size=6) + 1.0
    beta = r.normal(size=6)
    proj = r.normal(size=(2, 6))

    f_x = scalarize(lambda t: T.layer_norm(t, Tensor(gamma), Tensor(beta)))(proj)
    assert grad_check(f_x, Tensor(x)) < GRAD_TOL
    f_g = scalarize(lambda t: T.layer_norm(Tensor(x), t, Tensor(beta)))(proj)
    assert grad_check(f_g, Tensor(gamma)) < GRAD_TOL
    f_b = scalarize(lambda t: T.layer_norm(Tensor(x), Tensor(gamma), t))(proj)
    assert grad_check(f_b, Tensor(beta)) < GRAD_TOL


@pytest.mark.parametrize("seed", range(20))
def test_grad_structural_ops(seed):
    r = np.random.default_rng(300 + seed)
    x = Tensor(r.normal(size=(3, 4)))
    f = scalarize(lambda t: T.narrow(t, 1, 1, 2))(r.normal(size=(3, 2)))
    assert grad_check(f, x) < GRAD_TOL
    f = scalarize(lambda t: T.permute(t, (1, 0)))(r.normal(size=(4, 3)))
    assert grad_check(f, x) < GRAD_TOL
    f = scalarize(lambda t: T.reshape(t, (2, 6)))(r.normal(size=(2, 6)))
    assert grad_check(f, x) < GRAD_TOL
    other = Tensor(r.normal(size=(3, 4)))
    f = scalarize(lambda t: T.concat([t, other], axis=0))(r.normal(size=(6, 4)))
    assert grad_check(f, x) < GRAD_TOL
    f = scalarize(lambda t: T.stack([t, other]))(r.normal(size=(2, 3, 4)))
    assert grad_check(f, x) < GRAD_TOL
    f = scalarize(lambda t: T.adaptive_avg_pool(t, (5,)))(r.normal(size=(3, 5)))
    assert grad_check(f, x) < GRAD_TOL
    base = Tensor(r.normal(size=(3, 4)))
    w = Tensor(r.normal(size=(4, 4)))
    f = scalarize(lambda t: T.linear(base, w, t))(r.normal(size=(3, 4)))
    assert grad_check(f, Tensor(r.normal(size=4))) < GRAD_TOL


@pytest.mark.parametrize("seed", range(20))
def test_grad_composed_ce_matmul(seed):
    r = np.random.default_rng(400 + seed)
    w = r.normal(size=(4, 4))
    f = lambda x: T.cross_entropy(T.matmul(x, Tensor(w)), [2, 0, 3])
    assert grad_check(f, Tensor(r.normal(size=(3, 4)))) < GRAD_TOL


def test_grad_embedding_repeated_id_accumulates():
    table = Tensor(np.zeros((3, 2)), requires_grad=True)
    backward(T.sum_all(T.embedding_lookup(table, [[1, 1], [2, 1]])))
    np.testing.assert_array_equal(table.grad, [[0, 0], [3, 3], [1, 1]])


# ---------------------------------------------------------------------------
# Batched ops: a leading batch axis of B > 1


@pytest.mark.parametrize("seed", range(5))
def test_grad_batched_matmul_and_linear(seed):
    r = np.random.default_rng(700 + seed)
    x = Tensor(r.normal(size=(3, 2, 4)))
    w = Tensor(r.normal(size=(4, 5)))
    b = Tensor(r.normal(size=5))
    proj = r.normal(size=(3, 2, 5))
    assert grad_check(scalarize(lambda t: T.matmul(t, w))(proj), x) < GRAD_TOL
    assert grad_check(scalarize(lambda t: T.matmul(x, t))(proj), w) < GRAD_TOL
    assert grad_check(scalarize(lambda t: T.linear(t, w, b))(proj), x) < GRAD_TOL
    assert grad_check(scalarize(lambda t: T.linear(x, t, b))(proj), w) < GRAD_TOL
    assert grad_check(scalarize(lambda t: T.linear(x, w, t))(proj), b) < GRAD_TOL


def test_batched_matmul_and_linear_equal_per_item(rng):
    x = rng.normal(size=(3, 2, 4))
    w, b = rng.normal(size=(4, 5)), rng.normal(size=5)
    out = T.linear(Tensor(x), Tensor(w), Tensor(b)).data
    for i in range(3):
        np.testing.assert_allclose(out[i], x[i] @ w + b, atol=1e-12)
    np.testing.assert_allclose(T.matmul(Tensor(x), Tensor(w)).data, x @ w, atol=1e-12)


def test_linear_rejects_bad_shapes():
    x, w = Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4)))
    with pytest.raises(ShapeError):
        T.linear(x, w, Tensor(np.ones(3)))
    with pytest.raises(ShapeError):
        T.linear(x, w, Tensor(np.ones((1, 4))))
    with pytest.raises(ShapeError):
        T.linear(Tensor(np.ones(3)), w, Tensor(np.ones(4)))
    with pytest.raises(ShapeError):
        T.matmul(Tensor(np.ones((2, 2, 3))), Tensor(np.ones((2, 3, 4))))


@pytest.mark.parametrize("seed", range(5))
def test_grad_batched_layer_norm(seed):
    r = np.random.default_rng(800 + seed)
    x = r.normal(size=(3, 2, 6))
    gamma, beta = r.normal(size=6) + 1.0, r.normal(size=6)
    proj = r.normal(size=(3, 2, 6))
    f = scalarize(lambda t: T.layer_norm(t, Tensor(gamma), Tensor(beta)))(proj)
    assert grad_check(f, Tensor(x)) < GRAD_TOL
    f = scalarize(lambda t: T.layer_norm(Tensor(x), t, Tensor(beta)))(proj)
    assert grad_check(f, Tensor(gamma)) < GRAD_TOL
    f = scalarize(lambda t: T.layer_norm(Tensor(x), Tensor(gamma), t))(proj)
    assert grad_check(f, Tensor(beta)) < GRAD_TOL


@pytest.mark.parametrize("seed", range(5))
def test_grad_batched_embedding_lookup(seed):
    r = np.random.default_rng(900 + seed)
    ids = np.array([[0, 2, 2], [1, 2, 0]])
    f = scalarize(lambda t: T.embedding_lookup(t, ids))(r.normal(size=(2, 3, 4)))
    assert grad_check(f, Tensor(r.normal(size=(3, 4)))) < GRAD_TOL


@pytest.mark.parametrize("seed", range(5))
def test_grad_batched_cross_entropy(seed):
    r = np.random.default_rng(1000 + seed)
    f = lambda t: T.cross_entropy(t, [1, 0, 4, 1])
    assert grad_check(f, Tensor(r.normal(size=(4, 5)))) < GRAD_TOL


def test_stack_adds_leading_axis_and_checks_shapes(rng):
    parts = [Tensor(rng.normal(size=(2, 3)), requires_grad=True) for _ in range(3)]
    out = T.stack(parts)
    np.testing.assert_array_equal(out.data, np.stack([p.data for p in parts]))
    backward(T.sum_all(T.mul(out, Tensor(np.arange(18.0).reshape(3, 2, 3)))))
    np.testing.assert_array_equal(parts[2].grad, np.arange(12.0, 18.0).reshape(2, 3))
    with pytest.raises(ShapeError):
        T.stack([Tensor(np.ones(2)), Tensor(np.ones(3))])
    with pytest.raises(ShapeError):
        T.stack([])


def test_embedding_rejects_out_of_range():
    with pytest.raises(IndexError):
        T.embedding_lookup(Tensor(np.zeros((3, 2))), [0, 3])


ADD_ROWS_IDS = [[0, 1, 2, 3, 4], [3, 0, 4, 1], [0, 0, 0, 1, 1], [1, 0, 1, 2]]


@pytest.mark.parametrize("batch", [1, 4])
@pytest.mark.parametrize("ids", ADD_ROWS_IDS)
def test_add_rows_is_bitwise_the_broadcast_lookup_oracle(ids, batch):
    """Output, x.grad and table.grad carry the bits of adding a lookup of the
    batch-broadcast ids, whose table gradient is np.add.at's; an upstream
    column of -0.0 keeps its signs too."""
    r = np.random.default_rng(len(ids) * 10 + batch)
    rows, width = len(ids), 6
    x, table = r.normal(size=(batch, rows, width)), r.normal(size=(5, width))
    proj = r.normal(size=(batch, rows, width)) * 1e3
    proj[..., 0] = -0.0

    def run(op):
        xt, tt = Tensor(x, requires_grad=True), Tensor(table, requires_grad=True)
        out = op(xt, tt)
        backward(T.sum_all(T.mul(out, Tensor(proj))))
        return [a.tobytes() for a in (out.data, xt.grad, tt.grad)]

    oracle = run(lambda xt, tt: T.add(
        xt, T.embedding_lookup(tt, np.broadcast_to(ids, (batch, rows)))))
    assert run(lambda xt, tt: T.add_rows(xt, tt, ids)) == oracle


@pytest.mark.parametrize("ids", ADD_ROWS_IDS)
def test_grad_add_rows(ids):
    r = np.random.default_rng(sum(ids))
    x, table = r.normal(size=(3, len(ids), 4)), r.normal(size=(5, 4))
    proj = r.normal(size=(3, len(ids), 4))
    f = scalarize(lambda t: T.add_rows(t, Tensor(table), ids))(proj)
    assert grad_check(f, Tensor(x)) < GRAD_TOL
    f = scalarize(lambda t: T.add_rows(Tensor(x), t, ids))(proj)
    assert grad_check(f, Tensor(table)) < GRAD_TOL


def test_add_rows_rejects_bad_shapes_and_ids():
    x, table = Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((5, 4)))
    for bad_x, bad_table, ids in [
        (x, table, [0, 1]),                                # ids shorter than the rows
        (x, table, [[0, 1, 2]]),                           # ids not one list
        (x, Tensor(np.zeros((5, 3))), [0, 1, 2]),          # widths disagree
        (Tensor(np.zeros((3, 4))), table, [0, 1, 2]),      # no batch axis
    ]:
        with pytest.raises(ShapeError):
            T.add_rows(bad_x, bad_table, ids)
    for ids in ([0, 1, 5], [0, -1, 2]):
        with pytest.raises(IndexError):
            T.add_rows(x, table, ids)


@pytest.mark.parametrize("seed", range(5))
def test_grad_multi_head_attention(seed):
    r = np.random.default_rng(500 + seed)
    B, S, H, d = 2, 4, 2, 3
    # per-item key bias; key 2 is padded in every item, key 3 only in item 1
    bias = np.array([[0.0, 0.0, T.MASK_VALUE, 0.0],
                     [0.0, 0.0, T.MASK_VALUE, T.MASK_VALUE]])
    mats = [r.normal(size=(B, S, H * d)) for _ in range(3)]
    proj = r.normal(size=(B, S, H * d))
    for arg in range(3):
        def f(x, arg=arg):
            ops = [Tensor(m) for m in mats]
            ops[arg] = x
            out = T.multi_head_attention(*ops, bias, H)
            return T.sum_all(T.mul(out, Tensor(proj)))
        assert grad_check(f, Tensor(mats[arg])) < GRAD_TOL


def test_multi_head_attention_equals_per_head_loop(rng):
    """Oracle: the fused op equals attention assembled from primitive ops,
    one item and one head at a time."""
    B, S, H, d = 2, 5, 3, 2
    q, k, v = (rng.normal(size=(B, S, H * d)) for _ in range(3))
    mask = np.array([[1.0, 1.0, 0.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0, 0.0]])
    bias = np.where(mask > 0, 0.0, T.MASK_VALUE)
    fused = T.multi_head_attention(Tensor(q), Tensor(k), Tensor(v), bias, H)
    for i in range(B):
        heads = []
        for h in range(H):
            qh = T.narrow(Tensor(q[i]), 1, h * d, d)
            kh = T.narrow(Tensor(k[i]), 1, h * d, d)
            vh = T.narrow(Tensor(v[i]), 1, h * d, d)
            scores = T.scale(T.matmul(qh, T.permute(kh, (1, 0))), 1.0 / math.sqrt(d))
            w = T.softmax(T.add(scores, Tensor(np.tile(bias[i], (S, 1)))), axis=-1)
            heads.append(T.matmul(w, vh))
        oracle = T.concat(heads, axis=1)
        np.testing.assert_allclose(fused.data[i], oracle.data, atol=1e-12)


def test_multi_head_attention_masked_weights_exactly_zero(rng):
    B, S, H = 2, 6, 2
    q, k, v = (Tensor(rng.normal(size=(B, S, 8))) for _ in range(3))
    bias = np.zeros((B, S))
    bias[:, 1] = bias[0, 4] = T.MASK_VALUE
    sink = []
    T.multi_head_attention(q, k, v, bias, H, weights_sink=sink)
    w = sink[0]
    assert w.shape == (B, H, S, S)
    assert np.all(w[:, :, :, 1] == 0.0) and np.all(w[0, :, :, 4] == 0.0)
    assert np.all(w[1, :, :, 4] > 0.0)
    np.testing.assert_allclose(w.sum(axis=-1), np.ones((B, H, S)), atol=1e-12)


def test_multi_head_attention_rejects_bad_shapes(rng):
    q = Tensor(rng.normal(size=(2, 3, 4)))
    with pytest.raises(ShapeError):
        T.multi_head_attention(q, q, q, np.zeros(3), 2)
    with pytest.raises(ShapeError):
        T.multi_head_attention(Tensor(np.ones((3, 4))), Tensor(np.ones((3, 4))),
                               Tensor(np.ones((3, 4))), np.zeros(3), 2)
    kv = Tensor(rng.normal(size=(2, 6, 4)))
    for bad_q in ((3, 1, 4), (2, 1, 6)):              # batch, then width mismatch
        with pytest.raises(ShapeError):
            T.multi_head_attention(Tensor(np.ones(bad_q)), kv, kv, np.zeros((2, 6)), 2)
    with pytest.raises(ShapeError):                   # k and v disagree
        T.multi_head_attention(q, kv, Tensor(np.ones((2, 5, 4))), np.zeros((2, 6)), 2)


def _attention_case(seed, n):
    """n query rows over 6 keys: key 4 is padded in every item, key 2 in item 1."""
    r = np.random.default_rng(600 + seed)
    B, S, H, d = 2, 6, 2, 3
    bias = np.zeros((B, S))
    bias[:, 4] = bias[1, 2] = T.MASK_VALUE
    mats = [r.normal(size=(B, rows, H * d)) for rows in (n, S, S)]
    return mats, bias, H, r.normal(size=(B, n, H * d))


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("seed", range(2))
def test_grad_multi_head_attention_fewer_query_rows(seed, n):
    mats, bias, H, proj = _attention_case(seed, n)
    for arg in range(3):
        def f(x, arg=arg):
            ops = [Tensor(m) for m in mats]
            ops[arg] = x
            out = T.multi_head_attention(*ops, bias, H)
            return T.sum_all(T.mul(out, Tensor(proj)))
        assert grad_check(f, Tensor(mats[arg])) < GRAD_TOL


@pytest.mark.parametrize("n", [1, 3])
def test_multi_head_attention_fewer_query_rows_equal_leading_rows(n):
    """Oracle: n query rows give the first n rows of the output and of the
    weights of full self-attention, whose queries are those rows and more."""
    (q, k, v), bias, H, _ = _attention_case(0, n)
    full_q = np.concatenate([q, k[:, n:]], axis=1)
    full_sink, sink = [], []
    full = T.multi_head_attention(Tensor(full_q), Tensor(k), Tensor(v), bias, H,
                                  weights_sink=full_sink)
    out = T.multi_head_attention(Tensor(q), Tensor(k), Tensor(v), bias, H, weights_sink=sink)
    assert out.shape == (2, n, 6) and sink[0].shape == (2, H, n, 6)
    np.testing.assert_allclose(out.data, full.data[:, :n], rtol=0, atol=1e-12)
    np.testing.assert_allclose(sink[0], full_sink[0][:, :, :n], rtol=0, atol=1e-12)
    assert np.all(sink[0][:, :, :, 4] == 0.0) and np.all(sink[0][1, :, :, 2] == 0.0)


# ---------------------------------------------------------------------------
# drop path: a residual branch scaled by its item's entry of a mask column


def _tanh_residual(x, keep=None):
    return T.residual(x, [(T.tanh_fwd, T.tanh_bwd, [])], keep)


def test_drop_path_eval_is_identity(rng):
    """Without a column the branch passes unscaled, and a rate-0 column
    keeps every item at 1.0."""
    x = rng.normal(size=(2, 3))
    out, mask = T.drop_path_fwd(x, None)
    assert out is x and mask is None
    assert _tanh_residual(Tensor(x)).data.tobytes() == (x + np.tanh(x)).tobytes()
    np.testing.assert_array_equal(keep_table(3, 0, [1, 2], [0.0]), [[1.0], [1.0]])


def test_drop_path_rejects_bad_rate_and_mask_shape():
    for rate in (1.0, -0.1, float("nan")):
        with pytest.raises(ValueError):
            keep_table(0, 0, [1], [0.5, rate])
    for keep in (np.ones(3), np.ones((2, 1))):
        with pytest.raises(ShapeError):
            _tanh_residual(Tensor(np.ones((2, 1))), keep)


def test_drop_path_preserves_expectation():
    n = 100_000
    out, _ = T.drop_path_fwd(np.ones((n, 1)), keep_table(7, 0, np.arange(n), [0.3])[:, 0])
    assert abs(out.mean() - 1.0) < 0.01


def test_drop_path_outputs_are_zero_or_rescaled():
    out, _ = T.drop_path_fwd(np.ones((200, 1)), keep_table(11, 0, np.arange(200), [0.25])[:, 0])
    assert set(out.ravel().tolist()) == {0.0, 1.0 / 0.75}


def test_drop_path_mask_is_per_item_in_column_order(rng):
    """Item i's whole branch is scaled by keep[i]: a dropped item is its
    input exactly."""
    x = rng.normal(size=(4, 3, 2))
    keep = np.array([2.0, 0.0, 0.0, 2.0])
    out = _tanh_residual(Tensor(x), keep).data
    for i in range(4):
        np.testing.assert_array_equal(out[i], x[i] + np.tanh(x[i]) * keep[i])
    np.testing.assert_array_equal(out[1:3], x[1:3])


@pytest.mark.parametrize("seed", range(5))
def test_grad_batched_drop_path(seed):
    """The masked residual node, in its input and its step's parameters."""
    r = np.random.default_rng(1100 + seed)
    proj = r.normal(size=(4, 2, 3))
    w, b = Tensor(r.normal(size=(3, 3))), Tensor(r.normal(size=3))
    keep = np.roll([1 / 0.6, 0.0, 1 / 0.6, 1 / 0.6], seed)

    def f(t):
        out = T.residual(t, [(T.linear_fwd, T.linear_bwd, [w, b])], keep)
        return T.sum_all(T.mul(out, Tensor(proj)))

    assert grad_check(f, Tensor(r.normal(size=(4, 2, 3)))) < GRAD_TOL


# ---------------------------------------------------------------------------
# Graph lifecycle


def test_backward_twice_is_usage_error(rng):
    x = Tensor(rng.normal(size=3), requires_grad=True)
    loss = T.sum_all(T.mul(x, x))
    backward(loss)
    with pytest.raises(UsageError):
        backward(loss)


def test_backward_requires_scalar(rng):
    with pytest.raises(ValueError):
        backward(T.scale(Tensor(rng.normal(size=3), requires_grad=True), 2.0))


def test_grad_accumulates_across_backward_calls(rng):
    x = Tensor(rng.normal(size=3), requires_grad=True)
    backward(T.sum_all(T.mul(x, x)))
    first = x.grad.copy()
    backward(T.sum_all(T.mul(x, x)))
    np.testing.assert_allclose(x.grad, 2.0 * first, atol=1e-12)


def test_diamond_graph_accumulates_once_per_path(rng):
    x = Tensor(np.array([3.0]), requires_grad=True)
    y = T.add(x, x)                     # dy/dx = 2
    backward(T.sum_all(T.mul(y, y)))    # d(4x^2)/dx = 8x
    np.testing.assert_allclose(x.grad, [24.0], atol=1e-12)


def test_leaf_grads_accumulate_exactly_and_never_alias(rng):
    """A leaf owns its gradient buffer: `add` hands the same upstream array to
    both parents, and later backward calls add into the buffer in place."""
    w1, w2 = Tensor(rng.normal(size=(2, 3))), Tensor(rng.normal(size=(2, 3)))
    x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    backward(T.sum_all(T.mul(T.add(x, x), w1)))
    np.testing.assert_array_equal(x.grad, w1.data + w1.data)

    a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    backward(T.sum_all(T.mul(T.add(a, b), w1)))
    assert not np.shares_memory(a.grad, b.grad)
    np.testing.assert_array_equal(a.grad, w1.data)
    np.testing.assert_array_equal(b.grad, w1.data)
    # a second backward without zeroing: a accumulates, b is left alone
    buffer = a.grad
    backward(T.sum_all(T.mul(a, w2)))
    assert a.grad is buffer
    np.testing.assert_array_equal(a.grad, w1.data + w2.data)
    np.testing.assert_array_equal(b.grad, w1.data)


def test_backward_node_visit_counter_increases(rng):
    before = T.backward_node_visits()
    x = Tensor(rng.normal(size=3), requires_grad=True)
    backward(T.sum_all(T.mul(x, x)))
    assert T.backward_node_visits() > before


def _every_op(dtype):
    """One call of each differentiable op on `dtype` inputs that require grad."""
    r = np.random.default_rng(77)

    def leaf(*shape):
        return Tensor(r.normal(size=shape).astype(dtype), requires_grad=True)

    x, y, w, b = leaf(2, 3, 4), leaf(2, 3, 4), leaf(4, 5), leaf(5)
    q, kv, table = leaf(2, 1, 4), leaf(2, 3, 4), leaf(5, 4)
    gamma, beta, logits = leaf(4), leaf(4), leaf(2, 5)
    bias = np.array([[0.0, 0.0, T.MASK_VALUE], [0.0, 0.0, 0.0]])
    return {
        "add": lambda: T.add(x, y), "sub": lambda: T.sub(x, y), "mul": lambda: T.mul(x, y),
        "scale": lambda: T.scale(x, 0.3), "matmul": lambda: T.matmul(x, w),
        "linear": lambda: T.linear(x, w, b), "sum_all": lambda: T.sum_all(x),
        "stack": lambda: T.stack([x, y]), "concat": lambda: T.concat([x, y], axis=1),
        "narrow": lambda: T.narrow(x, 2, 1, 2), "permute": lambda: T.permute(x, (2, 0, 1)),
        "reshape": lambda: T.reshape(x, (6, 4)), "flatten": lambda: T.flatten(x, keep_axis=1),
        "adaptive_avg_pool": lambda: T.adaptive_avg_pool(x, (2, 3)),
        "tanh": lambda: T.tanh(x), "gelu": lambda: T.gelu(x), "softmax": lambda: T.softmax(x),
        "layer_norm": lambda: T.layer_norm(x, gamma, beta),
        "multi_head_attention": lambda: T.multi_head_attention(q, kv, kv, bias, 2),
        "embedding_lookup": lambda: T.embedding_lookup(table, [[0, 4], [2, 2]]),
        "add_rows": lambda: T.add_rows(x, table, [1, 0, 1]),
        "cross_entropy": lambda: T.cross_entropy(logits, [1, 4]),
        "residual": lambda: T.residual(x, [(T.gelu_fwd, T.gelu_bwd, [])], np.array([2.0, 0.0])),
    }


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_op_outputs_are_arrays_of_the_input_dtype(dtype):
    """Op outputs skip Tensor.__init__'s coercion, so every op must already
    hand back a plain array of its inputs' float dtype; and a backward
    through it hands each leaf a gradient of that dtype."""
    for name, op in _every_op(dtype).items():
        out = op()
        assert type(out.data) is np.ndarray and out.data.dtype == dtype, name
        assert out.requires_grad and out._backward_fn is not None and out._parents, name
        assert out.grad is None and out._g is None and not out._backward_done, name
        leaves, stack = {}, [out]
        while stack:
            for p in stack.pop()._parents:
                if p.requires_grad and p._parents:
                    stack.append(p)
                elif p.requires_grad:
                    leaves[id(p)] = p
        leaves = list(leaves.values())
        for leaf in leaves:
            leaf.grad = None
        backward(out if out.data.size == 1 else T.sum_all(out))
        for leaf in leaves:
            assert type(leaf.grad) is np.ndarray and leaf.grad.dtype == dtype, name


def test_no_grad_records_nothing(rng):
    x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    with T.no_grad():
        y = T.sum_all(T.mul(x, x))
        outs = {(name, dtype): op() for dtype in (np.float64, np.float32)
                for name, op in _every_op(dtype).items()}
    for (name, dtype), out in [(("sum_all", np.float64), y)] + list(outs.items()):
        assert not out.requires_grad and out._parents == () and out._backward_fn is None, name
        assert type(out.data) is np.ndarray and out.data.dtype == dtype, name
    assert float(y.data) == pytest.approx(float((x.data ** 2).sum()))
    # recording resumes after the block, also when the block raised
    with pytest.raises(RuntimeError):
        with T.no_grad():
            raise RuntimeError
    z = T.sum_all(T.mul(x, x))
    backward(z)
    np.testing.assert_allclose(x.grad, 2.0 * x.data, atol=1e-12)


# ---------------------------------------------------------------------------
# The backward walk against its oracle


def _reference_backward(loss: Tensor) -> int:
    """The id()-keyed walk the slot-based `backward` replaced: pending
    gradients in a dict, visits in a set.  Returns the nodes it visited."""
    if loss._backward_done:
        raise UsageError("backward: already called on this loss; run a new forward pass")
    topo, visited, stack = [], set(), [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))
    grads = {id(loss): np.ones_like(loss.data)}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._backward_fn is not None:
            for p, pg in zip(node._parents, node._backward_fn(g)):
                if not p.requires_grad or pg is None:
                    continue
                acc = grads.get(id(p))
                grads[id(p)] = pg if acc is None else acc + pg
            node._backward_fn = None
            node._parents = ()
        elif node.grad is None:
            node.grad = g.copy()
        else:
            node.grad += g
    loss._backward_done = True
    return len(topo)


def _assert_walks_agree(build):
    """`build()` returns (loss, leaves) of a fresh graph; `backward` must leave
    every leaf gradient byte for byte where the reference walk does, and
    count as many node visits."""
    loss, leaves = build()
    before = T.backward_node_visits()
    backward(loss)
    visits = T.backward_node_visits() - before
    ref_loss, ref_leaves = build()
    assert visits == _reference_backward(ref_loss)
    for i, (leaf, ref) in enumerate(zip(leaves, ref_leaves)):
        if ref.grad is None:
            assert leaf.grad is None, i
        else:
            assert leaf.grad.dtype == ref.grad.dtype and leaf.grad.tobytes() == ref.grad.tobytes(), i
        assert leaf._g is None, i


def _random_dag(seed: int):
    """A seeded DAG of add, mul, concat, narrow, linear and drop path over
    (2, 3) values, drawing operands from every node so far (shared
    intermediates and diamonds).  Leaves mix requires_grad on and off, and
    one starts with a preset gradient."""
    r = np.random.default_rng(seed)
    leaves = [Tensor(r.normal(size=(2, 3)), requires_grad=bool(i % 3)) for i in range(5)]
    leaves[1].grad = r.normal(size=(2, 3))
    w, b = Tensor(r.normal(size=(3, 3)), requires_grad=True), Tensor(r.normal(size=3))
    nodes = list(leaves)
    for step in range(40):
        a, c = (nodes[i] for i in r.integers(0, len(nodes), size=2))
        kind = r.integers(0, 6)
        if kind == 0:
            out = T.add(a, c)
        elif kind == 1:
            out = T.mul(a, c)
        elif kind == 2:
            out = T.narrow(T.concat([a, c, a], axis=1), 1, int(r.integers(0, 7)), 3)
        elif kind == 3:
            out = T.linear(a, w, b)
        elif kind == 4:
            out = _tanh_residual(a, 2.0 * (r.random(2) < 0.5))
        else:
            out = T.scale(a, 0.5)
        nodes.append(out)
    proj = Tensor(r.normal(size=(2, 3)))
    total = nodes[-1]
    for node in nodes[-15:-1]:
        total = T.add(total, node)
    return T.sum_all(T.mul(total, proj)), leaves + [w, b]


@pytest.mark.parametrize("seed", range(8))
def test_backward_is_bitwise_the_reference_walk_on_random_dags(seed):
    _assert_walks_agree(lambda: _random_dag(seed))


def test_backward_is_bitwise_the_reference_walk_on_small_graphs():
    r = np.random.default_rng(5)
    x0, g0 = r.normal(size=(2, 3)), r.normal(size=(2, 3))

    def square():                        # mul(a, a): one parent twice
        a = Tensor(x0, requires_grad=True)
        return T.sum_all(T.mul(a, a)), [a]

    def preset_and_unset():              # a preset grad accumulates; None is set
        a, c = Tensor(x0, requires_grad=True), Tensor(g0, requires_grad=True)
        a.grad = g0.copy()
        return T.sum_all(T.mul(T.add(a, c), T.mul(a, c))), [a, c]

    def dropped():
        a = Tensor(x0, requires_grad=True)
        out = _tanh_residual(T.mul(a, a), np.array([2.0, 0.0]))
        return T.sum_all(T.add(out, a)), [a]

    for build in (square, preset_and_unset, dropped):
        _assert_walks_agree(build)


def test_backward_walks_a_20000_node_chain():
    """The walk is iterative: a chain far deeper than the recursion limit,
    two nodes per step."""
    r = np.random.default_rng(6)
    x0, steps = r.normal(size=4), r.normal(size=(10_000, 4)) * 1e-3

    def chain():
        a = Tensor(x0, requires_grad=True)
        t = a
        for s in steps:
            t = T.add(T.scale(t, 0.999), Tensor(s))
        return T.sum_all(T.mul(t, a)), [a]

    _assert_walks_agree(chain)


def test_failed_backward_leaves_no_pending_gradient(rng):
    """A backward closure that raises leaves pending gradients on the nodes;
    the next walk that reaches them starts from zero."""
    a = Tensor(rng.normal(size=3), requires_grad=True)
    shared = T.mul(a, a)

    def boom(g):
        raise RuntimeError("backward closure failed")

    broken = T._node(shared.data * 2.0, (shared, a), boom)
    with pytest.raises(RuntimeError):
        backward(T.sum_all(T.add(broken, shared)))
    loss = T.sum_all(shared)
    backward(loss)
    np.testing.assert_array_equal(a.grad, 2.0 * a.data)


def test_detach_stops_gradient(rng):
    x = Tensor(rng.normal(size=3), requires_grad=True)
    d = T.mul(x, x).detach()
    assert not d.requires_grad
    out = T.sum_all(T.mul(d, d))
    assert not out.requires_grad


def test_non_float_input_promoted_to_float64():
    t = Tensor([1, 2, 3])
    assert t.data.dtype == np.float64


# ---------------------------------------------------------------------------
# Hypothesis properties


@given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=30))
def test_pool_full_collapse_is_mean(xs):
    out = T.adaptive_avg_pool(Tensor(xs), (1,))
    np.testing.assert_allclose(out.data, [np.mean(xs)], rtol=1e-9, atol=1e-9)


@given(st.integers(1, 40), st.integers(1, 40), st.integers(0, 100))
@settings(max_examples=60, deadline=None)
def test_pool_bruteforce_property(n, m, seed):
    x = np.random.default_rng(seed).normal(size=n)
    out = T.adaptive_avg_pool(Tensor(x), (m,))
    np.testing.assert_allclose(out.data, _pool_oracle_1d(x, m), atol=1e-10)


@given(st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_softmax_shift_invariance(seed):
    x = np.random.default_rng(seed).normal(size=(2, 6))
    a = T.softmax(Tensor(x), axis=-1).data
    b = T.softmax(Tensor(x + 17.0), axis=-1).data
    np.testing.assert_allclose(a, b, atol=1e-12)

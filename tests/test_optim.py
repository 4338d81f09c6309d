"""AdamW and schedule tests: hand-evaluated single steps, an independent
20-step scalar reference trace, decay exemption, and schedule anchors."""
import math

import numpy as np
import pytest

from vivqa.optim import AdamW, ScheduleConfig, lr_at, pack
from vivqa.tensor import Tensor


def packed_adamw(params, n_decay=None, **kwargs):
    """AdamW over loose tensors, packed into their arenas as the model packs
    its own: the first `n_decay` elements (all by default) are decayed."""
    data, grad = pack(params)
    return AdamW(params, data, grad, data.size if n_decay is None else n_decay, **kwargs)


def reference_adamw_trace(p0, grads, lr, b1, b2, eps, wd, decay):
    """Straight-line scalar AdamW oracle, written independently of the
    vectorized implementation."""
    p, m, v = p0, 0.0, 0.0
    trace = []
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        p = p - lr * mhat / (math.sqrt(vhat) + eps)
        if decay:
            p = p - lr * wd * p
        trace.append(p)
    return trace


def test_decoupled_decay_only():
    # zero gradient, as packed: only the decay term moves the parameter
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = packed_adamw({"w": p}, weight_decay=0.01)
    opt.step(3e-5)
    assert math.isclose(float(p.data[0]), 1.0 - 3e-7, rel_tol=1e-12)


def test_first_step_bias_corrected():
    p = Tensor(np.array([0.0]), requires_grad=True)
    opt = packed_adamw({"w": p}, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0)
    p.grad[0] = 1.0
    opt.step(0.1)
    assert math.isclose(float(p.data[0]), -0.0999999990, abs_tol=1e-9)


@pytest.mark.parametrize("decay", [True, False])
def test_twenty_step_scalar_trace(decay):
    rng = np.random.default_rng(42)
    grads = rng.normal(size=20)
    lr, wd = 1e-2, 0.05
    p = Tensor(np.array([0.7]), requires_grad=True)
    opt = packed_adamw({"w": p}, n_decay=int(decay), betas=(0.9, 0.999), eps=1e-8,
                       weight_decay=wd)
    got = []
    for g in grads:
        p.grad[0] = g
        opt.step(lr)
        got.append(float(p.data[0]))
    want = reference_adamw_trace(0.7, grads, lr, 0.9, 0.999, 1e-8, wd, decay)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_exempt_param_skips_decay_but_not_adam():
    a = Tensor(np.array([1.0]), requires_grad=True)
    b = Tensor(np.array([1.0]), requires_grad=True)
    opt = packed_adamw({"w.weight": a, "w.bias": b}, n_decay=1, weight_decay=0.1)
    opt.step(0.1)
    assert float(a.data[0]) == pytest.approx(1.0 - 0.1 * 0.1 * 1.0)
    assert float(b.data[0]) == 1.0


def test_negative_lr_rejected():
    opt = packed_adamw({"w": Tensor(np.zeros(1), requires_grad=True)})
    with pytest.raises(ValueError):
        opt.step(-1e-3)


def test_zero_grad_clears():
    """zero_grad zeroes the grad arena in place: every view stays bound."""
    p = Tensor(np.zeros(2), requires_grad=True)
    q = Tensor(np.zeros((2, 3)), requires_grad=True)
    opt = packed_adamw({"w": p, "u": q})
    views = [p.grad, q.grad]
    p.grad += 2.0
    q.grad += 1.0
    opt.zero_grad()
    assert np.array_equal(opt.grad, np.zeros(8))
    assert p.grad is views[0] and q.grad is views[1]


def test_pack_binds_views_in_order_and_adamw_copies_nothing():
    a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    b = Tensor(np.array([7.0, 8.0]), requires_grad=True)
    params = {"a.weight": a, "b.bias": b}
    arena, grad = pack(params)
    np.testing.assert_array_equal(arena, [0, 1, 2, 3, 4, 5, 7, 8])
    np.testing.assert_array_equal(grad, np.zeros(8))
    for p, start in ((a, 0), (b, 6)):
        assert p.data.base is arena and p.grad.base is grad and p.grad.shape == p.shape
        assert p.grad.ctypes.data == grad.ctypes.data + 8 * start
    addresses = [(p.data.ctypes.data, p.grad.ctypes.data) for p in params.values()]
    opt = AdamW(params, arena, grad, 6)
    assert opt.data is arena and opt.grad is grad and opt.n_decay == 6
    assert [(p.data.ctypes.data, p.grad.ctypes.data) for p in params.values()] == addresses
    # without `fill`, the views are bound and nothing is copied in
    c = Tensor(np.ones(3), requires_grad=True)
    empty, _ = pack({"c": c}, fill=False)
    assert c.data.base is empty and c.data.shape == (3,)


def test_nonfinite_grad_names_the_first_parameter_in_arena_order():
    params = {"a": Tensor(np.zeros(3), requires_grad=True),
              "b": Tensor(np.zeros((2, 2)), requires_grad=True)}
    opt = packed_adamw(params)
    opt.zero_grad()
    assert opt.nonfinite_grad() is None
    params["b"].grad[0, 0] = np.inf         # b's first element: offset 3, a's end
    assert opt.nonfinite_grad() == "b"
    params["a"].grad[2] = np.nan
    assert opt.nonfinite_grad() == "a"


# ---------------------------------------------------------------------------
# The flat arena against the per-parameter update it replaced


def per_parameter_adamw(params, grads, state, lr, betas, eps, wd, exempt):
    """The per-parameter AdamW loop the arena replaced, verbatim in its order
    of operations: the bitwise oracle for the chunked arena update."""
    b1, b2 = betas
    state["t"] += 1
    bc1 = 1.0 - b1 ** state["t"]
    bc2 = 1.0 - b2 ** state["t"]
    for name, p in params.items():
        g = grads[name]
        if g is None:
            g = np.zeros_like(p)
        m = state["m"].setdefault(name, np.zeros_like(p))
        v = state["v"].setdefault(name, np.zeros_like(p))
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + eps)
        p -= lr * update
        if wd != 0.0 and name not in exempt:
            p -= lr * wd * p


@pytest.mark.parametrize("chunk", [7, 1 << 14])
def test_arena_matches_per_parameter_update_bitwise(monkeypatch, chunk):
    """Mixed shapes, exempt and decayed names interleaved in the oracle's
    order, one parameter whose gradient slice is left at zero; a small odd
    chunk makes parameters straddle chunks, and the exempt ones sit behind
    the decay slice's end."""
    monkeypatch.setattr("vivqa.optim._CHUNK", chunk)
    rng = np.random.default_rng(7)
    shapes = {"a.weight": (3, 5), "a.bias": (5,), "b.gamma": (4,), "b.weight": (2, 3, 4),
              "c.beta": (1,), "c.weight": (9,), "d.bias": (2, 2), "e.weight": (13,)}
    init = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    exempt = {name for name in shapes if name.endswith((".bias", ".gamma", ".beta"))}
    params = {name: Tensor(init[name].copy(), requires_grad=True)
              for name in sorted(shapes, key=lambda name: name in exempt)}
    n_decay = sum(init[name].size for name in shapes if name not in exempt)
    opt = packed_adamw(params, n_decay, betas=(0.8, 0.95), eps=1e-6, weight_decay=0.05)
    ref = {name: arr.copy() for name, arr in init.items()}
    state = {"t": 0, "m": {}, "v": {}}
    for step in range(25):
        lr = 1e-2 * (1 + step % 3)
        grads = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        grads["c.weight"] = None
        opt.zero_grad()
        for name, p in params.items():
            if grads[name] is not None:
                p.grad += grads[name]              # lands in the arena
        opt.step(lr)
        per_parameter_adamw(ref, grads, state, lr, (0.8, 0.95), 1e-6, 0.05, exempt)
        for name, p in params.items():
            np.testing.assert_array_equal(p.data, ref[name], err_msg=f"{name} at step {step}")
    # the arena layout: decayed parameters first, each group in dict order
    order = sorted(shapes, key=lambda name: name in exempt)
    for arena, want in ((opt.data, ref), (opt.m, state["m"]), (opt.v, state["v"])):
        np.testing.assert_array_equal(arena, np.concatenate([want[n].reshape(-1) for n in order]))


def test_arena_views_stay_bound_through_backward():
    """Backward adds a leaf's gradient into its arena view in place."""
    from vivqa.tensor import backward, mul, sum_all

    w = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    opt = packed_adamw({"w": w})
    view = w.grad
    x = np.linspace(-1.0, 1.0, 6).reshape(2, 3)
    backward(sum_all(mul(w, Tensor(x))))
    assert w.grad is view
    np.testing.assert_array_equal(opt.grad, x.reshape(-1))


# ---------------------------------------------------------------------------
# Schedule


def test_schedule_anchors():
    cfg = ScheduleConfig(peak_lr=3e-5, total_steps=1000, warmup_ratio=0.1)
    assert lr_at(0, cfg) == 0.0
    assert math.isclose(lr_at(100, cfg), 3e-5, rel_tol=1e-12)
    assert math.isclose(lr_at(1000, cfg), 0.0, abs_tol=1e-20)


def test_schedule_warmup_is_linear():
    cfg = ScheduleConfig(peak_lr=1e-3, total_steps=200, warmup_ratio=0.25)
    for s in range(50):
        assert math.isclose(lr_at(s, cfg), 1e-3 * s / 50, rel_tol=1e-12)


def test_schedule_continuity_at_warmup_end():
    cfg = ScheduleConfig(peak_lr=3e-5, total_steps=1000, warmup_ratio=0.1)
    warmup_end = 100
    left = 3e-5 * (warmup_end - 1e-6) / warmup_end
    right = lr_at(warmup_end, cfg)
    assert abs(left - right) < 1e-10
    # cosine value at exactly the junction equals the peak
    assert abs(right - 3e-5) < 1e-12


def test_schedule_monotone_decay_after_warmup():
    cfg = ScheduleConfig(peak_lr=1e-3, total_steps=400, warmup_ratio=0.1)
    values = [lr_at(s, cfg) for s in range(40, 401)]
    assert all(a >= b - 1e-18 for a, b in zip(values, values[1:]))


def test_schedule_floor():
    cfg = ScheduleConfig(peak_lr=1e-3, total_steps=100, warmup_ratio=0.1, floor_lr=1e-5)
    assert math.isclose(lr_at(100, cfg), 1e-5, rel_tol=1e-12)
    mid = lr_at(55, cfg)
    assert 1e-5 < mid < 1e-3


def test_schedule_halfway_point():
    # halfway through the cosine span the lr is the midpoint of peak and floor
    cfg = ScheduleConfig(peak_lr=1e-3, total_steps=200, warmup_ratio=0.1, floor_lr=0.0)
    assert math.isclose(lr_at(110, cfg), 5e-4, rel_tol=1e-12)


def test_schedule_rejects_out_of_range_step():
    cfg = ScheduleConfig(peak_lr=1e-3, total_steps=10, warmup_ratio=0.1)
    with pytest.raises(ValueError):
        lr_at(11, cfg)
    with pytest.raises(ValueError):
        lr_at(-1, cfg)


def test_schedule_config_validation():
    with pytest.raises(ValueError):
        ScheduleConfig(peak_lr=0.0, total_steps=10)
    with pytest.raises(ValueError):
        ScheduleConfig(peak_lr=1e-3, total_steps=10, warmup_ratio=1.0)

"""Classifier head and answer-selection tests."""
import numpy as np
import pytest

from vivqa.classifier import ClassifierParams, classify, predict
from vivqa.errors import ShapeError
from vivqa.rng import RngStream
from vivqa import tensor as T
from vivqa.tensor import Tensor, backward, grad_check, cross_entropy, sum_all


def test_shapes_and_hidden_width():
    p = ClassifierParams(in_width=24, n_classes=16, rng=RngStream(0))
    assert p.hidden == 48
    out = classify(Tensor(np.random.default_rng(0).normal(size=(3, 24))), p)
    assert out.shape == (3, 16)


def test_rejects_wrong_input_shape():
    p = ClassifierParams(8, 4, RngStream(1))
    with pytest.raises(ShapeError):
        classify(Tensor(np.zeros(8)), p)
    with pytest.raises(ShapeError):
        classify(Tensor(np.zeros((1, 9))), p)
    with pytest.raises(ShapeError):
        classify(Tensor(np.zeros((2, 1, 8))), p)


@pytest.mark.parametrize("seed", range(5))
def test_gradient_check_c5(seed):
    p = ClassifierParams(6, 5, RngStream(10 + seed))
    r = np.random.default_rng(seed)
    targets = r.integers(0, 5, size=3)
    f = lambda x: cross_entropy(classify(x, p), targets)
    assert grad_check(f, Tensor(r.normal(size=(3, 6)))) < 1e-4


def test_all_params_receive_gradient():
    p = ClassifierParams(6, 5, RngStream(2))
    backward(sum_all(classify(Tensor(np.random.default_rng(0).normal(size=(2, 6))), p)))
    for name, t in p.params.items():
        assert t.grad is not None, name


def test_classify_is_one_node_bitwise_the_composed_ops():
    """The head is one graph node whose logits and gradients equal the
    op-by-op graph's (linear, layer_norm, gelu, linear) byte for byte."""
    p = ClassifierParams(24, 16, RngStream(3))
    r = np.random.default_rng(3)
    w = {name.removeprefix("classifier."): t for name, t in p.params.items()}
    for name in ("fc1.bias", "norm.gamma", "norm.beta", "fc2.bias"):
        w[name].data = w[name].data + r.normal(size=w[name].shape)
    x, proj = r.normal(size=(5, 24)), Tensor(r.normal(size=(5, 16)))

    def composed(x):
        h = T.gelu(T.layer_norm(T.linear(x, w["fc1.weight"], w["fc1.bias"]),
                                w["norm.gamma"], w["norm.beta"]))
        return T.linear(h, w["fc2.weight"], w["fc2.bias"])

    results = []
    for head in (lambda x: classify(x, p), composed):
        for t in p.params.values():
            t.grad = None
        leaf = Tensor(x, requires_grad=True)
        out = head(leaf)
        backward(sum_all(T.mul(out, proj)))
        results.append([out.data, leaf.grad] + [t.grad for t in p.params.values()])
    fused = classify(Tensor(x), p)      # one node, over the input and the six parameters
    assert len(fused._parents) == 7 and not any(q._parents for q in fused._parents)
    assert [a.tobytes() for a in results[0]] == [a.tobytes() for a in results[1]]


def test_predict_exhaustive_argmax():
    answers = [f"a{i}" for i in range(8)]
    assert predict(Tensor(np.eye(8)), answers) == answers   # row j peaks at class j


def test_predict_tie_breaks_to_lowest_index():
    assert predict(Tensor(np.zeros((1, 4))), ["w", "x", "y", "z"]) == ["w"]


def test_predict_probabilities_normalized():
    answers = predict(Tensor(np.array([[1.0, 2.0, 3.0], [3.0, 1.0, 2.0]])), ["a", "b", "c"])
    assert answers == ["c", "a"]


def test_predict_rejects_mismatched_vocab():
    with pytest.raises(ShapeError):
        predict(Tensor(np.zeros((1, 3))), ["a", "b"])
    with pytest.raises(ShapeError):
        predict(Tensor(np.zeros(2)), ["a", "b"])


def test_deterministic_init_per_seed():
    a = ClassifierParams(6, 5, RngStream(3))
    b = ClassifierParams(6, 5, RngStream(3))
    assert list(a.params) == list(b.params)
    for k in a.params:
        np.testing.assert_array_equal(a.params[k].data, b.params[k].data)

"""Text pipeline tests: vocabulary construction, tokenizer
framing/truncation/padding, embedding encode, and the projection."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vivqa.errors import ShapeError
from vivqa.rng import RngStream
from vivqa.tensor import Tensor, backward, grad_check, mul, sum_all
from vivqa.text import (
    CLS, PAD, RESERVED, SEP, UNK, ProjectionParams, TextEncoderParams,
    build_vocab, encode, project, tokenize,
)


def test_reserved_ids():
    assert (PAD, CLS, SEP, UNK) == (0, 1, 2, 3)
    assert RESERVED == ["[PAD]", "[CLS]", "[SEP]", "[UNK]"]
    v = build_vocab(["xanh"])
    assert len(v) == 5
    assert v.lookup("xanh") == 4
    tq = tokenize("xanh tím", v, l_max=3)
    assert tq.ids.tolist() == [CLS, 4, UNK, SEP, PAD]
    assert tq.mask.tolist() == [1, 1, 1, 1, 0]


def test_build_vocab_frequency_then_lexicographic():
    v = build_vocab(["b a", "b c", "c a a"])
    # counts: a=3, b=2, c=2 -> a, then b/c tie lexicographic
    assert v.tokens == ["a", "b", "c"]
    assert v.lookup("a") == 4
    assert v.lookup("b") == 5


def test_build_vocab_empty_rejected():
    with pytest.raises(ValueError):
        build_vocab([])


def test_tokenize_framing():
    v = build_vocab(["con mèo"])
    tq = tokenize("con mèo", v, l_max=4)
    assert tq.ids.tolist() == [CLS, v.lookup("con"), v.lookup("mèo"), SEP, PAD, PAD]
    assert tq.mask.tolist() == [1, 1, 1, 1, 0, 0]


def test_tokenize_truncates_to_l_max():
    v = build_vocab(["a b c d e"])
    tq = tokenize("a b c d e", v, l_max=3)
    assert tq.ids.tolist() == [CLS, v.lookup("a"), v.lookup("b"), v.lookup("c"), SEP]
    assert tq.mask.tolist() == [1, 1, 1, 1, 1]


def test_tokenize_unknown_words_map_to_unk():
    v = build_vocab(["xanh"])
    tq = tokenize("tím xanh", v, l_max=4)
    assert tq.ids.tolist()[1] == UNK
    assert tq.ids.tolist()[2] == v.lookup("xanh")


def test_tokenize_empty_question():
    v = build_vocab(["a"])
    tq = tokenize("", v, l_max=3)
    assert tq.ids.tolist() == [CLS, SEP, PAD, PAD, PAD]
    assert tq.mask.tolist() == [1, 1, 0, 0, 0]


def test_tokenize_rejects_bad_l_max():
    with pytest.raises(ValueError):
        tokenize("a", build_vocab(["a"]), l_max=0)


@given(st.lists(st.sampled_from("abcdef"), min_size=0, max_size=12))
@settings(max_examples=50, deadline=None)
def test_tokenize_invariants(words):
    v = build_vocab(["a b c d"])
    q = " ".join(words)
    l_max = 5
    tq = tokenize(q, v, l_max)
    assert len(tq.ids) == len(tq.mask) == l_max + 2
    assert tq.mask.sum() == min(len(words), l_max) + 2
    assert tq.ids[0] == CLS
    assert tq.ids[int(tq.mask.sum()) - 1] == SEP
    # mask is a prefix of ones
    m = tq.mask.tolist()
    assert m == sorted(m, reverse=True)


# ---------------------------------------------------------------------------
# Encoder and projection


def test_encode_shape_and_composition():
    v = build_vocab(["a b"])
    p = TextEncoderParams(len(v), width=8, l_max=4, rng=RngStream(0))
    tqs = [tokenize("a b", v, 4), tokenize("b", v, 4)]
    out = encode(np.stack([tq.ids for tq in tqs]), p)
    assert out.shape == (2, 6, 8)
    for i, tq in enumerate(tqs):
        want = (p.params["text.embedding"].data[tq.ids]
                + p.params["text.positional"].data[np.arange(6)])
        np.testing.assert_allclose(out.data[i], want, atol=1e-12)
    with pytest.raises(ShapeError):
        encode(tqs[0].ids, p)


def test_encode_params_are_trainable():
    v = build_vocab(["a"])
    p = TextEncoderParams(len(v), 8, 3, RngStream(0))
    tq = tokenize("a", v, 3)
    backward(sum_all(encode(tq.ids[None], p)))
    table, positional = p.params["text.embedding"], p.params["text.positional"]
    assert table.grad is not None
    assert positional.grad is not None
    # only looked-up embedding rows receive gradient
    used = set(tq.ids.tolist())
    for row in range(len(v)):
        touched = np.any(table.grad[row] != 0)
        assert touched == (row in used)


def test_projection_shapes_and_grad(rng):
    p = ProjectionParams(8, 5, RngStream(1))
    x = Tensor(rng.normal(size=(2, 4, 8)))
    out = project(x, p)
    assert out.shape == (2, 4, 5)
    with pytest.raises(ShapeError):
        project(Tensor(rng.normal(size=(2, 4, 7))), p)
    proj = rng.normal(size=(2, 4, 5))
    f = lambda t: sum_all(mul(project(t, p), Tensor(proj)))
    assert grad_check(f, x) < 1e-4


def test_identical_seeds_identical_params():
    a = TextEncoderParams(10, 8, 4, RngStream(3))
    b = TextEncoderParams(10, 8, 4, RngStream(3))
    assert list(a.params) == ["text.embedding", "text.positional"]
    for name in a.params:
        np.testing.assert_array_equal(a.params[name].data, b.params[name].data)

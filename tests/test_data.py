"""Dataset module tests: JSONL loading errors, answer vocabulary, splits and
folds, corpus statistics against hand counts, synthetic generator properties,
and batching determinism."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vivqa.config import preset_dims
from vivqa.data import (
    AnswerVocab, Example, FoldPlan, MAX_GLOBAL_CUES, OOV_TARGET, SyntheticSpec,
    batch_iter, corpus_stats, example_noise_seed, kfold, load_jsonl,
    make_synthetic, render_synthetic, split_train_test,
    synthetic_answer, _local_positions,
)
from vivqa.errors import DataError, ParseError
from vivqa.metrics import write_json_lines
from vivqa.vision import VisionDims

TINY = preset_dims("tiny").vision


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")


GOOD = [
    {"id": "a", "image": "synthetic:g=0,l=0", "question": "màu gì", "answer": "đỏ"},
    {"id": "b", "image": "synthetic:g=1,l=0", "question": "con gì", "answer": "mèo"},
]


def test_load_jsonl_round_trip(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, GOOD)
    examples = load_jsonl(path)
    assert examples == [Example(**row) for row in GOOD]
    out = tmp_path / "copy.jsonl"
    write_json_lines(out, examples)
    assert load_jsonl(out) == examples


def test_load_jsonl_skips_blank_lines(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps(GOOD[0]) + "\n\n" + json.dumps(GOOD[1]) + "\n")
    assert len(load_jsonl(path)) == 2


def test_load_jsonl_invalid_json_has_line_number(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps(GOOD[0]) + "\n{broken\n")
    with pytest.raises(ParseError, match=":2"):
        load_jsonl(path)


def test_load_jsonl_missing_field(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [{"id": "a", "image": "x", "question": "q"}])
    with pytest.raises(ParseError, match="answer"):
        load_jsonl(path)


def test_load_jsonl_duplicate_id(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [GOOD[0], GOOD[0]])
    with pytest.raises(DataError, match="duplicate"):
        load_jsonl(path)


def test_load_jsonl_empty_answer(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [{"id": "a", "image": "x", "question": "q", "answer": ""}])
    with pytest.raises(ParseError):
        load_jsonl(path)


# ---------------------------------------------------------------------------
# Answer vocabulary


def test_answer_vocab_order_and_lookup():
    v = AnswerVocab(["đỏ", "xanh", "đỏ", "Vàng", "xanh", "đỏ"])
    assert v.answers == ["đỏ", "xanh", "vàng"]  # freq desc, canonicalized
    assert v.target_of("ĐỎ") == 0
    assert v.target_of("tím") == OOV_TARGET
    assert len(v) == 3


def test_answer_vocab_tie_lexicographic():
    v = AnswerVocab(["b", "a"])
    assert v.answers == ["a", "b"]


def test_answer_vocab_empty_rejected():
    with pytest.raises(ValueError):
        AnswerVocab([])


# ---------------------------------------------------------------------------
# Splits and folds


def test_split_ratio_and_partition():
    examples = make_synthetic(100, 2, 2, seed=0)
    train, test = split_train_test(examples, 0.8, seed=1)
    assert len(train) == 80 and len(test) == 20
    assert {e.id for e in train} | {e.id for e in test} == {e.id for e in examples}
    assert not ({e.id for e in train} & {e.id for e in test})


def test_split_ceil_rule():
    examples = make_synthetic(5, 2, 2, seed=0)
    train, test = split_train_test(examples, 0.5, seed=0)
    assert len(train) == 3 and len(test) == 2  # ceil(2.5)


def test_split_deterministic_per_seed():
    examples = make_synthetic(30, 2, 2, seed=0)
    a1 = split_train_test(examples, 0.8, seed=7)
    a2 = split_train_test(examples, 0.8, seed=7)
    b = split_train_test(examples, 0.8, seed=8)
    assert [e.id for e in a1[0]] == [e.id for e in a2[0]]
    assert [e.id for e in a1[0]] != [e.id for e in b[0]]


def test_kfold_partitions_exactly():
    examples = make_synthetic(23, 2, 2, seed=0)
    plan = kfold(examples, k=5, seed=3)
    all_positions = []
    for f in range(5):
        all_positions.extend(plan.fold_indices(f))
    assert sorted(all_positions) == list(range(23))
    sizes = sorted(len(plan.fold_indices(f)) for f in range(5))
    assert sizes == [4, 4, 5, 5, 5]  # balanced within 1


def test_kfold_splits_are_complements():
    examples = make_synthetic(20, 2, 2, seed=0)
    plan = kfold(examples, k=5, seed=0)
    for train_pos, val_pos in plan.splits():
        assert sorted(train_pos + val_pos) == list(range(20))
        assert not (set(train_pos) & set(val_pos))


def test_kfold_deterministic_and_k_guard():
    examples = make_synthetic(10, 2, 2, seed=0)
    assert kfold(examples, 5, seed=2).fold_of == kfold(examples, 5, seed=2).fold_of
    with pytest.raises(ValueError):
        kfold(examples, 11, seed=0)


# ---------------------------------------------------------------------------
# Corpus statistics


def test_corpus_stats_hand_counted():
    examples = [
        Example("1", "x", "màu gì đây", "đỏ"),
        Example("2", "x2", "con vật này là con gì vậy", "con mèo"),
        Example("3", "x3", "ai", "một người đàn ông"),
    ]
    stats = corpus_stats(examples)
    assert stats["count"] == 3
    assert stats["longest_question"] == 7
    assert stats["longest_answer"] == 4
    assert stats["average_question"] == "3.67"   # 11/3 rounded half-up
    assert stats["average_answer"] == "2.33"     # 7/3


def test_corpus_stats_half_up_rounding():
    examples = [Example("1", "x", "a b", "y"), Example("2", "x2", "a b c", "y z")]
    stats = corpus_stats(examples)
    assert stats["average_question"] == "2.50"
    assert stats["average_answer"] == "1.50"


def test_corpus_stats_empty_rejected():
    with pytest.raises(ValueError):
        corpus_stats([])


# ---------------------------------------------------------------------------
# Synthetic generator


def test_spec_ref_round_trip():
    spec = SyntheticSpec(3, 7)
    assert SyntheticSpec.parse(spec.image_ref()) == spec
    with pytest.raises(DataError):
        SyntheticSpec.parse("file.vvqf")


def test_synthetic_answer_names_both_cues():
    assert synthetic_answer(SyntheticSpec(2, 5)) == "g2 l5"


def test_make_synthetic_class_balance():
    examples = make_synthetic(64, 4, 4, seed=0)
    counts = {}
    for ex in examples:
        counts[ex.answer] = counts.get(ex.answer, 0) + 1
    assert len(counts) == 16
    assert set(counts.values()) == {4}  # 64 / 16 exactly


def test_make_synthetic_deterministic():
    a = make_synthetic(32, 3, 3, seed=5)
    b = make_synthetic(32, 3, 3, seed=5)
    c = make_synthetic(32, 3, 3, seed=6)
    assert a == b
    assert a != c


def test_make_synthetic_guards():
    with pytest.raises(ValueError):
        make_synthetic(0, 2, 2, seed=0)
    with pytest.raises(ValueError):
        make_synthetic(8, 1, 2, seed=0)
    with pytest.raises(ValueError):
        make_synthetic(8, 16, 2, seed=0)


def test_local_positions_prefix_stable():
    """A cue's block depends on the grid alone, so the first n cues of any
    cue count are the same blocks: every block once, the diagonal first."""
    cells = _local_positions(7)
    assert sorted(cells) == [(i, j) for i in range(7) for j in range(7)]
    assert cells[:4] == ((0, 0), (1, 1), (2, 2), (3, 3))
    assert cells[7] == (0, 1) and _local_positions(7) is cells     # built once per grid


def test_render_shapes_and_range():
    img = render_synthetic(SyntheticSpec(1, 2), TINY, noise_seed=9)
    assert img.shape == (3, TINY.image_size, TINY.image_size)
    assert img.min() >= 0.0 and img.max() <= 1.0


def test_render_deterministic_per_noise_seed():
    a = render_synthetic(SyntheticSpec(0, 1), TINY, noise_seed=1)
    b = render_synthetic(SyntheticSpec(0, 1), TINY, noise_seed=1)
    c = render_synthetic(SyntheticSpec(0, 1), TINY, noise_seed=2)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def _render_uncached(spec, dims, noise_seed):
    """render_synthetic as it was before the texture cache, with the Walsh
    sign pattern built per pixel."""
    from vivqa.data import BASE_LEVEL, LOCAL_DELTA, NOISE_AMP, TEXTURE_AMP
    from vivqa.rng import RngStream
    c, size, b, grid = dims.channels, dims.image_size, dims.block, dims.grid
    m, sub = spec.global_cue + 1, b // 4
    tile = np.empty((b, b))
    for y in range(b):
        for x in range(b):
            u, v = y // sub, x // sub
            bits = (m & 1) * (u & 1) + (m >> 1 & 1) * (u >> 1 & 1) \
                + (m >> 2 & 1) * (v & 1) + (m >> 3 & 1) * (v >> 1 & 1)
            tile[y, x] = (-1.0) ** bits
    img = np.full((c, size, size), BASE_LEVEL)
    img += TEXTURE_AMP * np.tile(tile, (grid, grid))[None, :, :]
    bi, bj = _local_positions(grid)[spec.local_cue]
    for ch in range(c):
        img[ch, bi * b:(bi + 1) * b, bj * b:(bj + 1) * b] += LOCAL_DELTA[ch % 3]
    noise = RngStream(noise_seed).split("pixel-noise").uniform(-NOISE_AMP, NOISE_AMP,
                                                               (c, size, size))
    return np.clip(img + noise, 0.0, 1.0)


@pytest.mark.parametrize("dims", [TINY, VisionDims(image_size=56, block=8)],
                         ids=["tiny", "56px-block8"])
def test_render_with_cached_texture_is_bitwise_the_uncached_render(dims):
    for g in range(MAX_GLOBAL_CUES):
        for l in (0, g, dims.grid ** 2 - 1):
            spec = SyntheticSpec(g, l)
            got = render_synthetic(spec, dims, noise_seed=100 * g + l)
            assert got.tobytes() == _render_uncached(spec, dims, 100 * g + l).tobytes()


def test_texture_cache_is_read_only_and_renders_are_not():
    from vivqa.data import _walsh_texture
    tex = _walsh_texture(3, TINY.block, TINY.grid)
    assert _walsh_texture(3, TINY.block, TINY.grid) is tex and not tex.flags.writeable
    assert tex.shape == (TINY.image_size, TINY.image_size)
    with pytest.raises(ValueError):
        tex[0, 0] = 0.0
    before = tex.copy()
    img = render_synthetic(SyntheticSpec(3, 1), TINY, noise_seed=2)
    img[...] = 0.0              # each render is its own writable array
    np.testing.assert_array_equal(_walsh_texture(3, TINY.block, TINY.grid), before)
    assert render_synthetic(SyntheticSpec(3, 1), TINY, noise_seed=2).any()


def test_global_texture_zero_mean_per_block():
    img_a = render_synthetic(SyntheticSpec(0, 0), TINY, noise_seed=0)
    img_b = render_synthetic(SyntheticSpec(3, 0), TINY, noise_seed=0)
    b, g = TINY.block, TINY.grid
    for bi in range(g):
        for bj in range(g):
            ma = img_a[:, bi*b:(bi+1)*b, bj*b:(bj+1)*b].mean()
            mb = img_b[:, bi*b:(bi+1)*b, bj*b:(bj+1)*b].mean()
            assert math.isclose(ma, mb, abs_tol=1e-12)


def test_local_cue_shifts_exactly_one_block_mean():
    img_a = render_synthetic(SyntheticSpec(0, 0), TINY, noise_seed=0)
    img_b = render_synthetic(SyntheticSpec(0, 2), TINY, noise_seed=0)
    b, g = TINY.block, TINY.grid
    changed = []
    for bi in range(g):
        for bj in range(g):
            da = img_a[:, bi*b:(bi+1)*b, bj*b:(bj+1)*b].mean()
            db = img_b[:, bi*b:(bi+1)*b, bj*b:(bj+1)*b].mean()
            if abs(da - db) > 1e-9:
                changed.append((bi, bj))
    assert sorted(changed) == [(0, 0), (2, 2)]


def test_example_noise_seed_stable():
    assert example_noise_seed("syn-00001") == example_noise_seed("syn-00001")
    assert example_noise_seed("syn-00001") != example_noise_seed("syn-00002")


# ---------------------------------------------------------------------------
# Batching


def test_batch_iter_covers_split_once():
    examples = make_synthetic(20, 2, 2, seed=0)
    av = AnswerVocab.from_examples(examples)
    batches = list(batch_iter(examples, 6, av, seed=0, epoch=0, is_train=True))
    assert [len(b) for b, _ in batches] == [6, 6, 6, 2]
    assert all(list(t) == [av.target_of(ex.answer) for ex in b] for b, t in batches)
    ids = [ex.id for b, _ in batches for ex in b]
    assert sorted(ids) == sorted(e.id for e in examples)


def test_batch_iter_epoch_reshuffles_deterministically():
    examples = make_synthetic(20, 2, 2, seed=0)
    av = AnswerVocab.from_examples(examples)

    def order(epoch):
        return [ex.id for b, _ in batch_iter(examples, 5, av, 3, epoch, True) for ex in b]

    assert order(0) == order(0)
    assert order(0) != order(1)


def test_batch_iter_oov_train_answer_raises():
    examples = make_synthetic(8, 2, 2, seed=0)
    av_small = AnswerVocab(["g0 l0"])
    with pytest.raises(DataError):
        list(batch_iter(examples, 4, av_small, 0, 0, is_train=True))


def test_batch_iter_oov_test_answer_gets_sentinel():
    examples = make_synthetic(8, 2, 2, seed=0)
    av_small = AnswerVocab(["g0 l0"])
    targets = {int(t) for _, batch_targets in batch_iter(examples, 4, av_small, 0, 0, False)
               for t in batch_targets}
    assert OOV_TARGET in targets


def test_batch_iter_batch_size_guard():
    examples = make_synthetic(4, 2, 2, seed=0)
    av = AnswerVocab.from_examples(examples)
    with pytest.raises(ValueError):
        list(batch_iter(examples, 0, av, 0, 0, True))


@given(st.integers(1, 30), st.integers(1, 10), st.integers(0, 50))
@settings(max_examples=40, deadline=None)
def test_batch_sizes_property(n, bs, seed):
    examples = make_synthetic(n, 2, 2, seed=0)
    av = AnswerVocab.from_examples(examples)
    batches = [b for b, _ in batch_iter(examples, bs, av, seed, 0, True)]
    assert sum(len(b) for b in batches) == n
    assert all(len(b) == bs for b in batches[:-1])
    assert 1 <= len(batches[-1]) <= bs

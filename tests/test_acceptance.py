"""Acceptance gate: end-to-end checks of the full pipeline at stated
tolerances and time budgets.

Each test is numbered C1..C11 and self-contained: published-scale shape
chain, finite-difference gradient audit, overfit sanity, complementary-cue
ablation with significance, fusion dimensional/sparsity checks, metrics and
t-test oracle equivalence, the freeze contract, protocol determinism,
scheduler anchors, and corpus statistics.
"""
import json
import math
import os
import time
from collections import Counter

import numpy as np
import pytest

import vivqa.tensor as T
from vivqa.config import RunConfig
from vivqa.data import (
    AnswerVocab, Example, SyntheticSpec, batch_iter, corpus_stats, example_noise_seed,
    kfold, load_jsonl, make_synthetic, render_synthetic, split_train_test,
)
from vivqa.harness import ablate_extractors, ablate_freeze
from vivqa.metrics import (
    PredictionRecord, report as metrics_report, student_t_sf2, welch_t_test,
)
from vivqa.model import VivqaModel
from vivqa.multiway import concat_modalities, encode, pool_cls
from vivqa.optim import ScheduleConfig, lr_at
from vivqa.rng import RngStream
from vivqa.tensor import Tensor, grad_check
from vivqa.text import encode as text_encode, project, tokenize
from vivqa.train import build_model, predict_split, run_training, train_model
from vivqa.vision import (
    adapt_local, extract_global_stub, extract_local_stub, fuse,
    fused_token_count, sparsity_stats,
)
from vivqa.classifier import classify


def tiny_cfg(**kw):
    base = dict(preset="tiny", layers=2, heads=2, drop_path=0.0, seed=0,
                batch_size=16, lr=1e-3)
    base.update(kw)
    return RunConfig(**base)


# ---------------------------------------------------------------------------
# C1: published-scale shape chain, exact, one forward pass under 60 s.  The
# model stages carry a leading batch axis (here B = 1).


def test_c1_shape_chain_paper_preset():
    started = time.perf_counter()
    corpus = make_synthetic(4, 2, 2, seed=1)
    cfg = RunConfig(preset="paper", layers=6, heads=6, drop_path=0.0)
    model = build_model(cfg, corpus)
    dims = model.vision_dims
    ex = corpus[0]

    img = render_synthetic(SyntheticSpec.parse(ex.image), dims,
                           noise_seed=example_noise_seed(ex.id))
    assert img.shape == (3, 224, 224)

    # the stubs take a stack of images: here one
    g = extract_global_stub(img[None], model.extractor)
    assert g.shape == (1, 32, 768)
    l = extract_local_stub(img[None], model.extractor)
    assert l.shape == (1, 2560, 7, 7)
    g, l = T.Tensor(g.data[0]), T.Tensor(l.data[0])

    # adapter chain, step by step
    step = T.adaptive_avg_pool(l, (1, dims.n_tokens))
    assert step.shape == (2560, 1, 32)
    step = T.permute(step, (2, 1, 0))
    assert step.shape == (32, 1, 2560)
    step = T.adaptive_avg_pool(step, (dims.token_dim,))
    assert step.shape == (32, 1, 768)
    adapted = T.flatten(step, keep_axis=0)
    assert adapted.shape == (32, 768)
    np.testing.assert_array_equal(adapted.data, adapt_local(l, dims).data)

    fused_v = fuse(g, adapted, "concatenate")
    assert fused_v.shape == (64, 768)
    batch_v = T.stack([fused_v])
    assert batch_v.shape == (1, 64, 768)

    tokens = tokenize(ex.question, model.vocab, cfg.l_max)
    embedded = text_encode(tokens.ids[None], model.text_params)
    assert embedded.shape == (1, cfg.l_max + 2, 1024)
    q = project(embedded, model.projection)
    assert q.shape == (1, cfg.l_max + 2, 768)

    seq = concat_modalities(batch_v, q, tokens.mask[None], model.fusion)
    rows = 64 + cfg.l_max + 2
    assert seq.x.shape == (1, rows, 768)
    seq = encode(seq, model.fusion)
    assert seq.x.shape == (1, rows, 768)
    pooled = pool_cls(seq, model.fusion)
    assert pooled.shape == (1, 768)

    assert model.classifier.hidden == 1536
    logits = classify(pooled, model.classifier)
    assert logits.shape == (1, len(model.answer_vocab))
    assert time.perf_counter() - started < 60.0


# ---------------------------------------------------------------------------
# C2: finite-difference gradient audit — every differentiable op family and
# the composed tiny-preset model on a batch, 20 seeds, h=1e-5, max rel err
# <= 1e-4.  Batched ops run at B > 1.

N_GRAD_SEEDS = 20
GRAD_TOL = 1e-4


def _proj(rng, shape):
    return rng.normal(size=shape)


def _op_cases(seed):
    r = np.random.default_rng(1000 + seed)
    x34 = Tensor(r.normal(size=(3, 4)))
    other = Tensor(r.normal(size=(3, 4)))
    m42 = Tensor(r.normal(size=(4, 2)))
    bias = Tensor(r.normal(size=(4,)))
    w34 = _proj(r, (3, 4))
    w38 = _proj(r, (3, 8))
    w_pool = _proj(r, (3, 2, 2))
    gamma = Tensor(r.normal(size=(4,)))
    beta = Tensor(r.normal(size=(4,)))
    qkv = Tensor(r.normal(size=(4, 4)))
    kbias = np.zeros((2, 4))
    kbias[:, 3] = kbias[1, 1] = T.MASK_VALUE
    ids = [[0, 2, 2, 1], [1, 1, 3, 0]]
    wlk = _proj(r, (4, 4))
    w244 = _proj(r, (2, 4, 4))
    qkv3 = Tensor(r.normal(size=(2, 4, 4)))
    x234 = Tensor(r.normal(size=(2, 3, 4)))
    w232 = _proj(r, (2, 3, 2))

    def s(t, w):
        return T.sum_all(T.mul(t, Tensor(w)))

    return [
        ("arith", lambda x: s(T.add(T.sub(T.mul(x, other), T.scale(x, 0.7)), x), w34), x34),
        ("matmul", lambda x: s(T.matmul(x, m42), w232), x234),
        ("linear", lambda x: s(T.linear(x, m42, Tensor(r2(seed, 2))), w232), x234),
        ("structural", lambda x: s(T.flatten(T.permute(T.reshape(
            T.concat([x, other], axis=0), (2, 3, 4)), (1, 0, 2)), keep_axis=0),
            w38), Tensor(np.random.default_rng(2000 + seed).normal(size=(3, 4)))),
        ("narrow", lambda x: s(T.narrow(x, 1, 1, 2), w34[:, 1:3]), x34),
        ("pool", lambda x: s(T.adaptive_avg_pool(x, (2, 2)), w_pool),
         Tensor(r.normal(size=(3, 5, 7)))),
        ("tanh", lambda x: s(T.tanh(x), w34), x34),
        ("gelu", lambda x: s(T.gelu(x), w34), x34),
        ("softmax", lambda x: s(T.softmax(x), w34), x34),
        ("layer_norm", lambda x: s(T.layer_norm(x, gamma, beta), w34), x34),
        ("attention", lambda x: s(T.multi_head_attention(
            x, qkv3, T.scale(qkv3, 0.5), kbias, heads=2), w244),
         Tensor(r.normal(size=(2, 4, 4)))),
        ("lookup", lambda w: s(T.embedding_lookup(w, ids), w244), qkv),
        ("cross_entropy", lambda x: T.cross_entropy(x, [2, 0, 3]),
         Tensor(r.normal(size=(3, 4)))),
    ]


def r2(seed, n):
    return np.random.default_rng(3000 + seed).normal(size=(n,))


def test_c2_gradient_audit_ops_and_composed_model():
    started = time.perf_counter()
    for seed in range(N_GRAD_SEEDS):
        for name, f, x in _op_cases(seed):
            err = grad_check(f, x, h=1e-5)
            assert err <= GRAD_TOL, f"{name} seed {seed}: {err}"

    corpus = make_synthetic(8, 2, 2, seed=5)
    cfg = tiny_cfg(vision_mode="global")
    model = build_model(cfg, corpus)
    batch = corpus[:2]
    tokens = [tokenize(ex.question, model.vocab, cfg.l_max) for ex in batch]
    mask = np.stack([tq.mask for tq in tokens])
    v0 = model.vision_tokens(batch).detach()
    q0 = project(text_encode(np.stack([tq.ids for tq in tokens]), model.text_params),
                 model.projection).detach()
    targets = [model.answer_vocab.index[ex.answer] for ex in batch]

    def composed(v, q):
        seq = concat_modalities(v, q, mask, model.fusion)
        seq = encode(seq, model.fusion)
        return T.cross_entropy(classify(pool_cls(seq, model.fusion), model.classifier),
                               targets)

    for seed in range(N_GRAD_SEEDS):
        r = np.random.default_rng(4000 + seed)
        v = Tensor(v0.data + 0.1 * r.normal(size=v0.shape))
        q = Tensor(q0.data + 0.1 * r.normal(size=q0.shape))
        assert grad_check(lambda t: composed(t, q), v, h=1e-5) <= GRAD_TOL
        assert grad_check(lambda t: composed(v, t), q, h=1e-5) <= GRAD_TOL
    assert time.perf_counter() - started < 300.0


# ---------------------------------------------------------------------------
# C3: overfit sanity — 128 synthetic examples, 16 classes, train accuracy
# >= 99% within 300 epochs under 3 minutes.


def test_c3_overfit_tiny():
    started = time.perf_counter()
    corpus = make_synthetic(128, 4, 4, seed=0)
    assert len({ex.answer for ex in corpus}) == 16
    cfg = tiny_cfg(epochs=300, early_stop_train_acc=0.995)
    model = build_model(cfg, corpus)
    report = train_model(model, corpus, cfg)
    acc = metrics_report(predict_split(model, corpus)).accuracy
    assert acc >= 0.99
    assert report.epochs_run <= 300
    assert time.perf_counter() - started < 180.0


# ---------------------------------------------------------------------------
# C4: complementary-cue ablation — combined extractors beat each single
# extractor by >= 5 accuracy points on held-out data, Welch p < 0.05 over
# 5 seeds, under 15 minutes.


def test_c4_complementary_cue_ablation():
    started = time.perf_counter()
    train = make_synthetic(160, 4, 4, seed=3, id_prefix="tr")
    test = make_synthetic(64, 4, 4, seed=4, id_prefix="te")
    cfg = tiny_cfg(epochs=60, layers=1, early_stop_train_acc=0.999)
    results = ablate_extractors(cfg, train, test, seeds=range(5))
    mean = results["mean"]
    for arm in ("local", "global"):
        assert mean["both"] - mean[arm] >= 0.05, (arm, mean)
        tt = results["t_tests"][f"both_vs_{arm}"]
        assert tt["p"] < 0.05 and tt["significant"], (arm, tt)
    assert time.perf_counter() - started < 900.0


# ---------------------------------------------------------------------------
# C5: fusion dimensional and sparsity checks.


def test_c5_fusion_dims_and_sparsity():
    dims = {op: f"{fused_token_count(op, 32)}x768"
            for op in ("multiply", "add", "concatenate")}
    assert dims == {"multiply": "32x768", "add": "32x768", "concatenate": "64x768"}

    r = np.random.default_rng(20240612)  # fixed acceptance seed
    a = Tensor(r.uniform(-1.0, 1.0, size=(32, 768)))
    b = Tensor(r.uniform(-1.0, 1.0, size=(32, 768)))
    s_mul = sparsity_stats(fuse(a, b, "multiply"))
    s_add = sparsity_stats(fuse(a, b, "add"))
    iqr_mul = s_mul["q3"] - s_mul["q1"]
    iqr_add = s_add["q3"] - s_add["q1"]
    assert iqr_mul < iqr_add


# ---------------------------------------------------------------------------
# C6: metrics equal an independent brute-force token-counting oracle on 1000
# randomized record sets, exactly, including the p=r=0 guard.


def _oracle(records):
    def canon_tokens(s):
        return set(" ".join(s.split()).casefold().split())

    n = len(records)
    acc = sum(1 for r in records
              if " ".join(r.prediction.split()).casefold()
              == " ".join(r.ground_truth.split()).casefold()) / n
    ps, rs, f1s = [], [], []
    for r in records:
        p_tok, g_tok = canon_tokens(r.prediction), canon_tokens(r.ground_truth)
        inter = len(p_tok & g_tok)
        p = inter / len(p_tok) if p_tok else 0.0
        rec = inter / len(g_tok)
        ps.append(p)
        rs.append(rec)
        f1s.append(0.0 if p == 0.0 and rec == 0.0 else 2 * p * rec / (p + rec))
    return acc, sum(ps) / n, sum(rs) / n, sum(f1s) / n


def test_c6_metrics_oracle_equivalence():
    vocab = ["con", "mèo", "chó", "màu", "đỏ", "xanh", "một", "người", "bàn"]
    r = np.random.default_rng(99)
    for _ in range(1000):
        records = []
        for i in range(int(r.integers(1, 8))):
            gt = " ".join(r.choice(vocab, size=int(r.integers(1, 4))))
            if r.uniform() < 0.3:
                pred = gt
            else:
                pred = " ".join(r.choice(vocab, size=int(r.integers(1, 4))))
            records.append(PredictionRecord(id=str(i), prediction=pred, ground_truth=gt))
        rep = metrics_report(records)
        acc, p, rec, f1 = _oracle(records)
        assert (rep.accuracy, rep.precision, rep.recall, rep.f1) == (acc, p, rec, f1)

    # zero-overlap prediction: p = r = 0 -> per-question F1 contributes 0
    guard = [PredictionRecord(id="g", prediction="bàn", ground_truth="con mèo")]
    rep = metrics_report(guard)
    assert (rep.precision, rep.recall, rep.f1) == (0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# C7: two-sample t-test numerics against frozen references.


def test_c7_welch_references():
    tt = welch_t_test([1, 2, 3, 4, 5], [2, 3, 4, 5, 6])
    assert abs(tt.t - (-1.0)) <= 1e-6
    assert abs(tt.df - 8.0) <= 1e-9
    assert abs(tt.p - 0.34659350708733416) <= 1e-3

    assert welch_t_test([0.0, 0.01], [10.0, 10.01]).p < 1e-4
    assert student_t_sf2(0.0, 8) == 1.0
    assert abs(student_t_sf2(2.306, 8) - 0.05) <= 1e-3


# ---------------------------------------------------------------------------
# C8: freeze contract — frozen run keeps extractor bytes bitwise unchanged
# and uses strictly fewer trainable parameters and backward node visits.


def test_c8_freeze_contract():
    corpus = make_synthetic(24, 2, 2, seed=7)
    train, test = split_train_test(corpus, 0.75, 0)
    cfg = tiny_cfg(epochs=1, layers=1)
    results = ablate_freeze(cfg, train, test)
    assert results["frozen"]["extractor_bytes_unchanged"]
    assert results["contract"]["frozen_bytes_unchanged"]
    assert results["contract"]["fewer_trainable_params"]
    assert results["contract"]["fewer_backward_visits"]


# ---------------------------------------------------------------------------
# C9: protocol determinism — splits, folds, batch order, loss trajectory,
# and reports bitwise reproducible per seed; 5 folds partition exactly.


def test_c9_protocol_determinism(tmp_path):
    corpus = make_synthetic(23, 2, 2, seed=9)

    a = split_train_test(corpus, 0.8, seed=1)
    b = split_train_test(corpus, 0.8, seed=1)
    assert [e.id for e in a[0]] == [e.id for e in b[0]]
    assert [e.id for e in a[1]] == [e.id for e in b[1]]
    c = split_train_test(corpus, 0.8, seed=2)
    assert [e.id for e in a[0]] != [e.id for e in c[0]]

    plan = kfold(corpus, k=5, seed=0)
    assert plan == kfold(corpus, k=5, seed=0)
    seen = []
    for train_pos, val_pos in plan.splits():
        assert not set(train_pos) & set(val_pos)
        assert sorted(train_pos + val_pos) == list(range(len(corpus)))
        seen.extend(val_pos)
    assert sorted(seen) == list(range(len(corpus)))

    answers = AnswerVocab.from_examples(corpus)
    order1 = [ex.id for examples, _ in batch_iter(corpus, 8, answers, 0, 0, True)
              for ex in examples]
    order2 = [ex.id for examples, _ in batch_iter(corpus, 8, answers, 0, 0, True)
              for ex in examples]
    assert order1 == order2

    cfg = tiny_cfg(epochs=2, layers=1, drop_path=0.2)
    r1 = train_model(build_model(cfg, corpus), corpus, cfg)
    r2 = train_model(build_model(cfg, corpus), corpus, cfg)
    assert r1.epoch_losses == r2.epoch_losses

    blobs = []
    for d in ("x", "y"):
        out = tmp_path / d
        run_training(tiny_cfg(epochs=1, layers=1, out=str(out)), corpus[:16], corpus[16:])
        blobs.append((out / "report.json").read_bytes())
    assert blobs[0] == blobs[1]


# ---------------------------------------------------------------------------
# C10: scheduler anchors and junction continuity.


def test_c10_scheduler_anchors():
    cfg = ScheduleConfig(peak_lr=3e-5, total_steps=1000, warmup_ratio=0.1)
    assert lr_at(0, cfg) == 0.0
    assert abs(lr_at(100, cfg) - 3e-5) <= 1e-12
    assert abs(lr_at(1000, cfg) - 0.0) <= 1e-12
    # continuity across the warmup/cosine junction
    warmup_side = cfg.peak_lr * 100 / 100.0
    cosine_side = lr_at(100, cfg)
    assert abs(warmup_side - cosine_side) <= 1e-12
    assert lr_at(99, cfg) < lr_at(100, cfg)
    assert lr_at(101, cfg) < lr_at(100, cfg)


# ---------------------------------------------------------------------------
# C11: corpus statistics match hand counts; the full-corpus check runs only
# when a real train file is supplied via VIVQA_TRAIN_JSONL.


def test_c11_stats_fixture():
    fixture = [
        Example("1", "x", "màu gì đây", "đỏ"),
        Example("2", "y", "con vật này là con gì vậy", "con mèo"),
        Example("3", "z", "ai", "một người đàn ông"),
    ]
    stats = corpus_stats(fixture)
    assert stats["count"] == 3
    assert stats["longest_question"] == 7
    assert stats["longest_answer"] == 4
    assert stats["average_question"] == "3.67"
    assert stats["average_answer"] == "2.33"


@pytest.mark.skipif("VIVQA_TRAIN_JSONL" not in os.environ,
                    reason="real train corpus not supplied")
def test_c11_stats_real_corpus():
    stats = corpus_stats(load_jsonl(os.environ["VIVQA_TRAIN_JSONL"]))
    assert stats["count"] == 11999
    assert stats["longest_question"] == 26
    assert stats["longest_answer"] == 4
    assert stats["average_question"] == "9.50"
    assert stats["average_answer"] == "1.78"

"""Pipeline-level tests: forward shapes, a batch against its items one by
one, the frozen-feature store, freeze contract, checkpoint round trip,
training determinism, non-finite losses, and report artifacts."""
import ctypes
import dataclasses
import hashlib
import io
import json
import lzma
import os
import re
import subprocess
import sys
import tempfile
import zipfile
from tokenize import TokenError

import numpy as np
import pytest

import vivqa.model as model_mod
import vivqa.multiway as multiway_mod
import vivqa.tensor as T
import vivqa.train as train_mod
from vivqa.classifier import classify
from vivqa.cli import main
from vivqa.config import RunConfig
from vivqa.data import make_synthetic, split_train_test
from vivqa.errors import ConfigError, DataError, FormatError, NumericalError
from vivqa.metrics import report as metrics_report, write_json_lines
from vivqa.model import load_checkpoint, save_checkpoint
from vivqa.multiway import FusedSequence, block_drop_rates, concat_modalities, encode, pool_cls
from vivqa.optim import AdamW
from vivqa.rng import RngStream, keep_table
from vivqa.tensor import Tensor
from vivqa.text import encode as text_encode, project, tokenize
from vivqa.train import build_model, predict_split, run_training, train_model
from vivqa.vision import FUSION_OPS, adapt_local, frozen_extractor
from vivqa.vvqf import read_feature_file, write_feature_file

from numeric_baseline import baseline_env, child_env, run_child


def tiny_cfg(**kw):
    base = dict(preset="tiny", epochs=2, batch_size=8, lr=1e-3, layers=1, heads=2,
                drop_path=0.0, seed=0)
    base.update(kw)
    return RunConfig(**base)


def drop_table(cfg, batch, epoch=0):
    """The batch's (B, 2 * layers) drop-path table in `epoch`, as train_model
    builds it."""
    drop = RngStream(cfg.seed).split("drop-path")
    return keep_table(drop.seed, epoch, [drop.split(ex.id).split(ex.image).seed for ex in batch],
                      np.repeat(block_drop_rates(cfg), 2))


@pytest.fixture(scope="module")
def corpus():
    return make_synthetic(24, 2, 2, seed=1)


def test_forward_logit_shape(corpus):
    cfg = tiny_cfg()
    model = build_model(cfg, corpus)
    logits = model.forward(corpus[:3])
    assert logits.shape == (3, len(model.answer_vocab))


@pytest.mark.parametrize("training", [False, True])
def test_batch_forward_equals_single_item_forwards(corpus, training):
    """B items in one graph give the logits of B one-item graphs; in
    training, each item's drop-path masks are its own row of the table."""
    cfg = tiny_cfg(layers=3, drop_path=0.5, vision_mode="both", freeze_extractors=False)
    model = build_model(cfg, corpus)
    batch = corpus[:6]
    table = drop_table(cfg, batch)

    def forward(items, drop):
        return model.forward(items, drop if training else None).data

    together = forward(batch, table)
    alone = [forward([item], table[i:i + 1]) for i, item in enumerate(batch)]
    np.testing.assert_allclose(together, np.concatenate(alone), rtol=0, atol=1e-12)
    if training:
        # at rate 0.5 over 3 layers some branch is dropped, so handing the
        # items each other's rows changes the logits
        swapped = forward(batch, table[::-1])
        assert np.abs(swapped - together).max() > 1e-6


def test_vision_mode_row_counts(corpus):
    for mode, op, want in (("both", "concatenate", 16), ("both", "add", 8),
                           ("global", "concatenate", 8), ("local", "add", 8)):
        cfg = tiny_cfg(vision_mode=mode, fusion_op=op)
        model = build_model(cfg, corpus)
        assert model.vision_tokens(corpus[:2]).shape == (2, want, 24)


def test_frozen_features_cached_and_detached(corpus):
    model = build_model(tiny_cfg(), corpus)
    ex = corpus[0]
    a = model.vision_tokens([ex])
    assert not a.requires_grad
    b = model.vision_tokens([ex])
    np.testing.assert_array_equal(a.data, b.data)
    assert (ex.id, ex.image) in model.store


def test_reused_example_id_with_new_image_gets_new_tokens():
    """Two corpora with the default id prefix reuse ids for other images;
    a warm model must not serve the first corpus's tokens for the second."""
    first = make_synthetic(8, 4, 4, seed=0)
    second = make_synthetic(8, 4, 4, seed=1)
    model = build_model(tiny_cfg(), first)
    model.vision_tokens(first)
    changed = [(a, b) for a, b in zip(first, second) if a.id == b.id and a.image != b.image]
    assert changed
    for old, new in changed:
        fresh = build_model(tiny_cfg(), first).vision_tokens([new]).data
        np.testing.assert_array_equal(model.vision_tokens([new]).data, fresh)
        assert np.abs(fresh - model.vision_tokens([old]).data).max() > 1e-6


def test_unfrozen_features_not_cached(corpus):
    store = {}
    model = build_model(tiny_cfg(freeze_extractors=False), corpus, store)
    out = model.vision_tokens(corpus[:2])
    assert out.requires_grad
    assert not store


def test_store_shared_across_extractor_seeds_matches_fresh_stores(corpus):
    """Configs that differ only in extractor_seed share one store and still
    each get the tokens a fresh store gives them."""
    cfgs = [tiny_cfg(extractor_seed=s, fusion_op=op)
            for s, op in ((777, "concatenate"), (778, "add"))]
    store = {}
    shared = [build_model(cfg, corpus, store).vision_tokens(corpus[:4]).data for cfg in cfgs]
    fresh = [build_model(cfg, corpus).vision_tokens(corpus[:4]).data for cfg in cfgs]
    for a, b in zip(shared, fresh):
        np.testing.assert_array_equal(a, b)
    assert [len(table) for table in store.values()] == [4, 4]


def test_store_tables_keep_extractor_seeds_apart(corpus):
    """Two configs that differ only in extractor_seed, sharing one store, are
    bound to a table each and get different tokens for the same examples."""
    store = {}
    a, b = (build_model(tiny_cfg(extractor_seed=s), corpus, store) for s in (777, 778))
    tokens = [model.vision_tokens(corpus[:4]).data for model in (a, b)]
    assert a.store is not b.store and list(store) == [(a.vision_dims, 777), (a.vision_dims, 778)]
    assert np.abs(tokens[0] - tokens[1]).max() > 1e-6


def test_store_table_is_looked_up_once_per_model_build(corpus, monkeypatch):
    """A model finds its table of the store when it is built; training and
    prediction over stored examples then hash no VisionDims: one hash per
    build, none per example."""
    from vivqa.vision import VisionDims

    cfg = tiny_cfg()
    store = {}
    build_model(cfg, corpus, store).fill_store(corpus)
    hashes, vision_hash = [], VisionDims.__hash__

    def counting_hash(dims):
        hashes.append(dims)
        return vision_hash(dims)

    monkeypatch.setattr(VisionDims, "__hash__", counting_hash)
    for _ in range(2):
        model = build_model(cfg, corpus, store)
        train_model(model, corpus, cfg)
        predict_split(model, corpus)
    assert len(hashes) <= 2


def test_vision_tokens_adapt_store_misses_once_per_batch(corpus, monkeypatch):
    """A batch of store hits, misses and a repeated example extracts each
    distinct missing image once, in one stub call and one adapter pass, and
    gives every item the tokens it gets alone."""
    import vivqa.model as model_mod
    from vivqa.data import example_noise_seed

    cfg = tiny_cfg(vision_mode="both", fusion_op="concatenate")
    model = build_model(cfg, corpus)
    model.vision_tokens(corpus[:3])
    batch = [corpus[0], corpus[3], corpus[1], corpus[4], corpus[3]]
    adapts, stacks, rendered = [], [], []
    adapt, extract, render = (model_mod.adapt_local, model_mod.extract_global_stub,
                              model_mod.render_synthetic)

    def counting_adapt(v, dims):
        adapts.append(v.shape)
        return adapt(v, dims)

    def counting_extract(imgs, params):
        stacks.append(len(imgs))
        return extract(imgs, params)

    def counting_render(spec, dims, noise_seed):
        rendered.append(noise_seed)
        return render(spec, dims, noise_seed=noise_seed)

    monkeypatch.setattr(model_mod, "adapt_local", counting_adapt)
    monkeypatch.setattr(model_mod, "extract_global_stub", counting_extract)
    monkeypatch.setattr(model_mod, "render_synthetic", counting_render)
    out = model.vision_tokens(batch).data
    assert len(adapts) == 1 and adapts[0][0] == 2
    assert stacks == [2]
    assert sorted(rendered) == sorted(example_noise_seed(ex.id) for ex in corpus[3:5])
    monkeypatch.undo()
    fresh = build_model(cfg, corpus)
    alone = np.concatenate([fresh.vision_tokens([ex]).data for ex in batch])
    np.testing.assert_array_equal(out, alone)


def test_fill_store_chunk_mixing_hits_repeats_synthetic_and_vvqf(corpus, tmp_path,
                                                                 monkeypatch):
    """One fill over store hits, a repeated example, `synthetic:` refs and
    VVQF pairs, chunked at `batch_size`: every entry is bitwise what the
    example gets alone from a fresh store, only misses are extracted, and a
    file's rows are its files' payloads."""
    cfg = tiny_cfg(vision_mode="both", fusion_op="add", batch_size=3)
    source = build_model(cfg, corpus)
    files = []
    for ex in corpus[10:13]:
        base = str(tmp_path / ex.id)
        g, l = source.visual_features(ex)
        write_feature_file(base + ".global.vvqf", g)
        write_feature_file(base + ".local.vvqf", l)
        files.append(dataclasses.replace(ex, id=f"file-{ex.id}", image=base))
    model = build_model(cfg, corpus)
    model.fill_store(corpus[:2])
    examples = [corpus[0], files[0], corpus[2], corpus[2], files[1], corpus[1], corpus[3],
                files[2], files[0]]
    stacks = []
    extract = model_mod.extract_global_stub

    def counting(imgs, params):
        stacks.append(len(imgs))
        return extract(imgs, params)

    monkeypatch.setattr(model_mod, "extract_global_stub", counting)
    keys = model.fill_store(examples)
    monkeypatch.undo()
    assert stacks == [1, 1]     # misses in order: f0 c2 f1 | c3 f2
    assert len(model.store) == 2 + 5
    for ex, key in zip(examples, keys):
        alone = build_model(cfg, corpus)
        alone.fill_store([ex])
        for got, want in zip(model.store[key], alone.store[key]):
            assert got.tobytes() == want.tobytes()
    for ex in files:
        g, l = (read_feature_file(ex.image + suffix).data.astype(np.float64)
                for suffix in (".global.vvqf", ".local.vvqf"))
        assert model.store[ex.image][0].tobytes() == g.tobytes()
        want = adapt_local(Tensor(l[None]), model.vision_dims).data[0]
        assert model.store[ex.image][1].tobytes() == want.tobytes()


def test_vvqf_examples_on_one_file_share_one_store_entry(corpus, tmp_path, monkeypatch):
    """Questions with different ids on one VVQF image read each `.vvqf` once
    and make one store entry, and each gets the file's tokens bitwise."""
    cfg = tiny_cfg(vision_mode="both", fusion_op="add")
    model = build_model(cfg, corpus)
    base = str(tmp_path / "shared")
    for part, suffix in zip(model.visual_features(corpus[0]), (".global.vvqf", ".local.vvqf")):
        write_feature_file(base + suffix, part)
    examples = [dataclasses.replace(ex, id=f"q{i}", image=base) for i, ex in enumerate(corpus[:3])]
    reads, read = [], model_mod.read_feature_file
    monkeypatch.setattr(model_mod, "read_feature_file",
                        lambda path: reads.append(path) or read(path))
    out = model.vision_tokens(examples).data
    monkeypatch.undo()
    assert sorted(reads) == [base + ".global.vvqf", base + ".local.vvqf"]
    assert list(model.store) == [base]
    glob = read(base + ".global.vvqf").data
    assert model.store[base][0].tobytes() == glob.astype(np.float64).tobytes()
    alone = build_model(cfg, corpus).vision_tokens(examples[:1]).data[0]
    assert all(row.tobytes() == alone.tobytes() for row in out)


def test_each_question_is_tokenized_once_per_model(corpus, monkeypatch):
    """Two epochs of training and a predict tokenize each distinct question
    once; the cached ids and mask are read-only and the logits are bitwise
    those of a fresh tokenization."""
    calls = []

    def counting(question, vocab, l_max):
        calls.append(question)
        return tokenize(question, vocab, l_max)

    monkeypatch.setattr(model_mod, "tokenize", counting)
    cfg = tiny_cfg(epochs=2)
    model = build_model(cfg, corpus)
    train_model(model, corpus, cfg)
    predict_split(model, corpus)
    assert sorted(calls) == sorted({ex.question for ex in corpus})
    for question, tq in model._tokens.items():
        assert not tq.ids.flags.writeable and not tq.mask.flags.writeable
        fresh = tokenize(question, model.vocab, cfg.l_max)
        np.testing.assert_array_equal(tq.ids, fresh.ids)
        np.testing.assert_array_equal(tq.mask, fresh.mask)
    with T.no_grad():
        cached = model.forward(corpus[:8]).data
        model._tokens.clear()
        assert model.forward(corpus[:8]).data.tobytes() == cached.tobytes()


TINY_TRAIN = dict(preset="tiny", layers=2, heads=2, batch_size=16, lr=1e-3, drop_path=0.1,
                  epochs=6, seed=0)


@pytest.fixture(scope="module")
def tiny_train_run():
    """The benchmark's tiny-train run: 48 steps of a 2-layer model, one
    graph per minibatch with its vision tokens served from the store."""
    cfg = RunConfig(**TINY_TRAIN)
    corpus = make_synthetic(128, 4, 4, seed=0)
    model = build_model(cfg, corpus)
    report = train_model(model, corpus, cfg)
    return model, report, predict_split(model, corpus)


def test_tiny_train_backward_node_visits(tiny_train_run):
    _, report, _ = tiny_train_run
    # Each multiway sublayer is one node (two per block), and so are the
    # pooler and the classifier.  Each step's input is three nodes: the
    # token and positional rows (`text.encode`), the projection, and the
    # concatenation with its position and type rows (`concat_modalities`).
    assert report.backward_node_visits == 2976


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def tiny_train_digests() -> dict:
    """sha256 of the tiny-train run's epoch losses, predictions, trained
    arena and report.json, as `run_training` writes it."""
    corpus = make_synthetic(128, 4, 4, seed=0)
    with tempfile.TemporaryDirectory() as out:
        report, model = run_training(RunConfig(**TINY_TRAIN, out=out), corpus, [])
        with open(os.path.join(out, "report.json"), "rb") as fh:
            report_json = fh.read()
    losses = " ".join(float(v).hex() for v in report.epoch_losses)
    predictions = json.dumps([[r.id, r.prediction] for r in predict_split(model, corpus)])
    return {"losses": _sha256(losses.encode()), "predictions": _sha256(predictions.encode()),
            "arena": _sha256(model.arena.tobytes()), "report": _sha256(report_json)}


def test_tiny_train_is_bitwise_the_pinned_run():
    """Epoch losses, predictions and the trained arena of the tiny-train run
    hash to the digests pinned here, taken on the declared numeric baseline
    (`numeric_baseline`): a kernel change that moves one bit of training
    fails this test."""
    digests = run_child("test_model_train", "tiny_train_digests", baseline_env())
    digests.pop("report")
    assert digests == {
        "losses": "c18d8e3201be31e7d22308046939c72e8e46d8de5129f5f0877da458f61c250f",
        "predictions": "f428ff9d69c7bf57f784c5628e3134116a7b17489059272460d3eb036ffc105c",
        "arena": "6f94fff7963d2736bf852c3ef09a25fe13b4288fb588ec4abbf6bb131d69044e",
    }


def test_tiny_train_bits_do_not_depend_on_the_blas_thread_count():
    """The tiny-train run on 1 and on 2 OpenBLAS threads, on this host's own
    code path, writes the same report.json and trains the same arena."""
    runs = [run_child("test_model_train", "tiny_train_digests",
                      child_env(OPENBLAS_NUM_THREADS=str(n))) for n in (1, 2)]
    assert runs[0] == runs[1]


def test_training_and_prediction_never_import_numpy_ma():
    """One tiny training step and a predict leave numpy.ma (which np.unique
    imports, 1.7 MB of resident memory) and scipy unimported."""
    code = """
import sys
from vivqa.config import RunConfig
from vivqa.data import make_synthetic
from vivqa.train import build_model, predict_split, train_model
cfg = RunConfig(preset="tiny", layers=1, heads=2, batch_size=8, epochs=1, seed=0)
corpus = make_synthetic(8, 2, 2, seed=0)
model = build_model(cfg, corpus)
train_model(model, corpus, cfg)
predict_split(model, corpus)
print(sorted(m for m in ("numpy.ma", "scipy") if m in sys.modules))
"""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("drop_path", [0.0, 0.5])
@pytest.mark.parametrize("layers", [1, 3])
@pytest.mark.parametrize("vision_mode, fusion_op", [
    ("global", "concatenate"), ("local", "concatenate"),
    *[("both", op) for op in FUSION_OPS]])
def test_row0_forward_matches_all_rows_oracle(corpus, monkeypatch, vision_mode, fusion_op,
                                              layers, drop_path):
    """Logits and every parameter gradient equal those of pooling the last
    block's full output, to 1e-12."""
    cfg = tiny_cfg(layers=layers, drop_path=drop_path, vision_mode=vision_mode,
                   fusion_op=fusion_op, freeze_extractors=False)
    model = build_model(cfg, corpus)
    batch = corpus[:5]
    targets = [model.answer_vocab.index[ex.answer] for ex in batch]
    params = model.trainable_params()

    def logits_and_grads():
        model.grad.fill(0.0)
        logits = model.forward(batch, drop_table(cfg, batch))
        T.backward(T.cross_entropy(logits, targets))
        return logits.data, {name: p.grad.copy() for name, p in params.items()}

    logits, grads = logits_and_grads()
    full = model_mod.fusion_encode          # the oracle: all rows, then pool row 0
    monkeypatch.setattr(model_mod, "fusion_encode",
                        lambda f, stack, drop=None, keep=None, weights_sink=None:
                        full(f, stack, drop))
    want_logits, want_grads = logits_and_grads()
    np.testing.assert_allclose(logits, want_logits, rtol=0, atol=1e-12)
    for name, want in want_grads.items():
        np.testing.assert_allclose(grads[name], want, rtol=0, atol=1e-12, err_msg=name)


def _op_by_op_logits(model, examples):
    """`VivqaModel.forward` with its input stage built op by op: the token
    and positional lookups and their `add`, the projection's `linear`, the
    `concat`, and an `add` of each lookup of the batch-broadcast position
    and type rows."""
    tokens = [tokenize(ex.question, model.vocab, model.cfg.l_max) for ex in examples]
    ids = np.stack([tq.ids for tq in tokens])
    table, positional = model.text_params.params.values()
    x = T.add(T.embedding_lookup(table, ids),
              T.embedding_lookup(positional, np.broadcast_to(np.arange(ids.shape[1]), ids.shape)))
    v = model.vision_tokens(examples)
    seq = T.concat([v, T.linear(x, *model.projection.params.values())], axis=1)
    k, rows = v.shape[1], np.broadcast_to(np.arange(seq.shape[1]), seq.shape[:2])
    seq = T.add(seq, T.embedding_lookup(model.fusion.params["fusion.position"], rows))
    seq = T.add(seq, T.embedding_lookup(model.fusion.params["fusion.type"], rows >= k))
    mask = np.concatenate([np.ones((len(examples), k)), np.stack([tq.mask for tq in tokens])], 1)
    fused = encode(FusedSequence(seq, k, mask), model.fusion, keep=1)
    return classify(pool_cls(fused, model.fusion), model.classifier)


@pytest.mark.parametrize("batch", [1, 3, 16])
@pytest.mark.parametrize("kw", [dict(vision_mode="both"), dict(vision_mode="global"),
                                dict(vision_mode="local"), dict(freeze_extractors=False)])
def test_forward_is_bitwise_the_op_by_op_input_graph(corpus, kw, batch):
    """The fused input nodes leave the logits and, after one backward, the
    whole gradient arena bitwise where the op-by-op input graph does."""
    model = build_model(tiny_cfg(layers=2, **kw), corpus)
    examples = corpus[:batch]
    targets = [model.answer_vocab.index[ex.answer] for ex in examples]

    def run(forward):
        model.grad.fill(0.0)
        logits = forward(examples)
        T.backward(T.cross_entropy(logits, targets))
        return logits.data.tobytes(), model.grad.tobytes()

    assert run(model.forward) == run(lambda batch: _op_by_op_logits(model, batch))


# Every trainable parameter's largest gradient is above this fraction of the
# arena's largest after one step: 2.5e-3 is the smallest fraction a read
# parameter gets in these configs, and a key bias, which softmax ignores, got
# rounding noise of at most 5.5e-18.
READ_BY_THE_LOSS = 1e-10


@pytest.mark.parametrize("freeze", [True, False])
@pytest.mark.parametrize("layers", [1, 2])
def test_every_trainable_parameter_is_read_by_the_loss(corpus, layers, freeze):
    """No parameter is trained by weight decay alone: after one tiny step
    with drop path 0, each arena parameter's max |grad| exceeds
    READ_BY_THE_LOSS times the arena's."""
    model = build_model(tiny_cfg(layers=layers, freeze_extractors=freeze), corpus)
    batch = corpus[:8]
    logits = model.forward(batch)
    T.backward(T.cross_entropy(logits, [model.answer_vocab.index[ex.answer] for ex in batch]))
    grads = {name: np.abs(p.grad).max() for name, p in model.trainable_params().items()}
    top = max(grads.values())
    assert top > 0
    assert not [name for name, g in grads.items() if not g > READ_BY_THE_LOSS * top]


@pytest.mark.parametrize("seed", range(2))
def test_row0_composed_forward_grad_check(seed):
    """c2's composed audit on the forward that computes row 0 alone in the
    last block, with respect to the vision and the text rows."""
    corpus = make_synthetic(8, 2, 2, seed=5)
    cfg = tiny_cfg(layers=2, vision_mode="global")
    model = build_model(cfg, corpus)
    batch = corpus[:2]
    tokens = [tokenize(ex.question, model.vocab, cfg.l_max) for ex in batch]
    mask = np.stack([tq.mask for tq in tokens])
    v0 = model.vision_tokens(batch).detach()
    q0 = project(text_encode(np.stack([tq.ids for tq in tokens]), model.text_params),
                 model.projection).detach()
    targets = [model.answer_vocab.index[ex.answer] for ex in batch]

    def composed(v, q):
        seq = encode(concat_modalities(v, q, mask, model.fusion), model.fusion, keep=1)
        return T.cross_entropy(classify(pool_cls(seq, model.fusion), model.classifier),
                               targets)

    r = np.random.default_rng(5000 + seed)
    v = Tensor(v0.data + 0.1 * r.normal(size=v0.shape))
    q = Tensor(q0.data + 0.1 * r.normal(size=q0.shape))
    assert T.grad_check(lambda t: composed(t, q), v, h=1e-5) <= 1e-4
    assert T.grad_check(lambda t: composed(v, t), q, h=1e-5) <= 1e-4


def test_weights_sink_gets_each_layers_attention(corpus):
    """One array per layer: (B, heads, rows, rows) per inner block and the
    pooled row's (B, heads, 1, rows) last; rows sum to 1, padded keys get
    weight exactly 0, and the sink leaves the logits bitwise unchanged."""
    cfg = tiny_cfg(layers=3)
    model = build_model(cfg, corpus)
    batch = corpus[:4]
    sink = []
    logits = model.forward(batch, weights_sink=sink).data
    k = model.vision_tokens(batch).shape[1]
    rows = k + cfg.l_max + 2
    assert [w.shape for w in sink] == [(4, 2, rows, rows)] * 2 + [(4, 2, 1, rows)]
    text_mask = np.stack([tokenize(ex.question, model.vocab, cfg.l_max).mask for ex in batch])
    padded = np.concatenate([np.zeros((4, k), bool), text_mask == 0], axis=1)
    assert padded.any()
    for w in sink:
        np.testing.assert_allclose(w.sum(axis=-1), 1.0, rtol=0, atol=1e-12)
        assert np.all(w.transpose(0, 3, 1, 2)[padded] == 0.0)
        assert np.all(w.transpose(0, 3, 1, 2)[~padded] > 0.0)
    np.testing.assert_array_equal(logits, model.forward(batch).data)


def test_no_drop_path_table_at_rate_0(corpus, monkeypatch):
    """At rate 0 a training run builds no table and every forward gets None;
    a forward handed a table equals one without it, bitwise.  Block 0 of a
    ramp (rate 0) is given no column, so its columns are never read."""
    tables, drops = [], []
    monkeypatch.setattr(train_mod, "keep_table", lambda *args: tables.append(args))
    cfg = tiny_cfg(layers=2, epochs=1)
    model = build_model(cfg, corpus)
    forward = model.forward

    def recording_forward(examples, drop=None):
        drops.append(drop)
        return forward(examples, drop)

    monkeypatch.setattr(model, "forward", recording_forward)
    train_model(model, corpus, cfg)
    assert not tables and drops == [None] * 3

    batch = corpus[:4]
    noise = np.full((4, 4), np.nan)
    np.testing.assert_array_equal(forward(batch, noise).data, forward(batch).data)
    ramp = build_model(tiny_cfg(layers=2, drop_path=0.5), corpus)
    block = multiway_mod.multiway_block

    def recording_block(f, p, drop=None, *args):
        drops.append(drop)
        return block(f, p, drop, *args)

    monkeypatch.setattr(multiway_mod, "multiway_block", recording_block)
    drops.clear()
    table = drop_table(ramp.cfg, batch)
    logits = ramp.forward(batch, table).data
    assert drops[0] is None and drops[1].shape == (4, 2)
    table[:, :2] = np.nan
    np.testing.assert_array_equal(ramp.forward(batch, table).data, logits)


def test_drop_path_masks_do_not_depend_on_the_batch(corpus, monkeypatch):
    """train_model gives an example its `drop_table` row of the epoch
    whatever batch it sits in, at any position: batch sizes 3 and 8 (one
    ordering of the split per epoch) put it elsewhere."""
    cfg = tiny_cfg(layers=2, epochs=2, drop_path=0.5)
    want = [dict(zip([ex.id for ex in corpus], drop_table(cfg, corpus, epoch)))
            for epoch in range(cfg.epochs)]
    assert want[0].keys() == {ex.id for ex in corpus}
    for batch_size in (3, 8):
        cfg = dataclasses.replace(cfg, batch_size=batch_size)
        model = build_model(cfg, corpus)
        forward, rows = model.forward, []

        def recording_forward(examples, drop=None, forward=forward, rows=rows):
            rows.extend(zip(examples, drop.copy()))
            return forward(examples, drop)

        monkeypatch.setattr(model, "forward", recording_forward)
        train_model(model, corpus, cfg)
        assert len(rows) == cfg.epochs * len(corpus)
        for i, (ex, row) in enumerate(rows):
            assert row.tobytes() == want[i // len(corpus)][ex.id].tobytes(), (batch_size, i)


def test_train_model_feeds_every_split_position_once_per_epoch():
    """Two default-prefix corpora reuse ids for other images; every position
    of the split, not the first example seen per id, reaches the model."""
    split = make_synthetic(8, 4, 4, seed=0) + make_synthetic(8, 4, 4, seed=1)
    assert len({(ex.id, ex.image) for ex in split}) < len(split)
    cfg = tiny_cfg(epochs=2, batch_size=4)
    model = build_model(cfg, split)
    seen = []
    forward = model.forward

    def recording_forward(examples, drop=None):
        seen.extend(examples)
        return forward(examples, drop)

    model.forward = recording_forward
    train_model(model, split, cfg)
    for epoch in range(cfg.epochs):
        fed = seen[epoch * len(split):(epoch + 1) * len(split)]
        assert sorted(map(id, fed)) == sorted(map(id, split))


def test_examples_sharing_an_id_get_their_own_drop_path_rows(monkeypatch):
    """Drop path is keyed by (id, image ref): two corpora with the default id
    prefix share ids for other images, and each such pair gets two tables
    of rows over the epochs (keyed by id alone, all 7 pairs shared theirs)."""
    split = make_synthetic(8, 4, 4, seed=0) + make_synthetic(8, 4, 4, seed=1)
    cfg = tiny_cfg(layers=4, epochs=2, batch_size=16, drop_path=0.5)
    model = build_model(cfg, split)
    rows, forward = {}, model.forward

    def recording_forward(examples, drop=None):
        for ex, row in zip(examples, drop):
            rows[ex.id, ex.image] = rows.get((ex.id, ex.image), b"") + row.tobytes()
        return forward(examples, drop)

    monkeypatch.setattr(model, "forward", recording_forward)
    train_model(model, split, cfg)
    shared = [(a, b) for a in split[:8] for b in split[8:] if a.id == b.id and a.image != b.image]
    assert len(shared) == 7
    for a, b in shared:
        assert rows[a.id, a.image] != rows[b.id, b.image], a.id


@pytest.mark.parametrize("warmup_ratio", [0.1, 0.0])
def test_one_step_run_moves_every_trainable_parameter(corpus, warmup_ratio):
    """A run of one optimizer step trains: its step's rate is positive,
    never the warmup's lr_at(0) == 0 or the floor."""
    cfg = tiny_cfg(epochs=1, batch_size=len(corpus), warmup_ratio=warmup_ratio,
                   freeze_extractors=False, vision_mode="both")
    model = build_model(cfg, corpus)
    before = {name: p.data.copy() for name, p in model.trainable_params().items()}
    train_model(model, corpus, cfg)
    still = [name for name, p in model.trainable_params().items()
             if np.array_equal(p.data, before[name])]
    assert still == []


def test_vvqf_image_path(tmp_path, corpus):
    cfg = tiny_cfg()
    model = build_model(cfg, corpus)
    dims = model.vision_dims
    r = np.random.default_rng(0)
    base = tmp_path / "img0"
    write_feature_file(str(base) + ".global.vvqf",
                       T.Tensor(r.normal(size=(dims.n_tokens, dims.token_dim))))
    write_feature_file(str(base) + ".local.vvqf",
                       T.Tensor(r.normal(size=(dims.local_channels, dims.grid,
                                               dims.grid))))
    from vivqa.data import Example
    ex = Example(id="v1", image=str(base), question="màu gì", answer=corpus[0].answer)
    logits = model.forward([ex, corpus[0]])
    assert logits.shape == (2, len(model.answer_vocab))


@pytest.mark.parametrize("kind, shape", [("global", (3, 5)), ("local", (16, 6, 6))])
def test_cli_eval_misshapen_vvqf_exits_3(tmp_path, corpus, capsys, kind, shape):
    """Feature files must have the preset's extractor output shapes."""
    model = build_model(tiny_cfg(), corpus)
    ckpt = tmp_path / "checkpoint.npz"
    save_checkpoint(ckpt, model)
    dims = model.vision_dims
    want = {"global": (dims.n_tokens, dims.token_dim),
            "local": (dims.local_channels, dims.grid, dims.grid)}
    base = str(tmp_path / "img0")
    for k, good in want.items():
        write_feature_file(f"{base}.{k}.vvqf", T.Tensor(np.zeros(shape if k == kind else good)))
    data = tmp_path / "corpus.jsonl"
    write_json_lines(data, [dataclasses.replace(corpus[0], image=base)])
    assert main(["eval", "--ckpt", str(ckpt), "--data", str(data)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1
    assert f"{base}.{kind}.vvqf" in err and str(want[kind]) in err


def test_param_counts_freeze_contract(corpus):
    frozen = build_model(tiny_cfg(freeze_extractors=True), corpus)
    unfrozen = build_model(tiny_cfg(freeze_extractors=False), corpus)
    pf, pu = frozen.param_counts(), unfrozen.param_counts()
    assert pf["total"] == pu["total"]
    assert pf["trainable"] < pu["trainable"]
    assert pf["frozen"] > 0 and pu["frozen"] == 0
    ext_names = set(frozen.extractor.params)
    assert not (ext_names & set(frozen.trainable_params()))
    assert ext_names <= set(unfrozen.trainable_params())


@pytest.mark.parametrize("freeze", [True, False])
def test_each_parameter_has_one_name(corpus, freeze):
    """The components' merged `params` are the layout's names in arena order,
    each the arena's tensor; no tensor appears under two names, and a frozen
    extractor's four names stay outside the layout."""
    model = build_model(tiny_cfg(layers=2, freeze_extractors=freeze), corpus)
    parts = [model.text_params, model.projection, model.fusion, model.classifier, model.extractor]
    merged = {name: t for part in parts for name, t in part.params.items()}
    arena = model.trainable_params()
    layout = [name for name, _ in model.layout()]
    assert list(arena) == layout
    inside = [name for name in merged if name in arena]
    assert sorted(inside, key=lambda n: n.endswith((".bias", ".gamma", ".beta"))) == layout
    assert all(merged[name] is arena[name] for name in layout)
    assert len({id(t) for t in merged.values()}) == len(merged)
    extractor = ["extractor.global.weight", "extractor.global.bias", "extractor.local.weight",
                 "extractor.local.bias"]
    assert list(model.extractor.params) == extractor
    assert set(merged) - set(layout) == (set(extractor) if freeze else set())


def _assert_arena_views(model):
    """Each `p.data` and `p.grad` is the view of `model.arena` and
    `model.grad` at the parameter's offset, and `arena[:n_decay]` holds
    exactly the parameters without a decay-exempt suffix."""
    start, decayed, exempt = 0, 0, []
    for name, p in model.trainable_params().items():
        assert p.requires_grad, name
        for view, arena in ((p.data, model.arena), (p.grad, model.grad)):
            assert view.base is arena and view.shape == p.shape, name
            assert view.ctypes.data == arena.ctypes.data + 8 * start, name
        exempt.append(name.endswith((".bias", ".gamma", ".beta")))
        assert (start < model.n_decay) != exempt[-1], name
        decayed += 0 if exempt[-1] else p.size
        start += p.size
    assert decayed == model.n_decay
    assert model.arena.dtype == model.grad.dtype == np.float64
    assert start == model.arena.size == model.grad.size
    assert exempt == sorted(exempt) and set(exempt) == {False, True}
    names = set(model.trainable_params())
    assert any(n.endswith(".bias") for n in names) and any(n.endswith(".gamma") for n in names)


def test_decay_exempt_names(corpus):
    """The parameters past `arena[:n_decay]` are the biases and the norm
    scales and shifts, and no weight."""
    model = build_model(tiny_cfg(), corpus)
    exempt = [n for n, p in model.trainable_params().items()
              if p.data.ctypes.data >= model.arena.ctypes.data + 8 * model.n_decay]
    assert any(n.endswith(".bias") for n in exempt)
    assert any(n.endswith(".gamma") for n in exempt)
    assert all(n.endswith((".bias", ".gamma", ".beta")) for n in exempt)
    assert not any(n.endswith(".weight") for n in exempt)


@pytest.mark.parametrize("freeze", [True, False])
def test_parameters_are_views_of_the_model_arena_in_order(tmp_path, corpus, freeze):
    """One float64 arena of trainable parameters and one of their gradients:
    decayed ones, then exempt ones, each a view at its offset, from build
    through training, and in a loaded model, whose gradients are zeros.
    Only an unfrozen extractor is in it."""
    cfg = tiny_cfg(layers=2, epochs=1, freeze_extractors=freeze)
    model = build_model(cfg, corpus)
    _assert_arena_views(model)
    extractor = set(model.extractor.params)
    assert extractor & set(model.trainable_params()) == (set() if freeze else extractor)
    assert model.layout() == [[n, list(p.shape)] for n, p in model.trainable_params().items()]
    train_model(model, corpus, cfg)
    _assert_arena_views(model)
    save_checkpoint(tmp_path / "ckpt.npz", model)
    loaded, _ = load_checkpoint(tmp_path / "ckpt.npz")
    _assert_arena_views(loaded)
    assert loaded.n_decay == model.n_decay and not loaded.grad.any()


# sha256 over (name, bytes) in name order of every drawn parameter, taken
# when each parameter still lived in the array its own stream drew it into,
# less the key biases and the last block's language expert, since deleted.
PER_PARAMETER_DRAWS = [
    pytest.param({}, "fb7fcb803e7f821b08762eeec127d57d2404e5ae00c878c35621f2659090e874",
                 id="tiny"),
    pytest.param(dict(layers=3, vision_mode="both", fusion_op="add", freeze_extractors=False,
                      seed=5),
                 "d7756d2542fb23d5fd2bae895461930203897f8afb59ec847a166ff99f1b6afe",
                 id="unfrozen-3-layers"),
]


@pytest.mark.parametrize("scale", [1.0, 0.02, 1.0 / np.sqrt(24)])
def test_normal_into_draws_what_normal_draws(scale):
    out = np.empty((37, 5))
    RngStream(11).split("w").normal_into(out, scale)
    assert out.tobytes() == RngStream(11).split("w").normal((37, 5), scale).tobytes()


@pytest.mark.parametrize("kw, digest", PER_PARAMETER_DRAWS)
def test_arena_holds_the_per_parameter_draws_bitwise(corpus, kw, digest):
    model = build_model(tiny_cfg(**kw), corpus)
    h = hashlib.sha256()
    for name, p in sorted({**model.trainable_params(),
                           **model.extractor.params}.items()):
        h.update(name.encode())
        h.update(p.data.tobytes())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("freeze", [True, False])
def test_training_steps_the_model_arena_in_place(corpus, freeze):
    """The optimizer copies no parameter: after training every parameter
    is still the same array.  The arena moved; the frozen extractor did
    not, and an unfrozen one, in the arena, trained."""
    cfg = tiny_cfg(epochs=1, freeze_extractors=freeze)
    model = build_model(cfg, corpus)
    params = {**model.trainable_params(), **model.extractor.params}
    addresses = {name: p.data.ctypes.data for name, p in params.items()}
    before = {name: p.data.copy() for name, p in params.items()}
    train_model(model, corpus, cfg)
    assert {name: p.data.ctypes.data for name, p in params.items()} == addresses
    moved = {name for name, p in params.items() if (p.data != before[name]).any()}
    assert moved and moved <= set(model.trainable_params())
    extractor = set(model.extractor.params)
    assert extractor & moved == (set() if freeze else extractor)


def test_training_frozen_extractor_bytes_unchanged(corpus):
    """A frozen model's extractor is the process's one read-only draw: no
    model can write into it."""
    cfg = tiny_cfg(epochs=1)
    model = build_model(cfg, corpus)
    before = model.extractor.byte_digest()
    train_model(model, corpus, cfg)
    assert model.extractor.byte_digest() == before
    assert model.extractor is frozen_extractor(model.vision_dims, cfg.extractor_seed)
    for name, p in model.extractor.params.items():
        with pytest.raises(ValueError, match="read-only"):
            p.data[...] = 0.0


def test_training_unfrozen_extractor_changes(corpus):
    cfg = tiny_cfg(epochs=1, freeze_extractors=False)
    model = build_model(cfg, corpus)
    before = model.extractor.byte_digest()
    train_model(model, corpus, cfg)
    assert model.extractor.byte_digest() != before


def test_unfrozen_training_step_extracts_its_batch_in_one_call(corpus, monkeypatch):
    """One unfrozen training step runs the global stub once, over the whole
    batch, on the graph that reaches the extractor's parameters."""
    cfg = tiny_cfg(epochs=1, freeze_extractors=False)
    model = build_model(cfg, corpus)
    stacks, extract = [], model_mod.extract_global_stub

    def counting(imgs, params):
        stacks.append(len(imgs))
        return extract(imgs, params)

    monkeypatch.setattr(model_mod, "extract_global_stub", counting)
    train_model(model, corpus[:cfg.batch_size], cfg)
    assert stacks == [cfg.batch_size]
    assert all(p.grad.any() for p in model.extractor.params.values())


def test_unfrozen_training_on_vvqf_files_raises_before_any_step(corpus, tmp_path, monkeypatch):
    """A feature file holds a frozen extractor's output: unfrozen training on
    a VVQF corpus is a DataError naming the first file ref, before any
    `AdamW.step`."""
    cfg = tiny_cfg(epochs=2, batch_size=4, freeze_extractors=False)
    base = str(tmp_path / "shared")
    examples = [dataclasses.replace(ex, id=f"q{i}", image=base) for i, ex in enumerate(corpus[:4])]
    model = build_model(cfg, examples)
    for part, suffix in zip(model.visual_features(corpus[0]), (".global.vvqf", ".local.vvqf")):
        write_feature_file(base + suffix, part)
    steps = []
    monkeypatch.setattr(AdamW, "step", lambda opt, lr: steps.append(lr))
    with pytest.raises(DataError, match=f"^{re.escape(base)}: not a synthetic image ref "
                                        r"\(a feature file feeds frozen extractors only\)$"):
        train_model(model, examples, cfg)
    assert steps == []


def test_unfrozen_training_on_a_mixed_corpus_raises_before_any_step(tmp_path, monkeypatch):
    """One VVQF pair among 63 `synthetic:` examples: unfrozen training refuses
    the file ref before its first `AdamW.step`, whichever batch holds it."""
    cfg = tiny_cfg(epochs=2, batch_size=8, freeze_extractors=False)
    synthetic = make_synthetic(63, 4, 4, seed=7)
    base = str(tmp_path / "pair")
    examples = synthetic + [dataclasses.replace(synthetic[0], id="file", image=base)]
    model = build_model(cfg, examples)
    for part, suffix in zip(model.visual_features(synthetic[0]), (".global.vvqf", ".local.vvqf")):
        write_feature_file(base + suffix, part)
    steps = []
    monkeypatch.setattr(AdamW, "step", lambda opt, lr: steps.append(lr))
    with pytest.raises(DataError, match=f"^{re.escape(base)}: not a synthetic image ref"):
        train_model(model, examples, cfg)
    assert steps == []


def test_unfrozen_mixed_batch_trains_the_extractor_like_one_graph_per_example(corpus,
                                                                             monkeypatch):
    """An unfrozen batch of `synthetic:` images with mixed cues keeps every
    stub row on the graph: logits and every gradient equal those of
    extracting each example alone and concatenating, to 1e-12."""
    cfg = tiny_cfg(freeze_extractors=False, vision_mode="both", fusion_op="add")
    model = build_model(cfg, corpus)
    batch = [corpus[1], corpus[0], corpus[2]]
    params = model.trainable_params()

    def logits_and_grads():
        model.grad.fill(0.0)
        logits = model.forward(batch)
        T.backward(T.cross_entropy(logits, [model.answer_vocab.index[ex.answer] for ex in batch]))
        return logits.data, {name: p.grad.copy() for name, p in params.items()}

    logits, grads = logits_and_grads()
    extract = model.extract
    monkeypatch.setattr(model, "extract", lambda examples: tuple(
        T.concat(list(parts), axis=0) for parts in zip(*(extract([ex]) for ex in examples))))
    want_logits, want_grads = logits_and_grads()
    np.testing.assert_allclose(logits, want_logits, rtol=0, atol=1e-12)
    for name, want in want_grads.items():
        np.testing.assert_allclose(grads[name], want, rtol=0, atol=1e-12, err_msg=name)
    assert all(grads[name].any() for name in model.extractor.params)


def test_loss_trajectory_bitwise_reproducible(corpus):
    cfg = tiny_cfg(epochs=3, drop_path=0.2)
    r1 = train_model(build_model(cfg, corpus), corpus, cfg)
    r2 = train_model(build_model(cfg, corpus), corpus, cfg)
    assert r1.epoch_losses == r2.epoch_losses
    r3 = train_model(build_model(tiny_cfg(epochs=3, drop_path=0.2, seed=1), corpus),
                     corpus, tiny_cfg(epochs=3, drop_path=0.2, seed=1))
    assert r1.epoch_losses != r3.epoch_losses


def test_predictions_reproducible(corpus):
    cfg = tiny_cfg(epochs=1)
    model = build_model(cfg, corpus)
    train_model(model, corpus, cfg)
    a = predict_split(model, corpus)
    b = predict_split(model, corpus)
    assert a == b


def test_cli_eval_exits_4_on_nonfinite_logits(tmp_path, corpus, capsys):
    """Parameters of 1e300 are finite, so the checkpoint loads, but its
    forward overflows to NaN logits: `vivqa eval` exits 4 naming the first
    example, where it scored class 0 for every example."""
    model = build_model(tiny_cfg(epochs=0), corpus)
    model.arena[:] = 1e300
    path, data = tmp_path / "ckpt.npz", tmp_path / "corpus.jsonl"
    save_checkpoint(path, model)
    write_json_lines(data, corpus)
    with np.errstate(all="ignore"):
        assert main(["eval", "--ckpt", str(path), "--data", str(data)]) == 4
    assert capsys.readouterr().err == f"error: example {corpus[0].id!r} has non-finite logits\n"


def test_nonfinite_logits_name_their_example_in_a_later_chunk(corpus, monkeypatch):
    """One non-finite logit in row 3 of the second eval chunk (of 2 * batch_size
    examples each) names that row's example."""
    cfg = tiny_cfg(epochs=0)
    model = build_model(cfg, corpus)
    forward, chunks = model.forward, []

    def poisoned(examples):
        chunks.append(examples)
        logits = forward(examples)
        if len(chunks) == 2:
            logits.data[3, 1] = np.inf
        return logits

    monkeypatch.setattr(model, "forward", poisoned)
    with pytest.raises(NumericalError, match=re.escape(repr(corpus[2 * cfg.batch_size + 3].id))):
        predict_split(model, corpus)


@pytest.mark.parametrize("n", [1, 16, 17])
def test_predict_split_runs_2_batch_size_examples_a_forward(corpus, monkeypatch, n):
    """At batch 8, n = 1, 2B and 2B + 1 examples take ceil(n / 16) forwards,
    and the records come back in split order."""
    model = build_model(tiny_cfg(epochs=0), corpus)
    forward, sizes = model.forward, []

    def spy(examples):
        sizes.append(len(examples))
        return forward(examples)

    monkeypatch.setattr(model, "forward", spy)
    records = predict_split(model, corpus[:n])
    assert len(sizes) == -(-n // (2 * model.cfg.batch_size)) and sum(sizes) == n
    assert [r.id for r in records] == [ex.id for ex in corpus[:n]]


def test_nan_loss_fails_fast_naming_epoch_and_step(corpus):
    cfg = tiny_cfg(epochs=2)
    model = build_model(cfg, corpus)
    model.classifier.params["classifier.fc2.weight"].data[0, 0] = np.nan
    with pytest.raises(NumericalError, match="epoch 0, step 0"):
        train_model(model, corpus, cfg)


def test_cli_train_exits_4_on_nan_loss(tmp_path, corpus, monkeypatch, capsys):
    import vivqa.train as train_mod

    def poisoned(cfg, split, store=None):
        model = build_model(cfg, split, store)
        model.classifier.params["classifier.fc2.weight"].data[:] = np.nan
        return model

    monkeypatch.setattr(train_mod, "build_model", poisoned)
    data = tmp_path / "corpus.jsonl"
    write_json_lines(data, corpus)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(preset="tiny", epochs=1, batch_size=8, layers=1,
                                   heads=2, lr=1e-3)))
    assert main(["train", "--config", str(cfg), "--data", str(data)]) == 4
    assert "training loss is nan at epoch 0, step 0" in capsys.readouterr().err


def test_cli_train_exits_4_on_nonfinite_gradient_under_finite_loss(tmp_path, corpus,
                                                                   monkeypatch, capsys):
    """An inf gradient under a finite loss stops the run at its step, naming
    the first poisoned parameter in arena order: classifier.fc2.weight is a
    decayed weight, text.proj.bias an exempt bias packed after it."""
    backward, zero_grad, optimizers, steps = T.backward, AdamW.zero_grad, [], []

    def recording_zero_grad(opt):
        optimizers.append(opt)
        zero_grad(opt)

    def poisoned_backward(loss):
        assert np.isfinite(loss.data)
        backward(loss)
        steps.append(loss)
        if len(steps) == 2:
            params = optimizers[-1].params
            params["text.proj.bias"].grad[0] = np.nan
            params["classifier.fc2.weight"].grad[1, 0] = np.inf

    monkeypatch.setattr(AdamW, "zero_grad", recording_zero_grad)
    monkeypatch.setattr(T, "backward", poisoned_backward)
    data = tmp_path / "corpus.jsonl"
    write_json_lines(data, corpus)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(preset="tiny", epochs=2, batch_size=8, layers=1,
                                   heads=2, lr=1e-3)))
    assert main(["train", "--config", str(cfg), "--data", str(data)]) == 4
    err = capsys.readouterr().err
    assert err == ("error: gradient of classifier.fc2.weight is non-finite "
                   "at epoch 0, step 1\n")


def test_early_stop(corpus):
    """The first epoch gets some train examples right (0.01 is under one of
    its 24), so the run stops after it."""
    cfg = tiny_cfg(epochs=50, early_stop_train_acc=0.01)
    model = build_model(cfg, corpus)
    rep = train_model(model, corpus, cfg)
    assert rep.epochs_run == 1


def test_run_training_writes_artifacts(tmp_path, corpus):
    out = tmp_path / "run"
    cfg = tiny_cfg(epochs=1, out=str(out))
    train, test = split_train_test(corpus, 0.75, 0)
    report, model = run_training(cfg, train, test)
    assert (out / "report.json").exists()
    assert (out / "checkpoint.npz").exists()
    assert (out / "timing.txt").exists()
    assert (out / "train_predictions.jsonl").exists()
    assert (out / "test_predictions.jsonl").exists()
    loaded = json.loads((out / "report.json").read_text())
    assert "wall_clock_seconds" not in loaded
    assert loaded["epoch_losses"] == report.epoch_losses
    assert loaded["train_metrics"]["n"] == len(train)


def test_run_training_records_its_platform_beside_timing(tmp_path, corpus):
    """platform.json names numpy's version, its dispatch targets and OpenBLAS's
    core and config; report.json names none of them."""
    out = tmp_path / "run"
    run_training(tiny_cfg(epochs=0, out=str(out)), corpus, [])
    record = json.loads((out / "platform.json").read_text())
    umath = np._core._multiarray_umath
    assert record["numpy"] == np.__version__
    assert sorted(record["cpu_dispatch"]) == sorted(umath.__cpu_dispatch__)
    assert record["openblas_corename"] and record["openblas_config"]
    report = (out / "report.json").read_text()
    assert "openblas" not in report and "cpu_dispatch" not in report


def test_platform_record_says_unknown_without_the_openblas_symbols(monkeypatch):
    monkeypatch.setattr(train_mod.ctypes, "CDLL", lambda path: object())
    record = train_mod.platform_record()
    assert record["openblas_corename"] == record["openblas_config"] == "unknown"


def test_report_json_bitwise_reproducible(tmp_path, corpus):
    train, test = split_train_test(corpus, 0.75, 0)
    texts = []
    for d in ("a", "b"):
        out = tmp_path / d
        run_training(tiny_cfg(epochs=2, out=str(out)), train, test)
        texts.append((out / "report.json").read_bytes())
    assert texts[0] == texts[1]


def test_checkpoint_round_trip(tmp_path, corpus):
    cfg = tiny_cfg(epochs=1)
    model = build_model(cfg, corpus)
    train_model(model, corpus, cfg)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, model)
    model2, extra = load_checkpoint(path)
    for name, p in model.trainable_params().items():
        np.testing.assert_array_equal(p.data, model2.trainable_params()[name].data)
    assert model2.answer_vocab.answers == model.answer_vocab.answers
    assert model2.vocab.tokens == model.vocab.tokens
    # predictions identical after reload
    a = predict_split(model, corpus)
    b = predict_split(model2, corpus)
    assert a == b
    # a frozen config's file holds no extractor entry, and extra meta keys are ignored
    with np.load(path) as z:
        arrays = dict(z)
    assert arrays["params"].size == model.param_counts()["trainable"]
    assert not [name for name, _ in _meta(arrays)["layout"] if name.startswith("extractor.")]
    _rewrite(path, arrays, dict(_meta(arrays), n_local_cues=2, opt_t=None))
    model3, meta = load_checkpoint(path)
    assert meta["n_local_cues"] == 2 and model3.arena.tobytes() == model.arena.tobytes()


def test_checkpoint_is_written_at_the_path_as_given(tmp_path, corpus):
    """A path without the `.npz` suffix is written as given, nothing else is,
    and it loads back bitwise."""
    model = build_model(tiny_cfg(epochs=0), corpus)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model)
    assert os.listdir(tmp_path) == ["model.ckpt"]
    loaded, _ = load_checkpoint(path)
    assert loaded.layout() == model.layout() and loaded.arena.tobytes() == model.arena.tobytes()


def test_checkpoint_load_draws_no_init_values(tmp_path, corpus, monkeypatch):
    """The checkpoint fills every parameter, so loading draws nothing from
    the init streams, and the round trip stays bitwise.  Predicting from
    VVQF feature files never draws the frozen extractor either."""
    cfg = tiny_cfg(epochs=1)
    model = build_model(cfg, corpus)
    train_model(model, corpus, cfg)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, model)
    files = []
    for ex in corpus:
        base = str(tmp_path / ex.id)
        g, l = model.visual_features(ex)
        write_feature_file(base + ".global.vvqf", g)
        write_feature_file(base + ".local.vvqf", l)
        files.append(dataclasses.replace(ex, image=base))

    def refuse(*args, **kwargs):
        raise AssertionError("load_checkpoint drew from an init stream")

    frozen_extractor.cache_clear()
    with monkeypatch.context() as m:
        m.setattr(RngStream, "normal", refuse)
        m.setattr(RngStream, "normal_into", refuse)
        loaded, _ = load_checkpoint(path)
        from_files = predict_split(loaded, files)
    assert frozen_extractor.cache_info().currsize == 0
    for name, p in model.trainable_params().items():
        np.testing.assert_array_equal(p.data, loaded.trainable_params()[name].data)
    assert from_files == predict_split(model, files)
    assert predict_split(loaded, corpus) == predict_split(model, corpus)


def test_checkpoint_version_guard(tmp_path, corpus):
    """Only version 2 loads; any other, 1 included, exits 2 as a config error."""
    cfg = tiny_cfg(epochs=0)
    model = build_model(cfg, corpus)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, model)
    with np.load(path) as z:
        arrays = dict(z)
    assert sorted(arrays) == ["meta", "params"] and _meta(arrays)["version"] == 2
    for version in (0, 1, 3, 99, True, 1.0, 2.0, "2"):
        _rewrite(path, arrays, dict(_meta(arrays), version=version))
        with pytest.raises(ConfigError, match=f"version {version}"):
            load_checkpoint(path)


def _rewrite(path, arrays, meta=None):
    if meta is not None:
        arrays["meta"] = np.frombuffer(
            json.dumps(meta, ensure_ascii=False, sort_keys=True).encode(), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def _no_meta(path, arrays):
    del arrays["meta"]
    _rewrite(path, arrays)


def _truncated(path, arrays):
    raw = path.read_bytes()
    path.write_bytes(raw[:len(raw) // 2])


def _not_npz(path, arrays):
    path.write_bytes(b"not a checkpoint\n")


def _meta(arrays):
    return json.loads(arrays["meta"].tobytes().decode())


def _config_number(path, arrays):
    _rewrite(path, arrays, dict(_meta(arrays), config=3))


def _vocab_number(path, arrays):
    _rewrite(path, arrays, dict(_meta(arrays), vocab=3))


def _answers_not_strings(path, arrays):
    """As many answers as the classifier has classes, the last a number."""
    meta = _meta(arrays)
    _rewrite(path, arrays, dict(meta, answers=meta["answers"][:-1] + [1]))


def _answers_empty(path, arrays):
    _rewrite(path, arrays, dict(_meta(arrays), answers=[]))


@pytest.mark.parametrize("corrupt", [
    _no_meta, _truncated, _not_npz, _config_number, _vocab_number, _answers_not_strings,
    _answers_empty])
def test_malformed_checkpoint_is_format_error_and_eval_exits_3(tmp_path, corpus, corrupt,
                                                                capsys):
    """The container and meta checks, on a fresh save; the layout and `params`
    checks are in `test_malformed_version2_checkpoint_is_format_error_and_eval_exits_3`."""
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, build_model(tiny_cfg(epochs=0), corpus))
    _assert_format_error_exits_3(tmp_path, corpus, path, corrupt, capsys)


def _assert_format_error_exits_3(tmp_path, corpus, path, corrupt, capsys):
    with np.load(path) as z:
        arrays = dict(z)
    corrupt(path, arrays)
    with pytest.raises(FormatError):
        load_checkpoint(path)
    data = tmp_path / "corpus.jsonl"
    write_json_lines(data, corpus)
    assert main(["eval", "--ckpt", str(path), "--data", str(data)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1


def _edit_layout(path, arrays, edit):
    """Apply `edit` to the [name, shape, slice of params] triples of a
    version-2 file and write the layout and params they then describe."""
    meta = _meta(arrays)
    entries, start = [], 0
    for name, shape in meta["layout"]:
        size = int(np.prod(shape))
        entries.append([name, shape, arrays["params"][start:start + size]])
        start += size
    entries = edit(entries)
    arrays["params"] = np.concatenate([values for _, _, values in entries])
    _rewrite(path, arrays, dict(meta, layout=[[name, shape] for name, shape, _ in entries]))


def _v2_unknown_name(path, arrays):
    _edit_layout(path, arrays, lambda e: e + [["text.extra.weight", [3], np.zeros(3)]])


def _v2_missing_name(path, arrays):
    _edit_layout(path, arrays, lambda e: [x for x in e if x[0] != "classifier.fc2.bias"])


def _v2_wrong_shape(path, arrays):
    """Same size, other shape: only the shape check can catch it."""
    _edit_layout(path, arrays, lambda e: [
        [name, [1] + shape if name == "classifier.fc2.bias" else shape, values]
        for name, shape, values in e])


def _v2_out_of_order(path, arrays):
    """Two same-shape weights swapped, with their values: only the order
    check can catch it."""
    def swap(entries):
        names = [name for name, _, _ in entries]
        i, j = (names.index(f"fusion.block0.attn.{w}.weight") for w in "qk")
        entries[i], entries[j] = entries[j], entries[i]
        return entries
    _edit_layout(path, arrays, swap)


def _v2_params_longer(path, arrays):
    arrays["params"] = np.append(arrays["params"], 0.0)
    _rewrite(path, arrays)


def _v2_params_shorter(path, arrays):
    arrays["params"] = arrays["params"][:-1]
    _rewrite(path, arrays)


def _v2_float32_params(path, arrays):
    arrays["params"] = arrays["params"].astype(np.float32)
    _rewrite(path, arrays)


def _v2_no_params(path, arrays):
    del arrays["params"]
    _rewrite(path, arrays)


def _v2_extra_entry(path, arrays):
    arrays["param::text.embedding"] = np.zeros(3)
    _rewrite(path, arrays)


def _v2_npy_version_2(path, arrays):
    """Members in npy format 2.0, which np.savez never writes."""
    with zipfile.ZipFile(path, "w") as zf:
        for name, arr in arrays.items():
            with zf.open(f"{name}.npy", "w") as fh:
                np.lib.format.write_array(fh, arr, version=(2, 0))


def _v2_flipped_data_byte(path, arrays):
    """One byte of the stored `params` data flipped: only the member's CRC
    can catch it."""
    raw = bytearray(path.read_bytes())
    start = raw.find(arrays["params"].tobytes())
    assert start > 0
    raw[start + arrays["params"].nbytes // 2] ^= 0x01
    path.write_bytes(bytes(raw))


def _write_params_member(path, arrays, data: bytes):
    """`params` whose npy header gives the arena's shape, over `data`."""
    with zipfile.ZipFile(path, "w") as zf:
        for name, arr in arrays.items():
            with zf.open(f"{name}.npy", "w") as fh:
                if name == "params":
                    np.lib.format.write_array_header_1_0(
                        fh, np.lib.format.header_data_from_array_1_0(arr))
                    fh.write(data)
                else:
                    np.lib.format.write_array(fh, arr)


def _v2_params_data_longer(path, arrays):
    _write_params_member(path, arrays, arrays["params"].tobytes() + bytes(8))


def _v2_params_data_shorter(path, arrays):
    _write_params_member(path, arrays, arrays["params"].tobytes()[:-8])


def _v2_layout(value):
    def corrupt(path, arrays):
        meta = _meta(arrays)
        if value is None:
            del meta["layout"]
        else:
            meta["layout"] = value
        _rewrite(path, arrays, meta)
    return corrupt


@pytest.mark.parametrize("corrupt", [
    _v2_unknown_name, _v2_missing_name, _v2_wrong_shape, _v2_out_of_order, _v2_params_longer,
    _v2_params_shorter, _v2_float32_params, _v2_no_params, _v2_extra_entry, _v2_npy_version_2,
    _v2_flipped_data_byte, _v2_params_data_longer, _v2_params_data_shorter,
    pytest.param(_v2_layout(None), id="layout-absent"),
    pytest.param(_v2_layout({"text.embedding": [1]}), id="layout-object"),
    pytest.param(_v2_layout([["text.embedding", 3]]), id="layout-shape-int"),
    pytest.param(_v2_layout([[1, [2]]]), id="layout-name-int"),
    pytest.param(_v2_layout([["text.embedding", [1.5]]]), id="layout-dim-float"),
    pytest.param(_v2_layout([["text.embedding", [True]]]), id="layout-dim-bool"),
    pytest.param(_v2_layout([["text.embedding", [-1]]]), id="layout-dim-negative"),
    pytest.param(_v2_layout([["text.embedding", [2], 3]]), id="layout-triple")])
def test_malformed_version2_checkpoint_is_format_error_and_eval_exits_3(tmp_path, corpus,
                                                                         corrupt, capsys):
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, build_model(tiny_cfg(epochs=0), corpus))
    _assert_format_error_exits_3(tmp_path, corpus, path, corrupt, capsys)


def _assert_corrupt_field_exits_3(tmp_path, corpus, capsys, corrupt, cause):
    """`corrupt` (bytes -> bytes) of a fresh save fails inside zipfile or numpy
    with `cause`: a FormatError naming the path, and `vivqa eval` exits 3."""
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, build_model(tiny_cfg(epochs=0), corpus))
    _assert_format_error_exits_3(tmp_path, corpus, path, lambda path, arrays: path.write_bytes(
        corrupt(bytearray(path.read_bytes()))), capsys)
    with pytest.raises(FormatError, match=re.escape(str(path))) as info:
        load_checkpoint(path)
    assert isinstance(info.value.__cause__, cause)


def _params_central_record(raw: bytearray) -> int:
    """Offset of `params.npy`'s central-directory record, the last copy of its name."""
    at = raw.rindex(b"params.npy") - 46
    assert raw[at:at + 4] == b"PK\x01\x02"
    return at


def test_checkpoint_with_an_unparsable_npy_header_exits_3(tmp_path, corpus, capsys):
    """The brace that closes `params`' npy header dict made a space: numpy's
    header parser raises tokenize.TokenError ("EOF in multi-line statement")."""
    def corrupt(raw):
        raw[raw.index(b"}", raw.index(b"{'descr': '<f8'"))] = ord(" ")
        return raw
    _assert_corrupt_field_exits_3(tmp_path, corpus, capsys, corrupt, TokenError)


def test_checkpoint_needing_a_later_zip_version_exits_3(tmp_path, corpus, capsys):
    """`params.npy`'s "version needed to extract" raised past zipfile's
    maximum: zipfile raises NotImplementedError ("zip file version")."""
    def corrupt(raw):
        raw[_params_central_record(raw) + 6] ^= 0x80
        return raw
    _assert_corrupt_field_exits_3(tmp_path, corpus, capsys, corrupt, NotImplementedError)


def test_checkpoint_with_an_encrypted_flag_exits_3(tmp_path, corpus, capsys):
    """`params.npy`'s general-purpose flags marked encrypted: zipfile raises
    RuntimeError ("password required")."""
    def corrupt(raw):
        raw[_params_central_record(raw) + 8] ^= 0x01
        return raw
    _assert_corrupt_field_exits_3(tmp_path, corpus, capsys, corrupt, RuntimeError)


def test_checkpoint_with_a_comma_for_the_byte_order_exits_3(tmp_path, corpus, capsys):
    """The `<` of `params`' `'descr': '<f8'` xor 0x10 makes `',f8'`: numpy's
    dtype parser raises SyntaxError."""
    def corrupt(raw):
        raw[raw.index(b"{'descr': '<f8'") + len(b"{'descr': '")] ^= 0x10
        return raw
    _assert_corrupt_field_exits_3(tmp_path, corpus, capsys, corrupt, SyntaxError)


def test_checkpoint_with_a_bytes_header_key_exits_3(tmp_path, corpus, capsys):
    """The space after `params`' `'<f8',` xor 0x42 makes the next key
    `b'fortran_order'`: numpy's header check sorts bytes against str and
    raises TypeError."""
    def corrupt(raw):
        raw[raw.index(b"'descr': '<f8', ") + len(b"'descr': '<f8',")] ^= 0x42
        return raw
    _assert_corrupt_field_exits_3(tmp_path, corpus, capsys, corrupt, TypeError)


def test_checkpoint_with_lzma_as_its_compression_method_exits_3(tmp_path, corpus, capsys):
    """`params.npy`'s central compression method xor 0x0e makes 14, LZMA, over
    stored bytes: zipfile's decompressor raises lzma.LZMAError."""
    def corrupt(raw):
        raw[_params_central_record(raw) + 10] ^= 0x0e
        return raw
    _assert_corrupt_field_exits_3(tmp_path, corpus, capsys, corrupt, lzma.LZMAError)


def test_checkpoint_params_stream_into_the_arena_in_chunks(tmp_path, corpus, monkeypatch):
    """`params` is never read whole: it goes into the arena at most `_CHUNK`
    bytes a read, here in 1000-byte reads that split floats, and the load
    stays bitwise."""
    cfg = tiny_cfg(epochs=1)
    model = build_model(cfg, corpus)
    train_model(model, corpus, cfg)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, model)
    reads, read_whole = [], zipfile.ZipFile.read

    def read(zf, name, *args):
        assert name != "params.npy", "params was read whole"
        return read_whole(zf, name, *args)

    def readinto(member, buffer):
        reads.append(len(buffer))
        return io.BufferedIOBase.readinto(member, buffer)

    monkeypatch.setattr(model_mod, "_CHUNK", 1000)
    monkeypatch.setattr(zipfile.ZipFile, "read", read)
    monkeypatch.setattr(zipfile.ZipExtFile, "readinto", readinto, raising=False)
    loaded, _ = load_checkpoint(path)
    assert loaded.arena.tobytes() == model.arena.tobytes()
    assert len(reads) == -(-model.arena.nbytes // 1000) and max(reads) == 1000
    assert predict_split(loaded, corpus) == predict_split(model, corpus)


def test_compressed_checkpoint_loads_bitwise(tmp_path, corpus):
    """A `params` member stored deflated streams through zipfile's
    decompressor into the same arena."""
    model = build_model(tiny_cfg(epochs=0), corpus)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, model)
    with np.load(path) as z:
        arrays = dict(z)
    np.savez_compressed(path, **arrays)
    with zipfile.ZipFile(path) as zf:
        assert zf.getinfo("params.npy").compress_type == zipfile.ZIP_DEFLATED
    loaded, _ = load_checkpoint(path)
    assert loaded.arena.tobytes() == model.arena.tobytes()


@pytest.mark.parametrize("name, value", [("text.proj.bias", np.nan),
                                         ("classifier.fc2.weight", np.inf)])
def test_nonfinite_checkpoint_params_name_their_entry_and_eval_exits_3(
        tmp_path, corpus, monkeypatch, capsys, name, value):
    """A NaN in one entry or a +inf in another is a FormatError naming that
    layout entry, found as the reads land: in one whole read, and in reads
    whose first boundary splits the bad float.  `vivqa eval` exits 3."""
    model = build_model(tiny_cfg(epochs=0), corpus)
    p = model.trainable_params()[name]
    start = (p.data.ctypes.data - model.arena.ctypes.data) // 8
    assert start > 0
    p.data.flat[0] = value
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, model)
    for chunk in (1 << 24, 8 * start + 4):
        monkeypatch.setattr(model_mod, "_CHUNK", chunk)
        with pytest.raises(FormatError, match=rf"params entry '{re.escape(name)}' is not"):
            load_checkpoint(path)
    data = tmp_path / "corpus.jsonl"
    write_json_lines(data, corpus)
    assert main(["eval", "--ckpt", str(path), "--data", str(data)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and repr(name) in err and err.count("\n") == 1


def _hold(path, arrays, extra):
    """Rewrite a fresh save to hold `extra`, name -> [(name, array)]: each list
    after the layout entry it is keyed by, the one keyed None at the end."""
    def add(key):
        return [[name, list(arr.shape), arr.reshape(-1)] for name, arr in extra.get(key, [])]
    _edit_layout(path, arrays, lambda entries: [
        x for entry in entries for x in [entry] + add(entry[0])] + add(None))


def _version1(path, arrays, model):
    """The version-1 writer's entries: one `param::<name>` array per parameter, no layout."""
    meta = {key: value for key, value in _meta(arrays).items() if key != "layout"}
    named = {**model.trainable_params(), **model.extractor.params}
    _rewrite(path, {f"param::{name}": p.data for name, p in named.items()}, dict(meta, version=1))


def _key_biases(path, arrays, model):
    """Every block's `attn.k.bias`, after its `attn.q.bias`."""
    h = model.cfg.dims.hidden
    _hold(path, arrays, {f"fusion.block{i}.attn.q.bias": [(f"fusion.block{i}.attn.k.bias",
                                                            np.ones(h))]
                         for i in range(model.cfg.layers)})


def _last_language_expert(path, arrays, model):
    """The last block's six language-expert entries, after its vision expert's."""
    last = f"fusion.block{model.cfg.layers - 1}"
    h, w = model.cfg.dims.hidden, model.cfg.dims.expert_ffn_width
    _hold(path, arrays, {
        f"{last}.vision.fc2.weight": [(f"{last}.language.fc1.weight", np.ones((h, w))),
                                      (f"{last}.language.fc2.weight", np.ones((w, h)))],
        f"{last}.vision.fc2.bias": [(f"{last}.language_norm.gamma", np.ones(h)),
                                    (f"{last}.language_norm.beta", np.zeros(h)),
                                    (f"{last}.language.fc1.bias", np.zeros(w)),
                                    (f"{last}.language.fc2.bias", np.zeros(h))]})


def _frozen_extractor_tail(path, arrays, model):
    """The frozen extractor's four entries, its exact draw, at the end."""
    _hold(path, arrays, {None: [(name, p.data)
                                for name, p in model.extractor.params.items()]})


@pytest.mark.parametrize("write, code, expect", [
    pytest.param(_version1, 2, ["config error: ", "version 1"], id="version1"),
    pytest.param(_key_biases, 3, ["data error: ", "is ['fusion.block0.attn.k.bias', [24]], "
                                  "the model's ['fusion.block0.attn.v.bias', [24]]"],
                 id="key-biases"),
    pytest.param(_last_language_expert, 3, [
        "data error: ", "is ['fusion.block1.language.fc1.weight'"], id="last-language-expert"),
    pytest.param(_frozen_extractor_tail, 3, [
        "data error: ", "is ['extractor.global.weight', [395, 192]], the model's absent"],
                 id="frozen-extractor-tail")])
def test_older_checkpoint_is_refused(tmp_path, corpus, capsys, write, code, expect):
    """Files in an earlier format exit in one line, no traceback: version 1
    with 2, and version-2 files in an earlier layout with 3, naming the first
    layout entry that is not the model's."""
    model = build_model(tiny_cfg(layers=2, epochs=0), corpus)
    path, data = tmp_path / "ckpt.npz", tmp_path / "corpus.jsonl"
    save_checkpoint(path, model)
    with np.load(path) as z:
        arrays = dict(z)
    write(path, arrays, model)
    write_json_lines(data, corpus)
    assert main(["eval", "--ckpt", str(path), "--data", str(data)]) == code
    err = capsys.readouterr().err
    assert err.startswith(expect[0]) and err.count("\n") == 1 and expect[1] in err


@pytest.mark.parametrize("field, value", [
    ("cls_row", "text"), ("use_position_embeddings", False),
    ("use_modality_type_embeddings", False), ("split_seed", 3)])
def test_checkpoint_with_retired_field_value_exits_2(tmp_path, corpus, capsys, field, value):
    """A config field retired from `RunConfig` is unknown, whatever its value."""
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, build_model(tiny_cfg(epochs=0), corpus))
    with np.load(path) as z:
        arrays = dict(z)
    meta = _meta(arrays)
    _rewrite(path, arrays, dict(meta, config=dict(meta["config"], **{field: value})))
    data = tmp_path / "corpus.jsonl"
    write_json_lines(data, corpus)
    assert main(["eval", "--ckpt", str(path), "--data", str(data)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: unknown config fields") and err.count("\n") == 1
    assert field in err


def test_backward_visits_fewer_when_frozen(corpus):
    cfg_f = tiny_cfg(epochs=1)
    cfg_u = tiny_cfg(epochs=1, freeze_extractors=False)
    rf = train_model(build_model(cfg_f, corpus), corpus, cfg_f)
    ru = train_model(build_model(cfg_u, corpus), corpus, cfg_u)
    assert rf.backward_node_visits < ru.backward_node_visits
    assert rf.param_counts["trainable"] < ru.param_counts["trainable"]


@pytest.mark.skipif(os.name != "posix" or not hasattr(ctypes.CDLL(None), "mallopt"),
                    reason="the C library has no mallopt")
def test_training_steps_keep_their_heap(monkeypatch):
    """train_model keeps the heap glibc would trim after every step: a second
    c3-shaped training in one process takes at most 50 minor page faults per
    step (about 570 with glibc's default thresholds)."""
    import resource

    corpus = make_synthetic(128, 4, 4, seed=0)
    cfg = RunConfig(preset="tiny", layers=2, heads=2, drop_path=0.1, seed=0,
                    batch_size=16, lr=1e-3, epochs=2)
    train_model(build_model(cfg, corpus), corpus, cfg)
    faults = []
    step = AdamW.step

    def counted(opt, lr):
        step(opt, lr)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)

    monkeypatch.setattr(AdamW, "step", counted)
    train_model(build_model(cfg, corpus), corpus, cfg)
    assert len(faults) == 16
    assert (faults[-1] - faults[0]) / (len(faults) - 1) <= 50, faults


def test_oov_test_answer_never_correct(corpus):
    cfg = tiny_cfg(epochs=1)
    model = build_model(cfg, corpus[:8])
    train_model(model, corpus[:8], cfg)
    from vivqa.data import Example
    weird = [Example("w1", corpus[0].image, "màu gì", "answer-not-in-vocab")]
    rep = metrics_report(predict_split(model, weird))
    assert rep.accuracy == 0.0

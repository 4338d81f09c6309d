"""The benchmark instruments the program from the outside, by module and
attribute name (perfbench/probes.py).  A rename must fail here, not only in
a benchmark run.  probes.py is loaded read-only: no bytecode is written."""
import dataclasses
import importlib.util
import inspect
import os
import sys
from pathlib import Path

import numpy as np

import vivqa.model as vmodel
from vivqa import harness, tensor, train
from vivqa.config import RunConfig
from vivqa.data import example_noise_seed, make_synthetic
from vivqa.model import VivqaModel
from vivqa.optim import AdamW, pack
from vivqa.tensor import Tensor
from vivqa.vvqf import write_feature_file

PROBES = Path(__file__).resolve().parents[1] / "perfbench" / "probes.py"


def _load_probes():
    spec = importlib.util.spec_from_file_location("perfbench_probes", PROBES)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_benchmark_hooks_resolve():
    probes = _load_probes()
    targets = list(probes.TRACED.values())
    targets += [target for target, _ in probes.Probe().wrappers()]
    for module, attr in targets:
        owner, name = probes._resolve(module, attr)
        assert callable(getattr(owner, name, None)), f"{module}.{attr}"
    assert set(probes.SETUP_LAYERS) <= set(probes.TRACED)
    # the tiny-eval set-up writes its VVQF files from the raw extractor outputs
    assert callable(VivqaModel.visual_features)


def test_benchmark_direct_calls_resolve():
    """perfbench/run.py reads tensor.backward_node_visits() outside TRACED,
    and the probes wrap train_model(model, split, cfg) and
    predict_split(model, split), passing every argument positionally."""
    assert isinstance(tensor.backward_node_visits(), int)
    inspect.signature(train.train_model).bind("model", "split", "cfg")
    inspect.signature(train.predict_split).bind("model", "split")


def test_benchmark_optimizer_hooks_bind():
    """The probes wrap AdamW.zero_grad(opt) and AdamW.step(opt, lr), and the
    tracer counts `optim.step.param_elems` as the sum of p.size over
    opt.params.values(): that sum is the length of the optimizer's arena."""
    inspect.signature(AdamW.zero_grad).bind("opt")
    inspect.signature(AdamW.step).bind("opt", 1e-3)
    params = {"w.weight": Tensor(np.ones((3, 4)), requires_grad=True),
              "w.bias": Tensor(np.ones(4), requires_grad=True)}
    opt = AdamW(params, *pack(params), n_decay=12)
    assert sum(p.size for p in opt.params.values()) == len(opt.data) == len(opt.grad) == 16


def test_forward_reaches_traced_fusion_layers(monkeypatch):
    """perfbench's per-layer spans wrap names the forward looks up: one
    VivqaModel.forward calls `text.encode`, `text.project`,
    `multiway.concat_modalities`, `multiway.encode` and `multiway.pool_cls`
    once each and `multiway.shared_attention` once per layer."""
    probes = _load_probes()
    names = ("text.encode", "text.project", "multiway.concat_modalities", "multiway.encode",
             "multiway.pool_cls", "multiway.shared_attention")
    calls = []
    for name in names:
        owner, attr = probes._resolve(*probes.TRACED[name])
        original = getattr(owner, attr)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counting)
    corpus = make_synthetic(8, 2, 2, seed=0)
    model = train.build_model(RunConfig(preset="tiny", layers=3, heads=2), corpus)
    model.forward(corpus[:2])
    assert [calls.count(name) for name in names] == [1, 1, 1, 1, 1, 3]


def test_tiny_eval_reaches_checkpoint_and_vvqf_hooks(tmp_path):
    """tiny-eval's shape (perfbench/run.py `_eval_from_files`) under every
    traced wrapper: its set-up saves one checkpoint, and its timed phase
    loads it once, reads 2 x 128 VVQF files, each through the wrapper that
    counts `vvqf.read.bytes`, and adapts each 16-example chunk's local
    features in one `adapt_local` call.  A renamed hook or a changed call
    would end the benchmark run as failed."""
    probes = _load_probes()
    tracer = probes.Tracer()
    corpus = make_synthetic(128, 4, 4, seed=0)
    cfg = RunConfig(preset="tiny", layers=2, heads=2, batch_size=16, drop_path=0.1, epochs=0,
                    seed=0)
    ckpt = tmp_path / "checkpoint.npz"
    with probes.patched(tracer.wrappers()):
        tracer.phase = "setup"
        built = train.build_model(cfg, corpus)
        eval_corpus = []
        for ex in corpus:
            prefix = str(tmp_path / ex.id)
            g, l = built.visual_features(ex)
            write_feature_file(prefix + ".global.vvqf", g)
            write_feature_file(prefix + ".local.vvqf", l)
            eval_corpus.append(dataclasses.replace(ex, image=prefix))
        vmodel.save_checkpoint(ckpt, built)
        tracer.phase = "timed"
        loaded, _ = vmodel.load_checkpoint(ckpt)
        for i in range(0, len(eval_corpus), cfg.batch_size):
            train.predict_split(loaded, eval_corpus[i:i + cfg.batch_size])
    setup, timed = tracer.layer_totals(0, "setup"), tracer.layer_totals(0, "timed")
    assert setup["model.save_checkpoint"][0] == 1
    assert [timed[name][0] for name in ("model.load_checkpoint", "vvqf.read_feature_file",
                                        "vision.adapt_local")] == [1, 256, 8]
    files = [p for p in os.listdir(tmp_path) if p.endswith(".vvqf")]
    assert len(files) == 256
    assert tracer.counters[0]["vvqf.read.bytes"] == sum(
        os.path.getsize(tmp_path / p) for p in files)


def test_tiny_ablate_arms_train_and_predict_once_from_a_filled_store():
    """tiny-ablate's shape (perfbench/run.py `_tiny_ablate`, on a smaller
    corpus and 2 seeds) under the probe and every traced wrapper: each arm
    calls `train_model` and `predict_split` once, through the names the
    probe wraps, and predicts the test split only.  Each distinct image is
    rendered and extracted once, in stacks of `batch_size`, and never inside
    training or prediction."""
    probes = _load_probes()
    probe, tracer = probes.Probe(), probes.Tracer()
    seed = 3    # the arms' accuracies spread at every seed: Welch's test can run
    tr = make_synthetic(32, 4, 4, seed=seed, id_prefix="tr")
    te = make_synthetic(16, 4, 4, seed=seed + 1, id_prefix="te")
    cfg = RunConfig(preset="tiny", layers=1, heads=2, batch_size=16, lr=1e-3, drop_path=0.0,
                    epochs=2, seed=seed)
    depth, inside = [0], []

    def entering(orig):
        def run(*args):
            depth[0] += 1
            try:
                return orig(*args)
            finally:
                depth[0] -= 1
        return run

    def extract(orig):
        def run(imgs, params):
            inside.extend([depth[0] > 0] * len(imgs))
            return orig(imgs, params)
        return run

    def render(orig):
        def run(spec, dims, noise_seed):
            rendered.append((spec.image_ref(), noise_seed))
            return orig(spec, dims, noise_seed=noise_seed)
        return run

    rendered = []
    wrappers = probe.wrappers() + tracer.wrappers() + [
        (("vivqa.train", "train_model"), entering),
        (("vivqa.train", "predict_split"), entering),
        (("vivqa.model", "extract_global_stub"), extract),
        (("vivqa.model", "render_synthetic"), render)]
    with probes.patched(wrappers):
        harness.ablate_extractors(cfg, tr, te, seeds=[seed, seed + 1])
    arms = 2 * len(harness.EXTRACTOR_ARMS)
    timed = tracer.layer_totals(0, "timed")
    assert timed["train.train_model"][0] == len(probe.epoch_losses) == arms
    assert timed["train.predict_split"][0] == arms
    assert probe.eval_examples == arms * len(te) and not probe.coverage_failures
    distinct = {(ex.image, example_noise_seed(ex.id)) for ex in tr + te}
    assert sorted(rendered) == sorted(distinct)
    assert timed["data.render_synthetic"][0] == len(inside) == len(distinct)
    assert timed["vision.extract_global_stub"][0] == -(-len(distinct) // cfg.batch_size)
    assert not any(inside)

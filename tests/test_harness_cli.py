"""Harness and CLI tests: ablation outputs and contracts on miniature runs,
sweep/significance plumbing, exit codes, and artifact round trips."""
import csv
import dataclasses
import hashlib
import json
import os
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from vivqa.cli import build_parser, main
from vivqa.config import RunConfig
from vivqa.data import make_synthetic
from vivqa.errors import ConfigError, DataError
from vivqa.harness import ablate_extractors, ablate_freeze, ablate_fusion, significance, sweep
from vivqa.metrics import write_json_lines
from vivqa.tensor import Tensor
from vivqa.train import build_model
from vivqa.vvqf import read_feature_file, write_feature_file

from numeric_baseline import baseline_env, run_child


def mini_cfg(**kw):
    base = dict(preset="tiny", epochs=1, batch_size=8, lr=1e-3, layers=1, heads=2,
                drop_path=0.0, seed=0)
    base.update(kw)
    return RunConfig(**base)


def _splits():
    return make_synthetic(16, 2, 2, seed=1), make_synthetic(8, 2, 2, seed=2, id_prefix="te")


@pytest.fixture(scope="module")
def splits():
    return _splits()


# ---------------------------------------------------------------------------
# Harness


def test_ablate_fusion_outputs(tmp_path, splits):
    train, test = splits
    results = ablate_fusion(mini_cfg(), train, test, out_dir=str(tmp_path))
    assert set(results) == {"multiply", "add", "concatenate"}
    assert results["concatenate"]["fused_dims"] == "16x24"
    assert results["add"]["fused_dims"] == "8x24"
    assert results["multiply"]["fused_dims"] == "8x24"
    for r in results.values():
        assert len(r["boxplot_means"]) == len(train)
        assert {"q1", "q2", "q3"} <= set(r["sparsity"])
    assert (tmp_path / "fusion_ablation.csv").exists()
    assert (tmp_path / "fusion_ablation.md").exists()
    assert (tmp_path / "fusion_boxplot_data.csv").exists()


@pytest.mark.parametrize("freeze", [True, False])
def test_ablate_fusion_boxplot_pass_records_no_graph_in_batch_chunks(splits, monkeypatch, freeze):
    """After each arm trains and scores, its boxplot pass asks `vision_tokens`
    for the train split `batch_size` examples at a time and gets no tensor
    that requires grad, frozen or not."""
    import vivqa.train as train_mod
    from vivqa.model import VivqaModel

    train, test = splits
    cfg = mini_cfg(freeze_extractors=freeze)
    calls, in_arm = [], []
    vision_tokens = VivqaModel.vision_tokens

    def recording(model, examples):
        out = vision_tokens(model, examples)
        if not in_arm:
            calls.append((len(examples), out.requires_grad))
        return out

    for name in ("train_model", "predict_split"):
        def in_arm_call(*args, _orig=getattr(train_mod, name)):
            in_arm.append(True)
            try:
                return _orig(*args)
            finally:
                in_arm.pop()
        monkeypatch.setattr(train_mod, name, in_arm_call)
    monkeypatch.setattr(VivqaModel, "vision_tokens", recording)
    results = ablate_fusion(cfg, train, test)
    assert calls == [(cfg.batch_size, False)] * (len(train) // cfg.batch_size) * len(results)


def test_ablate_extractors_extracts_each_image_once(splits, monkeypatch):
    """The arms of one call share a frozen-feature store: 2 seeds x 3 arms
    render and extract each distinct image once, not six times, in stacks of
    at most `batch_size` images."""
    import vivqa.model as model_mod
    from vivqa.data import example_noise_seed

    train, test = splits
    rendered, stacks = [], []
    render, extract = model_mod.render_synthetic, model_mod.extract_global_stub

    def counting_render(spec, dims, noise_seed):
        rendered.append((spec.image_ref(), noise_seed))
        return render(spec, dims, noise_seed=noise_seed)

    def counting_extract(imgs, params):
        stacks.append(len(imgs))
        return extract(imgs, params)

    monkeypatch.setattr(model_mod, "render_synthetic", counting_render)
    monkeypatch.setattr(model_mod, "extract_global_stub", counting_extract)
    cfg = mini_cfg()
    ablate_extractors(cfg, train, test, seeds=[0, 1])
    distinct = {(ex.image, example_noise_seed(ex.id)) for ex in train + test}
    assert sorted(rendered) == sorted(distinct)
    assert sum(stacks) == len(distinct) and max(stacks) <= cfg.batch_size
    assert len(stacks) == -(-len(distinct) // cfg.batch_size)


def _digest(result) -> str:
    return hashlib.sha256(json.dumps(result, sort_keys=True).encode()).hexdigest()


def _freeze_without_timing(cfg, train, test):
    results = ablate_freeze(cfg, train, test)
    for arm in ("frozen", "unfrozen"):
        results[arm].pop("training_seconds")
    return results


# sha256 of each entry point's result on `splits`, taken on the declared
# numeric baseline (`numeric_baseline`): no result may depend on when the
# store is filled or on which splits an arm predicts.  "freeze" also holds
# each arm's backward node visits, so it moves whenever the graph gains or
# loses a node per step.
HARNESS_DIGESTS = {
    "extractors": "0ce78895164f69a70a91890b80ee10247eb2ad33a313274f7807ec8f2447ece6",
    "extractors_no_test": "542a5f3f5558c9dd4811b9a80cc2d61c91688f346f94853608d71b437c0b28a0",
    "fusion": "6232777a65f9f472e36246a28ce83d725b6d88090c74321abb2d559c68f9bcc9",
    "freeze": "d14965bff02f4f839ec7220e206fdbe5c8d3f949dcff23f60011dd62054ebc69",
    "sweep": "511dd45fdc2277360194828d33759368bbdbebd329b40333bb99fbfa7419f2c2",
    "significance": "1b3dcb6da9b40fa46ae7f13b90ee4be85751289790dc727d25dd027f2f99d7e1",
}


def harness_digests() -> dict:
    """The digest of every entry point's result on `splits`; with an empty
    test split the extractor arms score the train split.
    `training_seconds` is wall clock and is left out."""
    train, test = _splits()
    cfg = mini_cfg()
    results = {
        "extractors": ablate_extractors(cfg, train, test, seeds=[0, 1]),
        "extractors_no_test": ablate_extractors(cfg, train, [], seeds=[0, 1]),
        "fusion": ablate_fusion(cfg, train, test),
        "freeze": _freeze_without_timing(cfg, train, test),
        "sweep": sweep(cfg, "layers", [1, 2], train, test),
        "significance": significance(cfg, mini_cfg(fusion_op="add"), train, test, n_seeds=2),
    }
    return {name: _digest(result) for name, result in results.items()}


def test_harness_results_are_bitwise_those_pinned():
    """Every entry point gives the digest pinned above."""
    assert run_child("test_harness_cli", "harness_digests", baseline_env()) == HARNESS_DIGESTS


def test_arms_predict_only_the_split_they_score(splits, monkeypatch):
    """One predict per arm, over the test split, or over the train split
    when the test split is empty."""
    import vivqa.train as train_mod

    train, test = splits
    predicted = []
    predict = train_mod.predict_split

    def recording(model, split):
        predicted.append([ex.id for ex in split])
        return predict(model, split)

    monkeypatch.setattr(train_mod, "predict_split", recording)
    ablate_extractors(mini_cfg(), train, test, seeds=[0, 1])
    assert predicted == [[ex.id for ex in test]] * 6
    predicted.clear()
    ablate_extractors(mini_cfg(), train, [], seeds=[0, 1])
    assert predicted == [[ex.id for ex in train]] * 6


@pytest.mark.parametrize("chunk", [3, 8, 24])
def test_fill_store_in_chunks_matches_a_store_filled_by_vision_tokens(splits, chunk):
    """Filling a store in chunks of any size gives every key the tokens that
    minibatches through `vision_tokens` store, and the same tokens out."""
    train, test = splits
    examples = train + test
    cfg = mini_cfg(vision_mode="both", fusion_op="concatenate")
    filled = build_model(cfg, train, {})
    keys = []
    for start in range(0, len(examples), chunk):
        keys += filled.fill_store(examples[start:start + chunk])
    by_batches = build_model(cfg, train, {})
    for start in range(0, len(examples), cfg.batch_size):
        by_batches.vision_tokens(examples[::-1][start:start + cfg.batch_size])
    assert keys == [(ex.id, ex.image) for ex in examples]
    assert filled.store.keys() == by_batches.store.keys() == set(keys)
    for key in keys:
        for a, b in zip(filled.store[key], by_batches.store[key]):
            np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(filled.vision_tokens(examples).data,
                                  by_batches.vision_tokens(examples).data)


def test_arms_share_one_preset_dims(splits):
    """Every config of a preset holds the same frozen dims, so arms with one
    extractor seed share one table of the store, keyed by that dims object."""
    assert RunConfig(preset="tiny").dims is RunConfig(preset="tiny").dims
    assert RunConfig(preset="paper").dims is RunConfig(preset="paper").dims
    train, _ = splits
    store = {}
    arms = [build_model(mini_cfg(seed=seed, vision_mode=mode), train, store)
            for seed, mode in ((0, "both"), (1, "global"))]
    assert arms[0].vision_dims is arms[1].vision_dims
    [(dims, _)] = store
    assert dims is arms[0].vision_dims and arms[0].store is arms[1].store


def test_tiny_ablation_hashes_vision_dims_per_model_not_per_image(monkeypatch):
    """The benchmark's tiny-ablate shape (9 arms over 224 images) hashes
    VisionDims at most 10 times: each build finds its table of the store and
    the frozen extractor is looked up, but no render hashes the dims."""
    from vivqa.vision import VisionDims

    hashes, vision_hash = [], VisionDims.__hash__

    def counting_hash(dims):
        hashes.append(dims)
        return vision_hash(dims)

    monkeypatch.setattr(VisionDims, "__hash__", counting_hash)
    train = make_synthetic(160, 4, 4, seed=0, id_prefix="tr")
    test = make_synthetic(64, 4, 4, seed=1, id_prefix="te")
    ablate_extractors(mini_cfg(batch_size=16, epochs=2), train, test, seeds=[0, 1, 2])
    assert len(hashes) <= 10


def test_ablate_freeze_contract(tmp_path, splits):
    train, test = splits
    results = ablate_freeze(mini_cfg(), train, test, out_dir=str(tmp_path))
    contract = results["contract"]
    assert contract["frozen_bytes_unchanged"]
    assert contract["fewer_trainable_params"]
    assert contract["fewer_backward_visits"]
    assert not results["unfrozen"]["extractor_bytes_unchanged"]
    with open(tmp_path / "freeze_ablation.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header[-3:] == ["Training Time (s)", "Trainable Params", "Backward Node Visits"]
    for row, arm in zip(rows, ("frozen", "unfrozen")):
        assert row[-2:] == [str(results[arm]["trainable_params"]),
                            str(results[arm]["backward_node_visits"])]
    markdown = (tmp_path / "freeze_ablation.md").read_text()
    assert "| Trainable Params | Backward Node Visits |" in markdown


def test_ablate_freeze_draws_each_extractor_once(splits, monkeypatch):
    """The reference digest is the frozen arm's own cached draw: one call
    draws the stubs twice, once frozen and once into the unfrozen arena."""
    from vivqa.vision import StubExtractorParams, frozen_extractor

    inits, init = [], StubExtractorParams.__init__

    def counting_init(self, *args, **kwargs):
        inits.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(StubExtractorParams, "__init__", counting_init)
    frozen_extractor.cache_clear()
    train, test = splits
    ablate_freeze(mini_cfg(), train, test)
    assert len(inits) == 2


def test_sweep_axis(tmp_path, splits):
    train, test = splits
    curve = sweep(mini_cfg(), "heads", [1, 2], train, test, out_dir=str(tmp_path))
    assert [pt["heads"] for pt in curve] == [1, 2]
    assert all(0.0 <= pt["accuracy"] <= 1.0 for pt in curve)
    assert (tmp_path / "sweep_heads.csv").exists()
    with pytest.raises(ConfigError):
        sweep(mini_cfg(), "depth", [1], train, test)


def test_significance_runs_and_serializes(tmp_path, splits):
    train, test = splits
    res = significance(mini_cfg(), mini_cfg(lr=5e-4), train, test, n_seeds=2,
                       out_dir=str(tmp_path))
    assert len(res["accuracies_a"]) == 2
    assert isinstance(res["significant"], bool)
    saved = json.loads((tmp_path / "significance.json").read_text())
    assert saved["t"] == res["t"]
    with pytest.raises(ConfigError):
        significance(mini_cfg(), mini_cfg(), train, test, n_seeds=1)


# ---------------------------------------------------------------------------
# CLI


def write_corpus(tmp_path, n=16):
    path = tmp_path / "corpus.jsonl"
    write_json_lines(path, make_synthetic(n, 2, 2, seed=1))
    return str(path)


def write_config(tmp_path, data, **kw):
    cfg = dict(preset="tiny", epochs=1, batch_size=8, lr=1e-3, layers=1, heads=2,
               drop_path=0.0, data=data)
    cfg.update(kw)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_cli_train_eval_score_round_trip(tmp_path, capsys):
    data = write_corpus(tmp_path)
    out = tmp_path / "run"
    cfg = write_config(tmp_path, data)
    assert main(["train", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "checkpoint.npz").exists()
    capsys.readouterr()

    eval_out = tmp_path / "eval"
    assert main(["eval", "--ckpt", str(out / "checkpoint.npz"), "--data", data,
                 "--out", str(eval_out)]) == 0
    evaluated = json.loads(capsys.readouterr().out)
    assert set(evaluated) == {"accuracy", "precision", "recall", "f1", "n"}
    assert (eval_out / "predictions.jsonl").exists()

    assert main(["score", "--pred", str(eval_out / "predictions.jsonl")]) == 0
    scored = json.loads(capsys.readouterr().out)
    assert set(scored) == {"accuracy", "precision", "recall", "f1", "n"}


def test_cli_stats_fixture(tmp_path, capsys):
    from vivqa.data import Example
    path = tmp_path / "fixture.jsonl"
    write_json_lines(path, [
        Example("1", "x", "màu gì đây", "đỏ"),
        Example("2", "y", "con vật này là con gì vậy", "con mèo"),
        Example("3", "z", "ai", "một người đàn ông"),
    ])
    assert main(["stats", "--data", str(path)]) == 0
    out = capsys.readouterr().out
    assert "No. Samples             3" in out
    assert "Longest Question Length 7" in out
    assert "Longest Answer Length   4" in out
    assert "Average Question Length 3.67" in out
    assert "Average Answer Length   2.33" in out


def test_cli_stats_empty_corpus_exits_3(tmp_path, capsys):
    path = tmp_path / "empty.jsonl"
    path.write_text("\n")
    assert main(["stats", "--data", str(path)]) == 3
    err = capsys.readouterr().err
    assert err == f"data error: {path}: empty corpus\n"


def test_cli_synth_writes_corpus(tmp_path):
    out = tmp_path / "synth"
    assert main(["synth", "--n", "8", "--global", "2", "--local", "2",
                 "--seed", "3", "--out", str(out)]) == 0
    from vivqa.data import load_jsonl
    assert len(load_jsonl(out / "corpus.jsonl")) == 8


def test_cli_exit_code_config_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"preset": "huge"}))
    assert main(["train", "--config", str(bad)]) == 2
    bad.write_text("{not json")
    assert main(["train", "--config", str(bad)]) == 2
    # missing data
    ok = tmp_path / "ok.json"
    ok.write_text(json.dumps({"preset": "tiny"}))
    assert main(["train", "--config", str(ok)]) == 2


@pytest.mark.parametrize("field, value", [
    ("heads", 0), ("batch_size", 2.5), ("epochs", 1.5), ("early_stop_train_acc", "x"),
    ("layers", -1), ("split_ratio", 2.0), ("lr", -1), ("warmup_ratio", 1.5), ("l_max", 0),
    pytest.param("adam_betas", [0.9], id="adam_betas-one"),
    pytest.param("adam_betas", [0.9, 0.999, 0.5], id="adam_betas-three"),
    pytest.param("adam_betas", [0.9, 1.0], id="adam_betas-one_is_1"),
    pytest.param("adam_betas", [-0.1, 0.999], id="adam_betas-negative"),
    pytest.param("adam_betas", [0.9, "x"], id="adam_betas-string"),
    pytest.param("adam_betas", [False, 0.999], id="adam_betas-bool"),
    ("heads", 5), ("layers", True), ("drop_path", False), ("weight_decay", -0.01),
    ("adam_eps", 0), ("floor_lr", -1e-6), ("floor_lr", 0.01),
    ("early_stop_train_acc", 0), ("early_stop_train_acc", 1.5),
    # fields retired from the config, unknown whatever their value
    ("cls_row", "text"), ("use_position_embeddings", False),
    ("use_modality_type_embeddings", False), ("split_seed", 3),
])
def test_cli_bad_config_value_exits_2(tmp_path, capsys, field, value):
    cfg = write_config(tmp_path, write_corpus(tmp_path), **{field: value})
    assert main(["train", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert field in err and "Traceback" not in err


@pytest.mark.parametrize("content", ["[1]", "3", '"tiny"', "null"])
def test_config_file_not_an_object_exits_2(tmp_path, capsys, content):
    path = tmp_path / "list.json"
    path.write_text(content)
    assert main(["train", "--config", str(path), "--data", write_corpus(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert "JSON object" in err and "Traceback" not in err
    with pytest.raises(ConfigError, match="JSON object"):
        RunConfig.from_file(path)


def test_cli_exit_code_data_error(tmp_path):
    data = tmp_path / "broken.jsonl"
    data.write_text("{broken\n")
    cfg = write_config(tmp_path, str(data))
    assert main(["train", "--config", cfg]) == 3


@pytest.mark.parametrize("line", ["3", "null", "[1, 2]", '"id"'],
                         ids=["number", "null", "list", "string"])
@pytest.mark.parametrize("command", ["train", "stats", "score"])
def test_cli_json_line_not_an_object_exits_3(tmp_path, capsys, command, line):
    """Corpus files (train, stats) and prediction files (score) share one
    line reader: valid JSON that is not an object is a data error."""
    path = tmp_path / "lines.jsonl"
    first = {"id": "a", "image": "synthetic:g=0,l=0", "question": "q", "answer": "x",
             "prediction": "x", "ground_truth": "x"}
    path.write_text(json.dumps(first) + "\n" + line + "\n")
    argv = {"train": ["train", "--preset", "tiny", "--data", str(path)],
            "stats": ["stats", "--data", str(path)],
            "score": ["score", "--pred", str(path)]}[command]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {path}:2: expected a JSON object")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("field, value", [("answer", 5), ("answer", None), ("id", 7)],
                         ids=["numeric-answer", "null-answer", "numeric-id"])
@pytest.mark.parametrize("command", ["train", "stats", "score"])
def test_cli_json_field_not_a_string_exits_3(tmp_path, capsys, command, field, value):
    """Corpus and prediction fields are JSON strings: a number or a null is a
    data error naming the line and the field, never its str()."""
    if command == "score" and field == "answer":
        field = "ground_truth"          # the answer field of a predictions line
    path = tmp_path / "lines.jsonl"
    first = {"id": "a", "image": "synthetic:g=0,l=0", "question": "q", "answer": "x",
             "prediction": "x", "ground_truth": "x"}
    path.write_text(json.dumps(first) + "\n" + json.dumps({**first, "id": "b", field: value})
                    + "\n")
    argv = {"train": ["train", "--preset", "tiny", "--data", str(path)],
            "stats": ["stats", "--data", str(path)],
            "score": ["score", "--pred", str(path)]}[command]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {path}:2: field {field!r} is {json.dumps(value)}, "
                          f"not a string")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_cli_train_extracts_nothing_inside_a_step(tmp_path, monkeypatch):
    """`vivqa train` renders and extracts its frozen features before the
    first `AdamW.zero_grad`, never between a `zero_grad` and its `step`."""
    import vivqa.model as model_mod
    from vivqa.optim import AdamW

    events = []
    for owner, name in ((AdamW, "zero_grad"), (AdamW, "step"),
                        (model_mod, "render_synthetic"), (model_mod, "extract_global_stub"),
                        (model_mod, "extract_local_stub"), (model_mod, "adapt_local")):
        def recording(*args, _name=name, _orig=getattr(owner, name), **kwargs):
            events.append(_name)
            return _orig(*args, **kwargs)
        monkeypatch.setattr(owner, name, recording)
    cfg = write_config(tmp_path, write_corpus(tmp_path), epochs=2)
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
    steps = [i for i, name in enumerate(events) if name in ("zero_grad", "step")]
    assert steps and len(steps) % 2 == 0
    for start, end in zip(steps[::2], steps[1::2]):
        assert events[start:end + 1] == ["zero_grad", "step"]
    assert "render_synthetic" in events[:steps[0]]


@pytest.mark.parametrize("ref", [
    "synthetic:g=1",            # malformed: no local cue
    "synthetic:g=1,l=0,x=2",    # malformed: extra field
    "synthetic:g=15,l=0",       # Walsh index 16 is a constant, not a zero-mean texture
    "synthetic:g=0,l=-1",       # negative local cue
    "synthetic:g=0,l=49",       # the tiny preset's 7x7 grid has blocks 0..48
])
def test_cli_bad_synthetic_ref_exits_3(tmp_path, capsys, ref):
    data = tmp_path / "corpus.jsonl"
    write_json_lines(data, [dataclasses.replace(ex, image=ref)
                      for ex in make_synthetic(16, 2, 2, seed=1)])
    assert main(["train", "--config", write_config(tmp_path, str(data))]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, named", [
    pytest.param(["synth", "--n", "0", "--global", "2", "--local", "2"], "n must be",
                 id="synth-n-0"),
    pytest.param(["synth", "--n", "8", "--global", "1", "--local", "2"], "cue counts",
                 id="synth-global-1"),
    # 15 Walsh textures and the 7x7 block grid bound the cue counts.
    pytest.param(["synth", "--n", "8", "--global", "16", "--local", "2"], "global",
                 id="synth-global-16"),
    pytest.param(["synth", "--n", "8", "--global", "2", "--local", "50"], "local",
                 id="synth-local-50"),
    pytest.param(["sweep", "--axis", "heads", "--values", "2,x"], "--values",
                 id="sweep-values"),
])
def test_cli_bad_value_exits_2(tmp_path, capsys, argv, named):
    if argv[0] == "sweep":      # a real corpus, so that only --values is wrong
        argv = argv + ["--data", write_corpus(tmp_path)]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert named in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["train"], ["sweep", "--axis", "heads", "--values", "1"],
                                  ["ablate", "freeze"]], ids=["train", "sweep", "ablate"])
def test_cli_empty_eval_data_exits_3(tmp_path, capsys, argv):
    """An empty eval corpus is a data error, not a run scored on train accuracy."""
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    cfg = write_config(tmp_path, write_corpus(tmp_path), eval_data=str(empty))
    assert main(argv + ["--config", cfg]) == 3
    err = capsys.readouterr().err
    assert err == f"data error: {empty}: empty corpus\n"


FILE_REFUSED = "not a synthetic image ref (a feature file feeds frozen extractors only)"


def write_vvqf_corpus(tmp_path):
    """(path, image refs) of a corpus whose images are VVQF pairs a frozen
    tiny model's stubs wrote."""
    examples = make_synthetic(16, 2, 2, seed=1)
    model = build_model(mini_cfg(), examples)
    files = []
    for ex in examples:
        base = str(tmp_path / ex.id)
        for part, suffix in zip(model.visual_features(ex), (".global.vvqf", ".local.vvqf")):
            write_feature_file(base + suffix, part)
        files.append(dataclasses.replace(ex, image=base))
    path = tmp_path / "files.jsonl"
    write_json_lines(path, files)
    return str(path), [ex.image for ex in files]


def test_cli_eval_of_unfrozen_checkpoint_on_vvqf_files_exits_3(tmp_path, capsys):
    """A feature file holds a frozen extractor's output, never an unfrozen
    model's: `vivqa eval` refuses it in one line naming the first file ref."""
    run = tmp_path / "run"
    cfg = write_config(tmp_path, write_corpus(tmp_path), freeze_extractors=False)
    assert main(["train", "--config", cfg, "--out", str(run)]) == 0
    data, refs = write_vvqf_corpus(tmp_path)
    capsys.readouterr()
    assert main(["eval", "--ckpt", str(run / "checkpoint.npz"), "--data", data]) == 3
    assert capsys.readouterr().err == f"data error: {refs[0]}: {FILE_REFUSED}\n"


def test_cli_eval_with_a_missing_feature_file_exits_4(tmp_path, capsys):
    """An unreadable VVQF path is an OSError, exit 4, not a format error."""
    run = tmp_path / "run"
    cfg = write_config(tmp_path, write_corpus(tmp_path))
    assert main(["train", "--config", cfg, "--out", str(run)]) == 0
    data, refs = write_vvqf_corpus(tmp_path)
    os.remove(refs[3] + ".local.vvqf")
    capsys.readouterr()
    assert main(["eval", "--ckpt", str(run / "checkpoint.npz"), "--data", data]) == 4
    assert refs[3] + ".local.vvqf" in capsys.readouterr().err


@pytest.mark.parametrize("index, suffix, value", [(2, ".global.vvqf", np.nan),
                                                   (5, ".local.vvqf", np.inf)],
                         ids=["global-nan", "local-inf"])
@pytest.mark.parametrize("command", ["eval", "train"])
def test_cli_nonfinite_feature_file_exits_3_naming_it(tmp_path, capsys, command, index, suffix,
                                                      value):
    """A feature file holding a NaN or an inf is a data error naming that
    file, from `vivqa eval` of a frozen checkpoint (not a class scored
    silently) and from `vivqa train` (not a NaN loss naming no file)."""
    data, refs = write_vvqf_corpus(tmp_path)
    path = refs[index] + suffix
    poisoned = read_feature_file(path).data.copy()
    poisoned.flat[3] = value
    write_feature_file(path, Tensor(poisoned))
    if command == "eval":
        run = tmp_path / "run"
        cfg = write_config(tmp_path, write_corpus(tmp_path))
        assert main(["train", "--config", cfg, "--out", str(run)]) == 0
        argv = ["eval", "--ckpt", str(run / "checkpoint.npz"), "--data", data]
    else:
        argv = ["train", "--config", write_config(tmp_path, data)]
    capsys.readouterr()
    assert main(argv) == 3
    assert capsys.readouterr().err == f"data error: {path}: holds a non-finite value\n"


@pytest.mark.parametrize("command", [["train"], ["ablate", "freeze"]])
def test_cli_unfrozen_run_on_vvqf_files_exits_3(tmp_path, capsys, command):
    """Training an unfrozen model on feature files exits 3 naming a file ref,
    and writes no checkpoint; the freeze ablation refuses the files for its
    unfrozen arm before either arm runs."""
    data, refs = write_vvqf_corpus(tmp_path)
    run = tmp_path / "run"
    freeze = command == ["ablate", "freeze"]
    cfg = write_config(tmp_path, data, freeze_extractors=freeze, split_ratio=1.0)
    assert main(command + ["--config", cfg, "--out", str(run)]) == 3
    err = capsys.readouterr().err
    ref = err.removeprefix("data error: ").removesuffix(f": {FILE_REFUSED}\n")
    assert err.startswith("data error: ") and ref in refs
    assert not (run / "checkpoint.npz").exists()


def test_ablate_freeze_refuses_a_feature_file_before_either_arm(tmp_path, splits, monkeypatch):
    """One VVQF pair in the test split: the frozen arm could read it, but the
    unfrozen arm cannot, so the DataError names it before any `train_model`."""
    import vivqa.train as train_mod

    train, test = splits
    base = str(tmp_path / "pair")
    for part, suffix in zip(build_model(mini_cfg(), train).visual_features(test[0]),
                            (".global.vvqf", ".local.vvqf")):
        write_feature_file(base + suffix, part)
    calls, train_model = [], train_mod.train_model
    monkeypatch.setattr(train_mod, "train_model", lambda *args: calls.append(args) or
                        train_model(*args))
    with pytest.raises(DataError, match=f"^{re.escape(base)}: {re.escape(FILE_REFUSED)}$"):
        ablate_freeze(mini_cfg(), train, test + [dataclasses.replace(test[0], id="file",
                                                                     image=base)])
    assert calls == []


def test_cli_train_without_test_split_runs(tmp_path):
    """split_ratio 1.0 leaves the test split empty on purpose (overfit)."""
    cfg = write_config(tmp_path, write_corpus(tmp_path), split_ratio=1.0)
    assert main(["train", "--config", cfg]) == 0


def test_cli_exit_code_runtime_error(tmp_path):
    cfg = write_config(tmp_path, str(tmp_path / "missing.jsonl"))
    assert main(["train", "--config", cfg]) == 4


def test_cli_ablate_freeze(tmp_path, capsys):
    data = write_corpus(tmp_path)
    cfg = write_config(tmp_path, data)
    out = tmp_path / "ab"
    assert main(["ablate", "freeze", "--config", cfg, "--out", str(out)]) == 0
    contract = json.loads(capsys.readouterr().out)
    assert contract["frozen_bytes_unchanged"] is True


@pytest.mark.parametrize("seeds", ["0", "1"])
def test_cli_ablate_extractors_needs_two_seeds(tmp_path, capsys, monkeypatch, seeds):
    """Welch's test needs two accuracies per arm: refuse before any arm builds
    its model."""
    import vivqa.train as train_mod

    calls = []
    monkeypatch.setattr(train_mod, "build_model", lambda *a, **k: calls.append(a))
    cfg = write_config(tmp_path, write_corpus(tmp_path))
    assert main(["ablate", "extractors", "--seeds", seeds, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "at least 2 seeds" in err
    assert calls == []


@pytest.mark.parametrize("field, value", [("data", "other.jsonl"), ("eval_data", "test.jsonl"),
                                          ("split_ratio", 0.5)])
def test_cli_significance_refuses_configs_on_other_corpora(tmp_path, capsys, monkeypatch,
                                                           field, value):
    """Both configs run on config A's splits, so two configs that differ in
    `data`, `eval_data` or `split_ratio` exit 2 naming the field, before any
    arm builds its model."""
    import vivqa.train as train_mod

    calls = []
    monkeypatch.setattr(train_mod, "build_model", lambda *a, **k: calls.append(a))
    data = write_corpus(tmp_path)
    paths = []
    for name, extra in (("a.json", {}), ("b.json", {field: value})):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps({"preset": "tiny", "data": data, **extra}))
    assert main(["significance", "--config-a", str(paths[0]), "--config-b", str(paths[1]),
                 "--seeds", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and repr(field) in err and err.count("\n") == 1
    assert calls == []


def test_cli_sweep(tmp_path, capsys):
    data = write_corpus(tmp_path)
    cfg = write_config(tmp_path, data)
    assert main(["sweep", "--axis", "heads", "--values", "1,2",
                 "--config", cfg]) == 0
    curve = json.loads(capsys.readouterr().out)
    assert len(curve) == 2


@pytest.mark.parametrize("axis, values", [("heads", "2,5"), ("layers", "1,0")])
def test_cli_sweep_refuses_an_invalid_arm_before_any_trains(tmp_path, capsys, monkeypatch,
                                                            axis, values):
    """Every arm's config is built before the first arm runs, so an invalid
    value after a valid one exits 2 with no arm trained."""
    import vivqa.train as train_mod

    calls, train_model = [], train_mod.train_model
    monkeypatch.setattr(train_mod, "train_model", lambda *a: calls.append(a) or train_model(*a))
    cfg = write_config(tmp_path, write_corpus(tmp_path))
    assert main(["sweep", "--axis", axis, "--values", values, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert calls == []


def test_cli_unknown_config_field_rejected(tmp_path):
    data = write_corpus(tmp_path)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"preset": "tiny", "data": data, "learning_rate": 1}))
    assert main(["train", "--config", str(cfg)]) == 2


# ---------------------------------------------------------------------------
# Experiment recipes

ROOT = Path(__file__).resolve().parents[1]


def test_experiment_configs_run_through_readme_commands():
    """Each experiments/*.json is a valid RunConfig, and the README runs it
    with one parseable `vivqa` line on corpora that its `vivqa synth` lines
    write."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    commands = [shlex.split(line.split("#")[0])[1:]
                for line in readme if line.startswith("vivqa ")]
    parser = build_parser()
    synth_dirs = {os.path.normpath(parser.parse_args(argv).out)
                  for argv in commands if argv[0] == "synth"}
    configs = sorted((ROOT / "experiments").glob("*.json"))
    assert configs
    for path in configs:
        cfg = RunConfig.from_file(path)
        name = f"experiments/{path.name}"
        runs = [argv for argv in commands if name in argv]
        assert len(runs) == 1, f"README has {len(runs)} commands for {name}"
        assert parser.parse_args(runs[0]).config == name
        for corpus in filter(None, (cfg.data, cfg.eval_data)):
            assert os.path.dirname(corpus) in synth_dirs, (name, corpus)

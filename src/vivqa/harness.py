"""Experiment harness: fusion-operator comparison, extractor ablation with
seed-level significance, freeze ablation, heads/layers sweeps, and
multi-seed significance between two configs.  Emits CSV and Markdown
tables; all deterministic given (config, seeds, corpus).  Each entry point
declares its arms as a list of configs, so an invalid arm is refused before
any arm trains, and runs them through `_arms`, which owns the experiment's
one frozen-feature store: every image is rendered and extracted once per
experiment.  A frozen arm fills it for both splits before training; each
arm scores the test split only (the train split when there is none).
"""
from __future__ import annotations

import csv
import os
from dataclasses import asdict, replace

import numpy as np

from . import train  # called through the module, whose names perfbench wraps
from .config import RunConfig
from .errors import ConfigError
from .metrics import report as metrics_report, welch_t_test, write_json
from .tensor import no_grad
from .vision import FUSION_OPS, frozen_extractor, fused_token_count, sparsity_stats

FUSION_LABELS = {
    "multiply": "Element-wise Multiplication",
    "add": "Element-wise Addition",
    "concatenate": "Concatenation",
}


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _write_table(out, stem, header, rows) -> None:
    """One table as `<stem>.csv` and `<stem>.md` in `out`."""
    _write_csv(os.path.join(out, f"{stem}.csv"), header, rows)
    with open(os.path.join(out, f"{stem}.md"), "w", encoding="utf-8") as fh:
        fh.write("| " + " | ".join(header) + " |\n")
        fh.write("|" + "|".join("---" for _ in header) + "|\n")
        for row in rows:
            fh.write("| " + " | ".join(str(c) for c in row) + " |\n")


def _run_arm(cfg: RunConfig, train_split, test_split, store: dict):
    """(report, model, accuracy on the test split, else the train split)."""
    model = train.build_model(cfg, train_split, store)
    model.fill_store(list(train_split) + list(test_split or []))
    report = train.train_model(model, train_split, cfg)
    records = train.predict_split(model, test_split or train_split)
    return report, model, metrics_report(records).accuracy


def _arms(cfgs, train_split, test_split):
    """Each arm's (report, model, accuracy), in `cfgs` order, over one shared store."""
    store: dict = {}
    for cfg in cfgs:
        yield _run_arm(cfg, train_split, test_split, store)


def ablate_fusion(cfg: RunConfig, train_split, test_split, out_dir=None) -> dict:
    """Train the three fusion operators under identical seeds; report
    accuracy per operator plus the per-image fused-feature mean spread
    behind the sparsity boxplots."""
    cfgs = [replace(cfg, fusion_op=op, vision_mode="both") for op in FUSION_OPS]
    results = {}
    for op, (_, model, acc) in zip(FUSION_OPS, _arms(cfgs, train_split, test_split)):
        with no_grad():         # the boxplot pass: no graph, `batch_size` examples a call
            means = [float(m) for i in range(0, len(train_split), cfg.batch_size) for m in
                     model.vision_tokens(train_split[i:i + cfg.batch_size]).data.mean(axis=(1, 2))]
        results[op] = {
            "label": FUSION_LABELS[op],
            "fused_dims": f"{fused_token_count(op, model.vision_dims.n_tokens)}"
                          f"x{model.vision_dims.token_dim}",
            "accuracy": acc,
            "boxplot_means": means,
            "sparsity": sparsity_stats(np.asarray(means)),
        }
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        header = ["Operation", "Fused dims", "Accuracy"]
        rows = [[r["label"], r["fused_dims"], f"{r['accuracy']:.4f}"]
                for r in results.values()]
        _write_table(out_dir, "fusion_ablation", header, rows)
        _write_csv(os.path.join(out_dir, "fusion_boxplot_data.csv"),
                   ["operation", "example_index", "feature_mean"],
                   [(op, i, m) for op, r in results.items()
                    for i, m in enumerate(r["boxplot_means"])])
    return results


EXTRACTOR_ARMS = (
    ("local", "EfficientNet-stub only"),
    ("global", "BLIP-2-stub only"),
    ("both", "combined"),
)


def ablate_extractors(cfg: RunConfig, train_split, test_split, seeds,
                      out_dir=None) -> dict:
    """Local-only / global-only / combined runs per seed, with Welch
    t-tests of combined against each single arm."""
    seeds = list(seeds)
    if len(seeds) < 2:
        raise ConfigError("the extractor ablation needs at least 2 seeds")
    cfgs = [replace(cfg, vision_mode=mode, seed=seed) for seed in seeds
            for mode, _ in EXTRACTOR_ARMS]
    flat = [acc for _, _, acc in _arms(cfgs, train_split, test_split)]
    accs = {mode: flat[i::len(EXTRACTOR_ARMS)] for i, (mode, _) in enumerate(EXTRACTOR_ARMS)}
    results = {"per_seed": accs, "mean": {m: float(np.mean(a)) for m, a in accs.items()},
               "t_tests": {f"both_vs_{mode}": asdict(welch_t_test(accs["both"], accs[mode]))
                           for mode in ("local", "global")}}
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        header = ["Visual Extractor", "Accuracy (mean)", "p vs combined"]
        rows = []
        for mode, label in EXTRACTOR_ARMS:
            p = ("-" if mode == "both"
                 else f"{results['t_tests'][f'both_vs_{mode}']['p']:.4g}")
            rows.append([label, f"{results['mean'][mode]:.4f}", p])
        _write_table(out_dir, "extractor_ablation", header, rows)
        write_json(os.path.join(out_dir, "extractor_ablation.json"), results)
    return results


def ablate_freeze(cfg: RunConfig, train_split, test_split, out_dir=None) -> dict:
    """Frozen vs unfrozen extractors at identical seed.  Asserts the freeze
    contract (bitwise-constant extractor bytes, strictly fewer trainable
    parameters and backward node visits); wall clock is reported only."""
    # The frozen arm's read-only draw: byte-identical to the unfrozen arm's initial extractor.
    digest_before = frozen_extractor(cfg.dims.vision, cfg.extractor_seed).byte_digest()
    # unfrozen first: it refuses a feature file before any training
    cfgs = [replace(cfg, freeze_extractors=frozen) for frozen in (False, True)]
    results = {}
    for name, (report, model, acc) in zip(("unfrozen", "frozen"),
                                          _arms(cfgs, train_split, test_split)):
        results[name] = {
            "accuracy": acc,
            "epochs": report.epochs_run,
            "training_seconds": report.wall_clock_seconds,
            "trainable_params": report.param_counts["trainable"],
            "backward_node_visits": report.backward_node_visits,
            "extractor_bytes_unchanged": digest_before == model.extractor.byte_digest(),
        }
    fr, uf = results["frozen"], results["unfrozen"]
    results["contract"] = {
        "frozen_bytes_unchanged": fr["extractor_bytes_unchanged"],
        "fewer_trainable_params": fr["trainable_params"] < uf["trainable_params"],
        "fewer_backward_visits": fr["backward_node_visits"] < uf["backward_node_visits"],
    }
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        header = ["Visual Extractor", "Freeze", "Accuracy", "Epoch", "Training Time (s)",
                  "Trainable Params", "Backward Node Visits"]
        rows = [
            ["stub extractors", freeze, f"{r['accuracy']:.4f}", r["epochs"],
             f"{r['training_seconds']:.1f}", r["trainable_params"], r["backward_node_visits"]]
            for freeze, r in (("yes", fr), ("no", uf))
        ]
        _write_table(out_dir, "freeze_ablation", header, rows)
    return results


def sweep(cfg: RunConfig, axis: str, values, train_split, test_split,
          out_dir=None) -> list[dict]:
    """One run per value at fixed seed; the other axis stays pinned."""
    if axis not in ("heads", "layers"):
        raise ConfigError(f"sweep axis must be 'heads' or 'layers', got {axis!r}")
    cfgs = [replace(cfg, **{axis: int(value)}) for value in values]
    curve = [{axis: getattr(c, axis), "accuracy": acc}
             for c, (_, _, acc) in zip(cfgs, _arms(cfgs, train_split, test_split))]
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        _write_csv(os.path.join(out_dir, f"sweep_{axis}.csv"), [axis, "accuracy"],
                   [[pt[axis], f"{pt['accuracy']:.6f}"] for pt in curve])
    return curve


def significance(cfg_a: RunConfig, cfg_b: RunConfig, train_split, test_split,
                 n_seeds: int = 10, out_dir=None) -> dict:
    """Run both configs across n_seeds seeds and Welch-test the accuracies."""
    if n_seeds < 2:
        raise ConfigError("significance needs at least 2 seeds")
    seeds = list(range(n_seeds))
    cfgs = [replace(base, seed=seed) for seed in seeds for base in (cfg_a, cfg_b)]
    accs = [acc for _, _, acc in _arms(cfgs, train_split, test_split)]
    a, b = accs[0::2], accs[1::2]
    result = {"seeds": seeds, "accuracies_a": a, "accuracies_b": b,
              **asdict(welch_t_test(a, b))}
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        _write_csv(os.path.join(out_dir, "significance_per_seed.csv"),
                   ["seed", "accuracy_a", "accuracy_b"], zip(seeds, a, b))
        write_json(os.path.join(out_dir, "significance.json"), result)
    return result

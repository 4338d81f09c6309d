"""Command-line driver.

Exit codes: 0 success, 2 config error, 3 data error, 4 runtime error.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from .config import RunConfig, read_config_file
from .data import load_jsonl, make_synthetic, corpus_stats, split_train_test
from .errors import ConfigError, DataError, FormatError, VivqaError
from .harness import ablate_extractors, ablate_freeze, ablate_fusion, significance, sweep
from .metrics import read_predictions, report as metrics_report, write_json_lines
from .model import load_checkpoint
from .train import evaluate_model, run_training


def _load_config(args) -> RunConfig:
    obj = read_config_file(args.config) if getattr(args, "config", None) else {}
    for key in ("seed", "preset", "data", "out"):
        value = getattr(args, key, None)
        if value is not None:
            obj[key] = value
    return RunConfig.from_dict(obj)


def _load_corpus(path):
    examples = load_jsonl(path)
    if not examples:
        raise DataError(f"{path}: empty corpus")
    return examples


def _splits_for(cfg: RunConfig):
    if cfg.data is None:
        raise ConfigError("--data (or config field 'data') is required")
    examples = _load_corpus(cfg.data)
    if cfg.eval_data:
        return examples, _load_corpus(cfg.eval_data)
    return split_train_test(examples, cfg.split_ratio)


def cmd_train(args) -> None:
    cfg = _load_config(args)
    report, _ = run_training(cfg, *_splits_for(cfg))
    print(json.dumps(report.deterministic_dict()["train_metrics"], indent=2))


def cmd_eval(args) -> None:
    model, _ = load_checkpoint(args.ckpt)
    rep, _ = evaluate_model(model, _load_corpus(args.data), out_dir=args.out)
    print(json.dumps(asdict(rep), indent=2))


def cmd_ablate(args) -> None:
    cfg = _load_config(args)
    train_split, test_split = _splits_for(cfg)
    if args.what == "fusion":
        results = ablate_fusion(cfg, train_split, test_split, out_dir=cfg.out)
        summary = {op: {"accuracy": r["accuracy"], "fused_dims": r["fused_dims"]}
                   for op, r in results.items()}
    elif args.what == "extractors":
        results = ablate_extractors(cfg, train_split, test_split, range(args.seeds),
                                    out_dir=cfg.out)
        summary = {"mean": results["mean"], "t_tests": results["t_tests"]}
    else:
        results = ablate_freeze(cfg, train_split, test_split, out_dir=cfg.out)
        summary = results["contract"]
    print(json.dumps(summary, indent=2, sort_keys=True))


def cmd_sweep(args) -> None:
    try:
        values = [int(v) for v in args.values.split(",")]
    except ValueError:
        raise ConfigError(f"--values must be comma-separated integers, "
                          f"got {args.values!r}") from None
    cfg = _load_config(args)
    train_split, test_split = _splits_for(cfg)
    curve = sweep(cfg, args.axis, values, train_split, test_split, out_dir=cfg.out)
    print(json.dumps(curve, indent=2))


def cmd_significance(args) -> None:
    cfg_a = RunConfig.from_file(args.config_a)
    cfg_b = RunConfig.from_file(args.config_b)
    for name in ("data", "eval_data", "split_ratio"):     # both run on cfg_a's splits
        if getattr(cfg_a, name) != getattr(cfg_b, name):
            raise ConfigError(f"--config-a and --config-b differ in {name!r}")
    train_split, test_split = _splits_for(cfg_a)
    result = significance(cfg_a, cfg_b, train_split, test_split,
                          n_seeds=args.seeds, out_dir=args.out)
    print(json.dumps({k: result[k] for k in ("t", "df", "p", "significant")}, indent=2))


def cmd_stats(args) -> None:
    stats = corpus_stats(_load_corpus(args.data))
    print(f"No. Samples             {stats['count']}")
    print(f"Longest Question Length {stats['longest_question']}")
    print(f"Longest Answer Length   {stats['longest_answer']}")
    print(f"Average Question Length {stats['average_question']}")
    print(f"Average Answer Length   {stats['average_answer']}")


def cmd_synth(args) -> None:
    import os
    try:
        examples = make_synthetic(args.n, getattr(args, "global"), args.local, args.seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "corpus.jsonl")
    write_json_lines(path, examples)
    print(path)


def cmd_score(args) -> None:
    records = read_predictions(args.pred)
    if not records:
        raise DataError(f"{args.pred}: no prediction records")
    print(json.dumps(asdict(metrics_report(records)), indent=2))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vivqa")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_args(p):
        p.add_argument("--config", help="JSON file mirroring RunConfig fields")
        p.add_argument("--seed", type=int)
        p.add_argument("--preset", choices=("paper", "tiny"))
        p.add_argument("--data")
        p.add_argument("--out")

    p = sub.add_parser("train", help="train a model")
    add_run_args(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="run an ablation")
    p.add_argument("what", choices=("fusion", "extractors", "freeze"))
    p.add_argument("--seeds", type=int, default=5,
                   help="seed count for the extractor ablation")
    add_run_args(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("sweep", help="heads/layers sweep")
    p.add_argument("--axis", choices=("heads", "layers"), required=True)
    p.add_argument("--values", required=True, help="comma-separated values")
    add_run_args(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("significance", help="multi-seed comparison of two configs")
    p.add_argument("--config-a", required=True)
    p.add_argument("--config-b", required=True)
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--out")
    p.set_defaults(func=cmd_significance)

    p = sub.add_parser("stats", help="corpus statistics")
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--global", type=int, required=True, dest="global")
    p.add_argument("--local", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("score", help="recompute metrics from a predictions JSONL")
    p.add_argument("--pred", required=True)
    p.set_defaults(func=cmd_score)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, FormatError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (VivqaError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Training protocol and evaluation: cross-entropy over the answer classes,
AdamW with the cosine-warmup schedule, deterministic batching per seed.
Each minibatch is one forward graph, fed its drop-path masks as one table
(a pure function of seed, epoch, example id and image, and site), one
backward and one optimizer step; evaluation runs 2 * batch_size chunks (the
forward is batch-invariant) with no drop path and without recording a graph.

Reports are split into a deterministic part (report.json — a pure function
of config, seed, corpus) and two files that are allowed to vary between
machines: timing.txt and platform.json, the kernels the bits came from.
"""
from __future__ import annotations

import ctypes
import math
import os
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import tensor as T
from .classifier import predict
from .config import RunConfig
from .data import AnswerVocab, batch_iter
from .errors import NumericalError
from .metrics import PredictionRecord, report as metrics_report, write_json, write_json_lines
from .model import VivqaModel, save_checkpoint
from .multiway import block_drop_rates
from .optim import AdamW, ScheduleConfig, lr_at
from .rng import RngStream, keep_table
from .text import build_vocab


@dataclass
class RunReport:
    seed: int
    config: dict
    epoch_losses: list = field(default_factory=list)
    train_metrics: dict | None = None
    test_metrics: dict | None = None
    param_counts: dict | None = None
    backward_node_visits: int = 0
    epochs_run: int = 0
    wall_clock_seconds: float = 0.0

    def deterministic_dict(self) -> dict:
        """Everything that must be bitwise reproducible per (config, seed,
        corpus): wall clock and filesystem paths are excluded."""
        out = asdict(self)
        out.pop("wall_clock_seconds")
        out["config"] = {k: v for k, v in out["config"].items()
                         if k not in ("data", "eval_data", "out")}
        return out


def build_model(cfg: RunConfig, train_split, store: dict | None = None) -> VivqaModel:
    vocab = build_vocab([ex.question for ex in train_split])
    answer_vocab = AnswerVocab.from_examples(train_split)
    return VivqaModel(cfg, vocab, answer_vocab, store)


def predict_split(model: VivqaModel, split) -> list[PredictionRecord]:
    """Eval-mode inference over a split, in split order, 2 * batch_size examples a forward."""
    split = list(split)
    size = 2 * model.cfg.batch_size
    records = []
    with T.no_grad():
        for start in range(0, len(split), size):
            chunk = split[start:start + size]
            logits = model.forward(chunk)
            finite = np.isfinite(logits.data).all(axis=1)
            if not finite.all():
                raise NumericalError(f"example {chunk[finite.argmin()].id!r} has non-finite logits")
            answers = predict(logits, model.answer_vocab.answers)
            records += [PredictionRecord(id=ex.id, prediction=answer, ground_truth=ex.answer)
                        for ex, answer in zip(chunk, answers)]
    return records


def train_model(model: VivqaModel, train_split, cfg: RunConfig) -> RunReport:
    """Run the optimization loop on an already-built model, frozen features stored first."""
    optimizer = AdamW(model.trainable_params(), model.arena, model.grad, model.n_decay,
                      betas=cfg.adam_betas, eps=cfg.adam_eps, weight_decay=cfg.weight_decay)
    n_batches = math.ceil(len(train_split) / cfg.batch_size)
    schedule = ScheduleConfig(peak_lr=cfg.lr, total_steps=cfg.epochs * n_batches + 1,
                              warmup_ratio=cfg.warmup_ratio, floor_lr=cfg.floor_lr)
    if cfg.drop_path > 0:           # each block's rate at its attention and expert sites
        drop = RngStream(cfg.seed).split("drop-path")
        item_keys = {(e.id, e.image): drop.split(e.id).split(e.image).seed for e in train_split}
        site_rates = np.repeat(block_drop_rates(cfg), 2)
    report = RunReport(seed=cfg.seed, config=asdict(cfg))
    model.fill_store(train_split)       # extraction is not training time
    visits_before = T.backward_node_visits()
    started = time.perf_counter()
    step = 0
    for epoch in range(cfg.epochs):
        loss_sum = 0.0
        hits = 0
        total = 0
        for examples, targets in batch_iter(train_split, cfg.batch_size, model.answer_vocab,
                                            cfg.seed, epoch, is_train=True):
            optimizer.zero_grad()
            table = (keep_table(drop.seed, epoch, [item_keys[ex.id, ex.image] for ex in examples],
                                site_rates) if cfg.drop_path > 0 else None)
            logits = model.forward(examples, table)
            loss = T.cross_entropy(logits, targets)
            value = float(loss.data)
            if not math.isfinite(value):
                raise NumericalError(
                    f"training loss is {value} at epoch {epoch}, step {step}")
            loss_sum += value * len(examples)
            hits += int(np.sum(np.argmax(logits.data, axis=1) == targets))
            total += len(examples)
            T.backward(loss)
            bad = optimizer.nonfinite_grad()
            if bad is not None:
                raise NumericalError(
                    f"gradient of {bad} is non-finite at epoch {epoch}, step {step}")
            optimizer.step(lr_at(step + 1, schedule))    # of n + 1: not the ramp's 0 or floor
            step += 1
        report.epoch_losses.append(loss_sum / max(1, total))
        report.epochs_run = epoch + 1
        if (cfg.early_stop_train_acc is not None
                and total and hits / total >= cfg.early_stop_train_acc):
            break
    report.wall_clock_seconds = time.perf_counter() - started
    report.backward_node_visits = T.backward_node_visits() - visits_before
    report.param_counts = model.param_counts()
    return report


def platform_record() -> dict:
    """The kernels a run's bits come from: numpy's version and dispatch targets (each
    with whether it runs here), and OpenBLAS's core and config, or "unknown"."""
    umath = (getattr(np, "_core", None) or np.core)._multiarray_umath
    text = ctypes.CFUNCTYPE(ctypes.c_char_p)        # const char *(void)
    blas = ctypes.CDLL(umath.__file__)      # its lookups reach the BLAS numpy links
    record = {"numpy": np.__version__, "cpu_dispatch": {
        t: bool(umath.__cpu_features__.get(t)) for t in umath.__cpu_dispatch__}}
    for key in ("corename", "config"):
        get = getattr(blas, f"scipy_openblas_get_{key}64_", None)
        record[f"openblas_{key}"] = ctypes.cast(get, text)().decode() if get else "unknown"
    return record


def run_training(cfg: RunConfig, train_split, test_split) -> tuple[RunReport, VivqaModel]:
    """Full train entry: train, evaluate both splits, write report and
    checkpoint when cfg.out is set."""
    model = build_model(cfg, train_split)
    report = train_model(model, train_split, cfg)

    train_records = predict_split(model, train_split)
    report.train_metrics = asdict(metrics_report(train_records))
    test_records = None
    if test_split:
        test_records = predict_split(model, test_split)
        report.test_metrics = asdict(metrics_report(test_records))

    if cfg.out:
        os.makedirs(cfg.out, exist_ok=True)
        write_json(os.path.join(cfg.out, "report.json"), report.deterministic_dict())
        with open(os.path.join(cfg.out, "timing.txt"), "w") as fh:
            fh.write(f"wall_clock_seconds={report.wall_clock_seconds:.3f}\n")
        write_json(os.path.join(cfg.out, "platform.json"), platform_record())
        save_checkpoint(os.path.join(cfg.out, "checkpoint.npz"), model)
        write_json_lines(os.path.join(cfg.out, "train_predictions.jsonl"), train_records)
        if test_records is not None:
            write_json_lines(os.path.join(cfg.out, "test_predictions.jsonl"), test_records)
    return report, model


def evaluate_model(model: VivqaModel, corpus, out_dir=None):
    """Eval-mode inference + metrics; optionally writes predictions JSONL."""
    records = predict_split(model, corpus)
    rep = metrics_report(records)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        write_json_lines(os.path.join(out_dir, "predictions.jsonl"), records)
        write_json(os.path.join(out_dir, "metrics.json"), asdict(rep))
    return rep, records

"""Instrumentation the benchmark installs from the outside: nothing under
src/vivqa is edited.

Every wrapper replaces a function at the name its caller looks it up under
(for example `vivqa.model.extract_global_stub`, not `vivqa.vision.…`), so
the program's own call sites run through it. `patched` restores the
originals on exit.

- `Probe` is always installed. It keeps what the end-to-end metrics and the
  output checks need: optimizer step times, training reports, prediction
  records. It costs a few clock reads per optimizer step and per call of
  `train_model` / `predict_split`.
- `Tracer` is installed only in traced repeats. It keeps one span per call
  of each function in `TRACED` (name, start, end, parent, run id, phase)
  plus the exact-count layer counters of the timed phase, all in memory; the
  spans are written out once the run ends.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import time
from collections import defaultdict

# Metric name -> (module, attribute path) where the caller looks it up.
TRACED = {
    "data.render_synthetic": ("vivqa.model", "render_synthetic"),
    "vision.extract_global_stub": ("vivqa.model", "extract_global_stub"),
    "vision.extract_local_stub": ("vivqa.model", "extract_local_stub"),
    "vision.adapt_local": ("vivqa.model", "adapt_local"),
    "vision.fuse": ("vivqa.model", "fuse"),
    "vvqf.read_feature_file": ("vivqa.model", "read_feature_file"),
    "model.save_checkpoint": ("vivqa.model", "save_checkpoint"),
    "model.load_checkpoint": ("vivqa.model", "load_checkpoint"),
    "train.build_model": ("vivqa.train", "build_model"),
    "text.encode": ("vivqa.model", "text_encode"),
    "text.project": ("vivqa.model", "project"),
    "multiway.concat_modalities": ("vivqa.model", "concat_modalities"),
    "multiway.shared_attention": ("vivqa.multiway", "shared_attention"),
    "multiway.expert_sublayer": ("vivqa.multiway", "expert_sublayer"),
    "multiway.encode": ("vivqa.model", "fusion_encode"),
    "multiway.pool_cls": ("vivqa.model", "pool_cls"),
    "classifier.classify": ("vivqa.model", "classify"),
    "classifier.predict": ("vivqa.train", "predict"),
    "tensor.cross_entropy": ("vivqa.tensor", "cross_entropy"),
    "tensor.backward": ("vivqa.tensor", "backward"),
    "optim.AdamW.step": ("vivqa.optim", "AdamW.step"),
    "train.train_model": ("vivqa.train", "train_model"),
    "train.predict_split": ("vivqa.train", "predict_split"),
    "harness.ablate_extractors": ("vivqa.harness", "ablate_extractors"),
    "metrics.welch_t_test": ("vivqa.harness", "welch_t_test"),
}

# The layers that run in some workload's set-up. They are reported a second
# time, under `setup.<name>`, from the set-up phase's spans.
SETUP_LAYERS = ("train.build_model", "model.save_checkpoint", "data.render_synthetic",
                "vision.extract_global_stub", "vision.extract_local_stub")


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


@contextlib.contextmanager
def patched(wrappers):
    """Install `{(module, attr): make_wrapper(original)}` and undo it on exit.

    Wrappers for the same target stack in the order given."""
    saved = []
    try:
        for (module, attr), make in wrappers:
            owner, name = _resolve(module, attr)
            original = getattr(owner, name)
            saved.append((owner, name, original))
            setattr(owner, name, functools.wraps(original)(make(original)))
        yield
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


class Probe:
    """Always-on observations of one repeat."""

    def __init__(self):
        self.step_s: list[float] = []
        self.train_s = 0.0
        self.train_examples = 0
        self.epoch_losses: list[list[float]] = []
        self.eval_s = 0.0
        self.eval_examples = 0
        self.predictions: list[tuple[str, str]] = []
        self.coverage_failures: list[str] = []
        self._step_started = None

    def wrappers(self):
        def zero_grad(orig):
            def run(opt):
                self._step_started = time.perf_counter()
                return orig(opt)
            return run

        def step(orig):
            # One optimizer step spans AdamW.zero_grad → AdamW.step return in
            # train_model, so the optimizer's construction is not counted.
            def run(opt, lr):
                out = orig(opt, lr)
                self.step_s.append(time.perf_counter() - self._step_started)
                return out
            return run

        def train_model(orig):
            def run(model, split, cfg):
                t0 = time.perf_counter()
                report = orig(model, split, cfg)
                self.train_s += time.perf_counter() - t0
                self.train_examples += len(split) * report.epochs_run
                self.epoch_losses.append(list(report.epoch_losses))
                return report
            return run

        def predict_split(orig):
            def run(model, split):
                t0 = time.perf_counter()
                records = orig(model, split)
                self.eval_s += time.perf_counter() - t0
                split = list(split)
                self.eval_examples += len(split)
                if [r.id for r in records] != [ex.id for ex in split]:
                    self.coverage_failures.append(
                        f"predict_split returned {len(records)} records for "
                        f"{len(split)} examples")
                self.predictions.extend((r.id, r.prediction) for r in records)
                return records
            return run

        return [
            (("vivqa.optim", "AdamW.zero_grad"), zero_grad),
            (("vivqa.optim", "AdamW.step"), step),
            (("vivqa.train", "train_model"), train_model),
            (("vivqa.train", "predict_split"), predict_split),
        ]


class Tracer:
    """Spans and exact layer counters for the traced repeats of one run.

    `run_id` and `phase` ("setup" or "timed") label what runs next; the
    counters count the timed phase only."""

    def __init__(self):
        self.spans: list[list] = []       # [name, start, end, parent, run_id, phase]
        self.counters: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.run_id = 0
        self.phase = "timed"
        self._stack: list[int] = []

    def _span(self, name, orig):
        spans, stack = self.spans, self._stack

        def run(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id, self.phase]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                return orig(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
        return run

    def _count(self, name, amount):
        if self.phase == "timed":
            self.counters[self.run_id][name] += amount

    def wrappers(self):
        def count_step(orig):
            def run(opt, lr):
                self._count("optim.step.param_elems", sum(p.size for p in opt.params.values()))
                return orig(opt, lr)
            return run

        def count_read(orig):
            def run(path):
                self._count("vvqf.read.bytes", os.path.getsize(path))
                return orig(path)
            return run

        out = [(target, functools.partial(self._span, name))
               for name, target in TRACED.items()]
        out.append((TRACED["optim.AdamW.step"], count_step))
        out.append((TRACED["vvqf.read_feature_file"], count_read))
        return out

    def layer_totals(self, run_id: int, phase: str) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds) over the spans of one repeat's phase.

        Self time is a span's duration minus that of its direct children;
        the program is single-threaded, so children never overlap."""
        child_s: dict[int, float] = defaultdict(float)
        for name, start, end, parent, rid, ph in self.spans:
            if rid == run_id and ph == phase and parent >= 0:
                child_s[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, parent, rid, ph) in enumerate(self.spans):
            if rid == run_id and ph == phase:
                calls[name] += 1
                self_s[name] += end - start - child_s[idx]
        return {name: (calls[name], self_s[name]) for name in TRACED}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def span_cost_s(calls: int = 20_000, trials: int = 5) -> float:
    """What one traced call adds to a call: a span wrapper around a no-op,
    less the bare no-op, best of `trials`."""
    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer._span("noop", noop)

    def best(fn):
        times = []
        for _ in range(trials):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            times.append(time.perf_counter() - t0)
            tracer.spans.clear()
        return min(times)

    return max(best(wrapped) - best(noop), 0.0) / calls

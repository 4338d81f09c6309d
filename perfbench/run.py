#!/usr/bin/env python3
"""Benchmark of the vivqa pipeline: one workload per invocation, closed loop,
one caller, BLAS pinned to one thread.

    python3 perfbench/run.py --workload tiny-train --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/`. A run repeats the workload (set-up, then the timed phase) with the
same seed until `--seconds` have passed, and at least twice, then checks the
outputs and prints every metric with its unit. Every end-to-end timing is
scaled to the host's quiet speed, measured by a fixed reference workload
run around each repeat (see "Host speed" below). The last line of standard
output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.

With `--trace 0` the metrics are the end-to-end ones. With `--trace 1`
repeats alternate untraced and traced, and the metrics are per layer: calls
and self time of each wrapped function in the timed phase (and, under
`setup.`, of the layers that run in set-up), exact layer counters of the
timed phase, and the tracing overhead. See perfbench/README.md.
"""
import os

# Pinned before numpy loads: the machine has two cores and is shared.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import gc
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

MIN_REPEATS = 2
P90_MIN_SAMPLES = 100
# Printed with every run, but not declared in BENCHMARK.json: each is absent
# or zero on some workload, or (step_ms_p50) unsteady where steps of
# different costs mix (see perfbench/README.md).
EXTRA_UNITS = {"train_examples_per_s": "1/s", "step_ms_p50": "ms", "step_ms_p90": "ms",
               "step_samples": "count", "eval_accuracy": "share", "repeats": "count",
               "host_speed": "ratio", "failed_op_share": "share"}


def import_program():
    """Import vivqa from this checkout's src/, and nothing else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import vivqa
    except ImportError as exc:
        sys.exit(f"run.py: cannot import vivqa from {src}: {exc}")
    if Path(vivqa.__file__).resolve().parent != src / "vivqa":
        sys.exit(f"run.py: imported vivqa from {vivqa.__file__}, not from {src}")


# ---------------------------------------------------------------------------
# Workloads. Each has set-up (timed as setup_s) and a timed phase
# (run_wall_s); the seed feeds make_synthetic and RunConfig.seed.


@dataclasses.dataclass
class Workload:
    config: dict          # RunConfig fields; recorded with the result
    setup: Callable[[], object]
    # (state, probe) -> (eval accuracy, further output that must repeat exactly)
    timed: Callable[[object, object], tuple]
    distinct_images: int
    cleanup: Callable[[], None] = lambda: None


def _tiny_train(seed):
    from vivqa import metrics, train
    from vivqa.config import RunConfig
    from vivqa.data import make_synthetic

    # The c3 shape with drop path on and a fixed epoch count (no early stop):
    # Python overhead per graph node dominates.
    config = dict(preset="tiny", layers=2, heads=2, batch_size=16, lr=1e-3,
                  drop_path=0.1, epochs=6, seed=seed)

    def setup():
        corpus = make_synthetic(128, 4, 4, seed=seed)
        cfg = RunConfig(**config)
        return corpus, cfg, train.build_model(cfg, corpus)

    def timed(state, probe):
        corpus, cfg, model = state
        train.train_model(model, corpus, cfg)
        records = train.predict_split(model, corpus)
        return metrics.report(records).accuracy, None

    return Workload(config, setup, timed, 128)


def _tiny_ablate(seed):
    from vivqa import harness
    from vivqa.config import RunConfig
    from vivqa.data import make_synthetic

    # c4's corpus and depth at a few fixed epochs: every arm re-renders and
    # re-extracts the same 224 images, so caching across arms shows here.
    # Three seeds per arm keep Welch's test clear of all-equal samples.
    config = dict(preset="tiny", layers=1, heads=2, batch_size=16, lr=1e-3,
                  drop_path=0.0, epochs=2, seed=seed)
    arm_seeds = [seed, seed + 1, seed + 2]

    def setup():
        tr = make_synthetic(160, 4, 4, seed=seed, id_prefix="tr")
        te = make_synthetic(64, 4, 4, seed=seed + 1, id_prefix="te")
        return tr, te, RunConfig(**config)

    def timed(state, probe):
        tr, te, cfg = state
        result = harness.ablate_extractors(cfg, tr, te, seeds=arm_seeds)
        return result["mean"]["both"], json.dumps(result, sort_keys=True)

    return Workload(dict(config, arm_seeds=arm_seeds), setup, timed, 224)


def _paper_train(seed):
    from vivqa import metrics, train
    from vivqa.config import RunConfig
    from vivqa.data import make_synthetic

    # Paper preset, one optimizer step at batch 8: BLAS work and full-size
    # gradient arrays dominate.
    config = dict(preset="paper", layers=6, heads=6, batch_size=8, lr=3e-5,
                  drop_path=0.3, epochs=1, seed=seed)

    def setup():
        corpus = make_synthetic(8, 2, 2, seed=seed)
        cfg = RunConfig(**config)
        return corpus, cfg, train.build_model(cfg, corpus)

    def timed(state, probe):
        corpus, cfg, model = state
        train.train_model(model, corpus, cfg)
        return metrics.report(train.predict_split(model, corpus)).accuracy, None

    return Workload(config, setup, timed, 8)


def _eval_from_files(name, config, n_examples):
    from vivqa import metrics, model as vmodel, train
    from vivqa.config import RunConfig
    from vivqa.data import make_synthetic
    from vivqa.vvqf import write_feature_file

    # Forward only, and vision reads VVQF files instead of rendering: changes
    # to backward or AdamW should not show here. A "step" is predict_split
    # over one batch_size chunk.
    work = OUT_DIR / f"{name}-{os.getpid()}"
    ckpt = work / "checkpoint.npz"

    def setup():
        work.mkdir(parents=True, exist_ok=True)
        corpus = make_synthetic(n_examples, 4, 4, seed=config["seed"])
        cfg = RunConfig(**config)
        built = train.build_model(cfg, corpus)
        eval_corpus = []
        for ex in corpus:
            prefix = str(work / ex.id)
            g, l = built.visual_features(ex)
            write_feature_file(prefix + ".global.vvqf", g)
            write_feature_file(prefix + ".local.vvqf", l)
            eval_corpus.append(dataclasses.replace(ex, image=prefix))
        vmodel.save_checkpoint(ckpt, built)
        return eval_corpus, cfg

    def timed(state, probe):
        corpus, cfg = state
        loaded, _ = vmodel.load_checkpoint(ckpt)
        records = []
        for i in range(0, len(corpus), cfg.batch_size):
            t0 = time.perf_counter()
            records += train.predict_split(loaded, corpus[i:i + cfg.batch_size])
            probe.step_s.append(time.perf_counter() - t0)
        return metrics.report(records).accuracy, None

    return Workload(config, setup, timed, n_examples,
                    cleanup=lambda: shutil.rmtree(work, ignore_errors=True))


def _tiny_eval(seed):
    # tiny-train's model and corpus, untrained, served from a checkpoint and
    # VVQF feature files: the load and file-read path at a size where the
    # interpreter, not BLAS, sets the pace.
    return _eval_from_files("tiny-eval", dict(
        preset="tiny", layers=2, heads=2, batch_size=16, drop_path=0.1, epochs=0,
        seed=seed), 128)


def _paper_eval(seed):
    return _eval_from_files("paper-eval", dict(
        preset="paper", layers=6, heads=6, batch_size=8, drop_path=0.3, epochs=0,
        seed=seed), 16)


# BENCHMARK.json declares the tiny workloads. The paper-scale ones run the
# same way by hand; their timings follow the host's load further than the
# benchmark's bounds allow (see perfbench/README.md, "Host speed and noise").
MAKERS = {"tiny-train": _tiny_train, "tiny-ablate": _tiny_ablate, "tiny-eval": _tiny_eval,
          "paper-train": _paper_train, "paper-eval": _paper_eval}


# ---------------------------------------------------------------------------
# Host speed. On a shared VM other tenants slow interpreter-bound code, by up
# to 1.7x on a 2-vCPU Xeon KVM guest, for seconds to minutes at a time. A fixed reference workload of the
# benchmark's own runs before each repeat's set-up and after its timed
# phase; the repeat's `speed` is REFERENCE_S over the reference's median
# time there, and each timing of the repeat is reported times its speed:
# the time it would have taken at the host's quiet speed.

REFERENCE_S = 0.0018    # the reference's median time on the quiet host (2-vCPU Xeon VM)
REFERENCE_CALLS = 3     # before the set-up, and again after the timed phase
_rng = np.random.default_rng(0)
_REFERENCE_ARRAYS = tuple(_rng.standard_normal(shape) for shape in ((24, 64), (64, 64), (64, 16)))


def reference_s() -> float:
    """One pass of small matrix products, element-wise numpy and Python
    objects, shaped like a tiny-preset forward and backward."""
    x, w1, w2 = _REFERENCE_ARRAYS
    t0 = time.perf_counter()
    for _ in range(60):
        h = np.tanh(x @ w1)
        out = h @ w2
        grad = out - out.mean(axis=0)
        grad_h = (grad @ w2.T) * (1 - h * h)
        grad_w1 = x.T @ grad_h
        {i: float(v) for i, v in enumerate(grad_w1[0, :16])}
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Repeats and checks


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _signature(probe, out):
    """Everything a repeat of one seed must reproduce bitwise."""
    losses = tuple(tuple(float(v).hex() for v in run) for run in probe.epoch_losses)
    return losses, tuple(probe.predictions), out


def run_repeat(wl, probe, tracer):
    from probes import patched
    from vivqa import tensor

    wrappers = probe.wrappers() + (tracer.wrappers() if tracer else [])
    with patched(wrappers):
        gc.collect()
        refs = [reference_s() for _ in range(REFERENCE_CALLS)]
        if tracer:
            tracer.phase = "setup"
        t0 = time.perf_counter()
        state = wl.setup()
        setup_s = time.perf_counter() - t0
        if tracer:
            tracer.phase = "timed"
        visits0 = tensor.backward_node_visits()
        t0 = time.perf_counter()
        out = wl.timed(state, probe)
        wall = time.perf_counter() - t0
        visits = tensor.backward_node_visits() - visits0
    refs += [reference_s() for _ in range(REFERENCE_CALLS)]
    del state
    gc.collect()
    return dict(setup_s=setup_s, wall_s=wall, speed=REFERENCE_S / statistics.median(refs),
                accuracy=out[0],
                signature=_signature(probe, out), backward_visits=visits)


def run(workload: str, seed: int, seconds: float, trace: bool):
    import probes
    wl = MAKERS[workload](seed)
    tracer = probes.Tracer() if trace else None
    checks = Checks()
    repeats = []
    started = time.perf_counter()
    try:
        # Stop before a repeat that would end past `seconds`, so a run's
        # length does not depend on how far its last repeat overshoots.
        while (len(repeats) < MIN_REPEATS
               or (time.perf_counter() - started) * (len(repeats) + 1) / len(repeats)
               <= seconds):
            run_id = len(repeats)
            traced = trace and run_id % 2 == 1
            if tracer:
                tracer.run_id = run_id
            probe = probes.Probe()
            rep = run_repeat(wl, probe, tracer if traced else None)
            rep.update(probe=probe, traced=traced, run_id=run_id)
            repeats.append(rep)
    finally:
        wl.cleanup()

    first = repeats[0]
    for i, rep in enumerate(repeats):
        p = rep["probe"]
        for losses in p.epoch_losses:
            checks.check(all(math.isfinite(v) for v in losses),
                         f"repeat {i}: non-finite epoch loss {losses}")
        checks.check(not p.coverage_failures, f"repeat {i}: {p.coverage_failures}")
        if i:
            kind = "traced vs untraced" if rep["traced"] != first["traced"] else "repeat"
            checks.check(rep["signature"] == first["signature"],
                         f"repeat {i}: losses/predictions differ from repeat 0 ({kind})")
            checks.check(rep["backward_visits"] == first["backward_visits"],
                         f"repeat {i}: backward node visits differ from repeat 0")

    # Timings below are at the host's quiet speed (see "Host speed").
    untraced = [r for r in repeats if not r["traced"]]
    steps = [s * r["speed"] for r in untraced for s in r["probe"].step_s]
    extra = {
        "train_examples_per_s": _median_rate(
            (r["probe"].train_examples, r["probe"].train_s * r["speed"]) for r in untraced),
        "step_ms_p50": 1000 * statistics.median(steps),
        "step_ms_p90": (1000 * statistics.quantiles(steps, n=10, method="inclusive")[-1]
                        if len(steps) >= P90_MIN_SAMPLES else None),
        "step_samples": len(steps),
        "eval_accuracy": first["accuracy"],
        "repeats": len(repeats),
        "host_speed": statistics.median(r["speed"] for r in untraced),
    }
    if trace:
        metrics = per_layer(wl, tracer, repeats, checks)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{workload}-seed{seed}.jsonl")
    else:
        metrics = {
            "setup_s": (statistics.median(r["setup_s"] * r["speed"] for r in untraced), "s"),
            "run_wall_s": (statistics.median(r["wall_s"] * r["speed"] for r in untraced), "s"),
            "eval_examples_per_s": (_median_rate(
                (r["probe"].eval_examples, r["probe"].eval_s * r["speed"]) for r in untraced),
                "1/s"),
            # The mean, not the median: tiny-ablate's three arms take
            # different times per step, and the median of that mixture jumps
            # between them.
            "step_ms_mean": (1000 * statistics.median(
                statistics.fmean(r["probe"].step_s) * r["speed"] for r in untraced), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    extra["failed_op_share"] = len(checks.failures) / checks.attempted
    return wl, metrics, extra, checks


def _median_rate(counts_and_seconds):
    rates = [n / s for n, s in counts_and_seconds if s > 0]
    return statistics.median(rates) if rates else None


def per_layer(wl, tracer, repeats, checks):
    from probes import SETUP_LAYERS, TRACED, span_cost_s
    traced = [r for r in repeats if r["traced"]]
    totals = [tracer.layer_totals(r["run_id"], "timed") for r in traced]
    setup_totals = [tracer.layer_totals(r["run_id"], "setup") for r in traced]
    metrics = {}
    layers = [(name, name, totals) for name in TRACED]
    layers += [(f"setup.{name}", name, setup_totals) for name in SETUP_LAYERS]
    for label, name, phase_totals in layers:
        calls = [t[name][0] for t in phase_totals]
        checks.check(len(set(calls)) == 1, f"{label}: call counts differ across repeats {calls}")
        metrics[f"{label}.calls"] = (calls[0], "count")
        metrics[f"{label}.self_s"] = (statistics.median(t[name][1] for t in phase_totals), "s")

    def exact(name, per_repeat, unit):
        checks.check(len(set(per_repeat)) == 1, f"{name}: differs across repeats {per_repeat}")
        metrics[name] = (per_repeat[0], unit)

    exact("tensor.backward.nodes_per_example",
          [r["backward_visits"] / r["probe"].train_examples if r["probe"].train_examples
           else 0 for r in repeats], "count")
    exact("vision.extracts_per_image",
          [t["vision.extract_global_stub"][0] / wl.distinct_images for t in totals], "count")
    exact("optim.step.param_elems",
          [tracer.counters[r["run_id"]]["optim.step.param_elems"] / len(r["probe"].step_s)
           if r["probe"].train_examples else 0 for r in traced], "count")
    exact("vvqf.read.bytes",
          [tracer.counters[r["run_id"]]["vvqf.read.bytes"] for r in traced], "bytes")
    # Spans of the timed phase, and what they add to run_wall_s: one traced
    # call's measured cost per span. Traced minus untraced run_wall_s would
    # rest on one or two pairs of repeats on most workloads, and is noise.
    spans = [sum(calls for calls, _ in t.values()) for t in totals]
    exact("trace.spans", spans, "count")
    metrics["trace.overhead_s"] = (spans[0] * span_cost_s(), "s")
    return metrics


# ---------------------------------------------------------------------------
# Environment record and output


def git_sha():
    """HEAD of the checkout's git repository, or None outside one. Git does
    not look above the checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(workload, seed, seconds, trace, config):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "config": config, "nproc": os.cpu_count(),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": os.environ["OPENBLAS_NUM_THREADS"]},
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "python": platform.python_version(), "git_sha": git_sha(),
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=MAKERS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    import_program()

    wl, metrics, extra, checks = run(args.workload, args.seed, args.seconds, bool(args.trace))
    env = environment(args.workload, args.seed, args.seconds, args.trace, wl.config)
    for failure in checks.failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)

    width = max(len(n) for n in list(metrics) + list(extra))
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value:.6g} {unit}")
    for name, value in extra.items():
        shown = "n/a" if value is None else f"{value:.6g} {EXTRA_UNITS[name]}"
        print(f"{name:<{width}}  {shown}")
    print("env: " + json.dumps(env, sort_keys=True))

    result = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = dict(result, env=env, extra=extra, failures=checks.failures)
    with open(OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()

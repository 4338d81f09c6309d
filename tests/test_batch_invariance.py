"""Batch invariance of the forward: an example's logits and attention
weights are the same bits in a batch of any size, at any position in it,
and in `vivqa eval`'s chunks.  The test holds on this host's kernels and,
in a child process, on the declared numeric baseline (`numeric_baseline`).
"""
import contextlib
import dataclasses
import io
import os
import tempfile
from unittest import mock

import vivqa.tensor as T
from vivqa.cli import main
from vivqa.config import RunConfig
from vivqa.data import make_synthetic
from vivqa.metrics import write_json_lines
from vivqa.model import VivqaModel, load_checkpoint, save_checkpoint
from vivqa.train import build_model, train_model

from numeric_baseline import baseline_env, run_child

SIZES = (1, 2, 3, 16, 17)
N = 17                                      # examples compared in each check
ORDER = [(7 * i + 3) % N for i in range(N)]     # a permutation: 7 is prime to 17


def _corpus():
    """34 examples whose questions run from 2 words to past the tiny l_max of 6."""
    corpus = make_synthetic(34, 4, 4, seed=5)
    lengths = {0: "what pair", 1: "name the pair shown in this image here"}
    return [dataclasses.replace(ex, question=lengths.get(i % 5, ex.question))
            for i, ex in enumerate(corpus)]


def _rows(model, examples, size):
    """Per example, its logits row and each block's attention weights rows, from
    forwards of `size` examples at a time."""
    rows = []
    with T.no_grad():
        for start in range(0, len(examples), size):
            chunk, sink = examples[start:start + size], []
            logits = model.forward(chunk, weights_sink=sink)
            rows += [[logits.data[i]] + [w[i] for w in sink] for i in range(len(chunk))]
    return rows


def _differing(got, want):
    """Positions whose rows in `got` and `want` differ in shape or in any bit."""
    return [i for i, (a, b) in enumerate(zip(got, want, strict=True))
            if [(x.shape, x.tobytes()) for x in a] != [(y.shape, y.tobytes()) for y in b]]


def _eval_logits(path, examples, work):
    """Per example, its logits row in an in-process `vivqa eval` of the checkpoint."""
    write_json_lines(os.path.join(work, "corpus.jsonl"), examples)
    seen, forward = [], VivqaModel.forward

    def spy(model, *args, **kwargs):
        logits = forward(model, *args, **kwargs)
        seen.extend([row] for row in logits.data)
        return logits

    with mock.patch.object(VivqaModel, "forward", spy), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main(["eval", "--ckpt", path, "--data", os.path.join(work, "corpus.jsonl"),
                     "--out", os.path.join(work, "out")])
    assert code == 0
    return seen


def invariance_failures() -> list:
    """Each (model, check) in which some example's rows are not those it gets in
    batches of 16: trained 1- and 2-layer tiny models, frozen and unfrozen,
    at every batch size in SIZES, in a permuted batch, and in a `vivqa eval`
    of 17 examples at batch 16 against batches of 2 of the loaded checkpoint."""
    corpus, failures = _corpus(), []
    items = corpus[:N]
    for layers in (1, 2):
        for frozen in (True, False):
            cfg = RunConfig(preset="tiny", layers=layers, heads=2, batch_size=16, epochs=2,
                            seed=3, freeze_extractors=frozen)
            model = build_model(cfg, corpus)
            train_model(model, corpus, cfg)
            want = _rows(model, items, 16)
            checks = [(f"B={size}", _rows(model, items, size), want) for size in SIZES]
            permuted = _rows(model, [items[i] for i in ORDER], 16)
            checks.append(("permuted", [permuted[ORDER.index(i)] for i in range(N)], want))
            with tempfile.TemporaryDirectory() as work:
                path = os.path.join(work, "ckpt.npz")
                save_checkpoint(path, model)
                pairs = _rows(load_checkpoint(path)[0], items, 2)
                checks.append(("eval", _eval_logits(path, items, work),
                               [row[:1] for row in pairs]))
            failures += [f"layers={layers} frozen={frozen} {check}: examples {bad}"
                         for check, got, ref in checks if (bad := _differing(got, ref))]
    return failures


def test_every_example_gets_its_bits_in_any_batch():
    assert invariance_failures() == []


def test_every_example_gets_its_bits_in_any_batch_on_the_baseline():
    assert run_child("test_batch_invariance", "invariance_failures", baseline_env()) == []

"""Property tests of the exit-code contract on damaged binary inputs.

One byte of a tiny checkpoint or of one VVQF pair is flipped, or the file
is cut short, and `vivqa eval` runs in-process on it.  The property: `main`
returns 0 or 3 and raises nothing, and on 0 its predictions are those of
the intact files; a file cut short exits 3.  A flip the containers cannot
see (a zip timestamp, the local header's copy of a CRC) may exit 0; one
that would reach the predictions must exit 3.  Examples are derandomized,
so every run tries the same files.
"""
import contextlib
import dataclasses
import io

import pytest
from hypothesis import given, settings, strategies as st

from vivqa.cli import main
from vivqa.config import RunConfig
from vivqa.data import make_synthetic
from vivqa.metrics import write_json_lines
from vivqa.model import save_checkpoint
from vivqa.train import build_model
from vivqa.vvqf import write_feature_file

FILES = ("checkpoint.npz", "pair.global.vvqf", "pair.local.vvqf")


@pytest.fixture(scope="module")
def intact(tmp_path_factory):
    """(work dir, {file name: intact bytes}, intact predictions): a frozen
    tiny checkpoint and a corpus of four examples, the first on a VVQF pair."""
    work = tmp_path_factory.mktemp("eval")
    corpus = make_synthetic(4, 2, 2, seed=1)
    model = build_model(RunConfig(preset="tiny", layers=1, heads=2, batch_size=4, epochs=0),
                        corpus)
    save_checkpoint(work / "checkpoint.npz", model)
    for part, suffix in zip(model.visual_features(corpus[0]), (".global.vvqf", ".local.vvqf")):
        write_feature_file(work / f"pair{suffix}", part)
    write_json_lines(work / "corpus.jsonl",
                     [dataclasses.replace(corpus[0], image=str(work / "pair"))] + corpus[1:])
    raw = {name: (work / name).read_bytes() for name in FILES}
    code, predictions = _eval(work)
    assert code == 0
    return work, raw, predictions


def _eval(work):
    """(exit code, predictions.jsonl bytes or None) of `vivqa eval` on `work`'s files."""
    out = work / "out"
    (out / "predictions.jsonl").unlink(missing_ok=True)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["eval", "--ckpt", str(work / "checkpoint.npz"),
                     "--data", str(work / "corpus.jsonl"), "--out", str(out)])
    written = out / "predictions.jsonl"
    return code, written.read_bytes() if written.exists() else None


def _eval_damaged(intact, name, damaged):
    """`_eval` with file `name` holding `damaged` and the others intact."""
    work, raw, _ = intact
    for other in FILES:
        (work / other).write_bytes(damaged if other == name else raw[other])
    return _eval(work)


def _position(size):
    """Any byte, with the headers at both ends, where the containers keep
    their structure, drawn as often as the rest."""
    return st.one_of(st.integers(0, min(size, 256) - 1),
                     st.integers(max(0, size - 512), size - 1),
                     st.integers(0, size - 1))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_a_flipped_byte_exits_0_with_the_intact_predictions_or_3(intact, data):
    name = data.draw(st.sampled_from(FILES))
    damaged = bytearray(intact[1][name])
    damaged[data.draw(_position(len(damaged)))] ^= data.draw(st.integers(1, 255))
    code, written = _eval_damaged(intact, name, bytes(damaged))
    assert code == 3 or code == 0 and written == intact[2]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_a_file_cut_short_exits_3(intact, data):
    name = data.draw(st.sampled_from(FILES))
    raw = intact[1][name]
    assert _eval_damaged(intact, name, raw[:data.draw(_position(len(raw)))]) == (3, None)

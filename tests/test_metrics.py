"""Metrics and significance tests: brute-force token oracles, canonicalization
rules, prediction-file round trip, and Welch t-test reference values."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as sstats

from vivqa.errors import DataError, StatisticsError
from vivqa.metrics import (
    MetricsReport, PredictionRecord, TTestResult, canonicalize, read_predictions,
    regularized_incomplete_beta, report, student_t_sf2, welch_t_test, write_json_lines,
)


def rec(pred, gt, id_="x"):
    return PredictionRecord(id=id_, prediction=pred, ground_truth=gt)


# ---------------------------------------------------------------------------
# Canonicalization


def test_canonicalize_collapses_and_casefolds():
    assert canonicalize("  Màu   ĐỎ \t") == "màu đỏ"
    assert canonicalize("Màu đỏ") == canonicalize("màu đỏ")


def test_canonicalize_keeps_diacritics():
    assert canonicalize("mau do") != canonicalize("màu đỏ")


# ---------------------------------------------------------------------------
# Hand-evaluated oracles


def test_accuracy_hand():
    records = [rec("a", "a"), rec("b", "b"), rec("c", "c"), rec("d", "e")]
    assert report(records).accuracy == 0.75


def test_accuracy_casefold_match():
    assert report([rec("Màu đỏ", "màu đỏ")]).accuracy == 1.0


def test_precision_recall_hand():
    got = report([rec("a b", "b c")])
    assert got == MetricsReport(accuracy=0.0, precision=0.5, recall=0.5, f1=0.5, n=1)


def test_report_averages_per_question_scores():
    """(1 + 0.5) / 2 precision, (1 + 1/3) / 2 recall and (1 + 0.4) / 2 F1."""
    got = report([rec("A  b", "a b", "q1"), rec("x y", "x z w", "q2")])
    assert (got.accuracy, got.n) == (0.5, 2)
    assert got.precision == (1.0 + 0.5) / 2
    assert got.recall == (1.0 + 1 / 3) / 2
    assert got.f1 == (1.0 + 2 * 0.5 * (1 / 3) / (0.5 + 1 / 3)) / 2


def test_f1_zero_guard():
    # no token overlap: p = r = 0 must contribute 0, not NaN
    got = report([rec("a", "b"), rec("c", "c")])
    assert (got.precision, got.recall, got.f1) == (0.5, 0.5, 0.5)


def test_empty_prediction_precision_zero():
    got = report([rec("", "a b")])
    assert (got.accuracy, got.precision, got.recall, got.f1) == (0.0, 0.0, 0.0, 0.0)


def test_empty_ground_truth_is_data_error():
    with pytest.raises(DataError, match="'q2'"):
        report([rec("a", "a", "q1"), rec("a", "   ", "q2")])


def test_empty_record_list_rejected():
    with pytest.raises(ValueError):
        report([])
    with pytest.raises(ValueError):
        report(iter([]))


def test_set_vs_multiset_semantics():
    got = report([rec("a a b", "a b")])
    # set semantics: pred {a,b}, overlap 2/2 (a multiset count would give 2/3)
    assert got.precision == 1.0


# ---------------------------------------------------------------------------
# Brute-force oracle on randomized record sets


def _oracle_report(records):
    n = len(records)
    acc = p_sum = r_sum = f_sum = 0.0
    for r in records:
        pred_raw = " ".join(r.prediction.split()).casefold()
        gt_raw = " ".join(r.ground_truth.split()).casefold()
        if pred_raw == gt_raw:
            acc += 1
        pset, gset = set(pred_raw.split()), set(gt_raw.split())
        inter = sum(1 for t in pset if t in gset)
        p = inter / len(pset) if pset else 0.0
        rc = inter / len(gset)
        p_sum += p
        r_sum += rc
        if p + rc > 0:
            f_sum += 2 * p * rc / (p + rc)
    return acc / n, p_sum / n, r_sum / n, f_sum / n


VOCAB = ["đỏ", "xanh", "vàng", "trái", "chó", "mèo", "a", "b", "c"]


def _random_answer(r):
    k = int(r.integers(0, 4))
    return " ".join(VOCAB[int(i)] for i in r.integers(0, len(VOCAB), size=k))


def test_metrics_match_bruteforce_on_1000_sets():
    r = np.random.default_rng(7)
    for _ in range(1000):
        n = int(r.integers(1, 8))
        records = []
        for i in range(n):
            gt = _random_answer(r)
            while not gt.strip():
                gt = _random_answer(r)
            records.append(rec(_random_answer(r), gt, id_=str(i)))
        got = report(records)
        want = _oracle_report(records)
        assert got.accuracy == want[0]
        assert got.precision == want[1]
        assert got.recall == want[2]
        assert got.f1 == want[3]


@given(st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_metrics_permutation_invariant(seed):
    r = np.random.default_rng(seed)
    records = [rec(_random_answer(r), "a b", id_=str(i)) for i in range(6)]
    rep1 = report(records)
    rep2 = report(records[::-1])
    assert rep1.n == rep2.n
    assert rep1.accuracy == rep2.accuracy
    for field in ("precision", "recall", "f1"):
        assert getattr(rep1, field) == pytest.approx(getattr(rep2, field), abs=1e-12)


def test_prediction_file_round_trip(tmp_path):
    records = [rec("màu đỏ", "màu đỏ", "q1"), rec("2", "3", "q2")]
    path = tmp_path / "preds.jsonl"
    write_json_lines(path, records)
    back = read_predictions(path)
    assert back == records


def test_read_predictions_bad_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a", "prediction": "x"}\n')
    with pytest.raises(DataError):
        read_predictions(path)


# ---------------------------------------------------------------------------
# Welch t-test: frozen references and scipy as the independent oracle


def test_welch_frozen_reference():
    got = welch_t_test([1, 2, 3, 4, 5], [2, 3, 4, 5, 6])
    assert got.t == pytest.approx(-1.0, abs=1e-6)
    assert got.df == pytest.approx(8.0, abs=1e-6)
    assert got.p == pytest.approx(0.3466, abs=1e-3)
    assert not got.significant


def test_welch_separated_samples():
    got = welch_t_test([0.0, 0.01], [10.0, 10.01])
    assert got.p < 1e-4
    assert got.significant


def test_t_table_anchors():
    assert student_t_sf2(0.0, 8) == pytest.approx(1.0, abs=1e-12)
    assert student_t_sf2(2.306, 8) == pytest.approx(0.05, abs=1e-3)


@pytest.mark.parametrize("seed", range(10))
def test_welch_matches_scipy(seed):
    r = np.random.default_rng(seed)
    a = r.normal(0.0, 1.0, size=int(r.integers(2, 12)))
    b = r.normal(0.3, 2.0, size=int(r.integers(2, 12)))
    got = welch_t_test(a, b)
    want = sstats.ttest_ind(a, b, equal_var=False)
    assert got.t == pytest.approx(want.statistic, abs=1e-6)
    assert got.p == pytest.approx(want.pvalue, abs=1e-3)


def test_welch_antisymmetric():
    a, b = [1.0, 2.0, 4.0], [2.0, 5.0, 6.0]
    ab = welch_t_test(a, b)
    ba = welch_t_test(b, a)
    assert ab.t == pytest.approx(-ba.t, abs=1e-12)
    assert ab.p == pytest.approx(ba.p, abs=1e-12)
    assert ab.df == pytest.approx(ba.df, abs=1e-12)


def test_welch_degenerate_rejected():
    with pytest.raises(StatisticsError):
        welch_t_test([1.0, 1.0], [2.0, 2.0])
    with pytest.raises(StatisticsError):
        welch_t_test([1.0], [1.0, 2.0])


def test_incomplete_beta_bounds_and_symmetry():
    assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
    assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0
    # I_x(a,b) = 1 - I_{1-x}(b,a)
    for x in (0.1, 0.4, 0.9):
        lhs = regularized_incomplete_beta(2.5, 1.5, x)
        rhs = 1.0 - regularized_incomplete_beta(1.5, 2.5, 1.0 - x)
        assert lhs == pytest.approx(rhs, abs=1e-10)


@given(st.floats(0.01, 0.99), st.floats(0.5, 20.0), st.floats(0.5, 20.0))
@settings(max_examples=100, deadline=None)
def test_incomplete_beta_matches_scipy(x, a, b):
    from scipy.special import betainc
    assert regularized_incomplete_beta(a, b, x) == pytest.approx(
        float(betainc(a, b, x)), abs=1e-8)


def test_significant_flag_threshold():
    res = TTestResult(t=0.0, df=8.0, p=0.049, significant=True)
    assert res.significant
    got = welch_t_test([1, 2, 3], [1.1, 2.1, 3.1])
    assert got.significant == (got.p < 0.05)

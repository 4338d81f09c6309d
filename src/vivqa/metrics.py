"""Answer-level evaluation metrics and seed-level significance testing.

Accuracy is exact string match after canonicalization; precision/recall/F1
work on whitespace token sets per question and are averaged over questions.
The significance test is Welch's unequal-variance t-test with a two-sided
p-value from the regularized incomplete beta function (evaluated by Lentz's
continued fraction, tolerance 1e-10).  The one JSON Lines reader and the one
writer per artifact format live here too, so corpus files in `data` (which
imports this module), predictions and reports share one byte layout.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Iterator

from .errors import DataError, ParseError, StatisticsError


@dataclass(frozen=True)
class PredictionRecord:
    id: str
    prediction: str
    ground_truth: str


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float
    precision: float
    recall: float
    f1: float
    n: int


@dataclass(frozen=True)
class TTestResult:
    t: float
    df: float
    p: float
    significant: bool  # p < 0.05


def canonicalize(answer: str) -> str:
    """Trim, collapse internal whitespace, casefold.  No diacritic stripping:
    that could merge distinct Vietnamese words."""
    return " ".join(answer.split()).casefold()


def report(records) -> MetricsReport:
    """Every metric in one pass over `records`, each sum taken left to right
    from 0 as `sum()` does."""
    records = list(records)
    if not records:
        raise ValueError("metrics require at least one record")
    hits = p_sum = r_sum = f_sum = 0
    for r in records:
        pred, gt = canonicalize(r.prediction), canonicalize(r.ground_truth)
        hits += pred == gt
        pred, gt = set(pred.split()), set(gt.split())
        if not gt:
            raise DataError(f"record {r.id!r} has empty ground truth after tokenization")
        inter = len(pred & gt)
        p = inter / len(pred) if pred else 0.0  # empty prediction -> precision 0
        rec = inter / len(gt)
        p_sum += p
        r_sum += rec
        f_sum += 0.0 if p == 0.0 and rec == 0.0 else 2.0 * p * rec / (p + rec)
    n = len(records)
    return MetricsReport(accuracy=hits / n, precision=p_sum / n, recall=r_sum / n,
                         f1=f_sum / n, n=n)


# ---------------------------------------------------------------------------
# JSON Lines and JSON (UTF-8): the one reader and writers behind every artifact


def read_json_lines(path, required) -> Iterator[tuple[int, dict]]:
    """(line number, object) per non-blank line.  A line that is not a JSON
    object holding every `required` key as a string is a ParseError naming the line."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            if not isinstance(obj, dict):
                raise ParseError(f"{path}:{lineno}: expected a JSON object, "
                                 f"got {type(obj).__name__}")
            missing = [k for k in required if k not in obj]
            if missing:
                raise ParseError(f"{path}:{lineno}: missing fields {missing}")
            for k in required:
                if not isinstance(obj[k], str):
                    raise ParseError(f"{path}:{lineno}: field {k!r} is {json.dumps(obj[k])}, "
                                     f"not a string")
            yield lineno, obj


def write_json_lines(path, records) -> None:
    """One line per dataclass record, its fields in declaration order, non-ASCII kept."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(asdict(r), ensure_ascii=False) + "\n" for r in records)


def write_json(path, obj) -> None:
    """A report: 2-space indent, sorted keys, no trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)


def read_predictions(path) -> list[PredictionRecord]:
    keys = ("id", "prediction", "ground_truth")
    return [PredictionRecord(*(obj[k] for k in keys))
            for _, obj in read_json_lines(path, keys)]


# ---------------------------------------------------------------------------
# Welch's t-test


def _betacf(a: float, b: float, x: float, tol: float = 1e-10, max_iter: int = 500) -> float:
    """Continued fraction for the incomplete beta (Lentz's method)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < tol:
            return h
    raise StatisticsError("incomplete beta continued fraction did not converge")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log(1.0 - x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_sf2(t: float, df: float) -> float:
    """Two-sided tail probability P(|T_df| >= |t|)."""
    if df <= 0:
        raise StatisticsError(f"degrees of freedom must be positive, got {df}")
    x = df / (df + t * t)
    return regularized_incomplete_beta(df / 2.0, 0.5, x)


def welch_t_test(a, b) -> TTestResult:
    a = [float(v) for v in a]
    b = [float(v) for v in b]
    na, nb = len(a), len(b)
    if na < 2 or nb < 2:
        raise StatisticsError("each sample needs at least 2 observations")
    ma = sum(a) / na
    mb = sum(b) / nb
    va = sum((v - ma) ** 2 for v in a) / (na - 1)
    vb = sum((v - mb) ** 2 for v in b) / (nb - 1)
    if va == 0.0 and vb == 0.0:
        raise StatisticsError("degenerate samples: both variances are zero")
    sea2 = va / na
    seb2 = vb / nb
    se = math.sqrt(sea2 + seb2)
    df = (sea2 + seb2) ** 2 / (sea2 ** 2 / (na - 1) + seb2 ** 2 / (nb - 1))
    t = (ma - mb) / se
    p = student_t_sf2(t, df)
    return TTestResult(t=t, df=df, p=p, significant=p < 0.05)

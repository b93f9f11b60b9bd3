"""Feature ranking: chi-squared scores and forest importance."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import learners
from .errors import KTooLarge, NegativeFeature, PValueClampWarning, SingleClass
from .features import FeatureMatrix, _write_table_csv

_SMALLEST_POSITIVE = math.ulp(0.0)  # 5e-324


@dataclass(frozen=True)
class ScoredFeature:
    name: str
    score: float
    p_value: Optional[float]


def _lower_gamma_series(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) by series expansion."""
    term = 1.0 / a
    total = term
    n = 1
    while True:
        term *= x / (a + n)
        total += term
        if abs(term) < abs(total) * 1e-16 or n > 1000:
            break
        n += 1
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _upper_gamma_cf(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) by continued fraction
    (modified Lentz)."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 1000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def chi2_survival(x: float, df: int) -> float:
    """Upper tail of the chi-squared distribution: Q(df/2, x/2)."""
    if x < 0:
        raise ValueError("chi2_survival requires x >= 0")
    if df < 1:
        raise ValueError("df must be a positive integer")
    if x == 0:
        return 1.0
    a = df / 2.0
    half = x / 2.0
    if half < a + 1.0:
        return min(max(1.0 - _lower_gamma_series(a, half), 0.0), 1.0)
    return min(max(_upper_gamma_cf(a, half), 0.0), 1.0)


def chi2_statistics(m: FeatureMatrix, labels: np.ndarray) -> list[ScoredFeature]:
    """Score every column by the sum-based chi-squared statistic, without
    p-values (None): ranking needs only the statistic.

    observed_c = sum of the feature over rows of class c, expected_c =
    class frequency times the feature's total mass.  Zero-mass columns
    score 0.
    """
    X = m.X
    labels = np.asarray(labels)
    if np.any(X < 0):
        raise NegativeFeature("chi-squared needs nonnegative features; "
                              "apply minmax scaling first")
    classes = learners._classes(labels)
    if classes.size < 2:
        raise SingleClass("need at least two classes")

    n = X.shape[0]
    masks = np.vstack([(labels == c).astype(float) for c in classes])
    freqs = masks.sum(axis=1) / n                    # class frequency
    observed = masks @ X                             # classes x features
    totals = X.sum(axis=0)
    expected = np.outer(freqs, totals)
    with np.errstate(invalid="ignore", divide="ignore"):
        terms = (observed - expected) ** 2 / expected
    terms[:, totals == 0] = 0.0
    stats = terms.sum(axis=0)
    return [ScoredFeature(name=name, score=float(score), p_value=None)
            for name, score in zip(m.vocab.columns, stats)]


def chi2_scores(m: FeatureMatrix, labels: np.ndarray) -> list[ScoredFeature]:
    """Every column's chi-squared statistic (see chi2_statistics) with its
    p-value; zero-mass columns get p = 1."""
    scores = chi2_statistics(m, labels)
    df = learners._classes(np.asarray(labels)).size - 1
    out: list[ScoredFeature] = []
    clamped = 0
    for s in scores:
        if s.score == 0.0:
            p = 1.0
        else:
            p = chi2_survival(s.score, df)
            if p == 0.0:
                p = _SMALLEST_POSITIVE
                clamped += 1
        out.append(ScoredFeature(name=s.name, score=s.score, p_value=p))
    if clamped:
        warnings.warn(f"{clamped} p-values underflowed and were clamped to "
                      f"{_SMALLEST_POSITIVE!r}", PValueClampWarning)
    return out


def _ranked(scores: list[ScoredFeature]) -> list[ScoredFeature]:
    """By descending score; ties broken lexicographically."""
    return sorted(scores, key=lambda s: (-s.score, s.name))


def select_top_k(scores: list[ScoredFeature], k: int) -> list[str]:
    """Top-k names in `_ranked` order."""
    if k < 0:
        raise ValueError(f"k={k} is negative")
    if k > len(scores):
        raise KTooLarge(f"k={k} exceeds {len(scores)} scored features")
    return [s.name for s in _ranked(scores)[:k]]


def forest_importance(m: FeatureMatrix, labels, forest_params: dict,
                      seed: int = 0) -> list[ScoredFeature]:
    """Mean impurity decrease per feature over a fitted random forest,
    normalized to sum to 1.  p_value is 1 (not applicable).  Task names
    work as labels: the forest fits on their sorted class indices."""
    model = learners.train("forest", m.X, labels, forest_params, seed,
                           feature_names=m.vocab.columns)
    imp = model.impl.feature_importances()
    return [ScoredFeature(name=n, score=float(v), p_value=1.0)
            for n, v in zip(m.vocab.columns, imp)]


def write_scores_csv(scores: list[ScoredFeature], path) -> None:
    _write_table_csv(path, ["name", "score", "p_value"],
                     ([s.name, s.score, s.p_value] for s in _ranked(scores)))

"""Experiment orchestration: splits, CV, search, curves, robustness.

All randomness flows from one top-level seed; reports embed the seed and a
corpus digest so reruns are bit-identical (wall-clock time is kept out of
the canonical payload).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import features as feat
from . import learners, selection
from .errors import ClassTooSmall, EmptyGrid, EmptyGroup
from .features import FeatureMatrix
from .learners import _sub_seed
from .trace_parser import trace_paths


def _is_multilabel(labels) -> bool:
    """Task-name targets (strings), as opposed to binary 0/1 labels."""
    return np.asarray(labels).dtype.kind in "UOS"


@dataclass
class ExperimentReport:
    kind: str
    config: dict
    seed: int
    data_digest: str
    payload: dict
    wall_clock_s: float = 0.0

    def canonical_json(self) -> str:
        """Deterministic serialization (excludes wall-clock time)."""
        body = {"kind": self.kind, "config": self.config, "seed": self.seed,
                "data_digest": self.data_digest, "payload": self.payload}
        return json.dumps(body, sort_keys=True, indent=2)

    def to_json(self) -> str:
        body = json.loads(self.canonical_json())
        body["wall_clock_s"] = self.wall_clock_s
        return json.dumps(body, sort_keys=True, indent=2)


def stratified_split_indices(labels, seed: int):
    """Per-class shuffled allocation: 10% of each class (at least one row)
    to validation, as many to test, the rest to train."""
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    train, val, test = [], [], []
    classes = sorted(set(labels.tolist()))
    for c in classes:
        idx = np.flatnonzero(labels == c)
        if len(idx) < 3:
            raise ClassTooSmall(
                f"class {c!r} has {len(idx)} samples; need at least 3")
        idx = rng.permutation(idx)
        n = max(1, int(len(idx) * 0.1))
        val.extend(idx[:n].tolist())
        test.extend(idx[n:2 * n].tolist())
        train.extend(idx[2 * n:].tolist())
    return (np.sort(np.asarray(train, dtype=int)),
            np.sort(np.asarray(val, dtype=int)),
            np.sort(np.asarray(test, dtype=int)))


def holdout_split(m: FeatureMatrix, labels, seed: int):
    """Train rows, train+validation pool and test rows of the default
    stratified split of `labels`."""
    tr, va, te = stratified_split_indices(labels, seed)
    pool = np.sort(np.concatenate([tr, va]))
    return m.subset_rows(tr), m.subset_rows(pool), m.subset_rows(te)


def stratified_folds(labels, k: int, seed: int) -> list[np.ndarray]:
    """k disjoint index sets, classes dealt round-robin after a seeded
    per-class shuffle."""
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    folds: list[list[int]] = [[] for _ in range(k)]
    for c in sorted(set(labels.tolist())):
        idx = np.flatnonzero(labels == c)
        if len(idx) < k:
            raise ClassTooSmall(
                f"class {c!r} has {len(idx)} samples; need at least k={k}")
        idx = rng.permutation(idx)
        for i, j in enumerate(idx.tolist()):
            folds[i % k].append(j)
    return [np.sort(np.asarray(f, dtype=int)) for f in folds]


@dataclass(frozen=True)
class Pipeline:
    """scale -> rank and keep the top k columns -> learn.

    `fit` fits every stage on the rows it is given and nothing else, so the
    result applies training-row statistics, columns and model to any other
    rows.  Task-name targets train a one-vs-rest model over `learner`.  The
    learner gets the fit's seed, the importance forest one derived from it.
    """
    learner: str
    params: dict = field(default_factory=dict)
    scaling: Optional[str] = None   # None | "minmax" | "zscore"
    ranking: Optional[str] = None   # None | "chi2" | "importance"
    k: int = 0
    importance_params: dict = field(default_factory=dict)

    def with_params(self, params: dict) -> "Pipeline":
        return replace(self, params={**self.params, **params})

    def fit(self, m: FeatureMatrix, y, seed: int) -> "FittedPipeline":
        scaling = (feat.ScalingState.fit(self.scaling, m)
                   if self.scaling else None)
        scaled = scaling.apply(m) if scaling else m
        scores = []
        if self.ranking == "chi2":
            scores = selection.chi2_statistics(scaled, y)
        elif self.ranking == "importance":
            scores = selection.forest_importance(
                scaled, y, self.importance_params, seed=_sub_seed(seed, 5))
        elif self.ranking is not None:
            raise ValueError(f"unknown ranking {self.ranking!r}")
        columns = (selection.select_top_k(scores, min(self.k, len(scores)))
                   if scores else scaled.vocab.column_names)
        kind, params = self.learner, self.params
        if _is_multilabel(y):
            kind, params, y = "one_vs_rest", {"base": kind, **params}, list(y)
        model = learners.train(kind, scaled.subset_columns(columns).X, y,
                               params, seed, columns)
        return FittedPipeline(scaling, columns, model)


@dataclass
class FittedPipeline:
    scaling: Optional[feat.ScalingState]
    columns: list[str]
    model: learners.Model

    def transform(self, m: FeatureMatrix) -> FeatureMatrix:
        """The fitted scaling and columns applied to other rows."""
        scaled = self.scaling.apply(m) if self.scaling else m
        return scaled.subset_columns(self.columns)

    def evaluate(self, m: FeatureMatrix, y) -> learners.Metrics:
        return learners.evaluate(self.model, self.transform(m).X, y)


@dataclass
class CvResult:
    means: dict
    stds: dict
    fold_metrics: list[dict] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {"means": self.means, "stds": self.stds,
                "folds": self.fold_metrics}


def kfold_cv(m: FeatureMatrix, labels, pipeline: Pipeline,
             k: int = 5, seed: int = 0) -> CvResult:
    """Stratified k-fold cross-validation, the pipeline refit on each
    fold's training rows; metrics reported mean +- std."""
    labels = np.asarray(labels)
    folds = stratified_folds(labels, k, seed)
    all_idx = np.arange(len(labels))
    fold_metrics = []
    for i, va in enumerate(folds):
        tr = np.delete(all_idx, va)
        fitted = pipeline.fit(m.subset_rows(tr), labels[tr],
                              _sub_seed(seed, i))
        fold_metrics.append(
            fitted.evaluate(m.subset_rows(va), labels[va]).as_dict())
    keys = [key for key in fold_metrics[0] if key != "confusion"]
    means = {key: float(np.mean([f[key] for f in fold_metrics])) for key in keys}
    stds = {key: float(np.std([f[key] for f in fold_metrics])) for key in keys}
    return CvResult(means=means, stds=stds, fold_metrics=fold_metrics)


def _grid_points(grid: dict) -> list[dict]:
    if not grid:
        raise EmptyGrid("parameter grid is empty")
    keys = sorted(grid)
    return [dict(zip(keys, combo))
            for combo in itertools.product(*(grid[k] for k in keys))]


def _best_by_cv(m: FeatureMatrix, labels, pipeline: Pipeline,
                points: list[dict], k: int, seed: int):
    """k-fold CV of the pipeline with each parameter point laid over its
    params; best by mean accuracy (binary) or F1-micro (multi-label),
    first-encountered on ties."""
    metric = "f1_micro" if _is_multilabel(labels) else "accuracy"
    rows = []
    best = None
    for params in points:
        cv = kfold_cv(m, labels, pipeline.with_params(params), k, seed)
        rows.append({"params": params, "cv": cv.as_dict()})
        score = cv.means[metric]
        if best is None or score > best[0]:
            best = (score, params)
    return best[1], {"metric": metric, "evaluations": rows}


def grid_search(m: FeatureMatrix, labels, pipeline: Pipeline, grid: dict,
                k: int = 5, seed: int = 0):
    """Evaluate every grid point with k-fold CV (see `_best_by_cv`)."""
    return _best_by_cv(m, labels, pipeline, _grid_points(grid), k, seed)


def random_search(m: FeatureMatrix, labels, pipeline: Pipeline, grid: dict,
                  n_draws: int, k: int = 5, seed: int = 0):
    """Uniform draws from the grid axes instead of the full product."""
    if not grid:
        raise EmptyGrid("parameter grid is empty")
    rng = np.random.default_rng(seed)
    keys = sorted(grid)
    points = [{key: grid[key][int(rng.integers(len(grid[key])))]
               for key in keys} for _ in range(n_draws)]
    return _best_by_cv(m, labels, pipeline, points, k, seed)


DEFAULT_FRACTIONS = [round(0.1 * i, 1) for i in range(1, 11)]


def learning_curve(m: FeatureMatrix, labels, pipeline: Pipeline,
                   fractions=None, k: int = 5, seed: int = 0) -> list[dict]:
    """Train/validation accuracy versus training-set fraction.

    Fold assignment is fixed once from the full pool; at each fraction the
    *training* folds are stratified-subsampled (nested across fractions)
    while the held-out fold stays complete, keeping folds consistent.  The
    pipeline is refit on each subsample.
    """
    fractions = list(fractions or DEFAULT_FRACTIONS)
    labels = np.asarray(labels)
    folds = stratified_folds(labels, k, seed)

    # fixed per-fold per-class orders; taking a prefix subsamples stratified
    orders: list[list[np.ndarray]] = []
    for i, fold in enumerate(folds):
        rng = np.random.default_rng(_sub_seed(seed, 1000 + i))
        per_class = []
        for c in sorted(set(labels[fold].tolist())):
            idx = fold[labels[fold] == c]
            per_class.append(rng.permutation(idx))
        orders.append(per_class)

    def subsample(fold_i: int, frac: float) -> np.ndarray:
        parts = [cls_idx[:max(1, math.ceil(frac * len(cls_idx)))]
                 for cls_idx in orders[fold_i]]
        return np.sort(np.concatenate(parts))

    rows = []
    for frac in fractions:
        train_accs, val_accs = [], []
        for i, va in enumerate(folds):
            tr = np.concatenate([subsample(j, frac)
                                 for j in range(k) if j != i])
            tr = np.sort(tr)
            m_tr = m.subset_rows(tr)
            fitted = pipeline.fit(m_tr, labels[tr], _sub_seed(seed, i))
            train_accs.append(fitted.evaluate(m_tr, labels[tr]).accuracy)
            val_accs.append(
                fitted.evaluate(m.subset_rows(va), labels[va]).accuracy)
        rows.append({"fraction": frac,
                     "train_mean": float(np.mean(train_accs)),
                     "train_std": float(np.std(train_accs)),
                     "val_mean": float(np.mean(val_accs)),
                     "val_std": float(np.std(val_accs))})
    return rows


DEFAULT_SIGMAS = [0.1, 0.2, 0.5, 1.0]


def perturbation_study(train_m: FeatureMatrix, test_m: FeatureMatrix,
                       pipeline: Pipeline, sigmas=None,
                       seed: int = 0) -> dict:
    """Per-feature Gaussian-noise sensitivity of a pipeline fit on clean
    training rows.

    Noise is added to the test rows' transformed columns, so a z-scoring
    pipeline gives it the scale of one training-row std.  Output rows are
    the pipeline's columns, columns are the sigma=0 baseline plus each sigma.
    """
    sigmas = list(sigmas or DEFAULT_SIGMAS)
    fitted = pipeline.fit(train_m, train_m.labels, seed)
    X_test = fitted.transform(test_m).X
    baseline = learners.evaluate(fitted.model, X_test, test_m.labels).accuracy
    table = []
    for j in range(len(fitted.columns)):
        row = [baseline]
        for s_idx, sigma in enumerate(sigmas):
            rng = np.random.default_rng(_sub_seed(seed, j, s_idx))
            X = X_test.copy()
            X[:, j] += rng.normal(0.0, sigma, size=X.shape[0])
            row.append(learners.evaluate(fitted.model, X, test_m.labels).accuracy)
        table.append(row)
    return {"features": fitted.columns, "sigmas": [0.0] + sigmas,
            "baseline": baseline, "accuracy": table}


ABLATION_GROUPS = (feat.GROUP_GRAPH, feat.GROUP_TEMPORAL, feat.GROUP_SYSTEM)


def ablation_study(m: FeatureMatrix, labels, pipeline: Pipeline,
                   k: int = 5, seed: int = 0) -> list[dict]:
    """Full set, each leave-one-group-out, and each single group: 7 rows."""
    group_cols = {}
    for g in ABLATION_GROUPS:
        cols = [c.name for c in m.vocab.columns if c.group == g]
        if not cols:
            raise EmptyGroup(f"feature group {g!r} has no columns")
        group_cols[g] = cols

    configs = [("full", list(m.vocab.column_names))]
    for g in ABLATION_GROUPS:
        configs.append((f"without_{g}",
                        [c.name for c in m.vocab.columns if c.group != g]))
    for g in ABLATION_GROUPS:
        configs.append((f"{g}_only", group_cols[g]))

    rows = []
    for name, cols in configs:
        sub = m.subset_columns(cols)
        cv = kfold_cv(sub, labels, pipeline, k, seed)
        rows.append({"config": name, "n_features": len(cols),
                     "means": cv.means, "stds": cv.stds})
    return rows


def balance_by_resampling(m: FeatureMatrix, task_labels, seed: int = 0,
                          oversample: bool = False) -> FeatureMatrix:
    """Uniform class sizes: downsample to the minimum count (default) or
    oversample with replacement to the maximum."""
    tasks = list(task_labels)
    rng = np.random.default_rng(seed)
    classes = sorted(set(tasks))
    by_class = {c: np.flatnonzero(np.asarray(tasks, dtype=object) == c)
                for c in classes}
    counts = [len(v) for v in by_class.values()]
    target = max(counts) if oversample else min(counts)
    keep = []
    for c in classes:
        idx = by_class[c]
        if oversample and len(idx) < target:
            extra = rng.choice(idx, size=target - len(idx), replace=True)
            keep.extend(idx.tolist() + extra.tolist())
        else:
            picked = rng.choice(idx, size=target, replace=False)
            keep.extend(sorted(picked.tolist()))
    keep = np.asarray(keep, dtype=int)
    out = m.subset_rows(keep)
    if out.tasks is None:
        out.tasks = [tasks[i] for i in keep]
    return out


def corpus_digest(corpus_dir) -> str:
    h = hashlib.sha256()
    for p in trace_paths(corpus_dir):
        h.update(hashlib.sha256(p.read_bytes()).digest())
    return h.hexdigest()


# grid searched per learner when the config gives none
EXPERIMENT_1_GRIDS = {
    "boosting": {"n_rounds": [60], "max_depth": [2, 3]},
    "forest": {"n_trees": [30], "max_depth": [8, 12]},
    "tree": {"max_depth": [4, 8]},
    "logistic": {"epochs": [300], "step": [0.25, 0.5]},
}

EXPERIMENT_1_DEFAULTS = {
    "k": 60,
    "learner": "boosting",
    "folds": 5,
    "fractions": DEFAULT_FRACTIONS,
    "sigmas": DEFAULT_SIGMAS,
    "strict": True,
}


def run_experiment_1(corpus_dir, config: Optional[dict] = None,
                     seed: int = 7) -> ExperimentReport:
    """Binary encryption-detection pipeline: parse, extract, split, then
    minmax -> chi-squared top-k -> learner fit on training rows only: grid
    search, test metrics, learning curve, perturbation and ablation."""
    t0 = time.monotonic()
    cfg = dict(EXPERIMENT_1_DEFAULTS)
    cfg.update(config or {})
    cfg.setdefault("grid", EXPERIMENT_1_GRIDS[cfg["learner"]])

    matrix = feat.load_matrix(corpus_dir, cfg["strict"])
    train, pool, test = holdout_split(matrix, matrix.labels, seed)
    pipe = Pipeline(cfg["learner"], scaling="minmax", ranking="chi2",
                    k=cfg["k"])
    best_params, search_report = grid_search(
        train, train.labels, pipe, cfg["grid"], k=cfg["folds"], seed=seed)
    pipe = pipe.with_params(best_params)
    final = pipe.fit(pool, pool.labels, _sub_seed(seed, 99))
    test_metrics = final.evaluate(test, test.labels)

    curve = learning_curve(pool, pool.labels, pipe,
                           fractions=cfg["fractions"], k=cfg["folds"],
                           seed=seed)
    # robustness wants zero-mean features: z-score the selected columns
    perturb = perturbation_study(
        pool.subset_columns(final.columns), test.subset_columns(final.columns),
        Pipeline(cfg["learner"], best_params, scaling="zscore"),
        sigmas=cfg["sigmas"], seed=seed)
    ablation = ablation_study(
        matrix, matrix.labels,
        Pipeline(cfg["learner"], best_params, scaling="minmax"),
        k=cfg["folds"], seed=seed)

    k = len(final.columns)
    # p-values for the report only, from the rows and scaling the final fit
    # ranked; the fits before it ranked by the statistic alone
    chi2 = selection.chi2_scores(final.scaling.apply(pool), pool.labels)
    top_table = selection._ranked(chi2)[:k]
    payload = {
        "n_samples": int(matrix.n_rows),
        "n_features_before": len(matrix.vocab.columns),
        "n_features_selected": k,
        "selected_features": final.columns,
        "chi2_top": [{"name": s.name, "score": s.score, "p_value": s.p_value}
                     for s in top_table],
        "best_params": best_params,
        "search": search_report,
        "test_metrics": test_metrics.as_dict(),
        "learning_curve": curve,
        "perturbation": perturb,
        "ablation": ablation,
        "extraction_warnings": matrix.warnings,
    }
    report = ExperimentReport(kind="exp1", config=_jsonable(cfg), seed=seed,
                              data_digest=corpus_digest(corpus_dir),
                              payload=payload)
    report.wall_clock_s = time.monotonic() - t0
    return report


EXPERIMENT_2_DEFAULTS = {
    "k": 40,
    "base_learner": "forest",
    "base_params": {"n_trees": 30, "max_depth": 10},
    "importance_params": {"n_trees": 30, "max_depth": 10},
    "sigmas": [0.01, 0.05],
    "strict": True,
    "oversample": False,
    "search_grid": None,   # optional random-search grid for the base learner
    "search_draws": 5,
    "folds": 5,
}


def run_experiment_2(corpus_dir, config: Optional[dict] = None,
                     seed: int = 7) -> ExperimentReport:
    """Multi-label task identification: balance, split, then z-score ->
    forest-importance top-k -> one-vs-rest fit on training rows only;
    F1-macro/micro plus noise robustness."""
    t0 = time.monotonic()
    cfg = dict(EXPERIMENT_2_DEFAULTS)
    cfg.update(config or {})

    matrix = feat.load_matrix(corpus_dir, cfg["strict"])
    if matrix.tasks is None:
        raise ValueError("experiment 2 needs task names in the sidecars")
    balanced = balance_by_resampling(matrix, matrix.tasks, seed=seed,
                                     oversample=cfg["oversample"])
    train, pool, test = holdout_split(balanced, balanced.tasks, seed)
    pipe = Pipeline(cfg["base_learner"], dict(cfg["base_params"]),
                    scaling="zscore", ranking="importance", k=cfg["k"],
                    importance_params=cfg["importance_params"])
    search_report = None
    if cfg["search_grid"]:
        best, search_report = random_search(
            train, train.tasks, pipe, cfg["search_grid"],
            n_draws=cfg["search_draws"], k=cfg["folds"], seed=seed)
        pipe = pipe.with_params(best)

    final = pipe.fit(pool, pool.tasks, _sub_seed(seed, 99))
    X_test = final.transform(test).X
    test_metrics = learners.evaluate(final.model, X_test, test.tasks)

    noise_rows = []
    for s_idx, sigma in enumerate(cfg["sigmas"]):
        rng = np.random.default_rng(_sub_seed(seed, 7, s_idx))
        X = X_test + rng.normal(0.0, sigma, size=X_test.shape)
        met = learners.evaluate(final.model, X, test.tasks)
        noise_rows.append({"sigma": sigma, "f1_macro": met.f1_macro,
                           "f1_micro": met.f1_micro})

    counts = {c: balanced.tasks.count(c) for c in sorted(set(balanced.tasks))}
    payload = {
        "n_samples": int(balanced.n_rows),
        "class_counts": counts,
        "n_features_before": len(balanced.vocab.columns),
        "n_features_selected": len(final.columns),
        "selected_features": final.columns,
        "base_params": pipe.params,
        "search": search_report,
        "test_metrics": test_metrics.as_dict(),
        "noise": noise_rows,
        "extraction_warnings": matrix.warnings,
    }
    report = ExperimentReport(kind="exp2", config=_jsonable(cfg), seed=seed,
                              data_digest=corpus_digest(corpus_dir),
                              payload=payload)
    report.wall_clock_s = time.monotonic() - t0
    return report


def _jsonable(obj):
    return json.loads(json.dumps(obj, default=str))

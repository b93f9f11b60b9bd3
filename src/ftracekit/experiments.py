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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import features as feat
from . import learners, selection, trace_parser
from .errors import ClassTooSmall, EmptyGrid, EmptyGroup
from .features import FeatureMatrix

METRIC_KEYS = ("accuracy", "precision", "recall", "f1", "roc_auc")


@dataclass(frozen=True)
class SplitSpec:
    train_frac: float = 0.8
    val_frac: float = 0.1
    test_frac: float = 0.1
    stratified: bool = True
    seed: int = 0

    def __post_init__(self):
        total = self.train_frac + self.val_frac + self.test_frac
        if abs(total - 1.0) > 1e-9:
            raise ValueError("split fractions must sum to 1")


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


def _fold_seed(seed: int, *tags: int) -> int:
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0])


def stratified_split_indices(labels, spec: SplitSpec):
    """Per-class shuffled allocation; rounding remainder goes to train."""
    labels = np.asarray(labels)
    n = len(labels)
    rng = np.random.default_rng(spec.seed)
    train, val, test = [], [], []
    if not spec.stratified:
        perm = rng.permutation(n)
        n_val = int(n * spec.val_frac)
        n_test = int(n * spec.test_frac)
        val = perm[:n_val]
        test = perm[n_val:n_val + n_test]
        train = perm[n_val + n_test:]
        return np.sort(train), np.sort(val), np.sort(test)
    classes = sorted(set(labels.tolist()))
    for c in classes:
        idx = np.flatnonzero(labels == c)
        if len(idx) < 3:
            raise ClassTooSmall(
                f"class {c!r} has {len(idx)} samples; need at least 3")
        idx = rng.permutation(idx)
        n_val = max(1, int(len(idx) * spec.val_frac))
        n_test = max(1, int(len(idx) * spec.test_frac))
        val.extend(idx[:n_val].tolist())
        test.extend(idx[n_val:n_val + n_test].tolist())
        train.extend(idx[n_val + n_test:].tolist())
    return (np.sort(np.asarray(train, dtype=int)),
            np.sort(np.asarray(val, dtype=int)),
            np.sort(np.asarray(test, dtype=int)))


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


def _is_multilabel(labels) -> bool:
    return np.asarray(labels).dtype.kind in "UOS"


def _fit_and_eval(learner, params, seed, X_tr, y_tr, X_va, y_va,
                  feature_names) -> learners.Metrics:
    if _is_multilabel(y_tr):
        model = learners.train("one_vs_rest", X_tr, list(y_tr),
                               {"base": learner, **params}, seed,
                               feature_names)
        return learners.evaluate_multilabel(model, X_va, list(y_va))
    model = learners.train(learner, X_tr, y_tr, params, seed, feature_names)
    return learners.evaluate(model, X_va, y_va)


@dataclass
class CvResult:
    means: dict
    stds: dict
    fold_metrics: list[dict] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {"means": self.means, "stds": self.stds,
                "folds": self.fold_metrics}


def kfold_cv(m: FeatureMatrix, labels, learner: str, params: dict,
             k: int = 5, seed: int = 0) -> CvResult:
    """Stratified k-fold cross-validation; metrics reported mean +- std."""
    labels = np.asarray(labels)
    folds = stratified_folds(labels, k, seed)
    all_idx = np.arange(len(labels))
    fold_metrics = []
    for i, va in enumerate(folds):
        tr = np.setdiff1d(all_idx, va)
        met = _fit_and_eval(learner, params, _fold_seed(seed, i),
                            m.X[tr], labels[tr], m.X[va], labels[va],
                            m.vocab.column_names)
        fold_metrics.append(met.as_dict())
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


def _best_by_cv(m: FeatureMatrix, labels, learner: str, points: list[dict],
                k: int, seed: int):
    """k-fold CV of every parameter point; best by mean accuracy (binary)
    or F1-micro (multi-label), first-encountered on ties."""
    metric = "f1_micro" if _is_multilabel(labels) else "accuracy"
    rows = []
    best = None
    for params in points:
        cv = kfold_cv(m, labels, learner, params, k, seed)
        rows.append({"params": params, "cv": cv.as_dict()})
        score = cv.means[metric]
        if best is None or score > best[0]:
            best = (score, params)
    return best[1], {"metric": metric, "evaluations": rows}


def grid_search(m: FeatureMatrix, labels, learner: str, grid: dict,
                k: int = 5, seed: int = 0):
    """Evaluate every grid point with k-fold CV (see `_best_by_cv`)."""
    return _best_by_cv(m, labels, learner, _grid_points(grid), k, seed)


def random_search(m: FeatureMatrix, labels, learner: str, grid: dict,
                  n_draws: int, k: int = 5, seed: int = 0):
    """Uniform draws from the grid axes instead of the full product."""
    if not grid:
        raise EmptyGrid("parameter grid is empty")
    rng = np.random.default_rng(seed)
    keys = sorted(grid)
    points = [{key: grid[key][int(rng.integers(len(grid[key])))]
               for key in keys} for _ in range(n_draws)]
    return _best_by_cv(m, labels, learner, points, k, seed)


DEFAULT_FRACTIONS = [round(0.1 * i, 1) for i in range(1, 11)]


def learning_curve(m: FeatureMatrix, labels, learner: str, params: dict,
                   fractions=None, k: int = 5, seed: int = 0) -> list[dict]:
    """Train/validation accuracy versus training-set fraction.

    Fold assignment is fixed once from the full pool; at each fraction the
    *training* folds are stratified-subsampled (nested across fractions)
    while the held-out fold stays complete, keeping folds consistent.
    """
    fractions = list(fractions or DEFAULT_FRACTIONS)
    labels = np.asarray(labels)
    folds = stratified_folds(labels, k, seed)

    # fixed per-fold per-class orders; taking a prefix subsamples stratified
    orders: list[list[np.ndarray]] = []
    for i, fold in enumerate(folds):
        rng = np.random.default_rng(_fold_seed(seed, 1000 + i))
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
            model = learners.train(learner, m.X[tr], labels[tr], params,
                                   _fold_seed(seed, i), m.vocab.column_names)
            train_accs.append(learners.evaluate(model, m.X[tr], labels[tr]).accuracy)
            val_accs.append(learners.evaluate(model, m.X[va], labels[va]).accuracy)
        rows.append({"fraction": frac,
                     "train_mean": float(np.mean(train_accs)),
                     "train_std": float(np.std(train_accs)),
                     "val_mean": float(np.mean(val_accs)),
                     "val_std": float(np.std(val_accs))})
    return rows


DEFAULT_SIGMAS = [0.1, 0.2, 0.5, 1.0]


def perturbation_study(train_m: FeatureMatrix, test_m: FeatureMatrix,
                       learner: str, params: dict, sigmas=None,
                       seed: int = 0) -> dict:
    """Per-feature Gaussian-noise sensitivity of a model fit on clean data.

    Expects z-scored features.  Output rows are features, columns are the
    sigma=0 baseline plus each sigma.
    """
    sigmas = list(sigmas or DEFAULT_SIGMAS)
    model = learners.train(learner, train_m.X, train_m.labels, params, seed,
                           train_m.vocab.column_names)
    baseline = learners.evaluate(model, test_m.X, test_m.labels).accuracy
    names = test_m.vocab.column_names
    table = []
    for j, name in enumerate(names):
        row = [baseline]
        for s_idx, sigma in enumerate(sigmas):
            rng = np.random.default_rng(_fold_seed(seed, j, s_idx))
            X = test_m.X.copy()
            X[:, j] += rng.normal(0.0, sigma, size=X.shape[0])
            acc = learners.binary_metrics(
                test_m.labels, model.predict(X), model.scores(X)).accuracy
            row.append(acc)
        table.append(row)
    return {"features": names, "sigmas": [0.0] + sigmas,
            "baseline": baseline, "accuracy": table}


ABLATION_GROUPS = (feat.GROUP_GRAPH, feat.GROUP_TEMPORAL, feat.GROUP_SYSTEM)


def ablation_study(m: FeatureMatrix, labels, learner: str, params: dict,
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
        cv = kfold_cv(sub, labels, learner, params, k, seed)
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
    for p in sorted(Path(corpus_dir).rglob("*.trace")):
        h.update(hashlib.sha256(p.read_bytes()).digest())
    return h.hexdigest()


EXPERIMENT_1_DEFAULTS = {
    "k": 60,
    "learner": "boosting",
    "grid": {"n_rounds": [60], "max_depth": [2, 3]},
    "folds": 5,
    "fractions": DEFAULT_FRACTIONS,
    "sigmas": DEFAULT_SIGMAS,
    "strict": True,
}


def run_experiment_1(corpus_dir, config: Optional[dict] = None,
                     seed: int = 7) -> ExperimentReport:
    """Binary encryption-detection pipeline: parse, extract, minmax,
    chi-squared top-k, split, grid search, test metrics, learning curve,
    perturbation and ablation."""
    t0 = time.monotonic()
    cfg = dict(EXPERIMENT_1_DEFAULTS)
    cfg.update(config or {})
    options = trace_parser.ParserOptions(strict=cfg["strict"])

    samples = trace_parser.load_corpus(corpus_dir, options)
    vocab = feat.build_vocabulary(samples)
    matrix = feat.extract_matrix(samples, vocab)
    labels = matrix.labels
    scaled = feat.minmax_fit_transform(matrix)

    scores = selection.chi2_scores(scaled, labels)
    k = min(cfg["k"], len(scores))
    selected = selection.select_top_k(scores, k)
    m_sel = scaled.subset_columns(sorted(selected,
                                         key=scaled.vocab.column_names.index))

    spec = SplitSpec(seed=seed)
    tr_idx, va_idx, te_idx = stratified_split_indices(labels, spec)
    m_train = m_sel.subset_rows(tr_idx)
    m_val = m_sel.subset_rows(va_idx)
    m_test = m_sel.subset_rows(te_idx)

    best_params, search_report = grid_search(
        m_train, labels[tr_idx], cfg["learner"], cfg["grid"],
        k=cfg["folds"], seed=seed)

    fit_idx = np.sort(np.concatenate([tr_idx, va_idx]))
    final = learners.train(cfg["learner"], m_sel.X[fit_idx], labels[fit_idx],
                           best_params, _fold_seed(seed, 99),
                           m_sel.vocab.column_names)
    test_metrics = learners.evaluate(final, m_test.X, labels[te_idx])

    pool = m_sel.subset_rows(fit_idx)
    curve = learning_curve(pool, labels[fit_idx], cfg["learner"], best_params,
                           fractions=cfg["fractions"], k=cfg["folds"],
                           seed=seed)

    # robustness wants zero-mean features: z-score on the train+val pool
    z_pool = feat.zscore_fit_transform(pool)
    z_test = feat.zscore_apply(m_test, z_pool.scaling)
    z_pool.labels = labels[fit_idx]
    z_test.labels = labels[te_idx]
    perturb = perturbation_study(z_pool, z_test, cfg["learner"], best_params,
                                 sigmas=cfg["sigmas"], seed=seed)

    ablation = ablation_study(scaled, labels, cfg["learner"], best_params,
                              k=cfg["folds"], seed=seed)

    top_table = sorted(scores, key=lambda s: (-s.score, s.name))[:k]
    payload = {
        "n_samples": int(matrix.n_rows),
        "n_features_before": len(scaled.vocab.columns),
        "n_features_selected": k,
        "selected_features": m_sel.vocab.column_names,
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
    """Multi-label task identification: balance, z-score, forest-importance
    top-k, one-vs-rest training, F1-macro/micro plus noise robustness."""
    t0 = time.monotonic()
    cfg = dict(EXPERIMENT_2_DEFAULTS)
    cfg.update(config or {})
    options = trace_parser.ParserOptions(strict=cfg["strict"])

    samples = trace_parser.load_corpus(corpus_dir, options)
    vocab = feat.build_vocabulary(samples)
    matrix = feat.extract_matrix(samples, vocab)
    if matrix.tasks is None:
        raise ValueError("experiment 2 needs task names in the sidecars")

    balanced = balance_by_resampling(matrix, matrix.tasks, seed=seed,
                                     oversample=cfg["oversample"])
    tasks = np.asarray(balanced.tasks, dtype=object)

    spec = SplitSpec(seed=seed)
    tr_idx, va_idx, te_idx = stratified_split_indices(tasks, spec)
    z_state = feat.zscore_fit_transform(balanced.subset_rows(tr_idx)).scaling
    z_all = feat.zscore_apply(balanced, z_state)

    imp = selection.forest_importance(z_all.subset_rows(tr_idx),
                                      tasks[tr_idx],
                                      cfg["importance_params"],
                                      seed=_fold_seed(seed, 5))
    k = min(cfg["k"], len(imp))
    selected = selection.select_top_k(imp, k)
    m_sel = z_all.subset_columns(sorted(selected,
                                        key=z_all.vocab.column_names.index))

    base_params = dict(cfg["base_params"])
    search_report = None
    if cfg["search_grid"]:
        best, search_report = random_search(
            m_sel.subset_rows(tr_idx), tasks[tr_idx], cfg["base_learner"],
            cfg["search_grid"], n_draws=cfg["search_draws"],
            k=cfg["folds"], seed=seed)
        base_params.update(best)

    fit_idx = np.sort(np.concatenate([tr_idx, va_idx]))
    model = learners.train("one_vs_rest", m_sel.X[fit_idx],
                           [tasks[i] for i in fit_idx],
                           {"base": cfg["base_learner"], **base_params},
                           _fold_seed(seed, 99), m_sel.vocab.column_names)
    test_tasks = [tasks[i] for i in te_idx]
    test_metrics = learners.evaluate_multilabel(model, m_sel.X[te_idx],
                                                test_tasks)

    noise_rows = []
    for s_idx, sigma in enumerate(cfg["sigmas"]):
        rng = np.random.default_rng(_fold_seed(seed, 7, s_idx))
        X = m_sel.X[te_idx] + rng.normal(0.0, sigma, size=m_sel.X[te_idx].shape)
        met = learners.evaluate_multilabel(model, X, test_tasks)
        noise_rows.append({"sigma": sigma, "f1_macro": met.f1_macro,
                           "f1_micro": met.f1_micro})

    counts = {c: balanced.tasks.count(c) for c in sorted(set(balanced.tasks))}
    payload = {
        "n_samples": int(balanced.n_rows),
        "class_counts": counts,
        "n_features_before": len(z_all.vocab.columns),
        "n_features_selected": k,
        "selected_features": m_sel.vocab.column_names,
        "base_params": base_params,
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

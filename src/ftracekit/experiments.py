"""Experiment orchestration: splits, CV, grid search, curves, robustness.

All randomness flows from one top-level seed; reports embed the seed and a
corpus digest so reruns are bit-identical (wall-clock time is kept out of
the canonical payload).

Each study is a list of jobs and a step that reduces their results, so
studies can share one map over the usable CPUs (`workers.map_forked`), as
many as `taskset` allows.  exp1 maps its grid search in one call and every
fit after it (final fit, perturbation, learning curve and ablation) in one
more; ingest maps its own.  There is no option, and the reports are the
same on any number of CPUs.
"""

from __future__ import annotations

import functools
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
from .workers import map_forked


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

    def select(self, m: FeatureMatrix, y, seed: int) -> tuple:
        """Scaling and ranking fit on `m`: the scaling (or None), `m`
        scaled, the ranking's scores (or []) and the kept columns."""
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
                   if scores else scaled.vocab.columns)
        return scaling, scaled, scores, columns

    def fit_learner(self, scaled: FeatureMatrix, columns: list[str], y,
                    seed: int) -> learners.Model:
        """The learner fit on the `columns` of `select`'s scaled rows."""
        kind, params = self.learner, self.params
        if _is_multilabel(y):
            kind, params, y = "one_vs_rest", {"base": kind, **params}, list(y)
        return learners.train(kind, scaled.subset_columns(columns).X, y,
                              params, seed, columns)

    def fit(self, m: FeatureMatrix, y, seed: int) -> "FittedPipeline":
        scaling, scaled, _, columns = self.select(m, y, seed)
        return FittedPipeline(scaling, columns,
                              self.fit_learner(scaled, columns, y, seed))


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


def _fit_and_score(m: FeatureMatrix, labels: np.ndarray, pipeline: Pipeline,
                   train_rows, seed: int, *scored) -> list[learners.Metrics]:
    """The pipeline fit on `train_rows` with `seed`, then its metrics on
    each row set in `scored`: one CV fold or one curve subsample."""
    fitted = pipeline.fit(m.subset_rows(train_rows), labels[train_rows], seed)
    return [fitted.evaluate(m.subset_rows(rows), labels[rows])
            for rows in scored]


def _call(job):
    return job()


def _map_studies(*studies) -> list:
    """Each study's reduce of its jobs' results, the jobs of all studies
    mapped in order through one `map_forked` call.  A study is a pair: a
    list of calls without arguments, and a function of their results."""
    results = iter(map_forked(_call, [job for jobs, _ in studies
                                      for job in jobs]))
    return [reduce([next(results) for _ in jobs]) for jobs, reduce in studies]


def _single(fn, *args, **kwargs):
    """The study of one job, fn(*args, **kwargs), reduced to its result."""
    return [functools.partial(fn, *args, **kwargs)], lambda results: results[0]


def kfold_cv(m: FeatureMatrix, labels, pipeline: Pipeline,
             k: int = 5, seed: int = 0) -> dict:
    """Stratified k-fold cross-validation, the pipeline refit on each
    fold's training rows: each fold's metrics ("folds") and their "means"
    and "stds"."""
    return _map_studies(_cv_study(m, labels, [(pipeline, None)], k,
                                  seed))[0][0]


def _cv_study(m: FeatureMatrix, labels, cases: list, k: int, seed: int):
    """`kfold_cv` of each (pipeline, columns) case (all columns for None)
    as a study: one job per (case, fold) fit, which builds its own columns
    and training rows, reduced to one `kfold_cv` dict per case."""
    labels = np.asarray(labels)
    all_idx = np.arange(len(labels))
    folds = stratified_folds(labels, k, seed)

    def job(pipeline, cols, i):
        sub = m if cols is None else m.subset_columns(cols)
        return _fit_and_score(sub, labels, pipeline,
                              np.delete(all_idx, folds[i]),
                              _sub_seed(seed, i), folds[i])[0].as_dict()

    def reduce(fits):
        out = []
        for c in range(len(cases)):
            fs = fits[c * k:(c + 1) * k]
            keys = [key for key in fs[0] if key != "confusion"]
            means = {key: float(np.mean([f[key] for f in fs])) for key in keys}
            stds = {key: float(np.std([f[key] for f in fs])) for key in keys}
            out.append({"means": means, "stds": stds, "folds": fs})
        return out

    jobs = [functools.partial(job, pipeline, cols, i)
            for (pipeline, cols), i in itertools.product(cases, range(k))]
    return jobs, reduce


def _grid_points(grid: dict) -> list[dict]:
    if not grid:
        raise EmptyGrid("parameter grid is empty")
    keys = sorted(grid)
    return [dict(zip(keys, combo))
            for combo in itertools.product(*(grid[k] for k in keys))]


def grid_search(m: FeatureMatrix, labels, pipeline: Pipeline, grid: dict,
                k: int = 5, seed: int = 0):
    """k-fold CV of the pipeline with each grid point laid over its params;
    best by mean accuracy (binary) or F1-micro (multi-label),
    first-encountered on ties."""
    metric = "f1_micro" if _is_multilabel(labels) else "accuracy"
    points = _grid_points(grid)
    (cvs,) = _map_studies(_cv_study(m, labels, [
        (pipeline.with_params(params), None) for params in points], k, seed))
    rows, best = [], None
    for params, cv in zip(points, cvs):
        rows.append({"params": params, "cv": cv})
        score = cv["means"][metric]
        if best is None or score > best[0]:
            best = (score, params)
    return best[1], {"metric": metric, "evaluations": rows}


DEFAULT_FRACTIONS = [round(0.1 * i, 1) for i in range(1, 11)]


def _checked_fractions(fractions) -> list:
    """`fractions` as a list; an empty list, nan or a fraction outside
    (0, 1] is refused."""
    fractions = list(fractions)
    if not fractions:
        raise ValueError("'fractions' is empty: give at least one fraction")
    for frac in fractions:
        if not 0 < frac <= 1:
            raise ValueError(f"learning-curve fraction {frac!r} is not in (0, 1]")
    return fractions


def learning_curve(m: FeatureMatrix, labels, pipeline: Pipeline,
                   fractions=None, k: int = 5, seed: int = 0) -> list[dict]:
    """Train/validation accuracy versus training-set fraction.

    Fold assignment is fixed once from the full pool; at each fraction the
    *training* folds are stratified-subsampled (nested across fractions)
    while the held-out fold stays complete, keeping folds consistent.  The
    pipeline is refit on each subsample.
    """
    return _map_studies(_curve_study(m, labels, pipeline, fractions, k,
                                     seed))[0]


def _curve_study(m: FeatureMatrix, labels, pipeline: Pipeline, fractions,
                 k: int, seed: int):
    """`learning_curve` as a study: one job per (fraction, fold) fit,
    reduced to one row per fraction."""
    fractions = _checked_fractions(
        DEFAULT_FRACTIONS if fractions is None else fractions)
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

    def job(frac, i):
        tr = np.sort(np.concatenate([subsample(j, frac)
                                     for j in range(k) if j != i]))
        return [met.accuracy for met in _fit_and_score(
            m, labels, pipeline, tr, _sub_seed(seed, i), tr, folds[i])]

    def reduce(fits):
        rows = []
        for f, frac in enumerate(fractions):
            train_accs, val_accs = zip(*fits[f * k:(f + 1) * k])
            rows.append({"fraction": frac,
                         "train_mean": float(np.mean(train_accs)),
                         "train_std": float(np.std(train_accs)),
                         "val_mean": float(np.mean(val_accs)),
                         "val_std": float(np.std(val_accs))})
        return rows

    jobs = [functools.partial(job, frac, i)
            for frac, i in itertools.product(fractions, range(k))]
    return jobs, reduce


DEFAULT_SIGMAS = [0.1, 0.2, 0.5, 1.0]


def _checked_sigmas(sigmas) -> list:
    """`sigmas` as a list; an empty list, nan, an infinity or a negative
    sigma is refused."""
    sigmas = list(sigmas)
    if not sigmas:
        raise ValueError("'sigmas' is empty: give at least one sigma")
    for sigma in sigmas:
        if not 0 <= sigma < math.inf:
            raise ValueError(f"noise sigma {sigma!r} is not finite and >= 0")
    return sigmas


def perturbation_study(train_m: FeatureMatrix, test_m: FeatureMatrix,
                       pipeline: Pipeline, sigmas=None,
                       seed: int = 0) -> dict:
    """Per-feature Gaussian-noise sensitivity of a pipeline fit on clean
    training rows.

    Noise is added to the test rows' transformed columns, so a z-scoring
    pipeline gives it the scale of one training-row std.  Output rows are
    the pipeline's columns, columns are the sigma=0 baseline plus each sigma.
    """
    sigmas = _checked_sigmas(DEFAULT_SIGMAS if sigmas is None else sigmas)
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
    return _map_studies(_ablation_study(m, labels, pipeline, k, seed))[0]


def _ablation_study(m: FeatureMatrix, labels, pipeline: Pipeline, k: int,
                    seed: int):
    """`ablation_study` as a study: one job per (configuration, fold) fit,
    reduced to one row per configuration."""
    named = [(n, feat.infer_group(n)) for n in m.vocab.columns]
    group_cols = {}
    for g in ABLATION_GROUPS:
        cols = [n for n, group in named if group == g]
        if not cols:
            raise EmptyGroup(f"feature group {g!r} has no columns")
        group_cols[g] = cols

    configs = [("full", list(m.vocab.columns))]
    for g in ABLATION_GROUPS:
        configs.append((f"without_{g}",
                        [n for n, group in named if group != g]))
    for g in ABLATION_GROUPS:
        configs.append((f"{g}_only", group_cols[g]))

    jobs, reduce_cvs = _cv_study(
        m, labels, [(pipeline, cols) for _, cols in configs], k, seed)
    return jobs, lambda fits: [
        {"config": name, "n_features": len(cols),
         "means": cv["means"], "stds": cv["stds"]}
        for (name, cols), cv in zip(configs, reduce_cvs(fits))]


def balance_by_resampling(m: FeatureMatrix, task_labels,
                          seed: int = 0) -> FeatureMatrix:
    """Uniform class sizes: each class downsampled without replacement to
    the smallest class's count, so every kept row is a distinct trace."""
    tasks = list(task_labels)
    rng = np.random.default_rng(seed)
    classes = sorted(set(tasks))
    by_class = {c: np.flatnonzero(np.asarray(tasks, dtype=object) == c)
                for c in classes}
    target = min(len(v) for v in by_class.values())
    keep = []
    for c in classes:
        picked = rng.choice(by_class[c], size=target, replace=False)
        keep.extend(sorted(picked.tolist()))
    keep = np.asarray(keep, dtype=int)
    out = m.subset_rows(keep)
    if out.tasks is None:
        out.tasks = [tasks[i] for i in keep]
    return out


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


def _merged_config(defaults: dict, config: Optional[dict],
                   also: tuple = ()) -> dict:
    """`defaults` overlaid with `config`; a key the run would not read is
    refused, so a misspelt or retired option cannot be echoed unused."""
    config = config or {}
    unknown = sorted(set(config) - set(defaults) - set(also))
    if unknown:
        raise ValueError(f"unknown experiment config key(s) {unknown}; "
                         f"known: {sorted([*defaults, *also])}")
    return {**defaults, **config}


def run_experiment_1(corpus_dir, config: Optional[dict] = None,
                     seed: int = 7) -> ExperimentReport:
    """Binary encryption-detection pipeline: parse, extract, split, then
    minmax -> chi-squared top-k -> learner fit on training rows only: grid
    search, test metrics, learning curve, perturbation and ablation."""
    t0 = time.monotonic()
    cfg = _merged_config(EXPERIMENT_1_DEFAULTS, config, also=("grid",))
    cfg.setdefault("grid", EXPERIMENT_1_GRIDS[cfg["learner"]])
    _checked_fractions(cfg["fractions"])
    _checked_sigmas(cfg["sigmas"])

    matrix = feat.load_matrix(corpus_dir, cfg["strict"])
    train, pool, test = holdout_split(matrix, matrix.labels, seed)
    pipe = Pipeline(cfg["learner"], scaling="minmax", ranking="chi2",
                    k=cfg["k"])
    best_params, search_report = grid_search(
        train, train.labels, pipe, cfg["grid"], k=cfg["folds"], seed=seed)
    pipe = pipe.with_params(best_params)
    # ranked once here; the final fit and the perturbation fit both use
    # these columns
    fit_seed = _sub_seed(seed, 99)
    scaling, scaled, stats, columns = pipe.select(pool, pool.labels, fit_seed)

    def final_fit() -> learners.Metrics:
        model = pipe.fit_learner(scaled, columns, pool.labels, fit_seed)
        return FittedPipeline(scaling, columns, model).evaluate(
            test, test.labels)

    test_metrics, perturb, curve, ablation = _map_studies(
        _single(final_fit),
        # robustness wants zero-mean features: z-score the selected columns
        _single(perturbation_study, pool.subset_columns(columns),
                test.subset_columns(columns),
                Pipeline(cfg["learner"], best_params, scaling="zscore"),
                sigmas=cfg["sigmas"], seed=seed),
        _curve_study(pool, pool.labels, pipe, cfg["fractions"], cfg["folds"],
                     seed),
        _ablation_study(matrix, matrix.labels,
                        Pipeline(cfg["learner"], best_params,
                                 scaling="minmax"), cfg["folds"], seed))

    k = len(columns)
    # p-values for the report only, from the statistics the final fit
    # ranked by; the fits before it ranked by the statistic alone
    top_table = selection._ranked(
        selection._with_p_values(stats, pool.labels))[:k]
    payload = {
        "n_samples": int(matrix.n_rows),
        "n_features_before": len(matrix.vocab.columns),
        "n_features_selected": k,
        "selected_features": columns,
        "chi2_top": [{"name": s.name, "score": s.score, "p_value": s.p_value}
                     for s in top_table],
        "best_params": best_params,
        "search": search_report,
        "test_metrics": test_metrics.as_dict(),
        "learning_curve": curve,
        "perturbation": perturb,
        "ablation": ablation,
    }
    return _report("exp1", cfg, seed, matrix, payload, t0)


EXPERIMENT_2_DEFAULTS = {
    "k": 40,
    "base_learner": "forest",
    "base_params": {"n_trees": 30, "max_depth": 10},
    "importance_params": {"n_trees": 30, "max_depth": 10},
    "sigmas": [0.01, 0.05],
    "strict": True,
}


def run_experiment_2(corpus_dir, config: Optional[dict] = None,
                     seed: int = 7) -> ExperimentReport:
    """Multi-label task identification: balance, split, then z-score ->
    forest-importance top-k -> one-vs-rest fit on training rows only;
    F1-macro/micro plus noise robustness."""
    t0 = time.monotonic()
    cfg = _merged_config(EXPERIMENT_2_DEFAULTS, config)
    _checked_sigmas(cfg["sigmas"])

    matrix = feat.load_matrix(corpus_dir, cfg["strict"])
    if matrix.tasks is None:
        raise ValueError("experiment 2 needs task names in the sidecars")
    balanced = balance_by_resampling(matrix, matrix.tasks, seed=seed)
    _, pool, test = holdout_split(balanced, balanced.tasks, seed)
    pipe = Pipeline(cfg["base_learner"], dict(cfg["base_params"]),
                    scaling="zscore", ranking="importance", k=cfg["k"],
                    importance_params=cfg["importance_params"])
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
        "test_metrics": test_metrics.as_dict(),
        "noise": noise_rows,
    }
    return _report("exp2", cfg, seed, matrix, payload, t0)


def _report(kind: str, cfg: dict, seed: int, matrix: FeatureMatrix,
            payload: dict, t0: float) -> ExperimentReport:
    """The run's report: `payload` with the corpus's extraction warnings,
    the config as JSON reads it back, the corpus digest and the wall clock
    since `t0`."""
    payload["extraction_warnings"] = matrix.warnings
    return ExperimentReport(kind, json.loads(json.dumps(cfg, default=str)),
                            seed, matrix.data_digest, payload,
                            time.monotonic() - t0)

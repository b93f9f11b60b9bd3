import builtins
import hashlib
import json
import os
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from ftracekit import experiments as ex
from ftracekit import features as ft
from ftracekit import trace_parser as tp
from ftracekit import workloadgen as wg
from ftracekit.errors import ClassTooSmall, EmptyGrid, EmptyGroup

from conftest import ONE_CPU, TWO_CPUS, assert_no_child_left, use_cpus


def column_name(i, group):
    """A name that `infer_group` maps to `group`."""
    if group == "graph":
        return ft.GRAPH_AGGREGATE_COLUMNS[i]
    return {"system": "count_c", "temporal": "total_dur_c"}[group] + str(i)


def matrix(X, groups=None, labels=None, tasks=None):
    X = np.asarray(X, dtype=float)
    groups = groups or ["system"] * X.shape[1]
    cols = [column_name(i, g) for i, g in enumerate(groups)]
    return ft.FeatureMatrix(vocab=ft.FeatureVocabulary(cols), X=X,
                            labels=None if labels is None else np.asarray(labels),
                            tasks=tasks)


def toy_problem(n=100, seed=0, d=4):
    rng = np.random.default_rng(seed)
    X = rng.random((n, d))
    y = (X[:, 0] > 0.5).astype(int)
    return matrix(X, labels=y), y


class TestStratifiedSplit:
    def test_counts_100_balanced(self):
        labels = np.array([0] * 50 + [1] * 50)
        tr, va, te = ex.stratified_split_indices(labels, 3)
        assert (len(tr), len(va), len(te)) == (80, 10, 10)
        for part in (va, te):
            assert (labels[part] == 0).sum() == 5
        assert len(set(tr) | set(va) | set(te)) == 100

    def test_same_seed_same_split(self):
        labels = np.array([0, 1] * 20)
        a = ex.stratified_split_indices(labels, 5)
        b = ex.stratified_split_indices(labels, 5)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_small_class_floor_is_one(self):
        labels = np.array([0] * 30 + [1] * 3)
        tr, va, te = ex.stratified_split_indices(labels, 0)
        assert (labels[va] == 1).sum() == 1
        assert (labels[te] == 1).sum() == 1
        assert (labels[tr] == 1).sum() == 1

    def test_class_too_small(self):
        with pytest.raises(ClassTooSmall):
            ex.stratified_split_indices(np.array([0, 0, 0, 1, 1]), 0)

    def test_string_labels(self):
        labels = np.array(["a"] * 10 + ["b"] * 10)
        tr, va, te = ex.stratified_split_indices(labels, 1)
        assert len(tr) == 16 and len(va) == 2 and len(te) == 2


class TestStratifiedFolds:
    def test_disjoint_cover(self):
        labels = np.array([0, 1] * 25)
        folds = ex.stratified_folds(labels, 5, seed=2)
        assert len(folds) == 5
        allidx = np.concatenate(folds)
        assert sorted(allidx.tolist()) == list(range(50))
        for f in folds:
            assert (labels[f] == 0).sum() == 5

    def test_class_smaller_than_k(self):
        with pytest.raises(ClassTooSmall):
            ex.stratified_folds(np.array([0] * 10 + [1] * 3), 5, seed=0)


class TestPipeline:
    def test_fit_sees_only_its_rows(self):
        m, y = toy_problem(60, seed=12, d=6)
        tr, held = np.arange(45), np.arange(45, 60)
        pipe = ex.Pipeline("tree", {"max_depth": 3}, scaling="minmax",
                           ranking="chi2", k=3)
        a = pipe.fit(m.subset_rows(tr), y[tr], seed=0)
        m.X[held] = 1e9
        b = pipe.fit(m.subset_rows(tr), y[tr], seed=0)
        assert np.array_equal(a.scaling.a, b.scaling.a)
        assert np.array_equal(a.scaling.b, b.scaling.b)
        assert a.columns == b.columns and len(a.columns) == 3
        X_tr = a.transform(m.subset_rows(tr)).X
        assert np.array_equal(a.model.predict(X_tr), b.model.predict(X_tr))
        # held-out rows are scaled by the training rows' range
        assert np.all(a.transform(m.subset_rows(held)).X == 1.0)

    def test_task_names_train_one_vs_rest(self):
        rng = np.random.default_rng(3)
        X = rng.random((40, 3))
        tasks = np.where(X[:, 1] > 0.5, "alpha", "beta")
        fitted = ex.Pipeline("tree", scaling="zscore", ranking="importance",
                             k=2, importance_params={"n_trees": 5}).fit(
            matrix(X), tasks, seed=0)
        assert fitted.model.kind == "one_vs_rest"
        assert fitted.evaluate(matrix(X), tasks).f1_micro > 0.9


class TestKfoldCv:
    def test_reports_mean_and_std(self):
        m, y = toy_problem(60, seed=1)
        cv = ex.kfold_cv(m, y, ex.Pipeline("tree", {"max_depth": 3}),
                         k=5, seed=0)
        assert 0.5 <= cv["means"]["accuracy"] <= 1.0
        assert cv["stds"]["accuracy"] >= 0.0
        assert len(cv["folds"]) == 5

    def test_deterministic(self):
        m, y = toy_problem(60, seed=2)
        pipe = ex.Pipeline("forest", {"n_trees": 5})
        a = ex.kfold_cv(m, y, pipe, k=3, seed=7)
        b = ex.kfold_cv(m, y, pipe, k=3, seed=7)
        assert a["means"] == b["means"] and a["stds"] == b["stds"]

    def test_multilabel_auto_detected(self):
        rng = np.random.default_rng(0)
        X = rng.random((60, 3))
        tasks = np.where(X[:, 0] > 0.5, "alpha", "beta")
        m = matrix(X)
        cv = ex.kfold_cv(m, tasks, ex.Pipeline("forest", {"n_trees": 10}),
                         k=3, seed=0)
        assert "f1_micro" in cv["means"]
        assert cv["means"]["f1_micro"] > 0.7


class TestSearch:
    def test_grid_evaluates_product(self):
        m, y = toy_problem(40, seed=3)
        best, detail = ex.grid_search(m, y, ex.Pipeline("tree"),
                                      {"max_depth": [1, 2], "min_samples_split": [2]},
                                      k=2, seed=0)
        assert len(detail["evaluations"]) == 2
        assert best in [e["params"] for e in detail["evaluations"]]

    def test_singleton_grid(self):
        m, y = toy_problem(30, seed=4)
        best, detail = ex.grid_search(m, y, ex.Pipeline("tree"),
                                      {"max_depth": [2]}, k=2, seed=0)
        assert best == {"max_depth": 2}
        assert len(detail["evaluations"]) == 1

    def test_each_evaluation_is_the_kfold_cv_of_its_point(self):
        # the report's "cv" entries are kfold_cv's own output, so the two
        # cannot drift apart
        m, y = toy_problem(40, seed=6)
        pipe = ex.Pipeline("tree")
        _, detail = ex.grid_search(m, y, pipe, {"max_depth": [1, 3]},
                                   k=3, seed=2)
        for e in detail["evaluations"]:
            assert e["cv"] == ex.kfold_cv(m, y, pipe.with_params(e["params"]),
                                          k=3, seed=2)

    def test_empty_grid_raises(self):
        m, y = toy_problem(20, seed=5)
        with pytest.raises(EmptyGrid):
            ex.grid_search(m, y, ex.Pipeline("tree"), {}, k=2, seed=0)


class TestLearningCurve:
    def test_shape_and_monotone_sampling(self):
        m, y = toy_problem(100, seed=7)
        rows = ex.learning_curve(m, y, ex.Pipeline("tree", {"max_depth": 3}),
                                 fractions=[0.2, 0.6, 1.0], k=4, seed=0)
        assert [r["fraction"] for r in rows] == [0.2, 0.6, 1.0]
        for r in rows:
            assert set(r) == {"fraction", "train_mean", "train_std",
                              "val_mean", "val_std"}

    def test_full_fraction_matches_kfold(self):
        m, y = toy_problem(80, seed=8)
        rows = ex.learning_curve(m, y, ex.Pipeline("tree", {"max_depth": 3}),
                                 fractions=[1.0], k=4, seed=3)
        cv = ex.kfold_cv(m, y, ex.Pipeline("tree", {"max_depth": 3}),
                         k=4, seed=3)
        assert rows[0]["val_mean"] == pytest.approx(cv["means"]["accuracy"])


class TestEmptyStudyLists:
    """None alone means the default fractions or sigmas."""

    def unfit(self, monkeypatch):
        def fit(*args, **kwargs):
            raise AssertionError("fitted before the list was checked")
        monkeypatch.setattr(ex.Pipeline, "fit", fit)

    def test_learning_curve(self, monkeypatch):
        m, y = toy_problem(40, seed=1)
        self.unfit(monkeypatch)
        with pytest.raises(ValueError, match="'fractions' is empty"):
            ex.learning_curve(m, y, ex.Pipeline("tree"), fractions=[])

    def test_perturbation_study(self, monkeypatch):
        m, _ = toy_problem(40, seed=1)
        self.unfit(monkeypatch)
        with pytest.raises(ValueError, match="'sigmas' is empty"):
            ex.perturbation_study(m, m, ex.Pipeline("tree"), sigmas=[])


class TestPerturbation:
    def test_baseline_and_shape(self):
        m, y = toy_problem(80, seed=9, d=3)
        tr = m.subset_rows(np.arange(60))
        te = m.subset_rows(np.arange(60, 80))
        out = ex.perturbation_study(tr, te,
                                    ex.Pipeline("tree", {"max_depth": 3}),
                                    sigmas=[0.5, 1.0], seed=0)
        assert out["sigmas"] == [0.0, 0.5, 1.0]
        table = np.asarray(out["accuracy"])
        assert table.shape == (3, 3)
        assert np.all(table[:, 0] == out["baseline"])

    def test_unused_feature_stays_at_baseline(self):
        # class depends only on column 0; a depth-1 tree never reads column 1
        rng = np.random.default_rng(1)
        X = rng.random((120, 2))
        y = (X[:, 0] > 0.5).astype(int)
        m = matrix(X, labels=y)
        tr = m.subset_rows(np.arange(90))
        te = m.subset_rows(np.arange(90, 120))
        out = ex.perturbation_study(tr, te,
                                    ex.Pipeline("tree", {"max_depth": 1}),
                                    sigmas=[1.0], seed=0)
        assert out["accuracy"][1][1] == out["baseline"]
        assert out["accuracy"][0][1] < out["baseline"]

    def test_deterministic(self):
        m, y = toy_problem(60, seed=10, d=2)
        tr, te = m.subset_rows(np.arange(40)), m.subset_rows(np.arange(40, 60))
        pipe = ex.Pipeline("tree")
        a = ex.perturbation_study(tr, te, pipe, sigmas=[0.2], seed=4)
        b = ex.perturbation_study(tr, te, pipe, sigmas=[0.2], seed=4)
        assert a == b


class TestAblation:
    def _mixed_matrix(self):
        rng = np.random.default_rng(2)
        X = rng.random((60, 6))
        y = (X[:, 0] > 0.5).astype(int)
        groups = ["graph", "graph", "temporal", "temporal", "system", "system"]
        return matrix(X, groups=groups, labels=y), y

    def test_seven_rows(self):
        m, y = self._mixed_matrix()
        rows = ex.ablation_study(m, y, ex.Pipeline("tree", {"max_depth": 3}),
                                 k=3, seed=0)
        assert [r["config"] for r in rows] == [
            "full", "without_graph", "without_temporal", "without_system",
            "graph_only", "temporal_only", "system_only"]
        assert rows[0]["n_features"] == 6
        assert rows[1]["n_features"] == 4
        assert rows[4]["n_features"] == 2

    def test_missing_group_raises(self):
        m, y = toy_problem(30, seed=11)
        with pytest.raises(EmptyGroup):
            ex.ablation_study(m, y, ex.Pipeline("tree"), k=2, seed=0)


class TestBalance:
    def test_downsample_to_min(self):
        rng = np.random.default_rng(3)
        X = rng.random((8, 2))
        tasks = ["a"] * 5 + ["b"] * 3
        m = matrix(X, tasks=tasks)
        out = ex.balance_by_resampling(m, tasks, seed=0)
        assert sorted(out.tasks) == ["a"] * 3 + ["b"] * 3

    def test_rows_are_distinct_corpus_rows(self, tmp_path):
        # exp2's balancing on a corpus with one short class: every kept row
        # is a different trace, so no copy can reach both sides of a split
        wg.generate_corpus(wg.task_profiles(), 6, seed=3, out_dir=tmp_path,
                           n_root_calls=6)
        for path in sorted((tmp_path / "aes_encrypt").glob("*.trace"))[3:]:
            path.unlink()
            tp.sidecar_path(path).unlink()
        m = ft.load_matrix(tmp_path, strict=True)
        out = ex.balance_by_resampling(m, m.tasks, seed=3)
        assert out.n_rows == 6 * 3
        rows = {tuple(x) for x in out.X}
        assert len(rows) == out.n_rows
        assert rows <= {tuple(x) for x in m.X}

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        X = rng.random((10, 2))
        tasks = ["a"] * 6 + ["b"] * 4
        m = matrix(X, tasks=tasks)
        a = ex.balance_by_resampling(m, tasks, seed=2)
        b = ex.balance_by_resampling(m, tasks, seed=2)
        assert np.array_equal(a.X, b.X)


class TestReport:
    def test_canonical_json_excludes_wall_clock(self):
        rep = ex.ExperimentReport(kind="demo", config={"a": 1}, seed=0,
                                  data_digest="x", payload={"v": 2},
                                  wall_clock_s=1.23)
        assert "wall_clock" not in rep.canonical_json()
        assert "wall_clock_s" in rep.to_json()

    def test_canonical_json_stable_across_wall_clock(self):
        a = ex.ExperimentReport("demo", {}, 0, "x", {}, wall_clock_s=1.0)
        b = ex.ExperimentReport("demo", {}, 0, "x", {}, wall_clock_s=9.0)
        assert a.canonical_json() == b.canonical_json()


class TestExperiments:
    CFG1 = {"learner": "tree", "k": 10, "grid": {"max_depth": [2, 4]}}

    def test_exp1_test_rows_reach_no_fitted_stage(self, tmp_path):
        clean = tmp_path / "clean"
        wg.generate_corpus(wg.default_pair(), 12, seed=3, out_dir=clean,
                           n_root_calls=8)
        before = ex.run_experiment_1(clean, self.CFG1, seed=7)
        # rows follow the sorted trace paths, as in trace_parser.trace_paths
        paths = sorted(clean.rglob("*.trace"))
        metas = [json.loads(tp.sidecar_path(p).read_text()) for p in paths]
        _, _, te = ex.stratified_split_indices(
            np.array([meta["label"] for meta in metas]), 7)
        corpus = tmp_path / "corpus"
        for i, (path, meta) in enumerate(zip(paths, metas)):
            dst = corpus / path.relative_to(clean)
            dst.parent.mkdir(parents=True, exist_ok=True)
            dst.write_text(path.read_text())
            if i in te:
                meta["read_bytes"] = meta["write_bytes"] = 10 ** 12
            tp.sidecar_path(dst).write_text(json.dumps(meta))
        after = ex.run_experiment_1(corpus, self.CFG1, seed=7)
        for key in ("selected_features", "chi2_top", "best_params", "search"):
            assert after.payload[key] == before.payload[key], key

    @pytest.mark.parametrize("run, key", [
        (ex.run_experiment_1, "fold"),
        (ex.run_experiment_2, "oversample"),
        (ex.run_experiment_2, "folds"),
    ])
    def test_unknown_config_key_is_refused(self, run, key, tmp_path):
        # before, exp1 ran its default 5 folds beside an echoed "fold": 3,
        # and exp2 echoed keys it no longer reads
        with pytest.raises(ValueError, match=repr(key)):
            run(tmp_path, {key: 3}, seed=7)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -0.01])
    def test_exp2_refuses_a_noise_sigma_before_reading(self, sigma, tmp_path):
        # before, a sigma was first read after the final fit; the corpus
        # does not exist, so reading it would raise another error
        with pytest.raises(ValueError, match=f"sigma {sigma!r} "):
            ex.run_experiment_2(tmp_path / "none", {"sigmas": [0.01, sigma]})

    @pytest.mark.parametrize("key, value, named", [
        ("fractions", 0.0, "fraction 0.0 "),
        ("fractions", float("nan"), "fraction nan "),
        ("fractions", 1.5, "fraction 1.5 "),
        ("sigmas", float("nan"), "sigma nan "),
        ("sigmas", float("inf"), "sigma inf "),
        ("sigmas", -0.01, "sigma -0.01 "),
    ])
    def test_exp1_refuses_a_study_value_before_reading(self, key, value,
                                                       named, tmp_path):
        # before, each was first read after the grid search and final fit;
        # the corpus does not exist, so reading it would raise another error
        with pytest.raises(ValueError, match=named):
            ex.run_experiment_1(tmp_path / "none", {key: [value]})

    @pytest.mark.parametrize("run, config", [
        (ex.run_experiment_1, {"fractions": []}),
        (ex.run_experiment_1, {"sigmas": []}),
        (ex.run_experiment_2, {"sigmas": []}),
    ])
    def test_an_empty_study_list_is_refused_before_reading(self, run, config,
                                                           tmp_path):
        # before, exp1 echoed [] in its config beside a 10-row curve, and
        # an empty sigma list ran the default sigmas
        (key,) = config
        with pytest.raises(ValueError, match=f"'{key}' is empty"):
            run(tmp_path / "none", config)

    def test_exp2_reads_each_trace_once(self, tmp_path, monkeypatch):
        # the report's digest is hashed from the bytes that were parsed;
        # before, a second pass read every trace again to hash it
        # Ingest may fork workers, so each read is logged as one line
        # appended to a file that every process shares, not counted in
        # this process's memory.
        wg.generate_corpus(wg.task_profiles(), 4, seed=3, out_dir=tmp_path,
                           n_root_calls=6)
        log = tmp_path / "reads.log"
        fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        read_bytes, builtin_open = Path.read_bytes, builtins.open

        def note(path):
            os.write(fd, f"{os.fspath(path)}\n".encode())

        def counted_read_bytes(path):
            note(path)
            return read_bytes(path)

        def counted_open(file, *args, **kwargs):
            note(file)
            return builtin_open(file, *args, **kwargs)

        monkeypatch.setattr(Path, "read_bytes", counted_read_bytes)
        monkeypatch.setattr(builtins, "open", counted_open)
        rep = ex.run_experiment_2(
            tmp_path, {"k": 10, "base_params": {"n_trees": 4, "max_depth": 4},
                       "importance_params": {"n_trees": 4, "max_depth": 4}},
            seed=7)
        monkeypatch.undo()
        os.close(fd)
        reads = Counter(Path(line) for line in log.read_text().splitlines())
        traces = sorted(tmp_path.rglob("*.trace"))
        assert len(traces) == 6 * 4
        assert {p: reads[p] for p in traces} == dict.fromkeys(traces, 1)
        assert rep.data_digest == hashlib.sha256(b"".join(
            hashlib.sha256(p.read_bytes()).digest() for p in traces)).hexdigest()


class TestMappedStudies:
    """exp1's grid-search fits run through one `workers.map_forked` call, and
    its final, perturbation, learning-curve and ablation fits through one
    more; see tests/test_ingest_workers.py for the map on its own."""

    @pytest.mark.parametrize("config", [
        {"learner": "boosting", "k": 10,
         "grid": {"n_rounds": [8], "max_depth": [2, 3]}},
        {"learner": "forest", "k": 10,
         "grid": {"n_trees": [5], "max_depth": [3, 6]}},
    ])
    def test_one_and_two_workers_give_the_same_report(self, config, tmp_path,
                                                      monkeypatch):
        wg.generate_corpus(wg.default_pair(), 12, seed=3, out_dir=tmp_path,
                           n_root_calls=8)
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        got = {}
        for name, cpus in (("one", ONE_CPU), ("two", TWO_CPUS)):
            use_cpus(monkeypatch, cpus)
            got[name] = ex.run_experiment_1(tmp_path, config, seed=7)
            assert_no_child_left()
            # ingest, grid search, and every fit after grid search fork
            # once each; a single worker forks nothing
            assert len(forks) == {"one": 0, "two": 3}[name]
        one, two = got["one"], got["two"]
        for key in ("learning_curve", "ablation", "search"):
            assert one.payload[key] == two.payload[key], key
        assert one.canonical_json() == two.canonical_json()

    @pytest.mark.parametrize("study", ["kfold_cv", "learning_curve"])
    @pytest.mark.parametrize("cpus", [ONE_CPU, TWO_CPUS])
    def test_the_lowest_indexed_job_error_is_raised(self, study, cpus,
                                                    monkeypatch):
        # with two workers, job 1 (fold 1) fails in the forked worker and
        # the later job 2 (fold 2) in this process; job 1's error wins, as
        # in a serial run
        m, y = toy_problem(60, seed=4)
        fold_of = {ex._sub_seed(5, i): i for i in range(4)}
        fit_and_score = ex._fit_and_score

        def failing(m, labels, pipeline, train_rows, seed, *scored):
            if fold_of[seed] in (1, 2):
                raise ValueError(f"fold {fold_of[seed]} in pid {os.getpid()}")
            return fit_and_score(m, labels, pipeline, train_rows, seed,
                                 *scored)
        monkeypatch.setattr(ex, "_fit_and_score", failing)
        use_cpus(monkeypatch, cpus)
        pipe = ex.Pipeline("tree", {"max_depth": 2})
        with pytest.raises(ValueError, match="fold 1 in pid") as err:
            getattr(ex, study)(m, y, pipe, k=4, seed=5)
        # one worker fails in this process, two in the forked worker
        raised_here = str(err.value) == f"fold 1 in pid {os.getpid()}"
        assert raised_here == (cpus == ONE_CPU)
        assert_no_child_left()

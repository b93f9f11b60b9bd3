import contextlib
import itertools
import json
import signal
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ftracekit import learners as ln
from ftracekit.errors import EmptyData, WidthMismatch


NAN = float("nan")


def xor_data():
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([0, 1, 1, 0])
    return X, y


class TestDecisionTree:
    def test_one_dimensional_split(self):
        X = np.array([[1.0], [2.0], [10.0], [11.0]])
        y = np.array([0, 0, 1, 1])
        tree = ln.DecisionTree(max_depth=1).fit(X, y)
        assert tree.threshold[0] == pytest.approx(6.0)
        assert tree.predict(X).tolist() == [0, 0, 1, 1]

    def test_pure_node_is_leaf(self):
        X = np.array([[0.0], [1.0]])
        tree = ln.DecisionTree().fit(X, np.array([1, 1]))
        assert tree.root.is_leaf
        assert tree.predict(np.array([[5.0]])).tolist() == [1]

    def test_xor_needs_depth_two(self):
        X, y = xor_data()
        shallow = ln.DecisionTree(max_depth=1).fit(X, y)
        assert (shallow.predict(X) == y).mean() < 1.0
        deep = ln.DecisionTree(max_depth=2).fit(X, y)
        assert (deep.predict(X) == y).mean() == 1.0

    def test_tie_break_lowest_feature_index(self):
        # both columns split the labels equally well
        X = np.array([[0.0, 0.0], [1.0, 1.0]])
        y = np.array([0, 1])
        tree = ln.DecisionTree(max_depth=1).fit(X, y)
        assert tree.feature[0] == 0

    def test_proba_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        X = rng.random((40, 3))
        y = (X[:, 0] > 0.5).astype(int)
        tree = ln.DecisionTree(max_depth=4).fit(X, y)
        P = tree.predict_proba(rng.random((10, 3)))
        assert P.sum(axis=1) == pytest.approx(np.ones(10))

    @pytest.mark.parametrize("params, name", [
        ({"max_depth": -1}, "max_depth"), ({"max_depth": "3"}, "max_depth"),
        ({"min_samples_split": 0}, "min_samples_split"),
        ({"min_samples_split": 2.5}, "min_samples_split")])
    def test_bad_hyperparameters_rejected(self, params, name):
        X, y = xor_data()
        with pytest.raises(ValueError, match=name):
            ln.DecisionTree(**params).fit(X, y)

    def test_serialization_round_trip(self):
        rng = np.random.default_rng(1)
        X = rng.random((30, 4))
        y = (X[:, 2] > 0.3).astype(int)
        tree = ln.DecisionTree(max_depth=3).fit(X, y)
        again = ln.DecisionTree.from_dict(tree.to_dict())
        Xt = rng.random((20, 4))
        assert np.array_equal(tree.predict(Xt), again.predict(Xt))


class TestRandomForest:
    def _data(self, seed=0, n=80):
        rng = np.random.default_rng(seed)
        X = rng.random((n, 4))
        y = ((X[:, 0] + X[:, 1]) > 1.0).astype(int)
        return X, y

    def test_seed_determinism(self):
        X, y = self._data()
        a = ln.RandomForest(n_trees=10, seed=3).fit(X, y)
        b = ln.RandomForest(n_trees=10, seed=3).fit(X, y)
        assert np.array_equal(a.predict(X), b.predict(X))
        assert np.array_equal(a.predict_proba(X), b.predict_proba(X))

    def test_different_seeds_differ(self):
        X, y = self._data()
        a = ln.RandomForest(n_trees=10, seed=3).fit(X, y)
        b = ln.RandomForest(n_trees=10, seed=4).fit(X, y)
        assert not np.array_equal(a.predict_proba(X), b.predict_proba(X))

    def test_learns_the_signal(self):
        X, y = self._data(n=200)
        forest = ln.RandomForest(n_trees=30, max_depth=6, seed=0).fit(X, y)
        assert (forest.predict(X) == y).mean() >= 0.95

    def test_predict_agrees_with_predict_proba(self):
        # accuracy and AUC must describe one classifier; a hard majority
        # vote over the trees disagrees with the mean probability on 605
        # of these 4,000 rows
        rng = np.random.default_rng(0)
        X, y = rng.random((200, 5)), rng.integers(0, 2, 200)
        forest = ln.RandomForest(n_trees=7, max_depth=4, seed=1).fit(X, y)
        probe = rng.random((4000, 5))
        want = forest.classes_[np.argmax(forest.predict_proba(probe), axis=1)]
        assert np.array_equal(forest.predict(probe), want)

    def test_zero_trees_rejected(self):
        X, y = self._data()
        with pytest.raises(ValueError, match="at least one tree"):
            ln.RandomForest(n_trees=0).fit(X, y)

    @pytest.mark.parametrize("params, name", [
        ({"max_features": 0.5}, "max_features"),
        ({"max_features": 0}, "max_features"),
        ({"max_features": -2}, "max_features"),
        ({"max_features": "log2"}, "max_features"),
        ({"max_features": True}, "max_features"),
        ({"n_trees": 2.5}, "n_trees"),
        ({"n_trees": True}, "n_trees"),
        ({"min_samples_split": "a"}, "min_samples_split"),
        ({"min_samples_split": 0}, "min_samples_split"),
        ({"max_depth": -1}, "max_depth"),
        ({"max_depth": 2.0}, "max_depth"),
        ({"bootstrap": "no"}, "bootstrap"),
        ({"bootstrap": 1}, "bootstrap"),
        ({"bootstrap": None}, "bootstrap"),
    ])
    def test_bad_hyperparameters_rejected(self, params, name):
        X, y = self._data()
        with pytest.raises(ValueError, match=name):
            ln.RandomForest(**params).fit(X, y)

    @pytest.mark.parametrize("params", [
        {"max_features": 1}, {"max_features": "sqrt"}, {"max_features": "all"},
        {"max_features": None}, {"max_features": 6},
        {"max_depth": None}, {"max_depth": 0}, {"min_samples_split": 1},
        {"n_trees": np.int64(2)}, {"bootstrap": False},
        {"bootstrap": np.bool_(True)}])
    def test_documented_hyperparameters_accepted(self, params):
        X, y = self._data()
        forest = ln.RandomForest(**{"n_trees": 3, **params}).fit(X, y)
        assert len(forest.trees) == forest.n_trees

    def test_importances_normalized(self):
        X, y = self._data()
        forest = ln.RandomForest(n_trees=15, max_depth=5, seed=1).fit(X, y)
        imp = forest.feature_importances()
        assert imp.sum() == pytest.approx(1.0)
        assert np.all(imp >= 0)
        assert imp[:2].sum() > imp[2:].sum()

    def test_serialization_round_trip(self):
        X, y = self._data()
        forest = ln.RandomForest(n_trees=5, max_depth=3, seed=2).fit(X, y)
        again = ln.RandomForest.from_dict(forest.to_dict())
        assert np.array_equal(forest.predict(X), again.predict(X))

    def test_fitted_trees_drop_their_generators(self):
        # about 150 KB of exp2's one-vs-rest forests was the trees' spent
        # generators; a standalone tree keeps its own, so a refit draws on
        X, y = self._data()
        forest = ln.RandomForest(n_trees=4, max_depth=3, seed=2).fit(X, y)
        assert [t.rng for t in forest.trees] == [None] * 4
        again = ln.RandomForest(n_trees=4, max_depth=3, seed=2).fit(X, y)
        assert json.dumps(forest.to_dict()) == json.dumps(again.to_dict())
        assert np.array_equal(forest.fit(X, y).predict_proba(X),
                              again.predict_proba(X))

    def test_a_standalone_tree_keeps_its_generator(self):
        # a refit draws on from where the first fit left it
        X, y = self._data()
        tree = ln.DecisionTree(max_depth=3, max_features=2,
                               rng=np.random.default_rng(5)).fit(X, y)
        after_one = tree.rng.bit_generator.state
        tree.fit(X, y)
        assert tree.rng.bit_generator.state != after_one


class TestRegressionTree:
    @pytest.mark.parametrize("n,value", [(10_000, -0.9999), (50_000, 0.3)])
    def test_equal_residuals_make_one_leaf(self, n, value):
        # Every cut gains 0 in exact arithmetic, but at this many rows the
        # float SSE of some cuts falls more than 1e-12 below the node's
        # own, so a search here would split on rounding noise.
        X = np.random.default_rng(0).random((n, 3))
        tree = ln.RegressionTree(max_depth=3).fit(X, np.full(n, value),
                                                  np.full(n, 0.25))
        assert len(tree.feature) == 1
        assert not tree.fit_leaves_.any()

    def test_no_columns_make_one_leaf(self):
        tree = ln.RegressionTree().fit(np.empty((4, 0)), [-0.5, 0.5] * 2,
                                       np.full(4, 0.25))
        assert len(tree.feature) == 1
        assert tree.predict(np.empty((2, 0))).tolist() == [0.0, 0.0]


class TestGradientBoosting:
    def _data(self, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.random((100, 3))
        y = (X[:, 1] + 0.1 * rng.standard_normal(100) > 0.5).astype(int)
        return X, y

    def test_zero_rounds_predicts_prior(self):
        X, y = self._data()
        model = ln.GradientBoosting(n_rounds=0).fit(X, y)
        assert model.predict_proba1(X) == pytest.approx(
            np.full(len(y), y.mean()), abs=1e-12)

    def test_loss_is_non_increasing(self):
        X, y = self._data()
        model = ln.GradientBoosting(n_rounds=100).fit(X, y)
        losses = model.train_losses
        assert len(losses) == 101
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_fits_the_signal(self):
        X, y = self._data()
        model = ln.GradientBoosting(n_rounds=60, max_depth=3).fit(X, y)
        assert (model.predict(X) == y).mean() >= 0.95

    def test_single_class_warns_and_is_constant(self):
        X = np.random.default_rng(0).random((10, 2))
        with pytest.warns(UserWarning):
            model = ln.GradientBoosting(n_rounds=5).fit(X, np.ones(10, dtype=int))
        assert model.predict(X).tolist() == [1] * 10

    def test_empty_data_rejected(self):
        with pytest.raises(EmptyData):
            ln.GradientBoosting().fit(np.empty((0, 2)), np.empty(0))

    @pytest.mark.parametrize("params, name", [
        ({"n_rounds": -1}, "n_rounds"), ({"n_rounds": True}, "n_rounds"),
        ({"learning_rate": 0}, "learning_rate"),
        ({"learning_rate": float("inf")}, "learning_rate"),
        ({"learning_rate": True}, "learning_rate"),
        ({"max_depth": None}, "max_depth"),
        ({"min_samples_split": 1.0}, "min_samples_split"),
        ({"n_rounds": 0, "max_depth": "a"}, "max_depth")])
    def test_bad_hyperparameters_rejected(self, params, name):
        X, y = self._data()
        with pytest.raises(ValueError, match=name):
            ln.GradientBoosting(**params).fit(X, y)

    def test_single_class_checks_tree_hyperparameters(self):
        X, _ = self._data()
        with pytest.raises(ValueError, match="min_samples_split"):
            ln.GradientBoosting(min_samples_split=0).fit(X[:6], [1] * 6)

    def test_serialization_round_trip(self):
        X, y = self._data()
        model = ln.GradientBoosting(n_rounds=10).fit(X, y)
        again = ln.GradientBoosting.from_dict(model.to_dict())
        assert np.array_equal(model.decision_scores(X), again.decision_scores(X))

    HYPERPARAMETERS = {"n_rounds": 5, "learning_rate": 0.5, "max_depth": 2,
                       "min_samples_split": 4}

    def test_hyperparameters_survive_save_and_load(self, tmp_path):
        X, y = self._data()
        model = ln.train("boosting", X, y, self.HYPERPARAMETERS)
        ln.save_model(model, tmp_path / "model.json")
        again = ln.load_model(tmp_path / "model.json").impl
        for name, value in self.HYPERPARAMETERS.items():
            assert getattr(again, name) == value
        assert np.array_equal(again.decision_scores(X),
                              model.impl.decision_scores(X))


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the body once `seconds` of wall time pass."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# two neighbouring values whose midpoint rounds onto the upper one, and
# two whose sum overflows
CLOSE_PAIRS = [np.array([[1 + 2**-52], [1 + 2 * 2**-52]]),
               np.array([[1e308], [1.7e308]])]


def assert_cut_at_lower_value(tree, X):
    """Each internal node of `tree` cuts between the two rows of X, at
    the lower value, so that it sends one row each way."""
    assert len(tree.feature) <= 3
    assert np.all(tree.threshold[tree.left >= 0] == X[0, 0])


@pytest.mark.parametrize("X", CLOSE_PAIRS, ids=["rounds_up", "overflows"])
class TestCutBetweenNeighbours:
    """Where the midpoint of two neighbouring values rounds onto the upper
    one or overflows, the threshold is the lower value.  A cut at such a
    midpoint sent every row left: an unbounded tree split the same rows
    forever and a forest predicted NaN."""

    def test_decision_tree(self, X):
        with time_limit(1.0):
            tree = ln.DecisionTree(max_depth=None).fit(X, [0, 1])
        assert tree.threshold.tolist() == [X[0, 0], 0.0, 0.0]
        assert tree.predict_proba(X).tolist() == [[1.0, 0.0], [0.0, 1.0]]

    def test_random_forest(self, X):
        with time_limit(1.0):
            forest = ln.RandomForest(seed=0).fit(X, [0, 1])
        for tree in forest.trees:
            assert_cut_at_lower_value(tree, X)
        assert not np.isnan(forest.predict_proba(X)).any()
        assert forest.predict(X).tolist() == [0, 1]

    def test_regression_tree(self, X):
        with time_limit(1.0):
            tree = ln.RegressionTree(max_depth=3).fit(X, [-0.5, 0.5],
                                                      [0.25, 0.25])
        assert len(tree.feature) == 3
        assert_cut_at_lower_value(tree, X)
        assert tree.fit_leaves_.tolist() == [1, 2]

    def test_gradient_boosting(self, X):
        with time_limit(1.0):
            model = ln.GradientBoosting().fit(X, [0, 1])
        for tree in model.trees:
            assert_cut_at_lower_value(tree, X)
        p = model.predict_proba1(X)
        assert not np.isnan(p).any()
        assert model.predict(X).tolist() == [0, 1]


class TestRefitAndReload:
    """Fitted ensembles are stacked for prediction when fit or loaded; a
    refit instance and a reloaded model must predict like a fresh fit."""

    PARAMS = {"forest": {"n_trees": 6, "max_depth": 3},
              "boosting": {"n_rounds": 12}}

    def _data(self):
        rng = np.random.default_rng(9)
        X1, X2 = rng.random((40, 3)), rng.random((30, 3))
        return X1, (X1[:, 0] > 0.5).astype(int), X2, (X2[:, 2] > 0.4).astype(int)

    @pytest.mark.parametrize("kind", ["forest", "boosting"])
    def test_refit_predicts_like_a_fresh_fit(self, kind):
        X1, y1, X2, y2 = self._data()
        refit = ln.train(kind, X1, y1, self.PARAMS[kind], seed=1)
        refit.impl.fit(X2, y2)
        fresh = ln.train(kind, X2, y2, self.PARAMS[kind], seed=1)
        assert np.array_equal(refit.predict(X2), fresh.predict(X2))
        assert np.array_equal(refit.scores(X2), fresh.scores(X2))

    def test_single_class_refit_forgets_the_old_trees(self):
        X1, y1, X2, _ = self._data()
        refit = ln.GradientBoosting(n_rounds=12).fit(X1, y1)
        with pytest.warns(UserWarning):
            refit.fit(X2, np.ones(len(X2)))
        assert refit.trees == [] and refit.scales == []
        assert np.array_equal(refit.decision_scores(X2), np.full(len(X2), 500.0))

    def test_two_class_refit_after_a_single_class_fit_is_not_constant(self):
        _, _, X2, y2 = self._data()
        refit = ln.GradientBoosting(n_rounds=12)
        with pytest.warns(UserWarning):
            refit.fit(X2, np.ones(len(X2)))
        refit.fit(X2, y2)
        fresh = ln.GradientBoosting(n_rounds=12).fit(X2, y2)
        assert refit.constant is False
        assert refit.to_dict() == fresh.to_dict()

    @pytest.mark.parametrize("kind", ["forest", "boosting"])
    def test_reload_predicts_like_a_fresh_fit(self, kind, tmp_path):
        _, _, X2, y2 = self._data()
        fresh = ln.train(kind, X2, y2, self.PARAMS[kind], seed=1)
        ln.save_model(fresh, tmp_path / "model.json")
        again = ln.load_model(tmp_path / "model.json")
        assert np.array_equal(again.predict(X2), fresh.predict(X2))
        assert np.array_equal(again.scores(X2), fresh.scores(X2))


class TestSigmoidAndLogLoss:
    """tests/test_tree_oracle.py calls `_sigmoid` and `_log_loss` itself, so
    they are held here to the bits of the expressions written out below."""

    SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                        suppress_health_check=[HealthCheck.too_slow])

    @SETTINGS
    @given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=300))
    def test_sigmoid_bits(self, values):
        # st.floats reaches past the +-500 clip, up to the infinities
        z = np.array(values)
        want = 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))
        assert ln._sigmoid(z).tobytes() == want.tobytes()

    @SETTINGS
    @given(st.data())
    def test_log_loss_bits(self, data):
        n = data.draw(st.integers(1, 300))
        p = np.array(data.draw(st.lists(
            st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0, 1e-13, 1 - 1e-13]),
            min_size=n, max_size=n)))
        y = np.array(data.draw(st.lists(st.sampled_from([0.0, 1.0]),
                                        min_size=n, max_size=n)))
        q = np.clip(p, 1e-12, 1 - 1e-12)
        want = float(-np.mean(y * np.log(q) + (1 - y) * np.log(1 - q)))
        assert np.float64(ln._log_loss(y, p)).tobytes() == np.float64(want).tobytes()


class TestDeepTrees:
    """X = arange(n), y = n % 2: every Gini-best cut peels off one row, so
    an unlimited-depth tree is a chain n levels deep."""

    N = 1500

    def test_fit_predict_save_load(self, tmp_path):
        X = np.arange(self.N, dtype=float)[:, None]
        y = np.arange(self.N) % 2
        model = ln.train("tree", X, y)
        assert len(model.impl.feature) == 2 * self.N - 1
        assert np.array_equal(model.predict(X), y)
        ln.save_model(model, tmp_path / "model.json")
        assert sys.getrecursionlimit() == 1000
        state = json.loads((tmp_path / "model.json").read_text())["state"]
        assert len(state["feature"]) == 2 * self.N - 1
        again = ln.load_model(tmp_path / "model.json")
        assert np.array_equal(again.predict(X), y)
        assert again.impl.to_dict()["threshold"][0] == 0.5
        for name in ("feature", "threshold", "left", "right"):
            assert np.array_equal(getattr(again.impl, name),
                                  getattr(model.impl, name))


class TestJsonCodec:
    """The model reader's handling of text stdlib json rejects."""

    @pytest.mark.parametrize("text", [
        "", "{", "[1,]", '{"a" 1}', '{"a": 1,}', "[1 2]", "1 2", "{1: 2}",
        '"abc', "tru", "[}", '{"a": ]}', ",", "]"])
    def test_rejects_what_stdlib_rejects(self, text, tmp_path):
        with pytest.raises(ValueError):
            json.loads(text)
        (tmp_path / "m.json").write_text(text)
        with pytest.raises(ValueError):
            ln.load_model(tmp_path / "m.json")


class TestLogistic:
    def test_zero_epochs_scores_half(self):
        X = np.random.default_rng(0).random((8, 3))
        model = ln.LogisticModel(epochs=0).fit(X, np.array([0, 1] * 4))
        assert model.predict_proba1(X) == pytest.approx(np.full(8, 0.5))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((25, 4))
        y = (rng.random(25) > 0.5).astype(float)
        w = rng.standard_normal(4) * 0.3
        b = 0.17
        l2 = 0.05
        _, gw, gb = ln.LogisticModel.loss_and_grad(w, b, X, y, l2)
        eps = 1e-6
        for j in range(4):
            wp, wm = w.copy(), w.copy()
            wp[j] += eps
            wm[j] -= eps
            lp, _, _ = ln.LogisticModel.loss_and_grad(wp, b, X, y, l2)
            lm, _, _ = ln.LogisticModel.loss_and_grad(wm, b, X, y, l2)
            assert gw[j] == pytest.approx((lp - lm) / (2 * eps), abs=1e-5)
        lp, _, _ = ln.LogisticModel.loss_and_grad(w, b + eps, X, y, l2)
        lm, _, _ = ln.LogisticModel.loss_and_grad(w, b - eps, X, y, l2)
        assert gb == pytest.approx((lp - lm) / (2 * eps), abs=1e-5)

    @pytest.mark.parametrize("params, name", [
        ({"epochs": 2.5}, "epochs"), ({"step": 0.0}, "step"),
        ({"step": NAN}, "step"), ({"l2": -1e-4}, "l2"),
        ({"l2": "0"}, "l2")])
    def test_bad_hyperparameters_rejected(self, params, name):
        X = np.random.default_rng(0).random((8, 3))
        with pytest.raises(ValueError, match=name):
            ln.LogisticModel(**params).fit(X, np.array([0, 1] * 4))

    def test_separable_data_learned(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((60, 2))
        y = (X[:, 0] > 0).astype(int)
        model = ln.LogisticModel(epochs=400).fit(X, y)
        assert (model.predict(X) == y).mean() >= 0.95


class TestOneVsRest:
    def _data(self):
        rng = np.random.default_rng(6)
        X = rng.random((90, 3))
        tasks = np.select([X[:, 0] > 0.66, X[:, 0] > 0.33],
                          ["high", "mid"], "low").tolist()
        return X, tasks

    def test_labels_sorted_and_matrix_shape(self):
        X, tasks = self._data()
        ovr = ln.OneVsRest(base_params={"n_trees": 10}, seed=0).fit(X, tasks)
        assert ovr.labels_ == ["high", "low", "mid"]
        Y = ovr.outputs(X)[0]
        assert Y.shape == (90, 3)
        assert set(np.unique(Y)) <= {0, 1}

    def test_recovers_task_labels(self):
        X, tasks = self._data()
        ovr = ln.OneVsRest(base_params={"n_trees": 20, "max_depth": 6},
                           seed=1).fit(X, tasks)
        Y = ovr.outputs(X)[0]
        truth = ln.one_hot(tasks, ovr.labels_)
        _, micro = ln._per_label(truth, Y)
        assert micro >= 0.9


class TestModelWrapper:
    def test_train_and_width_check(self):
        X = np.random.default_rng(0).random((20, 3))
        y = (X[:, 0] > 0.5).astype(int)
        model = ln.train("tree", X, y, {"max_depth": 2}, seed=0,
                         feature_names=["a", "b", "c"])
        assert model.predict(X).shape == (20,)
        with pytest.raises(WidthMismatch):
            model.predict(X[:, :2])
        with pytest.raises(WidthMismatch):
            model.scores(X[:, :2])

    @pytest.mark.parametrize("kind, params", [
        ("tree", {}), ("forest", {}), ("boosting", {}), ("logistic", {}),
        ("one_vs_rest", {"base": "forest", "n_trees": 5}),
        ("one_vs_rest", {"base": "boosting", "n_rounds": 8})],
        ids=["tree", "forest", "boosting", "logistic", "one_vs_rest-forest",
             "one_vs_rest-boosting"])
    def test_save_load_round_trip(self, kind, params, tmp_path):
        X = np.random.default_rng(1).random((40, 3))
        y = (X[:, 1] > 0.5).astype(int)
        if kind == "one_vs_rest":
            y = np.array(["lo", "mid", "hi"])[(3 * X[:, 1]).astype(int)].tolist()
        model = ln.train(kind, X, y, params, seed=2)
        path = tmp_path / "model.json"
        ln.save_model(model, path)
        again = ln.load_model(path)
        assert again.kind == kind
        assert np.array_equal(model.predict(X), again.predict(X))
        assert np.array_equal(model.scores(X), again.scores(X))
        ln.save_model(again, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    def test_one_vs_rest_save_load(self, tmp_path):
        X = np.random.default_rng(2).random((30, 2))
        tasks = ["a" if v > 0.5 else "b" for v in X[:, 0]]
        model = ln.train("one_vs_rest", X, tasks, {"n_trees": 5}, seed=3)
        ln.save_model(model, tmp_path / "m.json")
        again = ln.load_model(tmp_path / "m.json")
        assert np.array_equal(model.predict(X), again.predict(X))

    def test_bad_version_rejected(self, tmp_path):
        X = np.random.default_rng(3).random((10, 2))
        y = np.array([0, 1] * 5)
        model = ln.train("tree", X, y)
        path = tmp_path / "m.json"
        ln.save_model(model, path)
        import json
        payload = json.loads(path.read_text())
        payload["version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="retrain"):
            ln.load_model(path)


def xor_model_file(path):
    """A depth-2 tree on the XOR rows saved to `path`; its pre-order nodes
    are 0 (root), 1 (internal), 2, 3 (leaves), 4 (internal), 5, 6."""
    X, y = xor_data()
    ln.save_model(ln.train("tree", X, y, {"max_depth": 2}), path)
    payload = json.loads(path.read_text())
    assert payload["state"]["left"] == [1, 2, -1, -1, 5, -1, -1]
    return payload


def self_loop(state):
    state["left"][1] = 1


def back_edge(state):
    state["right"][4] = 0


def unequal_lengths(state):
    state["threshold"].pop()


def feature_out_of_range(state):
    state["feature"][4] = 2  # the file names two features


def negative_feature(state):
    state["feature"][0] = -1


def flat_value(state):
    state["value"] = [v[0] for v in state["value"]]


def no_nodes(state):
    for k in ("feature", "threshold", "left", "right", "value"):
        state[k] = []


def wide_value(state):
    state["value"] = [v + [0.0, 0.0] for v in state["value"]]


def forest_wider_than_classes(state):
    for tree in state["trees"]:  # each tree agrees with its own classes
        tree["classes"].append(2)
        tree["value"] = [v + [0.0] for v in tree["value"]]


def forest_tree_wide_value(state):
    wide_value(state["trees"][0])


def forest_without_trees(state):
    state["trees"] = []


def booster_tree_wide_value(state):
    wide_value(state["trees"][0])


def booster_scale_missing(state):
    state["scales"].pop()


def booster_hyperparameter_missing(state):
    del state["learning_rate"]


def one_vs_rest_label_missing(state):
    state["labels"].pop()


def booster_prior_string(state):
    state["prior"] = "zero"


def logistic_w_short(state):
    state["w"].pop()


def logistic_w_nested(state):
    state["w"] = [state["w"]]


def logistic_b_string(state):
    state["b"] = "zero"


def one_vs_rest_logistic_base_w_short(state):
    state["base_kind"] = "logistic"
    state["models"] = [{"w": [0.0], "b": 0.0} for _ in state["models"]]


class TestMalformedModelFiles:
    """Flat node lists can encode a cycle, which a prediction walk would
    follow forever; every such file is refused on load."""

    @pytest.mark.parametrize("corrupt", [
        self_loop, back_edge, unequal_lengths, feature_out_of_range,
        negative_feature, flat_value, no_nodes, wide_value])
    def test_rejected(self, corrupt, tmp_path):
        path = tmp_path / "m.json"
        payload = xor_model_file(path)
        corrupt(payload["state"])
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="malformed"):
            ln.load_model(path)

    @pytest.mark.parametrize("kind", ["forest", "boosting"])
    def test_rejected_inside_an_ensemble(self, kind, tmp_path):
        X, y = xor_data()
        path = tmp_path / "m.json"
        ln.save_model(ln.train(kind, X, y, {"n_trees": 3, "n_rounds": 3}), path)
        payload = json.loads(path.read_text())
        payload["state"]["trees"][-1]["left"][0] = 0  # a self-loop at a root
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="malformed"):
            ln.load_model(path)

    @pytest.mark.parametrize("kind, corrupt", [
        ("forest", forest_wider_than_classes),
        ("forest", forest_tree_wide_value),
        ("forest", forest_without_trees),
        ("boosting", booster_tree_wide_value),
        ("boosting", booster_scale_missing),
        ("boosting", booster_hyperparameter_missing),
        ("boosting", booster_prior_string),
        ("logistic", logistic_w_short),
        ("logistic", logistic_w_nested),
        ("logistic", logistic_b_string),
        ("one_vs_rest", one_vs_rest_label_missing),
        ("one_vs_rest", one_vs_rest_logistic_base_w_short),
    ], ids=lambda v: v if isinstance(v, str) else v.__name__)
    def test_ensemble_parts_checked(self, kind, corrupt, tmp_path):
        X, y = xor_data()
        if kind == "one_vs_rest":
            y = ["ab"[v] for v in y]
        path = tmp_path / "m.json"
        ln.save_model(ln.train(kind, X, y, {"n_trees": 3, "n_rounds": 3}), path)
        payload = json.loads(path.read_text())
        corrupt(payload["state"])
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="malformed model file"):
            ln.load_model(path)


def oracle_auc(y, s):
    pos = [v for v, t in zip(s, y) if t == 1]
    neg = [v for v, t in zip(s, y) if t == 0]
    if not pos or not neg:
        return 0.5
    wins = 0.0
    for p, n in itertools.product(pos, neg):
        if p > n:
            wins += 1.0
        elif p == n:
            wins += 0.5
    return wins / (len(pos) * len(neg))


class TestMetrics:
    def test_auc_against_pairwise_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            n = int(rng.integers(4, 30))
            y = rng.integers(0, 2, size=n)
            s = np.round(rng.random(n), 1)  # coarse grid to force ties
            assert ln.roc_auc_score(y, s) == pytest.approx(
                oracle_auc(y, s), abs=1e-12)

    @pytest.mark.parametrize("y, s, auc", [
        ([1, 0, 1, 0, 1, 0], [0.5] * 6, 0.5),
        ([1, 1, 0, 0, 1, 0, 0], [0.9, 0.4, 0.4, 0.1, 0.4, 0.9, 0.0],
         0.7083333333333334),
        ([1, 0, 0, 1, 0], [-0.0, 0.0, 0.3, 0.3, -1.0], 0.6666666666666666),
        ([1, 0, 1, 0], [NAN, 0.2, 0.7, 0.7], 0.875),
        ([1, 0, 1, 0], [0.1, NAN, 0.7, 0.2], 0.25),
        ([1, 0, 1, 0, 0], [NAN, NAN, 0.5, 0.5, NAN], 0.25),
        ([1, 0], [NAN, NAN], 0.0),
        # NaNs rank last in input order, past the 16 elements a sort may
        # handle by insertion alone
        ([1, 1, 0, 0, 0, 0, 0, 0, 2, 1, 2, 1, 1, 2, 2, 1, 1, 1, 2, 0, 2],
         [-0.0, 1.0, -0.0, NAN, 1.0, -0.0, 1.0, 1.0, NAN, 0.0, NAN, 1.0, NAN,
          0.0, 0.0, NAN, NAN, 0.0, NAN, NAN, 1.0], 0.9107142857142857),
    ], ids=["all_tied", "tied_across_classes", "signed_zeros", "nan_positive",
            "nan_negative", "nans_both_classes", "only_nans", "nans_long"])
    def test_auc_ties_and_nans_pinned(self, y, s, auc):
        """Values of the earlier rank loop: ties share their mean rank, a
        NaN is unequal to every score, NaNs included."""
        assert ln.roc_auc_score(y, s) == auc

    def test_auc_degenerate_returns_half(self):
        assert ln.roc_auc_score([1, 1], [0.2, 0.8]) == 0.5

    def test_binary_metrics_hand_case(self):
        y_true = np.array([1, 1, 0, 0])
        y_pred = np.array([1, 1, 1, 0])
        m = ln.binary_metrics(y_true, y_pred)
        assert m.accuracy == 0.75
        assert m.precision == pytest.approx(2 / 3)
        assert m.recall == 1.0
        assert m.f1 == pytest.approx(0.8)
        assert m.confusion == [[1, 1], [0, 2]]
        # a forest on classes (0, 2) predicts 2: neither a positive nor a
        # negative, so a true 1 predicted 2 is no false negative and a true 0
        # predicted 2 no true negative
        m = ln.binary_metrics([1, 1, 1, 0, 0, 0], [1, 2, 0, 2, 0, 1])
        assert m.confusion == [[1, 1], [1, 1]]
        assert m.accuracy == 2 / 6
        assert (m.precision, m.recall, m.f1) == (0.5, 0.5, 0.5)

    def test_one_hot(self):
        Y = ln.one_hot(["b", "a", "b"], ["a", "b"])
        assert Y.tolist() == [[0, 1], [1, 0], [0, 1]]

    def test_multilabel_f1_micro_equals_accuracy_for_exact_one_hot(self):
        truth = ln.one_hot(["a", "b", "a", "c"], ["a", "b", "c"])
        pred = ln.one_hot(["a", "b", "c", "c"], ["a", "b", "c"])
        per_label, micro = ln._per_label(truth, pred)
        assert micro == pytest.approx(0.75)
        assert np.mean([f1 for _, _, f1 in per_label]) == pytest.approx(7 / 9)

    def test_monotone_transform_preserves_auc(self):
        rng = np.random.default_rng(8)
        y = rng.integers(0, 2, size=40)
        s = rng.random(40)
        assert ln.roc_auc_score(y, s) == pytest.approx(
            ln.roc_auc_score(y, np.exp(3 * s)), abs=1e-12)

    def test_evaluate_bundles_metrics(self):
        X = np.random.default_rng(5).random((60, 2))
        y = (X[:, 0] > 0.5).astype(int)
        model = ln.train("forest", X, y, {"n_trees": 10, "max_depth": 4}, seed=0)
        m = ln.evaluate(model, X, y)
        assert m.accuracy >= 0.9
        assert 0.0 <= m.roc_auc <= 1.0
        assert sum(sum(row) for row in m.confusion) == 60

    @pytest.mark.parametrize("kind, params, classes", [
        ("tree", {"max_depth": 2}, (0, 1)),
        ("forest", {"n_trees": 7, "max_depth": 3}, (0, 1)),
        ("forest", {"n_trees": 5, "max_depth": 2}, (0, 2)),  # no class 1
        ("boosting", {"n_rounds": 15}, (0, 1)),
        ("logistic", {"epochs": 50}, (0, 1)),
    ])
    def test_evaluate_equals_predict_and_scores(self, kind, params, classes):
        rng = np.random.default_rng(11)
        X = rng.random((50, 3))
        y = (X[:, 0] + 0.4 * rng.random(50) > 0.7).astype(int)
        model = ln.train(kind, X, np.where(y == 1, classes[1], classes[0]),
                         params, seed=4)
        probe = np.vstack([X, rng.random((20, 3))])
        truth = np.concatenate([y, rng.integers(0, 2, 20)])
        want = ln.binary_metrics(truth, model.predict(probe),
                                 model.scores(probe))
        assert ln.evaluate(model, probe, truth) == want

    def test_evaluate_forest_tie_goes_to_the_lower_class(self):
        rng = np.random.default_rng(3)
        X = rng.random((40, 2))
        y = rng.integers(0, 2, 40)
        model = ln.train("forest", X, y, {"n_trees": 2}, seed=5)
        scores = model.scores(X)
        tie = scores == 0.5
        assert tie.any()
        assert np.all(model.predict(X)[tie] == 0)
        assert ln.evaluate(model, X, y) == ln.binary_metrics(
            y, model.predict(X), scores)

    def test_evaluate_multilabel(self):
        X = np.random.default_rng(7).random((60, 2))
        tasks = ["hi" if v > 0.5 else "lo" for v in X[:, 0]]
        model = ln.train("one_vs_rest", X, tasks,
                         {"n_trees": 15, "max_depth": 4}, seed=0)
        m = ln.evaluate(model, X, tasks)
        assert m.f1_micro >= 0.9
        assert m.f1_macro is not None
        assert m.accuracy >= 0.9

    def test_multilabel_auc_is_the_macro_mean_of_label_aucs(self):
        rng = np.random.default_rng(3)
        X = rng.random((90, 3))
        tasks = [("a", "b", "c")[int(3 * v)] for v in X[:, 0]]
        model = ln.train("one_vs_rest", X[:45], tasks[:45],
                         {"n_trees": 5, "max_depth": 2}, seed=0)
        noisy = X[45:] + rng.normal(0, 0.2, (45, 3))
        m = ln.evaluate(model, noisy, tasks[45:])
        proba = model.scores(noisy)
        Y = ln.one_hot(tasks[45:], model.impl.labels_)
        want = np.mean([ln.roc_auc_score(Y[:, j], proba[:, j]) for j in range(3)])
        assert m.roc_auc == pytest.approx(want, abs=1e-12)
        assert 0.5 < m.roc_auc < 1.0

    def test_multilabel_auc_skips_labels_absent_from_the_rows(self):
        X = np.array([[0.1], [0.2], [0.8], [0.9]])
        tasks = ["lo", "lo", "hi", "hi"]
        model = ln.train("one_vs_rest", X, tasks,
                         {"n_trees": 5, "max_depth": 2}, seed=0)
        assert ln.evaluate(model, X[:2], tasks[:2]).roc_auc == 0.5
        assert ln.evaluate(model, X, tasks).roc_auc == 1.0

import math

import numpy as np
import pytest

from ftracekit import features as ft
from ftracekit import selection as sel
from ftracekit.errors import (KTooLarge, NegativeFeature, PValueClampWarning,
                              SingleClass)


def matrix(X, names=None):
    X = np.asarray(X, dtype=float)
    names = names or [f"c{i}" for i in range(X.shape[1])]
    return ft.FeatureMatrix(vocab=ft.FeatureVocabulary(names), X=X)


class TestChi2Survival:
    def test_x_zero_is_one(self):
        assert sel.chi2_survival(0.0, 1) == 1.0
        assert sel.chi2_survival(0.0, 5) == 1.0

    def test_df2_closed_form(self):
        # df=2 the survival function is exp(-x/2)
        for x in (0.5, 1.0, 2.0, 5.0, 20.0):
            assert sel.chi2_survival(x, 2) == pytest.approx(
                math.exp(-x / 2), abs=1e-12)

    def test_df1_matches_erfc(self):
        # df=1: Q(x) = erfc(sqrt(x/2)), an independent route to the same tail
        for i in range(1, 101):
            x = i / 10.0
            assert sel.chi2_survival(x, 1) == pytest.approx(
                math.erfc(math.sqrt(x / 2.0)), abs=1e-8)

    def test_df4_recurrence(self):
        # df=4: Q(x) = (1 + x/2) * exp(-x/2)
        for x in (0.3, 1.7, 4.0, 9.5):
            assert sel.chi2_survival(x, 4) == pytest.approx(
                (1 + x / 2) * math.exp(-x / 2), abs=1e-12)

    def test_monotone_in_x(self):
        vals = [sel.chi2_survival(x, 3) for x in np.linspace(0.01, 30, 50)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            sel.chi2_survival(-1.0, 1)
        with pytest.raises(ValueError):
            sel.chi2_survival(1.0, 0)


class TestChi2Scores:
    def test_hand_case(self):
        # feature mass [1,1,0,0], labels [1,1,0,0]: observed (0,2),
        # expected (1,1) -> chi2 = 1 + 1 = 2
        m = matrix([[1.0], [1.0], [0.0], [0.0]])
        labels = np.array([1, 1, 0, 0])
        (sf,) = sel.chi2_scores(m, labels)
        assert sf.score == pytest.approx(2.0, abs=1e-12)
        assert sf.p_value == pytest.approx(sel.chi2_survival(2.0, 1))

    def test_balanced_feature_scores_zero(self):
        m = matrix([[1.0], [1.0], [1.0], [1.0]])
        (sf,) = sel.chi2_scores(m, np.array([0, 0, 1, 1]))
        assert sf.score == 0.0
        assert sf.p_value == 1.0

    def test_zero_mass_column(self):
        m = matrix([[0.0, 1.0], [0.0, 0.0]])
        scores = sel.chi2_scores(m, np.array([0, 1]))
        assert scores[0].score == 0.0
        assert scores[0].p_value == 1.0

    def test_negative_feature_rejected(self):
        with pytest.raises(NegativeFeature):
            sel.chi2_scores(matrix([[-1.0], [1.0]]), np.array([0, 1]))

    def test_single_class_rejected(self):
        with pytest.raises(SingleClass):
            sel.chi2_scores(matrix([[1.0], [2.0]]), np.array([1, 1]))

    def test_three_classes_use_df2(self):
        m = matrix([[3.0], [0.0], [0.0]])
        (sf,) = sel.chi2_scores(m, np.array([0, 1, 2]))
        # observed (3,0,0), expected (1,1,1) -> chi2 = 4+1+1 = 6, df = 2
        assert sf.score == pytest.approx(6.0)
        assert sf.p_value == pytest.approx(math.exp(-3.0), abs=1e-12)

    def test_row_duplication_preserves_ranking(self):
        rng = np.random.default_rng(3)
        X = rng.random((30, 6))
        labels = np.array([0, 1] * 15)
        base = sel.chi2_scores(matrix(X), labels)
        doubled = sel.chi2_scores(matrix(np.vstack([X, X])),
                                  np.concatenate([labels, labels]))
        rank = lambda scores: [s.name for s in
                               sorted(scores, key=lambda s: (-s.score, s.name))]
        assert rank(base) == rank(doubled)
        for a, b in zip(base, doubled):
            assert b.score == pytest.approx(2 * a.score, rel=1e-9)

    def test_huge_statistic_clamps_p(self):
        m = matrix([[1e6], [0.0]])
        with pytest.warns(PValueClampWarning):
            (sf,) = sel.chi2_scores(m, np.array([1, 0]))
        assert sf.p_value == math.ulp(0.0)


class TestSelectTopK:
    def _scores(self):
        return [sel.ScoredFeature("b", 2.0, 0.1),
                sel.ScoredFeature("a", 2.0, 0.1),
                sel.ScoredFeature("c", 5.0, 0.01),
                sel.ScoredFeature("d", 1.0, 0.5)]

    def test_order_and_tie_break(self):
        assert sel.select_top_k(self._scores(), 3) == ["c", "a", "b"]

    def test_nested(self):
        scores = self._scores()
        assert sel.select_top_k(scores, 2) == sel.select_top_k(scores, 4)[:2]

    def test_k_too_large(self):
        with pytest.raises(KTooLarge):
            sel.select_top_k(self._scores(), 5)

    def test_negative_k_is_refused(self):
        # before, k=-3 kept all but the last three features
        with pytest.raises(ValueError, match="k=-3"):
            sel.select_top_k(self._scores(), -3)


class TestForestImportance:
    def test_sums_to_one_and_finds_signal(self):
        rng = np.random.default_rng(0)
        X = rng.random((120, 5))
        labels = (X[:, 3] > 0.5).astype(int)
        scores = sel.forest_importance(matrix(X), labels,
                                       {"n_trees": 20, "max_depth": 4}, seed=1)
        total = sum(s.score for s in scores)
        assert total == pytest.approx(1.0, abs=1e-9)
        best = max(scores, key=lambda s: s.score)
        assert best.name == "c3"

    def test_string_labels_accepted(self):
        rng = np.random.default_rng(1)
        X = rng.random((60, 3))
        tasks = np.where(X[:, 0] > 0.5, "left", "right")
        scores = sel.forest_importance(matrix(X), tasks,
                                       {"n_trees": 10, "max_depth": 3}, seed=2)
        assert max(scores, key=lambda s: s.score).name == "c0"
        codes = np.unique(tasks, return_inverse=True)[1]
        on_codes = sel.forest_importance(matrix(X), codes,
                                         {"n_trees": 10, "max_depth": 3}, seed=2)
        assert scores == on_codes

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(5)
        X = rng.random((40, 4))
        y = (X[:, 1] > 0.4).astype(int)
        a = sel.forest_importance(matrix(X), y, {"n_trees": 8}, seed=9)
        b = sel.forest_importance(matrix(X), y, {"n_trees": 8}, seed=9)
        assert [(s.name, s.score) for s in a] == [(s.name, s.score) for s in b]


class TestScoresCsv:
    def test_written_sorted(self, tmp_path):
        path = tmp_path / "scores.csv"
        sel.write_scores_csv([sel.ScoredFeature("a", 1.0, 0.5),
                              sel.ScoredFeature("b", 3.0, 0.1)], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "name,score,p_value"
        assert lines[1].startswith("b,") and lines[2].startswith("a,")

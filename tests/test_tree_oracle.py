"""Presorted split search against the per-node argsort search it replaced.

The classes below, down to the end of the "decision trees" section, are
the earlier recursive implementation kept as a reference: every node
re-argsorts every candidate column and scans one feature at a time.  Its
one change is the threshold rule (`threshold`): where the midpoint of two
neighbouring values rounds onto the upper one or overflows, the cut is at
the lower value, so that every split sends rows both ways.
The flat-array trees in `ftracekit.learners` must fit exactly the same
trees (same features, thresholds, leaf values, importances and rng draws)
on data with heavy ties, constant columns, duplicate and bootstrap rows and
nodes of one or two rows.  The reference trees are nested; `flat_layout`
lays them out as model format 2 writes a tree, so their dicts compare
exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ftracekit import learners as ln
from ftracekit.errors import EmptyData

# decision trees

@dataclass
class TreeNode:
    feature: int = -1
    threshold: float = 0.0
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None
    value: Optional[np.ndarray] = None  # leaf payload

    @property
    def is_leaf(self) -> bool:
        return self.value is not None


def flat_layout(root: TreeNode) -> dict:
    """The tree under `root` as model format 2's five flat lists: node ids
    in pre-order, left subtree first; leaves with feature and child ids -1
    and threshold 0.0, internal nodes with an all-zero value row."""
    out = {k: [] for k in ("feature", "threshold", "left", "right", "value")}

    def visit(node) -> int:
        i = len(out["feature"])
        out["feature"].append(-1 if node.is_leaf else node.feature)
        out["threshold"].append(0.0 if node.is_leaf else node.threshold)
        out["left"].append(-1)
        out["right"].append(-1)
        out["value"].append(np.asarray(node.value).tolist() if node.is_leaf
                            else None)
        if not node.is_leaf:
            out["left"][i] = visit(node.left)
            out["right"][i] = visit(node.right)
        return i

    visit(root)
    width = len(next(v for v in out["value"] if v is not None))
    out["value"] = [[0.0] * width if v is None else v for v in out["value"]]
    return out


def threshold(lo, hi) -> float:
    """The cut between neighbouring values lo < hi: their midpoint, or lo
    where the midpoint rounds onto hi or overflows."""
    mid = (float(lo) + float(hi)) / 2.0
    return mid if lo <= mid < hi else float(lo)


def _gini(counts: np.ndarray) -> float:
    n = counts.sum()
    if n == 0:
        return 0.0
    p = counts / n
    return float(1.0 - np.sum(p * p))


class DecisionTree:
    """CART classifier with exhaustive midpoint threshold search.

    Ties in impurity are broken by lowest feature index, then lowest
    threshold (guaranteed by ascending scan order and strict improvement).
    """

    def __init__(self, max_depth=None, min_samples_split=2,
                 max_features=None, rng=None):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.max_features = max_features
        self.rng = rng
        self.root: Optional[TreeNode] = None
        self.classes_: Optional[np.ndarray] = None
        self._imp_raw: Optional[np.ndarray] = None

    def fit(self, X, y, classes=None):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        if X.shape[0] == 0:
            raise EmptyData("cannot fit a tree on zero samples")
        self.classes_ = np.asarray(classes if classes is not None
                                   else np.unique(y))
        class_pos = {c: i for i, c in enumerate(self.classes_.tolist())}
        yi = np.array([class_pos[v] for v in y.tolist()], dtype=int)
        self._n_total = X.shape[0]
        self._imp_raw = np.zeros(X.shape[1])
        self.root = self._grow(X, yi, 0)
        return self

    def _feature_indices(self, d: int) -> np.ndarray:
        if self.max_features is None or self.max_features >= d:
            return np.arange(d)
        picked = self.rng.choice(d, size=self.max_features, replace=False)
        return np.sort(picked)

    def _grow(self, X, yi, depth) -> TreeNode:
        c = len(self.classes_)
        counts = np.bincount(yi, minlength=c).astype(float)
        n = len(yi)
        dist = counts / n
        if (counts.max() == n
                or (self.max_depth is not None and depth >= self.max_depth)
                or n < self.min_samples_split):
            return TreeNode(value=dist)
        split = self._best_split(X, yi, c)
        if split is None:
            return TreeNode(value=dist)
        feat, thr, decrease = split
        self._imp_raw[feat] += (n / self._n_total) * decrease
        mask = X[:, feat] <= thr
        return TreeNode(feature=int(feat), threshold=float(thr),
                        left=self._grow(X[mask], yi[mask], depth + 1),
                        right=self._grow(X[~mask], yi[~mask], depth + 1))

    def _best_split(self, X, yi, c):
        n, d = X.shape
        total = np.bincount(yi, minlength=c).astype(float)
        parent_imp = _gini(total)
        best = None  # (feat, thr, weighted_impurity)
        for j in self._feature_indices(d):
            x = X[:, j]
            order = np.argsort(x, kind="stable")
            xs = x[order]
            valid = xs[:-1] < xs[1:]
            if not valid.any():
                continue
            onehot = np.zeros((n, c))
            onehot[np.arange(n), yi[order]] = 1.0
            cum = np.cumsum(onehot, axis=0)
            left = cum[:-1]
            nl = np.arange(1, n, dtype=float)
            nr = n - nl
            right = total - left
            with np.errstate(invalid="ignore", divide="ignore"):
                gl = 1.0 - np.sum((left / nl[:, None]) ** 2, axis=1)
                gr = 1.0 - np.sum((right / nr[:, None]) ** 2, axis=1)
            w = (nl * gl + nr * gr) / n
            w[~valid] = np.inf
            i = int(np.argmin(w))
            if not np.isfinite(w[i]):
                continue
            if best is None or w[i] < best[2]:
                best = (j, threshold(xs[i], xs[i + 1]), float(w[i]))
        if best is None:
            return None
        # zero-gain splits are kept: XOR-style targets need them
        feat, thr, w = best
        return feat, thr, max(parent_imp - w, 0.0)

    def predict_proba(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        out = np.empty((X.shape[0], len(self.classes_)))
        for i, row in enumerate(X):
            node = self.root
            while not node.is_leaf:
                node = node.left if row[node.feature] <= node.threshold else node.right
            out[i] = node.value
        return out

    def predict(self, X) -> np.ndarray:
        return self.classes_[np.argmax(self.predict_proba(X), axis=1)]

    def to_dict(self) -> dict:
        return {"classes": self.classes_.tolist(), **flat_layout(self.root)}


class RegressionTree:
    """Variance-reduction tree for boosting residuals; Newton leaf values
    sum(g)/sum(h)."""

    def __init__(self, max_depth=3, min_samples_split=2):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.root: Optional[TreeNode] = None

    def fit(self, X, g, h):
        X = np.asarray(X, dtype=float)
        g = np.asarray(g, dtype=float)
        h = np.asarray(h, dtype=float)
        self.root = self._grow(X, g, h, 0)
        return self

    def _leaf(self, g, h) -> TreeNode:
        return TreeNode(value=np.array([g.sum() / (h.sum() + 1e-12)]))

    def _grow(self, X, g, h, depth) -> TreeNode:
        n = len(g)
        if depth >= self.max_depth or n < self.min_samples_split:
            return self._leaf(g, h)
        split = self._best_split(X, g)
        if split is None:
            return self._leaf(g, h)
        feat, thr = split
        mask = X[:, feat] <= thr
        return TreeNode(feature=int(feat), threshold=float(thr),
                        left=self._grow(X[mask], g[mask], h[mask], depth + 1),
                        right=self._grow(X[~mask], g[~mask], h[~mask], depth + 1))

    def _best_split(self, X, g):
        n, d = X.shape
        total_sum = g.sum()
        total_sq = np.sum(g * g)
        best = None
        for j in range(d):
            x = X[:, j]
            order = np.argsort(x, kind="stable")
            xs = x[order]
            gs = g[order]
            valid = xs[:-1] < xs[1:]
            if not valid.any():
                continue
            cum = np.cumsum(gs)[:-1]
            nl = np.arange(1, n, dtype=float)
            nr = n - nl
            sse = total_sq - cum ** 2 / nl - (total_sum - cum) ** 2 / nr
            sse[~valid] = np.inf
            i = int(np.argmin(sse))
            if not np.isfinite(sse[i]):
                continue
            if best is None or sse[i] < best[2]:
                best = (j, threshold(xs[i], xs[i + 1]), float(sse[i]))
        if best is None:
            return None
        base = total_sq - total_sum ** 2 / n
        if base - best[2] <= 1e-12:
            return None
        return best[0], best[1]

    def predict(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        out = np.empty(X.shape[0])
        for i, row in enumerate(X):
            node = self.root
            while not node.is_leaf:
                node = node.left if row[node.feature] <= node.threshold else node.right
            out[i] = node.value[0]
        return out

    def to_dict(self) -> dict:
        return flat_layout(self.root)


# ---------------------------------------------------------------------------
# reference ensembles: the earlier fit loops, driving the reference trees

def oracle_forest(X, y, n_trees, max_depth, min_samples_split, max_features,
                  bootstrap, seed):
    classes = np.unique(y)
    d = X.shape[1]
    mf = (None if max_features in (None, "all")
          else int(math.ceil(math.sqrt(d))) if max_features == "sqrt"
          else int(max_features))
    n = X.shape[0]
    trees = []
    for t in range(n_trees):
        rng = np.random.default_rng(ln._sub_seed(seed, t))
        idx = rng.integers(0, n, n) if bootstrap else np.arange(n)
        tree = DecisionTree(max_depth=max_depth,
                            min_samples_split=min_samples_split,
                            max_features=mf, rng=rng)
        tree.fit(X[idx], y[idx], classes=classes)
        trees.append(tree)
    return classes, trees


def oracle_boosting(X, y, n_rounds, learning_rate, max_depth,
                    min_samples_split):
    """(prior, trees, scales, train_losses) of the earlier boosting loop."""
    pbar = float(np.mean(y))
    prior = math.log(pbar / (1.0 - pbar))
    F = np.full(X.shape[0], prior)
    losses = [ln._log_loss(y, ln._sigmoid(F))]
    trees, scales = [], []
    for _ in range(n_rounds):
        p = ln._sigmoid(F)
        g = y - p
        h = p * (1.0 - p)
        tree = RegressionTree(max_depth=max_depth,
                              min_samples_split=min_samples_split)
        tree.fit(X, g, h)
        scale = learning_rate
        upd = scale * tree.predict(X)
        prev = losses[-1]
        for _ in range(40):
            if ln._log_loss(y, ln._sigmoid(F + upd)) <= prev + 1e-12:
                break
            scale *= 0.5
            upd *= 0.5
        else:
            scale = 0.0
            upd = np.zeros_like(upd)
        F = F + upd
        trees.append(tree)
        scales.append(scale)
        losses.append(ln._log_loss(y, ln._sigmoid(F)))
    return prior, trees, scales, losses


# ---------------------------------------------------------------------------
# data

@st.composite
def tied_matrix(draw, min_rows=1, max_rows=24, max_cols=5):
    """Values from a pool of at most four floats (heavy ties), some columns
    forced constant, and some rows repeated."""
    n = draw(st.integers(min_rows, max_rows))
    d = draw(st.integers(1, max_cols))
    pool = np.array(draw(st.lists(
        st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False),
        min_size=1, max_size=4, unique=True)))
    cells = draw(st.lists(st.integers(0, len(pool) - 1),
                          min_size=n * d, max_size=n * d))
    X = pool[np.array(cells)].reshape(n, d)
    constant = np.array(draw(st.lists(st.booleans(), min_size=d, max_size=d)))
    X[:, constant] = pool[0]
    repeats = draw(st.lists(st.integers(0, n - 1), max_size=n))
    return np.vstack([X, X[repeats]]) if repeats else X


def labels(draw, n, n_classes):
    return np.array(draw(st.lists(st.integers(0, n_classes - 1),
                                  min_size=n, max_size=n)))


def residuals(draw, n, lo, hi):
    return np.array(draw(st.lists(st.floats(lo, hi, allow_nan=False),
                                  min_size=n, max_size=n)))


def assert_same(a: dict, b: dict):
    # JSON text: exact float reprs
    assert json.dumps(a) == json.dumps(b)


PROPS = settings(max_examples=150, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


# ---------------------------------------------------------------------------
# properties

# two neighbouring values whose midpoint rounds onto the upper one, and
# two whose sum overflows
CLOSE_PAIRS = [np.array([[1 + 2**-52], [1 + 2 * 2**-52]]),
               np.array([[1e308], [1.7e308]])]


@st.composite
def decision_tree_case(draw):
    X = draw(tied_matrix())
    n, d = X.shape
    if draw(st.booleans()):  # bootstrap rows
        X = X[np.array(draw(st.lists(st.integers(0, n - 1),
                                     min_size=n, max_size=n)))]
    y = labels(draw, n, draw(st.sampled_from([2, 3])))
    params = dict(
        max_depth=draw(st.none() | st.integers(0, 6)),
        min_samples_split=draw(st.integers(1, 5)),
        max_features=draw(st.none() | st.integers(0, d)))
    return X, y, params, draw(st.integers(0, 2**32 - 1))


@st.composite
def regression_tree_case(draw):
    X = draw(tied_matrix())
    n = X.shape[0]
    g = residuals(draw, n, -1.0, 1.0)
    h = residuals(draw, n, 1e-3, 0.25)
    params = dict(max_depth=draw(st.integers(0, 5)),
                  min_samples_split=draw(st.integers(1, 5)))
    return X, g, h, params


UNBOUNDED = dict(max_depth=None, min_samples_split=2, max_features=None)


@PROPS
@given(decision_tree_case())
@example((CLOSE_PAIRS[0], np.array([0, 1]), UNBOUNDED, 0))
@example((CLOSE_PAIRS[1], np.array([0, 1]), UNBOUNDED, 0))
def test_decision_tree_matches_reference(case):
    X, y, params, seed = case
    rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    new = ln.DecisionTree(rng=rng_new, **params).fit(X, y)
    ref = DecisionTree(rng=rng_ref, **params).fit(X, y)
    probe = np.vstack([X, X + 0.5, X - 0.5])
    assert np.array_equal(new.predict_proba(probe), ref.predict_proba(probe))
    assert_same(new.to_dict(), ref.to_dict())
    assert np.array_equal(new._imp_raw, ref._imp_raw)
    assert rng_new.random() == rng_ref.random()


@PROPS
@given(regression_tree_case())
@example((CLOSE_PAIRS[0], np.array([-0.5, 0.5]), np.full(2, 0.25),
          dict(max_depth=3, min_samples_split=2)))
@example((CLOSE_PAIRS[1], np.array([-0.5, 0.5]), np.full(2, 0.25),
          dict(max_depth=3, min_samples_split=2)))
def test_regression_tree_matches_reference(case):
    X, g, h, params = case
    new = ln.RegressionTree(**params).fit(X, g, h)
    ref = RegressionTree(**params).fit(X, g, h)
    assert_same(new.to_dict(), ref.to_dict())
    assert np.array_equal(new.value[new.fit_leaves_, 0], ref.predict(X))
    probe = np.vstack([X, X + 0.5, X - 0.5])
    assert np.array_equal(new.predict(probe), ref.predict(probe))


@PROPS
@given(st.data())
def test_regression_tree_on_few_residual_values_matches_reference(data):
    # Residuals from a pool of 2-3 values leave nodes below the root whose
    # residuals are all equal: the fit makes them leaves without a search,
    # and partitions a child's presort only when it searches.  With n <= 32
    # and |g| <= 1 rounding cannot reach the 1e-12 gain floor, so the
    # reference, which searches every node, must give the same trees.
    X = data.draw(tied_matrix(min_rows=8, max_rows=16))
    n = X.shape[0]
    pool = np.array(data.draw(st.lists(st.floats(-1.0, 1.0, allow_nan=False),
                                       min_size=2, max_size=3, unique=True)))
    g = pool[np.array(data.draw(st.lists(st.integers(0, len(pool) - 1),
                                         min_size=n, max_size=n)))]
    h = residuals(data.draw, n, 1e-3, 0.25)
    params = dict(max_depth=data.draw(st.integers(2, 5)),
                  min_samples_split=data.draw(st.integers(1, 3)))
    new = ln.RegressionTree(**params).fit(X, g, h)
    ref = RegressionTree(**params).fit(X, g, h)
    assert_same(new.to_dict(), ref.to_dict())
    assert np.array_equal(new.fit_leaves_, new._leaves(X)[0])
    assert np.array_equal(new.value[new.fit_leaves_, 0], ref.predict(X))
    probe = np.vstack([X, X + 0.5, X - 0.5])
    assert np.array_equal(new.predict(probe), ref.predict(probe))


def test_equal_values_keep_row_order():
    # Rows 0-2 tie on feature 0 and reach the same cut on feature 1 in the
    # reverse order.  Only the float prefix sum 0.49 + 0.81 + 0.85 taken in
    # row order makes feature 1's SSE the lower one, so a presort that
    # reorders equal values picks feature 0 instead.
    X = np.array([[0.0, 3.0], [0.0, 2.0], [0.0, 1.0], [1.0, 4.0]])
    g = np.array([0.49, 0.81, 0.85, -3.0])
    h = np.ones(4)
    ref = RegressionTree(max_depth=1).fit(X, g, h)
    assert ref.root.feature == 1
    assert_same(ln.RegressionTree(max_depth=1).fit(X, g, h).to_dict(),
                ref.to_dict())


@settings(PROPS, max_examples=60)
@given(st.data())
def test_gradient_boosting_matches_reference(data):
    X = data.draw(tied_matrix(min_rows=2, max_rows=16))
    n = X.shape[0]
    y = labels(data.draw, n, 2).astype(float)
    if y.min() == y.max():
        y[0] = 1.0 - y[0]
    params = dict(n_rounds=data.draw(st.integers(1, 6)),
                  learning_rate=data.draw(st.sampled_from([0.1, 1.0, 8.0])),
                  max_depth=data.draw(st.integers(1, 3)),
                  min_samples_split=data.draw(st.integers(1, 4)))
    new = ln.GradientBoosting(**params).fit(X, y)
    prior, trees, scales, losses = oracle_boosting(X, y, **params)
    assert_same(new.to_dict(),
                {**params, "prior": prior, "constant": False, "scales": scales,
                 "trees": [t.to_dict() for t in trees]})
    assert new.train_losses == losses
    # the stacked walk scores like the reference trees added one by one,
    # also with one round's step halved to 0 (it then adds 0 * value)
    probe = np.vstack([X, X + 0.5, X - 0.5])
    zeroed = list(scales)
    zeroed[data.draw(st.integers(0, len(scales) - 1))] = 0.0
    with_zero = ln.GradientBoosting.from_dict({**new.to_dict(), "scales": zeroed})
    for model, model_scales in ((new, scales), (with_zero, zeroed)):
        F = np.full(len(probe), prior)
        for tree, scale in zip(trees, model_scales):
            F += scale * tree.predict(probe)
        assert np.array_equal(model.decision_scores(probe), F)


@settings(PROPS, max_examples=60)
@given(st.data())
def test_random_forest_matches_reference(data):
    X = data.draw(tied_matrix(max_rows=16))
    n = X.shape[0]
    y = labels(data.draw, n, data.draw(st.sampled_from([2, 3])))
    params = dict(n_trees=data.draw(st.integers(1, 5)),
                  max_depth=data.draw(st.none() | st.integers(0, 4)),
                  min_samples_split=data.draw(st.integers(1, 4)),
                  max_features=data.draw(st.sampled_from(["sqrt", None, 1])),
                  bootstrap=data.draw(st.booleans()),
                  seed=data.draw(st.integers(0, 2**16)))
    new = ln.RandomForest(**params).fit(X, y)
    classes, trees = oracle_forest(X, y, **params)
    probe = np.vstack([X, X + 0.5, X - 0.5])
    proba = np.mean([t.predict_proba(probe) for t in trees], axis=0)
    assert np.array_equal(new.predict_proba(probe), proba)
    assert np.array_equal(new.predict(probe),
                          classes[np.argmax(proba, axis=1)])
    assert_same(new.to_dict(),
                {"n_trees": params["n_trees"], "classes": classes.tolist(),
                 "trees": [t.to_dict() for t in trees]})
    for a, b in zip(new.trees, trees):
        assert np.array_equal(a._imp_raw, b._imp_raw)


@settings(PROPS, max_examples=80)
@given(st.data())
def test_lockstep_forest_and_tree_match_reference(data):
    # The trees of a forest grow side by side and the nodes that search
    # in one step are scored together in padded batches.  Depth limits and
    # bootstrap draws give the trees different shapes, so batches mix node
    # sizes; NaN cells must sort before the NaN pad rows and never bound a
    # cut; up to six classes widen the one-hot counts.
    X = data.draw(tied_matrix(max_rows=32, max_cols=6))
    n, d = X.shape
    for i, j in data.draw(st.lists(st.tuples(st.integers(0, n - 1),
                                             st.integers(0, d - 1)),
                                   max_size=n)):
        X[i, j] = np.nan
    y = labels(data.draw, n, data.draw(st.integers(2, 6)))
    params = dict(n_trees=data.draw(st.integers(1, 6)),
                  max_depth=data.draw(st.none() | st.integers(0, 6)),
                  min_samples_split=data.draw(st.integers(1, 4)),
                  max_features=data.draw(st.sampled_from(
                      [1, 2, "sqrt", None, d + 2])),
                  bootstrap=data.draw(st.booleans()),
                  seed=data.draw(st.integers(0, 2**16)))
    probe = np.vstack([X, X + 0.5, X - 0.5])
    new = ln.RandomForest(**params).fit(X, y)
    classes, trees = oracle_forest(X, y, **params)
    assert_same(new.to_dict(),
                {"n_trees": params["n_trees"], "classes": classes.tolist(),
                 "trees": [t.to_dict() for t in trees]})
    for a, b in zip(new.trees, trees):
        assert np.array_equal(a._imp_raw, b._imp_raw)
        assert np.array_equal(a.predict_proba(probe), b.predict_proba(probe))
    assert np.array_equal(
        new.predict_proba(probe),
        np.mean([t.predict_proba(probe) for t in trees], axis=0))
    # a single tree is a forest of one
    mf = trees[0].max_features
    tree_params = dict(max_depth=params["max_depth"],
                       min_samples_split=params["min_samples_split"],
                       max_features=mf)
    rng_new = np.random.default_rng(params["seed"])
    rng_ref = np.random.default_rng(params["seed"])
    one = ln.DecisionTree(rng=rng_new, **tree_params).fit(X, y)
    ref = DecisionTree(rng=rng_ref, **tree_params).fit(X, y)
    assert_same(one.to_dict(), ref.to_dict())
    assert np.array_equal(one._imp_raw, ref._imp_raw)
    assert np.array_equal(one.predict_proba(probe), ref.predict_proba(probe))
    assert rng_new.random() == rng_ref.random()

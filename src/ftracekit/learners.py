"""In-repo classifiers and evaluation metrics.

Decision tree (CART/Gini), random forest, gradient boosting with logistic
loss, L2 logistic regression, and a one-vs-rest multi-label wrapper.
Everything is a deterministic function of (data, params, seed).
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import EmptyData, SingleClass, WidthMismatch
from .grower import (_check_int, _check_real, _grow_classifiers,
                     _grow_regressor, _is_int, _regression_root)

MODEL_FORMAT_VERSION = 2


def _sub_seed(seed: int, *tags: int) -> int:
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0])


def _classes(y: np.ndarray) -> np.ndarray:
    """y's distinct labels in ascending order, as np.unique gives them; a
    sorted set keeps out numpy.ma, which np.unique imports."""
    return np.array(sorted(set(y.tolist())), dtype=y.dtype)


# ---------------------------------------------------------------------------
# decision trees

class TreeNode:
    """Read-only view of one node of a fitted tree's flat arrays."""

    __slots__ = ("_tree", "_i")

    def __init__(self, tree: "_FlatTree", i: int):
        self._tree = tree
        self._i = i

    @property
    def is_leaf(self) -> bool:
        return bool(self._tree.left[self._i] < 0)

    @property
    def value(self) -> Optional[np.ndarray]:
        return self._tree.value[self._i] if self.is_leaf else None

    @property
    def left(self) -> Optional["TreeNode"]:
        return None if self.is_leaf else TreeNode(self._tree,
                                                  self._tree.left[self._i])

    @property
    def right(self) -> Optional["TreeNode"]:
        return None if self.is_leaf else TreeNode(self._tree,
                                                  self._tree.right[self._i])


class _FlatTree:
    """A fitted binary tree held as flat arrays indexed by node id.

    Node 0 is the root and ids follow depth-first pre-order, left subtree
    first, so a child's id always exceeds its parent's.  Leaves have
    `left == right == -1`; a row goes left when x[feature] <= threshold.
    `value` holds each leaf's payload (zeros at internal nodes).

    `stacked` lays several trees end to end in the same arrays, with
    `roots` holding each tree's root id, so `_leaves` walks a whole
    ensemble at once.
    """

    feature = threshold = left = right = value = None
    roots = np.zeros(1, dtype=np.intp)

    @classmethod
    def stacked(cls, trees) -> Optional["_FlatTree"]:
        """The trees' nodes in one set of arrays, child ids shifted by each
        tree's offset; None for no trees."""
        if not trees:
            return None
        out = cls()
        sizes = [len(t.feature) for t in trees]
        out.roots = np.cumsum([0] + sizes[:-1]).astype(np.intp)
        out.feature, out.threshold, out.left, out.right, out.value = (
            np.concatenate([getattr(t, k) for t in trees]) for k in cls._ARRAYS)
        shift = np.repeat(out.roots, sizes)
        out.left = np.where(out.left < 0, -1, out.left + shift)
        out.right = np.where(out.right < 0, -1, out.right + shift)
        return out

    @property
    def root(self) -> Optional[TreeNode]:
        return None if self.feature is None else TreeNode(self, 0)

    def _set_arrays(self, feature, threshold, left, right, value) -> None:
        """Take the node sequences of a pre-order layout, `value` with a
        row of zeros at each internal node."""
        self.feature = np.array(feature, dtype=np.intp)
        self.threshold = np.array(threshold, dtype=float)
        self.left = np.array(left, dtype=np.intp)
        self.right = np.array(right, dtype=np.intp)
        self.value = np.asarray(value, dtype=float)

    def _leaves(self, X) -> np.ndarray:
        """(trees, rows): the leaf id each row of X reaches in each tree,
        every tree and row moved down one level per vectorised step."""
        X = np.asarray(X, dtype=float)
        n = X.shape[0]
        node = np.repeat(self.roots, n)
        row = np.tile(np.arange(n), len(self.roots))
        live = np.flatnonzero(self.left[node] >= 0)
        while live.size:
            at = node[live]
            goes_left = X[row[live], self.feature[at]] <= self.threshold[at]
            node[live] = np.where(goes_left, self.left[at], self.right[at])
            live = live[self.left[node[live]] >= 0]
        return node.reshape(len(self.roots), n)

    _ARRAYS = ("feature", "threshold", "left", "right", "value")

    def to_dict(self) -> dict:
        """Model format 2: the five node arrays as lists."""
        return {k: getattr(self, k).tolist() for k in self._ARRAYS}

    @classmethod
    def from_dict(cls, d: dict, width: int) -> "_FlatTree":
        """Read `to_dict` output.  Raises ValueError unless the lists
        have one nonzero length, `value` rows are `width` wide, leaves have
        both child ids -1 and internal nodes have a feature id >= 0 and
        child ids above their own and below the node count, so every walk
        ends at a leaf."""
        t = cls()
        t.feature, t.left, t.right = (
            np.asarray(d[k], dtype=np.intp) for k in ("feature", "left", "right"))
        t.threshold, t.value = (
            np.asarray(d[k], dtype=float) for k in ("threshold", "value"))
        n = len(t.feature)
        inner = t.left != -1
        ids = np.flatnonzero(inner)
        if (n == 0 or t.value.shape != (n, width)
                or any(getattr(t, k).shape != (n,) for k in cls._ARRAYS[:4])
                or np.any(t.right[~inner] != -1)
                or np.any(t.feature[inner] < 0)
                or any(np.any((c[inner] <= ids) | (c[inner] >= n))
                       for c in (t.left, t.right))):
            raise ValueError(f"not a tree with value rows {width} wide")
        return t


class _ClassProbaOutputs:
    """`outputs` and `predict` over `predict_proba` and `classes_`."""

    def outputs(self, X) -> tuple[np.ndarray, np.ndarray]:
        """(predictions, P(class 1)) from one model pass: the most probable
        class, ties to the lowest; zero scores when 1 is not a class."""
        proba = self.predict_proba(X)
        classes = self.classes_.tolist()
        scores = (proba[:, classes.index(1)] if 1 in classes
                  else np.zeros(len(proba)))
        return self.classes_[np.argmax(proba, axis=1)], scores

    def predict(self, X) -> np.ndarray:
        return self.outputs(X)[0]


class _Proba1Outputs:
    """`outputs` and `predict` over `predict_proba1`, P(class 1)."""

    def outputs(self, X) -> tuple[np.ndarray, np.ndarray]:
        """(p >= 0.5 as 0/1, p) for p = P(class 1) from one model pass."""
        p = self.predict_proba1(X)
        return (p >= 0.5).astype(int), p

    def predict(self, X) -> np.ndarray:
        return self.outputs(X)[0]


class DecisionTree(_ClassProbaOutputs, _FlatTree):
    """CART classifier with exact midpoint threshold search.

    A single tree is a forest of one: `fit` grows it with
    `grower._grow_classifiers`, as `RandomForest.fit` grows all its
    trees.  A node's candidate columns are all of them, or `max_features`
    drawn from `rng`; every cut of every candidate is scored at once from
    prefix counts of one-hot classes.  Ties in impurity go to the lowest
    feature index, then the lowest threshold.  Nodes are laid out
    depth-first, left child first, from an explicit stack, so depth is
    bounded by the data, not by Python's recursion limit.  `fit` raises
    ValueError unless max_depth is None or an int >= 0 and
    min_samples_split an int >= 1.
    """

    _HYPERPARAMETERS = ("max_depth", "min_samples_split")

    def __init__(self, max_depth=None, min_samples_split=2,
                 max_features=None, rng=None):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.max_features = max_features
        self.rng = rng
        self.classes_: Optional[np.ndarray] = None
        self._imp_raw: Optional[np.ndarray] = None

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        if X.shape[0] == 0:
            raise EmptyData("cannot fit a tree on zero samples")
        self.classes_ = _classes(y)
        _grow_classifiers([self], X, y, [np.arange(X.shape[0])])
        return self

    def _feature_indices(self, d: int) -> np.ndarray:
        if self.max_features is None or self.max_features >= d:
            return np.arange(d)
        picked = self.rng.choice(d, size=self.max_features, replace=False)
        return np.sort(picked)

    def predict_proba(self, X) -> np.ndarray:
        return self.value[self._leaves(X)[0]]

    def to_dict(self) -> dict:
        return {"classes": self.classes_.tolist(), **super().to_dict()}

    @classmethod
    def from_dict(cls, d: dict) -> "DecisionTree":
        t = super().from_dict(d, len(d["classes"]))
        t.classes_ = np.asarray(d["classes"])
        return t


class RegressionTree(_FlatTree):
    """Variance-reduction tree for boosting residuals; Newton leaf values
    sum(g)/sum(h), grown by `grower._grow_regressor`.

    A node whose residuals are all equal is a leaf without a search: every
    cut of it gains 0, and searching it anyway could only split on
    rounding noise.  Split search is presorted: every node sees its rows
    in the order a stable argsort of its own subset would give, and that
    order matters, as the SSE of each cut comes from a float prefix sum
    of g.  Ties go to the lowest feature, then the lowest threshold.
    After `fit`, `fit_leaves_` holds the leaf id of each training row.
    `fit` raises ValueError unless max_depth is an int >= 0 and
    min_samples_split an int >= 1.
    """

    def __init__(self, max_depth=3, min_samples_split=2):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.fit_leaves_: Optional[np.ndarray] = None

    def fit(self, X, g, h, root=None):
        """`root` may pass in `grower._regression_root(X)` when the caller
        fits many trees on the same X."""
        _check_int("max_depth", self.max_depth, 0)
        _check_int("min_samples_split", self.min_samples_split, 1)
        if root is None:
            root = _regression_root(np.asarray(X, dtype=float))
        _grow_regressor(self, np.asarray(g, dtype=float),
                        np.asarray(h, dtype=float), root)
        return self

    def predict(self, X) -> np.ndarray:
        return self.value[self._leaves(X)[0], 0]


# ---------------------------------------------------------------------------
# ensembles and linear model

class RandomForest(_ClassProbaOutputs):
    """Bagged CART classifiers with random candidate features per node.

    Tree t draws its bootstrap rows and then its candidate features from
    its own rng, seeded from (seed, t), so `grower._grow_classifiers` can
    grow all trees side by side with one batched search per step and
    still fit each tree as if it grew alone.  `max_features` is an int >= 1, "sqrt"
    (ceil(sqrt(d))), or "all"/None for every feature; `fit` rejects other
    values, n_trees < 1 and a `bootstrap` that is not a bool with a
    ValueError naming the parameter.
    """

    _HYPERPARAMETERS = ("n_trees", "max_depth", "min_samples_split",
                        "max_features", "bootstrap")

    def __init__(self, n_trees=100, max_depth=None, min_samples_split=2,
                 max_features="sqrt", bootstrap=True, seed=0):
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.seed = seed
        self.trees: list[DecisionTree] = []
        self.classes_: Optional[np.ndarray] = None
        self._stack: Optional[_FlatTree] = None

    def _resolve_max_features(self, d: int) -> Optional[int]:
        if self.max_features in (None, "all"):
            return None
        if self.max_features == "sqrt":
            return int(math.ceil(math.sqrt(d)))
        return self.max_features

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        if X.shape[0] == 0:
            raise EmptyData("cannot fit a forest on zero samples")
        if not _is_int(self.n_trees, 1):
            raise ValueError(f"a forest needs at least one tree, got "
                             f"n_trees={self.n_trees!r}")
        _check_int("max_features", self.max_features, 1, None, "sqrt", "all")
        if not isinstance(self.bootstrap, (bool, np.bool_)):
            raise ValueError(f"bootstrap must be a bool, got {self.bootstrap!r}")
        self.classes_ = _classes(y)
        mf = self._resolve_max_features(X.shape[1])
        n = X.shape[0]
        self.trees, rows = [], []
        for t in range(self.n_trees):
            rng = np.random.default_rng(_sub_seed(self.seed, t))
            rows.append(rng.integers(0, n, n) if self.bootstrap
                        else np.arange(n))
            tree = DecisionTree(max_depth=self.max_depth,
                                min_samples_split=self.min_samples_split,
                                max_features=mf, rng=rng)
            tree.classes_ = self.classes_
            self.trees.append(tree)
        _grow_classifiers(self.trees, X, y, rows)
        for tree in self.trees:
            tree.rng = None  # drawn from only while growing
        self._stack = _FlatTree.stacked(self.trees)
        return self

    def predict_proba(self, X) -> np.ndarray:
        """Mean over the (trees, rows, classes) leaf probabilities."""
        return np.mean(self._stack.value[self._stack._leaves(X)], axis=0)

    def feature_importances(self) -> np.ndarray:
        raw = np.mean([t._imp_raw for t in self.trees], axis=0)
        total = raw.sum()
        return raw / total if total > 0 else raw

    def to_dict(self) -> dict:
        return {"n_trees": self.n_trees, "classes": self.classes_.tolist(),
                "trees": [t.to_dict() for t in self.trees]}

    @classmethod
    def from_dict(cls, d: dict) -> "RandomForest":
        f = cls(n_trees=d["n_trees"])
        f.classes_ = np.asarray(d["classes"])
        f.trees = [DecisionTree.from_dict(t) for t in d["trees"]]
        if not f.trees or any(len(t.classes_) != len(f.classes_)
                              for t in f.trees):
            raise ValueError(f"a forest needs trees {len(f.classes_)} classes wide")
        f._stack = _FlatTree.stacked(f.trees)
        return f


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))


def _log_loss(y, p):
    p = np.clip(p, 1e-12, 1 - 1e-12)
    return float(-np.mean(y * np.log(p) + (1 - y) * np.log(1 - p)))


class GradientBoosting(_Proba1Outputs):
    """Gradient boosting with logistic loss.

    Each round fits a regression tree to the residuals y - p with Newton
    leaf values; the contribution is halved until training log-loss does
    not increase, so the recorded loss sequence is non-increasing.  Trees
    whose step was halved to 0 take no part in prediction.  `fit` raises
    ValueError unless n_rounds is an int >= 0, learning_rate a finite
    number > 0, max_depth an int >= 0 and min_samples_split an int >= 1,
    also when it grows no tree.
    """

    def __init__(self, n_rounds=100, learning_rate=0.1, max_depth=3,
                 min_samples_split=2):
        self.n_rounds = n_rounds
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.prior = 0.0
        self.trees: list[RegressionTree] = []
        self.scales: list[float] = []
        self.train_losses: list[float] = []
        self.constant = False
        self._stack_trees()

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.shape[0] == 0:
            raise EmptyData("cannot fit boosting on zero samples")
        _check_int("n_rounds", self.n_rounds, 0)
        _check_real("learning_rate", self.learning_rate, 0.0)
        _check_int("max_depth", self.max_depth, 0)
        _check_int("min_samples_split", self.min_samples_split, 1)
        self.trees, self.scales = [], []
        self._stack_trees()
        pbar = float(np.mean(y))
        self.constant = pbar in (0.0, 1.0)
        if self.constant:
            warnings.warn("single-class training data; emitting a constant "
                          "model", UserWarning)
            self.prior = 500.0 if pbar == 1.0 else -500.0
            self.train_losses = [_log_loss(y, _sigmoid(np.full(len(y), self.prior)))]
            return self
        self.prior = math.log(pbar / (1.0 - pbar))
        F = np.full(X.shape[0], self.prior)
        p = _sigmoid(F)
        loss = _log_loss(y, p)
        self.train_losses = [loss]
        root = _regression_root(X)
        for _ in range(self.n_rounds):
            g = y - p
            h = p * (1.0 - p)
            tree = RegressionTree(max_depth=self.max_depth,
                                  min_samples_split=self.min_samples_split)
            tree.fit(X, g, h, root)
            scale = self.learning_rate
            upd = scale * tree.value[tree.fit_leaves_, 0]
            # halve the step while it would increase training loss; the
            # accepted step's sigmoid and loss carry into the next round
            for _ in range(40):
                F_step = F + upd
                p_step = _sigmoid(F_step)
                loss_step = _log_loss(y, p_step)
                if loss_step <= loss + 1e-12:
                    F, p, loss = F_step, p_step, loss_step
                    break
                scale *= 0.5
                upd *= 0.5
            else:
                scale = 0.0
            self.trees.append(tree)
            self.scales.append(scale)
            self.train_losses.append(loss)
        self._stack_trees()
        return self

    def _stack_trees(self) -> None:
        """Lay out the trees of nonzero scale for `decision_scores`."""
        kept = [(t, s) for t, s in zip(self.trees, self.scales) if s]
        self._stack = _FlatTree.stacked([t for t, _ in kept])
        self._stack_scales = np.array([s for _, s in kept], dtype=float)

    def decision_scores(self, X) -> np.ndarray:
        """prior + scale * leaf value of each tree, added in round order."""
        X = np.asarray(X, dtype=float)
        F = np.full(X.shape[0], self.prior)
        if self._stack is not None:
            leaf = self._stack.value[self._stack._leaves(X), 0]
            for term in self._stack_scales[:, None] * leaf:
                F += term
        return F

    def predict_proba1(self, X) -> np.ndarray:
        return _sigmoid(self.decision_scores(X))

    _HYPERPARAMETERS = ("n_rounds", "learning_rate", "max_depth",
                        "min_samples_split")

    def to_dict(self) -> dict:
        return {**{k: getattr(self, k) for k in self._HYPERPARAMETERS},
                "prior": self.prior, "constant": self.constant,
                "scales": self.scales,
                "trees": [t.to_dict() for t in self.trees]}

    @classmethod
    def from_dict(cls, d: dict) -> "GradientBoosting":
        m = cls(**{k: d[k] for k in cls._HYPERPARAMETERS})
        m.prior = float(d["prior"])
        m.constant = d["constant"]
        m.scales = list(d["scales"])
        m.trees = [RegressionTree.from_dict(t, 1) for t in d["trees"]]
        if len(m.scales) != len(m.trees):
            raise ValueError(f"{len(m.scales)} scales for {len(m.trees)} trees")
        m._stack_trees()
        return m


class LogisticModel(_Proba1Outputs):
    """L2-regularized logistic regression, full-batch gradient descent,
    deterministic zero initialization (bias unregularized).  `fit` raises
    ValueError unless epochs is an int >= 0, step a finite number > 0 and
    l2 a finite number >= 0."""

    _HYPERPARAMETERS = ("epochs", "step", "l2")

    def __init__(self, epochs=500, step=0.5, l2=1e-4):
        self.epochs = epochs
        self.step = step
        self.l2 = l2
        self.w: Optional[np.ndarray] = None
        self.b = 0.0

    @staticmethod
    def loss_and_grad(w, b, X, y, l2):
        p = _sigmoid(X @ w + b)
        loss = _log_loss(y, p) + 0.5 * l2 * float(np.dot(w, w))
        err = p - y
        grad_w = X.T @ err / len(y) + l2 * w
        grad_b = float(np.mean(err))
        return loss, grad_w, grad_b

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.shape[0] == 0:
            raise EmptyData("cannot fit logistic regression on zero samples")
        _check_int("epochs", self.epochs, 0)
        _check_real("step", self.step, 0.0)
        _check_real("l2", self.l2, 0.0, inclusive=True)
        self.w = np.zeros(X.shape[1])
        self.b = 0.0
        for _ in range(self.epochs):
            _, gw, gb = self.loss_and_grad(self.w, self.b, X, y, self.l2)
            self.w -= self.step * gw
            self.b -= self.step * gb
        return self

    def predict_proba1(self, X) -> np.ndarray:
        return _sigmoid(np.asarray(X, dtype=float) @ self.w + self.b)

    def to_dict(self) -> dict:
        return {"w": self.w.tolist(), "b": self.b}

    @classmethod
    def from_dict(cls, d: dict) -> "LogisticModel":
        m = cls()
        m.w = np.asarray(d["w"], dtype=float)
        m.b = float(d["b"])
        return m


class OneVsRest:
    """One binary model per task label; predictions thresholded at 0.5."""

    def __init__(self, base_kind="forest", base_params=None, seed=0):
        self.base_kind = base_kind
        self.base_params = dict(base_params or {})
        self.seed = seed
        self.labels_: list[str] = []
        self.models_: list = []

    def fit(self, X, tasks):
        tasks = list(tasks)
        self.labels_ = sorted(set(tasks))
        if len(self.labels_) < 2:
            raise SingleClass("one-vs-rest needs at least two task labels")
        self.models_ = [_fit_impl(self.base_kind, X, y, self.base_params,
                                  _sub_seed(self.seed, i))
                        for i, y in enumerate(one_hot(tasks, self.labels_).T)]
        return self

    def outputs(self, X) -> tuple[np.ndarray, np.ndarray]:
        """(0/1 label matrix, probability matrix), one column per label:
        each base model's P(class 1), thresholded at 0.5."""
        scores = np.column_stack([m.outputs(X)[1] for m in self.models_])
        return (scores >= 0.5).astype(int), scores

    def to_dict(self) -> dict:
        return {"base_kind": self.base_kind, "labels": self.labels_,
                "models": [m.to_dict() for m in self.models_]}

    @classmethod
    def from_dict(cls, d: dict) -> "OneVsRest":
        m = cls(base_kind=d["base_kind"])
        m.labels_ = list(d["labels"])
        m.models_ = [_IMPL_CLASSES[d["base_kind"]].from_dict(t)
                     for t in d["models"]]
        if len(m.labels_) != len(m.models_):
            raise ValueError(f"{len(m.labels_)} labels for {len(m.models_)} models")
        return m


# ---------------------------------------------------------------------------
# unified model surface

_IMPL_CLASSES = {
    "tree": DecisionTree,
    "forest": RandomForest,
    "boosting": GradientBoosting,
    "logistic": LogisticModel,
    "one_vs_rest": OneVsRest,
}


def _fit_impl(kind, X, y, params, seed):
    """Fit a `kind` learner on the keys of `params` it accepts, ignoring
    the rest; one-vs-rest takes its base kind from the "base" key."""
    params = dict(params)
    if kind == "one_vs_rest":
        return OneVsRest(base_kind=params.pop("base", "forest"),
                         base_params=params, seed=seed).fit(X, y)
    if kind not in _IMPL_CLASSES:
        raise ValueError(f"unknown learner kind {kind!r}")
    cls = _IMPL_CLASSES[kind]
    kwargs = {k: params[k] for k in cls._HYPERPARAMETERS if k in params}
    if cls is RandomForest:
        kwargs["seed"] = seed
    return cls(**kwargs).fit(X, y)


@dataclass
class Model:
    kind: str
    params: dict
    seed: int
    feature_names: list[str]
    impl: object

    def _check_width(self, X):
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != len(self.feature_names):
            raise WidthMismatch(
                f"expected {len(self.feature_names)} features, got "
                f"{X.shape[1] if X.ndim == 2 else 'non-matrix'}")
        return X

    def predict(self, X) -> np.ndarray:
        return self.impl.outputs(self._check_width(X))[0]

    def scores(self, X) -> np.ndarray:
        return self.impl.outputs(self._check_width(X))[1]


def train(kind: str, X, y, params: Optional[dict] = None, seed: int = 0,
          feature_names: Optional[list[str]] = None) -> Model:
    X = np.asarray(X, dtype=float)
    params = dict(params or {})
    impl = _fit_impl(kind, X, y, params, seed)
    if feature_names is None:
        feature_names = [f"f{i}" for i in range(X.shape[1])]
    return Model(kind=kind, params=params, seed=seed,
                 feature_names=list(feature_names), impl=impl)


def save_model(model: Model, path) -> None:
    payload = {
        "version": MODEL_FORMAT_VERSION,
        "kind": model.kind,
        "params": model.params,
        "seed": model.seed,
        "feature_names": model.feature_names,
        "state": model.impl.to_dict(),
    }
    Path(path).write_text(json.dumps(payload))


def _parts(impl) -> list:
    """Every fitted tree and logistic model, one-vs-rest bases included."""
    if isinstance(impl, OneVsRest):
        return [p for m in impl.models_ for p in _parts(m)]
    return getattr(impl, "trees", [impl])


def load_model(path) -> Model:
    """Read a `save_model` file; any other content raises ValueError."""
    try:
        payload = json.loads(Path(path).read_text())
    except RecursionError as exc:
        raise ValueError(f"malformed model file {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError(f"malformed model file {path}: not a JSON object")
    if payload.get("version") != MODEL_FORMAT_VERSION:
        raise ValueError(
            f"unsupported model version {payload.get('version')} in "
            f"{path}; retrain it to write format {MODEL_FORMAT_VERSION}")
    try:
        kind, names = payload["kind"], payload["feature_names"]
        impl = _IMPL_CLASSES[kind].from_dict(payload["state"])
        n, parts = len(names), _parts(impl)
        if any(isinstance(p, _FlatTree) and p.feature.max() >= n for p in parts):
            raise ValueError(f"a feature id beyond its {n} names")
        if any(isinstance(p, LogisticModel) and p.w.shape != (n,) for p in parts):
            raise ValueError(f"logistic weights not a flat list of {n}")
        return Model(kind=kind, params=payload["params"],
                     seed=payload["seed"], feature_names=names, impl=impl)
    except (KeyError, TypeError, ValueError, OverflowError,
            RecursionError) as exc:
        raise ValueError(f"malformed model file {path}: "
                         f"{type(exc).__name__} {exc}") from exc


# ---------------------------------------------------------------------------
# metrics

@dataclass
class Metrics:
    accuracy: float
    precision: float
    recall: float
    f1: float
    roc_auc: float
    confusion: list[list[int]]
    f1_macro: Optional[float] = None
    f1_micro: Optional[float] = None

    def as_dict(self) -> dict:
        """The fields in order, the multi-label F1s only when set."""
        return {k: v for k, v in asdict(self).items() if v is not None}


def roc_auc_score(y_true, scores) -> float:
    """Rank-statistic AUC: P(random positive scores above random negative),
    ties counted 1/2."""
    y = np.asarray(y_true)
    s = np.asarray(scores, dtype=float)
    pos = s[y == 1]
    neg = s[y == 0]
    if len(pos) == 0 or len(neg) == 0:
        return 0.5
    # a run of equal scores shares its mean rank; NaNs sort last in input
    # order and, unequal to everything, each get their own rank
    order = np.argsort(s, kind="stable")
    sorted_s = s[order]
    starts = np.flatnonzero(np.r_[True, sorted_s[1:] != sorted_s[:-1]])
    counts = np.diff(np.r_[starts, len(s)])
    ranks = np.empty(len(s))
    ranks[order] = np.repeat(starts + (counts + 1) / 2.0, counts)
    npos = len(pos)
    rank_sum = ranks[y == 1].sum()
    return float((rank_sum - npos * (npos + 1) / 2.0) / (npos * len(neg)))


def _prf(tp, fp, fn):
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    return precision, recall, f1


def _counts(y_true, y_pred) -> list:
    """(tn, fp, fn, tp) per column of 0/1 truth and predictions, scalars
    for 1-D input.  Only the values 0 and 1 count: a prediction of 2 is
    neither a positive nor a negative."""
    t0, t1 = y_true == 0, y_true == 1
    p0, p1 = y_pred == 0, y_pred == 1
    return [np.sum(t & p, axis=0) for t, p in ((t0, p0), (t0, p1),
                                                (t1, p0), (t1, p1))]


def binary_metrics(y_true, y_pred, scores=None) -> Metrics:
    y = np.asarray(y_true, dtype=int)
    tn, fp, fn, tp = (int(c) for c in _counts(y, np.asarray(y_pred, dtype=int)))
    precision, recall, f1 = _prf(tp, fp, fn)
    auc = roc_auc_score(y, scores) if scores is not None else 0.5
    return Metrics(accuracy=(tp + tn) / len(y), precision=precision,
                   recall=recall, f1=f1, roc_auc=auc,
                   confusion=[[tn, fp], [fn, tp]])


def _per_label(Y_true, Y_pred) -> tuple[list, float]:
    """Each column's (precision, recall, f1) over binary indicator
    matrices, and the micro F1 of all columns pooled."""
    _, fp, fn, tp = _counts(np.asarray(Y_true, dtype=int),
                            np.asarray(Y_pred, dtype=int))
    micro = _prf(int(tp.sum()), int(fp.sum()), int(fn.sum()))[2]
    return [_prf(*c) for c in zip(tp.tolist(), fp.tolist(), fn.tolist())], micro


def one_hot(tasks: list[str], label_vocab: list[str]) -> np.ndarray:
    pos = {lab: i for i, lab in enumerate(label_vocab)}
    Y = np.zeros((len(tasks), len(label_vocab)), dtype=int)
    for i, t in enumerate(tasks):
        if t not in pos:
            raise ValueError(f"task {t!r} is not one of {label_vocab}")
        Y[i, pos[t]] = 1
    return Y


def evaluate(model: Model, X, y_true) -> Metrics:
    """Metrics of one model pass over X.

    Binary models are scored against 0/1 labels, positive class 1.  A
    one-vs-rest model is scored against task names: accuracy/confusion
    come from argmax decisions (so accuracy equals trace(confusion)/sum);
    macro/micro F1 come from the 0.5-thresholded label matrix; roc_auc is
    the macro mean of each label's AUC over its one-vs-rest probability,
    left out for labels whose rows here are all positive or all negative
    (0.5 when every label is).
    """
    preds, scores = model.impl.outputs(model._check_width(X))
    if not isinstance(model.impl, OneVsRest):
        return binary_metrics(y_true, preds, scores)
    labels = model.impl.labels_
    Y_true = one_hot(y_true, labels)
    per_label, micro = _per_label(Y_true, preds)
    precision, recall, macro = (float(np.mean(v)) for v in zip(*per_label))

    k, n = len(labels), len(Y_true)
    confusion = np.zeros((k, k), dtype=int)
    np.add.at(confusion, (Y_true.argmax(axis=1), scores.argmax(axis=1)), 1)
    aucs = [roc_auc_score(Y_true[:, j], scores[:, j]) for j in range(k)
            if 0 < Y_true[:, j].sum() < n]
    return Metrics(accuracy=int(np.trace(confusion)) / n,
                   precision=precision, recall=recall, f1=macro,
                   roc_auc=float(np.mean(aucs)) if aucs else 0.5,
                   confusion=confusion.tolist(), f1_macro=macro,
                   f1_micro=micro)

"""The tree growers behind `DecisionTree`, `RandomForest` and
`RegressionTree`.

All trees of a forest grow side by side, and a lone tree is a forest of
one.  At each step every tree lays out leaves in pre-order up to its next
node that searches; the searching nodes of all trees are scored together
in NaN-padded batches by `_gini_search`, each node sorting only its own
rows, so a node's cost grows with its size.  Each tree draws its candidate
features from its own rng in its own pre-order, so it comes out exactly
as if grown alone.

A regression tree grows from a read-only root state (`_regression_root`):
the presort of X and what the root's split search needs besides the
residuals.  A boosting fit builds it once and every round's tree reuses
it.  The hyperparameter checks of all learners live here too.
"""

from __future__ import annotations

import math
import numbers

import numpy as np


def _is_int(value, low: int) -> bool:
    return (isinstance(value, (int, np.integer))
            and not isinstance(value, bool) and value >= low)


def _check_int(name: str, value, low: int, *named) -> None:
    """Raise ValueError naming `name` unless `value` is an integer (not a
    bool) of at least `low` or one of `named`."""
    if value not in named and not _is_int(value, low):
        raise ValueError(f"{name} must be an integer >= {low}"
                         + "".join(f" or {v!r}" for v in named)
                         + f", got {value!r}")


def _check_real(name: str, value, low: float, inclusive: bool = False) -> None:
    """Raise ValueError naming `name` unless `value` is a finite real
    number (not a bool) above `low`, or equal to it when `inclusive`."""
    if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and (low <= value if inclusive else low < value)
            and value < math.inf):
        raise ValueError(f"{name} must be a finite number "
                         f"{'>=' if inclusive else '>'} {low}, got {value!r}")


# nodes x features x rows x classes that one Gini search counts at most,
# unless a single node needs more
_SEARCH_CELLS = 4096


def _gini_search(xs, ys, m, counts):
    """The best Gini cut of each of k nodes, scored in one pass.

    `xs` is (nodes, candidate features, rows): node j's values of each
    candidate column in ascending order, its `m[j]` real rows followed by
    NaN pads, and `ys` their class ids, -1 at pads; `counts[j]` are node
    j's class counts.  Real NaNs and pads sort last, so no cut next to a
    NaN passes `xs[i] < xs[i+1]` and only cuts between unequal real
    values are scored, each with its node's own n.  A cut's loss is the
    size-weighted Gini impurity of its sides from integer prefix counts,
    so the order of rows with equal values does not matter.  One flat
    argmin per node over (feature, cut) breaks ties to the lowest
    feature, then threshold.

    Returns per node the winning feature position, threshold and loss,
    inf when no cut exists.  The threshold is the midpoint of the cut's
    two values, or the lower value where the midpoint rounds onto the
    upper one or overflows, so every cut sends rows both ways.
    """
    (k, _, w), c = xs.shape, counts.shape[1]
    cum = np.cumsum(ys[:, :, None] == np.arange(c)[:, None], axis=3)
    cost = np.full((k, xs.shape[1], w - 1), np.inf)
    node, feat, cut = np.nonzero(xs[..., :-1] < xs[..., 1:])
    left = cum[node, feat, :, cut].astype(float)
    nl = cut + 1.0
    nr = m[node] - nl
    # (nl * (1 - sum((left / nl)**2))
    #  + nr * (1 - sum((right / nr)**2))) / n in place
    right = np.subtract(counts[node], left)
    right /= nr[:, None]
    right *= right
    gr = np.sum(right, axis=1)
    left /= nl[:, None]
    left *= left
    gl = np.sum(left, axis=1)
    np.subtract(1.0, gl, out=gl)
    gl *= nl
    np.subtract(1.0, gr, out=gr)
    gr *= nr
    gl += gr
    gl /= m[node]
    cost[node, feat, cut] = gl
    f, cut = np.divmod(np.argmin(cost.reshape(k, -1), axis=1), w - 1)
    j = np.arange(k)
    lo, hi = xs[j, f, cut], xs[j, f, cut + 1]
    with np.errstate(invalid="ignore", over="ignore"):
        mid = (lo + hi) / 2.0
    return f, np.where((lo <= mid) & (mid < hi), mid, lo), cost[j, f, cut]


def _grow_classifiers(trees, X, y, rows) -> None:
    """Fit the classification trees `trees` side by side.

    The trees share `classes_`, `max_depth`, `min_samples_split` and
    `max_features`, and each draws features from its own `rng`.  Tree t
    grows on rows `rows[t]` of X and y (bootstrap draws repeat ids).  At
    each step every tree takes nodes off its stack in pre-order, laying
    out leaves as it meets them, up to the first node that searches, so
    its rng draws keep their order.  The searching nodes of all trees are
    scored together, in batches of similar size (`_gini_search`), each
    sorting only its own rows.  A child's class counts come from its
    parent's.
    """
    first = trees[0]
    _check_int("max_depth", first.max_depth, 0, None)
    _check_int("min_samples_split", first.min_samples_split, 1)
    max_depth = math.inf if first.max_depth is None else first.max_depth
    class_pos = {v: i for i, v in enumerate(first.classes_.tolist())}
    yi = np.array([class_pos[v] for v in y.tolist()], dtype=int)
    (n_total, d), c = X.shape, len(class_pos)
    # a pad row of NaN with class -1 ends the data: a stable sort puts it
    # after every real row, real NaNs included
    XT = np.full((d, n_total + 1), np.nan)
    XT[:, :n_total] = X.T
    yp = np.append(yi, -1)

    # per tree: a stack of (rows, class counts, depth, parent, 2 for a
    # left child or 3 for a right one), and node rows [feature, threshold,
    # left, right, value]
    grown = []
    for tree, r in zip(trees, rows):
        tree._imp_raw = np.zeros(d)
        counts = np.bincount(yi[r], minlength=c).tolist()
        grown.append((tree, [(r, counts, 0, -1, 0)], []))
    while True:
        batch = []
        for grow in grown:
            tree, stack, nodes = grow
            while stack:
                r, counts, depth, parent, side = stack.pop()
                if parent >= 0:
                    nodes[parent][side] = len(nodes)
                n = len(r)
                if (max(counts) == n or depth >= max_depth
                        or n < first.min_samples_split):
                    nodes.append([-1, 0.0, -1, -1, [v / n for v in counts]])
                    continue
                nodes.append([-1, 0.0, -1, -1, [0.0] * c])
                batch.append((r, counts, depth, tree._feature_indices(d),
                              grow))
                break
        if not batch:
            break
        batch.sort(key=lambda e: len(e[0]))
        cells = len(batch[0][3]) * c
        start = 0
        while start < len(batch):
            end = start + 1
            while (end < len(batch) and (end + 1 - start) * cells
                   * len(batch[end][0]) <= _SEARCH_CELLS):
                end += 1
            chunk, start = batch[start:end], end
            loss = np.full(len(chunk), np.inf)
            if cells:
                m = np.array([len(e[0]) for e in chunk])
                R = np.full((len(chunk), m[-1]), n_total)
                R[np.arange(m[-1]) < m[:, None]] = np.concatenate(
                    [e[0] for e in chunk])
                # each candidate column's node rows in value order, as
                # places in the flattened XT
                at = (np.array([e[3] for e in chunk])[:, :, None]
                      * (n_total + 1) + R[:, None, :])
                at = np.take_along_axis(at, np.argsort(
                    XT.take(at), axis=2, kind="stable"), axis=2)
                counts = np.array([e[1] for e in chunk], dtype=float)
                f, thr, loss = _gini_search(
                    XT.take(at), yp.take(at % (n_total + 1)), m, counts)
                p = counts / m[:, None]
                gain = np.maximum(1.0 - np.sum(p * p, axis=1) - loss, 0.0)
            for j, (r, counts, depth, feats, grow) in enumerate(chunk):
                tree, stack, nodes = grow
                # this tree's node searched last is its last node so far
                if loss[j] == np.inf:
                    nodes[-1][4] = [v / len(r) for v in counts]
                    continue
                feat = int(feats[f[j]])
                nodes[-1][:2] = feat, float(thr[j])
                # zero-gain splits are kept: XOR-style targets need them
                tree._imp_raw[feat] += (len(r) / n_total) * gain[j]
                goes_left = X[r, feat] <= thr[j]
                left = r[goes_left]
                lc = np.bincount(yi[left], minlength=c).tolist()
                stack.append((r[~goes_left], [a - b for a, b in zip(counts, lc)],
                              depth + 1, len(nodes) - 1, 3))
                stack.append((left, lc, depth + 1, len(nodes) - 1, 2))
    for tree, _, nodes in grown:
        tree._set_arrays(*zip(*nodes))


def _search_state(XT, order):
    """What a regression node's split search needs besides its residuals:
    its rows presorted per column as (features, rows) `order`, the node
    values in that order, the flat places in them of the cuts between
    unequal neighbours, so none next to a NaN (a cut at place i splits
    after it), and those cuts' left and right sizes as floats."""
    xs = XT[np.arange(len(XT))[:, None], order]
    m = order.shape[1]
    at = np.flatnonzero(xs[:, :-1] < xs[:, 1:])
    at += at // (m - 1)  # from the (features, rows - 1) cuts to xs
    nl = at % m + 1.0
    return order, xs, at, nl, m - nl


def _regression_root(X):
    """(X.T, the root's rows, the root's `_search_state`) for regression
    trees on X.  It is read only, so every tree fit on X can share it.
    The presort is each column's stable argsort: equal values keep their
    row order."""
    XT = X.T
    order = np.argsort(XT, axis=1, kind="stable")
    return XT, np.arange(X.shape[0]), _search_state(XT, order)


def _best_split(xs, gs, at, nl, nr, total_sum, total_sq):
    """Exact least-squares split of one regression node.

    `xs` is (features, rows >= 2): each candidate column's node values in
    ascending order, and `gs` the residuals in the same order, summing to
    `total_sum` with squares summing to `total_sq`.  Only the cuts `at`
    of `_search_state` are scored, each by the SSE of its two sides from
    float prefix sums of `gs`.  The first lowest cost in (feature, cut)
    order wins.  Returns (candidate position, threshold, cost), the
    threshold by the rule of `_gini_search`, and cost inf for no cut.
    """
    if not len(at):
        return 0, 0.0, math.inf
    cum = gs.cumsum(1).take(at)
    # (total_sq - cum**2 / nl) - (total_sum - cum)**2 / nr in place
    cost = np.multiply(cum, cum)
    cost /= nl
    np.subtract(total_sq, cost, out=cost)
    np.subtract(total_sum, cum, out=cum)
    cum *= cum
    cum /= nr
    cost -= cum
    i = int(cost.argmin())
    f, cut = divmod(int(at[i]), xs.shape[1])
    lo, hi = xs[f, cut:cut + 2].tolist()
    mid = (lo + hi) / 2.0
    return f, mid if lo <= mid < hi else lo, float(cost[i])


def _grow_regressor(tree, g, h, root) -> None:
    """Fit the regression tree `tree` to residuals g, with Newton leaf
    values sum(g)/sum(h), from the root state of `_regression_root`.

    A node whose residuals are all equal is a leaf without a search: any
    cut of it gains 0 but for rounding noise.  A child keeps its parent's
    order and the mask of the data's rows on its side; only when it
    searches does it stable-partition that order with the mask and build
    its own `_search_state`, so every node sees its rows, and sums their
    residuals, in the order a stable argsort of its own subset would give.
    Nodes are laid out as `_grow_classifiers` lays them out, and
    `fit_leaves_` gets the leaf id of each training row.
    """
    XT, rows, root_state = root
    tree.fit_leaves_ = np.empty(len(g), dtype=np.intp)
    # a stack of (rows, the parent's order and the mask of this child's
    # rows, None at the root, depth, parent, side)
    stack, nodes = [(rows, None, None, 0, -1, 0)], []
    while stack:
        rows, order, mask, depth, parent, side = stack.pop()
        if parent >= 0:
            nodes[parent][side] = len(nodes)
        gn = g if mask is None else g[rows]
        n = len(gn)
        if (depth < tree.max_depth and n >= tree.min_samples_split
                and np.minimum.reduce(gn) != np.maximum.reduce(gn)):
            order, xs, at, nl, nr = (root_state if mask is None else
                                     _search_state(XT, order[mask[order]]
                                                   .reshape(len(order), -1)))
            total_sum = np.add.reduce(gn)
            total_sq = np.add.reduce(gn * gn)
            feat, thr, cost = _best_split(xs, g[order], at, nl, nr,
                                          total_sum, total_sq)
            # an inf cost (no cut) fails this too
            if total_sq - total_sum ** 2 / n - cost > 1e-12:
                goes_left = XT[feat] <= thr
                here = goes_left if mask is None else goes_left[rows]
                stack.append((rows[~here], order, ~goes_left, depth + 1,
                              len(nodes), 3))
                stack.append((rows[here], order, goes_left, depth + 1,
                              len(nodes), 2))
                nodes.append([feat, thr, -1, -1, [0.0]])
                continue
        tree.fit_leaves_[rows] = len(nodes)
        nodes.append([-1, 0.0, -1, -1,
                      [np.add.reduce(gn) / (np.add.reduce(h[rows]) + 1e-12)]])
    tree._set_arrays(*zip(*nodes))

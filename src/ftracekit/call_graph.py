"""Function-call graphs and the four per-node structure metrics.

A trace's call graph is a `Graph`: one node per function name, numbered in
sorted-name order, and one edge per pair of names of which one called the
other.  All four metrics see it as an undirected simple graph (call counts
and self-calls ignored), since directed centralities degenerate on the
near-DAG graphs that kernel traces produce.

The metrics run on a batch of graphs at once (`aggregates`); the one-graph
functions are batches of one and return one value per node, in sorted-name
order.  Every float is computed with the operations, and summed in the
order, of the per-node loops they replaced (Brandes' algorithm from each
source in turn, a left-to-right power iteration), so the values are bit
for bit those of the loops.  A step holds about `_CELLS` cells of any one
array, or one graph's worth where that is more.
"""

from __future__ import annotations

import struct
import warnings
from typing import NamedTuple

import numpy as np

from .errors import NonConvergenceWarning
from .trace_parser import TraceSample

# about this many sources x nodes, or arcs, of one Brandes step, nodes and
# neighbour entries of one power-iteration lockstep, or 8 x the wedges
# of one triangle count: a step may hold one graph or node more
_CELLS = 8192
_EXACT_PATHS = 2.0 ** 53  # path counts below this are exact in float64


class Graph(NamedTuple):
    """The undirected simple view of a call graph in compact form: `n`
    nodes numbered in sorted-name order, and one key `lo * n + hi` per
    edge between two distinct nodes lo < hi, ascending, packed as int64s."""
    n: int
    keys: bytes


def _graph(n: int, pairs) -> Graph:
    """The Graph of n nodes with an edge for each (a, b) pair of distinct
    nodes, in either direction; repeats are dropped.  Built in Python, as
    a trace's few hundred calls give numpy too little to work on."""
    keys = {a * n + b if a < b else b * n + a for a, b in pairs if a != b}
    return Graph(n, struct.pack(f"{len(keys)}q", *sorted(keys)))


def _calls(sample: TraceSample):
    """(name id of the parent, name id of the call) for each call that has
    a parent, from the sample's columns."""
    for ids, parents, *_ in sample.cpus.values():
        yield from ((ids[p], i) for p, i in zip(parents, ids) if p >= 0)


def sample_graph(sample: TraceSample) -> Graph:
    """The sample's call graph as a Graph, straight from its columns."""
    names = sample.names
    rank = [0] * len(names)
    for r, i in enumerate(sorted(range(len(names)), key=names.__getitem__)):
        rank[i] = r
    return _graph(len(names), ((rank[a], rank[b]) for a, b in _calls(sample)))


class _Batch:
    """Graphs side by side: node i of graph g is node `off[g] + i`, and
    `indices[indptr[u]:indptr[u + 1]]` are node u's neighbours, ascending;
    `keys` are the edges' lo * size + hi, ascending."""

    def __init__(self, graphs: list[Graph]):
        self.n = np.array([g.n for g in graphs], np.intp)
        self.off = np.concatenate(([0], np.cumsum(self.n)))
        self.size = int(self.off[-1])
        self.graph = np.repeat(np.arange(len(graphs)), self.n)
        keys = np.concatenate([np.frombuffer(g.keys, np.intp)
                               for g in graphs] or [np.zeros(0, np.intp)])
        edges = [len(g.keys) // 8 for g in graphs]
        n, off = np.repeat(self.n, edges), np.repeat(self.off[:-1], edges)
        lo, hi = keys // n + off, keys % n + off
        self.keys = lo * self.size + hi
        # each node's lower neighbours come first, then its higher ones:
        # the edges by hi keep lo ascending, and by lo they keep hi
        lower = np.bincount(hi, minlength=self.size)
        higher = np.bincount(lo, minlength=self.size)
        self.degree = lower + higher
        self.indptr = np.concatenate(([0], np.cumsum(self.degree)))
        self.indices = np.empty(self.indptr[-1], np.intp)
        by_hi = np.argsort(hi, kind="stable")
        self.indices[_places(self.indptr[:-1], lower, hi[by_hi])] = lo[by_hi]
        self.indices[_places(self.indptr[:-1] + lower, higher, lo)] = hi

    @property
    def src(self) -> np.ndarray:
        """The node of each neighbour entry."""
        return np.repeat(np.arange(self.size), self.degree)


def _places(start: np.ndarray, count: np.ndarray, node: np.ndarray):
    """For entries grouped by `node`, `count[u]` of them for node u: the
    place of each one, from `start[u]` on in turn."""
    first = np.cumsum(count) - count
    return start[node] + np.arange(len(node)) - first[node]


def _groups(costs: np.ndarray, cap: int):
    """(start, stop) runs of consecutive items, each run the items that
    start within one stretch of `cap` of the costs laid end to end: each
    run costs at most `cap` plus its last item."""
    if costs.sum() <= cap:
        return [(0, len(costs))] if len(costs) else []
    run = (np.cumsum(costs) - costs) // cap
    cuts = [0, *(np.flatnonzero(np.diff(run)) + 1).tolist(), len(costs)]
    return zip(cuts[:-1], cuts[1:])


def _neighbours(b: _Batch, nodes: np.ndarray) -> np.ndarray:
    """The CSR places of each node's neighbours in turn, ascending."""
    deg = b.degree[nodes]
    return np.arange(deg.sum()) + np.repeat(b.indptr[nodes] - np.cumsum(deg)
                                            + deg, deg)


# -- betweenness --------------------------------------------------------

def _source_chunks(b: _Batch):
    """Graphs of 3 or more nodes as (graph ids, first source, sources)
    steps, largest graphs first: graphs of similar size together with all
    their sources, or a large graph's sources a run at a time, so that a
    step's sources x nodes stay within `_CELLS`."""
    big = sorted(np.flatnonzero(b.n >= 3).tolist(), key=lambda g: -b.n[g])
    for lo, hi in _groups(b.n[big] ** 2, _CELLS):
        width = int(b.n[big[lo]])
        rows = width if hi > lo + 1 else max(1, _CELLS // width)
        for s0 in range(0, width, rows):
            yield np.array(big[lo:hi]), s0, rows


def _arcs(b: _Batch, nodes: np.ndarray, shift: np.ndarray):
    """Each node's neighbours in ascending order, as cells, in runs of
    nodes whose neighbour entries add up to about `_CELLS`: the place in
    `nodes` of each entry's node, and the neighbour's cell."""
    deg = b.degree[nodes]
    for lo, hi in _groups(deg, _CELLS // 2):
        which = np.repeat(np.arange(lo, hi), deg[lo:hi])
        cells = b.indices[_neighbours(b, nodes[lo:hi])]
        cells += shift[which]
        yield which, cells


def _brandes(b: _Batch, gs: np.ndarray, s0: int, rows: int, width: int,
             dtype):
    """Dependencies of sources s0 .. s0+rows-1 of each graph in `gs` on
    every node (Brandes), as a (graphs, rows, width) array with 0 at each
    source, or None when a path count reaches 2^53 in float64.

    The BFS from all sources runs one level at a time; cell (g, s, v) is
    node v seen from source s0 + s of graph g.  A level's new nodes keep
    the order in which a per-source FIFO BFS first reaches them (by their
    first predecessor's place, then by index), and the dependencies are
    replayed level by level, deepest first, each node adding its
    successors' terms in descending BFS place."""
    cells = len(gs) * rows * width
    g_row = np.repeat(np.arange(len(gs)), rows)
    src = s0 + np.tile(np.arange(rows), len(gs))
    row = np.flatnonzero(src < b.n[gs][g_row])
    # the cell of global node u seen from frontier entry i: shift[i] + u
    shift = row * width - b.off[gs][g_row[row]]
    frontier = row * width + src[row]
    dist = np.full(cells, -1, np.intp)
    dist[frontier] = 0
    sigma = np.zeros(cells, dtype)
    sigma[frontier] = 1
    # where among its level's shortest-path arcs a cell was first reached
    place = np.full(cells, np.iinfo(np.intp).max)
    levels = []  # each level's cells in BFS order, and their shifts
    while True:
        reached, found = [], 0
        for which, arcs in _arcs(b, frontier - shift, shift):
            d = dist[arcs]
            on_path = np.flatnonzero((d < 0) | (d == len(levels) + 1))
            v, w = which[on_path], arcs[on_path]
            seen = np.arange(found, found + len(w))
            np.minimum.at(place, w, seen)
            new = place[w] == seen
            found += len(w)
            dist[w] = len(levels) + 1
            np.add.at(sigma, w, sigma[frontier[v]])
            reached.append((w[new], shift[v[new]]))
        levels.append((frontier, shift))
        if not any(len(w) for w, _ in reached):
            break
        frontier = np.concatenate([w for w, _ in reached])
        shift = np.concatenate([s for _, s in reached])
    if dtype is float and sigma.max() >= _EXACT_PATHS:
        return None

    # np.add.at adds in index order, so each node adds its successors'
    # terms latest reached first, starting from 0.0
    delta = np.zeros(cells)
    for level in range(len(levels) - 1, 0, -1):
        frontier, shift = (a[::-1] for a in levels[level])
        for which, arcs in _arcs(b, frontier - shift, shift):
            on_path = np.flatnonzero(dist[arcs] == level - 1)
            v, w = arcs[on_path], frontier[which[on_path]]
            ratio = np.asarray(sigma[v] / sigma[w], float)
            np.add.at(delta, v, ratio * (1.0 + delta[w]))
    delta[row * width + src[row]] = 0.0
    return delta.reshape(len(gs), rows, width)


def _betweenness(b: _Batch) -> np.ndarray:
    """Normalized shortest-path betweenness of every node of the batch.
    Each node's dependencies are added over the sources in order, and path
    counts that float64 cannot hold exactly are redone as Python ints."""
    bc = np.zeros(b.size + 1)  # the last cell pads
    for gs, s0, rows in _source_chunks(b):
        width = int(b.n[gs[0]])
        deps = _brandes(b, gs, s0, rows, width, float)
        if deps is None:
            deps = _brandes(b, gs, s0, rows, width, object)
        at = b.off[gs][:, None] + np.arange(width)
        at[np.arange(width) >= b.n[gs][:, None]] = b.size
        total = bc[at]
        for s in range(rows):
            total += deps[:, s]
        bc[at] = total
        bc[b.size] = 0.0
    n = b.n[b.graph]
    with np.errstate(divide="ignore"):
        # each unordered pair accumulated twice; pairs (n-1)(n-2)/2
        scale = np.where(n >= 3, 1.0 / ((n - 1) * (n - 2)), 0.0)
    return bc[:-1] * scale


# -- eigenvector ----------------------------------------------------------

def _components(b: _Batch) -> np.ndarray:
    """Each node's component, named by its smallest node: each node takes
    its neighbours' least label until none changes."""
    label, has = np.arange(b.size), b.degree > 0
    while True:
        least = np.minimum.reduceat(np.append(label[b.indices], b.size),
                                    b.indptr[:-1])
        new = np.where(has, np.minimum(label, least), label)
        new = new[new]
        if not np.count_nonzero(new != label):
            return label
        label = new


def _eigenvector(b: _Batch, max_iter: int) -> np.ndarray:
    """Principal-eigenvector scores by power iteration on A + I over each
    graph's largest component, all graphs in lockstep; a graph leaves the
    batch once it has converged."""
    out = np.zeros(b.size)
    label = _components(b)
    size = np.bincount(label, minlength=b.size)
    has = np.flatnonzero(b.n)
    if not len(has):
        return out
    # of equally large components, the one whose sorted nodes compare
    # greatest: disjoint, so the one with the greatest smallest node
    best = np.maximum.reduceat(size[label] * b.size + label, b.off[has])
    best_label, best_size = best % b.size, best // b.size
    graphs = has[best_size >= 2]  # no edges: centrality is ill-defined
    if not len(graphs):
        return out
    k = best_size[best_size >= 2]
    member = np.zeros(b.size, bool)
    member[best_label[best_size >= 2]] = True
    chosen = np.zeros(len(b.n), bool)
    chosen[graphs] = True
    member = member[label] & chosen[b.graph]
    nodes = np.flatnonzero(member)  # graph by graph, ascending
    entries = k + np.bincount(np.repeat(np.arange(len(k)), k),
                              b.degree[nodes]).astype(np.intp)
    ends = np.cumsum(k)
    for lo, hi in _groups(entries, _CELLS):
        at = slice(ends[lo] - k[lo], ends[hi - 1])
        out[nodes[at]] = _power_iteration(b, nodes[at], k[lo:hi], max_iter)
    return out


def _power_iteration(b: _Batch, nodes: np.ndarray, k: np.ndarray,
                     max_iter: int) -> np.ndarray:
    """Scores of the nodes of components of k[i] nodes each, all iterated
    in lockstep from the uniform unit vector.  A component whose largest
    change falls below 1e-10 keeps its vector from then on, and leaves the
    lockstep arrays once at most half of their nodes are still moving.
    `np.bincount` adds its weights in input order, from 0.0: each node's
    own x (the identity shift), then its neighbours' in ascending order,
    and each component's squares node by node."""
    out = np.empty(len(nodes))
    x = np.repeat(1.0 / np.sqrt(k), k)
    left, at = max_iter, np.arange(len(nodes))  # at: nodes' places in out
    while len(at) and left:
        place = np.empty(b.size, np.intp)
        place[nodes[at]] = np.arange(len(at))
        deg = b.degree[nodes[at]]
        terms = np.insert(place[b.indices[_neighbours(b, nodes[at])]],
                          np.cumsum(deg) - deg, np.arange(len(at)))
        owner = np.repeat(np.arange(len(at)), deg + 1)
        component = np.repeat(np.arange(len(k)), k)
        starts = np.cumsum(k) - k
        moving = np.ones(len(k), bool)
        while left and 2 * k[moving].sum() > len(at):
            left -= 1
            y = np.bincount(owner, x[terms], len(at))
            y /= np.sqrt(np.bincount(component, y * y, len(k)))[component]
            change = np.maximum.reduceat(np.abs(x - y), starts)
            x = np.where(moving[component], y, x)
            moving &= change >= 1e-10
        stay = moving[component]
        out[at[~stay]] = x[~stay]
        at, x, k = at[stay], x[stay], k[moving]
    for _ in k:
        warnings.warn("power iteration did not converge within "
                      f"{max_iter} iterations", NonConvergenceWarning)
    out[at] = x
    return np.maximum(out, 0.0)


# -- clustering and neighbour degree --------------------------------------

def _clustering(b: _Batch) -> np.ndarray:
    """Local clustering coefficient; degree < 2 nodes get 0.  Each
    triangle is found once, from its node of least (degree, index), by
    testing the pairs of that node's neighbours that rank above it."""
    rank = b.degree * b.size + np.arange(b.size)
    src = b.src
    up = rank[src] < rank[b.indices]
    src, dst = src[up], b.indices[up]  # by src, then dst
    count = np.bincount(src, minlength=b.size)
    end = np.cumsum(count)[src]  # one past the last edge of src's run
    later = end - np.arange(len(src)) - 1  # partners after each edge
    links = np.zeros(b.size, np.intp)
    for lo, hi in _groups(later, _CELLS // 8):
        pairs = later[lo:hi]
        first = np.repeat(np.arange(lo, hi), pairs)
        second = first + 1 + np.arange(len(first)) - np.repeat(
            np.cumsum(pairs) - pairs, pairs)
        a, c = dst[first], dst[second]
        key = np.minimum(a, c) * b.size + np.maximum(a, c)
        found = np.minimum(np.searchsorted(b.keys, key), len(b.keys) - 1)
        hit = b.keys[found] == key
        for ends in (src[first[hit]], a[hit], c[hit]):
            links += np.bincount(ends, minlength=b.size)
    deg = b.degree
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(deg >= 2, 2.0 * links / (deg * (deg - 1)), 0.0)


def _avg_neighbor_degree(b: _Batch) -> np.ndarray:
    """Mean undirected degree over each node's neighbours; isolated -> 0."""
    total = np.bincount(b.src, b.degree[b.indices], minlength=b.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(b.degree > 0, total / b.degree, 0.0)


# -- batches and single graphs -------------------------------------------

def aggregates(graphs: list[Graph], max_iter: int = 1000) -> np.ndarray:
    """Each graph's mean and max of betweenness, eigenvector, clustering
    and mean neighbour degree over its nodes, one row per graph (0 for a
    graph without nodes).  Means are those of each graph's values alone:
    graphs of one size are reduced together, row by row."""
    b = _Batch(graphs)
    values = np.stack((_betweenness(b), _eigenvector(b, max_iter),
                       _clustering(b), _avg_neighbor_degree(b)))
    out = np.zeros((len(graphs), 8))
    for n in set(b.n[b.n > 0].tolist()):
        gs = np.flatnonzero(b.n == n)
        per = np.ascontiguousarray(values[:, b.off[gs][:, None]
                                          + np.arange(n)])
        out[gs, 0::2] = per.mean(axis=2).T
        out[gs, 1::2] = per.max(axis=2).T
    return out


def betweenness(graph: Graph) -> np.ndarray:
    """Normalized shortest-path betweenness (Brandes) on the undirected
    simple view; divides by (n-1)(n-2)/2, zero for n < 3."""
    return _betweenness(_Batch([graph]))


def eigenvector(graph: Graph, max_iter: int = 1000) -> np.ndarray:
    """Principal-eigenvector scores via power iteration on A + I.

    Computed on the largest connected component (nodes elsewhere get 0);
    the identity shift keeps bipartite components from oscillating.  The
    returned vector has unit L2 norm.  Hitting the iteration cap emits
    NonConvergenceWarning but still returns values.
    """
    return _eigenvector(_Batch([graph]), max_iter)


def clustering(graph: Graph) -> np.ndarray:
    """Local clustering coefficient; degree < 2 nodes get 0."""
    return _clustering(_Batch([graph]))


def avg_neighbor_degree(graph: Graph) -> np.ndarray:
    """Mean undirected degree over each node's neighbors; isolated -> 0."""
    return _avg_neighbor_degree(_Batch([graph]))

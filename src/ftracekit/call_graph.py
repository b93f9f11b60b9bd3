"""Function-call graphs and the four per-node structure metrics.

The graph is built directed with call-count edge multiplicities; all four
metrics are computed on the undirected simple view (multiplicities and
self-loops ignored), since directed centralities degenerate on the
near-DAG graphs that kernel traces produce.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter, deque
from dataclasses import dataclass, field
from functools import cached_property
from operator import sub

from .errors import NonConvergenceWarning
from .trace_parser import TraceSample


@dataclass
class CallGraph:
    nodes: set[str] = field(default_factory=set)
    edges: dict[tuple[str, str], int] = field(default_factory=dict)

    @cached_property
    def _adjacency(self) -> tuple[list[str], list[list[int]]]:
        """The undirected simple view, built once and shared by the four
        metrics: node names sorted, and for each node the sorted indices of
        its neighbours.  Sorted order keeps every float sum over nodes or
        neighbours independent of the string hash seed.  Computed on first
        use, so a graph is complete before a metric reads it."""
        names = sorted(self.nodes)
        index = {v: i for i, v in enumerate(names)}
        nbrs: list[set[int]] = [set() for _ in names]
        for (a, b) in self.edges:
            if a != b:
                i, j = index[a], index[b]
                nbrs[i].add(j)
                nbrs[j].add(i)
        return names, [sorted(s) for s in nbrs]


def build_graph(sample: TraceSample) -> CallGraph:
    """One node per function name, one edge per (parent, child) pair with
    call-count multiplicity, from the sample's columns."""
    pairs: Counter = Counter()  # (parent id, child id) -> calls
    for ids, parents, *_ in sample.cpus.values():
        pairs.update((ids[p], i) for p, i in zip(parents, ids) if p >= 0)
    names = sample.names
    return CallGraph(set(names), {(names[a], names[b]): k
                                  for (a, b), k in pairs.items()})


def betweenness(graph: CallGraph) -> dict[str, float]:
    """Normalized shortest-path betweenness (Brandes) on the undirected
    simple view; divides by (n-1)(n-2)/2, zero for n < 3."""
    names, nbrs = graph._adjacency
    n = len(names)
    if n < 3:
        return dict.fromkeys(names, 0.0)

    bc = [0.0] * n
    for s in range(n):
        # BFS from s; `order` is the visit order, popped in reverse below
        sigma = [0] * n
        dist = [-1] * n
        pred: list = [None] * n
        sigma[s] = 1
        dist[s] = 0
        pred[s] = ()
        order = [s]
        for v in order:
            next_dist = dist[v] + 1
            sv = sigma[v]
            for w in nbrs[v]:
                d = dist[w]
                if d < 0:
                    dist[w] = next_dist
                    order.append(w)
                    sigma[w] = sv
                    pred[w] = [v]
                elif d == next_dist:
                    sigma[w] += sv
                    pred[w].append(v)
        delta = [0.0] * n
        for w in reversed(order):
            sw = sigma[w]
            coeff = 1.0 + delta[w]
            for v in pred[w]:
                delta[v] += sigma[v] / sw * coeff
            if w != s:
                bc[w] += delta[w]

    # each unordered pair accumulated twice; pair normalization (n-1)(n-2)/2
    scale = 1.0 / ((n - 1) * (n - 2))
    return {v: bc[i] * scale for i, v in enumerate(names)}


def connected_components(adj) -> list[list]:
    """Components of an adjacency mapping (node -> neighbours), each
    sorted, in the order of their smallest nodes."""
    seen: set = set()
    comps: list[list] = []
    for start in sorted(adj):
        if start in seen:
            continue
        comp = []
        queue = deque([start])
        seen.add(start)
        while queue:
            v = queue.popleft()
            comp.append(v)
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        comps.append(sorted(comp))
    return comps


def eigenvector(graph: CallGraph, max_iter: int = 1000) -> dict[str, float]:
    """Principal-eigenvector scores via power iteration on A + I.

    Computed on the largest connected component (nodes elsewhere get 0);
    the identity shift keeps bipartite components from oscillating.  The
    returned vector has unit L2 norm.  Hitting the iteration cap emits
    NonConvergenceWarning but still returns values.
    """
    names, all_nbrs = graph._adjacency
    scores = dict.fromkeys(names, 0.0)
    comps = connected_components(dict(enumerate(all_nbrs)))
    if not comps:
        return scores
    comp = max(comps, key=lambda c: (len(c), c))
    if all(not all_nbrs[v] for v in comp):
        return scores  # no edges: centrality is ill-defined, use 0

    if len(comp) == len(names):
        nbrs = all_nbrs
    else:
        local = {v: i for i, v in enumerate(comp)}
        nbrs = [[local[w] for w in all_nbrs[v]] for v in comp]
    k = len(comp)
    x = [1.0 / math.sqrt(k)] * k
    converged = False
    for _ in range(max_iter):
        y, sq = [], 0.0
        for acc, nb in zip(x, nbrs):  # acc starts at x_i: the identity shift
            for j in nb:
                acc += x[j]
            y.append(acc)
            sq += acc * acc  # not sum(): from Python 3.12 it compensates
        norm = math.sqrt(sq)
        y = [t / norm for t in y]
        change = max(map(abs, map(sub, x, y)))
        x = y
        if change < 1e-10:
            converged = True
            break
    if not converged:
        warnings.warn("power iteration did not converge within "
                      f"{max_iter} iterations", NonConvergenceWarning)
    for i, v in enumerate(comp):
        scores[names[v]] = max(x[i], 0.0)
    return scores


def clustering(graph: CallGraph) -> dict[str, float]:
    """Local clustering coefficient; degree < 2 nodes get 0."""
    names, nbrs = graph._adjacency
    sets = [set(nb) for nb in nbrs]
    out: dict[str, float] = {}
    for v, nb, own in zip(names, nbrs, sets):
        deg = len(nb)
        if deg < 2:
            out[v] = 0.0
            continue
        # each link between two neighbours is counted from both its ends
        links = sum(len(sets[a] & own) for a in nb) // 2
        out[v] = 2.0 * links / (deg * (deg - 1))
    return out


def avg_neighbor_degree(graph: CallGraph) -> dict[str, float]:
    """Mean undirected degree over each node's neighbors; isolated -> 0."""
    names, nbrs = graph._adjacency
    degree = [len(nb) for nb in nbrs]
    return {v: sum(degree[w] for w in nb) / len(nb) if nb else 0.0
            for v, nb in zip(names, nbrs)}

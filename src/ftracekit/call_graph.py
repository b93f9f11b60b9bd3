"""Function-call graphs and the four per-node structure metrics.

The graph is built directed with call-count edge multiplicities; all four
metrics are computed on the undirected simple view (multiplicities and
self-loops ignored), since directed centralities degenerate on the
near-DAG graphs that kernel traces produce.
"""

from __future__ import annotations

import math
import warnings
from collections import deque
from dataclasses import dataclass, field

from .errors import NonConvergenceWarning
from .trace_parser import TraceSample


@dataclass
class CallGraph:
    nodes: set[str] = field(default_factory=set)
    edges: dict[tuple[str, str], int] = field(default_factory=dict)

    def undirected_adjacency(self) -> dict[str, set[str]]:
        """Neighbour sets keyed in sorted node order, so that float sums
        over the keys do not depend on the string hash seed."""
        adj: dict[str, set[str]] = {v: set() for v in sorted(self.nodes)}
        for (a, b) in self.edges:
            if a != b:
                adj[a].add(b)
                adj[b].add(a)
        return adj


def build_graph(sample: TraceSample) -> CallGraph:
    """One node per function name, one edge per (parent, child) pair with
    call-count multiplicity."""
    g = CallGraph()
    for rec in sample.iter_records():
        g.nodes.add(rec.name)
        for child in rec.children:
            key = (rec.name, child.name)
            g.edges[key] = g.edges.get(key, 0) + 1
    return g


def betweenness(graph: CallGraph) -> dict[str, float]:
    """Normalized shortest-path betweenness (Brandes) on the undirected
    simple view; divides by (n-1)(n-2)/2, zero for n < 3."""
    adj = graph.undirected_adjacency()
    nodes = sorted(adj)
    n = len(nodes)
    bc = {v: 0.0 for v in nodes}
    if n < 3:
        return bc

    for s in nodes:
        stack: list[str] = []
        pred: dict[str, list[str]] = {v: [] for v in nodes}
        sigma = {v: 0 for v in nodes}
        dist = {v: -1 for v in nodes}
        sigma[s] = 1
        dist[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            stack.append(v)
            for w in sorted(adj[v]):
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    pred[w].append(v)
        delta = {v: 0.0 for v in nodes}
        while stack:
            w = stack.pop()
            for v in pred[w]:
                delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w])
            if w != s:
                bc[w] += delta[w]

    # each unordered pair accumulated twice; pair normalization (n-1)(n-2)/2
    scale = 1.0 / ((n - 1) * (n - 2))
    return {v: bc[v] * scale for v in nodes}


def connected_components(adj: dict[str, set[str]]) -> list[list[str]]:
    seen: set[str] = set()
    comps: list[list[str]] = []
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


def eigenvector(graph: CallGraph, tol: float = 1e-10,
                max_iter: int = 1000) -> dict[str, float]:
    """Principal-eigenvector scores via power iteration on A + I.

    Computed on the largest connected component (nodes elsewhere get 0);
    the identity shift keeps bipartite components from oscillating.  The
    returned vector has unit L2 norm.  Hitting the iteration cap emits
    NonConvergenceWarning but still returns values.
    """
    adj = graph.undirected_adjacency()
    scores = {v: 0.0 for v in adj}
    comps = connected_components(adj)
    if not comps:
        return scores
    comp = max(comps, key=lambda c: (len(c), c))
    if all(not adj[v] for v in comp):
        return scores  # no edges: centrality is ill-defined, use 0

    idx = {v: i for i, v in enumerate(comp)}
    # sorted, so the float sums below do not follow set (hash) order
    nbrs = [sorted(idx[w] for w in adj[v]) for v in comp]
    k = len(comp)
    x = [1.0 / math.sqrt(k)] * k
    converged = False
    for _ in range(max_iter):
        y = [0.0] * k
        for i in range(k):
            acc = x[i]  # identity shift
            for j in nbrs[i]:
                acc += x[j]
            y[i] = acc
        norm = math.sqrt(sum(t * t for t in y))
        y = [t / norm for t in y]
        change = max(abs(a - b) for a, b in zip(x, y))
        x = y
        if change < tol:
            converged = True
            break
    if not converged:
        warnings.warn("power iteration did not converge within "
                      f"{max_iter} iterations", NonConvergenceWarning)
    for v in comp:
        scores[v] = max(x[idx[v]], 0.0)
    return scores


def clustering(graph: CallGraph) -> dict[str, float]:
    """Local clustering coefficient; degree < 2 nodes get 0."""
    adj = graph.undirected_adjacency()
    out: dict[str, float] = {}
    for v, nbrs in adj.items():
        deg = len(nbrs)
        if deg < 2:
            out[v] = 0.0
            continue
        nbr_list = sorted(nbrs)
        links = sum(1 for i, a in enumerate(nbr_list)
                    for b in nbr_list[i + 1:] if b in adj[a])
        out[v] = 2.0 * links / (deg * (deg - 1))
    return out


def avg_neighbor_degree(graph: CallGraph) -> dict[str, float]:
    """Mean undirected degree over each node's neighbors; isolated -> 0."""
    adj = graph.undirected_adjacency()
    out: dict[str, float] = {}
    for v, nbrs in adj.items():
        if not nbrs:
            out[v] = 0.0
        else:
            out[v] = sum(len(adj[w]) for w in nbrs) / len(nbrs)
    return out

"""Graph metrics on the shared index adjacency against their references.

The "reference metrics" section is the earlier dict-based implementation
kept verbatim: each metric rebuilds the name-keyed adjacency and Brandes'
algorithm keeps per-source dicts.  The index-based metrics in
`ftracekit.call_graph` do every float operation in the same order, so they
must return exactly equal values, in the same key order, on any graph:
ties, disconnected graphs, self-loops, duplicate edges and fewer than three
nodes.  Dense numpy oracles check betweenness (all-pairs shortest-path
counts) and eigenvector centrality (`numpy.linalg.eigh` of A + I on the
largest component) up to rounding.
"""

from __future__ import annotations

import math
import warnings
from collections import deque
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftracekit import call_graph as cg
from ftracekit.errors import NonConvergenceWarning

from conftest import by_name, graph_from_edges, preorder

# reference metrics

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
    for rec in preorder(sample):
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

# end of the reference metrics


NAMES = list("abcdefghij")


@st.composite
def graphs(draw):
    """(nodes, edge list with repeats and self-loops) over a few names."""
    nodes = draw(st.sets(st.sampled_from(NAMES), max_size=len(NAMES)))
    pool = sorted(nodes)
    edges = []
    if pool:
        edges = draw(st.lists(st.tuples(st.sampled_from(pool),
                                        st.sampled_from(pool)), max_size=45))
    return nodes, edges


def both(nodes, edges):
    """The graph of `nodes` and `edges` for the reference metrics and as a
    NamedGraph for the metrics under test."""
    ref = CallGraph(set(nodes))
    for e in edges:
        ref.edges[e] = ref.edges.get(e, 0) + 1
    return ref, graph_from_edges(edges, nodes)


METRICS = [(betweenness, cg.betweenness), (eigenvector, cg.eigenvector),
           (clustering, cg.clustering),
           (avg_neighbor_degree, cg.avg_neighbor_degree)]


def dense_adjacency(nodes, edges):
    names = sorted(nodes)
    index = {v: i for i, v in enumerate(names)}
    A = np.zeros((len(names), len(names)), dtype=np.int64)
    for a, b in edges:
        if a != b:
            A[index[a], index[b]] = A[index[b], index[a]] = 1
    return names, A


def dense_betweenness(nodes, edges):
    """Sum over ordered pairs (s, t) of sigma_sv * sigma_vt / sigma_st for
    every v on a shortest s-t path, with distances and path counts read
    off the powers of A (a walk of length d(s, t) is a shortest path)."""
    names, A = dense_adjacency(nodes, edges)
    n = len(names)
    if n < 3:
        return dict.fromkeys(names, 0.0)
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0)
    sigma = np.eye(n)
    walks = np.eye(n, dtype=np.int64)
    for k in range(1, n):
        walks = walks @ A
        new = (walks > 0) & np.isinf(dist)
        dist[new] = k
        sigma[new] = walks[new]
    out = {}
    for v in range(n):
        on_path = (dist[:, [v]] + dist[[v], :] == dist) & np.isfinite(dist)
        on_path[v, :] = on_path[:, v] = False
        np.fill_diagonal(on_path, False)
        ratio = np.outer(sigma[:, v], sigma[v, :]) / np.where(on_path, sigma, 1)
        out[names[v]] = float(ratio[on_path].sum()) / ((n - 1) * (n - 2))
    return out


def dense_eigenvector(nodes, edges):
    """Principal eigenvector of A + I on the largest component (ties to the
    component whose sorted names compare greatest), zero elsewhere."""
    names, A = dense_adjacency(nodes, edges)
    n = len(names)
    out = dict.fromkeys(names, 0.0)
    if n == 0:
        return out
    reach = np.linalg.matrix_power(A + np.eye(n, dtype=np.int64), n) > 0
    comps = {tuple(np.flatnonzero(row)) for row in reach}
    comp = list(max(comps, key=lambda c: (len(c), [names[i] for i in c])))
    sub = A[np.ix_(comp, comp)]
    if not sub.any():
        return out
    vals, vecs = np.linalg.eigh(sub + np.eye(len(comp)))
    vec = vecs[:, np.argmax(vals)]
    vec = vec * np.sign(vec.sum()) / np.linalg.norm(vec)
    for i, v in zip(comp, vec):
        out[names[i]] = float(v)
    return out


class TestAgainstReference:
    @settings(max_examples=400, deadline=None)
    @given(graphs())
    def test_exactly_equal_in_the_same_order(self, g):
        ref, new = both(*g)
        for want_fn, got_fn in METRICS:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", NonConvergenceWarning)
                want, got = want_fn(ref), by_name(got_fn, new)
            assert list(got.items()) == list(want.items()), want_fn.__name__

    def test_generated_call_graphs(self):
        # larger and denser than the random graphs: ~20 nodes of degree ~7
        from ftracekit import trace_parser as tp
        from ftracekit import workloadgen as wg
        for i, profile in enumerate(wg.task_profiles() + wg.graph_signal_pair()):
            text, _, _ = wg.generate_trace(profile, seed=40 + i, n_root_calls=30)
            sample = tp.parse_trace(text)
            ref, graph = build_graph(sample), cg.sample_graph(sample)
            for want_fn, got_fn in METRICS:
                got = dict(zip(sorted(sample.names), got_fn(graph).tolist()))
                assert list(got.items()) == list(want_fn(ref).items())

    def test_nonconvergence_warns_as_before(self):
        ref, new = both("abc", [("a", "b"), ("b", "c")])
        with pytest.warns(NonConvergenceWarning):
            want = eigenvector(ref, max_iter=2)
        with pytest.warns(NonConvergenceWarning):
            got = by_name(cg.eigenvector, new, 2)
        assert got == want

    def test_ties_between_largest_components(self):
        ref, new = both("abcdef", [("a", "b"), ("b", "c"), ("d", "e"), ("e", "f")])
        assert by_name(cg.eigenvector, new) == eigenvector(ref)
        assert by_name(cg.eigenvector, new)["a"] == 0.0


class TestDenseOracles:
    @settings(max_examples=300, deadline=None)
    @given(graphs())
    def test_betweenness(self, g):
        want = dense_betweenness(*g)
        got = by_name(cg.betweenness, both(*g)[1])
        assert got == pytest.approx(want, abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(graphs())
    def test_eigenvector(self, g):
        want = dense_eigenvector(*g)
        got = by_name(cg.eigenvector, both(*g)[1])
        assert got == pytest.approx(want, abs=1e-6)

import itertools

import numpy as np
import pytest

from ftracekit import call_graph as cg
from ftracekit.errors import NonConvergenceWarning

from conftest import by_name, graph_from_edges
from test_graph_oracle import connected_components


# ---------------------------------------------------------------- oracles

def adjacency_sets(g):
    """The graph's undirected simple view as neighbour-name sets."""
    adj = {v: set() for v in g.nodes}
    for a, b in g.edges:
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    return adj


def oracle_betweenness(adj, nodes):
    """Brute force: enumerate all shortest paths with BFS path counting
    from every source, accumulate pair dependencies directly."""
    nodes = sorted(nodes)
    n = len(nodes)
    bc = {v: 0.0 for v in nodes}
    if n < 3:
        return bc
    for s, t in itertools.combinations(nodes, 2):
        dist, paths = _bfs_counts(adj, s)
        if t not in dist:
            continue
        total = paths[t]
        for v in nodes:
            if v in (s, t) or v not in dist:
                continue
            dist_t, paths_t = _bfs_counts(adj, v)
            if t in dist_t and dist[v] + dist_t[t] == dist[t]:
                bc[v] += paths[v] * paths_t[t] / total
    scale = 2.0 / ((n - 1) * (n - 2))
    return {v: bc[v] * scale for v in nodes}


def _bfs_counts(adj, s):
    dist = {s: 0}
    paths = {s: 1}
    queue = [s]
    while queue:
        nxt = []
        for u in queue:
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    paths[w] = 0
                    nxt.append(w)
                if dist[w] == dist[u] + 1:
                    paths[w] += paths[u]
        queue = nxt
    return dist, paths


def oracle_eigenvector(adj, nodes):
    """Dense eigen-decomposition of the largest component's adjacency;
    of equally large ones, the one whose sorted names compare greatest."""
    comps = connected_components(adj)
    comp = max((sorted(c) for c in comps), key=lambda c: (len(c), c))
    out = {v: 0.0 for v in nodes}
    if not any(adj[v] for v in comp):
        return out
    index = {v: i for i, v in enumerate(comp)}
    A = np.zeros((len(comp), len(comp)))
    for v in comp:
        for w in adj[v]:
            A[index[v], index[w]] = 1.0
    vals, vecs = np.linalg.eigh(A)
    vec = vecs[:, np.argmax(vals)]
    if vec.sum() < 0:
        vec = -vec
    vec = vec / np.linalg.norm(vec)
    for v in comp:
        out[v] = float(vec[index[v]])
    return out


def oracle_clustering(adj, nodes):
    out = {}
    for v in nodes:
        nbrs = sorted(adj[v])
        k = len(nbrs)
        if k < 2:
            out[v] = 0.0
            continue
        links = sum(1 for a, b in itertools.combinations(nbrs, 2)
                    if b in adj[a])
        out[v] = 2.0 * links / (k * (k - 1))
    return out


def oracle_avg_nbr_deg(adj, nodes):
    return {v: (sum(len(adj[w]) for w in adj[v]) / len(adj[v]) if adj[v] else 0.0)
            for v in nodes}


def random_connected_graph(rng, n):
    names = [f"f{i:02d}" for i in range(n)]
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        j = order[int(rng.integers(0, i))]
        a, b = sorted((order[i], j))
        edges.add((names[a], names[b]))
    extra = int(rng.integers(0, n * (n - 1) // 2 + 1))
    for _ in range(extra):
        a, b = rng.choice(n, size=2, replace=False)
        a, b = sorted((int(a), int(b)))
        edges.add((names[a], names[b]))
    return graph_from_edges(sorted(edges))


# ------------------------------------------------------------- fixed cases

class TestBetweenness:
    def test_path_graph(self):
        g = graph_from_edges([("a", "b"), ("b", "c")])
        assert by_name(cg.betweenness, g) == {"a": 0.0, "b": 1.0, "c": 0.0}

    def test_star_center(self):
        g = graph_from_edges([("hub", x) for x in "abcd"])
        bc = by_name(cg.betweenness, g)
        assert bc["hub"] == pytest.approx(1.0)
        assert all(bc[x] == 0.0 for x in "abcd")

    def test_triangle_all_zero(self):
        g = graph_from_edges([("a", "b"), ("b", "c"), ("a", "c")])
        assert set(by_name(cg.betweenness, g).values()) == {0.0}

    def test_tiny_graphs_are_zero(self):
        assert by_name(cg.betweenness, graph_from_edges([("a", "b")])) == {
            "a": 0.0, "b": 0.0}
        assert by_name(cg.betweenness,
                       graph_from_edges([], extra_nodes=["a"])) == {"a": 0.0}

    def test_self_loop_ignored(self):
        g = graph_from_edges([("a", "b"), ("b", "c"), ("b", "b")])
        assert by_name(cg.betweenness, g)["b"] == 1.0


class TestEigenvector:
    def test_single_node_is_zero(self):
        g = graph_from_edges([], extra_nodes=["alone"])
        assert by_name(cg.eigenvector, g) == {"alone": 0.0}

    def test_complete_graph_uniform(self):
        g = graph_from_edges([("a", "b"), ("b", "c"), ("a", "c")])
        ev = by_name(cg.eigenvector, g)
        for v in "abc":
            assert ev[v] == pytest.approx(1 / np.sqrt(3), abs=1e-9)

    def test_bipartite_converges(self):
        # even cycles are bipartite; plain power iteration oscillates on them
        g = graph_from_edges([("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
        ev = by_name(cg.eigenvector, g)
        for v in "abcd":
            assert ev[v] == pytest.approx(0.5, abs=1e-8)

    def test_off_component_zero(self):
        g = graph_from_edges([("a", "b"), ("b", "c"), ("x", "y")])
        ev = by_name(cg.eigenvector, g)
        assert ev["x"] == 0.0 and ev["y"] == 0.0
        assert ev["b"] > ev["a"] > 0

    def test_nonconvergence_warns(self):
        g = graph_from_edges([("a", "b"), ("b", "c")])
        with pytest.warns(NonConvergenceWarning):
            by_name(cg.eigenvector, g, 1)


class TestClustering:
    def test_triangle(self):
        g = graph_from_edges([("a", "b"), ("b", "c"), ("a", "c")])
        assert set(by_name(cg.clustering, g).values()) == {1.0}

    def test_path_is_zero(self):
        g = graph_from_edges([("a", "b"), ("b", "c")])
        assert set(by_name(cg.clustering, g).values()) == {0.0}

    def test_triangle_plus_pendant(self):
        g = graph_from_edges([("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")])
        cl = by_name(cg.clustering, g)
        assert cl["a"] == 1.0 and cl["b"] == 1.0
        assert cl["c"] == pytest.approx(1 / 3)
        assert cl["d"] == 0.0


class TestAvgNeighborDegree:
    def test_star(self):
        g = graph_from_edges([("hub", x) for x in "abc"])
        and_ = by_name(cg.avg_neighbor_degree, g)
        assert and_["hub"] == 1.0
        assert all(and_[x] == 3.0 for x in "abc")

    def test_isolated_zero(self):
        g = graph_from_edges([("a", "b")], extra_nodes=["z"])
        assert by_name(cg.avg_neighbor_degree, g)["z"] == 0.0


# --------------------------------------------------------- randomized suite

class TestAgainstOracles:
    def test_random_graphs(self):
        rng = np.random.default_rng(42)
        for i in range(60):
            n = int(rng.integers(2, 13))
            g = random_connected_graph(rng, n)
            adj = adjacency_sets(g)
            bc = by_name(cg.betweenness, g)
            for v, want in oracle_betweenness(adj, g.nodes).items():
                assert bc[v] == pytest.approx(want, abs=1e-9), (i, v)
            ev = by_name(cg.eigenvector, g)
            for v, want in oracle_eigenvector(adj, g.nodes).items():
                assert ev[v] == pytest.approx(want, abs=1e-8), (i, v)
            assert by_name(cg.clustering, g) == pytest.approx(
                oracle_clustering(adj, g.nodes))
            assert by_name(cg.avg_neighbor_degree, g) == pytest.approx(
                oracle_avg_nbr_deg(adj, g.nodes))

    def test_tie_between_largest_components(self):
        g = graph_from_edges([("a", "b"), ("b", "c"), ("d", "e"), ("e", "f"),
                              ("g", "h")])
        ev = by_name(cg.eigenvector, g)
        want = oracle_eigenvector(adjacency_sets(g), g.nodes)
        assert ev == pytest.approx(want, abs=1e-8)
        assert ev["a"] == 0.0 and ev["e"] > 0.0

    def test_relabel_equivariance(self):
        rng = np.random.default_rng(7)
        g = random_connected_graph(rng, 9)
        mapping = {f"f{i:02d}": f"g{(i * 5) % 9}" for i in range(9)}
        h = graph_from_edges([(mapping[a], mapping[b]) for a, b in g.edges])
        for fn in (cg.betweenness, cg.eigenvector, cg.clustering,
                   cg.avg_neighbor_degree):
            got = by_name(fn, h)
            for v, want in by_name(fn, g).items():
                assert got[mapping[v]] == pytest.approx(want, abs=1e-9)

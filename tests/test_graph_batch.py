"""The batched graph metrics against the same graphs one at a time.

`call_graph.aggregates` computes the four metrics of many graphs at once;
the one-graph functions (`betweenness`, `eigenvector`, `clustering`,
`avg_neighbor_degree`) are batches of one, checked bit for bit against
the dict-based reference metrics in test_graph_oracle.py.  Here a mixed
batch must give every graph exactly what it gets alone, path counts
beyond float64's integers must be as exact as Python's, ingest must go
through the batch, and a batch of kernel-size graphs must stay within a
fixed memory bound.
"""

import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest

from ftracekit import call_graph as cg
from ftracekit import features as ft
from ftracekit import trace_parser as tp
from ftracekit import workloadgen as wg
from ftracekit.errors import NonConvergenceWarning

from conftest import ONE_CPU, TWO_CPUS, by_name, graph_from_edges, use_cpus
from test_callgraph import random_connected_graph
from test_graph_oracle import betweenness as reference_betweenness
from test_graph_oracle import both
from test_ingest_digest import GOLDEN

METRICS = (cg.betweenness, cg.eigenvector, cg.clustering,
           cg.avg_neighbor_degree)


def mixed_batch():
    rng = np.random.default_rng(5)
    path = [(f"p{i:02d}", f"p{i + 1:02d}") for i in range(15)]
    return [
        graph_from_edges([]),  # no nodes
        graph_from_edges([], extra_nodes=["alone"]),
        graph_from_edges([("a", "b")]),
        graph_from_edges([("a", "a"), ("a", "b"), ("b", "c"), ("c", "c")]),
        # two largest components tie; the one after the smaller one wins
        graph_from_edges([("a", "b"), ("b", "c"), ("d", "e"), ("e", "f"),
                          ("g", "h")]),
        graph_from_edges(path),  # converges slowly
        graph_from_edges([("x", "y"), ("y", "z"), ("z", "x")]),
        random_connected_graph(rng, 7),
        random_connected_graph(rng, 12),
        graph_from_edges([("hub", f"leaf{i}") for i in range(30)]
                         + [("leaf0", "leaf1"), ("iso", "iso")]),
    ]


def per_node(batch, graphs, values):
    """The batch's flat per-node values split back into one dict per
    graph, keyed by sorted node names."""
    out = []
    for g, lo, hi in zip(graphs, batch.off[:-1], batch.off[1:]):
        out.append(dict(zip(g.nodes, values[lo:hi].tolist())))
    return out


def nonconverged(fn, *args):
    """fn(*args) and the number of NonConvergenceWarnings it emitted."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    return out, sum(issubclass(w.category, NonConvergenceWarning)
                    for w in caught)


def run_batch(graphs, max_iter):
    """Each graph's four per-node dicts from one batch, the batch's
    aggregates, and the warnings of each of the two eigenvector runs."""
    b = cg._Batch([g.graph for g in graphs])
    ev, ev_warned = nonconverged(cg._eigenvector, b, max_iter)
    got = [per_node(b, graphs, values) for values in (
        cg._betweenness(b), ev, cg._clustering(b),
        cg._avg_neighbor_degree(b))]
    agg, agg_warned = nonconverged(
        cg.aggregates, [g.graph for g in graphs], max_iter)
    return got, agg, (ev_warned, agg_warned)


def run_alone(graph, max_iter):
    ev, warned = nonconverged(by_name, cg.eigenvector, graph, max_iter)
    return [by_name(cg.betweenness, graph), ev, by_name(cg.clustering, graph),
            by_name(cg.avg_neighbor_degree, graph)], warned


class TestBatchEqualsAlone:
    @pytest.mark.parametrize("max_iter", [1000, 12])
    def test_mixed_batch(self, max_iter):
        graphs = mixed_batch()
        got, agg, batch_warned = run_batch(graphs, max_iter)
        warned = 0
        for i, g in enumerate(graphs):
            alone, n_warned = run_alone(g, max_iter)
            warned += n_warned
            for k in range(4):
                assert list(got[k][i].items()) == list(alone[k].items()), \
                    (i, METRICS[k].__name__)
            want = [0.0] * 8
            if g.nodes:
                want = [f(np.fromiter(d.values(), float)) for d in alone
                        for f in (np.mean, np.max)]
            assert agg[i].tolist() == want, i
        assert batch_warned == (warned, warned)
        if max_iter == 12:  # the long path stops early, the triangle not
            assert 0 < warned < sum(len(g.nodes) >= 2 for g in graphs)
        else:
            assert warned == 0

    def test_graphs_larger_than_one_step(self):
        # 100 nodes: each step holds fewer sources than the graph has
        rng = np.random.default_rng(11)
        big = random_connected_graph(rng, 100)
        assert len(big.nodes) ** 2 > cg._CELLS
        graphs = [big, graph_from_edges([("a", "b"), ("b", "c")]), big]
        got, _, _ = run_batch(graphs, 1000)
        ref, _ = both(big.nodes, big.edges)
        want = reference_betweenness(ref)
        assert list(got[0][0].items()) == list(want.items())
        assert got[0][2] == got[0][0]


def parallel_chain(widths):
    """Joints in a row, joint i joined to joint i + 1 through `widths[i]`
    nodes of its own: the product of the widths is the number of shortest
    paths from one end to the other."""
    edges = []
    for i, width in enumerate(widths):
        for side in range(width):
            mid = f"m{i:03d}_{side}"
            edges += [(f"v{i:03d}", mid), (mid, f"v{i + 1:03d}")]
    return graph_from_edges(edges)


DIAMONDS = [2] * 54  # 163 nodes, 2^54 paths
ODD_WIDTHS = [3, 5, 7] * 12  # 217 nodes, 105^12 paths


class TestExactPathCounts:
    @pytest.mark.parametrize("widths", [DIAMONDS, ODD_WIDTHS])
    def test_more_paths_than_float64_counts_exactly(self, widths):
        g = parallel_chain(widths)
        assert np.prod(widths, dtype=object) > 2 ** 53
        ref, _ = both(g.nodes, g.edges)
        want = reference_betweenness(ref)
        assert list(by_name(cg.betweenness, g).items()) == list(want.items())

    def test_float64_path_counts_would_differ(self, monkeypatch):
        # powers of two divide exactly in float64; 105^12 paths do not
        g = parallel_chain(ODD_WIDTHS)
        ref, _ = both(g.nodes, g.edges)
        monkeypatch.setattr(cg, "_EXACT_PATHS", float("inf"))
        assert by_name(cg.betweenness, g) != reference_betweenness(ref)


class TestIngestUsesTheBatch:
    @pytest.mark.parametrize("cpus", [ONE_CPU, TWO_CPUS])
    def test_golden_matrices_without_the_one_graph_functions(
            self, cpus, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("one-graph entry point called")
        for name in ("betweenness", "eigenvector", "clustering",
                     "avg_neighbor_degree"):
            monkeypatch.setattr(cg, name, refuse)
        monkeypatch.setattr(ft, "extract", refuse)
        sizes = []
        real = cg.aggregates
        monkeypatch.setattr(cg, "aggregates",
                            lambda graphs: sizes.append(len(graphs))
                            or real(graphs))
        use_cpus(monkeypatch, cpus)
        for name, (profiles, count, flags, shape, sha, _) in GOLDEN.items():
            out = tmp_path / name
            wg.generate_corpus(wg.profiles_by_name(profiles), count, 7, out,
                               **flags)
            m = ft.load_matrix(out, strict=False)
            assert m.X.shape == shape
            assert hashlib.sha256(m.X.tobytes()).hexdigest() == sha
        # this process's batches hold more than one trace
        assert max(sizes) > 1

    def test_a_batch_of_kernel_size_graphs_stays_small(self, tmp_path):
        # betweenness holds about _CELLS sources x nodes, and arcs, at a
        # time: on a batch of two graphs of ~900 names and ~4,000 edges
        # each, the working set stays near the batch's own index arrays,
        # where all sources at once would need about 900 times the arcs
        wg.generate_corpus(wg.profiles_by_name("scale"), 1, 7, tmp_path,
                           n_root_calls=600)
        graphs = [cg.sample_graph(tp.load_sample(p, strict=True))
                  for p in tp.trace_paths(tmp_path)]
        assert len(graphs) == 2
        assert all(850 <= g.n <= 1000 and len(g.keys) // 8 > 3500
                   for g in graphs)
        tracemalloc.start()
        try:
            cg.aggregates(graphs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_500_000, peak

"""Helpers shared by the tests.

The CPU count is set by patching `os.sched_getaffinity`, which
`workers.map_forked` reads to choose its number of workers; no test asks
for more than 2.

A parsed trace is columns; `call_records` rebuilds its calls as trees of
`CallRecord`s, the form the reference parser returns and `ftracekit parse`
writes, so that every records comparison goes through one helper.  A call
graph is a packed `Graph`; `graph_from_edges` makes one from named edges,
and `by_name` keys a one-graph metric's values by node name.
"""

import os
from typing import NamedTuple

import pytest

from ftracekit import call_graph as cg
from ftracekit.trace_parser import CallRecord

ONE_CPU, TWO_CPUS = {0}, {0, 1}


def use_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def call_records(sample) -> dict[int, list[CallRecord]]:
    """The sample's calls as a forest of CallRecords per CPU, CPUs in
    ascending order: a call's depth is its parent's plus one, and its
    parent_name is its parent's name."""
    forests = {}
    for cpu in sorted(sample.cpus):
        recs, forests[cpu] = [], []
        for nid, p, *times in zip(*sample.cpus[cpu]):
            parent = recs[p] if p >= 0 else None
            rec = CallRecord(
                sample.names[nid], cpu, parent.depth + 1 if parent else 0,
                *times, parent.name if parent else None)
            (parent.children if parent else forests[cpu]).append(rec)
            recs.append(rec)
    return forests


def walk(roots) -> list[CallRecord]:
    """The records of the trees under `roots`, in pre-order, without
    recursion."""
    out, stack = [], list(reversed(roots))
    while stack:
        rec = stack.pop()
        out.append(rec)
        stack += reversed(rec.children)
    return out


def preorder(sample) -> list[CallRecord]:
    """Every call record of the sample, CPUs in ascending order, each
    forest in pre-order."""
    return walk([root for roots in call_records(sample).values()
                 for root in roots])


class NamedGraph(NamedTuple):
    """A call graph by function names: its nodes sorted, the (caller,
    callee) edges it was made from, and the Graph the metrics take."""
    nodes: list[str]
    edges: list[tuple[str, str]]
    graph: cg.Graph


def graph_from_edges(edges, extra_nodes=()):
    edges = list(edges)
    nodes = sorted({v for e in edges for v in e} | set(extra_nodes))
    index = {v: i for i, v in enumerate(nodes)}
    return NamedGraph(nodes, edges, cg._graph(
        len(nodes), [(index[a], index[b]) for a, b in edges]))


def by_name(metric, g, *args):
    """A one-graph metric's per-node values keyed by node name."""
    return dict(zip(g.nodes, metric(g.graph, *args).tolist()))

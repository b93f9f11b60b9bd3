"""In-memory span tracing of ftracekit's public functions, from outside.

`Tracer.installed()` replaces every public function and every public
method of every `ftracekit` module with a wrapper that records one span
(name, parent, start, end) per call, and puts the originals back on exit.
Nothing inside `src/ftracekit` changes.  Spans live in a list and are
written out by the caller when the benchmark ends.

Counts (lines parsed, graph nodes, tree nodes, ...) are read from a call's
arguments and return value after its span has closed.  The reading is
recorded as a `trace.count` child span, so it is charged to
`trace.count_s` and never to the layer that made the call.  Likewise the
intervals the speed probe (speed.py) ran inside a span are taken out of
its self time and charged to `trace.probe_s`.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import math
import pkgutil
import bisect
import time
import warnings
from collections import Counter

# Per-element helpers that run once per generated call or printed line: a
# span around them would cost more than their body and swamp the layer above.
NOT_WRAPPED = frozenset({"workloadgen.GeneratorBookkeeping.note",
                         "trace_parser.overhead_marker"})

# A span's self time is charged to the metric of the nearest span on its
# ancestor path (itself included) whose name appears here.  Self time with
# no such ancestor is charged to "trace.other_s".
TIMED = {
    "workloadgen.generate_corpus": "workloadgen.generate_s",
    "trace_parser.load_corpus": "trace_parser.load_s",
    "trace_parser.load_sample": "trace_parser.load_s",
    "trace_parser.parse_trace": "trace_parser.parse_s",
    "call_graph.build_graph": "call_graph.build_s",
    "call_graph.betweenness": "call_graph.betweenness_s",
    "call_graph.eigenvector": "call_graph.eigenvector_s",
    "call_graph.clustering": "call_graph.clustering_s",
    "call_graph.avg_neighbor_degree": "call_graph.avg_nbr_deg_s",
    "features.build_vocabulary": "features.vocab_s",
    "features.extract_matrix": "features.extract_s",
    "features.extract": "features.extract_s",
    "features.unseen_functions": "features.extract_s",
    "features.minmax_fit_transform": "features.scale_s",
    "features.minmax_apply": "features.scale_s",
    "features.zscore_fit_transform": "features.scale_s",
    "features.zscore_apply": "features.scale_s",
    "selection.chi2_scores": "selection.chi2_s",
    "selection.forest_importance": "selection.forest_importance_s",
    "learners.train": "learners.train_s",
    "learners.OneVsRest.fit": "learners.train_s",
    "learners.RegressionTree.fit": "learners.regtree_fit_s",
    "learners.GradientBoosting.fit": "learners.boosting_fit_s",
    "learners.DecisionTree.fit": "learners.dtree_fit_s",
    "learners.RandomForest.fit": "learners.forest_fit_s",
    "learners.Model.predict": "learners.predict_s",
    "learners.Model.scores": "learners.predict_s",
    "learners.evaluate": "learners.metrics_s",
    "learners.evaluate_multilabel": "learners.metrics_s",
    "learners.binary_metrics": "learners.metrics_s",
    "learners.multilabel_f1": "learners.metrics_s",
    "experiments.grid_search": "experiments.grid_search_s",
    "experiments.learning_curve": "experiments.learning_curve_s",
    "experiments.perturbation_study": "experiments.perturbation_s",
    "experiments.ablation_study": "experiments.ablation_s",
    "experiments.balance_by_resampling": "experiments.balance_s",
    "experiments.corpus_digest": "experiments.digest_s",
    "experiments.run_experiment_1": "experiments.self_s",
    "experiments.run_experiment_2": "experiments.self_s",
    "cli.main": "cli.self_s",
}
TIME_METRICS = sorted(set(TIMED.values())
                      | {"trace.count_s", "trace.probe_s", "trace.other_s"})
CALL_GRAPH_TIMES = ("call_graph.build_s", "call_graph.betweenness_s",
                    "call_graph.eigenvector_s", "call_graph.clustering_s",
                    "call_graph.avg_nbr_deg_s")

COUNT_SPAN = "trace.count"


def _tree_nodes(node) -> int:
    n, stack = 0, [node]
    while stack:
        cur = stack.pop()
        n += 1
        if cur.value is None:
            stack += (cur.left, cur.right)
    return n


def _count_lines(path) -> int:
    with open(path, "rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 16), b""))


def _halvings(booster) -> int:
    """Step halvings in a fitted GradientBoosting: each round's scale is
    learning_rate * 0.5**k, or 0 once all 40 halvings failed."""
    total = 0
    for scale in booster.scales:
        total += 40 if scale == 0 else round(math.log2(booster.learning_rate / scale))
    return total


def _count_sample(c, args, sample):
    c["trace_parser.lines"] += _count_lines(args[0])
    c["trace_parser.warnings"] += len(sample.warnings)


def _count_graph(c, args, graph):
    c["call_graph.nodes"] += len(graph.nodes)
    c["call_graph.edges"] += len(graph.edges)
    c["call_graph.graphs"] += 1


def _count_regtree(c, args, tree):
    c["learners.regtrees"] += 1
    c["learners.tree_nodes"] += _tree_nodes(tree.root)


def _count_dtree(c, args, tree):
    c["learners.dtrees"] += 1
    c["learners.tree_nodes"] += _tree_nodes(tree.root)


def _count_booster(c, args, booster):
    c["learners.boost_step_halvings"] += _halvings(booster)


def _count_predict(c, args, result):
    c["learners.predict_rows"] += len(args[1])


def _count_train(c, args, model):
    c["learners.train_calls"] += 1


def _count_vocab(c, args, vocab):
    c["features.columns"] += len(vocab.columns)


def _count_corpus(c, args, manifest):
    c["workloadgen.traces"] += len(manifest["entries"])
    c["workloadgen.calls"] += sum(e["total_calls"] for e in manifest["entries"])


# name -> hook(counts, args, return value), run after the span closes
COUNTED = {
    "trace_parser.load_sample": _count_sample,
    "call_graph.build_graph": _count_graph,
    "learners.RegressionTree.fit": _count_regtree,
    "learners.DecisionTree.fit": _count_dtree,
    "learners.GradientBoosting.fit": _count_booster,
    "learners.Model.predict": _count_predict,
    "learners.Model.scores": _count_predict,
    "learners.train": _count_train,
    "features.build_vocabulary": _count_vocab,
    "workloadgen.generate_corpus": _count_corpus,
}
COUNT_METRICS = ("trace_parser.lines", "trace_parser.warnings",
                 "call_graph.nodes", "call_graph.edges", "call_graph.graphs",
                 "call_graph.nonconverged", "learners.regtrees",
                 "learners.dtrees", "learners.tree_nodes",
                 "learners.boost_step_halvings", "learners.predict_rows",
                 "learners.train_calls", "features.columns",
                 "workloadgen.traces", "workloadgen.calls")


def unit_of(metric: str) -> str:
    if metric in COUNT_METRICS or metric == "trace.spans":
        return "count"
    if metric.endswith("_per_s"):
        return "1/s"
    return "ms" if metric.endswith("ms_per_trace") else "s"


def ftracekit_modules():
    """(short name, module) for every module of the ftracekit package."""
    import ftracekit
    return [(info.name, importlib.import_module(f"ftracekit.{info.name}"))
            for info in pkgutil.iter_modules(ftracekit.__path__)]


def _plain_function(obj) -> bool:
    # a generator returns before its body runs, so its span would be empty
    return inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj)


def _targets():
    """Yield (owner, attribute, span name, original) for every public
    function and plain public method defined in an ftracekit module."""
    for short, mod in ftracekit_modules():
        for attr, obj in vars(mod).items():
            if attr.startswith("_"):
                continue
            if _plain_function(obj) and obj.__module__ == mod.__name__:
                yield mod, attr, f"{short}.{attr}", obj
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for mattr, m in vars(obj).items():
                    # properties, static and class methods stay unwrapped
                    if mattr.startswith("_") or not _plain_function(m):
                        continue
                    yield obj, mattr, f"{short}.{attr}.{mattr}", m


class Tracer:
    """Holds the spans and counts of everything run while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        hook = COUNTED.get(name)

        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                cidx = self._open(COUNT_SPAN)
                try:
                    hook(self.counts, args, result)
                finally:
                    self._close(cidx)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap ftracekit's public callables; restore them on exit.

        A module that imported a function by name (`from .x import f`)
        holds its own reference, so every module namespace is patched."""
        from ftracekit.errors import NonConvergenceWarning
        wrappers = {}
        restore = []
        try:
            for owner, attr, name, fn in _targets():
                if name not in NOT_WRAPPED:
                    wrappers[fn] = self._wrap(name, fn)
                    restore.append((owner, attr, fn))
                    setattr(owner, attr, wrappers[fn])
            for _, mod in ftracekit_modules():
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        restore.append((mod, attr, obj))
                        setattr(mod, attr, wrappers[obj])
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", NonConvergenceWarning)
                yield self
        finally:
            for owner, attr, fn in reversed(restore):
                setattr(owner, attr, fn)
        self.counts["call_graph.nonconverged"] += sum(
            issubclass(w.category, NonConvergenceWarning) for w in caught)

    # -- analysis ---------------------------------------------------------

    def self_times(self, pauses=()) -> list[float]:
        """Each span's duration minus the durations of its direct children
        and of the pauses, (start, end) intervals of time spent outside
        the program, that fell directly inside it."""
        own = [e - s for s, e in zip(self.starts, self.ends)]
        for i, p in enumerate(self.parents):
            if p >= 0:
                own[p] -= self.ends[i] - self.starts[i]
        for start, end in pauses:
            # spans are in opening order: the innermost one holding the
            # pause is the last opened before it, or one of its ancestors
            i = bisect.bisect_right(self.starts, start) - 1
            while i >= 0 and self.ends[i] < end:
                i = self.parents[i]
            if i >= 0:
                own[i] -= end - start
        return own

    def layer_times(self, pauses=()) -> dict[str, float]:
        """Self time per metric of TIMED, charged by nearest named ancestor;
        the pauses are charged to trace.probe_s."""
        owner: list[str] = []
        for name, p in zip(self.names, self.parents):
            if name == COUNT_SPAN:
                owner.append("trace.count_s")
            elif name in TIMED:
                owner.append(TIMED[name])
            else:
                owner.append(owner[p] if p >= 0 else "trace.other_s")
        out = dict.fromkeys(TIME_METRICS, 0.0)
        for metric, t in zip(owner, self.self_times(pauses)):
            out[metric] += t
        out["trace.probe_s"] = sum(end - start for start, end in pauses)
        return out

    def root_time(self) -> float:
        return sum(e - s for s, e, p in zip(self.starts, self.ends, self.parents)
                   if p < 0)

    def span_records(self) -> list[dict]:
        return [{"id": i, "name": n, "parent": p, "start": s, "end": e}
                for i, (n, p, s, e) in enumerate(
                    zip(self.names, self.parents, self.starts, self.ends))]


def layer_metrics(tracer: Tracer, pauses=()) -> dict[str, float]:
    """Per-layer times, counts and the ratios derived from them."""
    out: dict[str, float] = dict(tracer.layer_times(pauses))
    for name in COUNT_METRICS:
        out[name] = tracer.counts.get(name, 0)
    graphs = out.pop("call_graph.graphs")
    out["call_graph.ms_per_trace"] = (
        1e3 * sum(out[m] for m in CALL_GRAPH_TIMES) / graphs if graphs else 0.0)
    out["trace_parser.lines_per_s"] = (
        out["trace_parser.lines"] / out["trace_parser.parse_s"]
        if out["trace_parser.parse_s"] else 0.0)
    out["learners.predict_rows_per_s"] = (
        out["learners.predict_rows"] / out["learners.predict_s"]
        if out["learners.predict_s"] else 0.0)
    out["trace.spans"] = len(tracer.names)
    return out


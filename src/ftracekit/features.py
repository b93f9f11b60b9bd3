"""Feature extraction: samples -> fixed-width, group-tagged matrices.

Column layout (deterministic given the corpus):
  per function f (sorted):  count_<f> (system), total_dur_<f> (temporal)
  graph aggregates:         {betweenness,eigenvector,clustering,avg_nbr_deg}_{mean,max}
  temporal globals:         mean_call_duration, std_call_duration, mean_intercall_interval
  system globals:           read_count, write_count, read_bytes, write_bytes, total_calls
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import call_graph
from .errors import EmptyCorpus
from .trace_parser import TraceSample, load_sample, trace_paths

GROUP_GRAPH = "graph"
GROUP_TEMPORAL = "temporal"
GROUP_SYSTEM = "system"

GRAPH_AGGREGATE_COLUMNS = [
    "betweenness_mean", "betweenness_max",
    "eigenvector_mean", "eigenvector_max",
    "clustering_mean", "clustering_max",
    "avg_nbr_deg_mean", "avg_nbr_deg_max",
]
TEMPORAL_GLOBAL_COLUMNS = [
    "mean_call_duration", "std_call_duration", "mean_intercall_interval",
]
SYSTEM_GLOBAL_COLUMNS = [
    "read_count", "write_count", "read_bytes", "write_bytes", "total_calls",
]


@dataclass(frozen=True)
class FeatureColumn:
    name: str
    group: str


@dataclass
class FeatureVocabulary:
    function_names: list[str]
    columns: list[FeatureColumn]

    @property
    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def to_json(self) -> str:
        return json.dumps({
            "functions": self.function_names,
            "columns": [{"name": c.name, "group": c.group} for c in self.columns],
        }, indent=2)


def infer_group(name: str) -> str:
    """Recover a column's ablation group from its name (CSV round-trips)."""
    if name.startswith("count_"):
        return GROUP_SYSTEM
    if name.startswith("total_dur_"):
        return GROUP_TEMPORAL
    if name in GRAPH_AGGREGATE_COLUMNS:
        return GROUP_GRAPH
    if name in TEMPORAL_GLOBAL_COLUMNS:
        return GROUP_TEMPORAL
    if name in SYSTEM_GLOBAL_COLUMNS:
        return GROUP_SYSTEM
    raise ValueError(f"cannot infer feature group for column {name!r}")


@dataclass(frozen=True)
class ScalingState:
    """Per-column statistics fit on some rows, applied to any rows: minmax
    maps the fitted range onto [0,1] and clips, zscore centres and divides
    by the std; constant columns map to 0."""
    kind: str  # "minmax" | "zscore"
    a: np.ndarray  # min or mean per column
    b: np.ndarray  # max or std per column

    @classmethod
    def fit(cls, kind: str, m: "FeatureMatrix") -> "ScalingState":
        if kind == "minmax":
            return cls(kind, m.X.min(axis=0), m.X.max(axis=0))
        if kind == "zscore":
            return cls(kind, m.X.mean(axis=0), m.X.std(axis=0))
        raise ValueError(f"unknown scaling {kind!r}")

    def apply(self, m: "FeatureMatrix") -> "FeatureMatrix":
        span = self.b - self.a if self.kind == "minmax" else self.b
        with np.errstate(invalid="ignore", divide="ignore"):
            X = (m.X - self.a) / span
        X[:, span == 0] = 0.0
        if self.kind == "minmax":
            X = np.clip(X, 0.0, 1.0)
        return replace(m, X=X)


@dataclass
class FeatureMatrix:
    vocab: FeatureVocabulary
    X: np.ndarray
    labels: Optional[np.ndarray] = None        # binary 0/1 per row
    tasks: Optional[list[str]] = None          # multi-label target names
    warnings: list[str] = field(default_factory=list)

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]

    def subset_rows(self, idx) -> "FeatureMatrix":
        idx = np.asarray(idx)
        return FeatureMatrix(
            vocab=self.vocab,
            X=self.X[idx],
            labels=self.labels[idx] if self.labels is not None else None,
            tasks=[self.tasks[i] for i in idx] if self.tasks is not None else None,
        )

    def subset_columns(self, names: list[str]) -> "FeatureMatrix":
        pos = {c.name: i for i, c in enumerate(self.vocab.columns)}
        try:
            idx = [pos[n] for n in names]
        except KeyError as exc:
            raise ValueError(f"no feature column {exc.args[0]!r}") from None
        vocab = FeatureVocabulary(
            function_names=self.vocab.function_names,
            columns=[self.vocab.columns[i] for i in idx])
        return FeatureMatrix(vocab=vocab, X=self.X[:, idx],
                             labels=self.labels, tasks=self.tasks)


@dataclass
class TraceSummary:
    """What one trace gives its feature row, without its call records:
    each function name's call count and total duration, summed in
    pre-order; the trace-level values (graph aggregates, temporal and
    system globals, in column order); and the parse facts the matrix
    reports."""
    counts: dict[str, float]
    durations: dict[str, float]
    trace_values: list[float]
    n_warnings: int
    has_abstime: bool
    label: Optional[int]
    task: Optional[str]


def extract(sample: TraceSample) -> TraceSummary:
    """Summarise one parsed trace; no vocabulary is needed."""
    counts: dict[str, float] = {}
    durs: dict[str, float] = {}
    all_durs: list[float] = []
    starts: list[float] = []
    records = sample.preorder
    total_calls = len(records)
    for rec in records:
        d = rec.duration_us or 0.0  # unknown durations count as 0
        all_durs.append(d)
        if rec.start_time is not None:
            starts.append(rec.start_time)
        counts[rec.name] = counts.get(rec.name, 0.0) + 1
        durs[rec.name] = durs.get(rec.name, 0.0) + d

    graph = call_graph.build_graph(sample)
    if graph.nodes:
        agg = []
        for metric in (call_graph.betweenness, call_graph.eigenvector,
                       call_graph.clustering, call_graph.avg_neighbor_degree):
            vals = list(metric(graph).values())
            agg += [float(np.mean(vals)), float(np.max(vals))]
    else:
        agg = [0.0] * len(GRAPH_AGGREGATE_COLUMNS)

    if all_durs:
        mean_dur = float(np.mean(all_durs))
        std_dur = float(np.std(all_durs))
    else:
        mean_dur = std_dur = 0.0
    if len(starts) >= 2:
        s = np.sort(np.asarray(starts))
        intercall = float(np.mean(np.diff(s))) * 1e6  # us
    else:
        intercall = 0.0  # abstime absent: flagged by extract_matrix

    io = sample.io_meta
    system = [
        float(io.read_count) if io else 0.0,
        float(io.write_count) if io else 0.0,
        float(io.read_bytes) if io else 0.0,
        float(io.write_bytes) if io else 0.0,
        float(total_calls),
    ]
    return TraceSummary(
        counts=counts, durations=durs,
        trace_values=agg + [mean_dur, std_dur, intercall] + system,
        n_warnings=len(sample.warnings), has_abstime=sample.has_abstime,
        label=sample.label, task=sample.task_name)


def build_vocabulary(summaries: list[TraceSummary]) -> FeatureVocabulary:
    """Column universe from training summaries; deterministic ordering."""
    if not summaries:
        raise EmptyCorpus("cannot build a vocabulary from an empty corpus")
    names: set[str] = set()
    for summary in summaries:
        names.update(summary.counts)
    functions = sorted(names)
    columns: list[FeatureColumn] = []
    for f in functions:
        columns.append(FeatureColumn(f"count_{f}", GROUP_SYSTEM))
        columns.append(FeatureColumn(f"total_dur_{f}", GROUP_TEMPORAL))
    columns += [FeatureColumn(n, GROUP_GRAPH) for n in GRAPH_AGGREGATE_COLUMNS]
    columns += [FeatureColumn(n, GROUP_TEMPORAL) for n in TEMPORAL_GLOBAL_COLUMNS]
    columns += [FeatureColumn(n, GROUP_SYSTEM) for n in SYSTEM_GLOBAL_COLUMNS]
    return FeatureVocabulary(function_names=functions, columns=columns)


def extract_matrix(summaries: list[TraceSummary],
                   vocab: FeatureVocabulary) -> FeatureMatrix:
    """One row per summary in `vocab`'s layout: functions absent from a
    trace count 0, and names outside `vocab` are ignored and counted."""
    if not summaries:
        raise EmptyCorpus("no samples to extract")
    fpos = {f: i for i, f in enumerate(vocab.function_names)}
    nf = len(vocab.function_names)
    X = np.zeros((len(summaries), len(vocab.columns)))
    n_unseen = 0
    for row, s in zip(X, summaries):
        for name, count in s.counts.items():
            i = fpos.get(name)
            if i is None:
                n_unseen += 1
            else:
                row[2 * i] = count
                row[2 * i + 1] = s.durations[name]
        row[2 * nf:] = s.trace_values
    warnings: list[str] = []
    n_parse = sum(s.n_warnings for s in summaries)
    if n_parse:
        warnings.append(f"parser warnings: {n_parse}")
    if n_unseen:
        warnings.append(f"coverage: {n_unseen} unseen function names ignored")
    if not all(s.has_abstime for s in summaries):
        warnings.append("abstime absent for some samples; "
                        "mean_intercall_interval is 0 there")
    labels = None
    if all(s.label is not None for s in summaries):
        labels = np.array([s.label for s in summaries], dtype=int)
    tasks = None
    if all(s.task is not None for s in summaries):
        tasks = [s.task for s in summaries]
    return FeatureMatrix(vocab=vocab, X=X, labels=labels, tasks=tasks,
                         warnings=warnings)


def load_matrix(corpus_dir, strict: bool) -> FeatureMatrix:
    """Parse and summarise each trace under a corpus directory in turn,
    holding one parsed trace at a time, then build the vocabulary and
    one row per trace."""
    summaries = [extract(load_sample(path, strict))
                 for path in trace_paths(corpus_dir)]
    return extract_matrix(summaries, build_vocabulary(summaries))


def _csv_cell(v) -> str:
    if isinstance(v, float):
        return f"{v:.9g}"
    if isinstance(v, str) and ("," in v or "\r" in v or "\n" in v):
        # it would split its row or the table
        raise ValueError(f"cannot write {v!r} to a CSV table: it holds a "
                         "comma or a line break")
    return str(v)


def _write_table_csv(path, header: list[str], rows) -> None:
    """Comma-separated table: floats as `.9g`, everything else as `str`;
    a column name or text cell holding a comma or line break is refused."""
    lines = [",".join(map(_csv_cell, header))]
    for row in rows:
        lines.append(",".join(map(_csv_cell, row)))
    Path(path).write_text("\n".join(lines) + "\n")


def write_csv(m: FeatureMatrix, path) -> None:
    labels = ([int(v) for v in m.labels] if m.labels is not None
              else [""] * m.n_rows)
    tasks = m.tasks if m.tasks is not None else [""] * m.n_rows
    _write_table_csv(path, m.vocab.column_names + ["label", "task"],
                     (list(x) + [lab, task]
                      for x, lab, task in zip(m.X, labels, tasks)))


def read_csv(path) -> FeatureMatrix:
    """Read a `write_csv` file; column groups come from the names."""
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    if header[-2:] != ["label", "task"]:
        raise ValueError("feature CSV must end with label,task columns")
    names = header[:-2]
    functions = sorted({n[len("count_"):] for n in names
                        if n.startswith("count_")})
    vocab = FeatureVocabulary(
        function_names=functions,
        columns=[FeatureColumn(n, infer_group(n)) for n in names])
    rows, labels, tasks = [], [], []
    for line in lines[1:]:
        cells = line.split(",")
        rows.append([float(c) for c in cells[:-2]])
        labels.append(cells[-2])
        tasks.append(cells[-1])
    X = np.asarray(rows, dtype=float)
    lab = np.array([int(v) for v in labels], dtype=int) if all(labels) else None
    tk = list(tasks) if all(tasks) else None
    return FeatureMatrix(vocab=vocab, X=X, labels=lab, tasks=tk)

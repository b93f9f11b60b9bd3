"""Feature extraction: samples -> fixed-width matrices of named columns.

Column layout (deterministic given the corpus):
  per function f (sorted):  count_<f> (system), total_dur_<f> (temporal)
  graph aggregates:         {betweenness,eigenvector,clustering,avg_nbr_deg}_{mean,max}
  temporal globals:         mean_call_duration, std_call_duration, mean_intercall_interval
  system globals:           read_count, write_count, read_bytes, write_bytes, total_calls

A column is its name: its group (`infer_group`) and function follow from
it.  `load_matrix` reads each trace once, for its row and the digest, and
maps the traces over the usable CPUs.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import call_graph
from .errors import EmptyCorpus
from .trace_parser import TraceSample, load_sample, trace_paths
from .workers import map_forked

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
# traces whose graph metrics `load_matrix` computes together, at most; a
# corpus is cut into at least _BATCHES batches, so a small one still
# gives that many CPUs work
_BATCH, _BATCHES = 64, 8


@dataclass
class FeatureVocabulary:
    columns: list[str]  # ordered column names

    @property
    def function_names(self) -> list[str]:
        """The functions of the count_<f> columns, in column order."""
        return [n[len("count_"):] for n in self.columns
                if n.startswith("count_")]

    def to_json(self) -> str:
        return json.dumps({
            "functions": self.function_names,
            "columns": [{"name": n, "group": infer_group(n)}
                        for n in self.columns],
        }, indent=2)


def infer_group(name: str) -> str:
    """A column's ablation group, from its name."""
    if name.startswith("count_") or name in SYSTEM_GLOBAL_COLUMNS:
        return GROUP_SYSTEM
    if name.startswith("total_dur_") or name in TEMPORAL_GLOBAL_COLUMNS:
        return GROUP_TEMPORAL
    if name in GRAPH_AGGREGATE_COLUMNS:
        return GROUP_GRAPH
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
    data_digest: Optional[str] = None  # sha256 of the traces' sha256s

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
        pos = {n: i for i, n in enumerate(self.vocab.columns)}
        try:
            idx = [pos[n] for n in names]
        except KeyError as exc:
            raise ValueError(f"no feature column {exc.args[0]!r}") from None
        return FeatureMatrix(vocab=FeatureVocabulary(list(names)),
                             X=self.X[:, idx],
                             labels=self.labels, tasks=self.tasks)


@dataclass
class TraceSummary:
    """What one trace gives its feature row, without its call records:
    each function name's call count and total duration, summed in
    pre-order; the trace-level values (graph aggregates, temporal and
    system globals, in column order); and the parse facts the matrix
    reports, with the sha256 of the trace file when it was read from one."""
    counts: dict[str, float]
    durations: dict[str, float]
    trace_values: list[float]
    n_warnings: int
    has_abstime: bool
    label: Optional[int]
    task: Optional[str]
    sha256: Optional[bytes]


def _summary(sample: TraceSample) -> TraceSummary:
    """Summarise one parsed trace from its columns, all but its graph
    aggregates, which `trace_values` leaves as zeros for `_summarise`.  Each
    column is joined over the CPUs in ascending order, so every sum runs
    over the calls in pre-order, left to right, as `np.bincount` adds; an
    unknown duration counts as 0."""
    cols = [sample.cpus[cpu] for cpu in sorted(sample.cpus)]
    ids = np.array([i for c in cols for i in c.ids], np.intp)
    all_durs = np.array([d or 0.0 for c in cols for d in c.durations])
    starts = np.array([t for c in cols for t in c.starts if t is not None])
    names, n = sample.names, len(sample.names)
    counts = dict(zip(names, map(float, np.bincount(ids, minlength=n))))
    durs = dict(zip(names, np.bincount(ids, all_durs, minlength=n).tolist()))

    if len(all_durs):
        mean_dur = float(np.mean(all_durs))
        std_dur = float(np.std(all_durs))
    else:
        mean_dur = std_dur = 0.0
    if len(starts) >= 2:
        s = np.sort(starts)
        intercall = float(np.mean(np.diff(s))) * 1e6  # us
    else:
        intercall = 0.0  # abstime absent: flagged by extract_matrix

    io = sample.io_meta
    system = [
        float(io.read_count) if io else 0.0,
        float(io.write_count) if io else 0.0,
        float(io.read_bytes) if io else 0.0,
        float(io.write_bytes) if io else 0.0,
        float(len(all_durs)),
    ]
    return TraceSummary(
        counts=counts, durations=durs,
        trace_values=[0.0] * len(GRAPH_AGGREGATE_COLUMNS)
        + [mean_dur, std_dur, intercall] + system,
        n_warnings=len(sample.warnings), has_abstime=sample.has_abstime,
        label=sample.label, task=sample.task_name, sha256=sample.sha256)


def _summarise(samples) -> list[TraceSummary]:
    """Summaries of parsed traces, taken from an iterable one at a time:
    only each trace's summary and packed graph are kept, and the
    graph aggregates of all of them are computed as one batch."""
    summaries, graphs = [], []
    for sample in samples:
        summaries.append(_summary(sample))
        graphs.append(call_graph.sample_graph(sample))
        del sample  # before the next one is parsed
    for s, agg in zip(summaries, call_graph.aggregates(graphs).tolist()):
        s.trace_values[:len(agg)] = agg
    return summaries


def extract(sample: TraceSample) -> TraceSummary:
    """Summarise one parsed trace; no vocabulary is needed."""
    return _summarise([sample])[0]


def build_vocabulary(summaries: list[TraceSummary]) -> FeatureVocabulary:
    """Column universe from training summaries; deterministic ordering."""
    if not summaries:
        raise EmptyCorpus("cannot build a vocabulary from an empty corpus")
    names: set[str] = set()
    for summary in summaries:
        names.update(summary.counts)
    columns = [c for f in sorted(names)
               for c in (f"count_{f}", f"total_dur_{f}")]
    return FeatureVocabulary(columns + GRAPH_AGGREGATE_COLUMNS
                             + TEMPORAL_GLOBAL_COLUMNS + SYSTEM_GLOBAL_COLUMNS)


def extract_matrix(summaries: list[TraceSummary],
                   vocab: FeatureVocabulary) -> FeatureMatrix:
    """One row per summary in `vocab`'s layout: functions absent from a
    trace count 0, and names outside `vocab` are ignored and counted."""
    if not summaries:
        raise EmptyCorpus("no samples to extract")
    fpos = {f: i for i, f in enumerate(vocab.function_names)}
    nf = len(fpos)
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
    """Parse and summarise every trace under a corpus directory in
    batches of consecutive traces, striped over the usable CPUs
    (`workers.map_forked`), each process holding one parsed trace at a
    time; then build the vocabulary and one row per trace.  The batches
    are consecutive, so the first trace that fails is the one raised."""
    paths = trace_paths(corpus_dir)
    size = min(_BATCH, -(-len(paths) // _BATCHES))
    batches = map_forked(
        lambda batch: _summarise(load_sample(p, strict) for p in batch),
        [paths[i:i + size] for i in range(0, len(paths), size)])
    summaries = [s for batch in batches for s in batch]
    m = extract_matrix(summaries, build_vocabulary(summaries))
    m.data_digest = hashlib.sha256(
        b"".join(s.sha256 for s in summaries)).hexdigest()
    return m


def _csv_cell(v) -> str:
    if isinstance(v, float):
        return f"{v:.9g}"
    if isinstance(v, str):
        if "," in v or "\r" in v or "\n" in v:
            # it would split its row or the table
            raise ValueError(f"cannot write {v!r} to a CSV table: it holds "
                             "a comma or a line break")
        try:
            v.encode("utf-8")
        except UnicodeEncodeError:
            # a trace byte that is not UTF-8, kept by surrogateescape
            raise ValueError(f"cannot write {v!r} to a CSV table: it is "
                             "not valid UTF-8") from None
    return str(v)


def _table_text(header: list[str], rows) -> str:
    """Comma-separated table: floats as `.9g`, everything else as `str`;
    a column name or text cell holding a comma or line break, or one that
    cannot be written as UTF-8, is refused."""
    lines = [",".join(map(_csv_cell, header))]
    for row in rows:
        lines.append(",".join(map(_csv_cell, row)))
    return "\n".join(lines) + "\n"


def _write_table_csv(path, header: list[str], rows) -> None:
    """`_table_text` written to `path`; a table it refuses opens no file."""
    Path(path).write_text(_table_text(header, rows))


def write_csv(m: FeatureMatrix, path) -> None:
    labels = ([int(v) for v in m.labels] if m.labels is not None
              else [""] * m.n_rows)
    tasks = m.tasks if m.tasks is not None else [""] * m.n_rows
    _write_table_csv(path, m.vocab.columns + ["label", "task"],
                     (list(x) + [lab, task]
                      for x, lab, task in zip(m.X, labels, tasks)))


def read_csv(path) -> FeatureMatrix:
    """Read a `write_csv` file.  Every column name must give a group; the
    file has at least one row, and every row has the header's cell count,
    finite feature cells and a label of 0, 1 or none."""
    lines = Path(path).read_text().splitlines()
    if len(lines) < 2:
        raise ValueError(f"{path}: feature CSV has no data rows")
    header = lines[0].split(",")
    if header[-2:] != ["label", "task"]:
        raise ValueError(f"{path}: feature CSV must end with label,task "
                         "columns")
    names = header[:-2]
    for n in names:
        infer_group(n)  # refuses a name that gives no group
    rows, labels, tasks = [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"{path}, line {lineno}: {len(cells)} cells, "
                             f"the header has {len(header)}")
        if cells[-2] not in ("0", "1", ""):
            raise ValueError(f"{path}, line {lineno}: label must be 0, 1 "
                             f"or empty, not {cells[-2]!r}")
        try:
            row = [float(c) for c in cells[:-2]]
        except ValueError as exc:
            raise ValueError(f"{path}, line {lineno}: {exc}") from None
        for name, cell, v in zip(names, cells, row):
            if not math.isfinite(v):
                raise ValueError(f"{path}, line {lineno}: column {name} "
                                 f"holds {cell!r}, not a finite number")
        rows.append(row)
        labels.append(cells[-2])
        tasks.append(cells[-1])
    X = np.asarray(rows, dtype=float)
    lab = np.array([int(v) for v in labels], dtype=int) if all(labels) else None
    tk = list(tasks) if all(tasks) else None
    return FeatureMatrix(vocab=FeatureVocabulary(names), X=X, labels=lab,
                         tasks=tk)

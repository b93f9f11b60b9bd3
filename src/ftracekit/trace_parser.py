"""Parser for Linux ftrace function_graph text output.

Turns raw trace text into per-CPU forests of nested call records with
durations and parent/child hierarchy.  The parser tolerates interleaved
CPUs, truncated dumps, comment lines and CPU-switch boundary markers.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import re
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Optional

from .errors import EmptyCorpus, MalformedLine, NestingError

# duration thresholds (us) for the kernel's overhead annotation characters
_MARKER_THRESHOLDS = [
    (1_000_000.0, "$"),
    (100_000.0, "@"),
    (10_000.0, "*"),
    (1_000.0, "#"),
    (100.0, "!"),
    (10.0, "+"),
]
OVERHEAD_MARKERS = "".join(m for _, m in reversed(_MARKER_THRESHOLDS))


@dataclass
class IoMeta:
    read_count: int = 0
    write_count: int = 0
    read_bytes: int = 0
    write_bytes: int = 0


@dataclass(slots=True)
class CallRecord:
    name: str
    cpu: int
    depth: int
    duration_us: Optional[float] = None  # None = unknown (truncated entry)
    start_time: Optional[float] = None
    end_time: Optional[float] = None
    parent_name: Optional[str] = None
    children: list["CallRecord"] = field(default_factory=list)

    def walk(self) -> Iterator["CallRecord"]:
        """This record and its descendants in pre-order, with an explicit
        stack, so any nesting depth the parser accepts can be walked."""
        stack = [self]
        while stack:
            rec = stack.pop()
            yield rec
            stack.extend(reversed(rec.children))


@dataclass
class TraceSample:
    records: dict[int, list[CallRecord]] = field(default_factory=dict)
    io_meta: Optional[IoMeta] = None
    label: Optional[int] = None
    task_name: Optional[str] = None
    warnings: list[str] = field(default_factory=list)
    has_abstime: bool = False
    source: Optional[str] = None
    sha256: Optional[bytes] = None  # of the file's bytes, set by load_sample

    @cached_property
    def preorder(self) -> list[CallRecord]:
        """Every record, CPUs in ascending order, each forest in pre-order.

        Walked once, on first use, and shared by every later reader; the
        parser hands over a sample whose forests are complete."""
        return [rec for cpu in sorted(self.records)
                for root in self.records[cpu] for rec in root.walk()]

    def record_count(self) -> int:
        return len(self.preorder)


# line layout:  [abstime |]  cpu)  [comm-pid |]  [marker] [duration us]  |  body
# Each field and body form is written once here.  _LINE_RE chains them into
# one match for the fast path; _parse_line_strict applies them one at a time
# to say which field a malformed line breaks.
_CPU = r"\s*(?:(\d+\.\d+)\s+\|\s*)?(\d+)\)"          # [abstime |] cpu)
_COMM_PID = r"\s*\S+-\d+\s+\|"                        # comm-pid |
_DURATION = (r"\s*(?:[%s]\s*)?(?:(\d+(?:\.\d+)?)\s+us\s*)?\|"
             % re.escape(OVERHEAD_MARKERS))             # [marker] [duration us] |
_EXIT = r"\}\s*;?\s*(?:/\*\s*(.*?)\s*\*/)?"             # } [;] [/* tail */]
_LEAF = r"(\S+)\(\)\s*;"                              # name();
_ENTRY = r"(\S+)\(\)\s*\{"                            # name() {

# the slow path's steps: a column and the rest of the line, or a whole body
_CPU_RE, _COMM_PID_RE, _DURATION_RE = (
    re.compile(p + r"(.*)$") for p in (_CPU, _COMM_PID, _DURATION))
_EXIT_RE, _LEAF_RE, _ENTRY_RE = (re.compile(p) for p in (_EXIT, _LEAF, _ENTRY))

# Every well-formed entry, leaf and exit line in one anchored match, whose
# groups are abstime, cpu, duration, indentation, exit tail, leaf name and
# entry name.  Each field has exactly one way to match, so the fields come
# out as the step-by-step checks of _parse_line_strict take them.  A
# duration selects the leaf and exit forms, its absence the entry form.
# The lookahead refuses lines holding "=>" (boundaries) or a newline.  Any
# line refused here takes the slow path.  Each nesting level indents by the
# kernel's 2 spaces.
_LINE_RE = re.compile(
    r"(?=[^=\n]*(?:=(?!>)[^=\n]*)*\Z)" + _CPU + "(?:" + _COMM_PID + ")?"
    + _DURATION + r"  ((?:  )*)"                        # gap, indentation
    + "(?(3)(?:" + _EXIT + r"|(?!\}|/\*)" + _LEAF + ")"  # exit or leaf
    + r"|(?!\}|/\*)" + _ENTRY + r")\s*\Z")              # entry


def _parse_line_strict(line: str) -> Optional[tuple]:
    """The fields of one physical line of function_graph output: _LINE_RE's
    groups (abstime, cpu, duration_us, depth, exit tail, leaf name, entry
    name) with the numbers converted and the indentation given as a depth.
    None for a comment, a boundary or a /* ... */ body; a malformed line
    raises MalformedLine."""
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    if set(stripped) <= {"-"} or "=>" in stripped:
        # CPU-switch separator emitted by the kernel between task migrations
        return None

    m = _CPU_RE.match(line)
    if not m:
        raise MalformedLine(f"no CPU column: {line!r}", column=0)
    abstime_text, cpu_text, rest = m.groups()
    abstime = float(abstime_text) if abstime_text is not None else None
    try:
        cpu = int(cpu_text)
    except ValueError:  # more digits than int() converts
        raise MalformedLine(f"CPU column of {len(cpu_text)} digits: {line!r}",
                            column=0) from None

    m = _COMM_PID_RE.match(rest)
    if m:
        rest = m.group(1)

    m = _DURATION_RE.match(rest)
    if not m:
        raise MalformedLine(f"no duration/body separator: {line!r}",
                            column=len(line) - len(rest))
    dur_text, body = m.group(1), m.group(2)
    duration_us = float(dur_text) if dur_text is not None else None

    # body starts with a fixed 2-space column gap, then indentation
    if not body.startswith("  "):
        raise MalformedLine(f"body column gap missing: {line!r}")
    body = body[2:]
    leading = len(body) - len(body.lstrip(" "))
    if leading % 2 != 0:
        raise MalformedLine(f"odd indentation ({leading} spaces): {line!r}")
    depth = leading // 2
    content = body.strip()

    if content.startswith("/*"):
        return None

    if content.startswith("}"):
        m = _EXIT_RE.fullmatch(content)
        if not m:
            raise MalformedLine(f"bad exit line: {line!r}")
        if duration_us is None:
            raise MalformedLine(f"exit line without duration: {line!r}")
        return abstime, cpu, duration_us, depth, m.group(1), None, None

    if content.endswith("{"):
        m = _ENTRY_RE.fullmatch(content)
        if not m:
            raise MalformedLine(f"bad entry line: {line!r}")
        if duration_us is not None:
            raise MalformedLine(f"entry line carries a duration: {line!r}")
        return abstime, cpu, None, depth, None, None, m.group(1)

    if content.endswith(";"):
        m = _LEAF_RE.fullmatch(content)
        if not m:
            raise MalformedLine(f"bad leaf line: {line!r}")
        if duration_us is None:
            raise MalformedLine(f"leaf line without duration: {line!r}")
        return abstime, cpu, duration_us, depth, None, m.group(1), None

    raise MalformedLine(f"unrecognized body: {line!r}")


def parse_trace(stream, strict: bool = False) -> TraceSample:
    """Parse a complete or truncated function_graph dump.

    `stream` may be a string, an iterable of lines, or a file object.
    Nesting state is tracked per CPU.  Tolerant mode (the default) never
    aborts: anomalies are collected as warnings on the returned sample.
    """
    if isinstance(stream, str):
        lines: Iterable[str] = stream.splitlines()
    else:
        lines = stream

    roots: dict[int, list[CallRecord]] = {}
    stacks: dict[int, list[CallRecord]] = {}
    warnings: list[str] = []
    has_abstime = False
    match = _LINE_RE.match
    cur_cpu = None
    stack: list[CallRecord] = []
    cpu_roots: list[CallRecord] = []

    def anomaly(msg: str, exc: Optional[Exception] = None) -> None:
        """Strict mode raises exc, or a NestingError of msg; tolerant mode
        keeps msg as a warning."""
        if strict:
            raise exc if exc is not None else NestingError(msg)
        warnings.append(msg)

    for lineno, line in enumerate(lines, start=1):
        line = line.rstrip("\n")
        m = match(line)
        if m is not None:
            abstime, cpu, duration, depth, tail, leaf, entry = m.groups()
            try:
                cpu = int(cpu)
            except ValueError:  # too many digits: the slow path rejects it
                m = None
            else:
                if abstime is not None:
                    abstime = float(abstime)
                if duration is not None:
                    duration = float(duration)
                depth = len(depth) // 2
        if m is None:
            try:
                fields = _parse_line_strict(line)
            except MalformedLine as exc:
                exc.lineno = lineno
                anomaly(f"line {lineno}: malformed, skipped ({exc})", exc)
                continue
            if fields is None:
                continue
            abstime, cpu, duration, depth, tail, leaf, entry = fields
        if abstime is not None:
            has_abstime = True

        if cpu != cur_cpu:
            cur_cpu = cpu
            stack = stacks.setdefault(cpu, [])
            cpu_roots = roots.setdefault(cpu, [])

        name = entry or leaf  # None on an exit
        if name is not None:
            if depth != len(stack):
                anomaly(f"line {lineno}: depth {depth} does not match "
                        f"nesting level {len(stack)} on cpu {cpu}")
            parent = stack[-1] if stack else None
            # name, cpu, depth, duration_us, start_time, end_time, parent_name
            rec = CallRecord(
                name, cpu, len(stack), duration, abstime,
                (abstime + duration * 1e-6
                 if leaf is not None and abstime is not None else None),
                parent.name if parent else None)
            (parent.children if parent else cpu_roots).append(rec)
            if entry is not None:
                stack.append(rec)
        else:
            if not stack:
                anomaly(f"line {lineno}: unmatched exit on cpu {cpu}, dropped")
                continue
            rec = stack.pop()
            if depth != len(stack):
                anomaly(f"line {lineno}: exit depth {depth} does not match "
                        f"entry depth {len(stack)} on cpu {cpu}")
            if tail and tail != rec.name:
                anomaly(f"line {lineno}: exit tail {tail!r} does not "
                        f"match open entry {rec.name!r}")
            rec.duration_us = duration
            if abstime is not None:
                rec.end_time = abstime
                if rec.start_time is None and duration is not None:
                    rec.start_time = abstime - duration * 1e-6

    for cpu in sorted(stacks):
        for rec in stacks[cpu]:
            warnings.append(
                f"cpu {cpu}: entry {rec.name!r} unclosed at end of stream, "
                "duration unknown")

    return TraceSample(records=roots, warnings=warnings, has_abstime=has_abstime)


def format_forest(ordered_roots: list[CallRecord], abstime: bool = False) -> str:
    """Render call trees back to function_graph text (canonical layout)."""
    out: list[str] = []
    append = out.append
    head = "{1:12.6f} |  {0}) ".format if abstime else " {0}) ".format
    blank = " " * len(f" {0.0:>10.3f} us ")  # an entry line's duration column

    # explicit stack of (record, depth, closing?): traces nest arbitrarily deep
    todo = [(root, 0, False) for root in reversed(ordered_roots)]
    while todo:
        rec, depth, closing = todo.pop()
        indent = "  " * depth
        dur = rec.duration_us if rec.duration_us is not None else 0.0
        t = rec.end_time if closing else rec.start_time
        prefix = head(rec.cpu, t if t is not None else 0.0)
        if closing or not rec.children:
            # the kernel's overhead annotation for long calls
            marker = " " if dur < 10.0 else next(
                (m for bound, m in _MARKER_THRESHOLDS if dur >= bound), " ")
            body = f"}} /* {rec.name} */" if closing else f"{rec.name}();"
            append(f"{prefix}{marker}{dur:>10.3f} us |  {indent}{body}")
        else:
            append(f"{prefix}{blank}|  {indent}{rec.name}() {{")
            todo.append((rec, depth, True))
            todo += [(c, depth + 1, False) for c in reversed(rec.children)]
    return "\n".join(out) + ("\n" if out else "")


def sidecar_path(trace_path) -> Path:
    p = Path(trace_path)
    base = p.name[:-6] if p.name.endswith(".trace") else p.name
    return p.with_name(base + ".io.json")


# IoMeta's fields, in order, as a sidecar names them
_SIDECAR_COUNTS = ("read_count", "write_count", "read_bytes", "write_bytes")


def _sidecar_int(sidecar: Path, meta: dict, key: str, top=math.inf) -> int:
    """A sidecar field that must be a JSON integer (no bool, float or
    string) from 0 to `top`; 0 when absent."""
    value = meta.get(key, 0)
    if type(value) is not int or not 0 <= value <= top:
        raise ValueError(f"{sidecar}: {key} must be a JSON integer in "
                         f"[0, {top}], not {value!r}")
    return value


def load_sample(trace_path, strict: bool = False) -> TraceSample:
    """Parse one trace file plus its optional *.io.json sidecar.  The
    file is read once; its bytes are split into lines as text-mode `open`
    splits them (universal newlines) and hashed.  A strict-mode parse
    error names the file and the line."""
    p = Path(trace_path)
    data = p.read_bytes()
    try:
        with io.TextIOWrapper(io.BytesIO(data), "utf-8",
                              "surrogateescape") as fh:
            sample = parse_trace(fh, strict)
    except MalformedLine as exc:
        raise MalformedLine(f"{p}, line {exc.lineno}: {exc}", exc.lineno,
                            exc.column) from None
    except NestingError as exc:  # its message starts with the line number
        raise NestingError(f"{p}, {exc}") from None
    sample.source = str(p)
    sample.sha256 = hashlib.sha256(data).digest()
    sc = sidecar_path(p)
    if sc.exists():
        meta = json.loads(sc.read_text())
        if not isinstance(meta, dict):
            raise ValueError(f"{sc}: a sidecar must hold a JSON object")
        sample.io_meta = IoMeta(*(_sidecar_int(sc, meta, key)
                                  for key in _SIDECAR_COUNTS))
        if "label" in meta:
            sample.label = _sidecar_int(sc, meta, "label", 1)
        if "task" in meta:
            task = meta["task"]
            if not isinstance(task, str) or not task:
                raise ValueError(f"{sc}: task must be a non-empty JSON "
                                 f"string, not {task!r}")
            sample.task_name = task
    return sample


def trace_paths(corpus_dir) -> list[Path]:
    """Every *.trace file under a directory, sorted, recursive; a corpus
    without one is refused."""
    paths = sorted(Path(corpus_dir).rglob("*.trace"))
    if not paths:
        raise EmptyCorpus(f"no *.trace files found under {corpus_dir}")
    return paths

"""The one-regex line classifier against the step-by-step parser it speeds up.

Everything from `BodyKind` down to the end of `parse_trace` in the
"reference parser" section is the earlier parser kept verbatim: it runs
the checks of `_parse_line_strict` on every line.  The parser in
`ftracekit.trace_parser` first tries one anchored regex and falls back to
those checks only for the lines the regex refuses.  It must classify every
line the regex accepts exactly as the reference does, and return equal
records and identical warnings on any input, in both modes.

The workload generator writes only well-formed lines, so the comments,
boundaries, comm-pid columns, overhead markers, tabs, odd indents and stray
bytes mutated in here are the only test of the fallback path.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ftracekit import trace_parser as tp
from ftracekit import workloadgen as wg
from ftracekit.errors import MalformedLine, NestingError
from ftracekit.trace_parser import OVERHEAD_MARKERS, CallRecord, TraceSample

from conftest import call_records

# reference parser


class BodyKind(Enum):
    LEAF = "leaf"
    ENTRY = "entry"
    EXIT = "exit"
    COMMENT = "comment"
    BOUNDARY = "boundary"


@dataclass(frozen=True)
class ParserOptions:
    strict: bool = False
    indent: int = 2  # spaces per nesting level, kernel default


@dataclass(frozen=True)
class RawLine:
    kind: BodyKind
    cpu: int = -1
    abstime: Optional[float] = None
    comm_pid: Optional[str] = None
    marker: Optional[str] = None
    duration_us: Optional[float] = None
    name: Optional[str] = None
    tail_name: Optional[str] = None
    depth: int = 0


# line layout:  [abstime |]  cpu)  [comm-pid |]  [marker] [duration us]  |  body
_ABSTIME_CPU_RE = re.compile(r"^\s*(\d+\.\d+)\s+\|\s*(\d+)\)(.*)$")
_CPU_RE = re.compile(r"^\s*(\d+)\)(.*)$")
_COMM_PID_RE = re.compile(r"^\s*(\S+-\d+)\s+\|(.*)$")
_DUR_BODY_RE = re.compile(
    r"^\s*(?:([%s])\s*)?(?:(\d+(?:\.\d+)?)\s+us\s*)?\|(.*)$" % re.escape(OVERHEAD_MARKERS)
)
_EXIT_RE = re.compile(r"^\}\s*(?:;)?\s*(?:/\*\s*(.*?)\s*\*/)?$")
_NAME_RE = re.compile(r"^(\S+)\(\)$")


def _parse_line_strict(line: str, options: ParserOptions) -> RawLine:
    """Classify one physical line of function_graph output; a malformed
    line raises MalformedLine."""
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return RawLine(kind=BodyKind.COMMENT)
    if set(stripped) <= {"-"} or "=>" in stripped:
        # CPU-switch separator emitted by the kernel between task migrations
        return RawLine(kind=BodyKind.BOUNDARY)

    abstime = None
    m = _ABSTIME_CPU_RE.match(line)
    if m:
        abstime = float(m.group(1))
        cpu, rest = int(m.group(2)), m.group(3)
    else:
        m = _CPU_RE.match(line)
        if not m:
            raise MalformedLine(f"no CPU column: {line!r}", column=0)
        cpu, rest = int(m.group(1)), m.group(2)

    comm_pid = None
    m = _COMM_PID_RE.match(rest)
    if m:
        comm_pid = m.group(1)
        rest = m.group(2)

    m = _DUR_BODY_RE.match(rest)
    if not m:
        raise MalformedLine(f"no duration/body separator: {line!r}",
                            column=len(line) - len(rest))
    marker, dur_text, body = m.group(1), m.group(2), m.group(3)
    duration_us = float(dur_text) if dur_text is not None else None

    # body starts with a fixed 2-space column gap, then indentation
    if not body.startswith("  "):
        raise MalformedLine(f"body column gap missing: {line!r}")
    body = body[2:]
    leading = len(body) - len(body.lstrip(" "))
    if leading % options.indent != 0:
        raise MalformedLine(f"odd indentation ({leading} spaces): {line!r}")
    depth = leading // options.indent
    content = body.strip()

    if content.startswith("/*"):
        return RawLine(kind=BodyKind.COMMENT, cpu=cpu, abstime=abstime)

    if content.startswith("}"):
        m = _EXIT_RE.match(content)
        if not m:
            raise MalformedLine(f"bad exit line: {line!r}")
        if duration_us is None:
            raise MalformedLine(f"exit line without duration: {line!r}")
        return RawLine(kind=BodyKind.EXIT, cpu=cpu, abstime=abstime,
                       comm_pid=comm_pid, marker=marker, duration_us=duration_us,
                       tail_name=m.group(1), depth=depth)

    if content.endswith("{"):
        name_part = content[:-1].rstrip()
        m = _NAME_RE.match(name_part)
        if not m:
            raise MalformedLine(f"bad entry line: {line!r}")
        if duration_us is not None:
            raise MalformedLine(f"entry line carries a duration: {line!r}")
        return RawLine(kind=BodyKind.ENTRY, cpu=cpu, abstime=abstime,
                       comm_pid=comm_pid, name=m.group(1), depth=depth)

    if content.endswith(";"):
        m = _NAME_RE.match(content[:-1].rstrip())
        if not m:
            raise MalformedLine(f"bad leaf line: {line!r}")
        if duration_us is None:
            raise MalformedLine(f"leaf line without duration: {line!r}")
        return RawLine(kind=BodyKind.LEAF, cpu=cpu, abstime=abstime,
                       comm_pid=comm_pid, marker=marker, duration_us=duration_us,
                       name=m.group(1), depth=depth)

    raise MalformedLine(f"unrecognized body: {line!r}")


def parse_trace(stream, options: ParserOptions = ParserOptions()) -> tuple:
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

    for lineno, line in enumerate(lines, start=1):
        line = line.rstrip("\n")
        try:
            rl = _parse_line_strict(line, options)
        except MalformedLine as exc:
            if options.strict:
                exc.lineno = lineno
                raise
            warnings.append(f"line {lineno}: malformed, skipped ({exc})")
            continue
        if rl.kind in (BodyKind.COMMENT, BodyKind.BOUNDARY):
            continue
        if rl.abstime is not None:
            has_abstime = True

        stack = stacks.setdefault(rl.cpu, [])
        cpu_roots = roots.setdefault(rl.cpu, [])

        if rl.kind in (BodyKind.LEAF, BodyKind.ENTRY):
            if rl.depth != len(stack):
                msg = (f"line {lineno}: depth {rl.depth} does not match "
                       f"nesting level {len(stack)} on cpu {rl.cpu}")
                if options.strict:
                    raise NestingError(msg)
                warnings.append(msg)
            parent = stack[-1] if stack else None
            rec = CallRecord(
                name=rl.name,
                cpu=rl.cpu,
                depth=len(stack),
                duration_us=rl.duration_us,
                start_time=rl.abstime,
                parent_name=parent.name if parent else None,
            )
            if rl.kind is BodyKind.LEAF and rl.abstime is not None:
                rec.end_time = rl.abstime + rl.duration_us * 1e-6
            (parent.children if parent else cpu_roots).append(rec)
            if rl.kind is BodyKind.ENTRY:
                stack.append(rec)
        else:  # EXIT
            if not stack:
                msg = f"line {lineno}: unmatched exit on cpu {rl.cpu}, dropped"
                if options.strict:
                    raise NestingError(msg)
                warnings.append(msg)
                continue
            rec = stack.pop()
            if rl.depth != len(stack):
                msg = (f"line {lineno}: exit depth {rl.depth} does not match "
                       f"entry depth {len(stack)} on cpu {rl.cpu}")
                if options.strict:
                    raise NestingError(msg)
                warnings.append(msg)
            if rl.tail_name and rl.tail_name != rec.name:
                msg = (f"line {lineno}: exit tail {rl.tail_name!r} does not "
                       f"match open entry {rec.name!r}")
                if options.strict:
                    raise NestingError(msg)
                warnings.append(msg)
            rec.duration_us = rl.duration_us
            if rl.abstime is not None:
                rec.end_time = rl.abstime
                if rec.start_time is None and rl.duration_us is not None:
                    rec.start_time = rl.abstime - rl.duration_us * 1e-6

    for cpu in sorted(stacks):
        for rec in stacks[cpu]:
            warnings.append(
                f"cpu {cpu}: entry {rec.name!r} unclosed at end of stream, "
                "duration unknown")

    return roots, warnings, has_abstime


# end of the reference parser


STRICT = ParserOptions(strict=True)
TOLERANT = ParserOptions()
FAST = tp._LINE_RE


def fast_fields(m):
    """(kind, cpu, abstime, duration, depth, name, tail) from a fast match."""
    abstime, cpu, duration, indent, tail, leaf, entry = m.groups()
    kind = (BodyKind.ENTRY if entry is not None
            else BodyKind.LEAF if leaf is not None else BodyKind.EXIT)
    return (kind, int(cpu), None if abstime is None else float(abstime),
            None if duration is None else float(duration),
            len(indent) // TOLERANT.indent, entry if entry is not None else leaf,
            tail)


def reference_fields(rl: RawLine):
    return (rl.kind, rl.cpu, rl.abstime, rl.duration_us, rl.depth, rl.name,
            rl.tail_name)


def strict_fields(rl: RawLine):
    """The reference's classification in the shape of tp._parse_line_strict:
    None for a comment or boundary, else (abstime, cpu, duration_us, depth,
    exit tail, leaf name, entry name)."""
    if rl.kind in (BodyKind.COMMENT, BodyKind.BOUNDARY):
        return None
    return (rl.abstime, rl.cpu, rl.duration_us, rl.depth, rl.tail_name,
            rl.name if rl.kind is BodyKind.LEAF else None,
            rl.name if rl.kind is BodyKind.ENTRY else None)


def base_traces():
    """A few generated traces in both layouts, kept small."""
    out = []
    for i, profile in enumerate(wg.default_pair() + wg.task_profiles()[:2]):
        for multi in (False, True):
            text, _, _ = wg.generate_trace(profile, seed=30 + i, n_root_calls=3,
                                           multi_cpu=multi, abstime=multi)
            out.append(text.splitlines())
    return out


BASE = base_traces()

# hand-written lines of every form, well-formed or not
SEED_LINES = [
    " 1)   0.462 us    |  mutex_unlock();",
    " 0)               |    vfs_read() {",
    " 0) + 12.500 us   |    } /* vfs_read */",
    " 0)    bash-4251   |   0.332 us    |  cpumask_next();",
    " 1234.567890 |  0)   0.500 us |  fsnotify();",
    " 1234.567890 |  0)    bash-1    |               |  a() {",
    " 0)   1.000 us    |  } ;",
    " 0)   1.000 us    |  }",
    " 0)   1.000 us    |  } /**/",
    " 0)   1.000 us    |  } /* a */ */",
    " 0) #               |  a() {",
    " 0) ! 100.0 us    |  f();",
    " 0)   0.100 us    |   odd_indent();",
    " 0)   0.100 us    |  \tf();",
    " 0)   0.100 us    |  /* note */",
    " 0)               |  f();",
    " 0)   1.000 us    |  f() {",
    " 0)               |  } /* f */",
    " 0)   1.000 us    |  a=>b();",
    " 0)  bash-123  =>  cc1-456 ",
    " ------------------------------------------",
    "# tracer: function_graph",
    "",
    "   ",
    "complete nonsense",
    " 0)   1.000 us    |  a()b();",
    " 0)   1.000 us    |  }f();",
    " 0)   1.000 us    |  f()  ;  ",
    " 0)               |  f()  {  ",
    " ١)   ٢.٥ us    |  f();",
    " 0)   1.000 us    |  f();\n",
    " 0)\n   1.000 us    |  f();",
    " 0)   1.000 us    |  f ();",
    " 0)   1.000 us |  f();",
    " 0)   1.000 us    |  f();\r",
    " 0)   1.000 us    |  \udc80();",
]

# characters that a mutation may put anywhere in a line
NOISE = st.sampled_from(list(" \t|(){};/*-=>#.0123456789+!@$us\n\r\x0b\x00"
                             " ٣ \udc80xé"))


# comm-pid tokens, most of them not of the `name-pid` form
COMMS = ["bash-4251", "kworker/0:1-12", "x-1-2", "-5", "a-", "|-3", "a-b",
         "+-1", "1.0-2", "a-٣"]


def with_comm_pid(line, comm="bash-4251"):
    return re.sub(r"^(\s*(?:\d+\.\d+\s+\|\s*)?\d+\))",
                  lambda m: m.group(1) + f"  {comm}  |", line, count=1)


def with_marker(line, marker):
    return re.sub(r"\)(\s+)(\d)",
                  lambda m: ")" + m.group(1)[:-1] + marker + m.group(2),
                  line, count=1)


@st.composite
def mutated_line(draw):
    base = draw(st.sampled_from(SEED_LINES + [ln for t in BASE for ln in t]))
    if draw(st.booleans()):
        base = with_comm_pid(base, draw(st.sampled_from(COMMS)))
    if draw(st.booleans()):
        base = with_marker(base, draw(st.sampled_from(OVERHEAD_MARKERS + "x-")))
    for _ in range(draw(st.integers(0, 3))):
        pos = draw(st.integers(0, len(base)))
        op = draw(st.sampled_from(["insert", "delete", "truncate"]))
        if op == "insert":
            base = base[:pos] + draw(st.text(NOISE, min_size=1, max_size=3)) + base[pos:]
        elif op == "delete":
            base = base[:pos] + base[pos + 1:]
        else:
            base = base[:pos]
    return base


def classify_reference(line):
    try:
        return _parse_line_strict(line, TOLERANT)
    except MalformedLine as exc:
        return exc


class TestLineClassifier:
    @settings(max_examples=1500, deadline=None)
    @given(mutated_line())
    def test_accepted_lines_match_the_reference(self, line):
        m = FAST.match(line)
        if m is None:
            return
        rl = classify_reference(line)
        assert isinstance(rl, RawLine), (line, rl)
        assert fast_fields(m) == reference_fields(rl)

    def test_seed_lines(self):
        for line in SEED_LINES:
            m = FAST.match(line)
            if m is not None:
                assert fast_fields(m) == reference_fields(classify_reference(line))

    @settings(max_examples=1500, deadline=None)
    @given(mutated_line())
    def test_slow_path_gives_the_reference_fields(self, line):
        want = classify_reference(line)
        try:
            got = tp._parse_line_strict(line)
        except MalformedLine as exc:
            assert isinstance(want, MalformedLine), (line, want)
            assert str(exc) == str(want)
            return
        assert not isinstance(want, MalformedLine), (line, want)
        assert got == strict_fields(want)

    def test_boundary_with_arrow_in_a_name_is_refused(self):
        line = " 0)   1.000 us    |  a=>b();"
        assert FAST.match(line) is None
        assert classify_reference(line).kind is BodyKind.BOUNDARY

    @pytest.mark.parametrize("multi", [False, True])
    def test_generated_lines_all_take_the_fast_path(self, multi):
        for profile in wg.default_pair() + wg.task_profiles():
            text, _, _ = wg.generate_trace(profile, seed=3, n_root_calls=10,
                                           multi_cpu=multi, abstime=multi)
            for line in text.splitlines():
                assert FAST.match(line) is not None, line


def boundary_or_comment(draw):
    return draw(st.sampled_from([
        "# tracer: function_graph", "#", "", "  ",
        " ------------------------------------------",
        " 1)  bash-123  =>  cc1-456 ",
        " 0)   0.100 us    |  /* marker */",
    ]))


@st.composite
def mutated_trace(draw):
    lines = list(draw(st.sampled_from(BASE)))
    for _ in range(draw(st.integers(0, 8))):
        i = draw(st.integers(0, len(lines)))
        op = draw(st.sampled_from(["comment", "comm", "marker", "tab", "indent",
                                   "noise", "delete", "duplicate", "line"]))
        if op == "comment":
            lines.insert(i, boundary_or_comment(draw))
        elif i == len(lines):
            continue
        elif op == "comm":
            lines[i] = with_comm_pid(lines[i], draw(st.sampled_from(COMMS)))
        elif op == "marker":
            lines[i] = with_marker(lines[i], draw(st.sampled_from(OVERHEAD_MARKERS)))
        elif op == "tab":
            lines[i] = lines[i].replace("|  ", "|\t ", 1)
        elif op == "indent":
            lines[i] = lines[i].replace("|  ", "|   ", 1)
        elif op == "noise":
            pos = draw(st.integers(0, len(lines[i])))
            lines[i] = (lines[i][:pos] + draw(st.text(NOISE, min_size=1, max_size=4))
                        + lines[i][pos:])
        elif op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        else:
            lines[i] = draw(mutated_line())
    as_text = draw(st.booleans())
    return "\n".join(lines) if as_text else lines


def outcome(parse, stream, mode):
    """Records, warnings and abstime flag, or the exception raised."""
    try:
        return parse(stream, mode)
    except (MalformedLine, NestingError) as exc:
        return type(exc), str(exc), getattr(exc, "lineno", None)


def new_parse(stream, options: ParserOptions = ParserOptions()) -> tuple:
    """The parser under test, returning what the reference parser does."""
    s = tp.parse_trace(stream, options.strict)
    return call_records(s), s.warnings, s.has_abstime


class TestParseTrace:
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(mutated_trace())
    def test_same_records_and_warnings_in_both_modes(self, stream):
        for options in (TOLERANT, STRICT):
            want = outcome(parse_trace, stream, options)
            got = outcome(new_parse, stream, options)
            assert got == want

    @settings(max_examples=300, deadline=None)
    @given(st.lists(mutated_line(), max_size=30))
    def test_tolerant_mode_never_raises(self, lines):
        sample = tp.parse_trace(lines)
        assert isinstance(sample, TraceSample)
        assert call_records(sample) == parse_trace(lines)[0]

    def test_generated_traces_parse_identically(self):
        for lines in BASE:
            text = "\n".join(lines)
            assert new_parse(text, STRICT) == parse_trace(text, STRICT)

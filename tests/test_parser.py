import hashlib
import json
import re
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftracekit import features as ft
from ftracekit import trace_parser as tp
from ftracekit import workloadgen as wg
from ftracekit.errors import MalformedLine, NestingError

from conftest import call_records, preorder, walk


def roots_of(sample):
    """The roots of the sample's forests, CPUs in ascending order."""
    return [r for roots in call_records(sample).values() for r in roots]


def format_sample(sample):
    """The sample's forests, CPUs in ascending order, as function_graph text."""
    roots = roots_of(sample)
    return tp.format_forest(roots, abstime=sample.has_abstime)


def parse_line(line):
    return tp._parse_line_strict(line)


class TestParseLine:
    # fields: abstime, cpu, duration_us, depth, exit tail, leaf name, entry name
    def test_leaf(self):
        assert parse_line(" 1)   0.462 us    |  mutex_unlock();") == (
            None, 1, 0.462, 0, None, "mutex_unlock", None)

    def test_entry(self):
        assert parse_line(" 0)               |    vfs_read() {") == (
            None, 0, None, 1, None, None, "vfs_read")

    def test_exit_with_marker(self):
        assert parse_line(" 0) + 12.500 us   |    } /* vfs_read */") == (
            None, 0, 12.5, 1, "vfs_read", None, None)

    def test_comment_and_boundary(self):
        assert parse_line("# tracer: function_graph") is None
        assert parse_line(" ------------------------------------------") is None
        assert parse_line(" 0)  bash-123  =>  cc1-456 ") is None
        assert parse_line("") is None
        assert parse_line(" 0)   0.100 us    |  /* note */") is None

    def test_comm_pid_column(self):
        assert parse_line(" 0)    bash-4251   |   0.332 us    |  cpumask_next();") == (
            None, 0, 0.332, 0, None, "cpumask_next", None)

    def test_abstime_column(self):
        assert parse_line(" 1234.567890 |  0)   0.500 us |  fsnotify();") == (
            1234.56789, 0, 0.5, 0, None, "fsnotify", None)

    def test_strict_rejects_garbage(self):
        with pytest.raises(MalformedLine):
            parse_line("complete nonsense")

    def test_strict_rejects_odd_indent(self):
        with pytest.raises(MalformedLine):
            parse_line(" 0)   0.100 us    |   odd_indent();")

    def test_tolerant_garbage_becomes_comment(self):
        sample = tp.parse_trace("complete nonsense\n 0)   0.462 us    |  f();")
        assert [r.name for r in preorder(sample)] == ["f"]
        assert len(sample.warnings) == 1 and "malformed" in sample.warnings[0]


class TestParseTrace:
    def test_nesting_example(self):
        text = "\n".join([
            " 0)               |  vfs_read() {",
            " 0)   0.300 us    |    rw_verify_area();",
            " 0)   2.150 us    |  } /* vfs_read */",
        ])
        sample = tp.parse_trace(text, strict=True)
        (root,) = call_records(sample)[0]
        assert root.name == "vfs_read"
        assert root.duration_us == 2.15
        (child,) = root.children
        assert child.name == "rw_verify_area"
        assert child.duration_us == 0.3
        assert child.parent_name == "vfs_read"
        assert child.depth == root.depth + 1

    def test_empty_stream(self):
        sample = tp.parse_trace("")
        assert sample.cpus == {}
        assert sample.warnings == []

    def test_interleaved_cpus(self):
        text = "\n".join([
            " 0)               |  a() {",
            " 1)   0.100 us    |  c();",
            " 0)   0.200 us    |    b();",
            " 0)   1.000 us    |  } /* a */",
        ])
        sample = tp.parse_trace(text, strict=True)
        forests = call_records(sample)
        assert [r.name for r in walk(forests[0])] == ["a", "b"]
        assert forests[1][0].name == "c"

    def test_unclosed_entry_gets_unknown_duration(self):
        sample = tp.parse_trace(" 0)               |  a() {")
        (root,) = call_records(sample)[0]
        assert root.duration_us is None
        assert len(sample.warnings) == 1

    def test_unmatched_exit_dropped_tolerantly(self):
        sample = tp.parse_trace(" 0)   1.000 us    |  } /* a */")
        assert preorder(sample) == []
        assert len(sample.warnings) == 1

    def test_unmatched_exit_strict_raises(self):
        with pytest.raises(NestingError):
            tp.parse_trace(" 0)   1.000 us    |  } /* a */", strict=True)

    def test_tail_name_mismatch(self):
        text = "\n".join([
            " 0)               |  a() {",
            " 0)   1.000 us    |  } /* b */",
        ])
        sample = tp.parse_trace(text)
        assert call_records(sample)[0][0].duration_us == 1.0
        assert any("tail" in w for w in sample.warnings)
        with pytest.raises(NestingError):
            tp.parse_trace(text, strict=True)

    def test_tolerant_mode_never_aborts_on_arbitrary_bytes(self):
        import random
        rnd = random.Random(11)
        junk = "\n".join(
            "".join(chr(rnd.randrange(32, 127)) for _ in range(rnd.randrange(0, 60)))
            for _ in range(200))
        sample = tp.parse_trace(junk)  # must not raise
        assert isinstance(sample.warnings, list)

    @pytest.mark.parametrize("prefix", ["", "  12.500000 |  "])
    def test_overlong_cpu_column_is_one_malformed_line(self, prefix):
        # int() refuses strings of more than 4,300 digits
        bad = prefix + "1" * 5000 + ")   1.000 us    |  f();"
        sample = tp.parse_trace(bad + "\n 0)   2.000 us    |  g();\n")
        assert len(sample.warnings) == 1
        assert sample.warnings[0].startswith("line 1: malformed, skipped")
        assert [r.name for r in call_records(sample)[0]] == ["g"]
        with pytest.raises(MalformedLine):
            tp.parse_trace(bad, strict=True)

    def test_deep_nesting_is_walked_without_recursion(self):
        depth = 3000
        lines = [f" 0)               |  {'  ' * i}f{i % 3}() {{"
                 for i in range(depth)]
        lines += [f" 0)   1.000 us    |  {'  ' * i}}} /* f{i % 3} */"
                  for i in reversed(range(depth))]
        sample = tp.parse_trace("\n".join(lines), strict=True)
        assert [r.depth for r in preorder(sample)] == list(range(depth))
        summary = ft.extract(sample)
        vocab = ft.build_vocabulary([summary])
        row = ft.extract_matrix([summary], vocab).X[0]
        assert row[vocab.columns.index("total_calls")] == depth

    def test_deep_nesting_is_formatted_without_recursion(self):
        depth = 3000
        text = "".join(f" 0)               |  {'  ' * i}f{i % 3}() {{\n"
                       for i in range(depth))
        sample = tp.parse_trace(text)  # left unclosed
        out = format_sample(sample)
        assert len(out.splitlines()) == 2 * depth - 1  # innermost is a leaf
        assert format_sample(tp.parse_trace(out, strict=True)) == out


class TestGeneratedTraces:
    @pytest.mark.parametrize("profile", wg.default_pair() + wg.task_profiles())
    def test_roundtrip_and_bookkeeping(self, profile):
        text, _, book = wg.generate_trace(profile, seed=5, n_root_calls=15)
        sample = tp.parse_trace(text, strict=True)
        assert sample.warnings == []
        assert len(preorder(sample)) == book.total_calls
        assert Counter(rec.name for rec in preorder(sample)) == book.call_counts
        again = tp.parse_trace(format_sample(sample), strict=True)
        assert call_records(again) == call_records(sample)

    def test_roundtrip_with_abstime_and_multi_cpu(self):
        profile = wg.default_pair()[0]
        text, _, book = wg.generate_trace(profile, seed=9, n_root_calls=20,
                                          multi_cpu=True, abstime=True)
        sample = tp.parse_trace(text, strict=True)
        assert sample.warnings == []
        assert sample.has_abstime
        assert set(sample.cpus) == {0, 1}
        assert len(preorder(sample)) == book.total_calls
        again = tp.parse_trace(format_sample(sample), strict=True)
        assert call_records(again) == call_records(sample)

    def test_duration_containment(self):
        profile = wg.default_pair()[1]
        text, _, _ = wg.generate_trace(profile, seed=2, n_root_calls=25)
        sample = tp.parse_trace(text, strict=True)
        for rec in preorder(sample):
            # a parent's duration covers the sum of its children's
            assert rec.duration_us >= sum(c.duration_us for c in rec.children) - 1e-3

    def test_depth_increments_by_one(self):
        profile = wg.default_pair()[1]
        text, _, _ = wg.generate_trace(profile, seed=4, n_root_calls=25)
        sample = tp.parse_trace(text, strict=True)
        for rec in preorder(sample):
            for child in rec.children:
                assert child.depth == rec.depth + 1


NAMES = st.from_regex(r"[A-Za-z_][A-Za-z0-9_.]{0,10}", fullmatch=True)
# whole nanoseconds and microseconds: exact at the printed 3 and 6 decimals;
# durations reach every overhead marker
DURATIONS = st.integers(0, 2 * 10**9).map(lambda ns: ns / 1000)
TIMES = st.integers(0, 10**11).map(lambda us: us / 1e6)


@st.composite
def call_trees(draw, cpu, depth=0):
    rec = tp.CallRecord(draw(NAMES), cpu, depth, draw(DURATIONS),
                        draw(TIMES), draw(TIMES))
    if depth < 3:
        rec.children = draw(st.lists(call_trees(cpu, depth + 1), max_size=3))
    return rec


@st.composite
def forests(draw):
    """Roots in canonical order (by CPU), each tree on its root's CPU."""
    cpus = sorted(draw(st.lists(st.integers(0, 3), min_size=1, max_size=4)))
    return [draw(call_trees(cpu)) for cpu in cpus]


def shape(roots):
    return [(r.cpu, r.depth, r.name, r.duration_us, len(r.children))
            for r in walk(roots)]


class TestFormatRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(forests(), st.booleans())
    def test_parse_inverts_format(self, roots, abstime):
        text = tp.format_forest(roots, abstime=abstime)
        sample = tp.parse_trace(text, strict=True)
        assert sample.warnings == []
        assert sample.has_abstime == abstime
        parsed = roots_of(sample)
        assert shape(parsed) == shape(roots)
        assert tp.format_forest(parsed, abstime=abstime) == text


class TestSidecar:
    def test_load_sample_reads_sidecar(self, tmp_path):
        wg.generate_corpus(wg.default_pair(), 1, seed=3, out_dir=tmp_path,
                           n_root_calls=5)
        samples = [tp.load_sample(p, strict=True)
                   for p in tp.trace_paths(tmp_path)]
        assert len(samples) == 2
        assert {s.label for s in samples} == {0, 1}
        assert all(s.io_meta is not None for s in samples)
        assert all(s.task_name for s in samples)

    @staticmethod
    def trace_with_sidecar(tmp_path, sidecar_text):
        trace = tmp_path / "x.trace"
        trace.write_text(" 0)   1.000 us    |  f();\n")
        tp.sidecar_path(trace).write_text(sidecar_text)
        return trace

    @pytest.mark.parametrize("field, value", [
        ("label", True), ("label", 2.7), ("label", 2), ("label", -1),
        ("label", "1"), ("read_count", 2.9), ("read_count", "12"),
        ("write_count", True), ("read_bytes", -1), ("write_bytes", None),
        ("task", 5), ("task", ""), ("task", ["t"]),
    ])
    def test_bad_sidecar_values_are_refused(self, field, value, tmp_path):
        # before, true read as label 1, 2.7 as 2 and "12" as 12, and a
        # task of 5 ended exp2 in an uncaught TypeError
        trace = self.trace_with_sidecar(tmp_path, json.dumps({field: value}))
        with pytest.raises(ValueError, match=rf"x\.io\.json: {field} must"):
            tp.load_sample(trace)

    def test_sidecar_integers_and_absent_counts(self, tmp_path):
        trace = self.trace_with_sidecar(tmp_path, json.dumps(
            {"label": 0, "read_bytes": 2 ** 40, "task": "t"}))
        sample = tp.load_sample(trace)
        assert sample.label == 0 and sample.task_name == "t"
        assert sample.io_meta == tp.IoMeta(0, 0, 2 ** 40, 0)

    def test_sidecar_must_be_an_object(self, tmp_path):
        trace = self.trace_with_sidecar(tmp_path, "[1, 2]")
        with pytest.raises(ValueError, match="JSON object"):
            tp.load_sample(trace)

    @pytest.mark.parametrize("open_, close", [("[", "]"), ('{"a":', "}")],
                             ids=["list", "object"])
    def test_sidecar_nested_deeper_than_the_decoder_goes(self, open_, close,
                                                          tmp_path):
        # before, the decoder's RecursionError escaped load_sample
        trace = self.trace_with_sidecar(tmp_path,
                                        open_ * 200_000 + "1" + close * 200_000)
        with pytest.raises(ValueError, match=r"x\.io\.json: nested too deep"):
            tp.load_sample(trace)


class TestLoadSample:
    def test_lines_split_as_text_mode_open_splits_them(self, tmp_path):
        # \r\n and a lone \r end a line; \f does not, so line 3 is one
        # malformed line and not the two leaf calls it would split into
        leaf = " 0)   1.000 us    |  {}();"
        trace = tmp_path / "x.trace"
        trace.write_bytes((leaf.format("a") + "\r\n" + leaf.format("b") + "\r"
                           + leaf.format("c") + "\f" + leaf.format("d")
                           + "\n").encode())
        sample = tp.load_sample(trace)
        assert [r.name for r in preorder(sample)] == ["a", "b"]
        assert len(sample.warnings) == 1
        assert sample.warnings[0].startswith("line 3: malformed, skipped")

    def test_sha256_is_of_the_file_bytes(self, tmp_path):
        trace = tmp_path / "x.trace"
        trace.write_bytes(b" 0)   1.000 us    |  f\xff();\r\n")
        sample = tp.load_sample(trace)
        assert sample.sha256 == hashlib.sha256(trace.read_bytes()).digest()
        assert [r.name for r in preorder(sample)] == ["f\udcff"]


class TestColumns:
    """A parsed sample is columns; `call_records` rebuilds its forests."""

    def test_a_parsed_sample_keeps_at_most_100_bytes_a_line(self):
        # as CallRecord trees it kept about 200 bytes a line
        text, _, _ = wg.generate_trace(wg.task_profiles()[0], 7,
                                       n_root_calls=80, multi_cpu=True,
                                       abstime=True)
        lines = text.splitlines()
        lines *= -(-60_000 // len(lines))
        tracemalloc.start()
        try:
            sample = tp.parse_trace(lines, strict=True)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert sample.warnings == [] and len(sample.cpus) == 2
        assert kept <= 100 * len(lines), kept / len(lines)

    def test_columns_and_view(self):
        text = "\n".join([
            " 5.000000 |  1)               |  a() {",
            " 5.000001 |  1)   0.500 us    |    b();",
            " 3.000000 |  0)   0.250 us    |  b();",
            " 0)               |  c() {",
            " 6.000000 |  1)   2.000 us    |  } /* a */",
        ])
        sample = tp.parse_trace(text)
        assert sample.names == ["a", "b", "c"]
        assert list(sample.cpus) == [1, 0]
        # ids, parents, durations, starts, ends; c is never closed
        assert sample.cpus[1] == ([0, 1], [-1, 0], [2.0, 0.5], [5.0, 5.000001],
                                  [6.0, 5.000001 + 0.5e-6])
        assert sample.cpus[0] == ([1, 2], [-1, -1], [0.25, None], [3.0, None],
                                  [3.0 + 0.25e-6, None])
        (c,) = [r for r in preorder(sample) if r.name == "c"]
        assert (c.duration_us, c.start_time, c.end_time) == (None, None, None)
        (a,) = call_records(sample)[1]
        assert [(r.name, r.depth, r.parent_name) for r in walk([a])] == [
            ("a", 0, None), ("b", 1, "a")]
        assert sample.warnings == [
            "cpu 0: entry 'c' unclosed at end of stream, duration unknown"]


# the backtracking form of _LINE_RE: each possessive run made greedy again
BACKTRACKING_LINE_RE = re.compile(
    tp._LINE_RE.pattern.replace("*+", "*").replace("++", "+"))
NOISE = st.text(st.sampled_from(list(" \t|(){};/*-=>#.0123456789+!us\n\x00xé")),
                max_size=3)
LINES = [ln for p in wg.task_profiles()[:2] for multi in (False, True)
         for ln in wg.generate_trace(p, 3, n_root_calls=2, multi_cpu=multi,
                                     abstime=multi)[0].splitlines()] + [
    " 0)    bash-4251   |   0.332 us    |  cpumask_next();",
    " 1234.567890 |  0)    bash-1    |               |  a() {",
    " 0)  bash-123  =>  cc1-456 ", " 0) ! 100.0 us    |  f();"]


class TestPossessiveLineRegex:
    def test_nine_runs_are_possessive(self):
        # the lookahead's three, the \s runs of the CPU and comm-pid
        # columns and the one that opens the duration column
        pattern = tp._LINE_RE.pattern
        assert (pattern.count("*+"), pattern.count("++")) == (7, 2)

    @settings(max_examples=800, deadline=None)
    @given(st.sampled_from(LINES), st.lists(
        st.tuples(st.integers(0, 120), st.integers(0, 2), NOISE), max_size=3))
    def test_accepts_the_lines_the_backtracking_form_accepts(self, line,
                                                              edits):
        for pos, cut, noise in edits:
            line = line[:pos] + noise + line[pos + cut:]
        got, want = (r.match(line) for r in (tp._LINE_RE,
                                             BACKTRACKING_LINE_RE))
        assert (got and got.groups()) == (want and want.groups())

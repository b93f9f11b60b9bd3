import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftracekit import features as ft
from ftracekit import trace_parser as tp
from ftracekit import workloadgen as wg
from ftracekit.errors import MalformedLine, NestingError




def format_sample(sample):
    """The sample's forests, CPUs in ascending order, as function_graph text."""
    roots = [r for cpu in sorted(sample.records) for r in sample.records[cpu]]
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
        assert [r.name for r in sample.preorder] == ["f"]
        assert len(sample.warnings) == 1 and "malformed" in sample.warnings[0]


class TestParseTrace:
    def test_nesting_example(self):
        text = "\n".join([
            " 0)               |  vfs_read() {",
            " 0)   0.300 us    |    rw_verify_area();",
            " 0)   2.150 us    |  } /* vfs_read */",
        ])
        sample = tp.parse_trace(text, strict=True)
        (root,) = sample.records[0]
        assert root.name == "vfs_read"
        assert root.duration_us == 2.15
        (child,) = root.children
        assert child.name == "rw_verify_area"
        assert child.duration_us == 0.3
        assert child.parent_name == "vfs_read"
        assert child.depth == root.depth + 1

    def test_empty_stream(self):
        sample = tp.parse_trace("")
        assert sample.record_count() == 0
        assert sample.warnings == []

    def test_interleaved_cpus(self):
        text = "\n".join([
            " 0)               |  a() {",
            " 1)   0.100 us    |  c();",
            " 0)   0.200 us    |    b();",
            " 0)   1.000 us    |  } /* a */",
        ])
        sample = tp.parse_trace(text, strict=True)
        assert [r.name for r in sample.records[0][0].walk()] == ["a", "b"]
        assert sample.records[1][0].name == "c"

    def test_unclosed_entry_gets_unknown_duration(self):
        sample = tp.parse_trace(" 0)               |  a() {")
        (root,) = sample.records[0]
        assert root.duration_us is None
        assert len(sample.warnings) == 1

    def test_unmatched_exit_dropped_tolerantly(self):
        sample = tp.parse_trace(" 0)   1.000 us    |  } /* a */")
        assert sample.record_count() == 0
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
        assert sample.records[0][0].duration_us == 1.0
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
        assert [r.name for r in sample.records[0]] == ["g"]
        with pytest.raises(MalformedLine):
            tp.parse_trace(bad, strict=True)

    def test_deep_nesting_is_walked_without_recursion(self):
        depth = 3000
        lines = [f" 0)               |  {'  ' * i}f{i % 3}() {{"
                 for i in range(depth)]
        lines += [f" 0)   1.000 us    |  {'  ' * i}}} /* f{i % 3} */"
                  for i in reversed(range(depth))]
        sample = tp.parse_trace("\n".join(lines), strict=True)
        assert sample.record_count() == depth
        assert [r.depth for r in sample.preorder] == list(range(depth))
        summary = ft.extract(sample)
        vocab = ft.build_vocabulary([summary])
        row = ft.extract_matrix([summary], vocab).X[0]
        assert row[vocab.column_names.index("total_calls")] == depth

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
        assert sample.record_count() == book.total_calls
        assert Counter(rec.name for rec in sample.preorder) == book.call_counts
        again = tp.parse_trace(format_sample(sample), strict=True)
        assert again.records == sample.records

    def test_roundtrip_with_abstime_and_multi_cpu(self):
        profile = wg.default_pair()[0]
        text, _, book = wg.generate_trace(profile, seed=9, n_root_calls=20,
                                          multi_cpu=True, abstime=True)
        sample = tp.parse_trace(text, strict=True)
        assert sample.warnings == []
        assert sample.has_abstime
        assert set(sample.records) == {0, 1}
        assert sample.record_count() == book.total_calls
        again = tp.parse_trace(format_sample(sample), strict=True)
        assert again.records == sample.records

    def test_duration_containment(self):
        profile = wg.default_pair()[1]
        text, _, _ = wg.generate_trace(profile, seed=2, n_root_calls=25)
        sample = tp.parse_trace(text, strict=True)
        for rec in sample.preorder:
            # a parent's duration covers the sum of its children's
            assert rec.duration_us >= sum(c.duration_us for c in rec.children) - 1e-3

    def test_depth_increments_by_one(self):
        profile = wg.default_pair()[1]
        text, _, _ = wg.generate_trace(profile, seed=4, n_root_calls=25)
        sample = tp.parse_trace(text, strict=True)
        for rec in sample.preorder:
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
            for root in roots for r in root.walk()]


class TestFormatRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(forests(), st.booleans())
    def test_parse_inverts_format(self, roots, abstime):
        text = tp.format_forest(roots, abstime=abstime)
        sample = tp.parse_trace(text, strict=True)
        assert sample.warnings == []
        assert sample.has_abstime == abstime
        parsed = [r for cpu in sorted(sample.records)
                  for r in sample.records[cpu]]
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

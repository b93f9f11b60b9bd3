import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ftracekit import call_graph as cg
from ftracekit import features as ft
from ftracekit import trace_parser as tp
from ftracekit import workloadgen as wg
from ftracekit.errors import EmptyCorpus

from conftest import ONE_CPU, TWO_CPUS, use_cpus


def summary_from_text(text, io=None, label=None, task=None):
    s = tp.parse_trace(text, strict=True)
    s.io_meta = io
    s.label = label
    s.task_name = task
    return ft.extract(s)


TWO_FN_TEXT = "\n".join([
    " 0)               |  vfs_read() {",
    " 0)   0.300 us    |    rw_verify_area();",
    " 0)   2.150 us    |  } /* vfs_read */",
])


class TestVocabulary:
    def test_two_function_corpus_has_twenty_columns(self):
        vocab = ft.build_vocabulary([summary_from_text(TWO_FN_TEXT)])
        assert vocab.function_names == ["rw_verify_area", "vfs_read"]
        assert len(vocab.columns) == 20
        names = vocab.columns
        assert names[:4] == ["count_rw_verify_area", "total_dur_rw_verify_area",
                             "count_vfs_read", "total_dur_vfs_read"]
        assert names[4:12] == ft.GRAPH_AGGREGATE_COLUMNS
        assert names[12:15] == ft.TEMPORAL_GLOBAL_COLUMNS
        assert names[15:] == ft.SYSTEM_GLOBAL_COLUMNS

    def test_groups(self):
        vocab = ft.build_vocabulary([summary_from_text(TWO_FN_TEXT)])
        groups = [ft.infer_group(n) for n in vocab.columns]
        by_name = dict(zip(vocab.columns, groups))
        assert by_name["count_vfs_read"] == "system"
        assert by_name["total_dur_vfs_read"] == "temporal"
        assert by_name["clustering_max"] == "graph"
        assert by_name["mean_call_duration"] == "temporal"
        assert by_name["read_bytes"] == "system"
        got = set()
        for g in ("graph", "temporal", "system"):
            idx = [i for i, group in enumerate(groups) if group == g]
            assert idx, g
            got.update(idx)
        assert got == set(range(20))

    def test_vocab_json_round_trip(self):
        vocab = ft.build_vocabulary([summary_from_text(TWO_FN_TEXT)])
        data = json.loads(vocab.to_json())
        again = ft.FeatureVocabulary([c["name"] for c in data["columns"]])
        assert again == vocab
        assert data["functions"] == again.function_names
        assert [c["group"] for c in data["columns"]] == \
            [ft.infer_group(n) for n in again.columns]

    def test_empty_corpus_raises(self):
        with pytest.raises(EmptyCorpus):
            ft.build_vocabulary([])

    def test_infer_group(self):
        assert ft.infer_group("count_foo") == "system"
        assert ft.infer_group("total_dur_foo") == "temporal"
        assert ft.infer_group("eigenvector_mean") == "graph"
        assert ft.infer_group("write_bytes") == "system"
        assert ft.infer_group("std_call_duration") == "temporal"


class TestExtract:
    def test_counts_and_durations(self):
        s = summary_from_text(TWO_FN_TEXT, io=tp.IoMeta(1, 2, 30, 40))
        vocab = ft.build_vocabulary([s])
        row = ft.extract_matrix([s], vocab).X[0]
        col = {n: i for i, n in enumerate(vocab.columns)}
        assert row[col["count_vfs_read"]] == 1
        assert row[col["total_dur_vfs_read"]] == pytest.approx(2.15)
        assert row[col["count_rw_verify_area"]] == 1
        assert row[col["total_dur_rw_verify_area"]] == pytest.approx(0.3)
        assert row[col["total_calls"]] == 2
        assert row[col["read_count"]] == 1
        assert row[col["write_bytes"]] == 40
        assert row[col["mean_call_duration"]] == pytest.approx((2.15 + 0.3) / 2)
        assert row[col["mean_intercall_interval"]] == 0.0  # no abstime

    def test_unseen_function_ignored_and_warned(self):
        base = summary_from_text(TWO_FN_TEXT)
        vocab = ft.build_vocabulary([base])
        other = summary_from_text(" 0)   0.100 us    |  fsnotify();")
        m = ft.extract_matrix([base, other], vocab)
        assert m.X.shape == (2, 20)
        assert any("unseen" in w for w in m.warnings)
        assert m.X[1, :4].tolist() == [0, 0, 0, 0]

    def test_extract_matrix_determinism(self):
        profiles = wg.default_pair()
        samples = []
        for seed in range(4):
            text, io, book = wg.generate_trace(profiles[seed % 2], seed,
                                               n_root_calls=10)
            samples.append(summary_from_text(text, io=io, label=book.label))
        vocab = ft.build_vocabulary(samples)
        a = ft.extract_matrix(samples, vocab)
        b = ft.extract_matrix(samples, vocab)
        assert np.array_equal(a.X, b.X)
        assert a.labels.tolist() == b.labels.tolist() == [0, 1, 0, 1]

    def test_extract_matrix_independent_of_hash_seed(self, tmp_path):
        # graph metrics once summed floats in set order, which follows
        # the per-process string hash seed
        wg.generate_corpus(wg.task_profiles(), 3, seed=7, out_dir=tmp_path,
                           multi_cpu=True, abstime=True)
        code = ("import hashlib, sys\n"
                "from ftracekit import features, trace_parser\n"
                "s = [features.extract(trace_parser.load_sample(p))\n"
                "     for p in trace_parser.trace_paths(sys.argv[1])]\n"
                "m = features.extract_matrix(s, features.build_vocabulary(s))\n"
                "print(hashlib.sha256(m.X.tobytes()).hexdigest())\n")
        src = str(Path(ft.__file__).resolve().parents[1])
        digests = {subprocess.run(
            [sys.executable, "-c", code, str(tmp_path)], check=True,
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": h}).stdout
            for h in ("1", "2", "3")}
        assert len(digests) == 1

    def test_parser_warnings_reach_the_matrix(self, tmp_path):
        (tmp_path / "good.trace").write_text(TWO_FN_TEXT + "\n")
        (tmp_path / "bad.trace").write_text(
            TWO_FN_TEXT + "\nthis is not function_graph output\n")
        m = ft.load_matrix(tmp_path, strict=False)
        assert m.warnings == ["parser warnings: 1",
                              "abstime absent for some samples; "
                              "mean_intercall_interval is 0 there"]
        (tmp_path / "bad.trace").unlink()
        clean = ft.load_matrix(tmp_path, strict=False)
        assert not any(w.startswith("parser") for w in clean.warnings)

    def test_load_matrix_holds_one_parsed_trace_at_a_time(self, tmp_path):
        # each trace is summarised and freed before the next is parsed, so
        # the traced peak grows with the summaries, not the call records;
        # holding every parsed trace grew it by about 47 KB per trace
        peaks = []
        for n in (2, 8):
            corpus = tmp_path / str(n)
            wg.generate_corpus(wg.task_profiles(), n, seed=7, out_dir=corpus,
                               multi_cpu=True, abstime=True)
            ft.load_matrix(corpus, strict=True)  # warm caches and imports
            tracemalloc.start()
            try:
                ft.load_matrix(corpus, strict=True)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        n_small, n_large = 6 * 2, 6 * 8
        per_trace = (peaks[1] - peaks[0]) / (n_large - n_small)
        assert per_trace < 15_000, peaks

    @pytest.mark.parametrize("cpus", [ONE_CPU, TWO_CPUS])
    def test_ingest_never_builds_call_records(self, cpus, tmp_path,
                                              monkeypatch):
        # load_matrix, extract and sample_graph read the parser's columns;
        # only the generator builds CallRecords
        wg.generate_corpus(wg.task_profiles(), 2, seed=7, out_dir=tmp_path,
                           multi_cpu=True, abstime=True)
        want = ft.load_matrix(tmp_path, strict=True)

        def no_records(*args, **kwargs):
            raise AssertionError("CallRecord built")
        monkeypatch.setattr(tp, "CallRecord", no_records)
        use_cpus(monkeypatch, cpus)
        got = ft.load_matrix(tmp_path, strict=True)
        assert np.array_equal(got.X, want.X) and got.tasks == want.tasks
        sample = tp.load_sample(tp.trace_paths(tmp_path)[0], strict=True)
        assert ft.extract(sample).counts
        assert cg.sample_graph(sample).keys

    def test_labels_dropped_if_any_missing(self):
        s1 = summary_from_text(TWO_FN_TEXT, label=1)
        s2 = summary_from_text(TWO_FN_TEXT)
        vocab = ft.build_vocabulary([s1])
        m = ft.extract_matrix([s1, s2], vocab)
        assert m.labels is None


class TestScaling:
    def _matrix(self, X):
        X = np.asarray(X, dtype=float)
        vocab = ft.FeatureVocabulary([f"c{i}" for i in range(X.shape[1])])
        return ft.FeatureMatrix(vocab=vocab, X=X)

    def _fit_apply(self, kind, X):
        m = self._matrix(X)
        return ft.ScalingState.fit(kind, m).apply(m)

    def test_minmax_basic(self):
        m = self._fit_apply("minmax", [[0.0], [5.0], [10.0]])
        assert m.X[:, 0].tolist() == [0.0, 0.5, 1.0]

    def test_minmax_constant_column_is_zero(self):
        m = self._fit_apply("minmax", [[3.0], [3.0]])
        assert m.X[:, 0].tolist() == [0.0, 0.0]

    def test_minmax_apply_clips(self):
        state = ft.ScalingState.fit("minmax", self._matrix([[0.0], [10.0]]))
        out = state.apply(self._matrix([[-5.0], [20.0]]))
        assert out.X[:, 0].tolist() == [0.0, 1.0]

    def test_zscore_basic(self):
        m = self._fit_apply("zscore", [[1.0], [2.0], [3.0]])
        want = (np.array([1, 2, 3]) - 2.0) / np.std([1, 2, 3])
        assert m.X[:, 0] == pytest.approx(want)

    def test_zscore_constant_column_is_zero(self):
        m = self._fit_apply("zscore", [[4.0], [4.0]])
        assert m.X[:, 0].tolist() == [0.0, 0.0]

    def test_apply_reuses_training_statistics(self):
        state = ft.ScalingState.fit("zscore", self._matrix([[1.0], [3.0]]))
        out = state.apply(self._matrix([[2.0]]))
        assert out.X[0, 0] == pytest.approx(0.0)


class TestCsvRoundTrip:
    def test_round_trip_with_labels_and_tasks(self, tmp_path):
        s = summary_from_text(TWO_FN_TEXT, io=tp.IoMeta(1, 2, 3, 4),
                              label=1, task="aes_encrypt")
        vocab = ft.build_vocabulary([s])
        m = ft.extract_matrix([s, s], vocab)
        path = tmp_path / "feats.csv"
        ft.write_csv(m, path)
        back = ft.read_csv(path)
        assert back.vocab == vocab
        assert back.X == pytest.approx(m.X, abs=1e-8)
        assert back.labels.tolist() == m.labels.tolist()
        assert back.tasks == m.tasks

    def test_read_without_vocab_infers_groups(self, tmp_path):
        s = summary_from_text(TWO_FN_TEXT, label=0)
        vocab = ft.build_vocabulary([s])
        m = ft.extract_matrix([s], vocab)
        path = tmp_path / "feats.csv"
        ft.write_csv(m, path)
        back = ft.read_csv(path)
        assert back.vocab.columns == vocab.columns


class TestSubsets:
    def test_subset_rows_and_columns(self):
        s = summary_from_text(TWO_FN_TEXT, io=tp.IoMeta(), label=1, task="t")
        vocab = ft.build_vocabulary([s])
        m = ft.extract_matrix([s, s, s], vocab)
        rows = m.subset_rows([0, 2])
        assert rows.X.shape == (2, 20)
        assert rows.labels.tolist() == [1, 1]
        cols = m.subset_columns(["total_calls", "count_vfs_read"])
        assert cols.X.shape == (3, 2)
        assert cols.vocab.columns == ["total_calls", "count_vfs_read"]

    def test_column_subset_keeps_only_its_functions(self):
        s = summary_from_text(TWO_FN_TEXT)
        m = ft.extract_matrix([s], ft.build_vocabulary([s]))
        sub = m.subset_columns(["total_calls", "total_dur_vfs_read",
                                "count_vfs_read"])
        assert sub.vocab.function_names == ["vfs_read"]
        assert json.loads(sub.vocab.to_json())["functions"] == ["vfs_read"]

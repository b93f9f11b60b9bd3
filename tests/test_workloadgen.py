import builtins
import hashlib
import json
import math
import os
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from ftracekit import call_graph as cg
from ftracekit import trace_parser as tp
from ftracekit import workloadgen as wg

from conftest import (ONE_CPU, TWO_CPUS, assert_no_child_left, preorder,
                      use_cpus)


def bookkeeping_matches(book, sample) -> bool:
    """Exact oracle check: parsed counts equal generator bookkeeping."""
    records = preorder(sample)
    return (len(records) == book.total_calls
            and Counter(rec.name for rec in records) == book.call_counts)


class TestProfiles:
    def test_profile_sets(self):
        assert len(wg.profiles_by_name("default2")) == 2
        assert len(wg.profiles_by_name("graphonly")) == 2
        plain, crypto = wg.profiles_by_name("scale")
        assert (plain.label, crypto.label) == (0, 1)
        assert plain.vocabulary == crypto.vocabulary
        assert len(plain.vocabulary) == 1000
        tasks = wg.profiles_by_name("tasks6")
        assert [p.name for p in tasks] == [
            "aes_encrypt", "chacha_stream", "file_copy", "grep_scan",
            "compile_job", "db_update"]
        with pytest.raises(ValueError):
            wg.profiles_by_name("nope")

    def test_bad_profile_rejected(self):
        with pytest.raises(ValueError):
            wg.WorkloadProfile(name="x", label=0,
                               vocabulary=[("f", 1.0)],
                               crypto_intensity=1.5)


class TestGenerateTrace:
    def test_byte_identical_for_same_seed(self):
        p = wg.default_pair()[1]
        a, io_a, book_a = wg.generate_trace(p, seed=12, n_root_calls=20)
        b, io_b, book_b = wg.generate_trace(p, seed=12, n_root_calls=20)
        assert a == b
        assert io_a == io_b
        assert book_a.call_counts == book_b.call_counts

    def test_different_seeds_differ(self):
        p = wg.default_pair()[0]
        a, _, _ = wg.generate_trace(p, seed=1, n_root_calls=20)
        b, _, _ = wg.generate_trace(p, seed=2, n_root_calls=20)
        assert a != b

    def test_bookkeeping_oracle(self):
        for p in wg.task_profiles():
            text, _, book = wg.generate_trace(p, seed=3, n_root_calls=12)
            sample = tp.parse_trace(text, strict=True)
            assert bookkeeping_matches(book, sample)

    def test_zero_roots(self):
        p = wg.default_pair()[0]
        text, _, book = wg.generate_trace(p, seed=0, n_root_calls=0)
        assert book.total_calls == 0
        assert preorder(tp.parse_trace(text, strict=True)) == []

    def test_ring_classes_share_count_distribution(self):
        tight, loose = wg.graph_signal_pair()
        _, _, book_t = wg.generate_trace(tight, seed=5, n_root_calls=24)
        _, _, book_l = wg.generate_trace(loose, seed=5, n_root_calls=24)
        assert book_t.call_counts == book_l.call_counts

    def test_ring_classes_differ_only_in_wiring(self):
        tight, loose = wg.graph_signal_pair()
        text_t, _, _ = wg.generate_trace(tight, seed=5, n_root_calls=24)
        text_l, _, _ = wg.generate_trace(loose, seed=5, n_root_calls=24)
        g_t = cg.sample_graph(tp.parse_trace(text_t, strict=True))
        g_l = cg.sample_graph(tp.parse_trace(text_l, strict=True))
        cl_t = np.mean(cg.clustering(g_t))
        cl_l = np.mean(cg.clustering(g_l))
        assert cl_t > cl_l + 0.2

    def test_float_sums_skip_builtin_sum(self, monkeypatch):
        # from Python 3.12 builtin sum compensates float sums, so durations
        # and eigenvector scores summed with it differ between 3.11 and 3.12
        real_sum = builtins.sum

        def no_float_sum(items, start=0):
            items = list(items)
            if any(isinstance(v, float) for v in [start, *items]):
                raise AssertionError("builtin sum over floats")
            return real_sum(items, start)

        monkeypatch.setattr(builtins, "sum", no_float_sum)
        text, _, book = wg.generate_trace(wg.task_profiles()[0], 7,
                                          n_root_calls=6)
        scores = cg.eigenvector(cg.sample_graph(tp.parse_trace(text)))
        assert len(scores) == len(book.call_counts)
        assert max(scores) > 0


class TestGenerateCorpus:
    def test_layout_and_manifest(self, tmp_path):
        manifest = wg.generate_corpus(wg.default_pair(), 3, seed=8,
                                      out_dir=tmp_path, n_root_calls=5)
        assert (tmp_path / "manifest.json").exists()
        on_disk = json.loads((tmp_path / "manifest.json").read_text())
        assert on_disk["entries"] == manifest["entries"]
        assert len(manifest["entries"]) == 6
        for entry in manifest["entries"]:
            trace = tmp_path / entry["file"]
            sidecar = tmp_path / entry["sidecar"]
            assert trace.exists() and sidecar.exists()
            text = trace.read_text()
            assert hashlib.sha256(text.encode()).hexdigest() == entry["sha256"]
            sample = tp.parse_trace(text, strict=True)
            assert len(preorder(sample)) == entry["total_calls"]
            meta = json.loads(sidecar.read_text())
            assert set(meta) == {"label", "task", "read_count", "write_count",
                                 "read_bytes", "write_bytes"}

    def test_corpus_deterministic(self, tmp_path):
        wg.generate_corpus(wg.default_pair(), 2, seed=4,
                           out_dir=tmp_path / "a", n_root_calls=5)
        wg.generate_corpus(wg.default_pair(), 2, seed=4,
                           out_dir=tmp_path / "b", n_root_calls=5)
        files_a = sorted((tmp_path / "a").rglob("*.trace"))
        files_b = sorted((tmp_path / "b").rglob("*.trace"))
        assert [f.name for f in files_a] == [f.name for f in files_b]
        for fa, fb in zip(files_a, files_b):
            assert fa.read_bytes() == fb.read_bytes()

    def test_directory_that_holds_traces_is_refused(self, tmp_path):
        # before, a second corpus was written beside the first, so the
        # directory mixed both and its manifest named only the second
        wg.generate_corpus(wg.default_pair(), 2, seed=4, out_dir=tmp_path,
                           n_root_calls=5)
        before = corpus_digest(tmp_path)
        with pytest.raises(ValueError) as e:
            wg.generate_corpus(wg.default_pair(), 1, seed=5, out_dir=tmp_path,
                               n_root_calls=5)
        assert f"{tmp_path} already holds traces" in str(e.value)
        assert corpus_digest(tmp_path) == before

    def test_count_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            wg.generate_corpus(wg.default_pair(), 0, seed=0, out_dir=tmp_path)

    @pytest.mark.parametrize("roots", [0, -5])
    def test_root_count_must_be_positive(self, roots, tmp_path, monkeypatch):
        # before, zero-byte traces and a manifest with total_calls 0 were
        # written, and `features` read them as a corpus
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        use_cpus(monkeypatch, TWO_CPUS)
        with pytest.raises(ValueError, match="n_root_calls"):
            wg.generate_corpus(wg.default_pair(), 2, seed=0,
                               out_dir=tmp_path / "c", n_root_calls=roots)
        assert not (tmp_path / "c").exists() and not forks


def corpus_digest(directory) -> str:
    """sha256 over the relative path and bytes of every file in a corpus:
    manifest.json, the traces and their sidecars."""
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            h.update(path.relative_to(directory).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


LAYOUTS = {"plain": {}, "multi_cpu_abstime": {"multi_cpu": True, "abstime": True}}

# Recorded with the recursive generator (one rng.choice per call, recursive
# duration, time and CPU passes) that the single-pass generator replaced;
# 3 traces per profile, 30 root calls each.
GOLDEN_CORPORA = {
    ("default2", "plain", 0): "0f1fb3f3e588d415a87e2e08b2a0d7b078302f26d903433dd44479d9f58ff25b",
    ("default2", "plain", 7): "7d5ec24e9447916cff23978aec3bfd673de63238915197d5b178f1dddef39b9d",
    ("default2", "plain", 11): "d5ef988d6c9e24f1da3b21f18215aee513fb698f5485f7286511cc55de3e2d50",
    ("default2", "multi_cpu_abstime", 0): "a5b1fff407d50307ec1358864ce20f0195d8d67ec110e3f0e91ae3551cc4ed52",
    ("default2", "multi_cpu_abstime", 7): "415e4206e8cac6d3b8c4f339c855f141d3074b9feee1e442931a29259e549348",
    ("default2", "multi_cpu_abstime", 11): "451b6a6dd2fb789a921500c120e3aab99a208be121dc2af99e23eda63b45b610",
    ("graphonly", "plain", 0): "8afce3be50f9026b754eff4fb84c57e96b2f90483dc98544e1bb64c4b614c9c0",
    ("graphonly", "plain", 7): "42fc739415b53b1106db758ab128983fdc2575d56b2ceab9bdae99ae9f5ccb1f",
    ("graphonly", "plain", 11): "de719a34eb7907b93512b75acfd0a9ecc0eb3812aa8de61bf0e982c373bae016",
    ("graphonly", "multi_cpu_abstime", 0): "a172bd0c195699ec6c98e9ef183ab61b4278a63408493ba25b909bbc40486d82",
    ("graphonly", "multi_cpu_abstime", 7): "9d7bc307faf8c34e0f3c9450a5b06c43e7caafc5611081d75122dd5edddf563a",
    ("graphonly", "multi_cpu_abstime", 11): "6ec2378aaf1caa5358b6f2da15b91d6396d32c74f9e6b03701f8fd290e45365a",
    ("tasks6", "plain", 0): "017df1605e88360d57e29229643e206c9f1d86751794b794beded80b855e902a",
    ("tasks6", "plain", 7): "49691ec3851dedbc491a6d285dc7d31afc1b5fee43eaf108ae606ede0999e198",
    ("tasks6", "plain", 11): "5b8c332cb896215338e821d5ea268b3777ab0045dfd95633bead26fe0e0b1985",
    ("tasks6", "multi_cpu_abstime", 0): "5abe45a897cc4a2100db8018054c969e52c8ecf2167f4b538472a7dbe767283d",
    ("tasks6", "multi_cpu_abstime", 7): "0fd61e6a8ba4e3916bf1faf7ce6ddce624e2b0f6fea6763ace41329530f4ed35",
    ("tasks6", "multi_cpu_abstime", 11): "2009a2b2b356cb27ede8719bda0995f1575ed9ff41f4255b24f8e67f26284f6b",
}

# the scale set, recorded with the single-pass generator when it was added
GOLDEN_CORPORA.update({
    ("scale", "plain", 7): "fc710fc0fd6de5d7e35bbed8dd43b388410cd52871afd18b920ab5944e727ba0",
    ("scale", "multi_cpu_abstime", 7): "ada941b204c79d97af3a27dcb63d189b230153dd5d59efc2f505a0a187d50570",
})

@pytest.mark.parametrize("key", sorted(GOLDEN_CORPORA),
                         ids=lambda key: "-".join(map(str, key)))
def test_corpus_bytes_unchanged(key, tmp_path):
    profiles, layout, seed = key
    wg.generate_corpus(wg.profiles_by_name(profiles), 3, seed, tmp_path,
                       **LAYOUTS[layout])
    assert corpus_digest(tmp_path) == GOLDEN_CORPORA[key]


class TestMappedCorpus:
    """`generate_corpus` maps its traces over the usable CPUs
    (`workers.map_forked`); see tests/test_ingest_workers.py for the map on
    its own."""

    @pytest.mark.parametrize("profiles,flags", [
        ("default2", {}),
        ("tasks6", {"multi_cpu": True, "abstime": True}),
    ])
    def test_one_and_two_workers_give_the_same_corpus(
            self, profiles, flags, tmp_path, monkeypatch):
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        got = {}
        for name, cpus in (("one", ONE_CPU), ("two", TWO_CPUS)):
            use_cpus(monkeypatch, cpus)
            out = tmp_path / name
            manifest = wg.generate_corpus(wg.profiles_by_name(profiles), 5,
                                          seed=7, out_dir=out, **flags)
            assert_no_child_left()
            assert len(forks) == {"one": 0, "two": 1}[name]
            got[name] = corpus_digest(out), manifest
        assert got["one"] == got["two"]
        assert got["one"][1] == json.loads(
            (tmp_path / "one" / "manifest.json").read_text())

    @pytest.mark.parametrize("cpus", [ONE_CPU, TWO_CPUS])
    def test_the_lowest_indexed_job_error_is_raised(self, cpus, tmp_path,
                                                    monkeypatch):
        # with two workers, job 1 is the forked worker's and job 2 this
        # process's; a directory where each job's sidecar goes fails both,
        # and job 1's error is raised, as in a serial run
        ref = wg.generate_corpus(wg.default_pair(), 4, seed=7,
                                 out_dir=tmp_path / "ref", n_root_calls=5)
        out = tmp_path / "c"
        sidecars = [out / ref["entries"][i]["sidecar"] for i in (1, 2)]
        for path in sidecars:
            path.mkdir(parents=True)
        use_cpus(monkeypatch, cpus)
        with pytest.raises(IsADirectoryError) as err:
            wg.generate_corpus(wg.default_pair(), 4, seed=7, out_dir=out,
                               n_root_calls=5)
        assert err.value.filename == str(sidecars[0])
        assert_no_child_left()

    def test_workers_send_text_not_entries(self, tmp_path, monkeypatch):
        # each job returns its manifest entry as JSON text; entry dicts
        # unpickled in this process raised its traced peak by 10-17%
        def peak(cpus, out):
            use_cpus(monkeypatch, cpus)
            tracemalloc.start()
            try:
                wg.generate_corpus(wg.task_profiles(), 12, seed=7,
                                   out_dir=out, multi_cpu=True, abstime=True)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        peak(TWO_CPUS, tmp_path / "warm")  # imports and caches
        one = peak(ONE_CPU, tmp_path / "one")
        two = peak(TWO_CPUS, tmp_path / "two")
        assert two <= 1.05 * one, (one, two)


class TestExactDraws:
    """The generator's fast draws against the calls they replaced: same
    values and the same bit-generator state afterwards, so every later draw
    of a trace is unchanged too."""

    VOCABULARIES = {
        "profile": wg.default_pair()[1].vocabulary,
        "crypto": [(n, 1.0) for n in wg.CRYPTO_FUNCTIONS],
    }

    @pytest.mark.parametrize("vocab", sorted(VOCABULARIES))
    def test_cdf_search_equals_choice(self, vocab):
        rates = np.array([r for _, r in self.VOCABULARIES[vocab]])
        p = rates / rates.sum()
        names, cdf = wg._cdf(self.VOCABULARIES[vocab])
        assert len(names) == len(p)
        slow, fast = np.random.default_rng(3), np.random.default_rng(3)
        for i in range(20_000):
            assert (cdf.searchsorted(fast.random(), side="right")
                    == slow.choice(len(p), p=p))
            if i % 3 == 0:  # child counts are drawn between the names
                lam = 1.4 / (i % 4 + 1.0)
                assert fast.poisson(lam) == slow.poisson(lam)
        assert fast.bit_generator.state == slow.bit_generator.state

    def test_batched_lognormal_equals_scalar_draws(self):
        slow, fast = np.random.default_rng(5), np.random.default_rng(5)
        for n in (1, 2, 7, 300):
            batch = fast.lognormal(math.log(1.5), 0.6, size=n).tolist()
            assert batch == [float(slow.lognormal(math.log(1.5), 0.6))
                             for _ in range(n)]
            assert fast.poisson(2.0) == slow.poisson(2.0)
        assert fast.bit_generator.state == slow.bit_generator.state

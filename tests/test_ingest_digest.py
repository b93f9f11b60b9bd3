"""Golden digests of the trace -> feature-matrix path and of `ftracekit parse`.

Two small corpora, one per trace layout, go through `load_matrix`; the
sha256 of the matrix bytes and the matrix warnings must equal the values
recorded before the single-regex parser and the index-based graph metrics
replaced the step-by-step parser and the dict-based metrics.  Any change to
ingest that moves one bit of one feature fails here.  The digests were
recorded with numpy 2.4 on x86-64; a numpy build whose mean or std rounds
differently would need them recorded again.

The parse digests were recorded while `parse` still wrote its JSON from a
tree of call records: a strict parse of a generated multi-CPU abstime
trace, and a tolerant parse of a hand-written trace with each anomaly
tolerant mode keeps going past.
"""

import hashlib
from pathlib import Path

import pytest

from ftracekit import cli
from ftracekit import features as ft
from ftracekit import workloadgen as wg

ABSTIME_WARNING = "abstime absent for some samples; mean_intercall_interval is 0 there"

GOLDEN = {
    # name: (profile set, traces per profile, generator flags, shape, sha256, warnings)
    "tasks6_multi_cpu_abstime": (
        "tasks6", 4, {"multi_cpu": True, "abstime": True}, (24, 94),
        "d15446e1c1acf821144004f237cd4c8ecef135ed391990bc20b41ffe95e2d5b6", []),
    "default2": (
        "default2", 4, {}, (8, 82),
        "99e26e82d0dd4a4744c53d21fcd59d831e28b62c07ef31ea2ba651ec05305c48",
        [ABSTIME_WARNING]),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_matrix_bytes_unchanged(name, tmp_path):
    profiles, count, flags, shape, sha, warnings = GOLDEN[name]
    wg.generate_corpus(wg.profiles_by_name(profiles), count, 7, tmp_path, **flags)
    m = ft.load_matrix(tmp_path, strict=False)
    assert m.X.shape == shape
    assert hashlib.sha256(m.X.tobytes()).hexdigest() == sha
    assert m.warnings == warnings


GOLDEN_OUTPUTS = {
    # name: (sha256 of the vocabulary JSON, sha256 of the feature CSV)
    "tasks6_multi_cpu_abstime": (
        "c4d64c70b56d9012e9c8bef77513e1d9a427952b25588ade3aa9d2e7f23aa5cc",
        "7ca3fca84566c55738ee9fa7f1a0a82598a11333fba0f023a20ce734acbb2d62"),
    "default2": (
        "c70c9a1ee5b45b42aef6744e9635e9ac3f8e256b51408903c5e70324a1b4a454",
        "ac3baa72c696f8fc7f94fe13b84c93dc1f0531573826cf2e4391766e7c52536f"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_vocabulary_and_csv_bytes_unchanged(name, tmp_path):
    # recorded while the vocabulary still stored a group tag per column
    profiles, count, flags = GOLDEN[name][:3]
    vocab_sha, csv_sha = GOLDEN_OUTPUTS[name]
    wg.generate_corpus(wg.profiles_by_name(profiles), count, 7,
                       tmp_path / "corpus", **flags)
    m = ft.load_matrix(tmp_path / "corpus", strict=False)
    ft.write_csv(m, tmp_path / "features.csv")
    assert hashlib.sha256(m.vocab.to_json().encode()).hexdigest() == vocab_sha
    assert hashlib.sha256(
        (tmp_path / "features.csv").read_bytes()).hexdigest() == csv_sha


# an unmatched exit on a CPU that has calls and on one that has none, a
# malformed line, two roots on one CPU and an entry left open; two lines
# carry an abstime column
HAND_TRACE = """\
# tracer: function_graph
#
# CPU  DURATION                  FUNCTION CALLS
# |     |   |                     |   |   |   |
 0)               |  vfs_read() {
 100.000000 |  0)   0.300 us    |    rw_verify_area();
 1)   1.000 us    |  } /* ksys_write */
 2)   1.000 us    |  } /* do_exit */
 0)   this line is not a function_graph line
 100.000020 |  0) + 12.150 us   |  } /* vfs_read */
 0)   0.100 us    |  schedule();
 1)               |  ksys_write() {
 1)   0.250 us    |    fsnotify();
"""

PARSE_GOLDEN = {
    # name: (strict, sha256 of the parse JSON)
    "tasks6_multi_cpu_abstime_strict": (
        True, "3bd07ba7f9be431576ed66117ec047b139a5ca40edf9418b25a5d454ce5044e5"),
    "hand_written_tolerant": (
        False, "fa9e2fd28023f6516a91b12898592a6eda549353a08414a781bc2b4650305749"),
}


@pytest.mark.parametrize("name", sorted(PARSE_GOLDEN))
def test_parse_json_bytes_unchanged(name, tmp_path, monkeypatch):
    strict, sha = PARSE_GOLDEN[name]
    # a relative input keeps the JSON's "source" field free of tmp_path
    monkeypatch.chdir(tmp_path)
    if strict:
        wg.generate_corpus(wg.profiles_by_name("tasks6"), 1, 7, "corpus",
                           multi_cpu=True, abstime=True)
        trace = sorted(Path("corpus").rglob("*.trace"))[0]
    else:
        trace = Path("hand.trace")
        trace.write_text(HAND_TRACE)
    argv = ["parse", "--input", str(trace), "--out", "out.json"]
    assert cli.main(argv + ["--strict"] * strict) == 0
    assert hashlib.sha256(Path("out.json").read_bytes()).hexdigest() == sha

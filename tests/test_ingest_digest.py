"""Golden digests of the trace -> feature-matrix path.

Two small corpora, one per trace layout, go through `load_matrix`; the
sha256 of the matrix bytes and the matrix warnings must equal the values
recorded before the single-regex parser and the index-based graph metrics
replaced the step-by-step parser and the dict-based metrics.  Any change to
ingest that moves one bit of one feature fails here.  The digests were
recorded with numpy 2.4 on x86-64; a numpy build whose mean or std rounds
differently would need them recorded again.
"""

import hashlib

import pytest

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

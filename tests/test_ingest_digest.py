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

"""Golden digests of the reports.

Small seed-7 corpora go through both experiments and through `ftracekit
parse`; the sha256 of each report's `canonical_json()` and of the parse
JSON must equal the values recorded before the metric counts were shared
and the single-value options were turned into constants.  A refactor that
moves one byte of one report fails here.  The digests were recorded with
numpy 2.4 on x86-64; a numpy build whose sums round differently would need
them recorded again.
"""

import hashlib

import pytest

from ftracekit import cli
from ftracekit import experiments as ex
from ftracekit import workloadgen as wg

# small studies: three folds, two curve fractions, two noise levels
EXP1_CONFIG = {"k": 20, "folds": 3, "fractions": [0.2, 1.0], "sigmas": [0.5, 2.0]}

GOLDEN = {
    # name: (experiment, profile set, traces per profile, generator flags,
    #        config, sha256 of canonical_json)
    "exp1_boosting_default2": (
        ex.run_experiment_1, "default2", 12, {},
        {**EXP1_CONFIG, "learner": "boosting"},
        "26851976444f2cb1bd57ebb2ce8ea6faba9a64c129139462f03f7680435284a5"),
    "exp1_forest_default2": (
        ex.run_experiment_1, "default2", 12, {},
        {**EXP1_CONFIG, "learner": "forest"},
        "0f91ea285ff469cb8468de41d432b5a2e98d723996b407774fc93e29f5208a65"),
    "exp2_tasks6_multi_cpu_abstime": (
        ex.run_experiment_2, "tasks6", 8, {"multi_cpu": True, "abstime": True},
        {"k": 20, "base_params": {"n_trees": 8, "max_depth": 6},
         "importance_params": {"n_trees": 8, "max_depth": 6}},
        "a161b6111b2a3183c629d95d7700c9e99b580c7dfd291a2a53b6a23b0a0748c9"),
}

PARSE_SHA256 = "bbca8ec4b29258f4ee925cc1c4e37e52008abf90ad33779396cf46ee599c88db"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_bytes_unchanged(name, tmp_path):
    run, profiles, count, flags, config, sha = GOLDEN[name]
    wg.generate_corpus(wg.profiles_by_name(profiles), count, 7, tmp_path,
                       n_root_calls=12, **flags)
    report = run(tmp_path, config, seed=7)
    assert _sha(report.canonical_json()) == sha


def test_parse_json_unchanged(tmp_path, monkeypatch):
    wg.generate_corpus(wg.profiles_by_name("tasks6"), 1, 7, tmp_path,
                       n_root_calls=12, multi_cpu=True, abstime=True)
    # a relative input keeps the JSON's "source" field free of tmp_path
    monkeypatch.chdir(tmp_path)
    trace = sorted(tmp_path.rglob("*.trace"))[0].relative_to(tmp_path)
    assert cli.main(["parse", "--input", str(trace), "--out", "records.json"]) == 0
    assert _sha((tmp_path / "records.json").read_text()) == PARSE_SHA256

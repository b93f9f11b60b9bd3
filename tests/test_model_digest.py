"""Golden digests of boosting model files.

`ftracekit train --learner boosting` on the features of a small seed-7
`default2` corpus must write the bytes recorded before a boosting fit
shared one root split state across its rounds.  With learning rate 8,
10 of the 20 steps are halved, so the halving loop's accepted steps and
scales are pinned too.  The digests were recorded with numpy 2.4 on
x86-64, as those of `test_report_digest.py`.
"""

import hashlib
import json

import pytest

from ftracekit import cli

MODELS = {  # name: (train params, sha256 of the model file)
    "default": ({},
                "6035f69d5b2cdc822b8a647c669167f837f90214ab4b78843f5861617ac1f863"),
    "halved": ({"learning_rate": 8.0, "n_rounds": 20},
               "3e65f873fdad2ec8ddf439c862eab23abf23a47928bd138f11cf75ade3ec532e"),
}


@pytest.fixture(scope="module")
def feature_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("boosting")
    assert cli.main(["gen", "--profiles", "default2", "--count", "12",
                     "--seed", "7", "--out", str(out / "corpus")]) == 0
    assert cli.main(["features", "--corpus", str(out / "corpus"),
                     "--out", str(out / "features.csv")]) == 0
    return out / "features.csv"


@pytest.mark.parametrize("name", sorted(MODELS))
def test_model_bytes_unchanged(name, feature_csv, tmp_path):
    params, sha = MODELS[name]
    path = tmp_path / "model.json"
    assert cli.main(["train", "--features", str(feature_csv),
                     "--learner", "boosting", "--params", json.dumps(params),
                     "--seed", "7", "--out", str(path)]) == 0
    scales = json.loads(path.read_text())["state"]["scales"]
    rate = params.get("learning_rate", 0.1)
    halved = sum(scale < rate for scale in scales)
    assert halved == (10 if name == "halved" else 0)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha

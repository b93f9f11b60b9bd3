import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from ftracekit import cli, experiments, features, learners


def run(argv):
    return cli.main(argv)


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    rc = run(["gen", "--profiles", "default2", "--count", "12",
              "--seed", "3", "--out", str(out), "--roots", "8"])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def feature_csv(small_corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("feats") / "features.csv"
    vocab = out.with_name("vocab.json")
    rc = run(["features", "--corpus", str(small_corpus), "--out", str(out),
              "--vocab", str(vocab), "--strict"])
    assert rc == 0
    assert vocab.exists()
    return out


class TestExitCodes:
    def test_missing_required_flag_is_validation_error(self, capsys):
        with pytest.raises(SystemExit) as e:
            run(["gen", "--out", "/tmp/x"])  # no --seed
        assert e.value.code == 1

    def test_unknown_subcommand_is_validation_error(self):
        with pytest.raises(SystemExit) as e:
            run(["frobnicate"])
        assert e.value.code == 1

    def test_missing_file_is_runtime_error(self, tmp_path, capsys):
        rc = run(["parse", "--input", str(tmp_path / "no.trace"),
                  "--out", str(tmp_path / "o.json")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_params_json_is_runtime_error(self, feature_csv, tmp_path,
                                              capsys):
        rc = run(["train", "--features", str(feature_csv),
                  "--params", "{not json", "--seed", "1",
                  "--out", str(tmp_path / "m.json")])
        assert rc == 2

    @pytest.mark.parametrize("learner, params, name", [
        ("forest", {"max_features": 0.5}, "max_features"),
        ("forest", {"max_features": -2}, "max_features"),
        ("forest", {"n_trees": 2.5}, "n_trees"),
        ("forest", {"min_samples_split": "a"}, "min_samples_split"),
        ("forest", {"max_depth": -1}, "max_depth"),
        ("tree", {"max_depth": 1.5}, "max_depth"),
        ("tree", {"min_samples_split": 0}, "min_samples_split"),
        ("boosting", {"max_depth": "a"}, "max_depth"),
        ("boosting", {"min_samples_split": 0}, "min_samples_split"),
        ("boosting", {"n_rounds": 2.5}, "n_rounds"),
        ("boosting", {"learning_rate": "x"}, "learning_rate"),
        ("logistic", {"epochs": "a"}, "epochs"),
        ("logistic", {"l2": -1}, "l2"),
        ("boosting", {"n_rounds": 0, "max_depth": "a"}, "max_depth"),
        ("forest", {"bootstrap": "false"}, "bootstrap"),
    ])
    def test_bad_tree_hyperparameter_is_runtime_error(
            self, learner, params, name, feature_csv, tmp_path, capsys):
        # before, a fractional max_features truncated to 0 features and
        # fitted single-leaf trees with exit 0, as boosting did with
        # min_samples_split 0; wrong types raised an uncaught TypeError
        # or numpy error (exit 1) and a negative max_features numpy's
        # message
        rc = run(["train", "--features", str(feature_csv), "--learner",
                  learner, "--params", json.dumps(params), "--seed", "0",
                  "--out", str(tmp_path / "m.json")])
        assert rc == 2
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["missing", "file", "empty_dir"])
    def test_corpus_without_traces_is_named(self, kind, tmp_path, capsys):
        # before, every case said "cannot build a vocabulary from an
        # empty corpus" without naming the path
        corpus = tmp_path / "corpus"
        if kind == "file":
            corpus.write_text("not a directory\n")
        elif kind == "empty_dir":
            corpus.mkdir()
        rc = run(["features", "--corpus", str(corpus),
                  "--out", str(tmp_path / "f.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"no *.trace files found under {corpus}" in err
        assert not (tmp_path / "f.csv").exists()

    @pytest.mark.parametrize("where", ["function", "task"])
    def test_csv_field_with_a_comma_is_refused(self, where, tmp_path, capsys):
        # before, `features` wrote a header one field wider than its rows
        # (or a row one field wider than its header), and `train` on the
        # file failed on a column named after half the function name
        name, task = ("foo,bar", "t") if where == "function" else ("foo", "a,b")
        (tmp_path / "x.trace").write_text(
            f" 0)               |  {name}() {{\n"
            f" 0)   1.000 us    |  }} /* {name} */\n")
        (tmp_path / "x.io.json").write_text(
            json.dumps({"label": 1, "task": task}))
        out = tmp_path / "f.csv"
        rc = run(["features", "--corpus", str(tmp_path), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert repr("count_foo,bar" if where == "function" else task) in err
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [
        ("label", True), ("read_count", 2.9), ("task", 5),
    ])
    def test_bad_sidecar_value_is_runtime_error(self, field, value, tmp_path,
                                                capsys):
        (tmp_path / "x.trace").write_text(" 0)   1.000 us    |  f();\n")
        (tmp_path / "x.io.json").write_text(json.dumps({field: value}))
        rc = run(["features", "--corpus", str(tmp_path),
                  "--out", str(tmp_path / "f.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "x.io.json" in err and field in err

    def test_unlabeled_csv_is_runtime_error(self, feature_csv, tmp_path,
                                            capsys):
        model = tmp_path / "m.json"
        assert run(["train", "--features", str(feature_csv), "--learner",
                    "tree", "--seed", "0", "--out", str(model)]) == 0
        header, *rows = feature_csv.read_text().splitlines()
        unlabeled = tmp_path / "unlabeled.csv"
        unlabeled.write_text("".join(
            line + "\n" for line in
            [header] + [row.rsplit(",", 2)[0] + ",," for row in rows]))
        rc = run(["eval", "--model", str(model), "--features", str(unlabeled)])
        assert rc == 2
        assert "without a label" in capsys.readouterr().err

    @pytest.mark.parametrize("corrupt", [
        lambda m: [m],
        lambda m: {k: v for k, v in m.items() if k != "kind"},
        lambda m: {**m, "kind": "nope"},
        lambda m: {**m, "version": 1},
        lambda m: {**m, "state": {**m["state"],
                                  "left": [0] + m["state"]["left"][1:]}},
        lambda m: {**m, "state": {**m["state"], "feature": [
            len(m["feature_names"])] + m["state"]["feature"][1:]}},
    ], ids=["list", "no_kind", "unknown_kind", "version_1", "cycle",
            "feature_out_of_range"])
    def test_malformed_model_is_runtime_error(self, corrupt, feature_csv,
                                              tmp_path, capsys):
        model = tmp_path / "m.json"
        assert run(["train", "--features", str(feature_csv), "--learner",
                    "tree", "--seed", "0", "--out", str(model)]) == 0
        model.write_text(json.dumps(corrupt(json.loads(model.read_text()))))
        rc = run(["eval", "--model", str(model), "--features", str(feature_csv)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_model_feature_missing_from_csv(self, feature_csv, tmp_path,
                                            capsys):
        model = tmp_path / "m.json"
        assert run(["train", "--features", str(feature_csv), "--learner",
                    "tree", "--seed", "0", "--out", str(model)]) == 0
        payload = json.loads(model.read_text())
        payload["feature_names"][0] = "count_not_in_the_csv"
        model.write_text(json.dumps(payload))
        rc = run(["eval", "--model", str(model), "--features", str(feature_csv)])
        assert rc == 2
        assert "'count_not_in_the_csv'" in capsys.readouterr().err

    @pytest.mark.parametrize("learner", ["tree", "forest"])
    def test_value_rows_wider_than_classes(self, learner, feature_csv,
                                           tmp_path, capsys):
        model = tmp_path / "m.json"
        assert run(["train", "--features", str(feature_csv), "--learner",
                    learner, "--params", '{"n_trees": 3}', "--seed", "0",
                    "--out", str(model)]) == 0
        payload = json.loads(model.read_text())
        state = payload["state"]
        for tree in state.get("trees", [state]):
            tree["value"] = [v + [0.0, 0.0] for v in tree["value"]]
        model.write_text(json.dumps(payload))
        rc = run(["eval", "--model", str(model), "--features", str(feature_csv)])
        assert rc == 2
        assert "malformed model file" in capsys.readouterr().err


class TestPipeline:
    def test_gen_layout(self, small_corpus):
        assert (small_corpus / "manifest.json").exists()
        traces = list(small_corpus.rglob("*.trace"))
        assert len(traces) == 24

    def test_parse(self, small_corpus, tmp_path):
        trace = sorted(small_corpus.rglob("*.trace"))[0]
        out = tmp_path / "parsed.json"
        rc = run(["parse", "--input", str(trace), "--out", str(out),
                  "--strict"])
        assert rc == 0
        parsed = json.loads(out.read_text())
        assert parsed["warnings"] == []
        assert parsed["records"]

    def test_parse_deep_trace(self, tmp_path):
        depth = 3000
        lines = [f" 0)               |  {'  ' * i}f{i % 3}() {{"
                 for i in range(depth)]
        lines += [f" 0)   1.000 us    |  {'  ' * i}}} /* f{i % 3} */"
                  for i in reversed(range(depth))]
        trace = tmp_path / "deep.trace"
        trace.write_text("\n".join(lines) + "\n")
        out = tmp_path / "parsed.json"
        assert run(["parse", "--input", str(trace), "--out", str(out)]) == 0
        # too deep for the stdlib decoder: read the names off the text, each
        # record's keys two levels of 2-space indent below its parent's
        names = re.findall(r'^( *)"name": "(\w+)",$', out.read_text(), re.M)
        assert [(len(pad), name) for pad, name in names] == [
            (8 + 4 * i, f"f{i % 3}") for i in range(depth)]

    def test_select(self, feature_csv, tmp_path):
        out = tmp_path / "scores.csv"
        rc = run(["select", "--features", str(feature_csv), "--k", "10",
                  "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "name,score,p_value"
        assert len(lines) == 11

    def test_train_and_eval(self, feature_csv, tmp_path, capsys):
        model = tmp_path / "model.json"
        rc = run(["train", "--features", str(feature_csv),
                  "--learner", "forest", "--params", '{"n_trees": 10}',
                  "--seed", "0", "--out", str(model)])
        assert rc == 0
        metrics = tmp_path / "metrics.json"
        rc = run(["eval", "--model", str(model),
                  "--features", str(feature_csv), "--out", str(metrics)])
        assert rc == 0
        data = json.loads(metrics.read_text())
        assert set(data) >= {"accuracy", "precision", "recall", "f1",
                             "roc_auc", "confusion"}

    def test_eval_one_vs_rest_against_tasks(self, feature_csv, tmp_path,
                                            capsys):
        m = features.read_csv(feature_csv)
        model = tmp_path / "ovr.json"
        learners.save_model(learners.train(
            "one_vs_rest", m.X, m.tasks, {"n_trees": 5}, seed=0,
            feature_names=m.vocab.column_names), model)
        metrics = tmp_path / "metrics.json"
        assert run(["eval", "--model", str(model), "--features",
                    str(feature_csv), "--out", str(metrics)]) == 0
        assert re.fullmatch(r"eval: accuracy \S+ f1 \S+ auc \S+\n",
                            capsys.readouterr().out)
        assert "f1_micro" in json.loads(metrics.read_text())

        header, *rows = feature_csv.read_text().splitlines()
        for task, message in (("", "rows without a task"),
                              ("no_such_task", "'no_such_task' is not one")):
            csv = tmp_path / "tasks.csv"
            csv.write_text("".join(line + "\n" for line in [header] + [
                row.rsplit(",", 1)[0] + "," + task for row in rows]))
            rc = run(["eval", "--model", str(model), "--features", str(csv)])
            assert rc == 2
            assert message in capsys.readouterr().err

    def test_train_and_eval_deep_tree(self, tmp_path):
        # an unlimited-depth tree on these rows is a 1,500-level chain
        csv = tmp_path / "deep.csv"
        csv.write_text("count_x,label,task\n"
                       + "".join(f"{i},{i % 2},\n" for i in range(1500)))
        model = tmp_path / "model.json"
        rc = run(["train", "--features", str(csv), "--learner", "tree",
                  "--seed", "0", "--out", str(model)])
        assert rc == 0
        metrics = tmp_path / "metrics.json"
        rc = run(["eval", "--model", str(model), "--features", str(csv),
                  "--out", str(metrics)])
        assert rc == 0
        assert json.loads(metrics.read_text())["accuracy"] == 1.0

    def test_curve(self, feature_csv, tmp_path):
        out = tmp_path / "curve.csv"
        rc = run(["curve", "--features", str(feature_csv),
                  "--learner", "tree", "--fractions", "0.5,1.0",
                  "--seed", "2", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "fraction,train_mean,train_std,val_mean,val_std"
        assert len(lines) == 3

    def test_features_reports_parser_warnings(self, tmp_path, capsys):
        trace = " 0)   0.300 us    |  vfs_read();\n"
        (tmp_path / "a.trace").write_text(trace)
        (tmp_path / "b.trace").write_text(
            trace + "this is not function_graph output\n")
        rc = run(["features", "--corpus", str(tmp_path),
                  "--out", str(tmp_path / "f.csv")])
        assert rc == 0
        assert "warning: parser warnings: 1" in capsys.readouterr().err

    def test_exp1_searches_the_library_grid(self, small_corpus, tmp_path):
        out = tmp_path / "exp1"
        assert run(["exp1", "--corpus", str(small_corpus), "--seed", "5",
                    "--learner", "forest", "--k", "10",
                    "--out", str(out)]) == 0
        searched = json.loads((out / "report.json").read_text())["payload"][
            "search"]["evaluations"]
        lib = experiments.run_experiment_1(
            small_corpus, {"learner": "forest", "k": 10}, seed=5)
        assert [e["params"] for e in searched] == \
            [e["params"] for e in lib.payload["search"]["evaluations"]] == \
            experiments._grid_points(experiments.EXPERIMENT_1_GRIDS["forest"])

    def test_ablate(self, feature_csv, tmp_path):
        out = tmp_path / "ablation.csv"
        rc = run(["ablate", "--features", str(feature_csv),
                  "--learner", "tree", "--seed", "1", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 8  # header + 7 configurations

    def test_experiments_leave_numpy_ma_unimported(self, tmp_path):
        # np.unique and np.setdiff1d import numpy.ma, about 1.2 MB that
        # then stays for the life of the process; some numpy versions
        # import it with numpy itself
        code = ("import sys\n"
                "import numpy\n"
                "before = 'numpy.ma' in sys.modules\n"
                "from ftracekit import cli\n"
                "for argv in sys.argv[1:]:\n"
                "    assert cli.main(argv.split()) == 0, argv\n"
                "print(before, 'numpy.ma' in sys.modules)\n")
        c2, c6, out = tmp_path / "c2", tmp_path / "c6", tmp_path / "out"
        runs = [f"gen --profiles default2 --count 10 --roots 6 --seed 3 --out {c2}",
                f"gen --profiles tasks6 --count 6 --roots 6 --seed 3 --out {c6}"
                " --multi-cpu --abstime",
                f"exp1 --corpus {c2} --seed 7 --k 10 --out {out}/boost",
                f"exp1 --corpus {c2} --seed 7 --k 10 --learner forest"
                f" --out {out}/forest",
                f"exp2 --corpus {c6} --seed 7 --k 10 --out {out}/exp2"]
        src = str(Path(cli.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", code, *runs], check=True,
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        before, after = done.stdout.splitlines()[-1].split()
        assert after == before

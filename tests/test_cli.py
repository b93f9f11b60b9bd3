import dataclasses
import inspect
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ftracekit import (cli, experiments, features, learners, trace_parser,
                       workloadgen)


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

    def test_function_name_that_is_not_utf8_is_refused(self, tmp_path,
                                                       capsys):
        # before, `features` exited 2 with the codec's message, naming
        # neither column nor trace, and left an empty CSV behind
        (tmp_path / "x.trace").write_bytes(b" 0)   1.000 us    |  f\xffoo();\n")
        (tmp_path / "x.io.json").write_text(json.dumps({"label": 1}))
        out = tmp_path / "f.csv"
        rc = run(["features", "--corpus", str(tmp_path), "--out", str(out)])
        assert rc == 2
        assert repr("count_f\udcffoo") in capsys.readouterr().err
        assert not out.exists()

    def test_exp1_table_it_cannot_write_leaves_no_file(self, tmp_path,
                                                       capsys):
        # before, exp1 wrote report.json and curve.csv, then failed on the
        # perturbation table, whose rows name the selected columns
        corpus, out = tmp_path / "corpus", tmp_path / "out"
        assert run(["gen", "--count", "20", "--seed", "7", "--roots", "8",
                    "--out", str(corpus)]) == 0
        for trace in corpus.rglob("*.trace"):
            trace.write_text(trace.read_text().replace(
                "aes_encrypt_block", "aes,encrypt_block"))
        rc = run(["exp1", "--corpus", str(corpus), "--seed", "7",
                  "--learner", "tree", "--out", str(out)])
        assert rc == 2
        assert "aes,encrypt_block' to a CSV table" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cmd", ["exp1", "exp2"])
    def test_experiment_that_fails_makes_no_out_directory(self, cmd,
                                                          tmp_path, capsys):
        out = tmp_path / "out"
        assert run([cmd, "--corpus", str(tmp_path / "none"), "--seed", "7",
                    "--out", str(out)]) == 2
        assert "no *.trace files found" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["select", "--features", "f.csv", "--out", "s.csv", "--k", "-3"],
        ["select", "--features", "f.csv", "--out", "s.csv", "--k", "0"],
        ["exp1", "--corpus", "c", "--seed", "1", "--out", "o", "--k", "-3"],
        ["exp2", "--corpus", "c", "--seed", "1", "--out", "o", "--k", "0"],
        ["gen", "--seed", "1", "--out", "g", "--roots", "0"],
        ["gen", "--seed", "1", "--out", "g", "--roots", "-1"],
        ["gen", "--seed", "1", "--out", "g", "--count", "0"],
        ["gen", "--seed", "1", "--out", "g", "--count", "2.5"],
    ], ids=lambda argv: f"{argv[0]}{argv[-2]}={argv[-1]}")
    def test_count_flag_below_one_is_validation_error(self, argv, tmp_path,
                                                      monkeypatch, capsys):
        # before, a negative --k kept all but |k| features with exit 0,
        # --roots 0 wrote empty traces and --count 0 exited 2
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as e:
            run(argv)
        assert e.value.code == 1
        assert f"argument {argv[-2]}: {argv[-1]!r} is not a positive integer" \
            in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_gen_into_a_corpus_is_runtime_error(self, tmp_path, capsys):
        # before, the second run wrote its traces beside the first's
        out = tmp_path / "c"
        argv = ["gen", "--count", "1", "--out", str(out), "--roots", "4"]
        assert run([*argv, "--seed", "7"]) == 0
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert run([*argv, "--seed", "8"]) == 2
        assert f"{out} already holds traces" in capsys.readouterr().err
        assert {p: p.read_bytes() for p in out.rglob("*")
                if p.is_file()} == before

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

    @pytest.mark.parametrize("cmd", ["train", "eval"])
    def test_csv_label_other_than_0_or_1_is_refused(self, cmd, feature_csv,
                                                    tmp_path, capsys):
        # before, a label of 2 trained and evaluated with exit 0: eval
        # reported an AUC above 1 and a confusion matrix short of a row
        model = tmp_path / "m.json"
        assert run(["train", "--features", str(feature_csv), "--learner",
                    "tree", "--seed", "0", "--out", str(model)]) == 0
        header, *rows = feature_csv.read_text().splitlines()[:7]
        cells = rows[3].split(",")
        cells[-2] = "2"
        rows[3] = ",".join(cells)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join([header] + rows) + "\n")
        argv = (["train", "--features", str(bad), "--learner", "tree",
                 "--seed", "0", "--out", str(tmp_path / "m2.json")]
                if cmd == "train" else
                ["eval", "--model", str(model), "--features", str(bad)])
        capsys.readouterr()
        assert run(argv) == 2
        assert f"{bad}, line 5: label must be 0, 1 or empty, not '2'" \
            in capsys.readouterr().err
        assert not (tmp_path / "m2.json").exists()

    @pytest.mark.parametrize("cmd", ["select", "train"])
    @pytest.mark.parametrize("damage, where", [
        (lambda header, rows: [], ""),
        (lambda header, rows: [header, rows[0], "0.5"], ", line 3"),
        (lambda header, rows: [header, "", rows[0]], ", line 2"),
        (lambda header, rows: [header, rows[0] + ",0", rows[1]], ", line 2"),
        (lambda header, rows: [header, rows[0], "x" + rows[1]], ", line 3"),
        (lambda header, rows: [header], ""),
    ], ids=["empty", "short_row", "blank_row", "long_row", "bad_number",
            "header_only"])
    def test_malformed_csv_row_is_named(self, cmd, damage, where,
                                        feature_csv, tmp_path, capsys):
        # before, an empty file or a row of fewer than 2 cells raised an
        # uncaught IndexError (exit 1), and a row with an extra cell
        # exited 2 with numpy's message, which named no line
        header, *rows = feature_csv.read_text().splitlines()
        bad = tmp_path / "bad.csv"
        bad.write_text("".join(line + "\n" for line in damage(header, rows)))
        out = tmp_path / "out"
        argv = {"select": ["select", "--features", str(bad), "--out",
                           str(out)],
                "train": ["train", "--features", str(bad), "--seed", "0",
                          "--out", str(out)]}[cmd]
        assert run(argv) == 2
        assert f"error: {bad}{where}: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_csv_cell_is_refused(self, cell, tmp_path, capsys):
        # before, nan and inf cells trained a tree with exit 0
        bad = tmp_path / "bad.csv"
        bad.write_text(f"count_a,total_dur_a,label,task\n0,1,0,\n"
                       f"1,{cell},1,\n")
        model = tmp_path / "m.json"
        assert run(["train", "--features", str(bad), "--learner", "tree",
                    "--seed", "0", "--out", str(model)]) == 2
        assert (f"error: {bad}, line 3: column total_dur_a holds "
                f"{cell!r}, not a finite number") in capsys.readouterr().err
        assert not model.exists()

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

    @pytest.mark.parametrize("cmd, value, named", [
        pytest.param(cmd, value, named, id=f"{cmd}={value}")
        for cmd, value, named in [
            ("curve", "inf", "fraction inf "),
            ("curve", "1e400", "fraction inf "),
            ("curve", "nan", "fraction nan "),
            ("curve", "0", "fraction 0.0 "),
            ("curve", "0.5,-1", "fraction -1.0 "),
            ("perturb", "nan", "sigma nan "),
            ("perturb", "0.1,inf", "sigma inf "),
            ("perturb", "-0.5", "sigma -0.5 ")]])
    def test_study_value_it_cannot_use_is_refused(self, cmd, value, named,
                                                  feature_csv, tmp_path,
                                                  monkeypatch, capsys):
        # before, inf and 1e400 raised an uncaught OverflowError, and 0, -1
        # and every bad sigma exited 0 with a meaningless table
        def no_fit(*args):
            raise AssertionError("fit before the study values were checked")
        monkeypatch.setattr(experiments.Pipeline, "fit", no_fit)
        out = tmp_path / "out.csv"
        flag = "--fractions" if cmd == "curve" else "--sigmas"
        rc = run([cmd, flag, value, "--features", str(feature_csv),
                  "--seed", "1", "--out", str(out)])
        assert rc == 2
        assert named in capsys.readouterr().err
        assert not out.exists()


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
            feature_names=m.vocab.columns), model)
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

    def test_flag_defaults_are_the_library_defaults(self):
        parse = cli._build_parser().parse_args
        e1 = parse(["exp1", "--corpus", "c", "--seed", "1", "--out", "o"])
        assert (e1.k, e1.learner) == (
            experiments.EXPERIMENT_1_DEFAULTS["k"],
            experiments.EXPERIMENT_1_DEFAULTS["learner"])
        e2 = parse(["exp2", "--corpus", "c", "--seed", "1", "--out", "o"])
        assert e2.k == experiments.EXPERIMENT_2_DEFAULTS["k"]
        study = ["--features", "f", "--seed", "1", "--out", "o"]
        fractions = parse(["curve", *study]).fractions
        assert [float(f) for f in fractions.split(",")] == \
            experiments.DEFAULT_FRACTIONS
        sigmas = parse(["perturb", *study]).sigmas
        assert [float(s) for s in sigmas.split(",")] == \
            experiments.DEFAULT_SIGMAS
        gen = parse(["gen", "--seed", "1", "--out", "o"])
        assert gen.roots == inspect.signature(
            workloadgen.generate_corpus).parameters["n_root_calls"].default
        for learner in cli._LEARNERS:
            learners.train(learner, [[0.0], [1.0]], [0, 1])
        with pytest.raises(SystemExit):
            parse(["train", *study, "--learner", "one_vs_rest"])

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


# names with the characters JSON escapes or that are not ASCII, lone
# surrogates among them (the parser keeps bytes that are not UTF-8 as those)
_names = st.text(st.characters() | st.sampled_from('"\\\n\té\udcff\ud800'),
                 max_size=6)
_scalars = st.none() | st.integers() | st.floats()
_records = st.builds(trace_parser.CallRecord, name=_names, cpu=st.integers(),
                     depth=st.integers(), duration_us=_scalars,
                     start_time=_scalars, end_time=_scalars,
                     parent_name=st.none() | _names)


@st.composite
def _forests(draw, max_depth=30):
    """A list of root records, built in pre-order: each record's level is
    a draw from [0, max_depth) capped at one below the record before it."""
    roots, path = [], []
    for level in draw(st.lists(st.integers(0, max_depth - 1), max_size=40)):
        level = min(level, len(path))
        rec = draw(_records)
        del path[level:]
        (path[-1].children if path else roots).append(rec)
        path.append(rec)
    return roots


def _chain(depth: int) -> trace_parser.CallRecord:
    """A root with one descendant at each level below it, `depth` in all."""
    root = rec = trace_parser.CallRecord("f0", 0, 0)
    for i in range(1, depth):
        rec.children.append(trace_parser.CallRecord(f"f{i}", 0, i, 1.5))
        rec = rec.children[0]
    return root


def _as_dict(rec: trace_parser.CallRecord) -> dict:
    return {**{f.name: getattr(rec, f.name)
               for f in dataclasses.fields(rec) if f.name != "children"},
            "children": [_as_dict(c) for c in rec.children]}


class TestParseJson:
    """`ftracekit parse`'s writer against stdlib json of the dict form."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(source=st.none() | _names, has_abstime=st.booleans(),
           warnings=st.lists(_names, max_size=3),
           records=st.dictionaries(st.integers(0, 300), _forests(),
                                   max_size=3))
    @example(source="t.trace", has_abstime=False, warnings=["w"],
             records={1: [_chain(30)], 10: [], 2: [_chain(2), _chain(1)]})
    def test_matches_stdlib(self, source, has_abstime, warnings, records):
        sample = trace_parser.TraceSample(
            records=records, warnings=warnings, has_abstime=has_abstime,
            source=source)
        want = json.dumps({
            "source": source, "has_abstime": has_abstime,
            "warnings": warnings,
            "records": {str(cpu): [_as_dict(r) for r in roots]
                        for cpu, roots in sorted(records.items())}},
            indent=2)
        out = io.StringIO()
        cli._write_parse_json(sample, out)
        assert out.getvalue() == want

    def test_memory_stays_near_the_parsed_records(self, tmp_path):
        # the parse command once copied every record into a dict and the
        # whole JSON into one string, peaking at 8x the parsed sample
        text, _, _ = workloadgen.generate_trace(
            workloadgen.task_profiles()[0], 7, n_root_calls=300,
            multi_cpu=True, abstime=True)
        trace = tmp_path / "t.trace"
        trace.write_text(text)

        def peak(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        alone = peak(lambda: trace_parser.load_sample(trace))
        parse = peak(lambda: run(["parse", "--input", str(trace),
                                  "--out", str(tmp_path / "o.json")]))
        assert parse <= 2 * alone

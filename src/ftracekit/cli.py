"""Command-line entry point for the full pipeline.

Exit codes: 0 success, 1 validation error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import experiments, features, learners, selection, trace_parser, workloadgen
from .errors import FtraceKitError


# the learners fit on a binary label; one-vs-rest needs task targets
_LEARNERS = [k for k in learners._IMPL_CLASSES if k != "one_vs_rest"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(1)


def _positive_int(text: str) -> int:
    """argparse type for a count: a whole number of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


def _build_parser() -> _Parser:
    p = _Parser(prog="ftracekit",
                description="function_graph traces -> features -> experiments")
    sub = p.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gen", help="generate a synthetic labeled corpus")
    g.add_argument("--profiles", default="default2",
                   choices=sorted(workloadgen.PROFILE_SETS))
    g.add_argument("--count", type=_positive_int, default=50,
                   help="traces per profile")
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--out", required=True)
    g.add_argument("--roots", type=_positive_int,
                   default=workloadgen.DEFAULT_ROOT_CALLS,
                   help="root calls per trace")
    g.add_argument("--multi-cpu", action="store_true")
    g.add_argument("--abstime", action="store_true")

    pa = sub.add_parser("parse", help="parse one trace file to records JSON")
    pa.add_argument("--input", required=True)
    pa.add_argument("--out", required=True)
    pa.add_argument("--strict", action="store_true")

    fe = sub.add_parser("features", help="extract a feature CSV from a corpus")
    fe.add_argument("--corpus", required=True)
    fe.add_argument("--out", required=True)
    fe.add_argument("--vocab", help="also write the vocabulary JSON here")
    fe.add_argument("--strict", action="store_true")

    se = sub.add_parser("select", help="chi-squared feature ranking")
    se.add_argument("--features", required=True, help="feature CSV")
    se.add_argument("--k", type=_positive_int, default=60)
    se.add_argument("--out", required=True, help="scores CSV")

    tr = sub.add_parser("train", help="fit a model on a feature CSV")
    tr.add_argument("--features", required=True)
    tr.add_argument("--learner", default="forest", choices=_LEARNERS)
    tr.add_argument("--params", default="{}", help="JSON hyperparameters")
    tr.add_argument("--seed", type=int, required=True)
    tr.add_argument("--out", required=True, help="model JSON")

    ev = sub.add_parser("eval", help="evaluate a saved model")
    ev.add_argument("--model", required=True)
    ev.add_argument("--features", required=True)
    ev.add_argument("--out", help="metrics JSON (default: stdout only)")

    cu = sub.add_parser("curve", help="learning-curve analysis")
    _common_study_flags(cu)
    cu.add_argument("--fractions", default=",".join(
        map(str, experiments.DEFAULT_FRACTIONS)))

    pe = sub.add_parser("perturb", help="per-feature noise robustness")
    _common_study_flags(pe)
    pe.add_argument("--sigmas", default=",".join(
        map(str, experiments.DEFAULT_SIGMAS)))

    ab = sub.add_parser("ablate", help="feature-group ablation study")
    _common_study_flags(ab)

    e1 = sub.add_parser("exp1", help="binary encryption-detection experiment")
    e1.add_argument("--corpus", required=True)
    e1.add_argument("--seed", type=int, required=True)
    e1.add_argument("--k", type=_positive_int,
                    default=experiments.EXPERIMENT_1_DEFAULTS["k"])
    e1.add_argument("--learner", choices=_LEARNERS,
                    default=experiments.EXPERIMENT_1_DEFAULTS["learner"])
    e1.add_argument("--out", required=True, help="output directory")

    e2 = sub.add_parser("exp2", help="multi-label task-identification experiment")
    e2.add_argument("--corpus", required=True)
    e2.add_argument("--seed", type=int, required=True)
    e2.add_argument("--k", type=_positive_int,
                    default=experiments.EXPERIMENT_2_DEFAULTS["k"])
    e2.add_argument("--out", required=True, help="output directory")
    return p


def _common_study_flags(sp):
    sp.add_argument("--features", required=True, help="feature CSV")
    sp.add_argument("--learner", default="forest", choices=_LEARNERS)
    sp.add_argument("--params", default="{}", help="JSON hyperparameters")
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--out", required=True, help="output CSV")


_FIELDS = [f.name for f in dataclasses.fields(trace_parser.CallRecord)
           if f.name != "children"]


def _list_todo(recs: list, pad: str) -> list:
    """`_write_parse_json`'s work for a JSON list of records whose opening
    line is indented by `pad`: text to write and (record, indent) pairs."""
    if not recs:
        return ["[]"]
    inner = pad + "  "
    sep = ",\n" + inner
    todo = ["[\n" + inner]
    for rec in recs:
        todo += [(rec, inner), sep]
    todo[-1] = "\n" + pad + "]"
    return todo


def _write_parse_json(sample: trace_parser.TraceSample, out) -> None:
    """Write to `out` the text `json.dumps(d, indent=2)` gives for `d`, the
    sample's header and record forests as nested dicts, one record at a time
    and without building `d`.  The stdlib encoder recurses once per nesting
    level, and a parsed trace can be thousands of levels deep."""
    head = json.dumps({"source": sample.source,
                       "has_abstime": sample.has_abstime,
                       "warnings": sample.warnings}, indent=2)
    todo = [head[:-2] + ',\n  "records": {']
    for i, cpu in enumerate(sorted(sample.records)):
        todo += [f'{"," if i else ""}\n    "{cpu}": ',
                 *_list_todo(sample.records[cpu], "    ")]
    todo.append("\n  }\n}" if sample.records else "}\n}")
    todo.reverse()
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.write(item)
            continue
        rec, pad = item
        out.write("{" + "".join(
            f'\n{pad}  "{k}": {json.dumps(getattr(rec, k))},'
            for k in _FIELDS) + f'\n{pad}  "children": ')
        todo.append("\n" + pad + "}")
        todo += reversed(_list_todo(rec.children, pad + "  "))


def _read_labeled_csv(path, column="label") -> features.FeatureMatrix:
    """A feature CSV whose `column`, "label" or "task", is set on every row."""
    m = features.read_csv(path)
    if (m.tasks if column == "task" else m.labels) is None:
        raise ValueError(f"feature CSV {path} has rows without a {column}")
    return m


def _curve_table(rows: list[dict]):
    return (["fraction", "train_mean", "train_std", "val_mean", "val_std"],
            [[r["fraction"], r["train_mean"], r["train_std"],
              r["val_mean"], r["val_std"]] for r in rows])


def _perturbation_table(table: dict):
    return (["feature"] + [f"sigma_{s:g}" for s in table["sigmas"]],
            [[n] + row for n, row in zip(table["features"], table["accuracy"])])


def _ablation_table(rows: list[dict]):
    return (["config", "n_features", "accuracy", "f1", "roc_auc"],
            [[r["config"], r["n_features"], r["means"]["accuracy"],
              r["means"]["f1"], r["means"]["roc_auc"]] for r in rows])


def cmd_gen(args) -> int:
    profiles = workloadgen.profiles_by_name(args.profiles)
    manifest = workloadgen.generate_corpus(
        profiles, args.count, args.seed, args.out, n_root_calls=args.roots,
        multi_cpu=args.multi_cpu, abstime=args.abstime)
    print(f"gen: wrote {len(manifest['entries'])} traces to {args.out}")
    return 0


def cmd_parse(args) -> int:
    sample = trace_parser.load_sample(args.input, args.strict)
    with open(args.out, "w") as out:
        _write_parse_json(sample, out)
    print(f"parse: {sample.record_count()} records, "
          f"{len(sample.warnings)} warnings -> {args.out}")
    return 0


def cmd_features(args) -> int:
    matrix = features.load_matrix(args.corpus, args.strict)
    features.write_csv(matrix, args.out)
    if args.vocab:
        Path(args.vocab).write_text(matrix.vocab.to_json())
    for warning in matrix.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print(f"features: {matrix.n_rows} rows x {len(matrix.vocab.columns)} "
          f"columns -> {args.out}")
    return 0


def cmd_select(args) -> int:
    m = _read_labeled_csv(args.features)
    scaled = features.ScalingState.fit("minmax", m).apply(m)
    scores = selection.chi2_scores(scaled, m.labels)
    top = set(selection.select_top_k(scores, min(args.k, len(scores))))
    keep = [s for s in scores if s.name in top]
    selection.write_scores_csv(keep, args.out)
    print(f"select: top {len(top)} of {len(scores)} features -> {args.out}")
    return 0


def cmd_train(args) -> int:
    m = _read_labeled_csv(args.features)
    params = json.loads(args.params)
    model = learners.train(args.learner, m.X, m.labels, params, args.seed,
                           m.vocab.columns)
    learners.save_model(model, args.out)
    acc = learners.evaluate(model, m.X, m.labels).accuracy
    print(f"train: {args.learner} fit on {m.n_rows} rows, "
          f"train accuracy {acc:.4f} -> {args.out}")
    return 0


def cmd_eval(args) -> int:
    model = learners.load_model(args.model)
    multilabel = isinstance(model.impl, learners.OneVsRest)
    m = _read_labeled_csv(args.features, "task" if multilabel else "label")
    kept = m.subset_columns(model.feature_names)
    metrics = learners.evaluate(model, kept.X,
                                m.tasks if multilabel else m.labels)
    text = json.dumps(metrics.as_dict(), indent=2)
    if args.out:
        Path(args.out).write_text(text)
    print(f"eval: accuracy {metrics.accuracy:.4f} f1 {metrics.f1:.4f} "
          f"auc {metrics.roc_auc:.4f}")
    return 0


def cmd_curve(args) -> int:
    m = _read_labeled_csv(args.features)
    fractions = [float(f) for f in args.fractions.split(",")]
    pipe = experiments.Pipeline(args.learner, json.loads(args.params))
    rows = experiments.learning_curve(m, m.labels, pipe,
                                      fractions=fractions, seed=args.seed)
    features._write_table_csv(args.out, *_curve_table(rows))
    print(f"curve: {len(rows)} fractions -> {args.out}")
    return 0


def cmd_perturb(args) -> int:
    m = _read_labeled_csv(args.features)
    sigmas = [float(s) for s in args.sigmas.split(",")]
    _, pool, test = experiments.holdout_split(m, m.labels, args.seed)
    pipe = experiments.Pipeline(args.learner, json.loads(args.params),
                                scaling="zscore")
    table = experiments.perturbation_study(pool, test, pipe, sigmas=sigmas,
                                           seed=args.seed)
    features._write_table_csv(args.out, *_perturbation_table(table))
    print(f"perturb: {len(table['features'])} features x "
          f"{len(table['sigmas'])} sigmas -> {args.out}")
    return 0


def cmd_ablate(args) -> int:
    m = _read_labeled_csv(args.features)
    pipe = experiments.Pipeline(args.learner, json.loads(args.params),
                                scaling="minmax")
    rows = experiments.ablation_study(m, m.labels, pipe, seed=args.seed)
    features._write_table_csv(args.out, *_ablation_table(rows))
    print(f"ablate: {len(rows)} configurations -> {args.out}")
    return 0


def _write_texts(out_dir: Path, texts: dict) -> None:
    """Each {file name: text} written into `out_dir`, made only now, so a
    run or a table that fails leaves no directory and no file behind."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        (out_dir / name).write_text(text)


def cmd_exp1(args) -> int:
    out_dir = Path(args.out)
    report = experiments.run_experiment_1(
        args.corpus, {"k": args.k, "learner": args.learner}, seed=args.seed)
    payload = report.payload
    _write_texts(out_dir, {
        "report.json": report.to_json(),
        "curve.csv": features._table_text(
            *_curve_table(payload["learning_curve"])),
        "perturbation.csv": features._table_text(
            *_perturbation_table(payload["perturbation"])),
        "ablation.csv": features._table_text(
            *_ablation_table(payload["ablation"]))})
    tm = payload["test_metrics"]
    print(f"exp1: test accuracy {tm['accuracy']:.4f} f1 {tm['f1']:.4f} "
          f"auc {tm['roc_auc']:.4f} -> {out_dir}")
    return 0


def cmd_exp2(args) -> int:
    out_dir = Path(args.out)
    report = experiments.run_experiment_2(args.corpus, {"k": args.k},
                                          seed=args.seed)
    _write_texts(out_dir, {"report.json": report.to_json()})
    tm = report.payload["test_metrics"]
    print(f"exp2: F1-macro {tm['f1_macro']:.4f} F1-micro {tm['f1_micro']:.4f} "
          f"-> {out_dir}")
    return 0


_COMMANDS = {
    "gen": cmd_gen, "parse": cmd_parse, "features": cmd_features,
    "select": cmd_select, "train": cmd_train, "eval": cmd_eval,
    "curve": cmd_curve, "perturb": cmd_perturb, "ablate": cmd_ablate,
    "exp1": cmd_exp1, "exp2": cmd_exp2,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.cmd](args)
    except (FtraceKitError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

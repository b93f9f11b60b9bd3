"""Fast checks of the benchmark itself, on tiny corpora.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "bench"))

import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
from ftracekit import cli  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
TINY_EXP2 = dataclasses.replace(run.WORKLOADS["exp2_tasks6"], per_profile=8)
TINY_EXP1 = dataclasses.replace(run.WORKLOADS["exp1_forest"], per_profile=12,
                                gate=0.0)


@pytest.fixture
def checkout(tmp_path, monkeypatch):
    """A scratch checkout whose src is the repository's."""
    (tmp_path / "src").symlink_to(REPO / "src")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def last_json(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_its_unit(checkout, monkeypatch, capsys,
                                            trace, section):
    monkeypatch.setitem(run.WORKLOADS, "exp2_tasks6", TINY_EXP2)
    assert run.main(["--workload", "exp2_tasks6", "--seed", "3",
                     "--seconds", "0", "--trace", str(trace)]) == 0
    result = last_json(capsys.readouterr().out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == expected


def test_exp1_tables_are_checked(checkout, capsys):
    result = run.measure(TINY_EXP1, 3, 0.0, checkout)
    assert result["failed"] == 0 and result["correct"]
    out = checkout / "out"
    out.mkdir()
    (out / "report.json").write_text(json.dumps({
        "kind": "exp1", "config": {}, "seed": 3, "data_digest": "",
        "payload": {"test_metrics": {"accuracy": 1.0}}}))
    res = run.check_output(TINY_EXP1, out, "")
    assert not res.ok and "missing tables" in res.reason


def test_corrupted_trace_raises_fail_ratio(checkout, monkeypatch, capsys):
    def corrupting(w, seed, out):
        manifest = real(w, seed, out)
        with open(Path(out) / manifest["entries"][0]["file"], "a") as fh:
            fh.write("this is not function_graph output\n")
        return manifest

    real = run.generate
    monkeypatch.setattr(run, "generate", corrupting)
    result = run.measure(TINY_EXP2, 3, 0.0, checkout)
    m = result["metrics"]
    assert result["failed"] == result["attempted"] >= 2
    assert m["ok_ratio"][0] == 0.0 and not result["correct"]
    assert "exit code 2" in capsys.readouterr().out


def test_tampered_report_raises_fail_ratio(checkout, monkeypatch, capsys):
    calls = []

    def tampering(argv):
        rc = real(argv)
        calls.append(rc)
        if len(calls) == 2:
            path = Path(argv[argv.index("--out") + 1]) / "report.json"
            report = json.loads(path.read_text())
            report["payload"]["n_samples"] += 1
            path.write_text(json.dumps(report))
        return rc

    real = cli.main
    monkeypatch.setattr(cli, "main", tampering)
    result = run.measure(TINY_EXP2, 3, 0.0, checkout)
    assert result["attempted"] == 2 and result["failed"] == 1
    assert result["metrics"]["ok_ratio"][0] == 0.5
    assert "differs from the first call's" in capsys.readouterr().out


def test_score_below_gate_fails(checkout, capsys):
    strict = dataclasses.replace(TINY_EXP2, gate=1.01)
    result = run.measure(strict, 3, 0.0, checkout)
    assert result["failed"] == result["attempted"]


def test_self_times_add_up_to_traced_wall(checkout, capsys):
    result = run.measure_traced(TINY_EXP2, 3, 0.0, checkout, checkout,
                                {"src_sha256": "test", "bench_sha256": "test"})
    m = {k: v for k, (v, _) in result["metrics"].items()}
    # generation is traced during set-up, outside the experiment call, and
    # the speed probe's own time is left out of wall_s
    total_self = sum(m[k] for k in tracer.TIME_METRICS
                     if k not in ("workloadgen.generate_s", "trace.probe_s"))
    gap = m["trace.wall_s"] - total_self
    assert 0.0 <= gap <= max(m["trace.overhead_s"], 0.0) + 1e-3
    assert m["trace.other_s"] == 0.0
    assert m["trace_parser.parse_s"] > 0 and m["call_graph.betweenness_s"] > 0
    assert m["trace_parser.lines"] > 0 and m["learners.tree_nodes"] > 0


def test_self_time_is_charged_to_nearest_named_span():
    t = tracer.Tracer()
    # cli.main [0,10] > run_experiment_2 [1,9] > helper [2,5] > parse [3,4]
    t.names = ["cli.main", "experiments.run_experiment_2",
               "experiments.stratified_split_indices",
               "trace_parser.parse_trace", tracer.COUNT_SPAN]
    t.parents = [-1, 0, 1, 2, 1]
    t.starts = [0.0, 1.0, 2.0, 3.0, 6.0]
    t.ends = [10.0, 9.0, 5.0, 4.0, 6.5]
    times = t.layer_times(pauses=[(3.25, 3.5), (7.0, 7.5)])
    assert times["cli.self_s"] == 2.0
    assert times["experiments.self_s"] == 4.5 + 2.0 - 0.5
    assert times["trace_parser.parse_s"] == 0.75
    assert times["trace.count_s"] == 0.5
    assert times["trace.probe_s"] == 0.75
    assert sum(times.values()) == t.root_time() == 10.0


def test_tracer_restores_the_program():
    from ftracekit import call_graph, features, learners, trace_parser, workloadgen
    before = (trace_parser.parse_trace, workloadgen.format_forest,
              learners.RegressionTree.fit, features.call_graph.betweenness)
    with tracer.Tracer().installed():
        assert workloadgen.format_forest is trace_parser.format_forest
        assert learners.RegressionTree.fit.__wrapped__ is before[2]
    assert (trace_parser.parse_trace, workloadgen.format_forest,
            learners.RegressionTree.fit, call_graph.betweenness) == before


def test_speed_probe_leaves_its_samples_out():
    import signal
    import time
    before = signal.getsignal(signal.SIGALRM)
    t0 = time.perf_counter()
    with speed.SpeedProbe() as probe:
        while time.perf_counter() - t0 < 3 * speed.PERIOD_S:
            pass
    elapsed = time.perf_counter() - t0
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(probe.samples) >= speed.LEAST_SAMPLES and probe.spent > 0
    assert probe.seconds + probe.spent <= elapsed
    assert probe.reference_s == probe.seconds * probe.factor > 0


def test_counts_must_repeat(tmp_path, capsys):
    path = tmp_path / "counts.json"
    assert run.counts_repeat(path, {"call_graph.nodes": 5})
    assert run.counts_repeat(path, {"call_graph.nodes": 5})
    assert not run.counts_repeat(path, {"call_graph.nodes": 6})
    assert "call_graph.nodes differs" in capsys.readouterr().out


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero and
    prints no result."""
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(REPO / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exp2_tasks6",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line so the whole gate can be read off the
pytest output directly:

    pytest tests/test_acceptance.py -v -s
"""

import itertools
import math
import time

import numpy as np
import pytest

from ftracekit import call_graph as cg
from ftracekit import experiments as ex
from ftracekit import learners as ln
from ftracekit import selection as sel
from ftracekit import trace_parser as tp
from ftracekit import workloadgen as wg

from conftest import by_name
from test_callgraph import (adjacency_sets, oracle_betweenness,
                            oracle_clustering, oracle_avg_nbr_deg,
                            oracle_eigenvector, random_connected_graph)
from test_learners import oracle_auc, xor_data
from test_workloadgen import bookkeeping_matches



def report(name, ok, detail=""):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def corpus_2x200(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus_default")
    wg.generate_corpus(wg.default_pair(), 200, seed=7, out_dir=out,
                       n_root_calls=30)
    return out


@pytest.fixture(scope="module")
def corpus_graphonly(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus_graphonly")
    wg.generate_corpus(wg.graph_signal_pair(), 100, seed=7, out_dir=out,
                       n_root_calls=24)
    return out


@pytest.fixture(scope="module")
def corpus_tasks6(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus_tasks")
    wg.generate_corpus(wg.task_profiles(), 100, seed=7, out_dir=out,
                       n_root_calls=30)
    return out


def test_criterion_1_parser_round_trip():
    t0 = time.monotonic()
    profiles = wg.default_pair() + wg.graph_signal_pair() + wg.task_profiles()
    n = 0
    ok = True
    detail = ""
    while n < 500 and ok:
        for profile in profiles:
            text, _, book = wg.generate_trace(
                profile, seed=1000 + n, n_root_calls=20,
                multi_cpu=(n % 2 == 0))
            sample = tp.parse_trace(text, strict=True)
            if sample.warnings:
                ok, detail = False, f"warnings on trace {n}: {sample.warnings}"
                break
            if not bookkeeping_matches(book, sample):
                ok, detail = False, f"count mismatch on trace {n}"
                break
            n += 1
            if n >= 500:
                break
    elapsed = time.monotonic() - t0
    if ok and elapsed >= 30.0:
        ok, detail = False, f"too slow: {elapsed:.1f}s"
    report("criterion 1: 500-trace strict round trip",
           ok, detail or f"{n} traces, {elapsed:.1f}s")


def test_criterion_2_graph_metric_oracles():
    t0 = time.monotonic()
    rng = np.random.default_rng(20)
    ok = True
    detail = ""
    for i in range(100):
        n = int(rng.integers(2, 13))
        g = random_connected_graph(rng, n)
        adj = adjacency_sets(g)
        bc = by_name(cg.betweenness, g)
        for v, want in oracle_betweenness(adj, g.nodes).items():
            if abs(bc[v] - want) > 1e-9:
                ok, detail = False, f"betweenness graph {i} node {v}"
        ev = by_name(cg.eigenvector, g)
        for v, want in oracle_eigenvector(adj, g.nodes).items():
            if abs(ev[v] - want) > 1e-5:
                ok, detail = False, f"eigenvector graph {i} node {v}"
        cl = by_name(cg.clustering, g)
        for v, want in oracle_clustering(adj, g.nodes).items():
            if cl[v] != pytest.approx(want, abs=0):
                ok, detail = False, f"clustering graph {i} node {v}"
        nd = by_name(cg.avg_neighbor_degree, g)
        for v, want in oracle_avg_nbr_deg(adj, g.nodes).items():
            if nd[v] != pytest.approx(want, abs=0):
                ok, detail = False, f"avg_nbr_deg graph {i} node {v}"
        if not ok:
            break
    elapsed = time.monotonic() - t0
    if ok and elapsed >= 60.0:
        ok, detail = False, f"too slow: {elapsed:.1f}s"
    report("criterion 2: graph metrics vs oracles on 100 random graphs",
           ok, detail or f"{elapsed:.1f}s")


def test_criterion_3_chi_squared():
    from ftracekit import features as ft
    ok = True
    detail = ""

    vocab = ft.FeatureVocabulary(["f"])
    m = ft.FeatureMatrix(vocab=vocab,
                         X=np.array([[1.0], [1.0], [0.0], [0.0]]))
    (sf,) = sel.chi2_scores(m, np.array([1, 1, 0, 0]))
    if sf.score != 2.0:
        ok, detail = False, f"hand case chi2 {sf.score} != 2.0"

    m2 = ft.FeatureMatrix(vocab=vocab,
                          X=np.array([[1.0], [1.0], [1.0], [1.0]]))
    (sf2,) = sel.chi2_scores(m2, np.array([1, 1, 0, 0]))
    if ok and sf2.score != 0.0:
        ok, detail = False, f"constant feature chi2 {sf2.score} != 0"

    if ok:
        for i in range(1, 101):
            x = i / 10.0
            want = math.erfc(math.sqrt(x / 2.0))
            got = sel.chi2_survival(x, 1)
            if abs(got - want) > 1e-8:
                ok, detail = False, f"survival at x={x}: {got} vs {want}"
                break
    report("criterion 3: chi-squared hand cases and erfc identity",
           ok, detail)


def test_criterion_4_learner_sanity():
    ok = True
    detail = ""

    X, y = xor_data()
    tree = ln.DecisionTree(max_depth=2).fit(X, y)
    if (tree.predict(X) == y).mean() != 1.0:
        ok, detail = False, "XOR not solved at depth 2"

    if ok:
        rng = np.random.default_rng(0)
        Xb = rng.random((150, 4))
        yb = ((Xb[:, 0] + Xb[:, 2]) > 1.0).astype(int)
        booster = ln.GradientBoosting(n_rounds=100).fit(Xb, yb)
        losses = booster.train_losses
        if len(losses) != 101 or any(b > a + 1e-12
                                     for a, b in zip(losses, losses[1:])):
            ok, detail = False, "boosting loss increased"

    if ok:
        rng = np.random.default_rng(1)
        Xl = rng.standard_normal((30, 5))
        yl = (rng.random(30) > 0.5).astype(float)
        w = rng.standard_normal(5) * 0.4
        b, l2, eps = -0.2, 0.01, 1e-6
        _, gw, gb = ln.LogisticModel.loss_and_grad(w, b, Xl, yl, l2)
        for j in range(5):
            wp, wm = w.copy(), w.copy()
            wp[j] += eps
            wm[j] -= eps
            lp = ln.LogisticModel.loss_and_grad(wp, b, Xl, yl, l2)[0]
            lm = ln.LogisticModel.loss_and_grad(wm, b, Xl, yl, l2)[0]
            if abs(gw[j] - (lp - lm) / (2 * eps)) > 1e-5:
                ok, detail = False, f"gradient mismatch at weight {j}"
                break
        lp = ln.LogisticModel.loss_and_grad(w, b + eps, Xl, yl, l2)[0]
        lm = ln.LogisticModel.loss_and_grad(w, b - eps, Xl, yl, l2)[0]
        if ok and abs(gb - (lp - lm) / (2 * eps)) > 1e-5:
            ok, detail = False, "gradient mismatch at bias"

    if ok:
        rng = np.random.default_rng(2)
        for i in range(50):
            n = int(rng.integers(4, 40))
            yv = rng.integers(0, 2, size=n)
            sv = np.round(rng.random(n), 1)
            if abs(ln.roc_auc_score(yv, sv) - oracle_auc(yv, sv)) > 1e-12:
                ok, detail = False, f"AUC mismatch on vector {i}"
                break

    report("criterion 4: learner sanity (XOR, boosting, gradient, AUC)",
           ok, detail)


@pytest.fixture(scope="module")
def exp1_report(corpus_2x200):
    t0 = time.monotonic()
    rep = ex.run_experiment_1(corpus_2x200, seed=7)
    rep.wall_clock_s = time.monotonic() - t0
    return rep


def test_criterion_5_experiment_1(exp1_report):
    rep = exp1_report
    ok = True
    detail = ""

    acc = rep.payload["test_metrics"]["accuracy"]
    if acc < 0.95:
        ok, detail = False, f"test accuracy {acc:.4f} < 0.95"

    if ok:
        curve = {r["fraction"]: r["val_mean"] for r in rep.payload["learning_curve"]}
        if curve[1.0] < curve[0.1] - 0.02:
            ok, detail = False, (f"curve val(1.0)={curve[1.0]:.4f} < "
                                 f"val(0.1)={curve[0.1]:.4f} - 0.02")

    if ok:
        pt = rep.payload["perturbation"]
        table = np.asarray(pt["accuracy"])
        if not np.all(table[:, 0] == pt["baseline"]):
            ok, detail = False, "baseline column differs from clean accuracy"
        else:
            s_idx = pt["sigmas"].index(1.0)
            drop = pt["baseline"] - table[:, s_idx].min()
            if drop < 0.01:
                ok, detail = False, f"max degradation {drop:.4f} < 0.01 at sigma=1.0"

    if ok and rep.wall_clock_s >= 300:
        ok, detail = False, f"too slow: {rep.wall_clock_s:.0f}s"

    report("criterion 5: end-to-end binary experiment thresholds",
           ok, detail or f"accuracy {acc:.4f}, {rep.wall_clock_s:.0f}s")


def test_criterion_6_ablation_ordering(corpus_graphonly):
    t0 = time.monotonic()
    rep = ex.run_experiment_1(corpus_graphonly, seed=7)
    elapsed = time.monotonic() - t0
    acc = {r["config"]: r["means"]["accuracy"] for r in rep.payload["ablation"]}
    ok = True
    detail = ""
    if not (acc["full"] >= acc["graph_only"] - 1e-9):
        ok, detail = False, f"full {acc['full']:.3f} < graph_only {acc['graph_only']:.3f}"
    for g in ("temporal_only", "system_only"):
        if ok and not (acc["graph_only"] >= acc[g] - 1e-9):
            ok, detail = False, f"graph_only {acc['graph_only']:.3f} < {g} {acc[g]:.3f}"
    if ok and acc["without_graph"] > 0.6:
        ok, detail = False, f"without_graph {acc['without_graph']:.3f} > 0.6"
    if ok and elapsed >= 180:
        ok, detail = False, f"too slow: {elapsed:.0f}s"
    summary = ", ".join(f"{k}={v:.3f}" for k, v in acc.items())
    report("criterion 6: ablation ordering on the graph-only corpus",
           ok, detail or summary)


@pytest.fixture(scope="module")
def exp2_report(corpus_tasks6):
    t0 = time.monotonic()
    rep = ex.run_experiment_2(corpus_tasks6, seed=7)
    rep.wall_clock_s = time.monotonic() - t0
    return rep


def test_criterion_7_experiment_2(exp2_report):
    rep = exp2_report
    ok = True
    detail = ""
    micro = rep.payload["test_metrics"]["f1_micro"]
    if micro < 0.85:
        ok, detail = False, f"F1-micro {micro:.4f} < 0.85"
    if ok:
        noise = {r["sigma"]: r["f1_micro"] for r in rep.payload["noise"]}
        if micro - noise[0.05] > 0.05:
            ok, detail = False, (f"sigma=0.05 drops F1-micro by "
                                 f"{micro - noise[0.05]:.4f} > 0.05")
    if ok and rep.wall_clock_s >= 300:
        ok, detail = False, f"too slow: {rep.wall_clock_s:.0f}s"
    report("criterion 7: multi-label task identification thresholds",
           ok, detail or f"F1-micro {micro:.4f}, {rep.wall_clock_s:.0f}s")


def test_criterion_8_determinism(corpus_2x200, corpus_graphonly,
                                 corpus_tasks6, exp1_report, exp2_report):
    ok = True
    detail = ""
    again1 = ex.run_experiment_1(corpus_2x200, seed=7)
    if again1.canonical_json() != exp1_report.canonical_json():
        ok, detail = False, "binary experiment report not byte-identical"
    if ok:
        a = ex.run_experiment_1(corpus_graphonly, seed=7)
        b = ex.run_experiment_1(corpus_graphonly, seed=7)
        if a.canonical_json() != b.canonical_json():
            ok, detail = False, "ablation experiment report not byte-identical"
    if ok:
        again2 = ex.run_experiment_2(corpus_tasks6, seed=7)
        if again2.canonical_json() != exp2_report.canonical_json():
            ok, detail = False, "multi-label experiment report not byte-identical"
    report("criterion 8: same-seed reruns are byte-identical", ok, detail)

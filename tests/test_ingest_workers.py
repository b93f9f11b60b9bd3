"""Ingest striped over worker processes (`workers.map_forked`).

`load_matrix` maps its traces over the usable CPUs: this process works
stripe 0 and forked children the rest.  One worker and two workers must
give the same matrix and the same files, raise the same first error, and
leave no child behind, whatever a worker does.  The CPU count is set by
patching `os.sched_getaffinity`; no test asks for more than 2 workers.
"""

import os
import signal
import threading
import time
import warnings

import numpy as np
import pytest

from ftracekit import cli
from ftracekit import experiments as ex
from ftracekit import features as ft
from ftracekit import trace_parser as tp
from ftracekit import workers
from ftracekit import workloadgen as wg
from ftracekit.errors import MalformedLine, NestingError, WorkerFailed

from conftest import ONE_CPU, TWO_CPUS, assert_no_child_left, use_cpus


def corpus(tmp_path, profiles, count, **flags):
    out = tmp_path / "corpus"
    wg.generate_corpus(wg.profiles_by_name(profiles), count, 7, out, **flags)
    return out


def break_traces(corpus_dir, indexes):
    """Put an unparseable line 5 into the traces at these sorted indexes
    and return their paths."""
    paths = tp.trace_paths(corpus_dir)
    for i in indexes:
        lines = paths[i].read_text().splitlines(keepends=True)
        lines[4] = "garbage line here\n"
        paths[i].write_text("".join(lines))
    return [paths[i] for i in indexes]


def outcome(monkeypatch, cpus, fn):
    use_cpus(monkeypatch, cpus)
    try:
        fn()
    except Exception as exc:
        return type(exc), str(exc)
    finally:
        assert_no_child_left()
    raise AssertionError("no error raised")


@pytest.mark.parametrize("profiles,count,flags", [
    ("default2", 5, {}),
    ("tasks6", 3, {"multi_cpu": True, "abstime": True}),
])
def test_one_and_two_workers_give_the_same_matrix_and_files(
        profiles, count, flags, tmp_path, monkeypatch):
    src = corpus(tmp_path, profiles, count, **flags)
    got = {}
    for name, cpus in (("one", ONE_CPU), ("two", TWO_CPUS)):
        use_cpus(monkeypatch, cpus)
        m = ft.load_matrix(src, strict=False)
        assert_no_child_left()
        ft.write_csv(m, tmp_path / f"{name}.csv")
        got[name] = m
    one, two = got["one"], got["two"]
    assert one.X.tobytes() == two.X.tobytes()
    assert one.vocab.columns == two.vocab.columns
    assert one.vocab.to_json() == two.vocab.to_json()
    assert (one.labels is None and two.labels is None
            or np.array_equal(one.labels, two.labels))
    assert one.tasks == two.tasks
    assert one.warnings == two.warnings
    assert one.data_digest == two.data_digest
    assert ((tmp_path / "one.csv").read_bytes()
            == (tmp_path / "two.csv").read_bytes())


def test_map_keeps_item_order(monkeypatch):
    use_cpus(monkeypatch, TWO_CPUS)
    tag = lambda x: (x, os.getpid())  # noqa: E731
    for n in (0, 1, 2, 7):
        assert [x for x, _ in workers.map_forked(tag, list(range(n)))] \
            == list(range(n))
    # odd items come from the forked worker, even ones from this process
    pids = dict(workers.map_forked(tag, list(range(4))))
    assert pids[0] == pids[2] == os.getpid() != pids[1] == pids[3]
    assert_no_child_left()


@pytest.mark.parametrize("bad,first", [((1, 4), 1), ((2, 3), 2), ((3,), 3)])
def test_lowest_bad_trace_is_raised_as_in_a_serial_run(
        bad, first, tmp_path, monkeypatch):
    # with two workers, odd indexes are the child's stripe and even ones
    # this process's own
    src = corpus(tmp_path, "default2", 4)
    paths = break_traces(src, bad)
    load = lambda: ft.load_matrix(src, strict=True)  # noqa: E731
    serial = outcome(monkeypatch, ONE_CPU, load)
    forked = outcome(monkeypatch, TWO_CPUS, load)
    assert serial == forked
    assert serial[0] is MalformedLine
    assert serial[1] == (f"{paths[bad.index(first)]}, line 5: no CPU column: "
                         "'garbage line here'")


def test_nesting_error_names_the_trace(tmp_path):
    path = tmp_path / "x.trace"
    path.write_text(" 0)   1.000 us    |  } /* f */\n")
    with pytest.raises(NestingError) as err:
        tp.load_sample(path, strict=True)
    assert (str(err.value)
            == f"{path}, line 1: unmatched exit on cpu 0, dropped")


@pytest.mark.parametrize("cpus", [ONE_CPU, TWO_CPUS])
def test_exp2_names_the_bad_trace_and_line(cpus, tmp_path, monkeypatch,
                                          capsys):
    # before, the message was only "error: no CPU column: 'garbage line
    # here'", naming neither the trace nor the line
    src = corpus(tmp_path, "tasks6", 4)
    (bad,) = break_traces(src, [13])
    use_cpus(monkeypatch, cpus)
    rc = cli.main(["exp2", "--corpus", str(src), "--seed", "7",
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    assert (f"error: {bad}, line 5: no CPU column: 'garbage line here'"
            in capsys.readouterr().err)
    assert_no_child_left()


class Unpicklable(Exception):
    def __init__(self, message):
        super().__init__(message)
        self.hook = lambda: None  # a lambda cannot be pickled


class Unreadable(Exception):
    """Pickles, but cannot be rebuilt from its args alone."""

    def __init__(self, a, b):
        super().__init__(a)


@pytest.fixture
def deadline():
    """Fail a test that waits on a worker for more than 60 s, instead of
    letting it hang."""
    def expire(signum, frame):
        raise TimeoutError("waited 60 s for a worker")
    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)


def throw(exc):
    raise exc


def failing_in_child(action):
    """A map function that returns `action()` for item 1, the forked
    worker's."""
    parent = os.getpid()

    def fn(x):
        if x == 1 and os.getpid() != parent:
            return action()
        return x
    return fn


MISSING = (r"worker 1 \(pid \d+\): result 1 of 2 is missing or cannot be "
           r"read: ")


@pytest.mark.parametrize("action,message", [
    (lambda: os._exit(3), MISSING + "EOFError"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), MISSING + "EOFError"),
    (lambda: throw(Unpicklable("x")),
     r"worker 1: cannot send Unpicklable\('x'\)"),
    (lambda: throw(Unreadable("a", "b")), MISSING + "TypeError"),
    (lambda: threading.Lock(),  # a result that cannot be pickled
     r"worker 1: cannot send <unlocked _thread.lock"),
])
def test_a_broken_worker_is_named_and_reaped(action, message, monkeypatch,
                                             deadline):
    use_cpus(monkeypatch, TWO_CPUS)
    with pytest.raises(WorkerFailed, match=message):
        workers.map_forked(failing_in_child(action), list(range(4)))
    assert_no_child_left()


def test_an_error_raised_while_waiting_is_not_blamed_on_the_worker(
        monkeypatch):
    # a signal handler's exception during the wait for a stuck worker
    # passes through unchanged, and the worker is killed and reaped
    use_cpus(monkeypatch, TWO_CPUS)

    def expire(signum, frame):
        raise TimeoutError("deadline")
    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(1)
    try:
        with pytest.raises(TimeoutError, match="deadline"):
            workers.map_forked(failing_in_child(lambda: time.sleep(60)),
                           list(range(4)))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    assert_no_child_left()


def test_this_process_error_is_raised_as_is(monkeypatch):
    # an error in this process's own stripe needs no pickling
    use_cpus(monkeypatch, TWO_CPUS)

    def fn(x):
        if x == 2:
            raise Unpicklable("own")
        return x
    with pytest.raises(Unpicklable, match="own"):
        workers.map_forked(fn, list(range(4)))
    assert_no_child_left()



@pytest.mark.parametrize("own_bad,child_action,child_item,raised", [
    # this process's item 0 comes before the dead worker's first item
    (0, lambda: os._exit(3), 1, ValueError),
    # the dead worker's first item, 1, comes before this process's item 2
    (2, lambda: os._exit(3), 1, WorkerFailed),
    # the worker sends item 1; item 3, after item 2, cannot be sent or
    # cannot be read
    (2, threading.Lock, 3, ValueError),
    (2, lambda: throw(Unreadable("a", "b")), 3, ValueError),
])
def test_a_broken_worker_fails_at_its_first_missing_item(
        own_bad, child_action, child_item, raised, monkeypatch, deadline):
    use_cpus(monkeypatch, TWO_CPUS)
    parent = os.getpid()

    def fn(x):
        if os.getpid() == parent and x == own_bad:
            raise ValueError(f"item {x}")
        if os.getpid() != parent and x == child_item:
            return child_action()
        return x
    with pytest.raises(raised):
        workers.map_forked(fn, list(range(4)))
    assert_no_child_left()


def test_ingest_forks_without_a_warning(tmp_path, monkeypatch):
    # Python 3.12 and later warn (DeprecationWarning) on a fork while
    # other threads run; this pins that the forks of generation, ingest and
    # exp1's study fits, under the Python the tests run on, warn of nothing
    use_cpus(monkeypatch, TWO_CPUS)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        src = corpus(tmp_path, "default2", 12, n_root_calls=8)
        ft.load_matrix(src, strict=False)
        ex.run_experiment_1(src, {"learner": "tree", "k": 10,
                                  "grid": {"max_depth": [2, 4]}}, seed=7)
        tasks = tmp_path / "tasks"
        wg.generate_corpus(wg.task_profiles(), 4, 7, tasks, n_root_calls=6)
        ex.run_experiment_2(
            tasks, {"k": 10, "base_params": {"n_trees": 4, "max_depth": 4},
                    "importance_params": {"n_trees": 4, "max_depth": 4}},
            seed=7)
    assert_no_child_left()

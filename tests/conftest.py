"""Helpers for tests of code that maps over worker processes.

The CPU count is set by patching `os.sched_getaffinity`, which
`workers.map_forked` reads to choose its number of workers; no test asks
for more than 2.
"""

import os

import pytest

ONE_CPU, TWO_CPUS = {0}, {0, 1}


def use_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)

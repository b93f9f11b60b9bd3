"""`map_forked`: a map striped over the usable CPUs by forking, for corpus
generation (`workloadgen`), ingest (`features.load_matrix`) and exp1's study
fits (`experiments`).  `taskset` limits the workers; there is no option."""

import os
import pickle
import signal

from .errors import WorkerFailed


def _map_stripe(fn, items: list) -> list:
    """fn over items in order, up to and including the first exception,
    which takes its item's place as the last element."""
    out = []
    for item in items:
        try:
            out.append(fn(item))
        except Exception as exc:
            out.append(exc)
            break
    return out


def _child(w: int, fn, items: list, r: int, wfd: int) -> None:
    """Forked worker w: map its stripe, then send each result, or the
    exception that ended the stripe, down the pipe as one pickle after its
    8-byte length.  Never returns to the caller's stack."""
    status = 1
    try:
        os.close(r)
        with os.fdopen(wfd, "wb") as out:
            for result in _map_stripe(fn, items):
                try:
                    data = pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
                except Exception as exc:
                    result = WorkerFailed(
                        f"worker {w}: cannot send {result!r}: {exc!r}")
                    data = pickle.dumps(result)
                out.write(len(data).to_bytes(8, "little") + data)
                if isinstance(result, Exception):  # ends the stripe
                    break
        status = 0
    finally:
        os._exit(status)


def _receive(w: int, pid: int, f, n_items: int) -> list:
    """Worker w's results, read from its pipe up to the first exception.
    If the worker ended early or sent what cannot be read, a `WorkerFailed`
    naming it takes the place of the first result missing."""
    got = []
    while len(got) < n_items and not (got and isinstance(got[-1], Exception)):
        head = f.read(8)
        size = int.from_bytes(head, "little") if len(head) == 8 else 0
        data = f.read(size)
        try:
            got.append(pickle.loads(data))
        except Exception as exc:  # empty or cut short included
            got.append(WorkerFailed(
                f"worker {w} (pid {pid}): result {len(got) + 1} of {n_items} "
                f"is missing or cannot be read: {exc!r}"))
    return got


def map_forked(fn, items: list) -> list:
    """[fn(x) for x in items], striped over the usable CPUs: worker w of n
    maps items[w::n].  Worker 0 is this process; the others are forked
    children that pickle their results into a pipe each.  A stripe stops
    at its first exception, and the lowest-indexed item's exception is
    raised, as a serial run would raise it; a worker that fails counts as
    failing at its first missing item.  One worker where the platform
    cannot fork; no child outlives the call."""
    n = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        n = max(1, min(len(os.sched_getaffinity(0)), len(items)))
    workers = []  # (pid, read end) of workers 1..n-1
    finished = False
    try:
        for w in range(1, n):
            r, wfd = os.pipe()
            pid = os.fork()
            if pid == 0:
                _child(w, fn, items[w::n], r, wfd)
            workers.append((pid, os.fdopen(r, "rb")))  # reaped from here on
            os.close(wfd)
        stripes = [_map_stripe(fn, items[0::n])]
        stripes += [_receive(w, pid, f, len(items[w::n]))
                    for w, (pid, f) in enumerate(workers, start=1)]
        finished = True
    finally:
        for pid, f in workers:
            f.close()
            if not finished:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    failed = [(w + n * (len(s) - 1), s[-1]) for w, s in enumerate(stripes)
              if s and isinstance(s[-1], Exception)]
    if failed:
        raise min(failed, key=lambda f: f[0])[1]
    out = [None] * len(items)
    for w, s in enumerate(stripes):
        out[w::n] = s
    return out

"""Deterministic synthetic generator of labeled function_graph traces.

Emulates encryption-heavy versus plain-I/O workloads (and several named
tasks) at desk scale.  Every trace comes with an I/O sidecar and exact
bookkeeping of emitted calls, which the parser and extractor tests use as
an oracle.  No real cryptography is performed; names are flavor only.
"""

from __future__ import annotations

import hashlib
import json
import math
import zlib
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .trace_parser import CallRecord, IoMeta, format_forest
from .workers import map_forked

CRYPTO_FUNCTIONS = [
    "aes_encrypt_block", "aes_key_expand", "sha256_transform",
    "chacha_block_xor", "crypto_shash_update", "blkcipher_walk_next",
    "key_schedule_round", "xts_tweak_mul", "scatterwalk_map",
    "entropy_pool_mix",
]

IO_FUNCTIONS = [
    "vfs_read", "vfs_write", "rw_verify_area", "generic_file_read_iter",
    "ext4_file_write_iter", "copy_page_to_iter", "filemap_get_pages",
    "mark_page_accessed", "fsnotify", "do_sys_openat2",
]

# names echo real kernel symbols seen in function_graph dumps
MM_SCHED_FUNCTIONS = [
    "kmem_cache_alloc", "free_unref_page_list", "unlink_anon_vmas",
    "task_active_pid_ns", "mutex_unlock", "_raw_spin_lock",
    "schedule_timeout", "update_load_avg", "x2apic_send_IPI",
    "mm_put_huge_zero_page", "special_mapping_close", "untrack_pfn",
    "vma_interval_tree_remove",
]

RING_FUNCTIONS = [f"ring_stage_{i:02d}" for i in range(12)]


@dataclass
class WorkloadProfile:
    name: str
    label: int
    vocabulary: list[tuple[str, float]]  # (function name, relative rate)
    max_depth: int = 3
    branching: float = 1.4
    duration_median_us: float = 1.5
    duration_sigma: float = 0.6
    crypto_intensity: float = 0.0
    io_model: dict = field(default_factory=lambda: {
        "read_count": 20, "write_count": 10,
        "read_block": 4096, "write_block": 4096})
    edge_scheme: Optional[tuple[int, int]] = None  # circulant child offsets

    def __post_init__(self):
        if not 0.0 <= self.crypto_intensity <= 1.0:
            raise ValueError("crypto_intensity must be in [0,1]")
        if any(rate <= 0 for _, rate in self.vocabulary):
            raise ValueError("vocabulary rates must be positive")


@dataclass
class GeneratorBookkeeping:
    call_counts: dict[str, int] = field(default_factory=dict)
    total_calls: int = 0
    io_meta: Optional[IoMeta] = None
    label: int = 0
    task: str = ""


def _cdf(vocab):
    """Names and the cumulative distribution of their normalised rates,
    built once as `rng.choice(n, p=p)` builds it on every call, so that
    `cdf.searchsorted(rng.random(), side="right")` draws exactly what
    `rng.choice` would, and leaves the stream in the same state."""
    names = [n for n, _ in vocab]
    rates = np.asarray([r for _, r in vocab], dtype=float)
    cdf = np.cumsum(rates / rates.sum())
    cdf /= cdf[-1]
    return names, cdf


_CRYPTO_CDF = _cdf([(n, 1.0) for n in CRYPTO_FUNCTIONS])


def _grow_tree(rng, names, cdf, branching: float, max_depth: int, cpu: int,
               counts: dict) -> list[CallRecord]:
    """Grow one random call tree in a single explicit-stack pre-order pass
    and return its calls in post-order, root last.

    The draws follow the recursive definition: a call's name, then its
    Poisson child count (none at max_depth), then each child's whole
    subtree.  Every name is counted into `counts` in pre-order."""
    random, poisson, search = rng.random, rng.poisson, cdf.searchsorted
    lams = [branching / (depth + 1.0) for depth in range(max_depth)]
    post: list[CallRecord] = []
    open_calls: list[list] = []  # [call, children still to grow] per level
    while True:
        depth = len(open_calls)
        parent = open_calls[-1][0] if open_calls else None
        name = names[search(random(), side="right")]
        counts[name] = counts.get(name, 0) + 1
        rec = CallRecord(name, cpu, depth,
                         parent_name=None if parent is None else parent.name)
        if parent is not None:
            parent.children.append(rec)
        n_children = int(poisson(lams[depth])) if depth < max_depth else 0
        if n_children:
            open_calls.append([rec, n_children])
            continue
        post.append(rec)
        # close every call whose last child just finished
        while open_calls:
            open_calls[-1][1] -= 1
            if open_calls[-1][1]:
                break
            post.append(open_calls.pop()[0])
        if not open_calls:
            return post


def _ring_tree(profile: WorkloadProfile, tree_index: int, cpu: int,
               counts: dict) -> list[CallRecord]:
    """Fixed circulant wiring: tree t roots ring function t%12 and calls the
    children at the profile's offsets.  Per-function call counts and the
    duration distribution are identical across schemes, so only graph
    structure separates the classes.  Returns the calls in post-order."""
    i = tree_index % len(RING_FUNCTIONS)
    root = CallRecord(RING_FUNCTIONS[i], cpu, 0)
    root.children = [
        CallRecord(RING_FUNCTIONS[(i + off) % len(RING_FUNCTIONS)], cpu, 1,
                   parent_name=root.name)
        for off in profile.edge_scheme]
    for rec in [root, *root.children]:
        counts[rec.name] = counts.get(rec.name, 0) + 1
    return [*root.children, root]


def _assign_times(root: CallRecord, start: float) -> None:
    """Absolute entry and exit times, rounded to the 6 printed decimals: a
    call enters where its previous sibling exited (its first child where it
    entered) and exits its duration later."""
    todo = [([root], start)]
    while todo:
        siblings, t = todo.pop()
        for rec in siblings:
            rec.start_time = round(t, 6)
            rec.end_time = round(rec.start_time + rec.duration_us * 1e-6, 6)
            if rec.children:
                todo.append((rec.children, t))
            t = rec.end_time


def _rng_for(profile: WorkloadProfile, seed: int):
    return np.random.default_rng([zlib.crc32(profile.name.encode()), seed])


# root calls per generated trace unless the caller asks for another count
DEFAULT_ROOT_CALLS = 30


def generate_trace(profile: WorkloadProfile, seed: int,
                   n_root_calls: int = DEFAULT_ROOT_CALLS,
                   multi_cpu: bool = False, abstime: bool = False):
    """Emit (trace text, IoMeta, GeneratorBookkeeping) for one workload run;
    `multi_cpu` deals the root calls to CPUs 0 and 1 in turn."""
    rng = _rng_for(profile, seed)
    book = GeneratorBookkeeping(label=profile.label, task=profile.name)
    counts = book.call_counts
    names, cdf = _cdf(profile.vocabulary)
    log_median = math.log(profile.duration_median_us)
    n_cpus = 2 if multi_cpu else 1
    clocks = [1000.0 + cpu for cpu in range(n_cpus)]

    roots: list[CallRecord] = []
    for t in range(n_root_calls):
        cpu = t % n_cpus
        if profile.edge_scheme is not None:
            post = _ring_tree(profile, t, cpu, counts)
        elif (profile.crypto_intensity > 0
              and rng.random() < profile.crypto_intensity):
            # crypto bursts: denser and deeper subtrees from the crypto vocab
            post = _grow_tree(rng, *_CRYPTO_CDF,
                              profile.branching + 1.2, profile.max_depth + 1,
                              cpu, counts)
        else:
            post = _grow_tree(rng, names, cdf, profile.branching,
                              profile.max_depth, cpu, counts)
        # one self-time draw per call, children before parents
        self_times = rng.lognormal(log_median, profile.duration_sigma,
                                   size=len(post)).tolist()
        for rec, self_us in zip(post, self_times):
            # rounding after summing printed child values keeps containment
            # exact; not sum(), which compensates float sums from Python 3.12
            total = 0.0
            for child in rec.children:
                total += child.duration_us
            rec.duration_us = round(total + round(self_us, 3), 3)
        root = post[-1]
        if abstime:
            _assign_times(root, clocks[cpu] + 1e-6)
            clocks[cpu] = root.end_time
        roots.append(root)
    book.total_calls = sum(counts.values())

    io = IoMeta(
        read_count=int(rng.poisson(profile.io_model["read_count"])),
        write_count=int(rng.poisson(profile.io_model["write_count"])),
    )
    io.read_bytes = io.read_count * int(profile.io_model["read_block"])
    io.write_bytes = io.write_count * int(profile.io_model["write_block"])
    book.io_meta = io

    text = format_forest(roots, abstime=abstime)
    return text, io, book


def generate_corpus(profiles: list[WorkloadProfile], per_profile_count: int,
                    seed: int, out_dir,
                    n_root_calls: int = DEFAULT_ROOT_CALLS,
                    multi_cpu: bool = False, abstime: bool = False) -> dict:
    """Write per_profile_count traces per profile plus sidecars and a
    manifest; returns the manifest.  A directory that already holds traces
    is refused, so two corpora cannot mix."""
    if per_profile_count < 1:
        raise ValueError("per_profile_count must be >= 1")
    if n_root_calls < 1:
        raise ValueError("n_root_calls must be >= 1")
    out = Path(out_dir)
    if next(out.rglob("*.trace"), None) is not None:
        raise ValueError(f"{out_dir} already holds traces")
    jobs = []
    for p_idx, profile in enumerate(profiles):
        (out / profile.name).mkdir(parents=True, exist_ok=True)
        for j in range(per_profile_count):
            file_seed = int(np.random.SeedSequence(
                [seed, p_idx, j]).generate_state(1)[0]) % 10 ** 9
            jobs.append((profile, file_seed, j))

    def write_trace(job) -> str:
        profile, file_seed, j = job
        text, io, book = generate_trace(
            profile, file_seed, n_root_calls=n_root_calls,
            multi_cpu=multi_cpu, abstime=abstime)
        stem = f"{j:04d}_{file_seed:09d}"
        trace_path = out / profile.name / f"{stem}.trace"
        trace_path.write_text(text)
        sidecar = {"label": profile.label, "task": profile.name,
                   **asdict(io)}
        (out / profile.name / f"{stem}.io.json").write_text(
            json.dumps(sidecar))
        entry = {"file": str(trace_path.relative_to(out)),
                 "sidecar": f"{profile.name}/{stem}.io.json",
                 "task": profile.name,
                 "label": profile.label,
                 "seed": file_seed,
                 "sha256": hashlib.sha256(text.encode()).hexdigest(),
                 "total_calls": book.total_calls,
                 "call_counts": book.call_counts}
        # indented as an item of the manifest's "entries" list
        return json.dumps(entry, indent=2).replace("\n", "\n    ")

    entries = map_forked(write_trace, jobs)
    text = json.dumps({"seed": seed, "n_root_calls": n_root_calls,
                       "multi_cpu": multi_cpu, "abstime": abstime,
                       "profiles": [p.name for p in profiles],
                       "entries": []}, indent=2)
    if entries:  # "entries" is the last key: fill its "[]\n}"
        text = (text[:-4] + "[\n    " + ",\n    ".join(entries)
                + "\n  ]\n}")
    (out / "manifest.json").write_text(text)
    return json.loads(text)


def _mix(base: list[str], extra: list[str], extra_rate=3.0):
    return [(n, 1.0) for n in base] + [(n, extra_rate) for n in extra]


def default_pair() -> list[WorkloadProfile]:
    """Two-profile corpus with class signal in all three feature groups."""
    plain = WorkloadProfile(
        name="plain_io", label=0,
        vocabulary=_mix(MM_SCHED_FUNCTIONS, IO_FUNCTIONS),
        max_depth=3, branching=1.3,
        duration_median_us=3.0, duration_sigma=0.7,
        io_model={"read_count": 40, "write_count": 30,
                  "read_block": 4096, "write_block": 4096},
    )
    crypto = WorkloadProfile(
        name="crypto_worker", label=1,
        vocabulary=_mix(MM_SCHED_FUNCTIONS, IO_FUNCTIONS, extra_rate=1.5),
        max_depth=3, branching=1.3,
        duration_median_us=1.2, duration_sigma=0.5,
        crypto_intensity=0.7,
        io_model={"read_count": 40, "write_count": 60,
                  "read_block": 4096, "write_block": 512},
    )
    return [plain, crypto]


def graph_signal_pair() -> list[WorkloadProfile]:
    """Classes that differ only in call-graph wiring (circulant offsets);
    counts, durations and I/O distributions are identical, so only graph
    features carry signal."""
    common = dict(
        vocabulary=[(n, 1.0) for n in RING_FUNCTIONS],
        duration_median_us=2.0, duration_sigma=0.6,
        io_model={"read_count": 25, "write_count": 25,
                  "read_block": 2048, "write_block": 2048},
    )
    tight = WorkloadProfile(name="ring_tight", label=1,
                            edge_scheme=(1, 2), **common)
    loose = WorkloadProfile(name="ring_loose", label=0,
                            edge_scheme=(1, 6), **common)
    return [tight, loose]


def task_profiles() -> list[WorkloadProfile]:
    """Six named tasks for the multi-label experiment."""
    base = MM_SCHED_FUNCTIONS

    def prof(name, label, extra, depth, branch, med, io_r, io_w):
        return WorkloadProfile(
            name=name, label=label,
            vocabulary=_mix(base, extra),
            max_depth=depth, branching=branch,
            duration_median_us=med,
            io_model={"read_count": io_r, "write_count": io_w,
                      "read_block": 4096, "write_block": 4096})

    return [
        prof("aes_encrypt", 1, CRYPTO_FUNCTIONS[:5], 4, 2.0, 1.0, 30, 30),
        prof("chacha_stream", 1, CRYPTO_FUNCTIONS[3:8], 4, 1.6, 0.8, 20, 45),
        prof("file_copy", 0, IO_FUNCTIONS[:6], 3, 1.2, 3.5, 80, 80),
        prof("grep_scan", 0, IO_FUNCTIONS[2:8], 3, 1.5, 2.0, 90, 5),
        prof("compile_job", 0, ["cc1_tokenize", "cc1_parse_decl",
                                "gimplify_expr", "ira_color",
                                "lto_write_body"] + IO_FUNCTIONS[:3],
             4, 1.8, 5.0, 50, 40),
        prof("db_update", 0, ["btree_lookup", "wal_append", "page_split",
                              "row_lock_acquire", "fsync_range"]
             + IO_FUNCTIONS[1:4], 3, 1.4, 4.0, 40, 70),
    ]


def scale_pair() -> list[WorkloadProfile]:
    """Two classes over one shared base of 1,000 names at rates
    1/(1+i)^0.8, nested up to 8 deep: given thousands of root calls, a
    trace has the length and breadth of a real capture.  The classes share
    their vocabulary and differ in durations and I/O."""
    common = dict(vocabulary=[(f"ksym_{i:04d}", 1.0 / (1 + i) ** 0.8)
                              for i in range(1000)],
                  max_depth=8, branching=2.2)
    return [
        WorkloadProfile(name="scale_plain", label=0, duration_median_us=3.0,
                        **common),
        WorkloadProfile(name="scale_crypto", label=1, duration_median_us=1.2,
                        io_model={"read_count": 40, "write_count": 60,
                                  "read_block": 4096, "write_block": 512},
                        **common),
    ]


PROFILE_SETS = {
    "default2": default_pair,
    "graphonly": graph_signal_pair,
    "tasks6": task_profiles,
    "scale": scale_pair,
}


def profiles_by_name(name: str) -> list[WorkloadProfile]:
    try:
        return PROFILE_SETS[name]()
    except KeyError:
        raise ValueError(f"unknown profile set {name!r}; "
                         f"choose from {sorted(PROFILE_SETS)}") from None

"""The three benchmark workloads, one per end-to-end path of the program.

* ``anonymize-cold`` — one-shot ``run_diva`` jobs, as ``repro anonymize``
  runs them: a fresh relation per job and both memos cleared before it.
* ``sweep-warm`` — a paper-figure sweep in one process: a k × nested-Σ
  grid over one relation whose index persists, memos cleared only once at
  the start of the run.
* ``serve-ingest-read`` — ``python -m repro serve`` as a subprocess, fed by
  a closed-loop ``/ingest`` writer while an open-loop reader revalidates
  ``/release`` (see :mod:`loadgen`).

Each run does a fixed amount of work, ``ops_per_s × --seconds`` operations
(rounded to whole rounds or grids), sized so that a run lasts about
``--seconds`` on a 2-core x86-64 host.  Fixed work keeps parent and change
on identical inputs: job costs are heavy-tailed and serve ingest cost
grows with the release, so a time-boxed run would give a faster program a
different mix of work.

The workload seed drives the data.  The constraint targets of an
operation are fixed by its slot (see :func:`slot_sigma`), so every seed
carries the same mix of easy and hard constraint sets.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import math
import os
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

import loadgen
import measure
import spans

HERE = Path(__file__).resolve().parent

#: Input sizes per workload; ``tiny`` exists for the benchmark's own tests.
SIZES = {
    "full": {
        "anonymize-cold": {
            "n": 5000, "constraints": 6, "k": 5, "round": 4, "ops_per_s": 0.5,
        },
        "sweep-warm": {
            "n": 3000, "ks": (5, 10), "sigma_sizes": (2, 4, 6, 8),
            "ops_per_s": 1.6,
        },
        "serve-ingest-read": {
            "bootstrap": 1000, "batch": 100, "requests": 25, "ops_per_s": 3.4,
            "constraints": 6, "k": 5, "lower_cap": 10, "read_rate": 100,
        },
    },
    "tiny": {
        "anonymize-cold": {
            "n": 300, "constraints": 2, "k": 5, "round": 2, "ops_per_s": 2,
        },
        "sweep-warm": {
            "n": 300, "ks": (5, 10), "sigma_sizes": (1, 2), "ops_per_s": 4,
        },
        "serve-ingest-read": {
            "bootstrap": 200, "batch": 100, "requests": 2, "ops_per_s": 2,
            "constraints": 2, "k": 5, "lower_cap": 10, "read_rate": 50,
        },
    },
}

#: Memo temperature of each workload's timed region.
TEMPERATURE = {
    "anonymize-cold": "cold: memos cleared before every job",
    "sweep-warm": "warm: memos cleared once per run, kept across points",
    "serve-ingest-read": "server process: memos warm from replay, never cleared",
}


#: Share of a target's count its lower bound keeps, and of it its upper
#: bound allows: the proportional representation ``proportion_constraints``
#: generates by default.
ALPHA, BETA = 0.5, 1.0

#: Size of the relation constraint targets are drawn on (see slot_sigma).
REFERENCE_ROWS = 1000


def derive(seed: int, slot: int) -> int:
    """A data seed for operation ``slot`` of a run seeded with ``seed``."""
    return int(np.random.SeedSequence([seed, slot]).generate_state(1)[0])


def whole(ops: float, per: int) -> int:
    """``ops`` rounded to a whole, non-zero number of ``per``-op rounds."""
    return max(1, round(ops / per))


def slot_sigma(make, relation, n_constraints: int, k: int, slot: int,
               lower_cap: Optional[int] = None):
    """Σ for operation ``slot``: proportional bounds on fixed targets.

    The targets (attribute, value) are those ``proportion_constraints``
    draws on a reference relation made by ``make`` with seed ``slot``;
    their bounds come from their counts in ``relation``.  Drawing targets
    on ``relation`` itself would let the workload seed decide whether a
    slot constrains a near-universal value, whose large target pool makes
    a job several times slower, and the runs of different seeds would
    not be comparable.  Targets are drawn among values with at least 2k
    occurrences, so each still has k in ``relation``.
    """
    from repro.core.constraints import ConstraintSet, DiversityConstraint
    from repro.workloads.constraint_gen import proportion_constraints

    reference = make(seed=slot, n_rows=min(len(relation), REFERENCE_ROWS))
    targets = proportion_constraints(reference, n_constraints, k=2 * k, seed=slot)
    sigma = []
    for target in targets:
        count = target.count(relation)
        lower = math.ceil(ALPHA * count)
        if lower_cap is not None:
            lower = min(lower, lower_cap)
        lower = max(k, lower)
        upper = max(lower, math.ceil(BETA * count))
        sigma.append(DiversityConstraint(target.attrs, target.values, lower, upper))
    return ConstraintSet(sigma)


def memo_stats() -> dict[str, int]:
    from repro.core.enumeration import get_enum_memo
    from repro.core.searchstate import get_contribution_memo

    return dict(get_enum_memo().stats()) | dict(get_contribution_memo().stats())


def clear_memos() -> None:
    from repro.core.enumeration import get_enum_memo
    from repro.core.searchstate import get_contribution_memo

    get_enum_memo().clear()
    get_contribution_memo().clear()


@dataclass
class Pass:
    """What one pass over a workload measured and verified."""

    op_walls: list = field(default_factory=list)
    op_groups: list = field(default_factory=list)
    setup_times: list = field(default_factory=list)
    rows: int = 0
    wall_s: float = 0.0
    stars: int = 0
    published_rows: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    stars_by_op: dict = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    memo: dict = field(default_factory=dict)
    #: serve only: read latencies, generator lateness, /metrics scrapes
    reads: list = field(default_factory=list)
    late: list = field(default_factory=list)
    metrics_texts: list = field(default_factory=list)
    #: traced passes: one span dump per tracer (per server, on serve)
    dumps: list = field(default_factory=list)

    def add_memo(self, before: dict, after: dict) -> None:
        """Fold the memo traffic between two snapshots into the pass."""
        for name, value in measure.stats_delta(before, after).items():
            self.memo[name] = self.memo.get(name, 0) + value

    @property
    def rows_per_s(self) -> float:
        return self.rows / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def op_p50_s(self) -> float:
        """Median op wall; with several op kinds, the mean of their medians,
        so the figure does not hinge on which kind a run's middle op was."""
        groups: dict = {}
        for group, wall in zip(self.op_groups, self.op_walls):
            groups.setdefault(group, []).append(wall)
        if not groups:
            return 0.0
        return statistics.fmean(statistics.median(w) for w in groups.values())


def _verify(p: Pass, key: str, relation, sigma, k: int, expect_rows: int) -> None:
    """Check one release; record its stars under ``key`` plus a digest of
    Σ, so a changed input definition never meets a stale record."""
    from repro.metrics.stats import is_k_anonymous

    if not is_k_anonymous(relation, k):
        p.problems.append(f"{key}: release is not {k}-anonymous")
    if not sigma.is_satisfied_by(relation):
        p.problems.append(f"{key}: release violates the constraints")
    if len(relation) != expect_rows:
        p.problems.append(f"{key}: published {len(relation)} of {expect_rows} rows")
    stars = relation.star_count()
    p.stars += stars
    p.published_rows += len(relation)
    digest = hashlib.sha1(repr(sigma).encode("utf-8")).hexdigest()[:10]
    p.stars_by_op[f"{key}:{digest}"] = stars


def _run_job(p: Pass, key: str, group: str, relation, sigma, k: int,
             tracer: Optional[spans.Tracer]) -> None:
    from repro.core.diva import run_diva

    p.attempted += 1
    if tracer is not None:
        tracer.set_request(key)
    start = time.perf_counter()
    try:
        result = run_diva(relation, sigma, k)
    except Exception as exc:
        p.failed += 1
        p.errors.append(f"{key}: {type(exc).__name__}: {exc}")
        return
    finally:
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.set_request(None)
    p.op_walls.append(wall)
    p.op_groups.append(group)
    p.wall_s += wall
    p.rows += len(relation)
    _verify(p, key, result.relation, sigma, k, len(relation))


def anonymize_cold(seed: int, seconds: float, size: dict,
                   tracer: Optional[spans.Tracer] = None) -> Pass:
    from repro.data.datasets import make_census, make_popsyn

    p = Pass()
    per = size["round"]
    for first in range(0, per * whole(size["ops_per_s"] * seconds, per), per):
        start = time.perf_counter()
        inputs = []
        for slot in range(first, first + per):
            make = make_census if slot % 2 == 0 else make_popsyn
            relation = make(seed=derive(seed, slot), n_rows=size["n"])
            sigma = slot_sigma(make, relation, size["constraints"], size["k"], slot)
            inputs.append((slot, make.__name__[5:], relation, sigma))
        p.setup_times.append(time.perf_counter() - start)
        for slot, dataset, relation, sigma in inputs:
            clear_memos()
            before = memo_stats()
            _run_job(p, f"job:{slot}", dataset, relation, sigma, size["k"], tracer)
            p.add_memo(before, memo_stats())
    p.peak_rss_mb = measure.own_peak_rss_mb()
    return p


def sweep_warm(seed: int, seconds: float, size: dict,
               tracer: Optional[spans.Tracer] = None) -> Pass:
    from repro.core.constraints import ConstraintSet
    from repro.data.datasets import make_census

    p = Pass()
    clear_memos()
    before = memo_stats()
    points = len(size["ks"]) * len(size["sigma_sizes"])
    for grid in range(whole(size["ops_per_s"] * seconds, points)):
        start = time.perf_counter()
        relation = make_census(seed=derive(seed, grid), n_rows=size["n"])
        full = list(slot_sigma(
            make_census, relation, max(size["sigma_sizes"]), max(size["ks"]), grid
        ))
        p.setup_times.append(time.perf_counter() - start)
        for k in size["ks"]:
            for m in size["sigma_sizes"]:
                _run_job(p, f"point:{grid}:{k}:{m}", "point", relation,
                         ConstraintSet(full[:m]), k, tracer)
    p.add_memo(before, memo_stats())
    p.peak_rss_mb = measure.own_peak_rss_mb()
    return p


# -- serve-ingest-read ----------------------------------------------------------


class Server:
    """One ``repro serve`` subprocess, stopped and reaped by :meth:`stop`."""

    LISTEN_TIMEOUT_S = 120.0

    def __init__(self, workdir: Path, argv: list, dump: Optional[Path]):
        self.workdir = workdir
        env = dict(os.environ)
        env.pop("REPRO_KERNEL_BACKEND", None)
        src = str(Path.cwd() / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        if dump is None:
            cmd = [sys.executable, "-m", "repro", *argv]
        else:
            cmd = [sys.executable, str(HERE / "serve_traced.py"), str(dump), *argv]
        self._stderr = open(workdir / "server.err", "w")
        self.proc = subprocess.Popen(
            cmd, cwd=workdir, env=env, stdout=subprocess.PIPE,
            stderr=self._stderr,
        )
        self.port: Optional[int] = None

    def wait_listening(self) -> int:
        """Block until the server prints its address; return the port."""
        deadline = time.monotonic() + self.LISTEN_TIMEOUT_S
        fd = self.proc.stdout.fileno()
        seen = b""
        with selectors.DefaultSelector() as sel:
            sel.register(fd, selectors.EVENT_READ)
            while time.monotonic() < deadline:
                if not sel.select(timeout=deadline - time.monotonic()):
                    continue
                chunk = os.read(fd, 4096)
                if not chunk:
                    break
                seen += chunk
                for line in seen.decode("utf-8", "replace").splitlines():
                    if "listening on http://" in line:
                        self.port = int(line.rsplit(":", 1)[1])
                        return self.port
        raise RuntimeError(
            "server did not start: "
            + (self.workdir / "server.err").read_text()[-2000:]
        )

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()


def _serve_inputs(seed: int, session: int, size: dict):
    from repro.data.datasets import make_census

    total = size["bootstrap"] + size["requests"] * size["batch"]
    relation = make_census(seed=derive(seed, session), n_rows=total)
    sigma = slot_sigma(make_census, relation, size["constraints"], size["k"],
                       session, lower_cap=size["lower_cap"])
    return relation, sigma


def _start_server(workdir: Path, relation, sigma, size: dict,
                  dump: Optional[Path]) -> Server:
    from repro.data.loaders import save_relation

    workdir.mkdir(parents=True)
    source = workdir / "source.csv"
    save_relation(relation.restrict(range(size["bootstrap"])), source)
    sigma_path = workdir / "sigma.txt"
    sigma_path.write_text("".join(repr(c)[1:-1] + "\n" for c in sigma))
    argv = [
        "serve", str(source), "-k", str(size["k"]), "-c", str(sigma_path),
        "--replay", "--write-releases", "--micro-batch", str(size["batch"]),
    ]
    server = Server(workdir, argv, dump)
    try:
        server.wait_listening()
    except BaseException:
        server.stop()
        raise
    return server


def _serve_session(p: Pass, seed: int, session: int, size: dict,
                   workdir: Path, traced: bool) -> None:
    """Set up one server, drive it, check its final release, stop it."""
    from repro.data.loaders import load_relation

    start = time.perf_counter()
    relation, sigma = _serve_inputs(seed, session, size)
    dump = workdir / "spans.json" if traced else None
    server = _start_server(workdir, relation, sigma, size, dump)
    try:
        p.setup_times.append(time.perf_counter() - start)
        rows = [list(row) for _, row in relation][size["bootstrap"]:]
        batches = [
            rows[i:i + size["batch"]] for i in range(0, len(rows), size["batch"])
        ]
        load = asyncio.run(loadgen.drive(
            "127.0.0.1", server.port, batches, size["read_rate"],
            scrape_metrics=traced,
        ))
        peak = measure.pid_peak_rss_mb(server.proc.pid)
    finally:
        server.stop()
    p.peak_rss_mb = max(p.peak_rss_mb, peak or 0.0)
    p.attempted += len(batches) + len(load.read_latencies) + load.read_failed + 1
    p.failed += load.ingest_failed + load.read_failed
    p.op_walls += load.ingest_latencies
    p.op_groups += ["ingest"] * len(load.ingest_latencies)
    p.wall_s += load.writer_wall_s
    p.reads += load.read_latencies
    p.late += load.read_late
    p.metrics_texts.append(load.metrics_text)
    if traced:
        p.dumps.append(json.loads(dump.read_text()))
    if load.release_status != 200:
        p.failed += 1
        p.problems.append(
            f"session {session}: final GET /release answered {load.release_status}"
        )
        return
    final = workdir / "final.csv"
    final.write_bytes(load.release_body)
    released = load_relation(final, relation.schema)
    # Every row the server took is published, pending or buffered; the
    # rows a session counts are those its load moved into the release.
    held = size["bootstrap"] + load.rows_sent
    _verify(p, f"session:{session}", released, sigma, size["k"],
            held - load.end_unpublished)
    p.rows += len(released) - (size["bootstrap"] - load.start_unpublished)


def serve_ingest_read(seed: int, seconds: float, size: dict, state: Path,
                      traced: bool = False) -> Pass:
    """Sessions of ``size["requests"]`` ingests, each on a fresh server.

    Ingest cost grows with the release, so the op median of one long
    session would sit on a single point of that ramp; several short
    sessions put many samples at every release size.
    """
    p = Pass()
    base = state / f"serve-{os.getpid()}-{'traced' if traced else 'plain'}"
    shutil.rmtree(base, ignore_errors=True)
    try:
        for session in range(whole(size["ops_per_s"] * seconds, size["requests"])):
            try:
                _serve_session(p, seed, session, size, base / f"session{session}",
                               traced)
            except Exception as exc:
                p.attempted += 1
                p.failed += 1
                p.problems.append(
                    f"session {session}: {type(exc).__name__}: {exc}"[:2000]
                )
    finally:
        shutil.rmtree(base, ignore_errors=True)
    return p

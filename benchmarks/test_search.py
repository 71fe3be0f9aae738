"""Exact-solver search benchmark: the columnar search-state engine vs the
pure-Python reference bookkeeping.

Runs the BENCH_obs workload (census at 2 000 rows, six proportional
constraints, k=5, maxfanout) end to end twice — on the production engines
(``vectorized``) and with the dict-state search and pure-Python
enumeration of ``tests/oracle.py`` injected (``reference``) — and
records, per leg, the search construction wall (candidate enumeration
plus engine registration), the solve wall, and the node-expansion
throughput ``nodes_expanded / solve_s``.  Results go through the run
registry (``benchmarks/results/runs/`` plus ``BENCH_search.json`` at the
repo root); CI gates the ``*_s`` metrics against the committed
``benchmarks/results/baseline-search.json`` with ``repro compare`` and this
test asserts the PR's headline floor — the engine must expand nodes at
least 3x faster than the reference path on the same trajectory.

Excluded from tier-1 runs by the ``bench`` marker; run with::

    PYTHONPATH=src python -m pytest benchmarks/test_search.py -m bench -s -p no:cacheprovider

Timing method: best-of-N wall clock over fresh ``ColoringSearch``
instances.  The process-global memos (enumeration + contribution) stay
warm across repeats by design — that is the steady state the engine runs
in under ``diva``, parallel components, and streaming republishes — while
the per-search state (counters, registry, coverage) is rebuilt each
repeat, so the timed region is the real incremental-maintenance path.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

import numpy as np
import pytest

from repro.bench.reporting import write_bench_artifact
from repro.core.coloring import ColoringSearch
from repro.data.datasets import make_census
from repro.workloads.constraint_gen import proportion_constraints
from tests import oracle

pytestmark = pytest.mark.bench

N_ROWS = 2_000
N_CONSTRAINTS = 6
K = 5
SEED = 3
REPEATS = 3

#: The acceptance floor: vectorized node-expansion throughput must be at
#: least this multiple of the reference path's on the same trajectory.
MIN_THROUGHPUT_RATIO = 3.0


def _measure(backend: str, relation, sigma) -> dict:
    best_init = float("inf")
    best_solve = float("inf")
    nodes = 0
    with oracle.injected() if backend == "reference" else nullcontext():
        for _ in range(REPEATS):
            start = time.perf_counter()
            search = ColoringSearch(
                relation,
                sigma,
                K,
                strategy="maxfanout",
                rng=np.random.default_rng(SEED),
            )
            init_s = time.perf_counter() - start
            start = time.perf_counter()
            result = search.run()
            solve_s = time.perf_counter() - start
            assert result.success
            nodes = result.stats.nodes_expanded
            best_init = min(best_init, init_s)
            best_solve = min(best_solve, solve_s)
    return {
        "backend": backend,
        "init_s": round(best_init, 6),
        "solve_s": round(best_solve, 6),
        "nodes_expanded": nodes,
        "nodes_per_s": round(nodes / best_solve, 1),
    }


def test_search_state_engine_throughput():
    relation = make_census(seed=SEED, n_rows=N_ROWS)
    sigma = proportion_constraints(relation, N_CONSTRAINTS, k=K, seed=SEED)

    # Reference first so its cold enumeration cannot warm the vectorized
    # leg's memos; the oracle neither reads nor fills them.
    reference = _measure("reference", relation, sigma)
    vectorized = _measure("vectorized", relation, sigma)

    assert vectorized["nodes_expanded"] == reference["nodes_expanded"]
    ratio = vectorized["nodes_per_s"] / reference["nodes_per_s"]

    payload = {
        "workload": "BENCH_obs config, exact coloring solve",
        "rows": [reference, vectorized],
        "throughput_ratio": round(ratio, 2),
    }
    write_bench_artifact(
        "search",
        payload,
        config={
            "dataset": "census",
            "n_rows": N_ROWS,
            "n_constraints": N_CONSTRAINTS,
            "k": K,
            "strategy": "maxfanout",
            "seed": SEED,
            "repeats": REPEATS,
        },
        metrics={
            "reference_init_s": reference["init_s"],
            "reference_solve_s": reference["solve_s"],
            "vectorized_init_s": vectorized["init_s"],
            "vectorized_solve_s": vectorized["solve_s"],
            "throughput_ratio": round(ratio, 2),
        },
    )

    print()
    for row in (reference, vectorized):
        print(
            f"{row['backend']:>10}: init {row['init_s'] * 1e3:8.1f} ms  "
            f"solve {row['solve_s'] * 1e3:7.2f} ms  "
            f"{row['nodes_per_s']:7.1f} nodes/s"
        )
    print(f"throughput ratio: {ratio:.2f}x (floor {MIN_THROUGHPUT_RATIO}x)")

    assert ratio >= MIN_THROUGHPUT_RATIO, (
        f"search-state engine throughput ratio {ratio:.2f}x is below the "
        f"{MIN_THROUGHPUT_RATIO}x acceptance floor"
    )

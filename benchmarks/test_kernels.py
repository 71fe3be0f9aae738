"""Micro-benchmarks: vectorized kernels vs the pure-Python reference.

Times each DIVA hot-path kernel on a census-shaped relation, columnar
index against the pure-Python oracle of ``tests/oracle.py``, and records the results through the run registry
(``benchmarks/results/runs/`` plus the ``BENCH_kernels.json`` duplicate at
the repo root) — ``(op, n, reference_s, vectorized_s, speedup)`` rows — so
the perf trajectory of the columnar kernel layer is tracked from the PR
that introduced it onward.

Excluded from tier-1 runs by the ``bench`` marker (``pyproject.toml``
defaults to ``-m "not bench"``); run with::

    PYTHONPATH=src python -m pytest benchmarks/test_kernels.py -m bench -s -p no:cacheprovider

Timing method: best-of-N wall clock per op.  Index construction is *not*
inside the timed region (one build is amortized over the thousands of
kernel calls a coloring search makes) but is reported separately in the
JSON as ``index_build``.  The per-repeat cluster sets are rotated so the
vectorized timings exercise fresh computations rather than the memo cache.
"""

from __future__ import annotations

import time
from collections import Counter

import numpy as np
import pytest

from repro.bench.reporting import write_bench_artifact
from repro.core.constraints import DiversityConstraint
from repro.core.index import RelationIndex
from repro.data.datasets import make_census
from tests.oracle import (
    cluster_suppression_cost_reference,
    greedy_k_partition_reference,
    preserved_count_reference,
    qi_distance_reference,
    qi_rows_of,
)

pytestmark = pytest.mark.bench

N_ROWS = 10_000
CLUSTER_SIZE = 10
PAIRWISE_N = 2_000
PARTITION_N = 2_000


def _best_time(fn, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _partitions(tids: list[int], offset: int) -> tuple[frozenset, ...]:
    """Disjoint clusters of CLUSTER_SIZE, rotated by ``offset`` so each
    repeat presents clusters the memo caches have not seen."""
    rotated = tids[offset:] + tids[:offset]
    return tuple(
        frozenset(rotated[i:i + CLUSTER_SIZE])
        for i in range(0, len(rotated) - CLUSTER_SIZE + 1, CLUSTER_SIZE)
    )


def test_kernel_speedups():
    relation = make_census(seed=0, n_rows=N_ROWS)
    tids = list(relation.tids)
    position = relation.schema.position
    # Multi-attribute X[t] mixing QI and sensitive attributes — the general
    # constraint shape of Definition 2.2, and the one preserved_count is
    # scored against inside the coloring search.  Target the modal value
    # combination so Iσ is large enough for stable timings.
    attrs = ("RACE", "SEX", "INCOME")
    values = Counter(
        tuple(row[position(a)] for a in attrs) for _, row in relation
    ).most_common(1)[0][0]
    sigma = DiversityConstraint(attrs, values, 1, N_ROWS)

    t_build = _best_time(lambda: RelationIndex(relation), repeats=3)
    index = RelationIndex(relation)
    qi_rows = qi_rows_of(relation)

    results = [
        {
            "op": "index_build",
            "n": N_ROWS,
            "reference_s": None,
            "vectorized_s": round(t_build, 6),
            "speedup": None,
        }
    ]

    def record(op: str, n: int, reference_s: float, vectorized_s: float):
        results.append(
            {
                "op": op,
                "n": n,
                "reference_s": round(reference_s, 6),
                "vectorized_s": round(vectorized_s, 6),
                "speedup": round(reference_s / vectorized_s, 2),
            }
        )

    # -- preserved_count over a full disjoint clustering ---------------------
    # Clusters are drawn from Iσ, matching the shape the coloring search
    # scores: candidate clusters are built from σ's target tuples, so they
    # are uniform on the target attributes and the count has to examine
    # every row rather than bail on the first mismatched QI value.
    pool = sorted(sigma.target_tids(relation))
    ref_parts = iter([_partitions(pool, i) for i in range(15)])
    vec_parts = iter([_partitions(pool, 50 + i) for i in range(15)])
    ref_s = _best_time(
        lambda: preserved_count_reference(relation, next(ref_parts), sigma),
        repeats=15,
    )
    vec_s = _best_time(
        lambda: index.preserved_count_many(next(vec_parts), sigma),
        repeats=15,
    )
    record("preserved_count", N_ROWS, ref_s, vec_s)

    # -- pairwise QI Hamming matrix ------------------------------------------
    sub = tids[:PAIRWISE_N]

    def pairwise_reference():
        rows = [qi_rows[t] for t in sub]
        return [
            [sum(1 for x, y in zip(a, b) if x != y) for b in rows] for a in rows
        ]

    ref_s = _best_time(pairwise_reference, repeats=1)
    vec_s = _best_time(lambda: index.pairwise_qi_hamming(sub), repeats=3)
    record("pairwise_qi_hamming", PAIRWISE_N, ref_s, vec_s)

    # -- single-seed Hamming scan (candidate seeding) ------------------------
    seed = tids[0]
    ref_s = _best_time(
        lambda: [qi_distance_reference(relation, seed, t) for t in tids]
    )
    vec_s = _best_time(lambda: index.hamming_from(seed, tids))
    record("hamming_from", N_ROWS, ref_s, vec_s)

    # -- suppression-cost scoring --------------------------------------------
    ref_parts = iter([_partitions(tids, i) for i in range(5)])
    vec_parts = iter([_partitions(tids, 70 + i) for i in range(5)])
    ref_s = _best_time(
        lambda: sum(
            cluster_suppression_cost_reference(relation, c)
            for c in next(ref_parts)
        )
    )
    vec_s = _best_time(lambda: index.clustering_cost(next(vec_parts)))
    record("suppression_cost", N_ROWS, ref_s, vec_s)

    # -- greedy k-partition ---------------------------------------------------
    items = tuple(tids[:PARTITION_N])
    ref_s = _best_time(
        lambda: greedy_k_partition_reference(items, CLUSTER_SIZE, qi_rows),
        repeats=3,
    )
    vec_s = _best_time(
        lambda: index.greedy_k_partition(items, CLUSTER_SIZE), repeats=3
    )
    record("greedy_k_partition", PARTITION_N, ref_s, vec_s)

    write_bench_artifact(
        "kernels",
        {"results": results},
        config={"n_rows": N_ROWS, "cluster_size": CLUSTER_SIZE},
        metrics={
            f"{r['op']}_s": r["vectorized_s"] for r in results
        },
    )
    by_op = {r["op"]: r for r in results}
    for line in results:
        print(line)

    # Acceptance: ≥ 5× on the two headline kernels at n ≥ 2000.
    assert by_op["preserved_count"]["speedup"] >= 5.0
    assert by_op["pairwise_qi_hamming"]["speedup"] >= 5.0


def test_equivalence_at_bench_scale():
    """The index and the oracle agree on the bench-sized relation too (the
    property tests cover small random relations; this pins the large
    shapes)."""
    relation = make_census(seed=1, n_rows=500)
    tids = list(relation.tids)
    index = RelationIndex(relation)
    qi_rows = qi_rows_of(relation)
    sigma = DiversityConstraint(
        "RACE",
        relation.row(tids[0])[relation.schema.position("RACE")],
        1,
        500,
    )
    clusters = _partitions(tids, 7)
    assert sum(
        index.preserved_count(c, sigma) for c in clusters
    ) == preserved_count_reference(relation, clusters, sigma)
    assert index.greedy_k_partition(
        tuple(tids), CLUSTER_SIZE
    ) == greedy_k_partition_reference(tuple(tids), CLUSTER_SIZE, qi_rows)
    rng_rows = np.random.default_rng(0).choice(tids, size=64, replace=False)
    sample = [int(t) for t in rng_rows]
    matrix = index.pairwise_qi_hamming(sample)
    for i, a in enumerate(sample):
        for j, b in enumerate(sample):
            assert matrix[i, j] == qi_distance_reference(relation, a, b)

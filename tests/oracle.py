"""Test-only oracle: the pure-Python reference implementations.

Production runs one path per layer: the columnar kernels of
:class:`repro.core.index.RelationIndex`, the rank-space enumeration engine
(:mod:`repro.core.enumeration`) and the columnar search-state engine
(:class:`repro.core.searchstate.SearchState`).  This module keeps the
straightforward per-tuple code those paths replaced, so the hypothesis
suites can pin every fast path byte-identical to it:

* **kernels** — :func:`preserved_count_reference`,
  :func:`qi_distance_reference`, :func:`cluster_suppression_cost_reference`
  and the shared :func:`qi_hamming_rows`;
* **enumeration** — :func:`enumerate_generic` (``itertools`` loops, one
  kernel call per seed ordering, partition and score), plus its
  ``index=`` variant that scores through per-call index kernels, the
  pre-engine path the enumeration benchmark measures;
* **search bookkeeping** — :class:`OracleSearchState`, a dict-state engine
  with :class:`~repro.core.searchstate.SearchState`'s method surface;
* **approximation tier** — :class:`OracleApproxSolver`, which orders and
  partitions residual pools and scores contributions without the index.

Suites compare against these directly; whole runs get the oracle injected
with :func:`injected` (pytest ``monkeypatch``), which swaps the
search-state engine, the enumeration body and the approximation solver.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from typing import Optional

import numpy as np
import pytest

from repro.core import approx, clusterings, coloring
from repro.core.approx import ApproxSolver
from repro.core.coloring import clusters_consistent, merged_clusters
from repro.core.constraints import DiversityConstraint
from repro.core.enumeration import (
    EXHAUSTIVE_COMBINATION_LIMIT,
    PARTITIONS_PER_SUBSET,
    SMALL_SUBSET_LIMIT,
    _clustering_key,
    _partitions_min_block,
)
from repro.core.graph import ConstraintGraph
from repro.core.index import RelationIndex
from repro.core.suppress import normalize_clustering
from repro.data.relation import Relation

Clustering = tuple  # tuple[frozenset, ...]


# -- kernels -------------------------------------------------------------------


def qi_hamming_rows(row_a: Sequence, row_b: Sequence) -> int:
    """Hamming distance between two pre-projected QI row tuples.

    The one shared kernel behind every pure-Python similarity loop below
    (partitioning, subset seeding, dynamic candidates).
    """
    return sum(1 for x, y in zip(row_a, row_b) if x != y)


def qi_rows_of(relation: Relation, tids=None) -> dict[int, tuple]:
    """tid → projected QI row tuple, for ``tids`` (default: every tuple)."""
    schema = relation.schema
    positions = [schema.position(a) for a in schema.qi_names]
    if tids is None:
        tids = relation.tids
    return {tid: tuple(relation.row(tid)[p] for p in positions) for tid in tids}


def qi_distance_reference(relation: Relation, tid_a: int, tid_b: int) -> int:
    """Pure-Python :func:`repro.core.clusterings.qi_distance`."""
    schema = relation.schema
    row_a, row_b = relation.row(tid_a), relation.row(tid_b)
    positions = [schema.position(a) for a in schema.qi_names]
    return qi_hamming_rows(
        tuple(row_a[p] for p in positions), tuple(row_b[p] for p in positions)
    )


def cluster_suppression_cost_reference(relation: Relation, cluster: frozenset) -> int:
    """Pure-Python :func:`repro.core.clusterings.cluster_suppression_cost`."""
    schema = relation.schema
    positions = [schema.position(a) for a in schema.qi_names]
    rows = [relation.row(tid) for tid in cluster]
    varying = sum(1 for p in positions if len({r[p] for r in rows}) > 1)
    return varying * len(rows)


def preserved_count_reference(
    relation: Relation, clusters: Sequence[frozenset], sigma: DiversityConstraint
) -> int:
    """Pure-Python :func:`repro.core.clusterings.preserved_count`."""
    schema = relation.schema
    qi = set(schema.qi_names)
    parts = [
        (schema.position(a), a in qi, v) for a, v in zip(sigma.attrs, sigma.values)
    ]
    total = 0
    for cluster in clusters:
        rows = [relation.row(tid) for tid in cluster]
        qi_ok = True
        for pos, is_qi, value in parts:
            if is_qi:
                values = {r[pos] for r in rows}
                if len(values) != 1 or value not in values:
                    qi_ok = False
                    break
        if not qi_ok:
            continue
        total += sum(
            1
            for r in rows
            if all(is_qi or r[pos] == value for pos, is_qi, value in parts)
        )
    return total


def cluster_contributions_reference(
    relation: Relation, graph: ConstraintGraph, cluster: frozenset
) -> tuple[tuple[int, int], ...]:
    """(node index, surviving-count delta) pairs for one cluster.

    Constraints over only non-QI attributes are excluded: suppression
    cannot change their counts.  Zero deltas are dropped.
    """
    qi = set(relation.schema.qi_names)
    contribs = []
    for node in graph:
        if not any(a in qi for a in node.constraint.attrs):
            continue
        delta = preserved_count_reference(relation, (cluster,), node.constraint)
        if delta:
            contribs.append((node.index, delta))
    return tuple(contribs)


def greedy_k_partition_reference(
    items: Sequence[int], k: int, qi_rows: dict[int, tuple]
) -> tuple[frozenset, ...]:
    """Pure-Python :meth:`RelationIndex.greedy_k_partition`."""
    remaining = list(items)
    blocks: list[frozenset] = []
    while len(remaining) >= 2 * k:
        seed_row = qi_rows[remaining[0]]
        remaining.sort(key=lambda t: (qi_hamming_rows(seed_row, qi_rows[t]), t))
        blocks.append(frozenset(remaining[:k]))
        remaining = remaining[k:]
    blocks.append(frozenset(remaining))
    return tuple(blocks)


def rank_by_hamming_reference(
    seed: int, pool: Sequence[int], qi_rows: dict[int, tuple]
) -> list[int]:
    """Pure-Python :meth:`RelationIndex.rank_by_hamming`."""
    seed_row = qi_rows[seed]
    return sorted(pool, key=lambda t: (qi_hamming_rows(seed_row, qi_rows[t]), t))


def nearest_by_hamming(
    seed: int,
    candidates: list[int],
    qi_rows: Optional[dict[int, tuple]],
    index: Optional[RelationIndex] = None,
) -> list[int]:
    """``candidates`` ordered by QI Hamming distance to ``seed``.

    Ties keep ascending-tid order (``candidates`` arrive sorted), so the
    index lexsort and the stable pure-Python sort agree exactly.
    """
    if index is not None:
        arr = np.fromiter(candidates, dtype=np.int64, count=len(candidates))
        order = np.lexsort((arr, index.hamming_from(seed, candidates)))
        return arr[order].tolist()
    seed_row = qi_rows[seed]
    return sorted(candidates, key=lambda t: qi_hamming_rows(seed_row, qi_rows[t]))


# -- enumeration ---------------------------------------------------------------


def similarity_seeded_subsets(
    qi_rows: Optional[dict[int, tuple]],
    pool: list[int],
    size: int,
    rng: np.random.Generator,
    cap: int,
    index: Optional[RelationIndex] = None,
) -> list[tuple[int, ...]]:
    """Sampled subsets of ``pool``: greedy nearest-neighbour seeds + random.

    Each pool tuple seeds one subset grown by repeatedly adding the closest
    (by QI Hamming distance) remaining tuple; random subsets fill the
    remainder.  ``rng.choice`` yields NumPy integer scalars; both sampled
    paths coerce to built-in ``int`` at the boundary so sampled subsets
    carry the same tid types (and dedup keys) as the exhaustive path.
    """
    subsets: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    seeds = pool if len(pool) <= cap else [
        int(t) for t in rng.choice(pool, size=cap, replace=False)
    ]

    for seed in seeds:
        candidates = [t for t in pool if t != seed]
        candidates = nearest_by_hamming(seed, candidates, qi_rows, index)
        chosen = [seed] + candidates[: size - 1]
        key = tuple(sorted(chosen))
        if len(key) == size and key not in seen:
            seen.add(key)
            subsets.append(key)
        if len(subsets) >= cap:
            return subsets
    attempts = 0
    while len(subsets) < cap and attempts < 4 * cap:
        attempts += 1
        pick = tuple(
            int(t) for t in sorted(rng.choice(pool, size=size, replace=False))
        )
        if pick not in seen:
            seen.add(pick)
            subsets.append(pick)
    return subsets


def enumerate_generic(
    relation: Relation,
    pool: list[int],
    k: int,
    lo: int,
    hi: int,
    max_candidates: int,
    caps: dict[int, int],
    rng: np.random.Generator,
    already: int = 0,
    index: Optional[RelationIndex] = None,
) -> tuple[list[tuple[frozenset, ...]], int, int]:
    """Reference enumeration body, with
    :func:`repro.core.enumeration.enumerate_pool`'s return shape.

    Generates subsets and partitions one at a time, then full-sorts,
    dedups and caps.  Returns ``(clusterings, subsets_generated,
    dominated_pruned)``; ``already`` counts caller-seeded candidates toward
    the cap.  Pass ``index`` to score and order through per-call
    :class:`RelationIndex` kernels — the pre-engine path.
    """
    qi_rows = qi_rows_of(relation, pool) if index is None else None

    def cost_of(clustering: tuple[frozenset, ...]) -> int:
        if index is not None:
            return index.clustering_cost(clustering)
        total = 0
        for cluster in clustering:
            rows = [qi_rows[tid] for tid in cluster]
            varying = sum(1 for col in zip(*rows) if len(set(col)) > 1)
            total += varying * len(rows)
        return total

    def partition(subset: tuple[int, ...]) -> tuple[frozenset, ...]:
        if index is not None:
            return index.greedy_k_partition(subset, k)
        return greedy_k_partition_reference(subset, k, qi_rows)

    scored: list[tuple[int, int, tuple[frozenset, ...]]] = []
    generated = 0
    budget = max_candidates * 3  # oversample, then keep the cheapest
    for size in range(lo, hi + 1):
        if len(scored) >= budget:
            break
        if math.comb(len(pool), size) <= EXHAUSTIVE_COMBINATION_LIMIT:
            subsets = list(itertools.combinations(pool, size))
        else:
            subsets = similarity_seeded_subsets(
                qi_rows, pool, size, rng, caps[size], index=index
            )
        generated += len(subsets)
        for subset in subsets:
            if len(subset) <= SMALL_SUBSET_LIMIT:
                partitions = _partitions_min_block(subset, k, PARTITIONS_PER_SUBSET)
            else:
                partitions = [partition(subset)]
            for part in partitions:
                clustering = normalize_clustering(part)
                scored.append((cost_of(clustering), size, clustering))
                if len(scored) >= budget:
                    break
            if len(scored) >= budget:
                break

    scored.sort(key=lambda item: (item[0], item[1], _clustering_key(item[2])))
    seen: set[tuple] = set()
    body: list[tuple[frozenset, ...]] = []
    total = already
    for cost, size, clustering in scored:
        key = _clustering_key(clustering)
        if key in seen:
            continue
        seen.add(key)
        body.append(clustering)
        total += 1
        if total >= max_candidates:
            break
    return body, generated, len(scored) - len(body)


def enumerate_pool_reference(
    index: RelationIndex,
    pool: list[int],
    k: int,
    lo: int,
    hi: int,
    max_candidates: int,
    caps: dict[int, int],
    rng: np.random.Generator,
    already: int = 0,
) -> tuple[list[tuple[frozenset, ...]], int, int]:
    """:func:`enumerate_generic` in ``enumerate_pool``'s call shape, pure
    Python (the index only supplies the relation)."""
    return enumerate_generic(
        index.relation, pool, k, lo, hi, max_candidates, caps, rng, already=already
    )


# -- search bookkeeping --------------------------------------------------------


class OracleSearchState:
    """Dict-state twin of :class:`repro.core.searchstate.SearchState`.

    Per-cluster refcounts, a covered-tid map and per-constraint running
    counts as plain dicts; each cluster's contributions are computed on
    first probe with :func:`preserved_count_reference`, and dynamic
    candidates are ordered and partitioned over projected QI row tuples.
    """

    def __init__(self, index: RelationIndex, graph: ConstraintGraph, k: int):
        self.relation = index.relation
        self.graph = graph
        self.k = k
        self.qi = set(self.relation.schema.qi_names)
        self.qi_rows = qi_rows_of(
            self.relation, {tid for node in graph for tid in node.target_tids}
        )
        self._contrib: dict[frozenset, tuple[tuple[int, int], ...]] = {}
        self._cluster_refs: dict[frozenset, int] = {}
        self._covered: dict[int, int] = {}
        self._counts: dict[int, int] = {n.index: 0 for n in graph}
        self._uppers: dict[int, int] = {n.index: n.constraint.upper for n in graph}
        self.delta_applies = 0
        self.delta_reverts = 0

    @property
    def batch_scored(self) -> int:
        return len(self._contrib)

    def register(self, clusters: Sequence[frozenset]) -> None:
        for cluster in clusters:
            self.contributions(cluster)

    def contributions(self, cluster: frozenset) -> tuple[tuple[int, int], ...]:
        cached = self._contrib.get(cluster)
        if cached is None:
            cached = cluster_contributions_reference(self.relation, self.graph, cluster)
            self._contrib[cluster] = cached
        return cached

    def consistent(self, candidate: Clustering) -> bool:
        deltas: dict[int, int] = {}
        for cluster in candidate:
            if cluster in self._cluster_refs:
                continue  # identical cluster already chosen: nothing new
            for tid in cluster:
                if tid in self._covered:
                    return False  # partial overlap with a chosen cluster
            for j, delta in self.contributions(cluster):
                deltas[j] = deltas.get(j, 0) + delta
        for j, delta in deltas.items():
            if self._counts[j] + delta > self._uppers[j]:
                return False
        return True

    def consistent_count(self, candidates: Sequence[Clustering]) -> int:
        return sum(1 for c in candidates if self.consistent(c))

    def apply(self, candidate: Clustering) -> None:
        for cluster in candidate:
            refs = self._cluster_refs.get(cluster, 0)
            self._cluster_refs[cluster] = refs + 1
            if refs == 0:
                for tid in cluster:
                    self._covered[tid] = self._covered.get(tid, 0) + 1
                for j, delta in self.contributions(cluster):
                    self._counts[j] += delta
                self.delta_applies += 1

    def revert(self, candidate: Clustering) -> None:
        for cluster in candidate:
            refs = self._cluster_refs[cluster] - 1
            if refs == 0:
                del self._cluster_refs[cluster]
                for tid in cluster:
                    if self._covered[tid] == 1:
                        del self._covered[tid]
                    else:
                        self._covered[tid] -= 1
                for j, delta in self.contributions(cluster):
                    self._counts[j] -= delta
                self.delta_reverts += 1
            else:
                self._cluster_refs[cluster] = refs

    def dynamic_candidates(self, index: int) -> list[Clustering]:
        node = self.graph.node(index)
        sigma = node.constraint
        if not any(a in self.qi for a in sigma.attrs):
            return []  # globally determined; the static [()] suffices
        have = self._counts[index]
        need = max(0, sigma.lower - have)
        if need == 0:
            return [()]
        pool = sorted(t for t in node.target_tids if t not in self._covered)
        size = max(self.k, need)
        if size > len(pool) or have + size > sigma.upper:
            return []
        out: list[Clustering] = []
        seeds = pool[:: max(1, len(pool) // 3)][:3]
        seen: set[tuple] = set()
        for seed in seeds:
            ordered = rank_by_hamming_reference(seed, pool, self.qi_rows)
            subset = tuple(ordered[:size])
            clustering = normalize_clustering(
                greedy_k_partition_reference(subset, self.k, self.qi_rows)
            )
            key = tuple(tuple(sorted(c)) for c in clustering)
            if key not in seen:
                seen.add(key)
                out.append(clustering)
        return out

    def counts_view(self) -> dict[int, int]:
        return dict(self._counts)

    def uppers_view(self) -> dict[int, int]:
        return dict(self._uppers)

    def cluster_refs_view(self) -> dict[frozenset, int]:
        return dict(self._cluster_refs)

    def covered_view(self) -> dict[int, int]:
        return dict(self._covered)


def is_consistent(
    search: coloring.ColoringSearch,
    candidate: Clustering,
    assignment: dict[int, Clustering],
) -> bool:
    """Non-incremental consistency check of ``candidate`` against an
    arbitrary ``assignment`` of ``search``'s graph: re-suppress the union
    and recount every QI-touching constraint."""
    if not clusters_consistent(candidate, merged_clusters(assignment)):
        return False
    relation = search.relation
    qi = set(relation.schema.qi_names)
    union = merged_clusters(assignment, candidate)
    for node in search.graph:
        if not any(a in qi for a in node.constraint.attrs):
            continue  # count fixed globally; handled by the precheck
        count = preserved_count_reference(relation, union, node.constraint)
        if count > node.constraint.upper:
            return False
    return True


# -- approximation tier --------------------------------------------------------


class OracleApproxSolver(ApproxSolver):
    """:class:`ApproxSolver` with index-free contributions, orderings and
    partitions (projected QI row tuples and reference preserved counts)."""

    def __init__(self, relation: Relation, constraints, k: int, **kwargs):
        super().__init__(relation, constraints, k, **kwargs)
        self._qi_rows = qi_rows_of(
            relation, {tid for node in self.graph for tid in node.target_tids}
        )

    def _contributions(self, cluster: frozenset) -> tuple[tuple[int, int], ...]:
        cached = self._contrib_cache.get(cluster)
        if cached is None:
            cached = cluster_contributions_reference(self.relation, self.graph, cluster)
            self._contrib_cache[cluster] = cached
        return cached

    def _candidate_from_pool(
        self, index: int, sigma, pool: list[int], have: int, need: int
    ) -> Optional[Clustering]:
        size = max(self.k, need)
        if size > len(pool) or have + size > sigma.upper:
            return None
        per_node = approx._SEEDS_PER_NODE
        seeds = pool[:: max(1, len(pool) // per_node)][:per_node]
        seen: set[tuple] = set()
        for seed in seeds:
            ordered = rank_by_hamming_reference(seed, pool, self._qi_rows)
            subset = tuple(ordered[:size])
            clustering = normalize_clustering(
                greedy_k_partition_reference(subset, self.k, self._qi_rows)
            )
            key = tuple(tuple(sorted(c)) for c in clustering)
            if key in seen:
                continue
            seen.add(key)
            self.stats.candidates_tried += 1
            if self._consistent(clustering):
                return clustering
            self.stats.prunes += 1
        return None


@contextmanager
def injected() -> Iterator[None]:
    """Run every search, enumeration and approximation pass inside the
    block on the oracle: pytest ``monkeypatch`` swaps the search-state
    engine, the enumeration body and the approximation solver, and puts
    them back on exit."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coloring, "SearchState", OracleSearchState)
        mp.setattr(clusterings, "enumerate_pool", enumerate_pool_reference)
        mp.setattr(approx, "ApproxSolver", OracleApproxSolver)
        yield

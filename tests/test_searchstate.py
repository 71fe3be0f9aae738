"""Byte-identity conformance for the columnar search-state engine.

The engine (:mod:`repro.core.searchstate`) replaces the exact coloring
search's per-candidate dict bookkeeping with delta-updated counter arrays
and a content-addressed contribution memo — but it is an *implementation*
of the reference semantics, not a variant of them.  These tests pin the
contract with hypothesis: for every (R, Σ, k, strategy, budget) drawn,
the columnar engine and the dict-state oracle (``tests/oracle.py``,
injected with pytest ``monkeypatch``) must agree to the byte on

* the solve outcome — success flag, assignment, clustering, satisfied,
* the full ``SearchStats`` dict (node expansions, candidates tried,
  consistency checks, backtracks),
* the RNG stream position after the solve (strategy tie-breaks consume
  the same draws in the same order), and
* the ``SearchBudgetExceeded.partial`` payload on budget exhaustion —
  the live-assignment snapshot and the partial stats.

Plus direct unit coverage of the engine internals the solve-level sweep
cannot see: live counter views, memoized contribution records against
the oracle's per-node preserved counts, memo content-addressing across
distinct relation objects, warm/cold memo identity, LRU eviction, and
lazy registration (only the clusters the search probes are ever scored).
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coloring import (
    ColoringSearch,
    SearchBudgetExceeded,
    diverse_clustering,
)
from repro.core.constraints import ConstraintSet, DiversityConstraint
from repro.core.diva import run_diva
from repro.core.graph import build_graph
from repro.core.index import RelationIndex, get_index
from repro.core.searchstate import (
    ContributionMemo,
    ContributionResolver,
    get_contribution_memo,
)
from repro.data.datasets import make_census
from repro.data.relation import Relation, Schema
from repro.workloads.constraint_gen import proportion_constraints
from tests import oracle

pytestmark = pytest.mark.solver

SCHEMA = Schema.from_names(qi=["A", "B", "C"], sensitive=["S"])

values_a = st.sampled_from(["a0", "a1", "a2"])
values_b = st.sampled_from(["b0", "b1"])
values_c = st.sampled_from(["c0", "c1", "c2", "c3"])
values_s = st.sampled_from(["s0", "s1", "s2"])

rows = st.tuples(values_a, values_b, values_c, values_s)


@st.composite
def relations(draw, min_rows=4, max_rows=20):
    data = draw(st.lists(rows, min_size=min_rows, max_size=max_rows))
    return Relation(SCHEMA, data)


@st.composite
def constraints(draw):
    attr = draw(st.sampled_from(["A", "B", "C", "S"]))
    domain = {"A": values_a, "B": values_b, "C": values_c, "S": values_s}[attr]
    value = draw(domain)
    lower = draw(st.integers(0, 4))
    upper = draw(st.integers(lower, 12))
    return DiversityConstraint(attr, value, lower, upper)


@st.composite
def constraint_sets(draw, min_size=1, max_size=3):
    sigma_list = draw(st.lists(constraints(), min_size=min_size, max_size=max_size))
    unique = []
    for sigma in sigma_list:
        if sigma not in unique:
            unique.append(sigma)
    return ConstraintSet(unique)


strategies_axis = st.sampled_from(["maxfanout", "minchoice", "basic"])


def _solve_outcome(relation, constraints, k, strategy, max_steps):
    """One full solve reduced to a comparable value: every observable byte.

    RNG state is read *after* the solve so two runs agree only when the
    strategies consumed identical draws in identical order.
    """
    rng = np.random.default_rng(7)
    try:
        result = diverse_clustering(
            relation,
            constraints,
            k,
            strategy=strategy,
            max_steps=max_steps,
            rng=rng,
        )
    except SearchBudgetExceeded as exc:
        return {
            "outcome": "budget",
            "assignment": exc.partial["assignment"],
            "stats": exc.partial["stats"].as_dict(),
            "rng": rng.bit_generator.state,
        }
    return {
        "outcome": "done",
        "success": result.success,
        "assignment": result.assignment,
        "clustering": result.clustering,
        "satisfied": result.satisfied,
        "stats": result.stats.as_dict(),
        "rng": rng.bit_generator.state,
    }


class TestBackendByteIdentity:
    """The columnar engine and the dict-state oracle agree on every
    observable byte."""

    @given(
        relations(),
        constraint_sets(),
        st.sampled_from([2, 3]),
        strategies_axis,
    )
    @settings(max_examples=50, deadline=None)
    def test_unbudgeted_solves_identical(self, relation, sigma_set, k, strategy):
        with oracle.injected():
            ref = _solve_outcome(relation, sigma_set, k, strategy, None)
        vec = _solve_outcome(relation, sigma_set, k, strategy, None)
        assert vec == ref

    @given(
        relations(min_rows=6, max_rows=20),
        constraint_sets(min_size=2, max_size=3),
        st.sampled_from([1, 3, 10]),
    )
    @settings(max_examples=40, deadline=None)
    def test_budget_exhaustion_partials_identical(
        self, relation, sigma_set, max_steps
    ):
        """The ``SearchBudgetExceeded.partial`` payload — live-assignment
        snapshot and partial stats — equals the oracle's, and so does the
        *decision* to raise at all."""
        with oracle.injected():
            ref = _solve_outcome(relation, sigma_set, 2, "maxfanout", max_steps)
        vec = _solve_outcome(relation, sigma_set, 2, "maxfanout", max_steps)
        assert vec == ref

    @given(relations(min_rows=6, max_rows=16), constraint_sets())
    @settings(max_examples=30, deadline=None)
    def test_consistent_count_matches_reference(self, relation, sigma_set):
        """The engine's window check over live counter arrays returns the
        same per-node counts the reference derives per call (the MinChoice
        strategy's steering signal), and each candidate's verdict equals
        the oracle's non-incremental re-suppress-and-recount check."""
        counts = {}
        for use_oracle in (True, False):
            with oracle.injected() if use_oracle else nullcontext():
                search = ColoringSearch(relation, sigma_set, 2)
                counts[use_oracle] = [
                    search.consistent_count(i)
                    for i in range(len(search.graph))
                ]
        assert counts[False] == counts[True]
        for i in range(len(search.graph)):
            for candidate in search.candidates(i):
                assert search._consistent(candidate) == oracle.is_consistent(
                    search, candidate, {}
                )

    @given(relations(min_rows=4, max_rows=16), constraint_sets(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_resolver_records_match_reference(self, relation, sigma_set, data):
        """Memoized contribution records — what the exact engine and the
        approximation tier both read — equal the oracle's per-node
        ``preserved_count_reference`` contributions, at any memo
        temperature (records resolve twice: miss, then hit)."""
        graph = build_graph(relation, sigma_set)
        tids = sorted(relation.tids)
        clusters = data.draw(
            st.lists(
                st.sets(st.sampled_from(tids), min_size=1).map(frozenset),
                max_size=6,
            ),
            label="clusters",
        )
        expected = [
            oracle.cluster_contributions_reference(relation, graph, c)
            for c in clusters
        ]
        resolver = ContributionResolver(get_index(relation), graph)
        assert resolver.records(clusters) == expected
        assert resolver.records(clusters) == expected


class TestLiveCounterViews:
    """The engine's array state, read back as dicts, mirrors the oracle's
    dict bookkeeping through apply/revert cycles."""

    def _pair(self, relation, constraints, k=2):
        with oracle.injected():
            ref = ColoringSearch(relation, constraints, k)
        vec = ColoringSearch(relation, constraints, k)
        assert vec._candidates == ref._candidates
        return ref._engine, vec._engine, ref._candidates

    def _assert_state_equal(self, ref, vec):
        assert vec.counts_view() == ref.counts_view()
        assert vec.uppers_view() == ref.uppers_view()
        assert vec.cluster_refs_view() == ref.cluster_refs_view()
        assert vec.covered_view() == ref.covered_view()

    def _walk(self, ref, vec, candidates, seed, steps=40):
        """Seeded apply/revert walk over every node's candidates, comparing
        the views after each step.  Reverts pick any live candidate (not
        only the latest) and applies re-pick live ones, so clusters reach
        refcount > 1.  Returns which of those two moves the walk made."""
        rng = np.random.default_rng(seed)
        pool = [c for node in sorted(candidates) for c in candidates[node] if c]
        live: list = []
        moves = {"out_of_order_revert": False, "reapply": False}
        for _ in range(steps):
            if live and rng.random() < 0.4:
                at = int(rng.integers(len(live)))
                moves["out_of_order_revert"] |= at != len(live) - 1
                candidate = live.pop(at)
                ref.revert(candidate)
                vec.revert(candidate)
            else:
                if live and rng.random() < 0.3:
                    candidate = live[int(rng.integers(len(live)))]
                    moves["reapply"] = True
                else:
                    candidate = pool[int(rng.integers(len(pool)))]
                live.append(candidate)
                ref.apply(candidate)
                vec.apply(candidate)
            self._assert_state_equal(ref, vec)
        while live:
            candidate = live.pop()
            ref.revert(candidate)
            vec.revert(candidate)
            self._assert_state_equal(ref, vec)
        assert not vec.covered_view() and not vec.cluster_refs_view()
        assert not any(vec.counts_view().values())
        return moves

    def test_views_track_apply_revert(self, paper_relation, paper_constraints):
        ref, vec, candidates = self._pair(paper_relation, paper_constraints)
        self._assert_state_equal(ref, vec)
        candidate = candidates[0][0]
        ref.apply(candidate)
        vec.apply(candidate)
        self._assert_state_equal(ref, vec)
        assert vec.covered_view()  # the apply actually covered tuples
        ref.revert(candidate)
        vec.revert(candidate)
        self._assert_state_equal(ref, vec)
        assert not vec.covered_view() and not vec.cluster_refs_view()

        seen = {"out_of_order_revert": False, "reapply": False}
        for seed in range(6):
            relation = make_census(seed=seed, n_rows=300)
            sigma = proportion_constraints(relation, 5, k=5, seed=seed)
            ref, vec, candidates = self._pair(relation, sigma, k=5)
            moves = self._walk(ref, vec, candidates, seed)
            seen = {move: seen[move] or moves[move] for move in seen}
        assert all(seen.values())

    def test_contributions_match_reference(
        self, paper_relation, paper_constraints
    ):
        ref, vec, candidates = self._pair(paper_relation, paper_constraints)
        for node_candidates in candidates.values():
            for candidate in node_candidates:
                for cluster in candidate:
                    assert vec.contributions(cluster) == ref.contributions(
                        cluster
                    )


class TestContributionMemo:
    """Content addressing, warm/cold identity, and LRU mechanics."""

    def test_warm_memo_does_not_change_results(
        self, paper_relation, paper_constraints
    ):
        get_contribution_memo().clear()
        cold = _solve_outcome(
            paper_relation, paper_constraints, 2, "maxfanout", None
        )
        warm = _solve_outcome(
            paper_relation, paper_constraints, 2, "maxfanout", None
        )
        assert warm == cold

    def test_content_addressing_across_relation_objects(
        self, paper_relation, paper_constraints
    ):
        """A rebuilt Relation over the same rows (what every streaming
        publish does) re-reads the first relation's records: keys hash
        cluster *values*, not tids or object identity."""
        clone = Relation(
            paper_relation.schema,
            [row for _, row in paper_relation],
            tids=list(paper_relation.tids),
        )
        memo = get_contribution_memo()
        memo.clear()
        first = _solve_outcome(
            paper_relation, paper_constraints, 2, "maxfanout", None
        )
        before = dict(memo.stats())
        second = _solve_outcome(clone, paper_constraints, 2, "maxfanout", None)
        after = dict(memo.stats())
        assert second["stats"] == first["stats"]
        assert second["assignment"] == first["assignment"]
        # Every record the clone needed was already memoized by the first
        # solve — hits advanced, not a single fresh miss.
        assert after["search_memo_hits"] > before["search_memo_hits"]
        assert after["search_memo_misses"] == before["search_memo_misses"]

    def test_lru_evicts_oldest_and_clear_empties(self):
        memo = ContributionMemo(capacity=2)
        memo.store(("s", ("a",)), (1,))
        memo.store(("s", ("b",)), (2,))
        assert memo.lookup(("s", ("a",))) == (1,)  # refresh "a"
        memo.store(("s", ("c",)), (3,))  # evicts "b", the LRU entry
        assert len(memo) == 2
        assert memo.lookup(("s", ("b",))) is None
        assert memo.lookup(("s", ("a",))) == (1,)
        assert memo.lookup(("s", ("c",))) == (3,)
        hits_misses = memo.stats()
        assert hits_misses == {"search_memo_hits": 3, "search_memo_misses": 1}
        memo.clear()
        assert len(memo) == 0


def _register_all_static(search):
    """Score every distinct static candidate cluster up front — the eager
    registration the search used to do at construction — on the engine or
    on the oracle."""
    static = list(
        dict.fromkeys(
            cluster
            for pool in search._candidates.values()
            for clustering in pool
            for cluster in clustering
        )
    )
    search._engine.register(static)
    return static


@pytest.fixture(scope="module")
def census_case():
    """A mid-size relation whose static pools hold thousands of clusters."""
    relation = make_census(seed=3, n_rows=600)
    return relation, proportion_constraints(relation, 4, k=5, seed=3)


class TestLazyRegistration:
    """The search scores only the clusters it probes, and registering them
    lazily changes nothing observable."""

    def test_only_probed_clusters_are_scored(self, census_case):
        relation, sigma = census_case
        get_contribution_memo().clear()
        search = ColoringSearch(relation, sigma, 5)
        engine = search._engine
        assert engine.batch_scored == 0  # construction scores nothing
        probed: list = []
        consistent = engine.consistent
        dynamic = engine.dynamic_candidates

        def record_consistent(candidate):
            probed.append(candidate)
            return consistent(candidate)

        def record_dynamic(index):
            out = dynamic(index)
            probed.extend(out)
            return out

        engine.consistent = record_consistent
        engine.dynamic_candidates = record_dynamic
        assert search.run().success
        static = {
            cluster
            for pool in search._candidates.values()
            for clustering in pool
            for cluster in clustering
        }
        distinct_probed = {cluster for c in probed for cluster in c}
        assert engine.batch_scored == len(distinct_probed)
        assert 0 < engine.batch_scored * 10 < len(static)

    def test_minchoice_scores_each_pool_in_one_pass(
        self, census_case, monkeypatch
    ):
        """Counting a node's pool registers the whole pool first: one
        ``preserved_count_batch`` per QI node per pool, never one per
        candidate."""
        relation, sigma = census_case
        kernel = RelationIndex.preserved_count_batch
        calls = {"in_pool": 0}
        per_pool: list[tuple[int, int]] = []

        def counting_kernel(self, clusters, constraint):
            calls["in_pool"] += 1
            return kernel(self, clusters, constraint)

        monkeypatch.setattr(
            RelationIndex, "preserved_count_batch", counting_kernel
        )
        get_contribution_memo().clear()
        search = ColoringSearch(relation, sigma, 5, strategy="minchoice")
        engine = search._engine
        count = engine.consistent_count

        def record_count(candidates):
            calls["in_pool"] = 0
            out = count(candidates)
            per_pool.append((calls["in_pool"], len(candidates)))
            return out

        engine.consistent_count = record_count
        assert search.run().success
        n_qi = len(engine.resolver.qi_nodes)
        assert per_pool
        assert all(kernel_calls in (0, n_qi) for kernel_calls, _ in per_pool)
        # At least one pool was scored cold, in a single pass over many
        # candidates.
        assert any(
            kernel_calls == n_qi and size > 1 for kernel_calls, size in per_pool
        )

    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    @pytest.mark.parametrize("strategy", ["maxfanout", "minchoice", "basic"])
    def test_matches_eager_registration(
        self, census_case, backend, strategy, monkeypatch
    ):
        """Releases, ``SearchStats``, RNG streams and budget partials are
        those of a search that scored every static cluster up front — on
        the engine and on the injected oracle (``reference``)."""
        relation, sigma = census_case

        def outcomes():
            get_contribution_memo().clear()
            release = run_diva(relation, sigma, 5, strategy=strategy, seed=4)
            budget = _solve_outcome(relation, sigma, 5, strategy, 3)
            return (
                list(release.relation),
                release.stats.as_dict(),
                budget,
            )

        with oracle.injected() if backend == "reference" else nullcontext():
            lazy = outcomes()
            init = ColoringSearch.__init__

            def eager_init(self, *args, **kwargs):
                init(self, *args, **kwargs)
                _register_all_static(self)

            monkeypatch.setattr(ColoringSearch, "__init__", eager_init)
            eager = outcomes()
        assert lazy == eager
        assert lazy[2]["outcome"] == "budget"

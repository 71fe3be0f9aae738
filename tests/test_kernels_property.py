"""Property tests: the columnar kernels equal the pure-Python oracle.

The columnar kernel layer (``repro.core.index``) implements every hot
path — preserved counts, QI Hamming distances, suppression-cost scoring,
similarity orderings, greedy partitioning — as NumPy reductions.  These
tests pin the contract that makes that safe: on *any* relation, cluster
set and constraint, the kernels agree exactly with the per-tuple
reference code kept in ``tests/oracle.py``, including full end-to-end
candidate enumeration and coloring runs with the oracle injected.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.anonymize import make_anonymizer
from repro.anonymize.kmember import KMemberAnonymizer
from repro.core.clusterings import (
    clustering_suppression_cost,
    enumerate_clusterings,
    preserved_count,
)
from repro.core.coloring import SearchBudgetExceeded, diverse_clustering
from repro.core.constraints import ConstraintSet, DiversityConstraint
from repro.core.graph import build_graph
from repro.core.index import get_index
from repro.core.suppress import suppress
from repro.data.relation import Relation, Schema

import numpy as np

from tests import oracle
from tests.oracle import (
    cluster_suppression_cost_reference,
    preserved_count_reference,
    qi_distance_reference,
    qi_rows_of,
)

SCHEMA = Schema.from_names(qi=["A", "B", "C"], sensitive=["S"])

values_a = st.sampled_from(["a0", "a1", "a2"])
values_b = st.sampled_from(["b0", "b1"])
values_c = st.sampled_from(["c0", "c1", "c2", "c3"])
values_s = st.sampled_from(["s0", "s1", "s2"])

rows = st.tuples(values_a, values_b, values_c, values_s)


@st.composite
def relations(draw, min_rows=1, max_rows=24):
    data = draw(st.lists(rows, min_size=min_rows, max_size=max_rows))
    return Relation(SCHEMA, data)


@st.composite
def relations_with_clustering(draw, k=2):
    relation = draw(relations(min_rows=2 * k, max_rows=20))
    tids = list(relation.tids)
    n_clusters = draw(st.integers(0, len(tids) // k))
    index = draw(st.permutations(tids))
    clusters, cursor = [], 0
    for _ in range(n_clusters):
        size = draw(st.integers(k, max(k, min(len(tids) - cursor, 2 * k))))
        if cursor + size > len(tids):
            break
        clusters.append(frozenset(index[cursor:cursor + size]))
        cursor += size
    return relation, tuple(clusters)


@st.composite
def constraints(draw):
    attr = draw(st.sampled_from(["A", "B", "C", "S"]))
    domain = {"A": values_a, "B": values_b, "C": values_c, "S": values_s}[attr]
    value = draw(domain)
    lower = draw(st.integers(0, 4))
    upper = draw(st.integers(lower, 12))
    return DiversityConstraint(attr, value, lower, upper)


class TestPreservedCountEquivalence:
    @given(relations_with_clustering(), constraints())
    @settings(max_examples=80, deadline=None)
    def test_kernel_matches_reference(self, rc, sigma):
        relation, clustering = rc
        index = get_index(relation)
        vectorized = sum(index.preserved_count(c, sigma) for c in clustering)
        assert vectorized == preserved_count_reference(relation, clustering, sigma)

    @given(relations_with_clustering(), constraints())
    @settings(max_examples=40, deadline=None)
    def test_dispatcher_agrees_across_backends(self, rc, sigma):
        """The public dispatcher (batched ``preserved_count_many``) agrees
        with the oracle too."""
        relation, clustering = rc
        assert preserved_count(
            relation, clustering, sigma
        ) == preserved_count_reference(relation, clustering, sigma)

    @given(relations_with_clustering(), constraints())
    @settings(max_examples=40, deadline=None)
    def test_star_cells_handled_like_reference(self, rc, sigma):
        """The index factorizes STAR to its own code — suppressed relations
        count exactly as the oracle counts them."""
        relation, clustering = rc
        suppressed = suppress(relation, clustering)
        full = (frozenset(suppressed.tids),) if len(suppressed) else ()
        index = get_index(suppressed)
        vectorized = sum(index.preserved_count(c, sigma) for c in full)
        assert vectorized == preserved_count_reference(suppressed, full, sigma)


class TestHammingEquivalence:
    @given(relations(min_rows=2, max_rows=12))
    @settings(max_examples=60, deadline=None)
    def test_qi_hamming_all_pairs(self, relation):
        index = get_index(relation)
        tids = list(relation.tids)
        for a in tids:
            for b in tids:
                assert index.qi_hamming(a, b) == qi_distance_reference(
                    relation, a, b
                )

    @given(relations(min_rows=2, max_rows=12))
    @settings(max_examples=60, deadline=None)
    def test_pairwise_matrix(self, relation):
        index = get_index(relation)
        tids = list(relation.tids)
        matrix = index.pairwise_qi_hamming(tids)
        for i, a in enumerate(tids):
            for j, b in enumerate(tids):
                assert matrix[i, j] == qi_distance_reference(relation, a, b)

    @given(relations(min_rows=2, max_rows=16))
    @settings(max_examples=60, deadline=None)
    def test_hamming_from_and_ranking(self, relation):
        index = get_index(relation)
        tids = sorted(relation.tids)
        seed = tids[0]
        dists = index.hamming_from(seed, tids)
        assert [int(d) for d in dists] == [
            qi_distance_reference(relation, seed, t) for t in tids
        ]
        expected = sorted(
            tids, key=lambda t: (qi_distance_reference(relation, seed, t), t)
        )
        assert index.rank_by_hamming(seed, tids) == expected

    @given(relations(min_rows=3, max_rows=16))
    @settings(max_examples=60, deadline=None)
    def test_nearest_by_hamming_matches_reference(self, relation):
        index = get_index(relation)
        qi_rows = qi_rows_of(relation)
        tids = sorted(relation.tids)
        seed, candidates = tids[0], tids[1:]
        vec = oracle.nearest_by_hamming(seed, candidates, None, index)
        ref = oracle.nearest_by_hamming(seed, candidates, qi_rows)
        assert vec == ref
        assert index.rank_by_hamming(
            seed, tids
        ) == oracle.rank_by_hamming_reference(seed, tids, qi_rows)


class TestSuppressionCostEquivalence:
    @given(relations_with_clustering())
    @settings(max_examples=80, deadline=None)
    def test_cluster_cost(self, rc):
        relation, clustering = rc
        index = get_index(relation)
        for cluster in clustering:
            assert index.cluster_cost(cluster) == cluster_suppression_cost_reference(
                relation, cluster
            )

    @given(relations_with_clustering())
    @settings(max_examples=40, deadline=None)
    def test_clustering_cost_across_backends(self, rc):
        relation, clustering = rc
        assert clustering_suppression_cost(relation, clustering) == sum(
            cluster_suppression_cost_reference(relation, c) for c in clustering
        )


class TestPartitionEquivalence:
    @given(relations(min_rows=4, max_rows=20), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_greedy_k_partition(self, relation, k):
        index = get_index(relation)
        qi_rows = qi_rows_of(relation)
        items = tuple(sorted(relation.tids))
        vec = index.greedy_k_partition(items, k)
        ref = oracle.greedy_k_partition_reference(items, k, qi_rows)
        assert vec == ref
        assert all(len(block) >= min(k, len(items)) for block in vec)


class TestEndToEndEquivalence:
    @given(relations(min_rows=4, max_rows=16), constraints(), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_enumerate_clusterings(self, relation, sigma, k):
        vec = enumerate_clusterings(
            relation, sigma, k, max_candidates=8, rng=np.random.default_rng(7)
        )
        with oracle.injected():
            ref = enumerate_clusterings(
                relation, sigma, k, max_candidates=8, rng=np.random.default_rng(7)
            )
        assert vec == ref

    @staticmethod
    def _run_search(relation, sigma_set):
        try:
            return diverse_clustering(
                relation,
                sigma_set,
                k=2,
                max_steps=3_000,
                rng=np.random.default_rng(3),
            )
        except SearchBudgetExceeded as exc:
            return exc

    @given(
        relations(min_rows=6, max_rows=14),
        st.lists(constraints(), min_size=1, max_size=3),
    )
    @settings(max_examples=25, deadline=None)
    def test_diverse_clustering(self, relation, sigma_list):
        unique = []
        for sigma in sigma_list:
            if sigma not in unique:
                unique.append(sigma)
        sigma_set = ConstraintSet(unique)
        vec = self._run_search(relation, sigma_set)
        with oracle.injected():
            ref = self._run_search(relation, sigma_set)
        if isinstance(vec, SearchBudgetExceeded) or isinstance(
            ref, SearchBudgetExceeded
        ):
            # Hard instances may exhaust the step budget — but then the
            # engine and the oracle must exhaust it at exactly the same point.
            assert type(vec) is type(ref)
            assert (
                vec.partial["stats"].as_dict() == ref.partial["stats"].as_dict()
            )
        else:
            assert vec.success == ref.success
            assert vec.clustering == ref.clustering
            assert vec.stats.as_dict() == ref.stats.as_dict()

    @given(
        relations(min_rows=2, max_rows=16),
        st.lists(constraints(), min_size=1, max_size=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_graph_build(self, relation, sigma_list):
        """Iσ sets from the index's target masks equal a row scan
        (``sigma.target_tids``); edges and overlap labels equal the
        pairwise intersections of those sets."""
        unique = []
        for sigma in sigma_list:
            if sigma not in unique:
                unique.append(sigma)
        sigma_set = ConstraintSet(unique)
        graph = build_graph(relation, sigma_set)
        targets = [frozenset(sigma.target_tids(relation)) for sigma in unique]
        assert [n.target_tids for n in graph] == targets
        expected_edges = []
        for i in range(len(targets)):
            for j in range(i + 1, len(targets)):
                shared = targets[i] & targets[j]
                assert graph.overlap(i, j) == shared
                if shared:
                    expected_edges.append((i, j))
        assert graph.edges == expected_edges

class TestKMemberLeftovers:
    """Leftover assignment at cluster-boundary sizes (n % k ∈ {0, 1, k-1}).

    ``KMemberAnonymizer._assign_leftovers`` scores every leftover against
    all clusters in one broadcasted pass and updates only the chosen
    cluster's uniform mask incrementally; the reference here recomputes
    each cluster's mask from scratch per assignment.  The two must agree
    exactly — including ``argmin`` tie-breaking — on any matrix.
    """

    @staticmethod
    def _assign_naive(matrix, clusters_rows, leftovers):
        clusters = [list(r) for r in clusters_rows]
        for row in leftovers:
            costs = []
            for member_rows in clusters:
                profile = matrix[member_rows[0]]
                uniform = (matrix[member_rows] == profile).all(axis=0)
                diffs = (profile != matrix[row]) & uniform
                costs.append(int(diffs.sum()) * (len(member_rows) + 1))
            clusters[int(np.argmin(costs))].append(int(row))
        return clusters

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_incremental_mask_matches_recompute(self, data):
        k = data.draw(st.integers(2, 4), label="k")
        n_clusters = data.draw(st.integers(1, 4), label="n_clusters")
        residue = data.draw(st.sampled_from([0, 1, k - 1]), label="n mod k")
        n_cols = data.draw(st.integers(1, 5), label="n_cols")
        n = n_clusters * k + residue
        matrix = np.array(
            data.draw(
                st.lists(
                    st.lists(
                        st.integers(0, 2), min_size=n_cols, max_size=n_cols
                    ),
                    min_size=n,
                    max_size=n,
                ),
                label="matrix",
            ),
            dtype=np.int32,
        )
        clusters_rows = [
            list(range(i * k, (i + 1) * k)) for i in range(n_clusters)
        ]
        leftovers = np.arange(n_clusters * k, n)
        expected = self._assign_naive(matrix, clusters_rows, leftovers)
        actual = [list(r) for r in clusters_rows]
        KMemberAnonymizer._assign_leftovers(matrix, actual, leftovers)
        assert actual == expected

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_partition_invariants_at_boundaries(self, data):
        k = data.draw(st.integers(2, 4), label="k")
        residue = data.draw(st.sampled_from([0, 1, k - 1]), label="n mod k")
        blocks = data.draw(st.integers(1, 3), label="n // k")
        n = blocks * k + residue
        rows_data = data.draw(
            st.lists(rows, min_size=n, max_size=n), label="rows"
        )
        relation = Relation(SCHEMA, rows_data)
        anonymizer = make_anonymizer("k-member", np.random.default_rng(5))
        clusters = anonymizer.cluster(relation, k)
        # Exactly ⌊n/k⌋ clusters that disjointly cover R, each of size ≥ k
        # (the final ones absorb the n mod k leftovers).
        assert len(clusters) == n // k
        covered = [tid for cluster in clusters for tid in cluster]
        assert len(covered) == n
        assert set(covered) == set(relation.tids)
        assert all(len(cluster) >= k for cluster in clusters)


class TestKMemberOneGather:
    """``KMemberAnonymizer._cluster`` gathers each cluster's candidate block
    once, as a mismatch matrix against the seed, and masks taken rows with
    an over-maximal cost.  The oracle below is the loop it replaced: it
    re-gathers every remaining row for each of the k − 1 picks and keeps
    an explicit uniform profile.  Both must yield identical clusters from
    the same RNG — including ``argmin``'s first-index tie-break when
    duplicate rows tie on cost — and leave the RNG at the same state.
    """

    NUM_SCHEMA = Schema.from_names(
        qi=["A", "N", "B", "M"], sensitive=["S"], numeric=["N", "M"]
    )

    @staticmethod
    def _cluster_oracle(rng, relation, k):
        from repro.anonymize.encoding import QIEncoder

        enc = QIEncoder(relation)
        n = len(enc)
        matrix = enc.matrix
        remaining = np.ones(n, dtype=bool)
        clusters_rows = []
        current = int(rng.integers(0, n))
        while remaining.sum() >= k:
            candidates = np.flatnonzero(remaining)
            dists = enc.distances_to(current, candidates)
            seed = int(candidates[np.argmax(dists)])
            remaining[seed] = False
            members = [seed]
            uniform = matrix[seed].copy()
            broken = np.zeros(matrix.shape[1], dtype=bool)
            while len(members) < k:
                candidates = np.flatnonzero(remaining)
                diffs = matrix[candidates][:, ~broken] != uniform[~broken]
                costs = diffs.sum(axis=1)
                best = int(candidates[np.argmin(costs)])
                broken |= (matrix[best] != uniform) & ~broken
                members.append(best)
                remaining[best] = False
            clusters_rows.append(members)
            current = seed
        leftovers = np.flatnonzero(remaining)
        if len(leftovers):
            KMemberAnonymizer._assign_leftovers(
                matrix, clusters_rows, leftovers
            )
        tids = enc.tids
        return [set(int(tids[r]) for r in rows) for rows in clusters_rows]

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_regathering_loop(self, data):
        k = data.draw(st.integers(1, 5), label="k")
        residue = data.draw(st.sampled_from([0, 1, k - 1]), label="n mod k")
        blocks = data.draw(st.integers(1, 6), label="n // k")
        n = blocks * k + residue % k
        numeric = data.draw(st.booleans(), label="numeric QIs")
        if numeric:
            row = st.tuples(
                st.sampled_from(["a0", "a1"]),
                st.integers(0, 3),
                st.sampled_from(["b0", "b1", "b2"]),
                st.floats(0, 1).map(lambda x: round(x, 1)),
                values_s,
            )
            schema = self.NUM_SCHEMA
        else:
            row, schema = rows, SCHEMA
        # Few distinct rows, repeated: duplicate rows tie on every cost.
        distinct = data.draw(
            st.lists(row, min_size=1, max_size=6), label="distinct rows"
        )
        picks = data.draw(
            st.lists(
                st.integers(0, len(distinct) - 1), min_size=n, max_size=n
            ),
            label="row picks",
        )
        relation = Relation(schema, [distinct[i] for i in picks])
        seed = data.draw(st.integers(0, 2**16), label="rng seed")
        rng = np.random.default_rng(seed)
        expected = self._cluster_oracle(rng, relation, k)
        anonymizer = KMemberAnonymizer(rng=np.random.default_rng(seed))
        assert anonymizer.cluster(relation, k) == expected
        assert anonymizer.rng.bit_generator.state == rng.bit_generator.state

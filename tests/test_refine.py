"""Tests for the suppression-minimality refinement pass."""

from contextlib import nullcontext

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.constraints import ConstraintSet, DiversityConstraint
from repro.core.diva import run_diva
from repro.core.refine import refine_clusters, refine_result
from repro.core.suppress import suppress
from repro.data.datasets import make_popsyn
from repro.data.relation import Relation, Schema, generalizes
from repro.metrics.stats import is_k_anonymous
from repro.workloads.constraint_gen import proportion_constraints
from tests import oracle


@pytest.fixture
def swap_relation():
    """Two clusters that each hold one tuple belonging in the other.

    Clusters {0,1,2} ∪ {3} and {4,5} ∪ {2}… concretely: rows 0–2 share
    A=a1/B=b1, rows 3–5 share A=a2/B=b2, but the initial clustering crosses
    one tuple over each way.
    """
    schema = Schema.from_names(qi=["A", "B"], sensitive=["S"])
    rows = [
        ("a1", "b1", "s"), ("a1", "b1", "s"), ("a1", "b1", "s"),
        ("a2", "b2", "s"), ("a2", "b2", "s"), ("a2", "b2", "s"),
    ]
    return Relation(schema, rows)


class TestRefineClusters:
    def test_fixes_crossed_clusters(self, swap_relation):
        crossed = [{0, 1, 3}, {2, 4, 5}]
        before = suppress(swap_relation, crossed).star_count()
        refined, saved = refine_clusters(swap_relation, crossed, k=2)
        after = suppress(swap_relation, refined).star_count()
        assert saved == before - after
        assert after < before
        # The optimum for this instance: homogeneous clusters, zero stars.
        assert after == 0
        assert {frozenset(c) for c in refined} == {
            frozenset({0, 1, 2}), frozenset({3, 4, 5}),
        }

    def test_never_breaks_k(self, swap_relation):
        refined, _ = refine_clusters(swap_relation, [{0, 1, 3}, {2, 4, 5}], k=3)
        for cluster in refined:
            assert len(cluster) >= 3

    def test_optimal_input_unchanged(self, swap_relation):
        optimal = [{0, 1, 2}, {3, 4, 5}]
        refined, saved = refine_clusters(swap_relation, optimal, k=3)
        assert saved == 0
        assert {frozenset(c) for c in refined} == {
            frozenset({0, 1, 2}), frozenset({3, 4, 5}),
        }

    def test_undersized_cluster_rejected(self, swap_relation):
        with pytest.raises(ValueError, match="violates k"):
            refine_clusters(swap_relation, [{0}, {1, 2, 3, 4, 5}], k=2)

    def test_invalid_k(self, swap_relation):
        with pytest.raises(ValueError):
            refine_clusters(swap_relation, [{0, 1}], k=0)

    def test_single_cluster_noop(self, swap_relation):
        refined, saved = refine_clusters(swap_relation, [set(range(6))], k=2)
        assert saved == 0
        assert refined == [set(range(6))]

    def test_never_increases_stars_on_real_data(self):
        relation = make_popsyn(seed=13, n_rows=120)
        tids = list(relation.tids)
        clusters = [set(tids[i:i + 5]) for i in range(0, 120, 5)]
        before = suppress(relation, clusters).star_count()
        refined, saved = refine_clusters(relation, clusters, k=5)
        after = suppress(relation, refined).star_count()
        assert after == before - saved
        assert saved >= 0


class TestRefineResult:
    def test_output_still_valid(self):
        relation = make_popsyn(seed=14, n_rows=150)
        constraints = proportion_constraints(
            relation, 4, k=4, lower_cap=8, seed=14
        )
        result = run_diva(relation, constraints, k=4, best_effort=True)
        refined, saved = refine_result(result, relation, k=4)
        assert saved >= 0
        assert is_k_anonymous(refined, 4)
        assert generalizes(relation, refined)
        assert ConstraintSet(result.satisfied).is_satisfied_by(refined)
        assert refined.star_count() == result.relation.star_count() - saved

    def test_rsigma_untouched(self):
        relation = make_popsyn(seed=15, n_rows=150)
        constraints = proportion_constraints(
            relation, 3, k=4, lower_cap=8, seed=15
        )
        result = run_diva(relation, constraints, k=4, best_effort=True)
        refined, _ = refine_result(result, relation, k=4)
        for tid in result.r_sigma.tids:
            assert refined.row(tid) == result.r_sigma.row(tid)

    def test_empty_rk(self, paper_relation):
        """When Σ covers everything, there is nothing to refine."""
        from repro.core.constraints import DiversityConstraint

        constraints = ConstraintSet(
            [
                DiversityConstraint("GEN", "Male", 5, 5),
                DiversityConstraint("GEN", "Female", 5, 5),
            ]
        )
        result = run_diva(paper_relation, constraints, k=2, seed=1)
        if result.r_k is not None and len(result.r_k) == 0:
            refined, saved = refine_result(result, paper_relation, k=2)
            assert saved == 0
            assert refined == result.relation


@st.composite
def refine_instance(draw):
    """A small relation plus a data-anchored Σ that DIVA can satisfy."""
    n = draw(st.integers(min_value=4, max_value=16))
    rows = [
        (
            draw(st.sampled_from(("a1", "a2", "a3"))),
            draw(st.sampled_from(("b1", "b2"))),
            draw(st.sampled_from(("s1", "s2"))),
        )
        for _ in range(n)
    ]
    return rows


class TestRefineResultProperty:
    """refine_result's contract, property-checked.

    For any instance: refinement never *increases* the suppression cost,
    never breaks k-anonymity, and never un-satisfies a constraint the DIVA
    run satisfied — and a DIVA run on the injected oracle refines to the
    same relation.
    """

    @given(refine_instance())
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_refine_never_regresses(self, rows):
        schema = Schema.from_names(qi=["A", "B"], sensitive=["S"])
        relation = Relation(schema, rows)
        k = 2
        value, c = relation.value_counts("A").most_common(1)[0]
        assume(c >= k)
        constraints = ConstraintSet([DiversityConstraint("A", value, 2, c)])

        outcomes = []
        for use_oracle in (True, False):
            with oracle.injected() if use_oracle else nullcontext():
                result = run_diva(
                    relation, constraints, k, best_effort=True, seed=0
                )
                refined, saved = refine_result(result, relation, k=k)
                assert saved >= 0
                assert (
                    refined.star_count()
                    == result.relation.star_count() - saved
                )
                assert is_k_anonymous(refined, k)
                assert generalizes(relation, refined)
                assert ConstraintSet(result.satisfied).is_satisfied_by(refined)
                outcomes.append((refined, saved))
        assert outcomes[0][0] == outcomes[1][0]
        assert outcomes[0][1] == outcomes[1][1]


class TestDivaRefineOption:
    def test_refine_flag_reduces_or_keeps_stars(self):
        relation = make_popsyn(seed=16, n_rows=150)
        constraints = proportion_constraints(
            relation, 3, k=4, lower_cap=8, seed=16
        )
        plain = run_diva(relation, constraints, k=4, best_effort=True)
        polished = run_diva(
            relation, constraints, k=4, best_effort=True, refine=True
        )
        assert polished.relation.star_count() <= plain.relation.star_count()
        assert is_k_anonymous(polished.relation, 4)
        assert ConstraintSet(polished.satisfied).is_satisfied_by(
            polished.relation
        )
        assert "refine" in polished.timings

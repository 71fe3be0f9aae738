"""Conformance suite for the approximation solver tier (``repro.core.approx``).

Three contracts, per ISSUE 7:

* **Soundness** — any ``solver=approx`` success passes the exact
  validators: the suppressed SΣ is k-anonymous and every QI-touching
  σ ∈ Σ counts inside ``[λl, λr]`` on it (the same ``sigma.count`` /
  ``is_k_anonymous`` machinery the exact tier is checked with).
* **Bounded loss** — a cold approx pass never suppresses more than the
  documented bound ``APPROX_LOSS_FACTOR × W_QI × Σσ max(k, λl)``
  (:func:`repro.core.approx.approx_loss_bound`).
* **Auto transparency** — ``solver=auto`` is byte-identical to
  ``solver=exact`` whenever the step budget is not exhausted (results and
  observability counters), and on exhaustion it consumes the
  ``SearchBudgetExceeded.partial`` warm-start payload rather than
  restarting cold.
"""

import pickle
from contextlib import nullcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.approx import (
    ApproxSolver,
    approx_clustering,
    approx_loss_bound,
    escalate_from_budget,
)
from repro.core.clusterings import clustering_suppression_cost
from repro.core.coloring import (
    SOLVER_TIERS,
    SearchBudgetExceeded,
    SearchStats,
    diverse_clustering,
)
from repro.core.constraints import ConstraintSet, DiversityConstraint
from repro.core.diva import Diva, run_diva
from repro.core.suppress import suppress
from repro.data.relation import Relation, Schema
from repro.metrics.diversity_check import check_diversity
from repro.metrics.stats import is_k_anonymous
from tests import oracle

pytestmark = pytest.mark.solver

SCHEMA = Schema.from_names(qi=["A", "B", "C"], sensitive=["S"])

values_a = st.sampled_from(["a0", "a1", "a2"])
values_b = st.sampled_from(["b0", "b1"])
values_c = st.sampled_from(["c0", "c1", "c2", "c3"])
values_s = st.sampled_from(["s0", "s1", "s2"])

rows = st.tuples(values_a, values_b, values_c, values_s)


@st.composite
def relations(draw, min_rows=4, max_rows=24):
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


class TestApproxSoundness:
    """Every approx success passes the exact tier's validators."""

    @given(relations(min_rows=6, max_rows=18), constraint_sets())
    @settings(max_examples=60, deadline=None)
    def test_success_satisfies_exact_validators(self, relation, sigma_set):
        result = approx_clustering(relation, sigma_set, 2)
        if not result.success:
            return  # sound, not complete: failure certifies nothing
        suppressed = suppress(relation, result.clustering)
        if len(suppressed):
            assert is_k_anonymous(suppressed, 2)
        qi = set(relation.schema.qi_names)
        for sigma in sigma_set:
            if not any(a in qi for a in sigma.attrs):
                continue  # non-QI counts are global, not SΣ-local
            count = sigma.count(suppressed)
            assert sigma.lower <= count <= sigma.upper

    @given(relations(min_rows=6, max_rows=18), constraint_sets())
    @settings(max_examples=60, deadline=None)
    def test_cold_cost_within_documented_bound(self, relation, sigma_set):
        result = approx_clustering(relation, sigma_set, 2)
        if not result.success:
            return
        cost = clustering_suppression_cost(relation, result.clustering)
        assert cost <= approx_loss_bound(relation, sigma_set, 2)

    @given(relations(min_rows=6, max_rows=18), constraint_sets())
    @settings(max_examples=40, deadline=None)
    def test_clusters_within_size_window(self, relation, sigma_set):
        """Emitted clusters keep the [k, 2k) clustering-with-diversity
        size window (what makes the suppressed SΣ k-anonymous)."""
        result = approx_clustering(relation, sigma_set, 2)
        if not result.success:
            return
        for cluster in result.clustering:
            assert 2 <= len(cluster) < 4

    def test_end_to_end_paper_instance(self, paper_relation, paper_constraints):
        result = run_diva(paper_relation, paper_constraints, 2, solver="approx")
        assert is_k_anonymous(result.relation, 2)
        assert all(
            v.satisfied
            for v in check_diversity(result.relation, paper_constraints)
        )


class TestAutoTransparency:
    """auto == exact whenever the budget suffices."""

    @given(relations(min_rows=6, max_rows=18), constraint_sets())
    @settings(max_examples=40, deadline=None)
    def test_auto_byte_identical_when_budget_suffices(self, relation, sigma_set):
        # max_candidates=8 bounds the tree so 5 000 steps provably suffice
        # (see tests/test_property.py) — the budget is never exhausted, so
        # the auto tier must not diverge from exact by a single byte.
        kwargs = dict(k=2, max_candidates=8, max_steps=5_000)
        exact = diverse_clustering(relation, sigma_set, **kwargs)
        with obs.collecting() as collector:
            auto = diverse_clustering(
                relation, sigma_set, solver="auto", **kwargs
            )
        assert auto.success == exact.success
        assert auto.assignment == exact.assignment
        assert auto.clustering == exact.clustering
        assert auto.satisfied == exact.satisfied
        assert auto.stats.as_dict() == exact.stats.as_dict()
        # No escalation happened, so no solver.* telemetry may appear.
        assert not any(
            name.startswith("solver.") for name in collector.counters
        )

    def test_invalid_solver_rejected(self, paper_relation, paper_constraints):
        with pytest.raises(ValueError, match="solver"):
            diverse_clustering(
                paper_relation, paper_constraints, 2, solver="fast"
            )
        with pytest.raises(ValueError, match="solver"):
            Diva(solver="fast")
        assert set(SOLVER_TIERS) == {"exact", "approx", "auto"}


class TestBudgetPartialPayload:
    """SearchBudgetExceeded.partial is populated and survives pickling."""

    def test_partial_carries_stats_and_assignment(
        self, paper_relation, paper_constraints
    ):
        with pytest.raises(SearchBudgetExceeded) as excinfo:
            diverse_clustering(paper_relation, paper_constraints, 2, max_steps=1)
        partial = excinfo.value.partial
        assert isinstance(partial["stats"], SearchStats)
        assert partial["stats"].candidates_tried >= 1
        # One candidate evaluation fits in the budget, so the search had
        # assigned one node before the second node's first charge raised.
        assert isinstance(partial["assignment"], dict)
        assert len(partial["assignment"]) >= 1

    def test_partial_survives_pickling(self, paper_relation, paper_constraints):
        """The default Exception reduce would drop ``partial`` on its way
        back from a process pool; __reduce__ must preserve it."""
        with pytest.raises(SearchBudgetExceeded) as excinfo:
            diverse_clustering(paper_relation, paper_constraints, 2, max_steps=1)
        clone = pickle.loads(pickle.dumps(excinfo.value))
        assert clone.partial["assignment"] == excinfo.value.partial["assignment"]
        assert (
            clone.partial["stats"].as_dict()
            == excinfo.value.partial["stats"].as_dict()
        )

    def test_zero_budget_partial_is_empty_but_present(
        self, paper_relation, paper_constraints
    ):
        with pytest.raises(SearchBudgetExceeded) as excinfo:
            diverse_clustering(paper_relation, paper_constraints, 2, max_steps=0)
        assert excinfo.value.partial["assignment"] == {}


class TestWarmStart:
    """Escalation consumes the exact tier's partial assignment."""

    def _exhaust(self, relation, constraints, max_steps=1):
        with pytest.raises(SearchBudgetExceeded) as excinfo:
            diverse_clustering(relation, constraints, 2, max_steps=max_steps)
        return excinfo.value.partial["assignment"]

    def test_escalation_emits_warm_start_telemetry(
        self, paper_relation, paper_constraints
    ):
        with obs.collecting() as collector:
            result = diverse_clustering(
                paper_relation, paper_constraints, 2, max_steps=1, solver="auto"
            )
        assert result.success
        assert collector.counters[obs.SOLVER_ESCALATIONS] == 1
        # The warm pass adopted at least the one node exact had colored —
        # consumed, not restarted cold.
        assert collector.counters[obs.SOLVER_WARM_START_NODES] >= 1
        assert collector.counters[obs.SOLVER_APPROX_NODES] == len(
            paper_constraints
        )

    def test_consistent_warm_choices_are_kept_verbatim(self, paper_relation):
        # Two non-overlapping constraints: any exact partial choice stays
        # consistent, so the warm-started pass must keep it verbatim.
        sigma = ConstraintSet(
            [
                DiversityConstraint("ETH", "Asian", 2, 5),
                DiversityConstraint("ETH", "African", 1, 3),
            ]
        )
        warm = self._exhaust(paper_relation, sigma)
        assert warm  # at least one node colored before exhaustion
        result = ApproxSolver(
            paper_relation, sigma, 2, warm_start=warm
        ).run()
        assert result.success
        for index, clustering in warm.items():
            assert result.assignment[index] == clustering

    def test_escalated_stats_include_exact_partial_effort(
        self, paper_relation, paper_constraints
    ):
        result = diverse_clustering(
            paper_relation, paper_constraints, 2, max_steps=1, solver="auto"
        )
        assert result.success
        # Merged stats = exact partial effort + approx pass effort, so the
        # exact tier's spent budget is visible in the reported counters.
        assert result.stats.candidates_tried >= 1 + len(paper_constraints)

    def test_poisoned_warm_start_falls_back_to_cold_pass(self, paper_relation):
        # A warm prefix that strands another constraint's pool below k must
        # not sink the tier: the solver retries cold and still succeeds.
        sigma = ConstraintSet(
            [
                DiversityConstraint("ETH", "African", 1, 3),
                DiversityConstraint("CTY", "Vancouver", 2, 4),
            ]
        )
        # Vancouver's {6, 7} covers tid 6 — the only co-African tuple tid 5
        # could cluster with — so African's residual pool is sub-k.
        poisoned = {1: (frozenset({6, 7}),)}
        result = ApproxSolver(
            paper_relation, sigma, 2, warm_start=poisoned
        ).run()
        assert result.success

    def test_auto_reraises_original_when_approx_fails_too(self, paper_relation):
        # σ2's λl exceeds the number of Asian tuples, so the approx tier
        # must fail; σ1 supplies real candidates, so the zero budget makes
        # the exact tier raise (rather than prove failure cheaply).  The
        # escalation then surfaces the *original* budget exception.
        sigma = ConstraintSet(
            [
                DiversityConstraint("ETH", "Asian", 2, 5),
                DiversityConstraint("ETH", "Asian", 9, 10),
            ]
        )
        with pytest.raises(SearchBudgetExceeded, match="exceeded 0"):
            diverse_clustering(
                paper_relation, sigma, 2, max_steps=0, solver="auto"
            )


class TestBackendFidelity:
    """The budget-escalation pipeline matches the oracle byte for byte.

    The search-state engine (``repro.core.searchstate``) must not change a
    byte of the ``SearchBudgetExceeded.partial`` payload — the warm start
    the auto tier escalates from — nor of the escalated result itself.
    ``reference`` runs inject the dict-state search and the index-free
    approx solver of ``tests/oracle.py``.
    """

    @staticmethod
    def _under(backend):
        return oracle.injected() if backend == "reference" else nullcontext()

    def _exhaust_under(self, backend, relation, constraints, max_steps):
        with self._under(backend):
            with pytest.raises(SearchBudgetExceeded) as excinfo:
                diverse_clustering(
                    relation, constraints, 2, max_steps=max_steps
                )
        return excinfo.value

    @given(
        relations(min_rows=6, max_rows=18),
        constraint_sets(),
        st.sampled_from(["approx", "auto"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_solver_matches_oracle(self, relation, sigma_set, solver):
        """Cold approx passes and budget-escalated warm starts (``auto`` at
        a one-step budget) land on the oracle's result."""

        def solve():
            try:
                result = diverse_clustering(
                    relation, sigma_set, 2, solver=solver, max_steps=1
                )
            except SearchBudgetExceeded as exc:
                return exc.partial["assignment"], exc.partial["stats"].as_dict()
            return (
                result.success,
                result.assignment,
                result.clustering,
                result.stats.as_dict(),
            )

        with oracle.injected():
            ref = solve()
        assert solve() == ref

    @pytest.mark.parametrize("max_steps", [1, 3, 7])
    def test_partial_payload_identical_across_backends(
        self, paper_relation, paper_constraints, max_steps
    ):
        """Live-assignment snapshot + partial stats at exhaustion are the
        same whether dict bookkeeping or counter arrays tracked them."""
        ref = self._exhaust_under(
            "reference", paper_relation, paper_constraints, max_steps
        )
        vec = self._exhaust_under(
            "vectorized", paper_relation, paper_constraints, max_steps
        )
        assert vec.partial["assignment"] == ref.partial["assignment"]
        assert (
            vec.partial["stats"].as_dict() == ref.partial["stats"].as_dict()
        )

    def test_warm_started_escalation_identical_across_backends(
        self, paper_relation, paper_constraints
    ):
        """``escalate_from_budget`` consumes the backend's own partial and
        still lands on the identical escalated result."""
        outcomes = {}
        for backend in ("reference", "vectorized"):
            exc = self._exhaust_under(
                backend, paper_relation, paper_constraints, 1
            )
            with self._under(backend):
                result = escalate_from_budget(
                    paper_relation, paper_constraints, 2, exc=exc
                )
            assert result is not None and result.success
            outcomes[backend] = {
                "assignment": result.assignment,
                "clustering": result.clustering,
                "satisfied": result.satisfied,
                "stats": result.stats.as_dict(),
            }
        assert outcomes["vectorized"] == outcomes["reference"]


class TestHeadlineAcceptance:
    """The tier solves an instance exact cannot touch at its budget."""

    def test_approx_succeeds_where_exact_exhausts(
        self, paper_relation, paper_constraints
    ):
        with pytest.raises(SearchBudgetExceeded):
            diverse_clustering(
                paper_relation, paper_constraints, 2, max_steps=1
            )
        result = approx_clustering(paper_relation, paper_constraints, 2)
        assert result.success
        suppressed = suppress(paper_relation, result.clustering)
        assert is_k_anonymous(suppressed, 2)
        qi = set(paper_relation.schema.qi_names)
        for sigma in paper_constraints:
            if any(a in qi for a in sigma.attrs):
                count = sigma.count(suppressed)
                assert sigma.lower <= count <= sigma.upper

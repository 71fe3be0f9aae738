"""Enumeration-engine benchmark: columnar engine vs the per-call oracle.

Runs the BENCH_obs DIVA configuration (census 2 000 × k=5 × 6 proportion
constraints) twice and compares the
``coloring.enumerate_candidates`` span totals:

* **engine** — the memoized rank-space engine
  (:mod:`repro.core.enumeration`), measured cold (memo cleared);
* **legacy** — the oracle's :func:`tests.oracle.enumerate_generic` scoring
  and ordering through per-call :class:`RelationIndex` kernels, i.e. the
  pre-engine vectorized enumeration the engine replaced (the 53% hot path).

The record lands in the run registry plus ``BENCH_enum.json``; the gate
asserts the engine cuts enumeration time by at least 3×.

Excluded from tier-1 runs by the ``bench`` marker; run with::

    PYTHONPATH=src python -m pytest benchmarks/test_enumeration.py -m bench -s -p no:cacheprovider
"""

from __future__ import annotations

import json

import pytest

from repro.bench.harness import run_diva_point
from repro.bench.reporting import write_bench_artifact
from repro.core import clusterings
from repro.core.enumeration import get_enum_memo
from repro.data.datasets import make_census
from repro.obs import SPAN_DIVA_RUN, SPAN_ENUMERATE_CANDIDATES
from repro.workloads.constraint_gen import proportion_constraints
from tests.oracle import enumerate_generic

pytestmark = pytest.mark.bench

N_ROWS = 2_000
K = 5
N_CONSTRAINTS = 6
MIN_SPEEDUP = 3.0
REPEATS = 3


def _legacy_dispatch(index, pool, k, lo, hi, max_candidates, caps, rng, already=0):
    """The pre-engine vectorized path, shimmed to the engine's call shape."""
    return enumerate_generic(
        index.relation,
        pool,
        k,
        lo,
        hi,
        max_candidates,
        caps,
        rng,
        already=already,
        index=index,
    )


def _measure(monkeypatch, legacy: bool):
    """Best-of-N enumerate-span total at the BENCH_obs config.

    A fresh relation per repetition keeps every index cache cold so both
    legs pay identical non-enumeration costs; the memo is cleared so the
    engine leg measures generation, not a cache hit.
    """
    best_span = float("inf")
    best_point = None
    for rep in range(REPEATS):
        relation = make_census(seed=3, n_rows=N_ROWS)
        sigma = proportion_constraints(relation, N_CONSTRAINTS, k=K, seed=3)
        get_enum_memo().clear()
        with pytest.MonkeyPatch.context() as mp:
            if legacy:
                mp.setattr(clusterings, "enumerate_pool", _legacy_dispatch)
            point = run_diva_point(
                relation, sigma, K, "maxfanout", seed=3, collect_obs=True
            )
        span = point.extras["obs"]["spans"][SPAN_ENUMERATE_CANDIDATES]["total_s"]
        if span < best_span:
            best_span, best_point = span, point
    return best_span, best_point


def test_enumeration_engine_speedup(monkeypatch):
    legacy_s, legacy_point = _measure(monkeypatch, legacy=True)
    engine_s, engine_point = _measure(monkeypatch, legacy=False)

    # Same search, same output — only the enumeration engine differs.
    assert engine_point.accuracy == legacy_point.accuracy

    speedup = legacy_s / engine_s if engine_s else float("inf")
    block = engine_point.extras["obs"]
    payload = {
        "n_rows": N_ROWS,
        "k": K,
        "n_constraints": N_CONSTRAINTS,
        "legacy_enumerate_s": round(legacy_s, 6),
        "engine_enumerate_s": round(engine_s, 6),
        "speedup": round(speedup, 3),
        "legacy_run_s": round(
            legacy_point.extras["obs"]["spans"][SPAN_DIVA_RUN]["total_s"], 6
        ),
        "engine_run_s": round(block["spans"][SPAN_DIVA_RUN]["total_s"], 6),
        "subsets_generated": block["counters"].get("enum.subsets_generated", 0),
        "dominated_pruned": block["counters"].get("enum.dominated_pruned", 0),
        "obs": block,
    }
    record = write_bench_artifact(
        "enum",
        payload,
        config={"n_rows": N_ROWS, "k": K, "n_constraints": N_CONSTRAINTS},
        metrics={
            "engine_enumerate_s": round(engine_s, 6),
            "speedup": round(speedup, 3),
        },
    )
    print(json.dumps(record, indent=2))

    assert speedup >= MIN_SPEEDUP, (
        f"enumeration engine speedup {speedup:.2f}x < required "
        f"{MIN_SPEEDUP}x (legacy {legacy_s:.4f}s, engine {engine_s:.4f}s)"
    )

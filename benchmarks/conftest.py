"""Shared configuration for the paper-reproduction benchmarks.

Each benchmark file regenerates one table or figure of the paper at
laptop scale (sizes documented in DESIGN.md) and asserts the paper's
*qualitative* shape — who wins, what grows, where trends point — rather
than absolute numbers.  The printed tables are the paper-figure series;
run with ``pytest benchmarks/ --benchmark-only -s`` to see them.
"""

import sys
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"

# Reference legs import the pure-Python oracle from the ``tests`` package.
_ROOT = str(Path(__file__).resolve().parent.parent)
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)


def run_once(benchmark, fn):
    """Benchmark ``fn`` with a single timed round (experiments are long).

    When the experiment returns an :class:`repro.bench.Experiment`, its
    series are also dumped to ``benchmarks/results/<figure>.csv`` so the
    paper-figure data can be plotted downstream.
    """
    result = benchmark.pedantic(fn, rounds=1, iterations=1)
    try:
        from repro.bench.harness import Experiment
        from repro.bench.reporting import experiment_to_csv

        if isinstance(result, Experiment):
            RESULTS_DIR.mkdir(exist_ok=True)
            experiment_to_csv(result, RESULTS_DIR / f"{result.figure}.csv")
    except OSError:
        pass  # results dump is best-effort; the bench itself already ran
    return result


@pytest.fixture
def once():
    return run_once

"""Tests of the benchmark's own helpers and a tiny run of each workload.

Run from the root of a checkout::

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import measure  # noqa: E402
import metrics  # noqa: E402
import spans  # noqa: E402


# -- tail percentile -------------------------------------------------------------


@pytest.mark.parametrize(
    "n, pct",
    [(1000, 99.0), (200, 95.0), (100, 90.0), (40, 75.0), (30, 50.0), (20, 50.0)],
)
def test_tail_is_highest_ladder_percentile_with_ten_beyond(n, pct):
    samples = [float(i) for i in range(n, 0, -1)]
    got_pct, value, count = measure.tail(samples)
    assert (got_pct, count) == (pct, n)
    assert sum(1 for s in samples if s > value) >= measure.TAIL_BEYOND
    assert value == measure.percentile(samples, pct)


def test_tail_refuses_too_small_samples():
    assert measure.tail([1.0] * 19) == (None, None, 19)


def test_percentile_is_nearest_rank():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert measure.percentile(samples, 50) == 3.0
    assert measure.percentile(samples, 99) == 5.0
    assert measure.percentile(samples, 1) == 1.0


# -- span self time --------------------------------------------------------------


def _span(span_id, parent, start, end, name="x"):
    return (span_id, parent, name, start, end, None)


def test_self_time_subtracts_nested_children():
    tree = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 3.0),
        _span(2, 0, 4.0, 8.0),
        _span(3, 2, 5.0, 6.0),
    ]
    selfs = spans.self_times(tree)
    assert selfs == pytest.approx({0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0})
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_summarize_windows_by_start_but_keeps_self_time_exact():
    tree = [
        _span(0, None, 0.0, 4.0, "early"),
        _span(1, None, 5.0, 9.0, "late"),
        _span(2, 1, 6.0, 7.0, "child"),
    ]
    summary = spans.summarize(tree, since=5.0)
    assert set(summary) == {"late", "child"}
    assert summary["late"]["self_s"] == pytest.approx(3.0)
    assert summary["late"]["total_s"] == pytest.approx(4.0)


def test_tracer_layers_add_up_to_diva_run_and_uninstall_restores():
    import importlib

    from repro.core import diva
    from repro.core.diva import run_diva
    from repro.data.datasets import make_census
    from repro.workloads.constraint_gen import proportion_constraints

    original_run = diva.Diva.run
    original_suppress = importlib.import_module("repro.core.suppress").suppress
    relation = make_census(seed=3, n_rows=200)
    sigma = proportion_constraints(relation, 2, k=5, seed=0)
    with spans.Tracer() as tracer:
        assert diva.suppress is not original_suppress
        tracer.set_request("job")
        run_diva(relation, sigma, 5)
    assert diva.Diva.run is original_run
    assert diva.suppress is original_suppress
    summary = spans.summarize(tracer.spans)
    assert {"diva.run", "enumeration", "searchstate.init", "suppress",
            "kmember", "integrate", "coloring.search"} <= set(summary)
    covered = sum(entry["self_s"] for entry in summary.values())
    assert covered == pytest.approx(summary["diva.run"]["total_s"], rel=1e-9)
    assert {s[5] for s in tracer.spans} == {"job"}
    assert tracer.counters["coloring.candidates_tried"] >= 1


# -- failures and the star record ------------------------------------------------


def test_a_pass_without_ops_reports_zero_op_p50():
    import workloads

    assert workloads.Pass().op_p50_s == 0.0


def test_a_job_that_raises_counts_as_failed(monkeypatch):
    import workloads
    from repro.core import diva
    from repro.data.datasets import make_census
    from repro.workloads.constraint_gen import proportion_constraints

    def broken(*args, **kwargs):
        raise ValueError("broken")

    monkeypatch.setattr(diva, "run_diva", broken)
    relation = make_census(seed=3, n_rows=50)
    sigma = proportion_constraints(relation, 1, k=5, seed=0)
    p = workloads.Pass()
    workloads._run_job(p, "job:0", "census", relation, sigma, 5, None)
    assert (p.attempted, p.failed, p.op_walls) == (1, 1, [])
    assert p.errors == ["job:0: ValueError: broken"]


def test_program_digest_follows_the_source_and_ignores_bytecode(tmp_path):
    import run

    src = tmp_path / "src" / "repro"
    (src / "__pycache__").mkdir(parents=True)
    (src / "a.py").write_text("x = 1\n")
    first = run.program_digest(tmp_path)
    (src / "__pycache__" / "a.pyc").write_bytes(b"stale")
    assert run.program_digest(tmp_path) == first
    (src / "a.py").write_text("x = 2\n")
    assert run.program_digest(tmp_path) != first


def test_star_mismatch_against_the_record_is_a_problem(tmp_path):
    import run
    import workloads

    record = tmp_path / "stars.json"
    first, second = workloads.Pass(), workloads.Pass()
    first.stars_by_op = {"job:0:abc": 12}
    second.stars_by_op = {"job:0:abc": 13}
    run._check_stars(first, record)
    run._check_stars(second, record)
    assert first.problems == []
    assert second.problems == ["job:0:abc: 13 stars, earlier runs of this seed and program had 12"]


# -- memo hit ratios -------------------------------------------------------------


def test_hit_ratio_uses_deltas_around_the_region():
    from repro.core.searchstate import ContributionMemo

    memo = ContributionMemo()
    memo.lookup(("a",))
    memo.store(("a",), (1,))
    memo.lookup(("a",))  # traffic before the region: 1 miss, 1 hit
    memo.clear()
    before = dict(memo.stats())
    memo.lookup(("b",))
    memo.store(("b",), (2,))
    memo.lookup(("b",))
    memo.lookup(("b",))
    delta = measure.stats_delta(before, memo.stats())
    assert measure.hit_ratio(delta, "search_memo_hits", "search_memo_misses") == (
        pytest.approx(2 / 3), 3
    )


def test_hit_ratio_of_an_idle_region_is_zero_with_zero_base():
    assert measure.hit_ratio({"h": 0, "m": 0}, "h", "m") == (0.0, 0)


# -- the benchmark definition ----------------------------------------------------


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == (
        metrics.END_TO_END
    )
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == (
        metrics.PER_LAYER
    )
    assert set(metrics.MOVES) == set(metrics.PER_LAYER)
    import run

    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["anonymize-cold", "sweep-warm", "serve-ingest-read"])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    table = metrics.PER_LAYER if trace == "1" else metrics.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        name: unit for name, (unit, _better) in table.items()
    }
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "anonymize-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

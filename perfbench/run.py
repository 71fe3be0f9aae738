"""The repository benchmark: one command per workload, one JSON line out.

Run from the root of a checkout::

    python3 perfbench/run.py --workload anonymize-cold --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the workload untraced and prints the end-to-end
metrics.  ``--trace 1`` runs it once untraced and once with the span
wrappers of :mod:`spans` installed, and prints the per-layer metrics plus
``trace.overhead`` (traced ``rows_per_s`` over untraced, minus 1).  Every
release a run produces is checked for k-anonymity and Σ, and its star
count must equal what earlier runs of the same seed and the same program
(a digest of ``src/repro``) recorded under ``.bench_build/perfbench``; a
``--trace 1`` run also compares its two passes with each other.  The last line of standard output is the
result object; the line before it is a record of the run's inputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys
from pathlib import Path

import loadgen
import measure
import metrics
import spans
import workloads

WORKLOADS = tuple(workloads.SIZES["full"])


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=sorted(workloads.SIZES), default="full",
        help="input sizes; 'tiny' is for the benchmark's own tests",
    )
    return parser.parse_args(argv)


def _run_pass(args, size: dict, state: Path, traced: bool) -> workloads.Pass:
    if args.workload == "serve-ingest-read":
        return workloads.serve_ingest_read(
            args.seed, args.seconds, size, state, traced=traced
        )
    run = {
        "anonymize-cold": workloads.anonymize_cold,
        "sweep-warm": workloads.sweep_warm,
    }[args.workload]
    if not traced:
        return run(args.seed, args.seconds, size)
    with spans.Tracer() as tracer:
        p = run(args.seed, args.seconds, size, tracer=tracer)
    p.dumps.append(tracer.payload())
    return p


def program_digest(root: Path) -> str:
    """Digest of the files under ``src/repro``: star records are kept per
    program, so a change that alters the output never meets the parent's."""
    digest = hashlib.sha256()
    src = root / "src" / "repro"
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            data = path.read_bytes()
            name = path.relative_to(src).as_posix().encode("utf-8")
            digest.update(b"%d:%s%d:" % (len(name), name, len(data)) + data)
    return digest.hexdigest()[:16]


def _check_stars(p: workloads.Pass, path: Path) -> None:
    """Stars are deterministic per seed: compare with, then extend, the record."""
    known = json.loads(path.read_text()) if path.exists() else {}
    for key, stars in p.stars_by_op.items():
        if key in known and known[key] != stars:
            p.problems.append(
                f"{key}: {stars} stars, earlier runs of this seed and program had {known[key]}"
            )
        known.setdefault(key, stars)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(known, sort_keys=True))


def end_to_end(p: workloads.Pass) -> dict:
    return {
        "setup_s": statistics.median(p.setup_times) if p.setup_times else 0.0,
        "rows_per_s": p.rows_per_s,
        "op_p50_s": p.op_p50_s,
        "stars_per_row": p.stars / p.published_rows if p.published_rows else 0.0,
        "peak_rss_mb": p.peak_rss_mb,
    }


def _layer_totals(p: workloads.Pass) -> tuple[dict, dict, list]:
    """Span summary, counters and published-ingest walls over a pass's dumps.

    A server dump only counts spans from when the service started
    listening, which leaves out the replay that precedes the load.
    """
    summary: dict = {}
    counters: dict = {}
    published: list = []
    for dump in p.dumps:
        marks = dump.get("marks")
        part = spans.summarize(
            dump["spans"], since=marks["listening"] if marks else float("-inf")
        )
        if marks:
            p.add_memo(marks["memo_before"], marks["memo_after"])
        else:
            # Batch dumps: every span sits under a Diva.run, so the layers'
            # self times must add up to the Diva.run wall.
            covered = sum(entry["self_s"] for entry in part.values())
            total = part.get("diva.run", {}).get("total_s", 0.0)
            if abs(covered - total) > 1e-6 * max(1.0, total):
                p.problems.append(
                    f"layer self times sum to {covered:.6f}s, "
                    f"Diva.run wall is {total:.6f}s"
                )
        for name, entry in part.items():
            into = summary.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in into:
                into[key] += entry[key]
        durations = part.get("stream.ingest", {}).get("durations", {})
        published += [durations[i] for i in dump["published"] if i in durations]
        for name, value in dump["counters"].items():
            counters[name] = counters.get(name, 0) + value
    return summary, counters, published


def per_layer(p: workloads.Pass, plain: workloads.Pass) -> dict:
    """Per-layer metrics of a traced pass (``plain``: its untraced twin)."""
    summary, counters, published = _layer_totals(p)
    ops = max(1, len(p.op_walls))

    def busy(name: str, key: str = "self_s") -> float:
        return summary.get(name, {}).get(key, 0.0) / ops

    def calls(name: str) -> int:
        return summary.get(name, {}).get("calls", 0)

    enum_ratio, enum_lookups = measure.hit_ratio(
        p.memo, "enum_memo_hits", "enum_memo_misses")
    contrib_ratio, contrib_lookups = measure.hit_ratio(
        p.memo, "search_memo_hits", "search_memo_misses")
    offered = counters.get("admission.offered", 0)
    extended = counters.get("ledger.extended", 0)
    placed = extended + counters.get("ledger.recomputed", 0)
    ingest = p.op_walls if p.reads else []
    tail_pct, tail_value, _ = measure.tail(ingest)
    span_means = spans_from_metrics(p.metrics_texts)
    return {
        "enumeration.busy_s": busy("enumeration"),
        "enumeration.calls": calls("enumeration") / ops,
        "enum_memo.hit_ratio": enum_ratio,
        "enum_memo.lookups": enum_lookups,
        "searchstate.init_s": busy("searchstate.init"),
        "contribution_memo.hit_ratio": contrib_ratio,
        "contribution_memo.lookups": contrib_lookups,
        "coloring.search_s": busy("coloring.search"),
        "coloring.candidates_tried": counters.get("coloring.candidates_tried", 0) / ops,
        "coloring.backtracks": counters.get("coloring.backtracks", 0) / ops,
        "kmember.busy_s": busy("kmember"),
        "index.build_s": busy("index.build"),
        "index.builds": calls("index.build") / ops,
        "graph.build_s": busy("graph.build"),
        "suppress.busy_s": busy("suppress"),
        "integrate.busy_s": busy("integrate"),
        "diva.self_s": busy("diva.run"),
        "diva.run_s": busy("diva.run", "total_s"),
        "admission.init_s": busy("admission.init"),
        "admission.try_admit_s": busy("admission.try_admit"),
        "admission.materialize_s": busy("admission.materialize"),
        "admission.admit_ratio": (
            counters.get("admission.admitted", 0) / offered if offered else 0.0
        ),
        "admission.offered": offered,
        "ledger.publish_s": busy("ledger.publish"),
        "stream.self_s": busy("stream.ingest"),
        "stream.publish_p50_s": statistics.median(published) if published else 0.0,
        "stream.recomputes": counters.get("stream.recomputes", 0),
        "stream.extend_ratio": extended / placed if placed else 0.0,
        "io.write_release_s": busy("io.write_release"),
        "serve.publish_s": span_means.get("serve.publish", 0.0),
        "serve.request_s": span_means.get("serve.request", 0.0),
        "ingest_tail_s": tail_value or 0.0,
        "ingest_tail.pct": tail_pct or 0.0,
        "ingest.samples": len(ingest),
        "read_p50_s": measure.percentile(p.reads, 50) if p.reads else 0.0,
        "read_p99_s": measure.percentile(p.reads, 99) if p.reads else 0.0,
        "read.samples": len(p.reads),
        "loadgen.late_p99_s": measure.percentile(p.late, 99) if p.late else 0.0,
        "loadgen.reads": len(p.late),
        "error_rate": p.failed / p.attempted if p.attempted else 0.0,
        "trace.overhead": (
            p.rows_per_s / plain.rows_per_s - 1.0 if plain.rows_per_s else 0.0
        ),
    }


def spans_from_metrics(texts: list) -> dict[str, float]:
    """Mean seconds per span of each span series over ``/metrics`` scrapes."""
    totals: dict = {}
    for text in texts:
        for name, (total, count) in loadgen.parse_span_totals(text).items():
            into = totals.setdefault(name, [0.0, 0])
            into[0] += total
            into[1] += count
    return {name: total / count for name, (total, count) in totals.items() if count}


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(
            "perfbench: no src/repro here; run from the root of a repro checkout",
            file=sys.stderr,
        )
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    # The benchmark measures the production default kernel backend.
    os.environ.pop("REPRO_KERNEL_BACKEND", None)
    sys.path.insert(0, str(root / "src"))

    state = root / ".bench_build" / "perfbench"
    state.mkdir(parents=True, exist_ok=True)
    size = workloads.SIZES[args.size][args.workload]
    passes = [_run_pass(args, size, state, traced=False)]
    if args.trace:
        passes.append(_run_pass(args, size, state, traced=True))
        values = per_layer(passes[1], passes[0])
        units = metrics.PER_LAYER
    else:
        values = end_to_end(passes[0])
        units = metrics.END_TO_END
    stars_file = state / (
        f"stars-{args.workload}-{args.size}-{args.seed}-{program_digest(root)}.json"
    )
    for p in passes:
        _check_stars(p, stars_file)

    import repro.core.index as index

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "inputs": size,
        "temperature": workloads.TEMPERATURE[args.workload],
        "ops": [len(p.op_walls) for p in passes],
        "kernel_backend": getattr(index, "kernel_backend", lambda: None)(),
        "problems": [msg for p in passes for msg in p.problems],
        "errors": [msg for p in passes for msg in p.errors][:20],
    }
    print("record " + json.dumps(record, default=str))
    result = {
        "correct": not record["problems"],
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, (unit, _better) in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

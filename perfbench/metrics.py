"""Names, units and meaning of every metric the benchmark prints.

``BENCHMARK.json`` lists the same names and units; the tests check that
the two agree.  "op" is one unit of work of a workload: a ``run_diva``
job (anonymize-cold), a sweep point (sweep-warm) or a 100-row ``POST
/ingest`` (serve-ingest-read).  Per-layer times are the layer's *self*
time (its spans minus the wrapped calls inside them) per op, so on the
batch workloads the DIVA layers plus ``diva.self_s`` add up to
``diva.run_s``.

``MOVES`` records, for each per-layer metric, which end-to-end metric
a change to that layer is predicted to move and on which workload.
"""

from __future__ import annotations

#: name → (unit, better).  Printed from untraced runs.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "rows_per_s": ("rows/s", "higher"),
    "op_p50_s": ("s", "lower"),
    "stars_per_row": ("stars/row", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}

#: name → (unit, better).  Printed from traced runs.
PER_LAYER = {
    "enumeration.busy_s": ("s/op", "lower"),
    "enumeration.calls": ("1/op", "lower"),
    "enum_memo.hit_ratio": ("ratio", "higher"),
    "enum_memo.lookups": ("count", "lower"),
    "searchstate.init_s": ("s/op", "lower"),
    "contribution_memo.hit_ratio": ("ratio", "higher"),
    "contribution_memo.lookups": ("count", "lower"),
    "coloring.search_s": ("s/op", "lower"),
    "coloring.candidates_tried": ("1/op", "lower"),
    "coloring.backtracks": ("1/op", "lower"),
    "kmember.busy_s": ("s/op", "lower"),
    "index.build_s": ("s/op", "lower"),
    "index.builds": ("1/op", "lower"),
    "graph.build_s": ("s/op", "lower"),
    "suppress.busy_s": ("s/op", "lower"),
    "integrate.busy_s": ("s/op", "lower"),
    "diva.self_s": ("s/op", "lower"),
    "diva.run_s": ("s/op", "lower"),
    "admission.init_s": ("s/op", "lower"),
    "admission.try_admit_s": ("s/op", "lower"),
    "admission.materialize_s": ("s/op", "lower"),
    "admission.admit_ratio": ("ratio", "higher"),
    "admission.offered": ("count", "higher"),
    "ledger.publish_s": ("s/op", "lower"),
    "stream.self_s": ("s/op", "lower"),
    "stream.publish_p50_s": ("s", "lower"),
    "stream.recomputes": ("count", "lower"),
    "stream.extend_ratio": ("ratio", "higher"),
    "io.write_release_s": ("s/op", "lower"),
    "serve.publish_s": ("s", "lower"),
    "serve.request_s": ("s", "lower"),
    "ingest_tail_s": ("s", "lower"),
    "ingest_tail.pct": ("%", "higher"),
    "ingest.samples": ("count", "higher"),
    "read_p50_s": ("s", "lower"),
    "read_p99_s": ("s", "lower"),
    "read.samples": ("count", "higher"),
    "loadgen.late_p99_s": ("s", "lower"),
    "loadgen.reads": ("count", "higher"),
    "error_rate": ("ratio", "lower"),
    "trace.overhead": ("ratio", "higher"),
}

_BATCH = "op_p50_s/rows_per_s on anonymize-cold and sweep-warm"
_INGEST = "ingest latency and rows_per_s on serve-ingest-read"

#: per-layer name → the end-to-end metric and workload it should move.
MOVES = {
    "enumeration.busy_s": _BATCH + "; only setup_s on serve-ingest-read",
    "enumeration.calls": _BATCH,
    "enum_memo.hit_ratio": "op_p50_s on sweep-warm (warm memo); near 0 on anonymize-cold",
    "enum_memo.lookups": "base of enum_memo.hit_ratio",
    "searchstate.init_s": _BATCH + ", and peak_rss_mb",
    "contribution_memo.hit_ratio": "op_p50_s on both batch workloads; a memo change must show on both temperatures",
    "contribution_memo.lookups": "base of contribution_memo.hit_ratio",
    "coloring.search_s": "about 3-4% of batch wall: a search-only speed-up should move no end-to-end metric",
    "coloring.candidates_tried": "count behind coloring.search_s",
    "coloring.backtracks": "count behind coloring.search_s",
    "kmember.busy_s": "rows_per_s on both batch workloads",
    "index.build_s": "op_p50_s on anonymize-cold; near 0 per point on sweep-warm",
    "index.builds": "near 1 per job on anonymize-cold, 1 per grid on sweep-warm",
    "graph.build_s": "op_p50_s on anonymize-cold",
    "suppress.busy_s": "op_p50_s on anonymize-cold",
    "integrate.busy_s": "op_p50_s on anonymize-cold",
    "diva.self_s": "nothing yet: Diva.run wall no wrapped layer covers",
    "diva.run_s": "sum of the DIVA layers above; equals op_p50_s scale on batch workloads",
    "admission.init_s": _INGEST,
    "admission.try_admit_s": _INGEST + ", and read_p99_s through the shared interpreter lock",
    "admission.materialize_s": _INGEST,
    "admission.admit_ratio": "share of arrivals placed without a recompute on serve-ingest-read",
    "admission.offered": "base of admission.admit_ratio",
    "ledger.publish_s": _INGEST,
    "stream.self_s": _INGEST + ": engine time outside the wrapped layers",
    "stream.publish_p50_s": _INGEST,
    "stream.recomputes": _INGEST,
    "stream.extend_ratio": _INGEST,
    "io.write_release_s": _INGEST + "; a durable write shows here as a cost",
    "serve.publish_s": "read_* and ingest latency on serve-ingest-read",
    "serve.request_s": "read_* on serve-ingest-read",
    "ingest_tail_s": "tail of the ingest latency behind op_p50_s on serve-ingest-read",
    "ingest_tail.pct": "which percentile ingest_tail_s is",
    "ingest.samples": "sample count behind ingest_tail_s",
    "read_p50_s": "what a release reader sees on serve-ingest-read",
    "read_p99_s": "what a release reader sees on serve-ingest-read",
    "read.samples": "sample count behind read_p99_s",
    "loadgen.late_p99_s": "nothing: checks the load generator kept its schedule",
    "loadgen.reads": "nothing: reads the generator sent",
    "error_rate": "nothing: failed operations over attempted ones",
    "trace.overhead": "nothing: traced rows_per_s over untraced, minus 1 (negative: tracing slows the run)",
}

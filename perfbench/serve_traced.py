"""Run ``repro serve`` with the benchmark's span wrappers installed.

Usage (from the root of a checkout, ``src`` on ``PYTHONPATH``)::

    python perfbench/serve_traced.py SPANS.json serve SOURCE.csv -k 5 ...

Everything after ``SPANS.json`` is passed to the CLI unchanged.  Spans
carry the service's per-request trace id as their request id.  The span
counters restart when the service starts listening, and the memo
counters are snapshotted then and at exit, so the load phase can be told
apart from the replay that precedes it.  The spans are written to
``SPANS.json`` when the server stops.
"""

from __future__ import annotations

import sys
import time


def main(argv: list) -> int:
    dump_path, cli_argv = argv[0], argv[1:]

    from repro import cli
    from repro.obs import tracectx
    from repro.serve.service import AnonymizationService

    import spans
    from workloads import memo_stats

    def request_of():
        ctx = tracectx.current()
        return ctx.trace_id if ctx is not None else None

    tracer = spans.Tracer(request_of=request_of).install()
    marks: dict = {}
    original_start = AnonymizationService.start

    async def start(self, *args, **kwargs):
        tracer.counters.clear()
        marks["memo_before"] = memo_stats()
        marks["listening"] = time.perf_counter()
        return await original_start(self, *args, **kwargs)

    AnonymizationService.start = start
    try:
        return cli.main(cli_argv)
    finally:
        marks["memo_after"] = memo_stats()
        tracer.dump(dump_path, marks=marks)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Small statistics helpers shared by the workloads."""

from __future__ import annotations

import math
import resource
from typing import Mapping, Optional, Sequence

#: Percentiles a tail may be reported at, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (``pct`` in 0..100) of a non-empty sample."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(samples: Sequence[float]) -> tuple[Optional[float], Optional[float], int]:
    """``(pct, value, n)``: the highest ladder percentile with at least
    :data:`TAIL_BEYOND` samples above its rank, or ``(None, None, n)``
    when the sample is too small for any of them."""
    n = len(samples)
    for pct in TAIL_LADDER:
        rank = max(1, math.ceil(pct / 100.0 * n))
        if n - rank >= TAIL_BEYOND:
            return pct, percentile(samples, pct), n
    return None, None, n


def stats_delta(before: Mapping[str, int], after: Mapping[str, int]) -> dict:
    """Counter-wise ``after - before`` of two ``stats()`` snapshots."""
    return {name: after[name] - before[name] for name in after}


def hit_ratio(delta: Mapping[str, int], hits: str, misses: str) -> tuple[float, int]:
    """``(ratio, lookups)`` of a memo over a region, from a ``stats()`` delta.

    The memos' ``clear()`` keeps their cumulative counters, so only the
    difference of two snapshots taken around a region describes it.  A
    region with no lookups has ratio 0.
    """
    lookups = delta.get(hits, 0) + delta.get(misses, 0)
    return (delta.get(hits, 0) / lookups if lookups else 0.0), lookups


def own_peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> Optional[float]:
    """Peak resident set size (``VmHWM``) of a live process, in MiB."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None

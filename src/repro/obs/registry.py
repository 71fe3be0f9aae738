"""Persistent run registry and cross-run regression comparison.

Every measured run — a bench point, a ``--stats``/``--trace`` CLI run, a
CI smoke — can be appended to a :class:`RunRegistry`: one schema-versioned
JSON file per run under ``<root>/runs/``, stamped with the git SHA, a host
fingerprint and the backend/executor configuration that produced it.
Registry records are what ``repro report`` renders and ``repro compare``
diffs, turning the write-only traces of the raw obs layer into decisions
(is this PR slower? did the scheduler regress?).

Record schema (version 1)::

    {
      "schema_version": 1,
      "kind":   "bench" | "anonymize" | ...,
      "label":  "kernels" | "ci-smoke" | ...,     # comparison key
      "run_id": "<label>-<monotonic nanos>-<pid>",
      "created_at": "2026-08-06T12:00:00+00:00",
      "git_sha": "abc123..." | null,
      "host":   {hostname, platform, python, cpus},
      "config": {backend, executor, workers, ...},  # caller-supplied
      "metrics": {runtime_s: ..., accuracy: ..., ...},
      "obs":    {spans: {...}, counters: {...}} | null,
    }

Comparison semantics: :func:`compare_runs` checks every span's total
duration and every ``metrics`` entry ending in ``_s`` of the candidate
against the baseline; an entry regresses when its ratio exceeds the
threshold *and* the baseline value is above a noise floor (tiny spans
jitter by integer factors without meaning anything).
"""

from __future__ import annotations

import json
import os
import platform
import socket
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

PathLike = Union[str, Path]

#: Bump when the record layout changes incompatibly.
SCHEMA_VERSION = 1

#: Default regression threshold: candidate/baseline ratio above this fails.
DEFAULT_THRESHOLD = 1.5

#: Baseline durations below this (seconds) are too noisy to gate on.
DEFAULT_MIN_BASELINE_S = 0.001


def host_fingerprint() -> dict:
    """Where a measurement was taken (recorded, never compared)."""
    return {
        "hostname": socket.gethostname(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
    }


def git_sha(cwd: Optional[PathLike] = None) -> Optional[str]:
    """The current commit SHA, or None outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def new_record(
    kind: str,
    label: str,
    config: Optional[dict] = None,
    metrics: Optional[dict] = None,
    obs_block: Optional[dict] = None,
) -> dict:
    """Build a schema-versioned record, stamped but not yet persisted."""
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "label": label,
        "run_id": f"{label}-{time.time_ns()}-{os.getpid()}",
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "git_sha": git_sha(),
        "host": host_fingerprint(),
        "config": config or {},
        "metrics": metrics or {},
        "obs": obs_block,
    }


class RunRegistry:
    """One directory of runs: ``<root>/runs/<run_id>.json``."""

    def __init__(self, root: PathLike):
        self.root = Path(root)

    @property
    def runs_dir(self) -> Path:
        return self.root / "runs"

    def append(self, record: dict) -> Path:
        """Persist a record (see :func:`new_record`); returns its path."""
        if "schema_version" not in record:
            raise ValueError("not a registry record (missing schema_version)")
        self.runs_dir.mkdir(parents=True, exist_ok=True)
        path = self.runs_dir / f"{record['run_id']}.json"
        path.write_text(json.dumps(record, indent=2, default=str) + "\n")
        return path

    def runs(
        self, label: Optional[str] = None, kind: Optional[str] = None
    ) -> list[dict]:
        """All matching records, oldest first (run ids embed a timestamp)."""
        if not self.runs_dir.is_dir():
            return []
        records = []
        for path in sorted(self.runs_dir.glob("*.json")):
            record = load_run(path)
            if label is not None and record.get("label") != label:
                continue
            if kind is not None and record.get("kind") != kind:
                continue
            records.append(record)
        records.sort(key=lambda r: r.get("run_id", ""))
        return records

    def latest(
        self,
        label: Optional[str] = None,
        kind: Optional[str] = None,
        exclude_run_id: Optional[str] = None,
    ) -> Optional[dict]:
        """Most recent matching record (optionally skipping one run id)."""
        for record in reversed(self.runs(label=label, kind=kind)):
            if record.get("run_id") != exclude_run_id:
                return record
        return None


def load_run(path: PathLike) -> dict:
    """Read one registry record; raises ValueError on non-records."""
    with open(path) as f:
        record = json.load(f)
    if not isinstance(record, dict) or "schema_version" not in record:
        raise ValueError(f"{path}: not a registry record")
    if record["schema_version"] > SCHEMA_VERSION:
        raise ValueError(
            f"{path}: schema_version {record['schema_version']} is newer "
            f"than this code understands ({SCHEMA_VERSION})"
        )
    return record


# -- cross-run comparison ------------------------------------------------------


@dataclass
class Regression:
    """One entry of the candidate that got slower past the threshold."""

    name: str
    baseline: float
    candidate: float

    @property
    def ratio(self) -> float:
        return self.candidate / self.baseline if self.baseline else float("inf")


@dataclass
class Comparison:
    """Outcome of :func:`compare_runs`."""

    baseline_id: str
    candidate_id: str
    threshold: float
    regressions: list[Regression] = field(default_factory=list)
    improvements: list[Regression] = field(default_factory=list)
    compared: int = 0

    @property
    def ok(self) -> bool:
        return not self.regressions


def _durations(record: dict) -> dict[str, float]:
    """Every comparable duration of a record: span totals + *_s metrics."""
    out = {}
    obs_block = record.get("obs") or {}
    for name, agg in (obs_block.get("spans") or {}).items():
        total = agg.get("total_s")
        if total is not None:
            out[f"span:{name}"] = float(total)
    for name, value in (record.get("metrics") or {}).items():
        if name.endswith("_s") and isinstance(value, (int, float)):
            out[f"metric:{name}"] = float(value)
    return out


def compare_runs(
    baseline: dict,
    candidate: dict,
    threshold: float = DEFAULT_THRESHOLD,
    min_baseline_s: float = DEFAULT_MIN_BASELINE_S,
) -> Comparison:
    """Flag every common duration whose candidate/baseline ratio exceeds
    ``threshold`` (baseline must exceed the noise floor to count).  The
    symmetric improvements (ratio < 1/threshold) are reported, not gated.
    """
    if threshold <= 1.0:
        raise ValueError("threshold must be > 1.0")
    base = _durations(baseline)
    cand = _durations(candidate)
    comparison = Comparison(
        baseline_id=baseline.get("run_id", "<baseline>"),
        candidate_id=candidate.get("run_id", "<candidate>"),
        threshold=threshold,
    )
    for name in sorted(base.keys() & cand.keys()):
        comparison.compared += 1
        if base[name] < min_baseline_s:
            continue
        entry = Regression(name, base[name], cand[name])
        if cand[name] > base[name] * threshold:
            comparison.regressions.append(entry)
        elif cand[name] * threshold < base[name]:
            comparison.improvements.append(entry)
    return comparison


def render_comparison(comparison: Comparison) -> str:
    """Human-readable verdict for ``repro compare``."""
    lines = [
        f"baseline:  {comparison.baseline_id}",
        f"candidate: {comparison.candidate_id}",
        f"compared {comparison.compared} duration(s), "
        f"threshold {comparison.threshold:g}x",
    ]
    for title, entries in (
        ("regressions", comparison.regressions),
        ("improvements", comparison.improvements),
    ):
        lines.append(f"{title}:")
        if not entries:
            lines.append("  (none)")
            continue
        width = max(len(e.name) for e in entries)
        for entry in sorted(entries, key=lambda e: -e.ratio):
            lines.append(
                f"  {entry.name.ljust(width)}  "
                f"{entry.baseline:.6f}s -> {entry.candidate:.6f}s "
                f"({entry.ratio:.2f}x)"
            )
    lines.append("verdict: " + ("OK" if comparison.ok else "REGRESSION"))
    return "\n".join(lines)

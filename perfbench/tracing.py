"""In-memory spans recorded around the benchmark's calls into implbase.

A span has a name, start and end (``perf_counter_ns``), the span that
caused it, the group it belongs to (a set-up round or a timed pass) and the
run's id.  Counters ride along as extra fields.  Spans stay in memory and
are written out once, after the run.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator


class Tracer:
    """Span recorder; records nothing while ``enabled`` is false."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.enabled = False
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    @contextmanager
    def span(self, name: str, group: str | None = None) -> Iterator[dict]:
        """Record one span; the yielded dict takes counters for the span."""
        if not self.enabled:
            yield {}
            return
        parent = self._stack[-1] if self._stack else None
        record = {
            "id": len(self.spans),
            "parent": parent["id"] if parent else None,
            "run": self.run_id,
            "group": group or (parent["group"] if parent else None),
            "name": name,
            "start_ns": time.perf_counter_ns(),
            "end_ns": None,
        }
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end_ns"] = time.perf_counter_ns()
            self._stack.pop()

    def record(self, name: str, start_ns: int, end_ns: int, **fields) -> None:
        """Add a finished span under the current one: several calls folded
        into one span carry their summed wall time as ``busy_ns``."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            {
                "id": len(self.spans),
                "parent": parent["id"] if parent else None,
                "run": self.run_id,
                "group": parent["group"] if parent else None,
                "name": name,
                "start_ns": start_ns,
                "end_ns": end_ns,
                **fields,
            }
        )

    def groups(self, prefix: str) -> list[str]:
        """Groups whose name starts with ``prefix``, in recording order."""
        seen: dict[str, None] = {}
        for span in self.spans:
            group = span["group"]
            if group is not None and group.startswith(prefix):
                seen[group] = None
        return list(seen)

    def median_sum(self, name: str, prefix: str, field: str | None = None) -> float:
        """Median over the groups matching ``prefix`` of the per-group sum of
        ``field`` (span duration in ns when ``None``) over spans ``name``."""
        groups = self.groups(prefix)
        if not groups:
            return 0.0
        sums = dict.fromkeys(groups, 0)
        for span in self.spans:
            if span["name"] == name and span["group"] in sums:
                value = span["end_ns"] - span["start_ns"] if field is None else span[field]
                sums[span["group"]] += value
        return statistics.median(sums.values())

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")

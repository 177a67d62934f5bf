"""In-memory spans and counters for the traced benchmark run.

A span is (name, start, end, parent, record id, error), timed on this
thread's CPU clock so that other processes on a shared host do not show up
in it. Spans are only appended to a list while the run executes; summaries
and the span file are produced when the run ends. Self time is a span's
duration minus the part of it covered by its children; children never
overlap because everything runs on one thread. In the span file, one JSON
object per line, ``parent`` is the 0-based line of the parent span, or -1.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, record, error]
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self.record = ""

    @contextmanager
    def span(self, name: str):
        """Time the enclosed block as one call of layer ``name``.

        The yielded list holds the span; callers may rename it once the call
        returns (``sp[0] = ...``), which is how equivalence decisions are
        split by their returned reason. An exception marks the span as an
        error and propagates.
        """
        parent = self._stack[-1] if self._stack else -1
        sp = [name, 0, 0, parent, self.record, False]
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        sp[1] = time.thread_time_ns()
        try:
            yield sp
        except BaseException:
            sp[5] = True
            raise
        finally:
            sp[2] = time.thread_time_ns()
            self._stack.pop()

    def add(self, name: str, seconds: float) -> None:
        """Record a call timed elsewhere, such as a child process, as a span.

        Only its duration is meaningful: it ends at the current clock reading.
        """
        end = time.thread_time_ns()
        self.spans.append([name, end - int(seconds * 1e9), end, -1, self.record, False])

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def layers(self) -> dict[str, dict]:
        """Per-name calls, self seconds, p50/p99 duration in us, and errors."""
        covered = [0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        durations: dict[str, list[int]] = {}
        summary: dict[str, dict] = {}
        for i, (name, start, end, _, _, error) in enumerate(self.spans):
            durations.setdefault(name, []).append(end - start)
            entry = summary.setdefault(name, {"calls": 0, "s": 0.0, "errors": 0})
            entry["calls"] += 1
            entry["s"] += (end - start - covered[i]) / 1e9
            entry["errors"] += int(error)
        for name, values in durations.items():
            p50, p99 = percentiles(values)
            summary[name]["p50_us"] = p50 / 1e3
            summary[name]["p99_us"] = p99 / 1e3
        return summary

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, record, error in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                            "record": record,
                            "error": error,
                        }
                    )
                    + "\n"
                )


def percentiles(values) -> tuple[float, float]:
    """Median and 99th percentile (inclusive method); one value gives itself."""
    if len(values) == 1:
        return values[0], values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return statistics.median(values), cuts[98]

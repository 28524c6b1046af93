"""In-memory spans and the statistics the harness reports from them.

A span records one call the benchmark makes into a kextract module:
its name, start and end (``time.perf_counter`` seconds), the index of
the span that was open when it started, the job it belongs to, and a
dict of attributes (work counts such as subsets or bytes).  Spans stay
in memory until the run ends; ``Tracer.dump`` writes them out then.

With tracing off, ``Tracer.span`` hands back a throwaway dict and
records nothing, so the untraced run pays only a function call.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    job: object
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder for one benchmark process, single-threaded."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.job: object = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield attrs
            return
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent, self.job, attrs))
        self._open.append(index)
        try:
            yield attrs
        finally:
            self.spans[index].end = time.perf_counter()
            self._open.pop()

    def open_span(self) -> Optional[Span]:
        return self.spans[self._open[-1]] if self._open else None

    def dump(self, path, extra: dict) -> None:
        selfs = self_times(self.spans)
        rows = [dict(asdict(s), self_s=t) for s, t in zip(self.spans, selfs)]
        with open(path, "w") as fh:
            json.dump(dict(extra, spans=rows), fh, default=str)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    Children are clipped to the parent's interval and merged before
    subtracting, so overlapping or overhanging children never count
    twice or drive a self time negative.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for idx, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(idx, [])):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(s.duration - covered)
    return out


def tail_percentile(values: list[float], beyond: int = 10) -> tuple[float, int, int]:
    """(value, percentile, sample count) of the highest whole percentile
    that has at least ``beyond`` samples above its nearest-rank position.

    With fewer than ``beyond + 1`` samples no percentile qualifies and
    the median is returned as percentile 50.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= beyond:
            return xs[rank - 1], p, n
    return statistics.median(xs), 50, n

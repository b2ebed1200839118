"""In-memory spans recorded around calls into the program's layers.

A span is (name, start, end, parent).  Names are ``<layer>.<call>``, where
the layer is the rklda module the call belongs to.  Spans are kept in a list,
which the benchmark writes out once, when the run ends.  A span's self time is its duration
minus the time its child spans cover.
"""

import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Records nested spans; a disabled tracer records nothing."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._open.pop()

    def total(self, name: str) -> float:
        """Summed duration of every span with this name."""
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        child_time = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(float)
        for index, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - child_time[index]
        return dict(out)

"""In-memory span tracer installed from outside the package.

Each traced function is replaced at the name its caller looks up (a module
global or a class attribute) by a wrapper that records one span: operation
index, name, start, end and the index of the enclosing span.  Spans stay in
memory until :meth:`Tracer.flush` writes them once; :meth:`Tracer.uninstall`
puts every original object back.
"""

from __future__ import annotations

import csv
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list = []        # (op, name, start, end, parent index)
        self.counts: dict = defaultdict(float)
        self.op = 0
        self._stack: list[int] = []
        self._installed: list = []   # (owner, attribute, original)
        self._t0 = time.perf_counter()

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``count(result)``, when given, returns a dict of counter increments
        that is added to ``counts`` after each successful call.
        """
        original = vars(owner)[attr]
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (self.op, name, start, end, parent)
            if count is not None:
                for key, value in count(result).items():
                    counts[key] += value
            return result

        setattr(owner, attr, traced)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute and check that it took."""
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        left = [f"{getattr(owner, '__name__', owner)}.{attr}"
                for owner, attr, original in self._installed
                if vars(owner)[attr] is not original]
        self._installed.clear()
        if left:
            raise RuntimeError(f"wrappers left installed: {left}")

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds.

        Self time is a span's duration minus the time its direct children
        cover; calls run on one thread, so children never overlap.
        """
        covered = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        stats = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for index, (_, name, start, end, _) in enumerate(self.spans):
            entry = stats[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - covered[index]
        return dict(stats)

    def outermost_s(self, prefix: str) -> float:
        """Seconds inside spans named ``prefix*`` not nested in another one."""
        total = 0.0
        for _, name, start, end, parent in self.spans:
            if name.startswith(prefix) and not (
                    parent >= 0 and self.spans[parent][1].startswith(prefix)):
                total += end - start
        return total

    def flush(self, path) -> None:
        """Write all spans as CSV, times in seconds since the tracer began."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "op", "name", "start_s", "end_s",
                             "parent"])
            for index, (op, name, start, end, parent) in enumerate(self.spans):
                writer.writerow([index, op, name, f"{start - self._t0:.9f}",
                                 f"{end - self._t0:.9f}", parent])

"""In-memory spans and counters recorded around the benchmark's calls.

A span records its name, start, end, parent span and op id.  Spans stay in
memory until the run ends; then ``self_times`` folds them into per-name self
time (a span's length minus the time its child spans cover) and ``dump``
writes them out.  There is one caller thread and no queue, so no span ever
waits.  ``NULL`` has the same interface and records nothing; untraced runs
use it.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter

# span record fields
NAME, START, END, PARENT, OP, ERROR = range(6)


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op_id: int | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = [name, perf_counter(), None, self._stack[-1] if self._stack else None, self.op_id, False]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        except Exception:
            rec[ERROR] = True
            raise
        finally:
            rec[END] = perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    def self_times(self) -> dict[str, tuple[float, int, int]]:
        """Per span name: (total self seconds, calls, calls that raised)."""
        child_time = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] is not None:
                child_time[rec[PARENT]] += rec[END] - rec[START]
        out: dict[str, list] = defaultdict(lambda: [0.0, 0, 0])
        for k, rec in enumerate(self.spans):
            agg = out[rec[NAME]]
            agg[0] += rec[END] - rec[START] - child_time[k]
            agg[1] += 1
            agg[2] += int(rec[ERROR])
        return {name: tuple(v) for name, v in out.items()}

    def dump(self, path: str) -> None:
        """Write every span as one JSON line: name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            for k, rec in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": k,
                            "name": rec[NAME],
                            "start": rec[START],
                            "end": rec[END],
                            "parent": rec[PARENT],
                            "op": rec[OP],
                            "error": rec[ERROR],
                        }
                    )
                    + "\n"
                )


class _NullTracer:
    enabled = False
    _ctx = nullcontext()

    def span(self, name: str):
        return self._ctx

    def count(self, name: str, value: float = 1) -> None:
        pass


NULL = _NullTracer()

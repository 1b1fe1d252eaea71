"""In-memory spans and call counters around liftcomp's public functions.

The tracer rebinds a function in the module that looks it up (for
example ``liftcomp.eacp.phase1_group``, the name ``run_eacp`` calls), so
the library itself is left untouched. Each span records its name, start,
end, parent span and the id of the top-level operation it belongs to.
Functions called ~10^5 times per model are counted instead of spanned.
Wrappers do nothing extra while ``enabled`` is false, which is how the
benchmark keeps its output checks out of the trace.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Any, Callable

# span record layout: [name, start, end, parent index or None, op id, error or None]
NAME, START, END, PARENT, OP, ERROR = range(6)


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[list[Any]] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._cells: dict[str, list[int]] = {}   # call counters, see count()
        self._patches: list[tuple[object, str, Callable]] = []

    def span(
        self,
        module: object,
        attr: str,
        name: str,
        on_result: Callable[[Counter, tuple, Any], None] | None = None,
    ) -> None:
        """Rebind module.attr so each enabled call records one span."""
        fn = getattr(module, attr)

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            op = index if parent is None else self.spans[parent][OP]
            record = [name, time.perf_counter(), 0.0, parent, op, None]
            self.spans.append(record)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record[ERROR] = type(exc).__name__
                raise
            finally:
                record[END] = time.perf_counter()
                self._stack.pop()
            if on_result is not None:
                on_result(self.counts, args, result)
            return result

        self._rebind(module, attr, fn, wrapper)

    def count(self, module: object, attr: str, name: str) -> None:
        """Rebind module.attr so each enabled call bumps counts[name]."""
        fn = getattr(module, attr)
        cell = self._cells.setdefault(name, [0])
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.enabled:
                cell[0] += 1
            return fn(*args, **kwargs)

        self._rebind(module, attr, fn, wrapper)

    def _rebind(self, module: object, attr: str, fn: Callable, wrapper: Callable) -> None:
        setattr(module, attr, wrapper)
        self._patches.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()

    def reset(self) -> None:
        """Start a fresh window; export() the previous one first."""
        self.spans = []
        self.counts.clear()
        for cell in self._cells.values():
            cell[0] = 0

    def totals(self) -> Counter[str]:
        """Counts from on_result hooks plus call counters, for this window."""
        return self.counts + Counter({name: cell[0] for name, cell in self._cells.items()})

    def self_times(self) -> Counter[str]:
        """Seconds per span name, minus the time covered by child spans."""
        out: Counter[str] = Counter()
        for record in self.spans:
            duration = record[END] - record[START]
            out[record[NAME]] += duration
            if record[PARENT] is not None:
                out[self.spans[record[PARENT]][NAME]] -= duration
        return out

    def export(self, window: str) -> list[dict[str, Any]]:
        """Current spans as JSON-ready dicts tagged with a window label."""
        return [
            {
                "window": window,
                "id": i,
                "name": r[NAME],
                "start": r[START],
                "end": r[END],
                "parent": r[PARENT],
                "op": r[OP],
                "error": r[ERROR],
            }
            for i, r in enumerate(self.spans)
        ]

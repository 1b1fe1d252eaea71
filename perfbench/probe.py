"""Machine-speed probe that turns measured seconds into reference seconds.

On a shared 2-vCPU Xeon VM the same code runs up to 1.7x faster or
slower from one minute to the next, which swamps the differences the
benchmark exists to show. So a fixed pure-Python loop (string keys,
dicts, sets, a list scan and a sort: the bookkeeping that dominates
liftcomp's VE and colour passing) is timed next to every measured
operation: before it, unless a probe ran in the last INTERVAL_S, and
again after any operation longer than that. A probe is the median of
three runs of the loop. A reported time is the measured time scaled by
REFERENCE_S / probe time: seconds on a machine where the probe takes
REFERENCE_S. The probe never calls liftcomp, so a change to liftcomp
moves reference seconds exactly as it moves measured seconds.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# about the median probe on the 2-vCPU Xeon VM the bounds were set on
REFERENCE_S = 0.00075
INTERVAL_S = 0.1
_NAMES = [f"B{i}_{j}" for i in range(100) for j in range(4)]


def _reference_work() -> None:
    neighbours: dict[str, set[str]] = {}
    for a, b in zip(_NAMES, _NAMES[1:]):
        neighbours.setdefault(a, set()).add(b)
    scopes = list(zip(_NAMES[:300], _NAMES[1:301]))
    for name in _NAMES[:40]:
        [scope for scope in scopes if name in scope]
    sorted(neighbours, key=lambda v: (len(neighbours[v]), v))


class Speed:
    def __init__(self) -> None:
        self.samples: list[float] = []   # every probe, in order
        self._at = float("-inf")
        self.probe()

    def probe(self) -> float:
        runs = []
        for _ in range(3):
            begin = perf_counter()
            _reference_work()
            runs.append(perf_counter() - begin)
        self._at = perf_counter()
        self.samples.append(statistics.median(runs))
        return self.samples[-1]

    def due(self) -> float:
        """Latest probe, probing first if it is older than INTERVAL_S."""
        if perf_counter() - self._at > INTERVAL_S:
            return self.probe()
        return self.samples[-1]

    def scale(self, seconds: float, before: float) -> float:
        """Reference seconds of an operation that started after probe `before`."""
        probe = before
        if seconds > INTERVAL_S:
            probe = (before + self.probe()) / 2
        return seconds * REFERENCE_S / probe

    def since(self, first: int) -> float:
        """Median probe from sample index `first` on."""
        return statistics.median(self.samples[first:] or self.samples[-1:])

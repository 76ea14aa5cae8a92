"""The machine's speed, read from a fixed reference task.

A shared virtual machine can run the same Python code at up to half its
usual speed for tens of seconds at a time, when other guests load the host.
Raw wall times then say more about the neighbours than about the checker.
So the benchmark runs a fixed reference task between operations and scales
each time it reports by how fast that task ran at the time:

    reported = measured * REFERENCE_S / (mean reference time around it)

A reported time reads as seconds on a machine that runs the reference task
in REFERENCE_S. Set-up, which is mostly starting a process and loading
modules, follows the reference task less closely than it follows a bare
interpreter's start; `run.py` scales it by that instead, to BARE_START_S. The task does what the checker does most: small objects,
dictionary lookups and updates, calls and list growth. A pure arithmetic
loop follows the slow spells far less closely. The task imports nothing
from `efl`, so a change to the checker cannot change it.
"""
from __future__ import annotations

import bisect
import time

REFERENCE_S = 0.010   # the reference task's time at nominal speed
CELL_STEPS = 16_000   # about two thirds of it
CLOSURE_ROUNDS = 40   # and the rest
BARE_START_S = 0.050  # a bare interpreter's start at nominal speed
NEAR = 3              # samples on each side of an operation that scale it
EVERY_S = 0.1         # the longest gap between samples, outside operations
clock = time.perf_counter


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b


def _step(cell: _Cell, table: dict, i: int) -> _Cell:
    k = (i * 7919) % 1009
    table[k] = table.get(k, 0) + cell.a
    return _Cell(cell.b, k)


# Fixed small sets for the closure part, as a subeffect check closes over
# the atoms of its constraints.
_SETS = [frozenset((i * 13 + j * 7) % 40 for j in range(1 + i % 5))
         for i in range(300)]


def reference_task() -> float:
    """Run the reference task once; its wall time in seconds."""
    t0 = clock()
    table: dict[int, int] = {}
    cell = _Cell(1, 2)
    kept = []
    for i in range(CELL_STEPS):
        cell = _step(cell, table, i)
        if i % 16 == 0:
            kept.append((cell.a, cell.b))
    kept.sort()
    for r in range(CLOSURE_ROUNDS):
        covered = set(_SETS[r])
        rules = [(_SETS[i], _SETS[(i * 7 + r) % 300]) for i in range(300)]
        changed = True
        while changed:
            changed = False
            for lhs, rhs in rules:
                if rhs <= covered and not lhs <= covered:
                    covered |= lhs
                    changed = True
    return clock() - t0


class Speed:
    """Reference samples taken between operations.

    An operation is scaled by the samples taken around it: the speed can
    change within a second, so a median over a whole round would misjudge
    an operation that ran in a slow spell of its own.
    """

    def __init__(self) -> None:
        self.ends: list[float] = []       # when each sample ended
        self.durations: list[float] = []  # and how long it took

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            self.durations.append(reference_task())
            self.ends.append(clock())

    def between(self) -> None:
        """Call before each operation: samples if a while has passed since
        the last sample, and so always right after a long operation."""
        if not self.ends or clock() - self.ends[-1] >= EVERY_S:
            self.sample()

    def scale(self, t0: float, t1: float) -> float:
        """Factor that brings a time measured from t0 to t1 to nominal
        speed: REFERENCE_S over the mean reference time around it.

        The samples are those within the operation's own length before t0
        and after t1, and at least NEAR on each side. Spells shorter than a
        long operation come and go during it; the samples of a window as
        long as the operation see about as many of them, and their mean
        slows as the operation's time does. The highest and the lowest
        sample are left out, so that one sample caught in a spell the
        operation missed does not move a short operation's factor much.
        """
        span = t1 - t0
        before = bisect.bisect_right(self.ends, t0)
        first = min(bisect.bisect_left(self.ends, t0 - span), before - NEAR)
        after = bisect.bisect_left(self.ends, t1)
        last = max(bisect.bisect_right(self.ends, t1 + span), after + NEAR)
        near = sorted(self.durations[max(0, first):before]
                      + self.durations[after:last])[1:-1]
        return REFERENCE_S * len(near) / sum(near)

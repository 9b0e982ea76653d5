"""Host speed, measured by fixed work that never touches the library.

The 2-vCPU VM this benchmark was defined on ran the same Python code up to
1.8x slower for spells lasting from a second to minutes (a reference job's
2-second medians ranged 23-41 ms within one minute), which no amount of
repetition inside a 30-second run averages out.  So every timing is taken
next to a run of `reference_work`, and scaled by NOMINAL_REF_S over the
reference time measured around it: a scaled timing reads what it would at
the nominal host speed.  The reference loop uses the same kinds of
operations as the library (str formatting, dicts, tuples, sorting) and no
library code, so a change to the library moves scaled timings in the same
proportion as raw ones.  Run output prints the raw figures beside the
scaled.
"""

from __future__ import annotations

import statistics
import time

NOMINAL_REF_S = 0.003


def reference_work() -> int:
    # Keys are int tuples: string hashes change with each process's hash
    # seed, which would make the reference itself vary between runs.
    table = {}
    for i in range(3000):
        table[(i % 997, i)] = (i, -i, f"c_{i % 997}_{i}")
    return len(sorted(table.items(), key=lambda kv: kv[1][1]))


def reference_seconds() -> float:
    """The faster of two reference runs, so one interruption does not count."""
    times = []
    for _ in range(2):
        start = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - start)
    return min(times)


def factors(refs: list[float], width: int = 1) -> list[float]:
    """Scale factor per timing: NOMINAL_REF_S over the median reference
    time of the timings within `width` places of it, in run order.  A
    reference is taken before each timing, so the window around a timing
    brackets it."""
    return [
        NOMINAL_REF_S / statistics.median(refs[max(0, i - width) : i + width + 1])
        for i in range(len(refs))
    ]

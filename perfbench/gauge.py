"""A CPU-speed gauge, and the scaling of measured times to reference seconds.

Other tenants of a shared host slow this process's CPU for stretches of
2-25 s, by up to ~1.5x on a shared 2-vCPU Intel Xeon VM; a whole 25 s run
can fall inside one such stretch.  So the benchmark times a fixed pure-Python loop
(the gauge) every ~0.1 s between solves and scales each solve's time by
REFERENCE_S / (mean of the gauge readings either side of it).  The result
is in reference seconds: seconds on a CPU that runs the gauge in
REFERENCE_S, which is about the uncontended gauge time of that VM.
The gauge lives in the benchmark, so no change to the program moves it.
"""

from __future__ import annotations

from time import perf_counter

LOOPS = 50_000
REFERENCE_S = 0.003


def gauge() -> float:
    """Seconds the fixed loop takes right now."""
    t0 = perf_counter()
    x = 0.0
    for i in range(LOOPS):
        x += i * 0.5
    return perf_counter() - t0


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between gauge readings ``before`` and ``after``,
    in reference seconds."""
    return seconds * REFERENCE_S * 2 / (before + after)

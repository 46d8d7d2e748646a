"""The host's speed, read from fixed reference loops.

A shared virtual CPU changes speed by up to 2x over seconds to minutes, for
reasons the benchmark cannot see or control.  Every time the benchmark
reports is therefore scaled to a fixed reference speed: a reference mix of
small loops runs right before each request and once after the last, and a
request's time is multiplied by the mix's reference time over the mean of
the mix times just before and just after it.  The loops are the benchmark's own code and never call
`tailquant`, so a change to the program moves the scaled times and a change
of host speed does not.

Host speed moves interpreted code and array code by different amounts, so a
mix is chosen to do what a workload does:

- ``interpreted``: scalar `math` calls with function calls and small dicts;
  a continued fraction in plain float arithmetic; a numpy sort and log.
  For workloads whose time goes to the interpreter.
- ``array``: a walk over a large list; the continued fraction; the numpy
  sort and log.  For workloads whose time goes to O(n) array work.
- ``import``: the first two loops of ``interpreted`` and the list walk.  It
  imports nothing, so it can run in a fresh interpreter before a timed cold
  import without taking numpy's import out of the timing.
"""

from __future__ import annotations

import math
import time

_FLOOR = 1e-30
_WALKED = [float(i) for i in range(200_000)]
_ARRAY = None


def _interpreted_step(x: float, table: dict) -> tuple[float, float]:
    y = math.exp(0.5 * math.log(x) + math.log1p(-0.5 * x))
    table[round(x, 2)] = y
    return y, x / (1.0 + y)


def _interpreted() -> float:
    table: dict = {}
    total = 0.0
    for i in range(1, 2500):
        y, z = _interpreted_step(i / 2500.0, table)
        total += y - z
    return total + len(table)


def _continued_fraction() -> float:
    """Lentz's method for the incomplete-beta continued fraction at 150 points."""
    a, b = 5.0, 300.0
    total = 0.0
    for i in range(1, 150):
        x = i / 3000.0
        c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
        d = 1.0 / (d if abs(d) > _FLOOR else _FLOOR)
        h = d
        for m in range(1, 200):
            m2 = 2 * m
            for aa in (m * (b - m) * x / ((a - 1.0 + m2) * (a + m2)),
                       -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1.0 + m2))):
                d = 1.0 + aa * d
                d = 1.0 / (d if abs(d) > _FLOOR else _FLOOR)
                c = 1.0 + aa / c
                c = c if abs(c) > _FLOOR else _FLOOR
                h *= d * c
            if abs(d * c - 1.0) < 1e-14:
                break
        total += h
    return total


def _array() -> float:
    global _ARRAY
    import numpy as np

    if _ARRAY is None:
        _ARRAY = np.random.default_rng(12345).random(60_000)
    return float(np.sort(_ARRAY)[100]) + float(np.log1p(_ARRAY).sum())


def _walk() -> float:
    total = 0.0
    for x in _WALKED[::4]:
        total += x
    return total


MIXES = {
    "interpreted": (_interpreted, _continued_fraction, _array),
    "array": (_walk, _continued_fraction, _array),
    "import": (_interpreted, _continued_fraction, _walk),
}

# Time of one run of each mix at the reference speed.  Each is close to the
# mix's median on the 2-vCPU host on which the benchmark was written, so
# scaled times there read close to wall-clock times.
REFERENCE_S = {"interpreted": 0.009, "array": 0.006, "import": 0.010}


def reference_loop(mix: str) -> float:
    """Run a reference mix once and return the seconds it took."""
    loops = MIXES[mix]
    t0 = time.perf_counter()
    results = [loop() for loop in loops]
    elapsed = time.perf_counter() - t0
    if not all(math.isfinite(r) for r in results):
        raise AssertionError(f"reference mix {mix} gave {results}")
    return elapsed


def median(values) -> float:
    """Median, without importing `statistics` ahead of a timed cold import."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def scale_factors(mix: str, loop_times: list[float]) -> list[float]:
    """Per request, the reference time over the mean of the mix times around it.

    ``loop_times`` holds one more time than there are requests: the mix ran
    before each request and once after the last.
    """
    return [2.0 * REFERENCE_S[mix] / (before + after) for before, after in zip(loop_times, loop_times[1:])]


def scaled(mix: str, times: list[float], loop_times: list[float]) -> list[float]:
    """Each time at the reference speed, by the mix times just before and after it."""
    if len(loop_times) != len(times) + 1:
        raise ValueError(f"{len(times)} times need {len(times) + 1} loop times, got {len(loop_times)}")
    return [t * f for t, f in zip(times, scale_factors(mix, loop_times))]

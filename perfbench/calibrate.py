"""Calibration: a fixed stretch of interpreter work timed between requests.

On a shared host the speed of this process drifts, by up to a factor of two
over tens of seconds, with the load that other tenants put on the machine.
So the benchmark times the calibration before and after every stretch of
about ``CAL_EVERY_S`` of requests and scales every time it reports to the
speed at which the calibration takes ``CAL_REF_NS``: a time t is reported
as ``t * CAL_REF_NS / c``, where c is the median of the ``CAL_WINDOW``
calibrations on each side of t.  The work mixes what the package itself
does most (small frozen dataclasses built, hashed, compared, sorted and
walked recursively, and tuple-keyed dicts), so that it slows down with the
host the way the package does.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from time import perf_counter, perf_counter_ns

CAL_EVERY_S = 0.05
CAL_WINDOW = 3
CAL_REF_NS = 2_000_000


@dataclass(frozen=True)
class _Cell:
    tag: str
    kids: tuple


def _grow(depth: int) -> _Cell:
    if depth <= 0:
        return _Cell("leaf", ())
    return _Cell("node", (_grow(depth - 1), _grow(depth - 2)))


def _count(cell: _Cell, acc: dict) -> dict:
    acc[cell.tag] = acc.get(cell.tag, 0) + 1
    for kid in cell.kids:
        _count(kid, acc)
    return acc


def calibration_ns() -> int:
    """Time of a fixed stretch of interpreter work like the package's own:
    small frozen dataclasses built, hashed, compared, sorted and walked
    recursively, and tuple-keyed dicts."""
    start = perf_counter_ns()
    table: dict = {}
    for i in range(1500):
        key = (i % 97, "x", i & 7)
        table[key] = table.get(key, 0) + len(str(i))
    tree = _grow(10)
    _count(tree, {})
    hash(tree)
    cells = [_Cell(str(i % 11), (i, i & 3)) for i in range(750)]
    _ = {c.kids: c.tag for c in cells}
    sorted(set(cells), key=lambda c: c.kids)
    return perf_counter_ns() - start


def scaled_seconds(fn):
    """Run ``fn``; return its result and its time scaled to reference speed."""
    before = calibration_ns()
    start = perf_counter()
    result = fn()
    took = perf_counter() - start
    return result, took * CAL_REF_NS / ((before + calibration_ns()) / 2)


def scale(raw, cals, cuts):
    """Scale each stretch of requests by the median of the calibrations
    nearest to it (CAL_WINDOW on each side), which follows the host's
    slower swings without passing on the noise of single samples."""
    out: list[float] = []
    for j in range(len(cuts) - 1):
        near = cals[max(0, j + 1 - CAL_WINDOW) : j + 1 + CAL_WINDOW]
        factor = CAL_REF_NS / statistics.median(near)
        out.extend(x * factor for x in raw[cuts[j] : cuts[j + 1]])
    return out

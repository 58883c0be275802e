"""Machine-speed references for normalizing measured times.

The benchmark host is shared. The same document takes from 28 ms to 56 ms
depending on what other tenants run, in phases of seconds to minutes, and
CPU time moves with wall time, so the slowdown is in the processor itself.
A reference is a fixed pure-Python loop shaped like one kind of the
program's hot code; timing it just before and just after a document and
dividing the document's time by their mean cancels the host's speed for
that kind of code. Multiplying by ``REFERENCE_S`` states the result in
seconds on a machine that runs the reference in 4 ms, which is about what
this host does when nothing else competes for it.

This module imports nothing beyond ``time``: it measures the machine, not
stratagem, and loading it must not pre-load anything the program imports.
"""

from __future__ import annotations

from time import perf_counter

REFERENCE_S = 0.004
_TEXT_ROUNDS = 54  # sized so each reference takes about 4 ms here at full speed
_SCAN_STRIDE = 8

_ADVANCES = {chr(c): 200 + (c * 37) % 800 for c in range(32, 383)}
_WORDS = ("market", "revenue", "Ōkubo", "growth", "supply", "chain", "São", "margin") * 6


def text_reference() -> float:
    """Seconds for a greedy word wrap over per-character advance widths,
    the shape of text fitting and of most Python-level work."""
    start = perf_counter()
    total = 0.0
    for _ in range(_TEXT_ROUNDS):
        line = ""
        for word in _WORDS:
            trial = f"{line} {word}" if line else word
            width = sum(_ADVANCES.get(ch, 600) for ch in trial) * 0.012
            line = trial if width < 240.0 else word
            total += width
    return perf_counter() - start


class _Metric:
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


_METRICS = tuple(_Metric(f"Number of stores segment {k}") for k in range(240))
_ENTITIES = tuple(f"Company {k} & Co" for k in range(200))
_VALUES = tuple(tuple(float(i * j) for j in range(240)) for i in range(200))


def scan_reference() -> float:
    """Seconds for name lookups that rebuild and scan name lists, the
    shape of cell lookups in a large entity x metric table."""
    start = perf_counter()
    total = 0.0
    for metric in _METRICS[::_SCAN_STRIDE]:
        for entity in _ENTITIES[::10]:
            i = _ENTITIES.index(entity)
            j = [m.name for m in _METRICS].index(metric.name)
            total += _VALUES[i][j]
    return perf_counter() - start

"""Spans recorded from outside the program, around calls into its layers.

A :class:`Tracer` replaces chosen public functions with timing wrappers
while it is installed and puts the originals back when it is removed.
Nothing under ``src/`` knows about it.  Spans are kept in memory as
``(name, seconds, detail)`` and summarised when the run ends.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Tracer:
    """Timing wrappers around ``owner.attr`` functions, installable per block."""

    def __init__(self) -> None:
        self._targets: list[tuple[object, str, str, object]] = []
        self._originals: list[tuple[object, str, object]] = []
        #: span name -> list of (seconds, detail)
        self.spans: dict[str, list[tuple[float, object]]] = defaultdict(list)

    def wrap(self, owner, attr: str, name: str, detail=None) -> None:
        """Register ``owner.attr``; ``detail(args, result)`` tags each span."""
        self._targets.append((owner, attr, name, detail))

    @property
    def installed(self) -> bool:
        return bool(self._originals)

    def install(self) -> None:
        if self.installed:
            return
        for owner, attr, name, detail in self._targets:
            # Read through __dict__ for classes so the plain function is
            # wrapped, not a bound method.
            original = vars(owner)[attr]
            setattr(owner, attr, self._wrapper(original, name, detail))
            self._originals.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def _wrapper(self, original, name: str, detail):
        record = self.spans[name].append
        clock = time.perf_counter

        def traced(*args, **kwargs):
            started = clock()
            result = original(*args, **kwargs)
            elapsed = clock() - started
            record((elapsed, detail(args, result) if detail is not None else None))
            return result

        traced.__wrapped__ = original
        return traced

    # ------------------------------------------------------------------ #
    # Summaries
    # ------------------------------------------------------------------ #
    def seconds(self, name: str) -> list[float]:
        return [seconds for seconds, _ in self.spans.get(name, ())]

    def details(self, name: str) -> list[tuple[float, object]]:
        return list(self.spans.get(name, ()))

    def total(self, name: str) -> float:
        return sum(self.seconds(name))

"""Wall time rescaled to a fixed machine speed, so that runs on a shared host compare.

On a 2-vCPU VM that shares its host with other tenants the same calls take
15-30% longer for minutes at a time, and no run of a minute averages that
out.  The slowdown hits any code that runs at that moment, so the benchmark
measures it with a fixed reference kernel of its own and divides it out:

* a timed call is cut into segments at the entry and exit of the program's
  public functions (the ones the tracer wraps, and ``CUT_ONLY``: the
  polynomial operations and factorials that run for seconds between them),
  at most one cut every ``SPACING`` seconds;
* at every cut the reference kernel runs twice and is timed;
* a segment of ``t`` seconds counts ``t * REF_SECONDS / r``, where ``r`` is
  the mean of the reference times at its two ends.

The sum, ``wall_at_ref_s``, is the call's wall time on a machine where the
reference kernel takes ``REF_SECONDS``.  The kernel is the benchmark's own
code, so a change to the program moves the sum exactly as it moves the wall
time.  Kernel time and cut overhead are left out of both sums.

The kernel runs in the calling thread between program calls.  Work that the
program leaves running in other threads or processes at a cut slows the
kernel as well, so a parallel change should also be read on the plain
``wall_s`` that the runs print.
"""

from __future__ import annotations

import functools
import time
from fractions import Fraction

from spans import TARGETS, Target, rebind

# the scale of wall_at_ref_s, not what it compares: chosen so that on a quiet
# core of a 2-vCPU x86-64 VM with CPython 3.11 it reads about the plain wall time
REF_SECONDS = 0.00032
SPACING = 0.1  # seconds of program time between cuts, at least
REF_RUNS = 2  # kernel runs per cut: two spread less than one, more cost more
# cut points that are too hot to trace; a cut costs a clock read when it is
# not taken, and one the program no longer has is skipped
CUT_ONLY = tuple(
    Target(f"{module}.{attr}", f"bhkovacic.{module}", attr)
    for module, attr in (
        ("algebra", "Poly.__mul__"),
        ("algebra", "Poly.__add__"),
        ("algebra", "Poly.__sub__"),
        ("algebra", "Poly.derivative"),
        ("algebra", "Poly.shift"),
        ("algebra", "Poly.scale_variable"),
        ("algebra", "falling_factorial"),
        ("algebra", "pochhammer"),
        ("hautot", "laguerre_poly"),
        ("hautot", "kummer_poly"),
    )
)

_BIG = 3**2000 + 1
_FRACTION = Fraction(5**400 + 3, 7**300 + 11)


def reference_kernel() -> int:
    """A fixed mix like the program's: a big-integer two-term recurrence,
    exact rationals with large numerators, and small-object interpreter work."""
    prev, cur = 1, _BIG
    for n in range(1, 200):
        prev, cur = cur, (n * n - 7 * n + 3) * cur - (n + 5) * n * prev
    total = _FRACTION
    for k in range(1, 13):
        total = total * Fraction(k + 2, k) + Fraction(cur % 1000 + k, 3 * k + 1)
    table = {}
    for i in range(200):
        table[i] = (i * i) % 17
    return cur.bit_length() + total.denominator.bit_length() + len(table)


def time_reference() -> float:
    """Seconds per run of the reference kernel, the mean of ``REF_RUNS`` runs."""
    t0 = time.perf_counter()
    for _ in range(REF_RUNS):
        reference_kernel()
    return (time.perf_counter() - t0) / REF_RUNS


class Pacer:
    """Cuts one timed call into segments and times the reference kernel at each cut."""

    def __init__(self):
        self.segments: list[tuple] = []  # (seconds, reference before, reference after)
        self._undo: list = []
        self._ref = 0.0
        self._since = 0.0

    def _cut(self, force: bool = False) -> None:
        now = time.perf_counter()
        if not force and now - self._since < SPACING:
            return
        ref = time_reference()
        self.segments.append((now - self._since, self._ref, ref))
        self._ref = ref
        self._since = time.perf_counter()

    def _wrap(self, target, fn):
        @functools.wraps(fn)
        def paced(*args, **kwargs):
            self._cut()
            try:
                return fn(*args, **kwargs)
            finally:
                self._cut()

        return paced

    def run(self, calls):
        """Call ``calls()`` with the cuts installed; its result."""
        self.segments.clear()
        self._undo = rebind(TARGETS + CUT_ONLY, self._wrap, missing_ok=True)
        try:
            self._ref = time_reference()
            self._since = time.perf_counter()
            result = calls()
            self._cut(force=True)
        finally:
            while self._undo:
                holder, key, original = self._undo.pop()
                setattr(holder, key, original)
        return result

    @property
    def wall_s(self) -> float:
        """The call's own wall time: the segments without kernel and cut overhead."""
        return sum(seconds for seconds, _, _ in self.segments)

    @property
    def wall_at_ref_s(self) -> float:
        return sum(
            seconds * REF_SECONDS / ((before + after) / 2)
            for seconds, before, after in self.segments
        )

    @property
    def reference_s(self) -> list:
        """Every reference time taken, in order."""
        if not self.segments:
            return []
        return [self.segments[0][1]] + [after for _, _, after in self.segments]

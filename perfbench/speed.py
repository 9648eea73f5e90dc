"""CPU time rescaled to a reference machine speed.

On a shared virtual machine the same pure-Python code runs up to twice as
slow at some moments as at others, and the slow spells last from
milliseconds to minutes: the host gives the core's other hardware thread,
caches and memory bandwidth to other guests.  CPU time does not exclude
that, so a 30 s operation measured twice can differ by a third.

``SpeedClock`` measures the machine's speed while an operation runs: a fixed
*probe* (a small recursive walk over tuples of ints, the kind of code the
library spends its time in) runs from a wall-clock timer every
``INTERVAL_S`` seconds during the operation, and twice just before and just
after it, keeping the shorter of the two: an operation shorter than the
interval rests on those two readings alone, so one stretched by an
interrupt must not count.  The operation's CPU time is cut at the probes;
each piece is scaled by ``PROBE_REF_S`` over the mean of the probe lengths
at its two ends, and the scaled pieces are summed; the probes' own time is
not counted.  The result reads as the CPU seconds the operation would take with the machine running
at the speed at which one probe takes ``PROBE_REF_S`` (its unloaded speed
on the 2-vCPU Xeon VM the benchmark was written on).  The probe does not
use the library, so a change to the library changes the scaled time by the
same share as the true time.

The timer is ITIMER_REAL: a CPU-time itimer makes the kernel's process CPU
clock coarse while it is armed.  ``begin``/``end`` must bracket code on the
main thread; the clock is not reentrant.
"""

from __future__ import annotations

import signal
from time import process_time

PROBE_REF_S = 115e-6     # one probe at the unloaded speed of the reference VM
INTERVAL_S = 0.002       # wall seconds between probes inside an operation


def _walk(chosen, start, items, depth):
    if depth == 0:
        return 1
    n = 0
    for i in range(start, len(items)):
        w = items[i]
        if all(sum(x * y for x, y in zip(w, c)) <= 2 for c in chosen):
            n += _walk(chosen + (w,), i + 1, items, depth - 1)
    return n


_ITEMS = tuple(tuple((i >> b) & 1 for b in range(5)) for i in range(1, 14))
_WALK_COUNT = _walk((), 0, _ITEMS, 2)


def probe() -> float:
    """CPU seconds of one fixed probe."""
    start = process_time()
    if _walk((), 0, _ITEMS, 2) != _WALK_COUNT:
        raise AssertionError("speed probe miscounted")
    return process_time() - start


class SpeedClock:
    """Times one operation at a time: raw and rescaled CPU seconds."""

    def __init__(self):
        self._cuts: list[tuple[float, float, float]] = []
        self._old_handler = None
        self._armed = False
        self._cutting = False

    def _cut(self, repeats: int = 1) -> None:
        self._cutting = True
        start = process_time()
        took = min(probe() for _ in range(repeats))
        self._cuts.append((start, took, process_time()))
        self._cutting = False

    def _on_timer(self, signum, frame) -> None:
        if not self._cutting:       # a late tick inside a probe is dropped
            self._cut()

    def begin(self) -> None:
        """Probe, then arm the timer; the operation starts after this."""
        self._cuts = []
        self._cut(2)
        self._old_handler = signal.signal(signal.SIGALRM, self._on_timer)
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def disarm(self) -> None:
        """Stop the timer and restore the old handler, if armed."""
        if self._armed:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._old_handler
                          or signal.SIG_DFL)
            self._armed = False

    def end(self) -> tuple[float, float]:
        """Disarm, probe once more; returns (raw, scaled) CPU seconds of
        the code run since begin, probes excluded."""
        self.disarm()
        self._cut(2)
        cuts, self._cuts = self._cuts, []
        raw = scaled = 0.0
        for (_, k0, left), (right, k1, _) in zip(cuts, cuts[1:]):
            piece = right - left
            raw += piece
            scaled += piece * 2 * PROBE_REF_S / (k0 + k1)
        return raw, scaled

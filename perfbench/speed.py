"""The machine's speed around each timed interval, from a fixed calibration routine.

On a shared VM, other tenants slow the CPU down by up to about 2x, in steps
that last from milliseconds to minutes.  ``time.process_time`` does not see
it: the process keeps its core and runs slower on it.  Runs a few minutes
apart then differ by more than a change worth detecting.  So the benchmark
times a fixed piece of pure-Python work (Fraction arithmetic, a dict, a
sort, and unmarshalling code objects as an import does; it shares no code
with condisc) off the clock, all through a run, and reports each timed
interval at reference speed: multiplied by ``REFERENCE_S`` over the median
calibration time around it.  On a 2-vCPU VM, the ratio of an analysis time
to the calibration time taken during it varied by about 4% over 30 s while
either one alone varied by 15 to 20%.  A change to condisc cannot move the
routine, so the factor cancels the machine and keeps the program.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import marshal
import signal
import statistics
import time
from fractions import Fraction

# about the median time of one calibration sample on a 2-vCPU VM, Python 3.11.7;
# only the scale of the reported times depends on it
REFERENCE_S = 0.0012
BURST = 3            # samples per burst between operations
EVERY_S = 0.05       # bursts at least this far apart; samples this often inside an operation
WINDOW_S = 0.1       # the samples within this distance of an interval are its neighbours
CHILD_WINDOW_S = 2.0  # the same, for an interval that a subprocess spends


# code objects to unmarshal, as an interpreter does when it imports a module
_CODE = marshal.dumps(compile("".join(f"def f{i}(x):\n    return [x, {i}, 'a{i}', (x, {i} * x)]\n"
                                      for i in range(150)), "<calibration>", "exec"))


def _work() -> int:
    acc = Fraction(0)
    table: dict[tuple[int, int], list[int]] = {}
    for i in range(1, 200):
        acc += Fraction(i % 11 + 1, i % 13 + 1)
        table[(i, i % 7)] = [i, i * 3 % 17]
    keys = sorted(table, key=lambda k: (k[1], -k[0]))
    codes = [marshal.loads(_CODE) for _ in range(5)]
    names = {i: (i, str(i)) for i in range(3000)}
    return acc.numerator + len(keys) + len(codes) + len(names)


class Speedometer:
    """Calibration samples, and intervals converted to reference speed.

    Between operations the samples come in bursts.  Inside an in-process
    operation, a SIGALRM timer takes one every EVERY_S, and the time it took
    is taken out of the operation's time; a long operation then has the
    machine's speed measured while it ran, not only at its two ends.  The
    handler adds a few frames to the stack of the code it interrupts; the
    deepest recursion that must succeed, render_text at depth 795, stays
    about 180 frames below the limit.

    A subprocess is not sampled while it runs: the parent would time the
    other core, and did not track the child (correlation 0.1 on a 2-vCPU
    VM).  The calibration next to it swings by 2x within 10 ms, so a
    subprocess interval is read against the samples of the 2 s around it,
    which follow the slower drifts that separate runs.
    """

    def __init__(self):
        self.at: list[float] = []       # when each sample ended
        self.took: list[float] = []     # how long it took

    def _sample(self, *_signal) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            _work()
            t1 = time.perf_counter()
            self.at.append(t1)
            self.took.append(t1 - t0)
        finally:
            if enabled:
                gc.enable()

    def burst(self) -> None:
        for _ in range(BURST):
            self._sample()

    def maybe(self) -> None:
        """A burst, unless the last sample is more recent than EVERY_S."""
        if not self.at or time.perf_counter() - self.at[-1] >= EVERY_S:
            self.burst()

    @contextlib.contextmanager
    def sampling(self):
        """Samples every EVERY_S while an in-process operation runs."""
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def _range(self, t0: float, t1: float) -> tuple[int, int]:
        return bisect.bisect_right(self.at, t0), bisect.bisect_right(self.at, t1)

    def as_read(self, t0: float, t1: float) -> float:
        """The interval [t0, t1] without the samples taken inside it."""
        lo, hi = self._range(t0, t1)
        return t1 - t0 - sum(self.took[lo:hi])

    def local(self, t0: float, t1: float, window: float = WINDOW_S) -> float:
        """Median sample time around [t0, t1]: inside it or within `window` of
        it, and at least the BURST samples just before and just after it."""
        lo, hi = self._range(t0 - window, t1 + window)
        inner_lo, inner_hi = self._range(t0, t1)
        lo = min(lo, max(inner_lo - BURST, 0))
        hi = max(hi, min(inner_hi + BURST, len(self.at)))
        return statistics.median(self.took[lo:hi])

    def seconds(self, t0: float, t1: float, child: bool = False) -> float:
        """The interval [t0, t1], as it would read at reference speed; `child`
        if a subprocess spent it."""
        window = CHILD_WINDOW_S if child else WINDOW_S
        return self.as_read(t0, t1) * REFERENCE_S / self.local(t0, t1, window)

"""Host-speed adjustment of measured times.

The shared host this benchmark was tuned on runs the same Python code at
two speeds, about 1.6 times apart, and switches between them every few
seconds to minutes; the process's CPU time slows with its wall time, so it
is the CPU, not lost scheduling. A time measured over a span therefore reads
the mix of phases in that span as much as the program.

`SpeedSampler` reads the host's speed throughout a span: a timer signal
every `INTERVAL_S` seconds runs `reference()`, a fixed sum of stdlib
`Fraction`s, and records how long it took. The adjusted time of
the span is the work the program did in it, in seconds at the speed where
`reference()` takes `NOMINAL_REF_S`:

    adjusted = sum over samples of interval * NOMINAL_REF_S / ref_time
             = (wall - sampling time) * NOMINAL_REF_S * mean(1 / ref_time)

`reference()` runs only stdlib code, so no change to the program moves it.
It is `Fraction` arithmetic because that is what the program spends most
of its time in (about half of its self time on the orbit workloads), and
the slow phase slows it by the same factor as the program: on 2 s
`orbit-lattice` passes the adjusted times varied with the measured ones by
a log-log slope of 0.03, where a plain-int version of the same sum left
0.28.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

INTERVAL_S = 0.02
# reference() time on the host the benchmark was tuned on (2 shared vCPUs,
# Python 3.11.7), in its slow phase, where it spends most of its time.
NOMINAL_REF_S = 1.1e-4


def reference() -> Fraction:
    """Sum 29 small fractions."""
    total = Fraction(0)
    for i in range(1, 30):
        total += Fraction(i % 7 + 1, i % 11 + 1)
    return total


class SpeedSampler:
    """Times `reference()` every `INTERVAL_S` seconds of wall time while active."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        # The reference allocates; a collection it triggered would time the program's heap.
        enabled = gc.isenabled()
        gc.disable()
        started = time.perf_counter()
        reference()
        self.samples.append(time.perf_counter() - started)
        if enabled:
            gc.enable()

    def __enter__(self) -> "SpeedSampler":
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def busy_s(self, since: int = 0) -> float:
        """Time spent sampling, from the `since`-th sample on."""
        return sum(self.samples[since:])

    def adjust(self, work_s: float) -> float:
        """`work_s`, measured while sampling and without the sampling time, in seconds at the nominal speed."""
        if not self.samples:
            # Shorter than one interval: no reading, so take the span as at nominal speed.
            return work_s
        # Plain arithmetic rather than the statistics module, which the set-up probe would pay to import.
        return work_s * NOMINAL_REF_S * sum(1.0 / s for s in self.samples) / len(self.samples)

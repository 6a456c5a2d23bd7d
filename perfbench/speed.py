"""Host speed sampling, so that timings can be scaled to a nominal host speed.

On a virtual machine that shares its cores with other tenants (measured on
2 vCPUs of an Intel Xeon), the same pure-Python loop runs at anywhere from one
to two times its slowest rate from one second to the next, with almost no
steal time reported.  `SpeedSampler` times a fixed reference computation,
which touches no votaudit code, every `INTERVAL` seconds from a SIGALRM
handler, on the thread that runs the operations.  The second-to-second swings do not correlate from one sampling
interval to the next, but they average out over a run; what the samples
correct is the slower drift, by which whole runs differ.  So an operation's
time at the nominal speed is its wall time (less the sampler's own time)
times the mean speed, NOMINAL_S over the reference's time, sampled during the
operation when it is long enough to hold OWN_SAMPLES samples, and otherwise
during the whole phase of work it belongs to.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from time import perf_counter

INTERVAL = 0.05
OWN_SAMPLES = 10
#: Reference time at the nominal host speed: about the reference's time on that
#: 2-vCPU Xeon, so that scaled times read like its wall times.
NOMINAL_S = 0.00050


def reference() -> None:
    """Fixed work in the mix the workloads do: rational arithmetic, tuples, dicts."""
    for _ in range(4):
        acc, table = Fraction(0), {}
        for k in range(1, 25):
            acc += Fraction(k, k + 1)
            table[(k % 5, k % 3)] = acc
        sorted(table.items())


class SpeedSampler:
    """Samples the host's speed, as NOMINAL_S over the reference's time, every INTERVAL s."""

    def __init__(self) -> None:
        self.spent = 0.0  # seconds spent sampling
        self.samples = 0
        self.speed_sum = 0.0  # sum of the sampled speeds

    def _sample(self, *_) -> None:
        start = perf_counter()
        reference()
        self.samples += 1
        self.speed_sum += NOMINAL_S / (perf_counter() - start)
        self.spent += perf_counter() - start

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple[float, float, int, float]:
        return perf_counter(), self.spent, self.samples, self.speed_sum

    def wall(self, mark: tuple[float, float, int, float]) -> float:
        """Seconds since `mark`, less the time spent sampling."""
        return perf_counter() - mark[0] - (self.spent - mark[1])

    def speed(self, mark: tuple[float, float, int, float]) -> float:
        """Mean sampled speed since `mark`, in nominal seconds per wall second."""
        if self.samples == mark[2]:
            self._sample()
        return (self.speed_sum - mark[3]) / (self.samples - mark[2])

    def own_speed(self, mark: tuple[float, float, int, float]) -> float | None:
        """The speed since `mark` if it held OWN_SAMPLES samples, else None."""
        return self.speed(mark) if self.samples - mark[2] >= OWN_SAMPLES else None

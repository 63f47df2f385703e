"""Host speed correction for times measured on a shared machine.

On the shared two-vCPU host the bounds were set on, the same pure-Python
loop runs at one of two speeds that differ by up to 1.9x, in phases that
last seconds, as other tenants load the physical cores.  Raw wall times
of one pass then differ by more than any bound a regression check can
use.  A :class:`SpeedProbe` therefore times a fixed exact-arithmetic
probe, like the program's own work, every ``INTERVAL_S`` while a pass
runs.  A time multiplied by the mean measured speed is the time the pass
would take at the reference speed, the probe's speed on the host when
uncontended.  The raw times are kept in every run's record.
"""

from __future__ import annotations

import glob
import os
import signal
import statistics
from fractions import Fraction
from time import perf_counter, sleep

INTERVAL_S = 0.05
WINDOW = 20
#: Probe time of the uncontended reference host (Intel Xeon, 2 vCPUs,
#: Python 3.11); it only fixes the unit of the corrected times.
REFERENCE_S = 300e-6


def probe() -> float:
    """Seconds taken by one fixed unit of Fraction arithmetic."""
    start = perf_counter()
    acc = Fraction(0)
    for i in range(1, 120):
        acc += Fraction(i, i + 1)
    return perf_counter() - start


class SpeedProbe:
    """Samples host speed on a real-time interval timer while entered.

    Processes forked while it is entered, such as pool workers, sample
    too, each into a file ``speed-<pid>.txt`` in ``workdir``: their CPU
    may run at another speed than this process's.
    """

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.samples: list[float] = []
        self.worker_samples: list[list[float]] = []
        self._pid = os.getpid()
        self._active = False
        os.register_at_fork(after_in_child=self._start_timer)

    def _start_timer(self) -> None:
        if self._active:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def _tick(self, signum, frame) -> None:
        sample = probe()
        if os.getpid() == self._pid:
            self.samples.append(sample)
        else:
            path = os.path.join(self.workdir, f"speed-{os.getpid()}.txt")
            try:
                with open(path, "a") as fh:
                    fh.write(f"{sample!r}\n")
            except OSError:     # a lost sample must not fail the worker's task
                pass

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._active = True
        self._start_timer()
        return self

    def __exit__(self, *exc) -> None:
        self._active = False
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        for path in glob.glob(os.path.join(self.workdir, "speed-*.txt")):
            with open(path) as fh:
                self.worker_samples.append([float(x) for x in fh])
            os.remove(path)

    def speed(self) -> float:
        """Mean speed relative to the reference host, over the pass.

        The median of each window of ``WINDOW`` consecutive samples of
        one process (about a second) drops probes that waited for a CPU;
        the mean over the windows of all processes weights each phase of
        host speed, on each CPU, by its duration.
        """
        series = [self.samples or burst()] + self.worker_samples
        return statistics.fmean(
            REFERENCE_S / statistics.median(samples[i:i + WINDOW])
            for samples in series for i in range(0, len(samples), WINDOW))


def burst(count: int = 20) -> list[float]:
    """Probe samples taken back to back, a millisecond apart."""
    samples = []
    for _ in range(count):
        samples.append(probe())
        sleep(0.001)
    return samples

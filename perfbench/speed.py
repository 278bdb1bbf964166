"""Calibrated timing on a machine whose speed drifts.

On the machine this benchmark was tuned on (2 shared vCPUs), the same
report took anywhere from 0.31 s to 0.62 s within one minute. Its CPU time
matched its wall time, so the cores slowed down; the process was not
descheduled. Each timed call therefore runs under `SpeedProbe`. Every
PROBE_INTERVAL_S, a SIGALRM handler runs the probe: a fixed slice of
pure-Python work that never touches ahodge. The handler records how long
the probe took. The call's time, less the probes' own time, is reported as

    net * PROBE_NOMINAL_S / mean probe time

that is, in seconds on a machine where the probe takes PROBE_NOMINAL_S. A
change to ahodge moves this number exactly as it moves raw time.

The probe squares a small sparse polynomial with Fraction coefficients.
Over about 57 repeats of each of three reports, log report time against
log probe time had a fitted slope of 0.98-1.03. The standard deviation of
calibrated log time was 0.04-0.05, against 0.21-0.24 raw. Two other probes
did worse. A loop of integer and Fraction sums slowed less than the
reports (slope 1.2). Random lookups in a large dict tracked them poorly
(0.15). Probes taken inside the call also beat reference loops run before
and after it, which gave 0.10-0.16.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from time import perf_counter

PROBE_INTERVAL_S = 0.02
PROBE_NOMINAL_S = 0.00025  # about the probe's time when the machine runs fast


# A 9-term sparse polynomial with Fraction coefficients, the kind of
# object ahodge spends its time on.
_POLY = {(i, j): Fraction(i + 1, j + 2) for i in range(3) for j in range(3)}


def probe_work() -> None:
    """Square _POLY: 81 Fraction products accumulated in a dict."""
    out: dict = {}
    for (i, j), c in _POLY.items():
        for (k, l), d in _POLY.items():
            key = (i + k, j + l)
            out[key] = out.get(key, 0) + c * d


def probe() -> float:
    start = perf_counter()
    probe_work()
    return perf_counter() - start


class SpeedProbe:
    """Times the body of a `with` block and samples the machine's speed
    before, during and after it.  `on_sample(start, end)` sees each probe
    taken during the block."""

    def __init__(self, on_sample=None):
        self.on_sample = on_sample
        self.samples: list = []

    def _alarm(self, _signum, _frame) -> None:
        start = perf_counter()
        probe_work()
        end = perf_counter()
        self.samples.append((start, end))
        if self.on_sample is not None:
            self.on_sample(start, end)

    def __enter__(self) -> "SpeedProbe":
        self.before = probe()
        self._previous = signal.signal(signal.SIGALRM, self._alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        self.start = perf_counter()
        return self

    def __exit__(self, *_exc) -> bool:
        self.end = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.after = probe()
        return False

    @property
    def raw(self) -> float:
        return self.end - self.start

    @property
    def net(self) -> float:
        """The block's time without the probes that interrupted it."""
        return self.raw - sum(e - s for s, e in self.samples if self.start <= s and e <= self.end)

    @property
    def factor(self) -> float:
        """Calibration factor: nominal probe time / mean measured probe time."""
        times = [self.before, *(e - s for s, e in self.samples), self.after]
        return PROBE_NOMINAL_S * len(times) / sum(times)

"""How fast the host runs Python right now, sampled while a phase is timed.

The benchmark runs on a few cores of a shared host, whose speed for this
process drifts by half or more over minutes as other work comes and goes.
A timed phase therefore also runs `HostSpeed`: every INTERVAL_S seconds a
SIGALRM handler runs a fixed reference kernel of plain Python (builtin
calls, float arithmetic, list, dict and string work, no allocation kept, no
random state touched) and records how long it took. The kernel does not
use the program's code, so the program's speed never moves it; only the
host's does.

`HostSpeed.scale` is the kernel's nominal duration over its mean sampled
duration. A phase's seconds times `scale` are its seconds at the nominal
host speed, and stay put when the host as a whole speeds up or slows
down. The handler's own time is kept in `spent` and taken out of the
phase's wall time.
"""

from __future__ import annotations

import signal
import time

# The unit of scaled seconds: time at a host speed where one kernel call
# takes exactly this long. A shared 2-core Xeon host at 2.0 GHz ran it in
# 0.9-1.9 ms, depending on what else the host was running.
NOMINAL_KERNEL_S = 0.001
# Fine enough to follow the host's slow spells, which last seconds, at
# about 2% of the phase's time.
INTERVAL_S = 0.1


def kernel() -> float:
    """The reference work, the same on every call."""
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(2000):
        x = (i * 0.5 + 1.0) ** 0.5
        table[i % 31] = x
        acc += abs(x - table.get((i * 7) % 31, 0.0))
        if i % 20 == 0:
            acc += len(f"{x:.3f}") + sum(sorted(table.values())[:4])
    return acc


class HostSpeed:
    """Context manager that samples the kernel every INTERVAL_S seconds.

    One instance per timed phase, in the main thread; the handler it
    installs is restored on exit.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        # the first kernel call refills the caches the phase evicted, so
        # the timed second one sees the host, not the phase's cache use
        clock = time.perf_counter
        start = clock()
        kernel()
        mid = clock()
        kernel()
        end = clock()
        self.samples.append(end - mid)
        self.spent += end - start

    def __enter__(self) -> "HostSpeed":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    @property
    def scale(self) -> float:
        """Nominal over mean sampled kernel duration: below 1 on a slow host."""
        return NOMINAL_KERNEL_S * len(self.samples) / sum(self.samples)

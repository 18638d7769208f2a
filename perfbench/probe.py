"""Machine-speed probe: scales operation times to one fixed machine speed.

The benchmark runs on a shared machine whose speed drifts by ±20% over
seconds to minutes, for every process on it alike. More samples in a run do
not average that out, so raw wall times of runs minutes apart spread wider
than the bounds. While a worker's warm operations run, a probe thread wakes
every PERIOD_S, runs a fixed pure-Python loop and records the thread CPU time
the loop took. The worker's operation times are then scaled by REFERENCE_S /
(mean loop time): to the time they would have taken at the speed where the
loop takes REFERENCE_S.

The probe costs the timed thread about one loop (under a millisecond) per
PERIOD_S. It assumes the operations run on one thread, as kopt does by default.
"""

from __future__ import annotations

import statistics
import threading
import time

PERIOD_S = 0.05
# About what the loop takes on the 2-core VM of the README's baseline, so that
# scaled times there read close to wall times.
REFERENCE_S = 0.0006


def reference_loop() -> int:
    acc = 0
    table = {}
    for i in range(3000):
        table[i & 255] = (i, acc)
        acc += (i * 7) % 13
    return acc


class SpeedProbe:
    """Times the reference loop from a thread while the `with` block runs."""

    def __init__(self):
        self.loop_s: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self) -> None:
        start = time.thread_time()
        reference_loop()
        self.loop_s.append(time.thread_time() - start)

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            self._sample()

    def __enter__(self) -> SpeedProbe:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        if not self.loop_s:
            self._sample()

    def factor(self) -> float:
        """REFERENCE_S over the mean loop time."""
        return REFERENCE_S / statistics.fmean(self.loop_s)

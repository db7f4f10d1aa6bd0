"""Host speed sampling and the timing of measured intervals.

The benchmark runs on shared machines whose neighbours slow the same code by
up to 70 % for minutes at a time, and slow this program's instruction mix
and that of the reference slice below much alike: on a shared 2-core VM,
15 s medians of single-voxel updates on a 512 x 512 map moved by 20 % while
their ratio to the slice moved by 8 % (on a 128 x 128 map, 9 % and 1 %).
So while a run measures, a timer interrupts it every PERIOD_S and times one
slice, and every reported time is

    (wall time - time spent in slices) * REFERENCE_S / (median slice time)

with the slice time taken around each interval: the median of the slices
inside it, or of the WINDOW nearest its middle for a short one. It reads as
the time the program takes on a host where one slice, run from the timer
inside the program, takes REFERENCE_S; that is about its time on a quiet
host, so scaled times read close to quiet-host wall times. The slice never
calls the program, so the scaling cannot hide a change in the program's own
speed.
"""
from __future__ import annotations

import signal
import time
from array import array
from contextlib import contextmanager

import numpy as np

REFERENCE_S = 0.0005   # one slice on a quiet host; sets the scale only
PERIOD_S = 0.02        # a slice every 20 ms of measured time: 2 % overhead
WINDOW = 5             # slices that give the host speed around one interval


def reference_slice() -> float:
    """Interpreter work (dicts, tuples, float math) plus small numpy ops,
    the mix a voxflat update runs."""
    table = {}
    for i in range(900):
        table[(i, i + 1)] = (i * 0.5, float(i))
    total = 0.0
    for a, b in table.values():
        total += a * b
    arr = np.arange(256.0)
    for _ in range(60):
        arr = np.sqrt(arr * arr + 1.0)
    return total + float(arr[0])


class Clock:
    """Measured intervals by metric, and the reference slices timed meanwhile."""

    def __init__(self):
        self.intervals: dict[str, array] = {}
        self._slice_start = array("q")
        self._slice_ns = array("q")

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter_ns()
        reference_slice()
        self._slice_start.append(t0)
        self._slice_ns.append(time.perf_counter_ns() - t0)

    @contextmanager
    def sampling(self):
        """Time a reference slice every PERIOD_S while the block runs."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    @contextmanager
    def measure(self, name: str):
        """Record the block's start and end under `name`."""
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self.intervals.setdefault(name, array("q")).extend(
                (t0, time.perf_counter_ns()))

    def slices(self) -> tuple[np.ndarray, np.ndarray]:
        """Start times (ns, sorted) and durations (ns) of the slices."""
        return (np.array(self._slice_start, dtype=np.int64),
                np.array(self._slice_ns, dtype=np.int64))

    def net_seconds(self, start: np.ndarray, end: np.ndarray) -> np.ndarray:
        """Durations of [start, end) intervals less the slices run inside them."""
        s_start, s_ns = self.slices()
        cumulative = np.r_[0, np.cumsum(s_ns)]
        stolen = (cumulative[np.searchsorted(s_start, end)]
                  - cumulative[np.searchsorted(s_start, start)])
        return (end - start - stolen) / 1e9

    def local_scale(self, start: np.ndarray, end: np.ndarray) -> np.ndarray:
        """Per interval, REFERENCE_S over the host's slice time around it: the
        median slice inside the interval when it holds at least WINDOW of
        them, else the median of the WINDOW slices nearest its middle."""
        s_start, s_ns = self.slices()
        if len(s_ns) < WINDOW:
            raise RuntimeError(f"only {len(s_ns)} host-speed slices were timed")
        half = WINDOW // 2
        padded = np.pad(s_ns, half, mode="edge")
        rolling = np.median(np.lib.stride_tricks.sliding_window_view(padded, WINDOW),
                            axis=1)
        middle = np.searchsorted(s_start, (start + end) // 2)
        speed = rolling[np.clip(middle, 0, len(s_ns) - 1)]
        first = np.searchsorted(s_start, start)
        last = np.searchsorted(s_start, end)
        for i in np.flatnonzero(last - first >= WINDOW):
            speed[i] = np.median(s_ns[first[i]:last[i]])
        return REFERENCE_S / (speed / 1e9)

    def scaled_seconds(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """Wall and host-scaled net seconds of each interval measured under
        `name` (empty arrays when there is none)."""
        if name not in self.intervals:
            return np.empty(0), np.empty(0)
        pairs = np.array(self.intervals[name], dtype=np.int64).reshape(-1, 2)
        net = self.net_seconds(pairs[:, 0], pairs[:, 1])
        return net, net * self.local_scale(pairs[:, 0], pairs[:, 1])

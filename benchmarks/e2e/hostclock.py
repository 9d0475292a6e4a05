"""Reference seconds: wall time with the host's own speed taken out.

The VM this benchmark runs on changes speed by itself: the same
``sim-mixed-lla`` input took 9.3 to 17.1 s in consecutive repetitions
inside one process, all of it user time, in spells of half a minute to
several minutes — too long for any median inside a run to see through,
and more than any bound in ``BENCHMARK.json``.  So between the measured
units every run times a *slice*: a fixed, sub-millisecond piece of
interpreter work (JSON round trip, sort, set and dict building, string
formatting over records it has not touched for a while).  Every gated
timing is then stated in seconds of a host on which a slice takes
:data:`REF_SLICE_S`:

    reference seconds = wall seconds / (slice time nearby / REF_SLICE_S)

What the slice does matters.  Over 36 repetitions of one input, the
logarithm of the run's wall time regressed on that of its slices with
slope 1.07 for this slice (correlation 0.95), but 1.4-1.6 for a tight
``for`` loop and 1.8 for numpy kernels or a random walk over a heap: the
program, like the slice and unlike a tight loop, runs a wide variety of
interpreter code, and that is what the host's rough spells hurt most.
Dividing by the slice took the inter-quartile spread of those 36 walls
from 13.9 % to 4.0 % and their range from 51 % to 16 %.  Raw wall times
are printed beside every normalised one.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
from contextlib import contextmanager

import numpy as np

#: time of one slice on the reference host (this benchmark's 2.1 GHz VM
#: in a quiet spell, CPython 3.12)
REF_SLICE_S = 0.70e-3
#: records one slice works on, and records in the pool it rotates through
#: (~30 MB: by the time a record comes round again it has left the caches)
_SLICE_RECORDS = 40
_POOL_RECORDS = 20_000
#: slices averaged on either side when reading the factor at a moment
_SMOOTH = 2
#: :meth:`HostClock.pace` skips a slice younger than this; the set-up
#: sampler takes one this often
_PACE_S = 0.04
_SAMPLE_S = 0.05


def pin_to_one_cpu() -> None:
    """Keep this process, helper thread included, on one vCPU.

    For the in-process workloads, whose program is a single thread.  The
    vCPUs of this VM are not equally fast at all times; unpinned, the
    set-up sampler's thread woke on the idle vCPU and for an hour read
    it 10-40 % slower than the main thread's slices read theirs, which
    moved the median ``setup_s`` by 14 %.  Pinned, the two agree on
    average and the median repeats within 1 %.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _pool() -> list[dict]:
    rnd = random.Random(1)
    return [
        {
            "id": i,
            "name": f"c{i}",
            "cpu": rnd.random() * 32,
            "mem": rnd.choice([4.0, 8.0, 16.0]),
            "tags": [rnd.randrange(1000) for _ in range(8)],
            "conf": {str(rnd.randrange(500)): rnd.random() for _ in range(6)},
        }
        for i in range(_POOL_RECORDS)
    ]


def _slice_work(records: list[dict]) -> float:
    """The fixed work of one slice; every pool stretch costs the same."""
    back = json.loads(json.dumps(records))
    back.sort(key=lambda r: (r["mem"], -r["cpu"]))
    seen: set[int] = set()
    total = 0.0
    for r in back:
        seen.update(r["tags"])
        total += sum(r["conf"].values())
        total += len("%s:%d:%.2f" % (r["name"], r["id"], r["cpu"]))
    groups: dict[int, list[int]] = {}
    for r in records:
        for tag in r["tags"]:
            groups.setdefault(tag % 17, []).append(r["id"])
    return total + len(seen) + len(groups)


class HostClock:
    """Times slices between measured units; converts wall intervals of
    the same process (or of one it is waiting for) afterwards."""

    def __init__(self) -> None:
        self._records = _pool()
        self._next = 0
        self._at: list[float] = []
        self._took: list[float] = []
        self._curve: tuple | None = None

    def slice(self) -> None:
        """Time one slice, now."""
        if self._next + _SLICE_RECORDS > len(self._records):
            self._next = 0
        records = self._records[self._next:self._next + _SLICE_RECORDS]
        self._next += _SLICE_RECORDS
        t0 = time.perf_counter()
        _slice_work(records)
        took = time.perf_counter() - t0
        self._at.append(time.monotonic() - took / 2)
        self._took.append(took)
        self._curve = None

    def pace(self) -> None:
        """One slice, unless the last is younger than 40 ms: call
        between units much shorter than that."""
        if not self._at or time.monotonic() - self._at[-1] >= _PACE_S:
            self.slice()

    @contextmanager
    def sampling(self):
        """Slices from a helper thread, every 50 ms while the body runs:
        for set-up, which is a few long calls with nowhere to put a slice
        between.  The thread takes the GIL for the length of a slice (the
        body loses ~2 % to it), so measured units get :meth:`slice` or
        :meth:`pace` between them instead."""
        done = threading.Event()

        def sample() -> None:
            while not done.wait(_SAMPLE_S):
                self.slice()

        thread = threading.Thread(target=sample, daemon=True)
        self.slice()
        thread.start()
        try:
            yield
        finally:
            done.set()
            thread.join()
            self.slice()

    @property
    def slices(self) -> int:
        return len(self._took)

    def factor(self, at) -> np.ndarray:
        """How many times slower than the reference host this one was at
        the ``time.monotonic()`` moments ``at``."""
        if self._curve is None:
            took = np.asarray(self._took) / REF_SLICE_S
            width = 2 * _SMOOTH + 1
            padded = np.pad(took, _SMOOTH, mode="edge")
            smooth = np.convolve(padded, np.ones(width) / width, mode="valid")
            self._curve = (np.asarray(self._at), smooth)
        return np.interp(np.asarray(at, dtype=float), *self._curve)

    def ref_seconds(self, intervals) -> np.ndarray:
        """Reference seconds of each ``(start, end)`` wall interval."""
        spans = np.asarray(intervals, dtype=float).reshape(-1, 2)
        return (spans[:, 1] - spans[:, 0]) / self.factor(spans.mean(axis=1))

    def mean_factor(self, since: float, until: float) -> float:
        """Mean slowdown over the slices taken in ``[since, until]``."""
        at = np.asarray(self._at)
        inside = (at >= since) & (at <= until)
        return float(np.asarray(self._took)[inside].mean() / REF_SLICE_S)

"""Scheduler telemetry — the instrumentation behind the Fig. 12/13 story.

The paper's overhead argument is quantitative: isomorphism limiting
replaces per-container feasibility scans with per-application ones,
and depth limiting cuts each search to its first admitting machine.
This module is the single place those savings are *counted*:

* ``spfa_relaxations`` — successful edge relaxations inside
  :func:`repro.flownet.spfa.spfa` (the flow-solver cost driver);
* ``il_prune_hits`` — containers skipped because an identical sibling
  already exhausted search + rescue (isomorphism limiting);
* ``dl_prune_hits`` — placements served by the O(1) depth-limited
  pointer walk instead of a full candidate re-ranking;
* ``batch_kernel_invocations`` — application blocks placed by the
  vectorized batch kernel (:mod:`repro.core.batchkernel`) instead of
  the per-container walk;
* ``index_resyncs`` — incremental dirty-log resyncs of the packed-first
  machine index (:mod:`repro.core.machindex`), each replacing a full
  O(m log m) re-sort;
* ``machines_skipped`` — machines never scored because the admit mask
  or the batch kernel's quota sweep excluded them up front;
* ``rescue_attempts`` / ``rescue_migrations`` / ``rescue_preemptions``
  / ``rescue_machines_scanned`` — the Section III.B rescue machinery's
  deterministic accounting: rescue calls, containers moved, containers
  evicted, and candidate machines examined by the strategy loops.
  Identical to the per-machine loop oracle's (the decisions are);
* ``phase_time_s`` — wall time per scheduler phase (search, rescue,
  requeue, repair).  Wall times are *not* part of the deterministic
  counter set: :meth:`SchedulerTelemetry.counters` excludes them so two
  runs with the same seed serialise byte-identically.

Producers (SPFA, the candidate walk, the batch kernel) report to a
module-level *current collector* installed by the scheduler around each
``schedule()`` call, so deep call sites need no plumbing.  The collector
is plain module state, matching the single-threaded simulator and
``serve`` (its windows run on the event-loop thread); nesting is
supported (collectors save/restore) for schedulers that invoke other
schedulers.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Iterator


@dataclass
class SchedulerTelemetry:
    """Counters and phase timings for one (or many merged) runs."""

    spfa_relaxations: int = 0
    il_prune_hits: int = 0
    dl_prune_hits: int = 0
    batch_kernel_invocations: int = 0
    index_resyncs: int = 0
    machines_skipped: int = 0
    rescue_attempts: int = 0
    rescue_migrations: int = 0
    rescue_preemptions: int = 0
    rescue_machines_scanned: int = 0
    #: phase name -> accumulated wall seconds (non-deterministic; kept
    #: out of :meth:`counters` on purpose)
    phase_time_s: dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def counters(self) -> dict[str, int]:
        """The deterministic counter set, in a stable key order.

        Two runs with identical seeds produce identical dicts — the
        determinism test serialises this (phase wall times excluded).
        """
        return dict(zip(_SCHEDULER_COUNTERS, _read_scheduler(self)))

    def add_phase_time(self, phase: str, seconds: float) -> None:
        self.phase_time_s[phase] = self.phase_time_s.get(phase, 0.0) + seconds

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time a scheduler phase into :attr:`phase_time_s`."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.add_phase_time(name, time.perf_counter() - t0)

    def merge(self, other: "SchedulerTelemetry") -> None:
        """Fold another run's telemetry into this one."""
        for name, mine, theirs in zip(
            _SCHEDULER_COUNTERS, _read_scheduler(self), _read_scheduler(other)
        ):
            setattr(self, name, mine + theirs)
        for phase, dt in other.phase_time_s.items():
            self.add_phase_time(phase, dt)

    def summary(self) -> str:
        """One-line human rendering for CLI run summaries."""
        parts = [
            f"IL prunes {self.il_prune_hits}",
            f"DL prunes {self.dl_prune_hits}",
            f"SPFA relaxations {self.spfa_relaxations}",
        ]
        if self.batch_kernel_invocations:
            parts.append(
                f"batch kernel {self.batch_kernel_invocations} blocks"
            )
        if self.index_resyncs:
            parts.append(f"index resyncs {self.index_resyncs}")
        if self.machines_skipped:
            parts.append(f"machines skipped {self.machines_skipped}")
        if self.rescue_attempts:
            parts.append(
                f"rescues {self.rescue_attempts}"
                f" ({self.rescue_migrations} migr,"
                f" {self.rescue_preemptions} evict,"
                f" {self.rescue_machines_scanned} scanned)"
            )
        if self.phase_time_s:
            timing = ", ".join(
                f"{name} {dt * 1000:.1f}ms"
                for name, dt in sorted(self.phase_time_s.items())
            )
            parts.append(f"phases: {timing}")
        return "; ".join(parts)


# ----------------------------------------------------------------------
# serving-side telemetry
# ----------------------------------------------------------------------
@dataclass
class ServiceTelemetry:
    """Counters of the serving front-end (:mod:`repro.serve`).

    These live *next to* :class:`SchedulerTelemetry`, never inside it:
    admission, rejection and queue-depth figures depend on client
    timing and socket scheduling, so they are legitimately
    nondeterministic and must not leak into the deterministic counter
    set that :meth:`SchedulerTelemetry.counters` feeds into
    ``canonical_json``.  The backpressure property test relies on one
    exact invariant here: every window-type request a client sends is
    either admitted (and eventually decided) or rejected —
    ``requests_admitted + requests_rejected`` equals requests sent,
    none dropped.
    """

    #: window-type requests accepted into the bounded queue
    requests_admitted: int = 0
    #: window-type requests refused with a 429-style reply at admission
    requests_rejected: int = 0
    #: replies that could not be delivered (client disconnected); the
    #: window itself still committed
    replies_failed: int = 0
    #: scheduling windows committed by the coalescer
    windows_committed: int = 0
    #: requests coalesced across all committed windows
    window_requests: int = 0
    #: largest single window (requests coalesced into one round)
    peak_window_size: int = 0
    #: deepest the admission queue ever got
    peak_queue_depth: int = 0

    def record_admission(self, queue_depth: int) -> None:
        self.requests_admitted += 1
        self.peak_queue_depth = max(self.peak_queue_depth, queue_depth)

    def record_rejection(self) -> None:
        self.requests_rejected += 1

    def record_window(self, size: int) -> None:
        self.windows_committed += 1
        self.window_requests += size
        self.peak_window_size = max(self.peak_window_size, size)

    @property
    def mean_window_size(self) -> float:
        if not self.windows_committed:
            return 0.0
        return self.window_requests / self.windows_committed

    def counters(self) -> dict[str, int]:
        """Stable-ordered dict for the ``stats`` protocol reply."""
        return dict(zip(_SERVICE_COUNTERS, _read_service(self)))

    def summary(self) -> str:
        """One-line human rendering for the serve CLI shutdown report."""
        return (
            f"admitted {self.requests_admitted}, rejected "
            f"{self.requests_rejected}, windows {self.windows_committed} "
            f"(mean {self.mean_window_size:.1f} req/window, peak "
            f"{self.peak_window_size}), peak queue {self.peak_queue_depth}, "
            f"undeliverable replies {self.replies_failed}"
        )


def _int_fields(cls) -> tuple[str, ...]:
    """The names of ``cls``'s integer counter fields, in declaration
    order: the key order of its ``counters()``."""
    return tuple(f.name for f in fields(cls) if f.type in (int, "int"))


_SCHEDULER_COUNTERS = _int_fields(SchedulerTelemetry)
_read_scheduler = attrgetter(*_SCHEDULER_COUNTERS)
_SERVICE_COUNTERS = _int_fields(ServiceTelemetry)
_read_service = attrgetter(*_SERVICE_COUNTERS)


# ----------------------------------------------------------------------
# the current collector
# ----------------------------------------------------------------------
_current: SchedulerTelemetry | None = None


def current() -> SchedulerTelemetry | None:
    """The collector installed by the innermost :func:`collect`, if any."""
    return _current


@contextmanager
def collect(telemetry: SchedulerTelemetry) -> Iterator[SchedulerTelemetry]:
    """Install ``telemetry`` as the current collector for the block."""
    global _current
    previous = _current
    _current = telemetry
    try:
        yield telemetry
    finally:
        _current = previous

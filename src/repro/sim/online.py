"""Online (event-driven) simulation with arrivals and departures.

The trace replay of :mod:`repro.sim.simulator` models the paper's
burst-arrival evaluation ("massive LLAs arrive simultaneously"); this
module models the *steady state* around it: long-lived applications
arrive over time, live for "durations ranging from hours to months"
(Section I), and depart — continuously churning the cluster the
scheduler placed.  Fragmentation accumulates exactly where the paper's
migration mechanism (Fig. 7) earns its keep, so the online simulation
is the natural stress test for it.

Time is discrete ticks.  Each tick:

1. expired applications depart (their containers are evicted);
2. newly arrived applications are scheduled as one submission batch;
3. cluster metrics are sampled;
4. optionally, a crash-consistent checkpoint is written.

Checkpoint/restore (``run(checkpoint_every=..., checkpoint_path=...)``
and ``run(restore_from=...)``) makes the simulation restartable: a run
killed at tick *k* and resumed from its last snapshot finishes
**bit-identical** (:meth:`OnlineResult.canonical_json`) to an
uninterrupted run.  The snapshot persists the cluster state with its
dirty log, the partial :class:`OnlineResult` (samples *and* merged
telemetry — a resumed run must not re-base or double-count the
pre-crash counters), the arrival/departure cursors, and the
scheduler's cross-round ledgers
(:meth:`~repro.core.scheduler.AladdinScheduler.checkpoint`); the
arrival schedule itself is recomputed from the config seed, and a
fingerprint in the snapshot rejects a restore under a different trace,
config or scheduler.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.base import ScheduleResult, Scheduler
from repro.cluster.snapshot import SnapshotError, read_snapshot, write_snapshot
from repro.cluster.state import ClusterState
from repro.cluster.topology import build_cluster
from repro.sim.lifecycle import LifecycleConfig, LifecycleRuntime
from repro.telemetry import SchedulerTelemetry
from repro.trace.arrival import ArrivalOrder, order_applications
from repro.trace.schema import Trace


@dataclass(frozen=True)
class OnlineConfig:
    """Knobs of the online simulation.

    Parameters
    ----------
    ticks:
        Length of the arrival phase; applications arrive uniformly
        spread over it (the simulation keeps running until the last
        arrival has been processed).
    lifetime_ticks:
        (min, max) application lifetime, sampled log-uniformly — the
        hours-to-months spread of Section I, in tick units.
    arrival_order:
        Ordering of the arrival stream (CHP/CLP/CLA/CSA/trace).
    seed:
        RNG seed for lifetimes.
    machine_pool_factor:
        Headroom over the trace's nominal cluster.
    scenario:
        When set (a :data:`repro.trace.scenarios.SCENARIOS` family
        name), the arrival/lifetime plan is decoded from the scenario
        trace's application names instead of being sampled — see
        :func:`repro.trace.scenarios.scenario_schedule`.  ``ticks``,
        ``lifetime_ticks`` and ``arrival_order`` are ignored in that
        mode (the scenario trace pins all three).
    autoscale:
        The power/warm-pool lifecycle's knobs
        (:class:`~repro.sim.lifecycle.LifecycleConfig`), or ``None``
        (the default) for no lifecycle.  **Off means absent**: a run
        without one is bit-identical to one built before the lifecycle
        existed.
    """

    ticks: int = 50
    lifetime_ticks: tuple[int, int] = (10, 200)
    arrival_order: ArrivalOrder = ArrivalOrder.TRACE
    seed: int = 0
    machine_pool_factor: float = 1.2
    scenario: str | None = None
    autoscale: LifecycleConfig | None = None

    def __post_init__(self) -> None:
        if self.ticks < 1:
            raise ValueError("ticks must be >= 1")
        lo, hi = self.lifetime_ticks
        if not 1 <= lo <= hi:
            raise ValueError(f"bad lifetime range {self.lifetime_ticks}")
        if self.machine_pool_factor < 1.0:
            raise ValueError("machine_pool_factor must be >= 1")


@dataclass
class TickSample:
    """Metrics sampled at the end of one tick."""

    tick: int
    arrived_containers: int
    departed_containers: int
    running_containers: int
    pending_failures: int
    used_machines: int
    mean_utilization: float
    migrations: int
    violations: int
    #: machines examined by this tick's scheduling round (0 on idle ticks)
    explored: int = 0
    #: application blocks placed by the batched kernel this tick
    batch_invocations: int = 0
    #: rescue attempts (migration/consolidation/preemption planning)
    rescue_attempts: int = 0
    #: power/warm-pool telemetry, set only when a lifecycle runtime is
    #: active (``None`` otherwise — and then absent from
    #: :meth:`OnlineResult.canonical_json`, preserving default-off
    #: bit-identity with pre-autoscale runs)
    powered_machines: int | None = None
    draining_machines: int | None = None
    off_machines: int | None = None
    woken_machines: int | None = None
    warm_hits: int | None = None
    cold_starts: int | None = None
    pool_size: int | None = None
    #: phase name -> wall seconds spent inside this tick.  Window phases
    #: (``window_departures``, ``window_sample``, ``window_record``) are
    #: timed by :func:`apply_window`/:func:`record_window`; scheduler
    #: phases (search, rescue, requeue, repair) are copied from the
    #: round's telemetry.  Wall times, so excluded from
    #: :meth:`OnlineResult.canonical_json` like every other timing.
    phase_s: dict[str, float] = field(default_factory=dict)


@dataclass
class OnlineResult:
    """Per-tick series plus whole-run aggregates.

    :attr:`telemetry` merges every scheduling round's counters: SPFA
    relaxations, IL/DL pruning hits, batch-kernel blocks, index resyncs
    and the rescue accounting.  Counters are deterministic
    for a fixed seed; phase wall times are not, so
    :meth:`canonical_json` (the determinism-test serialisation)
    excludes them.
    """

    samples: list[TickSample] = field(default_factory=list)
    total_arrived: int = 0
    total_departed: int = 0
    total_failed: int = 0
    total_migrations: int = 0
    total_elapsed_s: float = 0.0
    telemetry: SchedulerTelemetry = field(default_factory=SchedulerTelemetry)

    @property
    def peak_used_machines(self) -> int:
        return max((s.used_machines for s in self.samples), default=0)

    @property
    def failure_rate(self) -> float:
        return self.total_failed / self.total_arrived if self.total_arrived else 0.0

    def series(self, attr: str) -> list[tuple[int, float]]:
        """(tick, value) pairs for one sampled attribute."""
        return [(s.tick, getattr(s, attr)) for s in self.samples]

    def canonical_json(self) -> str:
        """Deterministic serialisation of every metric of the run.

        Two runs with the same trace, scheduler and seed must produce
        byte-identical output — this is the contract the determinism
        test enforces, and it deliberately covers the telemetry
        counters while excluding wall-clock times (``total_elapsed_s``
        and per-phase timings), which legitimately vary between runs.
        """
        samples = []
        for s in self.samples:
            entry = {
                "tick": s.tick,
                "arrived": s.arrived_containers,
                "departed": s.departed_containers,
                "running": s.running_containers,
                "failures": s.pending_failures,
                "used_machines": s.used_machines,
                "mean_utilization": repr(s.mean_utilization),
                "migrations": s.migrations,
                "violations": s.violations,
                "explored": s.explored,
                "batch_invocations": s.batch_invocations,
                "rescue_attempts": s.rescue_attempts,
            }
            if s.powered_machines is not None:
                # Lifecycle telemetry only exists on autoscale runs, so
                # the key is conditional: default-off output stays
                # byte-identical to pre-autoscale builds.
                entry["power"] = {
                    "on": s.powered_machines,
                    "draining": s.draining_machines,
                    "off": s.off_machines,
                    "woken": s.woken_machines,
                    "warm_hits": s.warm_hits,
                    "cold_starts": s.cold_starts,
                    "pool_size": s.pool_size,
                }
            samples.append(entry)
        payload = {
            "totals": {
                "arrived": self.total_arrived,
                "departed": self.total_departed,
                "failed": self.total_failed,
                "migrations": self.total_migrations,
            },
            "telemetry": self.telemetry.counters(),
            "samples": samples,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# shared window-application logic
#
# One scheduling window — departures out, a batch of arrivals through
# the scheduler, a metrics sample — is the unit both front-ends apply:
# the simulated tick loop below and the live serving loop of
# :mod:`repro.serve`.  Keeping the application logic in one place is
# what makes the serving-mode differential test meaningful: a served
# window and a simulated tick *are* the same code path, so bit-identical
# decisions follow from bit-identical inputs.
# ----------------------------------------------------------------------
def pool_topology(trace: Trace, config: OnlineConfig):
    """The machine pool an online run of ``trace`` schedules into."""
    n = max(1, round(trace.config.n_machines * config.machine_pool_factor))
    return build_cluster(n)


def lifecycle_horizon_tail(autoscale: LifecycleConfig | None) -> int:
    """Extra ticks an autoscale run needs past the nominal horizon.

    Cold-start penalties (function miss + machine spin-up, each at most
    ``cold_start_ticks``) defer departures, and pooled containers then
    linger one keep-alive before expiring.  Zero without a lifecycle —
    the loop bound stays exactly what it was.  Shared by the
    simulator's tick loop and the serving replay client so both drive
    the same number of windows.
    """
    if autoscale is None:
        return 0
    tail = 2 * autoscale.cold_start_ticks + 2
    if autoscale.keep_alive != "none":
        tail += autoscale.keep_alive_ticks + 1
    return tail


@dataclass(frozen=True)
class ArrivalSchedule:
    """The deterministic arrival/departure plan of one online run.

    Derived from the config seed alone (arrival ticks uniformly spread,
    lifetimes log-uniform), so a restored run — or a replay client
    driving :mod:`repro.serve` — recomputes the exact schedule instead
    of persisting it.
    """

    apps: list
    #: arrival tick per application, sorted ascending (parallel to apps)
    arrival_tick: np.ndarray
    #: app_id -> lifetime in ticks
    life_of: dict[int, int]
    #: app_id -> its containers, all built with the plan, not in the run loop
    by_app: dict[int, list]
    #: last tick any departure can land on + 1
    horizon: int


def arrival_schedule(trace: Trace, config: OnlineConfig) -> ArrivalSchedule:
    """Recompute the seeded arrival/lifetime plan for ``trace``.

    Scenario runs (``config.scenario`` set) decode the plan from the
    trace's application names instead — both paths are deterministic,
    which is what lets checkpoint restore and the serving replay
    client recompute the schedule rather than persist it.
    """
    if config.scenario is not None:
        from repro.trace.scenarios import scenario_schedule

        return scenario_schedule(trace, config)
    rng = np.random.default_rng(config.seed)
    apps = order_applications(trace, config.arrival_order)
    arrival_tick = np.sort(rng.integers(0, config.ticks, len(apps)))
    lo, hi = config.lifetime_ticks
    lifetimes = np.exp(
        rng.uniform(np.log(lo), np.log(hi + 1), len(apps))
    ).astype(np.int64)
    life_of = {app.app_id: int(lifetimes[i]) for i, app in enumerate(apps)}
    by_app = trace.containers_by_app()
    horizon = config.ticks + int(lifetimes.max()) + 1
    return ArrivalSchedule(apps, arrival_tick, life_of, by_app, horizon)


def apply_window(
    scheduler: Scheduler,
    state: ClusterState,
    *,
    tick: int,
    departures=(),
    batch=(),
    lifecycle=None,
) -> tuple[TickSample, ScheduleResult | None]:
    """Apply one scheduling window to ``state`` and sample the cluster.

    Evicts ``departures`` (container ids; absent ids are skipped — the
    container may have been displaced by a fault already), schedules
    ``batch`` as one submission (idle windows skip the scheduler
    entirely), and returns the sampled :class:`TickSample` plus the
    round's :class:`~repro.base.ScheduleResult` (``None`` on idle
    windows).

    With a :class:`~repro.sim.lifecycle.LifecycleRuntime` the window
    grows two phases: ``window_pool`` (departure stashing + warm
    claims, before the scheduler) and ``window_power`` (wake/drain
    planning).  Warm-claimed arrivals never reach the scheduler; the
    runtime's ``last_warm``/``last_penalties`` expose them to the
    caller for departure booking.
    """
    # Batched eviction: one vectorised pass over the whole window's
    # departures (absent ids are skipped — the container may have been
    # displaced by a fault already).  The pool rewrites the list first:
    # stashed containers stay put, expired pool entries join it.
    arrived = len(batch)
    batch = list(batch)
    warm: dict[int, int] = {}
    t0 = time.perf_counter()
    if lifecycle is not None:
        departures = lifecycle.pool_intake(state, tick, departures)
    departed = state.evict_block(departures)
    phase_s = {"window_departures": time.perf_counter() - t0}
    if lifecycle is not None:
        t0 = time.perf_counter()
        batch, warm = lifecycle.claim_warm(state, tick, batch)
        departed += len(warm)  # each claim retires a pooled container
        phase_s["window_pool"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        _woken, _drained, reclaimed = lifecycle.power_step(state, tick, batch)
        departed += reclaimed
        phase_s["window_power"] = time.perf_counter() - t0

    migrations = failed = explored = 0
    batch_invocations = rescue_attempts = 0
    schedule: ScheduleResult | None = None
    if batch:
        schedule = scheduler.schedule(batch, state)
        migrations = schedule.migrations
        failed = schedule.n_undeployed
        explored = schedule.explored
        if schedule.telemetry is not None:
            batch_invocations = schedule.telemetry.batch_kernel_invocations
            rescue_attempts = schedule.telemetry.rescue_attempts
            # Per-tick copy of the round's scheduler phases, next to the
            # window phases, so a profile dump shows the whole tick.
            for name, dt in schedule.telemetry.phase_time_s.items():
                phase_s[name] = phase_s.get(name, 0.0) + dt

    if lifecycle is not None:
        lifecycle.charge(tick, schedule, batch)

    t0 = time.perf_counter()
    used = state.used_machines()
    util = state.used_utilization(0)
    sample = TickSample(
        tick=tick,
        arrived_containers=arrived,
        departed_containers=departed,
        running_containers=len(state.assignment),
        pending_failures=failed,
        used_machines=used,
        mean_utilization=float(util.mean()) if used else 0.0,
        migrations=migrations,
        violations=state.anti_affinity_violations(),
        explored=explored,
        batch_invocations=batch_invocations,
        rescue_attempts=rescue_attempts,
        phase_s=phase_s,
    )
    if lifecycle is not None:
        on, draining, off = lifecycle.power.counts()
        sample.powered_machines = on
        sample.draining_machines = draining
        sample.off_machines = off
        sample.woken_machines = len(lifecycle.last_woken)
        sample.warm_hits = len(warm)
        sample.cold_starts = lifecycle.last_cold_starts
        sample.pool_size = lifecycle.pending()
    phase_s["window_sample"] = time.perf_counter() - t0
    return sample, schedule


#: tick phases timed by the window logic itself (as opposed to the
#: scheduler phases, which arrive in the result via telemetry.merge).
#: ``window_pool``/``window_power`` only appear on autoscale runs.
WINDOW_PHASES = (
    "window_departures",
    "window_pool",
    "window_power",
    "window_sample",
    "window_record",
)


def record_window(
    result: OnlineResult,
    sample: TickSample,
    schedule: ScheduleResult | None,
) -> None:
    """Fold one applied window into ``result``'s series and totals."""
    t0 = time.perf_counter()
    result.samples.append(sample)
    result.total_departed += sample.departed_containers
    # Arrivals fold unconditionally: a fully-warm-served window has no
    # schedule but did admit containers.  (Without a lifecycle, no
    # schedule implies an empty batch, so this is a no-op there.)
    result.total_arrived += sample.arrived_containers
    if schedule is not None:
        result.total_failed += schedule.n_undeployed
        result.total_migrations += schedule.migrations
        result.total_elapsed_s += schedule.elapsed_s
        if schedule.telemetry is not None:
            # Scheduler phase times (search, rescue, requeue, repair)
            # ride along in this merge — only the window-local phases
            # below need explicit folding, or they'd double-count.
            result.telemetry.merge(schedule.telemetry)
    sample.phase_s["window_record"] = time.perf_counter() - t0
    for name in WINDOW_PHASES:
        dt = sample.phase_s.get(name)
        if dt is not None:
            result.telemetry.add_phase_time(name, dt)


# ----------------------------------------------------------------------
# the run snapshot
#
# Both front-ends snapshot a run the same way: the cluster state with
# its dirty log, the scheduler's cross-round ledgers, the partial result
# and the lifecycle's pool and power states, under a fingerprint that a
# restore must match.  Each adds only its own cursors: the simulator its
# tick, arrival index and booked departures, the server its window count
# and decision log.
# ----------------------------------------------------------------------
def write_run_snapshot(
    path: str,
    kind: str,
    fingerprint: dict,
    scheduler: Scheduler,
    state: ClusterState,
    result: OnlineResult,
    lifecycle: LifecycleRuntime | None,
    **own,
) -> None:
    """Atomically write a run snapshot: the shared part plus ``own``."""
    payload = {
        "fingerprint": fingerprint,
        **own,
        "state": state.checkpoint_payload(),
        "engine": scheduler.checkpoint(),
        "result": result,
        "lifecycle": lifecycle.checkpoint() if lifecycle is not None else None,
    }
    write_snapshot(path, payload, kind=kind)


def read_run_snapshot(
    path: str,
    kind: str,
    fingerprint: dict,
    scheduler: Scheduler,
    topology,
    constraints,
    lifecycle: LifecycleRuntime | None,
) -> tuple[dict, ClusterState]:
    """Restore the shared part of a :func:`write_run_snapshot` file.

    Raises :class:`SnapshotError` unless the snapshot was taken under
    ``fingerprint``.  Rebuilds the cluster state on ``topology``, hands
    ``scheduler`` its ledgers and ``lifecycle`` its pool and power
    states, and returns the payload (for the caller's own keys) with
    the restored state.
    """
    payload = read_snapshot(path, kind=kind)
    if payload["fingerprint"] != fingerprint:
        raise SnapshotError(
            f"{kind} snapshot fingerprint mismatch: snapshot was taken "
            f"under {payload['fingerprint']}, restoring under {fingerprint}"
        )
    state = ClusterState.from_payload(payload["state"], topology, constraints)
    if payload["engine"] is not None:
        scheduler.restore_checkpoint(payload["engine"], state)
    if payload.get("lifecycle") is not None:
        lifecycle.restore(payload["lifecycle"])
    return payload, state


class OnlineSimulator:
    """Drives a scheduler through an arriving-and-departing workload."""

    def __init__(self, trace: Trace, config: OnlineConfig | None = None) -> None:
        self.trace = trace
        self.config = config if config is not None else OnlineConfig()
        self._topology = pool_topology(trace, self.config)

    def _fingerprint(self, scheduler: Scheduler) -> dict:
        """What a snapshot must match to be restorable into this run."""
        cfg = self.config
        return {
            "n_apps": self.trace.n_apps,
            "n_containers": self.trace.n_containers,
            "n_machines": self._topology.n_machines,
            "ticks": cfg.ticks,
            "lifetime_ticks": list(cfg.lifetime_ticks),
            "arrival_order": cfg.arrival_order.value,
            "seed": cfg.seed,
            "machine_pool_factor": cfg.machine_pool_factor,
            "scenario": cfg.scenario,
            "scheduler": scheduler.name,
            "lifecycle": (
                asdict(cfg.autoscale) if cfg.autoscale is not None else None
            ),
        }

    def run(
        self,
        scheduler: Scheduler,
        *,
        checkpoint_every: int | None = None,
        checkpoint_path: str | None = None,
        restore_from: str | None = None,
        on_checkpoint=None,
    ) -> OnlineResult:
        """Drive ``scheduler`` through the churn, optionally checkpointed.

        Parameters
        ----------
        checkpoint_every / checkpoint_path:
            Write a crash-consistent snapshot to ``checkpoint_path``
            every ``checkpoint_every`` ticks (atomic write-rename, so a
            crash mid-write keeps the previous snapshot intact).
        restore_from:
            Resume from a snapshot written by a previous run.  The
            trace, config and scheduler must match the snapshot's
            fingerprint; the resumed run finishes bit-identical to an
            uninterrupted one.
        on_checkpoint:
            ``callback(tick, path)`` invoked after each snapshot is
            durably on disk (crash-injection hook for tests/CI).
        """
        cfg = self.config
        sched = arrival_schedule(self.trace, cfg)
        apps = sched.apps
        arrival_tick = sched.arrival_tick
        life_of = sched.life_of
        by_app = sched.by_app
        horizon = sched.horizon + lifecycle_horizon_tail(cfg.autoscale)
        n_machines = self._topology.n_machines
        lifecycle = (
            LifecycleRuntime(self.trace, cfg.autoscale, n_machines)
            if cfg.autoscale is not None
            else None
        )

        if restore_from is not None:
            payload, state = read_run_snapshot(
                restore_from, "online-sim", self._fingerprint(scheduler),
                scheduler, self._topology, self.trace.constraints, lifecycle,
            )
            result: OnlineResult = payload["result"]
            departures = {
                int(t): list(c) for t, c in payload["departures"].items()
            }
            idx = int(payload["idx"])
            start_tick = int(payload["tick"]) + 1
        else:
            state = ClusterState(self._topology, self.trace.constraints)
            #: departure tick -> container ids to evict
            departures = {}
            result = OnlineResult()
            idx = 0
            start_tick = 0

        drained_pool = lifecycle is None or not lifecycle.pending()
        if idx >= len(apps) and not departures and drained_pool:
            # The snapshot was taken on the run's final tick; the
            # uninterrupted run broke out right after sampling it.
            return result
        for tick in range(start_tick, horizon):
            deps = departures.pop(tick, ())  # 1. departures

            batch = []
            while idx < len(apps) and arrival_tick[idx] <= tick:
                app = apps[idx]
                batch.extend(by_app[app.app_id])
                idx += 1

            # 2.–3. arrivals + sampling, via the window logic shared
            # with the serving loop.
            sample, schedule = apply_window(
                scheduler, state, tick=tick, departures=deps, batch=batch,
                lifecycle=lifecycle,
            )
            record_window(result, sample, schedule)
            placed = schedule.placements if schedule is not None else {}
            warm = lifecycle.last_warm if lifecycle is not None else {}
            pen = lifecycle.last_penalties if lifecycle is not None else {}
            if placed or warm:
                for c in batch:
                    cid = c.container_id
                    if cid in placed or cid in warm:
                        # Cold starts extend residency: the penalty is
                        # paid in lifetime ticks (warm hits carry none).
                        end = tick + life_of[c.app_id] + pen.get(cid, 0)
                        departures.setdefault(end, []).append(cid)
            if (  # 4. checkpoint
                checkpoint_every
                and checkpoint_path
                and (tick + 1) % checkpoint_every == 0
            ):
                write_run_snapshot(
                    checkpoint_path, "online-sim",
                    self._fingerprint(scheduler),
                    scheduler, state, result, lifecycle,
                    tick=tick, idx=idx,
                    departures={t: list(c) for t, c in departures.items()},
                )
                if on_checkpoint is not None:
                    on_checkpoint(tick, checkpoint_path)
            if (
                idx >= len(apps)
                and not departures
                and (lifecycle is None or not lifecycle.pending())
            ):
                break
        return result

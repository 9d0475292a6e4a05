"""Autoscaling window runtime: warm pools + machine power lifecycle.

This module glues :class:`repro.cluster.warmpool.WarmPool` and
:class:`repro.cluster.power.PowerManager` into the shared window logic
of :mod:`repro.sim.online` (and, through it, the serving loop).  One
:class:`LifecycleRuntime` rides along with a run and participates in
every window:

1. **pool intake** (before departures are evicted): containers of
   pool-eligible function apps are *stashed* — parked on their machine
   instead of evicted — while entries whose keep-alive expired join
   the window's eviction list.
2. **warm claims** (before the scheduler runs): arrivals whose pool
   key has a parked container take it over in place — the pooled
   container is evicted and the arrival deployed on the same machine,
   skipping both the scheduler and the cold start.
3. **power step**: the drain planner wakes machines if the remaining
   batch outgrows powered capacity, or seals the idle tail (including
   machines holding only reclaimable pooled containers) when there is
   surplus.
4. **cold-start charging** (after the scheduler): pool-eligible
   placements that missed the pool pay ``cold_start_ticks``, and any
   placement landing on a still-spinning-up machine pays the
   remainder of its cold window.  Penalties are returned as extra
   lifetime ticks — a cold-started container occupies its slot longer,
   which is precisely how cold starts cost machine-hours.

Pool eligibility comes from the scenario naming convention
(:func:`repro.trace.scenarios.function_pool_key`): only ``fn-`` apps
re-arrive under a stable stem, so only they can hit a warm pool.
Everything here is deterministic and checkpointable; a run with a
``LifecycleRuntime`` restores bit-identical mid-flight.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.power import PowerConfig, PowerManager
from repro.cluster.state import ClusterState
from repro.cluster.warmpool import POLICIES, WarmPool
from repro.trace.scenarios import function_pool_key

#: keep-alive policy names accepted on the CLI: the pool policies plus
#: "none" (no pool at all — every eligible placement cold-starts)
KEEP_ALIVE_CHOICES = ("none",) + POLICIES


@dataclass(frozen=True)
class LifecycleConfig:
    """Knobs of the autoscaling runtime (pool + power planner).

    The one declaration of the lifecycle's knobs and their defaults: an
    autoscale run carries one as ``OnlineConfig.autoscale``, the CLI's
    ``--autoscale`` flags default to these fields, and a run snapshot's
    fingerprint records them as ``dataclasses.asdict``.

    keep_alive / keep_alive_ticks / pool_capacity:
        Warm-pool policy (``none``/``fixed``/``ttl``/``lru``), its
        keep-alive horizon in ticks, and the pool's entry cap.
    cold_start_ticks / drain_ticks / min_on / headroom:
        Power-planner knobs — see
        :class:`repro.cluster.power.PowerConfig`.
    """

    keep_alive: str = "fixed"
    keep_alive_ticks: int = 4
    pool_capacity: int = 256
    cold_start_ticks: int = 2
    drain_ticks: int = 1
    min_on: int = 1
    headroom: float = 1.0

    def __post_init__(self) -> None:
        if self.keep_alive not in KEEP_ALIVE_CHOICES:
            raise ValueError(
                f"unknown keep-alive policy {self.keep_alive!r}; "
                f"pick from {KEEP_ALIVE_CHOICES}"
            )
        # Pool/power knob validation is delegated to the components.

    def power_config(self) -> PowerConfig:
        return PowerConfig(
            drain_ticks=self.drain_ticks,
            cold_start_ticks=self.cold_start_ticks,
            min_on=self.min_on,
            headroom=self.headroom,
        )


class LifecycleRuntime:
    """Per-run pool + power state, one instance per online run."""

    def __init__(self, trace, config: LifecycleConfig, n_machines: int):
        self.config = config
        #: app_id -> pool key for pool-eligible (function) applications.
        #: The key carries the demand shape so a claim is guaranteed to
        #: free exactly what the arrival needs.
        self._key_of: dict[int, tuple] = {}
        for app in trace.applications:
            stem = function_pool_key(getattr(app, "name", "") or "")
            if stem is not None:
                self._key_of[app.app_id] = (stem, app.cpu, app.mem_gb)
        self.pool = (
            WarmPool(
                policy=config.keep_alive,
                keep_alive_ticks=config.keep_alive_ticks,
                capacity=config.pool_capacity,
            )
            if config.keep_alive != "none"
            else None
        )
        self.power = PowerManager(n_machines, config.power_config())
        self.cold_starts = 0
        #: window-scoped outputs, refreshed each tick by the caller
        self.last_warm: dict[int, int] = {}
        self.last_penalties: dict[int, int] = {}
        self.last_reclaimed = 0
        self.last_woken: list[int] = []
        self.last_cold_starts = 0

    # ------------------------------------------------------------------
    def pending(self) -> int:
        """Pooled containers still resident (keeps the run loop alive
        until the pool drains after the last arrival)."""
        return len(self.pool) if self.pool is not None else 0

    # ------------------------------------------------------------------
    def pool_intake(
        self, state: ClusterState, tick: int, departures
    ) -> list[int]:
        """Rewrite a window's departure list through the pool.

        Expired pool entries (deadline order) are prepended for
        eviction; scheduled departures of pool-eligible apps are
        stashed in place of being evicted, with any overflow victims
        taking their slot in the eviction list.
        """
        if self.pool is None:
            return list(departures)
        out = self.pool.evict_before(tick)
        for cid in departures:
            machine = state.assignment.get(cid)
            key = (
                self._key_of.get(state.container(cid).app_id)
                if machine is not None
                else None
            )
            if key is None:
                out.append(cid)
                continue
            out.extend(self.pool.stash(key, cid, machine, tick))
        return out

    def claim_warm(
        self, state: ClusterState, tick: int, batch
    ) -> tuple[list, dict[int, int]]:
        """Serve arrivals from the pool; returns (cold batch, warm map).

        Each warm hit evicts the parked container and deploys the
        arrival on the same machine — identical demand by key
        construction, so the swap always fits.  ``warm`` maps the
        arriving container id to its machine.
        """
        warm: dict[int, int] = {}
        if self.pool is None:
            self.last_warm = warm
            return list(batch), warm
        remaining = []
        for c in batch:
            key = self._key_of.get(c.app_id)
            if key is None:
                remaining.append(c)
                continue

            def accept(cid, m, c=c):
                # Entries can go stale when a fault evicts a pooled
                # container out from under the pool; skip those.
                return (
                    cid in state.assignment
                    and self.power.is_on(m)
                    and not state.would_violate(c, m)
                )

            got = self.pool.claim(key, tick, accept)
            if got is None:
                remaining.append(c)
                continue
            pooled_cid, machine = got
            state.evict(pooled_cid)
            state.deploy(c, machine)
            warm[c.container_id] = machine
        self.last_warm = warm
        return remaining, warm

    def power_step(
        self, state: ClusterState, tick: int, batch
    ) -> tuple[list[int], list[int], int]:
        """Run the drain planner for this window's remaining batch."""
        demand_cpu = 0.0
        for c in batch:
            demand_cpu += c.cpu
        reclaimable: dict[int, list[int]] = {}
        if self.pool is not None:
            for m, cids in self.pool.by_machine().items():
                residents = state.machine_containers.get(m)
                if residents and len(cids) == len(residents):
                    reclaimable[m] = cids
        woken, drained, reclaimed = self.power.step(
            state, tick, demand_cpu, reclaimable=reclaimable
        )
        if reclaimed:
            for cid in reclaimed:
                self.pool.discard(cid)
            state.evict_block(reclaimed)
            # Eviction re-credited the reclaimed demand onto rows the
            # planner just sealed; zero them again.
            self.power.seal_reclaimed(state, drained)
        self.last_woken = woken
        self.last_reclaimed = len(reclaimed)
        return woken, drained, len(reclaimed)

    def charge(self, tick: int, schedule, batch) -> dict[int, int]:
        """Cold-start penalties (extra lifetime ticks) for this window's
        scheduled placements.  Warm claims pay nothing."""
        pen: dict[int, int] = {}
        window_cold = 0
        placements = schedule.placements if schedule is not None else {}
        for c in batch:
            machine = placements.get(c.container_id)
            if machine is None:
                continue
            ticks = 0
            if c.app_id in self._key_of:
                # Pool-eligible but not served warm: function cold start.
                ticks += self.config.cold_start_ticks
                window_cold += 1
            ticks += self.power.cold_penalty(machine, tick)
            if ticks:
                pen[c.container_id] = ticks
        self.cold_starts += window_cold
        self.last_cold_starts = window_cold
        self.last_penalties = pen
        return pen

    # ------------------------------------------------------------------
    def checkpoint(self) -> dict:
        return {
            "pool": self.pool.checkpoint() if self.pool is not None else None,
            "power": self.power.checkpoint(),
            "cold_starts": self.cold_starts,
        }

    def restore(self, payload: dict) -> None:
        if payload["pool"] is not None:
            if self.pool is None:
                raise ValueError(
                    "snapshot carries a warm pool but keep_alive is 'none'"
                )
            self.pool.restore(payload["pool"])
        self.power.restore(payload["power"])
        self.cold_starts = int(payload["cold_starts"])


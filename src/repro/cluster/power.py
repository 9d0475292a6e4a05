"""Per-machine power lifecycle: scale-to-zero for idle machines.

The paper's Fig. 10 counts *used* machines; this module turns that
curve into an energy/cost dimension by actually powering the unused
tail down.  Every machine is in one of three states:

``on``
    Normal: full capacity row, admits placements.
``draining``
    Selected for power-down: its ``available`` row is zeroed (sealed)
    so no engine places on it, and after ``drain_ticks`` windows it
    transitions to ``off``.  Waking a draining machine is free — it
    never finished spinning down.
``off``
    Powered off.  Waking it costs ``cold_start_ticks``: the machine's
    ``cold_until`` marks when it is warm again, and placements that
    land on it before then are charged the remaining spin-up as a
    cold-start penalty (see :mod:`repro.sim.lifecycle`).

Sealing works by zeroing the machine's capacity row and touching the
dirty log — exactly the administratively-down convention
:func:`repro.core.validate.validate_state` already excludes from its
Eq. 9 bookkeeping audit, and the same signal that makes the
machine index and rescue kernel drop their entries for the machine.  No engine needs power-specific code.

The drain planner powers down **packed-last first**: among machines
that host nothing (or only warm-pool containers the caller is willing
to reclaim), the highest machine ids — the tail of the packed-first
placement order every engine fills — are sealed first, so power-down
cooperates with consolidation instead of fighting it.  Per-machine
density comes from the rescue kernel's resident ledger when one is
available (the ledger already maintains dirty-log-synced resident
summaries), falling back to ``state.machine_containers``.

Machines failed by :mod:`repro.sim.faults` present the same all-zero
row while still marked ``on`` here; the planner never drains or wakes
them (a wake would silently repair the fault).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.state import ClusterState

#: power states (int8 codes)
POWER_ON = 0
POWER_DRAINING = 1
POWER_OFF = 2

#: state code -> CLI/debug name
POWER_NAMES = {POWER_ON: "on", POWER_DRAINING: "draining", POWER_OFF: "off"}


@dataclass(frozen=True)
class PowerConfig:
    """Knobs of the drain planner.

    Parameters
    ----------
    drain_ticks:
        Windows a machine spends ``draining`` before it is ``off``.
    cold_start_ticks:
        Spin-up time of an ``off`` machine, in ticks; placements that
        land on it before it is warm are charged the remainder.
    min_on:
        Machines never powered below this count.
    headroom:
        Spare machine-capacities of CPU kept powered beyond the
        current window's demand — the buffer that absorbs the next
        window's arrivals without a cold start.
    """

    drain_ticks: int = 1
    cold_start_ticks: int = 2
    min_on: int = 1
    headroom: float = 1.0

    def __post_init__(self) -> None:
        if self.drain_ticks < 1:
            raise ValueError("drain_ticks must be >= 1")
        if self.cold_start_ticks < 0:
            raise ValueError("cold_start_ticks must be >= 0")
        if self.min_on < 0:
            raise ValueError("min_on must be >= 0")
        if self.headroom < 0:
            raise ValueError("headroom must be >= 0")


class PowerManager:
    """Tracks per-machine power state and plans wake/drain transitions.

    All decisions are pure functions of ``(state, tick, demand)`` and
    the manager's own arrays, and every candidate scan is ordered by
    machine id — a run is bit-deterministic, which is what lets the
    autoscale differential axis hold.
    """

    def __init__(self, n_machines: int, config: PowerConfig | None = None):
        self.config = config if config is not None else PowerConfig()
        self.n_machines = n_machines
        self.power = np.zeros(n_machines, dtype=np.int8)
        #: tick of the machine's last seal (valid while draining)
        self.sealed_at = np.zeros(n_machines, dtype=np.int64)
        #: first tick a woken-from-off machine is warm again
        self.cold_until = np.zeros(n_machines, dtype=np.int64)
        #: cumulative powered (on + draining) machine-ticks
        self.machine_ticks = 0
        self.wakes = 0
        self.cold_wakes = 0
        self.drains = 0

    # ------------------------------------------------------------------
    def is_on(self, machine_id: int) -> bool:
        return int(self.power[machine_id]) == POWER_ON

    def counts(self) -> tuple[int, int, int]:
        """(on, draining, off) machine counts."""
        on = int((self.power == POWER_ON).sum())
        draining = int((self.power == POWER_DRAINING).sum())
        return on, draining, self.n_machines - on - draining

    def cold_penalty(self, machine_id: int, tick: int) -> int:
        """Remaining spin-up ticks a placement on ``machine_id`` pays."""
        return max(0, int(self.cold_until[machine_id]) - tick)

    # ------------------------------------------------------------------
    def step(
        self,
        state: ClusterState,
        tick: int,
        demand_cpu: float,
        *,
        reclaimable: dict[int, list[int]] | None = None,
    ) -> tuple[list[int], list[int], list[int]]:
        """One per-window power pass.

        ``demand_cpu`` is the CPU the window's remaining batch needs;
        ``reclaimable`` maps machines whose only residents are
        warm-pool containers to those container ids — draining such a
        machine reclaims (evicts) them.

        Returns ``(woken, drained, reclaimed_cids)``.  The caller must
        evict ``reclaimed_cids``; their rows were *not* zeroed past the
        eviction (drain seals the machine after the pool gives it up).
        """
        cfg = self.config
        reclaimable = reclaimable or {}
        # 1. draining machines whose timer expired finish powering off
        draining = np.flatnonzero(self.power == POWER_DRAINING)
        for m in draining.tolist():
            if tick - int(self.sealed_at[m]) >= cfg.drain_ticks:
                self.power[m] = POWER_OFF

        # 2. wake machines until powered free CPU covers the demand
        # plus headroom (free CPU is an optimistic placeability proxy —
        # fragmentation eats into it, which is what the headroom
        # buffer absorbs).  Sealed and failed rows are all-zero, so
        # the sum *is* the free CPU of healthy powered machines.
        free = float(state.available[:, 0].sum())
        capacity = state.topology.capacity
        keep_cpu = demand_cpu + cfg.headroom * float(capacity[:, 0].mean())
        woken: list[int] = []
        if free < keep_cpu:
            for pool_state in (POWER_DRAINING, POWER_OFF):
                if free >= keep_cpu:
                    break
                for m in np.flatnonzero(self.power == pool_state).tolist():
                    self._wake(state, m, tick, cold=pool_state == POWER_OFF)
                    woken.append(m)
                    free += float(capacity[m, 0])
                    if free >= keep_cpu:
                        break

        # 3. drain the idle tail: packed-last first, truly empty
        # machines before warm-pool reclaims (which are ordered by
        # resident count so the cheapest reclaim drains first).
        drained: list[int] = []
        reclaimed: list[int] = []
        if not woken:
            empty: list[int] = []
            warm_only: list[tuple[int, int]] = []
            for m in range(self.n_machines):
                if self.power[m] != POWER_ON:
                    continue
                residents = state.machine_containers.get(m)
                if residents:
                    cids = reclaimable.get(m)
                    if cids is not None and len(cids) == len(residents):
                        warm_only.append((len(cids), m))
                elif state.available[m].any():  # healthy; failed stay put
                    empty.append(m)
            empty.sort(reverse=True)
            warm_only.sort(key=lambda item: (item[0], -item[1]))
            candidates = empty + [m for _, m in warm_only]
            n_on = int((self.power == POWER_ON).sum())
            for m in candidates:
                if n_on <= cfg.min_on:
                    break
                # A reclaimed machine's pooled residents still hold
                # capacity; once evicted the whole row frees up, so the
                # spare test uses the machine's full capacity.
                spare = free - float(capacity[m, 0])
                if spare < keep_cpu:
                    break
                reclaimed.extend(reclaimable.get(m, ()))
                self._seal(state, m, tick)
                drained.append(m)
                free = spare
                n_on -= 1

        on, draining_now, _off = self.counts()
        self.machine_ticks += on + draining_now
        return woken, drained, reclaimed

    # ------------------------------------------------------------------
    def _wake(self, state: ClusterState, m: int, tick: int, *, cold: bool):
        self.power[m] = POWER_ON
        state.available[m] = state.topology.capacity[m]
        state.touch(m)
        self.wakes += 1
        if cold:
            self.cold_wakes += 1
            self.cold_until[m] = tick + self.config.cold_start_ticks

    def _seal(self, state: ClusterState, m: int, tick: int) -> None:
        """Seal ``m`` (must be empty by the time the caller evicts any
        reclaimed pool residents it reported for it)."""
        self.power[m] = POWER_DRAINING
        self.sealed_at[m] = tick
        state.available[m] = 0.0
        state.touch(m)
        self.drains += 1

    def seal_reclaimed(self, state: ClusterState, machine_ids) -> None:
        """Re-zero rows freed by evicting reclaimed pool residents."""
        for m in machine_ids:
            state.available[m] = 0.0
            state.touch(m)

    # ------------------------------------------------------------------
    def checkpoint(self) -> dict:
        return {
            "power": self.power.tolist(),
            "sealed_at": self.sealed_at.tolist(),
            "cold_until": self.cold_until.tolist(),
            "machine_ticks": self.machine_ticks,
            "wakes": self.wakes,
            "cold_wakes": self.cold_wakes,
            "drains": self.drains,
        }

    def restore(self, payload: dict) -> None:
        self.power = np.asarray(payload["power"], dtype=np.int8)
        self.sealed_at = np.asarray(payload["sealed_at"], dtype=np.int64)
        self.cold_until = np.asarray(payload["cold_until"], dtype=np.int64)
        self.machine_ticks = int(payload["machine_ticks"])
        self.wakes = int(payload["wakes"])
        self.cold_wakes = int(payload["cold_wakes"])
        self.drains = int(payload["drains"])

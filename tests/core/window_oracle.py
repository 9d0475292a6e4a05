"""The window-plan audit: the oracle of the engines' window legality.

:func:`validate_window` audits a *proposed* window plan (container →
machine) against a :class:`WindowContext` frozen before any of the
window's deploys — Equations 7–9 accumulated over the window, pure, no
state mutation.  No engine calls it: they run
:func:`~repro.core.validate.validate_state` on the live state.  The
property tests in ``tests/core/test_validate.py`` check every plan an
engine commits against this from-scratch reference, and hand-built
breaches against its kind tags.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.container import Container
from repro.cluster.state import ClusterState
from repro.core.validate import (
    CAPACITY_EPS,
    KIND_CAPACITY,
    KIND_CROSS,
    KIND_RANGE,
    KIND_UNKNOWN,
    KIND_WITHIN,
    ValidationReport,
)


@dataclass(frozen=True)
class WindowContext:
    """Everything Equations 7–9 need, frozen *before* a window commits.

    Captured with :meth:`capture` at the point the incremental engines
    would start deploying the window; the arrays/dicts are copies, so
    the context stays valid while the live state mutates underneath.
    """

    #: pre-window remaining capacity, shape (n_machines, n_dims)
    available: np.ndarray
    #: pre-window residents: app id -> {machine id -> container count}
    app_machines: dict[int, dict[int, int]]
    #: machine id -> rack id
    rack_of: np.ndarray
    #: the workload's anti-affinity index
    constraints: object
    #: resource dimension names, for demand-vector extraction
    resources: tuple[str, ...]

    @classmethod
    def capture(cls, state: ClusterState) -> "WindowContext":
        return cls(
            available=state.available.copy(),
            app_machines={
                a: dict(d) for a, d in state.app_machines.items()
            },
            rack_of=state.topology.rack_of,
            constraints=state.constraints,
            resources=tuple(state.topology.resources),
        )

    def resident_apps_on(self, machine_id: int) -> list[int]:
        """Applications resident on ``machine_id`` pre-window."""
        return [
            app
            for app, per_machine in self.app_machines.items()
            if per_machine.get(machine_id)
        ]


def validate_window(
    ctx: WindowContext,
    containers: list[Container],
    placements: dict[int, int],
) -> ValidationReport:
    """Audit a proposed window plan against the frozen pre-window state.

    ``placements`` maps container id → machine id for the containers of
    this window the plan places (omissions = left unplaced, which is
    always legal).  Containers are processed in ascending container id,
    so for intra-window breaches the *later* container is reported —
    deterministic and independent of dict ordering.
    """
    report = ValidationReport()
    by_id = {c.container_id: c for c in containers}
    n_machines = int(ctx.available.shape[0])
    cs = ctx.constraints

    # Accumulators over the window, keyed by (app, machine/rack).
    load = {}  # machine id -> accumulated demand vector
    app_on_machine: dict[tuple[int, int], int] = {}
    app_on_rack: dict[tuple[int, int], int] = {}
    apps_on_machine: dict[int, list[int]] = {}

    for cid in sorted(placements):
        machine = placements[cid]
        container = by_id.get(cid)
        if container is None:
            report.add(
                KIND_UNKNOWN, cid, machine,
                "placed container is not part of the window",
            )
            continue
        if not 0 <= machine < n_machines:
            report.add(
                KIND_RANGE, cid, machine,
                f"machine id outside [0, {n_machines})",
            )
            continue
        app = container.app_id
        demand = container.demand_vector(ctx.resources)

        # Equation 9: accumulated demand within the frozen capacity.
        total = load.get(machine)
        total = demand if total is None else total + demand
        load[machine] = total
        if (total > ctx.available[machine] + CAPACITY_EPS).any():
            report.add(
                KIND_CAPACITY, cid, machine,
                f"window demand {total} exceeds remaining "
                f"{ctx.available[machine]}",
            )

        # Equation 7: within-app anti-affinity (machine or rack scope).
        if cs.has_within(app):
            if cs.within_scope(app) == "rack":
                rack = int(ctx.rack_of[machine])
                pre = sum(
                    count
                    for m, count in ctx.app_machines.get(app, {}).items()
                    if int(ctx.rack_of[m]) == rack
                )
                seen = app_on_rack.get((app, rack), 0)
                if pre + seen >= 1:
                    report.add(
                        KIND_WITHIN, cid, machine,
                        f"app {app} already in rack {rack} "
                        "(rack-scoped within rule)",
                    )
                app_on_rack[(app, rack)] = seen + 1
            else:
                pre = ctx.app_machines.get(app, {}).get(machine, 0)
                seen = app_on_machine.get((app, machine), 0)
                if pre + seen >= 1:
                    report.add(
                        KIND_WITHIN, cid, machine,
                        f"app {app} already on machine (within rule)",
                    )
                app_on_machine[(app, machine)] = seen + 1

        # Equation 8: cross-application conflicts, against pre-window
        # residents and against window siblings already audited.
        if cs.has_conflicts(app):
            for other in ctx.resident_apps_on(machine):
                if cs.violates(app, other):
                    report.add(
                        KIND_CROSS, cid, machine,
                        f"conflicts with resident app {other}",
                    )
                    break
        for other in apps_on_machine.get(machine, ()):
            if other != app and cs.violates(app, other):
                report.add(
                    KIND_CROSS, cid, machine,
                    f"conflicts with window app {other}",
                )
                break
        apps_on_machine.setdefault(machine, []).append(app)
    return report

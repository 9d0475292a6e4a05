"""Shared Equation 7–9 placement validation for all engines.

Both engines (vectorised batch, flow-network reference) promise the
same legality contract from Section III of the paper:

* **Equation 7** — anti-affinity *within*: at most one container of a
  within-anti-affinity application per machine (or per rack, for
  rack-scoped rules);
* **Equation 8** — anti-affinity *across*: containers of conflicting
  applications never share a machine;
* **Equation 9** — aggregate capacity: the demand resident on a machine
  never exceeds its capacity vector (the per-placement Equation 6
  dominance check, accumulated).

This module is the single source of truth for those checks.
:func:`validate_state` audits a *live* state's resident population:
capacity bookkeeping (Equation 9) and the full Equation 7–8 rule set;
to audit a round, run it on the state after ``schedule()``
(``validate_state(state).raise_if_invalid(name)``).  The audit of a
*proposed* window plan against the pre-window state is a test oracle
and lives in ``tests/core/window_oracle.py``.

The module also defines the Fig. 9-style placement-quality metrics and
the documented tolerances (:data:`QUALITY_TOLERANCE`) within which a
candidate engine's quality must match the reference engine's when its
decisions are not bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.state import ClusterState

#: slack for float capacity comparisons (demands are exact binary
#: fractions in practice; the epsilon only absorbs accumulated
#: subtraction noise, never a real overflow)
CAPACITY_EPS = 1e-6

#: Equation tags used as :attr:`Violation.kind`
KIND_WITHIN = "eq7-within"
KIND_CROSS = "eq8-cross"
KIND_CAPACITY = "eq9-capacity"
KIND_BOOKKEEPING = "eq9-bookkeeping"
KIND_UNKNOWN = "unknown-container"
KIND_RANGE = "machine-range"


@dataclass(frozen=True)
class Violation:
    """One Equation 7/8/9 breach found by a validator."""

    kind: str
    container_id: int
    machine_id: int
    detail: str

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return (
            f"[{self.kind}] container {self.container_id} on machine "
            f"{self.machine_id}: {self.detail}"
        )


class PlacementInvalidError(AssertionError):
    """Raised by :meth:`ValidationReport.raise_if_invalid`."""


@dataclass
class ValidationReport:
    """The violations one validator pass found (empty = valid)."""

    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(
        self, kind: str, container_id: int, machine_id: int, detail: str
    ) -> None:
        self.violations.append(
            Violation(kind, container_id, machine_id, detail)
        )

    def by_kind(self) -> dict[str, int]:
        """Violation count per equation tag, in a stable key order."""
        out: dict[str, int] = {}
        for v in sorted(self.violations, key=lambda v: v.kind):
            out[v.kind] = out.get(v.kind, 0) + 1
        return out

    def raise_if_invalid(self, context: str = "") -> None:
        """Raise :class:`PlacementInvalidError` listing every violation."""
        if self.ok:
            return
        lines = "\n".join(f"  {v}" for v in self.violations[:20])
        suffix = (
            f"\n  ... and {len(self.violations) - 20} more"
            if len(self.violations) > 20
            else ""
        )
        where = f" ({context})" if context else ""
        raise PlacementInvalidError(
            f"{len(self.violations)} Equation 7–9 violation(s){where}:\n"
            f"{lines}{suffix}"
        )


# ----------------------------------------------------------------------
# live-state validation (post-hoc audit of the resident population)
# ----------------------------------------------------------------------
def validate_state(state: ClusterState) -> ValidationReport:
    """Audit a live state: Equation 9 bookkeeping plus Equations 7–8.

    Recomputes every machine's resident demand from first principles and
    checks it against both the capacity vector and the maintained
    ``available`` array (a drifted ``available`` means an engine
    mutated capacity without going through deploy/evict), then sweeps
    the full anti-affinity rule set over the resident population.
    """
    report = ValidationReport()
    topo = state.topology
    cs = state.constraints
    resources = topo.resources

    resident = np.zeros_like(state.available)
    for cid, machine in state.assignment.items():
        resident[machine] += state.container(cid).demand_vector(resources)

    over = np.flatnonzero(
        (resident > topo.capacity + CAPACITY_EPS).any(axis=1)
    )
    for machine in over:
        report.add(
            KIND_CAPACITY, -1, int(machine),
            f"resident demand {resident[machine]} exceeds capacity "
            f"{topo.capacity[machine]}",
        )
    # Machines downed by fault injection have their ``available`` row
    # zeroed in place with no separate flag
    # (:func:`repro.sim.faults.fail_machines`); an all-zero row is
    # therefore read as administratively down, not as drift.  An
    # exactly-full machine also matches, and passes the check anyway.
    downed = (state.available == 0.0).all(axis=1)
    drift = np.flatnonzero(
        (np.abs(topo.capacity - resident - state.available) > CAPACITY_EPS)
        .any(axis=1)
        & ~downed
    )
    for machine in drift:
        report.add(
            KIND_BOOKKEEPING, -1, int(machine),
            f"available {state.available[machine]} != capacity - resident "
            f"{topo.capacity[machine] - resident[machine]}",
        )

    # Equations 7–8 over the resident population.  Mirrors the counting
    # semantics of ClusterState.anti_affinity_violations: each offending
    # container is reported once.
    for machine_id, cids in state.machine_containers.items():
        if len(cids) < 2:
            continue
        apps: dict[int, list[int]] = {}
        for cid in cids:
            apps.setdefault(state.container(cid).app_id, []).append(cid)
        app_ids = list(apps)
        for i, a in enumerate(app_ids):
            if (
                len(apps[a]) > 1
                and cs.has_within(a)
                and cs.within_scope(a) == "machine"
            ):
                for cid in apps[a]:
                    report.add(
                        KIND_WITHIN, cid, machine_id,
                        f"app {a} has {len(apps[a])} containers co-located",
                    )
            for b in app_ids[i + 1 :]:
                if cs.violates(a, b):
                    for cid in apps[a] + apps[b]:
                        report.add(
                            KIND_CROSS, cid, machine_id,
                            f"apps {a} and {b} conflict",
                        )
    for app_id, per_machine in state.app_machines.items():
        if not per_machine or not cs.has_within(app_id):
            continue
        if cs.within_scope(app_id) != "rack":
            continue
        rack_machines: dict[int, list[int]] = {}
        for m, count in per_machine.items():
            if count:
                rack = int(topo.rack_of[m])
                rack_machines.setdefault(rack, []).extend([m] * count)
        for rack, machines in rack_machines.items():
            if len(machines) > 1:
                for cid, m in state.assignment.items():
                    if (
                        state.container(cid).app_id == app_id
                        and int(topo.rack_of[m]) == rack
                    ):
                        report.add(
                            KIND_WITHIN, cid, m,
                            f"app {app_id} has {len(machines)} containers "
                            f"in rack {rack} (rack-scoped within rule)",
                        )
    return report


# ----------------------------------------------------------------------
# Fig. 9-style placement quality and the parity tolerances
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class QualityMetrics:
    """The placement-quality triple of the Fig. 9 panels.

    ``fragmentation`` is the mean *unused* fraction across used
    machines — low is good, and an engine that strands capacity shows up
    here even when its used-machine count matches.
    """

    used_machines: int
    fragmentation: float
    blocked: int
    violations: int

    def as_dict(self) -> dict:
        return {
            "used_machines": self.used_machines,
            "fragmentation": self.fragmentation,
            "blocked": self.blocked,
            "violations": self.violations,
        }


def measure_quality(state: ClusterState, blocked: int = 0) -> QualityMetrics:
    """Sample the Fig. 9 quality metrics from a live state."""
    util = state.used_utilization(0)
    return QualityMetrics(
        used_machines=state.used_machines(),
        fragmentation=float(1.0 - util.mean()) if util.size else 0.0,
        blocked=blocked,
        violations=state.anti_affinity_violations(),
    )


#: Documented parity tolerances for a candidate engine against the
#: reference engine on identical workloads.  The candidate may pick
#: different machines, but quality must be equivalent.  Every axis is a
#: cost, so the gate is one-sided: only a candidate *worse* than the
#: reference beyond tolerance fails (beating the reference is never a
#: gap):
#:
#: * ``used_machines``: within 10% relative or 2 machines absolute,
#:   whichever is looser (small clusters quantise hard);
#: * ``fragmentation``: within 0.10 absolute (mean unused fraction);
#: * ``blocked``: within 2 containers absolute or 10% of arrivals;
#: * ``violations``: exactly equal (both must be zero — legality is
#:   never a tolerance).
QUALITY_TOLERANCE = {
    "used_machines_rel": 0.10,
    "used_machines_abs": 2,
    "fragmentation_abs": 0.10,
    "blocked_abs": 2,
    "blocked_rel": 0.10,
}


def quality_gaps(
    reference: QualityMetrics,
    candidate: QualityMetrics,
    arrived: int | None = None,
    tolerance: dict | None = None,
) -> list[str]:
    """Ways ``candidate`` is *worse* than ``reference`` beyond tolerance.

    The gate is directional — every Fig. 9 axis is a cost (machines
    used, stranded capacity, blocked containers), so a candidate that
    beats the reference passes with room to spare; only regressions
    count against it.  Violations remain an exact-equality check in
    both directions.  Returns human-readable descriptions (empty list =
    within parity).  ``arrived`` scales the relative blocked tolerance;
    without it only the absolute blocked bound applies.
    """
    tol = dict(QUALITY_TOLERANCE)
    if tolerance:
        tol.update(tolerance)
    gaps: list[str] = []
    um_slack = max(
        tol["used_machines_abs"],
        tol["used_machines_rel"] * max(reference.used_machines, 1),
    )
    if candidate.used_machines - reference.used_machines > um_slack:
        gaps.append(
            f"used_machines {candidate.used_machines} vs reference "
            f"{reference.used_machines} (slack {um_slack:.1f})"
        )
    # Fragmentation is mean unused fraction over used machines, so a
    # candidate legitimately using ``um_slack`` more machines sees it
    # rise mechanically by up to um_slack·(1-f_ref)/(u_ref+um_slack)
    # even at identical packing — grant exactly that on top of the
    # absolute tolerance (at scale the add-on tends to the 10% relative
    # machine bound scaled by the reference's packing density).
    frag_slack = tol["fragmentation_abs"] + (
        um_slack
        * (1.0 - reference.fragmentation)
        / (reference.used_machines + um_slack)
        if reference.used_machines
        else 0.0
    )
    if candidate.fragmentation - reference.fragmentation > frag_slack:
        gaps.append(
            f"fragmentation {candidate.fragmentation:.3f} vs reference "
            f"{reference.fragmentation:.3f} "
            f"(slack {frag_slack:.3f})"
        )
    blocked_slack = float(tol["blocked_abs"])
    if arrived is not None:
        blocked_slack = max(blocked_slack, tol["blocked_rel"] * arrived)
    if candidate.blocked - reference.blocked > blocked_slack:
        gaps.append(
            f"blocked {candidate.blocked} vs reference "
            f"{reference.blocked} (slack {blocked_slack:.1f})"
        )
    if candidate.violations != reference.violations:
        gaps.append(
            f"violations {candidate.violations} vs reference "
            f"{reference.violations} (must be equal)"
        )
    return gaps

"""Batched block placement kernel: one in-order walk per LLA block.

Isomorphism limiting says every container of an application block is
identical; depth limiting says each container takes the *first* machine
of the packed-first order that still admits it.  Chaining the two, the
whole block's placement is determined at block start by per-machine
**fit quotas**: walking the candidate order, machine ``m`` absorbs
``floor(min(available[m] / demand))`` consecutive containers before the
walk moves on — one for machine-scoped within-anti-affinity
applications, one per rack for rack-scoped ones.  The plan is a list of
**placement runs** ``(machines, counts)``.

The kernel reads a raw *window* of the order and decides admission
itself, in the order the per-container walk would: **Equation 6** is one
vectorised ``dominates`` over the window's rows; **Equations 7–8** are
asked per Equation-6 survivor from the applications the machine hosts
(``machine_apps``: the block's own application under a within-rule, its
conflict set, and at rack scope the racks hosting it or already
planned); the quota is computed in Python float arithmetic (the same
IEEE division, minimum and floor NumPy makes), and the walk **stops at
the k-th container**.  A block lands on a handful of machines, so
Equations 7–8 are asked about a handful of positions, whatever the
window's width.  Every scope consumes candidates strictly in order, so
a full plan from a *prefix* of the order is the plan from the whole
order: the scheduler sizes the window from ``k`` and widens it only
when the plan comes back short (``AladdinScheduler._batch_place``).

The kernel is a *plan*: it mutates nothing, which keeps it comparable
against the per-container walk (the differential harness asserts
bit-identical placements).  A plan of fewer than ``k`` containers from
the whole order means every quota is exhausted; the remainder goes to
rescue, exactly where the per-container walk would have handed over.
Same inputs, same plan; candidates a caller already filtered pass
through unchanged.
"""

from __future__ import annotations

import math
from itertools import repeat

import numpy as np

from repro.cluster.state import ClusterState, dominates


def block_plan(
    state: ClusterState,
    demand: np.ndarray,
    app_id: int,
    candidates: np.ndarray,
    k: int,
    within_scope: str | None,
) -> tuple[list[int], list[int]]:
    """Placement runs for the next ``k`` identical containers.

    ``candidates`` are machine ids in preference order (a raw window of
    :meth:`~repro.core.machindex.MachineIndex.candidates`, filtered or
    not); ``within_scope`` is ``None`` without a within-anti-affinity
    rule, else ``"machine"`` or ``"rack"``.  Returns ``(machines,
    counts)``, two lists of ints: distinct machines in deployment order
    and the containers each takes, the runs
    :meth:`~repro.cluster.state.ClusterState.deploy_block` commits;
    ``counts`` summing to less than ``k`` means the candidates ran dry.
    """
    machines: list[int] = []
    counts: list[int] = []
    if candidates.size == 0 or k <= 0:
        return machines, counts
    rows = state.available.take(candidates, axis=0)
    survivors = dominates(rows, demand).nonzero()[0]
    if survivors.size == 0:
        return machines, counts
    # ``None`` is never a hosted application id: without a within-rule
    # the application's own hosts stay admissible.
    own = app_id if within_scope is not None else None
    pos = state.constraints.pos
    conflicted = app_id in pos
    screen = own is not None or conflicted
    if conflicted:  # a byte per constrained application, a clear last one
        blocked = state.constraints.blacklist(app_id).__getitem__
        named, rest = pos.keys(), repeat(-1)
    hosted_by = state.machine_apps.get
    ids = candidates.take(survivors).tolist()
    racks: list[int] = []
    taken: set[int] = set()
    if within_scope == "rack":
        rack_of = state.topology.rack_of
        racks = rack_of[candidates[survivors]].tolist()
        hosting = state.app_machines.get(app_id)
        if hosting:
            taken.update(rack_of[list(hosting)].tolist())
    # Equation 6 holds on every survivor, so every quota is at least 1;
    # a zero-demand dimension never binds.
    dims = [(j, d) for j, d in enumerate(demand.tolist()) if d > 0.0]
    left = k
    for i, m in enumerate(ids):
        if racks and racks[i] in taken:
            continue
        if screen and (hosted := hosted_by(m)) and (
            own in hosted
            or conflicted
            and not named.isdisjoint(hosted)
            and any(map(blocked, map(pos.get, hosted, rest)))
        ):
            continue
        if within_scope is None:
            row = rows[survivors[i]].tolist()
            n = min(math.floor(min([row[j] / d for j, d in dims])), left)
        else:
            n = 1
            if racks:
                taken.add(racks[i])
        machines.append(m)
        counts.append(n)
        left -= n
        if left == 0:
            break
    return machines, counts

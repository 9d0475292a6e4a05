"""Batched block placement kernel: one vectorized sweep per LLA block.

Isomorphism limiting says every container of an application block is
identical; depth limiting says each container takes the *first* machine
of the packed-first order that still admits it.  Chaining the two, the
whole block's placement is already determined at block start by
per-machine **fit quotas**: walking the candidate order, machine ``m``
absorbs ``floor(min(available[m] / demand))`` consecutive containers
before the walk moves on — one container for machine-scoped
within-anti-affinity applications, one rack representative for
rack-scoped ones.  The quota prefix-sum therefore maps container index
→ machine directly, so a block of ``k`` identical containers costs one
pass of NumPy work instead of ``k`` per-container machine scans, with
the running capacity decrements folded into the quotas themselves.
Every scope consumes its candidates strictly in order and needs at most
``k`` of them (``k`` distinct racks for rack scope), so a plan of ``k``
machines from a *prefix* of the candidate list is the plan from the
whole list: the scheduler hands the kernel a window of the order sized
from ``k`` and widens it only when the plan comes back short
(``AladdinScheduler._batch_place``) — O(k) per block, not O(m + k).

The kernel is a *plan*: it performs no state mutation, which keeps its
output comparable against the per-container walk (the differential
harness replays both paths and asserts bit-identical placements).  A
plan shorter than ``k`` means every quota is exhausted and the caller
must route the remaining containers through the rescue path — exactly
where the per-container walk would have handed over as well.

Contract (inputs, shard invariants, determinism)
------------------------------------------------
``block_plan`` takes the live state, the block's demand vector, the
admitting candidates in the engines' total preference order, the block
size ``k`` and the within-anti-affinity scope; every candidate must
admit at least one container (the feasibility mask guarantees it).
The function is deterministic and pure — same inputs, same plan.

Under the rack-sharded parallel sweep (:mod:`repro.core.parallel`) the
kernel is also the *merge point*: the coordinator feeds it the union of
per-shard candidate prefixes, re-ordered by the serial total order.
Two shard invariants make that sound: racks never span shards, so the
workers' shard-local rack deduplication composes into exactly the
global ``within_scope == "rack"`` dedup below (re-deduping the merged
set is a no-op on the same representatives); and a global prefix of
``k`` candidates contains at most ``k`` per shard, so the per-shard
``k``-prefixes always cover the global plan.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.state import ClusterState

_EMPTY_PLAN = np.empty(0, dtype=np.int64)


def block_plan(
    state: ClusterState,
    demand: np.ndarray,
    candidates: np.ndarray,
    k: int,
    within_scope: str | None,
) -> np.ndarray:
    """Machines for the next ``k`` identical containers, packed-first.

    Parameters
    ----------
    demand:
        The block's per-container demand vector.
    candidates:
        Admitting machines in preference order (from
        :meth:`~repro.core.machindex.MachineIndex.candidates` under the
        block's feasibility mask — every entry fits at least one
        container).
    within_scope:
        ``None`` when the application has no within-anti-affinity rule,
        else ``"machine"`` or ``"rack"``.

    Returns the machine id per container, in deployment order; a result
    shorter than ``k`` means the quotas ran dry and the remainder
    overflows into rescue.
    """
    if candidates.size == 0 or k <= 0:
        return _EMPTY_PLAN
    if within_scope == "rack":
        # One container per rack: the per-container walk rejects every
        # later rack-mate via ``would_violate``, leaving the first
        # machine of each distinct rack, in candidate order.
        racks = state.topology.rack_of[candidates]
        _, first = np.unique(racks, return_index=True)
        candidates = candidates[np.sort(first)]
    if within_scope is not None:
        return candidates[:k].astype(np.int64, copy=False)
    # Every candidate admits at least one container (the feasibility
    # mask guarantees quota >= 1), so the k-th container lands within
    # the first k candidates — truncating before the quota division
    # keeps the kernel O(k), not O(candidates), per block.
    candidates = candidates[:k]
    with np.errstate(divide="ignore"):
        quota = np.floor(
            (state.available[candidates] / demand).min(axis=1)
        ).astype(np.int64)
    cum = np.cumsum(quota)
    placed = min(k, int(cum[-1]))
    if placed <= 0:
        return _EMPTY_PLAN
    # Container i (1-based) lands on the first machine whose cumulative
    # quota reaches i — the same machine the walk's fill counter yields.
    slots = np.searchsorted(cum, np.arange(1, placed + 1), side="left")
    return candidates[slots].astype(np.int64, copy=False)

"""Incrementally maintained packed-first machine index.

Both engines prefer machines in one total order — affinity tier first,
then packing level (least remaining CPU), then machine id — and until
now re-derived that order from scratch with an ``argsort`` over every
candidate machine for every application block.  Between two blocks,
however, only the machines touched by the intervening deploys, evicts,
migrations and faults can move inside the order, and the
:class:`~repro.cluster.state.ClusterState` dirty log already records
exactly which ones those are.

:class:`MachineIndex` keeps the packing order alive across blocks and
scheduling rounds, synchronised against that log: on each query the
machines dirtied since the last sync are moved to their new
positions.  The index holds a :class:`~repro.cluster.state.StateCursor`
and reads the state's one change feed (``advance``), the *raw* log
slice with duplicates included: re-keying a machine is idempotent per
log entry, so it pays no dedup sort.  The repair is
**span-bounded**: the sorted key
array is kept beside the order, the smallest and largest of the moved
machines' old and new keys are bisected on it, and only the slice of
the order between those two positions is rewritten, in place — every
machine outside it keeps a key strictly below or above all of them.
The slice is sorted but for the d moved machines, so a stable
run-detecting sort repairs it in O(s + d log d) for a span of s
positions; a block that packs one or two machines a little tighter
moves them a handful of positions, whatever the size of the cluster.
Such a short feed (at most :data:`SHORT_FEED` moved machines) skips the
sort: each machine slides from its old position to its new one, two
bisections and one slice shift, keyed in Python floats.  The widest
span is a round's first resync after its departures (every used machine
moved), which sorts.  When the feed answers "rebuild" (a compacted log,
an unfamiliar state instance) the index re-sorts from scratch, never
keeping a stale order.

The affinity tier is application-specific, so it is applied per query
as a stable partition of the maintained order (affine hosts first).
The partition equals ``argsort`` of the tier-augmented score whenever
the tier constant dominates every packing key — always true for the
paper's homogeneous 32-CPU machines — and the index verifies that
dominance on each query, falling back to an exact re-scoring of the
candidate set in the heterogeneous corner where it fails.  Either way
the returned order is bit-identical to the scratch-built one, which is
what lets the batch kernel promise placement-identical results.

Contract (inputs, determinism)
------------------------------
:meth:`MachineIndex.candidates` takes a state (anything exposing
``available``, ``n_machines``, ``cursor`` and ``advance`` (the change
feed), in practice a
:class:`~repro.cluster.state.ClusterState`), an optional boolean admit
mask and an optional boolean affinity mask, both indexed by machine id
in that state's id space.

A caller that will read only a prefix of the order — depth limiting
ends a container's search at its first admitting machine, so a block
of k containers reads at most k admitting candidates — passes
``limit`` instead of a mask and gets a raw **window**: ``limit``
positions of the order, unfiltered, as a read-only slice.  The batch
kernel (:func:`~repro.core.batchkernel.block_plan`) evaluates
Equations 6–8 on it itself, and only as far as its block needs.
``min_cpu`` is where the window starts: the order is sorted by
remaining CPU, so the first key not below ``min_cpu * (n_machines +
1)`` is a bisect, and every machine before it has less than
``min_cpu`` CPU left (Equation 6 rejects it for a demand with that
much CPU) — the skipped head is exact, not a heuristic.
:attr:`MachineIndex.last_complete` reports whether the window reached
the end of the order.  The unlimited form is the default and what the
affinity-tiered queries, the rescue kernel and the flow engine use.

Determinism guarantee: given the same state contents, mask and
affinity, ``candidates`` returns the same array, bit for bit,
regardless of the resync history (incremental reinsertions vs a fresh
rebuild) — the property the differential harness replays for.
"""

from __future__ import annotations

import numpy as np

from repro import telemetry
from repro.cluster.state import ClusterState, StateCursor

#: a resync that moves at most this many machines (from a feed of at most
#: four times as many log entries) slides each into place: two bisections
#: and one slice shift per machine.  A wider one, such as a round's first
#: resync after its departures, re-sorts its span.
SHORT_FEED = 4


def packing_keys(state: ClusterState, ids: np.ndarray) -> np.ndarray:
    """Packed-first score of ``ids``: remaining CPU, machine id tie-break.

    This is the affinity-free term of the schedulers' total order; the
    ``(n_machines + 1)`` spread keeps the id tie-break strictly weaker
    than any remaining-CPU difference of at least one unit.
    """
    return state.available[ids, 0] * (state.n_machines + 1) + ids.astype(
        np.float64
    )


def affinity_tier(n_machines: int) -> float:
    """Score penalty demoting non-affine machines behind every affine one."""
    return 32.0 * (n_machines + 1) + n_machines + 1


class MachineIndex:
    """Persistent packed-first machine ordering with dirty-log resync.

    One instance lives on each scheduler (next to its rescue kernel)
    and survives across ``schedule()`` calls, rebinding automatically
    when handed a different :class:`ClusterState`.

    Attributes
    ----------
    rebuilds / resyncs:
        Lifetime counts of full O(m log m) re-sorts and incremental
        dirty-machine reinsertions.  Resyncs are also reported to the
        active telemetry collector.
    positions_rewritten:
        Lifetime count of order positions rewritten by resyncs — the
        width of each repaired span, 0 for a resync whose machines kept
        their keys.  Diagnostic only: not telemetry, not persisted.
    last_resynced:
        Dirty-log entries the most recent :meth:`sync` applied (a
        machine mutated twice counts twice; every machine on a rebuild).
    last_complete:
        Whether the most recent :meth:`candidates` result reaches the
        end of the order (always, unless a ``limit`` window stopped
        short of it).
    """

    def __init__(self) -> None:
        #: position in the state's change feed the order is synced at
        self._cursor = StateCursor()
        #: machine ids sorted by (packing key, id); None until first sync
        self._order: np.ndarray | None = None
        #: per-machine packing key, indexed by machine id
        self._keys: np.ndarray | None = None
        #: ``_keys[_order]`` — the keys in sorted order, what positions
        #: are bisected on; derived, never persisted
        self._sorted_keys: np.ndarray | None = None
        self.rebuilds = 0
        self.resyncs = 0
        self.positions_rewritten = 0
        self.last_resynced = 0
        self.last_complete = True

    def reset(self) -> None:
        """Drop the maintained order (next query rebuilds from scratch)."""
        self._cursor = StateCursor()
        self._order = None
        self._keys = None
        self._sorted_keys = None

    # ------------------------------------------------------------------
    def checkpoint(self) -> dict:
        """Serialisable image of the maintained order and counters.

        The order itself must be persisted (not just rebuilt on
        restore): a cold ``_rebuild`` reports no ``index_resyncs``
        telemetry while the incremental ``_reinsert`` path does, so a
        restored run that rebuilt cold would drift from the
        uninterrupted run's telemetry — and a warm resync is the point
        of checkpointing in the first place.
        """
        return {
            "order": None if self._order is None else self._order.copy(),
            "keys": None if self._keys is None else self._keys.copy(),
            "version": self._cursor.version,
            "rebuilds": self.rebuilds,
            "resyncs": self.resyncs,
            "last_resynced": self.last_resynced,
        }

    def restore(self, payload: dict, state_uid: int) -> None:
        """Adopt a :meth:`checkpoint` image, rebinding to ``state_uid``.

        The cursor is rebound to the restored state's uid at the
        persisted ``version``, which stays valid against its dirty log
        (persisted with identical numbering), so the next :meth:`sync`
        reinserts only the machines dirtied since the checkpoint.
        """
        order = payload["order"]
        keys = payload["keys"]
        self._order = None if order is None else np.array(order)
        self._keys = None if keys is None else np.array(keys)
        self._sorted_keys = None if order is None else self._keys[self._order]
        self._cursor = (
            StateCursor()
            if order is None
            else StateCursor(state_uid, payload["version"])
        )
        self.rebuilds = payload["rebuilds"]
        self.resyncs = payload["resyncs"]
        self.last_resynced = payload["last_resynced"]

    # ------------------------------------------------------------------
    def sync(self, state: ClusterState) -> None:
        """Bring the order up to date with ``state``'s current version."""
        dirty = state.advance(self._cursor)
        if dirty is None:
            self._rebuild(state)
        elif dirty.size:
            self._reinsert(state, dirty)
        else:
            self.last_resynced = 0

    def _rebuild(self, state: ClusterState) -> None:
        ids = np.arange(state.n_machines, dtype=np.int64)
        self._keys = packing_keys(state, ids)
        self._order = np.argsort(self._keys, kind="stable")
        self._sorted_keys = self._keys[self._order]
        self.rebuilds += 1
        self.last_resynced = state.n_machines

    def _reinsert(self, state: ClusterState, dirty: np.ndarray) -> None:
        """Move the dirty machines to their new sorted positions.

        Only the span of the order between the smallest and the largest
        of the moved machines' old and new keys is rewritten, in place:
        every machine outside it keeps a key strictly below or above
        all of them, so its position cannot change.  A machine the raw
        ``dirty`` slice lists twice gets the same key twice.  A short
        feed moving at most :data:`SHORT_FEED` machines slides each into
        place (:meth:`_shift`); a wider one, or one that meets an exact
        key collision, re-sorts the span.
        """
        self.resyncs += 1
        self.last_resynced = int(dirty.size)
        tele = telemetry.current()
        if tele is not None:
            tele.index_resyncs += 1
        keys = self._keys
        moves: dict[int, tuple[float, float]] = {}
        if dirty.size > 4 * SHORT_FEED:
            old_keys = keys[dirty]
            new_keys = packing_keys(state, dirty)
            moved = new_keys != old_keys
            n_moved = np.count_nonzero(moved)
            if n_moved == 0:
                return
            if n_moved < dirty.size:
                # A machine whose key did not change stays put, and must
                # not widen the span.
                old_keys, new_keys = old_keys[moved], new_keys[moved]
                dirty = dirty[moved]
            ends = np.concatenate((old_keys, new_keys))
            low, high = ends.min(), ends.max()
            keys[dirty] = new_keys
        else:
            # ``packing_keys`` in Python floats: the same IEEE product
            # and sum, without a dozen NumPy calls on a handful of ids.
            spread = state.n_machines + 1
            moves = {
                m: (old, cpu * spread + m)
                for m, cpu, old in zip(
                    dirty.tolist(),
                    state.available[:, 0][dirty].tolist(),
                    keys[dirty].tolist(),
                )
                if cpu * spread + m != old
            }
            if not moves:
                return
            ends = [key for pair in moves.values() for key in pair]
            low, high = min(ends), max(ends)
            for m, (_, new) in moves.items():
                keys[m] = new
        sorted_keys = self._sorted_keys
        lo = int(sorted_keys.searchsorted(low))
        hi = int(sorted_keys.searchsorted(high, side="right"))
        self.positions_rewritten += hi - lo
        if 0 < len(moves) <= SHORT_FEED and all(
            self._shift(m, old, new) for m, (old, new) in moves.items()
        ):
            return
        # Every shift stays inside the span, so it still holds the same
        # machines: sorted but for the ones not yet moved, which a stable
        # (run-detecting) sort repairs in near-linear time.
        span = self._order[lo:hi]
        span_keys = keys[span]
        by_key = span_keys.argsort(kind="stable")
        span_sorted = span_keys[by_key]
        if (span_sorted[1:] == span_sorted[:-1]).any():
            # Exact key collision (possible with fractional CPU
            # demands): equal keys order by machine id, which the
            # machines' previous positions do not encode.
            by_key = np.lexsort((span, span_keys))
        span[:] = span[by_key]
        sorted_keys[lo:hi] = span_sorted

    def _shift(self, m: int, old: float, new: float) -> bool:
        """Slide machine ``m`` from its place under key ``old`` to key
        ``new``'s, moving the positions between by one; False, touching
        nothing, when another machine holds ``new`` exactly or ``old``
        ahead of ``m`` (equal keys order by machine id)."""
        order, sorted_keys = self._order, self._sorted_keys
        p = int(sorted_keys.searchsorted(old))
        q = int(sorted_keys.searchsorted(new))
        if order[p] != m or q < order.size and sorted_keys[q] == new:
            return False
        if q > p:  # towards the tail: the machines it passes move up
            q -= 1
            order[p:q] = order[p + 1 : q + 1]
            sorted_keys[p:q] = sorted_keys[p + 1 : q + 1]
        else:
            order[q + 1 : p + 1] = order[q:p]
            sorted_keys[q + 1 : p + 1] = sorted_keys[q:p]
        order[q] = m
        sorted_keys[q] = new
        return True

    # ------------------------------------------------------------------
    def candidates(
        self,
        state: ClusterState,
        mask: np.ndarray | None = None,
        affinity: np.ndarray | None = None,
        *,
        min_cpu: float = 0.0,
        limit: int | None = None,
    ) -> np.ndarray:
        """Machine ids in the engines' total preference order.

        ``mask`` (boolean, e.g. an IL admit mask) restricts the result;
        ``affinity`` promotes machines hosting an affine application to
        the front.  Bit-identical to sorting ``flatnonzero(mask)`` by
        ``scheduler._scores`` — the contract the differential harness
        enforces through the batch kernel.

        ``limit`` asks for a raw *window* of the order instead (no
        ``mask``, no ``affinity``): the ``limit`` positions from the
        first machine with at least ``min_cpu`` remaining CPU,
        unfiltered, and :attr:`last_complete` tells whether they reached
        the end of the order.  Every machine the bisect skips has less
        than ``min_cpu`` CPU left, so a caller filtering for a demand
        with that much CPU loses nothing by the skipped head.

        Without ``mask`` and ``affinity`` the result is a read-only view
        of the *internal* order (a window is a slice of it), since
        resyncs repair it in place: this keeps the rescue kernel's and
        the batch kernel's per-query cost flat, and a caller holding it
        across a ``sync`` sees it change.
        """
        self.sync(state)
        order = self._order
        if limit is not None:
            start = int(
                self._sorted_keys.searchsorted(min_cpu * (state.n_machines + 1))
            )
            self.last_complete = start + limit >= order.size
            window = order[start : start + limit]
            window.flags.writeable = False
            return window
        self.last_complete = True
        if mask is None:
            order = order.view()
            order.flags.writeable = False
        else:
            order = order[mask[order]]
        if affinity is None or order.size == 0:
            return order
        aff = affinity[order]
        affine = order[aff]
        rest = order[~aff]
        if affine.size == 0 or rest.size == 0:
            return order
        tier = affinity_tier(state.n_machines)
        if float(self._keys[affine].max()) >= float(self._keys[rest].min()) + tier:
            # The tier constant does not dominate the packing keys (a
            # machine offers more than the homogeneous 32 CPUs): redo
            # the exact tier-augmented scoring over the candidate set.
            ids = np.sort(order)
            score = self._keys[ids] + np.where(affinity[ids], 0.0, tier)
            return ids[np.argsort(score, kind="stable")]
        return np.concatenate([affine, rest])

"""Rack-sharded, process-parallel feasibility/scoring sweep.

The per-block hot loop of both engines is a cluster-wide sweep: one
feasibility evaluation over every machine (Equation 6 dominance plus
the live blacklist) followed by a packed-first candidate ordering.  The
cross-round cache (:mod:`repro.core.feascache`) and the incremental
index (:mod:`repro.core.machindex`) already made that sweep incremental;
this module makes it *parallel*, which is what full-paper scale
(10,000 machines, ~100,000 containers, Fig. 12–13) needs.

Contract
--------
**Inputs.**  :meth:`ParallelSweep.plan_block` takes the live
:class:`~repro.cluster.state.ClusterState`, one application block's
demand vector, its ``app_id``, the block size ``k`` and its
within-anti-affinity scope.  The call must happen *before* the block's
deploys, exactly where the serial engine would evaluate its feasibility
mask — the sweep and the serial path then see identical machine state.

**Shard invariants.**  Machines are partitioned by rack into
``workers`` contiguous ``[lo, hi)`` ranges (:func:`shard_bounds`); a
rack never spans two shards, so rack-scoped deduplication can run
shard-locally.  Each worker process holds a
:class:`~repro.cluster.state.ShardView` over a
``multiprocessing.shared_memory`` view of the coordinator's
``available`` array — workers read current capacities with zero copies
— plus its own :class:`~repro.core.feascache.FeasibilityCache` and
:class:`~repro.core.machindex.MachineIndex`, resynced per query from
the shard-local dirty ids the coordinator extracts from the state's
dirty log.  App-specific terms (the Equation 7–8 blacklist, soft
affinity) are evaluated coordinator-side and shipped as id lists, so a
worker's cache holds only the app-independent dominance term.

**Determinism guarantee.**  Each worker returns its shard's first
``min(k, shard candidates)`` admitting machines in the engines' total
preference order together with their *global-form* packing keys; the
coordinator merges the prefixes with the exact ordering rules of
:meth:`~repro.core.machindex.MachineIndex.candidates` (affinity tier,
packing key, machine id) and feeds the merged order to the same
:func:`~repro.core.batchkernel.block_plan` the serial path uses.  A
global prefix of length ``k`` contains at most ``k`` candidates of any
shard, so the per-shard ``k``-prefixes always cover it — the planned
machines are therefore **bit-identical to the serial path's**, which
``tests/test_differential.py`` enforces across the
workers × batched × cached axis under randomized churn.  All messaging
is synchronous lockstep (one query round per block, no concurrent
state mutation), so repeated runs are deterministic as well.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import time
from multiprocessing import shared_memory

import numpy as np

from repro import telemetry
from repro.cluster.state import ClusterState, ShardView
from repro.core.batchkernel import block_plan
from repro.core.feascache import FeasibilityCache
from repro.core.machindex import MachineIndex, affinity_tier

_EMPTY = np.empty(0, dtype=np.int64)


def shard_bounds(
    n_machines: int,
    machines_per_rack: int,
    workers: int,
    rack_weights: np.ndarray | None = None,
) -> list[tuple[int, int]]:
    """Rack-aligned contiguous ``[lo, hi)`` machine ranges, one per worker.

    Without ``rack_weights`` racks are split as evenly as possible *by
    count* — the historical layout, bit-for-bit.  With weights (one
    non-negative work estimate per rack, e.g. resident-container
    density from :func:`rack_work_weights`) the cut points equalise
    cumulative *work* instead: a shard full of packed racks gets fewer
    racks than an idle one, so the per-query worker times converge.
    Every rack also carries one unit of baseline cost (the sweep scans
    empty racks too), which keeps the cuts defined when all weights are
    zero.  Either way the ranges are rack-aligned, non-empty, and
    partition ``[0, n_machines)`` exactly — the properties the merge's
    determinism proof needs; the worker count is capped at the rack
    count (an empty shard would be pure overhead).
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    n_racks = -(-n_machines // machines_per_rack)
    workers = min(workers, n_racks)
    if rack_weights is None:
        base, extra = divmod(n_racks, workers)
        bounds: list[tuple[int, int]] = []
        lo_rack = 0
        for w in range(workers):
            hi_rack = lo_rack + base + (1 if w < extra else 0)
            lo = lo_rack * machines_per_rack
            hi = min(hi_rack * machines_per_rack, n_machines)
            bounds.append((lo, hi))
            lo_rack = hi_rack
        return bounds
    weights = np.asarray(rack_weights, dtype=np.float64)
    if weights.shape != (n_racks,):
        raise ValueError(
            f"rack_weights must have one entry per rack ({n_racks}), "
            f"got shape {weights.shape}"
        )
    if (weights < 0).any():
        raise ValueError("rack_weights must be non-negative")
    cum = np.cumsum(weights + 1.0)
    total = float(cum[-1])
    rack_cuts = [0]
    for w in range(1, workers):
        cut = int(np.searchsorted(cum, total * w / workers, side="left")) + 1
        # Monotone and non-empty: every shard keeps at least one rack.
        cut = max(cut, rack_cuts[-1] + 1)
        cut = min(cut, n_racks - (workers - w))
        rack_cuts.append(cut)
    rack_cuts.append(n_racks)
    return [
        (
            rack_cuts[w] * machines_per_rack,
            min(rack_cuts[w + 1] * machines_per_rack, n_machines),
        )
        for w in range(workers)
    ]


def rack_work_weights(state: ClusterState) -> np.ndarray:
    """Per-rack resident-container density, as shard-sizing weights.

    Resident count is the live proxy for per-shard sweep cost: packed
    racks mean more dirty machines per deploy, more cache
    invalidations, and more admitted candidates to score.  (Telemetry
    ``worker_time_s`` would be the direct signal, but it aggregates per
    worker, not per rack — density is the rack-resolved stand-in.)
    """
    topo = state.topology
    n_racks = -(-state.n_machines // topo.spec.machines_per_rack)
    return np.bincount(
        np.asarray(topo.rack_of, dtype=np.int64),
        weights=state.container_count.astype(np.float64),
        minlength=n_racks,
    )[:n_racks]


def merge_candidates(
    gids: np.ndarray,
    keys: np.ndarray,
    affine: np.ndarray | None,
    n_machines: int,
) -> np.ndarray:
    """Order the concatenated shard prefixes by the engines' total order.

    ``keys`` are global-form packing keys
    (:func:`~repro.core.machindex.packing_keys` evaluated with the full
    cluster's machine count); ``affine`` marks machines hosting an
    affine application.  The branch structure replicates
    :meth:`~repro.core.machindex.MachineIndex.candidates` exactly —
    stable affinity partition when the tier constant dominates, exact
    tier-augmented rescoring otherwise — so the merged order is
    bit-identical to the serial order restricted to the union of the
    shard prefixes.
    """
    if gids.size == 0:
        return _EMPTY
    if affine is None or not affine.any() or affine.all():
        return gids[np.lexsort((gids, keys))]
    tier = affinity_tier(n_machines)
    rest = ~affine
    if float(keys[affine].max()) >= float(keys[rest].min()) + tier:
        # Heterogeneous corner: redo the exact tier-augmented scoring
        # over the id-sorted candidate set, as the serial index does.
        by_id = np.argsort(gids, kind="stable")
        ids = gids[by_id]
        score = keys[by_id] + np.where(affine[by_id], 0.0, tier)
        return ids[np.argsort(score, kind="stable")]
    a = gids[affine][np.lexsort((gids[affine], keys[affine]))]
    r = gids[rest][np.lexsort((gids[rest], keys[rest]))]
    return np.concatenate([a, r])


def _attach_shm(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without resource-tracker tracking.

    The coordinator owns the segment's lifetime (it created it and
    unlinks it on detach); a worker must only map it.  Pre-3.13 Python
    registers attachments with the resource tracker too, which makes
    worker exit double-unlink or warn — suppress the registration, via
    the ``track=False`` keyword where available and a no-op register
    shim otherwise.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13
        from multiprocessing import resource_tracker

        original = resource_tracker.register
        resource_tracker.register = lambda *a, **k: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


# ----------------------------------------------------------------------
# worker process
# ----------------------------------------------------------------------
def _worker_main(conn) -> None:
    """One shard worker: feascache + machindex pipeline over a ShardView.

    Protocol (coordinator → worker):

    * ``("bind", shm_name, shape, lo, hi, rack_local)`` — attach the
      shared-memory ``available`` array, adopt shard ``[lo, hi)``,
      reset caches; acknowledged with ``("ok",)``.
    * ``("query", dirty_local, demand, k, scope, forbidden, affine)`` —
      resync from ``dirty_local`` (``None`` = full), answer with the
      shard's candidate ``k``-prefix as
      ``(gids, keys, affine_bits, admitted, stats)``.
    * ``("dump",)`` — reply with a serialisable image of the worker's
      view watermark (local version, dirty-log segments, base) and its
      cache/index checkpoints, for the coordinator's checkpoint.
    * ``("load", image)`` — adopt a previously dumped image onto the
      freshly bound view (restoring the local dirty-log numbering the
      cache/index entries are keyed to); acknowledged with ``("ok",)``.
    * ``("stop",)`` — exit.
    """
    shm: shared_memory.SharedMemory | None = None
    view: ShardView | None = None
    cache = FeasibilityCache()
    index = MachineIndex()
    n_total = 0
    lo = 0
    rack_local: np.ndarray | None = None
    try:
        while True:
            msg = conn.recv()
            kind = msg[0]
            if kind == "stop":
                return
            if kind == "bind":
                _, shm_name, shape, lo, hi, rack_local = msg
                if shm is not None:
                    shm.close()
                shm = _attach_shm(shm_name)
                full = np.ndarray(shape, dtype=np.float64, buffer=shm.buf)
                view = ShardView(full[lo:hi])
                cache = FeasibilityCache()
                index = MachineIndex()
                n_total = int(shape[0])
                conn.send(("ok",))
                continue
            if kind == "dump":
                conn.send(
                    {
                        "view_version": view.version,
                        "segments": [s.copy() for s in view._segments],
                        "base": view._base,
                        "cache": cache.checkpoint(),
                        "index": index.checkpoint(),
                    }
                )
                continue
            if kind == "load":
                _, image = msg
                view.version = image["view_version"]
                view._segments = [np.array(s) for s in image["segments"]]
                view._base = image["base"]
                cache.restore(image["cache"], view.state_uid)
                index.restore(image["index"], view.state_uid)
                conn.send(("ok",))
                continue
            _, dirty_local, demand, k, scope, forbidden, affine = msg
            t0 = time.perf_counter()
            view.advance(dirty_local)
            hits0, inv0, resyncs0 = cache.hits, cache.invalidations, index.resyncs
            mask = cache.feasible_mask(view, demand, app_id=0)
            recomputed = cache.last_recomputed
            if forbidden is not None and forbidden.size:
                mask[forbidden] = False
            aff = None
            if affine is not None:
                aff = np.zeros(view.n_machines, dtype=bool)
                aff[affine] = True
            order = index.candidates(view, mask, aff)
            admitted = int(order.size)
            if scope == "rack" and order.size:
                _, first = np.unique(rack_local[order], return_index=True)
                order = order[np.sort(first)]
            prefix = order[:k]
            gids = prefix.astype(np.int64) + lo
            keys = view.available[prefix, 0] * (n_total + 1) + gids.astype(
                np.float64
            )
            stats = {
                "recomputed": recomputed,
                "hits": cache.hits - hits0,
                "invalidations": cache.invalidations - inv0,
                "resyncs": index.resyncs - resyncs0,
                "elapsed_s": time.perf_counter() - t0,
            }
            conn.send(
                (gids, keys, aff[prefix] if aff is not None else None,
                 admitted, stats)
            )
    except (EOFError, KeyboardInterrupt, BrokenPipeError):
        pass
    finally:
        if shm is not None:
            shm.close()
        conn.close()


# ----------------------------------------------------------------------
# coordinator
# ----------------------------------------------------------------------
class ParallelSweep:
    """Coordinator of the sharded parallel feasibility/scoring sweep.

    One instance lives on a scheduler (next to its serial cache and
    index) and survives across ``schedule()`` calls.  Worker processes
    are spawned lazily on the first :meth:`plan_block`, rebound when the
    scheduler is handed a different :class:`ClusterState`, and torn down
    by :meth:`close` (after which the sweep is restartable).  While a
    state is attached, its ``available`` array is *adopted* into shared
    memory — replaced by an equal-valued shared-memory-backed view, so
    every coordinator-side mutation (deploys, evictions, fault
    injection) is immediately visible to the workers; :meth:`close`
    restores a private copy.

    Attributes
    ----------
    workers:
        Requested worker count (the effective count is capped at the
        cluster's rack count).
    sweeps:
        Lifetime number of parallel block plans served.
    cold_restarts:
        Times a dead shard worker forced :meth:`plan_block` through the
        cold-restart path (fresh workers, full resync).
    rebalances:
        Times :meth:`rebalance` actually moved a shard boundary.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.sweeps = 0
        self.cold_restarts = 0
        self.rebalances = 0
        self._procs: list[mp.process.BaseProcess] = []
        self._conns: list = []
        self._bounds: list[tuple[int, int]] = []
        self._state: ClusterState | None = None
        self._uid: int | None = None
        self._shm: shared_memory.SharedMemory | None = None
        self._synced_version = -1
        atexit.register(self.close)

    # ------------------------------------------------------------------
    def _spawn(self, n_shards: int) -> None:
        if len(self._procs) == n_shards and all(p.is_alive() for p in self._procs):
            return
        self._stop_procs()
        methods = mp.get_all_start_methods()
        ctx = mp.get_context("fork" if "fork" in methods else "spawn")
        for i in range(n_shards):
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(child,),
                daemon=True,
                name=f"aladdin-shard-{i}",
            )
            proc.start()
            child.close()
            self._procs.append(proc)
            self._conns.append(parent)

    def _attach(self, state: ClusterState) -> None:
        if state is self._state and state.state_uid == self._uid:
            return
        self._detach_state()
        n, d = state.available.shape
        bounds = shard_bounds(
            n, state.topology.spec.machines_per_rack, self.workers
        )
        self._spawn(len(bounds))
        shm = shared_memory.SharedMemory(create=True, size=max(8, n * d * 8))
        shared = np.ndarray((n, d), dtype=np.float64, buffer=shm.buf)
        shared[:] = state.available
        state.available = shared
        self._shm = shm
        self._state = state
        self._uid = state.state_uid
        self._bounds = bounds
        rack_of = state.topology.rack_of
        for conn, (lo, hi) in zip(self._conns, bounds):
            conn.send(
                ("bind", shm.name, (n, d), lo, hi,
                 np.asarray(rack_of[lo:hi], dtype=np.int64))
            )
        for conn in self._conns:
            conn.recv()
        self._synced_version = state.version

    def _rebind(self, state: ClusterState, bounds: list[tuple[int, int]]) -> None:
        """Re-shard the live workers onto ``bounds`` over the same
        shared-memory segment.

        Binding resets each worker's cache and index, so the first query
        after a rebind resyncs every shard cold regardless of the dirty
        log — decisions are unaffected (a fresh cache recomputes exactly
        the serial verdicts), only the hit/miss telemetry shifts.
        """
        n, d = state.available.shape
        rack_of = state.topology.rack_of
        for conn, (lo, hi) in zip(self._conns, bounds):
            conn.send(
                ("bind", self._shm.name, (n, d), lo, hi,
                 np.asarray(rack_of[lo:hi], dtype=np.int64))
            )
        for conn in self._conns:
            conn.recv()
        self._bounds = list(bounds)
        self._synced_version = state.version

    # ------------------------------------------------------------------
    def rebalance(
        self, state: ClusterState, rack_weights: np.ndarray | None = None
    ) -> bool:
        """Re-cut the shards by ``rack_weights`` (work-weighted sizing).

        Returns whether any boundary actually moved; a no-op re-cut
        (the weighted bounds equal the current ones) costs nothing and
        keeps the worker caches warm.  Callers fire this at checkpoint
        boundaries — *before* the snapshot is taken, so a resumed run
        adopts the post-rebalance layout from the checkpoint payload.
        """
        self._attach(state)
        bounds = shard_bounds(
            state.n_machines,
            state.topology.spec.machines_per_rack,
            self.workers,
            rack_weights,
        )
        if bounds == self._bounds or len(bounds) != len(self._conns):
            return False
        self._rebind(state, bounds)
        self.rebalances += 1
        return True

    # ------------------------------------------------------------------
    def plan_block(
        self,
        state: ClusterState,
        demand: np.ndarray,
        app_id: int,
        k: int,
        within_scope: str | None,
    ) -> tuple[np.ndarray, int, int]:
        """Machines for the next ``k`` identical containers, in parallel.

        Returns ``(machines, recomputed, admitted)``: the planned
        machine ids (bit-identical to the serial
        :func:`~repro.core.batchkernel.block_plan` output; shorter than
        ``k`` means the quotas ran dry and the caller falls back to the
        serial overflow path), the number of per-machine dominance
        verdicts actually recomputed across all shards (the honest
        ``explored`` charge), and the total admitted-candidate count
        (for the ``machines_skipped`` telemetry).
        """
        self._attach(state)
        dirty = state.dirty_array_since(self._synced_version)
        cs = state.constraints
        forbidden = None
        if cs.has_within(app_id) or cs.has_conflicts(app_id):
            forbidden = np.flatnonzero(state.forbidden_mask(app_id))
        affinity = state.affinity_mask(app_id)
        affine_ids = (
            np.flatnonzero(affinity) if affinity is not None else None
        )
        for attempt in range(2):
            try:
                for conn, (lo, hi) in zip(self._conns, self._bounds):
                    if dirty is None:
                        d_local = None
                    else:
                        seg = dirty[(dirty >= lo) & (dirty < hi)]
                        d_local = seg - lo
                    f_local = _slice_ids(forbidden, lo, hi)
                    a_local = _slice_ids(affine_ids, lo, hi)
                    conn.send(
                        ("query", d_local, demand, int(k), within_scope,
                         f_local, a_local)
                    )
                replies = [conn.recv() for conn in self._conns]
                break
            except (EOFError, BrokenPipeError, OSError):
                if attempt:
                    raise
                # A shard worker died mid-sweep.  Take the documented
                # cold path: tear everything down (detach hands the
                # state back a private `available` copy), re-attach
                # (fresh workers, fresh shared memory, empty caches)
                # and retry the exchange once.  Fresh workers recompute
                # every verdict regardless of the dirty list, so the
                # planned machines stay bit-identical — only the
                # hit/miss cost counters differ from an uninterrupted
                # run.
                self.cold_restarts += 1
                self.close()
                self._attach(state)
                dirty = None
        self._synced_version = state.version
        self.sweeps += 1

        gids = np.concatenate([r[0] for r in replies])
        keys = np.concatenate([r[1] for r in replies])
        aff = None
        if affinity is not None:
            aff = (
                np.concatenate([r[2] for r in replies])
                if gids.size
                else np.empty(0, dtype=bool)
            )
        merged = merge_candidates(gids, keys, aff, state.n_machines)
        machines = np.repeat(
            *block_plan(state, demand, app_id, merged, k, within_scope)
        )
        recomputed = sum(r[4]["recomputed"] for r in replies)
        admitted = sum(r[3] for r in replies)

        tele = telemetry.current()
        if tele is not None:
            tele.parallel_sweeps += 1
            tele.cache_hits += sum(r[4]["hits"] for r in replies)
            tele.cache_misses += recomputed
            tele.cache_invalidations += sum(
                r[4]["invalidations"] for r in replies
            )
            tele.index_resyncs += sum(r[4]["resyncs"] for r in replies)
            for i, r in enumerate(replies):
                tele.add_worker_time(f"w{i}", r[4]["elapsed_s"])
        return machines, recomputed, admitted

    # ------------------------------------------------------------------
    def checkpoint(self) -> dict | None:
        """Serialisable image of the sweep's watermark and worker state.

        ``None`` when no state is attached (nothing to persist) or a
        worker cannot answer (died mid-run) — the restore side then
        starts the sweep cold, which costs one full resync but never
        corrupts.  The per-worker images carry each shard's local
        dirty-log watermark plus its cache/index checkpoints, so a
        restored sweep resumes with the exact per-shard sync points the
        uninterrupted run would have had.
        """
        if self._state is None or not self._conns:
            return None
        try:
            for conn in self._conns:
                conn.send(("dump",))
            workers = [conn.recv() for conn in self._conns]
        except (EOFError, BrokenPipeError, OSError):  # pragma: no cover
            return None
        return {
            "bounds": list(self._bounds),
            "synced_version": self._synced_version,
            "sweeps": self.sweeps,
            "rebalances": self.rebalances,
            "workers": workers,
        }

    def restore(self, state: ClusterState, payload: dict | None) -> None:
        """Re-attach to ``state`` and adopt a :meth:`checkpoint` image.

        Workers are re-spawned and the restored ``available`` array is
        re-adopted into fresh shared memory by the ordinary attach
        path; the image then reloads each worker's shard-local
        watermark and caches.  A checkpoint taken after a work-weighted
        :meth:`rebalance` carries the moved boundaries: when the
        payload's bounds form a valid rack-aligned partition for the
        same worker count, the workers are re-bound onto them first, so
        the resumed run keeps the rebalanced layout.  A ``None``
        payload or an incompatible layout (different worker count or
        cluster size) falls back to the cold attach — a full resync,
        never silent corruption.
        """
        self._attach(state)
        if payload is None:
            return
        bounds = [(int(lo), int(hi)) for lo, hi in payload["bounds"]]
        if bounds != self._bounds:
            if len(bounds) != len(self._conns) or not _is_rack_partition(
                bounds,
                state.n_machines,
                state.topology.spec.machines_per_rack,
            ):
                return
            self._rebind(state, bounds)
        self.sweeps = payload["sweeps"]
        self.rebalances = payload.get("rebalances", 0)
        for conn, image in zip(self._conns, payload["workers"]):
            conn.send(("load", image))
        for conn in self._conns:
            conn.recv()
        # The persisted watermark is typically older than the attach
        # point (deploys follow the last plan_block); the next query
        # ships exactly the machines dirtied since, as the
        # uninterrupted run would.
        self._synced_version = payload["synced_version"]

    # ------------------------------------------------------------------
    def _detach_state(self) -> None:
        if self._state is not None and self._shm is not None:
            # Hand the state back a private copy before the shared
            # buffer goes away — callers may keep using it serially.
            self._state.available = np.array(self._state.available)
        if self._shm is not None:
            # Unlink *before* close: close() raises BufferError while
            # any live view still maps the buffer, and the old
            # close-then-unlink order leaked the /dev/shm segment
            # whenever that happened.  Unlinking first removes the name
            # unconditionally; the mapping itself is released when the
            # last view dies.
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            try:
                self._shm.close()
            except BufferError:  # a live external view; freed with it
                pass
            self._shm = None
        self._state = None
        self._uid = None
        self._synced_version = -1

    def _stop_procs(self) -> None:
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):  # pragma: no cover
                pass
            conn.close()
        for proc in self._procs:
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
        self._procs = []
        self._conns = []

    def close(self) -> None:
        """Stop the workers and release the shared memory.

        Idempotent and safe against dead children: a worker killed
        mid-sweep must not keep the shared segment alive, so the
        detach (which unlinks the segment) runs even when stopping the
        workers fails.
        """
        try:
            self._stop_procs()
        finally:
            self._detach_state()


def _slice_ids(ids: np.ndarray | None, lo: int, hi: int) -> np.ndarray | None:
    """Restrict a global id list to ``[lo, hi)`` as shard-local ids."""
    if ids is None:
        return None
    seg = ids[(ids >= lo) & (ids < hi)]
    return seg - lo


def _is_rack_partition(
    bounds: list[tuple[int, int]], n_machines: int, machines_per_rack: int
) -> bool:
    """Whether ``bounds`` is a valid non-empty rack-aligned partition of
    ``[0, n_machines)`` — the invariants the merge's determinism proof
    (and shard-local rack dedup) relies on."""
    if not bounds or bounds[0][0] != 0 or bounds[-1][1] != n_machines:
        return False
    prev_hi = 0
    for lo, hi in bounds:
        if lo != prev_hi or hi <= lo or lo % machines_per_rack != 0:
            return False
        prev_hi = hi
    return True

"""Cross-round isomorphism-limiting feasibility cache.

Isomorphism limiting (Section IV.A) rests on one observation: all
containers of an application are identical, so a machine's feasibility
verdict — multidimensional capacity dominance (Equation 6) plus the
Equation 7–8 blacklist — holds for *every* container of that
application.  The seed implementation exploited this within a single
scheduling round but recomputed every verdict from scratch each round,
which is exactly the waste an online churn workload punishes: between
two rounds only the machines touched by the round's placements,
evictions, preemptions and migrations can change their verdicts.

:class:`FeasibilityCache` makes IL verdicts persist across rounds with
precise invalidation, by splitting the verdict into its two terms:

* **Dominance** (``available[m] >= demand``, Equation 6) depends only on
  the demand vector and the machine — not on the application.  It is
  the expensive O(machines × dims) scan, and it is cached persistently,
  keyed by the demand shape.  A churn stream never resubmits an
  application, but it resubmits the same demand *shapes* constantly, so
  every application with the same shape shares one entry — this is
  where the cross-round reuse comes from.
* **The blacklist** (Equations 7–8) is app-specific but cheap: it only
  touches the machines currently hosting the app's conflict partners
  (or rack-mates, for rack-scoped within-rules).  It is evaluated live
  on every query, never cached — so constraint changes cannot go stale
  by construction, and rack-scope rules need no special invalidation.

On each query the dominance entry is synchronised against the
:class:`~repro.cluster.state.ClusterState` dirty log: only machines
mutated since the entry's version are rechecked (dominance for machine
``m`` depends only on ``available[m]``, and every mutation of ``m`` is
logged).  When the log has been compacted past the entry's version, or
the entry belongs to a different state instance, the verdicts are
discarded wholesale — the cache degrades to the seed behaviour, never
to stale answers.

Two *adaptive* policies bound the bookkeeping under storm churn, where
most demand shapes live exactly one tick and the dirty log grows by
thousands of entries between two sightings of the same shape:

* **Reuse-gated insertion** — the first sighting of a shape computes
  its verdicts without storing an entry; an entry is created only once
  the shape recurs (:attr:`FeasibilityCache.REUSE_THRESHOLD`).  One-shot
  shapes therefore never pay entry allocation, and a rebind drops less.
* **Sync cost model** — an entry whose version gap exceeds an eighth of
  the machine count (floor :attr:`FeasibilityCache.SYNC_GAP_FLOOR`) is
  recomputed wholesale instead of incrementally: slicing and deduping
  the dirty log is per-query Python/numpy overhead, while a fresh
  O(machines × dims) scan is one vectorised pass — cheaper whenever
  the gap is a non-trivial fraction of the cluster.  Accounting matches
  the compacted-log path (``misses = invalidations = n``).

Both policies change only *when* verdicts are recomputed, never their
values, so the cache stays decision-transparent — the differential
harness proves cached ≡ cold bit-identically with them active.

Who still asks for a cluster-wide verdict.  The default engine's batch
kernel does not: it reads a window of the packed-first order sized from
the block and evaluates Equations 6–8 on those positions only
(:func:`~repro.core.batchkernel.block_plan`).  The cache serves
what reads the whole cluster:

* :class:`~repro.core.scheduler.AladdinScheduler` — affinity-tiered
  blocks, the walk over a block's overflow containers and its refresh
  after a rescue, and every block on the batch-off / no-DL paths;
* the engine-shared ``drain_requeue`` and ``final_repair`` passes;
* :class:`~repro.core.search.FlowPathSearch`, per container;
* the rescue kernel's private dominance cache (:meth:`dominance_mask`).

On the ruler's default-engine workloads that leaves ``sim-mixed-lla``,
``serve-diurnal`` and ``serve-storm-burst`` with no cache query at all;
``tight-rescue`` queries it for overflow, requeued victims and the
rescue kernel's dominance questions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.cluster.state import ClusterState, dominates


@dataclass
class _Entry:
    """Cached dominance verdicts for one demand shape."""

    fit: np.ndarray  # bool, shape (n_machines,)
    version: int  # state version the verdicts are synced to


class FeasibilityCache:
    """Persistent per-(demand shape, machine) dominance verdicts.

    One instance lives on each scheduler and survives across
    ``schedule()`` calls; it rebinds automatically when handed a
    different :class:`ClusterState` (fresh simulation, snapshot, …).

    Attributes
    ----------
    hits / misses / invalidations:
        Lifetime counters (per-machine verdicts served from cache,
        recomputed, and discarded as dirty).  The same increments are
        reported to the active telemetry collector, if any.
    last_recomputed:
        Number of verdicts recomputed by the most recent query — the
        honest incremental cost a caller should charge to its
        ``explored`` work counter.
    """

    #: sightings of a shape before its verdicts are cached (2 = store on
    #: first recurrence; 1 restores the store-always seed behaviour)
    REUSE_THRESHOLD = 2

    #: smallest version gap the sync cost model will recompute wholesale
    #: for — below this, incremental resync always wins regardless of
    #: cluster size (and the unit-scale incremental tests stay exact)
    SYNC_GAP_FLOOR = 32

    def __init__(self, report_telemetry: bool = True) -> None:
        self._state_uid: int | None = None
        self._entries: dict[bytes, _Entry] = {}
        #: shape key -> sightings while still unstored (reuse gating)
        self._shape_seen: dict[bytes, int] = {}
        #: report hit/miss/invalidation increments to the active
        #: telemetry collector.  The rescue kernel's private dominance
        #: cache runs quiet so the engine-level ``cache_*`` counters
        #: keep meaning "search-path verdicts" across the rescue axis.
        self.report_telemetry = report_telemetry
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.last_recomputed = 0

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Drop every entry (rebinding to a new state does this too)."""
        self._entries.clear()
        self._shape_seen.clear()
        self._state_uid = None

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    def checkpoint(self) -> dict:
        """Serialisable image of the cached verdicts and counters.

        Entry versions refer to the bound state's dirty-log numbering;
        they stay valid across :meth:`restore` because the state's
        checkpoint persists the log verbatim with the same numbering.
        """
        return {
            "entries": {
                key: (entry.fit.copy(), entry.version)
                for key, entry in self._entries.items()
            },
            "shape_seen": dict(self._shape_seen),
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "last_recomputed": self.last_recomputed,
        }

    def restore(self, payload: dict, state_uid: int) -> None:
        """Adopt a :meth:`checkpoint` image, rebinding to ``state_uid``.

        ``state_uid`` is the uid of the *restored* state the entries
        were checkpointed against (uids are process-local, so the
        original uid is meaningless after a restart).  The next query
        then resyncs each entry from its persisted version through the
        restored dirty log — a warm resync instead of a cold rebuild.
        """
        self._entries = {
            key: _Entry(fit=np.array(fit), version=version)
            for key, (fit, version) in payload["entries"].items()
        }
        # Reuse-gating sightings; absent in pre-adaptive snapshots, in
        # which case the gated shapes simply start their count over.
        self._shape_seen = dict(payload.get("shape_seen", {}))
        self._state_uid = state_uid
        self.hits = payload["hits"]
        self.misses = payload["misses"]
        self.invalidations = payload["invalidations"]
        self.last_recomputed = payload["last_recomputed"]

    # ------------------------------------------------------------------
    def _dominance(
        self, state: ClusterState, demand: np.ndarray
    ) -> tuple[np.ndarray, bool]:
        """Exact Equation-6 verdicts for ``demand`` at the current version.

        Returns ``(fit, shared)``: ``shared`` is true when ``fit`` is
        the cache's live entry array (callers needing a private copy
        must copy it), false when it is a fresh one-shot array the
        reuse gate declined to store.
        """
        n = state.n_machines
        key = demand.tobytes()
        entry = self._entries.get(key)

        if entry is None:
            fit = dominates(state.available, demand)
            seen = self._shape_seen.get(key, 0) + 1
            if seen >= self.REUSE_THRESHOLD:
                # The shape recurred: cache it and sync incrementally
                # from now on.
                self._shape_seen.pop(key, None)
                self._entries[key] = _Entry(fit=fit, version=state.version)
                self._count(hits=0, misses=n, invalidations=0)
                return fit, True
            self._shape_seen[key] = seen
            self._count(hits=0, misses=n, invalidations=0)
            return fit, False

        gap = state.version - entry.version
        if gap == 0:
            # Already synced to this exact version — the common case for
            # repeat queries within one scheduling round.  Skips the
            # dirty-log slice entirely; accounting matches the
            # empty-dirty path below (inlined: this path must stay
            # cheaper than the raw scan it replaces).
            self.hits += n
            self.last_recomputed = 0
            if self.report_telemetry:
                tele = telemetry.current()
                if tele is not None:
                    tele.cache_hits += n
            return entry.fit, True
        if gap > (floor if (floor := self.SYNC_GAP_FLOOR) > n >> 3 else n >> 3):
            # Sync cost model: slicing and deduping the dirty log costs
            # real per-query Python/numpy overhead, while a wholesale
            # rescan is one vectorised pass over ``n × dims`` floats —
            # cheap at small cluster sizes.  Recompute wholesale once
            # the gap exceeds n/8 mutations (floor SYNC_GAP_FLOOR, so
            # tiny clusters still sync small gaps incrementally), with
            # the same accounting as a compacted log.
            entry.fit = dominates(state.available, demand)
            self._count(hits=0, misses=n, invalidations=n)
        else:
            # Raw (possibly duplicated) slice: rewriting a verdict twice
            # is idempotent, and the cost model above bounds the slice
            # to max(SYNC_GAP_FLOOR, n/8) entries, so skipping the dedup
            # sort is the cheaper trade.  ``stale`` counts occurrences.
            dirty = state.dirty_raw_since(entry.version)
            if dirty is None:
                # The log no longer reaches this far back: recompute.
                entry.fit = dominates(state.available, demand)
                self._count(hits=0, misses=n, invalidations=n)
            elif dirty.size:
                entry.fit[dirty] = dominates(state.available[dirty], demand)
                # Occurrence count, clamped: on a tiny cluster the
                # bounded slice can still repeat machines past n.
                stale = min(int(dirty.size), n)
                self._count(
                    hits=n - stale, misses=stale, invalidations=stale
                )
            else:
                self._count(hits=n, misses=0, invalidations=0)
        entry.version = state.version
        return entry.fit, True

    # ------------------------------------------------------------------
    def feasible_mask(
        self, state: ClusterState, demand: np.ndarray, app_id: int
    ) -> np.ndarray:
        """Equivalent of ``state.feasible_mask(demand, app_id)``, cached.

        Returns a fresh array (callers may mutate it freely).  The
        verdicts are exact for the state's *current* version: the
        dominance entry is synchronised against the dirty log before
        the live blacklist term is applied.
        """
        if state.state_uid != self._state_uid:
            self.reset()
            self._state_uid = state.state_uid

        fit, shared = self._dominance(state, demand)
        cs = state.constraints
        if cs.has_within(app_id) or cs.has_conflicts(app_id):
            # The blacklist term is live, so it can never go stale; it
            # only touches machines hosting the app's conflict partners.
            return fit & ~state.forbidden_mask(app_id)
        return fit.copy() if shared else fit

    # ------------------------------------------------------------------
    def dominance_mask(
        self, state: ClusterState, demand: np.ndarray
    ) -> np.ndarray:
        """Equation-6 verdicts only: ``(available >= demand).all(axis=1)``.

        The app-independent half of :meth:`feasible_mask`, synchronised
        the same way, but returned as the cache's *shared* entry array —
        callers must treat it as read-only (copy before mutating).  The
        rescue kernel queries this per mover/victim demand shape, where
        allocating a fresh mask per query would negate the win over a
        full scan per query.
        """
        if state.state_uid != self._state_uid:
            self.reset()
            self._state_uid = state.state_uid
        fit, _ = self._dominance(state, demand)
        return fit

    # ------------------------------------------------------------------
    def _count(self, hits: int, misses: int, invalidations: int) -> None:
        self.hits += hits
        self.misses += misses
        self.invalidations += invalidations
        self.last_recomputed = misses
        tele = telemetry.current() if self.report_telemetry else None
        if tele is not None:
            tele.cache_hits += hits
            tele.cache_misses += misses
            tele.cache_invalidations += invalidations

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

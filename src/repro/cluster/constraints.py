"""Placement constraints: anti-affinity and priority.

The paper's two LLA constraint families (Section II.A):

* **Anti-affinity within an application** — containers of one LLA must run
  on different machines (fault tolerance).
* **Anti-affinity across applications** — two LLAs must not share a
  machine (performance interference).  The paper writes such a rule as
  ``p = {T1, T2, 0}`` (Fig. 4); the trailing ``0`` marks it mandatory.
* **Priority** — a high-priority container may preempt lower-priority
  ones on placement conflicts, never the reverse.

:class:`ConstraintSet` is the queryable index the schedulers share.  It is
deliberately symmetric: if ``a`` conflicts with ``b`` then ``b`` conflicts
with ``a``.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain, compress, repeat

import numpy as np

from repro.cluster.container import Application

#: Priority classes used by the reproduction's traces, lowest first.
PRIORITY_CLASSES: tuple[int, ...] = (0, 1, 2, 3)


@dataclass(frozen=True)
class AntiAffinityRule:
    """One anti-affinity rule in the paper's ``{a, b, hardness}`` form.

    ``a == b`` encodes anti-affinity *within* application ``a``.
    ``hardness == 0`` (the only value the paper evaluates) marks the rule
    mandatory; soft rules are kept for API completeness.
    """

    app_a: int
    app_b: int
    hardness: int = 0

    def __post_init__(self) -> None:
        if self.app_a < 0 or self.app_b < 0:
            raise ValueError("application ids must be non-negative")
        if self.hardness not in (0, 1):
            raise ValueError(f"hardness must be 0 (hard) or 1 (soft), got {self.hardness}")

    @property
    def within(self) -> bool:
        return self.app_a == self.app_b

    def normalized(self) -> "AntiAffinityRule":
        """Return the rule with ``app_a <= app_b`` for canonical storage."""
        if self.app_a <= self.app_b:
            return self
        return AntiAffinityRule(self.app_b, self.app_a, self.hardness)


class ConstraintSet:
    """Queryable index over all constraints of a workload.

    Built either from explicit :class:`AntiAffinityRule` objects or from
    the per-application fields of :class:`~repro.cluster.container.Application`.

    Within-app anti-affinity carries a *scope*: ``"machine"`` (the
    paper's case — replicas on distinct machines) or ``"rack"``
    (replicas on distinct racks, the fault-domain the network's ``R``
    vertex layer models; Kubernetes calls this a ``topologyKey``).

    The cross-application graph is held in rows, 4 bytes an entry
    whatever its density: every application a rule names has a row,
    ranked by id (:attr:`pos`), and one sorted array holds each entry as
    the key ``row * n + partner row`` (``n`` rows), row ``r`` between
    ``offsets[r]`` and ``offsets[r + 1]``.  :meth:`add_rule` buffers its
    pair; the next query merges the buffer into the rows.
    """

    def __init__(self, rules: list[AntiAffinityRule] | None = None) -> None:
        #: bumped whenever an anti-affinity rule is registered; a
        #: consumer that derives state from the rules (the violation
        #: tally of :class:`~repro.cluster.state.ClusterState`) stores
        #: the revision it was built at and rebuilds when it differs —
        #: a rule added after placement changes verdicts with no state
        #: mutation to announce it
        self.revision = 0
        self._within_scope: dict[int, str] = {}
        self._affinities: dict[int, set[int]] = {}
        self._pending: list[tuple[int, int]] = []
        self._ids = np.empty(0, dtype=np.int64)  # row -> app id
        self._pos: dict[int, int] = {}
        self._keys = np.empty(0, dtype=np.int32)
        self._offsets = np.zeros(1, dtype=np.int64)
        self._mask: np.ndarray | None = None  # see :meth:`blacklist`
        self._masked: tuple[int | None, np.ndarray] = (None, np.empty(0, np.intp))
        for rule in rules or []:
            self.add_rule(rule)

    @classmethod
    def from_applications(cls, apps: list[Application]) -> "ConstraintSet":
        """Build the symmetric constraint index from application metadata.

        Equal in content to one :meth:`add_rule` per within-flag and
        ``conflicts`` entry, then one :meth:`add_affinity` per affinity
        once the conflict graph is complete, but the graph is built in
        one vectorised pass.
        """
        cs = cls()
        for app in apps:
            if app.anti_affinity_within:
                scope = getattr(app, "anti_affinity_scope", "machine")
                cs.add_rule(AntiAffinityRule(app.app_id, app.app_id), scope=scope)
        owners = np.array([app.app_id for app in apps], dtype=np.int64)
        sizes = np.array([len(app.conflicts) for app in apps], dtype=np.int64)
        peers = chain.from_iterable(app.conflicts for app in apps)
        cs._merge(owners, sizes, np.fromiter(peers, np.int64, sizes.sum()))
        for app in apps:
            for other in getattr(app, "affinities", ()):  # soft, one-way
                cs.add_affinity(app.app_id, other)
        cs.revision += 1
        return cs

    def _merge(self, owners: np.ndarray, sizes: np.ndarray, peers: np.ndarray) -> None:
        """Add the pairs each ``owners[i]`` forms with its next
        ``sizes[i]`` ``peers``, both ways.  Rows stay 32-bit where they
        fit: 64-bit pairs would make this build the process's peak."""
        if self._ids.size:  # the graph so far
            owners = np.concatenate((self._ids, owners))
            sizes = np.concatenate((np.diff(self._offsets), sizes))
            peers = np.concatenate((self._ids[self._keys % self._ids.size], peers))
        owners, sizes = owners[sizes > 0], sizes[sizes > 0]
        if not peers.size:
            return
        if min(owners.min(), peers.min()) < 0:
            raise ValueError("application ids must be non-negative")
        top = int(max(owners.max(), peers.max()))
        if top < 2 * peers.size:  # dense ids: rank by a presence table
            seen = np.zeros(top + 1, dtype=bool)
            seen[owners] = seen[peers] = True
            ids, rank = np.flatnonzero(seen), (np.cumsum(seen) - 1).__getitem__
        else:
            ids = np.unique(np.concatenate((owners, peers)))
            rank = ids.searchsorted
        n = ids.size
        dtype = np.int32 if n * n <= np.iinfo(np.int32).max else np.int64
        b = rank(peers).astype(dtype)
        del peers
        a = np.repeat(rank(owners).astype(dtype), sizes)
        if (a == b).any():
            raise ValueError("use anti_affinity_within for self-conflicts")
        keys = np.concatenate((a * n + b, b * n + a))
        del a, b
        keys.sort()
        self._keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
        self._offsets = np.searchsorted(self._keys, np.arange(n + 1) * n)
        self._ids, self._pos = ids, dict(zip(ids.tolist(), range(n)))
        self._mask = None

    @property
    def pos(self) -> dict[int, int]:
        """Row of every application a cross-application rule names."""
        if self._pending:
            pairs = np.array(self._pending, dtype=np.int64)
            self._pending = []
            self._merge(pairs[:, 0], np.ones(len(pairs), np.int64), pairs[:, 1])
        return self._pos

    def add_affinity(self, app_id: int, other: int) -> None:
        """Register a soft co-location preference (one-way)."""
        if app_id == other:
            raise ValueError("an application is trivially affine to itself")
        if self.violates(app_id, other):
            raise ValueError(
                f"apps {app_id} and {other} are anti-affine; they cannot "
                "also prefer co-location"
            )
        self._affinities.setdefault(app_id, set()).add(other)

    def affinities_of(self, app_id: int) -> frozenset[int]:
        """Applications ``app_id`` prefers to share machines with."""
        return frozenset(self._affinities.get(app_id, ()))

    def add_rule(self, rule: AntiAffinityRule, scope: str = "machine") -> None:
        """Register one rule; cross-application rules are made symmetric."""
        if scope not in ("machine", "rack"):
            raise ValueError(f"scope must be 'machine' or 'rack', got {scope!r}")
        rule = rule.normalized()
        if rule.within:
            self._within_scope[rule.app_a] = scope
        else:
            self._pending.append((rule.app_a, rule.app_b))
        self.revision += 1

    def has_within(self, app_id: int) -> bool:
        """True when containers of ``app_id`` must be on distinct machines
        (or distinct racks, per :meth:`within_scope`)."""
        return app_id in self._within_scope

    def within_scope(self, app_id: int) -> str:
        """Spread domain of ``app_id``'s within-rule: machine or rack."""
        return self._within_scope.get(app_id, "machine")

    def constrained(self, app_id: int) -> bool:
        """True when any anti-affinity rule names ``app_id``."""
        return app_id in self._within_scope or app_id in self.pos

    def has_conflicts(self, app_id: int) -> bool:
        """True when any cross-application rule names ``app_id``."""
        return app_id in self.pos

    def row(self, app_id: int) -> np.ndarray:
        """Rows of ``app_id``'s conflict partners, ascending."""
        r = self.pos.get(app_id)
        if r is None:
            return self._keys[:0]
        lo, hi = self._offsets[r : r + 2].tolist()
        return self._keys[lo:hi] - r * self._ids.size

    def partners(self, app_id: int) -> list[int]:
        """Applications that must not share a machine with ``app_id``,
        ascending."""
        row = self.row(app_id)  # merges what is pending first
        return self._ids[row].tolist()

    def conflicts_of(self, app_id: int) -> frozenset[int]:
        """Applications that must not share a machine with ``app_id``."""
        return frozenset(self.partners(app_id))

    def blacklist(self, app_id: int) -> memoryview:
        """A byte per row of :attr:`pos`, set where that application
        conflicts with ``app_id``, and a last byte never set:
        ``mask[pos.get(other, -1)]`` asks about any ``other``.

        There is one mask, switched between applications in O(row) —
        the previous application's row cleared, the new one set — so a
        mask is read at once and never held across another call (nor
        across an :meth:`add_rule`), and the set is queried from one
        thread: the one that mutates the states using it."""
        pos = self.pos  # a merge drops the mask
        if self._mask is None:
            self._mask = np.zeros(len(pos) + 1, dtype=np.uint8)
            self._masked = (None, np.empty(0, dtype=np.intp))
        mask = self._mask
        last, rows = self._masked
        if last != app_id:
            mask[rows] = 0
            r = pos.get(app_id)
            if r is None:
                rows = rows[:0]
            else:  # intp rows keep the scatters on numpy's fast path
                lo, hi = self._offsets[r : r + 2].tolist()
                rows = self._keys[lo:hi].astype(np.intp)
                rows -= r * self._ids.size
                mask[rows] = 1
            self._masked = (app_id, rows)
        return mask.data

    def clashes(self, app_id: int, apps) -> bool:
        """True when ``app_id`` conflicts with an application of ``apps``."""
        mask, pos = self.blacklist(app_id), self._pos
        return not pos.keys().isdisjoint(apps) and any(
            map(mask.__getitem__, map(pos.get, apps, repeat(-1)))
        )

    def conflicting(self, rows: np.ndarray, others: np.ndarray) -> np.ndarray:
        """Whether each ``rows[i]`` conflicts with ``others[i]`` (rows of
        :attr:`pos`, int64 arrays): every pair looked up in one
        ``searchsorted``, its needles sorted since a random probe of a
        large index misses the cache at every step."""
        keys = self._keys
        query = (rows * self._ids.size + others).astype(keys.dtype)
        order = np.argsort(query)
        query = query[order]
        hit = np.empty(query.size, dtype=bool)
        hit[order] = keys[np.searchsorted(keys, query).clip(max=keys.size - 1)] == query
        return hit

    def clashing(self, groups: list[int], rows: list[int]) -> list[bool]:
        """Whether each ``rows[i]`` conflicts with another row of its
        group (``groups`` non-decreasing).  Many entries are paired in
        numpy and asked through :meth:`conflicting`; a handful is paired
        in Python and bisected one by one, where numpy's per-call cost
        would outweigh the work."""
        keys, n = self._keys, self._ids.size
        out = [False] * len(rows)
        if len(rows) > 16:
            g, r = np.array(groups), np.array(rows)
            later = np.searchsorted(g, g, "right") - np.arange(g.size) - 1
            asker = np.repeat(np.arange(g.size), later)
            other = asker + 1 + np.arange(asker.size)
            other -= np.repeat(np.cumsum(later) - later, later)
            found = self.conflicting(r[asker], r[other])
            for i, j in zip(compress(asker, found), compress(other, found)):
                out[i] = out[j] = True
            return out
        # memoryviews read Python ints: no numpy call per probe, and each
        # probe bisects only the asker's row
        view, bounds = memoryview(keys), memoryview(self._offsets)
        for i, group in enumerate(groups):
            lo, hi = bounds[rows[i]], bounds[rows[i] + 1]
            for j in range(i + 1, len(groups)):
                if groups[j] != group:
                    break
                key = rows[i] * n + rows[j]
                at = bisect_left(view, key, lo, hi)
                if at < hi and view[at] == key:
                    out[i] = out[j] = True
        return out

    def conflicting_pairs(self) -> Iterator[tuple[int, int]]:
        """Every cross-application conflict pair ``(a, b)``, ``a < b``,
        in ascending order, a row at a time."""
        for r, a in enumerate(list(self.pos)):
            row = self.row(a)
            yield from zip(repeat(a), self._ids[row[row > r]].tolist())

    def apps_with_anti_affinity(self) -> set[int]:
        """Every application touched by at least one anti-affinity rule."""
        return self._within_scope.keys() | self.pos.keys()

    def violates(self, app_a: int, app_b: int) -> bool:
        """True when co-locating containers of ``app_a`` and ``app_b``
        on one machine breaks a rule (including ``app_a == app_b``)."""
        if app_a == app_b:
            return app_a in self._within_scope
        return bool(self.blacklist(app_a)[self._pos.get(app_b, -1)])

    def __len__(self) -> int:
        self.pos  # merges what is pending
        return len(self._within_scope) + self._keys.size // 2

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

from dataclasses import dataclass
from itertools import chain

import numpy as np

from repro.cluster.container import Application

#: Priority classes used by the reproduction's traces, lowest first.
PRIORITY_CLASSES: tuple[int, ...] = (0, 1, 2, 3)

#: shared answer of :meth:`ConstraintSet.conflict_view` for an
#: application no cross-application rule names
_NO_CONFLICTS: frozenset[int] = frozenset()


def _mirrored(adopted: list[tuple[int, frozenset[int]]], conflicts: dict) -> bool:
    """True when every adopted pair ``(a, b)`` has its ``(b, a)``: one
    sort of each side, where a membership test per pair would miss the
    cache on nearly every one of a full trace's millions."""
    if not adopted or adopted[0][0] not in conflicts.get(min(adopted[0][1]), ()):
        return False  # nothing to check, or a first pair already one-sided
    src = np.repeat([a for a, _ in adopted], [len(p) for _, p in adopted])
    dst = np.fromiter(chain.from_iterable(p for _, p in adopted), np.int64, src.size)
    if dst.min() < 0 or max(src.max(), dst.max()) >= 1 << 31:
        return False  # ids the keys cannot hold
    return bool(np.array_equal(np.sort(src << 32 | dst), np.sort(dst << 32 | src)))


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
    """

    def __init__(self, rules: list[AntiAffinityRule] | None = None) -> None:
        #: bumped whenever an anti-affinity rule is registered; a
        #: consumer that derives state from the rules (the violation
        #: tally of :class:`~repro.cluster.state.ClusterState`) stores
        #: the revision it was built at and rebuilds when it differs —
        #: a rule added after placement changes verdicts with no state
        #: mutation to announce it
        self.revision = 0
        self._within: set[int] = set()
        self._within_scope: dict[int, str] = {}
        self._conflicts: dict[int, set[int] | frozenset[int]] = {}
        self._affinities: dict[int, set[int]] = {}
        for rule in rules or []:
            self.add_rule(rule)

    @classmethod
    def from_applications(cls, apps: list[Application]) -> "ConstraintSet":
        """Build the symmetric constraint index from application metadata.

        Equal in content to one :meth:`add_rule` per within-flag and
        ``conflicts`` entry, then one :meth:`add_affinity` per affinity
        once the conflict graph is complete.  That graph (millions of
        pairs at full scale) is stored once: each ``conflicts`` frozenset
        is adopted as is, and only reverse entries the input lacks are
        added.  Anything else (a non-frozenset, a negative id, an app
        naming itself) goes through :meth:`add_rule` and its checks.
        """
        cs = cls()
        conflicts = cs._conflicts
        adopted = []
        for app in apps:
            a, peers = app.app_id, app.conflicts
            if app.anti_affinity_within:
                scope = getattr(app, "anti_affinity_scope", "machine")
                cs.add_rule(AntiAffinityRule(a, a), scope=scope)
            if type(peers) is not frozenset or a < 0 or a in peers:
                for b in peers:
                    cs.add_rule(AntiAffinityRule(a, b))
            elif peers:
                adopted.append((a, peers))  # a duplicate id unites its sets
                conflicts[a] = conflicts[a] | peers if a in conflicts else peers
        for a, peers in () if _mirrored(adopted, conflicts) else adopted:
            for b in peers:  # add the reverse entries the input lacks
                entry = conflicts.get(b, _NO_CONFLICTS)
                if type(entry) is set:
                    entry.add(a)
                elif a not in entry:
                    if b < 0:
                        AntiAffinityRule(a, b)  # raises: ids are non-negative
                    conflicts[b] = {a, *iter(entry)}  # sized as add_rule sizes it
        for app in apps:
            for other in getattr(app, "affinities", ()):  # soft, one-way
                cs.add_affinity(app.app_id, other)
        cs.revision += 1
        return cs

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
        """Register one rule; cross-application rules are made symmetric
        (an adopted conflict set is copied before its first write)."""
        if scope not in ("machine", "rack"):
            raise ValueError(f"scope must be 'machine' or 'rack', got {scope!r}")
        rule = rule.normalized()
        if rule.within:
            self._within.add(rule.app_a)
            self._within_scope[rule.app_a] = scope
        else:
            for a, b in (rule.app_a, rule.app_b), (rule.app_b, rule.app_a):
                peers = self._conflicts.get(a, _NO_CONFLICTS)
                if type(peers) is not set:  # adopted, or new: own a copy
                    peers = self._conflicts[a] = set(peers)
                peers.add(b)
        self.revision += 1

    def has_within(self, app_id: int) -> bool:
        """True when containers of ``app_id`` must be on distinct machines
        (or distinct racks, per :meth:`within_scope`)."""
        return app_id in self._within

    def within_scope(self, app_id: int) -> str:
        """Spread domain of ``app_id``'s within-rule: machine or rack."""
        return self._within_scope.get(app_id, "machine")

    def has_conflicts(self, app_id: int) -> bool:
        """True when any cross-application rule names ``app_id``."""
        return app_id in self._conflicts

    def conflicts_of(self, app_id: int) -> frozenset[int]:
        """Applications that must not share a machine with ``app_id``."""
        return frozenset(self._conflicts.get(app_id, ()))

    def conflict_view(self, app_id: int) -> "set[int] | frozenset[int]":
        """The conflict set of ``app_id`` without the copy.

        A frozenset (often the application's own ``conflicts``) or a set,
        empty when no rule names ``app_id``: read-only, not to be held
        across an :meth:`add_rule`, and in no contracted order.  For
        per-machine hot loops; :meth:`conflicts_of` is the safe form.
        """
        return self._conflicts.get(app_id, _NO_CONFLICTS)

    def conflicting_pairs(self) -> set[tuple[int, int]]:
        """All cross-application conflict pairs, canonically ordered."""
        return {(a, b) for a, peers in self._conflicts.items() for b in peers if a < b}

    def apps_with_anti_affinity(self) -> set[int]:
        """Every application touched by at least one anti-affinity rule."""
        return self._within | self._conflicts.keys()

    def violates(self, app_a: int, app_b: int) -> bool:
        """True when co-locating containers of ``app_a`` and ``app_b``
        on one machine breaks a rule (including ``app_a == app_b``)."""
        if app_a == app_b:
            return app_a in self._within
        return app_b in self._conflicts.get(app_a, ())

    def __len__(self) -> int:
        return len(self._within) + len(self.conflicting_pairs())

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

from repro.cluster.container import Application

#: Priority classes used by the reproduction's traces, lowest first.
PRIORITY_CLASSES: tuple[int, ...] = (0, 1, 2, 3)

#: shared answer of :meth:`ConstraintSet.conflict_view` for an
#: application no cross-application rule names
_NO_CONFLICTS: frozenset[int] = frozenset()


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
        self._conflicts: dict[int, set[int]] = {}
        self._affinities: dict[int, set[int]] = {}
        for rule in rules or []:
            self.add_rule(rule)

    @classmethod
    def from_applications(cls, apps: list[Application]) -> "ConstraintSet":
        """Build the symmetric constraint index from application metadata.

        Equivalent to one :meth:`add_rule` per within-flag and per
        ``conflicts`` entry, in application order — down to the
        iteration order of every internal dict and set, which placement
        decisions depend on.  Cross-application pairs are the bulk of a
        trace (millions at full scale) and are inserted directly; the
        pairs :class:`AntiAffinityRule` would reject or reinterpret (a
        negative id, an application naming itself) go through
        :meth:`add_rule` so every check it makes still applies.
        """
        cs = cls()
        conflicts = cs._conflicts
        for app in apps:
            a = app.app_id
            if app.anti_affinity_within:
                cs.add_rule(
                    AntiAffinityRule(a, a),
                    scope=getattr(app, "anti_affinity_scope", "machine"),
                )
            for b in app.conflicts:
                if b > a >= 0:
                    lo, hi = a, b
                elif a > b >= 0:
                    lo, hi = b, a
                else:
                    cs.add_rule(AntiAffinityRule(a, b))
                    continue
                # add_rule's insertion order: the smaller id's entry is
                # created (and filled) first
                peers = conflicts.get(lo)
                if peers is None:
                    peers = conflicts[lo] = set()
                peers.add(hi)
                peers = conflicts.get(hi)
                if peers is None:
                    peers = conflicts[hi] = set()
                peers.add(lo)
            for other in getattr(app, "affinities", ()):  # soft, one-way
                cs.add_affinity(a, other)
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
        """Register one rule; cross-application rules are made symmetric."""
        if scope not in ("machine", "rack"):
            raise ValueError(f"scope must be 'machine' or 'rack', got {scope!r}")
        rule = rule.normalized()
        if rule.within:
            self._within.add(rule.app_a)
            self._within_scope[rule.app_a] = scope
        else:
            self._conflicts.setdefault(rule.app_a, set()).add(rule.app_b)
            self._conflicts.setdefault(rule.app_b, set()).add(rule.app_a)
        self.revision += 1

    def has_within(self, app_id: int) -> bool:
        """True when containers of ``app_id`` must be on distinct machines
        (or distinct racks, per :meth:`within_scope`)."""
        return app_id in self._within

    def within_scope(self, app_id: int) -> str:
        """Spread domain of ``app_id``'s within-rule: machine or rack."""
        return self._within_scope.get(app_id, "machine")

    def has_conflicts(self, app_id: int) -> bool:
        """True when any cross-application rule names ``app_id``.

        Allocation-free membership test for hot paths;
        :meth:`conflicts_of` materialises the actual set.
        """
        return app_id in self._conflicts

    def conflicts_of(self, app_id: int) -> frozenset[int]:
        """Applications that must not share a machine with ``app_id``."""
        return frozenset(self._conflicts.get(app_id, ()))

    def conflict_view(self, app_id: int) -> "set[int] | frozenset[int]":
        """The conflict set of ``app_id`` without the copy.

        The live internal set (empty when no rule names ``app_id``):
        callers must treat it as read-only and must not hold it across
        an :meth:`add_rule`.  For per-machine hot loops;
        :meth:`conflicts_of` is the safe, copying form.
        """
        return self._conflicts.get(app_id, _NO_CONFLICTS)

    def conflicting_pairs(self) -> set[tuple[int, int]]:
        """All cross-application conflict pairs, canonically ordered."""
        pairs: set[tuple[int, int]] = set()
        for a, others in self._conflicts.items():
            for b in others:
                pairs.add((a, b) if a <= b else (b, a))
        return pairs

    def apps_with_anti_affinity(self) -> set[int]:
        """Every application touched by at least one anti-affinity rule."""
        touched = set(self._within)
        touched.update(self._conflicts)
        return touched

    def violates(self, app_a: int, app_b: int) -> bool:
        """True when co-locating containers of ``app_a`` and ``app_b``
        on one machine breaks a rule (including ``app_a == app_b``)."""
        if app_a == app_b:
            return app_a in self._within
        return app_b in self._conflicts.get(app_a, ())

    def __len__(self) -> int:
        return len(self._within) + len(self.conflicting_pairs())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ConstraintSet(within={len(self._within)}, "
            f"cross_pairs={len(self.conflicting_pairs())})"
        )

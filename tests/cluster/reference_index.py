"""The conflict graph as hash sets: the oracle of ``ConstraintSet``.

One ``set`` of partners per application, written one rule at a time and
read by membership.  :class:`repro.cluster.constraints.ConstraintSet`
held the graph this way before it became compact rows; the tests hold
the rows to it, query for query.
"""


class ReferenceIndex:
    """Within-rules, conflict sets and affinities, per application."""

    def __init__(self) -> None:
        self.scope: dict[int, str] = {}  # within-rule -> its scope
        self.conflicts: dict[int, set[int]] = {}
        self.affinities: dict[int, set[int]] = {}

    @classmethod
    def from_applications(cls, apps) -> "ReferenceIndex":
        """One rule per within-flag and ``conflicts`` entry, then the
        affinities once the graph is complete."""
        ref = cls()
        for app in apps:
            if app.anti_affinity_within:
                ref.add_rule(app.app_id, app.app_id, app.anti_affinity_scope)
            for other in app.conflicts:
                if other == app.app_id:
                    raise ValueError("use anti_affinity_within for self-conflicts")
                ref.add_rule(app.app_id, other)
        for app in apps:
            for other in getattr(app, "affinities", ()):
                ref.add_affinity(app.app_id, other)
        return ref

    def add_rule(self, a: int, b: int, scope: str = "machine") -> None:
        if a < 0 or b < 0:
            raise ValueError("application ids must be non-negative")
        if a == b:
            self.scope[a] = scope
        else:
            self.conflicts.setdefault(a, set()).add(b)
            self.conflicts.setdefault(b, set()).add(a)

    def add_affinity(self, a: int, b: int) -> None:
        if self.violates(a, b):
            raise ValueError(f"apps {a} and {b} are anti-affine")
        self.affinities.setdefault(a, set()).add(b)

    def violates(self, a: int, b: int) -> bool:
        if a == b:
            return a in self.scope
        return b in self.conflicts.get(a, ())

    def pairs(self) -> list[tuple[int, int]]:
        return sorted(
            (a, b) for a, peers in self.conflicts.items() for b in peers if a < b
        )

    def image(self):
        """The index's content in :func:`content_image`'s form."""
        return (
            sorted(self.scope),
            sorted(self.scope.items()),
            sorted((a, sorted(peers)) for a, peers in self.conflicts.items()),
            sorted((a, sorted(peers)) for a, peers in self.affinities.items()),
        )

"""Long-lived applications (LLAs) and their containers.

An LLA comprises one or more long-lived containers; all containers of one
application share the same resource requirement — the *isomorphism*
property Aladdin's IL pruning exploits (Section IV.A).  Containers are
*impartible*: a 4-CPU container cannot be split across machines
(Section IV.D).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import islice, repeat
from operator import lt
from typing import NamedTuple

import numpy as np

from repro.cluster.machine import DEFAULT_RESOURCES


@dataclass(frozen=True)
class Application:
    """One long-lived application (LLA).

    Parameters
    ----------
    app_id:
        Dense integer id of the application.
    n_containers:
        Number of isomorphic container instances.
    cpu, mem_gb:
        Per-container resource demand (identical across instances).
    priority:
        Priority class, 0 = lowest.  Roughly 15 % of the trace's LLAs
        carry an elevated priority (Fig. 8b).
    anti_affinity_within:
        Whether the application's own containers must land on distinct
        machines (the paper's *anti-affinity within an application*).
    anti_affinity_scope:
        Spread domain for the within-rule: ``"machine"`` (paper default)
        or ``"rack"`` — replicas on distinct racks, the coarser fault
        domain the flow network's ``R`` vertex layer models.
    conflicts:
        Ids of other applications this one must not share a machine with
        (*anti-affinity across applications*), held as a sorted tuple;
        any iterable of ids is accepted and normalised.
    affinities:
        Ids of applications this one *prefers* to share a machine with —
        a soft constraint (Borg-style affinity; the related-work section
        notes Borg "only considers affinity constraints").  Schedulers
        may use it as a tie-break; it never overrides anti-affinity or
        capacity.
    name:
        Optional human-readable label.
    """

    app_id: int
    n_containers: int
    cpu: float
    mem_gb: float
    priority: int = 0
    anti_affinity_within: bool = False
    anti_affinity_scope: str = "machine"
    conflicts: tuple[int, ...] = ()
    affinities: frozenset[int] = field(default_factory=frozenset)
    name: str = ""

    def __post_init__(self) -> None:
        if self.app_id < 0:
            raise ValueError(f"app_id must be non-negative, got {self.app_id}")
        if self.n_containers <= 0:
            raise ValueError(
                f"n_containers must be positive, got {self.n_containers}"
            )
        if self.cpu <= 0 or self.mem_gb <= 0:
            raise ValueError(
                f"container demand must be positive, got cpu={self.cpu} "
                f"mem_gb={self.mem_gb}"
            )
        if self.priority < 0:
            raise ValueError(f"priority must be non-negative, got {self.priority}")
        conflicts = self.conflicts
        if type(conflicts) is not tuple or not all(
            map(lt, conflicts, islice(conflicts, 1, None))
        ):
            conflicts = tuple(sorted(set(conflicts)))
            object.__setattr__(self, "conflicts", conflicts)
        i = bisect_left(conflicts, self.app_id)
        if conflicts[i : i + 1] == (self.app_id,):
            raise ValueError(
                "use anti_affinity_within for self-conflicts, not the "
                "cross-application conflict set"
            )
        if self.anti_affinity_scope not in ("machine", "rack"):
            raise ValueError(
                f"anti_affinity_scope must be 'machine' or 'rack', got "
                f"{self.anti_affinity_scope!r}"
            )
        if self.affinities and not self.affinities.isdisjoint(conflicts):
            raise ValueError(
                f"applications {sorted(self.affinities.intersection(conflicts))} "
                "appear in both affinities and conflicts"
            )

    def demand_vector(self, resources: tuple[str, ...] = DEFAULT_RESOURCES) -> np.ndarray:
        """Per-container demand ordered like ``resources``."""
        values = {"cpu": self.cpu, "mem_gb": self.mem_gb}
        return np.array([values[name] for name in resources], dtype=np.float64)

    @property
    def has_anti_affinity(self) -> bool:
        """True when any anti-affinity constraint applies to this LLA."""
        return self.anti_affinity_within or bool(self.conflicts)


class Container(NamedTuple):
    """One container instance of an LLA: an immutable tuple.

    ``container_id`` is globally dense; ``instance`` is the index of this
    container within its application (0-based).  The field order is the
    wire order: :mod:`repro.serve.protocol` sends ``list(c)`` and reads
    its ``_CONTAINER_FIELDS`` from ``Container._fields``.  Equality and
    hash are the tuple's: a container hashes as the tuple of its fields,
    which fixes the order of every set and dict of containers.
    """

    container_id: int
    app_id: int
    instance: int
    cpu: float
    mem_gb: float
    priority: int = 0

    def demand_vector(self, resources: tuple[str, ...] = DEFAULT_RESOURCES) -> np.ndarray:
        """Per-container demand ordered like ``resources``."""
        values = {"cpu": self.cpu, "mem_gb": self.mem_gb}
        return np.array([values[name] for name in resources], dtype=np.float64)


def containers_of(apps: list[Application], start_id: int = 0) -> list[Container]:
    """Expand applications into their container instances.

    Container ids are assigned densely in application order starting at
    ``start_id``, so ``containers_of(apps)[k].container_id == start_id + k``.
    Each application's run of isomorphic containers is one ``map`` of
    :meth:`Container._make` over its zipped columns: no per-container
    ``__init__``, no per-container ``__dict__``.
    """
    out: list[Container] = []
    for app in apps:
        n = app.n_containers
        out += map(Container._make, zip(
            range(start_id, start_id + n), repeat(app.app_id, n), range(n),
            repeat(app.cpu, n), repeat(app.mem_gb, n), repeat(app.priority, n),
        ))
        start_id += n
    return out

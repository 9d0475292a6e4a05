"""Trace configuration and the generated workload record.

The full-scale constants mirror Section V.A of the paper:

* 13,056 LLAs totalling ~100,000 containers on 10,000 machines;
* 64 % of LLAs are single-instance; a few LLAs exceed 2,000 containers;
* 9,400 LLAs (~72 %) carry anti-affinity, 2,088 (~16 %) carry priority;
* container demand tops out at 16 CPU / 32 GB on 32 CPU / 64 GB machines;
* several LLAs conflict with at least 5,000 other containers.

``scale`` shrinks every absolute count proportionally while keeping all
the ratios fixed, so percentages reported by the evaluation are
scale-invariant (see DESIGN.md §4, "Scale").
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property

from repro.cluster.constraints import ConstraintSet
from repro.cluster.container import Application, Container, containers_of

# Full-scale constants from Section V.A.
FULL_N_APPS = 13056
FULL_TARGET_CONTAINERS = 100_000
FULL_N_MACHINES = 10_000
FULL_N_ANTI_AFFINITY_APPS = 9400
FULL_N_PRIORITY_APPS = 2088
FULL_BIG_CONFLICT_COVERAGE = 5000

#: CPU demand distribution: values and probabilities.  Power-of-two
#: demands that divide the 32-CPU machine, mean ≈ 2.99 CPU, which puts
#: the bin-packing lower bound for 100k containers at ~9.3k machines —
#: consistent with Aladdin's 9,242 used machines in Fig. 10.
CPU_DEMAND_VALUES = (1, 2, 4, 8, 16)
CPU_DEMAND_PROBS = (0.35, 0.30, 0.25, 0.07, 0.03)


@dataclass(frozen=True)
class TraceConfig:
    """Parameters of the synthetic trace generator.

    Parameters
    ----------
    scale:
        Linear scale factor relative to the paper's trace.  ``1.0`` is
        the full 13,056-app / ~100k-container workload; the default
        reproduction scale ``0.05`` (1/20) keeps pure-Python runtimes
        tractable.
    seed:
        RNG seed; traces are fully deterministic given (scale, seed).
    frac_single / frac_anti_affinity / frac_priority:
        Fractions of LLAs that are single-instance / carry anti-affinity
        / carry an elevated priority class.
    priority_classes:
        Elevated classes and their relative shares among priority apps.
    max_cross_conflicts:
        Upper bound on sampled cross-application conflicts per app.
    frac_within_aa:
        Fraction of constrained multi-instance LLAs whose own containers
        must sit on distinct machines.  The remainder carry only
        cross-application conflicts — crucial structure: such apps can
        be *packed* onto few machines (small blocking footprint for a
        packing scheduler) or *spread* over many (huge footprint for a
        spreading scheduler), which is what separates Aladdin from
        Go-Kube in Fig. 9.
    conflict_geometric_p:
        Geometric parameter for the number of cross-conflict partners
        per constrained app (smaller = denser conflicts).
    heavy_coverage_multiplier / frac_heavy_conflictors:
        A few high-priority LLAs conflict with at least
        ``big_conflict_coverage × multiplier`` containers (Section V.A's
        "cannot be co-located with at least other 5,000 containers").
    noisy_container_frac / victim_container_frac / victim_noise_coverage:
        The interference structure behind anti-affinity *across*
        applications ("two LLAs should not be deployed on the same
        machine to avoid critical performance interference",
        Section II.A): a pool of noisy low-demand LLAs
        (``noisy_container_frac`` of all containers at 1 CPU each) and a
        set of latency-sensitive victim LLAs (``victim_container_frac``
        of containers, biased to high priority and larger demands) each
        conflicting with a ``victim_noise_coverage`` share of the noisy
        pool.  A packing scheduler confines the pool to a few machines;
        a spreading scheduler coats the cluster with it and starves the
        victims — the separation the paper's Fig. 9 measures.
    """

    scale: float = 0.05
    seed: int = 0
    frac_single: float = 0.64
    frac_anti_affinity: float = FULL_N_ANTI_AFFINITY_APPS / FULL_N_APPS
    frac_priority: float = FULL_N_PRIORITY_APPS / FULL_N_APPS
    priority_classes: tuple[tuple[int, float], ...] = ((1, 0.6), (2, 0.3), (3, 0.1))
    max_cross_conflicts: int = 30
    frac_within_aa: float = 0.6
    conflict_geometric_p: float = 0.15
    heavy_coverage_multiplier: float = 3.0
    frac_heavy_conflictors: float = 0.01
    noisy_container_frac: float = 0.45
    victim_container_frac: float = 0.22
    victim_noise_coverage: tuple[float, float] = (0.8, 1.0)
    target_mean_cpu: float = 2.75
    cpu_values: tuple[int, ...] = CPU_DEMAND_VALUES
    cpu_probs: tuple[float, ...] = CPU_DEMAND_PROBS

    def __post_init__(self) -> None:
        if not 0 < self.scale <= 1.0:
            raise ValueError(f"scale must be in (0, 1], got {self.scale}")
        for name in (
            "frac_single",
            "frac_anti_affinity",
            "frac_priority",
            "frac_within_aa",
            "frac_heavy_conflictors",
        ):
            value = getattr(self, name)
            if not 0 <= value <= 1:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if len(self.cpu_values) != len(self.cpu_probs):
            raise ValueError("cpu_values and cpu_probs must align")
        if abs(sum(self.cpu_probs) - 1.0) > 1e-9:
            raise ValueError(f"cpu_probs must sum to 1, got {sum(self.cpu_probs)}")
        share = sum(s for _, s in self.priority_classes)
        if abs(share - 1.0) > 1e-9:
            raise ValueError(f"priority class shares must sum to 1, got {share}")

    @property
    def n_apps(self) -> int:
        return max(1, round(FULL_N_APPS * self.scale))

    @property
    def target_containers(self) -> int:
        return max(1, round(FULL_TARGET_CONTAINERS * self.scale))

    @property
    def n_machines(self) -> int:
        return max(1, round(FULL_N_MACHINES * self.scale))

    @property
    def big_conflict_coverage(self) -> int:
        """Container count a "big conflict" LLA must be incompatible with."""
        return max(1, round(FULL_BIG_CONFLICT_COVERAGE * self.scale))


@contextmanager
def collector_paused():
    """Pause the cyclic collector over a bulk build of acyclic objects,
    which every collection the heap's growth triggers would re-walk.

    The outermost pause settles the build with one full collection on
    exit, so its objects are promoted once; nested pauses, and callers
    that turned the collector off, leave it as it is.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
            gc.collect()


@dataclass
class Trace:
    """A workload: its applications, their constraint index, containers on demand."""

    config: TraceConfig
    applications: list[Application]
    constraints: ConstraintSet = field(init=False, compare=False)

    @collector_paused()
    def __post_init__(self) -> None:
        self.constraints = ConstraintSet.from_applications(self.applications)

    @cached_property
    @collector_paused()
    def containers(self) -> list[Container]:
        return containers_of(self.applications)

    @collector_paused()
    def containers_by_app(self) -> dict[int, list[Container]]:
        """Each application's containers, keyed by app id in trace order."""
        by_app: dict[int, list[Container]] = {}
        start = 0
        for app in self.applications:
            by_app.setdefault(app.app_id, []).extend(containers_of([app], start))
            start += app.n_containers
        return by_app

    @property
    def n_containers(self) -> int:
        return sum(a.n_containers for a in self.applications)

    @property
    def n_apps(self) -> int:
        return len(self.applications)

    def app(self, app_id: int) -> Application:
        application = self.applications[app_id]
        if application.app_id != app_id:  # defensive: ids must stay dense
            raise ValueError(f"application ids are not dense at {app_id}")
        return application

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Trace(apps={self.n_apps}, containers={self.n_containers}, "
                f"scale={self.config.scale})")

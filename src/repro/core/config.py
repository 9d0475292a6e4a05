"""Aladdin configuration."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class AladdinConfig:
    """Tunables of :class:`~repro.core.scheduler.AladdinScheduler`.

    Parameters
    ----------
    priority_weight_base:
        Floor on the class-to-class weight ratio of Equation 5; the
        evaluation sweeps 16/32/64/128 (Fig. 9a–d).  Any compliant value
        yields identical placements — asserted by tests — so the sweep
        is a robustness check, exactly as in the paper.
    enable_il:
        Isomorphism limiting (Section IV.A): one feasibility evaluation
        per *application* instead of per container.
    enable_dl:
        Depth limiting (Section IV.A): stop searching for more paths the
        moment a container has a valid placement.
    enable_migration / enable_preemption:
        The two flow-increasing mechanisms of Section III.B.
    enable_batch_kernel:
        Place each application block in one vectorized sweep
        (:mod:`repro.core.batchkernel`) over the incrementally
        maintained packed-first machine index
        (:mod:`repro.core.machindex`) instead of one machine scan per
        container, evaluating Equations 6–8 on a window of that order
        sized from the block.  Only active together with ``enable_il``
        *and* ``enable_dl`` — the kernel is the vectorized composition
        of the two prunings, so disabling either falls back to the
        per-container loop (and keeps the Fig. 12 IL/DL ablation
        honest).  Placements are provably identical with the kernel on
        or off; the differential harness replays randomized churn
        across the batched×loop axis to enforce that.
    window_apps:
        Scheduling-window width in applications.  Containers inside one
        window are re-ordered by weighted flow (priority); windows model
        the arrival stream, so the CHP/CLP/CLA/CSA orderings of
        Section V.C remain observable.
    migration_candidates:
        How many blocked machines to examine when trying to free one by
        migration (bounds the rescheduling cost of Section IV.D).
    max_migrations_per_container:
        How many deployed containers may be moved to admit one blocked
        container.
    final_repair:
        After the last window, retry every undeployed container with
        exhaustive (unbounded-scan) rescue.  This is the paper's
        rescheduling-to-the-bitter-end behaviour of Fig. 7: the cost is
        "bound to the worst complexity O(V·E²·c)" and only paid for
        containers that would otherwise fail.
    gang_scheduling:
        All-or-nothing application placement: if any container of an
        LLA cannot be deployed, the whole application is rolled back
        and reported undeployed.  Off by default (the paper deploys
        partially); useful for LLAs that need full replica quorums.
    engine:
        Which placement engine :func:`repro.core.engine_for` builds:
        ``"batch"`` (the vectorised incremental scheduler,
        :class:`~repro.core.scheduler.AladdinScheduler`), ``"flow"``
        (the flow-network reference engine,
        :class:`~repro.core.search.FlowPathSearch`).  The field is
        advisory for the concrete classes (constructing
        ``AladdinScheduler`` directly always builds the batch engine) —
        the factory is the switch.
    validate_placements:
        Run the shared Equation 7–9 validator
        (:func:`repro.core.validate.validate_state`) after every
        ``schedule()`` call and raise on any violation.  Off by default
        (it is a full-state audit); the differential and parity
        harnesses switch it on.
    """

    priority_weight_base: float = 16.0
    enable_il: bool = True
    enable_dl: bool = True
    enable_migration: bool = True
    enable_preemption: bool = True
    enable_batch_kernel: bool = True
    window_apps: int = 64
    migration_candidates: int = 16
    max_migrations_per_container: int = 16
    final_repair: bool = True
    gang_scheduling: bool = False
    engine: str = "batch"
    validate_placements: bool = False

    def __post_init__(self) -> None:
        if self.priority_weight_base < 1:
            raise ValueError("priority_weight_base must be >= 1")
        if self.window_apps < 1:
            raise ValueError("window_apps must be >= 1")
        if self.migration_candidates < 0:
            raise ValueError("migration_candidates must be >= 0")
        if self.max_migrations_per_container < 0:
            raise ValueError("max_migrations_per_container must be >= 0")
        if self.engine not in ("batch", "flow"):
            raise ValueError(
                f"unknown engine {self.engine!r} (choose batch or flow)"
            )

    def variant_name(self) -> str:
        """Human-readable policy name as used in Fig. 12 legends."""
        suffix = ""
        if self.enable_il:
            suffix += "+IL"
        if self.enable_dl:
            suffix += "+DL"
        return f"Aladdin({self.priority_weight_base:g}){suffix}"

"""Aladdin configuration."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class AladdinConfig:
    """The paper's knobs, read by both placement engines
    (:class:`~repro.core.scheduler.AladdinScheduler` and
    :class:`~repro.core.search.FlowPathSearch`): the Equation 3–5
    weighting, the Section IV.A prunings of the Fig. 12 ablation, the
    Section III.B rescue mechanisms, and the placement policy.  Which
    engine runs is chosen by the class constructed, not here.

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
        moment a container has a valid placement.  With both prunings
        on, ``AladdinScheduler`` places each application block with the
        batched kernel (:mod:`repro.core.batchkernel`), which is IL ∧ DL
        vectorised over the packed-first machine index.
    enable_migration / enable_preemption:
        The two flow-increasing mechanisms of Section III.B.
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
    """

    priority_weight_base: float = 16.0
    enable_il: bool = True
    enable_dl: bool = True
    enable_migration: bool = True
    enable_preemption: bool = True
    window_apps: int = 64
    migration_candidates: int = 16
    max_migrations_per_container: int = 16
    final_repair: bool = True
    gang_scheduling: bool = False

    def __post_init__(self) -> None:
        if self.priority_weight_base < 1:
            raise ValueError("priority_weight_base must be >= 1")
        if self.window_apps < 1:
            raise ValueError("window_apps must be >= 1")
        if self.migration_candidates < 0:
            raise ValueError("migration_candidates must be >= 0")
        if self.max_migrations_per_container < 0:
            raise ValueError("max_migrations_per_container must be >= 0")

    def variant_name(self) -> str:
        """Human-readable policy name as used in Fig. 12 legends."""
        suffix = ""
        if self.enable_il:
            suffix += "+IL"
        if self.enable_dl:
            suffix += "+DL"
        return f"Aladdin({self.priority_weight_base:g}){suffix}"

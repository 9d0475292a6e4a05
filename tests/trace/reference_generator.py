"""The conflict graph as hash sets: the oracle of the trace generator.

One ``set`` of partners per application, grown one edge at a time and
read by membership.  :mod:`repro.trace.generator` drew the graph this
way before it kept the victim edges as one sorted key array; the tests
hold the generator to it, application for application and RNG state
for RNG state.  The two functions are the generator's, verbatim.
"""

from __future__ import annotations

import numpy as np

from repro.trace.schema import TraceConfig


def _assign_anti_affinity(
    rng: np.random.Generator,
    config: TraceConfig,
    sizes: np.ndarray,
    priorities: np.ndarray,
    cpus: np.ndarray,
) -> tuple[np.ndarray, list[set[int]], np.ndarray]:
    """Assign within-app flags and the cross-application conflict graph.

    Three layers, mirroring the constraint stories of Section II.A:

    1. **Within-app anti-affinity** for ``frac_within_aa`` of the
       constrained multi-instance apps (fault tolerance: replicas on
       distinct machines).
    2. **Interference structure** (anti-affinity across apps): a noisy
       pool of low-demand LLAs and latency-sensitive victim LLAs that
       refuse co-location with most of the pool.  Noisy apps are capped
       at 1 CPU and carry no within-app spreading, so their *packed*
       footprint is tiny while their *spread* footprint covers the
       cluster — the property Fig. 9 measures.
    3. **Background conflicts**: sparse random pairs for texture.

    Returns (within flags, conflict sets, noisy-app mask); the caller
    pins ``cpus[noisy] == 1``.
    """
    n = len(sizes)
    n_constrained = round(config.frac_anti_affinity * n)
    order = np.argsort(sizes)[::-1]
    constrained = set(order[:n_constrained].tolist())

    conflicts: list[set[int]] = [set() for _ in range(n)]
    ids = list(range(n))  # one int object per id, however often drawn
    total_containers = int(sizes.sum())

    # --- layer 2a: the noisy pool -------------------------------------
    # Selected before the within-app flags so the pool can never be
    # starved by an unlucky flag draw: noisy LLAs are packable by
    # construction (no within-app spreading).
    noisy = np.zeros(n, dtype=bool)
    pool_target = config.noisy_container_frac * total_containers
    pool_candidates = [i for i in constrained if sizes[i] >= 2]
    rng.shuffle(pool_candidates)
    covered = 0
    for i in pool_candidates:
        if covered >= pool_target:
            break
        if covered + sizes[i] > 1.1 * pool_target:
            continue  # would overshoot the pool mass; try smaller apps
        noisy[i] = True
        cpus[i] = 1.0
        covered += int(sizes[i])
    noisy_list = np.flatnonzero(noisy)

    within = np.zeros(n, dtype=bool)
    for i in constrained:
        # Within-app anti-affinity is only assignable when the app can
        # actually spread: one replica per machine at most, or the trace
        # would be structurally unschedulable on its nominal cluster.
        if (
            1 < sizes[i] <= config.n_machines
            and not noisy[i]
            and rng.random() < config.frac_within_aa
        ):
            within[i] = True

    # --- layer 2b: the victims ----------------------------------------
    # Latency-sensitive LLAs have larger resource requirements
    # (Section V.A); the *heavy conflictors* among them additionally
    # carry elevated priority (handled in _add_big_conflictors).  The
    # bulk of the victim mass keeps the natural priority mix: most
    # interference-sensitive services are ordinary-priority workloads.
    victim_target = config.victim_container_frac * total_containers
    victim_candidates = sorted(
        (i for i in constrained if not noisy[i]),
        key=lambda i: (-cpus[i], -sizes[i]),
    )
    victim = np.zeros(n, dtype=bool)
    lo_cov, hi_cov = config.victim_noise_coverage
    covered = 0
    for i in victim_candidates:
        if covered >= victim_target or noisy_list.size == 0:
            break
        if covered + sizes[i] > 1.1 * victim_target:
            continue  # would overshoot the victim mass; try smaller apps
        share = rng.uniform(lo_cov, hi_cov)
        k = max(1, round(share * noisy_list.size))
        for b in rng.choice(noisy_list, size=k, replace=False).tolist():
            conflicts[i].add(ids[b])
            conflicts[b].add(ids[i])
        if cpus[i] < 8.0:
            cpus[i] = 8.0
        # Victims are pinned by their interference constraints, not by
        # replica spreading: co-locating two replicas is acceptable,
        # co-locating with a noisy neighbour is not.  Keeping them
        # packable is also what keeps the workload schedulable at all —
        # a victim population that must *both* spread and avoid the
        # noise would exhaust any scheduler's feasible set.
        within[i] = False
        victim[i] = True
        covered += int(sizes[i])

    # --- layer 3: background texture ----------------------------------
    constrained_list = np.array(sorted(constrained))
    if constrained_list.size >= 2:
        k_draws = np.minimum(
            rng.geometric(0.6, constrained_list.size), 3
        )
        for idx, a in enumerate(map(ids.__getitem__, constrained_list)):
            has_any = bool(conflicts[a]) or within[a]
            need = int(k_draws[idx]) if has_any else max(1, int(k_draws[idx]))
            if has_any and rng.random() < 0.7:
                continue  # most texture mass on unconstrained-so-far apps
            for _ in range(4 * need):
                if need <= 0:
                    break
                b = ids[constrained_list[rng.integers(constrained_list.size)]]
                if b != a and b not in conflicts[a]:
                    conflicts[a].add(b)
                    conflicts[b].add(a)
                    need -= 1

    _add_big_conflictors(
        rng, config, sizes, priorities, conflicts, constrained, within, ids
    )
    # Freeze both the pool and the victims against demand recalibration:
    # their demands are structural to the interference mechanism.
    return within, conflicts, noisy | victim


def _add_big_conflictors(
    rng: np.random.Generator,
    config: TraceConfig,
    sizes: np.ndarray,
    priorities: np.ndarray,
    conflicts: list[set[int]],
    constrained: set[int],
    within: np.ndarray,
    ids: list[int],
) -> None:
    """Make a few high-priority LLAs conflict with >= the coverage target.

    Section V.A: "several LLAs cannot be co-located with at least other
    5,000 containers due to anti-affinity constraints, and these
    applications usually have higher priorities and larger resource
    requirements".  Partners are drawn from the *packable* (non-within)
    constrained apps first, so the workload stays schedulable for a
    scheduler that confines those partners to few machines.
    """
    coverage_target = config.big_conflict_coverage * config.heavy_coverage_multiplier
    n_heavy = max(3, round(config.frac_heavy_conflictors * config.n_apps))
    elevated = np.flatnonzero(priorities > 0)
    if elevated.size == 0:
        elevated = np.argsort(sizes)[::-1][:n_heavy]
    heavy = elevated[np.argsort(sizes[elevated])[::-1]][:n_heavy]
    heavy_set = set(heavy.tolist())
    packable = np.array(
        sorted(i for i in constrained if not within[i] and i not in heavy_set)
    )
    spread = np.array(
        sorted(i for i in constrained if within[i] and i not in heavy_set)
    )
    for a in map(ids.__getitem__, heavy):
        covered = int(sizes[list(conflicts[a])].sum()) if conflicts[a] else 0
        for pool in (packable, spread):
            if covered >= coverage_target or pool.size == 0:
                break
            for b in map(ids.__getitem__, rng.permutation(pool)):
                if covered >= coverage_target:
                    break
                if b in conflicts[a]:
                    continue
                conflicts[a].add(b)
                conflicts[b].add(a)
                covered += int(sizes[b])

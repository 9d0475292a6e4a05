"""Synthetic Alibaba-like trace generation.

The sampler is calibrated to the published statistics of the paper's
trace (Fig. 8 and Section V.A/V.D):

1. **Instance counts** — a point mass at 1 (64 % of LLAs), a light
   geometric body, a log-uniform mid tail and a handful of >2,000
   container giants, then a deterministic tail-rescaling pass that pins
   the total container count to the target (the paper's "about
   100,000").
2. **Demands** — per-application CPU from the power-of-two distribution
   in :mod:`repro.trace.schema`; memory is 2 GB per CPU (max demand
   16 CPU / 32 GB as in the paper).
3. **Priorities** — ~16 % of LLAs elevated, biased toward larger
   applications with larger demands ("LLAs with higher priorities always
   have more instances and larger resource requirements", Section V.D).
4. **Anti-affinity** — ~72 % of LLAs: every multi-instance constrained
   app gets within-app anti-affinity; cross-application conflicts are
   sampled among constrained apps, and a few high-priority giants are
   made incompatible with ≥5,000 containers' worth of other LLAs.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from repro.cluster.container import Application
from repro.trace.schema import Trace, TraceConfig, collector_paused


@collector_paused()
def generate_trace(config: TraceConfig | None = None, **overrides) -> Trace:
    """Generate a deterministic synthetic trace.

    ``overrides`` are convenience keyword overrides for
    :class:`~repro.trace.schema.TraceConfig` fields, e.g.
    ``generate_trace(scale=0.1, seed=7)``.
    """
    if config is None:
        config = TraceConfig(**overrides)
    elif overrides:
        raise TypeError("pass either a TraceConfig or keyword overrides, not both")
    return Trace(config=config, applications=generate_applications(config))


def generate_applications(config: TraceConfig) -> list[Application]:
    """The applications :func:`generate_trace` wraps, without the
    constraint index and container list a :class:`Trace` derives."""
    return _applications(config, [f"lla-{i:05d}" for i in range(config.n_apps)])


def _applications(config: TraceConfig, names: list[str]) -> list[Application]:
    """:func:`generate_applications`, application ``i`` named ``names[i]``."""
    rng = np.random.default_rng(config.seed)

    sizes = _sample_sizes(rng, config)
    cpus = rng.choice(config.cpu_values, size=config.n_apps, p=config.cpu_probs).astype(
        np.float64
    )
    priorities = _assign_priorities(rng, config, sizes, cpus)
    within, conflicts, frozen = _assign_anti_affinity(
        rng, config, sizes, priorities, cpus
    )
    cpus = _calibrate_demand(cpus, sizes, config, frozen=frozen)

    return [
        Application(
            app_id=i,
            n_containers=int(sizes[i]),
            cpu=float(cpus[i]),
            mem_gb=float(cpus[i]) * 2.0,
            priority=int(priorities[i]),
            anti_affinity_within=bool(within[i]),
            conflicts=conflicts[i],
            name=names[i],
        )
        for i in range(config.n_apps)
    ]


# ----------------------------------------------------------------------
# instance counts
# ----------------------------------------------------------------------
def _sample_sizes(rng: np.random.Generator, config: TraceConfig) -> np.ndarray:
    """Sample per-application container counts, pinned to the target total."""
    n = config.n_apps
    sizes = np.ones(n, dtype=np.int64)
    bucket = rng.random(n)

    multi = bucket >= config.frac_single
    # Split the multi-instance mass into body / mid tail / giants.
    # Shares are relative to the whole population.
    body = multi & (bucket < config.frac_single + 0.26)
    mid = multi & ~body & (bucket < config.frac_single + 0.26 + 0.095)
    giant = multi & ~body & ~mid

    # Body: geometric on [2, 10].
    sizes[body] = 2 + np.minimum(rng.geometric(0.35, body.sum()) - 1, 8)
    # Mid tail: log-uniform on [11, 600].
    if mid.any():
        lo, hi = np.log(11.0), np.log(600.0)
        sizes[mid] = np.exp(rng.uniform(lo, hi, mid.sum())).astype(np.int64)
    # Giants: the paper's "a few LLAs are composed of more than 2,000
    # containers".  Keep their count tiny and independent of the mid mass.
    n_giants = max(1, round(n * 0.0004))
    giant_ids = np.flatnonzero(giant)
    if giant_ids.size:
        chosen = giant_ids[:n_giants]
        rest = giant_ids[n_giants:]
        # Giant size scales with the workload so small-scale traces keep
        # a proportionally dominant largest app.
        lo_sz = max(20, round(2001 * max(config.scale, 0.01)))
        hi_sz = max(lo_sz + 1, round(2601 * max(config.scale, 0.01)))
        sizes[chosen] = rng.integers(lo_sz, hi_sz, size=chosen.size)
        if rest.size:
            lo, hi = np.log(11.0), np.log(600.0)
            sizes[rest] = np.exp(rng.uniform(lo, hi, rest.size)).astype(np.int64)
        protected = chosen
    else:
        protected = np.array([], dtype=np.int64)

    return _pin_total(sizes, config.target_containers, protected)


def _pin_total(
    sizes: np.ndarray, target: int, protected: np.ndarray | None = None
) -> np.ndarray:
    """Rescale the non-singleton tail so the total hits ``target`` exactly.

    Singleton applications and ``protected`` apps (the >2,000-container
    giants, whose absolute size is itself a published trace feature) are
    never touched, so the single-instance fraction and the giant tail of
    Fig. 8(a) survive the rescale.  Remaining multi-instance sizes are
    scaled multiplicatively (floored at 2), then the residual is
    distributed one container at a time over the largest of them.
    """
    sizes = sizes.copy()
    fixed = sizes == 1
    if protected is not None and protected.size:
        fixed[protected] = True
    n_fixed_total = int(sizes[fixed].sum())
    multi_idx = np.flatnonzero(~fixed)
    if multi_idx.size == 0:
        return sizes
    multi_total = int(sizes[multi_idx].sum())
    want_multi = max(2 * multi_idx.size, target - n_fixed_total)
    factor = want_multi / multi_total
    sizes[multi_idx] = np.maximum(2, np.round(sizes[multi_idx] * factor)).astype(
        np.int64
    )
    # Distribute the rounding residual over the largest apps.
    residual = target - int(sizes.sum())
    if residual != 0:
        order = multi_idx[np.argsort(sizes[multi_idx])[::-1]]
        step = 1 if residual > 0 else -1
        i = 0
        while residual != 0 and multi_idx.size:
            j = order[i % order.size]
            if sizes[j] + step >= 2:
                sizes[j] += step
                residual -= step
            i += 1
            if i > 10 * order.size + abs(residual):  # pragma: no cover
                break
    return sizes


def _calibrate_demand(
    cpus: np.ndarray,
    sizes: np.ndarray,
    config: TraceConfig,
    frozen: np.ndarray | None = None,
) -> np.ndarray:
    """Pin the container-weighted mean CPU demand near its target.

    Container mass concentrates in a handful of wide applications, so an
    unlucky CPU draw for one giant can swing total cluster demand by
    whole percentage points of the cluster.  The paper's trace packs
    into 9,242 of 10,000 machines (Fig. 10); ``config.target_mean_cpu``
    pins total demand to a comparable share of cluster capacity by
    halving/doubling the demands of the widest non-frozen applications
    until the container-weighted mean is within 2 % of the target.
    """
    cpus = cpus.astype(np.float64).copy()
    target = config.target_mean_cpu
    total = int(sizes.sum())
    lo_val, hi_val = min(config.cpu_values), max(config.cpu_values)
    # Walk from the widest app (coarsest lever) to the narrowest
    # (finest); within one pass each app is adjusted at most once so the
    # walk cannot oscillate and the step size shrinks monotonically.
    # Extra passes handle workloads that need more than one halving of
    # the same app (e.g. a heavy frozen mass pushing the mean far off).
    order = np.argsort(sizes)[::-1]
    for pass_no in range(10):
        # Early passes only touch multi-instance apps (the coarse
        # levers); if those are exhausted — e.g. singleton-heavy tiny
        # workloads whose non-frozen container mass is mostly in
        # single-instance apps — later passes adjust singletons too.
        allow_singletons = pass_no >= 5
        converged = True
        mean = float(np.dot(cpus, sizes)) / total
        for i in order:
            error = abs(mean - target)
            if error <= 0.02 * target:
                break
            if sizes[i] <= 1 and not allow_singletons:
                continue
            if frozen is not None and frozen[i]:
                continue
            if mean > target and cpus[i] > lo_val:
                new_val = cpus[i] / 2
            elif mean < target and cpus[i] < hi_val:
                new_val = cpus[i] * 2
            else:
                continue
            # A step is only taken when it strictly reduces the error;
            # otherwise a coarse lever (one wide app covering more mass
            # than the gap) would overshoot and oscillate forever.
            new_mean = mean + sizes[i] * (new_val - cpus[i]) / total
            if abs(new_mean - target) < error:
                cpus[i] = new_val
                converged = False
                mean = float(np.dot(cpus, sizes)) / total
        if abs(mean - target) <= 0.02 * target:
            break
        # A no-op pass only ends the walk once the singleton levers have
        # been unlocked too; before that it just means the coarse levers
        # are exhausted.
        if converged and allow_singletons:
            break

    # Safety valve: whatever the calibration managed, the trace must be
    # schedulable in principle on its nominal cluster.  Extreme corner
    # configurations (tiny scales with a heavy frozen mass) can leave
    # total demand above capacity when every error-reducing lever is
    # exhausted; here schedulability outranks mean accuracy, so the
    # widest apps are halved unconditionally — frozen ones last.
    capacity_mean = 32.0 * config.n_machines / total * 0.95
    for unlock_frozen in (False, True):
        while float(np.dot(cpus, sizes)) / total > capacity_mean:
            movable = [
                i
                for i in order
                if cpus[i] > lo_val
                and (unlock_frozen or frozen is None or not frozen[i])
            ]
            if not movable:
                break
            cpus[movable[0]] /= 2
        if float(np.dot(cpus, sizes)) / total <= capacity_mean:
            break
    return cpus


# ----------------------------------------------------------------------
# priorities
# ----------------------------------------------------------------------
def _assign_priorities(
    rng: np.random.Generator,
    config: TraceConfig,
    sizes: np.ndarray,
    cpus: np.ndarray,
) -> np.ndarray:
    """Pick the ~16 % elevated-priority apps, biased large-and-hungry."""
    n = len(sizes)
    priorities = np.zeros(n, dtype=np.int64)
    n_elevated = round(config.frac_priority * n)
    if n_elevated == 0:
        return priorities
    # Noisy score favouring big apps with big demands (Section V.D).
    score = np.log1p(sizes) + cpus / 8.0 + rng.gumbel(0, 1.0, n)
    elevated = np.argsort(score)[::-1][:n_elevated]
    classes = np.array([c for c, _ in config.priority_classes])
    shares = np.array([s for _, s in config.priority_classes])
    priorities[elevated] = rng.choice(classes, size=n_elevated, p=shares)
    return priorities


# ----------------------------------------------------------------------
# anti-affinity
# ----------------------------------------------------------------------
def _assign_anti_affinity(
    rng: np.random.Generator,
    config: TraceConfig,
    sizes: np.ndarray,
    priorities: np.ndarray,
    cpus: np.ndarray,
) -> tuple[np.ndarray, list[tuple[int, ...]], np.ndarray]:
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

    The graph is one sorted array of keys ``a * n + b``, both directions
    of every edge (32-bit while ``n² < 2³¹``): a set per application
    would leave its freed tables in the heap.  Every layer skips
    existing partners, so no key repeats.

    Returns (within flags, sorted conflict tuples, noisy-app mask); the
    caller pins ``cpus[noisy] == 1``.
    """
    n = len(sizes)
    n_constrained = round(config.frac_anti_affinity * n)
    order = np.argsort(sizes)[::-1]
    constrained = set(order[:n_constrained].tolist())
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
    key_type = np.int32 if n * n < 2**31 else np.int64
    victims, degrees, cols = [], [], []
    for i in victim_candidates:
        if covered >= victim_target or noisy_list.size == 0:
            break
        if covered + sizes[i] > 1.1 * victim_target:
            continue  # would overshoot the victim mass; try smaller apps
        share = rng.uniform(lo_cov, hi_cov)
        k = max(1, round(share * noisy_list.size))
        # noisy partners are distinct and never victims: fresh edges
        cols.append(rng.choice(noisy_list, size=k, replace=False).astype(key_type))
        victims.append(i)
        degrees.append(k)
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
    rows = np.repeat(np.array(victims, key_type), degrees)
    cols = np.concatenate([rows[:0], *cols])
    keys = _with_edges(n, rows[:0], rows, cols)
    del rows, cols

    # --- layer 3: background texture ----------------------------------
    constrained_list = sorted(constrained)
    if len(constrained_list) >= 2:
        k_draws = np.minimum(rng.geometric(0.6, len(constrained_list)), 3).tolist()
        start = _row_starts(keys, n)
        linked = [lo < hi for lo, hi in zip(start, start[1:])]
        victim_keys = memoryview(keys)
        texture: set[int] = set()  # keys, both directions

        def partnered(a: int, b: int) -> bool:
            key = a * n + b
            j = bisect_left(victim_keys, key, start[a], start[a + 1])
            return (j < start[a + 1] and victim_keys[j] == key) or key in texture

        for a, k in zip(constrained_list, k_draws):
            has_any = linked[a] or within[a]
            need = k if has_any else max(1, k)
            if has_any and rng.random() < 0.7:
                continue  # most texture mass on unconstrained-so-far apps
            for _ in range(4 * need):
                if need <= 0:
                    break
                b = constrained_list[rng.integers(len(constrained_list))]
                if b != a and not partnered(a, b):
                    texture.update((a * n + b, b * n + a))
                    linked[a] = linked[b] = True
                    need -= 1
        victim_keys.release()
        keys = np.concatenate((keys, np.fromiter(texture, key_type)))
        keys.sort()
        del texture

    rows, cols = _add_big_conflictors(
        rng, config, sizes, priorities, keys, constrained, within
    )
    keys = _with_edges(n, keys, rows, cols)
    # one row at a time: the whole array's .tolist() is an int an entry
    start = _row_starts(keys, n)
    np.remainder(keys, n, out=keys)
    ids = list(range(n))  # one int object per id, however often drawn
    conflicts = [
        tuple(map(ids.__getitem__, keys[lo:hi].tolist()))
        for lo, hi in zip(start, start[1:])
    ]
    # Freeze both the pool and the victims against demand recalibration:
    # their demands are structural to the interference mechanism.
    return within, conflicts, noisy | victim


def _with_edges(n: int, keys: np.ndarray, rows, cols) -> np.ndarray:
    """``keys`` plus both directions of the edges ``rows[j] -- cols[j]``
    (arrays of ``keys``' dtype), in one ascending array."""
    keys = np.concatenate((keys, rows * n + cols, cols * n + rows))
    keys.sort()
    return keys


def _row_starts(keys: np.ndarray, n: int) -> list[int]:
    """Where each application's row of the sorted ``keys`` starts, and
    the end of the last row."""
    return np.searchsorted(keys, np.arange(0, n * n + 1, n, dtype=keys.dtype)).tolist()


def _add_big_conflictors(
    rng: np.random.Generator,
    config: TraceConfig,
    sizes: np.ndarray,
    priorities: np.ndarray,
    keys: np.ndarray,
    constrained: set[int],
    within: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Make a few high-priority LLAs conflict with >= the coverage target.

    Section V.A: "several LLAs cannot be co-located with at least other
    5,000 containers due to anti-affinity constraints, and these
    applications usually have higher priorities and larger resource
    requirements".  Partners are drawn from the *packable* (non-within)
    constrained apps first, so the workload stays schedulable for a
    scheduler that confines those partners to few machines.

    Returns the new edges as (heavy app, partner) columns; the pools hold
    no heavy app, so no heavy app's row of ``keys`` changes meanwhile.
    """
    n = len(sizes)
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
    rows, cols = [], []
    for a in heavy.tolist():
        lo, hi = np.searchsorted(keys, np.array([a * n, a * n + n], dtype=keys.dtype))
        partners = keys[lo:hi] - a * n
        covered = int(sizes[partners].sum())
        for pool in (packable, spread):
            if covered >= coverage_target or pool.size == 0:
                break
            fresh = rng.permutation(pool)
            fresh = fresh[~np.isin(fresh, partners)]
            # partners are taken in draw order while coverage falls short
            short = np.cumsum(sizes[fresh]) - sizes[fresh] < coverage_target - covered
            taken = fresh[short].astype(keys.dtype)
            covered += int(sizes[taken].sum())
            rows.append(np.full(taken.size, a, keys.dtype))
            cols.append(taken)
    return np.concatenate([keys[:0], *rows]), np.concatenate([keys[:0], *cols])

"""Scenario families over the Azure Functions trace.

:mod:`repro.trace.azure` yields per-function invocation curves; this
module maps them onto the reproduction's workload model: every
(function, tick-bin) with surviving load becomes one short-lived
:class:`~repro.cluster.container.Application` whose containers arrive
together and depart a few ticks later, mixed into an Alibaba-style LLA
base built by :mod:`repro.trace.generator` (which carries all the
anti-affinity/priority structure).  The result is an ordinary
:class:`~repro.trace.schema.Trace` — it saves/loads through
:mod:`repro.trace.loader`, schedules through every engine, and drives
:mod:`repro.sim.online` and :mod:`repro.serve` unchanged.

**Arrival times and lifetimes are encoded in application names**
(``fn-0042-t017-l002``, ``lla-00007-t003-l096``): the online
simulator's checkpoint/restore path and the serving replay client both
*recompute* ``arrival_schedule(trace, config)`` from the seed instead
of persisting it, so a scenario's schedule must be derivable from the
trace alone.  Names survive the CSV round-trip of
:mod:`repro.trace.loader`, which makes a saved scenario trace fully
self-describing — including ones built from the real dataset, where no
seed could regenerate the arrival plan.

Four named families (``SCENARIOS``):

``diurnal``
    The dataset's day replayed as-is: smooth daytime peak over a
    nighttime trough.  Load follows the aggregate invocation curve.
``burst``
    Diurnal plus a synchronized spike — invocation counts in a short
    tick window are multiplied several-fold, modelling a flash event
    on top of steady traffic.
``churn-storm``
    Every function container lives exactly one tick: per-tick
    arrivals*and* departures both equal the full invocation volume —
    orders of magnitude more churn than the LLA-only trace, the
    stress test the feasibility cache and rescue kernel were built
    for.
``mixed-lla``
    A heavier constrained-LLA base arriving throughout the day with
    shorter lifetimes, so long-lived anti-affinity structure churns
    *concurrently* with the serverless load.
``autoscale``
    The diurnal day tiled over multiple days (``days=2``) with a thin
    LLA base, so the trough between peaks is deep and repeated — the
    regime where scale-to-zero power management and warm pools
    (:mod:`repro.cluster.power`, :mod:`repro.cluster.warmpool`) have
    something to win.  Repeated days also mean the same functions
    re-arrive, which is what gives a warm pool its hits.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from repro.cluster.container import Application
from repro.trace.azure import MINUTES_PER_DAY, AzureDataset, azure_dataset
from repro.trace.generator import _applications
from repro.trace.schema import Trace, TraceConfig, collector_paused

#: machine CPU capacity (32 CPU / 64 GB machines, Section V.A)
_MACHINE_CPU = 32.0

#: scenario-specific :class:`ScenarioConfig` overrides, applied by
#: :func:`scenario_config`; keys are the CLI-facing family names.
SCENARIOS: dict[str, dict] = {
    "diurnal": {},
    "burst": {"burst_factor": 5.0},
    "churn-storm": {"force_lifetime": 1, "lla_share": 0.15},
    "mixed-lla": {
        "lla_share": 0.5,
        "lla_arrival_span": 1.0,
        "lla_lifetime": (12, 96),
    },
    # peak_load leaves room for cold-start lifetime inflation: with the
    # lifecycle on, pool misses extend short function residencies by
    # cold_start_ticks, so concurrency overshoots the calibration.
    "autoscale": {"days": 2, "lla_share": 0.1, "peak_load": 0.35},
}

_NAME_RE = re.compile(r"-t(\d+)-l(\d+)$")


@dataclass(frozen=True)
class ScenarioConfig:
    """Parameters of one scenario build.

    Parameters
    ----------
    name:
        Scenario family, a key of :data:`SCENARIOS`.
    scale:
        Cluster scale, same meaning as
        :class:`~repro.trace.schema.TraceConfig.scale` — sets the
        nominal machine count the load is calibrated against.
    seed:
        Seed for the LLA base, the fallback dataset and every sampled
        arrival/lifetime.  Builds are bit-deterministic in
        (name, scale, seed, dataset).
    ticks:
        Tick bins the 1,440-minute day is folded into (48 → 30-minute
        ticks).
    peak_load:
        Target peak concurrent CPU demand (functions + resident LLAs)
        as a fraction of nominal cluster capacity; the invocation →
        container divisor is calibrated so the busiest tick lands
        here.
    lla_share:
        Size of the Alibaba-style LLA base, as a multiplier on
        ``scale`` fed to :func:`~repro.trace.generator.generate_applications`.
    lla_lifetime / lla_arrival_span:
        LLA lifetimes (log-uniform ticks) and the fraction of the day
        their arrivals are spread over (0.25 → all LLAs arrive in the
        first quarter, then stay resident).
    burst_ticks / burst_factor:
        Ticks whose invocation counts are multiplied by
        ``burst_factor``; empty means no burst.  ``scenario_config``
        defaults the ``burst`` family to a 2-tick window at midday.
    force_lifetime:
        When set, every function app lives exactly this many ticks
        (``churn-storm`` pins it to 1).
    days:
        Number of times the dataset's day is tiled across the tick
        horizon (``ticks`` must divide evenly).  ``days=1`` reproduces
        the single-day families bit-for-bit; higher values repeat the
        diurnal curve so troughs recur — the ``autoscale`` family's
        default.
    n_functions:
        Fallback-dataset size when no real dataset is supplied.
    max_block:
        Per-application container cap — one function's bin is split
        no wider than this, bounding a single submission batch.
    """

    name: str = "diurnal"
    scale: float = 0.05
    seed: int = 0
    ticks: int = 48
    days: int = 1
    peak_load: float = 0.55
    lla_share: float = 0.25
    lla_lifetime: tuple[int, int] = (48, 192)
    lla_arrival_span: float = 0.25
    burst_ticks: tuple[int, ...] = ()
    burst_factor: float = 1.0
    force_lifetime: int | None = None
    n_functions: int = 200
    max_block: int = 512

    def __post_init__(self) -> None:
        if self.name not in SCENARIOS:
            raise ValueError(
                f"unknown scenario {self.name!r}; "
                f"choose from {sorted(SCENARIOS)}"
            )
        if self.ticks < 2:
            raise ValueError("ticks must be >= 2")
        if not 0 < self.peak_load <= 1.0:
            raise ValueError(f"peak_load must be in (0, 1], got {self.peak_load}")
        lo, hi = self.lla_lifetime
        if not 1 <= lo <= hi:
            raise ValueError(f"bad lla_lifetime range {self.lla_lifetime}")
        if not 0 < self.lla_arrival_span <= 1.0:
            raise ValueError("lla_arrival_span must be in (0, 1]")
        if self.force_lifetime is not None and self.force_lifetime < 1:
            raise ValueError("force_lifetime must be >= 1")
        if any(not 0 <= t < self.ticks for t in self.burst_ticks):
            raise ValueError(f"burst_ticks out of range: {self.burst_ticks}")
        if self.days < 1:
            raise ValueError("days must be >= 1")
        if self.ticks % self.days:
            raise ValueError(
                f"ticks ({self.ticks}) must divide evenly into "
                f"days ({self.days})"
            )


def scenario_config(name: str, **overrides) -> ScenarioConfig:
    """Build a :class:`ScenarioConfig` with the family's defaults applied.

    Explicit ``overrides`` win over the family defaults; the ``burst``
    family additionally defaults ``burst_ticks`` to a two-tick window
    at midday of the configured day length.
    """
    if name not in SCENARIOS:
        raise ValueError(
            f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}"
        )
    kwargs: dict = dict(SCENARIOS[name])
    kwargs.update(overrides)
    if name == "burst" and "burst_ticks" not in kwargs:
        ticks = int(kwargs.get("ticks", ScenarioConfig.ticks))
        kwargs["burst_ticks"] = (ticks // 2, min(ticks - 1, ticks // 2 + 1))
    return ScenarioConfig(name=name, **kwargs)


# ----------------------------------------------------------------------
# building a scenario trace
# ----------------------------------------------------------------------
def _encode(name: str, tick: int, life: int) -> str:
    return f"{name}-t{tick:03d}-l{life:03d}"


def decode_arrival(name: str) -> tuple[int, int]:
    """(arrival tick, lifetime) from a scenario application name."""
    m = _NAME_RE.search(name)
    if m is None:
        raise ValueError(
            f"application name {name!r} carries no -tNNN-lNNN scenario "
            "suffix; was this trace built by build_scenario()?"
        )
    return int(m.group(1)), int(m.group(2))


def function_pool_key(name: str) -> str | None:
    """Warm-pool identity stem of a scenario application name.

    Function apps (``fn-0042-t017-l002``) re-arrive under different
    ``-tNNN-lNNN`` suffixes at every bin; the stem (``fn-0042``) is
    the stable identity a warm container can be claimed under.  LLA
    apps and non-scenario names return ``None`` — they are never
    pool-eligible.
    """
    if not name.startswith("fn-"):
        return None
    m = _NAME_RE.search(name)
    if m is None:
        return None
    return name[: m.start()]


def _function_cpu(memory_mb: float) -> float:
    """Container CPU demand from the function's memory footprint."""
    if memory_mb < 256.0:
        return 1.0
    if memory_mb < 768.0:
        return 2.0
    return 4.0


def _function_lifetime(duration_ms: float, config: ScenarioConfig) -> int:
    """Ticks a function's containers stay resident."""
    if config.force_lifetime is not None:
        return config.force_lifetime
    return 1 + min(3, int(duration_ms) // 60_000)


def _bin_day(invocations: np.ndarray, ticks: int) -> np.ndarray:
    """Fold a 1,440-minute count vector into ``ticks`` bins."""
    edges = (np.arange(ticks) * MINUTES_PER_DAY) // ticks
    return np.add.reduceat(invocations, edges).astype(np.float64)


def _lla_base(config: ScenarioConfig) -> list[Application]:
    """The constrained LLA base, arrival/lifetime encoded in names."""
    base_scale = max(0.002, config.scale * config.lla_share)
    base = TraceConfig(scale=base_scale, seed=config.seed)
    rng = np.random.default_rng((config.seed << 1) ^ 0x11A)
    span = max(1, round(config.lla_arrival_span * config.ticks))
    ticks = rng.integers(0, span, base.n_apps).tolist()
    lo, hi = config.lla_lifetime
    lives = np.exp(
        rng.uniform(np.log(lo), np.log(hi + 1), base.n_apps)
    ).astype(np.int64).tolist()
    names = [
        _encode(f"lla-{i:05d}", tick, life)
        for i, (tick, life) in enumerate(zip(ticks, lives))
    ]
    return _applications(base, names)


@collector_paused()
def build_scenario(
    config: ScenarioConfig | str,
    dataset: AzureDataset | None = None,
    **overrides,
) -> Trace:
    """Materialise one scenario as an ordinary :class:`Trace`.

    ``config`` is a :class:`ScenarioConfig` or a family name (with
    keyword ``overrides``); ``dataset`` defaults to the seeded
    synthetic fallback, so offline builds need nothing on disk.  The
    invocation → container divisor is calibrated so peak concurrent
    demand (functions stacked over their lifetimes, plus the resident
    LLA base) is ~``peak_load`` of the nominal cluster.
    """
    if isinstance(config, str):
        config = scenario_config(config, **overrides)
    elif overrides:
        raise TypeError("pass either a ScenarioConfig or keyword overrides, not both")
    if dataset is None:
        dataset = azure_dataset(seed=config.seed, n_functions=config.n_functions)
    if not dataset.functions:
        raise ValueError("cannot build a scenario from an empty dataset")

    trace_config = TraceConfig(scale=config.scale, seed=config.seed)
    apps = _lla_base(config)
    lla_cpu = sum(a.n_containers * a.cpu for a in apps)

    # Per-function binned counts, scenario transforms applied.
    functions = dataset.top_functions(len(dataset.functions))
    binned: list[np.ndarray] = []
    lives: list[int] = []
    cpus: list[float] = []
    for fn in functions:
        # Tile the dataset's single day over `days` repeats; days=1 is
        # bit-identical to binning the whole horizon directly.
        counts = np.tile(
            _bin_day(fn.invocations, config.ticks // config.days), config.days
        )
        if config.burst_ticks:
            for t in config.burst_ticks:
                counts[t] *= config.burst_factor
        binned.append(counts)
        lives.append(_function_lifetime(fn.duration_ms, config))
        cpus.append(_function_cpu(fn.memory_mb))

    # Calibrate one global divisor: raw concurrent CPU (each function's
    # arrivals stacked over its lifetime) scaled so the busiest tick
    # meets the budget left over by the resident LLA base.
    raw = np.zeros(config.ticks)
    for counts, life, cpu in zip(binned, lives, cpus):
        raw += cpu * np.convolve(counts, np.ones(life))[: config.ticks]
    capacity = _MACHINE_CPU * trace_config.n_machines
    budget = max(config.peak_load * capacity - lla_cpu, 0.05 * capacity)
    divisor = max(1.0, float(raw.max()) / budget)

    n_lla = len(apps)
    app_id = n_lla
    for fi, (counts, life, cpu) in enumerate(zip(binned, lives, cpus)):
        scaled = np.round(counts / divisor).astype(np.int64)
        for t in np.flatnonzero(scaled):
            n = min(int(scaled[t]), config.max_block)
            apps.append(
                Application(
                    app_id=app_id,
                    n_containers=n,
                    cpu=cpu,
                    mem_gb=cpu * 2.0,
                    name=_encode(f"fn-{fi:04d}", int(t), life),
                )
            )
            app_id += 1

    if app_id == n_lla:  # pragma: no cover - tiny budgets
        # Degenerate calibration (every function rounded away): keep the
        # busiest function's peak bin so the scenario is never function-free.
        counts, life, cpu = binned[0], lives[0], cpus[0]
        t = int(np.argmax(counts))
        apps.append(
            Application(
                app_id=app_id, n_containers=1, cpu=cpu, mem_gb=cpu * 2.0,
                name=_encode("fn-0000", t, life),
            )
        )
    return Trace(config=trace_config, applications=apps)


# ----------------------------------------------------------------------
# the arrival schedule (recomputed from names)
# ----------------------------------------------------------------------
def scenario_schedule(trace: Trace, config) -> "object":
    """Decode a scenario trace's arrival plan into an ``ArrivalSchedule``.

    The plan lives in the application names (see module docstring), so
    this is a pure function of the trace — restore-from-checkpoint and
    the serving replay client recompute the identical schedule with no
    persisted state.  ``config`` is the
    :class:`~repro.sim.online.OnlineConfig`; its ``ticks``,
    ``lifetime_ticks`` and ``arrival_order`` are ignored here (the
    scenario pins all three), while ``seed`` stays what names the run.
    """
    from repro.sim.online import ArrivalSchedule  # circular-import guard

    plan = [(decode_arrival(app.name), app) for app in trace.applications]
    plan.sort(key=lambda item: (item[0][0], item[1].app_id))
    apps = [app for _, app in plan]
    arrival_tick = np.array([t for (t, _), _ in plan], dtype=np.int64)
    life_of = {app.app_id: life for (_, life), app in plan}
    by_app = trace.containers_by_app()
    horizon = int(max(t + life for (t, life), _ in plan)) + 1
    return ArrivalSchedule(apps, arrival_tick, life_of, by_app, horizon)

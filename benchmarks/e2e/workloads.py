"""Input generators: everything a workload feeds the program is built
here, from one constant and one seed.

:data:`TRACE_SEED` (a constant of the ruler) draws *what* arrives: the
Azure scenario trace, or the rescue stream's applications.  ``seed``
(the ``--seed`` of a run) draws the *order* applications arrive in
within each tick.  The trace generators are heavy-tailed — a handful of
large LLAs decide how hard a draw is — so two trace draws of
``mixed-lla`` at 12,000 machines differ by 14-20 % in every timing and
by 22 % in machines used: more than any bound in ``BENCHMARK.json``, and
nothing a run averages away.  Ten runs on ten seeds could then not tell
a regression from a draw, so the draw is fixed and the seed permutes it.
Decisions still change with ``--seed`` (the scheduler is order
sensitive).  Unresolved: a claim cannot be re-checked on a second trace
draw without editing the constant.

The three Azure workloads share one builder (:func:`scenario_plan`);
``tight-rescue`` has its own stream (:func:`rescue_stream`), after the
recipe of ``benchmarks/bench_report.build_rescue_stream`` (same
conflict-dense application attributes) with two changes that make it a
ruler instead of a single draw:

* **stratified shapes** — every run of 30 consecutive applications holds
  each ``(cpu, containers)`` class once, in drawn order, so every stretch
  of the stream offers the same load and the same mix of hard-to-place
  24-CPU containers;
* **stationary churn** — a tick departs the 30 oldest live applications
  and admits 30 new ones (each class once on both sides), which keeps
  offered load at the fill target however long the stream runs; what
  changes is where the freed room lies and who conflicts with whom.  The
  recipe departs uniformly from *every* earlier application, departed
  ones included, so its load only grows.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from repro.cluster.container import Application, containers_of
from repro.sim.online import OnlineConfig, arrival_schedule
from repro.trace.scenarios import build_scenario

#: draws the scenario traces and the rescue applications (module docstring)
TRACE_SEED = 0
#: tick bins of the Azure day and size of the seeded fallback dataset
TICKS = 96
N_FUNCTIONS = 400

_CPU_CLASSES = (2.0, 4.0, 8.0, 12.0, 16.0, 24.0)
_SIZES = (1, 2, 3, 4, 5)
_MEM_CHOICES = (4.0, 8.0, 16.0, 32.0)
_MACHINE_CPU = 32.0
#: applications arriving (and departing) per churn tick
CHURN_APPS = 30
#: fill applications per scheduling round
FILL_ROUND = 10
#: CPU the fill asks for, as a multiple of the pool's.  Below 1.0 a steady
#: churn never needs rescue (at 0.96 the packed-first placement keeps ~35
#: machines empty, and every arrival fits); at 1.06 about one application
#: in twenty does, and ~5 % of containers stay undeployed.
OFFERED_LOAD = 1.06


def scenario_trace(family: str, scale: float):
    """One Azure scenario family at ``scale`` (1.0 = 10k nominal machines,
    12k in the pool)."""
    return build_scenario(
        family, scale=scale, seed=TRACE_SEED, ticks=TICKS,
        n_functions=N_FUNCTIONS,
    )


def scenario_plan(trace, family: str, seed: int):
    """The trace's arrival plan with each tick's applications in an
    order drawn from ``seed``."""
    plan = arrival_schedule(trace, OnlineConfig(seed=TRACE_SEED, scenario=family))
    rng = np.random.default_rng(seed)
    # arrival_tick is sorted, so a stable sort on (tick, random key)
    # permutes inside ticks only
    order = np.lexsort((rng.random(len(plan.apps)), plan.arrival_tick))
    return replace(plan, apps=[plan.apps[i] for i in order])


@dataclass
class RescueStream:
    """A fill phase and an endless-enough churn phase on a tight pool."""

    applications: list[Application]
    #: fill rounds, each a list of containers scheduled together
    fill: list[list]
    #: churn ticks: (departing container ids, arriving containers)
    churn: list[tuple[list[int], list]]
    n_machines: int


def rescue_stream(
    pool: int, seed: int, n_apps: int, churn_ticks: int
) -> RescueStream:
    """The ``tight-rescue`` input of one pool; see the module docstring.

    The pool is sized so the fill alone asks for :data:`OFFERED_LOAD`
    times its CPU.
    """
    rng = np.random.default_rng([TRACE_SEED, pool])
    classes = [(cpu, n) for cpu in _CPU_CLASSES for n in _SIZES]

    def class_cycle():
        while True:
            for index in rng.permutation(len(classes)):
                yield classes[index]

    next_class = class_cycle()
    apps: list[Application] = []

    def new_app(hot: bool) -> Application:
        app_id = len(apps)
        cpu, n = next(next_class)
        # Conflicts against the trailing 60 ids keep blacklists dense as
        # the stream grows; hot arrivals (priority 1-3) arm preemption
        # against the priority-0 residents of the fill.
        conflicts = frozenset(
            j for j in range(max(0, app_id - 60), app_id) if rng.random() < 0.15
        )
        app = Application(
            app_id=app_id,
            n_containers=n,
            cpu=cpu,
            mem_gb=float(rng.choice(_MEM_CHOICES)),
            priority=int(rng.integers(1, 4)) if hot else int(rng.integers(0, 3)),
            anti_affinity_within=bool(rng.random() < 0.5),
            anti_affinity_scope="rack" if rng.random() < 0.25 else "machine",
            conflicts=conflicts,
        )
        apps.append(app)
        return app

    live = deque(new_app(hot=False).app_id for _ in range(n_apps))
    plan: list[tuple[list[int], list[int]]] = []
    for _ in range(churn_ticks):
        departing = [live.popleft() for _ in range(CHURN_APPS)]
        arriving = [new_app(hot=True).app_id for _ in range(CHURN_APPS)]
        live.extend(arriving)
        plan.append((departing, arriving))

    by_app: dict[int, list] = {}
    for c in containers_of(apps):
        by_app.setdefault(c.app_id, []).append(c)
    fill_cpu = sum(a.cpu * a.n_containers for a in apps[:n_apps])
    n_machines = max(4, int(np.ceil(fill_cpu / (_MACHINE_CPU * OFFERED_LOAD))))
    order = np.random.default_rng([seed, pool])
    fill_ids = order.permutation(n_apps)
    fill = [
        [c for a in fill_ids[i : i + FILL_ROUND] for c in by_app[int(a)]]
        for i in range(0, n_apps, FILL_ROUND)
    ]
    churn = [
        (
            [c.container_id for a in departing for c in by_app[a]],
            [c for a in order.permutation(arriving) for c in by_app[int(a)]],
        )
        for departing, arriving in plan
    ]
    return RescueStream(apps, fill, churn, n_machines)

"""Parser for the open-source Alibaba cluster trace format.

The paper evaluates on an *internal* Alibaba trace; Alibaba also
publishes cluster data (https://github.com/alibaba/clusterdata, cited as
[36]) whose 2018 edition ships ``container_meta.csv`` with columns::

    container_id, machine_id, time_stamp, app_du, status,
    cpu_request, cpu_limit, mem_size

``app_du`` is the application deploy-unit — exactly the paper's LLA
grouping; ``cpu_request`` is in centi-cores (100 = 1 core) and
``mem_size`` in GB.  This module turns such a file into the
reproduction's :class:`~repro.trace.schema.Trace`.

The public trace carries **no anti-affinity or priority metadata** (the
paper's constraint statistics come from the internal system), so the
loader can optionally *synthesize* constraints with the same calibrated
ratios the synthetic generator uses — making real container/application
shapes combinable with paper-faithful constraint structure.
"""

from __future__ import annotations

import csv
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

from repro.cluster.container import Application
from repro.trace.schema import Trace, TraceConfig

#: container_meta.csv columns (2018 edition, no header row in the data).
CONTAINER_META_COLUMNS = (
    "container_id",
    "machine_id",
    "time_stamp",
    "app_du",
    "status",
    "cpu_request",
    "cpu_limit",
    "mem_size",
)


def load_container_meta(
    path: str | Path,
    has_header: bool | None = None,
    max_cpu: float = 16.0,
    max_mem_gb: float = 32.0,
) -> list[Application]:
    """Parse ``container_meta.csv`` into applications.

    Containers are grouped by ``app_du``; each application's demand is
    the per-container *mode* of its members' requests (the trace is
    overwhelmingly isomorphic within a deploy-unit, matching the
    paper's IL assumption), clipped to the paper's maxima.

    ``has_header``: autodetected when ``None`` (the published file has
    no header; exports often add one).
    """
    path = Path(path)
    rows: list[dict[str, str]] = []
    with path.open(newline="") as fh:
        sample = fh.readline()
        if has_header is None:
            has_header = "container_id" in sample
        fh.seek(0)
        if has_header:
            reader = csv.DictReader(fh)
        else:
            reader = csv.DictReader(fh, fieldnames=CONTAINER_META_COLUMNS)
        for row in reader:
            if not row.get("app_du"):
                continue
            rows.append(row)

    per_app: dict[str, list[tuple[float, float]]] = defaultdict(list)
    for row in rows:
        try:
            cpu = float(row["cpu_request"] or 0) / 100.0  # centi-cores
            mem = float(row["mem_size"] or 0)
        except ValueError as exc:
            raise ValueError(f"malformed row {row!r}") from exc
        if cpu <= 0:
            cpu = 1.0
        if mem <= 0:
            mem = 2.0 * cpu
        per_app[row["app_du"]].append(
            (min(cpu, max_cpu), min(mem, max_mem_gb))
        )

    apps: list[Application] = []
    for app_id, (du, demands) in enumerate(sorted(per_app.items())):
        cpu = Counter(d[0] for d in demands).most_common(1)[0][0]
        mem = Counter(d[1] for d in demands).most_common(1)[0][0]
        apps.append(
            Application(
                app_id=app_id,
                n_containers=len(demands),
                cpu=cpu,
                mem_gb=mem,
                name=du,
            )
        )
    return apps


def load_alibaba_trace(
    path: str | Path,
    synthesize_constraints: bool = True,
    config: TraceConfig | None = None,
    seed: int = 0,
) -> Trace:
    """Load a ``container_meta.csv`` file as a reproduction trace.

    With ``synthesize_constraints`` (the default, since the public data
    carries none), anti-affinity and priority are sampled onto the real
    application shapes with the same calibrated ratios as
    :func:`repro.trace.generator.generate_trace` — ~72 % of LLAs
    constrained, ~16 % with elevated priority, within-app spreading for
    a share of the multi-instance apps, and an interference structure
    between low-demand and high-demand applications.
    """
    apps = load_container_meta(path)
    if config is None:
        config = TraceConfig(
            scale=max(
                1e-6, min(1.0, sum(a.n_containers for a in apps) / 100_000)
            ),
            seed=seed,
        )
    if synthesize_constraints and apps:
        apps = _synthesize_constraints(apps, config, seed)
    return Trace(config=config, applications=apps)


def _synthesize_constraints(
    apps: list[Application], config: TraceConfig, seed: int
) -> list[Application]:
    """Re-sample constraint structure onto real application shapes."""
    from repro.trace.generator import _assign_anti_affinity, _assign_priorities

    rng = np.random.default_rng(seed)
    sizes = np.array([a.n_containers for a in apps], dtype=np.int64)
    cpus = np.array([a.cpu for a in apps], dtype=np.float64)
    priorities = _assign_priorities(rng, _sized_config(config, len(apps)), sizes, cpus)
    within, conflicts, _ = _assign_anti_affinity(
        rng, _sized_config(config, len(apps)), sizes, priorities, cpus
    )
    return [
        Application(
            app_id=a.app_id,
            n_containers=a.n_containers,
            cpu=float(cpus[i]),
            mem_gb=a.mem_gb,
            priority=int(priorities[i]),
            anti_affinity_within=bool(within[i]),
            conflicts=conflicts[i],
            name=a.name,
        )
        for i, a in enumerate(apps)
    ]


def _sized_config(config: TraceConfig, n_apps: int) -> TraceConfig:
    """A config whose derived ``n_apps`` matches the loaded data."""
    from dataclasses import replace

    scale = max(1e-6, min(1.0, n_apps / 13056))
    return replace(config, scale=scale)

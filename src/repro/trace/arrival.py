"""Container arrival orderings (Section V.C/V.D).

The evaluation replays the trace under four arrival characteristics:

* **CHP** — containers with high priorities first;
* **CLP** — containers with low priorities first;
* **CLA** — containers with a *large* number of anti-affinity
  constraints first;
* **CSA** — containers with a *small* number of anti-affinity
  constraints first.

Orderings operate at application granularity (an LLA's containers are
submitted together, Section II.A) and are stable, so ties keep trace
order and every ordering is a permutation of the same container set.
"""

from __future__ import annotations

import enum

from repro.cluster.container import Application, Container
from repro.trace.schema import Trace


class ArrivalOrder(enum.Enum):
    """The four arrival characteristics plus raw trace order."""

    TRACE = "trace"
    CHP = "chp"  # high priorities first
    CLP = "clp"  # low priorities first
    CLA = "cla"  # many anti-affinity constraints first
    CSA = "csa"  # few anti-affinity constraints first


def anti_affinity_degree(app: Application, trace: Trace) -> int:
    """Number of containers ``app`` cannot be co-located with.

    Within-app anti-affinity contributes the app's other instances;
    cross-application conflicts contribute the partners' full instance
    counts.  This is the quantity behind the paper's "several LLAs cannot
    be co-located with at least other 5,000 containers".
    """
    degree = 0
    if app.anti_affinity_within:
        degree += app.n_containers - 1
    for other in app.conflicts:
        degree += trace.app(other).n_containers
    return degree


def order_applications(trace: Trace, order: ArrivalOrder) -> list[Application]:
    """Applications of ``trace`` under the given arrival characteristic."""
    apps = list(trace.applications)
    if order is ArrivalOrder.TRACE:
        return apps
    if order is ArrivalOrder.CHP:
        return sorted(apps, key=lambda a: -a.priority)
    if order is ArrivalOrder.CLP:
        return sorted(apps, key=lambda a: a.priority)
    if order is ArrivalOrder.CLA:
        return sorted(apps, key=lambda a: -anti_affinity_degree(a, trace))
    if order is ArrivalOrder.CSA:
        return sorted(apps, key=lambda a: anti_affinity_degree(a, trace))
    raise ValueError(f"unknown arrival order: {order!r}")


def order_containers(trace: Trace, order: ArrivalOrder) -> list[Container]:
    """Containers of ``trace`` in arrival order (app blocks kept intact)."""
    by_app = trace.containers_by_app()
    return [c for app in order_applications(trace, order) for c in by_app[app.app_id]]

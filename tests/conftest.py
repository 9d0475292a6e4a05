"""Shared fixtures.

``REPRO_SCALE`` (default 0.02 for tests) keeps suites fast; individual
tests that need specific structure build their own workloads.
"""

from __future__ import annotations

import os
from dataclasses import replace

import pytest

from repro import (
    AladdinConfig,
    AladdinScheduler,
    ClusterState,
    MachineSpec,
    Simulator,
    build_cluster,
    generate_trace,
)
from repro.cluster.constraints import AntiAffinityRule, ConstraintSet
from repro.cluster.container import Application, containers_of

TEST_SCALE = float(os.environ.get("REPRO_TEST_SCALE", "0.02"))


@pytest.fixture(scope="session")
def small_trace():
    """A small but fully structured synthetic trace (session-cached)."""
    return generate_trace(scale=TEST_SCALE, seed=7)


@pytest.fixture(scope="session")
def small_sim(small_trace):
    return Simulator(small_trace)


@pytest.fixture
def tiny_cluster():
    """Four 32-CPU machines in one rack."""
    return build_cluster(4, machines_per_rack=2, racks_per_cluster=2)


@pytest.fixture
def tiny_state(tiny_cluster):
    return ClusterState(tiny_cluster)


def make_apps(*specs) -> list[Application]:
    """Terse Application factory for scenario tests.

    Each spec: (n_containers, cpu, priority, within, conflicts).
    """
    apps = []
    for i, spec in enumerate(specs):
        n, cpu, prio, within, conflicts = spec
        apps.append(
            Application(
                app_id=i,
                n_containers=n,
                cpu=cpu,
                mem_gb=cpu * 2,
                priority=prio,
                anti_affinity_within=within,
                conflicts=frozenset(conflicts),
            )
        )
    return apps


def state_for(apps, n_machines=4, machine=None, **topo_kw):
    """ClusterState wired with the apps' constraints."""
    topo = build_cluster(
        n_machines, machine=machine or MachineSpec(), **topo_kw
    )
    return ClusterState(topo, ConstraintSet.from_applications(apps))


def containers_for(apps):
    return containers_of(apps)


def with_rack_scopes(apps) -> list[Application]:
    """``apps`` with every third within-rule widened to rack scope (no
    trace generator emits those, and they are counted on their own path)."""
    return [
        replace(app, anti_affinity_scope="rack")
        if app.anti_affinity_within and app.app_id % 3 == 0 else app
        for app in apps
    ]

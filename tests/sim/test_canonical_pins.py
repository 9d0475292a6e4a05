"""Canonical-JSON pins of five small online runs.

``TickSample.violations`` rides ``canonical_json``, and the comparator
schedulers place violations on purpose, so "the violation count did not
change" has to be checked where it is *not* zero.  The digests below
were recorded on the commit before ``anti_affinity_violations`` became
a dirty-log consumer (7e0a44d, the brute-force recount); any change to
what a sample reads — the count, ``mean_utilization``, a decision —
moves them.

The canonical JSON also carries the search's *cost* counter (a
sample's ``explored``), which a change to how the search evaluates
Equations 6-8 legitimately moves.  The three Aladdin digests were
re-recorded when the batch kernel began evaluating its window without
the feasibility cache; their :func:`decision_projection` — the same
JSON without the cost counters — is pinned separately, from the commit
before that change, so a moved cost and a moved decision fail
different tests.  Until the cross-round feasibility cache was deleted
the cost counters also counted its hits, misses and invalidations (a
sample's ``cache_hits``, the telemetry's ``cache_hits`` /
``cache_misses`` / ``cache_invalidations``); the projection drops
those keys where an older JSON still has them.

When the rack-sharded parallel sweep was deleted, its always-zero
``parallel_sweeps`` counter left the telemetry, and every digest here
was re-recorded once: each is the sha256 of the canonical JSON the
commit before the deletion (4fe1a11) produced, with that one key
removed (and, for :data:`DECISIONS`, projected as below).  Nothing else
in the JSON moved, so the pins still hold the decisions of the commits
named above.

When the per-machine rescue loop left ``src/`` for ``tests/``, the
counter of rescues the kernel planned — always equal to
``rescue_attempts`` once every rescue goes through the kernel — left
the telemetry and every sample, and the digests were re-recorded the
same way: the sha256 of the canonical JSON of the commit before that
change, with that one key removed wherever it appeared.

When the cross-round feasibility cache was deleted, its four counters
left the telemetry and the samples, and :data:`RUNS` was re-recorded
the same way: the sha256 of the canonical JSON of the commit before the
deletion, with those keys removed.  None of these runs asked the cache
anything that moved another key (the change's own JSON hashed the
same), and :data:`DECISIONS` did not move.

When the LP window engine was deleted, its two always-zero counters
``solver_calls`` and ``solver_rounding_repairs`` left the telemetry,
and every digest here, :data:`DECISIONS` included, was re-recorded the
same way: the sha256 of the canonical JSON (or of its projection) of
the commit before the deletion (3b2fc78), with those two keys removed.

Until the config's advisory ``engine`` field was deleted,
``"aladdin-flow"`` ran ``AladdinScheduler(AladdinConfig(engine="flow"))``
— the batch engine, whose digests it duplicated.  It now runs
:class:`~repro.core.search.FlowPathSearch`, and both of its digests are
the flow engine's canonical JSON on the commit before that deletion
(d1f435f); the flow engine's run was never pinned before.
"""

from __future__ import annotations

import functools
import hashlib
import json

import pytest

from repro.baselines import (
    FirmamentPolicy,
    FirmamentScheduler,
    MedeaScheduler,
    MedeaWeights,
)
from repro.core import AladdinScheduler, FlowPathSearch
from repro.sim.lifecycle import LifecycleConfig
from repro.sim.online import OnlineConfig, OnlineSimulator
from repro.trace import generate_trace
from repro.trace.scenarios import build_scenario
from repro.trace.schema import Trace

from tests.conftest import with_rack_scopes


def churn_trace() -> Trace:
    return generate_trace(scale=0.02, seed=0)


def rack_scoped_trace() -> Trace:
    """The churn trace with a third of its within-rules at rack scope."""
    trace = churn_trace()
    return Trace(
        config=trace.config,
        applications=with_rack_scopes(trace.applications),
    )


CHURN = OnlineConfig(ticks=12, seed=0)

#: name -> (trace, config, scheduler, sha256 of canonical_json,
#:          ticks sampling a non-zero violation count)
RUNS = {
    "aladdin-flow": (
        churn_trace, CHURN,
        FlowPathSearch,
        "df1d59e0c178601a7fed84ef37c700a85332b21756fe5c4816570c0c7d8b7690", 0,
    ),
    "aladdin-default": (
        churn_trace, CHURN, AladdinScheduler,
        "609c8d806b29c7e5608ab952c9688f5af276b758a230ff378aeebb995f7e0823", 0,
    ),
    "firmament-quincy": (
        churn_trace, CHURN,
        lambda: FirmamentScheduler(FirmamentPolicy.QUINCY),
        "21f149612073de377054460af9cc56b9f13369736f4b3a2cd16812cfdea6386f", 53,
    ),
    "medea-c1-rack-scoped": (
        rack_scoped_trace, CHURN,
        lambda: MedeaScheduler(MedeaWeights(c=1.0)),
        "141ea93eb18230a35ada2faab1901be3026edcb7cd01f9e28105d1b0b93d9254", 207,
    ),
    "autoscale": (
        lambda: build_scenario("autoscale", scale=0.01, ticks=16),
        OnlineConfig(
            scenario="autoscale", autoscale=LifecycleConfig(keep_alive="ttl")
        ),
        AladdinScheduler,
        "7c54018b9853b1c34a731e02d316fb6202b9bf917920a3f48ebba89966537740", 0,
    ),
}


#: name -> sha256 of :func:`decision_projection` of the run's canonical
#: JSON
DECISIONS = {
    "aladdin-flow":
        "4c25100ad12754da9227d361e0e29f2a0906b20b6c59c2fd996b1d348c6a6e13",
    "aladdin-default":
        "d795bb2ec9b66d7c50ee243f1ac825a6a4d1f0bcca7c06670cb3e373f864fb80",
    "autoscale":
        "3ab81dba7acd93acb3e3f7624cdf58cf222783429046e7097f8cd29fa6122876",
}


@functools.cache
def run(name):
    make_trace, config, make_scheduler, _digest, _ticks = RUNS[name]
    return OnlineSimulator(make_trace(), config).run(make_scheduler())


def decision_projection(canonical: str) -> str:
    """``canonical`` without the search's cost counters."""
    payload = json.loads(canonical)
    for sample in payload["samples"]:
        del sample["explored"]
        sample.pop("cache_hits", None)
    for key in ("cache_hits", "cache_misses", "cache_invalidations",
                "solver_calls", "solver_rounding_repairs"):
        payload["telemetry"].pop(key, None)
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", RUNS)
def test_canonical_json_is_byte_identical_to_the_recount_era(name):
    _trace, _config, _scheduler, digest, violating_ticks = RUNS[name]
    result = run(name)
    assert (
        sum(1 for s in result.samples if s.violations) == violating_ticks
    )
    assert sha256(result.canonical_json()) == digest


@pytest.mark.parametrize("name", DECISIONS)
def test_decision_projection_is_pinned(name):
    assert sha256(decision_projection(run(name).canonical_json())) == (
        DECISIONS[name]
    )

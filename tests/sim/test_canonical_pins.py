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
from repro.core import AladdinConfig, AladdinScheduler
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
        lambda: AladdinScheduler(AladdinConfig(engine="flow")),
        "f29992d7b70b5e5b6ebe51fa7a8af07e2b9ef1383b646c74e5e4ac89b33a06d4", 0,
    ),
    "aladdin-default": (
        churn_trace, CHURN, AladdinScheduler,
        "f29992d7b70b5e5b6ebe51fa7a8af07e2b9ef1383b646c74e5e4ac89b33a06d4", 0,
    ),
    "firmament-quincy": (
        churn_trace, CHURN,
        lambda: FirmamentScheduler(FirmamentPolicy.QUINCY),
        "a05a8bcfafdbad34b856804763a7236ff685c8061bcabf4f7ccfda9ce0b2cc1f", 53,
    ),
    "medea-c1-rack-scoped": (
        rack_scoped_trace, CHURN,
        lambda: MedeaScheduler(MedeaWeights(c=1.0)),
        "c8a6272d8a2223847aced55c47a114dfb73e2856d6aefeb98d5e3f3d63cb867f", 207,
    ),
    "autoscale": (
        lambda: build_scenario("autoscale", scale=0.01, ticks=16),
        OnlineConfig(scenario="autoscale", autoscale=True, keep_alive="ttl"),
        AladdinScheduler,
        "07b5fd5105ff1f6c0059c1279c59e7a77c0392fb2df9e8f386d6209e044b81c0", 0,
    ),
}


#: name -> sha256 of :func:`decision_projection` of the run's canonical
#: JSON
DECISIONS = {
    "aladdin-flow":
        "182ef98ea1d7d86fdf02d3629e5491a38d262cc0619a4ff2348fb613d42f1cbd",
    "aladdin-default":
        "182ef98ea1d7d86fdf02d3629e5491a38d262cc0619a4ff2348fb613d42f1cbd",
    "autoscale":
        "f3c9c9db9d0d86331f84719c6cb981d24f8ec0fbf8eb96f07c730089b2873fc9",
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
    for key in ("cache_hits", "cache_misses", "cache_invalidations"):
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

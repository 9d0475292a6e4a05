"""Canonical-JSON pins of five small online runs.

``TickSample.violations`` rides ``canonical_json``, and the comparator
schedulers place violations on purpose, so "the violation count did not
change" has to be checked where it is *not* zero.  The digests below
were recorded on the commit before ``anti_affinity_violations`` became
a dirty-log consumer (7e0a44d, the brute-force recount); any change to
what a sample reads — the count, ``mean_utilization``, a decision —
moves them.

The canonical JSON also carries the search's *cost* counters (a
sample's ``explored`` / ``cache_hits``, the telemetry's
``cache_hits`` / ``cache_misses`` / ``cache_invalidations``), which a
change to how the search evaluates Equations 6-8 legitimately moves.
The three Aladdin digests were re-recorded when the batch kernel began
evaluating its window without the feasibility cache; their
:func:`decision_projection` — the same JSON without those five keys —
is pinned separately, from the commit before that change, so a moved
cost and a moved decision fail different tests.

When the rack-sharded parallel sweep was deleted, its always-zero
``parallel_sweeps`` counter left the telemetry, and every digest here
was re-recorded once: each is the sha256 of the canonical JSON the
commit before the deletion (4fe1a11) produced, with that one key
removed (and, for :data:`DECISIONS`, projected as below).  Nothing else
in the JSON moved, so the pins still hold the decisions of the commits
named above.
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
        "1be4d052347ec75e27a6e411b174561ba17859c6a5a10078cdd605c3bcc789a7", 0,
    ),
    "aladdin-default": (
        churn_trace, CHURN, AladdinScheduler,
        "1be4d052347ec75e27a6e411b174561ba17859c6a5a10078cdd605c3bcc789a7", 0,
    ),
    "firmament-quincy": (
        churn_trace, CHURN,
        lambda: FirmamentScheduler(FirmamentPolicy.QUINCY),
        "7f4901b8253472906147db9995c5099be69df0247595bf1f02846e0d59075dd6", 53,
    ),
    "medea-c1-rack-scoped": (
        rack_scoped_trace, CHURN,
        lambda: MedeaScheduler(MedeaWeights(c=1.0)),
        "d017d7ef0f8c02819f7886feb9181c085d072dee9061aa5ede38b382023d6888", 207,
    ),
    "autoscale": (
        lambda: build_scenario("autoscale", scale=0.01, ticks=16),
        OnlineConfig(scenario="autoscale", autoscale=True, keep_alive="ttl"),
        AladdinScheduler,
        "6e3b532cb7b6c71c028601766f16261d137f8b311e0bb137a6444c9f2a83d7ef", 0,
    ),
}


#: name -> sha256 of :func:`decision_projection` of the run's canonical
#: JSON
DECISIONS = {
    "aladdin-flow":
        "8cabf857331e077919644d9c1484b3b254c689e851a4c7c1b7bd1e2d898af534",
    "aladdin-default":
        "8cabf857331e077919644d9c1484b3b254c689e851a4c7c1b7bd1e2d898af534",
    "autoscale":
        "ec79880d109ac3ba2075c81a27db7cef7b68f0dcbf0fe9e11ce3ba7a21a1f5ba",
}


@functools.cache
def run(name):
    make_trace, config, make_scheduler, _digest, _ticks = RUNS[name]
    return OnlineSimulator(make_trace(), config).run(make_scheduler())


def decision_projection(canonical: str) -> str:
    """``canonical`` without the search's cost counters."""
    payload = json.loads(canonical)
    for sample in payload["samples"]:
        del sample["explored"], sample["cache_hits"]
    for key in ("cache_hits", "cache_misses", "cache_invalidations"):
        del payload["telemetry"][key]
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

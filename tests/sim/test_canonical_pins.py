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

When the per-machine rescue loop left ``src/`` for ``tests/``, the
counter of rescues the kernel planned — always equal to
``rescue_attempts`` once every rescue goes through the kernel — left
the telemetry and every sample, and the digests were re-recorded the
same way: the sha256 of the canonical JSON of the commit before that
change, with that one key removed wherever it appeared.
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
        "979397a8a6c1c8eac1eee39557c850b15be26916880ce82c2c025a140bd47aad", 0,
    ),
    "aladdin-default": (
        churn_trace, CHURN, AladdinScheduler,
        "979397a8a6c1c8eac1eee39557c850b15be26916880ce82c2c025a140bd47aad", 0,
    ),
    "firmament-quincy": (
        churn_trace, CHURN,
        lambda: FirmamentScheduler(FirmamentPolicy.QUINCY),
        "a2e4aa368b514db6332a6818a18c8387dd85e4ace283f9264052eaa68e5ace8a", 53,
    ),
    "medea-c1-rack-scoped": (
        rack_scoped_trace, CHURN,
        lambda: MedeaScheduler(MedeaWeights(c=1.0)),
        "5932e0f9ee050d4323e8c8f4b7f4fd497dbb0de39cbc94c33a25bac3db90b20e", 207,
    ),
    "autoscale": (
        lambda: build_scenario("autoscale", scale=0.01, ticks=16),
        OnlineConfig(scenario="autoscale", autoscale=True, keep_alive="ttl"),
        AladdinScheduler,
        "8b8f3f559eaff0b0773070aca64e8b75f225e9fcae68c3a0bdb97b161dde53ef", 0,
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

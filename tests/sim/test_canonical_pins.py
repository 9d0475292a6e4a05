"""Canonical-JSON pins of five small online runs.

``TickSample.violations`` rides ``canonical_json``, and the comparator
schedulers place violations on purpose, so "the violation count did not
change" has to be checked where it is *not* zero.  The digests below
were recorded on the commit before ``anti_affinity_violations`` became
a dirty-log consumer (7e0a44d, the brute-force recount); any change to
what a sample reads — the count, ``mean_utilization``, a decision —
moves them.
"""

from __future__ import annotations

import hashlib

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
        "4c44c7b6fdec754fa93c3d8a01dee878746ca04d6984232f9f27ae38481c5020", 0,
    ),
    "aladdin-default": (
        churn_trace, CHURN, AladdinScheduler,
        "4c44c7b6fdec754fa93c3d8a01dee878746ca04d6984232f9f27ae38481c5020", 0,
    ),
    "firmament-quincy": (
        churn_trace, CHURN,
        lambda: FirmamentScheduler(FirmamentPolicy.QUINCY),
        "08b9c24cc36b2ef775f8e46dc3a60f626d6dc18485cc9f2d5804a75a83028379", 53,
    ),
    "medea-c1-rack-scoped": (
        rack_scoped_trace, CHURN,
        lambda: MedeaScheduler(MedeaWeights(c=1.0)),
        "d56f9a9bc389e17f1ebbc30827261d2de8ffba5d5c00cd311168db9be20df1b6", 207,
    ),
    "autoscale": (
        lambda: build_scenario("autoscale", scale=0.01, ticks=16),
        OnlineConfig(scenario="autoscale", autoscale=True, keep_alive="ttl"),
        AladdinScheduler,
        "90f84c9686ac70b6f9cad2bfd620242a03be438e64eed100d2b5a567b3a8ec1f", 0,
    ),
}


@pytest.mark.parametrize("name", RUNS)
def test_canonical_json_is_byte_identical_to_the_recount_era(name):
    make_trace, config, make_scheduler, digest, violating_ticks = RUNS[name]
    result = OnlineSimulator(make_trace(), config).run(make_scheduler())
    assert (
        sum(1 for s in result.samples if s.violations) == violating_ticks
    )
    assert (
        hashlib.sha256(result.canonical_json().encode()).hexdigest() == digest
    )

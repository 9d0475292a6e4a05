"""Snapshots written by an earlier commit restore and resume here.

``data/*.ckpt.gz`` are mid-run snapshots (tick 5 of 12) that commit
852ccbd wrote, before the batch kernel read raw windows of the machine
order and the index repaired itself from the raw dirty-log slice: one
on the synthetic LLA trace (scale 0.03), one on the azure ``mixed-lla``
scenario (scale 0.01).  The index's checkpoint image kept its form, so
an engine restored from either resumes the writing commit's run to the
byte: the resumed canonical JSON — placements, failures, samples,
``explored`` and every telemetry counter — hashes to what that commit's
own uninterrupted run produced, and to what this commit's does.

Regenerate only if the snapshot format itself changes: run each case
to its first ``checkpoint_every=5`` snapshot on the commit whose
images should be read, and gzip the file.
"""

from __future__ import annotations

import gzip
import hashlib
import pathlib

import pytest

from repro.cluster.snapshot import read_snapshot
from repro.core import AladdinScheduler
from repro.sim.online import OnlineConfig, OnlineSimulator
from repro.trace import build_scenario, generate_trace

DATA = pathlib.Path(__file__).parent / "data"

#: name -> (trace factory, config, sha256 of the uninterrupted run's
#: canonical JSON on the writing commit)
CASES = {
    "lla": (
        lambda: generate_trace(scale=0.03, seed=0),
        OnlineConfig(ticks=12, seed=0),
        "6435114fb893123d1ff5be7825a3813fb4edfb9999d0451a2136fd04d275d25b",
    ),
    "mixed-lla": (
        lambda: build_scenario("mixed-lla", scale=0.01, seed=0, ticks=12),
        OnlineConfig(ticks=12, seed=0, scenario="mixed-lla"),
        "05e40e2ef23c9c0386f95713634544727f4a93e0e1ad308213b8d424b88770fb",
    ),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", CASES)
def test_snapshot_of_the_earlier_commit_resumes_its_run(name, tmp_path):
    make_trace, config, digest = CASES[name]
    path = tmp_path / f"{name}.ckpt"
    path.write_bytes(gzip.decompress((DATA / f"{name}.ckpt.gz").read_bytes()))

    image = read_snapshot(str(path), kind="online-sim")["engine"]["machine_index"]
    assert sorted(image) == sorted(AladdinScheduler().machine_index.checkpoint())

    trace = make_trace()
    resumed = OnlineSimulator(trace, config).run(
        AladdinScheduler(), restore_from=str(path)
    )
    assert sha256(resumed.canonical_json()) == digest
    straight = OnlineSimulator(trace, config).run(AladdinScheduler())
    assert sha256(straight.canonical_json()) == digest

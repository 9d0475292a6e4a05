"""Snapshots written by an earlier commit restore and resume here.

``data/lla.ckpt.gz`` and ``data/mixed-lla.ckpt.gz`` are mid-run
snapshots (tick 5 of 12) that commit 852ccbd wrote, before the batch kernel read raw windows of the machine
order and the index repaired itself from the raw dirty-log slice: one
on the synthetic LLA trace (scale 0.03), one on the azure ``mixed-lla``
scenario (scale 0.01).  The index's checkpoint image kept its form, so
an engine restored from either resumes the writing commit's run to the
byte: the resumed canonical JSON — placements, failures, samples,
``explored`` and every telemetry counter — hashes to what that commit's
own uninterrupted run produced, and to what this commit's does.

The digests were re-recorded once, when the rack-sharded parallel
sweep was deleted and its ``parallel_sweeps`` counter left the
telemetry: each is the sha256 of the canonical JSON that the commit
before the deletion (4fe1a11) produced for the uninterrupted run, with
that one key removed.  They were re-recorded once more, the same
way, when the counter of kernel-planned rescues left the telemetry
and the samples (every rescue now goes through the kernel, so it
only repeated ``rescue_attempts``): the sha256 of the canonical JSON of the
commit before that change, with that key removed.  And once more when
the cross-round feasibility cache was deleted: its ``cache_hits`` /
``cache_misses`` / ``cache_invalidations`` counters left the telemetry
and ``cache_hits`` the samples, and each digest is the sha256 of the
canonical JSON of the commit before the deletion with those keys
removed.  And once more when the LP window engine was deleted: its
``solver_calls`` / ``solver_rounding_repairs`` counters, always zero
here, left the telemetry, and each digest is the sha256 of the
canonical JSON of the commit before the deletion (3b2fc78) with those
two keys removed.  The images themselves are unchanged; the restored result
still carries every removed counter in its pickled telemetry and
samples, and its engine image the cache's ``feas_cache`` and the
rescue kernel's ``dominance`` entries, which the restore ignores; the
canonical JSON no longer reads any of them.

``data/lla-workers2.ckpt.gz`` is the same tick-5 snapshot of the
``lla`` case taken by 4fe1a11 with ``AladdinConfig(workers=2)``: its
engine image carries the sweep's ``parallel`` entry, and its telemetry
``parallel_sweeps`` and ``worker_time_s``.  The serial engine ignores
all three and resumes the run to the serial run's decisions; the cost
counters (``explored``, cache hits) of the ticks the sweep planned are
its own and are not compared.

Regenerate only if the snapshot format itself changes: run each case
to its first ``checkpoint_every=5`` snapshot on the commit whose
images should be read, and gzip the file.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import pathlib

import pytest

from repro.cluster.snapshot import read_snapshot
from repro.core import AladdinScheduler
from repro.sim.online import OnlineConfig, OnlineSimulator
from repro.trace import build_scenario, generate_trace

DATA = pathlib.Path(__file__).parent / "data"

def lla_trace():
    return generate_trace(scale=0.03, seed=0)


LLA = OnlineConfig(ticks=12, seed=0)
LLA_DIGEST = "cc3f116565e17bfb882ad427e8d6c0bc86d9d7002cadde8785bacf09a5150325"

#: name -> (trace factory, config, sha256 of the uninterrupted run's
#: canonical JSON on the writing commit minus ``parallel_sweeps``, the
#: kernel-planned rescue count, the feasibility cache's counters and the
#: LP engine's two counters,
#: whether the resumed run reproduces that JSON byte for byte)
CASES = {
    "lla": (lla_trace, LLA, LLA_DIGEST, True),
    "mixed-lla": (
        lambda: build_scenario("mixed-lla", scale=0.01, seed=0, ticks=12),
        OnlineConfig(ticks=12, seed=0, scenario="mixed-lla"),
        "2d6baf571975742dc686971c338e28d9d15ba313d8642af46f83bcb695bec912",
        True,
    ),
    # the sweep's cost counters up to the snapshot are its own
    "lla-workers2": (lla_trace, LLA, LLA_DIGEST, False),
}

#: the per-sample fields that are decisions, not search cost
DECISION_FIELDS = (
    "arrived", "departed", "running", "failures", "used_machines",
    "mean_utilization", "migrations", "violations",
)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def decisions(canonical: str) -> dict:
    """The run's totals and each sample's decision fields."""
    payload = json.loads(canonical)
    return {
        "totals": payload["totals"],
        "samples": [
            {k: s[k] for k in DECISION_FIELDS} for s in payload["samples"]
        ],
    }


@pytest.mark.parametrize("name", CASES)
def test_snapshot_of_the_earlier_commit_resumes_its_run(name, tmp_path):
    make_trace, config, digest, byte_for_byte = CASES[name]
    path = tmp_path / f"{name}.ckpt"
    path.write_bytes(gzip.decompress((DATA / f"{name}.ckpt.gz").read_bytes()))

    snapshot = read_snapshot(str(path), kind="online-sim")
    image = snapshot["engine"]["machine_index"]
    assert sorted(image) == sorted(AladdinScheduler().machine_index.checkpoint())

    trace = make_trace()
    resumed = OnlineSimulator(trace, config).run(
        AladdinScheduler(), restore_from=str(path)
    ).canonical_json()
    straight = OnlineSimulator(trace, config).run(
        AladdinScheduler()
    ).canonical_json()
    assert sha256(straight) == digest
    assert decisions(resumed) == decisions(straight)
    if byte_for_byte:
        assert sha256(resumed) == digest
    else:
        # what the serial engine has to ignore
        assert snapshot["engine"]["parallel"] is not None
        written = vars(snapshot["result"].telemetry)
        assert written["parallel_sweeps"] > 0 and written["worker_time_s"]
        assert "parallel_sweeps" not in json.loads(resumed)["telemetry"]

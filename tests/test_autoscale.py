"""The autoscaling lifecycle: warm pools, power states, and the
default-off bit-identity contract.

Three layers of coverage:

* **Unit** — :class:`repro.cluster.warmpool.WarmPool` (all three
  keep-alive policies behind ``evict_before``) and
  :class:`repro.cluster.power.PowerManager` (drain/wake planning,
  sealing, cold-start windows) against a hand-built cluster state.
* **Differential** — the autoscale axis composes with every existing
  bit-identity contract: default-off runs are byte-identical to a
  build without the feature, autoscale runs are deterministic, engine
  ablations agree decision-for-decision under lifecycle churn, a
  served autoscale run equals the simulated one, and a run killed
  mid-drain with a populated pool restores bit-identical.
* **Acceptance** — an autoscale run powers fewer machine-ticks than
  always-on at unchanged validity, and keep-alive demonstrably beats
  cold-starting everything.
"""

from __future__ import annotations

import json

import pytest

from repro.cluster.power import (
    POWER_DRAINING,
    POWER_OFF,
    POWER_ON,
    PowerConfig,
    PowerManager,
)
from repro.cluster.state import ClusterState
from repro.cluster.topology import build_cluster
from repro.cluster.warmpool import WarmPool
from repro.core import AladdinScheduler
from repro.sim.lifecycle import LifecycleConfig, LifecycleRuntime
from repro.sim.online import OnlineConfig, OnlineSimulator
from repro.sim.metrics import power_metrics
from repro.trace import build_scenario
from tests.core.rescue_loop import loop_rescue
from tests.core.walk_oracle import walk_blocks


# ----------------------------------------------------------------------
# warm pool
# ----------------------------------------------------------------------
def test_pool_stash_claim_is_lifo():
    pool = WarmPool("fixed", keep_alive_ticks=4)
    assert pool.stash("f", 1, machine_id=0, tick=0) == []
    assert pool.stash("f", 2, machine_id=1, tick=1) == []
    assert pool.claim("f", tick=1) == (2, 1)  # newest stash first
    assert pool.claim("f", tick=1) == (1, 0)
    assert pool.claim("f", tick=1) is None
    assert pool.hits == 2 and len(pool) == 0


def test_pool_claim_accept_vetoes_candidates():
    pool = WarmPool("fixed")
    pool.stash("f", 1, machine_id=0, tick=0)
    pool.stash("f", 2, machine_id=1, tick=0)
    # Veto the newest entry: the claim falls through to the older one.
    got = pool.claim("f", tick=0, accept=lambda cid, m: cid != 2)
    assert got == (1, 0)
    assert len(pool) == 1  # the vetoed entry stays pooled


def test_pool_fixed_expiry_in_deadline_order():
    pool = WarmPool("fixed", keep_alive_ticks=3)
    pool.stash("f", 1, machine_id=0, tick=0)  # evicts before tick 4
    pool.stash("g", 2, machine_id=1, tick=1)  # evicts before tick 5
    assert pool.evict_before(3) == []
    assert pool.evict_before(4) == [1]
    assert pool.evict_before(5) == [2]
    assert pool.expired == 2 and len(pool) == 0


def test_pool_full_fixed_refuses_stash():
    pool = WarmPool("fixed", capacity=1)
    assert pool.stash("f", 1, machine_id=0, tick=0) == []
    # A full fixed pool bounces the newcomer back to the caller, which
    # evicts it exactly as it would without a pool.
    assert pool.stash("f", 2, machine_id=1, tick=0) == [2]
    assert pool.overflowed == 1
    assert pool.claim("f", tick=0) == (1, 0)


def test_pool_lru_overflow_evicts_oldest():
    pool = WarmPool("lru", capacity=2)
    pool.stash("f", 1, machine_id=0, tick=0)
    pool.stash("g", 2, machine_id=1, tick=0)
    # The newcomer is admitted; the oldest stash is the victim.
    assert pool.stash("h", 3, machine_id=2, tick=1) == [1]
    assert pool.overflowed == 1
    assert pool.claim("f", tick=1) is None
    assert pool.claim("h", tick=1) == (3, 2)


def test_pool_ttl_hit_keeps_key_warm():
    pool = WarmPool("ttl", keep_alive_ticks=3)
    pool.stash("f", 1, machine_id=0, tick=0)
    pool.stash("f", 2, machine_id=1, tick=0)
    # A hit at tick 2 refreshes the key's deadline to 5: the sibling
    # entry survives its original tick-3 deadline.
    assert pool.claim("f", tick=2) == (2, 1)
    assert pool.evict_before(4) == []
    assert len(pool) == 1
    # ...but ages out once the refreshed window passes.
    assert pool.evict_before(6) == [1]


def test_pool_checkpoint_restores_bit_identical():
    pool = WarmPool("ttl", keep_alive_ticks=4, capacity=8)
    pool.stash(("fn", 1.0, 2.0), 1, machine_id=0, tick=0)
    pool.stash(("fn", 1.0, 2.0), 2, machine_id=1, tick=1)
    pool.stash(("other", 2.0, 4.0), 3, machine_id=2, tick=1)
    pool.claim(("fn", 1.0, 2.0), tick=2)  # leaves a lazy-deleted entry
    payload = json.loads(json.dumps(pool.checkpoint()))  # wire round-trip

    clone = WarmPool("ttl", keep_alive_ticks=4, capacity=8)
    clone.restore(payload)
    assert clone.checkpoint() == pool.checkpoint()
    # Behavioural equivalence, not just structural.
    assert clone.claim(("fn", 1.0, 2.0), tick=2) == pool.claim(
        ("fn", 1.0, 2.0), tick=2
    )
    assert clone.evict_before(10) == pool.evict_before(10)


def test_pool_rejects_unknown_policy():
    with pytest.raises(ValueError, match="keep-alive"):
        WarmPool("adaptive")


# ----------------------------------------------------------------------
# power manager
# ----------------------------------------------------------------------
def _powered_state(n=6):
    topo = build_cluster(n)
    from repro.cluster.constraints import ConstraintSet

    return ClusterState(topo, ConstraintSet([]))


def _occupy(state, machine):
    from repro.cluster.container import Container

    c = Container(
        container_id=1000 + machine, app_id=0, instance=0, cpu=1.0,
        mem_gb=1.0, priority=0,
    )
    state.deploy(c, machine)


def test_power_drains_idle_tail_packed_last():
    state = _powered_state(6)
    _occupy(state, 0)
    power = PowerManager(6, PowerConfig(min_on=2, headroom=0.0))
    woken, drained, reclaimed = power.step(state, tick=0, demand_cpu=0.0)
    assert woken == [] and reclaimed == []
    # Highest empty ids seal first; min_on=2 keeps machines 0 and 1.
    assert drained == [5, 4, 3, 2]
    assert power.counts() == (2, 4, 0)
    for m in drained:
        assert not state.available[m].any()  # sealed: all-zero row


def test_power_drain_to_off_and_cold_wake():
    state = _powered_state(3)
    cfg = PowerConfig(drain_ticks=1, cold_start_ticks=3, min_on=1,
                      headroom=0.0)
    power = PowerManager(3, cfg)
    _, drained, _ = power.step(state, tick=0, demand_cpu=0.0)
    assert drained == [2, 1]
    # After drain_ticks the sealed machines finish powering off.
    power.step(state, tick=1, demand_cpu=0.0)
    assert power.counts()[2] == 2  # off
    # Demand beyond one machine's CPU wakes the off tail cold.
    big = float(state.topology.capacity[:, 0].sum())
    woken, _, _ = power.step(state, tick=2, demand_cpu=big)
    assert woken == [1, 2]
    assert power.cold_wakes == 2
    assert power.cold_penalty(1, tick=2) == 3
    assert power.cold_penalty(1, tick=5) == 0
    for m in woken:  # full capacity row restored
        assert (state.available[m] == state.topology.capacity[m]).all()


def test_power_wakes_draining_before_off_for_free():
    state = _powered_state(3)
    power = PowerManager(3, PowerConfig(drain_ticks=5, min_on=1,
                                        headroom=0.0))
    power.step(state, tick=0, demand_cpu=0.0)  # drains 2 and 1
    assert power.counts() == (1, 2, 0)
    cap = float(state.topology.capacity[0, 0])
    woken, _, _ = power.step(state, tick=1, demand_cpu=cap + 1.0)
    # A draining machine never finished spinning down: waking it is
    # free (no cold window).
    assert woken and all(power.cold_penalty(m, tick=1) == 0 for m in woken)
    assert power.cold_wakes == 0


def test_power_leaves_failed_machines_alone():
    state = _powered_state(3)
    # A faulted machine presents an all-zero row while still "on".
    state.available[1] = 0.0
    state.touch(1)
    power = PowerManager(3, PowerConfig(min_on=1, headroom=0.0))
    _, drained, _ = power.step(state, tick=0, demand_cpu=0.0)
    assert 1 not in drained  # never drained (it is not healthy-idle)...
    big = float(state.topology.capacity[:, 0].sum())
    woken, _, _ = power.step(state, tick=1, demand_cpu=big)
    assert 1 not in woken  # ...and never woken (a wake would repair it)
    assert not state.available[1].any()


def test_power_reclaims_warm_only_machines():
    state = _powered_state(3)
    _occupy(state, 0)
    _occupy(state, 2)
    power = PowerManager(3, PowerConfig(min_on=1, headroom=0.0))
    _, drained, reclaimed = power.step(
        state, tick=0, demand_cpu=0.0, reclaimable={2: [1002]}
    )
    # Machine 1 is empty (cheapest), machine 2 costs one reclaim.
    assert drained == [1, 2]
    assert reclaimed == [1002]


def test_power_checkpoint_restores_bit_identical():
    state = _powered_state(4)
    power = PowerManager(4, PowerConfig(min_on=1, cold_start_ticks=2,
                                        headroom=0.0))
    power.step(state, tick=0, demand_cpu=0.0)
    power.step(state, tick=1, demand_cpu=0.0)
    payload = json.loads(json.dumps(power.checkpoint()))
    clone = PowerManager(4, power.config)
    clone.restore(payload)
    assert clone.checkpoint() == power.checkpoint()
    assert clone.counts() == power.counts()


# ----------------------------------------------------------------------
# differential: the autoscale axis
# ----------------------------------------------------------------------
_TRACE_CACHE: dict = {}


def _autoscale_workload(seed, **over):
    """(trace, OnlineConfig) for one tiny ``autoscale`` scenario run;
    ``over`` overrides :class:`LifecycleConfig` knobs."""
    if seed not in _TRACE_CACHE:
        _TRACE_CACHE[seed] = build_scenario(
            "autoscale", scale=0.005, seed=seed, ticks=10, n_functions=40,
            lla_lifetime=(6, 16),
        )
    return _TRACE_CACHE[seed], OnlineConfig(
        seed=seed, scenario="autoscale", autoscale=LifecycleConfig(**over)
    )


def _run(trace, cfg, scheduler=None):
    return OnlineSimulator(trace, cfg).run(
        scheduler if scheduler is not None else AladdinScheduler()
    )


def _decisions(canonical: str) -> dict:
    """The decision-derived view of a canonical run: totals and every
    per-tick sample minus engine telemetry (explored/batch/rescue
    counters legitimately differ across ablation variants; placements
    must not)."""
    payload = json.loads(canonical)
    tele = {"explored", "batch_invocations", "rescue_attempts"}
    return {
        "totals": payload["totals"],
        "samples": [
            {k: v for k, v in s.items() if k not in tele}
            for s in payload["samples"]
        ],
    }


def test_default_off_is_bit_identical():
    """A run without a lifecycle carries no power telemetry at all."""
    trace, _ = _autoscale_workload(0)
    plain = OnlineConfig(seed=0, scenario="autoscale")
    assert '"power"' not in _run(trace, plain).canonical_json()


def test_autoscale_run_is_deterministic():
    trace, cfg = _autoscale_workload(1)
    assert _run(trace, cfg).canonical_json() == _run(
        trace, cfg
    ).canonical_json()
    assert '"power"' in _run(trace, cfg).canonical_json()


_ABLATIONS = [
    lambda: walk_blocks(AladdinScheduler()),
    lambda: loop_rescue(AladdinScheduler()),
]
_POLICIES = ["fixed", "ttl", "lru", "none"]


@pytest.mark.parametrize("seed", range(20))
def test_autoscale_parity_across_engine_variants(seed):
    """20-seed sweep rotating keep-alive policy × engine ablation: the
    degraded engine makes the exact same decisions as the default one
    at every tick of an autoscale run — placements, departures, power
    transitions and pool telemetry all identical."""
    trace, cfg = _autoscale_workload(
        seed % 5, keep_alive=_POLICIES[seed % len(_POLICIES)]
    )
    baseline = _run(trace, cfg).canonical_json()
    variant = _run(
        trace, cfg, _ABLATIONS[seed % len(_ABLATIONS)]()
    ).canonical_json()
    assert _decisions(variant) == _decisions(baseline)


@pytest.mark.parametrize("keep_alive", ["fixed", "ttl"])
def test_autoscale_served_matches_simulated(keep_alive):
    """A served autoscale run over a live socket is bit-identical to
    the simulated one: the server applies the same lifecycle windows
    and the replay client books the same penalty-stretched departures
    from the replies."""
    import os
    import shutil
    import tempfile

    from repro.serve import (
        PlacementServer,
        ServeClient,
        ServerThread,
        replay_online_schedule,
    )
    from repro.sim.online import pool_topology

    trace, cfg = _autoscale_workload(2, keep_alive=keep_alive)
    simulated = _run(trace, cfg).canonical_json()

    topology = pool_topology(trace, cfg)
    server = PlacementServer(
        AladdinScheduler(),
        ClusterState(topology, trace.constraints),
        lifecycle=LifecycleRuntime(trace, cfg.autoscale, topology.n_machines),
    )
    d = tempfile.mkdtemp(prefix="ald", dir="/tmp")
    try:
        with ServerThread(server, os.path.join(d, "s.sock")):
            with ServeClient(os.path.join(d, "s.sock")) as client:
                replies = replay_online_schedule(client, trace, cfg)
                served = client.result()
    finally:
        shutil.rmtree(d, ignore_errors=True)
    assert served == simulated
    # one place request a window: the decision log answers what its
    # reply said, warm-pool claims, penalties and pool size included
    for tick, reply in replies.items():
        logged = server._decisions_reply(tick)
        for key in ("placements", "undeployed", "penalties", "pool"):
            assert logged[key] == reply[key]


class _Interrupt(Exception):
    pass


@pytest.mark.parametrize("seed", [0, 2, 3])
def test_autoscale_checkpoint_resume_bit_identical(seed, tmp_path):
    """Kill the run at a checkpoint that provably lands mid-lifecycle —
    pool populated *and* machines draining or off — and restore: the
    resumed run is bit-identical, pool heap and power arrays included."""
    trace, cfg = _autoscale_workload(seed)
    full = _run(trace, cfg)
    busy = [
        s.tick for s in full.samples
        if s.pool_size > 0 and (s.draining_machines > 0 or s.off_machines > 0)
    ]
    assert busy, "scenario never had a populated pool during a drain"
    path = str(tmp_path / f"as-{seed}.bin")

    def crash(tick, _path):
        raise _Interrupt

    with pytest.raises(_Interrupt):
        OnlineSimulator(trace, cfg).run(
            AladdinScheduler(), checkpoint_every=busy[0] + 1,
            checkpoint_path=path, on_checkpoint=crash,
        )
    resumed = (
        OnlineSimulator(trace, cfg)
        .run(AladdinScheduler(), restore_from=path)
        .canonical_json()
    )
    assert resumed == full.canonical_json()


def test_fingerprint_pins_autoscale_knobs(tmp_path):
    """A snapshot from one lifecycle configuration must not restore
    into another — not a different keep-alive policy, and not a run
    with the lifecycle off."""
    from repro.cluster.snapshot import SnapshotError

    trace, cfg = _autoscale_workload(0)
    path = str(tmp_path / "fp.bin")
    OnlineSimulator(trace, cfg).run(
        AladdinScheduler(), checkpoint_every=4, checkpoint_path=path
    )
    _, other = _autoscale_workload(0, keep_alive="ttl")
    with pytest.raises(SnapshotError, match="fingerprint"):
        OnlineSimulator(trace, other).run(
            AladdinScheduler(), restore_from=path
        )
    plain = OnlineConfig(seed=0, scenario="autoscale")
    with pytest.raises(SnapshotError, match="fingerprint"):
        OnlineSimulator(trace, plain).run(
            AladdinScheduler(), restore_from=path
        )


# ----------------------------------------------------------------------
# acceptance: fewer machine-hours at unchanged validity
# ----------------------------------------------------------------------
def test_autoscale_saves_machine_ticks_at_unchanged_validity(tmp_path):
    """The headline contract: an autoscale run powers substantially
    fewer machine-ticks than always-on, places the same workload
    without new failures, and a mid-run snapshot's cluster state passes
    the full Eq. 7-9 audit (powered-off machines read as
    administratively down)."""
    from repro.cluster.snapshot import read_snapshot
    from repro.core.validate import validate_state

    trace, cfg = _autoscale_workload(0)
    baseline = _run(trace, OnlineConfig(seed=0, scenario="autoscale"))

    path = str(tmp_path / "mid.bin")
    sim = OnlineSimulator(trace, cfg)
    result = sim.run(
        AladdinScheduler(), checkpoint_every=5, checkpoint_path=path
    )
    pm = power_metrics(result, sim._topology.n_machines)
    assert pm.machine_ticks < pm.always_on_machine_ticks
    assert pm.savings_pct > 25.0
    assert result.total_failed <= baseline.total_failed
    assert result.total_departed == result.total_arrived

    payload = read_snapshot(path, kind="online-sim")
    state = ClusterState.from_payload(
        payload["state"], sim._topology, trace.constraints
    )
    assert validate_state(state).ok


def test_keep_alive_beats_cold_starting_everything():
    """With a pool, re-invocations hit warm containers; without one
    (``keep_alive='none'``) every function placement cold-starts. The
    pool must win on both cold starts and machine-ticks."""
    trace, pooled_cfg = _autoscale_workload(3, keep_alive="fixed")
    _, bare_cfg = _autoscale_workload(3, keep_alive="none")
    sim = OnlineSimulator(trace, pooled_cfg)
    pooled = power_metrics(sim.run(AladdinScheduler()),
                           sim._topology.n_machines)
    bare = power_metrics(_run(trace, bare_cfg), sim._topology.n_machines)
    assert bare.warm_hits == 0
    assert pooled.warm_hits > 0
    assert pooled.cold_starts < bare.cold_starts
    assert pooled.cold_start_rate < bare.cold_start_rate
    assert pooled.machine_ticks <= bare.machine_ticks


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
def test_cli_autoscale_flags_inert_without_opt_in(tmp_path, capsys):
    """Passing keep-alive knobs without ``--autoscale`` changes nothing:
    the canonical output is byte-identical to a flagless run."""
    from repro.cli import main

    plain = tmp_path / "plain.json"
    knobbed = tmp_path / "knobbed.json"
    base = ["online", "--scale", "0.01", "--ticks", "5"]
    assert main([*base, "--canonical-out", str(plain)]) == 0
    assert main([
        *base, "--keep-alive", "ttl", "--cold-start-ticks", "9",
        "--drain-ticks", "4", "--canonical-out", str(knobbed),
    ]) == 0
    assert plain.read_bytes() == knobbed.read_bytes()


def test_cli_online_autoscale_reports_power(capsys):
    from repro.cli import main

    rc = main(["online", "--scale", "0.01", "--ticks", "8", "--autoscale"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "power:" in out and "machine-ticks" in out


def test_cli_power_line_divides_by_the_always_on_run(capsys):
    """The autoscale run's horizon tail stretches it to 193 ticks; the
    always-on run of the same workload powers 120 machines for 191."""
    from repro.cli import main

    rc = main([
        "online", "--trace", "azure", "--scenario", "autoscale",
        "--scale", "0.01", "--ticks", "24", "--autoscale", "--keep-alive", "ttl",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "(always-on 22920, 79.0% saved)" in out
    trace = build_scenario("autoscale", scale=0.01, ticks=24)
    runs = {
        name: OnlineSimulator(trace, OnlineConfig(scenario="autoscale", autoscale=cfg))
        for name, cfg in (("on", None), ("ttl", LifecycleConfig(keep_alive="ttl")))
    }
    n = runs["on"]._topology.n_machines
    always_on = power_metrics(runs["on"].run(AladdinScheduler()), n).machine_ticks
    pm = power_metrics(runs["ttl"].run(AladdinScheduler()), n, always_on)
    assert (always_on, round(pm.savings_pct, 2)) == (22920, 78.97)

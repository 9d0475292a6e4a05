"""Differential harness: engine variants under identical online churn.

The engines' cross-round ledgers (the :mod:`repro.core.machindex` order,
the rescue kernel's resident ledger and memos) and the batched placement
kernel (:mod:`repro.core.batchkernel`) all claim to be pure
optimisations: for every query they return exactly what the
from-scratch computation — a fresh sort, a fresh rescue scan, the
per-container packed-first walk — would have produced.  This harness
puts the claims under load.  Each replay drives *multiple instances of
the same engine* — warm (ledgers kept across rounds) vs cold (an engine
rebuilt for every round), batched vs per-container loop, and the full
product of those axes — through an identical randomized churn stream of arrivals, departures,
machine failures and repairs (with the scheduler's own rescue
migrations and preemptions firing along the way), and asserts after
every tick that

* the scheduling round produced identical placements and identical
  failure verdicts,
* the two cluster states are indistinguishable (assignments and
  remaining capacity), and
* the optimised run actually exercised its optimisation (index
  resyncs across rounds, kernel placements > 0), so the equivalence is
  not vacuous.

The replay logic never branches on engine output (all randomness comes
from one seeded generator), so any divergence is attributable to the
variant under test alone.
"""

import gzip
import hashlib
import pathlib
from itertools import groupby
from operator import attrgetter

import numpy as np
import pytest

from benchmarks.e2e.workloads import rescue_stream
from repro.cluster.constraints import ConstraintSet
from repro.cluster.container import Application, containers_of
from repro.cluster.state import ClusterState
from repro.cluster.topology import build_cluster
from repro.core import AladdinConfig, AladdinScheduler, FlowPathSearch
from repro.core.rescuekernel import RescueKernel
from repro.sim.faults import fail_machines, repair_machines
from repro.telemetry import SchedulerTelemetry
from tests.core.rescue_loop import RescueLoop, loop_rescue
from tests.core.walk_oracle import walk_blocks
from tests.sim.test_parent_checkpoints import decisions

DATA = pathlib.Path(__file__).parent / "sim" / "data"


def track_telemetry(engine):
    """Accumulate every round's counters on ``engine.total_telemetry``.

    ``churn_replay`` discards per-round results, but the rescue axis
    asserts *decision counters* (attempts, migrations, preemptions,
    machines scanned) stay bit-identical across variants — so wrap the
    engine's ``schedule`` to merge each round's telemetry first.
    """
    total = SchedulerTelemetry()
    original = engine.schedule

    def schedule(batch, state):
        result = original(batch, state)
        if result.telemetry is not None:
            total.merge(result.telemetry)
        return result

    engine.schedule = schedule
    engine.total_telemetry = total
    return engine


def record_decisions(engine):
    """Hash every round's placements and failure verdicts, in order,
    into ``engine.decisions`` (a ``hashlib.sha256`` object)."""
    digest = hashlib.sha256()
    original = engine.schedule

    def schedule(batch, state):
        result = original(batch, state)
        digest.update(repr((
            sorted((int(c), int(m)) for c, m in result.placements.items()),
            sorted((int(c), r.value) for c, r in result.undeployed.items()),
        )).encode())
        return result

    engine.schedule = schedule
    engine.decisions = digest
    return engine


def random_apps(rng, n_apps, max_block=4):
    """A churn-shaped workload: mixed constrained/unconstrained apps.

    Demands are drawn from a small set so that apps of equal shape
    recur.  Within-rules mix machine and rack scope to exercise the
    rack-widening blacklist path.
    """
    apps = []
    for i in range(n_apps):
        conflicts = frozenset(
            j for j in range(i) if rng.random() < 0.06
        )
        apps.append(
            Application(
                app_id=i,
                n_containers=int(rng.integers(1, max_block + 1)),
                cpu=float(rng.choice([1.0, 2.0, 4.0, 8.0])),
                mem_gb=float(rng.choice([2.0, 4.0, 8.0, 16.0])),
                priority=int(rng.integers(0, 3)),
                anti_affinity_within=bool(rng.random() < 0.35),
                anti_affinity_scope="rack" if rng.random() < 0.25 else "machine",
                conflicts=conflicts,
            )
        )
    return apps


def assert_states_agree(states, tick):
    first = states[0]
    for other in states[1:]:
        assert first.assignment == other.assignment, (
            f"assignments diverged at tick {tick}"
        )
        assert np.allclose(first.available, other.available), (
            f"remaining capacity diverged at tick {tick}"
        )


def churn_replay(
    seed, make_engines, ticks=12, n_machines=24, n_apps=None, max_block=4
):
    """Drive engines through one identical randomized churn stream.

    Returns the engines after the replay so callers can inspect their
    counters.  ``n_apps`` (12-21 drawn from the seed
    when ``None``) and ``max_block`` size the stream for clusters wider
    than the default 24 machines.
    """
    rng = np.random.default_rng(seed)
    if n_apps is None:
        n_apps = int(rng.integers(12, 22))
    apps = random_apps(rng, n_apps, max_block)
    constraints = ConstraintSet.from_applications(apps)
    containers = containers_of(apps)
    by_app = {}
    for c in containers:
        by_app.setdefault(c.app_id, []).append(c)

    engines = make_engines()
    states = [
        ClusterState(build_cluster(n_machines, machines_per_rack=4), constraints)
        for _ in engines
    ]
    arrival_tick = np.sort(rng.integers(0, ticks, n_apps))
    lifetimes = rng.integers(3, 10, n_apps)
    life_of = {app.app_id: int(lifetimes[i]) for i, app in enumerate(apps)}

    departures: dict[int, list[int]] = {}
    down: list[tuple[int, int]] = []  # (repair tick, machine id)
    idx = 0
    horizon = ticks + int(lifetimes.max()) + 1
    for tick in range(horizon):
        # 1. departures — the same container ids leave both clusters.
        for cid in departures.pop(tick, ()):
            for state in states:
                if cid in state.assignment:
                    state.evict(cid)

        # 2. repairs of machines whose outage has elapsed.
        while down and down[0][0] <= tick:
            _, machine = down.pop(0)
            for state in states:
                repair_machines(state, [machine])

        # 3. an occasional machine failure; the displaced containers are
        # resubmitted with this tick's arrivals.  The victim is drawn
        # from the first state only — legal because the states were
        # asserted identical at the end of the previous tick.
        requeue = []
        if rng.random() < 0.30:
            pool = np.flatnonzero(states[0].container_count > 0)
            if pool.size:
                victim = int(rng.choice(pool))
                displaced_ids = None
                for state in states:
                    report = fail_machines(state, [victim])
                    ids = sorted(c.container_id for c in report.displaced)
                    if displaced_ids is None:
                        displaced_ids = ids
                        requeue = sorted(
                            report.displaced,
                            key=lambda c: (-c.priority, c.container_id),
                        )
                    else:
                        assert ids == displaced_ids, (
                            f"fault displaced different containers at tick {tick}"
                        )
                down.append((tick + int(rng.integers(2, 5)), victim))
                down.sort()

        # 4. arrivals.
        batch = list(requeue)
        while idx < n_apps and arrival_tick[idx] <= tick:
            batch.extend(by_app[apps[idx].app_id])
            idx += 1

        if batch:
            rounds = [engine.schedule(list(batch), state)
                      for engine, state in zip(engines, states)]
            first = rounds[0]
            for other in rounds[1:]:
                assert other.placements == first.placements, (
                    f"placements diverged at tick {tick}"
                )
                assert other.undeployed == first.undeployed, (
                    f"failure verdicts diverged at tick {tick}"
                )
            for c in batch:
                if c.container_id in first.placements:
                    end = tick + life_of[c.app_id]
                    departures.setdefault(end, []).append(c.container_id)

        assert_states_agree(states, tick)
        if idx >= n_apps and not departures and not down:
            break
    return engines


class ColdEngine:
    """An engine rebuilt for every round: nothing it learns survives to
    the next one — no machine index order, no resident ledger, no rescue
    memo.  The cold side of the warm ≡ cold axis."""

    def __init__(self, make):
        self.make = make
        self.last = make()
        self.rounds = 0
        self.rebuilds = 0

    def schedule(self, batch, state):
        self.last = self.make()
        result = self.last.schedule(batch, state)
        self.rounds += 1
        self.rebuilds += self.last.machine_index.rebuilds
        return result

    @property
    def rescue_kernel(self):
        return self.last.rescue_kernel


def aladdin_pair():
    """Warm vs cold: the default engine, kept across rounds, and its
    twin rebuilt for every round."""
    return [AladdinScheduler(), ColdEngine(AladdinScheduler)]


def aladdin_batch_pair():
    """Batched vs loop: the default engine and its twin whose blocks all
    take the per-container walk (``walk_blocks``)."""
    return [
        track_telemetry(AladdinScheduler()),
        track_telemetry(walk_blocks(AladdinScheduler())),
    ]


def aladdin_grid(wrap=lambda engine: engine):
    """The batched × warm/cold product of the vectorised engine, each
    engine passed through ``wrap`` (``loop_rescue`` for the rescue
    axis)."""
    engines = []
    for oracle in (lambda engine: engine, walk_blocks):
        def make(oracle=oracle):
            return oracle(wrap(AladdinScheduler()))
        engines += [track_telemetry(make()), track_telemetry(ColdEngine(make))]
    return engines


def kernel_blocks(engine) -> int:
    """Blocks the batch kernel placed over a tracked engine's replay."""
    return engine.total_telemetry.batch_kernel_invocations


def flowpath_pair():
    return [FlowPathSearch(), ColdEngine(FlowPathSearch)]


def assert_warm_and_cold(warm, cold):
    """The warm engine kept its index across rounds (one rebuild per
    state, every later round an incremental resync); the cold one
    rebuilt it in every round."""
    assert warm.machine_index.rebuilds == 1
    assert warm.machine_index.resyncs > 0, "replay never resynced the index"
    assert cold.rebuilds >= cold.rounds > 1


@pytest.mark.parametrize("seed", range(20))
def test_aladdin_cached_matches_cold(seed):
    """≥ 20 randomized churn replays: the engine whose cross-round
    ledgers persist and a twin rebuilt for every round agree on every
    placement at every tick, and the ledgers are demonstrably carried
    across rounds on the warm side only.  (Until the cross-round
    feasibility cache was deleted this pair was cache on / cache off.)"""
    warm, cold = churn_replay(seed, aladdin_pair)
    assert_warm_and_cold(warm, cold)


@pytest.mark.parametrize("seed", range(5))
def test_flowpath_cached_matches_cold(seed):
    """The reference flow-network engine honours the same contract."""
    warm, cold = churn_replay(seed, flowpath_pair)
    assert_warm_and_cold(warm, cold)


@pytest.mark.parametrize("seed", range(20))
def test_aladdin_batched_matches_loop(seed):
    """≥ 20 randomized churn replays across the batched×loop axis: the
    default engine (batch kernel on) and its per-container-loop twin
    agree on every placement at every tick, and the kernel is
    demonstrably in play on the batched side only."""
    batched, loop = churn_replay(seed, aladdin_batch_pair)
    assert kernel_blocks(batched) > 0, "replay never exercised the kernel"
    assert kernel_blocks(loop) == 0, "loop engine must not batch"


@pytest.mark.parametrize("seed", [0, 1])
def test_aladdin_batched_matches_loop_on_a_wide_cluster(seed):
    """The batched×loop axis on 2,000 machines with blocks of up to 60:
    the candidate windows ``_batch_place`` reads (``max(64, 2k)``
    positions) are far narrower than the order here, where on the
    24-machine replays above the first window is always the whole
    cluster."""
    batched, loop = churn_replay(
        seed, aladdin_batch_pair, n_machines=2000, n_apps=320, max_block=60
    )
    # the kernel placed 333 / 336 blocks (~9,500 / 10,000 containers)
    # on seeds 0 / 1
    assert kernel_blocks(batched) > 300
    assert kernel_blocks(loop) == 0


@pytest.mark.parametrize("seed", [3, 11, 17])
def test_engine_grid_agrees_under_churn(seed):
    """The full batched×loop×warm/cold×engine grid — four Aladdin
    variants plus the reference flow engine warm and cold, and the flow
    engine with IL off, which tests each machine on its path with
    ``VectorCapacity`` and the blacklist instead of one admit mask —
    replays one churn stream with identical placements throughout."""
    engines = churn_replay(
        seed,
        lambda: aladdin_grid() + flowpath_pair()
        + [FlowPathSearch(AladdinConfig(enable_il=False))],
    )
    assert kernel_blocks(engines[0]) > 0
    assert all(kernel_blocks(e) == 0 for e in engines[2:4])


@pytest.mark.parametrize("seed", [2, 9, 14])
def test_aladdin_grid_agrees_under_churn(seed):
    """The batched×warm/cold product of the vectorised engine on its
    own — four variants — replays one churn stream with identical
    placements throughout."""
    engines = churn_replay(seed, aladdin_grid)
    assert kernel_blocks(engines[0]) > 0 and kernel_blocks(engines[1]) > 0
    assert all(kernel_blocks(e) == 0 for e in engines[2:])
    assert_warm_and_cold(engines[0], engines[1])


# ----------------------------------------------------------------------
# the decisions of the deleted parallel sweep
#
# The rack-sharded parallel sweep (``AladdinConfig(workers=...)``) was
# deleted at the commit after 4fe1a11.  Until then these replays ran it
# beside the serial engine and asserted the two agreed at every tick.
# Each digest below is the ``record_decisions`` hash of the sweep's own
# decision stream on that replay, recorded at 4fe1a11 with
# ``workers=2`` (and, for the grid seeds, with every workers 1/2/3 ×
# batched × cached variant — all twelve hashed alike); the serial
# engine at 4fe1a11 hashed the same.  The serial engines here must
# still reproduce them (the grid's cached axis is now warm/cold).
# ----------------------------------------------------------------------
#: churn-replay seed -> decision digest of the sweep at 4fe1a11 (the
#: reference flow engine's sweep produced the same streams)
SWEEP_DECISIONS = {
    0: "fe4c0b17d9f722b41186b261f5bd2a3275085e84912731b34a6ba1be225fb4b5",
    1: "9d0d82ae9445d4a105ef0edc161b41603442709c007bb79ab215783565f58b19",
    2: "c6ec3330b81c8866934eaad38c4622296c41b2a16403eb1cb8c6426a8e654622",
    3: "bdc2174af30c354dca299fd775164d00af3068be6af2b9399f394d040630e676",
    4: "a64526c4a73b9eebb6f8b49fc3f9a0419c6f409460aa6469a607a86fc9d682bc",
    5: "37ee598ad6e1c8782a36ae8ea1f7fb393e6418090adacc62dbe8c890d0dfe6fe",
    6: "495e09e4f7a3c3726e0824f8a8b1618fcbd4ea3e753a45684421183461b9351e",
    7: "46891cf777f2d3b89e522b676de2ac7409a8774c8c40c5b3e77884916e4a09b8",
    8: "57d506870a5f94c3f28838245927915afde5c9836f9c69140082016d7ce1807e",
    9: "ea07d890a25c701678d9e4fab26c42ebb4b68c6c4d84158e6dcea92f925819e7",
    10: "3056e4ccdd38fb69aa35f671870a6437480fe9998a66c7a7ee38bef094265870",
    11: "985d660e59b79afd2871bcacfbef22dd177c6bf414e59320745f9cf297e8c3d0",
    12: "84cb6bc723318a41469a9913fac728ef6d425955fce155e897d6bdcfea3925c3",
    13: "942dcd832b87af352e06d24241bcee511bbdc865d07b8ba95a1055fad119cfd8",
    14: "27e79d706e85194235232d56b1d855948c70a142cf9f269c4ab199debea7cf72",
    15: "3363551d17b525d243c35641b75786dd7e2710630310c1d3f69007f665af7bb4",
    16: "53139a5c852149adac74d91911437634d6c9db14d92ce7a0d3a84c1cd3212ad2",
    17: "0a0ea79b1b74f8948fbb1633c8ed04c4bd297a526da70e041cbd031122da6a41",
    18: "927c164cb3de98991d4b219e895f94ee3a13d7372a00a84dbb3e5c00f2115f93",
    19: "341cada199f8447baec416cd448b27651ba2d38bb972567775327894fa127111",
}


def recorded(make_engines):
    return lambda: [record_decisions(e) for e in make_engines()]


@pytest.mark.parametrize("seed", range(20))
def test_aladdin_parallel_matches_serial(seed):
    """≥ 20 randomized churn replays: the serial engine makes, at every
    tick, the decisions the parallel sweep made on the same stream."""
    (serial,) = churn_replay(seed, recorded(lambda: [AladdinScheduler()]))
    assert serial.decisions.hexdigest() == SWEEP_DECISIONS[seed]


@pytest.mark.parametrize("seed", [2, 9, 14])
def test_aladdin_parallel_grid_agrees_under_churn(seed):
    """The twelve-variant workers×batched×cached grid agreed on one
    decision stream per seed; the four batched×warm/cold variants
    reproduce it."""
    engines = churn_replay(seed, recorded(aladdin_grid))
    assert {e.decisions.hexdigest() for e in engines} == {
        SWEEP_DECISIONS[seed]
    }


@pytest.mark.parametrize("seed", range(5))
def test_flowpath_parallel_matches_serial(seed):
    """The reference flow-network engine's sweep answered its k=1
    queries with the same decisions; the serial engine still does."""
    (serial,) = churn_replay(seed, recorded(lambda: [FlowPathSearch()]))
    assert serial.decisions.hexdigest() == SWEEP_DECISIONS[seed]


def aladdin_rescue_pair():
    return [
        track_telemetry(AladdinScheduler()),
        track_telemetry(loop_rescue(AladdinScheduler())),
    ]


def flowpath_rescue_pair():
    return [
        track_telemetry(FlowPathSearch()),
        track_telemetry(loop_rescue(FlowPathSearch())),
    ]


def aladdin_rescue_grid():
    """The rescue×batched×warm/cold product of the vectorised engine:
    the four batched×warm/cold variants with the kernel, then with the
    loop."""
    return aladdin_grid() + aladdin_grid(loop_rescue)


RESCUE_DECISION_COUNTERS = (
    "rescue_attempts",
    "rescue_migrations",
    "rescue_preemptions",
    "rescue_machines_scanned",
)


def assert_rescue_decisions_agree(kernel, oracle):
    """The kernel may change *costs* (explored) but never
    *decisions*: the rescue-decision counters must match the loop
    oracle's exactly.  Every kernel-side attempt went through the
    kernel, and the oracle side really planned with the loop, so the
    two sides are not one planner compared with itself."""
    for name in RESCUE_DECISION_COUNTERS:
        assert getattr(kernel.total_telemetry, name) == getattr(
            oracle.total_telemetry, name
        ), f"{name} diverged across the rescue axis"
    assert (
        kernel.rescue_kernel.invocations
        == kernel.total_telemetry.rescue_attempts
    )
    assert isinstance(oracle.rescue_kernel, RescueLoop)


@pytest.mark.parametrize("seed", range(20))
def test_aladdin_rescue_kernel_matches_loop(seed):
    """≥ 20 randomized churn replays on a deliberately tight cluster
    (rescues actually fire there): the vectorized rescue kernel and the
    per-machine loop oracle agree on every placement at every tick, and
    the rescue decision counters are bit-identical."""
    kernel, oracle = churn_replay(
        seed, aladdin_rescue_pair, n_machines=10
    )
    assert_rescue_decisions_agree(kernel, oracle)


@pytest.mark.parametrize("seed", range(5))
def test_flowpath_rescue_kernel_matches_loop(seed):
    """The reference flow-network engine honours the same contract —
    its rescues route through the identical planner."""
    kernel, oracle = churn_replay(
        seed, flowpath_rescue_pair, n_machines=10
    )
    assert_rescue_decisions_agree(kernel, oracle)


@pytest.mark.parametrize("seed", [2, 5, 13])
def test_rescue_grid_agrees_under_churn(seed):
    """The rescue×batched×warm/cold product — eight Aladdin variants —
    replays one tight-cluster churn stream with identical placements
    throughout, so the kernel composes with every other optimisation
    axis rather than merely with the default configuration."""
    engines = churn_replay(seed, aladdin_rescue_grid, n_machines=10)
    assert all(isinstance(e.rescue_kernel, RescueKernel) for e in engines[:4])
    assert all(isinstance(e.rescue_kernel, RescueLoop) for e in engines[4:])


@pytest.mark.parametrize("seed", [2, 7])
def test_cross_engine_rescue_agrees_on_tight_cluster(seed):
    """Both engines, each with the kernel and with the loop oracle, on
    the tight cluster where the flow engine's requeue pass used to drop
    victims the vectorised engine migrated — the four-way replay pins
    the shared ``drain_requeue``/``final_repair`` semantics."""
    churn_replay(
        seed,
        lambda: [
            AladdinScheduler(),
            loop_rescue(AladdinScheduler()),
            FlowPathSearch(),
            loop_rescue(FlowPathSearch()),
        ],
        n_machines=10,
    )


def test_rescue_kernel_demonstrably_in_play():
    """The tight-cluster replays must actually exercise the kernel —
    aggregate invocations across the seed range are positive, every
    attempt on the kernel side is one of them, and the other side plans
    with the loop — so the rescue-axis equivalence above is not
    vacuous."""
    total = 0
    for seed in range(8):
        kernel, oracle = churn_replay(
            seed, aladdin_rescue_pair, n_machines=10
        )
        total += kernel.rescue_kernel.invocations
        assert (
            kernel.rescue_kernel.invocations
            == kernel.total_telemetry.rescue_attempts
        )
        assert isinstance(oracle.rescue_kernel, RescueLoop)
    assert total > 0, "no replay ever invoked the rescue kernel"


def tight_pool_replay(seed, n_apps, make_engines, churn_ticks=10):
    """Drive engines through one pool of the e2e ruler's ``tight-rescue``
    stream (``benchmarks.e2e.workloads.rescue_stream``: the fill asks
    for 1.06× the pool's CPU, then a stationary churn of conflict-dense
    applications, every arriving application its own round).

    The 10-machine pool of :func:`churn_replay` is tight by accident of
    the draw and mostly fails for lack of *blockers to move*; this one
    is over-offered by construction, so most relocation queries find no
    machine that dominates the mover's demand — the regime where the
    kernel stops at Equation 6 and never reads the blacklist.
    """
    stream = rescue_stream(0, seed, n_apps, churn_ticks)
    engines = make_engines()
    states = pool_states(stream.applications, stream.n_machines, engines)
    undeployed = 0
    for i, batch in enumerate(stream.fill):
        undeployed += schedule_agreeing(
            engines, states, batch, f"fill round {i}"
        ).n_undeployed
    for tick, (departing, arriving) in enumerate(stream.churn):
        for state in states:
            state.evict_block(departing)
        for _, block in groupby(arriving, key=attrgetter("app_id")):
            undeployed += schedule_agreeing(
                engines, states, list(block), f"churn tick {tick}"
            ).n_undeployed
    return engines, undeployed


def pool_states(applications, n_machines, engines):
    """One fresh state per engine on a pool of 8-machine racks."""
    constraints = ConstraintSet.from_applications(applications)
    return [
        ClusterState(build_cluster(n_machines, machines_per_rack=8), constraints)
        for _ in engines
    ]


def schedule_agreeing(engines, states, batch, label):
    """Schedule ``batch`` on every engine; assert identical placements,
    failure verdicts and post-round states, and return the first
    engine's result."""
    rounds = [
        engine.schedule(list(batch), state)
        for engine, state in zip(engines, states)
    ]
    for other in rounds[1:]:
        assert other.placements == rounds[0].placements, (
            f"placements diverged at {label}"
        )
        assert other.undeployed == rounds[0].undeployed, (
            f"failure verdicts diverged at {label}"
        )
    assert_states_agree(states, label)
    return rounds[0]


@pytest.mark.parametrize(
    "seed,n_apps", [(0, 90), (1, 90), (2, 60), (3, 60), (4, 150)]
)
def test_aladdin_rescue_kernel_matches_loop_at_offered_load_above_one(
    seed, n_apps
):
    """The rescue axis on a pool offered 1.06× its CPU: kernel and
    loop oracle agree on every placement, every failure verdict, every
    post-round state and every rescue decision counter
    (``rescue_machines_scanned`` included) — and placements really do
    fail there, so rescue runs out of room rather than out of work."""
    (kernel, oracle), undeployed = tight_pool_replay(
        seed, n_apps, aladdin_rescue_pair
    )
    assert_rescue_decisions_agree(kernel, oracle)
    assert kernel.total_telemetry.rescue_attempts > 20
    assert kernel.total_telemetry.rescue_migrations > 0
    assert undeployed > 0, "pool not over-offered: nothing stayed undeployed"


# ----------------------------------------------------------------------
# the second regime: a pool where machines do fit
#
# The stream below is the one ``bench_report --mode rescue`` timed the
# kernel against the loop on (``BENCH_rescue.json``, until the e2e
# ruler's ``tight-rescue`` took over the timing).  Its fill packs the
# pool to ``util_target`` < 1, so — unlike the over-offered pools
# above — relocation targets usually exist, and rescues end in plans
# rather than at Equation 6.
# ----------------------------------------------------------------------
def rescue_apps(rng, n_apps: int, start_id: int = 0, hot: bool = False):
    """Conflict-heavy applications that make placements collide.

    Conflicts are drawn against the trailing 60 applications so the
    blacklists stay dense as the stream grows; ``hot`` arrivals carry
    priority 1–3, which is what arms the preemption strategy against
    the priority-0 residents of the fill phase.
    """
    apps = []
    for i in range(start_id, start_id + n_apps):
        conflicts = frozenset(
            j for j in range(max(0, i - 60), i) if rng.random() < 0.15
        )
        apps.append(
            Application(
                app_id=i,
                n_containers=int(rng.integers(1, 6)),
                cpu=float(rng.choice([2.0, 4.0, 8.0, 12.0, 16.0, 24.0])),
                mem_gb=float(rng.choice([4.0, 8.0, 16.0, 32.0])),
                priority=int(rng.integers(1, 4)) if hot else int(rng.integers(0, 3)),
                anti_affinity_within=bool(rng.random() < 0.5),
                anti_affinity_scope="rack" if rng.random() < 0.25 else "machine",
                conflicts=conflicts,
            )
        )
    return apps


def build_rescue_stream(
    seed: int, n_apps: int, util_target: float, churn_ticks: int
):
    """One deterministic fill+churn stream every engine replays.

    The machine pool is sized so that the fill phase alone lands at
    ``util_target`` CPU utilisation — every churn arrival after that
    has to fight for space through the rescue path.
    """
    rng = np.random.default_rng(seed)
    fill = rescue_apps(rng, n_apps)
    churn = []
    next_id = n_apps
    all_apps = list(fill)
    for t in range(churn_ticks):
        newapps = rescue_apps(rng, 6, start_id=next_id, hot=True)
        next_id += 6
        departs = [
            int(x)
            for x in rng.choice(n_apps + t * 6, size=6, replace=False)
        ]
        churn.append((newapps, departs))
        all_apps.extend(newapps)
    containers = containers_of(all_apps)
    by_app: dict[int, list] = {}
    for c in containers:
        by_app.setdefault(c.app_id, []).append(c)
    fill_cpu = sum(c.cpu for a in fill for c in by_app[a.app_id])
    n_machines = max(4, int(np.ceil(fill_cpu / (32.0 * util_target))))
    return all_apps, fill, churn, by_app, n_machines


def fitting_pool_replay(seed, n_apps, churn_ticks, make_engines):
    """Drive engines through :func:`build_rescue_stream` at 0.96 fill:
    the fill in rounds of ten applications, then per churn tick the
    departures out and the six hot arrivals in as one round.  Returns
    the engines and the (placed, failed) container counts."""
    all_apps, fill, churn, by_app, n_machines = build_rescue_stream(
        seed, n_apps, 0.96, churn_ticks
    )
    engines = make_engines()
    states = pool_states(all_apps, n_machines, engines)
    placed = failed = 0

    def schedule(apps, label):
        nonlocal placed, failed
        batch = [c for app in apps for c in by_app[app.app_id]]
        result = schedule_agreeing(engines, states, batch, label)
        placed += len(result.placements)
        failed += result.n_undeployed

    for i in range(0, len(fill), 10):
        schedule(fill[i : i + 10], f"fill round {i // 10}")
    for tick, (newapps, departs) in enumerate(churn):
        for state in states:
            for app_id in departs:
                for c in by_app[app_id]:
                    if c.container_id in state.assignment:
                        state.evict(c.container_id)
        schedule(newapps, f"churn tick {tick}")
    return engines, (placed, failed)


#: (n_apps, churn ticks) -> (placed, failed) containers and the
#: :data:`RESCUE_DECISION_COUNTERS` that ``bench_report --mode rescue``
#: printed for both its variants, kernel and loop, on the last commit
#: that had it.  (The committed ``BENCH_rescue.json`` was older and
#: recorded 1099, 21, 85, 84, 4, 5705 at the larger size: rescue
#: decisions changed between the two, on both paths alike.)
FITTING_POOL_RECORD = {
    (80, 6): (353, 10, 50, 49, 7, 732),
    (240, 20): (1102, 19, 89, 93, 5, 5560),
}


@pytest.mark.parametrize("n_apps,churn_ticks", list(FITTING_POOL_RECORD))
def test_aladdin_rescue_kernel_matches_loop_where_machines_fit(
    n_apps, churn_ticks
):
    """The rescue axis on the second regime (seed 0, 0.96 fill), at
    the bench's smoke and committed sizes: kernel and loop oracle agree
    on every placement, failure verdict, post-round state and rescue
    decision counter, rescues do run, and the counts are the ones the
    bench last printed."""
    (kernel, oracle), (placed, failed) = fitting_pool_replay(
        0, n_apps, churn_ticks, aladdin_rescue_pair
    )
    assert_rescue_decisions_agree(kernel, oracle)
    tele = kernel.total_telemetry
    assert tele.rescue_attempts > 0
    assert (placed, failed) + tuple(
        getattr(tele, name) for name in RESCUE_DECISION_COUNTERS
    ) == FITTING_POOL_RECORD[(n_apps, churn_ticks)]


# ----------------------------------------------------------------------
# checkpoint × batched axis: a run killed at tick k
# and restored from its snapshot finishes bit-identical (canonical JSON,
# including telemetry counters) to the uninterrupted run.
# ----------------------------------------------------------------------
class _Interrupt(Exception):
    """Simulated crash raised from the on_checkpoint hook."""


_ONLINE_TRACE = None


def _online_trace():
    global _ONLINE_TRACE
    if _ONLINE_TRACE is None:
        from repro.trace import generate_trace

        _ONLINE_TRACE = generate_trace(scale=0.02, seed=0)
    return _ONLINE_TRACE


def checkpoint_resume_canonical(seed, make_scheduler, tmp_path, every):
    """(uninterrupted, resumed) canonical JSON for one churn stream.

    The interrupted run dies — via an exception from the crash hook —
    immediately after its first snapshot hits the disk; a fresh
    simulator plus a *fresh* scheduler instance then restores from that
    snapshot and runs to completion.
    """
    from repro.sim.online import OnlineConfig, OnlineSimulator

    trace = _online_trace()
    cfg = OnlineConfig(ticks=15, seed=seed)
    full = OnlineSimulator(trace, cfg).run(make_scheduler()).canonical_json()

    path = str(tmp_path / f"ckpt-{seed}.bin")

    def crash(tick, _path):
        raise _Interrupt

    with pytest.raises(_Interrupt):
        OnlineSimulator(trace, cfg).run(
            make_scheduler(), checkpoint_every=every, checkpoint_path=path,
            on_checkpoint=crash,
        )
    resumed = (
        OnlineSimulator(trace, cfg)
        .run(make_scheduler(), restore_from=path)
        .canonical_json()
    )
    return full, resumed


@pytest.mark.parametrize("seed", range(20))
def test_checkpoint_resume_bit_identical(seed, tmp_path):
    """≥ 20 randomized churn streams, each killed right after a
    seed-dependent checkpoint tick and restored: the resumed run's
    canonical JSON — totals, telemetry counters and every per-tick
    sample — equals the uninterrupted run's exactly."""
    full, resumed = checkpoint_resume_canonical(
        seed, AladdinScheduler, tmp_path, every=5 + 11 * (seed % 9)
    )
    assert resumed == full


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("variant", ["no-batch"])
def test_checkpoint_resume_across_ablation_grid(seed, variant, tmp_path):
    """The checkpoint axis composes with the batched ablation: the
    engine whose blocks all take the per-container walk restores
    bit-identically too."""
    full, resumed = checkpoint_resume_canonical(
        seed, lambda: walk_blocks(AladdinScheduler()), tmp_path,
        every=20 + 13 * seed,
    )
    assert resumed == full


def rescue_dense_trace():
    """120 :func:`rescue_apps` on a 50-machine pool: an online run
    that rescues on most ticks while applications still arrive."""
    from repro.trace.schema import Trace, TraceConfig

    apps = rescue_apps(np.random.default_rng(0), 120)
    return Trace(config=TraceConfig(scale=0.005), applications=apps)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_restore_of_an_image_without_a_rescue_kernel(seed, tmp_path):
    """An engine configured to plan rescues with the per-machine loop —
    an option that no longer exists — wrote ``"rescue_kernel": None``
    into its snapshots.  Restored onto the one-path engine, such an
    image does not raise, the kernel starts cold, and the resumed run
    makes the uninterrupted run's decisions: the same totals and
    per-sample decision fields, with rescues running after the
    snapshot.  Cost counters (``explored``), which a cold
    kernel charges differently, are not compared."""
    from repro.cluster.snapshot import read_snapshot, write_snapshot
    from repro.sim.online import OnlineConfig, OnlineSimulator

    trace = rescue_dense_trace()
    cfg = OnlineConfig(ticks=15, seed=seed, machine_pool_factor=1.0)
    full = OnlineSimulator(trace, cfg).run(AladdinScheduler()).canonical_json()

    path = str(tmp_path / f"ckpt-{seed}.bin")

    def crash(tick, _path):
        raise _Interrupt

    with pytest.raises(_Interrupt):
        OnlineSimulator(trace, cfg).run(
            AladdinScheduler(), checkpoint_every=6 + 2 * seed,
            checkpoint_path=path, on_checkpoint=crash,
        )
    payload = read_snapshot(path, kind="online-sim")
    assert payload["engine"]["rescue_kernel"]["invocations"] > 0
    payload["engine"]["rescue_kernel"] = None
    write_snapshot(path, payload, kind="online-sim")

    engine = AladdinScheduler()
    restore = engine.restore_checkpoint
    restored = []

    def restore_and_look(image, state):
        restore(image, state)
        restored.append(engine.rescue_kernel.checkpoint())

    engine.restore_checkpoint = restore_and_look
    resumed = (
        OnlineSimulator(trace, cfg)
        .run(engine, restore_from=path)
        .canonical_json()
    )
    assert restored == [RescueKernel().checkpoint()], (
        "the kernel did not start cold"
    )
    assert engine.rescue_kernel.invocations > 0
    assert decisions(resumed) == decisions(full)


#: seed -> sha256 of the uninterrupted serial run's canonical JSON at
#: 4fe1a11, with ``telemetry.parallel_sweeps`` removed, re-recorded
#: when the counter of kernel-planned rescues left the telemetry and
#: the samples, again when the feasibility cache's counters did, and
#: again when the LP window engine's ``solver_calls`` /
#: ``solver_rounding_repairs`` did: each time the canonical JSON of the
#: commit before that change with those keys removed too
WORKERS2_SERIAL_DIGESTS = {
    0: "a6828b9d122a9f293ce7bdd26f481cac9433268cd1bf8c1bda8be81707dc1c1c",
    3: "b6b84a9b07b4d743c0122776a259f9ac17a755e4ee0cd04de8fe5aa9da073999",
}


@pytest.mark.parametrize("seed", [0, 3])
def test_checkpoint_resume_with_workers(seed, tmp_path):
    """A ``workers=2`` run killed after its first snapshot, resumed on
    the serial engine.  ``data/churn-workers2-seed{0,3}.ckpt.gz`` are
    the snapshots 4fe1a11 wrote for this stream with
    ``AladdinConfig(workers=2)`` and ``every=25 + 10 * seed`` (ticks 24
    and 54); their engine images carry the sweep's ``parallel`` entry.
    The resumed run's totals and per-sample decisions equal the
    uninterrupted serial run's; the cost counters of the ticks the
    sweep planned are its own and are not compared."""
    from repro.sim.online import OnlineConfig, OnlineSimulator

    path = tmp_path / f"ckpt-{seed}.bin"
    path.write_bytes(gzip.decompress(
        (DATA / f"churn-workers2-seed{seed}.ckpt.gz").read_bytes()
    ))
    trace = _online_trace()
    cfg = OnlineConfig(ticks=15, seed=seed)
    full = OnlineSimulator(trace, cfg).run(AladdinScheduler()).canonical_json()
    resumed = (
        OnlineSimulator(trace, cfg)
        .run(AladdinScheduler(), restore_from=str(path))
        .canonical_json()
    )
    assert hashlib.sha256(full.encode()).hexdigest() == (
        WORKERS2_SERIAL_DIGESTS[seed]
    )
    assert decisions(resumed) == decisions(full)


@pytest.mark.parametrize("seed", [0, 4])
def test_checkpoint_resume_flowpath_engine(seed, tmp_path):
    """The reference flow-network engine honours the same contract."""
    full, resumed = checkpoint_resume_canonical(
        seed, FlowPathSearch, tmp_path, every=30 + 8 * seed
    )
    assert resumed == full


def test_checkpoint_resume_samples_nonzero_violations_identically(tmp_path):
    """A restored state carries no violation tally (it is not in the
    checkpoint) and recounts on its first sample: with a scheduler that
    places violations on purpose, every sample after the restore point
    still reads exactly what the uninterrupted run read."""
    import json

    from repro.baselines import MedeaScheduler, MedeaWeights

    every = 20
    full, resumed = checkpoint_resume_canonical(
        1, lambda: MedeaScheduler(MedeaWeights(c=1.0)), tmp_path, every=every
    )
    assert resumed == full
    after_restore = json.loads(resumed)["samples"][every:]
    assert len({s["violations"] for s in after_restore}) > 5
    assert all(s["violations"] > 0 for s in after_restore[:50])


def test_checkpoint_fingerprint_mismatch_rejected(tmp_path):
    """A snapshot cannot be restored into a run with a different seed,
    tick count or scheduler — the fingerprint check fails loudly
    instead of silently splicing incompatible histories."""
    from repro.cluster.snapshot import SnapshotError
    from repro.sim.online import OnlineConfig, OnlineSimulator

    trace = _online_trace()
    path = str(tmp_path / "ckpt.bin")

    def crash(tick, _path):
        raise _Interrupt

    with pytest.raises(_Interrupt):
        OnlineSimulator(trace, OnlineConfig(ticks=15, seed=1)).run(
            AladdinScheduler(), checkpoint_every=10, checkpoint_path=path,
            on_checkpoint=crash,
        )
    with pytest.raises(SnapshotError, match="fingerprint"):
        OnlineSimulator(trace, OnlineConfig(ticks=15, seed=2)).run(
            AladdinScheduler(), restore_from=path
        )
    with pytest.raises(SnapshotError, match="fingerprint"):
        OnlineSimulator(trace, OnlineConfig(ticks=15, seed=1)).run(
            FlowPathSearch(), restore_from=path
        )


def test_replay_exercises_mixed_churn():
    """The harness itself must generate the mix the ISSUE demands:
    across the replay seeds there are departures, faults, repairs and
    rescue activity — not just a pure arrival stream."""
    total_resyncs = 0
    for seed in range(6):
        warm, _ = churn_replay(seed, aladdin_pair)
        total_resyncs += warm.machine_index.resyncs
    # Rescue evidence: a deliberately tight cluster must trigger the
    # migration/preemption/overflow machinery the replays rely on.
    rng = np.random.default_rng(1234)
    apps = random_apps(rng, 16)
    constraints = ConstraintSet.from_applications(apps)
    state = ClusterState(build_cluster(10, machines_per_rack=5), constraints)
    engine = AladdinScheduler()
    result = engine.schedule(containers_of(apps), state)
    saw_migration_or_preemption = (
        result.migrations > 0 or result.preemptions > 0 or result.n_undeployed > 0
    )
    assert total_resyncs > 0
    assert saw_migration_or_preemption, (
        "workload too easy: no rescue/preemption/overflow pressure at all"
    )


# ----------------------------------------------------------------------
# serving axis: the same seeded arrival/departure schedule, replayed
# through a live `repro serve` server and through the in-process
# OnlineSimulator, must produce bit-identical canonical JSON — the
# served run IS the simulated run, window for window, across the
# batched axis.
# ----------------------------------------------------------------------
SERVE_VARIANTS = {
    "default": AladdinScheduler,
    "no-batch": lambda: walk_blocks(AladdinScheduler()),
}


def _served_canonical(make_scheduler, trace, cfg):
    """Canonical JSON of ``trace``'s schedule served over a live socket."""
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

    topology = pool_topology(trace, cfg)
    server = PlacementServer(
        make_scheduler(), ClusterState(topology, trace.constraints)
    )
    # Unix socket paths are capped around 100 chars — short /tmp dir,
    # not pytest's deeply nested tmp_path.
    d = tempfile.mkdtemp(prefix="ald", dir="/tmp")
    try:
        with ServerThread(server, os.path.join(d, "s.sock")):
            with ServeClient(os.path.join(d, "s.sock")) as client:
                replay_online_schedule(client, trace, cfg)
                return client.result()
    finally:
        shutil.rmtree(d, ignore_errors=True)


@pytest.mark.parametrize("variant", sorted(SERVE_VARIANTS))
def test_served_decisions_match_simulated(variant):
    """One request per simulated tick through the serving stack: the
    server's coalesced windows reproduce the simulator's run exactly —
    totals, per-tick samples and telemetry counters all bit-identical,
    for the default engine and its batched ablation."""
    from repro.sim.online import OnlineConfig, OnlineSimulator

    make_scheduler = SERVE_VARIANTS[variant]
    trace = _online_trace()
    cfg = OnlineConfig(ticks=20, seed=3)
    simulated = (
        OnlineSimulator(trace, cfg).run(make_scheduler()).canonical_json()
    )
    served = _served_canonical(make_scheduler, trace, cfg)
    assert served == simulated


def test_served_replay_is_deterministic():
    """Two independent served replays of the same schedule produce the
    same canonical JSON — the serving loop adds no hidden state."""
    from repro.sim.online import OnlineConfig

    trace = _online_trace()
    cfg = OnlineConfig(ticks=12, seed=9)
    first = _served_canonical(AladdinScheduler, trace, cfg)
    second = _served_canonical(AladdinScheduler, trace, cfg)
    assert first == second


# ----------------------------------------------------------------------
# Azure-fallback scenario workloads: the serverless churn differential
#
# The scenario families of repro.trace.scenarios put orders of magnitude
# more arrival/departure churn through the engines than the LLA-only
# stream above — short-lived function containers cycling every few
# ticks over a resident constrained-LLA base.  Every bit-identity
# contract proven on the synthetic trace must hold here too, on a
# workload whose schedule is decoded from application names rather than
# sampled from the config seed.
# ----------------------------------------------------------------------
_SCENARIO_FAMILIES = ["diurnal", "burst", "churn-storm", "mixed-lla"]
_SCENARIO_CACHE: dict = {}


def _scenario_workload(seed):
    """(trace, OnlineConfig) for one tiny azure-fallback scenario.

    Seeds rotate through the four families, so a 20-seed sweep covers
    every family five times on five different fallback datasets.
    """
    from repro.sim.online import OnlineConfig
    from repro.trace import build_scenario

    name = _SCENARIO_FAMILIES[seed % len(_SCENARIO_FAMILIES)]
    key = (name, seed)
    if key not in _SCENARIO_CACHE:
        _SCENARIO_CACHE[key] = build_scenario(
            name, scale=0.005, seed=seed, ticks=10, n_functions=40,
            lla_lifetime=(6, 16),
        )
    return _SCENARIO_CACHE[key], OnlineConfig(seed=seed, scenario=name)


def scenario_churn_replay(seed, make_engines):
    """Drive engine variants through one identical scenario stream.

    Same per-tick contract as ``churn_replay`` — identical placements,
    identical failure verdicts, indistinguishable states — but the
    stream is the scenario's name-encoded arrival/departure plan
    instead of a randomized one.
    """
    from repro.sim.online import arrival_schedule, pool_topology

    trace, cfg = _scenario_workload(seed)
    sched = arrival_schedule(trace, cfg)
    engines = make_engines()
    states = [
        ClusterState(pool_topology(trace, cfg), trace.constraints)
        for _ in engines
    ]
    departures: dict[int, list[int]] = {}
    idx = 0
    for tick in range(sched.horizon):
        for cid in departures.pop(tick, ()):
            for state in states:
                if cid in state.assignment:
                    state.evict(cid)
        batch = []
        while idx < len(sched.apps) and sched.arrival_tick[idx] <= tick:
            batch.extend(sched.by_app[sched.apps[idx].app_id])
            idx += 1
        if batch:
            rounds = [
                engine.schedule(list(batch), state)
                for engine, state in zip(engines, states)
            ]
            first = rounds[0]
            for other in rounds[1:]:
                assert other.placements == first.placements, (
                    f"placements diverged at tick {tick}"
                )
                assert other.undeployed == first.undeployed, (
                    f"failure verdicts diverged at tick {tick}"
                )
            for c in batch:
                if c.container_id in first.placements:
                    end = tick + sched.life_of[c.app_id]
                    departures.setdefault(end, []).append(c.container_id)
        assert_states_agree(states, tick)
        if idx >= len(sched.apps) and not departures:
            break
    return engines


@pytest.mark.parametrize("seed", range(20))
def test_azure_scenario_cached_matches_cold(seed):
    """20 azure-fallback scenario replays (every family × five seeds):
    the warm engine and its twin rebuilt for every round agree on every
    placement at every tick of the serverless churn, and the ledgers
    are demonstrably carried across rounds on the warm side only."""
    warm, cold = scenario_churn_replay(seed, aladdin_pair)
    assert_warm_and_cold(warm, cold)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_azure_scenario_batched_matches_loop(seed):
    """The batched×loop axis holds on every scenario family too."""
    batched, loop = scenario_churn_replay(seed, aladdin_batch_pair)
    assert kernel_blocks(batched) > 0
    assert kernel_blocks(loop) == 0


#: scenario seed -> decision digest of the ``workers=2`` sweep at 4fe1a11
SCENARIO_SWEEP_DECISIONS = {
    1: "34d64333186f367594a76de052d542fd3e57b946c0edacb527c43a19bd56f6eb",
    2: "6680dde8b2a8188c2f0a0fa61ce4f244361a830f4548c6201a36d96e7840eee6",
}


@pytest.mark.parametrize("seed", [1, 2])
def test_azure_scenario_parallel_matches_serial(seed):
    """Under serverless churn too, the serial engine makes the
    decisions the parallel sweep made."""
    (serial,) = scenario_churn_replay(
        seed, recorded(lambda: [AladdinScheduler()])
    )
    assert serial.decisions.hexdigest() == SCENARIO_SWEEP_DECISIONS[seed]


@pytest.mark.parametrize("name", ["diurnal", "churn-storm"])
def test_azure_scenario_served_matches_simulated(name):
    """A served scenario replay is bit-identical to the simulated run:
    the replay client recomputes the name-encoded schedule through the
    same ``arrival_schedule`` dispatch the simulator uses."""
    from repro.sim.online import OnlineConfig, OnlineSimulator
    from repro.trace import build_scenario

    trace = build_scenario(
        name, scale=0.005, seed=2, ticks=10, n_functions=40,
        lla_lifetime=(6, 16),
    )
    cfg = OnlineConfig(seed=2, scenario=name)
    simulated = (
        OnlineSimulator(trace, cfg).run(AladdinScheduler()).canonical_json()
    )
    served = _served_canonical(AladdinScheduler, trace, cfg)
    assert served == simulated


@pytest.mark.parametrize("seed", [0, 5, 10, 15])
def test_azure_scenario_checkpoint_resume_bit_identical(seed, tmp_path):
    """A scenario run killed after a checkpoint and restored finishes
    bit-identical: the restore path re-decodes the schedule from the
    trace names, and the fingerprint pins the scenario."""
    from repro.sim.online import OnlineSimulator

    trace, cfg = _scenario_workload(seed)
    full = OnlineSimulator(trace, cfg).run(AladdinScheduler()).canonical_json()

    path = str(tmp_path / f"scn-{seed}.bin")

    def crash(tick, _path):
        raise _Interrupt

    with pytest.raises(_Interrupt):
        OnlineSimulator(trace, cfg).run(
            AladdinScheduler(), checkpoint_every=4, checkpoint_path=path,
            on_checkpoint=crash,
        )
    resumed = (
        OnlineSimulator(trace, cfg)
        .run(AladdinScheduler(), restore_from=path)
        .canonical_json()
    )
    assert resumed == full


def test_azure_scenario_fingerprint_rejects_other_scenario(tmp_path):
    """A snapshot from one scenario must not restore into another."""
    from repro.cluster.snapshot import SnapshotError
    from repro.sim.online import OnlineConfig, OnlineSimulator
    from repro.trace import build_scenario

    trace = build_scenario(
        "diurnal", scale=0.005, seed=0, ticks=10, n_functions=40,
        lla_lifetime=(6, 16),
    )
    path = str(tmp_path / "fp.bin")
    OnlineSimulator(trace, OnlineConfig(seed=0, scenario="diurnal")).run(
        AladdinScheduler(), checkpoint_every=4, checkpoint_path=path
    )
    with pytest.raises(SnapshotError, match="fingerprint"):
        OnlineSimulator(trace, OnlineConfig(seed=0, scenario="burst")).run(
            AladdinScheduler(), restore_from=path
        )

"""One-shot LP window placement: the solver engine.

The incremental engines place a window block by block: each application
pays a feasibility sweep against the *current* state, deploys, and
dirties the machines the next block must resync.  This module
formulates the whole window as one vectorized assignment problem
instead, in the CvxCluster style: isomorphism limiting makes all
containers of a block identical, so the decision variable is simply
``x[b, j]`` — how many of block ``b``'s containers land on its ``j``-th
candidate machine — and one sparse LP over the frozen pre-window state
replaces the per-block sweep/deploy interleaving.

Formulation (per scheduling window)
-----------------------------------
* **Candidates.**  Per block, the same admit mask the batch engine
  computes (Equation 6 dominance + the Equation 7–8 blacklist, read
  live from the state) ordered by the incremental
  :class:`~repro.core.machindex.MachineIndex` packed-first order, then
  *capped*: the prefix whose fit quotas cover ``~1.5k`` containers.
  The cap is what keeps the LP small — O(Σk) variables, not O(blocks ×
  machines) — and the slack absorbs cross-block capacity contention.
* **Variables.**  ``x[b, j] ∈ [0, quota]`` (quota 1 for
  within-anti-affinity blocks, rack-deduplicated for rack scope).
* **Constraints** (assembled with the Medea ILP's
  :class:`~repro.baselines.ilp.SparseLinearModel`): per-machine,
  per-dimension capacity rows for machines shared by several blocks
  (single-block machines are already bounded by their quota), and the
  standard LP surrogate ``q_b·x[a,m] + q_a·x[b,m] <= q_a·q_b`` for
  window-internal conflicting pairs sharing a candidate.
* **Objective.**  ``packing``: maximise weighted placed units
  (Equation 3–5 class weights) with an ε-scaled packed-first bonus —
  ε is small enough that the LP never trades a placeable unit for
  packing.  ``maxmin``: two-phase max-min fairness (maximise the
  minimum per-block placed fraction ``t``, then re-optimise packing
  subject to that floor) — the Soroush-style fairness axis.
* **Rounding + repair.**  ``linprog(method="highs")`` relaxes
  integrality; a deterministic floor + largest-remainder pass restores
  it per block (candidate order breaks ties), and commitment guards
  every deploy with the live ``fits``/``would_violate`` checks — a
  rejected slot is counted as a *rounding repair* and its container
  falls back to the incremental per-block path (walk + rescue), which
  also absorbs whole blocks the LP left unplaced.

Decisions are deliberately **not** bit-identical to the batch engine —
the LP optimises jointly where the walk commits greedily — so the
engine is held to the shared Equation 7–9 validator
(:mod:`repro.core.validate`) and the Fig. 9 quality-parity harness
(``tests/test_solver_parity.py``) instead of the differential harness.

scipy is required (the ``solver`` packaging extra); constructing
:class:`SolverScheduler` without it raises an actionable ImportError
while the rest of the package stays importable.
"""

from __future__ import annotations

import math

import numpy as np

from repro.base import ScheduleResult
from repro.cluster.container import Container
from repro.cluster.state import ClusterState
from repro.core.config import AladdinConfig
from repro.core.migration import RescuePlanner
from repro.core.scheduler import (
    AladdinScheduler,
    _derive_weights_for,
    _group_blocks,
    drain_requeue,
    feasible_mask,
    final_repair,
)
from repro.core.validate import WindowContext, validate_window

#: candidate quotas must cover ``ceil(CANDIDATE_SLACK * k) + CANDIDATE_PAD``
#: containers per block — slack for cross-block capacity contention the
#: per-block admit masks cannot see.
CANDIDATE_SLACK = 1.5
CANDIDATE_PAD = 4

#: floating-point guards for the rounding pass
_FLOOR_EPS = 1e-9
_SUM_EPS = 1e-6


def _require_scipy() -> None:
    """Fail fast, and actionably, when the ``solver`` extra is missing."""
    try:
        import scipy.optimize  # noqa: F401
        import scipy.sparse  # noqa: F401
    except ImportError as exc:
        raise ImportError(
            "the solver engine needs scipy, which is packaged as the "
            "optional 'solver' extra — install it with "
            "`pip install 'repro[solver]'` (or `pip install scipy`), "
            "or select the default engine (AladdinConfig(engine='batch'))"
        ) from exc


class _FairnessPlanner:
    """A :class:`RescuePlanner` view with preemption disabled.

    Max-min mode grants every block a placed-fraction floor through the
    LP; the fallback path's rescue preemption is strictly
    priority-ordered and would evict those floors away again inside the
    same round.  Rescues are therefore restricted to the mechanisms
    that never shrink anyone's placement — migration and consolidation.
    """

    def __init__(self, planner: RescuePlanner) -> None:
        self._planner = planner

    def rescue(self, container, demand, allow_preemption=True, exhaustive=False):
        return self._planner.rescue(container, demand, False, exhaustive)

    def __getattr__(self, name):
        return getattr(self._planner, name)


class _BlockModel:
    """One application block's slice of the window LP."""

    __slots__ = (
        "block", "demand", "candidates", "quota", "weight", "offset",
    )

    def __init__(self, block, demand, candidates, quota, weight):
        self.block = block
        self.demand = demand
        self.candidates = candidates
        self.quota = quota
        self.weight = weight
        self.offset = 0  # variable offset, assigned at model build

    @property
    def k(self) -> int:
        return len(self.block)

    @property
    def n_vars(self) -> int:
        return int(self.candidates.size)


class SolverScheduler(AladdinScheduler):
    """The LP window engine; see the module docstring for the model.

    Subclasses :class:`~repro.core.scheduler.AladdinScheduler`: the
    cross-round ledgers (machine index, rescue kernel),
    checkpoint/restore and the per-container fallback path are all
    inherited — the LP replaces only the in-window placement loop.
    """

    def __init__(self, config: AladdinConfig | None = None) -> None:
        _require_scipy()
        super().__init__(config)
        self.name = self.config.variant_name() + "[solver]"
        #: lifetime count of containers committed straight from LP plans
        self.solver_placed = 0

    # ------------------------------------------------------------------
    def _schedule(
        self,
        containers: list[Container],
        state: ClusterState,
        result: ScheduleResult,
    ) -> None:
        tele = result.telemetry
        blocks = _group_blocks(containers)
        self.last_weights = _derive_weights_for(blocks, self.config)
        guard_weights = _derive_weights_for(blocks, self.config, base=1.0)
        planner = RescuePlanner(
            state,
            self.config,
            guard_weights,
            machine_index=self.machine_index,
            kernel=self.rescue_kernel,
        )
        if self.config.solver_objective == "maxmin":
            planner = _FairnessPlanner(planner)

        window = self.config.window_apps
        for start in range(0, len(blocks), window):
            window_blocks = sorted(
                blocks[start : start + window],
                key=lambda b: -self.last_weights[b[0].priority],
            )
            requeue: list[Container] = []
            if self.config.gang_scheduling:
                # Gang atomicity needs the per-block rollback semantics
                # of the incremental path; the LP plans containers, not
                # all-or-nothing applications.
                pending = window_blocks
            else:
                with tele.phase("solver"):
                    pending = self._solve_window(window_blocks, state, result)
            with tele.phase("search"):
                for block in pending:
                    self._place_block(block, state, planner, result, requeue)
            with tele.phase("requeue"):
                drain_requeue(requeue, state, planner, result)
        if self.config.final_repair and result.undeployed:
            with tele.phase("repair"):
                final_repair(containers, state, planner, result)
        # Rescue migrations move already-placed containers; re-read their
        # final machine from the authoritative state.
        for cid in result.placements:
            result.placements[cid] = state.assignment[cid]

    # ------------------------------------------------------------------
    def _solve_window(
        self,
        window_blocks: list[list[Container]],
        state: ClusterState,
        result: ScheduleResult,
    ) -> list[list[Container]]:
        """Plan and commit one window via the LP; returns leftover blocks.

        Leftovers (blocks the LP could not model or containers its
        rounded plan could not commit) keep their window priority order
        and flow into the inherited per-block path.
        """
        from scipy import optimize

        tele = result.telemetry
        ctx = WindowContext.capture(state)
        models: list[_BlockModel] = []
        pending: list[list[Container]] = []
        seen_apps: set[int] = set()
        for block in window_blocks:
            app_id = block[0].app_id
            if app_id in seen_apps:
                # A duplicate block of the same app inside one window
                # (possible with non-contiguous submission streams)
                # would need within-rule coupling the LP does not
                # model; the incremental path handles it exactly.
                pending.append(block)
                continue
            seen_apps.add(app_id)
            # Later blocks must see past the packed prefix the earlier
            # blocks will consume: every block's candidate quotas target
            # the same packed-first machines, so without the extra
            # coverage the joint capacity rows bind and the LP strands
            # units the fallback path then has to place one by one.
            preceding = sum(m.k for m in models)
            model = self._block_model(block, state, result, preceding)
            if model is None:
                pending.append(block)
            else:
                models.append(model)
        if not models:
            return pending

        n_vars = 0
        for model in models:
            model.offset = n_vars
            n_vars += model.n_vars
        base = self._assemble_constraints(models, ctx)
        bounds = np.empty((n_vars, 2))
        bounds[:, 0] = 0.0
        for model in models:
            bounds[model.offset : model.offset + model.n_vars, 1] = (
                model.quota
            )

        objective = self._packing_objective(models, ctx, n_vars)
        floors: np.ndarray | None = None
        if self.config.solver_objective == "maxmin":
            floors = self._maxmin_floors(
                models, base, bounds, n_vars, tele
            )
            if floors is not None:
                for model, floor in zip(models, floors):
                    if floor <= 0.0:
                        continue
                    row = base.n_rows
                    for j in range(model.n_vars):
                        base.add_entry(row, model.offset + j, -1.0)
                    base.close_row(-floor)

        a_ub = base.matrix(n_vars) if base.n_rows else None
        b_ub = np.array(base.ub) if base.n_rows else None
        if tele is not None:
            tele.solver_calls += 1
        res = optimize.linprog(
            objective, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs"
        )
        if res.x is None or res.status != 0:
            # Infeasible/failed relaxation (the maxmin floor can be
            # over-tight under degenerate ties): the whole window takes
            # the incremental path — never a dropped container.
            return pending + [m.block for m in models]

        lp_units = float(np.clip(res.x, 0.0, None).sum())
        committed = self._commit(models, res.x, state, result, tele)
        if tele is not None:
            tele.solver_relaxation_gap += max(0.0, lp_units - committed)
        if self.config.validate_placements:
            window_containers = [c for b in window_blocks for c in b]
            placed_now = {
                c.container_id: result.placements[c.container_id]
                for c in window_containers
                if c.container_id in result.placements
            }
            validate_window(ctx, window_containers, placed_now).raise_if_invalid(
                "solver window commit"
            )

        leftovers = [m.block for m in models if m.block]
        return pending + leftovers

    # ------------------------------------------------------------------
    def _block_model(
        self,
        block: list[Container],
        state: ClusterState,
        result: ScheduleResult,
        preceding: int = 0,
    ) -> _BlockModel | None:
        """Candidate set, quotas and weight for one block (None = no fit).

        ``preceding`` is the unit count of earlier blocks in the same
        window: the candidate prefix is widened past the capacity those
        blocks may consume, so the cap never starves the LP.
        """
        app_id = block[0].app_id
        demand = block[0].demand_vector(state.topology.resources)
        mask = feasible_mask(state, demand, app_id, result)
        affinity = state.affinity_mask(app_id)
        order = self.machine_index.candidates(state, mask, affinity)
        if order.size == 0:
            return None
        cs = state.constraints
        scope = cs.within_scope(app_id) if cs.has_within(app_id) else None
        if scope == "rack":
            racks = state.topology.rack_of[order]
            _, first = np.unique(racks, return_index=True)
            order = order[np.sort(first)]
        k = len(block)
        want = math.ceil(CANDIDATE_SLACK * k) + CANDIDATE_PAD + preceding
        if scope is not None:
            cands = order[:want].astype(np.int64, copy=False)
            quota = np.ones(cands.size, dtype=np.int64)
        else:
            head = order[: want]  # quota >= 1 per admitted candidate
            with np.errstate(divide="ignore"):
                quota = np.floor(
                    (state.available[head] / demand).min(axis=1)
                ).astype(np.int64)
            quota = np.minimum(quota, k)
            cum = np.cumsum(quota)
            stop = int(np.searchsorted(cum, want, side="left")) + 1
            cands = head[:stop].astype(np.int64, copy=False)
            quota = quota[:stop]
        result.explored += int(cands.size)
        weight = float(self.last_weights[block[0].priority])
        return _BlockModel(block, demand, cands, quota, weight)

    # ------------------------------------------------------------------
    @staticmethod
    def _assemble_constraints(models: list[_BlockModel], ctx: WindowContext):
        """Capacity + window-conflict rows over the frozen pre-state.

        Assembled with numpy over the concatenated candidate arrays —
        the row count scales with the window's candidate footprint, so
        per-entry Python loops dominated the solve time before this was
        vectorized.
        """
        from repro.baselines.ilp import SparseLinearModel

        lp = SparseLinearModel()
        var_machine = np.concatenate([m.candidates for m in models])
        var_block = np.concatenate(
            [np.full(m.n_vars, i, dtype=np.int64) for i, m in enumerate(models)]
        )
        n_vars = int(var_machine.size)
        # Per-block placement cap: never plan more units than the block
        # has containers (the objective rewards every placed unit).
        lp.rows.extend(var_block.tolist())
        lp.cols.extend(range(n_vars))
        lp.vals.extend([1.0] * n_vars)
        lp.ub.extend(float(m.k) for m in models)
        lp.n_rows += len(models)
        # Machines referenced by several blocks need joint capacity
        # rows; single-block machines are already bounded by the quota.
        # (A block lists a machine at most once, so a machine appearing
        # twice in the concatenation is shared.)
        demands = np.stack([m.demand for m in models])  # (n_blocks, d)
        n_dims = demands.shape[1]
        order = np.argsort(var_machine, kind="stable")
        sorted_m = var_machine[order]
        starts = np.flatnonzero(np.r_[True, sorted_m[1:] != sorted_m[:-1]])
        counts = np.diff(np.r_[starts, sorted_m.size])
        grp = np.repeat(np.arange(starts.size), counts)
        keep = counts[grp] >= 2
        if keep.any():
            sel_vars = order[keep]
            sel_grp = np.unique(grp[keep], return_inverse=True)[1]
            sel_machines = sorted_m[starts[counts >= 2]]
            base_row = lp.n_rows
            # One row per (shared machine, dim), rows interleaved by dim.
            rows = (
                base_row
                + (sel_grp[:, None] * n_dims + np.arange(n_dims)).ravel()
            )
            cols = np.repeat(sel_vars, n_dims)
            vals = demands[var_block[sel_vars]].ravel()
            lp.rows.extend(rows.tolist())
            lp.cols.extend(cols.tolist())
            lp.vals.extend(vals.tolist())
            lp.ub.extend(ctx.available[sel_machines].ravel().tolist())
            lp.n_rows += int(sel_machines.size) * n_dims
        # Window-internal Equation 8 surrogate on shared machines:
        # q_b·x[a,m] + q_a·x[b,m] <= q_a·q_b per conflicting pair.
        cs = ctx.constraints
        for i, a in enumerate(models):
            app_a = a.block[0].app_id
            if not cs.has_conflicts(app_a):
                continue
            for b in models[i + 1 :]:
                if not cs.violates(app_a, b.block[0].app_id):
                    continue
                _, ja, jb = np.intersect1d(
                    a.candidates, b.candidates, return_indices=True
                )
                if ja.size == 0:
                    continue
                qa = a.quota[ja].astype(np.float64)
                qb = b.quota[jb].astype(np.float64)
                base_row = lp.n_rows
                rows = np.repeat(np.arange(base_row, base_row + ja.size), 2)
                cols = np.column_stack(
                    [a.offset + ja, b.offset + jb]
                ).ravel()
                vals = np.column_stack([qb, qa]).ravel()
                lp.rows.extend(rows.tolist())
                lp.cols.extend(cols.tolist())
                lp.vals.extend(vals.tolist())
                lp.ub.extend((qa * qb).tolist())
                lp.n_rows += int(ja.size)
        return lp

    # ------------------------------------------------------------------
    def _packing_objective(
        self,
        models: list[_BlockModel],
        ctx: WindowContext,
        n_vars: int,
    ) -> np.ndarray:
        """Minimisation coefficients: weighted units + ε packing bonus.

        The bonus prefers packed machines (low frozen remaining CPU)
        exactly like the walk's packed-first order, but at ε scale: the
        total bonus over every possible unit stays below the smallest
        per-unit weight, so the LP never sacrifices a placement for it.
        """
        total_units = sum(m.k for m in models)
        min_weight = min(m.weight for m in models)
        eps = min_weight / (2.0 + total_units)
        cap0 = float(ctx.available[:, 0].max()) + 1.0
        c = np.zeros(n_vars)
        for model in models:
            pref = 1.0 - ctx.available[model.candidates, 0] / cap0
            c[model.offset : model.offset + model.n_vars] = -(
                model.weight + eps * pref
            )
        return c

    # ------------------------------------------------------------------
    @staticmethod
    def _maxmin_floors(
        models: list[_BlockModel],
        base,
        bounds: np.ndarray,
        n_vars: int,
        tele,
    ) -> np.ndarray | None:
        """Phase-1 of the max-min objective: per-block placed floors.

        Maximises ``t`` with ``Σ_j x[b, j] >= k_b · t`` per block and
        returns each block's resulting floor ``k_b · t*`` (slightly
        relaxed for LP arithmetic).  ``None`` when the phase fails —
        the caller falls back to plain packing.
        """
        from scipy import optimize

        rows = list(base.rows)
        cols = list(base.cols)
        vals = list(base.vals)
        ub = list(base.ub)
        row = base.n_rows
        for model in models:
            for j in range(model.n_vars):
                rows.append(row)
                cols.append(model.offset + j)
                vals.append(-1.0)
            rows.append(row)
            cols.append(n_vars)  # the t variable
            vals.append(float(model.k))
            ub.append(0.0)
            row += 1
        from scipy import sparse

        a_ub = sparse.csr_matrix(
            (vals, (rows, cols)), shape=(row, n_vars + 1)
        )
        c = np.zeros(n_vars + 1)
        c[n_vars] = -1.0
        t_bounds = np.vstack([bounds, [0.0, 1.0]])
        if tele is not None:
            tele.solver_calls += 1
        res = optimize.linprog(
            c, A_ub=a_ub, b_ub=np.array(ub), bounds=t_bounds,
            method="highs",
        )
        if res.x is None or res.status != 0:
            return None
        t_star = max(0.0, float(res.x[n_vars]) - 1e-9)
        return np.array([model.k * t_star for model in models])

    # ------------------------------------------------------------------
    def _commit(
        self,
        models: list[_BlockModel],
        x: np.ndarray,
        state: ClusterState,
        result: ScheduleResult,
        tele,
    ) -> int:
        """Round each block's LP slice and deploy it under live guards.

        Mutates each model's ``block`` down to its uncommitted
        containers (the caller routes those to the fallback path).
        Returns the number of containers committed.
        """
        committed = 0
        for model in models:
            xs = x[model.offset : model.offset + model.n_vars]
            counts = _round_counts(xs, model.quota, model.k)
            plan = np.repeat(model.candidates, counts)
            leftovers: list[Container] = []
            i = 0
            scan = 0  # in-block recovery pointer over the candidate set
            placed_here = 0
            for container in model.block:
                # Commit at most the rounded allocation: the recovery
                # scan may re-home a *rejected* plan slot, but never
                # place past the block's LP share — later blocks in
                # this window still own their slice of the capacity
                # (the maxmin floors depend on this).
                if placed_here >= plan.size:
                    leftovers.append(container)
                    continue
                placed = False
                while i < plan.size:
                    machine = int(plan[i])
                    i += 1
                    if state.fits(model.demand, machine) and not (
                        state.would_violate(container, machine)
                    ):
                        state.deploy(container, machine, model.demand)
                        result.placements[container.container_id] = machine
                        result.explored += 1
                        committed += 1
                        placed_here += 1
                        placed = True
                        break
                    if tele is not None:
                        tele.solver_rounding_repairs += 1
                if not placed:
                    # Plan exhausted (per-block rounding can overshoot
                    # joint capacity): recover inside the block's own
                    # candidate set under live guards before falling
                    # back.  Containers of a block are identical, so a
                    # rejection is permanent and the scan pointer never
                    # revisits; a machine that admitted stays current
                    # until a sibling's guard rejects it (capacity dry
                    # or the within rule), which advances the scan.
                    while scan < model.candidates.size:
                        machine = int(model.candidates[scan])
                        result.explored += 1
                        if state.fits(model.demand, machine) and not (
                            state.would_violate(container, machine)
                        ):
                            state.deploy(container, machine, model.demand)
                            result.placements[
                                container.container_id
                            ] = machine
                            committed += 1
                            placed_here += 1
                            placed = True
                            break
                        scan += 1
                if not placed:
                    leftovers.append(container)
            model.block = leftovers
        self.solver_placed += committed
        return committed


def _round_counts(x: np.ndarray, quota: np.ndarray, k: int) -> np.ndarray:
    """Deterministic floor + largest-remainder rounding of one block.

    Targets ``min(k, floor(Σx))`` units: floors first, then the
    remaining units go to the largest fractional parts (candidate
    position breaks ties), never exceeding a candidate's quota.
    """
    if x.size == 0:
        return np.zeros(0, dtype=np.int64)
    x = np.clip(x, 0.0, quota.astype(np.float64))
    counts = np.floor(x + _FLOOR_EPS).astype(np.int64)
    counts = np.minimum(counts, quota)
    target = min(k, int(math.floor(float(x.sum()) + _SUM_EPS)))
    deficit = target - int(counts.sum())
    if deficit > 0:
        frac = x - counts
        order = np.lexsort((np.arange(x.size), -frac))
        for j in order:
            if deficit <= 0:
                break
            take = min(int(quota[j] - counts[j]), deficit)
            if take > 0:
                counts[j] += take
                deficit -= take
    elif deficit < 0:
        # Out-of-contract input (the LP's per-block cap keeps Σx <= k,
        # so floors cannot overshoot the target in-engine): shed the
        # excess from the smallest fractional parts, last position
        # first, keeping the helper total.
        frac = x - counts
        order = np.lexsort((np.arange(x.size), -frac))
        for j in order[::-1]:
            if deficit >= 0:
                break
            give = min(int(counts[j]), -deficit)
            counts[j] -= give
            deficit += give
    return counts

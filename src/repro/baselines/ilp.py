"""Exact MILP solve of one Medea window (scipy.optimize.milp).

Medea's published formulation is an ILP over placement indicators; this
module reproduces it exactly for one scheduling window so the greedy
mode of :class:`~repro.baselines.medea.MedeaScheduler` can be
cross-checked on small instances.

Variables: ``x[i, j] ∈ {0, 1}`` — container ``i`` placed on machine
``j`` — plus, when the violation weight ``c > 0``, one tolerance
variable ``z`` per potentially-violating co-location.  The objective
maximises

    a·Σx  +  b·Σ packing_j · x[i,j]  −  (1−c)·P·Σ z

subject to single placement per container, per-machine multidimensional
capacity (Equation-1 analogue), and, when ``c = 0``, hard anti-affinity
exclusions instead of the ``z`` relaxation.

scipy is optional (the ``solver`` packaging extra): this module is its
only user, and it is imported only when a window is actually solved.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.container import Container
from repro.cluster.state import ClusterState

_PENALTY_SCALE = 10.0


def _require_scipy() -> None:
    """Fail fast, and actionably, when the ``solver`` extra is missing."""
    try:
        import scipy.optimize  # noqa: F401
        import scipy.sparse  # noqa: F401
    except ImportError as exc:
        raise ImportError(
            "Medea's exact window MILP needs scipy, which is packaged as "
            "the optional 'solver' extra — install it with "
            "`pip install 'repro[solver]'` (or `pip install scipy`)"
        ) from exc


class SparseLinearModel:
    """Incremental COO assembly of an ``A_ub x <= b_ub`` constraint block.

    Callers append whole rows with :meth:`add_row` and finish with
    :meth:`constraints`, which materialises the CSR matrix and the
    :class:`scipy.optimize.LinearConstraint` in one go.
    """

    def __init__(self) -> None:
        self.rows: list[int] = []
        self.cols: list[int] = []
        self.vals: list[float] = []
        self.ub: list[float] = []

    def add_row(self, entries: list[tuple[int, float]], ub: float) -> None:
        """Append one complete ``Σ coef·x[col] <= ub`` row."""
        row = len(self.ub)
        for col, val in entries:
            self.rows.append(row)
            self.cols.append(col)
            self.vals.append(val)
        self.ub.append(float(ub))

    def constraints(self, n_vars: int):
        """The assembled :class:`scipy.optimize.LinearConstraint`."""
        _require_scipy()
        from scipy import optimize, sparse

        matrix = sparse.csr_matrix(
            (self.vals, (self.rows, self.cols)),
            shape=(len(self.ub), n_vars),
        )
        return optimize.LinearConstraint(matrix, ub=np.array(self.ub))


def solve_medea_window(
    window: list[Container],
    state: ClusterState,
    weights,
    time_limit_s: float = 30.0,
) -> dict[int, int]:
    """Return container id → machine id for one window (omissions = unplaced).

    Only machines that are resource-feasible for at least one window
    container enter the model; the caller applies the assignment.
    """
    _require_scipy()
    from scipy import optimize

    if not window:
        return {}
    topo = state.topology
    cs = state.constraints
    n = len(window)
    demands = np.stack([c.demand_vector(topo.resources) for c in window])
    # Candidate machines: feasible for the smallest demand in the window.
    min_demand = demands.min(axis=0)
    machines = np.flatnonzero((state.available >= min_demand).all(axis=1))
    if machines.size == 0:
        return {}
    m = machines.size
    cap = topo.capacity[machines, 0]
    packing = 1.0 - state.available[machines, 0] / cap

    # x variables laid out row-major: x[i, j] at i * m + j.
    n_x = n * m

    def xid(i: int, j: int) -> int:
        return i * m + j

    hard = weights.c == 0.0
    penalty = (1.0 - weights.c) * _PENALTY_SCALE

    # Pre-deployment conflicts: machine j already hosts an app that
    # conflicts with container i.
    pre_conflict = np.zeros((n, m), dtype=bool)
    for j, machine_id in enumerate(machines):
        resident_apps = {
            c.app_id for c in state.deployed_containers(int(machine_id))
        }
        for i, container in enumerate(window):
            if any(cs.violates(container.app_id, ra) for ra in resident_apps):
                pre_conflict[i, j] = True

    # Window-internal conflicting pairs.
    pairs: list[tuple[int, int]] = []
    for i1 in range(n):
        for i2 in range(i1 + 1, n):
            if cs.violates(window[i1].app_id, window[i2].app_id):
                pairs.append((i1, i2))

    n_z = 0 if hard else (len(pairs) * m + int(pre_conflict.sum()))
    n_vars = n_x + n_z

    objective = np.zeros(n_vars)
    for i in range(n):
        for j in range(m):
            objective[xid(i, j)] = -(weights.a + weights.b * packing[j])
    if not hard:
        objective[n_x:] = penalty  # scipy minimises

    model = SparseLinearModel()

    # One placement per container.
    for i in range(n):
        model.add_row([(xid(i, j), 1.0) for j in range(m)], 1.0)
    # Machine capacity per resource dimension.
    for j, machine_id in enumerate(machines):
        for d in range(topo.n_dims):
            model.add_row(
                [(xid(i, j), demands[i, d]) for i in range(n)],
                float(state.available[int(machine_id), d]),
            )

    z_cursor = n_x
    if hard:
        # Hard anti-affinity: forbid pre-conflicted placements and
        # co-location of conflicting pairs.
        for i in range(n):
            for j in range(m):
                if pre_conflict[i, j]:
                    model.add_row([(xid(i, j), 1.0)], 0.0)
        for (i1, i2) in pairs:
            for j in range(m):
                model.add_row(
                    [(xid(i1, j), 1.0), (xid(i2, j), 1.0)], 1.0
                )
    else:
        # Soft: z >= x1 + x2 - 1 per pair/machine; z >= x per
        # pre-conflicted placement.
        for (i1, i2) in pairs:
            for j in range(m):
                model.add_row(
                    [
                        (xid(i1, j), 1.0),
                        (xid(i2, j), 1.0),
                        (z_cursor, -1.0),
                    ],
                    1.0,
                )
                z_cursor += 1
        for i in range(n):
            for j in range(m):
                if pre_conflict[i, j]:
                    model.add_row(
                        [(xid(i, j), 1.0), (z_cursor, -1.0)], 0.0
                    )
                    z_cursor += 1

    res = optimize.milp(
        c=objective,
        constraints=model.constraints(n_vars),
        integrality=np.ones(n_vars),
        bounds=optimize.Bounds(0, 1),
        options={"time_limit": time_limit_s},
    )
    if res.x is None:
        return {}
    x = np.round(res.x[:n_x]).reshape(n, m)
    assignment: dict[int, int] = {}
    for i, container in enumerate(window):
        placed = np.flatnonzero(x[i] > 0.5)
        if placed.size:
            assignment[container.container_id] = int(machines[placed[0]])
    return assignment

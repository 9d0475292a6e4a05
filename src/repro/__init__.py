"""repro — reproduction of *Aladdin: Optimized Maximum Flow Management
for Shared Production Clusters* (Wu et al., IPDPS 2019).

The package implements the paper's scheduler (:class:`AladdinScheduler`),
every substrate it depends on (cluster model, flow networks, synthetic
Alibaba-like traces), the Table-I comparator schedulers, and the
simulation harness that regenerates every table and figure of the
evaluation section.  See ``DESIGN.md`` for the system inventory and
``EXPERIMENTS.md`` for paper-vs-measured results.

Quickstart::

    from repro import (
        generate_trace, Simulator, AladdinScheduler, ArrivalOrder,
    )

    trace = generate_trace(scale=0.05, seed=0)
    sim = Simulator(trace)
    result = sim.run(AladdinScheduler(), ArrivalOrder.TRACE)
    print(result.summary())
"""

from repro.base import FailureReason, ScheduleResult, Scheduler
from repro.telemetry import SchedulerTelemetry
from repro.cluster import (
    Application,
    ClusterSpec,
    ClusterState,
    ClusterTopology,
    Container,
    ConstraintSet,
    MachineSpec,
    build_cluster,
    build_heterogeneous_cluster,
)
from repro.core import (
    AladdinConfig,
    AladdinScheduler,
    FlowPathSearch,
    PlacementInvalidError,
    QualityMetrics,
    ValidationReport,
    measure_quality,
    quality_gaps,
    validate_state,
)
from repro.baselines import (
    SCHEDULERS,
    FirmamentPolicy,
    FirmamentScheduler,
    GoKubeScheduler,
    MedeaScheduler,
    MedeaWeights,
)
from repro.sim import (
    SimulationMetrics,
    SimulationResult,
    Simulator,
    compute_metrics,
    latency_sweep,
    minimum_cluster_size,
    relative_efficiency,
    run_experiment,
    run_online,
)
from repro.trace import (
    ArrivalOrder,
    Trace,
    TraceConfig,
    generate_trace,
    load_trace,
    order_containers,
    save_trace,
    workload_stats,
)

__version__ = "1.0.0"

__all__ = [
    "FailureReason",
    "ScheduleResult",
    "Scheduler",
    "Application",
    "ClusterSpec",
    "ClusterState",
    "ClusterTopology",
    "Container",
    "ConstraintSet",
    "MachineSpec",
    "build_cluster",
    "build_heterogeneous_cluster",
    "AladdinConfig",
    "AladdinScheduler",
    "FlowPathSearch",
    "PlacementInvalidError",
    "QualityMetrics",
    "ValidationReport",
    "measure_quality",
    "quality_gaps",
    "validate_state",
    "SchedulerTelemetry",
    "SCHEDULERS",
    "FirmamentPolicy",
    "FirmamentScheduler",
    "GoKubeScheduler",
    "MedeaScheduler",
    "MedeaWeights",
    "SimulationMetrics",
    "SimulationResult",
    "Simulator",
    "compute_metrics",
    "latency_sweep",
    "minimum_cluster_size",
    "relative_efficiency",
    "run_experiment",
    "run_online",
    "ArrivalOrder",
    "Trace",
    "TraceConfig",
    "generate_trace",
    "load_trace",
    "order_containers",
    "save_trace",
    "workload_stats",
    "__version__",
]

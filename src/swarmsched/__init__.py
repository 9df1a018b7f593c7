"""Swarm-based cloud task scheduling with reproducible benchmarks.

A population that is simultaneously a particle swarm and a wolf pack searches
continuous positions that decode, capacity-aware, into task-to-VM assignments.
Ships with classical baselines (round-robin, Min-Min), a replicated experiment
harness with paired statistics, and a CLI.
"""

from .baselines import min_min, minmin_seeded_hybrid, round_robin, seeded_random
from .domain import EtcMatrix, Task, VmSpec, Workload, build_etc
from .encoding import capacity_threshold, decode_position, map_with_loads
from .harness import (
    ALGORITHMS,
    AggregateResult,
    ExperimentPlan,
    ExperimentResult,
    PairwiseComparison,
    RunRecord,
    SyntheticSource,
    TraceSource,
    TTestResult,
    paired_t_test,
    run_experiment,
    run_scheduler,
)
from .metrics import (
    MetricsReport,
    balance_optimality_index,
    coefficient_of_variation,
    default_beta,
    evaluate_assignment,
    fitness,
    load_vector,
    throughput,
)
from .optimizer import (
    ConvergenceLog,
    OptimizerConfig,
    Particle,
    SwarmState,
    blend_weight,
    combined_update,
    gwo_coefficient_a,
    gwo_guidance,
    inject_mutation,
    run,
    run_pure_gwo,
    run_pure_pso,
    step,
    swarm_diversity,
    velocity_update,
)
from .workload import (
    SyntheticSpec,
    TraceParseError,
    export_trace_csv,
    generate_synthetic,
    ingest_trace,
    standard_fleet,
)

__version__ = "0.3.0"

__all__ = [
    "__version__",
    # domain
    "Task",
    "VmSpec",
    "Workload",
    "EtcMatrix",
    "build_etc",
    # metrics
    "MetricsReport",
    "throughput",
    "load_vector",
    "coefficient_of_variation",
    "balance_optimality_index",
    "fitness",
    "default_beta",
    "evaluate_assignment",
    # encoding
    "decode_position",
    "capacity_threshold",
    "map_with_loads",
    # optimizer
    "OptimizerConfig",
    "Particle",
    "SwarmState",
    "ConvergenceLog",
    "blend_weight",
    "gwo_coefficient_a",
    "velocity_update",
    "gwo_guidance",
    "combined_update",
    "swarm_diversity",
    "inject_mutation",
    "step",
    "run",
    "run_pure_pso",
    "run_pure_gwo",
    # baselines
    "round_robin",
    "seeded_random",
    "min_min",
    "minmin_seeded_hybrid",
    # workload
    "SyntheticSpec",
    "TraceParseError",
    "generate_synthetic",
    "ingest_trace",
    "export_trace_csv",
    "standard_fleet",
    # harness
    "ALGORITHMS",
    "ExperimentPlan",
    "ExperimentResult",
    "SyntheticSource",
    "TraceSource",
    "RunRecord",
    "AggregateResult",
    "TTestResult",
    "PairwiseComparison",
    "run_experiment",
    "run_scheduler",
    "paired_t_test",
]

"""Spectral conjugation of near-rotation torus maps to Diophantine rotations."""

from .cohomology import CohomologySolution, growth_ratios, solve
from .diophantine import DiophantineVector, verified_vector
from .driver import (
    EXIT_CODES,
    ExperimentConfig,
    RunResult,
    RunStatus,
    compose_chain,
    conjugacy_verification,
    make_test_map,
    run_scheme,
)
from .errors import (
    CohomologyResidualError,
    ConfigError,
    DCViolation,
    DegenerateVector,
    DivisorTooSmall,
    EmptyWindow,
    InfeasibleParams,
    KamError,
    NoConvergence,
    NonFinite,
    NotContractive,
    OutOfRegime,
    ResidualTooLarge,
    SmallnessViolated,
)
from .kamstep import StepConfig, StepDiagnostics, step
from .rotation import (
    Hull,
    RotationData,
    birkhoff_rotation,
    convex_hull,
    displacement_hull,
    hull_contains,
    rotation_set_estimate,
)
from .scheduler import (
    ReplayReport,
    SchedulerParams,
    check_inductive_inequalities,
    derive_constants,
    envelopes,
    find_min_start,
    mu_window,
    omega0_bound,
    replay_induction,
    schedule_cutoffs,
    validate,
)
from .spectral import (
    PeriodicField,
    TorusMapLift,
    compose,
    conjugate,
    cs_norm,
    deviation_norm,
    eval_at_points,
    rebase,
    sampling_grid,
    truncate,
    value_grid,
)

__version__ = "0.1.0"

"""Last-iterate convergence toolkit for SGD on smooth convex finite sums.

The package builds finite-sum problems with certified minimizers, runs
seeded constant-step SGD (single-sample or mini-batch), evaluates
non-asymptotic bounds on the expected final-iterate suboptimality, checks
the supporting numeric inequalities on grids, and compares Monte Carlo
gap estimates against the bounds, all with bitwise-reproducible results.
"""

from .bounds import (
    AbcConstants,
    BoundReport,
    EffectiveConstants,
    HypothesisError,
    PolyBound,
    WeightSequence,
    abc_constants,
    build_bound_report,
    complexity_beta_constant,
    complexity_horizon,
    effective_constants,
    last_iterate_bound,
    phi,
    polynomial_step_bound,
    sqrt_step_bound,
    sqrt_step_bound_c2,
    tphi_cap,
    weight_sequence,
)
from .config import (
    DEFAULT_LEMMA_CONFIG,
    ConfigError,
    LemmaPlan,
    RunPlan,
    SweepPlan,
    build_problem,
    load_lemma_plan,
    load_run_plan,
    load_sweep_plan,
    resolve_grid,
    resolve_lemma_grids,
    resolve_x0,
)
from .lemmas import (
    BATTERY_ORDER,
    LemmaCheckResult,
    check_exp_convexity,
    check_exponent_inequality,
    check_gautschi,
    check_one_step_inequality,
    check_second_moment_transfer,
    check_variance_transfer,
    check_weight_bounds,
    run_battery,
)
from .montecarlo import (
    SWEEP_COLUMNS,
    CellCheck,
    MomentState,
    MonteCarloEstimate,
    SweepRow,
    check_cell,
    estimate_gap,
    merge_moments,
    reduce_moments,
    run_fingerprint,
    sweep,
)
from .problems import (
    CertificationError,
    FiniteSumProblem,
    GenerationError,
    LeastSquaresProblem,
    LogisticProblem,
    SolutionCertificate,
    certify_solution,
    closed_form_certificate,
    load_problem,
    make_least_squares,
    make_logistic,
    problem_from_doc,
    problem_to_doc,
    save_problem,
    sigma_star_sq,
)
from .rng import DIRECTION_STREAM, POINT_STREAM, PROBLEM_STREAM, RUN_STREAM, check_seed, stream
from .sgd import (
    ConstantStep,
    DivergenceError,
    PolynomialStep,
    RunConfig,
    ScheduleError,
    StepRecord,
    Trajectory,
    UnsupportedSamplingError,
    minibatch_run,
    resolve_schedule,
    schedule_from_doc,
    schedule_to_doc,
    sgd_run,
    suggested_step_interpolation,
    suggested_step_noisy,
    write_trajectory_csv,
)

__version__ = "0.1.0"

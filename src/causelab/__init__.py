"""Exact bounds, consistency checks, and process-matrix numerics for
single-round communication scenarios."""

__version__ = "0.1.0"

from .scenario import (  # noqa: F401
    Correlation,
    DeterministicIntervention,
    EvaluatedCorrelation,
    InterventionFamily,
    QuasiProcess,
    Scenario,
    canonical_interventions,
    canonical_scenario,
    evaluate_correlation,
    make_scenario,
    universal_realization,
    validate_correlation,
)
from .consistency import (  # noqa: F401
    OutputChoice,
    ProcessFunctionMixture,
    QuasiProcessFunction,
    enumerate_output_choices,
    enumerate_process_functions,
    fixed_points,
    is_logically_consistent,
    is_process_function,
    mixture_process,
    quasiprocess_from_function,
)
from .lp import (  # noqa: F401
    HullResult,
    LinearProgram,
    LpSolution,
    LpStatus,
    hull_membership,
    lp_solve,
)
from .games import (  # noqa: F401
    Game,
    bfw_process,
    builtin_chsh,
    builtin_game,
    builtin_gyni,
    builtin_gynin,
    builtin_ocb,
    causal_bound,
    classify,
    dc_bound,
    gyni_perfect_correlation,
    gynin_perfect_correlation,
    pc_bound_canonical,
    pr_box_correlation,
    score,
)
from .quantum import (  # noqa: F401
    InstrumentCJ,
    NumericCorrelation,
    ProcessMatrix,
    builtin_bfw,
    cj_from_kraus,
    classical_from_diagonal,
    classical_instruments,
    diagonal_from_classical,
    is_valid_instrument,
    is_valid_process_matrix,
    pm_correlation,
)

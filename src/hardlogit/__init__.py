"""Worst-case binary logistic regression instances for deterministic
first-order methods: dataset construction, analytic optima, lower-bound
formulas, oracle-driven optimizers, and the adaptive rotation adversary.
"""

from .analytic import (
    AnalyticProfile,
    agd_upper_bound,
    bound_general,
    bound_linear_span,
    c_bracket,
    constant_c_ratio,
    logcosh,
    per_coordinate_gap,
    profile,
    profile_metadata,
    sandwich_ratio,
    solve_c,
    subspace_gap,
)
from .datasets import (
    RotatedInstance,
    Variant,
    WOperator,
    WorstCaseInstance,
    build_instance,
    build_w,
    export,
    matvec_a,
    matvec_at,
)
from .logloss import (
    FirstOrderOracle,
    OracleResponse,
    h_grad,
    h_value,
    lipschitz,
    loss,
    phi,
)
from .optimizers import (
    METHOD_NAMES,
    Trace,
    drive,
    iterate_steps,
    run,
    support_frontier,
    trace_to_csv,
)
from .resist import (
    ResistingOracle,
    adversarial_run,
    containment_residuals,
    data_direction_residual,
    replay_check,
    save_matrix_csv,
)

__version__ = "0.1.0"

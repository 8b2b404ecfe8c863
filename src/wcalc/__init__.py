"""Finite-horizon calculus for weight sequences and weight matrices.

Everything evaluates in log scale over explicit index windows; verdicts
are three-valued (Holds / Fails / Undetermined) and carry the evidence
they were decided on.
"""

from .config import Config, default_config, ENV_HORIZON
from .errors import (
    HorizonError,
    InvalidParameterError,
    LogDomainError,
    MaximizerOnBoundaryError,
    OrderViolationError,
    PreconditionError,
    SourceError,
    SupNotAttainedError,
    TableExhaustedError,
    WcalcError,
)
from .logdomain import log_add, log_sub, log_sum
from .verdicts import (
    DOWN,
    FAILS,
    FLAT,
    FROZEN,
    HOLDS,
    UNDETERMINED,
    UP,
    TailReport,
    Verdict,
    classify_trajectory,
    decimate,
    running_sup_stabilized,
)
from .sequences import (
    ExponentFamily,
    ExponentSequence,
    WeightSequence,
    constant_family,
    gevrey,
    linear_exponents,
    power_exponents,
    ptt,
    regularize_slc,
    scaled,
    table,
    table_exponents,
)
from .conditions import (
    CONDITIONS,
    EXPONENT_GAP_FLOOR,
    check_condition,
    exponent_growth_report,
    gamma_lower_bound,
    root_growth_profile,
    sample_pairs,
)
from .relations import compare, compare_phi_constancy
from .associated import (
    LogGrid,
    OmegaFunction,
    assoc_matrix_term,
    assoc_relation_check,
    export_csv,
    from_omega,
    omega_doubling_probe,
    recover_term,
    young_conjugate,
)
from .matrices import (
    BEURLING,
    MATRIX_CONDITIONS,
    ROUMIEU,
    MatrixConditionId,
    WeightMatrix,
    check_exponent_family_absorption,
    check_matrix_condition,
    composition_sequence,
    condition_id,
    exponent_family_scale,
    generic_matrix,
    matrix_report_json,
    matrix_scale,
    ptt_matrix,
    scale_family,
    sigma_matrix,
)
from .witness import (
    DerivBounds,
    MembershipReport,
    classify_membership,
    load_bounds_csv,
    load_bounds_json,
    seminorm,
    synthetic_bounds,
    theta_bounds,
    theta_derivative_log_bound,
    theta_eval,
)
from .dsl import Program, execute, parse, print_program
from .report import Report, emit, emit_csv, emit_json, emit_text

__version__ = "0.1.0"

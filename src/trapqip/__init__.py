"""Desk-scale simulator and verification suite for trap-state two-message
quantum interactive proofs."""

from .core import (
    CapacityError,
    DensityOperator,
    InvariantError,
    LayoutError,
    RegisterLayout,
    StateVector,
    UnitaryOperator,
    adjoin_register,
    apply_basis_permutation,
    apply_on_registers,
    basis_state,
    condition_on,
    fidelity,
    layout,
    measure_probability,
    partial_trace,
    qubit_cap,
    reorder_registers,
    tensor_product,
    trace_distance,
)
from .oracles import (
    CorruptionSet,
    Permutation,
    inversion_table,
    query_table,
    random_permutation,
    xor_shift_permutation,
)
from .reductions import (
    DistributionTable,
    Reduction,
    add_noise,
    amplify,
    build_known_smooth_reduction,
    build_smooth_xor_reduction,
    build_xor_reduction,
    generate_query_state,
    honest_answer_state,
    load_distribution,
    majority_error,
)
from .protocols import (
    CheatBound,
    ProtocolResult,
    Prover,
    branch_overlap_pair,
    cheat_upper_bound,
    prover_search,
    run_classical_query_protocol,
    run_multiquery_protocol,
    run_protocol,
    run_smooth_protocol,
    trap_state,
    trap_verifier,
)
from .rejection import (
    QrsPlan,
    QrsRound,
    QrsRunResult,
    copies_budget_from_uniform,
    copies_budget_to_uniform,
    make_plan,
    qrs_rotation,
    qrs_round,
    qrs_run,
)
from .analysis import (
    LemmaReport,
    epr_trivialization,
    maxproj_closed_form,
    maxproj_eigen_oracle,
    maxproj_optimizer_state,
    maxproj_report,
    purification_invariance,
)
from .separation import (
    GeneralizedSimonOracle,
    RsrLanguage,
    SimonResult,
    build_simon_oracle,
    classical_collision_count,
    quantum_reduction_demo,
    simon_solve,
)

__version__ = "0.1.0"

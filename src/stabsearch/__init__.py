"""stabsearch: random discovery of sparse CSS stabilizer codes.

Pipeline: sample a random bipartite support graph, encode commutation
and code-quality requirements as an OR/XOR/cardinality constraint
system, solve it, read the satisfying assignment back as a pair of
GF(2) check matrices, and measure erasure-channel performance with an
exact maximum-likelihood success law.
"""

from .constraints import (
    Census,
    ConstraintSystem,
    EncodingParams,
    Linear,
    OrClause,
    VarRef,
    XorClause,
    constraint_census,
    encode,
)
from .cnf import CnfExport, export_cnf
from .css import (
    CodeStats,
    CommutationError,
    CssCode,
    check_commutation,
    extract_code,
    shor_code,
    stats,
    steane_code,
)
from .erasure import (
    DecodingReport,
    ErasurePattern,
    erasure_capacity_limit,
    exact_failure_rate,
    failure_rate,
    logical_class_log2,
    sample_erasure,
    success_probability,
)
from .gf2 import BitMatrix
from .graphs import SupportGraph, sample_support_graph, shared_qubits
from .harness import (
    CodeRecord,
    PixelResult,
    SweepConfig,
    classify_pixel,
    find_code,
    run_decoding_benchmark,
    run_density_study,
    run_phase_sweep,
)
from .rng import RngSpec
from .solver import (
    SAT,
    UNKNOWN,
    UNSAT,
    SolveResult,
    SolverConfig,
    check,
    consistent_completion,
    solve,
)

__version__ = "0.1.0"

"""Exact construction and verification of support-rank and sign-rank
representations of Hamming-distance matrices and their generalizations."""

__version__ = "0.1.0"

from .errors import (
    BudgetExceededError,
    HamrankError,
    InconsistentFingerprintError,
    InputError,
    NonSquareError,
    PatternViolationError,
    RetriesExhaustedError,
    SizeMismatchError,
    ZeroValueError,
)
from .exact import Mat, block_diag, det_exact, rank_exact
from .compression import (
    Compressor,
    MatFamily,
    fit_compressor,
    verify_compressor,
)
from .veronese import (
    MinorIndex,
    det_sum_terms,
    hypercube_unit_embed,
    minor_embed,
    unit_distance_vector,
)
from .hamming import (
    SupportRep,
    build_hd_supp,
    dist,
    identity_certificate,
    load_supp,
    verify_support_rep,
)
from .signcompile import (
    SignForm,
    Term,
    build_hd_sign,
    choose_gamma,
    compile_tree,
    domain_rows,
    eval_sign,
    eval_value,
    materialize,
)
from .rankprob import (
    CompositionSpec,
    RankProblem,
    bool_combine,
    compose_semantics,
    distance_r_compose,
    example_cc_hd,
    hd_rank_problem,
    multiset_decode,
    negate,
    strict_cc_hd,
    symmetric_problem,
    to_sign_rep,
)
from .harness import Report, RunConfig, run

"""Exact flag-vector combinatorics of convex polytopes.

Face lattices of the standard families are enumerated brute-force and serve
as the oracle for everything else: Dehn-Sommerville completion, flag-form
convolutions, cd-indices, toric g-vectors, and the f-vector property checks.
All arithmetic is exact (ints and Fractions); there is no floating point in
any computational path.
"""

__version__ = "0.1.0"

from .errors import (
    DegreeMismatch,
    DeskScaleExceeded,
    DimensionMismatch,
    FaceNotInLattice,
    FlagVecError,
    IncompleteBasis,
    InvalidParams,
    MissingEntry,
    NotEulerian,
    UnsupportedDimension,
)
from .flagalg import (
    FlagVector,
    FVector,
    complete_from_sparse,
    euler_check,
    gds_relation,
    gds_pairs,
    gds_residuals,
    reduce_index,
    sparse_basis,
)
from .lattice import (
    FaceLattice,
    build_crosspolytope,
    build_cube,
    build_cyclic,
    build_polygon,
    build_simplex,
)
from .forms import (
    FlagForm,
    battery,
    check_candidate,
    convolve,
    dual_form,
    evaluate_by_face_sum,
    g_forms,
    kalai_5d_form,
    kalai_5d_summands,
    sample_feasible_5d,
)
from .cdindex import (
    AbPolynomial,
    CdPolynomial,
    ab_index,
    ab_to_cd,
    cd_coefficient,
    cd_index,
    cd_word_to_flag_form,
    cd_words,
    stanley_nonneg_check,
    toric_g,
    toric_h,
)
from .families import (
    PropertyReport,
    candidate_6d,
    candidate_7d,
    connected_sum_f,
    cyclic_f,
    cyclic_sum_f,
    logconv_scan,
    neighborly_gap,
    properties,
)
from .verify import VerificationReport, run_verification

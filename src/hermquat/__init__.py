"""Exact arithmetic linking binary hermitian forms over imaginary quadratic
fields with quaternion orders and embeddings of the ring of integers.

Everything is computed over the rationals with no floating point: the
polarization of hermitian quadratic forms, construction of the quaternion
algebra attached to a pointed space and of the order attached to a pointed
integral lattice (and the inverse), signed discriminants on both sides, and
the local-global decision of whether a form represents 1.
"""

from .errors import (
    BStabilityError,
    ClosureError,
    DegenerateFormError,
    Error,
    HypothesisError,
    InputError,
    InvariantViolation,
    MembershipError,
    NotHermitianError,
    NotIntegralError,
    RankError,
    UnsupportedRamificationError,
)
from .hermitian import (
    Definiteness,
    DiscValue,
    FORM_SIGN_CONVENTION,
    HermSpace,
    IntegralForm,
    LATTICE_SIGN_CONVENTION,
    Lattice,
    det_form,
    discriminant_form,
    lattice_from_B_basis,
    polarize,
    polarize_independence_check,
    sesquilinear_from_gram,
    space_basis,
    vec,
    vec_add,
    vec_scale,
)
from .qfield import QElem, QuadField, SplitType, splitting
from .quaternion import (
    Embedding,
    PointedForm,
    QuatAlgebra,
    QuatOrder,
    algebra_table,
    build_algebra,
    build_order,
    is_optimal,
    lattice_disc,
    order_to_pointed,
)
from .represent import (
    Certificate,
    LocalReport,
    RepOneReport,
    RepresentConfig,
    VERDICT_LOCAL_OBSTRUCTION,
    VERDICT_REAL_OBSTRUCTION,
    VERDICT_REPRESENTED,
    VERDICT_SEARCH_EXHAUSTED,
    global_search,
    hensel_liftable,
    local_test,
    represents_one_integral,
)
from .sweep import SweepRow, run_sweep, surviving_forms

__version__ = "0.1.0"

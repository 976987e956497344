"""Exact arithmetic linking binary hermitian forms over imaginary quadratic
fields with quaternion orders and embeddings of the ring of integers.

Everything is computed over the rationals with no floating point: the
polarization of hermitian quadratic forms, construction of the quaternion
algebra attached to a pointed space and of the order attached to a pointed
integral lattice (and the inverse), signed discriminants on both sides, and
the local-global decision of whether a form represents 1.

The public names load on first use (PEP 562): ``hermquat.X`` imports the
submodule that defines X and returns its current attribute.
"""

import importlib
import sys

# Public name -> the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in (
        ("errors", "BStabilityError ClosureError DegenerateFormError Error HypothesisError "
         "InputError InvariantViolation MembershipError NotHermitianError NotIntegralError "
         "RankError UnsupportedRamificationError"),
        ("hermitian", "Definiteness DiscValue FORM_SIGN_CONVENTION HermSpace IntegralForm "
         "LATTICE_SIGN_CONVENTION Lattice det_form discriminant_form lattice_from_B_basis "
         "polarize polarize_independence_check sesquilinear_from_gram space_basis vec_add "
         "vec_scale"),
        ("qfield", "QElem QuadField SplitType splitting"),
        ("quaternion", "Embedding PointedForm QuatAlgebra QuatOrder build_algebra build_order "
         "is_optimal lattice_disc order_to_pointed"),
        ("represent", "Certificate LocalReport RepOneReport RepresentConfig "
         "VERDICT_LOCAL_OBSTRUCTION VERDICT_REAL_OBSTRUCTION VERDICT_REPRESENTED "
         "VERDICT_SEARCH_EXHAUSTED global_search hensel_liftable local_test "
         "represents_one_integral"),
        ("sweep", "SweepRow run_sweep surviving_forms"),
    )
    for name in names.split()
}
_SUBMODULES = frozenset(
    "arith cli errors hermitian jsonio linalg qfield quaternion represent sweep verify".split()
)

__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is not None:
        module = f"{__name__}.{module}"  # import_module takes ~2 us even when loaded
        return getattr(sys.modules.get(module) or importlib.import_module(module), name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

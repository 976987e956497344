"""Deciding whether a binary hermitian form represents 1.

Over the rationals the decision is a signature computation.  Over the
integers the pipeline combines the real condition, p-adic solvability at
the finitely many primes dividing 2*D*Delta, and a deterministic box search
for a witness; the square-free discriminant hypothesis makes every local
test constructive.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from sympy import factorint, isprime

from . import linalg
from .errors import (
    HypothesisError,
    InputError,
    InvariantViolation,
    UnsupportedRamificationError,
)
from .hermitian import (
    Definiteness,
    DiscValue,
    HermSpace,
    IntegralForm,
    Lattice,
    Vector,
    vec_add,
    vec_scale,
)
from .qfield import QuadField

logger = logging.getLogger(__name__)

VERDICT_REPRESENTED = "Represented"
VERDICT_REAL_OBSTRUCTION = "RealObstruction"
VERDICT_LOCAL_OBSTRUCTION = "LocalObstruction"
VERDICT_SEARCH_EXHAUSTED = "LocallyRepresentedSearchExhausted"

METHOD_UNRAMIFIED_UNIT = "UnramifiedUnitValue"
METHOD_RAMIFIED_DIAGONAL = "RamifiedTwoUnitDiagonal"
METHOD_DIRECT_HENSEL = "DirectHensel"


@dataclass(frozen=True)
class Certificate:
    """An approximate local solution: a vector mod p^modulus_exponent.

    Satisfies val_p(h(x) - 1) >= 2*hensel_t + 1 with gradient valuation at
    most hensel_t, hence lifts to an exact p-adic solution.
    """

    vector: tuple[int, ...]
    modulus_exponent: int
    hensel_t: int


@dataclass
class LocalReport:
    prime: int
    solvable: bool
    method: str | None = None
    certificate: Certificate | None = None


@dataclass
class RepresentConfig:
    search_bound: int = 50
    primes: tuple[int, ...] | None = None


@dataclass
class RepOneReport:
    real_ok: bool
    locals: list[LocalReport]
    witness: Vector | None
    verdict: str
    obstruction_prime: int | None = None
    discriminant: DiscValue | None = None


# ---------------------------------------------------------------------------
# Hensel criterion


def hensel_liftable(gram, x, p: int, t: int) -> bool:
    """Sufficient criterion for x to lift to an exact p-adic solution of h = 1.

    True iff val_p(h(x) - 1) >= 2t + 1 and some partial derivative of h at x
    has valuation at most t.  For p = 2 the exponent t must be at least 1.
    """
    if not isprime(p):
        raise InputError(f"{p} is not prime")
    if p == 2 and t < 1:
        raise InputError("p = 2 requires Hensel exponent t >= 1")
    n = len(x)
    value = linalg.evaluate_quadratic(gram, x)
    if linalg.valuation(value - 1, p) < 2 * t + 1:
        return False
    grad_vals = []
    for i in range(n):
        gi = 2 * sum(gram[i][j] * x[j] for j in range(n))
        grad_vals.append(linalg.valuation(gi, p))
    return min(grad_vals) <= t


# ---------------------------------------------------------------------------
# Rational (real-place) decision


def represents_one_rational(space: HermSpace):
    """Signature decision plus a best-effort small rational witness.

    The decision is authoritative: a nondegenerate quaternary hermitian form
    represents 1 over Q exactly when it is not negative definite.  The
    witness search tries numerators up to height 4 and denominators up to 4.
    """
    if not space.is_nondegenerate():
        raise InputError("decision requires a nondegenerate form")
    if space.definiteness() == Definiteness.NEGATIVE_DEFINITE:
        return False, None
    field = space.field
    from .hermitian import space_basis

    basis = space_basis(field)
    gram = space.gram4()
    for k in range(1, 5):
        target = Fraction(k * k)
        hit = _box_first(gram, 4, target)
        if hit is not None:
            v = _combine(field, basis, hit)
            return True, vec_scale(Fraction(1, k), v)
    return True, None


def _combine(field: QuadField, basis, coeffs) -> Vector:
    out = (field.zero(), field.zero())
    for c, g in zip(coeffs, basis):
        if c:
            out = vec_add(out, vec_scale(Fraction(c), g))
    return out


def _box_first(gram, bound, target):
    for h in range(0, bound + 1):
        for c in _shell_vectors(h, (bound,) * 4):
            if linalg.evaluate_quadratic(gram, c) == target:
                return c
    return None


def _shell_vectors(height, clamps):
    """Vectors with max|c_i| == height, |c_i| <= clamps[i], ascending lex order."""

    def rec(i, prefix, hit):
        if i == 4:
            if hit:
                yield prefix
            return
        lim = min(height, clamps[i])
        if i == 3 and not hit:
            if height <= clamps[3]:
                for c in sorted({-height, height}):
                    yield prefix + (c,)
            return
        for c in range(-lim, lim + 1):
            yield from rec(i + 1, prefix + (c,), hit or abs(c) == height)

    yield from rec(0, (), False)


# ---------------------------------------------------------------------------
# Local tests


def _find_unit_value(form: IntegralForm, p: int):
    """A lattice vector with h-value prime to p and that value, or None.

    Reads h(b_i) = w_ii / 2 and b(b_i, b_j) = w_ij off the record; None
    means h(Lambda) lies in pZ.
    """
    b = form.lattice.basis
    w = form.w
    for i in range(4):
        if (w[i][i] // 2) % p:
            return b[i], w[i][i] // 2
    for i in range(4):
        for j in range(i + 1, 4):
            if w[i][j] % p:
                return vec_add(b[i], b[j]), (w[i][i] + w[j][j]) // 2 + w[i][j]
    return None


def _norm_residue_scale(field: QuadField, target: int, modulus: int):
    """(r, s) with n(r + s*omega) = target mod modulus, or None.

    The modulus is 8 or an odd prime p not dividing D.  For odd p,
    completing the square gives 4*n(r + s*omega) = y^2 - D*s^2 with
    y = 2r - a*s, so the smallest s with 4*target + D*s^2 a square y^2
    mod p fixes r = (y + a*s)/2; modulus 8 is scanned.
    """
    a, b = field.min_a, field.min_b
    if modulus % 2:
        for s in range(modulus):
            y = _sqrt_mod(4 * target + field.D * s * s, modulus)
            if y is not None:
                return (y + a * s) * ((modulus + 1) // 2) % modulus, s
        return None
    for r in range(modulus):
        for s in range(modulus):
            if (r * r - a * r * s + b * s * s - target) % modulus == 0:
                return r, s
    return None


def _frac_mod(x: Fraction, m: int) -> int:
    if gcd(x.denominator, m) != 1:
        raise InvariantViolation(f"denominator of {x} not invertible mod {m}")
    return x.numerator * pow(x.denominator, -1, m) % m


def local_test(space: HermSpace, lattice: Lattice, p: int) -> LocalReport:
    """Solvability of h = 1 over the p-adic integers, with a certificate.

    Requires the form integral with val_p of the discriminant at most 1.
    Unramified p: a unit h-value is rescaled into 1 by a norm; its absence
    means h(Lambda) is divisible by p and the form is locally insolvable.
    Ramified odd p: the quaternary form is diagonalized with p-adically
    integral pivots and the two unit diagonal entries already represent 1.
    Ramified p = 2 is outside the supported theory.
    """
    if not isprime(p):
        raise InputError(f"{p} is not prime")
    form = space.integral_form(lattice)
    field = space.field
    if p == 2 and field.D % 2 == 0:
        raise UnsupportedRamificationError(
            "p = 2 ramifies (even field discriminant); unsupported"
        )
    n_delta = int(form.delta.as_ideal)
    if linalg.valuation(n_delta, p) >= 2:
        raise HypothesisError(
            f"|Delta| = {n_delta} is not square-free at p = {p}", prime=p
        )
    if field.D % p != 0:
        return _local_unramified(form, p)
    return _local_ramified(form, p, n_delta)


def _local_unramified(form: IntegralForm, p: int):
    found = _find_unit_value(form, p)
    if found is None:
        method = METHOD_DIRECT_HENSEL if p == 2 else METHOD_UNRAMIFIED_UNIT
        return LocalReport(p, False, method, None)
    u, hval = found
    field = form.lattice.field
    if p == 2:
        modulus, k, t = 8, 3, 1
        method = METHOD_DIRECT_HENSEL
    else:
        modulus, k, t = p, 1, 0
        method = METHOD_UNRAMIFIED_UNIT
    target = pow(hval % modulus, -1, modulus)
    rs = _norm_residue_scale(field, target, modulus)
    if rs is None:
        raise InvariantViolation(
            f"norm map failed to reach {target} mod {modulus}; p = {p} unramified"
        )
    lam = field.elem(rs[0], rs[1])
    x = vec_scale(lam, u)
    coords = form.lattice.integer_coords(x)
    cert_vec = tuple(c % p**k for c in coords)
    cert = Certificate(cert_vec, k, t)
    if not hensel_liftable(form.gram, list(cert_vec), p, t):
        raise InvariantViolation(f"constructed certificate fails Hensel at p = {p}")
    return LocalReport(p, True, method, cert)


def _local_ramified(form: IntegralForm, p: int, n_delta: int):
    if p == 2:
        raise UnsupportedRamificationError("p = 2 ramified case is unsupported")
    gram = form.gram
    diag, trans = linalg.congruence_diagonalize(gram, prime=p)
    for row in trans:
        for x in row:
            if linalg.valuation(x, p) < 0:
                raise InvariantViolation("diagonalizing transform is not p-integral")
    if linalg.valuation(linalg.mat_det(trans), p) != 0:
        raise InvariantViolation("diagonalizing transform is not a p-adic unit")
    vals = sorted(linalg.valuation(diag[i][i], p) for i in range(4))
    v_delta = linalg.valuation(n_delta, p)
    expected = [0, 0, 1, 1] if v_delta == 1 else [0, 0, 0, 0]
    if vals != expected:
        raise InvariantViolation(
            f"p-adic diagonal shape {vals} contradicts val_p(Delta) = {v_delta}"
        )
    units = [i for i in range(4) if linalg.valuation(diag[i][i], p) == 0]
    i0, i1 = units[0], units[1]
    a1 = _frac_mod(diag[i0][i0], p)
    a2 = _frac_mod(diag[i1][i1], p)
    sol = None
    inv_a2 = pow(a2, -1, p)
    for x0 in range(p):
        rhs = (1 - a1 * x0 * x0) * inv_a2 % p
        y0 = _sqrt_mod(rhs, p)
        if y0 is not None:
            sol = (x0, y0)
            break
    if sol is None:
        raise InvariantViolation(
            f"two-unit binary form fails to represent 1 mod {p}"
        )
    z = [Fraction(0)] * 4
    z[i0], z[i1] = Fraction(sol[0]), Fraction(sol[1])
    coords = linalg.mat_col(trans, z)
    cert_vec = tuple(_frac_mod(c, p) for c in coords)
    cert = Certificate(cert_vec, 1, 0)
    if not hensel_liftable(gram, list(cert_vec), p, 0):
        raise InvariantViolation(f"ramified certificate fails Hensel at p = {p}")
    return LocalReport(p, True, METHOD_RAMIFIED_DIAGONAL, cert)


def _sqrt_mod(a: int, p: int):
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    from sympy.ntheory.residue_ntheory import sqrt_mod

    return sqrt_mod(a, p)


# ---------------------------------------------------------------------------
# Global search


def global_search(space: HermSpace, lattice: Lattice, height_bound: int):
    """First lattice vector with h = 1 in (shell, c1, c2, c3, c4) order.

    Coefficients run over [-H, H] with H increasing to the bound; for a
    positive definite form the coordinates are additionally clamped by the
    exact ellipsoid bound, making the search complete.  Returns None when
    the search space is exhausted.
    """
    form = space.integral_form(lattice)
    w = form.w
    defin = form.definiteness
    if defin == Definiteness.NEGATIVE_DEFINITE:
        return None
    clamps = (height_bound,) * 4
    top = height_bound
    if defin == Definiteness.POSITIVE_DEFINITE:
        inv = linalg.mat_inverse(form.gram)
        clamps = tuple(
            min(height_bound, _floor_sqrt_fraction(inv[i][i])) for i in range(4)
        )
        top = min(height_bound, max(clamps))
    for h in range(0, top + 1):
        for c in _shell_vectors(h, clamps):
            total = 0
            for i in range(4):
                ci = c[i]
                if ci:
                    row = w[i]
                    total += ci * (
                        row[0] * c[0] + row[1] * c[1] + row[2] * c[2] + row[3] * c[3]
                    )
            if total == 2:
                return form.lattice.from_integer_coords(c)
    return None


def _floor_sqrt_fraction(x: Fraction) -> int:
    if x < 0:
        return 0
    return isqrt(x.numerator * x.denominator) // x.denominator


# ---------------------------------------------------------------------------
# The integral pipeline


def local_prime_set(field: QuadField, delta: DiscValue):
    return sorted(factorint(2 * abs(field.D) * int(delta.as_ideal)).keys())


def represents_one_integral(
    space: HermSpace, lattice: Lattice, config: RepresentConfig | None = None
) -> RepOneReport:
    """Full local-global decision for h = 1 on an integral lattice.

    Verdicts: RealObstruction (negative definite), LocalObstruction(p),
    Represented(witness), or LocallyRepresentedSearchExhausted.  The last
    outcome for an indefinite form with square-free discriminant would
    contradict the guaranteed existence of a witness and is logged loudly.
    """
    config = config or RepresentConfig()
    field = space.field
    if field.D % 2 == 0:
        raise UnsupportedRamificationError(
            "even field discriminant: 2 ramifies, outside the supported theory"
        )
    if not space.is_nondegenerate():
        raise InputError("pipeline requires a nondegenerate form")
    form = space.integral_form(lattice)
    defin = form.definiteness
    delta = form.delta
    if defin == Definiteness.NEGATIVE_DEFINITE:
        return RepOneReport(
            real_ok=False,
            locals=[],
            witness=None,
            verdict=VERDICT_REAL_OBSTRUCTION,
            discriminant=delta,
        )
    primes = list(config.primes) if config.primes else local_prime_set(field, delta)
    reports = [local_test(space, lattice, p) for p in primes]
    bad = next((r for r in reports if not r.solvable), None)
    if bad is not None:
        return RepOneReport(
            real_ok=True,
            locals=reports,
            witness=None,
            verdict=VERDICT_LOCAL_OBSTRUCTION,
            obstruction_prime=bad.prime,
            discriminant=delta,
        )
    witness = global_search(space, lattice, config.search_bound)
    if witness is not None:
        return RepOneReport(
            real_ok=True,
            locals=reports,
            witness=witness,
            verdict=VERDICT_REPRESENTED,
            discriminant=delta,
        )
    # Every prime of |Delta| is in local_prime_set and passed local_test's
    # val_p(Delta) <= 1 check, so only a caller's own prime set needs factoring.
    sf = not config.primes or all(
        e == 1 for e in factorint(int(delta.as_ideal)).values()
    )
    if defin == Definiteness.INDEFINITE and sf:
        logger.warning(
            "indefinite form with square-free |Delta| = %s exhausted the search "
            "bound %s; a witness is guaranteed to exist",
            delta.as_ideal,
            config.search_bound,
        )
    return RepOneReport(
        real_ok=True,
        locals=reports,
        witness=None,
        verdict=VERDICT_SEARCH_EXHAUSTED,
        discriminant=delta,
    )

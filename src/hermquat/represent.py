"""Deciding whether a binary hermitian form represents 1.

The pipeline combines the real condition (a negative definite form
represents no positive number), p-adic solvability at the finitely many
primes dividing 2*D*Delta, and a deterministic box search for a witness;
the square-free discriminant hypothesis makes every local test
constructive.
"""

from __future__ import annotations

from math import isqrt
from operator import mul

from . import linalg
from .arith import isprime, sqrt_mod as _sqrt_mod
from .errors import (
    HypothesisError,
    InputError,
    InvariantViolation,
    UnsupportedRamificationError,
)
from .hermitian import Definiteness, FrozenRecord, HermSpace, IntegralForm, Lattice, Record
from .qfield import QuadField, SplitType, splitting

VERDICT_REPRESENTED = "Represented"
VERDICT_REAL_OBSTRUCTION = "RealObstruction"
VERDICT_LOCAL_OBSTRUCTION = "LocalObstruction"
VERDICT_SEARCH_EXHAUSTED = "LocallyRepresentedSearchExhausted"

METHOD_UNRAMIFIED_UNIT = "UnramifiedUnitValue"
METHOD_RAMIFIED_DIAGONAL = "RamifiedTwoUnitDiagonal"
METHOD_DIRECT_HENSEL = "DirectHensel"


class Certificate(FrozenRecord):
    """An approximate local solution: a vector mod p^modulus_exponent.

    Satisfies val_p(h(x) - 1) >= 2*hensel_t + 1 with gradient valuation at
    most hensel_t, hence lifts to an exact p-adic solution.
    """

    __slots__ = ("vector", "modulus_exponent", "hensel_t")

    def __init__(self, vector: tuple[int, ...], modulus_exponent: int, hensel_t: int):
        object.__setattr__(self, "vector", vector)
        object.__setattr__(self, "modulus_exponent", modulus_exponent)
        object.__setattr__(self, "hensel_t", hensel_t)


class LocalReport(Record):
    __slots__ = ("prime", "solvable", "method", "certificate")

    def __init__(self, prime: int, solvable: bool, method=None, certificate=None):
        self.prime = prime
        self.solvable = solvable
        self.method = method
        self.certificate = certificate


class RepresentConfig(Record):
    __slots__ = ("search_bound",)

    def __init__(self, search_bound: int = 50):
        self.search_bound = search_bound


class RepOneReport(Record):
    __slots__ = ("real_ok", "locals", "witness", "verdict", "obstruction_prime", "discriminant")

    def __init__(
        self, real_ok, locals, witness, verdict, obstruction_prime=None, discriminant=None
    ):
        self.real_ok = real_ok
        self.locals = locals
        self.witness = witness
        self.verdict = verdict
        self.obstruction_prime = obstruction_prime
        self.discriminant = discriminant


# ---------------------------------------------------------------------------
# Hensel criterion


def hensel_liftable(w, x, p: int, t: int) -> bool:
    """Sufficient criterion for x to lift to an exact p-adic solution of h = 1.

    ``w`` is the integer matrix 2G of the bilinear form (``IntegralForm.w``),
    so h(x) = x.w.x / 2 and the gradient of h at x is w.x.  True iff p^(2t+1)
    divides h(x) - 1 and p^(t+1) does not divide some gradient entry, that
    is val_p(h(x) - 1) >= 2t + 1 and the gradient has valuation at most t.
    For p = 2 the exponent t must be at least 1.
    """
    if not isprime(p):
        raise InputError(f"{p} is not prime")
    if p == 2 and t < 1:
        raise InputError("p = 2 requires Hensel exponent t >= 1")
    if (_h_value(w, x) - 1) % p ** (2 * t + 1):
        return False
    q = p ** (t + 1)
    return any(sum(a * b for a, b in zip(row, x)) % q for row in w)


# ---------------------------------------------------------------------------
# Local tests


def _unit_value(w, vecs, p: int):
    """The first vector with h-value prime to p, as (slot, x, h(x)), or None.

    Scans the coordinate vectors ``vecs`` on the lattice basis, then their
    pairwise sums vecs[k] + vecs[j] with k < j in that order; a sum reports
    slot k.  h(x) = x.w.x / 2 is returned exactly.  None means that h
    vanishes mod p on the span of ``vecs``, since then every b-value does.
    """
    for k, x in enumerate(vecs):
        hx = _h_value(w, x)
        if hx % p:
            return k, x, hx
    for k in range(len(vecs)):
        for j in range(k + 1, len(vecs)):
            x = [s + t for s, t in zip(vecs[k], vecs[j])]
            hx = _h_value(w, x)
            if hx % p:
                return k, x, hx
    return None


def _h_value(w, x) -> int:
    return sum(map(mul, linalg.vec_mat(x, w), x)) // 2


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


def local_test(space: HermSpace, lattice: Lattice, p: int) -> LocalReport:
    """Solvability of h = 1 over the p-adic integers, with a certificate.

    Requires the form integral with val_p of the discriminant at most 1.
    Unramified p: a unit h-value is rescaled into 1 by a norm; its absence
    means h(Lambda) is divisible by p and the form is locally insolvable.
    Ramified odd p: a Gram-Schmidt over Z/p on the integer Gram 2G splits
    off orthogonal vectors of unit h-value, 4 - 2*val_p(Delta) of them; the
    first two, with h-values a1 and a2, carry a solution of
    a1*x^2 + a2*y^2 = 1 mod p, which is the certificate.
    Ramified p = 2 is outside the supported theory.
    """
    kind = splitting(space.field, p)
    form = space.integral_form(lattice)
    if p == 2 and kind is SplitType.RAMIFIED:
        raise UnsupportedRamificationError(
            "p = 2 ramifies (even field discriminant); unsupported"
        )
    n_delta = int(form.delta.as_ideal)
    if n_delta % (p * p) == 0:
        raise HypothesisError(
            f"|Delta| = {n_delta} is not square-free at p = {p}", prime=p
        )
    if kind is SplitType.RAMIFIED:
        return _local_ramified(form, p, int(n_delta % p == 0))
    return _local_unramified(form, p)


_BASIS = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))


def _local_unramified(form: IntegralForm, p: int):
    found = _unit_value(form.w, _BASIS, p)
    if found is None:
        method = METHOD_DIRECT_HENSEL if p == 2 else METHOD_UNRAMIFIED_UNIT
        return LocalReport(p, False, method, None)
    _, u, hval = found
    if p == 2:
        modulus, k, t = 8, 3, 1
        method = METHOD_DIRECT_HENSEL
    else:
        modulus, k, t = p, 1, 0
        method = METHOD_UNRAMIFIED_UNIT
    target = pow(hval % modulus, -1, modulus)
    rs = _norm_residue_scale(form.lattice.field, target, modulus)
    if rs is None:
        raise InvariantViolation(
            f"norm map failed to reach {target} mod {modulus}; p = {p} unramified"
        )
    # lambda*x for lambda = r + s*omega has coordinates r*u + s*(u.Omega)
    r, s = rs
    q = p**k
    uo = linalg.vec_mat(u, form.lattice.omega_rows())
    cert_vec = tuple((r * x + s * y) % q for x, y in zip(u, uo))
    cert = Certificate(cert_vec, k, t)
    if not hensel_liftable(form.w, cert_vec, p, t):
        raise InvariantViolation(f"constructed certificate fails Hensel at p = {p}")
    return LocalReport(p, True, method, cert)


def _local_ramified(form: IntegralForm, p: int, v_delta: int):
    w = form.w
    vecs = list(_BASIS)
    units = []
    while vecs:
        found = _unit_value(w, vecs, p)
        if found is None:
            break
        k, u, hu = found
        units.append((u, hu % p))
        # the pivot takes the first slot, whose vector moves to slot k
        vecs[k] = vecs[0]
        wu = linalg.vec_mat(u, w)
        inv = pow(2 * hu, -1, p)
        rest = []
        for v in vecs[1:]:
            c = sum(s * t for s, t in zip(v, wu)) * inv
            rest.append([(s - c * t) % p for s, t in zip(v, u)])
        vecs = rest
    if len(units) != 4 - 2 * v_delta:
        raise InvariantViolation(
            f"h has rank {len(units)} mod {p}, contradicting val_p(Delta) = {v_delta}"
        )
    (u1, a1), (u2, a2) = units[0], units[1]
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
    cert_vec = tuple((sol[0] * s + sol[1] * t) % p for s, t in zip(u1, u2))
    cert = Certificate(cert_vec, 1, 0)
    if not hensel_liftable(form.w, cert_vec, p, 0):
        raise InvariantViolation(f"ramified certificate fails Hensel at p = {p}")
    return LocalReport(p, True, METHOD_RAMIFIED_DIAGONAL, cert)


# ---------------------------------------------------------------------------
# Global search


def _least_c4(a: int, b: int, c: int, m: int, lim: int):
    """The least (shell, c4) with a*c4^2 + 2*b*c4 + c = 0 and |c4| <= lim, or None.

    The shell of the vector is max(m, |c4|) for a prefix of height m.  For
    a = b = c = 0 every c4 solves, and -min(m, lim) comes first.
    """
    if a:
        disc = b * b - a * c
        s = isqrt(max(disc, 0))
        if s * s != disc:
            return None
        roots = [r // a for r in (-b - s, -b + s) if r % a == 0]
    elif b:
        if c % (2 * b):
            return None
        roots = [-c // (2 * b)]
    elif c:
        return None
    else:
        return m, -min(m, lim)
    keys = [(max(m, abs(r)), r) for r in roots if abs(r) <= lim]
    return min(keys) if keys else None


def global_search(space: HermSpace, lattice: Lattice, height_bound: int):
    """First lattice vector with h = 1 in (shell, c1, c2, c3, c4) order.

    Coefficients run over [-H, H] with H increasing to the bound; for a
    positive definite form each coordinate is additionally clamped by the
    exact ellipsoid bound.  None proves that h does not represent 1 on the
    lattice only for a negative definite form, or for a positive definite
    one whose ellipsoid bounds are all within the height bound: only then
    is the search complete.  Otherwise None means that the box was
    exhausted.

    The last coordinate is solved, not walked: for a prefix (c1, c2, c3),
    h(c) = 1 is the integer equation A*c4^2 + 2*B*c4 + C = 0 with
    A = W44, B = sum W4i*ci and C = x'.W'.x' - 2 on the first three
    coordinates, W = 2G; its integer roots come from an isqrt of B^2 - A*C,
    or from -C/(2B) when A = 0, and when A = B = C = 0 every c4 solves.  A
    root c4 of a prefix of height m lies in shell max(m, |c4|).  Prefixes
    run in shells of their own height m and in lex order within one, so
    once the shells up to m are done every vector of shell m is known and
    the least one found is the first witness.  Each prefix is evaluated
    once: at most (2H+1)^3 root tests, not (2H+1)^4 vectors.
    """
    form = space.integral_form(lattice)
    w = form.w
    defin = form.definiteness
    if defin == Definiteness.NEGATIVE_DEFINITE:
        return None
    clamps = (height_bound,) * 4
    if defin == Definiteness.POSITIVE_DEFINITE:
        # G^-1 = 2 * W^-1 = 2 * adj(W) / det(W) bounds |c_i| by
        # sqrt((G^-1)_ii) on h(c) = 1, and floor(sqrt(n / q)) is
        # isqrt(n * q) // q for integers n >= 0 and q > 0
        adj, det = linalg.int_adjugate(w)
        clamps = tuple(
            min(height_bound, isqrt(2 * adj[i][i] * det) // det) for i in range(4)
        )
    w4, k4 = w[3], clamps[3]
    best = None
    for m in range(max(clamps[:3]) + 1):
        l1, l2, l3 = (min(m, k) for k in clamps[:3])
        for c1 in range(-l1, l1 + 1):
            for c2 in range(-l2, l2 + 1):
                if abs(c1) == m or abs(c2) == m:
                    c3s = range(-l3, l3 + 1)
                elif m <= clamps[2]:
                    c3s = (-m, m)
                else:
                    continue
                for c3 in c3s:
                    x = (c1, c2, c3)
                    b = w4[0] * c1 + w4[1] * c2 + w4[2] * c3
                    c = sum(x[i] * w[i][j] * x[j] for i in range(3) for j in range(3)) - 2
                    found = _least_c4(w4[3], b, c, m, k4)
                    if found is None:
                        continue
                    key = (found[0], c1, c2, c3, found[1])
                    if best is None or key < best:
                        best = key
                    if found[0] == m:
                        # no later prefix of this shell, nor a later shell, comes first
                        return form.lattice.from_integer_coords(best[1:])
        if best is not None and best[0] <= m:
            break
    return None if best is None else form.lattice.from_integer_coords(best[1:])


# ---------------------------------------------------------------------------
# The integral pipeline


def local_prime_set(form: IntegralForm):
    """The primes of 2*D*Delta: 2, the field's ramified primes and the record's primes of |Delta|."""
    return sorted({2, *form.lattice.field.ramified_primes, *form.delta_factors()})


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
    reports = [local_test(space, lattice, p) for p in local_prime_set(form)]
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
    sf = all(e == 1 for e in form.delta_factors().values())
    if defin == Definiteness.INDEFINITE and sf:
        import logging  # on this path only, so that no command loads it up front

        logging.getLogger(__name__).warning(
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

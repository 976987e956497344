"""Binary hermitian spaces over an imaginary quadratic field.

A hermitian space is stored as the 2x2 Gram matrix ``[[alpha, gamma],
[conj(gamma), beta]]`` of the sesquilinear form s in the standard basis of
V = L^2; the quadratic form is h(v) = s(v, v).  The ambient rational
structure of V is always the fixed basis (e1, omega*e1, e2, omega*e2), in
that order, and lattices are rank-4 Z-lattices in V that are stable under
omega.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import isqrt, lcm
from operator import mul

from . import linalg
from .arith import factorint
from .errors import (
    BStabilityError,
    DegenerateFormError,
    InputError,
    InvariantViolation,
    MembershipError,
    NotHermitianError,
    NotIntegralError,
    RankError,
)
from .qfield import QElem, QuadField

Vector = tuple[QElem, QElem]

FORM_SIGN_CONVENTION = "positive-iff-definite"
LATTICE_SIGN_CONVENTION = "positive-iff-matrix-algebra"


class Definiteness(Enum):
    POSITIVE_DEFINITE = "PositiveDefinite"
    NEGATIVE_DEFINITE = "NegativeDefinite"
    INDEFINITE = "Indefinite"
    DEGENERATE = "Degenerate"


class Record:
    """Field equality and a field-listing repr, read from ``__slots__``."""

    __slots__ = ()

    def _fields(self):
        return tuple(getattr(self, k) for k in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={getattr(self, k)!r}" for k in self.__slots__)
        return f"{type(self).__name__}({args})"


class FrozenRecord(Record):
    """A record whose ``__init__`` sets its fields once, in ``__slots__`` order
    (copies and pickles rebuild it that way); it hashes its fields."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __hash__(self):
        return hash(self._fields())

    def __reduce__(self):
        return type(self), self._fields()


class DiscValue(FrozenRecord):
    """A signed rational invariant together with its sign convention."""

    __slots__ = ("value", "convention")

    def __init__(self, value: Fraction, convention: str):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "convention", convention)

    @property
    def as_ideal(self) -> Fraction:
        return abs(self.value)


# ---------------------------------------------------------------------------
# Vectors in L^2


def vec_add(v: Vector, w: Vector) -> Vector:
    return (v[0] + w[0], v[1] + w[1])


def vec_scale(l, v: Vector) -> Vector:
    return (l * v[0], l * v[1])


def vec_coords(v: Vector) -> list[Fraction]:
    """Coordinates in the fixed rational basis (e1, w*e1, e2, w*e2)."""
    return [v[0].a, v[0].b, v[1].a, v[1].b]


def vec_from_coords(field: QuadField, c) -> Vector:
    return (field.elem(c[0], c[1]), field.elem(c[2], c[3]))


def space_basis(field: QuadField) -> tuple[Vector, ...]:
    z = field.zero()
    o = field.one()
    w = field.omega()
    return ((o, z), (w, z), (z, o), (z, w))


def omega_matrix(field: QuadField):
    """Integer matrix (row convention) of scalar multiplication by omega on Q^4."""
    ma, mb = field.min_a, field.min_b
    return [
        [0, 1, 0, 0],
        [-mb, -ma, 0, 0],
        [0, 0, 0, 1],
        [0, 0, -mb, -ma],
    ]


# ---------------------------------------------------------------------------
# Hermitian spaces


class HermSpace:
    """Binary hermitian space with Gram matrix [[alpha, gamma], [conj(gamma), beta]]."""

    __slots__ = ("field", "alpha", "beta", "gamma", "_num", "_defin", "_form")

    def __init__(self, field: QuadField, alpha, beta, gamma):
        self.field = field
        self.alpha = Fraction(alpha)
        self.beta = Fraction(beta)
        g = gamma if isinstance(gamma, QElem) else field.elem(gamma)
        if g.field != field:
            raise InputError("gamma lives in a different field")
        self.gamma = g
        # (k; al, be, ga, gb): alpha, beta and gamma = (ga + gb*omega) over k
        fr = (self.alpha, self.beta, g.a, g.b)
        k = lcm(*(x.denominator for x in fr))
        al, be, ga, gb = (x.numerator * (k // x.denominator) for x in fr)
        self._num = (k, al, be, ga, gb)
        # Sylvester's criterion on k^2 * (alpha*beta - n(gamma))
        det = al * be - (ga * ga - field.min_a * ga * gb + field.min_b * gb * gb)
        if det == 0:
            self._defin = Definiteness.DEGENERATE
        elif det < 0:
            self._defin = Definiteness.INDEFINITE
        elif al > 0:
            self._defin = Definiteness.POSITIVE_DEFINITE
        else:
            self._defin = Definiteness.NEGATIVE_DEFINITE
        self._form = None

    def s_value(self, v: Vector, w: Vector) -> QElem:
        """The sesquilinear form; L-linear in v, conjugate-linear in w."""
        g = self.gamma
        return (
            (v[0] * w[0].conj()) * self.alpha
            + (v[0] * w[1].conj()) * g
            + (v[1] * w[0].conj()) * g.conj()
            + (v[1] * w[1].conj()) * self.beta
        )

    def h_value(self, v: Vector) -> Fraction:
        return (
            v[0].norm() * self.alpha
            + v[1].norm() * self.beta
            + (v[0] * v[1].conj() * self.gamma).trace()
        )

    def is_nondegenerate(self) -> bool:
        return self._defin is not Definiteness.DEGENERATE

    def _double_gram4(self):
        """Integers (M, k) with 2 * gram4() = M / k, from the closed form.

        gram4 = [[alpha*N, C], [C^T, beta*N]]: N = [[1, -a/2], [-a/2, b]] is
        the norm Gram of B on (1, omega), a and b the coefficients of the
        minimal polynomial of omega, and C[i][j] = tr(x_i * conj(y_j) *
        gamma) / 2 for x_i, y_j in (1, omega).
        """
        ma, mb = self.field.min_a, self.field.min_b
        k, al, be, ga, gb = self._num
        # k times tr(gamma), tr(omega*gamma) and tr(conj(omega)*gamma)
        t1 = 2 * ga - ma * gb
        tw = -ma * ga + (ma * ma - 2 * mb) * gb
        tc = -ma * t1 - tw
        m = [
            [2 * al, -ma * al, t1, tc],
            [-ma * al, 2 * mb * al, tw, mb * t1],
            [t1, tw, 2 * be, -ma * be],
            [tc, mb * t1, -ma * be, 2 * mb * be],
        ]
        return m, k

    def gram4(self):
        """Gram matrix of h on the fixed rational basis of V."""
        m, k = self._double_gram4()
        return [[Fraction(x, 2 * k) for x in row] for row in m]

    def definiteness(self) -> Definiteness:
        """Sylvester's criterion on the 2x2 hermitian Gram matrix."""
        return self._defin

    def integral_form(self, lattice: "Lattice") -> "IntegralForm":
        """The validated IntegralForm of h on ``lattice``.

        The last lattice's record is kept for the pipeline's next layer;
        a call returns its own record even under threads.
        """
        if (form := self._form) is None or form.lattice is not lattice:
            form = self._form = IntegralForm(self, lattice)
        return form

    def scale(self, c) -> "HermSpace":
        c = Fraction(c)
        return HermSpace(self.field, self.alpha * c, self.beta * c, self.gamma * c)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HermSpace)
            and self.field == other.field
            and self.alpha == other.alpha
            and self.beta == other.beta
            and self.gamma == other.gamma
        )

    def __hash__(self):
        return hash((self.field.d, self.alpha, self.beta, self.gamma.a, self.gamma.b))

    def __repr__(self) -> str:
        return f"HermSpace({self.field.d}, {self.alpha}, {self.beta}, {self.gamma!r})"


# ---------------------------------------------------------------------------
# Polarization: quadratic form -> sesquilinear form


def sesquilinear_from_gram(gram, field: QuadField, l: QElem | None = None):
    """The n x n matrix of s_l-values recovered from a 2n x 2n rational Gram.

    The Gram is over the omega-structure basis (f1, w*f1, ..., fn, w*fn).
    The recovery divides by conj(l) - l, so l must not be rational.
    """
    size = len(gram)
    if size % 2:
        raise InputError("gram must have even size")
    n = size // 2
    for i in range(size):
        for j in range(size):
            if Fraction(gram[i][j]) != Fraction(gram[j][i]):
                raise InputError("gram matrix is not symmetric")
    if l is None:
        l = field.omega()
    if l.conj() == l:
        raise InputError("polarization sample l must not be rational")
    # with l = c + e*omega: b(f_i, f_j) = 2*G[2i][2j] and
    # b(l*f_i, f_j) = 2*(c*G[2i][2j] + e*G[2i+1][2j])
    c, e = l.a, l.b
    lc = l.conj()
    denom = lc - l
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            g0, g1 = Fraction(gram[2 * i][2 * j]), Fraction(gram[2 * i + 1][2 * j])
            row.append((lc * (2 * g0) - 2 * (c * g0 + e * g1)) / denom)
        out.append(row)
    return out


def polarize(h_gram, field: QuadField) -> HermSpace:
    """The unique hermitian Gram matrix S with s(x, x) = h(x).

    ``h_gram`` is the 4x4 rational Gram of a quadratic form on V = L^2 over
    the fixed basis (e1, w*e1, e2, w*e2).  Raises NotHermitianError when h
    fails the scaling law h(l*x) = n(l)*h(x).
    """
    if len(h_gram) != 4 or any(len(r) != 4 for r in h_gram):
        raise InputError("expected a 4x4 Gram matrix")
    g = [[Fraction(x) for x in row] for row in h_gram]
    m = omega_matrix(field)
    scaled = linalg.mat_mul(linalg.mat_mul(m, g), linalg.mat_transpose(m))
    nw = field.omega().norm()
    if scaled != [[nw * x for x in row] for row in g]:
        raise NotHermitianError("h(omega*x) != n(omega)*h(x); form is not hermitian")
    s = sesquilinear_from_gram(g, field)
    alpha, gamma = s[0][0], s[0][1]
    gamma_t, beta = s[1][0], s[1][1]
    if not (alpha.is_rational() and beta.is_rational()) or gamma_t != gamma.conj():
        raise NotHermitianError("polarization is not conjugate-symmetric")
    space = HermSpace(field, alpha.rational_value(), beta.rational_value(), gamma)
    if space.gram4() != g:
        raise NotHermitianError("no hermitian form reproduces the given h")
    return space


def polarize_independence_check(h_gram, field: QuadField, l_samples) -> bool:
    """Whether s_l computed from h agrees for every supplied sample l."""
    if not l_samples:
        return True
    mats = []
    for l in l_samples:
        if not isinstance(l, QElem) or l.conj() == l:
            raise InputError(f"invalid polarization sample {l!s}")
        mats.append(sesquilinear_from_gram(h_gram, field, l))
    return all(m == mats[0] for m in mats[1:])


# ---------------------------------------------------------------------------
# Lattices


class Lattice:
    """A rank-4 Z-lattice in L^2 that is a module over the ring of integers."""

    __slots__ = ("field", "basis", "_scaled_rows", "_inv", "_omega")

    def __init__(self, field: QuadField, basis):
        basis = tuple(basis)
        if len(basis) != 4:
            raise RankError("a lattice needs exactly 4 basis vectors")
        for v in basis:
            if v[0].field != field or v[1].field != field:
                raise InputError("basis vector in a different field")
        scaled, den = linalg.scaled_integer_matrix([vec_coords(v) for v in basis])
        adj, det = linalg.int_adjugate(scaled)
        if det == 0:
            raise RankError("basis vectors are not Z-linearly independent")
        self.field = field
        self.basis = basis
        self._scaled_rows = (scaled, den)
        # (R / den)^-1 = den * adj(R) / det(R), kept as integer numerators
        # over the denominator det(R)
        self._inv = ([[x * den for x in row] for row in adj], det)
        # omega * b_i has coordinates R_i.Omega / den, so omega acts on the
        # basis by R.Omega.adj(R) / det(R)
        omega = linalg.mat_mul(linalg.mat_mul(scaled, omega_matrix(field)), adj)
        if any(x % det for row in omega for x in row):
            raise BStabilityError("lattice is not stable under omega")
        self._omega = [[x // det for x in row] for row in omega]

    @classmethod
    def standard(cls, field: QuadField) -> "Lattice":
        return cls(field, space_basis(field))

    def scaled_rows(self):
        """(R, den): integer rows R / den, the coordinates of the basis vectors."""
        return self._scaled_rows

    def _coord_numerators(self, v: Vector):
        """(c, q): the coordinates of v on the basis are c / q."""
        (x,), xd = linalg.scaled_integer_matrix([vec_coords(v)])
        inv, det = self._inv
        return linalg.vec_mat(x, inv), xd * det

    def omega_rows(self):
        """Integer matrix of omega on the basis: omega*b_i = sum_j O[i][j]*b_j."""
        return self._omega

    def contains(self, v: Vector) -> bool:
        c, q = self._coord_numerators(v)
        return not any(x % q for x in c)

    def from_integer_coords(self, c) -> Vector:
        rows, den = self._scaled_rows
        x = [Fraction(sum(t * r[j] for t, r in zip(c, rows)), den) for j in range(4)]
        return vec_from_coords(self.field, x)

    def index_of_sublattice(self, sub: "Lattice") -> int:
        rows, den = sub.scaled_rows()
        inv, det = self._inv
        # the basis of sub in coordinates on this basis, over q
        change = linalg.mat_mul(rows, inv)
        q = den * det
        if any(x % q for row in change for x in row):
            raise MembershipError("not a sublattice")
        return abs(linalg.int_det([[x // q for x in row] for row in change]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Lattice) or other.field != self.field:
            return NotImplemented
        try:
            return self.index_of_sublattice(other) == 1
        except MembershipError:
            return False

    def __hash__(self):
        raise TypeError("lattices are unhashable")

    def __repr__(self) -> str:
        return f"Lattice({self.field.d}, {[tuple(map(str, v)) for v in self.basis]})"


def lattice_from_B_basis(v1: Vector, v2: Vector) -> Lattice:
    """The free module B*v1 + B*v2 as a Z-lattice with basis (v1, w*v1, v2, w*v2)."""
    field = v1[0].field
    if v1[0] * v2[1] - v1[1] * v2[0] == 0:
        raise RankError("vectors are L-linearly dependent")
    w = field.omega()
    return Lattice(field, (v1, vec_scale(w, v1), v2, vec_scale(w, v2)))


# ---------------------------------------------------------------------------
# The form on a lattice: one integer Gram, its determinant and Delta


def _double_gram(space: HermSpace, lattice: Lattice):
    """Integers (N, s) with 2*G = N / s, G the Gram matrix of h on the lattice basis.

    N = R.M.R^T for the lattice rows R / den and 2 * gram4 = M / k, so
    s = den^2 * k.
    """
    rows, den = lattice.scaled_rows()
    m, k = space._double_gram4()
    rm = [linalg.vec_mat(r, m) for r in rows]
    n = [[0] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(i, 4):
            n[i][j] = n[j][i] = sum(map(mul, rm[i], rows[j]))
    return n, den * den * k


def det_form(space: HermSpace, lattice: Lattice) -> DiscValue:
    """The signed determinant d(Lambda, h) = Delta / D.

    det(2G) = Delta^2 holds for every nondegenerate form, integral or not,
    so with 2G = N / s, |d| = sqrt(det N) / (s^2 * |D|); the sign is
    positive exactly for definite forms.
    """
    if not space.is_nondegenerate():
        raise DegenerateFormError("determinant of a degenerate form")
    n, scale = _double_gram(space, lattice)
    det = linalg.int_det(n)
    root = isqrt(det) if det > 0 else 0
    if root * root != det:
        raise InvariantViolation(f"det(2G) = {Fraction(det, scale**4)} is not a square")
    sign = -1 if space.definiteness() is Definiteness.INDEFINITE else 1
    return DiscValue(
        Fraction(sign * root, scale * scale * abs(space.field.D)), FORM_SIGN_CONVENTION
    )


def discriminant_form(space: HermSpace, lattice: Lattice) -> DiscValue:
    """Delta(Lambda, h) = D * d(Lambda, h) of an integral form, an integer.

    It is ``IntegralForm.delta``; raises NotIntegralError, then
    DegenerateFormError, as the record does.
    """
    return space.integral_form(lattice).delta


class IntegralForm:
    """A nondegenerate form that is integral on a lattice, with its invariants.

    Built once per (form, lattice) pair, kept by ``HermSpace.integral_form``
    and read by every layer of the pipeline, so that no layer tests
    integrality or computes the discriminant again.
    ``w`` is the integer matrix 2*G of the bilinear form b = tr(s) on the
    lattice basis, where G = R.gram4.R^T is the Gram matrix of h there:
    h is integral exactly when 2*G is an integer matrix with an even
    diagonal, and det(2*G) = Delta^2.  The sign of Delta is positive exactly
    for indefinite forms.  ``discriminant_form`` returns ``delta`` and
    ``det_form`` reads Delta / D from the same integer Gram; the independent
    path is the order side's trace pairing, ``quaternion.lattice_disc``.
    The record holds no reference back to its space, so that a space and the
    record it keeps are freed together without waiting for the cycle
    collector.
    """

    __slots__ = ("lattice", "w", "definiteness", "delta", "_factors")

    def __init__(self, space: HermSpace, lattice: Lattice):
        n, scale = _double_gram(space, lattice)
        w = [[0] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(i, 4):
                q, rem = divmod(n[i][j], scale)
                if rem:
                    raise NotIntegralError("form is not integral on the lattice")
                w[i][j] = w[j][i] = q
            if w[i][i] % 2:
                raise NotIntegralError("form is not integral on the lattice")
        if not space.is_nondegenerate():
            raise DegenerateFormError("discriminant of a degenerate form")
        det = linalg.int_det(w)
        root = isqrt(det) if det > 0 else 0
        if root * root != det:
            raise InvariantViolation(f"det(2G) = {det} of an integral form is not a square")
        self.lattice = lattice
        self.w = w
        self.definiteness = space.definiteness()
        sign = 1 if self.definiteness is Definiteness.INDEFINITE else -1
        self.delta = DiscValue(Fraction(sign * root), FORM_SIGN_CONVENTION)
        self._factors = None

    def delta_factors(self) -> dict[int, int]:
        """The factorization of |Delta|, computed on first use and kept.

        The sweep's square-free filter and the local prime set both read it,
        so |Delta| is factored once per row.  Raises ``InputError`` when
        |Delta| exceeds ``arith.FACTOR_LIMIT``.
        """
        if self._factors is None:
            self._factors = factorint(int(self.delta.as_ideal))
        return self._factors

"""Binary hermitian spaces over an imaginary quadratic field.

A hermitian space is stored as the 2x2 Gram matrix ``[[alpha, gamma],
[conj(gamma), beta]]`` of the sesquilinear form s in the standard basis of
V = L^2; the quadratic form is h(v) = s(v, v).  The ambient rational
structure of V is always the fixed basis (e1, omega*e1, e2, omega*e2), in
that order, and lattices are rank-4 Z-lattices in V that are stable under
omega.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import isqrt, lcm

from . import linalg
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


@dataclass(frozen=True)
class DiscValue:
    """A signed rational invariant together with its sign convention."""

    value: Fraction
    convention: str

    @property
    def as_ideal(self) -> Fraction:
        return abs(self.value)


# ---------------------------------------------------------------------------
# Vectors in L^2


def vec(field: QuadField, x, y) -> Vector:
    tx = x if isinstance(x, QElem) else field.elem(x)
    ty = y if isinstance(y, QElem) else field.elem(y)
    return (tx, ty)


def vec_add(v: Vector, w: Vector) -> Vector:
    return (v[0] + w[0], v[1] + w[1])


def vec_sub(v: Vector, w: Vector) -> Vector:
    return (v[0] - w[0], v[1] - w[1])


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
    """Matrix (row convention) of scalar multiplication by omega on Q^4."""
    ma, mb = field.min_a, field.min_b
    z, o = Fraction(0), Fraction(1)
    return [
        [z, o, z, z],
        [Fraction(-mb), Fraction(-ma), z, z],
        [z, z, z, o],
        [z, z, Fraction(-mb), Fraction(-ma)],
    ]


# ---------------------------------------------------------------------------
# Hermitian spaces


class HermSpace:
    """Binary hermitian space with Gram matrix [[alpha, gamma], [conj(gamma), beta]]."""

    __slots__ = ("field", "alpha", "beta", "gamma", "_gram4", "_defin", "_form")

    def __init__(self, field: QuadField, alpha, beta, gamma):
        self.field = field
        self.alpha = Fraction(alpha)
        self.beta = Fraction(beta)
        g = gamma if isinstance(gamma, QElem) else field.elem(gamma)
        if g.field != field:
            raise InputError("gamma lives in a different field")
        self.gamma = g
        self._gram4 = None
        self._defin = None
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

    def b_value(self, v: Vector, w: Vector) -> Fraction:
        return self.s_value(v, w).trace()

    def det2(self) -> Fraction:
        return self.alpha * self.beta - self.gamma.norm()

    def is_nondegenerate(self) -> bool:
        return self.det2() != 0

    def _double_gram4(self):
        """Integers (M, k) with 2 * gram4() = M / k, from the closed form.

        gram4 = [[alpha*N, C], [C^T, beta*N]]: N = [[1, -a/2], [-a/2, b]] is
        the norm Gram of B on (1, omega), a and b the coefficients of the
        minimal polynomial of omega, and C[i][j] = tr(x_i * conj(y_j) *
        gamma) / 2 for x_i, y_j in (1, omega).
        """
        ma, mb = self.field.min_a, self.field.min_b
        fr = (self.alpha, self.beta, self.gamma.a, self.gamma.b)
        k = lcm(*(x.denominator for x in fr))
        al, be, ga, gb = (x.numerator * (k // x.denominator) for x in fr)
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
        if self._gram4 is None:
            m, k = self._double_gram4()
            self._gram4 = [[Fraction(x, 2 * k) for x in row] for row in m]
        return self._gram4

    def definiteness(self) -> Definiteness:
        """Sylvester's criterion on the 2x2 hermitian Gram matrix."""
        if self._defin is None:
            det2 = self.det2()
            if det2 == 0:
                self._defin = Definiteness.DEGENERATE
            elif det2 < 0:
                self._defin = Definiteness.INDEFINITE
            elif self.alpha > 0:
                self._defin = Definiteness.POSITIVE_DEFINITE
            else:
                self._defin = Definiteness.NEGATIVE_DEFINITE
        return self._defin

    def integral_form(self, lattice: "Lattice") -> "IntegralForm":
        """The validated IntegralForm of h on ``lattice``.

        The record of the last lattice asked for is kept, so the layers of
        one pipeline run share a single record for the pair.
        """
        if self._form is None or self._form.lattice is not lattice:
            self._form = IntegralForm(self, lattice)
        return self._form

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


def gram_on_basis(space: HermSpace, vectors):
    """Gram matrix of h restricted to an arbitrary tuple of vectors."""
    n = len(vectors)
    g = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = space.h_value(vectors[i])
        for j in range(i + 1, n):
            g[i][j] = g[j][i] = space.b_value(vectors[i], vectors[j]) / 2
    return g


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
    lm = _scalar_block(field, l, n)
    lc = l.conj()
    denom = lc - l

    def bform(x, y):
        return 2 * sum(
            x[i] * gram[i][j] * y[j] for i in range(size) for j in range(size)
        )

    out = []
    for i in range(n):
        x = [Fraction(0)] * size
        x[2 * i] = Fraction(1)
        lx = linalg.vec_mat(x, lm)
        row = []
        for j in range(n):
            y = [Fraction(0)] * size
            y[2 * j] = Fraction(1)
            num = lc * bform(x, y) - bform(lx, y)
            row.append(num / denom)
        out.append(row)
    return out


def _scalar_block(field: QuadField, l: QElem, n: int):
    ma, mb = field.min_a, field.min_b
    c, e = l.a, l.b
    block = [[c, e], [-e * mb, c - e * ma]]
    z = Fraction(0)
    m = [[z] * (2 * n) for _ in range(2 * n)]
    for k in range(n):
        for i in range(2):
            for j in range(2):
                m[2 * k + i][2 * k + j] = block[i][j]
    return m


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
    if not linalg.mat_eq(scaled, [[nw * x for x in row] for row in g]):
        raise NotHermitianError("h(omega*x) != n(omega)*h(x); form is not hermitian")
    s = sesquilinear_from_gram(g, field)
    alpha, gamma = s[0][0], s[0][1]
    gamma_t, beta = s[1][0], s[1][1]
    if not (alpha.is_rational() and beta.is_rational()) or gamma_t != gamma.conj():
        raise NotHermitianError("polarization is not conjugate-symmetric")
    space = HermSpace(field, alpha.rational_value(), beta.rational_value(), gamma)
    if not linalg.mat_eq(space.gram4(), g):
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
    first = mats[0]
    return all(
        all(m[i][j] == first[i][j] for i in range(len(first)) for j in range(len(first)))
        for m in mats[1:]
    )


# ---------------------------------------------------------------------------
# Lattices


class Lattice:
    """A rank-4 Z-lattice in L^2 that is a module over the ring of integers."""

    __slots__ = ("field", "basis", "_rows", "_scaled_rows", "_inv", "omega_action")

    def __init__(self, field: QuadField, basis):
        basis = tuple(basis)
        if len(basis) != 4:
            raise RankError("a lattice needs exactly 4 basis vectors")
        for v in basis:
            if v[0].field != field or v[1].field != field:
                raise InputError("basis vector in a different field")
        rows = [vec_coords(v) for v in basis]
        if linalg.mat_det(rows) == 0:
            raise RankError("basis vectors are not Z-linearly independent")
        self.field = field
        self.basis = basis
        self._rows = rows
        self._scaled_rows = linalg.scaled_integer_matrix(rows)
        self._inv = linalg.mat_inverse(rows)
        w = field.omega()
        action = []
        for v in basis:
            c = linalg.vec_mat(vec_coords(vec_scale(w, v)), self._inv)
            if not linalg.is_integral_vector(c):
                raise BStabilityError("lattice is not stable under omega")
            action.append([int(x) for x in c])
        # integer matrix of multiplication by omega: the B-stability certificate
        self.omega_action = action

    @classmethod
    def standard(cls, field: QuadField) -> "Lattice":
        return cls(field, space_basis(field))

    def coord_rows(self):
        return self._rows

    def scaled_rows(self):
        """(R, den): integer rows with coord_rows() = R / den."""
        return self._scaled_rows

    def coords_of(self, v: Vector):
        return linalg.vec_mat(vec_coords(v), self._inv)

    def contains(self, v: Vector) -> bool:
        return linalg.is_integral_vector(self.coords_of(v))

    def integer_coords(self, v: Vector):
        c = self.coords_of(v)
        if not linalg.is_integral_vector(c):
            raise MembershipError("vector does not lie in the lattice")
        return [int(x) for x in c]

    def from_integer_coords(self, c) -> Vector:
        x = linalg.vec_mat([Fraction(t) for t in c], self._rows)
        return vec_from_coords(self.field, x)

    def index_of_sublattice(self, sub: "Lattice") -> Fraction:
        change = linalg.mat_mul(sub.coord_rows(), self._inv)
        if not linalg.is_integral_matrix(change):
            raise MembershipError("not a sublattice")
        return abs(linalg.mat_det(change))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Lattice) or other.field != self.field:
            return NotImplemented
        return linalg.rational_span_equal(self._rows, other._rows)

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


def is_integral(space: HermSpace, lattice: Lattice) -> bool:
    """h(Lambda) inside Z, tested on h- and b-values of a Z-basis."""
    b = lattice.basis
    for i in range(4):
        if space.h_value(b[i]).denominator != 1:
            return False
        for j in range(i + 1, 4):
            if space.b_value(b[i], b[j]).denominator != 1:
                return False
    return True


# ---------------------------------------------------------------------------
# Determinant and discriminant of a form on a lattice


def free_sublattice_pair(lattice: Lattice, start: int = 0):
    """An L-independent pair among the basis vectors, scanning from ``start``."""
    b = lattice.basis
    n = len(b)
    for i in range(n):
        w1 = b[(start + i) % n]
        for j in range(n):
            w2 = b[(start + j) % n]
            if w1[0] * w2[1] - w1[1] * w2[0] != 0:
                return w1, w2
    raise RankError("lattice has rank < 2 over L")


def det_form(space: HermSpace, lattice: Lattice, start: int = 0) -> DiscValue:
    """The signed determinant d(Lambda, h).

    Computed as det of s on a free sublattice B*w1 + B*w2 divided by the
    index [Lambda : B*w1 + B*w2]; the sign is the sign of det(s(v_i, v_j)),
    positive exactly for definite forms.
    """
    if not space.is_nondegenerate():
        raise DegenerateFormError("determinant of a degenerate form")
    w1, w2 = free_sublattice_pair(lattice, start)
    # the free sublattice (w1, w*w1, w2, w*w2) sits inside the B-stable
    # lattice, so its index is the ratio of coordinate determinants
    omega = space.field.omega()
    sub_rows = [
        vec_coords(w1),
        vec_coords(vec_scale(omega, w1)),
        vec_coords(w2),
        vec_coords(vec_scale(omega, w2)),
    ]
    index = abs(linalg.mat_det(sub_rows)) / abs(linalg.mat_det(lattice.coord_rows()))
    det2 = space.h_value(w1) * space.h_value(w2) - space.s_value(w1, w2).norm()
    return DiscValue(det2 / index, FORM_SIGN_CONVENTION)


def discriminant_form(space: HermSpace, lattice: Lattice) -> DiscValue:
    """Delta(Lambda, h) = D * d(Lambda, h); an integer for integral forms."""
    if not is_integral(space, lattice):
        raise NotIntegralError("form is not integral on the lattice")
    d = det_form(space, lattice)
    value = space.field.D * d.value
    if value.denominator != 1:
        raise InvariantViolation(
            f"discriminant {value} of an integral form is not an integer"
        )
    return DiscValue(value, FORM_SIGN_CONVENTION)


# ---------------------------------------------------------------------------
# One validated record per (form, lattice)


class IntegralForm:
    """A nondegenerate form that is integral on a lattice, with its invariants.

    Built once per (form, lattice) pair, kept by ``HermSpace.integral_form``
    and read by every layer of the pipeline, so that no layer tests
    integrality or computes the discriminant again.
    ``w`` is the integer matrix 2*G of the bilinear form b = tr(s) on the
    lattice basis, where G = R.gram4.R^T is the Gram matrix of h there:
    h is integral exactly when 2*G is an integer matrix with an even
    diagonal, and det(2*G) = Delta^2.  The sign of Delta is positive exactly
    for indefinite forms.  ``discriminant_form`` computes Delta on an
    independent path (a free sublattice and its index).  The record holds
    no reference back to its space, so that a space and the record it keeps
    are freed together without waiting for the cycle collector.
    """

    __slots__ = ("lattice", "w", "definiteness", "delta")

    def __init__(self, space: HermSpace, lattice: Lattice):
        rows, den = lattice.scaled_rows()
        m, k = space._double_gram4()
        scale = den * den * k
        rm = [[sum(r[t] * m[t][j] for t in range(4)) for j in range(4)] for r in rows]
        w = [[0] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(i, 4):
                q, rem = divmod(sum(rm[i][t] * rows[j][t] for t in range(4)), scale)
                if rem:
                    raise NotIntegralError("form is not integral on the lattice")
                w[i][j] = w[j][i] = q
            if w[i][i] % 2:
                raise NotIntegralError("form is not integral on the lattice")
        if not space.is_nondegenerate():
            raise DegenerateFormError("discriminant of a degenerate form")
        det = int(linalg.mat_det(w))
        root = isqrt(det) if det > 0 else 0
        if root * root != det:
            raise InvariantViolation(f"det(2G) = {det} of an integral form is not a square")
        self.lattice = lattice
        self.w = w
        self.definiteness = space.definiteness()
        sign = 1 if self.definiteness is Definiteness.INDEFINITE else -1
        self.delta = DiscValue(Fraction(sign * root), FORM_SIGN_CONVENTION)

    @property
    def gram(self):
        """G = w / 2, built on each call to keep the stored record small."""
        return [[Fraction(x, 2) for x in row] for row in self.w]

"""Quaternion algebras and orders as structure-constant tables.

An algebra is a 4x4 table of rational coordinate vectors together with the
coordinates of its identity.  The constructors here realize both directions
of the correspondence: a pointed hermitian space (V, v, h) with h(v) = 1
gives the algebra L + L.u on the basis (v, w*v, u, w*u), and an embedded
order gives back a pointed integral hermitian lattice.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import NamedTuple

from . import linalg
from .errors import (
    BStabilityError,
    ClosureError,
    DegenerateFormError,
    InputError,
    InvariantViolation,
    MembershipError,
    RankError,
)
from .hermitian import (
    LATTICE_SIGN_CONVENTION,
    DiscValue,
    HermSpace,
    Lattice,
    Vector,
    det_form,
    space_basis,
    vec_coords,
    vec_from_coords,
    vec_scale,
    vec_sub,
)
from .qfield import QElem, QuadField


def algebra_table(a, b, theta):
    """Structure constants of K[pi] + K[pi].u on the basis (1, pi, u, pi*u).

    Here pi is a root of x^2 + a*x + b, u^2 = theta and u*m = conj(m)*u.
    """
    a, b, th = Fraction(a), Fraction(b), Fraction(theta)
    z = Fraction(0)
    o = Fraction(1)

    def v(*xs):
        return [Fraction(x) for x in xs]

    e0, e1, e2, e3 = v(o, z, z, z), v(z, o, z, z), v(z, z, o, z), v(z, z, z, o)
    return [
        [e0, e1, e2, e3],
        [e1, v(-b, -a, z, z), e3, v(z, z, -b, -a)],
        [e2, v(z, z, -a, -o), v(th, z, z, z), v(-a * th, -th, z, z)],
        [e3, v(z, z, b, z), v(z, th, z, z), v(b * th, z, z, z)],
    ]


class QuatAlgebra:
    """A 4-dimensional algebra given by structure constants.

    ``table[i][j]`` holds the coordinates of e_i * e_j.  Only
    ``canonical`` sets ``theta`` (u^2 = theta), and only ``build_algebra``
    sets ``frame`` (rows = V-coordinates of the algebra basis) and its
    inverse; the closed-form norm Gram relies on ``theta`` describing the
    table, so a parsed table never carries it.
    """

    __slots__ = (
        "field", "table", "one", "theta", "frame", "_frame_inv", "_trace_vec",
        "_tn", "_td", "_trace_n",
    )

    def __init__(self, field, table, one=None, validate=False):
        self.field = field
        self.table = [
            [[Fraction(x) for x in entry] for entry in row] for row in table
        ]
        self.one = (
            [Fraction(1), Fraction(0), Fraction(0), Fraction(0)]
            if one is None
            else [Fraction(x) for x in one]
        )
        self.theta = None
        self.frame = None
        self._frame_inv = None
        # the table as integers over one denominator: table[a][b] = _tn[a][b] / _td,
        # so _tn[a] is the integer matrix of x -> e_a * x on the standard basis
        flat, td = linalg.scaled_integer_matrix(
            [entry for row in self.table for entry in row]
        )
        self._tn = [flat[4 * a : 4 * a + 4] for a in range(4)]
        self._td = td
        # reduced_trace(x) = <x, _trace_vec> / 2 since tr(L_x) is linear in x
        tv = [sum(self._tn[i][j][j] for j in range(4)) for i in range(4)]
        self._trace_vec = [Fraction(t, td) for t in tv]
        # trace Gram trd(e_a * e_b) = _trace_n[a][b] / (2 * _td^2)
        self._trace_n = [
            [sum(x * t for x, t in zip(self._tn[a][b], tv)) for b in range(4)]
            for a in range(4)
        ]
        if validate:
            if not self.is_identity(self.one):
                raise InputError("declared identity is not a two-sided identity")
            bad = self.associativity_failures()
            if bad:
                i, j, k = bad[0]
                raise InputError(f"multiplication table is not associative at {(i, j, k)}")

    @classmethod
    def canonical(cls, field: QuadField, theta):
        """L + L.u on the basis (1, omega, u, omega*u) with u^2 = theta."""
        alg = cls(field, algebra_table(field.min_a, field.min_b, theta))
        alg.theta = Fraction(theta)
        return alg

    # -- multiplication and the reduced operations

    def mul(self, x, y):
        out = [Fraction(0)] * 4
        for i in range(4):
            if not x[i]:
                continue
            for j in range(4):
                if not y[j]:
                    continue
                c = x[i] * y[j]
                entry = self.table[i][j]
                for k in range(4):
                    if entry[k]:
                        out[k] += c * entry[k]
        return out

    def is_identity(self, e) -> bool:
        return all(
            self.mul(e, b) == b and self.mul(b, e) == b for b in _std_basis()
        )

    def associativity_failures(self):
        basis = _std_basis()
        fails = []
        for i in range(4):
            for j in range(4):
                for k in range(4):
                    lhs = self.mul(self.mul(basis[i], basis[j]), basis[k])
                    rhs = self.mul(basis[i], self.mul(basis[j], basis[k]))
                    if lhs != rhs:
                        fails.append((i, j, k))
        return fails

    def reduced_trace(self, x) -> Fraction:
        t = self._trace_vec
        return (x[0] * t[0] + x[1] * t[1] + x[2] * t[2] + x[3] * t[3]) / 2

    def conj(self, x):
        t = self.reduced_trace(x)
        return [t * o - xi for o, xi in zip(self.one, x)]

    def reduced_norm(self, x) -> Fraction:
        z = self.mul(x, self.conj(x))
        k = next(i for i in range(4) if self.one[i])
        c = z[k] / self.one[k]
        if z != [c * o for o in self.one]:
            raise InvariantViolation("x * conj(x) is not a scalar; not a quaternion algebra")
        return c

    def norm_bilinear(self, x, y) -> Fraction:
        xy = [a + b for a, b in zip(x, y)]
        return self.reduced_norm(xy) - self.reduced_norm(x) - self.reduced_norm(y)

    def norm_gram(self):
        """Gram matrix of the reduced norm on the basis of the table.

        For a canonical algebra n(x + y*u) = n(x) - theta*n(y), so the Gram
        is blockdiag(N, -theta*N) with N the norm Gram of B on (1, omega).
        """
        if self.theta is not None:
            ma, mb = self.field.min_a, self.field.min_b
            n = [[Fraction(1), Fraction(-ma, 2)], [Fraction(-ma, 2), Fraction(mb)]]
            z = Fraction(0)
            th = self.theta
            return [row + [z, z] for row in n] + [[z, z] + [-th * x for x in row] for row in n]
        basis = _std_basis()
        g = [[Fraction(0)] * 4 for _ in range(4)]
        for i in range(4):
            g[i][i] = self.reduced_norm(basis[i])
            for j in range(i + 1, 4):
                g[i][j] = g[j][i] = self.norm_bilinear(basis[i], basis[j]) / 2
        return g

    def scalar(self, c):
        return [Fraction(c) * o for o in self.one]

    # -- conversions through the frame (canonical algebras only)

    def to_space(self, x) -> Vector:
        return vec_from_coords(self.field, linalg.vec_mat(x, self.frame))

    def from_space(self, v: Vector):
        return linalg.vec_mat(vec_coords(v), self._frame_inv)


def _std_basis():
    return [
        [Fraction(int(i == j)) for j in range(4)] for i in range(4)
    ]


# ---------------------------------------------------------------------------
# Pointed hermitian space -> algebra


def build_algebra(space: HermSpace, point: Vector) -> QuatAlgebra:
    """The quaternion algebra on V with identity ``point`` (h(point) = 1).

    The basis is (v, w*v, u, w*u) where u is the first standard basis vector
    made orthogonal to v; theta = -h(u).  The reduced norm of the result is
    exactly h.
    """
    if not space.is_nondegenerate():
        raise DegenerateFormError("cannot build an algebra from a degenerate form")
    if space.h_value(point) != 1:
        raise InputError("the point must satisfy h(v) = 1")
    field = space.field
    e1, _, e2, _ = space_basis(field)
    w = next(
        e for e in (e1, e2) if point[0] * e[1] - point[1] * e[0] != 0
    )
    gamma0 = space.s_value(w, point)
    u = vec_sub(w, vec_scale(gamma0, point))
    theta = -space.h_value(u)
    if theta == 0:
        raise DegenerateFormError("orthogonal complement is isotropic; form degenerate")
    omega = field.omega()
    alg = QuatAlgebra.canonical(field, theta)
    alg.frame = [
        vec_coords(point),
        vec_coords(vec_scale(omega, point)),
        vec_coords(u),
        vec_coords(vec_scale(omega, u)),
    ]
    # The frame is the L-linear map (a, b) -> a*point + b*u, whose L-matrix
    # has rows (point, u); its inverse is [[u1, -v1], [-u0, v0]] / det, and
    # det = det(point, u) = det(point, w) != 0 by the choice of w.
    inv = 1 / (point[0] * u[1] - point[1] * u[0])
    inv_rows = ((u[1] * inv, -point[1] * inv), (-u[0] * inv, point[0] * inv))
    alg._frame_inv = [
        vec_coords(r) for row in inv_rows for r in (row, vec_scale(omega, row))
    ]
    # frame.gram4.frame^T = fn.m.fn^T / (2*k*fd^2), where 2*gram4 = m / k
    fn, fd = linalg.scaled_integer_matrix(alg.frame)
    m, k = space._double_gram4()
    got = linalg.mat_mul(linalg.mat_mul(fn, m), linalg.mat_transpose(fn))
    scale = 2 * k * fd * fd
    if not linalg.mat_eq([[x * scale for x in row] for row in alg.norm_gram()], got):
        raise InvariantViolation("norm form of the built algebra differs from h")
    return alg


# ---------------------------------------------------------------------------
# Orders and embeddings


class QuatOrder:
    """A full-rank lattice in a QuatAlgebra containing 1 and closed under *."""

    __slots__ = ("algebra", "zbasis", "_zinv", "one_coords", "products")

    def __init__(self, algebra: QuatAlgebra, zbasis):
        self.algebra = algebra
        self.zbasis = [[Fraction(x) for x in row] for row in zbasis]
        if len(self.zbasis) != 4:
            raise RankError("order basis must be 4 independent vectors")
        try:
            self._zinv = linalg.mat_inverse(self.zbasis)
        except RankError as exc:
            raise RankError("order basis must be 4 independent vectors") from exc
        one = linalg.vec_mat(algebra.one, self._zinv)
        if not linalg.is_integral_vector(one):
            raise ClosureError("lattice does not contain the identity")
        self.one_coords = [int(x) for x in one]
        # z_i * z_j = z_j . (sum_a z_i[a] * tn_a) / td, so the coordinates of
        # the products z_i * z_j, over all j, are the rows of
        # zn . (sum_a zn[i][a] * tn_a) . zinv_n / (dz^2 * td * di).
        zn, dz = linalg.scaled_integer_matrix(self.zbasis)
        zinv_n, di = linalg.scaled_integer_matrix(self._zinv)
        tn = algebra._tn
        den = dz * dz * algebra._td * di
        self.products = []
        for i in range(4):
            left = [
                [sum(c * t for c, t in zip(zn[i], col)) for col in zip(*rows)]
                for rows in zip(*tn)
            ]
            prod = linalg.mat_mul(linalg.mat_mul(zn, left), zinv_n)
            row = []
            for j in range(4):
                c = []
                for x in prod[j]:
                    q, r = divmod(x, den)
                    if r:
                        raise ClosureError(
                            f"product of basis vectors {i} and {j} leaves the lattice"
                        )
                    c.append(q)
                row.append(c)
            self.products.append(row)

    def coords_of(self, x):
        return linalg.vec_mat(x, self._zinv)

    def contains(self, x) -> bool:
        return linalg.is_integral_vector(self.coords_of(x))

    def element(self, coords):
        return linalg.vec_mat([Fraction(c) for c in coords], self.zbasis)

    def discriminant(self) -> DiscValue:
        return lattice_disc(self.algebra, self.zbasis)


class Embedding:
    """An embedding of the ring of integers, pinned by the image of omega."""

    __slots__ = ("order", "omega_image")

    def __init__(self, order: QuatOrder, omega_image):
        coords = [Fraction(x) for x in omega_image]
        if not linalg.is_integral_vector(coords):
            raise InputError("omega image must have integer coordinates in the order")
        self.order = order
        self.omega_image = [int(x) for x in coords]
        alg = order.algebra
        w = self.omega_alg()
        field = alg.field
        lhs = alg.mul(w, w)
        lhs = [
            x + field.min_a * y + field.min_b * o
            for x, y, o in zip(lhs, w, alg.one)
        ]
        if any(lhs):
            raise InputError("omega image fails the minimal polynomial")

    def omega_alg(self):
        return self.order.element(self.omega_image)


def build_order(space: HermSpace, lattice: Lattice, point: Vector):
    """Functor from pointed integral lattices to embedded orders.

    Requires h integral on the lattice, the point inside it with h = 1.
    Closure of the lattice under the induced multiplication is re-verified
    constructively; a failure would falsify the order-closure lemma and is
    surfaced as InvariantViolation.
    """
    space.integral_form(lattice)  # raises unless h is integral and nondegenerate
    if not lattice.contains(point):
        raise MembershipError("point does not lie in the lattice")
    alg = build_algebra(space, point)
    zbasis = [alg.from_space(v) for v in lattice.basis]
    try:
        order = QuatOrder(alg, zbasis)
    except ClosureError as exc:
        raise InvariantViolation(
            f"integral pointed lattice is not closed under multiplication: {exc}"
        ) from exc
    omega_coords = order.coords_of([0, 1, 0, 0])
    if not linalg.is_integral_vector(omega_coords):
        raise InvariantViolation("omega * point escapes the lattice despite stability")
    return order, Embedding(order, [int(x) for x in omega_coords])


class PointedForm(NamedTuple):
    space: HermSpace
    lattice: Lattice
    point: Vector
    frame: list  # rows = algebra coordinates of (e1, w*e1, e2, w*e2)


def order_to_pointed(order: QuatOrder, emb: Embedding) -> PointedForm:
    """Inverse functor: an embedded order as a pointed integral hermitian lattice.

    The L-basis of the algebra is (1, u') where u' is the first standard
    basis vector made orthogonal to 1; the returned frame identifies V = L^2
    with the algebra, row k being the algebra coordinates of the k-th fixed
    basis vector of V.
    """
    alg = order.algebra
    field = alg.field
    if emb.order is not order:
        raise InputError("embedding belongs to a different order")
    w = emb.omega_alg()
    for z in order.zbasis:
        if not order.contains(alg.mul(w, z)):
            raise BStabilityError("order is not a module over the ring of integers")
    if alg.reduced_norm(alg.one) != 1:
        raise InvariantViolation("identity has reduced norm != 1")

    omega = field.omega()
    oc = omega.conj()
    denom = oc - omega

    def i_of(l: QElem):
        return [l.a * o + l.b * wi for o, wi in zip(alg.one, w)]

    def s_of(x, y) -> QElem:
        bxy = alg.norm_bilinear(x, y)
        blx = alg.norm_bilinear(alg.mul(w, x), y)
        return (oc * bxy - blx) / denom

    span = [alg.one, w]
    u = None
    for eps in _std_basis():
        if linalg.mat_rank(span + [eps]) == 3:
            u = [e - c for e, c in zip(eps, i_of(s_of(eps, alg.one)))]
            break
    if u is None:
        raise InvariantViolation("algebra is not 2-dimensional over the field")
    theta = -alg.reduced_norm(u)
    if theta == 0:
        raise DegenerateFormError("norm form degenerate on the orthogonal line")
    space = HermSpace(field, 1, -theta, field.zero())
    frame = [alg.one, w, u, alg.mul(w, u)]
    frame_inv = linalg.mat_inverse(frame)
    vectors = []
    for z in order.zbasis:
        vectors.append(vec_from_coords(field, linalg.vec_mat(z, frame_inv)))
    lattice = Lattice(field, vectors)
    for z, v in zip(order.zbasis, lattice.basis):
        if space.h_value(v) != alg.reduced_norm(z):
            raise InvariantViolation("pulled-back form disagrees with the reduced norm")
    point = vec_from_coords(field, linalg.vec_mat(alg.one, frame_inv))
    return PointedForm(space, lattice, point, frame)


# ---------------------------------------------------------------------------
# Discriminants


def lattice_disc(algebra: QuatAlgebra, zbasis) -> DiscValue:
    """Delta of a full-rank lattice: the square root of det(tr(g_i * g_j)).

    The sign is positive exactly when the algebra is a matrix algebra over
    the reals, i.e. when its norm form is indefinite.
    """
    if len(zbasis) != 4:
        raise RankError("lattice must have full rank in the algebra")
    zn, dz = linalg.scaled_integer_matrix(zbasis)
    # tr(g_i * g_j) = (zn . T . zn^T)[i][j] / den with T = algebra._trace_n
    tr = linalg.mat_mul(linalg.mat_mul(zn, algebra._trace_n), linalg.mat_transpose(zn))
    den = 2 * algebra._td**2 * dz**2
    det = int(linalg.mat_det(tr))
    # det(tr) = det(zbasis)^2 * det(T), so only a zero det can hide a rank defect
    if det == 0 and linalg.mat_det(zbasis) == 0:
        raise RankError("lattice must have full rank in the algebra")
    root = isqrt(-det) if det <= 0 else None
    if root is None or root * root != -det:
        raise InvariantViolation(
            f"trace-pairing determinant {Fraction(det, den**4)} is not minus a square"
        )
    pos, neg, zero = linalg.signature(algebra.norm_gram())
    if zero or (pos, neg) not in ((2, 2), (4, 0)):
        raise InvariantViolation("norm form signature is not that of a quaternion algebra")
    sign = 1 if (pos, neg) == (2, 2) else -1
    return DiscValue(sign * Fraction(root, den * den), LATTICE_SIGN_CONVENTION)


def discr_relation_check(order: QuatOrder, emb: Embedding):
    """Both sides of Delta(Lambda) = D * d(Lambda, n), computed independently.

    The left side is the trace-pairing square root on the order; the right
    side pulls the lattice back to L^2 and uses the hermitian determinant.
    Returns (lhs, rhs, equal) as signed DiscValues.
    """
    lhs = order.discriminant()
    pointed = order_to_pointed(order, emb)
    d = det_form(pointed.space, pointed.lattice)
    rhs = DiscValue(order.algebra.field.D * d.value, LATTICE_SIGN_CONVENTION)
    return lhs, rhs, lhs.value == rhs.value


# ---------------------------------------------------------------------------
# Optimality of embeddings


def line_lattice_intersection(order: QuatOrder, span_rows):
    """Basis rows (algebra coords) of span_Q(span_rows) intersected with the order."""
    den = linalg.common_denominator(span_rows)
    y_t, _ = linalg.scaled_integer_matrix(linalg.mat_transpose(span_rows), den)
    kernel = linalg.left_kernel(y_t)  # right kernel of the span
    if not kernel:
        return []
    m = linalg.mat_mul(order.zbasis, linalg.mat_transpose(kernel))
    m_int, _ = linalg.scaled_integer_matrix(m)
    coeffs = linalg.left_kernel(m_int)
    return [linalg.vec_mat(c, order.zbasis) for c in coeffs]


def is_optimal(emb: Embedding) -> bool:
    """Whether i(L) meets the order exactly in i of the ring of integers."""
    order = emb.order
    alg = order.algebra
    inter = line_lattice_intersection(order, [alg.one, emb.omega_alg()])
    if len(inter) != 2:
        raise InvariantViolation("intersection with i(L) is not rank 2")
    return linalg.rational_span_equal(inter, [alg.one, emb.omega_alg()])


# ---------------------------------------------------------------------------
# Change of point


class Isometry:
    """An L-linear h-preserving map of V, optionally lattice-preserving."""

    __slots__ = ("space", "matrix_q", "matrix_l")

    def __init__(self, space: HermSpace, matrix_q, lattice: Lattice | None = None,
                 point_map: tuple[Vector, Vector] | None = None):
        field = space.field
        self.space = space
        self.matrix_q = [[Fraction(x) for x in row] for row in matrix_q]
        img1 = vec_from_coords(field, self.matrix_q[0])
        img2 = vec_from_coords(field, self.matrix_q[2])
        omega = field.omega()
        if (
            self.matrix_q[1] != vec_coords(vec_scale(omega, img1))
            or self.matrix_q[3] != vec_coords(vec_scale(omega, img2))
        ):
            raise InvariantViolation("matrix is not L-linear")
        self.matrix_l = [
            [img1[0], img1[1]],
            [img2[0], img2[1]],
        ]
        g = space.gram4()
        transported = linalg.mat_mul(
            linalg.mat_mul(self.matrix_q, g), linalg.mat_transpose(self.matrix_q)
        )
        if not linalg.mat_eq(transported, g):
            raise InvariantViolation("matrix does not preserve the hermitian form")
        if point_map is not None:
            src, dst = point_map
            if self.apply(src) != dst:
                raise InvariantViolation("isometry does not map the designated points")
        if lattice is not None:
            for v in lattice.basis:
                if not lattice.contains(self.apply(v)):
                    raise InvariantViolation("isometry does not preserve the lattice")

    def apply(self, v: Vector) -> Vector:
        return vec_from_coords(
            self.space.field, linalg.vec_mat(vec_coords(v), self.matrix_q)
        )

    def compose(self, other: "Isometry") -> "Isometry":
        """self followed by other."""
        return Isometry(self.space, linalg.mat_mul(self.matrix_q, other.matrix_q))


def change_point(space: HermSpace, lattice: Lattice, v: Vector, u: Vector) -> Isometry:
    """Right multiplication by u in the algebra built at v.

    Both points must have h = 1 and u must lie in the lattice; the result
    maps v to u, preserves h exactly and maps the lattice into itself.
    """
    if space.h_value(u) != 1:
        raise InputError("target point must satisfy h(u) = 1")
    if not lattice.contains(u) or not lattice.contains(v):
        raise MembershipError("points must lie in the lattice")
    alg = build_algebra(space, v)
    u_alg = alg.from_space(u)
    rmul = [alg.mul(e, u_alg) for e in _std_basis()]
    matrix_q = linalg.mat_mul(linalg.mat_mul(alg._frame_inv, rmul), alg.frame)
    return Isometry(space, matrix_q, lattice=lattice, point_map=(v, u))

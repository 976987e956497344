"""Quaternion algebras and orders as structure-constant tables.

An algebra is a 4x4 table of rational coordinate vectors together with the
coordinates of its identity.  The constructors here realize both directions
of the correspondence: a pointed hermitian space (V, v, h) with h(v) = 1
gives the algebra L + L.u on the basis (v, w*v, u, w*u), and an embedded
order gives back a pointed integral hermitian lattice.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from operator import mul
from typing import NamedTuple

from . import linalg
from .errors import (
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
    omega_matrix,
    vec_coords,
    vec_from_coords,
)
from .qfield import QuadField


def _table_numerators(a, b, theta: Fraction):
    """Structure constants of K[pi] + K[pi].u on the basis (1, pi, u, pi*u).

    Here pi is a root of x^2 + a*x + b, u^2 = theta and u*m = conj(m)*u;
    the table is returned as integers over the denominator of theta.
    """
    t, s = theta.numerator, theta.denominator
    e0, e1, e2, e3 = ([s * int(i == j) for j in range(4)] for i in range(4))
    return [
        [e0, e1, e2, e3],
        [e1, [-b * s, -a * s, 0, 0], e3, [0, 0, -b * s, -a * s]],
        [e2, [0, 0, -a * s, -s], [t, 0, 0, 0], [-a * t, -t, 0, 0]],
        [e3, [0, 0, b * s, 0], [0, t, 0, 0], [b * t, 0, 0, 0]],
    ], s


def _rational(rows, den):
    """The rational matrix rows / den."""
    return [[Fraction(x, den) for x in row] for row in rows]


_ZERO = Fraction(0)


class QuatAlgebra:
    """A 4-dimensional algebra given by structure constants.

    The stored copy of the table is integer: ``_tn[a][b]`` over the common
    denominator ``_td`` holds the coordinates of e_a * e_b, so ``_tn[a]`` is
    the integer matrix of x -> e_a * x.  ``table`` is derived from it as
    rationals.  Only ``canonical`` sets ``theta`` (u^2 = theta), and only
    ``build_algebra`` sets the inverse of the frame (whose rows are the
    V-coordinates of the algebra basis), as integer numerators over one
    denominator.  The norm form is read from the trace table alike for
    canonical and parsed tables, and kept once built.
    """

    __slots__ = (
        "field", "one", "theta", "_frame_inv", "_trace_v",
        "_tn", "_td", "_trace_n", "_norm",
    )

    def __init__(self, field, table, one=None):
        flat, td = linalg.scaled_integer_matrix([entry for row in table for entry in row])
        self._setup(field, [flat[4 * a : 4 * a + 4] for a in range(4)], td, one)
        if not self.is_identity(self.one):
            raise InputError("declared identity is not a two-sided identity")
        bad = self.associativity_failures()
        if bad:
            i, j, k = bad[0]
            raise InputError(f"multiplication table is not associative at {(i, j, k)}")

    def _setup(self, field, tn, td, one):
        self.field = field
        self._tn = tn
        self._td = td
        self.one = (
            [Fraction(1), _ZERO, _ZERO, _ZERO]
            if one is None
            else [Fraction(x) for x in one]
        )
        self.theta = None
        self._frame_inv = None
        self._norm = None
        # trd(x) = <x, _trace_v> / (2 * _td) since tr(L_x) is linear in x
        tv = self._trace_v = [sum(tn[i][j][j] for j in range(4)) for i in range(4)]
        # trace Gram trd(e_a * e_b) = _trace_n[a][b] / (2 * _td^2)
        self._trace_n = [[sum(map(mul, tn[a][b], tv)) for b in range(4)] for a in range(4)]

    @classmethod
    def canonical(cls, field: QuadField, theta):
        """L + L.u on the basis (1, omega, u, omega*u) with u^2 = theta."""
        theta = Fraction(theta)
        alg = cls.__new__(cls)
        alg._setup(field, *_table_numerators(field.min_a, field.min_b, theta), None)
        alg.theta = theta
        return alg

    @property
    def table(self):
        """``table[i][j]``: the coordinates of e_i * e_j, as rationals."""
        return [_rational(row, self._td) for row in self._tn]

    # -- multiplication and the reduced operations

    def mul(self, x, y):
        out = [_ZERO] * 4
        for i in range(4):
            if not x[i]:
                continue
            row = self._tn[i]
            for j in range(4):
                if not y[j]:
                    continue
                c = x[i] * y[j]
                entry = row[j]
                for k in range(4):
                    if entry[k]:
                        out[k] += c * entry[k]
        td = self._td
        return out if td == 1 else [v / td for v in out]

    def is_identity(self, e) -> bool:
        """Whether e is a two-sided identity, on the integer table: for
        e = en / ed, row b of ``_left_matrix(tn, en)`` is e * e_b and
        en . tn[b] is e_b * e, both over ed * td, and each must be e_b.
        """
        (en,), ed = linalg.scaled_integer_matrix([e])
        tn = self._tn
        unit = [[ed * self._td * (i == j) for j in range(4)] for i in range(4)]
        right = [linalg.vec_mat(en, tn[b]) for b in range(4)]
        return _left_matrix(tn, en) == unit == right

    def associativity_failures(self):
        """Triples (i, j, k), in lex order, with (e_i e_j) e_k != e_i (e_j e_k).

        Both sides are compared on the integer table, scaled by _td^2: row k
        of ``_left_matrix(tn, tn[i][j])`` is (e_i e_j) e_k, and row k of
        tn[j] . tn[i] is e_i (e_j e_k).
        """
        tn = self._tn
        fails = []
        for i in range(4):
            for j in range(4):
                lhs = _left_matrix(tn, tn[i][j])
                rhs = linalg.mat_mul(tn[j], tn[i])
                fails += [(i, j, k) for k in range(4) if lhs[k] != rhs[k]]
        return fails

    def reduced_norm(self, x) -> Fraction:
        (xn,), xd = linalg.scaled_integer_matrix([x])
        s, q = self._norm_gram_scaled()
        return Fraction(sum(map(mul, linalg.vec_mat(xn, s), xn)), q * xd * xd)

    def norm_gram(self):
        """Gram matrix of the reduced norm on the basis of the table."""
        return _rational(*self._norm_gram_scaled())

    def _norm_gram_scaled(self):
        """Integers (S, q), q > 0, with norm_gram() = S / q.

        In a quaternion algebra n(x) = (trd(x)^2 - trd(x^2)) / 2, so with
        trd(x) = x.t / (2*td) and trd(x^2) = x.T.x / (2*td^2) for the trace
        vector t and trace Gram T, S = t.t^T - T - T^T over q = 8*td^2.  On
        first use the table is checked to make x * conj(x) = n(x) * 1 for
        every x, by polarization: e_a*conj(e_b) + e_b*conj(e_a) = b(e_a, e_b)
        * 1 for all a <= b, with b(x, y) = 2 * x.S.y / q.
        """
        if self._norm is not None:
            return self._norm
        t, tr, tn, td = self._trace_v, self._trace_n, self._tn, self._td
        s = [[t[a] * t[b] - tr[a][b] - tr[b][a] for b in range(4)] for a in range(4)]
        # with one = on / od and by_one[a] = td*od * (e_a * 1), the check
        # scaled by 4*td^2*od reads S[a][b] * on = 2 * (t_b * by_one[a] +
        # t_a * by_one[b] - 2*td*od * (tn[a][b] + tn[b][a]))
        (on,), od = linalg.scaled_integer_matrix([self.one])
        by_one = [linalg.vec_mat(on, row) for row in tn]
        for a in range(4):
            for b in range(a, 4):
                lhs = [
                    2 * (t[b] * x + t[a] * y - 2 * td * od * (p + r))
                    for x, y, p, r in zip(by_one[a], by_one[b], tn[a][b], tn[b][a])
                ]
                if lhs != [s[a][b] * o for o in on]:
                    raise InvariantViolation(
                        "x * conj(x) is not a scalar; not a quaternion algebra"
                    )
        self._norm = (s, 8 * td * td)
        return self._norm

    def scalar(self, c):
        return [Fraction(c) * o for o in self.one]

    # -- coordinates through the frame (built algebras only)

    def from_space(self, v: Vector):
        fin, q = self._frame_inv
        return [c / q for c in linalg.vec_mat(vec_coords(v), fin)]


def _check_isometry(rows, den, form_a, form_b, message):
    """Raise InvariantViolation unless rows.A.rows^T / (a*den^2) = B / b.

    ``rows / den`` maps a basis of the first space into the second; the
    forms are integer Grams over non-zero scales, (A, a) on the second space
    and (B, b) on the first.
    """
    (gram_a, a), (gram_b, b) = form_a, form_b
    got = linalg.mat_mul(linalg.mat_mul(rows, gram_a), linalg.mat_transpose(rows))
    scale = a * den * den
    if [[b * x for x in row] for row in got] != [[scale * x for x in row] for row in gram_b]:
        raise InvariantViolation(message)


# ---------------------------------------------------------------------------
# Pointed hermitian space -> algebra


def _left_matrix(tn, x):
    """For integer x, x * y = y . _left_matrix(tn, x) / td on row vectors."""
    return [[sum(map(mul, x, col)) for col in zip(*rows)] for rows in zip(*tn)]


def _unit_frame(field: QuadField, form, omega, point):
    """theta = -h(u) and the frame (p, w*p, u, w*u) of L.p + L.u, in integers.

    ``form`` is (G, c), b(x, y) = x.G.y / c = h(x + y) - h(x) - h(y) for a
    symmetric integer G; ``omega`` is (W, od), omega * x = x.W / od; ``point``
    is (p, pd), h(p / pd) = 1.  u = e_i - s(e_i, p) * p for the first standard
    basis vector e_i off L.p; h is anisotropic on L.p, so u = 0 exactly there.
    Returns (theta, rows, den), the frame being rows / den.
    """
    (g, c), (om, od), (p, pd) = form, omega, point
    ma, mb = field.min_a, field.min_b
    pw = linalg.vec_mat(p, om)  # omega * p, over od * pd
    gp, gpw = linalg.vec_mat(p, g), linalg.vec_mat(pw, g)
    # s(e_i, p) = x + y*omega: the b-values of e_i with p and with omega*p
    # are tr(s) = 2x - ma*y and tr(conj(omega)*s) = -ma*x + 2*mb*y, here
    # over c*od*pd; that system has determinant -D, so s = (sa + sb*omega) / den
    den = -field.D * c * od * pd
    ud = den * od * pd
    for i in range(4):
        t1, t2 = od * gp[i], gpw[i]
        sa, sb = 2 * mb * t1 + ma * t2, ma * t1 + 2 * t2
        # u = e_i - s(e_i, p) * p = un / ud
        un = [ud * (j == i) - sa * od * x - sb * y for j, (x, y) in enumerate(zip(p, pw))]
        if any(un):
            break
    theta = Fraction(-sum(map(mul, linalg.vec_mat(un, g), un)), 2 * c * ud * ud)
    rows = [[den * od * od * x for x in p], [den * od * x for x in pw], [od * x for x in un],
            linalg.vec_mat(un, om)]
    return theta, rows, od * ud


def build_algebra(space: HermSpace, point: Vector) -> QuatAlgebra:
    """The quaternion algebra on V with identity ``point`` (h(point) = 1).

    The basis is (v, w*v, u, w*u) of ``_unit_frame``; theta = -h(u).  The
    reduced norm of the result is exactly h.  Everything is computed on
    integer V-coordinates with the integer Gram M, 2 * gram4 = M / k, of
    ``HermSpace._double_gram4``.
    """
    if not space.is_nondegenerate():
        raise DegenerateFormError("cannot build an algebra from a degenerate form")
    field = space.field
    m, k = space._double_gram4()
    # point = p / pd; h(x) = x.M.x / (2k) and b(x, y) = x.M.y / k
    (p,), pd = linalg.scaled_integer_matrix([vec_coords(point)])
    if sum(map(mul, linalg.vec_mat(p, m), p)) != 2 * k * pd * pd:
        raise InputError("the point must satisfy h(v) = 1")
    theta, fn, fd = _unit_frame(field, (m, k), (omega_matrix(field), 1), (p, pd))
    if theta == 0:
        raise DegenerateFormError("orthogonal complement is isotropic; form degenerate")
    alg = QuatAlgebra.canonical(field, theta)
    # frame = fn / fd; frame.gram4.frame^T = fn.M.fn^T / (2k*fd^2) must be norm_gram() = S / q
    _check_isometry(
        fn, fd, (m, 2 * k), alg._norm_gram_scaled(),
        "norm form of the built algebra differs from h",
    )
    # frame^-1 = (fn / fd)^-1 = fd * adj(fn) / det(fn); det != 0 since the
    # norm form check above makes frame.gram4.frame^T nondegenerate
    adj, det = linalg.int_adjugate(fn)
    alg._frame_inv = ([[fd * x for x in row] for row in adj], det)
    return alg


# ---------------------------------------------------------------------------
# Orders and embeddings


class QuatOrder:
    """A full-rank lattice in a QuatAlgebra containing 1 and closed under *."""

    __slots__ = ("algebra", "zbasis", "_zinv", "one_coords", "products")

    def __init__(self, algebra: QuatAlgebra, zbasis):
        zbasis = [[Fraction(x) for x in row] for row in zbasis]
        if len(zbasis) != 4:
            raise RankError("order basis must be 4 independent vectors")
        self._setup(algebra, *linalg.scaled_integer_matrix(zbasis))

    @classmethod
    def _from_numerators(cls, algebra: QuatAlgebra, zn, dz):
        """The order with Z-basis zn / dz, for integer rows zn."""
        order = cls.__new__(cls)
        order._setup(algebra, zn, dz)
        return order

    def _setup(self, algebra, zn, dz):
        self.algebra = algebra
        self.zbasis = _rational(zn, dz)
        adj, det = linalg.int_adjugate(zn)
        if det == 0:
            raise RankError("order basis must be 4 independent vectors")
        # zbasis^-1 = (zn / dz)^-1 = dz * adj / det
        self._zinv = ([[dz * x for x in row] for row in adj], det)
        one, q = self._coord_numerators(algebra.one)
        if any(x % q for x in one):
            raise ClosureError("lattice does not contain the identity")
        self.one_coords = [x // q for x in one]
        # z_i * z_j = z_j . (sum_a z_i[a] * tn_a) / td, so the coordinates of
        # the products z_i * z_j, over all j, are the rows of
        # zn . (sum_a zn[i][a] * tn_a) . adj / (dz * td * det).
        tn = algebra._tn
        den = dz * algebra._td * det
        self.products = []
        for i in range(4):
            prod = linalg.mat_mul(linalg.mat_mul(zn, _left_matrix(tn, zn[i])), adj)
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

    def _coord_numerators(self, x):
        """(c, q): the coordinates of x on the Z-basis are c / q."""
        (xn,), xd = linalg.scaled_integer_matrix([x])
        zinv, det = self._zinv
        return linalg.vec_mat(xn, zinv), xd * det

    def discriminant(self) -> DiscValue:
        return lattice_disc(self.algebra, self.zbasis)


class Embedding:
    """An embedding of the ring of integers, pinned by the image of omega."""

    __slots__ = ("order", "omega_image")

    def __init__(self, order: QuatOrder, omega_image):
        coords = [Fraction(x) for x in omega_image]
        if len(coords) != 4:
            raise InputError("omega image must have 4 coordinates")
        if any(x.denominator != 1 for x in coords):
            raise InputError("omega image must have integer coordinates in the order")
        self.order = order
        c = self.omega_image = [x.numerator for x in coords]
        # w = sum c_i z_i: the minimal polynomial w^2 + a*w + b in order
        # coordinates, with w^2 = sum c_i c_j (z_i * z_j) from the products
        field = order.algebra.field
        lhs = [field.min_a * x + field.min_b * o for x, o in zip(c, order.one_coords)]
        for i in range(4):
            for j in range(4):
                if c[i] and c[j]:
                    cc = c[i] * c[j]
                    lhs = [s + cc * t for s, t in zip(lhs, order.products[i][j])]
        if any(lhs):
            raise InputError("omega image fails the minimal polynomial")


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
    # the lattice rows R / den through frame^-1 = fin / q, in one product
    rows, den = lattice.scaled_rows()
    fin, q = alg._frame_inv
    try:
        order = QuatOrder._from_numerators(alg, linalg.mat_mul(rows, fin), den * q)
    except ClosureError as exc:
        raise InvariantViolation(
            f"integral pointed lattice is not closed under multiplication: {exc}"
        ) from exc
    omega_coords, q = order._coord_numerators([0, 1, 0, 0])
    if any(x % q for x in omega_coords):
        raise InvariantViolation("omega * point escapes the lattice despite stability")
    return order, Embedding(order, [x // q for x in omega_coords])


class PointedForm(NamedTuple):
    space: HermSpace
    lattice: Lattice
    point: Vector
    frame: list  # rows = algebra coordinates of (e1, w*e1, e2, w*e2)


def order_to_pointed(order: QuatOrder, emb: Embedding) -> PointedForm:
    """Inverse functor: an embedded order as a pointed integral hermitian lattice.

    The L-basis of the algebra is (1, u) of ``_unit_frame``, with L acting by
    left multiplication by the image w of omega; the returned frame
    identifies V = L^2 with the algebra, row k being the algebra coordinates
    of the k-th fixed basis vector of V.
    """
    alg = order.algebra
    field = alg.field
    if emb.order is not order:
        raise InputError("embedding belongs to a different order")
    # the norm form n(x) = x.S.x / q, so b(x, y) = x.S.y / (q/2); 1 = on / od
    s, q = alg._norm_gram_scaled()
    (on,), od = linalg.scaled_integer_matrix([alg.one])
    if sum(map(mul, linalg.vec_mat(on, s), on)) != q * od * od:
        raise InvariantViolation("identity has reduced norm != 1")
    # w = sum c_i z_i with integer c_i and the order is closed, so w * z
    # stays in the order: the lattice is B-stable.  For the Z-basis zn / dz,
    # w = c . zn / dz acts by x -> x . _left_matrix(tn, c . zn) / (dz * td).
    zn, dz = linalg.scaled_integer_matrix(order.zbasis)
    omega = (_left_matrix(alg._tn, linalg.vec_mat(emb.omega_image, zn)), dz * alg._td)
    theta, fn, fd = _unit_frame(field, (s, q // 2), omega, (on, od))
    if theta == 0:
        raise DegenerateFormError("norm form degenerate on the orthogonal line")
    space = HermSpace(field, 1, -theta, field.zero())
    # n(y . frame) = h(y): fn.S.fn^T / (q*fd^2) must be gram4 = M / (2k);
    # a singular frame fails it, since M is nondegenerate
    m, k = space._double_gram4()
    _check_isometry(
        fn, fd, (s, q), (m, 2 * k), "pulled-back form disagrees with the reduced norm"
    )
    # the Z-basis zn / dz through frame^-1 = fd * adj(fn) / det(fn); the
    # first frame row is 1, so the point is e1
    adj, det = linalg.int_adjugate(fn)
    basis = [vec_from_coords(field, [Fraction(c * fd, dz * det) for c in row])
             for row in linalg.mat_mul(zn, adj)]
    point = (field.one(), field.zero())
    return PointedForm(space, Lattice(field, basis), point, _rational(fn, fd))


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
    det = linalg.int_det(tr)
    # det(tr) = det(zbasis)^2 * det(T), so only a zero det can hide a rank defect
    if det == 0 and linalg.int_det(zn) == 0:
        raise RankError("lattice must have full rank in the algebra")
    root = isqrt(-det) if det <= 0 else None
    if root is None or root * root != -det:
        raise InvariantViolation(
            f"trace-pairing determinant {Fraction(det, den**4)} is not minus a square"
        )
    pos, neg, zero = linalg.int_signature(algebra._norm_gram_scaled()[0])
    if zero or (pos, neg) not in ((2, 2), (4, 0)):
        raise InvariantViolation("norm form signature is not that of a quaternion algebra")
    sign = 1 if (pos, neg) == (2, 2) else -1
    return DiscValue(sign * Fraction(root, den * den), LATTICE_SIGN_CONVENTION)


# ---------------------------------------------------------------------------
# Optimality of embeddings


def is_optimal(emb: Embedding) -> bool:
    """Whether i(L) meets the order exactly in i of the ring of integers.

    In order coordinates the order is Z^4 and i(B) = Z*a + Z*c for the
    integer rows a = 1 and c = w.  The index of Z*a + Z*c in its saturation
    (Q*a + Q*c) meet Z^4 is the gcd g of the 2x2 minors a_i*c_j - a_j*c_i
    (Cohen, A Course in Computational Algebraic Number Theory, 2.4), so the
    embedding is optimal exactly when g = 1.  For an embedding of the
    maximal order B, i(L) meet O is an order of L containing i(B), so the
    answer is always True and is kept as a checked invariant.
    """
    a, c = emb.order.one_coords, emb.omega_image
    g = gcd(*(a[i] * c[j] - a[j] * c[i] for i in range(4) for j in range(i + 1, 4)))
    if g == 0:
        raise InvariantViolation("intersection with i(L) is not rank 2")
    return g == 1

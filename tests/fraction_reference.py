"""Fraction references for the integer kernel.

The package computes determinants and inverses by fraction-free integer
elimination (``linalg.int_det``, ``linalg.int_adjugate``); the tests
compare them with Gaussian elimination over the rationals (``mat_det``,
``mat_inverse``).  It computes inertia with ``linalg.int_signature``
(Descartes' rule on the characteristic polynomial); the tests compare it
with congruence diagonalization over the rationals.  It reads the reduced
norm from the trace table, n(x) = (trd(x)^2 - trd(x^2)) / 2; the tests
compare it with the scalar x * conj(x) computed by the algebra's own
multiplication.  It decides integrality, and reads Delta and d(Lambda, h),
from the one integer Gram 2G of a form on a lattice; the tests compare
these with the h- and b-values of a Z-basis and with the free-pair
determinant ``det_form``, det of s on a free sublattice B*w1 + B*w2 over
its index, in QElem arithmetic.  It decides definiteness on the integer
numerators of the Gram entries, polarizes by a closed form in two Gram
entries, builds the frame of an algebra in integers, and compares lattices
by an index; the tests compare these with alpha*beta - n(gamma) in
Fractions, with the bilinear form on whole vectors, with the QElem
construction of the frame, and with Hermite normal forms.  It finds the
first witness of h = 1 by solving for the last coordinate; the tests
compare it with ``box_search``, the walk over every vector of the box.  It
checks associativity with one left-multiplication matrix per product
e_i e_j; the tests compare it with ``table_associativity_failures``, both
sides of each of the 64 triples.

It also holds the constructors and the algebra operations only the tests
use: ``vec``, ``is_integral_elem``, ``algebra_table``, ``reduced_trace``
and ``conj``.
"""

from fractions import Fraction
from math import isqrt, lcm

from hermquat import FORM_SIGN_CONVENTION, Definiteness, DiscValue, QElem, linalg
from hermquat.errors import DegenerateFormError, InputError, RankError
from hermquat.hermitian import vec_coords, vec_from_coords, vec_scale


def vec(field, x, y):
    """The vector (x, y) of L^2; rational entries become field elements."""
    tx = x if isinstance(x, QElem) else field.elem(x)
    ty = y if isinstance(y, QElem) else field.elem(y)
    return (tx, ty)


def is_integral_elem(x) -> bool:
    """Whether the field element x lies in the ring of integers."""
    return x.a.denominator == 1 and x.b.denominator == 1


def algebra_table(a, b, theta):
    """Structure constants of K[pi] + K[pi].u on the basis (1, pi, u, pi*u).

    Here pi is a root of x^2 + a*x + b, u^2 = theta and u*m = conj(m)*u;
    ``table[i][j]`` lists the coordinates of e_i * e_j.
    """
    t = Fraction(theta)
    e0, e1, e2, e3 = ([int(i == j) for j in range(4)] for i in range(4))
    table = [
        [e0, e1, e2, e3],
        [e1, [-b, -a, 0, 0], e3, [0, 0, -b, -a]],
        [e2, [0, 0, -a, -1], [t, 0, 0, 0], [-a * t, -t, 0, 0]],
        [e3, [0, 0, b, 0], [0, t, 0, 0], [b * t, 0, 0, 0]],
    ]
    return [[[Fraction(c) for c in entry] for entry in row] for row in table]


def reduced_trace(alg, x) -> Fraction:
    """trd(x) = tr(y -> x*y) / 2, the left-multiplication trace read from ``alg.table``."""
    table = alg.table
    return sum(x[a] * table[a][b][b] for a in range(4) for b in range(4)) / 2


def conj(alg, x):
    """The conjugate trd(x) * 1 - x."""
    t = reduced_trace(alg, x)
    return [t * o - xi for o, xi in zip(alg.one, x)]


def table_associativity_failures(table):
    """Triples (i, j, k), in lex order, with (e_i e_j) e_k != e_i (e_j e_k),
    each side computed from ``table`` on its own."""
    return [
        (i, j, k)
        for i in range(4)
        for j in range(4)
        for k in range(4)
        if linalg.vec_mat(table[i][j], [table[m][k] for m in range(4)])
        != linalg.vec_mat(table[j][k], table[i])
    ]


def identity_matrix(n: int) -> list[list[Fraction]]:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_det(m) -> Fraction:
    """Determinant by Gaussian elimination over the rationals."""
    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        inv = 1 / a[k][k]
        for i in range(k + 1, n):
            if a[i][k]:
                f = a[i][k] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return det


def mat_inverse(m):
    """Inverse by Gauss-Jordan elimination over the rationals."""
    n = len(m)
    a = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(m)
    ]
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            raise RankError("matrix is singular")
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
        inv = 1 / a[k][k]
        a[k] = [x * inv for x in a[k]]
        for i in range(n):
            if i != k and a[i][k]:
                f = a[i][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return [row[n:] for row in a]


def congruence_diagonalize(sym):
    """Diagonalize a symmetric rational matrix by congruence.

    Returns (D, P) with P invertible and P^T.S.P == D exactly.  The pivot is
    the first non-zero diagonal entry of the remaining block; failing that,
    the first non-zero off-diagonal entry (i, j) first adds basis vector j
    to basis vector i.
    """
    n = len(sym)
    a = [[Fraction(x) for x in row] for row in sym]
    for i in range(n):
        for j in range(n):
            if a[i][j] != a[j][i]:
                raise InputError("matrix is not symmetric")
    p = identity_matrix(n)

    def col_addmul(j, k, f):
        # basis vector j += f * basis vector k
        for i in range(n):
            a[i][j] += f * a[i][k]
        for i in range(n):
            a[j][i] += f * a[k][i]
        for i in range(n):
            p[i][j] += f * p[i][k]

    def col_swap(j, k):
        for row in a:
            row[j], row[k] = row[k], row[j]
        a[j], a[k] = a[k], a[j]
        for row in p:
            row[j], row[k] = row[k], row[j]

    for k in range(n):
        idx = next((i for i in range(k, n) if a[i][i]), None)
        if idx is None:
            pair = next(
                ((i, j) for i in range(k, n) for j in range(i + 1, n) if a[i][j]),
                None,
            )
            if pair is None:
                break
            col_addmul(pair[0], pair[1], Fraction(1))
            idx = pair[0]
        if idx != k:
            col_swap(idx, k)
        d = a[k][k]
        for j in range(k + 1, n):
            if a[k][j]:
                col_addmul(j, k, -a[k][j] / d)
    return a, p


def signature(sym):
    """Exact (positive, negative, zero) inertia counts of a symmetric matrix."""
    d, _ = congruence_diagonalize(sym)
    pos = sum(1 for i in range(len(d)) if d[i][i] > 0)
    neg = sum(1 for i in range(len(d)) if d[i][i] < 0)
    return pos, neg, len(d) - pos - neg


def reduced_norm(alg, x) -> Fraction:
    """n(x) from x * conj(x) = n(x) * 1, through ``alg.mul`` and ``conj``."""
    z = alg.mul(x, conj(alg, x))
    k = next(i for i in range(4) if alg.one[i])
    c = z[k] / alg.one[k]
    if z != [c * o for o in alg.one]:
        raise AssertionError("x * conj(x) is not a scalar")
    return c


def norm_gram(alg):
    """The norm Gram by polarization: n(e_a) and b(e_a, e_b) / 2 from n(e_a + e_b)."""
    basis = identity_matrix(4)
    n = [reduced_norm(alg, e) for e in basis]
    g = [[Fraction(0)] * 4 for _ in range(4)]
    for a in range(4):
        g[a][a] = n[a]
        for b in range(a + 1, 4):
            both = [x + y for x, y in zip(basis[a], basis[b])]
            g[a][b] = g[b][a] = (reduced_norm(alg, both) - n[a] - n[b]) / 2
    return g


def b_value(space, v, w) -> Fraction:
    """The bilinear form b = tr(s)."""
    return space.s_value(v, w).trace()


def gram_on_basis(space, vectors):
    """Gram matrix of h on a tuple of vectors, from h- and b-values."""
    n = len(vectors)
    g = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = space.h_value(vectors[i])
        for j in range(i + 1, n):
            g[i][j] = g[j][i] = b_value(space, vectors[i], vectors[j]) / 2
    return g


def coord_rows(lattice):
    """The coordinates of the basis vectors in the fixed basis of V."""
    return [vec_coords(v) for v in lattice.basis]


def is_integral(space, lattice) -> bool:
    """h(Lambda) inside Z, tested on h- and b-values of a Z-basis."""
    b = lattice.basis
    for i in range(4):
        if space.h_value(b[i]).denominator != 1:
            return False
        for j in range(i + 1, 4):
            if b_value(space, b[i], b[j]).denominator != 1:
                return False
    return True


def det_form(space, lattice, start: int = 0) -> DiscValue:
    """d(Lambda, h) from a free sublattice: det of s on B*w1 + B*w2 over the index.

    The pair (w_i, w_j) of basis vectors is the first, in the order
    (start + a, start + b) mod 4, with a non-zero index
    [Lambda : B*w_i + B*w_j]; that sublattice has rows e_i, Omega_i, e_j,
    Omega_j in lattice coordinates, so the index is their determinant.  The
    sign is the sign of det(s(w_i, w_j)), positive exactly for definite
    forms.
    """
    if not space.is_nondegenerate():
        raise DegenerateFormError("determinant of a degenerate form")
    unit, omega = linalg.int_identity(4), lattice.omega_rows()
    pairs = (((start + a) % 4, (start + b) % 4) for a in range(4) for b in range(4))
    for i, j in pairs:
        index = abs(linalg.int_det([unit[i], omega[i], unit[j], omega[j]]))
        if index:
            break
    w1, w2 = lattice.basis[i], lattice.basis[j]
    det2 = space.h_value(w1) * space.h_value(w2) - space.s_value(w1, w2).norm()
    return DiscValue(det2 / index, FORM_SIGN_CONVENTION)


def reference_frame(space, point):
    """The frame of ``build_algebra(space, point)`` by its QElem construction.

    w = e1 (e2 when point[1] = 0), u = w - s(w, point)*point; the rows are
    the V-coordinates of (point, omega*point, u, omega*u), and theta = -h(u).
    """
    field = space.field
    w = vec(field, 1, 0) if point[1] != 0 else vec(field, 0, 1)
    s = space.s_value(w, point)
    u = (w[0] - s * point[0], w[1] - s * point[1])
    omega = field.omega()
    return [vec_coords(x) for x in (point, vec_scale(omega, point), u, vec_scale(omega, u))]


def to_space(alg, x):
    """The vector of V with algebra coordinates x: x . frame, for the frame
    inverse of a built algebra."""
    fin, q = alg._frame_inv
    frame = mat_inverse([[Fraction(c, q) for c in row] for row in fin])
    return vec_from_coords(alg.field, linalg.vec_mat(x, frame))


def definiteness(space) -> Definiteness:
    """Sylvester's criterion on alpha*beta - n(gamma), in Fractions."""
    det2 = space.alpha * space.beta - space.gamma.norm()
    if det2 == 0:
        return Definiteness.DEGENERATE
    if det2 < 0:
        return Definiteness.INDEFINITE
    if space.alpha > 0:
        return Definiteness.POSITIVE_DEFINITE
    return Definiteness.NEGATIVE_DEFINITE


def sesquilinear_from_gram(gram, field, l):
    """s_l(f_i, f_j) = (conj(l)*b(f_i, f_j) - b(l*f_i, f_j)) / (conj(l) - l).

    b(x, y) = 2*x.G.y is evaluated on whole 2n-vectors, and l*f_i is the
    unit vector f_i times the block matrix of multiplication by l.
    """
    size = len(gram)
    n = size // 2
    c, e = l.a, l.b
    block = [[c, e], [-e * field.min_b, c - e * field.min_a]]
    lm = [[Fraction(0)] * size for _ in range(size)]
    for k in range(n):
        for i in range(2):
            for j in range(2):
                lm[2 * k + i][2 * k + j] = block[i][j]

    def bform(x, y):
        return 2 * sum(x[i] * gram[i][j] * y[j] for i in range(size) for j in range(size))

    def unit(i):
        return [Fraction(int(k == i)) for k in range(size)]

    lc = l.conj()
    return [
        [
            (lc * bform(unit(2 * i), unit(2 * j))
             - bform(linalg.vec_mat(unit(2 * i), lm), unit(2 * j))) / (lc - l)
            for j in range(n)
        ]
        for i in range(n)
    ]


def lattice_equal(a, b) -> bool:
    """Whether two lattices have the same Hermite normal form over one denominator."""
    rows = coord_rows(a) + coord_rows(b)
    den = lcm(*(x.denominator for row in rows for x in row))
    scaled = [[x.numerator * (den // x.denominator) for x in row] for row in rows]
    return linalg.hnf_basis(scaled[:4]) == linalg.hnf_basis(scaled[4:])


def shell_vectors(height, clamps):
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


def box_search(space, lattice, height_bound):
    """The first vector with x.W.x == 2 (W = 2G) by a walk over the whole box.

    The box and its order are those of ``represent.global_search``: shells
    of increasing height, lex order within one; for a positive definite
    form |c_i| <= sqrt((G^-1)_ii) = sqrt(2 (W^-1)_ii), here read from the
    Fraction inverse.
    """
    form = space.integral_form(lattice)
    w = form.w
    if form.definiteness == Definiteness.NEGATIVE_DEFINITE:
        return None
    clamps = (height_bound,) * 4
    if form.definiteness == Definiteness.POSITIVE_DEFINITE:
        inv = mat_inverse(w)
        clamps = tuple(
            min(height_bound, isqrt(q.numerator * q.denominator) // q.denominator)
            for q in (2 * inv[i][i] for i in range(4))
        )
    for h in range(max(clamps) + 1):
        for c in shell_vectors(h, clamps):
            total = 0
            for i in range(4):
                if c[i]:
                    row = w[i]
                    total += c[i] * (
                        row[0] * c[0] + row[1] * c[1] + row[2] * c[2] + row[3] * c[3]
                    )
            if total == 2:
                return form.lattice.from_integer_coords(c)
    return None

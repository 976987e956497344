"""Fraction references for the integer kernel.

The package computes inertia with ``linalg.int_signature`` (Descartes' rule
on the characteristic polynomial); the tests compare it with congruence
diagonalization over the rationals.  It reads the reduced norm from the
trace table, n(x) = (trd(x)^2 - trd(x^2)) / 2; the tests compare it with
the scalar x * conj(x) computed by the algebra's own multiplication.  It
decides integrality from the integer Gram of ``IntegralForm``; the tests
compare it with the h- and b-values of a Z-basis.  It decides definiteness
on the integer numerators of the Gram entries, polarizes by a closed form
in two Gram entries, and compares lattices by an index; the tests compare
these with alpha*beta - n(gamma) in Fractions, with the bilinear form on
whole vectors, and with Hermite normal forms.
"""

from fractions import Fraction
from math import lcm

from hermquat import Definiteness, linalg
from hermquat.errors import InputError


def identity_matrix(n: int) -> list[list[Fraction]]:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


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
    """n(x) from x * conj(x) = n(x) * 1, through ``alg.mul`` and ``alg.conj``."""
    z = alg.mul(x, alg.conj(x))
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


def is_integral(space, lattice) -> bool:
    """h(Lambda) inside Z, tested on h- and b-values of a Z-basis."""
    b = lattice.basis
    for i in range(4):
        if space.h_value(b[i]).denominator != 1:
            return False
        for j in range(i + 1, 4):
            if space.b_value(b[i], b[j]).denominator != 1:
                return False
    return True


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
    rows = a.coord_rows() + b.coord_rows()
    den = lcm(*(x.denominator for row in rows for x in row))
    scaled = [[x.numerator * (den // x.denominator) for x in row] for row in rows]
    return linalg.hnf_basis(scaled[:4]) == linalg.hnf_basis(scaled[4:])

"""Exact dense linear algebra over the integers and rationals.

Everything here works on plain lists of rows with ``int`` or
``fractions.Fraction`` entries; the matrices never exceed 8x8.  Vectors are
rows throughout the package, so a matrix acts on the right:
``vec_mat(v, M)`` is ``v -> v.M``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InputError, RankError


def identity_matrix(n: int) -> list[list[Fraction]]:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def int_identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mat_transpose(m):
    return [list(col) for col in zip(*m)]


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def vec_mat(v, m):
    cols = len(m[0])
    return [sum(v[i] * m[i][j] for i in range(len(v))) for j in range(cols)]


def mat_eq(a, b):
    return len(a) == len(b) and all(
        len(ra) == len(rb) and all(x == y for x, y in zip(ra, rb))
        for ra, rb in zip(a, b)
    )


def mat_det(m) -> Fraction:
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


def mat_rank(m) -> int:
    a = [[Fraction(x) for x in row] for row in m]
    rank = 0
    rows = len(a)
    cols = len(a[0]) if rows else 0
    for j in range(cols):
        piv = next((i for i in range(rank, rows) if a[i][j]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = 1 / a[rank][j]
        a[rank] = [x * inv for x in a[rank]]
        for i in range(rows):
            if i != rank and a[i][j]:
                f = a[i][j]
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def is_integral_vector(v) -> bool:
    return all(Fraction(x).denominator == 1 for x in v)


def is_integral_matrix(m) -> bool:
    return all(is_integral_vector(row) for row in m)


def common_denominator(rows) -> int:
    return math.lcm(*(x.denominator for row in rows for x in row))


def scaled_integer_matrix(rows, den=None):
    """Clear denominators: returns (den * rows as ints, den).

    A given ``den`` must be a multiple of every entry's denominator.
    """
    if den is None:
        den = common_denominator(rows)
    return [[x.numerator * (den // x.denominator) for x in row] for row in rows], den


def evaluate_quadratic(gram, vec) -> Fraction:
    n = len(vec)
    total = Fraction(0)
    for i in range(n):
        if vec[i]:
            total += sum(gram[i][j] * vec[j] for j in range(n)) * vec[i]
    return total


# ---------------------------------------------------------------------------
# Hermite normal form


def _row_sub(rows, i, k, q):
    rows[i] = [x - q * y for x, y in zip(rows[i], rows[k])]


def _hnf_engine(mat):
    """Row HNF with transformation: (H, U, pivot_columns) with U.mat == H.

    Tolerates rank-deficient input; trailing rows of H are then zero and the
    matching rows of U span the left kernel.
    """
    m = len(mat)
    n = len(mat[0]) if m else 0
    a = [[int(x) for x in row] for row in mat]
    u = int_identity(m)
    pivots: list[int] = []
    r = 0
    for j in range(n):
        if r == m:
            break
        placed = False
        while True:
            nz = [i for i in range(r, m) if a[i][j]]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(a[i][j]), i))
            if i0 != r:
                a[r], a[i0] = a[i0], a[r]
                u[r], u[i0] = u[i0], u[r]
            for i in range(r + 1, m):
                if a[i][j]:
                    q = a[i][j] // a[r][j]
                    _row_sub(a, i, r, q)
                    _row_sub(u, i, r, q)
            if not any(a[i][j] for i in range(r + 1, m)):
                placed = True
                break
        if not placed:
            continue
        if a[r][j] < 0:
            a[r] = [-x for x in a[r]]
            u[r] = [-x for x in u[r]]
        for i in range(r):
            q = a[i][j] // a[r][j]
            if q:
                _row_sub(a, i, r, q)
                _row_sub(u, i, r, q)
        pivots.append(j)
        r += 1
    return a, u, pivots


def hnf(mat):
    """Row Hermite normal form of an integer matrix with full row rank.

    Returns (H, U) with U unimodular and U.mat == H; pivots are positive and
    the entries above each pivot are reduced into [0, pivot).
    """
    if not mat or not mat[0]:
        raise InputError("empty matrix")
    if not is_integral_matrix(mat):
        raise InputError("hnf expects an integer matrix")
    h, u, pivots = _hnf_engine(mat)
    if len(pivots) < len(mat):
        raise RankError("matrix does not have full row rank")
    return h, u


def hnf_basis(mat):
    """HNF basis (nonzero rows only) of the row span of an integer matrix."""
    h, _, pivots = _hnf_engine(mat)
    return [h[i] for i in range(len(pivots))]


def left_kernel(mat):
    """Basis of {c integer row : c.mat == 0} for an integer matrix."""
    _, u, pivots = _hnf_engine(mat)
    return [u[i] for i in range(len(pivots), len(mat))]


def rational_span_equal(rows_a, rows_b) -> bool:
    """Whether two rational row families span the same Z-lattice."""
    den = math.lcm(common_denominator(rows_a), common_denominator(rows_b))
    a, _ = scaled_integer_matrix(rows_a, den)
    b, _ = scaled_integer_matrix(rows_b, den)
    return hnf_basis(a) == hnf_basis(b)


# ---------------------------------------------------------------------------
# Congruence diagonalization


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

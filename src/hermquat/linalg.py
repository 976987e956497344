"""Exact dense linear algebra over the integers and rationals.

Everything here works on plain lists of rows with ``int`` or
``fractions.Fraction`` entries; the matrices never exceed 8x8.  Vectors are
rows throughout the package, so a matrix acts on the right:
``vec_mat(v, M)`` is ``v -> v.M``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from sympy import isprime

from .errors import InputError, RankError

INFINITY = math.inf


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


def mat_col(m, v):
    """Matrix times a column vector, returned as a flat list."""
    return [sum(row[k] * v[k] for k in range(len(v))) for row in m]


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
# Valuations and congruence diagonalization


def valuation(x, p: int):
    """p-adic valuation of a rational; +infinity for 0."""
    if not isprime(p):
        raise InputError(f"{p} is not prime")
    x = Fraction(x)
    if x == 0:
        return INFINITY

    def vint(n: int) -> int:
        v = 0
        while n % p == 0:
            n //= p
            v += 1
        return v

    return vint(abs(x.numerator)) - vint(x.denominator)


def _pivot_index(a, k, prime):
    """Pivot for column k of the congruence reduction.

    Returns (index, fix) where fix is either None or a pair (i, j) meaning
    "add basis vector j to basis vector i first".  With a prime supplied the
    pivot has minimal p-adic valuation over the remaining block, which for
    odd p keeps the transformation p-integral.
    """
    n = len(a)
    diag = [(i, a[i][i]) for i in range(k, n) if a[i][i]]
    off = [
        (i, j, a[i][j])
        for i in range(k, n)
        for j in range(i + 1, n)
        if a[i][j]
    ]
    if prime is None:
        if diag:
            return diag[0][0], None
        if off:
            i, j, _ = off[0]
            return i, (i, j)
        return None, None
    if not diag and not off:
        return None, None
    dbest = min(diag, key=lambda t: valuation(t[1], prime)) if diag else None
    obest = min(off, key=lambda t: valuation(t[2], prime)) if off else None
    if dbest is not None and (
        obest is None or valuation(dbest[1], prime) <= valuation(obest[2], prime)
    ):
        return dbest[0], None
    i, j, _ = obest
    return i, (i, j)


def congruence_diagonalize(sym, prime: int | None = None):
    """Diagonalize a symmetric rational matrix by congruence.

    Returns (D, P) with P invertible and P^T.S.P == D exactly.  When an odd
    prime is supplied, pivots are chosen with minimal p-adic valuation over
    the whole remaining block, so that for a p-integral input P is
    p-integral with p-unit determinant (the p-adic Jordan data can be read
    off the diagonal).
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
        idx, fix = _pivot_index(a, k, prime)
        if idx is None:
            break
        if fix is not None:
            col_addmul(fix[0], fix[1], Fraction(1))
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

"""Exact dense linear algebra over the integers and rationals.

Everything here works on plain lists of rows with ``int`` or
``fractions.Fraction`` entries; the matrices never exceed 8x8.  Vectors are
rows throughout the package, so a matrix acts on the right:
``vec_mat(v, M)`` is ``v -> v.M``.

The integer kernel (``int_det``, ``int_adjugate``, ``int_signature``) is
what the pipeline runs on: callers clear denominators once and keep integer
numerators over one denominator.  ``int_det`` is Bareiss' fraction-free
elimination (Bareiss, Math. Comp. 22, 1968; Cohen, A Course in
Computational Algebraic Number Theory, Alg. 2.2.6); the adjugate and the
signature come from the characteristic polynomial by Faddeev-LeVerrier,
whose divisions are exact on integer matrices.  The tests compare the
kernel with Gaussian elimination over Fractions (``fraction_reference``).
"""

from __future__ import annotations

import math
from operator import mul

from .errors import InputError


def int_identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mat_transpose(m):
    return [list(col) for col in zip(*m)]


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


def vec_mat(v, m):
    return [sum(map(mul, v, col)) for col in zip(*m)]


def scaled_integer_matrix(rows):
    """(den * rows as ints, den) for den the lcm of the denominators."""
    den = math.lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in rows], den


# ---------------------------------------------------------------------------
# Hermite normal form


def _row_sub(rows, i, k, q):
    rows[i] = [x - q * y for x, y in zip(rows[i], rows[k])]


def _hnf_engine(mat):
    """Row HNF of an integer matrix: (H, pivot_columns).

    Tolerates rank-deficient input; trailing rows of H are then zero.
    """
    m = len(mat)
    n = len(mat[0]) if m else 0
    a = [[int(x) for x in row] for row in mat]
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
            for i in range(r + 1, m):
                if a[i][j]:
                    _row_sub(a, i, r, a[i][j] // a[r][j])
            if not any(a[i][j] for i in range(r + 1, m)):
                placed = True
                break
        if not placed:
            continue
        if a[r][j] < 0:
            a[r] = [-x for x in a[r]]
        for i in range(r):
            q = a[i][j] // a[r][j]
            if q:
                _row_sub(a, i, r, q)
        pivots.append(j)
        r += 1
    return a, pivots


def hnf_basis(mat):
    """HNF basis (nonzero rows only) of the row span of an integer matrix.

    Pivots are positive and the entries above each pivot are reduced into
    [0, pivot).
    """
    h, pivots = _hnf_engine(mat)
    return h[: len(pivots)]


# ---------------------------------------------------------------------------
# Integer kernel


def int_det(m) -> int:
    """Determinant of a square integer matrix by Bareiss elimination.

    Every entry after step k is a (k+1)-minor of the input, so each division
    by the previous pivot is exact; a zero pivot is replaced by a row swap.
    """
    a = [list(row) for row in m]
    n = len(a)
    if not n:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if not a[k][k]:
            piv = next((i for i in range(k + 1, n) if a[i][k]), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        top = a[k]
        pivot = top[k]
        for i in range(k + 1, n):
            row = a[i]
            f = row[k]
            for j in range(k + 1, n):
                row[j] = (pivot * row[j] - f * top[j]) // prev
        prev = pivot
    return sign * a[-1][-1]


def _charpoly(m):
    """Faddeev-LeVerrier on a square integer matrix A of size n >= 1.

    Returns (c, M) with det(x*I - A) = sum c[k] x^k and M = M_n of the
    recurrence M_1 = I, M_k = A.M_(k-1) + c[n-k+1]*I, so that
    adj(A) = (-1)^(n-1) * M.  Each c[n-k] = -tr(A.M_k) / k is an integer
    (Newton's identities), so the division is exact.
    """
    n = len(m)
    c = [0] * n + [1]
    mk = int_identity(n)  # M_1
    for k in range(1, n):
        mk = [list(row) for row in m] if k == 1 else mat_mul(m, mk)  # A.M_k
        c[n - k] = ck = -sum(mk[i][i] for i in range(n)) // k
        for i in range(n):
            mk[i][i] += ck
    # c[0] needs only the trace of A.M_n
    c[0] = -sum(sum(map(mul, row, col)) for row, col in zip(m, zip(*mk))) // n
    return c, mk


def int_adjugate(m):
    """(adj(A), det(A)) of a square integer matrix A, with adj(A).A = det(A)*I.

    Exact for singular matrices too; A^-1 = adj(A) / det(A) when det != 0.
    """
    c, mk = _charpoly(m)
    if len(m) % 2:
        return mk, -c[0]
    return [[-x for x in row] for row in mk], c[0]


def int_signature(sym):
    """Exact (positive, negative, zero) inertia counts of a symmetric integer matrix.

    The characteristic polynomial of a symmetric matrix has only real roots,
    so Descartes' rule of signs counts them exactly: the sign changes of its
    coefficients give the positive eigenvalues, those of p(-x) the negative
    ones, and the lowest non-zero coefficient the multiplicity of 0.
    """
    n = len(sym)
    if any(sym[i][j] != sym[j][i] for i in range(n) for j in range(i + 1, n)):
        raise InputError("matrix is not symmetric")
    if not n:
        return 0, 0, 0
    c, _ = _charpoly(sym)
    zero = next(k for k in range(n + 1) if c[k])

    def changes(coeffs):
        signs = [x > 0 for x in coeffs if x]
        return sum(s != t for s, t in zip(signs, signs[1:]))

    pos = changes(c)
    neg = changes([x if k % 2 == 0 else -x for k, x in enumerate(c)])
    return pos, neg, zero

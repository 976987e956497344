import random
from fractions import Fraction

import pytest

from fraction_reference import (
    congruence_diagonalize,
    identity_matrix,
    mat_det,
    mat_inverse,
    signature,
)
from hermquat import linalg
from hermquat.errors import InputError, RankError


def frac_mat(rows):
    return [[Fraction(x) for x in row] for row in rows]


def _same_row_lattice(a, b):
    """Whether square invertible a and b have the same integer row span."""
    for x, y in ((a, b), (b, a)):
        change = linalg.mat_mul(x, mat_inverse(y))
        if any(c.denominator != 1 for row in change for c in row):
            return False
    return True


def _assert_echelon_reduced(h):
    """Row echelon with positive pivots and the entries above each reduced."""
    pivots = []
    for i, row in enumerate(h):
        j = next(k for k, x in enumerate(row) if x)
        assert row[j] > 0
        for above in range(i):
            assert 0 <= h[above][j] < row[j]
        pivots.append(j)
    assert pivots == sorted(set(pivots))


class TestHnf:
    def test_identity_is_fixed(self):
        ident = linalg.int_identity(4)
        assert linalg.hnf_basis(ident) == ident

    def test_already_in_hnf(self):
        m = [[2, 0], [0, 3]]
        assert linalg.hnf_basis(m) == m

    def test_determinant_preserved(self):
        # oracle: |det H| must equal |det M| = |2*3 - 4*1| = 2
        m = [[2, 4], [1, 3]]
        h = linalg.hnf_basis(m)
        assert abs(mat_det(h)) == 2
        assert _same_row_lattice(h, m)

    def test_rank_deficient_drops_rows(self):
        assert linalg.hnf_basis([[1, 2], [2, 4]]) == [[1, 2]]
        h = linalg.hnf_basis([[2, 4, 6], [3, 6, 9], [0, 1, 5]])
        assert h == [[1, 0, -7], [0, 1, 5]]
        _assert_echelon_reduced(h)

    def test_random_unimodularity(self):
        rng = random.Random(7)
        for _ in range(40):
            n = rng.choice((2, 3, 4))
            while True:
                m = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
                if mat_det(m) != 0:
                    break
            h = linalg.hnf_basis(m)
            assert len(h) == n
            assert _same_row_lattice(h, m)
            assert abs(mat_det(h)) == abs(mat_det(m))
            _assert_echelon_reduced(h)


class TestCongruenceDiagonalize:
    def test_diagonal_fixed(self):
        s = frac_mat([[1, 0], [0, -1]])
        d, p = congruence_diagonalize(s)
        assert d == s
        assert p == identity_matrix(2)

    def test_hyperbolic_plane(self):
        s = frac_mat([[0, 1], [1, 0]])
        d, p = congruence_diagonalize(s)
        # oracle: evaluate the form on the columns of P
        cols = linalg.mat_transpose(p)
        values = [sum(x * y for x, y in zip(linalg.vec_mat(c, s), c)) for c in cols]
        assert sorted(1 if v > 0 else -1 for v in values) == [-1, 1]
        assert linalg.mat_mul(linalg.mat_mul(linalg.mat_transpose(p), s), p) == d

    def test_four_by_four_diagonal(self):
        s = frac_mat([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 5, 0], [0, 0, 0, 5]])
        d, p = congruence_diagonalize(s)
        assert d == s

    def test_exact_congruence_random(self):
        rng = random.Random(11)
        for _ in range(30):
            n = rng.choice((2, 3, 4))
            s = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                s[i][i] = Fraction(rng.randint(-4, 4))
                for j in range(i + 1, n):
                    s[i][j] = s[j][i] = Fraction(rng.randint(-4, 4), rng.choice((1, 2)))
            d, p = congruence_diagonalize(s)
            assert mat_det(p) != 0
            assert linalg.mat_mul(linalg.mat_mul(linalg.mat_transpose(p), s), p) == d
            for i in range(n):
                for j in range(n):
                    if i != j:
                        assert d[i][j] == 0


class TestSignature:
    """``linalg.int_signature`` against the Fraction reference ``signature``."""

    def test_definite(self):
        for m in ([[1, 0], [0, 1]], linalg.int_identity(4)):
            assert linalg.int_signature(m) == signature(frac_mat(m)) == (len(m), 0, 0)

    def test_split(self):
        m = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]
        assert linalg.int_signature(m) == signature(frac_mat(m)) == (2, 2, 0)

    def test_degenerate(self):
        assert linalg.int_signature([[0, 0], [0, 3]]) == signature(frac_mat([[0, 0], [0, 3]]))
        assert linalg.int_signature([[0, 0], [0, 3]]) == (1, 0, 1)

    def test_hyperbolic_plane(self):
        # no non-zero diagonal pivot: the reference needs its off-diagonal step
        assert linalg.int_signature([[0, 1], [1, 0]]) == signature(frac_mat([[0, 1], [1, 0]]))
        assert linalg.int_signature([[0, 1], [1, 0]]) == (1, 1, 0)

    def test_matches_reference_random(self):
        rng = random.Random(29)
        singular = 0
        for _ in range(300):
            n = rng.randint(1, 5)
            s = [[0] * n for _ in range(n)]
            for i in range(n):
                s[i][i] = rng.choice((0, 0, rng.randint(-5, 5)))
                for j in range(i + 1, n):
                    s[i][j] = s[j][i] = rng.randint(-4, 4)
            pos, neg, zero = linalg.int_signature(s)
            assert (pos, neg, zero) == signature(frac_mat(s))
            singular += zero > 0
        assert singular >= 30

    def test_rank_one_and_zero(self):
        v = [1, -2, 3, 0]
        outer = [[x * y for y in v] for x in v]
        assert linalg.int_signature(outer) == (1, 0, 3)
        assert linalg.int_signature([[-x for x in row] for row in outer]) == (0, 1, 3)
        assert linalg.int_signature([[0] * 3 for _ in range(3)]) == (0, 0, 3)

    def test_not_symmetric_rejected(self):
        with pytest.raises(InputError):
            linalg.int_signature([[1, 2], [3, 4]])

    def test_congruence_invariance(self):
        rng = random.Random(23)
        for _ in range(25):
            n = 4
            s = [[0] * n for _ in range(n)]
            for i in range(n):
                s[i][i] = rng.randint(-3, 3)
                for j in range(i + 1, n):
                    s[i][j] = s[j][i] = rng.randint(-3, 3)
            while True:
                t = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
                if mat_det(t) != 0:
                    break
            moved = linalg.mat_mul(linalg.mat_mul(linalg.mat_transpose(t), s), t)
            assert linalg.int_signature(moved) == linalg.int_signature(s)
            assert linalg.int_signature(s) == signature(frac_mat(s))


def _random_int_matrix(rng, n, kind):
    """A random n x n integer matrix: generic, singular, or with a zero pivot."""
    m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    if kind == "singular" and n > 1:
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-3, 3)
        m[i] = [c * x for x in m[j]]
    elif kind == "zero pivot":
        m[0][0] = 0
        if n > 1 and rng.random() < 0.5:
            m[1][0] = 0
    return m


class TestIntegerKernel:
    """``int_det`` and ``int_adjugate`` against the Fraction references
    ``mat_det`` and ``mat_inverse``."""

    KINDS = ("generic", "singular", "zero pivot")

    def test_det_matches_fraction_reference(self):
        rng = random.Random(31)
        zeros = 0
        for k in range(600):
            n = 1 + k % 4
            m = _random_int_matrix(rng, n, self.KINDS[k % 3])
            det = linalg.int_det(m)
            assert type(det) is int
            assert det == mat_det(m)
            zeros += det == 0
        assert zeros >= 150

    def test_adjugate_identities(self):
        rng = random.Random(37)
        for k in range(600):
            n = 1 + k % 4
            m = _random_int_matrix(rng, n, self.KINDS[k % 3])
            adj, det = linalg.int_adjugate(m)
            assert det == linalg.int_det(m)
            scalar = [[det * int(i == j) for j in range(n)] for i in range(n)]
            assert linalg.mat_mul(adj, m) == scalar
            assert linalg.mat_mul(m, adj) == scalar
            if det:
                inv = mat_inverse(m)
                assert adj == [[x * det for x in row] for row in inv]
            else:
                with pytest.raises(RankError):
                    mat_inverse(m)

    def test_adjugate_of_singular_matrix(self):
        # rank n - 1: the adjugate is non-zero and its rows span the left kernel
        m = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
        adj, det = linalg.int_adjugate(m)
        assert det == 0
        assert any(x for row in adj for x in row)
        assert linalg.mat_mul(adj, m) == [[0] * 3 for _ in range(3)]
        assert linalg.int_adjugate([[0]]) == ([[1]], 0)
        assert linalg.int_adjugate([[0, 0], [0, 0]]) == ([[0, 0], [0, 0]], 0)

    def test_zero_leading_pivot(self):
        m = [[0, 1, 2], [3, 0, 1], [1, 1, 0]]
        assert linalg.int_det(m) == mat_det(m) == 7
        adj, det = linalg.int_adjugate(m)
        assert adj == [[x * 7 for x in row] for row in mat_inverse(m)]

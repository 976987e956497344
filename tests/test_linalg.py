import random
from fractions import Fraction

import pytest

from hermquat import linalg
from hermquat.errors import InputError, RankError


def frac_mat(rows):
    return [[Fraction(x) for x in row] for row in rows]


class TestHnf:
    def test_identity_is_fixed(self):
        ident = linalg.int_identity(4)
        h, u = linalg.hnf(ident)
        assert h == ident
        assert u == ident

    def test_already_in_hnf(self):
        m = [[2, 0], [0, 3]]
        h, u = linalg.hnf(m)
        assert h == m
        assert u == linalg.int_identity(2)

    def test_determinant_preserved(self):
        # oracle: |det H| must equal |det M| = |2*3 - 4*1| = 2
        m = [[2, 4], [1, 3]]
        h, u = linalg.hnf(m)
        assert abs(linalg.mat_det(h)) == 2
        assert linalg.mat_mul(u, m) == h
        assert abs(linalg.mat_det(u)) == 1

    def test_rank_deficient_rejected(self):
        with pytest.raises(RankError):
            linalg.hnf([[1, 2], [2, 4]])

    def test_non_integer_rejected(self):
        with pytest.raises(InputError):
            linalg.hnf([[Fraction(1, 2), 0], [0, 1]])

    def test_random_unimodularity(self):
        rng = random.Random(7)
        for _ in range(40):
            n = rng.choice((2, 3, 4))
            while True:
                m = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
                if linalg.mat_det(m) != 0:
                    break
            h, u = linalg.hnf(m)
            assert linalg.mat_mul(u, m) == h
            assert abs(linalg.mat_det(u)) == 1
            assert abs(linalg.mat_det(h)) == abs(linalg.mat_det(m))
            # row-echelon with positive pivots, reduced above
            pivots = []
            for i, row in enumerate(h):
                j = next(k for k, x in enumerate(row) if x)
                assert row[j] > 0
                for above in range(i):
                    assert 0 <= h[above][j] < row[j]
                pivots.append(j)
            assert pivots == sorted(pivots)

    def test_left_kernel(self):
        m = [[1, 2], [2, 4], [3, 6]]
        kern = linalg.left_kernel(m)
        assert len(kern) == 2
        for c in kern:
            assert linalg.vec_mat(c, m) == [0, 0]


class TestCongruenceDiagonalize:
    def test_diagonal_fixed(self):
        s = frac_mat([[1, 0], [0, -1]])
        d, p = linalg.congruence_diagonalize(s)
        assert d == s
        assert p == linalg.identity_matrix(2)

    def test_hyperbolic_plane(self):
        s = frac_mat([[0, 1], [1, 0]])
        d, p = linalg.congruence_diagonalize(s)
        # oracle: evaluate the form on the columns of P
        cols = linalg.mat_transpose(p)
        values = [linalg.evaluate_quadratic(s, c) for c in cols]
        assert sorted(1 if v > 0 else -1 for v in values) == [-1, 1]
        assert linalg.mat_mul(linalg.mat_mul(linalg.mat_transpose(p), s), p) == d

    def test_four_by_four_diagonal(self):
        s = frac_mat([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 5, 0], [0, 0, 0, 5]])
        d, p = linalg.congruence_diagonalize(s)
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
            d, p = linalg.congruence_diagonalize(s)
            assert linalg.mat_det(p) != 0
            assert linalg.mat_mul(linalg.mat_mul(linalg.mat_transpose(p), s), p) == d
            for i in range(n):
                for j in range(n):
                    if i != j:
                        assert d[i][j] == 0


class TestSignature:
    def test_definite(self):
        assert linalg.signature(frac_mat([[1, 0], [0, 1]])) == (2, 0, 0)
        assert linalg.signature(
            frac_mat([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        ) == (4, 0, 0)

    def test_split(self):
        assert linalg.signature(
            frac_mat([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]])
        ) == (2, 2, 0)

    def test_degenerate(self):
        assert linalg.signature(frac_mat([[0, 0], [0, 3]])) == (1, 0, 1)

    def test_congruence_invariance(self):
        rng = random.Random(23)
        for _ in range(25):
            n = 4
            s = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                s[i][i] = Fraction(rng.randint(-3, 3))
                for j in range(i + 1, n):
                    s[i][j] = s[j][i] = Fraction(rng.randint(-3, 3))
            while True:
                t = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
                if linalg.mat_det(t) != 0:
                    break
            moved = linalg.mat_mul(linalg.mat_mul(linalg.mat_transpose(t), s), t)
            assert linalg.signature(moved) == linalg.signature(s)


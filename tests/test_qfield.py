import random
from fractions import Fraction

import pytest

from hermquat import QuadField, SplitType, splitting
from hermquat.errors import InputError

F7 = QuadField(-7)
F2 = QuadField(-2)
F3 = QuadField(-3)
F15 = QuadField(-15)


class TestConstruction:
    def test_one_mod_four(self):
        assert F7.D == -7
        assert F7.omega_is_half
        assert (F7.min_a, F7.min_b) == (-1, 2)

    def test_two_three_mod_four(self):
        assert F2.D == -8
        assert not F2.omega_is_half
        assert (F2.min_a, F2.min_b) == (0, 2)

    def test_rejects_bad_d(self):
        with pytest.raises(InputError):
            QuadField(5)
        with pytest.raises(InputError):
            QuadField(-4)
        with pytest.raises(InputError):
            QuadField(-12)

    def test_omega_satisfies_minimal_polynomial(self):
        for field in (F7, F2, F3, F15):
            w = field.omega()
            assert w * w + field.min_a * w + field.min_b == 0

    def test_sqrt_d_squares_to_d(self):
        for field in (F7, F2, F3, F15):
            r = field.sqrt_d()
            assert r * r == field.d
            assert field.inverse_sqrt_d() * r == 1


class TestConjNormTrace:
    def test_conj_fixes_rationals(self):
        x = F7.rational(Fraction(5, 3))
        assert x.conj() == x

    def test_conj_omega_d7(self):
        # omega + conj(omega) = 1 from x^2 - x + 2
        assert F7.omega().conj() == F7.elem(1, -1)

    def test_conj_omega_d2(self):
        assert F2.omega().conj() == -F2.omega()

    def test_norm_trace_frozen(self):
        assert F7.omega().norm() == 2
        assert F7.omega().trace() == 1
        assert F7.rational(3).norm() == 9

    def test_norm_multiplicative(self):
        rng = random.Random(5)
        for field in (F7, F2, F15):
            for _ in range(50):
                x = field.elem(
                    Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))),
                    Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))),
                )
                y = field.elem(rng.randint(-9, 9), rng.randint(-9, 9))
                assert (x * y).norm() == x.norm() * y.norm()
                assert (x + y).conj() == x.conj() + y.conj()
                assert (x * y).conj() == x.conj() * y.conj()

    def test_integral_elements_have_integer_invariants(self):
        rng = random.Random(9)
        for _ in range(40):
            x = F15.elem(rng.randint(-20, 20), rng.randint(-20, 20))
            assert x.norm().denominator == 1
            assert x.trace().denominator == 1

    def test_conj_fixed_field_is_rationals(self):
        assert F7.elem(1, 1).conj() != F7.elem(1, 1)
        assert F7.elem(Fraction(2, 5), 0).conj() == F7.elem(Fraction(2, 5), 0)

    def test_division(self):
        x = F7.elem(3, 2)
        y = F7.elem(1, -1)
        assert (x / y) * y == x
        with pytest.raises(ZeroDivisionError):
            x / F7.zero()


class TestSplitting:
    def test_frozen_examples(self):
        assert splitting(F7, 7) is SplitType.RAMIFIED
        assert splitting(F7, 2) is SplitType.SPLIT
        assert splitting(F7, 5) is SplitType.INERT

    def test_composite_rejected(self):
        with pytest.raises(InputError):
            splitting(F7, 6)

    def test_matches_root_counting(self):
        # brute force: factor x^2 - tr(w) x + n(w) mod p
        rng = random.Random(1)
        primes = [3, 5, 7, 11, 13, 17, 19, 23, 29]
        for field in (F7, F3, F15, F2):
            tr = int(field.omega().trace())
            nm = int(field.omega().norm())
            for p in primes:
                roots = [x for x in range(p) if (x * x - tr * x + nm) % p == 0]
                kind = splitting(field, p)
                if len(roots) == 1:
                    assert kind is SplitType.RAMIFIED
                elif len(roots) == 2:
                    assert kind is SplitType.SPLIT
                else:
                    assert kind is SplitType.INERT
        _ = rng

    def test_ramified_primes_are_the_primes_of_d(self):
        for d in (-1, -2, -3, -5, -6, -7, -15, -30, -105):
            field = QuadField(d)
            primes = [p for p in range(2, 8 * abs(d)) if field.D % p == 0
                      and all(p % q for q in range(2, p))]
            assert field.ramified_primes == tuple(primes)
            assert all(splitting(field, p) is SplitType.RAMIFIED for p in primes)

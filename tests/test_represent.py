import logging
import random
from fractions import Fraction

import pytest

from hermquat import (
    HermSpace,
    IntegralForm,
    Lattice,
    QuadField,
    VERDICT_REAL_OBSTRUCTION,
    VERDICT_REPRESENTED,
    VERDICT_SEARCH_EXHAUSTED,
    build_order,
    discriminant_form,
    global_search,
    hensel_liftable,
    local_test,
    represents_one_integral,
    represents_one_rational,
    vec,
)
from hermquat.errors import (
    HypothesisError,
    InputError,
    UnsupportedRamificationError,
)
from hermquat.hermitian import gram_on_basis
from hermquat import represent
from hermquat.represent import (
    METHOD_DIRECT_HENSEL,
    METHOD_RAMIFIED_DIAGONAL,
    METHOD_UNRAMIFIED_UNIT,
    RepresentConfig,
)

F7 = QuadField(-7)
F3 = QuadField(-3)
F2 = QuadField(-2)

SPLIT7 = HermSpace(F7, 1, -1, F7.zero())
STD7 = Lattice.standard(F7)


class TestHensel:
    GRAM = [
        [Fraction(1), 0, 0, 0],
        [0, Fraction(1), 0, 0],
        [0, 0, Fraction(-1), 0],
        [0, 0, 0, Fraction(-1)],
    ]

    def test_exact_solution_lifts(self):
        for p in (3, 5, 7, 11):
            assert hensel_liftable(self.GRAM, [1, 0, 0, 0], p, 0)

    def test_vanishing_gradient_rejected(self):
        # gradient = 2x = 0 mod 3 forces h(x) = 0 mod 3, so the value
        # condition fails as well
        gram = [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]
        assert not hensel_liftable(gram, [3, 3, 3, 3], 3, 0)

    def test_p2_needs_t_at_least_one(self):
        with pytest.raises(InputError):
            hensel_liftable(self.GRAM, [1, 0, 0, 0], 2, 0)
        assert hensel_liftable(self.GRAM, [1, 0, 0, 0], 2, 1)

    def test_certificate_extends_one_step(self):
        # an accepted certificate lifts: a solution mod p^(2t+2) exists near x
        space, lattice = SPLIT7, STD7
        gram = gram_on_basis(space, lattice.basis)
        for p in (2, 7, 11):
            report = local_test(space, lattice, p)
            assert report.solvable
            cert = report.certificate
            x = list(cert.vector)
            t = cert.hensel_t
            value = int(sum(x[i] * int(2 * gram[i][j]) * x[j] for i in range(4) for j in range(4)) // 2)
            grad = [int(sum(2 * gram[i][j] * x[j] for j in range(4))) for i in range(4)]
            m = min(range(4), key=lambda i: _valp(grad[i], p))
            mm = _valp(grad[m], p)
            assert mm <= t
            modulus = p ** (2 * t + 2)
            r = value - 1
            unit = grad[m] // p**mm
            step = (-(r // p**mm) * pow(unit, -1, modulus)) % modulus
            lifted = list(x)
            lifted[m] += step
            new_val = sum(
                lifted[i] * int(2 * gram[i][j]) * lifted[j]
                for i in range(4)
                for j in range(4)
            ) // 2
            assert (new_val - 1) % modulus == 0


def _valp(n, p):
    if n == 0:
        return 10**9
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class TestRational:
    def test_positive_definite(self):
        ok, witness = represents_one_rational(HermSpace(F7, 1, 1, F7.zero()))
        assert ok and witness is not None
        assert HermSpace(F7, 1, 1, F7.zero()).h_value(witness) == 1

    def test_negative_definite(self):
        ok, witness = represents_one_rational(HermSpace(F7, -1, -1, F7.zero()))
        assert not ok and witness is None

    def test_indefinite(self):
        ok, _ = represents_one_rational(SPLIT7)
        assert ok

    def test_witness_with_denominator(self):
        # h = 4 n(x) - 4 n(y): no integral witness, but h((1/2, 0)) = 1
        space = HermSpace(F7, 4, -4, F7.zero())
        ok, witness = represents_one_rational(space)
        assert ok and witness is not None
        assert space.h_value(witness) == 1


class TestLocal:
    def test_ramified_seven(self):
        report = local_test(SPLIT7, STD7, 7)
        assert report.solvable
        assert report.method == METHOD_RAMIFIED_DIAGONAL
        cert = report.certificate
        assert cert.modulus_exponent == 1 and cert.hensel_t == 0
        # oracle: exhaustive search mod 7^3 on the two-unit subform confirms
        # a solution congruent to the certificate exists
        gram = gram_on_basis(SPLIT7, STD7.basis)
        found = False
        target = list(cert.vector)
        for c0 in range(343):
            for c2 in range(0, 343, 7):
                cand = [c0, target[1], (target[2] + c2) % 343, target[3]]
                if all((cand[i] - target[i]) % 7 == 0 for i in range(4)):
                    val = sum(
                        cand[i] * 2 * gram[i][j] * cand[j]
                        for i in range(4)
                        for j in range(4)
                    ) / 2
                    if (val - 1) % 343 == 0:
                        found = True
                        break
            if found:
                break
        assert found

    def test_unramified_two(self):
        report = local_test(SPLIT7, STD7, 2)
        assert report.solvable and report.method == METHOD_DIRECT_HENSEL
        assert report.certificate.modulus_exponent == 3

    def test_unramified_odd(self):
        report = local_test(SPLIT7, STD7, 3)
        assert report.solvable and report.method == METHOD_UNRAMIFIED_UNIT

    def test_primes_outside_support_never_obstruct(self):
        rng = random.Random(41)
        inv = F7.inverse_sqrt_d()
        count = 0
        while count < 5:
            space = HermSpace(
                F7,
                rng.randint(-3, 3),
                rng.randint(-3, 3),
                F7.elem(rng.randint(-3, 3), rng.randint(-3, 3)) * inv,
            )
            if not space.is_nondegenerate():
                continue
            delta = discriminant_form(space, STD7)
            for p in (11, 13, 17, 19, 23):
                if int(delta.as_ideal) % p == 0:
                    continue
                report = local_test(space, STD7, p)
                assert report.solvable
                assert report.method == METHOD_UNRAMIFIED_UNIT
            count += 1

    def test_ramified_against_exhaustive_oracle(self):
        # independent oracle: exhaustive search of all residue vectors mod p
        # for h(x) = 1 mod p with a unit gradient coordinate
        import itertools

        rng = random.Random(53)
        cases = 0
        while cases < 6:
            field = QuadField(rng.choice((-3, -7)))
            p = -field.d if field.d != -3 else 3
            inv = field.inverse_sqrt_d()
            space = HermSpace(
                field,
                rng.randint(-3, 3),
                rng.randint(-3, 3),
                field.elem(rng.randint(-3, 3), rng.randint(-3, 3)) * inv,
            )
            lattice = Lattice.standard(field)
            if not space.is_nondegenerate():
                continue
            delta = discriminant_form(space, lattice)
            if _valp(int(delta.as_ideal), p) >= 2:
                continue
            report = local_test(space, lattice, p)
            assert report.solvable
            gram = gram_on_basis(space, lattice.basis)
            witness_exists = False
            for c in itertools.product(range(p), repeat=4):
                value = sum(
                    c[i] * 2 * gram[i][j] * c[j] for i in range(4) for j in range(4)
                ) / 2
                if (value - 1) % p != 0:
                    continue
                grads = [
                    int(sum(2 * gram[i][j] * c[j] for j in range(4))) % p
                    for i in range(4)
                ]
                if any(grads):
                    witness_exists = True
                    break
            assert witness_exists
            cases += 1

    def test_scaled_form_hypothesis_error(self):
        scaled = HermSpace(F7, 7, -7, F7.zero())  # Delta = 7^3
        with pytest.raises(HypothesisError) as err:
            local_test(scaled, STD7, 7)
        assert err.value.prime == 7

    def test_two_adic_ramified_rejected(self):
        space = HermSpace(F2, 1, -1, F2.zero())
        with pytest.raises(UnsupportedRamificationError):
            local_test(space, Lattice.standard(F2), 2)

    def test_composite_rejected(self):
        with pytest.raises(InputError):
            local_test(SPLIT7, STD7, 10)

    def test_missing_unit_value_reports_obstruction(self):
        # a form with h(Lambda) in pZ is locally insolvable; such forms
        # always violate the square-free hypothesis (h/p is then integral),
        # so the public path rejects them first and the obstruction branch
        # is exercised directly
        from hermquat.represent import _local_unramified

        space = HermSpace(F3, 2, 2, F3.zero())  # h = 2 n(x) + 2 n(y)
        std3 = Lattice.standard(F3)
        report = _local_unramified(IntegralForm(space, std3), 2)
        assert not report.solvable and report.certificate is None
        with pytest.raises(HypothesisError):
            local_test(space, std3, 2)


class TestNormResidueScale:
    def test_large_prime_takes_few_square_roots(self, monkeypatch):
        # the work is one square-root attempt per candidate s, not a scan
        # that grows with p
        from hermquat import represent

        calls = []
        sqrt_mod = represent._sqrt_mod
        monkeypatch.setattr(
            represent, "_sqrt_mod", lambda a, p: calls.append(a) or sqrt_mod(a, p)
        )
        p = 999983
        for field in (F7, F3):
            for target in (1, 2, 3, 5, p - 1):
                calls.clear()
                r, s = represent._norm_residue_scale(field, target, p)
                assert field.elem(r, s).norm() % p == target
                assert len(calls) == s + 1 <= 16

    def test_agrees_with_brute_force(self):
        from hermquat.represent import _norm_residue_scale

        for d in (-1, -3, -7, -11, -15, -19):
            field = QuadField(d)
            moduli = [p for p in (3, 5, 7, 11, 13, 17) if field.D % p] + [8]
            if field.D % 2 == 0:
                moduli.remove(8)
            for m in moduli:
                for t in range(1, m):
                    reachable = any(
                        (field.elem(r, s).norm() - t) % m == 0
                        for r in range(m)
                        for s in range(m)
                    )
                    rs = _norm_residue_scale(field, t, m)
                    assert (rs is not None) == reachable
                    if rs is not None:
                        assert (field.elem(*rs).norm() - t) % m == 0


class TestGlobalSearch:
    def test_split_form_first_witness(self):
        # oracle: ascending (shell, c1..c4) enumeration finds (-1, 0) first
        witness = global_search(SPLIT7, STD7, 5)
        assert witness == vec(F7, -1, 0)
        assert SPLIT7.h_value(witness) == 1

    def test_oracle_agreement(self):
        # independent brute enumeration in the same declared order
        space = HermSpace(F7, 2, -1, F7.zero())
        lattice = STD7
        gram = gram_on_basis(space, lattice.basis)
        expected = None
        for h in range(0, 11):
            if expected:
                break
            rng = range(-h, h + 1)
            for c1 in rng:
                if expected:
                    break
                for c2 in rng:
                    if expected:
                        break
                    for c3 in rng:
                        if expected:
                            break
                        for c4 in rng:
                            c = (c1, c2, c3, c4)
                            if max(abs(t) for t in c) != h:
                                continue
                            from hermquat.linalg import evaluate_quadratic

                            if evaluate_quadratic(gram, c) == 1:
                                expected = lattice.from_integer_coords(c)
                                break
        assert expected is not None
        assert global_search(space, lattice, 10) == expected

    def test_negative_definite_none(self):
        assert global_search(HermSpace(F7, -1, -1, F7.zero()), STD7, 10) is None

    def test_positive_definite_complete(self):
        # minimum of 2 n(x) + 5 n(y) is 2, so no witness at any height
        space = HermSpace(F3, 2, 5, F3.zero())
        assert global_search(space, Lattice.standard(F3), 50) is None


class TestPipeline:
    def test_split_form_represented(self):
        report = represents_one_integral(SPLIT7, STD7)
        assert report.verdict == VERDICT_REPRESENTED
        assert SPLIT7.h_value(report.witness) == 1
        assert report.real_ok
        assert {r.prime for r in report.locals} == {2, 7}
        assert report.discriminant.value == 7

    def test_negative_definite_obstruction(self):
        space = HermSpace(F7, -1, -3, F7.zero())
        report = represents_one_integral(space, STD7)
        assert report.verdict == VERDICT_REAL_OBSTRUCTION
        assert not report.real_ok
        assert report.witness is None

    def test_local_obstruction_verdict_assembly(self):
        # forms passing the square-free hypothesis are always locally
        # solvable, so the LocalObstruction verdict can only arise from an
        # unsolvable report; check the assembly path directly
        from hermquat.represent import _local_unramified

        space = HermSpace(F3, 2, 2, F3.zero())
        std3 = Lattice.standard(F3)
        report = _local_unramified(IntegralForm(space, std3), 2)
        assert not report.solvable
        with pytest.raises(HypothesisError):
            represents_one_integral(space, std3)

    def test_definite_locally_solvable_exhausts(self):
        # 2 n(x) + 5 n(y) over d = -3: |Delta| = 30 square-free, solvable at
        # 2, 3 and 5, but the global minimum is 2
        space = HermSpace(F3, 2, 5, F3.zero())
        report = represents_one_integral(space, Lattice.standard(F3))
        assert report.verdict == VERDICT_SEARCH_EXHAUSTED
        assert all(r.solvable for r in report.locals)

    # 3 n(x) - 10007 n(y) over d = -7: indefinite, |Delta| = 3*7*10007 is
    # square-free and locally solvable everywhere, but no witness lies in
    # the box of height 2
    EXHAUSTED7 = HermSpace(F7, 3, -10007, F7.zero())
    OWN_PRIMES = (2, 3, 7, 10007)

    def test_exhausted_indefinite_factors_delta_once(self, monkeypatch):
        calls = []
        real = represent.factorint
        monkeypatch.setattr(represent, "factorint", lambda n: calls.append(n) or real(n))
        report = represents_one_integral(
            self.EXHAUSTED7, STD7, RepresentConfig(search_bound=2)
        )
        assert report.verdict == VERDICT_SEARCH_EXHAUSTED
        # only local_prime_set factors, 2*|D|*|Delta|: the local tests at its
        # primes already proved |Delta| square-free
        assert calls == [2 * 7 * 210147]
        calls.clear()
        report = represents_one_integral(
            self.EXHAUSTED7, STD7, RepresentConfig(search_bound=2, primes=self.OWN_PRIMES)
        )
        assert report.verdict == VERDICT_SEARCH_EXHAUSTED
        # a caller's prime set proves nothing about |Delta|, so it is factored
        assert calls == [210147]

    def test_exhausted_indefinite_warns(self, caplog):
        for primes in (None, self.OWN_PRIMES):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="hermquat.represent"):
                represents_one_integral(
                    self.EXHAUSTED7, STD7, RepresentConfig(search_bound=2, primes=primes)
                )
            assert "a witness is guaranteed to exist" in caplog.text

    def test_even_discriminant_rejected(self):
        space = HermSpace(F2, 1, -1, F2.zero())
        with pytest.raises(UnsupportedRamificationError):
            represents_one_integral(space, Lattice.standard(F2))

    def test_hypothesis_error_propagates(self):
        scaled = HermSpace(F7, 7, -7, F7.zero())
        with pytest.raises(HypothesisError):
            represents_one_integral(scaled, STD7)

    def test_witness_order_discriminants_agree(self):
        report = represents_one_integral(SPLIT7, STD7)
        order, _ = build_order(SPLIT7, STD7, report.witness)
        assert order.discriminant().value == report.discriminant.value

    def test_m2z_pullback_pipeline(self):
        from tests_fixtures import m2z_pointed

        space, lattice, point = m2z_pointed()
        report = represents_one_integral(space, lattice)
        assert report.verdict == VERDICT_REPRESENTED
        # frozen first witness in enumeration order (unit of determinant 1)
        assert lattice.integer_coords(report.witness) == [-1, -1, 0, -1]

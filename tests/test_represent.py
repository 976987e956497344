import hashlib
import itertools
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
    surviving_forms,
)
from hermquat.errors import (
    DegenerateFormError,
    Error,
    HypothesisError,
    InputError,
    InvariantViolation,
    NotIntegralError,
    UnsupportedRamificationError,
)
from hermquat import hermitian, represent
from hermquat.verify import random_b_stable_lattice
from hermquat.represent import (
    METHOD_DIRECT_HENSEL,
    METHOD_RAMIFIED_DIAGONAL,
    METHOD_UNRAMIFIED_UNIT,
    Certificate,
    LocalReport,
    RepresentConfig,
    local_prime_set,
)
from fraction_reference import box_search, gram_on_basis, vec
from tests_fixtures import CLOSED_FORM_FIELDS, random_b_stable_pairs

F7 = QuadField(-7)
F3 = QuadField(-3)
F2 = QuadField(-2)

SPLIT7 = HermSpace(F7, 1, -1, F7.zero())
STD7 = Lattice.standard(F7)


class TestHensel:
    # W = 2G of h = x1^2 + x2^2 - x3^2 - x4^2
    W = [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, -2, 0], [0, 0, 0, -2]]

    def test_exact_solution_lifts(self):
        for p in (3, 5, 7, 11):
            assert hensel_liftable(self.W, [1, 0, 0, 0], p, 0)

    def test_vanishing_gradient_rejected(self):
        # gradient = 2x = 0 mod 3 forces h(x) = 0 mod 3, so the value
        # condition fails as well
        w = [[2 * int(i == j) for j in range(4)] for i in range(4)]
        assert not hensel_liftable(w, [3, 3, 3, 3], 3, 0)

    def test_p2_needs_t_at_least_one(self):
        with pytest.raises(InputError):
            hensel_liftable(self.W, [1, 0, 0, 0], 2, 0)
        assert hensel_liftable(self.W, [1, 0, 0, 0], 2, 1)

    def test_composite_rejected(self):
        with pytest.raises(InputError):
            hensel_liftable(self.W, [1, 0, 0, 0], 6, 1)

    def test_matches_valuation_definition(self):
        # val_p(h(x) - 1) >= 2t + 1 and min val_p(grad) <= t, with h = x.W.x/2,
        # grad = W.x and val_p(0) infinite, on random symmetric W with an even
        # diagonal.  W[0][0] is solved for h(x) - 1 = e with x[0] = 1 and e = 0
        # or a unit times p^k, so val_p(h(x) - 1) runs through 0 .. 2t + 2;
        # a random permutation then moves the solved slot
        rng = random.Random(23)
        for p in (2, 3, 5, 7):
            for t in (1, 2) if p == 2 else (0, 1, 2):
                for k in range(2 * t + 4):
                    for _ in range(20):
                        x = [1] + [rng.randint(-p * p, p * p) for _ in range(3)]
                        w = [[0] * 4 for _ in range(4)]
                        for i in range(4):
                            w[i][i] = 2 * rng.randint(-p * p, p * p)
                            for j in range(i + 1, 4):
                                w[i][j] = w[j][i] = rng.randint(-p * p, p * p)
                        e = 0
                        if k <= 2 * t + 2:
                            e = (rng.randrange(1, p) + p * rng.randint(-p, p)) * p**k
                        rest = sum(x[i] * w[i][j] * x[j] for i in range(4) for j in range(4)) // 2
                        w[0][0] += 2 * (1 + e - rest)
                        perm = rng.sample(range(4), 4)
                        w = [[w[i][j] for j in perm] for i in perm]
                        x = [x[i] for i in perm]
                        grad = [sum(w[i][j] * x[j] for j in range(4)) for i in range(4)]
                        value = sum(x[i] * grad[i] for i in range(4)) // 2
                        assert value - 1 == e
                        expected = _valp(value - 1, p) >= 2 * t + 1 and min(
                            _valp(g, p) for g in grad
                        ) <= t
                        assert hensel_liftable(w, x, p, t) == expected

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


def _report_line(report) -> bytes:
    cert = report.certificate
    if cert is not None:
        cert = (cert.vector, cert.modulus_exponent, cert.hensel_t)
    return (repr((report.prime, report.solvable, report.method, cert)) + "\n").encode()


class TestRamifiedCertificates:
    """SHA-256 of (prime, solvable, method, certificate) of the local test at
    odd ramified primes.  The digests were taken from the earlier p-adic
    Fraction diagonalization (congruence diagonalization with pivots of least
    p-adic valuation); the Gram-Schmidt over Z/p must give the same reports."""

    SWEEP = "9ac858068797a653e912243f40f386a309ac9dfbe179f8fa67ffc199305b3ced"
    RANDOM = "8a3dfd206d431a89ecc4d1885de01dc26e976d45fd926fd756b4b1c27f53d0a6"
    LATER_SLOT = "b6354c7826d39ee07cdf901bdb5284d066744c04185f68744b58a7fec2d37a86"

    def test_sweep_forms_at_their_ramified_prime(self):
        digest = hashlib.sha256()
        count = 0
        for d, p in ((-3, 3), (-7, 7)):
            for *_, space, lattice, _ in surviving_forms(QuadField(d), 2):
                digest.update(_report_line(local_test(space, lattice, p)))
                count += 1
        assert (count, digest.hexdigest()) == (762, self.SWEEP)

    def test_random_b_stable_lattices(self):
        # every odd ramified (field, p) of CLOSED_FORM_FIELDS; 17 of the 366
        # cases raise HypothesisError
        digest = hashlib.sha256()
        count = 0
        for space, lattice in random_b_stable_pairs(7, 1200):
            for p in (3, 5, 7, 11, 19):
                if space.field.D % p:
                    continue
                try:
                    space.integral_form(lattice)
                except (NotIntegralError, DegenerateFormError):
                    continue
                try:
                    line = _report_line(local_test(space, lattice, p))
                except HypothesisError:
                    line = b"HypothesisError\n"
                digest.update(line)
                count += 1
        assert (count, digest.hexdigest()) == (366, self.RANDOM)

    # (d, alpha, beta, (m, n), U): gamma = (m + n*omega)/sqrt(d) and the rows
    # of U are the lattice coordinates of a basis of B^2 whose first vector
    # lies in the radical of h mod p and whose h-values are all divisible by
    # p, so the first pivot is a pair sum v_k + v_j with k >= 1, which swaps
    # v_0 into slot k.  Found by a seeded random walk over unimodular U.
    LATER_SLOT_CASES = (
        (-3, -2, -1, (0, 0), ((2, -1, -1, -1), (0, 1, 0, 1), (-1, 0, 1, 0), (-1, 0, 0, 1))),
        (-3, -2, 0, (-2, 1), ((1, -2, 1, -2), (0, 0, 1, 0), (0, -1, 1, -1), (1, 2, -2, 3))),
        (-3, -2, 0, (-1, -1), ((1, -2, 1, 1), (0, 3, -1, -3), (0, -2, 1, 2), (1, 1, 0, -1))),
        (-3, -2, 0, (-1, 2), ((3, 0, 1, -2), (1, 1, 0, 0), (2, 0, 1, -1), (0, 0, 0, 1))),
        (-3, -2, 0, (1, -2), ((1, 1, 0, 0), (-1, 0, 1, 0), (-4, -1, 4, 0), (0, 0, 0, 1))),
        (-3, -2, 0, (1, 1), ((2, -1, -1, -1), (-1, 0, -1, 1), (0, 0, 1, 0), (-2, -1, 0, 2))),
        (-7, -2, 0, (1, -2), ((1, -2, 0, 0), (1, -2, 1, -1), (0, -2, 1, 0), (-1, 1, 0, 1))),
        (-7, -1, 0, (-1, 2), ((1, -2, -4, 1), (0, 1, 2, 0), (0, 0, 1, 0), (1, -2, -5, 2))),
        (-7, -1, 2, (0, 0), ((1, -2, 1, -2), (-1, 1, -1, 0), (0, -3, 1, -3), (1, 0, 1, 1))),
        (-7, 0, -2, (1, -2), ((-1, 2, 1, -2), (-1, 1, 0, 0), (-1, 1, 1, -1), (1, -1, -1, 2))),
        (-7, 0, -1, (-1, 2), ((1, -2, 1, -2), (-1, 1, 0, 0), (-1, -1, 1, -1), (-1, 4, -2, 4))),
        (-7, 0, 0, (-1, 2), ((1, -2, 0, 0), (-1, 3, -1, 2), (1, -2, 1, 0), (-1, 2, 0, 1))),
    )

    def test_pair_pivot_in_a_later_slot(self):
        digest = hashlib.sha256()
        for d, alpha, beta, (m, n), rows in self.LATER_SLOT_CASES:
            field = QuadField(d)
            p = 3 if d == -3 else 7
            space = HermSpace(field, alpha, beta, field.elem(m, n) * field.inverse_sqrt_d())
            std = Lattice.standard(field)
            lattice = Lattice(field, [std.from_integer_coords(r) for r in rows])
            w = space.integral_form(lattice).w
            assert all(x % p == 0 for x in w[0])
            assert all(w[i][i] // 2 % p == 0 for i in range(4))
            digest.update(_report_line(local_test(space, lattice, p)))
        assert digest.hexdigest() == self.LATER_SLOT

    def test_rank_contradicting_the_discriminant_is_a_violation(self):
        from hermquat.represent import _local_ramified

        # Delta = 7: h has rank 2 mod 7
        with pytest.raises(InvariantViolation, match="rank 2 mod 7"):
            _local_ramified(IntegralForm(SPLIT7, STD7), 7, 0)
        # Delta = 8: h has rank 4 mod 7
        unit = HermSpace(F7, 1, -1, F7.inverse_sqrt_d())
        with pytest.raises(InvariantViolation, match="rank 4 mod 7"):
            _local_ramified(IntegralForm(unit, STD7), 7, 1)

    def test_unit_value_is_none_exactly_when_h_vanishes_mod_p(self):
        from hermquat.represent import _BASIS, _unit_value

        def h(w, x):
            return sum(x[i] * w[i][j] * x[j] for i in range(4) for j in range(4)) // 2

        rng = random.Random(17)
        for p in (2, 3, 5):
            for _ in range(40):
                # entries mostly divisible by p, so that few b-values are units
                w = [[0] * 4 for _ in range(4)]
                for i in range(4):
                    w[i][i] = 2 * rng.choice((0, p, p, 1))
                    for j in range(i + 1, 4):
                        w[i][j] = w[j][i] = rng.choice((0, p, -p, p, 1, -1))
                found = _unit_value(w, _BASIS, p)
                vanishes = all(
                    h(w, x) % p == 0 for x in itertools.product(range(p), repeat=4)
                )
                assert (found is None) == vanishes
                if found is not None:
                    _, x, hx = found
                    assert hx == h(w, x) and hx % p


def _local_line(space, lattice, p) -> bytes:
    try:
        return _report_line(local_test(space, lattice, p))
    except Error as exc:
        return (repr((p, type(exc).__name__)) + "\n").encode()


class TestLocalCertificates:
    """SHA-256 of (prime, solvable, method, certificate) of the local test at
    every kind of prime, errors recorded by type.  The digests were taken
    from the earlier Fraction path (the Hensel gate on G with p-adic
    valuations, the unramified certificate scaled by a norm in L^2)."""

    SWEEP = "357771f35eb49fbec913b2a64986726444f40e8dedce21e3e6322bd51ca539cf"
    RANDOM = "46c80557c45c944e746ab0c804195b37c818b09dd9a128896f56b72efbbba054"

    def test_sweep_forms_at_every_local_prime(self):
        # the primes of 2*|D|*|Delta|, an unrelated prime and a composite
        digest = hashlib.sha256()
        count = 0
        for d in (-3, -7, -11, -15):
            for *_, space, lattice, delta in surviving_forms(QuadField(d), 2):
                for p in local_prime_set(space.integral_form(lattice)) + [13, 4]:
                    digest.update(_local_line(space, lattice, p))
                    count += 1
        assert (count, digest.hexdigest()) == (7368, self.SWEEP)

    def test_random_b_stable_lattices(self):
        # non-integral, degenerate and 2-adically ramified pairs included
        digest = hashlib.sha256()
        count = 0
        for space, lattice in random_b_stable_pairs(3, 1500):
            for p in (2, 3, 5, 7, 11, 13, 19, 6):
                digest.update(_local_line(space, lattice, p))
                count += 1
        assert (count, digest.hexdigest()) == (12000, self.RANDOM)


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
        # the walk over every vector of the box, in the same declared order
        space = HermSpace(F7, 2, -1, F7.zero())
        expected = box_search(space, STD7, 10)
        assert expected is not None
        assert global_search(space, STD7, 10) == expected

    def test_root_solve_matches_box_walk(self):
        # 300 seeded (form, lattice, bound) cases over odd and even D, half
        # on B^2, where beta = 0 makes A = W44 = 0, and half on random
        # B-stable lattices
        rng = random.Random(71)
        fields = [QuadField(d) for d in CLOSED_FORM_FIELDS]
        found = 0
        for k in range(300):
            field = fields[k % len(fields)]
            while True:
                lattice = Lattice.standard(field) if k % 2 else random_b_stable_lattice(rng, field)
                gamma = field.elem(rng.randint(-4, 4), rng.randint(-4, 4))
                beta = rng.choice((0, rng.randint(-6, 6)))
                space = HermSpace(field, rng.randint(-6, 6), beta, gamma * field.inverse_sqrt_d())
                try:
                    space.integral_form(lattice)
                    break
                except (NotIntegralError, DegenerateFormError):
                    continue
            bound = 1 + k % 4
            expected = box_search(space, lattice, bound)
            assert global_search(space, lattice, bound) == expected
            found += expected is not None
        assert 100 < found < 250

    # name -> (d, alpha, beta, (m, n), bound, first witness in lattice
    # coordinates, (A, B, C) at its prefix) on B^2, with
    # gamma = (m + n*omega)/sqrt(d)
    ROOT_CASES = {
        # A = 0, B != 0: the linear root c4 = -C/(2B) = -1
        "linear": (-15, -1, 0, (-3, -1), 4, (-1, 0, -1, -1), (0, -3, -6)),
        # A = B = C = 0: every c4 solves, and the most negative one of
        # the shell, -1, comes first
        "every_c4": (-15, 1, 0, (0, 2), 2, (-1, 0, 0, -1), (0, 0, 0)),
        # A < 0: of the roots 0 and 11/6 only 0 is an integer
        "negative_a": (-11, 3, -2, (-3, -3), 4, (0, -1, -1, 0), (-12, 11, 0)),
    }

    @pytest.mark.parametrize("name", ROOT_CASES)
    def test_root_cases(self, name):
        d, alpha, beta, (m, n), bound, coords, abc = self.ROOT_CASES[name]
        field = QuadField(d)
        lattice = Lattice.standard(field)
        space = HermSpace(field, alpha, beta, field.elem(m, n) * field.inverse_sqrt_d())
        w = space.integral_form(lattice).w
        prefix = range(3)
        a = w[3][3]
        b = sum(w[3][i] * coords[i] for i in prefix)
        c = sum(coords[i] * w[i][j] * coords[j] for i in prefix for j in prefix) - 2
        assert (a, b, c) == abc
        expected = lattice.from_integer_coords(coords)
        assert box_search(space, lattice, bound) == expected
        assert global_search(space, lattice, bound) == expected

    def test_positive_definite_clamps_below_bound(self):
        # the ellipsoid bounds are (2, 1, 3, 2), all below the height bound
        field = QuadField(-11)
        space = HermSpace(field, 2, 1, field.elem(Fraction(14, 11), Fraction(-6, 11)))
        lattice = Lattice.standard(field)
        expected = lattice.from_integer_coords((-1, 0, 1, -1))
        for bound in (3, 6, 50):
            assert box_search(space, lattice, bound) == expected
            assert global_search(space, lattice, bound) == expected

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

    def test_exhausted_indefinite_factors_delta_once(self, monkeypatch):
        calls = []
        real = hermitian.factorint
        monkeypatch.setattr(hermitian, "factorint", lambda n: calls.append(n) or real(n))
        # fresh spaces, so that no record kept on a space has factored yet
        space = HermSpace(F7, 3, -10007, F7.zero())
        report = represents_one_integral(space, STD7, RepresentConfig(search_bound=2))
        assert report.verdict == VERDICT_SEARCH_EXHAUSTED
        # the record factors |Delta| once for local_prime_set, which joins
        # 2 and the field's ramified primes; the local tests at those primes
        # already proved |Delta| square-free
        assert calls == [210147]

    def test_exhausted_indefinite_warns(self, caplog):
        with caplog.at_level(logging.WARNING, logger="hermquat.represent"):
            represents_one_integral(self.EXHAUSTED7, STD7, RepresentConfig(search_bound=2))
        assert "a witness is guaranteed to exist" in caplog.text

    def test_even_discriminant_rejected(self):
        space = HermSpace(F2, 1, -1, F2.zero())
        with pytest.raises(UnsupportedRamificationError):
            represents_one_integral(space, Lattice.standard(F2))

    @pytest.mark.parametrize("d", (-1, -2))
    def test_random_pointed_lattice_rejects_even_discriminant(self, d):
        # every Delta on B^2 is divisible by 4 there, so the draw loop would
        # never end; it raises before drawing anything
        from hermquat.verify import random_integral_pointed_lattice

        rng = random.Random(0)
        state = rng.getstate()
        with pytest.raises(UnsupportedRamificationError):
            random_integral_pointed_lattice(rng, QuadField(d))
        assert rng.getstate() == state

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
        assert report.witness == lattice.from_integer_coords([-1, -1, 0, -1])


class TestRecords:
    def test_field_equality_and_repr(self):
        assert LocalReport(7, True) == LocalReport(7, True, None, None)
        assert LocalReport(7, True) != LocalReport(7, False)
        assert RepresentConfig() != Certificate((1,), 1, 0)
        assert repr(RepresentConfig()) == "RepresentConfig(search_bound=50)"
        assert repr(Certificate((1, 2), 1, 0)) == (
            "Certificate(vector=(1, 2), modulus_exponent=1, hensel_t=0)"
        )

    def test_only_the_immutable_records_hash(self):
        assert len({Certificate((1, 2), 1, 0), Certificate((1, 2), 1, 0)}) == 1
        delta = discriminant_form(SPLIT7, STD7)
        assert hash(delta) == hash(discriminant_form(HermSpace(F7, 1, -1, F7.zero()), STD7))
        for record in (LocalReport(7, True), RepresentConfig()):
            with pytest.raises(TypeError):
                hash(record)

    def test_hashing_records_are_immutable(self):
        import copy
        import pickle

        cert = Certificate((1, 2), 1, 0)
        delta = discriminant_form(SPLIT7, STD7)
        for record, field in ((cert, "hensel_t"), (delta, "value")):
            with pytest.raises(AttributeError):
                setattr(record, field, 5)
            with pytest.raises(AttributeError):
                delattr(record, field)
            assert copy.deepcopy(record) == record
            assert pickle.loads(pickle.dumps(record)) == record
        assert cert.hensel_t == 0 and delta.value == 7

import random
import sys
from fractions import Fraction

import pytest

from hermquat import (
    Definiteness,
    HermSpace,
    IntegralForm,
    Lattice,
    QuadField,
    det_form,
    discriminant_form,
    lattice_from_B_basis,
    polarize,
    polarize_independence_check,
    sesquilinear_from_gram,
    space_basis,
    vec_add,
    vec_scale,
)
from hermquat.errors import (
    BStabilityError,
    DegenerateFormError,
    InputError,
    MembershipError,
    NotHermitianError,
    NotIntegralError,
    RankError,
)
from hermquat import linalg
from hermquat.hermitian import vec_coords
import fraction_reference
from fraction_reference import (
    b_value,
    coord_rows,
    gram_on_basis,
    is_integral,
    is_integral_elem,
    mat_det,
    mat_inverse,
    vec,
)
from tests_fixtures import CLOSED_FORM_FIELDS, random_b_stable_pairs

F7 = QuadField(-7)
F3 = QuadField(-3)


def random_space(rng, field, height=4):
    return HermSpace(
        field,
        Fraction(rng.randint(-height, height), rng.choice((1, 2))),
        Fraction(rng.randint(-height, height), rng.choice((1, 2))),
        field.elem(
            Fraction(rng.randint(-height, height), rng.choice((1, 2, 3))),
            Fraction(rng.randint(-height, height), rng.choice((1, 2, 3))),
        ),
    )


def random_vec(rng, field, height=3):
    return vec(
        field,
        field.elem(rng.randint(-height, height), rng.randint(-height, height)),
        field.elem(rng.randint(-height, height), rng.randint(-height, height)),
    )


class TestPolarize:
    def test_rank_one_norm_form(self):
        # h = n_L on V = L: the recovered s is s(x, y) = x * conj(y)
        for field in (F7, F3):
            ma, mb = field.min_a, field.min_b
            gram2 = [
                [Fraction(1), Fraction(-ma, 2)],
                [Fraction(-ma, 2), Fraction(mb)],
            ]
            s = sesquilinear_from_gram(gram2, field)
            assert len(s) == 1 and s[0][0] == 1

    def test_diagonal_norm_form_minus_theta(self):
        # h(x, y) = n(x) - theta*n(y) polarizes to diag(1, -theta)
        for theta in (Fraction(1), Fraction(3, 2), Fraction(-2)):
            space = HermSpace(F7, 1, -theta, F7.zero())
            recovered = polarize(space.gram4(), F7)
            assert recovered.alpha == 1
            assert recovered.beta == -theta
            assert recovered.gamma == F7.zero()

    def test_round_trip_random(self):
        rng = random.Random(17)
        for _ in range(60):
            field = QuadField(rng.choice((-3, -7, -11, -15)))
            space = random_space(rng, field)
            assert polarize(space.gram4(), field) == space

    def test_scaling_violation_rejected(self):
        # h = x1^2 on Q^4 is not hermitian
        gram = [[Fraction(0)] * 4 for _ in range(4)]
        gram[0][0] = Fraction(1)
        with pytest.raises(NotHermitianError):
            polarize(gram, F7)

    def test_non_square_input_rejected(self):
        with pytest.raises(InputError):
            polarize([[Fraction(1)]], F7)

    def test_closed_form_matches_bilinear_reference(self):
        # random symmetric Grams, hermitian or not, and random samples l
        rng = random.Random(18)

        def rat(h):
            return Fraction(rng.randint(-h, h), rng.choice((1, 2, 3, 5)))

        for d in (-3, -7, -11, -15):
            field = QuadField(d)
            for size in (2, 4, 6):
                for _ in range(15):
                    gram = [[Fraction(0)] * size for _ in range(size)]
                    for i in range(size):
                        for j in range(i, size):
                            gram[i][j] = gram[j][i] = rat(6)
                    l = field.elem(rat(4), rat(4) or Fraction(1, 3))
                    assert sesquilinear_from_gram(gram, field, l) == (
                        fraction_reference.sesquilinear_from_gram(gram, field, l)
                    )
                    assert sesquilinear_from_gram(gram, field) == (
                        fraction_reference.sesquilinear_from_gram(gram, field, field.omega())
                    )


class TestIndependence:
    def test_hermitian_forms_are_sample_independent(self):
        rng = random.Random(4)
        w = F7.omega()
        samples = [w, w + 1, 2 * w - 3, 5 * w, w - 4]
        for _ in range(20):
            space = random_space(rng, F7)
            assert polarize_independence_check(space.gram4(), F7, samples)

    def test_independence_is_unconditional(self):
        # s_l = s_omega identically by bilinearity of b, hermitian or not;
        # what fails for a non-hermitian h is the reconstruction, not the
        # agreement of the s_l
        gram = [[Fraction(0)] * 4 for _ in range(4)]
        gram[0][0] = Fraction(1)
        w = F7.omega()
        assert polarize_independence_check(gram, F7, [w, w + 1, 5 * w])
        with pytest.raises(NotHermitianError):
            polarize(gram, F7)

    def test_single_sample_vacuous(self):
        gram = [[Fraction(0)] * 4 for _ in range(4)]
        gram[0][0] = Fraction(1)
        assert polarize_independence_check(gram, F7, [F7.omega()])

    def test_rational_sample_rejected(self):
        space = HermSpace(F7, 1, 1, F7.zero())
        with pytest.raises(InputError):
            polarize_independence_check(space.gram4(), F7, [F7.rational(2)])


class TestValues:
    def test_frozen_values(self):
        space = HermSpace(F7, 1, -1, F7.zero())
        assert space.h_value(vec(F7, 1, 0)) == 1
        assert space.h_value((F7.omega(), F7.zero())) == 2  # n(omega) = 2

    def test_polarization_identity(self):
        rng = random.Random(12)
        for _ in range(25):
            space = random_space(rng, F3)
            v = random_vec(rng, F3)
            w = random_vec(rng, F3)
            assert b_value(space, v, v) == 2 * space.h_value(v)
            assert b_value(space, v, w) == space.h_value(vec_add(v, w)) - \
                space.h_value(v) - space.h_value(w)

    def test_hermitian_symmetry_and_linearity(self):
        rng = random.Random(13)
        for _ in range(25):
            space = random_space(rng, F7)
            v = random_vec(rng, F7)
            w = random_vec(rng, F7)
            l = F7.elem(rng.randint(-3, 3), rng.randint(-3, 3))
            assert space.s_value(v, w) == space.s_value(w, v).conj()
            assert space.s_value(vec_scale(l, v), w) == l * space.s_value(v, w)
            assert space.h_value(vec_scale(l, v)) == l.norm() * space.h_value(v)


class TestLattices:
    def test_standard_lattice(self):
        lat = Lattice.standard(F7)
        assert lat.contains(vec(F7, 1, 0))
        assert lat.contains((F7.omega(), F7.omega()))
        assert not lat.contains(vec(F7, Fraction(1, 2), 0))

    def test_b_basis_standard(self):
        lat = lattice_from_B_basis(vec(F7, 1, 0), vec(F7, 0, 1))
        assert lat == Lattice.standard(F7)

    def test_b_basis_with_translation(self):
        gamma = F7.elem(2, -1)
        lat = lattice_from_B_basis(vec(F7, 1, 0), (gamma, F7.one()))
        assert lat == Lattice.standard(F7)  # index-1 change of basis

    def test_scaled_sublattice_index(self):
        std = Lattice.standard(F7)
        sub = lattice_from_B_basis(vec(F7, 5, 0), vec(F7, 0, 1))
        assert std.index_of_sublattice(sub) == 25

    def test_dependent_basis_rejected(self):
        with pytest.raises(RankError):
            lattice_from_B_basis(vec(F7, 1, 0), vec(F7, 2, 0))

    def test_equality_matches_hnf_reference(self):
        rng = random.Random(19)
        lattices = [lattice for _, lattice in random_b_stable_pairs(19, 48)]
        for a, b in zip(lattices, lattices[8:]):  # same field, 8 apart
            assert (a == b) == fraction_reference.lattice_equal(a, b)
        for a in lattices:
            # the same lattice on a unimodular change of basis
            v = list(a.basis)
            for _ in range(6):
                i, j = rng.sample(range(4), 2)
                v[i] = vec_add(v[i], vec_scale(rng.choice((-2, -1, 1, 2)), v[j]))
            rebased = Lattice(a.field, v)
            assert rebased == a and a == rebased
            assert fraction_reference.lattice_equal(a, rebased)

    def test_proper_sub_and_superlattice_unequal(self):
        # omega*B + B has index n(omega) = 2 in B^2 for d = -7
        std = Lattice.standard(F7)
        sub = lattice_from_B_basis(vec(F7, F7.omega(), 0), vec(F7, 0, 1))
        assert std.index_of_sublattice(sub) == 2
        assert sub != std and std != sub
        assert not fraction_reference.lattice_equal(std, sub)
        assert Lattice.standard(F7) != Lattice.standard(F3)

    def test_non_stable_rejected(self):
        # Z-span of (e1, e2/?) that is not an omega-module
        basis = (
            vec(F7, 1, 0),
            vec(F7, F7.elem(0, 2), 0),  # 2*omega*e1 only
            vec(F7, 0, 1),
            vec(F7, 0, F7.omega()),
        )
        with pytest.raises(BStabilityError):
            Lattice(F7, basis)


class TestLatticeIntegerKernel:
    """Coordinates, membership and the omega matrix from integer numerators,
    against the Fraction inverse of the coordinate rows."""

    def test_matches_fraction_inverse(self):
        rng = random.Random(16)
        for _, lattice in random_b_stable_pairs(16, 60):
            field = lattice.field
            inv = mat_inverse(coord_rows(lattice))
            omega = field.omega()
            assert lattice.omega_rows() == [
                linalg.vec_mat(vec_coords(vec_scale(omega, v)), inv) for v in lattice.basis
            ]
            for _ in range(5):
                x = vec(
                    field,
                    field.elem(Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3))),
                               Fraction(rng.randint(-6, 6), rng.choice((1, 2)))),
                    field.elem(rng.randint(-6, 6), Fraction(rng.randint(-6, 6), rng.choice((1, 3)))),
                )
                coords = linalg.vec_mat(vec_coords(x), inv)
                c, q = lattice._coord_numerators(x)
                assert [Fraction(t, q) for t in c] == coords
                assert lattice.contains(x) == all(c.denominator == 1 for c in coords)
                c = [rng.randint(-4, 4) for _ in range(4)]
                assert lattice.contains(lattice.from_integer_coords(c))
                assert linalg.vec_mat(vec_coords(lattice.from_integer_coords(c)), inv) == c

    def test_index_matches_fraction_determinants(self):
        rng = random.Random(17)
        std = Lattice.standard(F7)
        for _ in range(20):
            v1, v2 = (
                vec(F7, *(F7.elem(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(2)))
                for _ in range(2)
            )
            if v1[0] * v2[1] - v1[1] * v2[0] == 0:
                continue
            sub = lattice_from_B_basis(v1, v2)
            index = std.index_of_sublattice(sub)
            assert index == abs(mat_det(coord_rows(sub)) / mat_det(coord_rows(std)))
            if index > 1:
                with pytest.raises(MembershipError):
                    sub.index_of_sublattice(std)


class TestIntegrality:
    def test_standard_examples(self):
        std = Lattice.standard(F7)
        assert is_integral(HermSpace(F7, 1, -1, F7.zero()), std)
        assert not is_integral(HermSpace(F7, Fraction(1, 2), 1, F7.zero()), std)

    def test_inverse_different_gamma(self):
        # gamma = 1/sqrt(d): all b-values integral although gamma is not
        gamma = F7.inverse_sqrt_d()
        assert not is_integral_elem(gamma)
        space = HermSpace(F7, 0, 0, gamma)
        std = Lattice.standard(F7)
        assert is_integral(space, std)
        b = space_basis(F7)
        assert b_value(space, b[0], b[2]) == 0
        assert b_value(space, b[0], b[3]).denominator == 1
        assert b_value(space, b[1], b[2]).denominator == 1


def _frac_gcd(a, b):
    from math import gcd

    if a == 0:
        return abs(Fraction(b))
    if b == 0:
        return abs(Fraction(a))
    a, b = abs(Fraction(a)), abs(Fraction(b))
    return Fraction(
        gcd(a.numerator * b.denominator, b.numerator * a.denominator),
        a.denominator * b.denominator,
    )


def _pair_ideal_oracle(space, lattice, height=1):
    """The definitional ideal: gcd of det(s(v, w)) over pairs from a box.

    det(v, w) = h(v)h(w) - n(s(v, w)) is symmetric, since s(w, v) is the
    conjugate of s(v, w), so the pairs i <= j give the same gcd.
    """
    import itertools

    coeffs = [
        c for c in itertools.product(range(-height, height + 1), repeat=4) if any(c)
    ]
    vectors = [lattice.from_integer_coords(c) for c in coeffs]
    hs = [space.h_value(v) for v in vectors]
    g = Fraction(0)
    for i, v in enumerate(vectors):
        for j in range(i, len(vectors)):
            det = hs[i] * hs[j] - space.s_value(v, vectors[j]).norm()
            g = _frac_gcd(g, det)
    return g


class TestDetForm:
    def test_definitional_ideal_oracle(self):
        # the integer-Gram det_form and the free-pair reference must both
        # reproduce the ideal generated by det(s(v_i, v_j)) over all pairs
        rng = random.Random(5)
        std = Lattice.standard(F7)
        inv = F7.inverse_sqrt_d()
        checked = 0
        while checked < 6:
            space = HermSpace(
                F7,
                rng.randint(-2, 2),
                rng.randint(-2, 2),
                F7.elem(rng.randint(-2, 2), rng.randint(-2, 2)) * inv,
            )
            if not space.is_nondegenerate():
                continue
            assert det_form(space, std) == fraction_reference.det_form(space, std)
            assert det_form(space, std).as_ideal == _pair_ideal_oracle(space, std)
            checked += 1
        sub = lattice_from_B_basis(vec(F7, 2, 0), vec(F7, 0, 1))
        split = HermSpace(F7, 1, -1, F7.zero())
        assert det_form(split, sub) == fraction_reference.det_form(split, sub)
        assert det_form(split, sub).as_ideal == _pair_ideal_oracle(split, sub) == 4

    def test_choice_independent(self):
        # the free-pair reference from each of the four starting pairs and
        # det_form from the integer Gram agree, integral forms or not
        rng = random.Random(31)
        std = Lattice.standard(F7)
        cases = [(random_space(rng, F7), std) for _ in range(20)]
        cases += list(random_b_stable_pairs(31, 160))
        non_integral = 0
        for space, lattice in cases:
            if not space.is_nondegenerate():
                continue
            non_integral += not is_integral(space, lattice)
            values = {fraction_reference.det_form(space, lattice, k).value for k in range(4)}
            assert values == {det_form(space, lattice).value}
        assert non_integral >= 50

    def test_index_scaling(self):
        space = HermSpace(F7, 1, -1, F7.zero())
        std = Lattice.standard(F7)
        base = det_form(space, std).value
        for k in (2, 3, 5):
            sub = lattice_from_B_basis(vec(F7, k, 0), vec(F7, 0, 1))
            index = std.index_of_sublattice(sub)
            assert det_form(space, sub).value == base * index
            assert index == k * k

    def test_degenerate_rejected(self):
        space = HermSpace(F7, 0, 0, F7.zero())
        with pytest.raises(DegenerateFormError):
            det_form(space, Lattice.standard(F7))


class TestDiscriminant:
    def test_frozen_split_and_definite(self):
        std = Lattice.standard(F7)
        assert discriminant_form(HermSpace(F7, 1, -1, F7.zero()), std).value == 7
        assert discriminant_form(HermSpace(F7, 1, 1, F7.zero()), std).value == -7

    def test_negative_definite_sign(self):
        # sign of d is the sign of det(s(v_i, v_j)): positive for definite
        std = Lattice.standard(F7)
        dv = det_form(HermSpace(F7, -1, -1, F7.zero()), std)
        assert dv.value == 1
        assert discriminant_form(HermSpace(F7, -1, -1, F7.zero()), std).value == -7

    def test_requires_integrality(self):
        space = HermSpace(F7, Fraction(1, 3), 1, F7.zero())
        with pytest.raises(NotIntegralError):
            discriminant_form(space, Lattice.standard(F7))

    def test_integrality_of_result(self):
        # every integral form in a small window has an integer discriminant
        rng = random.Random(6)
        std = Lattice.standard(F3)
        inv = F3.inverse_sqrt_d()
        for _ in range(60):
            space = HermSpace(
                F3,
                rng.randint(-4, 4),
                rng.randint(-4, 4),
                F3.elem(rng.randint(-4, 4), rng.randint(-4, 4)) * inv,
            )
            if not space.is_nondegenerate():
                continue
            assert is_integral(space, std)
            value = discriminant_form(space, std).value
            assert value.denominator == 1


class TestDefiniteness:
    def test_trivials(self):
        assert HermSpace(F7, 1, 1, F7.zero()).definiteness() is Definiteness.POSITIVE_DEFINITE
        assert HermSpace(F7, 1, -1, F7.zero()).definiteness() is Definiteness.INDEFINITE
        assert HermSpace(F7, -1, -1, F7.zero()).definiteness() is Definiteness.NEGATIVE_DEFINITE
        assert HermSpace(F7, 1, 0, F7.zero()).definiteness() is Definiteness.DEGENERATE

    def test_gram_on_basis_matches_gram4(self):
        # the closed-form gram4 against h- and b-values of the basis vectors
        space = HermSpace(F7, 2, -3, F7.elem(1, 1))
        std = Lattice.standard(F7)
        assert gram_on_basis(space, std.basis) == space.gram4()
        rng = random.Random(12)
        for d in CLOSED_FORM_FIELDS:
            field = QuadField(d)
            for _ in range(25):
                space = random_space(rng, field)
                assert space.gram4() == gram_on_basis(space, space_basis(field))

    def test_matches_fraction_rule(self):
        rng = random.Random(20)
        for k in range(500):
            field = QuadField(CLOSED_FORM_FIELDS[k % len(CLOSED_FORM_FIELDS)])
            space = random_space(rng, field, height=3)
            if k % 3 == 0:  # degenerate: alpha*beta = n(gamma)
                alpha = space.alpha
                if alpha:
                    space = HermSpace(field, alpha, space.gamma.norm() / alpha, space.gamma)
                else:
                    space = HermSpace(field, 0, space.beta, field.zero())
            expected = fraction_reference.definiteness(space)
            assert space.definiteness() is expected
            assert space.is_nondegenerate() == (expected is not Definiteness.DEGENERATE)

    def test_sylvester_matches_signature(self):
        rng = random.Random(13)
        names = {(4, 0): Definiteness.POSITIVE_DEFINITE, (0, 4): Definiteness.NEGATIVE_DEFINITE}
        for d in CLOSED_FORM_FIELDS:
            field = QuadField(d)
            for _ in range(25):
                space = random_space(rng, field, height=2)
                gram, _ = linalg.scaled_integer_matrix(space.gram4())
                pos, neg, zero = linalg.int_signature(gram)
                if zero:
                    expected = Definiteness.DEGENERATE
                else:
                    expected = names.get((pos, neg), Definiteness.INDEFINITE)
                assert space.definiteness() is expected


class TestIntegralForm:
    def test_invariants_match_reference_paths(self):
        # Delta against the free-pair reference, definiteness against the
        # signature of gram4, the Gram against h- and b-values
        integral = 0
        for space, lattice in random_b_stable_pairs(14, 320):
            if not space.is_nondegenerate() or not is_integral(space, lattice):
                continue
            integral += 1
            form = IntegralForm(space, lattice)
            reference = fraction_reference.det_form(space, lattice)
            assert form.delta.value == space.field.D * reference.value
            assert discriminant_form(space, lattice) == form.delta
            gram, _ = linalg.scaled_integer_matrix(space.gram4())
            pos, neg, _ = linalg.int_signature(gram)
            indefinite = (pos, neg) == (2, 2)
            assert (form.definiteness is Definiteness.INDEFINITE) == indefinite
            assert form.definiteness is space.definiteness()
            gram = gram_on_basis(space, lattice.basis)
            assert form.w == [[int(2 * x) for x in row] for row in gram]
        assert integral >= 100

    def test_rejects_what_is_integral_rejects(self):
        rejected = 0
        for space, lattice in random_b_stable_pairs(15, 320):
            if not space.is_nondegenerate():
                continue
            if is_integral(space, lattice):
                IntegralForm(space, lattice)
                continue
            rejected += 1
            with pytest.raises(NotIntegralError):
                IntegralForm(space, lattice)
        assert rejected >= 50

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateFormError):
            IntegralForm(HermSpace(F7, 1, 0, F7.zero()), Lattice.standard(F7))

    def test_space_keeps_one_record_per_lattice(self):
        space = HermSpace(F7, 1, -1, F7.zero())
        std = Lattice.standard(F7)
        form = space.integral_form(std)
        assert space.integral_form(std) is form
        other = Lattice.standard(F7)
        assert space.integral_form(other) is not form
        assert space.integral_form(other).w == form.w

    def test_each_call_gets_its_own_lattice_record(self):
        # a second caller of the same space (another thread) runs between
        # the store and the return of a first call: each call still
        # returns the record of the lattice it asked for
        space = HermSpace(F7, 1, -1, F7.zero())
        std = Lattice.standard(F7)
        sub = lattice_from_B_basis(vec(F7, 2, 0), vec(F7, 0, 1))
        code = HermSpace.integral_form.__code__
        return_line = max(line for *_, line in code.co_lines() if line is not None)
        inner = []

        def local(frame, event, arg):
            if event == "line" and frame.f_lineno == return_line and not inner:
                inner.append(space.integral_form(sub))
            return local

        previous = sys.gettrace()
        sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
        try:
            outer = space.integral_form(std)
        finally:
            sys.settrace(previous)
        assert inner[0].lattice is sub and inner[0].delta.value == 28
        assert outer.lattice is std and outer.delta.value == 7

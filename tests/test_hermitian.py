import random
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
    is_integral,
    lattice_from_B_basis,
    polarize,
    polarize_independence_check,
    sesquilinear_from_gram,
    space_basis,
    vec,
    vec_add,
    vec_scale,
)
from hermquat.errors import (
    BStabilityError,
    DegenerateFormError,
    InputError,
    NotHermitianError,
    NotIntegralError,
    RankError,
)
from hermquat import linalg
from hermquat.hermitian import gram_on_basis
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
            assert space.b_value(v, v) == 2 * space.h_value(v)
            assert space.b_value(v, w) == space.h_value(vec_add(v, w)) - \
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


class TestIntegrality:
    def test_standard_examples(self):
        std = Lattice.standard(F7)
        assert is_integral(HermSpace(F7, 1, -1, F7.zero()), std)
        assert not is_integral(HermSpace(F7, Fraction(1, 2), 1, F7.zero()), std)

    def test_inverse_different_gamma(self):
        # gamma = 1/sqrt(d): all b-values integral although gamma is not
        gamma = F7.inverse_sqrt_d()
        assert not gamma.is_integral()
        space = HermSpace(F7, 0, 0, gamma)
        std = Lattice.standard(F7)
        assert is_integral(space, std)
        b = space_basis(F7)
        assert space.b_value(b[0], b[2]) == 0
        assert space.b_value(b[0], b[3]).denominator == 1
        assert space.b_value(b[1], b[2]).denominator == 1


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
    """The definitional ideal: gcd of det(s(v, w)) over pairs from a box."""
    import itertools

    coeffs = [
        c for c in itertools.product(range(-height, height + 1), repeat=4) if any(c)
    ]
    vectors = [lattice.from_integer_coords(c) for c in coeffs]
    g = Fraction(0)
    for v in vectors:
        for w in vectors:
            det = space.h_value(v) * space.h_value(w) - space.s_value(v, w).norm()
            g = _frac_gcd(g, det)
    return g


class TestDetForm:
    def test_definitional_ideal_oracle(self):
        # the free-sublattice-plus-index computation must reproduce the
        # ideal generated by det(s(v_i, v_j)) over all pairs
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
            assert det_form(space, std).as_ideal == _pair_ideal_oracle(space, std)
            checked += 1
        sub = lattice_from_B_basis(vec(F7, 2, 0), vec(F7, 0, 1))
        split = HermSpace(F7, 1, -1, F7.zero())
        assert det_form(split, sub).as_ideal == _pair_ideal_oracle(split, sub) == 4

    def test_choice_independent(self):
        rng = random.Random(31)
        std = Lattice.standard(F7)
        for _ in range(20):
            space = random_space(rng, F7)
            if not space.is_nondegenerate():
                continue
            values = {det_form(space, std, start=k).value for k in range(4)}
            assert len(values) == 1

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

    def test_sylvester_matches_signature(self):
        rng = random.Random(13)
        names = {(4, 0): Definiteness.POSITIVE_DEFINITE, (0, 4): Definiteness.NEGATIVE_DEFINITE}
        for d in CLOSED_FORM_FIELDS:
            field = QuadField(d)
            for _ in range(25):
                space = random_space(rng, field, height=2)
                pos, neg, zero = linalg.signature(space.gram4())
                if zero:
                    expected = Definiteness.DEGENERATE
                else:
                    expected = names.get((pos, neg), Definiteness.INDEFINITE)
                assert space.definiteness() is expected


class TestIntegralForm:
    def test_invariants_match_reference_paths(self):
        # Delta against the free-pair path, definiteness against the
        # signature of gram4, the Gram against h- and b-values
        integral = 0
        for space, lattice in random_b_stable_pairs(14, 320):
            if not space.is_nondegenerate() or not is_integral(space, lattice):
                continue
            integral += 1
            form = IntegralForm(space, lattice)
            assert form.delta == discriminant_form(space, lattice)
            pos, neg, _ = linalg.signature(space.gram4())
            indefinite = (pos, neg) == (2, 2)
            assert (form.definiteness is Definiteness.INDEFINITE) == indefinite
            assert form.definiteness is space.definiteness()
            gram = gram_on_basis(space, lattice.basis)
            assert form.gram == gram
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

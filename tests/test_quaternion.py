import random
from fractions import Fraction

import pytest

from hermquat import (
    Definiteness,
    HermSpace,
    Lattice,
    QuadField,
    QuatAlgebra,
    algebra_table,
    build_algebra,
    build_order,
    change_point,
    det_form,
    discr_relation_check,
    discriminant_form,
    is_optimal,
    lattice_disc,
    line_lattice_intersection,
    order_to_pointed,
    vec,
    vec_add,
    vec_scale,
    vec_sub,
)
from hermquat import linalg
from hermquat.errors import (
    DegenerateFormError,
    InputError,
    MembershipError,
)

F7 = QuadField(-7)
F3 = QuadField(-3)


from tests_fixtures import hurwitz_order, m2z_order


def std_basis():
    return [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]


class TestAlgebraTable:
    def test_generic_table_is_associative(self):
        rng = random.Random(2)
        for _ in range(15):
            a = rng.randint(-4, 4)
            b = rng.randint(-6, 6)
            theta = Fraction(rng.randint(-5, 5), rng.choice((1, 2)))
            if theta == 0 or (a * a - 4 * b) >= 0:
                continue
            alg = QuatAlgebra(None, algebra_table(a, b, theta))
            assert alg.associativity_failures() == []
            assert alg.is_identity(alg.one)

    def test_trace_matrix_determinant(self):
        # det of the trace pairing on (1, pi, u, pi*u) is -(a^2-4b)^2 theta^2
        rng = random.Random(8)
        checked = 0
        while checked < 20:
            a = rng.randint(-5, 5)
            b = rng.randint(-6, 6)
            theta = Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))
            disc = a * a - 4 * b
            if theta == 0 or linalg.mat_det([[1]]) is None:
                continue
            # irreducible over Q: disc not a perfect square (includes negatives)
            from math import isqrt

            if disc >= 0 and isqrt(disc) ** 2 == disc:
                continue
            alg = QuatAlgebra(None, algebra_table(a, b, theta))
            basis = std_basis()
            tr = [
                [alg.reduced_trace(alg.mul(basis[i], basis[j])) for j in range(4)]
                for i in range(4)
            ]
            # independent dense determinant oracle over Fractions
            assert linalg.mat_det(tr) == -Fraction(disc) ** 2 * theta**2
            checked += 1


class TestBuildAlgebra:
    def test_split_form(self):
        space = HermSpace(F7, 1, -1, F7.zero())
        alg = build_algebra(space, vec(F7, 1, 0))
        assert alg.theta == 1
        u = [Fraction(0), Fraction(0), Fraction(1), Fraction(0)]
        assert alg.mul(u, u) == alg.scalar(1)

    def test_definite_form(self):
        space = HermSpace(F7, 1, 1, F7.zero())
        alg = build_algebra(space, vec(F7, 1, 0))
        assert alg.theta == -1

    def test_point_requirements(self):
        space = HermSpace(F7, 1, -1, F7.zero())
        with pytest.raises(InputError):
            build_algebra(space, vec(F7, 2, 0))
        with pytest.raises(DegenerateFormError):
            build_algebra(HermSpace(F7, 1, 0, F7.zero()), vec(F7, 1, 0))

    def test_norm_form_equals_h(self):
        rng = random.Random(21)
        for _ in range(10):
            while True:
                space = HermSpace(
                    F3,
                    rng.randint(-4, 4),
                    rng.randint(-4, 4),
                    F3.elem(rng.randint(-3, 3), rng.randint(-3, 3)),
                )
                v = vec(F3, F3.elem(rng.randint(-2, 2), rng.randint(-2, 2)),
                        F3.elem(rng.randint(-2, 2), rng.randint(-2, 2)))
                c = space.h_value(v)
                if c != 0 and space.is_nondegenerate():
                    break
            space = space.scale(Fraction(1) / c)
            alg = build_algebra(space, v)
            for _ in range(20):
                x = [Fraction(rng.randint(-3, 3)) for _ in range(4)]
                assert alg.reduced_norm(x) == space.h_value(alg.to_space(x))

    def test_norm_multiplicative_and_conj(self):
        space = HermSpace(F7, 1, -2, F7.elem(1, 0))
        alg = build_algebra(space, vec(F7, 1, 0))
        rng = random.Random(3)
        for _ in range(50):
            x = [Fraction(rng.randint(-4, 4)) for _ in range(4)]
            y = [Fraction(rng.randint(-4, 4)) for _ in range(4)]
            assert alg.reduced_norm(alg.mul(x, y)) == alg.reduced_norm(x) * alg.reduced_norm(y)
            assert alg.reduced_trace(alg.conj(x)) == alg.reduced_trace(x)
            assert alg.mul(x, alg.conj(x)) == alg.scalar(alg.reduced_norm(x))

    def test_reduced_ops_frozen(self):
        space = HermSpace(F7, 1, -3, F7.zero())
        alg = build_algebra(space, vec(F7, 1, 0))
        one = alg.one
        u = [Fraction(0), Fraction(0), Fraction(1), Fraction(0)]
        assert alg.reduced_norm(one) == 1
        assert alg.reduced_trace(one) == 2
        assert alg.reduced_norm(u) == -alg.theta
        # n(x + y*u) = n_L(x) - theta*n_L(y)
        x = F7.elem(2, -1)
        y = F7.elem(1, 3)
        coords = [x.a, x.b, y.a, y.b]
        assert alg.reduced_norm(coords) == x.norm() - alg.theta * y.norm()


class TestCanonicalClosedForms:
    def _pairs(self):
        # a canonical algebra and the same table without its theta
        rng = random.Random(17)
        for d in (-1, -2, -3, -7, -15):
            field = QuadField(d)
            for _ in range(4):
                theta = Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.choice((1, 2, 3)))
                alg = QuatAlgebra.canonical(field, theta)
                yield alg, QuatAlgebra(field, alg.table)

    def test_norm_gram_matches_reduced_norm(self):
        for alg, generic in self._pairs():
            assert generic.theta is None
            assert alg.norm_gram() == generic.norm_gram()

    def test_disc_sign_is_sign_of_theta(self):
        # n(x) - theta*n(y) is indefinite exactly when theta > 0
        rows = std_basis()
        for alg, generic in self._pairs():
            assert lattice_disc(alg, rows) == lattice_disc(generic, rows)
            assert (lattice_disc(alg, rows).value > 0) == (alg.theta > 0)

    def test_theta_only_from_canonical(self):
        with pytest.raises(TypeError):
            QuatAlgebra(F7, algebra_table(1, 2, 3), theta=3)


class TestBuildOrder:
    def test_closure_and_products(self):
        space = HermSpace(F7, 1, -1, F7.zero())
        std = Lattice.standard(F7)
        order, emb = build_order(space, std, vec(F7, 1, 0))
        for i in range(4):
            for j in range(4):
                assert all(isinstance(c, int) for c in order.products[i][j])
        assert emb.omega_image is not None
        assert is_optimal(emb)

    def test_free_lattice_identities(self):
        # w.w = (theta - n(gamma)) v + tr(gamma) w with integral coefficients
        rng = random.Random(14)
        std = Lattice.standard(F7)
        inv = F7.inverse_sqrt_d()
        count = 0
        while count < 10:
            space = HermSpace(
                F7,
                rng.randint(-3, 3),
                rng.randint(-3, 3),
                F7.elem(rng.randint(-3, 3), rng.randint(-3, 3)) * inv,
            )
            v = vec(F7, 1, 0)
            if not space.is_nondegenerate() or space.h_value(v) != 1:
                continue
            w = vec(F7, F7.elem(rng.randint(-2, 2), rng.randint(-2, 2)), F7.one())
            gamma = space.s_value(w, v)
            u_w = vec_sub(w, vec_scale(gamma, v))
            theta_w = -space.h_value(u_w)
            alg = build_algebra(space, v)
            ww = alg.mul(alg.from_space(w), alg.from_space(w))
            expected = [
                (theta_w - gamma.norm()) * cv + gamma.trace() * cw
                for cv, cw in zip(alg.from_space(v), alg.from_space(w))
            ]
            assert ww == expected
            assert theta_w - gamma.norm() == -space.h_value(w)
            assert gamma.trace() == space.h_value(vec_add(v, w)) - space.h_value(v) - space.h_value(w)
            count += 1
        _ = std

    def test_preconditions(self):
        space = HermSpace(F7, 1, -1, F7.zero())
        std = Lattice.standard(F7)
        with pytest.raises(MembershipError):
            build_order(space, std, vec(F7, Fraction(1, 2), 0))


class TestRoundTrips:
    def test_canonical_round_trip(self):
        space = HermSpace(F7, 1, -1, F7.zero())
        std = Lattice.standard(F7)
        point = vec(F7, 1, 0)
        order, emb = build_order(space, std, point)
        pointed = order_to_pointed(order, emb)
        assert pointed.space == space
        assert pointed.lattice == std
        assert pointed.point == point
        rebuilt, _ = build_order(pointed.space, pointed.lattice, pointed.point)
        assert rebuilt.algebra.table == order.algebra.table
        assert rebuilt.zbasis == order.zbasis

    def test_frame_transports_multiplication(self):
        # the identification frame carries the rebuilt table onto the original
        order, emb = m2z_order()
        pointed = order_to_pointed(order, emb)
        rebuilt, _ = build_order(pointed.space, pointed.lattice, pointed.point)
        frame = pointed.frame
        basis = std_basis()
        for i in range(4):
            for j in range(4):
                transported = linalg.vec_mat(
                    rebuilt.algebra.mul(basis[i], basis[j]), frame
                )
                direct = order.algebra.mul(frame[i], frame[j])
                assert transported == direct


class TestM2Z:
    def test_embedding_minimal_polynomial(self):
        order, emb = m2z_order()
        w = emb.omega_alg()
        # oracle: 2x2 matrix arithmetic for [[0,-1],[1,1]]
        assert order.algebra.reduced_trace(w) == 1
        assert order.algebra.reduced_norm(w) == 1

    def test_reduced_ops_match_matrix_oracle(self):
        order, _ = m2z_order()
        alg = order.algebra
        rng = random.Random(19)
        for _ in range(30):
            a, b, c, d = (rng.randint(-5, 5) for _ in range(4))
            x = [Fraction(a), Fraction(b), Fraction(c), Fraction(d)]
            assert alg.reduced_trace(x) == a + d
            assert alg.reduced_norm(x) == a * d - b * c

    def test_discriminants_are_one(self):
        order, emb = m2z_order()
        assert order.discriminant().value == 1
        pointed = order_to_pointed(order, emb)
        assert det_form(pointed.space, pointed.lattice).value == Fraction(-1, 3)
        assert discriminant_form(pointed.space, pointed.lattice).value == 1

    def test_trace_pairing_determinant(self):
        order, _ = m2z_order()
        alg = order.algebra
        basis = std_basis()
        tr = [
            [alg.reduced_trace(alg.mul(basis[i], basis[j])) for j in range(4)]
            for i in range(4)
        ]
        assert linalg.mat_det(tr) == -1

    def test_optimal(self):
        order, emb = m2z_order()
        assert is_optimal(emb)

    def test_relation(self):
        order, emb = m2z_order()
        lhs, rhs, equal = discr_relation_check(order, emb)
        assert equal and lhs.value == 1 and rhs.value == 1


class TestHurwitz:
    def test_discriminant(self):
        order, emb = hurwitz_order()
        assert order.discriminant().value == -2  # division algebra sign

    def test_pulled_back_form(self):
        order, emb = hurwitz_order()
        pointed = order_to_pointed(order, emb)
        assert det_form(pointed.space, pointed.lattice).value == Fraction(2, 3)
        assert discriminant_form(pointed.space, pointed.lattice).value == -2
        assert pointed.space.definiteness() is Definiteness.POSITIVE_DEFINITE

    def test_relation_and_optimality(self):
        order, emb = hurwitz_order()
        lhs, rhs, equal = discr_relation_check(order, emb)
        assert equal and lhs.value == -2
        assert is_optimal(emb)


class TestLatticeDisc:
    def test_b_plus_bu_model(self):
        # d(Lambda) = (D*theta)^2 for Lambda = B + B.u inside the canonical algebra
        for field, theta in ((F7, Fraction(3)), (F3, Fraction(-2)), (F7, Fraction(5, 1))):
            alg = QuatAlgebra.canonical(field, theta)
            dv = lattice_disc(alg, linalg.int_identity(4))
            assert dv.as_ideal == abs(Fraction(field.D) * theta)

    def test_superset_check(self):
        order, emb = m2z_order()
        inter = line_lattice_intersection(
            order, [order.algebra.one, emb.omega_alg()]
        )
        # i(B) is always contained in the intersection lattice
        den = linalg.common_denominator(inter)
        scaled, _ = linalg.scaled_integer_matrix(inter, den)
        for v in (order.algebra.one, emb.omega_alg()):
            target = [int(Fraction(x) * den) for x in v]
            h = linalg.hnf_basis(scaled + [target])
            assert h == linalg.hnf_basis(scaled)

    def test_non_optimal_detected(self):
        # the line through 2*i(omega) meets M2(Z) in more than Z + Z*(2 i(omega))
        order, emb = m2z_order()
        w2 = [2 * x for x in emb.omega_alg()]
        inter = line_lattice_intersection(order, [order.algebra.one, w2])
        assert not linalg.rational_span_equal(inter, [order.algebra.one, w2])


class TestDiscRelationRandom:
    def test_random_stable_lattices(self):
        from hermquat.verify import random_b_stable_lattice, random_pointed_space

        rng = random.Random(77)
        for _ in range(6):
            field = QuadField(rng.choice((-3, -7)))
            space, point = random_pointed_space(rng, field)
            alg = build_algebra(space, point)
            for _ in range(4):
                lat = random_b_stable_lattice(rng, field)
                rows = [alg.from_space(v) for v in lat.basis]
                lhs = lattice_disc(alg, rows)
                rhs = field.D * det_form(space, lat).value
                assert lhs.value == rhs


class TestChangePoint:
    def test_identity_on_same_point(self):
        space = HermSpace(F7, 1, -1, F7.zero())
        std = Lattice.standard(F7)
        v = vec(F7, 1, 0)
        iso = change_point(space, std, v, v)
        assert iso.matrix_q == linalg.identity_matrix(4)

    def test_split_form_isometry(self):
        # u = (omega, 1): h(u) = n(omega) - 1 = 1 over d = -7
        space = HermSpace(F7, 1, -1, F7.zero())
        std = Lattice.standard(F7)
        v = vec(F7, 1, 0)
        u = (F7.omega(), F7.one())
        assert space.h_value(u) == 1
        iso = change_point(space, std, v, u)
        assert iso.apply(v) == u
        rng = random.Random(1)
        for _ in range(20):
            x = (F7.elem(rng.randint(-3, 3), rng.randint(-3, 3)),
                 F7.elem(rng.randint(-3, 3), rng.randint(-3, 3)))
            assert space.h_value(iso.apply(x)) == space.h_value(x)

    def test_composition_fixes_origin(self):
        space = HermSpace(F7, 1, -1, F7.zero())
        std = Lattice.standard(F7)
        v = vec(F7, 1, 0)
        u = (F7.omega(), F7.one())
        fwd = change_point(space, std, v, u)
        back = change_point(space, std, u, v)
        comp = fwd.compose(back)
        assert comp.apply(v) == v  # an h-isometry fixing v, not necessarily id

    def test_rejects_bad_point(self):
        space = HermSpace(F7, 1, -1, F7.zero())
        std = Lattice.standard(F7)
        with pytest.raises(InputError):
            change_point(space, std, vec(F7, 1, 0), vec(F7, 2, 0))

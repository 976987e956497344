import random
from fractions import Fraction

import pytest

from hermquat import (
    Definiteness,
    HermSpace,
    Lattice,
    QuadField,
    QuatAlgebra,
    QuatOrder,
    algebra_table,
    build_algebra,
    build_order,
    change_point,
    det_form,
    discr_relation_check,
    discriminant_form,
    global_search,
    is_integral,
    is_optimal,
    lattice_disc,
    line_lattice_intersection,
    order_to_pointed,
    vec,
    vec_add,
    vec_scale,
    vec_sub,
)
from hermquat import jsonio, linalg
from hermquat.errors import (
    ClosureError,
    DegenerateFormError,
    InputError,
    MembershipError,
    RankError,
)
from hermquat.verify import random_pointed_space

F7 = QuadField(-7)
F3 = QuadField(-3)


from tests_fixtures import (
    CLOSED_FORM_FIELDS,
    hurwitz_order,
    m2z_order,
    random_b_stable_pairs,
)


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


# ---------------------------------------------------------------------------
# The integer kernel against the Fraction reference


def _built_orders(seed, count):
    """Orders built from integral pointed lattices over the eight fields."""
    for space, lattice in random_b_stable_pairs(seed, count):
        if not space.is_nondegenerate() or not is_integral(space, lattice):
            continue
        point = global_search(space, lattice, 2)
        if point is not None:
            yield build_order(space, lattice, point)[0]


def _random_unimodular(rng):
    u = linalg.int_identity(4)
    for _ in range(6):
        i, j = rng.sample(range(4), 2)
        c = rng.choice((-2, -1, 1, 2))
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]
    return u


def _random_invertible(rng):
    while True:
        m = [[Fraction(rng.randint(-2, 2), rng.choice((1, 1, 2))) for _ in range(4)]
             for _ in range(4)]
        if linalg.mat_det(m) != 0:
            return m


def _reparsed(rng, order):
    """The order through parse_order, in random bases of the algebra and of Z^4.

    With e'_i = sum_k m[i][k] e_k the products e'_i e'_j are the rows of
    m . L_i . m^-1, where row l of L_i is e'_i e_l in old coordinates.
    """
    alg = order.algebra
    m = _random_invertible(rng)
    m_inv = linalg.mat_inverse(m)
    table = []
    for i in range(4):
        left = [linalg.vec_mat(m[i], [alg.table[k][l] for k in range(4)]) for l in range(4)]
        table.append(linalg.mat_mul(linalg.mat_mul(m, left), m_inv))
    u = _random_unimodular(rng)
    obj = {
        "d": alg.field.d,
        "mult_table": [[[jsonio.rat_str(x) for x in e] for e in row] for row in table],
        "zbasis": [[jsonio.rat_str(x) for x in row]
                   for row in linalg.mat_mul(linalg.mat_mul(u, order.zbasis), m_inv)],
        "one": [jsonio.rat_str(x)
                for x in linalg.vec_mat(order.one_coords, linalg.mat_inverse(u))],
    }
    parsed, _ = jsonio.parse_order(obj)
    assert parsed.algebra.theta is None
    return parsed


def _reference_products(alg, zbasis):
    zinv = linalg.mat_inverse(zbasis)
    return [[linalg.vec_mat(alg.mul(zbasis[i], zbasis[j]), zinv) for j in range(4)]
            for i in range(4)]


def _reference_trace_det(alg, rows):
    tr = [[alg.reduced_trace(alg.mul(x, y)) for y in rows] for x in rows]
    return linalg.mat_det(tr)


class TestIntegerKernel:
    def test_products_match_fraction_reference(self):
        rng = random.Random(41)
        built = 0
        for order in _built_orders(42, 160):
            built += 1
            for o in (order, _reparsed(rng, order)):
                assert o.products == _reference_products(o.algebra, o.zbasis)
                assert all(type(c) is int for row in o.products for p in row for c in p)
        assert built >= 30
        for order, _ in (m2z_order(), hurwitz_order()):
            for o in (order, _reparsed(rng, order), _reparsed(rng, order)):
                assert o.products == _reference_products(o.algebra, o.zbasis)

    def test_not_closed_fails_at_reference_pair(self):
        # lattices that contain 1: the first non-integral reference product
        # names the pair in the ClosureError
        rng = random.Random(43)
        failed = 0
        for k in range(40):
            field = QuadField(CLOSED_FORM_FIELDS[k % len(CLOSED_FORM_FIELDS)])
            # an integral theta makes B + B.u an order to reparse
            alg = QuatAlgebra.canonical(field, rng.choice((-5, -3, 2, 7)))
            if k % 2:
                alg = _reparsed(rng, QuatOrder(alg, linalg.int_identity(4))).algebra
            while True:
                rows = [alg.one] + [
                    [Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(4)]
                    for _ in range(3)
                ]
                if linalg.mat_det(rows) != 0:
                    break
            zbasis = linalg.mat_mul(_random_unimodular(rng), rows)
            ref = _reference_products(alg, zbasis)
            bad = next(
                ((i, j) for i in range(4) for j in range(4)
                 if not linalg.is_integral_vector(ref[i][j])),
                None,
            )
            if bad is None:
                QuatOrder(alg, zbasis)
                continue
            failed += 1
            with pytest.raises(ClosureError) as exc:
                QuatOrder(alg, zbasis)
            assert str(exc.value) == (
                f"product of basis vectors {bad[0]} and {bad[1]} leaves the lattice"
            )
        assert failed >= 30

    def test_lattice_disc_matches_trace_pairing(self):
        rng = random.Random(44)
        algebras = [QuatAlgebra.canonical(QuadField(d), Fraction(rng.choice((-7, -2, 3, 5)), rng.choice((1, 2))))
                    for d in CLOSED_FORM_FIELDS]
        algebras += [m2z_order()[0].algebra, hurwitz_order()[0].algebra]
        algebras += [
            _reparsed(rng, QuatOrder(QuatAlgebra.canonical(QuadField(d), theta),
                                     linalg.int_identity(4))).algebra
            for d, theta in ((-1, 3), (-3, 2), (-7, -5), (-15, -1))
        ]
        for alg in algebras:
            for _ in range(5):
                rows = _random_invertible(rng)
                dv = lattice_disc(alg, rows)
                assert dv.value**2 == -_reference_trace_det(alg, rows)
                assert dv == lattice_disc(alg, linalg.mat_mul(_random_unimodular(rng), rows))

    def test_rank_errors_kept(self):
        alg = QuatAlgebra.canonical(F7, 3)
        rows = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, 1, 1, 0]]
        with pytest.raises(RankError, match="order basis must be 4 independent vectors"):
            QuatOrder(alg, rows)
        with pytest.raises(RankError, match="lattice must have full rank"):
            lattice_disc(alg, rows)

    def test_closed_form_frame_inverse(self):
        rng = random.Random(45)
        for k in range(24):
            field = QuadField(CLOSED_FORM_FIELDS[k % len(CLOSED_FORM_FIELDS)])
            space, point = random_pointed_space(rng, field)
            alg = build_algebra(space, point)
            assert linalg.mat_mul(alg.frame, alg._frame_inv) == linalg.identity_matrix(4)
            for _ in range(5):
                x = [Fraction(rng.randint(-4, 4), rng.choice((1, 2, 5))) for _ in range(4)]
                assert alg.from_space(alg.to_space(x)) == x


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

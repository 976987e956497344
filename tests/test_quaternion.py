import contextlib
import fractions
import hashlib
import io
import random
import sys
from fractions import Fraction
from operator import mul
from types import SimpleNamespace

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form

from hermquat import (
    Definiteness,
    Embedding,
    HermSpace,
    Lattice,
    QuadField,
    QuatAlgebra,
    QuatOrder,
    build_algebra,
    build_order,
    det_form,
    discriminant_form,
    global_search,
    is_optimal,
    lattice_disc,
    order_to_pointed,
    vec_add,
    vec_scale,
)
from hermquat import jsonio, linalg, qfield
from hermquat.cli import main
from hermquat.errors import (
    ClosureError,
    DegenerateFormError,
    InputError,
    InvariantViolation,
    MembershipError,
    RankError,
)
from hermquat.hermitian import vec_coords, vec_from_coords
from hermquat.represent import VERDICT_REPRESENTED, represents_one_integral
from hermquat.sweep import surviving_forms
from hermquat.verify import random_integral_pointed_lattice, random_pointed_space

F7 = QuadField(-7)
F3 = QuadField(-3)


import fraction_reference
from fraction_reference import (
    algebra_table,
    conj,
    identity_matrix,
    is_integral,
    mat_det,
    mat_inverse,
    reduced_trace,
    reference_frame,
    table_associativity_failures,
    to_space,
    vec,
)
from tests_fixtures import (
    CLOSED_FORM_FIELDS,
    hamilton_table,
    hurwitz_order,
    m2z_order,
    matrix_units_table,
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

    def test_identity_must_be_two_sided(self):
        # e_i * e_j = e_j makes every e_i a left identity and none a right
        # one; e_i * e_j = e_i the other way round.  Both tables are
        # associative: (e_i e_j) e_k = e_i (e_j e_k) on the table itself.
        left = [[[int(k == j) for k in range(4)] for j in range(4)] for _ in range(4)]
        right = [[[int(k == i) for k in range(4)] for _ in range(4)] for i in range(4)]
        for table in (left, right):
            assert table_associativity_failures(table) == []
            with pytest.raises(InputError, match="two-sided identity"):
                QuatAlgebra(F7, table)
        # the integer test against products through mul, on a rational table
        alg = QuatAlgebra(F7, algebra_table(1, 2, Fraction(3, 2)))
        rng = random.Random(3)
        for e in [alg.one, [Fraction(1, 2)] + [0] * 3] + [
            [Fraction(rng.randint(-2, 2), rng.choice((1, 2))) for _ in range(4)]
            for _ in range(20)
        ]:
            expected = all(alg.mul(e, b) == b == alg.mul(b, e) for b in std_basis())
            assert alg.is_identity(e) == expected

    def test_associativity_failures_match_reference(self):
        # one corrupted entry at a time: the same triples, in the same order,
        # as the triple-by-triple reference
        for table, one in ((matrix_units_table(), [1, 0, 0, 1]), (hamilton_table(), None)):
            for a in range(4):
                for b in range(4):
                    alg = QuatAlgebra(F3, table, one=one)
                    alg._tn[a][b][(a + b) % 4] += 1
                    expected = table_associativity_failures(alg.table)
                    assert expected
                    assert alg.associativity_failures() == expected

    def test_trace_matrix_determinant(self):
        # det of the trace pairing on (1, pi, u, pi*u) is -(a^2-4b)^2 theta^2
        rng = random.Random(8)
        checked = 0
        while checked < 20:
            a = rng.randint(-5, 5)
            b = rng.randint(-6, 6)
            theta = Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))
            disc = a * a - 4 * b
            if theta == 0:
                continue
            # irreducible over Q: disc not a perfect square (includes negatives)
            from math import isqrt

            if disc >= 0 and isqrt(disc) ** 2 == disc:
                continue
            alg = QuatAlgebra(None, algebra_table(a, b, theta))
            basis = std_basis()
            tr = [
                [reduced_trace(alg, alg.mul(basis[i], basis[j])) for j in range(4)]
                for i in range(4)
            ]
            # independent dense determinant oracle over Fractions
            assert mat_det(tr) == -Fraction(disc) ** 2 * theta**2
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
                assert alg.reduced_norm(x) == space.h_value(to_space(alg, x))

    def test_norm_multiplicative_and_conj(self):
        space = HermSpace(F7, 1, -2, F7.elem(1, 0))
        alg = build_algebra(space, vec(F7, 1, 0))
        rng = random.Random(3)
        for _ in range(50):
            x = [Fraction(rng.randint(-4, 4)) for _ in range(4)]
            y = [Fraction(rng.randint(-4, 4)) for _ in range(4)]
            assert alg.reduced_norm(alg.mul(x, y)) == alg.reduced_norm(x) * alg.reduced_norm(y)
            assert reduced_trace(alg, conj(alg, x)) == reduced_trace(alg, x)
            assert alg.mul(x, conj(alg, x)) == alg.scalar(alg.reduced_norm(x))

    def test_reduced_ops_frozen(self):
        space = HermSpace(F7, 1, -3, F7.zero())
        alg = build_algebra(space, vec(F7, 1, 0))
        one = alg.one
        u = [Fraction(0), Fraction(0), Fraction(1), Fraction(0)]
        assert alg.reduced_norm(one) == 1
        assert reduced_trace(alg, one) == 2
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
        # the trace formula against n(x + y*u) = n_L(x) - theta*n_L(y), with
        # the norm Gram N of B on (1, omega), on both copies of the table
        for alg, generic in self._pairs():
            assert generic.theta is None
            ma, mb = alg.field.min_a, alg.field.min_b
            n = [[Fraction(1), Fraction(-ma, 2)], [Fraction(-ma, 2), Fraction(mb)]]
            closed = [row + [0, 0] for row in n] + [[0, 0] + [-alg.theta * x for x in row]
                                                    for row in n]
            assert alg.norm_gram() == closed
            assert generic.norm_gram() == closed
        # and against x * conj(x) through mul on tables in random bases
        rng = random.Random(18)
        orders = [order for order, _ in _built_orders(19, 40)]
        orders += [m2z_order()[0], hurwitz_order()[0]]
        for order in orders:
            alg = _reparsed(rng, order)[0].algebra
            assert alg.norm_gram() == fraction_reference.norm_gram(alg)

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
            u_w = vec_add(w, vec_scale(-gamma, v))
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


# SHA-256 of TestRoundTrips::test_order_cli_output_byte_identical's outputs,
# recorded before the two directions of the correspondence shared one frame
ORDER_CLI_SHA256 = "753bd04ce866295409dabba3d8d612bd166c3e67736d718770ed6b854f1776b8"


def _built_orders(seed, count):
    """Embedded orders built from integral pointed lattices over the eight fields."""
    for space, lattice in random_b_stable_pairs(seed, count):
        if not space.is_nondegenerate() or not is_integral(space, lattice):
            continue
        point = global_search(space, lattice, 2)
        if point is not None:
            yield build_order(space, lattice, point)


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
        if mat_det(m) != 0:
            return m


def _reparsed(rng, order, emb=None):
    """(order, embedding) through parse_order, in random bases of the
    algebra and of Z^4; the embedding is None unless ``emb`` is given.

    With e'_i = sum_k m[i][k] e_k the products e'_i e'_j are the rows of
    m . L_i . m^-1, where row l of L_i is e'_i e_l in old coordinates.
    """
    alg = order.algebra
    old = alg.table
    m = _random_invertible(rng)
    m_inv = mat_inverse(m)
    table = []
    for i in range(4):
        left = [linalg.vec_mat(m[i], [old[k][l] for k in range(4)]) for l in range(4)]
        table.append(linalg.mat_mul(linalg.mat_mul(m, left), m_inv))
    u = _random_unimodular(rng)
    u_inv = mat_inverse(u)
    obj = {
        "d": alg.field.d,
        "mult_table": [[[jsonio.rat_str(x) for x in e] for e in row] for row in table],
        "zbasis": [[jsonio.rat_str(x) for x in row]
                   for row in linalg.mat_mul(linalg.mat_mul(u, order.zbasis), m_inv)],
        "one": [jsonio.rat_str(x) for x in linalg.vec_mat(order.one_coords, u_inv)],
    }
    if emb is not None:
        obj["omega_image"] = [jsonio.rat_str(x)
                              for x in linalg.vec_mat(emb.omega_image, u_inv)]
    parsed = jsonio.parse_order(obj)
    assert parsed[0].algebra.theta is None
    return parsed


def _represented_rows(count):
    """The first ``count`` (space, lattice, witness) of the d = -7, h = 2
    sweep whose verdict is represented."""
    rows = []
    for *_, space, lattice, _ in surviving_forms(F7, 2):
        report = represents_one_integral(space, lattice)
        if report.verdict == VERDICT_REPRESENTED:
            rows.append((space, lattice, report.witness))
            if len(rows) == count:
                return rows
    raise AssertionError(f"fewer than {count} represented rows")


def _reference_products(alg, zbasis):
    zinv = mat_inverse(zbasis)
    return [[linalg.vec_mat(alg.mul(zbasis[i], zbasis[j]), zinv) for j in range(4)]
            for i in range(4)]


def _reference_trace_det(alg, rows):
    tr = [[reduced_trace(alg, alg.mul(x, y)) for y in rows] for x in rows]
    return mat_det(tr)


class TestIntegerKernel:
    def test_products_match_fraction_reference(self):
        rng = random.Random(41)
        built = 0
        for order, _ in _built_orders(42, 160):
            built += 1
            for o in (order, _reparsed(rng, order)[0]):
                assert o.products == _reference_products(o.algebra, o.zbasis)
                assert all(type(c) is int for row in o.products for p in row for c in p)
                zinv = mat_inverse(o.zbasis)
                for x in ([Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3))) for _ in range(4)],
                          linalg.vec_mat([rng.randint(-3, 3) for _ in range(4)], o.zbasis)):
                    coords = linalg.vec_mat(x, zinv)
                    c, q = o._coord_numerators(x)
                    assert [Fraction(t, q) for t in c] == coords
                    # x lies in the order exactly when q divides every numerator
                    assert (not any(t % q for t in c)) == all(c.denominator == 1 for c in coords)
        assert built >= 30
        for order, _ in (m2z_order(), hurwitz_order()):
            for o in (order, _reparsed(rng, order)[0], _reparsed(rng, order)[0]):
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
                alg = _reparsed(rng, QuatOrder(alg, linalg.int_identity(4)))[0].algebra
            while True:
                rows = [alg.one] + [
                    [Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(4)]
                    for _ in range(3)
                ]
                if mat_det(rows) != 0:
                    break
            zbasis = linalg.mat_mul(_random_unimodular(rng), rows)
            ref = _reference_products(alg, zbasis)
            bad = next(
                ((i, j) for i in range(4) for j in range(4)
                 if any(c.denominator != 1 for c in ref[i][j])),
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
                                     linalg.int_identity(4)))[0].algebra
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
        # from_space on the integer frame inverse against the Fraction
        # inverse of the reference frame
        rng = random.Random(45)
        for k in range(24):
            field = QuadField(CLOSED_FORM_FIELDS[k % len(CLOSED_FORM_FIELDS)])
            space, point = random_pointed_space(rng, field)
            alg = build_algebra(space, point)
            frame_inv = mat_inverse(reference_frame(space, point))
            for _ in range(5):
                x = [Fraction(rng.randint(-4, 4), rng.choice((1, 2, 5))) for _ in range(4)]
                assert alg.from_space(vec_from_coords(field, x)) == linalg.vec_mat(x, frame_inv)

    def test_frame_and_theta_match_qelem_reference(self):
        # the integer build against the QElem construction it replaced:
        # w = e1 (e2 when point[1] = 0), u = w - s(w, point)*point,
        # theta = -h(u), frame rows (point, w*point, u, w*u)
        rng = random.Random(46)
        for k in range(40):
            field = QuadField(CLOSED_FORM_FIELDS[k % len(CLOSED_FORM_FIELDS)])
            space, point = random_pointed_space(rng, field)
            alg = build_algebra(space, point)
            frame = reference_frame(space, point)
            assert alg.theta == -space.h_value(vec_from_coords(field, frame[2]))
            fin, q = alg._frame_inv
            assert linalg.mat_mul(frame, fin) == [[q * x for x in row] for row in identity_matrix(4)]

    def test_embedding_rejects_bad_omega_image(self):
        order, emb = m2z_order()
        Embedding(order, emb.omega_image)
        with pytest.raises(InputError, match="integer coordinates"):
            Embedding(order, [0, Fraction(-1, 2), 1, 1])
        # the integer check on the products against w^2 + a*w + b in the algebra
        rng = random.Random(47)
        alg = order.algebra
        field = alg.field
        rejected = 0
        for _ in range(200):
            image = [rng.randint(-2, 2) for _ in range(4)]
            w = linalg.vec_mat(image, order.zbasis)
            lhs = [x + field.min_a * y + field.min_b * o
                   for x, y, o in zip(alg.mul(w, w), w, alg.one)]
            if any(lhs):
                rejected += 1
                with pytest.raises(InputError, match="minimal polynomial"):
                    Embedding(order, image)
            else:
                Embedding(order, image)
        assert 150 <= rejected < 200
        with pytest.raises(InputError, match="4 coordinates"):
            Embedding(order, [0, -1, 1])

    def test_fraction_calls_per_order_bounded(self):
        # build_order plus the order discriminant run on integers: count the
        # calls into fractions.py over a fixed sample of d = -7, h = 2 rows
        rows = _represented_rows(40)
        calls = 0
        source = fractions.__file__

        def count(frame, event, arg):
            nonlocal calls
            if event == "call" and frame.f_code.co_filename == source:
                calls += 1

        previous = sys.getprofile()
        sys.setprofile(count)
        try:
            for space, lattice, point in rows:
                build_order(space, lattice, point)[0].discriminant()
        finally:
            sys.setprofile(previous)
        assert len(rows) == 40
        assert calls <= 1000 * len(rows)

    def test_from_order_fraction_calls_bounded(self, tmp_path):
        # from-order reads the reduced norm from the integer trace table,
        # builds the frame in integers and decides optimality on integer
        # minors: count the calls into fractions.py per call on 20 order
        # files from d = -7, h = 2 rows, every QuatAlgebra.mul under
        # reduced_norm or norm_gram, every algebra product, reduced norm or
        # QElem operation under order_to_pointed, every call into
        # fractions.py or the HNF under is_optimal, and every call into
        # qfield.py under discriminant_form, which reads the integer Gram
        paths = []
        for k, row in enumerate(_represented_rows(20)):
            path = tmp_path / f"order{k}.json"
            path.write_text(jsonio.dumps(jsonio.order_obj(*build_order(*row))))
            paths.append(str(path))
        source = fractions.__file__
        norm_codes = {QuatAlgebra.reduced_norm.__code__, QuatAlgebra.norm_gram.__code__}
        frame_codes = {QuatAlgebra.mul.__code__, QuatAlgebra.reduced_norm.__code__} | {
            getattr(qfield.QElem, name).__code__
            for name in ("__add__", "__sub__", "__rsub__", "__neg__", "__mul__",
                         "__truediv__", "__rtruediv__")
        }
        calls = muls_under_norm = under_optimal = qfield_under_disc = under_frame = 0

        def called_from(frame, codes):
            caller = frame.f_back
            while caller is not None and caller.f_code not in codes:
                caller = caller.f_back
            return caller is not None

        def count(frame, event, arg):
            nonlocal calls, muls_under_norm, under_optimal, qfield_under_disc, under_frame
            if event != "call":
                return
            code = frame.f_code
            if code in frame_codes:
                under_frame += called_from(frame, {order_to_pointed.__code__})
            if code.co_filename == source:
                calls += 1
            elif code is QuatAlgebra.mul.__code__:
                muls_under_norm += called_from(frame, norm_codes)
            elif code.co_filename == qfield.__file__:
                qfield_under_disc += called_from(frame, {discriminant_form.__code__})
            if code.co_filename == source or code is linalg._hnf_engine.__code__:
                under_optimal += called_from(frame, {is_optimal.__code__})

        per_call = []
        previous = sys.getprofile()
        sys.setprofile(count)
        try:
            for path in paths:
                before = calls
                with contextlib.redirect_stdout(io.StringIO()):
                    code = main(["from-order", path])
                per_call.append((code, calls - before))
        finally:
            sys.setprofile(previous)
        assert all(code == 0 for code, _ in per_call)
        assert max(n for _, n in per_call) <= 6_000
        assert muls_under_norm == 0
        assert under_optimal == 0
        assert qfield_under_disc == 0
        assert under_frame == 0


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
        # on seeded integral pointed lattices both directions take the same
        # frame: the pulled-back space is (1, -theta, 0) for the built theta
        rng = random.Random(57)
        for k in range(12):
            field = (F3, F7)[k % 2]
            order, emb = build_order(*random_integral_pointed_lattice(rng, field))
            pointed = order_to_pointed(order, emb)
            assert pointed.space == HermSpace(field, 1, -order.algebra.theta, field.zero())
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

    def test_u_from_first_vector_off_the_field_line(self):
        # on orders in random bases, u is the projection off L*1 of the first
        # standard basis vector eps with rank [1, w, eps] = 3: u - eps lies
        # in span(1, w) and u is orthogonal to 1 and w under the reference
        # norm Gram
        rng = random.Random(50)
        built = list(_built_orders(51, 160))
        assert len(built) >= 20
        for k in range(200):
            order, emb = _reparsed(rng, *built[k % len(built)])
            alg = order.algebra
            one, w, u = order_to_pointed(order, emb).frame[:3]
            eps = next(e for e in std_basis() if sympy.Matrix([one, w, e]).rank() == 3)
            assert sympy.Matrix([one, w, [x - e for x, e in zip(u, eps)]]).rank() == 2
            gu = linalg.vec_mat(u, fraction_reference.norm_gram(alg))
            assert sum(map(mul, gu, one)) == 0 and sum(map(mul, gu, w)) == 0

    def test_reparsed_orders_optimal_and_isometric(self):
        # is_optimal on the integer minors, and the per-basis reference for
        # order_to_pointed's isometry check: h of each pulled-back Z-basis
        # vector is the reduced norm of the basis vector
        rng = random.Random(53)
        built = list(_built_orders(54, 160))
        assert len(built) >= 20
        for k in range(200):
            order, emb = _reparsed(rng, *built[k % len(built)])
            assert is_optimal(emb) is True
            alg = order.algebra
            pointed = order_to_pointed(order, emb)
            for z, v in zip(order.zbasis, pointed.lattice.basis):
                assert pointed.space.h_value(v) == alg.reduced_norm(z)

    def test_order_cli_output_byte_identical(self, tmp_path):
        # from-order JSON and text on 64 seeded orders in random Z- and
        # algebra bases, and build-order JSON on each pulled-back form, all
        # against one digest of stdout, stderr and exit code
        rng = random.Random(55)
        built = list(_built_orders(56, 160))
        assert len(built) >= 20
        order_path, form_path = tmp_path / "order.json", tmp_path / "form.json"
        digest = hashlib.sha256()
        codes = set()

        def run(argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            codes.add(code)
            digest.update(f"{code}\n{out.getvalue()}\n{err.getvalue()}\n".encode())
            return out.getvalue()

        for k in range(64):
            reparsed = _reparsed(rng, *built[k % len(built)])
            order_path.write_text(jsonio.dumps(jsonio.order_obj(*reparsed)))
            form_path.write_text(run(["from-order", str(order_path)]))
            run(["from-order", str(order_path), "--format", "text"])
            run(["build-order", str(form_path)])
        assert codes == {0}
        assert digest.hexdigest() == ORDER_CLI_SHA256


class TestM2Z:
    def test_embedding_minimal_polynomial(self):
        order, emb = m2z_order()
        w = linalg.vec_mat(emb.omega_image, order.zbasis)
        # oracle: 2x2 matrix arithmetic for [[0,-1],[1,1]]
        assert reduced_trace(order.algebra, w) == 1
        assert order.algebra.reduced_norm(w) == 1

    def test_reduced_ops_match_matrix_oracle(self):
        order, _ = m2z_order()
        alg = order.algebra
        rng = random.Random(19)
        for _ in range(30):
            a, b, c, d = (rng.randint(-5, 5) for _ in range(4))
            x = [Fraction(a), Fraction(b), Fraction(c), Fraction(d)]
            assert reduced_trace(alg, x) == a + d
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
            [reduced_trace(alg, alg.mul(basis[i], basis[j])) for j in range(4)]
            for i in range(4)
        ]
        assert mat_det(tr) == -1

    def test_optimal(self):
        order, emb = m2z_order()
        assert is_optimal(emb)

    def test_relation(self):
        # Delta(Lambda) = D * d(Lambda, n): the trace pairing against the
        # integer Gram of the pulled-back form
        order, emb = m2z_order()
        pointed = order_to_pointed(order, emb)
        rhs = F3.D * det_form(pointed.space, pointed.lattice).value
        assert order.discriminant().value == rhs == 1


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
        pointed = order_to_pointed(order, emb)
        rhs = F3.D * det_form(pointed.space, pointed.lattice).value
        assert order.discriminant().value == rhs == -2
        assert is_optimal(emb)


class TestLatticeDisc:
    def test_b_plus_bu_model(self):
        # d(Lambda) = (D*theta)^2 for Lambda = B + B.u inside the canonical algebra
        for field, theta in ((F7, Fraction(3)), (F3, Fraction(-2)), (F7, Fraction(5, 1))):
            alg = QuatAlgebra.canonical(field, theta)
            dv = lattice_disc(alg, linalg.int_identity(4))
            assert dv.as_ideal == abs(Fraction(field.D) * theta)

    def test_non_optimal_detected(self):
        # Z*1 + Z*(2 i(omega)) has index 2 in its saturation inside M2(Z);
        # 2 i(omega) fails the minimal polynomial, so no Embedding carries it
        order, emb = m2z_order()
        doubled = SimpleNamespace(order=order, omega_image=[2 * x for x in emb.omega_image])
        assert is_optimal(doubled) is False

    def test_dependent_image_raises(self):
        order, _ = m2z_order()
        same = SimpleNamespace(order=order, omega_image=list(order.one_coords))
        with pytest.raises(InvariantViolation, match="intersection with i\\(L\\) is not rank 2"):
            is_optimal(same)

    def test_minor_gcd_matches_smith_form(self):
        # Z*a + Z*c is saturated in Z^4 exactly when the elementary divisors
        # of the 2x4 matrix (a; c) are d1 = d2 = 1
        rng = random.Random(52)
        checked = optimal = 0
        while checked < 200:
            a = [rng.randint(-4, 4) for _ in range(4)]
            c = [rng.randint(-4, 4) for _ in range(4)]
            if sympy.Matrix([a, c]).rank() < 2:
                continue
            checked += 1
            snf = smith_normal_form(sympy.Matrix([a, c]), domain=sympy.ZZ)
            saturated = abs(snf[0, 0] * snf[1, 1]) == 1
            emb = SimpleNamespace(order=SimpleNamespace(one_coords=a), omega_image=c)
            assert is_optimal(emb) is saturated
            optimal += saturated
        assert 20 <= optimal <= 180


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


# ---------------------------------------------------------------------------
# Change of point: right multiplication by u in the algebra built at v


class Isometry:
    """An L-linear h-preserving map of V, optionally lattice-preserving."""

    def __init__(self, space, matrix_q, lattice=None, point_map=None):
        field = space.field
        self.space = space
        self.matrix_q = [[Fraction(x) for x in row] for row in matrix_q]
        img1 = vec_from_coords(field, self.matrix_q[0])
        img2 = vec_from_coords(field, self.matrix_q[2])
        omega = field.omega()
        if (
            self.matrix_q[1] != vec_coords(vec_scale(omega, img1))
            or self.matrix_q[3] != vec_coords(vec_scale(omega, img2))
        ):
            raise InvariantViolation("matrix is not L-linear")
        g = space.gram4()
        transported = linalg.mat_mul(
            linalg.mat_mul(self.matrix_q, g), linalg.mat_transpose(self.matrix_q)
        )
        if transported != g:
            raise InvariantViolation("matrix does not preserve the hermitian form")
        if point_map is not None:
            src, dst = point_map
            if self.apply(src) != dst:
                raise InvariantViolation("isometry does not map the designated points")
        if lattice is not None:
            for v in lattice.basis:
                if not lattice.contains(self.apply(v)):
                    raise InvariantViolation("isometry does not preserve the lattice")

    def apply(self, v):
        return vec_from_coords(
            self.space.field, linalg.vec_mat(vec_coords(v), self.matrix_q)
        )

    def compose(self, other):
        """self followed by other."""
        return Isometry(self.space, linalg.mat_mul(self.matrix_q, other.matrix_q))


def change_point(space, lattice, v, u):
    """Right multiplication by u in the algebra built at v.

    Both points must have h = 1 and u must lie in the lattice; the result
    maps v to u, preserves h exactly and maps the lattice into itself.
    """
    if space.h_value(u) != 1:
        raise InputError("target point must satisfy h(u) = 1")
    if not lattice.contains(u) or not lattice.contains(v):
        raise MembershipError("points must lie in the lattice")
    alg = build_algebra(space, v)
    u_alg = alg.from_space(u)
    rmul = [alg.mul(e, u_alg) for e in std_basis()]
    fin, q = alg._frame_inv
    frame_inv = [[Fraction(x, q) for x in row] for row in fin]
    matrix_q = linalg.mat_mul(linalg.mat_mul(frame_inv, rmul), mat_inverse(frame_inv))
    return Isometry(space, matrix_q, lattice=lattice, point_map=(v, u))


class TestChangePoint:
    def test_identity_on_same_point(self):
        space = HermSpace(F7, 1, -1, F7.zero())
        std = Lattice.standard(F7)
        v = vec(F7, 1, 0)
        iso = change_point(space, std, v, v)
        assert iso.matrix_q == identity_matrix(4)

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

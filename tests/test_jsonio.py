import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermquat import (
    HermSpace,
    Lattice,
    QuadField,
    build_order,
    global_search,
    jsonio,
    represents_one_integral,
)
from hermquat.errors import DegenerateFormError, InputError, NotIntegralError
from hermquat.hermitian import vec_scale
from hermquat.verify import random_b_stable_lattice
from fraction_reference import vec
from tests_fixtures import m2z_order

F7 = QuadField(-7)
ROUND_TRIP_FIELDS = (-1, -2, -3, -7, -11, -15)
# rationals with numerators and denominators up to 10^40
RATIONALS = st.builds(Fraction, st.integers(-10**40, 10**40), st.integers(1, 10**40))
NONZERO_RATIONALS = RATIONALS.filter(bool)


class TestRationals:
    def test_reduced_strings(self):
        assert jsonio.rat_str(Fraction(6, 4)) == "3/2"
        assert jsonio.rat_str(Fraction(-6, 3)) == "-2"
        assert jsonio.rat_str(5) == "5"

    def test_parse(self):
        assert jsonio.parse_rat("3/2") == Fraction(3, 2)
        assert jsonio.parse_rat("-7") == -7
        with pytest.raises(InputError):
            jsonio.parse_rat("x")


def _random_order(rng, field):
    """The embedded order of a random integral form on a random B-stable
    lattice, pointed at the first vector with h = 1 of height at most 2."""
    while True:
        lattice = random_b_stable_lattice(rng, field)
        gamma = field.elem(rng.randint(-4, 4), rng.randint(-4, 4)) * field.inverse_sqrt_d()
        space = HermSpace(field, rng.randint(-4, 4), rng.randint(-4, 4), gamma)
        try:
            point = global_search(space, lattice, 2)
        except (DegenerateFormError, NotIntegralError):
            continue
        if point is not None:
            return build_order(space, lattice, point)


class TestRoundTrips:
    def test_qelem(self):
        x = F7.elem(Fraction(3, 2), Fraction(-5, 7))
        assert jsonio.parse_qelem(F7, jsonio.qelem_obj(x)) == x

    def test_herm(self):
        space = HermSpace(F7, Fraction(1, 2), -3, F7.elem(2, Fraction(1, 7)))
        again = jsonio.parse_herm(jsonio.herm_obj(space))
        assert again == space

    def test_form_default_lattice(self):
        space = HermSpace(F7, 1, -1, F7.zero())
        obj = jsonio.herm_obj(space)
        parsed_space, lattice, point = jsonio.parse_form(obj)
        assert parsed_space == space
        assert lattice == Lattice.standard(F7)
        assert point is None

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(
        d=st.sampled_from(ROUND_TRIP_FIELDS),
        entries=st.lists(RATIONALS, min_size=8, max_size=8),
        scale=NONZERO_RATIONALS,
        seed=st.integers(0, 2**32 - 1),
    )
    def test_form_with_lattice_and_point(self, d, entries, scale, seed):
        # a form, a random B-stable lattice scaled by a large rational and a
        # point, all with large numerators and denominators
        field = QuadField(d)
        alpha, beta, ga, gb, *point = entries
        space = HermSpace(field, alpha, beta, field.elem(ga, gb))
        basis = random_b_stable_lattice(random.Random(seed), field).basis
        lattice = Lattice(field, [vec_scale(scale, v) for v in basis])
        point = vec(field, field.elem(*point[:2]), field.elem(*point[2:]))
        obj = jsonio.form_obj(space, lattice, point)
        text = jsonio.dumps(obj)
        s2, l2, p2 = jsonio.parse_form(jsonio.loads(text))
        assert s2 == space and l2.basis == lattice.basis and p2 == point
        assert jsonio.dumps(jsonio.form_obj(s2, l2, p2)) == text

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(d=st.sampled_from(ROUND_TRIP_FIELDS), seed=st.integers(0, 2**32 - 1))
    def test_order_round_trip(self, d, seed):
        # orders built from random integral pointed lattices, and M2(Z)
        for order, emb in (_random_order(random.Random(seed), QuadField(d)), m2z_order()):
            obj = jsonio.order_obj(order, emb)
            text = jsonio.dumps(obj)
            order2, emb2 = jsonio.parse_order(jsonio.loads(text))
            assert order2.algebra.table == order.algebra.table
            assert order2.zbasis == order.zbasis
            assert order2.one_coords == order.one_coords
            assert emb2.omega_image == emb.omega_image
            # byte-stable
            assert jsonio.dumps(jsonio.order_obj(order2, emb2)) == text

    def test_report_serializes(self):
        space = HermSpace(F7, 1, -1, F7.zero())
        report = represents_one_integral(space, Lattice.standard(F7))
        obj = jsonio.report_obj(report)
        assert obj["verdict"] == "Represented"
        assert obj["witness"] is not None
        assert all(r["solvable"] for r in obj["locals"])
        text = jsonio.dumps(obj)
        assert jsonio.loads(text) == obj

    def test_canonical_dumps_stable(self):
        space = HermSpace(F7, 1, -1, F7.elem(0, Fraction(2, 7)))
        a = jsonio.dumps(jsonio.herm_obj(space))
        b = jsonio.dumps(jsonio.herm_obj(jsonio.parse_herm(jsonio.loads(a))))
        assert a == b


class TestValidation:
    def test_bad_json_text(self):
        with pytest.raises(InputError):
            jsonio.loads("{not json")

    def test_missing_keys(self):
        with pytest.raises(InputError):
            jsonio.parse_herm({"d": -7})
        with pytest.raises(InputError):
            jsonio.parse_field({})

    def test_bad_table_shape(self):
        order, emb = m2z_order()
        obj = jsonio.order_obj(order, emb)
        obj["mult_table"] = obj["mult_table"][:3]
        with pytest.raises(InputError):
            jsonio.parse_order(obj)

    def test_non_associative_table_rejected(self):
        order, emb = m2z_order()
        obj = jsonio.order_obj(order, emb)
        obj["mult_table"][1][1][0] = "99"
        with pytest.raises(InputError) as err:
            jsonio.parse_order(obj)
        assert str(err.value) == "multiplication table is not associative at (1, 0, 1)"

    def test_short_or_long_vectors_rejected(self):
        order, emb = m2z_order()
        for key, bad in (("one", ["1", "0", "0"]), ("one", ["1", "0", "0", "1", "0"]),
                         ("omega_image", ["0", "-1", "1"]),
                         ("omega_image", ["0", "-1", "1", "1", "0"])):
            obj = jsonio.order_obj(order, emb)
            obj[key] = bad
            with pytest.raises(InputError):
                jsonio.parse_order(obj)

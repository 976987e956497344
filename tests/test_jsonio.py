from fractions import Fraction

import pytest

from hermquat import (
    HermSpace,
    Lattice,
    QuadField,
    jsonio,
    represents_one_integral,
    vec,
)
from hermquat.errors import InputError
from tests_fixtures import m2z_order

F7 = QuadField(-7)


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

    def test_form_with_lattice_and_point(self):
        space = HermSpace(F7, 1, -1, F7.zero())
        lattice = Lattice.standard(F7)
        obj = jsonio.form_obj(space, lattice, vec(F7, 1, 0))
        s2, l2, p2 = jsonio.parse_form(obj)
        assert s2 == space and l2 == lattice and p2 == vec(F7, 1, 0)

    def test_order_round_trip(self):
        order, emb = m2z_order()
        obj = jsonio.order_obj(order, emb)
        order2, emb2 = jsonio.parse_order(obj)
        assert order2.algebra.table == order.algebra.table
        assert order2.zbasis == order.zbasis
        assert emb2.omega_image == emb.omega_image
        # byte-stable
        assert jsonio.dumps(jsonio.order_obj(order2, emb2)) == jsonio.dumps(obj)

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
        with pytest.raises(InputError):
            jsonio.parse_order(obj)

    def test_short_or_long_vectors_rejected(self):
        order, emb = m2z_order()
        for key, bad in (("one", ["1", "0", "0"]), ("one", ["1", "0", "0", "1", "0"]),
                         ("omega_image", ["0", "-1", "1"]),
                         ("omega_image", ["0", "-1", "1", "1", "0"])):
            obj = jsonio.order_obj(order, emb)
            obj[key] = bad
            with pytest.raises(InputError):
                jsonio.parse_order(obj)

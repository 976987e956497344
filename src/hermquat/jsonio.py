"""Canonical JSON (and CSV cell) encoding of every public value type.

Rationals are emitted reduced as "num/den" ("num" when the denominator is
1); serialization followed by parsing is the identity, and `dumps` output
is byte-stable for equal inputs.
"""

from __future__ import annotations

import json
from fractions import Fraction

from . import linalg
from .errors import InputError
from .hermitian import DiscValue, HermSpace, Lattice, Vector
from .qfield import QElem, QuadField


def rat_str(x) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rat(s) -> Fraction:
    try:
        # no exponent notation: Fraction("1e10000000") builds a 33-million-bit integer
        if isinstance(s, str) and "e" in s.lower():
            raise ValueError("exponent notation")
        return Fraction(s)
    except (ValueError, ZeroDivisionError, TypeError, OverflowError) as exc:
        raise InputError(f"bad rational {s!r}") from exc


def _parse_rats(obj, depth: int, message: str):
    """Nested lists of rationals, ``depth`` levels deep; a non-list raises ``message``."""
    if not depth:
        return parse_rat(obj)
    if not isinstance(obj, list):
        raise InputError(message)
    return [_parse_rats(x, depth - 1, message) for x in obj]


def qelem_obj(x: QElem) -> dict:
    return {"a": rat_str(x.a), "b": rat_str(x.b)}


def parse_qelem(field: QuadField, obj) -> QElem:
    if not isinstance(obj, dict) or "a" not in obj or "b" not in obj:
        raise InputError(f"bad field element {obj!r}")
    return field.elem(parse_rat(obj["a"]), parse_rat(obj["b"]))


def parse_field(obj) -> QuadField:
    if not isinstance(obj, dict) or "d" not in obj or not isinstance(obj["d"], int):
        raise InputError("missing or non-integer field key 'd'")
    return QuadField(obj["d"])


def vector_obj(v: Vector) -> list:
    return [qelem_obj(v[0]), qelem_obj(v[1])]


def parse_vector(field: QuadField, obj) -> Vector:
    if not isinstance(obj, list) or len(obj) != 2:
        raise InputError(f"bad vector {obj!r}")
    return (parse_qelem(field, obj[0]), parse_qelem(field, obj[1]))


def herm_obj(space: HermSpace) -> dict:
    return {
        "d": space.field.d,
        "alpha": rat_str(space.alpha),
        "beta": rat_str(space.beta),
        "gamma": qelem_obj(space.gamma),
    }


def parse_herm(obj) -> HermSpace:
    field = parse_field(obj)
    for key in ("alpha", "beta", "gamma"):
        if key not in obj:
            raise InputError(f"form is missing {key!r}")
    return HermSpace(
        field,
        parse_rat(obj["alpha"]),
        parse_rat(obj["beta"]),
        parse_qelem(field, obj["gamma"]),
    )


def lattice_obj(lattice: Lattice) -> dict:
    return {
        "d": lattice.field.d,
        "zbasis": [vector_obj(v) for v in lattice.basis],
    }


def parse_lattice(field: QuadField, obj) -> Lattice:
    if not isinstance(obj, list) or len(obj) != 4:
        raise InputError("zbasis must list exactly 4 vectors")
    return Lattice(field, [parse_vector(field, v) for v in obj])


def form_obj(space: HermSpace, lattice: Lattice, point: Vector | None = None) -> dict:
    out = herm_obj(space)
    out["zbasis"] = [vector_obj(v) for v in lattice.basis]
    if point is not None:
        out["point"] = vector_obj(point)
    return out


def parse_form(obj):
    """A combined form file: hermitian Gram keys plus optional zbasis/point.

    Returns (space, lattice, point_or_None); the lattice defaults to B^2.
    """
    space = parse_herm(obj)
    if "zbasis" in obj:
        lattice = parse_lattice(space.field, obj["zbasis"])
    else:
        lattice = Lattice.standard(space.field)
    point = parse_vector(space.field, obj["point"]) if "point" in obj else None
    return space, lattice, point


def disc_obj(dv: DiscValue) -> dict:
    return {
        "value": rat_str(dv.value),
        "ideal": rat_str(dv.as_ideal),
        "convention": dv.convention,
    }


def order_obj(order: "QuatOrder", emb: "Embedding | None" = None) -> dict:
    alg = order.algebra
    out = {
        "d": alg.field.d,
        "mult_table": [
            [[rat_str(x) for x in entry] for entry in row] for row in alg.table
        ],
        "zbasis": [[rat_str(x) for x in row] for row in order.zbasis],
        "one": [rat_str(x) for x in order.one_coords],
    }
    if emb is not None:
        out["omega_image"] = [rat_str(x) for x in emb.omega_image]
    return out


def parse_order(obj):
    """Returns (order, embedding_or_None) from the order JSON schema."""
    from .quaternion import Embedding, QuatAlgebra, QuatOrder

    field = parse_field(obj)
    for key in ("mult_table", "zbasis", "one"):
        if key not in obj:
            raise InputError(f"order is missing {key!r}")
    table = _parse_rats(obj["mult_table"], 3, "mult_table must be 4x4x4")
    if len(table) != 4 or any(
        len(row) != 4 or any(len(e) != 4 for e in row) for row in table
    ):
        raise InputError("mult_table must be 4x4x4")
    zbasis = _parse_rats(obj["zbasis"], 2, "order zbasis must be 4x4")
    if len(zbasis) != 4 or any(len(r) != 4 for r in zbasis):
        raise InputError("order zbasis must be 4x4")
    one_zb = _parse_rats(obj["one"], 1, "order one must have 4 entries")
    if len(one_zb) != 4:
        raise InputError("order one must have 4 entries")
    one_alg = linalg.vec_mat(one_zb, zbasis)
    alg = QuatAlgebra(field, table, one=one_alg)
    order = QuatOrder(alg, zbasis)
    emb = None
    if "omega_image" in obj:
        omega = _parse_rats(obj["omega_image"], 1, "omega image must have 4 coordinates")
        emb = Embedding(order, omega)
    return order, emb


def certificate_obj(cert: "Certificate") -> dict:
    return {
        "vector": list(cert.vector),
        "modulus_exponent": cert.modulus_exponent,
        "hensel_t": cert.hensel_t,
    }


def local_report_obj(rep: "LocalReport") -> dict:
    return {
        "p": rep.prime,
        "solvable": rep.solvable,
        "method": rep.method,
        "certificate": certificate_obj(rep.certificate) if rep.certificate else None,
    }


def report_obj(rep: "RepOneReport") -> dict:
    return {
        "real_ok": rep.real_ok,
        "locals": [local_report_obj(r) for r in rep.locals],
        "witness": vector_obj(rep.witness) if rep.witness is not None else None,
        "verdict": rep.verdict,
        "obstruction_prime": rep.obstruction_prime,
        "discriminant": disc_obj(rep.discriminant) if rep.discriminant else None,
    }


SWEEP_COLUMNS = (
    "alpha",
    "beta",
    "gamma",
    "Delta",
    "definiteness",
    "verdict",
    "witness",
    "order_disc",
    "discs_equal",
)


def sweep_row_obj(row: "SweepRow") -> dict:
    """One sweep row keyed by SWEEP_COLUMNS; the CLI's CSV cells derive from it."""
    witness = row.report.witness
    return {
        "alpha": row.alpha,
        "beta": row.beta,
        "gamma": qelem_obj(row.gamma),
        "Delta": rat_str(row.delta.value),
        "definiteness": row.definiteness.value,
        "verdict": row.report.verdict,
        "witness": vector_obj(witness) if witness is not None else None,
        "order_disc": rat_str(row.order_disc.value) if row.order_disc else None,
        "discs_equal": row.discs_equal,
    }


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def loads(text: str):
    # ValueError also covers ints over the digit limit; RecursionError, deep nesting
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InputError(f"malformed JSON: {exc}") from exc

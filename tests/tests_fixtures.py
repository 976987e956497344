"""Shared fixtures: M2(Z) and the Hurwitz order, both over d = -3, and
random forms on random B-stable lattices."""

import random
from fractions import Fraction

from hermquat import (
    Embedding,
    HermSpace,
    QuadField,
    QuatAlgebra,
    QuatOrder,
    order_to_pointed,
)
from hermquat import linalg
from hermquat.verify import random_b_stable_lattice

F3 = QuadField(-3)
# odd and even field discriminants
CLOSED_FORM_FIELDS = (-1, -2, -3, -5, -7, -11, -15, -19)


def random_b_stable_pairs(seed, count):
    """Forms with gamma in the inverse different on random B-stable lattices."""
    rng = random.Random(seed)
    for k in range(count):
        field = QuadField(CLOSED_FORM_FIELDS[k % len(CLOSED_FORM_FIELDS)])
        lattice = random_b_stable_lattice(rng, field)
        space = HermSpace(
            field,
            Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2))),
            Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2))),
            field.elem(rng.randint(-4, 4), rng.randint(-4, 4)) * field.inverse_sqrt_d(),
        )
        yield space, lattice


def matrix_units_table():
    """Structure constants of M2 in the basis (E11, E12, E21, E22)."""
    idx = {(1, 1): 0, (1, 2): 1, (2, 1): 2, (2, 2): 3}
    pairs = {v: k for k, v in idx.items()}
    table = []
    for p in range(4):
        i, j = pairs[p]
        row = []
        for q in range(4):
            k, l = pairs[q]
            entry = [Fraction(0)] * 4
            if j == k:
                entry[idx[(i, l)]] = Fraction(1)
            row.append(entry)
        table.append(row)
    return table


def hamilton_table():
    """Structure constants of (-1, -1) in the basis (1, i, j, k)."""
    z, o = Fraction(0), Fraction(1)

    def v(*xs):
        return [Fraction(x) for x in xs]

    e, i, j, k = v(o, z, z, z), v(z, o, z, z), v(z, z, o, z), v(z, z, z, o)

    def neg(t):
        return [-x for x in t]

    return [
        [e, i, j, k],
        [i, neg(e), k, neg(j)],
        [j, neg(k), neg(e), i],
        [k, j, neg(i), neg(e)],
    ]


def m2z_order():
    alg = QuatAlgebra(F3, matrix_units_table(), one=[1, 0, 0, 1])
    order = QuatOrder(alg, linalg.int_identity(4))
    emb = Embedding(order, [0, -1, 1, 1])  # [[0, -1], [1, 1]], root of x^2 - x + 1
    return order, emb


def m2z_pointed():
    order, emb = m2z_order()
    pointed = order_to_pointed(order, emb)
    return pointed.space, pointed.lattice, pointed.point


def hurwitz_order():
    alg = QuatAlgebra(F3, hamilton_table())
    half = Fraction(1, 2)
    order = QuatOrder(
        alg, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [half, half, half, half]]
    )
    emb = Embedding(order, [0, 0, 0, 1])  # (1 + i + j + k)/2
    return order, emb

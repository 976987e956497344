"""Seeded property suites exercising the proved identities end to end.

Each suite draws its own deterministic random stream, so a (suite, seed)
pair always replays the same cases; failures are returned as serializable
dicts for replay.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

from . import jsonio, linalg
from .errors import UnsupportedRamificationError
from .hermitian import (
    Definiteness,
    HermSpace,
    Lattice,
    Record,
    det_form,
    lattice_from_B_basis,
    omega_matrix,
    polarize,
    polarize_independence_check,
    vec_add,
    vec_from_coords,
    vec_scale,
)
from .qfield import QuadField
from .quaternion import (
    build_algebra,
    build_order,
    is_optimal,
    lattice_disc,
    order_to_pointed,
)
from .represent import VERDICT_REPRESENTED, RepresentConfig, global_search
from .sweep import run_row, surviving_forms

DEFAULT_FIELDS = (-3, -7, -11, -15)
CLASS_NUMBER_ONE_FIELDS = (-3, -7)


class SuiteResult(Record):
    __slots__ = ("name", "cases", "failures")

    def __init__(self, name: str, cases: int = 0, failures: list | None = None):
        self.name = name
        self.cases = cases
        self.failures = [] if failures is None else failures

    @property
    def ok(self) -> bool:
        return not self.failures

    def record(self, **case):
        self.failures.append(case)


# ---------------------------------------------------------------------------
# Random generators


def random_field(rng: random.Random) -> QuadField:
    return QuadField(rng.choice(DEFAULT_FIELDS))


def random_fraction(rng: random.Random, height):
    return Fraction(rng.randint(-height, height), rng.choice((1, 1, 2, 3)))


def random_qelem(rng, field, height):
    return field.elem(random_fraction(rng, height), random_fraction(rng, height))


def random_hermspace(rng, field, nondegenerate=False) -> HermSpace:
    while True:
        space = HermSpace(
            field,
            random_fraction(rng, 4),
            random_fraction(rng, 4),
            random_qelem(rng, field, 4),
        )
        if not nondegenerate or space.is_nondegenerate():
            return space


def random_pointed_space(rng, field):
    """A nondegenerate space with a point of h-value exactly 1."""
    while True:
        space = random_hermspace(rng, field, nondegenerate=True)
        v = (random_qelem(rng, field, 2), random_qelem(rng, field, 2))
        c = space.h_value(v)
        if c == 0:
            continue
        return space.scale(Fraction(1) / c), v


def random_integral_pointed_lattice(rng, field):
    """An integral indefinite square-free form on B^2 plus a found point.

    The field needs an odd D: for even D every Delta of these forms is
    divisible by 4, so no draw is square-free and it raises
    UnsupportedRamificationError at once.
    """
    if field.D % 2 == 0:
        raise UnsupportedRamificationError(
            "even field discriminant: no form on B^2 here has square-free Delta"
        )
    lattice = Lattice.standard(field)
    inv_sqrt = field.inverse_sqrt_d()
    while True:
        alpha = rng.randint(-3, 3)
        beta = rng.randint(-3, 3)
        gamma = field.elem(rng.randint(-3, 3), rng.randint(-3, 3)) * inv_sqrt
        space = HermSpace(field, alpha, beta, gamma)
        if space.definiteness() != Definiteness.INDEFINITE:
            continue
        if any(e > 1 for e in space.integral_form(lattice).delta_factors().values()):
            continue
        point = global_search(space, lattice, 30)
        if point is None:
            continue
        return space, lattice, point


def random_b_stable_lattice(rng, field) -> Lattice:
    """Random omega-stable rank-4 lattice in L^2, possibly with a global scale.

    Draws integer coordinate rows, closes the span under omega (one round
    suffices since omega satisfies a monic quadratic), and rescales.
    """
    womega = [[int(x) for x in row] for row in omega_matrix(field)]
    while True:
        rows = [[rng.randint(-2, 2) for _ in range(4)] for _ in range(4)]
        if linalg.int_det(rows) == 0:
            continue
        closure = rows + [linalg.vec_mat(row, womega) for row in rows]
        closed = linalg.hnf_basis(closure)
        if len(closed) != 4:
            continue
        scale = Fraction(1, rng.choice((1, 1, 2, 3)))
        vectors = [
            vec_scale(scale, vec_from_coords(field, [Fraction(x) for x in row]))
            for row in closed
        ]
        return Lattice(field, vectors)


# ---------------------------------------------------------------------------
# Suites


def suite_polarize(seed=0) -> SuiteResult:
    """Round trip S -> h -> S and independence of the recovery sample."""
    rng = random.Random(seed)
    result = SuiteResult("polarize")
    for _ in range(200):
        fieldobj = random_field(rng)
        space = random_hermspace(rng, fieldobj)
        gram = space.gram4()
        result.cases += 1
        try:
            recovered = polarize(gram, fieldobj)
        except Exception as exc:  # suites record failures instead of raising
            result.record(form=jsonio.herm_obj(space), error=str(exc))
            continue
        if recovered != space:
            result.record(form=jsonio.herm_obj(space), got=jsonio.herm_obj(recovered))
            continue
        w = fieldobj.omega()
        samples = [w, w + 1, 2 * w - 3, 5 * w, w - 4]
        if not polarize_independence_check(gram, fieldobj, samples):
            result.record(form=jsonio.herm_obj(space), error="s_l depends on l")
    return result


def suite_algebra(seed=0) -> SuiteResult:
    """Associativity, identity, the u-relations and norm multiplicativity."""
    rng = random.Random(seed)
    result = SuiteResult("algebra")
    for _ in range(50):
        fieldobj = random_field(rng)
        space, point = random_pointed_space(rng, fieldobj)
        result.cases += 1
        try:
            alg = build_algebra(space, point)
        except Exception as exc:  # suites record failures instead of raising
            result.record(form=jsonio.herm_obj(space), error=str(exc))
            continue
        failures = alg.associativity_failures()
        if failures:
            result.record(form=jsonio.herm_obj(space), assoc=failures[:3])
            continue
        if not alg.is_identity(alg.one):
            result.record(form=jsonio.herm_obj(space), error="identity law fails")
            continue
        u = [Fraction(0), Fraction(0), Fraction(1), Fraction(0)]
        if alg.mul(u, u) != alg.scalar(alg.theta):
            result.record(form=jsonio.herm_obj(space), error="u^2 != theta")
            continue
        # u * omega = conj(omega) * u
        w = fieldobj.omega()
        wc = w.conj()
        lhs = alg.mul(u, [Fraction(0), Fraction(1), Fraction(0), Fraction(0)])
        rhs = [Fraction(0), Fraction(0), wc.a, wc.b]
        if lhs != rhs:
            result.record(form=jsonio.herm_obj(space), error="u*l != conj(l)*u")
            continue
        for _ in range(100):
            x = [Fraction(rng.randint(-4, 4)) for _ in range(4)]
            y = [Fraction(rng.randint(-4, 4)) for _ in range(4)]
            if alg.reduced_norm(alg.mul(x, y)) != alg.reduced_norm(x) * alg.reduced_norm(y):
                result.record(form=jsonio.herm_obj(space), x=[str(c) for c in x])
                break
    return result


def suite_order(seed=0) -> SuiteResult:
    """Order closure, the basis-product identities, and both round trips."""
    rng = random.Random(seed)
    result = SuiteResult("order")
    for _ in range(50):
        fieldobj = QuadField(rng.choice(CLASS_NUMBER_ONE_FIELDS))
        space, lattice, point = random_integral_pointed_lattice(rng, fieldobj)
        result.cases += 1
        try:
            order, emb = build_order(space, lattice, point)
        except Exception as exc:  # suites record failures instead of raising
            result.record(form=jsonio.herm_obj(space), error=str(exc))
            continue
        # w.w = (theta_w - n(gamma)) v + tr(gamma) w for a B-basis (v, w)
        w = _complete_b_basis(lattice, point)
        if w is not None:
            gamma = space.s_value(w, point)
            u_w = vec_add(w, vec_scale(-gamma, point))
            theta_w = -space.h_value(u_w)
            alg = order.algebra
            ww = alg.mul(alg.from_space(w), alg.from_space(w))
            expected = [
                a + b
                for a, b in zip(
                    [(theta_w - gamma.norm()) * c for c in alg.from_space(point)],
                    [gamma.trace() * c for c in alg.from_space(w)],
                )
            ]
            if ww != expected:
                result.record(form=jsonio.herm_obj(space), error="w.w identity fails")
                continue
            if theta_w - gamma.norm() != -space.h_value(w):
                result.record(form=jsonio.herm_obj(space), error="theta - n(gamma) != -h(w)")
                continue
            if gamma.trace() != space.h_value(vec_add(point, w)) - space.h_value(
                point
            ) - space.h_value(w):
                result.record(form=jsonio.herm_obj(space), error="tr(gamma) identity fails")
                continue
        pointed = order_to_pointed(order, emb)
        rebuilt, _ = build_order(pointed.space, pointed.lattice, pointed.point)
        if rebuilt.algebra.table != order.algebra.table:
            result.record(form=jsonio.herm_obj(space), error="round trip changes the table")
            continue
        if not is_optimal(emb):
            result.record(form=jsonio.herm_obj(space), error="embedding not optimal")
    return result


def _complete_b_basis(lattice, point):
    """Search a w with B*point + B*w equal to the lattice (class number 1).

    ``lattice_from_B_basis`` raises only on L-dependent vectors, which the
    cross-product test skips first.
    """
    # the box |c_i| <= 3 in shells of increasing height, lex order within one
    for c in sorted(product(range(-3, 4), repeat=4), key=lambda c: max(map(abs, c))):
        w = lattice.from_integer_coords(c)
        if point[0] * w[1] - point[1] * w[0] == 0:
            continue
        if lattice.index_of_sublattice(lattice_from_B_basis(point, w)) == 1:
            return w
    return None


def suite_disc(seed=0) -> SuiteResult:
    """Delta(Lambda) = D * d(Lambda, n) on random stable lattices."""
    rng = random.Random(seed)
    result = SuiteResult("disc")
    for _ in range(10):
        fieldobj = QuadField(rng.choice(CLASS_NUMBER_ONE_FIELDS))
        space, point = random_pointed_space(rng, fieldobj)
        try:
            alg = build_algebra(space, point)
        except Exception as exc:  # suites record failures instead of raising
            result.record(form=jsonio.herm_obj(space), error=str(exc))
            continue
        for _ in range(10):
            lattice = random_b_stable_lattice(rng, fieldobj)
            result.cases += 1
            rows = [alg.from_space(v) for v in lattice.basis]
            lhs = lattice_disc(alg, rows)
            d = det_form(space, lattice)
            rhs = fieldobj.D * d.value
            if lhs.value != rhs:
                result.record(
                    form=jsonio.herm_obj(space),
                    lattice=jsonio.lattice_obj(lattice),
                    lhs=str(lhs.value),
                    rhs=str(rhs),
                )
    return result


def suite_represent(seed=0) -> SuiteResult:
    """The theorem at desk scale: indefinite square-free forms represent 1."""
    result = SuiteResult("represent")
    config = RepresentConfig(search_bound=50)
    for d in CLASS_NUMBER_ONE_FIELDS:
        fieldobj = QuadField(d)
        for alpha, beta, gamma, space, lattice, delta in surviving_forms(fieldobj, 2):
            if space.definiteness() != Definiteness.INDEFINITE:
                continue
            result.cases += 1
            report, _, discs_equal = run_row(space, lattice, delta, config)
            if report.verdict != VERDICT_REPRESENTED:
                result.record(form=jsonio.herm_obj(space), verdict=report.verdict)
            elif not discs_equal:
                result.record(form=jsonio.herm_obj(space), error="discriminants differ")
    return result


SUITES = {
    "polarize": suite_polarize,
    "algebra": suite_algebra,
    "order": suite_order,
    "disc": suite_disc,
    "represent": suite_represent,
}


def run_suites(names, seed=0):
    if "all" in names:
        names = list(SUITES)
    return [SUITES[name](seed=seed) for name in names]

"""Desk-scale enumeration of integral forms and the end-to-end pipeline.

Forms are enumerated on the standard lattice B^2 with integer diagonal
entries alpha, beta in [-H, H] and off-diagonal gamma running over the
inverse different (1/sqrt(d)) * (Z + Z*omega) with coefficient height at
most H; rows are ordered lexicographically by (alpha, beta, gamma).
"""

from __future__ import annotations

from .errors import NotIntegralError
from .hermitian import HermSpace, Lattice, Record
from .qfield import QuadField
from .quaternion import build_order
from .represent import VERDICT_REPRESENTED, RepresentConfig, represents_one_integral


class SweepRow(Record):
    """A form of the window with its space, Delta, definiteness and decision,
    and for a found point the order's discriminant and whether it is Delta."""

    __slots__ = (
        "alpha", "beta", "gamma", "space", "delta", "definiteness", "report",
        "order_disc", "discs_equal",
    )

    def __init__(
        self, alpha, beta, gamma, space, delta, definiteness, report, order_disc, discs_equal
    ):
        self.alpha = alpha
        self.beta = beta
        self.gamma = gamma
        self.space = space
        self.delta = delta
        self.definiteness = definiteness
        self.report = report
        self.order_disc = order_disc
        self.discs_equal = discs_equal


def iter_candidate_forms(field: QuadField, height: int):
    """All conjugate-symmetric Gram matrices in the enumeration window."""
    inv_sqrt = field.inverse_sqrt_d()
    rng = range(-height, height + 1)
    for alpha in rng:
        for beta in rng:
            for m in rng:
                for n in rng:
                    gamma = (field.elem(m, n)) * inv_sqrt
                    yield alpha, beta, gamma, HermSpace(field, alpha, beta, gamma)


def surviving_forms(field: QuadField, height: int):
    """Integral, nondegenerate forms on B^2 with square-free |Delta|.

    Each yielded space keeps its validated IntegralForm on the lattice
    (``space.integral_form``), which the later layers read.
    """
    lattice = Lattice.standard(field)
    for alpha, beta, gamma, space in iter_candidate_forms(field, height):
        if not space.is_nondegenerate():
            continue
        try:
            form = space.integral_form(lattice)
        except NotIntegralError:
            continue
        if any(e > 1 for e in form.delta_factors().values()):
            continue
        yield alpha, beta, gamma, space, lattice, form.delta


def run_row(space, lattice, delta, config: RepresentConfig) -> tuple:
    """Pipeline for one surviving form: represent, build the order, compare discs."""
    report = represents_one_integral(space, lattice, config)
    order_disc = None
    discs_equal = None
    if report.verdict == VERDICT_REPRESENTED:
        order, emb = build_order(space, lattice, report.witness)
        order_disc = order.discriminant()
        discs_equal = order_disc.value == delta.value
    return report, order_disc, discs_equal


def run_sweep(
    field: QuadField,
    height: int,
    config: RepresentConfig | None = None,
    target_disc: int | None = None,
) -> list[SweepRow]:
    config = config or RepresentConfig()
    rows = []
    for alpha, beta, gamma, space, lattice, delta in surviving_forms(field, height):
        if target_disc is not None and delta.value != target_disc:
            continue
        decision = run_row(space, lattice, delta, config)  # report, order_disc, discs_equal
        rows.append(SweepRow(alpha, beta, gamma, space, delta, space.definiteness(), *decision))
    return rows

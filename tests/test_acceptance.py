"""End-to-end acceptance suite.

Every check here is an exact identity over the rationals (zero tolerance);
each test prints one pass/fail line.  The two sweep-based tests share one
height-3 sweep over d in {-3, -7}.
"""

import fractions
import hashlib
import itertools
import random
import sys
from fractions import Fraction

import pytest

from hermquat import qfield
from hermquat import (
    Definiteness,
    HermSpace,
    Lattice,
    QuadField,
    QuatAlgebra,
    RepresentConfig,
    build_order,
    discriminant_form,
    linalg,
    local_test,
    order_to_pointed,
    is_optimal,
    represents_one_integral,
    run_sweep,
)
from hermquat.cli import _csv_rows
from hermquat.errors import HypothesisError, UnsupportedRamificationError
from hermquat.represent import VERDICT_REAL_OBSTRUCTION, VERDICT_REPRESENTED
from hermquat.verify import (
    suite_algebra,
    suite_disc,
    suite_order,
    suite_polarize,
)
from fraction_reference import algebra_table, mat_det, reduced_trace
from tests_fixtures import m2z_order

SEED = 20240801

# SHA-256 of `hermquat sweep --d <d> --height 3 --format csv` (search bound
# 50), recorded before the sweep computed its invariants once per row
HEIGHT3_CSV_SHA256 = {
    -3: "6f5b704613e8db96601a88ec76369661ab01ae591bd162fe0b3a80d41f770b75",
    -7: "6c9d840394d1aab8b35b156387b823e91aa858adbf7bf7df92a15884eefb0165",
}

# SHA-256 of `hermquat sweep --d <d> --height 2 --format csv` (search bound
# 50) over fields with other splitting at 2 and 3, and with class number 2
# (d = -15)
HEIGHT2_CSV_SHA256 = {
    -11: "7a264aa91eba72ac634373f243e1e959b5c6453c926de954497bdda2f0771822",
    -15: "48f103f90ec7742bc782d7fb983dda2202733ad6b17562c0372c7e60f9badcd2",
    -19: "f02f91b1a5c95c20731d3179b3131e39ee13471b9a1c45566be5e5e2775db8a5",
    -23: "aa7b9a6f8f7e050a423afe93da32ff6ffdde3630bceba908afbfae8a92af73d6",
}


def report(name: str, ok: bool, detail: str = ""):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())


@pytest.fixture(scope="module")
def desk_sweep():
    config = RepresentConfig(search_bound=50)
    rows = {}
    for d in (-3, -7):
        rows[d] = run_sweep(QuadField(d), 3, config)
    return rows


def test_polarization_suite():
    result = suite_polarize(seed=SEED)
    report("polarization (200 forms, 5 samples)", result.ok, f"{result.cases} cases")
    assert result.ok, result.failures[:1]
    assert result.cases == 200


def test_quaternion_structure_suite():
    result = suite_algebra(seed=SEED)
    report("quaternion structure (50 spaces x 100 pairs)", result.ok, f"{result.cases} cases")
    assert result.ok, result.failures[:1]
    assert result.cases == 50


def test_order_closure_suite():
    result = suite_order(seed=SEED)
    report("order closure and basis-product identities", result.ok, f"{result.cases} cases")
    assert result.ok, result.failures[:1]
    assert result.cases == 50


def test_trace_matrix_formula():
    # 4x4 trace Gram on (1, pi, u, pi*u) has determinant -(a^2-4b)^2 theta^2,
    # cross-checked against a permutation-expansion determinant oracle
    def permutation_det(m):
        total = Fraction(0)
        for perm in itertools.permutations(range(4)):
            sign = 1
            seen = list(perm)
            for i in range(4):
                for j in range(i + 1, 4):
                    if seen[i] > seen[j]:
                        sign = -sign
            term = Fraction(1)
            for i in range(4):
                term *= m[i][perm[i]]
            total += sign * term
        return total

    rng = random.Random(SEED)
    basis = [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]
    checked = 0
    failures = []
    while checked < 20:
        a = rng.randint(-5, 5)
        b = rng.randint(-6, 6)
        theta = Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))
        disc = a * a - 4 * b
        if theta == 0:
            continue
        from math import isqrt

        if disc >= 0 and isqrt(disc) ** 2 == disc:
            continue  # x^2 + a x + b must be irreducible over Q
        alg = QuatAlgebra(None, algebra_table(a, b, theta))
        tr = [
            [reduced_trace(alg, alg.mul(basis[i], basis[j])) for j in range(4)]
            for i in range(4)
        ]
        expected = -Fraction(disc) ** 2 * theta**2
        gauss = mat_det(tr)
        oracle = permutation_det(tr)
        if not (gauss == oracle == expected):
            failures.append((a, b, theta, gauss, oracle, expected))
        checked += 1
    report("trace-matrix determinant (20 triples)", not failures)
    assert not failures, failures[:1]


def test_discriminant_relation_suite():
    result = suite_disc(seed=SEED)
    report("discriminant relation on random lattices", result.ok, f"{result.cases} cases")
    assert result.ok, result.failures[:1]
    assert result.cases == 100


def test_m2z_end_to_end():
    order, emb = m2z_order()
    ok = True
    detail = []
    if order.discriminant().value != 1:
        ok, _ = False, detail.append("order disc")
    pointed = order_to_pointed(order, emb)
    if discriminant_form(pointed.space, pointed.lattice).value != 1:
        ok, _ = False, detail.append("form disc")
    if not is_optimal(emb):
        ok, _ = False, detail.append("optimality")
    rebuilt, _ = build_order(pointed.space, pointed.lattice, pointed.point)
    frame = pointed.frame
    basis = [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]
    for i in range(4):
        for j in range(4):
            transported = linalg.vec_mat(rebuilt.algebra.mul(basis[i], basis[j]), frame)
            if transported != order.algebra.mul(frame[i], frame[j]):
                ok = False
                detail.append(f"table at ({i},{j})")
    report("M2(Z) end-to-end fixture", ok, ",".join(detail))
    assert ok, detail


def test_local_global_desk_scale(desk_sweep):
    failures = []
    total = 0
    for d, rows in desk_sweep.items():
        for row in rows:
            if row.definiteness is not Definiteness.INDEFINITE:
                continue
            total += 1
            if row.report.verdict != VERDICT_REPRESENTED:
                failures.append((d, row.alpha, row.beta, str(row.gamma), row.report.verdict))
                continue
            if not all(r.solvable for r in row.report.locals):
                failures.append((d, row.alpha, row.beta, str(row.gamma), "local"))
                continue
            if row.space.h_value(row.report.witness) != 1:
                failures.append((d, row.alpha, row.beta, str(row.gamma), "witness"))
                continue
            if not row.discs_equal:
                failures.append((d, row.alpha, row.beta, str(row.gamma), "discs"))
    report(
        "local-global theorem at height 3",
        not failures,
        f"{total} indefinite square-free forms over d in (-3, -7)",
    )
    assert total > 1000
    assert not failures, failures[:3]


def test_sweep_csv_byte_identical(desk_sweep):
    digests = {
        d: hashlib.sha256(_csv_rows(rows).encode()).hexdigest()
        for d, rows in desk_sweep.items()
    }
    ok = digests == HEIGHT3_CSV_SHA256
    counts = {d: len(rows) for d, rows in desk_sweep.items()}
    report("height-3 sweep CSV byte-identical", ok, f"rows {counts}")
    assert ok, digests


def test_height2_sweep_csv_byte_identical_on_more_fields():
    config = RepresentConfig(search_bound=50)
    counts, digests = {}, {}
    for d in HEIGHT2_CSV_SHA256:
        rows = run_sweep(QuadField(d), 2, config)
        counts[d] = len(rows)
        digests[d] = hashlib.sha256(_csv_rows(rows).encode()).hexdigest()
    ok = digests == HEIGHT2_CSV_SHA256
    report("height-2 sweep CSV byte-identical on more fields", ok, f"rows {counts}")
    assert ok, digests


def test_sweep_form_side_stays_integer():
    # the form side reads definiteness, the Gram and Delta from integer
    # numerators, so a height-2 sweep takes one QElem norm (in
    # inverse_sqrt_d) and few calls into rational arithmetic
    files = {fractions.__file__, qfield.__file__}
    norm = qfield.QElem.norm.__code__
    counts = {"norm": 0, "rational": 0}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename in files:
            counts["rational"] += 1
            counts["norm"] += frame.f_code is norm

    sys.setprofile(profile)
    try:
        rows = run_sweep(QuadField(-7), 2)
    finally:
        sys.setprofile(None)
    ok = counts["norm"] <= 1 and counts["rational"] <= 120_000
    report("height-2 sweep stays in integers", ok, f"rows {len(rows)}, calls {counts}")
    assert ok, counts


def test_sign_convention_probe(desk_sweep):
    mismatches = []
    for d, rows in desk_sweep.items():
        for row in rows:
            positive = row.delta.value > 0
            indefinite = row.definiteness is Definiteness.INDEFINITE
            if positive != indefinite:
                mismatches.append((d, row.alpha, row.beta, str(row.gamma)))
    counts = {d: len(rows) for d, rows in desk_sweep.items()}
    report(
        "sign probe: Delta > 0 iff indefinite, row by row",
        not mismatches,
        f"rows {counts}",
    )
    assert not mismatches, mismatches[:3]


def test_negative_controls():
    F7 = QuadField(-7)
    std = Lattice.standard(F7)
    ok = True
    detail = []
    # negative definite -> real obstruction
    rep = represents_one_integral(HermSpace(F7, -1, -3, F7.zero()), std)
    if rep.verdict != VERDICT_REAL_OBSTRUCTION:
        ok = False
        detail.append("negative definite")
    # val_p(Delta) = 2 -> hypothesis error at p
    try:
        local_test(HermSpace(F7, 7, -7, F7.zero()), std, 7)
        ok = False
        detail.append("square-free hypothesis")
    except HypothesisError as err:
        if err.prime != 7:
            ok = False
            detail.append("wrong prime")
    # even field discriminant -> rejected by theorem-level routines
    F2 = QuadField(-2)
    try:
        represents_one_integral(
            HermSpace(F2, 1, -1, F2.zero()), Lattice.standard(F2)
        )
        ok = False
        detail.append("even discriminant accepted")
    except UnsupportedRamificationError:
        pass
    report("negative controls", ok, ",".join(detail))
    assert ok, detail

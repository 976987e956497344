"""The three benchmark workloads: inputs, timed operations and output checks.

Every workload is a closed loop driven from one thread: the next operation
starts when the previous one has returned.  Only public entry points of the
package are called: ``hermquat.cli.main`` in-process, ``run_sweep`` through
it, ``represents_one_integral`` and the ``jsonio`` functions.  Inputs are
made from the seed before they are timed; their making is not timed.

A failed operation is an exception or a failed output check; either makes
the run incorrect.  An indefinite form with square-free |Delta| left without
a witness at the search bound (the theorem guarantees one) is not a failure
but is counted as undecided: the program's answer, SearchExhausted, is
correct as far as it goes, and the share of such forms is the box-search
defect the ``witness_search`` workload is there to show.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import random
import shutil
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from statistics import median, quantiles
from time import perf_counter

import hermquat
from hermquat import cli, jsonio

# -- sweep: the acceptance window, cut to height 2 to fit one run.
SWEEP_FIELDS = (-3, -7)
SWEEP_HEIGHT = 2
SWEEP_SEARCH_BOUND = 50
# SHA-256 of `hermquat sweep --d D --height 2 --format csv --search-bound 50`,
# recorded at the commit that added the benchmark; any change fails the run.
SWEEP_CSV_SHA256 = {
    -3: "46c06188ac2a8311cca3fc9dc1154cb3c63775d9442311d3c468b1c6bdb1b912",
    -7: "c3d224be3614743b7c9a14375ff8377f5ac5ef3a1c62db054d2da96e2c7bc17f",
}

# -- witness_search: random integral forms on B^2 with square-free |Delta|.
WS_FIELDS = (-3, -7, -11, -19)
WS_DIAG = 200  # alpha, beta in [-200, 200]
WS_GAMMA = 60  # gamma = (m + n*omega)/sqrt(d) with |m|, |n| <= 60
WS_SEARCH_BOUND = 6
# Each block holds, per field, this many forms of each sign class, close to
# their natural shares (52 % indefinite, 22 % positive, 26 % negative
# definite), so that a run's mix of cheap and expensive forms is fixed.
WS_QUOTA = {"indefinite": 6, "positive": 3, "negative": 3}

# -- order_roundtrip: embedded orders over class-number-one fields.
OR_FIELDS = (-3, -7)
OR_BLOCK = 32


@dataclass
class Tally:
    """Outcome of a set of operations and their output checks."""

    attempted: int = 0
    failed: int = 0
    undecided: int = 0
    correct: bool = True
    problems: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    digest: "hashlib._Hash" = field(default_factory=hashlib.sha256)

    def fail(self, what: str):
        """One failed operation: an incorrect output or a crash."""
        self.failed += 1
        self.correct = False
        if len(self.problems) < 5:
            self.problems.append(what)

    def undecide(self):
        """One operation that ended correctly but without a settled answer."""
        self.undecided += 1

    def decided_frac(self) -> float:
        return 1 - (self.failed + self.undecided) / self.attempted


class Speed:
    """Machine speed, from a fixed probe interleaved with the workload.

    A shared machine drifts in speed; the one the benchmark was defined on
    switched between a fast and a slow phase every second or two, up to a
    third apart, and drifted as much within minutes.  A fixed piece of exact
    rational arithmetic, the kind of work the package does, runs for about
    2.5 % of the time, spread evenly over the operations.  ``factor`` is its
    mean time over ``REF_S``: above 1 when the machine runs slow.  Times
    divided by it are in reference seconds, which do not drift with the
    machine.  ``local`` does the same per operation with the probes nearest
    to it, for latency percentiles.
    """

    REF_S = 0.006  # about the median probe time where the benchmark was defined
    EVERY_S = 0.25  # one probe per this much operation time
    NEAR = 2  # probes on each side of an operation for its local factor

    def __init__(self):
        self.times = []
        self.marks = []  # operations done when each probe ran
        self.ops = 0
        self._pending = 0.0
        for _ in range(10):  # warm-up, not recorded
            _probe_work()

    def probe(self):
        t0 = perf_counter()
        _probe_work()
        self.times.append(perf_counter() - t0)
        self.marks.append(self.ops)

    def tick(self, op_seconds: float):
        """Accounts for one operation of ``op_seconds``, probing as often as due."""
        self.ops += 1
        self._pending += op_seconds
        while self._pending >= self.EVERY_S:
            self._pending -= self.EVERY_S
            self.probe()

    def factor(self) -> float:
        if not self.times:
            self.probe()
        return sum(self.times) / len(self.times) / self.REF_S

    def local(self, latencies):
        """Each operation's time over the mean of the probes nearest to it."""
        if not self.times:
            self.probe()
        out = []
        for i, t in enumerate(latencies):
            j = bisect_left(self.marks, i + 1)  # first probe after operation i
            near = self.times[max(0, j - self.NEAR):j + self.NEAR] or self.times[-self.NEAR:]
            out.append(t * len(near) * self.REF_S / sum(near))
        return out


def _probe_work():
    """Determinants of forty fixed 4x4 rational matrices by elimination."""
    for s in range(1, 41):
        m = [[Fraction((i * 7 + j * 3 + s) % 11 - 5, (i + j + s) % 5 + 1) for j in range(4)]
             for i in range(4)]
        det = Fraction(1)
        for c in range(4):
            p = next((r for r in range(c, 4) if m[r][c]), None)
            if p is None:
                break
            if p != c:
                m[c], m[p] = m[p], m[c]
                det = -det
            det *= m[c][c]
            for r in range(c + 1, 4):
                f = m[r][c] / m[c][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]


def percentile_ms(values, q: int) -> float:
    return quantiles(values, n=100, method="inclusive")[q - 1] * 1e3


def fields_of(workload: str):
    return {"sweep": SWEEP_FIELDS, "witness_search": WS_FIELDS, "order_roundtrip": OR_FIELDS}[
        workload
    ]


# ---------------------------------------------------------------------------
# Exact arithmetic of the benchmark's own, for the output checks.
# Every field used has d = 1 mod 4, so omega = (1 + sqrt(d))/2 and an element
# a + b*omega is the pair (a + b/2, b/2) in the basis (1, sqrt(d)).


def _sd(a, b):
    return (Fraction(a) + Fraction(b) / 2, Fraction(b) / 2)


def _mul(x, y, d):
    return (x[0] * y[0] + d * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _norm(x, d):
    return x[0] * x[0] - d * x[1] * x[1]


def form_value(d, alpha, beta, m, n, x, y) -> Fraction:
    """h(x, y) = alpha*n(x) + beta*n(y) + tr(x * conj(y) * gamma).

    ``x`` and ``y`` are (a, b) omega-coordinates; gamma = (m + n*omega)/sqrt(d).
    """
    gamma = (Fraction(n, 2), (m + Fraction(n, 2)) / d)
    xs, ys = _sd(*x), _sd(*y)
    cross = _mul(_mul(xs, (ys[0], -ys[1]), d), gamma, d)
    return alpha * _norm(xs, d) + beta * _norm(ys, d) + 2 * cross[0]


def form_delta(d, alpha, beta, m, n) -> int:
    """Delta = D*(alpha*beta - n(gamma)) on B^2, with D = d."""
    return d * alpha * beta + m * m + m * n + (1 - d) // 4 * n * n


def squarefree(n: int) -> bool:
    n = abs(n)
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return False
        p += 1
    return True


# ---------------------------------------------------------------------------
# sweep


def sweep_argv(d: int, height: int = SWEEP_HEIGHT):
    return [
        "sweep", "--d", str(d), "--height", str(height),
        "--format", "csv", "--search-bound", str(SWEEP_SEARCH_BOUND),
    ]


class RowClock:
    """Times each row the sweep takes from its row iterator, and probes speed.

    Row k's latency is the time between the requests for rows k and k+1: the
    filter work that found row k plus its pipeline.  Between rows the speed
    probe runs as often as ``speed`` asks; its time is left out of the row
    latencies and counted in ``paused``.
    """

    def __init__(self, speed: Speed):
        self.speed = speed
        self.latencies = []
        self.paused = 0.0
        self._original = None

    def __enter__(self):
        original = self._original = hermquat.sweep.surviving_forms

        def clocked(*args, **kwargs):
            it = original(*args, **kwargs)
            last = None
            while True:
                now = perf_counter()
                if last is not None:
                    self.latencies.append(now - last)
                    self.speed.tick(now - last)
                    self.paused += perf_counter() - now
                last = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                yield item

        hermquat.sweep.surviving_forms = clocked
        return self

    def __exit__(self, *exc):
        hermquat.sweep.surviving_forms = self._original


def check_sweep_csv(tally: Tally, d: int, height: int, code: int, text: str) -> int:
    """Counts the rows of one sweep call into ``tally``; returns the row count."""
    lines = list(csv.reader(io.StringIO(text)))
    rows = lines[1:]
    tally.attempted += len(rows)
    digest = hashlib.sha256(text.encode()).hexdigest()
    expected = SWEEP_CSV_SHA256.get(d) if height == SWEEP_HEIGHT else None
    if code != 0 or (expected is not None and digest != expected):
        for _ in rows:
            tally.fail(f"sweep d={d}: exit {code}, csv sha256 {digest}")
        return len(rows)
    for row in rows:
        _, _, _, delta, defin, verdict, witness, order_disc, discs_equal = row
        indefinite = defin == "Indefinite"
        if (Fraction(delta) > 0) != indefinite:
            tally.fail(f"sweep d={d}: sign of Delta vs {defin}: {row}")
        elif defin == "NegativeDefinite" and verdict != "RealObstruction":
            tally.fail(f"sweep d={d}: negative definite row not RealObstruction: {row}")
        elif discs_equal != ("true" if order_disc else ""):
            tally.fail(f"sweep d={d}: discs_equal on {row}")
        elif indefinite and not witness:
            tally.undecide()
    return len(rows)


def sweep_once(tally: Tally, d: int, height: int = SWEEP_HEIGHT):
    """One in-process `hermquat sweep` call; returns (rows, seconds)."""
    buf = io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(sweep_argv(d, height))
    except Exception as exc:  # a crash is a failed operation, reported, not raised
        tally.attempted += 1
        tally.fail(f"sweep d={d}: {exc!r}")
        return 0, perf_counter() - t0
    elapsed = perf_counter() - t0
    text = buf.getvalue()
    tally.digest.update(text.encode())
    return check_sweep_csv(tally, d, height, code, text), elapsed


def measure_sweep(seconds: float, seed: int, speed: Speed):
    """Alternate the two fields until ``seconds`` of sweep time have passed.

    The enumeration is the input, so the seed is not used.  Throughput is
    the window's rows over the sum of each field's median call time.
    """
    del seed
    tally = Tally()
    rows, times = {}, {d: [] for d in SWEEP_FIELDS}
    k = 0
    while k < len(SWEEP_FIELDS) or sum(map(sum, times.values())) < seconds:
        d = SWEEP_FIELDS[k % len(SWEEP_FIELDS)]
        k += 1
        with RowClock(speed) as clock:
            rows[d], elapsed = sweep_once(tally, d)
        times[d].append(elapsed - clock.paused)
        tally.latencies += clock.latencies
    ops_per_s = sum(rows.values()) / sum(median(t) for t in times.values())
    return tally, ops_per_s


# ---------------------------------------------------------------------------
# witness_search


@dataclass
class FormCase:
    d: int
    alpha: int
    beta: int
    m: int
    n: int
    delta: int
    space: object = None


def sign_class(alpha: int, delta: int) -> str:
    if delta > 0:
        return "indefinite"
    return "positive" if alpha > 0 else "negative"


def witness_block(rng: random.Random):
    """One block of forms, per field the quota of each sign class, shuffled."""
    block = []
    for d in WS_FIELDS:
        need = dict(WS_QUOTA)
        while any(need.values()):
            alpha = rng.randint(-WS_DIAG, WS_DIAG)
            beta = rng.randint(-WS_DIAG, WS_DIAG)
            m = rng.randint(-WS_GAMMA, WS_GAMMA)
            n = rng.randint(-WS_GAMMA, WS_GAMMA)
            delta = form_delta(d, alpha, beta, m, n)
            if delta == 0 or not squarefree(delta):
                continue
            cls = sign_class(alpha, delta)
            if need[cls]:
                need[cls] -= 1
                block.append(FormCase(d, alpha, beta, m, n, delta))
    rng.shuffle(block)
    return block


class WitnessInputs:
    """Seeded stream of witness-search forms with their spaces prebuilt."""

    def __init__(self, seed: int):
        self.rng = random.Random(f"witness_search:{seed}")
        self.fields = {d: hermquat.QuadField(d) for d in WS_FIELDS}
        self.lattices = {d: hermquat.Lattice.standard(F) for d, F in self.fields.items()}
        self.config = hermquat.RepresentConfig(search_bound=WS_SEARCH_BOUND)

    def block(self):
        cases = witness_block(self.rng)
        for c in cases:
            F = self.fields[c.d]
            c.space = hermquat.HermSpace(F, c.alpha, c.beta, F.elem(c.m, c.n) * F.inverse_sqrt_d())
        return cases


def check_witness(tally: Tally, c: FormCase, report):
    """Checks one decision with the benchmark's own arithmetic."""
    tag = f"form d={c.d} alpha={c.alpha} beta={c.beta} m={c.m} n={c.n}"
    w = report.witness
    if report.discriminant is None or report.discriminant.value != c.delta:
        tally.fail(f"{tag}: Delta {report.discriminant} != {c.delta}")
    elif sign_class(c.alpha, c.delta) == "negative" and report.verdict != "RealObstruction":
        tally.fail(f"{tag}: negative definite but {report.verdict}")
    elif (w is not None) != (report.verdict == "Represented"):
        tally.fail(f"{tag}: verdict {report.verdict} with witness {w}")
    elif w is not None:
        coords = [w[0].a, w[0].b, w[1].a, w[1].b]
        if any(Fraction(x).denominator != 1 for x in coords):
            tally.fail(f"{tag}: witness {w} not in B^2")
        elif form_value(c.d, c.alpha, c.beta, c.m, c.n, coords[:2], coords[2:]) != 1:
            tally.fail(f"{tag}: h(witness) != 1")
        else:
            tally.digest.update(repr(coords).encode())
    elif c.delta > 0:
        if report.verdict == "LocallyRepresentedSearchExhausted":
            tally.undecide()
        else:
            tally.fail(f"{tag}: indefinite with square-free Delta but {report.verdict}")
    else:
        tally.digest.update(report.verdict.encode())


def decide(tally: Tally, inputs: WitnessInputs, c: FormCase):
    tally.attempted += 1
    t0 = perf_counter()
    try:
        report = hermquat.represents_one_integral(c.space, inputs.lattices[c.d], inputs.config)
    except Exception as exc:  # a crash is a failed operation, reported, not raised
        tally.latencies.append(perf_counter() - t0)
        tally.fail(f"form d={c.d} alpha={c.alpha} beta={c.beta}: {exc!r}")
        return
    tally.latencies.append(perf_counter() - t0)
    check_witness(tally, c, report)


def measure_witness(seconds: float, seed: int, speed: Speed):
    """Whole blocks of forms until ``seconds`` of decision time have passed."""
    tally = Tally()
    inputs = WitnessInputs(seed)
    while sum(tally.latencies) < seconds:
        for c in inputs.block():
            decide(tally, inputs, c)
            speed.tick(tally.latencies[-1])
    return tally, len(tally.latencies) / sum(tally.latencies)


# ---------------------------------------------------------------------------
# order_roundtrip


def _mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def random_basis_change(rng: random.Random, adds, scales, steps: int = 8):
    """(M, M^-1) for a random product of elementary 4x4 row operations."""
    m = [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]
    inv = [row[:] for row in m]
    for _ in range(steps):
        i, j = rng.sample(range(4), 2)
        c = Fraction(rng.choice(adds))
        # row_i += c*row_j on M; the inverse takes col_j -= c*col_i
        m[i] = [x + c * y for x, y in zip(m[i], m[j])]
        for row in inv:
            row[j] -= c * row[i]
        s = Fraction(rng.choice(scales))
        k = rng.randrange(4)
        m[k] = [s * x for x in m[k]]
        for row in inv:
            row[k] /= s
    return m, inv


@dataclass
class OrderCase:
    path: str
    disc: int  # D * d(Lambda, h) of the generating pointed lattice


class OrderInputs:
    """Seeded embedded orders, written as order files under ``workdir``.

    A pool of orders comes from integral pointed lattices (Lambda, h, v1)
    with Lambda = B*v1 + B*v2 for random v1, v2 and the hermitian Gram
    [[1, g], [g*, b]] on (v1, v2).  Every case is a pool order written in a
    fresh random Z-basis and a fresh random rational basis of the algebra,
    so that no two files are alike and no table is canonical.
    """

    POOL = 32

    def __init__(self, seed: int, workdir: str):
        self.rng = random.Random(f"order_roundtrip:{seed}")
        self.fields = {d: hermquat.QuadField(d) for d in OR_FIELDS}
        self.workdir = workdir
        self.pool = [self._base() for _ in range(self.POOL)]
        self.made = 0

    def _pointed(self, F):
        rng = self.rng

        def elem():
            return F.elem(rng.randint(-2, 2), rng.randint(-2, 2))

        while True:
            v1, v2 = (elem(), elem()), (elem(), elem())
            det = v1[0] * v2[1] - v1[1] * v2[0]
            g = F.elem(rng.randint(-3, 3), rng.randint(-3, 3)) * F.inverse_sqrt_d()
            b = rng.randint(-12, 12)
            if det and b != g.norm():
                break
        # S = P^-1 G P^-*, with P the rows (v1, v2): then (v1, v2) has Gram G
        pinv = [[v2[1] / det, -v1[1] / det], [-v2[0] / det, v1[0] / det]]
        gram = [[F.one(), g], [g.conj(), F.rational(b)]]
        left = [[pinv[i][0] * gram[0][j] + pinv[i][1] * gram[1][j] for j in range(2)]
                for i in range(2)]
        s = [[left[i][0] * pinv[j][0].conj() + left[i][1] * pinv[j][1].conj() for j in range(2)]
             for i in range(2)]
        space = hermquat.HermSpace(F, s[0][0].a, s[1][1].a, s[0][1])
        return space, hermquat.lattice_from_B_basis(v1, v2), v1, F.D * (b - g.norm())

    def _base(self):
        d = self.rng.choice(OR_FIELDS)
        space, lattice, point, disc = self._pointed(self.fields[d])
        order, emb = hermquat.build_order(space, lattice, point)
        return d, order.algebra.table, order.zbasis, order.one_coords, emb.omega_image, int(disc)

    def case(self) -> OrderCase:
        d, table, zbasis, one, omega, disc = self.pool[self.made % self.POOL]
        u, u_inv = random_basis_change(self.rng, (1, -1, 2, -2), (1, -1))
        m, m_inv = random_basis_change(self.rng, (1, -1, 2, -2), (1, -1, 2), steps=4)
        # With e'_i = sum_k m[i][k] e_k and rows l of left_i = e'_i e_l, the
        # products e'_i e'_j are the rows of m @ left_i, in new coordinates
        # (m @ left_i) @ m^-1.
        new_table = []
        for i in range(4):
            left = [[sum(m[i][k] * table[k][l][t] for k in range(4)) for t in range(4)]
                    for l in range(4)]
            new_table.append(_mat_mul(_mat_mul(m, left), m_inv))
        obj = {
            "d": d,
            "mult_table": [[[jsonio.rat_str(x) for x in e] for e in row] for row in new_table],
            "zbasis": [[jsonio.rat_str(x) for x in row] for row in _mat_mul(_mat_mul(u, zbasis), m_inv)],
            "one": [jsonio.rat_str(x) for x in _mat_mul([one], u_inv)[0]],
            "omega_image": [jsonio.rat_str(x) for x in _mat_mul([omega], u_inv)[0]],
        }
        path = os.path.join(self.workdir, f"order-{self.made}.json")
        self.made += 1
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return OrderCase(path, disc)

    def block(self, n: int = OR_BLOCK):
        return [self.case() for _ in range(n)]


def check_roundtrip(tally: Tally, c: OrderCase, code: int, text: str):
    tag = os.path.basename(c.path)
    if code != 0:
        tally.fail(f"{tag}: exit {code}")
        return
    try:
        out = jsonio.loads(text)
        jsonio.parse_form(out)
        optimal = out["optimal"]
        order_disc = out["order_discriminant"]["value"]
        form_disc = out["discriminant"]["value"]
    except (hermquat.Error, KeyError, TypeError) as exc:
        tally.fail(f"{tag}: output does not reparse: {exc!r}")
        return
    if optimal is not True:
        tally.fail(f"{tag}: embedding not optimal")
    elif order_disc != form_disc:
        tally.fail(f"{tag}: order discriminant {order_disc} != form discriminant {form_disc}")
    elif order_disc != str(c.disc):
        tally.fail(f"{tag}: discriminant {order_disc} != {c.disc} of the generating lattice")
    else:
        tally.digest.update(text.encode())


def roundtrip(tally: Tally, c: OrderCase):
    tally.attempted += 1
    buf = io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(["from-order", c.path])
    except Exception as exc:  # a crash is a failed operation, reported, not raised
        tally.latencies.append(perf_counter() - t0)
        tally.fail(f"{os.path.basename(c.path)}: {exc!r}")
        return
    tally.latencies.append(perf_counter() - t0)
    check_roundtrip(tally, c, code, buf.getvalue())


@contextlib.contextmanager
def workdir(root: str):
    path = os.path.join(root, f"tmp-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def measure_roundtrip(seconds: float, seed: int, speed: Speed, outdir: str):
    """Blocks of fresh orders until ``seconds`` of round-trip time have passed."""
    tally = Tally()
    with workdir(outdir) as tmp:
        inputs = OrderInputs(seed, tmp)
        while sum(tally.latencies) < seconds:
            for c in inputs.block():
                roundtrip(tally, c)
                speed.tick(tally.latencies[-1])
                os.remove(c.path)
    return tally, len(tally.latencies) / sum(tally.latencies)


MEASURE = {
    "sweep": lambda seconds, seed, speed, outdir: measure_sweep(seconds, seed, speed),
    "witness_search": lambda seconds, seed, speed, outdir: measure_witness(seconds, seed, speed),
    "order_roundtrip": measure_roundtrip,
}

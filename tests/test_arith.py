"""The package's number theory against sympy, which stays the tests' reference."""

import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
import sympy

import hermquat
from hermquat import QuadField
from hermquat.arith import FACTOR_LIMIT, PSI_13, factorint, isprime, sqrt_mod
from hermquat.errors import InputError

# Carmichael numbers, all at most FACTOR_LIMIT
CARMICHAEL = (
    561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185,
    5394826801, 232250619601, 9746347772161, 1436697831295441,
    60977817398996785,
)
# psi_k, the least strong pseudoprime to the first k prime bases, for
# k = 1..9 and 12; psi_9 = 3825123056546413051 passes the bases 2 to 23
STRONG_PSEUDOPRIMES = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 3825123056546413051, 318665857834031151167461,
)


def log_uniform(rng, count, top):
    return [int(math.exp(rng.uniform(0, math.log(top)))) for _ in range(count)]


def chernick(count):
    """Carmichael numbers (6k+1)(12k+1)(18k+1) with three prime factors."""
    out, k = [], 1
    while len(out) < count:
        ps = (6 * k + 1, 12 * k + 1, 18 * k + 1)
        if all(sympy.isprime(p) for p in ps):
            out.append(math.prod(ps))
        k += 1
    return out


def assert_factorization(n, f):
    """f is the factorization of n: by uniqueness it is sympy's."""
    assert list(f) == sorted(f)
    assert all(e >= 1 and sympy.isprime(p) for p, e in f.items())
    assert math.prod(p**e for p, e in f.items()) == n


class TestIsprime:
    def test_agrees_with_sympy_on_random_inputs(self):
        for n in log_uniform(random.Random(11), 10**5, FACTOR_LIMIT):
            assert isprime(n) == sympy.isprime(n), n

    def test_small_range_exhaustive(self):
        assert [n for n in range(-5, 5000) if isprime(n)] == list(sympy.primerange(5000))

    def test_carmichael_and_strong_pseudoprimes_are_composite(self):
        for n in CARMICHAEL + STRONG_PSEUDOPRIMES + tuple(chernick(20)):
            assert not isprime(n) and not sympy.isprime(n), n

    def test_prime_powers_are_composite(self):
        for p in (1031, 65537, 999983, 2147483647, 999999937):
            for k in range(2, 5):
                if p**k < PSI_13:
                    assert not isprime(p**k)
            assert isprime(p)

    def test_large_primes_below_psi_13(self):
        for n in (2**61 - 1, 2**64 - 59, sympy.prevprime(PSI_13), 2**81 - 1 + 2**80):
            assert isprime(n) == sympy.isprime(n), n

    def test_beyond_psi_13_raises(self):
        for n in (PSI_13, 2**89 - 1, 10**30 + 57):
            with pytest.raises(InputError):
                isprime(n)
        # a small factor still decides exactly
        assert not isprime(PSI_13 * 3)


class TestFactorint:
    def test_agrees_with_sympy_on_random_inputs(self):
        ns = log_uniform(random.Random(12), 10**5, FACTOR_LIMIT)
        for n in ns[:1000]:
            assert factorint(n) == sympy.factorint(n), n
        for n in ns:
            assert_factorization(n, factorint(n))

    def test_carmichael_numbers(self):
        for n in CARMICHAEL + tuple(chernick(20)):
            assert factorint(n) == sympy.factorint(n), n

    def test_prime_powers(self):
        for p in (2, 3, 1021, 1031, 65537, 999983, 999999937):
            for k in range(1, 64):
                if p**k > FACTOR_LIMIT:
                    break
                assert factorint(p**k) == {p: k}
                for m in (6, 1031 * 1033):
                    if m * p**k <= FACTOR_LIMIT:
                        assert factorint(m * p**k) == sympy.factorint(m * p**k)

    def test_semiprime_below_the_limit_is_fast(self):
        t0 = time.perf_counter()
        assert factorint(999999937 * 999999929) == {999999929: 1, 999999937: 1}
        assert time.perf_counter() - t0 < 1.0

    def test_limits(self):
        assert factorint(1) == {}
        assert factorint(FACTOR_LIMIT) == {2: 18, 5: 18}
        for n in (0, -6, FACTOR_LIMIT + 1, 3825123056546413051):
            with pytest.raises(InputError):
                factorint(n)


class TestSqrtMod:
    # p - 1 divisible by 2^16 or more, where Tonelli-Shanks takes its long branch
    TWO_ADIC_PRIMES = (
        65537, 7340033, 167772161, 469762049, 998244353, 2013265921,
        3221225473, 2**64 - 2**32 + 1,
    )

    def test_primes_are_prime(self):
        assert all(sympy.isprime(p) for p in self.TWO_ADIC_PRIMES)

    def test_agrees_with_sympy_on_two_adic_primes(self):
        rng = random.Random(13)
        for p in self.TWO_ADIC_PRIMES:
            for a in list(range(40)) + [rng.randrange(p) for _ in range(60)]:
                assert sqrt_mod(a, p) == sympy.sqrt_mod(a, p), (a, p)

    def test_agrees_with_sympy_on_small_primes(self):
        rng = random.Random(14)
        for p in sympy.primerange(2, 2000):
            for a in {0, 1, p - 1, *(rng.randrange(p) for _ in range(10))}:
                assert sqrt_mod(a, p) == sympy.sqrt_mod(a, p), (a, p)

    def test_root_is_least(self):
        for p in (13, 10007, 998244353):
            for a in range(1, 30):
                r = sqrt_mod(a, p)
                if r is not None:
                    assert r * r % p == a % p and r <= p - r


class TestInputLimits:
    def test_quadfield_rejects_large_d(self):
        with pytest.raises(InputError):
            QuadField(-(FACTOR_LIMIT + 3))

    def test_quadfield_at_the_limit_is_fast(self):
        t0 = time.perf_counter()
        field = QuadField(-999999937 * 999999929)
        assert field.ramified_primes == (2, 999999929, 999999937)
        assert time.perf_counter() - t0 < 1.0


def test_cli_import_leaves_sympy_unloaded():
    package_root = str(Path(hermquat.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
    code = "import sys, hermquat.cli; print('sympy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.strip() == "False"

"""Elementary number theory for the local-global test.

The test needs the primes of 2*D*Delta, square roots mod p for the local
certificates, and primality.  This module provides the three without any
dependency:

- ``isprime``: trial division by the primes below 2^10, then deterministic
  Miller-Rabin with the first 13 prime bases, exact below
  psi_13 = 3317044064679887385961981 (Sorenson and Webster, Math. Comp. 86,
  2017).  Where that test would be needed above psi_13 it raises
  ``InputError``; it never guesses.
- ``sqrt_mod``: Tonelli-Shanks (Cohen, GTM 138, Algorithm 1.5.1).
- ``factorint``: trial division, then Pollard-Brent rho (Brent, BIT 20,
  1980) on the cofactors Miller-Rabin finds composite.  It refuses inputs
  above ``FACTOR_LIMIT``: rho needs about n^(1/4) steps on a semiprime, a
  fraction of a second there, while Miller-Rabin stays exact far above it.
"""

from __future__ import annotations

from math import gcd

from .errors import InputError

# The largest |d| and |Delta| the package factors.
FACTOR_LIMIT = 10**18

# The least strong pseudoprime to the first 13 prime bases.
PSI_13 = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

_TRIAL_BOUND = 1 << 10
_sieve = bytearray([1]) * _TRIAL_BOUND
_sieve[:2] = b"\x00\x00"
for _i in range(2, 32):
    if _sieve[_i]:
        _sieve[_i * _i :: _i] = bytes(len(range(_i * _i, _TRIAL_BOUND, _i)))
_SMALL_PRIMES = tuple(i for i in range(_TRIAL_BOUND) if _sieve[i])
del _sieve, _i


def isprime(n: int) -> bool:
    """True exactly when n is prime.

    Raises ``InputError`` for an n >= psi_13 with no prime factor below 2^10.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if p * p > n:
            return True
        if n % p == 0:
            return n == p
    return _miller_rabin(n)


def _miller_rabin(n: int) -> bool:
    """Primality of an n with no prime factor below 2^10, so above every base."""
    if n >= PSI_13:
        raise InputError(f"{n} is beyond the exact primality range (< {PSI_13})")
    # n - 1 = 2^s * t with t odd
    s = ((n - 1) & (1 - n)).bit_length() - 1
    t = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, t, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def sqrt_mod(a: int, p: int) -> int | None:
    """The least r >= 0 with r^2 = a mod the prime p, or None if there is none.

    The two roots are r and p - r, and the smaller one is returned.
    """
    a %= p
    if a < 2:  # also every a mod 2
        return a
    if pow(a, (p - 1) >> 1, p) != 1:
        return None
    # p - 1 = 2^e * q with q odd
    e = ((p - 1) & (1 - p)).bit_length() - 1
    q = (p - 1) >> e
    if e == 1:
        r = pow(a, (p + 1) >> 2, p)
    else:
        n = 2
        while pow(n, (p - 1) >> 1, p) != p - 1:
            n += 1
        # invariants: a*b = x^2, y has order 2^e, b has order dividing 2^(e-1)
        y = pow(n, q, p)
        x = pow(a, (q - 1) >> 1, p)
        b = a * x * x % p
        x = a * x % p
        while b != 1:
            m, t = 1, b * b % p
            while t != 1:
                m += 1
                t = t * t % p
            t = pow(y, 1 << (e - m - 1), p)
            y = t * t % p
            e = m
            x = x * t % p
            b = b * y % p
        r = x
    return min(r, p - r)


def _brent_factor(n: int) -> int:
    """A proper divisor of the composite n, by the rho iteration y -> y^2 + c
    for c = 1, 2, ... from y = 2: deterministic, so factorizations repeat."""
    c, m = 0, 128
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            # the batched product overshot: step back one term at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


def factorint(n: int) -> dict[int, int]:
    """The factorization {prime: exponent} of 1 <= n <= FACTOR_LIMIT, keys ascending."""
    if n < 1:
        raise InputError(f"cannot factor {n}: not a positive integer")
    if n > FACTOR_LIMIT:
        raise InputError(f"cannot factor {n}: larger than the limit {FACTOR_LIMIT}")
    factors: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors[p] = e
    # what is left has no prime factor below 2^10
    pending = [n] if n > 1 else []
    while pending:
        m = pending.pop()
        if m < _TRIAL_BOUND * _TRIAL_BOUND or _miller_rabin(m):
            factors[m] = factors.get(m, 0) + 1
        else:
            g = _brent_factor(m)
            pending += (g, m // g)
    return dict(sorted(factors.items()))

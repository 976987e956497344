"""Imaginary quadratic fields Q(sqrt(d)) and their maximal orders.

Elements are stored in the omega-basis ``a + b*omega`` where ``omega`` is
``(1+sqrt(d))/2`` for d = 1 mod 4 and ``sqrt(d)`` otherwise, so the ring of
integers is exactly the elements with integer coordinates.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from numbers import Rational

from .arith import factorint, isprime
from .errors import InputError


class SplitType(Enum):
    SPLIT = "split"
    INERT = "inert"
    RAMIFIED = "ramified"


class QuadField:
    """Q(sqrt(d)) for a square-free negative integer d with |d| <= ``arith.FACTOR_LIMIT``."""

    __slots__ = ("d", "D", "omega_is_half", "min_a", "min_b", "ramified_primes")

    def __init__(self, d: int):
        if not isinstance(d, int) or d >= 0:
            raise InputError("d must be a negative integer")
        factors = factorint(-d)
        if any(e > 1 for e in factors.values()):
            raise InputError(f"d = {d} is not square-free")
        self.d = d
        if d % 4 == 1:
            # omega = (1 + sqrt(d))/2, root of x^2 - x + (1-d)/4
            self.D = d
            self.omega_is_half = True
            self.min_a = -1
            self.min_b = (1 - d) // 4
        else:
            # omega = sqrt(d), root of x^2 - d
            self.D = 4 * d
            self.omega_is_half = False
            self.min_a = 0
            self.min_b = -d
        # the primes dividing D
        self.ramified_primes = tuple(sorted(set(factors) | ({2} if self.D % 2 == 0 else set())))

    def elem(self, a, b=0) -> "QElem":
        return QElem(self, a, b)

    def rational(self, a) -> "QElem":
        return QElem(self, a, 0)

    def zero(self) -> "QElem":
        return QElem(self, 0, 0)

    def one(self) -> "QElem":
        return QElem(self, 1, 0)

    def omega(self) -> "QElem":
        return QElem(self, 0, 1)

    def sqrt_d(self) -> "QElem":
        if self.omega_is_half:
            return QElem(self, -1, 2)  # 2*omega - 1
        return QElem(self, 0, 1)

    def inverse_sqrt_d(self) -> "QElem":
        return self.sqrt_d() / self.d

    def __eq__(self, other) -> bool:
        return isinstance(other, QuadField) and other.d == self.d

    def __hash__(self) -> int:
        return hash(("QuadField", self.d))

    def __repr__(self) -> str:
        return f"QuadField({self.d})"


class QElem:
    """An element a + b*omega of Q(sqrt(d)), with exact rational a, b."""

    __slots__ = ("field", "a", "b")

    def __init__(self, field: QuadField, a, b=0):
        self.field = field
        self.a = a if type(a) is Fraction else Fraction(a)
        self.b = b if type(b) is Fraction else Fraction(b)

    def _coerce(self, other):
        if isinstance(other, QElem):
            if other.field != self.field:
                raise InputError("mixed fields in arithmetic")
            return other
        if isinstance(other, (int, Rational)):
            return QElem(self.field, other, 0)
        return None

    def __add__(self, other):
        if type(other) is QElem:
            return QElem(self.field, self.a + other.a, self.b + other.b)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QElem(self.field, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QElem(self.field, self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return QElem(self.field, -self.a, -self.b)

    def __mul__(self, other):
        if type(other) is not QElem:
            o = self._coerce(other)
            if o is None:
                return NotImplemented
            other = o
        # omega^2 = -min_a*omega - min_b
        field = self.field
        bb = self.b * other.b
        if bb:
            return QElem(
                field,
                self.a * other.a - bb * field.min_b,
                self.a * other.b + self.b * other.a - bb * field.min_a,
            )
        return QElem(
            field,
            self.a * other.a,
            self.a * other.b + self.b * other.a,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = o.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in the field")
        num = self * o.conj()
        return QElem(self.field, num.a / n, num.b / n)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Rational)):
            return self.b == 0 and self.a == other
        if isinstance(other, QElem):
            return (
                self.field == other.field
                and self.a == other.a
                and self.b == other.b
            )
        return NotImplemented

    def __hash__(self) -> int:
        if self.b == 0:
            return hash(self.a)
        return hash((self.field.d, self.a, self.b))

    def __bool__(self) -> bool:
        return bool(self.a or self.b)

    def conj(self) -> "QElem":
        # omega + conj(omega) = -min_a
        return QElem(self.field, self.a - self.field.min_a * self.b, -self.b)

    def norm(self) -> Fraction:
        ma, mb = self.field.min_a, self.field.min_b
        return self.a * self.a - ma * self.a * self.b + mb * self.b * self.b

    def trace(self) -> Fraction:
        return 2 * self.a - self.field.min_a * self.b

    def is_rational(self) -> bool:
        return self.b == 0

    def rational_value(self) -> Fraction:
        if self.b != 0:
            raise InputError(f"{self} is not rational")
        return self.a

    def __repr__(self) -> str:
        return f"QElem({self.field.d}, {self.a}, {self.b})"

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}*w"
        return f"{self.a}{'+' if self.b > 0 else ''}{self.b}*w"


def splitting(field: QuadField, p: int) -> SplitType:
    """Behavior of the rational prime p in the ring of integers."""
    if not isprime(p):
        raise InputError(f"{p} is not prime")
    D = field.D
    if D % p == 0:
        return SplitType.RAMIFIED
    if p == 2:
        # D odd here; 2 splits exactly when D = 1 mod 8
        return SplitType.SPLIT if D % 8 == 1 else SplitType.INERT
    ls = pow(D % p, (p - 1) // 2, p)
    return SplitType.SPLIT if ls == 1 else SplitType.INERT


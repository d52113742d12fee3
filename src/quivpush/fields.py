"""Exact scalars: arbitrary-precision rationals and prime fields.

All algebra modules are parameterized by a field object exposing
``zero``, ``one``, ``characteristic`` and ``parse``.  Elements support the
usual arithmetic operators exactly; there is no floating point anywhere.
"""

from __future__ import annotations

import re
from fractions import Fraction

MAX_PRIME = 2**31


class FieldError(ValueError):
    pass


class Fp:
    """An element of Z/p, stored reduced mod p."""

    __slots__ = ("p", "v")

    def __init__(self, p: int, v: int):
        self.p = p
        self.v = v % p

    def _coerce(self, other):
        if isinstance(other, Fp):
            if other.p != self.p:
                raise FieldError("mixed prime fields")
            return other
        if isinstance(other, int):
            return Fp(self.p, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Fp(self.p, self.v + other.v)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Fp(self.p, self.v - other.v)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Fp(self.p, self.v * other.v)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.v == 0:
            raise ZeroDivisionError("division by zero in prime field")
        return Fp(self.p, self.v * pow(other.v, self.p - 2, self.p))

    def __neg__(self):
        return Fp(self.p, -self.v)

    def __eq__(self, other):
        if isinstance(other, Fp):
            return self.p == other.p and self.v == other.v
        if isinstance(other, int):
            return self.v == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.v))

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return f"{self.v} (mod {self.p})"

    def __str__(self):
        return str(self.v)


class RationalField:
    """The rationals, backed by fractions.Fraction."""

    name = "q"
    characteristic = 0

    zero = Fraction(0)
    one = Fraction(1)

    def parse(self, text: str) -> Fraction:
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise FieldError(f"bad rational literal {text!r}") from exc

    def __repr__(self):
        return "RationalField()"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")


# Strong-pseudoprime tests to the bases 2, 3, 5 and 7 decide primality
# exactly below this bound (Jaeschke 1993), which exceeds MAX_PRIME.
_MR_BASES = (2, 3, 5, 7)
_MR_EXACT_BELOW = 3_215_031_751


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3,215,031,751."""
    if n >= _MR_EXACT_BELOW:
        raise FieldError(f"primality of {n} is not decided exactly")
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """Z/p for a prime p <= 2^31."""

    def __init__(self, p: int):
        if p > MAX_PRIME:
            raise FieldError(f"prime {p} exceeds 2^31")
        if not _is_prime(p):
            raise FieldError(f"{p} is not prime")
        self.p = self.characteristic = p
        self.name = f"fp:{p}"
        self.zero = Fp(p, 0)
        self.one = Fp(p, 1)

    def parse(self, text: str) -> Fp:
        frac = RationalField().parse(text)
        denom = frac.denominator % self.p
        if denom == 0:
            raise FieldError(f"literal {text!r} has denominator divisible by {self.p}")
        return Fp(self.p, frac.numerator) / Fp(self.p, denom)

    def __repr__(self):
        return f"PrimeField({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))


QQ = RationalField()


def field_from_name(name: str):
    """Resolve a CLI field spec: 'q', or 'fp:' and a prime in ASCII digits
    without a leading zero, so that each field has one spelling."""
    if name == "q":
        return QQ
    digits = re.fullmatch(r"fp:([1-9][0-9]*)", name)
    if digits:
        # more digits than MAX_PRIME has: too large, and int() may refuse them
        if len(digits[1]) > len(str(MAX_PRIME)):
            raise FieldError(f"a prime of {len(digits[1])} digits exceeds 2^31")
        return PrimeField(int(digits[1]))
    if name.startswith("fp:"):
        raise FieldError(f"bad field spec {name!r} (expected 'fp:' and a prime "
                         "in decimal digits without a leading zero)")
    raise FieldError(f"unknown field {name!r} (expected 'q' or 'fp:<prime>')")

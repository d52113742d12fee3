"""Exact scalars: a field is its characteristic.

Field(0) is Q and Field(p), for a prime p <= 2^31, is Z/p.  Scalars are
plain Python numbers: ints and Fractions over Q, and ints over Z/p, which
path_algebra.LinearCombination reduces mod p in its constructor.  A field
object only names the characteristic and parses literals; there is no
floating point anywhere.
"""

from __future__ import annotations

import re
from fractions import Fraction

MAX_PRIME = 2**31


class FieldError(ValueError):
    pass


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


class Field:
    """Q when characteristic == 0, else Z/p for a prime p <= 2^31."""

    __slots__ = ("characteristic",)

    def __init__(self, p: int):
        if p:
            if p > MAX_PRIME:
                raise FieldError(f"prime {p} exceeds 2^31")
            if not _is_prime(p):
                raise FieldError(f"{p} is not prime")
        self.characteristic = p

    def parse(self, text: str):
        """A Fraction over Q; over Z/p, the int in range(p) that the
        rational literal names."""
        try:
            frac = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise FieldError(f"bad rational literal {text!r}") from exc
        p = self.characteristic
        if not p:
            return frac
        if frac.denominator % p == 0:
            raise FieldError(f"literal {text!r} has denominator divisible by {p}")
        return frac.numerator * pow(frac.denominator, -1, p) % p

    def __repr__(self):
        return f"Field({self.characteristic})"

    def __eq__(self, other):
        return isinstance(other, Field) and other.characteristic == self.characteristic

    def __hash__(self):
        return hash(("Field", self.characteristic))


QQ = Field(0)


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
        return Field(int(digits[1]))
    if name.startswith("fp:"):
        raise FieldError(f"bad field spec {name!r} (expected 'fp:' and a prime "
                         "in decimal digits without a leading zero)")
    raise FieldError(f"unknown field {name!r} (expected 'q' or 'fp:<prime>')")

"""Generators and the precision each one carries.

A generator is an irrational input (a square root, a decimal read from
JSON) rounded to bits chosen where it is made, by the `bits` keyword of
parsing (default DEFAULT_PRECISION_BITS, at least 64).  It keeps its exact
binary value and its bits.  It is made with the pure mpmath.libmp
functions, which take the precision as an argument, so nothing reads or
switches mpmath's shared context.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
from mpmath.libmp import from_float, from_int, from_str, mpf_pos, mpf_sqrt, to_rational

from .errors import InvalidInput

DEFAULT_PRECISION_BITS = 200
ROUND = "n"  # round to nearest, mpmath's default

# The library never reads this: it is the precision of callers' own mpf
# arithmetic, for example on the values Endpoint.mpf() returns.
mpmath.mp.prec = DEFAULT_PRECISION_BITS


def checked_bits(bits) -> int:
    bits = int(bits)
    if bits < 64:
        raise ValueError("working precision must be at least 64 bits")
    return bits


class Generator:
    """The exact binary value of a real number rounded to bits.

    Identified by its value, with the hash computed once; never mutated.
    The raw mpf value _mpf_ lets mpmath functions accept it.  _float is
    float(value), correctly rounded, computed once for the float enclosures
    of intervals.Endpoint (an infinity when the value overflows float64).
    """

    __slots__ = ("value", "bits", "_mpf_", "_hash", "_float")

    def __init__(self, raw: tuple, bits: int):
        self.value = Fraction(*to_rational(raw))
        self.bits = bits
        self._mpf_ = raw
        self._hash = hash(self.value)
        try:
            self._float = float(self.value)
        except OverflowError:
            self._float = math.inf if self.value > 0 else -math.inf

    def __eq__(self, other):
        return isinstance(other, Generator) and self.value == other.value

    def __hash__(self):
        return self._hash


def _raw(x, bits: int) -> tuple:
    """x as a raw mpf value, read as mpf(x) reads it: ints, floats and mpf
    values exactly, a decimal string rounded to bits."""
    if isinstance(x, str):
        return from_str(x, bits, ROUND)
    if hasattr(x, "_mpf_"):
        return x._mpf_
    if isinstance(x, (int, float)):
        return from_float(x) if isinstance(x, float) else from_int(x)
    raise TypeError(f"cannot read {x!r} as a real number")


def make_generator(x, bits: int = DEFAULT_PRECISION_BITS) -> Generator:
    """x rounded to bits, or x itself when it is a generator.

    Raises InvalidInput for NaN, infinities and non-real values, which
    would otherwise compare as "equal" or fail deep inside arithmetic, and
    ValueError below 64 bits."""
    if isinstance(x, Generator):
        return x
    bits = checked_bits(bits)
    try:
        raw = mpf_pos(_raw(x, bits), bits, ROUND)
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"irrational part {x!r} is not a real number") from exc
    if raw[2] and not raw[1]:  # NaN or an infinity
        raise InvalidInput(f"irrational part {x!r} is not finite")
    return Generator(raw, bits)


def hp_sqrt(x, bits: int = DEFAULT_PRECISION_BITS) -> Generator:
    """sqrt(x) rounded to bits."""
    bits = checked_bits(bits)
    return Generator(mpf_sqrt(_raw(x, bits), bits, ROUND), bits)


def ambiguity_threshold(generators=()) -> Fraction:
    """The exact 2^-(bits/2) for the least bits among the generators, or
    the default bits without one: a difference, or a distance to an
    integer, smaller than this is treated as undecidable."""
    bits = min((g.bits for g in generators), default=DEFAULT_PRECISION_BITS)
    return Fraction(1, 1 << (bits // 2))

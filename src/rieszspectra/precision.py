"""Working precision: how generators are made, and the ambiguity threshold.

The default is 200 bits; it can be overridden by the RS_PRECISION_BITS
environment variable or at runtime with set_precision_bits(); both refuse
fewer than 64 bits.  Generators (square roots, decimals read from JSON) are
rounded to this precision inside workprec(), and printed at it; every
decision about a value is made on its exact rational value, against
ambiguity_threshold().
"""

from __future__ import annotations

import os
from fractions import Fraction

import mpmath

DEFAULT_PRECISION_BITS = 200
_ENV_VAR = "RS_PRECISION_BITS"


def _checked_bits(bits, name: str = "working precision") -> int:
    bits = int(bits)
    if bits < 64:
        raise ValueError(f"{name} must be at least 64 bits")
    return bits


_bits = _checked_bits(os.environ.get(_ENV_VAR, DEFAULT_PRECISION_BITS), _ENV_VAR)
mpmath.mp.prec = _bits  # so ad-hoc mpf arithmetic outside workprec() is safe too


def precision_bits() -> int:
    return _bits


def set_precision_bits(bits: int) -> None:
    global _bits
    _bits = _checked_bits(bits)
    mpmath.mp.prec = _bits


def workprec():
    """Context manager switching mpmath to the working precision."""
    return mpmath.workprec(_bits)


def ambiguity_threshold() -> Fraction:
    """The exact 2^-(bits/2): a difference, or a distance to an integer,
    smaller than this is treated as undecidable."""
    return Fraction(1, 1 << (_bits // 2))


def hp_sqrt(x) -> mpmath.mpf:
    with workprec():
        return mpmath.sqrt(x)


def frac_to_mpf(q: Fraction) -> mpmath.mpf:
    with workprec():
        return mpmath.mpf(q.numerator) / q.denominator

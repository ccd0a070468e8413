"""Working-precision context for all endpoint arithmetic.

The default is 200 bits; it can be overridden by the RS_PRECISION_BITS
environment variable or at runtime with set_precision_bits(); both refuse
fewer than 64 bits.  Every high-precision computation in the package goes
through workprec() so the active precision is consistent package-wide.
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


def ambiguity_threshold() -> mpmath.mpf:
    """Magnitude below which a nonzero difference is treated as undecidable."""
    with workprec():
        return mpmath.mpf(2) ** (-(_bits // 2))


def hp_sqrt(x) -> mpmath.mpf:
    with workprec():
        return mpmath.sqrt(x)


def frac_to_mpf(q: Fraction) -> mpmath.mpf:
    with workprec():
        return mpmath.mpf(q.numerator) / q.denominator

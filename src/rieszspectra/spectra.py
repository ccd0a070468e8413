"""Frequency sets as unions of arithmetic cosets with optional density filters.

A Spectrum is scale * (union of coset terms).  A term with the "all" filter
is the full coset modulus*Z + offset; a term with a density filter keeps the
rounded subsequence {modulus*(round(n/beta) + phase) + offset}, the
single-interval generator used throughout the constructions.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .errors import (
    AmbiguousEndpoint,
    IncompatibleShift,
    InvalidInput,
    LevelNotInNZ,
    OverlappingTerms,
)
from .intervals import Endpoint, parse_fraction
from .intervals import _json_array, _json_field, _json_value
from .precision import DEFAULT_PRECISION_BITS, ambiguity_threshold

_HALF = Fraction(1, 2)


@dataclass(frozen=True)
class AvdoninFilter:
    """Rounded-subsequence filter: keeps round_half_up(n/beta) + phase,
    for a density beta strictly inside (0, 1)."""

    beta: Endpoint
    phase: int = 0

    def __post_init__(self):
        # floor() == 0 puts beta in [0, 1) with one evaluation; an
        # irrational form at 0 would make floor() raise AmbiguousEndpoint
        beta = self.beta
        if beta.floor() != 0 or (beta.is_rational and beta.rational == 0):
            raise InvalidInput("beta must lie strictly inside (0,1)")

    def elements_in(self, lo: Fraction, hi: Fraction) -> list[int]:
        """All filtered values r + phase with r in the rounded image and
        r + phase in [lo, hi], ascending.

        The image n -> round_half_up(n/beta) is strictly increasing for
        0 < beta < 1, and r lies in [r_lo, r_hi] only for n within
        beta*(r -+ 1/2); n runs two past either end.  A rational beta rounds
        exactly, ties up; an irrational beta raises AmbiguousEndpoint at the
        first n whose n/beta + 1/2 lies within the threshold t of an integer.

        With beta = p/q, n/beta + 1/2 = (2nq + p) / (2p): one divmod gives
        its floor r and remainder rem at the first n, and each next n adds
        divmod(2q, 2p), carrying when rem reaches 2p.  The tie test
        min(rem, 2p - rem) < 2p*t is rem < cut or rem > 2p - cut, cut =
        ceil(2p*t) (0 for a rational beta).
        """
        beta = self.beta.exact()
        p, q = beta.numerator, beta.denominator
        r_lo, r_hi = lo - self.phase, hi - self.phase
        n_lo = math.ceil(beta * (r_lo - _HALF)) - 2
        n_hi = math.floor(beta * (r_hi + _HALF)) + 2
        t, den = ambiguity_threshold(self.beta.irr), 2 * p
        cut = 0 if self.beta.is_rational else -(-t.numerator * den // t.denominator)
        top, first, last = den - cut, math.ceil(r_lo), math.floor(r_hi)
        step, carry = divmod(2 * q, den)
        r, rem = divmod(2 * n_lo * q + p, den)
        out = []
        for n in range(n_lo, n_hi + 1):
            if rem < cut or rem > top:
                raise AmbiguousEndpoint(
                    f"rounding of {n}/beta is within the working-precision "
                    "threshold of an integer"
                )
            if first <= r <= last:
                out.append(r + self.phase)
            r, rem = r + step, rem + carry
            if rem >= den:
                r, rem = r + 1, rem - den
        return out

    def _count_in(self, lo: Fraction, hi: Fraction) -> int:
        """len(self.elements_in(lo, hi)) whenever that does not raise, in
        O(1): round_half_up(n/beta) is an integer of [lo - phase, hi -
        phase], that is of [r_lo, r_hi], exactly for n in [beta*(r_lo -
        1/2), beta*(r_hi + 1/2)), beta at its exact value."""
        beta = self.beta.exact()
        r_lo, r_hi = math.ceil(lo - self.phase), math.floor(hi - self.phase)
        return max(0, math.ceil(beta * (r_hi + _HALF)) - math.ceil(beta * (r_lo - _HALF)))

    def to_json(self) -> dict:
        q = self.beta.rational
        beta = f"{q.numerator}/{q.denominator}" if self.beta.is_rational else self.beta.decimal()
        return {"avdonin": {"beta": beta, "phase": self.phase}}


@dataclass(frozen=True)
class CosetTerm:
    """scale-free integer component: modulus*Z + offset, optionally filtered."""

    modulus: int
    offset: int
    filter: Optional[AvdoninFilter] = None

    def __post_init__(self):
        if self.modulus < 1:
            raise InvalidInput("modulus must be positive")
        if not 0 <= self.offset < self.modulus:
            raise InvalidInput("offset must lie in 0..modulus-1")

    @classmethod
    def _cosets(cls, modulus: int, offsets) -> tuple["CosetTerm", ...]:
        """The unfiltered terms modulus*Z + j for j in offsets, each already
        in 0..modulus-1, without the checks of __post_init__."""
        new, put, out = object.__new__, object.__setattr__, []
        for j in offsets:
            t = new(cls)
            put(t, "modulus", modulus)
            put(t, "offset", j)
            put(t, "filter", None)
            out.append(t)
        return tuple(out)

    def integers_in(self, lo: Fraction, hi: Fraction) -> list[int]:
        M, j = self.modulus, self.offset
        k_lo = Fraction(lo - j, M)
        k_hi = Fraction(hi - j, M)
        if self.filter is None:
            return [
                M * k + j
                for k in range(math.ceil(k_lo), math.floor(k_hi) + 1)
            ]
        return [M * r + j for r in self.filter.elements_in(k_lo, k_hi)]

    def _count_in(self, lo: Fraction, hi: Fraction) -> int:
        """len(self.integers_in(lo, hi)) whenever that does not raise."""
        M, j = self.modulus, self.offset
        k_lo, k_hi = Fraction(lo - j, M), Fraction(hi - j, M)
        if self.filter is None:
            return max(0, math.floor(k_hi) - math.ceil(k_lo) + 1)
        return self.filter._count_in(k_lo, k_hi)

    def to_json(self) -> dict:
        filt = "all" if self.filter is None else self.filter.to_json()
        return {"modulus": self.modulus, "offset": self.offset, "filter": filt}

    @classmethod
    def from_json(cls, obj: dict, *, bits=DEFAULT_PRECISION_BITS) -> "CosetTerm":
        obj = _json_value(obj, dict, "spectrum term")
        filt = obj.get("filter", "all")
        if filt == "all" or filt is None:
            parsed = None
        else:
            av = _json_field(filt, "avdonin", "spectrum term filter")
            # "p/q" for a rational beta, else the decimal of a generator
            beta = str(_json_field(av, "beta", "avdonin filter"))
            if "/" in beta:
                beta = Endpoint(parse_fraction(beta, "beta"))
            else:
                beta = Endpoint(0, beta, bits=bits)
            phase = _json_value(av.get("phase", 0), int, "avdonin filter field 'phase'")
            parsed = AvdoninFilter(beta=beta, phase=phase)
        return cls(
            modulus=_json_field(obj, "modulus", "spectrum term", int),
            offset=_json_field(obj, "offset", "spectrum term", int),
            filter=parsed,
        )


def _term_sort_key(t: CosetTerm):
    return (t.modulus, t.offset, t.filter is not None)


@dataclass(frozen=True)
class Spectrum:
    """scale * (union of coset terms); immutable."""

    scale: Fraction = Fraction(1)
    terms: tuple[CosetTerm, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.scale <= 0:
            raise InvalidInput("scale must be positive")
        object.__setattr__(self, "scale", Fraction(self.scale))
        object.__setattr__(self, "terms", tuple(self.terms))

    def _with_terms(self, terms: tuple) -> "Spectrum":
        """A spectrum of this (already checked) scale with terms, without
        the coercions of __post_init__."""
        out = object.__new__(Spectrum)
        object.__setattr__(out, "scale", self.scale)
        object.__setattr__(out, "terms", terms)
        return out

    @property
    def is_empty(self) -> bool:
        return not self.terms

    # -- enumeration ---------------------------------------------------

    def enumerate_integers(self, lo, hi) -> list[int]:
        """All underlying integers m with lo <= m <= hi, ascending.

        Raises OverlappingTerms if two terms generate the same integer.
        """
        lo = Fraction(lo)
        hi = Fraction(hi)
        out: list[int] = []
        for term in self.terms:
            out.extend(term.integers_in(lo, hi))
        out.sort()
        for u, v in zip(out, out[1:]):
            if u == v:
                raise OverlappingTerms(f"duplicate frequency {u} inside window")
        return out

    def enumerate(self, T) -> list[Fraction]:
        """Frequencies scale*m inside [-T, T], ascending."""
        T = Fraction(T)
        if T < 0:
            raise InvalidInput("window must be nonnegative")
        bound = T / self.scale
        ms = self.enumerate_integers(-bound, bound)
        return [self.scale * m for m in ms]

    # -- transformations -------------------------------------------------

    def shift(self, a) -> "Spectrum":
        """Translate by a; a must be a multiple of the scale."""
        if isinstance(a, int) and self.scale == 1:
            s = a
        else:
            a = Fraction(a)
            s = a / self.scale
            if s.denominator != 1:
                raise IncompatibleShift(f"shift {a} is not a multiple of scale {self.scale}")
            s = int(s)
        new_terms = []
        for t in self.terms:
            raw = t.offset + s
            off = raw % t.modulus
            carry = (raw - off) // t.modulus
            filt = t.filter
            if filt is not None and carry:
                filt = AvdoninFilter(beta=filt.beta, phase=filt.phase + carry)
            new_terms.append(CosetTerm(t.modulus, off, filt))
        return self._with_terms(tuple(new_terms))

    def dilate(self, c) -> "Spectrum":
        """Multiply every frequency by the positive rational c."""
        c = Fraction(c)
        if c <= 0:
            raise InvalidInput("dilation factor must be positive")
        return Spectrum(self.scale * c, self.terms)

    def scale_integers(self, factor: int) -> "Spectrum":
        """Multiply the underlying integer set by a positive integer, keeping
        the scale; maps a subset of Z onto a subset of factor*Z exactly."""
        if factor < 1:
            raise InvalidInput("factor must be a positive integer")
        new_terms = tuple(
            CosetTerm(t.modulus * factor, t.offset * factor, t.filter)
            for t in self.terms
        )
        return Spectrum(self.scale, new_terms)

    def union(self, *others: "Spectrum") -> "Spectrum":
        """The terms of self, then of each of others, in one concatenation."""
        scales = [self.scale, *(o.scale for o in others)]
        # equal neighbours make all equal; a shared scale object skips the compare
        if any(s is not t and s != t for s, t in zip(scales, scales[1:])):
            raise InvalidInput("can only union spectra with equal scale")
        return Spectrum(self.scale, self.terms + tuple(t for o in others for t in o.terms))

    def sorted_terms(self) -> "Spectrum":
        return Spectrum(self.scale, tuple(sorted(self.terms, key=_term_sort_key)))

    # -- bookkeeping -----------------------------------------------------

    def density(self) -> Endpoint:
        """Limiting count density #(spectrum in [-T,T]) / (2T), exact: a
        term contributes 1/modulus, or beta/modulus under a filter; the
        unfiltered terms are summed once per modulus."""
        full = Counter(t.modulus for t in self.terms if t.filter is None)
        total = Endpoint(sum(Fraction(c, M) for M, c in full.items()))
        for t in self.terms:
            if t.filter is not None:
                total = total + t.filter.beta * Fraction(1, t.modulus)
        return total * (1 / self.scale)

    def subset_of_lattice(self, N: int) -> bool:
        """True iff the spectrum lies in N*Z, decided exactly on its terms.

        A term M*(r + phase) + j, r over Z or over a rounded image whose
        gaps are the coprime floor(1/beta) and ceil(1/beta), lies in N*Z iff
        N | M and N | j; an exact beta = 1/q makes it (q*M)Z + M*phase + j.
        """
        if self.scale != 1:
            return False
        for t in self.terms:
            M, j = t.modulus, t.offset
            if t.filter is not None:
                beta = t.filter.beta.exact()
                if beta.numerator == 1:
                    M, j = beta.denominator * M, M * t.filter.phase + j
            if M % N or j % N:
                return False
        return True

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        return {
            "scale": f"{self.scale.numerator}/{self.scale.denominator}",
            "terms": [t.to_json() for t in self.terms],
        }

    @classmethod
    def from_json(cls, obj: dict, *, bits=DEFAULT_PRECISION_BITS) -> "Spectrum":
        obj = _json_value(obj, dict, "spectrum")
        return cls(
            scale=parse_fraction(_json_field(obj, "scale", "spectrum"), "scale"),
            terms=tuple(
                CosetTerm.from_json(t, bits=bits) for t in _json_array(obj, "terms", "spectrum")
            ),
        )


def integer_lattice(modulus: int = 1, offset: int = 0) -> Spectrum:
    """The coset modulus*Z + offset as a scale-1 spectrum."""
    return Spectrum(Fraction(1), (CosetTerm(modulus, offset % modulus),))


def empty_spectrum() -> Spectrum:
    return Spectrum(Fraction(1), ())


def avdonin_interval_spectrum(beta) -> Spectrum:
    """Integer spectrum {round_half_up(n/beta)} of density beta in (0, 1);
    the single-interval generator."""
    return Spectrum(Fraction(1), (CosetTerm(1, 0, AvdoninFilter(Endpoint.coerce(beta))),))


def _shift_levels(
    N: int, levels: Sequence[Spectrum], shifts: Sequence[int]
) -> list[tuple[int, Spectrum]]:
    """(n, level n shifted by shifts[n-1]) for each nonempty level n = 1..N.

    The check of a generic level table (a plan derives its own in closed
    form): exactly N levels, N shifts distinct mod N, and every level a
    subset of N*Z, decided once per distinct level object.  Levels in N*Z under shifts distinct mod N occupy distinct
    residues, so the shifted levels are pairwise disjoint.
    """
    if len(levels) != N:
        raise InvalidInput(f"need exactly {N} level spectra")
    if len(shifts) != N or len({s % N for s in shifts}) != N:
        raise InvalidInput(f"need {N} shifts distinct mod {N}")
    checked, out = set(), []
    for n, (level, s) in enumerate(zip(levels, shifts), start=1):
        if level.is_empty:
            continue
        if id(level) not in checked:
            if not level.subset_of_lattice(N):
                raise LevelNotInNZ(f"level {n} spectrum is not contained in {N}Z")
            checked.add(id(level))
        out.append((n, level.shift(s)))
    return out


def rational_grid_spectrum(q: int, cells: Sequence[int]) -> Spectrum:
    """Spectrum union(qZ + n, n=1..m) for a union of m cells of the 1/q grid."""
    if q < 1:
        raise InvalidInput("q must be a positive integer")
    cells = list(cells)
    if not cells:
        raise InvalidInput("need at least one cell")
    if len(set(cells)) != len(cells):
        raise InvalidInput("cells must be distinct")
    if any(not 0 <= k < q for k in cells):
        raise InvalidInput("cells must lie in 0..q-1")
    m = len(cells)
    terms = tuple(CosetTerm(q, n % q) for n in range(1, m + 1))
    return Spectrum(Fraction(1), terms).sorted_terms()

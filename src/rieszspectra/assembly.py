"""Level-spectrum combination and the two main constructions.

combine_level_spectra_permuted assembles a spectrum for S out of spectra for
the nested fiber-count sets by shifting level n by shifts[n-1], a
permutation of 1..N, when N is prime; combine_level_spectra is its
consecutive-shift view (level n shifted by n - 1 + base_shift), valid for
any N.  construct_hierarchy builds the full hierarchical family for a union
of intervals with rationally independent endpoints; complement_integer_
spectrum extends the integer spectrum of [0,1) across extra intervals in
[1,N) by frequencies from (1/N)Z \\ Z.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .arith import PrimeSearchResult, _ordering_chain, find_ordering_prime, interval_chain
from .errors import (
    ConstructionError,
    DegenerateCoverage,
    EmptySubset,
    IndependenceSuspect,
    InvalidInput,
    LevelNotInNZ,
    NotFound,
    NotPrime,
    ResourceLimit,
    UnsupportedASet,
)
from .intervals import Endpoint, IntervalSet, fold_pattern, geq_levels
from .intervals import _FieldJson, _json_array, _json_field, _to_json
from .minors import _check_permutation, _is_prime
from .precision import DEFAULT_PRECISION_BITS, ambiguity_threshold
from .spectra import (
    CosetTerm,
    Spectrum,
    _shift_levels,
    _term_sort_key,
    avdonin_interval_spectrum,
    empty_spectrum,
    integer_lattice,
    rational_grid_spectrum,
)

INNER_PRIME_LIMIT = 10**6  # prime scan of a multi-interval complement level
COMPLEMENT_N_LIMIT = 10**6  # largest complement N; its level tables hold N entries
GRID_DENOMINATOR_LIMIT = 4096  # largest grid 1/q a rational complement level may use
_DENSITY_TOL = 1e-12  # float gap allowed between a boundary spectrum's density and its set's


def combine_level_spectra(
    N: int, levels: Sequence[Spectrum], base_shift: int = 1
) -> Spectrum:
    """Union of (level_n + n - 1 + base_shift) over n = 1..N, for any N.
    Terms of one level that overlap raise OverlappingTerms where they are
    enumerated."""
    if base_shift not in (0, 1):
        raise InvalidInput("base_shift must be 0 or 1")
    shifted = _shift_levels(N, levels, range(base_shift, N + base_shift))
    return Spectrum().union(*(s for _, s in shifted))


def combine_level_spectra_permuted(
    N: int, levels: Sequence[Spectrum], shifts: Sequence[int]
) -> Spectrum:
    """Union of (level_n + shifts[n-1]) for an arbitrary permutation of 1..N;
    valid as a basis combination only for prime N."""
    _check_permutation(N, shifts)
    return Spectrum().union(*(s for _, s in _shift_levels(N, levels, shifts)))


@dataclass(frozen=True)
class HierarchyPlan:
    """Complete bookkeeping of the hierarchical construction: the intervals,
    the prime witness (N is its prime), the L boundary level spectra and
    what _geometry derives from them; everything else is derived on access.
    The spectra lambda_l come from the owned levels in closed form (K full
    cosets N*Z + n and L shifted boundary levels), not from the N-level
    table level_spectra that to_json and the folding probe read."""

    a: tuple[Endpoint, ...]
    b: tuple[Endpoint, ...]
    a_sets: tuple[IntervalSet, ...]          # fiber-count sets, levels 1..N
    boundary: tuple[Spectrum, ...]           # subsets of N*Z, levels K+1..K+L
    K_ell: tuple[int, ...]
    witness: PrimeSearchResult

    @property
    def N(self) -> int:
        return self.witness.N

    @property
    def L(self) -> int:
        return len(self.a)

    @property
    def K(self) -> int:
        return sum(self.K_ell)

    @property
    def S(self) -> IntervalSet:
        return IntervalSet(zip(self.a, self.b))

    @property
    def level_interval(self) -> tuple[Optional[int], ...]:
        return _level_owners(self.N, self.K_ell)

    @functools.cached_property
    def level_spectra(self) -> tuple[Spectrum, ...]:
        """The N level spectra: K full cells N*Z, the boundary pieces, then
        empty levels."""
        empty = (empty_spectrum(),) * (self.N - self.K - self.L)
        return (integer_lattice(self.N, 0),) * self.K + self.boundary + empty

    @functools.cached_property
    def _level_table(self) -> tuple[tuple[CosetTerm, ...], tuple[Spectrum, ...]]:
        """The owned levels, level n shifted by n, in closed form: the terms
        N*Z + n of the full levels n = 1..K (0 < n <= K < N), and the L
        boundary levels K + l shifted by K + l, each first checked to lie
        in N*Z.  The N - K - L empty levels are never visited.  Every
        spectrum derived from the plan picks from this table."""
        N, K = self.N, self.K
        for n, spec in enumerate(self.boundary, start=K + 1):
            if not spec.subset_of_lattice(N):
                raise LevelNotInNZ(f"level {n} spectrum is not contained in {N}Z")
        full = CosetTerm._cosets(N, range(1, K + 1))
        return full, tuple(spec.shift(n) for n, spec in enumerate(self.boundary, start=K + 1))

    def _full_levels(self, ell: int) -> range:
        """The full levels interval ell owns: a block of K_ell[ell-1]."""
        lo = sum(self.K_ell[: ell - 1]) + 1
        return range(lo, lo + self.K_ell[ell - 1])

    @functools.cached_property
    def lambda_ell(self) -> tuple[Spectrum, ...]:
        """Interval l's full levels and boundary level, as terms sorted by
        _term_sort_key.  The full terms (N, n) ascend in n.  A boundary term
        in N*Z of modulus N has offset 0, so shifted by K + l <= N its
        offset is 0 or K + l: every boundary term sorts wholly below or
        above the block, and only the few boundary terms need a sort."""
        full, boundary = self._level_table
        out = []
        for ell, spec in enumerate(boundary, start=1):
            block = self._full_levels(ell)
            terms = sorted(spec.terms, key=_term_sort_key)
            cut = sum((t.modulus, t.offset) < (self.N, block.start) for t in terms)
            out.append(Spectrum(Fraction(1), (
                *terms[:cut], *full[block.start - 1 : block.stop - 1], *terms[cut:]
            )))
        return tuple(out)

    def full_union(self) -> Spectrum:
        return Spectrum().union(*self.lambda_ell)

    def to_json(self) -> dict:
        return {
            "N": self.N,
            "a": [e.to_json() for e in self.a],
            "b": [e.to_json() for e in self.b],
            "set": self.S.to_json(),
            "a_sets": _to_json(self.a_sets),
            "level_spectra": _to_json(self.level_spectra),
            "level_interval": list(self.level_interval),
            "K_ell": list(self.K_ell),
            "K": self.K,
            "lambda_ell": [s.to_json() for s in self.lambda_ell],
            "witness": self.witness.to_json(),
        }

    @classmethod
    def from_json(cls, obj: dict, *, bits=DEFAULT_PRECISION_BITS) -> "HierarchyPlan":
        """Parse a, b (an interval chain), the witness and the L boundary
        level spectra, derive the rest as a build does, and require every
        other field of obj to equal its derived JSON; the first that
        differs is InvalidInput naming it.  A boundary beta and a witness
        float round forms of the original endpoints that the printed
        decimals only approximate, so they stay parsed: each boundary
        spectrum must lie in NZ, its float density within _DENSITY_TOL of
        its boundary piece's measure ({N b} - {N a})/N, and the witness
        floats within 2^-(bits/2) of the chain the parsed endpoints
        derive."""

        def need(ok: bool, key: str, why: str, what: str = "plan") -> None:
            if not ok:
                raise InvalidInput(f"{what} field {key!r} {why}")

        a, b = (
            tuple(Endpoint.from_json(v, bits=bits) for v in _json_array(obj, key, "plan"))
            for key in ("a", "b")
        )
        levels = _json_array(obj, "level_spectra", "plan")
        w = _json_field(obj, "witness", "plan", dict)
        N, L = _json_field(w, "N", "plan witness", int), len(a)
        # cheap shape checks first: N bounds every O(N) step below
        need(L >= 1, "a", "must hold at least one interval")
        need(len(b) == L, "b", "must have as many entries as 'a'")
        need(N >= 1, "N", "must be a positive integer", "plan witness")
        need(len(levels) == N, "level_spectra", f"must have N = {N} entries (field 'witness')")
        try:
            interval_chain(a, b)
        except InvalidInput as exc:
            raise InvalidInput(f"plan field 'a' does not interleave with 'b': {exc}") from exc
        try:
            K_ell, a_sets, betas = _geometry(N, a, b)
        except (InvalidInput, ConstructionError, DegenerateCoverage) as exc:
            raise InvalidInput(f"plan field 'N' gives no hierarchy for 'a' and 'b': {exc}") from exc
        K = sum(K_ell)
        boundary = tuple(Spectrum.from_json(v, bits=bits) for v in levels[K : K + L])
        # before the derivation, so that the error names the field
        for n, spec in enumerate(boundary, start=K + 1):
            need(spec.subset_of_lattice(N), "level_spectra", f"entry {n} must lie in {N}Z")
        witness = PrimeSearchResult(
            N=N,
            candidates_scanned=_json_field(w, "candidates_scanned", "plan witness", int),
            ordering_witness=tuple(_json_array(w, "ordering_witness", "plan witness")),
        )
        plan = cls(a, b, a_sets, boundary, K_ell, witness)
        derived = plan.to_json()
        for key in ("N", "a_sets", "K_ell", "K", "level_interval", "set", "level_spectra",
                    "lambda_ell"):
            if _json_field(obj, key, "plan") != derived[key]:
                why = "differs from the plan 'a', 'b', 'witness' and the boundary levels derive"
                if obj["a"] + obj["b"] != derived["a"] + derived["b"]:
                    why += (f"; its 'a' and 'b' decimals do not print back at {bits} bits, "
                            "so it was written at other --precision-bits")
                need(False, key, why)
        for n, (spec, beta) in enumerate(zip(boundary, betas), start=K + 1):
            need(abs(float(spec.density()) - float(beta * Fraction(1, N))) <= _DENSITY_TOL,
                 "level_spectra", f"entry {n} must have the density of its boundary piece")
        chain, ws = _ordering_chain(a, b, N), witness.ordering_witness
        t = float(ambiguity_threshold(g for x in a + b for g in x.irr))
        need(len(ws) == 2 * L and all(
            type(v) is float and abs(v - float(x)) < t for v, x in zip(ws, chain)
        ), "ordering_witness", "must list the chain {N a_l}, {N b_l} of 'a' and 'b'",
             "plan witness")
        return plan


def _level_owners(N: int, K_ell: Sequence[int]) -> tuple[Optional[int], ...]:
    """The 1-based interval owning each level 1..N: K_ell[0] full cells of
    interval 1, K_ell[1] of interval 2, ..., then the boundary piece of each
    interval in order, then None for the empty levels."""
    owners = [ell for ell, K_l in enumerate(K_ell, start=1) for _ in range(K_l)]
    owners += range(1, len(K_ell) + 1)
    return tuple(owners + [None] * (N - len(owners)))


def construct_hierarchy(
    a: Sequence,
    b: Sequence,
    prime_limit: int,
    *,
    prime_index: int = 0,
) -> HierarchyPlan:
    """Build the hierarchical spectra for intervals [a_l, b_l) in (0,1).

    Scans for the smallest admissible prime (or the prime_index-th one),
    derives the nested fiber-count pattern, assigns full-cell levels to
    intervals in contiguous blocks, and attaches a rounded-subsequence
    generator to each interval's fractional level.
    """
    if prime_index < 0:
        raise InvalidInput("prime_index must be non-negative")
    a, b = interval_chain(a, b)
    return _build_plan(find_ordering_prime(a, b, prime_limit, index=prime_index), a, b)


def construct_hierarchy_with_prime(a: Sequence, b: Sequence, N: int) -> HierarchyPlan:
    """Expert path: build the plan for an explicitly chosen prime N.

    Skips the ordering scan, so the fiber-count pattern may be degenerate;
    raises DegenerateCoverage when an interval contributes no full cell.
    """
    a, b = interval_chain(a, b)
    if not _is_prime(N):
        raise NotPrime(f"{N} is not prime")
    witness = PrimeSearchResult(N, 0, tuple(map(float, _ordering_chain(a, b, N))))
    return _build_plan(witness, a, b)


def _geometry(N: int, a: Sequence, b: Sequence):
    """What N determines for the intervals [a_l, b_l): K_ell, the N
    fiber-count sets of their union, checked against the hierarchy pattern
    (K full cells, then the boundary piece [{N a_l}/N, {N b_l}/N) of each
    interval in order), and the boundary widths {N b_l} - {N a_l}.

    Interval l holds ceil(N b_l - u) - ceil(N a_l - u) <= K_l + 1 points of
    the fiber of u/N, so no count exceeds K + L and every level after the
    boundary pieces is empty."""
    pairs = list(zip(a, b))
    # per-interval full-cell counts: interior cells plus the one cell's worth
    # contributed jointly by the two boundary fragments
    K_ell = []
    for x, y in pairs:
        interior = (y * N).floor() - (x * N).ceil()
        if interior < 0:
            raise DegenerateCoverage(
                f"interval [{float(x):.6g},{float(y):.6g}) spans no grid point at N={N}"
            )
        K_ell.append(interior + 1)
    K = sum(K_ell)
    pattern = fold_pattern(N, IntervalSet(pairs))
    a_sets = tuple(geq_levels(N, pattern))
    # exactly the levels 1..K_S are the whole cell [0, 1/N)
    K_S = min(len(ks) for _, _, ks in pattern)
    if K_S != K:
        raise DegenerateCoverage(
            f"full-cell count mismatch at N={N}: pattern gives {K_S}, intervals give {K}"
        )
    if K + len(pairs) > N:
        raise ConstructionError("level pattern exceeds N levels")
    cell = Fraction(1, N)
    betas = []
    for n, (x, y) in enumerate(pairs, start=K + 1):
        fa, fb = (x * N).frac(), (y * N).frac()
        if a_sets[n - 1] != IntervalSet([(fa * cell, fb * cell)]):
            raise ConstructionError(
                f"level {n} does not match the boundary piece of interval {n - K}"
            )
        betas.append(fb - fa)
    return tuple(K_ell), a_sets, betas


def _build_plan(witness: PrimeSearchResult, a: Sequence[Endpoint], b: Sequence[Endpoint]):
    N = witness.N
    K_ell, a_sets, betas = _geometry(N, a, b)
    boundary = tuple(avdonin_interval_spectrum(beta).scale_integers(N) for beta in betas)
    plan = HierarchyPlan(tuple(a), tuple(b), a_sets, boundary, K_ell, witness)
    _validate_plan(plan)
    return plan


def _validate_plan(plan: HierarchyPlan) -> None:
    # lambda_ell reads the closed-form level table, which checks that each
    # boundary level lies in NZ; the full levels N*Z + n, 0 < n <= K < N,
    # need no check.  Each interval's spectrum must carry exactly its density
    # (K_l + {N b} - {N a}) / N = b - a holds term by term, so exactly
    for ell, (lam, x, y) in enumerate(zip(plan.lambda_ell, plan.a, plan.b), start=1):
        if lam.density() != y - x:
            raise ConstructionError(f"density of interval {ell}'s spectrum is not b - a")


@dataclass(frozen=True)
class SubsetPlan(_FieldJson):
    """Reordered level sets certifying a sub-union of the hierarchy."""

    J: tuple[int, ...]
    K_J: int
    omega: tuple[Spectrum, ...]   # shifted level sets, in certification order
    shifts: tuple[int, ...]       # shift factor attached to each omega entry

    def union(self) -> Spectrum:
        return Spectrum().union(*self.omega).sorted_terms()


def subset_spectrum(plan: HierarchyPlan, J: Sequence[int]) -> SubsetPlan:
    """Certification-ordered level sets for the sub-union over J.

    omega holds the plan's levels owned by J, each shifted by its level
    index, so its union is that of lambda_l over J; the indices are the
    shifts, distinct in 1..N.  Only these levels are wrapped as spectra,
    from the plan's closed-form level table.  The fiber-count sets of S^J
    are read off the validated plan, not re-derived.  At t = u/N, with
    N a_l not an integer, interval l holds K_l + [u < {N b_l}] -
    [u < {N a_l}] points of the fiber.  A plan _geometry accepted has level
    K + l equal to P_l = [{N a_l}, {N b_l}), so the P_l are nested and miss
    u = 0, and S^J has K_J = sum of K_l over J full levels, then the P_l of
    J in order: the levels omega lists.
    """
    J = sorted(set(int(ell) for ell in J))
    if not J:
        raise EmptySubset("J must be nonempty")
    if any(not 1 <= ell <= plan.L for ell in J):
        raise InvalidInput(f"J must be a subset of 1..{plan.L}")
    full, boundary = plan._level_table
    unit = empty_spectrum()
    fulls = [n for ell in J for n in plan._full_levels(ell)]
    owned = [ell for ell in J if boundary[ell - 1].terms]
    omega = tuple(unit._with_terms((full[n - 1],)) for n in fulls)
    omega += tuple(boundary[ell - 1] for ell in owned)
    shifts = tuple(fulls) + tuple(plan.K + ell for ell in owned)
    K_J = sum(plan.K_ell[ell - 1] for ell in J)
    return SubsetPlan(J=tuple(J), K_J=K_J, omega=omega, shifts=shifts)


@dataclass(frozen=True)
class ComplementResult(_FieldJson):
    """Output of the integer-spectrum complementation."""

    N: int
    M: int
    lambda_prime: Spectrum           # scale 1/N, disjoint from Z
    level_spectra: tuple[Spectrum, ...]  # subsets of N*Z per level, pre-dilation
    S: IntervalSet = field(metadata={"json": "set"})  # the scaled working set (V / N)

    def full_spectrum(self) -> Spectrum:
        """Z union lambda_prime, as one scale-1/N spectrum."""
        zterm = integer_lattice(self.N, 0).dilate(Fraction(1, self.N))
        return zterm.union(self.lambda_prime).sorted_terms()


def _level_spectrum_for(N: int, level_set: IntervalSet) -> Spectrum:
    """A subset of N*Z certifying one nonfull fiber-count level."""
    W = level_set.scale(N)  # inside [0,1)
    pieces = W.pieces
    if len(pieces) == 1 or (
        len(pieces) == 2 and pieces[0][0] == Endpoint(0) and pieces[1][1] == Endpoint(1)
    ):
        # one interval, or a wrap-around pair: one interval modulo the period
        return avdonin_interval_spectrum(W.measure()).scale_integers(N)
    if all(l.is_rational and r.is_rational for l, r in pieces):
        q = math.lcm(*(x.rational.denominator for piece in pieces for x in piece))
        if q <= GRID_DENOMINATOR_LIMIT:
            # q is a common denominator, so the pieces are exactly these cells
            cells = [k for l, r in pieces for k in range(int(l.exact() * q), int(r.exact() * q))]
            return rational_grid_spectrum(q, cells).scale_integers(N)
    # multi-interval with independent interior endpoints: recurse once
    lefts = [l for l, _ in pieces]
    rights = [r for _, r in pieces]
    if lefts[0] > Endpoint(0) and rights[-1] < Endpoint(1):
        try:
            inner = construct_hierarchy(lefts, rights, INNER_PRIME_LIMIT)
        except (IndependenceSuspect, NotFound) as exc:
            raise UnsupportedASet(
                f"level set {W!r} is neither grid-aligned nor independent-constructible"
            ) from exc
        return inner.full_union().scale_integers(N)
    raise UnsupportedASet(f"level set {W!r} is outside the supported regimes")


def complement_integer_spectrum(N: int, a: Sequence, b: Sequence) -> ComplementResult:
    """Complement the integer spectrum of [0,1) across intervals in [1,N].

    Returns frequencies in (1/N)Z disjoint from Z whose exponentials span
    the extra intervals and, jointly with the integer exponentials, the
    whole union.  N is at most COMPLEMENT_N_LIMIT: the fiber-count level
    tables hold N entries, so a larger N raises ResourceLimit before they
    are built.
    """
    if N < 1:
        raise InvalidInput("N must be a positive integer")
    if N > COMPLEMENT_N_LIMIT:
        raise ResourceLimit(f"N={N} exceeds the complement limit {COMPLEMENT_N_LIMIT}")
    a = [Endpoint.coerce(x) for x in a]
    b = [Endpoint.coerce(y) for y in b]
    if len(a) != len(b) or not a:
        raise InvalidInput("need equally many left and right endpoints")
    prev = Endpoint(1)
    for x, y in zip(a, b):
        if not (prev <= x and x < y):
            raise InvalidInput("endpoints must satisfy 1 <= a_1 < b_1 < ... <= N")
        prev = y
    if not b[-1] <= Endpoint(N):
        raise InvalidInput("endpoints must satisfy 1 <= a_1 < b_1 < ... <= N")

    inv = Fraction(1, N)
    pairs = [(Endpoint(0), Endpoint(1))] + list(zip(a, b))
    S = IntervalSet((l * inv, r * inv) for l, r in pairs)

    pattern = fold_pattern(N, S)
    # S holds [0, 1/N), so every fiber holds k = 0 and M >= 1
    a_sets, M = geq_levels(N, pattern), min(len(ks) for _, _, ks in pattern)

    full, empty = integer_lattice(N, 0), empty_spectrum()
    # consecutive levels share one set object: certify each distinct set once
    sets = {id(s): s for s in a_sets[M:] if not s.is_empty}
    by_set = {k: _level_spectrum_for(N, s) for k, s in sets.items()}
    level_spectra = [full] * M + [by_set.get(id(s), empty) for s in a_sets[M:]]

    # level n shifted by n - 1: level 1 is N*Z, the integers after dilation,
    # and levels 2..N sit on residues 1..N-1 mod N, so lambda' misses Z
    shifted = _shift_levels(N, level_spectra, range(N))
    lam_prime = Spectrum().union(*(s for n, s in shifted if n > 1)).dilate(inv).sorted_terms()
    return ComplementResult(
        N=N, M=M, lambda_prime=lam_prime, level_spectra=tuple(level_spectra), S=S
    )

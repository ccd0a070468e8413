"""Square minors of the prime-order character matrix and their conditioning."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .errors import InvalidInput, NotPermutation, NotPrime, ResourceLimit
from .intervals import _FieldJson

DEFAULT_ENUM_BUDGET = 10**6


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _check_permutation(N: int, shifts: Sequence[int]) -> None:
    """Require N prime and shifts a permutation of 1..N: the shifts of a
    permuted level combination."""
    if not _is_prime(N):
        raise NotPrime(f"{N} is not prime")
    if sorted(shifts) != list(range(1, N + 1)):
        raise NotPermutation("shifts must be a permutation of 1..N")


@dataclass(frozen=True)
class MinorSpec(_FieldJson):
    """Row shifts and column offsets selecting a square minor mod N."""

    N: int
    rows: tuple[int, ...]
    cols: tuple[int, ...]

    def __post_init__(self):
        n = len(self.rows)
        if not 1 <= n <= self.N or len(self.cols) != n:
            raise InvalidInput("rows and cols must have equal length in 1..N")
        for name, seq in (("rows", self.rows), ("cols", self.cols)):
            if any(not 0 <= v < self.N for v in seq):
                raise InvalidInput(f"{name} entries must lie in 0..N-1")
            if any(u >= v for u, v in zip(seq, seq[1:])):
                raise InvalidInput(f"{name} must be strictly increasing")


def minor_matrix(spec: MinorSpec) -> np.ndarray:
    """Entries e^{-2*pi*i*rows[l]*cols[r]/N}, with the angle reduced exactly
    mod N before trigonometric evaluation."""
    rows = np.asarray(spec.rows, dtype=np.int64)
    cols = np.asarray(spec.cols, dtype=np.int64)
    red = np.outer(rows, cols) % spec.N
    return np.exp(-2j * np.pi * red / spec.N)


def min_singular(spec: MinorSpec) -> float:
    return float(np.linalg.svd(minor_matrix(spec), compute_uv=False)[-1])


@dataclass(frozen=True)
class ChebotarevReport(_FieldJson):
    worst_spec: MinorSpec
    worst_sigma: float
    specs_checked: int


def _sigmas(rows: np.ndarray, cols: np.ndarray, N: int) -> np.ndarray:
    """Minimal singular values of the minors [e^{-2*pi*i*a*b/N}], a in
    rows[k], b in cols[k], for int64 arrays rows and cols of shape (K, n)."""
    prod = rows[:, :, None] * cols[:, None, :]
    mats = np.exp(-2j * np.pi * (prod % N) / N)
    return np.linalg.svd(mats, compute_uv=False)[..., -1]


def _translation_class(S, N: int) -> tuple[int, ...]:
    """The least translate of the subset S of Z_N; it contains 0."""
    return min(tuple(sorted((x - s) % N for x in S)) for s in S)


def _affine_representatives(N: int, n: int) -> list[tuple[int, ...]]:
    """The least member of each orbit of the n-subsets of Z_N under the maps
    x -> u*x + t (u a unit).  For n >= 2 it contains 0 and 1, because
    x -> (x - a)/(b - a) sends any a != b of a member to 0 and 1; so the sets
    containing {0, 1} are scanned in order and each new one marks the n(n-1)
    members of its orbit that contain {0, 1}."""
    if n == 1:
        return [(0,)]
    reps, seen = [], set()
    for rest in combinations(range(2, N), n - 2):
        S = (0, 1) + rest
        if S in seen:
            continue
        reps.append(S)
        for a in S:
            for b in S:
                if a != b:
                    inv = pow(b - a, -1, N)
                    seen.add(tuple(sorted((x - a) * inv % N for x in S)))
    return reps


def _orbit_classes(A, B, N: int) -> frozenset:
    """The pairs (class of X, class of Y) of translation classes over the
    members (X, Y) of the orbit of (A, B): the images (uA, u^-1 B) and their
    transposes, translation being absorbed by the classes."""
    keys = set()
    for X, Y in ((A, B), (B, A)):
        for u in range(1, N):
            v = pow(u, -1, N)
            keys.add(
                (
                    _translation_class([u * x % N for x in X], N),
                    _translation_class([v * y % N for y in Y], N),
                )
            )
    return frozenset(keys)


def _translates(C: tuple[int, ...], N: int) -> np.ndarray:
    """The distinct translates of C, sorted, starting with C itself; a proper
    nonempty subset of Z_N (N prime) has N of them, Z_N only itself."""
    if len(C) == N:
        return np.array([C], dtype=np.int64)
    shifted = np.asarray(C, dtype=np.int64)[None, :] + np.arange(N, dtype=np.int64)[:, None]
    return np.sort(shifted % N, axis=1)


def _expand(classes: frozenset, reps: set, N: int):
    """The members (rows, cols) of the orbit with these translation classes,
    less the representatives among them, which were evaluated already.  A
    representative row set is the least of its translates, so only tx[0] ==
    cx can be one, paired with the column sets that hold 0.  Distinct class
    pairs hold distinct members, so no member appears twice."""
    rows, cols = [], []
    for cx, cy in classes:
        tx, ty = _translates(cx, N), _translates(cy, N)
        keep = np.ones(len(tx) * len(ty), dtype=bool)
        if cx in reps:
            keep[: len(ty)] = ~(ty == 0).any(axis=1)
        rows.append(np.repeat(tx, len(ty), axis=0)[keep])
        cols.append(np.tile(ty, (len(tx), 1))[keep])
    return np.concatenate(rows), np.concatenate(cols)


def _expanded_count(classes: frozenset, reps: set, N: int) -> int:
    """len(_expand(classes, reps, N)[0]) without building the members."""
    n = len(next(iter(classes))[0])
    size, zero_cols = (1, 1) if n == N else (N, n)
    return sum(size * size - (cx in reps) * zero_cols for cx, _ in classes)


def _first_min(rows: np.ndarray, cols: np.ndarray, sigmas: np.ndarray) -> int:
    """Index of the least (sigma, rows, cols), comparing row and column
    tuples lexicographically."""
    idx = np.flatnonzero(sigmas == sigmas.min())
    keys = np.hstack([rows[idx], cols[idx]])
    for j in range(keys.shape[1]):
        keep = keys[:, j] == keys[:, j].min()
        idx, keys = idx[keep], keys[keep]
    return int(idx[0])


def chebotarev_check(
    N: int, max_size: int, budget: int = DEFAULT_ENUM_BUDGET
) -> ChebotarevReport:
    """Cover all square minors of size <= max_size and return the worst
    (smallest) minimal singular value; positive for prime N (Chebotarev).

    One SVD is taken per orbit of a symmetry group, not per minor.  Write
    sigma(A, B) for the spectrum of M = [w^{ab}], a in A, b in B, w =
    e^{-2*pi*i/N}, rows and columns in increasing order.  It is unchanged by:

    * A -> A + s: entry w^{(a+s)b} = w^{ab} w^{sb}, so M is multiplied on the
      right by the unitary diagonal diag(w^{sb}) (and reordered rows are a
      permutation); likewise B -> B + t multiplies on the left by
      diag(w^{ta}).  Unitary factors keep singular values.
    * (A, B) -> (uA, u^-1 B), u a unit mod N: (ua)(u^-1 b) = ab mod N, so the
      new matrix has the same entries, rows and columns permuted; the
      reduced exponents are equal integers, so even the float entries agree.
    * (A, B) -> (B, A): the matrix is M transposed.

    (A, B) -> (uA, B) alone is not an invariance: it maps each entry w^{ab}
    to w^{uab}, a Galois conjugation, which moves singular values.

    Every (A, B) is equivalent to a representative (A0, B0): pick (u, t)
    with uA + t = A0, the least member of the affine orbit of A, apply
    (uA, u^-1 B) and both translations, then translate B to contain 0.  So
    the representatives are the least members A0 of the affine orbits of
    n-subsets against every n-subset B0 containing 0.

    Tie-break.  The report must name the same minor as the exhaustive sweep:
    the least key (sigma, n, rows, cols) over float sigmas, rows and cols
    compared lexicographically (row-major argmin over lexicographic subsets
    within a size, strict < across sizes).  Let m be the least float sigma
    over the representatives.  Members of one orbit have the same exact
    sigma, and a backward-stable SVD of an n x n matrix with unimodular
    entries errs by about n*eps*|M| <= n^2*eps (a few ulps here), far below
    1e-12.  The float minimum g <= m is attained by a member whose
    representative has float sigma within those few ulps of g, hence <=
    m + 1e-12.  So every orbit whose representative has sigma <= m + 1e-12
    is expanded into its distinct members, each is evaluated by the same
    formula as a representative, and the least key over the representatives
    and those members is the exhaustive sweep's, bit for bit.

    ``budget`` caps the distinct (A, B) whose SVD is taken, representatives
    plus expanded members; it is checked before each batch of SVDs.
    ``specs_checked`` is the number of minors covered, sum C(N, n)^2.
    """
    if not _is_prime(N):
        raise NotPrime(f"{N} is not prime")
    if not 1 <= max_size <= N:
        raise InvalidInput("max_size must lie in 1..N")
    total = sum(math.comb(N, n) ** 2 for n in range(1, max_size + 1))
    sizes = range(1, max_size + 1)
    reps, taken = {}, 0
    for n in sizes:
        reps[n] = _affine_representatives(N, n)
        taken += len(reps[n]) * math.comb(N - 1, n - 1)
        if taken > budget:
            raise ResourceLimit(f"{taken} minors to evaluate exceed budget {budget}")
    evaluated = {}  # size -> [(rows, cols, sigmas)], representatives first
    for n in sizes:
        zero_cols = np.array(
            [(0,) + c for c in combinations(range(1, N), n - 1)], dtype=np.int64
        )
        rows = np.repeat(np.array(reps[n], dtype=np.int64), len(zero_cols), axis=0)
        cols = np.tile(zero_cols, (len(reps[n]), 1))
        evaluated[n] = [(rows, cols, _sigmas(rows, cols, N))]
    m = min(float(evaluated[n][0][2].min()) for n in sizes)
    orbits = {n: set() for n in sizes}
    for n in sizes:
        rows, cols, sigmas = evaluated[n][0]
        for k in np.flatnonzero(sigmas <= m + 1e-12):
            orbits[n].add(_orbit_classes(rows[k].tolist(), cols[k].tolist(), N))
    rep_sets = {n: set(reps[n]) for n in sizes}
    taken += sum(
        _expanded_count(classes, rep_sets[n], N) for n in sizes for classes in orbits[n]
    )
    if taken > budget:
        raise ResourceLimit(f"{taken} minors to evaluate exceed budget {budget}")
    for n in sizes:
        for classes in orbits[n]:
            rows, cols = _expand(classes, rep_sets[n], N)
            if len(rows):
                evaluated[n].append((rows, cols, _sigmas(rows, cols, N)))
    worst = None
    for n in sizes:
        rows, cols, sigmas = (np.concatenate(parts) for parts in zip(*evaluated[n]))
        i = _first_min(rows, cols, sigmas)
        if worst is None or sigmas[i] < worst[0]:  # ties keep the smaller size
            worst = (sigmas[i], rows[i], cols[i])
    sigma, rows, cols = worst
    return ChebotarevReport(
        worst_spec=MinorSpec(N, tuple(rows.tolist()), tuple(cols.tolist())),
        worst_sigma=float(sigma),
        specs_checked=total,
    )


def c_prime_bound(N: int, shifts: Sequence[int], fiber_sets: Sequence[Sequence[int]]) -> float:
    """Concrete value of the minor-conditioning constant for a construction:
    the minimum of sigma_min^2 over the supplied fiber column sets, pairing a
    fiber set of size n with the first n shifts."""
    shifts = [s % N for s in shifts]
    if len(set(shifts)) != len(shifts):
        raise InvalidInput("shifts must be distinct mod N")
    if not fiber_sets:
        raise InvalidInput("need at least one fiber set")
    best = None
    for fibers in fiber_sets:
        cols = tuple(sorted(int(k) % N for k in fibers))
        if len(set(cols)) != len(cols):
            raise InvalidInput("fiber offsets must be distinct mod N")
        n = len(cols)
        if n > len(shifts):
            raise InvalidInput("fiber set larger than the number of shifts")
        rows = tuple(sorted(shifts[:n]))
        sigma = min_singular(MinorSpec(N, rows, cols))
        val = sigma * sigma
        if best is None or val < best:
            best = val
    return best

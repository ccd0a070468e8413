"""Prime generation, the ordering-prime search, and equidistribution probes."""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import IndependenceSuspect, InvalidInput, NotFound, ResourceLimit
from .intervals import Endpoint, _FieldJson, _scaled_fracs, _sign_rule, _unit_chain
from .intervals import grid_separation_ok
from .precision import ambiguity_threshold

DEFAULT_SIEVE_BUDGET = 10**8
DEFAULT_PROBE_BUDGET = 2 * 10**6
DEFAULT_BOX_BUDGET = 10**7
RELATION_MAX_COEFF = 10  # max-norm of the integer relations the scans rule out


def _check_sieve_limit(limit: int, budget: int = DEFAULT_SIEVE_BUDGET) -> None:
    if limit < 2:
        raise InvalidInput("limit must be at least 2")
    if limit > budget:
        raise ResourceLimit(f"sieve limit {limit} exceeds budget {budget}")


def primes_up_to(limit: int, budget: int = DEFAULT_SIEVE_BUDGET) -> list[int]:
    """All primes <= limit, ascending (classic byte sieve)."""
    _check_sieve_limit(limit, budget)
    sieve = bytearray(b"\x01") * (limit + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, int(limit**0.5) + 1):
        if sieve[p]:
            start = p * p
            sieve[start : limit + 1 : p] = b"\x00" * ((limit - start) // p + 1)
    return list(itertools.compress(range(limit + 1), sieve))


def _prime_blocks(limit: int) -> Iterator[list[int]]:
    """The primes of primes_up_to(limit) in ascending blocks of at most 2^16,
    from sieves to 2^10, 2^13, ... capped at limit, so a scan that stops
    early sieves no further than 2^10 or 8 times its last prime.  The limit
    is checked on the first next()."""
    _check_sieve_limit(limit)
    done, stage = 1, 2**10
    while done < limit:
        stage = min(stage, limit)
        primes = primes_up_to(stage)
        for lo in range(bisect.bisect_right(primes, done), len(primes), 2**16):
            yield primes[lo : lo + 2**16]
        done, stage = stage, stage * 8


@dataclass(frozen=True)
class PrimeSearchResult(_FieldJson):
    """Outcome of the ordering-prime scan."""

    N: int
    candidates_scanned: int
    ordering_witness: tuple[float, ...]


def interval_chain(a: Sequence, b: Sequence):
    """Coerce left and right endpoints and check 0 < a_1 < b_1 < ... < b_L < 1."""
    a = [Endpoint.coerce(x) for x in a]
    b = [Endpoint.coerce(x) for x in b]
    if len(a) != len(b) or not a:
        raise InvalidInput("need equally many left and right endpoints, at least one pair")
    ends = (e for pair in zip(a, b) for e in pair)
    _unit_chain(ends, "endpoints must satisfy 0 < a_1 < b_1 < ... < b_L < 1")
    return a, b


def _ordering_chain(a: Sequence[Endpoint], b: Sequence[Endpoint], N: int) -> list[Endpoint]:
    """{N a_1}, ..., {N a_L}, {N b_L}, ..., {N b_1}: the chain an ordering
    prime N makes increasing inside (0, 1)."""
    return [(x * N).frac() for x in a] + [(y * N).frac() for y in reversed(b)]


def ordering_primes(
    a: Sequence,
    b: Sequence,
    prime_limit: int,
    *,
    skip_relation_probe: bool = False,
) -> Iterator[PrimeSearchResult]:
    """Yield every prime N <= prime_limit passing the fractional-part
    ordering chain, the grid separation test, and 2L+1 <= N."""
    a, b = interval_chain(a, b)
    L = len(a)
    if not skip_relation_probe:
        relation = rational_relation_probe(list(a) + list(b), RELATION_MAX_COEFF)
        if relation is not None:
            raise IndependenceSuspect(relation)
    endpoints = [e for pair in zip(a, b) for e in pair]
    scanned = 0
    for block in _prime_blocks(prime_limit):
        for i in np.flatnonzero(~_float_rejected(a, b, block)).tolist():
            N = block[i]
            if N < 2 * L + 1:
                continue
            witness = _ordering_chain(a, b, N)
            ok = Endpoint(0) < witness[0] and witness[-1] < Endpoint(1)
            if not (ok and all(u < v for u, v in zip(witness, witness[1:]))):
                continue
            if not grid_separation_ok(N, endpoints):
                continue
            yield PrimeSearchResult(
                N=N,
                candidates_scanned=scanned + i + 1,
                ordering_witness=tuple(float(w) for w in witness),
            )
        scanned += len(block)


def _float_rejected(a: Sequence[Endpoint], b: Sequence[Endpoint], primes: list[int]) -> np.ndarray:
    """For each prime N, True only when the exact test of ordering_primes
    rejects N on the chain _ordering_chain(a, b, N) without raising; decided
    for all primes at once on float enclosures.  False sends N to the exact
    test.

    Proof.  The sieve budget keeps N < 2^53.  Where _scaled_fracs decides
    the floor of x*N for every chain endpoint x, those exact floors do not
    raise, and each w = {N x} lies in (t, 1 - t), so 0 < w_0 and w_last < 1
    hold without raising.  A comparison w_i < w_i+1 that the sign rule
    decides then has that exact sign and does not raise, as in Endpoint._cmp.

    N is rejected when all 2L floors are decided and the first comparison
    w_i < w_i+1 not decided true is decided false: the exact test then
    computes every floor, passes the comparisons before that one, fails it
    and stops.  Every other prime, undecided or passing the chain, takes the
    exact test, so witnesses, the grid test and every AmbiguousEndpoint come
    from it.
    """
    chain = list(a) + list(reversed(b))
    with np.errstate(over="ignore", invalid="ignore"):  # an infinite radius decides nothing
        w, r, t, floors = _scaled_fracs(chain, np.array(primes, dtype=float))
        d = np.diff(w, axis=0)
        sure = _sign_rule(d, r[1:] + r[:-1], np.maximum(t[1:], t[:-1]))
    first = np.argmin(sure & (d > 0), axis=0)  # 0 when every comparison holds
    fails = (sure & (d < 0))[first, np.arange(len(primes))]
    return floors.all(axis=0) & fails


def find_ordering_prime(
    a: Sequence,
    b: Sequence,
    prime_limit: int,
    *,
    index: int = 0,
    skip_relation_probe: bool = False,
) -> PrimeSearchResult:
    """The (index+1)-th prime passing the ordering and separation tests."""
    if index < 0:
        raise InvalidInput("index must be non-negative")
    gen = ordering_primes(a, b, prime_limit, skip_relation_probe=skip_relation_probe)
    found = 0
    for found, result in enumerate(gen, start=1):
        if found > index:
            return result
    if found:
        raise NotFound(prime_limit, "admissible primes found but not enough of them")
    raise NotFound(prime_limit)


def weyl_discrepancy(
    a,
    prime_limit: int,
    boxes: int = 64,
    *,
    box_budget: int = DEFAULT_BOX_BUDGET,
) -> float:
    """Star-discrepancy estimate, on a corner grid of the given resolution,
    of the points ({p a_1}, ..., {p a_d}) over primes p <= prime_limit.

    A diagnostic, not a certificate: the grid estimate is a lower bound on
    the true star discrepancy.
    """
    if not isinstance(a, (list, tuple)):
        a = [a]
    d = len(a)
    if d < 1:
        raise InvalidInput("need at least one coordinate")
    if boxes < 2:
        raise InvalidInput("boxes must be at least 2")
    if boxes**d > box_budget:
        raise ResourceLimit(f"{boxes}^{d} boxes exceed budget {box_budget}")
    values = [Endpoint.coerce(x) for x in a]
    primes = primes_up_to(prime_limit)
    n = len(primes)
    pts = np.empty((n, d))
    for j, x in enumerate(values):
        pts[:, j] = x.phases(primes)
    hist, _ = np.histogramdd(pts, bins=boxes, range=[(0.0, 1.0)] * d)
    cum = hist
    for axis in range(d):
        cum = np.cumsum(cum, axis=axis)
    emp = cum / n
    edges = np.arange(1, boxes + 1) / boxes
    vol = edges
    for _ in range(d - 1):
        vol = np.multiply.outer(vol, edges)
    return float(np.max(np.abs(emp - vol)))


def rational_relation_probe(
    values: Sequence,
    max_coeff: int,
    *,
    budget: int = DEFAULT_PROBE_BUDGET,
) -> Optional[tuple[int, ...]]:
    """Search for a small integer relation q0 + sum q_i * v_i = 0.

    The search box is every (q0, q1, ..., qm) with max-norm <= max_coeff,
    and a relation holds when |q0 + sum q_i v_i| < tol, evaluated exactly on
    the values' generators at their binary values.  tol is the ambiguity
    threshold of all the values' generators, or exactly 1/10^9 when any
    value is a float.

    Returns the coefficient vector of a relation, or None.  A returned
    relation disproves rational independence.  None proves that no vector
    in the box is a relation; it is evidence, not proof, of independence
    beyond the box.

    An exact lattice certificate (_reduced_relation_basis) runs first.  When
    it holds, None is returned without scanning.  Otherwise the shell scan
    returns the first relation on expanding max-norm shells, and budget caps
    its (2*max_coeff+1)^m points.  Past the budget, the relation returned is
    the first row of the certificate's LLL-reduced basis that the scan's own
    test accepts; when no row passes, ResourceLimit is raised.  With
    max_coeff = 10, the certificate holds on the endpoints k/(2L+1) +
    sqrt(p_k)/500 through L = 6 intervals at 200 bits (the default), 3 at 96
    and 2 at 64; one interval more, no reduced row is a relation and
    ResourceLimit is raised.
    """
    if len(values) < 1:
        raise InvalidInput("need at least one value")
    if max_coeff < 1:
        raise InvalidInput("max_coeff must be at least 1")
    vs, tol = _scan_values(values)
    rows = _reduced_relation_basis(vs, tol, max_coeff)
    if rows is None:
        return None
    try:
        return _relation_scan(vs, tol, max_coeff, budget)
    except ResourceLimit:
        # a short relation is a short lattice vector: try the reduced rows
        for row in rows:
            q = row[1 : len(vs) + 1]
            if any(q) and max(abs(c) for c in q) <= max_coeff:
                first = next(c for c in q if c != 0)
                relation = _accepted([c if first > 0 else -c for c in q], vs, tol, max_coeff)
                if relation is not None:
                    return relation
        raise


def _scan_values(values: Sequence):
    """The exact values and the relation tolerance."""
    float_input = any(isinstance(v, float) for v in values)
    es = [Endpoint.coerce(v) for v in values]
    generators = (g for e in es for g in e.irr)
    tol = Fraction(1, 10**9) if float_input else ambiguity_threshold(generators)
    return [e.exact() for e in es], tol


def _relation_scan(vs, tol, max_coeff: int, budget: int) -> Optional[tuple[int, ...]]:
    """The brute-force shell scan: the first relation in shell order, sign
    normalized, or None.  The fallback of rational_relation_probe and its
    test oracle."""
    m = len(vs)
    if (2 * max_coeff + 1) ** m > budget:
        raise ResourceLimit(
            f"search box (2*{max_coeff}+1)^{m} exceeds budget {budget}"
        )
    for shell in range(1, max_coeff + 1):
        for q in itertools.product(range(-shell, shell + 1), repeat=m):
            if max(abs(c) for c in q) != shell:
                continue
            first = next(c for c in q if c != 0)
            if first < 0:
                continue  # sign-normalized: mirror handled by its partner
            relation = _accepted(q, vs, tol, max_coeff)
            if relation is not None:
                return relation
    return None


def _accepted(q, vs, tol, max_coeff: int) -> Optional[tuple[int, ...]]:
    """(q0, *q) when q0 = -round(sum q_i v_i) has |q0| <= max_coeff and
    |q0 + sum q_i v_i| < tol, else None: the scan's test of one vector."""
    s = sum((c * v for c, v in zip(q, vs) if c), Fraction(0))
    q0 = -round(s)
    if abs(q0) <= max_coeff and abs(s + q0) < tol:
        return (q0, *q)
    return None


def _reduced_relation_basis(vs, tol: Fraction, max_coeff: int) -> Optional[list[list[int]]]:
    """The LLL-reduced rows of the relation lattice below, or None only when
    _relation_scan(vs, tol, max_coeff, ...) returns None.

    Take x_0 = 1 and x_i = vs[i-1], n = m+1, M = max_coeff, and the largest
    power of two C with C*tol <= 1.  The lattice spanned by the rows
    (e_i, round(C*x_i)), i = 0..m, is LLL-reduced in integers.

    Proof.  A vector q != 0 that the scan accepts has max-norm <= M, and its
    exact sum satisfies |q0 + sum q_i x_i| < tol.  So the lattice vector
    (q, sum q_i round(C*x_i)) has last coordinate below C*tol + ||q||_1/2 <=
    1 + n*M/2 in magnitude, and norm^2 < R^2 = n*M^2 + (1 + n*M/2)^2.  Every
    nonzero lattice vector has norm >= min ||b*_i|| over the Gram-Schmidt
    vectors of any basis, so ||b*_i||^2 = d_{i+1}/d_i > R^2 for every i
    leaves no such q; then None is returned.  Row i of the basis is (q, sum
    q_i round(C*x_i)) for the coefficients q of its lattice vector.
    """
    xs = [Fraction(1), *vs]
    n, M = len(xs), max_coeff
    C = 1 << ((tol.denominator // tol.numerator).bit_length() - 1)
    R2 = n * M * M + (1 + Fraction(n * M, 2)) ** 2
    basis = [[int(i == j) for j in range(n)] + [round(C * x)] for i, x in enumerate(xs)]
    d = _lll_gram_dets(basis)
    if all(d[i + 1] * R2.denominator > R2.numerator * d[i] for i in range(n)):
        return None
    return basis


def _lll_gram_dets(b: list[list[int]]) -> list[int]:
    """Integral LLL with delta = 3/4 (Cohen, A Course in Computational
    Algebraic Number Theory, Alg. 2.6.7), reducing the independent integer
    rows b in place.

    Returns d with d[0] = 1 and d[i] the Gram determinant of the first i
    reduced rows, so the Gram-Schmidt norms are ||b*_i||^2 = d[i+1] / d[i].
    Every division below is exact.
    """
    n = len(b)
    d = [1, sum(x * x for x in b[0])] + [0] * (n - 1)
    lam = [[0] * n for _ in range(n)]  # lam[k][j] = d[j+1] * mu_kj, j < k

    def reduce(k: int, l: int) -> None:
        if 2 * abs(lam[k][l]) > d[l + 1]:
            q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
            b[k] = [x - q * y for x, y in zip(b[k], b[l])]
            lam[k][l] -= q * d[l + 1]
            for i in range(l):
                lam[k][i] -= q * lam[l][i]

    def swap(k: int, kmax: int) -> None:
        b[k], b[k - 1] = b[k - 1], b[k]
        for j in range(k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        mu = lam[k][k - 1]
        B = (d[k - 1] * d[k + 1] + mu * mu) // d[k]
        for i in range(k + 1, kmax + 1):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - mu * t) // d[k]
            lam[i][k - 1] = (B * t + mu * lam[i][k]) // d[k + 1]
        d[k] = B

    k, kmax = 1, 0
    while k < n:
        if k > kmax:
            kmax = k
            for j in range(k + 1):
                u = sum(x * y for x, y in zip(b[k], b[j]))
                for i in range(j):
                    u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
                if j < k:
                    lam[k][j] = u
                else:
                    d[k + 1] = u
        reduce(k, k - 1)
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] ** 2 - 4 * lam[k][k - 1] ** 2:
            swap(k, kmax)
            k = max(1, k - 1)
            continue
        for l in range(k - 2, -1, -1):
            reduce(k, l)
        k += 1
    return d

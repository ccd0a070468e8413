"""Prime generation, the ordering-prime search, and equidistribution probes."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import mpmath
import numpy as np

from .errors import IndependenceSuspect, InvalidInput, NotFound, ResourceLimit
from .intervals import Endpoint, grid_separation_ok
from .precision import ambiguity_threshold, workprec

DEFAULT_SIEVE_BUDGET = 10**8
DEFAULT_PROBE_BUDGET = 2 * 10**6
DEFAULT_BOX_BUDGET = 10**7


def primes_up_to(limit: int, budget: int = DEFAULT_SIEVE_BUDGET) -> list[int]:
    """All primes <= limit, ascending (classic byte sieve)."""
    if limit < 2:
        raise InvalidInput("limit must be at least 2")
    if limit > budget:
        raise ResourceLimit(f"sieve limit {limit} exceeds budget {budget}")
    sieve = bytearray(b"\x01") * (limit + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, int(limit**0.5) + 1):
        if sieve[p]:
            start = p * p
            sieve[start : limit + 1 : p] = b"\x00" * ((limit - start) // p + 1)
    return [i for i, flag in enumerate(sieve) if flag]


@dataclass(frozen=True)
class PrimeSearchResult:
    """Outcome of the ordering-prime scan."""

    N: int
    candidates_scanned: int
    ordering_witness: tuple[float, ...]

    def to_json(self) -> dict:
        return {
            "N": self.N,
            "candidates_scanned": self.candidates_scanned,
            "ordering_witness": list(self.ordering_witness),
        }


def interval_chain(a: Sequence, b: Sequence):
    """Coerce left and right endpoints and check 0 < a_1 < b_1 < ... < b_L < 1."""
    a = [Endpoint.coerce(x) for x in a]
    b = [Endpoint.coerce(x) for x in b]
    if len(a) != len(b) or not a:
        raise InvalidInput("need equally many left and right endpoints, at least one pair")
    chain = [Endpoint(0), *(e for pair in zip(a, b) for e in pair), Endpoint(1)]
    if not all(p < q for p, q in zip(chain, chain[1:])):
        raise InvalidInput("endpoints must satisfy 0 < a_1 < b_1 < ... < b_L < 1")
    return a, b


def ordering_primes(
    a: Sequence,
    b: Sequence,
    prime_limit: int,
    *,
    skip_relation_probe: bool = False,
    probe_max_coeff: int = 10,
) -> Iterator[PrimeSearchResult]:
    """Yield every prime N <= prime_limit passing the fractional-part
    ordering chain, the grid separation test, and 2L+1 <= N."""
    a, b = interval_chain(a, b)
    L = len(a)
    if not skip_relation_probe:
        relation = rational_relation_probe(list(a) + list(b), probe_max_coeff)
        if relation is not None:
            raise IndependenceSuspect(relation)
    endpoints = [e for pair in zip(a, b) for e in pair]
    scanned = 0
    for N in primes_up_to(prime_limit, budget=max(prime_limit, DEFAULT_SIEVE_BUDGET)):
        scanned += 1
        if N < 2 * L + 1:
            continue
        # chain 0 < {Na_1} < ... < {Na_L} < {Nb_L} < ... < {Nb_1} < 1
        witness = [(x * N).frac() for x in a] + [(y * N).frac() for y in reversed(b)]
        ok = Endpoint(0) < witness[0] and witness[-1] < Endpoint(1)
        if ok:
            for u, v in zip(witness, witness[1:]):
                if not u < v:
                    ok = False
                    break
        if not ok:
            continue
        if not grid_separation_ok(N, endpoints):
            continue
        yield PrimeSearchResult(
            N=N,
            candidates_scanned=scanned,
            ordering_witness=tuple(float(w) for w in witness),
        )


def find_ordering_prime(
    a: Sequence,
    b: Sequence,
    prime_limit: int,
    *,
    index: int = 0,
    skip_relation_probe: bool = False,
    probe_max_coeff: int = 10,
) -> PrimeSearchResult:
    """The (index+1)-th prime passing the ordering and separation tests."""
    gen = ordering_primes(
        a,
        b,
        prime_limit,
        skip_relation_probe=skip_relation_probe,
        probe_max_coeff=probe_max_coeff,
    )
    for i, result in enumerate(gen):
        if i == index:
            return result
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
        with workprec():
            xm = x.mpf()
            col = [float(mpmath.frac(p * xm)) for p in primes]
        pts[:, j] = col
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

    Returns the coefficient vector (q0, q1, ..., qm) of the first relation
    found on an expanding max-norm shell scan, or None.  A returned relation
    disproves rational independence; None is only heuristic evidence.
    """
    m = len(values)
    if m < 1:
        raise InvalidInput("need at least one value")
    if max_coeff < 1:
        raise InvalidInput("max_coeff must be at least 1")
    if (2 * max_coeff + 1) ** m > budget:
        raise ResourceLimit(
            f"search box (2*{max_coeff}+1)^{m} exceeds budget {budget}"
        )
    float_input = any(isinstance(v, float) for v in values)
    eps = [Endpoint.coerce(v) for v in values]
    with workprec():
        vs = [e.mpf() for e in eps]
        tol = mpmath.mpf("1e-9") if float_input else ambiguity_threshold()
        for shell in range(1, max_coeff + 1):
            for q in itertools.product(range(-shell, shell + 1), repeat=m):
                if max(abs(c) for c in q) != shell:
                    continue
                first = next(c for c in q if c != 0)
                if first < 0:
                    continue  # sign-normalized: mirror handled by its partner
                s = mpmath.mpf(0)
                for c, v in zip(q, vs):
                    if c:
                        s += c * v
                q0 = int(mpmath.nint(-s))
                if abs(q0) > max_coeff:
                    continue
                if abs(s + q0) < tol:
                    return (q0, *q)
    return None

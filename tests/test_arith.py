"""Prime sieve, the ordering-prime scan, discrepancy, and the relation probe."""

import time
from fractions import Fraction

import mpmath
import pytest

import rieszspectra as rs
import rieszspectra.arith as arith
from rieszspectra import (
    IndependenceSuspect,
    InvalidInput,
    ResourceLimit,
    find_ordering_prime,
    grid_separation_ok,
    primes_up_to,
    rational_relation_probe,
    weyl_discrepancy,
)
from rieszspectra.arith import DEFAULT_PROBE_BUDGET, _relation_scan, _scan_values
from rieszspectra.intervals import Endpoint
from rieszspectra.precision import hp_sqrt


def _sqrt_endpoints(L, bits=200):
    """k/(2L+1) + sqrt(p_k)/500 for k = 1..2L, p_k the k-th prime, the
    roots made at bits."""
    return [
        Endpoint(Fraction(k, 2 * L + 1)) + Endpoint(0, hp_sqrt(p, bits)) * Fraction(1, 500)
        for k, p in enumerate(primes_up_to(60)[: 2 * L], start=1)
    ]


def _trial_division_primes(limit):
    out = []
    for n in range(2, limit + 1):
        f = 2
        is_p = True
        while f * f <= n:
            if n % f == 0:
                is_p = False
                break
            f += 1
        if is_p:
            out.append(n)
    return out


def test_primes_small():
    assert primes_up_to(10) == [2, 3, 5, 7]
    assert primes_up_to(2) == [2]


def test_primes_count_at_1e5():
    assert len(primes_up_to(100000)) == 9592


def test_primes_agree_with_trial_division():
    assert primes_up_to(10**4) == _trial_division_primes(10**4)


def test_primes_budget():
    with pytest.raises(ResourceLimit):
        primes_up_to(10**6, budget=10**5)
    with pytest.raises(InvalidInput):
        primes_up_to(1)


def test_find_ordering_prime_sqrt_instance():
    a = Endpoint(0, hp_sqrt(2)) - 1
    b = Endpoint(0, hp_sqrt(3)) - 1
    res = find_ordering_prime([a], [b], 100)
    assert res.N == 5
    assert res.candidates_scanned == 3
    assert abs(res.ordering_witness[0] - 0.07107) < 1e-4
    assert abs(res.ordering_witness[1] - 0.66025) < 1e-4


def test_find_ordering_prime_recheck():
    a = Endpoint(0, hp_sqrt(2)) - 1
    b = Endpoint(0, hp_sqrt(3)) - 1
    res = find_ordering_prime([a], [b], 100)
    N = res.N
    w = [float(((a * N).frac())), float(((b * N).frac()))]
    assert 0 < w[0] < w[1] < 1
    assert grid_separation_ok(N, [a, b])
    assert 2 * 1 + 1 <= N


def test_find_ordering_prime_rational_endpoints_flagged():
    with pytest.raises(IndependenceSuspect):
        find_ordering_prime([Fraction(1, 4)], [Fraction(3, 4)], 1000)


def test_find_ordering_prime_negative_index():
    a = Endpoint(0, hp_sqrt(2)) - 1
    b = Endpoint(0, hp_sqrt(3)) - 1
    with pytest.raises(InvalidInput, match="index"):
        find_ordering_prime([a], [b], 100, index=-1)


def test_find_ordering_prime_sieve_budget():
    # the default sieve budget (1e8) refuses before allocating the sieve
    a = Endpoint(0, hp_sqrt(2)) - 1
    b = Endpoint(0, hp_sqrt(3)) - 1
    with pytest.raises(ResourceLimit, match="sieve limit"):
        find_ordering_prime([a], [b], 10**9)


def test_find_ordering_prime_sieves_only_past_its_prime(monkeypatch):
    # N = 5 is found in the first staged sieve, not after sieving to 10^7
    limits = []
    sieve = arith.primes_up_to

    def recorder(limit, *args, **kwargs):
        limits.append(limit)
        return sieve(limit, *args, **kwargs)

    monkeypatch.setattr(arith, "primes_up_to", recorder)
    a = Endpoint(0, hp_sqrt(2)) - 1
    b = Endpoint(0, hp_sqrt(3)) - 1
    assert find_ordering_prime([a], [b], 10**7).N == 5
    assert limits and max(limits) <= 2**13


def test_staged_primes_match_one_sieve():
    for limit in (2, 3, 1024, 1025, 8192, 9000, 70000, 10**6):
        blocks = list(arith._prime_blocks(limit))
        assert [p for block in blocks for p in block] == primes_up_to(limit)
        assert all(0 < len(block) <= 2**16 for block in blocks)


def test_batched_scan_takes_the_exact_path_only_for_its_prime(monkeypatch):
    # the benchmark L=3 spec: float enclosures reject all 294 primes before
    # 1933, each of which the per-prime scan tested exactly
    calls = []
    chain = arith._ordering_chain

    def recorder(a, b, N):
        calls.append(N)
        return chain(a, b, N)

    monkeypatch.setattr(arith, "_ordering_chain", recorder)
    pairs = ((1, 2), (2, 3), (4, 5), (5, 7), (7, 11), (8, 13))
    ends = [Endpoint(Fraction(k, 11)) + Endpoint(0, hp_sqrt(p)) * Fraction(1, 100) for k, p in pairs]
    res = find_ordering_prime(ends[0::2], ends[1::2], 10**5, skip_relation_probe=True)
    assert (res.N, res.candidates_scanned) == (1933, 295)
    assert calls == [1933]


def test_find_ordering_prime_l4_instance():
    ends = _sqrt_endpoints(4)
    a, b = ends[0::2], ends[1::2]
    res = find_ordering_prime(a, b, 10**6, skip_relation_probe=True)
    assert (res.N, res.candidates_scanned) == (162517, 14886)
    assert res.ordering_witness == tuple(map(float, arith._ordering_chain(a, b, res.N)))


def test_find_ordering_prime_empty_input():
    with pytest.raises(InvalidInput):
        find_ordering_prime([], [], 100)


def test_find_ordering_prime_bad_order():
    with pytest.raises(InvalidInput):
        find_ordering_prime([Fraction(3, 4)], [Fraction(1, 4)], 100,
                            skip_relation_probe=True)


def test_weyl_discrepancy_irrational_vs_rational():
    d_irr = weyl_discrepancy(Endpoint(0, hp_sqrt(2)), 20000, 64)
    d_rat = weyl_discrepancy(Fraction(1, 2), 20000, 64)
    assert d_irr < 0.05
    assert d_rat > 0.4


def test_weyl_discrepancy_box_budget():
    with pytest.raises(ResourceLimit):
        weyl_discrepancy([0.5, 0.25], 100, boxes=10**4)


def test_weyl_discrepancy_doubling_trend():
    # frozen test grid: sqrt(3) decreases monotonically along these doublings
    # (sqrt(2) has a genuine non-monotone blip at 5e4, so it is not the grid)
    s3 = Endpoint(0, hp_sqrt(3))
    irr = [weyl_discrepancy(s3, limit, 64) for limit in (12500, 25000, 50000, 100000)]
    assert all(b <= a + 1e-12 for a, b in zip(irr, irr[1:]))
    rat = [weyl_discrepancy(Fraction(1, 3), limit, 60) for limit in (25000, 100000)]
    assert all(d > 0.25 for d in rat)


def test_relation_probe_rational_value():
    assert rational_relation_probe([0.5], 2) == (-1, 2)


def test_relation_probe_constructed_relation():
    s2 = Endpoint(0, hp_sqrt(2))
    v1 = s2 - 1
    v2 = s2 * 2 - 2
    assert rational_relation_probe([v1, v2], 3) == (0, 2, -1)


def test_relation_probe_independent_values():
    v1 = Endpoint(0, hp_sqrt(2)) - 1
    v2 = Endpoint(0, hp_sqrt(3)) - 1
    assert rational_relation_probe([v1, v2], 10) is None


def test_relation_probe_rejects_nonfinite_value():
    with pytest.raises(InvalidInput):
        rational_relation_probe([mpmath.mpf("nan")], 1)


def test_relation_probe_budget():
    # 21^8 points are over the scan's budget; the relation v1 = v2 is read
    # off the LLL-reduced basis instead
    with pytest.raises(ResourceLimit):
        _relation_scan(*_scan_values([0.1] * 8), 10, DEFAULT_PROBE_BUDGET)
    assert rational_relation_probe([0.1] * 8, 10) == (0, 1, -1, 0, 0, 0, 0, 0, 0)


def test_relation_probe_certifies_l4_endpoints():
    # 21^8 points: the shell scan alone is over its budget
    values = _sqrt_endpoints(4)
    with pytest.raises(ResourceLimit):
        _relation_scan(*_scan_values(values), 10, DEFAULT_PROBE_BUDGET)
    t0 = time.perf_counter()
    assert rational_relation_probe(values, 10) is None
    assert time.perf_counter() - t0 < 0.1


def test_relation_probe_reach_at_default_precision():
    # the documented reach at 200 bits: certified through L = 6, and at
    # L = 7 the scan runs and refuses its 21^14 points
    assert rational_relation_probe(_sqrt_endpoints(6), 10) is None
    with pytest.raises(ResourceLimit):
        rational_relation_probe(_sqrt_endpoints(7), 10)


@pytest.mark.parametrize("bits, reach", [(64, 2), (96, 3)])
def test_relation_probe_reach_below_default_precision(bits, reach):
    # the documented reach: certified through L = reach, and one interval
    # more leaves the scan its 21^(2L) points, over the budget
    assert rational_relation_probe(_sqrt_endpoints(reach, bits), 10) is None
    with pytest.raises(ResourceLimit):
        rational_relation_probe(_sqrt_endpoints(reach + 1, bits), 10)

"""Character-matrix minors: construction, conditioning, exhaustive checks."""

import math

import numpy as np
import pytest

import rieszspectra as rs
import rieszspectra.minors as minors
from rieszspectra import (
    InvalidInput,
    MinorSpec,
    NotPrime,
    ResourceLimit,
    c_prime_bound,
    chebotarev_check,
    min_singular,
    minor_matrix,
)


def test_minor_matrix_unit_entry():
    M = minor_matrix(MinorSpec(5, (0,), (0,)))
    assert M.shape == (1, 1)
    assert abs(M[0, 0] - 1) < 1e-15


def test_minor_matrix_composite_rank_one():
    M = minor_matrix(MinorSpec(4, (0, 2), (0, 2)))
    assert np.max(np.abs(M - np.ones((2, 2)))) < 1e-15
    assert min_singular(MinorSpec(4, (0, 2), (0, 2))) < 1e-12


def test_minor_matrix_direct_substitution():
    M = minor_matrix(MinorSpec(5, (0, 1), (0, 1)))
    w = np.exp(-2j * np.pi / 5)
    assert np.allclose(M, [[1, 1], [1, w]], atol=1e-15)


def test_min_singular_2x2_oracle():
    # direct SVD of the explicitly assembled matrix
    w = np.exp(-2j * np.pi / 5)
    oracle = np.linalg.svd(np.array([[1, 1], [1, w]]), compute_uv=False)[-1]
    got = min_singular(MinorSpec(5, (0, 1), (0, 1)))
    assert abs(got - oracle) < 1e-12
    assert got > 0.3


def test_min_singular_full_dft_is_sqrt_n():
    for N in (2, 3, 5, 7, 11):
        spec = MinorSpec(N, tuple(range(N)), tuple(range(N)))
        assert abs(min_singular(spec) - math.sqrt(N)) < 1e-10


def test_min_singular_invariant_under_offsets():
    rng = np.random.default_rng(5)
    for _ in range(20):
        N = int(rng.integers(3, 14))
        n = int(rng.integers(1, min(N, 4) + 1))
        rows = tuple(sorted(rng.choice(N, size=n, replace=False).tolist()))
        cols = tuple(sorted(rng.choice(N, size=n, replace=False).tolist()))
        base = min_singular(MinorSpec(N, rows, cols))
        r_off = int(rng.integers(0, N))
        c_off = int(rng.integers(0, N))
        rows2 = tuple(sorted((r + r_off) % N for r in rows))
        cols2 = tuple(sorted((c + c_off) % N for c in cols))
        shifted = min_singular(MinorSpec(N, rows2, cols2))
        assert abs(base - shifted) < 1e-10
        # (uA, u^-1 B) keeps the products ab mod N; (B, A) transposes
        u = int(rng.choice([u for u in range(1, N) if math.gcd(u, N) == 1]))
        v = pow(u, -1, N)
        rows3 = tuple(sorted(u * r % N for r in rows2))
        cols3 = tuple(sorted(v * c % N for c in cols2))
        scaled = min_singular(MinorSpec(N, rows3, cols3))
        assert abs(base - scaled) < 1e-10
        assert abs(base - min_singular(MinorSpec(N, cols3, rows3))) < 1e-10


def test_min_singular_not_invariant_under_galois_conjugation():
    # (uA, B) alone maps w^{ab} to w^{uab}: sigma moves
    base = min_singular(MinorSpec(7, (0, 1), (0, 1)))
    conj = min_singular(MinorSpec(7, (0, 2), (0, 1)))
    assert abs(base - conj) > 1e-3


def test_minor_spec_validation():
    with pytest.raises(InvalidInput):
        MinorSpec(5, (0, 1), (0,))
    with pytest.raises(InvalidInput):
        MinorSpec(5, (1, 0), (0, 1))
    with pytest.raises(InvalidInput):
        MinorSpec(5, (0, 5), (0, 1))


def test_chebotarev_small_primes():
    r2 = chebotarev_check(2, 2)
    assert r2.worst_sigma > 0
    assert r2.specs_checked == 5
    r5 = chebotarev_check(5, 2)
    assert r5.worst_sigma > 0
    assert r5.specs_checked == 125
    r7 = chebotarev_check(7, 7)
    assert r7.worst_sigma > 0


def test_chebotarev_requires_prime():
    with pytest.raises(NotPrime):
        chebotarev_check(4, 2)


def test_chebotarev_budget():
    with pytest.raises(ResourceLimit):
        chebotarev_check(13, 13, budget=10**4)


def test_chebotarev_budget_counts_evaluated_minors():
    # 5200299 minors are covered by about 2*10^4 evaluations
    r = chebotarev_check(13, 6)
    assert r.specs_checked == 5200299
    assert r.worst_sigma > 0


@pytest.mark.parametrize("N, max_size", [(2, 2), (7, 7), (11, 5), (13, 6), (101, 1)])
def test_chebotarev_evaluates_at_most_every_minor_once(N, max_size, monkeypatch):
    evaluated = []

    def counting(rows, cols, N_):
        evaluated.append(len(rows))
        return sigmas(rows, cols, N_)

    sigmas = minors._sigmas
    monkeypatch.setattr(minors, "_sigmas", counting)
    r = chebotarev_check(N, max_size, budget=10**7)
    count = sum(evaluated)
    assert count <= r.specs_checked
    # the budget caps exactly the evaluated pairs
    assert chebotarev_check(N, max_size, budget=count) == r
    with pytest.raises(ResourceLimit):
        chebotarev_check(N, max_size, budget=count - 1)


def test_chebotarev_worst_spec_is_argmin():
    r = chebotarev_check(7, 3)
    assert abs(min_singular(r.worst_spec) - r.worst_sigma) < 1e-12


def test_c_prime_bound_singletons():
    val = c_prime_bound(7, list(range(7)), [[k] for k in range(7)])
    assert abs(val - 1.0) < 1e-12


def test_c_prime_bound_two_by_two():
    val = c_prime_bound(5, [1, 3], [(0, 1), (0, 2)])
    s1 = min_singular(MinorSpec(5, (1, 3), (0, 1)))
    s2 = min_singular(MinorSpec(5, (1, 3), (0, 2)))
    assert val > 0
    assert abs(val - min(s1, s2) ** 2) < 1e-12


def test_c_prime_bound_full_dft():
    val = c_prime_bound(3, [0, 1, 2], [(0, 1, 2)])
    assert abs(val - 3.0) < 1e-10


def test_c_prime_bound_validation():
    with pytest.raises(InvalidInput):
        c_prime_bound(5, [1, 1], [(0,)])
    with pytest.raises(InvalidInput):
        c_prime_bound(5, [1], [(0, 1)])

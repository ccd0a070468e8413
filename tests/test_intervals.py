"""Endpoint arithmetic, interval-set algebra, and the folding partitions."""

import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rieszspectra as rs
from rieszspectra import (
    AmbiguousEndpoint,
    Endpoint,
    IntervalSet,
    InvalidInput,
    a_exact,
    a_geq,
    b_exact,
    fold_counts,
    frac,
    grid_separation_ok,
)
from rieszspectra.precision import DEFAULT_PRECISION_BITS, hp_sqrt


def F(n, d=1):
    return Fraction(n, d)


# -- frac ----------------------------------------------------------------

def test_frac_integer():
    assert frac(0) == 0
    assert frac(7) == 0


def test_frac_negative():
    assert frac(-0.25) == 0.75


def test_frac_high_precision():
    # 5*(sqrt2 - 1) = 2.07106...; fractional part 0.07106...
    e = (Endpoint(-1, None) + Endpoint(0, hp_sqrt(2))) * 5
    got = float(e.frac())
    assert abs(got - 0.07107) < 1e-5


def test_frac_fraction_exact():
    assert frac(F(-5, 4)) == F(3, 4)


# -- Endpoint ------------------------------------------------------------

def test_endpoint_rational_ops_exact():
    e = Endpoint(F(1, 3))
    assert (e + F(1, 6)).rational == F(1, 2)
    assert (e * 3).rational == 1
    assert (-e).rational == F(-1, 3)


def test_endpoint_scaling_roundtrip_is_structural():
    e = Endpoint(F(-1), hp_sqrt(3))
    back = (e * 5) * F(1, 5)
    assert back == e  # exact coefficient bookkeeping, no rounding drift


def test_endpoint_comparison_mixed():
    s2 = Endpoint(0, hp_sqrt(2))
    assert Endpoint(F(7, 5)) < s2 < Endpoint(F(3, 2))


def test_endpoint_floor_and_frac():
    s2 = Endpoint(0, hp_sqrt(2))
    assert (s2 * 5).floor() == 7
    assert (-s2).floor() == -2
    fr = (s2 * 5).frac()
    assert Endpoint(0) <= fr < Endpoint(1)


def test_endpoint_ambiguous_comparison_raises():
    s2 = Endpoint(0, hp_sqrt(2))
    # a rational approximation agreeing to full working precision
    num, den = mpmath.libmp.to_rational(hp_sqrt(2)._mpf_)
    with pytest.raises(AmbiguousEndpoint):
        s2 < Endpoint(Fraction(num, den))


def test_endpoint_ambiguous_floor_raises():
    # integer plus an irrational summand below the precision threshold
    tiny = Endpoint(2) + Endpoint(0, hp_sqrt(2)) * Fraction(1, 10**40)
    with pytest.raises(AmbiguousEndpoint):
        tiny.floor()


def test_endpoint_round_half_up():
    assert Endpoint(F(5, 2)).round_half_up() == 3
    assert Endpoint(F(-5, 2)).round_half_up() == -2
    assert Endpoint(F(7, 3)).round_half_up() == 2


def test_endpoint_json_roundtrip():
    e = Endpoint(F(-8, 5)) + Endpoint(0, hp_sqrt(3))
    back = Endpoint.from_json(e.to_json())
    assert abs(float(back) - float(e)) < 1e-55
    twice = Endpoint.from_json(back.to_json())
    assert twice == back  # stable after the first round trip


# -- Q-linear algebra ----------------------------------------------------

ROOTS = {p: Endpoint(0, hp_sqrt(p)) for p in (2, 3, 5, 7)}


def _exact_mpf(g) -> Fraction:
    return Fraction(*mpmath.libmp.to_rational(g._mpf_))


def exact(e: Endpoint) -> Fraction:
    """The exact rational value of an endpoint: its generators are binary
    fractions, so rational + sum c*g is a rational number."""
    return e.rational + sum((c * _exact_mpf(g) for g, c in e.irr.items()), Fraction(0))


small_q = st.fractions(min_value=-3, max_value=3, max_denominator=12)
nonzero_q = small_q.filter(bool)


@st.composite
def combinations(draw):
    """rational + sum c_p * sqrt(p) over 1-3 of sqrt 2, 3, 5, 7."""
    primes = draw(st.lists(st.sampled_from(sorted(ROOTS)), min_size=1, max_size=3, unique=True))
    e = Endpoint(draw(small_q))
    for p in primes:
        e = e + ROOTS[p] * draw(nonzero_q)
    return e


@st.composite
def near_pairs(draw):
    """(x, y) with y - x = sqrt(p) - (the rational value of the mpf sqrt(p))
    + s / 2^k: a different combination whose exact distance s / 2^k sits
    around the ambiguity threshold."""
    x = draw(combinations())
    root = ROOTS[draw(st.sampled_from(sorted(ROOTS)))]
    (g,) = root.irr
    s = draw(st.integers(-3, 3))
    k = draw(st.integers(DEFAULT_PRECISION_BITS // 2 - 6, DEFAULT_PRECISION_BITS // 2 + 6))
    return x, x + root - _exact_mpf(g) + Fraction(s, 2**k)


def _check_cmp(x: Endpoint, y: Endpoint) -> None:
    """Equal maps compare their rational parts; otherwise _cmp is the sign
    of the exact difference and raises exactly when that lies below the
    threshold 2^-(bits/2)."""
    diff = exact(x) - exact(y)
    sign = (diff > 0) - (diff < 0)
    threshold = Fraction(1, 2 ** (DEFAULT_PRECISION_BITS // 2))
    if x.irr != y.irr and abs(diff) < threshold:
        with pytest.raises(AmbiguousEndpoint):
            x._cmp(y)
    else:
        assert x._cmp(y) == sign


@settings(max_examples=150, deadline=None)
@given(x=combinations(), y=combinations(), q=nonzero_q)
def test_endpoint_algebra_matches_exact_oracle(x, y, q):
    assert exact(x + y) == exact(x) + exact(y)
    assert exact(x - y) == exact(x) - exact(y)
    assert exact(x * q) == exact(x) * q
    assert exact(-x) == -exact(x)
    # structural identities: equal maps, so no mpf evaluation and no raise
    back = (x + y) - y
    assert back.irr == x.irr and back.rational == x.rational
    assert back == x
    assert x + y == y + x
    assert (x * q) * (1 / q) == x
    assert (x - x).irr == {} and (x * 0).irr == {}
    assert all(c != 0 for c in (x + y).irr.values())
    _check_cmp(x, y)


@settings(max_examples=150, deadline=None)
@given(pair=near_pairs())
def test_endpoint_cmp_near_threshold_is_exact_or_raises(pair):
    x, y = pair
    assert x.irr != y.irr
    _check_cmp(x, y)
    _check_cmp(y, x)


def _exact_zero(p: int, bits: int) -> Endpoint:
    """sqrt(p) made at bits minus its exact value: the form of 0 that
    carries one bits-bit generator."""
    root = Endpoint(0, hp_sqrt(p, bits))
    return root - root.exact()


@pytest.mark.parametrize("bits, partner_bits", [(64, None), (96, None), (200, None), (64, 200)])
def test_endpoint_cmp_threshold_is_exact(bits, partner_bits):
    # a form whose exact value is offset by d from a zero: |d| at the
    # threshold 2^-(least bits/2) of the generators involved decides,
    # anything below it raises; a 64-bit generator against a 200-bit one
    # is decided at 2^-32
    t = Fraction(1, 2 ** (bits // 2))
    zero = _exact_zero(2, bits)
    other = Endpoint(0) if partner_bits is None else _exact_zero(3, partner_bits)
    for d in (t, -t, t * 3 / 2):
        assert (zero + d)._cmp(other) == (d > 0) - (d < 0)
        assert (zero + d - other).floor() == (0 if d > 0 else -1)
    for d in (t / 2, -t / 2, t - Fraction(1, 2**bits), Fraction(0)):
        with pytest.raises(AmbiguousEndpoint):
            (zero + d)._cmp(other)
        with pytest.raises(AmbiguousEndpoint):
            (zero + d - other).floor()


def test_endpoint_mixed_sum_cancels_structurally():
    s2, s3 = ROOTS[2], ROOTS[3]
    assert (s2 + s3) - s3 == s2
    assert ((s2 + s3) - s3).irr == s2.irr
    assert (s2 - s2).is_rational


def test_intervalset_shift_round_trip():
    S = IntervalSet([(ROOTS[2] - 1, ROOTS[3] - 1), (F(3, 4), ROOTS[5] * F(2, 5))])
    x = ROOTS[7] * F(1, 10)
    assert S.shift(x).shift(-x) == S


def test_endpoint_map_keeps_first_appearance_order():
    e = ROOTS[5] + ROOTS[2] + ROOTS[3] * 2
    assert list(e.irr) == [g for p in (5, 2, 3) for g in ROOTS[p].irr]
    assert list((e - ROOTS[2] + ROOTS[2]).irr) == [g for p in (5, 3, 2) for g in ROOTS[p].irr]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", mpmath.mpf("nan"), mpmath.mpc(0, 1)])
def test_endpoint_rejects_nonfinite_and_complex_generators(value):
    with pytest.raises(InvalidInput):
        Endpoint(0, value)


def test_endpoint_json_rejects_malformed_parts():
    with pytest.raises(InvalidInput, match="rat"):
        Endpoint.from_json({"rat": "1/0", "irr": None})
    with pytest.raises(InvalidInput):
        Endpoint.from_json({"rat": "0/1", "irr": "nan"})


# -- IntervalSet ---------------------------------------------------------

def test_intervalset_normalization_merges_adjacent():
    S = IntervalSet([(F(1, 2), F(3, 4)), (F(1, 4), F(1, 2))])
    assert len(S.pieces) == 1
    assert S == IntervalSet([(F(1, 4), F(3, 4))])


def test_intervalset_empty_convention():
    assert IntervalSet([(F(1, 2), F(1, 2))]).is_empty


def test_intervalset_invalid_order_raises():
    with pytest.raises(InvalidInput):
        IntervalSet([(F(3, 4), F(1, 4))])


def test_intervalset_algebra():
    A = IntervalSet([(0, F(1, 2))])
    B = IntervalSet([(F(1, 4), 1)])
    assert A.union(B) == IntervalSet([(0, 1)])
    assert A.intersect(B) == IntervalSet([(F(1, 4), F(1, 2))])
    assert A.difference(B) == IntervalSet([(0, F(1, 4))])
    assert A.symmetric_difference(B) == IntervalSet(
        [(0, F(1, 4)), (F(1, 2), 1)]
    )
    assert A.complement() == IntervalSet([(F(1, 2), 1)])


def test_intervalset_sort_compares_through_the_class(monkeypatch):
    # normalization orders pieces by Endpoint's own comparison, so a
    # wrapper on the class sees the compares between left endpoints
    compared = []
    cmp = Endpoint._cmp

    def recorder(self, other):
        compared.append((self, other))
        return cmp(self, other)

    monkeypatch.setattr(Endpoint, "_cmp", recorder)
    S = IntervalSet([(F(5, 8), F(3, 4)), (F(3, 8), F(1, 2)), (F(1, 8), F(1, 4))])
    lefts = {id(left) for left, _ in S.pieces}
    assert any(id(x) in lefts and id(y) in lefts for x, y in compared)
    assert [left.rational for left, _ in S.pieces] == [F(1, 8), F(3, 8), F(5, 8)]


def test_intervalset_measure():
    S = IntervalSet([(F(1, 10), F(3, 10)), (F(6, 10), F(8, 10))])
    assert S.measure().rational == F(2, 5)


def test_intervalset_json_roundtrip():
    S = IntervalSet([(Endpoint(0, hp_sqrt(2)) * F(1, 4), F(1, 2))])
    back = IntervalSet.from_json(S.to_json())
    assert float(back.symmetric_difference(back).measure_mpf()) == 0
    assert abs(float(back.measure_mpf()) - float(S.measure_mpf())) < 1e-55


# -- folding -------------------------------------------------------------

def test_fold_counts_full_circle():
    out = fold_counts(3, IntervalSet.unit())
    assert len(out) == 1
    left, right, count = out[0]
    assert count == 3
    assert left == Endpoint(0) and right == Endpoint(F(1, 3))


def test_fold_counts_single_interval():
    out = fold_counts(2, IntervalSet([(F(1, 5), F(1, 2))]))
    assert [(float(l), float(r), c) for l, r, c in out] == [
        (0.0, 0.2, 0),
        (0.2, 0.5, 1),
    ]


def test_fold_counts_two_intervals_both_hit():
    S = IntervalSet([(F(1, 10), F(3, 10)), (F(6, 10), F(8, 10))])
    out = fold_counts(2, S)
    assert [(float(l), float(r), c) for l, r, c in out] == [
        (0.0, 0.1, 0),
        (0.1, 0.3, 2),
        (0.3, 0.5, 0),
    ]


def test_a_geq_examples():
    assert a_geq(3, IntervalSet.unit(), 2) == IntervalSet([(0, F(1, 3))])
    S = IntervalSet([(F(1, 10), F(3, 10)), (F(6, 10), F(8, 10))])
    assert a_geq(2, S, 2) == IntervalSet([(F(1, 10), F(3, 10))])
    assert a_geq(2, IntervalSet([(F(1, 5), F(1, 2))]), 2).is_empty


def test_a_exact_b_exact_examples():
    S = IntervalSet([(F(1, 10), F(3, 10)), (F(6, 10), F(8, 10))])
    assert a_exact(2, S, 2) == IntervalSet([(F(1, 10), F(3, 10))])
    assert b_exact(2, S, 2) == S
    assert b_exact(2, S, 1).is_empty

    assert a_exact(3, IntervalSet.unit(), 3) == IntervalSet([(0, F(1, 3))])
    assert b_exact(3, IntervalSet.unit(), 3) == IntervalSet.unit()

    T = IntervalSet([(F(1, 5), F(1, 2))])
    assert a_exact(2, T, 1) == T
    assert b_exact(2, T, 1) == T


def test_grid_separation_examples():
    s2 = Endpoint(0, hp_sqrt(2))
    s3 = Endpoint(0, hp_sqrt(3))
    assert grid_separation_ok(5, [s2 - 1, s3 - 1])
    assert not grid_separation_ok(2, [F(2, 5), F(3, 5)])
    assert grid_separation_ok(4, [F(3, 10), F(6, 10)])


def _random_interval_set(rnd: random.Random):
    roots = [hp_sqrt(p) for p in (2, 3, 5, 7)]
    points = []
    while len(points) < 8:
        if rnd.random() < 0.5:
            cand = Endpoint(F(rnd.randrange(1, 64), 64))
        else:
            base = Endpoint(0, rnd.choice(roots))
            cand = base * F(rnd.randrange(1, 40), 128) + F(rnd.randrange(0, 8), 16)
        if Endpoint(0) < cand < Endpoint(1):
            points.append(cand)
    points.sort()
    pairs = []
    for i in range(0, 8, 2):
        if points[i] < points[i + 1]:
            pairs.append((points[i], points[i + 1]))
    n_keep = rnd.randrange(1, min(4, len(pairs)) + 1)
    return IntervalSet(pairs[:n_keep])


def test_folding_invariants_randomized():
    rnd = random.Random(20240817)
    threshold = mpmath.mpf(2) ** -100
    cell_sets = 0
    for _ in range(25):
        N = rnd.randrange(2, 12)
        S = _random_interval_set(rnd)
        if S.is_empty:
            continue
        cell_sets += 1
        cell = IntervalSet([(0, F(1, N))])
        alls = [a_exact(N, S, n) for n in range(0, N + 1)]
        bs = [b_exact(N, S, n) for n in range(1, N + 1)]

        # exact-count sets partition the fundamental cell
        union = IntervalSet.empty()
        for part in alls:
            union = union.union(part)
        assert union.symmetric_difference(cell).measure_mpf() < threshold

        # slice sets partition S
        union_b = IntervalSet.empty()
        for part in bs:
            union_b = union_b.union(part)
        assert union_b.symmetric_difference(S).measure_mpf() < threshold

        # each slice is an n-fold cover of its cell set
        for n in range(1, N + 1):
            lhs = bs[n - 1].measure_mpf()
            rhs = n * alls[n].measure_mpf()
            assert abs(lhs - rhs) < threshold

        # measure bookkeeping
        total = sum(n * alls[n].measure_mpf() for n in range(N + 1))
        assert abs(total - S.measure_mpf()) < threshold

        # nesting and the at-least/exact relation
        prev = None
        for n in range(1, N + 1):
            geq = a_geq(N, S, n)
            if prev is not None:
                assert geq.difference(prev).is_empty
            expect = IntervalSet.empty()
            for m in range(n, N + 1):
                expect = expect.union(alls[m])
            assert geq.symmetric_difference(expect).measure_mpf() < threshold
            prev = geq

        # complement switch: outside-S counts mirror inside-S counts
        comp = S.complement()
        for n in range(1, N + 1):
            lhs = a_geq(N, comp, n)
            rhs = cell.difference(a_geq(N, S, N + 1 - n))
            assert lhs.symmetric_difference(rhs).measure_mpf() < threshold
    assert cell_sets >= 20

"""Fast paths against their slow oracles: the real sinc Gram against the
complex Gram, the one-build bounds schedule against a fresh Gram per window,
the Avdonin rounding loop against the per-element formula, the
one-enumeration density check against per-window enumeration, and the
closed-form fold pattern against the N-cell sweep."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import rieszspectra.intervals as intervals
import rieszspectra.verify as verify
from rieszspectra import (
    AmbiguousEndpoint,
    AvdoninFilter,
    CosetTerm,
    EmptyWindow,
    Endpoint,
    a_geq,
    a_geq_all,
    IntervalSet,
    InvalidInput,
    Spectrum,
    avdonin_interval_spectrum,
    density_check,
    fold_pattern,
    gram_matrix,
    integer_lattice,
    riesz_bounds_estimate,
)
from rieszspectra.precision import ambiguity_threshold, hp_sqrt, workprec

F = Fraction
ROOTS = (2, 3, 5, 7)
HALF = IntervalSet([(0, F(1, 2))])
SETTINGS = settings(max_examples=40, deadline=None)


def sqrt_multiple(p: int, c: Fraction) -> Endpoint:
    return Endpoint(0, hp_sqrt(p)) * c


@st.composite
def endpoints(draw):
    """A rational k/64 in [0, 1), plus c*sqrt(p) with c <= 2/5 half the time."""
    value = Endpoint(F(draw(st.integers(0, 63)), 64))
    if draw(st.booleans()):
        p = draw(st.sampled_from(ROOTS))
        value = value + sqrt_multiple(p, F(draw(st.integers(1, 40)), 100))
    return value


@st.composite
def single_intervals(draw):
    left = draw(endpoints())
    width = draw(endpoints()) + F(1, 64)
    return IntervalSet([(left, left + width)])


@st.composite
def irrational_betas(draw):
    p = draw(st.sampled_from(ROOTS))
    return sqrt_multiple(p, F(draw(st.integers(1, 37)), 100))  # in (0, 1)


@st.composite
def spectra(draw):
    """Lattice cosets or a single-interval Avdonin generator, at scale 1 or 1/2."""
    if draw(st.booleans()):
        q = draw(st.integers(1, 4))
        offsets = draw(st.sets(st.integers(0, q - 1), min_size=1))
        spec = Spectrum(F(1), tuple(CosetTerm(q, o) for o in sorted(offsets)))
    else:
        if draw(st.booleans()):
            beta = F(draw(st.integers(16, 63)), 64)
        else:
            beta = Endpoint(F(1, 4)) + sqrt_multiple(
                draw(st.sampled_from(ROOTS)), F(draw(st.integers(1, 20)), 100)
            )
        spec = avdonin_interval_spectrum(beta)
    if draw(st.booleans()):
        spec = spec.dilate(F(1, 2))
    return spec


# -- single-interval Gram: real sinc kernel vs complex Gram -----------------

@SETTINGS
@given(spec=spectra(), S=single_intervals(), T=st.integers(2, 100))
def test_sinc_gram_is_unitarily_similar_to_gram(spec, S, T):
    G = gram_matrix(spec, S, T)
    ms = verify._window_integers(spec, S, T)
    R = verify._sinc_gram(spec, S, ms)
    assert R.dtype == np.float64 and R.shape == G.shape
    ((left, right),) = S.pieces
    center = (left + right) * F(1, 2)
    d = np.exp(2j * np.pi * verify._phase_floats(center * spec.scale, ms))
    assert np.max(np.abs(d[:, None] * R * d.conj()[None, :] - G)) <= 1e-12
    eg = np.linalg.eigvalsh(G)
    er = np.linalg.eigvalsh(R)
    assert abs(eg[0] - er[0]) <= 1e-10
    assert abs(eg[-1] - er[-1]) <= 1e-10


@SETTINGS
@given(spec=spectra(), S=single_intervals(), T=st.integers(2, 50))
def test_single_interval_bounds_match_complex_oracle(spec, S, T):
    rep = riesz_bounds_estimate(spec, S, [T, 2 * T])
    for (window, lo, hi), W in zip(rep.history, (T, 2 * T)):
        vals = np.linalg.eigvalsh(gram_matrix(spec, S, W))
        assert window == float(W)
        assert abs(lo - vals[0]) <= 1e-10
        assert abs(hi - vals[-1]) <= 1e-10
    assert rep.count == len(vals)


def test_single_interval_path_skips_complex_gram(monkeypatch):
    def refuse(*args):
        raise AssertionError("complex Gram built for a single interval")

    monkeypatch.setattr(verify, "gram_matrix", refuse)
    monkeypatch.setattr(verify, "_complex_gram", refuse)
    # criterion 11: the over-complete control still fails on the real path
    rep = riesz_bounds_estimate(integer_lattice(), HALF, [8, 16, 32, 64])
    assert rep.status == "FAIL_TREND"
    assert rep.lower_est < 1e-4


def _count_builds(monkeypatch, name):
    sizes = []
    build = getattr(verify, name)

    def counted(spectrum, S, ms):
        sizes.append(len(ms))
        return build(spectrum, S, ms)

    monkeypatch.setattr(verify, name, counted)
    return sizes


def test_interval_union_keeps_complex_gram(monkeypatch):
    sizes = _count_builds(monkeypatch, "_complex_gram")
    S = IntervalSet([(0, F(1, 3)), (F(2, 3), 1)])
    riesz_bounds_estimate(integer_lattice(), S, [8, 16])
    assert sizes == [33]


def test_single_interval_builds_one_matrix(monkeypatch):
    sizes = _count_builds(monkeypatch, "_sinc_gram")
    rep = riesz_bounds_estimate(integer_lattice(), HALF, [F(1, 2), 3, F(7, 2), 64])
    assert sizes == [129] and rep.count == 129


@st.composite
def interval_unions(draw):
    """A single interval or a union of two, endpoints as in endpoints()."""
    first = draw(single_intervals())
    if draw(st.booleans()):
        return first
    ((left, right),) = first.pieces
    gap = draw(endpoints()) + F(1, 64)
    width = draw(endpoints()) + F(1, 64)
    return IntervalSet([(left, right), (right + gap, right + gap + width)])


window_ends = st.integers(1, 40) | st.fractions(
    min_value=F(1, 2), max_value=40, max_denominator=4
)


@SETTINGS
@given(
    spec=spectra(),
    S=interval_unions(),
    schedule=st.lists(window_ends, min_size=2, max_size=4, unique=True).map(sorted),
)
def test_bounds_schedule_matches_fresh_gram_per_window(spec, S, schedule):
    try:
        oracle = [np.linalg.eigvalsh(gram_matrix(spec, S, T)) for T in schedule]
    except EmptyWindow:
        with pytest.raises(EmptyWindow):
            riesz_bounds_estimate(spec, S, schedule)
        return
    rep = riesz_bounds_estimate(spec, S, schedule)
    assert [h[0] for h in rep.history] == [float(T) for T in schedule]
    for (_, lo, hi), vals in zip(rep.history, oracle):
        assert abs(lo - vals[0]) <= 1e-10
        assert abs(hi - vals[-1]) <= 1e-10
    assert rep.count == len(oracle[-1])


def test_empty_leading_window_is_named():
    # frequencies 7 + 100Z: the window T=3 is empty, T=8 is not
    spec = Spectrum(F(1), (CosetTerm(100, 7),))
    with pytest.raises(EmptyWindow, match=r"\[-3\.0, 3\.0\]"):
        riesz_bounds_estimate(spec, HALF, [3, 8])
    with pytest.raises(EmptyWindow, match=r"\[-3\.0, 3\.0\]"):
        riesz_bounds_estimate(spec, IntervalSet([(0, F(1, 4)), (F(1, 2), 1)]), [3, 8])
    # every window empty: the first one is named, as before
    with pytest.raises(EmptyWindow, match=r"\[-2\.0, 2\.0\]"):
        riesz_bounds_estimate(spec, HALF, [2, 3])


def test_single_interval_bounds_keep_input_checks():
    with pytest.raises(InvalidInput):
        riesz_bounds_estimate(integer_lattice(), IntervalSet.empty(), [8])
    with pytest.raises(EmptyWindow):
        riesz_bounds_estimate(Spectrum(F(1), (CosetTerm(100, 7),)), HALF, [3])
    with pytest.raises(InvalidInput):
        riesz_bounds_estimate(integer_lattice(), HALF, [16, 8])


# -- Avdonin rounding loop vs the per-element formula -----------------------

def _rounded_oracle(beta: Endpoint, phase: int, lo: Fraction, hi: Fraction):
    """Filtered values r + phase in [lo, hi], one guarded rounding per n."""
    r_lo, r_hi = lo - phase, hi - phase
    b = float(beta)
    out = []
    for n in range(math.floor(b * (r_lo - 1)) - 2, math.ceil(b * (r_hi + 1)) + 3):
        with workprec():
            shifted = mpmath.mpf(n) / beta.mpf() + mpmath.mpf("0.5")
            assert abs(shifted - mpmath.nint(shifted)) >= ambiguity_threshold()
            r = int(mpmath.floor(shifted))
        if r_lo <= r <= r_hi:
            out.append(r + phase)
    return out


@SETTINGS
@given(
    beta=irrational_betas(),
    phase=st.integers(-5, 5),
    lo=st.fractions(min_value=-300, max_value=300, max_denominator=4),
    span=st.integers(0, 600),
)
def test_elements_in_matches_per_element_rounding(beta, phase, lo, span):
    hi = lo + span
    got = AvdoninFilter(beta=beta, phase=phase).elements_in(lo, hi)
    assert got == _rounded_oracle(beta, phase, lo, hi)


def test_elements_in_tie_still_ambiguous():
    # 1/0.4 + 1/2 = 3 up to the rounding of the decimal base
    filt = AvdoninFilter(beta=Endpoint.coerce("0.4"))
    with pytest.raises(AmbiguousEndpoint):
        filt.elements_in(F(0), F(5))


# -- density check: one enumeration vs per-window enumeration ---------------

window_values = st.integers(0, 300) | st.fractions(
    min_value=0, max_value=300, max_denominator=6
)


@SETTINGS
@given(spec=spectra(), windows=st.lists(window_values, min_size=1, max_size=5))
def test_density_rows_match_per_window_enumeration(spec, windows):
    S = IntervalSet([(0, F(1, 3)), (F(1, 2), F(3, 4))])
    meas = float(S.measure_mpf())
    rep = density_check(spec, S, windows, tolerance=1.0)
    expect = []
    for T in windows:
        count = len(spec.enumerate(T))
        expected = 2.0 * float(T) * meas
        expect.append((float(T), count, expected, count - expected))
    assert list(rep.rows) == expect
    assert rep.passed == all(abs(r[3]) <= 1.0 for r in expect)


def test_density_negative_window_raises():
    for windows in ([-1], [4, -F(1, 2), 16]):
        with pytest.raises(InvalidInput):
            density_check(integer_lattice(), HALF, windows)


def test_density_empty_window_list():
    rep = density_check(integer_lattice(), HALF, [])
    assert rep.rows == () and rep.passed


# -- fold pattern: closed form vs the N-cell sweep ---------------------------

def sweep_fold_pattern(N: int, S: IntervalSet):
    """The O(N) oracle: intersect S with every cell [k/N, (k+1)/N), shift the
    pieces back onto [0, 1/N), and sweep their endpoints."""
    if N < 1:
        raise InvalidInput("N must be a positive integer")
    intervals._check_subset_of_unit(S)
    cell = F(1, N)
    events = []
    for k in range(N):
        piece = S.intersect(IntervalSet([(k * cell, (k + 1) * cell)])).shift(-k * cell)
        for left, right in piece.pieces:
            events.append((left, k, +1))
            events.append((right, k, -1))
    events.append((Endpoint(0), -1, 0))
    events.append((Endpoint(cell), -1, 0))
    events.sort(key=lambda ev: intervals._cmp_key(ev[0]))
    out = []
    active: set = set()
    prev = None
    i = 0
    while i < len(events):
        point = events[i][0]
        if prev is not None and prev < point:
            out.append((prev, point, tuple(sorted(active))))
        while i < len(events) and events[i][0] == point:
            _, k, delta = events[i]
            if delta > 0:
                active.add(k)
            elif delta < 0:
                active.discard(k)
            i += 1
        prev = point
    return out


@st.composite
def fold_instances(draw):
    """(N, S): S is a union of intervals in [0, 1) whose endpoints are
    rationals k/q, rationals plus c*sqrt(p), or (rarely) grid points k/N
    plus a multiple of sqrt(p) near the precision threshold; S may be empty,
    the whole unit interval, or a complement."""
    N = draw(st.integers(1, 30))
    points = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["rational"] * 4 + ["mixed"] * 4 + ["near-grid"]))
        p = draw(st.sampled_from(ROOTS))
        if kind == "rational":
            q = draw(st.sampled_from([N, 2 * N, 1, 2, 3, 7, 64]))
            point = Endpoint(F(draw(st.integers(0, q)), q))
        elif kind == "mixed":
            point = Endpoint(F(draw(st.integers(0, 63)), 64)) + sqrt_multiple(
                p, F(draw(st.integers(1, 40)), 200)
            )
        else:
            point = Endpoint(F(draw(st.integers(0, N - 1)), N)) + sqrt_multiple(
                p, F(1, 2 ** draw(st.integers(90, 110)))
            )
        points.append(point)
    try:
        points = sorted(pt for pt in points if Endpoint(0) <= pt <= Endpoint(1))
        S = IntervalSet(zip(points[0::2], points[1::2]))
        if draw(st.booleans()):
            S = S.complement()
    except AmbiguousEndpoint:
        assume(False)
    return N, S


def _pattern_json(pattern):
    return [(l.to_json(), r.to_json(), ks) for l, r, ks in pattern]


@settings(max_examples=200, deadline=None)
@given(instance=fold_instances())
def test_fold_pattern_matches_sweep(instance):
    N, S = instance
    try:
        expect = sweep_fold_pattern(N, S)
    except AmbiguousEndpoint:
        expect = None
    try:
        got = fold_pattern(N, S)
        levels = a_geq_all(N, S)
        singles = [a_geq(N, S, n) for n in range(1, N + 1)]
    except AmbiguousEndpoint:
        # the closed form compares N*x, so it decides at least as often
        assert expect is None
        return
    assert len(levels) == N
    assert levels == singles
    if expect is None:
        return
    assert [(l, r) for l, r, _ in got] == [(l, r) for l, r, _ in expect]
    assert _pattern_json(got) == _pattern_json(expect)
    swept = [
        IntervalSet((l, r) for l, r, ks in expect if len(ks) >= n)
        for n in range(1, N + 1)
    ]
    assert [s.to_json() for s in levels] == [s.to_json() for s in swept]


def test_fold_pattern_edge_sets():
    for N in (1, 2, 7):
        cell = F(1, N)
        for S in (IntervalSet.empty(), IntervalSet.unit(), HALF, HALF.complement()):
            assert _pattern_json(fold_pattern(N, S)) == _pattern_json(
                sweep_fold_pattern(N, S)
            )
        (piece,) = fold_pattern(N, IntervalSet.unit())
        assert piece == (Endpoint(0), Endpoint(cell), tuple(range(N)))


def test_fold_pattern_shares_level_sets():
    # L = 3 intervals: at most 2L + 2 distinct level sets, whatever N is
    S = IntervalSet(
        (Endpoint(F(k, 11)) + sqrt_multiple(p, F(1, 500)),
         Endpoint(F(k + 1, 11)) + sqrt_multiple(q, F(1, 500)))
        for k, p, q in ((1, 2, 3), (4, 5, 7), (7, 2, 5))
    )
    levels = a_geq_all(1009, S)
    assert len(levels) == 1009
    assert len({id(s) for s in levels}) <= 8

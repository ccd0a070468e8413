"""Fast paths against their slow oracles: the real sinc Gram against the
complex Gram, the one-build bounds schedule against a fresh Gram per window,
the row-block Toeplitz fill against the one-shot gather it replaced, the
in-place solve of each window against ?syevd on a copy of its block,
the Avdonin rounding loop against the per-element formula, the
one-enumeration density check against per-window enumeration, the
closed-form fold pattern against the N-cell sweep, and the lattice relation
certificate against the shell scan, the orbit sweep of Chebotarev minors
against the exhaustive one, the level-owner reads of a plan's interval
spectra and sub-unions against the contiguous block loops, and the term
comparisons that check a plan against the window enumerations they
replaced, lattice membership, grid cells and complement checks decided on
terms against the window scans and midpoint scan they replaced, and the
float-filtered Endpoint compares, floors and Avdonin roundings against
their exact oracles (and against a forced fallback), near ties and outside
the float64 range included, and the level combination views against the
per-level combination loop they replaced, the one level-table derivation
of every interval subset and its shared JSON against the helpers it
replaced, the per-term window count against enumeration, and the one ranked
sweep of set algebra and fold cuts against the event sweep and cut/rank loop
it replaced, and the ordering-prime scan that rejects primes in bulk on float
enclosures against the per-prime exact loop it replaced, and the folding
probe's trial blocks against the per-trial loop, zero draws included.  The
exact decisions (phases, Avdonin rounding, the relation scan) are also
checked against the mpf evaluation at working precision that they
replaced, and generators made and printed at explicit precision against the
same steps in mpmath's shared context switched by workprec()."""

import contextlib
import dataclasses
import itertools
import json
import math
import os
import random
import resource
import subprocess
import sys
import warnings
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

import rieszspectra
import rieszspectra.assembly as assembly
import rieszspectra.intervals as intervals
import rieszspectra.verify as verify
from rieszspectra.arith import (
    DEFAULT_PROBE_BUDGET,
    PrimeSearchResult,
    _ordering_chain,
    _reduced_relation_basis,
    _relation_scan,
    _scan_values,
    interval_chain,
)
from rieszspectra import (
    AmbiguousEndpoint,
    HierarchyPlan,
    AvdoninFilter,
    ChebotarevReport,
    ConstructionError,
    CosetTerm,
    DegenerateCoverage,
    EmptyWindow,
    Endpoint,
    a_exact,
    a_geq,
    a_geq_all,
    b_exact,
    IntervalSet,
    InvalidInput,
    MinorSpec,
    NotPrime,
    ResourceLimit,
    RieszSpectraError,
    Spectrum,
    TruncationWarning,
    avdonin_interval_spectrum,
    chebotarev_check,
    density_check,
    fold_pattern,
    gram_matrix,
    grid_separation_ok,
    ordering_primes,
    primes_up_to,
    integer_lattice,
    combine_level_spectra,
    combine_level_spectra_permuted,
    complement_integer_spectrum,
    construct_hierarchy_with_prime,
    empty_spectrum,
    LevelNotInNZ,
    NotPermutation,
    OverlappingTerms,
    rational_relation_probe,
    riesz_bounds_estimate,
    subset_spectrum,
)
from rieszspectra.minors import DEFAULT_ENUM_BUDGET, _is_prime, c_prime_bound
from rieszspectra.spectra import _shift_levels
from rieszspectra.precision import DEFAULT_PRECISION_BITS, ambiguity_threshold, hp_sqrt

F = Fraction
ROOTS = (2, 3, 5, 7)
HALF = IntervalSet([(0, F(1, 2))])
SETTINGS = settings(max_examples=40, deadline=None)
WINDOW = 2048  # the integer window the plan and complement checks once scanned


def sqrt_multiple(p: int, c: Fraction) -> Endpoint:
    return Endpoint(0, hp_sqrt(p)) * c


def workprec(bits: int = DEFAULT_PRECISION_BITS):
    """mpmath's shared context switched to bits: how generators were made
    and printed before each one carried its precision."""
    return mpmath.workprec(bits)


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
    R = verify._toeplitz(verify._sinc_symbol(spec, S, int(ms[-1] - ms[0])), ms)
    assert R.dtype == np.float64 and R.shape == G.shape
    ((left, right),) = S.pieces
    center = (left + right) * F(1, 2)
    d = np.exp(2j * np.pi * np.array((center * spec.scale).phases(ms.tolist())))
    # _toeplitz fills the lower triangle only, which is all eigvalsh reads
    assert np.max(np.abs(np.tril(d[:, None] * R * d.conj()[None, :] - G))) <= 1e-12
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
    monkeypatch.setattr(verify, "_complex_symbol", refuse)
    # criterion 11: the over-complete control still fails on the real path
    rep = riesz_bounds_estimate(integer_lattice(), HALF, [8, 16, 32, 64])
    assert rep.status == "FAIL_TREND"
    assert rep.lower_est < 1e-4


def _count_builds(monkeypatch, name):
    sizes = []
    build = getattr(verify, name)

    def counted(spectrum, S, dmax):
        sizes.append(dmax)
        return build(spectrum, S, dmax)

    monkeypatch.setattr(verify, name, counted)
    return sizes


def test_interval_union_keeps_complex_gram(monkeypatch):
    sizes = _count_builds(monkeypatch, "_complex_symbol")
    S = IntervalSet([(0, F(1, 3)), (F(2, 3), 1)])
    riesz_bounds_estimate(integer_lattice(), S, [8, 16])
    assert sizes == [32]


def test_single_interval_builds_one_matrix(monkeypatch):
    sizes = _count_builds(monkeypatch, "_sinc_symbol")
    rep = riesz_bounds_estimate(integer_lattice(), HALF, [F(1, 2), 3, F(7, 2), 64])
    assert sizes == [128] and rep.count == 129


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


# -- Toeplitz row blocks and the in-place solve vs one-shot oracles ---------

def _one_shot_toeplitz(sym: np.ndarray, ms: np.ndarray) -> np.ndarray:
    """The Toeplitz expansion as one gather through an n x n index matrix."""
    signed = np.concatenate((np.conj(sym[:0:-1]), sym))
    return signed[np.subtract.outer(ms, ms) + (len(sym) - 1)]


UNION = IntervalSet([(0, F(1, 4)), (F(1, 2), 1)])


@SETTINGS
@given(spec=spectra(), S=interval_unions(), T=st.integers(1, 300))
@example(spec=integer_lattice(), S=HALF, T=300)  # n = 601
@example(spec=integer_lattice(), S=UNION, T=128)  # n = 257
def test_toeplitz_row_blocks_match_one_shot_gather(spec, S, T):
    ms = verify._window_integers(spec, S, T)
    assume(len(ms) > 0)
    dmax = int(ms[-1] - ms[0])
    # the complex symbol for every set, the real sinc symbol for one interval
    syms = [verify._complex_symbol(spec, S, dmax)]
    if len(S.pieces) == 1:
        syms.append(verify._sinc_symbol(spec, S, dmax))
    assert [sym.dtype for sym in syms] == [np.complex128, np.float64][: len(syms)]
    inner = slice(len(ms) // 4, len(ms) - len(ms) // 4)
    # _toeplitz fills the lower triangle, the one LAPACK reads, and leaves
    # the entries above the diagonal unspecified
    for sym in syms:
        M = verify._toeplitz(sym, ms)
        assert M.flags.f_contiguous
        assert np.array_equal(np.tril(M), np.tril(_one_shot_toeplitz(sym, ms)))
        # a smaller window expanded from the same symbol is the block of M
        B = verify._toeplitz(sym, ms[inner])
        assert B.flags.f_contiguous and np.array_equal(np.tril(B), np.tril(M[inner, inner]))


@SETTINGS
@given(
    spec=spectra(),
    S=interval_unions(),
    schedule=st.lists(window_ends, min_size=1, max_size=4, unique=True).map(sorted),
)
@example(spec=integer_lattice(), S=HALF, schedule=[F(1, 2), 3, F(7, 2), 64])
@example(spec=integer_lattice(), S=UNION, schedule=[16, 32, 64])
def test_bounds_history_matches_evd_per_block(spec, S, schedule):
    try:
        rep = riesz_bounds_estimate(spec, S, schedule)
    except EmptyWindow:
        return
    ms = verify._window_integers(spec, S, schedule[-1])
    symbol = verify._sinc_symbol if len(S.pieces) == 1 else verify._complex_symbol
    G = verify._toeplitz(symbol(spec, S, int(ms[-1] - ms[0])), ms)
    expected = []
    for T in schedule:
        block = verify._window_slice(spec, ms, T)
        vals = scipy.linalg.eigh(G[block, block].copy(), eigvals_only=True, driver="evd")
        expected.append((float(T), float(vals[0]), float(vals[-1])))
    assert rep.history == tuple(expected)


# -- Avdonin rounding loop vs the per-element formula -----------------------

def _mpf_threshold() -> mpmath.mpf:
    t = ambiguity_threshold()
    with workprec():
        return mpmath.mpf(t.numerator) / t.denominator


def _rounded_oracle(beta: Endpoint, phase: int, lo: Fraction, hi: Fraction):
    """Filtered values r + phase in [lo, hi], one guarded mpf rounding per n
    at working precision (the evaluation the exact loop replaced), or None
    when some n in a wider range than the loop's lies near a tie."""
    r_lo, r_hi = lo - phase, hi - phase
    b = float(beta)
    threshold = _mpf_threshold()
    out = []
    for n in range(math.floor(b * (r_lo - 1)) - 2, math.ceil(b * (r_hi + 1)) + 3):
        with workprec():
            shifted = mpmath.mpf(n) / beta.mpf() + mpmath.mpf("0.5")
            if abs(shifted - mpmath.nint(shifted)) < threshold:
                return None
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
    expect = _rounded_oracle(beta, phase, lo, hi)
    assume(expect is not None)
    assert AvdoninFilter(beta=beta, phase=phase).elements_in(lo, hi) == expect


def test_elements_in_tie_still_ambiguous():
    # 1/0.4 + 1/2 = 3 up to the rounding of the decimal base
    filt = AvdoninFilter(beta=Endpoint.coerce("0.4"))
    with pytest.raises(AmbiguousEndpoint):
        filt.elements_in(F(0), F(5))


rational_betas = st.sampled_from([F(1, 2), F(2, 3), F(3, 7)]) | st.fractions(
    min_value=F(1, 40), max_value=F(39, 40), max_denominator=40
)


@SETTINGS
@given(
    beta=rational_betas,
    phase=st.integers(-5, 5),
    lo=st.fractions(min_value=-300, max_value=300, max_denominator=4),
    span=st.fractions(min_value=0, max_value=600, max_denominator=3),
)
def test_rational_elements_in_matches_per_element_floor(beta, phase, lo, span):
    # rational ties are real and round half up, with no guard
    hi = lo + span
    r_lo, r_hi = lo - phase, hi - phase
    n_range = range(math.floor(beta * (r_lo - 1)) - 2, math.ceil(beta * (r_hi + 1)) + 3)
    rounded = (math.floor(Fraction(n) / beta + F(1, 2)) for n in n_range)
    expect = [r + phase for r in rounded if r_lo <= r <= r_hi]
    assert AvdoninFilter(beta=Endpoint(beta), phase=phase).elements_in(lo, hi) == expect


# -- exact phases vs mpf frac(d*u) at working precision -----------------------

@st.composite
def forms(draw):
    """rational + c*sqrt(p) over 0-3 distinct roots, of either sign."""
    e = Endpoint(draw(st.fractions(min_value=-50, max_value=50, max_denominator=60)))
    coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=500).filter(bool)
    for p in draw(st.lists(st.sampled_from(ROOTS), max_size=3, unique=True)):
        e = e + sqrt_multiple(p, draw(coeffs))
    return e


@SETTINGS
@given(u=forms(), ds=st.lists(st.integers(-10**4, 10**4), min_size=1, max_size=20))
def test_phases_match_mpf_reduction(u, ds):
    got = u.phases(ds)
    with workprec():
        um = u.mpf()
        expect = [float(mpmath.frac(d * um)) for d in ds]
    for x, y in zip(got, expect):
        assert 0 <= x < 1
        gap = abs(x - y)
        assert min(gap, 1 - gap) <= 1e-15  # circular: 1 - tiny and tiny agree


# -- generators at explicit precision vs mpmath's shared context -------------

def _workprec_generator(kind: str, x, bits: int) -> mpmath.mpf:
    with workprec(bits):
        return mpmath.sqrt(x) if kind == "sqrt" else mpmath.mpf(x)


def _workprec_value(rational, irr, bits: int) -> tuple:
    """(mpf, decimal) of rational + sum c*g over the (mpf g, c) pairs of
    irr, as Endpoint.mpf() computed it and Endpoint.to_json (rational None:
    the irrational part only) and AvdoninFilter.to_json printed it in the
    shared context."""
    with workprec(bits):
        val = sum(g * c.numerator / c.denominator for g, c in irr)
        if rational is not None:
            val = mpmath.mpf(rational.numerator) / rational.denominator + val
        return val, mpmath.nstr(val, int(mpmath.mp.dps), strip_zeros=False)


@st.composite
def generator_inputs(draw):
    """sqrt(k), a decimal string or a 400-bit mpf, each nonzero."""
    kind = draw(st.sampled_from(["sqrt", "decimal", "mpf"]))
    if kind == "sqrt":
        return kind, draw(st.integers(2, 10**6))
    if kind == "decimal":
        digits = draw(st.from_regex(r"[0-9]{1,3}\.[0-9]{0,80}[1-9]", fullmatch=True))
        return kind, draw(st.sampled_from(["", "-"])) + digits
    with mpmath.workprec(400):
        return kind, mpmath.mpf(draw(st.integers(1, 10**40))) / draw(st.integers(1, 10**40))


nonzero_coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=999).filter(bool)


@settings(max_examples=150, deadline=None)
@given(
    inputs=st.lists(generator_inputs(), min_size=1, max_size=3),
    coeffs=st.lists(nonzero_coeffs, min_size=3, max_size=3),
    rational=st.fractions(min_value=-5, max_value=5, max_denominator=999),
    bits=st.sampled_from([64, 96, 200, 300]),
)
def test_generators_match_workprec(inputs, coeffs, rational, bits):
    old = [_workprec_generator(kind, x, bits) for kind, x in inputs]
    assume(len(set(old)) == len(old))
    e = Endpoint(rational)
    for (kind, x), c in zip(inputs, coeffs):
        e = e + Endpoint(0, hp_sqrt(x, bits) if kind == "sqrt" else x, bits=bits) * c
    assert [(g.value, g.bits) for g in e.irr] == [
        (Fraction(*mpmath.libmp.to_rational(g._mpf_)), bits) for g in old
    ]
    irr = list(zip(old, coeffs))
    assert e.to_json()["irr"] == _workprec_value(None, irr, bits)[1]
    try:
        beta = e.frac()
    except AmbiguousEndpoint:  # an input at an integer, e.g. sqrt(4)
        reject()
    value, decimal = _workprec_value(beta.rational, irr, bits)
    assert AvdoninFilter(beta=beta).to_json()["avdonin"]["beta"] == decimal
    assert beta.mpf()._mpf_ == value._mpf_


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
    events.sort(key=lambda ev: ev[0])
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


# -- fold pattern memo ----------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(instance=fold_instances())
def test_second_fold_matches_sweep(instance):
    # the second call reads the memo the first one stored
    N, S = instance
    try:
        expect = _pattern_json(sweep_fold_pattern(N, S))
        fold_pattern(N, S)
    except AmbiguousEndpoint:
        reject()
    assert _pattern_json(fold_pattern(N, S)) == expect


def test_mutating_a_fold_leaves_the_memo():
    S = IntervalSet([(sqrt_multiple(2, F(1, 4)), F(3, 4))])
    first = fold_pattern(7, S)
    expect = _pattern_json(first)
    first[0] = (Endpoint(0), Endpoint(1), (0, 1, 2))
    first.append(first[0])
    assert _pattern_json(fold_pattern(7, S)) == expect


def test_fold_memo_keeps_each_n():
    S = IntervalSet([(sqrt_multiple(2, F(1, 4)), F(3, 4))])
    p5, p7 = fold_pattern(5, S), fold_pattern(7, S)
    assert sorted(S._folds) == [5, 7]
    assert _pattern_json(p5) == _pattern_json(sweep_fold_pattern(5, S))
    assert _pattern_json(p7) == _pattern_json(sweep_fold_pattern(7, S))
    assert _pattern_json(fold_pattern(5, S)) == _pattern_json(p5)


def test_set_outside_unit_raises_on_every_fold():
    S = IntervalSet([(F(1, 2), F(3, 2))])
    for fold in (lambda: fold_pattern(5, S), lambda: fold_pattern(5, S),
                 lambda: a_geq(5, S, 1), lambda: a_geq_all(5, S)):
        with pytest.raises(InvalidInput):
            fold()
    assert not S._folds


def test_equal_sets_fold_alike():
    x = sqrt_multiple(2, F(1, 4))
    S = IntervalSet([(x, F(3, 4))])
    T = IntervalSet([(x + F(1, 8), F(7, 8))]).shift(F(-1, 8))  # another path
    assert S == T and S is not T
    assert _pattern_json(fold_pattern(7, T)) == _pattern_json(fold_pattern(7, S))
    assert S._folds is not T._folds


# -- set algebra and fold cuts: one ranked sweep vs the sweeps it replaced -----

def _event_combine(A: IntervalSet, B: IntervalSet, keep) -> IntervalSet:
    """The event sweep IntervalSet._combine once made: sort (point, side,
    +-1) events and regroup equal points as they are read."""
    events = []
    for left, right in A.pieces:
        events.append((left, 0, +1))
        events.append((right, 0, -1))
    for left, right in B.pieces:
        events.append((left, 1, +1))
        events.append((right, 1, -1))
    if not events:
        return IntervalSet.empty()
    events.sort(key=lambda ev: ev[0])
    out = []
    depth = [0, 0]
    prev = None
    i = 0
    while i < len(events):
        point = events[i][0]
        if prev is not None and keep(depth[0] > 0, depth[1] > 0):
            out.append((prev, point))
        while i < len(events) and events[i][0]._cmp(point) == 0:
            depth[events[i][1]] += events[i][2]
            i += 1
        prev = point
    return IntervalSet(out)


def _cut_rank_fold_pattern(N: int, S: IntervalSet) -> tuple:
    """The fold pattern with the cut/rank loop _fold_pattern once ran."""
    intervals._check_subset_of_unit(S)
    scaled = [x * N for piece in S.pieces for x in piece]
    floors = [x.floor() for x in scaled]
    fracs = [x - f for x, f in zip(scaled, floors)]
    cuts = [Endpoint(0)]
    rank = [0] * len(fracs)
    for i in sorted(range(len(fracs)), key=lambda i: fracs[i]):
        if cuts[-1]._cmp(fracs[i]) < 0:
            cuts.append(fracs[i])
        rank[i] = len(cuts) - 1
    cell = F(1, N)
    bounds = [c * cell for c in cuts] + [Endpoint(cell)]
    out = []
    for piece in range(len(cuts)):
        ks = []
        for i in range(0, len(fracs), 2):
            lo = floors[i] + (rank[i] > piece)
            hi = floors[i + 1] + (rank[i + 1] > piece)
            ks.extend(range(lo, hi))
        out.append((bounds[piece], bounds[piece + 1], tuple(ks)))
    return tuple(out)


@st.composite
def sixteenth_sets(draw):
    """Two sets of 0-4 intervals each whose endpoints come from one small
    pool of k/16 and k/16 + c*sqrt(p), so the sets share and touch
    endpoints often."""
    pool = []
    for _ in range(draw(st.integers(2, 6))):
        point = Endpoint(F(draw(st.integers(0, 16)), 16))
        if point < 1 and draw(st.booleans()):
            k = draw(st.integers(0, 14))
            c = F(draw(st.integers(1, 20)), 1000)
            point = Endpoint(F(k, 16)) + sqrt_multiple(draw(st.sampled_from(ROOTS)), c)
        pool.append(point)
    pool.sort()

    def one_set():
        pairs = []
        for _ in range(draw(st.integers(0, 4))):
            i, j = sorted(draw(st.lists(st.integers(0, len(pool) - 1), min_size=2, max_size=2)))
            pairs.append((pool[i], pool[j]))
        return IntervalSet(pairs)

    return one_set(), one_set()


SET_OPS = {
    "union": lambda a, b: a or b,
    "intersect": lambda a, b: a and b,
    "difference": lambda a, b: a and not b,
    "symmetric_difference": lambda a, b: a != b,
}


@settings(max_examples=300, deadline=None)
@given(sets=sixteenth_sets())
def test_ranked_sweep_matches_event_sweep(sets):
    A, B = sets
    for name, keep in SET_OPS.items():
        got = getattr(A, name)(B)
        assert got.to_json() == _event_combine(A, B, keep).to_json(), name
    unit = IntervalSet.unit()
    assert A.complement().to_json() == _event_combine(unit, A, SET_OPS["difference"]).to_json()
    for S in (A, B, A.union(B)):
        for N in range(1, 8):
            expect = _cut_rank_fold_pattern(N, S)
            assert _pattern_json(intervals._fold_pattern(N, S)) == _pattern_json(expect)
            assert _pattern_json(fold_pattern(N, S)) == _pattern_json(expect)


# -- relation probe: lattice certificate vs shell scan ------------------------

RELATION_ROOTS = (2, 3, 5, 7, 11, 13, 17, 19)

@st.composite
def relation_values(draw):
    """A rational, a float, r + c*sqrt(p), or r + c*sqrt(p) + c'*sqrt(p')."""
    r = F(draw(st.integers(-20, 20)), draw(st.integers(1, 12)))
    kind = draw(st.sampled_from(("rational", "float", "sqrt", "sqrt", "two_bases")))
    if kind == "rational":
        return r
    if kind == "float":
        return draw(st.sampled_from((0.1, 0.25, 1 / 3, 0.7071067811865476))) * float(
            draw(st.integers(1, 9))
        )
    p, p2 = draw(st.lists(st.sampled_from(RELATION_ROOTS), min_size=2, max_size=2, unique=True))
    value = Endpoint(r) + sqrt_multiple(p, F(draw(st.integers(1, 30)), draw(st.integers(1, 12))))
    if kind == "two_bases":  # the sum rounds the two bases into a new one
        value = value + sqrt_multiple(p2, F(draw(st.integers(-30, 30)), draw(st.integers(1, 12))))
    return value


@st.composite
def relation_instances(draw):
    """1-4 values and max_coeff 1-4; half of them with a planted relation
    q0 + sum q_i v_i = 0, solved for one value, with |q_i| <= max_coeff + 1."""
    m = draw(st.integers(1, 4))
    M = draw(st.integers(1, 4))
    values = [draw(relation_values()) for _ in range(m)]
    if draw(st.booleans()):
        q = draw(st.lists(st.integers(-M - 1, M + 1), min_size=m + 1, max_size=m + 1))
        j = draw(st.integers(1, m))
        assume(q[j] != 0)
        rest = Endpoint(q[0])
        for i in range(1, m + 1):
            if i != j:
                rest = rest + Endpoint.coerce(values[i - 1]) * q[i]
        values[j - 1] = rest * F(-1, q[j])
    return values, M


@settings(max_examples=150, deadline=None)
@given(instance=relation_instances())
def test_relation_probe_matches_shell_scan(instance):
    values, M = instance
    vs, tol = _scan_values(values)
    assert rational_relation_probe(values, M) == _relation_scan(
        vs, tol, M, DEFAULT_PROBE_BUDGET
    )


def _mpf_relation_scan(values, max_coeff: int):
    """The shell scan summed in mpf at working precision, the evaluation
    the exact scan replaced."""
    float_input = any(isinstance(v, float) for v in values)
    with workprec():
        vs = [Endpoint.coerce(v).mpf() for v in values]
        tol = mpmath.mpf("1e-9") if float_input else _mpf_threshold()
        for shell in range(1, max_coeff + 1):
            for q in itertools.product(range(-shell, shell + 1), repeat=len(vs)):
                if max(abs(c) for c in q) != shell or next(c for c in q if c) < 0:
                    continue
                s = mpmath.mpf(0)
                for c, v in zip(q, vs):
                    if c:
                        s += c * v
                q0 = int(mpmath.nint(-s))
                if abs(q0) <= max_coeff and abs(s + q0) < tol:
                    return (q0, *q)
    return None


@settings(max_examples=60, deadline=None)
@given(instance=relation_instances())
def test_exact_relation_scan_matches_mpf_scan(instance):
    values, M = instance
    vs, tol = _scan_values(values)
    assert _relation_scan(vs, tol, M, DEFAULT_PROBE_BUDGET) == _mpf_relation_scan(values, M)


@settings(max_examples=150, deadline=None)
@given(instance=relation_instances(), bits=st.integers(6, 40))
def test_relation_certificate_implies_empty_scan(instance, bits):
    # a coarse tolerance 2^-bits puts near-relations close to the lattice bound
    values, M = instance
    vs, _ = _scan_values(values)
    tol = F(1, 2**bits)
    if _reduced_relation_basis(vs, tol, M) is None:
        assert _relation_scan(vs, tol, M, DEFAULT_PROBE_BUDGET) is None


def test_relation_certificate_decides_both_ways():
    # the property above is vacuous unless the certificate holds on some
    # instances and fails on others
    s2, s3 = sqrt_multiple(2, F(1)), sqrt_multiple(3, F(1))
    vs, tol = _scan_values([s2 - 1, s3 - 1])
    assert _reduced_relation_basis(vs, tol, 10) is None
    vs, tol = _scan_values([s2 - 1, s2 * 2 - 2])
    assert _reduced_relation_basis(vs, tol, 3) is not None


@settings(max_examples=150, deadline=None)
@given(instance=relation_instances())
def test_relation_past_the_budget_is_one_the_scan_accepts(instance):
    # a budget of 1 point leaves every uncertified instance to the reduced
    # rows: what they return must pass the scan's exact test, sign
    # normalized, and exist only where the scan finds a relation too
    values, M = instance
    vs, tol = _scan_values(values)
    scanned = _relation_scan(vs, tol, M, DEFAULT_PROBE_BUDGET)
    try:
        relation = rational_relation_probe(values, M, budget=1)
    except ResourceLimit:
        return
    if relation is None:
        assert scanned is None
        return
    q0, *q = relation
    assert scanned is not None
    assert max(abs(c) for c in relation) <= M and next(c for c in q if c) > 0
    assert abs(q0 + sum(c * v for c, v in zip(q, vs))) < tol


def _exhaustive_chebotarev(
    N: int, max_size: int, budget: int = DEFAULT_ENUM_BUDGET
) -> ChebotarevReport:
    """Exhaust all square minors of size <= max_size and return the worst
    (smallest) minimal singular value; positive for prime N."""
    if not _is_prime(N):
        raise NotPrime(f"{N} is not prime")
    if not 1 <= max_size <= N:
        raise InvalidInput("max_size must lie in 1..N")
    total = sum(math.comb(N, n) ** 2 for n in range(1, max_size + 1))
    if total > budget:
        raise ResourceLimit(f"{total} minors exceed budget {budget}")
    worst_sigma = None
    worst_spec = None
    for n in range(1, max_size + 1):
        subsets = np.array(list(combinations(range(N), n)), dtype=np.int64)
        # batch of all row-choice x col-choice minors of size n
        prod = subsets[:, None, :, None] * subsets[None, :, None, :]
        mats = np.exp(-2j * np.pi * (prod % N) / N)
        sigmas = np.linalg.svd(mats, compute_uv=False)[..., -1]
        idx = np.unravel_index(np.argmin(sigmas), sigmas.shape)
        sigma = float(sigmas[idx])
        if worst_sigma is None or sigma < worst_sigma:
            worst_sigma = sigma
            worst_spec = MinorSpec(
                N, tuple(subsets[idx[0]].tolist()), tuple(subsets[idx[1]].tolist())
            )
    return ChebotarevReport(worst_spec=worst_spec, worst_sigma=worst_sigma, specs_checked=total)


def _report_bytes(report: ChebotarevReport) -> str:
    return json.dumps(report.to_json())


# every (prime N, max_size) whose exhaustive sweep has at most 2*10^5 minors
CHEBOTAREV_CASES = [
    (N, k)
    for N in (2, 3, 5, 7, 11, 13)
    for k in range(1, N + 1)
    if sum(math.comb(N, n) ** 2 for n in range(1, k + 1)) <= 2 * 10**5
]


@settings(max_examples=4 * len(CHEBOTAREV_CASES), deadline=None)
@given(case=st.sampled_from(CHEBOTAREV_CASES))
def test_orbit_sweep_matches_exhaustive_sweep(case):
    N, max_size = case
    assert _report_bytes(chebotarev_check(N, max_size)) == _report_bytes(
        _exhaustive_chebotarev(N, max_size)
    )


@pytest.mark.parametrize("N, max_size", [(11, 5), (31, 2), (101, 1), (997, 1)])
def test_orbit_sweep_matches_exhaustive_sweep_fixed(N, max_size):
    # (997, 1) is one orbit of N^2 minors, expanded in full
    assert _report_bytes(chebotarev_check(N, max_size)) == _report_bytes(
        _exhaustive_chebotarev(N, max_size)
    )


def test_orbit_sweep_matches_benchmark_reference():
    # the check-chebotarev --N 11 --max-size 5 reference of the benchmark
    assert chebotarev_check(11, 5).to_json() == {
        "worst_spec": {"N": 11, "rows": [2, 3, 4, 7, 10], "cols": [0, 5, 6, 7, 9]},
        "worst_sigma": 0.029766929720968484,
        "specs_checked": 352715,
    }


# -- level owners against the block loops --------------------------------------

def _block_oracle(plan: HierarchyPlan, J):
    """omega, shifts and the interval spectra as the contiguous level blocks
    built them: interval l owns the full cells K_1 + ... + K_{l-1} + 1 ..
    K_1 + ... + K_l and the boundary level K + l."""
    blocks, start = [], 1
    for K_l in plan.K_ell:
        blocks.append(range(start, start + K_l))
        start += K_l
    omega, shifts = [], []
    for ell in J:
        for n in blocks[ell - 1]:
            omega.append(integer_lattice(plan.N, 0).shift(n))
            shifts.append(n)
    for ell in J:
        n = plan.K + ell
        omega.append(plan.level_spectra[n - 1].shift(n))
        shifts.append(n)
    lambdas = []
    for ell in J:
        lam = Spectrum(F(1), ())
        for n in [*blocks[ell - 1], plan.K + ell]:
            lam = lam.union(plan.level_spectra[n - 1].shift(n))
        lambdas.append(lam.sorted_terms())
    return omega, shifts, lambdas


@pytest.mark.parametrize("name", ["plan_l1", "plan_l2", "plan_l3"])
@pytest.mark.parametrize("reload", [False, True], ids=["built", "reloaded"])
def test_level_owners_match_block_loops(name, reload, request):
    plan = request.getfixturevalue(name)
    if reload:
        plan = HierarchyPlan.from_json(json.loads(json.dumps(plan.to_json())))
    for size in range(1, plan.L + 1):
        for J in combinations(range(1, plan.L + 1), size):
            omega, shifts, lambdas = _block_oracle(plan, J)
            sp = subset_spectrum(plan, J)
            assert [s.to_json() for s in sp.omega] == [s.to_json() for s in omega]
            assert sp.shifts == tuple(shifts)
            assert [plan.lambda_ell[ell - 1].to_json() for ell in J] == [
                lam.to_json() for lam in lambdas
            ]


@pytest.mark.parametrize("name", ["plan_l1", "plan_l2", "plan_l3"])
@pytest.mark.parametrize("reload", [False, True], ids=["built", "reloaded"])
def test_plan_terms_match_window_enumeration(name, reload, request):
    # the checks a plan once ran on the window: its full union against the
    # level combination, and each sub-union's omega against its lambda_l
    plan = request.getfixturevalue(name)
    if reload:
        plan = HierarchyPlan.from_json(json.loads(json.dumps(plan.to_json())))
    w = WINDOW
    by_levels = combine_level_spectra(plan.N, plan.level_spectra, base_shift=1)
    assert plan.full_union().enumerate_integers(-w, w) == by_levels.enumerate_integers(-w, w)
    for size in range(1, plan.L + 1):
        for J in combinations(range(1, plan.L + 1), size):
            theirs = [m for ell in J for m in plan.lambda_ell[ell - 1].enumerate_integers(-w, w)]
            assert subset_spectrum(plan, J).union().enumerate_integers(-w, w) == sorted(theirs)


# -- lattice facts decided on terms vs the window scans they replaced ------

@st.composite
def lattice_terms(draw):
    """A coset term of modulus 1..12: unfiltered, or filtered by a rational
    beta p/q (q <= 12) or a generator beta, phases -3..3."""
    M = draw(st.integers(1, 12))
    j = draw(st.integers(0, M - 1))
    kind = draw(st.sampled_from(["all", "rational", "generator"]))
    if kind == "all":
        return CosetTerm(M, j)
    if kind == "rational":
        q = draw(st.integers(2, 12))
        beta = Endpoint(F(draw(st.integers(1, q - 1)), q))
    else:
        beta = draw(st.sampled_from([Endpoint(0, "0.25"), Endpoint(0, "0.5")]) | irrational_betas())
    return CosetTerm(M, j, AvdoninFilter(beta, draw(st.integers(-3, 3))))


@settings(max_examples=300, deadline=None)
@given(terms=st.lists(lattice_terms(), max_size=3), N=st.integers(1, 7))
# beta = 1/q: 1/3 at M = 1, and the generator 0.25 at M = 3, phase 2 (12Z + 6)
@example(terms=[CosetTerm(1, 0, AvdoninFilter(Endpoint(F(1, 3))))], N=3)
@example(terms=[CosetTerm(3, 0, AvdoninFilter(Endpoint(0, "0.25"), 2))], N=6)
def test_subset_of_lattice_matches_window_enumeration(terms, N):
    # per term, so that overlapping terms do not stop the oracle
    try:
        oracle = all(m % N == 0 for t in terms for m in t.integers_in(-6000, 6000))
    except AmbiguousEndpoint:
        reject()
    spec = Spectrum(F(1), tuple(terms))
    assert spec.subset_of_lattice(N) == oracle
    assert not spec.dilate(F(1, 2)).subset_of_lattice(N)


@SETTINGS
@given(terms=st.lists(lattice_terms(), max_size=6))
def test_density_sums_full_terms_per_modulus(terms):
    # the per-term Endpoint sum density once made, generator order included
    want = Endpoint(0)
    for t in terms:
        share = Endpoint(1) if t.filter is None else t.filter.beta
        want = want + share * F(1, t.modulus)
    got = Spectrum(F(1), tuple(terms)).density()
    assert got.rational == want.rational and list(got.irr.items()) == list(want.irr.items())


def test_near_reciprocal_beta_level_is_not_in_nz():
    # 1/beta = 3 + 10^-6 rounds n to 3n for |n| < 500000: the level looks
    # like 3Z on the window, but shifted by 1 it meets 3Z + 2 at 1500002,
    # 1500005, ... far outside it
    level = avdonin_interval_spectrum(F(10**6, 3 * 10**6 + 1))
    assert all(m % 3 == 0 for m in level.enumerate_integers(-WINDOW, WINDOW))
    with pytest.raises(OverlappingTerms, match="1500002"):
        level.shift(1).union(integer_lattice(3, 2)).enumerate_integers(1500000, 1500003)
    assert not level.subset_of_lattice(3)
    with pytest.raises(LevelNotInNZ):
        combine_level_spectra(3, [level, integer_lattice(3), empty_spectrum()])


def test_overlapping_terms_of_one_level_raise_when_enumerated():
    level = Spectrum(F(1), (CosetTerm(3, 0), CosetTerm(6, 0)))
    out = combine_level_spectra(3, [level, empty_spectrum(), empty_spectrum()])
    with pytest.raises(OverlappingTerms):
        out.enumerate_integers(-10, 10)


# -- level combination vs the per-level loop it replaced ------------------------

def _combine_levels(N: int, levels, shifts) -> Spectrum:
    """Union of (level_n + shifts[n-1]) over n = 1..N, each nonempty level
    checked against N*Z where it is met, as the combination once ran."""
    if len(levels) != N:
        raise InvalidInput(f"need exactly {N} level spectra")
    terms = []
    for n, (level, shift) in enumerate(zip(levels, shifts), start=1):
        if level.is_empty:
            continue
        if not level.subset_of_lattice(N):
            raise LevelNotInNZ(f"level {n} spectrum is not contained in {N}Z")
        terms.extend(level.shift(shift).terms)
    return Spectrum(F(1), tuple(terms))


@st.composite
def level_tables(draw):
    """N in 1..12 and N levels drawn from a few shared objects: N*Z, a coset
    of 2N*Z, two scaled Avdonin spectra and the empty level, with sometimes
    one level outside N*Z (a coset off N*Z, an unscaled Avdonin spectrum,
    or a spectrum of scale 1/2)."""
    N = draw(st.integers(1, 12))
    pool = [
        integer_lattice(N, 0),
        integer_lattice(2 * N, N),
        avdonin_interval_spectrum(F(2, 5)).scale_integers(N),
        avdonin_interval_spectrum(sqrt_multiple(2, F(1, 2))).scale_integers(N),
        empty_spectrum(),
    ]
    levels = draw(st.lists(st.sampled_from(pool), min_size=N, max_size=N))
    if draw(st.booleans()):
        outside = [
            integer_lattice(2 * N, 1),
            avdonin_interval_spectrum(F(1, 3)),
            integer_lattice(1, 0).dilate(F(1, 2)),
        ]
        levels[draw(st.integers(0, N - 1))] = draw(st.sampled_from(outside))
    return N, levels


def _outcome(fn, *args):
    """The spectrum fn returns, or the type and message of what it raises."""
    try:
        return fn(*args)
    except (InvalidInput, NotPrime) as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(table=level_tables(), base_shift=st.sampled_from([0, 1]), data=st.data())
def test_combine_views_match_the_per_level_loop(table, base_shift, data):
    N, levels = table
    consecutive = range(base_shift, N + base_shift)
    assert _outcome(combine_level_spectra, N, levels, base_shift) == _outcome(
        _combine_levels, N, levels, consecutive
    )
    perm = data.draw(st.permutations(range(1, N + 1)))
    got = _outcome(combine_level_spectra_permuted, N, levels, perm)
    if _is_prime(N):
        assert got == _outcome(_combine_levels, N, levels, perm)
    else:
        assert got[0] is NotPrime
    # any shifts distinct mod N, as the plan, complement and probe pass them
    shifts = [s + N * data.draw(st.integers(-2, 2)) for s in perm]
    union = lambda: Spectrum().union(*(s for _, s in _shift_levels(N, levels, shifts)))
    assert _outcome(union) == _outcome(_combine_levels, N, levels, shifts)
    if _is_prime(N):
        repeated = perm[:-1] + perm[:1]
        assert _outcome(combine_level_spectra_permuted, N, levels, repeated)[0] is NotPermutation


def _midpoint_cells(W: IntervalSet) -> tuple:
    """The grid of a rational level set as it was once read: the cells of
    1/q, q the lcm of the endpoint denominators, whose midpoints W contains,
    checked to cover W exactly."""
    q = 1
    for l, r in W.pieces:
        q = math.lcm(q, l.rational.denominator, r.rational.denominator)
    cells = [k for k in range(q) if W.contains(Endpoint(F(2 * k + 1, 2 * q)))]
    assert IntervalSet((F(k, q), F(k + 1, q)) for k in cells) == W
    return q, cells


@SETTINGS
@given(d=st.integers(3, 64), data=st.data())
def test_grid_cells_from_endpoints_match_midpoint_scan(d, data):
    # a union of rational pieces of denominators dividing d, off the
    # single-interval and wrap-around branches
    ends = st.lists(st.integers(0, d), min_size=4, max_size=min(10, d + 1), unique=True)
    ks = data.draw(ends.map(sorted))
    W = IntervalSet((F(x, d), F(y, d)) for x, y in zip(ks[0::2], ks[1::2]))
    (l0, _), *_, (_, r1) = W.pieces
    wraps = l0 == Endpoint(0) and r1 == Endpoint(1)
    assume(len(W.pieces) > 2 or (len(W.pieces) == 2 and not wraps))
    seen = []

    def grid(q, cells):
        seen.append((q, list(cells)))
        return integer_lattice()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(assembly, "rational_grid_spectrum", grid)
        assembly._level_spectrum_for(1, W)
    assert seen == [_midpoint_cells(W)]


def _complement_cases(plan_l2):
    s2, s3 = Endpoint(0, hp_sqrt(2)), Endpoint(0, hp_sqrt(3))
    return [
        (2, [1], [2]),                                      # c08
        (2, [1], [1 + s2 * F(1, 2)]),                       # c09
        (2, [1, F(3, 2)], [F(5, 4), F(7, 4)]),              # rational grid
        (5, [1, F(7, 3)], [2, F(41, 12)]),
        (3, [F(3, 2)], [F(9, 4)]),                          # wrap-around pair
        (3, [1 + s2 * F(11, 20)], [2 + s3 * F(1, 5)]),      # irrational wrap-around
        (2, [x + 1 for x in plan_l2.a], [y + 1 for y in plan_l2.b]),  # inner plan
    ]


def test_complement_passes_the_window_checks_it_dropped(plan_l2):
    for N, a, b in _complement_cases(plan_l2):
        res = complement_integer_spectrum(N, a, b)
        for level in res.level_spectra:
            window = level.enumerate_integers(-WINDOW, WINDOW)
            assert level.subset_of_lattice(N) == all(m % N == 0 for m in window)
        # the union of the shifted levels has no duplicate in the window,
        # and lambda' has no integer in it
        union = combine_level_spectra(N, res.level_spectra, base_shift=0)
        union.enumerate_integers(-WINDOW, WINDOW)
        assert all(f.denominator != 1 for f in res.lambda_prime.enumerate(WINDOW // N))


# -- filtered Endpoint decisions vs their exact oracle -----------------------

FILTER_BITS = (64, 96, 200)
near_scales = st.fractions(min_value=-6, max_value=6, max_denominator=64)


def _decide(fn):
    """fn()'s result, or the class AmbiguousEndpoint when fn raises it."""
    try:
        return fn()
    except AmbiguousEndpoint:
        return AmbiguousEndpoint


@contextlib.contextmanager
def _exact_only():
    """Every Endpoint decision on the exact path (an infinite radius)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Endpoint, "_enclosure", lambda self: (0.0, math.inf, 1.0))
        yield


@st.composite
def extreme_coeffs(draw):
    """A nonzero rational, now and then scaled to 10^k for |k| up to 400,
    past both ends of float64."""
    c = draw(st.fractions(min_value=-9, max_value=9, max_denominator=10**4).filter(bool))
    if draw(st.integers(0, 5)) == 0:
        c *= F(10) ** draw(st.integers(-400, 400))
    return c


@st.composite
def linear_forms(draw, bits: int):
    """rational + sum of c*sqrt(p) over 0-4 of sqrt 2, 3, 5, 7 made at bits."""
    e = Endpoint(draw(st.fractions(min_value=-50, max_value=50, max_denominator=10**6)))
    if draw(st.integers(0, 9)) == 0:
        e = e * F(10) ** draw(st.integers(-400, 400))
    for p in draw(st.lists(st.sampled_from(ROOTS), max_size=4, unique=True)):
        e = e + Endpoint(0, hp_sqrt(p, bits)) * draw(extreme_coeffs())
    return e


@st.composite
def near_generators(draw):
    return hp_sqrt(draw(st.sampled_from(ROOTS + (11, 13))), draw(st.sampled_from(FILTER_BITS)))


def _offset(x: Endpoint, s: Fraction, g) -> Endpoint:
    """A form of value exactly x + s*t, t the threshold of g's bits, that
    carries g as one more irrational summand: x + g + (s*t - g.value)."""
    return x + Endpoint(0, g) + (s * ambiguity_threshold([g]) - g.value)


def _out_of_float_range(x: Endpoint) -> bool:
    """Whether converting x's terms to float64 overflows, or leaves a
    coefficient or generator below the least normal float."""
    try:
        float(x.rational)
        pairs = [(float(c), g._float) for g, c in x.irr.items()]
    except OverflowError:
        return True
    return any(not 2.0**-1022 <= abs(f) < math.inf for pair in pairs for f in pair)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), bits=st.sampled_from(FILTER_BITS))
def test_filtered_cmp_matches_exact(data, bits):
    x = data.draw(linear_forms(bits))
    if data.draw(st.booleans()):
        y = data.draw(linear_forms(bits))
    else:  # within a few thresholds of x, on either side, or equal
        y = _offset(x, data.draw(near_scales), data.draw(near_generators()))
    assert _decide(lambda: x._cmp(y)) == _decide(lambda: x._cmp_exact(y))
    assert _decide(lambda: y._cmp(x)) == _decide(lambda: y._cmp_exact(x))
    for z in (x, y):
        if _out_of_float_range(z):
            assert z._enclosure()[1] == math.inf


@settings(max_examples=200, deadline=None)
@given(data=st.data(), bits=st.sampled_from(FILTER_BITS))
def test_filtered_floor_matches_exact(data, bits):
    x = data.draw(linear_forms(bits))
    if data.draw(st.booleans()):  # within a few thresholds of an integer
        n = data.draw(st.integers(-50, 50))
        x = _offset(x - x.exact() + n, data.draw(near_scales), data.draw(near_generators()))
    assert _decide(x.floor) == _decide(x._floor_exact)
    assert _decide(x.round_half_up) == _decide(lambda: (x + F(1, 2))._floor_exact())
    if _out_of_float_range(x):
        assert x._enclosure()[1] == math.inf


def test_near_ties_split_at_the_threshold():
    # the exact answer flips from AmbiguousEndpoint to a sign at s = 1
    for bits in FILTER_BITS:
        x = Endpoint(F(1, 3)) + Endpoint(0, hp_sqrt(2, bits))
        g = hp_sqrt(5, bits)
        for s in (F(-3), F(-1), F(-99, 100), F(0), F(1, 2), F(99, 100), F(1), F(2), F(5)):
            y = _offset(x, s, g)
            want = AmbiguousEndpoint if abs(s) < 1 else (s > 0) - (s < 0)
            assert _decide(lambda: y._cmp(x)) == want
            z = _offset(x - x.exact() + 7, s, g)
            want = AmbiguousEndpoint if abs(s) < 1 else 7 - (s < 0)
            assert _decide(z.floor) == want


@pytest.mark.parametrize(
    "x",
    [
        Endpoint(0, hp_sqrt(2)) * F(10) ** 400,
        Endpoint(0, hp_sqrt(2)) * F(3, 10**320),  # the coefficient is subnormal
        Endpoint(F(10) ** 400) + Endpoint(0, hp_sqrt(3)),
        Endpoint(0, "1e400") + F(1, 3),
        Endpoint(0, "1e-400") + 5,
    ],
    ids=["coeff-overflow", "coeff-underflow", "rational-overflow", "gen-overflow", "gen-underflow"],
)
def test_out_of_float_range_takes_exact_path(x):
    assert x._enclosure()[1] == math.inf
    for y in (Endpoint(0), Endpoint(5), x + Endpoint(0, hp_sqrt(7)) * F(1, 9), x * 2):
        assert _decide(lambda: x._cmp(y)) == _decide(lambda: x._cmp_exact(y))
    assert _decide(x.floor) == _decide(x._floor_exact)


@settings(max_examples=100, deadline=None)
@given(instance=fold_instances())
def test_forced_fallback_matches_filtered_fold(instance):
    N, S = instance

    def run():
        return _decide(lambda: (
            _pattern_json(fold_pattern(N, S)),
            [level.to_json() for level in a_geq_all(N, S)],
            S.symmetric_difference(S.shift(F(1, 2 * N))).to_json(),
        ))

    filtered = run()
    with _exact_only():
        assert run() == filtered


def _per_n_elements_in(filt: AvdoninFilter, lo: Fraction, hi: Fraction) -> list:
    """elements_in as one exact rounding per n: n/beta + 1/2 as a Fraction,
    floored, and for an irrational beta guarded at its threshold as
    Endpoint._floor_exact guards a floor; n runs two past the range that
    can reach [lo, hi] (the loop the integer recurrence replaced)."""
    beta = filt.beta.exact()
    num, den = beta.numerator, beta.denominator
    r_lo, r_hi = lo - filt.phase, hi - filt.phase
    n_lo = math.ceil(beta * (r_lo - F(1, 2)))
    n_hi = math.floor(beta * (r_hi + F(1, 2)))
    t = ambiguity_threshold(filt.beta.irr)
    out = []
    for n in range(n_lo - 2, n_hi + 3):
        x = F(2 * n * den + num, 2 * num)  # n/beta + 1/2
        r, rem = divmod(x.numerator, x.denominator)
        tie = min(rem, x.denominator - rem) * t.denominator < t.numerator * x.denominator
        if tie and not filt.beta.is_rational:
            raise AmbiguousEndpoint(
                f"rounding of {n}/beta is within the working-precision threshold of an integer"
            )
        if r_lo <= r <= r_hi:
            out.append(r + filt.phase)
    return out


def _rounding(fn, *args):
    """fn(*args), or the type and message of the AmbiguousEndpoint it
    raises."""
    try:
        return fn(*args)
    except AmbiguousEndpoint as exc:
        return type(exc), str(exc)


@st.composite
def near_tie_betas(draw, bits=None):
    """(beta, k): beta = q + s*t*q^2/n, q = 2n/(2k - 1), which puts n/beta +
    1/2 about s*t from the integer k, t the threshold of a root made at
    bits (drawn when None)."""
    n = draw(st.integers(1, 300))
    k = n + draw(st.integers(1, 300))
    q = F(2 * n, 2 * k - 1)
    s = draw(near_scales) * q * q / n
    if bits is None:
        g = draw(near_generators())
    else:
        g = hp_sqrt(draw(st.sampled_from(ROOTS + (11, 13))), bits)
    return _offset(Endpoint(q), s, g), k


@settings(max_examples=150, deadline=None)
@given(data=st.data(), phase=st.integers(-5, 5))
def test_forced_fallback_matches_filtered_rounding(data, phase):
    # near-tie or plain irrational betas, against the per-n exact rounding
    if data.draw(st.booleans()):
        beta, k = data.draw(near_tie_betas())
    else:
        beta, k = data.draw(irrational_betas()), data.draw(st.integers(2, 600))
    filt = AvdoninFilter(beta=beta, phase=phase)
    lo = F(k + phase - 40)
    expect = _rounding(_per_n_elements_in, filt, lo, lo + 80)
    assert _rounding(filt.elements_in, lo, lo + 80) == expect


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    bits=st.sampled_from(FILTER_BITS),
    kind=st.sampled_from(("root", "near tie", "rational")),
    phase=st.integers(-5, 5),
    below=st.fractions(min_value=-300, max_value=300, max_denominator=4),
    span=st.fractions(min_value=-2, max_value=600, max_denominator=3),
)
def test_elements_in_matches_per_n_rounding(data, bits, kind, phase, below, span):
    # equal lists, or the same exception type and message, at every
    # precision; a window may be empty or lie past a tie
    if kind == "near tie":
        beta, center = data.draw(near_tie_betas(bits))
    elif kind == "root":
        c = F(data.draw(st.integers(1, 37)), 100)
        beta, center = Endpoint(0, hp_sqrt(data.draw(st.sampled_from(ROOTS)), bits)) * c, 0
    else:
        beta, center = Endpoint(data.draw(rational_betas)), 0
    filt = AvdoninFilter(beta=beta, phase=phase)
    lo = center + phase - below
    expect = _rounding(_per_n_elements_in, filt, lo, lo + span)
    assert _rounding(filt.elements_in, lo, lo + span) == expect


def test_elements_in_raises_on_a_tie_in_the_padding():
    # beta = q + t*q^2/10, q = 10/23: 5/beta + 1/2 lies about t/2 below the
    # integer 12, outside the rounded window [2, 10], and n = 5 is the first
    # of the two padding n past it; no n before 5 is near a tie
    q = F(10, 23)
    filt = AvdoninFilter(beta=_offset(Endpoint(q), q * q / 10, hp_sqrt(2, 96)))
    with pytest.raises(AmbiguousEndpoint) as info:
        filt.elements_in(F(2), F(10))
    assert str(info.value) == (
        "rounding of 5/beta is within the working-precision threshold of an integer"
    )
    assert _rounding(_per_n_elements_in, filt, F(2), F(10)) == (
        AmbiguousEndpoint, str(info.value)
    )
    assert filt.elements_in(F(2), F(5)) == [2, 5]


@st.composite
def enclosed_forms(draw, bits: int):
    """A linear form, now and then moved within a few thresholds of an
    integer."""
    x = draw(linear_forms(bits))
    if draw(st.booleans()):
        n = draw(st.integers(-50, 50))
        x = _offset(x - x.exact() + n, draw(near_scales), draw(near_generators()))
    return x


@settings(max_examples=100, deadline=None)
@given(data=st.data(), bits=st.sampled_from(FILTER_BITS))
def test_float_rules_match_exact_decisions(data, bits):
    # the floor and sign rules of intervals, scalar and array forms alike,
    # decide only what the exact path decides, and the same way
    xs = data.draw(st.lists(enclosed_forms(bits), min_size=2, max_size=6))
    ys = [
        _offset(x, data.draw(near_scales), data.draw(near_generators()))
        if data.draw(st.booleans()) else data.draw(linear_forms(bits))
        for x in xs
    ]
    v, e, t = (np.array(col) for col in zip(*(x._enclosure() for x in xs)))
    w, f, s = (np.array(col) for col in zip(*(y._enclosure() for y in ys)))
    with np.errstate(over="ignore", invalid="ignore"):
        floors, floor_decided = intervals._floor_rule(v, e, t)
        sign_decided = intervals._sign_rule(v - w, e + f, np.maximum(t, s))
    for i, x in enumerate(xs):
        fl, decided = intervals._floor_rule(v[i].item(), e[i].item(), t[i].item())
        assert decided == floor_decided[i]
        if decided:
            assert fl == floors[i] and x._floor_exact() == fl
        d = v[i].item() - w[i].item()
        decided = intervals._sign_rule(d, e[i].item() + f[i].item(), max(t[i].item(), s[i].item()))
        assert decided == sign_decided[i]
        if decided:
            assert x._cmp_exact(ys[i]) == (1 if d > 0 else -1)
    # the array form of (x * N).frac(): where the floor of x*N is decided,
    # w lies within r of the exact fractional part
    N = np.array(data.draw(st.lists(st.integers(1, 10**6), min_size=1, max_size=4)), dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        fracs, radii, ts, decided = intervals._scaled_fracs(xs, N)
    assert (ts[:, 0] == t).all()
    for i, j in zip(*np.nonzero(decided)):
        y = xs[i] * int(N[j])
        exact_frac = y.exact() - y._floor_exact()  # does not raise
        assert abs(F(fracs[i, j].item()) - exact_frac) <= F(radii[i, j].item())


def test_fold_compares_decide_in_float():
    """On the criterion-04 fold instances, no compare of two forms with
    different irrational maps and no floor of an irrational form reaches
    the exact path."""
    from test_acceptance import _random_fold_instance

    rnd = random.Random(20250810)
    exact_cmp, exact_floor, enclosure = (
        Endpoint._cmp_exact, Endpoint._floor_exact, Endpoint._enclosure,
    )
    reached, decisions = [], [0]

    def cmp(a, b):
        if a.irr != b.irr:
            reached.append(("cmp", a, b))
        return exact_cmp(a, b)

    def floor(a):
        if a.irr:
            reached.append(("floor", a))
        return exact_floor(a)

    def counted(a):
        decisions[0] += 1
        return enclosure(a)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Endpoint, "_cmp_exact", cmp)
        mp.setattr(Endpoint, "_floor_exact", floor)
        mp.setattr(Endpoint, "_enclosure", counted)
        for _ in range(50):
            N = rnd.randrange(2, 12)
            S = _random_fold_instance(rnd)
            a_geq_all(N, S)
            a_geq_all(N, S.complement())
            union = IntervalSet.empty()
            for n in range(N + 1):
                union = union.union(a_exact(N, S, n))
            for n in range(1, N + 1):
                b_exact(N, S, n)
    assert decisions[0] > 10_000
    assert reached == []


# -- folding probe: trial blocks vs the per-trial loop vs one pass per level ---

def _probe_tables(N, S, levels, shifts, trunc_window):
    """What the probe builds before its trial loop, in one shot: cells, the
    coefficient kernel, the level masks, the folding weights and the minor
    floor.  Input checks are left out."""
    pieces = [(l, r, ks) for l, r, ks in fold_pattern(N, S) if ks]
    cellw = F(1, N)
    piece_lens = np.array([float(r - l) for l, r, _ in pieces])
    piece_counts = np.array([len(ks) for _, _, ks in pieces])
    cells, cell_piece, cell_k = [], [], []
    for p_idx, (left, right, ks) in enumerate(pieces):
        for k in ks:
            cells.append((left + k * cellw, right + k * cellw))
            cell_piece.append(p_idx)
            cell_k.append(k)
    cell_piece_arr = np.asarray(cell_piece)
    cell_lens = piece_lens[cell_piece_arr]

    lambdas = np.arange(-trunc_window, trunc_window + 1)
    lefts = np.array([float(l) for l, _ in cells])
    rights = np.array([float(r) for _, r in cells])
    nz = lambdas != 0
    lam_nz = lambdas[nz]
    ker = np.empty((len(cells), len(lambdas)), dtype=np.complex128)
    ker[:, nz] = (
        np.exp(-2j * np.pi * np.outer(rights, lam_nz))
        - np.exp(-2j * np.pi * np.outer(lefts, lam_nz))
    ) / (-2j * np.pi * lam_nz[None, :])
    ker[:, ~nz] = cell_lens[:, None]

    level_masks = []
    for n in range(1, N + 1):
        mask = np.zeros(len(lambdas), dtype=bool)
        if not levels[n - 1].is_empty:
            shifted = levels[n - 1].shift(shifts[n - 1])
            lam_vals = shifted.enumerate_integers(-trunc_window, trunc_window)
            mask[np.asarray(lam_vals, dtype=np.int64) + trunc_window] = True
        level_masks.append(mask)
    fiber_sets = sorted(set(ks for _, _, ks in pieces))
    return dict(
        n_cells=len(cells),
        n_pieces=len(pieces),
        piece_lens=piece_lens,
        piece_counts=piece_counts,
        cell_piece_arr=cell_piece_arr,
        cell_k_arr=np.asarray(cell_k),
        cell_lens=cell_lens,
        cell_counts=piece_counts[cell_piece_arr],
        ker=ker,
        level_masks=level_masks,
        fold_w=np.exp(-2j * np.pi * np.outer(np.asarray(shifts), np.arange(N)) / N),
        sigma_min_used=math.sqrt(c_prime_bound(N, list(shifts), fiber_sets)),
    )


def _probe_report(sigma_min_used, ratio_min, alpha_min, tail_max, used_trials):
    """The probe's warning and report from its running minima."""
    if tail_max > verify.TAIL_THRESHOLD:
        warnings.warn(
            f"coefficient tail {tail_max:.3%} exceeds {verify.TAIL_THRESHOLD:.0%} of energy",
            TruncationWarning,
        )
    return verify.FoldingReport(
        empirical_c=float(ratio_min),
        per_level_alpha=tuple(a for a in alpha_min if math.isfinite(a)),
        sigma_min_used=sigma_min_used,
        trials=used_trials,
        tail_fraction_max=tail_max,
    )


def _per_level_folding_probe(N, S, levels, shifts, trials, seed, trunc_window=2048):
    """The probe as it ran before it skipped levels: the tail energies and
    the folded values are recomputed for every level n = 1..max count."""
    t = _probe_tables(N, S, levels, shifts, trunc_window)
    n_cells, n_pieces, ker, fold_w = t["n_cells"], t["n_pieces"], t["ker"], t["fold_w"]
    piece_lens, piece_counts = t["piece_lens"], t["piece_counts"]
    cell_lens, cell_counts = t["cell_lens"], t["cell_counts"]
    level_masks = t["level_masks"]

    max_count = int(piece_counts.max())
    ratio_min = math.inf
    alpha_min = [math.inf] * N
    tail_max = 0.0
    used_trials = 0
    for trial in range(trials):
        vals = verify._draw_test_function(n_cells, seed, trial)
        norm_all = float(np.sum(np.abs(vals) ** 2 * cell_lens))
        if norm_all <= 0.0:
            continue
        used_trials += 1
        c_all = vals @ ker
        captured = float(np.sum(np.abs(c_all) ** 2))
        tail_max = max(tail_max, max(0.0, 1.0 - captured / norm_all))
        C = np.zeros((N, n_pieces), dtype=np.complex128)
        C[t["cell_k_arr"], t["cell_piece_arr"]] = vals
        for n in range(1, max_count + 1):
            sel = cell_counts >= n
            tail_vals = np.where(sel, vals, 0.0)
            coeffs = tail_vals @ ker
            energy = np.abs(coeffs) ** 2
            piece_sel = piece_counts >= n
            C_tail = np.where(piece_sel[None, :], C, 0.0)
            H = fold_w @ C_tail
            norm_fn = float(
                np.sum(np.abs(vals[cell_counts == n]) ** 2 * cell_lens[cell_counts == n])
            )
            level_sum = 0.0
            for ell in range(1, n + 1):
                ls = float(np.sum(energy[level_masks[ell - 1]]))
                level_sum += ls
                h_sq = float(np.sum(np.abs(H[ell - 1]) ** 2 * piece_lens))
                if h_sq > 1e-12 * norm_all:
                    alpha_min[ell - 1] = min(alpha_min[ell - 1], ls / h_sq)
            if norm_fn > 1e-12 * norm_all:
                ratio_min = min(ratio_min, level_sum / norm_fn)
    return _probe_report(t["sigma_min_used"], ratio_min, alpha_min, tail_max, used_trials)


def _per_trial_folding_probe(N, S, levels, shifts, trials, seed, trunc_window=2048):
    """The probe as it ran before it evaluated trials in blocks: one pass per
    trial, and in it one pass per count that occurs."""
    t = _probe_tables(N, S, levels, shifts, trunc_window)
    n_cells, n_pieces, ker, fold_w = t["n_cells"], t["n_pieces"], t["ker"], t["fold_w"]
    piece_lens, piece_counts = t["piece_lens"], t["piece_counts"]
    cell_lens, cell_counts = t["cell_lens"], t["cell_counts"]
    level_masks = t["level_masks"]

    counts = sorted(set(piece_counts.tolist()))
    ratio_min = math.inf
    alpha_min = [math.inf] * N
    tail_max = 0.0
    used_trials = 0
    for trial in range(trials):
        vals = verify._draw_test_function(n_cells, seed, trial)
        norm_all = float(np.sum(np.abs(vals) ** 2 * cell_lens))
        if norm_all <= 0.0:
            continue
        used_trials += 1
        C = np.zeros((N, n_pieces), dtype=np.complex128)
        C[t["cell_k_arr"], t["cell_piece_arr"]] = vals
        for c in counts:
            least = c == counts[0]
            tail_vals = vals if least else np.where(cell_counts >= c, vals, 0.0)
            energy = np.abs(tail_vals @ ker) ** 2
            if least:
                captured = float(np.sum(energy))
                tail_max = max(tail_max, max(0.0, 1.0 - captured / norm_all))
            piece_sel = piece_counts >= c
            C_tail = np.where(piece_sel[None, :], C, 0.0)
            H = fold_w @ C_tail
            norm_fn = float(
                np.sum(np.abs(vals[cell_counts == c]) ** 2 * cell_lens[cell_counts == c])
            )
            level_sum = 0.0
            for ell in range(1, c + 1):
                ls = float(np.sum(energy[level_masks[ell - 1]]))
                level_sum += ls
                h_sq = float(np.sum(np.abs(H[ell - 1]) ** 2 * piece_lens))
                if h_sq > 1e-12 * norm_all:
                    alpha_min[ell - 1] = min(alpha_min[ell - 1], ls / h_sq)
            if norm_fn > 1e-12 * norm_all:
                ratio_min = min(ratio_min, level_sum / norm_fn)
    return _probe_report(t["sigma_min_used"], ratio_min, alpha_min, tail_max, used_trials)


def _probe_with_warnings(probe, *args, **kwargs):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = probe(*args, **kwargs)
    return report, [str(w.message) for w in caught]


@SETTINGS
@given(
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
    trials=st.integers(1, 5),
    window=st.sampled_from([16, 256, 2048]),
)
def test_probe_per_count_matches_per_level(plan_l1, plan_l2, data, seed, trials, window):
    plan = data.draw(st.sampled_from([plan_l1, plan_l2]))
    shifts = data.draw(st.permutations(range(1, plan.N + 1)))
    args = (plan.N, plan.S, plan.level_spectra, shifts, trials, seed)
    got = _probe_with_warnings(verify.folding_probe, *args, trunc_window=window)
    assert got == _probe_with_warnings(_per_level_folding_probe, *args, trunc_window=window)


def test_probe_kernel_blocks_match_per_level():
    # 257 cells fill two 256-row kernel blocks
    N = 257
    args = (N, IntervalSet.unit(), [integer_lattice(N)] * N, list(range(1, N + 1)), 1, 0)
    got = _probe_with_warnings(verify.folding_probe, *args)
    assert got == _probe_with_warnings(_per_level_folding_probe, *args)


@SETTINGS
@given(
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
    trials=st.integers(1, 2 * verify._TRIAL_BLOCK + 1),
    window=st.sampled_from([16, 256, 2048]),
)
def test_probe_trial_blocks_match_per_trial(plan_l1, plan_l2, data, seed, trials, window):
    # up to two whole blocks and one row of a third
    plan = data.draw(st.sampled_from([plan_l1, plan_l2]))
    shifts = data.draw(st.permutations(range(1, plan.N + 1)))
    args = (plan.N, plan.S, plan.level_spectra, shifts, trials, seed)
    got = _probe_with_warnings(verify.folding_probe, *args, trunc_window=window)
    assert got == _probe_with_warnings(_per_trial_folding_probe, *args, trunc_window=window)


@pytest.mark.parametrize("N", [257, 29])
def test_probe_trial_blocks_match_per_trial_on_long_rows(sq, N):
    # sums over more than 8 entries, where numpy's pairwise order differs
    # from a sequential one: at N=257 the unit interval has 257 cells of
    # count 257; at N=29 the L=1 plan has two count classes of 18 and 10 cells
    if N == 257:
        args = (N, IntervalSet.unit(), [integer_lattice(N)] * N, list(range(1, N + 1)))
    else:
        plan = construct_hierarchy_with_prime([sq[2] - 1], [sq[3] - 1], N)
        counts = [len(ks) for _, _, ks in fold_pattern(N, plan.S) if ks]
        assert sorted(c * counts.count(c) for c in set(counts)) == [10, 18]
        args = (N, plan.S, plan.level_spectra, list(range(N, 0, -1)))
    args += (verify._TRIAL_BLOCK + 2, 3)
    got = _probe_with_warnings(verify.folding_probe, *args)
    assert got == _probe_with_warnings(_per_trial_folding_probe, *args)


@pytest.mark.parametrize("zeros", ["scattered", "first block", "all"])
def test_probe_skips_zero_draws(plan_l2, zeros):
    B = verify._TRIAL_BLOCK
    trials = 2 * B + 1
    zero = {
        "scattered": {1, B, 2 * B},
        "first block": set(range(B)),
        "all": set(range(trials)),
    }[zeros]
    draw = verify._draw_test_function

    def with_zeros(n, seed, trial):
        return np.zeros(n, dtype=np.complex128) if trial in zero else draw(n, seed, trial)

    plan = plan_l2
    args = (plan.N, plan.S, plan.level_spectra, list(range(1, plan.N + 1)), trials, 5)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "_draw_test_function", with_zeros)
        got = _probe_with_warnings(verify.folding_probe, *args)
        assert got == _probe_with_warnings(_per_trial_folding_probe, *args)
    assert got[0].trials == trials - len(zero)


# -- level tables: one derivation and one writer vs the helpers they replaced

def _level_pattern(N, a, b, ells, K):
    """The deleted assembly._level_pattern, its _fiber_levels inlined:
    the fiber-count sets of the union of the intervals ells, checked against
    K full cells, the boundary pieces in order, then empty levels."""
    S = IntervalSet((a[ell - 1], b[ell - 1]) for ell in ells)
    pattern = fold_pattern(N, S)
    a_sets, K_S = tuple(intervals.geq_levels(N, pattern)), min(len(ks) for _, _, ks in pattern)
    if K_S != K:
        raise DegenerateCoverage(
            f"full-cell count mismatch at N={N}: pattern gives {K_S}, intervals give {K}"
        )
    if K + len(ells) > N:
        raise ConstructionError("level pattern exceeds N levels")
    cell = Fraction(1, N)
    betas = []
    for n, ell in enumerate(ells, start=K + 1):
        fa = (a[ell - 1] * N).frac()
        fb = (b[ell - 1] * N).frac()
        if a_sets[n - 1] != IntervalSet([(fa * cell, fb * cell)]):
            raise ConstructionError(
                f"level {n} does not match the boundary piece of interval {ell}"
            )
        betas.append(fb - fa)
    n = K + len(ells) + 1
    if n <= N and not a_sets[n - 1].is_empty:
        raise ConstructionError(f"level {n} should be empty")
    return a_sets, betas


def _geometry_oracle(N, a, b, ells):
    """The two steps _geometry replaced: the full-cell count of each
    interval in ells, then _level_pattern of their union."""
    K_ell = []
    for ell in ells:
        x, y = a[ell - 1], b[ell - 1]
        interior = (y * N).floor() - (x * N).ceil()
        if interior < 0:
            raise DegenerateCoverage(
                f"interval [{float(x):.6g},{float(y):.6g}) spans no grid point at N={N}"
            )
        K_ell.append(interior + 1)
    a_sets, betas = _level_pattern(N, a, b, ells, sum(K_ell))
    return tuple(K_ell), a_sets, betas


def _result_or_error(fn, *args):
    """fn(*args), or the type and message of the package error it raises."""
    try:
        return fn(*args)
    except RieszSpectraError as exc:
        return type(exc), str(exc)


def _subsets(L):
    return [list(J) for r in range(1, L + 1) for J in combinations(range(1, L + 1), r)]


def _sub_chain(a, b, J):
    """The endpoint lists of the sub-union over J."""
    return [a[ell - 1] for ell in J], [b[ell - 1] for ell in J]


@pytest.mark.parametrize("name", ["plan_l1", "plan_l2", "plan_l3"])
def test_geometry_of_every_subset_matches_level_pattern(name, request):
    plan = request.getfixturevalue(name)
    N, a, b = plan.N, plan.a, plan.b
    for J in _subsets(plan.L):
        got = assembly._geometry(N, *_sub_chain(a, b, J))
        assert got == _geometry_oracle(N, a, b, J)
        assert got[0] == tuple(plan.K_ell[ell - 1] for ell in J)
        assert subset_spectrum(plan, J).K_J == sum(got[0])
    assert assembly._geometry(N, a, b) == _geometry_oracle(N, a, b, range(1, plan.L + 1))


def test_geometry_matches_level_pattern_at_non_ordering_primes(plan_l1, plan_l2, monkeypatch):
    seen = set()
    for plan in (plan_l1, plan_l2):
        a, b = plan.a, plan.b
        for N in filter(_is_prime, range(2, 80)):
            for J in _subsets(plan.L):
                a_J, b_J = _sub_chain(a, b, J)
                got = _result_or_error(assembly._geometry, N, a_J, b_J)
                assert got == _result_or_error(_geometry_oracle, N, a_J, b_J, range(1, len(J) + 1))
            build = lambda: construct_hierarchy_with_prime(a, b, N).to_json()  # noqa: E731
            got = _result_or_error(build)
            with monkeypatch.context() as mp:
                mp.setattr(assembly, "_geometry", lambda N, a, b: _geometry_oracle(
                    N, a, b, range(1, len(a) + 1)
                ))
                assert got == _result_or_error(build)
            seen.add(got[0] if isinstance(got, tuple) else dict)
    # the plans, both DegenerateCoverage messages, a boundary-piece mismatch
    # and a reversed boundary piece all occur
    assert seen == {dict, DegenerateCoverage, ConstructionError, InvalidInput}


def _generic_level_table(plan):
    """(owner, n, level n shifted by n) for each owned level n, as the plan
    derived them before its closed form: its N levels through the generic
    _shift_levels, each picked by its owner."""
    owners = plan.level_interval
    return [(owners[n - 1], n, s)
            for n, s in _shift_levels(plan.N, plan.level_spectra, range(1, plan.N + 1))]


def _rederived_subset_spectrum(plan, J):
    """The replaced subset_spectrum: omega and shifts from the generic level
    table, K_J and the boundary densities checked against the fiber-count
    sets of S^J re-derived from its endpoints."""
    J = sorted(set(int(ell) for ell in J))
    owned = [entry for entry in _generic_level_table(plan) if entry[0] in J]
    omega, shifts = tuple(s for _, _, s in owned), tuple(n for _, n, _ in owned)
    K_ell, levels_J, _ = _geometry_oracle(plan.N, plan.a, plan.b, J)
    K_J = sum(K_ell)
    for spec, target in zip(omega[K_J:], levels_J[K_J:]):
        if abs(float(spec.density()) - float(target.measure())) > assembly._DENSITY_TOL:
            raise ConstructionError("omega ordering does not match the level sets")
    return assembly.SubsetPlan(J=tuple(J), K_J=K_J, omega=omega, shifts=shifts)


def _reference_plans(bits):
    """plan_l1, plan_l2 and plan_l3 built from endpoints made at bits."""
    def root(p, c):
        return Endpoint(0, hp_sqrt(p, bits)) * c

    l1 = ([root(2, 1) - 1], [root(3, 1) - 1], 5)
    e2 = [Endpoint(Fraction(k, 7)) + root(p, c) for k, p, c in (
        (1, 2, Fraction(101, 5000)), (2, 3, Fraction(33, 500)),
        (4, 5, Fraction(13, 625)), (5, 7, Fraction(91, 2500)),
    )]
    e3 = [Endpoint(Fraction(k, 11)) + root(p, Fraction(1, 100))
          for k, p in ((1, 2), (2, 3), (4, 5), (5, 7), (7, 11), (8, 13))]
    chains = (l1, (e2[0::2], e2[1::2], 7), (e3[0::2], e3[1::2], 1933))
    return [construct_hierarchy_with_prime(a, b, N) for a, b, N in chains]


@pytest.mark.parametrize("bits", [64, 96, 200])
def test_subset_spectrum_matches_rederived_oracle(bits):
    # every sub-union of the L = 1, 2, 3 plans, built and loaded back at
    # the bits their endpoints were made at
    for plan in _reference_plans(bits):
        back = HierarchyPlan.from_json(json.loads(json.dumps(plan.to_json())), bits=bits)
        for p in (plan, back):
            for J in _subsets(p.L):
                assert subset_spectrum(p, J).to_json() == _rederived_subset_spectrum(p, J).to_json()


@st.composite
def _prime_and_chain(draw):
    """A prime N and L = 1..3 intervals a_l < b_l in (0, 1), placed so that
    the fractional parts {N a_l}, {N b_l} are often nested (the hierarchy
    pattern) and otherwise permuted; a fractional part k/D may be 0."""
    L = draw(st.integers(1, 3))
    N = draw(st.sampled_from([p for p in primes_up_to(60) if p >= L]))
    D = draw(st.integers(2 * L + 1, 60))
    ks = sorted(draw(st.sets(st.integers(0, D - 1), min_size=2 * L, max_size=2 * L)))
    fracs = []
    for i, k in enumerate(ks):
        s = draw(st.integers(0 if k == 0 else -1, 1))
        fracs.append(Endpoint(Fraction(k, D)) + Endpoint(0, hp_sqrt((2, 3, 5, 7, 11, 13)[i]))
                     * Fraction(s, 1000 * D))
    nested = fracs[:L] + fracs[L:][::-1]  # {N a_1} < ... < {N a_L} < {N b_L} < ... < {N b_1}
    order = draw(st.one_of(st.just(list(range(2 * L))), st.permutations(range(2 * L))))
    fa, fb = [nested[i] for i in order[:L]], [nested[i] for i in order[L:]]
    # integer parts A_1 <= B_1 < A_2 <= ... <= B_L <= N - 1 keep the chain increasing
    cuts = sorted(draw(st.lists(st.integers(0, N - L), min_size=2 * L, max_size=2 * L)))
    A, B = [c + i for i, c in enumerate(cuts[0::2])], [c + i for i, c in enumerate(cuts[1::2])]
    cell = Fraction(1, N)
    a = [(fa[i] + A[i]) * cell for i in range(L)]
    b = [(fb[i] + B[i]) * cell for i in range(L)]
    try:
        interval_chain(a, b)
    except InvalidInput:
        reject()
    return N, a, b


@settings(max_examples=150, deadline=None)
@given(instance=_prime_and_chain())
def test_accepted_geometry_bounds_counts_and_fixes_every_sub_union(instance):
    # where _geometry accepts, no fiber count exceeds K + L, and every
    # sub-union J has sum of K_l over J full levels, then the boundary
    # pieces of J in order: what subset_spectrum reads off the plan
    N, a, b = instance
    try:
        K_ell, a_sets, betas = assembly._geometry(N, a, b)
    except RieszSpectraError:
        return
    K, L = sum(K_ell), len(a)
    pattern = fold_pattern(N, IntervalSet(zip(a, b)))
    assert max(len(ks) for _, _, ks in pattern) <= K + L
    assert all(s.is_empty for s in a_sets[K + L:])
    for J in _subsets(L):
        K_ell_J, levels_J, betas_J = assembly._geometry(N, *_sub_chain(a, b, J))
        assert K_ell_J == tuple(K_ell[ell - 1] for ell in J)
        assert betas_J == [betas[ell - 1] for ell in J]
        K_J = sum(K_ell_J)
        assert levels_J[K_J:K_J + len(J)] == tuple(a_sets[K + ell - 1] for ell in J)


def _generic_plan_views(plan):
    """lambda_l for every l, then (omega, shifts, K_J) for every J, read off
    the generic level table."""
    table = _generic_level_table(plan)
    lambdas = [Spectrum().union(*(s for o, _, s in table if o == ell)).sorted_terms()
               for ell in range(1, plan.L + 1)]
    subsets = []
    for J in _subsets(plan.L):
        owned = [(n, s) for o, n, s in table if o in J]
        K_J = sum(plan.K_ell[ell - 1] for ell in J)
        subsets.append((tuple(s for _, s in owned), tuple(n for n, _ in owned), K_J))
    return lambdas, subsets


def _closed_form_plan_views(plan):
    """The same views read off the plan's closed-form level table."""
    lambdas = list(plan.lambda_ell)
    return lambdas, [(sp.omega, sp.shifts, sp.K_J)
                     for sp in (subset_spectrum(plan, J) for J in _subsets(plan.L))]


def _assert_closed_form_matches_generic(plan):
    """Equal terms, omega, shifts and K_J, or the same error and message."""
    got = _result_or_error(_closed_form_plan_views, plan)
    want = _result_or_error(_generic_plan_views, plan)
    assert got == want
    if not isinstance(want[0], type):  # the plan's JSON prints the terms
        assert [s.to_json() for s in got[0]] == [s.to_json() for s in want[0]]
    return want


@st.composite
def _boundary_spectra(draw, N):
    """A boundary level for a plan at N: a few terms drawn by lattice_terms
    and scaled into N*Z (moduli above N, or N itself), the coset 1/N-filtered
    at modulus 1 (in N*Z only for a phase divisible by N), or raw terms,
    mostly outside N*Z."""
    kind = draw(st.sampled_from(["scaled", "reciprocal", "raw"]))
    if kind == "scaled":
        return Spectrum(F(1), tuple(draw(st.lists(lattice_terms(), min_size=1, max_size=3))))\
            .scale_integers(N)
    if kind == "reciprocal" and N > 1:
        phase = N * draw(st.integers(-2, 2)) + draw(st.sampled_from([0, 0, 1]))
        return Spectrum(F(1), (CosetTerm(1, 0, AvdoninFilter(Endpoint(F(1, N)), phase)),))
    return Spectrum(F(1), tuple(draw(st.lists(lattice_terms(), max_size=3))))


@settings(max_examples=150, deadline=None)
@given(instance=_prime_and_chain(), data=st.data())
def test_closed_form_plan_levels_match_generic_shift(instance, data):
    # small-prime plans (K + L = N among them), as built and with one
    # boundary level replaced, against the N-level table shifted by the
    # generic _shift_levels: the same lambda_l terms, the same omega, shifts
    # and K_J for every J, or LevelNotInNZ with the same message
    N, a, b = instance
    try:
        plan = construct_hierarchy_with_prime(a, b, N)
    except RieszSpectraError:
        reject()
    _assert_closed_form_matches_generic(plan)
    boundary = list(plan.boundary)
    boundary[data.draw(st.integers(0, plan.L - 1))] = data.draw(_boundary_spectra(N))
    _assert_closed_form_matches_generic(dataclasses.replace(plan, boundary=tuple(boundary)))


def test_closed_form_sorts_a_wrapped_boundary_first(sq):
    # N = 2, K = L = 1: the boundary level 2 shifted by 2 wraps to offset 0
    # (phase 1) and sorts before the full level 1
    a, b = Endpoint(F(1, 10)) + sq[2] * F(1, 1000), Endpoint(F(9, 10)) + sq[3] * F(1, 1000)
    plan = construct_hierarchy_with_prime([a], [b], 2)
    assert plan.K + plan.L == plan.N == 2
    (lam,) = _assert_closed_form_matches_generic(plan)[0]
    assert [(t.modulus, t.offset, t.filter is None) for t in lam.terms] == [(2, 0, False), (2, 1, True)]
    assert lam.terms[0].filter.phase == 1


@pytest.mark.parametrize("bits", [64, 96, 200])
def test_closed_form_reference_plans_match_generic_shift(bits):
    # the L = 1, 2, 3 plans, built and loaded back at the bits their
    # endpoints were made at; a boundary moved off N*Z raises the generic
    # table's LevelNotInNZ, for lambda_l and for every sub-union
    for plan in _reference_plans(bits):
        back = HierarchyPlan.from_json(json.loads(json.dumps(plan.to_json())), bits=bits)
        for p in (plan, back):
            _assert_closed_form_matches_generic(p)
        off = tuple(s.shift(1) for s in plan.boundary[:1]) + plan.boundary[1:]
        bad = dataclasses.replace(plan, boundary=off)
        err = _assert_closed_form_matches_generic(bad)
        assert err == (LevelNotInNZ, f"level {plan.K + 1} spectrum is not contained in {plan.N}Z")


def _shared_json(objs):
    """The deleted assembly._shared_json."""
    ids = list(map(id, objs))
    memo = {k: o.to_json() for k, o in dict(zip(ids, objs)).items()}
    return list(map(memo.__getitem__, ids))


def _plan_json(plan):
    """HierarchyPlan.to_json as written before its tables went through
    intervals._to_json."""
    return {
        "N": plan.N,
        "a": [e.to_json() for e in plan.a],
        "b": [e.to_json() for e in plan.b],
        "set": plan.S.to_json(),
        "a_sets": _shared_json(plan.a_sets),
        "level_spectra": _shared_json(plan.level_spectra),
        "level_interval": list(plan.level_interval),
        "K_ell": list(plan.K_ell),
        "K": plan.K,
        "lambda_ell": [s.to_json() for s in plan.lambda_ell],
        "witness": plan.witness.to_json(),
    }


def _complement_json(res):
    """The deleted ComplementResult.to_json."""
    return {
        "N": res.N,
        "M": res.M,
        "lambda_prime": res.lambda_prime.to_json(),
        "level_spectra": _shared_json(res.level_spectra),
        "set": res.S.to_json(),
    }


def _shared_like(got, objs) -> bool:
    """got[i] is got[j] exactly when objs[i] is objs[j]."""
    pairs = {(id(o), id(d)) for o, d in zip(objs, got)}
    return len(got) == len(objs) and len(pairs) == len(set(map(id, objs))) == len(set(map(id, got)))


def test_level_tables_serialize_as_the_shared_writer_did(plan_l1, plan_l2, plan_l3):
    for plan in (plan_l1, plan_l2, plan_l3):
        got = plan.to_json()
        assert json.dumps(got) == json.dumps(_plan_json(plan))
        for key in ("a_sets", "level_spectra"):
            assert _shared_like(got[key], getattr(plan, key))
    assert len(set(map(id, plan_l3.to_json()["level_spectra"]))) == 5
    for N, a, b in _complement_cases(plan_l2):
        res = complement_integer_spectrum(N, a, b)
        got = res.to_json()
        assert json.dumps(got) == json.dumps(_complement_json(res))
        assert _shared_like(got["level_spectra"], res.level_spectra)
    assert "to_json" not in vars(type(res))


# -- the window count that refuses an oversized Gram window -------------------

@st.composite
def coset_terms(draw):
    M = draw(st.integers(1, 12))
    filt = None
    if draw(st.booleans()):
        if draw(st.booleans()):
            beta = Endpoint(F(draw(st.integers(1, 63)), 64))
        else:
            beta = draw(irrational_betas())
        filt = AvdoninFilter(beta=beta, phase=draw(st.integers(-5, 5)))
    return CosetTerm(M, draw(st.integers(0, M - 1)), filt)


@settings(max_examples=200, deadline=None)
@given(
    term=coset_terms(),
    lo=st.fractions(-300, 300, max_denominator=12),
    width=st.fractions(-2, 300, max_denominator=12),
)
def test_window_count_matches_enumeration(term, lo, width):
    try:
        want = len(term.integers_in(lo, lo + width))
    except AmbiguousEndpoint:
        reject()
    assert term._count_in(lo, lo + width) == want


def _run_capped(tmp_path, *argv):
    """The CLI in a child process whose address space is capped at 1 GiB."""
    src = str(Path(rieszspectra.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    return subprocess.run(
        [sys.executable, "-m", "rieszspectra.cli", *argv],
        cwd=tmp_path, env=env, preexec_fn=cap, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("command", ["bounds", "verify"])
def test_oversized_window_is_refused_before_enumeration(command, plan_l1, tmp_path):
    # 10^8 windows hold 2*10^8 + 1 frequencies of Z and about 6*10^7 of the
    # L=1 plan: enumerating them alone exceeds the cap
    if command == "bounds":
        (tmp_path / "z.json").write_text(json.dumps(integer_lattice().to_json()))
        (tmp_path / "s.json").write_text(json.dumps(IntervalSet.unit().to_json()))
        argv = ["bounds", "--spectrum", "z.json", "--set", "s.json"]
    else:
        (tmp_path / "plan.json").write_text(json.dumps(plan_l1.to_json()))
        argv = ["verify", "--plan", "plan.json"]
    proc = _run_capped(tmp_path, *argv, "--schedule", "100000000")
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("resource limit: dense Gram matrix of n=")
    assert "Traceback" not in proc.stderr and proc.stdout == ""


# -- batched ordering-prime scan vs the per-prime exact loop ----------------


def _per_prime_ordering_primes(a, b, prime_limit):
    """ordering_primes(a, b, prime_limit, skip_relation_probe=True) as it
    tested each prime through exact Endpoint arithmetic."""
    a, b = interval_chain(a, b)
    L = len(a)
    endpoints = [e for pair in zip(a, b) for e in pair]
    for scanned, N in enumerate(primes_up_to(prime_limit), start=1):
        if N < 2 * L + 1:
            continue
        witness = _ordering_chain(a, b, N)
        ok = Endpoint(0) < witness[0] and witness[-1] < Endpoint(1)
        if not (ok and all(u < v for u, v in zip(witness, witness[1:]))):
            continue
        if not grid_separation_ok(N, endpoints):
            continue
        yield PrimeSearchResult(N, scanned, tuple(float(w) for w in witness))


def _batched_ordering_primes(a, b, prime_limit):
    return ordering_primes(a, b, prime_limit, skip_relation_probe=True)


def _scan_outcome(scan, a, b, prime_limit):
    """The reports scan yields, and the type and message of the package
    error that ends it (None when it runs to the limit)."""
    reports = []
    try:
        for result in scan(a, b, prime_limit):
            reports.append(result.to_json())
    except RieszSpectraError as exc:
        return reports, (type(exc), str(exc))
    return reports, None


SCAN_LIMITS = st.integers(2**13 + 1, 10**4)  # a third sieve stage runs


@st.composite
def ordering_chains(draw):
    """(a, b, prime_limit): 1-4 intervals whose endpoints are k/m + c*sqrt(p)
    made at 64, 96 or 200 bits.  Now and then one endpoint is moved to
    within a few thresholds of j/N, or of another endpoint plus j/N, for a
    prime N the scan reaches."""
    bits = draw(st.sampled_from(FILTER_BITS))
    L = draw(st.integers(1, 4))
    m = draw(st.integers(2 * L + 1, 40))
    ends = [
        Endpoint(F(draw(st.integers(1, m - 1)), m))
        + Endpoint(0, hp_sqrt(draw(st.sampled_from(ROOTS + (11, 13))), bits))
        * draw(st.fractions(min_value=-F(1, 40), max_value=F(1, 40), max_denominator=10**3))
        for _ in range(2 * L)
    ]
    prime_limit = draw(SCAN_LIMITS)
    tie = draw(st.sampled_from(["none", "floor", "difference"]))
    if tie != "none":
        N = draw(st.sampled_from(primes_up_to(prime_limit)))
        i, k = draw(st.lists(st.integers(0, 2 * L - 1), min_size=2, max_size=2, unique=True))
        base = Endpoint(0) if tie == "floor" else ends[k]
        s = draw(near_scales) / N
        ends[i] = _offset(base + F(draw(st.integers(0, N - 1)), N), s, hp_sqrt(5, bits))
    ends.sort(key=Endpoint.exact)
    values = [x.exact() for x in ends]
    assume(0 < values[0] and values[-1] < 1 and len(set(values)) == len(values))
    return ends[0::2], ends[1::2], prime_limit


@settings(max_examples=40, deadline=None)
@given(chain=ordering_chains())
def test_batched_scan_matches_per_prime_scan(chain):
    want = _scan_outcome(_per_prime_ordering_primes, *chain)
    assert _scan_outcome(_batched_ordering_primes, *chain) == want


def test_batched_scan_raises_at_the_per_prime_scan_prime():
    # ties at N = 1031, the first prime of the second stage, a third of the
    # threshold from deciding: a floor ({N a_1} near 0); a comparison whose
    # float difference is below the error margin only by the threshold; and
    # a tie in the first comparison of a chain that a later one fails
    for bits in FILTER_BITS:
        g = hp_sqrt(5, bits)
        x, y, z = (
            Endpoint(F(k, n)) + Endpoint(0, hp_sqrt(p, bits)) * F(1, 50)
            for k, n, p in ((1, 7, 2), (1, 3, 3), (4, 5, 7))
        )
        near = _offset(x + F(500, 1031), -F(1, 3 * 1031), g)
        for a, b in (
            ([_offset(Endpoint(F(3, 1031)), F(1, 3 * 1031), g)], [x]),
            ([x], [near]),
            ([x, near], [y, z]),
        ):
            want = _scan_outcome(_per_prime_ordering_primes, a, b, 9000)
            assert want[1][0] is AmbiguousEndpoint
            assert _scan_outcome(_batched_ordering_primes, a, b, 9000) == want

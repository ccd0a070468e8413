"""Every argument check of the public functions that the other tests do not
reach: each call must raise its exception type with its message."""

import re
from fractions import Fraction as F

import numpy as np
import pytest

import rieszspectra as rs
from rieszspectra import CosetTerm, IntervalSet, Spectrum, integer_lattice
from rieszspectra.intervals import a_exact, a_geq, b_exact, fold_pattern, grid_separation_ok
from rieszspectra.spectra import _shift_levels

HALF = IntervalSet([(0, F(1, 2))])

CASES = [
    ("complement N < 1", lambda: rs.complement_integer_spectrum(0, [1], [2]),
     rs.InvalidInput, "N must be a positive integer"),
    ("complement unequal a, b", lambda: rs.complement_integer_spectrum(2, [1], []),
     rs.InvalidInput, "need equally many left and right endpoints"),
    ("hierarchy composite N",
     lambda: rs.construct_hierarchy_with_prime([F(1, 8)], [F(5, 8)], 4),
     rs.NotPrime, "4 is not prime"),
    ("relation probe no values", lambda: rs.rational_relation_probe([], 3),
     rs.InvalidInput, "need at least one value"),
    ("relation probe max_coeff 0", lambda: rs.rational_relation_probe([0.5], 0),
     rs.InvalidInput, "max_coeff must be at least 1"),
    ("weyl no coordinates", lambda: rs.weyl_discrepancy([], 100),
     rs.InvalidInput, "need at least one coordinate"),
    ("weyl one box", lambda: rs.weyl_discrepancy([F(1, 3)], 100, boxes=1),
     rs.InvalidInput, "boxes must be at least 2"),
    ("chebotarev max_size 0", lambda: rs.chebotarev_check(5, 0),
     rs.InvalidInput, "max_size must lie in 1..N"),
    ("chebotarev max_size N+1", lambda: rs.chebotarev_check(5, 6),
     rs.InvalidInput, "max_size must lie in 1..N"),
    ("c_prime no fiber sets", lambda: rs.c_prime_bound(5, [1, 2, 3], []),
     rs.InvalidInput, "need at least one fiber set"),
    ("c_prime repeated offsets", lambda: rs.c_prime_bound(5, [1, 2, 3], [[0, 5]]),
     rs.InvalidInput, "fiber offsets must be distinct mod N"),
    ("shift levels repeated mod N",
     lambda: _shift_levels(3, [rs.empty_spectrum()] * 3, [0, 3, 1]),
     rs.InvalidInput, "need 3 shifts distinct mod 3"),
    ("grid q < 1", lambda: rs.rational_grid_spectrum(0, [0]),
     rs.InvalidInput, "q must be a positive integer"),
    ("grid no cells", lambda: rs.rational_grid_spectrum(3, []),
     rs.InvalidInput, "need at least one cell"),
    ("grid cell outside", lambda: rs.rational_grid_spectrum(3, [3]),
     rs.InvalidInput, "cells must lie in 0..q-1"),
    ("coset modulus", lambda: CosetTerm(0, 0),
     rs.InvalidInput, "modulus must be positive"),
    ("coset offset", lambda: CosetTerm(3, 3),
     rs.InvalidInput, "offset must lie in 0..modulus-1"),
    ("spectrum scale", lambda: Spectrum(F(0)),
     rs.InvalidInput, "scale must be positive"),
    ("spectrum mixed-scale union",
     lambda: integer_lattice().union(integer_lattice().dilate(2)),
     rs.InvalidInput, "can only union spectra with equal scale"),
    ("spectrum negative window", lambda: integer_lattice().enumerate(-1),
     rs.InvalidInput, "window must be nonnegative"),
    ("spectrum negative dilation", lambda: integer_lattice().dilate(-1),
     rs.InvalidInput, "dilation factor must be positive"),
    ("spectrum negative integer scale", lambda: integer_lattice().scale_integers(-2),
     rs.InvalidInput, "factor must be a positive integer"),
    ("interval set scale 0", lambda: HALF.scale(0),
     rs.InvalidInput, "scale factor must be positive"),
    ("fold pattern N 0", lambda: fold_pattern(0, HALF),
     rs.InvalidInput, "N must be a positive integer"),
    ("grid separation N 0", lambda: grid_separation_ok(0, [F(1, 2)]),
     rs.InvalidInput, "N must be a positive integer"),
    ("a_geq n 0", lambda: a_geq(3, HALF, 0),
     rs.InvalidInput, "level n=0 outside 1..3"),
    ("a_exact n N+1", lambda: a_exact(3, HALF, 4),
     rs.InvalidInput, "level n=4 outside 0..3"),
    ("b_exact n 0", lambda: b_exact(3, HALF, 0),
     rs.InvalidInput, "level n=0 outside 1..3"),
    ("folding probe empty S",
     lambda: rs.folding_probe(2, IntervalSet.empty(), [integer_lattice(2)] * 2, [1, 2], 1, 0),
     rs.InvalidInput, "S must have positive measure"),
    ("folding probe negative seed",
     lambda: rs.folding_probe(2, HALF, [integer_lattice(2)] * 2, [1, 2], 1, -1),
     rs.InvalidInput, "seed must be a non-negative integer"),
    ("folding probe negative window",
     lambda: rs.folding_probe(2, HALF, [integer_lattice(2)] * 2, [1, 2], 1, 0, trunc_window=-1),
     rs.InvalidInput, "window must be nonnegative"),
    ("gram negative window", lambda: rs.gram_matrix(integer_lattice(), HALF, -1),
     rs.InvalidInput, "window must be nonnegative"),
    ("density negative window", lambda: rs.density_check(integer_lattice(), HALF, [-1, 4]),
     rs.InvalidInput, "window must be nonnegative"),
]

# a window that is not a finite rational, read by each public entry point
WINDOW_READERS = [
    ("bounds", lambda T: rs.riesz_bounds_estimate(integer_lattice(), HALF, [1, T])),
    ("density", lambda T: rs.density_check(integer_lattice(), HALF, [1, T])),
    ("gram", lambda T: rs.gram_matrix(integer_lattice(), HALF, T)),
    ("enumerate", lambda T: integer_lattice().enumerate(T)),
]
CASES += [
    (f"{name} window {T!r}", lambda read=read, T=T: read(T),
     rs.InvalidInput, f"window: {T!r} is not a finite rational")
    for name, read in WINDOW_READERS
    for T in (float("nan"), float("inf"), "1/x")
]


@pytest.mark.parametrize("call, error, message", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_argument_check(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_string_windows_read_as_their_fractions():
    spec = integer_lattice().dilate(F(1, 4))
    strings, fractions = ["1/4", "1/2", "3"], [F(1, 4), F(1, 2), F(3)]
    bounds = rs.riesz_bounds_estimate(spec, HALF, strings)
    assert bounds == rs.riesz_bounds_estimate(spec, HALF, fractions)
    assert [h[0] for h in bounds.history] == [0.25, 0.5, 3.0]
    assert rs.density_check(spec, HALF, strings) == rs.density_check(spec, HALF, fractions)
    assert np.array_equal(rs.gram_matrix(spec, HALF, "1/2"), rs.gram_matrix(spec, HALF, F(1, 2)))

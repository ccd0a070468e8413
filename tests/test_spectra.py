"""Coset spectra: enumeration, transforms, generators, serialization."""

import math
from fractions import Fraction

import pytest

import rieszspectra as rs
from rieszspectra import (
    AvdoninFilter,
    CosetTerm,
    Endpoint,
    IncompatibleShift,
    InvalidInput,
    OverlappingTerms,
    Spectrum,
    avdonin_interval_spectrum,
    empty_spectrum,
    integer_lattice,
    rational_grid_spectrum,
)
from rieszspectra.precision import hp_sqrt


def F(n, d=1):
    return Fraction(n, d)


def test_enumerate_integer_lattice():
    assert integer_lattice().enumerate(2) == [-2, -1, 0, 1, 2]


def test_enumerate_two_cosets():
    spec = Spectrum(F(1), (CosetTerm(3, 1), CosetTerm(3, 2)))
    assert spec.enumerate(4) == [-4, -2, -1, 1, 2, 4]


def test_enumerate_half_integer_spectrum():
    spec = Spectrum(F(1, 2), (CosetTerm(2, 1),))
    assert spec.enumerate(1) == [F(-1, 2), F(1, 2)]


def test_enumerate_overlap_raises():
    spec = Spectrum(F(1), (CosetTerm(2, 0), CosetTerm(4, 0)))
    with pytest.raises(OverlappingTerms):
        spec.enumerate(8)


def test_shift_examples():
    assert integer_lattice(3, 0).shift(1).terms == (CosetTerm(3, 1),)
    shifted = integer_lattice(3, 2).shift(2)  # wraps to offset 1
    assert shifted.terms == (CosetTerm(3, 1),)


def test_shift_requires_scale_multiple():
    spec = Spectrum(F(1, 2), (CosetTerm(2, 1),))
    with pytest.raises(IncompatibleShift):
        spec.shift(F(1, 3))


def test_shift_enumeration_covariance():
    spec = Spectrum(F(1), (CosetTerm(5, 2), CosetTerm(5, 4)))
    a = 3
    base = spec.enumerate_integers(-20 - a, 20 - a)
    shifted = spec.shift(a).enumerate_integers(-20, 20)
    assert shifted == [m + a for m in base]


def test_shift_preserves_avdonin_sets():
    spec = avdonin_interval_spectrum(Endpoint(0, hp_sqrt(2)) * F(1, 2))
    spec5 = spec.scale_integers(5)
    a = 12  # carries across the modulus: phase must absorb the quotient
    base = spec5.enumerate_integers(-100 - a, 100 - a)
    shifted = spec5.shift(a).enumerate_integers(-100, 100)
    assert shifted == [m + a for m in base]


def test_dilate_examples():
    assert integer_lattice().dilate(F(1, 2)).enumerate(1) == [
        -1, F(-1, 2), 0, F(1, 2), 1,
    ]
    spec = integer_lattice(3, 1).dilate(F(1, 3))
    assert spec.enumerate(F(4, 3)) == [F(-2, 3), F(1, 3), F(4, 3)]


def test_avdonin_rational_betas():
    assert avdonin_interval_spectrum(F(1, 2)).enumerate_integers(-6, 6) == [
        -6, -4, -2, 0, 2, 4, 6,
    ]
    assert avdonin_interval_spectrum(F(1, 3)).enumerate_integers(-6, 6) == [
        -6, -3, 0, 3, 6,
    ]


def test_avdonin_golden_ratio_prefix():
    beta = (Endpoint(0, hp_sqrt(5)) - 1) * F(1, 2)
    spec = avdonin_interval_spectrum(beta)
    got = [m for m in spec.enumerate_integers(0, 8)]
    assert got == [0, 2, 3, 5, 6, 8]


def test_avdonin_density_and_deviation():
    # the small densities are Kadec's easy case: deviation at most beta/2 < 1/4
    root2 = Endpoint(0, hp_sqrt(2))
    for beta in (root2 * F(1, 2), root2 * F(1, 200), F(1, 128)):
        bf = float(beta)
        spec = avdonin_interval_spectrum(beta)
        for T in (100, 1000, 10000):
            count = len([m for m in spec.enumerate_integers(0, T)])
            # count = ceil(beta*(T + 1/2)), so the offset is at most 1 + beta/2
            assert abs(count - bf * T) <= 1.5 + 1e-9
        # deviation of the n-th element from n/beta is at most 1/2
        elems = spec.enumerate_integers(0, math.ceil(200 / bf))
        for idx, lam in enumerate(elems):
            assert abs(lam - idx / bf) <= 0.5 + 1e-12


def test_avdonin_rational_set_periodicity():
    beta = F(2, 5)
    spec = avdonin_interval_spectrum(beta)
    window = spec.enumerate_integers(-100, 100)
    shifted = set(m + 5 for m in window)  # period = denominator of beta
    inner = [m for m in window if -100 + 5 <= m <= 100]
    assert all(m in shifted for m in inner)


def test_avdonin_validation():
    with pytest.raises(InvalidInput):
        avdonin_interval_spectrum(F(3, 2))
    # the filter type itself holds 0 < beta < 1, whichever way it is built
    for beta in (F(0), F(1), F(-1, 2), F(3, 2)):
        with pytest.raises(InvalidInput):
            AvdoninFilter(Endpoint(beta))
    for beta in ("0", "-0.5", "1.5"):
        obj = {"modulus": 1, "offset": 0, "filter": {"avdonin": {"beta": beta}}}
        with pytest.raises(InvalidInput):
            CosetTerm.from_json(obj)
    # a small beta is Kadec's easy case (deviation at most beta/2 < 1/4),
    # not a degenerate one: every density in (0, 1) has a generator
    assert avdonin_interval_spectrum(F(1, 128)).density() == F(1, 128)


def test_rational_grid_examples():
    assert rational_grid_spectrum(3, (0, 2)).terms == (
        CosetTerm(3, 1), CosetTerm(3, 2),
    )
    assert rational_grid_spectrum(1, (0,)).terms == (CosetTerm(1, 0),)
    assert rational_grid_spectrum(4, (1,)).terms == (CosetTerm(4, 1),)
    with pytest.raises(InvalidInput):
        rational_grid_spectrum(3, (0, 0))


def test_density():
    spec = Spectrum(F(1), (CosetTerm(3, 1), CosetTerm(3, 2)))
    assert spec.density() == F(2, 3)
    assert integer_lattice().dilate(F(1, 2)).density() == 2
    beta = F(1, 2)
    mixed = avdonin_interval_spectrum(beta).scale_integers(5)
    assert abs(float(mixed.density()) - 0.1) < 1e-12
    assert mixed.density() == F(1, 10)
    # exact for irrational filters too: an Endpoint with beta's generator
    beta = Endpoint(0, hp_sqrt(2)) * F(1, 3)
    spec = Spectrum(
        F(1, 2), (CosetTerm(6, 1), CosetTerm(6, 4, AvdoninFilter(beta, phase=2)))
    )
    dens = spec.density()
    assert isinstance(dens, Endpoint)
    assert dens.rational == F(1, 3) and dens.irr == (beta * F(1, 3)).irr
    assert empty_spectrum().density().irr == {}


def test_scale_integers_maps_into_lattice():
    spec = avdonin_interval_spectrum(F(2, 5)).scale_integers(5)
    assert spec.subset_of_lattice(5)
    assert all(m % 5 == 0 for m in spec.enumerate_integers(-50, 50))


def test_spectrum_json_roundtrip():
    beta = Endpoint(0, hp_sqrt(2)) * F(1, 2)
    spec = Spectrum(
        F(1, 5),
        (CosetTerm(5, 2), CosetTerm(5, 3, AvdoninFilter(beta, phase=1))),
    )
    back = Spectrum.from_json(spec.to_json())
    assert back.scale == spec.scale
    assert back.enumerate_integers(-200, 200) == spec.enumerate_integers(-200, 200)
    again = Spectrum.from_json(back.to_json())
    assert again == back


def test_empty_spectrum():
    assert empty_spectrum().enumerate(100) == []
    assert empty_spectrum().density() == 0


def test_rational_beta_json_roundtrip():
    spec = avdonin_interval_spectrum(Fraction(2, 3))
    back = Spectrum.from_json(spec.to_json())
    assert back.terms[0].filter.beta.is_rational
    got = back.enumerate_integers(-20, 20)
    assert got == spec.enumerate_integers(-20, 20) and len(got) == 27
    # an irrational beta still prints as a decimal generator
    irr = avdonin_interval_spectrum(Endpoint.coerce("0.4142135623730950488"))
    assert "/" not in irr.to_json()["terms"][0]["filter"]["avdonin"]["beta"]

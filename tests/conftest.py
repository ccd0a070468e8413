"""Shared fixtures: root endpoints and the two reference constructions."""

from fractions import Fraction

import pytest

import rieszspectra as rs
from rieszspectra.precision import hp_sqrt


@pytest.fixture(scope="session")
def sq():
    return {p: rs.Endpoint(0, hp_sqrt(p)) for p in (2, 3, 5, 7)}


@pytest.fixture(scope="session")
def plan_l1(sq):
    """Single interval [sqrt2-1, sqrt3-1); the smallest admissible prime is 5."""
    a = sq[2] - 1
    b = sq[3] - 1
    return rs.construct_hierarchy([a], [b], 100)


@pytest.fixture(scope="session")
def plan_l2(sq):
    """Two intervals with endpoints q + c*sqrt(p), admissible at N=7."""
    a1 = rs.Endpoint(Fraction(1, 7)) + sq[2] * Fraction(101, 5000)
    b1 = rs.Endpoint(Fraction(2, 7)) + sq[3] * Fraction(33, 500)
    a2 = rs.Endpoint(Fraction(4, 7)) + sq[5] * Fraction(13, 625)
    b2 = rs.Endpoint(Fraction(5, 7)) + sq[7] * Fraction(91, 2500)
    return rs.construct_hierarchy([a1, a2], [b1, b2], 100)


@pytest.fixture(scope="session")
def spec_l3(sq):
    """Three intervals with endpoints k/11 + sqrt(p)/100 as an interval spec;
    their first admissible prime is 1933."""
    pairs = ((1, 2), (2, 3), (4, 5), (5, 7), (7, 11), (8, 13))
    ends = [
        rs.Endpoint(Fraction(k, 11)) + rs.Endpoint(0, hp_sqrt(p)) * Fraction(1, 100)
        for k, p in pairs
    ]
    return rs.IntervalSet(zip(ends[0::2], ends[1::2])).to_json()


@pytest.fixture(scope="session")
def plan_l3(spec_l3):
    """The L=3 plan at N=1933, built from the endpoints as the CLI parses them."""
    S = rs.IntervalSet.from_json(spec_l3)
    return rs.construct_hierarchy_with_prime(
        [l for l, _ in S.pieces], [r for _, r in S.pieces], 1933
    )

"""Precision is a parse parameter: the bits keyword refuses fewer than 64
bits, and each generator keeps the bits it was made at."""

import json
import sys
import threading
from fractions import Fraction

import pytest

import rieszspectra as rs
from rieszspectra import Endpoint, IntervalSet, Spectrum
from rieszspectra.precision import hp_sqrt

SQRT2 = "1.4142135623730950488016887242096980785696718753769480731767"
SQRT3 = "1.7320508075688772935274463415058723669428052538103806280558"
SPEC = {
    "intervals": [{"left": {"rat": "-1/1", "irr": SQRT2}, "right": {"rat": "-1/1", "irr": SQRT3}}]
}
BETA = {
    "scale": "1/1",
    "terms": [{"modulus": 1, "offset": 0, "filter": {"avdonin": {"beta": "0.7071", "phase": 0}}}],
}


def test_bits_below_minimum_is_rejected():
    makers = [
        lambda bits: Endpoint(0, "1.5", bits=bits),
        lambda bits: Endpoint.from_json({"rat": "0", "irr": "1.5"}, bits=bits),
        lambda bits: IntervalSet.from_json(SPEC, bits=bits),
        lambda bits: Spectrum.from_json(BETA, bits=bits),
        lambda bits: hp_sqrt(2, bits),
    ]
    for make in makers:
        with pytest.raises(ValueError, match="at least 64 bits"):
            make(63)
        make(64)


def test_bits_keyword_is_applied():
    S = IntervalSet.from_json(SPEC, bits=96)
    assert {g.bits for l, r in S.pieces for g in (*l.irr, *r.irr)} == {96}
    (g,) = Endpoint(0, hp_sqrt(2, 96)).irr
    assert g.bits == 96 and g.value.denominator.bit_length() - 1 <= 96
    (beta,) = Spectrum.from_json(BETA, bits=96).terms[0].filter.beta.irr
    assert beta.bits == 96
    # a decimal read from JSON stays at its given value, rounded to bits
    assert Endpoint(0, "0.5", bits=64).exact() == Fraction(1, 2)


def _plan_json(spec: dict, bits: int) -> str:
    S = IntervalSet.from_json(spec, bits=bits)
    plan = rs.construct_hierarchy([l for l, _ in S.pieces], [r for _, r in S.pieces], 100)
    return json.dumps(plan.to_json(), sort_keys=True)


def test_two_precisions_in_two_threads():
    # each thread parses, constructs and prints at its own bits, interleaved
    # with the other, and gets its single-threaded plan
    want = {bits: _plan_json(SPEC, bits) for bits in (96, 200)}
    assert want[96] != want[200]
    got = {96: [], 200: []}
    barrier = threading.Barrier(2)

    def work(bits):
        for _ in range(4):
            barrier.wait(timeout=60)
            got[bits].append(_plan_json(SPEC, bits))

    threads = [threading.Thread(target=work, args=(bits,)) for bits in (96, 200)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside every round
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == {bits: [want[bits]] * 4 for bits in (96, 200)}

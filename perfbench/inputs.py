"""Seeded input generator for the benchmark workloads.

Writes the interval specifications, the L=1/L=2 plans, the criterion-08/09/11
spectra and the probe fold stream into a work directory, and returns the
sha256 of every input so that two runs can be shown to use the same inputs.

Only the fold stream depends on the seed.  The other inputs are the fixed
instances of the acceptance criteria, so their hashes are the same for every
seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction as F
from pathlib import Path

from rieszspectra import (
    Endpoint,
    IntervalSet,
    complement_integer_spectrum,
    construct_hierarchy_with_prime,
    integer_lattice,
)
from rieszspectra.precision import hp_sqrt

FOLD_INSTANCES = 50
FOLD_ROOTS = (2, 3, 5, 7)

# L=3 instance: endpoints k/11 + sqrt(p)/100, first admissible prime N=1933.
L3_PAIRS = ((1, 2), (2, 3), (4, 5), (5, 7), (7, 11), (8, 13))


@dataclass
class Inputs:
    work: Path
    files: dict = field(default_factory=dict)   # input name -> path
    sha256: dict = field(default_factory=dict)  # input name -> hex digest
    fold_stream: list = field(default_factory=list)  # [(N, IntervalSet)]
    l3: tuple = ()  # L=3 endpoints (a, b), parsed from spec_l3

    def path(self, name: str) -> str:
        return str(self.files[name])

    def add(self, name: str, obj) -> None:
        text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
        path = self.work / f"{name}.json"
        path.write_text(text)
        self.files[name] = path
        self.sha256[name] = hashlib.sha256(text.encode()).hexdigest()


def _sqrt(p: int) -> Endpoint:
    return Endpoint(0, hp_sqrt(p))


def _spec(a, b) -> dict:
    return {"intervals": [{"left": x.to_json(), "right": y.to_json()} for x, y in zip(a, b)]}


def _endpoints(spec: dict):
    """Left and right endpoints parsed back from a spec, as the CLI reads them."""
    S = IntervalSet.from_json(spec)
    return [l for l, _ in S.pieces], [r for _, r in S.pieces]


def interval_specs() -> dict:
    """The fixed interval specifications, keyed by input name."""
    s = {p: _sqrt(p) for p in (2, 3, 5, 7, 11, 13)}
    l2_a = [F(1, 7) + s[2] * F(101, 5000), F(4, 7) + s[5] * F(13, 625)]
    l2_b = [F(2, 7) + s[3] * F(33, 500), F(5, 7) + s[7] * F(91, 2500)]
    l3 = [F(k, 11) + s[p] * F(1, 100) for k, p in L3_PAIRS]
    c09_b = 1 + s[2] * F(1, 2)
    one = Endpoint(1)
    return {
        "spec_l1": _spec([s[2] - 1], [s[3] - 1]),
        "spec_l2": _spec(l2_a, l2_b),
        "spec_l3": _spec(l3[0::2], l3[1::2]),
        "spec_c08": _spec([one], [Endpoint(2)]),
        "spec_c09": _spec([one], [c09_b]),
        "set_c09_full": _spec([Endpoint(0)], [c09_b]),
        "set_c11": _spec([Endpoint(0)], [Endpoint(F(1, 2))]),
    }


def fold_stream(seed: int, count: int = FOLD_INSTANCES) -> list:
    """Small fold instances drawn as criterion 04 draws them, stratified so
    that every seed gets the same mix of sizes: N cycles through 2..11, the
    interval count through 1..4, and each instance mixes four dyadic points
    with four rational multiples of sqrt(2), sqrt(3), sqrt(5), sqrt(7)."""
    rnd = random.Random(seed)
    roots = [_sqrt(p) for p in FOLD_ROOTS]
    zero, one = Endpoint(0), Endpoint(1)
    stream = []
    for i in range(count):
        N = 2 + i % 10
        n_keep = 1 + (i // 10) % 4
        kinds = [False] * 4 + [True] * 4
        rnd.shuffle(kinds)
        points = []
        for irrational in kinds:
            while True:
                if irrational:
                    cand = rnd.choice(roots) * F(rnd.randrange(1, 40), 128) + F(
                        rnd.randrange(0, 8), 16
                    )
                else:
                    cand = Endpoint(F(rnd.randrange(1, 64), 64))
                if zero < cand < one and all(cand != p for p in points):
                    break
            points.append(cand)
        points.sort()
        pairs = list(zip(points[0::2], points[1::2]))
        stream.append((N, IntervalSet(rnd.sample(pairs, n_keep))))
    return stream


def generate(workload: str, seed: int, work: Path) -> Inputs:
    """Write the inputs of one workload into work and return them."""
    work.mkdir(parents=True, exist_ok=True)
    inp = Inputs(work)
    specs = interval_specs()
    for name, spec in specs.items():
        inp.add(name, spec)
    if workload == "construct":
        inp.l3 = _endpoints(specs["spec_l3"])
    if workload in ("certify", "probe"):
        for name, N in (("plan_l1", 5), ("plan_l2", 7)):
            a, b = _endpoints(specs["spec_" + name[-2:]])
            inp.add(name, construct_hierarchy_with_prime(a, b, N).to_json())
    if workload == "certify":
        a, b = _endpoints(specs["spec_c09"])
        res = complement_integer_spectrum(2, a, b)
        inp.add("spectrum_c09_lambda", res.lambda_prime.to_json())
        inp.add("spectrum_c09_full", res.full_spectrum().to_json())
        inp.add("spectrum_z", integer_lattice().to_json())
    if workload == "probe":
        inp.fold_stream = fold_stream(seed)
        text = json.dumps([[N, S.to_json()] for N, S in inp.fold_stream], sort_keys=True)
        inp.sha256["fold_stream"] = hashlib.sha256(text.encode()).hexdigest()
    return inp

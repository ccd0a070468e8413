"""Level combination and both end-to-end constructions."""

import dataclasses
import json
import tracemalloc
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import rieszspectra as rs
import rieszspectra.assembly as assembly
from rieszspectra import (
    AvdoninFilter,
    ConstructionError,
    CosetTerm,
    DegenerateCoverage,
    EmptySubset,
    Endpoint,
    IndependenceSuspect,
    IntervalSet,
    InvalidInput,
    LevelNotInNZ,
    NotPermutation,
    NotPrime,
    ResourceLimit,
    Spectrum,
    UnsupportedASet,
    combine_level_spectra,
    combine_level_spectra_permuted,
    complement_integer_spectrum,
    construct_hierarchy,
    construct_hierarchy_with_prime,
    empty_spectrum,
    find_ordering_prime,
    integer_lattice,
    subset_spectrum,
)
from rieszspectra.precision import hp_sqrt
from test_differential import _combine_levels, _rederived_subset_spectrum


def F(n, d=1):
    return Fraction(n, d)


# -- combination ---------------------------------------------------------

def test_combine_consecutive_shifts():
    lat3 = integer_lattice(3, 0)
    out = combine_level_spectra(3, [lat3, lat3, empty_spectrum()], base_shift=1)
    assert out.sorted_terms().terms == (CosetTerm(3, 1), CosetTerm(3, 2))


def test_combine_single_level_zero_shift():
    out = combine_level_spectra(1, [integer_lattice(1, 0)], base_shift=0)
    assert out.enumerate(3) == [-3, -2, -1, 0, 1, 2, 3]


def test_combine_fills_all_residues():
    lat2 = integer_lattice(2, 0)
    out = combine_level_spectra(2, [lat2, lat2], base_shift=1)
    assert out.enumerate(4) == list(range(-4, 5))


def test_combine_rejects_bad_level():
    with pytest.raises(LevelNotInNZ):
        combine_level_spectra(2, [integer_lattice(1, 0), integer_lattice(2, 0)])


def test_permuted_identity_matches_consecutive():
    lat5 = integer_lattice(5, 0)
    levels = [lat5, lat5, empty_spectrum(), empty_spectrum(), empty_spectrum()]
    base = combine_level_spectra(5, levels, base_shift=1)
    perm = combine_level_spectra_permuted(5, levels, [1, 2, 3, 4, 5])
    assert base.enumerate_integers(-50, 50) == perm.enumerate_integers(-50, 50)


def test_permuted_shifts():
    lat5 = integer_lattice(5, 0)
    levels = [lat5, lat5, empty_spectrum(), empty_spectrum(), empty_spectrum()]
    out = combine_level_spectra_permuted(5, levels, [3, 1, 2, 4, 5])
    assert out.sorted_terms().terms == (CosetTerm(5, 1), CosetTerm(5, 3))


def test_permuted_requires_prime_and_permutation():
    lat4 = integer_lattice(4, 0)
    with pytest.raises(NotPrime):
        combine_level_spectra_permuted(4, [lat4] * 4, [1, 2, 3, 4])
    lat5 = integer_lattice(5, 0)
    with pytest.raises(NotPermutation):
        combine_level_spectra_permuted(5, [lat5] * 5, [1, 1, 2, 3, 4])


@pytest.mark.parametrize("N", [4, 6])
@pytest.mark.parametrize("base_shift", [0, 1])
def test_combine_non_prime_is_the_core_with_consecutive_shifts(N, base_shift):
    lat = integer_lattice(N, 0)
    levels = [lat, lat] + [empty_spectrum()] * (N - 2)
    out = combine_level_spectra(N, levels, base_shift=base_shift)
    core = _combine_levels(N, levels, range(base_shift, N + base_shift))
    assert out == core
    assert out.enumerate_integers(-60, 60) == [
        m for m in range(-60, 61) if m % N in (base_shift % N, (base_shift + 1) % N)
    ]
    with pytest.raises(InvalidInput):
        combine_level_spectra(N, levels, base_shift=2)


def test_permuted_checks_survive_the_merge():
    lat6 = integer_lattice(6, 0)
    with pytest.raises(NotPrime):
        combine_level_spectra_permuted(6, [lat6] * 6, [1, 2, 3, 4, 5, 6])
    lat5 = integer_lattice(5, 0)
    with pytest.raises(NotPermutation):
        combine_level_spectra_permuted(5, [lat5] * 5, [0, 1, 2, 3, 4])
    with pytest.raises(InvalidInput):
        combine_level_spectra_permuted(5, [lat5] * 4, [1, 2, 3, 4, 5])


MALFORMED_CHAINS = {
    "unequal lengths": ([F(1, 4), F(1, 2)], [F(3, 8)]),
    "empty": ([], []),
    "non-increasing pair": ([F(1, 4)], [F(1, 4)]),
    "overlapping intervals": ([F(1, 4), F(3, 8)], [F(1, 2), F(3, 4)]),
    "a_1 = 0": ([F(0)], [F(1, 2)]),
    "a_1 < 0": ([F(-1, 4)], [F(1, 2)]),
    "b_L = 1": ([F(1, 2)], [F(1)]),
    "b_L > 1": ([F(1, 2)], [F(5, 4)]),
}
CHAIN_CONSUMERS = {
    "find_ordering_prime": lambda a, b: find_ordering_prime(a, b, 100),
    "construct_hierarchy": lambda a, b: construct_hierarchy(a, b, 100),
    "construct_hierarchy_with_prime": lambda a, b: construct_hierarchy_with_prime(a, b, 5),
}


@pytest.mark.parametrize("chain", MALFORMED_CHAINS, ids=str)
@pytest.mark.parametrize("consumer", CHAIN_CONSUMERS, ids=str)
def test_malformed_chains_rejected_alike(chain, consumer):
    a, b = MALFORMED_CHAINS[chain]
    with pytest.raises(InvalidInput):
        CHAIN_CONSUMERS[consumer](a, b)


# -- hierarchy construction ------------------------------------------------

def test_hierarchy_l1_structure(plan_l1):
    plan = plan_l1
    assert plan.N == 5
    assert plan.K == 1
    assert plan.K_ell == (1,)
    lam = plan.lambda_ell[0].sorted_terms()
    assert lam.terms[0] == CosetTerm(5, 1)
    assert lam.terms[1].modulus == 5 and lam.terms[1].offset == 2
    assert lam.terms[1].filter is not None
    beta = lam.terms[1].filter.beta
    expect = ((plan.b[0] * 5).frac() - (plan.a[0] * 5).frac())
    assert abs(float(beta) - float(expect)) < 1e-50


def test_hierarchy_l1_level_pattern(plan_l1):
    plan = plan_l1
    cell = IntervalSet([(0, F(1, 5))])
    assert plan.a_sets[0] == cell
    fa = (plan.a[0] * 5).frac() * F(1, 5)
    fb = (plan.b[0] * 5).frac() * F(1, 5)
    assert plan.a_sets[1] == IntervalSet([(fa, fb)])
    for n in range(2, 5):
        assert plan.a_sets[n].is_empty
    assert plan.level_interval == (1, 1, None, None, None)


def test_hierarchy_union_no_duplicates(plan_l1):
    merged = plan_l1.full_union().enumerate_integers(-2048, 2048)
    assert len(merged) == len(set(merged))


def test_hierarchy_residue_coherence(plan_l1):
    # level n shifted by n occupies residue n mod N; the reordered sets
    # likewise follow their attached shifts
    plan = plan_l1
    N = plan.N
    for n, level in enumerate(plan.level_spectra, start=1):
        if level.is_empty:
            continue
        for m in level.shift(n).enumerate_integers(-200, 200):
            assert m % N == n % N
    sp = rs.subset_spectrum(plan, [1])
    for omega_n, s in zip(sp.omega, sp.shifts):
        for m in omega_n.enumerate_integers(-200, 200):
            assert m % N == s % N


def test_hierarchy_density_identity(plan_l1):
    lam = plan_l1.lambda_ell[0]
    target = float((plan_l1.b[0] - plan_l1.a[0]).mpf())
    assert abs(float(lam.density()) - target) < 1e-12


@pytest.mark.parametrize("name", ["plan_l1", "plan_l2", "plan_l3"])
def test_hierarchy_density_is_exact(name, request):
    plan = request.getfixturevalue(name)
    for lam, x, y in zip(plan.lambda_ell, plan.a, plan.b):
        dens = lam.density()
        assert dens.rational == (y - x).rational and dens.irr == (y - x).irr


def _perturb_beta(spec: Spectrum, eps: Fraction) -> Spectrum:
    terms = tuple(
        t if t.filter is None else CosetTerm(
            t.modulus, t.offset, AvdoninFilter(t.filter.beta + eps, t.filter.phase)
        )
        for t in spec.terms
    )
    return Spectrum(spec.scale, terms)


@pytest.mark.parametrize("name", ["plan_l1", "plan_l2"])
def test_validate_plan_rejects_perturbed_beta(name, request):
    plan = request.getfixturevalue(name)
    assembly._validate_plan(plan)
    # far below the old float tolerance, and too small to move any rounded
    # frequency in the window, so only the exact density check can see it
    eps = Fraction(1, 2**80)
    boundary = list(plan.boundary)
    boundary[0] = _perturb_beta(boundary[0], eps)  # the boundary level of interval 1
    bad = dataclasses.replace(plan, boundary=tuple(boundary))  # lambda_ell follows
    assert bad.lambda_ell[0] == _perturb_beta(plan.lambda_ell[0], eps)
    w = 2048
    assert bad.full_union().enumerate_integers(-w, w) == (
        plan.full_union().enumerate_integers(-w, w)
    )
    with pytest.raises(ConstructionError, match="density"):
        assembly._validate_plan(bad)


def _boundary_offset_two(plan):
    (t,) = plan.boundary[0].terms
    return (Spectrum(F(1), (CosetTerm(t.modulus, 2, t.filter),)),) + plan.boundary[1:]


@pytest.mark.parametrize("edit, error, match", [
    # the boundary level moved off NZ would meet another level's residue
    (_boundary_offset_two, LevelNotInNZ, "level 2 "),
], ids=["boundary offset 2"])
def test_validate_plan_rejects_level_table_edits(plan_l1, edit, error, match):
    bad = dataclasses.replace(plan_l1, boundary=edit(plan_l1))
    with pytest.raises(error, match=match):
        assembly._validate_plan(bad)


def test_hierarchy_rejects_rational_endpoints():
    with pytest.raises(IndependenceSuspect):
        construct_hierarchy([F(1, 4)], [F(3, 4)], 1000)


def test_hierarchy_rejects_bad_order():
    with pytest.raises(InvalidInput):
        construct_hierarchy([F(3, 4)], [F(1, 4)], 100)


def test_hierarchy_degenerate_coverage_with_forced_prime():
    # [0.414.., 0.466..) contains no multiple of 1/3, so the forced prime
    # N=3 leaves the interval without a full cell
    a = Endpoint(0, hp_sqrt(2)) - 1
    b = a + Endpoint(0, hp_sqrt(3)) * F(3, 100)
    with pytest.raises(DegenerateCoverage):
        construct_hierarchy_with_prime([a], [b], 3)


def test_hierarchy_l3_large_prime():
    # endpoints k/11 + sqrt(p)/500; 9677 is their first admissible prime
    pairs = ((1, 2), (2, 3), (4, 5), (5, 7), (7, 11), (8, 13))
    ends = [Endpoint(F(k, 11)) + Endpoint(0, hp_sqrt(p)) * F(1, 500) for k, p in pairs]
    a, b = ends[0::2], ends[1::2]
    N = 9677
    plan = construct_hierarchy_with_prime(a, b, N)
    assert plan.K_ell == (885, 887, 885)
    assert plan.K == sum(plan.K_ell) == 2657
    cell = IntervalSet([(0, F(1, N))])
    assert all(s == cell for s in plan.a_sets[: plan.K])
    for ell in range(1, 4):
        fa = (a[ell - 1] * N).frac() * F(1, N)
        fb = (b[ell - 1] * N).frac() * F(1, N)
        assert plan.a_sets[plan.K + ell - 1] == IntervalSet([(fa, fb)])
    assert all(s.is_empty for s in plan.a_sets[plan.K + 3:])
    assert plan.level_interval[plan.K : plan.K + 4] == (1, 2, 3, None)


def test_hierarchy_prime_index_picks_later_prime():
    a = Endpoint(0, hp_sqrt(2)) - 1
    b = Endpoint(0, hp_sqrt(3)) - 1
    plan0 = rs.construct_hierarchy([a], [b], 200, prime_index=0)
    plan1 = rs.construct_hierarchy([a], [b], 200, prime_index=1)
    assert plan1.N > plan0.N


def test_hierarchy_prime_index_builds_one_plan(monkeypatch):
    a = Endpoint(0, hp_sqrt(2)) - 1
    b = Endpoint(0, hp_sqrt(3)) - 1
    built = []
    real = assembly._build_plan

    def spy(witness, a, b):
        built.append(witness.N)
        return real(witness, a, b)

    monkeypatch.setattr(assembly, "_build_plan", spy)
    plan = construct_hierarchy([a], [b], 200, prime_index=1)
    assert built == [plan.N]
    want = construct_hierarchy_with_prime([a], [b], plan.N).to_json()
    got = plan.to_json()
    assert got["witness"]["candidates_scanned"] > 0
    del want["witness"], got["witness"]
    assert got == want


def test_hierarchy_prime_index_beyond_the_admissible_primes():
    a = Endpoint(0, hp_sqrt(2)) - 1
    b = Endpoint(0, hp_sqrt(3)) - 1
    with pytest.raises(rs.NotFound, match="not enough"):
        construct_hierarchy([a], [b], 6, prime_index=1)
    with pytest.raises(rs.NotFound, match="no admissible prime"):
        construct_hierarchy([a], [b], 4)


def test_plan_checks_enumerate_the_window_once(monkeypatch, spec_l3):
    # a build decides the level combination on its terms, and sub-unions are
    # read off the level owners: neither enumerates a window (the build once
    # enumerated each of its K + L = 548 terms)
    calls = []
    real = CosetTerm.integers_in

    def counting(self, lo, hi):
        calls.append(self)
        return real(self, lo, hi)

    monkeypatch.setattr(CosetTerm, "integers_in", counting)
    S = IntervalSet.from_json(spec_l3)
    plan = construct_hierarchy_with_prime([l for l, _ in S.pieces], [r for _, r in S.pieces], 1933)
    assert calls == []
    back = rs.HierarchyPlan.from_json(plan.to_json())
    for mask in range(1, 2**plan.L):
        subset_spectrum(back, [ell for ell in range(1, plan.L + 1) if mask >> (ell - 1) & 1])
    assert calls == []


def test_plan_shifts_each_owned_level_once(monkeypatch, spec_l3):
    # one closed-form table serves lambda_l, the plan checks and every
    # sub-union: the K = 545 full levels are the cosets N*Z + n, so a build
    # or a load shifts only its L = 3 boundary levels, a sub-union none, and
    # none of them walks the N-level table through _shift_levels
    calls, walks = [], []
    real = Spectrum.shift

    def counting(self, a):
        calls.append(a)
        return real(self, a)

    monkeypatch.setattr(Spectrum, "shift", counting)
    walk = assembly._shift_levels
    monkeypatch.setattr(assembly, "_shift_levels", lambda *args: walks.append(args) or walk(*args))
    S = IntervalSet.from_json(spec_l3)
    plan = construct_hierarchy_with_prime([l for l, _ in S.pieces], [r for _, r in S.pieces], 1933)
    assert calls == [546, 547, 548] and plan.K + plan.L == 548
    calls.clear()
    back = rs.HierarchyPlan.from_json(plan.to_json())
    assert calls == [546, 547, 548]
    calls.clear()
    for mask in range(1, 2**plan.L):
        subset_spectrum(back, [ell for ell in range(1, plan.L + 1) if mask >> (ell - 1) & 1])
    assert calls == [] and walks == []


def test_hierarchy_negative_prime_index():
    a = Endpoint(0, hp_sqrt(2)) - 1
    b = Endpoint(0, hp_sqrt(3)) - 1
    with pytest.raises(InvalidInput, match="prime_index"):
        construct_hierarchy([a], [b], 100, prime_index=-1)


def test_hierarchy_json_serializes_shared_levels_once(plan_l3):
    # the reloaded plan derives its level sets and level table as a build
    # does, so it shares its levels as the built one does and writes the
    # same bytes
    want = json.dumps(plan_l3.to_json(), sort_keys=True, indent=2)
    for plan in (plan_l3, rs.HierarchyPlan.from_json(json.loads(want))):
        got = plan.to_json()
        oracle = dict(
            got,
            a_sets=[s.to_json() for s in plan.a_sets],
            level_spectra=[s.to_json() for s in plan.level_spectra],
        )
        assert json.dumps(got, sort_keys=True, indent=2) == json.dumps(
            oracle, sort_keys=True, indent=2
        ) == want
        for key in ("a_sets", "level_spectra"):
            objs = getattr(plan, key)
            assert len(got[key]) == plan.N == 1933
            assert len({id(d) for d in got[key]}) == len({id(o) for o in objs})
        assert len({id(o) for o in plan.a_sets}) <= 2 * 3 + 2
        assert len({id(o) for o in plan.level_spectra}) <= 3 + 2


def test_each_level_object_is_checked_in_nz_once(plan_l3, spec_l3, monkeypatch):
    # the build, a load and a 1-trial probe of the L=3 plan at N=1933 each
    # decide NZ membership once per distinct nonempty level (the shared full
    # cell and the L boundary levels), plus a load's named check of its L
    # boundary levels: at most 2L + 1 decisions, not one per level
    S = rs.IntervalSet.from_json(spec_l3)
    obj = json.loads(json.dumps(plan_l3.to_json()))
    steps = {
        "build": lambda: construct_hierarchy_with_prime(
            [l for l, _ in S.pieces], [r for _, r in S.pieces], 1933
        ),
        "from_json": lambda: rs.HierarchyPlan.from_json(obj),
        "probe": lambda: rs.folding_probe(
            plan_l3.N, plan_l3.S, plan_l3.level_spectra, range(1, plan_l3.N + 1), 1, seed=0
        ),
    }
    calls = []
    subset_of_lattice = Spectrum.subset_of_lattice
    monkeypatch.setattr(
        Spectrum, "subset_of_lattice", lambda self, N: calls.append(N) or subset_of_lattice(self, N)
    )
    for name, step in steps.items():
        calls.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", rs.TruncationWarning)
            step()
        assert 1 <= len(calls) <= 2 * plan_l3.L + 1, name


@st.composite
def plan_endpoints(draw):
    """L = 1..3 intervals with endpoints k/(2L+1) + c_k sqrt(p_k), p_k the
    k-th prime and c_k a rational other than 1, small enough to keep the
    chain ordered, with the bits the roots are made at."""
    L = draw(st.integers(1, 3))
    bits = draw(st.sampled_from((64, 96, 200)))
    ends = []
    for k, p in zip(range(1, 2 * L + 1), (2, 3, 5, 7, 11, 13)):
        sign = draw(st.sampled_from((-1, 1)))
        c = F(sign * draw(st.integers(1, 9)), draw(st.integers(500, 5000)))
        ends.append(Endpoint(F(k, 2 * L + 1)) + Endpoint(0, hp_sqrt(p, bits)) * c)
    return ends[0::2], ends[1::2], bits


@settings(max_examples=15, deadline=None)
@given(instance=plan_endpoints())
def test_every_built_plan_loads_back(instance):
    # the loaded plan must equal the one its parsed fields derive, so no
    # valid plan may be rejected; reloading prints the same bytes and the
    # same sub-unions
    a, b, bits = instance
    try:
        plan = construct_hierarchy_with_prime(
            a, b, find_ordering_prime(a, b, 20000, skip_relation_probe=True).N
        )
    except rs.NotFound:  # no plan to load
        reject()
    text = json.dumps(plan.to_json(), sort_keys=True)
    back = rs.HierarchyPlan.from_json(json.loads(text), bits=bits)
    assert json.dumps(back.to_json(), sort_keys=True) == text
    for mask in range(1, 2**plan.L):
        J = [ell for ell in range(1, plan.L + 1) if mask >> (ell - 1) & 1]
        got, want = (subset_spectrum(p, J).union().to_json() for p in (back, plan))
        assert got == want
        # sub-unions read off the plan equal the ones re-derived from S^J
        for p in (plan, back):
            assert subset_spectrum(p, J).to_json() == _rederived_subset_spectrum(p, J).to_json()


def test_small_boundary_beta_builds_and_loads_back(sq):
    # the L = 2 spec k/5 + (12/1000) sqrt(p_k): its first ordering prime 83
    # leaves a boundary piece of width beta ~ 0.0080, below the 1/64 floor
    # that once refused it
    e = [Endpoint(F(k, 5)) + sq[p] * F(12, 1000) for k, p in zip(range(1, 5), (2, 3, 5, 7))]
    plan = construct_hierarchy(e[0::2], e[1::2], 2000)
    assert plan.N == 83
    beta = min(float(s.terms[0].filter.beta) for s in plan.boundary)
    assert 0.0080 < beta < 0.0081
    text = json.dumps(plan.to_json(), sort_keys=True)
    back = rs.HierarchyPlan.from_json(json.loads(text))
    assert json.dumps(back.to_json(), sort_keys=True) == text


def test_witness_float_is_held_to_the_chain_not_its_last_bit():
    # at 64 bits, {N b_2} rounded from the printed endpoints is one ulp off
    # the float the build wrote, so the parsed float is kept and held to
    # the derived chain within 2^-32
    def e(k, p, c):
        return Endpoint(F(k, 5)) + Endpoint(0, hp_sqrt(p, 64)) * c

    a = [e(1, 2, F(-1, 500)), e(3, 5, F(-1, 500))]
    b = [e(2, 3, F(-1, 500)), e(4, 7, F(1, 250))]
    plan = construct_hierarchy_with_prime(a, b, 103)
    obj = json.loads(json.dumps(plan.to_json()))
    back = rs.HierarchyPlan.from_json(obj, bits=64)
    chain = [float(x) for x in assembly._ordering_chain(back.a, back.b, 103)]
    assert chain != list(plan.witness.ordering_witness)
    assert back.witness == plan.witness
    obj["witness"]["ordering_witness"][2] += 2.0**-31
    with pytest.raises(InvalidInput, match="ordering_witness"):
        rs.HierarchyPlan.from_json(obj, bits=64)


def test_hierarchy_json_roundtrip(plan_l1):
    back = rs.HierarchyPlan.from_json(plan_l1.to_json())
    assert back.N == plan_l1.N
    assert back.K_ell == plan_l1.K_ell
    w = 512
    assert back.full_union().enumerate_integers(-w, w) == \
        plan_l1.full_union().enumerate_integers(-w, w)
    # the parsed plan supports the sub-union validation path end to end
    sp = subset_spectrum(back, [1])
    assert sp.K_J == back.K_ell[0]


# -- sub-union certification ------------------------------------------------

def test_subset_full_reproduces_union(plan_l2):
    sp = subset_spectrum(plan_l2, [1, 2])
    w = 1024
    assert sp.union().enumerate_integers(-w, w) == \
        plan_l2.full_union().enumerate_integers(-w, w)
    assert sp.K_J == plan_l2.K


def test_subset_singleton_block_order(plan_l2):
    plan = plan_l2
    sp = subset_spectrum(plan, [2])
    assert sp.K_J == plan.K_ell[1]
    # block cosets first (shifted by their level index), then the tail term
    assert sp.shifts == tuple(range(plan.K_ell[0] + 1, plan.K + 1)) + (plan.K + 2,)
    w = 1024
    assert sp.union().enumerate_integers(-w, w) == \
        plan.lambda_ell[1].enumerate_integers(-w, w)


def test_subset_empty_raises(plan_l2):
    with pytest.raises(EmptySubset):
        subset_spectrum(plan_l2, [])


def test_subset_out_of_range(plan_l2):
    with pytest.raises(InvalidInput):
        subset_spectrum(plan_l2, [3])


# -- complementation ---------------------------------------------------------

def test_complement_grid_case():
    res = complement_integer_spectrum(2, [1], [2])
    assert res.M == 2
    assert res.lambda_prime.scale == F(1, 2)
    assert res.lambda_prime.sorted_terms().terms == (CosetTerm(2, 1),)
    assert res.lambda_prime.enumerate(3) == [
        F(-5, 2), F(-3, 2), F(-1, 2), F(1, 2), F(3, 2), F(5, 2),
    ]


def test_complement_irrational_case():
    b = Endpoint(1) + Endpoint(0, hp_sqrt(2)) * F(1, 2)
    res = complement_integer_spectrum(2, [Endpoint(1)], [b])
    assert res.M == 1
    terms = res.lambda_prime.sorted_terms().terms
    assert len(terms) == 1
    t = terms[0]
    assert (t.modulus, t.offset) == (2, 1)
    assert t.filter is not None
    assert abs(float(t.filter.beta) - float(Endpoint(0, hp_sqrt(2))) / 2) < 1e-50
    # disjoint from the integers on a window
    assert all(f.denominator == 2 for f in res.lambda_prime.enumerate(300))


def test_complement_small_beta_case():
    # [1, 1 + sqrt(2)/200) at N = 2: its one extra level has density
    # sqrt(2)/200 ~ 0.0071 < 1/64, and lambda' is a Riesz spectrum for it
    a, b = Endpoint(1), Endpoint(1) + Endpoint(0, hp_sqrt(2)) * F(1, 200)
    res = complement_integer_spectrum(2, [a], [b])
    assert res.M == 1
    report = rs.riesz_bounds_estimate(res.lambda_prime, IntervalSet([(a, b)]), [256, 512, 1024])
    assert report.status == "PASS"
    assert 0.0070 < report.lower_est < 0.0071


def test_complement_wraparound_case():
    a = Endpoint(1) + Endpoint(0, hp_sqrt(2)) * F(11, 20)
    b = Endpoint(2) + Endpoint(0, hp_sqrt(3)) * F(1, 5)
    res = complement_integer_spectrum(3, [a], [b])
    assert res.M == 1
    t = res.lambda_prime.sorted_terms().terms[0]
    assert t.filter is not None
    # wrapped piece has combined width 1 + {b} - {a}, here exactly b - a
    assert abs(t.filter.beta.mpf() - (b - a).mpf()) < 1e-50


def test_complement_two_interval_grid_path():
    res = complement_integer_spectrum(
        2, [F(1), F(3, 2)], [F(5, 4), F(7, 4)]
    )
    assert res.M == 1
    # second level set is [0,1/8) u [1/4,3/8); its spectrum comes from the
    # rational grid generator, dilated into 2Z
    lvl2 = res.level_spectra[1].sorted_terms()
    assert lvl2.terms == (CosetTerm(8, 2), CosetTerm(8, 4))
    assert all(f.denominator == 2 for f in res.lambda_prime.enumerate(100))


def test_complement_unsupported_level_set():
    # second-level set mixes an endpoint at 0 with irrational interior ones:
    # neither grid-aligned nor inner-hierarchy constructible
    a1 = Endpoint(1)
    b1 = Endpoint(1) + Endpoint(0, hp_sqrt(2)) * F(1, 4)
    a2 = Endpoint(F(3, 2))
    b2 = Endpoint(F(3, 2)) + Endpoint(0, hp_sqrt(3)) * F(1, 8)
    with pytest.raises(UnsupportedASet):
        complement_integer_spectrum(2, [a1, a2], [b1, b2])


def test_complement_recursive_level(plan_l2):
    # 1 + the L=2 intervals at N=2: level 2 is the pair [a_l, b_l) with
    # independent interior endpoints, certified by an inner plan at N=7
    a = [x + 1 for x in plan_l2.a]
    b = [y + 1 for y in plan_l2.b]
    res = complement_integer_spectrum(2, a, b)
    assert res.M == 1
    level = res.level_spectra[1]
    assert level.sorted_terms() == plan_l2.full_union().scale_integers(2).sorted_terms()
    assert [t.modulus for t in level.terms] == [14] * 4
    assert level.subset_of_lattice(2)
    assert all(f.denominator == 2 for f in res.lambda_prime.enumerate(100))


def test_complement_certifies_each_distinct_level_set_once(monkeypatch, sq):
    # levels 2 and 3 are one set object, the pair [x_1, x_2), [x_3, x_4)
    # with independent interior endpoints: one inner plan certifies both
    x = [Endpoint(F(k, 10)) + sq[p] * F(1, 100) for k, p in ((1, 2), (3, 3), (5, 5), (7, 7))]
    a = [x[0] + 1, x[2] + 1, x[0] + 2, x[2] + 2]
    b = [x[1] + 1, x[3] + 1, x[1] + 2, x[3] + 2]
    calls = []
    real = assembly.construct_hierarchy
    monkeypatch.setattr(
        assembly, "construct_hierarchy", lambda *args: calls.append(args) or real(*args)
    )
    res = complement_integer_spectrum(3, a, b)
    assert len(calls) == 1
    assert res.M == 1 and res.level_spectra[1] is res.level_spectra[2]
    monkeypatch.undo()
    # the level-by-level derivation it replaced
    a_sets = rs.a_geq_all(3, res.S)
    M = min(len(ks) for _, _, ks in rs.fold_pattern(3, res.S))
    levels = [integer_lattice(3, 0)] * M + [assembly._level_spectrum_for(3, s) for s in a_sets[M:]]
    oracle = dict(res.to_json(), level_spectra=[s.to_json() for s in levels])
    assert json.dumps(res.to_json()) == json.dumps(oracle)


def test_complement_validation():
    with pytest.raises(InvalidInput):
        complement_integer_spectrum(2, [F(1, 2)], [F(3, 2)])  # a_1 < 1
    with pytest.raises(InvalidInput):
        complement_integer_spectrum(2, [1], [3])  # b_L > N


def test_complement_over_the_n_limit_allocates_nothing_of_size_n(monkeypatch):
    # the level tables hold N entries, so N is refused before they exist
    N = assembly.COMPLEMENT_N_LIMIT + 1
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimit, match=f"^N={N} exceeds the complement limit"):
            complement_integer_spectrum(N, [1], [2])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16  # one list of N entries would take 8 MB
    # the limit itself is accepted
    monkeypatch.setattr(assembly, "COMPLEMENT_N_LIMIT", 3)
    assert complement_integer_spectrum(3, [1], [F(5, 2)]).N == 3
    with pytest.raises(ResourceLimit):
        complement_integer_spectrum(4, [1], [F(5, 2)])


def test_level_pattern_beyond_n_levels_is_refused():
    # K = 4 full cells and L = 2 boundary pieces need 6 levels, and N = 5
    # has 5; without the check a_sets[5] would raise IndexError
    with pytest.raises(ConstructionError, match="^level pattern exceeds N levels$"):
        construct_hierarchy_with_prime([F(1, 50), F(1, 2)], [F(23, 50), F(49, 50)], 5)


def test_complement_json_serializes_shared_levels_once():
    res = complement_integer_spectrum(5, [1], [F(7, 3)])
    got = res.to_json()
    oracle = dict(got, level_spectra=[s.to_json() for s in res.level_spectra])
    assert json.dumps(got, sort_keys=True) == json.dumps(oracle, sort_keys=True)
    full = got["level_spectra"][: res.M]
    assert res.M >= 2 and all(d is full[0] for d in full)


def test_complement_full_spectrum_contains_integers():
    res = complement_integer_spectrum(2, [1], [2])
    full = res.full_spectrum()
    freqs = full.enumerate(3)
    assert F(0) in freqs and F(1) in freqs and F(1, 2) in freqs

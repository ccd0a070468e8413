"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is designed for desk-scale runtimes.
"""

import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import rieszspectra as rs
from rieszspectra import (
    CosetTerm,
    Endpoint,
    IntervalSet,
    MinorSpec,
    Spectrum,
    a_exact,
    a_geq,
    b_exact,
    chebotarev_check,
    density_check,
    duality_finite_test,
    folding_probe,
    gram_matrix,
    integer_lattice,
    min_singular,
    primes_up_to,
    rational_relation_probe,
    riesz_bounds_estimate,
    subset_spectrum,
    weyl_discrepancy,
)
from rieszspectra.precision import hp_sqrt


def F(n, d=1):
    return Fraction(n, d)


def _report(cid: str, detail: str) -> None:
    print(f"\n[{cid}] PASS  {detail}")


def test_c01_chebotarev_suite():
    worst_overall = math.inf
    for N in (2, 3, 5, 7, 11, 13):
        max_size = N if N <= 7 else 3
        rep = chebotarev_check(N, max_size)
        assert rep.worst_sigma > 1e-8, f"N={N}: worst sigma {rep.worst_sigma}"
        worst_overall = min(worst_overall, rep.worst_sigma)
    composite = min_singular(MinorSpec(4, (0, 2), (0, 2)))
    assert composite < 1e-12
    _report(
        "criterion 01",
        f"prime minors all singular-value bounded (worst {worst_overall:.3e}); "
        f"composite N=4 counterexample at {composite:.1e}",
    )


def test_c02_finite_duality():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        N = int(rng.integers(2, 33))
        m = int(rng.integers(1, N))
        M_dim = sorted(rng.choice(N, size=m, replace=False).tolist())
        jn = int(rng.integers(0, N + 1))
        J = sorted(rng.choice(N, size=jn, replace=False).tolist())
        out = duality_finite_test(N, J, M_dim)

        # independent oracles: frame-operator / Gram-matrix eigendecompositions
        k = np.arange(N)
        Fm = np.exp(2j * np.pi * np.outer(k, k) / N) / math.sqrt(N)
        P = np.zeros((N, N))
        P[M_dim, M_dim] = 1.0
        frame_op = np.zeros((N, N), dtype=complex)
        for n in J:
            v = P @ Fm[:, n]
            frame_op += np.outer(v, v.conj())
        alpha_frame_oracle = (
            float(np.linalg.eigvalsh(frame_op[np.ix_(M_dim, M_dim)])[0]) if J else 0.0
        )
        Jc = [n for n in range(N) if n not in J]
        if Jc:
            R = (np.eye(N) - P) @ Fm[:, Jc]
            gram = R.conj().T @ R
            alpha_riesz_oracle = float(np.linalg.eigvalsh(gram)[0])
        else:
            alpha_riesz_oracle = 1.0
        assert abs(out["alpha_frame"] - alpha_frame_oracle) < 1e-9
        assert abs(out["alpha_riesz"] - alpha_riesz_oracle) < 1e-9
        gap = abs(out["alpha_frame"] - out["alpha_riesz"])
        assert gap < 1e-9
        worst = max(worst, gap)
    _report("criterion 02", f"100 randomized duality instances, max |gap| {worst:.2e}")


def _random_covariance_instance(rnd: random.Random):
    q = rnd.randrange(2, 6)
    n_terms = rnd.randrange(1, min(3, q) + 1)
    offsets = sorted(rnd.sample(range(q), n_terms))
    spec = Spectrum(F(1), tuple(CosetTerm(q, o) for o in offsets))
    pts = sorted(rnd.sample(range(1, 32), 4))
    pairs = [(F(pts[0], 32), F(pts[1], 32)), (F(pts[2], 32), F(pts[3], 32))]
    if rnd.random() < 0.5:
        pairs = pairs[:1]
    S = IntervalSet(pairs)
    a = rnd.randrange(-3, 4)
    b = rnd.randrange(-2, 3)
    c = rnd.choice([F(2), F(3), F(1, 2), F(1, 3), F(3, 2)])
    return spec, S, a, b, c


def test_c03_gram_covariance():
    rnd = random.Random(77)
    T = 256
    worst_shift = worst_dil = 0.0
    for _ in range(20):
        spec, S, a, b, c = _random_covariance_instance(rnd)
        m0 = spec.enumerate_integers(-T, T)
        G0 = gram_matrix(spec, S, T)

        shifted = spec.shift(a)
        m1 = shifted.enumerate_integers(-T - abs(a), T + abs(a))
        G1 = gram_matrix(shifted, S.shift(b), T + abs(a))
        idx = [m1.index(m + a) for m in m0]
        dev = float(np.max(np.abs(G0 - G1[np.ix_(idx, idx)])))
        assert dev < 1e-12
        worst_shift = max(worst_shift, dev)

        G2 = gram_matrix(spec.dilate(c), S.scale(1 / c), F(T) * c)
        dev = float(np.max(np.abs(G2 - G0 / float(c))))
        assert dev < 1e-12
        worst_dil = max(worst_dil, dev)
    _report(
        "criterion 03",
        f"20 instances: shift dev {worst_shift:.2e}, dilation dev {worst_dil:.2e}",
    )


def _random_fold_instance(rnd: random.Random):
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


def test_c04_cell_folding_identities():
    rnd = random.Random(20250810)
    threshold = mpmath.mpf(2) ** -100
    done = 0
    while done < 50:
        N = rnd.randrange(2, 12)
        S = _random_fold_instance(rnd)
        if S.is_empty:
            continue
        done += 1
        cell = IntervalSet([(0, F(1, N))])
        alls = [a_exact(N, S, n) for n in range(0, N + 1)]
        union = IntervalSet.empty()
        for part in alls:
            union = union.union(part)
        assert union.symmetric_difference(cell).measure_mpf() < threshold
        union_b = IntervalSet.empty()
        for n in range(1, N + 1):
            union_b = union_b.union(b_exact(N, S, n))
        assert union_b.symmetric_difference(S).measure_mpf() < threshold
        total = sum(n * alls[n].measure_mpf() for n in range(N + 1))
        assert abs(total - S.measure_mpf()) < threshold
        geq = rs.a_geq_all(N, S)
        comp_geq = rs.a_geq_all(N, S.complement())
        assert geq[0] == a_geq(N, S, 1)  # batch agrees with the single op
        for n in range(1, N + 1):
            if n >= 2:
                assert geq[n - 1].difference(geq[n - 2]).is_empty
            mirrored = cell.difference(geq[N - n])
            assert (
                comp_geq[n - 1].symmetric_difference(mirrored).measure_mpf()
                < threshold
            )
    _report("criterion 04", "50 randomized folding instances, all identities exact")


def test_c05_equidistribution_along_primes():
    primes = primes_up_to(100000)
    s2 = mpmath.mpf(hp_sqrt(2))
    hits = sum(1 for p in primes if mpmath.frac(p * s2) < mpmath.mpf("0.5"))
    fraction = hits / len(primes)
    assert abs(fraction - 0.5) <= 0.02

    d2 = weyl_discrepancy(
        [Endpoint(0, hp_sqrt(2)), Endpoint(0, hp_sqrt(3))], 100000, 32
    )
    assert d2 < 0.05

    d_rat = weyl_discrepancy(F(1, 2), 100000, 64)
    assert d_rat > 0.4
    _report(
        "criterion 05",
        f"half-cell fraction {fraction:.4f}, 2-d discrepancy {d2:.4f}, "
        f"rational control {d_rat:.4f}",
    )


def test_c06_hierarchy_single_interval(plan_l1):
    plan = plan_l1
    assert plan.N == 5
    lam = plan.lambda_ell[0]
    dens = density_check(lam, plan.S, [512, 1024, 2048], tolerance=4.0)
    assert dens.passed
    rep = riesz_bounds_estimate(lam, plan.S, [256, 512, 1024, 2048])
    assert rep.lower_est >= 1e-3
    assert rep.last_drop is not None and rep.last_drop < 0.10
    assert rep.passed
    _report(
        "criterion 06",
        f"N=5, lower bound {rep.lower_est:.4f} at T=2048, last drop "
        f"{rep.last_drop:.2%}, density residuals "
        f"{['%.2f' % r[3] for r in dens.rows]}",
    )


def test_c07_hierarchy_two_intervals(plan_l2):
    plan = plan_l2
    # declared independence check
    probe = rational_relation_probe(list(plan.a) + list(plan.b), 10)
    assert probe is None

    # pairwise disjoint on a window
    w = 2048
    merged = plan.lambda_ell[0].enumerate_integers(-w, w) + \
        plan.lambda_ell[1].enumerate_integers(-w, w)
    assert len(merged) == len(set(merged))

    details = []
    for J in ([1], [2], [1, 2]):
        sp = subset_spectrum(plan, J)
        spec = sp.union()
        S_J = IntervalSet((plan.a[l - 1], plan.b[l - 1]) for l in J)
        dens = density_check(spec, S_J, [512, 1024, 2048], tolerance=4.0)
        assert dens.passed, f"density failed for J={J}"
        rep = riesz_bounds_estimate(spec, S_J, [256, 512, 1024])
        assert rep.passed, f"bound trend failed for J={J}: {rep.history}"
        details.append(f"J={J}: A={rep.lower_est:.4f}")

        # the reordered level sets match independently recomputed count sets
        cell = F(1, plan.N)
        for n, (omega_n, shift) in enumerate(zip(sp.omega, sp.shifts), start=1):
            target = a_geq(plan.N, S_J, n)
            base = omega_n.shift(-shift)
            assert abs(
                float(base.density()) - float(target.measure_mpf())
            ) < 1e-9
            if n <= sp.K_J:
                assert target == IntervalSet([(0, cell)])
    _report("criterion 07", f"N={plan.N}; " + "; ".join(details))


def test_c08_complement_grid_case():
    res = rs.complement_integer_spectrum(2, [1], [2])
    assert res.M == 2
    assert res.lambda_prime.sorted_terms().terms == (CosetTerm(2, 1),)
    assert res.lambda_prime.scale == F(1, 2)

    # normalized to the fundamental-cell lattice (frequencies x N^2, set / N^2)
    # the system is the N-dilated orthonormal basis: Gram exactly I/2
    full = res.full_spectrum()
    V = IntervalSet([(0, 2)])
    worst = 0.0
    for T in (8, 32, 128):
        Gn = gram_matrix(full.dilate(4), V.scale(F(1, 4)), T)
        worst = max(worst, float(np.max(np.abs(Gn - 0.5 * np.eye(Gn.shape[0])))))
    assert worst < 1e-10
    # unnormalized sanity: on [0,2) the same system has Gram exactly 2I
    G = gram_matrix(full, V, 16)
    assert np.max(np.abs(G - 2.0 * np.eye(G.shape[0]))) < 1e-10
    _report(
        "criterion 08",
        f"lambda' = Z + 1/2; normalized Gram = I/2 to {worst:.1e} at all windows",
    )


def test_c09_complement_irrational_case():
    b = Endpoint(1) + Endpoint(0, hp_sqrt(2)) * F(1, 2)
    res = rs.complement_integer_spectrum(2, [Endpoint(1)], [b])
    lp = res.lambda_prime
    freqs = lp.enumerate(1024)
    assert all(f.denominator == 2 for f in freqs)  # in (1/2)Z, never integer

    S_ab = IntervalSet([(Endpoint(1), b)])
    V = IntervalSet([(0, 1), (Endpoint(1), b)])
    details = []
    for spec, S, name in ((lp, S_ab, "E(L') on [a,b)"),
                          (res.full_spectrum(), V, "E(Z u L') on V")):
        dens = density_check(spec, S, [256, 512, 1024], tolerance=4.0)
        assert dens.passed, name
        rep = riesz_bounds_estimate(spec, S, [256, 512, 1024])
        assert rep.passed, f"{name}: {rep.history}"
        details.append(f"{name}: A={rep.lower_est:.4f}")
    _report("criterion 09", "; ".join(details))


def test_c10_folding_probe(plan_l1):
    plan = plan_l1
    reports = {}
    for name, perm in (("identity", [1, 2, 3, 4, 5]),
                       ("permuted", [3, 1, 4, 2, 5])):
        rep = folding_probe(
            plan.N, plan.S, plan.level_spectra, perm, trials=200, seed=42
        )
        assert rep.empirical_c > 0
        assert rep.tail_fraction_max < 0.01
        assert rep.trials == 200
        reports[name] = rep

    lat3 = integer_lattice(3, 0)
    sanity = folding_probe(
        3, IntervalSet.unit(), [lat3] * 3, [1, 2, 3], trials=50, seed=42
    )
    assert abs(sanity.empirical_c - 1.0) <= 1e-2
    _report(
        "criterion 10",
        f"identity c={reports['identity'].empirical_c:.4f}, permuted "
        f"c={reports['permuted'].empirical_c:.4f}, tails < 1%, full-fiber "
        f"ratio {sanity.empirical_c:.4f}",
    )


def test_c11_negative_control():
    rep = riesz_bounds_estimate(
        integer_lattice(), IntervalSet([(0, F(1, 2))]), [8, 16, 32, 64]
    )
    assert rep.status == "FAIL_TREND"
    _report(
        "criterion 11",
        f"overcomplete system rejected: status {rep.status}, "
        f"lower bounds {['%.1e' % h[1] for h in rep.history]}",
    )

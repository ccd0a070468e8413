"""Gram matrices, bound trends, duality, density, and the folding probe."""

import itertools
import os
import subprocess
import sys
import tracemalloc
import types
from fractions import Fraction

import numpy as np
import pytest

import rieszspectra as rs
from rieszspectra import (
    CosetTerm,
    EmptyWindow,
    Endpoint,
    IntervalSet,
    InvalidInput,
    InvalidSubset,
    Spectrum,
    TruncationWarning,
    density_check,
    duality_finite_test,
    folding_probe,
    gram_matrix,
    integer_lattice,
    rational_grid_spectrum,
    riesz_bounds_estimate,
)
from rieszspectra.precision import hp_sqrt


def F(n, d=1):
    return Fraction(n, d)


HALF = IntervalSet([(0, F(1, 2))])


# -- gram matrix -----------------------------------------------------------

def test_gram_orthonormal_basis():
    G = gram_matrix(integer_lattice(), IntervalSet.unit(), 8)
    assert G.shape == (17, 17)
    assert np.max(np.abs(G - np.eye(17))) < 1e-14


def test_gram_dilated_basis():
    G = gram_matrix(integer_lattice(2, 0), HALF, 8)
    assert np.max(np.abs(G - 0.5 * np.eye(G.shape[0]))) < 1e-14


def test_gram_closed_form_off_diagonal():
    G = gram_matrix(integer_lattice(), HALF, 8)
    ms = list(range(-8, 9))
    for i, mi in enumerate(ms):
        for j, mj in enumerate(ms):
            d = mi - mj
            if d == 0:
                expect = 0.5
            else:
                expect = (np.exp(2j * np.pi * d * 0.5) - 1) / (2j * np.pi * d)
            assert abs(G[i, j] - expect) < 1e-14


def test_gram_hermitian():
    spec = Spectrum(F(1), (CosetTerm(3, 1), CosetTerm(3, 2)))
    S = IntervalSet([(Endpoint(0, hp_sqrt(2)) * F(1, 8), F(1, 2))])
    G = gram_matrix(spec, S, 32)
    assert np.max(np.abs(G - G.conj().T)) < 1e-14


def test_gram_empty_window():
    with pytest.raises(EmptyWindow):
        gram_matrix(Spectrum(F(1), (CosetTerm(100, 7),)), HALF, 3)


def test_empty_window_is_input_error_naming_the_least_frequency():
    # frequencies 7 + 100Z: an empty window is an input error (exit 2), and
    # the message says which window would hold a frequency
    spec = Spectrum(F(1), (CosetTerm(100, 7),))
    assert issubclass(EmptyWindow, InvalidInput)
    least = r"\[-3\.0, 3\.0\]; the least \|frequency\| in the largest window is 7\.0$"
    with pytest.raises(EmptyWindow, match=least):
        riesz_bounds_estimate(spec, HALF, [3, 8])
    none = r"\[-2\.0, 2\.0\]; the largest window holds none either$"
    with pytest.raises(EmptyWindow, match=none):
        riesz_bounds_estimate(spec, HALF, [2, 3])


# -- bounds ------------------------------------------------------------------

def test_bounds_orthonormal():
    rep = riesz_bounds_estimate(integer_lattice(), IntervalSet.unit(), [8, 16])
    assert rep.passed
    for _, lo, hi in rep.history:
        assert abs(lo - 1) < 1e-12 and abs(hi - 1) < 1e-12


def test_bounds_overcomplete_fails_trend():
    rep = riesz_bounds_estimate(integer_lattice(), HALF, [8, 16, 32, 64])
    assert rep.status == "FAIL_TREND"
    lows = [h[1] for h in rep.history]
    assert lows[-1] < 1e-4


@pytest.mark.parametrize("schedule", [[0, 2], [-1, 2]])
def test_bounds_reject_nonpositive_windows(schedule, monkeypatch):
    # decided on the schedule alone, before any enumeration
    def enumerate_integers(self, lo, hi):
        raise AssertionError("enumerated")

    monkeypatch.setattr(Spectrum, "enumerate_integers", enumerate_integers)
    with pytest.raises(InvalidInput, match="schedule"):
        riesz_bounds_estimate(integer_lattice(), IntervalSet.unit(), schedule)


def test_bounds_two_coset_grid_value():
    # frozen from a dense eigensolve: lower bound is exactly 1/3 at all windows
    spec = rational_grid_spectrum(3, (0, 2))
    S = IntervalSet([(0, F(1, 3)), (F(2, 3), 1)])
    rep = riesz_bounds_estimate(spec, S, [16, 32, 64])
    assert rep.passed
    for _, lo, hi in rep.history:
        assert abs(lo - 1 / 3) < 1e-9
        assert abs(hi - 1.0) < 1e-9


def test_bounds_interlacing_monotonicity():
    rng = np.random.default_rng(11)
    for _ in range(5):
        q = int(rng.integers(2, 5))
        offs = rng.choice(q, size=int(rng.integers(1, q + 1)), replace=False)
        spec = Spectrum(F(1), tuple(CosetTerm(q, int(o)) for o in sorted(offs)))
        S = IntervalSet([(F(1, 8), F(1 + int(rng.integers(1, 6)), 8))])
        rep = riesz_bounds_estimate(spec, S, [16, 32, 64])
        lows = [h[1] for h in rep.history]
        his = [h[2] for h in rep.history]
        assert all(a2 <= a1 + 1e-12 for a1, a2 in zip(lows, lows[1:]))
        assert all(b2 >= b1 - 1e-12 for b1, b2 in zip(his, his[1:]))


def test_bounds_shift_covariance_entrywise():
    spec = Spectrum(F(1), (CosetTerm(3, 1), CosetTerm(3, 2)))
    S = IntervalSet([(F(1, 8), F(5, 8))])
    a, b = 2, 1  # spectrum shift in the scale lattice, set shift integer
    T = 64
    m0 = spec.enumerate_integers(-T, T)
    G0 = gram_matrix(spec, S, T)
    shifted = spec.shift(a)
    m1 = shifted.enumerate_integers(-T - a, T + a)
    G1 = gram_matrix(shifted, S.shift(b), T + a)
    idx = [m1.index(m + a) for m in m0]
    sub = G1[np.ix_(idx, idx)]
    assert np.max(np.abs(G0 - sub)) < 1e-12


def test_bounds_set_shift_spectrum_unchanged():
    # shifting only the set conjugates by a unitary diagonal: same spectrum
    spec = Spectrum(F(1), (CosetTerm(2, 1),))
    S = IntervalSet([(F(1, 16), F(7, 16))])
    shift = Endpoint(0, hp_sqrt(2)) * F(1, 4)
    G0 = gram_matrix(spec, S, 48)
    G1 = gram_matrix(spec, S.shift(shift), 48)
    e0 = np.linalg.eigvalsh(G0)
    e1 = np.linalg.eigvalsh(G1)
    assert np.max(np.abs(e0 - e1)) < 1e-9


def test_bounds_dilation_covariance():
    spec = Spectrum(F(1), (CosetTerm(3, 1), CosetTerm(3, 2)))
    S = IntervalSet([(F(1, 8), F(5, 8))])
    for c in (F(2), F(1, 2), F(3, 4)):
        G0 = gram_matrix(spec, S, 48)
        G1 = gram_matrix(spec.dilate(c), S.scale(1 / c), F(48) * c)
        assert G0.shape == G1.shape
        assert np.max(np.abs(G1 - np.asarray(G0) / float(c))) < 1e-12


def test_bounds_bessel_column_energy():
    # integer frequencies over a subset of the circle: projected orthonormal
    # rows have Bessel bound 1, so each row's squared-entry sum stays within
    # its diagonal mass
    S = IntervalSet([(F(1, 16), F(5, 8))])
    G = gram_matrix(integer_lattice(), S, 24)
    row_energy = np.sum(np.abs(G) ** 2, axis=1)
    diag = np.real(np.diag(G))
    assert np.all(row_energy <= diag + 1e-12)
    # central rows capture almost all of their mass inside the window
    mid = G.shape[0] // 2
    assert row_energy[mid] > diag[mid] * 0.98


SETS_BY_ITEMSIZE = [
    (IntervalSet([(F(1, 16), F(5, 8))]), 8),
    (IntervalSet([(0, F(1, 4)), (F(1, 2), 1)]), 16),
]


@pytest.mark.parametrize("S, itemsize", SETS_BY_ITEMSIZE)
def test_dense_gram_limit_raises_resource_limit(monkeypatch, S, itemsize):
    import rieszspectra.verify as verify_mod

    # the documented limits: complex n <= 8192, real n <= 11585
    n_max = {8: 11585, 16: 8192}[itemsize]
    assert n_max**2 * itemsize <= verify_mod.DENSE_GRAM_BYTES < (n_max + 1) ** 2 * itemsize
    # the T=24 window of Z has n=49; the real sinc matrix takes 8 bytes an
    # entry, the complex Gram matrix 16
    nbytes = 49 * 49 * itemsize
    monkeypatch.setattr(verify_mod, "DENSE_GRAM_BYTES", nbytes - 1)
    with pytest.raises(rs.ResourceLimit, match=f"n=49 needs {nbytes} bytes"):
        riesz_bounds_estimate(integer_lattice(), S, [12, 24])
    monkeypatch.setattr(verify_mod, "DENSE_GRAM_BYTES", nbytes)
    assert riesz_bounds_estimate(integer_lattice(), S, [12, 24]).count == 49


@pytest.mark.parametrize("S, itemsize", SETS_BY_ITEMSIZE)
def test_largest_window_is_solved_in_place(monkeypatch, S, itemsize):
    import rieszspectra.verify as verify_mod

    solved, seen = [], []
    solve = verify_mod._extreme_eigenvalues

    def spy_solve(A):
        solved.append(A)
        seen.append(A.copy())
        return solve(A)

    monkeypatch.setattr(verify_mod, "_extreme_eigenvalues", spy_solve)
    rep = riesz_bounds_estimate(integer_lattice(), S, [8, 16, 32])
    assert rep.count == 65
    assert [A.shape[0] for A in solved] == [17, 33, 65]
    # every window, the largest included, is solved in place on a fresh
    # matrix in LAPACK's Fortran order, which shares memory with no other
    assert all(A.flags.f_contiguous and A.itemsize == itemsize for A in solved)
    assert not any(np.shares_memory(A, B) for A, B in itertools.combinations(solved, 2))
    # each solve sees, in the lower triangle it reads, its central block of
    # the full-window Gram matrix (of the real similar matrix for one
    # interval), not of its conjugate
    ms = verify_mod._window_integers(integer_lattice(), S, 32)
    symbol = verify_mod._sinc_symbol if itemsize == 8 else verify_mod._complex_symbol
    sym, d = symbol(integer_lattice(), S, 64), np.subtract.outer(ms, ms)
    G = np.where(d >= 0, sym[np.abs(d)], np.conj(sym[np.abs(d)]))
    for A in seen:
        c = (65 - len(A)) // 2
        assert np.array_equal(np.tril(A), np.tril(G[c : c + len(A), c : c + len(A)]))


@pytest.mark.parametrize("S, itemsize", SETS_BY_ITEMSIZE)
def test_extreme_eigenvalues_read_only_the_lower_triangle(S, itemsize):
    import rieszspectra.verify as verify_mod

    # n = 129 is large enough for LAPACK's blocked tridiagonal reduction
    _, symbol, ms, _ = verify_mod._gram_windows(integer_lattice(), S, [64])
    sym = symbol(integer_lattice(), S, int(ms[-1] - ms[0]))
    full = verify_mod._signed(sym)[np.subtract.outer(ms, ms) + (len(sym) - 1)]
    assert len(ms) == 129 and full.itemsize == itemsize
    poisoned = np.asfortranarray(full)
    poisoned[np.triu_indices(len(ms), 1)] = np.nan
    expected = verify_mod._extreme_eigenvalues(np.asfortranarray(full))
    assert verify_mod._extreme_eigenvalues(poisoned) == expected



# scipy.linalg imported before the solver or after its first solve, the
# solver's _extreme_eigenvalues is scipy.linalg.eigh's evd call, bit for bit,
# through the one module object sys.modules holds
_EVD_ORACLE = """
import sys
import numpy as np
if sys.argv[1] == "scipy.linalg first":
    import scipy.linalg
from rieszspectra import verify
rng = np.random.default_rng(5)
for dtype in (np.float64, np.complex128):
    X = rng.standard_normal((300, 300)).astype(dtype)
    if dtype == np.complex128:
        X += 1j * rng.standard_normal((300, 300))
    H = X + X.conj().T
    got = verify._extreme_eigenvalues(np.asfortranarray(H))
    import scipy.linalg
    vals = scipy.linalg.eigh(H, eigvals_only=True, driver="evd", lower=True)
    assert got == (float(vals[0]), float(vals[-1])), (dtype, got, vals[[0, -1]])
assert sys.modules["scipy.linalg._flapack"] is verify._flapack()
"""


@pytest.mark.parametrize("order", ["solver first", "scipy.linalg first"])
def test_extreme_eigenvalues_are_evd_eigh_in_either_import_order(order):
    src = os.path.dirname(os.path.dirname(rs.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    subprocess.run([sys.executable, "-c", _EVD_ORACLE, order], env=env, check=True, timeout=120)


@pytest.mark.parametrize("name", ["dsyevd", "zheevd"])
def test_extreme_eigenvalues_raise_on_lapack_failure(monkeypatch, name):
    import rieszspectra.verify as verify_mod

    dtype = np.complex128 if name == "zheevd" else np.float64
    sizes = (1.0, 1, 1.0, 0) if name == "zheevd" else (1.0, 1, 0)
    stub = types.SimpleNamespace(**{
        name + "_lwork": lambda n, compute_v, lower: sizes,
        name: lambda a, **kwargs: (np.zeros(len(a)), None, 1),
    })
    monkeypatch.setattr(verify_mod, "_flapack", lambda: stub)
    with pytest.raises(np.linalg.LinAlgError, match=f"{name} of order 3 failed with info 1"):
        verify_mod._extreme_eigenvalues(np.eye(3, dtype=dtype, order="F"))


def _mapping_rss(A: np.ndarray) -> int:
    """Resident bytes of the /proc/self/smaps mapping that holds A's data."""
    address = A.__array_interface__["data"][0]
    inside = False
    with open("/proc/self/smaps") as fh:
        for line in fh:
            fields = line.split()
            if "-" in fields[0] and not fields[0].endswith(":"):
                start, end = (int(x, 16) for x in fields[0].split("-"))
                inside = start <= address < end
            elif inside and fields[0] == "Rss:":
                return int(fields[1]) * 1024
    raise AssertionError("no mapping holds the matrix")


@pytest.mark.parametrize("S, itemsize", SETS_BY_ITEMSIZE)
def test_bounds_peak_memory_is_one_matrix_and_a_block(S, itemsize):
    import rieszspectra.verify as verify_mod

    n = 2401
    riesz_bounds_estimate(integer_lattice(), S, [8])  # loads scipy outside the count
    tracemalloc.start()
    try:
        rep = riesz_bounds_estimate(integer_lattice(), S, [300, 600, 1200])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.count == n
    # the matrix lives in its own mapping, which tracemalloc does not see,
    # so the traced peak is the symbol, the window and one row's indices
    # (measured: 0.016 matrices real, 0.015 complex); a matrix from numpy's
    # heap traces at least 1, gathering blocks of 256 rows at least 0.14
    assert peak <= 0.06 * n * n * itemsize
    if not os.path.exists("/proc/self/smaps"):
        pytest.skip("no /proc/self/smaps to read the matrix's resident pages from")
    # the pages that hold only entries above the diagonal are never backed
    # (measured: 0.69 matrices real, 0.60 complex; a full fill is 1.0)
    _, symbol, ms, _ = verify_mod._gram_windows(integer_lattice(), S, [1200])
    sym = symbol(integer_lattice(), S, int(ms[-1] - ms[0]))
    A = verify_mod._toeplitz(sym, ms)
    resident = {8: 0.75, 16: 0.65}[itemsize]
    assert A.shape == (n, n) and _mapping_rss(A) <= resident * n * n * itemsize


# -- density -----------------------------------------------------------------

def test_density_orthonormal():
    rep = density_check(integer_lattice(), IntervalSet.unit(), [4, 16, 64])
    assert rep.passed
    for T, count, expected, r in rep.rows:
        assert r == 1.0  # both window endpoints counted


def test_density_dilated():
    rep = density_check(integer_lattice(2, 0), HALF, [8, 32])
    assert rep.passed
    assert all(abs(r[3]) <= 1.0 for r in rep.rows)


def test_density_failure():
    rep = density_check(integer_lattice(), HALF, [32])
    assert not rep.passed


# -- duality -----------------------------------------------------------------

def test_duality_two_dim_hand_value():
    out = duality_finite_test(2, [0], [0])
    assert abs(out["alpha_frame"] - 0.5) < 1e-12
    assert abs(out["alpha_riesz"] - 0.5) < 1e-12


def test_duality_full_j_convention():
    out = duality_finite_test(6, list(range(6)), [0, 2])
    assert abs(out["alpha_frame"] - 1.0) < 1e-12
    assert out["alpha_riesz"] == 1.0


def test_duality_matches_frame_operator_oracle():
    rng = np.random.default_rng(3)
    for _ in range(25):
        N = int(rng.integers(2, 17))
        m = int(rng.integers(1, N))
        M_dim = sorted(rng.choice(N, size=m, replace=False).tolist())
        j = int(rng.integers(0, N + 1))
        J = sorted(rng.choice(N, size=j, replace=False).tolist())
        out = duality_finite_test(N, J, M_dim)
        # oracle: assemble the frame operator of the projected vectors on the
        # subspace and take the smallest eigenvalue
        k = np.arange(N)
        Fm = np.exp(2j * np.pi * np.outer(k, k) / N) / np.sqrt(N)
        P = np.zeros((N, N))
        for mm in M_dim:
            P[mm, mm] = 1.0
        frame_op = np.zeros((N, N), dtype=complex)
        for n in J:
            v = P @ Fm[:, n]
            frame_op += np.outer(v, v.conj())
        sub = frame_op[np.ix_(M_dim, M_dim)]
        alpha_oracle = float(np.linalg.eigvalsh(sub)[0]) if J else 0.0
        assert abs(out["alpha_frame"] - alpha_oracle) < 1e-9
        assert abs(out["alpha_frame"] - out["alpha_riesz"]) < 1e-9


def test_duality_validation():
    with pytest.raises(InvalidSubset):
        duality_finite_test(4, [0], [])
    with pytest.raises(InvalidSubset):
        duality_finite_test(4, [0], [0, 1, 2, 3])
    with pytest.raises(InvalidSubset):
        duality_finite_test(4, [7], [0])


# -- folding probe -------------------------------------------------------------

def test_folding_full_fiber_parseval():
    lat3 = integer_lattice(3, 0)
    rep = folding_probe(3, IntervalSet.unit(), [lat3] * 3, [1, 2, 3], 10, seed=7)
    assert abs(rep.empirical_c - 1.0) < 1e-2
    assert rep.tail_fraction_max < 1e-2
    assert rep.trials == 10


def test_folding_probe_on_hierarchy(plan_l1):
    plan = plan_l1
    rep = folding_probe(
        plan.N, plan.S, plan.level_spectra, [1, 2, 3, 4, 5], 25, seed=42
    )
    assert rep.empirical_c > 0
    assert rep.sigma_min_used > 0
    assert all(0 < a <= 1 for a in rep.per_level_alpha)
    assert rep.tail_fraction_max < 0.01


def test_folding_probe_deterministic(plan_l1):
    plan = plan_l1
    r1 = folding_probe(plan.N, plan.S, plan.level_spectra, [1, 2, 3, 4, 5], 5, seed=9)
    r2 = folding_probe(plan.N, plan.S, plan.level_spectra, [1, 2, 3, 4, 5], 5, seed=9)
    assert r1.empirical_c == r2.empirical_c
    assert r1.per_level_alpha == r2.per_level_alpha


def test_folding_truncation_warning(plan_l1):
    plan = plan_l1
    with pytest.warns(TruncationWarning):
        folding_probe(
            plan.N, plan.S, plan.level_spectra, [1, 2, 3, 4, 5], 3, seed=1,
            trunc_window=16,
        )


def test_folding_probe_runs_at_l3(plan_l3):
    # N = 1933 with counts up to 548: the probe once ran one pass per level
    # and did not finish; the truncation warning reflects the 4097-frequency
    # window, not the probe loop
    plan = plan_l3
    with pytest.warns(TruncationWarning):
        rep = folding_probe(
            plan.N, plan.S, plan.level_spectra, list(range(1, plan.N + 1)), 2, seed=0
        )
    assert rep.trials == 2


def test_folding_probe_peak_memory_is_bounded_by_the_block(plan_l2):
    # trials run in blocks of a fixed size, so 2000 trials peak within
    # 1 MiB of one trial; 2000 trials in one block would peak 260 MB higher
    plan = plan_l2
    args = (plan.N, plan.S, plan.level_spectra, list(range(1, plan.N + 1)))
    peaks = []
    for trials in (1, 2000):
        tracemalloc.start()
        try:
            rep = folding_probe(*args, trials, seed=0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert rep.trials == trials
    assert peaks[1] <= peaks[0] + 2**20


def _seg_coeff(lam, lf, rf):
    if lam == 0:
        return rf - lf
    return (
        np.exp(-2j * np.pi * lam * rf) - np.exp(-2j * np.pi * lam * lf)
    ) / (-2j * np.pi * lam)


def test_folding_level_sum_matches_fold_identity(plan_l1):
    """Coefficient sums over one shifted level equal the same sums computed
    from the folded function on the fundamental cell."""
    plan = plan_l1
    N = plan.N
    pattern = [(l, r, ks) for l, r, ks in rs.fold_pattern(N, plan.S) if ks]
    rng = np.random.default_rng(4)
    cells = []  # (piece index, offset k, left, right)
    for p, (left, right, ks) in enumerate(pattern):
        for k in ks:
            cells.append((p, k, left + Fraction(k, N), right + Fraction(k, N)))
    vals = rng.standard_normal(len(cells)) + 1j * rng.standard_normal(len(cells))

    shift = 1
    level = plan.level_spectra[0].shift(shift)
    lams = level.enumerate_integers(-400, 400)

    direct = 0.0
    for lam in lams:
        total = sum(
            v * _seg_coeff(lam, float(l.mpf()), float(r.mpf()))
            for (_, _, l, r), v in zip(cells, vals)
        )
        direct += abs(total) ** 2

    # folded side: h(t) = sum_k f(t + k/N) e^{-2 pi i * shift * k/N} on the cell
    w = np.exp(-2j * np.pi * shift * np.arange(N) / N)
    hvals = np.zeros(len(pattern), dtype=complex)
    for (p, k, _, _), v in zip(cells, vals):
        hvals[p] += v * w[k]
    folded = 0.0
    for lam in lams:
        acc = sum(
            hval * _seg_coeff(lam, float(left.mpf()), float(right.mpf()))
            for hval, (left, right, _) in zip(hvals, pattern)
        )
        folded += abs(acc) ** 2
    assert abs(direct - folded) < 1e-10 * max(1.0, direct)

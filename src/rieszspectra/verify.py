"""Numerical certification: truncated Gram bounds, finite duality, density
counts, and the randomized folding-inequality probe.

Finite sections cannot prove infinite-dimensional bounds; the Gram reports
therefore certify by trend (stable minimum eigenvalue across a doubling
window schedule), and the folding probe reports empirical constants next to
the minor-conditioning floor they are expected to respect.

The Gram matrix of a schedule is built once, at its largest window; every
smaller window is a principal block of it.  When S is a single interval the
matrix is unitarily similar to a real symmetric sinc-kernel matrix (see
_sinc_gram), and the bounds are solved on that; unions of intervals are
solved on the complex Gram matrix.  The two give the same eigenvalues up to
float rounding.  Both are solved densely, up to DENSE_GRAM_BYTES per matrix.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import mpmath
import numpy as np

from .errors import (
    EmptyWindow,
    InvalidInput,
    InvalidSubset,
    NotPrime,
    ResourceLimit,
    TruncationWarning,
)
from .intervals import Endpoint, IntervalSet, fold_pattern
from .minors import _is_prime, c_prime_bound
from .precision import workprec
from .spectra import Spectrum

DENSE_GRAM_BYTES = 2**30
PASS_FLOOR = 1e-3
MAX_LAST_DROP = 0.10
TAIL_THRESHOLD = 0.01


def _phase_floats(u: Endpoint, ds: np.ndarray) -> np.ndarray:
    """frac(d * u) for every integer d in ds, computed at working precision."""
    out = np.empty(len(ds))
    with workprec():
        um = u.mpf()
        for i, d in enumerate(ds):
            x = um * int(d)
            out[i] = float(x - mpmath.floor(x))
    return out


def _window_integers(spectrum: Spectrum, S: IntervalSet, T) -> np.ndarray:
    """Underlying integers m of the spectrum with |scale*m| <= T, ascending."""
    if S.is_empty:
        raise InvalidInput("S must have positive measure")
    bound = Fraction(T) / spectrum.scale
    return np.asarray(spectrum.enumerate_integers(-bound, bound), dtype=np.int64)


def _window_slice(spectrum: Spectrum, ms: np.ndarray, T) -> slice:
    """Positions in the ascending ms of the integers with |scale*m| <= T."""
    m_max = math.floor(Fraction(T) / spectrum.scale)
    i, j = np.searchsorted(ms, [-m_max, m_max + 1])
    if j <= i:
        raise EmptyWindow(f"no frequencies in [-{float(T)}, {float(T)}]")
    return slice(int(i), int(j))


def _toeplitz(sym: np.ndarray, ms: np.ndarray) -> np.ndarray:
    """M[i, j] = sym[m_i - m_j], with sym[-d] = conj(sym[d]) for d > 0.

    sym holds d = 0..ms[-1] - ms[0].  Raises ResourceLimit before any n x n
    allocation when M would exceed DENSE_GRAM_BYTES.
    """
    n = len(ms)
    nbytes = n * n * sym.itemsize
    if nbytes > DENSE_GRAM_BYTES:
        raise ResourceLimit(
            f"dense Gram matrix of n={n} needs {nbytes} bytes, "
            f"over the limit of {DENSE_GRAM_BYTES}"
        )
    signed = np.concatenate((np.conj(sym[:0:-1]), sym))
    return signed[np.subtract.outer(ms, ms) + (len(sym) - 1)]


def _complex_gram(spectrum: Spectrum, S: IntervalSet, ms: np.ndarray) -> np.ndarray:
    """gram_matrix on the ascending integer window ms."""
    dmax = int(ms[-1] - ms[0])

    # g[d] = integral over S of e^{2 pi i (d*scale) x}, d = 0..dmax
    g = np.zeros(dmax + 1, dtype=np.complex128)
    g[0] = float(S.measure_mpf())
    if dmax >= 1:
        ds = np.arange(1, dmax + 1, dtype=np.int64)
        deltas = ds * float(spectrum.scale)
        acc = np.zeros(dmax, dtype=np.complex128)
        for left, right in S.pieces:
            for x, sign in ((right, +1.0), (left, -1.0)):
                theta = _phase_floats(x * spectrum.scale, ds)
                acc += sign * np.exp(2j * np.pi * theta)
        g[1:] = acc / (2j * np.pi * deltas)
    return _toeplitz(g, ms)


def gram_matrix(spectrum: Spectrum, S: IntervalSet, T) -> np.ndarray:
    """Hermitian matrix of pairwise exponential inner products over S.

    Entry (i, j) is the closed-form integral of e^{2 pi i (l_i - l_j) x}
    over S; the diagonal is measure(S).  Phases are reduced mod 1 at working
    precision before trigonometric evaluation, so large frequency gaps do
    not lose accuracy.
    """
    ms = _window_integers(spectrum, S, T)
    return _complex_gram(spectrum, S, ms[_window_slice(spectrum, ms, T)])


def _sinc_gram(spectrum: Spectrum, S: IntervalSet, ms: np.ndarray) -> np.ndarray:
    """Real symmetric matrix with the eigenvalues of _complex_gram(spectrum,
    S, ms) when S is a single interval [a, b).

    With c = (a+b)/2, w = b-a and s the spectrum scale,

        int_a^b e^{2 pi i d s x} dx = e^{2 pi i d s c} sin(pi d s w) / (pi d s),

    so G[i, j] = e^{2 pi i m_i s c} r(|m_i - m_j|) e^{-2 pi i m_j s c}, that
    is G = D R D^H with D = diag(e^{2 pi i m_i s c}) unitary and R[i, j] =
    r(|m_i - m_j|) real symmetric, where r(0) = w and

        r(d) = sin(2 pi frac(d s w / 2)) / (pi d s).

    G and R are unitarily similar, so their eigenvalues agree in exact
    arithmetic; R takes half the bytes and a real symmetric solve about a
    quarter of the flops.  The phase d s w / 2 is reduced mod 1 at working
    precision, as in gram_matrix, with one reduction per window instead of
    one per endpoint.
    """
    ((left, right),) = S.pieces
    dmax = int(ms[-1] - ms[0])

    r = np.empty(dmax + 1)
    r[0] = float(S.measure_mpf())
    if dmax >= 1:
        ds = np.arange(1, dmax + 1, dtype=np.int64)
        deltas = ds * float(spectrum.scale)
        theta = _phase_floats((right - left) * (spectrum.scale / 2), ds)
        r[1:] = np.sin(2 * np.pi * theta) / (np.pi * deltas)
    return _toeplitz(r, ms)


@dataclass(frozen=True)
class GramReport:
    """Riesz-bound estimates from truncated Gram matrices on a window schedule."""

    window: float
    count: int
    lower_est: float
    upper_est: float
    history: tuple[tuple[float, float, float], ...]  # (T, lower, upper)
    status: str                  # "PASS" or "FAIL_TREND"
    last_drop: Optional[float]
    decay_slope: Optional[float]

    @property
    def passed(self) -> bool:
        return self.status == "PASS"

    def to_json(self) -> dict:
        return {
            "window": self.window,
            "count": self.count,
            "lower_est": self.lower_est,
            "upper_est": self.upper_est,
            "history": [list(h) for h in self.history],
            "status": self.status,
            "last_drop": self.last_drop,
            "decay_slope": self.decay_slope,
        }


def riesz_bounds_estimate(
    spectrum: Spectrum, S: IntervalSet, schedule: Sequence
) -> GramReport:
    """Extreme Gram eigenvalues at each window of an increasing schedule.

    One matrix is built, at the largest window: the real similar matrix of
    _sinc_gram for a single interval S, the complex Gram matrix for a union.
    Each window is solved on its principal block, which is exactly the
    matrix of that window.  PASS requires the final lower estimate to clear
    PASS_FLOOR and the relative drop over the last schedule step to stay
    under MAX_LAST_DROP.
    """
    schedule = list(schedule)
    if not schedule or any(
        Fraction(t2) <= Fraction(t1) for t1, t2 in zip(schedule, schedule[1:])
    ):
        raise InvalidInput("schedule must be strictly increasing and nonempty")
    ms = _window_integers(spectrum, S, schedule[-1])
    blocks = [_window_slice(spectrum, ms, T) for T in schedule]
    gram = _sinc_gram if len(S.pieces) == 1 else _complex_gram
    G = gram(spectrum, S, ms)
    history = []
    for T, block in zip(schedule, blocks):
        vals = np.linalg.eigvalsh(G[block, block])
        history.append((float(T), float(vals[0]), float(vals[-1])))
    lower = history[-1][1]
    upper = history[-1][2]
    last_drop = None
    if len(history) >= 2 and history[-2][1] > 0:
        last_drop = (history[-2][1] - lower) / history[-2][1]
    slope = None
    if len(history) >= 2 and all(h[1] > 0 for h in history):
        xs = np.log([h[0] for h in history])
        ys = np.log([h[1] for h in history])
        slope = float(np.polyfit(xs, ys, 1)[0])
    ok = lower >= PASS_FLOOR
    if last_drop is not None and last_drop >= MAX_LAST_DROP:
        ok = False
    return GramReport(
        window=float(schedule[-1]),
        count=len(ms),
        lower_est=lower,
        upper_est=upper,
        history=tuple(history),
        status="PASS" if ok else "FAIL_TREND",
        last_drop=last_drop,
        decay_slope=slope,
    )


@dataclass(frozen=True)
class DensityReport:
    rows: tuple[tuple[float, int, float, float], ...]  # (T, count, expected, residual)
    tolerance: float
    passed: bool

    def to_json(self) -> dict:
        return {
            "rows": [list(r) for r in self.rows],
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


def density_check(
    spectrum: Spectrum, S: IntervalSet, T_list: Sequence, tolerance: float = 4.0
) -> DensityReport:
    """Window counts against the measure-based expectation 2*T*|S|.

    The spectrum is enumerated once, at the largest window; the count of each
    window is read off the sorted integers.
    """
    T_list = list(T_list)
    windows = [Fraction(T) for T in T_list]
    if any(T < 0 for T in windows):
        raise InvalidInput("window must be nonnegative")
    ms = np.asarray([], dtype=np.int64)
    if windows:
        bound = max(windows) / spectrum.scale
        ms = np.asarray(spectrum.enumerate_integers(-bound, bound), dtype=np.int64)
    meas = float(S.measure_mpf())
    rows = []
    ok = True
    for T, T_exact in zip(T_list, windows):
        m_max = math.floor(T_exact / spectrum.scale)
        count = int(
            np.searchsorted(ms, m_max, side="right")
            - np.searchsorted(ms, -m_max, side="left")
        )
        expected = 2.0 * float(T) * meas
        residual = count - expected
        rows.append((float(T), count, expected, residual))
        if abs(residual) > tolerance:
            ok = False
    return DensityReport(rows=tuple(rows), tolerance=float(tolerance), passed=ok)


def duality_finite_test(N: int, J: Sequence[int], M_dim: Sequence[int]) -> dict:
    """Optimal lower frame bound of projected basis vectors versus the
    optimal lower Riesz bound of the complementary residuals.

    Works in C^N with the unitary character basis; the projection keeps the
    coordinates in M_dim.  The two bounds agree exactly in theory.
    """
    J = sorted(set(int(j) for j in J))
    M_rows = sorted(set(int(m) for m in M_dim))
    if any(not 0 <= j < N for j in J):
        raise InvalidSubset("J must be a subset of 0..N-1")
    if not M_rows or len(M_rows) == N or any(not 0 <= m < N for m in M_rows):
        raise InvalidSubset("M_dim must be a nonempty proper subset of 0..N-1")
    k = np.arange(N)
    F = np.exp(2j * np.pi * np.outer(k, k) / N) / math.sqrt(N)
    Jc = [n for n in range(N) if n not in J]
    Mc = [m for m in range(N) if m not in M_rows]

    if J:
        V = F[np.ix_(M_rows, J)]
        if len(J) < len(M_rows):
            alpha_frame = 0.0
        else:
            alpha_frame = float(np.linalg.svd(V, compute_uv=False)[-1] ** 2)
    else:
        alpha_frame = 0.0

    if Jc:
        W = F[np.ix_(Mc, Jc)]
        if len(Jc) > len(Mc):
            alpha_riesz = 0.0
        else:
            alpha_riesz = float(np.linalg.svd(W, compute_uv=False)[-1] ** 2)
    else:
        alpha_riesz = 1.0  # empty family: vacuous Riesz side
    return {"alpha_frame": alpha_frame, "alpha_riesz": alpha_riesz}


@dataclass(frozen=True)
class TestFunction:
    """Piecewise-constant function on cells refining S."""

    cells: tuple[tuple[Endpoint, Endpoint], ...]
    values: np.ndarray

    def norm_sq(self) -> float:
        lens = np.array([float((r - l).mpf()) for l, r in self.cells])
        return float(np.sum(np.abs(self.values) ** 2 * lens))


def _draw_test_function(cells, seed: int, trial: int) -> TestFunction:
    """Complex-Gaussian piecewise-constant draw on an independent substream."""
    rng = np.random.default_rng([int(seed), trial])
    n = len(cells)
    vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return TestFunction(cells=tuple(cells), values=vals)


@dataclass(frozen=True)
class FoldingReport:
    """Empirical constants from the folding-inequality probe."""

    empirical_c: float
    per_level_alpha: tuple[float, ...]
    sigma_min_used: float
    trials: int
    tail_fraction_max: float

    def to_json(self) -> dict:
        return {
            "empirical_c": self.empirical_c,
            "per_level_alpha": list(self.per_level_alpha),
            "sigma_min_used": self.sigma_min_used,
            "trials": self.trials,
            "tail_fraction_max": self.tail_fraction_max,
        }


def folding_probe(
    N: int,
    S: IntervalSet,
    levels: Sequence[Spectrum],
    shifts: Sequence[int],
    trials: int,
    seed: int,
    *,
    trunc_window: int = 2048,
) -> FoldingReport:
    """Randomized probe of the level-sum inequality behind the permuted
    combination.

    For each random piecewise-constant f and each count level n, compares
    the captured coefficient energy of the shifted levels 1..n (applied to
    the tail slice of f) against the squared norm of the exact-count slice;
    empirical_c is the minimum observed ratio.  per_level_alpha tracks the
    folded-frame ratio per level, and sigma_min_used is the worst minor
    singular value over the fiber patterns that actually occur.
    """
    if not _is_prime(N):
        raise NotPrime(f"{N} is not prime")
    if len(levels) != N:
        raise InvalidInput(f"need exactly {N} level spectra")
    if sorted(shifts) != list(range(1, N + 1)):
        raise InvalidInput("shifts must be a permutation of 1..N")
    if trials < 1:
        raise InvalidInput("need at least one trial")
    pieces = [(l, r, ks) for l, r, ks in fold_pattern(N, S) if ks]
    if not pieces:
        raise InvalidInput("S must have positive measure")
    cellw = Fraction(1, N)
    n_pieces = len(pieces)
    piece_lens = np.array([float((r - l).mpf()) for l, r, _ in pieces])
    piece_counts = np.array([len(ks) for _, _, ks in pieces])

    # bookkeeping: level densities must match the fiber-count measures
    for n in range(1, N + 1):
        level_measure = sum(piece_lens[piece_counts >= n])
        dens = float(levels[n - 1].density())
        if abs(dens - level_measure) > 1e-9:
            raise InvalidInput(
                f"level {n} density {dens:.3e} does not match its set measure "
                f"{level_measure:.3e}"
            )

    # cells of S: piece of the fundamental cell x offset
    cells: list[tuple[Endpoint, Endpoint]] = []
    cell_piece: list[int] = []
    cell_k: list[int] = []
    for p_idx, (left, right, ks) in enumerate(pieces):
        for k in ks:
            cells.append((left + k * cellw, right + k * cellw))
            cell_piece.append(p_idx)
            cell_k.append(k)
    n_cells = len(cells)
    cell_piece_arr = np.asarray(cell_piece)
    cell_k_arr = np.asarray(cell_k)
    cell_lens = piece_lens[cell_piece_arr]
    cell_counts = piece_counts[cell_piece_arr]

    # coefficient kernel: ker[i, t] = integral of e^{-2 pi i lambda x} over
    # cell i, lambda = -trunc_window..trunc_window
    lambdas = np.arange(-trunc_window, trunc_window + 1)
    lefts = np.array([float(l.mpf()) for l, _ in cells])
    rights = np.array([float(r.mpf()) for _, r in cells])
    nz = lambdas != 0
    lam_nz = lambdas[nz]
    ker = np.empty((n_cells, len(lambdas)), dtype=np.complex128)
    ker[:, nz] = (
        np.exp(-2j * np.pi * np.outer(rights, lam_nz))
        - np.exp(-2j * np.pi * np.outer(lefts, lam_nz))
    ) / (-2j * np.pi * lam_nz[None, :])
    ker[:, ~nz] = cell_lens[:, None]

    # index masks of the shifted levels inside the integer window
    level_masks = []
    for n in range(1, N + 1):
        mask = np.zeros(len(lambdas), dtype=bool)
        if not levels[n - 1].is_empty:
            shifted = levels[n - 1].shift(shifts[n - 1])
            lam_vals = shifted.enumerate_integers(-trunc_window, trunc_window)
            mask[np.asarray(lam_vals, dtype=np.int64) + trunc_window] = True
        level_masks.append(mask)

    # folding weights: w[l, k] = e^{-2 pi i shifts[l] k / N}
    fold_w = np.exp(-2j * np.pi * np.outer(np.asarray(shifts), np.arange(N)) / N)

    # minor-conditioning floor over the fiber patterns that occur
    fiber_sets = sorted(set(ks for _, _, ks in pieces))
    sigma_min_used = math.sqrt(c_prime_bound(N, list(shifts), fiber_sets))

    max_count = int(piece_counts.max())
    ratio_min = math.inf
    alpha_min = [math.inf] * N
    tail_max = 0.0
    used_trials = 0
    for t in range(trials):
        f = _draw_test_function(cells, seed, t)
        vals = f.values
        norm_all = float(np.sum(np.abs(vals) ** 2 * cell_lens))
        if norm_all <= 0.0:
            continue  # zero draw has no normalizable slice
        used_trials += 1

        c_all = vals @ ker
        captured = float(np.sum(np.abs(c_all) ** 2))
        tail_max = max(tail_max, max(0.0, 1.0 - captured / norm_all))

        # folded values per piece: C[k, p] = f(t + k/N) on piece p
        C = np.zeros((N, n_pieces), dtype=np.complex128)
        C[cell_k_arr, cell_piece_arr] = vals

        for n in range(1, max_count + 1):
            sel = cell_counts >= n
            tail_vals = np.where(sel, vals, 0.0)
            coeffs = tail_vals @ ker
            energy = np.abs(coeffs) ** 2
            piece_sel = piece_counts >= n
            C_tail = np.where(piece_sel[None, :], C, 0.0)
            H = fold_w @ C_tail  # h_{n, l} values per piece, rows l=1..N
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

    if tail_max > TAIL_THRESHOLD:
        warnings.warn(
            f"coefficient tail {tail_max:.3%} exceeds {TAIL_THRESHOLD:.0%} of energy",
            TruncationWarning,
        )
    per_level_alpha = tuple(a for a in alpha_min if math.isfinite(a))
    return FoldingReport(
        empirical_c=float(ratio_min),
        per_level_alpha=per_level_alpha,
        sigma_min_used=sigma_min_used,
        trials=used_trials,
        tail_fraction_max=tail_max,
    )

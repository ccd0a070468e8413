"""Numerical certification: truncated Gram bounds, finite duality, density
counts, and the randomized folding-inequality probe.

Finite sections cannot prove infinite-dimensional bounds; the Gram reports
therefore certify by trend (stable minimum eigenvalue across a doubling
window schedule), and the folding probe reports empirical constants next to
the minor-conditioning floor they are expected to respect.

A schedule is sized before it is solved: _gram_sizes checks it and counts
its largest window from the terms, _gram_blocks slices every window from
one enumeration that holds the largest, and _gram_solve solves them.
`verify` counts every sub-union before it enumerates any, and enumerates
each once, for its Gram windows and its density rows, before its first
solve.

The Gram symbol of a schedule (the entry for each frequency gap) is computed
once; every window's matrix is expanded from it.  When S is a single
interval the matrix is unitarily similar to a real symmetric sinc-kernel
matrix (see _sinc_symbol), and the bounds are solved on that; unions of
intervals are solved on the complex Gram matrix.  The two give the same
eigenvalues up to float rounding.  Both are solved densely and in place
with LAPACK dsyevd / zheevd, through scipy's f2py LAPACK wrapper
scipy.linalg._flapack alone: the scipy.linalg package is never imported.
Each solve takes one window, on a matrix of at most DENSE_GRAM_BYTES.  The
solvers read the lower triangle only, and only it is written, into a
mapping of its own whose pages above the diagonal stay unbacked.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import mmap
import os
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import (
    EmptyWindow,
    InvalidInput,
    InvalidSubset,
    ResourceLimit,
    TruncationWarning,
)
from .intervals import Endpoint, IntervalSet, _FieldJson, fold_pattern
from .minors import _check_permutation, c_prime_bound
from .spectra import Spectrum, _shift_levels

# address space of one Gram matrix, the only one a schedule maps at a time;
# about 0.7 of it is resident, since the pages above the diagonal are unbacked.
# It also caps the folding probe's coefficient kernel and its folding weights
# each, refused from the cell count before the cells are built
DENSE_GRAM_BYTES = 2**30
PASS_FLOOR = 1e-3
MAX_LAST_DROP = 0.10
TAIL_THRESHOLD = 0.01
_BLOCK_ROWS = 256  # rows of the probe's coefficient kernel computed at once
_TRIAL_BLOCK = 8  # folding-probe trials evaluated at once; bounds its per-trial temporaries


def _refuse_oversized(spectrum: Spectrum, S: IntervalSet, T, itemsize: int) -> None:
    """ResourceLimit unless a dense n x n matrix of itemsize-byte entries, n
    the integers m of the spectrum with |scale*m| <= T, fits in
    DENSE_GRAM_BYTES; n is counted exactly from the terms, each in O(1),
    and nothing is enumerated."""
    if S.is_empty:
        raise InvalidInput("S must have positive measure")
    bound = Fraction(T) / spectrum.scale
    n = sum(t._count_in(-bound, bound) for t in spectrum.terms)
    nbytes = n * n * itemsize
    if nbytes > DENSE_GRAM_BYTES:
        raise ResourceLimit(
            f"dense Gram matrix of n={n} needs {nbytes} bytes, "
            f"over the limit of {DENSE_GRAM_BYTES}"
        )


def _enumerated(spectrum: Spectrum, T) -> np.ndarray:
    """Underlying integers m of the spectrum with |scale*m| <= T, ascending."""
    bound = Fraction(T) / spectrum.scale
    return np.asarray(spectrum.enumerate_integers(-bound, bound), dtype=np.int64)


def _window_integers(spectrum: Spectrum, S: IntervalSet, T, itemsize: int = 16) -> np.ndarray:
    """_enumerated(spectrum, T), once _refuse_oversized has counted them."""
    _refuse_oversized(spectrum, S, T, itemsize)
    return _enumerated(spectrum, T)


def _window_slice(spectrum: Spectrum, ms: np.ndarray, T) -> slice:
    """Positions in the ascending ms of the integers with |scale*m| <= T.

    ms are the integers of the largest window, so an empty window raises
    EmptyWindow naming the least frequency magnitude among them: the least
    window that holds one.
    """
    m_max = math.floor(Fraction(T) / spectrum.scale)
    i, j = np.searchsorted(ms, [-m_max, m_max + 1])
    if j <= i:
        if len(ms):
            least = float(spectrum.scale * int(np.min(np.abs(ms))))
            hint = f"the least |frequency| in the largest window is {least}"
        else:
            hint = "the largest window holds none either"
        raise EmptyWindow(f"no frequencies in [-{float(T)}, {float(T)}]; {hint}")
    return slice(int(i), int(j))


def _signed(sym: np.ndarray) -> np.ndarray:
    """sym[d] at index d + dmax for d = -dmax..dmax, with sym[-d] = conj(sym[d])."""
    return np.concatenate((np.conj(sym[:0:-1]), sym))


def _toeplitz(sym: np.ndarray, ms: np.ndarray) -> np.ndarray:
    """The lower triangle of M[i, j] = sym[m_i - m_j], in the Fortran order
    that LAPACK reads; the entries above the diagonal are unspecified.

    sym holds d = 0..dmax >= ms[-1] - ms[0]; _refuse_oversized has checked
    the size.  M is Hermitian, so conj(M) = M^T is gathered in C order,
    each row i from its diagonal entry on, straight into place, and
    returned transposed.  The matrix lives in its own anonymous mapping on
    4 KB pages, so a page that holds only entries above the diagonal is
    never written and never backed; the mapping is unmapped with the last
    view of the matrix.
    """
    off = len(sym) - 1
    signed = _signed(sym)
    n = len(ms)
    buf = mmap.mmap(-1, n * n * signed.itemsize, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        buf.madvise(mmap.MADV_NOHUGEPAGE)
    out = np.frombuffer(buf, dtype=signed.dtype).reshape(n, n)
    for i in range(n):
        # indices are in range; mode="raise" would gather through a buffer
        np.take(signed, ms[i:] + (off - ms[i]), out=out[i, i:], mode="clip")
    return out.T


def _complex_symbol(spectrum: Spectrum, S: IntervalSet, dmax: int) -> np.ndarray:
    """g[d] = integral over S of e^{2 pi i (d*scale) x}, d = 0..dmax: the
    symbol of gram_matrix."""
    g = np.zeros(dmax + 1, dtype=np.complex128)
    g[0] = float(S.measure())
    if dmax >= 1:
        ds = range(1, dmax + 1)
        deltas = np.arange(1, dmax + 1) * float(spectrum.scale)
        acc = np.zeros(dmax, dtype=np.complex128)
        for left, right in S.pieces:
            for x, sign in ((right, +1.0), (left, -1.0)):
                theta = np.array((x * spectrum.scale).phases(ds))
                acc += sign * np.exp(2j * np.pi * theta)
        g[1:] = acc / (2j * np.pi * deltas)
    return g


def gram_matrix(spectrum: Spectrum, S: IntervalSet, T) -> np.ndarray:
    """Hermitian matrix of pairwise exponential inner products over S.

    Entry (i, j) is the closed-form integral of e^{2 pi i (l_i - l_j) x}
    over S; the diagonal is measure(S).  Phases are reduced mod 1 exactly
    (Endpoint.phases) before trigonometric evaluation, so large frequency
    gaps do not lose accuracy.
    """
    ms = _window_integers(spectrum, S, T)
    ms = ms[_window_slice(spectrum, ms, T)]
    sym = _complex_symbol(spectrum, S, int(ms[-1] - ms[0]))
    return _signed(sym)[np.subtract.outer(ms, ms) + (len(sym) - 1)]


def _sinc_symbol(spectrum: Spectrum, S: IntervalSet, dmax: int) -> np.ndarray:
    """Real symbol r[d], d = 0..dmax, whose Toeplitz matrix on a window has
    the eigenvalues of gram_matrix on it when S is a single interval [a, b).

    With c = (a+b)/2, w = b-a and s the spectrum scale,

        int_a^b e^{2 pi i d s x} dx = e^{2 pi i d s c} sin(pi d s w) / (pi d s),

    so G[i, j] = e^{2 pi i m_i s c} r(|m_i - m_j|) e^{-2 pi i m_j s c}, that
    is G = D R D^H with D = diag(e^{2 pi i m_i s c}) unitary and R[i, j] =
    r(|m_i - m_j|) real symmetric, where r(0) = w and

        r(d) = sin(2 pi frac(d s w / 2)) / (pi d s).

    G and R are unitarily similar, so their eigenvalues agree in exact
    arithmetic; R takes half the bytes and a real symmetric solve about a
    quarter of the flops.  The phase d s w / 2 is reduced mod 1 exactly, as
    in gram_matrix, with one reduction per gap d instead of one per
    endpoint and gap.
    """
    ((left, right),) = S.pieces
    r = np.empty(dmax + 1)
    r[0] = float(S.measure())
    if dmax >= 1:
        ds = range(1, dmax + 1)
        deltas = np.arange(1, dmax + 1) * float(spectrum.scale)
        theta = np.array(((right - left) * (spectrum.scale / 2)).phases(ds))
        r[1:] = np.sin(2 * np.pi * theta) / (np.pi * deltas)
    return r


@functools.cache
def _flapack():
    """scipy's f2py LAPACK wrapper, loaded once from its file under its own
    name, scipy.linalg._flapack, without running scipy/linalg/__init__.py.

    The top-level scipy is imported first, for the platform set-up the
    extension loads against.  The module is registered in sys.modules, as an
    import registers it, and Python keeps one module object per single-phase
    extension, so scipy.linalg, imported before or after, uses this one.
    """
    import scipy

    name = "scipy.linalg._flapack"
    finder = importlib.machinery.FileFinder(
        os.path.join(os.path.dirname(scipy.__file__), "linalg"),
        (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES),
    )
    spec = finder.find_spec(name)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _extreme_eigenvalues(A: np.ndarray) -> tuple[float, float]:
    """Least and greatest eigenvalue of the Hermitian matrix held in the lower
    triangle of the Fortran-ordered A, by LAPACK dsyevd (real A) or zheevd
    (complex A) from _flapack, eigenvalues only.

    A is overwritten.  The workspace sizes are LAPACK's own answer to the
    workspace query, int(x.real) of each, in the order lwork, liwork(,
    lrwork): the call scipy.linalg.eigh(A, eigvals_only=True,
    driver="evd", lower=True) makes.  A nonzero info raises LinAlgError.
    scipy is loaded at the first call, not at module top, so that commands
    which solve no Gram matrix never load it.
    """
    lapack = _flapack()
    if np.iscomplexobj(A):
        name, sizes = "zheevd", ("lwork", "liwork", "lrwork")
    else:
        name, sizes = "dsyevd", ("lwork", "liwork")
    *work, info = getattr(lapack, name + "_lwork")(len(A), compute_v=0, lower=1)
    if info == 0:  # else the workspace query failed, and nothing is solved
        work = {size: int(x.real) for size, x in zip(sizes, work)}
        vals, _, info = getattr(lapack, name)(A, compute_v=0, lower=1, overwrite_a=1, **work)
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK {name} of order {len(A)} failed with info {info}")
    return float(vals[0]), float(vals[-1])


def _checked_schedule(schedule: Sequence) -> list:
    """schedule as a list, or InvalidInput unless it is nonempty, positive
    and strictly increasing."""
    schedule = list(schedule)
    if not schedule or Fraction(schedule[0]) <= 0 or any(
        Fraction(t2) <= Fraction(t1) for t1, t2 in zip(schedule, schedule[1:])
    ):
        raise InvalidInput("schedule must be nonempty, positive and strictly increasing")
    return schedule


def _gram_sizes(spectrum: Spectrum, S: IntervalSet, schedule: Sequence) -> tuple:
    """The counting half of the sizing: (schedule, symbol), or the error
    that refuses the schedule, before anything is enumerated.

    The schedule and S are checked; the symbol is _sinc_symbol (8-byte
    entries) for one interval, _complex_symbol (16) for a union; the
    largest window is counted from the terms.
    """
    schedule = _checked_schedule(schedule)
    symbol, itemsize = (_sinc_symbol, 8) if len(S.pieces) == 1 else (_complex_symbol, 16)
    _refuse_oversized(spectrum, S, schedule[-1], itemsize)
    return schedule, symbol


def _gram_blocks(spectrum: Spectrum, sizes: tuple, ms: np.ndarray) -> tuple:
    """The slicing half of the sizing: (schedule, symbol, ms, blocks) from
    what _gram_sizes counted and the ascending integers ms of a window that
    holds the largest.

    ms is cut to the largest window, and each window is sliced from it, the
    smallest first, so EmptyWindow names it.
    """
    schedule, symbol = sizes
    m_max = math.floor(Fraction(schedule[-1]) / spectrum.scale)
    i, j = np.searchsorted(ms, [-m_max, m_max + 1])
    ms = ms[i:j]
    return schedule, symbol, ms, [_window_slice(spectrum, ms, T) for T in schedule]


def _gram_windows(spectrum: Spectrum, S: IntervalSet, schedule: Sequence) -> tuple:
    """The sizing half of riesz_bounds_estimate: _gram_sizes, then
    _gram_blocks on the largest window, enumerated once."""
    sizes = _gram_sizes(spectrum, S, schedule)
    return _gram_blocks(spectrum, sizes, _enumerated(spectrum, sizes[0][-1]))


@dataclass(frozen=True)
class GramReport(_FieldJson):
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


def riesz_bounds_estimate(
    spectrum: Spectrum, S: IntervalSet, schedule: Sequence
) -> GramReport:
    """Extreme Gram eigenvalues at each window of an increasing schedule.

    One symbol is computed, for the largest window: the real one of
    _sinc_symbol for a single interval S, the complex Gram symbol for a
    union.  Each symbol value depends on its gap d alone, so each window's
    matrix, expanded from it and solved in place, is exactly the matrix of
    that window.  PASS requires the final lower estimate to clear PASS_FLOOR
    and the relative drop over the last schedule step to stay under
    MAX_LAST_DROP.  The solves are multithreaded, and their last bits
    depend on the BLAS thread count: the report repeats byte for byte at a
    fixed thread count, not across thread counts.
    """
    return _gram_solve(spectrum, S, _gram_windows(spectrum, S, schedule))


def _gram_solve(spectrum: Spectrum, S: IntervalSet, windows: tuple) -> GramReport:
    """The solve half of riesz_bounds_estimate, on what _gram_windows sized."""
    schedule, symbol, ms, blocks = windows
    sym = symbol(spectrum, S, int(ms[-1] - ms[0]))
    history = [
        (float(T), *_extreme_eigenvalues(_toeplitz(sym, ms[block])))
        for T, block in zip(schedule, blocks)
    ]
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
class DensityReport(_FieldJson):
    rows: tuple[tuple[float, int, float, float], ...]  # (T, count, expected, residual)
    tolerance: float
    passed: bool


def density_check(
    spectrum: Spectrum, S: IntervalSet, T_list: Sequence, tolerance: float = 4.0
) -> DensityReport:
    """Window counts against the measure-based expectation 2*T*|S|.

    The spectrum is enumerated once, at the largest window; the count of each
    window is read off the sorted integers.
    """
    T_list = list(T_list)
    if any(Fraction(T) < 0 for T in T_list):
        raise InvalidInput("window must be nonnegative")
    ms = _enumerated(spectrum, max(map(Fraction, T_list))) if T_list else np.empty(0, np.int64)
    return _density_rows(spectrum, S, T_list, ms, tolerance)


def _density_rows(
    spectrum: Spectrum, S: IntervalSet, T_list: list, ms: np.ndarray, tolerance: float = 4.0
) -> DensityReport:
    """density_check on the ascending integers ms of a window that holds
    every window of T_list."""
    meas = float(S.measure())
    rows = []
    ok = True
    for T in T_list:
        m_max = math.floor(Fraction(T) / spectrum.scale)
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

    def sigma_min_sq(rows, cols) -> float:
        return float(np.linalg.svd(F[np.ix_(rows, cols)], compute_uv=False)[-1] ** 2)

    alpha_frame = sigma_min_sq(M_rows, J) if J and len(J) >= len(M_rows) else 0.0
    alpha_riesz = 1.0  # an empty family: vacuous Riesz side
    if Jc:
        alpha_riesz = sigma_min_sq(Mc, Jc) if len(Jc) <= len(Mc) else 0.0
    return {"alpha_frame": alpha_frame, "alpha_riesz": alpha_riesz}


def _draw_test_function(n: int, seed: int, trial: int) -> np.ndarray:
    """Complex-Gaussian values of a piecewise-constant function on n cells,
    drawn on an independent substream."""
    rng = np.random.default_rng([int(seed), trial])
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


@dataclass(frozen=True)
class FoldingReport(_FieldJson):
    """Empirical constants from the folding-inequality probe."""

    empirical_c: float
    per_level_alpha: tuple[float, ...]
    sigma_min_used: float
    trials: int
    tail_fraction_max: float


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
    if trials < 1:
        raise InvalidInput("need at least one trial")
    if seed < 0:
        raise InvalidInput("seed must be a non-negative integer")
    _check_permutation(N, shifts)
    shifted = _shift_levels(N, levels, shifts)
    pieces = [(l, r, ks) for l, r, ks in fold_pattern(N, S) if ks]
    if not pieces:
        raise InvalidInput("S must have positive measure")
    # the coefficient kernel and the folding weights, sized as allocated below
    n_cells, n_lambdas = sum(len(ks) for _, _, ks in pieces), 2 * trunc_window + 1
    ker_bytes, fold_bytes = n_cells * n_lambdas * 16, N * N * 16
    if max(ker_bytes, fold_bytes) > DENSE_GRAM_BYTES:
        raise ResourceLimit(
            f"folding probe needs a {n_cells} x {n_lambdas} coefficient kernel of "
            f"{ker_bytes} bytes and {N} x {N} folding weights of {fold_bytes} bytes; "
            f"each must fit the limit of {DENSE_GRAM_BYTES}"
        )
    cellw = Fraction(1, N)
    n_pieces = len(pieces)
    piece_lens = np.array([float(r - l) for l, r, _ in pieces])
    piece_counts = np.array([len(ks) for _, _, ks in pieces])

    # bookkeeping: levels must match the fiber-count measures
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
    cell_piece_arr = np.asarray(cell_piece)
    cell_k_arr = np.asarray(cell_k)
    cell_lens = piece_lens[cell_piece_arr]
    cell_counts = piece_counts[cell_piece_arr]

    # coefficient kernel: ker[i, t] = integral of e^{-2 pi i lambda x} over
    # cell i, lambda = -trunc_window..trunc_window
    lambdas = np.arange(-trunc_window, trunc_window + 1)
    lefts = np.array([float(l) for l, _ in cells])
    rights = np.array([float(r) for _, r in cells])
    nz = lambdas != 0
    lam_nz = lambdas[nz]
    ker = np.empty((n_cells, len(lambdas)), dtype=np.complex128)
    for i in range(0, n_cells, _BLOCK_ROWS):  # bounds the temporaries to one block
        rows = slice(i, i + _BLOCK_ROWS)
        ker[rows, nz] = (
            np.exp(-2j * np.pi * np.outer(rights[rows], lam_nz))
            - np.exp(-2j * np.pi * np.outer(lefts[rows], lam_nz))
        ) / (-2j * np.pi * lam_nz[None, :])
    ker[:, ~nz] = cell_lens[:, None]

    # positions of the shifted levels inside the integer window, ascending
    # and without repeats, as enumerate_integers lists them
    level_idx = [np.empty(0, dtype=np.intp)] * N
    for n, level in shifted:
        lam_vals = level.enumerate_integers(-trunc_window, trunc_window)
        level_idx[n - 1] = np.asarray(lam_vals, dtype=np.intp) + trunc_window

    # folding weights: w[l, k] = e^{-2 pi i shifts[l] k / N}
    fold_w = np.exp(-2j * np.pi * np.outer(np.asarray(shifts), np.arange(N)) / N)

    # minor-conditioning floor over the fiber patterns that occur
    fiber_sets = sorted(set(ks for _, _, ks in pieces))
    sigma_min_used = math.sqrt(c_prime_bound(N, list(shifts), fiber_sets))

    # levels n in (c', c] between two counts that occur share one tail
    # (cell_counts >= n is cell_counts >= c), and their exact-count slice
    # is empty below c, so each count c that occurs is evaluated once
    counts = sorted(set(piece_counts.tolist()))
    ratio_min = math.inf
    alpha_min = np.full(N, math.inf)
    tail_max = 0.0
    used_trials = 0
    # trials run _TRIAL_BLOCK at a time, one row each, every row drawn on its
    # own stream; each sum below adds one contiguous row in the order a
    # single trial adds it, so the report does not depend on the block size
    for start in range(0, trials, _TRIAL_BLOCK):
        V = np.stack([
            _draw_test_function(n_cells, seed, t)
            for t in range(start, min(start + _TRIAL_BLOCK, trials))
        ])
        norm_all = np.sum(np.abs(V) ** 2 * cell_lens, axis=1)
        drawn = norm_all > 0.0  # a zero draw has no normalizable slice
        V, norm_all = V[drawn], norm_all[drawn]
        used_trials += len(V)
        if not len(V):
            continue

        # folded values per piece: C[b, k, p] = f_b(t + k/N) on piece p.  A
        # column of fold_w @ C depends on its own column of C only, so the
        # h_{c, l} of a count c (rows l=1..N) are its columns p with
        # piece_counts >= c; the other columns of the tail are zero
        C = np.zeros((len(V), N, n_pieces), dtype=np.complex128)
        C[:, cell_k_arr, cell_piece_arr] = V
        H_sq = np.abs(fold_w @ C) ** 2 * piece_lens

        for c in counts:
            # every cell has at least the least count, whose tail is all of f
            least = c == counts[0]
            tail_vals = V if least else np.where(cell_counts >= c, V, 0.0)
            # one vector-matrix product per row, as for a single trial
            energy = (np.abs(tail_vals[:, None, :] @ ker) ** 2)[:, 0]
            if least:
                captured = np.sum(energy, axis=1)
                tail_max = max(tail_max, float(np.max(1.0 - captured / norm_all)))
            exact = cell_counts == c
            norm_fn = np.sum(np.abs(V.compress(exact, axis=1)) ** 2 * cell_lens[exact], axis=1)
            h_sq = np.sum(np.where(piece_counts >= c, H_sq[:, :c], 0.0), axis=2)
            ls = np.empty_like(h_sq)
            level_sum = np.zeros(len(V))
            for ell in range(c):  # level ell + 1, added left to right
                ls[:, ell] = np.sum(energy.take(level_idx[ell], axis=1), axis=1)
                level_sum += ls[:, ell]
            h_ok = h_sq > 1e-12 * norm_all[:, None]
            alpha = np.divide(ls, h_sq, out=np.full_like(ls, math.inf), where=h_ok)
            np.minimum(alpha_min[:c], np.min(alpha, axis=0), out=alpha_min[:c])
            fn_ok = norm_fn > 1e-12 * norm_all
            if fn_ok.any():
                ratio_min = min(ratio_min, float(np.min(level_sum[fn_ok] / norm_fn[fn_ok])))

    if tail_max > TAIL_THRESHOLD:
        warnings.warn(
            f"coefficient tail {tail_max:.3%} exceeds {TAIL_THRESHOLD:.0%} of energy",
            TruncationWarning,
        )
    per_level_alpha = tuple(float(a) for a in alpha_min if math.isfinite(a))
    return FoldingReport(
        empirical_c=float(ratio_min),
        per_level_alpha=per_level_alpha,
        sigma_min_used=sigma_min_used,
        trials=used_trials,
        tail_fraction_max=tail_max,
    )

"""Output checks: reference comparison and the fold-stream identities.

A reference is an op's outcome recorded at a known-good commit:
``{"exit": code, "status": ..., "result": ...}``.  An outcome matches when
the exit code and status are equal and the result agrees with the
reference under these rules:

- non-float fields match exactly;
- floats may differ by up to FLOAT_TOL (absolute);
- keys missing from the reference are ignored, so new diagnostic fields
  are allowed.

The ``config`` block of a report echoes file paths and is never compared.
"""

from __future__ import annotations

import gzip
import json
from fractions import Fraction
from pathlib import Path

import mpmath

from rieszspectra import IntervalSet, a_exact, a_geq, a_geq_all, b_exact

FLOAT_TOL = 1e-8
REFS = Path(__file__).resolve().parent / "refs"
_IDENTITY_TOL = mpmath.mpf(2) ** -100


def cli_outcome(exit_code: int, stdout: str) -> dict:
    report = json.loads(stdout) if stdout.strip() else {}
    return {"exit": exit_code, "status": report.get("status"), "result": report.get("result")}


def mismatches(actual, ref, path: str = "$") -> list:
    """Human-readable differences between an outcome and its reference."""
    if isinstance(ref, dict):
        if not isinstance(actual, dict):
            return [f"{path}: expected an object"]
        out = []
        for key, value in ref.items():
            if key not in actual:
                out.append(f"{path}.{key}: missing")
            else:
                out.extend(mismatches(actual[key], value, f"{path}.{key}"))
        return out
    if isinstance(ref, list):
        if not isinstance(actual, list) or len(actual) != len(ref):
            return [f"{path}: expected a list of {len(ref)}"]
        out = []
        for i, (x, y) in enumerate(zip(actual, ref)):
            out.extend(mismatches(x, y, f"{path}[{i}]"))
        return out
    if isinstance(ref, float) or isinstance(actual, float):
        numeric = all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in (actual, ref)
        )
        if numeric and abs(actual - ref) <= FLOAT_TOL:
            return []
        return [f"{path}: {actual!r} != {ref!r}"]
    return [] if actual == ref else [f"{path}: {actual!r} != {ref!r}"]


def ref_path(op_name: str) -> Path:
    return REFS / f"{op_name}.json.gz"


def load_ref(op_name: str):
    path = ref_path(op_name)
    if not path.exists():
        return None
    return json.loads(gzip.decompress(path.read_bytes()))


def save_ref(op_name: str, outcome: dict) -> None:
    REFS.mkdir(exist_ok=True)
    text = json.dumps(outcome, sort_keys=True, indent=1).encode()
    ref_path(op_name).write_bytes(gzip.compress(text, mtime=0))


def fold_identities(N: int, S: IntervalSet) -> bool:
    """Criterion-04 identities for one fold instance: the exact-count sets
    partition the cell, the b-sets partition S, the counts integrate to |S|,
    the >=n sets are nested, and folding the complement mirrors them."""
    tol = _IDENTITY_TOL
    cell = IntervalSet([(0, Fraction(1, N))])
    exact = [a_exact(N, S, n) for n in range(0, N + 1)]
    union = IntervalSet.empty()
    for part in exact:
        union = union.union(part)
    if not union.symmetric_difference(cell).measure_mpf() < tol:
        return False
    union_b = IntervalSet.empty()
    for n in range(1, N + 1):
        union_b = union_b.union(b_exact(N, S, n))
    if not union_b.symmetric_difference(S).measure_mpf() < tol:
        return False
    total = sum(n * exact[n].measure_mpf() for n in range(N + 1))
    if not abs(total - S.measure_mpf()) < tol:
        return False
    geq = a_geq_all(N, S)
    comp_geq = a_geq_all(N, S.complement())
    if geq[0] != a_geq(N, S, 1):
        return False
    for n in range(1, N + 1):
        if n >= 2 and not geq[n - 1].difference(geq[n - 2]).is_empty:
            return False
        mirrored = cell.difference(geq[N - n])
        if not comp_geq[n - 1].symmetric_difference(mirrored).measure_mpf() < tol:
            return False
    return True

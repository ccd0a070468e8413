"""The RS_PRECISION_BITS environment variable goes through the same 64-bit
floor as set_precision_bits, checked in a fresh interpreter per value."""

import os
import subprocess
import sys
from pathlib import Path

import rieszspectra

SRC = str(Path(rieszspectra.__file__).resolve().parents[1])


def _import_with_bits(bits: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, RS_PRECISION_BITS=bits, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-c",
         "from rieszspectra.precision import precision_bits; print(precision_bits())"],
        env=env, capture_output=True, text=True, timeout=60,
    )


def test_env_precision_below_minimum_is_rejected():
    proc = _import_with_bits("32")
    assert proc.returncode != 0
    last = proc.stderr.strip().splitlines()[-1]
    assert last.startswith("ValueError")
    assert "RS_PRECISION_BITS" in last and "at least 64 bits" in last


def test_env_precision_is_applied():
    proc = _import_with_bits("96")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "96"

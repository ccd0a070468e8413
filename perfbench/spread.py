"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload probe --seeds 1-10 --seconds 25

Runs perfbench/run.py once per seed (one after another) and prints, per
metric, the median, the quartiles from statistics.quantiles(n=4) and the
interquartile distance as a share of the median.  Use it to check that a
benchmark change keeps every spread below its bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, required=True, help="range such as 1-10")
    parser.add_argument("--seconds", required=True)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]}
    values: dict = {}
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"]
        out = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: outputs incorrect", file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = "" if bound is None or spread <= bound / 3 else "  (above a third of the bound)"
        print(f"{args.workload} {name}: median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
              f"spread {spread:.4f} bound {bound}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

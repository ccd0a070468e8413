"""Benchmark of the rieszspectra library: one workload per call.

    python3 perfbench/run.py --workload construct --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each workload runs in fresh worker
processes (perfbench/worker.py) with the BLAS thread count pinned, one op
at a time (closed loop, one client).  Every op's output is checked.

--trace 0 prints the end-to-end metrics: wall_s (wall time of one pass over
the timed ops: the sum over ops of each op's median time across at least
three passes), peak_rss_mb (peak resident memory after set-up and two
passes), setup_s (median over several
processes of the time from process start until the library is imported and
the inputs are generated) and ok_frac (ops whose output matched, over ops
attempted).  --trace 1 runs a traced worker and a single-threaded baseline
pass and prints the per-layer metrics.  The last stdout line is one JSON
object; the full result also goes to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import machine

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("construct", "certify", "probe")
SETUP_SAMPLES = 3
BLAS_THREADS = 2  # capped at the usable CPUs; the baseline pass uses 1
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def start_worker(args, mode: str, threads: int, deadline: float, spans: Path = None):
    """Run one worker process; return (set-up seconds, summary or None)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
    ]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=machine.pinned_env(threads), stdout=subprocess.PIPE, text=True
    )
    watchdog = threading.Timer(remaining, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
    if first.strip() != "READY" or code != 0:
        raise BenchError(f"{mode} worker for {args.workload} exited with code {code}")
    lines = rest.strip().splitlines()
    return setup_s, (json.loads(lines[-1]) if lines else None)


def end_to_end(args, threads: int, deadline: float):
    setups = [start_worker(args, "setup", threads, deadline)[0] for _ in range(SETUP_SAMPLES - 1)]
    setup_s, summary = start_worker(args, "run", threads, deadline)
    setups.append(setup_s)
    metrics = {
        "wall_s": (summary["wall_s"], "s"),
        "peak_rss_mb": (summary["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(setups), "s"),
        "ok_frac": (1 - summary["failed"] / summary["attempted"], "ratio"),
    }
    summary["setup_samples"] = setups
    return metrics, summary


def per_layer(args, threads: int, deadline: float):
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    _, summary = start_worker(args, "trace", threads, deadline, spans)
    _, baseline = start_worker(args, "baseline", 1, deadline)
    untraced, traced = summary["wall_s"], summary["traced_wall_s"]
    layers = summary.pop("layers")
    metrics = {name: (value, _unit(name)) for name, value in sorted(layers.items())}
    self_sum = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    metrics.update(
        {
            "trace.wall_untraced_s": (untraced, "s"),
            "trace.wall_traced_s": (traced, "s"),
            "trace.overhead_frac": (traced / untraced - 1, "ratio"),
            "trace.self_sum_s": (self_sum, "s"),
            "blas.single_thread_wall_s": (baseline["wall_s"], "s"),
            "capability.ops_failed": (summary["capability_failed"], "count"),
        }
    )
    summary["spans_file"] = str(spans.relative_to(ROOT))
    summary["self_sum_within_overhead"] = abs(self_sum - untraced) <= abs(traced - untraced) + 1e-3
    return metrics, summary


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_yield")):
        return "ratio"
    if name.endswith("_bytes") or name.endswith("bytes_computed"):
        return "B"
    return "count"


def run_one(args, threads: int, deadline: float) -> dict:
    measure = per_layer if args.trace else end_to_end
    metrics, summary = measure(args, threads, deadline)
    result = {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    passes = len(summary["walls"]) + len(summary.get("traced_walls", []))
    print(f"perfbench {args.workload}: seed {args.seed}, {passes} timed passes, "
          f"{threads} BLAS threads, trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    for line in summary["mismatches"]:
        print(f"  MISMATCH {line}")
    if args.trace:
        print(f"  traced self times within tracing overhead of untraced wall: "
              f"{summary['self_sum_within_overhead']}")
    elif args.workload == "construct":
        print(f"  L=3 CLI capability op (known ResourceLimit): "
              f"{summary['capability_failed']:.0f} failure(s) per pass")
    print("context " + json.dumps(
        {"machine": summary["machine"], "inputs_sha256": summary["inputs"], "blas_threads": threads},
        sort_keys=True,
    ))
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"result": result, "summary": summary}, indent=1, sort_keys=True))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "rieszspectra" / "__init__.py").is_file():
        print(f"no rieszspectra sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    threads = min(BLAS_THREADS, machine.usable_cpus())
    deadline = time.monotonic() + DEADLINE_S * (len(WORKLOADS) if args.workload == "all" else 1)
    try:
        if args.workload != "all":
            print(json.dumps(run_one(args, threads, deadline)))
            return 0
        combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in WORKLOADS:
            res = run_one(argparse.Namespace(**{**vars(args), "workload": workload}), threads, deadline)
            combined["correct"] &= res["correct"]
            combined["attempted"] += res["attempted"]
            combined["failed"] += res["failed"]
            combined["metrics"].update({f"{workload}.{k}": v for k, v in res["metrics"].items()})
        print(json.dumps(combined))
        return 0
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

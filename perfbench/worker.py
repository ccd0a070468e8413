"""One benchmark process for one workload.

Started by run.py with the BLAS thread pin already in its environment.
It imports the library from the checkout's src/, generates the seeded
inputs, prints ``READY`` (the end of set-up), then runs closed-loop passes:
one op at a time, each op either an in-process ``rieszspectra.cli.main``
call with stdout captured or a direct call to public library functions.
Every op's output is checked; the last stdout line is a JSON summary.

Modes:
  setup     generate the inputs and exit (a set-up time sample)
  run       untraced passes for --seconds, at least three
  trace     untraced passes for half of --seconds (at least two), then
            traced passes for the other half
  baseline  one cold untraced pass (run.py starts it with one BLAS thread)
  record    one pass, writing every op's outcome as the reference
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import rieszspectra  # noqa: E402
import rieszspectra.cli  # noqa: E402

import check  # noqa: E402
import inputs  # noqa: E402
import machine  # noqa: E402
import spans  # noqa: E402

L3_PRIME_LIMIT = 100000
MAX_MISMATCHES = 5


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable  # (Inputs) -> raw output
    kind: str = "ref"  # "ref" or "negative": compared with the reference; "fold"; "capability"
    timed: bool = True
    outcome: Callable = check.cli_outcome  # raw output -> comparable outcome


def cli(name: str, *argv: str, kind: str = "ref", timed: bool = True) -> Op:
    """A CLI op; an argument "@x" is replaced by the path of input x."""

    def run(inp):
        args = [inp.path(a[1:]) if a.startswith("@") else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = rieszspectra.cli.main(args)
        return code, out.getvalue()

    return Op(name, run, kind, timed)


def construct_l3(inp):
    a, b = inp.l3
    found = rieszspectra.find_ordering_prime(
        a, b, L3_PRIME_LIMIT, skip_relation_probe=True
    )
    return found, rieszspectra.construct_hierarchy_with_prime(a, b, found.N)


def construct_l3_outcome(found, plan) -> dict:
    return {"exit": 0, "status": "PASS", "result": {"prime": found.to_json(), "plan": plan.to_json()}}


def fold_stream(inp):
    return [check.fold_identities(N, S) for N, S in inp.fold_stream]


PROBE = ("--trials", "200", "--seed", "42")
SCHEDULE = ("--schedule", "256,512,1024")

WORKLOADS = {
    "construct": (
        cli("construct_l1", "construct-hierarchy", "--intervals", "@spec_l1", "--prime-limit", "100"),
        cli("construct_l2", "construct-hierarchy", "--intervals", "@spec_l2", "--prime-limit", "100"),
        Op("construct_l3_lib", construct_l3, outcome=construct_l3_outcome),
        cli("complement_c08", "complement", "--N", "2", "--intervals", "@spec_c08"),
        cli("complement_c09", "complement", "--N", "2", "--intervals", "@spec_c09"),
        # Known defect: the L=3 relation probe exceeds its budget (exit 3).
        # Untimed, so a fix shows as a capability gained, not a slowdown.
        cli(
            "construct_l3_cli", "construct-hierarchy", "--intervals", "@spec_l3",
            "--prime-limit", str(L3_PRIME_LIMIT), kind="capability", timed=False,
        ),
    ),
    "certify": (
        cli("bounds_c09_full", "bounds", "--spectrum", "@spectrum_c09_full", "--set", "@set_c09_full", *SCHEDULE),
        cli("bounds_c09_lambda", "bounds", "--spectrum", "@spectrum_c09_lambda", "--set", "@spec_c09", *SCHEDULE),
        cli("verify_l2_subsets", "verify", "--plan", "@plan_l2", *SCHEDULE, "--all-subsets"),
        cli("verify_l1", "verify", "--plan", "@plan_l1", "--schedule", "256,512,1024,2048"),
        # Criterion 11: the over-complete negative control must never PASS.
        cli(
            "bounds_c11_negative", "bounds", "--spectrum", "@spectrum_z", "--set", "@set_c11",
            "--schedule", "8,16,32,64", kind="negative",
        ),
    ),
    "probe": (
        Op("fold_stream", fold_stream, kind="fold"),
        cli("probe_l1_identity", "probe-folding", "--plan", "@plan_l1", *PROBE),
        cli("probe_l1_permuted", "probe-folding", "--plan", "@plan_l1", *PROBE, "--permutation", "3,1,4,2,5"),
        cli("probe_l2", "probe-folding", "--plan", "@plan_l2", *PROBE),
        cli("chebotarev_11_5", "check-chebotarev", "--N", "11", "--max-size", "5"),
        cli("equidist_sqrt23", "equidist", "--values", "sqrt(2),sqrt(3)", "--prime-limit", "100000", "--boxes", "32"),
    ),
}
ALL_OPS = [op.name for ops in WORKLOADS.values() for op in ops]


def outcome(op: Op, raw) -> dict:
    """The comparable form of an op's raw output."""
    if isinstance(raw, BaseException):
        return {"exit": f"exception {type(raw).__name__}: {raw}", "status": None, "result": None}
    return op.outcome(*raw)


class Tally:
    """Ops attempted and failed, plus the known capability gap."""

    def __init__(self, refs: dict):
        self.refs = refs
        self.attempted = 0
        self.failed = 0
        self.capability_failed = 0
        self.mismatches = []

    def _fail(self, op: Op, why) -> None:
        self.failed += 1
        if len(self.mismatches) < MAX_MISMATCHES:
            self.mismatches.append(f"{op.name}: {why}")

    def add(self, op: Op, raw) -> None:
        if op.kind == "fold":
            results = raw if isinstance(raw, list) else [False]
            self.attempted += len(results)
            for i, ok in enumerate(results):
                if not ok:
                    self._fail(op, f"fold identities fail on instance {i}")
            return
        self.attempted += 1
        got = outcome(op, raw)
        if op.kind == "capability":
            self._add_capability(op, got)
            return
        if op.kind == "negative" and got["status"] == "PASS":
            self._fail(op, "the over-complete negative control PASSed")
            return
        diff = check.mismatches(got, self.refs[op.name])
        if diff:
            self._fail(op, "; ".join(diff[:3]))

    def _add_capability(self, op: Op, got: dict) -> None:
        if not check.mismatches(got, self.refs[op.name]):
            self.capability_failed += 1  # still the recorded known defect
            return
        # A fix must build the same plan as the library path (the scan count
        # in the witness differs between the two paths by design).
        want = dict(self.refs["construct_l3_lib"]["result"]["plan"])
        want.pop("witness")
        diff = [] if got["exit"] == 0 else [f"exit {got['exit']}"]
        diff += check.mismatches(got["result"], want)
        if diff:
            self._fail(op, "; ".join(diff[:3]))


def run_pass(ops, inp, tally: Tally, op_times: dict, tracer=None, pass_no=0) -> float:
    """One closed-loop pass; returns the summed wall time of the timed ops."""
    wall = 0.0
    for op in ops:
        t0 = time.perf_counter()
        try:
            if tracer is None or not op.timed:
                raw = op.run(inp)
            else:
                raw = tracer.run_op(f"{pass_no}:{op.name}", op.name, op.run, inp)
        except Exception as exc:  # an op that raises counts as failed, the run goes on
            raw = exc
        dt = time.perf_counter() - t0
        if op.timed:
            wall += dt
            op_times.setdefault(op.name, []).append(dt)
        if tracer is not None and op.timed and isinstance(raw, tuple) and isinstance(raw[1], str):
            tracer.counts["report_bytes"] += len(raw[1])
        tally.add(op, raw)
    return wall


def measure(ops, inp, tally, seconds: float, min_passes=1, tracer=None, first_pass=0, after_pass=None):
    """Closed-loop passes until `seconds` have elapsed and at least
    min_passes ran.  Returns the per-pass walls and each timed op's time in
    every pass."""
    walls, op_times = [], {}
    start = time.perf_counter()
    while len(walls) < min_passes or time.perf_counter() - start < seconds:
        walls.append(run_pass(ops, inp, tally, op_times, tracer, first_pass + len(walls)))
        if after_pass is not None:
            after_pass()
    return walls, op_times


def typical_pass(op_times: dict) -> float:
    """One pass's wall time: the sum over the timed ops of each op's median."""
    return sum(statistics.median(ts) for ts in op_times.values())


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", required=True, choices=("setup", "run", "trace", "baseline", "record"))
    parser.add_argument("--spans", help="JSON-lines file for the spans of a traced run")
    args = parser.parse_args(argv)

    src = Path(rieszspectra.__file__).resolve()
    if ROOT / "src" not in src.parents:
        print(f"rieszspectra imported from {src}, not from this checkout", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench" / f"work-{os.getpid()}"
    try:
        inp = inputs.generate(args.workload, args.seed, work)
        print("READY", flush=True)
        if args.mode == "setup":
            return 0
        ops = WORKLOADS[args.workload]
        if args.mode == "record":
            for op in ops:
                if op.kind != "fold":
                    check.save_ref(op.name, outcome(op, op.run(inp)))
            return 0
        tally = Tally({op.name: check.load_ref(op.name) for op in ops})
        if args.mode == "baseline":
            walls, times = measure(ops, inp, tally, 0.0)
            summary = {"walls": walls, "wall_s": typical_pass(times)}
        else:
            # At least three passes, so the per-op medians leave out the
            # first, cold pass; the peak RSS is read after the second pass,
            # the same point in every run.
            trace = args.mode == "trace"
            seconds = args.seconds / 2 if trace else args.seconds
            rss = []
            walls, times = measure(
                ops, inp, tally, seconds, min_passes=2 if trace else 3,
                after_pass=lambda: len(rss) < 2 and rss.append(peak_rss_mb()),
            )
            summary = {"walls": walls, "wall_s": typical_pass(times), "peak_rss_mb": rss[-1]}
            summary["op_s"] = {name: statistics.median(ts) for name, ts in times.items()}
        if args.mode == "trace":
            tracer = spans.Tracer()
            tracer.install()
            traced, traced_times = measure(
                ops, inp, tally, seconds, tracer=tracer, first_pass=len(walls)
            )
            summary["traced_walls"] = traced
            summary["traced_wall_s"] = typical_pass(traced_times)
            summary["layers"] = tracer.metrics(len(traced), ALL_OPS)
            if args.spans:
                tracer.write_jsonl(args.spans)
        passes = len(walls) + len(summary.get("traced_walls", []))
        summary.update(
            attempted=tally.attempted,
            failed=tally.failed,
            capability_failed=tally.capability_failed / passes,
            mismatches=tally.mismatches,
            inputs=inp.sha256,
            machine=machine.describe(),
        )
        print(json.dumps(summary, sort_keys=True), flush=True)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front door: JSON configs in, construction/certification
reports out, with machine-readable exit codes.

Exit codes: 0 = PASS, 1 = construction or verification FAIL, 2 = input
error, 3 = resource limit.  Reports are deterministic for a fixed (config,
seed): JSON is emitted with sorted keys and no timestamps.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
import warnings
from fractions import Fraction

from . import __version__
from .arith import find_ordering_prime, weyl_discrepancy
from .assembly import (
    HierarchyPlan,
    complement_integer_spectrum,
    construct_hierarchy,
    subset_spectrum,
)
from .errors import (
    AmbiguousEndpoint,
    InvalidInput,
    NotFound,
    ResourceLimit,
    RieszSpectraError,
)
from .intervals import Endpoint, IntervalSet, parse_fraction
from .minors import chebotarev_check
from .precision import DEFAULT_PRECISION_BITS, checked_bits, hp_sqrt
from .spectra import Spectrum
from .verify import _union_reports, folding_probe, riesz_bounds_estimate

SCHEMA = "riesz-spectra/1"

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3

_DUMP_TOKENS = 4096  # JSON tokens joined per write of a streamed report


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise InvalidInput(f"input file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInput(
            f"malformed JSON in {path} at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc


def _load_artifact(path: str, parse, bits: int):
    """parse(the artifact in path, bits=bits), where the file holds either a
    bare artifact or a full report envelope; an input error while parsing
    names the file."""
    obj = _load_json(path)
    if isinstance(obj, dict) and obj.get("schema") == SCHEMA and "result" in obj:
        obj = obj["result"]
    try:
        return parse(obj, bits=bits)
    except InvalidInput as exc:
        raise InvalidInput(f"{path}: {exc}") from exc


def _interval_endpoints(path: str, bits: int, parse):
    S = _load_artifact(path, parse, bits)
    if S.is_empty:
        raise InvalidInput("interval specification is empty")
    return [l for l, _ in S.pieces], [r for _, r in S.pieces]


def _interval_chain(obj, *, bits: int) -> IntervalSet:
    """IntervalSet.from_json(obj), unless a listed interval touches or
    overlaps another or is empty, so that normalizing merged or dropped it."""
    S = IntervalSet.from_json(obj, bits=bits)
    if len(S.pieces) != len(obj["intervals"]):
        raise InvalidInput("interval set field 'intervals' must hold separate nonempty intervals")
    return S


def _spectrum_from_json(obj, *, bits: int) -> Spectrum:
    if isinstance(obj, dict) and "terms" not in obj and "lambda_prime" in obj:
        obj = obj["lambda_prime"]  # complement output is directly usable
    return Spectrum.from_json(obj, bits=bits)


def _write_report(args, payload: dict, status: str, artifact: dict = None) -> None:
    report = {
        "schema": SCHEMA,
        "version": __version__,
        "command": args.command,
        "config": {
            k: v for k, v in sorted(vars(args).items()) if k != "func" and v is not None
        },
        "status": status,
        "result": payload,
    }
    if not getattr(args, "out", None):
        _dump(report, sys.stdout)
    elif artifact is None:
        with open(args.out, "w") as fh:
            _dump(report, fh, sys.stdout)
    else:
        with open(args.out, "w") as fh:
            _dump(artifact, fh)
        _dump(report, sys.stdout)


def _dump(obj, *streams) -> None:
    """Write json.dumps(obj, sort_keys=True, indent=2, default=str) plus a
    newline to every stream, in joined blocks of tokens: the indented
    encoder yields one small str per token, and joining them all at once
    costs several times the report's size in transient memory."""
    encoder = json.JSONEncoder(sort_keys=True, indent=2, default=str)
    tokens = itertools.chain(encoder.iterencode(obj), "\n")
    while block := "".join(itertools.islice(tokens, _DUMP_TOKENS)):
        for fh in streams:
            fh.write(block)


def _verdict(args, payload: dict, ok: bool) -> int:
    """Report payload as a PASS if ok, else as a FAIL, and return its exit code."""
    _write_report(args, payload, "PASS" if ok else "FAIL")
    return EXIT_PASS if ok else EXIT_FAIL


def _pass_with_artifact(args, result) -> int:
    """Report result as a PASS; --out stores result alone."""
    payload = result.to_json()
    _write_report(args, payload, "PASS", artifact=payload)
    return EXIT_PASS


def _cmd_find_prime(args, bits: int) -> int:
    a, b = _interval_endpoints(args.intervals, bits, _interval_chain)
    return _pass_with_artifact(args, find_ordering_prime(a, b, args.prime_limit))


def _cmd_construct_hierarchy(args, bits: int) -> int:
    a, b = _interval_endpoints(args.intervals, bits, _interval_chain)
    plan = construct_hierarchy(a, b, args.prime_limit, prime_index=args.prime_index)
    return _pass_with_artifact(args, plan)


def _cmd_complement(args, bits: int) -> int:
    a, b = _interval_endpoints(args.intervals, bits, IntervalSet.from_json)
    return _pass_with_artifact(args, complement_integer_spectrum(args.N, a, b))


def _cmd_bounds(args, bits: int) -> int:
    spectrum = _load_artifact(args.spectrum, _spectrum_from_json, bits)
    S = _load_artifact(args.set, IntervalSet.from_json, bits)
    schedule = _parse_schedule(args.schedule)
    report = riesz_bounds_estimate(spectrum, S, schedule)
    _write_report(args, report.to_json(), report.status)
    return EXIT_PASS if report.passed else EXIT_FAIL


def _parse_schedule(text: str) -> list[Fraction]:
    return [parse_fraction(x, "--schedule") for x in text.split(",")]


def _cmd_verify(args, bits: int) -> int:
    plan = _load_artifact(args.plan, HierarchyPlan.from_json, bits)
    schedule = _parse_schedule(args.schedule)
    L = plan.L
    masks = range(1, 2**L) if args.all_subsets else [2**L - 1]
    subsets = [[ell for ell in range(1, L + 1) if mask >> (ell - 1) & 1] for mask in masks]
    unions = []
    for J in subsets:
        S_J = IntervalSet((plan.a[ell - 1], plan.b[ell - 1]) for ell in J)
        unions.append((J, subset_spectrum(plan, J).union(), S_J))
    rows = []
    for J, (dens, gram) in zip(subsets, _union_reports(unions, schedule)):
        status = "PASS" if dens.passed and gram.passed else "FAIL"
        rows.append({"J": J, "density": dens.to_json(), "gram": gram.to_json(), "status": status})
    return _verdict(args, {"subsets": rows}, all(row["status"] == "PASS" for row in rows))


def _cmd_check_chebotarev(args, bits: int) -> int:
    report = chebotarev_check(args.N, args.max_size)
    return _verdict(args, report.to_json(), report.worst_sigma > 0)


def _parse_int(text: str, field: str) -> int:
    """int(text), raising InvalidInput naming field when text is not an integer."""
    try:
        return int(text)
    except ValueError as exc:
        raise InvalidInput(f"{field}: {text!r} is not an integer") from exc


def _cmd_probe_folding(args, bits: int) -> int:
    plan = _load_artifact(args.plan, HierarchyPlan.from_json, bits)
    if args.permutation is None:
        shifts = list(range(1, plan.N + 1))
    else:
        shifts = [_parse_int(x, "--permutation") for x in args.permutation.split(",")]
    report = folding_probe(plan.N, plan.S, plan.level_spectra, shifts, args.trials, args.seed)
    return _verdict(args, report.to_json(), report.empirical_c > 0)


def _parse_value_token(token: str, bits: int = DEFAULT_PRECISION_BITS) -> Endpoint:
    token = token.strip()
    if token.startswith("sqrt(") and token.endswith(")"):
        radicand = _parse_int(token[5:-1], "--values")
        if radicand < 0:
            raise InvalidInput(f"--values: negative radicand in {token!r}")
        return Endpoint(0, hp_sqrt(radicand, bits))
    if "/" in token:
        return Endpoint(parse_fraction(token, "--values"))
    try:
        return Endpoint(0, token, bits=bits)
    except InvalidInput as exc:
        raise InvalidInput(f"--values: {exc}") from exc


def _cmd_equidist(args, bits: int) -> int:
    values = [_parse_value_token(tok, bits) for tok in args.values.split(",")]
    disc = weyl_discrepancy(values, args.prime_limit, args.boxes)
    _write_report(args, {"discrepancy": disc, "dimension": len(values)}, "PASS")
    return EXIT_PASS


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and then returned
    again: one parser is shared by every call in the process, so callers
    must not mutate it."""
    parser = argparse.ArgumentParser(
        prog="rieszspectra",
        description="Constructive exponential Riesz spectra with numerical certification",
    )
    parser.add_argument(
        "--precision-bits", type=int, default=None, help="bits of the parsed generators"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        return p

    p = command("find-prime", _cmd_find_prime, "scan for the smallest admissible prime")
    p.add_argument("--intervals", required=True)
    p.add_argument("--prime-limit", type=int, required=True)

    p = command("construct-hierarchy", _cmd_construct_hierarchy, "build the hierarchical spectra")
    p.add_argument("--intervals", required=True)
    p.add_argument("--prime-limit", type=int, required=True)
    p.add_argument("--prime-index", type=int, default=0)

    p = command("complement", _cmd_complement, "complement the integer spectrum")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--intervals", required=True)

    p = command("bounds", _cmd_bounds, "Riesz bound estimates on a window schedule")
    p.add_argument("--spectrum", required=True)
    p.add_argument("--set", required=True)
    p.add_argument("--schedule", default="256,512,1024,2048")

    p = command("verify", _cmd_verify, "density + bound certification of a plan")
    p.add_argument("--plan", required=True)
    p.add_argument("--schedule", default="256,512,1024")
    p.add_argument("--all-subsets", action="store_true")

    p = command(
        "check-chebotarev",
        _cmd_check_chebotarev,
        "cover every square minor of the character matrix, one SVD per symmetry orbit",
    )
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--max-size", type=int, required=True)

    p = command("probe-folding", _cmd_probe_folding, "randomized folding-inequality probe")
    p.add_argument("--plan", required=True)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--permutation", default=None)

    p = command("equidist", _cmd_equidist, "discrepancy of {p*a} over primes")
    p.add_argument("--values", required=True, help="comma list: decimals, p/q, or sqrt(k)")
    p.add_argument("--prime-limit", type=int, required=True)
    p.add_argument("--boxes", type=int, default=64)

    for p in sub.choices.values():
        p.add_argument("--out")
    return parser


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """A warning as one stderr line, without the source path and line that
    differ between checkouts."""
    print(f"warning: {message}", file=sys.stderr)


def _precision_bits(bits) -> int:
    """The --precision-bits value, DEFAULT_PRECISION_BITS when absent; one
    below 64 is an input error."""
    try:
        return checked_bits(DEFAULT_PRECISION_BITS if bits is None else bits)
    except ValueError as exc:
        raise InvalidInput(f"--precision-bits: {exc}") from exc


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        try:
            return args.func(args, _precision_bits(args.precision_bits))
        except ResourceLimit as exc:
            print(f"resource limit: {exc}", file=sys.stderr)
            return EXIT_RESOURCE
        except (InvalidInput, AmbiguousEndpoint) as exc:
            print(f"input error: {exc}", file=sys.stderr)
            return EXIT_INPUT
        except NotFound as exc:
            print(f"construction failed: {exc}", file=sys.stderr)
            return _verdict(args, {"error": str(exc)}, False)
        except RieszSpectraError as exc:
            print(f"failure: {exc}", file=sys.stderr)
            return _verdict(args, {"error": str(exc)}, False)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front door: JSON configs in, construction/certification
reports out, with machine-readable exit codes.

Exit codes: 0 = PASS, 1 = construction or verification FAIL, 2 = input
error, 3 = resource limit.  Reports are deterministic for a fixed (config,
seed): JSON is emitted with sorted keys and no timestamps.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
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
    IndependenceSuspect,
    InvalidInput,
    InvalidSubset,
    NotFound,
    NotPrime,
    ResourceLimit,
    RieszSpectraError,
)
from .intervals import Endpoint, IntervalSet, parse_fraction
from .minors import chebotarev_check
from .precision import hp_sqrt, precision_bits, set_precision_bits
from .spectra import Spectrum
from .verify import density_check, folding_probe, riesz_bounds_estimate

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


def _load_artifact(path: str, parse):
    """parse(the artifact in path, unwrapped from a report envelope); an
    input error while parsing names the file."""
    obj = _unwrap(_load_json(path))
    try:
        return parse(obj)
    except InvalidInput as exc:
        raise InvalidInput(f"{path}: {exc}") from exc


def _interval_endpoints(path: str):
    S = _load_artifact(path, IntervalSet.from_json)
    if S.is_empty:
        raise InvalidInput("interval specification is empty")
    a = [l for l, _ in S.pieces]
    b = [r for _, r in S.pieces]
    return a, b, S


def _unwrap(obj):
    """Accept either a bare artifact or a full report envelope."""
    if isinstance(obj, dict) and obj.get("schema") == SCHEMA and "result" in obj:
        return obj["result"]
    return obj


def _load_plan(path: str) -> HierarchyPlan:
    return _load_artifact(path, HierarchyPlan.from_json)


def _spectrum_from_json(obj) -> Spectrum:
    if isinstance(obj, dict) and "terms" not in obj and "lambda_prime" in obj:
        obj = obj["lambda_prime"]  # complement output is directly usable
    return Spectrum.from_json(obj)


def _load_spectrum(path: str) -> Spectrum:
    return _load_artifact(path, _spectrum_from_json)


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


def _cmd_find_prime(args) -> int:
    a, b, _ = _interval_endpoints(args.intervals)
    result = find_ordering_prime(a, b, args.prime_limit)
    payload = result.to_json()
    _write_report(args, payload, "PASS", artifact=payload)
    return EXIT_PASS


def _cmd_construct_hierarchy(args) -> int:
    a, b, _ = _interval_endpoints(args.intervals)
    plan = construct_hierarchy(
        a, b, args.prime_limit, prime_index=args.prime_index
    )
    payload = plan.to_json()
    _write_report(args, payload, "PASS", artifact=payload)
    return EXIT_PASS


def _cmd_complement(args) -> int:
    a, b, _ = _interval_endpoints(args.intervals)
    result = complement_integer_spectrum(args.N, a, b)
    payload = result.to_json()
    _write_report(args, payload, "PASS", artifact=payload)
    return EXIT_PASS


def _cmd_bounds(args) -> int:
    spectrum = _load_spectrum(args.spectrum)
    S = _load_artifact(args.set, IntervalSet.from_json)
    schedule = _parse_schedule(args.schedule)
    report = riesz_bounds_estimate(spectrum, S, schedule)
    _write_report(args, report.to_json(), report.status)
    return EXIT_PASS if report.passed else EXIT_FAIL


def _parse_schedule(text: str) -> list[Fraction]:
    return [parse_fraction(x, "--schedule") for x in text.split(",")]


def _cmd_verify(args) -> int:
    plan = _load_plan(args.plan)
    schedule = _parse_schedule(args.schedule)
    density_windows = [schedule[-1] * m for m in (1, 2, 4)]
    subsets = []
    if args.all_subsets:
        L = plan.L
        for mask in range(1, 2**L):
            subsets.append([ell for ell in range(1, L + 1) if mask & (1 << (ell - 1))])
    else:
        subsets.append(list(range(1, plan.L + 1)))
    rows = []
    all_ok = True
    for J in subsets:
        sp = subset_spectrum(plan, J)
        spec = sp.union()
        S_J = IntervalSet(
            (plan.a[ell - 1], plan.b[ell - 1]) for ell in J
        )
        dens = density_check(spec, S_J, density_windows)
        gram = riesz_bounds_estimate(spec, S_J, schedule)
        ok = dens.passed and gram.passed
        all_ok = all_ok and ok
        rows.append(
            {
                "J": J,
                "density": dens.to_json(),
                "gram": gram.to_json(),
                "status": "PASS" if ok else "FAIL",
            }
        )
    _write_report(args, {"subsets": rows}, "PASS" if all_ok else "FAIL")
    return EXIT_PASS if all_ok else EXIT_FAIL


def _cmd_check_chebotarev(args) -> int:
    report = chebotarev_check(args.N, args.max_size)
    payload = report.to_json()
    ok = report.worst_sigma > 0
    _write_report(args, payload, "PASS" if ok else "FAIL")
    return EXIT_PASS if ok else EXIT_FAIL


def _cmd_probe_folding(args) -> int:
    plan = _load_plan(args.plan)
    if args.permutation:
        shifts = [int(x) for x in args.permutation.split(",")]
    else:
        shifts = list(range(1, plan.N + 1))
    report = folding_probe(
        plan.N, plan.S, plan.level_spectra, shifts, args.trials, args.seed
    )
    ok = report.empirical_c > 0
    _write_report(args, report.to_json(), "PASS" if ok else "FAIL")
    return EXIT_PASS if ok else EXIT_FAIL


def _parse_value_token(token: str) -> Endpoint:
    token = token.strip()
    if token.startswith("sqrt(") and token.endswith(")"):
        radicand = int(token[5:-1])
        if radicand < 0:
            raise InvalidInput(f"--values: negative radicand in {token!r}")
        return Endpoint(0, hp_sqrt(radicand))
    if "/" in token:
        return Endpoint(parse_fraction(token, "--values"))
    return Endpoint.coerce(token)


def _cmd_equidist(args) -> int:
    values = [_parse_value_token(tok) for tok in args.values.split(",")]
    disc = weyl_discrepancy(values, args.prime_limit, args.boxes)
    _write_report(args, {"discrepancy": disc, "dimension": len(values)}, "PASS")
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rieszspectra",
        description="Constructive exponential Riesz spectra with numerical certification",
    )
    parser.add_argument(
        "--precision-bits", type=int, default=None, help="working precision override"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("find-prime", help="scan for the smallest admissible prime")
    p.add_argument("--intervals", required=True)
    p.add_argument("--prime-limit", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_find_prime)

    p = sub.add_parser("construct-hierarchy", help="build the hierarchical spectra")
    p.add_argument("--intervals", required=True)
    p.add_argument("--prime-limit", type=int, required=True)
    p.add_argument("--prime-index", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_construct_hierarchy)

    p = sub.add_parser("complement", help="complement the integer spectrum")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--intervals", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_complement)

    p = sub.add_parser("bounds", help="Riesz bound estimates on a window schedule")
    p.add_argument("--spectrum", required=True)
    p.add_argument("--set", required=True)
    p.add_argument("--schedule", default="256,512,1024,2048")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("verify", help="density + bound certification of a plan")
    p.add_argument("--plan", required=True)
    p.add_argument("--schedule", default="256,512,1024")
    p.add_argument("--all-subsets", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "check-chebotarev",
        help="cover every square minor of the character matrix, one SVD per symmetry orbit",
    )
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--max-size", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_check_chebotarev)

    p = sub.add_parser("probe-folding", help="randomized folding-inequality probe")
    p.add_argument("--plan", required=True)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--permutation", default=None)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_probe_folding)

    p = sub.add_parser("equidist", help="discrepancy of {p*a} over primes")
    p.add_argument("--values", required=True, help="comma list: decimals, p/q, or sqrt(k)")
    p.add_argument("--prime-limit", type=int, required=True)
    p.add_argument("--boxes", type=int, default=64)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_equidist)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    previous_bits = precision_bits()
    try:
        if args.precision_bits is not None:
            set_precision_bits(args.precision_bits)
        return args.func(args)
    except ResourceLimit as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (
        InvalidInput,
        InvalidSubset,
        AmbiguousEndpoint,
        IndependenceSuspect,
        NotPrime,
        ValueError,
    ) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NotFound as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        _write_report(args, {"error": str(exc)}, "FAIL")
        return EXIT_FAIL
    except RieszSpectraError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        _write_report(args, {"error": str(exc)}, "FAIL")
        return EXIT_FAIL
    finally:
        if precision_bits() != previous_bits:
            set_precision_bits(previous_bits)


if __name__ == "__main__":
    sys.exit(main())

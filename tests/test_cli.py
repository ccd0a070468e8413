"""CLI surface: exit codes, report schema, and replay determinism."""

import dataclasses
import io
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction

import mpmath
import pytest

import rieszspectra as rs
import rieszspectra.cli as cli
from rieszspectra.cli import main
from rieszspectra.intervals import Endpoint, IntervalSet
from rieszspectra.precision import hp_sqrt


@pytest.fixture()
def sqrt_interval_file(tmp_path):
    a = Endpoint(0, hp_sqrt(2)) - 1
    b = Endpoint(0, hp_sqrt(3)) - 1
    path = tmp_path / "s.json"
    path.write_text(json.dumps(IntervalSet([(a, b)]).to_json()))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip().startswith("{") else out


def _src_env() -> dict:
    """os.environ with this checkout's package first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(rs.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_cli_import_leaves_scipy_unloaded():
    # scipy is loaded by the first Gram solve only: commands that solve none
    # (construct-hierarchy, probe-folding, ...) do not pay for its import
    code = "import sys, rieszspectra.cli; sys.exit('scipy' in sys.modules)"
    subprocess.run([sys.executable, "-c", code], env=_src_env(), check=True, timeout=60)


def test_gram_solves_leave_scipy_linalg_unloaded(tmp_path, plan_l2):
    # bounds (one interval: dsyevd) and verify (its union J=[1,2]: zheevd)
    # solve through LAPACK's f2py wrapper alone, loaded from its file, so
    # the scipy.linalg package never runs
    spec, unit, plan = (tmp_path / f"{name}.json" for name in ("lattice", "unit", "plan"))
    spec.write_text(json.dumps(rs.integer_lattice().to_json()))
    unit.write_text(json.dumps(IntervalSet.unit().to_json()))
    plan.write_text(json.dumps(plan_l2.to_json()))
    bounds = ["bounds", "--spectrum", str(spec), "--set", str(unit), "--schedule", "8,16"]
    verify = ["verify", "--plan", str(plan), "--all-subsets", "--schedule", "32,64"]
    code = (
        "import sys; from rieszspectra.cli import main; "
        f"codes = main({bounds!r}), main({verify!r}); "
        "sys.exit(codes != (0, 1) or 'scipy.linalg' in sys.modules "
        "or 'scipy.linalg._flapack' not in sys.modules)"
    )
    subprocess.run(
        [sys.executable, "-c", code], env=_src_env(), check=True, timeout=60,
        stdout=subprocess.DEVNULL,
    )


def test_main_builds_its_parser_once(capsys):
    cli.build_parser.cache_clear()
    argv = ["check-chebotarev", "--N", "5", "--max-size", "2"]
    assert main(argv) == 0
    with pytest.raises(SystemExit):
        main(["check-chebotarev", "--N", "5"])
    assert main(argv) == 0
    capsys.readouterr()
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def _outcome(capsys, argv) -> tuple:
    """(exit code, stdout, stderr) of main(argv) in this process."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_shared_parser_matches_fresh_processes(tmp_path, capsys, monkeypatch, plan_l1,
                                               sqrt_interval_file):
    # every call on the one shared parser prints what a fresh process prints,
    # a usage error and a --precision-bits call among them
    monkeypatch.setenv("COLUMNS", "80")  # the width argparse wraps usage at
    grid, lattice, unit = (tmp_path / f"{name}.json" for name in ("grid", "lattice", "unit"))
    grid.write_text(json.dumps(IntervalSet([(1, Fraction(5, 4))]).to_json()))
    lattice.write_text(json.dumps(rs.integer_lattice().to_json()))
    unit.write_text(json.dumps(IntervalSet.unit().to_json()))
    plan = _plan_file(tmp_path, plan_l1)
    construct = ["construct-hierarchy", "--intervals", sqrt_interval_file, "--prime-limit", "100"]
    calls = [
        construct,
        ["--precision-bits", "96", *construct],
        ["construct-hierarchy", "--intervals", sqrt_interval_file],
        ["complement", "--N", "2", "--intervals", str(grid)],
        ["bounds", "--spectrum", str(lattice), "--set", str(unit), "--schedule", "8,16"],
        ["verify", "--plan", plan, "--schedule", "64,128"],
        ["probe-folding", "--plan", plan, "--trials", "3"],
        construct,
    ]
    outcomes = [_outcome(capsys, argv) for argv in calls]
    assert outcomes[2][0] == 2 and "required: --prime-limit" in outcomes[2][2]
    assert outcomes[0] == outcomes[-1]
    env = _src_env()
    for argv, got in zip(calls[:-1], outcomes):
        fresh = subprocess.run([sys.executable, "-m", "rieszspectra.cli", *argv], env=env,
                               capture_output=True, text=True, timeout=120)
        assert got == (fresh.returncode, fresh.stdout, fresh.stderr), argv


def test_find_prime(capsys, sqrt_interval_file):
    code, report = _run(capsys, [
        "find-prime", "--intervals", sqrt_interval_file, "--prime-limit", "100",
    ])
    assert code == 0
    assert report["schema"] == "riesz-spectra/1"
    assert report["result"]["N"] == 5
    assert report["status"] == "PASS"


def test_malformed_json_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"intervals": [,]}')
    code = main(["find-prime", "--intervals", str(bad), "--prime-limit", "10"])
    err = capsys.readouterr().err
    assert code == 2
    assert "line" in err and "column" in err


def test_missing_file_exit_code(capsys):
    assert main(["find-prime", "--intervals", "/nonexistent.json",
                 "--prime-limit", "10"]) == 2


def test_construct_and_verify_roundtrip(tmp_path, capsys, sqrt_interval_file):
    plan_path = tmp_path / "plan.json"
    code, _ = _run(capsys, [
        "construct-hierarchy", "--intervals", sqrt_interval_file,
        "--prime-limit", "100", "--out", str(plan_path),
    ])
    assert code == 0
    code, report = _run(capsys, [
        "verify", "--plan", str(plan_path), "--schedule", "32,64",
        "--all-subsets",
    ])
    assert code == 0
    rows = report["result"]["subsets"]
    assert len(rows) == 1
    assert rows[0]["status"] == "PASS"


def test_bounds_command(tmp_path, capsys):
    spec_path = tmp_path / "lam.json"
    set_path = tmp_path / "s.json"
    spec_path.write_text(json.dumps(rs.integer_lattice().to_json()))
    set_path.write_text(json.dumps(IntervalSet.unit().to_json()))
    code, report = _run(capsys, [
        "bounds", "--spectrum", str(spec_path), "--set", str(set_path),
        "--schedule", "8,16",
    ])
    assert code == 0
    assert abs(report["result"]["lower_est"] - 1.0) < 1e-12


def test_bounds_failure_exit_code(tmp_path, capsys):
    spec_path = tmp_path / "lam.json"
    set_path = tmp_path / "s.json"
    spec_path.write_text(json.dumps(rs.integer_lattice().to_json()))
    set_path.write_text(
        json.dumps(IntervalSet([(0, Fraction(1, 2))]).to_json())
    )
    code, report = _run(capsys, [
        "bounds", "--spectrum", str(spec_path), "--set", str(set_path),
        "--schedule", "8,16,32",
    ])
    assert code == 1
    assert report["result"]["status"] == "FAIL_TREND"


def test_bounds_dense_limit_exit_code(tmp_path, capsys, monkeypatch):
    import rieszspectra.verify as verify_mod

    spec_path = tmp_path / "lam.json"
    set_path = tmp_path / "s.json"
    spec_path.write_text(json.dumps(rs.integer_lattice().to_json()))
    set_path.write_text(json.dumps(IntervalSet.unit().to_json()))
    monkeypatch.setattr(verify_mod, "DENSE_GRAM_BYTES", 1000)
    code = main([
        "bounds", "--spectrum", str(spec_path), "--set", str(set_path),
        "--schedule", "8,16",
    ])
    assert code == 3
    assert "n=33" in capsys.readouterr().err


def _refuse_solves(monkeypatch):
    import rieszspectra.verify as verify_mod

    solved = []
    monkeypatch.setattr(verify_mod, "_extreme_eigenvalues", lambda A: solved.append(A) or (0, 1))
    return solved


def test_verify_sizes_every_subset_before_the_first_solve(tmp_path, capsys, monkeypatch, plan_l2):
    import rieszspectra.verify as verify_mod

    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(plan_l2.to_json()))
    solved = _refuse_solves(monkeypatch)
    # at T=64 J=[1] and J=[2] have real windows of n=30 and 24; the union
    # J=[1,2], the last one verified, has a complex window of n=54
    monkeypatch.setattr(verify_mod, "DENSE_GRAM_BYTES", 54 * 54 * 16 - 1)
    argv = ["verify", "--plan", str(plan), "--all-subsets", "--schedule", "32,64"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and solved == []
    assert "n=54 needs 46656 bytes" in captured.err and "J=[1, 2]" in captured.err
    monkeypatch.setattr(verify_mod, "DENSE_GRAM_BYTES", 54 * 54 * 16)
    main(argv)
    assert [len(A) for A in solved] == [15, 30, 12, 24, 27, 54]


def test_verify_counts_and_enumerates_each_subset_once(tmp_path, capsys, monkeypatch, plan_l2):
    # one sizing pass per sub-union: its largest Gram window is counted from
    # its terms once, every sub-union before any is enumerated, and each is
    # enumerated once, at the 4x density window that holds its Gram windows
    terms = [len(rs.subset_spectrum(plan_l2, J).union().terms) for J in ([1], [2], [1, 2])]
    counted, enumerated = [], []
    count, enumerate_integers = rs.CosetTerm._count_in, rs.Spectrum.enumerate_integers
    monkeypatch.setattr(
        rs.CosetTerm, "_count_in", lambda t, lo, hi: counted.append(hi) or count(t, lo, hi)
    )
    monkeypatch.setattr(
        rs.Spectrum,
        "enumerate_integers",
        lambda s, lo, hi: enumerated.append((s.terms, hi, len(counted)))
        or enumerate_integers(s, lo, hi),
    )
    plan = _plan_file(tmp_path, plan_l2)
    assert main(["verify", "--plan", plan, "--all-subsets", "--schedule", "32,64"]) == 1
    assert capsys.readouterr().err == ""
    assert counted == [64] * sum(terms)
    # every term of every sub-union was counted before the first enumeration
    assert [(len(ts), hi, seen) for ts, hi, seen in enumerated] == [
        (n, 256, sum(terms)) for n in terms
    ]


def test_verify_empty_window_is_input_error_naming_the_least(
    tmp_path, capsys, monkeypatch, plan_l3
):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(plan_l3.to_json()))
    solved = _refuse_solves(monkeypatch)
    # the least |frequency| of J=[3] is 365, so the default schedule's
    # T=256 holds none; J=[1], [2] and [1,2] come before it
    assert main(["verify", "--plan", str(plan), "--all-subsets"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and solved == []
    assert captured.err == (
        "input error: no frequencies in [-256.0, 256.0]; the least |frequency| "
        "in the largest window is 365.0 (sub-union J=[3])\n"
    )


def test_complement_command(tmp_path, capsys):
    iv = tmp_path / "v.json"
    iv.write_text(json.dumps(IntervalSet([(1, 2)]).to_json()))
    code, report = _run(capsys, ["complement", "--N", "2", "--intervals", str(iv)])
    assert code == 0
    assert report["result"]["M"] == 2
    assert report["result"]["lambda_prime"]["scale"] == "1/2"


def test_check_chebotarev_command(capsys):
    code, report = _run(capsys, ["check-chebotarev", "--N", "7", "--max-size", "3"])
    assert code == 0
    assert report["result"]["worst_sigma"] > 1e-8


def test_probe_folding_deterministic(tmp_path, capsys, sqrt_interval_file):
    plan_path = tmp_path / "plan.json"
    main([
        "construct-hierarchy", "--intervals", sqrt_interval_file,
        "--prime-limit", "100", "--out", str(plan_path),
    ])
    capsys.readouterr()
    argv = ["probe-folding", "--plan", str(plan_path), "--trials", "5",
            "--seed", "42"]
    code1 = main(argv)
    out1 = capsys.readouterr().out
    code2 = main(argv)
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical replay


def test_equidist_command(capsys):
    code, report = _run(capsys, [
        "equidist", "--values", "sqrt(2)", "--prime-limit", "20000",
        "--boxes", "64",
    ])
    assert code == 0
    assert report["result"]["discrepancy"] < 0.05


def test_equidist_resource_limit(capsys):
    code = main([
        "equidist", "--values", "sqrt(2),sqrt(3)", "--prime-limit", "100",
        "--boxes", "10000",
    ])
    assert code == 3


def test_report_echoes_config(tmp_path, capsys, sqrt_interval_file):
    out_path = tmp_path / "report.json"
    code, report = _run(capsys, [
        "find-prime", "--intervals", sqrt_interval_file,
        "--prime-limit", "100", "--out", str(out_path),
    ])
    assert code == 0
    assert report["config"]["prime_limit"] == 100
    assert json.loads(out_path.read_text()) == report["result"]


def test_construction_failure_writes_report(tmp_path, capsys):
    # rationally independent endpoints but a prime limit too small to pass
    iv = tmp_path / "s.json"
    a = Endpoint(0, hp_sqrt(2)) - 1
    b = Endpoint(0, hp_sqrt(3)) - 1
    iv.write_text(json.dumps(IntervalSet([(a, b)]).to_json()))
    code, report = _run(capsys, [
        "find-prime", "--intervals", str(iv), "--prime-limit", "3",
    ])
    assert code == 1
    assert report["status"] == "FAIL"
    assert "error" in report["result"]


@pytest.mark.parametrize("bits", ["32", "0"])
def test_precision_bits_below_minimum_is_input_error(capsys, sqrt_interval_file, bits):
    code = main([
        "--precision-bits", bits, "find-prime", "--intervals", sqrt_interval_file,
        "--prime-limit", "100",
    ])
    assert code == 2
    assert "at least 64 bits" in capsys.readouterr().err


def test_library_value_error_is_not_an_input_error(monkeypatch, capsys, sqrt_interval_file):
    # a ValueError raised inside a command is a library fault, not bad
    # input: main lets it propagate instead of printing it with exit 2
    def broken(*args, **kwargs):
        raise ValueError("shapes (3,) and (4,) not aligned")

    monkeypatch.setattr(cli, "find_ordering_prime", broken)
    with pytest.raises(ValueError, match="not aligned"):
        main(["find-prime", "--intervals", sqrt_interval_file, "--prime-limit", "100"])
    assert "input error" not in capsys.readouterr().err


def test_precision_bits_apply_to_one_call_only(monkeypatch, capsys, sqrt_interval_file):
    # the flag is a parse parameter: it reaches the generators of its own
    # call and touches neither mpmath's context nor the next call
    seen = []
    real = cli.find_ordering_prime

    def spy(a, b, *args, **kwargs):
        seen.append({g.bits for e in (*a, *b) for g in e.irr})
        return real(a, b, *args, **kwargs)

    monkeypatch.setattr(cli, "find_ordering_prime", spy)
    prec = mpmath.mp.prec
    argv = ["find-prime", "--intervals", sqrt_interval_file, "--prime-limit", "100"]
    assert main(argv) == 0
    default = capsys.readouterr().out
    assert main(["--precision-bits", "96", *argv]) == 0
    capsys.readouterr()
    assert mpmath.mp.prec == prec
    assert main(argv) == 0
    assert capsys.readouterr().out == default
    assert seen == [{200}, {96}, {200}]


def test_construct_hierarchy_negative_prime_index(capsys, sqrt_interval_file):
    code = main([
        "construct-hierarchy", "--intervals", sqrt_interval_file,
        "--prime-limit", "100", "--prime-index", "-1",
    ])
    assert code == 2
    assert "prime_index" in capsys.readouterr().err


def test_construct_hierarchy_l3(tmp_path, capsys, spec_l3, plan_l3):
    # 21^6 relation-probe points are over the scan budget; the lattice
    # certificate settles the probe, and the CLI builds the library plan
    iv = tmp_path / "s.json"
    iv.write_text(json.dumps(spec_l3))
    out = tmp_path / "plan.json"
    code = main([
        "construct-hierarchy", "--intervals", str(iv), "--prime-limit", "100000",
        "--out", str(out),
    ])
    text = capsys.readouterr().out
    assert code == 0
    report = json.loads(text)
    got = dict(report["result"])
    want = json.loads(json.dumps(plan_l3.to_json()))
    assert got.pop("witness")["N"] == 1933
    want.pop("witness")
    assert got == want
    # the streamed writer emits what one-shot json.dumps would
    assert text == json.dumps(report, sort_keys=True, indent=2) + "\n"
    assert out.read_text() == json.dumps(report["result"], sort_keys=True, indent=2) + "\n"


def test_streamed_dump_matches_json_dumps(plan_l3):
    payload = {"plan": plan_l3.to_json(), "odd": Fraction(1, 3)}
    first, second = io.StringIO(), io.StringIO()
    cli._dump(payload, first, second)
    want = json.dumps(payload, sort_keys=True, indent=2, default=str) + "\n"
    assert first.getvalue() == second.getvalue() == want


def _interval_spec(left: dict, right: dict) -> dict:
    return {"intervals": [{"left": left, "right": right}]}


def _input_error(capsys, argv) -> None:
    """The call exits 2 with an input error and no traceback."""
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert "input error:" in err and "Traceback" not in err


def _malformed_argv(kind: str, tmp_path) -> list:
    lattice = rs.integer_lattice().to_json()
    unit = IntervalSet.unit().to_json()
    files = {
        "interval_rat": _interval_spec(
            {"rat": "1/0", "irr": None}, {"rat": "1/2", "irr": None}
        ),
        "spectrum_scale": dict(lattice, scale="1/0"),
        "unit": unit,
        "lattice": lattice,
    }
    for name, obj in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
    path = lambda name: str(tmp_path / f"{name}.json")
    return {
        "find-prime rat": ["find-prime", "--intervals", path("interval_rat"), "--prime-limit", "10"],
        "bounds scale": ["bounds", "--spectrum", path("spectrum_scale"), "--set", path("unit"), "--schedule", "8,16"],
        "bounds schedule": ["bounds", "--spectrum", path("lattice"), "--set", path("unit"), "--schedule", "8,1/0"],
        "equidist values": ["equidist", "--values", "1/0", "--prime-limit", "100"],
    }[kind]


@pytest.mark.parametrize(
    "kind", ["find-prime rat", "bounds scale", "bounds schedule", "equidist values"]
)
def test_malformed_rational_is_input_error(kind, tmp_path, capsys):
    _input_error(capsys, _malformed_argv(kind, tmp_path))


@pytest.mark.parametrize("irr", ["nan", "inf", "-inf"])
def test_nonfinite_endpoint_is_input_error(irr, tmp_path, capsys):
    # a NaN endpoint once compared "equal" to its partner, so the interval
    # was dropped as empty and the valid one was scanned alone
    valid = IntervalSet([(Endpoint(0, hp_sqrt(2)) - 1, Endpoint(0, hp_sqrt(3)) - 1)])
    spec = valid.to_json()
    spec["intervals"].insert(0, {"left": {"rat": "1/10", "irr": irr}, "right": {"rat": "1/5"}})
    path = tmp_path / "nonfinite.json"
    path.write_text(json.dumps(spec))
    _input_error(capsys, ["find-prime", "--intervals", str(path), "--prime-limit", "100"])


def test_negative_radicand_is_input_error(capsys):
    _input_error(capsys, ["equidist", "--values", "sqrt(-1)", "--prime-limit", "100"])


@pytest.mark.parametrize("beta", ["0", "-0.5"])
def test_avdonin_beta_outside_unit_interval_is_input_error(beta, tmp_path, capsys):
    spec = {
        "scale": "1/1",
        "terms": [{"modulus": 1, "offset": 0, "filter": {"avdonin": {"beta": beta, "phase": 0}}}],
    }
    spec_path = tmp_path / "lam.json"
    set_path = tmp_path / "s.json"
    spec_path.write_text(json.dumps(spec))
    set_path.write_text(json.dumps(IntervalSet.unit().to_json()))
    _input_error(capsys, [
        "bounds", "--spectrum", str(spec_path), "--set", str(set_path), "--schedule", "8,16",
    ])


def _lambda_ell_json(levels, owners, L: int) -> list[dict]:
    """lambda_1..lambda_L as JSON by the owner scan: the union of the levels
    interval l owns, each shifted by its level index n, with sorted terms."""
    return [
        rs.Spectrum().union(*(
            levels[n - 1].shift(n) for n, owner in enumerate(owners, start=1) if owner == ell
        )).sorted_terms().to_json()
        for ell in range(1, L + 1)
    ]


def _two_full_cells(p: dict) -> dict:
    """K_ell = [2] with the K, level owners, level table and lambda_ell it
    implies, all consistent with each other but not with N, a and b."""
    levels = p["level_spectra"]
    table = [levels[0], levels[0], levels[1], levels[2], levels[2]]
    owners = [1, 1, 1, None, None]
    return {
        "K_ell": [2], "K": 2, "level_interval": owners, "level_spectra": table,
        "lambda_ell": _lambda_ell_json([rs.Spectrum.from_json(s) for s in table], owners, 1),
    }


def _half_beta_boundary(p: dict) -> dict:
    """The boundary level replaced by the Avdonin spectrum of beta = 1/2
    scaled by N = 5, with lambda_ell recomputed to match: every derived
    field agrees, only the level's density is not its boundary piece's."""
    levels = [rs.Spectrum.from_json(s) for s in p["level_spectra"]]
    levels[p["K"]] = rs.avdonin_interval_spectrum(Fraction(1, 2)).scale_integers(5)
    return {
        "level_spectra": [s.to_json() for s in levels],
        "lambda_ell": _lambda_ell_json(levels, p["level_interval"], 1),
    }


def _offset_two_boundary(p: dict) -> dict:
    """The boundary term's offset moved from 0 to 2, with lambda_ell
    recomputed to match: the density is unchanged, but the level is no
    longer a subset of 5Z."""
    levels = [rs.Spectrum.from_json(s) for s in p["level_spectra"]]
    (t,) = levels[p["K"]].terms
    levels[p["K"]] = rs.Spectrum(Fraction(1), (rs.CosetTerm(t.modulus, 2, t.filter),))
    return {
        "level_spectra": [s.to_json() for s in levels],
        "lambda_ell": _lambda_ell_json(levels, p["level_interval"], 1),
    }


# Edits of the L=1 plan at N=5 (K_ell = [1]) that disagree with the plan its
# a, b, witness and boundary level derive, each with the field named: the
# first six once exited 1 with an IndexError or ZeroDivisionError
# traceback, the rest were accepted.
_BAD_PLANS = {
    "short level_spectra": ("level_spectra", lambda p: {"level_spectra": p["level_spectra"][:1]}),
    "no K_ell": ("K_ell", lambda p: {"K_ell": []}),
    "no b": ("b", lambda p: {"b": []}),
    "no lambda_ell": ("lambda_ell", lambda p: {"lambda_ell": []}),
    "K over N": ("K", lambda p: {"K": 7}),
    "N zero": ("N", lambda p: {"N": 0}),
    "no a_sets": ("a_sets", lambda p: {"a_sets": []}),
    "wrong level_interval": ("level_interval", lambda p: {"level_interval": [None, 1, 1, None, None]}),
    "full cell 10Z": ("level_spectra", lambda p: {
        "level_spectra": [rs.integer_lattice(10).to_json()] + p["level_spectra"][1:]
    }),
    "no interval": ("a", lambda p: {"a": [], "b": [], "K_ell": [], "lambda_ell": []}),
    "K_ell zero": ("K_ell", lambda p: {"K_ell": [0], "K": 0}),
    "late level": ("level_spectra", lambda p: {
        "level_spectra": p["level_spectra"][:4] + [rs.integer_lattice(5).to_json()]
    }),
    "wrong set": ("set", lambda p: {"set": IntervalSet.unit().to_json()}),
    "wrong lambda_ell": ("lambda_ell", lambda p: {"lambda_ell": [rs.integer_lattice(5).to_json()]}),
    "edited a_sets": ("a_sets", lambda p: {"a_sets": p["a_sets"][:1] * 2 + p["a_sets"][2:]}),
    "witness N": ("witness", lambda p: {"witness": dict(p["witness"], N=7)}),
    "edited ordering_witness": ("ordering_witness", lambda p: {
        "witness": dict(p["witness"], ordering_witness=p["witness"]["ordering_witness"][::-1])
    }),
    "K_ell 2 with its table": ("K_ell", _two_full_cells),
    "N 10**9": ("N", lambda p: {"N": 10**9}),
    "boundary beta half": ("level_spectra", _half_beta_boundary),
    "boundary offset 2": ("level_spectra", _offset_two_boundary),
    "swapped intervals": ("a", lambda p: {"a": p["b"], "b": p["a"]}),
}


def test_probe_folding_rejects_a_level_outside_nz(tmp_path, capsys, plan_l1):
    obj = dict(plan_l1.to_json())
    obj.update(_offset_two_boundary(obj))
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(obj))
    _input_error(capsys, ["probe-folding", "--plan", str(path), "--trials", "3"])
    levels = list(plan_l1.level_spectra)
    levels[plan_l1.K] = rs.Spectrum.from_json(obj["level_spectra"][plan_l1.K])
    with pytest.raises(rs.InvalidInput, match="not contained in 5Z"):
        rs.folding_probe(5, plan_l1.S, levels, [1, 2, 3, 4, 5], 3, 42)


def _plan_file(tmp_path, plan) -> str:
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan.to_json()))
    return str(path)


def test_probe_folding_rejects_a_repeated_shift(tmp_path, capsys, plan_l1):
    _input_error(capsys, [
        "probe-folding", "--plan", _plan_file(tmp_path, plan_l1), "--permutation", "1,1,2,3,4",
    ])


@pytest.mark.parametrize("argv, message", [
    (["probe-folding", "--permutation", ""], "input error: --permutation: '' is not an integer\n"),
    (["probe-folding", "--permutation", "a,b"], "input error: --permutation: 'a' is not an integer\n"),
    (["equidist", "--values", "sqrt(x)", "--prime-limit", "100"],
     "input error: --values: 'x' is not an integer\n"),
    (["equidist", "--values", "abc", "--prime-limit", "100"],
     "input error: --values: irrational part 'abc' is not a real number\n"),
])
def test_malformed_token_names_its_flag(argv, message, tmp_path, capsys, plan_l1):
    # an empty --permutation once ran the identity shifts and exited 0, and
    # the tokens int() refuses failed with its bare message
    if argv[0] == "probe-folding":
        argv = [*argv, "--plan", _plan_file(tmp_path, plan_l1), "--trials", "3"]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == message


def test_probe_folding_negative_seed_is_refused_before_any_work(
    tmp_path, capsys, monkeypatch, plan_l1
):
    # numpy once refused a negative seed only at the first draw, after the
    # fold pattern and the coefficient kernel were built
    import rieszspectra.verify as verify_mod

    calls = []

    def spy(name):
        real = getattr(verify_mod, name)
        monkeypatch.setattr(verify_mod, name, lambda *a, **k: calls.append(name) or real(*a, **k))

    spy("_shift_levels")
    spy("fold_pattern")
    spy("_draw_test_function")
    argv = ["probe-folding", "--plan", _plan_file(tmp_path, plan_l1), "--trials", "1"]
    code = main([*argv, "--seed", "-1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "input error: seed must be a non-negative integer\n"
    assert calls == []
    # the spies see both calls of a valid seed
    assert main([*argv, "--seed", "0"]) == 0
    capsys.readouterr()
    assert set(calls) == {"_shift_levels", "fold_pattern", "_draw_test_function"}


def test_probe_folding_refuses_an_oversized_kernel_before_any_draw(
    tmp_path, capsys, monkeypatch, plan_l1
):
    # the kernel of n cells by 4097 frequencies and the N x N folding weights
    # are sized from the fold pattern, before any cell is built; the L=4
    # plan's would take 42.9 GB and 422.6 GB
    import rieszspectra.verify as verify_mod

    n = sum(len(ks) for _, _, ks in rs.fold_pattern(plan_l1.N, plan_l1.S))
    nbytes = n * 4097 * 16
    drawn = []
    draw = verify_mod._draw_test_function
    monkeypatch.setattr(verify_mod, "_draw_test_function", lambda *a: drawn.append(a) or draw(*a))
    monkeypatch.setattr(verify_mod, "DENSE_GRAM_BYTES", nbytes - 1)
    argv = ["probe-folding", "--plan", _plan_file(tmp_path, plan_l1), "--trials", "1"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and drawn == []
    assert captured.err == (
        f"resource limit: folding probe needs a {n} x 4097 coefficient kernel of {nbytes} "
        f"bytes and 5 x 5 folding weights of 400 bytes; each must fit the limit of {nbytes - 1}\n"
    )
    monkeypatch.setattr(verify_mod, "DENSE_GRAM_BYTES", nbytes)
    assert main(argv) == 0 and len(drawn) == 1
    # the weights alone: a one-frequency kernel takes n * 16 < 400 bytes
    monkeypatch.setattr(verify_mod, "DENSE_GRAM_BYTES", 399)
    with pytest.raises(rs.ResourceLimit, match="5 x 5 folding weights of 400 bytes"):
        rs.folding_probe(5, plan_l1.S, plan_l1.level_spectra, [1, 2, 3, 4, 5], 1, 0, trunc_window=0)
    assert len(drawn) == 1


def test_probe_folding_permuted_report_is_unchanged(tmp_path, capsys, plan_l1):
    # the report of the permuted probe on the L=1 plan, frozen from the
    # probe that shifted each level in its own mask loop
    path = _plan_file(tmp_path, plan_l1)
    argv = ["probe-folding", "--plan", path, "--trials", "5", "--permutation", "3,1,4,2,5"]
    code = main(argv)
    want = {
        "command": "probe-folding",
        "config": {
            "command": "probe-folding", "permutation": "3,1,4,2,5", "plan": path,
            "seed": 42, "trials": 5,
        },
        "result": {
            "empirical_c": 0.24917699661168805,
            "per_level_alpha": [0.19960114490730907, 0.12402696648522066],
            "sigma_min_used": 0.9999999999999999,
            "tail_fraction_max": 0.0018289152645499795,
            "trials": 5,
        },
        "schema": "riesz-spectra/1",
        "status": "PASS",
        "version": "0.1.0",
    }
    assert code == 0
    assert capsys.readouterr().out == json.dumps(want, sort_keys=True, indent=2) + "\n"


def test_probe_warning_is_one_line_without_source(tmp_path, capsys, monkeypatch, plan_l1):
    # a truncation warning prints as one "warning:" line, with no source
    # path or line, and leaves the report as it is
    import rieszspectra.verify as verify_mod

    argv = ["probe-folding", "--plan", _plan_file(tmp_path, plan_l1), "--trials", "3"]
    assert main(argv) == 0
    quiet = capsys.readouterr()
    assert quiet.err == ""
    monkeypatch.setattr(verify_mod, "TAIL_THRESHOLD", 0)
    assert main(argv) == 0
    loud = capsys.readouterr()
    assert loud.out == quiet.out
    lines = loud.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("warning: coefficient tail") and ".py" not in lines[0]


@pytest.mark.parametrize("schedule", ["0,2", "-1,2"])
def test_nonpositive_schedule_window_is_input_error(schedule, tmp_path, capsys):
    # Z on [0, 1): a zero window once ended in numpy warnings and an SVD
    # failure, a negative one in a FAIL report on the window [--1.0, -1.0]
    spec_path, set_path = tmp_path / "lattice.json", tmp_path / "unit.json"
    spec_path.write_text(json.dumps(rs.integer_lattice().to_json()))
    set_path.write_text(json.dumps(IntervalSet.unit().to_json()))
    argv = ["bounds", "--spectrum", str(spec_path), "--set", str(set_path), f"--schedule={schedule}"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "input error: schedule" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "kind, field",
    [
        ("spec", "right"),
        ("plan", "K"),
        ("term", "modulus"),
        ("list", "intervals"),
        ("spec array", "intervals"),
        ("plan array", "a"),
        ("term integer", "modulus"),
        *((f"plan {name}", field) for name, (field, _) in _BAD_PLANS.items()),
    ],
)
def test_missing_field_is_input_error(kind, field, tmp_path, capsys, plan_l1):
    # the first seven once exited 1 with a KeyError or TypeError traceback;
    # "spec array", "plan array" and "term integer" hold a field of the
    # wrong JSON type, and the _BAD_PLANS plans disagree with their level table
    unit = tmp_path / "unit.json"
    unit.write_text(json.dumps(IntervalSet.unit().to_json()))
    path = tmp_path / f"{kind}.json"
    if kind.startswith("spec"):
        missing_right = [{"left": {"rat": "1/4"}}]
        obj = {"intervals": 5 if kind == "spec array" else missing_right}
        argv = ["find-prime", "--intervals", str(path), "--prime-limit", "10"]
    elif kind.startswith("plan"):
        obj = dict(plan_l1.to_json())
        if kind == "plan array":
            obj["a"] = 5
        elif kind == "plan":
            del obj["K"]
        else:
            obj.update(_BAD_PLANS[kind[len("plan "):]][1](obj))
        argv = ["verify", "--plan", str(path), "--schedule", "8,16"]
    elif kind == "list":  # a JSON list where an object belongs
        obj = [{"left": {"rat": "1/4"}, "right": {"rat": "1/2"}}]
        argv = ["find-prime", "--intervals", str(path), "--prime-limit", "10"]
    else:
        term = {"modulus": [1], "offset": 0} if kind == "term integer" else {"offset": 0}
        obj = {"scale": "1/1", "terms": [dict(term, filter="all")]}
        argv = ["bounds", "--spectrum", str(path), "--set", str(unit), "--schedule", "8,16"]
    path.write_text(json.dumps(obj))
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert "input error:" in err and "Traceback" not in err
    assert str(path) in err and f"field {field!r}" in err


@pytest.mark.parametrize("field", ["N", "witness"])
def test_plan_with_huge_n_allocates_nothing_of_size_n(field, tmp_path, capsys, plan_l1):
    # N is read from the witness and must match the level_spectra array
    # before any O(N) step, so a plan claiming N = 10**9 in either place is
    # rejected without an allocation of size N
    obj = plan_l1.to_json()
    edit = {"N": 10**9} if field == "N" else {"witness": dict(obj["witness"], N=10**9)}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(dict(obj, **edit)))
    tracemalloc.start()
    try:
        code = main(["verify", "--plan", str(path), "--schedule", "8,16"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and f"field {field!r}" in capsys.readouterr().err
    assert peak < 2**22  # an array of 10**9 entries would take 8 GB


def test_swapped_lambda_ell_is_input_error(tmp_path, capsys, plan_l2):
    # this plan once loaded, and verify exited 1 with "omega union disagrees
    # with the per-interval union"
    obj = plan_l2.to_json()
    obj["lambda_ell"] = obj["lambda_ell"][::-1]
    path = tmp_path / "swapped.json"
    path.write_text(json.dumps(obj))
    code = main(["verify", "--plan", str(path), "--all-subsets", "--schedule", "16,32"])
    err = capsys.readouterr().err
    assert code == 2
    assert "input error:" in err and "Traceback" not in err
    assert str(path) in err and "field 'lambda_ell'" in err


def _listed_spec(pairs) -> dict:
    """An interval spec listing the pairs as given, unlike IntervalSet.to_json
    of the normalized set."""
    return {
        "intervals": [
            {"left": Endpoint.coerce(x).to_json(), "right": Endpoint.coerce(y).to_json()}
            for x, y in pairs
        ]
    }


@pytest.mark.parametrize("command", ["construct-hierarchy", "find-prime"])
@pytest.mark.parametrize("kind", ["touching", "overlapping", "empty"])
def test_merged_intervals_are_input_error(kind, command, tmp_path, capsys):
    # each spec normalizes to the one interval [sqrt2 - 1, sqrt3 - 1), and
    # construct-hierarchy once built its L=1 plan with exit 0 and PASS
    a = Endpoint(0, hp_sqrt(2)) - 1
    b = Endpoint(0, hp_sqrt(3)) - 1
    pairs = {
        "touching": [(a, Fraction(3, 5)), (Fraction(3, 5), b)],
        "overlapping": [(a, Fraction(13, 20)), (Fraction(3, 5), b)],
        "empty": [(a, b), (Fraction(4, 5), Fraction(4, 5))],
    }[kind]
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(_listed_spec(pairs)))
    code = main([command, "--intervals", str(path), "--prime-limit", "100"])
    err = capsys.readouterr().err
    assert code == 2
    assert "input error:" in err and "Traceback" not in err
    assert str(path) in err and "field 'intervals'" in err


def test_complement_takes_the_union_of_listed_intervals(tmp_path, capsys):
    # complement depends only on the union, so touching intervals still merge
    reports = []
    for name, pairs in (("merged", [(1, 2)]), ("touching", [(1, Fraction(3, 2)), (Fraction(3, 2), 2)])):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(_listed_spec(pairs)))
        code, report = _run(capsys, ["complement", "--N", "2", "--intervals", str(path)])
        assert code == 0
        reports.append(report["result"])
    assert reports[0] == reports[1]


def test_rational_beta_survives_complement_then_bounds(tmp_path, capsys):
    # complement on [1, 5/3) has the rational level beta = 2/3, whose
    # rounding ties are real; as a decimal it made every tie ambiguous
    v = tmp_path / "v.json"
    lam = tmp_path / "lambda.json"
    v.write_text(json.dumps(IntervalSet([(1, Fraction(5, 3))]).to_json()))
    assert main(["complement", "--N", "2", "--intervals", str(v), "--out", str(lam)]) == 0
    capsys.readouterr()
    terms = json.loads(lam.read_text())["lambda_prime"]["terms"]
    assert [t["filter"]["avdonin"]["beta"] for t in terms if t["filter"] != "all"] == ["2/3"]
    code, report = _run(capsys, [
        "bounds", "--spectrum", str(lam), "--set", str(v), "--schedule", "16,32",
    ])
    assert code == 0 and report["status"] == "PASS"


@pytest.mark.parametrize(
    "kind, named",
    [
        ("endpoint", "interval field 'left'"),
        ("term", "spectrum term"),
        ("terms entry", "spectrum term"),
        ("terms", "'terms'"),
    ],
)
def test_non_object_field_is_input_error(kind, named, tmp_path, capsys):
    # each once exited 1 with an AttributeError or TypeError traceback
    unit = tmp_path / "unit.json"
    unit.write_text(json.dumps(IntervalSet.unit().to_json()))
    path = tmp_path / "artifact.json"
    if kind == "endpoint":
        obj = {"intervals": [{"left": "1/4", "right": "1/2"}]}
        argv = ["find-prime", "--intervals", str(path), "--prime-limit", "100"]
    else:
        terms = {"term": ["1Z+0"], "terms entry": [[1, 0]], "terms": 7}[kind]
        obj = {"scale": "1/1", "terms": terms}
        argv = ["bounds", "--spectrum", str(path), "--set", str(unit), "--schedule", "8,16"]
    path.write_text(json.dumps(obj))
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert "input error:" in err and "Traceback" not in err
    assert str(path) in err and named in err


def test_plan_read_at_other_precision_names_precision_bits(tmp_path, capsys, plan_l2):
    # the error once named only the derived field 'a_sets'
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(_listed_spec(zip(plan_l2.a, plan_l2.b))))
    plan = str(tmp_path / "plan.json")
    assert main(["--precision-bits", "96", "construct-hierarchy", "--intervals", str(spec),
                 "--prime-limit", "100", "--out", plan]) == 0
    capsys.readouterr()
    probe = ["probe-folding", "--plan", plan, "--trials", "2"]
    code = main(["--precision-bits", "200", *probe])
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err
    assert "plan field 'a_sets' differs" in err
    assert "do not print back at 200 bits, so it was written at other --precision-bits" in err
    assert main(["--precision-bits", "96", *probe]) == 0


@pytest.mark.parametrize("kind", ["NotPrime", "IndependenceSuspect"])
def test_input_error_subclass_exits_2(kind, tmp_path, capsys):
    # the CLI's exit-2 clause names InvalidInput, not each subclass
    if kind == "NotPrime":
        argv = ["check-chebotarev", "--N", "8", "--max-size", "2"]
    else:
        path = tmp_path / "rational.json"
        path.write_text(json.dumps(IntervalSet([(Fraction(1, 4), Fraction(3, 4))]).to_json()))
        argv = ["construct-hierarchy", "--intervals", str(path), "--prime-limit", "100"]
    assert issubclass(getattr(rs, kind), rs.InvalidInput)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("input error:") and "Traceback" not in captured.err


# The hand-written to_json bodies the result dataclasses had before their
# reports became their fields; each report must serialize to the same bytes.
# -- exits the other tests do not reach ---------------------------------------

def test_verify_out_tees_the_report(tmp_path, capsys, plan_l1):
    # without an artifact, --out holds the same bytes as stdout
    out = tmp_path / "r.json"
    code = main(["verify", "--plan", _plan_file(tmp_path, plan_l1), "--schedule", "32,64",
                 "--out", str(out)])
    stdout = capsys.readouterr().out
    assert code == 0 and stdout and out.read_text() == stdout


def test_bounds_duplicate_frequency_is_a_fail_report(tmp_path, capsys):
    # 2Z u 4Z repeats every multiple of 4: a package error, so exit 1 with a
    # FAIL report that carries the error
    spec, half = tmp_path / "dup.json", tmp_path / "half.json"
    spec.write_text(json.dumps(rs.integer_lattice(2).union(rs.integer_lattice(4)).to_json()))
    half.write_text(json.dumps(IntervalSet([(0, Fraction(1, 2))]).to_json()))
    code = main(["bounds", "--spectrum", str(spec), "--set", str(half), "--schedule", "8,16"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "failure: duplicate frequency -16 inside window\n"
    report = json.loads(captured.out)
    assert report["status"] == "FAIL"
    assert report["result"] == {"error": "duplicate frequency -16 inside window"}


@pytest.mark.parametrize("N", [2, 3, 7, 11])
def test_plan_at_a_prime_without_its_hierarchy_is_input_error(N, tmp_path, capsys, plan_l1):
    # plan_l1's interval at a prime other than 5, its levels padded to N
    obj = plan_l1.to_json()
    levels = obj["level_spectra"]
    obj.update(witness=dict(obj["witness"], N=N), level_spectra=(levels * N)[:N])
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(obj))
    code = main(["verify", "--plan", str(path), "--schedule", "8,16"])
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err
    assert f"{path}: plan field 'N' gives no hierarchy" in err


def test_plan_claiming_fewer_levels_than_its_pattern_is_input_error(tmp_path, capsys):
    # [1/50, 23/50) u [1/2, 49/50) builds at N = 13; at N = 5 its K = 4 full
    # cells and L = 2 boundary pieces need 6 levels
    a, b = [Fraction(1, 50), Fraction(1, 2)], [Fraction(23, 50), Fraction(49, 50)]
    obj = rs.construct_hierarchy_with_prime(a, b, 13).to_json()
    obj.update(witness=dict(obj["witness"], N=5), level_spectra=obj["level_spectra"][:5])
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(obj))
    code = main(["verify", "--plan", str(path), "--schedule", "8,16"])
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err
    assert (f"{path}: plan field 'N' gives no hierarchy for 'a' and 'b': "
            "level pattern exceeds N levels") in err


def test_verify_reads_a_construct_report_envelope(tmp_path, capsys, sqrt_interval_file):
    # a plan file may be the bare --out artifact or the whole stdout report
    artifact, envelope = tmp_path / "plan.json", tmp_path / "report.json"
    code = main(["construct-hierarchy", "--intervals", sqrt_interval_file,
                 "--prime-limit", "100", "--out", str(artifact)])
    envelope.write_text(capsys.readouterr().out)
    assert code == 0
    reports = []
    for path in (artifact, envelope):
        assert main(["verify", "--plan", str(path), "--schedule", "32,64", "--all-subsets"]) == 0
        reports.append(capsys.readouterr().out.replace(str(path), "PLAN"))
    assert reports[0] == reports[1]


def test_rational_l3_spec_is_a_relation_past_the_scan_budget(tmp_path, capsys):
    # the shell scan of its 21^6 points is over budget; the relation
    # 1 = 4/11 + 7/11 is a row of the reduced lattice basis
    path = tmp_path / "rational3.json"
    path.write_text(json.dumps(IntervalSet([
        (Fraction(1, 11), Fraction(2, 11) + Fraction(1, 1000)),
        (Fraction(4, 11), Fraction(5, 11)),
        (Fraction(7, 11), Fraction(8, 11)),
    ]).to_json()))
    code = main(["construct-hierarchy", "--intervals", str(path), "--prime-limit", "100"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "input error: rational relation detected: (-1, 0, 1, 1, 0, 0, 0)\n"


def test_complement_over_the_n_limit_exits_3(tmp_path, capsys):
    path = tmp_path / "one.json"
    path.write_text(json.dumps(IntervalSet([(1, 2)]).to_json()))
    N = rs.assembly.COMPLEMENT_N_LIMIT + 1
    code = main(["complement", "--N", str(N), "--intervals", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith(f"resource limit: N={N} exceeds the complement limit")


def test_complement_unsupported_level_exits_1(tmp_path, capsys):
    # level 2 at N = 2 is two pieces of the 1/4099 grid, finer than the
    # 1/4096 limit, with rational endpoints that no inner plan takes
    one = Endpoint(1)
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(IntervalSet([
        (one + Fraction(1, 4099), one + Fraction(2, 4099)),
        (one + Fraction(3, 4099), one + Fraction(5, 4099)),
    ]).to_json()))
    code = main(["complement", "--N", "2", "--intervals", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert "neither grid-aligned nor independent-constructible" in captured.err
    assert json.loads(captured.out)["status"] == "FAIL"


def test_probe_folding_without_trials_is_input_error(tmp_path, capsys, plan_l1):
    _input_error(capsys, ["probe-folding", "--plan", _plan_file(tmp_path, plan_l1),
                          "--trials", "0"])
    # a level whose density is not its set's measure: 5Z as the boundary level
    levels = list(plan_l1.level_spectra)
    levels[plan_l1.K] = rs.integer_lattice(5)
    with pytest.raises(rs.InvalidInput, match="does not match its set measure"):
        rs.folding_probe(5, plan_l1.S, levels, [1, 2, 3, 4, 5], 3, 42)


def test_construct_hierarchy_on_no_intervals_is_input_error(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"intervals": []}))
    code = main(["construct-hierarchy", "--intervals", str(path), "--prime-limit", "10"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "input error: interval specification is empty\n"


def _prime_search_json(r):
    return {
        "N": r.N,
        "candidates_scanned": r.candidates_scanned,
        "ordering_witness": list(r.ordering_witness),
    }


def _minor_spec_json(s):
    return {"N": s.N, "rows": list(s.rows), "cols": list(s.cols)}


def _chebotarev_json(r):
    return {
        "worst_spec": _minor_spec_json(r.worst_spec),
        "worst_sigma": r.worst_sigma,
        "specs_checked": r.specs_checked,
    }


def _gram_json(r):
    return {
        "window": r.window,
        "count": r.count,
        "lower_est": r.lower_est,
        "upper_est": r.upper_est,
        "history": [list(h) for h in r.history],
        "status": r.status,
        "last_drop": r.last_drop,
        "decay_slope": r.decay_slope,
    }


def _density_json(r):
    return {"rows": [list(row) for row in r.rows], "tolerance": r.tolerance, "passed": r.passed}


def _folding_json(r):
    return {
        "empirical_c": r.empirical_c,
        "per_level_alpha": list(r.per_level_alpha),
        "sigma_min_used": r.sigma_min_used,
        "trials": r.trials,
        "tail_fraction_max": r.tail_fraction_max,
    }


def _subset_json(p):
    return {
        "J": list(p.J),
        "K_J": p.K_J,
        "omega": [s.to_json() for s in p.omega],
        "shifts": list(p.shifts),
    }


def _verify_row(plan, J, schedule):
    """The density and Gram reports of verify's row for the sub-union J."""
    spec = rs.subset_spectrum(plan, J).union()
    S_J = IntervalSet((plan.a[ell - 1], plan.b[ell - 1]) for ell in J)
    windows = [schedule[-1] * m for m in (1, 2, 4)]
    return rs.density_check(spec, S_J, windows), rs.riesz_bounds_estimate(spec, S_J, schedule)


@pytest.mark.parametrize("plan_name, schedule", [
    ("plan_l1", "32,64"), ("plan_l1", "128,256"), ("plan_l2", "32,64"), ("plan_l2", "128,256"),
    ("plan_l3", "512,1024"),
])
def test_verify_rows_are_the_public_reports(plan_name, schedule, request, tmp_path, capsys):
    # verify sizes every sub-union before its first solve; each row must
    # still be density_check at T, 2T, 4T and riesz_bounds_estimate, exactly
    plan = request.getfixturevalue(plan_name)
    argv = ["verify", "--plan", _plan_file(tmp_path, plan), "--all-subsets", "--schedule", schedule]
    main(argv)
    rows = json.loads(capsys.readouterr().out)["result"]["subsets"]
    assert len(rows) == 2**plan.L - 1
    for row in rows:
        dens, gram = _verify_row(plan, row["J"], [Fraction(T) for T in schedule.split(",")])
        assert row["density"] == json.loads(json.dumps(dens.to_json()))
        assert row["gram"] == json.loads(json.dumps(gram.to_json()))


def _reports(plan_l1, plan_l2):
    """(report, its old to_json body) on real fixtures: verify rows passing
    and failing the trend (a one-window schedule has no last drop or
    slope), an L=1 probe, a Chebotarev check, a witness and a sub-union
    plan."""
    out = []
    for plan, J, schedule in ((plan_l1, [1], [128, 256]), (plan_l1, [1], [1, 2]),
                              (plan_l1, [1], [8]), (plan_l2, [1, 2], [128, 256]),
                              (plan_l2, [2], [128, 256])):
        dens, gram = _verify_row(plan, J, schedule)
        out += [(dens, _density_json), (gram, _gram_json)]
    probe = rs.folding_probe(5, plan_l1.S, plan_l1.level_spectra, [1, 2, 3, 4, 5], 3, 42)
    cheb = rs.chebotarev_check(7, 3)
    return out + [
        (probe, _folding_json),
        (cheb, _chebotarev_json),
        (cheb.worst_spec, _minor_spec_json),
        (plan_l2.witness, _prime_search_json),
        (rs.subset_spectrum(plan_l2, [1, 2]), _subset_json),
    ]


def test_result_reports_are_their_fields(plan_l1, plan_l2):
    reports = _reports(plan_l1, plan_l2)
    assert {type(r).__name__ for r, _ in reports} == {
        "DensityReport", "GramReport", "FoldingReport", "ChebotarevReport", "MinorSpec",
        "PrimeSearchResult", "SubsetPlan",
    }
    assert {r.status for r, _ in reports if type(r).__name__ == "GramReport"} == {
        "PASS", "FAIL_TREND",
    }
    assert any(r.to_json()["decay_slope"] is None for r, _ in reports if hasattr(r, "decay_slope"))
    for report, old in reports:
        assert "to_json" not in type(report).__dict__
        got = report.to_json()
        assert json.dumps(got) == json.dumps(old(report))
        assert list(got) == [f.name for f in dataclasses.fields(report)]

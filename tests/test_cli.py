"""CLI surface: exit codes, report schema, and replay determinism."""

import json
from fractions import Fraction

import pytest

import rieszspectra as rs
import rieszspectra.cli as cli
from rieszspectra.cli import main
from rieszspectra.intervals import Endpoint, IntervalSet
from rieszspectra.precision import hp_sqrt, precision_bits


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
    before = precision_bits()
    code = main([
        "--precision-bits", bits, "find-prime", "--intervals", sqrt_interval_file,
        "--prime-limit", "100",
    ])
    assert code == 2
    assert "at least 64 bits" in capsys.readouterr().err
    assert precision_bits() == before


def test_precision_bits_apply_to_one_call_only(monkeypatch, capsys, sqrt_interval_file):
    seen = []
    real = cli.find_ordering_prime

    def spy(*args, **kwargs):
        seen.append(precision_bits())
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "find_ordering_prime", spy)
    before = precision_bits()
    argv = ["find-prime", "--intervals", sqrt_interval_file, "--prime-limit", "100"]
    assert main(["--precision-bits", "96", *argv]) == 0
    assert main(argv) == 0
    capsys.readouterr()
    assert seen == [96, before]
    assert precision_bits() == before

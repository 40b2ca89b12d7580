import csv
import json
import subprocess
import sys

import pytest

from supergrr.cli import CSV_COLUMNS, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- vdim -------------------------------------------------------------------------


def test_vdim_psuper_example(capsys):
    code, out, _ = run_cli(
        capsys,
        "vdim", "--target", "psuper", "--r", "3", "--s", "0", "--d", "1",
        "--g", "0", "--ns", "0", "--rr", "0",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "4 - 2*P"
    assert lines[1] == "consistency: True"
    payload = json.loads("\n".join(lines[2:]))
    assert payload["closed"] == {"body": "4", "soul": "-2"}
    assert payload["consistent"] is True


def test_vdim_second_example(capsys):
    code, out, _ = run_cli(
        capsys, "vdim", "--target", "psuper", "--r", "1", "--s", "1", "--d", "1", "--g", "0"
    )
    assert code == 0
    assert out.splitlines()[0] == "1 - 2*P"


def test_vdim_point_target(capsys):
    code, out, _ = run_cli(capsys, "vdim", "--target", "point", "--g", "2")
    assert code == 0
    assert out.splitlines()[0] == "3 - 2*P"


def test_vdim_custom_target(capsys):
    code, out, _ = run_cli(
        capsys,
        "vdim", "--target", "custom", "--r", "2", "--s", "1",
        "--tau", "3", "--phi-int", "-1", "--g", "1", "--ns", "1",
    )
    assert code == 0
    payload = json.loads("\n".join(out.splitlines()[2:]))
    assert payload["consistent"] is True


@pytest.mark.parametrize(
    "flag", ["--tau=1/0", "--phi-int=1/0", "--tau=0.1", "--phi-int=1e3"], ids=str
)
def test_vdim_rejects_inexact_degree_flags(capsys, flag):
    code, out, err = run_cli(capsys, "vdim", "--target", "custom", "--r", "2", "--s", "1", flag)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: argument {flag.partition('=')[0]}: ")
    assert err.count("\n") == 1


def test_vdim_reads_fraction_flags(capsys):
    code, out, _ = run_cli(
        capsys, "vdim", "--target", "custom", "--r", "2", "--s", "1",
        "--tau=7/2", "--phi-int=-1/3", "--json",
    )
    assert code == 0
    assert json.loads(out)["target"]["tau"] == "7/2"


def test_vdim_json_only(capsys):
    code, out, _ = run_cli(
        capsys, "vdim", "--target", "psuper", "--r", "3", "--d", "1", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["closed"] == {"body": "4", "soul": "-2"}


def test_vdim_json_round_trips_documented_schemas(capsys):
    from supergrr import ModuliParams, SuperScalar, TargetSpec, evaluate_request

    _, out, _ = run_cli(
        capsys,
        "vdim", "--target", "psuper", "--r", "2", "--s", "1", "--d", "3",
        "--g", "1", "--ns", "2", "--rr", "4", "--json",
    )
    payload = json.loads(out)
    params = ModuliParams.from_json(payload["params"])
    target = TargetSpec.from_json(payload["target"])
    closed = SuperScalar.from_json(payload["closed"])
    assembled = SuperScalar.from_json(payload["assembled"])
    assert params == ModuliParams(1, 2, 4)
    assert target == TargetSpec.psuper(2, 1, 3)
    assert closed == assembled
    # feeding the parsed request back reproduces the response
    replay = evaluate_request({"params": payload["params"], "target": payload["target"]})
    assert replay == payload


def test_vdim_odd_rr_reports_warning(capsys):
    code, out, _ = run_cli(
        capsys, "vdim", "--target", "psuper", "--r", "2", "--d", "0", "--rr", "1", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["assembled"] is None
    assert payload["consistent"] is None
    assert payload["warnings"]


def test_vdim_alternate_sign_regression(capsys):
    code, out, err = run_cli(
        capsys,
        "vdim", "--target", "psuper", "--r", "2", "--s", "1", "--d", "1",
        "--g", "0", "--use-paper-dimmod2-sign",
    )
    assert code == 2
    payload = json.loads("\n".join(out.splitlines()[2:]))
    assert payload["consistent"] is False
    assert payload["odd_part_reading"] == "s+2"
    # the counterexample names both readings
    assert "(s+2)" in err and "(s-2)" in err


def test_vdim_alternate_sign_consistent_at_genus_one(capsys):
    code, out, _ = run_cli(
        capsys,
        "vdim", "--target", "psuper", "--r", "2", "--s", "1", "--d", "1",
        "--g", "1", "--use-paper-dimmod2-sign", "--json",
    )
    assert code == 0
    assert json.loads(out)["consistent"] is True


def test_vdim_rejects_bad_flags(capsys):
    code, _, err = run_cli(capsys, "vdim", "--target", "psuper", "--r", "0", "--d", "1")
    assert code == 1
    assert "error" in err


# -- chi --------------------------------------------------------------------------


def test_chi_structure_sheaf(capsys):
    code, out, _ = run_cli(
        capsys, "chi", "--g", "2", "--rr", "0",
        "--bundle", '{"even_degs": [0], "odd_degs": []}',
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "-1"
    payload = json.loads("\n".join(lines[1:]))
    assert payload["chi"] == {"body": "-1", "soul": "0"}
    assert payload["match"] is True
    assert payload["deg_l"] == "1"


def test_chi_bundle_from_file(capsys, tmp_path):
    spec = tmp_path / "bundle.json"
    spec.write_text(json.dumps({"even_degs": [3], "odd_degs": [1]}), encoding="utf-8")
    code, out, _ = run_cli(capsys, "chi", "--g", "0", "--rr", "2", f"--bundle=@{spec}")
    assert code == 0
    assert json.loads("\n".join(out.splitlines()[1:]))["match"] is True


def test_chi_rejects_invalid_json(capsys):
    code, _, err = run_cli(capsys, "chi", "--g", "0", "--bundle", "{nope")
    assert code == 1
    assert "invalid bundle JSON" in err


def test_chi_rejects_odd_rr(capsys):
    code, _, err = run_cli(
        capsys, "chi", "--g", "0", "--rr", "1", "--bundle", '{"even_degs": [0]}'
    )
    assert code == 1
    assert "non-integral" in err


def test_chi_rejects_mismatched_model(capsys):
    bundle = json.dumps({"model": {"kind": "curve", "genus": 3}, "even_degs": [1]})
    code, _, err = run_cli(capsys, "chi", "--g", "0", "--bundle", bundle)
    assert code == 1


@pytest.mark.parametrize(
    "bundle",
    [
        '{"even_degs": "12"}',
        '{"even_degs": [0.1]}',
        '{"even_degs": [true]}',
        '{"even_degs": [null]}',
        '{"even_degs": ["1/0"]}',
    ],
    ids=["string-list", "float", "bool", "null", "zero-denominator"],
)
def test_chi_rejects_inexact_degrees(capsys, bundle):
    code, out, err = run_cli(capsys, "chi", "--g", "1", "--bundle", bundle)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "model",
    ['"curve"', '{"kind": "curve", "genus": 1.7}'],
    ids=["string-model", "float-genus"],
)
def test_chi_rejects_malformed_model(capsys, model):
    bundle = '{"model": %s, "even_degs": [1]}' % model
    code, out, err = run_cli(capsys, "chi", "--g", "1", "--bundle", bundle)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "model,key",
    [('{"kind": "curve"}', "genus"), ('{"kind": "projspace"}', "r")],
    ids=["curve-genus", "projspace-r"],
)
def test_chi_names_missing_model_key(capsys, model, key):
    bundle = '{"model": %s, "even_degs": [1]}' % model
    code, out, err = run_cli(capsys, "chi", "--g", "1", "--bundle", bundle)
    assert code == 1
    assert out == ""
    assert err == f"error: missing key '{key}' in model\n"


def test_chi_accepts_fraction_strings(capsys):
    code, out, _ = run_cli(
        capsys, "chi", "--g", "1", "--bundle", '{"even_degs": ["-3/4", 2], "odd_degs": ["1/2"]}'
    )
    assert code == 0
    assert json.loads("\n".join(out.splitlines()[1:]))["match"] is True


# -- grr-check ----------------------------------------------------------------------


def test_grr_check_documented_example(capsys):
    code, out, _ = run_cli(capsys, "grr-check", "--seed", "42", "--cases", "1000")
    assert code == 0
    assert "seed=42" in out
    assert "passed=1000" in out and "failed=0" in out


def test_grr_check_failure_reporting(capsys, monkeypatch):
    from supergrr import cli as cli_module
    from supergrr.suites import SuiteResult

    fake = SuiteResult("sgrr", 3, failures=["case 2: long counterexample text", "case 1: boom"])
    monkeypatch.setattr(cli_module, "run_sgrr_sweep", lambda seed, cases: fake)
    code, out, err = run_cli(capsys, "grr-check", "--seed", "0", "--cases", "3")
    assert code == 2
    assert "passed=1 failed=2" in out
    assert "minimal counterexample" in err
    assert "case 1: boom" in err  # the shortest failure is the one reported


def test_identities_failure_reporting(capsys, monkeypatch):
    from supergrr import cli as cli_module
    from supergrr.suites import SuiteResult

    fake = [SuiteResult("whitney", 2, failures=["case 0: mismatch"])]
    monkeypatch.setattr(cli_module, "run_identity_suites", lambda seed, cases: fake)
    code, out, err = run_cli(capsys, "identities")
    assert code == 2
    assert "whitney: 1/2 FAIL" in out
    assert "case 0: mismatch" in err


def test_grr_check_json(capsys):
    code, out, _ = run_cli(capsys, "grr-check", "--seed", "7", "--cases", "50", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"seed": 7, "cases": 50, "passed": 50, "failures": []}


def test_grr_check_deterministic(capsys):
    first = run_cli(capsys, "grr-check", "--seed", "3", "--cases", "25", "--json")
    second = run_cli(capsys, "grr-check", "--seed", "3", "--cases", "25", "--json")
    assert first == second


@pytest.mark.parametrize("subcommand", ["grr-check", "identities"])
@pytest.mark.parametrize("cases", ["0", "-5"])
def test_runs_that_check_nothing_are_refused(capsys, subcommand, cases):
    code, out, err = run_cli(capsys, subcommand, "--cases", cases)
    assert code == 1
    assert out == ""
    assert err == f"error: argument --cases: must be at least 1, got {cases}\n"


# -- identities -----------------------------------------------------------------------


def test_identities(capsys):
    code, out, _ = run_cli(capsys, "identities", "--seed", "7", "--cases", "40")
    assert code == 0
    assert "seed=7" in out
    for name in [
        "whitney",
        "tensor-character",
        "parity-rules",
        "todd-multiplicativity",
        "todd-sigma1-duality",
        "star-ring",
        "twisted-character",
    ]:
        assert f"{name}: 40/40 pass" in out


def test_identities_json(capsys):
    code, out, _ = run_cli(capsys, "identities", "--seed", "1", "--cases", "10", "--json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload["suites"]) == {
        "whitney",
        "tensor-character",
        "parity-rules",
        "todd-multiplicativity",
        "todd-sigma1-duality",
        "star-ring",
        "twisted-character",
    }
    assert all(s["passed"] == 10 for s in payload["suites"].values())


# -- table ------------------------------------------------------------------------------


def test_table_csv(capsys, tmp_path):
    path = tmp_path / "sweep.csv"
    code, out, _ = run_cli(
        capsys,
        "table", "--g", "0..1", "--ns", "0", "--rr", "0,2", "--r", "3",
        "--s", "0..1", "--d", "1", "--csv", str(path),
    )
    assert code == 0
    raw = path.read_bytes()
    assert b"\r" not in raw  # LF endings
    rows = list(csv.reader(raw.decode("utf-8").splitlines()))
    assert rows[0] == CSV_COLUMNS
    assert len(rows) == 1 + 2 * 2 * 2
    lookup = {tuple(r[:6]): r[6:] for r in rows[1:]}
    assert lookup[("0", "0", "0", "3", "0", "1")] == ["4", "-2", "4", "proper"]


def test_table_stdout(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--g", "1", "--ns", "0", "--rr", "0", "--r", "2", "--s", "2", "--d", "0"
    )
    assert code == 0
    rows = out.splitlines()
    assert rows[0] == ",".join(CSV_COLUMNS)
    assert len(rows) == 2
    assert rows[1].endswith("not_proper") is False  # d=0, rr=0 is proper
    assert rows[1].split(",")[-1] == "proper"


def test_table_rejects_bad_range(capsys):
    code, _, err = run_cli(capsys, "table", "--g", "zero")
    assert code == 1


# -- plumbing -----------------------------------------------------------------------------


def test_missing_subcommand(capsys):
    assert run_cli(capsys)[0] == 1


def test_unknown_subcommand(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 1


def test_module_invocation_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "supergrr", "vdim", "--target", "psuper",
         "--r", "3", "--d", "1", "--json"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["closed"] == {"body": "4", "soul": "-2"}

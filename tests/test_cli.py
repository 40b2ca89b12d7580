import csv
import hashlib
import json
import subprocess
import sys
import time
import warnings

import pytest

from supergrr.cli import CSV_COLUMNS, _parse_range, build_parser, main
from supergrr.modulidim import TARGET_KEYS


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


PSUPER_REFUSALS = [
    (["--r", "-1"], "projective superspace needs r >= 1"),
    (["--d", "-1"], "image degree must be nonnegative"),
    (["--r", "0", "--d", "1"], "projective superspace needs r >= 1"),
]


@pytest.mark.parametrize(
    "flags,message", PSUPER_REFUSALS, ids=[" ".join(flags) for flags, _ in PSUPER_REFUSALS]
)
def test_vdim_psuper_refusals_keep_their_text(capsys, flags, message):
    # the TargetSpec constructor makes these checks; vdim prints its text as one line
    code, out, err = run_cli(capsys, "vdim", "--target", "psuper", *flags)
    assert (code, out, err) == (1, "", f"error: {message}\n")


# every target key that some kind reads, in flag-check order (r, s, d, tau, phi_int)
TARGET_FLAG_KEYS = list(dict.fromkeys(key for keys in TARGET_KEYS.values() for key in keys))
UNREAD_FLAGS = [
    (kind, key) for kind, keys in TARGET_KEYS.items() for key in TARGET_FLAG_KEYS
    if key not in keys
]


def test_vdim_target_choices_are_the_target_kinds():
    vdim = build_parser()._subparsers._group_actions[0].choices["vdim"]
    (target,) = [action for action in vdim._actions if action.dest == "target"]
    assert target.choices == list(TARGET_KEYS)


@pytest.mark.parametrize("kind,key", UNREAD_FLAGS, ids=[f"{k}-{f}" for k, f in UNREAD_FLAGS])
def test_vdim_refuses_a_flag_its_target_kind_does_not_read(capsys, kind, key):
    flag = "--" + key.replace("_", "-")
    code, out, err = run_cli(capsys, "vdim", "--target", kind, flag, "1")
    assert (code, out) == (1, "")
    assert err == f"error: argument {flag}: --target {kind} does not read it\n"


def test_vdim_names_the_first_unread_flag_in_flag_order(capsys):
    # before unread flags were refused, this printed 3 - 3*P and dropped --tau and --phi-int
    argv = ["vdim", "--target", "psuper", "--r", "2", "--s", "1", "--d", "1"]
    code, out, err = run_cli(capsys, *argv, "--phi-int", "5", "--tau", "99")
    assert (code, out, err) == (1, "", "error: argument --tau: --target psuper does not read it\n")
    code, out, err = run_cli(capsys, "vdim", "--target", "point", "--phi-int", "1", "--r", "4")
    assert (code, out, err) == (1, "", "error: argument --r: --target point does not read it\n")


# stdout sha256 of `vdim --target KIND --g 1 --ns 1`, captured before unread flags were refused
VDIM_KIND_DIGESTS = {
    "psuper": "8be79d620746764bf1acbd9f0b0c606cc2e35042aaa514fa5973bf1e47051679",
    "custom": "c51da729db224f9eeeb375b5192af664413e8d9f9a1c049516d330519076512c",
    "point": "7b35fc1ba5a75caf1799b0bbf88efbae3ebe15876377300bd131e1d33089a473",
}
DOCUMENTED_FLAG_DEFAULTS = {"r": "1", "s": "0", "d": "0", "tau": "0", "phi_int": "0"}


@pytest.mark.parametrize("kind", list(VDIM_KIND_DIGESTS))
def test_vdim_own_flags_left_out_or_given_keep_their_bytes(capsys, kind):
    own = [
        ["--" + key.replace("_", "-"), DOCUMENTED_FLAG_DEFAULTS[key]] for key in TARGET_KEYS[kind]
    ]
    for flags in [[], *own, [arg for pair in own for arg in pair]]:
        code, out, err = run_cli(capsys, "vdim", "--target", kind, "--g", "1", "--ns", "1", *flags)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == VDIM_KIND_DIGESTS[kind]


def test_vdim_with_no_flags_keeps_its_bytes(capsys):
    code, out, err = run_cli(capsys, "vdim")
    assert (code, err) == (0, "")
    digest = "7dae613c0b8d91eaa8f953d6ac6174bacdfc35458507dfa56f75793a964eed70"
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


INT_FLAGS = [
    (["vdim"], flag) for flag in ("--r", "--s", "--d", "--g", "--ns", "--rr")
] + [
    (["chi", "--bundle", '{"even_degs": [0]}'], "--g"),
    (["chi", "--bundle", '{"even_degs": [0]}'], "--rr"),
    (["grr-check"], "--seed"),
    (["grr-check"], "--cases"),
    (["identities"], "--seed"),
    (["identities"], "--cases"),
]


@pytest.mark.parametrize(
    "value", ["\u0663", "1_0", " 2 "], ids=["arabic-indic", "underscore", "blanks"]
)
@pytest.mark.parametrize(
    "argv,flag", INT_FLAGS, ids=[f"{argv[0]}{flag}" for argv, flag in INT_FLAGS]
)
def test_integer_flags_read_only_ascii_digits(capsys, argv, flag, value):
    # int() would read these as 3, 10 and 2; every other reader refuses them
    code, out, err = run_cli(capsys, *argv, flag, value)
    assert (code, out) == (1, "")
    assert err == f"error: argument {flag}: invalid int value: {value!r}\n"


def test_integer_flags_keep_signs_and_leading_zeros(capsys):
    plain = run_cli(capsys, "vdim", "--r", "2", "--s", "1", "--d", "1", "--g", "2", "--json")
    spelled = run_cli(
        capsys, "vdim", "--r", "+2", "--s", "01", "--d", "1", "--g", "002", "--json"
    )
    assert spelled == plain and plain[0] == 0


DASH_DASH_VALUES = [
    (["chi"], "--bundle"),
    (["vdim"], "--target"),
    (["vdim"], "--phi-int"),
    (["table"], "--g"),
    (["table"], "--csv"),
    (["grr-check", "--cases", "1"], "--seed"),
    (["identities"], "--cases"),
]


@pytest.mark.parametrize(
    "argv,flag", DASH_DASH_VALUES, ids=[f"{argv[0]}{flag}" for argv, flag in DASH_DASH_VALUES]
)
def test_flag_given_dash_dash_as_its_value_is_refused(capsys, argv, flag):
    # argparse stores --flag=-- as an empty list, which used to escape as a
    # traceback or, for --target, to run the custom target
    code, out, err = run_cli(capsys, *argv, f"{flag}=--")
    assert (code, out) == (1, "")
    assert err == f"error: argument {flag}: expected one argument\n"


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


def test_chi_refuses_deeply_nested_bundle_inline(capsys):
    code, out, err = run_cli(capsys, "chi", "--g", "0", "--bundle", "[" * 3000)
    assert (code, out) == (1, "")
    assert err == "error: invalid bundle JSON: nested too deeply\n"


def test_chi_refuses_deeply_nested_bundle_file(capsys, tmp_path):
    spec = tmp_path / "deep.json"
    spec.write_text("[" * 100_000, encoding="utf-8")
    code, out, err = run_cli(capsys, "chi", "--g", "0", f"--bundle=@{spec}")
    assert (code, out) == (1, "")
    assert err == "error: invalid bundle JSON: nested too deeply\n"


def test_chi_names_unknown_bundle_key(capsys):
    bundle = '{"even_degs": [1], "odd_deg": [2]}'
    code, out, err = run_cli(capsys, "chi", "--g", "0", "--bundle", bundle)
    assert (code, out, err) == (1, "", "error: unknown key 'odd_deg' in bundle spec\n")


def test_chi_has_no_ns_flag(capsys):
    # chi reads only the genus and the Ramond count
    code, out, err = run_cli(
        capsys, "chi", "--g", "0", "--ns", "5", "--bundle", '{"even_degs": [1]}'
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "--ns" in err


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
    ['"curve"', '{"kind": "curve", "genus": 1.7}', '{"kind": []}'],
    ids=["string-model", "float-genus", "list-kind"],
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
    from supergrr import suites
    from supergrr.suites import SuiteResult

    # the shorter text has the larger size: the size decides, not the length
    fake = SuiteResult(
        "sgrr", 3,
        failures=[(9, "case 1 (size 9): boom"), (4, "case 2 (size 4): long counterexample text")],
    )
    monkeypatch.setattr(suites, "run_sgrr_sweep", lambda seed, cases: fake)
    code, out, err = run_cli(capsys, "grr-check", "--seed", "0", "--cases", "3")
    assert code == 2
    assert "passed=1 failed=2" in out
    assert err == "minimal counterexample:\n  case 2 (size 4): long counterexample text\n"


def test_identities_failure_reporting(capsys, monkeypatch):
    from supergrr import suites
    from supergrr.suites import SuiteResult

    # the first failing suite holds only the larger failure
    fake = [
        SuiteResult("whitney", 2, failures=[(8, "case 0 (size 8): mismatch")]),
        SuiteResult("parity-rules", 2, failures=[]),
        SuiteResult("star-ring", 3, failures=[
            (6, "case 0 (size 6): j(x)*j(y) != j(xy) over a long description"),
            (3, "case 2 (size 3): sigma_1 is not a star unit over a long description"),
        ]),
    ]
    monkeypatch.setattr(suites, "run_identity_suites", lambda seed, cases: fake)
    code, out, err = run_cli(capsys, "identities")
    assert code == 2
    assert "whitney: 1/2 FAIL" in out and "star-ring: 1/3 FAIL" in out
    assert err == (
        "minimal counterexample:\n"
        "  case 2 (size 3): sigma_1 is not a star unit over a long description\n"
    )


def test_failing_runs_report_case_and_size(capsys, monkeypatch):
    from supergrr import suites

    # an oracle that never agrees makes every case of the real sweep fail
    monkeypatch.setattr(suites, "rr_oracle", lambda curve, bundle: None)
    code, out, err = run_cli(capsys, "grr-check", "--seed", "3", "--cases", "6", "--json")
    assert code == 2
    failures = json.loads(out)["failures"]
    assert len(failures) == 5 and all(isinstance(text, str) for text in failures)
    assert [text.split(" (size ")[0] for text in failures] == [f"case {i}" for i in range(5)]
    sizes = [int(text.split(" (size ")[1].split(")")[0]) for text in failures]
    assert f"(size {min(sizes)})" in err.splitlines()[1]


def test_identities_json_failures_are_strings(capsys, monkeypatch):
    from supergrr import ktheory

    monkeypatch.setattr(ktheory, "star_product", lambda x, y, nd: x)
    code, out, err = run_cli(capsys, "identities", "--seed", "1", "--cases", "2", "--json")
    assert code == 2
    suites = json.loads(out)["suites"]
    assert suites["star-ring"]["failures"][0].startswith("case 0 (size ")
    assert suites["whitney"]["failures"] == []
    assert err.startswith("minimal counterexample:\n  case ")


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


def test_table_odd_rr_emits_no_python_warning(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            capsys, "table", "--g", "0", "--ns", "0", "--rr", "1",
            "--r", "1", "--s", "0", "--d", "0",
        )
    assert (code, err) == (0, "")
    assert out.splitlines()[1] == "0,0,1,1,0,0,-1,1,-1,proper"


def test_table_rejects_bad_range(capsys):
    code, _, err = run_cli(capsys, "table", "--g", "zero")
    assert code == 1


@pytest.mark.parametrize("chunk", ["0..1..2", "1..x", ".."])
def test_table_names_flag_and_chunk_of_bad_range(capsys, chunk):
    code, out, err = run_cli(capsys, "table", "--s", f"0,{chunk}")
    assert (code, out) == (1, "")
    assert err == f"error: argument --s: invalid range chunk {chunk!r}, expected N or N..M\n"


def test_parse_range_keeps_chunks_as_ranges():
    # a range this long would take hundreds of gigabytes as a list
    assert _parse_range("g", "0..100000000000, 7") == (range(0, 100000000001), range(7, 8))


# The child gets 1 GiB of address space, so a grid that builds its 10**11-value
# axis fails there with MemoryError instead of filling the machine's memory.
_BOUNDED_CLI = (
    "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
    "from supergrr.cli import main; sys.exit(main(sys.argv[1:]))"
)


def test_table_streams_a_huge_range_without_building_it(capsys):
    flags = ["--ns", "0", "--rr", "0", "--r", "1", "--s", "0", "--d", "0..2"]
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-u", "-c", _BOUNDED_CLI, "table", "--g", "0..100000000000", *flags],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    ) as proc:
        head = [proc.stdout.readline() for _ in range(6)]
        elapsed = time.perf_counter() - start
        proc.kill()
        _, err = proc.communicate()
    # interpreter start included; header plus the rows g = 0 (d = 0..2) and g = 1 (d = 0, 1)
    assert elapsed < 1.0, err
    code, out, _ = run_cli(capsys, "table", "--g", "0..1", *flags)
    assert code == 0
    assert "".join(head) == "".join(out.splitlines(keepends=True)[:6]), err


@pytest.mark.parametrize("flag,value", [("--g", "0,-1"), ("--d", "2..3,-1"), ("--r", "2,0")])
def test_table_refuses_a_bad_late_value_before_any_row(capsys, flag, value):
    code, out, err = run_cli(capsys, "table", flag, value)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


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

"""Hypothesis properties over the JSON and command-line boundary.

Whatever arrives, ``evaluate_request`` answers or raises ValueError, and
``supergrr`` exits 0, 1 or 2 without a traceback, with exactly one
``error:`` line on stderr when it exits 1.  Well-formed inputs are drawn
often enough that the computing paths run too, not only the refusals.
Every size drawn stays small: the assembled route stores one Chern root
per unit of target rank, and ``grr-check``/``identities`` run one case
per requested case.  The text readers of numbers accept and refuse
exactly what the regular expressions they replaced did.  The CLI's own
reader of the flag table either leaves a command line to argparse or
reads it exactly as argparse does, and it reads the golden and the
benchmark's command lines itself.
"""

import argparse
import contextlib
import io
import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supergrr.cli import CliError, _int, _parse_range, _read_args, build_parser, main
from supergrr.grr import NonIntegralTwist
from supergrr.modulidim import (
    ModuliParams,
    TargetSpec,
    bosonic_dimension,
    evaluate_request,
    vdim_closed,
)
from supergrr.superscalar import parse_rational
from test_golden_cli import GOLDEN

SMALL = st.integers(-6, 12)
NATURAL = st.integers(0, 6)

JUNK_TEXT = st.sampled_from(
    ["", "x", "1.5", "1/", "/2", "1/0", "--", "٣", " 2 ", "1_0", "0x1", "1e3"]
    + ["2..", "..3", "1..2..3"]
) | st.text(max_size=3).filter(lambda text: not text.startswith("@"))

SCALARS = st.one_of(
    SMALL,
    st.floats(),
    st.booleans(),
    st.none(),
    st.builds(lambda p, q: f"{p}/{q}", SMALL, st.integers(0, 4)),
    JUNK_TEXT,
    st.sampled_from(["psuper", "custom", "point", "curve", "projspace"]),
)

KEYS = st.sampled_from(
    [
        "params", "target", "g", "n_ns", "n_rr", "kind", "r", "s", "d", "tau", "phi_int",
        "model", "genus", "even_degs", "odd_degs", "even_roots", "odd_roots", "extra",
    ]
)

JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(KEYS, inner, max_size=4),
    max_leaves=10,
)


@st.composite
def mostly(draw, valid, invalid):
    """A draw from valid in about three cases of four, else from invalid."""
    return draw(draw(st.sampled_from((valid, valid, valid, invalid))))


def objects(required: dict, optional: dict | None = None):
    """JSON objects with the expected keys, in about one draw of four with an unknown one too."""
    clean = st.fixed_dictionaries(required, optional=optional or {})
    with_extra = st.builds(lambda obj, extra: {**obj, "extra": extra}, clean, JSON_VALUES)
    return mostly(clean, with_extra)


FIELDS = mostly(NATURAL, SCALARS)
RATIONALS = mostly(st.builds(lambda p, q: f"{p}/{q}", SMALL, st.integers(1, 4)) | SMALL, SCALARS)

PARAMS = objects({"g": FIELDS}, {"n_ns": FIELDS, "n_rr": FIELDS})
TARGETS = st.one_of(
    objects({"kind": st.just("psuper"), "r": FIELDS, "s": FIELDS, "d": FIELDS}),
    objects({"kind": st.just("custom"), "r": FIELDS, "s": FIELDS},
            {"tau": RATIONALS, "phi_int": RATIONALS}),
    objects({"kind": st.just("point")}),
    objects({}, {"kind": SCALARS, "r": FIELDS, "s": FIELDS, "d": FIELDS}),
)
REQUESTS = mostly(objects({"params": PARAMS, "target": TARGETS}), JSON_VALUES)


@settings(deadline=None, max_examples=300)
@given(REQUESTS, st.booleans())
def test_evaluate_request_answers_or_refuses(request, alternate_odd_sign):
    try:
        response = evaluate_request(request, alternate_odd_sign=alternate_odd_sign)
    except ValueError:
        return
    json.dumps(response)
    if not alternate_odd_sign:
        assert response["consistent"] in (True, None), request


# -- targets --------------------------------------------------------------------

DEGREE_DATA = st.builds(Fraction, SMALL, st.integers(1, 3))


@st.composite
def target_args(draw):
    """(r, s, tau, phi_int, d): often degree data that agree with d, else any small data."""
    r, s, d = draw(SMALL), draw(SMALL), draw(st.none() | SMALL)
    if d is not None and draw(st.booleans()):
        return r, s, d * (r + 1), -s * d, d
    return r, s, draw(DEGREE_DATA), draw(DEGREE_DATA), d


@settings(deadline=None, max_examples=300)
@given(target_args(), NATURAL, NATURAL, NATURAL)
def test_accepted_targets_are_one_target(args, g, n_ns, n_rr):
    # a target the constructor accepts reads back as itself, and for P^{r|s}
    # its image degree and its degree data give the same even dimension
    try:
        target = TargetSpec(*args[:4], d=args[4])
    except ValueError:
        return
    assert TargetSpec.from_json(json.loads(json.dumps(target.to_json()))) == target
    if target.kind == "psuper":
        if n_rr % 2:
            with pytest.raises(NonIntegralTwist):
                ModuliParams(g, n_ns, n_rr)
            n_rr -= 1
        params = ModuliParams(g, n_ns, n_rr)
        assert bosonic_dimension(params, target) == vdim_closed(params, target).body


# -- the command line -----------------------------------------------------------

INT_ARGS = mostly(NATURAL.map(str), SMALL.map(str) | JUNK_TEXT)
RANGE_ARGS = mostly(
    st.builds(lambda lo, width: f"{lo}..{lo + width}", st.integers(1, 6), st.integers(0, 2))
    | st.builds(lambda a, b: f"{a},{b}", st.integers(1, 6), st.integers(1, 6)),
    SMALL.map(str) | JUNK_TEXT,
)
# --cases reads the default (hundreds of cases) when absent, so it is always given
CASE_ARGS = mostly(
    st.sampled_from(["1", "2"]),
    st.integers(-6, 0).map(str) | st.sampled_from(["", "x", "1.5", "٢", " 1", "+1", "01"]),
)

MODELS = objects(
    {"kind": mostly(st.sampled_from(["curve", "point", "projspace"]), SCALARS)},
    {"genus": FIELDS, "r": FIELDS},
)
DEGREES = mostly(st.lists(mostly(SMALL, RATIONALS), max_size=4), SCALARS)
BUNDLES = mostly(
    objects(
        {"even_degs": DEGREES},
        {"odd_degs": DEGREES, "model": MODELS, "even_roots": DEGREES},
    ).map(json.dumps),
    JSON_VALUES.map(json.dumps) | JUNK_TEXT,
)


# values that argparse reads apart from the rest: "--", empty, signed and non-ASCII numbers
ODD_VALUES = st.sampled_from(["--", "", "-1", "-3/2", "-\u0663", "-0", "-x", "+2"])
# tokens that spell no flag in full: help, "--", an unknown flag, a positional, a switch's value
STRAY_TOKENS = st.sampled_from(["-h", "--help", "--", "--bogus", "stray", "-1", "--json=1"])
# the one spoilt token of a draw, if any
FAULTS = st.sampled_from([None, None, None, "abbreviate", "odd value", "repeat", "stray"])


@st.composite
def command(draw, name: str, required: dict, optional: dict, switches: tuple[str, ...] = ()):
    """argv for one subcommand: its flags, each spelt --flag=value or --flag value, and some
    of its switches, in any order.  In about half the draws one thing is spoilt: a flag or
    switch abbreviated, given an odd value or repeated (a flag with a new value), or a stray
    token put in."""
    values = draw(st.fixed_dictionaries(required, optional=optional))
    on = draw(st.lists(st.sampled_from(switches), unique=True)) if switches else []
    # (flag, value or None for a switch, whether the value joins the flag with "=")
    items = [(flag, value, draw(st.booleans())) for flag, value in values.items()]
    items = draw(st.permutations(items + [(switch, None, False) for switch in on]))
    fault = draw(FAULTS)
    if items and fault in ("abbreviate", "odd value", "repeat"):
        at = draw(st.integers(0, len(items) - 1))
        flag, value, joined = items[at]
        if fault == "abbreviate":
            items[at] = (flag[: draw(st.integers(1, len(flag)))], value, joined)
        elif fault == "odd value":
            items[at] = (flag, draw(ODD_VALUES), joined)
        else:
            value = value if value is None else draw({**required, **optional}[flag])
            items.insert(draw(st.integers(0, len(items))), (flag, value, joined))
    tokens = [name]
    for flag, value, joined in items:
        if value is None:
            tokens.append(f"--{flag}")
        else:
            tokens += [f"--{flag}={value}"] if joined else [f"--{flag}", value]
    if fault == "stray":
        tokens.insert(draw(st.integers(1, len(tokens))), draw(STRAY_TOKENS))
    return tokens


ARGVS = st.one_of(
    command(
        "vdim",
        {},
        {
            "target": mostly(st.sampled_from(["psuper", "custom", "point"]), JUNK_TEXT),
            **{flag: INT_ARGS for flag in ("r", "s", "d", "g", "ns", "rr")},
            "tau": mostly(st.builds(lambda p, q: f"{p}/{q}", SMALL, st.integers(1, 4)), JUNK_TEXT),
            "phi-int": INT_ARGS,
        },
        ("json", "use-paper-dimmod2-sign"),
    ),
    command("chi", {"bundle": BUNDLES}, {"g": INT_ARGS, "rr": INT_ARGS}, ("json",)),
    command("table", {flag: RANGE_ARGS for flag in ("g", "ns", "rr", "r", "s", "d")}, {}),
    command("grr-check", {"cases": CASE_ARGS}, {"seed": INT_ARGS}, ("json",)),
    command("identities", {"cases": CASE_ARGS}, {"seed": INT_ARGS}, ("json",)),
)


@settings(deadline=None, max_examples=300)
@given(ARGVS)
def test_cli_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as stop:  # argparse prints the help and exits
            code = stop.code
    message = err.getvalue()
    assert code in (0, 1, 2), argv
    if code == 0:
        assert message == "", argv
    if code == 1:
        one_line = message.endswith("\n") and message.count("\n") == 1
        assert message.startswith("error: ") and one_line, (argv, message)


def typed(args: dict) -> dict:
    """Each value with its type, so that 1 and Fraction(1), or 1 and True, differ."""
    return {name: (type(value), value) for name, value in args.items()}


@settings(deadline=None, max_examples=400)
@given(ARGVS)
def test_the_flag_table_reads_what_argparse_reads(argv):
    # the reader either declines or returns exactly argparse's args, and it
    # declines every command line that argparse refuses or answers with help
    args = _read_args(argv)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            expected = vars(build_parser(argv).parse_args(argv))
    except (CliError, SystemExit):
        assert args is None, argv
        return
    assert args is None or typed(vars(args)) == typed(expected), argv


# a command line for each rule by which the reader leaves one to argparse
DECLINED = [
    [],
    ["nope"],
    ["vdim", "--tar", "point"],
    ["vdim", "-h"],
    ["vdim", "--help"],
    ["vdim", "--", "--g", "1"],
    ["vdim", "stray"],
    ["vdim", "--json=1"],
    ["vdim", "--g"],
    ["vdim", "--g", ""],
    ["table", "--csv="],
    ["vdim", "--g", "-\u0663"],
    ["vdim", "--tau", "-3/2"],
    ["table", "--g=--"],
    ["table", "--g", "--", "--ns", "1"],
    ["vdim", "--g", "x"],
    ["identities", "--cases", "0"],
    ["vdim", "--target", "x"],
    ["chi", "--g", "1"],
]


@pytest.mark.parametrize("argv", DECLINED, ids=" ".join)
def test_the_flag_table_leaves_the_rest_to_argparse(argv):
    assert _read_args(argv) is None


def assert_read_as_argparse_reads(argv):
    args = _read_args(argv)
    assert args is not None, argv
    assert typed(vars(args)) == typed(vars(build_parser(argv).parse_args(argv))), argv


@st.composite
def bench_argvs(draw):
    """A command line of the shape the cli_calls benchmark runs, over wider draws."""
    g, n_ns, n_rr = draw(NATURAL), draw(NATURAL), draw(NATURAL.map(lambda n: 2 * n))
    r, s, d = draw(st.integers(1, 6)), draw(NATURAL), draw(NATURAL)
    src = ["--g", str(g), "--ns", str(n_ns), "--rr", str(n_rr)]
    tau, phi_int = draw(DEGREE_DATA), draw(DEGREE_DATA)
    bundle = {"even_degs": draw(st.lists(SMALL, max_size=4))}
    bundle["odd_degs"] = draw(st.lists(SMALL, max_size=4))
    ranges = [f"{g}..{g + 1}", f"0..{n_ns}", "0,2", str(r), "0..1", f"0..{d}"]
    return draw(st.sampled_from([
        ["vdim", "--target", "psuper", "--r", str(r), "--s", str(s), "--d", str(d), *src],
        ["vdim", "--target", "custom", "--r", str(r), "--s", str(s),
         f"--tau={tau}", f"--phi-int={phi_int}", *src],
        ["vdim", "--target", "point", *src],
        ["chi", "--g", str(g), "--rr", str(n_rr), "--bundle", json.dumps(bundle)],
        ["table", *[t for pair in zip(["--g", "--ns", "--rr", "--r", "--s", "--d"], ranges)
                    for t in pair]],
        ["grr-check", "--seed", str(g * 10**5 + d), "--cases", "50"],
        ["identities", "--seed", str(n_ns * 10**5 + s), "--cases", "5"],
    ]))


@settings(deadline=None, max_examples=100)
@given(bench_argvs())
def test_the_flag_table_reads_the_bench_command_lines(argv):
    assert_read_as_argparse_reads(argv)


# the golden command lines, and repeats, of which the last wins
READ = {name: argv for name, (argv, _, _) in GOLDEN.items()} | {
    "vdim-repeats": ["vdim", "--g", "-1", "--g=2", "--json", "--json", "--target=point"],
    "table-repeats": ["table", "--g", "-1", "--g", "1..2", "--csv", "a", "--csv=b"],
}


@pytest.mark.parametrize("argv", list(READ.values()), ids=list(READ))
def test_the_flag_table_reads_the_golden_command_lines_and_repeats(argv):
    assert_read_as_argparse_reads(argv)


# the integer grammar as regular expressions, before every reader shared superscalar.is_int_text
INT_TEXT = r"[+-]?[0-9]+"
RATIONAL_TEXT = re.compile(rf"{INT_TEXT}(?:/[0-9]+)?")
RANGE_CHUNK = re.compile(rf"({INT_TEXT})(?:\.\.({INT_TEXT}))?")

# signs, separators, blanks, ASCII digits and three non-ASCII characters that int() or
# str.isdigit() take for digits: ARABIC-INDIC THREE, SUPERSCRIPT ONE and FULLWIDTH ZERO
GRAMMAR_TEXT = st.one_of(
    st.text("+-/._ 0123456789\u0663\u00b9\uff10", max_size=10),
    st.from_regex(RATIONAL_TEXT, fullmatch=True),
    st.from_regex(RANGE_CHUNK, fullmatch=True),
    st.sampled_from(
        ["", "+", "-0", "--5", "+-5", "+7/3", "7/+3", "7/-3", "7/0", "1_0", " 5 ", "\u0663"]
        + ["1\u00b9", "\uff10", "1..2", "2..1", "-3..-1", "1..", "..2", "1...2", "1..2..3"]
        + ["1/2..3", "7/\u0663", "7/\u00b9", "7/\uff10"]
    ),
)


@settings(deadline=None, max_examples=400)
@given(GRAMMAR_TEXT)
def test_number_readers_keep_the_regular_grammar(text):
    numerator, _, denominator = text.partition("/")
    if RATIONAL_TEXT.fullmatch(text) and int(denominator or 1):
        assert parse_rational(text) == Fraction(int(numerator), int(denominator or 1))
    else:
        with pytest.raises(ValueError):
            parse_rational(text)

    if re.fullmatch(INT_TEXT, text):
        assert _int(text) == int(text)
    else:
        with pytest.raises(argparse.ArgumentTypeError):
            _int(text)

    # no comma is drawn, so the text, stripped, is one chunk
    chunk = RANGE_CHUNK.fullmatch(text.strip())
    bounds = chunk and (int(chunk[1]), int(chunk[2] or chunk[1]))
    if bounds and bounds[0] <= bounds[1]:
        assert _parse_range("g", text) == (range(bounds[0], bounds[1] + 1),)
    else:
        with pytest.raises(CliError):
            _parse_range("g", text)

"""Hypothesis properties over the JSON and command-line boundary.

Whatever arrives, ``evaluate_request`` answers or raises ValueError, and
``supergrr`` exits 0, 1 or 2 without a traceback, with exactly one
``error:`` line on stderr when it exits 1.  Well-formed inputs are drawn
often enough that the computing paths run too, not only the refusals.
Every size drawn stays small: the assembled route stores one Chern root
per unit of target rank, and ``grr-check``/``identities`` run one case
per requested case.
"""

import contextlib
import io
import json
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from supergrr.cli import main
from supergrr.modulidim import (
    ModuliParams,
    TargetSpec,
    bosonic_dimension,
    evaluate_request,
    vdim_closed,
)

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


def command(name: str, required: dict, optional: dict, switches: tuple[str, ...] = ()):
    """argv for one subcommand: --flag=value pairs plus some of the switches."""
    flags = st.fixed_dictionaries(required, optional=optional)
    chosen = st.lists(st.sampled_from(switches), unique=True) if switches else st.just([])
    return st.builds(
        lambda values, on: [name, *[f"--{k}={v}" for k, v in values.items()], *on], flags, chosen
    )


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
        ("--json", "--use-paper-dimmod2-sign"),
    ),
    command("chi", {"bundle": BUNDLES}, {"g": INT_ARGS, "rr": INT_ARGS}, ("--json",)),
    command("table", {flag: RANGE_ARGS for flag in ("g", "ns", "rr", "r", "s", "d")}, {}),
    command("grr-check", {"cases": CASE_ARGS}, {"seed": INT_ARGS}, ("--json",)),
    command("identities", {"cases": CASE_ARGS}, {"seed": INT_ARGS}, ("--json",)),
)


@settings(deadline=None, max_examples=300)
@given(ARGVS)
def test_cli_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    message = err.getvalue()
    assert code in (0, 1, 2), argv
    if code == 0:
        assert message == "", argv
    if code == 1:
        one_line = message.endswith("\n") and message.count("\n") == 1
        assert message.startswith("error: ") and one_line, (argv, message)

"""Command-line interface: calculators and verification suites.

Exit codes: 0 on success, 1 on validation errors, 2 when any exact
identity check fails (a minimal counterexample is printed).

The console script and ``python -m supergrr`` both exit through
entrypoint, which calls gc.freeze() once main() has returned.  That
moves every object still alive, module objects that die with the
process anyway, into the permanent generation, so the full collections
the interpreter runs at shutdown have nothing left to traverse
(BENCH_cli_calls.json records the saving).  main() itself never
freezes, so in-process callers keep an ordinary heap.  os._exit would
save a little more, but it skips the flush of Python's stdio buffers
and the atexit handlers, so the process ends through SystemExit.

A well-formed command line is read from the flag table of _SUBCOMMANDS.
argparse is imported only to print help or to word an error, and then
builds the parser of only the subcommand the first argument names (of
all five if none).  json, csv and the suites are imported only by the
subcommands that print or read JSON, write CSV or run suites.
"""

from __future__ import annotations

import gc
import itertools
import sys
from fractions import Fraction
from types import SimpleNamespace

from .chowring import _scalar, _scalar_json
from .grr import SplitSupercurve, chi_super, rr_oracle
from .modulidim import (
    TARGET_KEYS,
    ModuliParams,
    TargetSpec,
    _bosonic_value,
    _closed_values,
    _less_gauge,
    _same_values,
    _tangent_values,
    evaluate_request,
    properness_hint,
)
from .superbundle import SuperBundle
from .superscalar import SuperScalar, is_int_text, parse_rational

CSV_COLUMNS = [
    "g",
    "n_ns",
    "n_rr",
    "r",
    "s",
    "d",
    "vdim_body",
    "vdim_soul",
    "bosonic_dim",
    "proper",
]


# the chi(tangent) triples one table run keeps for the rows of one genus
TANGENTS_KEPT = 4096


class CliError(Exception):
    """Validation failure; reported on stderr with exit code 1."""


def build_parser(argv: list[str] | None = None):
    """The parser of the subcommand that argv[0] names, or of all five when it names none."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        # argparse exits with 2 on bad flags; 2 is reserved for identity failures
        def error(self, message):
            raise CliError(message)

    # --help shows the summary and the exit codes, not the note on the exit path;
    # python -OO drops docstrings, and with them the description
    description = __doc__ and "\n\n".join(__doc__.split("\n\n")[:2])
    parser = _Parser(prog="supergrr", description=description)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in argv[:1] if argv and argv[0] in _SUBCOMMANDS else _SUBCOMMANDS:
        help_text, flags, _ = _SUBCOMMANDS[name]
        command = sub.add_parser(name, help=help_text)
        for spelling, reader, default, extra in flags:
            kind = {"action": "store_true"} if reader is None else {"type": reader}
            default = argparse.SUPPRESS if default is ... else default
            command.add_argument(spelling, default=default, **kind, **extra)
    return parser


def _read_args(argv: list[str]) -> SimpleNamespace | None:
    """The args of a well-formed command line, read from the flag table, or None.

    None leaves to argparse help, abbreviations, "--", positionals, a switch given a
    value, a missing, empty or "--" value, a separate value that starts with "-" but is
    no -digits integer, a value its reader or choices refuse, and a missing required flag.
    """
    if not argv or argv[0] not in _SUBCOMMANDS:
        return None
    flags = {flag[0]: flag for flag in _SUBCOMMANDS[argv[0]][1]}
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        spelling, equals, value = token.partition("=")
        if spelling not in flags:
            return None
        _, reader, _, extra = flags[spelling]
        if reader is None:
            if equals:
                return None
            given[spelling] = True
            continue
        if not equals:
            value = next(tokens, "")
            if value.startswith("-") and not is_int_text(value):
                return None
        if value in ("", "--"):
            return None
        try:
            value = reader(value)
        except Exception:  # argparse reads it again and words the error
            return None
        if value not in extra.get("choices", [value]):
            return None
        given[spelling] = value  # the last repeat wins
    args = {"subcommand": argv[0]}
    for spelling, _, default, extra in flags.values():
        if spelling not in given and extra.get("required"):
            return None
        value = given.get(spelling, default)
        if value is not ...:
            args[spelling[2:].replace("-", "_")] = value
    return SimpleNamespace(**args)


def _int(text: str) -> int:
    """An ASCII [+-]digits argument, the integer grammar of every other reader.

    int() alone would also take other scripts' digits, underscores and
    surrounding blanks.
    """
    if is_int_text(text):
        try:
            return int(text)
        except ValueError:  # past the interpreter's digit limit
            pass
    import argparse

    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _case_count(text: str) -> int:
    """A run that checks nothing is refused: the count must be at least 1."""
    value = _int(text)
    if value < 1:
        import argparse

        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _rational(text: str) -> Fraction:
    """An exact int or "p/q" argument."""
    try:
        return parse_rational(text)
    except ValueError as exc:
        import argparse

        raise argparse.ArgumentTypeError(str(exc)) from None


# each vdim target flag's reader and its value when left out, for the keys the --target kind reads
_TARGET_FLAGS = {
    "r": (_int, 1), "s": (_int, 0), "d": (_int, 0),
    "tau": (_rational, 0), "phi_int": (_rational, 0),
}


def _parse_range(flag: str, text: str) -> tuple[range, ...]:
    """Comma-separated chunks N or N..M (inclusive), each kept as a range object."""
    chunks = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        lo, dots, hi = chunk.partition("..")
        if not is_int_text(lo) or dots and not is_int_text(hi):
            raise CliError(f"argument --{flag}: invalid range chunk {chunk!r}, expected N or N..M")
        lo, hi = int(lo), int(hi or lo)
        if hi < lo:
            raise CliError(
                f"argument --{flag}: reversed range chunk {chunk!r}, expected N..M with N <= M"
            )
        chunks.append(range(lo, hi + 1))
    if not chunks:
        raise CliError(f"argument --{flag}: empty range {text!r}")
    return tuple(chunks)


def _cmd_vdim(args) -> int:
    import json

    given, keys = vars(args), TARGET_KEYS[args.target]
    for key in _TARGET_FLAGS:
        if key in given and key not in keys:
            flag = key.replace("_", "-")
            raise CliError(f"argument --{flag}: --target {args.target} does not read it")
    target = {key: given.get(key, _TARGET_FLAGS[key][1]) for key in keys}
    request = {
        "params": {"g": args.g, "n_ns": args.ns, "n_rr": args.rr},
        "target": {"kind": args.target, **target},
    }
    response = evaluate_request(request, alternate_odd_sign=args.use_paper_dimmod2_sign)
    closed = SuperScalar.from_json(response["closed"])
    document = json.dumps(response, indent=2)
    if not args.json:
        print(closed)
        print(f"consistency: {response['consistent']}")
    print(document)
    if not response["consistent"]:
        assembled = SuperScalar.from_json(response["assembled"])
        print("consistency failure: closed formula differs from assembled route", file=sys.stderr)
        print(
            f"  closed with the ({response['odd_part_reading']}) odd-part reading: {closed}",
            file=sys.stderr,
        )
        print(f"  assembled route, which forces the (s-2) reading: {assembled}", file=sys.stderr)
        print(f"  difference: {closed - assembled}", file=sys.stderr)
        return 2
    return 0


def _load_bundle_spec(text: str) -> dict:
    import json

    if text.startswith("@"):
        with open(text[1:], encoding="utf-8") as handle:
            text = handle.read()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"invalid bundle JSON: {exc}") from exc
    except RecursionError:
        raise CliError("invalid bundle JSON: nested too deeply") from None
    if not isinstance(obj, dict):
        raise CliError("bundle spec must be a JSON object")
    return obj


def _cmd_chi(args) -> int:
    import json

    curve = SplitSupercurve.susy(args.g, args.rr)
    spec = _load_bundle_spec(args.bundle)
    bundle = SuperBundle.from_json(spec, default_model=curve.model)
    if bundle.model != curve.model:
        raise CliError(f"bundle model {bundle.model} does not match curve {curve.model}")
    chi = chi_super(curve, bundle)
    oracle = rr_oracle(curve, bundle)
    match = chi == oracle
    document = json.dumps(
        {
            "genus": args.g,
            "n_rr": args.rr,
            "deg_l": str(curve.deg_l),
            "bundle": bundle.to_json(),
            "chi": chi.to_json(),
            "oracle": oracle.to_json(),
            "match": match,
        },
        indent=2,
    )
    if not args.json:
        print(chi)
    print(document)
    if not match:
        print(f"identity failure: chi {chi} != oracle {oracle}", file=sys.stderr)
        return 2
    return 0


def _cmd_grr_check(args) -> int:
    from . import suites

    result = suites.run_sgrr_sweep(args.seed, args.cases)
    line = (
        f"grr-check: seed={args.seed} cases={result.cases} "
        f"passed={result.passed} failed={len(result.failures)}"
    )
    if args.json:
        import json

        document = {"seed": args.seed, "cases": result.cases, "passed": result.passed}
        print(json.dumps({**document, "failures": [t for _, t in result.failures[:5]]}))
    else:
        print(line)
    return _report_failures([result])


def _cmd_table(args) -> int:
    import csv

    axes = [_parse_range(flag, getattr(args, flag)) for flag in ("g", "ns", "rr", "r", "s", "d")]
    # Bad input is refused before the header, so no partial CSV is written.
    # Every constraint but the parity of n_rr is a lower bound, so the
    # smallest value of each flag fails whenever any row would; a chunk of
    # n_rr holds an odd value iff one of its first two values is odd.
    lowest = [min(chunk.start for chunk in axis) for axis in axes]
    for n_rr in itertools.chain.from_iterable(chunk[:2] for chunk in axes[2]):
        ModuliParams(*lowest[:2], n_rr)
    TargetSpec.psuper(*lowest[3:])

    def write(stream) -> tuple[int, str | None]:
        """The rows written, and the stderr line of the first row whose two routes differ."""
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        rows = 0
        # chi(tangent) does not read n_ns, so rows of one genus that differ only in
        # n_ns share it; at most TANGENTS_KEPT are kept, so memory stays bounded.
        # A row is written from the closed triple and the bosonic integer; a
        # SuperScalar is built only to word a consistency failure.
        tangents, genus = {}, None
        for point in _grid(axes):
            params, target = ModuliParams(*point[:3]), TargetSpec.psuper(*point[3:])
            if point[0] != genus:
                tangents, genus = {}, point[0]
            tangent = tangents.get(point[2:])
            if tangent is None:
                tangent = _tangent_values(params.g, params.n_rr, target)
                if len(tangents) < TANGENTS_KEPT:
                    tangents[point[2:]] = tangent
            closed, assembled = _closed_values(params, target), _less_gauge(params, tangent)
            if not _same_values(closed, assembled):
                row = " ".join([f"{name}={v}" for name, v in zip(CSV_COLUMNS, point)])
                return rows, (
                    f"consistency failure at {row}: closed formula {_scalar(*closed)} "
                    f"!= assembled route {_scalar(*assembled)}"
                )
            value = _scalar_json(*closed)
            bosonic = _bosonic_value(params, target)
            proper = properness_hint(target, params)
            writer.writerow([*point, value["body"], value["soul"], bosonic, proper])
            rows += 1
        return rows, None

    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as handle:
            rows, failure = write(handle)
        if failure is None:
            print(f"wrote {rows} rows to {args.csv}")
    else:
        rows, failure = write(sys.stdout)
    if failure is not None:
        print(failure, file=sys.stderr)
        return 2
    return 0


def _grid(axes):
    """The product of the axes in itertools.product order; no axis is held in memory."""
    if not axes:
        yield ()
        return
    for value in itertools.chain.from_iterable(axes[0]):
        for rest in _grid(axes[1:]):
            yield (value, *rest)


def _cmd_identities(args) -> int:
    from . import suites

    results = suites.run_identity_suites(args.seed, args.cases)
    if args.json:
        import json

        document = {"seed": args.seed, "cases": args.cases, "suites": {}}
        for r in results:
            failures = [t for _, t in r.failures[:5]]
            document["suites"][r.name] = {"passed": r.passed, "failures": failures}
        print(json.dumps(document))
    else:
        print(f"identities: seed={args.seed} cases-per-suite={args.cases}")
        for result in results:
            print("  " + result.summary())
    return _report_failures(results)


def _report_failures(results) -> int:
    """Exit 2 with the minimal counterexample of all suites on stderr, or 0 if none failed."""
    from .suites import minimal_failure

    failure = minimal_failure(results)
    if failure is None:
        return 0
    print("minimal counterexample:", file=sys.stderr)
    print("  " + failure, file=sys.stderr)
    return 2


# name -> (help, flags, runner), in the order --help lists them; each flag is (spelling,
# reader or None for a switch, default, the rest of its add_argument keywords), in help
# order, and a default of ... leaves the flag out of args unless it is given
_SUBCOMMANDS = {
    "vdim": ("virtual dimension of the supermap moduli", (
        ("--target", str, "psuper", {"choices": list(TARGET_KEYS)}),
        # a target flag is in args only when given, so one the kind does not read can be refused
        *[("--" + k.replace("_", "-"), read, ..., {}) for k, (read, _) in _TARGET_FLAGS.items()],
        ("--g", _int, 0, {"help": "genus"}),
        ("--ns", _int, 0, {"help": "Neveu-Schwarz punctures"}),
        ("--rr", _int, 0, {"help": "Ramond-Ramond punctures"}),
        ("--json", None, False, {"help": "print only the JSON document"}),
        ("--use-paper-dimmod2-sign", None, False,
         {"help": "use the (s+2) odd-part reading instead of the derived (s-2)"}),
    ), _cmd_vdim),
    "chi": ("super Euler characteristic of a bundle spec", (
        ("--g", _int, 0, {"help": "genus"}),
        ("--rr", _int, 0, {"help": "Ramond-Ramond punctures"}),
        ("--bundle", str, None,
         {"required": True, "help": "bundle spec as inline JSON or @path to a JSON file"}),
        ("--json", None, False, {}),
    ), _cmd_chi),
    "grr-check": ("randomized Riemann-Roch identity sweep", (
        ("--seed", _int, 0, {}),
        ("--cases", _case_count, 1000, {}),
        ("--json", None, False, {}),
    ), _cmd_grr_check),
    "table": ("sweep parameter ranges to CSV", (
        ("--g", str, "0..3", {"help": "range, e.g. 0..3 or 0,2"}),
        ("--ns", str, "0..4", {}),
        ("--rr", str, "0,2,4,6", {}),
        ("--r", str, "1..4", {}),
        ("--s", str, "0..3", {}),
        ("--d", str, "0..3", {}),
        ("--csv", str, None, {"metavar": "PATH", "help": "output path (default stdout)"}),
    ), _cmd_table),
    "identities": ("characteristic-class identity suites", (
        ("--seed", _int, 0, {}),
        ("--cases", _case_count, 500, {}),
        ("--json", None, False, {}),
    ), _cmd_identities),
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _read_args(argv)
        if args is None:
            args = build_parser(argv).parse_args(argv)
            for name, value in vars(args).items():
                # argparse drops the "--" of --flag=-- and stores an empty list, unchecked
                if isinstance(value, list):
                    raise CliError(f"argument --{name.replace('_', '-')}: expected one argument")
        return _SUBCOMMANDS[args.subcommand][2](args)
    except (CliError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    code = main()
    gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":
    entrypoint()

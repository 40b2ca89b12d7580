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
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import re
import sys
from fractions import Fraction

from .grr import SplitSupercurve, chi_super, rr_oracle
from .modulidim import (
    TARGET_KEYS,
    ModuliParams,
    TargetSpec,
    bosonic_dimension,
    evaluate_request,
    properness_hint,
    vdim_closed,
)
from .superbundle import SuperBundle
from .superscalar import INT_TEXT, SuperScalar, parse_rational

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


class CliError(Exception):
    """Validation failure; reported on stderr with exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; 2 is reserved for identity failures
    def error(self, message):
        raise CliError(message)


def build_parser() -> _Parser:
    # --help shows the summary and the exit codes, not the note on the exit path;
    # python -OO drops docstrings, and with them the description
    description = __doc__ and "\n\n".join(__doc__.split("\n\n")[:2])
    parser = _Parser(prog="supergrr", description=description)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    vdim = sub.add_parser("vdim", help="virtual dimension of the supermap moduli")
    vdim.add_argument("--target", choices=list(TARGET_KEYS), default="psuper")
    # a target flag is in args only when given, so one the kind does not read can be refused
    for key, (reader, _) in _TARGET_FLAGS.items():
        vdim.add_argument("--" + key.replace("_", "-"), type=reader, default=argparse.SUPPRESS)
    vdim.add_argument("--g", type=_int, default=0, help="genus")
    vdim.add_argument("--ns", type=_int, default=0, help="Neveu-Schwarz punctures")
    vdim.add_argument("--rr", type=_int, default=0, help="Ramond-Ramond punctures")
    vdim.add_argument("--json", action="store_true", help="print only the JSON document")
    vdim.add_argument(
        "--use-paper-dimmod2-sign",
        action="store_true",
        help="use the (s+2) odd-part reading instead of the derived (s-2)",
    )

    chi = sub.add_parser("chi", help="super Euler characteristic of a bundle spec")
    chi.add_argument("--g", type=_int, default=0, help="genus")
    chi.add_argument("--rr", type=_int, default=0, help="Ramond-Ramond punctures")
    chi.add_argument(
        "--bundle",
        required=True,
        help="bundle spec as inline JSON or @path to a JSON file",
    )
    chi.add_argument("--json", action="store_true")

    check = sub.add_parser("grr-check", help="randomized Riemann-Roch identity sweep")
    check.add_argument("--seed", type=_int, default=0)
    check.add_argument("--cases", type=_case_count, default=1000)
    check.add_argument("--json", action="store_true")

    table = sub.add_parser("table", help="sweep parameter ranges to CSV")
    table.add_argument("--g", default="0..3", help="range, e.g. 0..3 or 0,2")
    table.add_argument("--ns", default="0..4")
    table.add_argument("--rr", default="0,2,4,6")
    table.add_argument("--r", default="1..4")
    table.add_argument("--s", default="0..3")
    table.add_argument("--d", default="0..3")
    table.add_argument("--csv", metavar="PATH", default=None, help="output path (default stdout)")

    ident = sub.add_parser("identities", help="characteristic-class identity suites")
    ident.add_argument("--seed", type=_int, default=0)
    ident.add_argument("--cases", type=_case_count, default=500)
    ident.add_argument("--json", action="store_true")

    return parser


_INT_TEXT = re.compile(INT_TEXT)


def _int(text: str) -> int:
    """An ASCII [+-]digits argument, the integer grammar of every other reader.

    int() alone would also take other scripts' digits, underscores and
    surrounding blanks.
    """
    if _INT_TEXT.fullmatch(text):
        try:
            return int(text)
        except ValueError:  # past the interpreter's digit limit
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _case_count(text: str) -> int:
    """A run that checks nothing is refused: the count must be at least 1."""
    value = _int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _rational(text: str) -> Fraction:
    """An exact int or "p/q" argument."""
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# each vdim target flag's reader and its value when left out, for the keys the --target kind reads
_TARGET_FLAGS = {
    "r": (_int, 1), "s": (_int, 0), "d": (_int, 0),
    "tau": (_rational, 0), "phi_int": (_rational, 0),
}


_RANGE_CHUNK = re.compile(rf"({INT_TEXT})(?:\.\.({INT_TEXT}))?")


def _parse_range(flag: str, text: str) -> tuple[range, ...]:
    """Comma-separated chunks N or N..M (inclusive), each kept as a range object."""
    chunks = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        match = _RANGE_CHUNK.fullmatch(chunk)
        if match is None:
            raise CliError(f"argument --{flag}: invalid range chunk {chunk!r}, expected N or N..M")
        lo, hi = match.groups()
        chunks.append(range(int(lo), int(hi or lo) + 1))
    if not any(chunks):
        raise CliError(f"argument --{flag}: empty range {text!r}")
    return tuple(chunks)


def _cmd_vdim(args) -> int:
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
    if args.json:
        print(document)
    else:
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
        print(
            f"  assembled route, which forces the (s-2) reading: {assembled}",
            file=sys.stderr,
        )
        print(f"  difference: {closed - assembled}", file=sys.stderr)
        return 2
    return 0


def _load_bundle_spec(text: str) -> dict:
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
    if args.json:
        print(document)
    else:
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
        print(
            json.dumps(
                {
                    "seed": args.seed,
                    "cases": result.cases,
                    "passed": result.passed,
                    "failures": [t for _, t in result.failures[:5]],
                }
            )
        )
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
    lowest = [min(chunk.start for chunk in axis if chunk) for axis in axes]
    for n_rr in itertools.chain.from_iterable(chunk[:2] for chunk in axes[2]):
        ModuliParams(*lowest[:2], n_rr)
    TargetSpec.psuper(*lowest[3:])

    def write(stream) -> int:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        rows = 0
        for point in _grid(axes):
            params, target = ModuliParams(*point[:3]), TargetSpec.psuper(*point[3:])
            value = vdim_closed(params, target)
            bosonic = bosonic_dimension(params, target)
            proper = properness_hint(target, params)
            writer.writerow([*point, value.body, value.soul, bosonic, proper])
            rows += 1
        return rows

    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as handle:
            rows = write(handle)
        print(f"wrote {rows} rows to {args.csv}")
    else:
        write(sys.stdout)
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
        print(
            json.dumps(
                {
                    "seed": args.seed,
                    "cases": args.cases,
                    "suites": {
                        r.name: {"passed": r.passed, "failures": [t for _, t in r.failures[:5]]}
                        for r in results
                    },
                }
            )
        )
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


_COMMANDS = {
    "vdim": _cmd_vdim,
    "chi": _cmd_chi,
    "grr-check": _cmd_grr_check,
    "table": _cmd_table,
    "identities": _cmd_identities,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        for name, value in vars(args).items():
            # argparse drops the "--" of --flag=-- and stores an empty list, unchecked
            if isinstance(value, list):
                raise CliError(f"argument --{name.replace('_', '-')}: expected one argument")
        return _COMMANDS[args.subcommand](args)
    except (CliError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    code = main()
    gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":
    entrypoint()

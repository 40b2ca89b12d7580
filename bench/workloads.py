"""The three seeded workloads: input generators, one operation per input, exact checks.

An operation returns True when every exact check on its output passed
and False otherwise; an exception also counts as a failed operation.
Operations reach the package only through attribute lookups on the
imported modules (``sg.chi_super``, ``cli.main``), so the tracer's
patches are seen without rebuilding the operations.

Each expected value below comes from the benchmark's own closed forms
(classical Riemann-Roch on degree lists, the dimension formula, the
binomial), never from the package under test.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import threading
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from random import Random
from typing import Callable

CSV_HEADER = "g,n_ns,n_rr,r,s,d,vdim_body,vdim_soul,bosonic_dim,proper"
SUITES = (
    "whitney",
    "tensor-character",
    "parity-rules",
    "todd-multiplicativity",
    "todd-sigma1-duality",
    "star-ring",
    "twisted-character",
)
CHILD_TIMEOUT_S = 120


@dataclass(frozen=True)
class Workload:
    name: str
    # inputs(rng) -> list; the timed loop cycles through it
    inputs: Callable[[Random], list]
    # op(ctx, item) -> bool, True when every check passed
    op: Callable[["Context", object], bool]
    warmup_ops: int
    # ops of the fixed batch a traced run replays (a prefix of the inputs)
    trace_ops: int
    # each operation runs in a child process rather than in this one
    in_children: bool
    # fixed per workload so a faster program cannot change which one is
    # reported: the highest of p50, p90, p99, p99.9 with at least 10 samples
    # beyond it in a slow reference run, unless host pauses set that one
    # (bench/README.md, op_tail_ms)
    tail_pct: float


@dataclass
class Context:
    """What an operation needs: the imported package and the checkout."""

    root: Path
    sg: object = None
    cli: object = None
    in_process_cli: bool = False
    max_child_rss_kb: int = 0


# -- exact oracles owned by the benchmark ------------------------------------


def scalar_text(body: Fraction, soul: Fraction) -> str:
    """The documented text form ``p/q + (r/s)*P`` of body + P*soul."""
    if not soul:
        return str(body)
    mag = abs(soul)
    if mag == 1:
        p_part = "P"
    elif mag.denominator == 1:
        p_part = f"{mag}*P"
    else:
        p_part = f"({mag})*P"
    sign = "-" if soul < 0 else "+"
    if not body:
        return p_part if sign == "+" else f"-{p_part}"
    return f"{body} {sign} {p_part}"


def closed_vdim(g, n_ns, n_rr, r, s, tau, phi_int) -> tuple[Fraction, Fraction]:
    """Virtual dimension (body, soul) with the (s-2) odd-part coefficient."""
    integral = Fraction(tau) - Fraction(phi_int)
    body = (r - 3) * (1 - g) + n_ns + n_rr * (1 + Fraction(s, 2)) + integral
    soul = -((1 - g) * (s - 2) + n_ns + Fraction(n_rr, 2) * (r + 1) + integral)
    return body, soul


def psuper_vdim(g, n_ns, n_rr, r, s, d) -> tuple[Fraction, Fraction]:
    return closed_vdim(g, n_ns, n_rr, r, s, d * (r + 1), -s * d)


def classical_chi(genus: int, n_rr: int, even, odd) -> str:
    """chi of gr U by classical Riemann-Roch on each parity, as text."""
    deg_l = genus - 1 + n_rr // 2
    one_minus_g = 1 - genus
    gr_even = list(even) + [m + deg_l for m in odd]
    gr_odd = list(odd) + [a + deg_l for a in even]
    chi_even = sum(gr_even) + len(gr_even) * one_minus_g
    chi_odd = sum(gr_odd) + len(gr_odd) * one_minus_g
    return scalar_text(Fraction(chi_even), Fraction(-chi_odd))


# -- curve_calculator ----------------------------------------------------------

GRID = [
    (g, n_ns, n_rr, r, s, d)
    for g in range(4)
    for n_ns in range(5)
    for n_rr in (0, 2, 4, 6)
    for r in range(1, 5)
    for s in range(4)
    for d in range(4)
]
CUSTOM_PER_PASS = 1024
CHI_PER_PASS = 2048


def _rational(rng: Random, bound: int) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, 6))


def curve_inputs(rng: Random) -> list:
    """One pass: the default table grid, custom targets and chi requests, shuffled."""
    items = []
    for g, n_ns, n_rr, r, s, d in GRID:
        request = {
            "params": {"g": g, "n_ns": n_ns, "n_rr": n_rr},
            "target": {"kind": "psuper", "r": r, "s": s, "d": d},
        }
        items.append(("vdim", request, psuper_vdim(g, n_ns, n_rr, r, s, d)))
    for _ in range(CUSTOM_PER_PASS):
        g, n_ns, n_rr = rng.randint(0, 3), rng.randint(0, 4), rng.choice((0, 2, 4, 6))
        r, s = rng.randint(1, 4), rng.randint(0, 3)
        tau = _rational(rng, 30)
        # a target with no odd directions carries no odd degree data
        phi_int = _rational(rng, 30) if s else Fraction(0)
        request = {
            "params": {"g": g, "n_ns": n_ns, "n_rr": n_rr},
            "target": {"kind": "custom", "r": r, "s": s, "tau": str(tau), "phi_int": str(phi_int)},
        }
        items.append(("vdim", request, closed_vdim(g, n_ns, n_rr, r, s, tau, phi_int)))
    for _ in range(CHI_PER_PASS):
        genus, n_rr = rng.randint(0, 3), rng.choice((0, 2, 4, 6))
        even = [rng.randint(-9, 9) for _ in range(rng.randint(0, 4))]
        odd = [rng.randint(-9, 9) for _ in range(rng.randint(0, 4))]
        spec = {"even_degs": even, "odd_degs": odd}
        items.append(("chi", (genus, n_rr, spec), classical_chi(genus, n_rr, even, odd)))
    rng.shuffle(items)
    return items


def curve_op(ctx: Context, item) -> bool:
    sg = ctx.sg
    kind, request, expected = item
    if kind == "chi":
        genus, n_rr, spec = request
        curve = sg.SplitSupercurve.susy(genus, n_rr)
        bundle = sg.SuperBundle.from_json(spec, default_model=curve.model)
        chi = sg.chi_super(curve, bundle)
        return chi == sg.rr_oracle(curve, bundle) and str(chi) == expected
    response = sg.evaluate_request(request)
    closed = response["closed"]
    body, soul = expected
    ok = response["consistent"] is True
    ok = ok and closed["body"] == str(body) and closed["soul"] == str(soul)
    if request["target"]["kind"] == "psuper":
        ok = ok and response["bosonic_dimension"] == closed["body"]
    return ok


# -- projspace_classes -----------------------------------------------------------

DEGREE_BOUND = 60
BLOCKS_PER_PASS = 100


def projspace_inputs(rng: Random) -> list:
    """Seeded cases in blocks of 24: every block holds each k in 1..6 at four rank levels.

    Degrees, coefficients and order are seeded; the rank mix is the same
    in every block, so the work per pass hardly depends on the seed.
    """

    def degs(rank: int) -> tuple:
        return tuple(rng.randint(-DEGREE_BOUND, DEGREE_BOUND) for _ in range(rank))

    def element(k: int) -> tuple:
        # dense fractional body and soul in every degree
        return tuple((_rational(rng, 9), _rational(rng, 9)) for _ in range(k + 1))

    items = []
    for _ in range(BLOCKS_PER_PASS):
        block = [
            {
                "k": k,
                "e": (degs(level), degs(3 - level)),
                "f": (degs(3 - level), degs(level)),
                "odd": degs(level),
                "normal": degs(3 - level),
                "x": element(k),
                "y": element(k),
                "j": rng.randint(0, 20),
            }
            for k in range(1, 7)
            for level in range(4)
        ]
        rng.shuffle(block)
        items += block
    return items


def projspace_op(ctx: Context, case) -> bool:
    sg = ctx.sg
    k = case["k"]
    model = sg.ChowModel.proj_space(k)
    e = sg.SuperBundle.from_degrees(model, *case["e"])
    f = sg.SuperBundle.from_degrees(model, *case["f"])
    ok = e.direct_sum(f).chern_total() == e.chern_total().ring_mul(f.chern_total())
    ch_e, ch_f = e.chern_character(), f.chern_character()
    ok &= e.direct_sum(f).chern_character() == ch_e + ch_f
    ok &= e.tensor(f).chern_character() == ch_e.ring_mul(ch_f)
    ok &= e.direct_sum(f).todd() == e.todd().ring_mul(f.todd())
    odd = sg.SuperBundle.from_degrees(model, (), case["odd"])
    ok &= odd.todd() == odd.dual().sigma1()

    nd = sg.NormalData.from_degrees(model, case["normal"])

    def kclass(coeffs):
        return sg.KClass(
            sg.GradedElement.from_coeffs(model, [sg.SuperScalar(b, s) for b, s in coeffs])
        )

    x, y = kclass(case["x"]), kclass(case["y"])
    ok &= sg.star_product(sg.j_map(x, nd), sg.j_map(y, nd), nd) == sg.j_map(x * y, nd)
    ok &= sg.star_product(x, sg.star_identity(nd), nd) == x
    ok &= sg.ch_twisted(sg.star_product(x, y, nd), nd) == sg.ch_twisted(x, nd).ring_mul(
        sg.ch_twisted(y, nd)
    )
    ok &= sg.ch_twisted(sg.j_map(x, nd), nd) == x.ch_image

    # integral of e^{jh} td(P^k) = C(j+k, k); T(P^k) + O = O(1)^{k+1}
    j = case["j"]
    td_pk = sg.SuperBundle.from_degrees(model, (1,) * (k + 1), ()).todd()
    line = sg.SuperBundle.from_degrees(model, (j,), ())
    ok &= str(line.chern_character().ring_mul(td_pk).integrate()) == str(math.comb(j + k, k))
    return bool(ok)


# -- cli_calls ---------------------------------------------------------------------

ROTATIONS = 64
GRR_CASES = 50
IDENTITY_CASES = 5


def _parse_range(text: str) -> list[int]:
    lo, _, hi = text.partition("..")
    return list(range(int(lo), int(hi or lo) + 1))


def cli_inputs(rng: Random) -> list:
    """Seeded arguments for a fixed rotation of the five subcommands (seven calls)."""
    items = []
    for _ in range(ROTATIONS):
        g, n_ns, n_rr = rng.randint(0, 3), rng.randint(0, 4), rng.choice((0, 2, 4, 6))
        r, s, d = rng.randint(1, 4), rng.randint(0, 3), rng.randint(0, 3)
        src = ["--g", str(g), "--ns", str(n_ns), "--rr", str(n_rr)]
        items.append(
            ("vdim", ["vdim", "--target", "psuper", "--r", str(r), "--s", str(s), "--d", str(d)] + src,
             ("psuper", psuper_vdim(g, n_ns, n_rr, r, s, d)))
        )
        tau = _rational(rng, 30)
        phi_int = _rational(rng, 30) if s else Fraction(0)
        items.append(
            ("vdim", ["vdim", "--target", "custom", "--r", str(r), "--s", str(s),
                      f"--tau={tau}", f"--phi-int={phi_int}"] + src,
             ("custom", closed_vdim(g, n_ns, n_rr, r, s, tau, phi_int)))
        )
        items.append(
            ("vdim", ["vdim", "--target", "point"] + src,
             ("point", closed_vdim(g, n_ns, n_rr, 0, 0, 0, 0)))
        )
        even = [rng.randint(-9, 9) for _ in range(rng.randint(0, 4))]
        odd = [rng.randint(-9, 9) for _ in range(rng.randint(0, 4))]
        bundle = json.dumps({"even_degs": even, "odd_degs": odd})
        items.append(
            ("chi", ["chi", "--g", str(g), "--rr", str(n_rr), "--bundle", bundle],
             classical_chi(g, n_rr, even, odd))
        )
        g_lo = rng.randint(0, 2)
        ranges = {
            "--g": f"{g_lo}..{g_lo + 1}", "--ns": f"0..{rng.randint(0, 2)}", "--rr": "0,2",
            "--r": str(r), "--s": "0..1", "--d": f"0..{rng.randint(0, 3)}",
        }
        items.append(("table", ["table"] + [t for kv in ranges.items() for t in kv], ranges))
        seed = rng.randint(0, 10**6)
        items.append(("grr-check", ["grr-check", "--seed", str(seed), "--cases", str(GRR_CASES)], seed))
        seed = rng.randint(0, 10**6)
        items.append(
            ("identities", ["identities", "--seed", str(seed), "--cases", str(IDENTITY_CASES)], seed)
        )
    return items


def check_cli(item, code: int, out: str) -> bool:
    """Exit 0 and the documented output, compared against the benchmark's oracles."""
    name, argv, expected = item
    if code != 0:
        return False
    lines = out.splitlines()
    if name == "vdim":
        kind, (body, soul) = expected
        response = json.loads("\n".join(lines[2:]))
        ok = lines[0] == scalar_text(body, soul) and lines[1] == "consistency: True"
        ok = ok and response["consistent"] is True
        if kind == "psuper":
            ok = ok and response["bosonic_dimension"] == str(body)
        return ok
    if name == "chi":
        return lines[0] == expected and json.loads("\n".join(lines[1:]))["match"] is True
    if name == "table":
        ranges = expected
        if lines[0] != CSV_HEADER:
            return False
        rows = [row.split(",") for row in lines[1:]]
        gs, nss, ds = (_parse_range(ranges[flag]) for flag in ("--g", "--ns", "--d"))
        if len(rows) != len(gs) * len(nss) * 2 * 2 * len(ds):
            return False
        for row in rows:
            g, n_ns, n_rr, r, s, d = (int(v) for v in row[:6])
            body, soul = psuper_vdim(g, n_ns, n_rr, r, s, d)
            proper = "proper" if s == 0 or (d == 0 and n_rr == 0) else "not_proper"
            if row[6:] != [str(body), str(soul), str(body), proper]:
                return False
        return True
    if name == "grr-check":
        return lines == [
            f"grr-check: seed={expected} cases={GRR_CASES} passed={GRR_CASES} failed=0"
        ]
    if name == "identities":
        return lines == [f"identities: seed={expected} cases-per-suite={IDENTITY_CASES}"] + [
            f"  {suite}: {IDENTITY_CASES}/{IDENTITY_CASES} pass" for suite in SUITES
        ]
    raise ValueError(f"unknown subcommand {name!r}")


def child_env(root: Path) -> dict:
    """Environment of every child: the checkout's src/ on the path, bytecode caching on.

    An installed package runs from cached bytecode; dropping
    PYTHONDONTWRITEBYTECODE lets the untimed warm-up fill the cache under
    src/ whatever the caller's environment says.
    """
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(argv: list[str], root: Path, env: dict) -> tuple[int, str, int]:
    """Run one child process to the end: exit code, stdout and stderr, peak RSS in KB.

    ``os.wait4`` blocks until the child ends and returns the child's own
    resource usage.  ``Popen.wait`` with a timeout would poll in sleeps
    of up to 50 ms, too coarse to time a child; a watchdog kills a hung
    child instead.
    """
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env, cwd=root
    )
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.decode("utf-8", "replace"), usage.ru_maxrss


def run_cli_process(ctx: Context, argv: list[str]) -> tuple[int, str]:
    """One fresh ``python -m supergrr`` process; records its peak RSS."""
    code, out, rss_kb = run_child(
        [sys.executable, "-m", "supergrr", *argv], ctx.root, child_env(ctx.root)
    )
    ctx.max_child_rss_kb = max(ctx.max_child_rss_kb, rss_kb)
    return code, out


def run_cli_in_process(ctx: Context, argv: list[str]) -> tuple[int, str]:
    """``cli.main(argv)`` in this process with stdout and stderr captured."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(buffer):
        code = ctx.cli.main(argv)
    return code, buffer.getvalue()


def cli_op(ctx: Context, item) -> bool:
    run = run_cli_in_process if ctx.in_process_cli else run_cli_process
    code, out = run(ctx, item[1])
    return check_cli(item, code, out)


# why each workload exists is recorded in BENCHMARK.json and README.md
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "curve_calculator",
            curve_inputs,
            curve_op,
            warmup_ops=512,
            trace_ops=2048,
            tail_pct=99.0,
            in_children=False,
        ),
        Workload(
            "projspace_classes",
            projspace_inputs,
            projspace_op,
            warmup_ops=12,
            trace_ops=48,
            tail_pct=99.0,
            in_children=False,
        ),
        Workload(
            "cli_calls",
            cli_inputs,
            cli_op,
            warmup_ops=1,
            trace_ops=14,
            tail_pct=90.0,
            in_children=True,
        ),
    )
}

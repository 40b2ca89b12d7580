"""A fresh interpreter that runs the CLI never loads dataclasses or inspect.

Together they cost more than a tenth of a `supergrr` call's wall time,
so they must stay out of the import graph of the package and its CLI.
Nor does importing the CLI load what only some subcommands use: `json`
(vdim, chi and every --json), `csv` (table), the suites and `random`
(grr-check, identities), `argparse`, which only help and errors need,
or `typing` and `pathlib`, which nothing needs.  A well-formed command of
each subcommand runs without argparse and the `gettext` and `locale` it
loads; `--help` still loads it.

The class kernels on P^r are compiled on first use, never at import,
so importing the CLI leaves every kernel cache empty.  So are the
per-curve classes of the Riemann-Roch engine.  A well-formed `vdim`
then compiles exactly three kernels, so no change adds per-process
compile cost unseen.

The children import the same copy of the package as the tests, from the
checkout's `src` or from an installed copy alike.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import supergrr

SRC = Path(supergrr.__file__).resolve().parent.parent
SLOW_IMPORTS = ("dataclasses", "inspect")
UNUSED_AT_IMPORT = ("typing", "pathlib", "json", "csv", "random", "supergrr.suites", "argparse")
HELP_AND_ERROR_IMPORTS = ("argparse", "gettext", "locale")
KERNEL_CACHES = ("_product_kernel", "_class_kernel")


def _run_fresh(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


def test_importing_the_cli_loads_no_slow_module():
    probe = "import sys, supergrr.cli; print(' '.join(sorted(sys.modules)))"
    proc = _run_fresh("-c", probe)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "supergrr.cli" in loaded
    assert loaded.isdisjoint(SLOW_IMPORTS), sorted(loaded & set(SLOW_IMPORTS))


def test_importing_the_cli_without_site_loads_no_subcommand_module():
    # -S keeps site packages from preloading any of them
    probe = "import sys, supergrr.cli; print(' '.join(sorted(sys.modules)))"
    proc = _run_fresh("-S", "-c", probe)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "supergrr.cli" in loaded
    assert loaded.isdisjoint(UNUSED_AT_IMPORT), sorted(loaded & set(UNUSED_AT_IMPORT))


def test_importing_the_cli_compiles_no_kernel():
    # every cached *_kernel of the loaded supergrr modules, found by name, with its entries
    probe = (
        "import sys, supergrr.cli\n"
        "for name, module in sorted(sys.modules.items()):\n"
        "    if name.startswith('supergrr'):\n"
        "        for attr, value in vars(module).items():\n"
        "            if attr.endswith('_kernel') and hasattr(value, 'cache_info'):\n"
        "                print(attr, value.cache_info().currsize)\n"
    )
    proc = _run_fresh("-c", probe)
    assert proc.returncode == 0, proc.stderr
    caches = dict(line.split() for line in proc.stdout.splitlines())
    assert sorted(caches) == sorted(KERNEL_CACHES)
    assert set(caches.values()) == {"0"}, caches


def test_importing_the_cli_builds_no_curve_class():
    probe = (
        "import supergrr.cli\n"
        "from supergrr.grr import _curve_class, _curve_todd\n"
        "print(_curve_class.cache_info().currsize, _curve_todd.cache_info().currsize)\n"
    )
    proc = _run_fresh("-c", probe)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0"]


WELL_FORMED = {
    "vdim": ["vdim", "--target", "psuper", "--r", "1", "--s", "1", "--d", "1", "--g", "0"],
    "chi": ["chi", "--g", "1", "--rr", "2", "--bundle", '{"even_degs": [1], "odd_degs": [0]}'],
    "table": ["table", "--g", "0", "--ns", "0..1", "--rr", "0", "--r", "1", "--s", "0", "--d=0"],
    "grr-check": ["grr-check", "--seed", "1", "--cases", "5"],
    "identities": ["identities", "--seed=2", "--cases", "1", "--json"],
}


def test_a_vdim_call_compiles_three_kernels():
    # what a short process pays to compile: ch and td at top 1 and the unshared product at
    # width 2; asking for each again afterwards compiles nothing more
    probe = (
        "import contextlib, io, supergrr.cli\n"
        "from supergrr.chowring import _product_kernel\n"
        "from supergrr.superbundle import _class_kernel\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = supergrr.cli.main({WELL_FORMED['vdim']!r})\n"
        "caches = (_product_kernel, _class_kernel)\n"
        "compiled = [c.cache_info().misses for c in caches]\n"
        "_product_kernel(2, False), _class_kernel('ch', 1), _class_kernel('td', 1)\n"
        "print(code, compiled, [c.cache_info().misses for c in caches])\n"
    )
    proc = _run_fresh("-c", probe)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 [1, 2] [1, 2]\n"


def _imported_by(*argv: str) -> set[str]:
    # -X importtime logs every module the run imports, one per stderr line
    proc = _run_fresh("-X", "importtime", "-m", "supergrr", *argv)
    assert proc.returncode == 0, proc.stderr
    return {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}


@pytest.mark.parametrize("argv", list(WELL_FORMED.values()), ids=list(WELL_FORMED))
def test_module_invocation_loads_no_slow_module(argv):
    loaded = _imported_by(*argv)
    assert "supergrr.cli" in loaded
    assert loaded.isdisjoint(SLOW_IMPORTS), sorted(loaded & set(SLOW_IMPORTS))
    unused = set(HELP_AND_ERROR_IMPORTS)
    assert loaded.isdisjoint(unused), sorted(loaded & unused)


def test_help_still_loads_argparse():
    assert "argparse" in _imported_by("vdim", "--help")

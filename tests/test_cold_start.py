"""A fresh interpreter that runs the CLI never loads dataclasses or inspect.

Together they cost more than a tenth of a `supergrr` call's wall time,
so they must stay out of the import graph of the package and its CLI.
Nor does importing the CLI load what only some subcommands use: `csv`
(table), the suites and `random` (grr-check, identities), or `typing`
and `pathlib`, which nothing needs.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
SLOW_IMPORTS = ("dataclasses", "inspect")
UNUSED_AT_IMPORT = ("typing", "pathlib", "csv", "random", "supergrr.suites")


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


@pytest.mark.parametrize(
    "argv",
    [
        ["vdim", "--target", "psuper", "--r", "1", "--s", "1", "--d", "1", "--g", "0"],
        ["grr-check", "--seed", "1", "--cases", "5"],
    ],
    ids=["vdim", "grr-check"],
)
def test_module_invocation_loads_no_slow_module(argv):
    # -X importtime logs every module the run imports, one per stderr line
    proc = _run_fresh("-X", "importtime", "-m", "supergrr", *argv)
    assert proc.returncode == 0, proc.stderr
    loaded = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
    assert "supergrr.cli" in loaded
    assert loaded.isdisjoint(SLOW_IMPORTS), sorted(loaded & set(SLOW_IMPORTS))

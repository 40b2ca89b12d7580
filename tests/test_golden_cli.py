"""The CLI's exact bytes on a fixed set of commands, pinned by exit code and sha256.

The digests were captured from the coefficient-by-coefficient Q[P]
implementation that the split Q x Q kernel replaced, so any change to
the printed text, JSON or CSV shows up here.  The commands cover the
full default ``table`` sweep, the seeded ``grr-check`` and
``identities`` runs, the README ``vdim`` and ``chi`` examples, and a
``vdim --json`` request with an odd ``--rr``, which is refused with exit
code 1 and prints nothing to stdout (``test_cli`` pins its ``error:``
line).

The fast commands, every ``vdim`` and ``chi`` entry, are also run as
``python -m supergrr`` processes, so the bytes and exit code that leave
the process through its exit path are pinned too.  The ``table``,
``grr-check`` and ``identities`` entries run in-process only.
"""

import contextlib
import hashlib
import io
import json
import subprocess
import sys

import pytest

from supergrr.cli import main

BUNDLE_FILE = {"even_degs": [3, "1/2"], "odd_degs": [-2, "-5/3"]}

GOLDEN = {
    "table": (
        ["table"],
        0,
        "97fbb15af6eba847ae8856034dc9f10a6a5f58a5b54a9ef71faf29a0c89bcfdf",
    ),
    "grr-check": (
        ["grr-check", "--seed", "42", "--cases", "1000", "--json"],
        0,
        "89b549db10572453056acb643dcf3e6a3995a139357d4e5e6d163a61373ccb6b",
    ),
    "identities": (
        ["identities", "--seed", "7", "--cases", "500", "--json"],
        0,
        "d297caccf4ee4332c6e46a3381b476a467dd0c97952be0b693163f03c73361a3",
    ),
    "vdim-psuper": (
        ["vdim", "--target", "psuper", "--r", "3", "--s", "0", "--d", "1", "--g", "0"],
        0,
        "316fee89918a28fef80fdb0cb236c85b7a1fda6c49f9b8791553cb363896b075",
    ),
    "vdim-custom": (
        ["vdim", "--target", "custom", "--r", "2", "--s", "1", "--tau", "3",
         "--phi-int", "-1", "--g", "1"],
        0,
        "b55df201ed6d08340159d119ec71c456b2b6751918f6798c47c428e1dfd6a10e",
    ),
    "vdim-custom-fraction": (
        ["vdim", "--target", "custom", "--r", "1", "--s", "0", "--tau=-3/2"],
        0,
        "956704f6ced954ec08f0708c3ab4c9511da6b4df16ef505bdcbdbbe7d5b446e4",
    ),
    "vdim-point": (
        ["vdim", "--target", "point", "--g", "2"],
        0,
        "b7ff8e9a5cc59e2b4b979b52d4bee2abf8cb4a6ff07982e2ebb78bf201f9a426",
    ),
    "vdim-paper-sign": (
        ["vdim", "--target", "psuper", "--r", "2", "--s", "1", "--d", "1", "--g", "0",
         "--use-paper-dimmod2-sign"],
        2,
        "8e5fef8a06ef39e70a2174b056cf6e4e35211164bee52fe554928b11be47d5b1",
    ),
    "vdim-odd-rr-json": (
        ["vdim", "--target", "psuper", "--r", "2", "--s", "1", "--d", "1", "--g", "0",
         "--rr", "1", "--json"],
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "chi-inline": (
        ["chi", "--g", "2", "--rr", "0", "--bundle", '{"even_degs": [0], "odd_degs": []}'],
        0,
        "30a246947240f710418ee75db14adb441ab2d1cf1e2587e2015cfcc8071a8a3b",
    ),
    "chi-file": (
        ["chi", "--g", "0", "--rr", "2", "--bundle", "@BUNDLE_FILE"],
        0,
        "0f7f7609260eee7462d79952bfb1cd2a963c57a69737edd00662290bb67a4fde",
    ),
}


FAST = [name for name in GOLDEN if name.startswith(("vdim-", "chi-"))]


def _case(name, tmp_path):
    argv, code, digest = GOLDEN[name]
    bundle_file = tmp_path / "bundle.json"
    bundle_file.write_text(json.dumps(BUNDLE_FILE), encoding="utf-8")
    return [arg.replace("BUNDLE_FILE", str(bundle_file)) for arg in argv], code, digest


@pytest.mark.parametrize("name", list(GOLDEN))
def test_cli_output_is_byte_identical(name, tmp_path):
    argv, code, digest = _case(name, tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == code
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("name", FAST)
def test_cli_process_output_is_byte_identical(name, tmp_path):
    argv, code, digest = _case(name, tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "supergrr", *argv], capture_output=True, timeout=120
    )
    assert proc.returncode == code, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == digest

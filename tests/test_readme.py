"""The README's library example runs verbatim and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "README has no python block under 'Library example'"
    return match.group(1)


def test_readme_library_example_runs():
    source = library_example()
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        exec(compile(source, str(README), "exec"), {"__name__": "readme_example"})
    # each print(...)  # value comment in the block is what that line prints
    expected = [line.split("#", 1)[1].strip() for line in source.splitlines() if "print(" in line]
    assert expected
    assert stdout.getvalue().splitlines() == expected

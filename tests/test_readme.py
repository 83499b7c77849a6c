"""The README's library example runs, and prints what its comments say.

Each `python` block of README.md runs in a fresh interpreter with `src` on
the path.  A `print(...)` line carries the line it prints as its comment,
up to a `;` that starts a note.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)


def expected_lines(code: str) -> list[str]:
    return [
        line.split("#", 1)[1].split(";", 1)[0].strip()
        for line in code.splitlines()
        if line.startswith("print(")
    ]


def test_readme_has_a_python_example():
    assert BLOCKS
    assert expected_lines(BLOCKS[0])[:2] == ["(1, 9)", "2"]


@pytest.mark.parametrize("code", BLOCKS, ids=lambda code: code.splitlines()[0])
def test_readme_python_block_prints_its_comments(code):
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == expected_lines(code)

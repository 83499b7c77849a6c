"""The README's library example runs, and prints what its comments say, and
its element-naming rule for products is the parser's.

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

from cayspec.cli import parse_instance
from cayspec.errors import ParseError

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


def readme_product_names(orders: list[int]) -> list[str]:
    """Element names of a product of cyclic groups by the README's rule: two
    factors give `(x,y)`, and more nest from the left, a product being the
    product of all its factors but the last, and the last."""
    names = [str(x) for x in range(orders[0])]
    for m in orders[1:]:
        names = [f"({x},{y})" for x in names for y in range(m)]
    return names


def test_readme_product_names_nest_from_the_left():
    text = (ROOT / "README.md").read_text()
    for quoted in ("`factors = 2,2,3`", "`((0,0),1)`", "`(0,0,1)`"):
        assert quoted in text
    for factors in ([2, 4], [2, 2, 3]):
        header = f"[group]\nkind = product\nfactors = {','.join(map(str, factors))}\n\n"
        doc = parse_instance(header + "[colour]\n")
        assert list(doc.group.names) == readme_product_names(factors)
    doc = parse_instance(header + "[connection]\nelements = ((0,0),1), ((0,0),2)\n")
    assert [doc.group.names[g] for g, m in enumerate(doc.colour.values) if m] == ["((0,0),1)", "((0,0),2)"]
    with pytest.raises(ParseError, match=r"unknown element name '\(0,0,1\)'$"):
        parse_instance(header + "[connection]\nelements = (0,0,1), (0,0,2)\n")

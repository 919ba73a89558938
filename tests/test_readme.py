"""Every fenced ``python`` block of README.md runs, each in a fresh
namespace, so the documented library calls stay true."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text()
# (line of the block's first code line, the code)
BLOCKS = [
    (TEXT.count("\n", 0, m.start(1)) + 1, m.group(1))
    for m in re.finditer(r"^```python\n(.*?)^```$", TEXT, flags=re.M | re.S)
]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("line, code", BLOCKS, ids=[f"line {line}" for line, _ in BLOCKS])
def test_block_runs(line, code):
    # Blank lines in front keep README's line numbers in a traceback.
    exec(compile("\n" * (line - 1) + code, str(README), "exec"), {"__name__": "readme"})

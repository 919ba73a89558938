"""The rule of ``tools/code_lines.py``, the counter behind the code-line
figures in ROADMAP.md, pinned on small sources."""

import importlib.util
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def count(tool, source: str) -> int:
    return tool.code_lines(textwrap.dedent(source))


def test_docstrings_do_not_count(tool):
    source = '''
        """Module docstring,
        over two lines."""


        class A:
            """Class docstring."""

            def f(self):
                """Function
                docstring."""
                return 1


        async def g():
            """Async function docstring."""
            return 2
    '''
    # class A, def f, return 1, async def g, return 2
    assert count(tool, source) == 5


def test_comments_and_blank_lines_do_not_count(tool):
    source = """
        # a comment

        x = 1  # a trailing comment still leaves code on the line
            # an indented comment


        y = 2
    """
    assert count(tool, source) == 2


def test_string_statement_that_is_not_a_docstring_counts(tool):
    source = '''
        def f():
            x = 1
            """not a docstring: it does not open the body"""
            return x


        "nor this, after the first statement"
    '''
    assert count(tool, source) == 5


def test_each_line_of_a_multiline_statement_counts(tool):
    source = """
        total = (
            1
            + 2
        )
        text = '''a
        b'''
    """
    assert count(tool, source) == 6


def test_script_prints_a_total(tmp_path):
    (tmp_path / "a.py").write_text('"""Doc."""\nx = 1\n')
    (tmp_path / "b.py").write_text("def f():\n    return 2\n")
    out = subprocess.run(
        [sys.executable, str(SCRIPT), str(tmp_path)],
        capture_output=True, text=True, check=True,
    ).stdout
    lines = out.splitlines()
    assert lines[-1].split() == ["3", "total"]
    assert [line.split() for line in lines[:-1]] == [["1", "a.py"], ["2", "b.py"]]
    # Without an argument it counts the package.
    default = subprocess.run(
        [sys.executable, str(SCRIPT)], capture_output=True, text=True, check=True
    ).stdout
    assert default.splitlines()[-1].split()[1:] == ["total"]

"""Every function perfbench traces by name is still defined by its layer.

The tracer swaps module attributes for timing wrappers, so a layer that
renames or deletes one of them breaks the benchmark; this catches it here.
``perfbench/tracing.py`` is only parsed, never imported or written.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def own_targets() -> dict:
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "OWN_TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACING} assigns no OWN_TARGETS")


@pytest.mark.parametrize(
    "layer, attr", [(layer, attr) for layer, attrs in own_targets().items() for attr in attrs]
)
def test_traced_name_is_a_function(layer, attr):
    module = importlib.import_module(f"robustagg.{layer}")
    assert inspect.isfunction(getattr(module, attr, None))

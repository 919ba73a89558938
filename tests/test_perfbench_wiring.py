"""Every function perfbench traces by name is still defined by its layer,
and every attribute its counters read is still on what that function returns.

The tracer swaps module attributes for timing wrappers and reads counters
from the returned objects, so a layer that renames or deletes one of them
breaks the benchmark; this catches it here.  ``perfbench/tracing.py`` is only
parsed, never imported or written.
"""

import ast
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

from robustagg import aggregate, distsim, models, spatialmed
from robustagg.aggregate import LocalEstimate
from robustagg.detect import detect
from robustagg.models import ModelKind, ModelSpec, Observations

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
TREE = ast.parse(TRACING.read_text())


def assigned(name: str) -> ast.expr:
    for node in TREE.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return node.value
    raise AssertionError(f"{TRACING} assigns no {name}")


def own_targets() -> dict:
    return ast.literal_eval(assigned("OWN_TARGETS"))


def counter_reads() -> dict:
    """``{traced name: (attributes read on the returned object, attributes
    read on the items of what it iterates)}`` for every entry of
    ``COUNTERS``, whether a lambda or a function of the module."""
    functions = {n.name: n for n in TREE.body if isinstance(n, ast.FunctionDef)}
    counters = assigned("COUNTERS")
    reads = {}
    for key, value in zip(counters.keys, counters.values):
        fn = functions[value.id] if isinstance(value, ast.Name) else value
        arg = fn.args.args[0].arg
        items = {c.target.id for c in ast.walk(fn) if isinstance(c, ast.comprehension)}
        attrs = [n for n in ast.walk(fn) if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)]
        reads[ast.literal_eval(key)] = (
            sorted({n.attr for n in attrs if n.value.id == arg}),
            sorted({n.attr for n in attrs if n.value.id in items}),
        )
    return reads


def returned_objects() -> dict:
    """A real return value of each function a counter reads, the report
    with a rejected server on an error row."""
    rng = np.random.default_rng(8)
    obs = Observations(rng.standard_normal(60), rng.standard_normal((60, 2)))
    ests = [LocalEstimate(k, 50, rng.standard_normal(2) / 10.0, np.eye(2)) for k in range(1, 8)]
    ests.append(LocalEstimate(8, 50, np.zeros(3), np.eye(3)))
    report = detect(ests, np.zeros(2), np.eye(2))
    assert report.records[-1].error == aggregate.OTHER_DIMENSION
    return {
        "models.fit_local": models.fit_local(ModelSpec(ModelKind.LINEAR, 2), obs),
        "spatialmed.spatial_median": spatialmed.spatial_median(rng.standard_normal((5, 3)), np.ones(5)),
        "aggregate.huber_aggregate": aggregate.huber_aggregate(ests[:-1], np.eye(2)),
        "detect.detect": report,
        "distsim.encode_message": distsim.encode_message(ests[0]),
    }


@pytest.mark.parametrize(
    "layer, attr", [(layer, attr) for layer, attrs in own_targets().items() for attr in attrs]
)
def test_traced_name_is_a_function(layer, attr):
    module = importlib.import_module(f"robustagg.{layer}")
    assert inspect.isfunction(getattr(module, attr, None))


def test_counters_read_attributes_the_returned_objects_have():
    reads, objects = counter_reads(), returned_objects()
    assert sorted(reads) == sorted(objects)
    assert reads["detect.detect"] == (["records"], ["error", "theta_flagged"])
    for name, (attrs, item_attrs) in reads.items():
        for attr in attrs:
            value = getattr(objects[name], attr)
            for item in value if item_attrs else ():
                for item_attr in item_attrs:
                    assert hasattr(item, item_attr), (name, attr, item_attr)

"""Spans around the calls into robustagg's layers, recorded from outside.

A :class:`Tracer` swaps module attributes of the program for timing wrappers
and swaps the originals back afterwards, so the program's source is never
edited.  Each call through a wrapper records one span: name, start, end, the
span that was open when it started (its parent) and the unit of work it
belongs to.  Counters are read from the objects the wrapped functions return.
Spans stay in memory until :func:`write_spans` writes them out.

Self time is a span's duration minus the durations of its direct children.
Because the wrappers nest strictly, the self times of all spans of a unit add
up to the duration of the unit's root span.
"""

from __future__ import annotations

import functools
import inspect
import json
from collections import Counter, defaultdict
from time import perf_counter

# Functions each layer defines and calls through its own module globals.  The
# names that ``distsim`` and ``cli`` import from other layers are found by
# :func:`layer_targets` itself.
OWN_TARGETS = {
    "distsim": (
        "generate_dataset",
        "partition",
        "contaminate",
        "encode_message",
        "decode_message",
        "run_replicate",
    ),
    "cli": ("cmd_simulate", "cmd_pipeline"),
    "models": ("criterion_eval", "sandwich_variance"),
    "spatialmed": ("spatial_median",),
    "numkit": ("pd_project",),
}

IMPORTING_LAYERS = ("distsim", "cli")

# Layers of the central processor; with the wire codec they make up the
# "central" share of a unit.
CENTRAL_LAYERS = ("spatialmed", "aggregate", "detect")
CODEC_SPANS = ("distsim.encode_message", "distsim.decode_message")


def _detect_counts(report) -> dict:
    screened = [r for r in report.records if r.error is None]
    return {
        "screened": len(screened),
        "step2": sum(1 for r in screened if not r.theta_flagged),
        "flagged_theta": sum(1 for r in report.records if r.theta_flagged),
    }


# Counters read from the object a wrapped function returns.
COUNTERS = {
    "models.fit_local": lambda fit: {"newton_iters": fit.newton_iters},
    "spatialmed.spatial_median": lambda res: {
        "weiszfeld_iters": res.iterations,
        "anchored": int(res.anchored),
    },
    "aggregate.huber_aggregate": lambda res: {"huber_iters": res.iterations},
    "detect.detect": _detect_counts,
    "distsim.encode_message": lambda payload: {"wire_bytes": len(payload)},
}


class Span:
    __slots__ = ("name", "parent", "unit", "start", "end", "error", "detail", "counts")

    def __init__(self, name: str, parent: int | None, unit: int | None):
        self.name = name
        self.parent = parent
        self.unit = unit
        self.start = self.end = 0.0
        self.error = None
        self.detail = None
        self.counts = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


def layer_targets(modules: dict) -> list[tuple]:
    """(module, attribute, span name) for every call this benchmark traces.

    ``modules`` maps a layer name (``"distsim"``) to the imported module.
    """
    targets = []
    for layer, attrs in OWN_TARGETS.items():
        for attr in attrs:
            targets.append((modules[layer], attr, f"{layer}.{attr}"))
    for layer in IMPORTING_LAYERS:
        mod = modules[layer]
        for attr, obj in sorted(vars(mod).items()):
            origin = getattr(obj, "__module__", "") or ""
            if (
                inspect.isfunction(obj)
                and origin.startswith("robustagg.")
                and origin != mod.__name__
            ):
                targets.append((mod, attr, f"{origin.rsplit('.', 1)[1]}.{obj.__name__}"))
    return targets


class Tracer:
    """Records spans for the attributes it wraps; ``root`` names the unit span.

    Every call of the root opens a new unit; spans opened while it runs
    belong to that unit.  For a root called with a second positional argument
    (``run_replicate(config, index)``) that argument is kept as the span's
    ``detail``.
    """

    def __init__(self, root: str):
        self.root = root
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._unit: int | None = None
        self._next_unit = 0
        self._saved: list[tuple] = []

    def install(self, targets) -> None:
        for mod, attr, name in targets:
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._wrap(name, original))

    def restore(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        is_root = name == self.root
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if is_root:
                self._unit = self._next_unit
                self._next_unit += 1
            span = Span(name, stack[-1] if stack else None, self._unit)
            if is_root and len(args) > 1:
                span.detail = args[1]
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                # Keep the class and message only: the exception's traceback
                # would hold every frame of the failed call alive.
                span.error = (type(exc).__name__, str(exc))
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
                if is_root:
                    self._unit = None
            if counter is not None:
                span.counts = counter(result)
            return result

        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the durations of its direct children."""
    out = [s.seconds for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.seconds
    return out


def layer_metrics(spans: list[Span], slowdowns: list[float], root: str,
                  ingest_bytes_per_root: int = 0) -> dict:
    """Per-unit layer metrics from the spans of one traced segment.

    ``.ms`` is busy time (span durations) per unit, ``.self_ms`` is busy time
    minus child spans, ``.calls`` is calls per unit.  Each span's times are
    divided by the host slowdown measured around it (``slowdowns``, one per
    span).  Counters are totals per unit; the ``_frac`` and ``share`` values
    are ratios whose bases are stated in perfbench/README.md.
    """
    busy: dict = defaultdict(float)
    own: dict = defaultdict(float)
    calls: Counter = Counter()
    counts: Counter = Counter()
    central = 0.0
    models_errors = 0
    for s, self_s, slow in zip(spans, self_times(spans), slowdowns):
        busy[s.name] += s.seconds / slow
        own[s.name] += self_s / slow
        calls[s.name] += 1
        if s.counts:
            counts.update(s.counts)
        parent = spans[s.parent].name if s.parent is not None else ""
        layer = s.name.split(".", 1)[0]
        if parent == root and (layer in CENTRAL_LAYERS or s.name in CODEC_SPANS):
            central += s.seconds / slow
        if s.error is not None and layer == "models" and not parent.startswith("models."):
            models_errors += 1

    units = calls[root]
    if units == 0:
        raise ValueError(f"no {root} span was recorded")
    root_s = busy[root]

    def ms(name):
        return busy[name] * 1000.0 / units

    def self_ms(name):
        return own[name] * 1000.0 / units

    def per_unit(x):
        return x / units

    useful_evals = counts["newton_iters"] + calls["models.fit_local"]
    failed_roots = sum(1 for s in spans if s.name == root and s.error is not None)
    medians = calls["spatialmed.spatial_median"]
    return {
        "unit.ms": root_s * 1000.0 / units,
        "models.fit_local.ms": ms("models.fit_local"),
        "models.fit_local.calls": per_unit(calls["models.fit_local"]),
        "models.fit_local.share": busy["models.fit_local"] / root_s,
        "models.criterion_eval.ms": ms("models.criterion_eval"),
        "models.criterion_eval.calls": per_unit(calls["models.criterion_eval"]),
        "models.sandwich_variance.ms": ms("models.sandwich_variance"),
        "models.sandwich_variance.calls": per_unit(calls["models.sandwich_variance"]),
        "models.newton_iters": per_unit(counts["newton_iters"]),
        "models.evals_per_newton_iter": (
            calls["models.criterion_eval"] / useful_evals if useful_evals else 0.0
        ),
        "models.errors": per_unit(models_errors),
        "distsim.generate_dataset.ms": ms("distsim.generate_dataset"),
        "distsim.partition.ms": ms("distsim.partition"),
        "distsim.contaminate.ms": ms("distsim.contaminate"),
        "distsim.encode_message.ms": ms("distsim.encode_message"),
        "distsim.decode_message.ms": ms("distsim.decode_message"),
        "distsim.wire_bytes": per_unit(counts["wire_bytes"]),
        "distsim.run_replicate.self_ms": self_ms("distsim.run_replicate"),
        "distsim.run_study.self_ms": self_ms("distsim.run_study"),
        "distsim.replicates_failed": (
            per_unit(failed_roots) if root == "distsim.run_replicate" else 0.0
        ),
        "spatialmed.aggregate_sigma.ms": ms("spatialmed.aggregate_sigma"),
        "spatialmed.aggregate_sigma.self_ms": self_ms("spatialmed.aggregate_sigma"),
        "spatialmed.spatial_median.ms": ms("spatialmed.spatial_median"),
        "spatialmed.weiszfeld_iters": per_unit(counts["weiszfeld_iters"]),
        "spatialmed.anchored_frac": counts["anchored"] / medians if medians else 0.0,
        "numkit.pd_project.calls": per_unit(calls["numkit.pd_project"]),
        "aggregate.huber_aggregate.ms": ms("aggregate.huber_aggregate"),
        "aggregate.huber_iters": per_unit(counts["huber_iters"]),
        "aggregate.weighted_average.ms": ms("aggregate.weighted_average"),
        "detect.detect.ms": ms("detect.detect"),
        "detect.step2_frac": (
            counts["step2"] / counts["screened"] if counts["screened"] else 0.0
        ),
        "detect.flagged_theta": per_unit(counts["flagged_theta"]),
        "central.share": central / root_s,
        "cli.cmd_pipeline.self_ms": self_ms("cli.cmd_pipeline"),
        "cli.cmd_pipeline.self_share": (
            own["cli.cmd_pipeline"] / busy["cli.cmd_pipeline"]
            if busy["cli.cmd_pipeline"]
            else 0.0
        ),
        "cli.cmd_simulate.self_ms": self_ms("cli.cmd_simulate"),
        "cli.ingest_bytes": per_unit(calls["cli.cmd_pipeline"] * ingest_bytes_per_root),
    }


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("ms"):
        return "ms"
    if name.endswith(("_frac", "share")):
        return "frac"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_per_newton_iter"):
        return "ratio"
    return "count"


def unit_sum_errors(spans: list[Span], root: str) -> list[float]:
    """Per unit: |sum of self times of its spans - duration of its root|."""
    totals: dict = defaultdict(float)
    for s, self_s in zip(spans, self_times(spans)):
        if s.unit is not None:
            totals[s.unit] += self_s
    return [abs(totals[s.unit] - s.seconds) for s in spans if s.name == root]


def write_spans(spans: list[Span], path) -> None:
    """One JSON array per line: name, start, end, parent index, unit, error class."""
    with open(path, "w") as fh:
        for s in spans:
            error = None if s.error is None else s.error[0]
            fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.unit, error]) + "\n")

"""Benchmark of robustagg's replicate chain and CLI pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.

``--trace 0`` measures the end-to-end metrics: the only wrapper installed is
the timer on the unit's root function.  ``--trace 1`` spends half of the
time untraced and half with every layer call wrapped (see tracing.py),
reports the per-layer metrics and the tracing overhead, and checks that the
traced artifacts equal the untraced ones.  Either way the run also replays
batch 0 at the reference seed and compares its artifacts with the digests
in perfbench/digests.json.

Standard output ends with one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the run
context, the failures and the metrics in plain text.  The exit code is 1 if
any output check failed, 2 if the program cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
TAIL_BEYOND = 10
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
IMPORT_PROGRAM = "import robustagg.cli"

# Time of probe() on an uncontended core of the 2-core host this benchmark
# was written on.  Timings are divided by the host slowdown: the mean of the
# probes taken just before and after them, over this value.
PROBE_REF_S = 0.022
_PROBE_X = np.linspace(-2.0, 2.0, 4000).reshape(1000, 4)
_PROBE_TEXT = [repr(v) for v in _PROBE_X[:, 0].tolist()]


def probe() -> float:
    """Time a fixed mix of the kinds of work the program does: interpreter
    loops, small-array arithmetic, ``math.fsum`` over lists, ``einsum`` on a
    shard-sized array and parsing floats from text.

    The host this benchmark was written on shares its cores: over a few
    seconds the same computation can take 1.7 times as long, with CPU time
    equal to wall time.  The probe slows down with it, so a timing divided by the probes
    around it is steady where the raw timing is not.  The probe does not
    call the program, so no change to the program can move it.
    """
    started = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    a = np.arange(64.0)
    for _ in range(2_000):
        a = np.sqrt(a * a + 1.0)
    w = _PROBE_X[:, 0] ** 2
    for _ in range(40):
        math.fsum((_PROBE_X[:, 0] * _PROBE_X[:, 1]).tolist())
        np.einsum("i,ij,ik->jk", w, _PROBE_X, _PROBE_X)
    for _ in range(4):
        [float(t) for t in _PROBE_TEXT]
    return time.perf_counter() - started


def import_program() -> dict:
    """Import robustagg from this checkout's src/; exit 2 if it is not there."""
    if not (SRC / "robustagg" / "__init__.py").is_file():
        print(f"error: no robustagg package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import robustagg
    from robustagg import cli, distsim, models, numkit, spatialmed

    if Path(robustagg.__file__).resolve().parent != SRC / "robustagg":
        print(f"error: imported robustagg from {robustagg.__file__}", file=sys.stderr)
        sys.exit(2)
    return {"cli": cli, "distsim": distsim, "models": models, "numkit": numkit,
            "spatialmed": spatialmed}


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_context(args, workload) -> dict:
    import scipy

    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "loadavg_at_start": list(os.getloadavg()),
        "git_commit": git_commit(),
    }


def set_up(workload, modules, seed, workdir, tiny):
    """One set-up: import the program in a fresh interpreter, make the
    inputs, run one warm-up invocation.

    Returns (seconds, host slowdown around it, state)."""
    before = probe()
    started = time.perf_counter()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", IMPORT_PROGRAM], env=env, check=True)
    state = workload.prepare(seed, workdir, tiny)
    workload.warm_up(modules["cli"], state)
    took = time.perf_counter() - started
    return took, (before + probe()) / (2.0 * PROBE_REF_S), state


def measure(workload, modules, state, seconds, tracer) -> dict:
    """Run batches until they have taken ``seconds`` at reference speed.

    A probe runs before the first batch and after each one, and each batch's
    wall time is divided by the slowdown around it; the loop stops when
    these add up to ``seconds``, so the amount of work measured does not
    depend on how busy the host is.  Returns the
    batches, one ``(seconds, ok)`` pair per attempted unit, the failed
    units, the batches' wall time (``raw_wall``) and that time divided by
    the slowdown around each batch (``wall``), and the process CPU time with
    the wall time of the whole loop.  Unit seconds are divided by the
    slowdown too, and ``span_slowdowns`` gives the slowdown for each span
    the tracer recorded during the loop.  A unit fails if its root call raised, if its invocation
    exited nonzero, or if its batch's artifacts failed a check.
    """
    cli = modules["cli"]
    batches, spans_at, walls, slowdowns, probes = [], [], [], [], [probe()]
    cpu0, t0 = time.process_time(), time.perf_counter()
    b, measured = 0, 0.0
    while True:
        spans_at.append(len(tracer.spans))
        started = time.perf_counter()
        batches.append(workload.run_batch(cli, state, b))
        walls.append(time.perf_counter() - started)
        probes.append(probe())
        slowdowns.append((probes[-2] + probes[-1]) / (2.0 * PROBE_REF_S))
        measured += walls[-1] / slowdowns[-1]
        b += 1
        if measured >= seconds:
            break
    cpu, loop_wall = time.process_time() - cpu0, time.perf_counter() - t0
    spans_at.append(len(tracer.spans))

    units, failures = [], []
    for batch, lo, hi, slow in zip(batches, spans_at, spans_at[1:], slowdowns):
        roots = [s for s in tracer.spans[lo:hi] if s.name == workload.root]
        for s in roots:
            if s.error is not None:
                failures.append({"batch": batch.index, "unit": s.detail,
                                 "error": s.error[0], "message": s.error[1]})
        if batch.code != 0 or batch.problems:
            failures.append({"batch": batch.index, "unit": None,
                             "error": f"exit code {batch.code}" if batch.code else "check",
                             "message": batch.stderr or "; ".join(batch.problems)})
            units.extend((s.seconds / slow, False) for s in roots)
        else:
            units.extend((s.seconds / slow, s.error is None) for s in roots)
        units.extend([(0.0, False)] * max(batch.units - len(roots), 0))
    span_slowdowns = [slow for lo, hi, slow in zip(spans_at, spans_at[1:], slowdowns)
                      for _ in range(hi - lo)]
    return {"batches": batches, "units": units, "failures": failures,
            "wall": measured, "raw_wall": sum(walls), "slowdowns": slowdowns,
            "span_slowdowns": span_slowdowns, "cpu": cpu, "loop_wall": loop_wall}


def completed_per_s(seg: dict) -> float:
    return sum(1 for _, ok in seg["units"] if ok) / seg["wall"]


def tail(seconds_sorted: list[float]) -> tuple[float, float]:
    """Value with TAIL_BEYOND samples above it and its percentile."""
    n = len(seconds_sorted)
    if n <= TAIL_BEYOND:
        return seconds_sorted[-1], 100.0
    return seconds_sorted[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(seg: dict, setups: list[tuple]) -> tuple[dict, dict]:
    """End-to-end metrics of an untraced segment, and what qualifies them.

    ``setups`` holds (seconds, slowdown) per set-up.  All times are divided
    by the host slowdown measured around them (see probe()).
    """
    done = sorted(t for t, ok in seg["units"] if ok) or [0.0]
    tail_s, tail_pct = tail(done)
    metrics = {
        "units_per_s": (completed_per_s(seg), "1/s"),
        "unit_p50_ms": (statistics.median(done) * 1000.0, "ms"),
        "unit_tail_ms": (tail_s * 1000.0, "ms"),
        "setup_s": (statistics.median(t / slow for t, slow in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "cpu_per_wall": (seg["cpu"] / seg["loop_wall"], "ratio"),
    }
    attempted = len(seg["units"])
    notes = {
        "failed_frac": (attempted - sum(ok for _, ok in seg["units"])) / attempted,
        "unit_samples": len(done),
        "unit_tail_percentile": tail_pct,
        "setup_s_raw": [t for t, _ in setups],
        "units_per_s_raw": sum(ok for _, ok in seg["units"]) / seg["raw_wall"],
        "measured_wall_s_raw": seg["raw_wall"],
        "batches": len(seg["batches"]),
        "host_slowdown": {
            "median": statistics.median(seg["slowdowns"]),
            "min": min(seg["slowdowns"]),
            "max": max(seg["slowdowns"]),
            "setup": [slow for _, slow in setups],
        },
    }
    return metrics, notes


def reference_check(workload, modules, workdir, tiny) -> list[str]:
    """Batch 0 at the reference seed must reproduce the recorded digests."""
    recorded = json.loads((HERE / "digests.json").read_text())
    state = workload.prepare(recorded["seed"], workdir, tiny)
    batch = workload.run_batch(modules["cli"], state, 0)
    where = f"reference seed {recorded['seed']}"
    if batch.problems:
        return [f"{where}: {p}" for p in batch.problems]
    expected = recorded["workloads"].get(workload.name)
    if not tiny and batch.digests != expected:
        return [f"{where}: digests {batch.digests} (exit code {batch.code}) != recorded {expected}"]
    return []


def execute(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one workload; returns the result with its context and tracer."""
    workload = WORKLOADS[name]
    modules = import_program()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{name}-{os.getpid()}"
    try:
        return _execute(workload, modules, seed, seconds, trace, tiny, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _execute(workload, modules, seed, seconds, trace, tiny, workdir) -> dict:
    setups = []
    for _ in range(1 if tiny else SETUP_REPEATS):
        took, slow, state = set_up(workload, modules, seed, workdir / "run", tiny)
        setups.append((took, slow))

    targets = tracing.layer_targets(modules)
    with tracing.Tracer(workload.root) as timer:
        timer.install([t for t in targets if t[2] == workload.root][:1])
        seg = measure(workload, modules, state, seconds / 2.0 if trace else seconds, timer)
    metrics, notes = end_to_end(seg, setups)
    segments, tracer, layer = [seg], timer, None
    problems = [f"batch {b.index}: {p}" for b in seg["batches"] for p in b.problems]
    if not any(ok for _, ok in seg["units"]):
        problems.append("no unit completed, so nothing was measured")

    if trace:
        originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in targets]
        with tracing.Tracer(workload.root) as tracer:
            tracer.install(targets)
            traced = measure(workload, modules, state, seconds / 2.0, tracer)
        segments.append(traced)
        moved = [f"{m.__name__}.{a}" for m, a, orig in originals if getattr(m, a) is not orig]
        if moved:
            problems.append(f"attributes not restored after tracing: {moved}")
        untraced = {b.index: b.digests for b in seg["batches"] if b.digests}
        for b in traced["batches"]:
            problems.extend(f"traced batch {b.index}: {p}" for p in b.problems)
            if b.digests and b.index in untraced and b.digests != untraced[b.index]:
                problems.append(f"batch {b.index}: traced artifacts differ from untraced")
        layer = tracing.layer_metrics(tracer.spans, traced["span_slowdowns"],
                                      workload.root, state["ingest_bytes"])
        untraced_rate = completed_per_s(seg)
        layer["trace.overhead_frac"] = (
            1.0 - completed_per_s(traced) / untraced_rate if untraced_rate else 0.0
        )

    problems.extend(reference_check(workload, modules, workdir / "reference", tiny))
    units = [u for sg in segments for u in sg["units"]]
    return {
        "tracer": tracer,
        "problems": problems,
        "failures": [dict(f, traced=i == 1) for i, sg in enumerate(segments)
                     for f in sg["failures"]],
        "attempted": len(units),
        "failed": sum(1 for _, ok in units if not ok),
        "end_to_end": metrics,
        "notes": notes,
        "input_seeds": workload.input_seeds(
            seed, max(len(sg["batches"]) for sg in segments)),
        "layer": layer,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs and one set-up (self-test only)")
    args = parser.parse_args(argv)

    context = run_context(args, WORKLOADS[args.workload])
    res = execute(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    context.update(res["notes"])
    context["input_seeds"] = res["input_seeds"]
    print("context " + json.dumps(context, sort_keys=True))
    for f in res["failures"]:
        print("failed " + json.dumps(f, sort_keys=True))
    for p in res["problems"]:
        print("CHECK FAILED " + p)
    if args.trace:
        metrics = {k: (v, tracing.layer_unit(k)) for k, v in res["layer"].items()}
        tracing.write_spans(res["tracer"].spans, OUT / f"spans-{args.workload}.jsonl")
    else:
        metrics = res["end_to_end"]
        print(f"metric failed_frac = {res['notes']['failed_frac']!r} frac"
              " (in the result as failed / attempted)")
    for k, (v, unit) in metrics.items():
        print(f"metric {k} = {v!r} {unit}")
    result = {
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

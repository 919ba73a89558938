"""Self-test of the benchmark, every workload at its tiny size.

    python3 perfbench/selftest.py

Checks, for each workload:

* untraced and traced, the result is correct and names exactly the metrics
  of BENCHMARK.json, each with its unit and a finite value;
* after a traced run every wrapped module attribute is the original object;
* within every traced unit the self times of its spans add up to the wall
  time of the unit's root span.

Prints one line per check and exits 1 if any failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys

import run
import tracing
from workloads import WORKLOADS

SEED = 3
SUM_TOLERANCE_S = 1e-9


def printed_result(name: str, trace: int) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", name, "--seed", str(SEED), "--seconds", "0",
                         "--trace", str(trace), "--tiny"])
    return code, json.loads(out.getvalue().splitlines()[-1])


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    modules = run.import_program()
    targets = tracing.layer_targets(modules)
    originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in targets]
    failed = []

    def check(label: str, ok: bool, detail: str = "") -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {label}" + (f": {detail}" if detail and not ok else ""))
        if not ok:
            failed.append(label)

    for name in WORKLOADS:
        for trace in (0, 1):
            code, result = printed_result(name, trace)
            check(f"{name} trace={trace} correct", code == 0 and result["correct"])
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            check(f"{name} trace={trace} metrics and units match BENCHMARK.json",
                  units == declared[trace],
                  f"extra {sorted(units.keys() - declared[trace].keys())}, "
                  f"missing {sorted(declared[trace].keys() - units.keys())}, "
                  f"unit mismatch {[k for k in units if declared[trace].get(k, units[k]) != units[k]]}")
            values = [v["value"] for v in result["metrics"].values()]
            check(f"{name} trace={trace} values are finite numbers",
                  all(isinstance(v, (int, float)) and math.isfinite(v) for v in values))

        res = run.execute(name, SEED, 0.0, trace=True, tiny=True)
        moved = [f"{m.__name__}.{a}" for m, a, orig in originals if getattr(m, a) is not orig]
        check(f"{name} wrapped attributes restored", not moved, str(moved))
        errors = tracing.unit_sum_errors(res["tracer"].spans, WORKLOADS[name].root)
        check(f"{name} self times sum to unit wall time ({len(errors)} units)",
              bool(errors) and max(errors) <= SUM_TOLERANCE_S, f"largest gap {max(errors, default=0)} s")
        spans = res["tracer"].spans
        check(f"{name} traced more than the root", len({s.name for s in spans}) > 5)

    print(f"{len(failed)} check(s) failed" if failed else "all checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

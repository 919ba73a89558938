"""Rewrite perfbench/digests.json from batch 0 of each workload at the
reference seed.

    python3 perfbench/record_digests.py

Run this only when a change is meant to alter the program's artifacts, and
say so in that change; the benchmark fails any run whose reference batch no
longer matches the recorded digests.
"""

import json
import shutil

import run
from workloads import WORKLOADS

path = run.HERE / "digests.json"
recorded = json.loads(path.read_text())
modules = run.import_program()
workdir = run.OUT / "record-digests"
try:
    for name, workload in WORKLOADS.items():
        state = workload.prepare(recorded["seed"], workdir / name, tiny=False)
        batch = workload.run_batch(modules["cli"], state, 0)
        if batch.problems:
            raise SystemExit(f"{name}: {batch.problems}")
        recorded["workloads"][name] = batch.digests
finally:
    shutil.rmtree(workdir, ignore_errors=True)
path.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
print(path.read_text())

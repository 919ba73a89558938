"""The benchmark's workloads: inputs made from a seed, one unit of work, and
the checks on the artifacts the program writes.

Every workload drives the public entry point ``robustagg.cli.main`` in this
process with ``--workers 1``.  A *batch* is one CLI invocation:

* ``sim_*``: one ``simulate`` study of ``replicates`` replicates; a unit is
  one replicate (the root span is ``distsim.run_replicate``).
* ``cli_ragged_shards``: one ``fit-aggregate-detect`` run over the shards
  written during set-up; the invocation is the unit (root span
  ``cli.cmd_pipeline``).

Batch ``b`` of seed ``s`` is a pure function of ``(s, b)``, so its artifacts
are byte-identical on every run, traced or not.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SIM_FILES = ("metrics.csv", "detection_rates.csv")
CLI_FILES = ("aggregate.csv", "detection.csv")
SHARD_STREAM = 2  # keeps the shard generator's stream apart from other uses of a seed


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def call_cli(cli, argv: list[str]) -> tuple[int, str]:
    """Run ``cli.main(argv)`` with its printing captured; (exit code, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 1
    return code, err.getvalue().strip()


def _finite_cells(rows: list[list[str]], columns: range) -> bool:
    for row in rows:
        for j in columns:
            if row[j] != "" and not math.isfinite(float(row[j])):
                return False
    return True


@dataclass
class Batch:
    """Outcome of one CLI invocation."""

    index: int
    units: int  # units this batch should complete
    code: int
    stderr: str
    digests: dict  # artifact name -> sha256; empty if the invocation failed
    problems: list = field(default_factory=list)  # failed output checks


def run_batch(cli, argv, out: Path, files, index: int, units: int, check) -> Batch:
    """One invocation: clear its artifacts, run it, hash and check what it wrote."""
    for name in files:
        (out / name).unlink(missing_ok=True)
    code, err = call_cli(cli, argv)
    batch = Batch(index, units, code, err, {})
    if code == 0:
        try:
            batch.digests = {name: sha256(out / name) for name in files}
            batch.problems = check(out)
        except (OSError, ValueError, IndexError, KeyError) as exc:
            batch.problems = [f"artifacts unreadable: {type(exc).__name__}: {exc}"]
    return batch


@dataclass(frozen=True)
class SimWorkload:
    """A ``simulate`` design; each batch is one study of ``replicates``."""

    name: str
    design: tuple  # flags of `robustagg simulate`, without seed and size
    servers: int
    replicates: int
    omniscient_count: int = 0  # servers whose hit rate must be exactly 1.0

    root = "distsim.run_replicate"
    files = SIM_FILES

    def prepare(self, seed: int, workdir: Path, tiny: bool) -> dict:
        out = workdir / "out"
        out.mkdir(parents=True, exist_ok=True)
        return {
            "seed": seed,
            "out": out,
            "replicates": 2 if tiny else self.replicates,
            "ingest_bytes": 0,
        }

    def batch_seed(self, seed: int, b: int) -> int:
        return seed * 1000 + b

    def input_seeds(self, seed: int, batches: int) -> dict:
        return {"simulate --seed": [self.batch_seed(seed, b) for b in range(batches)]}

    def argv(self, state: dict, b: int, replicates: int) -> list[str]:
        return [
            "simulate",
            *self.design,
            "--K",
            str(self.servers),
            "--replicates",
            str(replicates),
            "--seed",
            str(self.batch_seed(state["seed"], b)),
            "--workers",
            "1",
            "--out-dir",
            str(state["out"]),
        ]

    def warm_up(self, cli, state: dict) -> None:
        call_cli(cli, self.argv(state, 0, 2))

    def run_batch(self, cli, state: dict, b: int) -> Batch:
        argv = self.argv(state, b, state["replicates"])
        return run_batch(cli, argv, state["out"], self.files, b, state["replicates"], self.check)

    def check(self, out: Path) -> list[str]:
        problems = []
        with open(out / "metrics.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        estimators = [r for r in rows[1:] if r[0] != "summary"]
        if not estimators or not _finite_cells(estimators, range(2, 7)):
            problems.append("metrics.csv: missing or non-finite bias/sd/ase/cp/re")
        with open(out / "detection_rates.csv", newline="") as fh:
            rates = {int(r[0]): float(r[1]) for r in list(csv.reader(fh))[1:]}
        if sorted(rates) != list(range(1, self.servers + 1)):
            problems.append(f"detection_rates.csv: expected servers 1..{self.servers}")
        if self.omniscient_count:
            hr = [r[2] for r in rows if r[:2] == ["summary", "hr"]]
            if hr != ["1.0"]:
                problems.append(f"metrics.csv: omniscient hit rate {hr}, expected 1.0")
            missed = [k for k in range(1, self.omniscient_count + 1) if rates.get(k) != 1.0]
            if missed:
                problems.append(f"detection_rates.csv: corrupted servers {missed} not always flagged")
        return problems


@dataclass(frozen=True)
class CliWorkload:
    """``fit-aggregate-detect`` over logistic CSV shards of random sizes,
    some of them with every label flipped."""

    name: str
    shards: int
    flipped: int
    min_rows: int
    max_rows: int
    theta0: tuple

    root = "cli.cmd_pipeline"
    files = CLI_FILES

    def prepare(self, seed: int, workdir: Path, tiny: bool) -> dict:
        shards, max_rows = (12, 300) if tiny else (self.shards, self.max_rows)
        entropy = self.input_seeds(seed, 0)["shards"]
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))
        # Half of the sizes are drawn, the other half mirror them within the
        # range, so every seed ingests the same number of rows and the cost of
        # a unit does not vary with the seed.
        half = rng.integers(self.min_rows, max_rows, size=shards // 2, endpoint=True)
        sizes = rng.permutation(np.concatenate([half, self.min_rows + max_rows - half]))
        flipped = set(rng.choice(shards, size=self.flipped, replace=False).tolist())
        theta0 = np.asarray(self.theta0)
        shard_dir = workdir / "shards"
        shard_dir.mkdir(parents=True, exist_ok=True)
        paths = []
        for k, n_k in enumerate(sizes):
            X = rng.standard_normal((int(n_k), theta0.size))
            y = (rng.random(int(n_k)) < 1.0 / (1.0 + np.exp(-(X @ theta0)))).astype(int)
            if k in flipped:
                y = 1 - y
            path = shard_dir / f"shard{k:02d}.csv"
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(["y"] + [f"x{j + 1}" for j in range(theta0.size)])
                for label, row in zip(y.tolist(), X.tolist()):
                    writer.writerow([label] + [repr(v) for v in row])
            paths.append(path)
        out = workdir / "out"
        out.mkdir(parents=True, exist_ok=True)
        return {
            "seed": seed,
            "out": out,
            "paths": paths,
            "flipped": sorted(f"shard{k:02d}" for k in flipped),
            "ingest_bytes": sum(p.stat().st_size for p in paths),
        }

    def input_seeds(self, seed: int, batches: int) -> dict:
        return {"shards": [seed, SHARD_STREAM]}  # entropy of the shard generator

    def argv(self, state: dict) -> list[str]:
        return [
            "fit-aggregate-detect",
            *map(str, state["paths"]),
            "--model",
            "logistic",
            "--out-dir",
            str(state["out"]),
        ]

    def warm_up(self, cli, state: dict) -> None:
        call_cli(cli, self.argv(state))

    def run_batch(self, cli, state: dict, b: int) -> Batch:
        return run_batch(cli, self.argv(state), state["out"], self.files, b, 1,
                         lambda out: self.check(out, state))

    def check(self, out: Path, state: dict) -> list[str]:
        problems = []
        with open(out / "aggregate.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        if len(rows) != len(self.theta0) or not _finite_cells(rows, range(2, 6)):
            problems.append("aggregate.csv: missing or non-finite estimates")
        with open(out / "detection.csv", newline="") as fh:
            report = list(csv.DictReader(fh))
        if len(report) != len(state["paths"]):
            problems.append(f"detection.csv: {len(report)} rows for {len(state['paths'])} shards")
        flagged = {r["server_id"] for r in report if r["theta_flagged"] == "True"}
        missed = [sid for sid in state["flipped"] if sid not in flagged]
        if missed:
            problems.append(f"detection.csv: flipped-label shards {missed} not flagged")
        return problems


WORKLOADS = {
    w.name: w
    for w in (
        SimWorkload(
            name="sim_desk_omniscient",
            design=(
                "--model", "logistic", "--theta0", "2,1", "--n", "1000",
                "--c", "1.345", "--alpha", "0.05", "--contamination", "omniscient",
            ),
            servers=20,
            replicates=10,
            omniscient_count=2,
        ),
        SimWorkload(
            name="sim_linear_manyK",
            design=(
                "--model", "linear", "--theta0", "1,-1,0.5,2,0", "--n", "50",
                "--contamination", "gaussian",
            ),
            servers=400,
            replicates=10,
        ),
        CliWorkload(
            name="cli_ragged_shards",
            shards=40,
            flipped=3,
            min_rows=100,
            max_rows=2000,
            theta0=(1.0, -1.0, 0.5, -0.5),
        ),
    )
}

"""Print the sha256 of the artifacts of a fixed set of seeded runs.

Nine ``simulate`` studies (``--workers 1``, 20 replicates each) and three
``fit-aggregate-detect`` runs over shards written from a fixed seed: plain,
with ``--trusted-server``, and with one shard that cannot be fitted, whose
run fails and whose stderr (the temporary directory masked) is hashed in
place of the CSVs.  Each artifact gives one line, ``sha256 run file``.  Two
checkouts whose outputs are identical wrote the same bytes in every run.

Usage: python tools/study_digests.py   (from anywhere; it imports src/robustagg)

``tests/test_study_digests.py`` checks the output against the lines saved in
``tools/study_digests.txt``.  A change that moves an artifact on purpose
saves the new lines: ``python tools/study_digests.py > tools/study_digests.txt``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from robustagg import cli  # noqa: E402

REPLICATES = 20

# (run name, simulate flags); each study has its own seed.
STUDIES = (
    ("desk_omniscient", "--model logistic --theta0 2,1 --K 20 --n 1000 --contamination omniscient --seed 1"),
    ("linear_p1_K20", "--model linear --theta0 1.5 --K 20 --n 200 --contamination gaussian --seed 2"),
    ("logistic_p1_K20", "--model logistic --theta0 1 --K 20 --n 200 --contamination bitflip --seed 3"),
    ("gaussian_linear_K400", "--model linear --theta0 1,-1,0.5,2,0 --K 400 --n 50 --contamination gaussian --seed 4"),
    ("bitflip", "--model logistic --theta0 2,1 --K 20 --n 500 --contamination bitflip --seed 5"),
    ("K1", "--model linear --theta0 1,2 --K 1 --n 200 --seed 6"),
    ("K2", "--model linear --theta0 1,2 --K 2 --n 200 --seed 7"),
    ("K4", "--model logistic --theta0 2,1 --K 4 --n 300 --contamination omniscient --count 1 --seed 8"),
    ("omniscient_1e200", "--model linear --theta0 1,2 --K 10 --n 50 --contamination omniscient --count 1 "
     "--omniscient-value 1e200,1e200 --seed 9"),
)

# Ragged logistic shards with two pairs of equal size (stacked passes) and
# four sizes of their own; shard s05 has every label flipped.
SHARD_SIZES = (150, 300, 150, 420, 90, 300, 260, 510)
THETA0 = (1.0, -1.0, 0.5)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv: list[str]) -> tuple[int, str]:
    """``cli.main(argv)`` with stdout discarded; (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def _write_shards(folder: Path, unfittable: str | None = None) -> list[str]:
    """The CSV shards, ``s01.csv`` ..., in ``folder``; the shard named
    ``unfittable`` has every label 0."""
    rng = np.random.default_rng(2024)
    folder.mkdir()
    paths = []
    for k, n in enumerate(SHARD_SIZES, start=1):
        X = rng.standard_normal((n, len(THETA0)))
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-X @ THETA0))).astype(float)
        if k == 5:
            y = 1.0 - y
        path = folder / f"s{k:02d}.csv"
        if path.stem == unfittable:
            y[:] = 0.0
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["y"] + [f"x{j + 1}" for j in range(len(THETA0))])
            writer.writerows([repr(float(v)) for v in (label, *row)] for label, row in zip(y, X))
        paths.append(str(path))
    return paths


def digests(tmp: Path) -> list[str]:
    lines = []
    for name, flags in STUDIES:
        out = tmp / name
        argv = ["simulate", *flags.split(), "--replicates", str(REPLICATES), "--workers", "1"]
        code, err = _run([*argv, "--out-dir", str(out)])
        if code != 0:
            raise SystemExit(f"{name} exited {code}: {err}")
        lines += [f"{_digest((out / f).read_bytes())} {name} {f}" for f in ("metrics.csv", "detection_rates.csv")]
    shards = _write_shards(tmp / "shards")
    for name, extra in (("pipeline", []), ("pipeline_trusted", ["--trusted-server", "s03"])):
        out = tmp / name
        code, err = _run(["fit-aggregate-detect", *shards, *extra, "--out-dir", str(out)])
        if code != 0:
            raise SystemExit(f"{name} exited {code}: {err}")
        lines += [f"{_digest((out / f).read_bytes())} {name} {f}" for f in ("aggregate.csv", "detection.csv")]
    # s06 shares its size with s02, so it fails inside a stacked pass.
    bad = _write_shards(tmp / "bad_shards", unfittable="s06")
    code, err = _run(["fit-aggregate-detect", *bad, "--out-dir", str(tmp / "unfittable")])
    if code != 1:
        raise SystemExit(f"unfittable exited {code}, expected 1")
    lines.append(f"{_digest(err.replace(str(tmp), '<tmp>').encode())} unfittable stderr")
    return lines


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        print("\n".join(digests(Path(tmp))))
    return 0


if __name__ == "__main__":
    sys.exit(main())

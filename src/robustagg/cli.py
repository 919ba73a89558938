"""Command-line front end.

Subcommands:

* ``simulate``            -- run a Monte Carlo study and write the metrics /
                             per-server detection-rate CSVs.
* ``fit-aggregate-detect``-- ingest one CSV shard per server, fit locally,
                             aggregate robustly and by weighted average, and
                             write the aggregation and detection reports.
* ``tau``                 -- print the efficiency constant for a tuning value.
* ``check``               -- compare each numerical kernel's output on fixed
                             inputs with the bits the published artifacts
                             were made with; a FAIL means this host will not
                             reproduce them.

Configuration files are flat ``key = value`` text (``#`` comments allowed);
any command-line override wins over the file.  All output files are written
with full-precision floats so a rerun of the same seeded invocation is
byte-identical; human-readable tables round to 6 significant digits.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import math
import sys
from enum import Enum
from pathlib import Path

import numpy as np
from scipy.special import expit

from .errors import ConfigError, NotPositiveDefiniteError, RobustAggError
from . import distsim, numkit, spatialmed
from .aggregate import LocalEstimate, tau_c, weighted_average
from .detect import detection_threshold
from .distsim import (
    WORKERS_ENV_VAR,
    ContaminationKind,
    ContaminationSpec,
    StudyConfig,
    check_workers,
    contaminate,
    decode_messages,
    default_workers,
    detection_rates_to_csv,
    encode_messages,
    run_study,
    study_metrics_to_csv,
)
from .models import ModelKind, ModelSpec, Observations, fit_shards

# The study keys, in the order of the `simulate` flags.  Each key has a type
# (int, float, an enum, or tuple for a comma-separated list of numbers), the
# StudyConfig or ContaminationSpec field it sets (workers sets neither) and
# the help of its flag.
_KEYS = {
    "model": (ModelKind, StudyConfig, "model", "logistic or linear"),
    "theta0": (tuple, StudyConfig, "theta0", "comma-separated true coefficients"),
    "K": (int, StudyConfig, "n_servers", "number of servers"),
    "n": (int, StudyConfig, "shard_size", "observations per server"),
    "c": (float, StudyConfig, "c", "Huber tuning constant"),
    "alpha": (float, StudyConfig, "alpha", "detection level"),
    "replicates": (int, StudyConfig, "replicates", "Monte Carlo replicates"),
    "seed": (int, StudyConfig, "base_seed", "base seed; replicate r uses (seed, r)"),
    "contamination": (ContaminationKind, ContaminationSpec, "kind", "none, omniscient, gaussian or bitflip"),
    "count": (int, ContaminationSpec, "count", "number of contaminated servers"),
    "gaussian_scale": (float, ContaminationSpec, "gaussian_scale", "variance of the Gaussian replacement draw"),
    "omniscient_value": (tuple, ContaminationSpec, "omniscient_value", "transmitted vector under omniscient"),
    "workers": (int, None, None, f"process count (default ${WORKERS_ENV_VAR} or 1)"),
}


def _is_number(kind) -> bool:
    return kind in (int, float)


def _parse_enum(text: str, key: str):
    kind = _KEYS[key][0]
    try:
        return kind(text.strip().lower())
    except ValueError:
        values = [k.value for k in kind]
        expected = " or ".join(map(repr, values)) if len(values) == 2 else "one of " + ", ".join(values)
        raise ConfigError(f"unknown {key} {text!r} (expected {expected})") from None


def _parse_floats(text: str, key: str) -> tuple:
    # float() ignores the whitespace around a field and rejects an empty one.
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise ConfigError(f"{key} must be a comma-separated list of numbers") from None


def parse_config_file(path: Path) -> dict:
    """Read a flat key=value file; reject unknown keys and bad values."""
    values: dict = {}
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        kind = _KEYS[key][0]
        caster = kind if _is_number(kind) else str
        try:
            values[key] = caster(value)
        except ValueError:
            raise ConfigError(
                f"{path}:{lineno}: value for {key!r} must be of type {caster.__name__}"
            ) from None
    return values


def make_study_config(file_values: dict, args: argparse.Namespace) -> tuple[StudyConfig, int]:
    """Resolve file values and CLI overrides into a validated study design
    (see :func:`_study_config`) and a worker count, which defaults to
    :func:`~robustagg.distsim.default_workers`."""
    values = {**file_values, **_flag_values(args)}
    # The design first, so its errors come before a bad worker count's.
    return _study_config(values), (check_workers(values["workers"]) if "workers" in values else default_workers())


def _flag_values(args: argparse.Namespace) -> dict:
    """The value of every study-key flag in ``args`` that is set."""
    return {key: value for key, value in vars(args).items() if key in _KEYS and value is not None}


def _study_config(values: dict) -> StudyConfig:
    """The validated study design of the keys ``values`` sets, whose text
    keys it parses in place.

    Every other field keeps its ``StudyConfig`` or ``ContaminationSpec``
    default.  Text keys are parsed in table order, so the first bad one is
    reported.
    """
    for key, (kind, *_) in _KEYS.items():
        if key in values and not _is_number(kind):
            values[key] = (_parse_floats if kind is tuple else _parse_enum)(values[key], key)

    def fields(owner) -> dict:
        return {_KEYS[key][2]: value for key, value in values.items() if _KEYS[key][1] is owner}

    try:
        spec = ContaminationSpec(**fields(ContaminationSpec))
        return StudyConfig(contamination=spec, **fields(StudyConfig))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _sig6(x: float) -> str:
    return format(float(x), ".6g")


def _print_metrics_table(metrics) -> None:
    print(
        f"replicates: {metrics.replicates_completed} "
        f"(failed: {metrics.replicates_failed}), "
        f"runtime: {metrics.runtime_seconds:.2f}s"
    )
    print(
        f"{'estimator':<18}{'coef':>5}{'bias':>14}{'sd':>14}{'ase':>14}{'cp':>10}{'re':>14}"
    )
    for name, coef, bias, sd, ase, cp, re in distsim.metric_rows(metrics):
        re_cell = "" if re is None else _sig6(re)
        print(
            f"{name:<18}{coef:>5}{_sig6(bias):>14}{_sig6(sd):>14}"
            f"{_sig6(ase):>14}{_sig6(cp):>10}{re_cell:>14}"
        )
    if metrics.hit_rate is not None:
        print(f"hit rate (HR): {_sig6(metrics.hit_rate)}")
    print(f"mean flagged fraction: {_sig6(metrics.flag_rate)}")
    flagged = [
        sid for sid, rate in sorted(metrics.per_server_flag_rate.items()) if rate > 0.5
    ]
    if flagged:
        print(
            "detection: servers flagged in a majority of replicates: "
            + ", ".join(str(s) for s in flagged)
        )


def cmd_simulate(args: argparse.Namespace) -> int:
    file_values = parse_config_file(Path(args.config)) if args.config else {}
    config, workers = make_study_config(file_values, args)
    out_dir = Path(args.out_dir)
    if args.dry_run:
        print(
            f"dry run: would execute {config.replicates} replicates "
            f"(model={config.model.value}, K={config.n_servers}, n={config.shard_size}, "
            f"c={config.c}, contamination={config.contamination.kind.value}, "
            f"workers={workers}) and write {out_dir / 'metrics.csv'}"
        )
        return 0
    # Made first, so a path that cannot be a directory fails before the study.
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics = run_study(config, workers=workers)
    with open(out_dir / "metrics.csv", "w", newline="") as fh:
        study_metrics_to_csv(metrics, fh)
    with open(out_dir / "detection_rates.csv", "w", newline="") as fh:
        detection_rates_to_csv(metrics, fh)
    _print_metrics_table(metrics)
    print(f"wrote {out_dir / 'metrics.csv'} and {out_dir / 'detection_rates.csv'}")
    return 0


def _read_shard(path: Path, expected_header: list[str] | None):
    """Parse one server's CSV shard; returns (header, observations).

    The file is read as UTF-8, past a leading byte-order mark if it has
    one, as spreadsheets write "CSV UTF-8".  Cells are read as ``float()``
    reads them; a ragged row or non-numeric cell raises ``ConfigError`` for
    the first such defect in file order, and so does text that ``csv``
    cannot split or UTF-8 cannot decode.  A body of plain decimal text (see
    :func:`_read_plain`) is read by numpy's C text reader; any other body,
    and so every error, goes through ``csv``.  A shard that reads but holds a cell that is not
    finite (``inf``, ``nan``, or ``1e400``, which reads as inf) raises
    ``ConfigError`` for the first such cell in file order.
    """
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise ConfigError(f"cannot open shard {path}: {exc}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ConfigError(f"{path}: shard file is empty") from None
        except (csv.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: cannot read shard: {exc}") from None
        if "y" not in header:
            raise ConfigError(f"{path}: header must contain a 'y' column")
        if header.count("y") > 1:
            raise ConfigError(f"{path}: header names the 'y' column more than once")
        if expected_header is not None and header != expected_header:
            raise ConfigError(
                f"{path}: header {header} does not match first shard {expected_header}"
            )
        table = _read_plain(fh, len(header))
        if table is None:
            # Read the body again from its start, as if the plain reader had
            # never looked at it, so csv finds the defects in file order.
            fh.seek(0)
            next(reader)
            table = _read_records(path, header, reader)
        if not np.isfinite(table).all():
            fh.seek(0)
            next(reader)
            _raise_first_defect(path, header, list(reader), finite=True)
    y_idx = header.index("y")
    x_cols = [i for i in range(len(header)) if i != y_idx]
    return header, Observations(table[:, y_idx], table[:, x_cols])


# The characters of a plain decimal shard body.
_PLAIN = b"0123456789.eE+-,\n"


def _read_plain(fh, columns: int) -> np.ndarray | None:
    """The rest of ``fh`` as a table of ``columns`` columns, read by numpy's
    C text reader, or None unless it is plain decimal text that reads to
    such a table.

    Plain text uses only the characters of ``_PLAIN`` and has no line, so no
    field, longer than ``csv.field_size_limit()``.  ``csv`` splits such text
    at every ',' and '\\n' and nowhere else, as ``loadtxt`` does, and both
    skip blank lines.  ``loadtxt`` converts each field with
    ``PyOS_string_to_double``, which is what ``float()`` calls once it has
    stripped the whitespace and underscores plain text cannot hold, so it
    reads the same doubles and rejects the same fields.  Anything else
    returns None: text that does not decode, characters outside ``_PLAIN``
    (quotes, spaces, CR, ``1_0``, ``inf``), a long line, no rows, a field
    ``loadtxt`` rejects, or a column count other than ``columns``.
    """
    try:
        body = fh.read()
    except UnicodeDecodeError:
        return None
    if not body.isascii() or body.encode("ascii").translate(None, _PLAIN):
        return None
    lines = body.split("\n")
    if not 0 < max(map(len, lines)) <= csv.field_size_limit():
        return None
    try:
        table = np.loadtxt(lines, delimiter=",", comments=None, dtype=float, ndmin=2)
    except ValueError:
        return None
    return table if table.shape[1] == columns else None


def _read_records(path: Path, header: list[str], reader) -> np.ndarray:
    """The rows left in a shard's csv ``reader`` as a table, each cell read
    by ``float()``; raises ``ConfigError`` for the first defect."""
    records = []
    try:
        records.extend(reader)
    except (csv.Error, UnicodeDecodeError) as exc:
        # A defect in the rows read before the failure is reported
        # first, as a reader that stops at the first defect would.
        _raise_first_defect(path, header, records)
        raise ConfigError(f"{path}: cannot read shard: {exc}") from None
    rows = [row for row in records if row]
    if not rows:
        raise ConfigError(f"{path}: shard contains no observations")
    # numpy converts each str cell with Python's float(), so one conversion
    # accepts and reads exactly what a per-cell float() loop would.
    try:
        table = np.array(rows, dtype=float)
    except ValueError:
        table = None
    if table is None or table.shape[1] != len(header):
        _raise_first_defect(path, header, records)
        raise AssertionError(f"{path}: numpy rejected a shard that float() accepts")
    return table


def _raise_first_defect(path: Path, header: list[str], records: list[list[str]],
                        finite: bool = False) -> None:
    """Raise the ConfigError for the first ragged row or non-numeric cell of
    a shard's records, or with ``finite`` for the first cell that is not
    finite either, in file order (a ragged row before its own cells);
    return if there is none."""
    for rowno, row in enumerate(records, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise ConfigError(
                f"{path}:{rowno}: row has {len(row)} cells, header has {len(header)}"
            )
        for colno, cell in enumerate(row, start=1):
            try:
                value = float(cell)
            except ValueError:
                defect = "numeric"
            else:
                defect = "finite" if finite and not math.isfinite(value) else None
            if defect:
                raise ConfigError(
                    f"{path}:{rowno}: column {colno} ({header[colno - 1]!r}) "
                    f"is not {defect}: {cell!r}"
                )


def cmd_pipeline(args: argparse.Namespace) -> int:
    shard_paths = sorted(Path(p) for p in args.shards)
    # The model, c and alpha, checked by the rules a study's are.
    config = _study_config(_flag_values(args))
    # A shard's server id is its file stem, so two shards may not share one.
    by_stem: dict = {}
    for path in shard_paths:
        if path.stem in by_stem:
            raise ConfigError(
                f"shards {by_stem[path.stem]} and {path} share the server id {path.stem!r}"
            )
        by_stem[path.stem] = path
    if args.trusted_server is not None and args.trusted_server not in by_stem:
        raise ConfigError(f"trusted server {args.trusted_server!r} not among shards")
    out_dir = Path(args.out_dir)

    header = None
    shards = []
    for path in shard_paths:
        header, obs = _read_shard(path, header)
        shards.append(obs)
    covariates = [h for h in header if h != "y"]

    if args.dry_run:
        total = sum(s.n for s in shards)
        print(
            f"dry run: {len(shards)} shards validated "
            f"({total} observations, covariates: {', '.join(covariates)}); "
            f"would write {out_dir / 'aggregate.csv'} and {out_dir / 'detection.csv'}"
        )
        return 0

    out_dir.mkdir(parents=True, exist_ok=True)
    model = ModelSpec(config.model, len(covariates))
    try:
        fits = fit_shards(model, shards, server_ids=[path.stem for path in shard_paths])
    except (RobustAggError, ValueError) as exc:
        # What the first failing shard raises alone, with its id set.
        raise ConfigError(f"{by_stem[exc.server_id]}: {exc}") from None
    # The round of the fits in server order, as a study sends it when no
    # server is corrupted, over the same wire codec.
    received = decode_messages(encode_messages(contaminate(model, fits, shards, ContaminationSpec(), 0)))

    sigma_hat = None
    if args.trusted_server is not None:
        try:
            row = received.server_ids.index(args.trusted_server)
            sigma_hat = numkit.require_pd(received.sigmas[row], len(covariates))
        except NotPositiveDefiniteError as exc:
            reason = str(exc) if exc.eigenvalue is None else f"smallest eigenvalue {exc.eigenvalue:.6e}"
            raise ConfigError(
                f"trusted server {args.trusted_server!r} cannot standardize the round: "
                f"its variance matrix is not positive definite ({reason})"
            ) from None
    # Module-qualified on purpose: perfbench traces the functions imported
    # into this module by name, and the central layers under process() are
    # traced in distsim.
    result, theta_bar, se_wa, report = distsim.process(received, config.c, config.alpha, sigma_hat)

    rows = list(zip(covariates, result.theta_hat, result.se, theta_bar, se_wa))
    with open(out_dir / "aggregate.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["coefficient", "name", "huber", "huber_se", "weighted_average", "weighted_average_se"]
        )
        for j, (name, *values) in enumerate(rows, start=1):
            writer.writerow([j, name, *(repr(float(v)) for v in values)])
    with open(out_dir / "detection.csv", "w", newline="") as fh:
        report.to_csv(fh)

    print(f"servers: {len(received)}, N = {sum(received.n_k)}, c = {config.c}, tau = {_sig6(result.tau)}")
    print(f"{'coefficient':<16}{'huber':>14}{'(se)':>12}{'weighted':>14}{'(se)':>12}")
    for name, theta, se, wa, wa_se in rows:
        print(f"{name:<16}{_sig6(theta):>14}{_sig6(se):>12}{_sig6(wa):>14}{_sig6(wa_se):>12}")
    flagged_theta = report.flagged_theta_ids()
    flagged_sigma = report.flagged_sigma_ids()
    print(f"detection threshold sqrt(chi2_{report.p},{report.alpha}) = {_sig6(report.threshold)}")
    print("flagged estimates: " + (", ".join(map(str, flagged_theta)) or "none"))
    print("flagged variances: " + (", ".join(map(str, flagged_sigma)) or "none"))
    print(f"wrote {out_dir / 'aggregate.csv'} and {out_dir / 'detection.csv'}")
    return 0


def cmd_tau(args: argparse.Namespace) -> int:
    # float() reads "inf" and "Infinity" in any case; tau_c checks c.
    print(f"tau_c({args.c}) = {tau_c(float(args.c)):.6g}")
    return 0


def _bits(out) -> bytes:
    """The bytes a kernel's output is pinned by: bytes as they are, a list
    or tuple as its items' bytes in order, anything else as little-endian
    doubles."""
    if isinstance(out, (list, tuple)):
        return b"".join(map(_bits, out))
    return out if isinstance(out, bytes) else np.asarray(out, dtype="<f8").tobytes()


def _spd(rng, k: int, p: int) -> np.ndarray:
    """A ``(k, p, p)`` stack of positive definite matrices."""
    a = rng.standard_normal((k, p, p))
    return a @ a.swapaxes(-1, -2) + 0.1 * np.eye(p)


def _fits(model, shards) -> list:
    return [(f.theta_hat, f.sigma_hat, f.newton_iters, f.grad_norm) for f in fit_shards(model, shards)]


def _column_sums(rng):
    # Columns that cancel to a survivor far below their terms, span 600
    # decades, go beyond the extraction guard (so fsum sums them) or hold
    # products; and a 50 x 20 block, the size of a 50-row shard's sandwich.
    cancel = np.repeat(rng.standard_normal(1000) * 1e8, 2) * np.tile([1.0, -1.0], 1000)
    cancel[7] += 1e-9
    guard = np.tile([1e308, -1e308], 1000)
    guard[0] = 1.0
    spread = rng.standard_normal(2000) * 10.0 ** rng.uniform(-300.0, 300.0, 2000)
    cols = np.stack([cancel, spread, guard, rng.standard_normal(2000) * rng.standard_normal(2000)], axis=1)
    return numkit.exact_column_means(cols), numkit.exact_column_means(rng.standard_normal((50, 20)) ** 3)


def _wide_sums(rng):
    # More columns than rows, the block of a stacked pass of 32 shards of 50
    # rows: products over eight decades, a column that cancels, one with an
    # inf entry and one beyond the extraction guard.
    block = rng.standard_normal((50, 640)) * rng.standard_normal((50, 640)) * 10.0 ** rng.integers(-8, 9, 640)
    block[:, 5] = np.repeat(rng.standard_normal(25) * 1e8, 2) * np.tile([1.0, -1.0], 25)
    block[7, 5] += 1e-9
    block[3, 17] = np.inf
    block[:, 300] = np.tile([1e308, -1e308], 25)
    block[0, 300] = 1.0
    return numkit.exact_column_means(block)


def _certificate_edges(rng):
    # Columns at the edges of the first-pass certificate of exact sums: a
    # bulk below 2**b that sums to a double t0 (a power of two in odd
    # columns), plus remainders half a gap from t0 (a quarter ulp toward
    # zero in every other power of two) moved by nothing (a tie), one ulp,
    # or 2**-3 to 2**3 times eps = n**2 * 2**(k + E - 105), within a factor
    # of 4 of the certificate's bound; b runs from where eps and the
    # remainders are subnormal up through the normal range.  Last,
    # a gradient-like column that cancels.  A tall block and a wide one.
    out = []
    for n, m in ((1000, 24), (40, 300)):
        block = np.zeros((n, m))
        low = -917 - (n + 1).bit_length() - (n * n).bit_length()  # eps ~ 2**-1022
        for j, b in enumerate(rng.integers(low - 60, 900, m).tolist()):
            b = b if j % 3 else low + j % 7 - 3
            col = block[:, j]
            if j % 2:
                col[: 1 << ((n // 2).bit_length() - 1)] = 2.0 ** (b - 1)
            else:
                col[: n // 2] = rng.integers(1, 1024, n // 2) * 2.0 ** (b - 10)
            edge = np.spacing(math.fsum(col.tolist())) / (-4.0 if j % 4 == 3 else 2.0)
            eps = math.ldexp(float(n * n), (n + 1).bit_length() + int(np.frexp(col.max())[1]) - 105)
            col[n // 2] = edge
            col[n // 2 + 1] = (0.0, np.spacing(edge), eps, -eps)[rng.integers(4)] * 2.0 ** rng.uniform(-3, 3)
            col *= rng.choice([-1.0, 1.0])
        x = rng.standard_normal(n)
        block[:, -1] = x - x.mean()
        out.append(numkit.exact_column_means(rng.permuted(block, axis=0)))
    return out


def _lockstep_newton(rng, theta0=(5.0, 3.0), sizes=(300,) * 6) -> list:
    # Mislabelled far-out rows make some of the default p = 2 shards halve
    # their steps, and the shards converge at different iterations.
    shards = []
    for n in sizes:
        X = rng.standard_normal((n, len(theta0)))
        X[:3] *= 10.0 ** rng.uniform(1.0, 2.5, (3, 1))
        y = (rng.random(n) < expit(X @ theta0)).astype(float)
        y[:3] = 1.0 - y[:3]
        shards.append(Observations(y, X))
    return _fits(ModelSpec.logistic(len(theta0)), shards)


def _desk_round(rng) -> list:
    # The fits of a desk round, K = 20 shards of 1000 rows at theta0 = (2, 1)
    # as run_replicate draws and partitions them; STACK_ENTRIES splits the
    # round into passes of several shards.
    data = distsim.generate_dataset(ModelKind.LOGISTIC, (2.0, 1.0), 20_000, rng)
    return _fits(ModelSpec.logistic(2), distsim.partition(data, 20))


def _round(rng, dims) -> list:
    """Estimates of the dimensions ``dims`` from servers of int and str ids."""
    ids = (4, "s07", "12", -1, "'q", *range(5, len(dims)))
    sizes = rng.integers(1, 10**6, len(dims)).tolist()
    return [
        LocalEstimate(sid, n_k, rng.standard_normal(p), _spd(rng, 1, p)[0])
        for sid, n_k, p in zip(ids, sizes, dims)
    ]


def _codec(estimates) -> list:
    """The payloads of a round and the ids, estimates and variance matrices
    they decode to."""
    payloads = encode_messages(estimates)
    back = decode_messages(payloads)
    return [payloads, *((repr(e.server_id).encode(), e.theta_star, e.sigma_star) for e in back)]


def _plain_table(rng):
    cells = [repr(v) for v in (rng.standard_normal(30) * 10.0 ** rng.uniform(-320.0, 300.0, 30)).tolist()]
    cells += ["-0", ".5", "5.", "+3", "00012", "1e-400"]
    body = "".join(f"{k % 2},{a},{b}\n" for k, (a, b) in enumerate(zip(cells, reversed(cells))))
    return _read_plain(io.StringIO(body), 3)


def _csv_table(rng):
    # Quotes, spaces, "1_0", a blank line and CRLF, which _read_plain refuses.
    a, b, c = map(repr, rng.standard_normal(3).tolist())
    body = f'1,{a},5e-324\n0,"{b}",1_0\n\n1, {c} ,-inf\r\n'
    return _read_records(Path("check.csv"), ["y", "a", "b"], csv.reader(io.StringIO(body)))


def _screen_stack(rng) -> list:
    # For p = 1, 2, 3 and 5, forty matrices with eigenvalues from e^-40 to
    # e^5 scaled by 10^-300 to 10^300: a quarter indefinite by one eigenvalue
    # just below zero, a quarter near singular by one just above it; and an
    # all-zero, a subnormal, a NaN, an inf and an asymmetric matrix, and at
    # p = 2 the desk matrix an unshifted Cholesky rejects (README,
    # Reproducibility).
    out = []
    for p in (1, 2, 3, 5):
        q = np.linalg.qr(rng.standard_normal((40, p, p)))[0]
        lam = np.exp(rng.uniform(-40.0, 5.0, (40, p)))
        top = lam.max(axis=1)
        lam[10:20, 0] = -top[10:20] * 2.0 ** rng.uniform(-60.0, -40.0, 10)
        lam[20:30, 0] = top[20:30] * 2.0 ** rng.uniform(-60.0, -40.0, 10)
        scale = 10.0 ** rng.uniform(-300.0, 300.0, 40)
        stack = ((q * lam[:, None, :]) @ q.swapaxes(-1, -2)) * scale[:, None, None]
        stack[0] = 0.0
        stack[1] = 5e-324 * np.eye(p)
        stack[2, 0, 0] = np.nan
        stack[3, -1, -1] = np.inf
        stack[4, 0, -1] += 1e-6 * np.abs(stack[4]).max() * (p > 1)
        if p == 2:
            stack[5] = [[13027255262208.805, -13027708157195.771], [-13027708157195.771, 13028161067927.719]]
        out += numkit.screen_positive_definite(stack)
    return out


def _spatial_medians(rng) -> list:
    # K from 3 to 400 and d from 1 to 15, sqrt(n) weights: equal weights on
    # a line at even K (a tie segment), points repeated exactly (and a 0.0
    # and a -0.0), and optima just off one point, one of which runs to the
    # iteration cap.
    out = []
    for k, d in ((3, 1), (4, 1), (20, 1), (5, 2), (12, 3), (40, 6), (400, 15), (400, 5), (60, 10), (7, 15)):
        x = rng.standard_normal((k, d)) * 10.0 ** rng.uniform(-3.0, 3.0)
        w = np.sqrt(rng.integers(1, 100, k).astype(float))
        if d == 1 and k % 2 == 0:
            w[:] = w[0]
        if k >= 12:
            x[: k // 4] = x[k // 4 : 2 * (k // 4)]
            x[0, 0], x[1, 0] = 0.0, -0.0
        if k in (5, 7, 60):
            # Just short of anchoring on point 0: the optimum lies next to it.
            u = (x[1:] - x[0]) / np.linalg.norm(x[1:] - x[0], axis=1)[:, None]
            w[0] = 0.999 * np.linalg.norm(w[1:] @ u)
        res = spatialmed.spatial_median(x, w)
        out += [res.eta, float(res.iterations), float(res.anchored), res.objective]
    return out


# The lines of ``check``: a name, the seed of the line's own Generator, the
# first 16 hex digits (64 bits) of the sha256 of the kernel's output bytes
# (see _bits) on the host that made the published artifacts, and the kernel,
# run on that Generator.  A deliberate change to a kernel is re-pinned by
# pasting the digest its FAIL line prints.
_CHECKS = (
    ("numpy Generator draws, on which every line below and every artifact rest", 0, "b0e0aaf43dea71fc",
     lambda rng: (rng.bytes(32), rng.random(4), rng.standard_normal(4), rng.integers(0, 2**53, 4))),
    ("numkit.vech and vech_inv", 1, "b1ba785bcc749aac",
     lambda rng: (v := numkit.vech(_spd(rng, 1, 4)[0]), numkit.vech_inv(v, 4))),
    ("numkit.inv_sqrt_pd", 2, "aa064864278a9353", lambda rng: numkit.inv_sqrt_pd(_spd(rng, 1, 5)[0])),
    ("numkit.pd_project", 3, "609c94ddd31e0aa0",
     lambda rng: numkit.pd_project(_spd(rng, 1, 4)[0] - 2.0 * np.eye(4))),
    ("tau_c(1.345) and tau_c(inf)", 4, "24b4237edc95acd2", lambda rng: (tau_c(1.345), tau_c(np.inf))),
    ("detection_threshold(2, 0.05)", 5, "af31b6f637e3c23c", lambda rng: detection_threshold(2, 0.05)),
    ("exact column sums equal math.fsum (numkit.exact_column_means)", 6, "391c15c08acd4e57", _column_sums),
    ("exact sums of a block wider than long (numkit.exact_column_means)", 15, "952d3f5c2e59b94a", _wide_sums),
    ("certified exact sums at the certificate's edges", 18, "d8c879d93723ed5e", _certificate_edges),
    ("stacked linear fit_shards", 7, "041f34f51e41e3c3", lambda rng: _fits(
        ModelSpec.linear(3), map(Observations, rng.standard_normal((6, 50)), rng.standard_normal((6, 50, 3))))),
    ("stacked logistic fit_shards: the lockstep Newton", 48, "9c945c28e1397f14", _lockstep_newton),
    ("stacked logistic fit_shards at p = 1: the doubled Hessian column", 49, "820d25f7a949a12b",
     lambda rng: _lockstep_newton(rng, (5.0,))),
    ("ragged logistic fit_shards at p = 4: one shard per pass", 50, "e751373bd18c719c",
     lambda rng: _lockstep_newton(rng, (1.0, -0.5, 0.25, 2.0), (1050, 1908, 700))),
    ("stacked logistic fit_shards of a desk round, K = 20, n = 1000", 51, "7362dc497ddb36ad", _desk_round),
    ("stacked numpy.linalg.eigh and solve", 8, "621ac5420d3c5c1b", lambda rng: (
        np.linalg.eigh(stack := _spd(rng, 6, 3)), np.linalg.solve(stack, rhs := rng.standard_normal((6, 3, 1))),
        np.linalg.solve(np.broadcast_to(stack[0], stack.shape), rhs))),
    ("weighted_average", 9, "5799f89675f95086",
     lambda rng: [weighted_average(_round(rng, (p,) * 300)) for p in (1, 3)]),
    ("_read_plain: a plain shard body read as float() reads it", 10, "5d2f8b255e2b3007", _plain_table),
    ("csv shard path: spelled cells read as float() reads them", 11, "70fc378315c2ebff", _csv_table),
    ("encode_messages/decode_messages, one dimension", 12, "9e4a9ac1fc1eee63",
     lambda rng: _codec(_round(rng, (2,) * 5))),
    ("encode_messages/decode_messages, mixed dimensions", 13, "795e5cee80360c50",
     lambda rng: _codec(_round(rng, (2, 3, 2, 3, 3)))),
    ("wire payload of a fixed estimate equals its golden bytes", 14, "076b24945acdd8ea",
     lambda rng: _codec([LocalEstimate("7", 120, [1.5, -0.0], [[2.0, 0.5], [0.5, 5e-324]])])),
    ("numkit.screen_positive_definite verdicts on an adversarial stack", 16, "529f99b0da5b6786",
     _screen_stack),
    ("spatialmed.spatial_median with duplicates, ties and near-anchors", 17, "a50a5ff658f6c1df",
     _spatial_medians),
)


def cmd_check(args: argparse.Namespace) -> int:
    """Run each kernel of ``_CHECKS`` and compare the digest of its output
    with the published one; exit nonzero on any mismatch."""
    failed = 0
    for name, seed, digest, kernel in _CHECKS:
        got = hashlib.sha256(_bits(kernel(np.random.default_rng(seed)))).hexdigest()[:16]
        failed += got != digest
        line = f"{name}: sha256 {got}"
        print(f"ok   {line}" if got == digest else f"FAIL {line}, published {digest}")
    if failed:
        print(f"{failed} self-test(s) failed: this host will not reproduce the published artifacts either")
        return 1
    print("all self-tests passed")
    return 0


def _add_key_flags(parser: argparse.ArgumentParser, keys: dict) -> None:
    """One flag per entry of ``keys`` (entries of ``_KEYS``), in order; an
    unset flag is None, so its key keeps its file value or its default."""
    for key, (kind, _, _, text) in keys.items():
        parser.add_argument(
            "--" + key.replace("_", "-"),
            type=kind if _is_number(kind) else None,
            choices=[k.value for k in kind] if issubclass(kind, Enum) else None,
            help=text,
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robustagg",
        description="Robust aggregation of local M-estimators for distributed data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a Monte Carlo study")
    sim.add_argument("--config", help="flat key=value configuration file")
    _add_key_flags(sim, _KEYS)
    sim.add_argument("--out-dir", default=".", help="where to write the CSVs")
    sim.add_argument("--dry-run", action="store_true")
    sim.set_defaults(func=cmd_simulate)

    pipe = sub.add_parser(
        "fit-aggregate-detect",
        help="fit one CSV shard per server, aggregate, and screen for contamination",
    )
    pipe.add_argument("shards", nargs="+", help="CSV files, one per server")
    _add_key_flags(pipe, {key: _KEYS[key] for key in ("model", "c", "alpha")})
    pipe.add_argument(
        "--trusted-server",
        help="use this server's variance matrix instead of the spatial-median aggregate",
    )
    pipe.add_argument("--out-dir", default=".")
    pipe.add_argument("--dry-run", action="store_true")
    pipe.set_defaults(func=cmd_pipeline)

    tau = sub.add_parser("tau", help="print the efficiency constant tau_c")
    tau.add_argument("c", help="tuning constant (or 'inf')")
    tau.set_defaults(func=cmd_tau)

    chk = sub.add_parser("check", help="compare each kernel's output with its published bits")
    chk.set_defaults(func=cmd_check)

    return parser


@functools.cache
def _keep_freed_memory() -> None:
    """Have glibc malloc keep the memory a stacked pass frees, once per
    process: arrays up to 32 MiB come from the heap instead of their own
    mmap, and the heap top is returned to the kernel only beyond 64 MiB.
    Otherwise each pass faults the same pages in again (~440 minor faults
    per desk replicate).  32 MiB is the ceiling of glibc's dynamic mmap
    threshold on 64-bit hosts and the trim threshold is twice it, as the
    dynamic rule pairs them; setting either one alone switches that rule
    off and leaves the other at its small default.  Forked workers inherit
    the setting.  Where there is no ``mallopt`` this does nothing; no bit
    of any result depends on it."""
    if not sys.platform.startswith("linux"):
        return
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def main(argv=None) -> int:
    _keep_freed_memory()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (RobustAggError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

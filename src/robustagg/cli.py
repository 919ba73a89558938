"""Command-line front end.

Subcommands:

* ``simulate``            -- run a Monte Carlo study and write the metrics /
                             per-server detection-rate CSVs.
* ``fit-aggregate-detect``-- ingest one CSV shard per server, fit locally,
                             aggregate robustly and by weighted average, and
                             write the aggregation and detection reports.
* ``tau``                 -- print the efficiency constant for a tuning value.
* ``check``               -- run quick numerical self-tests.

Configuration files are flat ``key = value`` text (``#`` comments allowed);
any command-line override wins over the file.  All output files are written
with full-precision floats so a rerun of the same seeded invocation is
byte-identical; human-readable tables round to 6 significant digits.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from enum import Enum
from pathlib import Path

import numpy as np
from scipy.special import expit

from .errors import ConfigError, NotPositiveDefiniteError, RobustAggError
from . import distsim, numkit
from .aggregate import LocalEstimate, tau_c, weighted_average
from .distsim import (
    WORKERS_ENV_VAR,
    ContaminationKind,
    ContaminationSpec,
    StudyConfig,
    check_workers,
    contaminate,
    decode_message,
    decode_messages,
    default_workers,
    detection_rates_to_csv,
    encode_message,
    encode_messages,
    run_study,
    study_metrics_to_csv,
)
from .models import DEFAULT_TOL, ModelKind, ModelSpec, Observations, fit_local, fit_shards

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
        f"{'estimator':<18}{'coef':>5}{'bias':>14}{'sd':>14}{'ase':>14}{'cp':>8}{'re':>14}"
    )
    for name, coef, bias, sd, ase, cp, re in distsim.metric_rows(metrics):
        re_cell = "" if re is None else _sig6(re)
        print(
            f"{name:<18}{coef:>5}{_sig6(bias):>14}{_sig6(sd):>14}"
            f"{_sig6(ase):>14}{_sig6(cp):>8}{re_cell:>14}"
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
    metrics = run_study(config, workers=workers)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "metrics.csv", "w", newline="") as fh:
        study_metrics_to_csv(metrics, fh)
    with open(out_dir / "detection_rates.csv", "w", newline="") as fh:
        detection_rates_to_csv(metrics, fh)
    _print_metrics_table(metrics)
    print(f"wrote {out_dir / 'metrics.csv'} and {out_dir / 'detection_rates.csv'}")
    return 0


def _read_shard(path: Path, expected_header: list[str] | None):
    """Parse one server's CSV shard; returns (header, observations).

    Cells are read as ``float()`` reads them; a ragged row or non-numeric
    cell raises ``ConfigError`` for the first such defect in file order, and
    so does text that ``csv`` cannot split or the file's encoding cannot
    decode.  A body of plain decimal text (see :func:`_read_plain`) is read
    by numpy's C text reader; any other body, and so every error, goes
    through ``csv``.
    """
    try:
        fh = open(path, newline="")
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


def _raise_first_defect(path: Path, header: list[str], records: list[list[str]]) -> None:
    """Raise the ConfigError for the first ragged row or non-numeric cell of
    a shard's records, in file order (a ragged row before its own cells);
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
                float(cell)
            except ValueError:
                raise ConfigError(
                    f"{path}:{rowno}: column {colno} ({header[colno - 1]!r}) "
                    f"is not numeric: {cell!r}"
                ) from None


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

    model = ModelSpec(config.model, len(covariates))
    try:
        fits = fit_shards(model, shards, server_ids=[path.stem for path in shard_paths])
    except (RobustAggError, ValueError):
        # fit_shards raises what the first failing shard raises alone; find
        # that shard to name its file.
        for path, obs in zip(shard_paths, shards):
            try:
                fit_local(model, obs, server_id=path.stem)
            except (RobustAggError, ValueError) as exc:
                raise ConfigError(f"{path}: {exc}") from None
        raise
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
    out_dir.mkdir(parents=True, exist_ok=True)
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


def cmd_check(args: argparse.Namespace) -> int:
    """Fast self-tests of the numerical kernels; exit nonzero on any failure."""
    rng = np.random.default_rng(7)
    failures = []

    def check(name: str, ok: bool) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
        if not ok:
            failures.append(name)

    a = rng.standard_normal((4, 4))
    sym = (a + a.T) / 2
    check("vech round trip", np.array_equal(numkit.vech_inv(numkit.vech(sym), 4), sym))

    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    pd = (q * np.array([5.0, 2.0, 1.0, 0.5, 0.01])) @ q.T
    b = numkit.inv_sqrt_pd(pd)
    check("inverse square root identity", np.abs(b @ pd @ b - np.eye(5)).max() < 1e-8)

    check("pd projection floor", numkit.min_eigenvalue(numkit.pd_project(sym)) >= numkit.PD_EPSILON - 1e-12)

    check("tau_c(1.345) ~ 0.95", abs(tau_c(1.345) - 0.950) < 1e-3)
    check("tau_c(inf) = 1", tau_c(math.inf) == 1.0)

    est = LocalEstimate(server_id=3, n_k=17, theta_star=rng.standard_normal(3), sigma_star=pd[:3, :3])
    check("wire codec round trip", decode_message(encode_message(est)).theta_star.tolist() == est.theta_star.tolist())

    # The wire carries little-endian doubles in standard base64; a host of
    # another byte order or base64 would send other bytes for the same bits.
    golden = LocalEstimate("7", 120, [1.5, -0.0], [[2.0, 0.5], [0.5, 5e-324]])
    golden_wire = b"v2|'7|120|2|AAAAAAAA+D8AAAAAAAAAgAAAAAAAAABAAAAAAAAA4D8BAAAAAAAAAA==|fc0f2a62"
    back = decode_message(golden_wire)
    check(
        "wire payload of a fixed estimate equals its golden bytes",
        encode_message(golden) == golden_wire
        and back.theta_star.tobytes() == golden.theta_star.tobytes()
        and back.sigma_star.tobytes() == golden.sigma_star.tobytes(),
    )

    # A round goes over the wire as one batch; it must carry the bytes and
    # bits of one payload at a time, whatever its mix of ids and dimensions.
    # A round of one dimension, as every study and shard run sends, is
    # stacked whole; one of mixed dimensions is stacked a member at a time.
    sym_pd = numkit.symmetrize(pd)
    mixed = [
        LocalEstimate(sid, 10 + k, rng.standard_normal(p), sym_pd[:p, :p])
        for k, (sid, p) in enumerate(((4, 2), ("s07", 3), ("12", 2), (-1, 3), ("'q", 3)))
    ]
    one_p = [LocalEstimate(e.server_id, e.n_k, e.theta_star[:2], e.sigma_star[:2, :2]) for e in mixed]
    check(
        "batched wire codec equals one payload at a time, bit for bit",
        all(
            encode_messages(batch) == [encode_message(e) for e in batch]
            and all(
                type(b.server_id) is type(e.server_id)
                and b.server_id == e.server_id
                and b.theta_star.tobytes() == e.theta_star.tobytes()
                and b.sigma_star.tobytes() == e.sigma_star.tobytes()
                for b, e in zip(decode_messages(encode_messages(batch)), batch)
            )
            for batch in (mixed, one_p)
        ),
    )

    # tau_c against E psi_c(Z)^2 by the midpoint rule, which checks the
    # standard normal density inside its closed form.
    c = 1.345
    h = 2 * c / 200_000
    u = -c + h * (np.arange(200_000) + 0.5)
    inner = h * float(np.sum(u * u * np.exp(-0.5 * u * u))) / math.sqrt(2 * math.pi)
    b = math.erf(c / math.sqrt(2))
    check("tau_c(1.345) matches quadrature", abs(tau_c(c) - b * b / (inner + c * c * (1 - b))) < 1e-9)

    twins = [LocalEstimate(k, 100, [2.0, 1.0], np.eye(2)) for k in (1, 2, 3)]
    report = distsim.process(twins, 1.345, 0.05)[3]
    check("detection threshold dof=2", abs(report.threshold**2 - (-2.0 * math.log(0.05))) < 1e-9)

    # The central processor screens and standardizes all servers with stacked
    # eigh/solve calls; its output is reproducible only if this LAPACK returns
    # the same bits for a stack as for one matrix at a time.
    a = rng.standard_normal((6, 3, 3))
    stack = a @ a.transpose(0, 2, 1) + 0.1 * np.eye(3)
    rhs = rng.standard_normal((6, 3))
    values, vectors = np.linalg.eigh(stack)
    sols = np.linalg.solve(stack, rhs[..., None])[..., 0]
    shared = np.linalg.solve(np.broadcast_to(stack[0], stack.shape), rhs[..., None])[..., 0]
    check(
        "stacked eigh and solve equal per-matrix calls bit for bit",
        all(
            np.array_equal(values[k], np.linalg.eigh(stack[k])[0])
            and np.array_equal(vectors[k], np.linalg.eigh(stack[k])[1])
            and np.array_equal(sols[k], np.linalg.solve(stack[k], rhs[k]))
            and np.array_equal(shared[k], np.linalg.solve(stack[0], rhs[k]))
            for k in range(len(stack))
        ),
    )

    # The weighted average adds the servers' weighted rows with
    # add.accumulate; it gives the published bits only if this numpy's
    # accumulate adds one row at a time, as a += loop in server order does
    # (a pairwise sum would differ at p = 1).
    averages_equal = True
    for p in (1, 3):
        servers = [
            LocalEstimate(k, int(rng.integers(1, 10**6)), rng.standard_normal(p), sym_pd[:p, :p] * (1 + k))
            for k in range(300)
        ]
        n_total = sum(e.n_k for e in servers)
        theta, sigma = np.zeros(p), np.zeros((p, p))
        for e in servers:
            theta += e.n_k / n_total * e.theta_star
            sigma += e.n_k / n_total * e.sigma_star
        got = weighted_average(reversed(servers))
        averages_equal &= got[0].tobytes() == theta.tobytes() and got[1].tobytes() == sigma.tobytes()
    check("weighted average equals the server-order loop bit for bit", averages_equal)

    # fit-aggregate-detect reads a plain-decimal shard body with numpy's C
    # text reader and any other with csv and one numpy conversion of the str
    # cells; it reads the doubles float() reads only if this numpy parses a
    # cell as float() does on both paths.
    def per_cell(body: str) -> bytes:
        return np.array([[float(c) for c in row] for row in csv.reader(io.StringIO(body))]).tobytes()

    spread = rng.standard_normal(30) * 10.0 ** rng.uniform(-320.0, 300.0, 30)
    cells = [repr(v) for v in spread.tolist()] + ["-0", ".5", "5.", "+3", "00012", "1e-400"]
    plain = "".join(f"{k % 2},{a},{b}\n" for k, (a, b) in enumerate(zip(cells, reversed(cells))))
    spelled = f'1,{0.1!r},{5e-324!r}\n0,"{math.pi!r}",1_0\n1, {-2 / 3!r} ,{1e300 / 7!r}\r\n'
    plain_table = _read_plain(io.StringIO(plain), 3)
    check(
        "shard parser equals float() bit for bit",
        plain_table is not None
        and plain_table.tobytes() == per_cell(plain)
        and _read_plain(io.StringIO(spelled), 3) is None
        and np.array(list(csv.reader(io.StringIO(spelled))), dtype=float).tobytes()
        == per_cell(spelled),
    )

    # Every sandwich variance is summed by exact_column_means; its bits equal
    # fsum's only if this numpy adds and rounds doubles as IEEE 754 says.
    n = 2000
    half = rng.standard_normal(n // 2) * 1e8
    cancelling = np.concatenate([half, -half[::-1]])
    cancelling[7] += 1e-9
    mixed = rng.standard_normal(n) * 10.0 ** rng.uniform(-300.0, 300.0, n)
    beyond_guard = np.array([1e308, -1e308] * (n // 2))  # summed by fsum itself
    beyond_guard[0] = 1.0
    products = rng.standard_normal(n) * rng.standard_normal(n)
    cols = np.stack([cancelling, mixed, beyond_guard, products], axis=1)
    # A small call too: a 50-row shard's 20 sandwich columns of products, one
    # of them cancelling down to a survivor far below its terms.
    small = rng.standard_normal((50, 20)) * rng.standard_normal((50, 20))
    small[:, 0] = np.concatenate([small[:25, 1], -small[24::-1, 1]])
    small[3, 0] *= 1.0 + 2.0**-52
    check(
        "exact column sums equal math.fsum bit for bit",
        all(
            np.array_equal(
                numkit.exact_column_means(a),
                [math.fsum(col) / a.shape[0] for col in a.T.tolist()],
            )
            for a in (cols, small)
        ),
    )

    # A replicate fits its equal-size shards in one stacked pass; that gives
    # the published bits only if the stacked einsum, matmul, solve and eigh
    # of this numpy and LAPACK equal one call per shard.
    stacked_equal = True
    for model, n in ((ModelSpec.linear(3), 50), (ModelSpec.logistic(2), 300)):
        X = rng.standard_normal((6 * n, model.p))
        eta = X @ np.linspace(1.0, -0.5, model.p)
        y = eta + rng.standard_normal(6 * n)
        if model.kind is ModelKind.LOGISTIC:
            y = (rng.random(6 * n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
        shards = [Observations(y[k * n : (k + 1) * n], X[k * n : (k + 1) * n]) for k in range(6)]
        singles = [fit_local(model, shard) for shard in shards]
        for one, fit in zip(singles, fit_shards(model, shards)):
            stacked_equal &= (
                np.array_equal(one.theta_hat, fit.theta_hat)
                and np.array_equal(one.sigma_hat, fit.sigma_hat)
                and one.grad_norm == fit.grad_norm
            )
    check("stacked local fits equal per-shard fits bit for bit", stacked_equal)

    # Logistic shards of one size run Newton in lockstep, their Hessian
    # entries summed by add.accumulate; that gives the published bits only if
    # this numpy's accumulate adds as its three-operand einsum does, which a
    # Newton run per shard uses here.  Mislabelled far-out rows make some of
    # these shards halve their steps, and they converge at different
    # iterations.
    def newton_alone(data: Observations):
        y, X, n = data.y, data.X, data.n

        def evaluate(theta):
            eta = X @ theta
            pi = expit(eta)
            value = float(np.add.reduce(y * eta - np.logaddexp(0.0, eta))) / n
            hess = -np.einsum("i,ij,ik->jk", pi * (1.0 - pi), X, X) / n
            return value, np.einsum("i,ij->j", y - pi, X) / n, numkit.symmetrize(hess)

        theta = np.zeros(data.p)
        value, grad, hess = evaluate(theta)
        iters = 0
        while float(np.linalg.norm(grad)) > DEFAULT_TOL:
            step = np.linalg.solve(-hess, grad)
            scale = 1.0
            for _ in range(60):
                cand = theta + scale * step
                cand_value, cand_grad, cand_hess = evaluate(cand)
                if cand_value >= value - 1e-14 * abs(value):
                    break
                scale /= 2.0
            theta, value, grad, hess = cand, cand_value, cand_grad, cand_hess
            iters += 1
        return theta, iters, float(np.linalg.norm(grad))

    lever = np.random.default_rng(48)
    shards = []
    for _ in range(6):
        X = lever.standard_normal((300, 2))
        X[:3] *= 10.0 ** lever.uniform(1.0, 2.5, (3, 1))
        y = (lever.random(300) < expit(X @ np.array([5.0, 3.0]))).astype(float)
        y[:3] = 1.0 - y[:3]
        shards.append(Observations(y, X))
    check(
        "stacked logistic Newton equals per-shard Newton bit for bit",
        all(
            (fit.theta_hat.tobytes(), fit.newton_iters, fit.grad_norm)
            == (theta.tobytes(), iters, grad_norm)
            for fit, (theta, iters, grad_norm) in zip(
                fit_shards(ModelSpec.logistic(2), shards), map(newton_alone, shards)
            )
        ),
    )

    if failures:
        print(f"{len(failures)} self-test(s) failed")
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

    chk = sub.add_parser("check", help="run quick numerical self-tests")
    chk.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (RobustAggError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

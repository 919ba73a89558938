"""Distributed-system simulation: data generation, sharding, contamination,
estimate transport, and the Monte Carlo study harness.

A replicate mirrors the full life of a distributed analysis: draw a dataset,
split it over K servers, fit each shard locally, corrupt the transmitted
payloads of the designated servers, push every payload through the text wire
codec, aggregate the variances by spatial median, solve the robust and the
weighted-average aggregations, and screen for contamination.  Replicates are
seeded independently through a counter-based generator keyed on
(base_seed, replicate_index), so a study is reproducible no matter how many
workers execute it or in which order replicates finish.
"""

from __future__ import annotations

import csv
import math
import os
import time
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import expit

from .errors import (
    ChecksumMismatchError,
    DimensionError,
    RobustAggError,
    StudyError,
    TruncatedMessageError,
    VersionMismatchError,
)
from . import aggregate, numkit
from .aggregate import (
    LocalEstimate,
    huber_aggregate,
    standard_errors,
    weighted_average,
)
from .detect import detect
from .models import LocalFit, ModelKind, ModelSpec, Observations, fit_shards, sandwich_variance
from .spatialmed import aggregate_sigma

PROTOCOL_VERSION = "v1"
WORKERS_ENV_VAR = "ROBUSTAGG_WORKERS"

# Half-width multiplier of the nominal 95% confidence interval.
_Z_95 = 1.96

_OMNISCIENT_DEFAULT = -1.0e6


class ContaminationKind(Enum):
    NONE = "none"
    OMNISCIENT = "omniscient"
    GAUSSIAN = "gaussian"
    BIT_FLIP = "bitflip"


@dataclass(frozen=True)
class ContaminationSpec:
    """What happens to the transmitted estimates of the corrupted servers.

    ``count=None`` resolves to floor(K^{1/4}) at run time.  The corrupted
    servers are the first ``count`` in server-id order unless
    ``randomize_placement`` is set (kept off by default for reproducible
    tables).  ``omniscient_value=None`` means every coordinate is -1e6.
    ``gaussian_scale`` is the variance multiplier of the replacement draw,
    N(0, scale * I).
    """

    kind: ContaminationKind = ContaminationKind.NONE
    count: int | None = None
    omniscient_value: tuple | None = None
    gaussian_scale: float = 200.0
    randomize_placement: bool = False

    def __post_init__(self):
        if self.count is not None and self.count < 0:
            raise ValueError("contamination count must be >= 0")
        if self.gaussian_scale <= 0.0:
            raise ValueError("gaussian_scale must be positive")

    def resolved_count(self, n_servers: int) -> int:
        if self.kind is ContaminationKind.NONE:
            return 0
        count = self.count
        if count is None:
            count = int(math.floor(n_servers ** 0.25))
        if count > n_servers:
            raise ValueError(
                f"contamination count {count} exceeds server count {n_servers}"
            )
        return count


@dataclass(frozen=True)
class StudyConfig:
    """Design of one Monte Carlo study."""

    model: ModelKind = ModelKind.LOGISTIC
    theta0: tuple = (2.0, 1.0)
    n_servers: int = 20
    shard_size: int = 1000
    c: float = 1.345
    contamination: ContaminationSpec = ContaminationSpec()
    replicates: int = 200
    alpha: float = 0.05
    base_seed: int = 20240501

    def __post_init__(self):
        if self.n_servers < 1:
            raise ValueError("n_servers must be >= 1")
        if self.shard_size < 1:
            raise ValueError("shard_size must be >= 1")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie strictly between 0 and 1")
        if not self.c > 0.0:
            raise ValueError("tuning constant c must be positive")
        if len(self.theta0) < 1:
            raise ValueError("theta0 must have at least one coordinate")
        self.contamination.resolved_count(self.n_servers)  # validate count vs K

    @property
    def p(self) -> int:
        return len(self.theta0)

    @property
    def total_size(self) -> int:
        return self.n_servers * self.shard_size


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return np.random.Generator(np.random.Philox(seed))


def generate_dataset(kind: ModelKind, theta0, total: int, seed) -> Observations:
    """Draw an i.i.d. dataset: standard normal covariates, responses from the
    model at ``theta0`` (unit-variance Gaussian errors for the linear case)."""
    if total < 1:
        raise ValueError("dataset size must be >= 1")
    theta0 = np.asarray(theta0, dtype=float).ravel()
    rng = _rng(seed)
    X = rng.standard_normal((total, theta0.size))
    eta = X @ theta0
    if kind is ModelKind.LINEAR:
        y = eta + rng.standard_normal(total)
    else:
        y = (rng.random(total) < expit(eta)).astype(float)
    return Observations(y, X)


def partition(data: Observations, n_servers: int) -> list[Observations]:
    """Split into K contiguous, disjoint, equal-size shards."""
    if n_servers < 1:
        raise ValueError("n_servers must be >= 1")
    if data.n % n_servers != 0:
        raise ValueError(
            f"dataset size {data.n} is not divisible by {n_servers} servers"
        )
    size = data.n // n_servers
    return [data[i * size : (i + 1) * size] for i in range(n_servers)]


def contaminate(
    model: ModelSpec,
    fits: list[LocalFit],
    shards: list[Observations],
    spec: ContaminationSpec,
    seed,
) -> list[LocalEstimate]:
    """Turn local fits into the payloads that actually reach the processor.

    Servers selected by ``spec`` transmit a corrupted estimate; their
    variance matrix is the sandwich recomputed on the server's own data at
    the corrupted parameter value (a corrupted estimate corrupts the
    variance with it).  Everything else passes through unchanged.
    """
    if len(fits) != len(shards):
        raise DimensionError("fits and shards must align one-to-one")
    # Module-qualified on purpose: perfbench traces every robustagg function
    # imported into this module by name, and a sort key is called per server.
    order = sorted(range(len(fits)), key=lambda i: aggregate.server_order(fits[i]))
    count = spec.resolved_count(len(fits))
    rng = _rng(seed)
    if spec.randomize_placement and count > 0:
        chosen = set(rng.choice(len(order), size=count, replace=False).tolist())
        corrupt_positions = {order[i] for i in chosen}
    else:
        corrupt_positions = {order[i] for i in range(count)}

    out = []
    for i, fit in enumerate(fits):
        if i not in corrupt_positions or spec.kind is ContaminationKind.NONE:
            out.append(
                LocalEstimate(
                    server_id=fit.server_id,
                    n_k=fit.n_k,
                    theta_star=fit.theta_hat,
                    sigma_star=fit.sigma_hat,
                )
            )
            continue
        if spec.kind is ContaminationKind.OMNISCIENT:
            if spec.omniscient_value is not None:
                theta_star = np.asarray(spec.omniscient_value, dtype=float).ravel()
                if theta_star.size != model.p:
                    raise DimensionError(
                        "omniscient_value dimension does not match the model"
                    )
            else:
                theta_star = np.full(model.p, _OMNISCIENT_DEFAULT)
        elif spec.kind is ContaminationKind.GAUSSIAN:
            theta_star = rng.standard_normal(model.p) * math.sqrt(spec.gaussian_scale)
        elif spec.kind is ContaminationKind.BIT_FLIP:
            theta_star = -fit.theta_hat
        else:  # pragma: no cover - exhaustive enum
            raise ValueError(f"unknown contamination kind {spec.kind}")
        sigma_star = sandwich_variance(model, shards[i], theta_star, allow_singular=True)
        out.append(
            LocalEstimate(
                server_id=fit.server_id,
                n_k=fit.n_k,
                theta_star=theta_star,
                sigma_star=sigma_star,
            )
        )
    return out


# ---------------------------------------------------------------------------
# Wire format: versioned, line-oriented text record
#   v1|server_id|n_k|p|theta:csv|vech_sigma:csv|crc32hex
# Floats are printed with 17 significant digits so decode(encode(x)) is
# bit-identical.  An int server id is sent in canonical decimal; a str id is
# sent as itself, behind a leading "'" when it would otherwise read back as
# an int (or starts with "'"), so both type and text round-trip.
# ---------------------------------------------------------------------------

_STR_ID_MARK = "'"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _is_int_text(text: str) -> bool:
    """True when ``text`` is how ``str`` prints some int."""
    try:
        return str(int(text)) == text
    except ValueError:
        return False


def _encode_id(server_id) -> str:
    if isinstance(server_id, bool) or not isinstance(server_id, (int, str)):
        raise TypeError(f"server id must be an int or a str, got {server_id!r}")
    if isinstance(server_id, int):
        return str(server_id)
    if "|" in server_id:
        raise ValueError(f"server id {server_id!r} contains the field separator '|'")
    if _is_int_text(server_id) or server_id.startswith(_STR_ID_MARK):
        return _STR_ID_MARK + server_id
    return server_id


def _decode_id(text: str) -> int | str:
    if text.startswith(_STR_ID_MARK):
        return text[1:]
    return int(text) if _is_int_text(text) else text


def encode_message(est: LocalEstimate) -> bytes:
    # The wire format carries vech(sigma), so only (near-)symmetric matrices
    # are encodable; a symmetric matrix round-trips bit-identically.
    theta_txt = ",".join(_fmt(v) for v in est.theta_star)
    sigma_txt = ",".join(_fmt(v) for v in numkit.vech(est.sigma_star))
    body = "|".join(
        [PROTOCOL_VERSION, _encode_id(est.server_id), str(est.n_k), str(est.p), theta_txt, sigma_txt]
    )
    crc = zlib.crc32(body.encode("ascii")) & 0xFFFFFFFF
    return f"{body}|{crc:08x}".encode("ascii")


def decode_message(payload: bytes) -> LocalEstimate:
    try:
        text = payload.decode("ascii")
    except (UnicodeDecodeError, AttributeError) as exc:
        raise TruncatedMessageError(f"message is not ascii text: {exc}") from None
    parts = text.split("|")
    if parts and parts[0] != PROTOCOL_VERSION:
        raise VersionMismatchError(
            f"unsupported protocol version {parts[0]!r} (expected {PROTOCOL_VERSION!r})"
        )
    if len(parts) != 7:
        raise TruncatedMessageError(
            f"message has {len(parts)} fields, expected 7"
        )
    body, crc_field = text.rsplit("|", 1)
    try:
        crc_sent = int(crc_field, 16)
    except ValueError:
        raise TruncatedMessageError("checksum field is not hexadecimal") from None
    crc_here = zlib.crc32(body.encode("ascii")) & 0xFFFFFFFF
    if crc_here != crc_sent:
        raise ChecksumMismatchError(
            f"checksum mismatch (message {crc_sent:08x}, payload {crc_here:08x})"
        )
    _, sid_txt, nk_txt, p_txt, theta_txt, sigma_txt = parts[:6]
    try:
        n_k = int(nk_txt)
        p = int(p_txt)
        theta = np.array([float(v) for v in theta_txt.split(",")])
        sigma_vec = np.array([float(v) for v in sigma_txt.split(",")])
    except ValueError as exc:
        raise TruncatedMessageError(f"malformed numeric field: {exc}") from None
    if theta.size != p or sigma_vec.size != numkit.vech_len(p):
        raise TruncatedMessageError(
            "declared dimension does not match the payload lengths"
        )
    return LocalEstimate(
        server_id=_decode_id(sid_txt),
        n_k=n_k,
        theta_star=theta,
        sigma_star=numkit.vech_inv(sigma_vec, p),
    )


# ---------------------------------------------------------------------------
# Replicates and studies
# ---------------------------------------------------------------------------


@dataclass
class ReplicateRecord:
    index: int
    theta_huber: np.ndarray | None = None
    se_huber: np.ndarray | None = None
    cover_huber: np.ndarray | None = None
    theta_wa: np.ndarray | None = None
    se_wa: np.ndarray | None = None
    cover_wa: np.ndarray | None = None
    detection_ratio: float | None = None
    flagged_ids: tuple = ()
    huber_iterations: int = 0
    failed: bool = False
    error: str | None = None


def process(received, c: float, alpha: float, sigma_hat=None):
    """The central processor, run on the payloads it received.

    Aggregates the variance matrices by spatial median (unless a matrix
    ``sigma_hat``, such as a trusted server's, is given), solves the Huber
    aggregation with tuning constant ``c``, forms the weighted average, and
    screens every server at level ``alpha``.  Returns ``(result, theta_bar,
    se_wa, report)``: the :class:`AggregationResult`, the weighted average,
    its standard errors and the :class:`DetectionReport`.

    The Huber result and the report leave out or flag a server whose payload
    has a non-finite entry; the weighted average does not, as the naive
    comparator: a non-finite estimate entry carries into ``theta_bar`` and
    a non-finite variance diagonal entry into ``se_wa``.
    """
    if sigma_hat is None:
        sigma_hat = aggregate_sigma(received)
    result = huber_aggregate(received, sigma_hat, c)
    theta_bar, sigma_bar = weighted_average(received)
    se_wa = standard_errors(sigma_bar, sum(e.n_k for e in received), 1.0)
    report = detect(received, result.theta_hat, sigma_hat, alpha=alpha)
    return result, theta_bar, se_wa, report


def run_replicate(config: StudyConfig, replicate_index: int) -> ReplicateRecord:
    """Execute one end-to-end replicate; deterministic in (base_seed, index)."""
    root = np.random.SeedSequence((config.base_seed, replicate_index))
    data_seed, contam_seed = root.spawn(2)

    model = ModelSpec(config.model, config.p)
    data = generate_dataset(config.model, config.theta0, config.total_size, data_seed)
    shards = partition(data, config.n_servers)
    fits = fit_shards(model, shards, server_ids=range(1, len(shards) + 1))
    estimates = contaminate(model, fits, shards, config.contamination, contam_seed)

    # Transport: everything the processor sees went over the wire.
    received = [decode_message(encode_message(e)) for e in estimates]

    result, theta_bar, se_wa, report = process(received, config.c, config.alpha)

    theta0 = np.asarray(config.theta0, dtype=float)
    cover_huber = np.abs(result.theta_hat - theta0) <= _Z_95 * result.se
    cover_wa = np.abs(theta_bar - theta0) <= _Z_95 * se_wa

    flagged = tuple(report.flagged_theta_ids())
    count = config.contamination.resolved_count(config.n_servers)
    if count > 0:
        corrupted = {k + 1 for k in range(count)}
        detection_ratio = len(corrupted.intersection(flagged)) / count
    else:
        detection_ratio = None

    return ReplicateRecord(
        index=replicate_index,
        theta_huber=result.theta_hat,
        se_huber=result.se,
        cover_huber=cover_huber,
        theta_wa=theta_bar,
        se_wa=se_wa,
        cover_wa=cover_wa,
        detection_ratio=detection_ratio,
        flagged_ids=flagged,
        huber_iterations=result.iterations,
    )


@dataclass
class EstimatorMetrics:
    """BIAS / SD / ASE / CP per coefficient for one aggregation method."""

    bias: np.ndarray
    sd: np.ndarray
    ase: np.ndarray
    cp: np.ndarray

    def mse(self) -> np.ndarray:
        return self.bias**2 + self.sd**2


@dataclass
class StudyMetrics:
    config: StudyConfig
    huber: EstimatorMetrics
    weighted: EstimatorMetrics
    relative_efficiency: np.ndarray
    hit_rate: float | None
    flag_rate: float
    per_server_flag_rate: dict
    replicates_completed: int
    replicates_failed: int
    runtime_seconds: float


def _summarize(records: list[ReplicateRecord], config: StudyConfig) -> StudyMetrics:
    theta0 = np.asarray(config.theta0, dtype=float)
    ok = [r for r in records if not r.failed]

    def estimator(theta_attr, se_attr, cover_attr) -> EstimatorMetrics:
        thetas = np.stack([getattr(r, theta_attr) for r in ok])
        ses = np.stack([getattr(r, se_attr) for r in ok])
        covers = np.stack([getattr(r, cover_attr) for r in ok])
        mean = thetas.mean(axis=0)
        return EstimatorMetrics(
            bias=mean - theta0,
            sd=np.sqrt(((thetas - mean) ** 2).mean(axis=0)),
            ase=ses.mean(axis=0),
            cp=covers.mean(axis=0),
        )

    hub = estimator("theta_huber", "se_huber", "cover_huber")
    wa = estimator("theta_wa", "se_wa", "cover_wa")
    re = wa.mse() / hub.mse()

    ratios = [r.detection_ratio for r in ok if r.detection_ratio is not None]
    hit_rate = float(np.mean(ratios)) if ratios else None

    k = config.n_servers
    flag_counts = {sid: 0 for sid in range(1, k + 1)}
    for r in ok:
        for sid in r.flagged_ids:
            flag_counts[sid] += 1
    per_server = {sid: flag_counts[sid] / len(ok) for sid in flag_counts}
    flag_rate = float(np.mean([len(r.flagged_ids) / k for r in ok]))

    return StudyMetrics(
        config=config,
        huber=hub,
        weighted=wa,
        relative_efficiency=re,
        hit_rate=hit_rate,
        flag_rate=flag_rate,
        per_server_flag_rate=per_server,
        replicates_completed=len(ok),
        replicates_failed=len(records) - len(ok),
        runtime_seconds=0.0,
    )


def _replicate_or_failure(config: StudyConfig, index: int) -> ReplicateRecord:
    try:
        return run_replicate(config, index)
    except RobustAggError as exc:
        return ReplicateRecord(index=index, failed=True, error=str(exc))


def default_workers() -> int:
    value = os.environ.get(WORKERS_ENV_VAR, "1")
    try:
        workers = int(value)
    except ValueError:
        workers = 1
    return max(1, workers)


def run_study(config: StudyConfig, workers: int | None = None) -> StudyMetrics:
    """Run all replicates and reduce them into the metrics table.

    Replicates are independent and may execute in a process pool; the
    reduction happens in replicate order, so the metrics are identical for
    any worker count.  The study aborts if more than 10% of the replicates
    fail.
    """
    if config.replicates < 2:
        raise ValueError("a study needs at least 2 replicates")
    if workers is None:
        workers = default_workers()
    started = time.perf_counter()
    indices = range(config.replicates)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(
                pool.map(_replicate_or_failure, [config] * config.replicates, indices)
            )
    else:
        records = [_replicate_or_failure(config, i) for i in indices]
    records.sort(key=lambda r: r.index)

    failed = sum(1 for r in records if r.failed)
    if failed > 0.1 * config.replicates:
        first = next(r for r in records if r.failed)
        raise StudyError(
            f"{failed} of {config.replicates} replicates failed "
            f"(first failure: {first.error})"
        )
    metrics = _summarize(records, config)
    metrics.runtime_seconds = time.perf_counter() - started
    return metrics


# ---------------------------------------------------------------------------
# CSV emission (full precision; human tables are the CLI's job)
# ---------------------------------------------------------------------------


def study_metrics_to_csv(metrics: StudyMetrics, fileobj) -> None:
    """One row per (estimator, coefficient) plus a summary row for the hit rate.

    The wall-clock runtime is deliberately not written: output files must be
    byte-identical across reruns of the same seeded invocation.
    """
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(["estimator", "coefficient", "bias", "sd", "ase", "cp", "re"])
    for name, est in (("huber", metrics.huber), ("weighted_average", metrics.weighted)):
        for j in range(metrics.config.p):
            re_cell = repr(float(metrics.relative_efficiency[j])) if name == "huber" else ""
            writer.writerow(
                [
                    name,
                    j + 1,
                    repr(float(est.bias[j])),
                    repr(float(est.sd[j])),
                    repr(float(est.ase[j])),
                    repr(float(est.cp[j])),
                    re_cell,
                ]
            )
    hr_cell = "" if metrics.hit_rate is None else repr(float(metrics.hit_rate))
    writer.writerow(["summary", "hr", hr_cell, "", "", "", ""])


def detection_rates_to_csv(metrics: StudyMetrics, fileobj) -> None:
    """Per-server frequency of being flagged in step 1 across replicates."""
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(["server_id", "theta_flag_rate"])
    for sid in sorted(metrics.per_server_flag_rate):
        writer.writerow([sid, repr(float(metrics.per_server_flag_rate[sid]))])

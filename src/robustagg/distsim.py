"""Distributed-system simulation: data generation, sharding, contamination,
estimate transport, and the Monte Carlo study harness.

A replicate mirrors the full life of a distributed analysis: draw a dataset,
split it over K servers, fit each shard locally, corrupt the transmitted
payloads of the designated servers, push every payload through the wire
codec, aggregate the variances by spatial median, solve the robust and the
weighted-average aggregations, and screen for contamination.  Replicates are
seeded independently through a counter-based generator keyed on
(base_seed, replicate_index), so a study is reproducible no matter how many
workers execute it or in which order replicates finish.
"""

from __future__ import annotations

import base64
import csv
import math
import os
import time
import zlib
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import expit

from .errors import (
    ChecksumMismatchError,
    ConfigError,
    DimensionError,
    RobustAggError,
    StudyError,
    TruncatedMessageError,
    VersionMismatchError,
)
from . import numkit
from .aggregate import (
    DEFAULT_HUBER_C,
    LocalEstimate,
    RoundView,
    admit,
    huber_aggregate,
    listed_round,
    server_positions,
    standard_errors,
    tau_c,
    weighted_average,
)
from .detect import DEFAULT_ALPHA, detect, detection_threshold
from .models import (
    EqualShards,
    LocalFits,
    ModelKind,
    ModelSpec,
    Observations,
    fit_shards,
    sandwich_variances,
)
from .spatialmed import aggregate_sigma

PROTOCOL_VERSION = "v2"
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
    servers are the first ``count`` in server-id order, the servers a
    replicate scores detection against.  ``omniscient_value=None`` means
    every coordinate is -1e6.
    ``gaussian_scale`` is the variance multiplier of the replacement draw,
    N(0, scale * I).
    """

    kind: ContaminationKind = ContaminationKind.NONE
    count: int | None = None
    omniscient_value: tuple | None = None
    gaussian_scale: float = 200.0

    def __post_init__(self):
        if self.count is not None and self.count < 0:
            raise ValueError("contamination count must be >= 0")
        if not 0.0 < self.gaussian_scale < math.inf:
            raise ValueError("gaussian_scale must be positive and finite")

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
    c: float = DEFAULT_HUBER_C
    contamination: ContaminationSpec = ContaminationSpec()
    replicates: int = 200
    alpha: float = DEFAULT_ALPHA
    base_seed: int = 20240501

    def __post_init__(self):
        if self.n_servers < 1:
            raise ValueError("n_servers must be >= 1")
        if self.shard_size < 1:
            raise ValueError("shard_size must be >= 1")
        if self.replicates < 2:
            raise ValueError("a study needs at least 2 replicates")
        detection_threshold(self.p, self.alpha)
        tau_c(self.c)
        if len(self.theta0) < 1:
            raise ValueError("theta0 must have at least one coordinate")
        if not all(math.isfinite(t) for t in self.theta0):
            raise ValueError("theta0 must be finite")
        self.contamination.resolved_count(self.n_servers)  # validate count vs K
        spec = self.contamination
        if spec.kind is ContaminationKind.OMNISCIENT and spec.omniscient_value is not None:
            if np.size(spec.omniscient_value) != len(self.theta0):
                raise ValueError(
                    f"omniscient_value has {np.size(spec.omniscient_value)} coordinates, "
                    f"theta0 has {len(self.theta0)}"
                )

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


def partition(data: Observations, n_servers: int) -> EqualShards:
    """Split into K contiguous, disjoint, equal-size shards, held as one
    stacked view of ``data``'s arrays (see :class:`EqualShards`)."""
    if n_servers < 1:
        raise ValueError("n_servers must be >= 1")
    if data.n % n_servers != 0:
        raise ValueError(
            f"dataset size {data.n} is not divisible by {n_servers} servers"
        )
    return EqualShards(data, n_servers)


def contaminate(
    model: ModelSpec,
    fits: LocalFits,
    shards,
    spec: ContaminationSpec,
    seed,
) -> RoundView:
    """The round of payloads that actually reaches the processor: the
    :class:`LocalFits` that ``models.fit_shards`` returns, in server order,
    copied once, with the corrupted rows replaced.

    The first ``spec.resolved_count(K)`` servers in server-id order
    transmit a corrupted estimate, drawn in the order of ``fits``; their
    variance matrix is the sandwich recomputed on the server's own data at
    the corrupted parameter value (a corrupted estimate corrupts the
    variance with it), for all of them in one
    ``models.sandwich_variances`` call.  At an extreme value a server's
    sums may go beyond the largest double; its matrix then comes out all
    NaN, which the processor leaves out and flags.  Everything else passes
    through unchanged.
    """
    if len(fits) != len(shards):
        raise DimensionError("fits and shards must align one-to-one")
    p = model.p
    order = server_positions(fits.server_ids)
    thetas, sigmas = fits.thetas[order], fits.sigmas[order]
    rng = _rng(seed)
    # Row j of the round is fits[order[j]]; the corrupted rows draw in fits order.
    corrupted = sorted(range(spec.resolved_count(len(order))), key=order.__getitem__)
    for j in corrupted:
        if spec.kind is ContaminationKind.OMNISCIENT:
            if spec.omniscient_value is not None:
                theta_star = np.asarray(spec.omniscient_value, dtype=float).ravel()
                if theta_star.size != p:
                    raise DimensionError("omniscient_value dimension does not match the model")
            else:
                theta_star = np.full(p, _OMNISCIENT_DEFAULT)
        elif spec.kind is ContaminationKind.GAUSSIAN:
            theta_star = rng.standard_normal(p) * math.sqrt(spec.gaussian_scale)
        elif spec.kind is ContaminationKind.BIT_FLIP:
            theta_star = -fits.thetas[order[j]]
        else:  # pragma: no cover - exhaustive enum
            raise ValueError(f"unknown contamination kind {spec.kind}")
        thetas[j] = theta_star
    if corrupted:
        sigmas[corrupted] = sandwich_variances(
            model, [shards[order[j]] for j in corrupted], thetas[corrupted]
        )
    return RoundView(
        [fits.server_ids[i] for i in order], [fits.n_k[i] for i in order], thetas, sigmas
    )


# ---------------------------------------------------------------------------
# Wire format: versioned, line-oriented ascii record
#   v2|server_id|n_k|p|base64(theta, vech_sigma)|crc32hex
# The numbers are the little-endian IEEE-754 float64 bytes of theta and then
# vech(sigma), in one canonical base64 field, so decode(encode(x)) has x's
# bits, NaN signs and payloads included.  The CRC covers every byte before
# it.  An int server id is sent in canonical decimal; a str id is sent as
# itself, behind a leading "'" when it would otherwise read back as an int
# (or starts with "'"), so both type and text round-trip.
#
# A round of payloads is encoded and decoded in one call; the one-payload
# calls are that call on a list of one.  The members of a decoded round are
# what the one-payload calls return, and a batch raises what the first
# payload to fail would raise alone.
# ---------------------------------------------------------------------------

_STR_ID_MARK = "'"
_WIRE_FLOAT = np.dtype("<f8")


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


def encode_messages(estimates) -> list[bytes]:
    """The wire payload of every member of a round (a :class:`RoundView`,
    or estimates in any order), in order.

    The wire format carries vech(sigma), so only (near-)symmetric matrices
    are encodable; a symmetric matrix round-trips bit-identically.  A
    matrix with a non-finite entry is sent too, as the vech of its
    symmetrized form, since the decoder accepts it and the processor leaves
    it out and flags it.  The rows share one stacked symmetry test and one
    ``tobytes``, and each payload takes one base64 call and one CRC.
    Estimates that differ in dimension are sent one at a time.
    """
    view = estimates
    if not isinstance(view, RoundView):
        estimates = list(estimates)
        if len({e.p for e in estimates}) > 1:
            return [encode_messages([e])[0] for e in estimates]
        view = listed_round(estimates)
    k, p = view.thetas.shape
    sendable = np.zeros(k, dtype=bool)
    numbers: list = [b""] * k
    if k and p >= 1:  # a p of 0 raises ensure_symmetric's DimensionError below
        sendable = numkit.symmetric_mask(view.sigmas) | ~np.isfinite(view.sigmas).all(axis=(1, 2))
        vechs = numkit.vech_stack(numkit.symmetrize(view.sigmas))
        blob = np.concatenate([view.thetas, vechs], axis=1).astype(_WIRE_FLOAT, copy=False).tobytes()
        width = len(blob) // k
        numbers = [base64.b64encode(blob[j * width : (j + 1) * width]) for j in range(k)]
    out = []
    for sid, n_k, sigma, ok, b64 in zip(view.server_ids, view.n_k, view.sigmas, sendable, numbers):
        if not ok:
            numkit.ensure_symmetric(sigma)  # raises its error for this matrix
        body = f"{PROTOCOL_VERSION}|{_encode_id(sid)}|{n_k}|{p}|".encode("ascii") + b64
        out.append(b"%s|%08x" % (body, zlib.crc32(body)))
    return out


def encode_message(est: LocalEstimate) -> bytes:
    """The wire payload of one estimate: :func:`encode_messages` of one."""
    return encode_messages([est])[0]


def _checked_fields(payload: bytes) -> tuple:
    """``(server id text, n_k, p, numbers)`` of a payload whose version,
    field count, checksum, numbers, integer fields, dimension and ``n_k``
    hold, where ``numbers`` is the bytes of its p + vech_len(p) doubles.
    This is the whole rule for one payload; the fields it returns make a
    valid round."""
    try:
        text = payload.decode("ascii")
    except (UnicodeDecodeError, AttributeError) as exc:
        raise TruncatedMessageError(f"message is not ascii text: {exc}") from None
    parts = text.split("|")
    if parts[0] != PROTOCOL_VERSION:
        raise VersionMismatchError(
            f"unsupported protocol version {parts[0]!r} (expected {PROTOCOL_VERSION!r})"
        )
    if len(parts) != 6:
        raise TruncatedMessageError(
            f"message has {len(parts)} fields, expected 6"
        )
    body, crc_field = text.rsplit("|", 1)
    try:
        crc_sent = int(crc_field, 16)
    except ValueError:
        raise TruncatedMessageError("checksum field is not hexadecimal") from None
    crc_here = zlib.crc32(payload[: len(body)])
    if crc_here != crc_sent:
        raise ChecksumMismatchError(
            f"checksum mismatch (message {crc_sent:08x}, payload {crc_here:08x})"
        )
    _, sid_txt, nk_txt, p_txt, b64 = parts[:5]
    try:
        n_k, p = int(nk_txt), int(p_txt)
        numbers = base64.b64decode(b64, validate=True)
    except ValueError as exc:
        raise TruncatedMessageError(f"malformed numeric field: {exc}") from None
    # Canonical: "05", "+5" or "1_0" read as ints, and a numbers field with
    # nonzero pad bits decodes, but none is what the encoder sends.
    if str(n_k) != nk_txt or str(p) != p_txt:
        raise TruncatedMessageError("n_k or p is not in canonical decimal")
    if base64.b64encode(numbers).decode("ascii") != b64:
        raise TruncatedMessageError("numbers field is not canonical base64")
    if p < 1 or len(numbers) != _WIRE_FLOAT.itemsize * (p + numkit.vech_len(p)):
        raise TruncatedMessageError(
            "declared dimension does not match the payload lengths"
        )
    if n_k < 1:
        raise ValueError("n_k must be >= 1")
    return sid_txt, n_k, p, numbers


def _stacked_round(fields) -> RoundView:
    """The round of checked payload fields of one dimension, from one
    ``np.frombuffer`` over all their numbers and one stacked ``vech_inv``."""
    p = fields[0][2] if fields else 0
    values = np.frombuffer(b"".join(f[3] for f in fields), dtype=_WIRE_FLOAT)
    block = values.reshape(len(fields), p + numkit.vech_len(p))
    return RoundView(
        [_decode_id(f[0]) for f in fields],
        [f[1] for f in fields],
        block[:, :p].copy(),
        numkit.vech_inv_stack(block[:, p:], p),
    )


def decode_messages(payloads):
    """The estimates the wire payloads carry, in payload order.

    Each payload is checked once, in order, by :func:`_checked_fields`, so
    the error raised is the one the first failing payload raises alone.  A
    round of one dimension is then stacked whole into one
    :class:`RoundView`; payloads that differ in dimension come back as a
    tuple of estimates, each stacked alone, for the processor's receive
    rule (``aggregate.admit``) to decide which it admits.
    """
    fields = [_checked_fields(payload) for payload in payloads]
    if len({f[2] for f in fields}) > 1:
        return tuple(_stacked_round([f])[0] for f in fields)
    return _stacked_round(fields)


def decode_message(payload: bytes) -> LocalEstimate:
    """The estimate of one wire payload: the member of
    :func:`decode_messages` of one."""
    return decode_messages([payload])[0]


# ---------------------------------------------------------------------------
# Replicates and studies
# ---------------------------------------------------------------------------


@dataclass
class ReplicateRecord:
    """What one replicate measured: each estimator's theta and standard
    errors, and the ids step 1 flagged.  A replicate failed exactly when
    ``error`` is set; its other fields are then left at their defaults.
    Coverage, hits and flag counts are derived from these by
    :func:`_summarize`."""

    index: int
    theta_huber: np.ndarray | None = None
    se_huber: np.ndarray | None = None
    theta_wa: np.ndarray | None = None
    se_wa: np.ndarray | None = None
    flagged_ids: tuple = ()
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
    a non-finite variance diagonal entry into ``se_wa``.  A nonpositive
    pooled variance gives a NaN standard error too, as a NaN one does.

    ``received`` goes through the receive rule, ``aggregate.admit``, once:
    the parameter dimension is the one a strict majority of the servers
    sends, and a server of another dimension is left out of everything but
    the report, where its row's error reads "theta_hat dimension does not
    match the estimate"; without a strict majority,
    :class:`DimensionError` is raised.

    Sigma-hat goes through ``numkit.require_pd`` once, before any other
    stage (so a bad given ``sigma_hat`` raises before a bad ``c`` or a round
    without a finite estimate does), and the stages reuse its
    factorization.
    """
    # In server order (sorted and stacked only if it is not yet); every
    # stage below reads this view.
    view = admit(received)
    # Checked and factored once; the stages below pass it through.
    sigma_hat = aggregate_sigma(view) if sigma_hat is None else numkit.require_pd(sigma_hat, view.p)
    result = huber_aggregate(view, sigma_hat, c)
    theta_bar, sigma_bar = weighted_average(view)
    diag = np.diagonal(sigma_bar)
    np.fill_diagonal(sigma_bar, np.where(diag > 0.0, diag, np.nan))
    se_wa = standard_errors(sigma_bar, view.n_total, 1.0)
    report = detect(view, result.theta_hat, sigma_hat, alpha=alpha)
    return result, theta_bar, se_wa, report


def run_replicate(config: StudyConfig, replicate_index: int) -> ReplicateRecord:
    """Execute one end-to-end replicate; deterministic in (base_seed, index)."""
    root = np.random.SeedSequence((config.base_seed, replicate_index))
    data_seed, contam_seed = root.spawn(2)

    model = ModelSpec(config.model, config.p)
    data = generate_dataset(config.model, config.theta0, config.total_size, data_seed)
    shards = partition(data, config.n_servers)
    fits = fit_shards(model, shards, server_ids=range(1, len(shards) + 1))
    sent = contaminate(model, fits, shards, config.contamination, contam_seed)

    # Transport: everything the processor sees went over the wire.
    received = decode_messages(encode_messages(sent))

    result, theta_bar, se_wa, report = process(received, config.c, config.alpha)
    return ReplicateRecord(
        index=replicate_index,
        theta_huber=result.theta_hat,
        se_huber=result.se,
        theta_wa=theta_bar,
        se_wa=se_wa,
        flagged_ids=tuple(report.flagged_theta_ids()),
    )


@dataclass
class EstimatorMetrics:
    """BIAS / SD / ASE / CP per coefficient for one aggregation method."""

    bias: np.ndarray
    sd: np.ndarray
    ase: np.ndarray
    cp: np.ndarray

    def mse(self) -> np.ndarray:
        # A broken-down estimator's bias may square beyond the largest
        # double; its MSE is then inf, and its relative efficiency too.
        with np.errstate(over="ignore"):
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
    """Every metric of the study, each derived once from the records that
    completed: per estimator BIAS, SD, ASE and CP (the share of replicates
    whose 95% interval covers theta0 coordinatewise), RE, the hit rate (the
    mean share of the corrupted servers a replicate flags in step 1, None
    without corrupted servers) and the step-1 flag rates."""
    theta0 = np.asarray(config.theta0, dtype=float)
    ok = [r for r in records if r.error is None]

    def estimator(theta_attr, se_attr) -> EstimatorMetrics:
        thetas = np.stack([getattr(r, theta_attr) for r in ok])
        ses = np.stack([getattr(r, se_attr) for r in ok])
        mean = thetas.mean(axis=0)
        return EstimatorMetrics(
            bias=mean - theta0,
            sd=np.sqrt(((thetas - mean) ** 2).mean(axis=0)),
            ase=ses.mean(axis=0),
            cp=(np.abs(thetas - theta0) <= _Z_95 * ses).mean(axis=0),
        )

    hub = estimator("theta_huber", "se_huber")
    wa = estimator("theta_wa", "se_wa")
    re = wa.mse() / hub.mse()

    count = config.contamination.resolved_count(config.n_servers)
    hit_rate = None
    if count > 0:
        corrupted = set(range(1, count + 1))
        hit_rate = float(np.mean([len(corrupted.intersection(r.flagged_ids)) / count for r in ok]))

    k = config.n_servers
    flag_counts = Counter(sid for r in ok for sid in r.flagged_ids)
    per_server = {sid: flag_counts[sid] / len(ok) for sid in range(1, k + 1)}
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
        return ReplicateRecord(index=index, error=str(exc))


def check_workers(workers, source: str = "workers") -> int:
    """``workers`` as a worker count; :class:`ConfigError`, naming
    ``source``, unless it is an integer >= 1."""
    try:
        count = int(workers)
    except ValueError:
        raise ConfigError(f"{source} must be an integer, got {workers!r}") from None
    if count < 1:
        raise ConfigError(f"{source} must be >= 1")
    return count


def default_workers() -> int:
    """The worker count ``$ROBUSTAGG_WORKERS`` sets, by :func:`check_workers`,
    or 1 when it is unset or empty."""
    value = os.environ.get(WORKERS_ENV_VAR)
    return check_workers(value, WORKERS_ENV_VAR) if value else 1


def run_study(config: StudyConfig, workers: int | None = None) -> StudyMetrics:
    """Run all replicates and reduce them into the metrics table.

    Replicates are independent and may execute in a process pool, whose
    ``map`` yields them in replicate order as the serial loop does; the
    reduction happens in that order, so the metrics are identical for any
    worker count.  The study aborts if more than 10% of the replicates
    fail.  ``workers`` None means :func:`default_workers`; any other value
    must pass :func:`check_workers`.
    """
    workers = default_workers() if workers is None else check_workers(workers)
    started = time.perf_counter()
    indices = range(config.replicates)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(
                pool.map(_replicate_or_failure, [config] * config.replicates, indices)
            )
    else:
        records = [_replicate_or_failure(config, i) for i in indices]

    failed = sum(1 for r in records if r.error is not None)
    if failed > 0.1 * config.replicates:
        first = next(r for r in records if r.error is not None)
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


def metric_rows(metrics: StudyMetrics):
    """The rows of the metrics table: (estimator, coefficient, bias, sd, ase,
    cp, re) per estimator and coefficient; re is None for the weighted
    average."""
    for name, est in (("huber", metrics.huber), ("weighted_average", metrics.weighted)):
        for j in range(metrics.config.p):
            re = metrics.relative_efficiency[j] if name == "huber" else None
            yield name, j + 1, est.bias[j], est.sd[j], est.ase[j], est.cp[j], re


def study_metrics_to_csv(metrics: StudyMetrics, fileobj) -> None:
    """The rows of :func:`metric_rows` plus a summary row for the hit rate.

    The wall-clock runtime is deliberately not written: output files must be
    byte-identical across reruns of the same seeded invocation.
    """
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(["estimator", "coefficient", "bias", "sd", "ase", "cp", "re"])
    for name, coef, *values in metric_rows(metrics):
        writer.writerow([name, coef, *("" if v is None else repr(float(v)) for v in values)])
    hr_cell = "" if metrics.hit_rate is None else repr(float(metrics.hit_rate))
    writer.writerow(["summary", "hr", hr_cell, "", "", "", ""])


def detection_rates_to_csv(metrics: StudyMetrics, fileobj) -> None:
    """Per-server frequency of being flagged in step 1 across replicates."""
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(["server_id", "theta_flag_rate"])
    for sid in sorted(metrics.per_server_flag_rate):
        writer.writerow([sid, repr(float(metrics.per_server_flag_rate[sid]))])

import base64
import collections
import dataclasses
import io
import math
import struct
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from robustagg import distsim, models, numkit
from robustagg.aggregate import (
    REPEATED_ID,
    LocalEstimate,
    huber_aggregate,
    standard_errors,
    weighted_average,
)
from robustagg.detect import detect
from robustagg.distsim import (
    ContaminationKind,
    ContaminationSpec,
    ReplicateRecord,
    StudyConfig,
    contaminate,
    decode_message,
    decode_messages,
    encode_message,
    encode_messages,
    generate_dataset,
    partition,
    process,
    run_replicate,
    run_study,
    study_metrics_to_csv,
)
from robustagg.errors import (
    ChecksumMismatchError,
    ConfigError,
    DimensionError,
    NonConvergenceError,
    StudyError,
    TruncatedMessageError,
    VersionMismatchError,
)
from robustagg.models import ModelKind, ModelSpec, Observations, fit_local, sandwich_variance
from robustagg.spatialmed import aggregate_sigma


class TestGenerate:
    def test_deterministic_given_seed(self):
        a = generate_dataset(ModelKind.LOGISTIC, (2.0, 1.0), 5000, 42)
        b = generate_dataset(ModelKind.LOGISTIC, (2.0, 1.0), 5000, 42)
        assert np.array_equal(a.y, b.y) and np.array_equal(a.X, b.X)
        c = generate_dataset(ModelKind.LOGISTIC, (2.0, 1.0), 5000, 43)
        assert not np.array_equal(a.y, c.y)

    def test_covariate_moments(self):
        data = generate_dataset(ModelKind.LINEAR, (2.0, 1.0), 40_000, 7)
        bound = 5.0 / math.sqrt(40_000)
        assert np.abs(data.X.mean(axis=0)).max() <= bound
        assert np.abs(data.X.std(axis=0) - 1.0).max() <= bound

    def test_linear_consistency(self):
        data = generate_dataset(ModelKind.LINEAR, (2.0, 1.0), 100_000, 11)
        fit = fit_local(ModelSpec.linear(2), data)
        assert np.abs(fit.theta_hat - [2.0, 1.0]).max() <= 0.02

    def test_logistic_balanced_at_zero(self):
        data = generate_dataset(ModelKind.LOGISTIC, (0.0, 0.0), 100_000, 13)
        assert data.y.mean() == pytest.approx(0.5, abs=0.01)


class TestPartition:
    def test_contiguous_shards(self):
        data = generate_dataset(ModelKind.LINEAR, (1.0,), 6, 3)
        shards = partition(data, 3)
        assert [s.n for s in shards] == [2, 2, 2]
        assert np.array_equal(shards[1].X, data.X[2:4])

    def test_single_shard(self):
        data = generate_dataset(ModelKind.LINEAR, (1.0,), 10, 3)
        shards = partition(data, 1)
        assert shards[0].n == 10

    def test_indivisible_rejected(self):
        data = generate_dataset(ModelKind.LINEAR, (1.0,), 10, 3)
        with pytest.raises(ValueError):
            partition(data, 3)


def csv_text(report):
    """The text ``report.to_csv`` writes."""
    buf = io.StringIO()
    report.to_csv(buf)
    return buf.getvalue()


def fit_shards(model, theta0, k, n, seed, server_ids=None):
    data = generate_dataset(model.kind, theta0, k * n, seed)
    shards = partition(data, k)
    fits = models.fit_shards(model, shards, server_ids=server_ids or range(1, k + 1))
    return shards, fits


class TestContaminate:
    def test_none_is_passthrough(self):
        model = ModelSpec.logistic(2)
        shards, fits = fit_shards(model, (2.0, 1.0), 4, 200, 3)
        ests = contaminate(model, fits, shards, ContaminationSpec(), 0)
        for e, f in zip(ests, fits):
            assert np.array_equal(e.theta_star, f.theta_hat)
            assert np.array_equal(e.sigma_star, f.sigma_hat)

    def test_omniscient_payloads(self):
        model = ModelSpec.logistic(2)
        shards, fits = fit_shards(model, (2.0, 1.0), 4, 200, 5)
        spec = ContaminationSpec(kind=ContaminationKind.OMNISCIENT, count=2)
        ests = contaminate(model, fits, shards, spec, 0)
        for e in ests[:2]:
            assert np.array_equal(e.theta_star, [-1e6, -1e6])
        for e, f in zip(ests[2:], fits[2:]):
            assert np.array_equal(e.theta_star, f.theta_hat)

    def test_bitflip_negates(self):
        model = ModelSpec.linear(2)
        shards, fits = fit_shards(model, (2.0, 1.0), 4, 200, 7)
        spec = ContaminationSpec(kind=ContaminationKind.BIT_FLIP, count=1)
        ests = contaminate(model, fits, shards, spec, 0)
        assert np.array_equal(ests[0].theta_star, -fits[0].theta_hat)

    def test_gaussian_reproducible(self):
        model = ModelSpec.linear(2)
        shards, fits = fit_shards(model, (2.0, 1.0), 4, 200, 9)
        spec = ContaminationSpec(kind=ContaminationKind.GAUSSIAN, count=2)
        a = contaminate(model, fits, shards, spec, 123)
        b = contaminate(model, fits, shards, spec, 123)
        assert np.array_equal(a[0].theta_star, b[0].theta_star)
        c = contaminate(model, fits, shards, spec, 124)
        assert not np.array_equal(a[0].theta_star, c[0].theta_star)

    def test_contaminated_sigma_recomputed_at_star(self):
        # The transmitted variance of a corrupted server is the sandwich
        # evaluated at the corrupted parameter on that server's own data.
        model = ModelSpec.linear(2)
        shards, fits = fit_shards(model, (2.0, 1.0), 3, 200, 11)
        spec = ContaminationSpec(kind=ContaminationKind.BIT_FLIP, count=1)
        ests = contaminate(model, fits, shards, spec, 0)
        expected = sandwich_variance(
            model, shards[0], -fits[0].theta_hat, allow_singular=True
        )
        assert np.array_equal(ests[0].sigma_star, expected)
        assert not np.array_equal(ests[0].sigma_star, fits[0].sigma_hat)

    def test_one_overflowing_server_alone_comes_out_nan(self, monkeypatch):
        # Three corrupted servers share one stacked sandwich; the middle
        # one's products overflow, so the stacked call raises and each is
        # recomputed alone: only that one's matrix is all NaN.
        model = ModelSpec.linear(2)
        shards, fits = fit_shards(model, (2.0, 1.0), 5, 40, 17)
        shards = list(shards)
        shards[1] = Observations(shards[1].y, shards[1].X * 1e160)
        calls = []
        stacked = models._stacked_sandwich
        monkeypatch.setattr(
            models, "_stacked_sandwich", lambda m, X, *a, **k: calls.append(len(X)) or stacked(m, X, *a, **k)
        )
        spec = ContaminationSpec(kind=ContaminationKind.BIT_FLIP, count=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ests = contaminate(model, fits, shards, spec, 0)
        assert calls == [3, 1, 1, 1]
        assert np.isnan(ests[1].sigma_star).all()
        for k in (0, 2):
            alone = sandwich_variance(model, shards[k], -fits[k].theta_hat, allow_singular=True)
            assert np.isfinite(alone).all()
            assert ests[k].sigma_star.tobytes() == alone.tobytes()
        for k in (3, 4):
            assert ests[k].sigma_star.tobytes() == fits[k].sigma_hat.tobytes()

    def test_default_count_fourth_root(self):
        assert ContaminationSpec(kind=ContaminationKind.BIT_FLIP).resolved_count(20) == 2
        assert ContaminationSpec(kind=ContaminationKind.BIT_FLIP).resolved_count(100) == 3
        assert ContaminationSpec().resolved_count(20) == 0


class TestTransport:
    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            p = int(rng.integers(1, 6))
            a = rng.standard_normal((p, p))
            est = LocalEstimate(
                server_id=int(rng.integers(1, 1000)),
                n_k=int(rng.integers(1, 10**6)),
                theta_star=rng.standard_normal(p) * 10.0 ** rng.integers(-8, 8),
                sigma_star=(a + a.T) / 2,
            )
            back = decode_message(encode_message(est))
            assert back.server_id == est.server_id
            assert back.n_k == est.n_k
            assert np.array_equal(back.theta_star, est.theta_star)
            assert np.array_equal(back.sigma_star, est.sigma_star)

    def test_every_bit_round_trips(self):
        # The edge values, signed zeros and infinities, subnormals, and NaNs
        # of both signs with a payload: quiet ones in sigma, whose
        # symmetrizing sum would quiet a signaling NaN, and signaling ones
        # too in theta, which is sent as it is.
        values = np.array(EDGE_VALUES + [0.0, -0.0, math.inf, -math.inf, 2.0**-1074, -(2.0**-1060)])
        nans = np.array(
            [0x7FF8000000000123, 0xFFF8000000000456, 0x7FFFFFFFFFFFFFFF, 0xFFF8000000000000],
            dtype=np.uint64,
        ).view(np.float64)
        signaling = np.array([0x7FF0000000000001, 0xFFF4000000000000], dtype=np.uint64).view(np.float64)
        diagonal = np.concatenate([values, nans])
        theta = np.concatenate([diagonal, signaling])
        sigma = np.diag(diagonal)
        sigma[0, 1:] = sigma[1:, 0] = diagonal[1:]
        est = LocalEstimate("edges", 7, diagonal, sigma)
        back = decode_message(encode_message(est))
        assert back.theta_star.tobytes() == est.theta_star.tobytes()
        assert back.sigma_star.tobytes() == est.sigma_star.tobytes()
        est = LocalEstimate(2, 7, theta, np.eye(theta.size))
        assert decode_message(encode_message(est)).theta_star.tobytes() == theta.tobytes()

    def test_fixed_estimate_has_its_golden_payload(self):
        # Little-endian doubles in standard base64 behind the v2 header; a
        # quoted str id, -0.0 and the smallest subnormal keep their bits.
        golden = LocalEstimate("7", 120, [1.5, -0.0], [[2.0, 0.5], [0.5, 5e-324]])
        wire = b"v2|'7|120|2|AAAAAAAA+D8AAAAAAAAAgAAAAAAAAABAAAAAAAAA4D8BAAAAAAAAAA==|fc0f2a62"
        assert encode_message(golden) == wire
        back = decode_message(wire)
        assert back.theta_star.tobytes() == golden.theta_star.tobytes()
        assert back.sigma_star.tobytes() == golden.sigma_star.tobytes()

    def test_flipped_byte_detected(self):
        est = LocalEstimate(3, 50, np.array([2.0, 1.0]), np.eye(2))
        msg = bytearray(encode_message(est))
        # flip one digit inside the payload, keeping the message well formed
        idx = msg.index(b"|", 3) + 4
        msg[idx] = ord("7") if msg[idx] != ord("7") else ord("3")
        with pytest.raises(ChecksumMismatchError):
            decode_message(bytes(msg))

    def test_truncation_detected(self):
        est = LocalEstimate(3, 50, np.array([2.0, 1.0]), np.eye(2))
        msg = encode_message(est)
        with pytest.raises(TruncatedMessageError):
            decode_message(msg[: len(msg) // 2])

    def test_version_mismatch_detected(self):
        est = LocalEstimate(3, 50, np.array([2.0, 1.0]), np.eye(2))
        msg = encode_message(est)
        with pytest.raises(VersionMismatchError):
            decode_message(b"v9" + msg[2:])

    def test_string_server_id(self):
        est = LocalEstimate("airline_aa", 50, np.array([2.0]), np.array([[1.0]]))
        back = decode_message(encode_message(est))
        assert back.server_id == "airline_aa"

    def test_existing_ids_keep_their_wire_text(self):
        for server_id, text in ((3, b"v2|3|"), ("shard07", b"v2|shard07|")):
            est = LocalEstimate(server_id, 50, np.array([2.0]), np.array([[1.0]]))
            assert encode_message(est).startswith(text)

    @pytest.mark.parametrize(
        "server_id", ["01", "+1", "1", "-3", "'quoted", "", " 2", 0, 7, -2, 10**30]
    )
    def test_server_id_type_and_text_round_trip(self, server_id):
        est = LocalEstimate(server_id, 50, np.array([2.0]), np.array([[1.0]]))
        back = decode_message(encode_message(est)).server_id
        assert type(back) is type(server_id)
        assert back == server_id

    @pytest.mark.parametrize("server_id", ["a|b", True, 1.5])
    def test_id_the_format_cannot_carry_rejected_at_encode(self, server_id):
        est = LocalEstimate(server_id, 50, np.array([2.0]), np.array([[1.0]]))
        with pytest.raises((ValueError, TypeError)):
            encode_message(est)

    def test_asymmetric_sigma_not_encodable(self):
        est = LocalEstimate(1, 50, np.array([2.0, 1.0]), np.array([[1.0, 0.5], [0.1, 1.0]]))
        with pytest.raises(ValueError):
            encode_message(est)


# ---------------------------------------------------------------------------
# The batched codec against the wire spec and against one payload at a time
# ---------------------------------------------------------------------------


def reference_symmetrized(sigma) -> list:
    """(a_ij + a_ji) / 2, or a_ij / 2 + a_ji / 2 where a finite pair's sum
    overflows."""

    def mean(u, v):
        m = (u + v) / 2
        return u / 2 + v / 2 if math.isinf(m) and math.isfinite(u) and math.isfinite(v) else m

    a = np.asarray(sigma).tolist()
    return [[mean(a[i][j], a[j][i]) for j in range(len(a))] for i in range(len(a))]


def reference_encode(est) -> bytes:
    """``v2|id|n_k|p|base64(theta, vech(sigma))|crc32``, written from the
    wire spec without numpy: the little-endian doubles of theta and then of
    vech column by column over the lower triangle of (sigma + sigma^T) / 2
    (halved before adding where that overflows), in standard padded base64,
    and a str id that reads as an int or starts with "'" sent behind a "'"."""
    sid = est.server_id
    if isinstance(sid, str):
        try:
            looks_int = str(int(sid)) == sid
        except ValueError:
            looks_int = False
        sid = "'" + sid if looks_int or sid.startswith("'") else sid
    p = est.theta_star.size
    sym = reference_symmetrized(est.sigma_star)
    vech = [sym[i][j] for j in range(p) for i in range(j, p)]
    numbers = est.theta_star.tolist() + vech
    packed = base64.b64encode(struct.pack(f"<{len(numbers)}d", *numbers)).decode("ascii")
    return with_crc("|".join(["v2", str(sid), str(est.n_k), str(p), packed]))


EDGE_VALUES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.0**-1022,
    1e308, -1e308, 1.7976931348623157e308, 8.98846567431158e307, 1.0 / 3.0,
]
SIGMA_ENTRIES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EDGE_VALUES)
)
# Every bit of a double travels, so NaNs of both signs and with a payload do.
WIRE_NANS = np.array([0x7FF8000000000000, 0xFFF8000000000001, 0x7FF8000000000abc], dtype=np.uint64)
THETA_ENTRIES = st.one_of(
    SIGMA_ENTRIES,
    st.sampled_from([math.inf, -math.inf] + WIRE_NANS.view(np.float64).tolist()),
)
SERVER_IDS = st.one_of(
    st.integers(-(10**30), 10**30),
    st.text(st.characters(min_codepoint=32, max_codepoint=126, exclude_characters="|"), max_size=8),
    st.sampled_from(["01", "+1", "-3", "1", "'", "'7", "''x", " 2", "1_0", ""]),
)


@st.composite
def wire_estimates(draw):
    p = draw(st.integers(1, 6))
    theta = draw(st.lists(THETA_ENTRIES, min_size=p, max_size=p))
    vech = draw(st.lists(SIGMA_ENTRIES, min_size=p * (p + 1) // 2, max_size=p * (p + 1) // 2))
    sigma = numkit.vech_inv(vech, p)
    if p >= 2 and abs(sigma[1, 0]) >= 2.0**-1000 and draw(st.booleans()):
        # Near-symmetric within SYM_RTOL: one normal entry an ulp nearer zero.
        sigma[1, 0] = np.nextafter(sigma[1, 0], 0.0)
    return LocalEstimate(draw(SERVER_IDS), draw(st.integers(1, 10**18)), theta, sigma)


def ten_payloads(dims=(1, 2, 3)):
    """Ten estimates of mixed id type, estimate k of dimension
    ``dims[k % len(dims)]``."""
    rng = np.random.default_rng(41)
    ests = []
    for k in range(10):
        p = dims[k % len(dims)]
        a = rng.standard_normal((p, p))
        sid = k + 1 if k % 2 else f"shard{k:02d}"
        ests.append(LocalEstimate(sid, 50 + k, rng.standard_normal(p), a @ a.T + np.eye(p)))
    return ests


def outcome(fn, arg):
    """What ``fn(arg)`` returns, or the class and message of what it raises."""
    try:
        return ("ok", fn(arg))
    except Exception as exc:  # noqa: BLE001 - the class is the point
        return (type(exc), str(exc))


def with_crc(body: str) -> bytes:
    return f"{body}|{zlib.crc32(body.encode('ascii')):08x}".encode("ascii")


def refield(payload: bytes, index: int, text: str) -> bytes:
    """The payload with one field replaced, under a valid checksum."""
    fields = payload.decode("ascii").split("|")[:5]
    fields[index] = text
    return with_crc("|".join(fields))


def numbers_of(payload: bytes) -> bytes:
    """The bytes the numbers field of a payload carries."""
    return base64.b64decode(payload.split(b"|")[4])


def renumber(payload: bytes, numbers: bytes) -> bytes:
    """The payload carrying ``numbers``, in canonical base64, under a valid
    checksum."""
    return refield(payload, 4, base64.b64encode(numbers).decode("ascii"))


def flip_number_byte(payload: bytes) -> bytes:
    """The payload with one base64 character of its numbers changed, and its
    checksum kept."""
    head, b64, crc = payload.rsplit(b"|", 2)
    return b"|".join([head, (b"B" if b64[:1] == b"A" else b"A") + b64[1:], crc])


def nonzero_pad_bits(payload: bytes) -> bytes:
    """The payload with the pad bits of its last base64 digit set: the same
    bytes decode, but the text is not the one the encoder sends."""
    b64 = payload.split(b"|")[4].decode("ascii")
    stem = b64.rstrip("=")
    assert len(stem) < len(b64), "the defect needs a padded numbers field"
    alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
    last = alphabet[alphabet.index(stem[-1]) + 1]
    return refield(payload, 4, stem[:-1] + last + b64[len(stem):])


def other_dimension(payload: bytes) -> bytes:
    """The payload carrying the byte count of dimension p + 1 under its own p."""
    p = int(payload.split(b"|")[3])
    return renumber(payload, bytes(8 * (p + 1 + numkit.vech_len(p + 1))))


def declared_p(payload: bytes) -> str:
    return payload.split(b"|")[3].decode("ascii")


# Hostile numbers fields, declared dimensions and sizes: each raises
# TruncatedMessageError on its own.
NUMBERS_DEFECTS = {
    "malformed number": lambda w: refield(w, 4, "1.0.0"),
    "empty number": lambda w: refield(w, 4, ""),
    # Two defects in one payload: the base64 is decoded before its length is
    # compared, so the decode error is the one reported.
    "malformed number, wrong length": lambda w: refield(w, 4, "*" + w.split(b"|")[4][9:].decode()),
    "outside the base64 alphabet": lambda w: refield(w, 4, "-" + w.split(b"|")[4][1:].decode()),
    "bad padding": lambda w: refield(w, 4, w.split(b"|")[4].decode()[:-1]),
    "byte count not a multiple of 8": lambda w: renumber(w, numbers_of(w)[:-3]),
    "byte count of another p": other_dimension,
    # With no numbers, p = 0 would match its byte count of 0.
    "declared p 0": lambda w: refield(refield(w, 4, ""), 3, "0"),
    "declared p -1": lambda w: refield(w, 3, "-1"),
    "declared p 10**9": lambda w: refield(w, 3, str(10**9)),
    "non-canonical base64": nonzero_pad_bits,
    # Integers that int() reads but the encoder never writes.
    "n_k +5": lambda w: refield(w, 2, "+5"),
    "n_k ' 5'": lambda w: refield(w, 2, " 5"),
    "n_k 05": lambda w: refield(w, 2, "05"),
    "n_k 1_0": lambda w: refield(w, 2, "1_0"),
    "p with a plus sign": lambda w: refield(w, 3, "+" + declared_p(w)),
    "p with a leading zero": lambda w: refield(w, 3, "0" + declared_p(w)),
}

DECODE_DEFECTS = {
    **NUMBERS_DEFECTS,
    "flipped byte": flip_number_byte,
    "truncated": lambda w: w[: len(w) // 2],
    "wrong version": lambda w: b"v9" + w[2:],
    "not ascii": lambda w: w + b"\xff",
    "not bytes": lambda w: w.decode("ascii"),
    "extra field": lambda w: with_crc(w.decode("ascii").rsplit("|", 1)[0] + "|x"),
    "checksum not hex": lambda w: w.rsplit(b"|", 1)[0] + b"|zzzzzzzz",
    "malformed n_k": lambda w: refield(w, 2, "5x"),
    "wrong dimension": lambda w: refield(w, 3, str(int(w.split(b"|")[3]) + 1)),
    "zero n_k": lambda w: refield(w, 2, "0"),
}

# Matrices that are not symmetric by the encoder's test, but are sent: the
# decoder accepts them, and the processor leaves them out and flags them.
NON_FINITE_SIGMAS = {
    "nan sigma": lambda e: LocalEstimate(e.server_id, e.n_k, [2.0], [[math.nan]]),
    "inf sigma": lambda e: LocalEstimate(e.server_id, e.n_k, [2.0, 1.0], [[math.inf, 0.0], [0.0, 1.0]]),
    "inf and -inf": lambda e: LocalEstimate(
        e.server_id, e.n_k, [2.0, 1.0, 0.5], np.diag([math.inf, -math.inf, 1.0]) + 1.0
    ),
}

ENCODE_DEFECTS = {
    "asymmetric sigma": lambda e: LocalEstimate(e.server_id, e.n_k, [2.0, 1.0], [[1.0, 0.5], [0.1, 1.0]]),
    "no dimension": lambda e: LocalEstimate(e.server_id, e.n_k, np.zeros(0), np.zeros((0, 0))),
    "separator in id": lambda e: LocalEstimate("a|b", e.n_k, e.theta_star, e.sigma_star),
    "bool id": lambda e: LocalEstimate(True, e.n_k, e.theta_star, e.sigma_star),
    "float id": lambda e: LocalEstimate(1.5, e.n_k, e.theta_star, e.sigma_star),
    "non-ascii id": lambda e: LocalEstimate("café", e.n_k, e.theta_star, e.sigma_star),
    # Two defects in one estimate: the matrix is checked before the id.
    "asymmetric sigma, separator in id": lambda e: LocalEstimate(
        "a|b", e.n_k, [2.0, 1.0], [[1.0, 0.5], [0.1, 1.0]]
    ),
}


# The rounds a defect is put in: ten_payloads' mixed dimensions, whose
# members are stacked one at a time, and a round of one dimension, stacked
# whole as every simulated and shard round is.
ROUND_DIMS = {"mixed": (1, 2, 3), "one p": (2,)}


def in_each_round(defects):
    """``(dims, defect)`` for each defect in each round of ``ROUND_DIMS``;
    in the mixed round its id is the defect's name alone."""
    return [
        pytest.param(dims, defect, id=defect if name == "mixed" else f"{name}, {defect}")
        for name, dims in ROUND_DIMS.items()
        for defect in sorted(defects)
    ]


class TestBatchedTransport:
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(wire_estimates(), min_size=1, max_size=10))
    def test_batch_equals_spec_and_single_calls(self, batch):
        wire = encode_messages(batch)
        assert wire == [reference_encode(e) for e in batch]
        assert wire == [encode_message(e) for e in batch]
        back = decode_messages(wire)
        assert len(back) == len(batch)
        for got, sent, payload in zip(back, batch, wire):
            single = decode_message(payload)
            for b in (got, single):
                assert type(b.server_id) is type(sent.server_id)
                assert b.server_id == sent.server_id
                assert b.n_k == sent.n_k
                assert b.theta_star.tobytes() == sent.theta_star.tobytes()
                assert b.sigma_star.tobytes() == np.array(reference_symmetrized(sent.sigma_star)).tobytes()

    def test_symmetric_sigma_arrives_as_sent(self):
        ests = ten_payloads()
        for got, sent in zip(decode_messages(encode_messages(ests)), ests):
            assert got.sigma_star.tobytes() == sent.sigma_star.tobytes()

    def test_sigma_beyond_half_the_largest_double_arrives_as_sent(self):
        est = LocalEstimate(1, 50, [0.0], [[1e308]])
        assert decode_message(encode_message(est)).sigma_star[0, 0] == 1e308

    @pytest.mark.parametrize(
        "p, huge",
        [
            (1, [[1e308]]),
            (2, np.full((2, 2), 1e155) + np.eye(2)),
            # Its eigenvalues are [0, inf], and repairing it gives NaN.
            (2, np.full((2, 2), 1e308) + np.eye(2)),
        ],
    )
    def test_one_huge_finite_sigma_is_aggregated(self, p, huge):
        ests = [
            LocalEstimate(k, 50, np.full(p, 0.01 * k), np.eye(p) * (1.0 + 0.01 * k))
            for k in range(1, 20)
        ]
        ests.append(LocalEstimate(20, 50, np.zeros(p), huge))
        result, theta_bar, _, report = process(decode_messages(encode_messages(ests)), 1.345, 0.05)
        assert np.isfinite(result.theta_hat).all() and np.isfinite(result.se).all()
        assert np.isfinite(theta_bar).all()
        if not numkit.screen_positive_definite([huge])[0][0]:
            assert 20 in report.flagged_sigma_ids()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "p, huge",
        [
            (1, [[1e308]]),
            (2, np.full((2, 2), 1e155) + np.eye(2)),
            (2, np.full((2, 2), 1e308) + np.eye(2)),
        ],
    )
    def test_one_huge_finite_sigma_warns_of_nothing(self, p, huge):
        self.test_one_huge_finite_sigma_is_aggregated(p, huge)

    def test_malformed_number_reported_before_wrong_length(self):
        wire = NUMBERS_DEFECTS["malformed number, wrong length"](encode_message(ten_payloads()[0]))
        with pytest.raises(TruncatedMessageError, match="malformed numeric field: Only base64 data"):
            decode_message(wire)

    @pytest.mark.parametrize("dims, defect", in_each_round(NUMBERS_DEFECTS))
    def test_hostile_numbers_field_is_a_truncated_message(self, dims, defect):
        wire = encode_messages(ten_payloads(dims))
        wire[3] = NUMBERS_DEFECTS[defect](wire[3])
        with pytest.raises(TruncatedMessageError):
            decode_message(wire[3])
        with pytest.raises(TruncatedMessageError):
            decode_messages(wire)

    def test_asymmetric_sigma_reported_before_bad_id(self):
        est = ENCODE_DEFECTS["asymmetric sigma, separator in id"](ten_payloads()[0])
        with pytest.raises(ValueError, match="not symmetric"):
            encode_message(est)

    def test_empty_round(self):
        assert encode_messages([]) == []
        assert list(decode_messages([])) == []

    @pytest.mark.parametrize("dims, defect", in_each_round(DECODE_DEFECTS))
    def test_decode_error_is_that_of_the_failing_payload(self, dims, defect):
        wire = encode_messages(ten_payloads(dims))
        wire[3] = DECODE_DEFECTS[defect](wire[3])
        # A later payload failing the first check a payload meets.
        wire[7] = DECODE_DEFECTS["not ascii"](wire[7])
        want = outcome(decode_message, wire[3])
        assert want[0] != "ok"
        assert outcome(decode_messages, wire) == want

    @pytest.mark.parametrize(
        "dims, broken, reached",
        [
            ((2,), {3: "flipped byte"}, 4),
            ((2,), {3: "zero n_k", 7: "flipped byte"}, 4),
            ((1, 2, 3), {}, 10),
        ],
        ids=["one p, 4th fails", "one p, 4th n_k 0, 8th bad crc", "mixed"],
    )
    def test_each_payload_is_checked_once(self, monkeypatch, dims, broken, reached):
        # Payloads are checked in order up to the first that fails, each once.
        wire = encode_messages(ten_payloads(dims))
        for k, defect in broken.items():
            wire[k] = DECODE_DEFECTS[defect](wire[k])
        checked = []
        check = distsim._checked_fields

        def counting(payload):
            checked.append(payload)
            return check(payload)

        monkeypatch.setattr(distsim, "_checked_fields", counting)
        assert (outcome(decode_messages, wire)[0] == "ok") == (not broken)
        assert checked == wire[:reached]

    @pytest.mark.parametrize("dims, defect", in_each_round(ENCODE_DEFECTS))
    def test_encode_error_is_that_of_the_failing_estimate(self, dims, defect):
        ests = ten_payloads(dims)
        ests[3] = ENCODE_DEFECTS[defect](ests[3])
        want = outcome(encode_message, ests[3])
        assert want[0] != "ok"
        assert outcome(encode_messages, ests) == want

    @pytest.mark.parametrize("kind", sorted(NON_FINITE_SIGMAS))
    def test_non_finite_sigma_is_sent(self, kind):
        ests = ten_payloads()
        ests[3] = NON_FINITE_SIGMAS[kind](ests[3])
        wire = encode_messages(ests)
        assert wire == [encode_message(e) for e in ests]
        back = decode_messages(wire)
        assert back[3].sigma_star.tobytes() == numkit.symmetrize(ests[3].sigma_star).tobytes()
        assert not np.isfinite(back[3].sigma_star).all()
        for got, want in zip(back[:3] + back[4:], ests[:3] + ests[4:]):
            assert got.sigma_star.tobytes() == want.sigma_star.tobytes()

    def test_first_failing_payload_wins_whatever_fails_after_it(self):
        # Each stage of the batched decode must not report a later payload's
        # failure before an earlier payload's failure at a later stage.
        clean = encode_messages(ten_payloads())
        for first in DECODE_DEFECTS:
            for later in DECODE_DEFECTS:
                wire = list(clean)
                wire[3] = DECODE_DEFECTS[first](wire[3])
                wire[6] = DECODE_DEFECTS[later](wire[6])
                assert outcome(decode_messages, wire) == outcome(decode_message, wire[3]), (first, later)

    def test_first_failing_estimate_wins_whatever_fails_after_it(self):
        clean = ten_payloads()
        for first in ENCODE_DEFECTS:
            for later in ENCODE_DEFECTS:
                ests = list(clean)
                ests[3] = ENCODE_DEFECTS[first](ests[3])
                ests[6] = ENCODE_DEFECTS[later](ests[6])
                assert outcome(encode_messages, ests) == outcome(encode_message, ests[3]), (first, later)


def process_reference(received, c, alpha, sigma_hat=None):
    """The central processor as the four calls it stands for."""
    if sigma_hat is None:
        sigma_hat = aggregate_sigma(received)
    result = huber_aggregate(received, sigma_hat, c)
    theta_bar, sigma_bar = weighted_average(received)
    se_wa = standard_errors(sigma_bar, sum(e.n_k for e in received), 1.0)
    report = detect(received, result.theta_hat, sigma_hat, alpha=alpha)
    return result, theta_bar, se_wa, report


class TestProcess:
    @pytest.fixture(scope="class")
    def received(self):
        cfg = StudyConfig(
            n_servers=8,
            shard_size=300,
            contamination=ContaminationSpec(kind=ContaminationKind.GAUSSIAN, count=2),
        )
        model = ModelSpec(cfg.model, cfg.p)
        shards = partition(generate_dataset(cfg.model, cfg.theta0, cfg.total_size, 5), 8)
        fits = models.fit_shards(model, shards, server_ids=range(1, 9))
        ests = contaminate(model, fits, shards, cfg.contamination, 6)
        received = [decode_message(encode_message(e)) for e in ests]
        assert sum(e.n_k for e in received) == cfg.total_size
        return received

    @pytest.mark.parametrize("trusted", [None, 4])
    def test_equals_the_four_calls_bit_for_bit(self, received, trusted):
        sigma_hat = None
        if trusted is not None:
            sigma_hat = numkit.ensure_symmetric(received[trusted - 1].sigma_star)
        got = process(received, 1.345, 0.05, sigma_hat)
        want = process_reference(received, 1.345, 0.05, sigma_hat)
        for g, w in zip(got[0].__dict__.values(), want[0].__dict__.values()):
            assert np.array_equal(g, w)
        assert np.array_equal(got[1], want[1])
        assert np.array_equal(got[2], want[2])
        assert csv_text(got[3]) == csv_text(want[3])
        assert got[3].threshold == want[3].threshold

    def test_nan_theta_is_flagged_and_left_out(self, received):
        bad = received[2]
        payloads = received[:2] + [
            LocalEstimate(bad.server_id, bad.n_k, [np.nan, 1.0], bad.sigma_star)
        ] + received[3:]
        result, _, _, report = process(payloads, 1.345, 0.05)
        assert np.isfinite(result.theta_hat).all()
        assert result.iterations > 0
        assert bad.server_id in report.flagged_theta_ids()

    def test_non_finite_variance_is_flagged_not_fatal(self, received):
        bad = received[5]
        sigma = bad.sigma_star.copy()
        sigma[0, 1] = np.nan
        payloads = received[:5] + [
            LocalEstimate(bad.server_id, bad.n_k, bad.theta_star, sigma)
        ] + received[6:]
        result, _, _, report = process(payloads, 1.345, 0.05)
        assert np.isfinite(result.theta_hat).all()
        assert bad.server_id in report.flagged_sigma_ids()

    def test_one_sided_infinite_variance_is_flagged_not_fatal(self, received):
        # inf above the diagonal and a finite entry below it pass the
        # symmetry test (inf <= SYM_RTOL * inf); the PD screen must not
        # decompose the matrix, which makes eigh raise.
        bad = received[5]
        sigma = bad.sigma_star.copy()
        sigma[0, 1] = np.inf
        payloads = received[:5] + [
            LocalEstimate(bad.server_id, bad.n_k, bad.theta_star, sigma)
        ] + received[6:]
        result, _, _, report = process(payloads, 1.345, 0.05)
        assert np.isfinite(result.theta_hat).all() and np.isfinite(result.se).all()
        assert bad.server_id in report.flagged_sigma_ids()

    def test_nan_variance_diagonal_stands_in_the_weighted_average(self, received):
        # The weighted average is the naive comparator: it keeps the server.
        bad = received[5]
        sigma = bad.sigma_star.copy()
        sigma[0, 0] = np.nan
        payloads = received[:5] + [
            LocalEstimate(bad.server_id, bad.n_k, bad.theta_star, sigma)
        ] + received[6:]
        result, theta_bar, se_wa, report = process(payloads, 1.345, 0.05)
        assert np.isnan(se_wa[0]) and np.isfinite(se_wa[1:]).all()
        assert np.isfinite(theta_bar).all()
        assert np.isfinite(result.theta_hat).all() and np.isfinite(result.se).all()
        assert bad.server_id in report.flagged_sigma_ids()

    @pytest.mark.parametrize("odd_id", [0, 21])
    def test_server_of_another_dimension_is_reported_not_fatal(self, odd_id):
        # 19 servers send p = 2 and one, first or last in id order, p = 3:
        # it is left out of the aggregates and gets an error row.
        clean = [
            LocalEstimate(k, 50, [2.0 + 0.01 * k, 1.0 - 0.01 * k], np.eye(2) * (1.0 + 0.01 * k))
            for k in range(1, 20)
        ]
        odd = LocalEstimate(odd_id, 50, [50.0, -50.0, 9.0], np.eye(3) * 1e6)
        received = decode_messages(encode_messages(clean + [odd]))
        got = process(received, 1.345, 0.05)
        want = process_reference(clean, 1.345, 0.05)
        for g, w in zip(got[0].__dict__.values(), want[0].__dict__.values()):
            assert np.array_equal(g, w)
        assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])
        assert np.isfinite(got[0].theta_hat).all() and np.isfinite(got[0].se).all()
        rows = {r.server_id: r for r in got[3].records}
        assert rows[odd_id].error == "theta_hat dimension does not match the estimate"
        assert all(rows[k].error is None for k in range(1, 20))

    def test_no_majority_dimension_raises(self):
        received = [LocalEstimate(k, 50, np.zeros(1 + k % 2), np.eye(1 + k % 2)) for k in range(4)]
        with pytest.raises(DimensionError, match="disagree on parameter dimension"):
            process(received, 1.345, 0.05)

    def test_negative_pooled_variance_gives_a_nan_se(self):
        # One server's negative variance drives the pooled diagonal below
        # zero; the comparator's SE is NaN there, and nothing raises.
        payloads = [LocalEstimate(k, 100, [0.1 * k, 1.0], np.eye(2)) for k in range(1, 6)]
        payloads.append(LocalEstimate(6, 100, [0.3, 1.0], np.diag([-1e6, 1.0])))
        sigma_bar = weighted_average(payloads)[1]
        with pytest.raises(ValueError, match="nonpositive diagonal"):
            standard_errors(sigma_bar, 600, 1.0)
        result, theta_bar, se_wa, report = process(payloads, 1.345, 0.05)
        assert np.isnan(se_wa[0])
        assert se_wa[1] == math.sqrt(sigma_bar[1, 1] / 600)
        assert np.isfinite(theta_bar).all()
        assert np.isfinite(result.theta_hat).all() and np.isfinite(result.se).all()
        assert 6 in report.flagged_sigma_ids()


def clean_payload(rng, sid, p, n):
    """A payload an honest server of dimension p might send: an estimate
    near (1, ..., p) and a PD variance matrix near the identity."""
    b = rng.standard_normal((p, p)) * 0.3
    theta = np.arange(1.0, p + 1.0) + rng.standard_normal(p) / math.sqrt(n)
    return LocalEstimate(sid, n, theta, numkit.symmetrize(np.eye(p) + b @ b.T))


HUGE = st.floats(-1e308, 1e308)


@st.composite
def hostile_payload(draw, rng, sid, p, n):
    """A payload of one of the kinds a contaminated server may send."""
    est = clean_payload(rng, sid, p, n)
    theta, sigma = est.theta_star.copy(), est.sigma_star.copy()
    kind = draw(st.sampled_from(["huge", "non-finite", "not PD", "asymmetric", "dimension"]))
    if kind == "huge":
        # Finite entries up to 1e308, PD or not.
        theta = np.array(draw(st.lists(HUGE, min_size=p, max_size=p)))
        if draw(st.booleans()):
            m = numkit.vech_len(p)
            sigma = numkit.vech_inv(draw(st.lists(HUGE, min_size=m, max_size=m)), p)
        else:
            sigma = np.full((p, p), draw(st.floats(1.0, 1e308))) + np.eye(p)
    elif kind == "non-finite":
        bad = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        if draw(st.booleans()):
            theta[draw(st.integers(0, p - 1))] = bad
        else:
            sigma[draw(st.integers(0, p - 1)), draw(st.integers(0, p - 1))] = bad
    elif kind == "not PD":
        shifted = sigma - 2.0 * np.trace(sigma) * np.eye(p)
        sigma = draw(st.sampled_from([-sigma, np.zeros((p, p)), shifted]))
    elif kind == "asymmetric" and p > 1:
        # Asymmetric within SYM_RTOL, so it is screened as symmetric (a
        # 1 x 1 matrix cannot be asymmetric, and the payload stays clean).
        sigma[1, 0] += 0.5 * numkit.SYM_RTOL * np.abs(sigma).max()
    elif kind == "dimension":
        q = draw(st.sampled_from([q for q in (1, 2, 3, 4) if q != p]))
        return clean_payload(rng, sid, q, n)
    return LocalEstimate(sid, n, theta, sigma)


@st.composite
def hostile_rounds(draw):
    """K servers of equal n_k, fewer than half of them hostile; a hostile
    server may claim another server's id."""
    p, k, n = draw(st.integers(1, 3)), draw(st.integers(3, 12)), draw(st.integers(10, 10_000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    hostile = draw(st.lists(st.integers(1, k), unique=True, max_size=(k - 1) // 2))
    claims = {sid: draw(st.one_of(st.just(sid), st.integers(1, k))) for sid in hostile}
    received = [
        draw(hostile_payload(rng, claims[sid], p, n)) if sid in hostile else clean_payload(rng, sid, p, n)
        for sid in range(1, k + 1)
    ]
    return p, received


SIGMAS_LEFT_OUT = {
    "inf diagonal": [[np.inf, 0.0], [0.0, 1.0]],
    "opposite infs": [[1.0, np.inf], [-np.inf, 1.0]],
    "nan diagonal": [[np.nan, 0.0], [0.0, 1.0]],
}


class TestQuietRounds:
    """A round that leaves out a non-finite matrix, and ordinary replicates,
    print no RuntimeWarning."""

    @pytest.mark.parametrize("name", sorted(SIGMAS_LEFT_OUT))
    def test_non_finite_matrix_is_left_out_silently(self, name):
        ests = [
            LocalEstimate(k, 100, [0.01 * k, 1.0], np.eye(2) * (1.0 + 0.01 * k))
            for k in range(1, 6)
        ]
        ests.append(LocalEstimate(6, 100, [0.0, 1.0], SIGMAS_LEFT_OUT[name]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = process(ests, 1.345, 0.05)[3]
            payloads = encode_messages(ests)
            received = process(decode_messages(payloads), 1.345, 0.05)[3]
        assert report.flagged_sigma_ids() == received.flagged_sigma_ids() == [6]
        assert payloads == [encode_message(e) for e in ests]

    @pytest.mark.parametrize(
        "config",
        [
            StudyConfig(
                contamination=ContaminationSpec(kind=ContaminationKind.OMNISCIENT, count=2),
                replicates=2,
            ),
            StudyConfig(
                model=ModelKind.LINEAR,
                theta0=(1.0, -1.0, 0.5, 2.0, 0.0),
                n_servers=400,
                shard_size=50,
                contamination=ContaminationSpec(kind=ContaminationKind.GAUSSIAN),
                replicates=2,
            ),
        ],
        ids=["desk omniscient", "linear gaussian"],
    )
    def test_ordinary_replicate_is_silent(self, config):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_replicate(config, 0)


class TestProcessProperty:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(hostile_rounds())
    def test_no_hostile_minority_aborts_or_escapes(self, round_):
        """No minority of hostile servers makes process() raise or return a
        non-finite aggregate, and each is reported: a non-finite payload is
        flagged, one of another dimension gets an error row, and every copy
        of a repeated id gets a row with the repeated-id error.

        The servers keep equal n_k, yet the Huber solver can still stall on
        such a round, as it can on ragged sizes, and the test then fails with
        "stalled" (see the strict xfails below).  A variance median that
        crawls next to one server's point used to fail it too; the round
        below pins that case.
        """
        p, received = round_
        with np.errstate(all="ignore"):
            result, _, _, report = process(received, 1.345, 0.05)
        assert np.isfinite(result.theta_hat).all() and np.isfinite(result.se).all()
        copies = collections.Counter(e.server_id for e in received)
        assert len(report.records) == len(received)
        for r in report.records:
            if copies[r.server_id] > 1:
                assert r.error == REPEATED_ID and not (r.theta_flagged or r.sigma_flagged)
        rows = {r.server_id: r for r in report.records}
        for e in received:
            if copies[e.server_id] > 1:
                continue
            row = rows[e.server_id]
            if e.p != p:
                assert row.error is not None
            elif not (np.isfinite(e.theta_star).all() and np.isfinite(e.sigma_star).all()):
                assert row.theta_flagged or row.sigma_flagged

    @pytest.mark.xfail(
        strict=True,
        reason="clean servers' unclipped weight (~1e-15) is below Huber's Newton floor, "
        "and the damped fixed-point step (~1.3e-9) cannot reach the root before the cap",
    )
    def test_one_server_claiming_a_huge_n_k(self):
        received = [
            LocalEstimate(k, 50, np.full(2, 0.01 * k), np.eye(2)) for k in range(1, 20)
        ]
        received.append(LocalEstimate(20, 10**18, np.zeros(2), np.eye(2)))
        result = process(received, 1.345, 0.05)[0]
        assert np.isfinite(result.theta_hat).all()

    @pytest.mark.xfail(strict=True, reason="Huber Newton stalls with no descent direction")
    def test_ragged_sizes_with_two_shifted_servers(self):
        sizes = [254, 1747, 245, 500, 34]
        thetas = [100.0, 100.0, 0.0, 0.01, 0.03]
        received = [
            LocalEstimate(k, n, [t], [[1.0]]) for k, (n, t) in enumerate(zip(sizes, thetas), 1)
        ]
        result = process(received, 1.345, 0.05)[0]
        assert np.isfinite(result.theta_hat).all()

    @pytest.mark.xfail(strict=True, reason="Huber Newton stalls with no descent direction")
    def test_equal_sizes_with_two_hostile_servers(self):
        # A round the property test above drew (hypothesis seed 17), as it
        # printed it: K = 5, p = 3, every n_k = 10, servers 1 and 2 hostile.
        # It stalls with best residual 2.552e-01.
        hostile = [[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]
        clean = [
            (
                [1.14149706, 1.77035083, 2.76486168],
                [[1.24642753, 0.10411161, 0.0293373], [0.10411161, 1.28086561, -0.04636766],
                 [0.0293373, -0.04636766, 1.17943605]],
            ),
            (
                [0.62800492, 2.14654207, 3.34691973],
                [[1.60535427, 0.43608939, -0.05773755], [0.43608939, 1.83888839, 0.08753672],
                 [-0.05773755, 0.08753672, 1.07167536]],
            ),
            (
                [1.26823185, 1.82961808, 3.14589453],
                [[1.21551028, 0.08448417, 0.02028877], [0.08448417, 1.12887247, -0.04765385],
                 [0.02028877, -0.04765385, 1.03960974]],
            ),
        ]
        received = [
            LocalEstimate(1, 10, [0.0, 0.0, -19.0], hostile),
            LocalEstimate(2, 10, [0.0, -23.0, -1.0], hostile),
        ] + [LocalEstimate(k, 10, t, s) for k, (t, s) in enumerate(clean, 3)]
        result = process(received, 1.345, 0.05)[0]
        assert np.isfinite(result.theta_hat).all()


    def test_variance_median_next_to_a_data_point(self):
        # A round the property test above drew, as it printed it: K = 4,
        # p = 2, every n_k = 10, server 1's matrix not positive definite.
        # It is repaired to ~1e-5 I, and the variance median's optimum lies
        # just off server 3's point (the others pull 3.16675 against its
        # weight sqrt(10) = 3.16228).  Weiszfeld crawls there and stops at
        # best residual 1.611e-03; one Newton step from it is not enough,
        # and the third reaches the tolerance.
        rows = [
            ([0.85622047, 1.68641383], [[-1.00803254, 0.02397578], [0.02397578, -1.07814748]]),
            ([1.15490166, 2.11285758], [[1.16198147, -0.07750557], [-0.07750557, 1.05645307]]),
            ([0.57492204, 1.85528919], [[1.07891947, -0.05850369], [-0.05850369, 1.0435872]]),
            ([0.59919823, 2.08578132], [[1.47497999, 0.34242367], [0.34242367, 1.31025302]]),
        ]
        received = [LocalEstimate(k, 10, t, s) for k, (t, s) in enumerate(rows, 1)]
        result = process(received, 1.345, 0.05)[0]
        assert np.isfinite(result.theta_hat).all()

class TestRunReplicate:
    def test_deterministic(self):
        cfg = StudyConfig(n_servers=4, shard_size=250, replicates=2)
        a = run_replicate(cfg, 3)
        b = run_replicate(cfg, 3)
        assert np.array_equal(a.theta_huber, b.theta_huber)
        assert np.array_equal(a.se_huber, b.se_huber)
        assert a.flagged_ids == b.flagged_ids

    def test_clean_linear_sanity_envelope(self):
        cfg = StudyConfig(
            model=ModelKind.LINEAR, n_servers=4, shard_size=250, replicates=2
        )
        rec = run_replicate(cfg, 0)
        assert np.abs(rec.theta_huber - [2.0, 1.0]).max() <= 0.5
        assert np.abs(rec.theta_wa - [2.0, 1.0]).max() <= 0.5

    def test_omniscient_linear_displacement(self):
        cfg = StudyConfig(
            model=ModelKind.LINEAR,
            n_servers=4,
            shard_size=250,
            replicates=2,
            contamination=ContaminationSpec(
                kind=ContaminationKind.OMNISCIENT, count=1
            ),
        )
        rec = run_replicate(cfg, 0)
        assert np.abs(rec.theta_huber - [2.0, 1.0]).max() <= 0.5
        # weighted average is dragged about a quarter of the way to -1e6
        assert np.abs(rec.theta_wa - (-250_000)).max() <= 1000
        assert 1 in rec.flagged_ids

    @pytest.mark.parametrize("base_seed,index", [(102008, 5), (203000, 5), (306041, 9)])
    def test_weiszfeld_stall_completes(self, base_seed, index):
        # Desk omniscient replicates whose variance median used to fail with
        # NonConvergenceError: the first two stall at the rounding floor
        # (best residuals 1.244e-10 and 3.257e-10 against tol = 1e-10), the
        # third crawls next to a data point (1.06e-7 after 500 iterations).
        cfg = StudyConfig(
            contamination=ContaminationSpec(kind=ContaminationKind.OMNISCIENT),
            base_seed=base_seed,
            replicates=10,
        )
        rec = run_replicate(cfg, index)
        assert np.abs(rec.theta_huber - [2.0, 1.0]).max() <= 0.2
        assert {1, 2} <= set(rec.flagged_ids)


class TestRunStudy:
    def test_two_replicates_arithmetic(self):
        cfg = StudyConfig(
            model=ModelKind.LINEAR, n_servers=4, shard_size=50, replicates=2
        )
        metrics = run_study(cfg)
        assert metrics.replicates_completed == 2
        for est in (metrics.huber, metrics.weighted):
            assert np.isfinite(est.bias).all()
            assert np.isfinite(est.sd).all()
            assert all(v in (0.0, 0.5, 1.0) for v in est.cp)
        assert metrics.hit_rate is None

    def test_summary_of_hand_built_records(self):
        cfg = StudyConfig(
            model=ModelKind.LINEAR,
            theta0=(0.0, 1.0),
            n_servers=4,
            contamination=ContaminationSpec(kind=ContaminationKind.BIT_FLIP, count=2),
            replicates=3,
        )
        records = [
            ReplicateRecord(
                index=0,
                theta_huber=np.array([0.98, 1.0]),
                se_huber=np.array([0.5, 0.25]),
                theta_wa=np.array([3.0, 1.0]),
                se_wa=np.array([1.0, 1.0]),
                flagged_ids=(1, 2),
            ),
            ReplicateRecord(
                index=1,
                theta_huber=np.array([-0.98, 1.5]),
                se_huber=np.array([0.5, 0.25]),
                theta_wa=np.array([-1.0, 1.0]),
                se_wa=np.array([1.0, 1.0]),
                flagged_ids=(2, 4),
            ),
            # A failed replicate is left out of every metric.
            ReplicateRecord(
                index=2,
                theta_huber=np.array([9.0, 9.0]),
                se_huber=np.array([9.0, 9.0]),
                theta_wa=np.array([9.0, 9.0]),
                se_wa=np.array([9.0, 9.0]),
                flagged_ids=(3,),
                error="boom",
            ),
        ]
        metrics = distsim._summarize(records, cfg)
        assert (metrics.replicates_completed, metrics.replicates_failed) == (2, 1)
        assert metrics.huber.bias.tolist() == [0.0, 0.25]
        assert metrics.huber.sd.tolist() == [0.98, 0.25]
        assert metrics.huber.ase.tolist() == [0.5, 0.25]
        # Replicate 0's first coordinate lies exactly 1.96 se from theta0,
        # and is covered; replicate 1's second lies 2 se away.
        assert abs(0.98 - 0.0) == 1.96 * 0.5
        assert metrics.huber.cp.tolist() == [1.0, 0.5]
        assert metrics.weighted.bias.tolist() == [1.0, 0.0]
        assert metrics.weighted.sd.tolist() == [2.0, 0.0]
        assert metrics.weighted.ase.tolist() == [1.0, 1.0]
        assert metrics.weighted.cp.tolist() == [0.5, 1.0]
        # Corrupted servers 1 and 2: replicate 0 flags both, replicate 1 one.
        assert metrics.hit_rate == (1.0 + 0.5) / 2
        assert metrics.per_server_flag_rate == {1: 0.5, 2: 1.0, 3: 0.0, 4: 0.5}
        assert metrics.flag_rate == 0.5
        clean = dataclasses.replace(cfg, contamination=ContaminationSpec())
        assert distsim._summarize(records, clean).hit_rate is None

    def test_worker_count_invariance(self):
        cfg = StudyConfig(
            model=ModelKind.LINEAR, n_servers=4, shard_size=50, replicates=6
        )
        serial = run_study(cfg, workers=1)
        parallel = run_study(cfg, workers=2)
        assert np.array_equal(serial.huber.bias, parallel.huber.bias)
        assert np.array_equal(serial.weighted.sd, parallel.weighted.sd)
        assert np.array_equal(
            serial.relative_efficiency, parallel.relative_efficiency
        )

    @pytest.mark.parametrize("workers, env", [(0, None), (-3, None), (None, "abc")])
    def test_bad_worker_count_raises_before_any_replicate(self, monkeypatch, workers, env):
        monkeypatch.setattr(distsim, "run_replicate", lambda *a: pytest.fail("a replicate ran"))
        monkeypatch.setenv("ROBUSTAGG_WORKERS", env or "1")
        with pytest.raises(ConfigError):
            run_study(StudyConfig(replicates=2), workers=workers)

    @pytest.mark.parametrize(
        "model, shard_size", [(ModelKind.LOGISTIC, 1000), (ModelKind.LINEAR, 200)]
    )
    def test_one_coefficient_studies_complete(self, model, shard_size):
        # At p = 1 the 20 variance points lie on a line, so their median is a
        # whole segment; 20 and 7 of these 40 replicates used to fail at the
        # spatial median's iteration cap.
        cfg = StudyConfig(
            model=model, theta0=(0.5,), n_servers=20, shard_size=shard_size, replicates=40
        )
        metrics = run_study(cfg)
        assert metrics.replicates_failed == 0 and metrics.replicates_completed == 40

    def test_failing_replicates_raise_study_error(self):
        # A one-coordinate logistic design with an overwhelming coefficient
        # yields completely separated shards, so every replicate fails.
        cfg = StudyConfig(
            model=ModelKind.LOGISTIC,
            theta0=(50.0,),
            n_servers=2,
            shard_size=25,
            replicates=4,
        )
        with pytest.raises(StudyError):
            run_study(cfg)

    def test_metrics_csv_layout(self, tmp_path):
        cfg = StudyConfig(
            model=ModelKind.LINEAR, n_servers=4, shard_size=50, replicates=3
        )
        metrics = run_study(cfg)
        out = tmp_path / "metrics.csv"
        with open(out, "w", newline="") as fh:
            study_metrics_to_csv(metrics, fh)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "estimator,coefficient,bias,sd,ase,cp,re"
        # one row per (estimator, coefficient) plus the HR summary row
        assert len(lines) == 1 + 2 * cfg.p + 1
        assert lines[-1].startswith("summary,hr,")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            StudyConfig(n_servers=0)
        with pytest.raises(ValueError):
            StudyConfig(alpha=1.5)
        with pytest.raises(ValueError):
            StudyConfig(
                n_servers=4,
                contamination=ContaminationSpec(
                    kind=ContaminationKind.OMNISCIENT, count=9
                ),
            )


class TestStudyLevelInvariants:
    def test_clean_aggregates_agree_within_five_se(self):
        # Without contamination the two aggregates differ by a fraction of a
        # standard error in every replicate.
        cfg = StudyConfig(replicates=2)
        for r in range(50):
            rec = run_replicate(cfg, r)
            gap = np.abs(rec.theta_huber - rec.theta_wa)
            assert (gap < 5 * rec.se_huber).all()

    def test_omniscient_bias_separation(self, omniscient_study):
        m = omniscient_study
        ratio = np.abs(m.weighted.bias) / np.abs(m.huber.bias)
        assert (ratio >= 1e3).all()

    def test_ase_sd_agreement_clean(self, clean_study):
        ratio = clean_study.huber.ase / clean_study.huber.sd
        assert ((ratio >= 0.85) & (ratio <= 1.15)).all()

    def test_corrupts_the_first_servers_in_id_order(self):
        # Fits arrive shuffled, with int and str ids; the round comes out in
        # server-id order, ints before strs, and the corrupted servers are
        # its first `count`.
        model = ModelSpec.linear(2)
        ids = [7, "b", 2, "a", 11, 3]
        shards, fits = fit_shards(model, (2.0, 1.0), 6, 100, 15, server_ids=ids)
        by_id = {f.server_id: f for f in fits}
        for count, corrupted in ((3, {2, 3, 7}), (5, {2, 3, 7, 11, "a"})):
            spec = ContaminationSpec(kind=ContaminationKind.BIT_FLIP, count=count)
            ests = contaminate(model, fits, shards, spec, 7)
            assert [e.server_id for e in ests] == [2, 3, 7, 11, "a", "b"]
            flipped = {
                e.server_id for e in ests
                if not np.array_equal(e.theta_star, by_id[e.server_id].theta_hat)
            }
            assert flipped == corrupted
            for e in ests:
                if e.server_id in corrupted:
                    assert np.array_equal(e.theta_star, -by_id[e.server_id].theta_hat)

    def test_omniscient_replicate_scores_the_corrupted_servers(self):
        cfg = StudyConfig(
            model=ModelKind.LINEAR,
            n_servers=20,
            shard_size=200,
            contamination=ContaminationSpec(kind=ContaminationKind.OMNISCIENT),
            replicates=2,
        )
        for index in range(3):
            rec = run_replicate(cfg, index)
            assert {1, 2} <= set(rec.flagged_ids)

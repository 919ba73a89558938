"""The central processor on one server-ordered round view, against the
per-server loops it replaced.

The references below are written out here, one server at a time, so a
rewrite of the library code cannot silently move the reference with it:
the weighted average as a ``+=`` loop in server order, each detection
distance as ``math.sqrt(n_k * max(float(diff @ sol), 0.0))`` after a 1-D
solve, and the variance median as ``spatial_median`` over the vech rows
gathered one server at a time.
"""

import io
import math
import zlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import special

from robustagg import aggregate, distsim, models, numkit
from robustagg.aggregate import (
    OTHER_DIMENSION, REPEATED_ID, LocalEstimate, admit, huber_aggregate, round_view, standard_errors,
)
from robustagg.detect import detect
from robustagg.distsim import ContaminationKind, ContaminationSpec, decode_messages, encode_messages, process
from robustagg.errors import DimensionError, NotPositiveDefiniteError, NumericalError
from robustagg.models import ModelKind, Observations
from robustagg.spatialmed import aggregate_sigma, spatial_median


def csv_text(report):
    """The text ``report.to_csv`` writes."""
    buf = io.StringIO()
    report.to_csv(buf)
    return buf.getvalue()


def server_order(e):
    """Integer ids ascending, then string ids ascending."""
    return (isinstance(e.server_id, str), e.server_id)


def weighted_average_reference(ests):
    n_total = sum(e.n_k for e in ests)
    p = ests[0].p
    theta, sigma = np.zeros(p), np.zeros((p, p))
    for e in ests:
        w = e.n_k / n_total
        theta += w * e.theta_star
        sigma += w * e.sigma_star
    return theta, sigma


def aggregate_sigma_reference(ests):
    vechs, weights = [], []
    for e in ests:
        if not np.isfinite(e.sigma_star).all():
            continue
        ok, sym = numkit.screen_positive_definite(e.sigma_star[None])
        kept = sym[0] if ok[0] else numkit.pd_project(e.sigma_star)
        vech = numkit.vech_stack(kept)
        if np.isfinite(vech).all():
            vechs.append(vech)
            weights.append(math.sqrt(e.n_k))
    if not vechs:
        raise NumericalError("no variance matrix with finite entries to aggregate")
    sigma = numkit.vech_inv(spatial_median(np.array(vechs), weights).eta, ests[0].p)
    numkit.require_pd(sigma, ests[0].p)
    return sigma


def distance_reference(n_k, diff, sym):
    sol = np.linalg.solve(sym, diff)
    return math.sqrt(n_k * max(float(diff @ sol), 0.0))


def detect_rows_reference(members, p, theta_hat, sigma_hat, alpha):
    threshold = math.sqrt(float(special.chdtri(p, alpha)))
    sym_hat = numkit.require_pd(sigma_hat, p)[0]
    rows = []
    for e in members:
        if e.p != p:
            rows.append((e.server_id, e.n_k, None, None, False, False,
                         "theta_hat dimension does not match the estimate"))
            continue
        diff = e.theta_star - theta_hat
        try:
            d1 = distance_reference(e.n_k, diff, sym_hat)
        except np.linalg.LinAlgError as exc:
            rows.append((e.server_id, e.n_k, None, None, False, False, str(exc)))
            continue
        flagged = not d1 <= threshold
        d2 = None
        if not flagged:
            ok, sym = numkit.screen_positive_definite(e.sigma_star[None])
            if ok[0]:
                try:
                    d2 = distance_reference(e.n_k, diff, sym[0])
                except np.linalg.LinAlgError:
                    pass
        sigma_flagged = not flagged and (d2 is None or d2 > threshold)
        rows.append((e.server_id, e.n_k, d1, d2, flagged, sigma_flagged, None))
    return threshold, rows


def process_reference(received, c, alpha, sigma_hat=None):
    members = sorted(received, key=server_order)
    dims = Counter(e.p for e in members)
    p = max(dims, key=dims.get)
    assert 2 * dims[p] > len(members)
    admitted = [e for e in members if e.p == p]
    if sigma_hat is None:
        sigma_hat = aggregate_sigma_reference(admitted)
    result = huber_aggregate(admitted, sigma_hat, c)
    theta_bar, sigma_bar = weighted_average_reference(admitted)
    diag = np.diagonal(sigma_bar)
    np.fill_diagonal(sigma_bar, np.where(diag > 0.0, diag, np.nan))
    se_wa = standard_errors(sigma_bar, sum(e.n_k for e in admitted), 1.0)
    threshold, rows = detect_rows_reference(members, p, result.theta_hat, sigma_hat, alpha)
    return result, theta_bar, se_wa, threshold, rows


def bits(x):
    """The bits of a float or an array, every NaN as one NaN.

    Where two NaNs meet in a sum, which one comes out (its sign and
    payload) depends on the operand order the compiled loop uses; every
    NaN prints as ``nan``, so no artifact can show the difference.
    """
    if isinstance(x, float):
        return "nan" if math.isnan(x) else np.float64(x).tobytes()
    if isinstance(x, np.ndarray):
        return np.where(np.isnan(x), np.nan, x).tobytes()
    return x


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:  # noqa: BLE001 - the class is the point
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------

KINDS = ["clean", "identity", "zero", "non-finite", "not PD", "huge", "dimension"]


@st.composite
def payload(draw, sid, p, kind):
    # Ragged sizes, now and then up to 10**18.
    n_k = draw(st.integers(1, 10**18 if draw(st.integers(0, 9)) == 0 else 10_000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    b = rng.standard_normal((p, p)) * 0.3
    theta = np.arange(1.0, p + 1.0) + rng.standard_normal(p) / math.sqrt(min(n_k, 10**6))
    sigma = numkit.symmetrize(np.eye(p) + b @ b.T)
    if kind == "identity":
        # Equal matrices are merged by the median; equal thetas tie.
        theta, sigma = np.ones(p), np.eye(p)
    elif kind == "zero":
        # Signed zeros: differences from a zero aggregate are +-0.0.
        theta = np.array(draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=p, max_size=p)))
    elif kind == "non-finite":
        bad = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        if draw(st.booleans()):
            theta[draw(st.integers(0, p - 1))] = bad
        else:
            sigma[draw(st.integers(0, p - 1)), draw(st.integers(0, p - 1))] = bad
    elif kind == "not PD":
        sigma = draw(st.sampled_from([-sigma, np.zeros((p, p)), sigma - 2.0 * np.trace(sigma) * np.eye(p)]))
    elif kind == "huge":
        theta = theta * 10.0 ** draw(st.floats(0.0, 300.0))
        sigma = sigma * 10.0 ** draw(st.floats(-300.0, 300.0))
    elif kind == "dimension":
        q = draw(st.sampled_from([q for q in range(1, 6) if q != p]))
        return LocalEstimate(sid, n_k, np.ones(q), np.eye(q))
    return LocalEstimate(sid, n_k, theta, sigma)


@st.composite
def rounds(draw):
    """K servers with int and str ids and ragged sizes, fewer than half of
    them of another dimension."""
    p = draw(st.one_of(st.just(1), st.integers(1, 5)))
    k = draw(st.integers(1, 60))
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=k, max_size=k))
    others = [i for i, kind in enumerate(kinds) if kind == "dimension"]
    for i in others[(k - 1) // 2 :]:
        kinds[i] = "clean"
    received = []
    for i, kind in enumerate(kinds):
        sid = i if draw(st.booleans()) else f"s{i:02d}"
        received.append(draw(payload(sid, p, kind)))
    return received


class TestProcessParity:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(rounds(), st.booleans())
    def test_equals_the_per_server_loops(self, received, trusted):
        p = Counter(e.p for e in received).most_common(1)[0][0]
        sigma_hat = np.eye(p) if trusted else None
        with np.errstate(all="ignore"):
            got = outcome(process, received, 1.345, 0.05, sigma_hat)
            want = outcome(process_reference, received, 1.345, 0.05, sigma_hat)
        if got[0] != "ok" or want[0] != "ok":
            assert got == want
            return
        result, theta_bar, se_wa, report = got[1]
        ref_result, ref_theta_bar, ref_se_wa, threshold, rows = want[1]
        assert bits(result.theta_hat) == bits(ref_result.theta_hat)
        assert bits(result.se) == bits(ref_result.se)
        assert (result.iterations, result.residual_norm) == (ref_result.iterations, ref_result.residual_norm)
        assert bits(theta_bar) == bits(ref_theta_bar)
        assert bits(se_wa) == bits(ref_se_wa)
        assert report.threshold == threshold
        got_rows = [
            (r.server_id, r.n_k, r.d1, r.d2, r.theta_flagged, r.sigma_flagged, r.error)
            for r in report.records
        ]
        assert [tuple(map(bits, r)) for r in got_rows] == [tuple(map(bits, r)) for r in rows]
        assert all(type(r.d1) in (float, type(None)) for r in report.records)

    @pytest.mark.parametrize("p", [1, 3])
    def test_weighted_average_is_the_server_order_loop(self, p):
        # At p = 1 a pairwise add.reduce along the servers would differ.
        rng = np.random.default_rng(90 + p)
        for _ in range(50):
            k = int(rng.integers(2, 500))
            ests = [
                LocalEstimate(
                    int(sid), int(rng.integers(1, 10**18)),
                    rng.standard_normal(p) * 10.0 ** rng.uniform(-5, 5),
                    rng.standard_normal((p, p)),
                )
                for sid in rng.permutation(k)
            ]
            got = aggregate.weighted_average(ests)
            want = weighted_average_reference(sorted(ests, key=server_order))
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()


# ---------------------------------------------------------------------------
# One view per round
# ---------------------------------------------------------------------------


def linear_round(k=30, p=3, seed=3):
    rng = np.random.default_rng(seed)
    ests = []
    for sid in rng.permutation(k) + 1:
        b = rng.standard_normal((p, p)) * 0.2
        ests.append(LocalEstimate(int(sid), 50, rng.standard_normal(p) * 0.1, np.eye(p) + b @ b.T))
    return decode_messages(encode_messages(ests))


class TestOneViewPerRound:
    def test_decoded_estimates_are_read_only_rows_of_one_array(self):
        received = linear_round()
        assert len({id(e.theta_star.base) for e in received}) == 1
        assert len({id(e.sigma_star.base) for e in received}) == 1
        assert received[0].theta_star.base is not None
        for e in received:
            assert not e.theta_star.flags.writeable and not e.sigma_star.flags.writeable

    def test_decoded_zero_n_k_still_raises(self):
        wire = encode_messages([LocalEstimate(1, 5, [1.0], [[1.0]])])[0].decode()
        parts = wire.split("|")
        parts[2] = "0"
        body = "|".join(parts[:5])
        payload = f"{body}|{zlib.crc32(body.encode()):08x}".encode()
        with pytest.raises(ValueError, match="n_k must be >= 1"):
            decode_messages([payload])

    @pytest.mark.parametrize("trusted", [False, True])
    def test_process_screens_the_received_matrices_once(self, monkeypatch, trusted):
        received = linear_round()
        calls = []
        screen = numkit.screen_positive_definite

        def counting(stack):
            calls.append(np.asarray(stack).shape)
            return screen(stack)

        monkeypatch.setattr(numkit, "screen_positive_definite", counting)
        sigma_hat = np.eye(3) if trusted else None
        process(received, 1.345, 0.05, sigma_hat)
        assert calls == [(len(received), 3, 3)]

    @pytest.mark.parametrize("given, decompositions", [("median", 1), ("raw", 1), ("checked", 0)])
    def test_process_decomposes_sigma_hat_once(self, monkeypatch, given, decompositions):
        # The first require_pd of Sigma-hat factors it; the Huber step and
        # detect pass its PDMatrix through.  The received matrices are
        # screened by the stacked eigh, which is not counted here.
        received = linear_round()
        raw = np.array([[2.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 1.5]])
        sigma_hat = {"median": None, "raw": raw, "checked": numkit.require_pd(raw)}[given]
        calls = []
        eigh = numkit._eigh

        def counting(a):
            calls.append(a)
            return eigh(a)

        monkeypatch.setattr(numkit, "_eigh", counting)
        got = process(received, 1.345, 0.05, sigma_hat)
        assert len(calls) == decompositions
        if given == "checked":
            want = process(received, 1.345, 0.05, raw)
            assert got[0].theta_hat.tobytes() == want[0].theta_hat.tobytes()
            assert got[0].se.tobytes() == want[0].se.tobytes()
            assert csv_text(got[3]) == csv_text(want[3])

    def test_one_round_per_side_of_the_wire(self, monkeypatch):
        # fit_shards builds the fits' round, contaminate the round that is
        # encoded and decode_messages the one the processor reads; process
        # builds none for a round of one dimension in server order, and one
        # for a round out of order.
        events = []
        post_init = aggregate.RoundView.__post_init__

        def counting(view):
            events.append("round")
            post_init(view)

        def marked(name, fn):
            def call(*args):
                events.append(name)
                return fn(*args)
            return call

        monkeypatch.setattr(aggregate.RoundView, "__post_init__", counting)
        for name in ("encode_messages", "decode_messages", "process"):
            monkeypatch.setattr(distsim, name, marked(name, getattr(distsim, name)))
        config = distsim.StudyConfig(
            model=ModelKind.LINEAR,
            theta0=(1.0, -1.0, 0.5),
            n_servers=30,
            shard_size=50,
            contamination=ContaminationSpec(kind=ContaminationKind.GAUSSIAN),
        )
        distsim.run_replicate(config, 0)
        assert events == ["round", "round", "encode_messages", "decode_messages", "round", "process"]

        received = linear_round()
        assert not received.ordered
        events.clear()
        report = process(received, 1.345, 0.05)[3]
        assert events == ["round"]
        assert [r.server_id for r in report.records] == sorted(e.server_id for e in received)

    def test_minority_servers_are_rejected(self):
        ests = [LocalEstimate(k, 10, np.zeros(2), np.eye(2)) for k in (3, 1, 2)]
        ests.append(LocalEstimate("x", 10, np.zeros(3), np.eye(3)))
        view = admit(ests)
        assert view.server_ids == (1, 2, 3) and view.thetas.shape == (3, 2)
        assert view.rejected == ((3, "x", 10, OTHER_DIMENSION),)
        assert [e.server_id for e in view.members] == [1, 2, 3]
        assert not view.thetas.flags.writeable and not view.sigmas.flags.writeable
        assert admit(view) is view and admit(view, 2) is view and round_view(view) is view
        with pytest.raises(DimensionError, match="disagree on parameter dimension"):
            round_view(ests)
        with pytest.raises(ValueError, match="at least one local estimate"):
            admit([], 2)

    def test_a_forged_id_silences_the_server_it_copies(self):
        # Ten clean servers and an eleventh payload claiming id 3 with
        # theta (50, 50): both copies of id 3 are left out, so the forger
        # neither joins the round nor gets flagged in server 3's name.
        rng = np.random.default_rng(3)
        clean = [LocalEstimate(k, 100, rng.normal(0.0, 0.05, 2) + [1.0, 2.0], np.eye(2)) for k in range(1, 11)]
        forged = LocalEstimate(3, 100, [50.0, 50.0], np.eye(2))
        want = process([e for e in clean if e.server_id != 3], 1.345, 0.05)
        for received in (clean + [forged], decode_messages(encode_messages(clean + [forged]))):
            view = admit(received)
            assert view.server_ids == (1, 2, 4, 5, 6, 7, 8, 9, 10)
            assert view.rejected == ((2, 3, 100, REPEATED_ID), (3, 3, 100, REPEATED_ID))
            got = process(received, 1.345, 0.05)
            assert got[0].theta_hat.tobytes() == want[0].theta_hat.tobytes()
            report = got[3]
            assert [(r.server_id, r.error) for r in report.records if r.server_id == 3] == [(3, REPEATED_ID)] * 2
            assert report.flagged_theta_ids() == [] and sum(report.n_k) == 1100
        with pytest.raises(ValueError, match=f"^server 3: {REPEATED_ID}$"):
            round_view(clean + [forged])

    def test_an_ordered_view_with_a_repeated_id_is_not_passed_through(self):
        # Rows in server order, id 2 twice: the view is not admitted as it is.
        ids = (1, 2, 2, 3)
        view = aggregate.RoundView(ids, (10,) * 4, np.arange(8.0).reshape(4, 2), np.stack([np.eye(2)] * 4))
        assert not view.ordered
        admitted = admit(view)
        assert admitted is not view and admitted.server_ids == (1, 3)
        assert admitted.rejected == ((1, 2, 10, REPEATED_ID), (2, 2, 10, REPEATED_ID))
        assert admit(admitted) is admitted and admit(admitted, 2) is admitted
        with pytest.raises(ValueError, match=REPEATED_ID):
            huber_aggregate(view, np.eye(2))
        report = detect(view, np.zeros(2), np.eye(2))
        assert [r.error for r in report.records] == [None, REPEATED_ID, REPEATED_ID, None]

    def test_copies_of_an_id_do_not_decide_the_dimension(self):
        # Four copies of id 9 at p = 3 outnumber the three p = 2 servers, but
        # the majority is counted among the servers with their own ids.
        ests = [LocalEstimate(k, 10, np.zeros(2), np.eye(2)) for k in (1, 2, 3)]
        ests += [LocalEstimate(9, 10, np.ones(3), np.eye(3)) for _ in range(4)]
        view = admit(ests)
        assert view.p == 2 and view.server_ids == (1, 2, 3)
        assert [r.error for r in view.rejected] == [REPEATED_ID] * 4
        with pytest.raises(DimensionError, match="disagree on parameter dimension"):
            admit(ests[3:])

    def test_view_read_at_another_dimension_rejects_its_rows(self):
        ests = [LocalEstimate(k, 10, np.full(2, k), np.eye(2)) for k in (3, 1, 2)]
        plain = round_view(ests)
        other = admit(plain, 3)
        assert other.p == 3 and len(other) == 0
        assert other.rejected == tuple((i, k, 10, OTHER_DIMENSION) for i, k in enumerate((1, 2, 3)))
        report = detect(plain, np.zeros(3), np.eye(3))
        assert [(r.server_id, r.error) for r in report.records] == [(k, OTHER_DIMENSION) for k in (1, 2, 3)]
        # The estimates of the servers a view left out are gone, so it
        # cannot be read at another dimension.
        mixed = admit(ests + [LocalEstimate("x", 20, np.ones(3), np.eye(3))])
        with pytest.raises(DimensionError, match="admitted for dimension 2"):
            admit(mixed, 3)

    def test_stacked_spatial_median_is_the_weighted_points(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((40, 6))
        w = rng.uniform(0.5, 3.0, 40)
        got = spatial_median(x, w)
        want = spatial_median(np.array([list(v) for v in x]), [float(c) for c in w])
        assert got.eta.tobytes() == want.eta.tobytes()
        assert (got.iterations, got.anchored, got.objective) == (want.iterations, want.anchored, want.objective)
        for bad in ([np.inf] * 6, [np.nan] * 6):
            y = x.copy()
            y[3] = bad
            with pytest.raises(ValueError, match="finite"):
                spatial_median(y, w)
        with pytest.raises(ValueError, match="positive and finite"):
            spatial_median(x, -w)
        with pytest.raises(DimensionError):
            spatial_median(x, w[:-1])


# ---------------------------------------------------------------------------
# The fits are a round
# ---------------------------------------------------------------------------


def fitted_round(name):
    """The fits of a desk round (K = 20 logistic shards of 1000 rows, ids 1
    to 20), or of ragged logistic shards whose str ids are out of server order."""
    if name == "desk":
        model = models.ModelSpec.logistic(2)
        data = distsim.generate_dataset(model.kind, (2.0, 1.0), 20 * 1000, 5)
        return models.fit_shards(model, distsim.partition(data, 20), server_ids=range(1, 21))
    rng = np.random.default_rng(6)
    theta0 = np.array([1.0, -1.0, 0.5])
    shards = []
    for n in (150, 300, 150, 420, 90, 300, 260):
        X = rng.standard_normal((n, 3))
        shards.append(Observations((rng.random(n) < special.expit(X @ theta0)).astype(float), X))
    ids = ["s3", "s1", "b", "s7", "a", "s2", "s10"]
    return models.fit_shards(models.ModelSpec.logistic(3), shards, server_ids=ids)


def stage_bits(received):
    """What every central stage, the encoder and ``process`` make of a round."""
    sigma = aggregate_sigma(received)
    result = huber_aggregate(received, sigma, 1.345)
    theta_bar, sigma_bar = aggregate.weighted_average(received)
    report = detect(received, result.theta_hat, sigma)
    full = process(received, 1.345, 0.05)
    return (
        [a.tobytes() for a in sigma],
        result.theta_hat.tobytes(), result.se.tobytes(), result.iterations, result.residual_norm,
        theta_bar.tobytes(), sigma_bar.tobytes(),
        csv_text(report),
        encode_messages(received),
        full[0].theta_hat.tobytes(), full[0].se.tobytes(), full[1].tobytes(), full[2].tobytes(),
        csv_text(full[3]),
    )


@pytest.mark.parametrize("name", ["desk", "ragged"])
def test_fits_are_read_as_the_listed_estimates(name):
    fits = fitted_round(name)
    assert fits.ordered == (name == "desk")
    listed = [LocalEstimate(*row) for row in zip(fits.server_ids, fits.n_k, fits.thetas, fits.sigmas)]
    for k, fit in enumerate(fits):
        assert type(fit) is LocalEstimate and fit.server_id == listed[k].server_id
        assert np.shares_memory(fit.theta_star, fits.thetas) and not fit.theta_star.flags.writeable
    assert stage_bits(fits) == stage_bits(listed)


# ---------------------------------------------------------------------------
# One rule for sigma_hat
# ---------------------------------------------------------------------------

BAD_SIGMA_HATS = {
    "inf entry": (np.array([[1.0, np.inf], [0.0, 1.0]]), NotPositiveDefiniteError),
    "nan": (np.array([[1.0, np.nan], [np.nan, 1.0]]), NotPositiveDefiniteError),
    "asymmetric": (np.array([[1.0, 0.5], [0.0, 1.0]]), NotPositiveDefiniteError),
    "wrong shape": (np.eye(3), DimensionError),
    "zero": (np.zeros((2, 2)), NotPositiveDefiniteError),
    "indefinite": (np.diag([1.0, -1.0]), NotPositiveDefiniteError),
}


@pytest.mark.parametrize("name", sorted(BAD_SIGMA_HATS))
def test_every_stage_rejects_a_bad_sigma_hat_alike(name):
    sigma_hat, error = BAD_SIGMA_HATS[name]
    ests = [LocalEstimate(k, 50, [2.0 + 0.01 * k, 1.0], np.eye(2)) for k in range(1, 6)]
    stages = [
        lambda: huber_aggregate(ests, sigma_hat),
        lambda: detect(ests, [2.0, 1.0], sigma_hat),
        lambda: detect(ests[:1], [2.0, 1.0], sigma_hat),
        lambda: process(ests, 1.345, 0.05, sigma_hat),
    ]
    raised = []
    for stage in stages:
        with pytest.raises(error) as excinfo:
            stage()
        raised.append((type(excinfo.value), str(excinfo.value)))
    assert raised == [raised[0]] * len(stages)
    assert raised[0][0] is error

"""Rounds that mix parameter dimensions, through ``distsim.process``.

A server whose payload has another dimension than the strict majority's is
left out of the aggregates and reported on an error row at its place in
server order.  The pinned test fixes three such rounds to the text and bits
they produce; the property checks that the servers left out change nothing
else.
"""

import io

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from robustagg.aggregate import LocalEstimate
from robustagg.distsim import decode_messages, encode_messages, process

OTHER_DIMENSION = "theta_hat dimension does not match the estimate"


def csv_text(report):
    buf = io.StringIO()
    report.to_csv(buf)
    return buf.getvalue()


def server(rng, sid, p, shift=0.0, sigma_sign=1.0):
    """A server near theta = (1, ..., p) with a ragged size and a PD matrix
    (negated when ``sigma_sign`` is -1), its estimate moved by ``shift``."""
    n_k = int(rng.integers(50, 500))
    b = rng.standard_normal((p, p)) * 0.3
    m = np.eye(p) + b @ b.T
    theta = np.arange(1.0, p + 1.0) + rng.standard_normal(p) / (2.0 * np.sqrt(n_k)) + shift
    return LocalEstimate(sid, n_k, theta, sigma_sign * (m + m.T) / 2.0)


def round_a():
    # A plain list, out of id order; the p = 3 server 0 comes first in id order.
    rng = np.random.default_rng(31)
    return [server(rng, sid, 3 if sid == 0 else 2) for sid in (4, 7, 0, 2, 8, 1, 6, 3, 5)]


def round_b():
    # Through the wire; p = 3 servers in the middle (6) and at the end (11).
    rng = np.random.default_rng(32)
    ests = [server(rng, sid, 3 if sid in (6, 11) else 2) for sid in range(1, 12)]
    return decode_messages(encode_messages(ests))


def round_c():
    # The p = 3 server 8 sits between server 7, whose estimate is far off
    # (theta-flagged), and server 9, whose matrix is not PD (sigma-flagged).
    rng = np.random.default_rng(33)
    ests = [server(rng, sid, 2) for sid in range(1, 7)]
    ests.append(server(rng, 7, 2, shift=5.0))
    ests.append(server(rng, 8, 3))
    ests.append(server(rng, 9, 2, sigma_sign=-1.0))
    return ests


def observed(received):
    result, theta_bar, se_wa, report = process(received, 1.345, 0.05)
    return {
        "csv": csv_text(report),
        "flagged_theta": report.flagged_theta_ids(),
        "flagged_sigma": report.flagged_sigma_ids(),
        "threshold": repr(report.threshold),
        "p": report.p,
        "huber": result.theta_hat.tobytes().hex(),
        "huber_se": result.se.tobytes().hex(),
        "wa": theta_bar.tobytes().hex(),
        "wa_se": se_wa.tobytes().hex(),
    }


HEADER = "server_id,n_k,d1,d2,theta_flagged,sigma_flagged,error\n"

PINNED = {
    "a": {
        "csv": HEADER
        + "0,101,,,False,False,theta_hat dimension does not match the estimate\n"
        "1,195,0.21147066744251605,0.172765769893588,False,False,\n"
        "2,144,0.5048979784050461,0.5310919645157973,False,False,\n"
        "3,87,0.35402496839243053,0.3590789843023233,False,False,\n"
        "4,296,0.2805082801163198,0.27890757808691363,False,False,\n"
        "5,388,0.23766686988118335,0.24471042685348451,False,False,\n"
        "6,150,0.3307390847585465,0.3194589200789485,False,False,\n"
        "7,456,0.7469916206329456,0.7552959221409177,False,False,\n"
        "8,115,0.6546609375796022,0.6676223575098823,False,False,\n",
        "flagged_theta": [],
        "flagged_sigma": [],
        "threshold": "2.4477468306808166",
        "p": 2,
        "huber": "8307407567f8ef3f5c87fbb2b70f0040",
        "huber_se": "27a6c65cc0a1993fed5f16d83acd993f",
        "wa": "8307407567f8ef3f5c87fbb2b70f0040",
        "wa_se": "20185fb56cdd993f6f13e4cc8d98993f",
    },
    "b": {
        "csv": HEADER
        + "1,445,1.0347795990637816,1.0719709870882512,False,False,\n"
        "2,122,0.5889506023997074,0.5614808480383346,False,False,\n"
        "3,180,0.7313716420103795,0.7553204668089514,False,False,\n"
        "4,460,0.37826467933007096,0.3808986737863462,False,False,\n"
        "5,211,0.5541049382109644,0.5018276690238676,False,False,\n"
        "6,122,,,False,False,theta_hat dimension does not match the estimate\n"
        "7,315,0.834872830256226,0.8238694004650572,False,False,\n"
        "8,172,0.7371871827826807,0.6732501784859042,False,False,\n"
        "9,291,0.4815787320329336,0.49876191576613715,False,False,\n"
        "10,177,0.27722211503456373,0.268992909319887,False,False,\n"
        "11,373,,,False,False,theta_hat dimension does not match the estimate\n",
        "flagged_theta": [],
        "flagged_sigma": [],
        "threshold": "2.4477468306808166",
        "p": 2,
        "huber": "8489225e53e4ef3ffd53bb59e30f0040",
        "huber_se": "ad4c65e6be11973f29252b594344963f",
        "wa": "8389225e53e4ef3ffe53bb59e30f0040",
        "wa_se": "1d595a03b5b9963f6293b93c1969963f",
    },
    "c": {
        "csv": HEADER
        + "1,445,0.3837611548357811,0.3709806094556188,False,False,\n"
        "2,249,0.5639582166410635,0.50115408249279,False,False,\n"
        "3,436,0.5559453941208056,0.5690475914938865,False,False,\n"
        "4,204,0.35070347978428584,0.3539389006492129,False,False,\n"
        "5,97,0.32910044988575976,0.3183304646430673,False,False,\n"
        "6,144,0.5785132941666883,0.5635550117004069,False,False,\n"
        "7,68,55.76500906143711,,True,False,\n"
        "8,281,,,False,False,theta_hat dimension does not match the estimate\n"
        "9,369,0.7431736979823952,,False,True,\n",
        "flagged_theta": [7],
        "flagged_sigma": [9],
        "threshold": "2.4477468306808166",
        "p": 2,
        "huber": "ab757262bf24f03ffe79167ca5140040",
        "huber_se": "b5214d524605983fef758ba19262993f",
        "wa": "ccfd1a6844bef23f775bd091ba610140",
        "wa_se": "2e6615647573923ff94a00ae30cc933f",
    },
}


@pytest.mark.parametrize("name, build", [("a", round_a), ("b", round_b), ("c", round_c)])
def test_mixed_round_is_pinned(name, build):
    assert observed(build()) == PINNED[name]


@st.composite
def mixed_rounds(draw):
    """``(majority, mixed)``: a clean strict majority of p-dimensional
    servers of one size, and the same servers with fewer servers of other
    dimensions among them, each at a random place in server order."""
    p = draw(st.integers(1, 4))
    k = draw(st.integers(1, 12))
    others = draw(st.integers(0, k - 1))
    n_k = draw(st.integers(50, 5000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ids = [int(i) for i in rng.permutation(k + others)]
    mixed = []
    for j, sid in enumerate(ids):
        q = p if j < k else draw(st.sampled_from([q for q in range(1, 6) if q != p]))
        b = rng.standard_normal((q, q)) * 0.3
        m = np.eye(q) + b @ b.T
        theta = np.arange(1.0, q + 1.0) + rng.standard_normal(q) / np.sqrt(n_k)
        mixed.append(LocalEstimate(sid, n_k, theta, (m + m.T) / 2.0))
    majority = mixed[:k]
    rng.shuffle(mixed)
    if draw(st.booleans()):
        mixed = decode_messages(encode_messages(mixed))
    return p, majority, mixed


def rows(report):
    return [(r.server_id, r.n_k, r.d1, r.d2, r.theta_flagged, r.sigma_flagged, r.error) for r in report.records]


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mixed_rounds())
def test_a_rejected_server_changes_nothing_else(round_):
    p, majority, mixed = round_
    got, want = process(mixed, 1.345, 0.05), process(majority, 1.345, 0.05)
    for g, w in zip(got[:3], want[:3]):
        g = g if isinstance(g, np.ndarray) else np.concatenate([g.theta_hat, g.se])
        w = w if isinstance(w, np.ndarray) else np.concatenate([w.theta_hat, w.se])
        assert g.tobytes() == w.tobytes()
    assert got[0].iterations == want[0].iterations
    admitted = {e.server_id for e in majority}
    assert [row for row in rows(got[3]) if row[0] in admitted] == rows(want[3])
    by_id = sorted(mixed, key=lambda e: e.server_id)
    for position, e in enumerate(by_id):
        row = rows(got[3])[position]
        assert row[0] == e.server_id
        if e.p != p:
            assert row == (e.server_id, e.n_k, None, None, False, False, OTHER_DIMENSION)

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The two Monte Carlo studies (contamination-free and omniscient, both
at the documented desk scale) are computed once and shared.
"""

import math
import time

import numpy as np
from scipy.optimize import minimize

from robustagg import numkit
from robustagg.aggregate import (
    LocalEstimate,
    huber_aggregate,
    tau_c,
    weighted_average,
)
from robustagg.distsim import decode_message, encode_message
from robustagg.models import (
    ModelKind,
    ModelSpec,
    Observations,
    criterion_eval,
    fit_local,
    sandwich_variance,
)
from robustagg.spatialmed import aggregate_sigma, spatial_median


def report(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_1_efficiency_constants():
    targets = [(1.345, 0.950), (0.9818, 0.900), (1.5, 0.964), (1e-4, 2.0 / math.pi)]
    started = time.perf_counter()
    values = [(c, tau_c(c), want) for c, want in targets]
    elapsed = time.perf_counter() - started
    ok = all(abs(got - want) <= 1e-3 for _, got, want in values)
    detail = ", ".join(f"tau({c:g})={got:.4f} (want {want:.4f})" for c, got, want in values)
    report(1, ok, f"{detail}; {elapsed * 1e3:.1f} ms")
    assert ok


def test_criterion_2_reduction_to_weighted_average():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 51))
        p = int(rng.integers(1, 6))
        center = rng.standard_normal(p)
        ests = []
        for sid in range(1, k + 1):
            q, _ = np.linalg.qr(rng.standard_normal((p, p)))
            sigma = (q * rng.uniform(0.5, 2.0, size=p)) @ q.T
            ests.append(
                LocalEstimate(
                    server_id=sid,
                    n_k=int(rng.integers(1, 100)),
                    theta_star=center + rng.standard_normal(p),
                    sigma_star=sigma,
                )
            )
        whiten_sigma = np.eye(p) * rng.uniform(0.5, 3.0)
        res = huber_aggregate(ests, whiten_sigma, math.inf)
        theta_bar, _ = weighted_average(ests)
        worst = max(worst, float(np.abs(res.theta_hat - theta_bar).max()))
    ok = worst <= 1e-8
    report(2, ok, f"c=inf vs weighted average over 100 random sets, worst gap {worst:.2e}")
    assert ok


def test_criterion_3_contamination_free_study(clean_study):
    m = clean_study
    cp = m.huber.cp
    re = m.relative_efficiency
    cp_ok = bool(np.all((cp >= 0.91) & (cp <= 0.98)))
    re_ok = bool(np.all((re >= 0.90) & (re <= 1.00)))
    ok = cp_ok and re_ok and m.runtime_seconds <= 300.0
    report(
        3,
        ok,
        f"CP={np.round(cp, 3).tolist()} (want [0.91,0.98]), "
        f"RE={np.round(re, 4).tolist()} (want [0.90,1.00]), "
        f"{m.replicates_completed} replicates in {m.runtime_seconds:.1f}s",
    )
    assert ok, (
        "contamination-free desk-scale study out of tolerance: "
        f"CP={cp.tolist()}, RE={re.tolist()}"
    )


def test_criterion_4_omniscient_study(omniscient_study):
    m = omniscient_study
    hr_ok = m.hit_rate == 1.0
    cp = m.huber.cp
    cp_ok = bool(np.all((cp >= 0.90) & (cp <= 0.98)))
    wa_ok = bool(np.all(m.weighted.cp <= 0.05))
    ok = hr_ok and cp_ok and wa_ok and m.runtime_seconds <= 300.0
    report(
        4,
        ok,
        f"HR={m.hit_rate} (want 1.0), huber CP={np.round(cp, 3).tolist()} "
        f"(want [0.90,0.98]), weighted CP={np.round(m.weighted.cp, 3).tolist()} "
        f"(want <=0.05), {m.replicates_completed} replicates in {m.runtime_seconds:.1f}s",
    )
    assert ok, (
        "omniscient desk-scale study out of tolerance: "
        f"HR={m.hit_rate}, huber CP={cp.tolist()}, weighted CP={m.weighted.cp.tolist()}"
    )


def test_criterion_5_pd_guarantee():
    rng = np.random.default_rng(202)
    started = time.perf_counter()
    smallest = math.inf
    for _ in range(1000):
        k = int(rng.integers(1, 51))
        p = int(rng.integers(1, 7))
        ests = []
        for sid in range(1, k + 1):
            q, _ = np.linalg.qr(rng.standard_normal((p, p)))
            sigma = (q * rng.uniform(0.05, 5.0, size=p)) @ q.T
            if rng.random() < 0.15:
                sigma = sigma - 2.0 * np.eye(p)  # non-PD outlier, repaired inside
            ests.append(
                LocalEstimate(sid, int(rng.integers(1, 2000)), np.zeros(p), sigma)
            )
        smallest = min(smallest, float(aggregate_sigma(ests).values[-1]))
    elapsed = time.perf_counter() - started
    ok = smallest > 0.0
    report(5, ok, f"1000 aggregations, min eigenvalue {smallest:.3e} in {elapsed:.1f}s")
    assert ok


def _distance_objective(x, w, eta):
    return math.fsum(float(c) * float(np.linalg.norm(v - eta)) for v, c in zip(x, w))


def test_criterion_6_spatial_median_oracle_and_rate():
    rng = np.random.default_rng(303)
    started = time.perf_counter()

    worst_gap = 0.0
    for _ in range(50):
        k = int(rng.integers(2, 8))
        d = int(rng.integers(1, 4))
        pts = [(rng.standard_normal(d), math.sqrt(rng.integers(1, 50))) for _ in range(k)]
        x, w = np.array([v for v, _ in pts]), np.array([c for _, c in pts])
        ours = spatial_median(x, w).objective
        best = math.inf
        for start in range(10):
            x0 = x[start % k] if start < k else rng.standard_normal(d) * 2
            res = minimize(
                lambda eta: _distance_objective(x, w, eta),
                x0,
                method="Nelder-Mead",
                options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 20000, "maxfev": 20000},
            )
            best = min(best, float(res.fun))
        worst_gap = max(worst_gap, abs(ours - best))
    oracle_ok = worst_gap <= 1e-6

    # Root-N rate: points drawn straight from the asymptotic law around a
    # known center; the median error should scale like N^{-1/2}.
    eta0 = np.array([1.0, -0.5, 2.0])
    k = 10
    scaled = []
    for total in (10**3, 10**4, 10**5):
        n_k = total // k
        errors = []
        for _ in range(40):
            x = np.array([eta0 + rng.standard_normal(3) / math.sqrt(n_k) for _ in range(k)])
            w = np.full(k, math.sqrt(n_k))
            errors.append(float(np.linalg.norm(spatial_median(x, w).eta - eta0)))
        scaled.append(float(np.median(errors)) * math.sqrt(total))
    rate_ok = max(scaled) / min(scaled) <= 2.0
    elapsed = time.perf_counter() - started

    ok = oracle_ok and rate_ok and elapsed <= 60.0
    report(
        6,
        ok,
        f"oracle gap {worst_gap:.2e} (want <=1e-6), sqrt(N)-scaled errors "
        f"{[round(s, 3) for s in scaled]} (max/min {max(scaled) / min(scaled):.2f}, "
        f"want <=2), {elapsed:.1f}s",
    )
    assert ok


def test_criterion_7_sandwich_identity_design():
    rng = np.random.default_rng(404)
    started = time.perf_counter()
    n = 100_000
    X = rng.standard_normal((n, 2))
    y = X @ [2.0, 1.0] + rng.standard_normal(n)
    data = Observations(y, X)
    model = ModelSpec.linear(2)
    fit = fit_local(model, data)
    sigma = sandwich_variance(model, data, fit.thetas[0])
    gap = float(np.abs(sigma - np.eye(2)).max())
    elapsed = time.perf_counter() - started
    ok = gap <= 0.05
    report(7, ok, f"n=1e5 linear sandwich vs identity, max gap {gap:.4f}; {elapsed:.1f}s")
    assert ok


def test_criterion_8_detection_calibration(clean_study):
    rate = clean_study.flag_rate
    ok = rate <= 0.10
    report(8, ok, f"contamination-free flag rate {rate:.4f} (want <=0.10) at alpha=0.05")
    assert ok


def test_criterion_9_numerical_kernel_suite():
    rng = np.random.default_rng(505)
    started = time.perf_counter()
    failures = []

    # Analytic gradients vs central finite differences (1e-6 relative).
    for model in (ModelSpec.linear(2), ModelSpec.logistic(2)):
        X = rng.standard_normal((50, 2))
        if model.kind is ModelKind.LINEAR:
            y = X @ [1.0, -0.5] + rng.standard_normal(50)
        else:
            y = (rng.random(50) < 0.5).astype(float)
        data = Observations(y, X)
        for _ in range(10):
            theta = rng.standard_normal(2)
            _, grad, _ = criterion_eval(model, data, theta)
            h = 1e-6
            approx = np.zeros(2)
            for j in range(2):
                e = np.zeros(2)
                e[j] = h
                up, _, _ = criterion_eval(model, data, theta + e)
                dn, _, _ = criterion_eval(model, data, theta - e)
                approx[j] = (up - dn) / (2 * h)
            if np.abs(grad - approx).max() > 1e-6 * max(1.0, np.abs(grad).max()):
                failures.append(f"gradient mismatch ({model.kind.value})")

    # Inverse square root identity at 1e-8, condition numbers up to 1e6.
    for _ in range(50):
        p = int(rng.integers(1, 8))
        q, _ = np.linalg.qr(rng.standard_normal((p, p)))
        a = (q * np.logspace(0, rng.uniform(0, 6), p)) @ q.T
        b = numkit.inv_sqrt_pd(a)
        if np.linalg.norm(b @ a @ b - np.eye(p)) > 1e-8:
            failures.append("inverse square root identity")

    # vech round trip, bit exact.
    for p in range(1, 11):
        a = rng.standard_normal((p, p))
        a = (a + a.T) / 2
        if not np.array_equal(numkit.vech_inv(numkit.vech(a), p), a):
            failures.append("vech round trip")

    # Transport codec: 10^4 random estimates survive bit-exactly.
    for _ in range(10_000):
        p = int(rng.integers(1, 5))
        a = rng.standard_normal((p, p))
        est = LocalEstimate(
            server_id=int(rng.integers(1, 10**6)),
            n_k=int(rng.integers(1, 10**7)),
            theta_star=rng.standard_normal(p) * 10.0 ** rng.integers(-6, 7),
            sigma_star=(a + a.T) / 2,
        )
        back = decode_message(encode_message(est))
        if not (
            back.server_id == est.server_id
            and back.n_k == est.n_k
            and np.array_equal(back.theta_star, est.theta_star)
            and np.array_equal(back.sigma_star, est.sigma_star)
        ):
            failures.append("transport round trip")
            break

    elapsed = time.perf_counter() - started
    ok = not failures
    report(9, ok, f"kernel property suite, {('no failures' if ok else failures)}; {elapsed:.1f}s")
    assert ok, failures

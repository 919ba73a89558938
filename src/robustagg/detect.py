"""Two-step detection of contaminated transmitted estimates.

Step 1 flags a server whose estimate sits too far from the robust aggregate
in Mahalanobis distance (d1, standardized by the aggregated variance).
Step 2 runs only for servers that pass step 1 and repeats the test with the
server's own transmitted variance matrix (d2); a variance matrix that is not
even positive definite is itself evidence of contamination, since an
uncontaminated sandwich estimate is PD by construction.  Both distances are
asymptotically sqrt(chi-squared) with p degrees of freedom for clean
servers, so the common threshold is sqrt of the upper-alpha chi-squared
quantile, ``scipy.special.chdtri(p, alpha)`` (the function behind
``scipy.stats.chi2.isf``, without the import cost of ``scipy.stats``).

The per-server tests are applied exactly as stated, once per server; no
multiplicity correction across the K servers is attempted (none is part of
the procedure), so with K servers about alpha * K clean servers will be
flagged on average.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DimensionError, NotPositiveDefiniteError
from . import numkit
from .aggregate import LocalEstimate, server_order

DEFAULT_ALPHA = 0.05


@dataclass
class ServerDetection:
    """Distances and flags for one server.

    ``d2`` is None when step 2 was gated off (theta already flagged) or when
    the server's variance matrix was not invertible as a PD matrix; in the
    latter case ``sigma_flagged`` is True.  ``error`` records a per-server
    computation failure without aborting the rest of the report.
    """

    server_id: int | str
    n_k: int
    d1: float | None
    d2: float | None
    theta_flagged: bool
    sigma_flagged: bool
    error: str | None = None


@dataclass
class DetectionReport:
    records: list[ServerDetection]
    alpha: float
    threshold: float
    p: int

    def flagged_theta_ids(self) -> list:
        return [r.server_id for r in self.records if r.theta_flagged]

    def flagged_sigma_ids(self) -> list:
        return [r.server_id for r in self.records if r.sigma_flagged]

    def to_csv(self, fileobj) -> None:
        """Write one row per server: id, n_k, d1, d2, flags, error."""
        writer = csv.writer(fileobj, lineterminator="\n")
        writer.writerow(
            ["server_id", "n_k", "d1", "d2", "theta_flagged", "sigma_flagged", "error"]
        )
        for r in self.records:
            writer.writerow(
                [
                    r.server_id,
                    r.n_k,
                    "" if r.d1 is None else repr(r.d1),
                    "" if r.d2 is None else repr(r.d2),
                    r.theta_flagged,
                    r.sigma_flagged,
                    "" if r.error is None else r.error,
                ]
            )

    def to_csv_string(self) -> str:
        buf = io.StringIO()
        self.to_csv(buf)
        return buf.getvalue()


def _distance(n_k: int, diff: np.ndarray, sol: np.ndarray) -> float:
    """sqrt{n_k diff^T sol} for sol = Sigma^{-1} diff, the quadratic form
    clipped at zero against rounding."""
    return math.sqrt(n_k * max(float(diff @ sol), 0.0))


def _solve_each(mats: np.ndarray, diffs: np.ndarray) -> list:
    """The solution of ``mats[i] x = diffs[i]`` for every row, or the
    ``LinAlgError`` its solve raised.

    One stacked ``solve``, which returns the same bits as one solve per
    row.  It raises for the whole stack if one matrix is singular, so it is
    then retried one row at a time.
    """
    try:
        return list(np.linalg.solve(mats, diffs[..., None])[..., 0])
    except np.linalg.LinAlgError:
        pass
    out: list = []
    for a, b in zip(mats, diffs):
        try:
            out.append(np.linalg.solve(a, b))
        except np.linalg.LinAlgError as exc:
            out.append(exc)
    return out


def _checked_sigma_hat(sigma_hat: np.ndarray) -> np.ndarray:
    """The symmetrized ``sigma_hat``; raises unless it is positive definite."""
    smallest = numkit.min_eigenvalue(sigma_hat)
    if smallest <= 0.0:
        raise NotPositiveDefiniteError(
            "sigma_hat must be positive definite for the detection distance",
            eigenvalue=smallest,
        )
    return numkit.symmetrize(sigma_hat)


def _dimension_error(p: int, theta_hat: np.ndarray, sigma_hat: np.ndarray):
    """The DimensionError of a server of dimension ``p``, or None if it fits."""
    if theta_hat.size != p:
        return DimensionError("theta_hat dimension does not match the estimate")
    if sigma_hat.shape != (p, p):
        return DimensionError("sigma_hat dimension does not match the estimate")
    return None


def _step1(ests: list, theta_hat: np.ndarray, sigma_hat: np.ndarray) -> list:
    """d1 of every server, or the DimensionError or LinAlgError that
    replaces it.

    ``sigma_hat`` is checked and symmetrized once (a ``sigma_hat`` that is
    not positive definite raises, since it invalidates the whole report),
    and the servers of its dimension share one stacked solve against it.
    """
    out = [_dimension_error(e.p, theta_hat, sigma_hat) for e in ests]
    same = [i for i, err in enumerate(out) if err is None]
    if same:
        sym = _checked_sigma_hat(sigma_hat)
        diffs = np.stack([ests[i].theta_star for i in same]) - theta_hat
        sols = _solve_each(np.broadcast_to(sym, (len(same),) + sym.shape), diffs)
        for i, diff, sol in zip(same, diffs, sols):
            out[i] = sol if isinstance(sol, Exception) else _distance(ests[i].n_k, diff, sol)
    return out


def _step2(ests: list, theta_hat: np.ndarray) -> list:
    """d2 of every given server, or None where its variance matrix is not
    symmetric positive definite or is singular to the solve.

    The PD screen runs as one stacked ``eigh`` and the distances of the
    servers that pass it as one stacked solve.
    """
    out: list = [None] * len(ests)
    if not ests:
        return out
    pd, sym = numkit.screen_positive_definite([e.sigma_star for e in ests])
    idx = np.flatnonzero(pd)
    if idx.size == 0:
        return out
    diffs = np.stack([ests[i].theta_star for i in idx]) - theta_hat
    for i, diff, sol in zip(idx, diffs, _solve_each(sym[idx], diffs)):
        if not isinstance(sol, Exception):
            out[i] = _distance(ests[i].n_k, diff, sol)
    return out


def mahalanobis_d1(est: LocalEstimate, theta_hat, sigma_hat) -> float:
    """Distance of the transmitted estimate from the aggregate, standardized
    by the (robust) aggregated variance: sqrt{n_k (t - th)^T Sigma^{-1} (t - th)}.

    The one-server call of detection's step 1.
    """
    d1 = _step1(
        [est], np.asarray(theta_hat, dtype=float).ravel(), np.asarray(sigma_hat, dtype=float)
    )[0]
    if isinstance(d1, Exception):
        raise d1
    return d1


def mahalanobis_d2(est: LocalEstimate, theta_hat) -> float | None:
    """Same distance but standardized by the server's own variance matrix.

    Returns None when the transmitted matrix is not symmetric positive
    definite, or is positive definite by its eigenvalues but singular to the
    LU solve; the caller treats either as contamination evidence rather than
    a numeric distance.  The one-server call of detection's step 2.
    """
    theta_hat = np.asarray(theta_hat, dtype=float).ravel()
    if theta_hat.size != est.p:
        raise DimensionError("theta_hat dimension does not match the estimate")
    return _step2([est], theta_hat)[0]


def detect(
    estimates,
    theta_hat,
    sigma_hat,
    alpha: float = DEFAULT_ALPHA,
) -> DetectionReport:
    """Run the two-step contamination screen over all servers.

    ``sigma_hat`` should be a robust aggregate of the variance estimates
    (or a trusted server's matrix); it standardizes every d1.  Per-server
    failures are recorded on the corresponding row instead of aborting.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    ests = sorted(estimates, key=server_order)
    if not ests:
        raise ValueError("at least one local estimate is required")
    theta_hat = np.asarray(theta_hat, dtype=float).ravel()
    sigma_hat = np.asarray(sigma_hat, dtype=float)
    p = theta_hat.size
    threshold = math.sqrt(float(special.chdtri(p, alpha)))

    d1s = _step1(ests, theta_hat, sigma_hat)
    # Step 2 runs only for servers that step 1 neither failed nor flagged.
    # A non-finite d1 (a payload with an infinite or NaN coordinate) fails
    # ``d1 <= threshold`` and so is flagged.
    passed = [
        i for i, d1 in enumerate(d1s) if not isinstance(d1, Exception) and d1 <= threshold
    ]
    d2s = dict(zip(passed, _step2([ests[i] for i in passed], theta_hat)))

    records = []
    for i, (e, d1) in enumerate(zip(ests, d1s)):
        if isinstance(d1, Exception):
            records.append(
                ServerDetection(
                    server_id=e.server_id,
                    n_k=e.n_k,
                    d1=None,
                    d2=None,
                    theta_flagged=False,
                    sigma_flagged=False,
                    error=str(d1),
                )
            )
            continue
        theta_flagged = not d1 <= threshold
        d2 = d2s.get(i)
        records.append(
            ServerDetection(
                server_id=e.server_id,
                n_k=e.n_k,
                d1=d1,
                d2=d2,
                theta_flagged=theta_flagged,
                sigma_flagged=not theta_flagged and (d2 is None or d2 > threshold),
            )
        )
    return DetectionReport(records=records, alpha=alpha, threshold=threshold, p=p)

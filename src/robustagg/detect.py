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

Every server's distance comes from one stacked pass over the round's
:class:`~robustagg.aggregate.RoundView`, with the bits of
``math.sqrt(n_k * max(float(diff @ sol), 0.0))`` for one server at a time;
README.md (Reproducibility) records how that was measured.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import numkit
from .aggregate import round_view

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


def _distances(sizes: np.ndarray, mats: np.ndarray, diffs: np.ndarray) -> list:
    """sqrt{n_k diff^T Sigma^{-1} diff} of every row, with ``sizes`` the
    rows' ``float(n_k)`` and ``mats`` their Sigma, or the ``LinAlgError``
    of a row whose solve raised.

    One stacked ``solve``, which returns the same bits as one solve per
    row; it raises for the whole stack if one matrix is singular, so it is
    then retried one row at a time.  The quadratic form is clipped at zero
    against rounding, keeping ``-0.0`` and NaN as ``max(q, 0.0)`` does; a
    form beyond the largest double is inf, a distance that is flagged.
    """
    try:
        sols = np.linalg.solve(mats, diffs[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        if len(diffs) == 1:
            return [exc]
        return [_distances(sizes[i : i + 1], mats[i : i + 1], diffs[i : i + 1])[0] for i in range(len(diffs))]
    with np.errstate(over="ignore"):
        q = numkit.row_dots(diffs, sols)
        return np.sqrt(sizes * np.where(0.0 > q, 0.0, q)).tolist()


def detection_threshold(p: int, alpha: float) -> float:
    """The common cutoff of d1 and d2: sqrt of the upper-``alpha``
    chi-squared quantile with ``p`` degrees of freedom.  ``alpha`` must lie
    strictly between 0 and 1."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    return math.sqrt(float(special.chdtri(p, alpha)))


def detect(
    estimates,
    theta_hat,
    sigma_hat,
    alpha: float = DEFAULT_ALPHA,
) -> DetectionReport:
    """Run the two-step contamination screen over all servers.

    ``sigma_hat`` should be a robust aggregate of the variance estimates
    (or a trusted server's matrix); it standardizes every d1, so it must
    pass ``numkit.require_pd`` for dimension p, the rule the Huber
    aggregate applies to it: a wrong shape raises :class:`DimensionError`;
    a non-finite entry, an asymmetry beyond ``numkit.SYM_RTOL`` or an
    eigenvalue that is not > 0 raises :class:`NotPositiveDefiniteError`.
    A raw matrix is decomposed once per call; a ``numkit.PDMatrix`` (what
    ``require_pd`` and ``aggregate_sigma`` return) is used as it is.
    Per-server failures are recorded on the corresponding row instead of
    aborting.
    """
    theta_hat = np.asarray(theta_hat, dtype=float).ravel()
    p = theta_hat.size
    threshold = detection_threshold(p, alpha)
    view = round_view(estimates, p)

    sym = numkit.require_pd(sigma_hat, p).sym
    sizes = np.array([float(n) for n in view.n_k])
    diffs = view.thetas - theta_hat
    d1s = _distances(sizes, np.broadcast_to(sym, (len(sizes), p, p)), diffs)
    # Step 2 runs only for servers that step 1 neither failed nor flagged,
    # against their own matrix where it passes the view's one PD screen.
    # A non-finite d1 (a payload with an infinite or NaN coordinate) fails
    # ``d1 <= threshold`` and so is flagged.
    passed = np.array(
        [i for i, d1 in enumerate(d1s) if not isinstance(d1, Exception) and d1 <= threshold],
        dtype=np.intp,
    )
    d2s = {}
    if passed.size:
        pd, screened = view.screen
        rows = passed[pd[passed]]
        found = _distances(sizes[rows], screened[rows], diffs[rows])
        # A solve that failed leaves d2 None, which flags the server.
        d2s = {i: d2 for i, d2 in zip(rows.tolist(), found) if not isinstance(d2, Exception)}

    records = []
    for row, (sid, n_k, d1) in enumerate(zip(view.server_ids, view.n_k, d1s)):
        if isinstance(d1, Exception):
            records.append(_error_record(sid, n_k, str(d1)))
            continue
        d2 = d2s.get(row)
        theta_flagged = not d1 <= threshold
        records.append(
            ServerDetection(
                server_id=sid,
                n_k=n_k,
                d1=d1,
                d2=d2,
                theta_flagged=theta_flagged,
                sigma_flagged=not theta_flagged and (d2 is None or d2 > threshold),
            )
        )
    # Members of another dimension get their rows at their places.
    for i, e in view.others:
        records.insert(i, _error_record(e.server_id, e.n_k, "theta_hat dimension does not match the estimate"))
    return DetectionReport(records=records, alpha=alpha, threshold=threshold, p=p)


def _error_record(server_id, n_k: int, error: str) -> ServerDetection:
    """The report row of a server whose distances could not be computed."""
    return ServerDetection(
        server_id=server_id,
        n_k=n_k,
        d1=None,
        d2=None,
        theta_flagged=False,
        sigma_flagged=False,
        error=error,
    )

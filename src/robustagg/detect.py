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
README.md (Reproducibility) records how that was measured.  The report
keeps the distances and flags as arrays, and makes its per-server
:class:`ServerDetection` rows only when they are read.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import numkit
from .aggregate import admit

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


@dataclass(eq=False)
class DetectionReport:
    """The screen of a round, columnar: one row per server, in server order
    (with a server the round left out at its place, on an error row).

    ``d1`` and ``d2`` are float arrays; ``errors`` maps the row of a
    server whose distances could not be computed, or that the round left
    out, to its message, and ``d1`` is read at every other row, ``d2``
    where ``has_d2`` holds.  ``records``, one :class:`ServerDetection` per
    row, is made from the columns when first read.
    """

    server_ids: tuple
    n_k: tuple
    d1: np.ndarray
    d2: np.ndarray
    has_d2: np.ndarray
    theta_flagged: np.ndarray
    sigma_flagged: np.ndarray
    errors: dict
    alpha: float
    threshold: float
    p: int

    @functools.cached_property
    def records(self) -> list[ServerDetection]:
        d1, d2 = self.d1.tolist(), self.d2.tolist()
        rows = zip(self.server_ids, self.n_k, self.has_d2.tolist(),
                   self.theta_flagged.tolist(), self.sigma_flagged.tolist())
        return [
            _error_record(sid, n_k, self.errors[i]) if i in self.errors else
            ServerDetection(sid, n_k, d1[i], d2[i] if stepped else None, theta, sigma)
            for i, (sid, n_k, stepped, theta, sigma) in enumerate(rows)
        ]

    def flagged_theta_ids(self) -> list:
        return [self.server_ids[i] for i in np.flatnonzero(self.theta_flagged).tolist()]

    def flagged_sigma_ids(self) -> list:
        return [self.server_ids[i] for i in np.flatnonzero(self.sigma_flagged).tolist()]

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


def _distances(sizes: np.ndarray, mats: np.ndarray, diffs: np.ndarray) -> tuple[np.ndarray, dict]:
    """sqrt{n_k diff^T Sigma^{-1} diff} of every row, with ``sizes`` the
    rows' ``float(n_k)`` and ``mats`` their Sigma; and a dict from each row
    whose solve raised to its ``LinAlgError``, whose distance is NaN.

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
            return np.full(1, np.nan), {0: exc}
        rows = [_distances(sizes[i : i + 1], mats[i : i + 1], diffs[i : i + 1]) for i in range(len(diffs))]
        return np.concatenate([d for d, _ in rows]), {i: f[0] for i, (_, f) in enumerate(rows) if f}
    with np.errstate(over="ignore"):
        q = numkit.row_dots(diffs, sols)
        return np.sqrt(sizes * np.where(0.0 > q, 0.0, q)), {}


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
    The servers screened are those ``aggregate.admit`` admits for
    theta-hat's dimension; each other server gets an error row at its place
    in server order.  Per-server failures are recorded on the corresponding
    row instead of aborting.  The report holds the distances and flags as
    arrays; its :class:`ServerDetection` rows are made only when read.
    """
    theta_hat = np.asarray(theta_hat, dtype=float).ravel()
    p = theta_hat.size
    threshold = detection_threshold(p, alpha)
    view = admit(estimates, p)

    sym = numkit.require_pd(sigma_hat, p).sym
    sizes = np.array([float(n) for n in view.n_k])
    diffs = view.thetas - theta_hat
    d1, failed = _distances(sizes, np.broadcast_to(sym, (len(sizes), p, p)), diffs)
    # Step 2 runs only for servers that step 1 neither failed nor flagged,
    # against their own matrix where it passes the view's one PD screen.
    # A non-finite d1 (a payload with an infinite or NaN coordinate) fails
    # ``d1 <= threshold`` and so is flagged; a failed row's NaN is neither.
    passed = d1 <= threshold
    theta_flagged = ~passed
    theta_flagged[list(failed)] = False
    d2 = np.full(len(sizes), np.nan)
    has_d2 = np.zeros(len(sizes), dtype=bool)
    rows = np.flatnonzero(passed)
    if rows.size:
        pd, screened = view.screen
        rows = rows[pd[rows]]
        d2[rows], unsolved = _distances(sizes[rows], screened[rows], diffs[rows])
        # A solve that failed leaves d2 unset, which flags the server.
        has_d2[rows] = True
        has_d2[rows[list(unsolved)]] = False
    columns = [d1, d2, has_d2, theta_flagged, passed & (~has_d2 | (d2 > threshold))]
    ids, sizes_k, errors = list(view.server_ids), list(view.n_k), [None] * len(sizes)
    for i, exc in failed.items():
        errors[i] = str(exc)
    if view.rejected:
        # Each server the round left out gets its error row at its place in
        # server order, with no distance and no flag.
        at = [r.position - j for j, r in enumerate(view.rejected)]
        columns = [np.insert(column, at, 0) for column in columns]
        for r in view.rejected:
            ids.insert(r.position, r.server_id)
            sizes_k.insert(r.position, r.n_k)
            errors.insert(r.position, r.error)
    errors = {i: error for i, error in enumerate(errors) if error is not None}
    return DetectionReport(tuple(ids), tuple(sizes_k), *columns, errors, alpha, threshold, p)


def _error_record(server_id, n_k: int, error: str) -> ServerDetection:
    """The report row of a server whose distances could not be computed."""
    return ServerDetection(server_id, n_k, None, None, False, False, error)

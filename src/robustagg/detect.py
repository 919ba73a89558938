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

Every server's distance is computed in one stacked pass over the round's
:class:`~robustagg.aggregate.RoundView`, with the bits of the per-server
``math.sqrt(n_k * max(float(diff @ sol), 0.0))``:

* the quadratic form is ``numkit.row_dots(diffs, sols)``, which reaches the
  1-D ``dot`` (0 of 140,000 random rows differed; ``einsum("ij,ij->i")``
  differed in 29,036 of 70,000);
* the clip at zero is ``np.where(0.0 > q, 0.0, q)``, which keeps ``-0.0``
  and NaN as ``max(q, 0.0)`` does (``np.maximum(q, 0.0)`` gives ``+0.0``
  for ``-0.0``), and ``n_k`` is multiplied as ``float(n_k)``, the
  conversion of ``int * float``; ``np.sqrt`` and ``math.sqrt`` are both
  the correctly rounded square root;
* step 2's PD verdicts come from the view's one stacked screen of every
  received matrix, which ``aggregate_sigma`` reads too.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DimensionError
from . import numkit
from .aggregate import LocalEstimate, RoundView, round_view

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


def _distances(n_k: np.ndarray, diffs: np.ndarray, sols: np.ndarray) -> np.ndarray:
    """sqrt{n_k diff^T sol} of every row, for sol = Sigma^{-1} diff and
    ``n_k`` as floats, the quadratic form clipped at zero against rounding.

    The clip keeps ``-0.0`` and NaN, as ``max(q, 0.0)`` does.  A form
    beyond the largest double is inf, a distance that is flagged."""
    with np.errstate(over="ignore"):
        q = numkit.row_dots(diffs, sols)
        return np.sqrt(n_k * np.where(0.0 > q, 0.0, q))


def _solve_each(mats: np.ndarray, diffs: np.ndarray) -> tuple[np.ndarray, dict]:
    """``(sols, errors)``: the solution of ``mats[i] x = diffs[i]`` for every
    row, and the ``LinAlgError`` of each row whose solve raised (its row of
    ``sols`` is then meaningless).

    One stacked ``solve``, which returns the same bits as one solve per
    row.  It raises for the whole stack if one matrix is singular, so it is
    then retried one row at a time.
    """
    try:
        return np.linalg.solve(mats, diffs[..., None])[..., 0], {}
    except np.linalg.LinAlgError:
        pass
    sols = np.zeros_like(diffs)
    errors = {}
    for i, (a, b) in enumerate(zip(mats, diffs)):
        try:
            sols[i] = np.linalg.solve(a, b)
        except np.linalg.LinAlgError as exc:
            errors[i] = exc
    return sols, errors


def _step1(view: RoundView, diffs: np.ndarray, sigma_hat) -> list:
    """d1 of every admitted row of ``view``, or the LinAlgError that
    replaces it; ``diffs`` are the rows' ``theta - theta_hat``.

    ``sigma_hat`` passes ``numkit.require_pd`` or raises (it standardizes
    the whole report), and the rows share one stacked solve against its
    symmetrized form.
    """
    sym = numkit.require_pd(sigma_hat, view.p).sym
    if not len(diffs):
        return []
    sols, errors = _solve_each(np.broadcast_to(sym, (len(diffs),) + sym.shape), diffs)
    out = _distances(_float_sizes(view), diffs, sols).tolist()
    for i, exc in errors.items():
        out[i] = exc
    return out


def _step2(view: RoundView, diffs: np.ndarray, rows: np.ndarray) -> list:
    """d2 of the given admitted rows of ``view``, or None where the row's
    variance matrix is not symmetric positive definite or is singular to
    the solve.

    The PD verdicts are the view's one stacked screen, and the distances of
    the rows that pass it come from one stacked solve.
    """
    out: list = [None] * len(rows)
    if not len(rows):
        return out
    pd, sym = view.screen
    ok = np.flatnonzero(pd[rows])
    if not ok.size:
        return out
    idx = rows[ok]
    sols, errors = _solve_each(sym[idx], diffs[idx])
    d2s = _distances(_float_sizes(view)[idx], diffs[idx], sols).tolist()
    for k, (j, d2) in enumerate(zip(ok.tolist(), d2s)):
        if k not in errors:
            out[j] = d2
    return out


def _float_sizes(view: RoundView) -> np.ndarray:
    """``float(n_k)`` of every row, the conversion of ``n_k * q``."""
    return np.array([float(n) for n in view.n_k])


def mahalanobis_d1(est: LocalEstimate, theta_hat, sigma_hat) -> float:
    """Distance of the transmitted estimate from the aggregate, standardized
    by the (robust) aggregated variance: sqrt{n_k (t - th)^T Sigma^{-1} (t - th)}.

    The one-server call of detection's step 1; ``sigma_hat`` must pass
    ``numkit.require_pd``, as in :func:`detect`, and may be a
    ``numkit.PDMatrix``.
    """
    theta_hat = np.asarray(theta_hat, dtype=float).ravel()
    if theta_hat.size != est.p:
        raise DimensionError("theta_hat dimension does not match the estimate")
    view = round_view([est])
    d1 = _step1(view, view.thetas - theta_hat, sigma_hat)[0]
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
    view = round_view([est])
    return _step2(view, view.thetas - theta_hat, np.arange(1))[0]


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
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    theta_hat = np.asarray(theta_hat, dtype=float).ravel()
    p = theta_hat.size
    view = round_view(estimates, p)
    threshold = math.sqrt(float(special.chdtri(p, alpha)))

    diffs = view.thetas - theta_hat
    d1s = _step1(view, diffs, sigma_hat)
    # Step 2 runs only for servers that step 1 neither failed nor flagged.
    # A non-finite d1 (a payload with an infinite or NaN coordinate) fails
    # ``d1 <= threshold`` and so is flagged.
    passed = np.array(
        [i for i, d1 in enumerate(d1s) if not isinstance(d1, Exception) and d1 <= threshold],
        dtype=np.intp,
    )
    d2s = dict(zip(passed.tolist(), _step2(view, diffs, passed)))

    records = []
    row = 0
    for e in view.members:
        if e.p != p:
            records.append(_error_record(e, "theta_hat dimension does not match the estimate"))
            continue
        d1 = d1s[row]
        d2 = d2s.get(row)
        row += 1
        if isinstance(d1, Exception):
            records.append(_error_record(e, str(d1)))
            continue
        theta_flagged = not d1 <= threshold
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


def _error_record(e: LocalEstimate, error: str) -> ServerDetection:
    """The report row of a server whose distances could not be computed."""
    return ServerDetection(
        server_id=e.server_id,
        n_k=e.n_k,
        d1=None,
        d2=None,
        theta_flagged=False,
        sigma_flagged=False,
        error=error,
    )

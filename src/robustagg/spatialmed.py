"""Weighted spatial median and its application to variance-matrix aggregation.

The spatial median of points x_1..x_K with weights w_k minimizes
``sum_k w_k ||x_k - eta||_2``.  It always lies in the convex hull of the
points, which is what guarantees positive definiteness when the points are
half-vectorized positive definite matrices: any convex combination of PD
matrices is PD.

The solver is a Weiszfeld iteration with the Vardi-Zhang correction for
iterates that land on (or within 1e-12 of) a data point, where the plain
update is undefined.  Exact duplicate points are merged up front so the
anchor test sees their combined weight.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NonConvergenceError, NumericalError
from . import numkit
from .aggregate import round_view

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 500

_ANCHOR_ATOL = 1e-12


@dataclass
class SpatialMedianResult:
    eta: np.ndarray
    iterations: int
    objective: float
    anchored: bool


def weighted_median(values, weights):
    """Lower weighted median: smallest v with cumulative weight >= half.

    ``values`` is K numbers, or a ``(K, d)`` array whose d columns share
    the K ``weights`` and are sorted and summed in one call each, one
    median per column (each the bits of its own 1-D call).
    """
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    order = np.argsort(values, axis=0, kind="stable")
    cum = np.cumsum(weights[order], axis=0)
    half = cum[-1] / 2.0
    # Where half falls in the ascending cum, as searchsorted finds it.
    idx = np.minimum((cum < half).sum(axis=0), values.shape[0] - 1)
    median = np.take_along_axis(values, np.take_along_axis(order, idx[None], axis=0), axis=0)[0]
    return float(median) if values.ndim == 1 else median


def _norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of ``a``.

    ``np.linalg.norm`` squares the entries, so a finite row with an entry
    beyond ~1.3e154 would get norm inf.  Only such rows are divided by their
    largest magnitude before squaring; every other row keeps numpy's bits.
    """
    norms = np.linalg.norm(a, axis=1)
    over = np.isinf(norms)
    if over.any():
        over &= np.isfinite(a).all(axis=1)
        big = np.abs(a[over]).max(axis=1)
        norms[over] = big * np.linalg.norm(a[over] / big[:, None], axis=1)
    return norms


def _objective(x: np.ndarray, w: np.ndarray, eta: np.ndarray) -> float:
    dist = _norms(x - eta)
    return math.fsum((w * dist).tolist())


def _rounding_floor(x: np.ndarray, w: np.ndarray, eta: np.ndarray) -> float:
    """Rounding error of the first-order residual ``sum_k w_k u_k`` at ``eta``.

    Each difference ``x_k - eta`` carries an error of about
    ``eps * (||x_k|| + ||eta||)``, which its unit vector ``u_k`` inherits
    divided by ``||x_k - eta||``.  A residual below the weighted sum of those
    errors cannot be told from zero in double precision.
    """
    eps = np.finfo(float).eps
    dist = _norms(x - eta)
    spread = _norms(x) + np.linalg.norm(eta)
    return eps * float(np.sum(w * spread / dist))


def _first_order(x: np.ndarray, w: np.ndarray, scale: np.ndarray, eta: np.ndarray):
    """``(diff, dist, residual)`` at ``eta``, or None when ``eta`` sits on a
    data point (within the anchor tolerance), where the residual is undefined."""
    diff = x - eta
    dist = _norms(diff)
    if (dist <= _ANCHOR_ATOL * scale).any():
        return None
    return diff, dist, (w / dist) @ diff


def _pull(x: np.ndarray, w: np.ndarray, j: int):
    """``(diff, dist, pull)`` at data point ``j``: the other points'
    differences from it, their distances, and their pull
    ``sum_{i != j} w_i u_i``."""
    others = np.arange(x.shape[0]) != j
    diff = x[others] - x[j]
    dist = _norms(diff)
    return diff, dist, (w[others] / dist) @ diff


# The Newton steps _settle may take from Weiszfeld's best iterate.
_NEWTON_STEPS = 5


def _newton_path(x: np.ndarray, w: np.ndarray, scale: np.ndarray, eta: np.ndarray, first):
    """Newton's iterates for the objective from ``eta``, whose first-order
    terms are ``first``: yields each iterate and whether its residual is
    within ``max(DEFAULT_TOL, floor)``, its rounding floor, and stops at a
    singular Hessian or at an iterate on a data point.

    The Hessian is ``sum_k (w_k / d_k) (I - u_k u_k^T)``, which scales each
    direction by its own curvature where the Weiszfeld step length,
    ``1 / sum_k w_k / d_k``, is set by the nearest point."""
    while True:
        diff, dist, foc = first
        inv = w / dist
        u = diff / dist[:, None]
        hess = inv.sum() * np.eye(eta.size) - (u * inv[:, None]).T @ u
        try:
            eta = eta + np.linalg.solve(hess, foc)
        except np.linalg.LinAlgError:
            return
        first = _first_order(x, w, scale, eta)
        if first is None:
            return
        yield eta, float(np.linalg.norm(first[2])) <= max(DEFAULT_TOL, _rounding_floor(x, w, eta))


def _settle(
    x: np.ndarray, w: np.ndarray, scale: np.ndarray, eta: np.ndarray, j: int
) -> tuple[np.ndarray, bool] | None:
    """What the iteration settles to at its cap: ``(eta, anchored)``, or None.

    First Weiszfeld's best iterate ``eta``: it is returned, unanchored, if
    its residual is within the rounding floor, or else one Newton step from
    it (:func:`_newton_path`) if that step converged.  The Newton step
    serves the case where the optimum sits just off a data point, where the
    Weiszfeld iterates crawl along the direction to that point.

    Failing both, data point ``j``, the one nearest the last iterate.  The
    point is optimal when the pull of the others, ``sum_{i != j} w_i u_i``,
    is no longer than its weight.  At the middle points of an even count of
    equal weights on one line (every p = 1 study) the two are equal in exact
    arithmetic; rounding can make the pull the longer, so the loop's anchor
    test rejects the point, and the Vardi-Zhang step, damped by
    ``w_j / |pull|`` ~ 1, stays on it.  Here the pull may exceed the weight
    by its rounding floor, :func:`_rounding_floor` at ``x_j`` over the other
    points.  When the pull is within that floor of the weight, the optimum
    may be the whole segment from ``x_j`` to the nearest point ahead along
    the pull; its midpoint is returned, unanchored as for two points of
    equal weight, if its own residual is within its rounding floor.
    Otherwise ``x_j`` is returned, anchored.

    When the point is not optimal either, the Newton path goes on from its
    first step, up to ``_NEWTON_STEPS`` steps in all, and the first step
    that converged is returned, unanchored: one step reaches the tolerance
    only from an iterate already close to the optimum, and a few more carry
    one that is not yet.  Failing that, None: a run that has really not
    converged still raises.
    """
    path = iter(())
    first = _first_order(x, w, scale, eta)
    if first is not None:
        if float(np.linalg.norm(first[2])) <= _rounding_floor(x, w, eta):
            return eta, False
        path = _newton_path(x, w, scale, eta, first)
        for cand, converged in itertools.islice(path, 1):
            if converged:
                return cand, False

    diff, dist, pull = _pull(x, w, j)
    others = np.arange(x.shape[0]) != j
    excess = float(np.linalg.norm(pull)) - w[j]
    floor = _rounding_floor(x[others], w[others], x[j])
    if excess > floor:
        for cand, converged in itertools.islice(path, _NEWTON_STEPS - 1):
            if converged:
                return cand, False
        return None
    ahead = diff @ pull > 0.0
    if excess >= -floor and ahead.any():
        mid = (x[j] + x[others][ahead][np.argmin(dist[ahead])]) / 2.0
        first = _first_order(x, w, scale, mid)
        if first is not None and float(np.linalg.norm(first[2])) <= _rounding_floor(x, w, mid):
            return mid, False
    return x[j].copy(), True


@np.errstate(over="ignore", invalid="ignore")
def _merge_duplicates(x: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Collapse exactly equal rows, summing their weights.

    Rows equal entry by entry (``-0.0 == 0.0``, as ``np.unique`` compares)
    have equal projections ``sum_j x_ij r_j`` on the fixed direction
    ``r_j = sqrt(j + 2)``, since the products and their sum are the same
    IEEE operations on equal values.  So when every projection is finite
    and no two are equal, no two rows are, and ``(x, w)`` come back as
    they are; only a possible duplicate, or a projection that overflowed,
    goes to ``np.unique``.
    """
    proj = np.add.reduce(x * np.sqrt(np.arange(2.0, x.shape[1] + 2.0)), axis=1)
    ordered = np.sort(proj)
    if np.isfinite(ordered).all() and (ordered[1:] != ordered[:-1]).all():
        return x, w
    uniq, inverse = np.unique(x, axis=0, return_inverse=True)
    if uniq.shape[0] == x.shape[0]:
        return x, w
    merged_w = np.zeros(uniq.shape[0])
    np.add.at(merged_w, inverse, w)
    return uniq, merged_w


# A point beyond ~1.3e154 overflows numpy's norm, which _norms then
# recomputes, and may make the objective, a rounding floor or the sign test
# of a tie segment overflow to inf, which is their value; none of it is an
# error to warn of.
@np.errstate(over="ignore")
def spatial_median(points, weights) -> SpatialMedianResult:
    """Minimize the weighted sum of Euclidean distances to the given points.

    ``points`` is a ``(K, d)`` array of finite point coordinates, one row
    per point, with their ``weights``, K positive finite numbers.
    Exact duplicate points are merged first, summing their weights.

    The result leaves by one of these exits:

    * K <= 2 after merging, in closed form with 0 iterations: two points of
      equal weight give their midpoint, unanchored (every point of the
      segment is optimal); otherwise the heaviest point, anchored.
    * Converged, unanchored: the weighted sum of unit vectors toward the
      points has norm <= ``DEFAULT_TOL``.
    * Anchored on a data point whose weight dominates the pull of all the
      others (the subgradient condition for an optimum there).
    * At ``DEFAULT_MAX_ITER`` iterations, settled by :func:`_settle`: the
      best iterate if its residual is within the rounding floor of the
      unit-vector sum (see :func:`_rounding_floor`), which for far-apart
      points can exceed ``DEFAULT_TOL``; else one Newton step from it; else
      the data point nearest the last iterate, anchored, or the midpoint of
      a tie segment from it, unanchored.  When that point is not optimal
      either, Newton steps go on from the first, up to ``_NEWTON_STEPS`` in
      all, and the first within ``max(DEFAULT_TOL, floor)`` is returned,
      unanchored.  Otherwise :class:`NonConvergenceError` is raised with
      the best iterate.
    """
    x_all = np.asarray(points, dtype=float)
    w_all = np.asarray(weights, dtype=float)
    if x_all.ndim != 2 or w_all.shape != x_all.shape[:1]:
        raise DimensionError(
            f"points of shape {x_all.shape} and weights of shape {w_all.shape} do not align"
        )
    if not x_all.shape[0]:
        raise ValueError("at least one point is required")
    if not ((w_all > 0.0).all() and np.isfinite(w_all).all()):
        raise ValueError("weight must be positive and finite")
    if not np.isfinite(x_all).all():
        raise ValueError("point coordinates must be finite")
    x, w = _merge_duplicates(x_all, w_all)
    k = x.shape[0]
    iterations = 0

    def done(eta: np.ndarray, anchored: bool) -> SpatialMedianResult:
        return SpatialMedianResult(
            eta=eta, iterations=iterations, objective=_objective(x, w, eta), anchored=anchored
        )

    if k <= 2:
        # The heavier of two points is optimal: its weight bounds the pull
        # of the other.  With equal weights the whole segment is.
        if k == 2 and w[0] == w[1]:
            return done((x[0] + x[1]) / 2.0, False)
        return done(x[int(np.argmax(w))].copy(), True)

    scale = np.maximum(1.0, _norms(x))
    eta = weighted_median(x, w)
    best_eta, best_foc = eta.copy(), math.inf
    prev_delta = None
    rejected = set()  # data points whose anchor test failed
    while True:
        diff = x - eta
        dist = _norms(diff)
        nearest = int(np.argmin(dist / scale))
        # Subgradient optimality at the nearest data point: the pull of all
        # the other points must not exceed its own weight.  The condition is
        # sufficient for global optimality, so it may be tested at any time.
        # It depends on the point alone, so a point that failed it once is
        # not tested again.
        if nearest not in rejected:
            if float(np.linalg.norm(_pull(x, w, nearest)[2])) <= w[nearest]:
                return done(x[nearest].copy(), True)
            rejected.add(nearest)
        coincident = dist <= _ANCHOR_ATOL * scale

        if coincident.any():
            # The iterate sits on a data point that is not the optimum;
            # Vardi-Zhang moves off it, damped by the point's weight.
            j = int(np.argmin(dist))
            others = np.arange(k) != j
            pull = (w[others] / dist[others]) @ diff[others]
            pull_norm = float(np.linalg.norm(pull))
            t_plain = (w[others] / dist[others]) @ x[others] / np.sum(w[others] / dist[others])
            r = w[j] / pull_norm
            eta_new = (1.0 - r) * t_plain + r * eta
            prev_delta = None
        else:
            inv = w / dist
            foc = inv @ diff
            foc_norm = float(np.linalg.norm(foc))
            if foc_norm < best_foc:
                best_eta, best_foc = eta.copy(), foc_norm
            if foc_norm <= DEFAULT_TOL:
                return done(eta, False)
            eta_new = (inv @ x) / inv.sum()
            # The plain iteration converges only linearly, with rate close to
            # one when the optimum sits just off a data point.  Successive
            # steps are then nearly collinear with a stable contraction
            # factor, so an Aitken jump to the geometric-series limit cuts
            # through the crawl; it is accepted only if it does not increase
            # the objective.
            delta = eta_new - eta
            if prev_delta is not None:
                dn = float(np.linalg.norm(delta))
                pn = float(np.linalg.norm(prev_delta))
                if dn > 0.0 and pn > 0.0:
                    cos = float(delta @ prev_delta) / (dn * pn)
                    rho = dn / pn
                    if cos > 0.99 and 0.2 < rho < 0.9999:
                        cand = eta_new + delta * (rho / (1.0 - rho))
                        if _objective(x, w, cand) <= _objective(x, w, eta_new):
                            eta_new = cand
                            delta = None
            prev_delta = delta

        if iterations >= DEFAULT_MAX_ITER:
            settled = _settle(x, w, scale, best_eta, nearest)
            if settled is not None:
                return done(*settled)
            raise NonConvergenceError(
                f"spatial median did not converge in {DEFAULT_MAX_ITER} iterations",
                best=best_eta,
                residual=best_foc,
            )
        eta = eta_new
        iterations += 1


def aggregate_sigma(estimates) -> numkit.PDMatrix:
    """Robustly aggregate the transmitted variance matrices.

    A matrix with a non-finite entry cannot be repaired and is left out
    (detection sigma-flags it, since it fails the PD screen).  Any other
    received matrix that is asymmetric or not positive definite is first
    repaired by symmetrizing and clipping its eigenvalues at
    ``numkit.PD_EPSILON``; a repair that is not finite (entries near the
    largest double) is left out too.  If no finite matrix remains,
    :class:`NumericalError` is raised.  The half-vectorized matrices are
    then combined by the weighted spatial
    median (weights sqrt(n_k)) and the result is rebuilt.  Because every
    input to the median is PD and the median lies in their convex hull, the
    output is PD; ``numkit.require_pd``, the test the Huber aggregate and
    detection apply to it, checks that and raises
    :class:`NotPositiveDefiniteError` if rounding broke it.

    Returns that check's ``numkit.PDMatrix``: the rebuilt matrix as
    ``.sym`` (it is exactly symmetric, so these are its own bits) with its
    eigenpairs, which the Huber aggregate and detection then use without
    decomposing the matrix again.
    """
    view = round_view(estimates)
    finite = np.flatnonzero(np.isfinite(view.sigmas).all(axis=(1, 2)))
    pd, sym = view.screen
    # vech of every finite matrix at once; the others are repaired first.
    # A repair near the largest double overflows, and is left out below.
    vechs = numkit.vech_stack(sym[finite])
    with np.errstate(over="ignore"):
        for k in np.flatnonzero(~pd[finite]):
            vechs[k] = numkit.vech_stack(numkit.pd_project(view.sigmas[finite[k]]))
    kept = np.flatnonzero(np.isfinite(vechs).all(axis=1))
    if not kept.size:
        raise NumericalError("no variance matrix with finite entries to aggregate")

    result = spatial_median(vechs[kept], view.sqrt_n[finite[kept]])
    return numkit.require_pd(numkit.vech_inv(result.eta, view.p), view.p)

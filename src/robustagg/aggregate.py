"""Central-processor aggregation of local estimates.

Two aggregators live here.  The weighted average combines the received
estimates with weights n_k / N.  The robust alternative solves

    sum_k (n_k / N) n_k^{-1/2} psi_c{ Sigma^{-1/2} sqrt(n_k) (theta_k - theta) } = 0

where psi_c clips each whitened coordinate at +-c, so that no single server
can drag the solution arbitrarily far.  With c = infinity the clipping is
inactive and the solution coincides with the weighted average.

The accompanying efficiency constant tau_c = b_c^2 / sigma_c^2 (with
b_c = P(|Z| <= c) and sigma_c^2 = E psi_c(Z)^2 for standard normal Z) gives
the asymptotic relative efficiency of the clipped aggregate versus the
weighted average; it increases from 2/pi to 1 as c grows.

A round is one :class:`RoundView` from ``contaminate`` through the wire
codec to the central stages (``aggregate_sigma``, :func:`huber_aggregate`,
:func:`weighted_average` and ``detect``), which read it in server order:
as it arrives when it already is, sorted and stacked once when it is not.
Which servers a round admits is decided once, by :func:`admit`: those of
one dimension are its rows, and every other server is on its ``rejected``
list.  Its PD screen is run once.  Each stage also takes a plain iterable of
estimates and builds the same view from it.  The stacked forms keep the
bits of the per-server loops they replaced; README.md (Reproducibility)
records how that was measured.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, NonConvergenceError, NumericalError
from . import numkit

DEFAULT_HUBER_C = 1.345
DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 200

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class LocalEstimate:
    """The payload one server transmits: its estimate and variance matrix.

    ``sigma_star`` is whatever arrived at the central processor; it need not
    be symmetric or positive definite if the server (or the channel) is
    contaminated.
    """

    server_id: int | str
    n_k: int
    theta_star: np.ndarray
    sigma_star: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "theta_star", np.array(self.theta_star, dtype=float).ravel()
        )
        object.__setattr__(
            self, "sigma_star", np.array(self.sigma_star, dtype=float)
        )
        if self.n_k < 1:
            raise ValueError("n_k must be >= 1")
        p = self.theta_star.size
        if self.sigma_star.shape != (p, p):
            raise DimensionError(
                f"sigma_star has shape {self.sigma_star.shape}, expected ({p}, {p})"
            )
        self.theta_star.flags.writeable = False
        self.sigma_star.flags.writeable = False

    @property
    def p(self) -> int:
        return self.theta_star.size


def server_positions(server_ids) -> list[int]:
    """The positions of ``server_ids`` in server order: integer ids
    ascending, then string ids ascending; equal ids keep their order."""
    keys = [(isinstance(sid, str), sid) for sid in server_ids]
    return sorted(range(len(keys)), key=keys.__getitem__)


@dataclass
class AggregationResult:
    theta_hat: np.ndarray
    tau: float
    se: np.ndarray
    iterations: int
    residual_norm: float


def tau_c(c: float) -> float:
    """Asymptotic relative efficiency of the clipped aggregate.

    Closed form: b_c = erf(c / sqrt 2), sigma_c^2 = b_c - 2 c phi(c)
    + c^2 (1 - b_c), tau = b_c^2 / sigma_c^2.  The quadrature identity
    behind the middle term is verified against direct numerical integration
    in the test suite.  tau(inf) = 1 by convention (no clipping); a finite
    c far enough out (above ~38) gives 1 as well.  Below c = 1e-2 the two
    quotients of tau = (b_c / c)^2 / (sigma_c^2 / c^2) are summed as series,
    which stay within 1e-13 relative down to the smallest double.

    This is the one rule for c: a c that is not > 0 (0, -inf or NaN)
    raises ``ValueError``, and every caller that takes a c calls this.
    """
    if not c > 0.0:
        raise ValueError("tuning constant c must be positive")
    if math.isinf(c):
        return 1.0
    if c < 1e-2:
        # Here b - 2 c phi(c) cancels and b * b underflows, so the closed
        # form loses about eps / c.  tau = (b / c)^2 / ((b - 2 c phi(c)) / c^2
        # + 1 - b), both quotients by their alternating series in z = -c^2 / 2
        # (the omitted terms are below 1e-20 of the sums); the limit is 2/pi.
        terms = [(-0.5 * c * c) ** k / math.factorial(k) for k in range(5)]
        b_by_c = math.sqrt(2.0 / math.pi) * sum(t / (2 * k + 1) for k, t in enumerate(terms))
        gap_by_c2 = math.sqrt(2.0 / math.pi) * c * sum(t / (2 * k + 3) for k, t in enumerate(terms))
        return b_by_c * b_by_c / (gap_by_c2 + 1.0 - c * b_by_c)
    b = math.erf(c / math.sqrt(2.0))
    pdf_c = _INV_SQRT_2PI * math.exp(-0.5 * c * c)  # standard normal density
    # Far out the density underflows to 0 and b rounds to 1; the terms they
    # zero are then left out, since 2 c or c * c may be inf.
    sigma2 = b
    if pdf_c > 0.0:
        sigma2 -= 2.0 * c * pdf_c
    if b < 1.0:
        sigma2 += c * c * (1.0 - b)
    return b * b / sigma2


class Rejected(NamedTuple):
    """A server a round leaves out: its place in the round's server order,
    its claimed id, its ``n_k`` and why it was left out."""

    position: int
    server_id: int | str
    n_k: int
    error: str


# Why :func:`admit` leaves a server out.
OTHER_DIMENSION = "theta_hat dimension does not match the estimate"
REPEATED_ID = "server id is sent by more than one server"


@dataclass(frozen=True, eq=False)
class RoundView:
    """One round: the ids, sizes, ``(K, p)`` estimates and ``(K, p, p)``
    variance matrices of the servers it admits, one row each, in one order,
    and ``rejected``, the servers it leaves out, in server order.

    The round travels in this form from ``contaminate`` through the wire
    codec to the central stages, which read the arrays instead of sorting,
    stacking and checking K estimates each time.  The constructor checks
    that the rows align, that every ``n_k >= 1`` and that the total size N
    is at most the largest double, and makes the arrays read-only.  Its
    members are :class:`LocalEstimate` views of the rows, made when first
    asked for.  Only :func:`admit` leaves servers out; every other round
    has no ``rejected``.
    """

    server_ids: tuple
    n_k: tuple
    thetas: np.ndarray  # (K, p)
    sigmas: np.ndarray  # (K, p, p)
    rejected: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "server_ids", tuple(self.server_ids))
        object.__setattr__(self, "n_k", tuple(self.n_k))
        k, p = self.thetas.shape
        if self.sigmas.shape != (k, p, p) or len(self.server_ids) != k or len(self.n_k) != k:
            raise DimensionError(
                f"{len(self.server_ids)} ids, {len(self.n_k)} sizes, estimates of shape "
                f"{self.thetas.shape} and variance matrices of shape {self.sigmas.shape} do not align"
            )
        if k and min(self.n_k) < 1:
            raise ValueError("n_k must be >= 1")
        # N enters sqrt(n_k) and N * tau as a double.
        if self.n_total > sys.float_info.max:
            raise ValueError("total size N must be at most the largest double")
        self.thetas.flags.writeable = False
        self.sigmas.flags.writeable = False

    @property
    def p(self) -> int:
        return self.thetas.shape[1]

    def __len__(self) -> int:
        return len(self.n_k)

    def __iter__(self):
        return iter(self.members)

    def __getitem__(self, i):
        return self.members[i]

    @functools.cached_property
    def members(self) -> tuple:
        """The estimate of every row, in round order."""
        rows = zip(self.server_ids, self.n_k, list(self.thetas), list(self.sigmas))
        return tuple(_row_estimate(*row) for row in rows)

    @functools.cached_property
    def ordered(self) -> bool:
        """Whether the rows are in server order, each id once."""
        ids = self.server_ids
        return server_positions(ids) == list(range(len(ids))) and len(set(ids)) == len(ids)

    @functools.cached_property
    def n_total(self) -> int:
        return sum(self.n_k)

    @functools.cached_property
    def sqrt_n(self) -> np.ndarray:
        """``math.sqrt(n_k)`` of every row."""
        return np.array([math.sqrt(n) for n in self.n_k])

    @functools.cached_property
    def screen(self) -> tuple[np.ndarray, np.ndarray]:
        """``numkit.screen_positive_definite`` of ``sigmas``, run once.

        Its stacked ``eigh`` gives every matrix the bits of its own call, so
        its verdicts serve any subset of the rows."""
        return numkit.screen_positive_definite(self.sigmas)


def _row_estimate(server_id, n_k, theta, sigma) -> LocalEstimate:
    """The :class:`LocalEstimate` of one checked, read-only row, holding
    views of it instead of the copies the constructor makes."""
    est = object.__new__(LocalEstimate)
    # Frozen: the fields go into the instance dict, as __init__ sets them.
    vars(est).update(server_id=server_id, n_k=n_k, theta_star=theta, sigma_star=sigma)
    return est


def _stacked(rows, p: int, rejected=()) -> RoundView:
    """The :class:`RoundView` of ``rows``, estimates of dimension ``p``, in
    the order given."""
    k = len(rows)
    return RoundView(
        [e.server_id for e in rows],
        [e.n_k for e in rows],
        np.array([e.theta_star for e in rows], dtype=float).reshape(k, p),
        np.array([e.sigma_star for e in rows], dtype=float).reshape(k, p, p),
        rejected,
    )


def listed_round(estimates) -> RoundView:
    """The :class:`RoundView` of ``estimates``, all of one dimension, in
    the order given."""
    rows = tuple(estimates)
    return _stacked(rows, rows[0].p if rows else 0)


def round_view(estimates) -> RoundView:
    """The :class:`RoundView` of ``estimates`` in server order, returned as
    it is if it already is one in server order with distinct ids.  Estimates
    not yet in a view must be at least one, of one dimension and with
    distinct ids: one that :func:`admit` would leave out raises its reason,
    ``ValueError`` for a repeated id and :class:`DimensionError` for
    another dimension."""
    view = admit(estimates)
    if view.rejected and view is not estimates:
        first = view.rejected[0]
        if first.error == REPEATED_ID:
            raise ValueError(f"server {first.server_id!r}: {REPEATED_ID}")
        raise DimensionError("local estimates disagree on parameter dimension")
    return view


def admit(received, p: int | None = None) -> RoundView:
    """The receive rule: the round of ``received`` (a :class:`RoundView`, or
    estimates in any order) that the central stages read.

    Every copy of an id that more than one server sends is left out, on
    ``rejected`` with its place in server order and :data:`REPEATED_ID`: a
    forger can silence the id it copies, but cannot displace or join that
    server.  The other rows are the servers of dimension ``p``, in server
    order; every other server is left out, on ``rejected`` with
    :data:`OTHER_DIMENSION`.  With ``p`` None it is the dimension a strict
    majority of the servers with their own ids sends, and without one
    :class:`DimensionError` is raised (the processor's rule); detection
    passes theta-hat's.  There must be at least one server.  A view in
    server order with distinct ids that already is such a round is returned
    as it is.
    """
    if isinstance(received, RoundView):
        if received.ordered and p in (None, received.p) and (len(received) or received.rejected):
            return received
        if received.rejected:
            raise DimensionError(f"the round was admitted for dimension {received.p}")
    received = list(received)
    members = [received[i] for i in server_positions(e.server_id for e in received)]
    if not members:
        raise ValueError("at least one local estimate is required")
    copies = Counter(e.server_id for e in members)
    if p is None:
        dims = [e.p for e in members if copies[e.server_id] == 1]
        p = max(set(dims), key=dims.count, default=None)
        if 2 * dims.count(p) <= len(dims):
            raise DimensionError("local estimates disagree on parameter dimension")
    reasons = [REPEATED_ID if copies[e.server_id] > 1 else OTHER_DIMENSION if e.p != p else None for e in members]
    rejected = [Rejected(i, e.server_id, e.n_k, r) for i, (e, r) in enumerate(zip(members, reasons)) if r]
    return _stacked([e for e, r in zip(members, reasons) if r is None], p, tuple(rejected))


def weighted_average(estimates) -> tuple[np.ndarray, np.ndarray]:
    """Convex combination of estimates (and variance matrices) with weights n_k/N.

    Returns ``(theta_bar, sigma_bar)``.  Each sum adds one weighted row at
    a time in server-id order, as a loop of ``+=`` from zero would, so the
    result does not depend on the order estimates arrive.
    """
    view = round_view(estimates)
    w = np.array([n / view.n_total for n in view.n_k])
    theta = np.add.accumulate(w[:, None] * view.thetas, axis=0)[-1] + 0.0
    sigma = np.add.accumulate(w[:, None, None] * view.sigmas, axis=0)[-1] + 0.0
    return theta, sigma


def standard_errors(sigma, n_total: int, tau: float) -> np.ndarray:
    """Per-coefficient standard errors sqrt(Sigma_jj / (N * tau)).

    A negative or zero diagonal entry raises ``ValueError``; a NaN one does
    not (it compares false) and gives a NaN standard error.  That is the
    intended outcome for the weighted average, which is the naive
    comparator: like a NaN estimate, a NaN variance propagates into it.
    """
    sigma = np.asarray(sigma, dtype=float)
    if n_total < 1:
        raise ValueError("N must be >= 1")
    if not 0.0 < tau <= 1.0:
        raise ValueError("tau must lie in (0, 1]")
    diag = np.diagonal(sigma).copy()
    if (diag <= 0.0).any():
        raise ValueError("variance matrix has a nonpositive diagonal entry")
    return np.sqrt(diag / (n_total * tau))


def huber_aggregate(estimates, sigma_hat, c: float = DEFAULT_HUBER_C) -> AggregationResult:
    """Solve the clipped, whitened estimating equations for the combined estimate.

    ``c`` is the tuning constant, checked by :func:`tau_c` before anything
    else (``math.inf`` clips nothing, and the same iteration then solves
    for the weighted average, up to rounding);
    the Newton iteration stops at residual ``DEFAULT_TOL`` and raises
    :class:`NonConvergenceError` after ``DEFAULT_MAX_ITER`` iterations.

    Uses damped Newton steps on the piecewise-linear estimating function;
    the Jacobian on the current linearity piece is -diag(s) W where W is the
    whitening matrix and s_j the total weight of servers whose j-th whitened
    coordinate is unclipped.  When a coordinate is clipped for every server
    the Jacobian is singular and a damped fixed-point step
    theta <- theta + t * Sigma^{1/2} residual is taken instead.  Iteration
    starts from the coordinate-wise median of the received estimates so the
    start point cannot be hijacked by contaminated servers.

    A server whose estimate has a non-finite entry is left out, as
    ``aggregate_sigma`` leaves out a non-finite variance matrix (detection
    flags it, since its d1 is not finite); if no server is left,
    :class:`NumericalError` is raised.

    ``sigma_hat`` must pass ``numkit.require_pd`` for the round's dimension
    p, the rule detection applies to it too: a wrong shape raises
    :class:`DimensionError`; a non-finite entry, an asymmetry beyond
    ``numkit.SYM_RTOL`` or an eigenvalue that is not > 0 raises
    :class:`NotPositiveDefiniteError`.  It is decomposed at most once per
    call, and not at all when it is a ``numkit.PDMatrix``, the checked form
    ``require_pd`` and ``aggregate_sigma`` return.
    """
    tau = tau_c(c)
    view = round_view(estimates)
    finite = np.isfinite(view.thetas).all(axis=1)
    if not finite.any():
        raise NumericalError("no estimate with finite entries to aggregate")
    n_k = [n for n, ok in zip(view.n_k, finite.tolist()) if ok]
    n_total = sum(n_k)

    sigma = numkit.require_pd(sigma_hat, view.p)
    color, whiten = sigma.roots()
    thetas = view.thetas[finite]                      # (K, p)
    roots = view.sqrt_n[finite]                       # sqrt(n_k)
    shares = np.array([n / n_total for n in n_k])     # n_k / N

    def residual(theta):
        u = (thetas - theta) @ whiten.T * roots[:, None]
        clipped = np.clip(u, -c, c)
        f = (shares / roots) @ clipped
        inside = np.abs(u) <= c
        return f, inside

    theta = np.median(thetas, axis=0)
    f, inside = residual(theta)
    res = float(np.linalg.norm(f))
    iterations = 0

    while res > DEFAULT_TOL:
        if iterations >= DEFAULT_MAX_ITER:
            raise NonConvergenceError(
                f"robust aggregation did not converge in {DEFAULT_MAX_ITER} iterations",
                best=theta,
                residual=res,
            )
        s = shares @ inside  # per-coordinate unclipped weight
        if s.min() > 1e-14:
            # Newton step on the current piece: J = -diag(s) W.
            step = color @ (f / s)
        else:
            # Every server clipped in some coordinate: damped fixed point.
            step = color @ f
        scale = 1.0
        accepted = False
        for _ in range(60):
            cand = theta + scale * step
            cand_f, cand_inside = residual(cand)
            cand_res = float(np.linalg.norm(cand_f))
            if cand_res < res:
                theta, f, inside, res = cand, cand_f, cand_inside, cand_res
                accepted = True
                break
            scale /= 2.0
        iterations += 1
        if not accepted:
            # Steps are taken only when the residual falls: theta is the best.
            raise NonConvergenceError(
                "robust aggregation stalled (no descent direction found)",
                best=theta,
                residual=res,
            )

    return AggregationResult(
        theta_hat=theta,
        tau=tau,
        se=standard_errors(sigma.sym, n_total, tau),
        iterations=iterations,
        residual_norm=res,
    )

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NonConvergenceError, NotPositiveDefiniteError, NumericalError
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


def server_order(item) -> tuple:
    """Sort key for anything carrying a ``server_id``: integer ids ascending,
    then string ids ascending."""
    return (isinstance(item.server_id, str), item.server_id)


@dataclass
class AggregationResult:
    theta_hat: np.ndarray
    tau: float
    se: np.ndarray
    iterations: int
    residual_norm: float


def huber_psi(u, c: float):
    """Huber clipping function: identity on [-c, c], saturated at +-c outside.

    Accepts scalars or arrays; the boundary |u| = c maps to u itself.
    """
    if not c > 0.0:
        raise ValueError("tuning constant c must be positive")
    if np.isscalar(u):
        return float(min(max(float(u), -c), c))
    return np.clip(np.asarray(u, dtype=float), -c, c)


def tau_c(c: float) -> float:
    """Asymptotic relative efficiency of the clipped aggregate.

    Closed form: b_c = erf(c / sqrt 2), sigma_c^2 = b_c - 2 c phi(c)
    + c^2 (1 - b_c), tau = b_c^2 / sigma_c^2.  The quadrature identity
    behind the middle term is verified against direct numerical integration
    in the test suite.  tau(inf) = 1 by convention (no clipping).
    """
    if math.isinf(c):
        return 1.0
    if not c > 0.0:
        raise ValueError("tuning constant c must be positive")
    b = math.erf(c / math.sqrt(2.0))
    pdf_c = _INV_SQRT_2PI * math.exp(-0.5 * c * c)  # standard normal density
    sigma2 = b - 2.0 * c * pdf_c + c * c * (1.0 - b)
    return b * b / sigma2


def sorted_estimates(estimates) -> list[LocalEstimate]:
    """The estimates in :func:`server_order`, checked to be at least one and
    of one parameter dimension."""
    ests = list(estimates)
    if not ests:
        raise ValueError("at least one local estimate is required")
    p = ests[0].p
    for e in ests:
        if e.p != p:
            raise DimensionError("local estimates disagree on parameter dimension")
    return sorted(ests, key=server_order)


def weighted_average(estimates) -> tuple[np.ndarray, np.ndarray]:
    """Convex combination of estimates (and variance matrices) with weights n_k/N.

    Returns ``(theta_bar, sigma_bar)``.  Accumulation runs in server-id
    order, so the result does not depend on the order estimates arrive.
    """
    ests = sorted_estimates(estimates)
    n_total = sum(e.n_k for e in ests)
    p = ests[0].p
    theta = np.zeros(p)
    sigma = np.zeros((p, p))
    for e in ests:
        w = e.n_k / n_total
        theta += w * e.theta_star
        sigma += w * e.sigma_star
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

    ``c`` is the tuning constant (``math.inf`` clips nothing, and the same
    iteration then solves for the weighted average, up to rounding);
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
    """
    if not c > 0.0:
        raise ValueError("tuning constant c must be positive")
    ests = sorted_estimates(estimates)
    p = ests[0].p
    ests = [e for e in ests if np.isfinite(e.theta_star).all()]
    if not ests:
        raise NumericalError("no estimate with finite entries to aggregate")
    n_total = sum(e.n_k for e in ests)

    sigma_hat = np.asarray(sigma_hat, dtype=float)
    if sigma_hat.shape != (p, p):
        raise DimensionError(f"sigma_hat has shape {sigma_hat.shape}, expected ({p}, {p})")
    if not numkit.is_symmetric(sigma_hat):
        raise NotPositiveDefiniteError(
            "sigma_hat must be symmetric positive definite; apply pd_project first"
        )
    color, whiten = numkit.pd_roots(sigma_hat)
    thetas = np.stack([e.theta_star for e in ests])        # (K, p)
    roots = np.array([math.sqrt(e.n_k) for e in ests])     # sqrt(n_k)
    shares = np.array([e.n_k / n_total for e in ests])     # n_k / N

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

    tau = tau_c(c)
    return AggregationResult(
        theta_hat=theta,
        tau=tau,
        se=standard_errors(sigma_hat, n_total, tau),
        iterations=iterations,
        residual_norm=res,
    )

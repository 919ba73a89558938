"""M-estimation problems (logistic and linear regression) and local fitting.

A local server fits its own shard and reports the estimate together with the
empirical sandwich variance of the estimator.  Observation sequences are held
columnar (response vector plus design matrix) so the criterion, gradient and
Hessian evaluate as vectorized reductions; a slice of an
:class:`Observations` is another one.  So are the fits of a round:
:func:`fit_shards`, the one loop that fits a shard (:func:`fit_local` is
``fit_shards`` of one), writes every stacked pass into the arrays of one
:class:`LocalFits`, whose :class:`LocalFit` rows are made only when read,
and the equal shards of one dataset (:class:`EqualShards`) reach the passes
as views of its arrays.  A shard that cannot be fitted raises its own
error, with its id set as the error's ``server_id``.

Summation discipline: fitting uses single-threaded ``einsum``/``add.reduce``
reductions (deterministic for a fixed observation order), while the sandwich
variance accumulates every entry with exactly rounded summation so the
transmitted matrix is bit-identical under any permutation of the shard.  The
logistic Hessian sums each entry one observation at a time, as the
three-operand ``einsum("i,ij,ik->jk")`` does: a Newton call lays out its
shards' designs once as two C-contiguous ``(K, n, C)`` factors, C = p²
columns (two at p = 1), along which einsum's inner loop runs (see
:func:`_logistic_hessians`).

Every published number depends on these exact bits, so a faster form of a
reduction is acceptable only where it returns the same doubles.  The one
number computed in a faster form with other last bits is the Newton
criterion value, which only decides whether a step is halved: no fit,
sandwich or artifact reads it, and its decisions were shown to be those of
the exact form (see :func:`_logistic_eval`).  README.md (Reproducibility)
records which forms were measured, which are used and why.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import expit

from .errors import (
    DimensionError,
    NonConvergenceError,
    NonFiniteSumError,
    RankDeficiencyError,
    RobustAggError,
    SeparationError,
    SingularMatrixError,
)
from . import numkit

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100

# Iterate growth beyond this multiple of the first Newton step signals that
# the step norms diverge (complete separation).
_DIVERGENCE_RATIO = 1e4

# A fit whose every margin exceeds this classifies each observation with
# probability within ~1e-6 of its label: the likelihood has no interior
# maximizer and the gradient tolerance was reached only through saturation.
_SATURATED_MARGIN = 13.8


# Entries in one stacked pass of fit_shards: per shard, n * (p + p(p+1)/2)
# sandwich products or, where more, the n * p * p entries of each of the two
# Hessian factors a logistic Newton call holds from start to end.  The
# stacked arrays of a pass are a few copies of that many doubles, so this
# bounds the memory a pass adds.  2**16 (512 KiB per stacked array) puts 13
# desk shards (n = 1000, p = 2) or 65 linear ones (n = 50, p = 5) in a pass.
# Once the CLI keeps freed memory in the process (cli._keep_freed_memory) it
# is faster than 2**15; 2**17 slowed the linear passes and raised peak memory.
STACK_ENTRIES = 1 << 16


class ModelKind(Enum):
    LOGISTIC = "logistic"
    LINEAR = "linear"


@dataclass(frozen=True)
class ModelSpec:
    """An M-estimation problem: which criterion, and how many parameters."""

    kind: ModelKind
    p: int

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("parameter dimension p must be >= 1")

    @classmethod
    def logistic(cls, p: int) -> "ModelSpec":
        return cls(ModelKind.LOGISTIC, p)

    @classmethod
    def linear(cls, p: int) -> "ModelSpec":
        return cls(ModelKind.LINEAR, p)


class Observations:
    """Observations (y_i, x_i), stored columnar and immutable.

    Indexing selects rows: a unit-step slice is a read-only view, and any
    other index goes through the checks of the constructor."""

    def __init__(self, y, X):
        y = np.ascontiguousarray(y, dtype=float)
        X = np.ascontiguousarray(X, dtype=float)
        if y.ndim != 1:
            raise DimensionError("y must be one-dimensional")
        if X.ndim != 2:
            raise DimensionError("X must be two-dimensional")
        if X.shape[0] != y.shape[0]:
            raise DimensionError(
                f"y has {y.shape[0]} rows but X has {X.shape[0]}"
            )
        if not (np.isfinite(y).all() and np.isfinite(X).all()):
            raise ValueError("observations must be finite")
        y.flags.writeable = False
        X.flags.writeable = False
        self.y = y
        self.X = X

    @functools.cached_property
    def binary(self) -> bool:
        """True when every response is 0 or 1 (computed once; data are immutable)."""
        return bool(np.isin(self.y, (0.0, 1.0)).all())

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    def __getitem__(self, i):
        if not isinstance(i, slice) or i.step not in (None, 1):
            return Observations(self.y[i], self.X[i])
        # Rows of checked data need no new checks, and a unit-step slice of
        # read-only contiguous arrays is a read-only contiguous view.
        shard = object.__new__(Observations)
        shard.y, shard.X = self.y[i], self.X[i]
        return shard


class EqualShards:
    """The ``n_servers`` contiguous, disjoint, equal-size shards of one
    :class:`Observations`, held as views of its arrays: the ``(K, n, p)``
    design ``X`` and the ``(K, n)`` responses ``y``.

    Shard ``k`` is rows ``k * n`` to ``(k + 1) * n``; indexing by the int
    ``k`` builds its :class:`Observations` view.  :func:`fit_shards` reads the stacked views
    directly, with one check of ``data`` for all the shards.  ``data.n``
    must be a multiple of ``n_servers``.
    """

    def __init__(self, data: Observations, n_servers: int):
        self.data = data
        self.size = data.n // n_servers
        self.X = data.X.reshape(n_servers, self.size, data.p)
        self.y = data.y.reshape(n_servers, self.size)

    def __len__(self) -> int:
        return self.y.shape[0]

    def __getitem__(self, k: int):
        k = range(len(self))[k]
        return self.data[k * self.size : (k + 1) * self.size]


@dataclass(frozen=True)
class LocalFit:
    """One server's fitted estimate and its sandwich variance."""

    theta_hat: np.ndarray
    sigma_hat: np.ndarray
    n_k: int
    server_id: int | str
    newton_iters: int
    grad_norm: float

    def __post_init__(self):
        self.theta_hat.flags.writeable = False
        self.sigma_hat.flags.writeable = False


@dataclass(frozen=True, eq=False)
class LocalFits:
    """The fits of K shards, columnar: ids, sizes, ``(K, p)`` estimates,
    ``(K, p, p)`` sandwich variances, Newton iterations and gradient norms,
    one row per shard in shard order, the arrays read-only.

    A sequence of :class:`LocalFit`: indexing or iterating reads the
    ``LocalFit`` views of the rows, made when first asked for.
    """

    server_ids: tuple
    n_k: tuple
    thetas: np.ndarray  # (K, p)
    sigmas: np.ndarray  # (K, p, p)
    newton_iters: np.ndarray  # (K,) int
    grad_norms: np.ndarray  # (K,)

    def __post_init__(self):
        for array in (self.thetas, self.sigmas, self.newton_iters, self.grad_norms):
            array.flags.writeable = False

    def __len__(self) -> int:
        return len(self.n_k)

    def __iter__(self):
        return iter(self.members)

    def __getitem__(self, i):
        return self.members[i]

    @functools.cached_property
    def members(self) -> tuple:
        """The :class:`LocalFit` of every row, in shard order."""
        rows = zip(
            self.thetas, self.sigmas, self.n_k, self.server_ids,
            self.newton_iters.tolist(), self.grad_norms.tolist(),
        )
        return tuple(LocalFit(*row) for row in rows)


def _check_data(model: ModelSpec, data: Observations) -> None:
    if data.n == 0:
        raise DimensionError("observation sequence is empty")
    if data.p != model.p:
        raise DimensionError(
            f"model expects p={model.p} covariates, data has {data.p}"
        )
    if model.kind is ModelKind.LOGISTIC and not data.binary:
        raise ValueError("logistic responses must be 0 or 1")


def _check_shard(model: ModelSpec, data: Observations, n: int) -> None:
    """The rule a shard of ``n`` rows of ``data`` must pass to be fitted."""
    _check_data(model, data)
    if n < model.p:
        raise DimensionError(f"need at least p={model.p} observations, shard has {n}")


def criterion_eval(model: ModelSpec, data: Observations, theta):
    """Averaged criterion value with its analytic gradient and Hessian.

    Returns ``(value, gradient, hessian)`` of ``n^{-1} sum_i m(Z_i; theta)``.
    Logistic log-likelihood terms are evaluated through ``logaddexp``/``expit``
    so long linear predictors cannot overflow.
    """
    _check_data(model, data)
    theta = np.asarray(theta, dtype=float).ravel()
    if theta.size != model.p:
        raise DimensionError(f"theta has length {theta.size}, expected {model.p}")
    y, X = data.y, data.X
    n = data.n
    eta = X @ theta

    if model.kind is ModelKind.LINEAR:
        resid = y - eta
        value = -float(np.add.reduce(resid * resid)) / n
        grad = 2.0 * np.einsum("i,ij->j", resid, X) / n
        hess = -2.0 * np.einsum("ij,ik->jk", X, X) / n
        return value, grad, numkit.symmetrize(hess)

    _, grad, eta, pi = _logistic_eval(X[None], y[None], theta[None])
    value = float(np.add.reduce(y * eta[0] - np.logaddexp(0.0, eta[0]))) / n
    return value, grad[0], _logistic_hessians(_hessian_factors(X[None]), pi)[0]


def _logistic_eval(X: np.ndarray, y: np.ndarray, thetas: np.ndarray):
    """Logistic criterion values and gradients of K equal-size shards,
    ``(K, n, p)`` designs ``X`` and ``(K, n)`` responses ``y`` at the
    ``(K, p)`` parameters ``thetas``.

    Returns ``(values, grads, eta, pi)``, the last two the linear predictors
    and probabilities.  Every row has the bits of a one-shard call (see the
    module docstring).

    The values only steer the step halving of :func:`_newton`.  Each term
    ``y*eta - log(1 + e^eta)`` is evaluated as ``max(eta, 0) + log1p(e^-|eta|)``
    with numpy's vectorized ``exp`` and ``log1p``, which cannot overflow
    and are ~3 times as fast as ``logaddexp`` but differ from it in the last
    bit of some terms.  :func:`criterion_eval` keeps ``logaddexp``.  Over
    ~287,000 halving decisions on ~36,000 random shards the two values never
    decided differently, and the largest gap between them was 0.066 of the
    distance to the threshold, so the fits keep their bits.
    """
    n = X.shape[1]
    eta = (X @ thetas[..., None])[..., 0]
    pi = expit(eta)
    softplus = np.maximum(eta, 0.0) + np.log1p(np.exp(-np.abs(eta)))
    values = np.add.reduce(y * eta - softplus, axis=-1) / n
    grads = np.einsum("ki,kij->kj", y - pi, X) / n
    return values, grads, eta, pi


def _hessian_factors(X: np.ndarray):
    """The factors :func:`_logistic_hessians` reads for the ``(K, n, p)``
    designs ``X``: two C-contiguous ``(K, n, C)`` arrays whose column
    ``c = j * p + k`` holds ``x_j`` and ``x_k``, so C = p².  At p = 1 each
    holds the column twice (C = 2).
    """
    reps = max(X.shape[-1], 2)
    return np.repeat(X, reps, axis=-1), np.tile(X, reps)


def _logistic_hessians(factors, pi: np.ndarray) -> np.ndarray:
    """Averaged logistic Hessians of K shards with probabilities ``pi``,
    given their :func:`_hessian_factors`.

    Each entry sums its products ``(w * x_j) * x_k`` one at a time in
    observation order from ``+0.0`` (so an all ``-0.0`` sum is ``+0.0``),
    the sums of ``einsum("i,ij,ik->jk", w, X, X)``: einsum's inner loop runs
    along the C contiguous columns and adds one observation's products at a
    time.  Those bits rest on the layout.  With C = 1, or a factor that is
    not C-contiguous, the inner loop runs along the observations, and past
    einsum's 8,192-element buffer the sum is split into chunks with other
    bits; hence the doubled column at p = 1, and an active-set subset must
    index axis 0.  Both (j, k) and (k, j) are summed: they round
    differently and ``symmetrize`` averages them.
    """
    xj, xk = factors
    k, n, width = xj.shape
    p = math.isqrt(width)  # width is p², or 2 at p = 1
    sums = np.einsum("ki,kij,kij->kj", pi * (1.0 - pi), xj, xk)[:, : p * p]
    return numkit.symmetrize(-sums.reshape(k, p, p) / n)


def _outer_rows(cols: np.ndarray) -> np.ndarray:
    """The products ``cols[..., j, :] * cols[..., k, :]`` for ``j <= k``, as
    rows in ``numkit.triu_indices`` order, the ``vech`` order of a symmetric
    matrix.

    ``cols`` holds one coordinate per row, a ``(K, p, n)`` stack of the
    transposed observation vectors, so every product runs over contiguous
    memory; each entry is one product, whatever the layout.
    """
    iu = numkit.triu_indices(cols.shape[-2])
    return cols[..., iu[0], :] * cols[..., iu[1], :]


def _row_means(stack: np.ndarray) -> np.ndarray:
    """Exactly rounded row means of every matrix of a ``(K, m, n)`` stack.

    All K*m rows go to one ``numkit.exact_column_means`` call, which sums
    each on its own, so the means are the bits of one call per matrix.
    """
    k, m, n = stack.shape
    try:
        return numkit.exact_column_means(stack.reshape(k * m, n).T).reshape(k, m)
    except (OverflowError, ValueError) as exc:
        # math.fsum's errors: an exact sum beyond the largest double, or
        # inf - inf among the products.
        raise NonFiniteSumError(
            f"sandwich variance undefined: a sum is inf or beyond the largest double ({exc})"
        ) from None


def _mean_outer(cols: np.ndarray) -> np.ndarray:
    """Exactly rounded mean of the outer products of the observation
    vectors, given one coordinate per row as a ``(K, p, n)`` stack.

    Every entry is the correctly rounded sum of its products (the double
    ``math.fsum`` returns) over n, whatever the order of the observations,
    which makes the result invariant under their permutation.
    """
    return numkit.vech_inv_stack(_row_means(_outer_rows(cols)), cols.shape[-2])


# Products beyond the largest double are inf, and their sums then raise
# NonFiniteSumError; the overflow itself is not worth a warning.
@np.errstate(over="ignore")
def _stacked_sandwich(
    model: ModelSpec, X: np.ndarray, y: np.ndarray, thetas: np.ndarray, allow_singular: bool,
    pi: np.ndarray | None = None,
) -> np.ndarray:
    """:func:`sandwich_variance` of K equal-size shards, ``(K, n, p)``
    designs ``X`` and ``(K, n)`` responses ``y`` at the ``(K, p)`` estimates
    ``thetas``, as one ``(K, p, p)`` stack.

    Every step is a stacked form that returns the bits of one call per shard:
    a stacked ``matmul`` for the linear predictor, elementwise products,
    three :func:`_row_means` calls over all shards' sums and two stacked
    ``solve`` calls.  Logistic probabilities ``pi`` already evaluated at
    ``thetas`` may be given.  If one shard's U is singular the stacked ``solve``
    raises for the whole stack, and if one shard's sums are not finite,
    :class:`NonFiniteSumError` does.
    """
    p = model.p
    cols = np.ascontiguousarray(X.swapaxes(-1, -2))
    if model.kind is ModelKind.LINEAR:
        grads = 2.0 * (y - (X @ thetas[..., None])[..., 0])[:, None, :] * cols
        u_cols = cols
    else:
        pi = expit((X @ thetas[..., None])[..., 0]) if pi is None else pi
        grads = (y - pi)[:, None, :] * cols
        w = pi * (1.0 - pi)
        u_cols = np.sqrt(w)[:, None, :] * cols
    # The mean gradients cancel at the estimate, so their sums do not pass
    # the first-pass certificate; summed apart, they let U's call stop after
    # one pass.  Each row is summed on its own either way, so no bit moves.
    gbar = _row_means(grads)
    u_hat = _mean_outer(u_cols)
    if model.kind is ModelKind.LINEAR:
        u_hat = 2.0 * u_hat
    v_hat = _mean_outer(grads - gbar[:, :, None])

    if allow_singular:
        sigma = np.stack([u_inv @ v @ u_inv for u_inv, v in zip(map(_pinv_sym, u_hat), v_hat)])
    else:
        try:
            half = np.linalg.solve(u_hat, v_hat)
            sigma = np.linalg.solve(u_hat, half.swapaxes(-1, -2)).swapaxes(-1, -2)
        except np.linalg.LinAlgError:
            raise SingularMatrixError(
                "averaged Hessian is singular; sandwich variance undefined"
            ) from None
    return numkit.symmetrize(sigma)


def sandwich_variance(
    model: ModelSpec, data: Observations, theta_hat, *, allow_singular: bool = False
) -> np.ndarray:
    """Empirical sandwich variance U^{-1} V U^{-1} at ``theta_hat``.

    V is the centered average of outer products of per-observation gradients
    (the mean gradient is subtracted even though it is ~0 at a solution) and
    U is the negative averaged Hessian.  With ``allow_singular=True`` a
    singular U is inverted in the pseudo-inverse sense, which the simulation
    layer needs when recomputing the matrix at an extreme contaminated
    parameter; by default a singular U raises.  With it, a matrix whose
    sums go beyond the largest double (``math.fsum`` raises on them, as on
    ``inf - inf``) comes out all NaN instead of raising, so it can still be
    sent and is then left out and flagged by the central processor.
    """
    _check_data(model, data)
    theta_hat = np.asarray(theta_hat, dtype=float).ravel()
    if theta_hat.size != model.p:
        raise DimensionError(f"theta_hat has {theta_hat.size} coordinates, the model {model.p}")
    try:
        return _stacked_sandwich(
            model, data.X[None], data.y[None], theta_hat[None], allow_singular
        )[0]
    except ValueError:  # NonFiniteSumError among them
        if not allow_singular:
            raise
        return np.full((model.p, model.p), np.nan)


def sandwich_variances(model: ModelSpec, shards, thetas) -> np.ndarray:
    """``sandwich_variance(model, shards[i], thetas[i], allow_singular=True)``
    of every shard, as one ``(m, p, p)`` stack.

    The shards are checked in order.  Shards of one size share one
    :func:`_stacked_sandwich` call, which gives every matrix the bits of its
    own call; if it raises (one shard's sums are not finite), or the sizes
    differ, each shard is computed on its own, so a matrix is all NaN only
    for the shard whose sums are not finite.
    """
    shards = list(shards)
    thetas = np.asarray(thetas, dtype=float)
    for data in shards:
        _check_data(model, data)
    if thetas.shape != (len(shards), model.p):
        raise DimensionError(f"thetas have shape {thetas.shape}, expected ({len(shards)}, {model.p})")
    if len({data.n for data in shards}) == 1:
        X = np.stack([data.X for data in shards])
        y = np.stack([data.y for data in shards])
        try:
            return _stacked_sandwich(model, X, y, thetas, allow_singular=True)
        except ValueError:
            pass
    return np.array(
        [sandwich_variance(model, data, theta, allow_singular=True) for data, theta in zip(shards, thetas)]
    ).reshape(len(shards), model.p, model.p)


def _pinv_sym(a: np.ndarray) -> np.ndarray:
    """Eigenvalue-thresholded pseudo-inverse of a symmetric matrix.

    Besides the usual relative cutoff, eigenvalues below an absolute floor
    near machine precision are treated as exact zeros: for a saturated
    logistic fit the averaged Hessian can carry eigenvalues around 1e-200
    that are pure rounding debris, and inverting them would manufacture
    astronomically large variance matrices.
    """
    values, vectors = np.linalg.eigh(numkit.symmetrize(a))
    cutoff = max(np.abs(values).max() * 1e-12, 64.0 * np.finfo(float).eps)
    keep = np.abs(values) > cutoff
    inv = np.zeros_like(values)
    inv[keep] = 1.0 / values[keep]
    return numkit.symmetrize((vectors * inv) @ vectors.T)


def _norms(rows: np.ndarray) -> list[float]:
    """The 1-D ``np.linalg.norm`` of every row of a ``(K, p)`` array, bit
    for bit, from one stacked ``numkit.row_dots``."""
    return np.sqrt(numkit.row_dots(rows, rows)).tolist()


def _newton(X: np.ndarray, y: np.ndarray):
    """Logistic Newton-Raphson from the zero vector with step halving, for K
    equal-size shards, ``(K, n, p)`` designs ``X`` and ``(K, n)`` responses
    ``y``, in lockstep.

    Each iteration evaluates the shards still active in one stacked call and
    solves for their steps in one stacked ``solve``; every shard keeps its
    own step halving, convergence test and divergence and saturation checks,
    and leaves the active set when it converges.  The Hessian factors are
    laid out once per call, and the active set takes rows of them on axis 0.
    A shard's iterates are the bits of a Newton run on that shard alone.
    Returns ``(thetas, iterations, gradients, probabilities)``, the last
    ``expit`` of each shard's linear predictor at its estimate; if any shard
    fails, the call raises.
    """
    if (y.min(axis=1) == y.max(axis=1)).any():
        raise SeparationError(
            "only one response class present; logistic MLE does not exist"
        )
    k, _, p = X.shape
    xj, xk = _hessian_factors(X)
    thetas = np.zeros((k, p))
    values, grads, etas, pis = _logistic_eval(X, y, thetas)
    iters = [0] * k
    first_norms = [0.0] * k
    # The shards still iterating and, in the same order, their data and state.
    active = list(range(k))
    X_a, y_a, xj_a, xk_a, theta, value, grad, eta, pi = X, y, xj, xk, thetas, values, grads, etas, pis
    it = 0
    while True:
        keep = []
        for pos, (i, norm) in enumerate(zip(active, _norms(grad))):
            if norm <= DEFAULT_TOL:
                thetas[i], grads[i], etas[i], pis[i], iters[i] = theta[pos], grad[pos], eta[pos], pi[pos], it
            else:
                keep.append(pos)
        if len(keep) < len(active):
            active = [active[pos] for pos in keep]
            X_a, y_a, xj_a, xk_a, theta, value, grad, eta, pi = (
                a[keep] for a in (X_a, y_a, xj_a, xk_a, theta, value, grad, eta, pi)
            )
        if not active:
            break
        if it >= DEFAULT_MAX_ITER:
            raise NonConvergenceError(
                f"logistic fit did not converge in {DEFAULT_MAX_ITER} iterations",
                best=theta[0].copy(),
                residual=_norms(grad[:1])[0],
            )
        try:
            step = np.linalg.solve(-_logistic_hessians((xj_a, xk_a), pi), grad[..., None])[..., 0]
        except np.linalg.LinAlgError:
            raise RankDeficiencyError(
                "logistic Hessian is singular at the current iterate"
            ) from None
        # Step halving: keep each criterion from decreasing.  A shard takes
        # the 60th candidate whatever its value.
        cand = theta + step
        cand_value, cand_grad, cand_eta, cand_pi = _logistic_eval(X_a, y_a, cand)
        low = np.flatnonzero(~(cand_value >= value - 1e-14 * np.abs(value)))
        scale = 1.0
        for _ in range(59):
            if not low.size:
                break
            scale /= 2.0
            c = theta[low] + scale * step[low]
            v, g, e, q = _logistic_eval(X_a[low], y_a[low], c)
            cand[low], cand_value[low], cand_grad[low], cand_eta[low], cand_pi[low] = c, v, g, e, q
            low = low[~(v >= value[low] - 1e-14 * np.abs(value[low]))]
        theta, value, grad, eta, pi = cand, cand_value, cand_grad, cand_eta, cand_pi
        it += 1
        for i, norm in zip(active, _norms(theta)):
            if it == 1:
                first_norms[i] = norm
            if norm > _DIVERGENCE_RATIO * max(1.0, first_norms[i]):
                raise SeparationError(
                    "logistic step norms diverged; data appear completely separated"
                )
    margins = (2.0 * y - 1.0) * etas
    if (margins.min(axis=1) > _SATURATED_MARGIN).any():
        raise SeparationError(
            "every observation is classified with saturated probability; "
            "the data are completely separated"
        )
    return thetas, iters, grads, pis


def _fit_group(model: ModelSpec, X: np.ndarray, y: np.ndarray):
    """Fit K equal-size shards, ``(K, n, p)`` designs ``X`` and ``(K, n)``
    responses ``y``, in one stacked pass; the shards must pass
    :func:`_check_shard`.  Returns ``(thetas, sigmas, iterations, gradient
    norms)``, one row per shard.

    The linear fit is closed form: stacked ``einsum`` for X'X, stacked
    ``matmul`` for X'y and the linear predictor, and a stacked ``solve``.
    Logistic shards run one lockstep :func:`_newton`.  Both then share one
    :func:`_stacked_sandwich`, which takes the logistic probabilities from
    Newton's last evaluation: the same stacked ``matmul`` rows and ``expit``
    at the same estimates, so the same doubles.  A stacked step that raises
    does so for the whole group, so :func:`fit_shards` fits each shard of
    such a group again in a pass of its own, whose error is that shard's.
    """
    if model.kind is ModelKind.LINEAR:
        xtx = np.einsum("kij,kil->kjl", X, X)
        xty = X.swapaxes(-1, -2) @ y[..., None]
        try:
            thetas = np.linalg.solve(xtx, xty)[..., 0]
        except np.linalg.LinAlgError:
            raise RankDeficiencyError(
                "design matrix is rank deficient; least squares has no unique solution"
            ) from None
        # The gradient of criterion_eval, for every shard at once.
        resid = y - (X @ thetas[..., None])[..., 0]
        grads = 2.0 * np.einsum("ki,kij->kj", resid, X) / X.shape[1]
        iters, pis = [0] * X.shape[0], None
    else:
        thetas, iters, grads, pis = _newton(X, y)
    sigmas = _stacked_sandwich(model, X, y, thetas, allow_singular=False, pi=pis)
    return thetas, sigmas, iters, _norms(grads)


def fit_local(model: ModelSpec, data: Observations, server_id: int | str = 0) -> LocalFit:
    """Maximize the local criterion on one shard: :func:`fit_shards` of
    one, errors included."""
    return fit_shards(model, [data], server_ids=[server_id])[0]


def fit_shards(model: ModelSpec, shards, server_ids=None) -> LocalFits:
    """Maximize the local criterion on every shard, as one :class:`LocalFits`,
    with the shards of each size fitted in stacked passes of at most
    ``STACK_ENTRIES`` products.  This is the one loop that fits a shard.

    Linear regression solves the normal equations in closed form; logistic
    regression runs Newton-Raphson from the zero vector with step halving,
    to gradient norm ``DEFAULT_TOL`` within ``DEFAULT_MAX_ITER`` iterations.

    ``shards`` is a sequence of :class:`Observations`, whose shards are
    grouped by size and stacked pass by pass, or an :class:`EqualShards`,
    whose passes are views of its stacked arrays.  ``server_ids`` defaults
    to the shard positions.  Every pass writes its rows into the columns of
    the result, and each fit has the bits of its shard fitted alone.  A
    shard that fails the input checks, or whose stacked pass raises, or
    that is alone in its pass, is left over: once every size has been tried,
    the leftover shards are checked and fitted one by one in shard order, so
    the error raised is the one the first failing shard raises on its own,
    with that shard's id set as its ``server_id`` attribute.  Besides the
    input checks' :class:`DimensionError` and ``ValueError``, a fit raises
    :class:`SeparationError` when the logistic iterates diverge (or only one
    response class is present), :class:`RankDeficiencyError` for a singular
    Hessian, :class:`NonConvergenceError` at the iteration cap, and
    :class:`SingularMatrixError` or :class:`NonFiniteSumError` when the
    sandwich variance is undefined.
    """
    groups = {}  # size -> positions of the shards that passed the checks
    if isinstance(shards, EqualShards):
        stacked = shards
        n_k = (stacked.size,) * len(stacked)

        def take(rows):
            return stacked.X[rows[0] : rows[-1] + 1], stacked.y[rows[0] : rows[-1] + 1]

        try:
            _check_shard(model, stacked.data, stacked.size)
            groups[stacked.size] = list(range(len(stacked)))
        except (RobustAggError, ValueError):
            pass
    else:
        shards = list(shards)
        n_k = tuple(data.n for data in shards)

        def take(rows):
            return np.stack([shards[i].X for i in rows]), np.stack([shards[i].y for i in rows])

        for i, data in enumerate(shards):
            try:
                _check_shard(model, data, data.n)
            except (RobustAggError, ValueError):
                continue
            groups.setdefault(data.n, []).append(i)
    k, p = len(n_k), model.p
    server_ids = tuple(range(k) if server_ids is None else server_ids)
    if len(server_ids) != k:
        raise DimensionError("shards and server_ids must align one-to-one")

    thetas, sigmas = np.empty((k, p)), np.empty((k, p, p))
    iters, norms = np.zeros(k, dtype=int), np.empty(k)
    left = np.ones(k, dtype=bool)
    width = p + numkit.vech_len(p)
    if model.kind is ModelKind.LOGISTIC:
        width = max(width, p * p)
    for n, same_size in groups.items():
        per_pass = max(1, STACK_ENTRIES // (n * width))
        for start in range(0, len(same_size), per_pass):
            rows = same_size[start : start + per_pass]
            if len(rows) < 2:
                continue
            try:
                fitted = _fit_group(model, *take(rows))
            except (RobustAggError, ValueError):
                continue
            thetas[rows], sigmas[rows], iters[rows], norms[rows] = fitted
            left[rows] = False
    for i in np.flatnonzero(left).tolist():
        data = shards[i]
        try:
            _check_shard(model, data, data.n)
            thetas[[i]], sigmas[[i]], iters[[i]], norms[[i]] = _fit_group(model, data.X[None], data.y[None])
        except (RobustAggError, ValueError) as exc:
            exc.server_id = server_ids[i]
            raise
    return LocalFits(server_ids, n_k, thetas, sigmas, iters, norms)

"""Stacked local fitting: ``fit_shards`` against one ``fit_local`` per shard.

The fits must be the same doubles, and a list with a failing shard must
raise the error the per-shard loop raises: same class, same message, from
the same (first failing) shard.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy.special import expit

from robustagg import distsim, models, numkit, spatialmed
from robustagg.detect import ServerDetection
from robustagg.distsim import ContaminationKind, ContaminationSpec, StudyConfig, run_replicate
from robustagg.errors import (
    DimensionError,
    NonConvergenceError,
    RankDeficiencyError,
    SeparationError,
)
from robustagg.models import ModelSpec, Observations, criterion_eval, fit_local, fit_shards


def make_shards(kind, p, sizes, seed):
    """Shards of the given sizes; linear columns span four decades of scale."""
    rng = np.random.default_rng(seed)
    theta = np.linspace(1.0, -0.5, p)
    shards = []
    for n in sizes:
        if kind == "linear":
            X = rng.standard_normal((n, p)) * 10.0 ** rng.uniform(-2.0, 2.0, p)
            y = X @ theta + rng.standard_normal(n)
        else:
            X = rng.standard_normal((n, p))
            y = (rng.random(n) < expit(0.5 * X @ theta)).astype(float)
        shards.append(Observations(y, X))
    return ModelSpec(models.ModelKind(kind), p), shards


def assert_same_fits(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g.theta_hat, w.theta_hat)
        assert np.array_equal(g.sigma_hat, w.sigma_hat)
        assert g.theta_hat.shape == w.theta_hat.shape
        assert g.sigma_hat.shape == w.sigma_hat.shape
        assert (g.n_k, g.server_id, g.newton_iters) == (w.n_k, w.server_id, w.newton_iters)
        assert g.grad_norm == w.grad_norm
        assert not g.theta_hat.flags.writeable and not g.sigma_hat.flags.writeable


def per_shard(model, shards, server_ids=None):
    ids = range(len(shards)) if server_ids is None else server_ids
    return [fit_local(model, s, server_id=sid) for s, sid in zip(shards, ids)]


def outcome(fn):
    """The fits' bits, or the class and message of the error raised."""
    try:
        fits = fn()
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return type(exc), str(exc)
    return [(f.theta_hat.tobytes(), f.sigma_hat.tobytes(), f.grad_norm) for f in fits]


class TestBits:
    @pytest.mark.parametrize("kind", ["linear", "logistic"])
    @pytest.mark.parametrize("p", [1, 2, 5])
    @pytest.mark.parametrize("k,n", [(1, 60), (2, 60), (400, 60), (1, 800), (2, 800), (20, 800)])
    def test_equal_size_stack_matches_per_shard(self, kind, p, k, n):
        model, shards = make_shards(kind, p, [n] * k, seed=1000 * p + k + n)
        ids = [f"s{i}" for i in range(k)]
        want = per_shard(model, shards, ids)
        assert_same_fits(fit_shards(model, shards, server_ids=ids), want)

    @pytest.mark.parametrize("kind", ["linear", "logistic"])
    def test_ragged_shards_group_by_size(self, kind, monkeypatch):
        sizes = [50, 70, 50, 90, 70, 50, 120, 90]
        model, shards = make_shards(kind, 3, sizes, seed=7)
        want = per_shard(model, shards)
        groups = []
        fit_group = models._fit_group

        def spy(model, X, *args):
            groups.append([len(x) for x in X])
            return fit_group(model, X, *args)

        monkeypatch.setattr(models, "_fit_group", spy)
        got = fit_shards(model, shards)
        assert sorted(groups) == [[50, 50, 50], [70, 70], [90, 90], [120]]
        assert_same_fits(got, want)

    def test_passes_are_bounded_by_stack_entries(self, monkeypatch):
        # n * (p + p(p+1)/2) = 40 * 9 entries per shard; a budget of three
        # shards splits seven into passes of 3, 3 and a lone shard, which
        # is fitted alone.  A bad shard in the second pass fails only that pass.
        model, shards = make_shards("linear", 3, [40] * 7, seed=21)
        monkeypatch.setattr(models, "STACK_ENTRIES", 3 * 40 * 9 + 5)
        passes = []
        fit_group = models._fit_group

        def spy(model, group, *args):
            passes.append(len(group))
            return fit_group(model, group, *args)

        want = per_shard(model, shards)
        monkeypatch.setattr(models, "_fit_group", spy)
        assert_same_fits(fit_shards(model, shards), want)
        assert passes == [3, 3, 1]
        shards[4] = rank_deficient(np.random.default_rng(2), 40, 3)
        want = outcome(lambda: per_shard(model, shards))
        passes.clear()
        assert outcome(lambda: fit_shards(model, shards)) == want
        # The second pass is refit shard by shard up to the bad shard.
        assert passes == [3, 3, 1, 1]

    def test_pass_memory_does_not_grow_with_k(self):
        # All K shards in one pass would hold ~14 MB of stacked products at
        # K=400 (n=50, p=5) and ten times that at K=4000.
        model, shards = make_shards("linear", 5, [50] * 800, seed=22)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fits = fit_shards(model, shards)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(fits) == 800
        assert peak - kept < 3e6, (peak - base, kept - base)

    @pytest.mark.parametrize(
        "kind,theta0,k,n,passes",
        [
            ("logistic", (2.0, 1.0), 20, 1000, [13, 7]),
            ("linear", (1.0, -1.0, 0.5, 2.0, 0.0), 400, 50, [65] * 6 + [10]),
            ("logistic", (2.0, 1.0), 4, 5000, [2, 2]),
        ],
        ids=["desk", "linear-400", "paper-n"],
    )
    def test_pass_size_moves_no_bit(self, kind, theta0, k, n, passes, monkeypatch):
        # The simulator's designs: desk, linear K = 400 and the paper's
        # shard size.  Every shard alone (0), or the passes of 2**15,
        # 2**16 and 2**17 entries, give the same bytes.
        model = ModelSpec(models.ModelKind(kind), len(theta0))
        shards = distsim.partition(distsim.generate_dataset(model.kind, theta0, k * n, k + n), k)
        sizes = []
        fit_group = models._fit_group

        def spy(model, X, *args):
            sizes.append(len(X))
            return fit_group(model, X, *args)

        monkeypatch.setattr(models, "_fit_group", spy)
        fits = fit_shards(model, shards)
        assert sizes == passes
        for entries in (0, 1 << 15, 1 << 16, 1 << 17):
            monkeypatch.setattr(models, "STACK_ENTRIES", entries)
            other = fit_shards(model, shards)
            for column in ("thetas", "sigmas", "newton_iters", "grad_norms"):
                assert getattr(other, column).tobytes() == getattr(fits, column).tobytes(), (entries, column)

    def test_default_ids_are_positions(self):
        model, shards = make_shards("linear", 2, [30] * 3, seed=3)
        assert [f.server_id for f in fit_shards(model, shards)] == [0, 1, 2]
        with pytest.raises(DimensionError):
            fit_shards(model, shards, server_ids=[1, 2])

    @pytest.mark.parametrize("p", [1, 2, 5])
    def test_linear_fit_is_the_written_out_normal_equations(self, p):
        # The stacked code against the per-shard forms it replaced:
        # two-operand einsum for X'X, X.T @ y, solve, the 1-D norm of
        # criterion_eval's gradient, and one fsum per sandwich entry.  The
        # forms rejected as different bits (einsum for X'y or for the linear
        # predictor, an axis norm) each differ on some of these shards.
        model, shards = make_shards("linear", p, [60] * 200 + [800] * 2, seed=50 + p)
        for data, fit in zip(shards, fit_shards(model, shards)):
            X, y, n = data.X, data.y, data.n
            theta = np.linalg.solve(np.einsum("ij,ik->jk", X, X), X.T @ y)
            grad = criterion_eval(model, data, theta)[1]
            grads = 2.0 * (y - X @ theta)[:, None] * X
            gbar = np.array([math.fsum(grads[:, j].tolist()) / n for j in range(p)])

            def mean_outer(rows):
                return np.array(
                    [[math.fsum((rows[:, a] * rows[:, b]).tolist()) / n for b in range(p)]
                     for a in range(p)]
                )

            u_hat = 2.0 * mean_outer(X)
            half = np.linalg.solve(u_hat, mean_outer(grads - gbar))
            sigma = numkit.symmetrize(np.linalg.solve(u_hat, half.T).T)
            assert np.array_equal(fit.theta_hat, theta)
            assert fit.grad_norm == float(np.linalg.norm(grad))
            assert np.array_equal(fit.sigma_hat, sigma)


def rank_deficient(rng, n, p):
    X = rng.standard_normal((n, p))
    X[:, 1] = 0.0
    return Observations(X @ np.ones(p) + rng.standard_normal(n), X)


def one_class(rng, n, p):
    return Observations(np.ones(n), rng.standard_normal((n, p)))


def too_few(rng, n, p):
    return Observations(rng.standard_normal(p - 1), rng.standard_normal((p - 1, p)))


def non_binary(rng, n, p):
    return Observations(rng.random(n), rng.standard_normal((n, p)))


# Each bad shard, the model it is fitted under, and a second bad shard with a
# different error that sits later (or, swapped, earlier) in the same list.
BAD = {
    "rank_deficient": ("linear", rank_deficient, too_few, RankDeficiencyError),
    "one_class": ("logistic", one_class, non_binary, SeparationError),
    "too_few": ("linear", too_few, rank_deficient, DimensionError),
}


class TestErrorParity:
    @pytest.mark.parametrize("name", sorted(BAD))
    @pytest.mark.parametrize("swap", [False, True])
    def test_first_failing_shard_raises_its_own_error(self, name, swap):
        kind, first, second, error = BAD[name]
        p, n = 3, 80
        model, shards = make_shards(kind, p, [n] * 9, seed=11)
        rng = np.random.default_rng(12)
        bad_a, bad_b = first(rng, n, p), second(rng, n, p)
        if swap:
            bad_a, bad_b = bad_b, bad_a
        shards[4], shards[7] = bad_a, bad_b
        want = outcome(lambda: per_shard(model, shards))
        got = outcome(lambda: fit_shards(model, shards))
        assert got == want
        # The error is that of the first bad shard fitted on its own.
        assert want == outcome(lambda: [fit_local(model, bad_a)])
        if not swap:
            assert want[0] is error

    def test_failed_group_keeps_the_other_groups_stacked(self, monkeypatch):
        rng = np.random.default_rng(5)
        model, shards = make_shards("linear", 3, [40] * 4 + [60] * 4, seed=9)
        shards[5] = rank_deficient(rng, 60, 3)
        calls = []
        fit_group = models._fit_group

        def spy(model, group, *args):
            calls.append(len(group))
            return fit_group(model, group, *args)

        monkeypatch.setattr(models, "_fit_group", spy)
        with pytest.raises(RankDeficiencyError):
            fit_shards(model, shards)
        # Both groups stacked; then only the failed group, one shard at a
        # time up to the rank-deficient one.
        assert calls == [4, 4, 1, 1]


def stacked_and_listed(kind, p, k, n, seed):
    """The equal shards of one dataset, as ``partition`` holds them and as a
    list of the same shards."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((k * n, p))
    if kind == "linear":
        y = X @ np.linspace(1.0, -0.5, p) + rng.standard_normal(k * n)
    else:
        y = (rng.random(k * n) < expit(X @ np.linspace(0.5, -0.5, p))).astype(float)
    stacked = distsim.partition(Observations(y, X), k)
    return ModelSpec(models.ModelKind(kind), p), stacked, [stacked[i] for i in range(k)]


class TestEqualShards:
    def test_shards_are_views_of_the_data(self):
        _, stacked, listed = stacked_and_listed("linear", 3, 5, 8, seed=1)
        assert isinstance(stacked, models.EqualShards) and len(stacked) == 5
        assert np.shares_memory(stacked.X, stacked.data.X)
        for i, shard in enumerate(listed):
            assert np.array_equal(shard.X, stacked.data.X[8 * i : 8 * (i + 1)])
            assert np.array_equal(shard.y, stacked.y[i])
        assert [s.n for s in stacked] == [8] * 5
        assert np.array_equal(stacked[-1].X, listed[4].X)
        with pytest.raises(IndexError):
            stacked[5]
        with pytest.raises(TypeError):
            stacked[1:4]

    @pytest.mark.parametrize("kind", ["linear", "logistic"])
    @pytest.mark.parametrize("k,n", [(1, 60), (2, 60), (70, 50), (5, 800)])
    def test_stacked_views_fit_the_bits_of_the_list(self, kind, k, n, monkeypatch):
        model, stacked, listed = stacked_and_listed(kind, 3, k, n, seed=k + n)
        ids = list(range(1, k + 1))
        want = per_shard(model, listed, ids)
        passes = []
        fit_group = models._fit_group

        def spy(model, X, y):
            # Every pass reads views of the data, not a stacked copy.
            passes.append(np.shares_memory(X, stacked.data.X) and np.shares_memory(y, stacked.data.y))
            return fit_group(model, X, y)

        monkeypatch.setattr(models, "_fit_group", spy)
        got = fit_shards(model, stacked, server_ids=ids)
        monkeypatch.undo()
        assert passes and all(passes)
        assert_same_fits(got, want)
        assert_same_fits(fit_shards(model, listed, server_ids=ids), want)

    def test_a_failing_shard_raises_its_own_error(self):
        model, stacked, listed = stacked_and_listed("logistic", 2, 9, 40, seed=4)
        y = stacked.data.y.copy()
        y[3 * 40 : 4 * 40] = 1.0  # shard 3 has one response class
        bad = distsim.partition(Observations(y, stacked.data.X), 9)
        want = outcome(lambda: per_shard(model, [bad[i] for i in range(9)]))
        assert want[0] is SeparationError
        assert outcome(lambda: fit_shards(model, bad)) == want

    def test_data_failing_the_checks_is_fit_shard_by_shard(self):
        # Two rows per shard cannot fit three parameters: the first shard
        # raises what it raises alone.
        model, stacked, listed = stacked_and_listed("linear", 3, 4, 2, seed=5)
        want = outcome(lambda: [fit_local(model, listed[0])])
        assert want[0] is DimensionError
        assert outcome(lambda: fit_shards(model, stacked)) == want


def alone(model, data):
    """The class and message of the error ``data`` raises fitted by itself:
    the shard checks, then one pass of one shard."""
    try:
        models._check_shard(model, data, data.n)
        models._fit_group(model, data.X[None], data.y[None])
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return type(exc), str(exc)
    return None


def spoil(model, y, X, defect):
    """A shard's responses and design with one defect that keeps it from
    being fitted."""
    y, X = y.copy(), X.copy()
    if defect == "one response class":
        y[:] = 0.0
    elif defect == "rank deficient":
        X[:, 1] = 0.0  # X'X then has an exact zero row
    elif defect == "non-binary y":
        y[0] = 0.5
    else:  # "p mismatch"
        X = np.column_stack([X, X[:, :1]])
    return y, X


DEFECTS = {  # defect -> model kind it is tried on, and the error it raises
    "one response class": ("logistic", SeparationError),
    "rank deficient": ("linear", RankDeficiencyError),
    "non-binary y": ("logistic", ValueError),
    "p mismatch": ("linear", DimensionError),
}


class TestErrorContract:
    """The error ``fit_shards`` raises is the one the first failing shard
    raises alone, same class and message, with that shard's id set as its
    ``server_id``."""

    @pytest.mark.parametrize("in_pass", [True, False], ids=["in a pass", "alone"])
    @pytest.mark.parametrize("defect", sorted(DEFECTS))
    def test_listed_shards(self, defect, in_pass):
        kind, error = DEFECTS[defect]
        # Shard "c" shares its size with "a" (a stacked pass), or has a size
        # of its own; "b" and "d" come before and after it.
        model, shards = make_shards(kind, 2, [40, 55, 40 if in_pass else 47, 60], seed=11)
        shards[2] = Observations(*spoil(model, shards[2].y, shards[2].X, defect))
        want = alone(model, shards[2])
        assert want is not None and issubclass(want[0], error)
        with pytest.raises(error) as info:
            fit_shards(model, shards, server_ids=["a", "b", "c", "d"])
        assert (type(info.value), str(info.value)) == want
        assert info.value.server_id == "c"

    @pytest.mark.parametrize("defect", sorted(DEFECTS))
    def test_equal_shards(self, defect):
        kind, error = DEFECTS[defect]
        model, stacked, listed = stacked_and_listed(kind, 2, 5, 30, seed=12)
        y, X = stacked.data.y.copy(), stacked.data.X.copy()
        if defect == "p mismatch":
            # Every shard has the data's width, so the first one raises.
            model, bad = ModelSpec(model.kind, 3), 0
        else:
            y[60:90], X[60:90] = spoil(model, y[60:90], X[60:90], defect)
            bad = 2
        shards = distsim.partition(Observations(y, X), 5)
        want = alone(model, shards[bad])
        assert want is not None and issubclass(want[0], error)
        with pytest.raises(error) as info:
            fit_shards(model, shards, server_ids=[7, 8, 9, 10, 11])
        assert (type(info.value), str(info.value)) == want
        assert info.value.server_id == 7 + bad
        with pytest.raises(error) as info:
            fit_local(model, shards[bad], server_id="one")
        assert (type(info.value), str(info.value), info.value.server_id) == (*want, "one")


class TestLocalFits:
    def test_columns_and_row_views(self):
        model, shards = make_shards("linear", 2, [30, 40, 30], seed=8)
        fits = fit_shards(model, shards, server_ids=["a", "b", "c"])
        assert isinstance(fits, models.LocalFits) and len(fits) == 3
        assert fits.server_ids == ("a", "b", "c") and fits.n_k == (30, 40, 30)
        for array in (fits.thetas, fits.sigmas, fits.newton_iters, fits.grad_norms):
            assert not array.flags.writeable
        assert [f.server_id for f in fits] == ["a", "b", "c"]
        assert fits[-1] is fits.members[2] and list(fits[1:]) == list(fits.members[1:])
        for i, fit in enumerate(fits):
            assert np.shares_memory(fit.theta_hat, fits.thetas)
            assert np.array_equal(fit.sigma_hat, fits.sigmas[i])
            assert type(fit.grad_norm) is float and type(fit.newton_iters) is int

    def test_no_fits(self):
        fits = fit_shards(ModelSpec.linear(2), [])
        assert len(fits) == 0 and fits.thetas.shape == (0, 2) and list(fits) == []


def test_replicate_recomputes_contaminated_sandwiches_in_one_call(monkeypatch):
    # A K = 400 replicate keeps its round columnar: the fits, the corrupted
    # servers' sandwiches and the report are arrays, and the spatial median
    # tests each data point for an anchor at most once.
    config = StudyConfig(
        model=models.ModelKind.LINEAR,
        theta0=(1.0, -1.0, 0.5, 2.0, 0.0),
        n_servers=400,
        shard_size=50,
        contamination=ContaminationSpec(kind=ContaminationKind.GAUSSIAN),
        replicates=2,
    )
    recomputed = []
    stacked = models._stacked_sandwich

    def spy(model, X, y, thetas, allow_singular, **kwargs):
        if allow_singular:
            recomputed.append(len(X))
        return stacked(model, X, y, thetas, allow_singular, **kwargs)

    def built(self, *args, **kwargs):
        pytest.fail(f"a {type(self).__name__} was built")

    pulls = []
    pull = spatialmed._pull
    monkeypatch.setattr(models, "_stacked_sandwich", spy)
    monkeypatch.setattr(models, "sandwich_variance", lambda *a, **k: pytest.fail("a sandwich was computed alone"))
    monkeypatch.setattr(models.LocalFit, "__post_init__", built)
    monkeypatch.setattr(ServerDetection, "__init__", built)
    monkeypatch.setattr(spatialmed, "_pull", lambda x, w, j: pulls.append(j) or pull(x, w, j))
    run_replicate(config, 0)
    assert recomputed == [config.contamination.resolved_count(400)] == [4]
    assert pulls and len(pulls) == len(set(pulls))


# The per-shard logistic Newton that the lockstep Newton replaced, kept as the
# reference: one evaluation per candidate with the three-operand einsum
# Hessian, 1-D norms and 1-D matrix-vector products.
def reference_eval(data, theta):
    y, X, n = data.y, data.X, data.n
    eta = X @ theta
    pi = expit(eta)
    value = float(np.add.reduce(y * eta - np.logaddexp(0.0, eta))) / n
    grad = np.einsum("i,ij->j", y - pi, X) / n
    w = pi * (1.0 - pi)
    return value, grad, numkit.symmetrize(-np.einsum("i,ij,ik->jk", w, X, X) / n)


def reference_newton(data, on_decision=None):
    """``(theta, iterations, gradient, halvings)`` of one shard.

    ``on_decision(theta, cand, value, cand_value)``, if given, sees every
    step-halving decision before it is taken."""
    if np.unique(data.y).size < 2:
        raise SeparationError("only one response class present; logistic MLE does not exist")
    theta = np.zeros(data.p)
    value, grad, hess = reference_eval(data, theta)
    iters = halvings = 0
    first_step_norm = None
    converged = float(np.linalg.norm(grad)) <= models.DEFAULT_TOL
    while not converged:
        if iters >= models.DEFAULT_MAX_ITER:
            raise NonConvergenceError(
                f"logistic fit did not converge in {models.DEFAULT_MAX_ITER} iterations",
                best=theta,
                residual=float(np.linalg.norm(grad)),
            )
        try:
            step = np.linalg.solve(-hess, grad)
        except np.linalg.LinAlgError:
            raise RankDeficiencyError(
                "logistic Hessian is singular at the current iterate"
            ) from None
        scale = 1.0
        for _ in range(60):
            cand = theta + scale * step
            cand_value, cand_grad, cand_hess = reference_eval(data, cand)
            if on_decision is not None:
                on_decision(theta, cand, value, cand_value)
            if cand_value >= value - 1e-14 * abs(value):
                break
            scale /= 2.0
            halvings += 1
        theta, value, grad, hess = cand, cand_value, cand_grad, cand_hess
        iters += 1
        norm = float(np.linalg.norm(theta))
        if first_step_norm is None:
            first_step_norm = norm
        if norm > 1e4 * max(1.0, first_step_norm):
            raise SeparationError(
                "logistic step norms diverged; data appear completely separated"
            )
        converged = float(np.linalg.norm(grad)) <= models.DEFAULT_TOL
    margins = (2.0 * data.y - 1.0) * (data.X @ theta)
    if float(margins.min()) > 13.8:
        raise SeparationError(
            "every observation is classified with saturated probability; "
            "the data are completely separated"
        )
    return theta, iters, grad, halvings


def reference_outcome(data):
    """The reference fit's bits and halving count, or its error in full."""
    model = ModelSpec.logistic(data.p)
    try:
        theta, iters, grad, halvings = reference_newton(data)
    except NonConvergenceError as exc:
        return type(exc), str(exc), exc.best.tobytes(), exc.residual
    except (SeparationError, RankDeficiencyError) as exc:
        return type(exc), str(exc)
    sigma = models.sandwich_variance(model, data, theta)
    return theta.tobytes(), iters, float(np.linalg.norm(grad)), sigma.tobytes(), halvings


def fit_outcome(fn):
    """What ``fn`` returns (one fit's bits) or raises, in reference_outcome's form."""
    try:
        fit = fn()
    except NonConvergenceError as exc:
        return type(exc), str(exc), exc.best.tobytes(), exc.residual
    except (SeparationError, RankDeficiencyError) as exc:
        return type(exc), str(exc)
    return fit.theta_hat.tobytes(), fit.newton_iters, fit.grad_norm, fit.sigma_hat.tobytes()


def logistic_shard(rng, n, theta0, leverage=0):
    """A logistic shard; ``leverage`` rows are pushed far out and mislabelled,
    which makes Newton halve its step on some shards."""
    X = rng.standard_normal((n, theta0.size))
    X[:leverage] *= 10.0 ** rng.uniform(1.0, 2.5, (leverage, 1))
    y = (rng.random(n) < expit(X @ theta0)).astype(float)
    y[:leverage] = 1.0 - y[:leverage]
    return Observations(y, X)


def assert_lockstep_matches_reference(shards):
    model = ModelSpec.logistic(shards[0].p)
    want = [reference_outcome(data) for data in shards]
    for data, w in zip(shards, want):
        assert fit_outcome(lambda: fit_local(model, data)) == w[:4]
    failed = [w for w in want if isinstance(w[0], type)]
    try:
        fits = fit_shards(model, shards)
    except (SeparationError, RankDeficiencyError, NonConvergenceError) as exc:
        assert failed and (type(exc), str(exc)) == failed[0][:2]
        return want
    assert not failed
    assert [fit_outcome(lambda: f) for f in fits] == [w[:4] for w in want]
    return want


class TestLockstepNewton:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(
        p=st.integers(1, 5),
        k=st.integers(1, 25),
        n=st.integers(5, 3000),
        scale=st.floats(0.0, 6.0),
        leverage=st.sampled_from([0, 0, 2, 3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_fits_equal_per_shard_newton(self, p, k, n, scale, leverage, seed):
        # Large theta0 puts shards near separation, and shards converge at
        # different iterations; mislabelled leverage rows make some halve.
        rng = np.random.default_rng(seed)
        theta0 = rng.standard_normal(p) * scale
        shards = [logistic_shard(rng, n, theta0, min(leverage, n // 4)) for _ in range(k)]
        assert_lockstep_matches_reference(shards)

    @pytest.mark.parametrize("seed", [2, 15, 48])
    def test_halving_shards_converge_at_different_iterations(self, seed):
        # The design of robustagg check's lockstep Newton test (seed 48).
        rng = np.random.default_rng(seed)
        shards = [logistic_shard(rng, 300, np.array([5.0, 3.0]), 3) for _ in range(6)]
        want = assert_lockstep_matches_reference(shards)
        assert sum(w[4] for w in want) > 0
        assert len({w[1] for w in want}) > 1

    @settings(max_examples=150, deadline=None)
    @example(p=2, n=6, scale=1.0, zero_column=True, seed=0)
    @given(
        p=st.integers(1, 5),
        n=st.integers(1, 500),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
        zero_column=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_criterion_eval_equals_per_shard_forms(self, p, n, scale, zero_column, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, p)) * scale ** rng.uniform(-1.0, 1.0, p)
        if zero_column and p > 1:
            # Column 0 is positive, column 1 all -0.0: every product of the
            # (0, 1) entry is -0.0, and the einsum sum of them is +0.0.
            X[:, 0] = np.abs(X[:, 0])
            X[:, 1] = -0.0
        data = Observations((rng.random(n) < 0.5).astype(float), X)
        theta = rng.standard_normal(p) * 3.0
        value, grad, hess = criterion_eval(ModelSpec.logistic(p), data, theta)
        want = reference_eval(data, theta)
        assert (value, grad.tobytes(), hess.tobytes()) == (
            want[0],
            want[1].tobytes(),
            want[2].tobytes(),
        )


def accumulated_hessians(X, pi):
    """The Hessians of K shards summed one product at a time: the
    ``(K, p, p, n)`` products ``(w * x_j) * x_k`` summed by
    ``np.add.accumulate`` along n, the last partial sum ``+ 0.0`` (an all
    ``-0.0`` sum is then ``+0.0``, as einsum's is)."""
    cols = np.ascontiguousarray(X.swapaxes(-1, -2))
    w_cols = (pi * (1.0 - pi))[:, None, :] * cols
    prods = w_cols[:, :, None, :] * cols[:, None, :, :]
    sums = np.add.accumulate(prods, axis=-1)[..., -1] + 0.0
    return numkit.symmetrize(-sums / X.shape[1])


def same_bits(a, b):
    """Equal as int64 views, so signed zeros and NaN payloads count."""
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestHessianKernel:
    @staticmethod
    def assert_kernel_bits(rng, X, per_shard=True):
        k, n, p = X.shape
        pi = expit(3.0 * rng.standard_normal((k, n)))
        factors = models._hessian_factors(X)
        assert all(f.flags.c_contiguous and f.shape == (k, n, max(p * p, 2)) for f in factors)
        got = models._logistic_hessians(factors, pi)
        assert same_bits(got, accumulated_hessians(X, pi))
        if per_shard:
            w = pi * (1.0 - pi)
            want = [numkit.symmetrize(-np.einsum("i,ij,ik->jk", w[i], X[i], X[i]) / n) for i in range(k)]
            assert same_bits(got, np.array(want))
        # The active set shrinks by indexing axis 0, which keeps the layout.
        keep = sorted(rng.choice(k, int(rng.integers(1, k + 1)), replace=False).tolist())
        subset = tuple(f[keep] for f in factors)
        assert all(f.flags.c_contiguous for f in subset)
        assert same_bits(models._logistic_hessians(subset, pi[keep]), got[keep])

    def test_equals_sequential_and_per_shard_sums(self):
        # Column scales e^N(0, 4); every fifth stack has an all -0.0 column
        # next to a positive one, whose products are all -0.0.
        rng = np.random.default_rng(31)
        for case in range(2500):
            k, n, p = int(rng.integers(1, 8)), int(rng.integers(1, 501)), int(rng.integers(1, 7))
            X = rng.standard_normal((k, n, p)) * np.exp(rng.normal(0.0, 2.0, p))
            if case % 5 == 0:
                X[..., 0] = np.abs(X[..., 0])
                X[..., p - 1] = -0.0
            self.assert_kernel_bits(rng, X)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_long_shards_keep_the_layout_bits(self, p):
        # Beyond einsum's 8,192-element buffer a single column (C = 1) or a
        # gathered, non-contiguous factor has its sum split into chunks, and
        # the bits differ; the contiguous layout keeps the sequential sum.
        # So does the per-shard einsum at p = 1, whose sum is chunked there.
        rng = np.random.default_rng(40 + p)
        for n in (8193, 12000):
            X = rng.standard_normal((2, n, p)) * np.exp(rng.normal(0.0, 2.0, p))
            self.assert_kernel_bits(rng, X, per_shard=p > 1)


def evaluated(fit):
    """What ``fit()`` returns, and how many shard evaluations it made."""
    rows = []
    real = models._logistic_eval
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(models, "_logistic_eval", lambda X, y, thetas: rows.append(len(thetas)) or real(X, y, thetas))
        return fit(), sum(rows)


def scaled_shards(rng, p, k, n, scale, col_scales, leverage):
    """k logistic shards around a theta0 of the given scale, with mislabelled
    leverage rows and their columns scaled."""
    theta0 = rng.standard_normal(p) * scale
    shards = [logistic_shard(rng, n, theta0, min(leverage, n // 4)) for _ in range(k)]
    return [Observations(data.y, data.X * col_scales[:p]) for data in shards]


class TestHalvingDecisions:
    """The lockstep Newton decides each step halving from a criterion value
    computed with numpy's vectorized ``exp`` and ``log1p``; the reference
    decides from ``logaddexp``.  The two must always decide alike."""

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        p=st.integers(1, 4),
        k=st.integers(1, 6),
        n=st.integers(10, 300),
        scale=st.floats(0.0, 12.0),
        col_scales=st.lists(st.floats(0.3, 3.0), min_size=4, max_size=4),
        leverage=st.sampled_from([0, 1, 2, 3, 5]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_fits_and_halvings_equal_the_reference(self, p, k, n, scale, col_scales, leverage, seed):
        shards = scaled_shards(np.random.default_rng(seed), p, k, n, scale, col_scales, leverage)
        want = assert_lockstep_matches_reference(shards)
        if any(isinstance(w[0], type) for w in want):
            return
        # One evaluation at theta = 0, one per iteration, one per halving.
        model = ModelSpec.logistic(p)
        for data, w in zip(shards, want):
            assert evaluated(lambda: fit_local(model, data))[1] == 1 + w[1] + w[4]
        assert evaluated(lambda: fit_shards(model, shards))[1] == sum(1 + w[1] + w[4] for w in want)

    def test_both_values_decide_alike_with_a_wide_margin(self):
        # The high-leverage shards of test_halving_shards_converge_at_different_iterations,
        # which halve where random shards rarely do, and 250 random shards.
        shards = []
        for seed in (2, 15, 48):
            rng = np.random.default_rng(seed)
            shards += [logistic_shard(rng, 300, np.array([5.0, 3.0]), 3) for _ in range(6)]
        rng = np.random.default_rng(29)
        for _ in range(50):
            shards += scaled_shards(
                rng, int(rng.integers(1, 5)), 5, int(rng.integers(10, 301)), rng.uniform(0.0, 12.0),
                rng.uniform(0.3, 3.0, 4), int(rng.choice([0, 0, 2, 3, 5])),
            )
        margins = []  # (exact, fast): each value's distance from its threshold

        def decide(theta, cand, value, cand_value):
            fast_value, fast_cand = (
                float(models._logistic_eval(data.X[None], data.y[None], t[None])[0][0]) for t in (theta, cand)
            )
            margins.append((
                cand_value - (value - 1e-14 * abs(value)),
                fast_cand - (fast_value - 1e-14 * abs(fast_value)),
            ))

        for data in shards:
            try:
                reference_newton(data, decide)
            except (SeparationError, RankDeficiencyError, NonConvergenceError):
                pass
        exact, fast = np.array(margins).T
        assert ((exact >= 0.0) == (fast >= 0.0)).all()
        assert (np.abs(fast - exact) < 0.25 * np.abs(exact)).all()
        assert (exact < 0.0).any()


def slow_shard(seed):
    """A p=3, n=55 shard drawn around a large theta0; seed 50 makes Newton
    diverge and seed 771 take 18 iterations."""
    rng = np.random.default_rng(seed)
    theta0 = rng.standard_normal(3) * 7.0
    X = rng.standard_normal((55, 3))
    return Observations((rng.random(55) < expit(X @ theta0)).astype(float), X)


def one_class_shard():
    return Observations(np.ones(55), np.random.default_rng(1).standard_normal((55, 3)))


# Each bad shard, the error it raises alone and the iteration cap it is fitted
# under; the good shards of its group converge within 10 iterations.
LOGISTIC_BAD = {
    "one_class": (one_class_shard, SeparationError, "response class", 100),
    "diverging": (lambda: slow_shard(50), SeparationError, "diverged", 100),
    "capped": (lambda: slow_shard(771), NonConvergenceError, "did not converge in 10", 10),
}


class TestLockstepErrorParity:
    @pytest.mark.parametrize("column", ["zero", "duplicate"])
    def test_singular_hessian_raises_rank_deficiency(self, column):
        rng = np.random.default_rng(23)
        good = [logistic_shard(rng, 60, np.array([0.5, -0.3])) for _ in range(3)]
        x = good[1].X[:, 0]
        bad = Observations(good[1].y, np.column_stack([x, 0.0 * x if column == "zero" else x]))
        model = ModelSpec.logistic(2)
        for fit in (lambda: fit_local(model, bad), lambda: fit_shards(model, [good[0], bad, good[2]])):
            with pytest.raises(RankDeficiencyError, match="logistic Hessian is singular"):
                fit()

    @pytest.mark.parametrize("name", sorted(LOGISTIC_BAD))
    @pytest.mark.parametrize("position", [0, 3, 6])
    def test_failing_shard_raises_its_own_error(self, name, position, monkeypatch):
        make_bad, error, text, cap = LOGISTIC_BAD[name]
        monkeypatch.setattr(models, "DEFAULT_MAX_ITER", cap)
        rng = np.random.default_rng(17)
        shards = [logistic_shard(rng, 55, np.array([0.5, -0.3, 0.2])) for _ in range(7)]
        model = ModelSpec.logistic(3)
        assert all(isinstance(fit_local(model, data), models.LocalFit) for data in shards)
        shards[position] = bad = make_bad()
        alone = reference_outcome(bad)
        assert alone[0] is error and text in alone[1]
        assert fit_outcome(lambda: fit_local(model, bad)) == alone
        with pytest.raises(error) as excinfo:
            fit_shards(model, shards)
        got = (type(excinfo.value), str(excinfo.value))
        if error is NonConvergenceError:
            got += (excinfo.value.best.tobytes(), excinfo.value.residual)
        assert got == alone

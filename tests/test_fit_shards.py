"""Stacked local fitting: ``fit_shards`` against one ``fit_local`` per shard.

The fits must be the same doubles, and a list with a failing shard must
raise the error the per-shard loop raises: same class, same message, from
the same (first failing) shard.
"""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import expit

from robustagg import distsim, models, numkit
from robustagg.distsim import ContaminationKind, ContaminationSpec, StudyConfig, run_replicate
from robustagg.errors import DimensionError, RankDeficiencyError, SeparationError
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
        assert (g.n_k, g.server_id, g.newton_iters, g.sigma_pd) == (
            w.n_k,
            w.server_id,
            w.newton_iters,
            w.sigma_pd,
        )
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

        def spy(model, group, *args):
            groups.append([s.n for s in group])
            return fit_group(model, group, *args)

        monkeypatch.setattr(models, "_fit_group", spy)
        got = fit_shards(model, shards)
        assert sorted(groups) == [[50, 50, 50], [70, 70], [90, 90], [120]]
        assert_same_fits(got, want)

    def test_passes_are_bounded_by_stack_entries(self, monkeypatch):
        # n * (p + p(p+1)/2) = 40 * 9 entries per shard; a budget of three
        # shards splits seven into passes of 3, 3 and a lone shard, which
        # fit_local fits.  A bad shard in the second pass fails only that pass.
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


def test_replicate_calls_sandwich_only_for_contaminated_servers(monkeypatch):
    config = StudyConfig(
        model=models.ModelKind.LINEAR,
        theta0=(1.0, -1.0, 0.5, 2.0, 0.0),
        n_servers=400,
        shard_size=50,
        contamination=ContaminationSpec(kind=ContaminationKind.GAUSSIAN),
        replicates=2,
    )
    calls = []
    for module in (models, distsim):
        original = module.sandwich_variance

        def counted(*args, _original=original, **kwargs):
            calls.append(1)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, "sandwich_variance", counted)
    run_replicate(config, 0)
    assert len(calls) == config.contamination.resolved_count(400) == 4

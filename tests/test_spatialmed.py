import math

import numpy as np
import pytest
from scipy.optimize import minimize

from robustagg import numkit, spatialmed
from robustagg.aggregate import LocalEstimate
from robustagg.spatialmed import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    SpatialMedianResult,
    _first_order,
    _newton_path,
    _norms,
    _rounding_floor,
    _settle,
    aggregate_sigma,
    spatial_median,
    weighted_median,
)

# Variance aggregation of the desk omniscient design (K=20, n=1000) at base
# seed 102008, replicate 5: the two corrupted servers' repaired matrices and
# 18 honest ones, each weighted sqrt(1000).
STALL_WEIGHT = 31.622776601683793
STALL_POINTS = [
    (1e-05, 0.0, 1e-05),
    (1e-05, 0.0, 1e-05),
    (16.501424320590488, 4.041142767434273, 8.849428801353566),
    (19.865669550929766, 7.225481208323417, 10.909969520511513),
    (14.875537987734594, 3.854548172380417, 9.069694244180399),
    (17.270548711810935, 4.60546305875828, 8.93409585865572),
    (15.238062647378193, 4.738508192697606, 8.786473316539738),
    (17.46407430786258, 3.7000868398429434, 8.315075114952624),
    (17.467103264163157, 5.402628389488984, 9.245907309297946),
    (15.88531722454154, 4.172497937651611, 7.943691644335262),
    (16.377473319792994, 3.364576093928898, 9.238185285863441),
    (19.70693912391762, 4.92524140475069, 9.224378436438897),
    (20.280469192514403, 5.900072289349732, 10.913770799350711),
    (20.15790088000809, 4.3172567545036795, 7.855288284215765),
    (18.306119733992663, 5.759902771952292, 9.909672344802587),
    (13.76961265767904, 3.856343198203254, 7.986930027948407),
    (19.324847712432913, 6.555020016470913, 10.09822903700545),
    (17.57251325805396, 4.980001972106363, 8.922085482332728),
    (18.43998946180087, 4.12281265000564, 8.595342075714125),
    (19.14269989718057, 3.808241241410275, 8.012776479178362),
]

# The same design at base seed 306041, replicate 9.  The optimum sits 1.6e-5
# from the honest point (17.048..., 4.847..., 9.751...), so Weiszfeld crawls:
# its residual is still 1.06e-7 after 500 iterations (floor 1.77e-8) and
# reaches the floor only after ~20,000.
CRAWL_POINTS = STALL_POINTS[:2] + [
    (19.648119301116868, 5.643912339613571, 9.425114805223357),
    (23.08850474678054, 6.129303303685358, 11.23600708195954),
    (18.904288038453938, 5.390152263050455, 10.396343334151274),
    (17.1867396331733, 4.00746376288683, 9.17436919251492),
    (13.460909770478095, 3.3182681903944795, 8.147688859512108),
    (20.10526038188553, 5.304925637536467, 9.341392067241962),
    (16.053545900561197, 5.2613479785217985, 10.384185864809588),
    (17.889073097422802, 5.407943476497085, 10.489701812208247),
    (15.271027036269453, 4.402028573326418, 9.130501364817635),
    (16.01582755415451, 4.16752700128067, 9.07583171764413),
    (15.494773130267136, 5.444022564434471, 11.78075167377312),
    (18.300805677900193, 5.209549227739174, 9.235173518995138),
    (17.04814024044802, 4.847509821343461, 9.751947945945838),
    (19.692952771382974, 6.347897665295369, 10.985107627493178),
    (15.331985072603729, 4.228722757499355, 9.062871177316998),
    (24.240700483236257, 7.194861674216704, 10.174146757308918),
    (13.285782805190175, 3.80216175261803, 8.387476195699737),
    (21.205559558923632, 8.447688769821713, 13.077562490186585),
]


def residual_and_floor(points, eta):
    x = np.array(points)
    w = np.full(len(x), STALL_WEIGHT)
    diff = x - eta
    foc = float(np.linalg.norm((STALL_WEIGHT / np.linalg.norm(diff, axis=1)) @ diff))
    return foc, _rounding_floor(x, w, eta)


# The vertices of an equilateral triangle, whose optimum is the centre.
TRIANGLE = np.array([[math.cos(a), math.sin(a)] for a in (0.0, 2 * math.pi / 3, 4 * math.pi / 3)])


def stack(pts):
    """The ``(value, weight)`` pairs ``pts`` as ``spatial_median``'s
    ``(K, d)`` points and K weights."""
    pts = list(pts)
    return np.array([v for v, _ in pts], dtype=float), np.array([c for _, c in pts], dtype=float)


def objective(x, w, eta):
    return math.fsum(float(c) * float(np.linalg.norm(v - eta)) for v, c in zip(x, w))


def nelder_mead_oracle(x, w, rng, starts=10):
    """Derivative-free minimizer of the weighted-distance objective."""
    best = math.inf
    x0s = list(x[: max(1, starts // 2)])
    while len(x0s) < starts:
        x0s.append(rng.standard_normal(x.shape[1]) * 2.0)
    for x0 in x0s:
        res = minimize(
            lambda eta: objective(x, w, eta),
            x0,
            method="Nelder-Mead",
            options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 20000, "maxfev": 20000},
        )
        best = min(best, float(res.fun))
    return best


class TestWeightedMedian:
    def test_plain_median(self):
        assert weighted_median([3.0, 1.0, 2.0], [1.0, 1.0, 1.0]) == 2.0

    def test_heavy_value_wins(self):
        assert weighted_median([0.0, 10.0], [1.0, 9.0]) == 10.0

    def test_columns_are_the_one_dimensional_medians(self):
        # The columns of a (K, d) array, sorted and summed in one call each,
        # against the 1-D rule written out: a stable argsort, the running
        # weight and searchsorted.  Ties, signed zeros and unequal weights.
        def one_column(values, weights):
            order = np.argsort(values, kind="stable")
            cum = np.cumsum(weights[order])
            idx = int(np.searchsorted(cum, cum[-1] / 2.0))
            return values[order][min(idx, values.size - 1)]

        rng = np.random.default_rng(8)
        for trial in range(300):
            k, d = int(rng.integers(1, 40)), int(rng.integers(1, 8))
            x = rng.standard_normal((k, d)) * 10.0 ** rng.uniform(-5.0, 5.0, d)
            if trial % 3 == 0:
                x = np.round(x)
            x[rng.random((k, d)) < 0.1] = -0.0
            w = np.ones(k) if trial % 4 == 0 else rng.random(k) ** 3 * 10.0 ** rng.uniform(-3.0, 3.0, k)
            want = np.array([one_column(col, w) for col in x.T])
            assert weighted_median(x, w).tobytes() == want.tobytes()
            assert weighted_median(x[:, 0], w) == want[0]


class TestSpatialMedian:
    def test_all_points_equal(self):
        res = spatial_median(np.tile([1.0, -2.0], (6, 1)), np.full(6, 3.0))
        assert np.array_equal(res.eta, [1.0, -2.0])
        assert res.anchored
        assert res.objective == 0.0

    def test_one_dimensional_weighted_median(self):
        # Equal weights on {0, 1, 10}: the objective is piecewise linear and
        # minimized at the middle point.  Grid oracle confirms.
        x, w = np.array([[0.0], [1.0], [10.0]]), np.ones(3)
        grid = np.linspace(-2.0, 12.0, 2801)
        grid_best = grid[np.argmin([objective(x, w, np.array([g])) for g in grid])]
        assert grid_best == pytest.approx(1.0, abs=0.01)
        res = spatial_median(x, w)
        assert res.eta[0] == pytest.approx(1.0, abs=1e-12)
        assert res.anchored

    def test_equilateral_triangle_centroid(self):
        res = spatial_median(TRIANGLE, np.ones(3))
        assert np.abs(res.eta).max() <= 1e-9

    def test_two_points_heavy_anchor(self):
        # Subgradient check by hand: at the heavy point the pull of the light
        # point has norm 1 <= 10, so the heavy point is optimal.
        res = spatial_median(np.array([[0.0, 0.0], [5.0, 1.0]]), [10.0, 1.0])
        assert np.array_equal(res.eta, [0.0, 0.0])
        assert res.anchored

    def test_two_points_equal_weights_midpoint(self):
        res = spatial_median(np.array([[0.0, 0.0], [4.0, 2.0]]), [2.0, 2.0])
        assert np.allclose(res.eta, [2.0, 1.0])
        assert not res.anchored

    def test_translation_equivariance(self):
        rng = np.random.default_rng(3)
        x, w = stack((rng.standard_normal(3), rng.uniform(0.5, 4.0)) for _ in range(9))
        t = np.array([5.0, -2.0, 0.25])
        base = spatial_median(x, w)
        shifted = spatial_median(x + t, w)
        assert np.abs(shifted.eta - (base.eta + t)).max() <= 1e-10

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(5)
        x, w = stack((rng.standard_normal(3), rng.uniform(0.5, 4.0)) for _ in range(9))
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        base = spatial_median(x, w)
        rotated = spatial_median(x @ q.T, w)
        assert np.abs(rotated.eta - q @ base.eta).max() <= 1e-8

    def test_objective_matches_derivative_free_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            k = int(rng.integers(3, 8))
            d = int(rng.integers(1, 4))
            x, w = stack((rng.standard_normal(d), math.sqrt(rng.integers(1, 50))) for _ in range(k))
            res = spatial_median(x, w)
            oracle = nelder_mead_oracle(x, w, rng)
            assert res.objective <= oracle + 1e-6
            assert abs(res.objective - oracle) <= 1e-6

    def test_breakdown_resistance(self):
        # floor(100^(1/4)) = 3 contaminated points at magnitude 1e6 move the
        # median by less than 10x the clean-case error.
        rng = np.random.default_rng(11)
        eta0 = np.array([1.0, -0.5, 2.0])
        clean = np.array([eta0 + 0.05 * rng.standard_normal(3) for _ in range(100)])
        clean_err = float(np.linalg.norm(spatial_median(clean, np.ones(100)).eta - eta0))
        dirty = np.vstack([clean[3:], np.full((3, 3), 1e6)])
        dirty_err = float(np.linalg.norm(spatial_median(dirty, np.ones(100)).eta - eta0))
        assert dirty_err <= 10 * max(clean_err, 1e-3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one point"):
            spatial_median(np.empty((0, 2)), np.empty(0))

    def test_iteration_cap_carries_best_iterate(self, monkeypatch):
        from robustagg.errors import NonConvergenceError

        # From the start, a few Newton steps reach the optimum (see the
        # test below); with one, the cap raises.
        monkeypatch.setattr(spatialmed, "DEFAULT_MAX_ITER", 0)
        monkeypatch.setattr(spatialmed, "_NEWTON_STEPS", 1)
        with pytest.raises(NonConvergenceError) as excinfo:
            spatial_median(TRIANGLE, np.ones(3))
        assert excinfo.value.best is not None

    def test_cap_settles_by_newton_steps_from_the_best_iterate(self, monkeypatch):
        # Weiszfeld starts at the coordinate-wise median, off the centre.
        monkeypatch.setattr(spatialmed, "DEFAULT_MAX_ITER", 0)
        res = spatial_median(TRIANGLE, np.ones(3))
        assert res.iterations == 0 and not res.anchored
        assert np.abs(res.eta).max() <= 1e-10

    def test_rounding_stall_returns_best_iterate(self):
        # The vech points of desk omniscient replicate 5 at base seed 102008.
        # Weiszfeld's residual bottoms out at 1.24e-10 > tol = 1e-10, below
        # its own rounding floor of 2.80e-10, so the cap returns the best
        # iterate instead of raising.
        x, w = np.array(STALL_POINTS), np.full(len(STALL_POINTS), STALL_WEIGHT)
        res = spatial_median(x, w)
        assert res.iterations == DEFAULT_MAX_ITER
        assert not res.anchored
        foc, floor = residual_and_floor(STALL_POINTS, res.eta)
        assert DEFAULT_TOL < foc <= floor
        assert res.objective == pytest.approx(objective(x, w, res.eta), rel=1e-14)

    def test_crawl_next_to_a_data_point_ends_with_a_newton_step(self, monkeypatch):
        x, w = np.array(CRAWL_POINTS), np.full(len(CRAWL_POINTS), STALL_WEIGHT)
        res = spatial_median(x, w)
        assert res.iterations == DEFAULT_MAX_ITER
        assert not res.anchored
        foc, floor = residual_and_floor(CRAWL_POINTS, res.eta)
        assert foc <= floor
        # Weiszfeld itself gets there only with 40 times the budget.
        monkeypatch.setattr(spatialmed, "DEFAULT_MAX_ITER", 40 * DEFAULT_MAX_ITER)
        slow = spatial_median(x, w)
        assert np.abs(res.eta - slow.eta).max() <= 1e-9
        assert res.objective <= slow.objective * (1.0 + 1e-15)

    @pytest.mark.parametrize("points", [STALL_POINTS, CRAWL_POINTS])
    def test_unconverged_iterate_still_raises(self, points, monkeypatch):
        from robustagg.errors import NonConvergenceError

        monkeypatch.setattr(spatialmed, "DEFAULT_MAX_ITER", 1)
        with pytest.raises(NonConvergenceError) as excinfo:
            spatial_median(np.array(points), np.full(len(points), STALL_WEIGHT))
        foc, floor = residual_and_floor(points, excinfo.value.best)
        assert foc == pytest.approx(excinfo.value.residual) and foc > floor

    @pytest.mark.parametrize("direction", [(1.0,), (1.0, 0.0, 1.0)])
    def test_even_count_on_a_line_settles_on_the_middle_segment(self, direction):
        # Twenty equal weights on one line, as in every p = 1 study (and p = 2
        # with matrices proportional to I): every point between the two
        # middle ones is optimal.  The iterate starts on a middle point whose
        # pull equals its weight; when rounding rejects it, Weiszfeld stays
        # there until the cap, where about a third of these draws used to
        # raise.  They now return the segment's midpoint, unanchored.
        rng = np.random.default_rng(5)
        unit = np.asarray(direction)
        settled = 0
        for _ in range(30):
            t = np.sort(rng.uniform(0.5, 2.0, 20))
            x, w = t[:, None] * unit, np.full(20, STALL_WEIGHT)
            res = spatial_median(x, w)
            middle = [x[9], x[10]]
            if res.anchored:
                assert any(np.array_equal(res.eta, m) for m in middle)
            elif res.iterations == DEFAULT_MAX_ITER:
                assert np.array_equal(res.eta, (middle[0] + middle[1]) / 2.0)
                settled += 1
            best = objective(x, w, middle[0])
            assert res.objective <= best * (1.0 + 1e-14)
        assert settled > 0

    def test_point_within_rounding_of_its_pull_is_anchored_at_the_cap(self):
        # Pulls 0.6 and 0.8 at right angles: |pull| = 1 = w_0, so point 0 is
        # optimal and unique (the points are not collinear).
        x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        scale = np.ones(3)
        eta, anchored = _settle(x, np.array([1.0, 0.6, 0.8]), scale, x[0], 0)
        assert anchored and np.array_equal(eta, x[0])
        assert _settle(x, np.array([0.99, 0.6, 0.8]), scale, x[0], 0) is None

    def test_result_type(self):
        res = spatial_median(np.array([[0.0], [1.0], [2.0]]), np.ones(3))
        assert isinstance(res, SpatialMedianResult)
        assert res.iterations >= 0


class TestNewtonPath:
    @staticmethod
    def run(monkeypatch, x, w, eta):
        """The iterates of ``_newton_path`` from ``eta``, and each solve's
        step, None where it raised."""
        steps = []
        solve = np.linalg.solve

        def spy(a, b):
            steps.append(None)  # stays None if the solve raises
            steps[-1] = solve(a, b)
            return steps[-1]

        monkeypatch.setattr(np.linalg, "solve", spy)
        scale = np.maximum(1.0, _norms(x))
        return list(_newton_path(x, w, scale, eta, _first_order(x, w, scale, eta))), steps

    def test_singular_hessian_ends_the_path(self, monkeypatch):
        # On a line every u_k u_k^T is 1, so the Hessian is exactly 0.
        x = np.array([[0.0], [1.0], [2.5]])
        iterates, steps = self.run(monkeypatch, x, np.ones(3), np.array([0.5]))
        assert iterates == [] and steps == [None]

    def test_step_onto_a_data_point_ends_the_path(self, monkeypatch):
        # From 0, u_1 = (1, 0) at distance 2 with weight 2 and u_2 at 120
        # degrees, distance 1, weight 1: cos = -w_2 / w_1 and d_2 / d_1 =
        # w_2 / w_1 put the Newton step on x_1, where the residual is undefined.
        x = np.array([[2.0, 0.0], [-0.5, math.sqrt(3.0) / 2.0]])
        iterates, steps = self.run(monkeypatch, x, np.array([2.0, 1.0]), np.zeros(2))
        assert iterates == [] and len(steps) == 1
        assert np.abs(steps[0] - x[0]).max() <= 1e-12


def merge_reference(x, w):
    """Exactly equal rows (``np.unique``'s comparison) collapsed, weights
    summed; rows and weights as they are when no two rows are equal."""
    uniq, inverse = np.unique(x, axis=0, return_inverse=True)
    if uniq.shape[0] == x.shape[0]:
        return x, w
    merged = np.zeros(uniq.shape[0])
    np.add.at(merged, inverse, w)
    return uniq, merged


class TestMergeDuplicates:
    @staticmethod
    def merged(x, w=None):
        """``_merge_duplicates`` of ``x``, checked against the reference,
        with the number of ``np.unique`` calls it made."""
        x = np.asarray(x, dtype=float)
        w = np.arange(1.0, x.shape[0] + 1.0) if w is None else w
        calls = []
        unique = np.unique

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return unique(*args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np, "unique", counting)
            got_x, got_w = spatialmed._merge_duplicates(x, w)
        want_x, want_w = merge_reference(x, w)
        assert got_x.tobytes() == want_x.tobytes() and got_w.tobytes() == want_w.tobytes()
        return got_x, got_w, len(calls)

    def test_distinct_rows_come_back_without_unique(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((400, 15))
        w = rng.uniform(1.0, 10.0, 400)
        got_x, got_w, calls = self.merged(x, w)
        assert got_x is x and got_w is w and calls == 0

    def test_signed_zeros_are_merged(self):
        got_x, got_w, calls = self.merged([[0.0, 1.0], [2.0, 3.0], [-0.0, 1.0], [4.0, -0.0]])
        assert got_x.shape == (3, 2) and calls == 1
        assert got_w.sum() == 10.0 and 4.0 in got_w

    @pytest.mark.parametrize("d", [1, 2, 7, 15])
    def test_exact_duplicates_anywhere_are_merged(self, d):
        rng = np.random.default_rng(12 + d)
        x = rng.standard_normal((400, d))
        src = rng.integers(0, 400, 30)
        dst = rng.integers(0, 400, 30)
        x[dst] = x[src]
        got_x, got_w, calls = self.merged(x)
        assert calls == 1 and got_x.shape[0] < 400
        assert got_w.sum() == pytest.approx(400 * 401 / 2)

    def test_rows_a_bit_apart_are_kept_apart(self):
        x = np.array([[1.0, 2.0], [np.nextafter(1.0, 2.0), 2.0], [1.0, np.nextafter(2.0, 0.0)]])
        got_x, _, _ = self.merged(x)
        assert got_x.shape == (3, 2)

    def test_colliding_projections_go_to_unique_and_stay_apart(self):
        # Distinct rows, but the second coordinate is lost beside the first
        # in any projection on weights of moderate size: the one call of
        # np.unique is the collision's.
        x = np.array([[1e20, 0.0], [1e20, 1e-20], [3.0, 4.0]])
        got_x, _, calls = self.merged(x)
        assert calls == 1 and got_x.shape == (3, 2)

    def test_rows_near_the_largest_double_go_to_unique(self):
        # Their projections overflow to inf and inf - inf: no proof of
        # distinct rows, so unique decides, and silently.
        x = np.array([[1.5e308, 1.5e308], [1.5e308, -1.5e308], [-1.5e308, 1.0], [1.5e308, 1.5e308]])
        with np.errstate(all="raise"):
            got_x, got_w, calls = self.merged(x)
        assert calls == 1 and got_x.shape == (3, 2)
        x = x[:3]
        got_x, _, calls = self.merged(x)
        assert calls == 1 and got_x is x


class TestAggregateSigma:
    def test_identical_identity_matrices(self):
        ests = [
            LocalEstimate(sid, int(10 * sid), np.zeros(2), np.eye(2))
            for sid in range(1, 8)
        ]
        out = aggregate_sigma(ests).sym
        assert np.allclose(out, np.eye(2), atol=1e-12)

    def test_minority_indefinite_outlier_repaired(self):
        # Nine identity matrices and one diag(1, -1): the outlier is repaired
        # to diag(1, 1e-5) and outvoted; result stays within 1e-3 of identity.
        ests = [
            LocalEstimate(sid, 10, np.zeros(2), np.eye(2)) for sid in range(1, 10)
        ]
        ests.append(LocalEstimate(10, 10, np.zeros(2), np.diag([1.0, -1.0])))
        res = aggregate_sigma(ests)
        out = res.sym
        assert np.linalg.norm(out - np.eye(2)) <= 1e-3
        assert res.values[-1] > 0.0
        # Oracle: derivative-free minimizer over the vech objective agrees.
        x = np.array([numkit.vech(np.eye(2))] * 9 + [numkit.vech(np.diag([1.0, 1e-5]))])
        w = np.full(10, math.sqrt(10))
        oracle = nelder_mead_oracle(x, w, np.random.default_rng(13))
        ours = objective(x, w, numkit.vech(out))
        assert ours <= oracle + 1e-6

    def test_single_server_passthrough(self):
        sigma = np.array([[2.0, 0.3], [0.3, 1.0]])
        out = aggregate_sigma([LocalEstimate(1, 25, np.zeros(2), sigma)]).sym
        assert np.allclose(out, sigma)

    def test_single_server_repaired(self):
        out = aggregate_sigma([LocalEstimate(1, 25, np.zeros(2), np.diag([1.0, -1.0]))]).sym
        assert np.allclose(out, np.diag([1.0, 1e-5]))

    def test_asymmetric_input_symmetrized(self):
        skew = np.array([[2.0, 0.5], [0.1, 1.0]])
        out = aggregate_sigma([LocalEstimate(1, 25, np.zeros(2), skew)]).sym
        assert np.array_equal(out, out.T)
        assert out[0, 1] == pytest.approx(0.3)

    @pytest.mark.parametrize("big", [1e155, 1e300])
    def test_one_huge_finite_matrix_is_outvoted(self, big):
        # np.linalg.norm squares the entries, so from ~1.3e154 on the huge
        # point's norm was inf and every distance to it nan: the median lost
        # positive definiteness.  Seen from the 19 others, the huge point
        # pulls along the same direction as a 1e150 one.
        def aggregate(entry):
            ests = [
                LocalEstimate(k, 100, np.zeros(2), np.eye(2) * (1.0 + 0.01 * k))
                for k in range(19)
            ]
            ests.append(LocalEstimate(19, 100, np.zeros(2), np.full((2, 2), entry) + np.eye(2)))
            return aggregate_sigma(ests)

        out = aggregate(big)
        assert out.values[-1] > 0.0
        assert np.allclose(out.sym, aggregate(1e150).sym, rtol=0.0, atol=1e-12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("big", [1e155, 1e300])
    def test_one_huge_finite_matrix_warns_of_nothing(self, big):
        self.test_one_huge_finite_matrix_is_outvoted(big)

    def test_norms_rescale_only_rows_that_overflow(self):
        rows = np.array([[3e200, -4e200], [0.3, 0.4], [1e-200, 0.0], [1e308, 1e308]])
        with np.errstate(over="ignore"):  # as spatial_median calls it
            norms = _norms(rows)
        assert norms[0] == pytest.approx(5e200, rel=1e-15)
        assert norms[3] == pytest.approx(math.sqrt(2.0) * 1e308, rel=1e-15)
        assert norms[1:3].tobytes() == np.linalg.norm(rows[1:3], axis=1).tobytes()

    def test_non_convergence_propagates(self, monkeypatch):
        from robustagg.errors import NonConvergenceError

        # Three matrices whose vech points form a triangle: the optimum is
        # interior, so a zero iteration budget cannot reach it.
        sigmas = [np.eye(2), np.diag([2.0, 1.0]), np.diag([1.0, 2.0])]
        ests = [
            LocalEstimate(sid, 10, np.zeros(2), s)
            for sid, s in enumerate(sigmas, start=1)
        ]
        monkeypatch.setattr(spatialmed, "DEFAULT_MAX_ITER", 0)
        with pytest.raises(NonConvergenceError):
            aggregate_sigma(ests)

    def test_pd_preservation_randomized(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            k = int(rng.integers(1, 51))
            p = int(rng.integers(1, 7))
            ests = []
            for sid in range(1, k + 1):
                q, _ = np.linalg.qr(rng.standard_normal((p, p)))
                sigma = (q * rng.uniform(0.05, 5.0, size=p)) @ q.T
                if rng.random() < 0.1:
                    sigma = sigma - 2.0 * np.eye(p)  # inject an indefinite outlier
                ests.append(
                    LocalEstimate(sid, int(rng.integers(1, 1000)), np.zeros(p), sigma)
                )
            assert aggregate_sigma(ests).values[-1] > 0.0

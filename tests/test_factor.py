"""Factor-analysis numerics: closed-form oracles and structural properties."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    EFA_GENERATOR_LOADINGS,
    EFA_VARIABLE_NAMES,
    efa_population_correlation,
)
from oss_health import factor as factor_module
from oss_health.factor import (
    CONVERGED_GRADIENT,
    PA_CHUNK,
    PA_QUANTILE,
    PA_SIMULATIONS,
    PSI_FLOOR,
    IdentificationError,
    _curvatures,
    _loadings_from_psi,
    _newton_step,
    _noise_correlations,
    _profiled_objective,
    _reduced_eigenvalues,
    align_columns,
    assign_indicators,
    comparative_fit_index,
    correlation_matrix,
    cronbach_alpha,
    efa_fit_indices,
    efa_ml,
    eigenvalues,
    mcdonald_omega,
    newton_minimise,
    parallel_analysis,
    rotate_solution,
    srmr,
    variance_table,
    varimax,
    varimax_criterion,
)


def one_factor_population(p=4, lam=0.8):
    L = np.full((p, 1), lam)
    R = L @ L.T
    np.fill_diagonal(R, 1.0)
    return R


class TestCorrelationMatrix:
    def test_identical_columns_rejected_vs_perfect(self):
        X = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
        R = correlation_matrix(X)
        assert R[0, 1] == pytest.approx(1.0)

    def test_reverse_scored_column_is_minus_one(self):
        x = np.array([1.0, 4.0, 2.0, 9.0])
        X = np.column_stack([x, 14.0 + 1.0 - x])
        assert correlation_matrix(X)[0, 1] == pytest.approx(-1.0)

    def test_constant_column_named(self):
        X = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        with pytest.raises(ValueError, match="alexa"):
            correlation_matrix(X, names=["stars", "alexa"])


class TestEigenvalues:
    def test_identity(self):
        assert np.allclose(eigenvalues(np.eye(9)), np.ones(9))

    def test_two_by_two_closed_form(self):
        R = np.array([[1.0, 0.3], [0.3, 1.0]])
        assert np.allclose(eigenvalues(R), [1.3, 0.7])

    def test_sum_equals_trace(self):
        R = efa_population_correlation()
        assert eigenvalues(R).sum() == pytest.approx(np.trace(R), abs=1e-8)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            eigenvalues(np.array([[1.0, 0.5], [0.2, 1.0]]))


def per_simulation_reference(X, seed):
    """Parallel analysis's simulated (mean, quantile) eigenvalues, one draw at a time."""
    n, p = X.shape
    sims = []
    for child in np.random.SeedSequence(seed).spawn(PA_SIMULATIONS):
        R = correlation_matrix(np.random.default_rng(child).standard_normal((n, p)))
        np.fill_diagonal(R, 1.0 - 1.0 / np.diag(np.linalg.inv(R)))
        sims.append(np.sort(np.linalg.eigvalsh(R))[::-1])
    return np.mean(sims, axis=0), np.quantile(sims, PA_QUANTILE, axis=0)


def whole_draw_reference(n, p, seed):
    """Simulated (mean, quantile) eigenvalues from all ``PA_SIMULATIONS`` draws in one array."""
    noise = np.empty((PA_SIMULATIONS, n, p))
    for child, out in zip(np.random.SeedSequence(seed).spawn(PA_SIMULATIONS), noise):
        np.random.default_rng(child).standard_normal(out=out)
    sims = _reduced_eigenvalues(_noise_correlations(noise))
    return sims.mean(axis=0), np.quantile(sims, PA_QUANTILE, axis=0)


def one_block(X, seed):
    """Parallel analysis of one data matrix on its own."""
    return parallel_analysis([(correlation_matrix(X), len(X))], seed=seed)[0]


def assert_same_analysis(a, b):
    assert np.array_equal(a.observed_eigenvalues, b.observed_eigenvalues)
    assert np.array_equal(a.simulated_mean_eigenvalues, b.simulated_mean_eigenvalues)
    assert np.array_equal(a.simulated_quantile_eigenvalues, b.simulated_quantile_eigenvalues)
    assert a.suggested_factors == b.suggested_factors


class TestParallelAnalysis:
    def _factor_data(self, seed, n=384):
        R = efa_population_correlation()
        rng = np.random.default_rng(seed)
        return rng.standard_normal((n, 9)) @ np.linalg.cholesky(R).T

    @pytest.mark.parametrize("p", [9, 3])
    def test_batched_matches_per_simulation_loop(self, p):
        X = self._factor_data(7, n=150)[:, :p]
        result = one_block(X, 4)
        mean, qtl = per_simulation_reference(X, 4)
        np.testing.assert_allclose(result.simulated_mean_eigenvalues, mean, rtol=0, atol=1e-12)
        np.testing.assert_allclose(result.simulated_quantile_eigenvalues, qtl, rtol=0, atol=1e-12)
        expected = 0
        for obs, thr in zip(result.observed_eigenvalues, qtl):
            if obs <= thr:
                break
            expected += 1
        assert result.suggested_factors == expected

    def test_deterministic(self):
        X = self._factor_data(0)
        a = one_block(X, 11)
        b = one_block(X, 11)
        assert a.suggested_factors == b.suggested_factors
        assert np.array_equal(a.simulated_mean_eigenvalues, b.simulated_mean_eigenvalues)

    def test_two_factor_data_suggests_two(self):
        assert one_block(self._factor_data(5), 1).suggested_factors == 2

    def test_blocks_share_one_draw_bitwise(self):
        # the longest block is not first
        X = self._factor_data(3, n=150)
        blocks = [X[:77], X, X[77:]]
        together = parallel_analysis([(correlation_matrix(B), len(B)) for B in blocks], seed=9)
        assert len(together) == 3
        for B, result in zip(blocks, together):
            assert_same_analysis(result, one_block(B, 9))

    @pytest.mark.parametrize("n", [150, 77, 73])
    def test_one_block_equals_one_whole_draw(self, n):
        X = self._factor_data(3, n=150)[:n]
        mean, qtl = whole_draw_reference(n, 9, 9)
        result = one_block(X, 9)
        assert np.array_equal(result.simulated_mean_eigenvalues, mean)
        assert np.array_equal(result.simulated_quantile_eigenvalues, qtl)

    @pytest.mark.parametrize("n", [384, 77, 3])
    def test_gram_form_equals_corrcoef_per_draw(self, n):
        # the draws are a view into a longer buffer, as parallel_analysis slices them
        noise = np.random.default_rng(n).standard_normal((PA_CHUNK, 400, 9))[:, :n]
        R = _noise_correlations(noise)
        for draw, Rk in zip(noise, R):
            np.testing.assert_allclose(Rk, np.corrcoef(draw, rowvar=False), rtol=0, atol=1e-14)
            assert np.array_equal(Rk, Rk.T) and np.all(np.diag(Rk) == 1.0)

    def test_peak_memory_is_one_chunk_of_noise(self):
        n, p = 3000, 9
        X = self._factor_data(3, n=n)
        blocks = [(correlation_matrix(X[: n // 2]), n // 2), (correlation_matrix(X), n)]
        tracemalloc.start()
        try:
            parallel_analysis(blocks, seed=9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the chunk buffer plus the correlations' temporaries, far below all simulations' noise
        assert peak < 3 * PA_CHUNK * n * p * 8 < PA_SIMULATIONS * n * p * 8

    def test_blocks_on_different_variables_rejected(self):
        X = self._factor_data(3, n=150)
        with pytest.raises(ValueError, match="share their variables"):
            parallel_analysis([(correlation_matrix(X), 150), (correlation_matrix(X[:, :5]), 150)])


class TestEfaMl:
    def test_zero_residual_one_factor_recovery(self):
        R = one_factor_population()
        solution, fit = efa_ml(R, n=500, m=1)
        assert np.allclose(solution.loadings[:, 0], 0.8, atol=1e-4)
        assert np.allclose(solution.uniquenesses, 0.36, atol=1e-4)
        assert fit.chi_square < 1e-6
        assert solution.minimum.converged

    def test_identification_error(self):
        with pytest.raises(IdentificationError):
            efa_ml(one_factor_population(), n=100, m=3)

    @pytest.mark.parametrize("seed, m", [(0, 2), (1, 2), (2, 1), (3, 3)])
    def test_start_at_a_cold_solution_returns_it(self, seed, m):
        X = np.random.default_rng(seed).standard_normal((384, 9))
        R = correlation_matrix(X @ np.linalg.cholesky(efa_population_correlation()).T)
        cold, _ = efa_ml(R, n=384, m=m)
        warm, _ = efa_ml(R, n=384, m=m, start=cold.uniquenesses)
        assert warm.minimum.converged and warm.minimum.iterations <= 2
        np.testing.assert_allclose(warm.uniquenesses, cold.uniquenesses, rtol=0, atol=1e-6)

    def test_communality_identity(self):
        solution, _ = efa_ml(efa_population_correlation(), n=384, m=2)
        assert np.allclose(
            solution.communalities + solution.uniquenesses, 1.0, atol=1e-5
        )
        assert solution.ss_loadings.sum() == pytest.approx(
            solution.communalities.sum(), abs=1e-8
        )

    def test_bartlett_chi_square_scale(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((384, 9)) @ np.linalg.cholesky(efa_population_correlation()).T
        R = correlation_matrix(X)
        solution, fit = efa_ml(R, n=384, m=1)  # deliberately under-factored
        assert solution.minimum.converged and solution.minimum.iterations <= 50
        p, m = 9, 1
        assert fit.df == ((p - m) ** 2 - p - m) // 2
        assert fit.chi_square > fit.df  # misfit shows up
        assert fit.bic == pytest.approx(fit.chi_square - fit.df * math.log(384))

    def test_criterion_one_samples_converge_in_few_iterations(self):
        L = np.linalg.cholesky(efa_population_correlation())
        for seed in range(100):
            X = np.random.default_rng(seed).standard_normal((384, 9)) @ L.T
            solution, _ = efa_ml(correlation_matrix(X), n=384, m=2)
            assert solution.minimum.converged, seed
            assert solution.minimum.max_abs_gradient <= CONVERGED_GRADIENT, seed
            assert 1 <= solution.minimum.iterations <= 30, seed

    def test_criterion_one_samples_stop_well_inside_converged(self):
        # a rounding floor set too loose would stop fits with |grad| near the verdict's bound
        L = np.linalg.cholesky(efa_population_correlation())
        for seed in range(50):
            X = np.random.default_rng(seed).standard_normal((384, 9)) @ L.T
            minimum = efa_ml(correlation_matrix(X), n=384, m=2)[0].minimum
            assert minimum.converged and minimum.max_abs_gradient <= CONVERGED_GRADIENT / 4, seed

    @pytest.mark.parametrize("seed, first", [(0, 0), (3, 3)])
    def test_saturated_three_indicator_fit_stops_at_f_zero(self, seed, first):
        # one factor on 3 indicators has df = 0; F reaches 0, where every
        # further step is below F's rounding and no halving can pass
        X = np.random.default_rng(seed).standard_normal((384, 9))
        R = correlation_matrix(X @ np.linalg.cholesky(efa_population_correlation()).T)
        block = slice(first, first + 3)
        solution, _ = efa_ml(R[block, block], n=384, m=1)
        assert solution.floored == [] and solution.minimum.value == 0.0
        assert solution.minimum.converged
        assert solution.minimum.evaluations <= solution.minimum.iterations + 5

    @pytest.mark.parametrize("seed, m", [(0, 2), (1, 2), (2, 1), (3, 1)])
    def test_no_free_uniqueness_move_lowers_f(self, seed, m):
        X = np.random.default_rng(seed).standard_normal((384, 9))
        R = correlation_matrix(X @ np.linalg.cholesky(efa_population_correlation()).T)
        solution, _ = efa_ml(R, n=384, m=m)
        psi = solution.uniquenesses
        fmin = _profiled_objective(R, psi, m)
        for i in set(range(9)) - set(solution.floored):
            for h in (1e-4, -1e-4):
                moved = psi.copy()
                moved[i] *= math.exp(h)
                if moved[i] <= 1.0:
                    assert _profiled_objective(R, moved, m) > fmin, (i, h)

    def test_heywood_variable_is_floored_and_converges(self):
        # variable 0 has loading 1, so its ML uniqueness is 0, below the floor
        L = np.array([[1.0], [0.8], [0.7], [0.6], [0.5], [0.4]])
        R = L @ L.T
        np.fill_diagonal(R, 1.0)
        solution, _ = efa_ml(R, n=384, m=1)
        assert solution.floored == [0]
        assert solution.uniquenesses[0] == pytest.approx(PSI_FLOOR)
        assert solution.minimum.converged
        assert solution.minimum.max_abs_gradient <= CONVERGED_GRADIENT

    def test_curvatures_match_finite_differences_and_closed_form(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((384, 9)) @ np.linalg.cholesky(efa_population_correlation()).T
        R = correlation_matrix(X)
        log_psi = np.log(rng.uniform(0.3, 0.8, 9))

        def gradient(x):
            psi = np.exp(x)
            loadings = _loadings_from_psi(R, psi, 2)[0]
            return ((loadings**2).sum(axis=1) + psi - 1.0) / psi

        psi = np.exp(log_psi)
        loadings, vals, vecs = _loadings_from_psi(R, psi, 2)
        hessian, information = _curvatures(vals, vecs, 2)
        steps = 1e-5 * np.eye(9)
        numeric = np.column_stack(
            [(gradient(log_psi + e) - gradient(log_psi - e)) / 2e-5 for e in steps]
        )
        assert np.allclose(hessian, numeric, atol=1e-8)
        sigma_inv = np.linalg.inv(loadings @ loadings.T + np.diag(psi))
        SL = sigma_inv @ loadings
        M = sigma_inv - SL @ np.linalg.solve(loadings.T @ SL, SL.T)
        assert np.allclose(information, M * M * np.outer(psi, psi), atol=1e-12)

    def test_doublet_exclusion_lowers_bic(self):
        # 9 generator variables plus an isolated response-time doublet:
        # a 2-factor model cannot absorb the doublet, so excluding the
        # pair must improve (lower) BIC, mirroring 276.252 -> -36.737.
        R9 = efa_population_correlation()
        R11 = np.eye(11)
        R11[:9, :9] = R9
        R11[9, 10] = R11[10, 9] = 0.8
        rng = np.random.default_rng(7)
        X = rng.standard_normal((384, 11)) @ np.linalg.cholesky(R11).T
        R_full = correlation_matrix(X)
        _, fit_full = efa_ml(R_full, n=384, m=2)
        _, fit_excl = efa_ml(R_full[:9, :9], n=384, m=2)
        assert fit_excl.bic < fit_full.bic


class TestVarimax:
    def test_block_diagonal_fixed_point(self):
        L = np.zeros((6, 2))
        L[:3, 0] = 0.8
        L[3:, 1] = 0.7
        rotated, _ = varimax(L)
        aligned = align_columns(L, rotated)
        assert np.allclose(aligned, L, atol=1e-8)

    def test_two_column_brute_force_oracle(self):
        rng = np.random.default_rng(3)
        L = rng.normal(size=(8, 2))
        rotated, rotation = varimax(L)
        best = max(
            varimax_criterion(
                L @ np.array(
                    [
                        [math.cos(t), -math.sin(t)],
                        [math.sin(t), math.cos(t)],
                    ]
                )
            )
            for t in np.arange(0.0, math.pi / 2, 1e-4)
        )
        assert varimax_criterion(rotated) == pytest.approx(best, abs=1e-3)
        assert np.allclose(rotated, L @ rotation)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_orthogonality_and_communalities(self, seed):
        rng = np.random.default_rng(seed)
        L = rng.normal(size=(rng.integers(3, 10), rng.integers(2, 4)))
        rotated, rotation = varimax(L)
        assert np.allclose(rotation.T @ rotation, np.eye(L.shape[1]), atol=1e-10)
        assert np.allclose(
            (rotated**2).sum(axis=1), (L**2).sum(axis=1), atol=1e-10
        )

    def test_one_column_unchanged(self):
        L = np.array([[0.5], [0.6]])
        rotated, rotation = varimax(L)
        assert np.array_equal(rotated, L)
        assert np.array_equal(rotation, np.eye(1))


class TestVarianceTable:
    def test_single_column(self):
        ss, cumulative, proportion = variance_table(np.full((4, 1), 0.5))
        assert ss[0] == pytest.approx(1.0)
        assert cumulative[0] == pytest.approx(0.25)
        assert proportion[0] == 1.0

    def test_proportions_sum_to_one(self):
        _, _, proportion = variance_table(EFA_GENERATOR_LOADINGS)
        assert proportion.sum() == pytest.approx(1.0)

    def test_generator_ss_matches_published_table(self):
        ss, cumulative, proportion = variance_table(EFA_GENERATOR_LOADINGS)
        assert np.allclose(ss, [2.787, 1.868], atol=2e-3)
        assert np.allclose(cumulative, [0.310, 0.517], atol=1e-3)
        assert np.allclose(proportion, [0.599, 0.401], atol=1e-3)


class TestFitIndices:
    def test_rmsea_zero_at_chi_equal_df(self):
        _, rmsea = efa_fit_indices(50.0, 50, 500.0, 45, 200)
        assert rmsea == 0.0

    def test_rmsea_closed_form(self):
        _, rmsea = efa_fit_indices(100.0, 50, 500.0, 45, 101)
        assert rmsea == pytest.approx(0.1)

    def test_tli_closed_form(self):
        tli, _ = efa_fit_indices(50.0, 40, 500.0, 45, 200)
        assert tli == pytest.approx((500 / 45 - 50 / 40) / (500 / 45 - 1), abs=1e-6)
        assert tli == pytest.approx(0.9753, abs=1e-4)

    def test_null_ratio_one_rejected(self):
        with pytest.raises(ZeroDivisionError):
            efa_fit_indices(10.0, 10, 45.0, 45, 100)

    def test_cfi_closed_form(self):
        cfi = comparative_fit_index(150.0, 50, 1000.0, 55)
        assert cfi == pytest.approx(1 - 100 / 945, abs=1e-6)
        assert cfi == pytest.approx(0.8942, abs=1e-4)

    def test_cfi_perfect_fit(self):
        assert comparative_fit_index(10.0, 20, 500.0, 45) == 1.0

    def test_srmr_zero_at_perfect_fit(self):
        R = efa_population_correlation()
        assert srmr(R, R) == 0.0

    def test_saturated_efa_block(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((384, 1)) * [0.8, 0.7, 0.6]
        X += rng.standard_normal((384, 3)) * [0.6, 0.71, 0.8]
        _, stats = efa_ml(correlation_matrix(X), n=384, m=1)
        assert stats.df == 0
        assert np.isnan(stats.tli)
        assert stats.rmsea == 0.0
        assert stats.cfi == pytest.approx(1.0, abs=1e-9)
        assert stats.bic == stats.chi_square


class TestNewtonMinimise:
    A = np.array([[2.0, 0.5], [0.5, 1.0]])

    def _quadratic(self, centre):
        """F = (x - c)' A (x - c) / 2, its gradient A (x - c) and exact H = A."""

        def objective(x):
            return 0.5 * float((x - centre) @ self.A @ (x - centre)), None

        def derivatives(x, _):
            return self.A @ (x - centre), lambda free: self.A[np.ix_(free, free)]

        return objective, derivatives

    def test_unbounded_quadratic_in_one_step(self):
        centre = np.array([2.0, 0.3])
        result = newton_minimise(*self._quadratic(centre), np.zeros(2))
        assert result.iterations == 1 and result.evaluations == 2
        np.testing.assert_allclose(result.x, centre, rtol=0, atol=1e-12)
        assert result.converged and result.max_abs_gradient <= CONVERGED_GRADIENT

    def test_box_holds_the_entry_whose_gradient_points_out(self):
        # the unconstrained minimum (2, 0.3) is above the box in x0; with
        # x0 = 1 the minimum in x1 is 0.3 + 0.5 = 0.8, inside it
        objective, derivatives = self._quadratic(np.array([2.0, 0.3]))
        result = newton_minimise(objective, derivatives, np.zeros(2), -1.0, 1.0)
        assert result.x[0] == 1.0
        assert result.x[1] == pytest.approx(0.8, abs=1e-12)
        grad, _ = derivatives(result.x, None)
        assert grad[0] == pytest.approx(-1.75)  # F falls out of the box
        assert result.max_abs_gradient == abs(grad[1]) <= CONVERGED_GRADIENT
        assert result.converged

    # efa_ml and fit_ml keep the last derivatives call's work as the
    # solution's, so it must be at the returned x on every way out

    @staticmethod
    def _run_recorded(objective, derivatives, x0):
        """(result, the x of the last derivatives call)."""
        seen = []

        def recorded(x, extra):
            seen.append(x.copy())
            return derivatives(x, extra)

        result = newton_minimise(objective, recorded, x0)
        return result, seen[-1]

    def test_last_derivatives_at_x_after_the_gradient_test(self):
        result, last = self._run_recorded(*self._quadratic(np.array([2.0, 0.3])), np.zeros(2))
        assert result.converged and result.iterations == 1
        assert np.array_equal(last, result.x)

    def test_last_derivatives_at_x_after_the_rounding_floor_exit(self):
        # F = x with H = 1e20: the step's predicted decrease, 5e-21, is below F's rounding floor
        trials = []

        def objective(x):
            trials.append(x.copy())
            return float(x[0]), None

        result, last = self._run_recorded(
            objective, lambda x, _: (np.ones(1), lambda free: np.array([[1e20]])), np.zeros(1)
        )
        assert len(trials) == 1 and result.evaluations == 1  # the start only: no trial point
        assert result.iterations == 0 and result.max_abs_gradient == 1.0 and not result.converged
        assert result.x[0] == 0.0 and np.array_equal(last, result.x)

    def test_a_step_lost_in_the_rounding_of_x_is_no_decrease(self):
        # F is flat, so the halvings shrink the step until x - alpha step rounds to x;
        # that trial is refused, not taken as a step, and the line search fails
        result, last = self._run_recorded(
            lambda x: (0.0, None), lambda x, _: (np.ones(1), lambda free: np.eye(1)), np.full(1, 1e6)
        )
        assert result.iterations == 0 and result.evaluations == 61
        assert np.array_equal(last, result.x)

    def test_last_derivatives_at_x_after_a_failed_line_search(self):
        # F rises at every trial point, so no halving passes
        result, last = self._run_recorded(
            lambda x: (float(x[0] != 0.0), None),
            lambda x, _: (np.ones(1), lambda free: np.eye(1)),
            np.zeros(1),
        )
        assert result.iterations == 0 and result.evaluations == 61
        assert np.array_equal(last, result.x)

    def test_last_derivatives_at_x_after_the_iteration_limit(self, monkeypatch):
        # F = x^4: each exact Newton step keeps two thirds of x
        monkeypatch.setattr(factor_module, "_MAX_ITERATIONS", 3)
        result, last = self._run_recorded(
            lambda x: (float(x[0] ** 4), None),
            lambda x, _: (4 * x**3, lambda free: np.array([[12 * x[0] ** 2]])),
            np.ones(1),
        )
        assert result.iterations == 3 and not result.converged
        assert result.x[0] == pytest.approx((2 / 3) ** 3)
        assert np.array_equal(last, result.x)


def _symmetric(seed, spectrum):
    """A symmetric matrix with eigenvalues ``spectrum`` in a random basis, and a right-hand side."""
    rng = np.random.default_rng(seed)
    Q = np.linalg.qr(rng.standard_normal((len(spectrum), len(spectrum))))[0]
    H = (Q * spectrum) @ Q.T
    return (H + H.T) / 2, rng.standard_normal(len(spectrum))


def _lstsq(H, g):
    return np.linalg.lstsq(H, g, rcond=None)[0]


class TestNewtonStep:
    """newton_minimise solves each step through a Cholesky factor and falls back to least squares."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 30), st.integers(0, 2**32 - 1))
    def test_positive_definite_step_equals_least_squares(self, size, seed):
        spectrum = np.exp(np.random.default_rng(seed).uniform(math.log(1e-2), math.log(1e2), size))
        H, g = _symmetric(seed, spectrum)
        expected = _lstsq(H, g)
        step = _newton_step(H, g)
        assert np.linalg.norm(step - expected) <= 1e-10 * np.linalg.norm(expected)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 30), st.integers(0, 2**32 - 1), st.sampled_from(["singular", "indefinite", "zero row"]))
    def test_singular_or_indefinite_step_is_least_squares_exactly(self, size, seed, kind):
        # a zero eigenvalue is singular in exact arithmetic only: rounding
        # often leaves such an H a Cholesky factor, with a pivot near zero
        rng = np.random.default_rng(seed)
        spectrum = np.exp(rng.uniform(math.log(1e-2), math.log(1e2), size))
        chosen = rng.choice(size, rng.integers(1, size // 3 + 2), replace=False)
        if kind == "singular":
            spectrum[chosen] = 0.0
        elif kind == "indefinite":
            spectrum[chosen] *= -1.0
        H, g = _symmetric(seed, spectrum)
        if kind == "zero row":
            H[chosen, :] = H[:, chosen] = 0.0
        assert np.array_equal(_newton_step(H, g), _lstsq(H, g))

    def test_first_factorable_candidate_solves(self):
        H, g = _symmetric(1, np.linspace(0.5, 2.0, 5))
        indefinite = _symmetric(2, np.linspace(-1.0, 2.0, 5))[0]
        for bad in (indefinite, np.full_like(H, np.nan), np.where(np.eye(5) == 1, np.inf, H)):
            assert np.array_equal(_newton_step(np.stack((bad, H)), g), _newton_step(H, g))
            # with no candidate positive definite, the last one's least-squares step
            assert np.array_equal(_newton_step(np.stack((bad, indefinite)), g), _lstsq(indefinite, g))

    def test_ill_conditioned_candidate_with_a_factor_is_chosen_and_solved_by_least_squares(self):
        # a Cholesky factor makes the candidate the one chosen, as a positive
        # definite exact Hessian is chosen over the information; its pivot of
        # 2^-40 makes the step least squares on it
        nearly = np.array([[1.0, 1.0], [1.0, 1.0 + 2.0**-40]])
        assert np.diagonal(np.linalg.cholesky(nearly)).min() ** 2 == 2.0**-40
        g = np.array([1.0, -2.0])
        assert np.array_equal(_newton_step(np.stack((nearly, np.eye(2))), g), _lstsq(nearly, g))


class TestReliability:
    def test_alpha_identical_items(self):
        x = np.random.default_rng(0).normal(size=100)
        items = np.column_stack([x, x, x])
        assert cronbach_alpha(items) == pytest.approx(1.0)

    def test_alpha_uncorrelated_items_zero(self):
        cov = np.eye(2)
        rng = np.random.default_rng(1)
        items = rng.multivariate_normal([0, 0], cov, size=200_000)
        assert cronbach_alpha(items) == pytest.approx(0.0, abs=0.02)

    def test_alpha_half_correlation_closed_form(self):
        cov = np.array([[1.0, 0.5], [0.5, 1.0]])
        rng = np.random.default_rng(2)
        items = rng.multivariate_normal([0, 0], cov, size=200_000)
        assert cronbach_alpha(items) == pytest.approx(2 / 3, abs=0.01)

    def test_alpha_population_formula(self):
        # exact check without sampling noise: synthesize items whose
        # sample covariance is exactly [[1, .5], [.5, 1]]
        base = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        cov_target = np.array([[1.0, 0.5], [0.5, 1.0]])
        chol = np.linalg.cholesky(cov_target)
        items = (base / base.std(axis=0, ddof=1)) @ chol.T
        assert cronbach_alpha(items) == pytest.approx(2 / 3)

    def test_omega_perfect(self):
        assert mcdonald_omega([1.0, 1.0], [0.0, 0.0]) == 1.0

    def test_omega_closed_form(self):
        omega = mcdonald_omega([0.8] * 4, [0.36] * 4)
        assert omega == pytest.approx(10.24 / (10.24 + 1.44))
        assert omega == pytest.approx(0.8767, abs=1e-4)

    def test_omega_zero_loadings(self):
        assert mcdonald_omega([0.0, 0.0], [1.0, 1.0]) == 0.0


class TestAssignIndicators:
    def test_published_loading_matrix_structure(self):
        assignment, dropped = assign_indicators(
            EFA_GENERATOR_LOADINGS, EFA_VARIABLE_NAMES, cutoff=0.3
        )
        assert assignment[0] == ["forks", "stars", "mentions"]
        assert assignment[1] == ["criticality", "months_since_update", "cmc_rank", "geo_rmse"]
        assert dropped == ["longevity_days", "alexa_rank"]

    def test_everything_below_cutoff_dropped(self):
        assignment, dropped = assign_indicators(
            np.full((3, 2), 0.1), ["a", "b", "c"], cutoff=0.3
        )
        assert all(not members for members in assignment.values())
        assert dropped == ["a", "b", "c"]

    def test_tie_goes_to_lower_index(self):
        assignment, _ = assign_indicators(np.array([[0.5, 0.5]]), ["x"], cutoff=0.3)
        assert assignment[0] == ["x"]
        assert assignment[1] == []


class TestRotateSolution:
    def test_rotation_tracks_loadings(self):
        solution, _ = efa_ml(efa_population_correlation(), n=384, m=2)
        rotated = rotate_solution(solution)
        assert np.allclose(
            solution.loadings @ rotated.rotation, rotated.loadings, atol=1e-8
        )
        assert np.allclose(rotated.communalities, solution.communalities, atol=1e-8)

    def test_sign_convention(self):
        solution, _ = efa_ml(efa_population_correlation(), n=384, m=2)
        rotated = rotate_solution(solution)
        for j in range(rotated.loadings.shape[1]):
            column = rotated.loadings[:, j]
            assert column[np.abs(column).argmax()] > 0

"""Model language, covariance structure, ML estimation, and diagnostics."""

import math
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    SEM_LOADINGS,
    SEM_MODEL_TEXT,
    SEM_PATHS,
    SEM_REDUCED_MODEL_TEXT,
    sem_generator_params,
    sem_population_covariance,
)
from oss_health import sem as sem_module
from oss_health.factor import newton_minimise
from oss_health.sem import (
    CONVERGED_GRADIENT,
    SemModel,
    SemParseError,
    SemSpecError,
    _Layout,
    compare_models,
    default_start_values,
    fit_indices,
    fit_ml,
    format_fit_report,
    free_covariance,
    implied_covariance,
    ml_discrepancy,
    ml_gradient,
    parse_model,
    two_sided_p,
)

SMALL_MODEL = """
F1 =~ a + b + c
F2 =~ d + e + f
F2 ~ F1
"""

SMALL_TRUE = {
    "F1=~b": 0.9,
    "F1=~c": 0.8,
    "F2=~e": 1.1,
    "F2=~f": 0.7,
    "F2~F1": 0.5,
    "var(a)": 0.3,
    "var(b)": 0.4,
    "var(c)": 0.5,
    "var(d)": 0.3,
    "var(e)": 0.4,
    "var(f)": 0.5,
    "var(F1)": 1.0,
    "var(F2)": 0.6,
}


def heywood_correlation():
    """Asymmetric doublet: the one-factor block cannot fit (a, b, c)."""
    R = np.eye(6)

    def setr(i, j, v):
        R[i, j] = R[j, i] = v

    setr(0, 1, 0.90)
    setr(0, 2, 0.60)
    setr(1, 2, 0.40)
    setr(3, 4, 0.64)
    setr(3, 5, 0.56)
    setr(4, 5, 0.56)
    for i in range(3):
        for j in range(3, 6):
            setr(i, j, 0.30)
    return R


class TestParseModel:
    def test_single_measurement_line(self):
        model = parse_model("Interest =~ forks + stars + mentions")
        assert model.latents == ["Interest"]
        assert model.measurement["Interest"] == ["forks", "stars", "mentions"]
        first = model.parameters()[0]
        assert not first.free and first.fixed_value == 1.0

    def test_reference_model(self):
        model = parse_model(SEM_MODEL_TEXT)
        assert model.latents == ["Interest", "Robustness", "Engagement"]
        assert len(model.observed) == 11
        assert ("Engagement", "Interest") in model.structural
        assert ("Robustness", "Interest") in model.structural
        assert model.residual_covariances == [("forks", "stars")]

    def test_comments_and_blanks_ignored(self):
        model = parse_model("# header\n\nF =~ a + b  # inline\n")
        assert model.measurement["F"] == ["a", "b"]

    def test_cycle_rejected(self):
        text = "A =~ a1 + a2\nB =~ b1 + b2\nA ~ B\nB ~ A\n"
        with pytest.raises(SemSpecError, match="cycle"):
            parse_model(text)

    def test_duplicate_indicator_rejected(self):
        with pytest.raises(SemSpecError, match="two measurement"):
            parse_model("A =~ x + y\nB =~ y + z\n")

    def test_unknown_latent_in_regression(self):
        with pytest.raises(SemSpecError, match="unknown latent"):
            parse_model("A =~ x + y\nA ~ Ghost\n")

    def test_parse_error_carries_line(self):
        with pytest.raises(SemParseError, match="line 2"):
            parse_model("A =~ x + y\nnot a statement\n")

    def test_bad_name_rejected(self):
        with pytest.raises(SemParseError):
            parse_model("A =~ x + 2bad")

    def test_latent_without_indicators_rejected(self):
        with pytest.raises(SemSpecError):
            SemModel(latents=["A"], measurement={"A": []})

    @pytest.mark.parametrize("second", ["a ~~ d", "d ~~ a"])
    def test_repeated_residual_covariance_rejected(self, second):
        with pytest.raises(SemSpecError, match="twice"):
            parse_model(SMALL_MODEL + "a ~~ d\n" + second + "\n")

    @pytest.mark.parametrize(
        "text",
        [SMALL_MODEL + "F2 ~ F1\n", SMALL_MODEL.replace("F2 ~ F1", "F2 ~ F1 + F1")],
        ids=["two-lines", "one-line"],
    )
    def test_repeated_structural_path_rejected(self, text):
        with pytest.raises(SemSpecError, match="F2 ~ F1 is specified twice"):
            parse_model(text)

    def test_latent_as_indicator_rejected(self):
        with pytest.raises(SemSpecError, match="latent 'F2' is used as an indicator"):
            parse_model("F1 =~ a + F2\nF2 =~ b + c + d\n")


class TestImpliedCovariance:
    def test_single_unit_indicator(self):
        model = parse_model("F =~ x")
        sigma = implied_covariance(model, {"var(x)": 0.0, "var(F)": 1.0})
        assert np.allclose(sigma, [[1.0]])

    def test_one_factor_closed_form(self):
        # four indicators at standardized loading 0.8: unit loading scale
        # puts the latent variance at 0.64 and later loadings at 1
        model = parse_model("F =~ a + b + c + d")
        params = {"var(F)": 0.64}
        for name in "abcd":
            params[f"var({name})"] = 0.36
            if name != "a":
                params[f"F=~{name}"] = 1.0
        sigma = implied_covariance(model, params)
        assert np.allclose(np.diag(sigma), 1.0)
        off = sigma[~np.eye(4, dtype=bool)]
        assert np.allclose(off, 0.64)

    def test_generator_is_positive_definite(self):
        sigma = sem_population_covariance()
        assert np.allclose(sigma, sigma.T)
        assert np.linalg.eigvalsh(sigma).min() > 0

    def test_missing_parameter_named(self):
        model = parse_model("F =~ x + y")
        with pytest.raises(KeyError, match="var"):
            implied_covariance(model, {"F=~y": 1.0})


class TestFitMl:
    def test_zero_residual_recovery_small_model(self):
        model = parse_model(SMALL_MODEL)
        sigma = implied_covariance(model, SMALL_TRUE)
        fit = fit_ml(model, sigma, n=384)
        assert fit.converged
        assert fit.fit.chi_square < 1e-6
        assert fit.fit.cfi == 1.0
        assert fit.fit.rmsea == 0.0
        assert fit.fit.srmr < 1e-4
        for name, value in SMALL_TRUE.items():
            assert fit.estimates[name].value == pytest.approx(value, abs=1e-3)

    def test_reference_generator_standardized_recovery(self):
        model = parse_model(SEM_MODEL_TEXT)
        fit = fit_ml(model, sem_population_covariance(), n=384)
        for name, value in SEM_PATHS.items():
            assert fit.standardized[name] == pytest.approx(value, abs=1e-4)
        for latent, pairs in SEM_LOADINGS.items():
            for indicator, loading in pairs:
                assert fit.standardized[f"{latent}=~{indicator}"] == pytest.approx(
                    loading, abs=1e-4
                )

    def test_misspecified_model_shows_misfit(self):
        model = parse_model(SMALL_MODEL)
        sigma = implied_covariance(model, SMALL_TRUE)
        rng = np.random.default_rng(0)
        X = rng.standard_normal((384, 6)) @ np.linalg.cholesky(sigma).T
        S = np.cov(X, rowvar=False)
        # omit the F1 -> F2 path entirely: strong true covariance unexplained
        broken = parse_model(SMALL_MODEL.replace("F2 ~ F1", ""))
        fit = fit_ml(broken, S, n=384)
        assert fit.fit.chi_square > fit.fit.df
        assert fit.fit.rmsea > 0

    def test_under_identified_model_refused(self):
        model = parse_model("F =~ x + y")
        with pytest.raises(SemSpecError, match="not identified"):
            fit_ml(model, np.eye(2), n=100)

    def test_non_pd_sample_rejected(self):
        model = parse_model("F =~ a + b + c")
        S = np.ones((3, 3))
        with pytest.raises(ValueError, match="positive definite"):
            fit_ml(model, S, n=100)

    def test_p_values_and_z(self):
        model = parse_model(SMALL_MODEL)
        sigma = implied_covariance(model, SMALL_TRUE)
        rng = np.random.default_rng(5)
        X = rng.standard_normal((384, 6)) @ np.linalg.cholesky(sigma).T
        fit = fit_ml(model, np.cov(X, rowvar=False), n=384)
        est = fit.estimates["F2~F1"]
        assert est.se > 0
        assert est.z == pytest.approx(est.value / est.se)
        assert 0.0 <= est.p_value <= 1.0
        assert est.p_value < 0.001  # a 0.5 path at n=384 is unmissable


def test_two_sided_p():
    assert two_sided_p(1.959963984540054) == pytest.approx(0.05, abs=1e-15)
    assert two_sided_p(0.0) == 1.0
    assert two_sided_p(-1.0) == two_sided_p(1.0)
    # the tail stays resolved where 1 - Phi(|z|) would have cancelled to 0;
    # at |z| = 40 it is 7e-350, below the smallest double, and reads 0
    assert two_sided_p(37.0) > 0.0
    assert two_sided_p(40.0) == 0.0
    assert math.isnan(two_sided_p(float("nan")))


class TestStandardize:
    def test_scale_invariance(self):
        model = parse_model(SMALL_MODEL)
        sigma = implied_covariance(model, SMALL_TRUE)
        scaled = sigma.copy()
        scaled[2, :] *= 2.0
        scaled[:, 2] *= 2.0  # indicator c now measured on a doubled scale
        base = fit_ml(model, sigma, n=384).standardized
        rescaled = fit_ml(model, scaled, n=384).standardized
        for name, value in base.items():
            assert rescaled[name] == pytest.approx(value, abs=1e-6)

    def test_fixed_loading_standardizes_into_unit_interval(self):
        model = parse_model(SMALL_MODEL)
        fit = fit_ml(model, implied_covariance(model, SMALL_TRUE), n=384)
        assert 0.0 < fit.standardized["F1=~a"] <= 1.0


class TestGradient:
    def test_analytic_matches_central_differences(self):
        model = parse_model(SMALL_MODEL)
        sigma = implied_covariance(model, SMALL_TRUE)
        rng = np.random.default_rng(17)
        names = [prm.name for prm in model.parameters() if prm.free]
        for _ in range(20):
            theta = {k: v + rng.normal(0, 0.05) for k, v in SMALL_TRUE.items()}
            grad = ml_gradient(model, theta, sigma)
            eps = 1e-6
            for idx, name in enumerate(names):
                plus = dict(theta)
                minus = dict(theta)
                plus[name] += eps
                minus[name] -= eps
                numeric = (
                    ml_discrepancy(model, plus, sigma) - ml_discrepancy(model, minus, sigma)
                ) / (2 * eps)
                scale = max(abs(numeric), 1.0)
                assert abs(grad[idx] - numeric) / scale < 1e-4


class TestJacobian:
    @pytest.mark.parametrize(
        "text, truth",
        [(SMALL_MODEL, SMALL_TRUE), (SEM_MODEL_TEXT, sem_generator_params())],
        ids=["small", "reference"],
    )
    def test_delta_matches_central_differences(self, text, truth):
        layout = _Layout(parse_model(text))
        rng = np.random.default_rng(23)
        eps = 1e-6
        for _ in range(10):
            theta = layout.vector(truth) + rng.normal(0, 0.05, len(layout.free))
            _, S, _, B = layout.implied(theta)
            delta = layout.delta(B, S)
            for k in range(theta.size):
                step = np.zeros_like(theta)
                step[k] = eps
                numeric = (layout.implied(theta + step)[2] - layout.implied(theta - step)[2]) / (
                    2 * eps
                )
                assert np.max(np.abs(delta[k] - numeric)) < 1e-6

    def test_information_is_the_hessian_at_a_perfect_fit(self):
        # at S = Sigma(theta) the observed and expected information agree
        model = parse_model(SMALL_MODEL)
        layout = _Layout(model)
        theta = layout.vector(SMALL_TRUE)
        sigma = layout.implied(theta)[2]
        names = [prm.name for prm in layout.free]
        eps = 1e-6
        numeric = np.empty((theta.size, theta.size))
        for k in range(theta.size):
            plus = dict(zip(names, theta))
            minus = dict(plus)
            plus[names[k]] += eps
            minus[names[k]] -= eps
            numeric[k] = (ml_gradient(model, plus, sigma) - ml_gradient(model, minus, sigma)) / (
                2 * eps
            )
        information = layout.derivatives(layout.implied(theta), sigma)[1]
        assert np.max(np.abs(information - numeric)) < 1e-6


def sampled_covariance(seed):
    """Sample covariance of 384 draws from the reference generator."""
    chol = np.linalg.cholesky(sem_population_covariance())
    rng = np.random.default_rng(seed)
    return np.cov(rng.standard_normal((384, 11)) @ chol.T, rowvar=False)


@pytest.fixture(scope="module")
def sampled_fits():
    """Full and reduced fits on the acceptance criteria's sampling, n = 384."""
    full = parse_model(SEM_MODEL_TEXT)
    reduced = parse_model(SEM_REDUCED_MODEL_TEXT)
    fits = []
    for seed in range(100):
        S = sampled_covariance(seed)
        fits.append((fit_ml(full, S, 384), fit_ml(reduced, S, 384)))
    return fits


class TestOptimiser:
    def test_every_sampled_fit_converges_and_nesting_holds(self, sampled_fits):
        for seed, (full, reduced) in enumerate(sampled_fits):
            for fit in (full, reduced):
                assert fit.converged, seed
                assert fit.minimum.max_abs_gradient <= CONVERGED_GRADIENT
                assert 1 <= fit.minimum.iterations < fit.minimum.evaluations
            assert full.minimum.value <= reduced.minimum.value + 1e-10, seed

    def test_first_sampled_fits_take_no_halving_at_the_rounding_floor(self, sampled_fits):
        for seed, fits in enumerate(sampled_fits[:3]):
            for fit in fits:
                assert fit.minimum.evaluations <= fit.minimum.iterations + 3, seed

    def test_sampled_fits_stop_well_inside_converged(self, sampled_fits):
        # a rounding floor set too loose would stop fits with |grad| near the verdict's bound
        for seed, fits in enumerate(sampled_fits[:50]):
            for fit in fits:
                assert fit.converged and fit.minimum.max_abs_gradient <= CONVERGED_GRADIENT / 4, seed

    def test_path_standard_errors_match_monte_carlo_spread(self, sampled_fits):
        for name in SEM_PATHS:
            values = np.array([full.estimates[name].value for full, _ in sampled_fits])
            ses = np.array([full.estimates[name].se for full, _ in sampled_fits])
            ratio = ses.mean() / values.std(ddof=1)
            assert abs(ratio - 1.0) <= 0.15, (name, ratio)


    def test_standard_errors_are_a_fresh_information_at_the_estimate(self):
        # fit_ml keeps the minimiser's last information rather than recomputing it
        text = (Path(__file__).resolve().parents[1] / "models" / "health.sem").read_text()
        model = parse_model(text)
        chol = np.linalg.cholesky(sem_population_covariance())
        rng = np.random.default_rng(5)
        S = np.cov(rng.standard_normal((384, 11)) @ chol.T, rowvar=False)
        fit = fit_ml(model, S, 384)
        layout = _Layout(model)
        theta = np.array([fit.estimates[prm.name].value for prm in layout.free])
        H = layout.derivatives(layout.implied(theta), S)[1]
        se = np.sqrt(np.diag(np.linalg.inv(383 / 2.0 * H)))
        assert fit.converged
        assert [fit.estimates[prm.name].se for prm in layout.free] == se.tolist()


def free_estimates(fit):
    return {name: est.value for name, est in fit.estimates.items() if est.free}


class TestWarmStart:
    def test_reduced_fit_from_full_estimates_equals_cold_fit(self, sampled_fits):
        reduced = parse_model(SEM_REDUCED_MODEL_TEXT)
        warm_evaluations = cold_evaluations = 0
        for seed, (full, cold) in enumerate(sampled_fits[:40]):
            warm = fit_ml(reduced, sampled_covariance(seed), 384, start=free_estimates(full))
            assert warm.converged, seed
            assert abs(warm.minimum.value - cold.minimum.value) <= 1e-12, seed
            for name, est in cold.estimates.items():
                assert abs(warm.estimates[name].value - est.value) <= 1e-6, (seed, name)
            warm_evaluations += warm.minimum.evaluations
            cold_evaluations += cold.minimum.evaluations
        assert warm_evaluations < cold_evaluations

    def test_start_sets_only_the_model_free_parameters_it_names(self, monkeypatch):
        model = parse_model(SMALL_MODEL)
        S = implied_covariance(model, SMALL_TRUE)
        layout = _Layout(model)
        seen = []

        def spy(objective, derivatives, x, *args):
            seen.append(x.copy())
            return newton_minimise(objective, derivatives, x, *args)

        monkeypatch.setattr(sem_module, "newton_minimise", spy)
        # a fixed loading and a name the model lacks are ignored; the rest keep their defaults
        fit_ml(model, S, 384, start={"F2~F1": 0.5, "F1=~a": 3.0, "F3~F1": 2.0})
        expected = default_start_values(layout, S)
        expected[[prm.name for prm in layout.free].index("F2~F1")] = 0.5
        assert np.array_equal(seen[0], expected)

    @pytest.mark.parametrize(
        "start",
        [{}, {"F3~F1": 2.0, "F1=~a": 3.0}, "defaults", {"var(F1)": -5.0}],
        ids=["empty", "unknown-names", "defaults", "indefinite"],
    )
    def test_start_that_sets_nothing_gives_the_cold_fit_bitwise(self, start):
        # an indefinite implied covariance at the start falls back to the defaults
        model = parse_model(SMALL_MODEL)
        S = sampled_covariance(3)[:6, :6]
        layout = _Layout(model)
        if start == "defaults":
            start = dict(zip((prm.name for prm in layout.free), default_start_values(layout, S)))
        cold, warm = fit_ml(model, S, 384), fit_ml(model, S, 384, start=start)
        assert warm.minimum.x.tobytes() == cold.minimum.x.tobytes()
        assert warm.minimum.evaluations == cold.minimum.evaluations
        # repr: the fixed parameters' NaN z and p compare unequal to themselves
        assert repr((warm.estimates, warm.fit)) == repr((cold.estimates, cold.fit))


class TestHeywood:
    def test_proper_solution_is_clean(self):
        model = parse_model(SMALL_MODEL)
        fit = fit_ml(model, implied_covariance(model, SMALL_TRUE), n=384)
        assert fit.heywood == []

    def test_crafted_doublet_goes_negative(self):
        model = parse_model("F1 =~ a + b + c\nF2 =~ d + e + f\n")
        fit = fit_ml(model, heywood_correlation(), n=384)
        assert fit.heywood == ["var(a)"]

    def test_freed_covariance_removes_heywood(self):
        model = parse_model("F1 =~ a + b + c\nF2 =~ d + e + f\n")
        freed = free_covariance(model, "a", "b")
        fit = fit_ml(freed, heywood_correlation(), n=384)
        assert fit.heywood == []

    def test_negative_latent_variance_leaves_standardized_empty(self):
        # equicorrelation -0.2 is fitted exactly by var(F) = -0.2, whose
        # implied variance has no standard deviation to rescale by
        R = np.full((3, 3), -0.2)
        np.fill_diagonal(R, 1.0)
        fit = fit_ml(parse_model("F =~ a + b + c"), R, n=200)
        assert fit.converged
        assert fit.estimates["var(F)"].value == pytest.approx(-0.2, abs=1e-6)
        assert fit.heywood == ["var(F)"]
        assert fit.standardized == {}
        table = format_fit_report(fit).split("\n\n")[0].splitlines()[1:]
        assert len(table) == 7 and all(row.split()[-1] == "nan" for row in table)


class TestFreeCovariance:
    def test_adds_one_parameter(self):
        model = parse_model("F =~ a + b + c")
        freed = free_covariance(model, "a", "b")
        assert ("a", "b") in freed.residual_covariances
        assert len(freed.parameters()) == len(model.parameters()) + 1

    def test_idempotent(self):
        model = parse_model("F =~ a + b + c")
        once = free_covariance(model, "a", "b")
        twice = free_covariance(once, "b", "a")
        assert twice.residual_covariances == once.residual_covariances

    def test_diagonal_rejected(self):
        with pytest.raises(ValueError, match="variance"):
            free_covariance(parse_model("F =~ a + b + c"), "a", "a")

    def test_unknown_indicator_rejected(self):
        with pytest.raises(ValueError, match="ghost"):
            free_covariance(parse_model("F =~ a + b + c"), "a", "ghost")


class TestCompareModels:
    def test_identical_fits(self):
        model = parse_model(SMALL_MODEL)
        fit = fit_ml(model, implied_covariance(model, SMALL_TRUE), n=384)
        assert compare_models(fit, fit) == (0.0, 0, 0.0)

    def test_different_n_rejected(self):
        model = parse_model(SMALL_MODEL)
        sigma = implied_covariance(model, SMALL_TRUE)
        a = fit_ml(model, sigma, n=384)
        b = fit_ml(model, sigma, n=200)
        with pytest.raises(ValueError, match="sample sizes"):
            compare_models(a, b)

    def test_removing_null_path_costs_little(self):
        full = parse_model(SEM_MODEL_TEXT)
        reduced = parse_model(SEM_REDUCED_MODEL_TEXT)
        sigma = sem_population_covariance()
        chol = np.linalg.cholesky(sigma)
        small = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            X = rng.standard_normal((384, 11)) @ chol.T
            S = np.cov(X, rowvar=False)
            d_chi, d_df, _ = compare_models(fit_ml(reduced, S, 384), fit_ml(full, S, 384))
            assert d_df == 1
            if d_chi < 3.84:
                small += 1
        assert small >= 6  # the -0.06 path is nearly zero; 1-df LR stays small


class TestFitIndicesAndReport:
    def test_perfect_fit_block(self):
        S = np.eye(3)
        stats = fit_indices(0.0, 2, 100.0, 3, 384, S, S)
        assert stats.cfi == 1.0
        assert stats.srmr == 0.0
        assert stats.rmsea == 0.0

    def test_saturated_model_block(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((384, 1)) * [0.8, 0.7, 0.6]
        X += rng.standard_normal((384, 3)) * [0.6, 0.71, 0.8]
        stats = fit_ml(parse_model("F =~ a + b + c"), np.cov(X, rowvar=False), n=384).fit
        assert stats.df == 0
        assert np.isnan(stats.tli)
        assert stats.rmsea == 0.0
        assert stats.cfi == pytest.approx(1.0, abs=1e-9)
        assert stats.bic == stats.chi_square

    def test_report_contains_estimates_and_fit_line(self):
        model = parse_model(SMALL_MODEL)
        fit = fit_ml(model, implied_covariance(model, SMALL_TRUE), n=384)
        text = format_fit_report(fit)
        assert "F2~F1" in text
        assert "CFI" in text and "RMSEA" in text

    def test_report_flags_improper_solution(self):
        model = parse_model("F1 =~ a + b + c\nF2 =~ d + e + f\n")
        fit = fit_ml(model, heywood_correlation(), n=384)
        assert "negative variance" in format_fit_report(fit)

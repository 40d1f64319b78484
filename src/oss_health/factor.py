"""Exploratory factor analysis numerics.

Maximum-likelihood extraction profiles the loadings out by
eigendecomposition at each value of the uniquenesses and optimises the
uniquenesses on a log scale with :func:`newton_minimise`, the
step-halving Newton minimiser with an active set that ``sem.fit_ml``
also uses (here on the exact Hessian where it is positive definite and
the expected information otherwise).
Uniquenesses are floored at 0.005 to keep the EFA side free of Heywood
collapse; hitting the floor is reported on the solution.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

PSI_FLOOR = 0.005
#: Random normal datasets that parallel analysis simulates.
PA_SIMULATIONS = 100
#: Per-rank quantile of the simulated eigenvalues that parallel analysis
#: takes as its retention threshold.
PA_QUANTILE = 0.995
#: Simulations whose noise parallel analysis holds in memory at a time.
PA_CHUNK = 10


class IdentificationError(ValueError):
    """The requested factor count leaves no degrees of freedom."""


# ---------------------------------------------------------------------------
# correlations and eigenstructure


def correlation_matrix(X: np.ndarray, names: Sequence[str] | None = None) -> np.ndarray:
    """Pearson correlation matrix of an n-by-p data matrix."""
    X = np.asarray(X, dtype=float)
    n, p = X.shape
    if n < 2:
        raise ValueError("correlation requires at least two rows")
    sd = X.std(axis=0, ddof=1)
    constant = np.flatnonzero(sd == 0)
    if constant.size:
        labels = [names[i] if names else str(i) for i in constant]
        raise ValueError(f"constant column(s): {', '.join(labels)}")
    R = np.corrcoef(X, rowvar=False)
    np.fill_diagonal(R, 1.0)
    return (R + R.T) / 2


def _noise_correlations(noise: np.ndarray) -> np.ndarray:
    """Correlation matrices of a (k, n, p) stack of draws, one per draw, in batched operations.

    Each draw's centred cross-product is its uncentred Gram matrix minus
    the rank-one mean term s s'/n, s the column sums, so no centred copy
    of the stack is made.  The noise is standard normal, so its means are
    near zero and the subtraction loses no significant digits.
    """
    n = noise.shape[1]
    sums = np.ones(n) @ noise
    R = np.swapaxes(noise, 1, 2) @ noise
    R -= sums[:, :, None] * sums[:, None, :] / n
    sd = np.sqrt(np.diagonal(R, axis1=1, axis2=2))
    R /= sd[:, :, None] * sd[:, None, :]
    diagonal = np.arange(R.shape[-1])
    R[:, diagonal, diagonal] = 1.0
    return (R + np.swapaxes(R, 1, 2)) / 2


def eigenvalues(R: np.ndarray) -> np.ndarray:
    """Real spectrum of a symmetric matrix, or of each in a stack, descending."""
    R = np.asarray(R, dtype=float)
    if not np.allclose(R, np.swapaxes(R, -1, -2), atol=1e-10):
        raise ValueError("matrix is not symmetric")
    return np.linalg.eigvalsh(R)[..., ::-1]  # eigvalsh is ascending


def squared_multiple_correlations(R: np.ndarray) -> np.ndarray:
    """SMC of each variable on all others: 1 - 1/diag(R^-1), per matrix of a stack."""
    return 1.0 - 1.0 / np.diagonal(np.linalg.inv(R), axis1=-2, axis2=-1)


def _reduced_eigenvalues(R: np.ndarray) -> np.ndarray:
    """Descending spectrum with SMCs on the diagonal, per matrix of a stack."""
    reduced = R.copy()
    diagonal = np.arange(R.shape[-1])
    reduced[..., diagonal, diagonal] = squared_multiple_correlations(R)
    return np.linalg.eigvalsh(reduced)[..., ::-1]


# ---------------------------------------------------------------------------
# parallel analysis


@dataclass
class ParallelAnalysisResult:
    observed_eigenvalues: np.ndarray
    simulated_mean_eigenvalues: np.ndarray
    simulated_quantile_eigenvalues: np.ndarray
    suggested_factors: int


def _suggest(observed: np.ndarray, threshold: np.ndarray) -> int:
    count = 0
    for obs, thr in zip(observed, threshold):
        if obs > thr:
            count += 1
        else:
            break
    return count


def parallel_analysis(
    blocks: Sequence[tuple[np.ndarray, int]], seed: int = 0
) -> list[ParallelAnalysisResult]:
    """Factor-count suggestions against eigenvalues of random normal data.

    ``blocks`` holds (R, n) pairs: the correlation matrix of an n-row
    sample and its row count, with every block on the same p variables
    (an ``efa`` run passes the full sample and its two halves).  Each
    block is compared with ``PA_SIMULATIONS`` standard-normal n-by-p
    datasets; simulation i is what ``default_rng(child).standard_normal((n, p))``
    gives for the i-th child of ``SeedSequence(seed)``, so results are
    independent of scheduling and of the other blocks.  Eigenvalues are
    taken on the reduced basis, with squared multiple correlations on the
    diagonal, and the simulated per-rank ``PA_QUANTILE`` is the retention
    threshold (the simulated mean retains spurious factors on noise about
    half the time).

    The noise is drawn once for all blocks: each child fills n_max rows,
    n_max the largest row count, and a block of n rows is reduced from the
    first n, which are the numbers that child draws for n rows alone.
    Draws go ``PA_CHUNK`` simulations at a time into one reused
    (PA_CHUNK, n_max, p) buffer, so the noise held does not grow with
    ``PA_SIMULATIONS``.  Each chunk's correlations run stacked into one
    (PA_SIMULATIONS, p, p) array per distinct row count, and the SMC
    inverses and eigendecompositions run once per row count on that
    array: blocks of equal size, such as the halves of an even sample,
    share their simulations.
    """
    p = blocks[0][0].shape[0]
    if any(R.shape != (p, p) for R, _ in blocks):
        raise ValueError("parallel-analysis blocks must share their variables")
    correlations = {n: np.empty((PA_SIMULATIONS, p, p)) for _, n in blocks}
    noise = np.empty((PA_CHUNK, max(correlations), p))
    children = np.random.SeedSequence(seed).spawn(PA_SIMULATIONS)
    for start in range(0, PA_SIMULATIONS, PA_CHUNK):
        batch = children[start : start + PA_CHUNK]
        chunk = noise[: len(batch)]
        for child, out in zip(batch, chunk):
            np.random.default_rng(child).standard_normal(out=out)
        for n, stack in correlations.items():
            stack[start : start + len(batch)] = _noise_correlations(chunk[:, :n])
    sims = {n: _reduced_eigenvalues(stack) for n, stack in correlations.items()}
    results = []
    for R, n in blocks:
        stack = sims[n]
        observed = _reduced_eigenvalues(R)
        qtl = np.quantile(stack, PA_QUANTILE, axis=0)
        results.append(
            ParallelAnalysisResult(
                observed_eigenvalues=observed,
                simulated_mean_eigenvalues=stack.mean(axis=0),
                simulated_quantile_eigenvalues=qtl,
                suggested_factors=_suggest(observed, qtl),
            )
        )
    return results


# ---------------------------------------------------------------------------
# solutions and fit statistics


@dataclass
class FactorSolution:
    loadings: np.ndarray  # p x m
    uniquenesses: np.ndarray  # p
    rotation: np.ndarray  # m x m orthogonal (identity when unrotated)
    minimum: Minimum  # where the minimisation over the log uniquenesses stopped
    floored: list[int]  # indices at the psi floor

    @property
    def communalities(self) -> np.ndarray:  # p
        return (self.loadings**2).sum(axis=1)

    @property
    def ss_loadings(self) -> np.ndarray:  # m
        return variance_table(self.loadings)[0]

    @property
    def cumulative_variance(self) -> np.ndarray:  # m
        return variance_table(self.loadings)[1]

    @property
    def proportion_explained(self) -> np.ndarray:  # m
        return variance_table(self.loadings)[2]


@dataclass
class FitStatistics:
    chi_square: float
    df: int
    n: int
    tli: float
    rmsea: float
    cfi: float
    srmr: float
    bic: float
    chi_square_null: float
    df_null: int

    def as_dict(self) -> dict:
        return {k: (float(v) if not isinstance(v, int) else v) for k, v in vars(self).items()}

    def summary(self) -> str:
        """The one fit line of every report."""
        return (
            f"chi2 {self.chi_square:.3f} on {self.df} df, n {self.n}; "
            f"CFI {self.cfi:.3f}, TLI {self.tli:.3f}, "
            f"RMSEA {self.rmsea:.3f}, SRMR {self.srmr:.3f}, BIC {self.bic:.3f}"
        )


def variance_table(loadings: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(SS loadings, cumulative variance over p, proportion of explained)."""
    L = np.asarray(loadings, dtype=float)
    p = L.shape[0]
    ss = (L**2).sum(axis=0)
    cumulative = np.cumsum(ss) / p
    total = ss.sum()
    proportion = ss / total if total > 0 else np.zeros_like(ss)
    return ss, cumulative, proportion


def apply_sign_convention(loadings: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(loadings with each column flipped so its largest-magnitude entry is positive, column signs)."""
    L = np.asarray(loadings, dtype=float)
    signs = np.sign(L[np.abs(L).argmax(axis=0), np.arange(L.shape[1])])
    signs[signs == 0] = 1.0
    return L * signs, signs


def srmr(S: np.ndarray, implied: np.ndarray) -> float:
    """Mean squared standardised residual over the lower triangle plus diagonal."""
    S = np.asarray(S, dtype=float)
    implied = np.asarray(implied, dtype=float)
    ds = np.sqrt(np.diag(S))
    di = np.sqrt(np.diag(implied))
    Sstd = S / np.outer(ds, ds)
    Istd = implied / np.outer(di, di)
    idx = np.tril_indices(S.shape[0])
    return float(np.sqrt(np.mean((Sstd[idx] - Istd[idx]) ** 2)))


def efa_fit_indices(
    chi_square: float, df: int, null_chi_square: float, null_df: int, n: int
) -> tuple[float, float]:
    """(TLI, RMSEA) from model and independence-model chi-squares."""
    if df <= 0 or null_df <= 0 or n <= 1:
        raise ValueError("df, null_df must be positive and n > 1")
    null_ratio = null_chi_square / null_df
    if null_ratio == 1.0:
        raise ZeroDivisionError("TLI undefined: null chi-square per df equals one")
    tli = (null_ratio - chi_square / df) / (null_ratio - 1.0)
    rmsea = math.sqrt(max(chi_square - df, 0.0) / (df * (n - 1)))
    return tli, rmsea


def comparative_fit_index(
    chi_square: float, df: int, null_chi_square: float, null_df: int
) -> float:
    num = max(chi_square - df, 0.0)
    den = max(null_chi_square - null_df, chi_square - df, 0.0)
    return 1.0 - num / den if den > 0 else 1.0


def fit_indices(
    chi_square: float,
    df: int,
    null_chi_square: float,
    null_df: int,
    n: int,
    S: np.ndarray,
    implied: np.ndarray,
) -> FitStatistics:
    """Full fit-statistics block from precomputed chi-squares.

    A saturated model (df = 0) has TLI undefined and RMSEA zero when its
    chi-square vanishes.
    """
    if df > 0:
        tli, rmsea = efa_fit_indices(chi_square, df, null_chi_square, null_df, n)
    else:
        tli = float("nan")
        rmsea = 0.0 if chi_square <= 1e-8 else float("nan")
    return FitStatistics(
        chi_square=chi_square,
        df=df,
        n=n,
        tli=tli,
        rmsea=rmsea,
        cfi=comparative_fit_index(chi_square, df, null_chi_square, null_df),
        srmr=srmr(S, implied),
        bic=chi_square - df * math.log(n),
        chi_square_null=null_chi_square,
        df_null=null_df,
    )


# ---------------------------------------------------------------------------
# damped Newton minimisation

# newton_minimise's stopping rules, convergence verdict and step-halving line search
_GRADIENT_TOL = 1e-10
_ROUNDING_FLOOR = 3e-15  # times 1 + |F|: a predicted decrease below it is lost in F's rounding
CONVERGED_GRADIENT = 1e-6
_MAX_ITERATIONS = 500
_MAX_HALVINGS = 60
_ARMIJO = 1e-4
_ILL_CONDITIONED = math.sqrt(np.finfo(float).eps)  # a Cholesky step's reciprocal-condition floor


@dataclass
class Minimum:
    """Where :func:`newton_minimise` stopped."""

    x: np.ndarray
    value: float
    iterations: int
    evaluations: int  # objective calls, the start included
    max_abs_gradient: float  # over the entries not held at a bound
    converged: bool  # max_abs_gradient <= CONVERGED_GRADIENT


def _newton_step(curvature: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """The solution of H step = grad, H the first of ``curvature`` (a matrix,
    or a stack of them in order of preference) that is finite and has a
    Cholesky factor L, else the last; by two solves with L, or by least
    squares when H has no factor or is ill-conditioned.

    H counts as ill-conditioned when a pivot L_ii^2 is at most sqrt(eps)
    max_j H_jj.  A pivot is at least H's smallest eigenvalue and max_j H_jj
    at most its largest, so a factor is refused only where H's condition
    number exceeds 1/sqrt(eps).  An H singular to working precision, on
    whose null directions least squares takes no step, has a pivot near
    eps max_j H_jj when rounding leaves it a factor at all.
    """
    stack = np.reshape(curvature, (-1, grad.size, grad.size))
    for H in stack:
        if not np.isfinite(H).all():
            continue
        try:
            L = np.linalg.cholesky(H)
        except np.linalg.LinAlgError:
            continue
        if np.diagonal(L).min() ** 2 > _ILL_CONDITIONED * np.diagonal(H).max():
            return np.linalg.solve(L.T, np.linalg.solve(L, grad))
        break
    return np.linalg.lstsq(H, grad, rcond=None)[0]


def newton_minimise(
    objective: Callable,
    derivatives: Callable,
    x: np.ndarray,
    lower: float = -math.inf,
    upper: float = math.inf,
) -> Minimum:
    """Minimise F over the box [lower, upper] by step-halving Newton steps.

    ``objective(x)`` returns ``(F, extra)``; ``derivatives(x, extra)``
    returns ``(gradient, curvature)``, with ``curvature(free)`` the matrix
    H on the boolean mask ``free``, or a (k, f, f) stack of candidate H in
    order of preference, so a caller can reuse the objective's work and
    pay for H only when a step is taken.  An entry at a bound whose
    gradient points out of the box is held; the rest are free.  Each step
    solves H step = grad on the free entries (:func:`_newton_step`) with
    the Cholesky factor of the first candidate that is finite and has
    one; by least squares where none has one (then on the last) or the
    chosen one is ill-conditioned, so a singular H still gives a step.
    Iteration stops after 500 steps, when
    the largest free |grad| entry is below 1e-10, or when the predicted
    decrease grad.step/2 is below F's rounding floor 3e-15 (1 + |F|), each
    also on NaN; else the step is clipped to the box and halved until F <
    F0 - 1e-4 grad.(x - trial) (Armijo, which a trial rounded back to x
    fails), and iteration stops if 60 halvings fail.  ``converged`` means
    max free |grad| <= ``CONVERGED_GRADIENT`` (1e-6) at exit.  The last
    ``derivatives`` call is always at the returned x.
    """
    x = np.asarray(x, dtype=float)
    fmin, extra = objective(x)
    iterations, evaluations = 0, 1
    while True:
        grad, curvature = derivatives(x, extra)
        free = ~(((x <= lower) & (grad > 0)) | ((x >= upper) & (grad < 0)))
        max_abs_gradient = float(np.abs(grad[free]).max(initial=0.0))
        if iterations == _MAX_ITERATIONS or not max_abs_gradient >= _GRADIENT_TOL:
            break
        step = np.zeros(x.size)
        step[free] = _newton_step(curvature(free), grad[free])
        if not float(grad @ step) / 2 >= _ROUNDING_FLOOR * (1 + abs(fmin)):
            break
        alpha = 1.0
        for _ in range(_MAX_HALVINGS):
            trial = np.clip(x - alpha * step, lower, upper)
            value, trial_extra = objective(trial)
            evaluations += 1
            if value < fmin - _ARMIJO * float(grad @ (x - trial)):
                break
            alpha /= 2
        else:
            break
        iterations += 1
        x, fmin, extra = trial, value, trial_extra
    return Minimum(x, fmin, iterations, evaluations, max_abs_gradient, max_abs_gradient <= CONVERGED_GRADIENT)


# ---------------------------------------------------------------------------
# maximum-likelihood extraction


def _check_model_size(p: int, m: int) -> None:
    if m < 1:
        raise ValueError("at least one factor required")
    df = ((p - m) ** 2 - p - m) / 2
    if df < 0:
        raise IdentificationError(f"{m} factors on {p} variables: df = {df} < 0")


def _loadings_from_psi(
    R: np.ndarray, psi: np.ndarray, m: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Loadings that minimise F at fixed uniquenesses, with the ascending
    eigenvalues and eigenvectors of Psi^-1/2 R Psi^-1/2 they come from."""
    sc = 1.0 / np.sqrt(psi)
    vals, vecs = np.linalg.eigh(R * np.outer(sc, sc))
    top = slice(-1, -m - 1, -1)
    lam = np.sqrt(np.maximum(vals[top] - 1.0, 0.0))
    return np.sqrt(psi)[:, None] * vecs[:, top] * lam[None, :], vals, vecs


def _profiled_objective(R: np.ndarray, psi: np.ndarray, m: int) -> float:
    sc = 1.0 / np.sqrt(psi)
    vals = np.linalg.eigvalsh(R * np.outer(sc, sc))
    tail = vals[: len(psi) - m]  # ascending: the p - m smallest
    if np.any(tail <= 0):
        return float("inf")
    return float(np.sum(tail - np.log(tail)) - (len(psi) - m))


def _curvatures(vals: np.ndarray, vecs: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(exact Hessian, expected information) of the profiled F in log psi.

    ``vals``/``vecs`` are the ascending eigenpairs of Psi^-1/2 R Psi^-1/2:
    W and g the p - m smallest, whose terms g - log g - 1 make up F, and V
    and u the m largest.  The expected information (M o M) psi psi', with
    M = Sigma^-1 - Sigma^-1 L (L' Sigma^-1 L)^-1 L' Sigma^-1, is (W W') o
    (W W') in this basis (Jennrich & Robinson 1969).  The exact Hessian is
    (W diag(g) W') o (W W') plus, for each pair k of W and l of V,
    (g_k - 1)(g_k + u_l)/(g_k - u_l) (w_k o v_l)(w_k o v_l)'; it equals
    the information where the model fits exactly (every g_k = 1).
    """
    p = vals.size
    W, g = vecs[:, : p - m], vals[: p - m]
    V, u = vecs[:, p - m :], vals[p - m :]
    P = W @ W.T
    with np.errstate(divide="ignore", invalid="ignore"):
        C = (g[:, None] - 1.0) * (g[:, None] + u) / (g[:, None] - u)
    X = (W[:, :, None] * V[:, None, :]).reshape(p, -1)
    hessian = (W * g) @ W.T * P + (X * C.ravel()) @ X.T
    return hessian, P * P


def efa_ml(
    R: np.ndarray, n: int, m: int, start: np.ndarray | None = None
) -> tuple[FactorSolution, FitStatistics]:
    """Maximum-likelihood factor extraction on a correlation matrix.

    The loadings are profiled out (:func:`_loadings_from_psi`) and
    :func:`newton_minimise` minimises F over log psi in the box
    [log ``PSI_FLOOR``, 0], from the uniquenesses ``start`` when given
    and else from (1 - m/2p) / diag(R^-1), either clipped to the box.
    The curvature is the exact Hessian where it is positive definite on
    the free uniquenesses and the expected information otherwise (Fisher
    scoring; Jennrich & Robinson 1969, Joreskog 1967): both go to the
    minimiser, whose Cholesky factorisation of the Hessian both decides
    and solves.

    Returns the unrotated solution together with chi-square based fit
    statistics (Bartlett-corrected) and BIC = chi^2 - df*log(n).
    """
    R = np.asarray(R, dtype=float)
    p = R.shape[0]
    _check_model_size(p, m)
    loadings = None  # of the latest derivatives call, which is at the returned x

    def objective(log_psi: np.ndarray) -> tuple[float, None]:
        return _profiled_objective(R, np.exp(log_psi), m), None

    def derivatives(log_psi: np.ndarray, _: None) -> tuple[np.ndarray, Callable]:
        nonlocal loadings
        psi = np.exp(log_psi)
        loadings, vals, vecs = _loadings_from_psi(R, psi, m)

        def curvature(free: np.ndarray) -> np.ndarray:
            # the exact Hessian, and the information where it is not positive definite
            hessian, information = _curvatures(vals, vecs, m)
            at = np.ix_(free, free)
            return np.stack((hessian[at], information[at]))

        return ((loadings**2).sum(axis=1) + psi - np.diag(R)) / psi, curvature

    if start is None:
        start = (1.0 - 0.5 * m / p) / np.diag(np.linalg.inv(R))
    result = newton_minimise(
        objective, derivatives, np.log(np.clip(start, PSI_FLOOR, 1.0)), math.log(PSI_FLOOR), 0.0
    )
    psi = np.exp(result.x)
    L = apply_sign_convention(loadings)[0]
    solution = FactorSolution(L, psi, np.eye(m), result, np.flatnonzero(psi <= PSI_FLOOR * (1 + 1e-9)).tolist())
    implied = L @ L.T + np.diag(psi)
    # Bartlett-corrected chi-squares; the null model is the identity
    df = ((p - m) ** 2 - p - m) // 2
    chi_square = max(n - 1 - (2 * p + 5) / 6 - 2 * m / 3, 0.0) * max(result.value, 0.0)
    sign, logdet = np.linalg.slogdet(R)
    chi_null = max(n - 1 - (2 * p + 5) / 6, 0.0) * (-logdet if sign > 0 else float("inf"))
    return solution, fit_indices(chi_square, df, chi_null, p * (p - 1) // 2, n, R, implied)


# ---------------------------------------------------------------------------
# rotation


def varimax_criterion(loadings: np.ndarray) -> float:
    """Sum over factors of the variance of squared loadings (1/p scaling)."""
    L2 = np.asarray(loadings, dtype=float) ** 2
    return float(np.sum((L2**2).mean(axis=0) - L2.mean(axis=0) ** 2))


def varimax(loadings: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthogonal varimax rotation by pairwise planar sweeps.

    Returns (rotated loadings, rotation matrix) with
    ``rotated = loadings @ rotation``.  One-column input is returned
    unchanged.  Communalities are invariant.
    """
    L = np.asarray(loadings, dtype=float).copy()
    p, m = L.shape
    rotation = np.eye(m)
    if m < 2:
        return L, rotation
    previous = varimax_criterion(L)
    for _ in range(1000):
        for j in range(m - 1):
            for k in range(j + 1, m):
                x, y = L[:, j], L[:, k]
                u = x * x - y * y
                v = 2.0 * x * y
                a = u.sum()
                b = v.sum()
                c = (u * u - v * v).sum()
                d = 2.0 * (u * v).sum()
                num = d - 2.0 * a * b / p
                den = c - (a * a - b * b) / p
                phi = 0.25 * math.atan2(num, den)
                if abs(phi) < 1e-13:
                    continue
                cos, sin = math.cos(phi), math.sin(phi)
                G = np.array([[cos, -sin], [sin, cos]])
                L[:, [j, k]] = L[:, [j, k]] @ G
                rotation[:, [j, k]] = rotation[:, [j, k]] @ G
        current = varimax_criterion(L)
        if current - previous < 1e-8:
            break
        previous = current
    return L, rotation


def rotate_solution(solution: FactorSolution) -> FactorSolution:
    """Kaiser-normalized varimax rotation; sign convention re-applied per column.

    The rotation angle is chosen on rows scaled to unit communality so
    every variable weighs equally in the criterion; the rotation is then
    applied to the raw loadings, so communalities are unaffected.
    """
    L = solution.loadings
    h = np.sqrt((L**2).sum(axis=1))
    h[h == 0] = 1.0
    _, rotation = varimax(L / h[:, None])
    L, signs = apply_sign_convention(L @ rotation)
    return replace(solution, loadings=L, rotation=solution.rotation @ rotation * signs)


# ---------------------------------------------------------------------------
# reliability


def cronbach_alpha(items: np.ndarray) -> float:
    """Internal-consistency alpha of an n-by-k item matrix (n-1 variances)."""
    X = np.asarray(items, dtype=float)
    n, k = X.shape
    if k < 2:
        raise ValueError("alpha requires at least two items")
    total_var = X.sum(axis=1).var(ddof=1)
    if total_var == 0:
        raise ZeroDivisionError("zero total variance")
    item_var = X.var(axis=0, ddof=1).sum()
    return float(k / (k - 1) * (1.0 - item_var / total_var))


def mcdonald_omega(loadings: Sequence[float], uniquenesses: Sequence[float]) -> float:
    """General-factor saturation from one-factor loadings and uniquenesses."""
    lam = np.asarray(loadings, dtype=float)
    psi = np.asarray(uniquenesses, dtype=float)
    if np.any(psi < 0):
        raise ValueError("uniquenesses must be non-negative")
    if np.all(lam == 0):
        return 0.0
    common = lam.sum() ** 2
    return float(common / (common + psi.sum()))


# ---------------------------------------------------------------------------
# interpretation helpers


def assign_indicators(
    loadings: np.ndarray, names: Sequence[str], cutoff: float = 0.3
) -> tuple[dict[int, list[str]], list[str]]:
    """Assign each variable to the factor of its maximal |loading|.

    Variables whose maximal |loading| does not exceed the cutoff are
    dropped.  Ties go to the lower factor index.
    """
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    L = np.abs(np.asarray(loadings, dtype=float))
    assignment: dict[int, list[str]] = {j: [] for j in range(L.shape[1])}
    dropped: list[str] = []
    for i, name in enumerate(names):
        j = int(L[i].argmax())
        if L[i, j] > cutoff:
            assignment[j].append(name)
        else:
            dropped.append(name)
    return assignment, dropped


def same_partition(
    first: tuple[dict, Sequence[str]], second: tuple[dict, Sequence[str]]
) -> bool:
    """Whether two ``(assignment, dropped)`` results of ``assign_indicators``
    split the indicators alike: the same sets of co-members, whatever the
    order of the factors, and the same dropped set."""

    def partition(result):
        assignment, dropped = result
        return {frozenset(members) for members in assignment.values() if members}, set(dropped)

    return partition(first) == partition(second)


def align_columns(reference: np.ndarray, loadings: np.ndarray) -> np.ndarray:
    """Best column permutation and signs of ``loadings`` against a reference.

    Minimises the Frobenius distance; used wherever solutions are only
    identified up to column order and sign.
    """
    ref = np.asarray(reference, dtype=float)
    L = np.asarray(loadings, dtype=float)
    m = L.shape[1]
    best: np.ndarray | None = None
    best_err = math.inf
    for perm in itertools.permutations(range(m)):
        candidate = L[:, perm].copy()
        for j in range(m):
            if np.dot(candidate[:, j], ref[:, j]) < 0:
                candidate[:, j] *= -1
        err = float(((candidate - ref) ** 2).sum())
        if err < best_err:
            best_err = err
            best = candidate
    assert best is not None
    return best

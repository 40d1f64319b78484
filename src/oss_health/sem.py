"""Confirmatory factor analysis and structural equation modelling.

Models are written in a small text language::

    Interest   =~ forks + stars + mentions     # measurement
    Engagement ~  Interest                     # structural regression
    forks      ~~ stars                        # residual covariance

Estimation minimises the maximum-likelihood covariance-structure
discrepancy by Fisher scoring, with the EFA's minimiser
(``factor.newton_minimise``).  The covariance implied by a parameter
vector comes from the path-matrix formulation
``Sigma = F (I - A)^-1 S (I - A)^-T F^T`` where ``A`` holds directed
coefficients, ``S`` the variances and covariances of exogenous terms, and
``F`` selects observed variables.  ``_Layout.implied`` evaluates it, once
per parameter vector, and the objective hands its matrices to everything
else at that vector.  The gradient and the expected information both come
from one analytic Jacobian of the implied covariance, ``_Layout.delta``,
the only code that differentiates it.

Identification is by unit loading: the first indicator of every latent is
fixed to one.  Variance parameters are left unconstrained during
optimisation so improper (negative variance) solutions remain observable;
they are flagged after the fit rather than hidden.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from .factor import CONVERGED_GRADIENT, FitStatistics, Minimum, fit_indices, newton_minimise
from .inputs import content_lines


class SemParseError(ValueError):
    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class SemSpecError(ValueError):
    """Structurally invalid model (cycles, duplicate indicators, ...)."""


# ---------------------------------------------------------------------------
# model


@dataclass(frozen=True)
class Parameter:
    kind: str  # "loading" | "path" | "variance" | "covariance"
    target: str
    source: str
    free: bool = True
    fixed_value: float | None = None

    @property
    def name(self) -> str:
        if self.kind == "loading":
            return f"{self.source}=~{self.target}"
        if self.kind == "path":
            return f"{self.target}~{self.source}"
        if self.kind == "variance":
            return f"var({self.target})"
        return f"cov({self.target},{self.source})"


@dataclass
class SemModel:
    latents: list[str]
    measurement: dict[str, list[str]]
    structural: list[tuple[str, str]] = field(default_factory=list)  # (dependent, predictor)
    residual_covariances: list[tuple[str, str]] = field(default_factory=list)

    def __post_init__(self) -> None:
        known = set(self.latents)
        seen: set[str] = set()
        for latent in self.latents:
            indicators = self.measurement.get(latent, [])
            if not indicators:
                raise SemSpecError(f"latent {latent!r} has no indicators")
            for ind in indicators:
                if ind in known:
                    raise SemSpecError(f"latent {ind!r} is used as an indicator")
                if ind in seen:
                    raise SemSpecError(f"indicator {ind!r} appears in two measurement equations")
                seen.add(ind)
        for k, (dep, pred) in enumerate(self.structural):
            for name in (dep, pred):
                if name not in known:
                    raise SemSpecError(f"structural path references unknown latent {name!r}")
            if (dep, pred) in self.structural[:k]:
                raise SemSpecError(f"structural path {dep} ~ {pred} is specified twice")
        self._check_acyclic()
        observed = set(self.observed)
        pairs: set[frozenset[str]] = set()
        for a, b in self.residual_covariances:
            if a == b:
                raise SemSpecError(f"cov({a},{a}) is a variance, not a residual covariance")
            for name in (a, b):
                if name not in observed:
                    raise SemSpecError(f"residual covariance references unknown indicator {name!r}")
            if frozenset((a, b)) in pairs:
                raise SemSpecError(f"residual covariance cov({a},{b}) is specified twice")
            pairs.add(frozenset((a, b)))

    def _check_acyclic(self) -> None:
        graph: dict[str, list[str]] = {latent: [] for latent in self.latents}
        for dep, pred in self.structural:
            graph[pred].append(dep)
        state: dict[str, int] = {}

        def visit(node: str, trail: list[str]) -> None:
            state[node] = 1
            for nxt in graph[node]:
                if state.get(nxt) == 1:
                    cycle = " -> ".join(trail + [node, nxt])
                    raise SemSpecError(f"structural graph has a cycle: {cycle}")
                if state.get(nxt, 0) == 0:
                    visit(nxt, trail + [node])
            state[node] = 2

        for latent in self.latents:
            if state.get(latent, 0) == 0:
                visit(latent, [])

    @property
    def observed(self) -> list[str]:
        out: list[str] = []
        for latent in self.latents:
            out.extend(self.measurement[latent])
        return out

    @property
    def endogenous_latents(self) -> set[str]:
        return {dep for dep, _ in self.structural}

    def parameters(self) -> list[Parameter]:
        params: list[Parameter] = []
        for latent in self.latents:
            for k, indicator in enumerate(self.measurement[latent]):
                if k == 0:
                    params.append(
                        Parameter("loading", indicator, latent, free=False, fixed_value=1.0)
                    )
                else:
                    params.append(Parameter("loading", indicator, latent))
        for dep, pred in self.structural:
            params.append(Parameter("path", dep, pred))
        for indicator in self.observed:
            params.append(Parameter("variance", indicator, indicator))
        for latent in self.latents:
            params.append(Parameter("variance", latent, latent))
        # covariances among latents: all pairs for a pure measurement
        # model, exogenous pairs once structural paths are present
        if self.structural:
            pool = [l for l in self.latents if l not in self.endogenous_latents]
        else:
            pool = list(self.latents)
        for i in range(len(pool)):
            for j in range(i + 1, len(pool)):
                params.append(Parameter("covariance", pool[i], pool[j]))
        for a, b in self.residual_covariances:
            params.append(Parameter("covariance", a, b))
        return params


def free_covariance(model: SemModel, a: str, b: str) -> SemModel:
    """Return a model with the residual covariance (a, b) freed; idempotent.

    The new model is validated as any other: a variance or an unknown
    indicator raises :class:`SemSpecError`.
    """
    pair = tuple(sorted((a, b)))
    pairs = [tuple(sorted(p)) for p in model.residual_covariances]
    if pair in pairs:
        return model
    return replace(model, residual_covariances=model.residual_covariances + [pair])


# ---------------------------------------------------------------------------
# parsing


def parse_model(text: str) -> SemModel:
    """Parse model text into a validated :class:`SemModel`."""
    latents: list[str] = []
    measurement: dict[str, list[str]] = {}
    regressions: list[tuple[str, str]] = []
    covariances: list[tuple[str, str]] = []

    for lineno, raw, line in content_lines(text):
        for op in ("=~", "~~", "~"):
            if op in line:
                left, _, right = line.partition(op)
                break
        else:
            raise SemParseError(f"no operator in {raw.strip()!r}", lineno)
        lhs = left.strip()
        if not lhs.isidentifier():
            raise SemParseError(f"bad name {lhs!r}", lineno, raw.find(lhs) + 1)
        terms = [t.strip() for t in right.split("+")]
        for term in terms:
            if not term.isidentifier():
                raise SemParseError(f"bad name {term!r}", lineno, max(raw.find(term), 0) + 1)
        if op == "=~":
            if lhs in measurement:
                raise SemParseError(f"latent {lhs!r} defined twice", lineno)
            latents.append(lhs)
            measurement[lhs] = terms
        elif op == "~~":
            if len(terms) != 1:
                raise SemParseError("covariance takes exactly one right-hand term", lineno)
            covariances.append((lhs, terms[0]))
        else:
            for term in terms:
                regressions.append((lhs, term))

    return SemModel(
        latents=latents,
        measurement=measurement,
        structural=regressions,
        residual_covariances=covariances,
    )


# ---------------------------------------------------------------------------
# covariance structure


_DIRECTED = ("loading", "path")


class _Layout:
    """Index bookkeeping: the one map from parameter values to A, S and
    Sigma, and the one derivative of Sigma with respect to them.

    Fixed values sit in the templates ``A0``/``S0``; free parameters are
    written by :meth:`implied` through precomputed index arrays, which
    :meth:`delta` reads back in the same order.  :meth:`implied` is the
    only place that inverts I - A: :meth:`delta` and :meth:`derivatives`
    take its B = (I - A)^-1.
    """

    def __init__(self, model: SemModel):
        self.model = model
        self.observed = model.observed
        self.variables = self.observed + model.latents
        self.index = {name: i for i, name in enumerate(self.variables)}
        self.p = len(self.observed)
        self.t = len(self.variables)
        self.params = model.parameters()
        self.free = [prm for prm in self.params if prm.free]
        self.A0 = np.zeros((self.t, self.t))
        self.S0 = np.zeros((self.t, self.t))
        for prm in self.params:
            if not prm.free:
                i, j = self.index[prm.target], self.index[prm.source]
                if prm.kind in _DIRECTED:
                    self.A0[i, j] = prm.fixed_value
                else:
                    self.S0[i, j] = self.S0[j, i] = prm.fixed_value
        directed = np.array([prm.kind in _DIRECTED for prm in self.free], dtype=bool)
        cells = np.array(
            [(self.index[prm.target], self.index[prm.source]) for prm in self.free], dtype=int
        ).reshape(-1, 2)
        self.a_free = np.flatnonzero(directed)
        self.a_cells = tuple(cells[directed].T)
        self.s_free = np.flatnonzero(~directed)
        self.s_cells = tuple(cells[~directed].T)

    def vector(self, values: Mapping[str, float]) -> np.ndarray:
        """Free-parameter vector, in model order, from a name -> value map."""
        for prm in self.free:
            if prm.name not in values:
                raise KeyError(f"missing value for parameter {prm.name}")
        return np.array([values[prm.name] for prm in self.free], dtype=float)

    def implied(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(A, S, Sigma, B) at ``theta``, with B = (I - A)^-1 and Sigma
        symmetric: everything later steps need at one parameter vector."""
        A = self.A0.copy()
        S = self.S0.copy()
        A[self.a_cells] = theta[self.a_free]
        S[self.s_cells] = theta[self.s_free]
        S[self.s_cells[::-1]] = theta[self.s_free]
        # indicators are never latents and the paths are acyclic, so I - A is
        # unit triangular in a topological order and always invertible
        B = np.linalg.inv(np.eye(self.t) - A)
        G = B[: self.p]
        sigma = G @ S @ G.T
        return A, S, (sigma + sigma.T) / 2, B

    def delta(self, B: np.ndarray, S: np.ndarray) -> np.ndarray:
        """(q, p, p) stack of dSigma/dtheta_k, in free-parameter order."""
        G = B[: self.p]
        out = np.empty((len(self.free), self.p, self.p))
        # A-cell (i, j): dG = G[:, i] B[j, :], so dSigma = dG S G^T + transpose
        rows, cols = self.a_cells
        d = G[:, rows].T[:, :, None] * (B @ S @ G.T)[cols, None, :]
        out[self.a_free] = d + d.transpose(0, 2, 1)
        # S-cell (i, j) sets both symmetric cells off the diagonal
        rows, cols = self.s_cells
        d = G[:, rows].T[:, :, None] * G[:, cols].T[:, None, :]
        off = (rows != cols)[:, None, None]
        out[self.s_free] = d + off * d.transpose(0, 2, 1)
        return out

    def derivatives(self, implied: tuple, sample: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Gradient and expected Hessian of F_ML against the sample
        covariance S, at :meth:`implied`'s Sigma = L L^T.

        Both come from the scaled Jacobian D_k = L^-1 Delta_k L^-T: the
        gradient <Sigma^-1 - Sigma^-1 S Sigma^-1, Delta_k> is
        <I - L^-1 S L^-T, D_k>, and H_ab = tr(Sigma^-1 Delta_a Sigma^-1
        Delta_b) is <D_a, D_b>.
        """
        _, Smat, sigma, B = implied
        root = np.linalg.inv(np.linalg.cholesky(sigma))
        scaled = (root @ self.delta(B, Smat) @ root.T).reshape(len(self.free), -1)
        residual = np.eye(self.p) - root @ sample @ root.T
        return scaled @ residual.ravel(), scaled @ scaled.T


def implied_covariance(model: SemModel, params: Mapping[str, float]) -> np.ndarray:
    """Model-implied covariance of the observed variables."""
    layout = _Layout(model)
    return layout.implied(layout.vector(params))[2]


# ---------------------------------------------------------------------------
# estimation


@dataclass
class ParamEstimate:
    value: float
    se: float
    z: float
    p_value: float
    free: bool


@dataclass
class SemFit:
    estimates: dict[str, ParamEstimate]
    standardized: dict[str, float]
    fit: FitStatistics
    heywood: list[str]
    n: int
    minimum: Minimum  # where F_ML's minimisation stopped

    @property
    def converged(self) -> bool:
        """``minimum.converged``, the one verdict callers and tracers read off a fit."""
        return self.minimum.converged


def _discrepancy_terms(S: np.ndarray) -> float:
    sign, logdet = np.linalg.slogdet(S)
    if sign <= 0:
        raise ValueError("sample covariance matrix is not positive definite")
    return logdet


def default_start_values(layout: _Layout, S: np.ndarray) -> np.ndarray:
    """Loadings 0.7, paths and covariances 0, variances half a sample
    diagonal: the indicator's own, or a latent's scale-setting indicator's."""
    start = np.zeros(len(layout.free))
    for k, prm in enumerate(layout.free):
        if prm.kind == "loading":
            start[k] = 0.7
        elif prm.kind == "variance":
            i = layout.index[layout.model.measurement.get(prm.target, [prm.target])[0]]
            start[k] = 0.5 * S[i, i]
    return start


def _objective_factory(layout: _Layout, S_sample: np.ndarray, logdet_s: float):
    """F_ML(theta), with :meth:`_Layout.implied`'s (A, S, Sigma, B) as the
    minimiser's ``extra``."""
    p = layout.p

    def objective(theta: np.ndarray) -> tuple[float, tuple | None]:
        implied = layout.implied(theta)
        sigma = implied[2]
        try:
            chol = np.linalg.cholesky(sigma)
        except np.linalg.LinAlgError:
            # an indefinite implied matrix can drive F below zero without
            # bound, so refuse the region outright
            return 1e12, None
        logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
        value = logdet + float(np.trace(S_sample @ np.linalg.inv(sigma))) - logdet_s - p
        return value, implied

    return objective


def ml_discrepancy(model: SemModel, params: Mapping[str, float], S: np.ndarray) -> float:
    """F_ML of one parameter vector against a sample covariance matrix."""
    layout = _Layout(model)
    S = np.asarray(S, dtype=float)
    return _objective_factory(layout, S, _discrepancy_terms(S))(layout.vector(params))[0]


def ml_gradient(model: SemModel, params: Mapping[str, float], S: np.ndarray) -> np.ndarray:
    """Analytic gradient of F_ML, ordered as the model's free parameters."""
    layout = _Layout(model)
    return layout.derivatives(layout.implied(layout.vector(params)), np.asarray(S, dtype=float))[0]


def two_sided_p(z: float) -> float:
    """Two-sided normal tail probability P(|Z| >= |z|), NaN for NaN."""
    return math.erfc(abs(z) / math.sqrt(2.0))


def fit_ml(
    model: SemModel, S: np.ndarray, n: int, start: Mapping[str, float] | None = None
) -> SemFit:
    """Maximum-likelihood fit of a model to a sample covariance matrix.

    F_ML is minimised by Fisher scoring (Lee & Jennrich 1979) with
    :func:`factor.newton_minimise`, unbounded.  It starts from
    :func:`default_start_values`, with each free parameter that ``start``
    names (a name -> value map, such as a nested model's estimates) set to
    its value there; names that are not free parameters of ``model`` are
    ignored.  A ``start`` whose implied covariance is not positive
    definite is not used.  The gradient and the expected Hessian both
    come from the one analytic Jacobian
    dSigma/dtheta (:meth:`_Layout.delta`, via :meth:`_Layout.derivatives`)
    at each accepted iterate; trial points cost F alone.  ``converged``
    means max |grad| <= ``CONVERGED_GRADIENT`` (1e-6) at exit.

    Standard errors come from the inverse expected information,
    (n - 1)/2 times H at the estimate, as in lavaan's default; H is the
    minimiser's last one, which is always at the returned estimate.  Negative
    variance estimates are reported in ``heywood`` rather than prevented;
    ``standardized`` is empty when an implied variance is not positive.
    """
    S = np.asarray(S, dtype=float)
    layout = _Layout(model)
    p = layout.p
    if S.shape != (p, p):
        raise ValueError(f"sample covariance is {S.shape}, model observes {p} variables")
    logdet_s = _discrepancy_terms(S)  # PD check
    n_free = len(layout.free)
    df = p * (p + 1) // 2 - n_free
    if df < 0:
        raise SemSpecError(f"model is not identified: {n_free} free parameters, df = {df}")

    last = ()  # (A, S, Sigma, B, H) of the latest derivatives call: at the returned x

    def derivatives(theta: np.ndarray, extra: tuple) -> tuple:
        nonlocal last
        grad, info = layout.derivatives(extra, S)
        last = (*extra, info)
        # unbounded, so every entry is free and H is the whole information
        return grad, lambda free: info

    objective = _objective_factory(layout, S, logdet_s)
    theta0 = default_start_values(layout, S)
    if start is not None:
        warm = np.array([start.get(prm.name, default) for prm, default in zip(layout.free, theta0)])
        if objective(warm)[1] is not None:
            theta0 = warm
    result = newton_minimise(objective, derivatives, theta0)
    theta = result.x
    A, Smat, sigma, B, H = last

    # standard errors via expected information
    info = max(n - 1, 1) / 2.0 * H
    try:
        cov = np.linalg.inv(info)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(info)
    se_diag = np.diag(cov)
    se = np.sqrt(np.where(se_diag > 0, se_diag, np.nan))
    z = theta / se

    estimates: dict[str, ParamEstimate] = {}
    k = 0
    for prm in layout.params:
        if prm.free:
            estimates[prm.name] = ParamEstimate(
                float(theta[k]), float(se[k]), float(z[k]), two_sided_p(float(z[k])), True
            )
            k += 1
        else:
            estimates[prm.name] = ParamEstimate(
                float(prm.fixed_value), 0.0, float("nan"), float("nan"), False
            )

    chi_square = max(n - 1, 1) * max(result.value, 0.0)
    # independence null: implied covariance diag(S)
    chi_null = max(n - 1, 1) * max(float(np.sum(np.log(np.diag(S)))) - logdet_s, 0.0)
    return SemFit(
        estimates=estimates,
        standardized=_standardized(layout, A, Smat, B),
        fit=fit_indices(chi_square, df, chi_null, p * (p - 1) // 2, n, S, sigma),
        heywood=[
            prm.name
            for prm, value in zip(layout.free, theta)
            if prm.kind == "variance" and value < 0
        ],
        n=n,
        minimum=result,
    )


def _standardized(
    layout: _Layout, A: np.ndarray, S: np.ndarray, B: np.ndarray
) -> dict[str, float]:
    """Estimates rescaled to unit-variance latents and indicators.

    A directed coefficient x -> y becomes raw * sd(x) / sd(y) with
    model-implied standard deviations; variances become proportions of
    the variable's implied variance.  An improper solution with a
    non-positive implied variance gives {}: the raw estimates and the
    heywood flags still describe it.
    """
    variances = np.diag(B @ S @ B.T)
    if np.any(variances <= 0):
        return {}
    sd = np.sqrt(variances)
    out: dict[str, float] = {}
    for prm in layout.params:
        i = layout.index[prm.target]
        j = layout.index[prm.source]
        if prm.kind in _DIRECTED:
            out[prm.name] = A[i, j] * sd[j] / sd[i]
        elif prm.kind == "variance":
            out[prm.name] = S[i, i] / variances[i]
        else:
            out[prm.name] = S[i, j] / (sd[i] * sd[j])
    return out


def compare_models(fit_a: SemFit, fit_b: SemFit) -> tuple[float, int, float]:
    """(chi-square, df, BIC) differences, a minus b; no automatic verdict."""
    if fit_a.n != fit_b.n:
        raise ValueError(f"sample sizes differ: {fit_a.n} vs {fit_b.n}")
    return (
        fit_a.fit.chi_square - fit_b.fit.chi_square,
        fit_a.fit.df - fit_b.fit.df,
        fit_a.fit.bic - fit_b.fit.bic,
    )


# ---------------------------------------------------------------------------
# reporting


def format_fit_report(fit: SemFit) -> str:
    """Aligned-column text table: estimate, SE, z, p, standardized."""
    lines = [
        f"{'parameter':<32}{'estimate':>10}{'se':>9}{'z':>8}{'p':>8}{'std':>9}",
    ]
    for name, est in fit.estimates.items():
        se = f"{est.se:.3f}" if est.free else "-"
        z = f"{est.z:.2f}" if est.free and not math.isnan(est.z) else "-"
        p_value = f"{est.p_value:.3f}" if est.free and not math.isnan(est.p_value) else "-"
        std = fit.standardized.get(name, float("nan"))
        lines.append(
            f"{name:<32}{est.value:>10.3f}{se:>9}{z:>8}{p_value:>8}{std:>9.3f}"
        )
    lines += ["", fit.fit.summary()]
    if fit.heywood:
        lines.append("improper solution: negative variance for " + ", ".join(fit.heywood))
    return "\n".join(lines)

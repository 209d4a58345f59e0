"""Composite objective f = g + h: least-squares fidelity plus the
restoration-prior regularizer

    h(x) = tau * E_{H ~ weights, s ~ N(Hx, sigma² I)}[ -log p(s | H) ],

whose gradient reduces exactly to the averaged restoration residual

    ∇h(x) = (tau / sigma²) E[ Hᵀ H (x - R*(s, H)) ].

Exact evaluation of h is available for single-Gaussian priors (Gaussian
cross-entropy) and, for small observation dimensions, by Gauss-Hermite
quadrature; everything else goes through the Monte Carlo estimators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .operators import DimensionMismatch, gram_operator_norm
from .priors import LinearGaussianPosterior, ObservationModel, _LOG_2PI

# Gauss-Hermite resolution per observation dimension for the quadrature
# fallback; beyond 4 dimensions the node count is no longer reasonable.
_GH_POINTS = {1: 64, 2: 40, 3: 16, 4: 10}

# Largest signal dimension for the dense single-Gaussian closed forms.
_DENSE_CAP_DIM = 512


class ClosedFormUnavailable(ValueError):
    """reg_value_exact cannot handle this (components, dimension) combination."""


@dataclass
class Problem:
    """Measurement model y = A x + e with least-squares fidelity."""

    A: object
    y: np.ndarray

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        if self.y.shape != (self.A.out_dim,):
            raise DimensionMismatch("measurement y", self.A.out_dim, self.y.shape[-1])


@dataclass
class Regularizer:
    """Regularization strength tau, prior, and the degradation ensemble."""

    tau: float
    prior: object
    ens: object

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.ens.in_dim != self.prior.dim:
            raise DimensionMismatch("ensemble in_dim", self.prior.dim, self.ens.in_dim)


def fidelity(problem, x):
    r = problem.A.apply(x) - problem.y
    return 0.5 * float(np.dot(r, r))


def fidelity_grad(problem, x):
    return problem.A.adjoint_apply(problem.A.apply(x) - problem.y)


def fidelity_lipschitz(problem, iters=200):
    """Power-iteration estimate of ||AᵀA||_2, the fidelity gradient's constant."""
    return gram_operator_norm(problem.A, iters=iters)


def _posteriors(reg):
    sigma = reg.ens.sigma
    return [
        LinearGaussianPosterior(reg.prior, ObservationModel(H, sigma))
        for H in reg.ens.members
    ]


# -- exact / quadrature values ---------------------------------------------------


class SingleGaussianForms:
    """Closed forms for h when the prior has a single Gaussian component.

    h is then the quadratic
        h(x) = 0.5 (x - mu)ᵀ C (x - mu) + const,
        C    = tau * sum_j p_j H_jᵀ S_j^{-1} H_j,
    with S_j = H_j Sigma H_jᵀ + sigma² I, which also yields the exact gradient
    and the exact curvature bound used by the convergence auditor. Every
    S_j^{-1} and log det S_j comes from member j's posterior.
    """

    def __init__(self, reg):
        prior, ens = reg.prior, reg.ens
        if prior.n_components != 1:
            raise ClosedFormUnavailable("single-Gaussian forms need one component")
        if prior.dim > _DENSE_CAP_DIM:
            raise ClosedFormUnavailable(
                f"dense closed form capped at dim {_DENSE_CAP_DIM}; "
                "use reg_value_mc / reg_grad_exact"
            )
        self.tau = reg.tau
        self.mu = prior.means[0]
        sigma2 = ens.sigma ** 2
        curvature = np.zeros((prior.dim, prior.dim))
        const = 0.0
        for post, H, p in zip(_posteriors(reg), ens.members, ens.weights):
            hd = H.to_dense()
            m = H.out_dim
            sinv_h = post._solve(0, hd.T).T
            curvature += p * hd.T @ sinv_h
            trinv = float(np.trace(post._solve(0, np.eye(m))))
            const += p * 0.5 * (m * _LOG_2PI + post._logdets[0] + sigma2 * trinv)
        self.curvature = self.tau * curvature
        self.constant = self.tau * const

    def value(self, x):
        d = np.asarray(x, dtype=float) - self.mu
        return 0.5 * float(d @ self.curvature @ d) + self.constant

    def grad(self, x):
        return self.curvature @ (np.asarray(x, dtype=float) - self.mu)

    def curvature_norm(self):
        return float(np.max(scipy.linalg.eigvalsh(self.curvature)))


def reg_value_exact(reg, x):
    """h(x) without sampling.

    Single-Gaussian priors use the Gaussian cross-entropy closed form. For
    mixtures the inner expectation has no closed form; observation dimensions
    up to 4 are integrated by Gauss-Hermite quadrature, larger ones refuse.
    """
    x = np.asarray(x, dtype=float)
    if reg.prior.n_components == 1:
        return SingleGaussianForms(reg).value(x)
    sigma = reg.ens.sigma
    total = 0.0
    for post, H, p in zip(_posteriors(reg), reg.ens.members, reg.ens.weights):
        m = H.out_dim
        if m not in _GH_POINTS:
            raise ClosedFormUnavailable(
                f"no closed form for {reg.prior.n_components} components at "
                f"observation dim {m}; use reg_value_mc"
            )
        nodes, weights = np.polynomial.hermite.hermgauss(_GH_POINTS[m])
        grids = np.meshgrid(*([nodes] * m), indexing="ij")
        u = np.stack([g.ravel() for g in grids], axis=-1)
        wgrids = np.meshgrid(*([weights] * m), indexing="ij")
        w = np.prod(np.stack([g.ravel() for g in wgrids], axis=-1), axis=-1)
        s = H.apply(x) + np.sqrt(2.0) * sigma * u
        vals = -post.logpdf(s)
        total += p * float(np.sum(w * vals)) / np.pi ** (m / 2.0)
    return reg.tau * total


def reg_value_mc(reg, x, mc_samples, rng):
    """Unbiased Monte Carlo estimate of h(x) with its standard error.

    Draws come from ``DegradationEnsemble.observe``, so two calls with
    identically seeded generators share their randomness; that is what makes
    common-random-number finite differences work.
    """
    if mc_samples < 2:
        raise ValueError("mc_samples must be at least 2")
    x = np.asarray(x, dtype=float)
    posts = _posteriors(reg)
    vals = np.empty(int(mc_samples))
    for j, _, rows, s in reg.ens.observe(x, mc_samples, rng):
        vals[rows] = -posts[j].logpdf(s)
    est = reg.tau * float(np.mean(vals))
    se = reg.tau * float(np.std(vals, ddof=1) / np.sqrt(mc_samples))
    return est, se


# -- gradients --------------------------------------------------------------------


def reg_grad_exact(reg, x, mc_samples, rng, return_se=False):
    """Monte Carlo estimator of ∇h built on the exact posterior mean.

    The integrand uses the exact restoration operator, so the estimator is
    unbiased for the true gradient of h.
    """
    if mc_samples < 2:
        raise ValueError("mc_samples must be at least 2")
    x = np.asarray(x, dtype=float)
    posts = _posteriors(reg)
    sigma = reg.ens.sigma
    scale = reg.tau / (sigma * sigma)
    total = np.zeros(reg.prior.dim)
    total_sq = np.zeros(reg.prior.dim)
    for j, H, _, s in reg.ens.observe(x, mc_samples, rng):
        terms = scale * H.gram_apply(x - posts[j].posterior_mean(s))
        total += np.sum(terms, axis=0)
        total_sq += np.sum(terms ** 2, axis=0)
    n = int(mc_samples)
    mean = total / n
    if not return_se:
        return mean
    var = np.maximum(total_sq / n - mean ** 2, 0.0) * n / (n - 1)
    return mean, np.sqrt(var / n)


def reg_grad_gaussian(reg, x):
    """Exact ∇h for single-Gaussian priors (affine in x)."""
    return SingleGaussianForms(reg).grad(x)


def regularizer_curvature_bound(reg):
    """Lipschitz constant of ∇h: exact for one component, else the
    (tau/sigma²) max_j ||H_jᵀH_j|| upper bound (the posterior mean is a
    contraction for Gaussian priors, so the bound is safe but conservative)."""
    if reg.prior.n_components == 1:
        try:
            return SingleGaussianForms(reg).curvature_norm(), "exact"
        except ClosedFormUnavailable:
            pass
    worst = max(gram_operator_norm(H) for H in reg.ens.members)
    return reg.tau / reg.ens.sigma ** 2 * worst, "upper-bound"


def gaussian_objective_minimum(problem, reg):
    """Exact minimizer and minimum of f = g + h for single-Gaussian priors."""
    forms = SingleGaussianForms(reg)
    ad = problem.A.to_dense()
    lhs = ad.T @ ad + forms.curvature
    rhs = ad.T @ problem.y + forms.curvature @ forms.mu
    x_star = scipy.linalg.solve(lhs, rhs, assume_a="sym")
    f_star = fidelity(problem, x_star) + forms.value(x_star)
    return x_star, f_star


# -- stochastic gradient -----------------------------------------------------------


def regularizer_step(reg, restorer, x, members, rng):
    """Regularizer term of one stochastic step, averaged over ``members``.

    For each member index j, in draw order, draws one noise vector and forms
    (tau/sigma²) H_jᵀH_j (x - R(H_j x + sigma n, H_j)).
    """
    ens = reg.ens
    scale = reg.tau / (ens.sigma * ens.sigma)
    terms = np.empty((len(members), x.size))
    for i, j in enumerate(members):
        H = ens.members[j]
        s = H.apply(x) + ens.sigma * rng.standard_normal(H.out_dim)
        terms[i] = scale * H.gram_apply(x - restorer.restore(s, H))
    return terms.sum(axis=0) / len(members)


def stochastic_grad(problem, reg, restorer, x, rng, batch=1):
    """One stochastic gradient ∇g(x) + (tau/sigma²) HᵀH (x - R(s, H)).

    ``batch`` > 1 averages that many independent (H, s) draws of the
    regularizer term; batch = 1 is the plain single-draw update. All member
    indices are drawn first, in one ``choice`` call, then the noise.
    """
    if batch < 1:
        raise ValueError("batch must be at least 1")
    x = np.asarray(x, dtype=float)
    members = rng.choice(reg.ens.size, size=int(batch), p=reg.ens.weights)
    return fidelity_grad(problem, x) + regularizer_step(reg, restorer, x, members, rng)


def variance_probe(problem, reg, restorer, x, mc_samples, rng):
    """Empirical trace-variance of the stochastic gradient at x.

    The fidelity part is deterministic, so only the regularizer term
    contributes; returns sum_d Var[term_d] with the unbiased (ddof=1)
    normalization.
    """
    if mc_samples < 2:
        raise ValueError("mc_samples must be at least 2")
    x = np.asarray(x, dtype=float)
    sigma = reg.ens.sigma
    scale = reg.tau / (sigma * sigma)
    total = np.zeros(reg.prior.dim)
    sumsq = 0.0
    for _, H, _, s in reg.ens.observe(x, mc_samples, rng):
        terms = scale * H.gram_apply(x - restorer.restore(s, H))
        total += np.sum(terms, axis=0)
        sumsq += float(np.sum(terms ** 2))
    n = int(mc_samples)
    mean = total / n
    return max(sumsq - n * float(np.dot(mean, mean)), 0.0) / (n - 1)

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
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .operators import DimensionMismatch, gram_operator_norm
from .priors import LinearGaussianPosterior, ObservationModel, _LOG_2PI
from .restoration import (
    ConstantOffset,
    ExactMmse,
    Gain,
    Smoothing,
    _mc_point,
    _residual_moments,
    _unwrap,
    restore_with_exact,
)

# Gauss-Hermite resolution per observation dimension for the quadrature
# fallback; beyond 4 dimensions the node count is no longer reasonable.
_GH_POINTS = {1: 64, 2: 40, 3: 16, 4: 10}

# Largest signal dimension for the dense single-Gaussian closed forms.
_DENSE_CAP_DIM = 512


class ClosedFormUnavailable(ValueError):
    """No closed form for this prior, dimension or restorer."""


@dataclass
class Problem:
    """Measurement model y = A x + e with least-squares fidelity."""

    A: object
    y: np.ndarray

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        if self.y.shape != (self.A.out_dim,):
            raise DimensionMismatch(
                f"measurement y must be a vector, got shape {self.y.shape}",
                self.A.out_dim, self.y.size)


@dataclass(frozen=True)
class Regularizer:
    """Regularization strength tau, prior, and the degradation ensemble.

    Frozen: the single-Gaussian closed forms are built from the three on
    first use and kept, like an operator's caches.
    """

    tau: float
    prior: object
    ens: object

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.ens.in_dim != self.prior.dim:
            raise DimensionMismatch("ensemble in_dim", self.prior.dim, self.ens.in_dim)

    @cached_property
    def gaussian_forms(self):
        """This regularizer's ``SingleGaussianForms``, built once on first use.

        Raises ``ClosedFormUnavailable`` (before any dense work, and on every
        use) when the prior has more than one component or exceeds the dense
        cap.
        """
        return SingleGaussianForms(self)


def fidelity(problem, x):
    r = problem.A.apply(x) - problem.y
    return 0.5 * float(np.dot(r, r))


def fidelity_grad(problem, x):
    return problem.A.adjoint_apply(problem.A.apply(x) - problem.y)


def fidelity_lipschitz(problem):
    """Power-iteration estimate of ||AᵀA||_2, the fidelity gradient's constant."""
    return gram_operator_norm(problem.A)


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
        self.curvature.flags.writeable = False
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
        return reg.gaussian_forms.value(x)
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
    x = _mc_point(reg.ens, x, mc_samples, 2)
    posts = _posteriors(reg)
    vals = np.empty(int(mc_samples))
    for j, _, rows, s in reg.ens.observe(x, mc_samples, rng):
        vals[rows] = -posts[j].logpdf(s)
    est = reg.tau * float(np.mean(vals))
    se = reg.tau * float(np.std(vals, ddof=1) / np.sqrt(mc_samples))
    return est, se


# -- gradients --------------------------------------------------------------------


def _sample_variance(mean, mean_sq, n):
    """Unbiased (ddof=1) per-coordinate variance from n draws' moments."""
    return np.maximum(mean_sq - mean ** 2, 0.0) * n / (n - 1)


def reg_grad_exact(reg, x, mc_samples, rng, return_se=False):
    """Monte Carlo estimator of ∇h built on the exact posterior mean.

    The integrand uses the exact restoration operator, so the estimator is
    unbiased for the true gradient of h. ``return_se`` adds the per-coordinate
    standard error of the mean.
    """
    x = _mc_point(reg.ens, x, mc_samples, 2)
    exact = ExactMmse(reg.prior, reg.ens.sigma)
    mean, mean_sq = _residual_moments(reg.ens, x, reg.tau, mc_samples, rng,
                                      lambda s, H: x - exact.restore(s, H))
    if not return_se:
        return mean
    n = int(mc_samples)
    return mean, np.sqrt(_sample_variance(mean, mean_sq, n) / n)


def regularizer_curvature_bound(reg):
    """Lipschitz constant of ∇h: exact for one component, else the
    (tau/sigma²) max_j ||H_jᵀH_j|| upper bound (the posterior mean is a
    contraction for Gaussian priors, so the bound is safe but conservative)."""
    try:
        return reg.gaussian_forms.curvature_norm(), "exact"
    except ClosedFormUnavailable:
        pass
    worst = max(gram_operator_norm(H) for H in reg.ens.members)
    return reg.tau / reg.ens.sigma ** 2 * worst, "upper-bound"


def gaussian_objective_minimum(problem, reg):
    """Exact minimizer and minimum of f = g + h for single-Gaussian priors."""
    forms = reg.gaussian_forms
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
    (tau/sigma²) H_jᵀH_j (x - R(H_j x + sigma n, H_j)). A single draw is
    returned as its term plus 0.0, the bits of the one-row mean (whose sum
    starts from +0.0). Batches keep the (b, n) buffer: for n = 1 numpy sums
    its column pairwise, which a running sum does not reproduce.
    """
    ens = reg.ens
    scale = reg.tau / (ens.sigma * ens.sigma)

    def term(j):
        H = ens.members[j]
        s = H.apply(x) + ens.sigma * rng.standard_normal(H.out_dim)
        return scale * H.gram_apply(x - restorer.restore(s, H))

    if len(members) == 1:
        return term(members[0]) + 0.0
    return np.sum([term(j) for j in members], axis=0) / len(members)


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


def variance_probe(reg, restorer, x, mc_samples, rng):
    """Empirical trace-variance of the stochastic gradient at x.

    The fidelity part is deterministic, so only the regularizer term
    contributes; returns sum_d Var[term_d] with the unbiased (ddof=1)
    normalization.
    """
    x = _mc_point(reg.ens, x, mc_samples, 2)
    mean, mean_sq = _residual_moments(reg.ens, x, reg.tau, mc_samples, rng,
                                      lambda s, H: x - restorer.restore(s, H))
    return float(np.sum(_sample_variance(mean, mean_sq, int(mc_samples))))


class AuditTerms(NamedTuple):
    """Closed-form audit terms at P probe points for an ensemble of J members.

    ``moments[i, j]`` is member j's E||term||² = ||a_j||² + ||B_j||_F² at
    point i, and ``member_bias[i, j]`` its bias b_j, with b = Σ_j p_j b_j.
    """

    nu2: np.ndarray  # (P,) trace-variance of the stochastic gradient
    bias: np.ndarray  # (P, n) b(x)
    moments: np.ndarray  # (P, J)
    member_bias: np.ndarray  # (P, J, n)


_AFFINE_PERTURBATIONS = (ConstantOffset, Gain, Smoothing)


def exact_audit_terms(reg, restorer, points):
    """ν²(x) and b(x) at each probe point in closed form, without drawing.

    With one Gaussian component the exact restorer R* is affine in s, and
    every perturbation in ``restoration`` (offset, gain, smoothing) is affine
    in the estimate, so R(s, H_j) = R(0, H_j) + L_j s. Member j's step term
    at s = H_j x + sigma n is then a_j + B_j n, with G_j = H_jᵀH_j,

        a_j = (tau/sigma²) G_j (x - R(H_j x)),   B_j = -(tau/sigma) G_j L_j,

    and, exactly,

        ν²(x) = Σ_j p_j (||a_j||² + ||B_j||_F²) - ||Σ_j p_j a_j||²,
        b(x)  = (tau/sigma²) Σ_j p_j G_j (R*(H_j x) - R(H_j x)).

    L_j = R(I_m) - R(0_m) comes from the same batched restore as R(H_j x),
    once per member for all points. Raises ``ClosedFormUnavailable`` unless
    the restorer is an exact posterior mean of a one-component prior of
    dimension at most the dense cap, wrapped only in those perturbations.
    """
    try:
        exact, links = _unwrap(restorer)
    except TypeError as exc:
        raise ClosedFormUnavailable(str(exc)) from exc
    prior = exact.prior
    if prior.n_components != 1:
        raise ClosedFormUnavailable("exact audit terms need a one-component prior")
    if prior.dim > _DENSE_CAP_DIM:
        raise ClosedFormUnavailable(f"exact audit terms capped at dim {_DENSE_CAP_DIM}")
    if not all(isinstance(link.perturbation, _AFFINE_PERTURBATIONS) for link in links):
        raise ClosedFormUnavailable("exact audit terms need affine perturbations")
    ens = reg.ens
    scale = reg.tau / (ens.sigma * ens.sigma)
    x = np.asarray(points, dtype=float)
    count = len(x)
    a, bias, moments = [], [], []
    for H in ens.members:
        m = H.out_dim
        s = np.concatenate([H.apply(x), np.zeros((1, m)), np.eye(m)])
        exact_est, est = restore_with_exact(exact, links, s, H)
        linear = est[count + 1:] - est[count]  # rows: the columns of L_j
        a_j = scale * H.gram_apply(x - est[:count])
        frob = (reg.tau / ens.sigma) ** 2 * float(np.sum(H.gram_apply(linear) ** 2))
        a.append(a_j)
        bias.append(scale * H.gram_apply(exact_est[:count] - est[:count]))
        moments.append(np.sum(a_j ** 2, axis=-1) + frob)
    p = ens.weights
    moments = np.stack(moments, axis=-1)
    mean = np.tensordot(p, np.stack(a), axes=1)
    bias = np.stack(bias, axis=1)
    return AuditTerms(
        nu2=np.maximum(moments @ p - np.sum(mean ** 2, axis=-1), 0.0),
        bias=bias.transpose(0, 2, 1) @ p,
        moments=moments,
        member_bias=bias,
    )

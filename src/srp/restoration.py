"""Restoration operators R(s, H) and the Monte Carlo kernel over them.

The exact operator is the posterior mean under the Gaussian-mixture prior.
Inexact operators are modeled as parametric perturbations of an inner
operator: a constant offset (bias independent of the signal), an innovation
gain (bias proportional to the signal, so any bound only holds on the probed
domain), and a circular box smoothing (frequency-selective bias). All three
are affine in the estimate.

Three Monte Carlo estimators are moments of one integrand over draws
H ~ weights, s = H x + sigma n from ``DegradationEnsemble.observe``,

    (tau / sigma²) Hᵀ H r(s, H),

and share one draw-and-restore kernel, ``_residual_moments``: the gradient
of h (``objective.reg_grad_exact``, r = x - R*), the stochastic step's
trace-variance (``objective.variance_probe``, r = x - R) and the bias vector
(``bias_vector``, r = R* - R)

    b(x) = (tau / sigma²) E_{H, s}[ Hᵀ H (R*(s, H) - R(s, H)) ].

For a single-Gaussian prior R is affine in s, and
``objective.exact_audit_terms`` gives the variance and b(x) in closed form
instead.
"""

from __future__ import annotations

import numpy as np
from scipy.ndimage import uniform_filter1d

from .operators import DimensionMismatch
from .priors import LinearGaussianPosterior, ObservationModel


class RestorationOperator:
    """Maps a degraded observation s (under operator H) to a signal estimate."""

    kind = "abstract"

    def restore(self, s, H):
        raise NotImplementedError

    @property
    def prior_mean(self):
        raise NotImplementedError

    @property
    def base_sigma(self):
        """Noise level of the underlying exact posterior machinery."""
        raise NotImplementedError


class ExactMmse(RestorationOperator):
    """The exact MMSE restoration operator for a GMM prior at noise level sigma."""

    kind = "exact-mmse"

    def __init__(self, prior, sigma):
        self.prior = prior
        self.sigma = float(sigma)
        self._posteriors = {}

    def _posterior(self, H):
        key = id(H)
        hit = self._posteriors.get(key)
        if hit is not None and hit[0] is H:
            return hit[1]
        post = LinearGaussianPosterior(self.prior, ObservationModel(H, self.sigma))
        self._posteriors[key] = (H, post)
        return post

    def restore(self, s, H):
        return self._posterior(H).posterior_mean(s)

    @property
    def prior_mean(self):
        return self.prior.overall_mean()

    @property
    def base_sigma(self):
        return self.sigma


class ConstantOffset:
    """Adds a fixed vector c to the inner estimate."""

    kind = "constant-offset"

    def __init__(self, offset):
        self.offset = np.atleast_1d(np.asarray(offset, dtype=float))

    def perturb(self, estimate, restorer):
        return estimate + self.offset


class Gain:
    """Scales the innovation (estimate minus prior mean) by lam."""

    kind = "gain"

    def __init__(self, lam):
        self.lam = float(lam)

    def perturb(self, estimate, restorer):
        center = restorer.prior_mean
        return center + self.lam * (estimate - center)


class Smoothing:
    """Circular box average of width ``strength`` over the signal axis."""

    kind = "smoothing"

    def __init__(self, strength):
        self.strength = int(strength)
        if self.strength < 1:
            raise ValueError("smoothing strength must be a positive window size")

    def perturb(self, estimate, restorer):
        return uniform_filter1d(estimate, size=self.strength, axis=-1, mode="wrap")


class Biased(RestorationOperator):
    """Inner restoration followed by a parametric perturbation."""

    kind = "biased"

    def __init__(self, inner, perturbation):
        self.inner = inner
        self.perturbation = perturbation

    def restore(self, s, H):
        return self.perturbation.perturb(self.inner.restore(s, H), self)

    @property
    def prior_mean(self):
        return self.inner.prior_mean

    @property
    def base_sigma(self):
        return self.inner.base_sigma


def _unwrap(restorer):
    """(exact operator, its ``Biased`` wrappers innermost first)."""
    links = []
    while isinstance(restorer, Biased):
        links.append(restorer)
        restorer = restorer.inner
    if not isinstance(restorer, ExactMmse):
        raise TypeError(f"no exact counterpart for restorer kind {restorer.kind!r}")
    return restorer, links[::-1]


def restore_with_exact(exact, links, s, H):
    """(R*(s, H), R(s, H)) from one restore, for ``exact, links =
    _unwrap(R)``: the exact estimate, then R's perturbation chain applied to
    it, innermost link first. The second is ``R.restore(s, H)`` bit for bit.
    """
    est = exact_est = exact.restore(s, H)
    for link in links:
        est = link.perturbation.perturb(est, link)
    return exact_est, est


def _mc_point(ens, x, mc_samples, least):
    """``x`` as a float vector, for a Monte Carlo estimator over ``ens``.

    Refuses fewer than ``least`` samples (``ValueError``) and any point that
    is not a 1-D vector of length ``ens.in_dim`` (``DimensionMismatch``).
    """
    if mc_samples < least:
        raise ValueError(f"mc_samples must be at least {least}")
    x = np.asarray(x, dtype=float)
    if x.shape != (ens.in_dim,):
        raise DimensionMismatch(f"Monte Carlo point must be 1-D, got shape {x.shape}",
                                ens.in_dim, x.size)
    return x


def _residual_moments(ens, x, tau, mc_samples, rng, residual):
    """Per-coordinate mean and mean square of (tau/sigma²) HᵀH residual(s, H)
    over ``mc_samples`` draws of ``ens.observe(x)``.

    ``residual(s, H)`` maps one member's (c, out_dim) block of observations
    to (c, in_dim) residuals. Sums run over the unscaled terms; the scale is
    applied once, after them.
    """
    total = np.zeros(ens.in_dim)
    total_sq = np.zeros(ens.in_dim)
    for _, H, _, s in ens.observe(x, mc_samples, rng):
        terms = H.gram_apply(residual(s, H))
        total += np.sum(terms, axis=0)
        total_sq += np.sum(terms ** 2, axis=0)
    scale = float(tau) / (ens.sigma * ens.sigma)
    n = int(mc_samples)
    return scale * total / n, scale * scale * total_sq / n


def bias_vector(restorer, ens, x, tau, mc_samples, rng):
    """Monte Carlo estimate of the bias vector b(x).

    Each draw is restored once: the exact estimate, then the restorer's
    perturbation chain applied to it. For the exact operator the integrand
    is identically zero sample by sample, so the estimate is exactly zero:
    it is returned without drawing, and ``rng`` is left untouched.
    """
    x = _mc_point(ens, x, mc_samples, 1)
    exact, links = _unwrap(restorer)
    if not links:
        return np.zeros(ens.in_dim)
    gap = lambda s, H: np.subtract(*restore_with_exact(exact, links, s, H))
    return _residual_moments(ens, x, tau, mc_samples, rng, gap)[0]

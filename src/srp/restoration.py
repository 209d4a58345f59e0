"""Restoration operators R(s, H) and the Monte Carlo kernel over them.

The exact operator ``ExactMmse`` is the posterior mean under the
Gaussian-mixture prior. Every restorer is that operator inside zero or more
``Biased`` wrappers, each adding one parametric perturbation: a constant
offset (bias independent of the signal), an innovation gain (bias
proportional to the signal, so any bound only holds on the probed domain),
or a circular box smoothing (frequency-selective bias). All three are affine
in the estimate. A restorer's ``exact`` is its exact operator and its
``perturbations`` the chain applied to that operator's estimate, innermost
first.

The one draw-and-restore kernel, ``_residual_moments``, takes moments of

    (tau / sigma²) Hᵀ H r(s, H)

over draws H ~ weights, s = H x + sigma n from ``DegradationEnsemble.observe``.
The library estimates the gradient of h with it (``objective.reg_grad_exact``,
r = x - R*). The test references in ``tests/references.py`` estimate the
stochastic step's trace-variance (r = x - R) and the bias vector
(r = R* - R) with it,

    b(x) = (tau / sigma²) E_{H, s}[ Hᵀ H (R*(s, H) - R(s, H)) ].

For a single-Gaussian prior R is affine in s, and
``objective.exact_audit_terms`` gives the variance and b(x) in closed form,
which is what the audit reads.
"""

from __future__ import annotations

import numpy as np
from scipy.ndimage import uniform_filter1d

from .operators import DimensionMismatch
from .priors import DiagonalRows, LinearGaussianPosterior, ObservationModel, StackedPosterior


class ExactMmse:
    """The exact MMSE restoration operator for a GMM prior at noise level sigma.

    Like every restorer, it has ``exact``, the exact operator underneath
    (itself), and ``perturbations``, the perturbation chain applied to that
    operator's estimate, innermost first (none).

    Posteriors are built on first use and kept: one per operator, and per
    member tuple the ``stacked`` posterior or None.
    """

    perturbations = ()

    def __init__(self, prior, sigma):
        self.prior = prior
        self.sigma = float(sigma)
        self._posteriors = {}  # operator -> its posterior; operators hash by identity
        self._stacks = {}  # member tuple -> its StackedPosterior, or None

    @property
    def exact(self):
        # not an attribute: a reference to itself would make a cycle that
        # keeps a dropped restorer's cached posteriors until a full collection
        return self

    def stacked(self, members):
        """The ``StackedPosterior`` of the block whose row j is ``members[j]``
        when every member is diagonal and the prior isotropic, else None."""
        if members not in self._stacks:
            diags = [H._diagonal_entries() for H in members] if self.prior.is_isotropic else [None]
            self._stacks[members] = None if any(d is None for d in diags) else StackedPosterior.of(
                [self._posterior(H) for H in members], diags)
        return self._stacks[members]

    def _posterior(self, H):
        if isinstance(H, DiagonalRows):  # a block over a stack's members
            return self._stacks[H.members].rows(H)
        post = self._posteriors.get(H)
        if post is None:
            post = self._posteriors[H] = LinearGaussianPosterior(
                self.prior, ObservationModel(H, self.sigma))
        return post

    def restore(self, s, H):
        return self._posterior(H).posterior_mean(s)


class ConstantOffset:
    """Adds a fixed vector c to the inner estimate."""

    def __init__(self, offset):
        self.offset = np.atleast_1d(np.asarray(offset, dtype=float))

    def perturb(self, estimate, exact):
        return estimate + self.offset


class Gain:
    """Scales the innovation (estimate minus prior mean) by lam."""

    def __init__(self, lam):
        self.lam = float(lam)

    def perturb(self, estimate, exact):
        center = exact.prior.overall_mean()
        return center + self.lam * (estimate - center)


class Smoothing:
    """Circular box average of width ``strength`` over the signal axis."""

    def __init__(self, strength):
        self.strength = int(strength)
        if self.strength < 1:
            raise ValueError("smoothing strength must be a positive window size")

    def perturb(self, estimate, exact):
        return uniform_filter1d(estimate, size=self.strength, axis=-1, mode="wrap")


class Biased:
    """Inner restoration followed by a parametric perturbation."""

    def __init__(self, inner, perturbation):
        self.exact = inner.exact
        self.perturbations = (*inner.perturbations, perturbation)

    def restore(self, s, H):
        return restore_with_exact(self, s, H)[1]


def restore_with_exact(restorer, s, H):
    """(R*(s, H), R(s, H)) from one restore: the exact estimate of
    ``restorer.exact``, then R's perturbations applied to it, innermost
    first. The second is ``restorer.restore(s, H)`` bit for bit.
    """
    exact = restorer.exact
    est = exact_est = exact.restore(s, H)
    for p in restorer.perturbations:
        est = p.perturb(est, exact)
    return exact_est, est


def _mc_point(ens, x, mc_samples):
    """``x`` as a float vector, for a Monte Carlo estimator over ``ens``.

    Refuses fewer than 2 samples (``ValueError``) and any point that is not
    a 1-D vector of length ``ens.in_dim`` (``DimensionMismatch``).
    """
    if mc_samples < 2:
        raise ValueError("mc_samples must be at least 2")
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

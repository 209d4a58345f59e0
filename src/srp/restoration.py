"""Restoration operators R(s, H) and measurement of their bias.

The exact operator is the posterior mean under the Gaussian-mixture prior.
Inexact operators are modeled as parametric perturbations of an inner
operator: a constant offset (bias independent of the signal), an innovation
gain (bias proportional to the signal, so any bound only holds on the probed
domain), and a circular box smoothing (frequency-selective bias). All three
are affine in the estimate.

The bias vector of an operator R at a point x is

    b(x) = (tau / sigma²) E_{H, s}[ Hᵀ H (R*(s, H) - R(s, H)) ],

estimated here by Monte Carlo over (H ~ weights, s = H x + sigma n). For a
single-Gaussian prior R is affine in s, and ``objective.exact_audit_terms``
gives b(x) in closed form instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


def probe_domain_note(points):
    """The caveat on a bias bound taken over ``points``."""
    max_norm = max(float(np.linalg.norm(x)) for x in points)
    return (f"probed at {len(points)} points with ||x|| <= {max_norm:.6g}; "
            "not a global bound")


@dataclass
class BiasReport:
    """Probed bound on ||b(x)||_2 over a finite set of points."""

    epsilon_hat: float
    per_point: list = field(default_factory=list)  # (x, bias_norm) pairs
    samples_per_point: int = 0
    note: str = ""


def bias_vector(restorer, ens, x, tau, mc_samples, rng):
    """Monte Carlo estimate of the bias vector b(x).

    Each draw is restored once: the exact estimate, then the restorer's
    perturbation chain applied to it. For the exact operator the integrand
    is identically zero sample by sample, so the estimate is exactly zero:
    it is returned without drawing, and ``rng`` is left untouched.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (ens.in_dim,):
        raise DimensionMismatch(f"1-D bias probe point, got shape {x.shape}",
                                ens.in_dim, x.size)
    exact, links = _unwrap(restorer)
    if not links:
        return np.zeros(ens.in_dim)
    scale = float(tau) / (ens.sigma * ens.sigma)
    total = np.zeros(ens.in_dim)
    for _, H, _, s in ens.observe(x, mc_samples, rng):
        exact_est, est = restore_with_exact(exact, links, s, H)
        total += np.sum(H.gram_apply(exact_est - est), axis=0)
    return scale * total / int(mc_samples)


def measure_bias(restorer, ens, probe_points, tau, mc_samples, rng):
    """||b(x)||_2 at each probe point; epsilon_hat is the maximum.

    This is a probed estimate over the supplied domain, not a proof of a
    global bound (gain-type perturbations grow with ||x||). An exact
    restorer reports zero at every point and takes no draws from ``rng``.
    """
    probe_points = [np.asarray(p, dtype=float) for p in probe_points]
    if not probe_points:
        raise ValueError("measure_bias requires at least one probe point")
    per_point = []
    for x in probe_points:
        b = bias_vector(restorer, ens, x, tau, mc_samples, rng)
        per_point.append((x, float(np.linalg.norm(b))))
    eps = max(norm for _, norm in per_point)
    return BiasReport(
        epsilon_hat=eps,
        per_point=per_point,
        samples_per_point=int(mc_samples),
        note=probe_domain_note(probe_points),
    )

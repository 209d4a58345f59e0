"""Reference estimators that only the tests call.

No solver, audit, oracle or CLI path evaluates these: the solver draws its
regularizer term per step (``objective.regularizer_step``) and the audit
reads ν² and b(x) in closed form (``objective.exact_audit_terms``). The
tests keep them as independent references for those paths. Every Monte
Carlo draw still comes from the library's one loop over
``DegradationEnsemble.observe``, and every estimator that restores draws
goes through its one kernel, ``restoration._residual_moments``.

The module is not called ``reference``: ``bench/tests`` imports
``bench/reference.py`` under that name in the same test session.
"""

import numpy as np

from srp.objective import _posteriors
from srp.operators import DimensionMismatch
from srp.restoration import ExactMmse, _mc_point, _residual_moments, restore_with_exact


def fidelity_grad(problem, x):
    return problem.A.adjoint_apply(problem.A.apply(x) - problem.y)


def sample_degradation(ens, rng):
    """Draw (index, member) from the ensemble's weight distribution."""
    idx = int(rng.choice(ens.size, p=ens.weights))
    return idx, ens.members[idx]


def _sample_variance(mean, mean_sq, n):
    """Unbiased (ddof=1) per-coordinate variance from n draws' moments."""
    return np.maximum(mean_sq - mean ** 2, 0.0) * n / (n - 1)


def reg_grad_with_se(reg, x, mc_samples, rng):
    """``objective.reg_grad_exact`` and the per-coordinate standard error of
    its mean, from the same draws: the mean is its value bit for bit."""
    x = _mc_point(reg.ens, x, mc_samples)
    exact = ExactMmse(reg.prior, reg.ens.sigma)
    mean, mean_sq = _residual_moments(reg.ens, x, reg.tau, mc_samples, rng,
                                      lambda s, H: x - exact.restore(s, H))
    n = int(mc_samples)
    return mean, np.sqrt(_sample_variance(mean, mean_sq, n) / n)


def reg_value_mc(reg, x, mc_samples, rng):
    """Unbiased Monte Carlo estimate of h(x) with its standard error.

    Draws come from ``DegradationEnsemble.observe``, so two calls with
    identically seeded generators share their randomness; that is what makes
    common-random-number finite differences work.
    """
    x = _mc_point(reg.ens, x, mc_samples)
    posts = _posteriors(reg)
    vals = np.empty(int(mc_samples))
    for j, _, rows, s in reg.ens.observe(x, mc_samples, rng):
        vals[rows] = -posts[j].logpdf(s)
    est = reg.tau * float(np.mean(vals))
    se = reg.tau * float(np.std(vals, ddof=1) / np.sqrt(mc_samples))
    return est, se


def variance_probe(reg, restorer, x, mc_samples, rng):
    """Empirical trace-variance of the stochastic gradient at x.

    The fidelity part is deterministic, so only the regularizer term
    contributes; returns sum_d Var[term_d] with the unbiased (ddof=1)
    normalization.
    """
    x = _mc_point(reg.ens, x, mc_samples)
    mean, mean_sq = _residual_moments(reg.ens, x, reg.tau, mc_samples, rng,
                                      lambda s, H: x - restorer.restore(s, H))
    return float(np.sum(_sample_variance(mean, mean_sq, int(mc_samples))))


def bias_vector(restorer, ens, x, tau, mc_samples, rng):
    """Monte Carlo estimate of the bias vector b(x).

    Each draw is restored once: the exact estimate, then the restorer's
    perturbation chain applied to it. For the exact operator the integrand
    is identically zero sample by sample, so the estimate is exactly zero:
    it is returned without drawing, and ``rng`` is left untouched. Refuses
    fewer than 1 sample and any point that is not a 1-D vector of length
    ``ens.in_dim``, like ``restoration._mc_point`` for the others.
    """
    if mc_samples < 1:
        raise ValueError("mc_samples must be at least 1")
    x = np.asarray(x, dtype=float)
    if x.shape != (ens.in_dim,):
        raise DimensionMismatch(f"Monte Carlo point must be 1-D, got shape {x.shape}",
                                ens.in_dim, x.size)
    if not restorer.perturbations:
        return np.zeros(ens.in_dim)
    gap = lambda s, H: np.subtract(*restore_with_exact(restorer, s, H))
    return _residual_moments(ens, x, tau, mc_samples, rng, gap)[0]

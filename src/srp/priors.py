"""Gaussian-mixture prior and its closed-form linear-Gaussian observation model.

For a mixture prior p(x) = sum_k w_k N(x; mu_k, Sigma_k) observed through
s = H x + n with n ~ N(0, sigma^2 I), every quantity of interest is exact:

    p(s | H)       = sum_k w_k N(s; H mu_k, S_k),   S_k = H Sigma_k Hᵀ + sigma² I
    E[x | s, H]    = sum_k wtilde_k(s) (mu_k + Sigma_k Hᵀ S_k^{-1} (s - H mu_k))
    ∇_s log p(s|H) = (H E[x | s, H] - s) / sigma²

with posterior responsibilities wtilde_k ∝ w_k N(s; H mu_k, S_k). The last
identity (score of the degraded observation) is what makes the restoration
residual usable as a stochastic gradient.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .operators import (
    Composition,
    DenseMatrix,
    DimensionMismatch,
    FactorizationError,
    _chol_with_jitter,
)

_LOG_2PI = float(np.log(2.0 * np.pi))


def _logsumexp(a, keepdims=False):
    """log(sum(exp(a))) over the last axis, bit-identical to scipy's.

    It follows ``scipy.special.logsumexp``'s arithmetic for real input: the
    maximal terms are split out of the shifted sum and re-enter through
    ``log1p``, and rows whose result is not finite (infinite or nan terms)
    take the direct form. Plain numpy skips scipy's array-API dispatch, which
    cost more than the sum itself on the solver's few-element rows.
    """
    a_max = np.max(a, axis=-1, keepdims=True)
    is_max = a == a_max
    count = np.sum(is_max, axis=-1, keepdims=True, dtype=float)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        rest = np.sum(np.exp(np.where(is_max, -np.inf, a) - a_max), axis=-1,
                      keepdims=True)
        out = np.log1p(rest / count) + np.log(count) + a_max
        finite = np.isfinite(out)
        if not finite.all():
            direct = np.log(np.sum(np.exp(a), axis=-1, keepdims=True))
            out = np.where(finite, out, direct)
    if keepdims:
        return out
    out = out[..., 0]
    return out[()] if out.ndim == 0 else out


def _normalize_cov(cov, dim):
    """Covariance as a 0-d (isotropic), 1-d (diagonal) or 2-d array."""
    cov = np.asarray(cov, dtype=float)
    if cov.ndim == 0:
        if cov <= 0:
            raise FactorizationError("isotropic variance must be positive")
        return cov
    if cov.ndim == 1:
        if cov.shape != (dim,):
            raise DimensionMismatch("diagonal covariance", dim, cov.shape[0])
        if np.any(cov <= 0):
            raise FactorizationError("diagonal covariance must be positive")
        if np.all(cov == cov[0]):
            return np.asarray(cov[0])
        return cov
    if cov.shape != (dim, dim):
        raise DimensionMismatch("covariance rows", dim, cov.shape[0])
    if not np.allclose(cov, cov.T, rtol=0.0, atol=1e-12):
        raise FactorizationError("covariance must be symmetric")
    try:
        # strictly positive definite: non-degeneracy is a model hypothesis,
        # so no jitter is allowed here (the jitter ladder is for the
        # observation-side innovation covariances only)
        scipy.linalg.cholesky(cov, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise FactorizationError(f"prior covariance not positive definite: {exc}")
    return cov


class GmmPrior:
    """Non-degenerate Gaussian mixture over R^n.

    ``covariances`` is a per-component list/tuple whose entries are scalars
    (isotropic), length-n vectors (diagonal) or (n, n) matrices; a single
    bare scalar or vector is shared across all components.
    """

    def __init__(self, weights, means, covariances):
        weights = np.array(weights, dtype=float)
        means = np.array(means, dtype=float)
        if means.ndim == 1:
            means = means[None, :]
        if weights.ndim != 1 or weights.shape[0] != means.shape[0]:
            raise ValueError("weights and means disagree on component count")
        if np.any(weights <= 0):
            raise ValueError("component weights must be strictly positive")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {weights.sum()!r}")
        dim = means.shape[1]
        if isinstance(covariances, (list, tuple)):
            covs = list(covariances)
        else:
            arr = np.asarray(covariances, dtype=float)
            if arr.ndim > 1:
                raise ValueError(
                    "a bare array covariance is ambiguous; pass a per-component "
                    "list (one scalar, vector or matrix per component)"
                )
            covs = [arr for _ in range(len(weights))]
        if len(covs) != len(weights):
            raise ValueError("covariances and weights disagree on component count")
        weights.flags.writeable = False
        means.flags.writeable = False
        self.weights = weights
        self.means = means
        self.covariances = [_normalize_cov(c, dim) for c in covs]
        self.dim = dim
        self._chols = None

    @property
    def n_components(self):
        return len(self.weights)

    @property
    def is_isotropic(self):
        return all(c.ndim == 0 for c in self.covariances)

    def cov_matrix(self, k):
        c = self.covariances[k]
        if c.ndim == 0:
            return float(c) * np.eye(self.dim)
        if c.ndim == 1:
            return np.diag(c)
        return np.asarray(c)

    def cov_diag(self, k):
        c = self.covariances[k]
        if c.ndim == 0:
            return np.full(self.dim, float(c))
        if c.ndim == 1:
            return np.asarray(c)
        return np.diag(c)

    def overall_mean(self):
        return self.weights @ self.means

    def _component_chol(self, k):
        if self._chols is None:
            self._chols = [None] * self.n_components
        if self._chols[k] is None:
            c = self.covariances[k]
            if c.ndim == 2:
                self._chols[k] = _chol_with_jitter(c, f"component {k}")
            else:
                self._chols[k] = np.sqrt(self.cov_diag(k))
        return self._chols[k]

    def sample(self, rng, size=None):
        """Exact ancestral sample: component by weight, then a Gaussian draw."""
        single = size is None
        count = 1 if single else int(size)
        comps = rng.choice(self.n_components, size=count, p=self.weights)
        noise = rng.standard_normal((count, self.dim))
        out = np.empty((count, self.dim))
        for k in range(self.n_components):
            sel = comps == k
            if not np.any(sel):
                continue
            chol = self._component_chol(k)
            if chol.ndim == 2:
                out[sel] = self.means[k] + noise[sel] @ chol.T
            else:
                out[sel] = self.means[k] + noise[sel] * chol
        return out[0] if single else out

    def logpdf(self, x):
        """Mixture log-density, batched over leading axes."""
        x = _check_points(x, self.dim)
        per = np.empty(x.shape[:-1] + (self.n_components,))
        for k in range(self.n_components):
            diff = x - self.means[k]
            chol = self._component_chol(k)
            if chol.ndim == 2:
                sol = scipy.linalg.solve_triangular(
                    chol, diff.reshape(-1, self.dim).T, lower=True
                ).T.reshape(diff.shape)
                quad = np.sum(sol ** 2, axis=-1)
                logdet = 2.0 * np.sum(np.log(np.diag(chol)))
            else:
                quad = np.sum((diff / chol) ** 2, axis=-1)
                logdet = 2.0 * np.sum(np.log(chol))
            per[..., k] = -0.5 * (quad + logdet + self.dim * _LOG_2PI)
        return _logsumexp(per + np.log(self.weights))


def _check_points(x, dim):
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != dim:
        raise DimensionMismatch("point", dim, x.shape[-1] if x.ndim else 1)
    return x


class ObservationModel:
    """Degraded-observation channel s = H x + n, n ~ N(0, sigma² I)."""

    def __init__(self, H, sigma):
        sigma = float(sigma)
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        self.H = H
        self.sigma = sigma


class LinearGaussianPosterior:
    """Precomputed closed-form machinery for one (prior, H, sigma) triple.

    Component k's innovation system S_k = c_k W_k W_kᵀ + sigma² I is solved
    by the operator W_k's innovation hooks. Isotropic priors use W_k = H and
    c_k = Sigma_k (cheap for masks, Fourier compositions and circulants);
    other priors use the whitened W_k = H L_k with L_k L_kᵀ = Sigma_k and
    c_k = 1, which takes the operator's dense Cholesky path.
    """

    def __init__(self, prior, obs):
        self.prior = prior
        self.obs = obs
        H, sigma = obs.H, obs.sigma
        if H.in_dim != prior.dim:
            raise DimensionMismatch("observation operator in_dim", prior.dim, H.in_dim)
        self.sigma2 = sigma * sigma
        self.h_mu = np.stack([H.apply(mu) for mu in prior.means])
        self.log_w = np.log(prior.weights)
        self._iso = prior.is_isotropic
        count = prior.n_components
        if self._iso:
            self._cvals = [float(c) for c in prior.covariances]
            self._ops = [H] * count
        else:
            hd = H.to_dense()
            self._cvals = [1.0] * count
            self._ops, self._cross = [], []
            for k in range(count):
                chol = prior._component_chol(k)
                whiten = DenseMatrix(chol if chol.ndim == 2 else np.diag(chol))
                self._ops.append(Composition([whiten, H]))
                self._cross.append(prior.cov_matrix(k) @ hd.T)
        self._logdets = np.array([op.innovation_logdet(c, self.sigma2)
                                  for op, c in zip(self._ops, self._cvals)])

    def _solve(self, k, r):
        return self._ops[k].innovation_solve(self._cvals[k], self.sigma2, r)

    def _shift(self, k, z):
        """Sigma_k Hᵀ z: component k's correction to its prior mean."""
        if self._iso:
            return self._cvals[k] * self.obs.H.adjoint_apply(z)
        return z @ self._cross[k].T

    def _innovations(self, s):
        """Per-component log N(s; H mu_k, S_k), shape (..., K), and the
        innovation solves z_k = S_k^{-1} (s - H mu_k) behind them."""
        m = self.obs.H.out_dim
        loglik = np.empty(s.shape[:-1] + (self.prior.n_components,))
        zs = []
        for k in range(self.prior.n_components):
            r = s - self.h_mu[k]
            z = self._solve(k, r)
            loglik[..., k] = -0.5 * (np.sum(r * z, axis=-1) + self._logdets[k]
                                     + m * _LOG_2PI)
            zs.append(z)
        return loglik, zs

    def _responsibilities(self, loglik):
        # Normalized by their sum, not by exp(logsumexp): they then sum to 1
        # even where the log-likelihoods are too large for log(count) to
        # register. Rows whose log-likelihoods are all -inf stay nan.
        logp = loglik + self.log_w
        e = np.exp(logp - np.max(logp, axis=-1, keepdims=True))
        return e / np.sum(e, axis=-1, keepdims=True)

    def component_loglik(self, s):
        """log N(s; H mu_k, S_k) for each component, batched; shape (..., K)."""
        s = _check_points(s, self.obs.H.out_dim)
        return self._innovations(s)[0]

    def logpdf(self, s):
        return _logsumexp(self.component_loglik(s) + self.log_w)

    def responsibilities(self, s):
        return self._responsibilities(self.component_loglik(s))

    def posterior_mean(self, s):
        """E[x | s, H], batched over leading axes of s.

        One innovation solve per component feeds both the responsibilities
        and the shift. With one component the responsibilities are exactly
        1 and are skipped. Isotropic mixtures fold the K adjoints into one,
        Hᵀ Σ_k r_k c_k z_k, which reorders the sum: that case agrees with
        the per-component form to rounding, every other case bit for bit.
        """
        s = _check_points(s, self.obs.H.out_dim)
        means = self.prior.means
        if self.prior.n_components == 1:
            return means[0] + self._shift(0, self._solve(0, s - self.h_mu[0]))
        loglik, zs = self._innovations(s)
        resp = self._responsibilities(loglik)
        if self._iso:
            acc = sum((c * resp[..., k, None]) * z
                      for k, (c, z) in enumerate(zip(self._cvals, zs)))
            return resp @ means + self.obs.H.adjoint_apply(acc)
        mean = np.zeros(s.shape[:-1] + (self.prior.dim,))
        for k, z in enumerate(zs):
            mean += resp[..., k, None] * (means[k] + self._shift(k, z))
        return mean

    def score(self, s):
        """∇_s log p(s | H) via the restoration residual identity."""
        s = _check_points(s, self.obs.H.out_dim)
        return (self.obs.H.apply(self.posterior_mean(s)) - s) / self.sigma2


# -- functional entry points ----------------------------------------------------


def sample_prior(prior, rng, size=None):
    """Draw from the prior (deterministic for a given generator state)."""
    return prior.sample(rng, size=size)


def observation_logpdf(prior, obs, s):
    """log p(s | H): exact Gaussian-mixture convolution, log-sum-exp reduced."""
    return LinearGaussianPosterior(prior, obs).logpdf(s)


def mmse_restore(prior, obs, s):
    """Posterior mean E[x | s, H]: the exact MMSE restoration of s."""
    return LinearGaussianPosterior(prior, obs).posterior_mean(s)


def observation_score(prior, obs, s):
    """∇_s log p(s | H) = (H E[x|s,H] - s) / sigma²."""
    return LinearGaussianPosterior(prior, obs).score(s)

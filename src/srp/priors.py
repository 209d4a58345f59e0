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
import scipy.special

from .operators import (
    Composition,
    DenseMatrix,
    DimensionMismatch,
    FactorizationError,
    InnovationSystem,
    _as_vec,
    _chol_with_jitter,
)

_LOG_2PI = float(np.log(2.0 * np.pi))


def smooth_random_field(shape, rng, decay=1.5):
    """Random complex field with a power-law radial spectrum, peak-normalized:
    the component means of the ``gmm-recipe`` image prior."""
    h, w = shape
    fy = np.fft.fftfreq(h)[:, None]
    fx = np.fft.fftfreq(w)[None, :]
    radius = np.sqrt(fy ** 2 + fx ** 2)
    envelope = 1.0 / (1.0 + (radius / (1.0 / max(h, w))) ** decay)
    spectrum = envelope * (
        rng.standard_normal((h, w)) + 1j * rng.standard_normal((h, w))
    )
    field = np.fft.ifft2(spectrum)
    return field / np.max(np.abs(field))


def _normalize_cov(cov, dim):
    """Covariance as a 0-d (isotropic), 1-d (diagonal) or 2-d array."""
    cov = np.asarray(cov, dtype=float)
    if not np.all(np.isfinite(cov)):
        raise FactorizationError("covariance must be finite")
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
        if not (np.all(np.isfinite(weights)) and np.all(np.isfinite(means))):
            raise ValueError("component weights and means must be finite")
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


class ObservationModel:
    """Degraded-observation channel s = H x + n, n ~ N(0, sigma² I)."""

    def __init__(self, H, sigma):
        sigma = float(sigma)
        if not (sigma > 0 and 0 < sigma * sigma < np.inf):
            raise ValueError(f"sigma must be positive and finite, as must sigma², got {sigma!r}")
        self.H = H
        self.sigma = sigma


class _MixtureTerms:
    """What a posterior's arithmetic takes from the prior and σ alone: the
    log-weights, the column ``_ccol`` of the c_k (Sigma_k for an isotropic
    prior, else 1) and the steps that ``LinearGaussianPosterior`` and
    ``StackedPosterior`` share."""

    def __init__(self, prior, sigma2):
        self.prior = prior
        self.sigma2 = sigma2
        self.log_w = np.log(prior.weights)
        self._iso = prior.is_isotropic
        self._ccol = np.array([float(c) if self._iso else 1.0 for c in prior.covariances])[:, None]

    def _weighted_means(self, resp):
        return resp @ self.prior.means

    def _innovations(self, s, h_mu, logdets, solve):
        """Per-component log N(s; h_mu_k, S_k), shape (..., K), and the
        innovation solves z_k = S_k^{-1} (s - h_mu_k) behind them, stacked
        to shape (..., K, m) by ``solve(r)``; ``logdets`` holds the log det S_k."""
        r = s[..., None, :] - h_mu
        z = solve(r)
        r *= z  # r is not read again; in place saves one (..., K, m) stack
        loglik = -0.5 * (np.sum(r, axis=-1) + logdets + r.shape[-1] * _LOG_2PI)
        return loglik, z

    def _responsibilities(self, loglik):
        # Normalized by their sum, not by exp(logsumexp): they then sum to 1
        # even where the log-likelihoods are too large for log(count) to
        # register. Rows whose log-likelihoods are all -inf stay nan. Every
        # step runs in place on ``loglik``, which each caller makes fresh.
        loglik += self.log_w
        loglik -= loglik.max(axis=-1, keepdims=True)
        np.exp(loglik, out=loglik)
        loglik /= loglik.sum(axis=-1, keepdims=True)
        return loglik

    def _isotropic_mean(self, s, h_mu, logdets, solve, adjoint):
        """E[x | s] under the isotropic prior, for an observation with mean
        images ``h_mu``, log det S_k ``logdets``, innovation solves
        ``solve(r)`` of a (..., K, m) stack and adjoint Hᵀ ``adjoint``: the
        one implementation of the isotropic mean.
        """
        c = self._ccol[:, 0]
        if len(c) == 1:
            z = solve(s[..., None, :] - h_mu)[..., 0, :]
            return self.prior.means[0] + c[0] * adjoint(z)
        loglik, z = self._innovations(s, h_mu, logdets, solve)
        resp = self._responsibilities(loglik)
        # z_k scaled in place by c_k r_k, then summed over k from +0.0 as
        # Python's sum() adds its terms (a start of +0.0 turns a -0.0 first
        # term into +0.0)
        z *= (resp * c)[..., None]
        acc = z.sum(axis=-2, initial=0.0)
        return self._weighted_means(resp) + adjoint(acc)


class LinearGaussianPosterior(_MixtureTerms):
    """Precomputed closed-form machinery for one (prior, H, sigma) triple.

    Component k's innovation system S_k = c_k W_k W_kᵀ + sigma² I is
    prepared once, here, as an ``InnovationSystem``. Isotropic priors use
    W_k = H and c_k = Sigma_k (cheap for masks, Fourier compositions and
    circulants): one system of H with the column c = (c_1..c_K)ᵀ solves all
    K against the stacked residuals, shape (..., K, m). Other priors use the
    whitened W_k = H L_k with L_k L_kᵀ = Sigma_k and c_k = 1, one system
    per component, which takes the dense Cholesky path.
    """

    def __init__(self, prior, obs):
        H = obs.H
        if H.in_dim != prior.dim:
            raise DimensionMismatch("observation operator in_dim", prior.dim, H.in_dim)
        super().__init__(prior, obs.sigma * obs.sigma)
        self.obs = obs
        self.h_mu = np.stack([H.apply(mu) for mu in prior.means])
        if self._iso:
            self._systems = (InnovationSystem(H, self._ccol, self.sigma2),)
        else:
            hd = H.to_dense()
            systems, self._cross = [], []
            for k in range(prior.n_components):
                chol = prior._component_chol(k)
                whiten = DenseMatrix(chol if chol.ndim == 2 else np.diag(chol))
                systems.append(InnovationSystem(Composition([whiten, H]), self._ccol[k],
                                                self.sigma2))
                self._cross.append(prior.cov_matrix(k) @ hd.T)
            self._systems = tuple(systems)
        self._logdets = np.concatenate([system.logdets for system in self._systems])

    def _solve(self, r):
        """The innovation solves of the (..., K, m) stack r: row k against S_k."""
        if self._iso:
            return self._systems[0].solve(r)
        return np.concatenate([system.solve(r[..., k:k + 1, :])
                               for k, system in enumerate(self._systems)], axis=-2)

    def component_loglik(self, s):
        """log N(s; H mu_k, S_k) for each component, batched; shape (..., K)."""
        s = _as_vec(s, self.obs.H.out_dim, "point")
        return self._innovations(s, self.h_mu, self._logdets, self._solve)[0]

    def logpdf(self, s):
        with np.errstate(all="ignore"):  # rows of all -inf terms warn on their way to -inf
            return scipy.special.logsumexp(self.component_loglik(s) + self.log_w, axis=-1)

    def posterior_mean(self, s):
        """E[x | s, H], batched over leading axes of s.

        The innovation solves (one system for isotropic mixtures, one per
        component otherwise) feed both the responsibilities and the shift.
        With one component the responsibilities are exactly 1 and are
        skipped. Isotropic mixtures fold the K adjoints into one,
        Hᵀ Σ_k r_k c_k z_k, which reorders the sum: that case agrees with
        the per-component form to rounding, every other case bit for bit.
        """
        s = _as_vec(s, self.obs.H.out_dim, "point")
        if self._iso:
            return self._isotropic_mean(s, self.h_mu, self._logdets, self._systems[0].solve,
                                        self.obs.H._adjoint)
        means, cross = self.prior.means, self._cross
        if len(means) == 1:
            return means[0] + self._solve(s[..., None, :] - self.h_mu)[..., 0, :] @ cross[0].T
        loglik, z = self._innovations(s, self.h_mu, self._logdets, self._solve)
        resp = self._responsibilities(loglik)
        mean = np.zeros(s.shape[:-1] + (self.prior.dim,))
        for k in range(len(means)):
            mean += resp[..., k, None] * (means[k] + z[..., k, :] @ cross[k].T)
        return mean

    def score(self, s):
        """∇_s log p(s | H) via the restoration residual identity."""
        s = _as_vec(s, self.obs.H.out_dim, "point")
        return (self.obs.H.apply(self.posterior_mean(s)) - s) / self.sigma2


class StackedPosterior(_MixtureTerms):
    """The isotropic posteriors of J diagonal members, stacked so that one
    call restores a block whose rows are observed through different members.
    Member j is diag(d_j) with innovation denominators c_k d_j² + σ²; the
    stack holds the diagonals (J, m), and h_mu, the prepared denominators
    (J, K, m) and the log-determinants (J, K) of the members' ``posteriors``,
    which share one prior and sigma. It has no single operator: ``restore``
    is its one entry point."""

    def __init__(self, posteriors, diagonals):
        super().__init__(posteriors[0].prior, posteriors[0].sigma2)
        self.diag = np.stack(diagonals)
        self.denoms = np.stack([p._systems[0].denom for p in posteriors])
        self.h_mu = np.stack([p.h_mu for p in posteriors])
        self._logdets = np.stack([p._logdets for p in posteriors])

    def restore(self, s, idx, d=None):
        """Row i of s restored through member idx[i], with the bits of that
        member's ``posterior_mean``. One ``take`` per stacked array gathers
        the rows' members, the diagonals unless the caller passes them as
        ``d`` (read, not written); H v = v d, and the innovation solves
        divide by the gathered denominators, which already hold c and σ²,
        in place: the gather is this call's own array."""
        d = self.diag.take(idx, 0) if d is None else d
        denoms = self.denoms.take(idx, 0)
        return self._isotropic_mean(_as_vec(s, d.shape[-1], "point"), self.h_mu.take(idx, 0),
                                    self._logdets.take(idx, 0),
                                    lambda r: np.divide(r, denoms, out=denoms),
                                    lambda z: z * d)

    def _weighted_means(self, resp):
        return (resp[..., None, :] @ self.prior.means)[..., 0, :]


# -- functional entry points ----------------------------------------------------


def observation_logpdf(prior, obs, s):
    """log p(s | H): exact Gaussian-mixture convolution, log-sum-exp reduced."""
    return LinearGaussianPosterior(prior, obs).logpdf(s)


def mmse_restore(prior, obs, s):
    """Posterior mean E[x | s, H]: the exact MMSE restoration of s."""
    return LinearGaussianPosterior(prior, obs).posterior_mean(s)


def observation_score(prior, obs, s):
    """∇_s log p(s | H) = (H E[x|s,H] - s) / sigma²."""
    return LinearGaussianPosterior(prior, obs).score(s)

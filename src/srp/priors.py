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


class LinearGaussianPosterior:
    """Precomputed closed-form machinery for one (prior, H, sigma) triple.

    Component k's innovation system S_k = c_k W_k W_kᵀ + sigma² I is solved
    by the operator W_k's innovation hooks. Isotropic priors use W_k = H and
    c_k = Sigma_k (cheap for masks, Fourier compositions and circulants), and
    solve all K systems in one ``H.innovation_solve`` call with the column
    c = (c_1..c_K)ᵀ against the stacked residuals, shape (..., K, m). Other
    priors use the whitened W_k = H L_k with L_k L_kᵀ = Sigma_k and c_k = 1,
    which takes the operator's dense Cholesky path, one solve per component.
    ``StackedPosterior`` runs the same isotropic arithmetic,
    ``_isotropic_mean``, on rows observed through different diagonal members.
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
        self._ccol = np.array(self._cvals)[:, None]
        self._logdets = np.array([op.innovation_logdet(c, self.sigma2)
                                  for op, c in zip(self._ops, self._cvals)])

    def _solve(self, k, r):
        return self._ops[k].innovation_solve(self._cvals[k], self.sigma2, r)

    def _solve_each(self, c, sigma2, r):
        """``innovation_solve`` with the column c for a non-isotropic prior:
        one solve per component of the (..., K, m) stack r."""
        return np.stack([self._solve(k, r[..., k, :]) for k in range(len(c))], axis=-2)

    def _weighted_means(self, resp):
        return resp @ self.prior.means

    def _innovations(self, s, h_mu, logdets, solve):
        """Per-component log N(s; h_mu_k, S_k), shape (..., K), and the
        innovation solves z_k = S_k^{-1} (s - h_mu_k) behind them, stacked
        to shape (..., K, m) by ``solve(c, sigma², r)`` with c the column of
        the c_k; ``logdets`` holds the log det S_k."""
        r = s[..., None, :] - h_mu
        z = solve(self._ccol, self.sigma2, r)
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

    def component_loglik(self, s):
        """log N(s; H mu_k, S_k) for each component, batched; shape (..., K)."""
        s = _as_vec(s, self.obs.H.out_dim, "point")
        solve = self.obs.H.innovation_solve if self._iso else self._solve_each
        return self._innovations(s, self.h_mu, self._logdets, solve)[0]

    def logpdf(self, s):
        with np.errstate(all="ignore"):  # rows of all -inf terms warn on their way to -inf
            return scipy.special.logsumexp(self.component_loglik(s) + self.log_w, axis=-1)

    def posterior_mean(self, s):
        """E[x | s, H], batched over leading axes of s.

        The innovation solves (one batched call for isotropic mixtures, one
        per component otherwise) feed both the responsibilities and the
        shift. With one component the responsibilities are exactly 1 and are
        skipped. Isotropic mixtures fold the K adjoints into one,
        Hᵀ Σ_k r_k c_k z_k, which reorders the sum: that case agrees with
        the per-component form to rounding, every other case bit for bit.
        """
        s = _as_vec(s, self.obs.H.out_dim, "point")
        if self._iso:
            H = self.obs.H
            return self._isotropic_mean(s, self.h_mu, self._logdets, H.innovation_solve,
                                        H._adjoint)
        means, cross = self.prior.means, self._cross
        if len(means) == 1:
            return means[0] + self._solve(0, s - self.h_mu[..., 0, :]) @ cross[0].T
        loglik, z = self._innovations(s, self.h_mu, self._logdets, self._solve_each)
        resp = self._responsibilities(loglik)
        mean = np.zeros(s.shape[:-1] + (self.prior.dim,))
        for k in range(len(means)):
            mean += resp[..., k, None] * (means[k] + z[..., k, :] @ cross[k].T)
        return mean

    def _isotropic_mean(self, s, h_mu, logdets, solve, adjoint):
        """E[x | s] under the isotropic prior, for an observation with mean
        images ``h_mu``, log det S_k ``logdets``, innovation solve
        ``solve(c, sigma², r)`` (a scalar c or the column of the c_k) and
        adjoint Hᵀ ``adjoint``: the one implementation of the isotropic mean.
        """
        c = self._cvals
        if len(c) == 1:
            z = solve(c[0], self.sigma2, s - h_mu[..., 0, :])
            return self.prior.means[0] + c[0] * adjoint(z)
        loglik, z = self._innovations(s, h_mu, logdets, solve)
        resp = self._responsibilities(loglik)
        # z_k scaled in place by c_k r_k, then summed over k from +0.0 as
        # Python's sum() adds its terms (a start of +0.0 turns a -0.0 first
        # term into +0.0)
        z *= (resp * self._ccol[:, 0])[..., None]
        acc = z.sum(axis=-2, initial=0.0)
        return self._weighted_means(resp) + adjoint(acc)

    def score(self, s):
        """∇_s log p(s | H) via the restoration residual identity."""
        s = _as_vec(s, self.obs.H.out_dim, "point")
        return (self.obs.H.apply(self.posterior_mean(s)) - s) / self.sigma2


class StackedPosterior(LinearGaussianPosterior):
    """The isotropic posteriors of J diagonal members, stacked so that one
    call restores a block whose rows are observed through different members.
    Member j is diag(d_j) with innovation denominators c_k d_j² + σ²; the
    stack holds the diagonals (J, m), h_mu and the denominators (J, K, m) and
    the log-determinants (J, K) of the members' ``posteriors``, which share
    one prior and sigma. It has no single operator: ``restore`` is its one
    entry point."""

    def __init__(self, posteriors, diagonals):
        post = posteriors[0]  # lends what the prior and sigma alone set
        self.prior, self.sigma2, self.log_w = post.prior, post.sigma2, post.log_w
        self._cvals, self._ccol = post._cvals, post._ccol
        self.diag = np.stack(diagonals)
        self.denoms = np.stack([p.obs.H._innovation_denominator(p._ccol, p.sigma2)
                                for p in posteriors])
        self.h_mu = np.stack([p.h_mu for p in posteriors])
        self._logdets = np.stack([p._logdets for p in posteriors])

    def restore(self, s, idx):
        """Row i of s restored through member idx[i], with the bits of that
        member's ``posterior_mean``. One ``take`` per stacked array gathers
        the rows' members; H v = v d and the innovation solves divide by the
        gathered denominators, which already hold c and σ²."""
        d, denoms = self.diag.take(idx, 0), self.denoms.take(idx, 0)
        solve = lambda c, sigma2, r: r / (denoms if getattr(c, "ndim", 0) else denoms[..., 0, :])
        return self._isotropic_mean(_as_vec(s, d.shape[-1], "point"), self.h_mu.take(idx, 0),
                                    self._logdets.take(idx, 0), solve, lambda z: z * d)

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

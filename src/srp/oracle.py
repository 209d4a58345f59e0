"""Independent brute-force evaluators for validating the closed-form modules.

The oracles never touch the posterior algebra in ``priors``: densities are
computed from first principles on tensor-product trapezoid grids (signal
space, n <= 2) and Gauss-Hermite rules (observation space, Gaussian weight).
Trapezoid grids truncated at several prior standard deviations converge
spectrally for these smooth integrands, so modest grids reach 1e-8. One
chunked x-space kernel serves both the posterior mean and log p(s|H).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .priors import _LOG_2PI

_MAX_NODES = 10_000_000
_FD_STEP = 1e-5  # central-difference step of oracle_grad
_CHUNK = 256  # s nodes per block of the x-space kernel
_GH_POINTS = {1: 64, 2: 32, 3: 12, 4: 8}  # default Gauss-Hermite points per axis of s


class QuadratureRefusal(ValueError):
    """The requested oracle evaluation is outside safe grid limits."""


@dataclass
class QuadratureGrid:
    """Tensor trapezoid grid spec: resolution and support radius in prior stds."""

    points_per_axis: int = 401
    radius_std: float = 8.0
    max_nodes: int = _MAX_NODES


def _axis_bounds(prior, radius):
    stds = np.stack([np.sqrt(prior.cov_diag(k)) for k in range(prior.n_components)])
    lo = np.min(prior.means - radius * stds, axis=0)
    hi = np.max(prior.means + radius * stds, axis=0)
    return lo, hi


def _trapezoid_nodes(prior, grid):
    n = prior.dim
    if n > 2:
        raise QuadratureRefusal(f"trapezoid oracle limited to n <= 2, got {n}")
    pts = int(grid.points_per_axis)
    if pts ** n > grid.max_nodes:
        raise QuadratureRefusal(f"grid of {pts ** n} nodes exceeds cap {grid.max_nodes}")
    lo, hi = _axis_bounds(prior, grid.radius_std)
    axes = [np.linspace(lo[i], hi[i], pts) for i in range(n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    nodes = np.stack([m.ravel() for m in mesh], axis=-1)
    w = 1.0
    for ax in axes:
        w1 = np.full(pts, ax[1] - ax[0])
        w1[0] *= 0.5
        w1[-1] *= 0.5
        w = np.multiply.outer(w, w1)
    return nodes, np.asarray(w).ravel()


def _prior_logpdf(prior, X):
    """Mixture log-density evaluated from scratch (independent of priors.py)."""
    K = prior.n_components
    per = np.empty((X.shape[0], K))
    for k in range(K):
        diff = X - prior.means[k]
        cov = prior.cov_matrix(k)
        chol = np.linalg.cholesky(cov)
        sol = np.linalg.solve(chol, diff.T).T
        quad = np.sum(sol ** 2, axis=-1)
        logdet = 2.0 * np.sum(np.log(np.diag(chol)))
        per[:, k] = -0.5 * (quad + logdet + prior.dim * _LOG_2PI)
    m = np.max(per + np.log(prior.weights), axis=1, keepdims=True)
    return (m + np.log(np.sum(np.exp(per + np.log(prior.weights) - m), axis=1,
                              keepdims=True))).ravel()


def _log_noise_kernel(S, HX, sigma):
    """log G_sigma(s - Hx) for all (s-node, x-node) pairs, via the gram trick."""
    m = S.shape[-1]
    sq = (
        np.sum(S ** 2, axis=-1)[:, None]
        + np.sum(HX ** 2, axis=-1)[None, :]
        - 2.0 * S @ HX.T
    )
    return -0.5 * np.maximum(sq, 0.0) / sigma ** 2 - 0.5 * m * (
        _LOG_2PI + 2.0 * np.log(sigma)
    )


def _x_space_log_terms(prior, H, sigma, s_nodes, grid):
    """The x-grid nodes X, and an iterator over chunks of ``_CHUNK`` s nodes
    giving their rows, their log integrands log G_sigma(s - Hx) + log p(x) +
    log w over X, and each row's largest one."""
    X, w = _trapezoid_nodes(prior, grid)
    HX = H.apply(X)
    log_px_w = _prior_logpdf(prior, X) + np.log(w)

    def chunks():
        for start in range(0, s_nodes.shape[0], _CHUNK):
            rows = slice(start, start + _CHUNK)
            log_terms = _log_noise_kernel(s_nodes[rows], HX, sigma) + log_px_w[None, :]
            yield rows, log_terms, np.max(log_terms, axis=1, keepdims=True)

    return X, chunks()


def _oracle_mmse_batch(prior, H, sigma, s_nodes, grid):
    """Posterior means for many observations, sharing the x-grid and prior pdf."""
    X, chunks = _x_space_log_terms(prior, H, sigma, s_nodes, grid)
    out = np.empty((s_nodes.shape[0], prior.dim))
    for rows, log_terms, shift in chunks:
        if np.any(~np.isfinite(shift)) or np.any(shift < np.log(1e-300)):
            raise QuadratureRefusal("denominator below 1e-300; grid too coarse or s too far")
        terms = np.exp(log_terms - shift)
        out[rows] = (terms @ X) / np.sum(terms, axis=1, keepdims=True)
    return out


def oracle_mmse(prior, obs, s, grid=None):
    """Posterior mean by direct quadrature of numerator and denominator."""
    s = np.asarray(s, dtype=float)
    return _oracle_mmse_batch(prior, obs.H, obs.sigma, s[None, :], grid or QuadratureGrid())[0]


def _member_log_density(reg, H, s_nodes, grid_x):
    """log p(s|H) at the given s nodes, entirely by x-space quadrature."""
    _, chunks = _x_space_log_terms(reg.prior, H, reg.ens.sigma, s_nodes, grid_x)
    out = np.empty(s_nodes.shape[0])
    for rows, log_terms, shift in chunks:
        out[rows] = shift[:, 0] + np.log(np.sum(np.exp(log_terms - shift), axis=1))
    return out


def _gh_s_nodes(H, x, sigma, points):
    """Gauss-Hermite nodes for s ~ N(H x, sigma² I) and their weights, with
    ``points`` per axis (None: a default for the dimension of s)."""
    m = H.out_dim
    if m > 4:
        raise QuadratureRefusal(f"s-space quadrature limited to dim <= 4, got {m}")
    nodes, weights = np.polynomial.hermite.hermgauss(points or _GH_POINTS[m])
    mesh = np.meshgrid(*([nodes] * m), indexing="ij")
    u = np.stack([g.ravel() for g in mesh], axis=-1)
    wmesh = np.meshgrid(*([weights] * m), indexing="ij")
    w = np.prod(np.stack([g.ravel() for g in wmesh], axis=-1), axis=-1)
    return H.apply(x) + np.sqrt(2.0) * sigma * u, w / np.pi ** (m / 2.0)


def oracle_reg_value(reg, x, gh_points=None, grid_x=None):
    """h(x) by nested quadrature: GH over s, trapezoid over x for p(s|H)."""
    grid_x = grid_x or QuadratureGrid()
    x = np.asarray(x, dtype=float)
    total = 0.0
    for H, p in zip(reg.ens.members, reg.ens.weights):
        s_nodes, w = _gh_s_nodes(H, x, reg.ens.sigma, gh_points)
        logp = _member_log_density(reg, H, s_nodes, grid_x)
        total += p * float(np.sum(w * (-logp)))
    return reg.tau * total


def oracle_grad(reg, x, gh_points=None, grid_x=None):
    """Two independent routes to ∇h(x).

    Returns (finite difference of the quadrature value, quadrature of the
    restoration-residual integrand); agreement of both with the Monte Carlo
    estimator is the three-way consistency check.
    """
    grid_x = grid_x or QuadratureGrid()
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    if n > 2:
        raise QuadratureRefusal(f"oracle gradient limited to n <= 2, got {n}")

    fd = np.empty(n)
    for i in range(n):
        e = np.zeros(n)
        e[i] = _FD_STEP
        hi = oracle_reg_value(reg, x + e, gh_points=gh_points, grid_x=grid_x)
        lo = oracle_reg_value(reg, x - e, gh_points=gh_points, grid_x=grid_x)
        fd[i] = (hi - lo) / (2.0 * _FD_STEP)

    sigma = reg.ens.sigma
    quad = np.zeros(n)
    for H, p in zip(reg.ens.members, reg.ens.weights):
        s_nodes, w = _gh_s_nodes(H, x, sigma, gh_points)
        means = _oracle_mmse_batch(reg.prior, H, sigma, s_nodes, grid_x)
        quad += p * (w @ H.gram_apply(x - means))
    quad *= reg.tau / sigma ** 2
    return fd, quad

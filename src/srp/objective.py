"""Composite objective f = g + h: least-squares fidelity plus the
restoration-prior regularizer

    h(x) = tau * E_{H ~ weights, s ~ N(Hx, sigma² I)}[ -log p(s | H) ],

whose gradient reduces exactly to the averaged restoration residual

    ∇h(x) = (tau / sigma²) E[ Hᵀ H (x - R*(s, H)) ].

Exact evaluation of h, its gradient and its curvature is available for
single-Gaussian priors (Gaussian cross-entropy, ``SingleGaussianForms``).
For any prior, ``reg_grad_exact`` estimates ∇h by Monte Carlo through the
exact posterior mean, and ``regularizer_step`` draws the solver's per-step
term. The tests keep Monte Carlo references for h, the step's variance and
the bias vector in ``tests/references.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .operators import DimensionMismatch, gram_operator_norm
from .priors import DiagonalRows, LinearGaussianPosterior, ObservationModel, _LOG_2PI
from .restoration import (
    ConstantOffset,
    ExactMmse,
    Gain,
    Smoothing,
    _mc_point,
    _residual_moments,
    restore_with_exact,
)

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


def fidelity_lipschitz(problem):
    """||AᵀA||_2, the fidelity gradient's exact Lipschitz constant."""
    return gram_operator_norm(problem.A)


def _posteriors(reg):
    sigma = reg.ens.sigma
    return [
        LinearGaussianPosterior(reg.prior, ObservationModel(H, sigma))
        for H in reg.ens.members
    ]


# -- values -----------------------------------------------------------------------


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
                "use reg_grad_exact"
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
        """h(x), batched over leading axes: each row of an (S, n) block gets
        the bits of its own vector call (a matrix-vector product per row,
        never one matrix-matrix product)."""
        d = np.asarray(x, dtype=float) - self.mu
        quad = (d[..., None, :] @ self.curvature @ d[..., :, None])[..., 0, 0]
        return 0.5 * quad + self.constant

    def grad(self, x):
        """∇h(x), batched over leading axes like ``value``."""
        d = np.asarray(x, dtype=float) - self.mu
        return (self.curvature @ d[..., :, None])[..., 0]

    def curvature_norm(self):
        return float(np.max(scipy.linalg.eigvalsh(self.curvature)))


# -- gradients --------------------------------------------------------------------


def reg_grad_exact(reg, x, mc_samples, rng):
    """Monte Carlo estimator of ∇h built on the exact posterior mean.

    The integrand uses the exact restoration operator, so the estimator is
    unbiased for the true gradient of h.
    """
    x = _mc_point(reg.ens, x, mc_samples)
    exact = ExactMmse(reg.prior, reg.ens.sigma)
    return _residual_moments(reg.ens, x, reg.tau, mc_samples, rng,
                             lambda s, H: x - exact.restore(s, H))[0]


def regularizer_curvature_bound(reg):
    """Lipschitz constant of ∇h, exact, as ``(value, "exact")``.

    Needs the single-Gaussian closed forms: raises ``ClosedFormUnavailable``
    for a mixture or past the dense cap.
    """
    return reg.gaussian_forms.curvature_norm(), "exact"


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


def regularizer_step(reg, restorer, x, members, rngs, stack=None):
    """Regularizer terms of one stochastic step for an (S, n) block of
    iterates, each row averaged over its draws.

    ``members`` has shape (S, b): row s lists the member indices of seed s's
    b draws, and ``rngs`` holds the S seeds' noise generators. For each
    draw of member j, in each seed's own draw order, one noise vector n
    gives the term (tau/sigma²) H_jᵀH_j (x_s - R(H_j x_s + sigma n, H_j)),
    drawn by ``standard_normal(out=...)`` into a row of one buffer: the
    values of a ``standard_normal(out_dim)`` call. A seed's b terms sit in
    a (b, n) buffer whose sum is divided by b (for n = 1 numpy sums that
    column pairwise, which a running sum does not reproduce); a single draw
    is its term plus 0.0, the bits of that one-row mean.

    Each group of draws gets one degrade ``H._apply``, ``restore`` and gram
    ``H._adjoint(H._apply(·))``. With ``stack``, the restorer's
    ``ExactMmse.stacked`` posterior of the members, all S b draws are one
    group, a ``DiagonalRows`` block; otherwise the groups are (batch slot,
    member) pairs, at most b * min(S, J) for J members. The operands are
    arrays the solver loop made, so the products call the operator cores;
    ``restore`` still checks s in ``posterior_mean``. A row is its seed's
    own step bit for bit wherever those calls run row by row, as every
    call on a ``DiagonalRows`` block does.
    """
    ens = reg.ens
    scale = reg.tau / (ens.sigma * ens.sigma)
    seeds, batch = members.shape
    draws = members.ravel().tolist()  # row s * b + i: seed s's draw i
    widths = [ens.members[j].out_dim for j in draws]
    noise = np.empty((len(draws), max(widths)))
    for i, m in enumerate(widths):
        rngs[i // batch].standard_normal(out=noise[i, :m])
    if stack is not None:
        H = DiagonalRows(ens.members, stack.obs.H.diagonals, members.ravel())
        groups = [(H, slice(None), x if batch == 1 else np.repeat(x, batch, axis=0))]
    else:
        slots = {}  # (slot, member) -> its draws' rows
        for i, j in enumerate(draws):
            slots.setdefault((i % batch, j), []).append(i)
        groups = [(ens.members[j], _rows(idx), x[_rows([i // batch for i in idx])])
                  for (_, j), idx in slots.items()]
    terms = np.empty((len(draws), x.shape[-1])) if len(groups) > 1 else None
    for H, rows, xg in groups:
        s = H._apply(xg) + ens.sigma * noise[rows, : H.out_dim]
        term = scale * H._adjoint(H._apply(xg - restorer.restore(s, H)))
        if terms is None:
            terms = term
        else:
            terms[rows] = term
    if batch == 1:
        return terms + 0.0
    return np.sum(terms.reshape(seeds, batch, -1), axis=1) / batch


def _rows(positions):
    """Strictly increasing row positions as a slice when they are
    consecutive, so that indexing makes a view, else as the list."""
    first, count = positions[0], len(positions)
    return slice(first, first + count) if positions[-1] - first == count - 1 else positions


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
    prior = restorer.exact.prior
    if prior.n_components != 1:
        raise ClosedFormUnavailable("exact audit terms need a one-component prior")
    if prior.dim > _DENSE_CAP_DIM:
        raise ClosedFormUnavailable(f"exact audit terms capped at dim {_DENSE_CAP_DIM}")
    if not all(isinstance(p, _AFFINE_PERTURBATIONS) for p in restorer.perturbations):
        raise ClosedFormUnavailable("exact audit terms need affine perturbations")
    ens = reg.ens
    scale = reg.tau / (ens.sigma * ens.sigma)
    x = np.asarray(points, dtype=float)
    count = len(x)
    a, bias, moments = [], [], []
    for H in ens.members:
        m = H.out_dim
        s = np.concatenate([H.apply(x), np.zeros((1, m)), np.eye(m)])
        exact_est, est = restore_with_exact(restorer, s, H)
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

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from srp.objective import (
    ClosedFormUnavailable,
    Problem,
    Regularizer,
    SingleGaussianForms,
    exact_audit_terms,
    fidelity,
    fidelity_grad,
    fidelity_lipschitz,
    gaussian_objective_minimum,
    reg_grad_exact,
    reg_value_mc,
    regularizer_curvature_bound,
    regularizer_step,
    variance_probe,
)
from srp.operators import (
    CircularConvolution,
    Composition,
    CoordinateMask,
    DegradationEnsemble,
    DenseMatrix,
    DimensionMismatch,
    FoldDownsample,
    Identity,
    Scale,
)
from srp.priors import GmmPrior
from srp.restoration import Biased, ConstantOffset, ExactMmse, Gain, Smoothing, bias_vector


def normal_prior(n=1, mean=None, var=1.0):
    mu = np.zeros(n) if mean is None else np.asarray(mean, dtype=float)
    return GmmPrior([1.0], [mu], [np.asarray(var)])


def gauss_reg(tau=1.0, sigma=1.0, n=1):
    ens = DegradationEnsemble([Identity(n)], sigma=sigma)
    return Regularizer(tau=tau, prior=normal_prior(n), ens=ens)


def random_regularizer(rng, n, k, b):
    w = rng.dirichlet(np.full(k, 4.0))
    w = w / w.sum()
    means = rng.standard_normal((k, n))
    covs = [np.asarray(float(rng.uniform(0.4, 1.2))) for _ in range(k)]
    prior = GmmPrior(w, means, covs)
    members = []
    for i in range(b):
        kind = rng.integers(0, 3)
        if kind == 0:
            members.append(Identity(n))
        elif kind == 1:
            members.append(
                CoordinateMask(n, rng.choice(n, size=max(1, n // 2), replace=False))
            )
        else:
            members.append(DenseMatrix(rng.standard_normal((n, n))))
    ens = DegradationEnsemble(members, sigma=float(rng.uniform(0.5, 1.2)))
    return Regularizer(tau=float(rng.uniform(0.5, 2.0)), prior=prior, ens=ens)


class TestFidelity:
    def test_zero_residual(self):
        x = np.array([1.0, -2.0])
        p = Problem(Identity(2), x)
        assert fidelity(p, x) == 0.0
        np.testing.assert_array_equal(fidelity_grad(p, x), [0.0, 0.0])

    def test_direct_value(self):
        p = Problem(Identity(2), np.zeros(2))
        x = np.array([3.0, 4.0])
        assert fidelity(p, x) == 12.5
        np.testing.assert_array_equal(fidelity_grad(p, x), [3.0, 4.0])

    def test_masked_measurement(self):
        p = Problem(CoordinateMask(2, [0]), np.array([1.0, 0.0]))
        x = np.zeros(2)
        assert fidelity(p, x) == 0.5
        np.testing.assert_array_equal(fidelity_grad(p, x), [-1.0, 0.0])

    def test_lipschitz_estimate(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((4, 4))
        p = Problem(DenseMatrix(m), np.zeros(4))
        expected = float(np.max(np.linalg.eigvalsh(m.T @ m)))
        np.testing.assert_allclose(fidelity_lipschitz(p), expected, rtol=1e-8)

    @pytest.mark.parametrize("y,shape", [(0.5, "()"), ([[1.0, 2.0, 3.0, 4.0]], "(1, 4)")])
    def test_measurement_must_be_a_vector(self, y, shape):
        with pytest.raises(DimensionMismatch, match=f"got shape {re.escape(shape)}"):
            Problem(DenseMatrix(np.ones((4, 2))), y)


class TestGaussianValue:
    def test_worked_example_origin(self):
        reg = gauss_reg()
        expected = 0.5 * np.log(4 * np.pi) + 0.25
        np.testing.assert_allclose(reg.gaussian_forms.value(np.zeros(1)), expected,
                                   atol=1e-12)

    def test_worked_example_shifted(self):
        reg = gauss_reg()
        base = reg.gaussian_forms.value(np.zeros(1))
        np.testing.assert_allclose(
            reg.gaussian_forms.value(np.array([2.0])), base + 1.0, atol=1e-12
        )

    def test_fully_degrading_is_constant(self):
        ens = DegradationEnsemble([Scale(2, 0.0)], sigma=0.7)
        reg = Regularizer(tau=1.3, prior=normal_prior(2), ens=ens)
        vals = [reg.gaussian_forms.value(np.array([a, -a])) for a in (0.0, 1.0, 5.0)]
        np.testing.assert_allclose(vals, vals[0], atol=1e-12)


def _closed_form_members(n):
    """Identity, a mask, blur→fold with a remainder, a rank-deficient matrix."""
    rng = np.random.default_rng(31)
    rows = rng.standard_normal((3, n))
    return {
        "identity": Identity(n),
        "coordinate-mask": CoordinateMask(n, [0, 2, 3, 7]),
        "blur-fold": Composition([CircularConvolution(n, [0.5, 0.3, 0.2]),
                                  FoldDownsample(n, 4)]),
        "rank-deficient": DenseMatrix(np.vstack([rows, rows[:2] - rows[2]])),
    }


def _closed_form_covariance(kind, n):
    rng = np.random.default_rng(32)
    if kind == "isotropic":
        return np.asarray(0.8)
    if kind == "diagonal":
        return rng.uniform(0.4, 1.2, size=n)
    a = 0.4 * rng.standard_normal((n, n))
    return a @ a.T + 0.5 * np.eye(n)


class TestSingleGaussianClosedForms:
    """Curvature and constant against np.linalg on the dense S_j."""

    N = 10  # the fold by 4 leaves a remainder, so blur→fold is dense

    @pytest.mark.parametrize("cov_kind", ["isotropic", "diagonal", "full"])
    @pytest.mark.parametrize("member", ["identity", "coordinate-mask", "blur-fold",
                                        "rank-deficient", "all"])
    def test_matches_dense_formula(self, member, cov_kind):
        n, tau, sigma = self.N, 1.3, 0.6
        members = _closed_form_members(n)
        members = list(members.values()) if member == "all" else [members[member]]
        weights = np.arange(1.0, len(members) + 1)
        ens = DegradationEnsemble(members, sigma=sigma, weights=weights / weights.sum())
        cov = _closed_form_covariance(cov_kind, n)
        prior = GmmPrior([1.0], [np.linspace(-1.0, 1.0, n)], [cov])
        forms = SingleGaussianForms(Regularizer(tau=tau, prior=prior, ens=ens))

        sigma_mat = prior.cov_matrix(0)
        curvature, const = np.zeros((n, n)), 0.0
        for H, p in zip(members, ens.weights):
            hd = H.to_dense()
            m = H.out_dim
            s_mat = hd @ sigma_mat @ hd.T + sigma ** 2 * np.eye(m)
            curvature += p * hd.T @ np.linalg.solve(s_mat, hd)
            const += p * 0.5 * (m * np.log(2 * np.pi) + np.linalg.slogdet(s_mat)[1]
                                + sigma ** 2 * np.trace(np.linalg.inv(s_mat)))
        np.testing.assert_allclose(forms.curvature, tau * curvature, rtol=1e-10,
                                   atol=1e-12)
        np.testing.assert_allclose(forms.constant, tau * const, rtol=1e-12)


class TestClosedFormsCache:
    def test_built_once_per_regularizer(self, monkeypatch):
        prior = GmmPrior([1.0], [[0.5, -0.3, 0.2]], [np.diag([0.8, 1.1, 0.6])])
        ens = DegradationEnsemble([Identity(3), CoordinateMask(3, [0, 2]),
                                   DenseMatrix([[1.0, 0.5, 0.0], [0.0, 0.3, 1.0]])],
                                  sigma=0.6)
        reg = Regularizer(tau=0.9, prior=prior, ens=ens)
        p = Problem(DenseMatrix(np.eye(3) + 0.1), np.array([0.2, -0.1, 0.4]))
        fresh = SingleGaussianForms(reg)
        builds = []
        init = SingleGaussianForms.__init__
        monkeypatch.setattr(SingleGaussianForms, "__init__",
                            lambda self, r: builds.append(r) or init(self, r))
        x = np.array([0.3, -1.1, 0.7])
        for _ in range(2):
            assert reg.gaussian_forms.value(x) == fresh.value(x)
            np.testing.assert_array_equal(reg.gaussian_forms.grad(x), fresh.grad(x))
            assert regularizer_curvature_bound(reg) == (fresh.curvature_norm(), "exact")
            x_star, f_star = gaussian_objective_minimum(p, reg)
        assert builds == [reg]
        np.testing.assert_array_equal(reg.gaussian_forms.curvature, fresh.curvature)
        assert not reg.gaussian_forms.curvature.flags.writeable
        # the cache takes no part in comparisons, and the fields it was
        # built from cannot change under it
        assert reg == Regularizer(tau=0.9, prior=prior, ens=ens)
        with pytest.raises(dataclasses.FrozenInstanceError):
            reg.tau = 1.0

    def test_mixture_refuses_every_time(self):
        reg = Regularizer(tau=1.0, prior=GmmPrior([0.5, 0.5], [[0.0], [1.0]],
                                                  [np.asarray(1.0)] * 2),
                          ens=DegradationEnsemble([Identity(1)], sigma=1.0))
        for _ in range(2):
            with pytest.raises(ClosedFormUnavailable):
                reg.gaussian_forms

    def test_curvature_bound_refuses_a_mixture(self):
        # exact or nothing: no conservative bound for a mixture
        reg = Regularizer(tau=1.0, prior=GmmPrior([0.5, 0.5], [[0.0], [1.0]],
                                                  [np.asarray(1.0)] * 2),
                          ens=DegradationEnsemble([Identity(1), Scale(1, 0.5)], sigma=1.0))
        with pytest.raises(ClosedFormUnavailable, match="one component"):
            regularizer_curvature_bound(reg)


def step_row(reg, restorer, x, members, rng):
    """``regularizer_step`` on the one-row block of x: its row."""
    return regularizer_step(reg, restorer, x[None], np.asarray(members)[None], [rng])[0]


class TestRegularizerStep:
    def test_single_draw_matches_one_row_mean(self):
        # the one-row (1, n) buffer-and-sum form, bit for bit, signed zeros
        # included: the mask member zeroes negative entries of x - R to -0.0
        prior = GmmPrior([0.4, 0.6], [[0.5, -0.2, 0.1, 0.0], [-0.3, 0.8, 0.0, 0.2]],
                         [np.asarray(0.7), np.asarray(1.2)])
        ens = DegradationEnsemble([CoordinateMask(4, [0, 2]), Identity(4),
                                   DenseMatrix(np.arange(12.0).reshape(3, 4) / 10)],
                                  sigma=0.6)
        reg = Regularizer(tau=0.8, prior=prior, ens=ens)
        r = ExactMmse(prior, 0.6)
        scale = 0.8 / (0.6 * 0.6)
        rng, ref_rng = np.random.default_rng(19), np.random.default_rng(19)
        saw_negative_zero = False
        for x in (np.array([0.3, -1.1, 0.7, -2.0]), np.array([-0.4, -0.2, 0.1, -3.0])):
            for j in (0, 1, 2, 0):
                got = step_row(reg, r, x, [j], rng)
                H = ens.members[j]
                s = H.apply(x) + 0.6 * ref_rng.standard_normal(H.out_dim)
                terms = np.empty((1, 4))
                terms[0] = scale * H.gram_apply(x - r.restore(s, H))
                saw_negative_zero |= bool(np.any(np.signbit(terms[0]) & (terms[0] == 0)))
                expected = terms.sum(axis=0) / 1
                np.testing.assert_array_equal(got, expected)
                assert got.tobytes() == expected.tobytes()
        assert saw_negative_zero

    @pytest.mark.parametrize("batch", [2, 8, 33])
    def test_batch_matches_buffer_mean_in_one_dimension(self, batch):
        # for n = 1 numpy sums the (b, 1) buffer's column pairwise from b = 8
        # on, which a running sum of the terms does not reproduce
        ens = DegradationEnsemble([Identity(1), Scale(1, 0.4)], sigma=0.7)
        reg = Regularizer(tau=1.3, prior=normal_prior(), ens=ens)
        r = ExactMmse(reg.prior, 0.7)
        scale = 1.3 / (0.7 * 0.7)
        rng, ref_rng = np.random.default_rng(23), np.random.default_rng(23)
        members = np.arange(batch) % 2
        for x in (np.array([0.9]), np.array([-2.4])):
            got = step_row(reg, r, x, members, rng)
            terms = np.empty((batch, 1))
            for i, j in enumerate(members):
                H = ens.members[j]
                s = H.apply(x) + 0.7 * ref_rng.standard_normal(H.out_dim)
                terms[i] = scale * H.gram_apply(x - r.restore(s, H))
            assert got.tobytes() == (terms.sum(axis=0) / batch).tobytes()

    def test_tau_zero_limit_is_fidelity(self):
        # tau must be positive; a tiny tau leaves only the fidelity gradient
        reg = gauss_reg(tau=1e-300)
        p = Problem(Identity(1), np.array([0.5]))
        r = ExactMmse(reg.prior, 1.0)
        x = np.array([2.0])
        g = fidelity_grad(p, x) + step_row(reg, r, x, [0], np.random.default_rng(11))
        np.testing.assert_allclose(g, fidelity_grad(p, x), atol=1e-290)

    def test_unbiasedness(self):
        reg = gauss_reg()
        p = Problem(Identity(1), np.array([0.3]))
        r = ExactMmse(reg.prior, 1.0)
        x = np.array([1.2])
        rng = np.random.default_rng(12)
        draws = np.array([(fidelity_grad(p, x) + step_row(reg, r, x, [0], rng))[0]
                          for _ in range(10_000)])
        expected = fidelity_grad(p, x)[0] + reg.gaussian_forms.grad(x)[0]
        se = float(draws.std(ddof=1) / np.sqrt(draws.size))
        assert abs(draws.mean() - expected) < 4 * se

    def test_red_residual_form(self):
        # identity ensemble: the term is the denoiser residual (tau/sigma^2)(x - D(x+n))
        reg = gauss_reg(tau=0.9, sigma=0.8)
        p = Problem(Identity(1), np.zeros(1))
        restorer = ExactMmse(reg.prior, 0.8)
        x = np.array([0.7])
        g = fidelity_grad(p, x) + step_row(reg, restorer, x, [0], np.random.default_rng(13))
        s = x + 0.8 * np.random.default_rng(13).standard_normal(1)
        expected = fidelity_grad(p, x) + (0.9 / (0.8 * 0.8)) * (
            x - restorer.restore(s, reg.ens.members[0])
        )
        np.testing.assert_array_equal(g, expected)

    def test_batched_mean(self):
        self.check_against_reference(batch=3)

    def test_single_draw_multi_member(self):
        self.check_against_reference(batch=1)

    @staticmethod
    def check_against_reference(batch):
        # in-test reference: one noise vector per given member index, in
        # order; four calls share one generator
        prior = GmmPrior([0.4, 0.6], [[0.5, -0.2, 0.1], [-0.3, 0.8, 0.0]],
                         [np.asarray(0.7), np.asarray(1.2)])
        ens = DegradationEnsemble(
            [Identity(3), CoordinateMask(3, [0, 2]),
             DenseMatrix([[1.0, 0.5, 0.0], [0.0, 0.3, 1.0]])],
            sigma=0.6, weights=[0.5, 0.2, 0.3],
        )
        reg = Regularizer(tau=0.8, prior=prior, ens=ens)
        p = Problem(DenseMatrix(np.eye(3) + 0.1), np.array([0.2, -0.1, 0.4]))
        r = ExactMmse(prior, 0.6)
        x = np.array([0.3, -1.1, 0.7])
        scale = 0.8 / (0.6 * 0.6)
        select = np.random.default_rng(24)
        rng, ref_rng = np.random.default_rng(14), np.random.default_rng(14)
        for _ in range(4):
            idx = select.choice(3, size=batch, p=ens.weights)
            g = fidelity_grad(p, x) + step_row(reg, r, x, idx, rng)
            terms = np.empty((batch, 3))
            for i, j in enumerate(idx):
                H = ens.members[j]
                s = H.apply(x) + 0.6 * ref_rng.standard_normal(H.out_dim)
                terms[i] = scale * H.gram_apply(x - r.restore(s, H))
            np.testing.assert_array_equal(
                g, fidelity_grad(p, x) + terms.sum(axis=0) / batch)


class TestRegValueMc:
    def test_matches_closed_form(self):
        reg = gauss_reg()
        est, se = reg_value_mc(reg, np.array([1.5]), 100_000,
                               np.random.default_rng(2))
        exact = reg.gaussian_forms.value(np.array([1.5]))
        assert abs(est - exact) < 4 * se

    def test_fully_degrading_zero_information(self):
        ens = DegradationEnsemble([Scale(1, 0.0)], sigma=0.8)
        reg = Regularizer(tau=1.0, prior=normal_prior(), ens=ens)
        exact = reg.gaussian_forms.value(np.array([3.0]))
        est, se = reg_value_mc(reg, np.array([3.0]), 20_000,
                               np.random.default_rng(3))
        assert abs(est - exact) < 4 * se

    def test_standard_error_scaling(self):
        reg = gauss_reg()
        x = np.array([0.7])
        ratios = []
        for seed in range(20):
            _, se1 = reg_value_mc(reg, x, 2000, np.random.default_rng(100 + seed))
            _, se2 = reg_value_mc(reg, x, 4000, np.random.default_rng(200 + seed))
            ratios.append(se1 / se2)
        mean_ratio = float(np.mean(ratios))
        assert 1.25 < mean_ratio < 1.6  # ~sqrt(2)

    def test_common_random_numbers(self):
        reg = gauss_reg()
        a1, _ = reg_value_mc(reg, np.array([1.0]), 500, np.random.default_rng(7))
        a2, _ = reg_value_mc(reg, np.array([1.0]), 500, np.random.default_rng(7))
        assert a1 == a2


class TestRegGrad:
    def test_worked_example(self):
        reg = gauss_reg()
        x = np.array([2.0])
        grad, se = reg_grad_exact(reg, x, 100_000, np.random.default_rng(4),
                                  return_se=True)
        assert abs(grad[0] - 1.0) < 4 * se[0]
        np.testing.assert_allclose(reg.gaussian_forms.grad(x), [1.0], atol=1e-12)

    def test_zero_at_prior_mean(self):
        reg = gauss_reg()
        grad, se = reg_grad_exact(reg, np.zeros(1), 100_000,
                                  np.random.default_rng(5), return_se=True)
        assert abs(grad[0]) < 4 * se[0]

    def test_tau_scales_linearly_same_draws(self):
        base = gauss_reg(tau=1.0)
        double = gauss_reg(tau=2.0)
        x = np.array([0.9])
        g1 = reg_grad_exact(base, x, 5000, np.random.default_rng(6))
        g2 = reg_grad_exact(double, x, 5000, np.random.default_rng(6))
        np.testing.assert_allclose(g2, 2.0 * g1, rtol=1e-12)
        v1, _ = reg_value_mc(base, x, 5000, np.random.default_rng(7))
        v2, _ = reg_value_mc(double, x, 5000, np.random.default_rng(7))
        np.testing.assert_allclose(v2, 2.0 * v1, rtol=1e-12)

    def test_gradient_consistency_fd_of_mc(self):
        # finite differences of the MC value with common random numbers
        rng = np.random.default_rng(8)
        for trial in range(50):
            n = int(rng.integers(1, 7))
            k = int(rng.integers(1, 4))
            b = int(rng.integers(1, 5))
            reg = random_regularizer(rng, n, k, b)
            x = rng.standard_normal(n)
            samples = 40_000
            grad, se = reg_grad_exact(reg, x, samples,
                                      np.random.default_rng(1000 + trial),
                                      return_se=True)
            h = 1e-4
            fd = np.empty(n)
            for i in range(n):
                e = np.zeros(n)
                e[i] = h
                hi, _ = reg_value_mc(reg, x + e, samples,
                                     np.random.default_rng(2000 + trial))
                lo, _ = reg_value_mc(reg, x - e, samples,
                                     np.random.default_rng(2000 + trial))
                fd[i] = (hi - lo) / (2 * h)
            tol = np.maximum(3 * se, 1e-3)
            gap = np.abs(grad - fd)
            assert np.all(gap < np.maximum(tol, 3e-2 * np.abs(grad) + 1e-3)), (
                f"trial {trial}: gap {gap} tol {tol}"
            )

    def test_gaussian_closed_form_matches_mc(self):
        rng = np.random.default_rng(9)
        prior = GmmPrior([1.0], [rng.standard_normal(3)], [np.asarray(0.8)])
        ens = DegradationEnsemble(
            [Identity(3), CoordinateMask(3, [0, 2])], sigma=0.7
        )
        reg = Regularizer(tau=1.4, prior=prior, ens=ens)
        x = rng.standard_normal(3)
        grad, se = reg_grad_exact(reg, x, 200_000, np.random.default_rng(10),
                                  return_se=True)
        closed = reg.gaussian_forms.grad(x)
        np.testing.assert_array_less(np.abs(grad - closed), 4 * se + 1e-12)

    @pytest.mark.parametrize("mc_samples", [0, 1])
    @pytest.mark.parametrize("return_se", [False, True])
    def test_refuses_fewer_than_two_samples(self, mc_samples, return_se):
        with pytest.raises(ValueError, match="at least 2"):
            reg_grad_exact(gauss_reg(), np.zeros(1), mc_samples,
                           np.random.default_rng(0), return_se=return_se)


class TestVarianceProbe:
    def test_tiny_tau_gives_zero(self):
        reg = gauss_reg(tau=1e-300)
        r = ExactMmse(reg.prior, 1.0)
        v = variance_probe(reg, r, np.array([1.0]), 1000,
                           np.random.default_rng(15))
        assert v == 0.0

    def test_fully_degrading_gram_annihilates(self):
        ens = DegradationEnsemble([Scale(1, 0.0)], sigma=1.0)
        reg = Regularizer(tau=1.0, prior=normal_prior(), ens=ens)
        r = ExactMmse(reg.prior, 1.0)
        v = variance_probe(reg, r, np.array([2.0]), 1000,
                           np.random.default_rng(16))
        assert v == 0.0

    def test_closed_form_quarter(self):
        # term = x/2 - n/2 with n ~ N(0,1): variance 1/4
        reg = gauss_reg()
        r = ExactMmse(reg.prior, 1.0)
        v = variance_probe(reg, r, np.array([1.0]), 100_000,
                           np.random.default_rng(17))
        assert abs(v - 0.25) < 0.025

    def test_exact_restorer_shares_reg_grad_draws(self):
        # same seed, same kernel draws: the trace-variance of the exact step
        # is n times the summed squared standard errors of the mean gradient
        prior = GmmPrior([0.4, 0.6], [[0.5, -0.2, 0.1], [-0.3, 0.8, 0.0]],
                         [np.asarray(0.7), np.asarray(1.2)])
        ens = DegradationEnsemble(
            [Identity(3), CoordinateMask(3, [0, 2]),
             DenseMatrix([[1.0, 0.5, 0.0], [0.0, 0.3, 1.0]])],
            sigma=0.6, weights=[0.5, 0.2, 0.3])
        reg = Regularizer(tau=0.8, prior=prior, ens=ens)
        x, n = np.array([0.3, -1.1, 0.7]), 3000
        v = variance_probe(reg, ExactMmse(prior, 0.6), x, n, np.random.default_rng(18))
        _, se = reg_grad_exact(reg, x, n, np.random.default_rng(18), return_se=True)
        assert v > 0.0
        np.testing.assert_allclose(v, n * np.sum(se ** 2), rtol=1e-12, atol=0.0)


class TestMonteCarloInputs:
    """The four Monte Carlo estimators refuse the same malformed inputs."""

    ESTIMATORS = {
        "reg_value_mc": lambda reg, r, x, n, rng: reg_value_mc(reg, x, n, rng),
        "reg_grad_exact": lambda reg, r, x, n, rng: reg_grad_exact(reg, x, n, rng),
        "variance_probe": lambda reg, r, x, n, rng: variance_probe(reg, r, x, n, rng),
        "bias_vector": lambda reg, r, x, n, rng: bias_vector(r, reg.ens, x, reg.tau, n, rng),
    }

    @pytest.mark.parametrize("name", sorted(ESTIMATORS))
    def test_refuses_malformed_points_and_too_few_samples(self, name):
        reg = gauss_reg(n=3)
        r = Biased(ExactMmse(reg.prior, 1.0), Gain(0.7))
        estimate = self.ESTIMATORS[name]
        for shape in ((2,), (4,), (1, 3), (3, 3), (3, 1), ()):
            with pytest.raises(DimensionMismatch, match=re.escape(f"shape {shape}")):
                estimate(reg, r, np.zeros(shape), 10, np.random.default_rng(0))
        least = 1 if name == "bias_vector" else 2
        for mc_samples in (least - 1, -3):
            with pytest.raises(ValueError, match=f"at least {least}"):
                estimate(reg, r, np.zeros(3), mc_samples, np.random.default_rng(0))
        estimate(reg, r, np.zeros(3), least, np.random.default_rng(0))


@st.composite
def audit_instances(draw):
    """Single-Gaussian regularizer, a restorer of it and a probe point: dims
    1-4, 1-3 members from identity, coordinate-mask and dense-matrix, and an
    exact, offset, gain, smoothing or gain-then-offset restorer."""
    n = draw(st.integers(1, 4))
    kinds = draw(st.lists(st.sampled_from(["identity", "mask", "dense"]),
                          min_size=1, max_size=3))
    wrap = draw(st.sampled_from(["exact", "offset", "gain", "smoothing", "gain-offset"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    members = []
    for kind in kinds:
        if kind == "identity":
            members.append(Identity(n))
        elif kind == "mask":
            keep = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
            members.append(CoordinateMask(n, keep))
        else:
            members.append(DenseMatrix(rng.standard_normal((int(rng.integers(1, 5)), n))))
    cov = float(rng.uniform(0.3, 1.5))
    if rng.integers(2):  # a diagonal covariance takes the whitened, non-isotropic path
        cov = rng.uniform(0.3, 1.5, n)
    prior = GmmPrior([1.0], [rng.standard_normal(n)], [np.asarray(cov)])
    sigma = float(rng.uniform(0.4, 1.5))
    ens = DegradationEnsemble(members, sigma=sigma, weights=rng.dirichlet(np.full(len(kinds), 2.0)))
    reg = Regularizer(tau=float(rng.uniform(0.2, 2.0)), prior=prior, ens=ens)
    restorer = ExactMmse(prior, sigma)
    if wrap in ("gain", "gain-offset"):
        restorer = Biased(restorer, Gain(float(rng.uniform(0.5, 1.5))))
    if wrap in ("offset", "gain-offset"):
        restorer = Biased(restorer, ConstantOffset(rng.uniform(-0.5, 0.5, n)))
    if wrap == "smoothing":
        restorer = Biased(restorer, Smoothing(int(rng.integers(1, n + 1))))
    return reg, restorer, 2.0 * rng.standard_normal(n), int(rng.integers(2 ** 32))


class TestExactAuditTerms:
    """exact_audit_terms against the Monte Carlo probes it replaces."""

    BATCHES, DRAWS, Z = 10, 2000, 6.0

    def batch_means(self, estimate, seed):
        """Mean of independent estimates and its standard error."""
        rng = np.random.default_rng(seed)
        values = np.array([estimate(rng) for _ in range(self.BATCHES)])
        return values.mean(axis=0), values.std(axis=0, ddof=1) / np.sqrt(self.BATCHES)

    @given(audit_instances())
    def test_agrees_with_the_probes_within_their_standard_error(self, case):
        # Z standard errors of 10 batch means (a t statistic on 9 degrees of
        # freedom); the absolute floor covers estimates with no spread
        reg, restorer, x, seed = case
        terms = exact_audit_terms(reg, restorer, [x])
        nu2, se = self.batch_means(
            lambda rng: variance_probe(reg, restorer, x, self.DRAWS, rng), seed)
        assert abs(terms.nu2[0] - nu2) <= self.Z * se + 1e-9 * (1.0 + nu2)
        bias, se = self.batch_means(
            lambda rng: bias_vector(restorer, reg.ens, x, reg.tau, self.DRAWS, rng), seed)
        assert np.all(np.abs(terms.bias[0] - bias) <= self.Z * se + 1e-9)
        np.testing.assert_allclose(
            terms.bias, terms.member_bias.transpose(0, 2, 1) @ reg.ens.weights, atol=1e-12)
        assert terms.moments.shape == (1, reg.ens.size)

    def test_constant_offset_bias_per_member(self):
        # b_j = -(tau/sigma²) G_j c for every member, at every point
        prior = GmmPrior([1.0], [[0.2, -0.4, 0.1]], [np.asarray(0.8)])
        members = [Identity(3), CoordinateMask(3, [0, 2]),
                   DenseMatrix([[1.0, 0.5, 0.0], [0.0, 0.3, 1.0]])]
        ens = DegradationEnsemble(members, sigma=0.6, weights=[0.5, 0.2, 0.3])
        reg = Regularizer(tau=0.8, prior=prior, ens=ens)
        c = np.array([0.3, -0.1, 0.2])
        restorer = Biased(ExactMmse(prior, 0.6), ConstantOffset(c))
        points = np.random.default_rng(3).standard_normal((4, 3))
        terms = exact_audit_terms(reg, restorer, points)
        scale = 0.8 / 0.36
        expected = np.stack([-scale * H.gram_apply(c) for H in members])
        for i in range(len(points)):
            np.testing.assert_allclose(terms.member_bias[i], expected, atol=1e-12)
            np.testing.assert_allclose(terms.bias[i], ens.weights @ expected, atol=1e-12)

    def test_closed_form_quarter(self):
        # term = x/2 - n/2 with n ~ N(0,1): variance 1/4 at every x
        reg = gauss_reg()
        terms = exact_audit_terms(reg, ExactMmse(reg.prior, 1.0), [[1.0], [-3.0]])
        np.testing.assert_allclose(terms.nu2, [0.25, 0.25], rtol=1e-15)
        np.testing.assert_allclose(terms.moments, [[0.5], [2.5]], rtol=1e-15)
        np.testing.assert_array_equal(terms.bias, np.zeros((2, 1)))

    def test_refusals(self):
        mixture = GmmPrior([0.5, 0.5], [[0.0], [1.0]], [np.asarray(1.0)] * 2)
        ens = DegradationEnsemble([Identity(1)], sigma=1.0)
        reg = Regularizer(tau=1.0, prior=mixture, ens=ens)
        with pytest.raises(ClosedFormUnavailable, match="one-component"):
            exact_audit_terms(reg, ExactMmse(mixture, 1.0), [[0.0]])
        big = normal_prior(n=513)
        reg = Regularizer(tau=1.0, prior=big,
                          ens=DegradationEnsemble([Identity(513)], sigma=1.0))
        with pytest.raises(ClosedFormUnavailable, match="capped"):
            exact_audit_terms(reg, ExactMmse(big, 1.0), [np.zeros(513)])

        class Clip:  # not affine in the estimate
            kind = "clip"

            def perturb(self, estimate, restorer):
                return np.clip(estimate, -1.0, 1.0)

        reg = gauss_reg()
        with pytest.raises(ClosedFormUnavailable, match="affine"):
            exact_audit_terms(reg, Biased(ExactMmse(reg.prior, 1.0), Clip()), [[0.0]])


class TestGaussianMinimum:
    def test_matches_grid_search(self):
        rng = np.random.default_rng(18)
        prior = GmmPrior([1.0], [[0.4]], [np.asarray(0.9)])
        ens = DegradationEnsemble([Identity(1)], sigma=0.8)
        reg = Regularizer(tau=1.1, prior=prior, ens=ens)
        p = Problem(Scale(1, 0.7), np.array([0.2]))
        x_star, f_star = gaussian_objective_minimum(p, reg)
        forms = SingleGaussianForms(reg)
        xs = np.linspace(-3, 3, 20001)
        vals = [fidelity(p, np.array([x])) + forms.value(np.array([x])) for x in xs]
        assert abs(xs[int(np.argmin(vals))] - x_star[0]) < 1e-3
        assert f_star <= float(np.min(vals)) + 1e-10

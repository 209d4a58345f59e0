import numpy as np
import pytest

from srp.operators import CoordinateMask, DegradationEnsemble, Identity
from srp.priors import GmmPrior
from srp.restoration import (
    Biased,
    ConstantOffset,
    ExactMmse,
    Gain,
    Smoothing,
    bias_vector,
    exact_counterpart,
    measure_bias,
)


def normal_prior(n=1, mean=None, var=1.0):
    mu = np.zeros(n) if mean is None else np.asarray(mean, dtype=float)
    return GmmPrior([1.0], [mu], [np.asarray(var)])


class TestRestore:
    def test_exact_worked_example(self):
        r = ExactMmse(normal_prior(), 1.0)
        np.testing.assert_allclose(
            r.restore(np.array([2.0]), Identity(1)), [1.0], atol=1e-12
        )

    def test_constant_offset_adds(self):
        inner = ExactMmse(normal_prior(), 1.0)
        r = Biased(inner, ConstantOffset([0.1]))
        np.testing.assert_allclose(
            r.restore(np.array([2.0]), Identity(1)), [1.1], atol=1e-12
        )

    def test_unit_gain_is_identity_for_zero_mean_prior(self):
        inner = ExactMmse(normal_prior(n=3), 0.8)
        r = Biased(inner, Gain(1.0))
        rng = np.random.default_rng(0)
        s = rng.standard_normal((5, 3))
        np.testing.assert_array_equal(
            r.restore(s, Identity(3)), inner.restore(s, Identity(3))
        )

    def test_smoothing_preserves_constants(self):
        inner = ExactMmse(normal_prior(n=4, mean=[2.0] * 4), 1.0)
        r = Biased(inner, Smoothing(3))
        est = r.restore(np.full(4, 2.0), Identity(4))
        np.testing.assert_allclose(est, inner.restore(np.full(4, 2.0), Identity(4)),
                                   atol=1e-12)

    def test_wrappers_compose(self):
        inner = ExactMmse(normal_prior(), 1.0)
        r = Biased(Biased(inner, ConstantOffset([0.1])), ConstantOffset([0.2]))
        np.testing.assert_allclose(
            r.restore(np.array([2.0]), Identity(1)), [1.3], atol=1e-12
        )
        assert exact_counterpart(r) is inner

    def test_noise_level_mismatch_detectable(self):
        r = Biased(ExactMmse(normal_prior(), 0.5), Gain(0.9))
        assert r.base_sigma == 0.5


class TestBiasVector:
    def test_exact_operator_has_exactly_zero_bias(self):
        prior = normal_prior(n=3)
        ens = DegradationEnsemble([Identity(3), CoordinateMask(3, [1])], sigma=0.7)
        r = ExactMmse(prior, 0.7)
        rng = np.random.default_rng(1)
        b = bias_vector(r, ens, np.array([0.4, -0.2, 0.9]), tau=1.3,
                        mc_samples=500, rng=rng)
        np.testing.assert_array_equal(b, np.zeros(3))

    def test_constant_offset_identity_ensemble(self):
        # gap is -c for every sample, HᵀH = I, tau = sigma = 1
        prior = normal_prior(n=2)
        ens = DegradationEnsemble([Identity(2)], sigma=1.0)
        c = np.array([0.3, -0.1])
        r = Biased(ExactMmse(prior, 1.0), ConstantOffset(c))
        rng = np.random.default_rng(2)
        b = bias_vector(r, ens, np.zeros(2), tau=1.0, mc_samples=200, rng=rng)
        np.testing.assert_allclose(b, -c, atol=1e-12)

    def test_constant_offset_mask_ensemble_projects(self):
        prior = normal_prior(n=3)
        ens = DegradationEnsemble([CoordinateMask(3, [0, 2])], sigma=1.0)
        c = np.array([0.3, 0.5, -0.2])
        r = Biased(ExactMmse(prior, 1.0), ConstantOffset(c))
        rng = np.random.default_rng(3)
        b = bias_vector(r, ens, np.zeros(3), tau=1.0, mc_samples=200, rng=rng)
        np.testing.assert_allclose(b, [-0.3, 0.0, 0.2], atol=1e-12)

    def test_offset_bias_independent_of_x(self):
        prior = normal_prior(n=2)
        ens = DegradationEnsemble([Identity(2), CoordinateMask(2, [0])], sigma=0.9)
        c = np.array([0.2, 0.1])
        r = Biased(ExactMmse(prior, 0.9), ConstantOffset(c))
        rng = np.random.default_rng(4)
        probes = [rng.standard_normal(2) * 3 for _ in range(10)]
        mc = 2000
        # analytic: b = -(tau/sigma^2) E[HᵀH] c, independent of x; coordinate 1
        # only varies with the member draw (Bernoulli), coordinate 0 is exact
        scale = 1.0 / 0.81
        expected = -scale * np.array([c[0], 0.5 * c[1]])
        se1 = scale * 0.5 * c[1] / np.sqrt(mc)
        for x in probes:
            b = bias_vector(r, ens, x, tau=1.0, mc_samples=mc, rng=rng)
            np.testing.assert_allclose(b[0], expected[0], atol=1e-12)
            assert abs(b[1] - expected[1]) < 3 * se1

    def test_gain_bias_matches_quadrature_oracle(self):
        # 1-D N(0,1) prior, identity ensemble, sigma=tau=1, gain 0.5:
        # R*(s) = s/2, R(s) = s/4, so b(x) = E[s]/4 = x/4
        prior = normal_prior()
        ens = DegradationEnsemble([Identity(1)], sigma=1.0)
        r = Biased(ExactMmse(prior, 1.0), Gain(0.5))
        x = np.array([1.2])

        nodes, weights = np.polynomial.hermite.hermgauss(60)
        s = x[0] + np.sqrt(2.0) * nodes  # s ~ N(x, 1)
        gap = s / 2.0 - s / 4.0
        oracle = float(np.sum(weights * gap) / np.sqrt(np.pi))
        assert abs(oracle - x[0] / 4.0) < 1e-12

        rng = np.random.default_rng(5)
        est = bias_vector(r, ens, x, tau=1.0, mc_samples=200_000, rng=rng)
        se = 0.5 * 0.25 / np.sqrt(200_000)  # sd of gap s/4 is 0.25
        assert abs(est[0] - oracle) < 4 * se


class TestMeasureBias:
    def test_exact_reports_zero(self):
        prior = normal_prior(n=2)
        ens = DegradationEnsemble([Identity(2)], sigma=1.0)
        r = ExactMmse(prior, 1.0)
        rng = np.random.default_rng(6)
        report = measure_bias(r, ens, [np.zeros(2), np.ones(2)], tau=1.0,
                              mc_samples=100, rng=rng)
        assert report.epsilon_hat == 0.0
        assert report.samples_per_point == 100

    def test_offset_epsilon_is_norm_of_c(self):
        prior = normal_prior(n=2)
        ens = DegradationEnsemble([Identity(2)], sigma=1.0)
        c = np.array([0.3, 0.4])
        r = Biased(ExactMmse(prior, 1.0), ConstantOffset(c))
        rng = np.random.default_rng(7)
        report = measure_bias(r, ens, [np.zeros(2), np.ones(2)], tau=1.0,
                              mc_samples=100, rng=rng)
        np.testing.assert_allclose(report.epsilon_hat, 0.5, atol=1e-12)
        for _, norm in report.per_point:
            np.testing.assert_allclose(norm, 0.5, atol=1e-12)

    def test_epsilon_scales_with_offset(self):
        prior = normal_prior(n=2)
        ens = DegradationEnsemble([Identity(2), CoordinateMask(2, [1])], sigma=0.8)
        rng_a = np.random.default_rng(8)
        rng_b = np.random.default_rng(8)
        probes = [np.zeros(2)]
        r1 = Biased(ExactMmse(prior, 0.8), ConstantOffset([0.1, 0.2]))
        r2 = Biased(ExactMmse(prior, 0.8), ConstantOffset([0.2, 0.4]))
        e1 = measure_bias(r1, ens, probes, 1.0, 5000, rng_a).epsilon_hat
        e2 = measure_bias(r2, ens, probes, 1.0, 5000, rng_b).epsilon_hat
        np.testing.assert_allclose(e2, 2.0 * e1, rtol=1e-10)

    def test_epsilon_is_max_over_probes(self):
        prior = normal_prior()
        ens = DegradationEnsemble([Identity(1)], sigma=1.0)
        r = Biased(ExactMmse(prior, 1.0), Gain(0.5))
        rng = np.random.default_rng(9)
        report = measure_bias(
            r, ens, [np.array([0.5]), np.array([2.0])], tau=1.0,
            mc_samples=50_000, rng=rng,
        )
        norms = [n for _, n in report.per_point]
        assert report.epsilon_hat == max(norms)
        assert "not a global bound" in report.note

    def test_requires_probes(self):
        prior = normal_prior()
        ens = DegradationEnsemble([Identity(1)], sigma=1.0)
        with pytest.raises(ValueError):
            measure_bias(ExactMmse(prior, 1.0), ens, [], 1.0, 10,
                         np.random.default_rng(0))

import re

import numpy as np
import pytest

from srp.operators import CoordinateMask, DegradationEnsemble, DimensionMismatch, Identity
from srp.priors import GmmPrior
from srp.restoration import (
    Biased,
    ConstantOffset,
    ExactMmse,
    Gain,
    Smoothing,
    _unwrap,
    bias_vector,
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
        assert _unwrap(r)[0] is inner

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

    def test_offset_bias_norm_is_norm_of_c(self):
        prior = normal_prior(n=2)
        ens = DegradationEnsemble([Identity(2)], sigma=1.0)
        r = Biased(ExactMmse(prior, 1.0), ConstantOffset([0.3, 0.4]))
        rng = np.random.default_rng(7)
        for x in (np.zeros(2), np.ones(2)):
            b = bias_vector(r, ens, x, tau=1.0, mc_samples=100, rng=rng)
            np.testing.assert_allclose(np.linalg.norm(b), 0.5, atol=1e-12)

    def test_bias_doubles_with_offset_same_draws(self):
        prior = normal_prior(n=2)
        ens = DegradationEnsemble([Identity(2), CoordinateMask(2, [1])], sigma=0.8)
        r1 = Biased(ExactMmse(prior, 0.8), ConstantOffset([0.1, 0.2]))
        r2 = Biased(ExactMmse(prior, 0.8), ConstantOffset([0.2, 0.4]))
        b1 = bias_vector(r1, ens, np.zeros(2), 1.0, 5000, np.random.default_rng(8))
        b2 = bias_vector(r2, ens, np.zeros(2), 1.0, 5000, np.random.default_rng(8))
        np.testing.assert_allclose(b2, 2.0 * b1, rtol=1e-10)

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


def two_restore_bias_vector(restorer, ens, x, tau, mc_samples, rng):
    """b(x) restoring every draw twice: once exactly, once through the restorer."""
    exact = _unwrap(restorer)[0]
    total = np.zeros(ens.in_dim)
    for _, H, _, s in ens.observe(x, mc_samples, rng):
        gap = exact.restore(s, H) - restorer.restore(s, H)
        total += np.sum(H.gram_apply(gap), axis=0)
    return float(tau) / (ens.sigma * ens.sigma) * total / int(mc_samples)


class TestBiasVectorRestoresOnce:
    """One exact restoration per draw, then the perturbation chain: the same
    bits as restoring the draw again through the restorer."""

    @pytest.mark.parametrize("chain", ["exact", "offset", "gain", "smoothing", "nested"])
    def test_matches_two_restore_reference(self, chain):
        prior = GmmPrior([0.3, 0.7], [[0.5, -1.0, 0.2, 1.5], [-0.4, 0.8, 1.1, -0.3]],
                         [np.asarray(0.6), np.asarray(1.4)])
        ens = DegradationEnsemble([Identity(4), CoordinateMask(4, [0, 2]),
                                   CoordinateMask(4, [1, 2, 3])], sigma=0.8)
        exact = ExactMmse(prior, 0.8)
        restorer = {
            "exact": exact,
            "offset": Biased(exact, ConstantOffset([0.1, -0.2, 0.05, 0.3])),
            "gain": Biased(exact, Gain(0.7)),
            "smoothing": Biased(exact, Smoothing(3)),
            "nested": Biased(Biased(Biased(exact, Gain(1.3)), Smoothing(2)),
                             ConstantOffset([0.2, 0.0, -0.1, 0.1])),
        }[chain]
        x = np.array([0.9, -0.3, 1.7, 0.4])
        got = bias_vector(restorer, ens, x, 1.2, 300, np.random.default_rng(21))
        expected = two_restore_bias_vector(restorer, ens, x, 1.2, 300,
                                           np.random.default_rng(21))
        np.testing.assert_array_equal(got, expected)
        assert (chain == "exact") == (not np.any(got))

    def test_each_draw_is_restored_once(self):
        prior = normal_prior(n=2)
        ens = DegradationEnsemble([Identity(2), CoordinateMask(2, [0])], sigma=1.0)
        exact = ExactMmse(prior, 1.0)
        restorer = Biased(Biased(exact, Gain(0.5)), ConstantOffset([0.1, 0.2]))
        calls = []
        restore = exact.restore
        exact.restore = lambda s, H: calls.append(len(s)) or restore(s, H)
        bias_vector(restorer, ens, np.ones(2), 1.0, 50, np.random.default_rng(22))
        assert sum(calls) == 50


class TestExactBiasTakesNoDraws:
    """An exact restorer's bias is zero by construction: it comes back as
    zeros, bit for bit, without touching the generator."""

    @staticmethod
    def instance():
        prior = GmmPrior([0.3, 0.7], [[0.5, -1.0, 0.2, 1.5], [-0.4, 0.8, 1.1, -0.3]],
                         [np.asarray(0.6), np.asarray(1.4)])
        ens = DegradationEnsemble([Identity(4), CoordinateMask(4, [0, 2]),
                                   CoordinateMask(4, [1, 2, 3])], sigma=0.8)
        return ExactMmse(prior, 0.8), ens

    def test_bias_vector(self):
        exact, ens = self.instance()
        rng = np.random.default_rng(31)
        state = rng.bit_generator.state
        for x in ([0.9, -0.3, 1.7, 0.4], [0.0, 0.0, 0.0, 0.0], [-5.0, 2.0, 1e3, -0.0]):
            b = bias_vector(exact, ens, np.array(x), 1.2, 300, rng)
            np.testing.assert_array_equal(b, np.zeros(4))
            assert b.tobytes() == np.zeros(4).tobytes()  # +0.0 throughout
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("biased", [False, True])
    def test_probe_point_length_checked(self, biased):
        exact, ens = self.instance()
        restorer = Biased(exact, Gain(0.7)) if biased else exact
        with pytest.raises(DimensionMismatch):
            bias_vector(restorer, ens, np.zeros(3), 1.2, 10, np.random.default_rng(0))
        # the right number of entries in a 2-D point is still refused, by shape
        for shape in ((1, ens.in_dim), (ens.in_dim, 1)):
            with pytest.raises(DimensionMismatch, match=re.escape(f"shape {shape}")):
                bias_vector(restorer, ens, np.zeros(shape), 1.2, 10,
                            np.random.default_rng(0))

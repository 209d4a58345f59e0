import numpy as np
import pytest

from srp.objective import Regularizer, reg_grad_exact
from srp.operators import DegradationEnsemble, DenseMatrix, Identity, Scale
from srp.oracle import (
    QuadratureGrid,
    QuadratureRefusal,
    oracle_grad,
    oracle_mmse,
    oracle_reg_value,
)
from srp.priors import GmmPrior, ObservationModel, mmse_restore

from references import reg_grad_with_se


def normal_prior(n=1):
    return GmmPrior([1.0], [np.zeros(n)], [np.asarray(1.0)])


def random_prior_2d(rng, k=2):
    w = rng.dirichlet(np.full(k, 4.0))
    w = w / w.sum()
    means = rng.standard_normal((k, 2))
    covs = []
    for _ in range(k):
        a = 0.3 * rng.standard_normal((2, 2))
        covs.append(a @ a.T + rng.uniform(0.5, 1.0) * np.eye(2))
    return GmmPrior(w, means, covs)


class TestOracleMmse:
    def test_1d_worked_example(self):
        p = normal_prior()
        obs = ObservationModel(Identity(1), 1.0)
        est = oracle_mmse(p, obs, np.array([2.0]), QuadratureGrid(4001))
        assert abs(est[0] - 1.0) < 1e-8

    def test_symmetric_two_point_mixture(self):
        p = GmmPrior([0.5, 0.5], [[1.0], [-1.0]],
                     [np.asarray(0.5), np.asarray(0.5)])
        obs = ObservationModel(Identity(1), 1.0)
        est = oracle_mmse(p, obs, np.array([0.0]), QuadratureGrid(4001))
        assert abs(est[0]) < 1e-10

    def test_agrees_with_closed_form_2d(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            p = random_prior_2d(rng)
            h = DenseMatrix(rng.standard_normal((2, 2)))
            obs = ObservationModel(h, rng.uniform(0.5, 1.0))
            s = h.apply(p.sample(rng)) + obs.sigma * rng.standard_normal(2)
            closed = mmse_restore(p, obs, s)
            brute = oracle_mmse(p, obs, s, QuadratureGrid(301))
            np.testing.assert_allclose(brute, closed, atol=1e-6,
                                       err_msg=f"trial {trial}")

    def test_rotation_invariance_for_isotropic_instances(self):
        p = normal_prior(2)
        obs = ObservationModel(Identity(2), 0.8)
        theta = 0.7
        q = np.array([[np.cos(theta), -np.sin(theta)],
                      [np.sin(theta), np.cos(theta)]])
        rng = np.random.default_rng(1)
        for _ in range(3):
            s = rng.standard_normal(2)
            a = oracle_mmse(p, obs, s, QuadratureGrid(401))
            b = q.T @ oracle_mmse(p, obs, q @ s, QuadratureGrid(401))
            np.testing.assert_allclose(a, b, atol=1e-8)

    def test_refusals(self):
        p = normal_prior(1)
        obs = ObservationModel(Identity(1), 1e-3)
        with pytest.raises(QuadratureRefusal):
            # far outside the grid support: denominator underflows
            oracle_mmse(p, obs, np.array([500.0]), QuadratureGrid(101))
        p3 = normal_prior(3)
        with pytest.raises(QuadratureRefusal):
            oracle_mmse(p3, ObservationModel(Identity(3), 1.0), np.zeros(3))
        with pytest.raises(QuadratureRefusal):
            oracle_mmse(
                normal_prior(2), ObservationModel(Identity(2), 1.0), np.zeros(2),
                QuadratureGrid(5001, max_nodes=10_000),
            )


class TestOracleRegValue:
    def test_matches_closed_form_gaussian(self):
        ens = DegradationEnsemble([Identity(1)], sigma=1.0)
        reg = Regularizer(tau=1.0, prior=normal_prior(), ens=ens)
        x = np.array([0.8])
        brute = oracle_reg_value(reg, x, grid_x=QuadratureGrid(2001))
        assert abs(brute - reg.gaussian_forms.value(x)) < 1e-6

    def test_shift_quadratic_growth(self):
        ens = DegradationEnsemble([Identity(1)], sigma=1.0)
        reg = Regularizer(tau=1.0, prior=normal_prior(), ens=ens)
        h0 = oracle_reg_value(reg, np.zeros(1), grid_x=QuadratureGrid(2001))
        hx = oracle_reg_value(reg, np.array([1.3]), grid_x=QuadratureGrid(2001))
        assert abs((hx - h0) - 1.3 ** 2 / 4.0) < 1e-6

    def test_fully_degrading_constant(self):
        ens = DegradationEnsemble([Scale(1, 0.0)], sigma=0.9)
        reg = Regularizer(tau=1.0, prior=normal_prior(), ens=ens)
        vals = [
            oracle_reg_value(reg, np.array([a]), grid_x=QuadratureGrid(2001))
            for a in (0.0, 0.7, 2.0)
        ]
        assert max(vals) - min(vals) < 1e-10


class TestOracleGrad:
    def test_1d_three_routes(self):
        ens = DegradationEnsemble([Identity(1)], sigma=1.0)
        reg = Regularizer(tau=1.0, prior=normal_prior(), ens=ens)
        x = np.array([2.0])
        fd, quad = oracle_grad(reg, x, grid_x=QuadratureGrid(2001))
        assert abs(fd[0] - 1.0) < 1e-5
        assert abs(quad[0] - 1.0) < 1e-5
        mc, se = reg_grad_with_se(reg, x, 200_000, np.random.default_rng(2))
        assert abs(mc[0] - 1.0) < 4 * se[0]

    def test_zero_at_mean_of_prior_by_symmetry(self):
        ens = DegradationEnsemble([Identity(1)], sigma=1.0)
        reg = Regularizer(tau=1.0, prior=normal_prior(), ens=ens)
        fd, quad = oracle_grad(reg, np.zeros(1), grid_x=QuadratureGrid(4001))
        assert abs(quad[0]) < 1e-8

    def test_random_2d_three_way(self):
        rng = np.random.default_rng(3)
        p = random_prior_2d(rng)
        ens = DegradationEnsemble(
            [Identity(2), DenseMatrix(rng.standard_normal((2, 2)))],
            sigma=0.8,
        )
        reg = Regularizer(tau=1.0, prior=p, ens=ens)
        x = rng.standard_normal(2)
        fd, quad = oracle_grad(reg, x, grid_x=QuadratureGrid(161))
        mc = reg_grad_exact(reg, x, 300_000, np.random.default_rng(4))
        assert np.max(np.abs(fd - quad)) < 1e-4
        assert np.max(np.abs(mc - quad)) < 5e-3

    def test_refuses_high_dims(self):
        ens = DegradationEnsemble([Identity(3)], sigma=1.0)
        reg = Regularizer(tau=1.0, prior=normal_prior(3), ens=ens)
        with pytest.raises(QuadratureRefusal):
            oracle_grad(reg, np.zeros(3))


class TestRichardson:
    def test_halving_spacing_shrinks_error(self):
        # compare against the analytic posterior mean on a mixture
        p = GmmPrior([0.5, 0.5], [[0.9], [-0.4]],
                     [np.asarray(0.6), np.asarray(0.8)])
        obs = ObservationModel(Identity(1), 0.9)
        s = np.array([0.3])
        exact = mmse_restore(p, obs, s)[0]
        # deliberately small support so truncation error dominates
        coarse = oracle_mmse(p, obs, s, QuadratureGrid(9, radius_std=4.0))[0]
        fine = oracle_mmse(p, obs, s, QuadratureGrid(17, radius_std=4.0))[0]
        assert abs(exact - fine) * 3 <= abs(exact - coarse)

import io

import numpy as np
import pytest

from srp.objective import (
    Problem,
    Regularizer,
    fidelity_grad,
    fidelity_lipschitz,
    regularizer_curvature_bound,
)
from srp.operators import (
    CoordinateMask,
    DegradationEnsemble,
    DenseMatrix,
    FoldDownsample,
    Identity,
    sample_degradation,
)
from srp.priors import GmmPrior
from srp.restoration import Biased, ConstantOffset, ExactMmse
from srp.solver import (
    AuditError,
    DivergenceError,
    SolverConfig,
    TRACE_HEADER,
    Trace,
    audit_convergence,
    run,
    select_operator,
    solver_streams,
)


def normal_prior(n=1, mean=None, var=1.0):
    mu = np.zeros(n) if mean is None else np.asarray(mean, dtype=float)
    return GmmPrior([1.0], [mu], [np.asarray(var)])


def one_d_instance():
    prior = normal_prior()
    ens = DegradationEnsemble([Identity(1)], sigma=1.0)
    reg = Regularizer(tau=1.0, prior=prior, ens=ens)
    problem = Problem(Identity(1), np.zeros(1))
    restorer = ExactMmse(prior, 1.0)
    return problem, reg, restorer


class TestRunBasics:
    def test_one_unit_step_reaches_target(self):
        # tau -> 0 limit: pure gradient descent on 0.5||x - y||^2, one step at
        # gamma = 1 from zero lands exactly on y
        prior = normal_prior(2)
        ens = DegradationEnsemble([Identity(2)], sigma=1.0)
        reg = Regularizer(tau=1e-300, prior=prior, ens=ens)
        problem = Problem(Identity(2), np.array([0.7, -0.3]))
        cfg = SolverConfig(gamma=1.0, tau=1e-300, iterations=1, seed=0, x0="zeros")
        x, trace = run(problem, reg, ExactMmse(prior, 1.0), cfg)
        np.testing.assert_allclose(x, [0.7, -0.3], atol=1e-290)
        assert len(trace) == 1

    def test_zero_step_size_freezes(self):
        problem, reg, restorer = one_d_instance()
        x0 = np.array([1.5])
        cfg = SolverConfig(gamma=0.0, tau=1.0, iterations=10, seed=1, x0=x0)
        x, trace = run(problem, reg, restorer, cfg)
        np.testing.assert_array_equal(x, x0)
        np.testing.assert_array_equal(trace.step_sq, np.zeros(10))

    def test_mean_contraction_rate(self):
        # E[x^k] = (1 - 1.5 gamma)^k x0 for the 1-D closed-form instance
        problem, reg, restorer = one_d_instance()
        gamma, t, x0 = 0.1, 20, 8.0
        finals = []
        for seed in range(200):
            cfg = SolverConfig(gamma=gamma, tau=1.0, iterations=t, seed=seed,
                               x0=np.array([x0]))
            x, _ = run(problem, reg, restorer, cfg)
            finals.append(x[0])
        expected = (1 - 1.5 * gamma) ** t * x0
        assert abs(np.mean(finals) - expected) < 0.1 * expected

    def test_determinism(self):
        problem, reg, restorer = one_d_instance()
        cfg = SolverConfig(gamma=0.3, tau=1.0, iterations=50, seed=42, x0="zeros")
        x1, t1 = run(problem, reg, restorer, cfg)
        x2, t2 = run(problem, reg, restorer, cfg)
        assert np.array_equal(x1, x2)
        assert t1.csv_text() == t2.csv_text()

    def test_sigma_mismatch_rejected(self):
        problem, reg, _ = one_d_instance()
        wrong = ExactMmse(reg.prior, 0.5)
        cfg = SolverConfig(gamma=0.1, tau=1.0, iterations=5, seed=0, x0="zeros")
        with pytest.raises(ValueError, match="sigma"):
            run(problem, reg, wrong, cfg)

    def test_adjoint_init(self):
        problem, reg, restorer = one_d_instance()
        cfg = SolverConfig(gamma=0.0, tau=1.0, iterations=1, seed=0, x0="adjoint")
        x, _ = run(problem, reg, restorer, cfg)
        np.testing.assert_array_equal(x, problem.A.adjoint_apply(problem.y))


class TestSelection:
    def test_cyclic(self):
        ens = DegradationEnsemble([Identity(1)] * 3, sigma=1.0)
        rng = np.random.default_rng(0)
        idx = [select_operator("cyclic", ens, k, rng) for k in range(4)]
        assert idx == [0, 1, 2, 0]

    def test_fixed(self):
        ens = DegradationEnsemble([Identity(1)] * 3, sigma=1.0)
        rng = np.random.default_rng(0)
        assert all(
            select_operator("fixed", ens, k, rng, fixed_index=2) == 2
            for k in range(10)
        )

    def test_iid_matches_sample_degradation(self):
        ens = DegradationEnsemble([Identity(1)] * 4, sigma=1.0,
                                  weights=[0.1, 0.2, 0.3, 0.4])
        a = [select_operator("iid-by-weights", ens, k, np.random.default_rng(5))
             for k in range(20)]
        b = [sample_degradation(ens, np.random.default_rng(5))[0]
             for _ in range(20)]
        # same single-draw consumption per call
        assert a == b


class TestReductions:
    def test_denoiser_residual_reference_bit_identical(self):
        # identity ensemble: the update is the classic denoiser-residual step
        prior = GmmPrior(
            [0.4, 0.6], [[0.5, 0.0, -0.2], [-1.0, 0.3, 0.8]],
            [np.asarray(0.7), np.asarray(1.2)],
        )
        ens = DegradationEnsemble([Identity(3)], sigma=0.8)
        reg = Regularizer(tau=0.5, prior=prior, ens=ens)
        A = DenseMatrix([[1.0, 0.1, 0.0], [0.0, 0.8, 0.2], [0.1, 0.0, 0.9]])
        problem = Problem(A, np.array([0.2, -0.1, 0.5]))
        restorer = ExactMmse(prior, 0.8)
        gamma, t, seed = 0.05, 60, 123
        cfg = SolverConfig(gamma=gamma, tau=0.5, iterations=t, seed=seed, x0="zeros")
        x_solver, trace = run(problem, reg, restorer, cfg)

        sel_rng, noise_rng = solver_streams(seed)
        x = np.zeros(3)
        for _ in range(t):
            _, H = sample_degradation(ens, sel_rng)
            s = x + 0.8 * noise_rng.standard_normal(3)
            ghat = fidelity_grad(problem, x) + (0.5 / (0.8 * 0.8)) * (
                x - restorer.restore(s, H)
            )
            x = x - gamma * ghat
        assert np.array_equal(x, x_solver)

    def test_single_member_matches_fixed_prior_run(self):
        # b = 1 under iid selection is bit-identical to a fixed-operator run
        prior = normal_prior(3, mean=[0.2, -0.1, 0.4], var=0.9)
        ens = DegradationEnsemble([CoordinateMask(3, [0, 2])], sigma=0.6)
        reg = Regularizer(tau=0.8, prior=prior, ens=ens)
        problem = Problem(Identity(3), np.array([0.1, 0.2, -0.3]))
        restorer = ExactMmse(prior, 0.6)
        kw = dict(gamma=0.07, tau=0.8, iterations=80, seed=9, x0="zeros")
        x_iid, t_iid = run(problem, reg, restorer,
                           SolverConfig(selection="iid-by-weights", **kw))
        x_fix, t_fix = run(problem, reg, restorer,
                           SolverConfig(selection="fixed", fixed_index=0, **kw))
        assert np.array_equal(x_iid, x_fix)
        assert t_iid.csv_text() == t_fix.csv_text()


class TestBatch:
    def test_batching_reduces_spread(self):
        problem, reg, restorer = one_d_instance()
        finals = {1: [], 16: []}
        for batch in (1, 16):
            for seed in range(50):
                cfg = SolverConfig(gamma=0.2, tau=1.0, iterations=80, seed=seed,
                                   x0="zeros", batch=batch)
                x, _ = run(problem, reg, restorer, cfg)
                finals[batch].append(x[0])
        ratio = np.var(finals[1]) / np.var(finals[16])
        assert ratio > 2.0

    def test_batch_requires_iid(self):
        with pytest.raises(ValueError):
            SolverConfig(gamma=0.1, tau=1.0, iterations=5, batch=4,
                         selection="cyclic")


class TestPredrawnSelection:
    """run() draws the selection stream up front; a loop drawing per
    iteration is the reference, bit for bit."""

    def _instance(self):
        prior = GmmPrior([0.3, 0.7], [[0.5, 0.0, -0.2, 0.1], [-1.0, 0.3, 0.8, 0.0]],
                         [np.asarray(0.7), np.asarray(1.2)])
        ens = DegradationEnsemble(
            [Identity(4), CoordinateMask(4, [0, 2]), FoldDownsample(4, 2)],
            sigma=0.5, weights=[0.5, 0.3, 0.2],
        )
        reg = Regularizer(tau=0.4, prior=prior, ens=ens)
        problem = Problem(DenseMatrix(np.eye(4) + 0.1), np.array([0.2, -0.1, 0.5, 0.3]))
        return problem, reg, ExactMmse(prior, 0.5)

    def _reference(self, problem, reg, restorer, gamma, t, seed, batch):
        ens, scale = reg.ens, reg.tau / (reg.ens.sigma ** 2)
        sel_rng, noise_rng = solver_streams(seed)
        x = np.zeros(4)
        xs, op_index, step_sq, grad_hat_norm = [x], [], [], []
        for _ in range(t):
            if batch == 1:
                draws = [sample_degradation(ens, sel_rng)[0]]
            else:
                draws = sel_rng.choice(ens.size, size=batch, p=ens.weights)
            terms = []
            for j in draws:
                H = ens.members[int(j)]
                s = H.apply(x) + ens.sigma * noise_rng.standard_normal(H.out_dim)
                terms.append(scale * H.gram_apply(x - restorer.restore(s, H)))
            term = terms[0] if batch == 1 else np.mean(terms, axis=0)
            ghat = fidelity_grad(problem, x) + term
            x_new = x - gamma * ghat
            op_index.append(int(draws[0]))
            step_sq.append(float(np.dot(x_new - x, x_new - x)))
            grad_hat_norm.append(float(np.linalg.norm(ghat)))
            x = x_new
            xs.append(x)
        trace = Trace(np.array(op_index), np.array(step_sq), np.array(grad_hat_norm),
                      None, None, None, None, x)
        return np.array(xs), trace

    @pytest.mark.parametrize("batch", [1, 3])
    def test_matches_per_iteration_draws(self, batch):
        problem, reg, restorer = self._instance()
        gamma, t, seed = 0.1, 40, 17
        cfg = SolverConfig(gamma=gamma, tau=0.4, iterations=t, seed=seed, batch=batch,
                           x0="zeros", record_iterates=True)
        _, trace = run(problem, reg, restorer, cfg)
        xs, ref = self._reference(problem, reg, restorer, gamma, t, seed, batch)
        assert len(set(trace.op_index.tolist())) == 3
        assert np.array_equal(trace.iterates, xs)
        assert trace.csv_text() == ref.csv_text()


class TestDivergence:
    def test_large_step_raises_with_context(self):
        problem, reg, restorer = one_d_instance()
        L = fidelity_lipschitz(problem) + regularizer_curvature_bound(reg)[0]
        cfg = SolverConfig(gamma=10.0 / L * 10, tau=1.0, iterations=500, seed=3,
                           x0=np.array([1.0]))
        with pytest.raises(DivergenceError) as err:
            run(problem, reg, restorer, cfg)
        assert 0 < err.value.iteration <= 500
        assert np.all(np.isfinite(err.value.last_iterate))


class TestTraceCsv:
    def test_header_and_shape(self):
        problem, reg, restorer = one_d_instance()
        cfg = SolverConfig(gamma=0.2, tau=1.0, iterations=5, seed=0, x0="zeros")
        _, trace = run(problem, reg, restorer, cfg)
        text = trace.csv_text()
        lines = text.strip().split("\n")
        assert lines[0] == TRACE_HEADER
        assert len(lines) == 6
        # single-Gaussian prior: f and true-gradient columns are filled
        first = lines[1].split(",")
        assert first[0] == "1"
        assert first[4] != "" and first[5] != ""
        assert first[6] == ""  # no psnr callback

    def test_psnr_column(self):
        problem, reg, restorer = one_d_instance()
        cfg = SolverConfig(gamma=0.2, tau=1.0, iterations=3, seed=0, x0="zeros")
        _, trace = run(problem, reg, restorer, cfg, psnr_fn=lambda x: 42.0)
        assert all(line.endswith("42.0") for line in
                   trace.csv_text().strip().split("\n")[1:])


class TestAudit:
    def test_smoke_pass_on_closed_form_instance(self):
        problem, reg, restorer = one_d_instance()
        L = fidelity_lipschitz(problem) + regularizer_curvature_bound(reg)[0]
        runs = []
        for seed in range(10):
            cfg = SolverConfig(gamma=1.0 / L, tau=1.0, iterations=200, seed=seed,
                               x0="zeros", record_iterates=True)
            _, trace = run(problem, reg, restorer, cfg)
            runs.append((problem, reg, restorer, cfg, trace))
        report = audit_convergence(runs)
        assert report.passed
        assert report.epsilon_hat == 0.0
        np.testing.assert_allclose(report.L_hat, 1.5, atol=1e-9)

    def test_transient_term_halves_when_iterations_double(self):
        problem, reg, restorer = one_d_instance()
        reports = []
        for t in (100, 200):
            runs = []
            for seed in range(4):
                cfg = SolverConfig(gamma=0.3, tau=1.0, iterations=t, seed=seed,
                                   x0=np.array([2.0]), record_iterates=True)
                _, trace = run(problem, reg, restorer, cfg)
                runs.append((problem, reg, restorer, cfg, trace))
            reports.append(audit_convergence(runs))
        np.testing.assert_allclose(
            reports[0].term_transient, 2.0 * reports[1].term_transient, rtol=1e-12
        )

    def test_offset_bias_enters_exactly(self):
        problem, reg, _ = one_d_instance()
        restorer = Biased(ExactMmse(reg.prior, 1.0), ConstantOffset([0.1]))
        runs = []
        for seed in range(5):
            cfg = SolverConfig(gamma=0.3, tau=1.0, iterations=100, seed=seed,
                               x0="zeros", record_iterates=True)
            _, trace = run(problem, reg, restorer, cfg)
            runs.append((problem, reg, restorer, cfg, trace))
        report = audit_convergence(runs)
        np.testing.assert_allclose(report.epsilon_hat, 0.1, atol=1e-12)
        np.testing.assert_allclose(report.term_bias, 0.01, atol=1e-12)

    def test_gain_wrapper_caveat_propagates(self):
        # the probe-domain disclaimer from bias measurement must surface
        problem, reg, _ = one_d_instance()
        restorer = Biased(ExactMmse(reg.prior, 1.0), ConstantOffset([0.05]))
        runs = []
        for seed in range(3):
            cfg = SolverConfig(gamma=0.2, tau=1.0, iterations=50, seed=seed,
                               x0="zeros", record_iterates=True)
            _, trace = run(problem, reg, restorer, cfg)
            runs.append((problem, reg, restorer, cfg, trace))
        report = audit_convergence(runs)
        assert any("not a global bound" in note for note in report.notes)
        assert "epsilon_hat" in report.to_text()
        assert report.to_json_dict()["terms"]["bias"] == report.term_bias

    def test_refuses_without_probes_or_iterates(self):
        problem, reg, restorer = one_d_instance()
        cfg = SolverConfig(gamma=0.3, tau=1.0, iterations=20, seed=0, x0="zeros")
        _, trace = run(problem, reg, restorer, cfg)
        with pytest.raises(AuditError):
            audit_convergence([(problem, reg, restorer, cfg, trace)])

    def test_mixed_configs_rejected(self):
        problem, reg, restorer = one_d_instance()
        runs = []
        for gamma in (0.1, 0.2):
            cfg = SolverConfig(gamma=gamma, tau=1.0, iterations=20, seed=0,
                               x0="zeros", record_iterates=True)
            _, trace = run(problem, reg, restorer, cfg)
            runs.append((problem, reg, restorer, cfg, trace))
        with pytest.raises(AuditError):
            audit_convergence(runs)

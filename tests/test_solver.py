import io

import numpy as np
import pytest

import srp.solver
from srp.objective import (
    Problem,
    Regularizer,
    SingleGaussianForms,
    exact_audit_terms,
    fidelity,
    fidelity_lipschitz,
    regularizer_curvature_bound,
    regularizer_step,
)
from srp.operators import (
    CircularConvolution,
    Composition,
    ConvexCombination,
    CoordinateMask,
    DegradationEnsemble,
    DenseMatrix,
    FoldDownsample,
    Identity,
    Scale,
)
from srp.priors import GmmPrior, StackedPosterior
from srp.restoration import Biased, ConstantOffset, ExactMmse, Gain, Smoothing
from srp.solver import (
    AuditError,
    AuditProbes,
    DivergenceError,
    SolverConfig,
    TRACE_HEADER,
    Trace,
    _DIAG_CHUNK,
    _selection_stream,
    audit_convergence,
    run,
    solver_streams,
)

from references import fidelity_grad, sample_degradation


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
        cfg = SolverConfig(gamma=1.0, iterations=1, seed=0, x0="zeros")
        x, trace = run(problem, reg, ExactMmse(prior, 1.0), cfg)
        np.testing.assert_allclose(x, [0.7, -0.3], atol=1e-290)
        assert len(trace) == 1

    def test_zero_step_size_freezes(self):
        problem, reg, restorer = one_d_instance()
        x0 = np.array([1.5])
        cfg = SolverConfig(gamma=0.0, iterations=10, seed=1, x0=x0)
        x, trace = run(problem, reg, restorer, cfg)
        np.testing.assert_array_equal(x, x0)
        np.testing.assert_array_equal(trace.step_sq, np.zeros(10))

    def test_mean_contraction_rate(self):
        # E[x^k] = (1 - 1.5 gamma)^k x0 for the 1-D closed-form instance
        problem, reg, restorer = one_d_instance()
        gamma, t, x0 = 0.1, 20, 8.0
        finals = []
        for seed in range(200):
            cfg = SolverConfig(gamma=gamma, iterations=t, seed=seed,
                               x0=np.array([x0]))
            x, _ = run(problem, reg, restorer, cfg)
            finals.append(x[0])
        expected = (1 - 1.5 * gamma) ** t * x0
        assert abs(np.mean(finals) - expected) < 0.1 * expected

    def test_determinism(self):
        problem, reg, restorer = one_d_instance()
        cfg = SolverConfig(gamma=0.3, iterations=50, seed=42, x0="zeros")
        x1, t1 = run(problem, reg, restorer, cfg)
        x2, t2 = run(problem, reg, restorer, cfg)
        assert np.array_equal(x1, x2)
        assert t1.csv_text() == t2.csv_text()

    def test_sigma_mismatch_rejected(self):
        problem, reg, _ = one_d_instance()
        wrong = ExactMmse(reg.prior, 0.5)
        cfg = SolverConfig(gamma=0.1, iterations=5, seed=0, x0="zeros")
        with pytest.raises(ValueError, match="sigma"):
            run(problem, reg, wrong, cfg)

    def test_adjoint_init(self):
        problem, reg, restorer = one_d_instance()
        cfg = SolverConfig(gamma=0.0, iterations=1, seed=0, x0="adjoint")
        x, _ = run(problem, reg, restorer, cfg)
        np.testing.assert_array_equal(x, problem.A.adjoint_apply(problem.y))


class TestSelection:
    @staticmethod
    def op_index(ens, iterations, seed=0, **selection):
        prior = normal_prior()
        reg = Regularizer(tau=1.0, prior=prior, ens=ens)
        problem = Problem(Identity(1), np.zeros(1))
        cfg = SolverConfig(gamma=0.1, iterations=iterations, seed=seed,
                           x0="zeros", **selection)
        return run(problem, reg, ExactMmse(prior, 1.0), cfg)[1].op_index.tolist()

    def test_cyclic(self):
        ens = DegradationEnsemble([Identity(1)] * 3, sigma=1.0)
        assert self.op_index(ens, 4, selection="cyclic") == [0, 1, 2, 0]

    def test_fixed(self):
        ens = DegradationEnsemble([Identity(1)] * 3, sigma=1.0)
        assert self.op_index(ens, 10, selection="fixed", fixed_index=2) == [2] * 10

    def test_iid_matches_sample_degradation(self):
        ens = DegradationEnsemble([Identity(1)] * 4, sigma=1.0,
                                  weights=[0.1, 0.2, 0.3, 0.4])
        sel_rng, _ = solver_streams(5)
        expected = [sample_degradation(ens, sel_rng)[0] for _ in range(20)]
        assert self.op_index(ens, 20, seed=5) == expected


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
        cfg = SolverConfig(gamma=gamma, iterations=t, seed=seed, x0="zeros")
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
        kw = dict(gamma=0.07, iterations=80, seed=9, x0="zeros")
        x_iid, t_iid = run(problem, reg, restorer,
                           SolverConfig(selection="iid-by-weights", **kw))
        x_fix, t_fix = run(problem, reg, restorer,
                           SolverConfig(selection="fixed", fixed_index=0, **kw))
        assert np.array_equal(x_iid, x_fix)
        assert t_iid.csv_text() == t_fix.csv_text()


class TestBatch:
    def test_batching_reduces_spread(self):
        problem, reg, restorer = one_d_instance()
        finals = {}
        for batch in (1, 16):
            cfgs = [SolverConfig(gamma=0.2, iterations=80, seed=seed,
                                 x0="zeros", batch=batch) for seed in range(50)]
            traces = run([problem] * 50, reg, restorer, cfgs)
            finals[batch] = [t.x_final[0] for t in traces]
        ratio = np.var(finals[1]) / np.var(finals[16])
        assert ratio > 2.0

    def test_batch_requires_iid(self):
        with pytest.raises(ValueError):
            SolverConfig(gamma=0.1, iterations=5, batch=4,
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
        cfg = SolverConfig(gamma=gamma, iterations=t, seed=seed, batch=batch,
                           x0="zeros", record_iterates=True)
        _, trace = run(problem, reg, restorer, cfg)
        xs, ref = self._reference(problem, reg, restorer, gamma, t, seed, batch)
        assert len(set(trace.op_index.tolist())) == 3
        assert np.array_equal(trace.iterates, xs)
        assert trace.csv_text() == ref.csv_text()


def lambda_reference_run(problem, reg, restorer, cfg, psnr_fn=None):
    """The solver loop with the fidelity recomputed from x at every use:
    ``fidelity_grad`` for ghat, and f / true-gradient closures over the
    closed forms (none for a mixture prior)."""
    forms = SingleGaussianForms(reg) if reg.prior.n_components == 1 else None
    f_fn = forms and (lambda x: fidelity(problem, x) + forms.value(x))
    grad_fn = forms and (lambda x: fidelity_grad(problem, x) + forms.grad(x))
    sel_rng, noise_rng = solver_streams(cfg.seed)
    t, ens = cfg.iterations, reg.ens
    draws = sel_rng.choice(ens.size, size=(t, cfg.batch), p=ens.weights)
    x = (np.zeros(problem.A.in_dim) if cfg.x0 == "zeros"
         else problem.A.adjoint_apply(problem.y))
    cols = {"grad_true_norm": [], "f_value": [], "psnr": []}
    op_index, step_sq, grad_hat_norm = [], [], []
    f_initial = float(f_fn(x)) if f_fn else None
    for k in range(t):
        if grad_fn:
            cols["grad_true_norm"].append(np.linalg.norm(grad_fn(x)))
        ghat = fidelity_grad(problem, x) + regularizer_step(
            reg, restorer, x[None], draws[k:k + 1], [noise_rng])[0]
        x_new = x - cfg.gamma * ghat
        op_index.append(draws[k, 0])
        step_sq.append(float(np.dot(x_new - x, x_new - x)))
        grad_hat_norm.append(float(np.linalg.norm(ghat)))
        if f_fn:
            cols["f_value"].append(float(f_fn(x_new)))
        if psnr_fn:
            cols["psnr"].append(float(psnr_fn(x_new)))
        x = x_new
    return Trace(np.array(op_index), np.array(step_sq), np.array(grad_hat_norm),
                 *(np.array(cols[c]) if cols[c] else None
                   for c in ("grad_true_norm", "f_value", "psnr")),
                 f_initial, x)


@pytest.fixture
def each_iteration(monkeypatch):
    """Install ``probe``, called once per solver iteration just before its
    regularizer step; returns the list its results are appended to. The
    regularizer step runs exactly once per iteration, unlike the trace's
    diagnostics, which are evaluated once per chunk."""
    def install(probe):
        seen, step = [], srp.solver.regularizer_step
        monkeypatch.setattr(srp.solver, "regularizer_step",
                            lambda *args: seen.append(probe()) or step(*args))
        return seen
    return install


class TestResidualCarry:
    """run() carries r = A x - y: the same bits as recomputing the fidelity
    from x at every use, with one A.apply and one A.adjoint_apply per iterate."""

    @staticmethod
    def instance(components):
        means = [[0.5, -0.3, 0.2, 0.1], [-0.6, 0.4, 0.0, 0.9]][:components]
        prior = GmmPrior(np.full(components, 1.0 / components), means,
                         [np.asarray(0.8), np.asarray(1.3)][:components])
        ens = DegradationEnsemble([Identity(4), CoordinateMask(4, [0, 1]),
                                   CoordinateMask(4, [2, 3])], sigma=0.7)
        reg = Regularizer(tau=0.8, prior=prior, ens=ens)
        A = DenseMatrix([[1.0, 0.2, 0.0, 0.0], [0.0, 0.9, 0.0, 0.0],
                         [0.0, 0.0, 0.7, 0.1], [0.0, 0.0, 0.0, 0.5]])
        problem = Problem(A, np.array([0.3, -0.2, 0.6, 0.1]))
        return problem, reg, ExactMmse(prior, 0.7)

    @pytest.mark.parametrize("components,batch,x0", [
        (1, 1, "zeros"), (1, 3, "adjoint"), (2, 1, "adjoint"), (2, 2, "zeros")])
    def test_matches_lambda_reference(self, components, batch, x0):
        problem, reg, restorer = self.instance(components)
        cfg = SolverConfig(gamma=0.3, iterations=60, seed=5, batch=batch, x0=x0)
        psnr_fn = lambda x: float(np.sum(x))
        x, trace = run(problem, reg, restorer, cfg, psnr_fn=psnr_fn)
        ref = lambda_reference_run(problem, reg, restorer, cfg, psnr_fn=psnr_fn)
        np.testing.assert_array_equal(x, ref.x_final)
        for column in ("op_index", "step_sq", "grad_hat_norm", "grad_true_norm",
                       "f_value", "psnr"):
            got, want = getattr(trace, column), getattr(ref, column)
            assert (got is None) == (want is None) == (
                components == 2 and column in ("grad_true_norm", "f_value"))
            if want is not None:
                np.testing.assert_array_equal(got, want)
        assert trace.f_initial == ref.f_initial
        assert trace.csv_text() == ref.csv_text()

    @pytest.mark.parametrize("components", [1, 2])
    def test_one_apply_and_one_adjoint_per_iterate(self, components, each_iteration):
        problem, reg, restorer = self.instance(components)
        # the loop calls the operator cores, so the cores are counted
        A, calls = problem.A, {"_apply": 0, "_adjoint": 0}
        for name in calls:
            def counted(v, name=name, method=getattr(A, name)):
                calls[name] += 1
                return method(v)
            setattr(A, name, counted)
        seen = each_iteration(lambda: (calls["_apply"], calls["_adjoint"]))
        cfg = SolverConfig(gamma=0.3, iterations=25, seed=6, x0="zeros")
        run(problem, reg, restorer, cfg, psnr_fn=lambda x: 0.0)
        # the start point's residual, then one of each per iterate
        assert seen == [(k + 1, k + 1) for k in range(25)]
        assert (calls["_apply"], calls["_adjoint"]) == (26, 25)


class TestDivergence:
    def test_large_step_raises_with_context(self):
        problem, reg, restorer = one_d_instance()
        L = fidelity_lipschitz(problem) + regularizer_curvature_bound(reg)[0]
        cfg = SolverConfig(gamma=10.0 / L * 10, iterations=500, seed=3,
                           x0=np.array([1.0]))
        with pytest.raises(DivergenceError) as err:
            run(problem, reg, restorer, cfg)
        assert 0 < err.value.iteration <= 500
        assert np.all(np.isfinite(err.value.last_iterate))


def vector_step(reg, restorer, x, members, rng):
    """The regularizer step on a plain vector: one noise vector per member
    index, in draw order, each draw restored on its own. A single draw is
    its term plus 0.0; a batch keeps the (b, n) buffer and divides its sum
    by b. The reference each row of the block step is checked against."""
    ens = reg.ens
    scale = reg.tau / (ens.sigma * ens.sigma)

    def term(j):
        H = ens.members[j]
        s = H.apply(x) + ens.sigma * rng.standard_normal(H.out_dim)
        return scale * H.gram_apply(x - restorer.restore(s, H))

    if len(members) == 1:
        return term(members[0]) + 0.0
    return np.sum([term(j) for j in members], axis=0) / len(members)


def vector_loop(problem, reg, restorer, cfg, psnr_fn=None):
    """The one-seed solver loop on plain vectors, as it ran before seeds
    advanced in lockstep: one errstate per iteration, np.linalg.norm, and
    the closed forms as vector-matrix products. Returns (x, Trace), or the
    DivergenceError it raised."""
    forms = reg.gaussian_forms if reg.prior.n_components == 1 else None
    value = forms and (lambda x: 0.5 * float((x - forms.mu) @ forms.curvature
                                             @ (x - forms.mu)) + forms.constant)
    grad = forms and (lambda x: forms.curvature @ (x - forms.mu))
    A, y, t = problem.A, problem.y, cfg.iterations
    sel_rng, noise_rng = solver_streams(cfg.seed)
    if isinstance(cfg.x0, str):
        x = np.zeros(A.in_dim) if cfg.x0 == "zeros" else A.adjoint_apply(y)
    else:
        x = np.array(cfg.x0, dtype=float)
    cols = {c: np.zeros(t) for c in ("step_sq", "grad_hat_norm", "grad_true_norm",
                                     "f_value", "psnr")}
    iterates = [x]
    with np.errstate(over="ignore", invalid="ignore"):
        r = A.apply(x) - y
    f_initial = value and 0.5 * float(np.dot(r, r)) + value(x)
    draws = _selection_stream(cfg, reg.ens, sel_rng)
    for k in range(t):
        with np.errstate(over="ignore", invalid="ignore"):
            fg = A.adjoint_apply(r)
            if forms:
                cols["grad_true_norm"][k] = np.linalg.norm(fg + grad(x))
            ghat = fg + vector_step(reg, restorer, x, draws[k], noise_rng)
            x_new = x - cfg.gamma * ghat
            if not np.all(np.isfinite(x_new)):
                return DivergenceError(k + 1, x)
            diff = x_new - x
            cols["step_sq"][k] = float(np.dot(diff, diff))
            cols["grad_hat_norm"][k] = float(np.linalg.norm(ghat))
            r = A.apply(x_new) - y
            if forms:
                cols["f_value"][k] = 0.5 * float(np.dot(r, r)) + value(x_new)
            if psnr_fn:
                cols["psnr"][k] = float(psnr_fn(x_new))
        x = x_new
        iterates.append(x)
    return x, Trace(draws[:, 0], cols["step_sq"], cols["grad_hat_norm"],
                    cols["grad_true_norm"] if forms else None,
                    cols["f_value"] if forms else None,
                    cols["psnr"] if psnr_fn else None, f_initial, x, np.array(iterates))


def lockstep_instance(name):
    """(problem, regularizer, restorer) on 4-vectors: "masks" has a diagonal
    A, one Gaussian and mask members, so every operation runs row by row;
    "mixed-widths" adds members of out_dim 2 and 4; "dense" is the 4-D audit
    instance with a dense A; "mixture" has two prior components; "diagonal"
    and "full" have one Gaussian of diagonal and of full covariance, and
    "diagonal-mixture" two components of diagonal covariance."""
    A = Identity(4)
    members = [Identity(4), CoordinateMask(4, [0, 1]), CoordinateMask(4, [2, 3])]
    prior = normal_prior(4, mean=[0.5, -0.3, 0.2, 0.1], var=0.8)
    if name == "mixed-widths":
        members = [Identity(4), FoldDownsample(4, 2), Scale(4, 0.5)]
    if name == "dense":
        A = DenseMatrix([[1.0, 0.2, 0.0, 0.0], [0.0, 0.9, 0.0, 0.0],
                         [0.0, 0.0, 0.7, 0.1], [0.0, 0.0, 0.0, 0.5]])
    if name == "mixture":
        prior = GmmPrior([0.3, 0.7], [[0.5, 0.0, -0.2, 0.1], [-1.0, 0.3, 0.8, 0.0]],
                         [np.asarray(0.7), np.asarray(1.2)])
    if name == "diagonal":
        prior = GmmPrior([1.0], [[0.5, -0.3, 0.2, 0.1]], [np.array([0.8, 0.5, 1.1, 0.9])])
    if name == "full":
        a = np.array([[1.0, 0.3, 0.0, -0.2], [0.0, 0.8, 0.4, 0.0],
                      [0.1, 0.0, 0.9, 0.3], [0.0, -0.2, 0.0, 0.7]])
        prior = GmmPrior([1.0], [[0.5, -0.3, 0.2, 0.1]], [a @ a.T + 0.2 * np.eye(4)])
    if name == "diagonal-mixture":
        prior = GmmPrior([0.3, 0.7], [[0.5, 0.0, -0.2, 0.1], [-1.0, 0.3, 0.8, 0.0]],
                         [np.array([0.7, 0.4, 1.0, 0.6]), np.array([1.2, 0.9, 0.5, 1.4])])
    ens = DegradationEnsemble(members, sigma=0.7, weights=[0.5, 0.3, 0.2])
    reg = Regularizer(tau=0.8, prior=prior, ens=ens)
    problem = Problem(A, np.array([0.3, -0.2, 0.6, 0.1]))
    return problem, reg, Biased(ExactMmse(prior, 0.7), ConstantOffset([0.02]))


# Largest absolute gap between a lockstep row and its solo run where the
# block turns row-wise products into matrix-matrix ones (a dense A, a
# mixture's responsibility-weighted means on the grouped path): 64 ulps of
# the unit iterates.
LOCKSTEP_ATOL = 64 * np.finfo(float).eps

TRACE_COLUMNS = ("step_sq", "grad_hat_norm", "grad_true_norm", "f_value", "psnr")


class TestLockstep:
    """S seeds advance as one (S, n) block: one seed is the vector loop bit
    for bit; each row of a block is its solo run, bit for bit where every
    operation runs row by row and within LOCKSTEP_ATOL elsewhere."""

    @staticmethod
    def block(problem, reg, restorer, cfgs, psnr=True):
        # each row's x[0] - seed: the solo runs' ``psnr_fn`` below, row by row
        seeds = np.array([c.seed for c in cfgs])
        score = lambda x, ids: np.reshape(x, (-1, x.shape[-1]))[:, 0] - seeds[ids]
        return run([problem] * len(cfgs), reg, restorer, cfgs,
                   psnr_fn=score if psnr else None)

    @pytest.mark.parametrize("name", ["masks", "mixture", "dense", "diagonal", "full",
                                      "diagonal-mixture"])
    @pytest.mark.parametrize("selection,batch", [
        ("iid-by-weights", 1), ("iid-by-weights", 3), ("iid-by-weights", 5),
        ("cyclic", 1), ("fixed", 1)])
    def test_one_seed_is_the_vector_loop(self, name, selection, batch):
        problem, reg, restorer = lockstep_instance(name)
        cfg = SolverConfig(gamma=0.3, iterations=40, seed=4, selection=selection,
                           fixed_index=1, batch=batch, x0="adjoint", record_iterates=True)
        psnr_fn = lambda x: float(x[0] - x[1])
        x, trace = run(problem, reg, restorer, cfg, psnr_fn=psnr_fn)
        x_ref, ref = vector_loop(problem, reg, restorer, cfg, psnr_fn)
        assert np.array_equal(x, x_ref)
        assert np.array_equal(trace.iterates, ref.iterates)
        assert trace.f_initial == ref.f_initial
        assert trace.csv_text() == ref.csv_text()

    @pytest.mark.parametrize("name,exact", [
        ("masks", True), ("mixed-widths", True), ("dense", False), ("mixture", True),
        ("diagonal", True), ("full", False), ("diagonal-mixture", True)])
    @pytest.mark.parametrize("batch", [1, 3])
    def test_rows_are_their_solo_runs(self, name, exact, batch):
        problem, reg, restorer = lockstep_instance(name)
        starts = ["zeros", "adjoint", np.array([1.0, -2.0, 0.5, 3.0])]
        cfgs = [SolverConfig(gamma=0.3, iterations=60, seed=seed, batch=batch, x0=x0,
                             record_iterates=True) for seed, x0 in zip((3, 8, 5), starts)]
        traces = self.block(problem, reg, restorer, cfgs)
        for cfg, trace in zip(cfgs, traces):
            psnr_fn = lambda x, c=cfg: float(x[0] - c.seed)
            x_solo, solo = run(problem, reg, restorer, cfg, psnr_fn=psnr_fn)
            assert np.array_equal(trace.op_index, solo.op_index)
            if exact:
                assert np.array_equal(trace.iterates, solo.iterates)
                assert trace.csv_text() == solo.csv_text()
                continue
            np.testing.assert_allclose(trace.iterates, solo.iterates, rtol=0,
                                       atol=LOCKSTEP_ATOL)
            for column in TRACE_COLUMNS:
                got, want = getattr(trace, column), getattr(solo, column)
                assert (got is None) == (want is None)
                if want is not None:
                    np.testing.assert_allclose(got, want, rtol=LOCKSTEP_ATOL, atol=LOCKSTEP_ATOL)

    def test_reruns_are_byte_identical(self):
        problem, reg, restorer = lockstep_instance("mixture")
        cfgs = [SolverConfig(gamma=0.3, iterations=50, seed=s, batch=2, x0="zeros",
                             record_iterates=True) for s in (1, 2, 3)]
        first = self.block(problem, reg, restorer, cfgs)
        again = self.block(problem, reg, restorer, cfgs)
        for a, b in zip(first, again):
            assert a.csv_text() == b.csv_text()
            assert np.array_equal(a.iterates, b.iterates)

    @pytest.mark.parametrize("batch", [1, 2])
    def test_out_draws_are_per_call_draws(self, batch):
        # members of out_dim 256 and 512, as on superres: each seed's rows of
        # the block step are its own vector steps, and every generator ends
        # in the state the vector steps leave it in
        n = 512
        ens = DegradationEnsemble([FoldDownsample(n, 2), Identity(n)], sigma=0.3)
        prior = normal_prior(n, var=0.5)
        reg = Regularizer(tau=0.6, prior=prior, ens=ens)
        restorer = ExactMmse(prior, 0.3)
        x = np.random.default_rng(0).standard_normal((3, n))
        members = np.array([[0, 1], [1, 1], [1, 0]])[:, :batch]
        block_rngs = [np.random.default_rng(s) for s in (4, 5, 6)]
        got = regularizer_step(reg, restorer, x, members, block_rngs)
        for row, x_row, draws, seed, rng in zip(got, x, members, (4, 5, 6), block_rngs):
            solo_rng = np.random.default_rng(seed)
            want = vector_step(reg, restorer, x_row, draws, solo_rng)
            assert np.array_equal(row, want)
            assert rng.standard_normal() == solo_rng.standard_normal()

    def test_a_diverging_seed_leaves_the_block(self):
        problem, reg, restorer = lockstep_instance("masks")
        # an unstable step: the seed that starts near overflow leaves first
        starts = ["zeros", np.full(4, 1e300), "adjoint"]
        cfgs = [SolverConfig(gamma=3.0, iterations=30, seed=s, x0=x0, record_iterates=True)
                for s, x0 in zip((1, 2, 3), starts)]
        outcomes = self.block(problem, reg, restorer, cfgs)
        assert isinstance(outcomes[1], DivergenceError)
        with pytest.raises(DivergenceError) as solo:
            run(problem, reg, restorer, cfgs[1])
        assert 1 < outcomes[1].iteration == solo.value.iteration < 30
        assert np.array_equal(outcomes[1].last_iterate, solo.value.last_iterate)
        for i in (0, 2):
            psnr_fn = lambda x, c=cfgs[i]: float(x[0] - c.seed)
            _, trace = run(problem, reg, restorer, cfgs[i], psnr_fn=psnr_fn)
            assert outcomes[i].csv_text() == trace.csv_text()
            assert np.array_equal(outcomes[i].iterates, trace.iterates)

    def test_every_seed_diverging_ends_the_block(self):
        problem, reg, restorer = lockstep_instance("masks")
        cfgs = [SolverConfig(gamma=3.0, iterations=300, seed=s, x0=np.full(4, start))
                for s, start in ((1, 1e300), (2, 1e250))]
        outcomes = self.block(problem, reg, restorer, cfgs)
        for cfg, out in zip(cfgs, outcomes):
            with pytest.raises(DivergenceError) as solo:
                run(problem, reg, restorer, cfg)
            assert out.iteration == solo.value.iteration
            assert np.array_equal(out.last_iterate, solo.value.last_iterate)
        assert outcomes[0].iteration < outcomes[1].iteration

    @staticmethod
    def count_restores(name, seeds, batch, monkeypatch, each_iteration):
        """(restores per iteration, rows of each restore, configs) of a
        40-iteration block of ``seeds`` seeds on ``lockstep_instance(name)``."""
        problem, reg, restorer = lockstep_instance(name)
        calls = []
        restore = ExactMmse.restore
        monkeypatch.setattr(ExactMmse, "restore",
                            lambda self, s, H: calls.append(len(s)) or restore(self, s, H))
        cfgs = [SolverConfig(gamma=0.3, iterations=40, seed=s, batch=batch, x0="zeros")
                for s in range(seeds)]
        starts = each_iteration(lambda: len(calls))  # restores before each iteration
        score = lambda x, ids: np.zeros(len(ids))
        run([problem] * seeds, reg, restorer, cfgs, psnr_fn=score)
        return np.diff(starts + [len(calls)]), calls, reg, cfgs

    @pytest.mark.parametrize("seeds", [2, 5])
    @pytest.mark.parametrize("batch", [1, 2])
    def test_a_diagonal_ensemble_restores_once_per_iteration(self, seeds, batch,
                                                             monkeypatch, each_iteration):
        # identity and mask members under one Gaussian: every iteration
        # restores all S * b draws in one call
        per_iteration, calls, _, _ = self.count_restores("dense", seeds, batch,
                                                         monkeypatch, each_iteration)
        assert per_iteration.tolist() == [1] * 40
        assert calls == [seeds * batch] * 40

    @pytest.mark.parametrize("seeds", [2, 5])
    @pytest.mark.parametrize("batch", [1, 2])
    def test_one_restore_per_distinct_member(self, seeds, batch, monkeypatch,
                                             each_iteration):
        # a fold member is not diagonal: each iteration restores once per
        # (batch slot, member) drawn, so at most batch * min(S, J) times
        per_iteration, calls, reg, cfgs = self.count_restores(
            "mixed-widths", seeds, batch, monkeypatch, each_iteration)
        draws = np.stack([_selection_stream(c, reg.ens, solver_streams(c.seed)[0])
                          for c in cfgs], axis=1)  # (iterations, S, batch)
        drawn = [len({(slot, j) for row in step for slot, j in enumerate(row)})
                 for step in draws.tolist()]
        assert per_iteration.tolist() == drawn
        assert max(per_iteration) <= batch * min(seeds, reg.ens.size)
        if batch > 1:  # more than one restore per member: grouped by slot too
            assert max(per_iteration) > min(seeds, reg.ens.size)
        assert sum(calls) == seeds * batch * 40

    def test_per_seed_psnr_callbacks_are_refused(self):
        problem, reg, restorer = lockstep_instance("masks")
        cfgs = [SolverConfig(gamma=0.1, iterations=5, seed=s) for s in (0, 1)]
        with pytest.raises(TypeError, match="one block scorer"):
            run([problem] * 2, reg, restorer, cfgs, psnr_fn=[lambda x: 0.0] * 2)

    def test_seeds_must_share_their_settings(self):
        problem, reg, restorer = lockstep_instance("masks")
        cfgs = [SolverConfig(gamma=g, iterations=5, seed=0) for g in (0.1, 0.2)]
        with pytest.raises(ValueError, match="share"):
            run([problem] * 2, reg, restorer, cfgs)
        other = Problem(DenseMatrix(np.eye(4)), problem.y)
        same = [SolverConfig(gamma=0.1, iterations=5, seed=s) for s in (0, 1)]
        with pytest.raises(ValueError, match="forward operator"):
            run([problem, other], reg, restorer, same)


class TestStackedRestore:
    """With diagonal members and an isotropic prior, each iteration restores
    every draw of the block in one call, each row with its own member's
    gathered diagonal, h_mu, denominators and log-determinants; each row is
    still the vector loop's and its solo run's, bit for bit."""

    MEANS = [[0.5, -0.3, 0.2, 0.1], [-1.0, 0.3, 0.8, 0.0]]
    PERTURBATIONS = {"offset": ConstantOffset([0.02, -0.01, 0.0, 0.03]), "gain": Gain(0.9),
                     "smoothing": Smoothing(2)}

    def instance(self, components, perturbation):
        members = [Identity(4), CoordinateMask(4, [0, 1]), Scale(4, 0.5),
                   ConvexCombination(0.3, CoordinateMask(4, [1, 2, 3]))]
        prior = GmmPrior([1.0] if components == 1 else [0.3, 0.7], self.MEANS[:components],
                         [np.asarray(0.7), np.asarray(1.2)][:components])
        ens = DegradationEnsemble(members, sigma=0.7, weights=[0.4, 0.3, 0.2, 0.1])
        reg = Regularizer(tau=0.8, prior=prior, ens=ens)
        problem = Problem(CoordinateMask(4, [0, 1, 3]), np.array([0.3, -0.2, 0.6, 0.1]))
        restorer = Biased(ExactMmse(prior, 0.7), self.PERTURBATIONS[perturbation])
        return problem, reg, restorer

    @staticmethod
    def cfgs(batch, iterations=40):
        starts = ["zeros", "adjoint", np.array([1.0, -2.0, 0.5, 3.0])]
        return [SolverConfig(gamma=0.3, iterations=iterations, seed=seed, batch=batch, x0=x0,
                             record_iterates=True) for seed, x0 in zip((3, 8, 5), starts)]

    @pytest.mark.parametrize("perturbation", ["offset", "gain", "smoothing"])
    @pytest.mark.parametrize("components", [1, 2])
    @pytest.mark.parametrize("batch", [1, 3])
    def test_rows_are_the_vector_loop_and_their_solo_runs(self, components, perturbation,
                                                         batch, monkeypatch):
        problem, reg, restorer = self.instance(components, perturbation)
        cfgs = self.cfgs(batch)
        refs = [vector_loop(problem, reg, restorer, c) for c in cfgs]
        rows = []
        restore = ExactMmse.restore
        monkeypatch.setattr(ExactMmse, "restore",
                            lambda self, s, H: rows.append(len(s)) or restore(self, s, H))
        block = run([problem] * 3, reg, restorer, cfgs)
        assert rows == [3 * batch] * 40  # the stacked path: one restore per iteration
        for cfg, out, (x_ref, ref) in zip(cfgs, block, refs):
            _, solo = run(problem, reg, restorer, cfg)
            for trace in (out, solo):
                assert np.array_equal(trace.x_final, x_ref)
                assert np.array_equal(trace.iterates, ref.iterates)
                assert trace.csv_text() == ref.csv_text()
        assert len(rows) == 40 + 3 * 40  # the solo runs restore once per iteration too

    def test_one_restorer_serves_two_ensembles(self):
        # each ensemble gets its own stack on the shared restorer, so runs
        # on either, in turn, keep the bits of runs on a fresh restorer
        problem, reg, restorer = self.instance(2, "offset")
        other = Regularizer(tau=0.8, prior=reg.prior, ens=DegradationEnsemble(
            [CoordinateMask(4, [2, 3]), Scale(4, 1.5), Identity(4)], sigma=0.7))
        cfgs = self.cfgs(2)
        for r in (reg, other, reg, other):
            fresh = Biased(ExactMmse(reg.prior, 0.7), restorer.perturbations[-1])
            refs = [vector_loop(problem, r, fresh, c) for c in cfgs]
            for out, (x_ref, ref) in zip(run([problem] * 3, r, restorer, cfgs), refs):
                assert np.array_equal(out.x_final, x_ref)
                assert out.csv_text() == ref.csv_text()
        stacks = restorer.exact._stacks
        assert list(stacks) == [reg.ens.members, other.ens.members]
        assert all(isinstance(v, StackedPosterior) for v in stacks.values())

    @pytest.mark.parametrize("name", ["mixed-widths", "diagonal", "diagonal-mixture"])
    def test_other_ensembles_keep_the_grouped_path(self, name, monkeypatch):
        # a fold member, or a prior of diagonal covariance: no stack is built
        # and each restore gets a real member
        problem, reg, restorer = lockstep_instance(name)
        seen = []
        restore = ExactMmse.restore
        monkeypatch.setattr(ExactMmse, "restore",
                            lambda self, s, H: seen.append(H) or restore(self, s, H))
        run([problem] * 3, reg, restorer, self.cfgs(2))
        assert set(seen) <= set(reg.ens.members)
        assert restorer.exact._stacks == {reg.ens.members: None}

    @pytest.mark.parametrize("iterations", [20, 60])
    @pytest.mark.parametrize("prior", ["isotropic", "diagonal"])
    def test_the_path_is_chosen_once_per_run(self, iterations, prior):
        if prior == "isotropic":
            problem, reg, restorer = self.instance(2, "gain")
        else:
            problem, reg, restorer = lockstep_instance("diagonal")
        for H in reg.ens.members:  # the members' posteriors read their own diagonals
            restorer.exact._posterior(H)
        calls = []
        for H in reg.ens.members:
            H._diagonal_entries = lambda d=H._diagonal_entries: calls.append(1) or d()
        cfgs = self.cfgs(1, iterations)
        run([problem] * 3, reg, restorer, cfgs)
        # the first run reads each member once; a prior of diagonal
        # covariance rules the path out before the members are read
        assert len(calls) == (reg.ens.size if prior == "isotropic" else 0)
        run([problem] * 3, reg, restorer, cfgs)
        run(problem, reg, restorer, cfgs[0])
        # later runs on the same restorer and members reuse the decision
        assert len(calls) == (reg.ens.size if prior == "isotropic" else 0)


class TestOperatorCores:
    """The loop checks its inputs at entry and then calls the operator
    cores: once the set-up caches are filled, no iteration enters the
    public ``apply`` / ``adjoint_apply`` / ``gram_apply`` of A or of any
    member, and the rows are still the vector loop's."""

    @staticmethod
    def blur_fold_mixture():
        # an A and a member that blur and fold 8 samples to 4, a mask and an
        # identity member, and two isotropic prior components
        blur_fold = lambda taps: Composition([CircularConvolution(8, taps),
                                              FoldDownsample(8, 2)])
        members = [blur_fold([0.5, 0.3, 0.2]), CoordinateMask(8, [0, 2, 3, 5, 7]),
                   Identity(8)]
        prior = GmmPrior([0.4, 0.6], [np.linspace(-0.5, 0.5, 8), np.full(8, 0.3)],
                         [np.asarray(0.6), np.asarray(1.1)])
        ens = DegradationEnsemble(members, sigma=0.5, weights=[0.5, 0.3, 0.2])
        reg = Regularizer(tau=0.8, prior=prior, ens=ens)
        problem = Problem(blur_fold([0.6, 0.4]), np.array([0.3, -0.2, 0.6, 0.1]))
        return problem, reg, ExactMmse(prior, 0.5)

    @pytest.mark.parametrize("name,exact", [
        ("masks", True), ("dense", False), ("blur-fold-mixture", False)])
    def test_iterations_enter_no_public_product(self, name, exact):
        problem, reg, restorer = (self.blur_fold_mixture() if name == "blur-fold-mixture"
                                  else lockstep_instance(name))
        n = problem.A.in_dim
        starts = [np.zeros(n), np.linspace(1.0, -1.0, n), np.full(n, 0.5)]
        cfgs = [SolverConfig(gamma=0.3, iterations=40, seed=seed, batch=2, x0=x0)
                for seed, x0 in zip((3, 8, 5), starts)]
        # the references run through the public methods first, which also
        # fills the set-up caches (posteriors, closed forms) the run reads
        refs = [vector_loop(problem, reg, restorer, c) for c in cfgs]

        def refuse(op, method):
            def public(*args):
                raise AssertionError(f"solver.run entered {op.kind}.{method}")
            return public

        for op in (problem.A, *reg.ens.members):
            for method in ("apply", "adjoint_apply", "gram_apply"):
                setattr(op, method, refuse(op, method))
        x, trace = run(problem, reg, restorer, cfgs[0])
        assert np.array_equal(x, refs[0][0])
        assert trace.csv_text() == refs[0][1].csv_text()
        block = run([problem] * 3, reg, restorer, cfgs)
        for out, (x_ref, ref) in zip(block, refs):
            assert isinstance(out, Trace)
            assert np.array_equal(out.op_index, ref.op_index)
            if exact:
                assert np.array_equal(out.x_final, x_ref)
                assert out.csv_text() == ref.csv_text()
            else:
                np.testing.assert_allclose(out.x_final, x_ref, rtol=0, atol=LOCKSTEP_ATOL)


class TestChunkedDiagnostics:
    """The norm, f and PSNR columns are evaluated once per chunk of
    _DIAG_CHUNK iterations; every entry keeps its per-iteration bits."""

    @pytest.mark.parametrize("name", ["masks", "mixture"])
    @pytest.mark.parametrize("t", [1, 15, 16, 17, 33])
    def test_one_seed_is_the_vector_loop(self, name, t):
        problem, reg, restorer = lockstep_instance(name)
        cfg = SolverConfig(gamma=0.3, iterations=t, seed=7, batch=2, x0="adjoint",
                           record_iterates=True)
        psnr_fn = lambda x: float(x[0] - 2.0 * x[3])
        x, trace = run(problem, reg, restorer, cfg, psnr_fn=psnr_fn)
        x_ref, ref = vector_loop(problem, reg, restorer, cfg, psnr_fn)
        assert (trace.f_value is None) == (name == "mixture")
        assert np.array_equal(x, x_ref)
        assert np.array_equal(trace.iterates, ref.iterates)
        assert trace.f_initial == ref.f_initial
        assert trace.csv_text() == ref.csv_text()

    @pytest.mark.parametrize("t", [1, 15, 16, 17, 33])
    def test_block_rows_are_the_vector_loop(self, t):
        problem, reg, restorer = lockstep_instance("masks")
        cfgs = [SolverConfig(gamma=0.3, iterations=t, seed=s, x0=x0)
                for s, x0 in ((3, "zeros"), (8, "adjoint"), (5, np.array([1.0, -2.0, 0.5, 3.0])))]
        traces = TestLockstep.block(problem, reg, restorer, cfgs)
        for cfg, trace in zip(cfgs, traces):
            _, ref = vector_loop(problem, reg, restorer, cfg,
                                 lambda x, c=cfg: float(x[0] - c.seed))
            assert trace.csv_text() == ref.csv_text()

    def test_a_seed_diverging_mid_chunk_leaves_the_survivors_exact(self):
        problem, reg, restorer = lockstep_instance("masks")
        starts = ["zeros", np.full(4, 1e300), "adjoint"]
        cfgs = [SolverConfig(gamma=2.5, iterations=40, seed=s, x0=x0, record_iterates=True)
                for s, x0 in zip((1, 2, 3), starts)]
        outcomes = TestLockstep.block(problem, reg, restorer, cfgs)
        # it leaves after 3 of the second chunk's 16 iterations
        assert isinstance(outcomes[1], DivergenceError)
        assert outcomes[1].iteration == _DIAG_CHUNK + 4
        for i in (0, 2):
            _, ref = vector_loop(problem, reg, restorer, cfgs[i],
                                 lambda x, c=cfgs[i]: float(x[0] - c.seed))
            assert outcomes[i].csv_text() == ref.csv_text()
            assert np.array_equal(outcomes[i].iterates, ref.iterates)

    @pytest.mark.parametrize("t", [1, 15, 16, 17, 33])
    def test_one_stacked_call_per_chunk(self, t, monkeypatch):
        problem, reg, restorer = lockstep_instance("masks")
        calls = {"value": 0, "grad": 0, "score": 0}
        for name in ("value", "grad"):
            def counted(self, x, name=name, method=getattr(SingleGaussianForms, name)):
                calls[name] += 1
                return method(self, x)
            monkeypatch.setattr(SingleGaussianForms, name, counted)
        def score(x, ids):
            calls["score"] += 1
            return np.zeros(len(ids))
        cfgs = [SolverConfig(gamma=0.3, iterations=t, seed=s) for s in (0, 1)]
        run([problem] * 2, reg, restorer, cfgs, psnr_fn=score)
        chunks = -(-t // _DIAG_CHUNK)
        # value also gives f at the start point
        assert calls == {"value": chunks + 1, "grad": chunks, "score": chunks}

    def test_one_seed_scorer_sees_each_iterate_once_in_order(self):
        problem, reg, restorer = lockstep_instance("mixture")
        cfg = SolverConfig(gamma=0.3, iterations=2 * _DIAG_CHUNK + 5, seed=2,
                           record_iterates=True)
        seen = []  # kept as handed over: the rows must not be overwritten later
        _, trace = run(problem, reg, restorer, cfg,
                       psnr_fn=lambda x: seen.append(x) or 0.0)
        assert np.array_equal(np.array(seen), trace.iterates[1:])


class TestTraceCsv:
    def test_header_and_shape(self):
        problem, reg, restorer = one_d_instance()
        cfg = SolverConfig(gamma=0.2, iterations=5, seed=0, x0="zeros")
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
        cfg = SolverConfig(gamma=0.2, iterations=3, seed=0, x0="zeros")
        _, trace = run(problem, reg, restorer, cfg, psnr_fn=lambda x: 42.0)
        assert all(line.endswith("42.0") for line in
                   trace.csv_text().strip().split("\n")[1:])


class TestAudit:
    def test_smoke_pass_on_closed_form_instance(self):
        problem, reg, restorer = one_d_instance()
        L = fidelity_lipschitz(problem) + regularizer_curvature_bound(reg)[0]
        traces = []
        for seed in range(10):
            cfg = SolverConfig(gamma=1.0 / L, iterations=200, seed=seed,
                               x0="zeros", record_iterates=True)
            _, trace = run(problem, reg, restorer, cfg)
            traces.append(trace)
        report = audit_convergence(problem, reg, restorer, cfg, traces)
        assert report.passed
        assert report.epsilon_hat == 0.0
        np.testing.assert_allclose(report.L_hat, 1.5, atol=1e-9)

    def test_transient_term_halves_when_iterations_double(self):
        problem, reg, restorer = one_d_instance()
        reports = []
        for t in (100, 200):
            traces = []
            for seed in range(4):
                cfg = SolverConfig(gamma=0.3, iterations=t, seed=seed,
                                   x0=np.array([2.0]), record_iterates=True)
                _, trace = run(problem, reg, restorer, cfg)
                traces.append(trace)
            reports.append(audit_convergence(problem, reg, restorer, cfg, traces))
        np.testing.assert_allclose(
            reports[0].term_transient, 2.0 * reports[1].term_transient, rtol=1e-12
        )

    def test_offset_bias_enters_exactly(self):
        problem, reg, _ = one_d_instance()
        restorer = Biased(ExactMmse(reg.prior, 1.0), ConstantOffset([0.1]))
        traces = []
        for seed in range(5):
            cfg = SolverConfig(gamma=0.3, iterations=100, seed=seed,
                               x0="zeros", record_iterates=True)
            _, trace = run(problem, reg, restorer, cfg)
            traces.append(trace)
        report = audit_convergence(problem, reg, restorer, cfg, traces)
        np.testing.assert_allclose(report.epsilon_hat, 0.1, atol=1e-12)
        np.testing.assert_allclose(report.term_bias, 0.01, atol=1e-12)

    def test_gain_wrapper_caveat_propagates(self):
        # the probe-domain disclaimer from bias measurement must surface
        problem, reg, _ = one_d_instance()
        restorer = Biased(ExactMmse(reg.prior, 1.0), ConstantOffset([0.05]))
        traces = []
        for seed in range(3):
            cfg = SolverConfig(gamma=0.2, iterations=50, seed=seed,
                               x0="zeros", record_iterates=True)
            _, trace = run(problem, reg, restorer, cfg)
            traces.append(trace)
        report = audit_convergence(problem, reg, restorer, cfg, traces)
        assert any("not a global bound" in note for note in report.notes)
        assert "epsilon_hat" in report.to_text()
        assert report.to_json_dict()["terms"]["bias"] == report.term_bias

    def test_audit_draws_nothing(self, monkeypatch):
        problem, reg, _ = one_d_instance()
        restorer = Biased(ExactMmse(reg.prior, 1.0), ConstantOffset([0.1]))
        traces = []
        for seed in range(3):
            cfg = SolverConfig(gamma=0.3, iterations=50, seed=seed,
                               x0="zeros", record_iterates=True)
            traces.append(run(problem, reg, restorer, cfg)[1])

        def refuse(*args, **kwargs):
            raise AssertionError("the audit made a random generator")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        report = audit_convergence(problem, reg, restorer, cfg, traces)
        np.testing.assert_allclose(report.nu2_hat, 0.25, rtol=1e-15)
        np.testing.assert_allclose(report.epsilon_hat, 0.1, atol=1e-12)

    def test_member_account_at_the_point_that_sets_nu2(self):
        prior = GmmPrior([1.0], [[0.3, -0.2]], [np.asarray(0.9)])
        members = [Identity(2), CoordinateMask(2, [0]), Scale(2, 0.5)]
        ens = DegradationEnsemble(members, sigma=0.7, weights=[0.5, 0.3, 0.2])
        reg = Regularizer(tau=0.6, prior=prior, ens=ens)
        problem = Problem(Identity(2), np.array([0.1, 0.4]))
        c = np.array([0.05, -0.1])
        restorer = Biased(ExactMmse(prior, 0.7), ConstantOffset(c))
        cfg = SolverConfig(gamma=0.2, iterations=30, seed=1, x0="zeros")
        trace = run(problem, reg, restorer, cfg)[1]
        points = [np.array([0.0, 0.0]), np.array([3.0, -2.0]), np.array([-1.0, 0.5])]
        report = audit_convergence(problem, reg, restorer, cfg, [trace],
                                   probes=AuditProbes(points=points))
        terms = exact_audit_terms(reg, restorer, points)
        i = int(np.argmax(terms.nu2))
        assert report.nu2_hat == terms.nu2[i]
        account = report.to_json_dict()["members"]
        assert [m["weight"] for m in account] == ens.weights.tolist()
        shares = ens.weights * terms.moments[i]
        np.testing.assert_allclose([m["variance_share"] for m in account],
                                   shares / shares.sum(), rtol=1e-12)
        # a constant offset c gives b_j = -(tau/sigma²) G_j c at every point
        for m, H in zip(account, members):
            expected = np.linalg.norm(0.6 / 0.49 * H.gram_apply(c))
            np.testing.assert_allclose(m["bias_norm"], expected, rtol=1e-12)

    def test_epsilon_from_the_first_ten_points(self):
        # gain 0.5 on the 1-D instance: b(x) = x/4, so eps reads point 10
        # and nu2 all eleven
        problem, reg, _ = one_d_instance()
        restorer = Biased(ExactMmse(reg.prior, 1.0), Gain(0.5))
        cfg = SolverConfig(gamma=0.3, iterations=20, seed=0, x0="zeros")
        trace = run(problem, reg, restorer, cfg)[1]
        points = [np.array([0.1 * k]) for k in range(1, 11)] + [np.array([5.0])]
        report = audit_convergence(problem, reg, restorer, cfg, [trace],
                                   probes=AuditProbes(points=points))
        np.testing.assert_allclose(report.epsilon_hat, 0.25, rtol=1e-12)
        assert report.nu2_hat == np.max(exact_audit_terms(reg, restorer, points).nu2)
        assert "probed at 10 points with ||x|| <= 1;" in report.to_text()

    def test_refuses_a_mixture(self):
        # no single-Gaussian closed forms: refused up front, although the
        # true-gradient norms are faked
        prior = GmmPrior([0.4, 0.6], [[-0.5], [0.8]], [np.asarray(0.6), np.asarray(0.9)])
        ens = DegradationEnsemble([Identity(1), Scale(1, 0.5)], sigma=0.8, weights=[0.7, 0.3])
        reg = Regularizer(tau=1.0, prior=prior, ens=ens)
        problem = Problem(Identity(1), np.array([0.3]))
        restorer = ExactMmse(prior, 0.8)
        cfg = SolverConfig(gamma=0.2, iterations=20, seed=0, x0="zeros",
                           record_iterates=True)
        _, trace = run(problem, reg, restorer, cfg)
        trace.grad_true_norm = trace.grad_hat_norm
        trace.f_initial = 2.0
        with pytest.raises(AuditError, match="single-Gaussian closed forms: .*one component"):
            audit_convergence(problem, reg, restorer, cfg, [trace])

    def test_refuses_without_probes_or_iterates(self):
        problem, reg, restorer = one_d_instance()
        cfg = SolverConfig(gamma=0.3, iterations=20, seed=0, x0="zeros")
        _, trace = run(problem, reg, restorer, cfg)
        with pytest.raises(AuditError):
            audit_convergence(problem, reg, restorer, cfg, [trace])

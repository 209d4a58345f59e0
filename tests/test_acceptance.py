"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here; nothing is deferred to later calibration.
Shared heavy fixtures (the 32x32 ensemble-benefit experiment) are module
scoped so the convergence-shape checks reuse the same runs.
"""

import time

import numpy as np
import pytest

from srp.config import ExperimentConfig
from srp.experiment import run_experiment
from srp.metrics import magnitude, psnr
from srp.objective import (
    Problem,
    Regularizer,
    fidelity_grad,
    fidelity_lipschitz,
    reg_grad_exact,
    regularizer_curvature_bound,
)
from srp.operators import (
    CoordinateMask,
    DegradationEnsemble,
    DenseMatrix,
    Identity,
    sample_degradation,
)
from srp.oracle import QuadratureGrid, oracle_grad, oracle_mmse
from srp.priors import (
    GmmPrior,
    ObservationModel,
    mmse_restore,
    observation_logpdf,
    observation_score,
)
from srp.restoration import Biased, ConstantOffset, ExactMmse
from srp.solver import SolverConfig, audit_convergence, run, solver_streams


def report(criterion, passed, detail, elapsed):
    status = "PASS" if passed else "FAIL"
    print(f"\n[criterion {criterion}] {status} - {detail} ({elapsed:.1f}s)")
    assert passed, f"criterion {criterion}: {detail}"


def random_regularizer(rng, n, max_components=3, max_members=3):
    k = int(rng.integers(1, max_components + 1))
    w = rng.dirichlet(np.full(k, 4.0))
    w = w / w.sum()
    means = rng.uniform(-1.5, 1.5, size=(k, n))
    covs = [np.asarray(float(rng.uniform(0.4, 1.3))) for _ in range(k)]
    prior = GmmPrior(w, means, covs)
    members = []
    for _ in range(int(rng.integers(1, max_members + 1))):
        kind = rng.integers(0, 3)
        if kind == 0:
            members.append(Identity(n))
        elif kind == 1:
            members.append(
                DenseMatrix(np.eye(n) + 0.5 * rng.standard_normal((n, n)))
            )
        else:
            members.append(
                CoordinateMask(n, rng.choice(n, size=max(1, n - 1), replace=False))
            )
    ens = DegradationEnsemble(members, sigma=float(rng.uniform(0.5, 1.2)))
    return Regularizer(tau=float(rng.uniform(0.5, 2.0)), prior=prior, ens=ens)


def test_criterion_1_gradient_identity_three_way():
    """Quadrature of the gradient identity, finite differences of the
    regularizer value, and the Monte Carlo estimator agree pairwise."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_det = 0.0
    for trial in range(50):
        n = 1 if trial < 35 else 2
        reg = random_regularizer(rng, n)
        x = rng.uniform(-1.5, 1.5, size=n)
        grid = QuadratureGrid(1601 if n == 1 else 101)
        gh = 48 if n == 1 else 12
        fd, quad = oracle_grad(reg, x, gh_points=gh, grid_x=grid)
        mc, se = reg_grad_exact(
            reg, x, 60_000, np.random.default_rng(5000 + trial), return_se=True
        )
        tol_mc = np.maximum(1e-4, 3 * se)
        assert np.max(np.abs(fd - quad)) < 1e-4, f"trial {trial}: fd vs quad"
        assert np.all(np.abs(mc - fd) < tol_mc), f"trial {trial}: mc vs fd"
        assert np.all(np.abs(mc - quad) < tol_mc), f"trial {trial}: mc vs quad"
        worst_det = max(worst_det, float(np.max(np.abs(fd - quad))))
    elapsed = time.perf_counter() - t0
    report(
        1,
        elapsed < 120.0,
        f"50 instances, worst deterministic-route gap {worst_det:.2e}",
        elapsed,
    )


def test_criterion_2_mmse_vs_oracle():
    """Closed-form posterior mean vs direct quadrature."""
    t0 = time.perf_counter()
    prior = GmmPrior([1.0], [[0.0]], [np.asarray(1.0)])
    obs = ObservationModel(Identity(1), 1.0)
    est = mmse_restore(prior, obs, np.array([2.0]))
    brute = oracle_mmse(prior, obs, np.array([2.0]), QuadratureGrid(4001))
    assert abs(est[0] - 1.0) < 1e-8
    assert abs(brute[0] - est[0]) < 1e-8

    rng = np.random.default_rng(202)
    worst = 0.0
    for trial in range(20):
        k = int(rng.integers(1, 4))
        w = rng.dirichlet(np.full(k, 4.0))
        w = w / w.sum()
        means = rng.uniform(-1.0, 1.0, size=(k, 2))
        covs = []
        for _ in range(k):
            a = 0.3 * rng.standard_normal((2, 2))
            covs.append(a @ a.T + rng.uniform(0.5, 1.0) * np.eye(2))
        p = GmmPrior(w, means, covs)
        h = DenseMatrix(np.eye(2) + 0.5 * rng.standard_normal((2, 2)))
        o = ObservationModel(h, rng.uniform(0.5, 1.0))
        s = h.apply(p.sample(rng)) + o.sigma * rng.standard_normal(2)
        gap = float(np.max(np.abs(
            mmse_restore(p, o, s) - oracle_mmse(p, o, s, QuadratureGrid(301))
        )))
        assert gap < 1e-6, f"trial {trial}: gap {gap}"
        worst = max(worst, gap)
    elapsed = time.perf_counter() - t0
    report(2, elapsed < 60.0, f"worst 2-D gap {worst:.2e}", elapsed)


def test_criterion_3_score_identity():
    """Score of the degraded-observation density equals the restoration
    residual, checked against finite differences of the log-density."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    worst = 0.0
    for trial in range(200):
        n = int(rng.integers(1, 9))
        reg = random_regularizer(rng, n, max_members=1)
        p = reg.prior
        H = reg.ens.members[0]
        obs = ObservationModel(H, reg.ens.sigma)
        s = H.apply(p.sample(rng)) + obs.sigma * rng.standard_normal(H.out_dim)
        score = observation_score(p, obs, s)
        fd = np.empty(H.out_dim)
        for i in range(H.out_dim):
            e = np.zeros(H.out_dim)
            e[i] = 1e-5
            fd[i] = (
                observation_logpdf(p, obs, s + e)
                - observation_logpdf(p, obs, s - e)
            ) / 2e-5
        gap = float(np.max(np.abs(score - fd)))
        assert gap < 1e-6, f"trial {trial}: gap {gap}"
        worst = max(worst, gap)
    elapsed = time.perf_counter() - t0
    report(3, elapsed < 60.0, f"200 instances, worst gap {worst:.2e}", elapsed)


def test_criterion_4_stochastic_gradient_unbiased():
    """Empirical mean of the stochastic gradient matches the full gradient."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    n = 3
    prior = GmmPrior(
        [0.5, 0.5],
        rng.uniform(-1.0, 1.0, size=(2, n)),
        [np.asarray(0.7), np.asarray(1.1)],
    )
    ens = DegradationEnsemble(
        [Identity(n), CoordinateMask(n, [0, 2])], sigma=0.8
    )
    reg = Regularizer(tau=1.2, prior=prior, ens=ens)
    A = DenseMatrix(np.eye(n) + 0.3 * rng.standard_normal((n, n)))
    problem = Problem(A, rng.standard_normal(n))
    restorer = ExactMmse(prior, 0.8)
    scale = reg.tau / ens.sigma ** 2

    draws = 10_000
    for probe in range(10):
        x = rng.uniform(-2.0, 2.0, size=n)
        # grouped per member: same estimator as one-draw calls, vectorized
        prng = np.random.default_rng(7000 + probe)
        idx = prng.choice(ens.size, size=draws, p=ens.weights)
        terms = np.empty((draws, n))
        for j, H in enumerate(ens.members):
            sel = idx == j
            c = int(np.sum(sel))
            if c == 0:
                continue
            s = H.apply(x) + ens.sigma * prng.standard_normal((c, H.out_dim))
            terms[sel] = scale * H.gram_apply(x - restorer.restore(s, H))
        mean_term = terms.mean(axis=0)
        se_term = terms.std(axis=0, ddof=1) / np.sqrt(draws)

        ref, ref_se = reg_grad_exact(
            reg, x, 400_000, np.random.default_rng(8000 + probe), return_se=True
        )
        # the fidelity part is deterministic and common to both sides, so
        # comparing the averaged regularizer terms compares the full gradients
        diff = np.abs(mean_term - ref)
        tol = 4 * np.sqrt(se_term ** 2 + ref_se ** 2)
        assert np.all(diff < tol), f"probe {probe}: diff {diff} tol {tol}"
    elapsed = time.perf_counter() - t0
    report(4, elapsed < 120.0, "10 probes within 4 combined std errors", elapsed)


def _one_d_instance():
    prior = GmmPrior([1.0], [[0.0]], [np.asarray(1.0)])
    ens = DegradationEnsemble([Identity(1)], sigma=1.0)
    reg = Regularizer(tau=1.0, prior=prior, ens=ens)
    problem = Problem(Identity(1), np.zeros(1))
    return problem, reg, ExactMmse(prior, 1.0)


def _four_d_instance():
    prior = GmmPrior([1.0], [[0.5, -0.3, 0.2, 0.1]], [np.asarray(0.8)])
    ens = DegradationEnsemble(
        [Identity(4), CoordinateMask(4, [0, 1]), CoordinateMask(4, [2, 3])],
        sigma=0.7,
    )
    reg = Regularizer(tau=0.8, prior=prior, ens=ens)
    A = DenseMatrix([
        [1.0, 0.2, 0.0, 0.0],
        [0.0, 0.9, 0.0, 0.0],
        [0.0, 0.0, 0.7, 0.1],
        [0.0, 0.0, 0.0, 0.5],
    ])
    problem = Problem(A, np.array([0.3, -0.2, 0.4, 0.1]))
    return problem, reg, ExactMmse(prior, 0.7)


def _audit(problem, reg, restorer, gamma, seeds=50, iterations=500):
    """One audit of ``seeds`` seeds, solved as one lockstep block."""
    cfgs = [
        SolverConfig(gamma=gamma, iterations=iterations, seed=seed,
                     x0="zeros", record_iterates=True)
        for seed in range(seeds)
    ]
    traces = run([problem] * seeds, reg, restorer, cfgs)
    for trace in traces:
        if isinstance(trace, Exception):
            raise trace
    runs = [(problem, reg, restorer, cfg, trace) for cfg, trace in zip(cfgs, traces)]
    rep = audit_convergence(runs, slack=0.05)
    plateau = float(np.mean(
        [np.mean(t.grad_true_norm[-100:] ** 2) for *_, t in runs]
    ))
    return rep, plateau


def test_criterion_5_convergence_bound_audit():
    """The averaged-gradient bound holds at both step sizes on the 1-D and
    4-D closed-form instances, and holds with growing lhs under injected
    constant-offset bias."""
    t0 = time.perf_counter()
    details = []
    for maker, label in ((_one_d_instance, "1-D"), (_four_d_instance, "4-D")):
        problem, reg, restorer = maker()
        L = fidelity_lipschitz(problem) + regularizer_curvature_bound(reg)[0]
        for frac in (1.0, 0.5):
            rep, _ = _audit(problem, reg, restorer, frac / L)
            assert rep.passed, f"{label} gamma={frac}/L: lhs {rep.lhs} rhs {rep.rhs}"
            details.append(f"{label}@{frac}/L ratio {rep.lhs / rep.rhs:.2f}")

    problem, reg, _ = _one_d_instance()
    L = fidelity_lipschitz(problem) + regularizer_curvature_bound(reg)[0]
    plateaus = []
    for c in (0.05, 0.1, 0.2):
        biased = Biased(ExactMmse(reg.prior, 1.0), ConstantOffset([c]))
        rep, plateau = _audit(problem, reg, biased, 0.5 / L)
        assert rep.passed, f"bias c={c}: lhs {rep.lhs} rhs {rep.rhs}"
        np.testing.assert_allclose(rep.epsilon_hat, c, atol=1e-12)
        plateaus.append(plateau)
    assert plateaus[0] < plateaus[1] < plateaus[2], f"plateaus {plateaus}"
    elapsed = time.perf_counter() - t0
    report(
        5,
        elapsed < 300.0,
        "; ".join(details) + f"; bias plateaus {np.round(plateaus, 4).tolist()}",
        elapsed,
    )


def test_criterion_6_reductions_bit_for_bit():
    """Identity ensemble reproduces the denoiser-residual iteration exactly;
    a one-member ensemble reproduces a fixed-operator run exactly."""
    t0 = time.perf_counter()
    prior = GmmPrior(
        [0.4, 0.6],
        [[0.5, 0.0, -0.2], [-1.0, 0.3, 0.8]],
        [np.asarray(0.7), np.asarray(1.2)],
    )
    ens = DegradationEnsemble([Identity(3)], sigma=0.8)
    reg = Regularizer(tau=0.5, prior=prior, ens=ens)
    A = DenseMatrix([[1.0, 0.1, 0.0], [0.0, 0.8, 0.2], [0.1, 0.0, 0.9]])
    problem = Problem(A, np.array([0.2, -0.1, 0.5]))
    restorer = ExactMmse(prior, 0.8)
    gamma, t, seed = 0.05, 80, 321

    cfg = SolverConfig(gamma=gamma, iterations=t, seed=seed, x0="zeros")
    x_solver, trace_solver = run(problem, reg, restorer, cfg)

    # denoiser-residual reference
    sel_rng, noise_rng = solver_streams(seed)
    x = np.zeros(3)
    for _ in range(t):
        _, H = sample_degradation(ens, sel_rng)
        s = x + 0.8 * noise_rng.standard_normal(3)
        ghat = fidelity_grad(problem, x) + (0.5 / (0.8 * 0.8)) * (
            x - restorer.restore(s, H)
        )
        x = x - gamma * ghat
    red_ok = np.array_equal(x, x_solver)

    # fixed-prior reference: one-member ensemble, iid vs fixed selection
    ens1 = DegradationEnsemble([CoordinateMask(3, [0, 2])], sigma=0.8)
    reg1 = Regularizer(tau=0.5, prior=prior, ens=ens1)
    kw = dict(gamma=gamma, iterations=t, seed=seed, x0="zeros")
    x_iid, t_iid = run(problem, reg1, restorer, SolverConfig(**kw))
    x_fix, t_fix = run(
        problem, reg1, restorer,
        SolverConfig(selection="fixed", fixed_index=0, **kw),
    )
    drp_ok = np.array_equal(x_iid, x_fix) and t_iid.csv_text() == t_fix.csv_text()

    # and against a hand-rolled fixed-operator loop (noise stream only)
    _, noise_rng = solver_streams(seed)
    H = ens1.members[0]
    x = np.zeros(3)
    for _ in range(t):
        s = H.apply(x) + 0.8 * noise_rng.standard_normal(3)
        ghat = fidelity_grad(problem, x) + (0.5 / (0.8 * 0.8)) * H.gram_apply(
            x - restorer.restore(s, H)
        )
        x = x - gamma * ghat
    drp_ref_ok = np.array_equal(x, x_fix)

    elapsed = time.perf_counter() - t0
    report(
        6,
        red_ok and drp_ok and drp_ref_ok,
        f"denoiser-residual={red_ok}, fixed-vs-iid={drp_ok}, "
        f"fixed-reference={drp_ref_ok}",
        elapsed,
    )


SHAPE = [32, 32]
ENSEMBLE_SPEC = [
    {"kind": "masked-fourier", "shape": SHAPE,
     "mask": {"type": "uniform-rows", "accel": 8, "offset": o, "acs_lines": 4}}
    for o in range(8)
]
BASE_CONFIG = {
    "version": 1,
    "seed": 11,
    "seeds": list(range(1, 11)),
    "output_dir": "unused",
    "image": {"shape": SHAPE, "complex": True},
    "problem": {
        "operator": {"kind": "masked-fourier", "shape": SHAPE,
                     "mask": {"type": "uniform-rows", "accel": 4, "offset": 0,
                              "acs_lines": 4}},
        "ground_truth": {"source": "prior"},
        "noise_sigma": 0.01,
    },
    "prior": {"type": "gmm-recipe", "shape": SHAPE, "components": 3,
              "seed": 2024, "cov_scale": 0.03, "smoothness": 1.5},
    "ensemble": {"members": ENSEMBLE_SPEC, "sigma": 0.05},
    "restorer": {"type": "exact-mmse"},
    "solver": {"gamma": 0.2, "tau": 0.01, "iterations": 200,
               "selection": {"strategy": "iid-by-weights"}, "x0": "adjoint"},
    "metrics": {"psnr": True, "ssim": False},
}


@pytest.fixture(scope="module")
def ensemble_benefit_runs(tmp_path_factory):
    """All arms of the desk-scale ensemble-benefit experiment."""
    t0 = time.perf_counter()
    out = tmp_path_factory.mktemp("bench")

    def cfg_with(name, **solver_overrides):
        d = {k: (dict(v) if isinstance(v, dict) else v)
             for k, v in BASE_CONFIG.items()}
        d["name"] = name
        d["solver"] = dict(BASE_CONFIG["solver"])
        d["solver"].update(solver_overrides)
        d["output_dir"] = str(out / name)
        return ExperimentConfig.from_dict(d)

    results = {"sharp": run_experiment(cfg_with("sharp"))}
    for i in range(8):
        results[f"member{i}"] = run_experiment(
            cfg_with(f"member{i}", selection={"strategy": "fixed", "index": i})
        )

    # fidelity-only gradient descent on the same simulated problems
    from srp.config import build_experiment
    from srp.experiment import _seed_streams, simulate_measurement

    built = build_experiment(cfg_with("gd"))
    gd_psnr = []
    for seed_value in BASE_CONFIG["seeds"]:
        sim_rng, _ = _seed_streams(BASE_CONFIG["seed"], seed_value)
        x_true, y = simulate_measurement(built, sim_rng)
        x = built.A.adjoint_apply(y)
        for _ in range(200):
            x = x - 1.0 * built.A.adjoint_apply(built.A.apply(x) - y)
        mt = magnitude(x_true)
        gd_psnr.append(psnr(magnitude(x), mt, peak=float(np.max(mt))).db)

    return {
        "results": results,
        "gd_psnr": gd_psnr,
        "elapsed": time.perf_counter() - t0,
    }


def test_criterion_7_ensemble_benefit(ensemble_benefit_runs):
    """The full mask ensemble beats fidelity-only descent and the worst
    single-operator run by >= 1 dB, and is not materially below the best."""
    t0 = time.perf_counter()
    results = ensemble_benefit_runs["results"]
    sharp = float(np.median([r.psnr_db for r in results["sharp"].rows]))
    member_medians = [
        float(np.median([r.psnr_db for r in results[f"member{i}"].rows]))
        for i in range(8)
    ]
    gd = float(np.median(ensemble_benefit_runs["gd_psnr"]))
    worst, best = min(member_medians), max(member_medians)
    ok = (
        sharp >= gd + 1.0
        and sharp >= worst + 1.0
        and sharp >= best - 0.1
    )
    elapsed = ensemble_benefit_runs["elapsed"] + (time.perf_counter() - t0)
    report(
        7,
        ok and elapsed < 600.0,
        f"ensemble {sharp:.2f} dB vs descent {gd:.2f}, worst member "
        f"{worst:.2f}, best member {best:.2f}",
        elapsed,
    )


def test_criterion_8_convergence_shape(ensemble_benefit_runs):
    """Seed-averaged squared step sizes decrease (in 5-iteration blocks, up
    to sampling noise) after burn-in, and PSNR plateaus."""
    t0 = time.perf_counter()
    traces = ensemble_benefit_runs["results"]["sharp"].traces
    steps = np.stack([traces[s].step_sq for s in sorted(traces)]).mean(axis=0)
    psnrs = np.stack([traces[s].psnr for s in sorted(traces)]).mean(axis=0)

    burn_in = 10
    blocks = steps[burn_in:].reshape(-1, 5).mean(axis=1)
    # "decreasing up to sampling noise": no block may exceed the lowest level
    # already reached by more than 50%, and the overall level must decay
    ratios = np.array(
        [blocks[i] / np.min(blocks[:i]) for i in range(1, len(blocks))]
    )
    monotone = bool(np.all(ratios < 1.5))
    decayed = blocks[-1] < 0.5 * blocks[0]

    plateau = bool(abs(psnrs[-1] - psnrs[-26]) < 0.25
                   and psnrs[-1] > np.max(psnrs) - 0.5)
    elapsed = time.perf_counter() - t0
    report(
        8,
        monotone and decayed and plateau,
        f"max block ratio {float(np.max(ratios)):.3f}, decay "
        f"{blocks[0]:.3g}->{blocks[-1]:.3g}, psnr drift "
        f"{abs(psnrs[-1] - psnrs[-26]):.3f} dB",
        elapsed,
    )


def test_criterion_9_byte_deterministic_runs(tmp_path):
    """Identical config and seed produce byte-identical trace and summary."""
    t0 = time.perf_counter()
    d = {k: (dict(v) if isinstance(v, dict) else v) for k, v in BASE_CONFIG.items()}
    d["name"] = "determinism"
    d["seeds"] = [1, 2, 3]
    d["solver"] = dict(BASE_CONFIG["solver"])
    d["solver"]["iterations"] = 50
    d["output_dir"] = str(tmp_path / "a")
    cfg = ExperimentConfig.from_dict(d)

    run_experiment(cfg)
    run_experiment(cfg, out_dir=tmp_path / "b")
    identical = True
    for name in ["summary.csv"] + [f"trace_seed{s}.csv" for s in (1, 2, 3)]:
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        identical = identical and a == b
    elapsed = time.perf_counter() - t0
    report(9, identical, "trace and summary CSVs byte-identical", elapsed)

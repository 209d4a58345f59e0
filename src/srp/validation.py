"""Self-check battery behind the CLI ``validate`` subcommand.

Cross-checks the closed-form machinery against the independent quadrature
oracles and the operator algebra against its adjoint contract. Fast enough
to run routinely; the full acceptance suite lives in the test tree.
"""

from __future__ import annotations

import numpy as np

from .metrics import psnr, ssim
from .objective import Regularizer, reg_grad_exact
from .operators import (
    CircularConvolution,
    Composition,
    ConvexCombination,
    CoordinateMask,
    DegradationEnsemble,
    DenseMatrix,
    DiscreteFourier,
    FoldDownsample,
    Identity,
    Scale,
    adjoint_mismatch,
)
from .oracle import QuadratureGrid, oracle_grad, oracle_mmse, oracle_reg_value
from .priors import GmmPrior, ObservationModel, mmse_restore, observation_logpdf, observation_score


def _operator_zoo(rng):
    conv = CircularConvolution(12, rng.standard_normal(5))
    return [
        Identity(7),
        Scale(5, -1.7),
        CoordinateMask(9, [0, 3, 4]),
        DenseMatrix(rng.standard_normal((6, 9))),
        DiscreteFourier((4, 4)),
        conv,
        FoldDownsample(12, 3),
        Composition([DiscreteFourier((8,)), CoordinateMask(16, range(0, 16, 2))]),
        ConvexCombination(0.3, CoordinateMask(10, [1, 2, 7])),
    ]


def _random_small_prior(rng, n, k):
    weights = rng.dirichlet(np.full(k, 5.0))
    weights = weights / weights.sum()
    means = rng.standard_normal((k, n))
    covs = []
    for _ in range(k):
        a = rng.standard_normal((n, n)) * 0.3
        covs.append(a @ a.T + np.eye(n) * rng.uniform(0.3, 1.0))
    return GmmPrior(weights, means, covs)


def validation_suite(seed=0):
    """Run the battery; returns a list of {name, passed, detail} rows."""
    rng = np.random.default_rng(seed)
    rows = []

    def check(name, passed, detail):
        rows.append({"name": name, "passed": bool(passed), "detail": detail})

    worst = max(adjoint_mismatch(op, rng, trials=50) for op in _operator_zoo(rng))
    check("operator adjoint contract", worst < 1e-10, f"max rel gap {worst:.2e}")

    prior = GmmPrior([1.0], [[0.0]], [np.asarray(1.0)])
    obs = ObservationModel(Identity(1), 1.0)
    est = mmse_restore(prior, obs, np.array([2.0]))
    ora = oracle_mmse(prior, obs, np.array([2.0]), QuadratureGrid(4001))
    err = abs(float(est[0]) - 1.0) + abs(float(ora[0]) - 1.0)
    check("1-D posterior mean worked example", err < 1e-8, f"total err {err:.2e}")

    worst = 0.0
    for _ in range(5):
        p2 = _random_small_prior(rng, 2, 2)
        h = DenseMatrix(rng.standard_normal((2, 2)))
        o2 = ObservationModel(h, rng.uniform(0.5, 1.0))
        s = h.apply(p2.sample(rng)) + o2.sigma * rng.standard_normal(2)
        gap = np.max(np.abs(mmse_restore(p2, o2, s) - oracle_mmse(p2, o2, s, QuadratureGrid(301))))
        worst = max(worst, float(gap))
    check("posterior mean vs quadrature (2-D)", worst < 1e-6, f"max err {worst:.2e}")

    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 5))
        p = _random_small_prior(rng, n, 2)
        h = DenseMatrix(rng.standard_normal((n, n)))
        o = ObservationModel(h, rng.uniform(0.5, 1.2))
        s = h.apply(p.sample(rng)) + o.sigma * rng.standard_normal(n)
        score = observation_score(p, o, s)
        fd = np.empty(n)
        for i in range(n):
            e = np.zeros(n)
            e[i] = 1e-5
            fd[i] = (observation_logpdf(p, o, s + e) - observation_logpdf(p, o, s - e)) / 2e-5
        worst = max(worst, float(np.max(np.abs(score - fd))))
    check("observation score vs finite difference", worst < 1e-6, f"max err {worst:.2e}")

    prior1 = GmmPrior([1.0], [[0.0]], [np.asarray(1.0)])
    ens1 = DegradationEnsemble([Identity(1)], sigma=1.0)
    reg1 = Regularizer(tau=1.0, prior=prior1, ens=ens1)
    x = np.array([2.0])
    val = reg1.gaussian_forms.value(x)
    ora_val = oracle_reg_value(reg1, x, grid_x=QuadratureGrid(2001))
    fd, quad = oracle_grad(reg1, x, grid_x=QuadratureGrid(2001))
    mc = reg_grad_exact(reg1, x, 200_000, np.random.default_rng(seed + 1))
    gaps = [abs(val - ora_val), abs(fd[0] - 1.0), abs(quad[0] - 1.0), abs(mc[0] - 1.0)]
    check(
        "regularizer value and gradient (1-D closed form)",
        gaps[0] < 1e-6 and gaps[1] < 1e-5 and gaps[2] < 1e-5 and gaps[3] < 0.02,
        f"gaps {['%.2e' % g for g in gaps]}",
    )

    img = rng.standard_normal((16, 16))
    p_same = psnr(img.ravel(), img.ravel(), peak=1.0)
    s_same = ssim(img, img, peak=float(np.max(np.abs(img))))
    check(
        "metric identities",
        p_same.capped and p_same.db == 99.0 and s_same == 1.0,
        f"psnr={p_same.db}, ssim={s_same}",
    )

    return rows


def format_table(rows):
    width = max(len(r["name"]) for r in rows)
    lines = []
    for r in rows:
        status = "PASS" if r["passed"] else "FAIL"
        lines.append(f"{r['name']:<{width}}  {status}  {r['detail']}")
    return "\n".join(lines)

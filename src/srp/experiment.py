"""Experiment harness: simulate, solve per seed, score, and emit artifacts.

Outputs under the configured directory:
  trace_seed<k>.csv   per-iteration diagnostics (schema in solver.TRACE_HEADER)
  final_seed<k>.f64   final iterate, flat float64 array file
  truth_seed<k>.f64   simulated ground truth
  summary.csv         one row per seed
  curves.csv          per-iteration mean/std/min/max across seeds (on request)
  report.json         config echo, metrics, timings, caveats

Trace and summary CSVs are byte-deterministic for a fixed config: wall time
is measured but written only to report.json. When the operators share a
unitary DFT head the solve runs behind it (``shared_head_peel``); every
artifact is still in the original coordinates.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import arrayio
from .config import BuiltExperiment, build_experiment
from .metrics import magnitude, psnr, ssim
from .objective import Problem, Regularizer
from .operators import Composition, DegradationEnsemble, DiscreteFourier, Identity
from .priors import GmmPrior
from .restoration import Biased, ConstantOffset, ExactMmse, Gain, _unwrap
from .solver import AuditProbes, DivergenceError, audit_convergence, run as solver_run

SUMMARY_HEADER = "run_id,seed,psnr_db,ssim,f_final,iters,wall_ms"
CURVES_HEADER = (
    "k,step_sq_mean,step_sq_std,step_sq_min,step_sq_max,"
    "psnr_mean,psnr_std,psnr_min,psnr_max"
)


@dataclass
class MetricsRow:
    run_id: str
    seed: int
    psnr_db: float | None
    ssim: float | None
    f_final: float | None
    iters: int
    wall_ms: float
    psnr_capped: bool = False

    def csv_cells(self):
        # wall_ms is intentionally written as 0 so re-runs are byte-identical;
        # measured timing lives in report.json.
        return [
            self.run_id,
            str(self.seed),
            "" if self.psnr_db is None else repr(float(self.psnr_db)),
            "" if self.ssim is None else repr(float(self.ssim)),
            "" if self.f_final is None else repr(float(self.f_final)),
            str(self.iters),
            "0",
        ]


def _seed_streams(root_seed, seed_value):
    sim_rng = np.random.default_rng(
        np.random.SeedSequence([int(root_seed), int(seed_value), 0])
    )
    solver_seed = int(
        np.random.SeedSequence([int(root_seed), int(seed_value), 1]).generate_state(
            1, np.uint64
        )[0]
    )
    return sim_rng, solver_seed


def simulate_measurement(built, rng):
    """Ground truth (sampled or loaded) and measurement y = A x + e."""
    if built.ground_truth.get("source") == "file":
        x_true = arrayio.read_array(built.ground_truth["path"]).ravel()
    else:
        x_true = built.prior.sample(rng)
    y = built.A.apply(x_true)
    if built.noise_sigma > 0:
        y = y + built.noise_sigma * rng.standard_normal(built.A.out_dim)
    return x_true, y


class HeadPeel(NamedTuple):
    """A unitary DFT U that heads ``A`` and every member, and the
    experiment's inputs in the coordinates x̂ = U x."""

    U: DiscreteFourier
    A: object
    ensemble: DegradationEnsemble
    prior: GmmPrior
    restorer: object


def _behind_head(op, shape):
    """op with its leading ``DiscreteFourier`` of ``shape`` removed, else None."""
    head, *rest = op.stages if isinstance(op, Composition) else (op,)
    if not isinstance(head, DiscreteFourier) or head.shape != shape:
        return None
    if not rest:
        return Identity(head.out_dim)
    return rest[0] if len(rest) == 1 else Composition(rest)


def _peel(built):
    A = built.A
    U = A.stages[0] if isinstance(A, Composition) else A
    if not isinstance(U, DiscreteFourier) or not built.prior.is_isotropic:
        return None
    ops = [_behind_head(H, U.shape) for H in (A, *built.ensemble.members)]
    try:
        exact, links = _unwrap(built.restorer)
    except TypeError:
        return None
    if any(op is None for op in ops) or exact.prior is not built.prior:
        return None
    prior = built.prior
    prior = GmmPrior(prior.weights, U.apply(prior.means), list(prior.covariances))
    restorer = ExactMmse(prior, exact.sigma)
    for link in links:
        # an offset c becomes U c; a gain commutes with U, since its centre
        # is the peeled prior's mean U μ̄; smoothing does not commute
        p = link.perturbation
        if isinstance(p, ConstantOffset):
            p = ConstantOffset(U.apply(np.broadcast_to(p.offset, (U.in_dim,))))
        elif not isinstance(p, Gain):
            return None
        restorer = Biased(restorer, p)
    ens = built.ensemble
    ensemble = DegradationEnsemble(ops[1:], ens.sigma, ens.weights)
    return HeadPeel(U, ops[0], ensemble, prior, restorer)


def shared_head_peel(built):
    """The experiment's inputs behind a shared unitary DFT head, or None.

    U orthogonal makes x̂ = U x map the iteration onto itself: ``A`` and the
    members lose their head (a masked Fourier operator becomes a bare mask),
    and the prior becomes (U μ_k, c_k I). The peel is taken when ``A`` and
    every member start with a ``DiscreteFourier`` of one shape, the prior is
    isotropic and the restorer is the exact posterior mean of that prior,
    wrapped only in constant offsets and gains; otherwise this returns None.
    Solves behind the head agree with the unpeeled ones to rounding, not bit
    for bit. The peel is built on first use and kept on ``built``, so the
    peeled posteriors' caches persist across passes.
    """
    cache = vars(built)
    if "_head_peel" not in cache:
        # setdefault keeps the first peel when threaded seeds race to build one
        cache.setdefault("_head_peel", _peel(built))
    return cache["_head_peel"]


def _solver_inputs(built, y):
    """(problem, regularizer, restorer, U): behind the shared head U when one
    peels, else the experiment's own inputs with U None."""
    peel = shared_head_peel(built)
    if peel is None:
        reg = Regularizer(tau=built.tau, prior=built.prior, ens=built.ensemble)
        return Problem(built.A, y), reg, built.restorer, None
    reg = Regularizer(tau=built.tau, prior=peel.prior, ens=peel.ensemble)
    return Problem(peel.A, y), reg, peel.restorer, peel.U


def _solve(inputs, scfg, psnr_fn=None):
    """``solver.run`` on ``_solver_inputs``. Behind a head U, an explicit
    start point is moved to U x0, and a divergence reports its last iterate
    in the original coordinates."""
    problem, reg, restorer, U = inputs
    if U is None:
        return solver_run(problem, reg, restorer, scfg, psnr_fn=psnr_fn)
    if not isinstance(scfg.x0, str):
        scfg = replace(scfg, x0=U.apply(scfg.x0))
    try:
        return solver_run(problem, reg, restorer, scfg, psnr_fn=psnr_fn)
    except DivergenceError as exc:
        exc.last_iterate = U.adjoint_apply(exc.last_iterate)
        raise


def _to_image(built, v):
    if built.image_complex:
        return magnitude(v).reshape(built.image_shape)
    if built.image_shape is not None:
        return np.asarray(v, dtype=float).reshape(built.image_shape)
    return np.asarray(v, dtype=float)


def run_single(built, seed_value):
    """One simulate -> solve -> score pass; returns (MetricsRow, Trace, extras)."""
    cfg = built.cfg
    t0 = time.perf_counter()
    sim_rng, solver_seed = _seed_streams(cfg.seed, seed_value)
    x_true, y = simulate_measurement(built, sim_rng)
    inputs = _solver_inputs(built, y)
    U = inputs[3]
    back = (lambda v: v) if U is None else U.adjoint_apply
    scfg = replace(built.solver, seed=solver_seed)

    want_psnr = built.metrics["psnr"]
    want_ssim = built.metrics["ssim"]
    if want_psnr or want_ssim:
        img_true = _to_image(built, x_true)
        flat_true = img_true.ravel()
        peak = built.metrics["psnr_peak"] or float(np.max(np.abs(img_true)))
    psnr_fn = ((lambda x: psnr(_to_image(built, back(x)).ravel(), flat_true, peak).db)
               if want_psnr else None)

    x_final, trace = _solve(inputs, scfg, psnr_fn)
    x_final = trace.x_final = back(x_final)

    psnr_db = ssim_val = None
    capped = False
    if want_psnr or want_ssim:
        img_hat = _to_image(built, x_final)
        if want_psnr:
            value = psnr(img_hat.ravel(), flat_true, peak)
            psnr_db, capped = value.db, value.capped
        if want_ssim and img_hat.ndim == 2:
            ssim_val = ssim(img_hat, img_true, peak=peak)

    f_final = float(trace.f_value[-1]) if trace.f_value is not None else None
    wall_ms = 1000.0 * (time.perf_counter() - t0)
    row = MetricsRow(
        run_id=cfg.name,
        seed=int(seed_value),
        psnr_db=psnr_db,
        ssim=ssim_val,
        f_final=f_final,
        iters=scfg.iterations,
        wall_ms=wall_ms,
        psnr_capped=capped,
    )
    return row, trace, x_final, x_true


@dataclass
class ExperimentResult:
    rows: list
    traces: dict  # seed -> Trace
    out_dir: Path
    report: dict


def _write_summary(path, rows):
    with open(path, "w", newline="") as fh:
        fh.write(SUMMARY_HEADER + "\n")
        for row in rows:
            fh.write(",".join(row.csv_cells()) + "\n")


def _write_curves(path, traces):
    seeds = sorted(traces)
    steps = np.stack([traces[s].step_sq for s in seeds])
    has_psnr = all(traces[s].psnr is not None for s in seeds)
    psnrs = np.stack([traces[s].psnr for s in seeds]) if has_psnr else None
    with open(path, "w", newline="") as fh:
        fh.write(CURVES_HEADER + "\n")
        for k in range(steps.shape[1]):
            cells = [str(k + 1)]
            col = steps[:, k]
            cells += [repr(float(v)) for v in
                      (col.mean(), col.std(), col.min(), col.max())]
            if psnrs is not None:
                col = psnrs[:, k]
                cells += [repr(float(v)) for v in
                          (col.mean(), col.std(), col.min(), col.max())]
            else:
                cells += ["", "", "", ""]
            fh.write(",".join(cells) + "\n")


def run_experiment(cfg, threads=1, out_dir=None, curves=False, quiet=True):
    """Execute all configured seeds and write the artifact set.

    Partial results are flushed as each seed finishes, so a failing seed
    leaves the completed ones on disk.
    """
    built = cfg if isinstance(cfg, BuiltExperiment) else build_experiment(cfg)
    cfg = built.cfg
    out = Path(out_dir if out_dir is not None else cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    rows = {}
    traces = {}
    wall = {}

    def one(seed_value):
        row, trace, x_final, x_true = run_single(built, seed_value)
        trace.to_csv(out / f"trace_seed{seed_value}.csv")
        arrayio.write_array(out / f"final_seed{seed_value}.f64", x_final)
        arrayio.write_array(out / f"truth_seed{seed_value}.f64", x_true)
        return seed_value, row, trace

    if threads > 1:
        with ThreadPoolExecutor(max_workers=int(threads)) as pool:
            for seed_value, row, trace in pool.map(one, cfg.seeds):
                rows[seed_value] = row
                traces[seed_value] = trace
                wall[seed_value] = row.wall_ms
    else:
        for seed_value in cfg.seeds:
            seed_value, row, trace = one(seed_value)
            rows[seed_value] = row
            traces[seed_value] = trace
            wall[seed_value] = row.wall_ms
            if not quiet:
                p = "" if row.psnr_db is None else f" psnr={row.psnr_db:.2f}dB"
                print(f"seed {seed_value}: done{p}")

    ordered = [rows[s] for s in cfg.seeds]
    _write_summary(out / "summary.csv", ordered)
    if curves:
        _write_curves(out / "curves.csv", traces)

    report = {
        "config": cfg.to_dict(),
        "rows": [
            {
                "run_id": r.run_id,
                "seed": r.seed,
                "psnr_db": r.psnr_db,
                "ssim": r.ssim,
                "f_final": r.f_final,
                "iters": r.iters,
                "wall_ms": r.wall_ms,
                "psnr_capped": r.psnr_capped,
            }
            for r in ordered
        ],
        "wall_ms_total": sum(wall.values()),
        "notes": [
            "summary.csv wall_ms column is fixed at 0 to keep outputs "
            "byte-deterministic; measured timings are in this report",
            "ssim uses a uniform 7x7 window with C1=(0.01 peak)^2, "
            "C2=(0.03 peak)^2",
        ],
    }
    with open(out / "report.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")

    return ExperimentResult(rows=ordered, traces=traces, out_dir=out, report=report)


def audit_experiment(cfg, probes=None, slack=0.05):
    """Run all seeds against one shared simulated problem and audit the bound.

    The audit compares seeds of the same problem instance, so the ground
    truth and measurement are simulated once from the root seed.
    """
    built = cfg if isinstance(cfg, BuiltExperiment) else build_experiment(cfg)
    cfg = built.cfg
    sim_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0]))
    _, y = simulate_measurement(built, sim_rng)
    inputs = _solver_inputs(built, y)

    runs = []
    for seed_value in cfg.seeds:
        _, solver_seed = _seed_streams(cfg.seed, seed_value)
        scfg = replace(built.solver, seed=solver_seed, record_iterates=True)
        _, trace = _solve(inputs, scfg)
        runs.append((*inputs[:3], scfg, trace))
    return audit_convergence(runs, probes=probes or AuditProbes(), slack=slack)

"""Experiment harness: simulate, solve all seeds in lockstep, score, and
emit artifacts.

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
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import arrayio
from .config import BuiltExperiment, build_experiment
from .metrics import mean_squared_error, psnr, psnr_db, ssim
from .objective import Problem, Regularizer
from .operators import Composition, DegradationEnsemble, DiscreteFourier, Identity
from .priors import GmmPrior
from .restoration import Biased, ConstantOffset, ExactMmse, Gain
from .solver import DivergenceError, audit_convergence, run as solver_run

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
    """Ground truth (the file's, else sampled) and measurement y = A x + e."""
    x_true = built.prior.sample(rng) if built.truth is None else built.truth
    y = built.A.apply(x_true)
    sigma = built.cfg.problem["noise_sigma"]
    if sigma > 0:
        y = y + sigma * rng.standard_normal(built.A.out_dim)
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
    exact = built.restorer.exact
    if any(op is None for op in ops) or exact.prior is not built.prior:
        return None
    prior = built.prior
    prior = GmmPrior(prior.weights, U.apply(prior.means), list(prior.covariances))
    restorer = ExactMmse(prior, exact.sigma)
    for p in built.restorer.perturbations:
        # an offset c becomes U c; a gain commutes with U, since its centre
        # is the peeled prior's mean U μ̄; smoothing does not commute
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
        cache["_head_peel"] = _peel(built)
    return cache["_head_peel"]


def _solver_inputs(built):
    """(A, regularizer, restorer, U): behind the shared head U when one
    peels, else the experiment's own inputs with U None."""
    peel = shared_head_peel(built)
    if peel is None:
        reg = Regularizer(tau=built.tau, prior=built.prior, ens=built.ensemble)
        return built.A, reg, built.restorer, None
    reg = Regularizer(tau=built.tau, prior=peel.prior, ens=peel.ensemble)
    return peel.A, reg, peel.restorer, peel.U


def _solve(inputs, problems, scfgs, score=None):
    """``solver.run`` on ``_solver_inputs`` for S seeds in lockstep, one
    problem per seed; returns a Trace or ``DivergenceError`` per seed.
    Behind a head U, an explicit start point is moved to U x0, the PSNR
    scorer sees iterates behind the head, and final and last finite
    iterates are mapped back to the original coordinates."""
    _, reg, restorer, U = inputs
    if U is not None:
        scfgs = [c if isinstance(c.x0, str) else replace(c, x0=U.apply(c.x0))
                 for c in scfgs]
    outcomes = solver_run(problems, reg, restorer, scfgs, psnr_fn=score)
    if U is not None:
        for out in outcomes:
            if isinstance(out, DivergenceError):
                out.last_iterate = U.adjoint_apply(out.last_iterate)
            else:
                out.x_final = U.adjoint_apply(out.x_final)
    return outcomes


def _pixels(built, v):
    """The image pixels of v along its last axis: the magnitudes of a
    complex image, read through a complex view of v (``metrics.magnitude``
    without its copy), else v itself."""
    image = built.cfg.image
    if image is not None and image["complex"]:
        return np.abs(np.ascontiguousarray(v, dtype=float).view(np.complex128))
    return np.asarray(v, dtype=float)


def _to_image(built, v):
    image = built.cfg.image
    pixels = _pixels(built, v)
    return pixels if image is None else pixels.reshape(image["shape"])


def _block_psnr(built, U, refs):
    """The lockstep block's PSNR scorer (``solver.run``'s ``psnr_fn``),
    called once per chunk of iterations: the live seeds' iterates of the
    chunk, stacked row by row with each row's seed in ``ids``, behind the
    head U when it is not None, are mapped back by one ``U._adjoint`` and
    scored row by row against their seeds' truth images, each row
    ``metrics.psnr(...).db`` bit for bit. The block is the solver loop's
    own array, so the core adjoint runs unchecked."""
    truths = np.stack([img.ravel() for img, _ in refs])
    peaks = np.array([peak for _, peak in refs])
    if not np.all(peaks > 0):
        raise ValueError("peak must be positive")

    def score(x, ids):
        if U is not None:
            x = U._adjoint(x)
        return psnr_db(mean_squared_error(_pixels(built, x), truths[ids]), peaks[ids])[0]

    return score


def run_seeds(built, seed_values):
    """Simulate, solve in lockstep and score the given seeds.

    Each seed simulates its own truth and measurement from its own streams,
    and the solves advance as one block (``solver.run``). Returns one entry
    per seed, in order: (MetricsRow, Trace, x_final, x_true), or the seed's
    ``DivergenceError``. A row's ``wall_ms`` is the block's wall time shared
    equally among its seeds.
    """
    cfg = built.cfg
    t0 = time.perf_counter()
    streams = [_seed_streams(cfg.seed, s) for s in seed_values]
    truths, ys = zip(*(simulate_measurement(built, sim_rng) for sim_rng, _ in streams))
    scfgs = [replace(built.solver, seed=solver_seed) for _, solver_seed in streams]

    inputs = _solver_inputs(built)
    want_psnr, want_ssim = cfg.metrics["psnr"], cfg.metrics["ssim"]
    refs = [None] * len(truths)  # each truth's image and peak, when scored
    if want_psnr or want_ssim:
        refs = [(img, cfg.metrics["psnr_peak"] or float(np.max(np.abs(img))))
                for img in (_to_image(built, x) for x in truths)]
    score = _block_psnr(built, inputs[3], refs) if want_psnr else None

    problems = [Problem(inputs[0], y) for y in ys]
    outcomes = _solve(inputs, problems, scfgs, score)
    wall_ms = 1000.0 * (time.perf_counter() - t0) / len(seed_values)
    results = []
    for seed_value, trace, x_true, ref in zip(seed_values, outcomes, truths, refs):
        if isinstance(trace, DivergenceError):
            results.append(trace)
            continue
        psnr_db = ssim_val = None
        capped = False
        if ref is not None:
            img_true, peak = ref
            img_hat = _to_image(built, trace.x_final)
            if want_psnr:
                value = psnr(img_hat.ravel(), img_true.ravel(), peak)
                psnr_db, capped = value.db, value.capped
            if want_ssim and img_hat.ndim == 2:
                ssim_val = ssim(img_hat, img_true, peak=peak)
        row = MetricsRow(
            run_id=cfg.name,
            seed=int(seed_value),
            psnr_db=psnr_db,
            ssim=ssim_val,
            f_final=float(trace.f_value[-1]) if trace.f_value is not None else None,
            iters=built.solver.iterations,
            wall_ms=wall_ms,
            psnr_capped=capped,
        )
        results.append((row, trace, trace.x_final, x_true))
    return results


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
    """Execute all configured seeds in one lockstep block and write the
    artifact set.

    Every seed's trace, final and truth files are written once the block
    has finished. If any seed diverged, the first diverged seed's
    ``DivergenceError``, in config order, is then raised, and neither
    ``summary.csv`` nor ``report.json`` is written. ``threads`` accepts only
    1; the seeds share one block, so there is nothing to spread over
    threads.
    """
    if threads != 1:
        raise ValueError(f"threads must be 1, got {threads!r}: seeds run in one lockstep block")
    built = cfg if isinstance(cfg, BuiltExperiment) else build_experiment(cfg)
    cfg = built.cfg
    out = Path(out_dir if out_dir is not None else cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    results = run_seeds(built, cfg.seeds)
    ordered, traces = [], {}
    for seed_value, result in zip(cfg.seeds, results):
        if isinstance(result, DivergenceError):
            continue
        row, trace, x_final, x_true = result
        trace.to_csv(out / f"trace_seed{seed_value}.csv")
        arrayio.write_array(out / f"final_seed{seed_value}.f64", x_final)
        arrayio.write_array(out / f"truth_seed{seed_value}.f64", x_true)
        ordered.append(row)
        traces[seed_value] = trace
        if not quiet:
            p = "" if row.psnr_db is None else f" psnr={row.psnr_db:.2f}dB"
            print(f"seed {seed_value}: done{p}")
    for result in results:
        if isinstance(result, DivergenceError):
            raise result

    _write_summary(out / "summary.csv", ordered)
    if curves:
        _write_curves(out / "curves.csv", traces)

    report = {
        "config": cfg.to_dict(),
        "rows": [asdict(r) for r in ordered],
        "wall_ms_total": sum(r.wall_ms for r in ordered),
        "notes": [
            "summary.csv wall_ms column is fixed at 0 to keep outputs "
            "byte-deterministic; measured timings are in this report",
            "the seeds run as one lockstep block; each row's wall_ms is the "
            "block's wall time divided by its seed count",
            "ssim uses a uniform 7x7 window with C1=(0.01 peak)^2, "
            "C2=(0.03 peak)^2",
        ],
    }
    with open(out / "report.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")

    return ExperimentResult(rows=ordered, traces=traces, out_dir=out, report=report)


def audit_experiment(cfg, probes=None):
    """Run all seeds against one shared simulated problem and audit the bound.

    The audit compares seeds of the same problem instance, so the ground
    truth and measurement are simulated once from the root seed. The seeds
    advance in one lockstep block; a divergence raises the first diverged
    seed's ``DivergenceError``, in config order.
    """
    built = cfg if isinstance(cfg, BuiltExperiment) else build_experiment(cfg)
    cfg = built.cfg
    sim_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0]))
    _, y = simulate_measurement(built, sim_rng)
    scfgs = [replace(built.solver, seed=_seed_streams(cfg.seed, s)[1], record_iterates=True)
             for s in cfg.seeds]
    inputs = _solver_inputs(built)
    problem = Problem(inputs[0], y)
    traces = _solve(inputs, [problem] * len(scfgs), scfgs)
    for trace in traces:
        if isinstance(trace, DivergenceError):
            raise trace
    return audit_convergence(problem, *inputs[1:3], scfgs[0], traces, probes=probes)

"""Stochastic restoration-prior gradient descent and its convergence auditor.

Each iteration selects a degradation operator H, degrades the current
iterate (s = H x + n with fresh noise every iteration), and steps along

    ghat = ∇g(x) + (tau / sigma²) Hᵀ H (x - R(s, H)).

RNG protocol (load-bearing for reproducibility): the run seed feeds a
SeedSequence whose first two children drive operator selection and noise,
in that order. Selection strategies therefore never perturb the noise
stream, so a one-member ensemble under iid selection is bit-identical to a
fixed-index run at the same seed. A ``run`` call advances its seeds in
lockstep as one (S, n) block, a single seed as a (1, n) block; each seed
keeps its own two streams and draws its noise in its own draw order, so
the protocol is per seed.

The auditor checks the biased-SGD bound

    mean_k E||∇f(x^{k-1})||² <= (2 / (gamma t)) (f(x⁰) - f*) + gamma L nu² + eps²

with L from the fidelity norm plus the exact regularizer curvature, f* the
exact minimum, and nu² and eps exact at probe points along the trajectory
(``objective.exact_audit_terms``), all from the single-Gaussian closed forms,
so the audit takes no probe draws. Audits without those closed forms, such
as mixtures, are refused. The bound counts as held within a fixed 5 % slack.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .objective import (
    ClosedFormUnavailable,
    exact_audit_terms,
    fidelity_lipschitz,
    gaussian_objective_minimum,
    regularizer_step,
)

TRACE_HEADER = "k,op_index,step_sq,grad_hat_norm,grad_true_norm,f_value,psnr"

# Default audit probes: this many iterates per run, evenly spaced, and at most
# _PROBE_CAP in all, evenly thinned.
_PROBES_PER_RUN = 4
_PROBE_CAP = 32

# Relative slack within which the audit's bound counts as passed.
_AUDIT_SLACK = 0.05

# Iterations whose diagnostic columns (the norms, f and PSNR, which feed no
# iterate) are buffered and then evaluated together in one stacked call each.
_DIAG_CHUNK = 16


class DivergenceError(RuntimeError):
    """Iterates left the finite range; carries the last finite iterate."""

    def __init__(self, iteration, last_iterate):
        self.iteration = int(iteration)
        self.last_iterate = last_iterate
        super().__init__(
            f"non-finite iterate at iteration {iteration}; "
            "reduce the step size (last finite iterate attached)"
        )


@dataclass
class SolverConfig:
    """The iteration's settings; its weight tau lives on the ``Regularizer``."""

    gamma: float
    iterations: int
    selection: str = "iid-by-weights"  # iid-by-weights | cyclic | fixed
    fixed_index: int = 0
    batch: int = 1
    seed: int = 0
    x0: object = "adjoint"  # "zeros" | "adjoint" | explicit vector
    record_iterates: bool = False

    def __post_init__(self):
        if self.gamma < 0:
            raise ValueError("gamma must be non-negative")
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        if self.batch < 1:
            raise ValueError("batch must be at least 1")
        if self.selection not in ("iid-by-weights", "cyclic", "fixed"):
            raise ValueError(f"unknown selection strategy {self.selection!r}")
        if self.batch > 1 and self.selection != "iid-by-weights":
            raise ValueError("batch > 1 requires iid-by-weights selection")


@dataclass
class Trace:
    op_index: np.ndarray
    step_sq: np.ndarray
    grad_hat_norm: np.ndarray
    grad_true_norm: np.ndarray | None
    f_value: np.ndarray | None
    psnr: np.ndarray | None
    f_initial: float | None
    x_final: np.ndarray
    iterates: np.ndarray | None = None

    def __len__(self):
        return len(self.op_index)

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            fh.write(self.csv_text())

    def csv_text(self):
        lines = [TRACE_HEADER]
        for i in range(len(self)):
            cells = [
                str(i + 1),
                str(int(self.op_index[i])),
                _fmt(self.step_sq[i]),
                _fmt(self.grad_hat_norm[i]),
                _fmt(self.grad_true_norm[i]) if self.grad_true_norm is not None else "",
                _fmt(self.f_value[i]) if self.f_value is not None else "",
                _fmt(self.psnr[i]) if self.psnr is not None else "",
            ]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def _fmt(v):
    return repr(float(v))


def solver_streams(seed):
    """(selection_rng, noise_rng) exactly as the solver derives them."""
    sel_seq, noise_seq = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(sel_seq), np.random.default_rng(noise_seq)


def _selection_stream(cfg, ens, rng):
    """Member indices for every iteration, shape (iterations, batch).

    iid selection draws the whole stream in one ``choice`` call, which yields
    the same indices as one ``choice`` of size ``batch`` per iteration, or
    one scalar ``choice(ens.size, p=ens.weights)`` per iteration when batch
    is 1. Cyclic and fixed selection draw nothing.
    """
    t = cfg.iterations
    if cfg.selection == "iid-by-weights":
        return rng.choice(ens.size, size=(t, cfg.batch), p=ens.weights)
    if cfg.selection == "cyclic":
        return (np.arange(t) % ens.size).reshape(t, 1)
    return np.full((t, 1), int(cfg.fixed_index))


def _initial_point(cfg, problem):
    if isinstance(cfg.x0, str):
        if cfg.x0 == "zeros":
            return np.zeros(problem.A.in_dim)
        if cfg.x0 == "adjoint":
            return problem.A.adjoint_apply(problem.y)
        raise ValueError(f"unknown x0 spec {cfg.x0!r}")
    x0 = np.asarray(cfg.x0, dtype=float)
    if x0.shape != (problem.A.in_dim,):
        raise ValueError(f"x0 must have length {problem.A.in_dim}")
    return x0.copy()


def _auto_diagnostics(reg):
    """The regularizer's closed forms when the prior is a single Gaussian
    within their dense cap, else None."""
    try:
        return reg.gaussian_forms
    except ClosedFormUnavailable:
        return None


# Settings the seeds of one lockstep block share; seed and x0 may differ.
_SHARED = ("gamma", "iterations", "selection", "fixed_index", "batch", "record_iterates")


def run(problem, reg, restorer, cfg, *, psnr_fn=None):
    """Execute the iteration for one seed, or for S seeds in lockstep.

    One seed: ``cfg`` a ``SolverConfig``; returns (final iterate, Trace) and
    raises ``DivergenceError``. S seeds: ``cfg`` and ``problem`` are
    sequences of S, the configs differing at most in seed and x0 and the
    problems sharing one A; returns per seed its Trace or the
    ``DivergenceError`` that ended it.

    ``psnr_fn`` fills the trace's PSNR column; None leaves it empty. For one
    seed it is a callable of an iterate returning its PSNR, called once per
    iterate and in order, but only at the end of each chunk of up to
    ``_DIAG_CHUNK`` iterations. For S seeds it is one block scorer, called
    once per chunk of c iterations as ``psnr_fn(X, ids)``: X holds the live
    seeds' new iterates of those iterations, shape (c S', n), iteration by
    iteration with the seeds in block order within each, ``ids`` lists the
    config index of each row's seed, and it returns the c S' PSNR values in
    row order. A seed that diverges has no trace, so the iterates of its
    last chunk are not scored. The scorer may keep the arrays it is handed.

    Every call runs one loop: the seeds advance as one (S, n) iterate block
    with an (S, m) residual block, each with its own selection and noise
    streams, and share every per-call cost: one product with A per
    iteration and one restore of all S b draws when every member is
    diagonal and the restorer's prior isotropic (``ExactMmse.stacked``,
    decided once per member tuple), else one per (batch slot, member)
    drawn. One seed is a (1, n) block. A seed whose iterate goes non-finite
    leaves the block with the iteration and last finite iterate of its solo
    run; the others go on. Each row is its solo run bit for bit where every
    operation runs row by row; products that become matrix-matrix (a dense
    operator, a mixture's responsibility-weighted means on the grouped
    path) agree to rounding.

    Per-iteration objective values and true-gradient norms come from the
    single-Gaussian closed forms when available; otherwise those trace
    columns stay empty. The loop carries the residual R = A X - Y: each
    iteration makes one ``A._adjoint`` (the fidelity gradient Aᵀ R, shared
    by ghat and the true-gradient norm) and one ``A._apply`` (the next
    residual, which also gives f) on the whole block, plus one ``A._apply``
    for the start block. The start points are checked at entry and every
    later operand is an array the loop made itself, so the loop and its
    stochastic step call the operator cores, not the validating public
    ``apply`` / ``adjoint_apply`` / ``gram_apply``. The trace's norm, f and
    PSNR columns feed no iterate, so they are evaluated once per chunk, one
    stacked call each, every entry bit for bit its per-iteration value.
    """
    if isinstance(cfg, SolverConfig):
        score = None if psnr_fn is None else (lambda X, ids: [psnr_fn(x) for x in X])
        (out,) = _lockstep([problem], reg, restorer, [cfg], score)
        if isinstance(out, DivergenceError):
            raise out
        return out.x_final, out
    if psnr_fn is not None and not callable(psnr_fn):
        raise TypeError("psnr_fn for S seeds must be one block scorer, psnr_fn(X, ids)")
    return _lockstep(list(problem), reg, restorer, list(cfg), psnr_fn)


def _lockstep(problems, reg, restorer, cfgs, score):
    """``run``'s loop over a block of len(cfgs) seeds; ``score`` is the
    block form of ``psnr_fn``."""
    if not cfgs or len(problems) != len(cfgs):
        raise ValueError("lockstep needs one problem per config")
    cfg = cfgs[0]
    if any(getattr(c, f) != getattr(cfg, f) for c in cfgs[1:] for f in _SHARED):
        raise ValueError(f"lockstep seeds must share {', '.join(_SHARED)}")
    A = problems[0].A
    if any(p.A is not A for p in problems[1:]):
        raise ValueError("lockstep seeds must share the forward operator")
    ens = reg.ens
    if restorer.exact.sigma != ens.sigma:
        raise ValueError(
            f"restorer noise level {restorer.exact.sigma} does not match "
            f"ensemble sigma {ens.sigma}"
        )
    if cfg.selection == "fixed" and not 0 <= cfg.fixed_index < ens.size:
        raise ValueError(f"fixed index {cfg.fixed_index} out of range")

    forms = _auto_diagnostics(reg)
    seeds, t = len(cfgs), cfg.iterations
    streams = [solver_streams(c.seed) for c in cfgs]
    draws = np.stack([_selection_stream(cfg, ens, sel) for sel, _ in streams], axis=1)
    rngs = [noise for _, noise in streams]  # the block rows' noise streams
    x = np.stack([_initial_point(c, p) for c, p in zip(cfgs, problems)])
    y = np.stack([p.y for p in problems])
    n = x.shape[1]

    # per seed and iteration; the norm columns hold squares until the end
    step_sq, grad_hat_norm = np.zeros((seeds, t)), np.zeros((seeds, t))
    grad_true_norm = np.zeros((seeds, t)) if forms is not None else None
    f_value = np.zeros((seeds, t)) if forms is not None else None
    psnr_vals = np.zeros((seeds, t)) if score is not None else None
    iterates = np.zeros((seeds, t + 1, n)) if cfg.record_iterates else None
    if iterates is not None:
        iterates[:, 0] = x
    outcomes = [None] * seeds
    ids = list(range(seeds))  # the seed of each block row
    live = slice(None)  # the live seeds' trace rows: all until one diverges

    # The diagnostic columns feed no iterate. Each iteration copies what they
    # need into chunk buffers, one row per seed: ghat_k and x_{k+1}, and for
    # the closed forms fg_k and r_{k+1}; x_buf[0] holds the chunk's start
    # iterate. Each chunk then fills the columns with one stacked call each,
    # every entry the bits of its per-iteration value, since the row dots,
    # the closed forms and the scorer all work row by row.
    chunk = min(_DIAG_CHUNK, t)
    ghat_buf = np.empty((chunk, seeds, n))
    if forms is not None:
        fg_buf, r_buf = np.empty((chunk, seeds, n)), np.empty((chunk, seeds, y.shape[1]))

    # overflow en route to the divergence check is expected and handled
    with np.errstate(over="ignore", invalid="ignore"):
        r = A._apply(x) - y
        f_initial = None if forms is None else 0.5 * np.vecdot(r, r) + forms.value(x)
        for k0 in range(0, t, chunk):
            c = min(chunk, t - k0)
            x_buf = np.empty((c + 1, seeds, n))  # new, so the scorer may keep its rows
            x_buf[0, live] = x
            for j in range(c):
                k = k0 + j
                fg = A._adjoint(r)
                if forms is not None:
                    fg_buf[j, live] = fg
                ghat = fg + regularizer_step(reg, restorer, x, draws[k, live], rngs)
                x_new = x - cfg.gamma * ghat
                diff = x_new - x
                sq = np.vecdot(diff, diff)  # not finite whenever a row of x_new is not
                if not np.isfinite(sq).all():
                    finite = np.isfinite(x_new).all(axis=1)
                    for i in np.flatnonzero(~finite):
                        outcomes[ids[i]] = DivergenceError(k + 1, x[i])
                    if not finite.all():
                        ids = [s for s, keep in zip(ids, finite) if keep]
                        if not ids:
                            break
                        x, x_new, ghat, diff, sq, y = (
                            a[finite] for a in (x, x_new, ghat, diff, sq, y))
                        rngs = [g for g, keep in zip(rngs, finite) if keep]
                        live = np.array(ids)
                step_sq[live, k] = sq
                ghat_buf[j, live] = ghat
                x_buf[j + 1, live] = x_new
                r = A._apply(x_new) - y
                if forms is not None:
                    r_buf[j, live] = r
                x = x_new
                if iterates is not None:
                    iterates[live, k + 1] = x
            if not ids:
                break
            # the live seeds' diagnostics of this chunk's c iterations
            cols = live, slice(k0, k0 + c)
            g = ghat_buf[:c, live]
            grad_hat_norm[cols] = np.vecdot(g, g).T
            x_next = x_buf[1:, live]
            if forms is not None:
                true_grad = fg_buf[:c, live] + forms.grad(x_buf[:c, live])
                grad_true_norm[cols] = np.vecdot(true_grad, true_grad).T
                r_c = r_buf[:c, live]
                f_value[cols] = (0.5 * np.vecdot(r_c, r_c) + forms.value(x_next)).T
            if score is not None:
                psnr_vals[cols] = np.reshape(score(x_next.reshape(-1, n), ids * c), (c, -1)).T
    for norms in (grad_hat_norm, grad_true_norm):
        if norms is not None:
            np.sqrt(norms, out=norms)

    column = lambda a, s: None if a is None else a[s]
    for i, s in enumerate(ids):
        outcomes[s] = Trace(
            op_index=draws[:, s, 0],  # a batch's first draw
            step_sq=step_sq[s],
            grad_hat_norm=grad_hat_norm[s],
            grad_true_norm=column(grad_true_norm, s),
            f_value=column(f_value, s),
            psnr=column(psnr_vals, s),
            f_initial=None if f_initial is None else float(f_initial[s]),
            x_final=x[i],
            iterates=column(iterates, s),
        )
    return outcomes


# -- convergence audit ---------------------------------------------------------


class AuditError(ValueError):
    """The audit lacks the probes, trace columns or closed forms it needs."""


@dataclass
class AuditProbes:
    """Probe points for the audit's nu² and eps.

    nu² is taken at every probe point and eps at the first 10, both exactly,
    with no draws. ``mc_variance`` and ``mc_bias`` are no longer read; they
    remain so that callers which still pass them keep working.
    """

    points: list | None = None  # explicit probe points; default: trajectory
    mc_variance: int = 40_000
    mc_bias: int = 20_000


@dataclass
class AuditReport:
    L_hat: float
    nu2_hat: float
    epsilon_hat: float
    lhs: float
    rhs: float
    passed: bool
    f_star_hat: float
    f_initial: float
    gamma: float
    iterations: int
    n_runs: int
    slack: float
    term_transient: float
    term_variance: float
    term_bias: float
    # per member at the point that sets nu2_hat: weight, variance share,
    # bias norm
    members: list
    notes: list = field(default_factory=list)

    def to_text(self):
        lines = [
            f"L_hat: {self.L_hat!r}",
            f"nu2_hat: {self.nu2_hat!r}",
            f"epsilon_hat: {self.epsilon_hat!r}",
            f"lhs: {self.lhs!r}",
            f"rhs: {self.rhs!r}",
            f"pass: {str(self.passed).lower()}",
            f"f_star_hat: {self.f_star_hat!r}",
            f"f_initial: {self.f_initial!r}",
            f"gamma: {self.gamma!r}",
            f"iterations: {self.iterations}",
            f"runs: {self.n_runs}",
            f"slack: {self.slack!r}",
            f"term_transient: {self.term_transient!r}",
            f"term_variance: {self.term_variance!r}",
            f"term_bias: {self.term_bias!r}",
        ]
        lines += [f"note: {n}" for n in self.notes]
        return "\n".join(lines) + "\n"

    def to_json_dict(self):
        return {
            "L_hat": self.L_hat,
            "nu2_hat": self.nu2_hat,
            "epsilon_hat": self.epsilon_hat,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "pass": self.passed,
            "f_star_hat": self.f_star_hat,
            "f_initial": self.f_initial,
            "gamma": self.gamma,
            "iterations": self.iterations,
            "runs": self.n_runs,
            "slack": self.slack,
            "terms": {
                "transient": self.term_transient,
                "variance": self.term_variance,
                "bias": self.term_bias,
            },
            "notes": list(self.notes),
            "members": self.members,
        }


def _trajectory_probes(traces):
    pts = []
    for trace in traces:
        if trace.iterates is None:
            continue
        count = min(_PROBES_PER_RUN, len(trace.iterates))
        idx = np.linspace(0, len(trace.iterates) - 1, count).astype(int)
        pts.extend(trace.iterates[i] for i in idx)
    if len(pts) > _PROBE_CAP:
        stride = np.linspace(0, len(pts) - 1, _PROBE_CAP).astype(int)
        pts = [pts[i] for i in stride]
    return pts


def _member_account(terms, weights):
    """Each member's weight, share of E||ghat - ∇g||², and bias norm ||b_j||
    at the probe point that sets nu2_hat."""
    i = int(np.argmax(terms.nu2))
    shares = weights * terms.moments[i]
    total = float(np.sum(shares))
    if total > 0:
        shares = shares / total
    return [
        {"weight": float(p), "variance_share": float(v), "bias_norm": float(b)}
        for p, v, b in zip(weights, shares, np.linalg.norm(terms.member_bias[i], axis=-1))
    ]


def probe_domain_note(points):
    """The caveat on a bias bound taken over ``points``."""
    max_norm = max(float(np.linalg.norm(x)) for x in points)
    return (f"probed at {len(points)} points with ||x|| <= {max_norm:.6g}; "
            "not a global bound")


def audit_convergence(problem, reg, restorer, cfg, traces, probes=None):
    """Check the averaged-gradient bound over the traces of one block of
    seeds, all solving ``problem`` with ``reg``, ``restorer`` and the gamma
    and iteration count of ``cfg``.

    The regularizer must have the single-Gaussian closed forms
    (``Regularizer.gaussian_forms``), all traces must carry true-gradient
    norms (the solver fills them from those forms), and the restorer must
    have exact audit terms (``objective.exact_audit_terms``), and gamma must
    be positive (the bound divides by it); otherwise the audit raises
    ``AuditError``. The bound passes within ``_AUDIT_SLACK``.
    """
    if not traces:
        raise AuditError("audit requires at least one run")
    if not cfg.gamma > 0:  # the bound's transient term divides by gamma * iterations
        raise AuditError(f"audit needs solver.gamma > 0, got {cfg.gamma}")
    probes = probes or AuditProbes()
    try:
        forms = reg.gaussian_forms
    except ClosedFormUnavailable as exc:
        raise AuditError(f"audit needs the single-Gaussian closed forms: {exc}") from exc

    if any(t.grad_true_norm is None for t in traces):
        raise AuditError("audit needs grad_true_norm in every trace")
    if any(t.f_initial is None for t in traces):
        raise AuditError("audit needs f values (f_initial) in every trace")

    notes = []
    lhs = float(np.mean([np.mean(t.grad_true_norm ** 2) for t in traces]))

    l_hat = fidelity_lipschitz(problem) + forms.curvature_norm()

    points = probes.points if probes.points is not None else _trajectory_probes(traces)
    points = [np.asarray(p, dtype=float) for p in points]
    if not points:
        raise AuditError(
            "no probe points: pass AuditProbes(points=...) or record iterates"
        )

    bias_points = points[:10]
    try:
        terms = exact_audit_terms(reg, restorer, points)
    except ClosedFormUnavailable as exc:
        raise AuditError(f"audit needs exact nu² and eps: {exc}") from exc
    nu2_hat = float(np.max(terms.nu2))
    eps_hat = float(np.max(np.linalg.norm(terms.bias[: len(bias_points)], axis=-1)))
    notes.append(probe_domain_note(bias_points))

    f_initial = float(traces[0].f_initial)
    _, f_star = gaussian_objective_minimum(problem, reg)

    gamma, t_iters = cfg.gamma, cfg.iterations
    term_transient = 2.0 / (gamma * t_iters) * (f_initial - f_star)
    term_variance = gamma * l_hat * nu2_hat
    term_bias = eps_hat ** 2
    rhs = term_transient + term_variance + term_bias
    passed = bool(lhs <= rhs * (1.0 + _AUDIT_SLACK))

    return AuditReport(
        L_hat=float(l_hat),
        nu2_hat=float(nu2_hat),
        epsilon_hat=float(eps_hat),
        lhs=lhs,
        rhs=float(rhs),
        passed=passed,
        f_star_hat=float(f_star),
        f_initial=f_initial,
        gamma=float(gamma),
        iterations=int(t_iters),
        n_runs=len(traces),
        slack=_AUDIT_SLACK,
        term_transient=float(term_transient),
        term_variance=float(term_variance),
        term_bias=float(term_bias),
        notes=notes,
        members=_member_account(terms, reg.ens.weights),
    )

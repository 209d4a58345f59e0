"""Span tracing around the public calls into each srp module (layer).

The tracer patches public functions and methods of the ``srp`` modules for
the duration of a traced pass and removes the patches afterwards, so
untraced passes run the program unmodified. Every wrapped call records one
span: name, start, end, parent span and trace id. Spans live in flat
in-memory arrays and are written out once, when the benchmark ends.

Trace ids: the harness opens one id per pass or set-up repetition, and each
call of a root callable (one seed solve, one audit) opens a fresh id, so the
spans of one seed or one audit share an id.
"""

from __future__ import annotations

import importlib
import math
import time
import weakref
from array import array

import numpy as np
import scipy.linalg

MODULES = ("config", "experiment", "solver", "restoration", "priors",
           "operators", "objective", "metrics", "arrayio")

# (module, attribute, span name); "Class.method" patches the class.
TARGETS = (
    ("config", "build_experiment", "config.build_experiment"),
    ("experiment", "run_experiment", "experiment.run_experiment"),
    ("experiment", "audit_experiment", "experiment.audit_experiment"),
    ("experiment", "run_single", "experiment.run_single"),
    ("experiment", "simulate_measurement", "experiment.simulate_measurement"),
    ("solver", "run", "solver.run"),
    ("solver", "select_operator", "solver.select_operator"),
    ("solver", "audit_convergence", "solver.audit_convergence"),
    ("solver", "Trace.to_csv", "solver.Trace.to_csv"),
    ("restoration", "ExactMmse.restore", "restoration.restore"),
    ("restoration", "Biased.restore", "restoration.biased_restore"),
    ("restoration", "measure_bias", "restoration.measure_bias"),
    ("restoration", "bias_vector", "restoration.bias_vector"),
    ("priors", "GmmPrior.sample", "priors.sample"),
    ("priors", "LinearGaussianPosterior.__init__", "priors.posterior_build"),
    ("priors", "LinearGaussianPosterior.posterior_mean", "priors.posterior_mean"),
    ("priors", "LinearGaussianPosterior.responsibilities", "priors.responsibilities"),
    ("priors", "LinearGaussianPosterior.component_loglik", "priors.component_loglik"),
    ("operators", "sample_degradation", "operators.sample_degradation"),
    ("operators", "gram_operator_norm", "operators.gram_operator_norm"),
    ("objective", "fidelity", "objective.fidelity"),
    ("objective", "fidelity_grad", "objective.fidelity_grad"),
    ("objective", "fidelity_lipschitz", "objective.fidelity_lipschitz"),
    ("objective", "regularizer_curvature_bound", "objective.regularizer_curvature_bound"),
    ("objective", "variance_probe", "objective.variance_probe"),
    ("objective", "gaussian_objective_minimum", "objective.gaussian_objective_minimum"),
    ("objective", "SingleGaussianForms.__init__", "objective.closed_form_build"),
    ("objective", "SingleGaussianForms.value", "objective.closed_form_value"),
    ("objective", "SingleGaussianForms.grad", "objective.closed_form_grad"),
    ("metrics", "psnr", "metrics.psnr"),
    ("metrics", "ssim", "metrics.ssim"),
    ("metrics", "magnitude", "metrics.magnitude"),
    ("arrayio", "write_array", "arrayio.write_array"),
)

# One seed solve or one audit: each call opens its own trace id.
ROOTS = {"experiment.run_single", "experiment.audit_experiment"}

# Operator methods are traced only on the experiment's labelled operators
# (the forward operator A and the ensemble members), keyed
# operators.<role>.<recipe kind>.<method>.
OPERATOR_METHODS = ("apply", "adjoint_apply", "gram_apply", "innovation_solve",
                    "innovation_logdet", "to_dense")


def _rows(args, kwargs):
    s = args[1] if len(args) > 1 else kwargs.get("s")
    shape = getattr(s, "shape", ())
    return s.size // shape[-1] if shape else 1


def _bytes(args, kwargs):
    data = args[1] if len(args) > 1 else kwargs.get("data")
    return 8 * np.asarray(data).size


def _iterations(args, kwargs):
    cfg = args[3] if len(args) > 3 else kwargs.get("cfg")
    return int(getattr(cfg, "iterations", 0))


COUNTERS = {
    "priors.posterior_mean": ("priors.posterior_mean.rows", _rows),
    "arrayio.write_array": ("arrayio.write_array.bytes", _bytes),
    "solver.run": ("solver.run.iterations", _iterations),
}


def recipe_kind(spec):
    """Label of an operator recipe; a blur followed by a fold is "blur-fold"."""
    kind = spec["kind"]
    if kind == "composition":
        stages = [s["kind"] for s in spec["stages"]]
        if stages == ["circular-convolution", "fold-downsample"]:
            return "blur-fold"
    return kind


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.trace = array("i")
        self.trace_unit = []  # trace id -> unit index (pass or set-up rep)
        self.counters = {}  # (counter, trace id) -> amount
        self._stack = []
        self._traces = []
        self._labels = weakref.WeakKeyDictionary()
        self._patches = []

    # -- trace ids ------------------------------------------------------------

    def open_unit(self, unit):
        """Start a pass or set-up repetition; its spans map to ``unit``."""
        self._traces = [self._new_trace(unit)]

    def _new_trace(self, unit):
        self.trace_unit.append(unit)
        return len(self.trace_unit) - 1

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- spans ---------------------------------------------------------------

    def _wrap(self, fn, name, root=False, counter=None):
        nid = self._name_id(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(self.start)
            stack, traces = self._stack, self._traces
            tid = self._new_trace(self.trace_unit[traces[-1]]) if root else traces[-1]
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.trace.append(tid)
            self.end.append(math.nan)
            if counter is not None:
                key = (counter[0], tid)
                self.counters[key] = self.counters.get(key, 0) + counter[1](args, kwargs)
            stack.append(i)
            traces.append(tid)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                stack.pop()
                traces.pop()

        return traced

    def _wrap_operator(self, fn, method):
        labels, ids = self._labels, {}

        def traced(op, *args, **kwargs):
            label = labels.get(op)
            if label is None:
                return fn(op, *args, **kwargs)
            inner = ids.get(label)
            if inner is None:
                inner = ids[label] = self._wrap(fn, f"operators.{label}.{method}")
            return inner(op, *args, **kwargs)

        return traced

    def label(self, built):
        """Key the built experiment's operators by role and recipe kind."""
        cfg = built.cfg
        self._labels[built.A] = "forward." + recipe_kind(cfg.problem["operator"])
        for op, spec in zip(built.ensemble.members, cfg.ensemble["members"]):
            self._labels[op] = "member." + recipe_kind(spec)

    # -- patching ---------------------------------------------------------------

    def install(self):
        mods = {m: importlib.import_module(f"srp.{m}") for m in MODULES}
        everywhere = list(mods.values()) + [importlib.import_module("srp")]
        for mod_name, attr, name in TARGETS:
            mod = mods[mod_name]
            counter = COUNTERS.get(name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                fn = None if cls is None else cls.__dict__.get(meth)
                if fn is not None:
                    self._patch(cls, meth, self._wrap(fn, name, counter=counter))
                continue
            fn = getattr(mod, attr, None)
            if fn is None:
                continue
            traced = self._wrap(fn, name, root=name in ROOTS, counter=counter)
            for m in everywhere:  # also the names other modules imported
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._patch(m, key, traced)
        base = mods["operators"].LinearOperator
        for cls in vars(mods["operators"]).values():
            if isinstance(cls, type) and issubclass(cls, base):
                for meth in OPERATOR_METHODS:
                    fn = cls.__dict__.get(meth)
                    if fn is not None:
                        self._patch(cls, meth, self._wrap_operator(fn, meth))
        self._patch(scipy.linalg, "cho_factor",
                    self._wrap(scipy.linalg.cho_factor, "operators.cho_factor"))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- results ---------------------------------------------------------------

    def arrays(self):
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "trace": np.frombuffer(self.trace, dtype=np.int32).copy(),
        }

    def save(self, path):
        """Write every span (and the name and unit tables) to an .npz file."""
        np.savez(path, names=np.array(self.names),
                 trace_unit=np.array(self.trace_unit, dtype=np.int32),
                 **self.arrays())


def self_times(start, end, parent):
    """Span duration minus the part of its interval that child spans cover.

    Children are clipped to their parent's interval and overlapping children
    are counted once.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent)
    out = end - start
    child = np.flatnonzero(parent >= 0)
    if child.size == 0:
        return out
    par = parent[child]
    lo = np.maximum(start[child], start[par])
    hi = np.minimum(end[child], end[par])
    order = np.lexsort((lo, par))
    current, reach = -1, -math.inf
    for p, a, b in zip(par[order].tolist(), lo[order].tolist(), hi[order].tolist()):
        if p != current:
            current, reach = p, -math.inf
        a = max(a, reach)
        if b > a:
            out[p] -= b - a
            reach = b
    return out


OPERATOR_KINDS = ("masked-fourier", "dense-matrix", "coordinate-mask", "identity",
                  "blur-fold", "convex-combo")
# Layers every workload reaches, so their self times are never structurally 0.
TIMED_MODULES = ("experiment", "solver", "restoration", "priors", "operators", "objective")


def layer_metrics(tracer, setup_units, pass_units):
    """Per-layer figures: set-up ones per set-up repetition, the rest per pass.

    Call counts and self times are medians over units; ratios pool every pass.
    """
    a = tracer.arrays()
    own = self_times(a["start"], a["end"], a["parent"])
    n_units = max(tracer.trace_unit) + 1
    unit = np.asarray(tracer.trace_unit)[a["trace"]]
    names = tracer.names
    key = a["name"].astype(np.int64) * n_units + unit
    size = len(names) * n_units

    def table(weights=None):
        return np.bincount(key, weights, minlength=size).reshape(len(names), n_units)

    calls, selfs, total = table(), table(own), table(a["end"] - a["start"])
    setup_units, pass_units = list(setup_units), list(pass_units)

    def pick(match):
        return [i for i, n in enumerate(names) if match(n)]

    def per_unit(tab, match, units):
        return tab[pick(match)][:, units].sum(axis=0)

    def median(tab, match, units=pass_units):
        return float(np.median(per_unit(tab, match, units)))

    def pooled(tab, match):
        return float(per_unit(tab, match, pass_units).sum())

    def counter(name):
        out = np.zeros(n_units)
        for (cname, tid), amount in tracer.counters.items():
            if cname == name:
                out[tracer.trace_unit[tid]] += amount
        return out[pass_units]

    def op(role, method):
        return lambda n: (n.startswith(f"operators.{role}.")
                          and n.endswith(f".{method}"))

    m = {}
    for name, units in (("config.build_experiment", setup_units),
                        ("priors.posterior_build", setup_units),
                        ("solver.run", pass_units),
                        ("solver.select_operator", pass_units),
                        ("restoration.restore", pass_units),
                        ("priors.posterior_mean", pass_units),
                        ("priors.responsibilities", pass_units),
                        ("priors.component_loglik", pass_units),
                        ("operators.sample_degradation", pass_units),
                        ("objective.fidelity_grad", pass_units)):
        m[f"{name}.calls"] = median(calls, name.__eq__, units)
        m[f"{name}.self_s"] = median(selfs, name.__eq__, units)
    for role, methods in (("forward", ("apply", "adjoint_apply")),
                          ("member", ("apply", "adjoint_apply", "gram_apply",
                                      "innovation_solve"))):
        for method in methods:
            m[f"operators.{role}.{method}.calls"] = median(calls, op(role, method))
            m[f"operators.{role}.{method}.self_s"] = median(selfs, op(role, method))
    for kind in OPERATOR_KINDS:
        m[f"operators.{kind}.calls"] = median(
            calls, lambda n, k=kind: n.startswith("operators.") and n.split(".")[2:3] == [k])
    for name in ("solver.audit_convergence", "solver.Trace.to_csv",
                 "restoration.measure_bias", "objective.variance_probe",
                 "metrics.psnr", "metrics.ssim", "arrayio.write_array"):
        m[f"{name}.calls"] = median(calls, name.__eq__)
    for module in TIMED_MODULES:
        m[f"{module}.self_s"] = median(selfs, lambda n, p=module + ".": n.startswith(p))

    m["operators.factorizations"] = median(calls, "operators.cho_factor".__eq__, setup_units)
    posterior_means = max(pooled(calls, "priors.posterior_mean".__eq__), 1.0)
    m["priors.posterior_mean.rows"] = float(counter("priors.posterior_mean.rows").sum()) / posterior_means
    m["operators.member.innovation_solve.per_posterior_mean"] = (
        pooled(calls, op("member", "innovation_solve")) / posterior_means)
    restores = max(pooled(calls, "restoration.restore".__eq__), 1.0)
    m["restoration.posterior_cache_hit_ratio"] = (
        1.0 - pooled(calls, "priors.posterior_build".__eq__) / restores)
    run_time = per_unit(total, "solver.run".__eq__, pass_units)
    iterations = np.maximum(counter("solver.run.iterations"), 1.0)
    m["solver.step_us"] = float(np.median(1e6 * run_time / iterations))
    m["arrayio.write_array.bytes"] = float(np.median(counter("arrayio.write_array.bytes")))
    m["trace.spans"] = float(np.median(calls[:, pass_units].sum(axis=0)))
    return m

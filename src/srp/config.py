"""Experiment configuration: a versioned JSON document, the schema that checks
it, and builders that turn its recipes into operators, priors, ensembles and
restorers. Each block and recipe kind has one table below, giving every field's
type and default (or ``REQUIRED``). A document is read once, into a frozen
``ExperimentConfig`` of checked blocks; a recipe (operator, prior, restorer) is
read once too, by its builder. The builders only construct; the checks left in
them relate one field to another. Random masks and generated priors embed their
own seeds, so the config alone reproduces a run.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass

import numpy as np

from . import arrayio
from .metrics import _SSIM_WINDOW, _ssim_constants, magnitude
from .operators import (
    CircularConvolution, Composition, ConvexCombination, CoordinateMask, DegradationEnsemble,
    DenseMatrix, DimensionMismatch, DiscreteFourier, FoldDownsample, Identity, Scale,
    interleave, masked_fourier, random_row_mask, uniform_row_mask,
)
from .priors import GmmPrior, smooth_random_field
from .restoration import Biased, ConstantOffset, ExactMmse, Gain, Smoothing
from .solver import SolverConfig

CONFIG_VERSION = 1
REQUIRED = object()  # the default of a field the config must give
LISTS = (list, tuple)  # the Python classes of a JSON list


class ConfigError(ValueError):
    pass


# -- field types: each is a function ``read(value, what)`` that checks a value and
# returns it plain (a value already read reads unchanged). Its ``doc`` follows "must
# be" in errors and the README; ``Either`` routes values of its ``json`` classes to it.


def _refuse(what, doc, value):
    raise ConfigError(f"{what} must be {doc}, got {value!r}")


def _type(doc, read, json=(), **parts):
    read.doc, read.json = doc, json
    vars(read).update(parts)
    return read


def _check(doc, ok, convert, json=(), **parts):
    """A type that refuses a value unless ``ok(value)``, then converts it."""
    return _type(doc, lambda v, what: convert(v) if ok(v) else _refuse(what, doc, v), json,
                 **parts)


def Int(minimum=0):
    """An integer of at least ``minimum``; bools, floats and strings are refused."""
    doc = {0: "a non-negative integer", -math.inf: "an integer"}.get(
        minimum, f"an integer >= {minimum}")
    return _check(doc, lambda v: (type(v) is int or isinstance(v, numbers.Integral)
                                  and not isinstance(v, bool)) and v >= minimum, int)


def Real(low=-math.inf, high=math.inf, strict=False):
    """A finite number in [low, high], above ``low`` when ``strict``."""
    def ok(v):
        try:
            x = float(v) if type(v) in (float, int) or isinstance(v, numbers.Real) and not \
                isinstance(v, bool) else math.nan
        except OverflowError:  # an integer past the float range
            return False
        return math.isfinite(x) and (x > low if strict else x >= low) and x <= high
    bound = "" if low == -math.inf else f" {'>' if strict else '>='} {low}"
    doc = "a finite number" + (f" in [{low}, {high}]" if high < math.inf else bound)
    return _check(doc, ok, float, numbers.Real)


def Squared(kind):
    """``kind``, refusing a value whose float square (in the step, PSNR) is 0 or inf."""
    def read(value, what):
        x = kind(value, what)
        return x if 0 < x * x < math.inf else _refuse(what, "a number with a finite square > 0", x)
    return _type(kind.doc, read, kind.json)


def OneOf(*values):
    """A name (or version number) from a fixed set."""
    return _check(f"one of {list(values)}", lambda v: not isinstance(v, bool) and v in values,
                   lambda v: values[values.index(v)], str)


def ListOf(item, nonempty=False, distinct=False, length=None):
    doc = (f"a {'non-empty ' * nonempty}list of {f'{length} ' if length else ''}"
           f"{'distinct ' * distinct}entries, each {item.doc}")

    def read(value, what):
        if not isinstance(value, LISTS) or (nonempty and not value) \
                or length not in (None, len(value)):
            _refuse(what, doc, value)
        label = f"{what} entry"
        entries = [item(v, label) for v in value]
        repeated = sorted({e for e in entries if entries.count(e) > 1}) if distinct else []
        if repeated:
            raise ConfigError(f"{what} must be distinct, repeated: {repeated}")
        return entries
    return _type(doc, read, LISTS, item=item)


def Shape(entries=None):
    """A grid shape: integers of at least 1 (a bare integer is 1-D)."""
    shape = ListOf(POSITIVE, nonempty=entries is None, length=entries)
    return _type(shape.doc, lambda v, what: shape(v if isinstance(v, LISTS) else [v], what))


def Array(ndim=None):
    """A finite number or rectangular nested lists of them, with ``ndim``
    levels (any, when None)."""
    doc = ("a list of equal-length lists of finite numbers" if ndim == 2
           else "a finite number or rectangular nested lists of them")

    def read(value, what):
        arr = np.array(value, dtype=object)  # ragged lists stay list entries
        if ndim not in (None, arr.ndim):
            _refuse(what, doc, value)
        for x in arr.flat:
            FINITE(x, f"{what} entry")
        return value
    return _type(doc, read, LISTS)


def Either(*alts):
    """The first alternative whose ``json`` classes hold the value reads it."""
    doc = " or ".join(a.doc for a in alts)

    def read(value, what):
        for alt in alts:
            if isinstance(value, alt.json):
                return alt(value, what)
        _refuse(what, doc, value)
    return _type(doc, read, alts=alts)


def Block(table, key=None, name=None):
    """An object with the fields of ``table`` (name -> (type, default)); a field
    whose default is None may be absent or null. With a ``key``, ``table`` maps
    each value of the key (None: absent) to the fields of that variant of
    ``name``, which are named after the value: ``identity.dim``."""
    variants = table if key else {None: table}

    def read(value, what):
        if not isinstance(value, dict):
            _refuse(what or "config", "an object", value)
        tag = value.get(key)
        if key and (not (tag is None or isinstance(tag, str)) or tag not in variants):
            raise ConfigError(f"unknown {name} {key} {tag!r}")
        fields, what = variants[tag], (tag or what) if key else what
        unknown = sorted(set(value) - set(fields) - {key})
        missing = [k for k, (_, d) in fields.items() if d is REQUIRED and k not in value]
        if unknown or missing:
            raise ConfigError(f"{'unknown' if unknown else 'missing'} {what or 'config'} "
                              f"keys: {unknown or missing}")
        out = {key: tag} if key else {}
        for k, (kind, d) in fields.items():
            v = value.get(k, d)
            out[k] = None if v is None and d is None else kind(v, f"{what}.{k}" if what else k)
        return out
    return _type("an object", read, dict, key=key, name=name, variants=variants)


def Spec(block):
    """An object that the builder of ``block`` reads: a recipe is read once."""
    return _check("an object", lambda v: isinstance(v, dict), dict, dict, spec=block)


# -- the tables -----------------------------------------------------------------

POSITIVE = Int(1)
FINITE = Real()
BOOL = _check("true or false", lambda v: isinstance(v, bool), bool)
TEXT = _check("a string", lambda v: isinstance(v, str), str)
INDICES = ListOf(Int(-math.inf))
SQUARED = Squared(Real(0, strict=True))
DIM = (POSITIVE, REQUIRED)

MASK = Block(key="type", name="mask", table={
    "uniform-rows": {"accel": DIM, "offset": (Int(), 0), "acs_lines": (Int(), 0)},
    "random-rows": {"accel": DIM, "acs_lines": (Int(), 0), "seed": (Int(), REQUIRED)},
    None: {"rows": (INDICES, REQUIRED)},  # rows in centered k-space order
})

OPERATOR = Block({}, "kind", "operator")
OPERATOR.variants.update({
    "identity": {"dim": DIM},
    "scale": {"dim": DIM, "factor": (FINITE, REQUIRED)},
    "coordinate-mask": {"dim": DIM, "keep": (INDICES, REQUIRED)},
    "dense-matrix": {"matrix": (Array(2), REQUIRED)},
    "discrete-fourier": {"shape": (Shape(), REQUIRED)},
    "circular-convolution": {"dim": DIM, "kernel": (ListOf(FINITE, nonempty=True), REQUIRED)},
    "fold-downsample": {"dim": DIM, "factor": DIM},
    "composition": {"stages": (ListOf(Spec(OPERATOR), nonempty=True), REQUIRED)},
    "convex-combo": {"alpha": (Real(0, 1), REQUIRED), "inner": (Spec(OPERATOR), REQUIRED)},
    "masked-fourier": {"shape": (Shape(2), REQUIRED), "mask": (MASK, REQUIRED)},
})

PRIOR = Block(key="type", name="prior", table={
    "explicit": {"weights": (ListOf(Real(0, strict=True), nonempty=True), REQUIRED),
                 "means": (Either(Block({"file": (TEXT, REQUIRED)}), Array(2)), REQUIRED),
                 "covariances": (Either(FINITE, ListOf(Array())), REQUIRED)},
    "gmm-recipe": {"seed": (Int(), REQUIRED), "components": DIM,
                   "cov_scale": (Real(0, strict=True), REQUIRED),
                   "shape": (Shape(2), None), "dim": (POSITIVE, None),  # one of the two
                   "smoothness": (Real(0), 1.5), "mean_scale": (FINITE, 1.0)},
})

PERTURBATION = Block(key="type", name="perturbation", table={
    "constant-offset": {"offset": (Either(FINITE, ListOf(FINITE)), REQUIRED)},
    "gain": {"lam": (FINITE, REQUIRED)},
    "smoothing": {"strength": DIM},
})
RESTORER = Block({"exact-mmse": {}}, "type", "restorer")
RESTORER.variants["biased"] = {"inner": (Spec(RESTORER), REQUIRED),
                               "perturbation": (PERTURBATION, REQUIRED)}

STRATEGY = OneOf("iid-by-weights", "cyclic", "fixed")
SOLVER = Block({
    "gamma": (Real(0), REQUIRED), "tau": (Real(0, strict=True), REQUIRED), "iterations": DIM,
    "selection": (Either(STRATEGY, Block({"strategy": (STRATEGY, REQUIRED),
                                          "index": (Int(), 0)})),
                  {"strategy": "iid-by-weights"}),  # an object: a sweep may set its strategy
    "batch": (POSITIVE, 1),
    "x0": (Either(OneOf("zeros", "adjoint"), ListOf(FINITE)), "adjoint"),
})
ENSEMBLE = Block({
    "members": (ListOf(Spec(OPERATOR), nonempty=True), REQUIRED),
    "sigma": (SQUARED, REQUIRED),
    "weights": (ListOf(Real(0)), None),  # uniform when absent
})
EXPERIMENT = Block({
    "version": (OneOf(CONFIG_VERSION), REQUIRED), "name": (TEXT, REQUIRED),
    "seed": (Int(), REQUIRED), "seeds": (ListOf(Int(), nonempty=True, distinct=True), REQUIRED),
    "output_dir": (TEXT, REQUIRED),
    "problem": (Block({
        "operator": (Spec(OPERATOR), REQUIRED),
        "ground_truth": (Block({"source": (OneOf("prior", "file"), "prior"),
                                "path": (TEXT, None)}), {}),
        "noise_sigma": (Real(0), 0.0),
    }), REQUIRED),
    "prior": (Spec(PRIOR), REQUIRED), "ensemble": (ENSEMBLE, REQUIRED),
    "restorer": (Spec(RESTORER), REQUIRED), "solver": (SOLVER, REQUIRED),
    "image": (Block({"shape": (Shape(), REQUIRED), "complex": (BOOL, False)}), None),
    "metrics": (Block({"psnr": (BOOL, True), "ssim": (BOOL, True),
                       "psnr_peak": (SQUARED, None)}), {}),  # None: truth's peak
})


@dataclass(frozen=True)
class ExperimentConfig:
    """A checked config: the fields ``EXPERIMENT`` returns, defaults filled in.
    Its recipes (operators, prior, restorer) are checked by their builders, so
    ``build_experiment`` reads no block again; ``report.json`` echoes it."""

    version: int
    name: str
    seed: int
    seeds: list
    output_dir: str
    problem: dict
    prior: dict
    ensemble: dict
    restorer: dict
    solver: dict
    image: dict | None
    metrics: dict

    @classmethod
    def from_dict(cls, d):
        return cls(**EXPERIMENT(d, ""))

    def to_dict(self):
        d = asdict(self)
        if d["image"] is None:
            d.pop("image")
        return d

    @classmethod
    def loads(cls, text):
        try:
            return cls.from_dict(json.loads(text))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON: {exc}") from exc

    @classmethod
    def load(cls, path):
        try:
            with open(path) as fh:
                text = fh.read()
        except (IsADirectoryError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.loads(text)


# -- builders: a recipe builder reads its recipe, the others take checked blocks ---


def _mask_rows(n, mask):
    if mask["type"] == "uniform-rows":
        return uniform_row_mask(n, mask["accel"], offset=mask["offset"],
                                acs_lines=mask["acs_lines"])
    if mask["type"] == "random-rows":
        rng = np.random.default_rng(mask["seed"])
        return random_row_mask(n, mask["accel"], mask["acs_lines"], rng)
    if any(not 0 <= r < n for r in mask["rows"]):
        raise ConfigError(f"mask rows out of range [0, {n}): {mask['rows']!r}")
    rows = np.zeros(n, dtype=bool)
    rows[mask["rows"]] = True
    return rows


def build_operator(spec):
    """Construct a LinearOperator from its recipe dictionary."""
    v = OPERATOR(spec, "operator")
    kind, dim = v["kind"], v.get("dim")
    if kind == "identity":
        return Identity(dim)
    if kind == "scale":
        return Scale(dim, v["factor"])
    if kind == "coordinate-mask":
        if any(not 0 <= i < dim for i in v["keep"]):
            raise ConfigError(f"coordinate-mask.keep out of range [0, {dim}): {v['keep']!r}")
        return CoordinateMask(dim, v["keep"])
    if kind == "dense-matrix":
        return DenseMatrix(v["matrix"])
    if kind == "discrete-fourier":
        return DiscreteFourier(v["shape"])
    if kind == "circular-convolution":
        if len(v["kernel"]) > dim:
            raise ConfigError(f"circular-convolution.kernel must have at most {dim} entries "
                              f"(its dim), got {len(v['kernel'])}")
        return CircularConvolution(dim, v["kernel"])
    if kind == "fold-downsample":
        return FoldDownsample(dim, v["factor"])
    if kind == "composition":
        return Composition([build_operator(s) for s in v["stages"]])
    if kind == "convex-combo":
        return ConvexCombination(v["alpha"], build_operator(v["inner"]))
    return masked_fourier(v["shape"], _mask_rows(v["shape"][0], v["mask"]))


def build_prior(spec):
    v = PRIOR(spec, "prior")
    if v["type"] == "explicit":
        means = v["means"]
        if isinstance(means, dict):
            means = np.atleast_2d(arrayio.read_array(means["file"]))
        try:
            return GmmPrior(v["weights"], means, v["covariances"])
        except DimensionMismatch:
            raise
        except ValueError as exc:  # component counts disagree, weights do not sum to 1
            raise ConfigError(f"bad explicit prior: {exc}") from exc
    shape, k = v["shape"], v["components"]
    if (shape is None) == (v["dim"] is None):
        raise ConfigError("gmm-recipe takes one of shape or dim")
    rng = np.random.default_rng(v["seed"])
    if shape is not None:  # complex image prior, interleaved storage
        means = np.stack([interleave(smooth_random_field(shape, rng, v["smoothness"]).ravel())
                          for _ in range(k)])
    else:
        means = v["mean_scale"] * rng.standard_normal((k, v["dim"]))
    covs = [np.asarray(v["cov_scale"] ** 2) for _ in range(k)]
    return GmmPrior(np.full(k, 1.0 / k), means, covs)


def build_ensemble(v):
    """The ensemble of a checked ``ensemble`` block."""
    members, weights = [build_operator(s) for s in v["members"]], v["weights"]
    if weights is not None and (len(weights) != len(members) or abs(np.sum(weights) - 1) > 1e-12):
        raise ConfigError(f"ensemble.weights must be {len(members)} numbers (one per "
                          f"member) summing to 1, got {weights!r}")
    return DegradationEnsemble(members, sigma=v["sigma"], weights=weights)


def build_restorer(spec, prior, sigma):
    v = RESTORER(spec, "restorer")
    if v["type"] == "exact-mmse":
        return ExactMmse(prior, sigma)
    inner, p = build_restorer(v["inner"], prior, sigma), v["perturbation"]
    if p["type"] == "gain":
        return Biased(inner, Gain(p["lam"]))
    if p["type"] == "smoothing":
        return Biased(inner, Smoothing(p["strength"]))
    offset = p["offset"]
    if not isinstance(offset, list):
        offset = np.full(prior.dim, offset)
    elif len(offset) != prior.dim:
        raise ConfigError(f"constant-offset.offset must have {prior.dim} entries "
                          f"(the prior dim), got {len(offset)}")
    return Biased(inner, ConstantOffset(offset))


def build_solver_config(v, seed):
    """The solver settings of a checked ``solver`` block; tau goes to the
    ``Regularizer``, not here."""
    sel = v["selection"]
    if isinstance(sel, str):
        sel = {"strategy": sel, "index": 0}
    if v["batch"] > 1 and sel["strategy"] != "iid-by-weights":
        raise ConfigError("solver.batch > 1 needs the iid-by-weights selection")
    x0 = v["x0"] if isinstance(v["x0"], str) else np.array(v["x0"], dtype=float)
    return SolverConfig(gamma=v["gamma"], iterations=v["iterations"],
                        selection=sel["strategy"], fixed_index=sel["index"],
                        batch=v["batch"], seed=int(seed), x0=x0)


# -- full experiment assembly --------------------------------------------------


@dataclass
class BuiltExperiment:
    cfg: ExperimentConfig
    A: object
    prior: GmmPrior
    ensemble: DegradationEnsemble
    restorer: object
    tau: float  # the regularizer weight, ``cfg.solver["tau"]``
    truth: np.ndarray | None  # a file ground truth, read once; None: sampled from the prior
    solver: SolverConfig  # at the config's root seed; each run replaces the seed


def build_experiment(cfg):
    """Build and cross-validate every component named by a checked config."""
    A = build_operator(cfg.problem["operator"])
    prior = build_prior(cfg.prior)
    ensemble = build_ensemble(cfg.ensemble)
    restorer = build_restorer(cfg.restorer, prior, ensemble.sigma)
    if A.in_dim != prior.dim:
        raise ConfigError(f"measurement operator in_dim {A.in_dim} != prior dim {prior.dim}")
    if ensemble.in_dim != prior.dim:
        raise ConfigError(f"ensemble in_dim {ensemble.in_dim} != prior dim {prior.dim}")
    image = cfg.image
    ssim_on = cfg.metrics["ssim"] and image is not None and len(image["shape"]) == 2
    if ssim_on and min(image["shape"]) < _SSIM_WINDOW:
        raise ConfigError(f"image.shape {image['shape']} is smaller than the {_SSIM_WINDOW}x"
                          f"{_SSIM_WINDOW} SSIM window; set metrics.ssim to false")
    peak = cfg.metrics["psnr_peak"]
    if ssim_on and peak is not None and _ssim_constants(peak) is None:
        raise ConfigError(f"metrics.psnr_peak {peak!r} makes SSIM's C1 C2 = (0.01 peak)² "
                          "(0.03 peak)² overflow; set a peak of at most 6.68e78 or "
                          "metrics.ssim to false")
    gt, truth = cfg.problem["ground_truth"], None
    if gt["source"] == "file":
        if not gt["path"]:
            raise ConfigError("ground_truth.source=file needs a path")
        truth = arrayio.read_array(gt["path"]).ravel()
        if truth.size != prior.dim:
            raise ConfigError(f"ground truth file has {truth.size} values, "
                              f"prior dim is {prior.dim}")
        if not np.all(np.isfinite(truth)):
            raise ConfigError(f"ground truth file {gt['path']} has non-finite entries")
        truth.setflags(write=False)  # one vector for every seed
    n = image and int(np.prod(image["shape"])) * (1 + image["complex"])
    if n and n != prior.dim:
        raise ConfigError(f"image spec implies vectors of length {n}, prior dim is {prior.dim}")
    # PSNR, and SSIM of a 2-D image, default to a file truth's largest pixel
    # magnitude as peak, held to the rules a set peak meets
    if truth is not None and (cfg.metrics["psnr"] or ssim_on) and peak is None:
        top = float(np.max(magnitude(truth) if image and image["complex"] else np.abs(truth)))
        what = None
        if top == 0:
            what = "is all zeros"
        elif not 0 < top * top < math.inf:
            what = f"has largest magnitude {top!r}, whose square is {top * top!r}"
        elif ssim_on and _ssim_constants(top) is None:
            what = f"has largest magnitude {top!r}, past SSIM's 6.68e78"
        if what:
            raise ConfigError(f"ground truth file {gt['path']} {what}, so PSNR and SSIM have "
                              "no peak (the truth's largest magnitude); set metrics.psnr_peak")
    scfg = build_solver_config(cfg.solver, cfg.seed)
    if scfg.selection == "fixed" and scfg.fixed_index >= ensemble.size:
        raise ConfigError(f"solver.selection.index {scfg.fixed_index} out of range for "
                          f"{ensemble.size} ensemble members")
    if not isinstance(scfg.x0, str) and len(scfg.x0) != prior.dim:
        raise ConfigError(f"solver.x0 must have {prior.dim} entries (the prior dim), "
                          f"got {len(scfg.x0)}")
    return BuiltExperiment(cfg=cfg, A=A, prior=prior, ensemble=ensemble, restorer=restorer,
                           tau=cfg.solver["tau"], truth=truth, solver=scfg)

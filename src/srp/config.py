"""Experiment configuration: a versioned JSON document plus builders that
turn recipe dictionaries into operators, priors, ensembles and restorers.

Everything a run needs is reconstructible from the config alone: random
masks and generated priors embed their own seeds. Validation builds the full
object graph and cross-checks every dimension before any computation runs.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, field

import numpy as np

from . import arrayio
from .operators import (
    CircularConvolution,
    Composition,
    ConvexCombination,
    CoordinateMask,
    DegradationEnsemble,
    DenseMatrix,
    DimensionMismatch,
    DiscreteFourier,
    FoldDownsample,
    Identity,
    Scale,
    masked_fourier,
    random_row_mask,
    uniform_row_mask,
)
from .priors import GmmPrior
from .restoration import Biased, ConstantOffset, ExactMmse, Gain, Smoothing
from .solver import SolverConfig

CONFIG_VERSION = 1


class ConfigError(ValueError):
    pass


def _integer(value, what, minimum=0):
    """An integer of at least ``minimum``; bools, floats and strings are refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        kind = "a non-negative integer" if minimum == 0 else f"an integer >= {minimum}"
        raise ConfigError(f"{what} must be {kind}, got {value!r}")
    return int(value)


def _finite(value, what):
    """A finite real number; bools, strings, nan and infinities are refused."""
    number = math.nan
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer past the float range
            pass
    if not math.isfinite(number):
        raise ConfigError(f"{what} must be a finite number, got {value!r}")
    return number


def _shape(value, what):
    """Grid shape: a list of integers of at least 1 (a bare integer is 1-D)."""
    entries = value if isinstance(value, (list, tuple)) else [value]
    return tuple(_integer(s, f"{what} entry", 1) for s in entries)


def _indices(value, what):
    """Index list of integers, range-checked by the caller (a bare integer is
    one entry); bools, floats and strings are refused, not truncated."""
    entries = value if isinstance(value, (list, tuple)) else [value]
    for i in entries:
        if isinstance(i, bool) or not isinstance(i, numbers.Integral):
            raise ConfigError(f"{what} entries must be integers, got {i!r}")
    return [int(i) for i in entries]


def _check_keys(block, known, what):
    """Refuse a block that is not an object, or that has a key nothing reads.

    Without this a misspelt key is silently ignored, and a sweep over it
    runs one experiment repeatedly.
    """
    if not isinstance(block, dict):
        raise ConfigError(f"{what} must be an object, got {block!r}")
    unknown = sorted(set(block) - set(known))
    if unknown:
        raise ConfigError(f"unknown {what} keys: {unknown}")


@dataclass
class ExperimentConfig:
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
    image: dict | None = None
    metrics: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        if d.get("version") != CONFIG_VERSION:
            raise ConfigError(f"unsupported config version {d.get('version')!r}")
        required = ("name", "seed", "seeds", "output_dir", "problem", "prior",
                    "ensemble", "restorer", "solver")
        missing = [k for k in required if k not in d]
        if missing:
            raise ConfigError(f"missing config keys: {missing}")
        known = set(required) | {"version", "image", "metrics"}
        unknown = sorted(set(d) - known)
        if unknown:
            raise ConfigError(f"unknown config keys: {unknown}")
        seed = _integer(d["seed"], "seed")
        if not isinstance(d["seeds"], (list, tuple)) or not d["seeds"]:
            raise ConfigError(f"seeds must be a non-empty list, got {d['seeds']!r}")
        seeds = [_integer(s, "seeds entry") for s in d["seeds"]]
        repeated = sorted({s for s in seeds if seeds.count(s) > 1})
        if repeated:
            raise ConfigError(f"seeds must be distinct, repeated: {repeated}")
        return cls(
            version=int(d["version"]),
            name=str(d["name"]),
            seed=seed,
            seeds=seeds,
            output_dir=str(d["output_dir"]),
            problem=d["problem"],
            prior=d["prior"],
            ensemble=d["ensemble"],
            restorer=d["restorer"],
            solver=d["solver"],
            image=d.get("image"),
            metrics=d.get("metrics", {}),
        )

    def to_dict(self):
        d = asdict(self)
        if d["image"] is None:
            d.pop("image")
        return d

    def dumps(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def loads(cls, text):
        try:
            return cls.from_dict(json.loads(text))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON: {exc}") from exc

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(self.dumps())

    @classmethod
    def load(cls, path):
        try:
            with open(path) as fh:
                text = fh.read()
        except (IsADirectoryError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.loads(text)


# -- operator recipes ------------------------------------------------------------


def _mask_rows(shape, spec):
    if "rows" in spec:
        idx = np.asarray(_indices(spec["rows"], "mask rows"), dtype=int)
        if idx.size and (idx.min() < 0 or idx.max() >= shape[0]):
            raise ConfigError(
                f"mask rows out of range [0, {shape[0]}): {spec['rows']!r}"
            )
        rows = np.zeros(shape[0], dtype=bool)
        rows[idx] = True
        return rows
    kind = spec.get("type")
    if kind not in ("uniform-rows", "random-rows"):
        raise ConfigError(f"unknown mask recipe {spec!r}")
    accel = _integer(spec["accel"], f"{kind} mask accel", 1)
    acs_lines = _integer(spec.get("acs_lines", 0), f"{kind} mask acs_lines")
    if kind == "uniform-rows":
        offset = _integer(spec.get("offset", 0), "uniform-rows mask offset")
        return uniform_row_mask(shape[0], accel, offset=offset, acs_lines=acs_lines)
    rng = np.random.default_rng(_integer(spec["seed"], "random-rows mask seed"))
    return random_row_mask(shape[0], accel, acs_lines, rng)


def _dim(spec, kind):
    return _integer(spec["dim"], f"{kind}.dim", 1)


def build_operator(spec):
    """Construct a LinearOperator from its recipe dictionary."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"operator spec needs a 'kind': {spec!r}")
    kind = spec["kind"]
    try:
        if kind == "identity":
            return Identity(_dim(spec, kind))
        if kind == "scale":
            return Scale(_dim(spec, kind), _finite(spec["factor"], "scale.factor"))
        if kind == "coordinate-mask":
            keep = _indices(spec["keep"], "coordinate-mask.keep")
            return CoordinateMask(_dim(spec, kind), keep)
        if kind == "dense-matrix":
            return DenseMatrix(spec["matrix"])
        if kind == "discrete-fourier":
            return DiscreteFourier(_shape(spec["shape"], "discrete-fourier.shape"))
        if kind == "circular-convolution":
            return CircularConvolution(_dim(spec, kind), spec["kernel"])
        if kind == "fold-downsample":
            factor = _integer(spec["factor"], "fold-downsample.factor", 1)
            return FoldDownsample(_dim(spec, kind), factor)
        if kind == "composition":
            return Composition([build_operator(s) for s in spec["stages"]])
        if kind == "convex-combo":
            alpha = _finite(spec["alpha"], "convex-combo.alpha")
            return ConvexCombination(alpha, build_operator(spec["inner"]))
        if kind == "masked-fourier":
            shape = _shape(spec["shape"], "masked-fourier.shape")
            return masked_fourier(shape, _mask_rows(shape, spec["mask"]))
    except ConfigError:
        raise
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad operator spec {spec!r}: {exc}") from exc
    raise ConfigError(f"unknown operator kind {kind!r}")


# -- prior recipes ----------------------------------------------------------------


def smooth_random_field(shape, rng, decay=1.5):
    """Random complex field with a power-law radial spectrum, peak-normalized."""
    h, w = shape
    fy = np.fft.fftfreq(h)[:, None]
    fx = np.fft.fftfreq(w)[None, :]
    radius = np.sqrt(fy ** 2 + fx ** 2)
    envelope = 1.0 / (1.0 + (radius / (1.0 / max(h, w))) ** decay)
    spectrum = envelope * (
        rng.standard_normal((h, w)) + 1j * rng.standard_normal((h, w))
    )
    field = np.fft.ifft2(spectrum)
    return field / np.max(np.abs(field))


def build_prior(spec):
    if not isinstance(spec, dict) or "type" not in spec:
        raise ConfigError(f"prior spec needs a 'type': {spec!r}")
    kind = spec["type"]
    if kind == "explicit":
        means = spec["means"]
        if isinstance(means, dict) and "file" in means:
            arr = arrayio.read_array(means["file"])
            means = np.atleast_2d(arr)
        try:
            return GmmPrior(spec["weights"], means, spec["covariances"])
        except DimensionMismatch:
            raise
        except ValueError as exc:  # weights or means out of range
            raise ConfigError(f"bad explicit prior: {exc}") from exc
    if kind == "gmm-recipe":
        rng = np.random.default_rng(_integer(spec["seed"], "gmm-recipe seed"))
        k = _integer(spec["components"], "gmm-recipe components", 1)
        cov_scale = _finite(spec["cov_scale"], "gmm-recipe cov_scale")
        if "shape" in spec:  # complex image prior, interleaved storage
            shape = _shape(spec["shape"], "gmm-recipe shape")
            if len(shape) != 2:
                raise ConfigError(
                    f"gmm-recipe shape must have 2 entries, got {spec['shape']!r}")
            decay = _finite(spec.get("smoothness", 1.5), "gmm-recipe smoothness")
            means = []
            for _ in range(k):
                field = smooth_random_field(shape, rng, decay=decay)
                re = field.real.ravel()
                im = field.imag.ravel()
                mean = np.empty(2 * re.size)
                mean[0::2] = re
                mean[1::2] = im
                means.append(mean)
            means = np.stack(means)
        else:
            dim = _integer(spec["dim"], "gmm-recipe dim", 1)
            mean_scale = _finite(spec.get("mean_scale", 1.0), "gmm-recipe mean_scale")
            means = mean_scale * rng.standard_normal((k, dim))
        weights = np.full(k, 1.0 / k)
        covs = [np.asarray(cov_scale ** 2) for _ in range(k)]
        return GmmPrior(weights, means, covs)
    raise ConfigError(f"unknown prior type {kind!r}")


# -- ensemble / restorer / solver recipes ------------------------------------------


def build_ensemble(spec):
    _check_keys(spec, ("members", "sigma", "weights"), "ensemble")
    try:
        members = [build_operator(s) for s in spec["members"]]
        weights = spec.get("weights")
        if weights is not None:
            weights = [_finite(w, "ensemble.weights entry") for w in weights]
        return DegradationEnsemble(
            members, sigma=_finite(spec["sigma"], "ensemble.sigma"), weights=weights
        )
    except ConfigError:
        raise
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad ensemble spec: {exc}") from exc


def build_restorer(spec, prior, sigma):
    kind = spec.get("type")
    if kind == "exact-mmse":
        return ExactMmse(prior, sigma)
    if kind == "biased":
        inner = build_restorer(spec["inner"], prior, sigma)
        pspec = spec["perturbation"]
        pkind = pspec.get("type")
        if pkind == "constant-offset":
            offset = pspec["offset"]
            if isinstance(offset, (list, tuple)):
                if len(offset) != prior.dim:
                    raise ConfigError(f"constant-offset.offset must have {prior.dim} "
                                      f"entries (the prior dim), got {len(offset)}")
                offset = [_finite(c, "constant-offset.offset entry") for c in offset]
            else:
                offset = np.full(prior.dim, _finite(offset, "constant-offset.offset"))
            return Biased(inner, ConstantOffset(offset))
        if pkind == "gain":
            return Biased(inner, Gain(_finite(pspec["lam"], "gain.lam")))
        if pkind == "smoothing":
            strength = _integer(pspec["strength"], "smoothing.strength", 1)
            return Biased(inner, Smoothing(strength))
        raise ConfigError(f"unknown perturbation type {pkind!r}")
    raise ConfigError(f"unknown restorer type {kind!r}")


def build_solver_config(spec, tau, seed):
    _check_keys(spec, ("gamma", "tau", "iterations", "selection", "batch", "x0"), "solver")
    sel = spec.get("selection", {"strategy": "iid-by-weights"})
    if isinstance(sel, str):
        sel = {"strategy": sel}
    _check_keys(sel, ("strategy", "index"), "solver.selection")
    x0 = spec.get("x0", "adjoint")
    if isinstance(x0, (list, tuple, np.ndarray)):
        x0 = np.array([_finite(v, "solver.x0 entry") for v in x0])
    elif x0 not in ("zeros", "adjoint"):
        raise ConfigError('solver.x0 must be "zeros", "adjoint" or a list of '
                          f"numbers, got {x0!r}")
    try:
        return SolverConfig(
            gamma=_finite(spec["gamma"], "solver.gamma"),
            tau=float(tau),
            iterations=_integer(spec["iterations"], "solver.iterations", 1),
            selection=sel["strategy"],
            fixed_index=_integer(sel.get("index", 0), "solver.selection.index"),
            batch=_integer(spec.get("batch", 1), "solver.batch", 1),
            seed=int(seed),
            x0=x0,
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad solver spec: {exc}") from exc


# -- full experiment assembly --------------------------------------------------


@dataclass
class BuiltExperiment:
    cfg: ExperimentConfig
    A: object
    prior: GmmPrior
    ensemble: DegradationEnsemble
    restorer: object
    tau: float
    noise_sigma: float
    ground_truth: dict
    image_shape: tuple | None
    image_complex: bool


def build_experiment(cfg):
    """Build and cross-validate every component named by the config."""
    _check_keys(cfg.problem, ("operator", "ground_truth", "noise_sigma"), "problem")
    try:
        A = build_operator(cfg.problem["operator"])
        prior = build_prior(cfg.prior)
        ensemble = build_ensemble(cfg.ensemble)
        tau = _finite(cfg.solver["tau"], "solver.tau")
        restorer = build_restorer(cfg.restorer, prior, ensemble.sigma)
        gt = cfg.problem.get("ground_truth", {"source": "prior"})
        noise_sigma = _finite(cfg.problem.get("noise_sigma", 0.0), "problem.noise_sigma")
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"incomplete config: {exc}") from exc

    if A.in_dim != prior.dim:
        raise ConfigError(
            f"measurement operator in_dim {A.in_dim} != prior dim {prior.dim}"
        )
    if ensemble.in_dim != prior.dim:
        raise ConfigError(
            f"ensemble in_dim {ensemble.in_dim} != prior dim {prior.dim}"
        )
    if tau <= 0:
        raise ConfigError(f"solver.tau must be positive, got {tau!r}")
    if noise_sigma < 0:
        raise ConfigError("noise_sigma must be non-negative")
    if gt.get("source") == "file":
        path = gt.get("path")
        if not path:
            raise ConfigError("ground_truth.source=file needs a path")
        arr = arrayio.read_array(path)
        if arr.size != prior.dim:
            raise ConfigError(
                f"ground truth file has {arr.size} values, prior dim is {prior.dim}"
            )
    elif gt.get("source", "prior") != "prior":
        raise ConfigError(f"unknown ground truth source {gt.get('source')!r}")

    image_shape = None
    image_complex = False
    if cfg.image:
        image_shape = tuple(int(s) for s in cfg.image["shape"])
        image_complex = bool(cfg.image.get("complex", False))
        expected = int(np.prod(image_shape)) * (2 if image_complex else 1)
        if expected != prior.dim:
            raise ConfigError(
                f"image spec implies vectors of length {expected}, prior dim is "
                f"{prior.dim}"
            )

    # instantiating the per-seed SolverConfig also validates the solver block
    scfg = build_solver_config(cfg.solver, tau, cfg.seed)
    if scfg.selection == "fixed" and scfg.fixed_index >= ensemble.size:
        raise ConfigError(
            f"solver.selection.index {scfg.fixed_index} out of range for "
            f"{ensemble.size} ensemble members"
        )
    if not isinstance(scfg.x0, str) and len(scfg.x0) != prior.dim:
        raise ConfigError(f"solver.x0 must have {prior.dim} entries (the prior dim), "
                          f"got {len(scfg.x0)}")

    return BuiltExperiment(
        cfg=cfg,
        A=A,
        prior=prior,
        ensemble=ensemble,
        restorer=restorer,
        tau=tau,
        noise_sigma=noise_sigma,
        ground_truth=gt,
        image_shape=image_shape,
        image_complex=image_complex,
    )

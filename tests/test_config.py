import json
import re
from dataclasses import FrozenInstanceError
from pathlib import Path

import numpy as np
import pytest

from conftest import load_bench_workloads
from srp import config
from srp.arrayio import write_array
from srp.config import (
    EXPERIMENT,
    REQUIRED,
    ConfigError,
    ExperimentConfig,
    build_experiment,
    build_operator,
    build_prior,
    build_restorer,
    build_solver_config,
)
from srp.operators import Composition, masked_fourier, uniform_row_mask
from srp.restoration import Biased, ExactMmse


def minimal_config_dict(**overrides):
    d = {
        "version": 1,
        "name": "unit",
        "seed": 3,
        "seeds": [1, 2],
        "output_dir": "out/unit",
        "problem": {
            "operator": {"kind": "identity", "dim": 4},
            "ground_truth": {"source": "prior"},
            "noise_sigma": 0.05,
        },
        "prior": {
            "type": "explicit",
            "weights": [1.0],
            "means": [[0.0, 0.0, 0.0, 0.0]],
            "covariances": [1.0],
        },
        "ensemble": {
            "members": [{"kind": "identity", "dim": 4}],
            "sigma": 0.5,
        },
        "restorer": {"type": "exact-mmse"},
        "solver": {"gamma": 0.1, "tau": 1.0, "iterations": 10},
        "metrics": {"psnr": True, "ssim": False},
    }
    d.update(overrides)
    return d


def _serialized(cfg):
    return json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n"


class TestRoundTrip:
    def test_parse_serialize_parse(self):
        cfg = ExperimentConfig.from_dict(minimal_config_dict())
        again = ExperimentConfig.loads(_serialized(cfg))
        assert again == cfg
        assert again.to_dict() == cfg.to_dict()

    def test_save_load(self, tmp_path):
        cfg = ExperimentConfig.from_dict(minimal_config_dict())
        path = tmp_path / "cfg.json"
        path.write_text(_serialized(cfg))
        assert ExperimentConfig.load(path) == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            ExperimentConfig.from_dict(minimal_config_dict(bogus=1))

    def test_missing_keys_rejected(self):
        d = minimal_config_dict()
        del d["solver"]
        with pytest.raises(ConfigError, match="missing"):
            ExperimentConfig.from_dict(d)

    def test_version_checked(self):
        with pytest.raises(ConfigError, match="version"):
            ExperimentConfig.from_dict(minimal_config_dict(version=99))

    @pytest.mark.parametrize("overrides,message", [
        ({"seeds": "12"}, "seeds must be a non-empty list"),
        ({"seeds": 5}, "seeds must be a non-empty list"),
        ({"seeds": []}, "seeds must be a non-empty list"),
        ({"seeds": [1, 1]}, r"seeds must be distinct, repeated: \[1\]"),
        ({"seeds": [1, 2.0]}, "seeds entry must be a non-negative integer"),
        ({"seeds": [True, 2]}, "seeds entry must be a non-negative integer"),
        ({"seeds": [1, -2]}, "seeds entry must be a non-negative integer"),
        ({"seeds": ["1"]}, "seeds entry must be a non-negative integer"),
        ({"seed": 1.7}, "seed must be a non-negative integer, got 1.7"),
        ({"seed": True}, "seed must be a non-negative integer, got True"),
        ({"seed": "3"}, "seed must be a non-negative integer"),
        ({"seed": -1}, "seed must be a non-negative integer"),
        ({"seed": None}, "seed must be a non-negative integer"),
    ])
    def test_seeds_refused(self, overrides, message):
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig.from_dict(minimal_config_dict(**overrides))

    def test_seeds_accepted(self):
        cfg = ExperimentConfig.from_dict(
            minimal_config_dict(seed=np.int64(0), seeds=(3, np.int32(1))))
        assert cfg.seed == 0 and cfg.seeds == [3, 1]
        assert all(type(s) is int for s in [cfg.seed, *cfg.seeds])


class TestOperatorSpecs:
    def test_all_kinds_buildable(self):
        specs = [
            {"kind": "identity", "dim": 3},
            {"kind": "scale", "dim": 3, "factor": 2.0},
            {"kind": "coordinate-mask", "dim": 4, "keep": [0, 2]},
            {"kind": "dense-matrix", "matrix": [[1.0, 0.0], [0.5, 1.0]]},
            {"kind": "discrete-fourier", "shape": [4, 4]},
            {"kind": "circular-convolution", "dim": 6, "kernel": [0.5, 0.5]},
            {"kind": "fold-downsample", "dim": 8, "factor": 2},
            {
                "kind": "composition",
                "stages": [
                    {"kind": "circular-convolution", "dim": 8, "kernel": [1.0]},
                    {"kind": "fold-downsample", "dim": 8, "factor": 2},
                ],
            },
            {
                "kind": "convex-combo",
                "alpha": 0.4,
                "inner": {"kind": "coordinate-mask", "dim": 5, "keep": [1]},
            },
            {
                "kind": "masked-fourier",
                "shape": [8, 8],
                "mask": {"type": "uniform-rows", "accel": 4, "acs_lines": 2},
            },
            {
                "kind": "masked-fourier",
                "shape": [8, 8],
                "mask": {"type": "random-rows", "accel": 4, "acs_lines": 2,
                         "seed": 5},
            },
            {
                "kind": "masked-fourier",
                "shape": [8, 8],
                "mask": {"rows": [3, 4, 5]},
            },
        ]
        for spec in specs:
            op = build_operator(spec)
            assert op.in_dim > 0

    def test_sisr_style_composition(self):
        spec = {
            "kind": "composition",
            "stages": [
                {"kind": "circular-convolution", "dim": 16,
                 "kernel": [0.25, 0.5, 0.25]},
                {"kind": "fold-downsample", "dim": 16, "factor": 2},
            ],
        }
        op = build_operator(spec)
        assert isinstance(op, Composition)
        assert (op.in_dim, op.out_dim) == (16, 8)

    def test_convex_combo_alpha_range(self):
        spec = {"kind": "convex-combo", "alpha": 1.5,
                "inner": {"kind": "identity", "dim": 2}}
        with pytest.raises(ConfigError):
            build_operator(spec)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown operator kind"):
            build_operator({"kind": "teleport", "dim": 2})

    def test_explicit_mask_rows_range_checked(self):
        spec = {"kind": "masked-fourier", "shape": [8, 8],
                "mask": {"rows": [3, 9]}}
        with pytest.raises(ConfigError, match="out of range"):
            build_operator(spec)
        spec["mask"]["rows"] = [-1]
        with pytest.raises(ConfigError, match="out of range"):
            build_operator(spec)

    def test_random_mask_reproducible(self):
        spec = {
            "kind": "masked-fourier",
            "shape": [16, 16],
            "mask": {"type": "random-rows", "accel": 4, "acs_lines": 4, "seed": 9},
        }
        a = build_operator(spec)
        b = build_operator(spec)
        v = np.random.default_rng(0).standard_normal(512)
        np.testing.assert_array_equal(a.apply(v), b.apply(v))

    @pytest.mark.parametrize("spec,message", [
        ({"kind": "identity", "dim": 3.7}, "identity.dim must be an integer >= 1, got 3.7"),
        ({"kind": "identity", "dim": 0}, "identity.dim must be an integer >= 1"),
        ({"kind": "scale", "dim": 3, "factor": float("nan")},
         "scale.factor must be a finite number"),
        ({"kind": "coordinate-mask", "dim": "4", "keep": [0]},
         "coordinate-mask.dim must be an integer >= 1"),
        ({"kind": "circular-convolution", "dim": 6.0, "kernel": [1.0]},
         "circular-convolution.dim must be an integer >= 1"),
        ({"kind": "fold-downsample", "dim": 8, "factor": 2.5},
         "fold-downsample.factor must be an integer >= 1, got 2.5"),
        ({"kind": "fold-downsample", "dim": True, "factor": 2},
         "fold-downsample.dim must be an integer >= 1"),
        ({"kind": "discrete-fourier", "shape": [4, 0]},
         "discrete-fourier.shape entry must be an integer >= 1"),
        ({"kind": "convex-combo", "alpha": float("nan"),
          "inner": {"kind": "identity", "dim": 2}}, "convex-combo.alpha must be a finite"),
        ({"kind": "masked-fourier", "shape": [32.5, 32], "mask": {"rows": [0]}},
         "masked-fourier.shape entry must be an integer >= 1, got 32.5"),
        ({"kind": "masked-fourier", "shape": [8, 8],
          "mask": {"type": "uniform-rows", "accel": 0}},
         "uniform-rows.accel must be an integer >= 1"),
        ({"kind": "masked-fourier", "shape": [8, 8],
          "mask": {"type": "uniform-rows", "accel": 2.0}},
         "uniform-rows.accel must be an integer >= 1"),
        ({"kind": "masked-fourier", "shape": [8, 8],
          "mask": {"type": "uniform-rows", "accel": 2, "offset": -1}},
         "uniform-rows.offset must be a non-negative integer"),
        ({"kind": "masked-fourier", "shape": [8, 8],
          "mask": {"type": "random-rows", "accel": 2, "acs_lines": 1.5, "seed": 1}},
         "random-rows.acs_lines must be a non-negative integer"),
        ({"kind": "coordinate-mask", "dim": 4, "keep": [1.9]},
         "coordinate-mask.keep entry must be an integer, got 1.9"),
        ({"kind": "coordinate-mask", "dim": 4, "keep": [0, True]},
         "coordinate-mask.keep entry must be an integer, got True"),
        ({"kind": "masked-fourier", "shape": [8, 8], "mask": {"rows": [1.9]}},
         "masked-fourier.mask.rows entry must be an integer, got 1.9"),
        ({"kind": "masked-fourier", "shape": [8, 8], "mask": {"rows": ["2"]}},
         "masked-fourier.mask.rows entry must be an integer, got '2'"),
    ])
    def test_recipe_numbers_refused(self, spec, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            build_operator(spec)

    def test_integral_recipe_numbers_give_the_same_operators(self):
        v = np.random.default_rng(3).standard_normal(128)
        mask = {"type": "uniform-rows", "accel": np.int64(2), "offset": 1, "acs_lines": 2}
        op = build_operator({"kind": "masked-fourier", "shape": [8, np.int32(8)],
                             "mask": mask})
        want = masked_fourier((8, 8), uniform_row_mask(8, 2, offset=1, acs_lines=2))
        np.testing.assert_array_equal(op.apply(v), want.apply(v))
        fold = build_operator({"kind": "fold-downsample", "dim": 128, "factor": 3})
        assert (fold.in_dim, fold.out_dim, fold.factor) == (128, 43, 3)
        scale = build_operator({"kind": "scale", "dim": 4, "factor": 2})
        assert scale.factor == 2.0 and type(scale.factor) is float
        dft = build_operator({"kind": "discrete-fourier", "shape": 6})
        assert dft.shape == (6,)

    @pytest.mark.parametrize("seed", [-1, 2.5, True])
    def test_random_mask_seed_checked(self, seed):
        spec = {"kind": "masked-fourier", "shape": [8, 8],
                "mask": {"type": "random-rows", "accel": 4, "acs_lines": 2, "seed": seed}}
        with pytest.raises(ConfigError, match="random-rows.seed must be a non-negative"):
            build_operator(spec)


class TestPriorSpecs:
    @pytest.mark.parametrize("seed", [-1, 2.5, "7"])
    def test_recipe_seed_checked(self, seed):
        spec = {"type": "gmm-recipe", "dim": 4, "components": 2, "seed": seed,
                "cov_scale": 0.1}
        with pytest.raises(ConfigError, match="gmm-recipe.seed must be a non-negative"):
            build_prior(spec)

    @pytest.mark.parametrize("overrides,message", [
        ({"components": 2.7}, "gmm-recipe.components must be an integer >= 1, got 2.7"),
        ({"components": 0}, "gmm-recipe.components must be an integer >= 1"),
        ({"cov_scale": float("nan")}, "gmm-recipe.cov_scale must be a finite number"),
        ({"cov_scale": "0.1"}, "gmm-recipe.cov_scale must be a finite number"),
        ({"mean_scale": float("inf")}, "gmm-recipe.mean_scale must be a finite number"),
        ({"dim": 4.5}, "gmm-recipe.dim must be an integer >= 1"),
        ({"dim": None, "shape": [4, 4], "smoothness": float("nan")},
         "gmm-recipe.smoothness must be a finite number"),
        ({"dim": None, "shape": [4.5, 4]}, "gmm-recipe.shape entry must be an integer >= 1"),
        ({"dim": None, "shape": [16]}, "gmm-recipe.shape must be a list of 2 entries, each an integer >= 1, got [16]"),
        ({"dim": None, "shape": [4, 4, 1]}, "gmm-recipe.shape must be a list of 2 entries"),
    ])
    def test_recipe_numbers_refused(self, overrides, message):
        spec = {"type": "gmm-recipe", "dim": 4, "components": 2, "seed": 1,
                "cov_scale": 0.1}
        spec.update(overrides)
        if spec["dim"] is None:
            del spec["dim"]
        with pytest.raises(ConfigError, match=re.escape(message)):
            build_prior(spec)

    def test_integral_recipe_numbers_give_the_same_prior(self):
        base = {"type": "gmm-recipe", "shape": [8, 8], "components": 2, "seed": 7,
                "cov_scale": 1.0, "smoothness": 2.0}
        a = build_prior(base)
        b = build_prior(dict(base, components=np.int64(2), cov_scale=1, smoothness=2))
        np.testing.assert_array_equal(a.means, b.means)
        assert [float(c) for c in a.covariances] == [float(c) for c in b.covariances]
        plain = {"type": "gmm-recipe", "dim": 5, "components": 3, "seed": 2,
                 "cov_scale": 0.5, "mean_scale": 2.0}
        np.testing.assert_array_equal(build_prior(plain).means,
                                      build_prior(dict(plain, mean_scale=2)).means)

    def test_recipe_deterministic(self):
        spec = {"type": "gmm-recipe", "shape": [8, 8], "components": 2,
                "seed": 7, "cov_scale": 0.05, "smoothness": 1.5}
        a = build_prior(spec)
        b = build_prior(spec)
        np.testing.assert_array_equal(a.means, b.means)
        assert a.dim == 128

    def test_plain_recipe(self):
        spec = {"type": "gmm-recipe", "dim": 6, "components": 3, "seed": 1,
                "cov_scale": 0.2}
        p = build_prior(spec)
        assert p.dim == 6 and p.n_components == 3

    def test_means_from_file(self, tmp_path):
        path = tmp_path / "means.f64"
        means = np.random.default_rng(1).standard_normal((2, 5))
        write_array(path, means)
        p = build_prior({
            "type": "explicit",
            "weights": [0.5, 0.5],
            "means": {"file": str(path)},
            "covariances": [1.0, 2.0],
        })
        np.testing.assert_array_equal(p.means, means)


class TestRestorerSpecs:
    def test_nested_perturbations(self):
        prior = build_prior({"type": "gmm-recipe", "dim": 3, "components": 1,
                             "seed": 0, "cov_scale": 1.0})
        spec = {
            "type": "biased",
            "inner": {
                "type": "biased",
                "inner": {"type": "exact-mmse"},
                "perturbation": {"type": "gain", "lam": 0.9},
            },
            "perturbation": {"type": "constant-offset", "offset": 0.1},
        }
        r = build_restorer(spec, prior, 0.5)
        assert isinstance(r, Biased) and len(r.perturbations) == 2
        assert isinstance(r.exact, ExactMmse)
        assert r.exact.sigma == 0.5


    @pytest.mark.parametrize("perturbation,message", [
        ({"type": "gain", "lam": float("nan")}, "gain.lam must be a finite number, got nan"),
        ({"type": "gain", "lam": "0.9"}, "gain.lam must be a finite number"),
        ({"type": "smoothing", "strength": 2.9},
         "smoothing.strength must be an integer >= 1, got 2.9"),
        ({"type": "smoothing", "strength": 0}, "smoothing.strength must be an integer >= 1"),
        ({"type": "constant-offset", "offset": float("inf")},
         "constant-offset.offset must be a finite number, got inf"),
        ({"type": "constant-offset", "offset": [0.1, float("nan"), 0.0]},
         "constant-offset.offset entry must be a finite number, got nan"),
        ({"type": "constant-offset", "offset": [0.1, 0.2]},
         "constant-offset.offset must have 3 entries (the prior dim), got 2"),
    ])
    def test_perturbation_numbers_refused(self, perturbation, message):
        prior = build_prior({"type": "gmm-recipe", "dim": 3, "components": 1,
                             "seed": 0, "cov_scale": 1.0})
        spec = {"type": "biased", "inner": {"type": "exact-mmse"},
                "perturbation": perturbation}
        with pytest.raises(ConfigError, match=re.escape(message)):
            build_restorer(spec, prior, 0.5)

    def test_offsets_and_integral_numbers_accepted(self):
        prior = build_prior({"type": "gmm-recipe", "dim": 3, "components": 1,
                             "seed": 0, "cov_scale": 1.0})

        def perturbation(p):
            spec = {"type": "biased", "inner": {"type": "exact-mmse"}, "perturbation": p}
            return build_restorer(spec, prior, 0.5).perturbations[-1]

        vector = perturbation({"type": "constant-offset", "offset": [0.1, -0.2, 0]})
        np.testing.assert_array_equal(vector.offset, [0.1, -0.2, 0.0])
        scalar = perturbation({"type": "constant-offset", "offset": 1})
        np.testing.assert_array_equal(scalar.offset, np.ones(3))
        assert perturbation({"type": "gain", "lam": 1}).lam == 1.0
        assert perturbation({"type": "smoothing", "strength": np.int64(3)}).strength == 3


class TestBuildExperiment:
    def test_valid(self):
        built = build_experiment(ExperimentConfig.from_dict(minimal_config_dict()))
        assert built.A.in_dim == 4

    def test_shipped_demo_config_builds(self):
        demo = Path(__file__).resolve().parent.parent / "configs" / "demo.json"
        built = build_experiment(ExperimentConfig.load(demo))
        assert built.A.in_dim == 2048
        assert built.ensemble.size == 8

    def test_dimension_cross_check(self):
        d = minimal_config_dict()
        d["problem"]["operator"] = {"kind": "identity", "dim": 5}
        with pytest.raises(ConfigError, match="in_dim"):
            build_experiment(ExperimentConfig.from_dict(d))

    def test_image_shape_cross_check(self):
        d = minimal_config_dict(image={"shape": [4, 4], "complex": True})
        with pytest.raises(ConfigError, match="image"):
            build_experiment(ExperimentConfig.from_dict(d))

    def test_ground_truth_file_checked(self, tmp_path):
        path = tmp_path / "gt.f64"
        write_array(path, np.zeros(3))
        d = minimal_config_dict()
        d["problem"]["ground_truth"] = {"source": "file", "path": str(path)}
        with pytest.raises(ConfigError, match="ground truth"):
            build_experiment(ExperimentConfig.from_dict(d))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_ground_truth_file_must_be_finite(self, tmp_path, bad):
        path = tmp_path / "gt.f64"
        write_array(path, [0.0, bad, 0.0, 0.0])
        d = minimal_config_dict()
        d["problem"]["ground_truth"] = {"source": "file", "path": str(path)}
        with pytest.raises(ConfigError, match="ground truth file .* has non-finite entries"):
            build_experiment(ExperimentConfig.from_dict(d))

    @pytest.mark.parametrize("block,key,value,message", [
        ("solver", "iterations", 2.7, "solver.iterations must be an integer >= 1"),
        ("solver", "iterations", "10", "solver.iterations must be an integer >= 1"),
        ("solver", "iterations", 0, "solver.iterations must be an integer >= 1"),
        ("solver", "batch", 1.5, "solver.batch must be an integer >= 1"),
        ("solver", "batch", True, "solver.batch must be an integer >= 1"),
        ("solver", "selection", {"strategy": "fixed", "index": 1.9},
         "solver.selection.index must be a non-negative integer"),
        ("solver", "selection", {"strategy": "fixed", "index": 1},
         "solver.selection.index 1 out of range for 1 ensemble members"),
        ("solver", "gamma", float("nan"), "solver.gamma must be a finite number"),
        ("solver", "gamma", float("inf"), "solver.gamma must be a finite number"),
        ("solver", "gamma", "0.1", "solver.gamma must be a finite number"),
        ("solver", "gamma", True, "solver.gamma must be a finite number"),
        ("solver", "tau", float("nan"), "solver.tau must be a finite number"),
        ("solver", "tau", -float("inf"), "solver.tau must be a finite number"),
        ("solver", "tau", 0.0, "solver.tau must be a finite number > 0"),
        ("solver", "tau", 10 ** 400, "solver.tau must be a finite number"),
        ("ensemble", "sigma", float("inf"), "ensemble.sigma must be a finite number"),
        ("ensemble", "sigma", float("nan"), "ensemble.sigma must be a finite number"),
        ("ensemble", "sigma", "0.5", "ensemble.sigma must be a finite number"),
        ("ensemble", "weights", [float("nan")], "ensemble.weights entry must be a finite"),
        ("problem", "noise_sigma", float("nan"), "problem.noise_sigma must be a finite"),
        ("problem", "noise_sigma", False, "problem.noise_sigma must be a finite number"),
        ("solver", "x0", ["a", 1, 2, 3], "solver.x0 entry must be a finite number"),
        ("solver", "x0", [0.0, float("nan"), 0.0, 0.0], "solver.x0 entry must be a finite"),
        ("solver", "x0", [0.0, True, 0.0, 0.0], "solver.x0 entry must be a finite number"),
        ("solver", "x0", [[0.0]] * 4, "solver.x0 entry must be a finite number"),
        ("solver", "x0", [0.0, 0.0, 0.0], "solver.x0 must have 4 entries (the prior dim), got 3"),
        ("solver", "x0", [], "solver.x0 must have 4 entries (the prior dim), got 0"),
        ("solver", "x0", "ones", "solver.x0 must be one of ['zeros', 'adjoint']"),
        ("solver", "x0", 1.5, "solver.x0 must be one of ['zeros', 'adjoint']"),
    ])
    def test_numbers_refused(self, block, key, value, message):
        d = minimal_config_dict()
        d[block][key] = value
        with pytest.raises(ConfigError, match=re.escape(message)):
            build_experiment(ExperimentConfig.from_dict(d))

    @pytest.mark.parametrize("block,key", [
        ("solver", "gama"), ("solver.selection", "idx"), ("ensemble", "sigmaa"),
        ("problem", "noise"),
    ])
    def test_unknown_block_keys_refused(self, block, key):
        d = minimal_config_dict()
        d["solver"]["selection"] = {"strategy": "iid-by-weights"}
        target = d
        for part in block.split("."):
            target = target[part]
        target[key] = 0.5
        with pytest.raises(ConfigError, match=re.escape(f"unknown {block} keys: ['{key}']")):
            build_experiment(ExperimentConfig.from_dict(d))

    @pytest.mark.parametrize("block,message", [
        ("ensemble", "ensemble must be an object"), ("problem", "problem must be an object"),
        ("solver", "solver must be an object"),
    ])
    def test_blocks_must_be_objects(self, block, message):
        d = minimal_config_dict(**{block: [1]})
        with pytest.raises(ConfigError, match=message):
            build_experiment(ExperimentConfig.from_dict(d))

    def test_selection_must_be_an_object_or_a_name(self):
        d = minimal_config_dict()
        d["solver"]["selection"] = 3
        with pytest.raises(ConfigError, match="solver.selection must be one of"):
            build_experiment(ExperimentConfig.from_dict(d))
        d["solver"]["selection"] = "fixed"
        assert build_experiment(ExperimentConfig.from_dict(d)).cfg.solver["selection"] == "fixed"

    def test_integral_numbers_accepted(self):
        d = minimal_config_dict()
        d["solver"].update(gamma=1, tau=2, iterations=3, batch=2)
        d["ensemble"].update(sigma=1, weights=[1])
        d["problem"]["noise_sigma"] = 0
        built = build_experiment(ExperimentConfig.from_dict(d))
        assert (built.tau, built.cfg.problem["noise_sigma"],
                built.ensemble.sigma) == (2.0, 0.0, 1.0)

    @pytest.mark.parametrize("x0", ["zeros", "adjoint", [1, 2, 3, 4], [0.5, -1.0, 0.0, 2.0]])
    def test_x0_accepted(self, x0):
        d = minimal_config_dict()
        d["solver"]["x0"] = x0
        built = build_experiment(ExperimentConfig.from_dict(d))
        got = build_solver_config(built.cfg.solver, 0).x0
        if isinstance(x0, str):
            assert got == x0
        else:
            assert got.dtype == float
            np.testing.assert_array_equal(got, x0)

    def test_bad_solver_block(self):
        d = minimal_config_dict()
        d["solver"] = {"gamma": 0.1, "tau": 1.0}
        with pytest.raises(ConfigError):
            build_experiment(ExperimentConfig.from_dict(d))


ROOT = Path(__file__).resolve().parent.parent


def _blocks(kind):
    """The object types a field type reads, directly or through list entries
    and alternatives."""
    if hasattr(kind, "variants"):
        return [kind]
    parts = [*getattr(kind, "alts", ()),
             *filter(None, [getattr(kind, "item", None), getattr(kind, "spec", None)])]
    return [block for part in parts for block in _blocks(part)]


def config_reference():
    """The README field reference, rendered from the config tables."""
    rows = ["| block | field | type | default |", "| --- | --- | --- | --- |"]
    pending, seen = [(EXPERIMENT, "")], set()
    while pending:
        block, label = pending.pop(0)
        if id(block) in seen:
            continue
        seen.add(id(block))
        for tag, table in block.variants.items():
            if block.key:
                where = f"{block.name} `{tag}`" if tag else f"{block.name} (no `{block.key}`)"
            else:
                where = f"`{label}`" if label else "top level"
            prefix = (tag or label) if block.key else label
            if not table:
                rows.append(f"| {where} | | no fields | |")
            for name, (kind, default) in table.items():
                inner = _blocks(kind)
                path = f"{prefix}.{name}" if prefix else name
                notes = [f"{b.name} recipe" if b.key else f"`{path}` block" for b in inner]
                what = kind.doc + "".join(f" ({n})" for n in notes)
                shown = ("required" if default is REQUIRED else "none" if default is None
                         else f"`{json.dumps(default)}`")
                rows.append(f"| {where} | `{name}` | {what} | {shown} |")
                pending += [(b, path) for b in inner]
    return "\n".join(rows) + "\n"


class TestReadme:
    def test_field_reference_matches_the_tables(self):
        assert config_reference() in (ROOT / "README.md").read_text()

    def test_example_config_builds(self):
        section = (ROOT / "README.md").read_text().split("## Example config", 1)[1]
        example = json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
        built = build_experiment(ExperimentConfig.from_dict(example))
        assert built.A.in_dim == built.prior.dim == 2048
        assert built.ensemble.size == 2 and built.cfg.metrics["ssim"]


def test_reading_is_idempotent():
    """Builders take checked values too: reading them again changes nothing."""
    demo = json.loads((ROOT / "configs" / "demo.json").read_text())
    offset = {"type": "biased", "inner": {"type": "exact-mmse"},
              "perturbation": {"type": "constant-offset", "offset": [0.1, 0, 0, 0]}}
    masks = {"members": [{"kind": "masked-fourier", "shape": [2, 1], "mask": {"rows": [1]}}],
             "sigma": 1}
    for d in (demo, minimal_config_dict(restorer=offset, ensemble=masks)):
        checked = EXPERIMENT(d, "")
        assert EXPERIMENT(checked, "") == checked


class TestReadOnce:
    """A config document is read once, by ``from_dict``; ``build_experiment``
    builds from its checked blocks and reads none of them again."""

    def test_from_dict_runs_the_schema_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(config, "EXPERIMENT",
                            lambda d, what: calls.append(what) or EXPERIMENT(d, what))
        ExperimentConfig.from_dict(minimal_config_dict())
        assert calls == [""]

    def test_build_reads_no_block_again(self, monkeypatch):
        bench = load_bench_workloads()
        docs = [json.loads((ROOT / "configs" / "demo.json").read_text()),
                bench.superres_config(1), *(cfg for cfg, _, _ in bench.audit_instances(1))]
        cfgs = [ExperimentConfig.from_dict(d) for d in docs]

        def refuse(value, what):
            raise AssertionError(f"{what or 'config'} read again")
        for name in ("EXPERIMENT", "ENSEMBLE", "SOLVER"):
            monkeypatch.setattr(config, name, refuse)
        for cfg in cfgs:
            built = build_experiment(cfg)
            assert built.cfg is cfg and built.tau == cfg.solver["tau"]

    def test_config_is_frozen(self):
        cfg = ExperimentConfig.from_dict(minimal_config_dict())
        with pytest.raises(FrozenInstanceError):
            cfg.seed = 4
        assert cfg.seed == 3

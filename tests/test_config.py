import re
from pathlib import Path

import numpy as np
import pytest

from srp.arrayio import write_array
from srp.config import (
    ConfigError,
    ExperimentConfig,
    build_experiment,
    build_operator,
    build_prior,
    build_restorer,
)
from srp.operators import Composition
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


class TestRoundTrip:
    def test_parse_serialize_parse(self):
        cfg = ExperimentConfig.from_dict(minimal_config_dict())
        again = ExperimentConfig.loads(cfg.dumps())
        assert again == cfg
        assert again.to_dict() == cfg.to_dict()

    def test_save_load(self, tmp_path):
        cfg = ExperimentConfig.from_dict(minimal_config_dict())
        path = tmp_path / "cfg.json"
        cfg.save(path)
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

    @pytest.mark.parametrize("seed", [-1, 2.5, True])
    def test_random_mask_seed_checked(self, seed):
        spec = {"kind": "masked-fourier", "shape": [8, 8],
                "mask": {"type": "random-rows", "accel": 4, "acs_lines": 2, "seed": seed}}
        with pytest.raises(ConfigError, match="random-rows mask seed must be a non-negative"):
            build_operator(spec)


class TestPriorSpecs:
    @pytest.mark.parametrize("seed", [-1, 2.5, "7"])
    def test_recipe_seed_checked(self, seed):
        spec = {"type": "gmm-recipe", "dim": 4, "components": 2, "seed": seed,
                "cov_scale": 0.1}
        with pytest.raises(ConfigError, match="gmm-recipe seed must be a non-negative"):
            build_prior(spec)

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
        assert isinstance(r, Biased) and isinstance(r.inner, Biased)
        assert isinstance(r.inner.inner, ExactMmse)
        assert r.base_sigma == 0.5


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
        ("solver", "tau", 0.0, "solver.tau must be positive"),
        ("solver", "tau", 10 ** 400, "solver.tau must be a finite number"),
        ("ensemble", "sigma", float("inf"), "ensemble.sigma must be a finite number"),
        ("ensemble", "sigma", float("nan"), "ensemble.sigma must be a finite number"),
        ("ensemble", "sigma", "0.5", "ensemble.sigma must be a finite number"),
        ("ensemble", "weights", [float("nan")], "ensemble.weights entry must be a finite"),
        ("problem", "noise_sigma", float("nan"), "problem.noise_sigma must be a finite"),
        ("problem", "noise_sigma", False, "problem.noise_sigma must be a finite number"),
    ])
    def test_numbers_refused(self, block, key, value, message):
        d = minimal_config_dict()
        d[block][key] = value
        with pytest.raises(ConfigError, match=re.escape(message)):
            build_experiment(ExperimentConfig.from_dict(d))

    def test_integral_numbers_accepted(self):
        d = minimal_config_dict()
        d["solver"].update(gamma=1, tau=2, iterations=3, batch=2)
        d["ensemble"].update(sigma=1, weights=[1])
        d["problem"]["noise_sigma"] = 0
        built = build_experiment(ExperimentConfig.from_dict(d))
        assert (built.tau, built.noise_sigma, built.ensemble.sigma) == (2.0, 0.0, 1.0)

    def test_bad_solver_block(self):
        d = minimal_config_dict()
        d["solver"] = {"gamma": 0.1, "tau": 1.0}
        with pytest.raises(ConfigError):
            build_experiment(ExperimentConfig.from_dict(d))

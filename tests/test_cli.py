import contextlib
import copy
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import srp
from conftest import load_bench_workloads
from srp.arrayio import write_array
from srp.cli import EXIT_CONFIG, EXIT_DIVERGENCE, EXIT_OK, main


def write_config(tmp_path, **solver_overrides):
    shape = [8, 8]
    solver = {"gamma": 0.2, "tau": 0.01, "iterations": 30,
              "selection": {"strategy": "iid-by-weights"}, "x0": "adjoint"}
    solver.update(solver_overrides)
    cfg = {
        "version": 1,
        "name": "cli",
        "seed": 7,
        "seeds": [1, 2],
        "output_dir": str(tmp_path / "out"),
        "image": {"shape": shape, "complex": True},
        "problem": {
            "operator": {"kind": "masked-fourier", "shape": shape,
                         "mask": {"type": "uniform-rows", "accel": 2,
                                  "offset": 0, "acs_lines": 2}},
            "ground_truth": {"source": "prior"},
            "noise_sigma": 0.01,
        },
        "prior": {"type": "gmm-recipe", "shape": shape, "components": 2,
                  "seed": 5, "cov_scale": 0.05, "smoothness": 1.5},
        "ensemble": {"members": [
            {"kind": "masked-fourier", "shape": shape,
             "mask": {"type": "uniform-rows", "accel": 4, "offset": 1,
                      "acs_lines": 2}},
            {"kind": "masked-fourier", "shape": shape,
             "mask": {"type": "uniform-rows", "accel": 4, "offset": 3,
                      "acs_lines": 2}},
        ], "sigma": 0.05},
        "restorer": {"type": "exact-mmse"},
        "solver": solver,
        "metrics": {"psnr": True, "ssim": True},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg, indent=2))
    return path


class TestRun:
    def test_run_exit_zero_and_artifacts(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["run", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "psnr" in out
        assert (tmp_path / "out" / "summary.csv").exists()

    def test_byte_identical_reruns(self, tmp_path):
        path = write_config(tmp_path)
        assert main(["run", str(path), "--quiet", "--out",
                     str(tmp_path / "r1")]) == EXIT_OK
        assert main(["run", str(path), "--quiet", "--out",
                     str(tmp_path / "r2")]) == EXIT_OK
        for name in ("summary.csv", "trace_seed1.csv", "trace_seed2.csv"):
            a = (tmp_path / "r1" / name).read_bytes()
            b = (tmp_path / "r2" / name).read_bytes()
            assert a == b, name

    def test_config_error_exit_code(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\"version\": 1}")
        assert main(["run", str(path)]) == EXIT_CONFIG

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.json")]) == EXIT_CONFIG

    def test_invalid_json_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["run", str(path)]) == EXIT_CONFIG

    def test_divergence_exit_code(self, tmp_path):
        path = write_config(tmp_path, gamma=50.0, iterations=2000)
        assert main(["run", str(path), "--quiet"]) == EXIT_DIVERGENCE


def run_cli(*argv):
    """The CLI in a fresh interpreter, so an escaping traceback would show."""
    env = dict(os.environ, PYTHONPATH=str(Path(srp.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "srp.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)


class TestInputErrors:
    def assert_input_error(self, proc, prefix="input error: "):
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(prefix), lines

    @pytest.mark.parametrize("key,value", [("seed", "abc"), ("seeds", 5), ("seeds", "12"),
                                           ("seed", 1.7), ("seed", True),
                                           ("seeds", [1, 1]), ("seeds", [])])
    def test_non_integer_seeds(self, tmp_path, key, value):
        path = write_config(tmp_path)
        cfg = json.loads(path.read_text())
        cfg[key] = value
        path.write_text(json.dumps(cfg))
        proc = run_cli("run", str(path), "--quiet")
        self.assert_input_error(proc, "config error: ")
        assert "seed" in proc.stderr

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_negative_seed_flag(self, tmp_path, command):
        config = [str(write_config(tmp_path))] if command == "run" else []
        proc = run_cli(command, *config, "--seed", "-1", "--quiet")
        self.assert_input_error(proc, "config error: --seed must be a non-negative integer")

    @pytest.mark.parametrize("content", [None, b"\xff\xfe not utf-8"])
    def test_unreadable_config(self, tmp_path, content):
        path = tmp_path / "cfg"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        proc = run_cli("run", str(path), "--quiet")
        self.assert_input_error(proc, "config error: cannot read config")

    @pytest.mark.parametrize("content", [b"{not json", b'{"solver.gamma": 0.1}',
                                         b"\xff\xfe not utf-8",
                                         b'{"solver.gamma.x": [1]}',
                                         b'{"solver.gamma": []}',
                                         b'{"solver.tau": [0.01], "seeds.x": [1]}',
                                         b'{"solver.tau": [0.1, 0]}',
                                         b'{"solver.gamma": [0.1, "0.2"]}',
                                         b'{"solver.gama": [0.1, 0.2]}'])
    def test_malformed_sweep_grid(self, tmp_path, content):
        grid = tmp_path / "grid.json"
        grid.write_bytes(content)
        proc = run_cli("sweep", str(write_config(tmp_path)), "--grid", str(grid),
                       "--quiet", "--out", str(tmp_path / "sweep"))
        self.assert_input_error(proc, "config error: ")
        assert "sweep grid" in proc.stderr
        assert not (tmp_path / "sweep").exists()

    @pytest.mark.parametrize("block,key,value", [
        ("solver", "iterations", 2.7), ("solver", "gamma", float("nan")),
        ("solver", "batch", "2"), ("ensemble", "sigma", float("inf")),
        ("problem", "noise_sigma", float("nan"))])
    def test_bad_numbers(self, tmp_path, block, key, value):
        path = write_config(tmp_path)
        cfg = json.loads(path.read_text())
        cfg[block][key] = value
        path.write_text(json.dumps(cfg))
        proc = run_cli("run", str(path), "--quiet")
        self.assert_input_error(proc, "config error: ")
        assert f"{block}.{key} must be" in proc.stderr

    @pytest.mark.parametrize("block,key,value,message", [
        ("restorer", "perturbation", {"type": "gain", "lam": float("nan")}, "gain.lam"),
        ("restorer", "perturbation", {"type": "smoothing", "strength": 2.9},
         "smoothing.strength"),
        ("restorer", "perturbation", {"type": "constant-offset", "offset": float("inf")},
         "constant-offset.offset"),
        ("restorer", "perturbation", {"type": "constant-offset", "offset": [0.1, 0.2]},
         "constant-offset.offset"),
        ("problem", "operator", {"kind": "masked-fourier", "shape": [8, 8],
                                 "mask": {"rows": [1.9]}}, "masked-fourier.mask.rows"),
        ("problem", "operator", {"kind": "coordinate-mask", "dim": 128, "keep": [1.9]},
         "coordinate-mask.keep"),
        ("prior", "shape", [64], "gmm-recipe.shape"),
        ("prior", "shape", [8, 8, 1], "gmm-recipe.shape"),
    ])
    def test_bad_recipe_entries(self, tmp_path, block, key, value, message):
        path = write_config(tmp_path)
        cfg = json.loads(path.read_text())
        if block == "restorer":
            cfg["restorer"] = {"type": "biased", "inner": {"type": "exact-mmse"}}
        cfg[block][key] = value
        path.write_text(json.dumps(cfg))
        proc = run_cli("run", str(path), "--quiet")
        self.assert_input_error(proc, f"config error: {message}")

    @pytest.mark.parametrize("x0,message", [
        (["a", 1, 2], "solver.x0 entry must be a finite number"),
        ([0.0, 0.0, 0.0], "solver.x0 must have 128 entries (the prior dim), got 3")])
    def test_bad_x0(self, tmp_path, x0, message):
        path = write_config(tmp_path, x0=x0)
        proc = run_cli("run", str(path), "--quiet")
        self.assert_input_error(proc, f"config error: {message}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("block,key", [("solver", "gama"), ("ensemble", "sigmaa"),
                                           ("problem", "noise")])
    def test_unknown_block_keys(self, tmp_path, block, key):
        path = write_config(tmp_path)
        cfg = json.loads(path.read_text())
        cfg[block][key] = 0.5
        path.write_text(json.dumps(cfg))
        proc = run_cli("run", str(path), "--quiet")
        self.assert_input_error(proc, f"config error: unknown {block} keys: ['{key}']")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("weights,means,message", [
        ([float("nan")], [[0.0]], "explicit.weights entry must be a finite number > 0, got nan"),
        ([0.5], [[0.0]], "bad explicit prior: weights must sum to 1"),
        ([1.0], [[float("inf")]], "explicit.means entry must be a finite number, got inf")])
    def test_bad_explicit_prior(self, tmp_path, weights, means, message):
        path = write_config(tmp_path)
        cfg = json.loads(path.read_text())
        cfg["prior"] = {"type": "explicit", "weights": weights, "means": means,
                        "covariances": [1.0]}
        cfg["problem"]["operator"] = {"kind": "identity", "dim": 1}
        cfg["ensemble"]["members"] = [{"kind": "identity", "dim": 1}]
        del cfg["image"]
        path.write_text(json.dumps(cfg))
        proc = run_cli("run", str(path), "--quiet")
        self.assert_input_error(proc, f"config error: {message}")

    def test_truncated_ground_truth_file(self, tmp_path):
        gt = tmp_path / "truth.f64"
        write_array(gt, np.zeros(128))
        gt.write_bytes(gt.read_bytes()[:-8])  # drop the last value
        path = write_config(tmp_path)
        cfg = json.loads(path.read_text())
        cfg["problem"]["ground_truth"] = {"source": "file", "path": str(gt)}
        path.write_text(json.dumps(cfg))
        proc = run_cli("run", str(path), "--quiet")
        self.assert_input_error(proc)
        assert "expected 128 values, got 127" in proc.stderr

    @pytest.mark.parametrize("key", ["problem.ground_truth", "prior.means.file"])
    def test_directory_as_array_file(self, tmp_path, key):
        folder = tmp_path / "arrays"
        folder.mkdir()
        path = write_config(tmp_path)
        cfg = json.loads(path.read_text())
        if key == "problem.ground_truth":
            cfg["problem"]["ground_truth"] = {"source": "file", "path": str(folder)}
        else:
            cfg["prior"] = {"type": "explicit", "weights": [1.0],
                            "means": {"file": str(folder)}, "covariances": [1.0]}
        path.write_text(json.dumps(cfg))
        proc = run_cli("run", str(path), "--quiet")
        self.assert_input_error(proc, f"input error: {folder}: Is a directory")
        assert not (tmp_path / "out").exists()

    def test_overflowing_measurement(self, tmp_path):
        # a finite prior mean through a finite operator can overflow y; that
        # is refused as the config's, not reported as a divergence
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps({
            "version": 1, "name": "overflow", "seed": 1, "seeds": [1],
            "output_dir": str(tmp_path / "out"),
            "problem": {"operator": {"kind": "dense-matrix",
                                     "matrix": [[1e300, 1e300], [0.0, 1.0]]},
                        "noise_sigma": 0.0},
            "prior": {"type": "explicit", "weights": [1.0], "means": [[1e300, 1e300]],
                      "covariances": [1.0]},
            "ensemble": {"members": [{"kind": "identity", "dim": 2}], "sigma": 1.0},
            "restorer": {"type": "exact-mmse"},
            "solver": {"gamma": 0.1, "tau": 1.0, "iterations": 5}}))
        proc = run_cli("run", str(path), "--quiet")
        self.assert_input_error(
            proc, "config error: the simulated measurement y = A x + e has non-finite entries")

    def test_non_finite_ground_truth_file(self, tmp_path):
        gt = tmp_path / "truth.f64"
        write_array(gt, np.r_[np.zeros(127), np.nan])
        path = write_config(tmp_path)
        cfg = json.loads(path.read_text())
        cfg["problem"]["ground_truth"] = {"source": "file", "path": str(gt)}
        path.write_text(json.dumps(cfg))
        proc = run_cli("run", str(path), "--quiet")
        self.assert_input_error(proc, f"config error: ground truth file {gt} has non-finite")

    def check_all_zero_ground_truth(self, tmp_path, metrics, peak, image=None, scored=True,
                                    fill=0.0, refusal="is all zeros"):
        # PSNR's and SSIM's peak defaults to the truth's largest magnitude,
        # ``fill`` (0 by default): a config that scores either is refused
        # before any solve with ``refusal`` unless it sets a peak or the
        # refusal is None
        gt = tmp_path / "truth.f64"
        write_array(gt, np.full(64, fill))
        metrics = dict(metrics)
        if peak is not None:
            metrics["psnr_peak"] = peak
        cfg = {
            "version": 1, "name": "zero-truth", "seed": 0, "seeds": [1, 2],
            "output_dir": str(tmp_path / "out"),
            "problem": {"operator": {"kind": "identity", "dim": 64},
                        "ground_truth": {"source": "file", "path": str(gt)},
                        "noise_sigma": 0.1},
            "prior": {"type": "explicit", "weights": [1.0], "means": [[0.0] * 64],
                      "covariances": [1.0]},
            "ensemble": {"members": [{"kind": "identity", "dim": 64}], "sigma": 1.0},
            "restorer": {"type": "exact-mmse"},
            "solver": {"gamma": 0.1, "tau": 1.0, "iterations": 5},
            "metrics": metrics,
        }
        if image is not None:
            cfg["image"] = image
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        proc = run_cli("run", str(path), "--quiet")
        if scored and peak is None and refusal is not None:
            self.assert_input_error(proc, f"config error: ground truth file {gt} {refusal}")
            assert not (tmp_path / "out").exists()
            return None
        assert proc.returncode == EXIT_OK, proc.stderr
        return (tmp_path / "out" / "summary.csv").read_text().splitlines()

    @pytest.mark.parametrize("peak", [None, 2.0])
    def test_all_zero_ground_truth_with_psnr(self, tmp_path, peak):
        self.check_all_zero_ground_truth(tmp_path, {"psnr": True, "ssim": False}, peak)

    @pytest.mark.parametrize("peak", [None, 2.0])
    def test_all_zero_ground_truth_with_ssim(self, tmp_path, peak):
        # SSIM alone is scored on a 2-D image, with the same peak
        rows = self.check_all_zero_ground_truth(
            tmp_path, {"psnr": False, "ssim": True}, peak, image={"shape": [8, 8]})
        if rows is not None:
            header = rows[0].split(",")
            for row in rows[1:]:
                cells = dict(zip(header, row.split(",")))
                assert cells["psnr_db"] == "" and 0.0 < float(cells["ssim"]) < 1.0

    @pytest.mark.parametrize("fill,refusal", [
        (1e-170, "has largest magnitude 1e-170, whose square is 0.0, so PSNR"),
        (1e155, "has largest magnitude 1e+155, whose square is inf, so PSNR"),
        (1e-150, None), (1e150, None)])
    def test_ground_truth_peak_must_square_finite_and_positive(self, tmp_path, fill, refusal):
        # the default peak is held to the rule a set metrics.psnr_peak meets:
        # a truth peak whose square is 0 or inf is refused, and one near
        # either end of the range runs with a finite PSNR
        rows = self.check_all_zero_ground_truth(tmp_path, {"psnr": True, "ssim": False}, None,
                                                fill=fill, refusal=refusal)
        if rows is not None:
            header = rows[0].split(",")
            cells = [dict(zip(header, row.split(","))) for row in rows[1:]]
            assert len(cells) == 2
            assert all(math.isfinite(float(c["psnr_db"])) for c in cells)

    @pytest.mark.parametrize("fill,refusal", [
        (1e80, "has largest magnitude 1e+80, past SSIM's 6.68e78, so PSNR"), (1e77, None)])
    def test_ground_truth_peak_must_fit_the_ssim_constants(self, tmp_path, fill, refusal):
        # with SSIM on, the default peak must also keep C1 C2 finite
        rows = self.check_all_zero_ground_truth(tmp_path, {"psnr": False, "ssim": True}, None,
                                                image={"shape": [8, 8]}, fill=fill,
                                                refusal=refusal)
        if rows is not None:
            header = rows[0].split(",")
            assert all(math.isfinite(float(dict(zip(header, row.split(",")))["ssim"]))
                       for row in rows[1:])

    def test_all_zero_ground_truth_without_image_scores(self, tmp_path):
        # SSIM of a vector that is not a 2-D image is never scored, so it
        # needs no peak
        rows = self.check_all_zero_ground_truth(tmp_path, {"psnr": False, "ssim": True},
                                                None, scored=False)
        assert all(row.split(",")[2:4] == ["", ""] for row in rows[1:])

    @pytest.mark.parametrize("shape,metrics", [([2, 2], {}), ([6, 9], {"psnr": False}),
                                               ([2, 2], {"ssim": False}), ([7, 7], {})])
    def test_image_smaller_than_the_ssim_window(self, tmp_path, shape, metrics):
        # SSIM, on by default, averages 7x7 windows: a smaller 2-D image is
        # refused before any solve unless SSIM is off
        dim = shape[0] * shape[1]
        cfg = {
            "version": 1, "name": "tiny", "seed": 0, "seeds": [1],
            "output_dir": str(tmp_path / "out"), "image": {"shape": shape},
            "problem": {"operator": {"kind": "identity", "dim": dim},
                        "ground_truth": {"source": "prior"}, "noise_sigma": 0.1},
            "prior": {"type": "explicit", "weights": [1.0], "means": [[0.0] * dim],
                      "covariances": [1.0]},
            "ensemble": {"members": [{"kind": "identity", "dim": dim}], "sigma": 1.0},
            "restorer": {"type": "exact-mmse"},
            "solver": {"gamma": 0.1, "tau": 1.0, "iterations": 5},
            "metrics": metrics,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        proc = run_cli("run", str(path), "--quiet")
        if metrics.get("ssim", True) and min(shape) < 7:
            self.assert_input_error(proc, f"config error: image.shape {shape} is smaller")
            assert "metrics.ssim" in proc.stderr
            assert not (tmp_path / "out").exists()
        else:
            assert proc.returncode == EXIT_OK, proc.stderr

    @pytest.mark.parametrize("height", [float("nan"), -1.0, 2.5, float("inf")])
    def test_malformed_ground_truth_header(self, tmp_path, height):
        gt = tmp_path / "truth.f64"
        write_array(gt, np.zeros(128))
        raw = np.fromfile(gt, dtype="<f8")
        raw[2] = height
        raw.tofile(gt)
        path = write_config(tmp_path)
        cfg = json.loads(path.read_text())
        cfg["problem"]["ground_truth"] = {"source": "file", "path": str(gt)}
        path.write_text(json.dumps(cfg))
        proc = run_cli("run", str(path), "--quiet")
        self.assert_input_error(proc)
        assert "dimensions must be non-negative integers" in proc.stderr

    def test_non_positive_explicit_covariance(self, tmp_path):
        cfg = {
            "version": 1, "name": "bad-cov", "seed": 0, "seeds": [0],
            "output_dir": str(tmp_path / "out"),
            "problem": {"operator": {"kind": "identity", "dim": 1},
                        "ground_truth": {"source": "prior"}, "noise_sigma": 0.1},
            "prior": {"type": "explicit", "weights": [1.0], "means": [[0.0]],
                      "covariances": [-1.0]},
            "ensemble": {"members": [{"kind": "identity", "dim": 1}], "sigma": 1.0},
            "restorer": {"type": "exact-mmse"},
            "solver": {"gamma": 0.1, "tau": 1.0, "iterations": 5},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        proc = run_cli("run", str(path), "--quiet")
        self.assert_input_error(proc)
        assert "variance must be positive" in proc.stderr

    def test_unfactorable_innovation_covariance(self, tmp_path):
        # two equal rows scaled by 1e4: at sigma = 1e-8 the innovation
        # covariance keeps an exactly zero pivot past the last jitter (1e-10)
        cfg = {
            "version": 1, "name": "bad-member", "seed": 0, "seeds": [0],
            "output_dir": str(tmp_path / "out"),
            "problem": {"operator": {"kind": "identity", "dim": 2},
                        "ground_truth": {"source": "prior"}, "noise_sigma": 0.1},
            "prior": {"type": "explicit", "weights": [1.0], "means": [[0.0, 0.0]],
                      "covariances": [1.0]},
            "ensemble": {"members": [{"kind": "dense-matrix",
                                      "matrix": [[1e4, 0.0], [1e4, 0.0], [0.0, 1e4]]}],
                         "sigma": 1e-8},
            "restorer": {"type": "exact-mmse"},
            "solver": {"gamma": 0.1, "tau": 1.0, "iterations": 5},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        proc = run_cli("run", str(path), "--quiet")
        self.assert_input_error(proc)
        assert "not positive definite" in proc.stderr


ROOT = Path(__file__).resolve().parent.parent
DEMO = json.loads((ROOT / "configs" / "demo.json").read_text())


def _set(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


class TestDemoConfigEdits:
    """One-field edits of the shipped demo config: each is one config error."""

    @pytest.mark.parametrize("path,value,message", [
        (("metrics", "psnrr"), True, "unknown metrics keys: ['psnrr']"),
        (("image", "shapee"), [32, 32], "unknown image keys: ['shapee']"),
        (("problem", "operator", "maskk"), {"rows": [0]},
         "unknown masked-fourier keys: ['maskk']"),
        (("prior", "cov_scalee"), 0.03, "unknown gmm-recipe keys: ['cov_scalee']"),
        (("restorer", "typo"), 1, "unknown exact-mmse keys: ['typo']"),
        (("metrics", "psnr"), "no", "metrics.psnr must be true or false, got 'no'"),
        (("image", "complex"), "yes", "image.complex must be true or false, got 'yes'"),
        (("image", "shape"), [32.7, 32], "image.shape entry must be an integer >= 1, got 32.7"),
        (("name",), 5, "name must be a string, got 5"),
        (("output_dir",), 3, "output_dir must be a string, got 3"),
        (("ensemble", "members", 2, "extra"), 1, "unknown masked-fourier keys: ['extra']"),
        (("metrics", "psnr_peak"), "x", "metrics.psnr_peak must be a finite number > 0, got 'x'"),
        (("metrics", "psnr_peak"), -1.0,
         "metrics.psnr_peak must be a finite number > 0, got -1.0"),
        (("restorer",), "exact-mmse", "restorer must be an object, got 'exact-mmse'"),
        (("problem", "ground_truth"), "prior",
         "problem.ground_truth must be an object, got 'prior'"),
        (("image",), [32, 32], "image must be an object, got [32, 32]"),
        (("metrics",), [], "metrics must be an object, got []"),
    ])
    def test_one_config_error(self, tmp_path, capsys, path, value, message):
        cfg = copy.deepcopy(DEMO)
        _set(cfg, path, value)
        config = tmp_path / "demo.json"
        config.write_text(json.dumps(cfg))
        assert main(["run", str(config), "--quiet", "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [f"config error: {message}"]
        assert not (tmp_path / "out").exists()


def _mutation_bases():
    bench = load_bench_workloads()
    bases = {"demo": copy.deepcopy(DEMO), "superres": bench.superres_config(1)}
    bases.update((cfg["name"], cfg) for cfg, _, _ in bench.audit_instances(1))
    for cfg in bases.values():
        cfg["solver"]["iterations"] = 2
        cfg["seeds"] = cfg["seeds"][:1]
    return bases


MUTATION_BASES = _mutation_bases()


def _nodes(node, path=()):
    """Every (path, value) in a JSON document, the root and containers too."""
    yield path, node
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _nodes(child, path + (key,))


def _json_kind(value):
    return "number" if isinstance(value, float) else type(value).__name__


@st.composite
def _mutations(draw, base):
    """(kind, path, mutated config): one field of ``base`` given a wrong type
    or an unknown key, deleted, or set below its minimum or to a non-finite
    number. No mutation enlarges a shape, dimension, iteration count or seed
    list: every number it writes is -1, 0, 1.5 (in place of an integer) or
    not finite."""
    nodes = list(_nodes(base))
    kind = draw(st.sampled_from(["wrong type", "unknown key", "deleted", "below or not finite"]))
    cfg = copy.deepcopy(base)
    if kind == "unknown key":
        path = draw(st.sampled_from([p for p, v in nodes if isinstance(v, dict)]))
        _set(cfg, path + ("zz_unknown",), 1)
        return kind, path, cfg
    if kind == "deleted":
        path = draw(st.sampled_from([p for p, _ in nodes[1:] if isinstance(p[-1], str)]))
        parent = cfg
        for key in path[:-1]:
            parent = parent[key]
        del parent[path[-1]]
        return kind, path, cfg
    if kind == "wrong type":
        path, value = draw(st.sampled_from(nodes[1:]))
        values = [v for v in ("x", True, None, [], {}, 1.5) if _json_kind(v) != _json_kind(value)]
    else:
        numbers = [(p, v) for p, v in nodes if isinstance(v, (int, float))
                   and not isinstance(v, bool)]
        path, value = draw(st.sampled_from(numbers))
        values = [-1, 0, math.nan, math.inf, -math.inf]
    _set(cfg, path, draw(st.sampled_from(values)))
    return kind, path, cfg


@pytest.mark.parametrize("name", sorted(MUTATION_BASES))
@given(data=st.data())
def test_mutated_configs_never_escape(name, data):
    kind, path, cfg = data.draw(_mutations(MUTATION_BASES[name]))
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "cfg.json"
        config.write_text(json.dumps(cfg))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["run", str(config), "--quiet", "--out", str(Path(tmp) / "out")])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_DIVERGENCE), (kind, path)
    if kind == "unknown key":
        assert code == EXIT_CONFIG, path
    if code == EXIT_CONFIG:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith(("config error: ", "input error: ")), lines


class TestValidate:
    def test_validate_passes(self, capsys):
        assert main(["validate"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out


@pytest.mark.parametrize("argv", [
    ["validate", "--curves"],
    ["validate", "--threads", "4"],
    ["validate", "--out", "x"],
    ["audit", "cfg.json", "--curves"],
    ["audit", "cfg.json", "--threads", "4"],
    ["run", "cfg.json", "--threads", "2"],
    ["sweep", "cfg.json", "--grid", "grid.json", "--threads", "2"],
])
def test_flags_a_subcommand_ignores_are_refused(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_CONFIG
    assert "unrecognized arguments" in capsys.readouterr().err


class TestAudit:
    def test_audit_single_gaussian(self, tmp_path, capsys):
        cfg = {
            "version": 1, "name": "audit", "seed": 3, "seeds": list(range(6)),
            "output_dir": str(tmp_path / "out"),
            "problem": {"operator": {"kind": "identity", "dim": 1},
                        "ground_truth": {"source": "prior"},
                        "noise_sigma": 0.1},
            "prior": {"type": "explicit", "weights": [1.0], "means": [[0.0]],
                      "covariances": [1.0]},
            "ensemble": {"members": [{"kind": "identity", "dim": 1}],
                         "sigma": 1.0},
            "restorer": {"type": "exact-mmse"},
            "solver": {"gamma": 0.5, "tau": 1.0, "iterations": 150},
        }
        path = tmp_path / "audit.json.cfg"
        path.write_text(json.dumps(cfg))
        assert main(["audit", str(path)]) == EXIT_OK
        report = json.loads((tmp_path / "out" / "audit.json").read_text())
        assert report["pass"] is True
        assert report["members"] == [{"weight": 1.0, "variance_share": 1.0, "bias_norm": 0.0}]
        assert (tmp_path / "out" / "audit.txt").exists()
        assert "pass: true" in capsys.readouterr().out

    def test_audit_single_gaussian_above_dim_64(self, tmp_path):
        # dim 128: the solver's trace diagnostics and the audit share the
        # closed forms' own cap (512)
        path = write_config(tmp_path)
        cfg = json.loads(path.read_text())
        cfg["prior"]["components"] = 1
        path.write_text(json.dumps(cfg))
        assert main(["audit", str(path), "--quiet"]) == EXIT_OK
        report = json.loads((tmp_path / "out" / "audit.json").read_text())
        assert report["pass"] is True and report["lhs"] < report["rhs"]
        assert len(report["members"]) == 2

    def test_audit_refuses_mixture_without_probes(self, tmp_path, capsys):
        # no closed-form true gradient for mixtures: refusal, exit code 3
        cfg = {
            "version": 1, "name": "audit", "seed": 3, "seeds": [0, 1],
            "output_dir": str(tmp_path / "out"),
            "problem": {"operator": {"kind": "identity", "dim": 1},
                        "ground_truth": {"source": "prior"},
                        "noise_sigma": 0.1},
            "prior": {"type": "explicit", "weights": [0.5, 0.5],
                      "means": [[0.0], [1.0]],
                      "covariances": [1.0, 1.0]},
            "ensemble": {"members": [{"kind": "identity", "dim": 1}],
                         "sigma": 1.0},
            "restorer": {"type": "exact-mmse"},
            "solver": {"gamma": 0.2, "tau": 1.0, "iterations": 20},
        }
        path = tmp_path / "mix.cfg"
        path.write_text(json.dumps(cfg))
        assert main(["audit", str(path)]) == 3
        assert "audit error" in capsys.readouterr().err


class TestSquaredParameters:
    """The step divides by ensemble.sigma squared and PSNR by the peak
    squared: a value whose square is 0 or overflows is one config error
    before anything runs; values near either end of the range still run."""

    @staticmethod
    def run_with(tmp_path, capsys, block, key, value):
        path = write_config(tmp_path, iterations=5)
        cfg = json.loads(path.read_text())
        cfg[block][key] = value
        path.write_text(json.dumps(cfg))
        code = main(["run", str(path), "--quiet"])
        return code, capsys.readouterr().err.splitlines()

    @pytest.mark.parametrize("block,key,value", [
        ("ensemble", "sigma", 1e-300), ("ensemble", "sigma", 1e200),
        ("metrics", "psnr_peak", 1e-320)])
    def test_refused(self, tmp_path, capsys, block, key, value):
        code, err = self.run_with(tmp_path, capsys, block, key, value)
        assert code == EXIT_CONFIG
        assert err == [f"config error: {block}.{key} must be a number with a finite "
                       f"square > 0, got {value!r}"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("block,key,value", [
        ("ensemble", "sigma", 1.3e154), ("metrics", "psnr_peak", 1e-160)])
    def test_the_range_ends_run(self, tmp_path, capsys, block, key, value):
        code, err = self.run_with(tmp_path, capsys, block, key, value)
        assert (code, err) == (EXIT_OK, [])
        rows = (tmp_path / "out" / "summary.csv").read_text().splitlines()[1:]
        assert len(rows) == 2
        assert all(math.isfinite(float(row.split(",")[2])) for row in rows)  # PSNR

    @pytest.mark.parametrize("peak,ssim,refused", [
        (1e80, True, True), (1e79, True, True), (1e77, True, False), (1e80, False, False)])
    def test_an_ssim_peak_must_keep_its_constants_finite(self, tmp_path, capsys, peak, ssim,
                                                          refused):
        # SSIM's C1 C2 = (0.01 peak)² (0.03 peak)² overflows above about
        # 6.68e78, which made every SSIM nan; PSNR alone takes such a peak
        path = write_config(tmp_path, iterations=5)
        cfg = json.loads(path.read_text())
        cfg["metrics"].update(psnr_peak=peak, ssim=ssim)
        path.write_text(json.dumps(cfg))
        code = main(["run", str(path), "--quiet"])
        err = capsys.readouterr().err.splitlines()
        if refused:
            assert code == EXIT_CONFIG
            assert err == [f"config error: metrics.psnr_peak {peak!r} makes SSIM's C1 C2 = "
                           "(0.01 peak)² (0.03 peak)² overflow; set a peak of at most "
                           "6.68e78 or metrics.ssim to false"]
            assert not (tmp_path / "out").exists()
            return
        assert (code, err) == (EXIT_OK, [])
        rows = (tmp_path / "out" / "summary.csv").read_text().splitlines()
        header = rows[0].split(",")
        for row in rows[1:]:
            cells = dict(zip(header, row.split(",")))
            assert math.isfinite(float(cells["psnr_db"]))
            assert (cells["ssim"] == "") != ssim and (not ssim or float(cells["ssim"]) == 1.0)

    @pytest.mark.parametrize("sigma", [1e-300, 1e200])
    def test_library_callers_get_the_same_rule(self, sigma):
        from srp.operators import DegradationEnsemble, Identity
        from srp.priors import ObservationModel
        for make in (lambda: DegradationEnsemble([Identity(2)], sigma=sigma),
                     lambda: ObservationModel(Identity(2), sigma)):
            with pytest.raises(ValueError, match="as must sigma²"):
                make()


def test_audit_refuses_a_zero_step_size(tmp_path):
    # the bound's transient term divides by gamma * iterations; a run at
    # gamma 0 is valid
    path = single_gaussian_config(tmp_path)
    cfg = json.loads(path.read_text())
    cfg["solver"]["gamma"] = 0
    path.write_text(json.dumps(cfg))
    proc = run_cli("audit", str(path), "--quiet")
    assert proc.returncode == 3 and "Traceback" not in proc.stderr, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("audit error: audit needs solver.gamma > 0")
    assert run_cli("run", str(path), "--quiet").returncode == EXIT_OK


class TestSweep:
    def test_grid_sweep(self, tmp_path):
        path = write_config(tmp_path, iterations=10)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"solver.gamma": [0.1, 0.2],
                                    "solver.tau": [0.01]}))
        assert main(["sweep", str(path), "--grid", str(grid), "--quiet",
                     "--out", str(tmp_path / "sweep")]) == EXIT_OK
        index = (tmp_path / "sweep" / "sweep_index.csv").read_text().splitlines()
        assert len(index) == 3  # header + 2 combos
        assert (tmp_path / "sweep" / "sweep_000" / "summary.csv").exists()
        assert (tmp_path / "sweep" / "sweep_001" / "summary.csv").exists()

    def test_index_quotes_list_values(self, tmp_path):
        # a list value's commas stay inside its cell; scalar cells keep the
        # repr they were written with before the index was a csv.writer's
        path = write_config(tmp_path, iterations=3)
        grid = tmp_path / "grid.json"
        weights = [[0.5, 0.5], [0.25, 0.75]]
        grid.write_text(json.dumps({"ensemble.weights": weights, "solver.gamma": [0.1],
                                    "solver.selection.strategy": ["iid-by-weights"]}))
        assert main(["sweep", str(path), "--grid", str(grid), "--quiet",
                     "--out", str(tmp_path / "sweep")]) == EXIT_OK
        text = (tmp_path / "sweep" / "sweep_index.csv").read_text()
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["sweep_id", "ensemble.weights", "solver.gamma",
                           "solver.selection.strategy"]
        assert all(len(row) == len(rows[0]) for row in rows)
        assert [json.loads(row[1]) for row in rows[1:]] == weights
        assert text.splitlines()[1] == "sweep_000,\"[0.5, 0.5]\",0.1,'iid-by-weights'"

    def test_sweep_sets_the_strategy_of_an_absent_selection(self, tmp_path):
        path = write_config(tmp_path, iterations=5)
        cfg = json.loads(path.read_text())
        del cfg["solver"]["selection"]
        path.write_text(json.dumps(cfg))
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"solver.selection.strategy": ["cyclic"]}))
        assert main(["sweep", str(path), "--grid", str(grid), "--quiet",
                     "--out", str(tmp_path / "sweep")]) == EXIT_OK
        report = json.loads((tmp_path / "sweep" / "sweep_000" / "report.json").read_text())
        assert report["config"]["solver"]["selection"]["strategy"] == "cyclic"


def single_gaussian_config(tmp_path, **config):
    """``write_config`` with one prior component, which the audit needs, and
    top-level fields replaced by ``config``."""
    path = write_config(tmp_path, iterations=5)
    cfg = json.loads(path.read_text())
    cfg["prior"]["components"] = 1
    cfg.update(config)
    path.write_text(json.dumps(cfg))
    return path


class TestOutputPaths:
    """An output path that is, or lies under, an existing file is one config
    error line, exit 2, for every command that writes, before any solve."""

    @pytest.mark.parametrize("command", ["run", "audit", "sweep"])
    @pytest.mark.parametrize("via", ["--out", "output_dir"])
    def test_output_path_through_a_file(self, tmp_path, capsys, monkeypatch,
                                        command, via):
        def no_audit(*args, **kwargs):
            raise AssertionError("the audit ran before its output path was checked")

        monkeypatch.setattr("srp.cli.audit_experiment", no_audit)
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        # the flag names the file itself, the config a directory under it
        out = blocker if via == "--out" else blocker / "out"
        path = single_gaussian_config(tmp_path, output_dir=str(out))
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"solver.gamma": [0.1]}))
        argv = [command, str(path), "--quiet"]
        argv += ["--out", str(out)] if via == "--out" else []
        argv += ["--grid", str(grid)] if command == "sweep" else []
        assert main(argv) == EXIT_CONFIG
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: "), lines
        assert blocker.read_text() == ""

    @staticmethod
    def argv(tmp_path, command):
        out = tmp_path / "out"
        path = single_gaussian_config(tmp_path, output_dir=str(out))
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"solver.gamma": [0.1]}))
        return [command, str(path), "--quiet"] + (
            ["--grid", str(grid)] if command == "sweep" else [])

    @pytest.mark.parametrize("command,artifact", [("run", "summary.csv"), ("audit", "audit.txt"),
                                                  ("sweep", "sweep_index.csv")])
    def test_artifact_name_held_by_a_directory(self, tmp_path, command, artifact):
        argv = self.argv(tmp_path, command)
        (tmp_path / "out" / artifact).mkdir(parents=True)
        proc = run_cli(*argv)
        assert proc.returncode == EXIT_CONFIG and "Traceback" not in proc.stderr, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: "), lines
        assert artifact in lines[0]

    @pytest.mark.parametrize("command", ["run", "audit", "sweep"])
    def test_unwritable_artifact(self, tmp_path, capsys, monkeypatch, command):
        # a process run as root may write anywhere, so every write is refused
        # in process, as a file system would refuse it
        real_open = io.open

        def refuse_writes(file, mode="r", *args, **kwargs):
            if any(c in mode for c in "wax+"):
                raise PermissionError(13, "Permission denied", str(file))
            return real_open(file, mode, *args, **kwargs)

        argv = self.argv(tmp_path, command)
        monkeypatch.setattr("builtins.open", refuse_writes)
        monkeypatch.setattr("io.open", refuse_writes)  # Path.write_text's open
        assert main(argv) == EXIT_CONFIG
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: "), lines
        assert "Permission denied" in lines[0]


class TestOverrides:
    def test_run_seed_and_out_echoed(self, tmp_path):
        path = single_gaussian_config(tmp_path)
        out = tmp_path / "D"
        assert main(["run", str(path), "--quiet", "--seed", "9", "--out", str(out)]) == EXIT_OK
        echo = json.loads((out / "report.json").read_text())["config"]
        assert (echo["seed"], echo["output_dir"]) == (9, str(out))
        assert not (tmp_path / "out").exists()

    def test_audit_seed_applies(self, tmp_path):
        def audit(name, *flags, **config):
            path = single_gaussian_config(tmp_path / name, **config)
            out = tmp_path / name / "audit"
            assert main(["audit", str(path), "--quiet", "--out", str(out), *flags]) == EXIT_OK
            return (out / "audit.json").read_text()
        for name in ("flag", "config", "default"):
            (tmp_path / name).mkdir()
        by_flag = audit("flag", "--seed", "9")
        assert by_flag == audit("config", seed=9)
        assert by_flag != audit("default")

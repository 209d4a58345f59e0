import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import srp
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
    def assert_input_error(self, proc):
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("input error: "), lines

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


class TestValidate:
    def test_validate_passes(self, capsys):
        assert main(["validate"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out


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
        assert (tmp_path / "out" / "audit.txt").exists()
        assert "pass: true" in capsys.readouterr().out

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

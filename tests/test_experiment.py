import numpy as np

from srp.arrayio import read_array, write_array
from srp.config import ExperimentConfig, build_experiment
from srp.experiment import (
    SUMMARY_HEADER,
    audit_experiment,
    run_experiment,
    simulate_measurement,
)
from srp.metrics import magnitude, psnr
from srp.objective import Regularizer, SingleGaussianForms
from srp.solver import AuditProbes


def small_complex_config(out_dir, seeds=(1, 2, 3), iterations=40, name="unit"):
    shape = [8, 8]
    members = [
        {"kind": "masked-fourier", "shape": shape,
         "mask": {"type": "uniform-rows", "accel": 4, "offset": o, "acs_lines": 2}}
        for o in range(4)
    ]
    return ExperimentConfig.from_dict({
        "version": 1,
        "name": name,
        "seed": 7,
        "seeds": list(seeds),
        "output_dir": str(out_dir),
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
        "ensemble": {"members": members, "sigma": 0.05},
        "restorer": {"type": "exact-mmse"},
        "solver": {"gamma": 0.2, "tau": 0.01, "iterations": iterations,
                   "selection": {"strategy": "iid-by-weights"}, "x0": "adjoint"},
        "metrics": {"psnr": True, "ssim": True},
    })


class TestSimulate:
    def test_noiseless_identity(self):
        cfg = ExperimentConfig.from_dict({
            "version": 1, "name": "s", "seed": 1, "seeds": [1],
            "output_dir": "unused",
            "problem": {"operator": {"kind": "identity", "dim": 3},
                        "ground_truth": {"source": "prior"}, "noise_sigma": 0.0},
            "prior": {"type": "gmm-recipe", "dim": 3, "components": 1,
                      "seed": 2, "cov_scale": 1.0},
            "ensemble": {"members": [{"kind": "identity", "dim": 3}],
                         "sigma": 0.5},
            "restorer": {"type": "exact-mmse"},
            "solver": {"gamma": 0.1, "tau": 1.0, "iterations": 5},
        })
        built = build_experiment(cfg)
        x, y = simulate_measurement(built, np.random.default_rng(0))
        np.testing.assert_array_equal(y, x)

    def test_mask_zeroes_unkept(self):
        cfg = ExperimentConfig.from_dict({
            "version": 1, "name": "s", "seed": 1, "seeds": [1],
            "output_dir": "unused",
            "problem": {"operator": {"kind": "coordinate-mask", "dim": 4,
                                     "keep": [1, 2]},
                        "ground_truth": {"source": "prior"}, "noise_sigma": 0.0},
            "prior": {"type": "gmm-recipe", "dim": 4, "components": 1,
                      "seed": 2, "cov_scale": 1.0},
            "ensemble": {"members": [{"kind": "identity", "dim": 4}],
                         "sigma": 0.5},
            "restorer": {"type": "exact-mmse"},
            "solver": {"gamma": 0.1, "tau": 1.0, "iterations": 5},
        })
        built = build_experiment(cfg)
        _, y = simulate_measurement(built, np.random.default_rng(0))
        assert y[0] == 0.0 and y[3] == 0.0

    def test_noise_energy_concentrates(self):
        n = 20_000
        cfg = ExperimentConfig.from_dict({
            "version": 1, "name": "s", "seed": 1, "seeds": [1],
            "output_dir": "unused",
            "problem": {"operator": {"kind": "scale", "dim": n, "factor": 0.0},
                        "ground_truth": {"source": "prior"},
                        "noise_sigma": 0.3},
            "prior": {"type": "gmm-recipe", "dim": n, "components": 1,
                      "seed": 2, "cov_scale": 1.0},
            "ensemble": {"members": [{"kind": "identity", "dim": n}],
                         "sigma": 0.5},
            "restorer": {"type": "exact-mmse"},
            "solver": {"gamma": 0.1, "tau": 1.0, "iterations": 5},
        })
        built = build_experiment(cfg)
        _, y = simulate_measurement(built, np.random.default_rng(3))
        # A = 0 so y is pure noise; chi-square concentration at m >= 1e4
        assert abs(float(np.mean(y ** 2)) - 0.09) < 0.05 * 0.09

    def test_ground_truth_from_file(self, tmp_path):
        gt = np.random.default_rng(4).standard_normal(4)
        path = tmp_path / "gt.f64"
        write_array(path, gt)
        cfg = ExperimentConfig.from_dict({
            "version": 1, "name": "s", "seed": 1, "seeds": [1],
            "output_dir": "unused",
            "problem": {"operator": {"kind": "identity", "dim": 4},
                        "ground_truth": {"source": "file", "path": str(path)},
                        "noise_sigma": 0.0},
            "prior": {"type": "gmm-recipe", "dim": 4, "components": 1,
                      "seed": 2, "cov_scale": 1.0},
            "ensemble": {"members": [{"kind": "identity", "dim": 4}],
                         "sigma": 0.5},
            "restorer": {"type": "exact-mmse"},
            "solver": {"gamma": 0.1, "tau": 1.0, "iterations": 5},
        })
        built = build_experiment(cfg)
        x, _ = simulate_measurement(built, np.random.default_rng(0))
        np.testing.assert_array_equal(x, gt)


class TestRunExperiment:
    def test_artifacts_and_determinism(self, tmp_path):
        cfg = small_complex_config(tmp_path / "a")
        res1 = run_experiment(cfg)
        res2 = run_experiment(cfg, out_dir=tmp_path / "b")
        assert len(res1.rows) == 3
        for seed in (1, 2, 3):
            a = (tmp_path / "a" / f"trace_seed{seed}.csv").read_bytes()
            b = (tmp_path / "b" / f"trace_seed{seed}.csv").read_bytes()
            assert a == b
        sa = (tmp_path / "a" / "summary.csv").read_bytes()
        sb = (tmp_path / "b" / "summary.csv").read_bytes()
        assert sa == sb
        assert sa.decode().splitlines()[0] == SUMMARY_HEADER

    def test_rerun_overwrites_in_place(self, tmp_path):
        cfg = small_complex_config(tmp_path / "c")
        run_experiment(cfg)
        first = (tmp_path / "c" / "summary.csv").read_bytes()
        run_experiment(cfg)
        assert (tmp_path / "c" / "summary.csv").read_bytes() == first

    def test_outputs_under_output_dir(self, tmp_path):
        out = tmp_path / "nested" / "dir"
        cfg = small_complex_config(out, seeds=(1,))
        res = run_experiment(cfg)
        assert res.out_dir == out
        for p in out.iterdir():
            assert p.is_file()

    def test_summary_psnr_recomputable_from_final_iterates(self, tmp_path):
        cfg = small_complex_config(tmp_path / "d", seeds=(1, 2))
        res = run_experiment(cfg)
        for row in res.rows:
            final = read_array(tmp_path / "d" / f"final_seed{row.seed}.f64")
            truth = read_array(tmp_path / "d" / f"truth_seed{row.seed}.f64")
            mhat = magnitude(final.ravel())
            mtrue = magnitude(truth.ravel())
            again = psnr(mhat, mtrue, peak=float(np.max(np.abs(mtrue)))).db
            assert abs(again - row.psnr_db) < 1e-9

    def test_threaded_matches_serial(self, tmp_path):
        cfg = small_complex_config(tmp_path / "e")
        serial = run_experiment(cfg, out_dir=tmp_path / "e1")
        threaded = run_experiment(cfg, threads=3, out_dir=tmp_path / "e2")
        for seed in (1, 2, 3):
            a = (tmp_path / "e1" / f"trace_seed{seed}.csv").read_bytes()
            b = (tmp_path / "e2" / f"trace_seed{seed}.csv").read_bytes()
            assert a == b

    def test_curves_written(self, tmp_path):
        cfg = small_complex_config(tmp_path / "f", seeds=(1, 2), iterations=10)
        run_experiment(cfg, curves=True)
        text = (tmp_path / "f" / "curves.csv").read_text().splitlines()
        assert text[0].startswith("k,step_sq_mean,step_sq_std")
        assert len(text) == 11

    def test_single_vs_ensemble_configs_comparable(self, tmp_path):
        # the ablation pattern: identical configs except for the ensemble
        full = small_complex_config(tmp_path / "g1", seeds=(1, 2), name="full")
        single = small_complex_config(tmp_path / "g2", seeds=(1, 2), name="single")
        d = single.to_dict()
        d["ensemble"]["members"] = d["ensemble"]["members"][:1]
        single = ExperimentConfig.from_dict(d)
        r_full = run_experiment(full)
        r_single = run_experiment(single)
        assert {r.seed for r in r_full.rows} == {r.seed for r in r_single.rows}


class TestBlurDownsamplePipeline:
    def test_convex_combo_ensemble_end_to_end(self, tmp_path):
        # super-resolution style measurement (blur then 2-fold downsample)
        # regularized by blends of identity with the blur operator
        n = 64
        kernel = [0.25, 0.5, 0.25]
        members = [
            {"kind": "convex-combo", "alpha": a,
             "inner": {"kind": "circular-convolution", "dim": n,
                       "kernel": kernel}}
            for a in (0.25, 0.5, 0.75, 1.0)
        ]
        cfg = ExperimentConfig.from_dict({
            "version": 1, "name": "sisr", "seed": 21, "seeds": [1, 2, 3],
            "output_dir": str(tmp_path),
            "problem": {
                "operator": {"kind": "composition", "stages": [
                    {"kind": "circular-convolution", "dim": n, "kernel": kernel},
                    {"kind": "fold-downsample", "dim": n, "factor": 2},
                ]},
                "ground_truth": {"source": "prior"},
                "noise_sigma": 0.005,
            },
            "prior": {"type": "gmm-recipe", "dim": n, "components": 2,
                      "seed": 3, "cov_scale": 0.05, "mean_scale": 1.0},
            "ensemble": {"members": members, "sigma": 0.05},
            "restorer": {"type": "exact-mmse"},
            "solver": {"gamma": 0.05, "tau": 0.02, "iterations": 150,
                       "selection": {"strategy": "iid-by-weights"},
                       "x0": "adjoint"},
            "metrics": {"psnr": True, "ssim": False},
        })
        res = run_experiment(cfg)
        # the solve must clearly beat the blurry zero-inserted baseline
        built = build_experiment(cfg)
        for row in res.rows:
            truth = read_array(tmp_path / f"truth_seed{row.seed}.f64").ravel()
            baseline = built.A.adjoint_apply(built.A.apply(truth))
            base_db = psnr(baseline, truth, peak=float(np.max(np.abs(truth)))).db
            assert row.psnr_db > base_db + 3.0


class TestAuditExperiment:
    def test_single_gaussian_audit_passes(self, tmp_path):
        cfg = ExperimentConfig.from_dict({
            "version": 1, "name": "audit", "seed": 3, "seeds": list(range(8)),
            "output_dir": str(tmp_path),
            "problem": {"operator": {"kind": "identity", "dim": 2},
                        "ground_truth": {"source": "prior"},
                        "noise_sigma": 0.1},
            "prior": {"type": "explicit", "weights": [1.0],
                      "means": [[0.0, 0.0]], "covariances": [1.0]},
            "ensemble": {"members": [{"kind": "identity", "dim": 2}],
                         "sigma": 1.0},
            "restorer": {"type": "exact-mmse"},
            "solver": {"gamma": 0.4, "tau": 1.0, "iterations": 150},
        })
        report = audit_experiment(cfg)
        assert report.passed
        assert report.f_star_kind == "exact"

    def test_closed_forms_built_once(self, tmp_path, monkeypatch):
        cfg = ExperimentConfig.from_dict({
            "version": 1, "name": "audit", "seed": 5, "seeds": [1, 2, 3],
            "output_dir": str(tmp_path),
            "problem": {"operator": {"kind": "dense-matrix", "matrix": [
                [1.0, 0.2, 0.0, 0.0], [0.0, 0.9, 0.0, 0.0],
                [0.0, 0.0, 0.7, 0.1], [0.0, 0.0, 0.0, 0.5]]},
                        "noise_sigma": 0.1},
            "prior": {"type": "explicit", "weights": [1.0],
                      "means": [[0.5, -0.3, 0.2, 0.1]], "covariances": [0.8]},
            "ensemble": {"members": [
                {"kind": "identity", "dim": 4},
                {"kind": "coordinate-mask", "dim": 4, "keep": [0, 1]},
                {"kind": "coordinate-mask", "dim": 4, "keep": [2, 3]}],
                "sigma": 0.7},
            "restorer": {"type": "exact-mmse"},
            "solver": {"gamma": 0.3, "tau": 0.8, "iterations": 40},
        })
        probes = AuditProbes(mc_variance=500, mc_bias=200)
        builds = []
        init = SingleGaussianForms.__init__
        monkeypatch.setattr(SingleGaussianForms, "__init__",
                            lambda self, reg: builds.append(reg) or init(self, reg))
        report = audit_experiment(cfg, probes=probes)
        assert len(builds) == 1
        # the same audit with a fresh build at every use: three runs, the
        # curvature bound and the objective minimum
        monkeypatch.setattr(Regularizer, "gaussian_forms",
                            property(lambda reg: SingleGaussianForms(reg)))
        fresh = audit_experiment(cfg, probes=probes)
        assert len(builds) == 1 + 5
        assert report.to_text() == fresh.to_text()

import json
from dataclasses import replace

import numpy as np
import pytest

from conftest import load_bench_workloads
from srp import arrayio
from srp.arrayio import read_array, write_array
from srp.cli import EXIT_DIVERGENCE, main
from srp.config import ExperimentConfig, build_experiment, build_solver_config
from srp.experiment import (
    SUMMARY_HEADER,
    _block_psnr,
    _seed_streams,
    _solver_inputs,
    _to_image,
    audit_experiment,
    run_experiment,
    run_seeds,
    shared_head_peel,
    simulate_measurement,
)
from srp.metrics import magnitude, psnr
from srp.objective import Problem, Regularizer, SingleGaussianForms
from srp.operators import CoordinateMask, Identity
from srp.priors import LinearGaussianPosterior, StackedPosterior
from srp.solver import AuditProbes, DivergenceError, audit_convergence, run


def run_single(built, seed_value):
    """One seed through ``run_seeds``: (row, trace, x_final, x_true), or its
    divergence raised."""
    (result,) = run_seeds(built, [seed_value])
    if isinstance(result, DivergenceError):
        raise result
    return result


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

    def test_ground_truth_file_read_once(self, tmp_path, monkeypatch):
        path = tmp_path / "gt.f64"
        write_array(path, np.arange(4.0))
        cfg = ExperimentConfig.from_dict({
            "version": 1, "name": "s", "seed": 1, "seeds": [1, 2],
            "output_dir": str(tmp_path / "out"),
            "problem": {"operator": {"kind": "identity", "dim": 4},
                        "ground_truth": {"source": "file", "path": str(path)}},
            "prior": {"type": "gmm-recipe", "dim": 4, "components": 1,
                      "seed": 2, "cov_scale": 1.0},
            "ensemble": {"members": [{"kind": "identity", "dim": 4}], "sigma": 0.5},
            "restorer": {"type": "exact-mmse"},
            "solver": {"gamma": 0.1, "tau": 1.0, "iterations": 5},
        })
        built = build_experiment(cfg)

        def refuse(path):
            raise AssertionError(f"{path} read again")
        monkeypatch.setattr(arrayio, "read_array", refuse)
        run_experiment(built)
        for seed in cfg.seeds:
            np.testing.assert_array_equal(read_array(tmp_path / "out" / f"truth_seed{seed}.f64"),
                                          np.arange(4.0))


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

    def test_lockstep_rows_match_solo_seeds(self, tmp_path):
        # 3 seeds in one block against each seed alone; the K = 2 mixture's
        # responsibility-weighted means are a matrix product over the rows
        # of one member, so rows agree to rounding
        cfg = small_complex_config(tmp_path / "e")
        result = run_experiment(cfg)
        built = build_experiment(cfg)
        for row in result.rows:
            solo_row, solo, x_solo, _ = run_single(built, row.seed)
            trace = result.traces[row.seed]
            np.testing.assert_array_equal(trace.op_index, solo.op_index)
            scale = np.max(np.abs(x_solo))
            assert np.max(np.abs(trace.x_final - x_solo)) <= 64 * np.finfo(float).eps * scale
            assert abs(row.psnr_db - solo_row.psnr_db) <= 1e-9

    def test_threads_other_than_one_refused(self, tmp_path):
        with pytest.raises(ValueError, match="threads must be 1"):
            run_experiment(small_complex_config(tmp_path / "t"), threads=2)
        assert not (tmp_path / "t").exists()

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


def diverging_config(out_dir):
    """Seeds 1, 2 and 3 on a 2-D instance with an unstable step: seed 2's
    iterate overflows at iteration 3, the others finish their 3 iterations."""
    return ExperimentConfig.from_dict({
        "version": 1, "name": "div", "seed": 3, "seeds": [1, 2, 3],
        "output_dir": str(out_dir),
        "problem": {"operator": {"kind": "identity", "dim": 2},
                    "ground_truth": {"source": "prior"}, "noise_sigma": 0.1},
        "prior": {"type": "explicit", "weights": [1.0], "means": [[0.0, 0.0]],
                  "covariances": [1.0]},
        "ensemble": {"members": [{"kind": "identity", "dim": 2},
                                 {"kind": "coordinate-mask", "dim": 2, "keep": [0]}],
                     "sigma": 1.0},
        "restorer": {"type": "exact-mmse"},
        "solver": {"gamma": 6e102, "tau": 1.0, "iterations": 3},
        "metrics": {"psnr": False, "ssim": False},
    })


class TestDivergenceInABlock:
    """A diverging seed leaves the block; the others finish and write their
    files, then the first diverged seed's error is raised."""

    def test_the_others_finish_and_the_error_is_raised(self, tmp_path):
        out = tmp_path / "out"
        cfg = diverging_config(out)
        built = build_experiment(cfg)
        with pytest.raises(DivergenceError) as err:
            run_experiment(built)
        with pytest.raises(DivergenceError) as solo:
            run_single(built, 2)
        assert err.value.iteration == solo.value.iteration == 3
        assert np.array_equal(err.value.last_iterate, solo.value.last_iterate)
        for seed in (1, 3):
            _, trace, x_final, x_true = run_single(built, seed)
            assert (out / f"trace_seed{seed}.csv").read_text() == trace.csv_text()
            np.testing.assert_array_equal(read_array(out / f"final_seed{seed}.f64"), x_final)
            np.testing.assert_array_equal(read_array(out / f"truth_seed{seed}.f64"), x_true)
        assert not (out / "trace_seed2.csv").exists()
        assert not (out / "summary.csv").exists()
        assert not (out / "report.json").exists()

    def test_cli_exit_code(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(diverging_config(tmp_path / "out").to_dict()))
        assert main(["run", str(path), "--quiet"]) == EXIT_DIVERGENCE
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "final_seed1.f64", "final_seed3.f64", "trace_seed1.csv", "trace_seed3.csv",
            "truth_seed1.f64", "truth_seed3.f64"]

    def test_the_rows_left_are_scored_against_their_own_truths(self, tmp_path):
        # the middle seed starts near overflow and leaves the block; the
        # block scorer then sees the other two rows, each scored against
        # its own seed's truth as metrics.psnr scores it, bit for bit
        built = build_experiment(diverging_config(tmp_path / "out"))
        truths = [np.array([0.5, -1.0]), np.array([2.0, 0.1]), np.array([-0.3, 0.7])]
        refs = [(t, float(np.max(np.abs(t)))) for t in truths]
        reg = Regularizer(tau=built.tau, prior=built.prior, ens=built.ensemble)
        cfgs = [replace(built.solver, gamma=3.0, iterations=30, seed=s, x0=x0,
                        record_iterates=True)
                for s, x0 in ((1, "zeros"), (2, np.full(2, 1e300)), (3, "adjoint"))]
        outcomes = run([Problem(built.A, np.array([0.2, -0.4]))] * 3, reg, built.restorer,
                       cfgs, psnr_fn=_block_psnr(built, None, refs))
        assert isinstance(outcomes[1], DivergenceError)
        for i in (0, 2):
            want = [psnr(x, truths[i], refs[i][1]).db for x in outcomes[i].iterates[1:]]
            assert np.all(np.isfinite(want))
            assert outcomes[i].psnr.tolist() == want


class TestBlockPsnr:
    """One scorer per iteration scores the live block: each row is
    ``metrics.psnr(...).db`` of its iterate, bit for bit."""

    @pytest.mark.parametrize("name", ["demo", "superres"])
    def test_trace_column_is_psnr_of_each_iterate(self, tmp_path, name):
        # demo: complex images, solved behind the DFT head; superres: real
        # vectors, no head
        bench = load_bench_workloads()
        spec = getattr(bench, f"{name}_config")(1, smoke=True)
        spec["output_dir"] = str(tmp_path)
        built = build_experiment(ExperimentConfig.from_dict(spec))
        built.solver = replace(built.solver, record_iterates=True)
        U = _solver_inputs(built)[3]
        assert (U is not None) == (name == "demo")
        back = (lambda v: v) if U is None else U.adjoint_apply
        results = run_seeds(built, built.cfg.seeds)
        assert len(results) == len(built.cfg.seeds) > 1
        for row, trace, x_final, x_true in results:
            img_true = _to_image(built, x_true).ravel()
            peak = float(np.max(np.abs(img_true)))
            want = [psnr(_to_image(built, back(x)).ravel(), img_true, peak).db
                    for x in trace.iterates[1:]]
            assert trace.psnr.tolist() == want
            assert row.psnr_db == want[-1]

    def test_caps_and_overflow_row_by_row(self, tmp_path):
        built = build_experiment(diverging_config(tmp_path))
        truths = [np.array([0.5, -1.0]), np.array([2.0, 0.1]),
                  np.array([-0.3, 0.7]), np.array([1.0, 1.0])]
        refs = [(t, float(np.max(np.abs(t)))) for t in truths]
        score = _block_psnr(built, None, refs)
        # an exact match, past 99 dB, an ordinary value, an overflowing error
        x = np.stack([truths[0], truths[1] + 1e-9, truths[2] + 0.1, [1e200, 1.0]])
        want = [psnr(row, t, peak) for row, (t, peak) in zip(x, refs)]
        assert [w.capped for w in want] == [True, True, False, False]
        assert want[3].db == -np.inf
        assert score(x, [0, 1, 2, 3]).tolist() == [w.db for w in want]
        assert score(x[[1, 3]], [1, 3]).tolist() == [want[1].db, want[3].db]
        assert score(x[[2]], [2]).tolist() == [want[2].db]  # one seed: a one-row block
        with pytest.raises(ValueError, match="peak must be positive"):
            _block_psnr(built, None, [(truths[0], 0.0)])


class TestPsnrOfHugeIterates:
    """A finite iterate whose squared error overflows scores -inf dB, with
    no warning, in the trace and the summary; the 2-D instance at
    gamma = 4e102 diverges at seed 4 with PSNR on."""

    @staticmethod
    def config(out_dir, seeds):
        cfg = diverging_config(out_dir)
        return _with(cfg, seeds=list(seeds), solver=dict(cfg.solver, gamma=4e102),
                     metrics={"psnr": True, "ssim": False})

    def test_trace_and_summary_read_minus_inf(self, tmp_path):
        result = run_experiment(self.config(tmp_path / "out", (1, 2, 3)))
        assert len(result.rows) == 3
        for row in result.rows:
            trace = result.traces[row.seed]
            assert np.all(np.isfinite(trace.x_final))
            assert np.isfinite(trace.psnr[0]) and trace.psnr[-1] == -np.inf
            assert row.psnr_db == -np.inf and not row.psnr_capped
        rows = (tmp_path / "out" / "summary.csv").read_text().splitlines()[1:]
        assert [r.split(",")[2] for r in rows] == ["-inf"] * 3

    def test_diverging_seed_raises_and_exits_4(self, tmp_path):
        cfg = self.config(tmp_path / "out", (4,))
        with pytest.raises(DivergenceError):
            run_experiment(cfg)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        assert main(["run", str(path), "--quiet"]) == EXIT_DIVERGENCE


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
        # the same audit with a fresh build at every use: the one lockstep
        # block of three seeds, the curvature bound and the objective minimum
        monkeypatch.setattr(Regularizer, "gaussian_forms",
                            property(lambda reg: SingleGaussianForms(reg)))
        fresh = audit_experiment(cfg, probes=probes)
        assert len(builds) == 1 + 3
        assert report.to_text() == fresh.to_text()


# -- shared-head peel ------------------------------------------------------------


def _unpeeled_run(built, seed_value, x0=None):
    """``solver.run`` on the experiment's own inputs, as ``run_single`` would
    call it without the peel: same y, solver seed and PSNR callback."""
    cfg = built.cfg
    sim_rng, solver_seed = _seed_streams(cfg.seed, seed_value)
    x_true, y = simulate_measurement(built, sim_rng)
    scfg = build_solver_config(cfg.solver, solver_seed)
    if x0 is not None:
        scfg.x0 = x0
    psnr_fn = None
    if cfg.metrics.get("psnr", True):
        img_true = _to_image(built, x_true)
        peak = float(np.max(np.abs(img_true)))
        psnr_fn = lambda x: psnr(_to_image(built, x).ravel(), img_true.ravel(), peak).db
    reg = Regularizer(tau=built.tau, prior=built.prior, ens=built.ensemble)
    return run(Problem(built.A, y), reg, built.restorer, scfg, psnr_fn=psnr_fn)


def _with(cfg, **blocks):
    d = cfg.to_dict()
    d.update(blocks)
    return ExperimentConfig.from_dict(d)


OFFSET = {"type": "biased", "inner": {"type": "exact-mmse"},
          "perturbation": {"type": "constant-offset", "offset": 0.02}}
GAIN_OFFSET = {"type": "biased", "inner": {
    "type": "biased", "inner": {"type": "exact-mmse"},
    "perturbation": {"type": "gain", "lam": 0.9}},
    "perturbation": {"type": "constant-offset", "offset": 0.02}}


class TestSharedHeadPeel:
    """Masked-Fourier solves run behind the shared DFT head, to rounding."""

    @pytest.mark.parametrize("restorer", [{"type": "exact-mmse"}, OFFSET, GAIN_OFFSET],
                             ids=["exact", "offset", "gain-offset"])
    def test_run_single_matches_unpeeled_solve(self, tmp_path, restorer):
        # 8x8 masked Fourier, K = 2 mixture, four masked-Fourier members
        cfg = _with(small_complex_config(tmp_path, seeds=(1, 2)), restorer=restorer)
        built = build_experiment(cfg)
        peel = shared_head_peel(built)
        assert peel is not None and shared_head_peel(built) is peel
        assert isinstance(peel.A, CoordinateMask)
        assert all(isinstance(H, CoordinateMask) for H in peel.ensemble.members)
        for seed in cfg.seeds:
            row, trace, x_final, _ = run_single(built, seed)
            x_ref, ref = _unpeeled_run(built, seed)
            np.testing.assert_array_equal(trace.op_index, ref.op_index)
            scale = np.max(np.abs(x_ref))
            assert np.max(np.abs(x_final - x_ref)) <= 1e-12 * scale
            assert trace.x_final is x_final
            np.testing.assert_allclose(trace.step_sq, ref.step_sq, rtol=1e-9)
            np.testing.assert_allclose(trace.grad_hat_norm, ref.grad_hat_norm, rtol=1e-9)
            assert np.max(np.abs(trace.psnr - ref.psnr)) <= 1e-9
            assert abs(row.psnr_db - ref.psnr[-1]) <= 1e-9

    def test_posteriors_filled_on_first_solve_and_kept(self, tmp_path):
        # behind the head every member is a mask: the first solve builds one
        # posterior per member and their stack, which later solves reuse
        built = build_experiment(small_complex_config(tmp_path, seeds=(1,)))
        assert "_head_peel" not in vars(built)  # nothing is peeled at build time
        run_single(built, 1)
        posteriors = dict(shared_head_peel(built).restorer._posteriors)
        stacks = dict(shared_head_peel(built).restorer._stacks)
        assert len(posteriors) == built.ensemble.size
        assert list(stacks) == [shared_head_peel(built).ensemble.members]
        assert all(isinstance(v, StackedPosterior) for v in stacks.values())
        run_single(built, 1)
        assert shared_head_peel(built).restorer._posteriors == posteriors
        assert shared_head_peel(built).restorer._stacks == stacks

    def test_explicit_start_and_divergence_in_original_coordinates(self, tmp_path):
        cfg = small_complex_config(tmp_path, seeds=(1,), iterations=10)
        built = build_experiment(cfg)
        x0 = np.random.default_rng(4).standard_normal(built.prior.dim)
        built_x0 = build_experiment(_with(cfg, solver=dict(cfg.solver, x0=x0.tolist())))
        _, _, x_final, _ = run_single(built_x0, 1)
        x_ref, _ = _unpeeled_run(built, 1, x0=x0)
        assert np.max(np.abs(x_final - x_ref)) <= 1e-12 * np.max(np.abs(x_ref))

        wild = build_experiment(_with(cfg, solver=dict(cfg.solver, gamma=1e150),
                                      metrics={"psnr": False, "ssim": False}))
        with pytest.raises(DivergenceError) as peeled:
            run_single(wild, 1)
        with pytest.raises(DivergenceError) as ref:
            _unpeeled_run(wild, 1)
        assert peeled.value.iteration == ref.value.iteration
        last, want = peeled.value.last_iterate, ref.value.last_iterate
        assert np.max(np.abs(last - want)) <= 1e-12 * np.max(np.abs(want))

    def test_audit_matches_unpeeled_audit(self, tmp_path):
        shape = [4, 4]  # dimension 32, under the solver's automatic-diagnostics cap
        members = [{"kind": "masked-fourier", "shape": shape,
                    "mask": {"type": "uniform-rows", "accel": 2, "offset": o,
                             "acs_lines": 2}} for o in range(2)]
        cfg = ExperimentConfig.from_dict({
            "version": 1, "name": "audit-peel", "seed": 4, "seeds": [1, 2, 3],
            "output_dir": str(tmp_path),
            "problem": {"operator": {"kind": "masked-fourier", "shape": shape,
                                     "mask": {"rows": [0, 1, 3]}},
                        "ground_truth": {"source": "prior"}, "noise_sigma": 0.05},
            "prior": {"type": "gmm-recipe", "shape": shape, "components": 1,
                      "seed": 6, "cov_scale": 0.3},
            "ensemble": {"members": members, "sigma": 0.2},
            "restorer": {"type": "exact-mmse"},
            "solver": {"gamma": 0.3, "tau": 0.05, "iterations": 60},
        })
        probes = AuditProbes(mc_variance=2000, mc_bias=500)
        built = build_experiment(cfg)
        assert shared_head_peel(built) is not None
        report = audit_experiment(built, probes=probes)
        assert report.passed
        assert len(report.members) == len(cfg.ensemble["members"])

        # the same audit on the unpeeled inputs
        sim_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0]))
        _, y = simulate_measurement(built, sim_rng)
        problem = Problem(built.A, y)
        reg = Regularizer(tau=built.tau, prior=built.prior, ens=built.ensemble)
        traces = []
        for seed_value in cfg.seeds:
            scfg = build_solver_config(cfg.solver, _seed_streams(cfg.seed, seed_value)[1])
            scfg.record_iterates = True
            traces.append(run(problem, reg, built.restorer, scfg)[1])
        ref = audit_convergence(problem, reg, built.restorer, scfg, traces, probes=probes)
        assert ref.passed
        for name in ("L_hat", "nu2_hat", "lhs", "rhs", "f_star_hat"):
            got, want = getattr(report, name), getattr(ref, name)
            assert abs(got - want) <= 1e-9 * abs(want), name
        assert report.epsilon_hat == ref.epsilon_hat == 0.0


def _criterion_6_config(tmp_path, members, A):
    return ExperimentConfig.from_dict({
        "version": 1, "name": "reduction", "seed": 2, "seeds": [1],
        "output_dir": str(tmp_path),
        "problem": {"operator": A, "ground_truth": {"source": "prior"},
                    "noise_sigma": 0.1},
        "prior": {"type": "explicit", "weights": [0.4, 0.6],
                  "means": [[0.5, 0.0, -0.2], [-1.0, 0.3, 0.8]],
                  "covariances": [0.7, 1.2]},
        "ensemble": {"members": members, "sigma": 0.8},
        "restorer": {"type": "exact-mmse"},
        "solver": {"gamma": 0.05, "tau": 0.5, "iterations": 30, "x0": "zeros"},
    })


def _refused_configs(tmp_path):
    """Experiments whose operators do not share a unitary head, or whose prior
    or restorer do not commute with one."""
    dense = {"kind": "dense-matrix",
             "matrix": [[1.0, 0.1, 0.0], [0.0, 0.8, 0.2], [0.1, 0.0, 0.9]]}
    bench = load_bench_workloads()
    base = small_complex_config(tmp_path, seeds=(1,), iterations=10)
    members = base.ensemble["members"]
    n = 2 * 8 * 8
    diagonal = {"type": "explicit", "weights": [1.0],
                "means": [np.linspace(-1.0, 1.0, n).tolist()],
                "covariances": [np.linspace(0.01, 0.02, n).tolist()]}
    other_shape = {"kind": "composition", "stages": [
        {"kind": "discrete-fourier", "shape": [64]},
        {"kind": "coordinate-mask", "dim": n, "keep": list(range(0, n, 2))}]}
    smoothing = {"type": "biased", "inner": {"type": "exact-mmse"},
                 "perturbation": {"type": "smoothing", "strength": 3}}
    ens = dict(base.ensemble)
    configs = {
        "criterion-6-identity": _criterion_6_config(
            tmp_path, [{"kind": "identity", "dim": 3}], dense),
        "criterion-6-one-member": _criterion_6_config(
            tmp_path, [{"kind": "coordinate-mask", "dim": 3, "keep": [0, 2]}], dense),
        "superres": ExperimentConfig.from_dict(bench.superres_config(1, smoke=True)),
        "smoothing": _with(base, restorer=smoothing),
        "diagonal-prior": _with(base, prior=diagonal),
        "member-other-shape": _with(base, ensemble=dict(ens, members=members + [other_shape])),
        "member-no-head": _with(base, ensemble=dict(
            ens, members=members + [{"kind": "coordinate-mask", "dim": n, "keep": [0]}])),
    }
    for spec, _, _ in bench.audit_instances(1, smoke=True):
        configs[spec["name"]] = ExperimentConfig.from_dict(spec)
    return configs


REFUSED = ["criterion-6-identity", "criterion-6-one-member", "superres", "audit-4d",
           "audit-1d-biased", "smoothing", "diagonal-prior", "member-other-shape",
           "member-no-head"]


@pytest.mark.parametrize("name", REFUSED)
def test_no_peel_runs_the_unpeeled_solve_bit_for_bit(tmp_path, name):
    built = build_experiment(_refused_configs(tmp_path)[name])
    assert shared_head_peel(built) is None
    seed = built.cfg.seeds[0]
    _, trace, x_final, _ = run_single(built, seed)
    x_ref, ref = _unpeeled_run(built, seed)
    np.testing.assert_array_equal(x_final, x_ref)
    assert trace.csv_text() == ref.csv_text()


@pytest.mark.parametrize("index", [0, 1], ids=["audit-4d", "audit-1d-biased"])
def test_two_seed_audit_restores_once_per_iteration(monkeypatch, index):
    # the bench's audit instances have identity and mask members: the block
    # restores both seeds' draws together in one stacked restore, 500 times
    # in all, and the exact audit terms restore once more per member
    spec, _, _ = load_bench_workloads().audit_instances(1)[index]
    spec["solver"]["gamma"] = 0.3
    rows = []
    mean, restore = LinearGaussianPosterior.posterior_mean, StackedPosterior.restore
    monkeypatch.setattr(LinearGaussianPosterior, "posterior_mean",
                        lambda self, s: rows.append(len(s)) or mean(self, s))
    monkeypatch.setattr(StackedPosterior, "restore",
                        lambda self, s, idx: rows.append(len(s)) or restore(self, s, idx))
    audit_experiment(ExperimentConfig.from_dict(spec))
    assert len(rows) == 500 + len(spec["ensemble"]["members"])
    assert rows[:500] == [2] * 500


@pytest.mark.parametrize("index", [0, 1], ids=["audit-4d", "audit-1d-biased"])
def test_bench_audit_instances_are_exact(index):
    spec, _, eps = load_bench_workloads().audit_instances(1, smoke=True)[index]
    spec["solver"]["gamma"] = 0.3  # the bench sets a fraction of 1/L
    report = audit_experiment(ExperimentConfig.from_dict(spec))
    assert abs(report.epsilon_hat - eps) <= 1e-12
    assert len(report.to_json_dict()["members"]) == len(spec["ensemble"]["members"])


def test_bare_fourier_head_peels_to_identity(tmp_path):
    cfg = small_complex_config(tmp_path, seeds=(1,), iterations=10)
    head = {"kind": "discrete-fourier", "shape": [8, 8]}
    built = build_experiment(_with(cfg, ensemble=dict(
        cfg.ensemble, members=cfg.ensemble["members"] + [head])))
    peel = shared_head_peel(built)
    assert isinstance(peel.ensemble.members[-1], Identity)
    _, _, x_final, _ = run_single(built, 1)
    x_ref, _ = _unpeeled_run(built, 1)
    assert np.max(np.abs(x_final - x_ref)) <= 1e-12 * np.max(np.abs(x_ref))

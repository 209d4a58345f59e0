"""Tests for the benchmark itself: smoke runs, span arithmetic, seeds.

Run from the repository root with ``python3 -m pytest bench/tests``.
"""

import fnmatch
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from reference import Reference  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, make_workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PREDICTIONS = json.loads((BENCH / "predictions.json").read_text())


def smoke(workload, seed, trace, capsys):
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0",
            "--trace", str(trace), "--smoke"]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    record = run.OUT / f"result-{workload}-seed{seed}-trace{trace}.json"
    return result, json.loads(record.read_text())["notes"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace, capsys):
    result, notes = smoke(workload, 1, trace, capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    catalog = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in catalog]
    for m in catalog:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and np.isfinite(got["value"])
    assert notes["error_rate"] == 0.0 and notes["environment"]["nproc"] >= 1
    if not trace:
        # each pass over the mean of the reference rounds just before and after it
        ref = np.array(notes["ref_s"])
        assert len(ref) == len(notes["pass_s"]) + 1
        np.testing.assert_allclose(notes["pass_rel"],
                                   2 * np.array(notes["pass_s"]) / (ref[:-1] + ref[1:]))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_inputs_not_metric_names(workload, capsys, tmp_path):
    a = make_workload(workload, 1, tmp_path, smoke=True)
    b = make_workload(workload, 2, tmp_path, smoke=True)
    configs = lambda w: [c for c, *_ in w.instances] if workload == "audit" else [w.config]
    assert [c["seed"] for c in configs(a)] != [c["seed"] for c in configs(b)]
    for trace in (0, 1):
        first, notes_1 = smoke(workload, 1, trace, capsys)
        second, notes_2 = smoke(workload, 2, trace, capsys)
        assert list(first["metrics"]) == list(second["metrics"])
    quality = a.quality_name
    assert notes_1[quality] != notes_2[quality]


def test_self_time_subtracts_nested_children():
    # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 9]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    np.testing.assert_allclose(self_times(start, end, parent), [3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlap_once_and_clips_to_parent():
    # children [1, 5] and [3, 7] cover 6; [8, 12] only covers [8, 10]
    start = [0.0, 1.0, 3.0, 8.0]
    end = [10.0, 5.0, 7.0, 12.0]
    parent = [-1, 0, 0, 0]
    np.testing.assert_allclose(self_times(start, end, parent)[0], 10.0 - 6.0 - 2.0)


def test_tracer_nests_spans_and_opens_one_trace_per_root():
    tracer = Tracer()
    inner = tracer._wrap(lambda: None, "layer.inner")
    outer = tracer._wrap(lambda: inner(), "layer.outer")
    root = tracer._wrap(lambda: (outer(), outer()), "layer.root", root=True)
    tracer.open_unit(0)
    root()
    root()
    a = tracer.arrays()
    names = [tracer.names[i] for i in a["name"]]
    assert names == ["layer.root", "layer.outer", "layer.inner", "layer.outer",
                     "layer.inner"] * 2
    assert a["parent"].tolist() == [-1, 0, 1, 0, 3, -1, 5, 6, 5, 8]
    assert a["trace"].tolist() == [1] * 5 + [2] * 5
    assert tracer.trace_unit == [0, 0, 0]
    assert np.all(self_times(a["start"], a["end"], a["parent"]) >= 0)


def test_reference_work_is_fixed():
    a, b = Reference(), Reference()
    for part in ("fft", "tiny", "batch", "dense"):
        np.testing.assert_array_equal(getattr(a, part)(), getattr(b, part)())
    parts = a.parts()
    assert list(parts) == ["fft", "tiny", "batch", "dense"]
    assert all(t > 0 for t in parts.values())


def test_tail_keeps_ten_passes_beyond():
    value, pct = run.tail([float(i) for i in range(30)])
    assert value == 19.0 and sum(t > value for t in range(30)) == 10
    assert pct == pytest.approx(100 * 20 / 30)


def test_predictions_cover_every_layer_metric():
    names = [m["name"] for m in SPEC["per_layer"]]
    patterns = [p for row in PREDICTIONS["predictions"] for p in row["layer_metrics"]]
    for pattern in patterns:
        assert fnmatch.filter(names, pattern), pattern
    for name in names:
        assert any(fnmatch.fnmatch(name, p) for p in patterns), name
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    for row in PREDICTIONS["predictions"]:
        assert set(row["moves"]) | set(row["stays"]) <= end_to_end
        assert set(row["on"]).union(*row["stays"].values()) <= set(WORKLOADS)
    assert set(PREDICTIONS["unmeasured"]) == {"oracle", "validation", "cli", "--threads"}


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "demo", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""

"""srp benchmark: one workload per process, end to end or traced.

Run from the repository root:

    python3 bench/run.py --workload demo --seed 1 --seconds 40 --trace 0

--trace 0 measures the end-to-end metrics on the unmodified program.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics from the spans, plus the tracing overhead. Lines starting with "#"
are notes for people; the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. Spans and a full
result record are written under .bench_out/ in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TAIL_BEYOND = 10  # the tail is the highest percentile with this many passes beyond it


def pin_blas_threads():
    """One BLAS thread: passes then need one free core, not every core.

    Runs before numpy loads. Multi-threaded BLAS made pass times depend on
    what else ran on the machine's other core.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"


def tail(times):
    """(value, percentile) of the highest percentile with 10 passes beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def environment():
    import numpy as np
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": git_commit(),
    }


class Harness:
    """Set-up repetitions, passes and reference rounds interleaved, for a fixed time."""

    def __init__(self, workload, reference, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.reference = reference
        self.units = 0
        self.setup_units, self.pass_units = [], []
        self.setup_s, self.untraced_s, self.traced_s, self.ref_s = [], [], [], []
        self.untraced_rel, self.traced_rel = [], []  # pass time / reference time
        self.attempted = self.failed = 0
        self.problems = {}  # message -> passes it occurred in
        self.quality = None

    def _open_unit(self, kind):
        unit, self.units = self.units, self.units + 1
        kind.append(unit)
        if self.tracer is not None:
            self.tracer.open_unit(unit)

    def setup(self):
        """One set-up repetition, traced whenever a tracer is present."""
        tracer = self.tracer
        self._open_unit(self.setup_units)
        if tracer is not None:
            tracer.install()
        t = time.perf_counter()
        try:
            built = self.workload.setup(tracer.label if tracer else lambda b: None)
        finally:
            elapsed = time.perf_counter() - t
            if tracer is not None:
                tracer.uninstall()
        self.setup_s.append(elapsed)
        return built

    def run_pass(self, built, traced=False):
        self.workload.prepare()
        if traced:
            self._open_unit(self.pass_units)
            self.tracer.install()
        t = time.perf_counter()
        try:
            result = self.workload.run_pass(built)
        except Exception as exc:  # a failed pass is counted, never hidden
            traceback.print_exc(file=sys.stderr)
            result = exc
        elapsed = time.perf_counter() - t
        if traced:
            self.tracer.uninstall()
        outcome = self.workload.check(result)
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        for problem in outcome.problems:
            self.problems[problem] = self.problems.get(problem, 0) + 1
        if self.quality is None:
            self.quality = outcome.quality
        return elapsed

    def measure(self, seconds, min_passes):
        """Set-up, pass, reference round; repeated until ``seconds`` are used.

        Each recorded pass sits between two rounds of the reference, and its
        relative time is the pass time over the mean of those two rounds.
        """
        start = time.perf_counter()
        built = self.setup()
        self.run_pass(built)
        before = self.reference.time()
        self.ref_s.append(before)
        last = time.perf_counter() - start
        n = 0
        while n < min_passes or time.perf_counter() - start + last <= seconds:
            t = time.perf_counter()
            self.setup()
            traced = self.tracer is not None and n % 2 == 1
            elapsed = self.run_pass(built, traced=traced)
            after = self.reference.time()
            self.ref_s.append(after)
            (self.traced_s if traced else self.untraced_s).append(elapsed)
            (self.traced_rel if traced else self.untraced_rel).append(
                2.0 * elapsed / (before + after))
            before = after
            last = time.perf_counter() - t
            n += 1


def end_to_end(h):
    rel_tail, pct = tail(h.untraced_rel)
    metrics = {
        "setup_s": statistics.median(h.setup_s),
        "run_rel.p50": statistics.median(h.untraced_rel),
        "run_rel.tail": rel_tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {"run_s.p50": statistics.median(h.untraced_s), "run_s.tail": tail(h.untraced_s)[0],
             "ref_s.p50": statistics.median(h.ref_s), "tail_percentile": pct,
             "passes": len(h.untraced_s), "setup_reps": len(h.setup_s),
             "pass_s": h.untraced_s, "pass_rel": h.untraced_rel, "ref_s": h.ref_s,
             "setup_rep_s": h.setup_s}
    return metrics, notes


def per_layer(h):
    from tracing import layer_metrics

    metrics = layer_metrics(h.tracer, h.setup_units, h.pass_units)
    metrics["trace.overhead_s"] = statistics.median(h.traced_s) - statistics.median(h.untraced_s)
    metrics["trace.overhead_pct"] = 100.0 * (
        statistics.median(h.traced_rel) / statistics.median(h.untraced_rel) - 1.0)
    notes = {"passes_untraced": len(h.untraced_s), "passes_traced": len(h.traced_s),
             "setup_reps": len(h.setup_s), "spans": len(h.tracer.start)}
    return metrics, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink every workload to a few iterations (for tests)")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "srp").is_dir() or not spec_path.is_file():
        print(f"srp sources or BENCHMARK.json not found under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from reference import Reference
    from tracing import Tracer
    from workloads import make_workload

    work = OUT / f"work-{os.getpid()}"
    try:
        workload = make_workload(args.workload, args.seed, work, smoke=args.smoke)
        harness = Harness(workload, Reference(), Tracer() if args.trace else None)
        min_passes = 2 if args.smoke else (6 if args.trace else TAIL_BEYOND + 1)
        harness.measure(args.seconds, min_passes)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    OUT.mkdir(exist_ok=True)
    if args.trace:
        values, notes = per_layer(harness)
        catalog = spec["per_layer"]
        tag = f"{args.workload}-seed{args.seed}"
        harness.tracer.save(OUT / f"spans-{tag}.npz")
    else:
        values, notes = end_to_end(harness)
        catalog = spec["end_to_end"]
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in catalog}
    notes.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        workload.quality_name: harness.quality,
        "error_rate": harness.failed / max(harness.attempted, 1),
        "problems": harness.problems,
        "environment": environment(),
    })
    result = {"correct": harness.failed == 0, "attempted": harness.attempted,
              "failed": harness.failed, "metrics": metrics}
    record = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"result": result, "notes": notes}, indent=2) + "\n")
    for problem, count in harness.problems.items():
        print(f"# FAILED ({count}x) {problem}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"# wall time per pass: p50 {notes['run_s.p50']:.6g} s, tail {notes['run_s.tail']:.6g} s;"
              f" reference round p50 {notes['ref_s.p50']:.6g} s")
    print("# notes " + json.dumps(notes))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

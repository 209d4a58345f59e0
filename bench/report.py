"""Run every workload, one process each, and print every metric by name.

    python3 bench/report.py [--seed 1] [--seconds 40] [--trace 0|1]

With --trace 0 the table holds the end-to-end metrics (plus psnr_db or
audit_ratio, error_rate, the wall-time and reference medians behind the
relative times, and the tail's percentile and pass count); with --trace 1
it holds the per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("demo", "audit", "superres")
EXTRA = (("psnr_db", "dB"), ("audit_ratio", "lhs/rhs"), ("error_rate", "failed/attempted"),
         ("run_s.p50", "s"), ("run_s.tail", "s"), ("ref_s.p50", "s"),
         ("tail_percentile", "%"), ("passes", "count"))


def run_workload(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload}: run.py exited with {proc.returncode}")
    record = ROOT / ".bench_out" / f"result-{workload}-seed{seed}-trace{trace}.json"
    return json.loads(record.read_text())


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    records = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in WORKLOADS}
    rows = {}
    for w, rec in records.items():
        for name, m in rec["result"]["metrics"].items():
            rows.setdefault((name, m["unit"]), {})[w] = m["value"]
        if not args.trace:
            for name, unit in EXTRA:
                if rec["notes"].get(name) is not None:
                    rows.setdefault((name, unit), {})[w] = rec["notes"][name]
    width = max(len(name) for name, _ in rows) + 2
    print(f"{'metric':<{width}}{'unit':<18}" + "".join(f"{w:>14}" for w in WORKLOADS))
    for (name, unit), values in rows.items():
        cells = "".join(f"{values[w]:>14.6g}" if w in values else f"{'-':>14}"
                        for w in WORKLOADS)
        print(f"{name:<{width}}{unit:<18}{cells}")
    for w, rec in records.items():
        result = rec["result"]
        status = "correct" if result["correct"] else "OUTPUT CHECKS FAILED"
        print(f"{w}: {status}, {result['failed']} of {result['attempted']} operations failed")
        for problem, count in rec["notes"]["problems"].items():
            print(f"  {count}x {problem}")
    print("environment: " + json.dumps(records[WORKLOADS[0]]["notes"]["environment"]))


if __name__ == "__main__":
    main()

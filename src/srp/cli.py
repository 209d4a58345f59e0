"""Command-line entry point.

Subcommands:
  run <config>                 execute the configured experiment
  validate                     run the oracle self-check battery
  audit <config>               run all seeds and check the convergence bound
  sweep <config> --grid <file> cartesian parameter sweep over config overrides

Exit codes: 0 success, 2 config or input error, 3 validation/audit failure,
4 divergence. Config errors include a ground-truth file with non-finite
entries, a 2-D image smaller than the SSIM window with SSIM on, and an output
path that is, or lies under, an existing file, that a directory holds or that
may not be written. Input errors are unreadable array files, mismatched
dimensions, refused dense materializations and covariances that do not
factor; an audit at gamma 0 is an audit error. Each is reported on one stderr
line, without a traceback.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from dataclasses import replace
from pathlib import Path

from .arrayio import ArrayFileError
from .config import ConfigError, ExperimentConfig, Int, build_experiment
from .experiment import audit_experiment, run_experiment
from .operators import DenseCapExceeded, DimensionMismatch, FactorizationError
from .solver import AuditError, DivergenceError
from .validation import format_table, validation_suite

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VALIDATION = 3
EXIT_DIVERGENCE = 4


def _load_config(path, args):
    cfg = ExperimentConfig.load(path)
    if args.seed is not None:
        cfg = replace(cfg, seed=Int()(args.seed, "--seed"))
    if args.out is not None:
        cfg = replace(cfg, output_dir=str(args.out))
    return cfg


def _cmd_run(args):
    cfg = _load_config(args.config, args)
    result = run_experiment(cfg, curves=args.curves, quiet=args.quiet)
    if not args.quiet:
        for row in result.rows:
            p = "" if row.psnr_db is None else f"{row.psnr_db:.3f}"
            s = "" if row.ssim is None else f"{row.ssim:.4f}"
            print(f"{row.run_id} seed={row.seed} psnr={p} ssim={s}")
        print(f"artifacts in {result.out_dir}")
    return EXIT_OK


def _cmd_validate(args):
    seed = 0 if args.seed is None else Int()(args.seed, "--seed")
    rows = validation_suite(seed=seed)
    if not args.quiet:
        print(format_table(rows))
    return EXIT_OK if all(r["passed"] for r in rows) else EXIT_VALIDATION


def _cmd_audit(args):
    built = build_experiment(_load_config(args.config, args))
    out = Path(built.cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    report = audit_experiment(built)
    (out / "audit.txt").write_text(report.to_text())
    with open(out / "audit.json", "w") as fh:
        json.dump(report.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    if not args.quiet:
        print(report.to_text(), end="")
    return EXIT_OK if report.passed else EXIT_VALIDATION


def _set_path(d, dotted, value):
    keys = dotted.split(".")
    for key in keys[:-1]:
        d = d.setdefault(key, {})
        if not isinstance(d, dict):
            raise ConfigError(
                f"sweep grid key {dotted!r}: {key!r} is not an object")
    d[keys[-1]] = value


def _cmd_sweep(args):
    cfg = _load_config(args.config, args)
    try:
        with open(args.grid) as fh:
            grid = json.load(fh)
    except (IsADirectoryError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"sweep grid {args.grid}: {exc}") from exc
    if not isinstance(grid, dict) or not grid:
        raise ConfigError("sweep grid must be a non-empty JSON object")
    keys = sorted(grid)
    bad = [k for k in keys if not isinstance(grid[k], list) or not grid[k]]
    if bad:
        raise ConfigError(f"sweep grid values must be non-empty lists: {bad}")
    combos = list(itertools.product(*(grid[k] for k in keys)))
    base = Path(cfg.output_dir)
    # every combination is built, and so checked, before the first one runs
    builds = []
    for i, combo in enumerate(combos):
        d = cfg.to_dict()
        for key, value in zip(keys, combo):
            _set_path(d, key, value)
        d["output_dir"] = str(base / f"sweep_{i:03d}")
        d["name"] = f"{cfg.name}_sweep_{i:03d}"
        try:
            builds.append(build_experiment(ExperimentConfig.from_dict(d)))
        except ConfigError as exc:
            raise ConfigError(f"sweep grid combination sweep_{i:03d}: {exc}") from exc
    base.mkdir(parents=True, exist_ok=True)
    index_lines = ["sweep_id," + ",".join(keys)]
    for i, combo in enumerate(combos):
        # drop each build once it has run, with the caches it filled
        built, builds[i] = builds[i], None
        run_experiment(built, curves=args.curves, quiet=True)
        index_lines.append(",".join([f"sweep_{i:03d}"] + [repr(v) for v in combo]))
        if not args.quiet:
            print(f"sweep_{i:03d}: " + ", ".join(
                f"{k}={v}" for k, v in zip(keys, combo)))
    (base / "sweep_index.csv").write_text("\n".join(index_lines) + "\n")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="srp",
        description="Stochastic restoration-prior solver for linear inverse problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    flags = {
        "--seed": dict(type=int, default=None, help="override config seed"),
        "--out": dict(default=None, help="override output directory"),
        "--quiet": dict(action="store_true"),
        "--curves": dict(action="store_true",
                         help="also write per-iteration mean/std curves"),
    }

    def add_flags(p, *names):
        """Register the named flags, each on the subcommands that read it."""
        for name in names:
            p.add_argument(name, **flags[name])

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    add_flags(p_run, *flags)
    p_run.set_defaults(fn=_cmd_run)

    p_val = sub.add_parser("validate", help="run the oracle self-checks")
    add_flags(p_val, "--seed", "--quiet")
    p_val.set_defaults(fn=_cmd_validate)

    p_audit = sub.add_parser("audit", help="audit the convergence bound")
    p_audit.add_argument("config")
    add_flags(p_audit, "--seed", "--out", "--quiet")
    p_audit.set_defaults(fn=_cmd_audit)

    p_sweep = sub.add_parser("sweep", help="cartesian config sweep")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--grid", required=True,
                         help="JSON file of dotted-key -> value list")
    add_flags(p_sweep, *flags)
    p_sweep.set_defaults(fn=_cmd_sweep)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FileNotFoundError, FileExistsError, NotADirectoryError, IsADirectoryError,
            PermissionError) as exc:
        # a missing input, or an output path a file, a directory or permissions block
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ArrayFileError, DimensionMismatch, DenseCapExceeded,
            FactorizationError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AuditError as exc:
        print(f"audit error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()

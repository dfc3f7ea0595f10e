"""Command-line experiment runner."""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

# The engine's only BLAS calls are tiny stacked matmuls, yet OpenBLAS starts
# a worker thread that spins after numpy loads and costs each process about
# 0.13 s of CPU (2-vCPU VM).  OpenBLAS reads this once, when numpy loads,
# which is below: the package imports its submodules on first use.  A value
# set by the user wins, and library code that does not import the CLI is
# left alone.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# C extensions that a run loads but never calls, each marked absent so that
# its importer takes its pure-Python fallback (saving, in peak resident
# memory of a run or compare, 2-vCPU VM).  This holds for the whole process
# that imports this module, not only while a command runs: hashlib.scrypt
# is gone, hashlib.new drops OpenSSL-only names such as sha512_256 and
# ripemd160, and hashlib.pbkdf2_hmac becomes CPython's deprecated
# pure-Python version, which warns.  A module loaded before this import
# stays as it is.
# _hashlib, OpenSSL's libcrypto (3.3-3.5 MiB), is loaded by numpy.random ->
# secrets -> hmac -> hashlib; hashlib falls back to its builtin digests and
# hmac to _operator._compare_digest, and seeded streams draw no hash.
sys.modules.setdefault("_hashlib", None)
# yaml._yaml, libyaml (up to 0.3 MiB): harness's loader subclasses the
# pure-Python yaml.SafeLoader.
sys.modules.setdefault("yaml._yaml", None)

from .harness import BENCHMARKS, compare_variants, emit_results, parse_config, run_experiment


def _load_config(path: str, seed_override=None):
    config = parse_config(Path(path).read_text())
    if seed_override is not None:
        config = replace(config, base_seed=seed_override)
    return config


def _cmd_run(args) -> int:
    config = _load_config(args.config, args.seed)
    stats, reports = run_experiment(config, workers=args.workers)
    written = emit_results(stats, reports, config, out_dir=args.out)
    print(f"{config.variant} on {config.benchmark} (dim={config.dim}), "
          f"{config.repetitions} repetitions, base seed {config.base_seed}")
    print(f"  mean best  {stats.mean_best:.6g}   (min {stats.min_best:.6g}, max {stats.max_best:.6g})")
    if stats.success_rate is not None:
        print(f"  success    {stats.success_rate:.0%} at threshold {config.success_threshold:g}")
    if stats.mean_fes_to_success is not None:
        print(f"  mean evaluations to success  {stats.mean_fes_to_success:.6g}")
    for path in written:
        print(f"  wrote {path}")
    return 0


def _cmd_compare(args) -> int:
    configs = [_load_config(p, args.seed) for p in args.configs]
    table = compare_variants(configs, workers=args.workers)
    sys.stdout.write(table)
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        path = out / "compare.csv"
        path.write_text(table)
        print(f"wrote {path}", file=sys.stderr)
    return 0


def _cmd_list_benchmarks(_args) -> int:
    for name in BENCHMARKS:
        print(name)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fireflyopt",
        description="Run seeded firefly-algorithm experiments and emit convergence data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one experiment described by a config file")
    p_run.add_argument("--config", required=True, help="path to a flat key/value config")
    p_run.add_argument("--out", default=None, help="output directory (overrides output_dir)")
    p_run.add_argument("--seed", type=int, default=None, help="override base_seed")
    p_run.add_argument("--workers", type=int, default=1, help="cap on parallel repetitions (>= 1); in order today")
    p_run.set_defaults(fn=_cmd_run)

    p_cmp = sub.add_parser("compare", help="tabulate several configs on one benchmark")
    p_cmp.add_argument("--configs", nargs="+", required=True, help="config file paths")
    p_cmp.add_argument("--out", default=None, help="also write compare.csv here")
    p_cmp.add_argument("--seed", type=int, default=None, help="override base_seed for all configs")
    p_cmp.add_argument("--workers", type=int, default=1, help="cap on parallel repetitions (>= 1); in order today")
    p_cmp.set_defaults(fn=_cmd_compare)

    p_ls = sub.add_parser("list-benchmarks", help="print the benchmark identifiers")
    p_ls.set_defaults(fn=_cmd_list_benchmarks)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""safnet benchmark: one command for the loso, grid and signal workloads.

    python3 bench/run.py --workload loso --seed 0 --seconds 20 --trace 0

Run from the repository root. The library is imported from ``src/`` of the
same checkout and nowhere else. ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run (see bench/README.md).
The last line of standard output is the JSON result; the lines before it
give the provenance and the workload's metrics under their own names.
Result and span files go to bench/out/.
"""

import argparse
import json
import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("loso", "grid", "signal"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_safnet():
    """Import safnet from this checkout's src/, refusing any other copy."""
    sys.path.insert(0, SRC)
    import safnet

    where = os.path.realpath(os.path.dirname(safnet.__file__))
    if where != os.path.realpath(os.path.join(SRC, "safnet")):
        raise ImportError(f"safnet imported from {where}, not from {SRC}")


def main(argv=None) -> int:
    args = parse_args(argv)
    # BLAS reads its thread count once, when numpy loads, so pin it first.
    # One thread per process keeps jobs x threads <= nproc for the grid, and
    # keeps every workload steady: on a shared 2-CPU machine a 512x512
    # float32 GEMM ranged 2-258 GFLOP/s with two threads, 130 +- 3 with one.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    try:
        import_safnet()
    except ImportError as exc:
        print(f"error: cannot import safnet from {SRC}: {exc}", file=sys.stderr)
        return 2

    from safbench.harness import YARDSTICK_REF_S, run

    record = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 os.path.join(BENCH, "out"), ROOT)
    result = record["result"]
    print("provenance " + json.dumps(record["provenance"]))
    raw = record["raw"]
    print(f"as measured: yardstick {1e3 * raw['yardstick_s']:.4g} ms "
          f"(reference {1e3 * YARDSTICK_REF_S:.4g} ms), median set-up "
          f"{raw['setup_s']:.4g} s, median untraced round {raw['wall_s']:.4g} s")
    # untraced runs also print the workload's headline metrics by name
    shown = result["metrics"] if args.trace else record["named"]
    for name, m in shown.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    if record.get("op_shares"):
        print("forward+backward share per step: " + ", ".join(
            f"{op} {100 * v:.1f}%" for op, v in record["op_shares"].items()))
    for err in record["errors"]:
        print(f"check failed: {err}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""wcontrast benchmark: one workload per invocation, one closed-loop client.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload infer-structured --seed 1 --seconds 24 --trace 0

Workloads: infer-structured, infer-copula, mc-replicate (see BENCHMARK.json
and perfbench/bench.py). The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. Earlier lines give per-call-kind medians, the failure
fraction and the machine fingerprint. Exits 2 without a result when the
checkout holds no ``src/wcontrast``.

``--set-up-only DIR`` (used by the benchmark itself to time set-up in a
fresh process) imports ``wcontrast``, sets the workload up in DIR and
prints the seconds that took; ``--tiny`` shrinks the workload's sizes.
"""

import argparse
import os
import sys
import time
from pathlib import Path

# one BLAS thread: with two, each call waits on the second core, which the
# host shares, and latencies drift twice as much
BLAS_THREADS = 1
ROOT = Path(__file__).resolve().parent.parent


def pin_blas_threads(limit: int) -> None:
    """At most ``limit`` BLAS threads; must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        cur = os.environ.get(var, "")
        n = min(int(cur), limit) if cur.isdigit() and int(cur) > 0 else limit
        os.environ[var] = str(n)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="wcontrast benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--set-up-only", metavar="DIR", default=None)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "wcontrast" / "__init__.py").is_file():
        print(f"no wcontrast sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    pin_blas_threads(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))

    t0 = time.perf_counter()
    import json
    import bench

    if args.workload not in bench.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {bench.WORKLOADS}",
              file=sys.stderr)
        return 2
    if args.set_up_only:
        bench.set_up(args.workload, Path(args.set_up_only), bench.SeedSource(args.seed),
                     args.tiny)
        print(f"{time.perf_counter() - t0:.6f}")
        return 0
    result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace),
                       args.tiny)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

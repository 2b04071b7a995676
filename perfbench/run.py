"""Benchmark of qstokes: one command, every metric, checked outputs.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload reflect --seed 1 --seconds 10 --trace 0

Workloads are reflect, integrate and verify (see BENCHMARK.json).  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; --trace 0 reports the end-to-end metrics
and --trace 1 the per-layer ones, from a traced pass.  Scratch files
(JSON models, the domain sweep cache, span dumps) go to .bench_build/.
"""

import argparse
import json
import os
import sys

# One BLAS/OpenMP thread, set before numpy loads: matrices of size
# n + 1 <= 9 gain nothing from threads, which only add run-to-run spread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _import_package():
    """Import qstokes from this checkout's src/, and nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path[:0] = [ROOT, src]
    try:
        import qstokes
    except ImportError as exc:
        sys.exit("perfbench: cannot import qstokes from {}: {}".format(src, exc))
    where = os.path.dirname(os.path.abspath(qstokes.__file__))
    if os.path.commonpath([where, src]) != src:
        sys.exit("perfbench: qstokes was imported from {}, not {}".format(where, src))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("reflect", "integrate", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_package()
    from perfbench import workloads

    workdir = os.path.join(ROOT, ".bench_build", "perfbench")
    os.makedirs(workdir, exist_ok=True)
    if args.trace:
        record, checks, metrics = workloads.per_layer(args.workload, args.seed, workdir)
    else:
        record, checks, metrics = workloads.end_to_end(
            args.workload, args.seed, args.seconds, ROOT, workdir)
    for problem in checks.wrong:
        print("wrong output: " + problem, file=sys.stderr)
    print(json.dumps({
        "correct": not checks.wrong,
        "attempted": record.attempted,
        "failed": record.failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()

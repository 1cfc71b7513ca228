"""bayesglasso benchmark: sweeps/s and ESS/s of both samplers, end to end.

Run from the repository root:

    python3 benchmarks/run.py --workload circle30-campaign --seed 1 --seconds 40 --trace 0

It drives the package from the checkout's ``src`` through the CLI entry
point in this one process, with BLAS pinned to one thread.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with --trace 0, per-layer
metrics with --trace 1).  Timings in it are in reference seconds; the
lines before it record the machine and, with --trace 0, the same metrics
in plain wall-clock seconds.  See README.md beside this file for every
metric's definition.
"""

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("circle30-campaign", "ar2-p100-fit")


def _non_negative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be a non-negative integer")
    return value


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=_non_negative_int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "bayesglasso" / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    # One BLAS thread, set before numpy is first imported.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]
    import harness

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        result, wall, spans = harness.measure(harness.WORKLOADS[args.workload], args.seed,
                                              args.seconds, bool(args.trace), ROOT, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if spans is not None:
        harness.write_spans(spans, ROOT / ".bench_work" / f"trace-{args.workload}-{args.seed}.npz")
    print(json.dumps({"machine": harness.machine_info(ROOT)}))
    if wall:
        print(json.dumps({"wall_clock_metrics": wall}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

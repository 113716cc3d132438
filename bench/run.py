"""Benchmark entry point: one seeded workload, one result line.

Run from the root of a checkout:

    python3 bench/run.py --workload verdict-mix --seed 1 --seconds 10 --trace 0

Workloads: assembly-large, verdict-mix, oracle (see bench/README.md).
With --trace 0 the library runs untouched and the end-to-end metrics are
reported; with --trace 1 the per-layer metrics are reported from wrappers
installed around the library's modules.  The full record (metrics with
units, certificate digest, exact-check problems, provenance, per-function
table) is written to bench/out/, and the last line of standard output is
the JSON summary {"correct", "attempted", "failed", "metrics"}.

The library is imported from src/ of the same checkout; without it the
run stops with exit code 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# Single-threaded numerics: pinned before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("assembly-large", "verdict-mix", "oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--setup-only", action="store_true", help="import and build the inputs, then exit")
    args = parser.parse_args(argv)

    if not (SRC / "semicert" / "__init__.py").is_file():
        print(f"error: no semicert package under {SRC}", file=sys.stderr)
        return 2
    # One core for the run and every process it starts, so that the speed
    # reference is taken on the core that runs the timed work.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path[:0] = [str(SRC), str(ROOT / "bench")]
    import workloads

    if args.setup_only:
        workloads.make_inputs(args.workload, args.seed, args.scale)
        return 0
    record = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    path = workloads.OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for problem in record["problems"][:20]:
        print(f"problem: {problem}", file=sys.stderr)
    summary = {
        "correct": record["failed"] == 0 and not record["problems"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }
    print(f"digest {record['digest']}  record {path.relative_to(ROOT)}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""chrono-rdf benchmark: one seeded run of one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload point-lookups --seed 42 --seconds 20 --trace 0

Workloads: point-lookups, whole-history, cli-oneshot (see perfbench/README.md).
The run generates the corpus and the request stream from the seed, runs
the program in child processes, gates every answer against the
generator's ledger, prints a human-readable report and, as the last
line, one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones.  Exits 2 without a result when the program's sources
(src/chrono_rdf) are not next to the benchmark.
"""

from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("point-lookups", "whole-history", "cli-oneshot")


def _terminate(signum, frame) -> None:
    # unwinds through the run's cleanup, which kills and reaps its child
    sys.exit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "chrono_rdf" / "__init__.py").is_file():
        print(f"error: no chrono_rdf sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    signal.signal(signal.SIGTERM, _terminate)
    from perfbench import harness

    return harness.run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

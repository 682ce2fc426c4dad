"""Serving benchmark of the Graphiti reproduction.

Drives Cypher text in and ``Table`` out through the public serving API
(``GraphitiService.run``, ``AsyncGraphitiService.run``) over the seeded
``social`` universe on the default ``sqlite-memory`` backend, with default
service settings and closed-loop clients in this one process.  The
workloads and why each exists are in ``workloads.py``; the ladder of
per-layer spans is in ``ladder.py``.

Run from the repository root::

    python3 servebench/run.py --workload point-hot --seed 1 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics (tracing off); ``--trace 1``
runs the separate traced ladder and reports the per-layer metrics, writing
its spans under ``.servebench-out/``.  Earlier lines of standard output
describe the host and print every metric by name with its unit; the last
line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

Exit codes: 0 on a finished run, 2 when the ``repro`` package cannot be
imported from ``src/``, 3 when a workload no longer does what it claims.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACE_DIR = ROOT / ".servebench-out"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def result_document(tally, metrics: dict[str, tuple[float, str]]) -> dict:
    """The final JSON line."""
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"servebench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from harness import Placement, WorkloadDrift, end_to_end_run, host_info
    from ladder import traced_run
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    host = host_info()  # before pinning, which narrows the CPUs it counts
    placement = None
    if Placement.supported():
        placement = Placement()
        placement.repin(0.005)  # before any thread starts, so all inherit it
    try:
        if args.trace:
            tally, metrics = traced_run(
                workload, args.seed, args.seconds, TRACE_DIR, placement
            )
            details = {}
        else:
            tally, metrics, details = end_to_end_run(
                workload, args.seed, args.seconds, placement=placement
            )
    except WorkloadDrift as drift:
        print(f"servebench: {drift}", file=sys.stderr)
        return 3
    if tally.first_failure is not None:
        print(f"servebench: first failure: {tally.first_failure}", file=sys.stderr)
    meta = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **host,
        **details,
    }
    print(json.dumps({"meta": meta}))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps(result_document(tally, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

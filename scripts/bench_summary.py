#!/usr/bin/env python3
"""Aggregate every tracked ``BENCH_*.json`` into one trajectory table.

Each tracked benchmark baseline at the repo root (optimizer latency,
traversal plans, serving throughput, adaptive re-planning,
partition-parallel scans, ...) carries a ``meta`` block and
a scalar-friendly ``summary``.  This script prints them side by side so
one CI log line answers "what did every perf lane look like on this
run" without opening five JSON files.

Usage::

    python scripts/bench_summary.py [--dir REPO_ROOT] [ files... ]

Exits non-zero only when a named file is unreadable — a missing optional
baseline is skipped, because not every CI job regenerates every lane.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Meta keys worth one line of context per report, in display order.
META_KEYS = ("generated_at", "rows_per_table", "cpu_count", "elapsed_seconds")


def _scalar(value: object) -> str | None:
    """Render a summary value when it is table-friendly, else ``None``."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, (int, float)):
        return f"{value:g}"
    if isinstance(value, str):
        return value
    if isinstance(value, dict) and value and all(
        isinstance(v, (int, float)) and not isinstance(v, bool)
        for v in value.values()
    ):
        return ", ".join(f"{k}:{v:g}" for k, v in value.items())
    return None


def summarize_file(path: Path) -> list[str]:
    report = json.loads(path.read_text())
    meta = report.get("meta", {})
    context = "  ".join(
        f"{key}={meta[key]}" for key in META_KEYS if key in meta
    )
    lines = [f"== {path.name} ==", f"   {context}" if context else "   (no meta)"]
    summary = report.get("summary")
    if not isinstance(summary, dict):
        lines.append("   (no summary block)")
        return lines
    width = max((len(key) for key in summary), default=0)
    for key, value in summary.items():
        rendered = _scalar(value)
        if rendered is not None:
            lines.append(f"   {key:<{width}}  {rendered}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "files",
        nargs="*",
        type=Path,
        help="explicit report paths (default: every BENCH_*.json in --dir)",
    )
    parser.add_argument(
        "--dir",
        type=Path,
        default=REPO_ROOT,
        help="directory to glob BENCH_*.json from (default: repo root)",
    )
    arguments = parser.parse_args(argv)
    paths = arguments.files or sorted(arguments.dir.glob("BENCH_*.json"))
    if not paths:
        print(f"no BENCH_*.json found under {arguments.dir}", file=sys.stderr)
        return 1
    status = 0
    blocks: list[str] = []
    for path in paths:
        try:
            blocks.append("\n".join(summarize_file(path)))
        except FileNotFoundError:
            if arguments.files:
                print(f"missing report: {path}", file=sys.stderr)
                status = 1
        except (OSError, json.JSONDecodeError) as error:
            print(f"unreadable report {path}: {error}", file=sys.stderr)
            status = 1
    print(f"=== benchmark trajectory ({len(blocks)} tracked lane(s)) ===")
    print("\n\n".join(blocks))
    return status


if __name__ == "__main__":
    sys.exit(main())

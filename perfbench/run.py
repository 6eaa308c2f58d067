"""Run one workload of the repository benchmark and print its result.

    python3 perfbench/run.py --workload mutate-rescore --seed 1 \
        --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones; ``--workload all`` runs every workload in turn.  The
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give the run's stamp
(host cores, fsync policy, shards, cohort, seed, loop shape) and the
workload's own named figures with their sample counts.  The exit code
is 1 when any served digest differs from the in-process oracle.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import sys

from common import fresh_run_dir, require_source
from workloads import WORKLOADS


def run_one(name: str, seed: int, seconds: int, traced: bool) -> bool:
    run_dir = fresh_run_dir(name)
    try:
        out = WORKLOADS[name](run_dir, seed, seconds, traced)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(f"workload {out.name}: " + json.dumps(out.stamp, sort_keys=True))
    for key, value in out.info.items():
        print(f"  {key}: {json.dumps(value)}")
    print(
        f"  error_share: {out.failed / out.attempted:.4f} ratio "
        f"({out.failed} of {out.attempted}: {json.dumps(out.failures)})"
    )
    if out.unverified:
        print(f"  unverified: {len(out.unverified)} (owner, measure) pairs "
              "left unchecked by failed requests")
    for line in out.mismatches:
        print(f"  MISMATCH {line}")
    metrics = out.layers if traced else out.metrics
    broken = [key for key, (value, _) in metrics.items()
              if not math.isfinite(value)]
    if broken:
        raise SystemExit(f"no finite value for {broken}: too many failures")
    print(
        json.dumps(
            {
                "correct": not out.mismatches,
                "attempted": out.attempted,
                "failed": out.failed,
                "metrics": {
                    key: {"value": value, "unit": unit}
                    for key, (value, unit) in sorted(metrics.items())
                },
            }
        ),
        flush=True,
    )
    return not out.mismatches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        ok = run_one(name, args.seed, args.seconds, bool(args.trace)) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    require_source()
    sys.exit(main())

"""Run one benchmark workload and print its result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload datalog-closure --seed 0 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
workload untraced and traced, and prints the per-layer metrics plus the
trace overhead.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record,
with provenance, sizes and exact counts, goes to
``.perfbench-out/results/``; traces go to ``.perfbench-out/traces/``.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Any, Dict, List

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import HERE, HarnessError, out_dir, provenance, use_source  # noqa: E402

WORKLOADS = ("datalog-closure", "eqsat-extract", "serve-sessions")
CHILD_TIMEOUT_S = 170.0


def _load_spec() -> Dict[str, Any]:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _in_process(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """Run an in-process workload in a fresh child; return its summary."""
    command = [
        sys.executable,
        os.path.join(HERE, "inproc.py"),
        workload,
        str(seed),
        str(seconds),
        "1" if trace else "0",
    ]
    try:
        done = subprocess.run(command, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as error:
        raise HarnessError(f"{workload} child did not finish in {CHILD_TIMEOUT_S} s") from error
    if done.returncode != 0 or not done.stdout.strip():
        raise HarnessError(
            f"{workload} child exited {done.returncode}: {done.stderr.strip()[-2000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def _print_summary(workload: str, summary: Dict[str, Any], metrics: Dict[str, Any]) -> None:
    print(f"# {workload}: sizes {json.dumps(summary['sizes'])}")
    for name, metric in metrics.items():
        print(f"{name:34s} {metric['value']:.6g} {metric['unit']}")
    share = summary["failed"] / summary["attempted"]
    print(f"{'failed_share':34s} {share:.6g} ratio ({summary['failed']} of {summary['attempted']})")
    if "batch_p50_ms" in summary:
        samples = summary["samples"]
        print(f"{'batch_p50_ms':34s} {summary['batch_p50_ms']:.6g} ms "
              f"(n={samples['batches']}, {samples['beyond_batch_p99']} beyond p99: "
              f"{summary['batch_p99_ms']:.6g} ms)")
        print(f"{'checkpoint_p50_ms':34s} {summary['checkpoint_p50_ms']:.6g} ms "
              f"(n={samples['checkpoints']}, {samples['beyond_checkpoint_p90']} beyond p90: "
              f"{summary['checkpoint_p90_ms']:.6g} ms)")
    for error in summary.get("errors", []):
        print(f"! {error}")
    if summary.get("unsteady_counts"):
        print(f"! exact counts differ between repetitions: {summary['unsteady_counts']}")


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = args.trace == 1
    spec = _load_spec()
    use_source()
    if args.workload == "serve-sessions":
        import serve

        summary = serve.run(args.seed, args.seconds, trace)
    else:
        summary = _in_process(args.workload, args.seed, args.seconds, trace)
    if trace:
        # A layer the workload does not exercise reports 0.
        values = {m["name"]: summary["layers"].get(m["name"], 0) for m in spec["per_layer"]}
        wanted = spec["per_layer"]
    else:
        values = summary
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    correct = summary["failed"] == 0 and not summary.get("unsteady_counts")
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(args.seed),
        "summary": summary,
        "metrics": metrics,
        "correct": correct,
    }
    path = os.path.join(out_dir("results"), f"{args.workload}-{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
    _print_summary(args.workload, summary, metrics)
    print(f"# provenance {json.dumps(record['provenance'])}")
    print(f"# exact counts {json.dumps(summary.get('counts', {}))}")
    print(json.dumps({
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except HarnessError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        sys.exit(2)

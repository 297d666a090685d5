"""Regenerate ``baseline.json``: the seed-0 record of every workload.

Usage, from the repository root (about twelve minutes)::

    python3 benchmarks/suite/baseline.py

For each workload it runs the benchmark ``RUNS`` times untraced at seed
0, each in a fresh process and for the ``run_seconds`` that
``BENCHMARK.json`` fixes, and records the median and the interquartile
range of every end-to-end metric; then one traced run for the per-layer
breakdown.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
RUNS = 5


def _run(workload: str, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(SUITE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: incorrect run\n{proc.stderr}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main() -> int:
    sys.path.insert(0, str(SUITE))
    sys.path.insert(0, str(ROOT / "src"))
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    record: dict = {"seed": 0, "runs": RUNS, "seconds": seconds,
                    "machine": run.machine(), "workloads": {}}
    for workload in spec["workloads"]:
        name = workload["name"]
        runs = [_run(name, seconds, 0) for _ in range(RUNS)]
        end_to_end = {}
        for key in runs[0]:
            values = [r[key] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            end_to_end[key] = {"median": statistics.median(values), "iqr": q3 - q1,
                               "values": values}
        record["workloads"][name] = {
            "end_to_end": end_to_end,
            "per_layer": _run(name, seconds, 1),
        }
        print(f"{name}: " + ", ".join(
            f"{k} {v['median']:.4g}" for k, v in end_to_end.items()), file=sys.stderr)
    (SUITE / "baseline.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

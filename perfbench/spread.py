"""Run-to-run spread of the end-to-end metrics, one seed per run.

    python3 perfbench/spread.py --workload serve-repeat --seeds 1-10 --seconds 20

Runs ``perfbench/run.py`` once per seed, one run at a time, and prints
for each end-to-end metric its median over the runs and the distance
between the first and third quartile as a share of that median
(``statistics.quantiles(n=4)``), next to the metric's bound in
``BENCHMARK.json``.  Also prints the share of failed operations per run,
which must be identical across seeds.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.stats import median, quartile_spread  # noqa: E402


def seeds_from(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(part) for part in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="a range like 1-10 or a list like 3,5")
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else benchmark["run_seconds"]
    values: dict[str, list[float]] = {}
    shares = []
    for seed in seeds_from(args.seeds):
        command = [
            sys.executable, "perfbench/run.py", "--workload", args.workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
        ]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        shares.append(f"{result['failed']}/{result['attempted']}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: correct {result['correct']} failed {shares[-1]} "
              + " ".join(f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
              flush=True)
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    print(f"{'metric':18s} {'median':>12s} {'IQR/median':>10s} {'bound':>6s}")
    for name, series in values.items():
        print(f"{name:18s} {median(series):12.5g} {quartile_spread(series):10.4f} "
              f"{bounds.get(name, float('nan')):6.2f}")
    ratios = {int(a) / int(b) for a, b in (s.split("/") for s in shares)}
    print(f"failed share identical across runs: {len(ratios) == 1}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

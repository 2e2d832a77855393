"""Run-to-run spread of the benchmark, as the bounds in BENCHMARK.json use it.

    python3 bench/spread.py [--seeds 1-10]

Runs the command from BENCHMARK.json with ``--trace 0`` once per workload
and seed, in sequence, from the repository root, and prints for every
end-to-end metric the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median
next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        values: dict[str, list[float]] = {}
        failed = set()
        for seed in args.seeds:
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]),
                "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  check=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            print(workload, seed, json.dumps(result), file=sys.stderr,
                  flush=True)
            ok &= result["correct"]
            failed.add(result["failed"] / result["attempted"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload}: seeds {args.seeds[0]}-{args.seeds[-1]}, "
              f"failed share {sorted(failed)}")
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            spread = (q3 - q1) / median if median else 0.0
            print(f"  {name:28s} median {median:<12.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {spread:.4f}  bound {bounds[name]}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

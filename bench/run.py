"""Benchmark of the outlier reduction: time to a checked solution.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root as BENCHMARK.json's command does: with
the BLAS/OpenMP thread counts set to 1 and a fixed PYTHONHASHSEED, without
which peak memory differs between runs of one seed. The program is
imported from ``src/``. Each run makes the workload's instances from the
seed, writes each to an instance file under ``bench/out/``, loads it with
``load_instance`` (the set-up, timed several times) and solves it with
``run_reduction`` at parallel=1 (timed), until about S seconds of solving
are measured. One small warm-up solve comes first. Every solution is then
checked, outside the timed region, against ``reference.py``: feasibility
and cost recomputed from the raw instance, cost at least the independent
optimum and, for the exact plugin, at most the loss bound times it.

``--trace 1`` solves each instance three times, traced, untraced and
traced again, fails the run unless all three give the same solution and
both traced solves the same counts, and reports the per-layer figures
instead of the end-to-end ones. Its spans go to
``bench/out/<run>/spans.jsonl.gz``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
If no solve succeeds, ``correct`` is false and ``metrics`` is empty.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())

sys.path.insert(0, str(SRC_DIR))

import outlier_reduce  # noqa: E402
from outlier_reduce import get_plugin, load_instance, run_reduction  # noqa: E402
from outlier_reduce.reduction import ReductionConfig  # noqa: E402

from reference import (REL_TOL, RawInstance, check_solution,  # noqa: E402
                       loss_bound, reference_optimum)
from tracing import Tracer, layer_metrics, load_metrics, medians  # noqa: E402
from workloads import EPSILON, WORKLOADS, make_instance  # noqa: E402

MIN_SOLVES = 3                   # for a median, however short the run
# counts that must repeat exactly between two traced solves of one instance
DETERMINISTIC_COUNTS = ("reduction.pairs", "solvers.calls", "flow.solves",
                        "solvers.lsa_calls", "bmatching.calls")


class Run:
    def __init__(self, workload, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.plugin = get_plugin(workload.plugin)
        self.dir = OUT_DIR / f"{workload.name}-seed{seed}-trace{int(trace)}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.attempted = 0
        self.failed = 0
        self.wrong = False           # a solution failed a check
        self.ratios: list[float] = []
        self.load_times: list[float] = []

    def write(self, index: int, n: int | None = None):
        data, sample_seed = make_instance(self.workload, self.seed, index, n=n)
        path = self.dir / f"instance{index}.json"
        path.write_text(json.dumps(data))
        config = ReductionConfig(epsilon=EPSILON, sample_seed=sample_seed,
                                 parallel=1)
        return data, path, config

    def load(self, path):
        inst = None
        for _ in range(self.workload.loads_per_instance):
            del inst  # one instance's tables alive at a time
            start = time.perf_counter()
            inst = load_instance(str(path))
            self.load_times.append(time.perf_counter() - start)
        return inst

    def warm_up(self) -> None:
        _, path, config = self.write(-1, n=self.workload.warmup_n)
        run_reduction(load_instance(str(path)), config, self.plugin)

    def check(self, data: dict, solution) -> list[str]:
        """Problems of one solution; also records its cost ratio."""
        raw = RawInstance(data)
        problems, _ = check_solution(raw, solution.cost, solution.centers,
                                     solution.clusters, solution.outliers)
        ratio = solution.cost / reference_optimum(raw)
        self.ratios.append(ratio)
        if ratio < 1.0 - REL_TOL:
            problems.append(f"cost below the reference optimum ({ratio})")
        bound = loss_bound(raw.z, raw.m, EPSILON)
        if self.plugin.exactness == "exact" and ratio > bound + REL_TOL:
            problems.append(f"cost ratio {ratio} above the loss bound {bound}")
        return problems

    def fail(self, index: int, problems: list[str], *, wrong: bool) -> None:
        self.failed += 1
        self.wrong |= wrong
        for problem in problems:
            print(f"instance {index}: {problem}", file=sys.stderr)

    def solve(self, inst, config, tracer: Tracer | None = None):
        start = time.perf_counter()
        if tracer is None:
            result = run_reduction(inst, config, self.plugin)
        else:
            with tracer.installed():
                result = tracer.run_reduction(inst, config,
                                              tracer.plugin(self.plugin))
        return result.solution, time.perf_counter() - start

    def measure(self) -> dict[str, float]:
        """Solve instances until about ``seconds`` of solving are measured.

        Returns no figures if every solve raised.
        """
        solve_times: list[float] = []
        index = 0
        while self.attempted < MIN_SOLVES or (
                solve_times and sum(solve_times)
                + statistics.median(solve_times) <= self.seconds):
            data, path, config = self.write(index)
            inst = self.load(path)
            self.attempted += 1
            try:
                solution, elapsed = self.solve(inst, config)
            except Exception:
                traceback.print_exc()
                self.fail(index, ["run_reduction raised"], wrong=False)
                solution = None
            del inst
            if solution is not None:
                solve_times.append(elapsed)
                print(f"instance {index}: solved in {elapsed:.3f} s",
                      file=sys.stderr)
                problems = self.check(data, solution)
                if problems:
                    self.fail(index, problems, wrong=True)
            index += 1
        if not solve_times:
            return {}
        return {
            "solve_s": statistics.median(solve_times),
            "solves_per_s": len(solve_times) / sum(solve_times),
            "setup_s": statistics.median(self.load_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "cost_ratio": max(self.ratios),
        }

    def trace(self) -> dict[str, float]:
        """Per-layer figures from traced solves, with the determinism checks.

        Each instance is solved traced, untraced and traced again, so that
        a steady drift of the host's speed cancels out of
        ``trace.overhead_s``; the three solutions must agree, and so must
        the traced solves' counts. The first instance is solved once more
        beforehand, untimed: the process's first full-size solve also pays
        for growing its heap. Returns no figures if every solve raised.
        """
        tracer = Tracer()
        loads, solves = [], []
        untraced_times, traced_times = [], []
        spent: list[float] = []      # solve time per instance, all three solves
        index = 0
        while not self.attempted or (
                spent and sum(spent) + spent[-1] <= self.seconds):
            data, path, config = self.write(index)
            with tracer.installed():
                for rep in range(self.workload.loads_per_instance):
                    tracer.trace_id = f"load{index}.{rep}"
                    inst = load_instance(str(path))
                    loads.append(load_metrics(tracer.spans_of(tracer.trace_id)))
            self.attempted += 1
            try:
                if index == 0:
                    self.solve(inst, config)
                tracer.trace_id = f"solve{index}.0"
                outcomes = [self.solve(inst, config, tracer),
                            self.solve(inst, config)]
                tracer.trace_id = f"solve{index}.1"
                outcomes.append(self.solve(inst, config, tracer))
            except Exception:
                traceback.print_exc()
                self.fail(index, ["run_reduction raised"], wrong=False)
                outcomes = None
            del inst
            if outcomes is not None:
                untraced_times.append(outcomes[1][1])
                traced_times += [outcomes[0][1], outcomes[2][1]]
                spent.append(sum(elapsed for _, elapsed in outcomes))
                figures = [layer_metrics(tracer.spans_of(f"solve{index}.{rep}"))
                           for rep in range(2)]
                solves += figures
                problems = self.check(data, outcomes[1][0])
                if len({(s.cost, tuple(sorted(s.outliers)), tuple(s.centers))
                        for s, _ in outcomes}) != 1:
                    problems.append("traced and untraced solutions differ")
                counts = [[f[c] for c in DETERMINISTIC_COUNTS] for f in figures]
                if counts[0] != counts[1]:
                    problems.append(f"traced counts differ: {counts}")
                if problems:
                    self.fail(index, problems, wrong=True)
            index += 1
        tracer.write(self.dir / "spans.jsonl.gz")
        if not solves:
            return {}
        figures = medians(loads) | medians(solves)
        figures["trace.overhead_s"] = (statistics.median(traced_times)
                                       - statistics.median(untraced_times))
        return figures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not Path(outlier_reduce.__file__).resolve().is_relative_to(SRC_DIR):
        raise SystemExit(f"outlier_reduce was imported from "
                         f"{outlier_reduce.__file__}, not from {SRC_DIR}")

    run = Run(WORKLOADS[args.workload], args.seed, args.seconds,
              bool(args.trace))
    run.warm_up()
    figures = run.trace() if args.trace else run.measure()
    units = {m["name"]: m["unit"]
             for m in SPEC["per_layer" if args.trace else "end_to_end"]}
    # no figures at all when every solve raised
    if figures and set(figures) != set(units):
        raise SystemExit(f"metrics {sorted(set(figures) ^ set(units))} are "
                         "not both measured and declared in BENCHMARK.json")
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in figures.items()}
    print(json.dumps({"correct": bool(figures) and not run.wrong,
                      "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface: gen / solve / oracle / eval / bmatch.

All commands speak JSON and are deterministic given their seeds: the
top-level --seed is split into named substreams for the baseline and the
sampler, so either can be perturbed independently with --baseline-seed /
--sample-seed. Solution files are canonical (sorted keys, fixed indent),
which makes byte-for-byte comparisons across runs meaningful.

Exit codes: 0 success, 1 malformed input, 2 infeasible, 3 budget exceeded.
Set OUTLIER_REDUCE_LOG=DEBUG|INFO|... to control logging.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import sys
import time

import numpy as np

from .bmatching import (BMatchingInfeasible, BMatchingProblem,
                        solve_bmatching)
from .gen import GeneratorConfig, generate_instance_dict
from .instance import (CONSTRAINT_FIELDS, METRIC_FIELDS,
                       improvement_threshold, instance_from_dict,
                       load_instance, solution_from_dict, solution_to_dict,
                       validate_solution)
from .oracle import OracleBudget, OracleBudgetExceeded, exact_outlier_opt
from .reduction import (ReductionConfig, ReductionInfeasible, run_reduction)
from .solvers import DEFAULT_WORK_BUDGET, ExactBudgetExceeded, get_plugin

EXIT_OK = 0
EXIT_MALFORMED = 1
EXIT_INFEASIBLE = 2
EXIT_BUDGET = 3

log = logging.getLogger("outlier_reduce")


def derive_seed(seed: int, stream: str) -> int:
    """Stable named substream of a master seed."""
    digest = hashlib.sha256(f"{seed}:{stream}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % (2 ** 63)


def canonical_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _emit(obj, out_path: str | None) -> None:
    text = canonical_json(obj)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _digest_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def cmd_gen(args) -> int:
    cfg = GeneratorConfig(
        n=args.n, k=args.k, m=args.m, z=args.z, metric=args.metric,
        dim=args.dim, perm_len=args.perm_len, constraint=args.constraint,
        facilities=args.facilities, num_labels=args.num_labels,
        nonuniform=args.nonuniform)
    data = generate_instance_dict(cfg, args.seed)
    instance_from_dict(data)  # round-trip validation before writing
    _emit(data, args.out)
    return EXIT_OK


def _tau_json(tau):
    if tau is None:
        return None
    if tau.psi is None:
        return list(tau.t)
    return {"t": list(tau.t), "psi": [list(p) for p in tau.psi]}


def cmd_solve(args) -> int:
    if args.trials < 1:
        raise ValueError("--trials must be >= 1")
    inst = load_instance(args.input)
    for note in inst.notes:
        log.warning("instance note: %s", note)
    plugin = get_plugin(args.solver, work_budget=args.exact_budget)
    baseline_seed = (args.baseline_seed if args.baseline_seed is not None
                     else derive_seed(args.seed, "baseline"))
    sample_seed = (args.sample_seed if args.sample_seed is not None
                   else derive_seed(args.seed, "sampling"))
    sampling = "exhaustive" if args.exhaustive_sample else "random"

    # the exhaustive pool ignores the sample seed: more trials would repeat it
    trials = 1 if args.exhaustive_sample else args.trials
    best = None
    stage_times: dict[str, float] = {}  # each stage summed over all trials
    started = time.perf_counter()
    for trial in range(trials):
        config = ReductionConfig(
            epsilon=args.epsilon, beta=args.beta,
            baseline_seed=baseline_seed,
            sample_seed=sample_seed + trial,
            sampling=sampling, parallel=args.parallel,
            z2_substitution=not args.no_z2_substitution,
            early_stop_zero=args.early_stop)
        try:
            result = run_reduction(inst, config, plugin)
        except ReductionInfeasible:
            continue
        for stage, secs in result.timings.items():
            stage_times[stage] = stage_times.get(stage, 0.0) + secs
        if best is None or result.solution.cost < improvement_threshold(
                best.solution.cost):
            best = result
    wall = time.perf_counter() - started
    if best is None:
        log.error("no feasible solution over %d trial(s)", trials)
        return EXIT_INFEASIBLE

    stats = None
    if args.stats:
        stats = [{"index": r.index, "Y": list(r.Y), "tau": _tau_json(r.tau),
                  "matching_weight": r.matching_weight,
                  "solver_cost": r.solver_cost, "feasible": r.feasible,
                  "wall_time": r.wall_time} for r in best.records]
    payload = solution_to_dict(best.solution, chosen_Y=best.chosen_Y,
                               chosen_tau=_tau_json(best.chosen_tau),
                               q=best.q, iteration_stats=stats)
    _emit(payload, args.out)

    if args.report:
        report = {
            "instance_digest": _digest_file(args.input),
            "config": {
                "epsilon": args.epsilon, "beta": best.beta,
                "effective_epsilon": best.effective_epsilon,
                "solver": args.solver, "sampling": sampling,
                "trials": trials, "parallel": args.parallel,
                "seed": args.seed,
            },
            "q": best.q,
            "cost": best.solution.cost,
            "stage_times": dict(stage_times, total=wall),
        }
        if args.compare:
            with open(args.compare) as fh:
                other = json.load(fh)
            if other.get("cost"):
                report["ratio_vs_reference"] = best.solution.cost / other["cost"]
            else:
                report["ratio_vs_reference"] = 1.0 if best.solution.cost == 0 else None
        _emit(report, args.report)
    return EXIT_OK


def cmd_oracle(args) -> int:
    inst = load_instance(args.input)
    budget = OracleBudget(max_n=args.max_n, max_k=args.max_k,
                          max_m=args.max_m, max_f=args.max_f)
    try:
        _, sol = exact_outlier_opt(inst, budget)
    except ValueError as exc:
        log.error("%s", exc)
        return EXIT_INFEASIBLE
    _emit(solution_to_dict(sol), args.out)
    return EXIT_OK


def cmd_eval(args) -> int:
    inst = load_instance(args.instance)
    with open(args.solution) as fh:
        sol = solution_from_dict(json.load(fh))
    report = validate_solution(inst, sol)
    recomputed = (report.recomputed_cost
                  if math.isfinite(report.recomputed_cost) else None)
    _emit({"feasible": report.feasible,
           "recomputed_cost": recomputed,
           "violations": report.violations}, args.out)
    return EXIT_OK if report.feasible else EXIT_INFEASIBLE


def cmd_bmatch(args) -> int:
    with open(args.input) as fh:
        data = json.load(fh)
    labels, psis = data.get("left_labels"), data.get("label_demands")
    # the engine takes label codes: sorted names over rows and demands, so a
    # demanded label that no row carries has a code and no rows (JSON keys
    # are strings, so rows may carry labels of another type)
    names = sorted(set(labels or ()).union(*(psis or ())), key=str)
    code = {name: c for c, name in enumerate(names)}
    prob = BMatchingProblem(
        weights=np.asarray(data["weights"], dtype=float),
        demands=tuple(int(t) for t in data["demands"]),
        left_labels=(None if labels is None
                     else tuple(code[lab] for lab in labels)),
        label_demands=(None if psis is None
                       else tuple(tuple(int(psi.get(name, 0))
                                        for name in names) for psi in psis)))
    try:
        sol = solve_bmatching(prob)
    except BMatchingInfeasible as exc:
        log.error("%s", exc if exc.label is None
                  else f"label {names[exc.label]!r}: {exc.reason}")
        return EXIT_INFEASIBLE
    _emit({"edges": [[u, j] for u, j in zip(sol.rows, sol.cols)],
           "total_weight": sol.total_weight}, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="outlier-reduce",
        description="Constrained clustering with outliers via reduction to "
                    "outlier-free solves")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a planted-outlier instance")
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=12)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--z", type=int, default=1, choices=(1, 2))
    p.add_argument("--metric", default="euclidean",
                   choices=tuple(METRIC_FIELDS))
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--perm-len", type=int, default=5)
    p.add_argument("--constraint", default="unconstrained",
                   choices=tuple(CONSTRAINT_FIELDS))
    p.add_argument("--facilities", default="shared",
                   choices=("shared", "centers"))
    p.add_argument("--num-labels", type=int, default=2)
    p.add_argument("--nonuniform", action="store_true")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="run the outlier reduction")
    p.add_argument("--input", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--beta", type=float, default=None,
                   help="assumed baseline approximation factor "
                        "(default 5 for z=1, 25 for z=2)")
    p.add_argument("--solver", default="exact",
                   choices=("exact", "local-search"))
    p.add_argument("--trials", type=int, default=1,
                   help="independent sampling trials; best solution wins "
                        "(one with --exhaustive-sample)")
    p.add_argument("--parallel", type=int, default=1,
                   help="accepted (>= 1) for compatibility; the (Y, tau) "
                        "pairs always run serially")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--baseline-seed", type=int, default=None)
    p.add_argument("--sample-seed", type=int, default=None)
    p.add_argument("--exhaustive-sample", action="store_true",
                   help="use the whole client set as the candidate pool")
    p.add_argument("--no-z2-substitution", action="store_true",
                   help="keep the raw epsilon for squared costs")
    p.add_argument("--early-stop", action="store_true",
                   help="stop once a zero-cost solution is found")
    p.add_argument("--exact-budget", type=int, default=DEFAULT_WORK_BUDGET)
    p.add_argument("--stats", action="store_true",
                   help="include per-iteration stats in the output")
    p.add_argument("--report", default=None,
                   help="write a run report (timings, digest) to this path")
    p.add_argument("--compare", default=None,
                   help="reference solution JSON for the report's cost ratio")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("oracle", help="exact brute-force optimum (desk scale)")
    p.add_argument("--input", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--max-n", type=int, default=12)
    p.add_argument("--max-k", type=int, default=3)
    p.add_argument("--max-m", type=int, default=2)
    p.add_argument("--max-f", type=int, default=12)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("eval", help="validate a solution against an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--solution", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bmatch", help="solve a raw b-matching problem (debug)")
    p.add_argument("--input", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bmatch)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("OUTLIER_REDUCE_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OracleBudgetExceeded, ExactBudgetExceeded) as exc:
        log.error("%s", exc)
        return EXIT_BUDGET
    except (ReductionInfeasible, BMatchingInfeasible) as exc:
        log.error("%s", exc)
        return EXIT_INFEASIBLE
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        log.error("%s", exc)
        return EXIT_MALFORMED


if __name__ == "__main__":
    sys.exit(main())

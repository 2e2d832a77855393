import json

import pytest

from outlier_reduce.cli import canonical_json, main
from outlier_reduce.instance import load_instance


def run(args):
    return main([str(a) for a in args])


def test_gen_round_trips(tmp_path):
    out = tmp_path / "inst.json"
    assert run(["gen", "--out", out, "--seed", 1, "--n", 10, "--k", 2,
                "--m", 1]) == 0
    inst = load_instance(str(out))
    assert inst.n == 10 and inst.k == 2 and inst.m == 1


def test_gen_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        run(["gen", "--out", out, "--seed", 9, "--n", 8, "--m", 1])
    assert a.read_bytes() == b.read_bytes()


def test_gen_ulam_permutations(tmp_path):
    out = tmp_path / "u.json"
    assert run(["gen", "--out", out, "--seed", 2, "--metric", "ulam",
                "--perm-len", 5, "--n", 10, "--k", 2, "--m", 1]) == 0
    data = json.loads(out.read_text())
    for p in data["points"]:
        assert sorted(p) == list(range(1, 6))


def test_gen_ulam_rejects_unreachable_inlier_count(tmp_path, caplog):
    # two sites' one-move neighbourhoods of length-8 permutations hold
    # fewer than the 118 distinct inliers asked for
    out = tmp_path / "u.json"
    assert run(["gen", "--out", out, "--metric", "ulam", "--n", 120,
                "--k", 2, "--perm-len", 8]) == 1
    assert not out.exists()
    assert "fewer than n - m = 118" in caplog.text


def test_solve_eval_round_trip(tmp_path):
    inst = tmp_path / "inst.json"
    sol = tmp_path / "sol.json"
    run(["gen", "--out", inst, "--seed", 4, "--n", 9, "--k", 2, "--m", 1])
    assert run(["solve", "--input", inst, "--out", sol,
                "--exhaustive-sample"]) == 0
    assert run(["eval", "--instance", inst, "--solution", sol]) == 0


def test_eval_accepts_a_solve_at_a_large_cost_scale(tmp_path):
    # costs near 1e9: eval's recomputed cost may differ from the stated
    # one in the last bit, within the shared relative cost rule
    inst = tmp_path / "inst.json"
    sol = tmp_path / "sol.json"
    assert run(["gen", "--out", inst, "--n", 14, "--k", 2, "--m", 2,
                "--z", 2, "--seed", 3]) == 0
    data = json.loads(inst.read_text())
    for key in ("points", "facilities"):
        data[key] = [[12345.678 * c for c in p] for p in data[key]]
    inst.write_text(json.dumps(data))
    assert run(["solve", "--input", inst, "--out", sol,
                "--exhaustive-sample"]) == 0
    assert json.loads(sol.read_text())["cost"] > 1e8
    assert run(["eval", "--instance", inst, "--solution", sol]) == 0


def test_solve_m0_single_center(tmp_path):
    inst_path = tmp_path / "inst.json"
    data = {
        "metric": {"kind": "euclidean", "dim": 1}, "z": 1,
        "points": [[0.0], [1.0], [10.0]], "facilities": [[0.0], [1.0], [10.0]],
        "k": 1, "m": 0, "constraint": {"kind": "unconstrained"},
    }
    inst_path.write_text(json.dumps(data))
    sol = tmp_path / "sol.json"
    assert run(["solve", "--input", inst_path, "--out", sol]) == 0
    got = json.loads(sol.read_text())
    assert got["cost"] == pytest.approx(10.0)  # best single center is at 1
    assert got["q"] == 1


def test_solve_deterministic_across_parallel(tmp_path):
    inst = tmp_path / "inst.json"
    run(["gen", "--out", inst, "--seed", 6, "--n", 10, "--k", 2, "--m", 2])
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["solve", "--input", inst, "--out", a, "--exhaustive-sample",
                "--parallel", 1, "--seed", 7]) == 0
    assert run(["solve", "--input", inst, "--out", b, "--exhaustive-sample",
                "--parallel", 8, "--seed", 7]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_solve_rejects_trials_below_one(tmp_path, caplog):
    inst = tmp_path / "inst.json"
    run(["gen", "--out", inst, "--seed", 6, "--n", 8, "--k", 2, "--m", 1])
    out = tmp_path / "sol.json"
    for trials in (0, -1):
        assert run(["solve", "--input", inst, "--out", out,
                    "--trials", trials]) == 1
    assert not out.exists()
    assert "trials must be >= 1" in caplog.text


def test_solve_rejects_exact_budget_below_one(tmp_path, caplog):
    inst = tmp_path / "inst.json"
    run(["gen", "--out", inst, "--seed", 6, "--n", 8, "--k", 2, "--m", 1])
    out = tmp_path / "sol.json"
    for budget in (0, -1):
        assert run(["solve", "--input", inst, "--out", out,
                    "--exact-budget", budget]) == 1
    assert not out.exists()
    assert "work budget must be >= 1" in caplog.text


def test_exhaustive_trials_run_one_reduction(tmp_path):
    # the exhaustive pool ignores the sample seed: extra trials would only
    # repeat the reduction, so the report's stages cover the whole run
    inst = tmp_path / "inst.json"
    run(["gen", "--out", inst, "--seed", 1, "--n", 14, "--k", 2, "--m", 2])
    sols = []
    for trials in (1, 3):
        sol, report = tmp_path / f"sol{trials}.json", tmp_path / "report.json"
        assert run(["solve", "--input", inst, "--out", sol, "--report", report,
                    "--exhaustive-sample", "--trials", trials]) == 0
        sols.append(sol.read_bytes())
        times = json.loads(report.read_text())["stage_times"]
        total = times.pop("total")
        assert sum(times.values()) <= total < 2 * sum(times.values())
    assert sols[0] == sols[1]


def test_solve_rejects_infinite_beta(tmp_path, caplog):
    inst = tmp_path / "inst.json"
    run(["gen", "--out", inst, "--seed", 6, "--n", 8, "--k", 2, "--m", 1])
    out = tmp_path / "sol.json"
    assert run(["solve", "--input", inst, "--out", out, "--beta", "inf"]) == 1
    assert not out.exists()
    assert "beta must be a finite number >= 1" in caplog.text


def test_solve_oracle_ratio_within_bound(tmp_path):
    inst = tmp_path / "inst.json"
    run(["gen", "--out", inst, "--seed", 8, "--n", 9, "--k", 2, "--m", 1,
         "--constraint", "capacitated"])
    sol, orc = tmp_path / "sol.json", tmp_path / "orc.json"
    report = tmp_path / "report.json"
    assert run(["oracle", "--input", inst, "--out", orc]) == 0
    assert run(["solve", "--input", inst, "--out", sol, "--exhaustive-sample",
                "--report", report, "--compare", orc]) == 0
    ratio = json.loads(report.read_text())["ratio_vs_reference"]
    assert ratio <= 1.5 + 1e-9  # z=1 bound with epsilon 0.5
    assert ratio >= 1 - 1e-9


def test_oracle_emits_solution_schema(tmp_path):
    inst = tmp_path / "inst.json"
    run(["gen", "--out", inst, "--seed", 5, "--n", 8, "--k", 2, "--m", 1])
    out = tmp_path / "orc.json"
    assert run(["oracle", "--input", inst, "--out", out]) == 0
    data = json.loads(out.read_text())
    for key in ("cost", "centers", "clusters", "outliers", "chosen_Y",
                "chosen_tau", "q"):
        assert key in data
    assert run(["eval", "--instance", inst, "--solution", out]) == 0


def test_eval_rejects_tampered_solution(tmp_path):
    inst = tmp_path / "inst.json"
    sol = tmp_path / "sol.json"
    run(["gen", "--out", inst, "--seed", 3, "--n", 8, "--k", 2, "--m", 1])
    run(["solve", "--input", inst, "--out", sol, "--exhaustive-sample"])
    data = json.loads(sol.read_text())
    data["outliers"] = data["outliers"] + data["clusters"][0][:1]
    sol.write_text(json.dumps(data))
    assert run(["eval", "--instance", inst, "--solution", sol]) == 2


def test_labelled_solve_round_trip(tmp_path):
    inst = tmp_path / "inst.json"
    sol = tmp_path / "sol.json"
    run(["gen", "--out", inst, "--seed", 11, "--n", 8, "--k", 2, "--m", 1,
         "--constraint", "outlier_label_quota"])
    assert run(["solve", "--input", inst, "--out", sol,
                "--exhaustive-sample"]) == 0
    assert run(["eval", "--instance", inst, "--solution", sol]) == 0
    data = json.loads(sol.read_text())
    assert isinstance(data["chosen_tau"], dict)  # labelled tuples carry psi


def test_eval_wrong_cluster_count_emits_valid_json(tmp_path):
    inst = tmp_path / "inst.json"
    sol = tmp_path / "sol.json"
    run(["gen", "--out", inst, "--seed", 12, "--n", 8, "--k", 2, "--m", 1])
    run(["solve", "--input", inst, "--out", sol, "--exhaustive-sample"])
    data = json.loads(sol.read_text())
    data["clusters"] = data["clusters"][:1]
    data["centers"] = data["centers"][:1]
    sol.write_text(json.dumps(data))
    out = tmp_path / "eval.json"
    assert run(["eval", "--instance", inst, "--solution", sol,
                "--out", out]) == 2
    parsed = json.loads(out.read_text())  # strict JSON, no NaN
    assert parsed["recomputed_cost"] is None


@pytest.mark.parametrize("constraint", [
    {"kind": "unconstrained"},
    {"kind": "capacitated", "s": [4, 4]},
    {"kind": "label_bounds", "min_per_label": {"a": 1}}])
def test_eval_reports_foreign_points(tmp_path, constraint):
    # ref 99 is no client: eval lists the violation and exits 2 instead of
    # failing on the lookup in check() or cost()
    inst = tmp_path / "inst.json"
    data = {"metric": {"kind": "euclidean", "dim": 1}, "z": 1,
            "points": [[0], [1], [5], [6]], "facilities": [[0], [5]],
            "k": 2, "m": 1, "constraint": constraint}
    if constraint["kind"] == "label_bounds":
        data["labels"] = ["a"] * 4
    inst.write_text(json.dumps(data))
    sol = tmp_path / "sol.json"
    sol.write_text(json.dumps({"cost": 2.0, "centers": [0, 2],
                               "clusters": [[0, 1, 99], [2, 3]],
                               "outliers": []}))
    out = tmp_path / "eval.json"
    assert run(["eval", "--instance", inst, "--solution", sol,
                "--out", out]) == 2
    report = json.loads(out.read_text())
    assert report["feasible"] is False
    assert report["recomputed_cost"] is None
    assert "partition contains foreign points [99]" in report["violations"]


def test_bmatch_subcommand(tmp_path):
    prob = tmp_path / "prob.json"
    prob.write_text(json.dumps({"weights": [[3.0], [5.0]], "demands": [1]}))
    out = tmp_path / "out.json"
    assert run(["bmatch", "--input", prob, "--out", out]) == 0
    data = json.loads(out.read_text())
    assert data["total_weight"] == 3.0


def test_bmatch_labelled(tmp_path):
    prob = tmp_path / "prob.json"
    prob.write_text(json.dumps({
        "weights": [[1.0], [2.0], [5.0]], "demands": [2],
        "left_labels": ["r", "r", "b"],
        "label_demands": [{"r": 1, "b": 1}],
    }))
    assert run(["bmatch", "--input", prob]) == 0


def test_infeasible_label_shortfall_names_the_label(tmp_path, caplog):
    # "blue" is demanded but carried by no row: it gets a code and no rows
    prob = tmp_path / "prob.json"
    prob.write_text(json.dumps({
        "weights": [[1.0], [2.0]], "demands": [2],
        "left_labels": ["red", "red"],
        "label_demands": [{"red": 1, "blue": 1}],
    }))
    out = tmp_path / "out.json"
    assert run(["bmatch", "--input", prob, "--out", out]) == 2
    assert not out.exists()
    assert ("label 'blue': demand 1 exceeds 0 available left vertices"
            in caplog.text)
    # demand keys are strings, so rows labelled 1 do not serve label "1"
    prob.write_text(json.dumps({
        "weights": [[1.0], [2.0]], "demands": [1], "left_labels": [1, 2],
        "label_demands": [{"1": 1}],
    }))
    assert run(["bmatch", "--input", prob, "--out", out]) == 2
    assert "label '1': demand 1 exceeds 0 available" in caplog.text


def test_exit_codes(tmp_path):
    assert run(["solve", "--input", tmp_path / "missing.json"]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["solve", "--input", bad]) == 1
    # infeasible instance -> 2
    infeasible = tmp_path / "inf.json"
    infeasible.write_text(json.dumps({
        "metric": {"kind": "euclidean", "dim": 1}, "z": 1,
        "points": [[0.0], [1.0], [2.0]], "facilities": [[0.0]],
        "k": 1, "m": 1, "constraint": {"kind": "capacitated", "s": [1]},
    }))
    assert run(["solve", "--input", infeasible, "--exhaustive-sample"]) == 2
    assert run(["oracle", "--input", infeasible]) == 2
    # oracle budget -> 3
    big = tmp_path / "big.json"
    big.write_text(json.dumps({
        "metric": {"kind": "euclidean", "dim": 1}, "z": 1,
        "points": [[float(i)] for i in range(14)],
        "facilities": [[float(i)] for i in range(14)],
        "k": 1, "m": 0, "constraint": {"kind": "unconstrained"},
    }))
    assert run(["oracle", "--input", big]) == 3


def test_non_finite_input_exits_1(tmp_path, capsys):
    nan_point = tmp_path / "nan.json"
    nan_point.write_text(json.dumps({
        "metric": {"kind": "euclidean", "dim": 1}, "z": 1,
        "points": [[0.0], [float("nan")], [2.0]],
        "facilities": [[0.0], [2.0]],
        "k": 1, "m": 1, "constraint": {"kind": "unconstrained"},
    }))
    inf_entry = tmp_path / "inf.json"
    inf_entry.write_text(json.dumps({
        "metric": {"kind": "matrix",
                   "matrix": [[0.0, 1.0, float("inf")],
                              [1.0, 0.0, 1.0],
                              [float("inf"), 1.0, 0.0]]},
        "z": 1, "points": [0, 1, 2], "facilities": [0, 1, 2],
        "k": 1, "m": 1, "constraint": {"kind": "unconstrained"},
    }))
    for path in (nan_point, inf_entry):
        out = tmp_path / "sol.json"
        assert run(["solve", "--input", path, "--out", out,
                    "--exhaustive-sample"]) == 1
        assert not out.exists()
        assert run(["oracle", "--input", path]) == 1
    assert capsys.readouterr().out == ""


def test_canonical_json_refuses_non_finite():
    with pytest.raises(ValueError):
        canonical_json({"cost": float("nan")})


def test_absent_label_minimum_is_infeasible(tmp_path):
    # a minimum for a label no client carries can never be met: solve and
    # oracle both report no feasible solution
    path = tmp_path / "absent.json"
    path.write_text(json.dumps({
        "metric": {"kind": "euclidean", "dim": 1}, "z": 1,
        "points": [[0], [1], [5], [6]], "facilities": [[0], [5]],
        "k": 2, "m": 1, "labels": ["a", "a", "a", "a"],
        "constraint": {"kind": "label_bounds", "min_per_label": {"b": 1}},
    }))
    out = tmp_path / "sol.json"
    assert run(["solve", "--input", path, "--out", out,
                "--exhaustive-sample"]) == 2
    assert run(["solve", "--input", path, "--out", out,
                "--solver", "local-search"]) == 2
    assert run(["oracle", "--input", path, "--out", out]) == 2
    assert not out.exists()


def test_absent_quota_label_is_infeasible(tmp_path):
    # a positive quota for a label no client carries can never be met:
    # solve, eval and oracle all report no feasible solution
    path = tmp_path / "absent.json"
    path.write_text(json.dumps({
        "metric": {"kind": "euclidean", "dim": 1}, "z": 1,
        "points": [[0], [1], [5], [6], [20]], "facilities": [[0], [5]],
        "k": 2, "m": 1, "labels": ["a"] * 5,
        "constraint": {"kind": "outlier_label_quota",
                       "quota": {"a": 1, "b": 1}},
    }))
    out = tmp_path / "sol.json"
    assert run(["solve", "--input", path, "--out", out,
                "--exhaustive-sample"]) == 2
    assert run(["oracle", "--input", path, "--out", out]) == 2
    assert not out.exists()
    # the clustering that ignores the quota for b: refs 0-1 and 2-3 around
    # the facilities at 0 and 5, the point at 20 the one outlier
    out.write_text(json.dumps({
        "cost": 2.0, "centers": [0, 2], "clusters": [[0, 1], [2, 3]],
        "outliers": [4]}))
    report = tmp_path / "report.json"
    assert run(["eval", "--instance", path, "--solution", out,
                "--out", report]) == 2
    assert json.loads(report.read_text())["violations"] == [
        "check() rejects the clustering"]


def test_quota_sum_above_budget_is_infeasible(tmp_path, caplog):
    # quotas for a and b need two outliers, and m = 1: the instance loads
    # with a warning, and solve, oracle and eval all exit 2
    path = tmp_path / "quota.json"
    path.write_text(json.dumps({
        "metric": {"kind": "euclidean", "dim": 1}, "z": 1,
        "points": [[0], [1], [5], [6], [20]], "facilities": [[0], [5]],
        "k": 2, "m": 1, "labels": ["a", "a", "b", "b", "a"],
        "constraint": {"kind": "outlier_label_quota",
                       "quota": {"a": 1, "b": 1}},
    }))
    out = tmp_path / "sol.json"
    assert run(["solve", "--input", path, "--out", out,
                "--exhaustive-sample"]) == 2
    assert "outlier label quotas sum beyond the budget m" in caplog.text
    assert run(["oracle", "--input", path, "--out", out]) == 2
    assert not out.exists()
    # the quota met with one a and one b outlier (refs 4 and 3), which
    # breaks the budget alone
    out.write_text(json.dumps({
        "cost": 1.0, "centers": [0, 2], "clusters": [[0, 1], [2]],
        "outliers": [3, 4]}))
    report = tmp_path / "report.json"
    assert run(["eval", "--instance", path, "--solution", out,
                "--out", report]) == 2
    assert json.loads(report.read_text())["violations"] == [
        "outlier budget: |X_0|=2 exceeds m=1"]


def test_fractional_budget_exits_3_without_advice(tmp_path, caplog):
    # 79 residual clients over k = 3 clusters give C(81, 2) = 3240 size
    # vectors, past the fractional budget; local search shares the engine,
    # so the message must not send the user there
    path = tmp_path / "frac.json"
    points = [[float(i)] for i in range(80)]
    path.write_text(json.dumps({
        "metric": {"kind": "euclidean", "dim": 1}, "z": 1,
        "points": points, "facilities": points[::10], "k": 3, "m": 1,
        "labels": ["a" if i % 3 else "b" for i in range(80)],
        "constraint": {"kind": "label_bounds", "alpha": {"b": "1/5"},
                       "beta": {"b": "1/2"}},
    }))
    for solver in ("exact", "local-search"):
        caplog.clear()
        assert run(["solve", "--input", path, "--solver", solver,
                    "--exhaustive-sample"]) == 3
        assert ("3240 cluster-size vectors exceed the fractional fairness "
                "budget") in caplog.text
        assert "local-search" not in caplog.text


def test_report_stage_times_cover_every_trial(tmp_path):
    inst = tmp_path / "inst.json"
    report = tmp_path / "report.json"
    assert run(["gen", "--out", inst, "--n", 14, "--k", 2, "--m", 2,
                "--seed", 1, "--constraint", "capacitated"]) == 0
    assert run(["solve", "--input", inst, "--out", tmp_path / "sol.json",
                "--solver", "local-search", "--trials", 3,
                "--report", report]) == 0
    times = json.loads(report.read_text())["stage_times"]
    total = times.pop("total")
    assert set(times) == {"baseline", "sampling", "matching", "solver"}
    assert total / 2 <= sum(times.values()) <= total


LINE = {"metric": {"kind": "euclidean", "dim": 1}, "z": 1,
        "points": [[0], [1], [5], [6], [20]], "facilities": [[0], [5]],
        "k": 2, "m": 1, "constraint": {"kind": "unconstrained"}}
LABELLED = dict(LINE, labels=["a", "a", "b", "b", "a"])


@pytest.mark.parametrize("data", [
    dict(LABELLED, constraint={"kind": "label_bounds", "alpha": {"a": "1/5"},
                               "min_per_label": {"b": 9}}),
    dict(LINE, metric={"kind": "euclidean", "dim": 1, "perm_len": 3,
                       "matrix": [[0.0]]}),
    dict(LINE, k=1.5),
    dict(LINE, m=True),
    dict(LINE, constraint={"kind": "capacitated", "s": [2.7, 3.9]}),
    dict(LABELLED, constraint={"kind": "outlier_label_quota",
                               "quota": {"a": 0.9}}),
    dict(LINE, constraint={"kind": "size_bounds", "r": 1, "l": [5, 5]}),
    dict(LABELLED, constraint={"kind": "outlier_label_quota", "quota": [1]}),
    dict(LINE, constraint=[]),
    dict(LINE, k=None),
    dict(LINE, points=5),
], ids=["mixed-label-windows", "metric-of-another-kind", "k-1.5", "m-true",
        "capacities-2.7", "quota-0.9", "r-not-a-list", "quota-not-an-object",
        "constraint-not-an-object", "k-null", "points-not-a-list"])
def test_malformed_instance_exits_1(tmp_path, caplog, data):
    # each loaded with a count truncated or a field dropped, or crashed
    # with a traceback; now one error line and exit 1
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "sol.json"
    assert run(["solve", "--input", path, "--out", out,
                "--exhaustive-sample"]) == 1
    assert not out.exists()
    (record,) = [r for r in caplog.records if r.levelname == "ERROR"]
    assert "\n" not in record.getMessage()


# refs 0-1 served from the facility at 0, 2 and 4 from the one at 5, 3 out
GOOD_SOLUTION = {"cost": 16.0, "centers": [0, 2], "clusters": [[0, 1], [2, 4]],
                 "outliers": [3]}


@pytest.mark.parametrize("solution", [
    dict(GOOD_SOLUTION, outliers=[3.5]),
    dict(GOOD_SOLUTION, centers=[0.9, 2]),
    dict(GOOD_SOLUTION, cost=None),
    dict(GOOD_SOLUTION, clusters=5),
    [],
], ids=["outlier-3.5", "center-0.9", "cost-null", "clusters-not-a-list",
        "not-an-object"])
def test_malformed_solution_exits_1(tmp_path, caplog, solution):
    inst, sol = tmp_path / "inst.json", tmp_path / "sol.json"
    inst.write_text(json.dumps(LINE))
    sol.write_text(json.dumps(GOOD_SOLUTION))
    assert run(["eval", "--instance", inst, "--solution", sol]) == 0
    sol.write_text(json.dumps(solution))
    caplog.clear()
    assert run(["eval", "--instance", inst, "--solution", sol]) == 1
    (record,) = [r for r in caplog.records if r.levelname == "ERROR"]
    assert "\n" not in record.getMessage()

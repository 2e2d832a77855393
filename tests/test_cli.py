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


def test_solve_eval_round_trip(tmp_path):
    inst = tmp_path / "inst.json"
    sol = tmp_path / "sol.json"
    run(["gen", "--out", inst, "--seed", 4, "--n", 9, "--k", 2, "--m", 1])
    assert run(["solve", "--input", inst, "--out", sol,
                "--exhaustive-sample"]) == 0
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

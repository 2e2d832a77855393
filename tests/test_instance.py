import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outlier_reduce.gen import GeneratorConfig, generate_instance_dict
from outlier_reduce.instance import (ClusteringInstance, ConstraintSpec,
                                     Solution, check, check_counts, cost,
                                     instance_from_dict, instance_to_dict,
                                     validate_solution)
from outlier_reduce.metric import euclidean_space

from helpers import (fref_of, label_of, line_instance, ref_of,
                     reference_check)


def refs(inst, *values):
    return frozenset(ref_of(inst, v) for v in values)


def test_check_unconstrained_always_true():
    inst = line_instance([0, 1, 2], k=2)
    c = [refs(inst, 0, 1), refs(inst, 2)]
    assert check(inst, c, [fref_of(inst, 0), fref_of(inst, 2)])


def test_check_capacitated_overflow():
    inst = line_instance([0, 1, 2, 3, 4], fs=[0, 4], k=2,
                         constraint={"kind": "capacitated", "s": [2, 2]})
    clusters = [refs(inst, 0, 1, 2), refs(inst, 3, 4)]
    centers = [fref_of(inst, 0), fref_of(inst, 4)]
    assert not check(inst, clusters, centers)
    clusters = [refs(inst, 0, 1), refs(inst, 3, 4)]
    # point 2 left out of both clusters is not check's business (it only
    # sees cardinalities); sizes (2, 2) fit the capacities
    assert check(inst, clusters, centers)


def test_check_size_bounds():
    inst = line_instance([0, 1, 2, 3, 4, 5], k=2,
                         constraint={"kind": "size_bounds", "r": [2, 2],
                                     "l": [5, 5]})
    clusters = [refs(inst, 0, 1), refs(inst, 2, 3, 4, 5)]
    centers = [fref_of(inst, 0), fref_of(inst, 3)]
    assert check(inst, clusters, centers)
    clusters = [refs(inst, 0), refs(inst, 1, 2, 3, 4, 5)]
    assert not check(inst, clusters, centers)


def test_check_label_bounds_integer():
    inst = line_instance([0, 1, 2, 3], k=2, labels=["a", "a", "b", "b"],
                         constraint={"kind": "label_bounds",
                                     "min_per_label": {"a": 1},
                                     "max_per_label": {}})
    centers = [fref_of(inst, 0), fref_of(inst, 3)]
    good = [refs(inst, 0, 2), refs(inst, 1, 3)]
    bad = [refs(inst, 0, 1), refs(inst, 2, 3)]  # second cluster has no "a"
    assert check(inst, good, centers)
    assert not check(inst, bad, centers)


def test_check_fractional_exact_boundary():
    # alpha = 1/3 on a cluster of size 3 requires at least exactly 1
    inst = line_instance([0, 1, 2], k=1, labels=["a", "b", "b"],
                         constraint={"kind": "label_bounds",
                                     "alpha": {"a": "1/3"},
                                     "beta": {"a": "1/3"}})
    centers = [fref_of(inst, 0)]
    assert check(inst, [refs(inst, 0, 1, 2)], centers)
    inst2 = line_instance([0, 1, 2], k=1, labels=["a", "a", "b"],
                          constraint={"kind": "label_bounds",
                                      "alpha": {"a": "1/3"},
                                      "beta": {"a": "1/3"}})
    assert not check(inst2, [refs(inst2, 0, 1, 2)], [fref_of(inst2, 0)])


def test_check_outlier_quota():
    inst = line_instance([0, 1, 2, 3], k=1, m=1,
                         labels=["a", "b", "a", "b"],
                         constraint={"kind": "outlier_label_quota",
                                     "quota": {"b": 1}})
    centers = [fref_of(inst, 0)]
    assert check(inst, [refs(inst, 0, 1, 2)], centers)       # outlier 3 is "b"
    assert not check(inst, [refs(inst, 0, 1, 3)], centers)   # outlier 2 is "a"


def test_cost_empty_clusters():
    inst = line_instance([0, 1], k=2)
    assert cost(inst, [frozenset(), frozenset()],
                [fref_of(inst, 0), fref_of(inst, 1)]) == 0.0


def test_cost_own_center_not_nearest():
    inst = line_instance([0, 1, 10], k=1)
    c = [refs(inst, 0, 1, 10)]
    assert cost(inst, c, [fref_of(inst, 1)]) == 1 + 0 + 9


def test_cost_squared():
    inst = line_instance([0, 1, 10], k=2, z=2)
    clusters = [refs(inst, 0, 1), refs(inst, 10)]
    centers = [fref_of(inst, 0), fref_of(inst, 10)]
    assert cost(inst, clusters, centers) == 1.0


def test_validate_round_trip():
    inst = line_instance([0, 1, 10], k=1, m=1)
    sol = Solution(outliers=refs(inst, 10),
                   clusters=(refs(inst, 0, 1),),
                   centers=(fref_of(inst, 0),), cost=1.0)
    report = validate_solution(inst, sol)
    assert report.feasible and report.violations == []
    assert report.recomputed_cost == pytest.approx(1.0)


def test_validate_overlap():
    inst = line_instance([0, 1, 2], k=2)
    sol = Solution(outliers=frozenset(),
                   clusters=(refs(inst, 0, 1), refs(inst, 1, 2)),
                   centers=(fref_of(inst, 0), fref_of(inst, 2)), cost=1.0)
    report = validate_solution(inst, sol)
    assert not report.feasible
    assert any("overlap" in v for v in report.violations)


def test_validate_outlier_budget():
    inst = line_instance([0, 1, 2], k=1, m=1)
    sol = Solution(outliers=refs(inst, 1, 2),
                   clusters=(refs(inst, 0),),
                   centers=(fref_of(inst, 0),), cost=0.0)
    report = validate_solution(inst, sol)
    assert not report.feasible
    assert any("budget" in v for v in report.violations)


def test_loader_rejects_unknown_fields():
    data = instance_to_dict(line_instance([0, 1], k=1))
    data["extra"] = 1
    with pytest.raises(ValueError):
        instance_from_dict(data)


def test_loader_rejects_duplicate_clients():
    with pytest.raises(ValueError):
        line_instance([0, 0, 1], k=1)


def test_labels_iff_label_constraint():
    with pytest.raises(ValueError):
        line_instance([0, 1], k=1, labels=["a", "b"])
    with pytest.raises(ValueError):
        line_instance([0, 1], k=1,
                      constraint={"kind": "label_bounds",
                                  "min_per_label": {"a": 1},
                                  "max_per_label": {}})


def test_budget_note_flagged():
    inst = line_instance([0, 1, 2], k=2, m=2)
    assert any("budget" in note for note in inst.notes)


def test_constraint_spec_validation():
    with pytest.raises(ValueError):
        ConstraintSpec("size_bounds", r=(3,), l=(2,))
    with pytest.raises(ValueError):
        ConstraintSpec("nonsense")


def test_json_round_trip():
    inst = line_instance([0, 1, 10], fs=[0, 10], k=2, m=1,
                         constraint={"kind": "capacitated", "s": [2, 2]})
    data = json.loads(json.dumps(instance_to_dict(inst)))
    again = instance_from_dict(data)
    assert again.n == inst.n and again.k == inst.k and again.m == inst.m
    assert again.constraint == inst.constraint


@pytest.mark.parametrize("metric", ["euclidean", "matrix", "ulam"])
def test_json_round_trip_every_metric(metric):
    data = generate_instance_dict(
        GeneratorConfig(n=9, k=2, m=1, metric=metric, facilities="centers",
                        constraint="label_bounds"), seed=3)
    inst = instance_from_dict(data)
    assert json.loads(json.dumps(instance_to_dict(inst))) == data


def test_load_keeps_only_the_client_facility_block():
    # 2000 clients and 5 facilities: the space holds its 2005 points, not a
    # 2005 x 2005 table, and pow_xf is the instance's only distance array
    rng = np.random.default_rng(0)
    points = rng.uniform(-50.0, 50.0, size=(2000, 2)).tolist()
    inst = instance_from_dict({
        "metric": {"kind": "euclidean", "dim": 2}, "z": 1, "points": points,
        "facilities": points[:5], "k": 2, "m": 1,
        "constraint": {"kind": "unconstrained"}})
    on_space = [v for v in vars(inst.space).values()
                if isinstance(v, np.ndarray)]
    assert sum(a.nbytes for a in on_space) < 2 ** 20
    floats = [name for name, v in vars(inst).items()
              if isinstance(v, np.ndarray) and v.dtype.kind == "f"]
    assert floats == ["pow_xf"] and inst.pow_xf.shape == (2000, 5)


def test_shared_ground_set_overlap():
    inst = line_instance([0.0, 1.0], fs=[1.0, 2.0], k=1)
    # the client at 1.0 and the facility at 1.0 share one ground ref
    assert set(inst.X) & set(inst.F)


def test_nearest_assignment_cost_is_unconstrained_objective():
    from outlier_reduce.baseline import anchor_cost_of

    inst = line_instance([0, 2, 9, 11, 30], k=2)
    centers = [fref_of(inst, 2), fref_of(inst, 11)]
    clusters = [set(), set()]
    for x in inst.X:
        _, nearest = inst.space.powered_to_set(x, centers)
        clusters[centers.index(nearest)].add(x)
    assert cost(inst, clusters, centers) == pytest.approx(
        anchor_cost_of(inst, centers), abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_cost_additive_over_clusters(data):
    xs = data.draw(st.lists(st.integers(-30, 30), min_size=2, max_size=8,
                            unique=True))
    inst = line_instance(xs, k=2)
    split = data.draw(st.integers(0, len(xs)))
    members = [ref_of(inst, v) for v in xs]
    c1, c2 = frozenset(members[:split]), frozenset(members[split:])
    f1 = data.draw(st.sampled_from(inst.F))
    f2 = data.draw(st.sampled_from(inst.F))
    total = cost(inst, [c1, c2], [f1, f2])
    parts = (cost(inst, [c1, frozenset()], [f1, f2])
             + cost(inst, [frozenset(), c2], [f1, f2]))
    assert total == pytest.approx(parts, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_check_depends_only_on_cardinalities(data):
    # swapping same-label points between clusters never changes check()
    xs = list(range(6))
    labels = data.draw(st.lists(st.sampled_from(["a", "b"]), min_size=6,
                                max_size=6))
    inst = line_instance(xs, k=2, labels=labels,
                         constraint={"kind": "label_bounds",
                                     "min_per_label": {"a": 1},
                                     "max_per_label": {"b": 2}})
    members = list(inst.X)
    half = data.draw(st.integers(1, 5))
    c1, c2 = set(members[:half]), set(members[half:])
    centers = [inst.F[0], inst.F[1]]
    before = check(inst, [c1, c2], centers)
    lab_of = label_of(inst)
    swaps = [(x, y) for x in c1 for y in c2 if lab_of[x] == lab_of[y]]
    if swaps:
        x, y = data.draw(st.sampled_from(swaps))
        c1 = (c1 - {x}) | {y}
        c2 = (c2 - {y}) | {x}
        assert check(inst, [c1, c2], centers) == before


def random_spec(kind, rng, k, nf):
    """A random constraint of one kind over labels a, b (present) and z
    (absent): absent-label minima and maxima, fractional maps that omit
    labels, the alpha = 0 and beta = 1 edges, and quotas."""
    def frac():
        return Fraction(int(rng.integers(0, 4)), int(rng.integers(1, 4)))

    def maybe(labs, draw):
        return {lab: draw() for lab in labs if rng.random() < 0.6}

    if kind == "unconstrained":
        return ConstraintSpec(kind)
    if kind == "size_bounds":
        r = tuple(int(v) for v in rng.integers(0, 3, size=k))
        return ConstraintSpec(kind, r=r, l=tuple(
            v + int(rng.integers(0, 4)) for v in r))
    if kind == "capacitated":
        return ConstraintSpec(kind, s=tuple(
            int(v) for v in rng.integers(0, 5, size=nf)))
    if kind == "integral":
        return ConstraintSpec(
            "label_bounds",
            min_per_label=maybe("abz", lambda: int(rng.integers(0, 2))),
            max_per_label=maybe("abz", lambda: int(rng.integers(0, 4))))
    if kind == "fractional":
        alpha, beta = {}, {}
        for lab in "abz":
            a, b = sorted((min(frac(), Fraction(1)), min(frac(), Fraction(1))))
            if rng.random() < 0.6:
                alpha[lab] = a
            if rng.random() < 0.6:
                beta[lab] = b
        # alpha only, beta only, or both maps, as a spec built in code may be
        shape = int(rng.integers(0, 3))
        if shape == 0:
            return ConstraintSpec("label_bounds", alpha=alpha)
        if shape == 1:
            return ConstraintSpec("label_bounds", beta=beta)
        return ConstraintSpec("label_bounds", alpha=alpha, beta=beta)
    return ConstraintSpec("outlier_label_quota",
                          quota=maybe("abz", lambda: int(rng.integers(0, 3))))


def test_check_agrees_with_reference_on_every_kind():
    rng = np.random.default_rng(31)
    kinds = ("unconstrained", "size_bounds", "capacitated", "integral",
             "fractional", "outlier_label_quota")
    outcomes = {kind: set() for kind in kinds}
    for trial in range(600):
        kind = kinds[trial % len(kinds)]
        n, k = int(rng.integers(3, 8)), int(rng.integers(1, 3))
        space = euclidean_space([[float(v)] for v in range(n)], 1, 1)
        X = list(range(n))
        F = sorted(rng.choice(n, size=int(rng.integers(k, n + 1)),
                              replace=False).tolist())
        spec = random_spec(kind, rng, k, len(F))
        labels = ([("a", "b")[int(v)] for v in rng.integers(0, 2, size=n)]
                  if spec.uses_labels else None)
        inst = ClusteringInstance(space, X, F, k, 2, labels, spec)
        for _ in range(5):
            where = rng.integers(-1, k, size=n)  # -1 marks an outlier
            members = [[x for x in X if where[x] == i] for i in range(k)]
            centers = rng.choice(F, size=k).tolist()
            if kind != "capacitated" and rng.random() < 0.3:
                centers[0] = n + 5  # not a facility; the kind ignores it
            want = reference_check(inst, [frozenset(c) for c in members],
                                   centers)
            outcomes[kind].add(want)
            assert check(inst, [frozenset(c) for c in members],
                         centers) == want
            shuffled = [rng.permutation(c).tolist() for c in members]
            assert check(inst, shuffled, centers) == want
            # the assignment form: counts straight from the where array
            label_counts = outlier_counts = None
            if spec.uses_labels:
                codes, nl = inst.label_codes, len(inst.windowed_labels)
                label_counts = np.bincount(
                    (where * nl + codes)[where >= 0],
                    minlength=k * nl).reshape(k, nl)
                outlier_counts = np.bincount(codes[where < 0], minlength=nl)
            assert check_counts(inst, (inst.fpos[f] for f in centers),
                                np.bincount(where[where >= 0], minlength=k),
                                label_counts, outlier_counts) == want
    assert all(seen == {True, False} for kind, seen in outcomes.items()
               if kind != "unconstrained"), outcomes


def test_check_capacitated_non_facility_center_raises():
    inst = line_instance([0, 1, 2], fs=[0, 2], k=1,
                         constraint={"kind": "capacitated", "s": [3, 3]})
    for predicate in (check, reference_check):
        with pytest.raises(KeyError):
            predicate(inst, [frozenset(inst.X)], [ref_of(inst, 1)])


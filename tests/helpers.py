"""Shared builders, independent brute-force oracles and reference solvers.

The enumeration oracles here intentionally share no code with the flow /
assignment engines they certify: b-matchings are enumerated
subset-by-subset, assignments point-by-point. ``ssp_bmatching`` is the
earlier b-matching engine, a min-cost flow on ``flow.FlowNetwork``, kept
to check the assignment-based one edge for edge. ``reference_reduction``
is the earlier per-pair loop of ``run_reduction``, which built and pruned
each pair's matching problem over all clients and handed the solver X' as
a tuple of refs; it checks the prepared pipeline record for record.
``reference_local_search`` and ``reference_solve_unconstrained`` are the
earlier swap loops of the local-search plugin and the anchor solver,
which solved or scored every swap one at a time; they check the
bound-scored sweeps bitwise. ``reference_powered_table`` is the full
n x n table a metric space once precomputed at construction; it checks
the blocks that spaces now compute on demand, bitwise.
``reference_check`` is the earlier feasibility predicate, which compared
fractional windows by cross-multiplication and branched on each kind
itself; it checks that ``check``, now reading the constraint's count
windows, accepts the same clusterings. ``residual_problem`` builds the
solver's positional problem from a tuple of refs, as the references and
tests name residuals.
"""

from __future__ import annotations

import bisect
import itertools
from collections import namedtuple
from fractions import Fraction

import numpy as np

from outlier_reduce.instance import ClusteringInstance, instance_from_dict


def line_instance(xs, fs=None, *, k=1, m=0, z=1, constraint=None,
                  labels=None) -> ClusteringInstance:
    """1-D euclidean instance; facilities default to the client locations."""
    fs = list(xs) if fs is None else list(fs)
    data = {
        "metric": {"kind": "euclidean", "dim": 1},
        "z": z,
        "points": [[float(v)] for v in xs],
        "facilities": [[float(v)] for v in fs],
        "k": k,
        "m": m,
        "constraint": constraint if constraint is not None
        else {"kind": "unconstrained"},
    }
    if labels is not None:
        data["labels"] = list(labels)
    return instance_from_dict(data)


def label_of(inst: ClusteringInstance) -> dict:
    """Each client ref's label."""
    return dict(zip(inst.X, inst.labels))


def residual_problem(inst: ClusteringInstance, refs):
    """The outlier-free problem on the clients ``refs``, in that order."""
    from outlier_reduce.solvers import OutlierFreeProblem

    return OutlierFreeProblem(inst, np.array([inst.xpos[x] for x in refs],
                                             dtype=np.intp))


def ref_of(inst: ClusteringInstance, value: float) -> int:
    """Ground ref of the 1-D client at the given coordinate."""
    for x in inst.X:
        if abs(inst.space.coords[x][0] - value) < 1e-12:
            return x
    raise KeyError(value)


def fref_of(inst: ClusteringInstance, value: float) -> int:
    for f in inst.F:
        if abs(inst.space.coords[f][0] - value) < 1e-12:
            return f
    raise KeyError(value)


def reference_powered_table(space) -> np.ndarray:
    """D^z over every pair of the ground set: one broadcast for Euclidean
    points, the upper triangle pair by pair (patience-sorted LIS of one
    permutation relabelled through the other) for Ulam ones."""
    if space.kind == "euclidean":
        diff = space.coords[:, None, :] - space.coords[None, :, :]
        dist = np.sqrt((diff ** 2).sum(axis=2))
    elif space.kind == "ulam":
        perms = space.perms.tolist()
        dist = np.zeros((len(perms), len(perms)))
        for i, j in itertools.combinations(range(len(perms)), 2):
            pos = {v: t for t, v in enumerate(perms[j])}
            tails: list[int] = []
            for x in (pos[v] for v in perms[i]):
                at = bisect.bisect_left(tails, x)
                tails[at:at + 1] = [x]
            dist[i, j] = dist[j, i] = len(perms[i]) - len(tails)
    else:
        dist = space.matrix
    return dist if space.z == 1 else dist ** 2


def _reference_label_counts(inst: ClusteringInstance, points) -> dict:
    labels = label_of(inst)
    counts: dict[str, int] = {}
    for x in points:
        lab = labels[x]
        counts[lab] = counts.get(lab, 0) + 1
    return counts


def reference_check(inst: ClusteringInstance, clusters, centers) -> bool:
    """The earlier ``check``, with capacities read per facility column."""
    if len(clusters) != inst.k or len(centers) != inst.k:
        raise ValueError(f"expected {inst.k} clusters and centers")
    spec = inst.constraint
    if spec.uses_labels and inst.labels is None:
        raise ValueError("labelled constraint on an unlabelled instance")
    sizes = [len(c) if isinstance(c, (set, frozenset)) else len(set(c))
             for c in clusters]

    if spec.kind == "unconstrained":
        return True
    if spec.kind == "size_bounds":
        return all(r <= sz <= u for r, u, sz in zip(spec.r, spec.l, sizes))
    if spec.kind == "capacitated":
        return all(sz <= spec.s[inst.fpos[f]] for sz, f in zip(sizes, centers))
    if spec.kind == "label_bounds":
        per_cluster = [_reference_label_counts(inst, c) for c in clusters]
        if spec.fractional:
            alpha = spec.alpha or {}
            beta = spec.beta or {}
            for counts, sz in zip(per_cluster, sizes):
                for lab in inst.label_names:
                    cnt = counts.get(lab, 0)
                    a = alpha.get(lab, Fraction(0))
                    b = beta.get(lab, Fraction(1))
                    # alpha * sz <= cnt <= beta * sz, exactly in integers
                    if a.numerator * sz > cnt * a.denominator:
                        return False
                    if b.numerator * sz < cnt * b.denominator:
                        return False
            return True
        lo = spec.min_per_label or {}
        hi = spec.max_per_label or {}
        for counts in per_cluster:
            for lab, need in lo.items():
                if counts.get(lab, 0) < need:
                    return False
            for lab, cap in hi.items():
                if counts.get(lab, 0) > cap:
                    return False
        return True
    if spec.kind == "outlier_label_quota":
        clustered = set()
        for c in clusters:
            clustered.update(c)
        outliers = [x for x in inst.X if x not in clustered]
        counts = _reference_label_counts(inst, outliers)
        for lab in inst.label_names:
            if counts.get(lab, 0) != spec.quota.get(lab, 0):
                return False
        return True
    raise AssertionError(spec.kind)


def random_bmatching_problem(rng, labelled=False, max_left=8, max_right=3,
                             max_labels=3):
    """Random demand-matching instance; demands total at most |left|."""
    from outlier_reduce.bmatching import BMatchingProblem

    nl = int(rng.integers(1, max_left + 1))
    nr = int(rng.integers(1, max_right + 1))
    weights = rng.uniform(0, 10, size=(nl, nr))
    demands = [0] * nr
    for _ in range(int(rng.integers(0, nl + 1))):
        demands[int(rng.integers(0, nr))] += 1
    left_labels = label_demands = None
    if labelled:
        num_labels = int(rng.integers(1, max_labels + 1))
        left_labels = tuple(f"L{int(rng.integers(0, num_labels))}"
                            for _ in range(nl))
        label_demands = []
        for t in demands:
            psi = {}
            for _ in range(t):
                lab = f"L{int(rng.integers(0, num_labels))}"
                psi[lab] = psi.get(lab, 0) + 1
            label_demands.append(psi)
        label_demands = tuple(label_demands)
    return BMatchingProblem(left=tuple(range(nl)), right=tuple(range(nr)),
                            weights=weights, demands=tuple(demands),
                            left_labels=left_labels,
                            label_demands=label_demands)


def ssp_bmatching(prob):
    """Min-cost b-matching by successive shortest paths on a flow network.

    Unlabelled: source -> left (1) -> right (1, w) -> sink (t_j). Labelled:
    right vertex j becomes t_j unit copies, each reachable only from left
    vertices of its label. Returns a ``BMatchingSolution`` whose edges and
    weight are summed in (left, right) order, or raises
    ``BMatchingInfeasible``.
    """
    from outlier_reduce.bmatching import (BMatchingInfeasible,
                                          BMatchingSolution)
    from outlier_reduce.flow import FlowInfeasible, FlowNetwork

    nl = len(prob.left)
    if prob.labelled:
        targets = [(j, lab) for j, psi in enumerate(prob.label_demands)
                   for lab in sorted(psi) for _ in range(psi[lab])]
        caps = [1] * len(targets)
    else:
        targets = [(j, None) for j in range(len(prob.right))]
        caps = list(prob.demands)
    src, snk = nl + len(targets), nl + len(targets) + 1
    net = FlowNetwork(nl + len(targets) + 2)
    for u in range(nl):
        net.add_arc(src, u, 1, 0.0)
    edge_arcs = {}
    for c, (j, lab) in enumerate(targets):
        if caps[c] == 0:
            continue
        for u in range(nl):
            if lab is None or prob.left_labels[u] == lab:
                edge_arcs[(u, c)] = net.add_arc(u, nl + c, 1,
                                                float(prob.weights[u, j]))
        net.add_arc(nl + c, snk, caps[c], 0.0)
    try:
        net.solve(src, snk, prob.total_demand)
    except FlowInfeasible:
        raise BMatchingInfeasible("demands cannot be met") from None
    edges = []
    weight = 0.0
    for (u, c), arc in sorted(edge_arcs.items()):
        if net.flow_on(arc) > 0:
            j = targets[c][0]
            edges.append((prob.left[u], prob.right[j]))
            weight += float(prob.weights[u, j])
    return BMatchingSolution(tuple(edges), weight,
                             frozenset(u for u, _ in edges))


def brute_bmatching(weights, demands, left_labels=None, label_demands=None):
    """Minimum matching weight by exhaustive enumeration, or None.

    Enumerates, right vertex by right vertex, every way of granting it
    exactly its demand from the still-unmatched left vertices (respecting
    per-label counts when given).
    """
    weights = np.asarray(weights, dtype=float)
    nl, nr = weights.shape

    def options(j, available):
        t = demands[j]
        if label_demands is None:
            yield from itertools.combinations(sorted(available), t)
            return
        pools = []
        for lab in sorted(label_demands[j]):
            cnt = label_demands[j][lab]
            members = sorted(u for u in available if left_labels[u] == lab)
            if len(members) < cnt:
                return
            pools.append(list(itertools.combinations(members, cnt)))
        for combo in itertools.product(*pools):
            yield tuple(u for group in combo for u in group)

    best = [None]

    def recurse(j, available, acc):
        if best[0] is not None and acc > best[0] + 1e-12:
            return
        if j == nr:
            if best[0] is None or acc < best[0]:
                best[0] = acc
            return
        for chosen in options(j, available):
            w = acc + sum(weights[u, j] for u in chosen)
            recurse(j + 1, available - set(chosen), w)

    recurse(0, set(range(nl)), 0.0)
    return best[0]


def brute_assignment(inst: ClusteringInstance, x_prime, centers):
    """Exhaustive minimum feasible assignment cost of x_prime to centers.

    Evaluates every point->cluster map directly against the constraint
    semantics; returns the minimum cost or None. Vectorized so the
    acceptance suite can afford 500-seed sweeps.
    """
    spec = inst.constraint
    n = len(x_prime)
    k = len(centers)
    label_of_x = label_of(inst) if inst.labels is not None else None
    W = np.array([[inst.pow_xf[inst.xpos[x], inst.fpos[f]] for f in centers]
                  for x in x_prime])
    if n == 0:
        assigns = np.zeros((1, 0), dtype=int)
    else:
        assigns = np.array(list(itertools.product(range(k), repeat=n)),
                           dtype=int)
    costs = (W[np.arange(n), assigns].sum(axis=1) if n
             else np.zeros(len(assigns)))
    counts = np.stack([(assigns == i).sum(axis=1) for i in range(k)], axis=1)

    if spec.kind in ("unconstrained", "outlier_label_quota"):
        feasible = np.ones(len(assigns), dtype=bool)
        if spec.kind == "outlier_label_quota":
            removed = [x for x in inst.X if x not in set(x_prime)]
            got = {}
            for x in removed:
                lab = label_of_x[x]
                got[lab] = got.get(lab, 0) + 1
            quota_ok = all(got.get(lab, 0) == spec.quota.get(lab, 0)
                           for lab in inst.label_names)
            if not quota_ok:
                return None
    elif spec.kind == "capacitated":
        caps = np.array([inst.constraint.s[inst.fpos[f]] for f in centers])
        feasible = (counts <= caps).all(axis=1)
    elif spec.kind == "size_bounds":
        r = np.array(spec.r)
        l = np.array(spec.l)
        feasible = ((counts >= r) & (counts <= l)).all(axis=1)
    elif spec.kind == "label_bounds":
        feasible = np.ones(len(assigns), dtype=bool)
        # like check(), hold every cluster to each integral minimum, also
        # one for a label that no client carries
        labels = set(inst.label_names)
        if not spec.fractional:
            labels |= set(spec.min_per_label or {})
        for lab in sorted(labels):
            pts = [t for t, x in enumerate(x_prime)
                   if label_of_x[x] == lab]
            lab_counts = np.stack(
                [(assigns[:, pts] == i).sum(axis=1) for i in range(k)], axis=1)
            if spec.fractional:
                a = (spec.alpha or {}).get(lab, Fraction(0))
                b = (spec.beta or {}).get(lab, Fraction(1))
                feasible &= (a.numerator * counts
                             <= lab_counts * a.denominator).all(axis=1)
                feasible &= (b.numerator * counts
                             >= lab_counts * b.denominator).all(axis=1)
            else:
                lo = (spec.min_per_label or {}).get(lab, 0)
                hi = (spec.max_per_label or {}).get(lab, n)
                feasible &= ((lab_counts >= lo) & (lab_counts <= hi)).all(axis=1)
    else:
        raise AssertionError(spec.kind)

    if not feasible.any():
        return None
    return float(costs[feasible].min())


def brute_outlier_opt(inst: ClusteringInstance):
    """Fully independent optimum: every outlier set, every center tuple,
    every assignment. Tiny instances only."""
    best = None
    for size in range(inst.m + 1):
        for removed in itertools.combinations(sorted(inst.X), size):
            x_prime = [x for x in inst.X if x not in set(removed)]
            ordered = inst.constraint.cluster_indexed
            tuples = (itertools.permutations(inst.F, inst.k) if ordered
                      else itertools.combinations(inst.F, inst.k))
            for centers in tuples:
                c = brute_assignment(inst, x_prime, centers)
                if c is not None and (best is None or c < best - 1e-12):
                    best = c
    return best


def build_matching_problem(inst: ClusteringInstance, anchors, Y, tau,
                           labelled: bool):
    """The full b-matching problem of one (Y, tau) pair: X minus Y against
    the anchors, read from the metric for that pair alone."""
    from outlier_reduce.bmatching import BMatchingProblem

    yset = set(Y)
    left = tuple(x for x in inst.X if x not in yset)
    weights = inst.space.powered_rows(left, anchors.centers)
    if not labelled:
        return BMatchingProblem(left=left, right=anchors.centers,
                                weights=weights, demands=tau.t)
    label_demands = tuple(dict(zip(inst.label_names, psi_j))
                          for psi_j in tau.psi)
    labels = label_of(inst)
    left_labels = tuple(labels[x] for x in left)
    return BMatchingProblem(left=left, right=anchors.centers, weights=weights,
                            demands=tau.t, left_labels=left_labels,
                            label_demands=label_demands)


def reference_reduction(inst: ClusteringInstance, config, plugin):
    """Serial reduction that rebuilds every pair from scratch.

    Returns (records, solution, chosen_Y, chosen_tau, q), with every
    ``wall_time`` 0.0, or None when no pair is feasible. Anchors, pool and
    pair order come from the same public steps as ``run_reduction``.
    """
    from outlier_reduce.baseline import solve_unconstrained
    from outlier_reduce.bmatching import (BMatchingInfeasible, prune_left,
                                          solve_bmatching)
    from outlier_reduce.instance import Solution
    from outlier_reduce.reduction import (IterationRecord,
                                          _validate_plugin_output,
                                          default_beta, effective_epsilon,
                                          enumerate_outlier_subsets,
                                          enumerate_valid_tuples)
    from outlier_reduce.sampling import (SamplePool, dz_sample,
                                         exhaustive_pool, sample_size)

    z, m = inst.space.z, inst.m
    eff_eps = effective_epsilon(config.epsilon, z, m,
                                enabled=config.z2_substitution)
    beta = config.beta if config.beta is not None else default_beta(z)
    num_anchors = min(inst.k + m, len(inst.F))
    anchors = solve_unconstrained(inst, num_anchors, config.baseline_seed)
    if config.sampling == "exhaustive":
        pool = exhaustive_pool(inst)
    else:
        count = sample_size(beta, m, eff_eps)
        pool = (dz_sample(inst, anchors, count, config.sample_seed) if count
                else SamplePool(draws=(), distinct=(), mode="random"))
    labelled = inst.constraint.uses_labels
    num_labels = len(inst.label_names) if labelled else None
    pairs = [(Y, tau) for Y in enumerate_outlier_subsets(pool, m)
             for tau in enumerate_valid_tuples(m - len(Y), num_anchors,
                                               num_labels)]
    solved: dict = {}
    records = []
    best = None
    for index, (Y, tau) in enumerate(pairs):
        try:
            matching = solve_bmatching(prune_left(
                build_matching_problem(inst, anchors, Y, tau, labelled), m))
        except BMatchingInfeasible:
            records.append(IterationRecord(index, Y, tau, None, None, False,
                                           0.0))
            continue
        removed = frozenset(Y) | matching.matched_left
        if removed in solved:
            cost = solved[removed]
        else:
            x_prime = tuple(x for x in inst.X if x not in removed)
            problem = residual_problem(inst, x_prime)
            result = plugin.solve(problem, config.baseline_seed)
            if result is not None:
                _validate_plugin_output(problem, result)
            cost = solved[removed] = None if result is None else result.cost
            if result is not None and (best is None or result.cost < best[0]):
                best = (result.cost, Solution(
                    outliers=removed,
                    clusters=problem.clusters_of(result.assign),
                    centers=tuple(inst.F[j] for j in result.cols),
                    cost=result.cost), Y, tau)
        records.append(IterationRecord(index, Y, tau, matching.total_weight,
                                       cost, cost is not None, 0.0))
    if best is None:
        return None
    return records, best[1], best[2], best[3], len(pairs)


def reference_greedy_centers(problem, rng, W_all):
    """The local-search seed: cheapest single column, then D^z draws."""
    n, nf = W_all.shape
    k = problem.inst.k
    if n == 0:
        return list(range(k))
    first = int(np.argmin(W_all.sum(axis=0)))
    chosen = [first]
    while len(chosen) < k:
        mass = W_all[:, chosen].min(axis=1)
        total = float(mass.sum())
        if total <= 0.0:
            x = int(rng.integers(0, n))
        else:
            r = rng.random() * total
            x = min(int(np.searchsorted(np.cumsum(mass), r, side="right")),
                    n - 1)
        order = np.lexsort((np.arange(nf), W_all[x, :]))
        for f in order:
            if int(f) not in chosen:
                chosen.append(int(f))
                break
    return chosen


ReferenceResult = namedtuple("ReferenceResult", "clusters centers cost")


def reference_local_search(problem, rng_seed=0):
    """Single-swap local search that solves the assignment of every swap
    of every sweep and builds its clusters; a ``ReferenceResult``."""
    from outlier_reduce.solvers import (IMPROVE_ATOL,
                                        LOCAL_SEARCH_ITERATION_FACTOR,
                                        assign_given_centers)

    inst = problem.inst
    k, nf = inst.k, len(inst.F)
    if k > nf:
        return None
    rng = np.random.default_rng(rng_seed)
    W_all = problem.weight_matrix()
    cols = reference_greedy_centers(problem, rng, W_all)

    def evaluate(cs):
        centers = tuple(inst.F[j] for j in cs)
        return centers, assign_given_centers(problem, centers)

    centers, res = evaluate(cols)
    if res is None:
        ordered = inst.constraint.cluster_indexed
        it = (itertools.permutations(range(nf), k) if ordered
              else itertools.combinations(range(nf), k))
        for cand in it:
            cols = list(cand)
            centers, res = evaluate(cols)
            if res is not None:
                break
        if res is None:
            return None
    clusters, cost = res

    for _ in range(LOCAL_SEARCH_ITERATION_FACTOR * k):
        best = None
        for i in range(k):
            for f in range(nf):
                if f in cols:
                    continue
                trial = cols.copy()
                trial[i] = f
                t_centers, t_res = evaluate(trial)
                if t_res is None:
                    continue
                t_clusters, t_cost = t_res
                if t_cost < cost - IMPROVE_ATOL and (
                        best is None or t_cost < best[3] - IMPROVE_ATOL):
                    best = (trial, t_centers, t_clusters, t_cost)
        if best is None:
            break
        cols, centers, clusters, cost = best
    return ReferenceResult(clusters=clusters, centers=centers, cost=cost)


def reference_solve_unconstrained(inst: ClusteringInstance, num_centers: int,
                                  rng_seed: int):
    """Anchor solver that costs every swap with its own slice, min and
    sum."""
    from outlier_reduce.baseline import (SEED_SAMPLE_CAP,
                                         SWAP_ITERATION_FACTOR, AnchorSet)

    def cost_of(fpos):
        return float(pow_xf[:, fpos].min(axis=1).sum())

    rng = np.random.default_rng(rng_seed)
    pow_xf = inst.pow_xf
    n, nf = pow_xf.shape
    sample = (np.arange(n) if n <= SEED_SAMPLE_CAP
              else rng.choice(n, size=SEED_SAMPLE_CAP, replace=False))
    chosen = [int(np.argmin(pow_xf[sample, :].sum(axis=0)))]
    while len(chosen) < num_centers:
        mass = pow_xf[:, chosen].min(axis=1)
        total = float(mass.sum())
        if total <= 0.0:
            x = int(rng.integers(0, n))
        else:
            r = rng.random() * total
            x = min(int(np.searchsorted(np.cumsum(mass), r, side="right")),
                    n - 1)
        order = np.lexsort((np.arange(nf), pow_xf[x, :]))
        for f in order:
            if int(f) not in chosen:
                chosen.append(int(f))
                break

    cost = cost_of(chosen)
    threshold = 1.0 - 1.0 / (10.0 * num_centers)
    for _ in range(SWAP_ITERATION_FACTOR * num_centers):
        best_swap = None
        best_cost = cost
        for i in range(num_centers):
            for f in range(nf):
                if f in chosen:
                    continue
                trial = chosen.copy()
                trial[i] = f
                c = cost_of(trial)
                if c < best_cost:
                    best_cost = c
                    best_swap = trial
        if best_swap is None or best_cost >= threshold * cost:
            break
        chosen = best_swap
        cost = best_cost
    return AnchorSet(centers=tuple(inst.F[j] for j in sorted(chosen)),
                     anchor_cost=cost)

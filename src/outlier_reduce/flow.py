"""Exact min-cost flow by successive shortest paths with potentials.

Its one caller is ``solvers._label_window_flow`` (fractional fairness
windows), through ``solve_transportation``. Small dense graphs only; float
arc costs must be nonnegative. Reduced costs are compared with a 1e-12
tolerance, and Dijkstra's heap orders ties by node id, so a given network
always solves to the same flow. Arc lower bounds are handled by the usual
imbalance transformation.
"""

from __future__ import annotations

import heapq

__all__ = ["FlowNetwork", "FlowInfeasible", "solve_transportation"]

RC_TOL = 1e-12


class FlowInfeasible(Exception):
    """Raised when the requested flow value cannot be routed."""


class FlowNetwork:
    def __init__(self, num_nodes: int):
        self.n = num_nodes
        self.head: list[list[int]] = [[] for _ in range(num_nodes)]
        self.to: list[int] = []
        self.cap: list[int] = []
        self.cost: list[float] = []

    def add_arc(self, u: int, v: int, cap: int, cost: float) -> int:
        """Add arc u->v; returns its id. A reverse residual arc is paired."""
        if cost < -RC_TOL:
            raise ValueError("arc costs must be nonnegative")
        a = len(self.to)
        self.head[u].append(a)
        self.to.append(v)
        self.cap.append(cap)
        self.cost.append(max(cost, 0.0))
        self.head[v].append(a + 1)
        self.to.append(u)
        self.cap.append(0)
        self.cost.append(-max(cost, 0.0))
        return a

    def flow_on(self, arc: int) -> int:
        """Units routed through a forward arc (residual cap of its twin)."""
        return self.cap[arc ^ 1]

    def solve(self, source: int, sink: int, amount: int) -> float:
        """Push exactly ``amount`` units source->sink at minimum cost.

        Returns the total cost. Raises FlowInfeasible when less than
        ``amount`` can be routed.
        """
        pot = [0.0] * self.n  # valid initially: all costs nonnegative
        pushed = 0
        total = 0.0
        inf = float("inf")
        while pushed < amount:
            dist = [inf] * self.n
            prev_arc = [-1] * self.n
            dist[source] = 0.0
            heap = [(0.0, source)]
            while heap:
                d, u = heapq.heappop(heap)
                if d > dist[u] + RC_TOL:
                    continue
                for a in self.head[u]:
                    if self.cap[a] <= 0:
                        continue
                    v = self.to[a]
                    rc = self.cost[a] + pot[u] - pot[v]
                    if rc < 0.0:
                        # float drift only; true negatives cannot occur here
                        rc = 0.0
                    nd = d + rc
                    if nd < dist[v] - RC_TOL:
                        dist[v] = nd
                        prev_arc[v] = a
                        heapq.heappush(heap, (nd, v))
            if dist[sink] == inf:
                raise FlowInfeasible(
                    f"routed {pushed} of {amount} requested units")
            for v in range(self.n):
                if dist[v] < inf:
                    pot[v] += dist[v]
            # bottleneck along the shortest path
            push = amount - pushed
            v = sink
            while v != source:
                a = prev_arc[v]
                push = min(push, self.cap[a])
                v = self.to[a ^ 1]
            v = sink
            while v != source:
                a = prev_arc[v]
                self.cap[a] -= push
                self.cap[a ^ 1] += push
                total += push * self.cost[a]
                v = self.to[a ^ 1]
            pushed += push
        return total


def solve_transportation(num_nodes: int, arcs, source: int, sink: int,
                         amount: int):
    """Convenience wrapper: arcs are (u, v, lower, upper, cost) tuples.

    Lower bounds are folded into node imbalances, then a single min-cost
    flow run routes the residual demand. Returns (total_cost, flows) where
    flows[i] is the units on the i-th input arc.
    """
    imbalance = [0] * num_nodes
    net = FlowNetwork(num_nodes + 2)
    ss, tt = num_nodes, num_nodes + 1
    arc_ids = []
    base_cost = 0.0
    for (u, v, lower, upper, cost) in arcs:
        if lower > upper:
            raise FlowInfeasible(f"arc ({u},{v}) has lower {lower} > upper {upper}")
        arc_ids.append(net.add_arc(u, v, upper - lower, cost))
        imbalance[v] += lower
        imbalance[u] -= lower
        base_cost += lower * cost
    # the required source->sink throughput acts as a sink->source arc with
    # lower = upper = amount, which the transformation turns into imbalances
    imbalance[source] += amount
    imbalance[sink] -= amount
    required = 0
    for v in range(num_nodes):
        if imbalance[v] > 0:
            net.add_arc(ss, v, imbalance[v], 0.0)
            required += imbalance[v]
        elif imbalance[v] < 0:
            net.add_arc(v, tt, -imbalance[v], 0.0)
    residual_cost = net.solve(ss, tt, required)
    flows = [net.flow_on(a) + lower
             for a, (_, _, lower, _, _) in zip(arc_ids, arcs)]
    return base_cost + residual_cost, flows

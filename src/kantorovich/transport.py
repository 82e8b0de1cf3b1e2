"""Exact Wasserstein-1 distance with primal and dual optimality certificates.

The solver is a network simplex on the bipartite transportation graph
between the two supports, with Bland's rule for anti-cycling. Costs are read
from the space's integer distance matrix and masses are scaled to integers
over one common denominator, so pricing and pivots run on Python ints, and
the spanning tree of basic cells with its node potentials is kept from one
pivot to the next. Zero-weight points are not nodes: the coupling is zero on
their rows and columns, and the witness reaches them through its Lipschitz
extension. Results become rationals again at the boundary, where the
coupling, the shortness of the witness and the equality of primal and dual
costs are checked in ``Fraction`` arithmetic on every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from operator import sub

from .measure import Measure, integrate
from .metric import ShortFunctional, _as_fraction, zero_functional


@dataclass(frozen=True)
class TransportPlan:
    """A coupling certifying a transport cost between two measures.

    Rows are indexed by source points and columns by target points of the
    common space. Row sums must equal the source weights exactly, column sums
    the target weights, and ``cost`` the coupling-weighted sum of distances.
    """

    source: Measure
    target: Measure
    coupling: tuple
    cost: Fraction

    def __post_init__(self):
        coupling = tuple(tuple(map(_as_fraction, row)) for row in self.coupling)
        object.__setattr__(self, "coupling", coupling)
        object.__setattr__(self, "cost", _as_fraction(self.cost))
        if self.source.space != self.target.space:
            raise ValueError("coupling endpoints live on different spaces")
        n = len(self.source.space)
        if len(coupling) != n or any(len(row) != n for row in coupling):
            raise ValueError(f"coupling must be {n}x{n}")
        # zero cells add nothing to a sum, so every check reads the others only
        cells = [(i, j, x) for i, row in enumerate(coupling) for j, x in enumerate(row) if x]
        if any(x < 0 for _, _, x in cells):
            raise ValueError("coupling entries must be nonnegative")
        rows, cols = [0] * n, [0] * n
        for i, j, x in cells:
            rows[i] += x
            cols[j] += x
        for i, total in enumerate(rows):
            if total != self.source.weights[i]:
                raise ValueError(
                    f"row {i} sums to {total}, expected {self.source.weights[i]}"
                )
        for j, total in enumerate(cols):
            if total != self.target.weights[j]:
                raise ValueError(
                    f"column {j} sums to {total}, expected {self.target.weights[j]}"
                )
        dist = self.source.space.dist
        total = sum((x * dist[i][j] for i, j, x in cells), start=Fraction(0))
        if total != self.cost:
            raise ValueError(f"stated cost {self.cost} differs from actual {total}")


@dataclass(frozen=True)
class DualWitness:
    """A short functional certifying optimality of a transport plan.

    For the plan between p and q it satisfies
    integrate(potential, p) - integrate(potential, q) == plan cost,
    which together with shortness proves the plan cost cannot be beaten.
    """

    potential: ShortFunctional


def _solve_transportation(costs, supplies, demands):
    """Exact network simplex on integers; returns (basic flows, u) at optimality.

    ``costs`` is an m x k matrix of ints, and ``supplies`` and ``demands`` are
    positive ints with equal totals. The spanning tree of basic cells starts
    as the northwest-corner staircase, rooted at row 0, and is kept across
    pivots as parent, depth and child arrays over the m + k nodes (rows, then
    columns). ``flow[x]`` is the flow on the cell joining node x to its parent,
    and ``u[i] + v[j] == costs[i][j]`` holds on every basic cell with u[0] = 0.
    Entering cell: the first with a negative reduced cost in row-major order
    (Bland's rule). Leaving cell: the smallest among the minus cells of the
    pivot cycle whose flow is minimal.
    """
    m, k = len(supplies), len(demands)
    parent = [-1] * (m + k)
    depth = [0] * (m + k)
    flow = [0] * (m + k)
    children = [[] for _ in range(m + k)]
    u = [0] * m
    v = [0] * k

    def cell(x):
        return (x, parent[x] - m) if x < m else (parent[x], x - m)

    # northwest corner: each staircase cell brings in one new row or column
    a, b = list(supplies), list(demands)
    i = j = 0
    node, other = m, 0
    while True:
        t = a[i] if a[i] < b[j] else b[j]
        a[i] -= t
        b[j] -= t
        parent[node], flow[node], depth[node] = other, t, depth[other] + 1
        children[other].append(node)
        if node < m:
            u[i] = costs[i][j] - v[j]
        else:
            v[j] = costs[i][j] - u[i]
        if i == m - 1 and j == k - 1:
            break
        if a[i] == 0 and i < m - 1:
            i += 1
            node, other = i, m + j
        else:
            j += 1
            node, other = m + j, i

    while True:
        # basic cells price to exactly 0, so only nonbasic ones can go negative
        for i in range(m):
            ui, row = u[i], costs[i]
            if min(map(sub, row, v)) < ui:
                j = next(j for j in range(k) if row[j] - v[j] < ui)
                break
        else:
            return {cell(x): flow[x] for x in range(m + k) if parent[x] >= 0}, u
        rc = costs[i][j] - u[i] - v[j]

        # the cycle is the entering cell plus the tree paths up to the apex;
        # a tree cell is a minus cell when the cycle, oriented along the
        # entering cell from row i to column j, runs through it from its
        # column end to its row end
        x, y = i, m + j
        row_side, col_side = [], []
        while x != y:
            if depth[x] >= depth[y]:
                row_side.append(x)
                x = parent[x]
            else:
                col_side.append(y)
                y = parent[y]
        minus = [x for x in row_side if x < m] + [y for y in col_side if y >= m]
        theta = min(flow[x] for x in minus)
        out = min((x for x in minus if flow[x] == theta), key=cell)
        if theta:
            for x in row_side:
                flow[x] += -theta if x < m else theta
            for y in col_side:
                flow[y] += -theta if y >= m else theta

        # re-hang the subtree cut off below the leaving cell from the end of
        # the entering cell inside it, reversing the path between the two
        if out in row_side:
            root, hook, shift = i, m + j, rc
        else:
            root, hook, shift = m + j, i, -rc
        x, above, f = root, hook, theta
        while True:
            old_parent, old_flow = parent[x], flow[x]
            children[old_parent].remove(x)
            parent[x], flow[x] = above, f
            children[above].append(x)
            if x == out:
                break
            x, above, f = old_parent, x, old_flow

        # keep u + v == cost on the subtree's cells and make the entering one tight
        stack = [root]
        while stack:
            x = stack.pop()
            depth[x] = depth[parent[x]] + 1
            if x < m:
                u[x] += shift
            else:
                v[x - m] -= shift
            stack.extend(children[x])


def wasserstein(p: Measure, q: Measure):
    """Exact Wasserstein-1 distance with primal and dual certificates.

    Returns ``(value, plan, witness)`` where the plan is an optimal coupling
    and the witness a short functional with
    integrate(witness, p) - integrate(witness, q) == value, checked exactly.
    The witness comes from the optimal node potentials on the support of p,
    extended to the whole space by the Lipschitz lower envelope
    x -> max over support s of (u(s) - d(x, s)), then normalized so the
    first point of the space takes value 0.
    """
    if p.space != q.space:
        raise ValueError("measures live on different spaces")
    space = p.space
    n = len(space)
    if p == q:
        coupling = tuple(
            tuple(p.weights[i] if i == j else Fraction(0) for j in range(n))
            for i in range(n)
        )
        plan = TransportPlan(p, q, coupling, Fraction(0))
        return Fraction(0), plan, DualWitness(zero_functional(space))

    rows = [i for i, x in enumerate(p.weights) if x]
    cols = [j for j, x in enumerate(q.weights) if x]
    # the space's integer distances from supp p hold the costs and, by
    # symmetry, every distance the witness envelope needs
    scaled = [space._ints[i] for i in rows]
    d = space._scale
    masses = [p.weights[i] for i in rows] + [q.weights[j] for j in cols]
    w = lcm(*(x.denominator for x in masses))
    units = [x.numerator * (w // x.denominator) for x in masses]
    costs = [[row[j] for j in cols] for row in scaled]
    flows, u = _solve_transportation(costs, units[: len(rows)], units[len(rows) :])

    grid = [[Fraction(0)] * n for _ in range(n)]
    total = 0
    for (a, b), f in flows.items():
        grid[rows[a]][cols[b]] = Fraction(f, w)
        total += f * costs[a][b]
    cost = Fraction(total, w * d)
    plan = TransportPlan(p, q, tuple(tuple(row) for row in grid), cost)

    values = [max(map(sub, u, column)) for column in zip(*scaled)]
    base = values[0]
    potential = ShortFunctional(space, tuple(Fraction(x - base, d) for x in values))
    witness = DualWitness(potential)
    attained = integrate(potential, p) - integrate(potential, q)
    if attained != cost:
        raise RuntimeError(
            f"dual witness attains {attained}, primal cost is {cost}"
        )
    return cost, plan, witness


def wasserstein_distance(p: Measure, q: Measure) -> Fraction:
    """The Wasserstein-1 value alone."""
    return wasserstein(p, q)[0]


def wasserstein_oracle(p: Measure, q: Measure) -> Fraction:
    """Brute-force Wasserstein-1 for small instances.

    Enumerates every basic feasible solution of the transportation polytope,
    one per spanning tree of the bipartite support graph, and returns the
    minimum cost. Completely independent of the simplex pivoting path.
    """
    if p.space != q.space:
        raise ValueError("measures live on different spaces")
    src = [(i, w) for i, w in enumerate(p.weights) if w > 0]
    tgt = [(j, w) for j, w in enumerate(q.weights) if w > 0]
    m, n = len(src), len(tgt)
    if m + n > 8:
        raise ValueError("oracle handles combined support size at most 8")
    dist = p.space.dist
    edges = [(a, b) for a in range(m) for b in range(n)]
    nodes = m + n
    best = None
    for tree in combinations(edges, nodes - 1):
        parent = list(range(nodes))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        acyclic = True
        for a, b in tree:
            ra, rb = find(a), find(m + b)
            if ra == rb:
                acyclic = False
                break
            parent[ra] = rb
        if not acyclic:
            continue

        balance = [w for _, w in src] + [-w for _, w in tgt]
        incident = {k: [] for k in range(nodes)}
        for e, (a, b) in enumerate(tree):
            incident[a].append(e)
            incident[m + b].append(e)
        alive = [True] * len(tree)
        degree = [len(incident[k]) for k in range(nodes)]
        leaves = [k for k in range(nodes) if degree[k] == 1]
        cost = Fraction(0)
        feasible = True
        for _ in range(nodes - 1):
            leaf = leaves.pop()
            e = next(idx for idx in incident[leaf] if alive[idx])
            a, b = tree[e]
            flow = balance[a] if leaf == a else -balance[m + b]
            if flow < 0:
                feasible = False
                break
            alive[e] = False
            other = m + b if leaf == a else a
            if leaf == a:
                balance[m + b] += flow
            else:
                balance[a] -= flow
            degree[leaf] -= 1
            degree[other] -= 1
            if degree[other] == 1:
                leaves.append(other)
            cost += flow * dist[src[a][0]][tgt[b][0]]
        if feasible and (best is None or cost < best):
            best = cost
    return best

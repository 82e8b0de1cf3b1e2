"""Exact Wasserstein-1 distance with primal and dual optimality certificates.

The solver is a network simplex on the bipartite transportation graph
between the two supports, with Bland's rule for anti-cycling. Costs are read
from the space's integer distance matrix and masses from the two measures'
integer weights over one common denominator, so pricing and pivots run on
Python ints, and the spanning tree of basic cells with its node potentials
is kept from one pivot to the next. Zero-weight points are not nodes: the
coupling is zero on their rows and columns, and the witness reaches them
through its Lipschitz extension. Results become rationals again at the
boundary, and all three certificates are checked exactly on every call: the
coupling's marginals and cost in ``Fraction`` arithmetic, the shortness of
the witness by the construction of its ``ShortFunctional`` (on ints, over
every pair), and the equality of primal and dual costs on the exact
integrals.

The brute-force oracle shares no code with the solver: it enumerates the
spanning trees of the support graph depth first and scales masses and
distances by its own common denominators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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

    rows = [i for i, x in enumerate(p._units) if x]
    cols = [j for j, x in enumerate(q._units) if x]
    # the space's integer distances from supp p hold the costs and, by
    # symmetry, every distance the witness envelope needs
    scaled = [space._ints[i] for i in rows]
    d = space._scale
    w = lcm(p._denom, q._denom)
    sp, sq = w // p._denom, w // q._denom
    costs = [[row[j] for j in cols] for row in scaled]
    flows, u = _solve_transportation(
        costs, [p._units[i] * sp for i in rows], [q._units[j] * sq for j in cols]
    )

    grid = [[Fraction(0)] * n for _ in range(n)]
    total = 0
    for (a, b), f in flows.items():
        grid[rows[a]][cols[b]] = Fraction(f, w)
        total += f * costs[a][b]
    cost = Fraction(total, w * d)
    plan = TransportPlan(p, q, tuple(tuple(row) for row in grid), cost)

    values = [max(map(sub, u, column)) for column in zip(*scaled)]
    base = values[0]
    potential = ShortFunctional._from_units(space, [x - base for x in values], d)
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
    minimum cost. Trees are grown depth first over the cells in row-major
    order, and a cell that would close a cycle is dropped as soon as it is
    reached, by its two ends' component labels. Each tree's flows come from
    peeling its leaves, on masses and distances scaled to integers by the
    oracle's own common denominators. Completely independent of the simplex
    pivoting path: it shares no code with the solver.
    """
    if p.space != q.space:
        raise ValueError("measures live on different spaces")
    src = [(i, w) for i, w in enumerate(p.weights) if w > 0]
    tgt = [(j, w) for j, w in enumerate(q.weights) if w > 0]
    m, n = len(src), len(tgt)
    if m + n > 8:
        raise ValueError("oracle handles combined support size at most 8")
    dist = [[p.space.dist[i][j] for j, _ in tgt] for i, _ in src]
    mass_scale = lcm(*(w.denominator for _, w in src + tgt))
    dist_scale = lcm(*(x.denominator for row in dist for x in row))
    balance = [w.numerator * (mass_scale // w.denominator) for _, w in src]
    balance += [-w.numerator * (mass_scale // w.denominator) for _, w in tgt]
    cost = [[x.numerator * (dist_scale // x.denominator) for x in row] for row in dist]
    cells = [(a, m + b) for a in range(m) for b in range(n)]
    nodes = m + n
    # node x's tree degree and the XOR of its tree neighbours, so a leaf's
    # one neighbour is read off directly
    degree, others = [0] * nodes, [0] * nodes
    best = None

    def tree_cost():
        deg, nbr, bal = degree[:], others[:], balance[:]
        leaves = [x for x in range(nodes) if deg[x] == 1]
        total = 0
        for _ in range(nodes - 1):
            x = leaves.pop()
            y = nbr[x]
            # a leaf source ships all it has left, a leaf target takes all it lacks
            flow, a, b = (bal[x], x, y) if x < m else (-bal[x], y, x)
            if flow < 0:
                return None
            total += flow * cost[a][b - m]
            bal[y] += bal[x]
            nbr[y] ^= x
            deg[y] -= 1
            if deg[y] == 1:
                leaves.append(y)
        return total

    def grow(start, size, label):
        nonlocal best
        if size == nodes - 1:
            total = tree_cost()
            if total is not None and (best is None or total < best):
                best = total
            return
        for c in range(start, len(cells) - (nodes - 2 - size)):
            a, b = cells[c]
            la, lb = label[a], label[b]
            if la == lb:
                continue
            degree[a] += 1
            degree[b] += 1
            others[a] ^= b
            others[b] ^= a
            grow(c + 1, size + 1, [la if x == lb else x for x in label])
            degree[a] -= 1
            degree[b] -= 1
            others[a] ^= b
            others[b] ^= a

    grow(0, 0, list(range(nodes)))
    return Fraction(best, mass_scale * dist_scale)

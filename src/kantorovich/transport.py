"""Exact Wasserstein-1 distance with primal and dual optimality certificates.

The solver is a network simplex on the bipartite transportation graph
between the two supports, m rows by k columns. Costs are read from the
space's integer distance matrix and masses from the two measures' integer
weights over one common denominator, so pricing and pivots run on Python
ints, and the spanning tree of basic cells with its node potentials is kept
from one pivot to the next.

Pricing scans one row at a time, a block search (Király & Kovács 2012)
whose blocks are single rows: rows go in cyclic order from the one after
the last entering row, and the first row with a negative reduced cost
brings in its most negative cell.

Cycling is ruled out by perturbation (Orden 1956; Ahuja, Magnanti & Orlin
1993, ch. 11). With M = 2m + 1, every mass is scaled by M, 1 is added to
each supply and m to the last demand. Cutting a tree cell splits the tree
in two, and the cell carries the net supply of the side that lacks the last
column: M·x + r or M·x - r, where x is the true flow on the same tree and
0 <= r <= m counts that side's rows. If r = 0 that side is one column, and
the cell carries all of its demand, so no basic flow is ever 0. Every pivot
then moves a positive amount and lowers the cost, no basis comes back, the
leaving cell is unique, and the true flows are (x' + m) // M.

The certificates do not depend on the pivot path. The short functionals
that attain the distance are exactly those tight on the support of any one
optimal coupling (complementary slackness), a set closed under pointwise
max. The witness is its greatest element with value 0 at the first point:
the shortest-path distances from that point under f(y) <= f(x) + d(x, y)
for every pair and f(j) <= f(i) - d(i, j) on the solver's coupling, found
by Dijkstra on ints after reweighting by a feasible dual (Johnson). The
coupling is a fixed feasible flow on the cells tight for that witness,
whose only inputs are those cells and the masses. Zero-weight points are
not nodes: the coupling is zero on their rows and columns, and the witness
covers them through the shortness constraints.

Results become rationals again at the boundary, and all three certificates
are checked exactly on every call: the coupling's marginals and cost by
``TransportPlan`` (on its nonzero cells as ints), the shortness of the
witness by the construction of its ``ShortFunctional`` (on ints, over every
pair), and the equality of primal and dual costs on the exact integrals.

The brute-force oracle shares no code with the solver: it enumerates the
spanning trees of the support graph depth first and scales masses and
distances by its own common denominators.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from itertools import chain, repeat
from math import lcm
from operator import add, sub

from .measure import Measure, integrate
from .metric import (
    ShortFunctional,
    _as_fraction,
    _Exact,
    _flat,
    _OnFirstRead,
    _over,
    _reduced,
    _to_units,
    zero_functional,
)


def _dense(plan) -> tuple:
    """The plan's coupling matrix, zero off its nonzero cells."""
    n = len(plan.source.space)
    grid = [[0] * n for _ in range(n)]
    for i, j, x in plan._cells:
        grid[i][j] = x
    return _over(grid, plan._scale)


class TransportPlan(_Exact):
    """A coupling certifying a transport cost between two measures.

    Rows are indexed by source points and columns by target points of the
    common space. Row sums must equal the source weights exactly, column sums
    the target weights, and ``cost`` the coupling-weighted sum of distances.

    The checks run on ``_cells``, the nonzero cells ``(i, j, x)`` with the
    entry ``x / _scale`` an int over one denominator, against the measures'
    ``_units`` and the space's ``_ints``. The public constructor takes the
    cells from the dense ``coupling``; :func:`wasserstein` passes
    ``(cells, scale)`` as the private ``_kernel`` instead, with ``coupling``
    None. Either way the cells are sorted row-major and reduced by their
    gcd with the scale, so equal couplings have equal cells, and equality
    and hashing read them (the checked cost follows from them). The check
    stays independent of the solver: it reads only the plan's cells and
    cost, the two measures and the space, never the solver's flows, so a
    coupling that a solver got wrong is rejected however it was built.
    """

    _fields = ("source", "target", "coupling", "cost")
    coupling = _OnFirstRead(_dense)

    def __init__(self, source, target, coupling, cost, _kernel=None):
        cost = _as_fraction(cost)
        space = source.space
        if space != target.space:
            raise ValueError("coupling endpoints live on different spaces")
        n = len(space)
        if _kernel is None:
            units, scale = _to_units(_flat(coupling, n, "coupling"))
            # zero cells add nothing to a sum, so every check reads the others only
            _kernel = [(k // n, k % n, x) for k, x in enumerate(units) if x], scale
        cells, scale = _kernel
        # row-major cells over their least denominator: one form per coupling
        cells = sorted(cells)
        units, scale = _reduced([x for _, _, x in cells], scale)
        cells = tuple((i, j, x) for (i, j, _), x in zip(cells, units))
        vars(self).update(source=source, target=target, cost=cost, _cells=cells, _scale=scale)
        if any(x < 0 for _, _, x in cells):
            raise ValueError("coupling entries must be nonnegative")
        rows, cols = [0] * n, [0] * n
        for i, j, x in cells:
            rows[i] += x
            cols[j] += x
        common = lcm(scale, source._denom, target._denom)
        share = common // scale
        for sums, measure, name in ((rows, source, "row"), (cols, target, "column")):
            expected = common // measure._denom
            for i, total in enumerate(sums):
                if total * share != measure._units[i] * expected:
                    raise ValueError(
                        f"{name} {i} sums to {Fraction(total, scale)}, "
                        f"expected {Fraction(measure._units[i], measure._denom)}"
                    )
        ints = space._ints
        total = sum(x * ints[i][j] for i, j, x in cells)
        if total * cost.denominator != cost.numerator * scale * space._scale:
            raise ValueError(
                f"stated cost {cost} differs from actual "
                f"{Fraction(total, scale * space._scale)}"
            )

    def _key(self):
        return self._scale, self._cells, self.source, self.target


class DualWitness(_Exact):
    """A short functional certifying optimality of a transport plan.

    For the plan between p and q it satisfies
    integrate(potential, p) - integrate(potential, q) == plan cost,
    which together with shortness proves the plan cost cannot be beaten.
    """

    _fields = ("potential",)

    def __init__(self, potential):
        vars(self).update(potential=potential)


def _solve_transportation(costs, supplies, demands):
    """Exact network simplex on integers; returns (flows, u, pivots) at optimality.

    ``costs`` is an m x k matrix of ints, and ``supplies`` and ``demands`` are
    positive ints with equal totals. The masses are perturbed as the module
    docstring says, so no basis is degenerate. The spanning tree of basic
    cells starts as the northwest-corner staircase, rooted at row 0, and is
    kept across pivots as parent, depth and child arrays over the m + k nodes
    (rows, then columns). ``flow[x]`` is the perturbed flow on the cell
    joining node x to its parent, and ``u[i] + v[j] == costs[i][j]`` holds on
    every basic cell with u[0] = 0. Entering cell: the most negative reduced
    cost in the first row that has a negative one, the rows scanned
    cyclically from the one after the last entering row. Leaving cell: the
    one minus cell of the pivot cycle whose flow is minimal. ``flows`` maps
    each basic cell to its true flow, and ``pivots`` counts the pivots.
    """
    m, k = len(supplies), len(demands)
    big = 2 * m + 1
    parent = [-1] * (m + k)
    depth = [0] * (m + k)
    flow = [0] * (m + k)
    children = [[] for _ in range(m + k)]
    u = [0] * m
    v = [0] * k

    def cell(x):
        return (x, parent[x] - m) if x < m else (parent[x], x - m)

    # northwest corner: each staircase cell brings in one new row or column;
    # on perturbed masses a row and a column run out together only at the end
    a = [x * big + 1 for x in supplies]
    b = [x * big for x in demands]
    b[-1] += m
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
        if a[i] == 0:
            i += 1
            node, other = i, m + j
        else:
            j += 1
            node, other = m + j, i

    start = pivots = 0
    while True:
        # basic cells price to exactly 0, so only nonbasic ones can go negative
        for i in chain(range(start, m), range(start)):
            rc = min(map(sub, costs[i], v)) - u[i]
            if rc < 0:
                break
        else:
            flows = {cell(x): (flow[x] + m) // big for x in range(m + k) if parent[x] >= 0}
            return flows, u, pivots
        start = i + 1
        priced = list(map(sub, costs[i], v))
        j = priced.index(rc + u[i])
        pivots += 1

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
        out = min(
            [x for x in row_side if x < m] + [y for y in col_side if y >= m],
            key=flow.__getitem__,
        )
        theta = flow[out]
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


def _problem(p: Measure, q: Measure):
    """``(rows, cols, w, costs, supplies, demands)`` of the solve between p and q.

    ``rows`` and ``cols`` are the supports of p and q; ``costs`` the space's
    integer distances between them; the masses are the weights scaled to
    ints by ``w``, the lcm of the two measures' denominators.
    """
    rows = [i for i, x in enumerate(p._units) if x]
    cols = [j for j, x in enumerate(q._units) if x]
    ints = p.space._ints
    w = lcm(p._denom, q._denom)
    sp, sq = w // p._denom, w // q._denom
    costs = [[ints[i][j] for j in cols] for i in rows]
    return (
        rows,
        cols,
        w,
        costs,
        [p._units[i] * sp for i in rows],
        [q._units[j] * sq for j in cols],
    )


def _greatest_witness(space, rows, cols, flows, u):
    """The greatest optimal short functional that is 0 at the first point, on ints.

    ``flows`` is an optimal coupling on the supports and ``u`` optimal row
    potentials, both on the scale of ``space._ints``. The answer is the
    shortest-path distance from point 0 under the edges x -> y of weight
    d(x, y) and i -> j of weight -d(i, j) on the coupling's support. The
    Lipschitz envelope g(x) = max over s of (u(s) - d(x, s)) is short and
    tight on that support, so every weight d(x, y) + g(x) - g(y) is >= 0,
    and Dijkstra settles the points in order of distance minus g.
    """
    ints = space._ints
    g = [max(map(sub, u, column)) for column in zip(*(ints[i] for i in rows))]
    ships_to = {}
    for (a, b), f in flows.items():
        if f:
            ships_to.setdefault(rows[a], []).append(cols[b])
    dist = list(ints[0])
    left = list(range(1, len(ints)))
    x = 0
    while True:
        dx, row = dist[x], ints[x]
        for j in ships_to.get(x, ()):
            if dx - row[j] < dist[j]:
                dist[j] = dx - row[j]
        if not left:
            return dist
        x = min(left, key=list(map(sub, dist, g)).__getitem__)
        left.remove(x)
        dist = list(map(min, dist, map(add, ints[x], repeat(dist[x]))))


def _tight_coupling(tight, supplies, demands):
    """A feasible flow on the ``tight`` cells, fixed by those cells and the masses.

    ``tight[a]`` lists in index order the columns b whose cell (a, b) may
    carry flow. The cells are filled greedily in row-major order. Then,
    while some row has mass left, the first such row sends it along an
    augmenting path found by breadth-first search, forward along tight cells
    and back along used ones, scanning rows and columns in index order.
    Returns the flows by column: ``used[b][a]`` is the flow on cell (a, b).
    """
    supply, demand = list(supplies), list(demands)
    used = [{} for _ in demands]
    for a, cells in enumerate(tight):
        for b in cells:
            t = min(supply[a], demand[b])
            if t:
                used[b][a] = t
                supply[a] -= t
                demand[b] -= t
    for start in range(len(supplies)):
        while supply[start]:
            via_row, via_col = {start: None}, {}
            queue, end = deque([start]), None
            while queue and end is None:
                a = queue.popleft()
                for b in tight[a]:
                    if b in via_col:
                        continue
                    via_col[b] = a
                    if demand[b]:
                        end = b
                        break
                    for r in sorted(used[b]):
                        if r not in via_row:
                            via_row[r] = b
                            queue.append(r)
            if end is None:
                raise RuntimeError("the tight cells carry no feasible coupling")
            t, b = min(supply[start], demand[end]), end
            while (a := via_col[b]) != start:
                b = via_row[a]
                t = min(t, used[b][a])
            b = end
            while True:
                a = via_col[b]
                used[b][a] = used[b].get(a, 0) + t
                if a == start:
                    break
                b = via_row[a]
                used[b][a] -= t
                if not used[b][a]:
                    del used[b][a]
            supply[start] -= t
            demand[end] -= t
    return used


def _certified(p: Measure, q: Measure, problem, flows, u):
    """``(value, plan, witness)`` from any optimal solve of ``problem``.

    ``flows`` and ``u`` are an optimal coupling and optimal row potentials of
    the problem that :func:`_problem` builds for p and q. Only the witness
    computation reads them, and it returns the greatest optimal short
    functional that is 0 at the first point, which they do not change; the
    coupling is :func:`_tight_coupling` on the cells tight for that witness.
    So the result depends on p and q alone. All three certificates are
    checked here.
    """
    rows, cols, w, costs, supplies, demands = problem
    space = p.space
    d = space._scale
    witness = _greatest_witness(space, rows, cols, flows, u)
    at_cols = [witness[j] for j in cols]
    tight = [
        [b for b, (c, y) in enumerate(zip(row, at_cols)) if witness[i] - y == c]
        for i, row in zip(rows, costs)
    ]
    cells = []
    total = 0
    for b, column in enumerate(_tight_coupling(tight, supplies, demands)):
        for a, f in column.items():
            cells.append((rows[a], cols[b], f))
            total += f * costs[a][b]
    cost = Fraction(total, w * d)
    plan = TransportPlan(p, q, None, cost, (tuple(cells), w))
    potential = ShortFunctional._from_units(space, witness, d)
    attained = integrate(potential, p) - integrate(potential, q)
    if attained != cost:
        raise RuntimeError(
            f"dual witness attains {attained}, primal cost is {cost}"
        )
    return cost, plan, DualWitness(potential)


def wasserstein(p: Measure, q: Measure):
    """Exact Wasserstein-1 distance with primal and dual certificates.

    Returns ``(value, plan, witness)`` where the plan is an optimal coupling
    and the witness a short functional with
    integrate(witness, p) - integrate(witness, q) == value, checked exactly.
    Both are canonical, whatever path the simplex took: the witness is the
    greatest short functional attaining the value with 0 at the first point
    of the space, and the plan a fixed feasible flow on the cells (i, j) with
    witness(i) - witness(j) == d(i, j), filled greedily in row-major order
    and completed by breadth-first augmenting paths. Equal measures give the
    diagonal coupling and the zero functional.
    """
    if p.space != q.space:
        raise ValueError("measures live on different spaces")
    if p == q:
        cells = tuple((i, i, x) for i, x in enumerate(p._units) if x)
        plan = TransportPlan(p, q, None, Fraction(0), (cells, p._denom))
        return Fraction(0), plan, DualWitness(zero_functional(p.space))
    problem = _problem(p, q)
    flows, u, _ = _solve_transportation(*problem[3:])
    return _certified(p, q, problem, flows, u)


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

"""The Bland's-rule network simplex, kept as a reference.

This is the package's earlier ``_solve_transportation``, unchanged: the
entering cell is the first with a negative reduced cost in row-major order,
and the leaving cell the smallest minus cell of least flow, so degenerate
pivots cannot cycle. ``test_canonical.py`` feeds its flows and potentials
through the package's canonical certificate step and checks that the value,
coupling and witness are byte-identical to ``wasserstein``'s.
"""

from operator import sub


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


"""The subset-enumeration Wasserstein-1 oracle, kept as a reference.

This is the package's earlier ``wasserstein_oracle``, unchanged: it walks
every (m + n - 1)-subset of the m x n support cells, keeps the acyclic ones
(the spanning trees), peels each tree's leaves in ``Fraction`` arithmetic
and returns the least cost over the feasible trees. ``test_oracle.py``
checks the package's depth-first oracle against it.
"""

from fractions import Fraction
from itertools import combinations

from kantorovich import Measure


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

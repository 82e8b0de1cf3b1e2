"""Wasserstein-1 on a weighted tree in closed form, kept as a reference.

A tree on points 0..n-1 is given by ``parent`` (``parent[i] < i`` for
i > 0, point 0 the root) and ``weight[i] > 0``, the length of the edge from
i to its parent. Its path metric is the sum of the edge lengths between two
points. On such a space

    W1(p, q) = sum over edges e of w_e * |p(T_e) - q(T_e)|,

where T_e is the subtree below e (Evans & Matsen 2012; on a line this is
the integral of |F - G|, Vallender 1973). No solver is involved, and this
module shares no code with the package: it works on lists of ``Fraction``s.
"""

from fractions import Fraction


def tree_distances(parent, weight):
    """The path metric of the tree, as an n x n list of Fractions."""
    n = len(parent)
    depth = [Fraction(0)] * n
    for i in range(1, n):
        depth[i] = depth[parent[i]] + weight[i]
    ancestors = [{0}]
    for i in range(1, n):
        ancestors.append(ancestors[parent[i]] | {i})
    dist = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            # the deepest common ancestor is the common ancestor of greatest index
            meet = max(ancestors[i] & ancestors[j])
            dist[i][j] = dist[j][i] = depth[i] + depth[j] - 2 * depth[meet]
    return dist


def _net_below(parent, p, q):
    """p(T_i) - q(T_i) for the subtree T_i below each point i."""
    net = [a - b for a, b in zip(p, q)]
    for i in range(len(parent) - 1, 0, -1):
        net[parent[i]] += net[i]
    return net


def tree_wasserstein(parent, weight, p, q) -> Fraction:
    """Sum over edges of length times the net mass that crosses it."""
    net = _net_below(parent, p, q)
    return sum((weight[i] * abs(net[i]) for i in range(1, len(parent))), Fraction(0))


def tree_witness(parent, weight, p, q):
    """An optimal short functional, 0 at the root.

    Along the path from the root it climbs by the edge length into every
    subtree that holds more of p than of q, and falls by it into every
    subtree that holds less, so that integrating it against p - q gives each
    edge's term of ``tree_wasserstein``.
    """
    net = _net_below(parent, p, q)
    value = [Fraction(0)] * len(parent)
    for i in range(1, len(parent)):
        sign = (net[i] > 0) - (net[i] < 0)
        value[i] = value[parent[i]] + sign * weight[i]
    return value

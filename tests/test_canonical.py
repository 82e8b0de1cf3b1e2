"""Certificates that depend on the two measures alone, not on the pivot path.

``bland_reference`` is the earlier Bland's-rule solver. Its optimal flows
and potentials, fed through the same canonical step as the solver's, must
give byte-identical values, couplings and witnesses.
"""

import random
from fractions import Fraction

import pytest

from kantorovich import FinMetricSpace, Measure, ShortFunctional, dirac, integrate, wasserstein
from kantorovich import jsonio, transport
from kantorovich.generate import random_measure, random_measure_with_support, random_space
from kantorovich.jsonio import format_fraction

import bland_reference


def _on(rng, space, support, equal=False):
    raw = {i: 1 if equal else rng.randint(1, 64) for i in support}
    total = sum(raw.values())
    return Measure(
        space, tuple(Fraction(raw.get(i, 0), total) for i in range(len(space)))
    )


def _uniform_metric(n):
    return FinMetricSpace(
        tuple(f"u{i}" for i in range(n)),
        tuple(tuple(0 if i == j else 1 for j in range(n)) for i in range(n)),
    )


def _pairs(rng):
    """240 seeded pairs of distinct measures, by family."""
    for _ in range(60):
        space = random_space(rng, 10)
        yield "random", random_measure(rng, space), random_measure(rng, space)
    for _ in range(40):
        space = random_space(rng, 20, min_points=12)
        yield (
            "sparse",
            random_measure_with_support(rng, space, 4),
            random_measure_with_support(rng, space, 4),
        )
    for _ in range(30):
        space = random_space(rng, 16, min_points=8)
        chosen = rng.sample(range(len(space)), 8)
        a, b = rng.randint(1, 4), rng.randint(1, 4)
        yield "disjoint", _on(rng, space, chosen[:a]), _on(rng, space, chosen[4 : 4 + b])
    for _ in range(30):
        space = random_space(rng, 12, min_points=3)
        x, y = rng.sample(space.points, 2)
        other = dirac(space, y) if rng.random() < 0.5 else random_measure(rng, space)
        yield "dirac", dirac(space, x), other
    for _ in range(30):
        space = random_space(rng, 12, min_points=4)
        size = rng.randint(2, len(space) // 2)
        yield (
            "equal-mass",
            _on(rng, space, rng.sample(range(len(space)), size), equal=True),
            _on(rng, space, rng.sample(range(len(space)), size), equal=True),
        )
    for _ in range(30):
        space = _uniform_metric(rng.randint(3, 9))
        yield "uniform-metric", random_measure(rng, space), random_measure(rng, space)
    # tall: many supply rows for two or three demand columns, m >= 4k
    for _ in range(20):
        space = random_space(rng, 20, min_points=12)
        target = _on(rng, space, rng.sample(range(len(space)), rng.randint(2, 3)))
        yield "tall", _full_support(rng, space), target


def _payload(result):
    value, plan, witness = result
    return jsonio.dumps(
        [
            format_fraction(value),
            [[format_fraction(x) for x in row] for row in plan.coupling],
            [format_fraction(x) for x in witness.potential.values],
        ]
    )


def _bland(p, q):
    problem = transport._problem(p, q)
    flows, u = bland_reference._solve_transportation(*problem[3:])
    return transport._certified(p, q, problem, flows, u)


def test_bland_path_gives_byte_identical_certificates():
    seen = {}
    for family, p, q in _pairs(random.Random(2026)):
        if p == q:
            continue
        seen[family] = seen.get(family, 0) + 1
        assert _payload(_bland(p, q)) == _payload(wasserstein(p, q)), family
    assert sum(seen.values()) >= 200 and len(seen) == 7


def _greatest_by_bellman_ford(space, plan):
    """Shortest paths from point 0 in Fraction: the greatest optimal short functional."""
    n, d = len(space), space.dist
    edges = [(x, y, d[x][y]) for x in range(n) for y in range(n) if x != y]
    edges += [
        (i, j, -d[i][j])
        for i, row in enumerate(plan.coupling)
        for j, x in enumerate(row)
        if x
    ]
    best = [Fraction(0)] + [None] * (n - 1)
    for _ in range(n):
        for x, y, w in edges:
            if best[x] is not None and (best[y] is None or best[x] + w < best[y]):
                best[y] = best[x] + w
    return tuple(best)


class TestGreatestWitness:
    @staticmethod
    def _cases():
        rng = random.Random(77)
        for _, p, q in _pairs(rng):
            if p != q and len(p.space) <= 10:
                yield p, q

    def test_equals_bellman_ford_on_the_plan(self):
        for p, q in self._cases():
            _, plan, witness = wasserstein(p, q)
            assert witness.potential.values == _greatest_by_bellman_ford(p.space, plan)

    @pytest.mark.parametrize("eps", [Fraction(1, 2**40), Fraction(1, 3)])
    def test_raising_any_later_point_breaks_it(self, eps):
        for p, q in list(self._cases())[::4]:
            value, _, witness = wasserstein(p, q)
            values = witness.potential.values
            for x in range(1, len(values)):
                raised = values[:x] + (values[x] + eps,) + values[x + 1 :]
                try:
                    f = ShortFunctional(p.space, raised)
                except ValueError:
                    continue
                assert integrate(f, p) - integrate(f, q) != value


def _full_support(rng, space):
    raw = [rng.randint(1, 64) for _ in space.points]
    return Measure._from_units(space, raw, sum(raw))


def test_pivot_count_at_128_points():
    rng = random.Random(128)
    space = random_space(rng, 128, min_points=128)
    for _ in range(2):
        problem = transport._problem(_full_support(rng, space), _full_support(rng, space))
        _, _, pivots = transport._solve_transportation(*problem[3:])
        assert 0 < pivots <= 2000


def test_perturbed_solve_on_degenerate_masses():
    # equal masses on a uniform metric: every northwest-corner step ties
    rng, space = random.Random(0), _uniform_metric(6)
    problem = transport._problem(
        _on(rng, space, range(3), equal=True), _on(rng, space, range(3, 6), equal=True)
    )
    flows, _, _ = transport._solve_transportation(*problem[3:])
    supplies, demands = problem[4], problem[5]
    assert len(flows) == len(supplies) + len(demands) - 1
    assert all(f >= 0 for f in flows.values())
    for a, s in enumerate(supplies):
        assert sum(f for (r, _), f in flows.items() if r == a) == s
    for b, s in enumerate(demands):
        assert sum(f for (_, c), f in flows.items() if c == b) == s

"""Seeded random generators for spaces, measures, maps, and monoids.

Spaces are drawn as symmetric positive rational matrices repaired by
all-pairs-shortest-path closure, which always lands on a genuine metric.
Short functionals are drawn as arbitrary rational values repaired by the
Lipschitz lower envelope, which fixes inputs that were already short.
All generators take an explicit ``random.Random`` so every caller controls
determinism.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .measure import Measure
from .metric import (
    FinMetricSpace,
    ShortFunctional,
    ShortMap,
    _first_long_pair,
    mcshane_closure,
    tensor,
)
from .monad import NestedMeasure
from .structure import InternalMonoid


def random_space(
    rng: random.Random,
    max_points: int = 6,
    min_points: int = 2,
    prefix: str = "x",
) -> FinMetricSpace:
    """A random finite metric space with shortest-path-closed distances."""
    n = rng.randint(min_points, max_points)
    # each draw a/b with b in 1..4 is a * (12 // b) / 12, so the closure runs on ints
    raw = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            a = rng.randint(1, 24)
            raw[i][j] = raw[j][i] = a * (12 // rng.randint(1, 4))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                through = raw[i][k] + raw[k][j]
                if through < raw[i][j]:
                    raw[i][j] = through
    points = tuple(f"{prefix}{i}" for i in range(n))
    return FinMetricSpace._from_ints(points, raw, 12)


def _numerators(rng: random.Random, k: int, top: int):
    """``k`` numerators from 0 to ``top``, redrawn until their sum is positive."""
    if k < 1 or top < 1:
        raise ValueError(f"cannot draw a positive sum of {k} numerators up to {top}")
    while True:
        raw = [rng.randint(0, top) for _ in range(k)]
        total = sum(raw)
        if total:
            return raw, total


def random_measure(
    rng: random.Random, space: FinMetricSpace, max_numerator: int = 64
) -> Measure:
    """Random weights from bounded nonnegative numerators, normalized exactly."""
    return Measure._from_units(space, *_numerators(rng, len(space), max_numerator))


def random_measure_with_support(
    rng: random.Random,
    space: FinMetricSpace,
    max_support: int,
    max_numerator: int = 64,
) -> Measure:
    """Random measure whose support has at most ``max_support`` points."""
    k = rng.randint(1, min(max_support, len(space)))
    chosen = rng.sample(range(len(space)), k)
    raw = [0] * len(space)
    for i in chosen:
        raw[i] = rng.randint(1, max_numerator)
    return Measure._from_units(space, raw, sum(raw))


def random_functional(rng: random.Random, space: FinMetricSpace) -> ShortFunctional:
    """Random rational values repaired into a short functional."""
    raw = [
        Fraction(rng.randint(-24, 24), rng.randint(1, 4)) for _ in space.points
    ]
    return mcshane_closure(space, raw)


def random_short_map(
    rng: random.Random,
    domain: FinMetricSpace,
    codomain: FinMetricSpace,
    tries: int = 60,
) -> ShortMap:
    """Rejection-sample a short table; fall back to a constant map."""
    for _ in range(tries):
        table = tuple(rng.choice(codomain.points) for _ in domain.points)
        # tested before constructing: a rejected draw costs no exception and no message
        if _first_long_pair(domain, codomain, table) is None:
            return ShortMap(domain, codomain, table)
    point = rng.choice(codomain.points)
    return ShortMap(domain, codomain, (point,) * len(domain))


def random_nested(
    rng: random.Random,
    space: FinMetricSpace,
    max_inner: int = 3,
    max_numerator: int = 64,
) -> NestedMeasure:
    k = rng.randint(1, max_inner)
    inner = tuple(random_measure(rng, space, max_numerator) for _ in range(k))
    raw, total = _numerators(rng, k, max_numerator)
    return NestedMeasure._from_units(space, inner, raw, total)


def random_double_nested(
    rng: random.Random,
    space: FinMetricSpace,
    max_outer: int = 3,
    max_inner: int = 3,
    max_numerator: int = 64,
):
    """Weights over nested measures: a three-layer sample.

    Returns ``(weights, nesteds)`` with exact weights summing to 1.
    """
    k = rng.randint(1, max_outer)
    nesteds = tuple(random_nested(rng, space, max_inner, max_numerator) for _ in range(k))
    raw, total = _numerators(rng, k, max_numerator)
    return tuple(Fraction(x, total) for x in raw), nesteds


def _monoid(prefix: str, dist, op, unit: int) -> InternalMonoid:
    """The monoid on points ``prefix0, prefix1, ...`` with distance matrix
    ``dist``, product ``op`` on point indices and the unit at index ``unit``."""
    n = len(dist)
    points = tuple(f"{prefix}{i}" for i in range(n))
    carrier = FinMetricSpace(points, dist)
    table = tuple(points[op(i, j)] for i in range(n) for j in range(n))
    mult = ShortMap(tensor(carrier, carrier), carrier, table)
    return InternalMonoid(carrier, mult, points[unit])


def cyclic_monoid(order: int, scale: Fraction = Fraction(1)) -> InternalMonoid:
    """The cyclic group of the given order with the uniform metric.

    Addition is short because translating both coordinates moves the output
    by at most one metric step each.
    """
    dist = tuple(
        tuple(Fraction(0) if i == j else scale for j in range(order))
        for i in range(order)
    )
    return _monoid("g", dist, lambda i, j: (i + j) % order, 0)


def min_monoid(size: int, scale: Fraction = Fraction(1)) -> InternalMonoid:
    """The chain 0 < 1 < ... with minimum as multiplication.

    The metric is the scaled line metric; min is jointly 1-Lipschitz, and the
    top element is the unit.
    """
    dist = tuple(
        tuple(scale * abs(i - j) for j in range(size)) for i in range(size)
    )
    return _monoid("c", dist, min, -1)


def random_monoid(rng: random.Random) -> InternalMonoid:
    scale = Fraction(rng.randint(1, 6), rng.randint(1, 3))
    if rng.random() < 0.5:
        return cyclic_monoid(rng.randint(2, 4), scale)
    return min_monoid(rng.randint(2, 4), scale)

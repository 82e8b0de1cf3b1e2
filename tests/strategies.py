"""Hypothesis strategies for exact spaces, measures, and functionals."""

from fractions import Fraction

import hypothesis.strategies as st

from kantorovich import FinMetricSpace, Measure, mcshane_closure

_distances = st.fractions(
    min_value=Fraction(1, 4), max_value=Fraction(8), max_denominator=8
)


@st.composite
def metric_spaces(draw, min_points=2, max_points=4, prefix="s", distances=_distances):
    """Symmetric positive matrices repaired by shortest-path closure.

    The closure adds distances, so entries drawn as multiples of one
    fraction stay multiples of it.
    """
    n = draw(st.integers(min_value=min_points, max_value=max_points))
    k = n * (n - 1) // 2
    upper = draw(st.lists(distances, min_size=k, max_size=k))
    dist = [[Fraction(0)] * n for _ in range(n)]
    it = iter(upper)
    for i in range(n):
        for j in range(i + 1, n):
            dist[i][j] = dist[j][i] = next(it)
    for mid in range(n):
        for i in range(n):
            for j in range(n):
                through = dist[i][mid] + dist[mid][j]
                if through < dist[i][j]:
                    dist[i][j] = through
    points = tuple(f"{prefix}{i}" for i in range(n))
    return FinMetricSpace(points, tuple(tuple(row) for row in dist))


@st.composite
def measures_on(draw, space):
    n = len(space)
    raw = draw(
        st.lists(st.integers(min_value=0, max_value=16), min_size=n, max_size=n).filter(
            lambda xs: sum(xs) > 0
        )
    )
    total = sum(raw)
    return Measure(space, tuple(Fraction(x, total) for x in raw))


@st.composite
def functionals_on(draw, space):
    n = len(space)
    raw = draw(
        st.lists(
            st.fractions(min_value=Fraction(-8), max_value=Fraction(8), max_denominator=4),
            min_size=n,
            max_size=n,
        )
    )
    return mcshane_closure(space, raw)


@st.composite
def spaces_with_measure(draw, min_points=2, max_points=4, prefix="s"):
    space = draw(metric_spaces(min_points, max_points, prefix))
    return space, draw(measures_on(space))

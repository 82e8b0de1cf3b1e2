"""The solver against the closed form for W1 on weighted trees, up to 128 points.

The brute-force oracle stops at a combined support of 8; a tree metric has
an exact answer at any size that needs no solver (``tree_reference``).
"""

import random
from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import example, given, settings

from kantorovich import FinMetricSpace, Measure, wasserstein

import tree_reference

SHAPES = ("line", "star", "caterpillar", "random")
MASSES = ("dirac", "equal", "random")
# mostly small trees: one 128-point case takes about a third of a second
SIZES = (2, 3, 4, 5, 6, 8, 12, 16, 24, 32, 64, 128)


def _tree(rng, shape, n):
    """``parent`` and ``weight`` of an n-point tree rooted at point 0 (entry 0 unused)."""
    if shape == "line":
        parent = [0] + list(range(n - 1))
    elif shape == "star":
        parent = [0] * n
    elif shape == "caterpillar":
        spine = rng.randint(1, n)
        parent = [0] + list(range(spine - 1)) + [rng.randrange(spine) for _ in range(spine, n)]
    else:
        parent = [0] + [rng.randrange(i) for i in range(1, n)]
    weight = [Fraction(0)] + [Fraction(rng.randint(1, 8), rng.randint(1, 4)) for _ in range(1, n)]
    return parent, weight


def _masses(rng, kind, n):
    if kind == "dirac":
        point = rng.randrange(n)
        return [Fraction(int(i == point)) for i in range(n)]
    if kind == "equal":
        support = set(rng.sample(range(n), rng.randint(1, n)))
        return [Fraction(1, len(support)) if i in support else Fraction(0) for i in range(n)]
    raw = [rng.randint(0, 16) for _ in range(n)]
    raw[rng.randrange(n)] += 1
    return [Fraction(x, sum(raw)) for x in raw]


@given(
    n=st.sampled_from(SIZES),
    shape=st.sampled_from(SHAPES),
    p_kind=st.sampled_from(MASSES),
    q_kind=st.sampled_from(MASSES + ("same",)),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
@example(n=128, shape="line", p_kind="random", q_kind="random", seed=0)
@example(n=128, shape="caterpillar", p_kind="equal", q_kind="dirac", seed=1)
@example(n=64, shape="star", p_kind="random", q_kind="equal", seed=2)
def test_wasserstein_on_trees_is_the_closed_form(n, shape, p_kind, q_kind, seed):
    rng = random.Random(seed)
    parent, weight = _tree(rng, shape, n)
    p_mass = _masses(rng, p_kind, n)
    q_mass = p_mass if q_kind == "same" else _masses(rng, q_kind, n)
    space = FinMetricSpace(
        tuple(f"t{i}" for i in range(n)), tree_reference.tree_distances(parent, weight)
    )
    value, _, witness = wasserstein(Measure(space, p_mass), Measure(space, q_mass))
    assert value == tree_reference.tree_wasserstein(parent, weight, p_mass, q_mass)
    # the tree's own witness, 0 at the first point, attains the value ...
    tree_witness = tree_reference.tree_witness(parent, weight, p_mass, q_mass)
    assert sum(f * (a - b) for f, a, b in zip(tree_witness, p_mass, q_mass)) == value
    # ... so it lies at or below the greatest such functional, the one returned
    greatest = witness.potential.values
    assert all(low <= high for low, high in zip(tree_witness, greatest))

"""The depth-first oracle against the subset-enumeration reference."""

import random
from fractions import Fraction

import pytest

from kantorovich import FinMetricSpace, Measure, dirac, uniform, wasserstein_oracle
from kantorovich.generate import random_measure, random_space
from kantorovich.laws import DEFAULT_BUDGET, _gen_oracle

import oracle_reference


def _on(space, support):
    """Equal masses on the given point indices."""
    return Measure(
        space,
        tuple(Fraction(1, len(support)) if i in support else 0 for i in range(len(space))),
    )


def test_matches_reference_on_seeded_law_instances():
    for seed in range(300):
        inst = _gen_oracle(random.Random(seed), DEFAULT_BUDGET)
        p, q = inst["p"], inst["q"]
        assert wasserstein_oracle(p, q) == oracle_reference.wasserstein_oracle(p, q), seed


def test_matches_reference_on_equal_measures():
    rng = random.Random(5)
    for _ in range(10):
        space = random_space(rng, max_points=4, min_points=1)
        p = random_measure(rng, space)
        assert wasserstein_oracle(p, p) == oracle_reference.wasserstein_oracle(p, p) == 0


def test_matches_reference_dirac_to_dirac():
    space = random_space(random.Random(6), max_points=5, min_points=5)
    for a in space.points:
        for b in space.points:
            p, q = dirac(space, a), dirac(space, b)
            value = wasserstein_oracle(p, q)
            assert value == oracle_reference.wasserstein_oracle(p, q) == space.distance(a, b)


@pytest.mark.parametrize(
    "source, target",
    [((0, 1, 2, 3), (4, 5, 6, 7)), ((0, 1, 2, 3), (0, 1, 2, 3)), ((0, 2, 4, 6), (1, 2, 3, 4))],
)
def test_matches_reference_on_four_plus_four_equal_masses(source, target):
    rng = random.Random(7)
    for _ in range(3):
        space = random_space(rng, max_points=8, min_points=8)
        p, q = _on(space, source), _on(space, target)
        assert wasserstein_oracle(p, q) == oracle_reference.wasserstein_oracle(p, q)


def test_raises_the_reference_error_at_nine_points():
    n = 9
    space = FinMetricSpace(
        tuple(f"n{i}" for i in range(n)),
        tuple(tuple(0 if i == j else 1 for j in range(n)) for i in range(n)),
    )
    p, q = _on(space, (0, 1, 2, 3, 4)), _on(space, (5, 6, 7, 8))
    with pytest.raises(ValueError) as reference:
        oracle_reference.wasserstein_oracle(p, q)
    with pytest.raises(ValueError) as current:
        wasserstein_oracle(p, q)
    assert str(current.value) == str(reference.value)
    assert str(current.value) == "oracle handles combined support size at most 8"

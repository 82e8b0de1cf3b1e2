import random
from fractions import Fraction

import pytest

from kantorovich import (
    Measure,
    NestedMeasure,
    dirac,
    diracs_nested,
    expectation,
    merge_duplicates,
    nested_distance,
    pushforward,
    pushforward_nested,
    uniform,
    unit_nested,
    wasserstein_distance,
    wasserstein_space,
)
from kantorovich.laws import check_law
from kantorovich.generate import (
    random_double_nested,
    random_measure,
    random_nested,
    random_short_map,
    random_space,
)


class TestNestedInvariants:
    def test_weights_must_sum_to_one(self, two_point):
        p = uniform(two_point)
        with pytest.raises(ValueError, match="sum to exactly 1"):
            NestedMeasure(two_point, (p,), (Fraction(1, 2),))

    def test_inner_measures_share_base(self, two_point, three_point):
        with pytest.raises(ValueError, match="base space"):
            NestedMeasure(two_point, (uniform(three_point),), (Fraction(1),))

    def test_negative_weight(self, two_point):
        p = uniform(two_point)
        with pytest.raises(ValueError, match="negative"):
            NestedMeasure(two_point, (p, p), (Fraction(3, 2), Fraction(-1, 2)))


class TestExpectation:
    def test_single_inner_measure(self, two_point):
        p = Measure(two_point, (Fraction(1, 3), Fraction(2, 3)))
        assert expectation(unit_nested(p)) == p

    def test_all_inner_equal(self, two_point):
        p = Measure(two_point, (Fraction(1, 4), Fraction(3, 4)))
        mu = NestedMeasure(two_point, (p, p, p), (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)))
        assert expectation(mu) == p

    def test_mixture_of_diracs_is_uniform(self, two_point):
        mu = NestedMeasure(
            two_point,
            (dirac(two_point, "a"), dirac(two_point, "b")),
            (Fraction(1, 2), Fraction(1, 2)),
        )
        assert expectation(mu) == uniform(two_point)

    def test_diracs_nested_recovers(self, three_point):
        rng = random.Random(14)
        p = random_measure(rng, three_point)
        assert expectation(diracs_nested(p)) == p


class TestWassersteinSpace:
    def test_two_diracs(self, two_point):
        da, db = dirac(two_point, "a"), dirac(two_point, "b")
        space = wasserstein_space([da, db])
        assert space.distance(da, db) == two_point.distance("a", "b")

    def test_single_measure(self, two_point):
        space = wasserstein_space([uniform(two_point)])
        assert len(space) == 1

    def test_three_random_measures_form_a_metric_space(self, three_point):
        # FinMetricSpace re-checks all axioms on construction
        rng = random.Random(15)
        ms = []
        while len(ms) < 3:
            m = random_measure(rng, three_point)
            if m not in ms:
                ms.append(m)
        space = wasserstein_space(ms)
        for i, m in enumerate(ms):
            for other in ms[i + 1:]:
                assert space.distance(m, other) == wasserstein_distance(m, other)

    def test_duplicates_rejected(self, two_point):
        p = uniform(two_point)
        with pytest.raises(ValueError, match="duplicate measures"):
            wasserstein_space([p, p])


class TestNestedDistance:
    def test_point_masses_reduce_to_base_distance(self, two_point):
        p = uniform(two_point)
        q = dirac(two_point, "a")
        assert nested_distance(unit_nested(p), unit_nested(q)) == wasserstein_distance(p, q)

    def test_merge_duplicates_sums_weights(self, two_point):
        p = uniform(two_point)
        q = dirac(two_point, "b")
        mu = NestedMeasure(
            two_point, (p, q, p), (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))
        )
        merged = merge_duplicates(mu)
        assert merged.inner == (p, q)
        assert merged.weights == (Fraction(3, 4), Fraction(1, 4))

    def test_contraction_of_expectation(self):
        rng = random.Random(16)
        for _ in range(10):
            space = random_space(rng, 3)
            mu = random_nested(rng, space)
            nu = random_nested(rng, space)
            assert wasserstein_distance(
                expectation(mu), expectation(nu)
            ) <= nested_distance(mu, nu)


class TestMonadLaws:
    def test_report_all_pass_on_random_sample(self):
        rng = random.Random(18)
        space = random_space(rng, 4)
        measures = [random_measure(rng, space) for _ in range(5)]
        double_nested = [random_double_nested(rng, space) for _ in range(5)]
        for p in measures:
            assert check_law("monad_left_unit", {"p": p}).ok
            assert check_law("monad_right_unit", {"p": p}).ok
        for weights, nesteds in double_nested:
            instance = {"weights": list(weights), "layers": list(nesteds)}
            assert check_law("monad_associativity", instance).ok

    def test_naturality_of_expectation(self):
        rng = random.Random(20)
        for _ in range(10):
            x = random_space(rng, 4, prefix="x")
            y = random_space(rng, 4, prefix="y")
            f = random_short_map(rng, x, y)
            mu = random_nested(rng, x)
            assert expectation(pushforward_nested(f, mu)) == pushforward(
                f, expectation(mu)
            )

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from kantorovich import (
    FinMetricSpace,
    Measure,
    ShortFunctional,
    ShortMap,
    bang,
    dirac,
    identity,
    integrate,
    compose,
    partial_integral,
    pushforward,
    tensor,
    terminal,
    uniform,
    zero_functional,
)
from kantorovich.generate import random_functional, random_measure, random_short_map, random_space

from strategies import metric_spaces, spaces_with_measure


class TestMeasureInvariants:
    def test_negative_weight_rejected(self, two_point):
        with pytest.raises(ValueError, match="negative weight"):
            Measure(two_point, (Fraction(3, 2), Fraction(-1, 2)))

    def test_bad_total_rejected(self, two_point):
        with pytest.raises(ValueError, match="sum to"):
            Measure(two_point, (Fraction(1, 2), Fraction(1, 3)))

    def test_unknown_label_in_mapping(self, two_point):
        with pytest.raises(ValueError, match="unknown points"):
            Measure.from_mapping(two_point, {"zzz": Fraction(1)})

    def test_missing_labels_mean_zero(self, two_point):
        p = Measure.from_mapping(two_point, {"a": Fraction(1)})
        assert p.weights == (1, 0)

    def test_weight_at_and_support(self, three_point):
        p = Measure(three_point, (Fraction(1, 3), 0, Fraction(2, 3)))
        assert [p.weight_at(x) for x in three_point.points] == [Fraction(1, 3), 0, Fraction(2, 3)]
        assert p.support() == ("p", "r")
        assert dirac(three_point, "q").support() == ("q",)
        with pytest.raises(ValueError, match="unknown point"):
            p.weight_at("zzz")

    def test_equality_is_pointwise(self, two_point):
        p = Measure(two_point, (Fraction(1, 2), Fraction(1, 2)))
        q = Measure.from_mapping(two_point, {"b": Fraction(1, 2), "a": Fraction(1, 2)})
        assert p == q


class TestDirac:
    def test_integrates_to_point_value(self, three_point):
        rng = random.Random(2)
        for _ in range(10):
            f = random_functional(rng, three_point)
            for x in three_point.points:
                assert integrate(f, dirac(three_point, x)) == f(x)

    def test_unknown_point(self, two_point):
        with pytest.raises(ValueError, match="unknown point"):
            dirac(two_point, "zzz")

    def test_on_terminal_is_the_unique_measure(self):
        assert dirac(terminal(), "*") == uniform(terminal())

    def test_pushforward_of_dirac(self, two_point, three_point):
        rng = random.Random(9)
        f = random_short_map(rng, two_point, three_point)
        for x in two_point.points:
            assert pushforward(f, dirac(two_point, x)) == dirac(three_point, f(x))


class TestIntegrate:
    def test_zero_functional(self, three_point):
        p = uniform(three_point)
        assert integrate(zero_functional(three_point), p) == 0

    def test_uniform_half(self, two_point):
        # f(a)=0, f(b)=1 against the uniform measure: (0 + 1) / 2
        f = ShortFunctional(two_point, (0, 1))
        assert integrate(f, uniform(two_point)) == Fraction(1, 2)

    def test_space_mismatch(self, two_point, three_point):
        with pytest.raises(ValueError, match="different spaces"):
            integrate(zero_functional(two_point), uniform(three_point))

    @given(spaces_with_measure())
    @settings(max_examples=30)
    def test_linear_under_averaging(self, space_and_p):
        space, p = space_and_p
        rng = random.Random(31)
        f = random_functional(rng, space)
        g = random_functional(rng, space)
        avg = ShortFunctional(
            space, tuple((a + b) / 2 for a, b in zip(f.values, g.values))
        )
        assert integrate(avg, p) == (integrate(f, p) + integrate(g, p)) / 2

    @given(spaces_with_measure())
    @settings(max_examples=30)
    def test_monotone(self, space_and_p):
        space, p = space_and_p
        rng = random.Random(41)
        f = random_functional(rng, space)
        g = ShortFunctional(space, tuple(v + Fraction(5, 3) for v in f.values))
        assert integrate(f, p) <= integrate(g, p)

    def test_equal_tables_give_equal_integrals(self):
        rng = random.Random(59)
        for _ in range(20):
            space = random_space(rng, 4)
            p = random_measure(rng, space)
            q = Measure(space, p.weights)
            f = random_functional(rng, space)
            assert integrate(f, p) == integrate(f, q)


class TestPushforward:
    def test_identity(self, three_point):
        p = uniform(three_point)
        assert pushforward(identity(three_point), p) == p

    def test_bang_gives_unique_measure(self, three_point):
        p = uniform(three_point)
        assert pushforward(bang(three_point), p) == dirac(terminal(), "*")

    def test_collapse_two_points(self, two_point):
        single = FinMetricSpace(("u",), ((0,),))
        f = ShortMap(two_point, single, ("u", "u"))
        assert pushforward(f, uniform(two_point)) == dirac(single, "u")

    def test_functorial(self):
        rng = random.Random(77)
        for _ in range(15):
            x = random_space(rng, 4, prefix="x")
            y = random_space(rng, 4, prefix="y")
            z = random_space(rng, 4, prefix="z")
            f = random_short_map(rng, x, y)
            g = random_short_map(rng, y, z)
            p = random_measure(rng, x)
            assert pushforward(compose(f, g), p) == pushforward(g, pushforward(f, p))

    def test_space_mismatch(self, two_point, three_point):
        with pytest.raises(ValueError, match="different spaces"):
            pushforward(identity(two_point), uniform(three_point))

    def test_integration_against_composite(self):
        # integrate(g, f_* p) == integrate(g . f, p)
        rng = random.Random(13)
        x = random_space(rng, 4, prefix="x")
        y = random_space(rng, 4, prefix="y")
        f = random_short_map(rng, x, y)
        p = random_measure(rng, x)
        g = random_functional(rng, y)
        pulled = ShortFunctional(x, tuple(g(f(a)) for a in x.points))
        assert integrate(g, pushforward(f, p)) == integrate(pulled, p)


class TestPartialIntegral:
    def test_dirac_slices(self, two_point, three_point):
        rng = random.Random(21)
        t = tensor(two_point, three_point)
        f = random_functional(rng, t)
        for x in two_point.points:
            sliced = partial_integral(f, dirac(two_point, x))
            assert sliced.values == tuple(f((x, y)) for y in three_point.points)

    def test_constant_in_second_coordinate(self, two_point, three_point):
        rng = random.Random(22)
        g = random_functional(rng, two_point)
        p = random_measure(rng, two_point)
        lifted = ShortFunctional(
            tensor(two_point, three_point),
            tuple(g(a) for a, _ in tensor(two_point, three_point).points),
        )
        out = partial_integral(lifted, p)
        assert set(out.values) == {integrate(g, p)}

    @given(metric_spaces(max_points=3, prefix="l"), metric_spaces(max_points=3, prefix="r"))
    @settings(max_examples=30)
    def test_output_is_short(self, x, y):
        # the constructor of the result re-runs the exhaustive Lipschitz check
        rng = random.Random(101)
        f = random_functional(rng, tensor(x, y))
        p = random_measure(rng, x)
        partial_integral(f, p)

    def test_requires_tensor_domain(self, two_point):
        f = zero_functional(two_point)
        with pytest.raises(ValueError, match="tensor"):
            partial_integral(f, uniform(two_point))

    def test_requires_first_factor(self, two_point, three_point):
        f = zero_functional(tensor(two_point, three_point))
        with pytest.raises(ValueError, match="first tensor factor"):
            partial_integral(f, uniform(three_point))

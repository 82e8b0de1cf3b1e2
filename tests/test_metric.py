import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from kantorovich import (
    FinMetricSpace,
    ShortFunctional,
    ShortMap,
    associator,
    bang,
    braiding,
    compose,
    identity,
    marginals_n,
    mcshane_closure,
    middle_interchange,
    proj1,
    proj2,
    product_n,
    sum_functional,
    tensor,
    tensor_map,
    terminal,
    uniform,
    unitor_left,
    unitor_right,
)
from kantorovich.generate import random_short_map, random_space

from strategies import functionals_on, metric_spaces


class TestSpaceInvariants:
    def test_triangle_violation_rejected(self):
        with pytest.raises(ValueError, match="triangle"):
            FinMetricSpace(("a", "b", "c"), ((0, 1, 5), (1, 0, 1), (5, 1, 0)))

    def test_asymmetry_rejected(self):
        with pytest.raises(ValueError, match="asymmetric"):
            FinMetricSpace(("a", "b"), ((0, 1), (2, 0)))

    def test_zero_off_diagonal_rejected(self):
        with pytest.raises(ValueError, match="positive distance"):
            FinMetricSpace(("a", "b"), ((0, 0), (0, 0)))

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError, match="positive distance"):
            FinMetricSpace(("a", "b"), ((0, -1), (-1, 0)))

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(ValueError, match="must be 0"):
            FinMetricSpace(("a", "b"), ((1, 1), (1, 0)))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            FinMetricSpace(("a", "a"), ((0, 1), (1, 0)))

    def test_unknown_point(self, two_point):
        with pytest.raises(ValueError, match="unknown point"):
            two_point.index("zzz")

    @given(metric_spaces(max_points=5))
    def test_generated_spaces_are_metric(self, space):
        # construction already re-checks the axioms; spot-check symmetry
        for a in space.points:
            for b in space.points:
                assert space.distance(a, b) == space.distance(b, a)


class TestTensor:
    def test_sum_metric_value(self):
        a = FinMetricSpace(("a", "b"), ((0, 2), (2, 0)))
        u = FinMetricSpace(("u", "v"), ((0, 3), (3, 0)))
        t = tensor(a, u)
        assert t.distance(("a", "u"), ("b", "v")) == 5
        assert len(t) == 4
        assert t.factors == (a, u)

    def test_row_major_ordering(self, two_point, bit_space):
        t = tensor(two_point, bit_space)
        assert t.points == (("a", "0"), ("a", "1"), ("b", "0"), ("b", "1"))

    def test_one_point_factor_is_isometric(self, three_point):
        t = tensor(three_point, terminal())
        for a in three_point.points:
            for b in three_point.points:
                assert t.distance((a, "*"), (b, "*")) == three_point.distance(a, b)

    def test_associativity_of_distances(self, two_point, bit_space, three_point):
        left = tensor(tensor(two_point, bit_space), three_point)
        f = associator(two_point, bit_space, three_point)
        for p in left.points:
            for q in left.points:
                assert left.distance(p, q) == f.codomain.distance(f(p), f(q))

    def test_cache_keeps_how_a_space_was_factored(self):
        # labels no other test uses, so no earlier tensor call is cached
        a = FinMetricSpace(("cache-a0", "cache-a1"), ((0, 1), (1, 0)))
        b = FinMetricSpace(("cache-b0", "cache-b1"), ((0, 2), (2, 0)))
        ab = tensor(a, b)
        flat = tensor(FinMetricSpace(ab.points, ab.dist), a)
        assert flat.factors[0].factors is None
        joint = product_n([uniform(a), uniform(b), uniform(a)])
        assert joint.space.factors[0].factors == (a, b)
        assert marginals_n(joint, 3) == [uniform(a), uniform(b), uniform(a)]

    def test_cache_counts_calls_and_hits(self, two_point, bit_space):
        before = tensor.cache_info()
        tensor(two_point, bit_space)
        tensor(two_point, bit_space)
        after = tensor.cache_info()
        assert after.hits + after.misses == before.hits + before.misses + 2
        assert after.hits >= before.hits + 1

    def test_terminal(self):
        one = terminal()
        assert one.points == ("*",)
        assert one.dist == ((0,),)
        assert bang(one) == identity(one)


class TestShortMaps:
    def test_not_short_rejected(self, two_point):
        wide = FinMetricSpace(("u", "v"), ((0, 5), (5, 0)))
        with pytest.raises(ValueError, match="not short"):
            ShortMap(two_point, wide, ("u", "v"))

    def test_missing_table_entry(self, two_point):
        with pytest.raises(ValueError, match="missing"):
            ShortMap.from_mapping(two_point, two_point, {"a": "a"})

    def test_bang_collapses(self, three_point):
        f = bang(three_point)
        assert set(f.table) == {"*"}

    def test_bang_terminality(self, two_point, three_point):
        rng = random.Random(5)
        f = random_short_map(rng, two_point, three_point)
        assert compose(f, bang(three_point)) == bang(two_point)

    def test_proj1_as_tensor_of_id_and_bang(self, two_point, three_point):
        via_unit = compose(
            tensor_map(identity(two_point), bang(three_point)),
            unitor_right(two_point),
        )
        assert via_unit == proj1(two_point, three_point)

    def test_proj_bijective_on_one_point_factor(self, two_point):
        single = FinMetricSpace(("u",), ((0,),))
        f = proj1(two_point, single)
        assert f.table == ("a", "b")

    def test_proj_naturality_square(self):
        rng = random.Random(11)
        x, y = random_space(rng, 3, prefix="x"), random_space(rng, 3, prefix="y")
        z, w = random_space(rng, 3, prefix="z"), random_space(rng, 3, prefix="w")
        f = random_short_map(rng, x, z)
        g = random_short_map(rng, y, w)
        assert compose(tensor_map(f, g), proj1(z, w)) == compose(proj1(x, y), f)
        assert compose(tensor_map(f, g), proj2(z, w)) == compose(proj2(x, y), g)

    def test_braiding_involution(self, two_point, three_point):
        there = braiding(two_point, three_point)
        back = braiding(three_point, two_point)
        assert compose(there, back) == identity(tensor(two_point, three_point))

    def test_braiding_is_isometry(self, two_point, three_point):
        f = braiding(two_point, three_point)
        for p in f.domain.points:
            for q in f.domain.points:
                assert f.domain.distance(p, q) == f.codomain.distance(f(p), f(q))

    def test_braiding_with_terminal_is_unitor(self, three_point):
        assert compose(braiding(three_point, terminal()), unitor_left(three_point)) == unitor_right(three_point)

    def test_compose_identity(self, two_point, three_point):
        rng = random.Random(3)
        f = random_short_map(rng, two_point, three_point)
        assert compose(identity(two_point), f) == f
        assert compose(f, identity(three_point)) == f

    def test_compose_domain_mismatch(self, two_point, three_point):
        f = identity(two_point)
        g = identity(three_point)
        with pytest.raises(ValueError, match="compose"):
            compose(f, g)

    def test_compose_of_random_shorts_is_short(self):
        # construction re-runs the exhaustive Lipschitz check
        rng = random.Random(17)
        for _ in range(20):
            x = random_space(rng, 4, prefix="x")
            y = random_space(rng, 4, prefix="y")
            z = random_space(rng, 4, prefix="z")
            f = random_short_map(rng, x, y)
            g = random_short_map(rng, y, z)
            compose(f, g)

    def test_middle_interchange_is_isometry(self):
        rng = random.Random(23)
        spaces = [random_space(rng, 2, prefix=p) for p in "wxyz"]
        f = middle_interchange(*spaces)
        for p in f.domain.points:
            for q in f.domain.points:
                assert f.domain.distance(p, q) == f.codomain.distance(f(p), f(q))


class TestShortFunctionals:
    def test_violation_rejected(self, two_point):
        with pytest.raises(ValueError, match="not short"):
            ShortFunctional(two_point, (0, 5))

    def test_closure_fixes_short_inputs(self, three_point):
        f = ShortFunctional(three_point, (0, 1, Fraction(3, 2)))
        assert mcshane_closure(three_point, f.values) == f

    @given(metric_spaces(max_points=4))
    @settings(max_examples=50)
    def test_closure_output_always_short(self, space):
        rng = random.Random(hash(space.points) & 0xFFFF)
        raw = [Fraction(rng.randint(-20, 20), rng.randint(1, 3)) for _ in space.points]
        mcshane_closure(space, raw)

    @given(metric_spaces(max_points=3, prefix="l"), metric_spaces(max_points=3, prefix="r"))
    @settings(max_examples=30)
    def test_sum_of_shorts_is_short(self, x, y):
        fx = mcshane_closure(x, [Fraction(i, 2) for i in range(len(x))])
        gy = mcshane_closure(y, [Fraction(-i, 3) for i in range(len(y))])
        combined = sum_functional(fx, gy)
        for a in x.points:
            for b in y.points:
                assert combined((a, b)) == fx(a) + gy(b)


@given(functionals_on(FinMetricSpace(("a", "b", "c"), ((0, 1, 1), (1, 0, 1), (1, 1, 0)))))
def test_functional_strategy_is_short(f):
    d = f.domain
    for a in d.points:
        for b in d.points:
            assert abs(f(a) - f(b)) <= d.distance(a, b)

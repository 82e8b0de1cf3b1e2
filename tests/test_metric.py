import random
from fractions import Fraction

import hypothesis.strategies as st
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
    marginals,
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
from kantorovich import metric
from kantorovich.generate import random_short_map, random_space
from kantorovich.metric import _first_long_pair

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

    def test_public_factors_must_build_the_space(self):
        a = FinMetricSpace(("factor-a0", "factor-a1"), ((0, 1), (1, 0)))
        aa = tensor(a, a)
        # four points at distance 1 from each other: the labels of a x a, not its metric
        flat = FinMetricSpace(aa.points, [[int(i != j) for j in range(4)] for i in range(4)])
        for factors in ((a, a), (a,), (a, a, a), ("x", "y"), (a, aa)):
            with pytest.raises(ValueError, match="factors must be two spaces"):
                FinMetricSpace(flat.points, flat.dist, factors=factors)
        wide = FinMetricSpace(a.points, ((0, 2), (2, 0)))  # a x wide has the points of a x a
        with pytest.raises(ValueError, match="factors must be two spaces"):
            FinMetricSpace(aa.points, aa.dist, factors=(a, wide))
        given = FinMetricSpace(aa.points, aa.dist, factors=(a, a))
        assert given == aa and given.factors == (a, a)
        assert marginals(uniform(given)) == (uniform(a), uniform(a))
        # neither a sum of the factors nor a metric: the full check runs and
        # raises its own first error, as for a space given no factors
        half = FinMetricSpace(a.points, ((0, Fraction(1, 2)), (Fraction(1, 2), 0)))
        triangle = [[0, 1, 1, 5], [1, 0, 2, 1], [1, 2, 0, 1], [5, 1, 1, 0]]
        # the sum of (half, a) if half's distances were floored to whole numbers
        floored = [[int(i % 2 != j % 2) for j in range(4)] for i in range(4)]
        for dist, factors, start in [
            (triangle, (a, a), "triangle inequality violated: "),
            (triangle, [a, a], "triangle inequality violated: "),
            (floored, (half, a), "distinct points "),
        ]:
            message = _reference_axiom_error(aa.points, dist)
            assert message.startswith(start)
            for build in (
                lambda: FinMetricSpace(aa.points, dist),
                lambda: FinMetricSpace(aa.points, dist, factors=factors),
            ):
                with pytest.raises(ValueError) as info:
                    build()
                assert str(info.value) == message

    def test_a_hand_built_tensor_runs_no_axiom_check(self, monkeypatch):
        a = FinMetricSpace(("hand-a0", "hand-a1"), ((0, 1), (1, 0)))
        aa = tensor(a, a)

        def refuse(space):
            raise AssertionError("the factors alone certify this space")

        monkeypatch.setattr(metric, "_check_axioms", refuse)
        given = FinMetricSpace(aa.points, aa.dist, factors=(a, a))
        assert given == aa and given.factors == (a, a)

    def test_factors_that_build_the_space_are_kept_as_given(self):
        half = FinMetricSpace(("kept-h0", "kept-h1"), ((0, Fraction(1, 2)), (Fraction(1, 2), 0)))
        third = FinMetricSpace(("kept-t0", "kept-t1"), ((0, Fraction(1, 3)), (Fraction(1, 3), 0)))
        both = tensor(half, third)
        for factors in ((half, third), [half, third]):
            given = FinMetricSpace(both.points, both.dist, factors=factors)
            assert given == both and given.factors == tuple(factors)

    def test_a_list_of_factors_changed_later_leaves_the_space_alone(self):
        a = FinMetricSpace(("list-a0", "list-a1"), ((0, 1), (1, 0)))
        b = FinMetricSpace(("list-b0", "list-b1", "list-b2"), ((0, 1, 2), (1, 0, 1), (2, 1, 0)))
        ab = tensor(a, b)
        factors = [a, b]
        s = FinMetricSpace(ab.points, ab.dist, factors=factors)
        factors[1] = a
        assert s.factors == (a, b)
        assert marginals(uniform(s))[1] == uniform(b)

    def test_factors_must_build_the_points_too(self):
        a = FinMetricSpace(("label-a0", "label-a1"), ((0, 1), (1, 0)))
        aa = tensor(a, a)
        # the pairs of a x a listed column-major: the distances still add up
        # under the new labels, but the tensor lists its pairs row-major
        swapped = [(q, p) for p, q in aa.points]
        assert swapped != list(aa.points)
        ones = tuple(tuple(int(i != j) for j in range(4)) for i in range(4))
        for points, ints in ((swapped, aa._ints), (aa.points, ones)):
            with pytest.raises(ValueError, match="factors must be two spaces"):
                FinMetricSpace(points, ints, factors=(a, a))
            assert FinMetricSpace._from_ints(points, ints, aa._scale).factors is None

    @settings(max_examples=60)
    @given(
        metric_spaces(1, 3, "h", st.integers(1, 8).map(lambda k: Fraction(k, 2))),
        metric_spaces(1, 3, "t", st.integers(1, 8).map(lambda k: Fraction(k, 3))),
        metric_spaces(1, 3, "s"),
    )
    def test_tensor_is_the_space_the_full_check_builds(self, halves, thirds, other):
        one = terminal()
        for left, right in [
            (halves, thirds),
            (thirds, halves),
            (other, one),
            (one, other),
            (tensor(halves, thirds), other),
            (other, tensor(thirds, one)),
            (tensor(one, halves), tensor(other, thirds)),
        ]:
            product = tensor(left, right)
            plain = FinMetricSpace(product.points, product.dist)
            assert (product.points, product._ints, product._scale) == (
                plain.points,
                plain._ints,
                plain._scale,
            )

    def test_cache_counts_calls_and_hits(self, two_point, bit_space):
        before = tensor.cache_info()
        tensor(two_point, bit_space)
        tensor(two_point, bit_space)
        after = tensor.cache_info()
        assert after.hits + after.misses == before.hits + before.misses + 2
        assert after.hits >= before.hits + 1

    def test_a_tensor_sums_its_factors_rows_once(self, monkeypatch):
        a = FinMetricSpace(("once-a0", "once-a1"), ((0, Fraction(1, 2)), (Fraction(1, 2), 0)))
        b = FinMetricSpace(("once-b0", "once-b1", "once-b2"), ((0, 1, 2), (1, 0, 1), (2, 1, 0)))
        calls = []

        def counted(*args):
            calls.append(args)
            return sum_rows(*args)

        sum_rows = metric._sum_rows
        monkeypatch.setattr(metric, "_sum_rows", counted)
        metric._tensor.cache_clear()
        product = tensor(a, b)
        assert calls == [(a, b, 2)]
        assert product.factors == (a, b)
        assert product == FinMetricSpace(product.points, product.dist)

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

    def test_table_naming_unknown_points_rejected(self, two_point):
        with pytest.raises(ValueError, match=r"table names unknown domain points: \['zz'\]"):
            ShortMap.from_mapping(two_point, two_point, {"a": "a", "b": "b", "zz": "a"})

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

    def test_rejected_draws_build_no_dist_table(self):
        rng = random.Random(0)
        x, y = random_space(rng, 4, 4, "x"), random_space(rng, 4, 4, "y")
        replay = random.Random()
        replay.setstate(rng.getstate())
        first = tuple(replay.choice(y.points) for _ in x.points)
        assert _first_long_pair(x, y, first) is not None  # the first draw is rejected
        random_short_map(rng, x, y)
        assert "dist" not in vars(x) and "dist" not in vars(y)

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

    def test_mapping_naming_unknown_points_rejected(self, two_point):
        with pytest.raises(ValueError, match=r"values name unknown points: \['typo'\]"):
            ShortFunctional.from_mapping(two_point, {"a": 1, "typo": 7})

    def test_mapping_leaves_missing_points_at_zero(self, two_point):
        assert ShortFunctional.from_mapping(two_point, {"b": 1}).values == (0, 1)

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


def _reference_axiom_error(points, dist):
    """The metric axiom checks in plain Fraction arithmetic, scanning every triple."""
    dist = [[Fraction(x) for x in row] for row in dist]
    n = len(points)
    try:
        for i in range(n):
            if dist[i][i] != 0:
                raise ValueError(f"dist({points[i]!r}, {points[i]!r}) must be 0")
            for j in range(n):
                if i != j and dist[i][j] <= 0:
                    raise ValueError(
                        f"distinct points {points[i]!r}, {points[j]!r} require "
                        f"positive distance, got {dist[i][j]}"
                    )
                if dist[i][j] != dist[j][i]:
                    raise ValueError(
                        f"asymmetric distances between {points[i]!r} and {points[j]!r}"
                    )
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if dist[i][j] > dist[i][k] + dist[k][j]:
                        raise ValueError(
                            "triangle inequality violated: "
                            f"d({points[i]!r},{points[j]!r}) = {dist[i][j]} > "
                            f"d({points[i]!r},{points[k]!r}) + d({points[k]!r},{points[j]!r}) = "
                            f"{dist[i][k] + dist[k][j]}"
                        )
    except ValueError as exc:
        return str(exc)
    return None


@st.composite
def _square_matrices(draw):
    """Small matrices that often pass the first checks, so every check is reached."""
    n = draw(st.integers(min_value=1, max_value=5))
    positive = [Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(7, 6), Fraction(2), 5]
    entries = st.sampled_from(positive if draw(st.booleans()) else [-1, 0] + positive)
    rows = [[draw(entries) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        for i in range(n):
            rows[i][i] = Fraction(0)
    if draw(st.booleans()):
        for i in range(n):
            for j in range(i):
                rows[i][j] = rows[j][i]
    return tuple(f"p{i}" for i in range(n)), tuple(tuple(row) for row in rows)


@st.composite
def _pool_spaces(draw):
    """A space of 1 to 3 points from a small pool, built by either path.

    The pool is small, so equal spaces built in different ways are common.
    The int path gets the distances over their lcm times 1 to 4, so its
    scale is often not reduced.
    """
    n = draw(st.integers(min_value=1, max_value=3))
    points = tuple(draw(st.permutations(("a", "b", "c")))[:n])
    entries = st.sampled_from((Fraction(1, 2), Fraction(1), Fraction(3, 2)))
    dist = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            dist[i][j] = dist[j][i] = draw(entries)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                dist[i][j] = min(dist[i][j], dist[i][k] + dist[k][j])
    if draw(st.booleans()):
        return FinMetricSpace(points, dist)
    scale = 2 * draw(st.integers(min_value=1, max_value=4))
    return FinMetricSpace._from_ints(points, [[int(x * scale) for x in row] for row in dist], scale)


def _axiom_error(points, dist):
    try:
        FinMetricSpace(points, dist)
    except ValueError as exc:
        return str(exc)
    return None


class TestIntegerKernel:
    @settings(max_examples=400)
    @given(_square_matrices())
    def test_integer_checks_match_the_fraction_scan(self, matrix):
        points, dist = matrix
        assert _axiom_error(points, dist) == _reference_axiom_error(points, dist)

    # messages recorded with the Fraction checks that preceded the integer kernel
    @pytest.mark.parametrize(
        "points, dist, message",
        [
            (("a", "b"), ((1, 1), (1, 0)), "dist('a', 'a') must be 0"),
            (("x",), ((Fraction(1, 2),),), "dist('x', 'x') must be 0"),
            (
                ("a", "b"),
                ((0, 0), (0, 0)),
                "distinct points 'a', 'b' require positive distance, got 0",
            ),
            (
                ("a", "b"),
                ((0, -1), (-1, 0)),
                "distinct points 'a', 'b' require positive distance, got -1",
            ),
            (
                ("a", "b"),
                ((0, -1), (2, 0)),
                "distinct points 'a', 'b' require positive distance, got -1",
            ),
            (("a", "b"), ((0, 1), (2, 0)), "asymmetric distances between 'a' and 'b'"),
            (("a", "b"), ((0, 1), (0, 0)), "asymmetric distances between 'a' and 'b'"),
            (
                ("a", "b", "c"),
                ((0, 1, 2), (3, 0, 1), (2, 1, 7)),
                "asymmetric distances between 'a' and 'b'",
            ),
            (
                ("a", "b", "c"),
                ((0, 1, 2), (1, 0, 0), (2, 0, 0)),
                "distinct points 'b', 'c' require positive distance, got 0",
            ),
            (
                ("a", "b", "c"),
                ((0, 1, 5), (1, 0, 1), (5, 1, 0)),
                "triangle inequality violated: d('a','c') = 5 > d('a','b') + d('b','c') = 2",
            ),
            (
                ("a", "b", "c", "d"),
                ((0, 1, 1, 1), (1, 0, 3, "1/3"), (1, 3, 0, "1/2"), (1, "1/3", "1/2", 0)),
                "triangle inequality violated: d('b','c') = 3 > d('b','a') + d('a','c') = 2",
            ),
            (
                (("p", 0), ("p", 1), ("q", 0)),
                (
                    (0, Fraction(1, 3), Fraction(1, 2)),
                    (Fraction(1, 3), 0, Fraction(7, 6)),
                    (Fraction(1, 2), Fraction(7, 6), 0),
                ),
                "triangle inequality violated: d(('p', 1),('q', 0)) = 7/6 > "
                "d(('p', 1),('p', 0)) + d(('p', 0),('q', 0)) = 5/6",
            ),
            (
                (0, 1, 2, 3),
                ((0, 2, 9, 4), (2, 0, 3, 1), (9, 3, 0, 1), (4, 1, 1, 0)),
                "triangle inequality violated: d(0,2) = 9 > d(0,1) + d(1,2) = 5",
            ),
        ],
    )
    def test_bad_matrix_messages(self, points, dist, message):
        with pytest.raises(ValueError) as info:
            FinMetricSpace(points, dist)
        assert str(info.value) == message

    def test_coprime_denominators(self):
        a, b = Fraction(1, 2**61 - 1), Fraction(1, 999983)
        space = FinMetricSpace(("u", "v", "w"), ((0, a, a + b), (a, 0, b), (a + b, b, 0)))
        assert space._scale == (2**61 - 1) * 999983
        assert space._ints[0][2] == 999983 + 2**61 - 1
        assert [[Fraction(x, space._scale) for x in row] for row in space._ints] == [
            list(row) for row in space.dist
        ]
        # exceeding the triangle bound by the smallest step is still caught
        tight = ((0, a, a + b + a * b), (a, 0, b), (a + b + a * b, b, 0))
        with pytest.raises(ValueError, match="triangle") as info:
            FinMetricSpace(("u", "v", "w"), tight)
        assert str(info.value) == _reference_axiom_error(("u", "v", "w"), tight)

    def test_tensor_of_different_scales_matches_fraction_sums(self):
        third = Fraction(1, 3)
        x = FinMetricSpace(("a", "b", "c"), ((0, third, 1), (third, 0, 1), (1, 1, 0)))
        y = FinMetricSpace(("u", "v"), ((0, Fraction(5, 4)), (Fraction(5, 4), 0)))
        z = FinMetricSpace(("s", "t"), ((0, Fraction(1, 999983)), (Fraction(1, 999983), 0)))
        for left, right in [(x, y), (y, x), (tensor(x, y), z), (z, tensor(y, x))]:
            product = tensor(left, right)
            nr = len(right)
            sums = tuple(
                tuple(
                    left.dist[i // nr][k // nr] + right.dist[i % nr][k % nr]
                    for k in range(len(product))
                )
                for i in range(len(product))
            )
            plain = FinMetricSpace(product.points, sums)
            assert product == plain
            assert product.dist == sums
            assert (product._ints, product._scale) == (plain._ints, plain._scale)

    def test_random_space_matches_the_fraction_closure(self):
        def fraction_closure(rng, max_points=6, min_points=2, prefix="x"):
            n = rng.randint(min_points, max_points)
            raw = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    raw[i][j] = raw[j][i] = Fraction(rng.randint(1, 24), rng.randint(1, 4))
            for k in range(n):
                for i in range(n):
                    for j in range(n):
                        through = raw[i][k] + raw[k][j]
                        if through < raw[i][j]:
                            raw[i][j] = through
            return tuple(f"{prefix}{i}" for i in range(n)), tuple(tuple(row) for row in raw)

        for seed in range(50):
            new, old = random.Random(seed), random.Random(seed)
            for _ in range(3):
                space = random_space(new)
                assert (space.points, space.dist) == fraction_closure(old)
            assert new.random() == old.random()

    def test_cached_fields_take_no_part_in_eq_hash_or_repr(self):
        # equality and hashing read _ints and _scale, which are canonical, so
        # they agree with (points, dist): see test_equality_reads_the_canonical_ints
        exact = FinMetricSpace(("a", "b"), ((0, Fraction(3, 2)), (Fraction(3, 2), 0)))
        parsed = FinMetricSpace(("a", "b"), (("0", "3/2"), ("3/2", "0")))
        assert exact == parsed and hash(exact) == hash(parsed)
        assert repr(exact) == repr(parsed)
        assert "_ints" not in repr(exact) and "_scale" not in repr(exact)
        assert repr(exact) == (
            "FinMetricSpace(points=('a', 'b'), dist=((Fraction(0, 1), Fraction(3, 2)), "
            "(Fraction(3, 2), Fraction(0, 1))), factors=None)"
        )

    @settings(max_examples=300)
    @given(_pool_spaces(), _pool_spaces())
    def test_equality_reads_the_canonical_ints(self, a, b):
        assert (a == b) == ((a.points, a.dist) == (b.points, b.dist))
        if a == b:
            assert hash(a) == hash(b)

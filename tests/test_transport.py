import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from kantorovich import (
    FinMetricSpace,
    Measure,
    TransportPlan,
    dirac,
    integrate,
    pushforward,
    uniform,
    wasserstein,
    wasserstein_distance,
    wasserstein_oracle,
)
from kantorovich import jsonio
from kantorovich.generate import (
    random_measure,
    random_measure_with_support,
    random_short_map,
    random_space,
)
from kantorovich.jsonio import format_fraction

from strategies import metric_spaces


class TestPlanInvariants:
    def test_bad_row_sums_rejected(self, two_point):
        p = uniform(two_point)
        with pytest.raises(ValueError, match="row 0"):
            TransportPlan(p, p, ((1, 0), (0, 0)), 0)

    def test_bad_column_sums_rejected(self, two_point):
        p = uniform(two_point)
        q = Measure(two_point, (Fraction(1), Fraction(0)))
        with pytest.raises(ValueError, match="column"):
            TransportPlan(p, q, ((Fraction(1, 2), 0), (0, Fraction(1, 2))), 0)

    def test_negative_entry_rejected(self, two_point):
        p = uniform(two_point)
        with pytest.raises(ValueError, match="nonnegative"):
            TransportPlan(
                p, p, ((1, Fraction(-1, 2)), (Fraction(-1, 2), 1)), 0
            )

    def test_wrong_cost_rejected(self, two_point):
        p = uniform(two_point)
        diag = ((Fraction(1, 2), 0), (0, Fraction(1, 2)))
        with pytest.raises(ValueError, match="stated cost"):
            TransportPlan(p, p, diag, 1)


    def test_messages_and_conversion(self):
        # messages recorded with the check that summed every cell in Fraction
        two = FinMetricSpace(("a", "b"), ((0, Fraction(3, 2)), (Fraction(3, 2), 0)))
        p, q = uniform(two), Measure(two, (Fraction(1), Fraction(0)))
        half = Fraction(1, 2)
        for args, message in [
            ((p, p, ((0, 0), (half, half)), 0), "row 0 sums to 0, expected 1/2"),
            ((p, q, ((half, 0), (0, half)), 0), "column 0 sums to 1/2, expected 1"),
            ((p, q, ((half, 0), (half, 0)), 1), "stated cost 1 differs from actual 3/4"),
            ((p, q, ((0.5, 0), (0.5, 0)), 0), "stated cost 0 differs from actual 3/4"),
        ]:
            with pytest.raises(ValueError) as info:
                TransportPlan(*args)
            assert str(info.value) == message
        plan = TransportPlan(p, q, (("1/2", 0), (half, 0)), "3/4")
        assert plan.coupling == ((half, 0), (half, 0)) and plan.cost == Fraction(3, 4)
        assert all(type(x) is Fraction for row in plan.coupling for x in row)
        assert type(plan.cost) is Fraction


class TestWassersteinExamples:
    def test_identical_measures(self, three_point):
        p = uniform(three_point)
        value, plan, witness = wasserstein(p, p)
        assert value == 0
        assert plan.coupling == (
            (Fraction(1, 3), 0, 0),
            (0, Fraction(1, 3), 0),
            (0, 0, Fraction(1, 3)),
        )
        assert witness.potential.values == (0, 0, 0)

    def test_dirac_to_dirac_is_distance(self, three_point):
        for x in three_point.points:
            for y in three_point.points:
                value, plan, _ = wasserstein(
                    dirac(three_point, x), dirac(three_point, y)
                )
                assert value == three_point.distance(x, y)
                assert plan.coupling[three_point.index(x)][three_point.index(y)] == 1

    def test_point_mass_to_uniform_is_half(self, two_point):
        # the only feasible coupling moves half the mass across distance 1
        p = Measure(two_point, (Fraction(1), Fraction(0)))
        q = uniform(two_point)
        value, plan, witness = wasserstein(p, q)
        assert value == Fraction(1, 2)
        assert plan.coupling == ((Fraction(1, 2), Fraction(1, 2)), (0, 0))
        assert integrate(witness.potential, p) - integrate(witness.potential, q) == value

    def test_space_mismatch(self, two_point, three_point):
        with pytest.raises(ValueError, match="different spaces"):
            wasserstein(uniform(two_point), uniform(three_point))

    def test_witness_normalized_at_first_point(self):
        rng = random.Random(3)
        for _ in range(20):
            space = random_space(rng, 5)
            _, _, witness = wasserstein(
                random_measure(rng, space), random_measure(rng, space)
            )
            assert witness.potential.values[0] == 0


class TestDuality:
    def test_primal_equals_dual_on_random_instances(self):
        rng = random.Random(8)
        for _ in range(50):
            space = random_space(rng, 6)
            p, q = random_measure(rng, space), random_measure(rng, space)
            value, plan, witness = wasserstein(p, q)
            attained = integrate(witness.potential, p) - integrate(witness.potential, q)
            assert attained == value == plan.cost

    @given(metric_spaces(max_points=4))
    @settings(max_examples=25, deadline=None)
    def test_witness_is_short_by_construction(self, space):
        rng = random.Random(19)
        p, q = random_measure(rng, space), random_measure(rng, space)
        _, _, witness = wasserstein(p, q)
        d = space.dist
        vals = witness.potential.values
        for i in range(len(space)):
            for j in range(len(space)):
                assert abs(vals[i] - vals[j]) <= d[i][j]


class TestMetricProperties:
    def test_symmetry_triangle_identity(self):
        rng = random.Random(4)
        for _ in range(25):
            space = random_space(rng, 5)
            p = random_measure(rng, space)
            q = random_measure(rng, space)
            r = random_measure(rng, space)
            pq = wasserstein_distance(p, q)
            assert pq == wasserstein_distance(q, p)
            assert wasserstein_distance(p, r) <= pq + wasserstein_distance(q, r)
            assert (pq == 0) == (p == q)

    def test_pushforward_contraction(self):
        rng = random.Random(6)
        for _ in range(25):
            x = random_space(rng, 5, prefix="x")
            y = random_space(rng, 5, prefix="y")
            f = random_short_map(rng, x, y)
            p, q = random_measure(rng, x), random_measure(rng, x)
            assert wasserstein_distance(
                pushforward(f, p), pushforward(f, q)
            ) <= wasserstein_distance(p, q)


class TestOracle:
    def test_agrees_with_simplex(self):
        rng = random.Random(12)
        for _ in range(60):
            space = random_space(rng, 4)
            p, q = random_measure(rng, space), random_measure(rng, space)
            assert wasserstein_distance(p, q) == wasserstein_oracle(p, q)

    def test_dirac_to_dirac(self, three_point):
        assert wasserstein_oracle(
            dirac(three_point, "p"), dirac(three_point, "r")
        ) == three_point.distance("p", "r")

    def test_identical(self, three_point):
        p = uniform(three_point)
        assert wasserstein_oracle(p, p) == 0

    def test_instance_too_large(self):
        big = FinMetricSpace(
            tuple(f"n{i}" for i in range(5)),
            tuple(
                tuple(Fraction(0) if i == j else Fraction(1) for j in range(5))
                for i in range(5)
            ),
        )
        with pytest.raises(ValueError, match="support"):
            wasserstein_oracle(uniform(big), uniform(big))


def _full_support_measure(rng, space):
    raw = [rng.randint(1, 64) for _ in space.points]
    total = sum(raw)
    return Measure(space, tuple(Fraction(x, total) for x in raw))


def _measure_on_weights(space, weights):
    return Measure(
        space, tuple(Fraction(weights.get(i, 0)) for i in range(len(space)))
    )


def _measure_on(rng, space, indices):
    raw = {i: rng.randint(1, 64) for i in indices}
    total = sum(raw.values())
    return _measure_on_weights(space, {i: Fraction(x, total) for i, x in raw.items()})


def _sha256(payload):
    return hashlib.sha256(jsonio.dumps(payload).encode()).hexdigest()


# sha256 digests. The full-support one pins values, couplings and witnesses;
# these are canonical (the greatest optimal witness that is 0 at the first
# point, and a fixed flow on its tight cells), so it holds for any pivot rule.
# The sparse one, recorded with the Fraction-pivoting solver that kept every
# point as a node, pins the values only.
FULL_SUPPORT_DIGEST = "d877654e5159c47bc164586a2a2cd1df0274c1ad7552eb05f1eaad7a2a7d00f3"
SPARSE_VALUES_DIGEST = "5a2ee70c650de8d2d45894e7ba0ebcde653521650d3ccc80e0cd1eb619f8194f"


class TestGoldenSolves:
    def test_full_support_golden_digest(self):
        rng = random.Random(2024)
        payload = []
        for n in (8, 16, 24, 32):
            for _ in range(2):
                space = random_space(rng, n, min_points=n)
                p = _full_support_measure(rng, space)
                q = _full_support_measure(rng, space)
                value, plan, witness = wasserstein(p, q)
                payload.append(
                    [
                        format_fraction(value),
                        [[format_fraction(x) for x in row] for row in plan.coupling],
                        [format_fraction(x) for x in witness.potential.values],
                    ]
                )
        assert _sha256(payload) == FULL_SUPPORT_DIGEST

    def test_sparse_values_golden_digest(self):
        rng = random.Random(2025)
        values = []
        for _ in range(12):
            space = random_space(rng, 24, min_points=24)
            p = random_measure_with_support(rng, space, 6)
            q = random_measure_with_support(rng, space, 6)
            values.append(format_fraction(wasserstein_distance(p, q)))
        assert _sha256(values) == SPARSE_VALUES_DIGEST


class TestSupportsOnly:
    """Small supports on large spaces: the solver sees only the supports."""

    @staticmethod
    def _spaces(rng):
        return [random_space(rng, 24, min_points=16) for _ in range(4)]

    def test_random_small_supports_match_oracle(self):
        rng = random.Random(31)
        for space in self._spaces(rng):
            for _ in range(10):
                p = random_measure_with_support(rng, space, 4)
                q = random_measure_with_support(rng, space, 4)
                assert wasserstein_distance(p, q) == wasserstein_oracle(p, q)

    def test_disjoint_supports_match_oracle(self):
        rng = random.Random(32)
        for space in self._spaces(rng):
            for _ in range(5):
                chosen = rng.sample(range(len(space)), 8)
                p = _measure_on(rng, space, chosen[: rng.randint(1, 4)])
                q = _measure_on(rng, space, chosen[4 : 4 + rng.randint(1, 4)])
                assert wasserstein_distance(p, q) == wasserstein_oracle(p, q)

    def test_dirac_to_dirac_is_distance(self):
        rng = random.Random(33)
        for space in self._spaces(rng):
            x, y = rng.sample(space.points, 2)
            p, q = dirac(space, x), dirac(space, y)
            assert wasserstein_distance(p, q) == space.distance(x, y)
            assert wasserstein_oracle(p, q) == space.distance(x, y)

    def test_single_point_source_matches_oracle(self):
        rng = random.Random(34)
        for space in self._spaces(rng):
            x = rng.choice(space.points)
            p = dirac(space, x)
            q = random_measure_with_support(rng, space, 4)
            value = wasserstein_distance(p, q)
            assert value == wasserstein_oracle(p, q)
            # all of p's mass moves to q, so the value is q's mean distance
            assert value == sum(
                w * space.distance(x, pt)
                for pt, w in zip(space.points, q.weights)
            )

    def test_large_coprime_denominators_match_oracle(self):
        rng = random.Random(35)
        eps = Fraction(1, 2**61 - 1)
        delta = Fraction(1, 2**31 - 1)
        for base in self._spaces(rng):
            # a positive multiple of a metric is a metric; this one brings
            # distance denominators coprime to both weight denominators
            scale = Fraction(1000003, 999983)
            space = FinMetricSpace(
                base.points, tuple(tuple(x * scale for x in row) for row in base.dist)
            )
            for _ in range(3):
                a, b, c, d = rng.sample(range(len(space)), 4)
                p = _measure_on_weights(space, {a: eps, b: 1 - eps})
                q = _measure_on_weights(space, {c: delta, d: 1 - 2 * delta, a: delta})
                value = wasserstein_distance(p, q)
                assert value == wasserstein_oracle(p, q)
                assert value.denominator > 2**61

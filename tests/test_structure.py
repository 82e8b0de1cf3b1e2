import random
from fractions import Fraction

import pytest

from kantorovich import (
    FinMetricSpace,
    InternalMonoid,
    Law,
    Measure,
    ShortMap,
    associator,
    bang,
    braiding,
    convolve,
    dirac,
    identity,
    independent_maps,
    is_independent,
    is_independent_family,
    law_product,
    marginals,
    marginals_n,
    product,
    product_n,
    proj1,
    pushforward,
    pushforward_joint,
    strength,
    tensor,
    terminal,
    tupling_table,
    uniform,
    unitor_right,
    wasserstein_distance,
)
from kantorovich.generate import cyclic_monoid, min_monoid, random_measure


class TestProduct:
    def test_uniform_quarter_weights(self, two_point, bit_space):
        joint = product(uniform(two_point), uniform(bit_space))
        assert joint.weights == (Fraction(1, 4),) * 4

    def test_product_of_diracs(self, two_point, bit_space):
        assert product(dirac(two_point, "a"), dirac(bit_space, "1")) == dirac(
            tensor(two_point, bit_space), ("a", "1")
        )

    def test_unit_measure_is_neutral(self, three_point):
        rng = random.Random(1)
        p = random_measure(rng, three_point)
        lifted = product(p, dirac(terminal(), "*"))
        assert pushforward(unitor_right(three_point), lifted) == p

    def test_joint_is_short_for_the_sum_metric_and_not_for_the_max(self, bit_space):
        """The monad is bimonoidal for the l1 tensor, not the cartesian product.

        With p = (d0 + d1)/2 and p' = d0 on {0, 1} at distance 1, W1(p, p') is
        1/2. On the tensor, W1(p x p, p' x p') = 1, the sum of the two. With
        the max metric on the same four points (the cartesian product in Met),
        W1(p x p, p' x p') = E max = 3/4 > 1/2 = max(W1(p, p'), W1(p, p')),
        so there the joint map is not short.
        """
        p, p_ = uniform(bit_space), dirac(bit_space, "0")
        assert wasserstein_distance(p, p_) == Fraction(1, 2)
        joint, joint_ = product(p, p), product(p_, p_)
        assert wasserstein_distance(joint, joint_) == 1
        square = joint.space.points
        cartesian = FinMetricSpace(
            square,
            tuple(tuple(int(a != c or b != d) for c, d in square) for a, b in square),
        )
        at_max = wasserstein_distance(
            Measure(cartesian, joint.weights), Measure(cartesian, joint_.weights)
        )
        assert at_max == Fraction(3, 4) > Fraction(1, 2)


class TestMarginals:
    def test_of_product(self, two_point, three_point):
        rng = random.Random(2)
        p = random_measure(rng, two_point)
        q = random_measure(rng, three_point)
        assert marginals(product(p, q)) == (p, q)

    def test_of_dirac(self, two_point, bit_space):
        joint = dirac(tensor(two_point, bit_space), ("b", "0"))
        assert marginals(joint) == (dirac(two_point, "b"), dirac(bit_space, "0"))

    def test_correlated_marginals_are_uniform(self, correlated_pair, bit_space):
        assert marginals(correlated_pair) == (uniform(bit_space), uniform(bit_space))

    def test_requires_tensor_metadata(self, two_point):
        with pytest.raises(ValueError, match="factorization"):
            marginals(uniform(two_point))


class TestIndependence:
    def test_products_are_independent(self, two_point, three_point):
        rng = random.Random(3)
        for _ in range(10):
            joint = product(
                random_measure(rng, two_point), random_measure(rng, three_point)
            )
            assert is_independent(joint)

    def test_correlated_pair_is_not(self, correlated_pair):
        assert not is_independent(correlated_pair)
        back = product(*marginals(correlated_pair))
        assert back.weights == (Fraction(1, 4),) * 4
        assert back != correlated_pair

    def test_dirac_marginal_forces_independence(self, two_point, three_point):
        rng = random.Random(4)
        space = tensor(two_point, three_point)
        for _ in range(10):
            x = rng.choice(two_point.points)
            raw = [rng.randint(1, 9) for _ in three_point.points]
            total = sum(raw)
            r = Measure.from_mapping(
                space,
                {(x, y): Fraction(n, total) for y, n in zip(three_point.points, raw)},
            )
            assert is_independent(r)


class TestFamilies:
    def test_arity_one_is_identity(self, two_point):
        p = uniform(two_point)
        assert product_n([p]) == p
        assert marginals_n(p, 1) == [p]

    def test_triple_of_diracs(self, two_point, bit_space, three_point):
        joint = product_n(
            [dirac(two_point, "a"), dirac(bit_space, "1"), dirac(three_point, "q")]
        )
        expected_space = tensor(tensor(two_point, bit_space), three_point)
        assert joint == dirac(expected_space, (("a", "1"), "q"))

    def test_family_independence_of_products(self, two_point, bit_space, three_point):
        rng = random.Random(5)
        ms = [
            random_measure(rng, two_point),
            random_measure(rng, bit_space),
            random_measure(rng, three_point),
        ]
        joint = product_n(ms)
        assert is_independent_family(joint, 3)
        assert marginals_n(joint, 3) == ms

    def test_correlated_family_detected(self, correlated_pair):
        assert not is_independent_family(correlated_pair, 2)

    def test_arity_errors(self, two_point):
        with pytest.raises(ValueError, match="at least 1"):
            marginals_n(uniform(two_point), 0)
        with pytest.raises(ValueError, match="factorization"):
            marginals_n(uniform(two_point), 2)


class TestStrength:
    def test_with_dirac(self, two_point, bit_space):
        st = strength("a", dirac(bit_space, "0"), two_point)
        assert st == dirac(tensor(two_point, bit_space), ("a", "0"))

    def test_marginals(self, two_point, three_point):
        rng = random.Random(6)
        q = random_measure(rng, three_point)
        st = strength("b", q, two_point)
        assert marginals(st) == (dirac(two_point, "b"), q)

    def test_braided(self, two_point, three_point):
        rng = random.Random(7)
        q = random_measure(rng, three_point)
        st = strength("a", q, two_point)
        swapped = pushforward(braiding(two_point, three_point), st)
        assert swapped == product(q, dirac(two_point, "a"))


class TestPushforwardJoint:
    def test_projection_recovers_factor(self, two_point, three_point):
        rng = random.Random(8)
        p = random_measure(rng, two_point)
        q = random_measure(rng, three_point)
        assert pushforward_joint(proj1(two_point, three_point), p, q) == p

    def test_constant_map_gives_dirac(self, two_point, three_point):
        rng = random.Random(9)
        p = random_measure(rng, two_point)
        q = random_measure(rng, three_point)
        const = ShortMap(
            tensor(two_point, three_point),
            three_point,
            ("q",) * 6,
        )
        assert pushforward_joint(const, p, q) == dirac(three_point, "q")

    def test_monoid_addition_of_diracs(self):
        m = cyclic_monoid(5)
        p = dirac(m.carrier, "g2")
        q = dirac(m.carrier, "g4")
        assert pushforward_joint(m.mult, p, q) == dirac(m.carrier, "g1")

    def test_domain_mismatch(self, two_point, three_point):
        with pytest.raises(ValueError, match="tensor"):
            pushforward_joint(identity(two_point), uniform(two_point), uniform(three_point))


class TestInternalMonoid:
    def test_non_associative_rejected(self):
        # left projection except a*a = b: then (a*a)*a = b*a = b but a*(a*a) = a*b = a
        space = FinMetricSpace(("e", "a", "b"), ((0, 1, 1), (1, 0, 1), (1, 1, 0)))
        dom = tensor(space, space)
        table = {}
        for x, y in dom.points:
            if x == "e":
                table[(x, y)] = y
            elif y == "e":
                table[(x, y)] = x
            elif (x, y) == ("a", "a"):
                table[(x, y)] = "b"
            else:
                table[(x, y)] = x
        mult = ShortMap.from_mapping(dom, space, table)
        with pytest.raises(ValueError, match="associativity"):
            InternalMonoid(space, mult, "e")

    def test_wrong_unit_rejected(self):
        m = cyclic_monoid(3)
        with pytest.raises(ValueError, match="unit law"):
            InternalMonoid(m.carrier, m.mult, "g1")

    def test_library_monoids_verify(self):
        cyclic_monoid(2)
        cyclic_monoid(4, Fraction(5, 2))
        min_monoid(3)
        min_monoid(4, Fraction(1, 3))


class TestConvolution:
    def test_unit_is_neutral(self):
        rng = random.Random(10)
        for m in (cyclic_monoid(3), min_monoid(3)):
            p = random_measure(rng, m.carrier)
            e = dirac(m.carrier, m.unit)
            assert convolve(e, p, m) == p
            assert convolve(p, e, m) == p

    def test_diracs_convolve_to_product_point(self):
        for m in (cyclic_monoid(2), cyclic_monoid(3), min_monoid(3)):
            for x in m.carrier.points:
                for y in m.carrier.points:
                    got = convolve(dirac(m.carrier, x), dirac(m.carrier, y), m)
                    assert got == dirac(m.carrier, m.apply(x, y))

    def test_uniform_on_cyclic_group_is_absorbing(self):
        # direct double-sum oracle: each output point collects mass 1/3
        m = cyclic_monoid(3)
        u = uniform(m.carrier)
        p = Measure(m.carrier, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))
        out = convolve(u, p, m)
        expected = [Fraction(0)] * 3
        for i, wu in enumerate(u.weights):
            for j, wp in enumerate(p.weights):
                k = m.carrier.index(m.apply(f"g{i}", f"g{j}"))
                expected[k] += wu * wp
        assert out.weights == tuple(expected)
        assert out == uniform(m.carrier)

    def test_no_inverses_on_two_point_group(self):
        # the uniform measure never convolves back to a Dirac
        m = cyclic_monoid(2)
        u = uniform(m.carrier)
        diracs = {dirac(m.carrier, pt) for pt in m.carrier.points}
        for num in range(0, 7):
            q = Measure(m.carrier, (Fraction(num, 6), Fraction(6 - num, 6)))
            assert convolve(u, q, m) == u
            assert convolve(u, q, m) not in diracs

    def test_carrier_mismatch(self, two_point):
        m = cyclic_monoid(2)
        with pytest.raises(ValueError, match="carrier"):
            convolve(uniform(two_point), uniform(m.carrier), m)


class TestLawProduct:
    def test_marginals_recover_inputs(self, two_point, three_point):
        rng = random.Random(11)
        r = Law(two_point, random_measure(rng, two_point))
        s = Law(three_point, random_measure(rng, three_point))
        combined = law_product(r, s)
        assert marginals(combined.measure) == (r.measure, s.measure)

    def test_terminal_law_is_neutral(self, two_point):
        rng = random.Random(12)
        r = Law(two_point, random_measure(rng, two_point))
        one = Law(terminal(), dirac(terminal(), "*"))
        combined = law_product(r, one)
        assert pushforward(unitor_right(two_point), combined.measure) == r.measure

    def test_associative_after_reassociation(self, two_point, bit_space, three_point):
        rng = random.Random(13)
        laws = [
            Law(two_point, random_measure(rng, two_point)),
            Law(bit_space, random_measure(rng, bit_space)),
            Law(three_point, random_measure(rng, three_point)),
        ]
        left = law_product(law_product(laws[0], laws[1]), laws[2])
        right = law_product(laws[0], law_product(laws[1], laws[2]))
        reassociated = pushforward(
            associator(two_point, bit_space, three_point), left.measure
        )
        assert reassociated == right.measure


class TestIndependentMaps:
    def test_trivial_second_observable(self, two_point, three_point):
        rng = random.Random(14)
        space = tensor(two_point, three_point)
        s = Law(space, random_measure(rng, space))
        assert independent_maps(s, proj1(two_point, three_point), bang(space))

    def test_identity_pair_on_non_dirac_law(self, two_point):
        s = Law(two_point, uniform(two_point))
        assert not independent_maps(s, identity(two_point), identity(two_point))

    def test_dirac_law_always_independent(self, two_point):
        rng = random.Random(15)
        s = Law(two_point, dirac(two_point, "a"))
        f = identity(two_point)
        g = identity(two_point)
        assert independent_maps(s, f, g)

    def test_diagonal_tupling_not_short_but_reported(self, two_point):
        # doubling a coordinate doubles distances under the sum metric
        _, _, short = tupling_table(identity(two_point), identity(two_point))
        assert not short

    def test_domain_mismatch(self, two_point, three_point):
        s = Law(two_point, uniform(two_point))
        with pytest.raises(ValueError, match="law's space"):
            independent_maps(s, identity(three_point), identity(two_point))

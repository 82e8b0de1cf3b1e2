"""The integer paths of measures and functionals against plain Fraction loops.

Every property below recomputes a result with ``Fraction`` arithmetic in the
test itself and compares it with what the package computes on ints.
"""

from fractions import Fraction
from itertools import chain
from math import lcm

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from kantorovich import (
    FinMetricSpace,
    Measure,
    NestedMeasure,
    ShortFunctional,
    ShortMap,
    TransportPlan,
    diracs_nested,
    expectation,
    integrate,
    marginals,
    merge_duplicates,
    nested_distance,
    partial_integral,
    product,
    pushforward,
    pushforward_nested,
    sum_functional,
    tensor,
    unit_nested,
    wasserstein,
)
from kantorovich.generate import random_short_map
from kantorovich.metric import _OnFirstRead, _over

from strategies import functionals_on, metric_spaces

# small denominators plus a Mersenne prime and a prime near a million, so
# the common denominators of these weights are products of coprime parts
DENOMINATORS = (1, 2, 3, 4, 6, 7, 12, 999983, 2**61 - 1)

_rationals = st.builds(
    Fraction, st.integers(min_value=0, max_value=2**62), st.sampled_from(DENOMINATORS)
)


@st.composite
def weight_tables(draw, n):
    """Nonnegative rationals summing to 1, with mixed coprime denominators."""
    raw = draw(st.lists(_rationals, min_size=n, max_size=n).filter(lambda xs: sum(xs) > 0))
    total = sum(raw)
    return tuple(x / total for x in raw)


@st.composite
def measures_on(draw, space):
    return Measure(space, draw(weight_tables(len(space))))


@st.composite
def near_misses(draw, n):
    """Weight tables that are valid, or off by a sign, a unit or one entry."""
    weights = list(draw(weight_tables(n)))
    kind = draw(st.sampled_from(("valid", "negative", "sum", "length")))
    i = draw(st.integers(min_value=0, max_value=n - 1))
    if kind == "negative":
        weights[i] = -draw(_rationals) - Fraction(1, draw(st.sampled_from(DENOMINATORS)))
    elif kind == "sum":
        sign = draw(st.sampled_from((-1, 1)))
        weights[i] += Fraction(sign, draw(st.sampled_from(DENOMINATORS)))
    elif kind == "length":
        weights.append(Fraction(0))
    return tuple(weights)


def _verdict(make):
    try:
        make()
    except ValueError as exc:
        return str(exc)
    return None


def _measure_verdict(space, weights):
    """Measure's construction checks as a plain Fraction loop."""
    weights = tuple(Fraction(w) for w in weights)
    if len(weights) != len(space):
        return "need one weight per point of the space"
    for p, w in zip(space.points, weights):
        if w < 0:
            return f"negative weight {w} at {p!r}"
    total = sum(weights)
    if total != 1:
        return f"weights sum to {total}, expected exactly 1"
    return None


def _functional_verdict(space, values):
    """ShortFunctional's construction checks as a plain Fraction loop."""
    values = tuple(Fraction(v) for v in values)
    if len(values) != len(space):
        return "functional must assign a value to every point"
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            gap = abs(values[i] - values[j])
            if gap > space.dist[i][j]:
                return (
                    "functional is not short: "
                    f"|f({space.points[i]!r}) - f({space.points[j]!r})| = {gap} > "
                    f"d = {space.dist[i][j]}"
                )
    return None


@st.composite
def spaces_with_weights(draw):
    space = draw(metric_spaces(1, 4))
    return space, draw(near_misses(len(space)))


class TestMeasureConstruction:
    @given(spaces_with_weights())
    @settings(max_examples=100)
    def test_same_verdict_and_message(self, case):
        space, weights = case
        assert _verdict(lambda: Measure(space, weights)) == _measure_verdict(space, weights)

    @given(spaces_with_weights(), st.sampled_from(DENOMINATORS))
    @settings(max_examples=100)
    def test_units_path_agrees_with_the_fraction_path(self, case, extra):
        space, weights = case
        denom = lcm(*(Fraction(w).denominator for w in weights)) * extra
        units = [int(w * denom) for w in weights]
        expected = _measure_verdict(space, weights)
        assert _verdict(lambda: Measure._from_units(space, units, denom)) == expected
        if expected is None:
            fast, slow = Measure._from_units(space, units, denom), Measure(space, weights)
            assert fast == slow and hash(fast) == hash(slow)
            assert fast.weights == slow.weights
            assert (fast._units, fast._denom) == (slow._units, slow._denom)
            assert fast._denom == lcm(*(w.denominator for w in slow.weights))

    def test_negative_unit_names_the_weight(self, two_point):
        # the message reads weights, which an int-built measure makes from
        # _units on first read, so the check must come after _units is set
        expected = "negative weight -1/3 at 'b'"
        assert _verdict(lambda: Measure(two_point, (Fraction(4, 3), Fraction(-1, 3)))) == expected
        assert _verdict(lambda: Measure._from_units(two_point, (4, -1), 3)) == expected

    @pytest.mark.parametrize("denom", [2**61 - 1, 999983])
    def test_coprime_denominators(self, two_point, denom):
        other = 999983 if denom != 999983 else 2**61 - 1
        weights = (Fraction(1, denom), 1 - Fraction(1, denom))
        assert Measure(two_point, weights).weights == weights
        off = (Fraction(1, denom), 1 - Fraction(1, other))
        expected = _measure_verdict(two_point, off)
        assert expected is not None and _verdict(lambda: Measure(two_point, off)) == expected
        negative = (Fraction(-1, denom), 1 + Fraction(1, denom))
        assert _verdict(lambda: Measure(two_point, negative)) == (
            f"negative weight -1/{denom} at 'a'"
        )


# fewer examples than the default, since each draws two spaces and their measures
class TestMeasureMaps:
    @given(st.data())
    @settings(max_examples=50)
    def test_product(self, data):
        x, y = data.draw(metric_spaces(1, 3, "x")), data.draw(metric_spaces(1, 3, "y"))
        p, q = data.draw(measures_on(x)), data.draw(measures_on(y))
        joint = product(p, q)
        assert joint.weights == tuple(a * b for a in p.weights for b in q.weights)
        assert joint == Measure(tensor(x, y), joint.weights)

    @given(st.data())
    @settings(max_examples=50)
    def test_marginals(self, data):
        x, y = data.draw(metric_spaces(1, 3, "x")), data.draw(metric_spaces(1, 3, "y"))
        xy = tensor(x, y)
        r = data.draw(measures_on(xy))
        wx, wy = [Fraction(0)] * len(x), [Fraction(0)] * len(y)
        for (a, b), w in zip(xy.points, r.weights):
            wx[x.index(a)] += w
            wy[y.index(b)] += w
        px, py = marginals(r)
        assert (px.weights, py.weights) == (tuple(wx), tuple(wy))

    @given(st.data())
    @settings(max_examples=50)
    def test_pushforward(self, data):
        x, y = data.draw(metric_spaces(1, 4, "x")), data.draw(metric_spaces(1, 4, "y"))
        f = random_short_map(data.draw(st.randoms(use_true_random=False)), x, y)
        p = data.draw(measures_on(x))
        out = [Fraction(0)] * len(y)
        for a, w in zip(x.points, p.weights):
            out[y.index(f(a))] += w
        assert pushforward(f, p).weights == tuple(out)

    @given(st.data())
    @settings(max_examples=50)
    def test_integrate(self, data):
        x = data.draw(metric_spaces(1, 4))
        f, p = data.draw(functionals_on(x)), data.draw(measures_on(x))
        expected = sum((v * w for v, w in zip(f.values, p.weights)), start=Fraction(0))
        assert integrate(f, p) == expected and isinstance(integrate(f, p), Fraction)

    @given(st.data())
    @settings(max_examples=50)
    def test_partial_integral(self, data):
        x, y = data.draw(metric_spaces(1, 3, "x")), data.draw(metric_spaces(1, 3, "y"))
        f = data.draw(functionals_on(tensor(x, y)))
        p = data.draw(measures_on(x))
        expected = tuple(
            sum(
                (w * f((a, b)) for a, w in zip(x.points, p.weights)),
                start=Fraction(0),
            )
            for b in y.points
        )
        assert partial_integral(f, p).values == expected

    @given(st.data())
    @settings(max_examples=50)
    def test_expectation(self, data):
        x = data.draw(metric_spaces(1, 4))
        k = data.draw(st.integers(min_value=1, max_value=3))
        inner = tuple(data.draw(measures_on(x)) for _ in range(k))
        outer = data.draw(weight_tables(k))
        totals = [Fraction(0)] * len(x)
        for m, w in zip(inner, outer):
            for i, v in enumerate(m.weights):
                totals[i] += w * v
        assert expectation(NestedMeasure(x, inner, outer)).weights == tuple(totals)


class TestFunctionalConstruction:
    @given(
        st.data(),
        st.lists(
            st.fractions(min_value=-6, max_value=6, max_denominator=12),
            min_size=1,
            max_size=5,
        ),
    )
    @settings(max_examples=100)
    def test_same_verdict_and_message(self, data, values):
        space = data.draw(metric_spaces(1, 4))
        values = tuple(values[: len(space)])
        expected = _functional_verdict(space, values)
        assert _verdict(lambda: ShortFunctional(space, values)) == expected

    @given(st.data())
    def test_short_values_pass_through_the_units_path(self, data):
        space = data.draw(metric_spaces(1, 4))
        f = data.draw(functionals_on(space))
        scale = lcm(*(v.denominator for v in f.values)) * 999983
        same = ShortFunctional._from_units(space, [int(v * scale) for v in f.values], scale)
        assert same == f and same._denom == f._denom


def _fractions_only(table) -> bool:
    return all(type(x) is Fraction for x in table)


# every object makes its Fraction table on first read; these hold each such
# table to _over on the ints, and to a Fraction loop
class TestFirstRead:
    def test_no_table_until_read(self):
        # labels no other test uses, so the tensor cache hands back a fresh space
        x = FinMetricSpace(("first-read-a", "first-read-b"), ((0, 1), (1, 0)))
        y = FinMetricSpace(("first-read-c",), ((0,),))
        thirds = (Fraction(1, 3), Fraction(2, 3))
        p, q = Measure(x, thirds), Measure(y, (1,))
        f = ShortFunctional(x, (0, 1))
        joint = product(p, q)
        diagonal = ((thirds[0], 0), (0, thirds[1]))
        # (object, its table, the entries it was given or computed from), first
        # from each public constructor, then from ints
        cases = [
            (x, "dist", ((0, 1), (1, 0))),
            (p, "weights", thirds),
            (f, "values", (0, 1)),
            (NestedMeasure(x, (p, p), ("1/4", 0.75)), "weights", (Fraction(1, 4), Fraction(3, 4))),
            (TransportPlan(p, p, diagonal, 0), "coupling", diagonal),
            (joint.space, "dist", ((0, 1), (1, 0))),
            (joint, "weights", thirds),
            (sum_functional(f, ShortFunctional(y, (0,))), "values", (0, 1)),
            (wasserstein(p, p)[1], "coupling", diagonal),
        ]
        for obj, name, entries in cases:
            assert name not in vars(obj), (type(obj).__name__, name)
            table = getattr(obj, name)
            assert vars(obj)[name] is table is getattr(obj, name), name
            flat = [x for row in table for x in row] if name in ("dist", "coupling") else table
            assert table == entries and _fractions_only(flat), (type(obj).__name__, name)

        # equal objects of each type built from ints, at different scales and,
        # for the plans, with their cells in another order
        points = ("first-read-d", "first-read-e")
        u = FinMetricSpace._from_ints(points, ((0, 2), (2, 0)), 3)
        v = FinMetricSpace._from_ints(points, ((0, 4), (4, 0)), 6)
        pu, pv = Measure._from_units(u, (1, 2), 3), Measure._from_units(v, (2, 4), 6)
        pairs = [
            (u, v),
            (pu, pv),
            (ShortFunctional._from_units(u, (0, 1), 3), ShortFunctional._from_units(v, (0, 2), 6)),
            (diracs_nested(pu), diracs_nested(pv)),
            (
                TransportPlan(pu, pu, None, 0, (((0, 0, 1), (1, 1, 2)), 3)),
                TransportPlan(pv, pv, None, 0, (((1, 1, 4), (0, 0, 2)), 6)),
            ),
        ]
        for a, b in pairs:
            assert a == b and hash(a) == hash(b), type(a).__name__
        mu, nu = pairs[3]
        flip = ShortMap(u, u, points[::-1])
        made = [
            unit_nested(pu),
            pushforward_nested(flip, mu),
            merge_duplicates(mu),
        ]
        assert nested_distance(mu, nu) == 0
        objects = [*chain.from_iterable(pairs), *mu.inner, *nu.inner, *made]
        for obj in objects:
            tables = {"dist", "weights", "values", "coupling"} & set(vars(obj))
            assert not tables, (type(obj).__name__, tables)

    def test_a_failing_construction_builds_no_table(self, monkeypatch):
        made = []
        get = _OnFirstRead.__get__

        def counting_get(self, instance, owner=None):
            if instance is not None and self.name != "_hash":
                made.append((type(instance).__name__, self.name))
            return get(self, instance, owner)

        monkeypatch.setattr(_OnFirstRead, "__get__", counting_get)
        points = ("no-table-a", "no-table-b")
        x = FinMetricSpace(points, ((0, Fraction(1, 2)), (Fraction(1, 2), 0)))
        y = FinMetricSpace(("no-table-c", "no-table-d"), ((0, Fraction(1, 3)), (Fraction(1, 3), 0)))
        p = Measure(x, (Fraction(1, 3), Fraction(2, 3)))
        three = ("no-table-a", "no-table-b", "no-table-e")
        cases = [
            (lambda: FinMetricSpace(points, ((0, 1), (1, Fraction(1, 4)))), "must be 0"),
            (
                lambda: FinMetricSpace(points, ((0, Fraction(-1, 2)), (Fraction(-1, 2), 0))),
                "positive distance, got -1/2$",
            ),
            (lambda: FinMetricSpace(points, ((0, 1), (2, 0))), "asymmetric distances"),
            (
                lambda: FinMetricSpace(three, ((0, 1, Fraction(5, 2)), (1, 0, 1), (Fraction(5, 2), 1, 0))),
                r"= 5/2 > d\('no-table-a','no-table-b'\) \+ d\('no-table-b','no-table-e'\) = 2$",
            ),
            (lambda: ShortFunctional(x, (0, Fraction(2, 3))), r"\| = 2/3 > d = 1/2$"),
            (lambda: ShortMap(y, x, points), "= 1/2 > d.* = 1/3$"),
            (lambda: Measure(x, (Fraction(3, 2), Fraction(-1, 2))), "negative weight -1/2 at"),
            (
                lambda: TransportPlan(p, p, ((Fraction(1, 2), 0), (0, Fraction(1, 2))), 0),
                "row 0 sums to 1/2, expected 1/3$",
            ),
        ]
        for make, message in cases:
            with pytest.raises(ValueError, match=message):
                make()
        assert made == []
        for obj in (x, y, p):
            assert not {"dist", "weights"} & set(vars(obj)), type(obj).__name__

    @given(st.data())
    @settings(max_examples=50)
    def test_tensor_dist(self, data):
        x, y = data.draw(metric_spaces(1, 3, "x")), data.draw(metric_spaces(1, 3, "y"))
        xy = tensor(x, y)
        assert xy.dist == _over(xy._ints, xy._scale)
        assert xy.dist == tuple(
            tuple(x.dist[i][k] + y.dist[j][m] for k in range(len(x)) for m in range(len(y)))
            for i in range(len(x))
            for j in range(len(y))
        )
        assert all(_fractions_only(row) for row in xy.dist)

    @given(st.data())
    @settings(max_examples=50)
    def test_product_weights(self, data):
        x, y = data.draw(metric_spaces(1, 3, "x")), data.draw(metric_spaces(1, 3, "y"))
        p, q = data.draw(measures_on(x)), data.draw(measures_on(y))
        joint = product(p, q)
        assert joint.weights == _over((joint._units,), joint._denom)[0]
        assert joint.weights == tuple(a * b for a in p.weights for b in q.weights)
        assert _fractions_only(joint.weights)

    @given(st.data())
    @settings(max_examples=50)
    def test_sum_functional_values(self, data):
        x, y = data.draw(metric_spaces(1, 3, "x")), data.draw(metric_spaces(1, 3, "y"))
        f, g = data.draw(functionals_on(x)), data.draw(functionals_on(y))
        h = sum_functional(f, g)
        assert h.values == _over((h._units,), h._denom)[0]
        assert h.values == tuple(a + b for a in f.values for b in g.values)
        assert _fractions_only(h.values)

    @given(st.data())
    @settings(max_examples=50)
    def test_coupling_is_the_dense_grid(self, data):
        x = data.draw(metric_spaces(1, 4))
        p, q = data.draw(measures_on(x)), data.draw(measures_on(x))
        _, plan, _ = wasserstein(p, q)
        n = len(x)
        grid = [[Fraction(0)] * n for _ in range(n)]
        for i, j, f in plan._cells:
            grid[i][j] = Fraction(f, plan._scale)
        assert plan.coupling == tuple(map(tuple, grid))
        assert all(_fractions_only(row) for row in plan.coupling)
        assert tuple(map(sum, plan.coupling)) == p.weights
        assert TransportPlan(p, q, plan.coupling, plan.cost) == plan


@st.composite
def plan_cases(draw):
    """An optimal plan's dense coupling and cost, kept valid or broken one way.

    Half of a nonzero cell moved along its column breaks two row sums and no
    column sum, and moved along its row two column sums only; moved onto
    itself, it adds half the cell and breaks its row. A cell can also be
    made negative, or the cost wrong.
    """
    x = draw(metric_spaces(1, 4))
    p, q = draw(measures_on(x)), draw(measures_on(x))
    _, plan, _ = wasserstein(p, q)
    grid = [list(row) for row in plan.coupling]
    cost = plan.cost
    n = len(x)
    i, j = draw(st.sampled_from([(i, j) for i in range(n) for j in range(n) if grid[i][j]]))
    k = draw(st.integers(min_value=0, max_value=n - 1))
    half = grid[i][j] / 2
    kind = draw(st.sampled_from(("valid", "row", "column", "negative", "cost")))
    if kind == "row":
        grid[i][j] -= half if k != i else 0
        grid[k][j] += half
    elif kind == "column":
        grid[i][j] -= half if k != j else 0
        grid[i][k] += half
    elif kind == "negative":
        grid[k][j] = -Fraction(1, draw(st.sampled_from(DENOMINATORS)))
    elif kind == "cost":
        cost += Fraction(1, draw(st.sampled_from(DENOMINATORS)))
    return p, q, tuple(map(tuple, grid)), cost


class TestPlanCells:
    @given(plan_cases(), st.sampled_from(DENOMINATORS))
    @settings(max_examples=200)
    def test_cells_and_dense_agree(self, case, extra):
        p, q, coupling, cost = case
        expected = _verdict(lambda: TransportPlan(p, q, coupling, cost))
        scale = lcm(*(x.denominator for row in coupling for x in row)) * extra
        cells = tuple(
            (i, j, int(x * scale))
            for i, row in enumerate(coupling)
            for j, x in enumerate(row)
            if x
        )
        assert _verdict(lambda: TransportPlan(p, q, None, cost, (cells, scale))) == expected
        if expected is None:
            plan = TransportPlan(p, q, None, cost, (cells, scale))
            assert plan.coupling == coupling


_EQ_POINTS = ("eq-a", "eq-b")
_HALF, _QUARTER = Fraction(1, 2), Fraction(1, 4)


@st.composite
def _either_path(draw, cls, head, entries):
    """``cls(*head, entries)`` by its public constructor, or from ints over
    the least common denominator times 1 to 3, so often not reduced."""
    if draw(st.booleans()):
        return cls(*head, entries)
    entries = tuple(map(Fraction, entries))
    denom = lcm(*(x.denominator for x in entries)) * draw(st.integers(min_value=1, max_value=3))
    return cls._from_units(*head, [int(x * denom) for x in entries], denom)


@st.composite
def _eq_spaces(draw):
    """{eq-a, eq-b} at distance 1 or 3/2, by either path."""
    d = draw(st.sampled_from((Fraction(1), Fraction(3, 2))))
    if draw(st.booleans()):
        return FinMetricSpace(_EQ_POINTS, ((0, d), (d, 0)))
    scale = 2 * draw(st.integers(min_value=1, max_value=3))
    return FinMetricSpace._from_ints(_EQ_POINTS, ((0, int(d * scale)), (int(d * scale), 0)), scale)


_EQ_WEIGHTS = ((1, 0), (_HALF, _HALF), (_QUARTER, 3 * _QUARTER))


@st.composite
def _eq_functionals(draw):
    values = draw(st.sampled_from(((0, 0), (0, 1), (_HALF, 0))))
    return draw(_either_path(ShortFunctional, (draw(_eq_spaces()),), values))


@st.composite
def _eq_nested(draw):
    space = draw(_eq_spaces())
    weights = draw(st.sampled_from(((1,), (_HALF, _HALF), (_QUARTER, 3 * _QUARTER))))
    inner = tuple(
        draw(_either_path(Measure, (space,), draw(st.sampled_from(_EQ_WEIGHTS))))
        for _ in weights
    )
    return draw(_either_path(NestedMeasure, (space, inner), weights))


_COUPLINGS = (
    ((_HALF, 0), (0, _HALF)),
    ((0, _HALF), (_HALF, 0)),
    ((_QUARTER, _QUARTER), (_QUARTER, _QUARTER)),
    ((_QUARTER, 3 * _QUARTER), (0, 0)),
)


@st.composite
def _eq_plans(draw):
    """A plan from the pool by its public constructor, or from its cells
    column by column at a scale 1 to 3 times too large."""
    space = draw(_eq_spaces())
    coupling = draw(st.sampled_from(_COUPLINGS))
    p = draw(_either_path(Measure, (space,), tuple(map(sum, coupling))))
    q = draw(_either_path(Measure, (space,), tuple(map(sum, zip(*coupling)))))
    cost = (coupling[0][1] + coupling[1][0]) * space.dist[0][1]
    if draw(st.booleans()):
        return TransportPlan(p, q, coupling, cost)
    scale = 4 * draw(st.integers(min_value=1, max_value=3))
    cells = tuple(
        (i, j, int(coupling[i][j] * scale)) for j in range(2) for i in range(2) if coupling[i][j]
    )
    return TransportPlan(p, q, None, cost, (cells, scale))


def _public(obj):
    """An exact object as its public tables, with every exact object in them
    replaced by its own: what its equality must agree with."""
    if isinstance(obj, FinMetricSpace):
        return obj.points, obj.dist
    if isinstance(obj, Measure):
        return _public(obj.space), obj.weights
    if isinstance(obj, ShortFunctional):
        return _public(obj.domain), obj.values
    if isinstance(obj, NestedMeasure):
        return _public(obj.base), tuple(map(_public, obj.inner)), obj.weights
    return _public(obj.source), _public(obj.target), obj.coupling, obj.cost


# every exact type compares and hashes its canonical ints; these hold that
# to the public tables, as test_metric does for spaces
class TestEquality:
    @pytest.mark.parametrize("objects", [_eq_functionals, _eq_nested, _eq_plans])
    @settings(max_examples=300)
    @given(data=st.data())
    def test_equality_reads_the_canonical_ints(self, objects, data):
        a, b = data.draw(objects()), data.draw(objects())
        assert (a == b) == (_public(a) == _public(b))
        if a == b:
            assert hash(a) == hash(b)

    def test_plan_from_column_major_cells_equals_its_public_twin(self):
        space = FinMetricSpace(_EQ_POINTS, ((0, 1), (1, 0)))
        p, q = Measure(space, (_QUARTER, 3 * _QUARTER)), Measure(space, (_HALF, _HALF))
        twin = TransportPlan(p, q, ((_QUARTER, 0), (_QUARTER, _HALF)), _QUARTER)
        # the same coupling column by column over 12, as the solver hands it over
        plan = TransportPlan(p, q, None, _QUARTER, (((0, 0, 3), (1, 0, 3), (1, 1, 6)), 12))
        assert plan == twin and hash(plan) == hash(twin)
        assert plan._cells == twin._cells == ((0, 0, 1), (1, 0, 1), (1, 1, 2))
        assert plan._scale == twin._scale == 4

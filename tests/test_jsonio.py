import random
import re
from fractions import Fraction

import pytest

from kantorovich import (
    FinMetricSpace,
    Measure,
    NestedMeasure,
    ShortFunctional,
    check_law,
    identity,
    product,
    tensor,
    uniform,
    unit_nested,
)
from kantorovich.generate import (
    cyclic_monoid,
    random_functional,
    random_measure,
    random_nested,
    random_short_map,
    random_space,
)
from kantorovich import jsonio


class TestFractions:
    def test_format_always_explicit(self):
        assert jsonio.format_fraction(Fraction(1, 2)) == "1/2"
        assert jsonio.format_fraction(Fraction(3)) == "3/1"
        assert jsonio.format_fraction(Fraction(0)) == "0/1"
        assert jsonio.format_fraction(Fraction(-2, 4)) == "-1/2"

    def test_parse_accepts_both_forms(self):
        assert jsonio.parse_fraction("1/2") == Fraction(1, 2)
        assert jsonio.parse_fraction("7") == 7
        assert jsonio.parse_fraction("-3/6") == Fraction(-1, 2)
        assert jsonio.parse_fraction("-4") == -4
        assert jsonio.parse_fraction(3) == 3

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError, match="bad rational"):
            jsonio.parse_fraction("one half")
        with pytest.raises(ValueError, match="bad rational"):
            jsonio.parse_fraction("1/0")
        with pytest.raises(ValueError, match="rational string"):
            jsonio.parse_fraction(0.5)

    @pytest.mark.parametrize("text", ["1.5", "1e3", " 1/2 ", "1_000", "+1", "1/-2", "½", ""])
    def test_parse_rejects_outside_the_grammar(self, text):
        with pytest.raises(ValueError, match="bad rational"):
            jsonio.parse_fraction(text)

    @pytest.mark.parametrize("value", [True, False])
    def test_parse_rejects_non_integer_json(self, value):
        with pytest.raises(ValueError, match="rational string"):
            jsonio.parse_fraction(value)

    def test_round_trip(self):
        rng = random.Random(1)
        for _ in range(50):
            x = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
            assert jsonio.parse_fraction(jsonio.format_fraction(x)) == x


class TestLabels:
    def test_tuple_labels_encode_as_arrays(self):
        assert jsonio.label_key(("a", "u")) == '["a","u"]'
        assert jsonio.label_from_key('["a","u"]') == ("a", "u")

    def test_nested_tuple_labels(self):
        label = (("a", "u"), "z")
        assert jsonio.label_from_key(jsonio.label_key(label)) == label

    def test_plain_strings_pass_through(self):
        assert jsonio.label_key("abc") == "abc"
        assert jsonio.label_from_key("abc") == "abc"

    def test_bracket_strings_rejected(self):
        with pytest.raises(ValueError, match="may not begin"):
            jsonio.label_key("[oops")

    def test_unserializable_label(self):
        with pytest.raises(ValueError, match="not JSON-serializable"):
            jsonio.label_to_json(42)


class TestRoundTrips:
    def test_space(self):
        rng = random.Random(2)
        for _ in range(10):
            space = random_space(rng, 5)
            again = jsonio.space_from_json(jsonio.space_to_json(space))
            assert again == space

    def test_tensor_space_keeps_factors(self, two_point, three_point):
        space = tensor(two_point, three_point)
        again = jsonio.space_from_json(jsonio.space_to_json(space))
        assert again == space
        assert again.factors == (two_point, three_point)

    def test_measure(self):
        rng = random.Random(3)
        for _ in range(10):
            space = random_space(rng, 5)
            p = random_measure(rng, space)
            assert jsonio.measure_from_json(jsonio.measure_to_json(p)) == p

    def test_measure_on_tensor_space(self, two_point, three_point):
        joint = product(uniform(two_point), uniform(three_point))
        again = jsonio.measure_from_json(jsonio.measure_to_json(joint))
        assert again == joint
        assert again.space.factors == (two_point, three_point)

    def test_map(self):
        rng = random.Random(4)
        for _ in range(10):
            x = random_space(rng, 4, prefix="x")
            y = random_space(rng, 4, prefix="y")
            f = random_short_map(rng, x, y)
            assert jsonio.map_from_json(jsonio.map_to_json(f)) == f

    def test_functional(self):
        rng = random.Random(5)
        space = random_space(rng, 5)
        f = random_functional(rng, space)
        assert jsonio.functional_from_json(jsonio.functional_to_json(f)) == f

    def test_nested(self):
        rng = random.Random(6)
        space = random_space(rng, 4)
        mu = random_nested(rng, space)
        assert jsonio.nested_from_json(jsonio.nested_to_json(mu)) == mu

    def test_monoid(self):
        m = cyclic_monoid(3)
        again = jsonio.monoid_from_json(jsonio.monoid_to_json(m))
        assert again == m

    def test_typed_values(self, two_point):
        rng = random.Random(7)
        values = {
            "space": two_point,
            "measure": uniform(two_point),
            "map": random_short_map(rng, two_point, two_point),
            "nested": random_nested(rng, two_point),
            "monoid": cyclic_monoid(2),
            "point": ("a", "b"),
            "count": 3,
            "flag": True,
            "ratio": Fraction(2, 7),
            "mixed": [uniform(two_point), Fraction(1, 3)],
        }
        encoded = jsonio.instance_to_json(values)
        decoded = jsonio.instance_from_json(encoded)
        assert decoded == values


class TestErrors:
    def test_reference_without_workspace(self):
        with pytest.raises(ValueError, match="without a workspace"):
            jsonio.space_from_json("X")

    def test_bad_space(self):
        with pytest.raises(ValueError, match="bad space"):
            jsonio.space_from_json(17)

    def test_tensor_needs_two_factors(self, two_point):
        with pytest.raises(ValueError, match="two factor"):
            jsonio.space_from_json({"tensor": [jsonio.space_to_json(two_point)]})

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_bool_value_must_be_a_json_boolean(self, value):
        with pytest.raises(ValueError, match="bad bool"):
            jsonio.value_from_json({"type": "bool", "value": value})

    @pytest.mark.parametrize("value", [True, "3", 3.0, None])
    def test_int_value_must_be_a_json_integer(self, value):
        with pytest.raises(ValueError, match="bad int"):
            jsonio.value_from_json({"type": "int", "value": value})

    def test_unknown_value_type(self):
        with pytest.raises(ValueError, match="unknown value type"):
            jsonio.value_from_json({"type": "whatever", "value": 1})


    def test_monoid_without_unit(self):
        monoid = jsonio.monoid_to_json(cyclic_monoid(3))
        del monoid["unit"]
        with pytest.raises(ValueError, match="'unit'"):
            jsonio.monoid_from_json(monoid)

    def test_functional_value_must_be_an_object(self):
        with pytest.raises(ValueError, match="bad functional"):
            jsonio.value_from_json({"type": "functional", "value": 5})

    def test_list_value_must_be_a_list(self):
        with pytest.raises(ValueError, match="bad list"):
            jsonio.value_from_json({"type": "list", "value": 5})

    def test_map_targets_must_be_labels(self, two_point):
        obj = jsonio.map_to_json(identity(two_point))
        obj["table"]["a"] = 5
        with pytest.raises(ValueError, match="bad label 5"):
            jsonio.map_from_json(obj)

    def test_map_table_naming_unknown_points_rejected(self, two_point):
        obj = jsonio.map_to_json(identity(two_point))
        obj["table"]["zz"] = "a"
        with pytest.raises(ValueError, match=r"unknown domain points: \['zz'\]"):
            jsonio.map_from_json(obj)

    def test_functional_naming_unknown_points_rejected(self, two_point):
        obj = {"domain": jsonio.space_to_json(two_point), "values": {"a": "1", "typo": "7"}}
        with pytest.raises(ValueError, match=r"unknown points: \['typo'\]"):
            jsonio.functional_from_json(obj)

    def test_nested_weights_must_be_a_list(self, two_point):
        obj = jsonio.nested_to_json(unit_nested(uniform(two_point)))
        obj["weights"] = "1"
        with pytest.raises(ValueError, match="'weights'"):
            jsonio.nested_from_json(obj)


PAIR = {"tensor": [{"points": ["a", "b"], "dist": [["0", "1"], ["1", "0"]]}] * 2}


# Each field keyed by point, with the point ("a", "a") spelled two ways;
# merging the two entries would keep only the later one.
REPEATED_POINTS = {
    "measure-weights": (
        jsonio.measure_from_json,
        {"space": PAIR, "weights": {'["a","a"]': "1/2", '["a", "a"]': "1/2", '["b","b"]': "1/2"}},
        "measure field 'weights'",
    ),
    "functional-values": (
        jsonio.functional_from_json,
        {"domain": PAIR, "values": {'["a","a"]': "0", '[ "a","a"]': "1"}},
        "functional field 'values'",
    ),
    "map-table": (
        jsonio.map_from_json,
        {
            "domain": PAIR,
            "codomain": PAIR,
            "table": {'["a","a"]': '["a","a"]', '["a","a" ]': '["b","b"]'},
        },
        "map field 'table'",
    ),
}


class TestRepeatedPoints:
    @pytest.mark.parametrize(
        "decode, obj, field", REPEATED_POINTS.values(), ids=list(REPEATED_POINTS)
    )
    def test_point_named_twice_is_rejected(self, decode, obj, field):
        message = f"""{field} names the point '["a","a"]' twice"""
        with pytest.raises(ValueError, match=re.escape(message)):
            decode(obj)

    def test_map_may_repeat_targets(self, two_point):
        space = jsonio.space_to_json(two_point)
        obj = {"domain": space, "codomain": space, "table": {"a": "a", "b": "a"}}
        assert jsonio.map_from_json(obj).table == ("a", "a")


def _nest(depth, inner, wrap):
    for _ in range(depth):
        inner = wrap(inner)
    return inner


class TestDeepInput:
    """Typed input nested past the recursion limit is a ValueError, not a RecursionError."""

    def test_deep_label_in_a_replayed_instance(self):
        space = {"points": [_nest(900, "x", lambda v: [v])], "dist": [["0"]]}
        instance = {"p": {"type": "measure", "value": {"space": space, "weights": {}}}}
        with pytest.raises(ValueError, match="nested too deeply"):
            check_law("monad_left_unit", instance)

    def test_deep_list_value(self):
        point = {"type": "point", "value": "x"}
        value = _nest(1200, point, lambda v: {"type": "list", "value": [v]})
        with pytest.raises(ValueError, match="nested too deeply"):
            jsonio.instance_from_json({"x": value})

    def test_every_decoder_called_directly(self):
        label = _nest(900, "x", lambda v: [v])
        space = {"points": [label], "dist": [["0"]]}
        measure = {"space": space, "weights": {}}
        cases = [
            (jsonio.label_from_json, label),
            (jsonio.space_from_json, space),
            (jsonio.measure_from_json, measure),
            (jsonio.map_from_json, {"domain": space, "codomain": space, "table": {}}),
            (jsonio.functional_from_json, {"domain": space, "values": {}}),
            (jsonio.nested_from_json, {"base": space, "inner": [], "weights": []}),
            (jsonio.monoid_from_json, {"carrier": space, "mult": "m", "unit": "x"}),
            (jsonio.value_from_json, {"type": "measure", "value": measure}),
        ]
        for decode, obj in cases:
            with pytest.raises(ValueError, match="^label nested too deeply$"):
                decode(obj)

    def test_the_innermost_kind_is_named(self):
        one = {"points": ["a"], "dist": [["0"]]}
        chain = _nest(2000, one, lambda v: {"tensor": [v, one]})
        with pytest.raises(ValueError, match="^space nested too deeply$"):
            jsonio.space_from_json(chain)


def test_dumps_is_deterministic(two_point):
    payload = jsonio.measure_to_json(uniform(two_point))
    assert jsonio.dumps(payload) == jsonio.dumps(dict(reversed(payload.items())))
    assert "\n" in jsonio.dumps(payload, pretty=True)


def _discrete_space_json(n, prefix="x"):
    """The n-point space at distance 1 between distinct points, as JSON."""
    return {
        "points": [f"{prefix}{i}" for i in range(n)],
        "dist": [["0" if i == j else "1" for j in range(n)] for i in range(n)],
    }


class TestSizeLimit:
    def test_explicit_space_over_the_limit_is_rejected_before_parsing(self):
        n = jsonio.MAX_POINTS + 1
        # entries outside the rational grammar: the size error must come first
        obj = {"points": [f"x{i}" for i in range(n)], "dist": [["?"] * n] * n}
        with pytest.raises(ValueError, match="limit of 128 points.*MAX_POINTS"):
            jsonio.space_from_json(obj)

    def test_long_dist_row_is_rejected(self):
        obj = {"points": ["a", "b"], "dist": [["?"] * 1000, ["?"] * 2]}
        with pytest.raises(ValueError, match="space of 1000 points"):
            jsonio.space_from_json(obj)

    def test_tensor_compares_the_product_of_factor_sizes(self):
        obj = {"tensor": [_discrete_space_json(12, "x"), _discrete_space_json(11, "y")]}
        with pytest.raises(ValueError, match="space of 132 points"):
            jsonio.space_from_json(obj)

    def test_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(jsonio, "MAX_POINTS", 4)
        assert len(jsonio.space_from_json(_discrete_space_json(4))) == 4
        square = {"tensor": [_discrete_space_json(2, "x"), _discrete_space_json(2, "y")]}
        assert len(jsonio.space_from_json(square)) == 4
        with pytest.raises(ValueError, match="limit of 4 points"):
            jsonio.space_from_json(_discrete_space_json(5))
        wide = {"tensor": [_discrete_space_json(2, "x"), _discrete_space_json(3, "y")]}
        with pytest.raises(ValueError, match="limit of 4 points"):
            jsonio.space_from_json(wide)

    @pytest.mark.parametrize(
        "obj",
        [
            {"points": "ab", "dist": [["0", "1"], ["1", "0"]]},
            {"points": ["a", "b"], "dist": {"a": ["0", "1"]}},
            {"points": ["a", "b"], "dist": ["01", "10"]},
        ],
    )
    def test_space_parts_must_be_lists(self, obj):
        with pytest.raises(ValueError, match="list of points"):
            jsonio.space_from_json(obj)


# A 4,000-digit numerator, near Python's default limit of 4,300 digits for
# converting between int and str.
BIG = Fraction(int("7" * 4000), 3)
BIG_TEXT = f"{'7' * 4000}/3"


class TestIntBoundary:
    """Rationals are read as ints; the objects equal their Fraction-built twins."""

    SPACE = {
        "points": ["a", "b", "c"],
        "dist": [["-0", "007/010", BIG_TEXT], ["14/20", 0, BIG_TEXT], [BIG_TEXT, BIG_TEXT, "000"]],
    }

    def twin_space(self):
        d = Fraction(7, 10)
        return FinMetricSpace(("a", "b", "c"), ((0, d, BIG), (d, 0, BIG), (BIG, BIG, 0)))

    def decoded_and_twins(self):
        space, twin = jsonio.space_from_json(self.SPACE), self.twin_space()
        halves = {"a": "2/4", "b": "-0", "c": "001/2"}
        measure = jsonio.measure_from_json({"space": self.SPACE, "weights": halves})
        measure_twin = Measure(twin, (Fraction(1, 2), 0, Fraction(1, 2)))
        values = {"a": "-0", "b": "007/014", "c": BIG_TEXT}
        functional = jsonio.functional_from_json({"domain": self.SPACE, "values": values})
        other = {"space": self.SPACE, "weights": {"b": 1}}
        nested = {"base": self.SPACE, "inner": [{"space": self.SPACE, "weights": halves}, other], "weights": ["2/4", "007/014"]}
        inner_twins = (measure_twin, Measure(twin, (0, 1, 0)))
        return [
            (space, twin),
            (measure, measure_twin),
            (functional, ShortFunctional(twin, (0, Fraction(1, 2), BIG))),
            (jsonio.nested_from_json(nested), NestedMeasure(twin, inner_twins, ("1/2", "1/2"))),
            (jsonio.space_from_json({"tensor": [self.SPACE, self.SPACE]}), tensor(twin, twin)),
        ]

    def test_decoded_objects_equal_their_fraction_twins(self):
        for decoded, twin in self.decoded_and_twins():
            assert decoded == twin and hash(decoded) == hash(twin)
            assert decoded._key() == twin._key()
            assert jsonio.value_to_json(decoded) == jsonio.value_to_json(twin)

    def test_output_is_canonical(self):
        space, measure, functional, nested, _ = (d for d, _ in self.decoded_and_twins())
        assert jsonio.space_to_json(space)["dist"][0] == ["0/1", "7/10", BIG_TEXT]
        assert jsonio.measure_to_json(measure)["weights"] == {"a": "1/2", "c": "1/2"}
        assert jsonio.functional_to_json(functional)["values"] == {"a": "0/1", "b": "1/2", "c": BIG_TEXT}
        assert jsonio.nested_to_json(nested)["weights"] == ["1/2", "1/2"]

    @pytest.mark.parametrize(
        "value, message",
        [
            ("one half", """bad rational 'one half': expected "p/q" or an integer"""),
            ("1/0", "bad rational '1/0': zero denominator"),
            ("-0/00", "bad rational '-0/00': zero denominator"),
            (True, "expected a rational string, got True"),
            (0.5, "expected a rational string, got 0.5"),
        ],
    )
    def test_parse_errors_keep_their_text(self, value, message):
        decoders = [
            lambda: jsonio.parse_fraction(value),
            lambda: jsonio.space_from_json({"points": ["a"], "dist": [[value]]}),
            lambda: jsonio.measure_from_json({"space": self.SPACE, "weights": {"a": value}}),
            lambda: jsonio.functional_from_json({"domain": self.SPACE, "values": {"a": value}}),
            lambda: jsonio.nested_from_json({"base": self.SPACE, "inner": [], "weights": [value]}),
        ]
        for decode in decoders:
            with pytest.raises(ValueError) as caught:
                decode()
            assert str(caught.value) == message


class TestDenominatorBits:
    """The distinct denominators of one object have at most MAX_DENOMINATOR_BITS bits in all."""

    @pytest.fixture(autouse=True)
    def small_limit(self, monkeypatch):
        # 1, 2 and 5 have 1, 2 and 3 bits: AT_LIMIT is exactly at a limit of 6
        monkeypatch.setattr(jsonio, "MAX_DENOMINATOR_BITS", 6)

    AT_LIMIT = {"points": ["a", "b", "c"], "dist": [["0", "1/2", "1/5"], ["1/2", "0", "1/2"], ["1/5", "1/2", "0"]]}

    def over(self, decode, obj):
        with pytest.raises(ValueError) as caught:
            decode(obj)
        assert str(caught.value) == (
            "denominators of 7 bits in all are over the limit of 6 bits "
            "(kantorovich.jsonio.MAX_DENOMINATOR_BITS)"
        )

    def test_space(self):
        # the check is on the denominators as written, before any reduction
        assert jsonio.space_from_json(self.AT_LIMIT)._scale == 10
        self.over(jsonio.space_from_json, {"points": ["a", "b"], "dist": [["0", "1/2"], ["4/8", "0"]]})

    def test_measure_functional_and_nested(self):
        line = {"points": ["a", "b"], "dist": [["0", "1"], ["1", "0"]]}
        weights = {"a": "1/4", "b": "3/10"}
        self.over(jsonio.measure_from_json, {"space": line, "weights": weights})
        self.over(jsonio.functional_from_json, {"domain": line, "values": weights})
        fair = {"space": line, "weights": {"a": "1/2", "b": "1/2"}}
        inner = [fair, {"space": line, "weights": {"a": "1"}}]
        self.over(jsonio.nested_from_json, {"base": line, "inner": inner, "weights": ["1/4", "3/10"]})

    def test_tensor_of_factors_within_the_limit(self):
        thirds = {"points": ["a", "b"], "dist": [["0", "1/3"], ["1/3", "0"]]}
        fifths = {"points": ["a", "b"], "dist": [["0", "1/5"], ["1/5", "0"]]}
        sevenths = {"points": ["a", "b"], "dist": [["0", "1/7"], ["1/7", "0"]]}
        # the factors' scales 3 and 5 have 5 bits; 7 and 10 have 7
        assert jsonio.space_from_json({"tensor": [thirds, fifths]})._scale == 15
        self.over(jsonio.space_from_json, {"tensor": [sevenths, self.AT_LIMIT]})

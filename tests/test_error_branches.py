"""One row per library ``raise`` that no other test reaches: the call and its message."""

import re
from fractions import Fraction

import pytest

from kantorovich import (
    FinMetricSpace,
    InternalMonoid,
    Law,
    NestedMeasure,
    ShortMap,
    TransportPlan,
    identity,
    mcshane_closure,
    nested_distance,
    product_n,
    pushforward_nested,
    tupling_table,
    uniform,
    unit_nested,
    wasserstein_oracle,
    wasserstein_space,
)
from kantorovich import jsonio
from kantorovich.laws import law

X = FinMetricSpace(("a", "b"), ((0, 1), (1, 0)))
Y = FinMetricSpace(("u", "v", "w"), ((0, 1, 1), (1, 0, 1), (1, 1, 0)))
HALF = Fraction(1, 2)
POINT = {"points": ["a"], "dist": [["0"]]}
X2 = {"points": ["a", "b"], "dist": [["0", "1"], ["1", "0"]]}

ERRORS = {
    # metric
    "space-without-points": (lambda: FinMetricSpace((), ()), "at least one point"),
    "dist-of-wrong-shape": (lambda: FinMetricSpace(("a", "b"), ((0, 1),)), "must be 2x2"),
    "map-table-too-short": (lambda: ShortMap(X, X, ("a",)), "every domain point"),
    "mcshane-value-count": (lambda: mcshane_closure(X, [0]), "one value per point"),
    # monad
    "nested-without-inner": (lambda: NestedMeasure(X, (), ()), "at least one inner measure"),
    "nested-weight-count": (
        lambda: NestedMeasure(X, (uniform(X),), (HALF, HALF)),
        "one weight per inner measure",
    ),
    "pushforward-nested-off-base": (
        lambda: pushforward_nested(identity(Y), unit_nested(uniform(X))),
        "domain must be the base space",
    ),
    "wasserstein-space-of-nothing": (lambda: wasserstein_space([]), "at least one measure"),
    "wasserstein-space-two-bases": (
        lambda: wasserstein_space([uniform(X), uniform(Y)]),
        "one base space",
    ),
    "nested-distance-two-bases": (
        lambda: nested_distance(unit_nested(uniform(X)), unit_nested(uniform(Y))),
        "different base spaces",
    ),
    # structure
    "law-measure-elsewhere": (lambda: Law(X, uniform(Y)), "law measure must live on the law space"),
    "monoid-mult-of-wrong-type": (
        lambda: InternalMonoid(X, identity(X), "a"),
        "carrier x carrier to carrier",
    ),
    "product-of-nothing": (lambda: product_n([]), "at least one measure"),
    "tupling-two-domains": (
        lambda: tupling_table(identity(X), identity(Y)),
        "share their domain",
    ),
    # transport
    "plan-across-spaces": (
        lambda: TransportPlan(uniform(X), uniform(Y), ((HALF, 0, 0), (0, HALF, 0)), HALF),
        "different spaces",
    ),
    "oracle-across-spaces": (
        lambda: wasserstein_oracle(uniform(X), uniform(Y)),
        "different spaces",
    ),
    # laws
    "law-declared-twice": (
        lambda: law("monad_left_unit", "again", None)(lambda p: None),
        "declared twice",
    ),
    # jsonio
    "bracket-label": (lambda: jsonio.label_from_json("[a"), "may not begin"),
    "label-of-no-kind": (lambda: jsonio.label_from_json(5), "bad label 5"),
    "value-of-no-kind": (lambda: jsonio.value_to_json(object()), "cannot encode"),
    "untyped-value": (lambda: jsonio.value_from_json({"value": 1}), "bad typed value"),
    "tag-not-a-string": (
        lambda: jsonio.value_from_json({"type": ["point"], "value": "a"}),
        "unknown value type",
    ),
    "instance-not-an-object": (lambda: jsonio.instance_from_json([]), "must be a JSON object"),
    "measure-without-space": (
        lambda: jsonio.measure_from_json({"weights": {}}),
        "measure has no 'space' field",
    ),
    "map-without-table": (
        lambda: jsonio.map_from_json({"domain": POINT, "codomain": POINT}),
        "map has no 'table' field",
    ),
    "nested-without-base": (
        lambda: jsonio.nested_from_json({"inner": [], "weights": []}),
        "nested measure has no 'base' field",
    ),
    "monoid-without-carrier": (
        lambda: jsonio.monoid_from_json({"unit": "a"}),
        "monoid has no 'carrier' field",
    ),
    # a field that no decoder reads was once ignored, so a misspelling passed
    "map-tabel": (
        lambda: jsonio.map_from_json({"domain": X2, "codomain": X2, "table": {"a": "a"}, "tabel": {}}),
        "map has unknown field 'tabel'",
    ),
    "measure-weigths": (
        lambda: jsonio.measure_from_json({"space": X2, "weights": {"a": "1"}, "weigths": {}}),
        "measure has unknown field 'weigths'",
    ),
    "space-of-both-forms": (
        lambda: jsonio.space_from_json(dict(X2, tensor=[X2, X2])),
        "space takes 'tensor' or 'points' and 'dist', not both",
    ),
    "typed-value-extra": (
        lambda: jsonio.value_from_json({"type": "rational", "value": "1/2", "extra": 1}),
        "typed value has unknown field 'extra'",
    ),
    "typed-value-without-value": (
        lambda: jsonio.value_from_json({"type": "rational"}),
        "typed value has no 'value' field",
    ),
    # once only the JSON parser's "Expecting value: line 1 column 2 (char 1)"
    "malformed-tuple-key": (lambda: jsonio.label_from_key("["), "bad label '['"),
}


@pytest.mark.parametrize("call, message", ERRORS.values(), ids=list(ERRORS))
def test_raises_value_error(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()

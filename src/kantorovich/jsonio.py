"""JSON encoding and decoding for every object kind.

Rationals serialize as canonical "p/q" strings (lowest terms, positive
denominator); no floating point appears anywhere in I/O. Labels are strings,
or tuples for tensor points; a tuple label used as an object key is encoded
as the compact JSON array of its parts, so plain string labels may not begin
with "[".
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Callable, Optional

from .measure import Measure
from .metric import FinMetricSpace, ShortFunctional, ShortMap, tensor
from .monad import NestedMeasure
from .structure import InternalMonoid, Law

Resolver = Optional[Callable[[str, str], object]]

_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")

# Most points a space read from JSON may have, tensor products included.
# Building a space checks the triangle inequality over all n**3 triples in
# exact arithmetic, so far larger inputs would run for minutes before any
# error could be reported; sizes are checked before any rational is parsed.
MAX_POINTS = 128


def format_fraction(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def parse_fraction(s) -> Fraction:
    """Read a rational: a JSON integer, or a string "p/q" or "p" (p may be negative)."""
    if isinstance(s, int) and not isinstance(s, bool):
        return Fraction(s)
    if not isinstance(s, str):
        raise ValueError(f"expected a rational string, got {s!r}")
    if not _RATIONAL.fullmatch(s):
        raise ValueError(f'bad rational {s!r}: expected "p/q" or an integer')
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"bad rational {s!r}: zero denominator") from None


def label_to_json(label):
    if isinstance(label, str):
        if label.startswith("["):
            raise ValueError(f"string labels may not begin with '[': {label!r}")
        return label
    if isinstance(label, tuple):
        return [label_to_json(part) for part in label]
    raise ValueError(f"label {label!r} is not JSON-serializable")


def label_from_json(obj):
    if isinstance(obj, str):
        if obj.startswith("["):
            raise ValueError(f"string labels may not begin with '[': {obj!r}")
        return obj
    if isinstance(obj, list):
        return tuple(label_from_json(part) for part in obj)
    raise ValueError(f"bad label {obj!r}")


def label_key(label) -> str:
    """Encode a label for use as a JSON object key."""
    encoded = label_to_json(label)
    if isinstance(encoded, str):
        return encoded
    return json.dumps(encoded, separators=(",", ":"))


def label_from_key(key: str):
    if not isinstance(key, str):
        raise ValueError(f"bad label {key!r}")
    if key.startswith("["):
        return label_from_json(json.loads(key))
    return key


_JSON_TYPES = {dict: "an object", list: "a list"}
_REQUIRED = object()


def _field(obj: dict, key: str, kind: str, json_type=object, default=_REQUIRED):
    """``obj[key]``, with an error naming the field if it is missing or of the wrong type."""
    if key not in obj:
        if default is _REQUIRED:
            raise ValueError(f"{kind} has no {key!r} field")
        return default
    value = obj[key]
    if not isinstance(value, json_type):
        raise ValueError(f"{kind} field {key!r} must be {_JSON_TYPES[json_type]}, got {value!r}")
    return value


def _resolve(kind: str, obj, resolver: Resolver):
    if resolver is None:
        raise ValueError(f"cannot resolve {kind} reference {obj!r} without a workspace")
    return resolver(kind, obj)


def space_to_json(space: FinMetricSpace):
    if space.factors is not None:
        left, right = space.factors
        return {"tensor": [space_to_json(left), space_to_json(right)]}
    return {
        "points": [label_to_json(p) for p in space.points],
        "dist": [[format_fraction(x) for x in row] for row in space.dist],
    }


def _check_size(n: int):
    if n > MAX_POINTS:
        raise ValueError(
            f"space of {n} points is over the limit of {MAX_POINTS} points "
            "(kantorovich.jsonio.MAX_POINTS)"
        )


def space_from_json(obj, resolver: Resolver = None) -> FinMetricSpace:
    if isinstance(obj, str):
        return _resolve("space", obj, resolver)
    if not isinstance(obj, dict):
        raise ValueError(f"bad space {obj!r}")
    if "tensor" in obj:
        parts = obj["tensor"]
        if not isinstance(parts, list) or len(parts) != 2:
            raise ValueError("tensor form needs exactly two factor spaces")
        left = space_from_json(parts[0], resolver)
        right = space_from_json(parts[1], resolver)
        _check_size(len(left) * len(right))
        return tensor(left, right)
    points, dist = obj.get("points", []), obj.get("dist", [])
    if not (isinstance(points, list) and isinstance(dist, list)) or not all(
        isinstance(row, list) for row in dist
    ):
        raise ValueError("space needs a list of points and a list of dist rows")
    _check_size(max(len(points), len(dist), *map(len, dist)))
    points = [label_from_json(p) for p in points]
    dist = [[parse_fraction(x) for x in row] for row in dist]
    return FinMetricSpace(tuple(points), tuple(tuple(row) for row in dist))


def measure_to_json(p: Measure):
    return {
        "space": space_to_json(p.space),
        "weights": {
            label_key(pt): format_fraction(w)
            for pt, w in zip(p.space.points, p.weights)
            if w
        },
    }


def measure_from_json(obj, resolver: Resolver = None) -> Measure:
    if isinstance(obj, str):
        return _resolve("measure", obj, resolver)
    if not isinstance(obj, dict) or "space" not in obj:
        raise ValueError(f"bad measure {obj!r}")
    space = space_from_json(obj["space"], resolver)
    weights = {
        label_from_key(k): parse_fraction(v)
        for k, v in _field(obj, "weights", "measure", dict, {}).items()
    }
    return Measure.from_mapping(space, weights)


def map_to_json(f: ShortMap):
    return {
        "domain": space_to_json(f.domain),
        "codomain": space_to_json(f.codomain),
        "table": {
            label_key(p): label_key(t) for p, t in zip(f.domain.points, f.table)
        },
    }


def map_from_json(obj, resolver: Resolver = None) -> ShortMap:
    if isinstance(obj, str):
        return _resolve("map", obj, resolver)
    if not isinstance(obj, dict) or "table" not in obj:
        raise ValueError(f"bad map {obj!r}")
    domain = space_from_json(_field(obj, "domain", "map"), resolver)
    codomain = space_from_json(_field(obj, "codomain", "map"), resolver)
    table = {
        label_from_key(k): label_from_key(v)
        for k, v in _field(obj, "table", "map", dict).items()
    }
    return ShortMap.from_mapping(domain, codomain, table)


def functional_to_json(f: ShortFunctional):
    return {
        "domain": space_to_json(f.domain),
        "values": {
            label_key(p): format_fraction(v)
            for p, v in zip(f.domain.points, f.values)
        },
    }


def functional_from_json(obj, resolver: Resolver = None) -> ShortFunctional:
    if not isinstance(obj, dict):
        raise ValueError(f"bad functional {obj!r}")
    domain = space_from_json(_field(obj, "domain", "functional"), resolver)
    values = {
        label_from_key(k): parse_fraction(v)
        for k, v in _field(obj, "values", "functional", dict).items()
    }
    return ShortFunctional.from_mapping(domain, values)


def nested_to_json(mu: NestedMeasure):
    return {
        "base": space_to_json(mu.base),
        "inner": [measure_to_json(m) for m in mu.inner],
        "weights": [format_fraction(w) for w in mu.weights],
    }


def nested_from_json(obj, resolver: Resolver = None) -> NestedMeasure:
    if isinstance(obj, str):
        return _resolve("nested", obj, resolver)
    if not isinstance(obj, dict) or "base" not in obj:
        raise ValueError(f"bad nested measure {obj!r}")
    base = space_from_json(obj["base"], resolver)
    inner = _field(obj, "inner", "nested measure", list, [])
    weights = _field(obj, "weights", "nested measure", list, [])
    inner = tuple(measure_from_json(m, resolver) for m in inner)
    weights = tuple(parse_fraction(w) for w in weights)
    return NestedMeasure(base, inner, weights)


def monoid_to_json(m: InternalMonoid):
    return {
        "carrier": space_to_json(m.carrier),
        "mult": map_to_json(m.mult),
        "unit": label_to_json(m.unit),
    }


def monoid_from_json(obj, resolver: Resolver = None) -> InternalMonoid:
    if isinstance(obj, str):
        return _resolve("monoid", obj, resolver)
    if not isinstance(obj, dict) or "carrier" not in obj:
        raise ValueError(f"bad monoid {obj!r}")
    carrier = space_from_json(obj["carrier"], resolver)
    mult = map_from_json(_field(obj, "mult", "monoid"), resolver)
    unit = label_from_json(_field(obj, "unit", "monoid"))
    return InternalMonoid(carrier, mult, unit)


def law_to_json(law: Law):
    return measure_to_json(law.measure)


def law_from_json(obj, resolver: Resolver = None) -> Law:
    measure = measure_from_json(obj, resolver)
    return Law(measure.space, measure)


# Typed wrappers used to serialize law-suite instances and counterexamples.

_ENCODERS = {}
_DECODERS = {}


def _register(type_name, cls, encode, decode):
    _ENCODERS[cls] = (type_name, encode)
    _DECODERS[type_name] = decode


_register("space", FinMetricSpace, space_to_json, space_from_json)
_register("map", ShortMap, map_to_json, map_from_json)
_register("measure", Measure, measure_to_json, measure_from_json)
_register("functional", ShortFunctional, functional_to_json, functional_from_json)
_register("nested", NestedMeasure, nested_to_json, nested_from_json)
_register("monoid", InternalMonoid, monoid_to_json, monoid_from_json)
_register("law", Law, law_to_json, law_from_json)


def value_to_json(value):
    """Encode a typed value as {"type": ..., "value": ...}."""
    for cls, (type_name, encode) in _ENCODERS.items():
        if isinstance(value, cls):
            return {"type": type_name, "value": encode(value)}
    if isinstance(value, bool):
        return {"type": "bool", "value": value}
    if isinstance(value, int):
        return {"type": "int", "value": value}
    if isinstance(value, Fraction):
        return {"type": "rational", "value": format_fraction(value)}
    if isinstance(value, (str, tuple)):
        return {"type": "point", "value": label_to_json(value)}
    if isinstance(value, list):
        return {"type": "list", "value": [value_to_json(v) for v in value]}
    raise ValueError(f"cannot encode {value!r}")


def value_from_json(obj):
    if not isinstance(obj, dict) or "type" not in obj:
        raise ValueError(f"bad typed value {obj!r}")
    t, v = obj["type"], obj.get("value")
    if t in _DECODERS:
        return _DECODERS[t](v)
    if t == "bool":
        if not isinstance(v, bool):
            raise ValueError(f"bad bool {v!r}")
        return v
    if t == "int":
        if not isinstance(v, int) or isinstance(v, bool):
            raise ValueError(f"bad int {v!r}")
        return v
    if t == "rational":
        return parse_fraction(v)
    if t == "point":
        return label_from_json(v)
    if t == "list":
        if not isinstance(v, list):
            raise ValueError(f"bad list {v!r}")
        return [value_from_json(x) for x in v]
    raise ValueError(f"unknown value type {t!r}")


def instance_to_json(instance: dict):
    return {name: value_to_json(value) for name, value in instance.items()}


def instance_from_json(obj) -> dict:
    if not isinstance(obj, dict):
        raise ValueError("an instance must be a JSON object")
    return {name: value_from_json(value) for name, value in obj.items()}


def dumps(obj, pretty: bool = False) -> str:
    """Deterministic JSON text: keys sorted, no floats anywhere."""
    if pretty:
        return json.dumps(obj, sort_keys=True, indent=2)
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))

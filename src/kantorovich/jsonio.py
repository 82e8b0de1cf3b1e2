"""JSON encoding and decoding for every object kind.

Rationals serialize as canonical "p/q" strings (lowest terms, positive
denominator); no floating point appears anywhere in I/O. An object is read
from its rationals as ints over their least common denominator and written
from its ints, so no ``Fraction`` is made on the way in or out. Labels are strings,
or tuples for tensor points; a tuple label used as an object key is encoded
as the compact JSON array of its parts, so plain string labels may not begin
with "[". Every public decoder raises ValueError on bad input, a field its
kind does not have included; input nested past Python's recursion limit
raises ``NestingError``, a ValueError naming the kind nested too deeply.
Where a workspace object may stand, a string is its name, looked up through
the resolver the decoder is given.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import lru_cache, wraps
from math import gcd, lcm
from typing import Callable, Optional

from .measure import Measure
from .metric import FinMetricSpace, ShortFunctional, ShortMap, _as_fraction, _by_label, tensor
from .monad import NestedMeasure
from .structure import InternalMonoid

Resolver = Optional[Callable[[str, str], object]]

_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")

# Most points a space read from JSON may have, tensor products included.
# Building a space checks the triangle inequality over all n**3 triples in
# exact arithmetic, so far larger inputs would run for minutes before any
# error could be reported; sizes are checked before any rational is parsed.
MAX_POINTS = 128

# Most bits the distinct denominators of one object may have in all, checked
# before their lcm, which the sum bounds, becomes the object's denominator.
# The worst case accepted, MAX_POINTS points with one 4,096-bit denominator in
# every distance, builds in 0.9-1.2 s against 0.09 s at distance 1 (Python
# 3.11, Intel Xeon).
MAX_DENOMINATOR_BITS = 4096

# Most bits the numerators of one object may have in all, every entry
# counted as written: a 128-bit numerator in every distance of MAX_POINTS
# points. They are read one at a time, and none is read once the sum is
# over. Python's own limit of 4,300 digits an int allowed a 128-point space
# at distances near 10**4299, which took 3.5-4.3 s to read and check. The
# worst case accepted builds in 0.13 s against 0.09 s at distance 1 (Python
# 3.11, Intel Xeon).
MAX_NUMERATOR_BITS = 1 << 21


class NestingError(ValueError):
    """Input nested deeper than Python's recursion limit lets a decoder follow."""


def _decoder(kind: str, fields=None, tag=None):
    """Wrap a public decoder in the checks that every decoder shares.

    With ``tag``, a string is the name of a workspace object of that kind,
    looked up through the resolver passed after it. With ``fields``, any
    other value must be a JSON object (else ``bad <kind> <value>``) whose
    keys are all among ``fields``, so a misspelled field is an error rather
    than ignored. The body then only reads its fields.

    This is also the one place where depth becomes a ValueError: a
    RecursionError becomes a NestingError naming ``kind``. A decoder that
    recurses calls the decorated name, so the innermost decoder at the limit
    names the kind that is nested too deeply, and callers further out pass
    its error on.
    """

    def decorate(decode):
        @wraps(decode)
        def decoder(obj, *resolver):
            try:
                if tag is not None and isinstance(obj, str):
                    if resolver and resolver[0] is not None:
                        return resolver[0](tag, obj)
                    raise ValueError(f"cannot resolve {tag} reference {obj!r} without a workspace")
                if fields is not None:
                    if not isinstance(obj, dict):
                        raise ValueError(f"bad {kind} {obj!r}")
                    for key in obj:
                        if key not in fields:
                            raise ValueError(f"{kind} has unknown field {key!r}")
                return decode(obj, *resolver)
            except RecursionError:
                raise NestingError(f"{kind} nested too deeply") from None

        return decoder

    return decorate


def format_fraction(x: Fraction) -> str:
    x = _as_fraction(x)
    return f"{x.numerator}/{x.denominator}"


def _format(x: int, denom: int) -> str:
    """``x / denom`` as :func:`format_fraction` writes it."""
    g = gcd(x, denom)
    return f"{x // g}/{denom // g}"


def parse_fraction(s) -> Fraction:
    """Read a rational: a JSON integer, or a string "p/q" or "p" (p may be negative)."""
    return Fraction(*_rational(s))


def _rational(s, to_int=int) -> tuple:
    """``(numerator, denominator)`` of the rational ``s``, as ints, not reduced.

    ``to_int`` converts the denominator's digits.
    """
    if isinstance(s, int) and not isinstance(s, bool):
        return s, 1
    if not isinstance(s, str):
        raise ValueError(f"expected a rational string, got {s!r}")
    match = _RATIONAL.fullmatch(s)
    if not match:
        raise ValueError(f'bad rational {s!r}: expected "p/q" or an integer')
    numerator, denominator = int(match[1]), to_int(match[2] or "1")
    if not denominator:
        raise ValueError(f"bad rational {s!r}: zero denominator")
    return numerator, denominator


def _check_bits(denominators):
    bits = sum(d.bit_length() for d in denominators)
    if bits > MAX_DENOMINATOR_BITS:
        raise ValueError(
            f"denominators of {bits} bits in all are over the limit of {MAX_DENOMINATOR_BITS} "
            "bits (kantorovich.jsonio.MAX_DENOMINATOR_BITS)"
        )


def _reader():
    """``_rational`` for the rationals of one object, bounded by ``MAX_NUMERATOR_BITS``.

    Each rational read takes its numerator's bits from the object's budget,
    and the first one to overspend it raises, so no later string of the
    object becomes an int or reaches a check. Each distinct denominator
    string is converted once: an object may repeat one long denominator in
    every entry, and ``MAX_DENOMINATOR_BITS`` is only checked on the
    distinct ones after all are read.
    """
    left = MAX_NUMERATOR_BITS
    to_int = lru_cache(maxsize=None)(int)

    def read(s) -> tuple:
        nonlocal left
        numerator, denominator = _rational(s, to_int)
        left -= numerator.bit_length()
        if left < 0:
            raise ValueError(
                f"numerators of more than {MAX_NUMERATOR_BITS} bits in all are over the limit "
                "(kantorovich.jsonio.MAX_NUMERATOR_BITS)"
            )
        return numerator, denominator

    return read


def _over_lcm(rows) -> tuple:
    """``(rows, denom)``: the ``_rational`` pairs in ``rows`` as ints over their lcm."""
    denominators = {d for row in rows for _, d in row}
    _check_bits(denominators)
    denom = lcm(*denominators)
    return [[n * (denom // d) for n, d in row] for row in rows], denom


def label_to_json(label):
    if isinstance(label, str):
        if label.startswith("["):
            raise ValueError(f"string labels may not begin with '[': {label!r}")
        return label
    if isinstance(label, tuple):
        return [label_to_json(part) for part in label]
    raise ValueError(f"label {label!r} is not JSON-serializable")


@_decoder("label")
def label_from_json(obj):
    if isinstance(obj, str):
        return label_to_json(obj)
    if isinstance(obj, list):
        return tuple(map(label_from_json, obj))
    raise ValueError(f"bad label {obj!r}")


def label_key(label) -> str:
    """Encode a label for use as a JSON object key."""
    encoded = label_to_json(label)
    if isinstance(encoded, str):
        return encoded
    return json.dumps(encoded, separators=(",", ":"))


def label_from_key(key: str):
    """Decode an object key: a plain label, or a tuple label as JSON text."""
    if isinstance(key, str) and not key.startswith("["):
        return key
    try:
        return label_from_json(json.loads(key))
    except (TypeError, json.JSONDecodeError):
        raise ValueError(f"bad label {key!r}") from None


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


def _by_point(obj: dict, key: str, kind: str, parse, default=_REQUIRED) -> dict:
    """``obj[key]``, an object keyed by point, as ``{label: parse(value)}``.

    A point named twice, in two spellings of one tuple label, is an error.
    """
    table = {}
    for k, v in _field(obj, key, kind, dict, default).items():
        label = label_from_key(k)
        if label in table:
            raise ValueError(f"{kind} field {key!r} names the point {label_key(label)!r} twice")
        table[label] = parse(v)
    return table


def space_to_json(space: FinMetricSpace):
    if space.factors is not None:
        left, right = space.factors
        return {"tensor": [space_to_json(left), space_to_json(right)]}
    return {
        "points": [label_to_json(p) for p in space.points],
        "dist": [[_format(x, space._scale) for x in row] for row in space._ints],
    }


def _check_size(n: int):
    if n > MAX_POINTS:
        raise ValueError(
            f"space of {n} points is over the limit of {MAX_POINTS} points "
            "(kantorovich.jsonio.MAX_POINTS)"
        )


@_decoder("space", ("points", "dist", "tensor"), "space")
def space_from_json(obj, resolver: Resolver = None) -> FinMetricSpace:
    if "tensor" in obj:
        if len(obj) > 1:
            raise ValueError("space takes 'tensor' or 'points' and 'dist', not both")
        parts = obj["tensor"]
        if not isinstance(parts, list) or len(parts) != 2:
            raise ValueError("tensor form needs exactly two factor spaces")
        left, right = (space_from_json(part, resolver) for part in parts)
        _check_size(len(left) * len(right))
        _check_bits({left._scale, right._scale})
        return tensor(left, right)
    points, dist = obj.get("points", []), obj.get("dist", [])
    if not (isinstance(points, list) and isinstance(dist, list)) or not all(
        isinstance(row, list) for row in dist
    ):
        raise ValueError("space needs a list of points and a list of dist rows")
    _check_size(max(len(points), len(dist), *map(len, dist)))
    points = [label_from_json(p) for p in points]
    read = _reader()
    rows, denom = _over_lcm([[read(x) for x in row] for row in dist])
    return FinMetricSpace._from_ints(points, rows, denom)


def measure_to_json(p: Measure):
    return {
        "space": space_to_json(p.space),
        "weights": {
            label_key(pt): _format(w, p._denom) for pt, w in zip(p.space.points, p._units) if w
        },
    }


@_decoder("measure", ("space", "weights"), "measure")
def measure_from_json(obj, resolver: Resolver = None) -> Measure:
    space = space_from_json(_field(obj, "space", "measure"), resolver)
    weights = _by_point(obj, "weights", "measure", _reader(), {})
    (units,), denom = _over_lcm([_by_label(space, weights, "weights", (0, 1))])
    return Measure._from_units(space, units, denom)


def map_to_json(f: ShortMap):
    return {
        "domain": space_to_json(f.domain),
        "codomain": space_to_json(f.codomain),
        "table": {
            label_key(p): label_key(t) for p, t in zip(f.domain.points, f.table)
        },
    }


@_decoder("map", ("domain", "codomain", "table"), "map")
def map_from_json(obj, resolver: Resolver = None) -> ShortMap:
    domain = space_from_json(_field(obj, "domain", "map"), resolver)
    codomain = space_from_json(_field(obj, "codomain", "map"), resolver)
    return ShortMap.from_mapping(domain, codomain, _by_point(obj, "table", "map", label_from_key))


def functional_to_json(f: ShortFunctional):
    return {
        "domain": space_to_json(f.domain),
        "values": {
            label_key(p): _format(v, f._denom) for p, v in zip(f.domain.points, f._units)
        },
    }


@_decoder("functional", ("domain", "values"))
def functional_from_json(obj, resolver: Resolver = None) -> ShortFunctional:
    domain = space_from_json(_field(obj, "domain", "functional"), resolver)
    values = _by_point(obj, "values", "functional", _reader())
    (units,), denom = _over_lcm([_by_label(domain, values, "values", (0, 1))])
    return ShortFunctional._from_units(domain, units, denom)


def nested_to_json(mu: NestedMeasure):
    return {
        "base": space_to_json(mu.base),
        "inner": [measure_to_json(m) for m in mu.inner],
        "weights": [_format(w, mu._denom) for w in mu._units],
    }


@_decoder("nested measure", ("base", "inner", "weights"), "nested")
def nested_from_json(obj, resolver: Resolver = None) -> NestedMeasure:
    base = space_from_json(_field(obj, "base", "nested measure"), resolver)
    inner = _field(obj, "inner", "nested measure", list, [])
    weights = _field(obj, "weights", "nested measure", list, [])
    inner = tuple(measure_from_json(m, resolver) for m in inner)
    read = _reader()
    (units,), denom = _over_lcm([[read(w) for w in weights]])
    return NestedMeasure._from_units(base, inner, units, denom)


def monoid_to_json(m: InternalMonoid):
    return {
        "carrier": space_to_json(m.carrier),
        "mult": map_to_json(m.mult),
        "unit": label_to_json(m.unit),
    }


@_decoder("monoid", ("carrier", "mult", "unit"), "monoid")
def monoid_from_json(obj, resolver: Resolver = None) -> InternalMonoid:
    carrier = space_from_json(_field(obj, "carrier", "monoid"), resolver)
    mult = map_from_json(_field(obj, "mult", "monoid"), resolver)
    unit = label_from_json(_field(obj, "unit", "monoid"))
    return InternalMonoid(carrier, mult, unit)


def _bool_from_json(v) -> bool:
    if not isinstance(v, bool):
        raise ValueError(f"bad bool {v!r}")
    return v


def _int_from_json(v) -> int:
    if not isinstance(v, int) or isinstance(v, bool):
        raise ValueError(f"bad int {v!r}")
    return v


def _list_from_json(v) -> list:
    if not isinstance(v, list):
        raise ValueError(f"bad list {v!r}")
    return [value_from_json(x) for x in v]


# Every typed kind of law-suite instances, counterexamples and workspace
# objects: tag -> (class, encoder, decoder). A value takes the tag of the
# first row whose class it is an instance of, so bool comes before int. The
# object kinds' decoders also take a resolver of names, as the CLI passes.
_KINDS = {
    "space": (FinMetricSpace, space_to_json, space_from_json),
    "map": (ShortMap, map_to_json, map_from_json),
    "measure": (Measure, measure_to_json, measure_from_json),
    "functional": (ShortFunctional, functional_to_json, functional_from_json),
    "nested": (NestedMeasure, nested_to_json, nested_from_json),
    "monoid": (InternalMonoid, monoid_to_json, monoid_from_json),
    "bool": (bool, bool, _bool_from_json),
    "int": (int, int, _int_from_json),
    "rational": (Fraction, format_fraction, parse_fraction),
    "point": ((str, tuple), label_to_json, label_from_json),
    "list": (list, lambda v: [value_to_json(x) for x in v], _list_from_json),
}


def _tag(value) -> str:
    """The tag of ``value``'s kind; ValueError if it has none."""
    for tag, (cls, _, _) in _KINDS.items():
        if isinstance(value, cls):
            return tag
    raise ValueError(f"cannot encode {value!r}")


def value_to_json(value):
    """Encode a typed value as {"type": ..., "value": ...}."""
    tag = _tag(value)
    return {"type": tag, "value": _KINDS[tag][1](value)}


@_decoder("typed value", ("type", "value"))
def value_from_json(obj):
    """Decode {"type": ..., "value": ...}."""
    if "type" not in obj:
        raise ValueError(f"bad typed value {obj!r}")
    tag = obj["type"]
    if not isinstance(tag, str) or tag not in _KINDS:
        raise ValueError(f"unknown value type {tag!r}")
    return _KINDS[tag][2](_field(obj, "value", "typed value"))


def instance_to_json(instance: dict):
    return {name: value_to_json(value) for name, value in instance.items()}


@_decoder("instance")
def instance_from_json(obj) -> dict:
    if not isinstance(obj, dict):
        raise ValueError("an instance must be a JSON object")
    return {name: value_from_json(value) for name, value in obj.items()}


def dumps(obj, pretty: bool = False) -> str:
    """Deterministic JSON text: keys sorted, no floats anywhere."""
    if pretty:
        return json.dumps(obj, sort_keys=True, indent=2)
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))

"""Independent checks of the program's outputs, in plain Fraction arithmetic.

Nothing here imports the package under test: every verdict is recomputed
from the benchmark's own inputs (distance matrices, weights, workspace JSON).
Each function returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import gcd

_RATIONAL = re.compile(r"(-?\d+)/(\d+)")


def parse_rational(text):
    """Parse the canonical "p/q" form (lowest terms, q > 0); raise otherwise."""
    if not isinstance(text, str):
        raise ValueError(f"expected a 'p/q' string, got {text!r}")
    match = _RATIONAL.fullmatch(text)
    if match is None:
        raise ValueError(f"not a canonical rational: {text!r}")
    num, den = int(match.group(1)), int(match.group(2))
    if den == 0 or gcd(num, den) != 1:
        raise ValueError(f"not in lowest terms: {text!r}")
    return Fraction(num, den)


def format_rational(x):
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def label_key(label):
    """A point label as a JSON object key: strings as-is, tuples as arrays."""
    if isinstance(label, str):
        return label
    return json.dumps(_label_json(label), separators=(",", ":"))


def _label_json(label):
    if isinstance(label, tuple):
        return [_label_json(part) for part in label]
    return label


def _label_from_json(obj):
    if isinstance(obj, list):
        return tuple(_label_from_json(part) for part in obj)
    return obj


def _label_from_key(key):
    return _label_from_json(json.loads(key)) if key.startswith("[") else key


# -- Wasserstein-1 certificates ----------------------------------------------


def w1_problems(dist, p, q, value, coupling, witness):
    """Check that ``coupling`` and ``witness`` prove ``value`` is W1(p, q).

    A coupling of p and q bounds W1 from above by its cost; a 1-Lipschitz
    witness bounds it from below by its integral gap. When both equal
    ``value`` the value is optimal, whatever solver produced it.
    """
    n = len(dist)
    problems = []
    if len(p) != n or len(q) != n:
        return [f"weights have {len(p)}/{len(q)} entries for {n} points"]
    if len(coupling) != n or any(len(row) != n for row in coupling):
        return [f"coupling is not {n}x{n}"]
    if len(witness) != n:
        return [f"witness has {len(witness)} values for {n} points"]
    for i, row in enumerate(coupling):
        if any(x < 0 for x in row):
            problems.append(f"coupling row {i} has a negative entry")
        if sum(row) != p[i]:
            problems.append(f"coupling row {i} sums to {sum(row)}, not {p[i]}")
    for j in range(n):
        col = sum(row[j] for row in coupling)
        if col != q[j]:
            problems.append(f"coupling column {j} sums to {col}, not {q[j]}")
    cost = sum(
        (coupling[i][j] * dist[i][j] for i in range(n) for j in range(n) if coupling[i][j]),
        Fraction(0),
    )
    if cost != value:
        problems.append(f"coupling cost {cost} differs from stated distance {value}")
    for i in range(n):
        fi, row = witness[i], dist[i]
        for j in range(i + 1, n):
            if abs(fi - witness[j]) > row[j]:
                problems.append(f"witness is not 1-Lipschitz between points {i} and {j}")
                break
    gap = sum((f * (a - b) for f, a, b in zip(witness, p, q)), Fraction(0))
    if gap != value:
        problems.append(f"witness gap {gap} differs from stated distance {value}")
    return problems


# -- workspace model -----------------------------------------------------------


class Space:
    def __init__(self, points, dist):
        self.points = list(points)
        self.dist = dist
        self.index = {label: k for k, label in enumerate(self.points)}
        self.factors = None

    @classmethod
    def tensor(cls, left, right):
        points = [(a, b) for a in left.points for b in right.points]
        dist = [
            [left.dist[i][k] + right.dist[j][m] for k in range(len(left.points)) for m in range(len(right.points))]
            for i in range(len(left.points))
            for j in range(len(right.points))
        ]
        space = cls(points, dist)
        space.factors = (left, right)
        return space


class Workspace:
    """The workspace JSON read back with plain Fractions, no validation."""

    def __init__(self, data):
        self.data = data
        self.spaces = {}
        for name in data.get("spaces", {}):
            self.space(name)

    def space(self, obj):
        if isinstance(obj, str):
            if obj not in self.spaces:
                self.spaces[obj] = self.space(self.data["spaces"][obj])
            return self.spaces[obj]
        if "tensor" in obj:
            left, right = obj["tensor"]
            return Space.tensor(self.space(left), self.space(right))
        points = [_label_from_json(p) for p in obj["points"]]
        dist = [[parse_rational(x) for x in row] for row in obj["dist"]]
        return Space(points, dist)

    def measure(self, name):
        """(space, dense weight list) of a named measure."""
        obj = self.data["measures"][name]
        space = self.space(obj["space"])
        weights = [Fraction(0)] * len(space.points)
        for key, w in obj["weights"].items():
            weights[space.index[_label_from_key(key)]] = parse_rational(w)
        return space, weights

    def map_table(self, obj):
        if isinstance(obj, str):
            obj = self.data["maps"][obj]
        return self.space(obj["domain"]), self.space(obj["codomain"]), dict(obj["table"])


def _product(left, right):
    return [a * b for a in left for b in right]


def _marginals(space, weights):
    left, right = space.factors
    nr = len(right.points)
    first = [Fraction(0)] * len(left.points)
    second = [Fraction(0)] * nr
    for k, w in enumerate(weights):
        first[k // nr] += w
        second[k % nr] += w
    return (left, first), (right, second)


def _push(domain, codomain, table, weights):
    out = [Fraction(0)] * len(codomain.points)
    for label, w in zip(domain.points, weights):
        target = table[label_key(label)]
        out[codomain.index[_label_from_key(target)]] += w
    return out


def _space_json_problems(expected, got, where):
    """Compare a space as the program printed it with the expected space."""
    if expected.factors is not None:
        if not isinstance(got, dict) or set(got) != {"tensor"} or len(got["tensor"]) != 2:
            return [f"{where}: expected a tensor space"]
        return _space_json_problems(expected.factors[0], got["tensor"][0], where) + _space_json_problems(
            expected.factors[1], got["tensor"][1], where
        )
    if not isinstance(got, dict) or set(got) != {"points", "dist"}:
        return [f"{where}: expected an explicit space"]
    if [_label_from_json(p) for p in got["points"]] != expected.points:
        return [f"{where}: points differ"]
    if [[parse_rational(x) for x in row] for row in got["dist"]] != expected.dist:
        return [f"{where}: distances differ"]
    return []


def _measure_json_problems(space, weights, got, where):
    if not isinstance(got, dict) or set(got) != {"space", "weights"}:
        return [f"{where}: not a measure object"]
    problems = _space_json_problems(space, got["space"], where)
    expected = {label_key(label): w for label, w in zip(space.points, weights) if w}
    try:
        printed = {k: parse_rational(v) for k, v in got["weights"].items()}
    except ValueError as exc:
        return problems + [f"{where}: {exc}"]
    if printed != expected:
        problems.append(f"{where}: weights differ from the recomputed measure")
    return problems


def cli_problems(ws, argv, output):
    """Check one ``--json`` CLI output against the workspace it read.

    ``argv`` is the command and its positional arguments, for example
    ``["distance", "m0", "m1", "-v"]``; ``output`` is the parsed JSON.
    """
    command, args = argv[0], [a for a in argv[1:] if not a.startswith("-")]
    try:
        if command == "validate":
            counts = {section: len(ws.data.get(section, {})) for section in ("spaces", "maps", "measures", "nested", "monoids")}
            return [] if output == {"ok": True, "counts": counts} else ["validate: counts or status differ"]
        if command == "distance":
            return _distance_problems(ws, args, output)
        if command == "independent":
            space, weights = ws.measure(args[0])
            (_, first), (_, second) = _marginals(space, weights)
            expected = _product(first, second) == weights
            return [] if output == {"independent": expected} else [f"independent: expected {expected}"]
        if command == "product":
            (sp, wp), (sq, wq) = ws.measure(args[0]), ws.measure(args[1])
            return _measure_json_problems(Space.tensor(sp, sq), _product(wp, wq), output, "product")
        if command == "marginals":
            (s1, w1), (s2, w2) = _marginals(*ws.measure(args[0]))
            if not isinstance(output, dict) or set(output) != {"first", "second"}:
                return ["marginals: expected first and second"]
            return _measure_json_problems(s1, w1, output["first"], "first marginal") + _measure_json_problems(
                s2, w2, output["second"], "second marginal"
            )
        if command == "expect":
            obj = ws.data["nested"][args[0]]
            base = ws.space(obj["base"])
            totals = [Fraction(0)] * len(base.points)
            for inner, w in zip(obj["inner"], obj["weights"]):
                _, weights = ws.measure(inner)
                totals = [t + parse_rational(w) * x for t, x in zip(totals, weights)]
            return _measure_json_problems(base, totals, output, "expect")
        if command == "convolve":
            monoid = ws.data["monoids"][args[0]]
            carrier = ws.space(monoid["carrier"])
            domain, _, table = ws.map_table(monoid["mult"])
            (_, wp), (_, wq) = ws.measure(args[1]), ws.measure(args[2])
            return _measure_json_problems(carrier, _push(domain, carrier, table, _product(wp, wq)), output, "convolve")
        if command == "pushforward":
            domain, codomain, table = ws.map_table(args[0])
            _, weights = ws.measure(args[1])
            return _measure_json_problems(codomain, _push(domain, codomain, table, weights), output, "pushforward")
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        return [f"{command}: malformed output ({type(exc).__name__}: {exc})"]
    return [f"no check for command {command!r}"]


def _distance_problems(ws, args, output):
    (space, p), (space_q, q) = ws.measure(args[0]), ws.measure(args[1])
    if space_q is not space:
        return ["distance: measures on different spaces"]
    if not isinstance(output, dict) or set(output) != {"distance", "coupling", "witness"}:
        return ["distance: expected distance, coupling and witness"]
    value = parse_rational(output["distance"])
    coupling = [[parse_rational(x) for x in row] for row in output["coupling"]]
    witness_obj = output["witness"]
    problems = _space_json_problems(space, witness_obj["domain"], "witness domain")
    values = witness_obj["values"]
    if set(values) != {label_key(label) for label in space.points}:
        return problems + ["witness does not cover the space"]
    witness = [parse_rational(values[label_key(label)]) for label in space.points]
    return problems + w1_problems(space.dist, p, q, value, coupling, witness)

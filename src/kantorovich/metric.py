"""Finite metric spaces, short (1-Lipschitz) maps, and the tensor product.

All distances and functional values are exact rationals, and every
invariant (metric axioms, shortness) is checked exhaustively at construction
time. Every exact object of the package (space, functional, measure, nested
measure, transport plan) follows one rule. It stores one form of its
numbers: ints over one common denominator, reduced, so that equal values
have equal ints. It is built from that form: the public constructors check
the shape of what they are given, turn it into ints with ``_to_units`` and
keep nothing else, and objects computed from other objects (generated
spaces, joints, closures, nested measures) hand their ints, reduced by
``_reduced``, to construction directly. A tensor is built from its two
factors alone: its ints are computed once, as the sum of theirs over the
lcm of their scales, which is reduced and a metric because the factors
were checked when they were built, so nothing about it is checked again.
A space given both a matrix and factors is accepted, in quadratic time,
when it equals the tensor that :func:`tensor` builds from those factors.
Checks, their error messages, equality and the hash read the ints: the
triangle inequality is tested on every triple of any other space and the
Lipschitz bound on every pair, one C-level pass per point or pair; a
failing check names its first violation with ``Fraction``s made from the
ints it tested. The public ``Fraction`` table (``dist``, ``values``,
``weights``, ``coupling``) is made on first read, one ``Fraction`` per
distinct value, and kept. Values are immutable after construction; every
operation is a pure function.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain, product
from math import gcd, lcm
from operator import add
from typing import Hashable, Iterable, Mapping

Label = Hashable

TERMINAL_POINT = "*"

# The private ``_kernel`` of a tensor: its rows are the sum of its factors'.
_SUM = object()


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


class _OnFirstRead:
    """A value that every instance makes from its ints on first read.

    A non-data descriptor, for the public tables and the hash. Every
    construction keeps only the ints of the table it was given (``None``
    from a kernel construction); the first read computes ``make(instance)``
    and stores it on the instance, which then shadows this. Reading it on
    the class raises AttributeError.
    """

    def __init__(self, make):
        self.make = make

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            raise AttributeError(self.name)
        value = instance.__dict__[self.name] = self.make(instance)
        return value


class _Exact:
    """An immutable value: every value type is a plain class over this base.

    ``__init__`` writes the attributes once, through ``__dict__``; setting or
    deleting one afterwards raises AttributeError. The repr shows the
    ``_fields`` in order. Equality and the hash read ``_key``: the fields, or
    for an exact type its stored ints and the objects it lives on, never a
    ``Fraction`` table. The ints are reduced, so equal objects have equal
    keys. The hash is computed on first use and kept.
    """

    _hash = _OnFirstRead(lambda obj: hash(obj._key()))

    def _key(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot set or delete {name!r}: {type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return self._hash


class FinMetricSpace(_Exact):
    """A finite metric space: ordered point labels and an exact distance matrix.

    Construction validates the full set of metric axioms: zero diagonal,
    strict positivity off the diagonal (genuine metric, not pseudometric),
    symmetry, and the triangle inequality over all triples. A space given
    a matrix and two ``factors`` whose :func:`tensor` it equals has the
    axioms from its factors, and one built by :func:`tensor` is computed
    from its factors and has them by construction. Distinct points at
    distance zero are rejected, never quotiented.

    ``factors`` records how a space was built by :func:`tensor`; it is
    construction metadata and takes no part in equality or hashing. Given
    factors must be two spaces whose tensor equals the space; a list of them
    is kept as a tuple. Other factors get the full check, and then a
    ValueError if the matrix passes it.
    ``_ints`` is ``dist`` scaled to integers by ``_scale``, the least common
    denominator of its entries; the axioms are checked on it, and so are
    map shortness, functional shortness and the transport costs. That form
    is reduced by its gcd, so it is canonical, and equality and hashing read
    it.
    """

    _fields = ("points", "dist", "factors")
    dist = _OnFirstRead(lambda space: _over(space._ints, space._scale))

    def __init__(self, points, dist, factors=None, _kernel=None):
        points = tuple(points)
        index = {p: i for i, p in enumerate(points)}
        n = len(points)
        if n == 0:
            raise ValueError("a metric space needs at least one point")
        if len(index) != n:
            raise ValueError("point labels must be pairwise distinct")
        if _kernel is _SUM:
            # the sum of two checked metrics, over the lcm of two reduced
            # scales: a metric, and reduced, so it needs no check
            scale = lcm(factors[0]._scale, factors[1]._scale)
            ints = _sum_rows(*factors, scale)
        else:
            public = _kernel is None
            table = _flat(dist if public else _kernel[0], n, "distance matrix")
            units, scale = _to_units(table) if public else _reduced(table, _kernel[1])
            ints = tuple(units[i : i + n] for i in range(0, n * n, n))
            if isinstance(factors, list):
                factors = tuple(factors)
        vars(self).update(points=points, factors=factors, _index=index, _ints=ints, _scale=scale)
        if _kernel is _SUM or (
            # sizes first, so factors of the wrong size build no tensor; the
            # tensor of two checked metrics needs no check, and comparing
            # keys, its points and reduced ints, takes O(n^2)
            isinstance(factors, tuple)
            and len(factors) == 2
            and all(isinstance(f, FinMetricSpace) for f in factors)
            and len(factors[0]) * len(factors[1]) == n
            and tensor(*factors)._key() == self._key()
        ):
            return
        _check_axioms(self)
        if factors is not None:
            raise ValueError("factors must be two spaces whose tensor is this space")

    @classmethod
    def _from_ints(cls, points, rows, scale: int) -> "FinMetricSpace":
        """The space with distances ``rows[i][j] / scale``, checked like any other."""
        return cls(points, None, None, (rows, scale))

    def _key(self):
        return self._scale, self._ints, self.points

    def __len__(self) -> int:
        return len(self.points)

    def index(self, point: Label) -> int:
        try:
            return self._index[point]
        except KeyError:
            raise ValueError(f"unknown point {point!r}") from None

    def distance(self, a: Label, b: Label) -> Fraction:
        return self.dist[self.index(a)][self.index(b)]


def _check_axioms(space: FinMetricSpace) -> None:
    """Raise on the first metric axiom that the space's ``_ints`` breaks.

    It runs on every space given a matrix, unless the space was given
    ``factors`` whose tensor it is, and never on one that ``tensor`` builds,
    whose ints are computed from its factors in the first place. One pass
    per row tests its diagonal entry, then its other entries for positivity
    and the row against its column for symmetry at C speed; only a failing
    row is scanned for its first bad column; then the triangle inequality
    is tested on every triple. The messages give the exact values as
    ``Fraction``s of the ints that were tested.
    """
    points, ints, scale = space.points, space._ints, space._scale
    n = len(ints)
    columns = tuple(zip(*ints))
    for i, row in enumerate(ints):
        if row[i]:
            raise ValueError(f"dist({points[i]!r}, {points[i]!r}) must be 0")
        if min(row[:i] + row[i + 1 :], default=1) <= 0 or row != columns[i]:
            j = next(j for j in range(n) if j != i and (row[j] <= 0 or row[j] != ints[j][i]))
            if row[j] <= 0:
                raise ValueError(
                    f"distinct points {points[i]!r}, {points[j]!r} require "
                    f"positive distance, got {Fraction(row[j], scale)}"
                )
            raise ValueError(f"asymmetric distances between {points[i]!r} and {points[j]!r}")
    # with symmetry, d(k, j) is row j's entry k, so one C-level pass over k
    # checks a pair; the first violating pair in row-major order has i < j
    for i, row in enumerate(ints):
        for j in range(i + 1, n):
            if row[j] > min(map(add, row, ints[j])):
                k = next(k for k in range(n) if row[j] > row[k] + ints[k][j])
                raise ValueError(
                    "triangle inequality violated: "
                    f"d({points[i]!r},{points[j]!r}) = {Fraction(row[j], scale)} > "
                    f"d({points[i]!r},{points[k]!r}) + d({points[k]!r},{points[j]!r}) = "
                    f"{Fraction(row[k] + ints[k][j], scale)}"
                )


def _over(rows, scale: int) -> tuple:
    """The int matrix ``rows`` divided by ``scale``, one Fraction per distinct value."""
    fractions = {x: Fraction(x, scale) for x in {x for row in rows for x in row}}
    return tuple(tuple(map(fractions.__getitem__, row)) for row in rows)


def _flat(matrix, n: int, name: str):
    """The entries of the n x n ``matrix`` row by row; ValueError if it has another shape."""
    rows = tuple(map(tuple, matrix))
    if len(rows) != n or any(len(row) != n for row in rows):
        raise ValueError(f"{name} must be {n}x{n}")
    return tuple(chain.from_iterable(rows))


def _to_units(values) -> tuple:
    """``(units, denom)``: ``values`` as Fractions over their least common denominator.

    The least common denominator leaves the units with gcd 1, so this form
    is already reduced.
    """
    values = tuple(map(_as_fraction, values))
    denom = lcm(*{x.denominator for x in values})
    return tuple(x.numerator * (denom // x.denominator) for x in values), denom


def _reduced(units, denom: int):
    """``units`` and ``denom`` divided by their greatest common divisor."""
    g = gcd(denom, *units)
    if g == 1:
        return tuple(units), denom
    return tuple(x // g for x in units), denom // g


def terminal() -> FinMetricSpace:
    """The one-point space; the tensor unit and terminal object."""
    return FinMetricSpace._from_ints((TERMINAL_POINT,), ((0,),), 1)


def _shape(space: FinMetricSpace):
    """The factor tree of a space: None for a plain space, else a pair of trees."""
    if space.factors is None:
        return None
    return (_shape(space.factors[0]), _shape(space.factors[1]))


def tensor(x: FinMetricSpace, y: FinMetricSpace) -> FinMetricSpace:
    """Product of point sets with the sum metric.

    d((a, b), (a', b')) = d(a, a') + d(b, b').  Points are ordered pairs in
    row-major order with the left factor outer, and the result remembers its
    factors so marginals need no inference. Its int matrix is computed once
    from the factors, which were checked when they were built; the sum of
    two metrics is a metric, so it is not checked again. A space given a
    matrix and factors is compared with the tensor of those factors, built
    here. Only the most
    recent tensors are cached: nearly all reuse falls within one law check,
    so a small cache keeps that saving without holding spaces from one
    check to the next, and what the package holds between calls stays
    small. A repeated tensor may therefore be a new instance, equal to the
    earlier one. Space equality ignores ``factors``, so the cache key also
    holds each factor's factor tree; points, distances and tree together
    fix the factorization.
    """
    return _tensor(x, y, _shape(x), _shape(y))


# 64 entries keep 98% of the hits of 1,024: over 300 ``run_suite(s, 1)``
# rounds (seeds from random.Random("suite:1")), 17,458 against 17,786 hits of
# 32,139 calls, and the same 17,458 down to 50 entries; at 48 it is 17,148.
# After 60 such rounds 1,024 entries hold 3.07 MB of spaces and 64 hold
# 0.18 MB (tracemalloc).
@lru_cache(maxsize=64)
def _tensor(x, y, x_shape, y_shape):
    return FinMetricSpace(product(x.points, y.points), None, (x, y), _SUM)


def _sum_rows(x: FinMetricSpace, y: FinMetricSpace, scale: int) -> tuple:
    """The int rows of the sum metric on x times y over ``scale``, the lcm of both scales.

    They are reduced: a prime dividing that scale and every row would
    divide one factor's scale and all its ints.
    """
    sx, sy = scale // x._scale, scale // y._scale
    x_rows = [[d * sx for d in row] for row in x._ints]
    y_rows = [[d * sy for d in row] for row in y._ints]
    return tuple(tuple([a + b for a in xr for b in yr]) for xr in x_rows for yr in y_rows)


tensor.cache_info = _tensor.cache_info


def _first_long_pair(domain: FinMetricSpace, codomain: FinMetricSpace, table) -> tuple | None:
    """The first pair i < j that ``table`` sends farther apart, or None if it is short.

    Compares the two integer matrices, each multiplied by the other's scale.
    """
    targets = [codomain.index(t) for t in table]
    dd, cd = domain._ints, codomain._ints
    sd, sc = domain._scale, codomain._scale
    for i, ti in enumerate(targets):
        row, image_row = dd[i], cd[ti]
        for j in range(i + 1, len(targets)):
            if image_row[targets[j]] * sd > row[j] * sc:
                return i, j
    return None


class ShortMap(_Exact):
    """A 1-Lipschitz function given by a total lookup table.

    ``table`` lists the codomain label for each domain point, aligned with
    ``domain.points``. Shortness is checked exhaustively on construction.
    """

    _fields = ("domain", "codomain", "table")

    def __init__(self, domain, codomain, table):
        table = tuple(table)
        vars(self).update(domain=domain, codomain=codomain, table=table)
        if len(table) != len(domain):
            raise ValueError("table must assign a value to every domain point")
        pair = _first_long_pair(domain, codomain, table)
        if pair is not None:
            i, j = pair
            image = codomain._ints[codomain.index(table[i])][codomain.index(table[j])]
            raise ValueError(
                "map is not short: "
                f"d({table[i]!r},{table[j]!r}) = {Fraction(image, codomain._scale)} > "
                f"d({domain.points[i]!r},{domain.points[j]!r}) = "
                f"{Fraction(domain._ints[i][j], domain._scale)}"
            )

    @classmethod
    def from_mapping(
        cls, domain: FinMetricSpace, codomain: FinMetricSpace, mapping: Mapping[Label, Label]
    ) -> "ShortMap":
        missing = [p for p in domain.points if p not in mapping]
        if missing:
            raise ValueError(f"table missing domain points: {missing!r}")
        unknown = [p for p in mapping if p not in domain._index]
        if unknown:
            raise ValueError(f"table names unknown domain points: {unknown!r}")
        return cls(domain, codomain, tuple(mapping[p] for p in domain.points))

    def __call__(self, point: Label) -> Label:
        return self.table[self.domain.index(point)]


def identity(x: FinMetricSpace) -> ShortMap:
    return ShortMap(x, x, x.points)


def compose(f: ShortMap, g: ShortMap) -> ShortMap:
    """Apply ``f`` then ``g`` (diagrammatic order)."""
    if f.codomain != g.domain:
        raise ValueError("compose: codomain of the first map must equal the domain of the second")
    return ShortMap(f.domain, g.codomain, tuple(g(t) for t in f.table))


def tensor_map(f: ShortMap, g: ShortMap) -> ShortMap:
    """The map f x g between tensor spaces, (a, b) -> (f(a), g(b))."""
    dom = tensor(f.domain, g.domain)
    cod = tensor(f.codomain, g.codomain)
    return ShortMap(dom, cod, tuple((f(a), g(b)) for a, b in dom.points))


def bang(x: FinMetricSpace) -> ShortMap:
    """The unique map to the terminal space."""
    return ShortMap(x, terminal(), (TERMINAL_POINT,) * len(x))


def proj1(x: FinMetricSpace, y: FinMetricSpace) -> ShortMap:
    """First projection from the tensor, (a, b) -> a."""
    dom = tensor(x, y)
    return ShortMap(dom, x, tuple(a for a, _ in dom.points))


def proj2(x: FinMetricSpace, y: FinMetricSpace) -> ShortMap:
    """Second projection from the tensor, (a, b) -> b."""
    dom = tensor(x, y)
    return ShortMap(dom, y, tuple(b for _, b in dom.points))


def braiding(x: FinMetricSpace, y: FinMetricSpace) -> ShortMap:
    """The swap isometry tensor(x, y) -> tensor(y, x)."""
    dom = tensor(x, y)
    return ShortMap(dom, tensor(y, x), tuple((b, a) for a, b in dom.points))


def unitor_left(x: FinMetricSpace) -> ShortMap:
    """The isometry tensor(terminal(), x) -> x dropping the unit coordinate."""
    return proj2(terminal(), x)


def unitor_right(x: FinMetricSpace) -> ShortMap:
    """The isometry tensor(x, terminal()) -> x dropping the unit coordinate."""
    return proj1(x, terminal())


def associator(
    x: FinMetricSpace, y: FinMetricSpace, z: FinMetricSpace
) -> ShortMap:
    """The re-association isometry tensor(tensor(x,y),z) -> tensor(x,tensor(y,z))."""
    dom = tensor(tensor(x, y), z)
    cod = tensor(x, tensor(y, z))
    return ShortMap(dom, cod, tuple((a, (b, c)) for (a, b), c in dom.points))


def middle_interchange(
    w: FinMetricSpace, x: FinMetricSpace, y: FinMetricSpace, z: FinMetricSpace
) -> ShortMap:
    """The isometry tensor(tensor(w,x), tensor(y,z)) -> tensor(tensor(w,y), tensor(x,z)).

    Swaps the two middle coordinates; distances are preserved because the sum
    metric is invariant under permuting coordinates.
    """
    dom = tensor(tensor(w, x), tensor(y, z))
    cod = tensor(tensor(w, y), tensor(x, z))
    return ShortMap(dom, cod, tuple(((a, c), (b, d)) for (a, b), (c, d) in dom.points))


class ShortFunctional(_Exact):
    """A 1-Lipschitz rational-valued function on a finite metric space.

    ``values`` is aligned with ``domain.points``. The Lipschitz bound
    |f(a) - f(b)| <= d(a, b) is checked over all pairs on construction, on
    ``_units``: the values scaled to integers by ``_denom``, the least common
    denominator of their entries. Equality and hashing read that form.
    """

    _fields = ("domain", "values")
    values = _OnFirstRead(lambda f: _over((f._units,), f._denom)[0])

    def __init__(self, domain, values, _kernel=None):
        units, denom = _to_units(values) if _kernel is None else _kernel
        if len(units) != len(domain):
            raise ValueError("functional must assign a value to every point")
        vars(self).update(domain=domain, _units=units, _denom=denom)
        _check_short(domain, units, denom)

    @classmethod
    def _from_units(cls, domain: FinMetricSpace, units, denom: int) -> "ShortFunctional":
        """The functional with values ``units[i] / denom``, checked like any other."""
        return cls(domain, None, _reduced(units, denom))

    def _key(self):
        return self._denom, self._units, self.domain

    @classmethod
    def from_mapping(
        cls, domain: FinMetricSpace, mapping: Mapping[Label, Fraction]
    ) -> "ShortFunctional":
        return cls(domain, _by_label(domain, mapping, "values"))

    def __call__(self, point: Label) -> Fraction:
        return self.values[self.domain.index(point)]


def _by_label(space: FinMetricSpace, mapping, name: str, zero=0) -> list:
    """``mapping``'s values in the order of ``space.points``, ``zero`` where it has none."""
    unknown = [p for p in mapping if p not in space._index]
    if unknown:
        raise ValueError(f"{name} name unknown points: {unknown!r}")
    return [mapping.get(p, zero) for p in space.points]


def _check_short(domain: FinMetricSpace, units, denom: int) -> None:
    """Raise ValueError unless the values ``units[i] / denom`` are short on ``domain``.

    f(i) - f(j) <= d(i, j) for every ordered pair is the Lipschitz bound,
    checked on ints in one C-level pass per point: f(i) <= min over j of
    d(i, j) + f(j). :class:`ShortFunctional` and the value path of
    :func:`~kantorovich.transport.wasserstein_distance` both check here.
    """
    values, rows, scale = _common(domain, units, denom)
    if any(v > min(map(add, row, values)) for v, row in zip(values, rows)):
        n, points = len(values), domain.points
        pairs = ((i, j) for i in range(n) for j in range(i + 1, n))
        i, j = next((i, j) for i, j in pairs if abs(values[i] - values[j]) > rows[i][j])
        raise ValueError(
            "functional is not short: "
            f"|f({points[i]!r}) - f({points[j]!r})| = "
            f"{Fraction(abs(values[i] - values[j]), scale)} > d = {Fraction(rows[i][j], scale)}"
        )


def _common(domain: FinMetricSpace, units, denom: int):
    """``units / denom`` and ``domain``'s int matrix over their common denominator.

    Returns ``(values, rows, scale)``; each side is multiplied by the
    other's share of the lcm, so an unscaled side is passed through as is.
    """
    scale = lcm(denom, domain._scale)
    a, b = scale // denom, scale // domain._scale
    values = units if a == 1 else [x * a for x in units]
    rows = domain._ints if b == 1 else [[x * b for x in row] for row in domain._ints]
    return values, rows, scale


def zero_functional(x: FinMetricSpace) -> ShortFunctional:
    return ShortFunctional._from_units(x, (0,) * len(x), 1)


def sum_functional(f: ShortFunctional, g: ShortFunctional) -> ShortFunctional:
    """(a, b) -> f(a) + g(b) on tensor(f.domain, g.domain).

    Short for the sum metric: the increments in each coordinate add up, so
    the constructor check never fails.
    """
    dom = tensor(f.domain, g.domain)
    denom = lcm(f._denom, g._denom)
    a, b = denom // f._denom, denom // g._denom
    return ShortFunctional._from_units(
        dom, [x * a + y * b for x in f._units for y in g._units], denom
    )


def mcshane_closure(space: FinMetricSpace, values: Iterable) -> ShortFunctional:
    """Repair arbitrary rational values into a short functional.

    Replaces f by x -> min over y of (f(y) + d(x, y)). The result is always
    short and the operation fixes inputs that were already short.
    """
    units, denom = _to_units(values)
    if len(units) != len(space):
        raise ValueError("need one value per point")
    units, rows, scale = _common(space, units, denom)
    return ShortFunctional._from_units(
        space, [min(map(add, row, units)) for row in rows], scale
    )

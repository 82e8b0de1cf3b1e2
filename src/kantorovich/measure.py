"""Finitely-supported probability measures with exact rational weights.

Weights are exact rationals, kept as ints over their least common
denominator, and the sign and sum-to-one checks, equality, hashing,
integration, pushforward and the joint and marginal maps all run on those
ints; the ``Fraction`` weights are made on first read, as for every exact
object (see :mod:`kantorovich.metric`).
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Mapping

from .metric import (
    FinMetricSpace,
    Label,
    ShortFunctional,
    ShortMap,
    _Exact,
    _by_label,
    _OnFirstRead,
    _over,
    _reduced,
    _to_units,
)


class Measure(_Exact):
    """A probability measure on a finite metric space.

    Weights are stored densely against the full point list of the space
    (zero-weight points retained), so equality is exact pointwise comparison
    of weight tables. Weights must be nonnegative and sum to exactly 1.
    ``_units`` is ``weights`` scaled to integers by ``_denom``, the least
    common denominator of its entries; that form is canonical, so equality
    and hashing read it.
    """

    _fields = ("space", "weights")
    weights = _OnFirstRead(lambda p: _over((p._units,), p._denom)[0])

    def __init__(self, space, weights, _kernel=None):
        units, denom = _to_units(weights) if _kernel is None else _kernel
        vars(self).update(space=space, _units=units, _denom=denom)
        if len(units) != len(space):
            raise ValueError("need one weight per point of the space")
        if min(units) < 0:
            p, w = next((p, w) for p, w in zip(space.points, units) if w < 0)
            raise ValueError(f"negative weight {Fraction(w, denom)} at {p!r}")
        if sum(units) != denom:
            raise ValueError(f"weights sum to {Fraction(sum(units), denom)}, expected exactly 1")

    @classmethod
    def _from_units(cls, space: FinMetricSpace, units, denom: int) -> "Measure":
        """The measure with weights ``units[i] / denom``, checked like any other."""
        return cls(space, None, _reduced(units, denom))

    def _key(self):
        return self._denom, self._units, self.space

    @classmethod
    def from_mapping(cls, space: FinMetricSpace, mapping: Mapping[Label, Fraction]) -> "Measure":
        """Build from a label-to-weight mapping; missing labels mean weight 0."""
        return cls(space, _by_label(space, mapping, "weights"))

    def weight_at(self, point: Label) -> Fraction:
        return self.weights[self.space.index(point)]

    def support(self) -> tuple:
        return tuple(p for p, w in zip(self.space.points, self._units) if w > 0)


def dirac(space: FinMetricSpace, point: Label) -> Measure:
    """The unit of the monad: all mass at one point."""
    i = space.index(point)
    return Measure._from_units(space, tuple(int(j == i) for j in range(len(space))), 1)


def uniform(space: FinMetricSpace) -> Measure:
    n = len(space)
    return Measure._from_units(space, (1,) * n, n)


def integrate(f: ShortFunctional, p: Measure) -> Fraction:
    """The exact weighted sum of f against p."""
    if f.domain != p.space:
        raise ValueError("functional and measure live on different spaces")
    return Fraction(sum(map(mul, f._units, p._units)), f._denom * p._denom)


def pushforward(f: ShortMap, p: Measure) -> Measure:
    """The image measure: mass of each point is sent through the table of f."""
    if f.domain != p.space:
        raise ValueError("map and measure live on different spaces")
    return _image(f.codomain, f.table, p)


def _image(codomain: FinMetricSpace, table, p) -> Measure:
    """The measure on ``codomain`` that sends the mass of p at each point to its target.

    Reads only ``p._units`` and ``p._denom``, so p is a :class:`Measure`
    for :func:`pushforward` and :func:`~kantorovich.structure.independent_maps`,
    and a nested measure for :func:`~kantorovich.monad.nested_distance`,
    whose weights are a measure on its list of inner measures; repeated
    targets add up.
    """
    out = [0] * len(codomain)
    index = codomain.index
    for target, w in zip(table, p._units):
        if w:
            out[index(target)] += w
    return Measure._from_units(codomain, out, p._denom)


def partial_integral(f: ShortFunctional, p: Measure) -> ShortFunctional:
    """Integrate out the first tensor coordinate of f against p.

    For f on tensor(X, Y) and p on X, returns y -> sum over x of f(x, y) p(x).
    The result is short again, which is exactly what the constructor check of
    the returned functional certifies.
    """
    factors = f.domain.factors
    if factors is None:
        raise ValueError("functional domain is not a tensor space")
    x, y = factors
    if p.space != x:
        raise ValueError("measure must live on the first tensor factor")
    ny, units = len(y), f._units
    values = [sum(map(mul, p._units, units[j::ny])) for j in range(ny)]
    return ShortFunctional._from_units(y, values, f._denom * p._denom)

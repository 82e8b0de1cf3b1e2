"""Finitely-supported probability measures with exact rational weights."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .metric import FinMetricSpace, Label, ShortFunctional, ShortMap, _as_fraction


@dataclass(frozen=True)
class Measure:
    """A probability measure on a finite metric space.

    Weights are stored densely against the full point list of the space
    (zero-weight points retained), so equality is exact pointwise comparison
    of weight tables. Weights must be nonnegative and sum to exactly 1.
    """

    space: FinMetricSpace
    weights: tuple

    def __post_init__(self):
        weights = tuple(_as_fraction(w) for w in self.weights)
        object.__setattr__(self, "weights", weights)
        if len(weights) != len(self.space):
            raise ValueError("need one weight per point of the space")
        for p, w in zip(self.space.points, weights):
            if w < 0:
                raise ValueError(f"negative weight {w} at {p!r}")
        total = sum(weights)
        if total != 1:
            raise ValueError(f"weights sum to {total}, expected exactly 1")

    @classmethod
    def from_mapping(
        cls, space: FinMetricSpace, mapping: Mapping[Label, Fraction]
    ) -> "Measure":
        """Build from a label-to-weight mapping; missing labels mean weight 0."""
        unknown = [k for k in mapping if k not in space._index]
        if unknown:
            raise ValueError(f"weights name unknown points: {unknown!r}")
        return cls(space, tuple(_as_fraction(mapping.get(p, 0)) for p in space.points))

    def weight_at(self, point: Label) -> Fraction:
        return self.weights[self.space.index(point)]

    def support(self) -> tuple:
        return tuple(p for p, w in zip(self.space.points, self.weights) if w > 0)


def dirac(space: FinMetricSpace, point: Label) -> Measure:
    """The unit of the monad: all mass at one point."""
    i = space.index(point)
    return Measure(
        space, tuple(Fraction(1) if j == i else Fraction(0) for j in range(len(space)))
    )


def uniform(space: FinMetricSpace) -> Measure:
    n = len(space)
    return Measure(space, (Fraction(1, n),) * n)


def integrate(f: ShortFunctional, p: Measure) -> Fraction:
    """The exact weighted sum of f against p."""
    if f.domain != p.space:
        raise ValueError("functional and measure live on different spaces")
    return sum(
        (v * w for v, w in zip(f.values, p.weights) if w), start=Fraction(0)
    )


def pushforward(f: ShortMap, p: Measure) -> Measure:
    """The image measure: mass of each point is sent through the table of f."""
    if f.domain != p.space:
        raise ValueError("map and measure live on different spaces")
    return _image(f.codomain, f.table, p.weights)


def _image(codomain: FinMetricSpace, table, weights) -> Measure:
    """The measure on ``codomain`` that sends each weight to its point in ``table``."""
    out = [Fraction(0)] * len(codomain)
    for target, w in zip(table, weights):
        if w:
            out[codomain.index(target)] += w
    return Measure(codomain, tuple(out))


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
    ny = len(y)
    values = []
    for j in range(ny):
        total = Fraction(0)
        for i, w in enumerate(p.weights):
            if w:
                total += w * f.values[i * ny + j]
        values.append(total)
    return ShortFunctional(y, tuple(values))

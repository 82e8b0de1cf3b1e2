"""Monad structure: nested measures, averaging, and spaces of measures."""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from .measure import Measure, _image, dirac, pushforward
from .metric import FinMetricSpace, ShortMap, _Exact, _OnFirstRead, _over, _reduced, _to_units
from .transport import wasserstein_distance


class NestedMeasure(_Exact):
    """A finitely-supported measure over measures on a common base space.

    The outer distribution is stored extensionally: an ordered list of inner
    measures and one exact weight each. Duplicate inner measures are allowed
    here and merged only where distinct points are required (see
    :func:`wasserstein_space`). ``_units`` is ``weights`` scaled to integers
    by ``_denom``, their least common denominator, and built, compared and
    hashed as for :class:`Measure`.
    """

    _fields = ("base", "inner", "weights")
    weights = _OnFirstRead(lambda mu: _over((mu._units,), mu._denom)[0])

    def __init__(self, base, inner, weights, _kernel=None):
        inner = tuple(inner)
        units, denom = _to_units(weights) if _kernel is None else _kernel
        vars(self).update(base=base, inner=inner, _units=units, _denom=denom)
        if not inner:
            raise ValueError("a nested measure needs at least one inner measure")
        if len(inner) != len(units):
            raise ValueError("need exactly one weight per inner measure")
        for m in inner:
            if m.space != base:
                raise ValueError("all inner measures must live on the base space")
        if min(units) < 0:
            raise ValueError(f"negative weight {Fraction(next(x for x in units if x < 0), denom)}")
        if sum(units) != denom:
            raise ValueError("outer weights must sum to exactly 1")

    @classmethod
    def _from_units(cls, base: FinMetricSpace, inner, units, denom: int) -> "NestedMeasure":
        """The nested measure with weights ``units[i] / denom``, checked like any other."""
        return cls(base, inner, None, _reduced(units, denom))

    def _key(self):
        return self._denom, self._units, self.inner, self.base


def expectation(mu: NestedMeasure) -> Measure:
    """The monad multiplication: the average of the inner measures."""
    denom = lcm(*(m._denom for m in mu.inner))
    totals = [0] * len(mu.base)
    for m, w in zip(mu.inner, mu._units):
        if w:
            w *= denom // m._denom
            totals = [t + w * x for t, x in zip(totals, m._units)]
    return Measure._from_units(mu.base, totals, denom * mu._denom)


def unit_nested(p: Measure) -> NestedMeasure:
    """All outer mass on the single inner measure p."""
    return NestedMeasure._from_units(p.space, (p,), (1,), 1)


def diracs_nested(p: Measure) -> NestedMeasure:
    """The image of p under the point-to-Dirac map.

    Inner measures are the Diracs of the base points, weighted by p, so
    averaging recovers p.
    """
    return NestedMeasure._from_units(
        p.space, tuple(dirac(p.space, x) for x in p.space.points), p._units, p._denom
    )


def pushforward_nested(f: ShortMap, mu: NestedMeasure) -> NestedMeasure:
    """Apply the pushforward along f to every inner measure."""
    if f.domain != mu.base:
        raise ValueError("map domain must be the base space")
    return NestedMeasure._from_units(
        f.codomain, tuple(pushforward(f, m) for m in mu.inner), mu._units, mu._denom
    )


def merge_duplicates(mu: NestedMeasure) -> NestedMeasure:
    """Sum the weights of repeated inner measures, keeping first-seen order."""
    merged = {}
    for m, w in zip(mu.inner, mu._units):
        merged[m] = merged.get(m, 0) + w
    return NestedMeasure._from_units(mu.base, tuple(merged), tuple(merged.values()), mu._denom)


def wasserstein_space(measures: Sequence[Measure]) -> FinMetricSpace:
    """The finite subspace of the measure space spanned by the given measures.

    Points are the measures themselves; distances are their exact pairwise
    Wasserstein-1 values. The construction re-verifies the metric axioms,
    which hold because distinct weight tables are at positive distance.
    """
    measures = tuple(measures)
    if not measures:
        raise ValueError("need at least one measure")
    base = measures[0].space
    for m in measures:
        if m.space != base:
            raise ValueError("all measures must live on one base space")
    n = len(measures)
    dist = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if measures[i] == measures[j]:
                raise ValueError(f"duplicate measures at positions {i} and {j}")
            dist[i][j] = dist[j][i] = wasserstein_distance(measures[i], measures[j])
    return FinMetricSpace(measures, dist)


def nested_distance(mu: NestedMeasure, nu: NestedMeasure) -> Fraction:
    """Wasserstein-1 between two nested measures, one level up.

    Builds the Wasserstein space on the union of the inner supports and
    solves the outer transport problem there, between the images of the
    outer weights, in which repeated inner measures add up.
    """
    if mu.base != nu.base:
        raise ValueError("nested measures live on different base spaces")
    space = wasserstein_space(dict.fromkeys(mu.inner + nu.inner))
    return wasserstein_distance(_image(space, mu.inner, mu), _image(space, nu.inner, nu))

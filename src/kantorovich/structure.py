"""Product joints, marginals, independence, strength, and convolution.

The product map sends a pair of measures to their independent joint on the
tensor space; the marginal map splits a joint into its two components.
Together they make the measure functor lax and oplax monoidal, and the
law suite checks all coherence conditions exactly.
"""

from __future__ import annotations

from typing import Sequence

from .measure import Measure, _image, dirac, pushforward
from .metric import FinMetricSpace, Label, ShortMap, _Exact, _first_long_pair, tensor


class Law(_Exact):
    """A space together with a chosen probability measure on it."""

    _fields = ("space", "measure")

    def __init__(self, space, measure):
        vars(self).update(space=space, measure=measure)
        if measure.space != space:
            raise ValueError("law measure must live on the law space")


class InternalMonoid(_Exact):
    """A monoid object: a short multiplication on a space with a unit point.

    Associativity and unitality are checked exhaustively over all triples
    and points at construction.
    """

    _fields = ("carrier", "mult", "unit")

    def __init__(self, carrier, mult, unit):
        vars(self).update(carrier=carrier, mult=mult, unit=unit)
        if mult.domain != tensor(carrier, carrier) or mult.codomain != carrier:
            raise ValueError("multiplication must map carrier x carrier to carrier")
        carrier.index(unit)
        for x in carrier.points:
            if mult((unit, x)) != x or mult((x, unit)) != x:
                raise ValueError(f"unit law fails at {x!r}")
            for y in carrier.points:
                for z in carrier.points:
                    if mult((mult((x, y)), z)) != mult((x, mult((y, z)))):
                        raise ValueError(
                            f"associativity fails at ({x!r}, {y!r}, {z!r})"
                        )

    def apply(self, x: Label, y: Label) -> Label:
        return self.mult((x, y))


def product(p: Measure, q: Measure) -> Measure:
    """The independent joint of p and q on the tensor of their spaces."""
    space = tensor(p.space, q.space)
    units = q._units
    return Measure._from_units(
        space, [a * b for a in p._units for b in units], p._denom * q._denom
    )


def marginals(r: Measure):
    """The pair of marginal measures of a joint on a tensor space."""
    if r.space.factors is None:
        raise ValueError(
            "marginals need a space built by tensor(); this one carries no factorization"
        )
    x, y = r.space.factors
    ny, units = len(y), r._units
    wx = [sum(units[k : k + ny]) for k in range(0, len(units), ny)]
    wy = [sum(units[k::ny]) for k in range(ny)]
    return Measure._from_units(x, wx, r._denom), Measure._from_units(y, wy, r._denom)


def is_independent(r: Measure) -> bool:
    """Whether a joint equals the product of its own marginals, exactly."""
    px, py = marginals(r)
    return product(px, py) == r


def product_n(measures: Sequence[Measure]) -> Measure:
    """Iterated product, nested to the left."""
    measures = list(measures)
    if not measures:
        raise ValueError("need at least one measure")
    out = measures[0]
    for m in measures[1:]:
        out = product(out, m)
    return out


def marginals_n(r: Measure, arity: int) -> list:
    """Peel a left-nested n-fold joint into its n marginal measures."""
    if arity < 1:
        raise ValueError("arity must be at least 1")
    if arity == 1:
        return [r]
    left, last = marginals(r)
    return marginals_n(left, arity - 1) + [last]


def is_independent_family(r: Measure, arity: int) -> bool:
    """Whether an n-fold joint is the product of its n marginals."""
    return product_n(marginals_n(r, arity)) == r


def strength(x: Label, q: Measure, space: FinMetricSpace) -> Measure:
    """The joint of a deterministic point with a measure: dirac(x) times q."""
    return product(dirac(space, x), q)


def pushforward_joint(f: ShortMap, p: Measure, q: Measure) -> Measure:
    """Form the independent joint of p and q, then push it through f."""
    expected = tensor(p.space, q.space)
    if f.domain != expected:
        raise ValueError("map domain must be the tensor of the two measure spaces")
    return pushforward(f, product(p, q))


def convolve(p: Measure, q: Measure, m: InternalMonoid) -> Measure:
    """Convolution of measures on a monoid: joint, then multiply."""
    if p.space != m.carrier or q.space != m.carrier:
        raise ValueError("both measures must live on the monoid carrier")
    return pushforward(m.mult, product(p, q))


def law_product(r: Law, s: Law) -> Law:
    """The independent joint of two laws on the tensor of their spaces."""
    joint = product(r.measure, s.measure)
    return Law(joint.space, joint)


def tupling_table(f1: ShortMap, f2: ShortMap):
    """The raw pairing a -> (f1(a), f2(a)) into the tensor of the codomains.

    The pairing need not be short for the sum metric (the tensor is not a
    cartesian product), so this returns the plain table plus a flag saying
    whether the shortness bound happens to hold.
    """
    if f1.domain != f2.domain:
        raise ValueError("the two maps must share their domain")
    a = f1.domain
    cod = tensor(f1.codomain, f2.codomain)
    table = tuple((f1(x), f2(x)) for x in a.points)
    return cod, table, _first_long_pair(a, cod, table) is None


def independent_maps(s: Law, f1: ShortMap, f2: ShortMap) -> bool:
    """Whether two observables of a law are independent.

    Pushes the law forward along the pairing of f1 and f2 and tests the
    resulting joint for independence. Call :func:`tupling_table` for the
    shortness diagnostic of the pairing itself.
    """
    return _maps_independence(s, f1, f2)[0]


def _maps_independence(s: Law, f1: ShortMap, f2: ShortMap):
    """``(independent_maps(s, f1, f2), pairing_short)`` from one pairing table."""
    if f1.domain != s.space or f2.domain != s.space:
        raise ValueError("maps must be defined on the law's space")
    cod, table, short = tupling_table(f1, f2)
    return is_independent(_image(cod, table, s.measure)), short

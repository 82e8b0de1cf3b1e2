"""Randomized law-checking engine.

Every structural equation and inequality of the package is a catalog entry,
registered with :func:`law` on its exact checker together with its instance
generator. The generator returns a dict of named fields and the checker
takes those fields as its parameters, so a replayed instance must carry
exactly its checker's fields. A suite run is fully deterministic: each law
draws its instances from a private generator seeded by a stable hash of the
suite seed and the law id, so adding a law never perturbs the instances of
another. Failures, and cases that raise, never abort a run; they are
recorded in the report together with the first counterexample.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from . import jsonio
from .generate import (
    _numerators,
    random_double_nested,
    random_functional,
    random_measure,
    random_measure_with_support,
    random_monoid,
    random_nested,
    random_short_map,
    random_space,
)
from .measure import Measure, dirac, integrate, partial_integral, pushforward
from .metric import (
    FinMetricSpace,
    associator,
    bang,
    braiding,
    middle_interchange,
    proj1,
    proj2,
    sum_functional,
    tensor,
    tensor_map,
    terminal,
    unitor_left,
    unitor_right,
)
from .monad import (
    NestedMeasure,
    diracs_nested,
    expectation,
    nested_distance,
    pushforward_nested,
    unit_nested,
)
from .structure import (
    Law,
    convolve,
    independent_maps,
    is_independent,
    is_independent_family,
    marginals,
    marginals_n,
    product,
    product_n,
    strength,
)
from .transport import wasserstein, wasserstein_distance, wasserstein_oracle

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class SizeBudget:
    """Limits for generated instances.

    Defaults keep every exact solve sub-second while still exercising
    degenerate cases: spaces of 2 to 6 points, weight numerators up to 64
    before normalization, tensor factors of 2 to 3 points (2 for four-factor
    laws), and nestings of at most 3 by 3. Each limit is an int of at least
    1, and the three point limits are at least 2; any other value is a
    ValueError naming the field.
    """

    max_points: int = 6
    max_factor_points: int = 3
    max_quad_points: int = 2
    max_numerator: int = 64
    max_inner: int = 3
    max_oracle_support: int = 4

    def __post_init__(self):
        # the generators draw spaces of at least two points and at least one of the rest
        for name, value in vars(self).items():
            least = 2 if name.endswith("_points") else 1
            if type(value) is not int or value < least:
                raise ValueError(
                    f"SizeBudget.{name} must be an int of at least {least}, got {value!r}"
                )


DEFAULT_BUDGET = SizeBudget()


@dataclass
class CheckOutcome:
    ok: bool
    lhs: object = None
    rhs: object = None


@dataclass(frozen=True)
class LawCatalogEntry:
    id: str
    statement: str
    generate: Callable[[random.Random, SizeBudget], dict]
    check: Callable[..., CheckOutcome]
    expected_counterexample: bool = False


CATALOG: dict[str, LawCatalogEntry] = {}


def law(law_id, statement, generate, expected_counterexample=False):
    """Register the decorated checker in :data:`CATALOG` under ``law_id``."""

    def register(check):
        if law_id in CATALOG:
            raise ValueError(f"law {law_id!r} is declared twice")
        CATALOG[law_id] = LawCatalogEntry(
            law_id, statement, generate, check, expected_counterexample
        )
        return check

    return register


def _side_json(side):
    """One side of a law in report form.

    A measure becomes its weights by point label, a rational "p/q", and a
    tuple or list a list; booleans, strings and None pass through.
    """
    if isinstance(side, Measure):
        return {
            jsonio.label_key(p): jsonio.format_fraction(w)
            for p, w in zip(side.space.points, side.weights)
        }
    if isinstance(side, (tuple, list)):
        return [_side_json(s) for s in side]
    if isinstance(side, (Fraction, int)) and not isinstance(side, bool):
        return jsonio.format_fraction(side)
    return side


def _spaces(rng, max_points, prefixes):
    return tuple(random_space(rng, max_points=max_points, prefix=p) for p in prefixes)


def _space_pair(rng, budget):
    return _spaces(rng, budget.max_factor_points, "ab")


def _space_triple(rng, budget):
    return _spaces(rng, max(2, budget.max_factor_points - 1), "abc")


def _space_four(rng, budget):
    return _spaces(rng, budget.max_factor_points, "abcd")


def _measures(rng, budget, **spaces):
    """One random measure per keyword, on its space, drawn in keyword order."""
    return {name: random_measure(rng, x, budget.max_numerator) for name, x in spaces.items()}


# ---------------------------------------------------------------------------
# Generators, and the checkers they feed; each checker registers one law.


def _gen_measure_pair_on_factors(rng, budget):
    x, y = _space_pair(rng, budget)
    return _measures(rng, budget, p=x, q=y)


@law(
    "marginals_of_product_identity",
    "marginals(product(p, q)) == (p, q)",
    _gen_measure_pair_on_factors,
)
def _check_marginals_of_product(p, q):
    got = marginals(product(p, q))
    return CheckOutcome(got == (p, q), got, (p, q))


def _gen_correlated_witness(rng, budget):
    bit = FinMetricSpace(("0", "1"), ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))))
    pair = tensor(bit, bit)
    r = Measure.from_mapping(
        pair, {("0", "0"): Fraction(1, 2), ("1", "1"): Fraction(1, 2)}
    )
    return {"r": r}


@law(
    "product_of_marginals_not_identity",
    "the correlated uniform pair is not the product of its marginals",
    _gen_correlated_witness,
    expected_counterexample=True,
)
def _check_correlated_witness(r):
    back = product(*marginals(r))
    quarter = all(w == Fraction(1, 4) for w in back.weights)
    found = quarter and back != r and not is_independent(r)
    return CheckOutcome(found, back, r)


def _gen_isometry(rng, budget):
    x, y = _space_pair(rng, budget)
    return _measures(rng, budget, p=x, p2=x, q=y, q2=y)


@law("product_isometry", "W1(p x q, p' x q') == W1(p, p') + W1(q, q')", _gen_isometry)
def _check_isometry(p, p2, q, q2):
    lhs = wasserstein_distance(product(p, q), product(p2, q2))
    rhs = wasserstein_distance(p, p2) + wasserstein_distance(q, q2)
    return CheckOutcome(lhs == rhs, lhs, rhs)


def _gen_joint_pair(rng, budget):
    x, y = _space_pair(rng, budget)
    xy = tensor(x, y)
    return _measures(rng, budget, r=xy, r2=xy)


@law("marginals_short", "W1(r_X, r'_X) + W1(r_Y, r'_Y) <= W1(r, r')", _gen_joint_pair)
def _check_marginals_short(r, r2):
    rx, ry = marginals(r)
    sx, sy = marginals(r2)
    lhs = wasserstein_distance(rx, sx) + wasserstein_distance(ry, sy)
    rhs = wasserstein_distance(r, r2)
    return CheckOutcome(lhs <= rhs, lhs, rhs)


def _gen_measure(rng, budget):
    x = random_space(rng, max_points=budget.max_points)
    return _measures(rng, budget, p=x)


@law("monad_left_unit", "expectation of the point mass at p is p", _gen_measure)
def _check_left_unit(p):
    got = expectation(unit_nested(p))
    return CheckOutcome(got == p, got, p)


@law("monad_right_unit", "expectation of the Dirac-image of p is p", _gen_measure)
def _check_right_unit(p):
    got = expectation(diracs_nested(p))
    return CheckOutcome(got == p, got, p)


@law(
    "affine_terminal",
    "pushing any measure to the one-point space gives its unique measure",
    _gen_measure,
)
def _check_affine(p):
    collapsed = pushforward(bang(p.space), p)
    one = dirac(terminal(), "*")
    return CheckOutcome(collapsed == one, collapsed, one)


@law(
    "product_unital",
    "product with the one-point measure is the measure itself",
    _gen_measure,
)
def _check_product_unital(p):
    one = dirac(terminal(), "*")
    via_right = pushforward(unitor_right(p.space), product(p, one))
    via_left = pushforward(unitor_left(p.space), product(one, p))
    ok = via_right == p and via_left == p
    return CheckOutcome(ok, via_right, p)


def _gen_double_nested(rng, budget):
    x = random_space(rng, max_points=budget.max_factor_points + 1)
    weights, nesteds = random_double_nested(
        rng, x, budget.max_inner, budget.max_inner, budget.max_numerator
    )
    return {"weights": list(weights), "layers": list(nesteds)}


@law(
    "monad_associativity",
    "averaging inner layers first or flattening first agree",
    _gen_double_nested,
)
def _check_monad_associativity(weights, layers):
    weights = tuple(weights)
    base = layers[0].base
    via_inner = expectation(
        NestedMeasure(base, tuple(expectation(nu) for nu in layers), weights)
    )
    via_flatten = expectation(
        NestedMeasure(
            base,
            tuple(m for nu in layers for m in nu.inner),
            tuple(w * v for nu, w in zip(layers, weights) for v in nu.weights),
        )
    )
    return CheckOutcome(via_inner == via_flatten, via_inner, via_flatten)


def _gen_nested_map(rng, budget):
    x, y = _spaces(rng, budget.max_factor_points + 1, "ab")
    return {
        "f": random_short_map(rng, x, y),
        "mu": random_nested(rng, x, budget.max_inner, budget.max_numerator),
    }


@law(
    "expectation_naturality",
    "expectation(pushforward_nested(f, mu)) == pushforward(f, expectation(mu))",
    _gen_nested_map,
)
def _check_expectation_naturality(f, mu):
    lhs = expectation(pushforward_nested(f, mu))
    rhs = pushforward(f, expectation(mu))
    return CheckOutcome(lhs == rhs, lhs, rhs)


def _gen_nested_pair_on_factors(rng, budget):
    x, y = _space_pair(rng, budget)
    return {
        "mu": random_nested(rng, x, budget.max_inner, budget.max_numerator),
        "nu": random_nested(rng, y, budget.max_inner, budget.max_numerator),
    }


@law(
    "expectation_product",
    "averaging the product of nestings equals the product of the averages",
    _gen_nested_pair_on_factors,
)
def _check_expectation_product(mu, nu):
    joint_space = tensor(mu.base, nu.base)
    doubled = NestedMeasure(
        joint_space,
        tuple(product(p, q) for p in mu.inner for q in nu.inner),
        tuple(w * v for w in mu.weights for v in nu.weights),
    )
    lhs = expectation(doubled)
    rhs = product(expectation(mu), expectation(nu))
    return CheckOutcome(lhs == rhs, lhs, rhs)


def _gen_nested_joint(rng, budget):
    x, y = _space_pair(rng, budget)
    xy = tensor(x, y)
    return {"mu": random_nested(rng, xy, budget.max_inner, budget.max_numerator)}


@law(
    "expectation_marginals",
    "marginals of the average equal the averages of the marginals",
    _gen_nested_joint,
)
def _check_expectation_marginals(mu):
    x, y = mu.base.factors
    lhs = marginals(expectation(mu))
    split = [marginals(m) for m in mu.inner]
    rhs = (
        expectation(NestedMeasure(x, tuple(s[0] for s in split), mu.weights)),
        expectation(NestedMeasure(y, tuple(s[1] for s in split), mu.weights)),
    )
    return CheckOutcome(lhs == rhs, lhs, rhs)


def _gen_nested_same_base(rng, budget):
    x = random_space(rng, max_points=budget.max_factor_points)
    return {
        "mu": random_nested(rng, x, budget.max_inner, budget.max_numerator),
        "nu": random_nested(rng, x, budget.max_inner, budget.max_numerator),
    }


@law(
    "expectation_short",
    "W1(E(mu), E(nu)) <= W1 between mu and nu one level up",
    _gen_nested_same_base,
)
def _check_expectation_short(mu, nu):
    lhs = wasserstein_distance(expectation(mu), expectation(nu))
    rhs = nested_distance(mu, nu)
    return CheckOutcome(lhs <= rhs, lhs, rhs)


def _gen_measure_pair(rng, budget):
    x = random_space(rng, max_points=budget.max_points)
    return _measures(rng, budget, p=x, q=x)


@law(
    "kantorovich_duality",
    "primal optimal cost equals the dual witness value exactly",
    _gen_measure_pair,
)
def _check_duality(p, q):
    cost, plan, witness = wasserstein(p, q)
    attained = integrate(witness.potential, p) - integrate(witness.potential, q)
    ok = attained == cost == plan.cost
    return CheckOutcome(ok, cost, attained)


def _gen_measure_triple(rng, budget):
    x = random_space(rng, max_points=budget.max_points)
    return _measures(rng, budget, p=x, q=x, r=x)


@law(
    "wasserstein_metric_axioms",
    "W1 is symmetric, triangular, and zero exactly on equal measures",
    _gen_measure_triple,
)
def _check_metric_axioms(p, q, r):
    pq = wasserstein_distance(p, q)
    qp = wasserstein_distance(q, p)
    pr = wasserstein_distance(p, r)
    qr = wasserstein_distance(q, r)
    ok = pq == qp and pr <= pq + qr and (pq == 0) == (p == q)
    return CheckOutcome(ok, pq, qp)


def _gen_oracle(rng, budget):
    x = random_space(rng, max_points=budget.max_points)
    cap = budget.max_oracle_support
    return {
        "p": random_measure_with_support(rng, x, cap, budget.max_numerator),
        "q": random_measure_with_support(rng, x, cap, budget.max_numerator),
    }


@law(
    "oracle_equivalence",
    "network simplex equals brute-force vertex enumeration",
    _gen_oracle,
)
def _check_oracle(p, q):
    fast = wasserstein_distance(p, q)
    slow = wasserstein_oracle(p, q)
    return CheckOutcome(fast == slow, fast, slow)


def _gen_map_pair_measures(rng, budget):
    x, y, z, w = _space_four(rng, budget)
    return {
        "f": random_short_map(rng, x, z),
        "g": random_short_map(rng, y, w),
        **_measures(rng, budget, p=x, q=y),
    }


@law(
    "product_naturality",
    "pushforward(f x g, product(p, q)) == product(pushforward(f, p), pushforward(g, q))",
    _gen_map_pair_measures,
)
def _check_product_naturality(f, g, p, q):
    lhs = pushforward(tensor_map(f, g), product(p, q))
    rhs = product(pushforward(f, p), pushforward(g, q))
    return CheckOutcome(lhs == rhs, lhs, rhs)


def _gen_map_pair_joint(rng, budget):
    x, y, z, w = _space_four(rng, budget)
    return {
        "f": random_short_map(rng, x, z),
        "g": random_short_map(rng, y, w),
        "r": random_measure(rng, tensor(x, y), budget.max_numerator),
    }


@law(
    "marginals_naturality",
    "marginals(pushforward(f x g, r)) == (pushforward(f, r_X), pushforward(g, r_Y))",
    _gen_map_pair_joint,
)
def _check_marginals_naturality(f, g, r):
    rx, ry = marginals(r)
    lhs = marginals(pushforward(tensor_map(f, g), r))
    rhs = (pushforward(f, rx), pushforward(g, ry))
    return CheckOutcome(lhs == rhs, lhs, rhs)


def _gen_map_measures_same(rng, budget):
    x, y = _spaces(rng, budget.max_points, "ab")
    return {
        "f": random_short_map(rng, x, y),
        **_measures(rng, budget, p=x, q=x),
    }


@law(
    "pushforward_contraction",
    "W1(f_* p, f_* q) <= W1(p, q) for short f",
    _gen_map_measures_same,
)
def _check_pushforward_contraction(f, p, q):
    lhs = wasserstein_distance(pushforward(f, p), pushforward(f, q))
    rhs = wasserstein_distance(p, q)
    return CheckOutcome(lhs <= rhs, lhs, rhs)


def _gen_point_pair(rng, budget):
    x, y = _space_pair(rng, budget)
    return {
        "xspace": x,
        "yspace": y,
        "x": rng.choice(x.points),
        "y": rng.choice(y.points),
    }


@law("dirac_product", "product(dirac(x), dirac(y)) == dirac((x, y))", _gen_point_pair)
def _check_dirac_product(xspace, yspace, x, y):
    lhs = product(dirac(xspace, x), dirac(yspace, y))
    rhs = dirac(tensor(xspace, yspace), (x, y))
    return CheckOutcome(lhs == rhs, lhs, rhs)


@law("dirac_marginals", "marginals(dirac((x, y))) == (dirac(x), dirac(y))", _gen_point_pair)
def _check_dirac_marginals(xspace, yspace, x, y):
    lhs = marginals(dirac(tensor(xspace, yspace), (x, y)))
    rhs = (dirac(xspace, x), dirac(yspace, y))
    return CheckOutcome(lhs == rhs, lhs, rhs)


def _gen_point_and_measure(rng, budget):
    x, y = _space_pair(rng, budget)
    return {
        "xspace": x,
        "x": rng.choice(x.points),
        "q": random_measure(rng, y, budget.max_numerator),
    }


@law(
    "strength_marginals",
    "dirac(x) x q has marginals (dirac(x), q) and braids to q x dirac(x)",
    _gen_point_and_measure,
)
def _check_strength(xspace, x, q):
    st = strength(x, q, xspace)
    split = marginals(st)
    swapped = pushforward(braiding(xspace, q.space), st)
    ok = split == (dirac(xspace, x), q) and swapped == product(q, dirac(xspace, x))
    return CheckOutcome(ok, split, swapped)


def _gen_product_triple(rng, budget):
    x, y, z = _space_triple(rng, budget)
    return _measures(rng, budget, p=x, q=y, r=z)


@law(
    "product_associative",
    "left-nested and right-nested products agree under re-association",
    _gen_product_triple,
)
def _check_product_associative(p, q, r):
    left = product(product(p, q), r)
    reassoc = pushforward(associator(p.space, q.space, r.space), left)
    right = product(p, product(q, r))
    return CheckOutcome(reassoc == right, reassoc, right)


@law(
    "family_independence",
    "an n-fold product is independent as a family, with the factors as marginals",
    _gen_product_triple,
)
def _check_family_independence(p, q, r):
    ms = [p, q, r]
    joint = product_n(ms)
    ok = is_independent_family(joint, 3) and marginals_n(joint, 3) == ms
    return CheckOutcome(ok, joint, ms)


def _gen_triple_joint(rng, budget):
    x, y, z = _space_triple(rng, budget)
    return _measures(rng, budget, r=tensor(tensor(x, y), z))


@law(
    "marginals_coassociative",
    "the three marginals agree whichever pairing is split first",
    _gen_triple_joint,
)
def _check_marginals_coassociative(r):
    xy, z = r.space.factors
    x, y = xy.factors
    rxy, rz = marginals(r)
    rx, ry = marginals(rxy)
    shifted = pushforward(associator(x, y, z), r)
    rx2, ryz = marginals(shifted)
    ry2, rz2 = marginals(ryz)
    lhs, rhs = (rx, ry, rz), (rx2, ry2, rz2)
    return CheckOutcome(lhs == rhs, lhs, rhs)


def _gen_unit_joint(rng, budget):
    x = random_space(rng, max_points=budget.max_points)
    one = terminal()
    return _measures(rng, budget, right=tensor(x, one), left=tensor(one, x))


@law(
    "marginals_counital",
    "marginals against the one-point factor return the measure itself",
    _gen_unit_joint,
)
def _check_marginals_counital(right, left):
    x = right.space.factors[0]
    rx, r1 = marginals(right)
    ok_right = rx == pushforward(unitor_right(x), right) and r1.weights == (1,)
    x2 = left.space.factors[1]
    l1, lx = marginals(left)
    ok_left = lx == pushforward(unitor_left(x2), left) and l1.weights == (1,)
    return CheckOutcome(ok_right and ok_left, rx, lx)


def _gen_braiding(rng, budget):
    # both braiding laws check this instance; each reads only its own fields
    x, y = _space_pair(rng, budget)
    return _measures(rng, budget, p=x, q=y, r=tensor(x, y))


@law(
    "product_braiding",
    "pushing product(p, q) along the braiding gives product(q, p)",
    _gen_braiding,
)
def _check_product_braiding(p, q, r):
    lhs = pushforward(braiding(p.space, q.space), product(p, q))
    rhs = product(q, p)
    return CheckOutcome(lhs == rhs, lhs, rhs)


@law("marginals_braiding", "marginals commute with the braiding swap", _gen_braiding)
def _check_marginals_braiding(p, q, r):
    x, y = r.space.factors
    rx, ry = marginals(r)
    lhs = marginals(pushforward(braiding(x, y), r))
    return CheckOutcome(lhs == (ry, rx), lhs, (ry, rx))


def _gen_quad_joints(rng, budget):
    w, x, y, z = _spaces(rng, budget.max_quad_points, "wxyz")
    return _measures(rng, budget, p=tensor(w, x), q=tensor(y, z))


def _interchanged_marginals(p, q):
    """Marginals on (w x y, x z) of product(p, q), for p on w x x and q on y x z."""
    w, x = p.space.factors
    y, z = q.space.factors
    return marginals(pushforward(middle_interchange(w, x, y, z), product(p, q)))


@law(
    "bimonoidality_square",
    "middle-interchanged product of joints has the paired products as marginals",
    _gen_quad_joints,
)
def _check_bimonoidality(p, q):
    lhs = _interchanged_marginals(p, q)
    pw, px = marginals(p)
    qy, qz = marginals(q)
    rhs = (product(pw, qy), product(px, qz))
    return CheckOutcome(lhs == rhs, lhs, rhs)


@law(
    "decomposition_independence",
    "marginals of a product of joints are independent pairs",
    _gen_quad_joints,
)
def _check_decomposition(p, q):
    wy, xz = _interchanged_marginals(p, q)
    return CheckOutcome(is_independent(wy) and is_independent(xz), wy, xz)


def _gen_dirac_marginal_joint(rng, budget):
    x, y = _space_pair(rng, budget)
    xy = tensor(x, y)
    pt = rng.choice(x.points)
    raw, total = _numerators(rng, len(y), budget.max_numerator)
    weights = {
        (pt, ypt): Fraction(n, total) for ypt, n in zip(y.points, raw) if n
    }
    return {"r": Measure.from_mapping(xy, weights)}


@law(
    "dirac_marginal_independence",
    "a joint with a deterministic marginal is independent",
    _gen_dirac_marginal_joint,
)
def _check_dirac_marginal_independence(r):
    return CheckOutcome(is_independent(r), r, product(*marginals(r)))


def _gen_projection_independence(rng, budget):
    x, y = _space_pair(rng, budget)
    p = random_measure(rng, x, budget.max_numerator)
    q = random_measure(rng, y, budget.max_numerator)
    joint = product(p, q)
    arbitrary = random_measure(rng, tensor(x, y), budget.max_numerator)
    return {"joint": joint, "arbitrary": arbitrary}


@law(
    "projection_independence",
    "projections of a product law are independent observables",
    _gen_projection_independence,
)
def _check_projection_independence(joint, arbitrary):
    x, y = joint.space.factors
    ok_product = independent_maps(Law(joint.space, joint), proj1(x, y), proj2(x, y))
    other = Law(arbitrary.space, arbitrary)
    ok_trivial = independent_maps(other, proj1(x, y), bang(arbitrary.space))
    return CheckOutcome(ok_product and ok_trivial, ok_product, ok_trivial)


def _gen_convolution(rng, budget):
    m = random_monoid(rng)
    return {"monoid": m, **_measures(rng, budget, p=m.carrier, q=m.carrier, r=m.carrier)}


@law(
    "convolution_monoid",
    "convolve is associative with unit dirac(monoid unit)",
    _gen_convolution,
)
def _check_convolution_monoid(monoid, p, q, r):
    assoc_l = convolve(convolve(p, q, monoid), r, monoid)
    assoc_r = convolve(p, convolve(q, r, monoid), monoid)
    e = dirac(monoid.carrier, monoid.unit)
    ok = (
        assoc_l == assoc_r
        and convolve(e, p, monoid) == p
        and convolve(p, e, monoid) == p
    )
    return CheckOutcome(ok, assoc_l, assoc_r)


def _gen_partial_integral(rng, budget):
    x, y = _space_pair(rng, budget)
    xy = tensor(x, y)
    return {
        "f": random_functional(rng, xy),
        "p": random_measure(rng, x, budget.max_numerator),
        "x": rng.choice(x.points),
    }


@law(
    "partial_integral_short",
    "integrating out one tensor coordinate leaves a short functional",
    _gen_partial_integral,
)
def _check_partial_integral(f, p, x):
    partial_integral(f, p)  # the constructor of its result raises if it is not short
    xspace, yspace = f.domain.factors
    slice_at = partial_integral(f, dirac(xspace, x))
    expected = tuple(f((x, y)) for y in yspace.points)
    return CheckOutcome(slice_at.values == expected, slice_at.values, expected)


def _gen_sum_functional(rng, budget):
    x, y = _space_pair(rng, budget)
    return {
        "f": random_functional(rng, x),
        "g": random_functional(rng, y),
        **_measures(rng, budget, p=x, q=y),
    }


@law(
    "sum_functional_short",
    "f(x) + g(y) is short on the tensor and integrates factorwise",
    _gen_sum_functional,
)
def _check_sum_functional(f, g, p, q):
    combined = sum_functional(f, g)
    lhs = integrate(combined, product(p, q))
    rhs = integrate(f, p) + integrate(g, q)
    return CheckOutcome(lhs == rhs, lhs, rhs)


@dataclass
class LawReport:
    """Outcome of a suite run; deterministic given (seed, cases, budget)."""

    seed: int
    cases: int
    budget: SizeBudget
    entries: dict = field(default_factory=dict)

    def all_passed(self) -> bool:
        return all(e["failures"] == 0 for e in self.entries.values())

    def to_json(self):
        return {
            "schema_version": SCHEMA_VERSION,
            "seed": self.seed,
            "cases": self.cases,
            "budget": asdict(self.budget),
            "all_passed": self.all_passed(),
            "laws": self.entries,
        }


def _law_rng(seed: int, law_id: str) -> random.Random:
    digest = hashlib.sha256(f"{seed}:{law_id}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _entry(law_id: str) -> LawCatalogEntry:
    entry = CATALOG.get(law_id)
    if entry is None:
        raise ValueError(f"unknown law {law_id!r}")
    return entry


def run_law(law_id: str, seed: int, cases: int, budget: SizeBudget = DEFAULT_BUDGET):
    """Run one catalog law for the given number of cases; returns its entry.

    A case whose generator or checker raises counts as a failure; if it is
    the first, its counterexample holds the instance (None if the generator
    raised) and the error as ``"<Type>: <message>"``.
    """
    entry = _entry(law_id)
    if cases < 1:
        raise ValueError("cases must be at least 1")
    rng = _law_rng(seed, law_id)
    runs = 1 if entry.expected_counterexample else cases
    failures = 0
    first = None
    for _ in range(runs):
        instance = error = None
        try:
            instance = entry.generate(rng, budget)
            outcome = entry.check(**instance)
        except Exception as exc:
            # a case that raises is a failure like any other, so the run goes on
            error = f"{type(exc).__name__}: {exc}"
        if error is None and outcome.ok:
            continue
        failures += 1
        if first is None:
            first = {"instance": None if instance is None else jsonio.instance_to_json(instance)}
            if error is None:
                first.update(lhs=_side_json(outcome.lhs), rhs=_side_json(outcome.rhs))
            else:
                first["error"] = error
    if entry.expected_counterexample:
        status = "expected-counterexample found" if failures == 0 else "fail"
    else:
        status = "pass" if failures == 0 else "fail"
    return {
        "statement": entry.statement,
        "cases_run": runs,
        "failures": failures,
        "status": status,
        "first_counterexample": first,
    }


def run_suite(
    seed: int,
    cases: int,
    budget: SizeBudget = DEFAULT_BUDGET,
    law_ids: Optional[list] = None,
) -> LawReport:
    """Evaluate the catalog on fresh seeded instances; never aborts early."""
    law_ids = sorted(CATALOG if law_ids is None else law_ids)
    for law_id in law_ids:
        _entry(law_id)
    report = LawReport(seed=seed, cases=cases, budget=budget)
    for law_id in law_ids:
        report.entries[law_id] = run_law(law_id, seed, cases, budget)
    return report


def _kind(value) -> str:
    """The report's type tag of a live value; a list's also names its elements' tags."""
    try:
        tag = jsonio._tag(value)
    except ValueError:
        return type(value).__name__
    if tag != "list":
        return tag
    return "list of " + (" or ".join(sorted({_kind(x) for x in value})) or "nothing")


def check_law(law_id: str, instance) -> CheckOutcome:
    """Replay a single serialized instance against one law.

    ``instance`` is either a dict of live objects or their typed JSON form,
    as found under ``first_counterexample.instance`` in a report, and must
    carry exactly the fields its checker takes, each of the kind that the
    law's generator makes (as read from its type tags). Both sides of the
    returned outcome are in the report's JSON form. An error that the
    checker raises is passed on, where a report records it as ``error``.
    """
    entry = _entry(law_id)
    template = entry.generate(_law_rng(0, law_id), DEFAULT_BUDGET)
    fields = list(template)
    if sorted(instance) != sorted(fields):
        raise ValueError(f"law {law_id!r} takes fields {fields}, got {sorted(instance)}")
    if instance and all(
        isinstance(v, dict) and "type" in v for v in instance.values()
    ):
        instance = jsonio.instance_from_json(instance)
    for name in fields:
        expected, given = _kind(template[name]), _kind(instance[name])
        if given != expected:
            raise ValueError(
                f"law {law_id!r} field {name!r} takes a {expected}, got a {given}"
            )
    outcome = entry.check(**instance)
    return CheckOutcome(outcome.ok, _side_json(outcome.lhs), _side_json(outcome.rhs))

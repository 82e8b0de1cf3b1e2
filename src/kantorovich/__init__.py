"""Exactly-verified probability measures on finite metric spaces.

Finitely-supported measures with rational weights, the exact Wasserstein-1
distance with primal and dual certificates, product joints and marginals,
the averaging monad structure, independence tests, convolution over internal
monoids, and a deterministic law-checking suite. All arithmetic is exact;
every equality in the package is literal equality of rationals.
"""

from .measure import Measure, dirac, integrate, partial_integral, pushforward, uniform
from .metric import (
    FinMetricSpace,
    ShortFunctional,
    ShortMap,
    associator,
    bang,
    braiding,
    compose,
    identity,
    mcshane_closure,
    middle_interchange,
    proj1,
    proj2,
    sum_functional,
    tensor,
    tensor_map,
    terminal,
    unitor_left,
    unitor_right,
    zero_functional,
)
from .monad import (
    NestedMeasure,
    diracs_nested,
    expectation,
    merge_duplicates,
    nested_distance,
    pushforward_nested,
    unit_nested,
    wasserstein_space,
)
from .structure import (
    InternalMonoid,
    Law,
    convolve,
    independent_maps,
    is_independent,
    is_independent_family,
    law_product,
    marginals,
    marginals_n,
    product,
    product_n,
    pushforward_joint,
    strength,
    tupling_table,
)
from .transport import (
    DualWitness,
    TransportPlan,
    wasserstein,
    wasserstein_distance,
    wasserstein_oracle,
)

__all__ = [
    "CATALOG",
    "DEFAULT_BUDGET",
    "DualWitness",
    "FinMetricSpace",
    "InternalMonoid",
    "Law",
    "LawCatalogEntry",
    "LawReport",
    "Measure",
    "NestedMeasure",
    "ShortFunctional",
    "ShortMap",
    "SizeBudget",
    "TransportPlan",
    "associator",
    "bang",
    "braiding",
    "check_law",
    "compose",
    "convolve",
    "dirac",
    "diracs_nested",
    "expectation",
    "identity",
    "independent_maps",
    "integrate",
    "is_independent",
    "is_independent_family",
    "law_product",
    "marginals",
    "marginals_n",
    "mcshane_closure",
    "merge_duplicates",
    "middle_interchange",
    "nested_distance",
    "partial_integral",
    "product",
    "product_n",
    "proj1",
    "proj2",
    "pushforward",
    "pushforward_joint",
    "pushforward_nested",
    "run_law",
    "run_suite",
    "strength",
    "sum_functional",
    "tensor",
    "tensor_map",
    "terminal",
    "tupling_table",
    "uniform",
    "unit_nested",
    "unitor_left",
    "unitor_right",
    "wasserstein",
    "wasserstein_distance",
    "wasserstein_oracle",
    "wasserstein_space",
    "zero_functional",
]

# The law suite is loaded on first use of one of its names, so that
# ``import kantorovich`` does not pay for it: they are the exports not
# imported above.
_LAWS = frozenset(__all__).difference(globals())


def __getattr__(name):
    if name not in _LAWS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import laws

    value = globals()[name] = getattr(laws, name)
    return value

"""The surface of the nine value types: constructors, reprs, equality, immutability.

Pinned so that a change in how the types are declared cannot change what a
caller sees: the constructor's parameters, the exact ``repr``, equality that
agrees with hashing, and attributes that cannot be set or deleted.
"""

import inspect
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import kantorovich
from kantorovich import (
    DualWitness,
    FinMetricSpace,
    InternalMonoid,
    Law,
    Measure,
    NestedMeasure,
    ShortFunctional,
    ShortMap,
    TransportPlan,
    dirac,
    tensor,
    wasserstein,
)

EMPTY = inspect.Parameter.empty

SPACE = (
    "FinMetricSpace(points=('a', 'b'), dist=((Fraction(0, 1), Fraction(3, 2)), "
    "(Fraction(3, 2), Fraction(0, 1))), factors=None)"
)
HALVES = f"Measure(space={SPACE}, weights=(Fraction(1, 2), Fraction(1, 2)))"
POTENTIAL = f"ShortFunctional(domain={SPACE}, values=(Fraction(0, 1), Fraction(3, 2)))"
BIT = (
    "FinMetricSpace(points=('0', '1'), dist=((Fraction(0, 1), Fraction(1, 1)), "
    "(Fraction(1, 1), Fraction(0, 1))), factors=None)"
)
PAIRS = (
    "FinMetricSpace(points=(('0', '0'), ('0', '1'), ('1', '0'), ('1', '1')), dist=("
    "(Fraction(0, 1), Fraction(1, 1), Fraction(1, 1), Fraction(2, 1)), "
    "(Fraction(1, 1), Fraction(0, 1), Fraction(2, 1), Fraction(1, 1)), "
    "(Fraction(1, 1), Fraction(2, 1), Fraction(0, 1), Fraction(1, 1)), "
    f"(Fraction(2, 1), Fraction(1, 1), Fraction(1, 1), Fraction(0, 1))), factors=({BIT}, {BIT}))"
)


def _space():
    return FinMetricSpace(("a", "b"), ((0, Fraction(3, 2)), (Fraction(3, 2), 0)))


def _halves():
    return Measure(_space(), ("1/2", "1/2"))


def _plan():
    return wasserstein(_halves(), dirac(_space(), "a"))[1]


def _monoid():
    bit = FinMetricSpace(("0", "1"), ((0, 1), (1, 0)))
    xor = ShortMap(tensor(bit, bit), bit, ("0", "1", "1", "0"))
    return InternalMonoid(bit, xor, "0")


# type, a builder of a small instance, its constructor's (name, default)
# parameters in order, and its exact repr
CASES = [
    (
        FinMetricSpace,
        _space,
        [("points", EMPTY), ("dist", EMPTY), ("factors", None), ("_kernel", None)],
        SPACE,
    ),
    (
        ShortMap,
        lambda: ShortMap(_space(), _space(), ["b", "a"]),
        [("domain", EMPTY), ("codomain", EMPTY), ("table", EMPTY)],
        f"ShortMap(domain={SPACE}, codomain={SPACE}, table=('b', 'a'))",
    ),
    (
        ShortFunctional,
        lambda: ShortFunctional(_space(), (0, Fraction(3, 2))),
        [("domain", EMPTY), ("values", EMPTY), ("_kernel", None)],
        POTENTIAL,
    ),
    (
        Measure,
        _halves,
        [("space", EMPTY), ("weights", EMPTY), ("_kernel", None)],
        HALVES,
    ),
    (
        NestedMeasure,
        lambda: NestedMeasure(_space(), [_halves()], (1,)),
        [("base", EMPTY), ("inner", EMPTY), ("weights", EMPTY), ("_kernel", None)],
        f"NestedMeasure(base={SPACE}, inner=({HALVES},), weights=(Fraction(1, 1),))",
    ),
    (
        TransportPlan,
        _plan,
        [("source", EMPTY), ("target", EMPTY), ("coupling", EMPTY), ("cost", EMPTY), ("_kernel", None)],
        f"TransportPlan(source={HALVES}, target=Measure(space={SPACE}, weights=(Fraction(1, 1), "
        "Fraction(0, 1))), coupling=((Fraction(1, 2), Fraction(0, 1)), (Fraction(1, 2), "
        "Fraction(0, 1))), cost=Fraction(3, 4))",
    ),
    (
        DualWitness,
        lambda: wasserstein(_halves(), dirac(_space(), "a"))[2],
        [("potential", EMPTY)],
        f"DualWitness(potential={POTENTIAL})",
    ),
    (
        Law,
        lambda: Law(_space(), _halves()),
        [("space", EMPTY), ("measure", EMPTY)],
        f"Law(space={SPACE}, measure={HALVES})",
    ),
    (
        InternalMonoid,
        _monoid,
        [("carrier", EMPTY), ("mult", EMPTY), ("unit", EMPTY)],
        f"InternalMonoid(carrier={BIT}, mult=ShortMap(domain={PAIRS}, codomain={BIT}, "
        "table=('0', '1', '1', '0')), unit='0')",
    ),
]
IDS = [cls.__name__ for cls, *_ in CASES]


@pytest.mark.parametrize("cls, build, parameters, text", CASES, ids=IDS)
def test_constructor_signature(cls, build, parameters, text):
    signature = inspect.signature(cls)
    assert [(p.name, p.default) for p in signature.parameters.values()] == parameters
    assert {p.kind for p in signature.parameters.values()} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}


@pytest.mark.parametrize("cls, build, parameters, text", CASES, ids=IDS)
def test_exact_repr(cls, build, parameters, text):
    assert repr(build()) == text


@pytest.mark.parametrize("cls, build, parameters, text", CASES, ids=IDS)
def test_equality_agrees_with_hashing(cls, build, parameters, text):
    a, b = build(), build()
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b)
    assert a != object() and a not in (None, 0, text)


@pytest.mark.parametrize("cls, build, parameters, text", CASES[1:2] + CASES[6:], ids=IDS[1:2] + IDS[6:])
def test_plain_types_hash_their_field_tuple(cls, build, parameters, text):
    # these compare and hash on their fields in order, as they always have
    value = build()
    assert hash(value) == hash(tuple(getattr(value, name) for name, _ in parameters))


@pytest.mark.parametrize("cls, build, parameters, text", CASES, ids=IDS)
def test_attributes_cannot_be_set_or_deleted(cls, build, parameters, text):
    value = build()
    for name in [name for name, _ in parameters if not name.startswith("_")] + ["other"]:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    for name, _ in parameters:
        if not name.startswith("_"):
            with pytest.raises(AttributeError):
                delattr(value, name)
    assert repr(value) == text


def test_importing_the_cli_loads_no_dataclasses_inspect_or_law_suite():
    # every CLI call pays for what this import loads; -I ignores
    # PYTHONDONTWRITEBYTECODE, so -B keeps the child from writing .pyc files into src.
    # The same child, with the standard library alone and warnings as errors,
    # then loads the law suite and runs it.
    src = os.path.dirname(os.path.dirname(os.path.abspath(kantorovich.__file__)))
    code = (
        "import sys; assert sys.flags.dont_write_bytecode and sys.warnoptions == ['error']; "
        f"sys.path.insert(0, {src!r}); import kantorovich.cli; "
        "print(sorted({'dataclasses', 'inspect', 'kantorovich.laws'} & set(sys.modules))); "
        "import kantorovich.laws, kantorovich.generate; from kantorovich import run_suite; "
        "assert run_suite(42, 2).all_passed()"
    )
    done = subprocess.run(
        [sys.executable, "-B", "-W", "error", "-I", "-S", "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")

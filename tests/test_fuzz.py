"""Workspaces at the extremes of the JSON grammar fail fast, naming their limit.

Each case is built from a seeded ``random.Random``, with the standard
library alone, as a workspace that is well formed in every other way: the
spaces are genuine metrics, so the one reason to refuse one is the limit
it goes past. Each runs through ``cli.main`` and must exit 0 or 2, print
an ``error:`` line that names the limit when it exits 2, and finish within
``SECONDS``.
"""

import json
import random
import sys
import time

import pytest

from kantorovich.cli import main

# every case exits in 0.001-0.11 s on a 2-core Xeon; the bound catches a
# limit checked only after the work it is there to prevent
SECONDS = 2.0

# digits Python refuses to convert to an int since 3.11 and 3.10.7
# (CVE-2020-10735); 0 where there is no such limit, as on earlier 3.10
INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _space(rng, n, draw):
    """``n`` points with the symmetric distances ``draw()`` off the diagonal."""
    dist = [["0"] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            dist[i][j] = dist[j][i] = draw()
    return {"points": [f"p{i}" for i in range(n)], "dist": dist}


def _primes(low, high):
    sieve = bytearray([1]) * high
    for p in range(2, int(high**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [p for p in range(low, high) if sieve[p]]


def _long_number(rng, digits):
    # a leading digit of 5 to 9 keeps any two such distances above a third
    return str(rng.randint(5, 9)) + "".join(rng.choices("0123456789", k=digits - 1))


def _tensor_chain(rng):
    # 2-point factors tensored 8 deep: 256 points
    spaces = {"s0": _space(rng, 2, lambda: str(rng.randint(1, 9)))}
    for depth in range(1, 9):
        spaces[f"s{depth}"] = {"tensor": [f"s{depth - 1}", f"f{depth}"]}
        spaces[f"f{depth}"] = _space(rng, 2, lambda: str(rng.randint(1, 9)))
    return {"spaces": spaces}, "MAX_POINTS"


def _deep_label(rng):
    label = rng.choice("abc")
    for _ in range(600):
        label = [label]
    space = _space(rng, 2, lambda: f"{rng.randint(1, 9)}/{rng.randint(1, 9)}")
    space["points"][0] = label
    return {"spaces": {"deep": space}}, "label nested too deeply"


def _coprime_denominators(rng):
    # 435 distances (p + 1)/p in (1, 2] over distinct primes of 11-13 bits
    primes = iter(rng.sample(_primes(1 << 10, 1 << 13), 30 * 29 // 2))
    space = _space(rng, 30, lambda: f"{(p := next(primes)) + 1}/{p}")
    return {"spaces": {"coprime": space}}, "MAX_DENOMINATOR_BITS"


def _long_numerators(rng):
    # 128 points, each distance one of eight 4,300-digit numerators
    numerators = [_long_number(rng, 4300) for _ in range(8)]
    space = _space(rng, 128, lambda: rng.choice(numerators))
    return {"spaces": {"long": space}}, "MAX_NUMERATOR_BITS"


def _too_many_digits(rng):
    huge = _long_number(rng, 4301)
    space = {"points": ["a", "b"], "dist": [["0", huge], [huge, "0"]]}
    # "limit (4300 digits)" from 3.11 on, "limit (4300)" on 3.10
    return {"spaces": {"huge": space}}, f"limit ({INT_DIGITS}"


CASES = {
    "tensor-chain": _tensor_chain,
    "deep-label": _deep_label,
    "coprime-denominators": _coprime_denominators,
    "long-numerators": _long_numerators,
    "too-many-digits": _too_many_digits,
}


@pytest.mark.parametrize("build", CASES.values(), ids=list(CASES))
def test_an_extreme_workspace_fails_fast_naming_its_limit(tmp_path, capsys, build):
    workspace, words = build(random.Random(f"fuzz:{build.__name__}"))
    path = tmp_path / "extreme.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(workspace, handle)
    del workspace
    start = time.perf_counter()
    code = main(["validate", "--workspace", str(path)])
    seconds = time.perf_counter() - start
    captured = capsys.readouterr()
    assert seconds < SECONDS
    # without the limit, or with a higher one, 4,301 digits are read: the space is valid
    accepted = build is _too_many_digits and not 0 < INT_DIGITS < 4301
    if accepted:
        assert code == 0 and captured.err == ""
    else:
        assert code == 2 and captured.out == ""
        assert captured.err.startswith(f"error: {path}: ") and words in captured.err

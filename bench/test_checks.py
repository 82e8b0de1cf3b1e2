"""Self-test of the output checker: tampered outputs must be rejected.

Run with ``python3 bench/test_checks.py`` (or pytest on this file). ``run.py``
runs it before every benchmark run and reports the run as incorrect if any
tampered output gets through.
"""

import sys
from fractions import Fraction as F

import checks

# The line 0 - 1 - 2 with unit steps; p = (1/2, 1/2, 0) moves to
# q = (0, 1/2, 1/2) at cost 1, proved by the coupling below and f = (2, 1, 0).
LINE = [[F(abs(i - j)) for j in range(3)] for i in range(3)]
P = [F(1, 2), F(1, 2), F(0)]
Q = [F(0), F(1, 2), F(1, 2)]
COUPLING = [[F(0), F(1, 2), F(0)], [F(0), F(0), F(1, 2)], [F(0), F(0), F(0)]]
WITNESS = [F(2), F(1), F(0)]

WORKSPACE = checks.Workspace(
    {
        "spaces": {
            "line": {
                "points": ["u", "v", "w"],
                "dist": [[checks.format_rational(x) for x in row] for row in LINE],
            },
            "bit": {"points": ["0", "1"], "dist": [["0/1", "1/1"], ["1/1", "0/1"]]},
            "bits": {"tensor": ["bit", "bit"]},
        },
        "measures": {
            "p": {"space": "line", "weights": {"u": "1/2", "v": "1/2"}},
            "q": {"space": "line", "weights": {"v": "1/2", "w": "1/2"}},
            "same": {"space": "bits", "weights": {'["0","0"]': "1/2", '["1","1"]': "1/2"}},
        },
    }
)


def distance_output(value="1/1", coupling=COUPLING, witness=WITNESS):
    line = WORKSPACE.data["spaces"]["line"]
    return {
        "distance": value,
        "coupling": [[checks.format_rational(x) for x in row] for row in coupling],
        "witness": {
            "domain": line,
            "values": {label: checks.format_rational(x) for label, x in zip(line["points"], witness)},
        },
    }


def test_genuine_certificate_passes():
    assert checks.w1_problems(LINE, P, Q, F(1), COUPLING, WITNESS) == []
    assert checks.cli_problems(WORKSPACE, ["distance", "p", "q", "-v"], distance_output()) == []


def test_coupling_row_off_by_one_over_q_is_rejected():
    tampered = [list(row) for row in COUPLING]
    tampered[0][1] += F(1, 2)
    assert checks.w1_problems(LINE, P, Q, F(1), tampered, WITNESS)


def test_witness_with_one_lipschitz_violation_is_rejected():
    # f(v) = -1 leaves the integral gap at 1 but breaks |f(u) - f(v)| <= 1.
    tampered = [F(2), F(-1), F(0)]
    problems = checks.w1_problems(LINE, P, Q, F(1), COUPLING, tampered)
    assert problems and all("Lipschitz" in p for p in problems)


def test_wrong_distance_string_is_rejected():
    assert checks.cli_problems(WORKSPACE, ["distance", "p", "q", "-v"], distance_output("3/2"))
    assert checks.cli_problems(WORKSPACE, ["distance", "p", "q", "-v"], distance_output("2/2"))


def test_flipped_independent_verdict_is_rejected():
    assert checks.cli_problems(WORKSPACE, ["independent", "same"], {"independent": False}) == []
    assert checks.cli_problems(WORKSPACE, ["independent", "same"], {"independent": True})


TESTS = [value for name, value in sorted(globals().items()) if name.startswith("test_")]


def failures():
    """Names of the self-tests that fail."""
    failed = []
    for test in TESTS:
        try:
            test()
        except AssertionError:
            failed.append(test.__name__)
    return failed


if __name__ == "__main__":
    failed = failures()
    for name in failed:
        print(f"FAIL {name}")
    print(f"{len(TESTS) - len(failed)}/{len(TESTS)} checker self-tests passed")
    sys.exit(1 if failed else 0)

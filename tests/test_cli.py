import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from kantorovich import cli, jsonio, product, structure, uniform
from kantorovich.structure import tupling_table
from kantorovich.cli import MAX_CASES, Workspace, build_parser, main
from kantorovich.measure import Measure
from kantorovich.metric import FinMetricSpace


def _key(*parts):
    return jsonio.label_key(tuple(parts))


WORKSPACE = {
    "spaces": {
        "X": {"points": ["a", "b"], "dist": [["0/1", "1/1"], ["1/1", "0/1"]]},
        "bit": {"points": ["0", "1"], "dist": [["0/1", "1/1"], ["1/1", "0/1"]]},
        "pair": {"tensor": ["bit", "bit"]},
    },
    "maps": {
        "swap": {"domain": "X", "codomain": "X", "table": {"a": "b", "b": "a"}},
        "same": {"domain": "X", "codomain": "X", "table": {"a": "a", "b": "b"}},
    },
    "measures": {
        "point": {"space": "X", "weights": {"a": "1/1"}},
        "fair": {"space": "X", "weights": {"a": "1/2", "b": "1/2"}},
        "fairbit": {"space": "bit", "weights": {"0": "1/2", "1": "1/2"}},
        "zero": {"space": "bit", "weights": {"0": "1/1"}},
        "correlated": {
            "space": "pair",
            "weights": {_key("0", "0"): "1/2", _key("1", "1"): "1/2"},
        },
        "quarters": {
            "space": "pair",
            "weights": {
                _key("0", "0"): "1/4",
                _key("0", "1"): "1/4",
                _key("1", "0"): "1/4",
                _key("1", "1"): "1/4",
            },
        },
    },
    "nested": {
        "mix": {"base": "X", "inner": ["point", "fair"], "weights": ["1/2", "1/2"]}
    },
    "monoids": {
        "xor": {
            "carrier": "bit",
            "mult": {
                "domain": {"tensor": ["bit", "bit"]},
                "codomain": "bit",
                "table": {
                    _key("0", "0"): "0",
                    _key("0", "1"): "1",
                    _key("1", "0"): "1",
                    _key("1", "1"): "0",
                },
            },
            "unit": "0",
        }
    },
}


def _discrete(n):
    """The n-point space with every distance 1, in workspace JSON."""
    return {
        "points": [f"x{i}" for i in range(n)],
        "dist": [["0" if i == j else "1" for j in range(n)] for i in range(n)],
    }


@pytest.fixture
def ws_file(tmp_path):
    path = tmp_path / "workspace.json"
    path.write_text(json.dumps(WORKSPACE))
    return str(path)


class TestWorkspace:
    def test_loads_and_validates(self, ws_file):
        ws = Workspace.load([ws_file])
        assert ws.counts == {
            "spaces": 3,
            "maps": 2,
            "measures": 6,
            "nested": 1,
            "monoids": 1,
        }

    def test_tensor_reference_carries_factors(self, ws_file):
        ws = Workspace.load([ws_file])
        pair = ws.resolve("space", "pair")
        assert pair.factors == (ws.resolve("space", "bit"),) * 2

    def test_duplicate_names_rejected(self, tmp_path, ws_file):
        other = tmp_path / "other.json"
        other.write_text(json.dumps({"spaces": {"X": WORKSPACE["spaces"]["X"]}}))
        with pytest.raises(ValueError, match="duplicate"):
            Workspace.load([ws_file, str(other)])

    def test_unknown_section_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"shapes": {}}))
        with pytest.raises(ValueError, match="unknown sections"):
            Workspace.load([str(bad)])

    def test_unknown_reference(self, ws_file):
        ws = Workspace.load([ws_file])
        with pytest.raises(ValueError, match="unknown measure"):
            ws.resolve("measure", "nope")

    def test_circular_reference_caught_at_load(self, tmp_path):
        bad = tmp_path / "loop.json"
        bad.write_text(json.dumps({"spaces": {"A": {"tensor": ["A", "A"]}}}))
        with pytest.raises(ValueError, match="circular"):
            Workspace.load([str(bad)])

    def test_broken_object_fails_any_command(self, tmp_path, ws_file, capsys):
        # an invalid object anywhere in the workspace blocks unrelated commands
        bad = tmp_path / "extra.json"
        bad.write_text(
            json.dumps(
                {"spaces": {"broken": {"points": ["a", "b"], "dist": [["0/1", "0/1"], ["0/1", "0/1"]]}}}
            )
        )
        assert main(["distance", "point", "fair", "--workspace", ws_file, str(bad)]) == 2
        assert "positive distance" in capsys.readouterr().err


class TestValidateCommand:
    def test_ok(self, ws_file, capsys):
        assert main(["validate", "--workspace", ws_file]) == 0
        assert "ok" in capsys.readouterr().out

    def test_broken_triangle_names_triple(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "spaces": {
                        "B": {
                            "points": ["a", "b", "c"],
                            "dist": [
                                ["0/1", "1/1", "5/1"],
                                ["1/1", "0/1", "1/1"],
                                ["5/1", "1/1", "0/1"],
                            ],
                        }
                    }
                }
            )
        )
        assert main(["validate", "--workspace", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "triangle" in err
        assert "'a'" in err and "'b'" in err and "'c'" in err

    def test_missing_file(self, capsys):
        assert main(["validate", "--workspace", "/no/such/file.json"]) == 2

    def test_space_over_the_size_limit(self, tmp_path, capsys):
        n = jsonio.MAX_POINTS + 1
        big = {"points": [f"x{i}" for i in range(n)], "dist": [["0"] * n] * n}
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"spaces": {"B": big}}))
        assert main(["validate", "--workspace", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"limit of {jsonio.MAX_POINTS} points" in err and "MAX_POINTS" in err

    def test_tensor_over_the_size_limit(self, tmp_path, capsys):
        spaces = {"A": _discrete(12), "B": _discrete(11), "AB": {"tensor": ["A", "B"]}}
        path = tmp_path / "tensor.json"
        path.write_text(json.dumps({"spaces": spaces}))
        assert main(["validate", "--workspace", str(path)]) == 2
        err = capsys.readouterr().err
        assert "space of 132 points" in err and "MAX_POINTS" in err


# JSON of the wrong shape: each once crashed with a traceback and exit 1
MALFORMED = {
    "measure-weights-list": ("measures", {"space": "X", "weights": ["a"]}, "'weights'"),
    "map-table-list": ("maps", {"domain": "X", "codomain": "X", "table": ["a"]}, "'table'"),
    "map-without-domain": ("maps", {"codomain": "X", "table": {"a": "a", "b": "b"}}, "'domain'"),
    "nested-inner-number": ("nested", {"base": "X", "inner": 5, "weights": ["1/1"]}, "'inner'"),
    # a misspelled field beside the right one once passed validate
    "map-tabel": ("maps", {"domain": "X", "codomain": "X", "table": {"a": "a"}, "tabel": {}}, "'tabel'"),
    "measure-weigths": ("measures", {"space": "X", "weights": {"a": "1"}, "weigths": {}}, "'weigths'"),
}


class TestMalformedShapes:
    @pytest.mark.parametrize("section, obj, field", MALFORMED.values(), ids=list(MALFORMED))
    def test_exits_2_naming_the_field(self, tmp_path, ws_file, capsys, section, obj, field):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({section: {"bad": obj}}))
        assert main(["validate", "--workspace", ws_file, str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and field in captured.err


# Workspace files that no command may run on: the text and the error's words.
# ``json`` keeps only the last value of a repeated key, so a repeat is refused.
_FAIR = '{"space": "X", "weights": {"a": "1/2", "b": "1/2"}}'
BAD_FILES = {
    "invalid-json": ('{"spaces": ', "invalid JSON"),
    "not-an-object": ("[]", "workspace must be a JSON object"),
    "section-not-an-object": ('{"spaces": []}', "section 'spaces' must map names to objects"),
    "name-twice": ('{"measures": {"q": %s, "q": %s}}' % (_FAIR, _FAIR), "repeated key 'q'"),
    "weight-twice": (
        '{"measures": {"q": {"space": "X", "weights": {"a": "1/2", "a": "1/2", "b": "1/2"}}}}',
        "repeated key 'a'",
    ),
}


@pytest.mark.parametrize("text, words", BAD_FILES.values(), ids=list(BAD_FILES))
def test_bad_workspace_file_exits_2_naming_it(tmp_path, ws_file, capsys, text, words):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert main(["validate", "--workspace", ws_file, str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {bad}: ") and words in captured.err
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


_LINE = {"points": ["a", "b"], "dist": [["0", "1"], ["1", "0"]]}
_SURE = {"space": "X", "weights": {"a": "1"}}

# Two workspace files, the second holding a broken object, and the innermost
# named object the error line must name after the second file's path.
TWO_FILES = {
    "broken-measure": (
        {"spaces": {"X": _LINE}, "measures": {"q": _SURE}},
        {"measures": {"p": {"space": "X", "weights": {"a": "1/2", "b": "1/3"}}}},
        "measure 'p': weights sum to 5/6, expected exactly 1",
    ),
    "tensor-of-a-broken-factor": (
        {"spaces": {"X": _LINE, "AB": {"tensor": ["X", "B"]}}, "measures": {"q": _SURE}},
        {
            "spaces": {
                "B": {"points": ["a", "b", "c"], "dist": [["0", "1", "5"], ["1", "0", "1"], ["5", "1", "0"]]}
            }
        },
        "space 'B': triangle inequality violated: d('a','c') = 5 > d('a','b') + d('b','c') = 2",
    ),
    "unknown-reference": (
        {"spaces": {"X": _LINE}, "measures": {"q": _SURE}},
        {"measures": {"p": {"space": "Y", "weights": {"a": "1"}}}},
        "measure 'p': unknown space 'Y'",
    ),
    "misspelled-field": (
        {"spaces": {"X": _LINE}, "measures": {"q": _SURE}},
        {"maps": {"f": {"domain": "X", "codomain": "X", "table": {"a": "a", "b": "b"}, "tabel": {}}}},
        "map 'f': map has unknown field 'tabel'",
    ),
}


@pytest.mark.parametrize("command", [["validate"], ["distance", "q", "q"]], ids=["validate", "distance"])
@pytest.mark.parametrize("first, second, named", TWO_FILES.values(), ids=list(TWO_FILES))
def test_load_error_names_its_file_and_innermost_object(tmp_path, capsys, command, first, second, named):
    files = [tmp_path / "first.json", tmp_path / "second.json"]
    for path, data in zip(files, (first, second)):
        path.write_text(json.dumps(data))
    assert main(command + ["--workspace", *map(str, files)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {files[1]}: {named}\n")


class TestUnknownLabels:
    def test_map_table_naming_a_non_domain_point_exits_2(self, tmp_path, ws_file, capsys):
        bad = tmp_path / "bad.json"
        typo = {"domain": "X", "codomain": "X", "table": {"a": "a", "b": "b", "zz": "a"}}
        bad.write_text(json.dumps({"maps": {"typo": typo}}))
        assert main(["validate", "--workspace", ws_file, str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "['zz']" in captured.err


class TestDistanceCommand:
    def test_prints_exact_value(self, ws_file, capsys):
        assert main(["distance", "point", "fair", "--workspace", ws_file]) == 0
        assert capsys.readouterr().out.strip() == "1/2"

    def test_verbose_json_includes_certificates(self, ws_file, capsys):
        code = main(
            ["--json", "distance", "point", "fair", "-v", "--workspace", ws_file]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["distance"] == "1/2"
        assert payload["coupling"] == [["1/2", "1/2"], ["0/1", "0/1"]]
        witness = jsonio.functional_from_json(payload["witness"])
        assert witness.values[0] == 0

    def test_space_mismatch_is_error(self, ws_file, capsys):
        assert main(["distance", "point", "fairbit", "--workspace", ws_file]) == 2


class TestProductCommand:
    def test_round_trip(self, ws_file, capsys):
        assert main(["--json", "product", "fair", "fairbit", "--workspace", ws_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        emitted = jsonio.measure_from_json(payload)
        x = FinMetricSpace(("a", "b"), ((0, 1), (1, 0)))
        bit = FinMetricSpace(("0", "1"), ((0, 1), (1, 0)))
        assert emitted == product(uniform(x), uniform(bit))

    def test_human_output(self, ws_file, capsys):
        assert main(["product", "point", "zero", "--workspace", ws_file]) == 0
        out = capsys.readouterr().out
        assert '["a","0"]: 1/1' in out


@pytest.fixture
def twelve_points(tmp_path):
    """A 12-point space with its uniform measure and identity map: joints of 144 points."""
    points = [f"x{i}" for i in range(12)]
    path = tmp_path / "twelve.json"
    path.write_text(
        json.dumps(
            {
                "spaces": {"D": _discrete(12)},
                "measures": {"u": {"space": "D", "weights": dict.fromkeys(points, "1/12")}},
                "maps": {"id": {"domain": "D", "codomain": "D", "table": {x: x for x in points}}},
            }
        )
    )
    return str(path)


class TestJointSizeLimit:
    """Joints are held to jsonio.MAX_POINTS before they are built, like parsed tensors."""

    @pytest.mark.parametrize(
        "command", [["product", "u", "u"], ["independent-maps", "u", "id", "id"]]
    )
    def test_joint_over_the_size_limit(self, twelve_points, capsys, command):
        assert main(command + ["--workspace", twelve_points]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "space of 144 points" in captured.err and "MAX_POINTS" in captured.err


def test_long_denominators_exit_2_quickly(tmp_path, capsys):
    # 24 points at distances (q + 1)/q, q running over consecutive 1,000-digit
    # ints: a 1.1 MB workspace whose distances have a common denominator of
    # 915,254 bits, and which took seconds to check before the limit
    qs = iter(range(10**999, 10**999 + 276))
    dist = [["0"] * 24 for _ in range(24)]
    for i in range(24):
        for j in range(i + 1, 24):
            q = next(qs)
            dist[i][j] = dist[j][i] = f"{q + 1}/{q}"
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"spaces": {"X": {"points": [f"x{i}" for i in range(24)], "dist": dist}}}))
    start = time.perf_counter()
    assert main(["validate", "--workspace", str(path)]) == 2
    assert time.perf_counter() - start < 2
    bits = 1 + 276 * (10**999).bit_length()  # the diagonal's denominator 1 has 1 bit
    assert capsys.readouterr() == (
        "",
        f"error: {path}: space 'X': denominators of {bits} bits in all are over the limit of "
        f"{jsonio.MAX_DENOMINATOR_BITS} bits (kantorovich.jsonio.MAX_DENOMINATOR_BITS)\n",
    )


def test_long_numerators_exit_2_quickly(tmp_path, capsys):
    # 128 points at distinct distances 10**4299 + k, just under Python's
    # int-string limit: a 70 MB workspace that took 3.5 s or more to read
    # and check before the limit
    n = 128
    path = tmp_path / "long.json"
    with open(path, "w") as out:
        out.write('{"spaces": {"X": {"points": %s, "dist": [' % json.dumps([f"x{i}" for i in range(n)]))
        for i in range(n):
            row = ['"0"' if i == j else f'"1{min(i, j) * n + max(i, j):04299d}"' for j in range(n)]
            out.write(("," if i else "") + "[" + ",".join(row) + "]")
        out.write("]}}}")
    start = time.perf_counter()
    code = main(["validate", "--workspace", str(path)])
    seconds = time.perf_counter() - start
    path.unlink()  # pytest keeps the temporary folders of recent runs
    assert code == 2
    assert seconds < 1
    assert capsys.readouterr() == (
        "",
        f"error: {path}: space 'X': numerators of more than {jsonio.MAX_NUMERATOR_BITS} bits in all "
        "are over the limit (kantorovich.jsonio.MAX_NUMERATOR_BITS)\n",
    )


class TestMarginalsCommand:
    def test_correlated_marginals(self, ws_file, capsys):
        assert main(["--json", "marginals", "correlated", "--workspace", ws_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        first = jsonio.measure_from_json(payload["first"])
        second = jsonio.measure_from_json(payload["second"])
        bit = FinMetricSpace(("0", "1"), ((0, 1), (1, 0)))
        assert first == uniform(bit)
        assert second == uniform(bit)

    def test_point_spelled_twice_is_error(self, tmp_path, ws_file, capsys):
        # the weights sum to 3/2; merging the two spellings of ("0", "0") hides it
        weights = {'["0","0"]': "1/2", '["0", "0"]': "1/2", '["1","1"]': "1/2"}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"measures": {"r": {"space": "pair", "weights": weights}}}))
        assert main(["marginals", "r", "--workspace", ws_file, str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert """'weights' names the point '["0","0"]' twice""" in captured.err

    def test_non_tensor_space_is_error(self, ws_file, capsys):
        assert main(["marginals", "fair", "--workspace", ws_file]) == 2


class TestIndependentCommand:
    def test_correlated_is_dependent(self, ws_file, capsys):
        assert main(["independent", "correlated", "--workspace", ws_file]) == 0
        assert capsys.readouterr().out.strip() == "false"

    def test_quarters_is_independent(self, ws_file, capsys):
        assert main(["--json", "independent", "quarters", "--workspace", ws_file]) == 0
        assert json.loads(capsys.readouterr().out) == {"independent": True}


class TestIndependentMapsCommand:
    def test_copied_observable_is_dependent(self, ws_file, capsys):
        code = main(
            ["--json", "independent-maps", "fair", "same", "swap", "--workspace", ws_file]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"independent": False, "tupling_short": False}

    def test_deterministic_law_is_independent(self, ws_file, capsys):
        code = main(
            ["independent-maps", "point", "same", "swap", "--workspace", ws_file]
        )
        assert code == 0
        assert capsys.readouterr().out.splitlines()[0] == "true"

    def test_pairing_table_built_once(self, ws_file, capsys, monkeypatch):
        calls = []

        def counted(f1, f2):
            calls.append((f1, f2))
            return tupling_table(f1, f2)

        monkeypatch.setattr(structure, "tupling_table", counted)
        monkeypatch.setattr(cli, "tupling_table", counted, raising=False)
        assert main(["independent-maps", "fair", "same", "swap", "--workspace", ws_file]) == 0
        assert len(calls) == 1


class TestConvolveCommand:
    def test_unit_is_neutral(self, ws_file, capsys):
        assert main(["--json", "convolve", "xor", "zero", "fairbit", "--workspace", ws_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        bit = FinMetricSpace(("0", "1"), ((0, 1), (1, 0)))
        assert jsonio.measure_from_json(payload) == uniform(bit)


class TestExpectCommand:
    def test_mixture(self, ws_file, capsys):
        assert main(["--json", "expect", "mix", "--workspace", ws_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        x = FinMetricSpace(("a", "b"), ((0, 1), (1, 0)))
        assert jsonio.measure_from_json(payload) == Measure(
            x, (Fraction(3, 4), Fraction(1, 4))
        )


class TestPushforwardCommand:
    def test_swap(self, ws_file, capsys):
        assert main(["--json", "pushforward", "swap", "point", "--workspace", ws_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["weights"] == {"b": "1/1"}


class TestLawsCommand:
    def test_single_law_json(self, capsys):
        code = main(["--json", "laws", "--seed", "1", "--cases", "2", "--law", "kantorovich_duality"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 1
        assert payload["all_passed"] is True
        assert list(payload["laws"]) == ["kantorovich_duality"]

    def test_human_summary(self, capsys):
        code = main(["laws", "--seed", "1", "--cases", "1", "--law", "dirac_product"])
        assert code == 0
        out = capsys.readouterr().out
        assert "dirac_product: pass" in out
        assert "all passed" in out

    def test_unknown_law(self, capsys):
        for mode in ([], ["--json"]):
            for cases in ("1", "0"):
                code = main(mode + ["laws", "--seed", "1", "--cases", cases, "--law", "nope"])
                captured = capsys.readouterr()
                assert (code, captured.out) == (2, ""), (mode, cases)
                assert captured.err == "error: unknown law 'nope'\n", (mode, cases)

    def test_cases_over_the_limit(self, capsys):
        cases = str(MAX_CASES + 1)
        assert main(["laws", "--seed", "1", "--cases", cases, "--law", "dirac_product"]) == 2
        err = capsys.readouterr().err
        assert f"limit of {MAX_CASES}" in err and "MAX_CASES" in err


# A command-line child: the same ``main`` as the console script, finding the
# package on this run's import path.
CLI = [sys.executable, "-m", "kantorovich.cli"]


def _cli_env(**extra):
    return dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), **extra)


def test_closed_output_pipe_exits_1_quietly():
    # the reader closes its end before any output, as `| head -c 10` does early
    child = subprocess.Popen(
        CLI + ["--json", "laws", "--seed", "1", "--cases", "2"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_cli_env(),
    )
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=120) == 1
    assert err == b""


def _deep_label(depth):
    label = "x"
    for _ in range(depth):
        label = [label]
    return label


# each in a fresh interpreter, so that the recursion limit and stack depth
# are those of the installed command, not of the test runner
@pytest.mark.parametrize(
    "text",
    [
        "[" * 100_000 + "]" * 100_000,
        json.dumps({"spaces": {"deep": {"points": [_deep_label(900)], "dist": [["0"]]}}}),
    ],
    ids=["nested-arrays", "nested-label"],
)
def test_input_nested_too_deeply_exits_2_naming_the_file(tmp_path, text):
    path = tmp_path / "deep.json"
    path.write_text(text)
    done = subprocess.run(
        CLI + ["validate", "--workspace", str(path)],
        capture_output=True,
        text=True,
        env=_cli_env(),
        timeout=120,
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith(f"error: {path}: ") and done.stderr.count("\n") == 1
    assert "nested too deeply" in done.stderr


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        assert main([]) == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_workspace_flag(self, capsys):
        assert main(["distance", "p", "q"]) == 2


EXAMPLE_WORKSPACE = Path(__file__).resolve().parent.parent / "docs" / "example-workspace.json"

# The README's command-line examples, plus a few error cases answered by the
# library. Each runs in text and in --json mode. The full-catalog `laws`
# example runs at 5 cases rather than 200: one 200-case run takes about 30 s,
# and the report format is the same.
TRANSCRIPT_COMMANDS = [
    ["validate"],
    ["distance", "sure-heads", "fair-coin"],
    ["distance", "sure-heads", "fair-coin", "-v"],
    ["distance", "fair-coin", "fair-coin", "-v"],
    ["independent", "same-face-pair"],
    ["marginals", "same-face-pair"],
    ["product", "fair-coin", "loaded-die"],
    ["expect", "coin-mixture"],
    ["pushforward", "flip", "sure-heads"],
    ["convolve", "parity", "fair-coin", "biased-coin"],
    ["independent-maps", "fair-coin", "hold", "flip"],
    ["distance", "sure-heads", "loaded-die"],
    ["distance", "sure-heads", "nope"],
    ["marginals", "fair-coin"],
]
TRANSCRIPT_LAWS = [
    ["laws", "--seed", "42", "--cases", "5"],
    ["laws", "--seed", "7", "--cases", "50", "--law", "product_isometry"],
]
TRANSCRIPT_DIGEST = "d67dcc35cb0d8610d39090890d911b68e7254600f32ddda14b3dc48f88269ffa"


def test_golden_cli_transcript(monkeypatch, capsys):
    # one sha256 over (command, exit code, stdout, stderr) of every command above
    monkeypatch.setenv("COLUMNS", "80")
    transcript = []
    for command in TRANSCRIPT_COMMANDS + TRANSCRIPT_LAWS:
        workspace = ["--workspace", str(EXAMPLE_WORKSPACE)] if command[0] != "laws" else []
        for mode in ([], ["--json"]):
            code = main(mode + command + workspace)
            captured = capsys.readouterr()
            transcript.append([mode + command, code, captured.out, captured.err])
    text = json.dumps(transcript, sort_keys=True)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == TRANSCRIPT_DIGEST


# each child has its own string hashes, so set and dict orders that follow
# them would show up here; the digest above sees only this run's seed
@pytest.mark.parametrize(
    "args",
    [
        ["--json", "laws", "--seed", "42", "--cases", "5"],
        ["--json", "distance", "sure-heads", "fair-coin", "-v", "--workspace", str(EXAMPLE_WORKSPACE)],
        ["--json", "expect", "coin-mixture", "--workspace", str(EXAMPLE_WORKSPACE)],
    ],
    ids=["laws", "distance", "expect"],
)
def test_output_does_not_depend_on_the_hash_seed(args):
    outputs = []
    for seed in "012":
        done = subprocess.run(
            CLI + args, capture_output=True, env=_cli_env(PYTHONHASHSEED=seed), timeout=120
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def _parser_structure():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        "top": [a.dest for a in parser._actions],
        "commands": [(a.dest, a.help) for a in sub._choices_actions],
        "dests": {name: [a.dest for a in p._actions] for name, p in sub.choices.items()},
    }


def test_parser_structure():
    # a structural pin rather than a --help digest, so it holds on every Python version
    ws = ["help", "workspace"]
    assert _parser_structure() == {
        "top": ["help", "json", "command"],
        "commands": [
            ("validate", "load a workspace and run all invariant checks"),
            ("distance", "exact transport distance between two measures"),
            ("product", "independent joint of two measures"),
            ("marginals", "both marginals of a joint measure"),
            ("independent", "test a joint for independence"),
            ("independent-maps", "test two observables of a law for independence"),
            ("convolve", "convolve two measures over a monoid"),
            ("expect", "average a nested measure"),
            ("pushforward", "push a measure along a short map"),
            ("laws", "run the law-checking suite"),
        ],
        "dests": {
            "validate": ws,
            "distance": ws + ["p", "q", "verbose"],
            "product": ws + ["p", "q"],
            "marginals": ws + ["r"],
            "independent": ws + ["r"],
            "independent-maps": ws + ["s", "f1", "f2"],
            "convolve": ws + ["monoid", "p", "q"],
            "expect": ws + ["mu"],
            "pushforward": ws + ["f", "p"],
            "laws": ["help", "seed", "cases", "law"],
        },
    }

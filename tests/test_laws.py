import hashlib
import os
import random
import re
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import pytest

from kantorovich import FinMetricSpace, jsonio, metric, tensor
from kantorovich.generate import _numerators, random_space
from kantorovich.laws import (
    CATALOG,
    DEFAULT_BUDGET,
    CheckOutcome,
    LawCatalogEntry,
    SizeBudget,
    check_law,
    run_law,
    run_suite,
    _kind,
    _law_rng,
)


def test_catalog_ids_are_unique_and_sorted_report():
    report = run_suite(seed=1, cases=1)
    assert list(report.entries) == sorted(CATALOG)


def test_all_laws_pass_small_run():
    report = run_suite(seed=99, cases=3)
    assert report.all_passed()
    for law_id, entry in report.entries.items():
        assert entry["failures"] == 0, law_id
        assert entry["first_counterexample"] is None


def test_reports_are_byte_identical():
    a = jsonio.dumps(run_suite(seed=5, cases=3).to_json())
    b = jsonio.dumps(run_suite(seed=5, cases=3).to_json())
    assert a == b


def test_different_seeds_draw_different_instances():
    rng_a = _law_rng(1, "product_isometry")
    rng_b = _law_rng(2, "product_isometry")
    assert rng_a.random() != rng_b.random()


def test_law_rngs_are_independent_per_id():
    rng_a = _law_rng(7, "product_isometry")
    rng_b = _law_rng(7, "marginals_short")
    assert rng_a.random() != rng_b.random()


def test_expected_counterexample_entry():
    entry = run_law("product_of_marginals_not_identity", seed=3, cases=50)
    assert entry["status"] == "expected-counterexample found"
    assert entry["cases_run"] == 1
    assert entry["failures"] == 0


def test_schema_version_and_shape():
    report = run_suite(seed=2, cases=1, law_ids=["kantorovich_duality"])
    payload = report.to_json()
    assert payload["schema_version"] == 1
    assert payload["all_passed"] is True
    assert set(payload["laws"]) == {"kantorovich_duality"}
    entry = payload["laws"]["kantorovich_duality"]
    assert {"statement", "cases_run", "failures", "status", "first_counterexample"} <= set(entry)


def test_a_case_that_raises_is_a_failure_and_the_run_goes_on(monkeypatch):
    left, right = CATALOG["monad_left_unit"], CATALOG["monad_right_unit"]
    instance = jsonio.instance_to_json(left.generate(_law_rng(1, left.id), DEFAULT_BUDGET))

    def check(**fields):
        raise ValueError("weights sum to 0")

    def generate(rng, budget):
        raise RuntimeError("no instance")

    monkeypatch.setitem(CATALOG, left.id, replace(left, check=check))
    monkeypatch.setitem(CATALOG, right.id, replace(right, generate=generate))
    report = run_suite(seed=1, cases=2)
    entries = report.entries
    assert [entries[i]["failures"] for i in (left.id, right.id)] == [2, 2]
    assert entries[left.id]["first_counterexample"] == {
        "instance": instance,
        "error": "ValueError: weights sum to 0",
    }
    assert entries[right.id]["first_counterexample"] == {
        "instance": None,
        "error": "RuntimeError: no instance",
    }
    others = [e for law_id, e in entries.items() if law_id not in (left.id, right.id)]
    assert len(others) == len(CATALOG) - 2
    assert all(e["status"] != "fail" for e in others)
    jsonio.dumps(report.to_json())


def test_run_law_records_the_first_failure_of_each_kind(monkeypatch):
    def generate(rng, budget):
        return {"n": rng.randint(0, 9)}

    def fails(n):
        return CheckOutcome(False, Fraction(n, 2), (n, "x"))

    def raises(n):
        raise ValueError(f"bad {n}")

    def no_instance(rng, budget):
        raise RuntimeError("no instance")

    laws = {
        "test-fails": LawCatalogEntry("test-fails", "fails", generate, fails),
        "test-raises": LawCatalogEntry("test-raises", "raises", generate, raises),
        "test-no-instance": LawCatalogEntry("test-no-instance", "no instance", no_instance, fails),
    }
    for law_id, entry in laws.items():
        monkeypatch.setitem(CATALOG, law_id, entry)
    first = {law_id: _law_rng(3, law_id).randint(0, 9) for law_id in laws}
    entries = {law_id: run_law(law_id, seed=3, cases=4) for law_id in laws}
    for entry in entries.values():
        assert (entry["cases_run"], entry["failures"], entry["status"]) == (4, 4, "fail")
    n = first["test-fails"]
    assert entries["test-fails"]["first_counterexample"] == {
        "instance": {"n": {"type": "int", "value": n}},
        "lhs": jsonio.format_fraction(Fraction(n, 2)),
        "rhs": [f"{n}/1", "x"],
    }
    n = first["test-raises"]
    assert entries["test-raises"]["first_counterexample"] == {
        "instance": {"n": {"type": "int", "value": n}},
        "error": f"ValueError: bad {n}",
    }
    assert entries["test-no-instance"]["first_counterexample"] == {
        "instance": None,
        "error": "RuntimeError: no instance",
    }


def test_check_law_replays_serialized_instances():
    for law_id in ("marginals_of_product_identity", "product_isometry", "monad_associativity"):
        entry = CATALOG[law_id]
        rng = _law_rng(11, law_id)
        instance = entry.generate(rng, DEFAULT_BUDGET)
        as_json = jsonio.instance_to_json(instance)
        outcome = check_law(law_id, as_json)
        assert outcome.ok, law_id


def test_check_law_accepts_live_objects():
    entry = CATALOG["dirac_product"]
    instance = entry.generate(_law_rng(13, "dirac_product"), DEFAULT_BUDGET)
    assert check_law("dirac_product", instance).ok


def test_check_law_reports_failures_with_both_sides():
    # feed the correlated witness to the law that asserts independence survives
    from kantorovich.laws import _gen_correlated_witness

    instance = _gen_correlated_witness(None, None)
    outcome = check_law("dirac_marginal_independence", instance)
    assert not outcome.ok
    assert outcome.lhs is not None
    assert outcome.rhs is not None


def test_unknown_law_rejected():
    with pytest.raises(ValueError, match="unknown law"):
        check_law("no_such_law", {})
    with pytest.raises(ValueError, match="unknown law"):
        run_suite(seed=1, cases=1, law_ids=["no_such_law"])
    # law ids are checked before the case count
    with pytest.raises(ValueError, match="unknown law 'no_such_law'"):
        run_suite(seed=1, cases=0, law_ids=["no_such_law"])


@pytest.mark.parametrize(
    "instance",
    [{}, {"q": None}, {"p": None, "q": None}],
    ids=["empty", "wrong-field", "extra-field"],
)
def test_check_law_rejects_instance_with_wrong_fields(instance):
    got = sorted(instance)
    with pytest.raises(ValueError, match=rf"takes fields \['p'\], got {re.escape(str(got))}"):
        check_law("monad_left_unit", instance)


@pytest.mark.parametrize("as_json", [False, True], ids=["live", "json"])
def test_check_law_names_a_field_of_the_wrong_kind(as_json):
    space = random_space(random.Random(0))
    instance = {"p": space}
    if as_json:
        instance = jsonio.instance_to_json(instance)
    with pytest.raises(ValueError, match=r"field 'p' takes a measure, got a space$"):
        check_law("monad_left_unit", instance)
    entry = CATALOG["monad_associativity"]
    instance = entry.generate(_law_rng(3, entry.id), DEFAULT_BUDGET)
    instance["layers"] = [space]
    with pytest.raises(ValueError, match=r"'layers' takes a list of nested, got a list of space$"):
        check_law(entry.id, instance)


def test_generated_kinds_do_not_depend_on_the_seed():
    # check_law reads each field's expected kind off one generated instance
    for law_id, entry in CATALOG.items():
        instances = [entry.generate(_law_rng(seed, law_id), DEFAULT_BUDGET) for seed in range(6)]
        kinds = [{name: _kind(v) for name, v in inst.items()} for inst in instances]
        assert all(k == kinds[0] for k in kinds), law_id


def test_cases_must_be_positive():
    with pytest.raises(ValueError, match="at least 1"):
        run_suite(seed=1, cases=0)


@pytest.mark.parametrize("cases", [0, -3])
def test_one_law_needs_a_case_too(cases):
    with pytest.raises(ValueError, match="cases must be at least 1"):
        run_law("monad_left_unit", 1, cases)


def test_custom_budget_respected():
    tiny = SizeBudget(max_points=2, max_factor_points=2, max_quad_points=2)
    report = run_suite(seed=21, cases=2, budget=tiny, law_ids=["marginals_of_product_identity"])
    assert report.all_passed()
    assert report.to_json()["budget"]["max_points"] == 2
    # every generator draws its numerators from the budget, the three-layer one too
    one = SizeBudget(max_numerator=1)
    entry = CATALOG["monad_associativity"]
    for seed in range(1, 6):
        instance = entry.generate(_law_rng(seed, entry.id), one)
        weights = list(instance["weights"])
        for nu in instance["layers"]:
            weights += list(nu.weights)
            weights += [w for m in nu.inner for w in m.weights]
        assert max(w.denominator for w in weights) <= 4, seed


# Each field below its minimum once made a generator loop forever or raise
# inside every law that used it, reported as failures of the laws.
@pytest.mark.parametrize(
    "field, value",
    [
        ("max_points", 1),
        ("max_factor_points", 1),
        ("max_quad_points", 1),
        ("max_numerator", 0),
        ("max_inner", 0),
        ("max_oracle_support", 0),
        ("max_points", 4.0),
        ("max_numerator", True),
    ],
)
def test_size_budget_below_its_minimum_is_rejected(field, value):
    with pytest.raises(ValueError, match=f"^SizeBudget.{field} must be an int of at least"):
        SizeBudget(**{field: value})


def test_smallest_size_budget_runs_every_law():
    least = SizeBudget(2, 2, 2, 1, 1, 1)
    assert run_suite(seed=3, cases=2, budget=least).all_passed()


class _FewDraws(random.Random):
    """Fails after 100 draws, so a generator that redraws forever fails rather than hangs."""

    left = 100

    def randint(self, a, b):
        self.left -= 1
        assert self.left >= 0, "more than 100 draws"
        return super().randint(a, b)


def test_numerators_refuse_an_empty_range():
    with pytest.raises(ValueError, match="up to 0"):
        _numerators(_FewDraws(1), 2, 0)


# sha256 digests recorded before the catalog was declared with @law; a
# refactor of the laws module must leave both unchanged.
SUITE_DIGEST = "08888f35eee19c91dc4e4251c0ea5217517e6a31cf3e9e84db4faaf6c0e2dfe7"
SIDES_DIGEST = "4572c8c6e086e2528ff3cc6fb470fc3caba56d240e9b798a5cd3bdd88df77862"

# A larger tier than DEFAULT_BUDGET: spaces of up to 12 points, factors of up
# to 6, numerators of up to 256. Its digest was recorded before tensor spaces
# were certified by their factors, so that change left the report unchanged.
LARGE_BUDGET = SizeBudget(max_points=12, max_factor_points=6, max_numerator=256)
LARGE_DIGEST = "81a5653a0f72b0f91ec3e47c341218241a843e64eb45723d2184252b6de0f708"

LAW_IDS = [
    "affine_terminal",
    "bimonoidality_square",
    "convolution_monoid",
    "decomposition_independence",
    "dirac_marginal_independence",
    "dirac_marginals",
    "dirac_product",
    "expectation_marginals",
    "expectation_naturality",
    "expectation_product",
    "expectation_short",
    "family_independence",
    "kantorovich_duality",
    "marginals_braiding",
    "marginals_coassociative",
    "marginals_counital",
    "marginals_naturality",
    "marginals_of_product_identity",
    "marginals_short",
    "monad_associativity",
    "monad_left_unit",
    "monad_right_unit",
    "oracle_equivalence",
    "partial_integral_short",
    "product_associative",
    "product_braiding",
    "product_isometry",
    "product_naturality",
    "product_of_marginals_not_identity",
    "product_unital",
    "projection_independence",
    "pushforward_contraction",
    "strength_marginals",
    "sum_functional_short",
    "wasserstein_metric_axioms",
]


def _sha256(payload):
    return hashlib.sha256(jsonio.dumps(payload).encode()).hexdigest()


def test_suite_report_golden_digest():
    assert _sha256(run_suite(seed=42, cases=5).to_json()) == SUITE_DIGEST


def test_suite_passes_at_the_larger_budget():
    report = run_suite(seed=42, cases=20, budget=LARGE_BUDGET)
    assert report.all_passed()
    assert _sha256(report.to_json()) == LARGE_DIGEST


def test_suite_report_does_not_depend_on_the_tensor_cache():
    metric._tensor.cache_clear()
    assert _sha256(run_suite(seed=42, cases=5).to_json()) == SUITE_DIGEST
    # more distinct tensors than the cache holds, none of them the suite's
    before = tensor.cache_info()
    unit = FinMetricSpace(("churn",), ((0,),))
    for k in range(before.maxsize + 1):
        tensor(FinMetricSpace(("c0", "c1"), ((0, k + 1), (k + 1, 0))), unit)
    after = tensor.cache_info()
    assert after.misses - before.misses == before.maxsize + 1
    assert after.currsize == before.maxsize
    assert _sha256(run_suite(seed=42, cases=5).to_json()) == SUITE_DIGEST


def test_check_law_sides_golden_digest():
    sides = {}
    for law_id, entry in CATALOG.items():
        outcome = check_law(law_id, entry.generate(_law_rng(11, law_id), DEFAULT_BUDGET))
        sides[law_id] = [outcome.ok, outcome.lhs, outcome.rhs]
    assert _sha256(sides) == SIDES_DIGEST


def test_catalog_integrity():
    assert sorted(CATALOG) == LAW_IDS
    statements = [entry.statement for entry in CATALOG.values()]
    assert all(statements)
    assert len(set(statements)) == len(statements)
    assert [e.id for e in CATALOG.values() if e.expected_counterexample] == [
        "product_of_marginals_not_identity"
    ]
    assert all(law_id == entry.id for law_id, entry in CATALOG.items())


def test_check_law_rejects_list_weights():
    space = {"points": ["a"], "dist": [["0"]]}
    instance = {"p": {"type": "measure", "value": {"space": space, "weights": ["1/1"]}}}
    with pytest.raises(ValueError, match="'weights'"):
        check_law("monad_left_unit", instance)


def test_law_suite_loads_on_first_use():
    script = (
        "import sys, kantorovich\n"
        "assert 'kantorovich.laws' not in sys.modules\n"
        "assert len(kantorovich.CATALOG) == len(kantorovich.laws.CATALOG)\n"
        "namespace = {}\n"
        "exec('from kantorovich import *', namespace)\n"
        "assert set(kantorovich.__all__) <= set(namespace)\n"
        "assert namespace['run_suite'] is kantorovich.laws.run_suite\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", script], check=True, env=env)

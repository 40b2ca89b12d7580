"""The suite runner: one case loop, failure sizes, and the minimal-counterexample rule."""

import random

from supergrr import ktheory, suites
from supergrr.suites import SuiteResult, minimal_failure


def test_minimal_failure_ties_go_to_suite_then_case_order():
    results = [
        SuiteResult("whitney", 4, failures=[(5, "w1"), (3, "w2"), (3, "w3")]),
        SuiteResult("star-ring", 4, failures=[(3, "s0")]),
    ]
    assert minimal_failure(results) == "w2"


def test_run_numbers_cases_and_records_sizes():
    def one_case(rng):
        value = rng.randint(0, 9)
        return (value, f"drew {value}") if value % 2 else None

    result = suites._run("draws", 11, 20, one_case)
    rng = random.Random(11)
    expected = []
    for index in range(20):
        value = rng.randint(0, 9)
        if value % 2:
            expected.append((value, f"case {index} (size {value}): drew {value}"))
    assert expected and result.failures == tuple(expected)
    assert (result.name, result.cases, result.passed) == ("draws", 20, 20 - len(expected))


def _bundle_size(bundle):
    return sum(bundle.rank) + sum(abs(d) for d in bundle.even_degs + bundle.odd_degs)


def test_sgrr_size_is_top_degree_plus_the_bundle(monkeypatch):
    monkeypatch.setattr(suites, "rr_oracle", lambda curve, bundle: None)
    result = suites.run_sgrr_sweep(5, 12)
    assert len(result.failures) == 12
    rng = random.Random(5)
    for index, (size, text) in enumerate(result.failures):
        curve, bundle = suites.random_supercurve_instance(rng)
        assert size == curve.model.top_degree + _bundle_size(bundle)
        prefix = f"case {index} (size {size}): g={curve.genus} deg_l={curve.deg_l} {bundle}:"
        assert text.startswith(prefix)


def test_kclass_size_counts_the_conormal_bundle(monkeypatch):
    # a star product that ignores its second factor breaks the star-ring identity
    monkeypatch.setattr(ktheory, "star_product", lambda x, y, nd: x)
    result = suites.IDENTITY_SUITES["star-ring"](9, 12)
    rng = random.Random(9)
    tops, expected = [], []
    for _ in range(12):
        model = suites.random_model(rng)
        nd = suites.random_normal_data(rng, model)
        suites.random_element(rng, model), suites.random_element(rng, model)
        tops.append(model.top_degree)
        expected.append(model.top_degree + _bundle_size(nd.conormal))
    assert len(result.failures) == 12
    assert [size for size, _ in result.failures] == expected
    assert expected != tops  # the seed draws a nonzero conormal bundle

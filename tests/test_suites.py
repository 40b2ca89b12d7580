"""The suite runner: one case loop, failure sizes, and the minimal-counterexample rule."""

import hashlib
import random

import pytest

from supergrr import GradedElement, SuperBundle, ktheory, pi_power, suites
from supergrr.ktheory import KClass
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


# -- what a seed draws --------------------------------------------------------------


class LoggingRandom(random.Random):
    """random.Random that logs each randint and random call with its arguments and result.

    A subclass that defines random() would otherwise draw integers without
    getrandbits, so _randbelow is pinned to the inherited one: the logged
    sequence is the one random.Random draws.
    """

    _randbelow = random.Random._randbelow

    def __init__(self, seed):
        self.log = []
        super().__init__(seed)

    def randint(self, a, b):
        value = super().randint(a, b)
        self.log.append(f"randint({a}, {b}) = {value}")
        return value

    def random(self):
        value = super().random()
        self.log.append(f"random() = {value!r}")
        return value


CASES = {name: run.keywords["one_case"] for name, run in suites.IDENTITY_SUITES.items()}
CASES["sgrr"] = suites._sgrr

# sha256 of each case function's draw log over 100 cases from seed 7
DRAW_DIGESTS = {
    "whitney": "4cc586d4be02db971a238692ea549ece19ecc98e03c1363ba8ebd13f369fbef3",
    "tensor-character": "fd97287f7483c04c30476584782902c7a76c7691dba0c73773c50c748ca474f0",
    "parity-rules": "e83568a94b7a6c170cd03fd863e6c7935f4e45d6c33ba80d5a1a29ff8ae2b247",
    "todd-multiplicativity": "4cc586d4be02db971a238692ea549ece19ecc98e03c1363ba8ebd13f369fbef3",
    "todd-sigma1-duality": "7003afd778d5f7342d57b209a666251d8bc5aa183f387f4d07fcbc52c1175b32",
    "star-ring": "3a5846cbc0059c846db8d11877ae21417c1e354ba5370bbfcd46fac1b6e95ed0",
    "twisted-character": "3a5846cbc0059c846db8d11877ae21417c1e354ba5370bbfcd46fac1b6e95ed0",
    "sgrr": "c9a09d0737024a1015ed5b66acc38d659f20f1e88b004daf8dc80fed962d56ef",
}


@pytest.mark.parametrize("name", DRAW_DIGESTS)
def test_a_seed_draws_the_pinned_cases(name):
    """Passing runs print only counts, so the cases a seed draws are pinned here."""
    rng, plain = LoggingRandom(7), random.Random(7)
    for _ in range(100):
        assert CASES[name](rng) is None
        CASES[name](plain)
    assert rng.getstate() == plain.getstate()
    digest = hashlib.sha256("\n".join(rng.log).encode()).hexdigest()
    assert digest == DRAW_DIGESTS[name], digest


# -- the two multiplicativity suites share one case ------------------------------------


@pytest.mark.parametrize(
    "method, broken, kept, symbol",
    [
        ("chern_total", "whitney", "todd-multiplicativity", "c"),
        ("todd", "todd-multiplicativity", "whitney", "td"),
    ],
)
def test_multiplicativity_case_sees_a_patched_class(monkeypatch, method, broken, kept, symbol):
    """Each suite looks its class up on the bundle as the case runs, so a class patch applies."""
    # ch is additive on sums, not multiplicative, so the suite that reads the patch fails
    monkeypatch.setattr(SuperBundle, method, SuperBundle.chern_character)
    result = suites.IDENTITY_SUITES[broken](3, 40)
    assert result.failures
    assert all(text.endswith(f" != {symbol}.{symbol}") for _, text in result.failures)
    assert suites.IDENTITY_SUITES[kept](3, 40).ok


# -- each identity's failure text ------------------------------------------------------


def _sorting_pi_shift(bundle):
    """The parity shift with each root list sorted: ch and c1 see the same roots."""
    even, odd = tuple(sorted(bundle.even)), tuple(sorted(bundle.odd))
    return SuperBundle(bundle.model, odd, even, bundle.denominator)


E, F = "bundle[curve(g=0); even=(-4); odd=(2)]", "bundle[curve(g=0); even=(5); odd=(-2)]"
PARITY = "bundle[curve(g=0); even=(-4,2); odd=(2,5,1)]"
CONORMAL = (
    "NormalData(conormal=SuperBundle(model=ChowModel(kind='curve', genus=0, dim=0), "
    "even=(), odd=(-4,), denominator=1))"
)

# each patch breaks the one identity its text names and keeps every earlier
# check of the case: suite, (owner, attribute, patch), size and text of case 0 at seed 1
BROKEN_IDENTITIES = {
    "tensor": (
        "tensor-character", (SuperBundle, "tensor", SuperBundle.direct_sum),
        18, f"ch({E} x {F}) != ch.ch",
    ),
    "sum": (
        "tensor-character", (SuperBundle, "direct_sum", SuperBundle.tensor),
        18, f"ch({E} + {F}) != ch + ch",
    ),
    "ch-shift": (
        "parity-rules", (SuperBundle, "pi_shift", lambda bundle: bundle),
        20, f"ch(P.{PARITY}) != -P ch",
    ),
    "c1-shift": (
        "parity-rules", (suites, "pi_power", lambda n: pi_power(n + 1)),
        20, f"c1 parity rule fails on {PARITY}",
    ),
    "involution": (
        "parity-rules", (SuperBundle, "pi_shift", _sorting_pi_shift),
        20, f"parity shift not involutive on {PARITY}",
    ),
    "c1-dual": (
        "parity-rules", (SuperBundle, "dual", lambda bundle: bundle),
        23, "c1 duality fails on bundle[curve(g=0); even=(); odd=(-2)]",
    ),
    "td-dual": (
        "todd-sigma1-duality", (SuperBundle, "dual", lambda bundle: bundle),
        9, "td != sigma1(dual) on bundle[curve(g=0); even=(); odd=(-4,2)]",
    ),
    "star-unit": (
        "star-ring",
        (ktheory, "star_identity", lambda nd: KClass(GradedElement.one(nd.conormal.model))),
        6, f"sigma_1 is not a star unit over {CONORMAL}",
    ),
    "j-split": (
        "twisted-character", (ktheory, "j_map", lambda x, nd: x),
        6, f"ch_S(j(x)) != ch(x) over {CONORMAL}",
    ),
}


@pytest.mark.parametrize("name", BROKEN_IDENTITIES)
def test_a_broken_identity_prints_its_text_and_size(monkeypatch, name):
    suite, (owner, attribute, patch), size, text = BROKEN_IDENTITIES[name]
    monkeypatch.setattr(owner, attribute, patch)
    result = suites.IDENTITY_SUITES[suite](1, 1)
    assert result.failures == ((size, f"case 0 (size {size}): {text}"),)

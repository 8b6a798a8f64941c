"""The key path against the parse path: labels an instance made carry their
structure as a key, and every other label equal to one of them (another
instance's, or one built by hand) must behave identically."""

import math

import pytest

import oracles
from fusionring import Budget, IrrLabel, UnknownLabel
from fusionring.cli import parse_provider
from fusionring.rings import so3_ring, suq2_ring, uq_su11_ring, word_group
from fusionring.torsion import n_sequence_cocommutative

SPECS = [
    "suq2",
    "so3",
    "uqsu11",
    "au",
    "word:Z2*Z",
    "word:Z3*Z",
    "free(so3,word:Z2)",
    "prod(suq2,word:Z2)",
]
WINDOW = 10


def _labels(provider):
    """The window followed by every constituent of its pairwise products."""
    window = provider.enumerate(WINDOW)
    seen = dict.fromkeys(window)
    for a in window:
        for b in window:
            seen.update(dict.fromkeys(provider.decompose(a, b).constituents()))
    return list(seen)


def _by_hand(label):
    return IrrLabel(label.id, label.dim)


@pytest.mark.parametrize("spec", SPECS)
def test_parse_label_returns_the_interned_label(spec):
    provider = parse_provider(spec)
    for lab in _labels(provider):
        again = provider.parse_label(lab.id)
        assert again == lab and provider.key_of(again) == provider.key_of(lab) and again is lab


@pytest.mark.parametrize("spec", SPECS)
def test_foreign_and_hand_built_labels_agree_with_interned(spec):
    provider, second, third = (parse_provider(spec) for _ in range(3))
    labels = _labels(provider)
    for a in labels:
        # ``second`` never made ``a``; ``third`` sees only its id and dim.
        assert provider.conj(a) == second.conj(a) == third.conj(_by_hand(a))
        assert provider.label_size(a) == second.label_size(a) == third.label_size(_by_hand(a))
    for a in labels[:16]:
        for b in labels[:16]:
            want = provider.decompose(a, b)
            assert second.decompose(a, b) == want
            assert third.decompose(_by_hand(a), _by_hand(b)) == want


@pytest.mark.parametrize("spec", SPECS)
def test_wrong_dim_labels_raise(spec):
    provider = parse_provider(spec)
    for lab in _labels(provider)[1:]:
        wrong = IrrLabel(lab.id, lab.dim + 1)
        with pytest.raises(UnknownLabel):
            provider.conj(wrong)
        with pytest.raises(UnknownLabel):
            provider.decompose(wrong, lab)
        with pytest.raises(UnknownLabel):
            provider.label_size(wrong)


def test_foreign_labels_raise_even_when_keys_collide():
    suq2 = suq2_ring()
    suq2.enumerate(8)
    v3 = so3_ring().parse_label("v3")  # key 3, like suq2's u3
    for bad in (IrrLabel("u3", 5), v3):
        with pytest.raises(UnknownLabel):
            suq2.conj(bad)
        with pytest.raises(UnknownLabel):
            suq2.decompose(bad, suq2.unit())
        with pytest.raises(UnknownLabel):
            suq2.label_size(bad)
    # A label built by hand resolves through its id.
    assert suq2.label_size(IrrLabel("u3", 4)) == 3


def test_ladder_parsers_refuse_trailing_newlines():
    for provider, text in ((suq2_ring(), "u3"), (so3_ring(), "v2"), (uq_su11_ring(), "u+1")):
        assert provider.parse_label(text).id == text
        with pytest.raises(UnknownLabel):
            provider.parse_label(text + "\n")


@pytest.mark.parametrize(
    "factors", [[2, math.inf], [math.inf, math.inf], [2, 2], [3, math.inf]], ids=str
)
def test_incremental_stage_one_pass_matches_power_search(factors):
    group = word_group(factors)
    window = group.enumerate(100)
    want = {g: oracles.power_stage_one_exponent(group, g, 64) for g in window}
    assert {g: group.stage_one_exponent(g, 64) for g in window} == want
    counterexample = next((f"{g.id}^{n}" for g, n in want.items() if n is not None and n > 1), None)
    report = n_sequence_cocommutative(group, Budget(max_irreducibles=100))
    assert report.counterexample == counterexample

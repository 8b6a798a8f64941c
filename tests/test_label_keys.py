"""The key path against the parse path: labels an instance made carry their
structure as a key, and every other label equal to one of them (another
instance's, or one built by hand) must behave identically."""

import itertools
import math
import random
import re
from functools import partial

import pytest

import oracles
from fusionring import Budget, Decomposition, IrrLabel, UnknownLabel
from fusionring.cli import parse_provider
from fusionring.rings import (
    character_ring,
    dump_ring_json,
    finite_group_ring,
    load_ring_json,
    so3_ring,
    suq2_ring,
    uq_su11_ring,
    word_group,
)
from fusionring.rings.tables import S3_CHARACTER_TABLE
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
# Finite table rings: the key is the id, and every label of the ring has size 1.
TABLES = {
    "group:S3": lambda: finite_group_ring(oracles.s3_group_table(), "group:S3"),
    "characters:S3": lambda: character_ring(S3_CHARACTER_TABLE),
    "json:S3": lambda: load_ring_json(dump_ring_json(character_ring(S3_CHARACTER_TABLE))),
}
RINGS = {**{spec: partial(parse_provider, spec) for spec in SPECS}, **TABLES}
WINDOW = 10


def _labels(provider, window=WINDOW):
    """The window followed by every constituent of its pairwise products."""
    window = provider.enumerate(window)
    seen = dict.fromkeys(window)
    for a in window:
        for b in window:
            seen.update(dict.fromkeys(provider.decompose(a, b).constituents()))
    return list(seen)


def _by_hand(label):
    return IrrLabel(label.id, label.dim)


@pytest.mark.parametrize("ring", RINGS)
def test_parse_label_returns_the_interned_label(ring):
    provider = RINGS[ring]()
    for lab in _labels(provider):
        again = provider.parse_label(lab.id)
        assert again == lab and provider.key_of(again) == provider.key_of(lab) and again is lab


def _texts(ring, provider):
    """Texts over the ring's id alphabet (the characters of its labels'
    ids, and the digits): every text of up to 4 characters, then seeded
    random ones of 5 to 9 characters and ids with 1 to 3 characters
    inserted or replaced."""
    ids = [lab.id for lab in _labels(provider)]
    alphabet = sorted(set("".join(ids)) | set("0123456789"))
    rng = random.Random(ring)
    texts = ["".join(chars) for k in range(5) for chars in itertools.product(alphabet, repeat=k)]
    texts += ["".join(rng.choices(alphabet, k=rng.randint(5, 9))) for _ in range(2000)]
    for _ in range(2000):
        text = rng.choice(ids)
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(text) + 1)
            text = text[:i] + rng.choice(alphabet) + text[i + rng.randrange(2):]
        texts.append(text)
    return texts


@pytest.mark.parametrize("ring", RINGS)
def test_parse_label_returns_only_the_label_spelled_as_the_text(ring):
    provider = RINGS[ring]()
    parsed = 0
    for text in _texts(ring, provider):
        try:
            lab = provider.parse_label(text)
        except UnknownLabel:
            continue
        assert lab.id == text
        parsed += 1
    assert parsed >= 3


# Texts that parsed as a label spelled another way while the word groups
# and ``au`` each had their own read-back rule, with the refusal now.
OTHER_SPELLINGS = {
    ("word:Z2*Z", "a^1"): "word:Z2*Z: no irreducible with id 'a^1' (it parses as 'a')",
    ("word:Z2*Z", "a^01"): "word:Z2*Z: no irreducible with id 'a^01' (it parses as 'a')",
    ("word:Z2*Z", "b^-01"): "word:Z2*Z: no irreducible with id 'b^-01' (it parses as 'b^-1')",
    ("word:Z2*Z", "ab^1"): "word:Z2*Z: no irreducible with id 'ab^1' (it parses as 'ab')",
    ("prod(suq2,word:Z2)", "(u1,a^1)"): "word:Z2: no irreducible with id 'a^1' (it parses as 'a')",
    ("au", ""): "au: no irreducible with id '' (it parses as 'e')",
}


@pytest.mark.parametrize("spec, text", OTHER_SPELLINGS, ids=[f"{spec}-{text!r}" for spec, text in OTHER_SPELLINGS])
def test_other_spellings_of_a_label_are_refused(spec, text):
    with pytest.raises(UnknownLabel, match=f"^{re.escape(OTHER_SPELLINGS[spec, text])}$"):
        parse_provider(spec).parse_label(text)


@pytest.mark.parametrize("ring", RINGS)
def test_enumerate_lists_nothing_below_one(ring):
    provider = RINGS[ring]()
    for count in (-3, -1, 0):
        assert provider.enumerate(count) == [], count


@pytest.mark.parametrize("ring", RINGS)
def test_foreign_and_hand_built_labels_agree_with_interned(ring):
    provider, second, third = (RINGS[ring]() for _ in range(3))
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


@pytest.mark.parametrize("ring", RINGS)
def test_wrong_dim_labels_raise(ring):
    provider = RINGS[ring]()
    for lab in _labels(provider)[1:]:
        wrong = IrrLabel(lab.id, lab.dim + 1)
        with pytest.raises(UnknownLabel):
            provider.conj(wrong)
        with pytest.raises(UnknownLabel):
            provider.decompose(wrong, lab)
        with pytest.raises(UnknownLabel):
            provider.label_size(wrong)


@pytest.mark.parametrize("ring", RINGS)
def test_unknown_ids_raise(ring):
    provider = RINGS[ring]()
    stranger = IrrLabel("nope", 1)
    with pytest.raises(UnknownLabel):
        provider.conj(stranger)
    with pytest.raises(UnknownLabel):
        provider.decompose(stranger, provider.unit())
    with pytest.raises(UnknownLabel):
        provider.label_size(stranger)


NESTED = "free(word:Z2,free(word:Z2,word:Z3))"


def test_nested_free_product_labels_resolve_only_to_themselves():
    # Letters from the inner product are bracketed (see test_products), so
    # every id read by another instance names the same word.
    provider, second = parse_provider(NESTED), parse_provider(NESTED)
    for lab in _labels(provider, 40):
        want = provider.key_of(lab)
        assert second.key_of(lab) == want, lab
        assert second.key_of(second.parse_label(lab.id)) == want, lab
    a = provider.parse_label("a")
    odd = next(lab for lab in provider.enumerate(40) if lab.id == "[0:a.a^2]")
    assert [w.id for w in provider.decompose(odd, a).constituents()] == ["[0:a.a^2].a"]
    assert provider.conj(odd).id == "[1:a.0:a]"
    assert second.decompose(odd, a) == Decomposition({second.parse_label("[0:a.a^2].a"): 1})
    assert second.conj(odd) == second.parse_label("[1:a.0:a]")


@pytest.mark.parametrize("spec, interned", [(NESTED, 380), ("free(free(so3,word:Z2),au)", 1054)])
def test_nested_free_product_ids_read_back(spec, interned):
    # Every label made while decomposing all pairs of a 40-label window.
    provider = parse_provider(spec)
    _labels(provider, 40)
    labels = list(provider._keys)
    assert len(labels) == interned
    assert [lab for lab in labels if provider.parse_label(lab.id) != lab] == []


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

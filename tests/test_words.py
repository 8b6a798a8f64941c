import hashlib
import inspect
import math
import re
import sys

import pytest
from hypothesis import given, strategies as st

from fusionring import (
    Budget,
    ParseError,
    UnknownLabel,
    check_axioms,
    word_group,
)
from fusionring.cli import parse_provider
from fusionring.rings.words import WordGroupSpec, alternating_words, parse_word_group_spec

import oracles


def test_spec_validation_and_describe():
    spec = WordGroupSpec((2, math.inf))
    assert spec.describe() == "Z2*Z"
    with pytest.raises(ValueError):
        WordGroupSpec(())
    with pytest.raises(ValueError):
        WordGroupSpec((1,))


def test_parse_spec_strings():
    assert parse_word_group_spec("Z2*Z2").factors == (2, 2)
    assert parse_word_group_spec("Z2*Z").factors == (2, math.inf)
    assert parse_word_group_spec("Z3*Z4*Z").factors == (3, 4, math.inf)
    with pytest.raises(ParseError):
        parse_word_group_spec("Z1")
    with pytest.raises(ParseError):
        parse_word_group_spec("Q8")


def test_ids_and_parse_round_trip():
    g = word_group([3, math.inf])
    for wid in ("e", "a", "a^2", "b", "b^-1", "ab", "a^2b^-3a"):
        lab = g.parse_label(wid)
        assert lab.id == wid
    with pytest.raises(UnknownLabel):
        g.parse_label("a^3")  # reduces away, not a stored id
    with pytest.raises(UnknownLabel):
        g.parse_label("c")


def test_parse_refuses_words_that_are_not_reduced():
    g = word_group([2, 2])
    for text, reduced in (("aa", "e"), ("abb", "a"), ("ba^1a", "b")):
        with pytest.raises(UnknownLabel, match=f"^word:Z2\\*Z2: no irreducible with id '{re.escape(text)}' "
                                               f"\\(it parses as '{reduced}'\\)$"):
            g.parse_label(text)


def test_at_most_25_factors():
    # One letter per factor from a-z, leaving out e, the identity's id.
    with pytest.raises(ValueError, match="^at most 25 factors"):
        WordGroupSpec((2,) * 26)
    assert len(WordGroupSpec((2,) * 25).factors) == 25
    assert [l.id for l in word_group([2] * 25).enumerate(26)[-2:]] == ["y", "z"]
    with pytest.raises(ParseError, match="^at most 25 factors") as err:
        parse_word_group_spec("*".join(["Z2"] * 26))
    assert err.value.position == 0


def test_no_factor_letter_spells_the_identity():
    g = word_group([2] * 5)
    listed = g.enumerate(8)
    assert [l.id for l in listed] == ["e", "a", "b", "c", "d", "f", "ab", "ac"]
    assert len({l.id for l in listed}) == len(listed)
    e, a, f = g.unit(), g.parse_label("a"), g.parse_label("f")
    assert g.key_of(e) == ()
    assert g.decompose(e, a).constituents() == [a]
    assert g.decompose(f, f).constituents() == [e]
    with pytest.raises(UnknownLabel, match="no factor for letter 'e'"):
        g.parse_label("ae")


def test_group_products_reduce():
    g = word_group([2, 2])
    a = g.parse_label("a")
    b = g.parse_label("b")
    ab = g.decompose(a, b)
    ((lab, mult),) = tuple(ab)
    assert lab.id == "ab" and mult == 1
    ((lab2, _),) = tuple(g.decompose(a, a))
    assert lab2 == g.unit()
    assert g.conj(g.parse_label("ab")).id == "ba"


def test_enumerate_terminates_for_finite_groups():
    g = word_group([2])
    assert [l.id for l in g.enumerate(10)] == ["e", "a"]
    assert g.num_irreducibles == 2
    g3 = word_group([3])
    assert [l.id for l in g3.enumerate(10)] == ["e", "a", "a^2"]


def test_enumerate_by_weight_layers():
    g = word_group([2, math.inf])
    ids = [l.id for l in g.enumerate(8)]
    assert ids[0] == "e"
    weights = [g.label_size(l) for l in g.enumerate(8)]
    assert weights == sorted(weights)
    assert "a" in ids and "b" in ids and "b^-1" in ids


@pytest.mark.parametrize(
    "factors", [[2, 2], [3, math.inf], [2, math.inf], [math.inf, math.inf], [math.inf]], ids=str
)
def test_enumerate_matches_reference_loop(factors):
    # The reference lists all words up to the first weight that reaches the
    # window and sorts them by weight first, so its window w is the first w
    # labels of its window 600.
    want = oracles.enumerate_words_reference(word_group(factors), 600)
    assert len(want) == 600
    group = word_group(factors)
    for window in range(1, 601):
        assert group.enumerate(window) == want[:window], window


@pytest.mark.parametrize(
    "factors", [[2, 2], [2, math.inf], [math.inf, math.inf], [3, math.inf], [2, 3, 5, math.inf, 7]], ids=str
)
def test_word_ids_match_the_letter_by_letter_spelling(factors):
    # The window's words and their products: longer words, and exponents
    # that only products reach (a^-3 from a^-1 a^-2, b^4 in Z5).
    group = word_group(factors)
    window = group.enumerate(400)
    labels = [*window, *(w for u in window[:40] for v in window[:40] for w, _ in group.decompose(u, v))]
    keys = [group.key_of(lab) for lab in labels]
    exponents = {e for key in keys for _, e in key}
    assert any(e < 0 for e in exponents) == (math.inf in factors)
    assert any(e > 1 for e in exponents) == (factors != [2, 2])
    assert [lab.id for lab in labels] == [oracles.spell_word_reference(key) for key in keys]


@pytest.mark.parametrize("order", [2, 3, 7, 8, 64])
def test_cyclic_enumeration_matches_reference_loop(order):
    want = oracles.enumerate_words_reference(word_group([order]), order + 3)
    assert len(want) == order
    group = word_group([order])
    for window in range(1, order + 4):
        assert group.enumerate(window) == want[:window], window


def test_order_oracle_against_bruteforce():
    cases = [
        ([2, 2], ["e", "a", "b", "ab", "aba", "bab", "abab"]),
        ([2, math.inf], ["e", "a", "b", "b^-1", "ab", "bab^-1", "b^2"]),
        ([3, 4], ["e", "a", "a^2", "b", "b^2", "ab", "a^2b^2"]),
    ]
    for factors, ids in cases:
        g = word_group(factors)
        orders = [None if m == math.inf else m for m in factors]
        for wid in ids:
            lab = g.parse_label(wid)
            expected = oracles.bf_order(_tuple_word(wid), orders, 64)
            got = g.order_oracle(lab)
            if expected is None:
                assert got == math.inf, (factors, wid, got)
            else:
                assert got == expected, (factors, wid, got, expected)


def _tuple_word(wid: str):
    if wid == "e":
        return ()
    import re

    out = []
    for letter, exp in re.findall(r"([a-z])(?:\^(-?\d+))?", wid):
        out.append((ord(letter) - ord("a"), int(exp) if exp else 1))
    return tuple(out)


def test_kill_finite_factors_membership():
    g = word_group([2, math.inf])
    in_n1 = ["a", "bab^-1", "b^-1ab", "abab^-1", "b^2ab^-2"]
    out_n1 = ["b", "ab", "b^-1", "ab^2"]
    for wid in in_n1:
        assert g.stage_one_exponent(g.parse_label(wid), 1) == 1, wid
    for wid in out_n1:
        assert g.stage_one_exponent(g.parse_label(wid), 1) is None, wid


def test_stage_one_matches_bruteforce_closure_ball():
    # acceptance-grade cross-check at word length 6
    for factors, orders, gens in (
        ([2, 2], [2, 2], [((0, 1),), ((1, 1),)]),
        ([2, math.inf], [2, None], [((0, 1),)]),
    ):
        g = word_group(factors)
        brute = oracles.bf_normal_closure_in_ball(orders, gens, 6)
        window = [l for l in g.enumerate(4096) if g.label_size(l) <= 6]
        assert len(window) >= len(brute)
        engine = {l.id for l in window if g.stage_one_exponent(l, 1) == 1}
        brute_ids = {_render(w) for w in brute}
        assert engine == brute_ids, (factors, sorted(engine ^ brute_ids))


def _render(word):
    out = []
    for f, e in word:
        letter = "abcdefghijklmnopqrstuvwxyz"[f]
        out.append(letter if e == 1 else f"{letter}^{e}")
    return "".join(out) or "e"


def test_axioms_hold():
    for factors in ([2, 2], [2, math.inf], [math.inf, math.inf], [3, 4]):
        g = word_group(factors)
        report = check_axioms(g, Budget(max_irreducibles=14), triple_samples=40, seed=2)
        assert report.ok, (factors, report.violations)


@given(st.data())
def test_product_with_inverse_is_unit(data):
    g = word_group([2, math.inf])
    window = g.enumerate(20)
    lab = data.draw(st.sampled_from(window))
    inv = g.conj(lab)
    ((res, mult),) = tuple(g.decompose(lab, inv))
    assert res == g.unit() and mult == 1


@given(st.data())
def test_order_oracle_matches_bruteforce_everywhere(data):
    g = word_group([2, 3])
    window = g.enumerate(40)
    lab = data.draw(st.sampled_from(window))
    expected = oracles.bf_order(_tuple_word(lab.id), [2, 3], 64)
    got = g.order_oracle(lab)
    if expected is None:
        assert got == math.inf, (lab.id, got)
    else:
        assert got == expected, (lab.id, got, expected)


# ``enumerate(200)`` of every word group and free product that the tests
# and the benchmark build, recorded while the two backends still had their
# own enumerators: (label count, first 16 hex digits of the sha256 of the
# ids joined by newlines).
ENUMERATION_PINS = {
    "word:Z": (200, "5bcf457e30e3e6df"),
    "word:Z2": (2, "7395a38d22016389"),
    "word:Z3": (3, "03790661be05c98b"),
    "word:Z4": (4, "f6f8f3ded9643a43"),
    "word:Z5": (5, "c9806a69353d8c40"),
    "word:Z10000": (200, "21aadd170afc0221"),
    "word:Z*Z": (200, "2605a83fc0c1abb2"),
    "word:Z2*Z": (200, "77230321dc2497e7"),
    "word:Z3*Z": (200, "48aeb2c308fda7d1"),
    "word:Z2*Z2": (200, "fd3c8bf538ba2330"),
    "word:Z2*Z3": (200, "8ad0274115acd31a"),
    "free(so3,word:Z2)": (200, "ae3edcf7ca2ff8da"),
    "free(word:Z2,word:Z3)": (200, "c889ac0244581651"),
    "free(word:Z2,free(word:Z2,word:Z3))": (200, "a5d22c1ee3fec5cb"),
    "free(suq2,au)": (200, "51e0bca96326052a"),
    "free(suq2,so3)": (200, "9e08739409a0e559"),
    "free(free(so3,word:Z2),au)": (200, "dd6eb45ab2fe7bdb"),
}


@pytest.mark.parametrize("spec", list(ENUMERATION_PINS))
def test_enumeration_is_pinned_at_every_count(spec):
    provider = parse_provider(spec)
    ids = [lab.id for lab in provider.enumerate(200)]
    digest = hashlib.sha256("\n".join(ids).encode()).hexdigest()[:16]
    assert (len(ids), digest) == ENUMERATION_PINS[spec]
    for count in range(201):
        assert [lab.id for lab in provider.enumerate(count)] == ids[:count], count


def _pairs_tested(provider, count: int) -> int:
    """How often ``alternating_words`` tests a (stem, letter) pair, its
    inner-loop step, while ``provider`` lists ``count`` labels."""
    lines, first = inspect.getsourcelines(alternating_words)
    target = first + next(i for i, line in enumerate(lines) if "if not stem or" in line)
    steps = 0

    def count_line(frame, event, arg):
        nonlocal steps
        steps += event == "line" and frame.f_lineno == target
        return count_line

    def enter(frame, event, arg):
        return count_line if frame.f_code is alternating_words.__code__ else None

    previous = sys.gettrace()
    sys.settrace(enter)
    try:
        assert len(provider.enumerate(count)) == count
    finally:
        sys.settrace(previous)
    return steps


@pytest.mark.parametrize("spec", ["word:Z", "word:Z10000"])
def test_one_factor_enumeration_tests_one_pair_per_label(spec):
    # Only the empty word takes a letter of the one factor, so every pair
    # tested is a label listed: linear, where scanning every lighter layer
    # for stems would test about count**2 / 4 pairs.
    for count in (500, 2000):
        assert _pairs_tested(parse_provider(spec), count) <= count
    # With two factors every word is a stem, and the count sees those scans.
    assert _pairs_tested(parse_provider("word:Z*Z"), 500) > 500

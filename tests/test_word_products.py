"""Word-group and au products cut at the junction, against the letter loops.

The library finds a product's cancellation by comparing slices (word
groups) and an au chain by slicing each word once, with the dims of new
words from the dimension identity.  These tests compare every product,
ids, dims and constituent order, with the letter-by-letter references in
``oracles``, and bound the Python calls a long product makes.
"""

import math
import sys
from collections import Counter
from pathlib import Path

from hypothesis import given, strategies as st

import fusionring
from fusionring import au_ring, word_group

import oracles

INF = math.inf

# Word groups with wrapping finite factors (Z3, Z5) and infinite ones.
WORD_SPECS = [(2, INF), (3, 5), (INF, INF), (3, 5, INF)]


def _orders(spec):
    return [None if m == INF else m for m in spec]


@st.composite
def reduced_words(draw, spec, max_len=40, big=False):
    """A reduced word of ``spec``: letters drawn, then freely reduced."""
    letters = []
    for _ in range(draw(st.integers(0, max_len))):
        k = draw(st.integers(0, len(spec) - 1))
        m = spec[k]
        if m == INF:
            e = draw(st.sampled_from([1, -1, 2, -2, 10**6, -(10**6), 10**6 + 1]) if big else st.sampled_from([1, -1, 2]))
        else:
            e = draw(st.integers(1, m - 1))
        letters.append((k, e))
    return oracles._reduce(tuple(letters), _orders(spec))


@st.composite
def word_pairs(draw):
    """``(spec, w1, w2)`` where ``w2`` starts with the inverse of a suffix
    of ``w1`` (long, and sometimes total, cancellation) and then goes on
    with a tail whose first letter may merge, and wrap, at the junction."""
    spec = draw(st.sampled_from(WORD_SPECS))
    orders = _orders(spec)
    w1 = draw(reduced_words(spec, big=True))
    cut = draw(st.integers(0, len(w1)))
    tail = draw(reduced_words(spec, max_len=6, big=True))
    w2 = oracles.bf_mul(oracles.bf_inv(w1[cut:], orders), tail, orders)
    if draw(st.booleans()):
        w2 = oracles.bf_inv(w1, orders)  # w (x) wbar
    return spec, w1, w2


def _word_label(ring, word):
    return ring.parse_label(oracles.spell_word_reference(word))


@given(word_pairs())
def test_word_products_match_the_letter_loop_and_brute_force(case):
    spec, w1, w2 = case
    ring, reference = word_group(spec), word_group(spec)
    u, v = _word_label(ring, w1), _word_label(ring, w2)
    got = ring.decompose(u, v)
    want = oracles.word_group_decompose_reference(reference, _word_label(reference, w1), _word_label(reference, w2))
    assert got.entries == want.entries
    (label, _), = got.entries
    assert ring.key_of(label) == oracles.bf_mul(w1, w2, _orders(spec))
    # the conjugate, from the kept inverse word, is the brute-force inverse
    assert ring.key_of(ring.conj(u)) == oracles.bf_inv(w1, _orders(spec))


@given(st.data())
def test_word_group_order_oracle_matches_powering(data):
    spec = data.draw(st.sampled_from([(2, 3), (3, 5, INF), (4, 6), (2, 2, 2)]))
    orders = _orders(spec)
    core = data.draw(reduced_words(spec, max_len=4))
    outer = data.draw(reduced_words(spec, max_len=8))
    word = oracles.bf_mul(oracles.bf_mul(outer, core, orders), oracles.bf_inv(outer, orders), orders)
    ring = word_group(spec)
    want = oracles.bf_order(word, orders)
    assert ring.order_oracle(_word_label(ring, word)) == (INF if want is None else want)


@given(st.data())
def test_word_group_stage_one_exponent_matches_powering(data):
    spec = data.draw(st.sampled_from([(2, INF), (3, INF, INF), (INF, INF)]))
    word = data.draw(reduced_words(spec, max_len=8))
    ring = word_group(spec)
    u = _word_label(ring, word)
    assert ring.stage_one_exponent(u, 12) == oracles.power_stage_one_exponent(ring, u, 12)


def _au_word(runs):
    return "".join(ch * n for ch, n in runs)


@st.composite
def au_pairs(draw):
    """``(d, w1, w2)`` with up to 64 alternations in each word; ``w2``
    often opens with the conjugate of a suffix of ``w1``, so the chain
    runs long, and sometimes is ``w1``'s whole conjugate."""
    d = draw(st.sampled_from([2, 3, 5]))

    def word(max_runs):
        first = draw(st.sampled_from("uU"))
        n = draw(st.integers(0, max_runs))
        lengths = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
        other = {"u": "U", "U": "u"}
        runs, ch = [], first
        for length in lengths:
            runs.append((ch, length))
            ch = other[ch]
        return _au_word(runs)

    w1 = word(64)
    cut = draw(st.integers(0, len(w1)))
    w2 = w1[cut:][::-1].swapcase() + word(8)
    if draw(st.booleans()):
        w2 = word(64)
    return d, w1, w2


@given(au_pairs())
def test_au_products_match_the_letter_loop(case):
    d, w1, w2 = case
    ring, reference = au_ring(d), au_ring(d)
    u, v = ring.parse_label(w1 or "e"), ring.parse_label(w2 or "e")
    got = ring.decompose(u, v)
    want = oracles.au_decompose_reference(reference, reference.parse_label(w1 or "e"), reference.parse_label(w2 or "e"))
    # ids, dims and canonical order, new words and known ones alike
    assert got.entries == want.entries
    assert ring.decompose(v, u).total_dim() == u.dim * v.dim
    for label, _ in got.entries:
        assert label.dim == oracles.au_dim_reference(ring.key_of(label), d)


def test_au_products_of_known_words_keep_their_labels():
    ring = au_ring(3)
    u, v = ring.parse_label("uUUuU" * 6), ring.parse_label("uUuuU" * 6)
    first = ring.decompose(u, v)
    ring._decompose_cache.clear()
    again = ring.decompose(u, v)
    assert again.entries == first.entries
    assert all(a is b for (a, _), (b, _) in zip(again.entries, first.entries))


# -- work bounds ------------------------------------------------------------


def _python_calls(fn) -> Counter:
    """Calls of Python functions of the package made by ``fn()``, by name."""
    calls = Counter()
    package = str(Path(fusionring.__file__).parent)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(package):
            calls[frame.f_code.co_name] += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def _word_times_inverse_calls(length: int) -> Counter:
    ring = word_group([2, INF])
    exps = [1, -1, 2]
    word = tuple((k % 2, 1 if k % 2 == 0 else exps[k // 2 % 3]) for k in range(length))
    u = _word_label(ring, word)
    v = ring.conj(u)
    calls = _python_calls(lambda: ring.decompose(u, v))
    assert ring.decompose(u, v).constituents() == [ring.unit()]
    return calls


def test_word_product_makes_no_python_call_per_letter():
    # w (x) wbar of 4,096 letters cancels completely at the junction.
    short, long = _word_times_inverse_calls(64), _word_times_inverse_calls(4096)
    assert long == short
    assert sum(long.values()) <= 20
    assert "_norm_exp" not in long and "_reduce" not in long


def _au_calls(length: int) -> tuple[Counter, Counter]:
    ring = au_ring()
    u = ring.parse_label("uU" * (length // 2))
    first = _python_calls(lambda: ring.decompose(u, u))  # a chain of length + 1 words
    assert len(ring.decompose(u, u)) == length + 1
    ring._decompose_cache.clear()
    known = _python_calls(lambda: ring.decompose(u, u))  # every chain word known
    return first, known


def test_au_product_makes_no_python_call_per_letter():
    # Two 2,000-letter alternating words, so the chain has 2,001 words.
    short_first, short_known = _au_calls(200)
    long_first, long_known = _au_calls(2000)
    assert long_known == short_known
    assert sum(long_known.values()) <= 20
    # A new word costs its label and nothing per letter: no spelling and
    # no dimension recursion per word.
    per_word = {"_store", "__new__"}
    assert long_first["_store"] <= 2001
    assert {k: n for k, n in long_first.items() if k not in per_word} == {
        k: n for k, n in short_first.items() if k not in per_word
    }
    assert "_spell" not in long_first and "_label" not in long_first

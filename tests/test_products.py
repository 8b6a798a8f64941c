import json
import math

import pytest
from hypothesis import given, strategies as st

from fusionring import (
    Budget,
    UnknownLabel,
    UnsupportedProvider,
    character_ring,
    check_axioms,
    direct_product,
    dump_ring_json,
    finite_group_ring,
    free_product,
    load_ring_json,
    so3_ring,
    suq2_ring,
    word_group,
)
from fusionring.cli import parse_provider
from fusionring.components import identity_component_report
from fusionring.torsion import ascending_chain_probe, generated_subring, torsion_subcategory
from fusionring.rings.tables import S3_CHARACTER_TABLE

import oracles


def _fp():
    return free_product(so3_ring(), word_group([2]))


def test_enumerate_interleaves_factors():
    fp = _fp()
    ids = [l.id for l in fp.enumerate(6)]
    assert ids[0] == "e"
    assert ids[1] == "v1"
    assert ids[2] == "a"
    assert ids[3:6] == ["v2", "v3", "v4"]


def test_unit_and_conj():
    fp = _fp()
    assert fp.unit().id == "e"
    lab = fp.parse_label("v1.a.v2")
    assert lab.dim == 3 * 1 * 5
    assert fp.conj(lab).id == "v2.a.v1"


def test_different_factor_junction_concatenates():
    fp = _fp()
    v1 = fp.parse_label("v1")
    a = fp.parse_label("a")
    assert {l.id: m for l, m in fp.decompose(v1, a)} == {"v1.a": 1}
    assert {l.id: m for l, m in fp.decompose(a, v1)} == {"a.v1": 1}


def test_same_factor_junction_merges_via_factor_ring():
    fp = _fp()
    v1 = fp.parse_label("v1")
    got = {l.id: m for l, m in fp.decompose(v1, v1)}
    assert got == {"e": 1, "v1": 1, "v2": 1}
    av1 = fp.parse_label("a.v1")
    v1a = fp.parse_label("v1.a")
    got = {l.id: m for l, m in fp.decompose(av1, v1a)}
    # middle v1 (x) v1 = v0 + v1 + v2; the v0 part collapses a.a to e
    assert got == {"e": 1, "a.v1.a": 1, "a.v2.a": 1}


def test_unit_coefficient_recurses_on_shortened_words():
    fp = _fp()
    v1a_v1 = fp.parse_label("v1.a.v1")
    bar = fp.conj(v1a_v1)
    dec = {l.id: m for l, m in fp.decompose(bar, v1a_v1)}
    assert dec["e"] == 1
    assert all(m >= 0 for m in dec.values())


def test_conjugating_factor_label_by_other_factor():
    fp = _fp()
    a = fp.parse_label("a")
    v1 = fp.parse_label("v1")
    prod = fp.multiply_virtual(fp.multiply_virtual({v1: 1}, {a: 1}), {v1: 1})
    ids = {l.id for l in prod}
    assert "v1.a.v1" in ids


def test_factor_restriction_counts_foreign_as_scalar():
    fp = _fp()
    wit = fp.parse_label("v1.a.v1")
    res = fp.factor_restriction(wit, 0)
    so3 = so3_ring()
    got = {l.id: c for l, c in res}
    # v1 (x) v1 with the middle letter contributing dim 1
    assert got == {"v0": 1, "v1": 1, "v2": 1}
    res1 = fp.factor_restriction(wit, 1)
    # restriction to the word factor: v-letters become scalars 3 * 3 = 9
    total = sum(c for _, c in res1)
    assert total == 9


def test_axioms_free_product():
    report = check_axioms(_fp(), Budget(max_irreducibles=12), triple_samples=40, seed=6)
    assert report.ok, report.violations


def test_axioms_free_product_of_word_groups():
    fp = free_product(word_group([2]), word_group([3]))
    report = check_axioms(fp, Budget(max_irreducibles=12), triple_samples=40, seed=6)
    assert report.ok, report.violations
    # both factors call their letter "a", so ids carry factor prefixes
    ids = [l.id for l in fp.enumerate(8)]
    assert ids[0] == "e"
    assert set(ids[1:3]) == {"0:a", "1:a"}
    assert fp.parse_label("0:a.1:a").dim == 1


@given(st.data())
def test_factor_restriction_multiplicative(data):
    fp = _fp()
    window = fp.enumerate(8)
    a = data.draw(st.sampled_from(window))
    b = data.draw(st.sampled_from(window))
    k = data.draw(st.sampled_from((0, 1)))
    lhs = fp.factor_restriction(a, k)
    rhs = fp.factor_restriction(b, k)
    factor = fp.factors[k]
    prod_of_res = factor.multiply_virtual(dict(lhs), dict(rhs))
    res_of_prod_coeffs = {}
    for lab, mult in fp.decompose(a, b):
        for flab, c in fp.factor_restriction(lab, k):
            res_of_prod_coeffs[flab] = res_of_prod_coeffs.get(flab, 0) + mult * c
    assert prod_of_res == {l: c for l, c in res_of_prod_coeffs.items() if c}


def test_direct_product_componentwise():
    dp = direct_product(suq2_ring(), word_group([2]))
    lab = dp.parse_label("(u1,a)")
    assert lab.dim == 2
    got = {l.id: m for l, m in dp.decompose(lab, lab)}
    assert got == {"(u0,e)": 1, "(u2,e)": 1}
    assert dp.conj(lab).id == "(u1,a)"


def test_direct_product_enumerate_and_order():
    dp = direct_product(word_group([2]), word_group([3]))
    assert dp.num_irreducibles == 6
    ids = [l.id for l in dp.enumerate(6)]
    assert ids[0] == "(e,e)"
    assert len(ids) == 6
    assert dp.order_oracle(dp.parse_label("(a,a)")) == 6
    assert dp.order_oracle(dp.parse_label("(a,e)")) == 2
    inf_dp = direct_product(word_group([2]), word_group([math.inf]))
    assert inf_dp.order_oracle(inf_dp.parse_label("(a,a)")) == math.inf


def test_direct_product_axioms():
    dp = direct_product(suq2_ring(), word_group([2]))
    report = check_axioms(dp, Budget(max_irreducibles=12), triple_samples=40, seed=8)
    assert report.ok, report.violations


def test_parse_rejects_garbage():
    fp = _fp()
    with pytest.raises(UnknownLabel):
        fp.parse_label("v1..a")
    with pytest.raises(UnknownLabel):
        fp.parse_label("w9")
    dp = direct_product(suq2_ring(), word_group([2]))
    with pytest.raises(UnknownLabel):
        dp.parse_label("(u1)")


def test_parse_refuses_ids_that_spell_another_word():
    # The inner product spells its one-letter words 0:a, 1:a and a^2, so the
    # outer one-letter word of the inner label 0:a.a^2 is spelled [0:a.a^2];
    # unbracketed, 0:a.a^2 would read back as the two-letter word a.a^2.
    nested = free_product(word_group([2]), free_product(word_group([2]), word_group([3])))
    one_letter = next(lab for lab in nested.enumerate(40) if lab.id == "[0:a.a^2]")
    two_letters = nested.parse_label("a.a^2")
    assert [len(nested.key_of(lab)) for lab in (one_letter, two_letters)] == [1, 2]
    assert nested.parse_label("[0:a.a^2]") == one_letter
    for text in ("0:a.a^2", "1:a", "[a]", "1:[0:a.a^2]"):
        with pytest.raises(UnknownLabel):
            nested.parse_label(text)
    # A prefix on a letter only one factor knows names the same word under
    # another id, so it is refused too.
    fp = _fp()
    assert fp.parse_label("v1").id == "v1"
    with pytest.raises(UnknownLabel):
        fp.parse_label("0:v1")


@pytest.mark.parametrize(
    "text, message",
    [
        ("v0", "unit letter 'v0' cannot appear"),
        ("v1.e", "unit letter 'e' cannot appear"),
        ("v1.v2", "word 'v1.v2' does not alternate factors"),
        ("a.v1.a.a", "word 'a.v1.a.a' does not alternate factors"),
    ],
)
def test_parse_refuses_unit_letters_and_words_that_do_not_alternate(text, message):
    with pytest.raises(UnknownLabel, match=f"^free\\(so3,word:Z2\\): {message}$"):
        _fp().parse_label(text)


def test_a_free_product_with_a_one_label_factor_is_the_other_factor(tmp_path):
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps({
        "unit": "e",
        "irreducibles": [{"id": "e", "dim": 1, "conj": "e"}],
        "fusion": [{"left": "e", "right": "e", "result": {"e": 1}}],
    }))
    for spec in (f"free(json:[{path}],word:Z2)", f"free(word:Z2,json:[{path}])"):
        ring = parse_provider(spec)
        assert ring.num_irreducibles == 2
        assert [lab.id for lab in ring.enumerate(10)] == ["e", "a"]
    assert parse_provider(f"free(json:[{path}],word:Z2*Z)").num_irreducibles == math.inf


def test_order_oracle_unsupported_on_free_products():
    fp = _fp()
    with pytest.raises(UnsupportedProvider):
        fp.order_oracle(fp.parse_label("a"))


def test_direct_product_of_group_rings_matches_the_product_table():
    left_table, right_table = oracles.abelian_group_table([3]), oracles.s3_group_table()
    dp = direct_product(finite_group_ring(left_table, "Z3"), finite_group_ring(right_table, "S3"))
    pairs = {(g, h) for g, _ in left_table for h, _ in right_table}
    product = finite_group_ring(
        {
            (f"({g1},{h1})", f"({g2},{h2})"): f"({left_table[(g1, g2)]},{right_table[(h1, h2)]})"
            for g1, h1 in pairs
            for g2, h2 in pairs
        },
        "Z3xS3",
    )
    n = product.num_irreducibles
    assert dp.num_irreducibles == n == 18
    window = dp.enumerate(n)
    assert sorted(u.id for u in window) == sorted(u.id for u in product.enumerate(n))
    assert dp.unit().id == product.unit().id
    same = {u: product.parse_label(u.id) for u in window}
    for u in window:
        assert (u.dim, dp.conj(u).id) == (same[u].dim, product.conj(same[u]).id)
        assert dp.order_oracle(u) == product.order_oracle(same[u])
        for v in window:
            got = [(w.id, m) for w, m in dp.decompose(u, v)]
            assert got == [(w.id, m) for w, m in product.decompose(same[u], same[v])], (u.id, v.id)


def test_free_product_of_cyclic_groups_matches_the_word_group():
    fp = free_product(word_group([2]), word_group([3]))
    wg = word_group([2, 3])

    def spell(u):
        # Letters map 0:a -> a and factor 1's a^k -> b^k.
        return "".join(lab.id if k == 0 else "b" + lab.id[1:] for k, lab in fp.key_of(u)) or "e"

    window = fp.enumerate(64)
    assert [spell(u) for u in window] == [w.id for w in wg.enumerate(64)]
    same = {u: wg.parse_label(spell(u)) for u in window}
    for u in window:
        assert (u.dim, spell(fp.conj(u))) == (same[u].dim, wg.conj(same[u]).id)
        for v in window:
            got = [(spell(w), m) for w, m in fp.decompose(u, v)]
            assert got == [(w.id, m) for w, m in wg.decompose(same[u], same[v])], (u.id, v.id)


@pytest.mark.parametrize("spec", ["free(so3,word:Z2)", "free(suq2,au)", "free(word:Z2,free(word:Z2,word:Z3))"])
def test_free_product_matches_the_word_by_word_reference(spec):
    # Every window label against every label its window products reach,
    # multi-letter words and nested letters included, in both orders.
    fp = parse_provider(spec)
    window = fp.enumerate(40)
    reached = dict.fromkeys(window)
    for u in window:
        for v in window:
            reached.update(dict.fromkeys(fp.decompose(u, v).constituents()))
    assert sum(len(fp.key_of(w)) > 1 for w in reached) > 70
    for u in window:
        for w in reached:
            for a, b in ((u, w), (w, u)):
                assert fp.decompose(a, b) == oracles.free_product_decompose_reference(fp, a, b), (a.id, b.id)


def test_letter_map_belongs_to_the_instance():
    first, second = _fp(), _fp()
    v1 = first.parse_label("v1")
    assert [w.id for w, _ in first.decompose(v1, v1)] == ["e", "v1", "v2"]
    assert [w.id for w in first._one_letter[0]] == ["v1", "v2"]
    assert second._one_letter == ({}, {})


def _one_letter_rings(tmp_path):
    """Free products whose one-letter merges are the hard cases: the factor
    unit among the constituents (every ring here), ids with a ``0:``/``1:``
    prefix or in brackets, and a multiplicity above 1 (Rep(A4)'s t (x) t)."""
    s3 = tmp_path / "S3.json"
    dump_ring_json(character_ring(S3_CHARACTER_TABLE), s3)
    a4 = oracles.a4_representation_ring()
    return {
        "free(so3,word:Z2)": parse_provider("free(so3,word:Z2)"),
        "free(word:Z2,word:Z3)": parse_provider("free(word:Z2,word:Z3)"),
        "free(word:Z3,free(word:Z2,word:Z3))": parse_provider("free(word:Z3,free(word:Z2,word:Z3))"),
        "free(free(word:Z2,word:Z3),suq2)": parse_provider("free(free(word:Z2,word:Z3),suq2)"),
        "free(so3,json:S3)": parse_provider(f"free(so3,json:{s3})"),
        "free(Rep(A4),word:Z2)": free_product(load_ring_json(a4), word_group([2])),
        "free(Rep(A4),Rep(A4))": free_product(load_ring_json(a4), load_ring_json(a4)),
    }


def test_one_letter_merges_match_the_word_by_word_reference(tmp_path):
    # Every pair of window words: two one-letter words of one factor merge
    # at once, and a word against its conjugate cancels down to such a merge.
    seen = set()
    for name, fp in _one_letter_rings(tmp_path).items():
        window = fp.enumerate(40)
        pairs = [(u, v) for u in window for v in window]
        pairs += [(u, fp.conj(u)) for u in window] + [(fp.conj(u), u) for u in window]
        for a, b in pairs:
            got = fp.decompose(a, b)
            assert got.entries == oracles.free_product_decompose_reference(fp, a, b).entries, (name, a.id, b.id)
            one_letter = all(len(fp.key_of(x)) == 1 for x in (a, b)) and fp.key_of(a)[0][0] == fp.key_of(b)[0][0]
            if one_letter:
                seen.add("merge")
                if fp.unit() in got:
                    seen.add("unit")
                if max(m for _, m in got) > 1:
                    seen.add("multiplicity")
            if ":" in a.id:
                seen.add("prefix")
            if "[" in a.id:
                seen.add("brackets")
        assert all(len(fp.key_of(lab)) == 1 for k in (0, 1) for lab in fp._one_letter[k].values()), name
        assert not any(fp.factors[k].unit() in fp._one_letter[k] for k in (0, 1)), name
    assert seen == {"merge", "unit", "multiplicity", "prefix", "brackets"}


def test_one_letter_merges_share_the_factor_product_when_every_constituent_is_a_factor_label(tmp_path):
    # The free product's product of two one-letter words of one factor is
    # the factor's cached decomposition object exactly when every
    # constituent is a letter spelled as its factor label (and so is that
    # label); otherwise it is a new object, equal to the reference.
    seen = set()
    for name, fp in _one_letter_rings(tmp_path).items():
        window = fp.enumerate(40)
        for a in window:
            for b in window:
                wa, wb = fp.key_of(a), fp.key_of(b)
                if not (len(wa) == len(wb) == 1 and wa[0][0] == wb[0][0]):
                    continue
                k = wa[0][0]
                factor = fp.factors[k]
                own = factor.decompose(wa[0][1], wb[0][1])
                got = fp.decompose(a, b)
                letters = [c != factor.unit() and fp._label(((k, c),)).id == c.id for c in own.constituents()]
                if all(letters):
                    seen.add("shared")
                    assert got is own, (name, a.id, b.id)
                    assert all(fp._label(((k, c),)) is c for c in own.constituents()), (name, a.id, b.id)
                    continue
                assert got is not own, (name, a.id, b.id)
                assert got.entries == oracles.free_product_decompose_reference(fp, a, b).entries, (name, a.id, b.id)
                if factor.unit() in own:
                    seen.add("unit")
                if max(m for _, m in own) > 1:
                    seen.add("multiplicity")
                if any(":" in w.id for w in got.constituents()):
                    seen.add("prefix")
                if any("[" in w.id for w in got.constituents()):
                    seen.add("brackets")
                if not any(letters) and factor.unit() not in own:
                    seen.add("no letter shared")
    assert seen == {"shared", "unit", "multiplicity", "prefix", "brackets", "no letter shared"}


def test_a_letter_spelled_as_its_factor_label_is_that_label():
    fp = _fp()
    assert fp.parse_label("v7") is fp.factors[0].parse_label("v7")
    assert fp.parse_label("a") is fp.factors[1].parse_label("a")
    assert fp.parse_label("v1.a") is not fp.factors[0].parse_label("v1")
    cyclic = free_product(word_group([2]), word_group([3]))
    for k in (0, 1):
        prefixed = cyclic.parse_label(f"{k}:a")
        assert prefixed != cyclic.factors[k].parse_label("a")
        assert cyclic.key_of(prefixed) == ((k, cyclic.factors[k].parse_label("a")),)
    assert cyclic.parse_label("a^2") is cyclic.factors[1].parse_label("a^2")
    nested = free_product(word_group([3]), cyclic)
    bracketed = nested.parse_label("[0:a]")
    assert bracketed != cyclic.parse_label("0:a")
    assert nested.key_of(bracketed) == ((1, cyclic.parse_label("0:a")),)


@pytest.mark.parametrize("spec, gens, factor_specs", [
    ("free(so3,word:Z2)", ["v1", "a"], ["so3", "word:Z2"]),
    ("free(suq2,au)", ["u1", "uU"], ["suq2", "au"]),
])
def test_no_analysis_writes_into_a_shared_product(spec, gens, factor_specs):
    # Every analysis run on the free product leaves each factor's cached
    # products as a fresh factor instance forms them, entries and order.
    fp = parse_provider(spec)
    lifted = Budget(max_irreducibles=64, max_label_size=10**6, max_rounds=10**6)
    assert check_axioms(fp, Budget(max_irreducibles=40)).ok
    generated_subring(fp, [fp.parse_label(g) for g in gens], lifted)
    torsion_subcategory(fp, Budget(max_irreducibles=16))
    identity_component_report(fp, Budget(max_irreducibles=16))
    ascending_chain_probe(fp, 3)
    own = {id(dec) for dec in fp._decompose_cache.values()}
    assert sum(id(dec) in own for factor in fp.factors for dec in factor._decompose_cache.values()) > 100
    for factor, factor_spec in zip(fp.factors, factor_specs):
        fresh = parse_provider(factor_spec)
        for (u, v), dec in factor._decompose_cache.items():
            want = fresh.decompose(fresh.parse_label(u.id), fresh.parse_label(v.id))
            assert dec.entries == want.entries, (factor_spec, u.id, v.id)


@pytest.mark.parametrize("spec", ["prod(suq2,word:Z2)", "prod(so3,Rep(A4))", "prod(au,json:S3)",
                                  "prod(prod(suq2,word:Z2),free(so3,word:Z2))"])
def test_direct_product_matches_the_nested_loop_reference(spec, tmp_path):
    s3 = tmp_path / "S3.json"
    dump_ring_json(character_ring(S3_CHARACTER_TABLE), s3)
    if spec == "prod(so3,Rep(A4))":
        ring = direct_product(so3_ring(), load_ring_json(oracles.a4_representation_ring()))
    else:
        ring = parse_provider(spec.replace("json:S3", f"json:{s3}"))
    window = ring.enumerate(30)
    for a in window:
        for b in window:
            got = ring.decompose(a, b)
            assert got.entries == oracles.direct_product_decompose_reference(ring, a, b).entries, (a.id, b.id)

import math

import pytest
from hypothesis import given, strategies as st

from fusionring import (
    Budget,
    UnknownLabel,
    UnsupportedProvider,
    check_axioms,
    direct_product,
    finite_group_ring,
    free_product,
    so3_ring,
    suq2_ring,
    word_group,
)

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

import pytest
from hypothesis import given, strategies as st

from fusionring import BadParameter, Budget, au_ring, check_axioms


def test_generator_dim_and_conj():
    ring = au_ring()
    u = ring.parse_label("u")
    assert u.dim == 2
    assert ring.conj(u).id == "U"
    assert ring.conj(ring.parse_label("uUu")).id == "UuU"
    assert ring.conj(ring.unit()) == ring.unit()


def test_frozen_hand_products():
    ring = au_ring()
    u = ring.parse_label("u")
    U = ring.parse_label("U")
    assert {l.id: m for l, m in ring.decompose(u, U)} == {"e": 1, "uU": 1}
    assert {l.id: m for l, m in ring.decompose(U, u)} == {"e": 1, "Uu": 1}
    assert {l.id: m for l, m in ring.decompose(u, u)} == {"uu": 1}
    uU = ring.parse_label("uU")
    assert {l.id: m for l, m in ring.decompose(uU, u)} == {"u": 1, "uUu": 1}
    Uu = ring.parse_label("Uu")
    assert {l.id: m for l, m in ring.decompose(u, Uu)} == {"u": 1, "uUu": 1}


def test_dim_recursion_values():
    ring = au_ring()
    expected = {"e": 1, "u": 2, "U": 2, "uu": 4, "uU": 3, "Uu": 3, "UU": 4, "uUu": 4, "uuu": 8}
    for wid, dim in expected.items():
        assert ring.parse_label(wid).dim == dim, wid


def test_dimension_identity_window():
    ring = au_ring()
    window = ring.enumerate(15)
    for a in window:
        for b in window:
            assert ring.decompose(a, b).total_dim() == a.dim * b.dim


def test_enumerate_order():
    ring = au_ring()
    ids = [l.id for l in ring.enumerate(7)]
    assert ids == ["e", "u", "U", "uu", "uU", "Uu", "UU"]


def test_label_size_counts_blocks():
    ring = au_ring()
    assert ring.label_size(ring.parse_label("uuuu")) == 1
    assert ring.label_size(ring.parse_label("uuUU")) == 2
    assert ring.label_size(ring.parse_label("uUuU")) == 4
    assert ring.label_size(ring.unit()) == 1


def test_balanced_generator_family():
    ring = au_ring()
    fam = ring.chain_generators(3)
    assert [l.id for l in fam] == ["Uu", "UUuu", "UUUuuu"]
    assert ring.chain_size_cap(3) == 6
    d4 = au_ring(4)
    assert d4.parse_label("u").dim == 4
    with pytest.raises(BadParameter):
        au_ring(1)


def test_axioms_window():
    report = check_axioms(au_ring(), Budget(max_irreducibles=14), triple_samples=50, seed=4)
    assert report.ok, report.violations


@given(st.data())
def test_balanced_words_closed_under_products(data):
    ring = au_ring()
    balanced = [l for l in ring.enumerate(40) if l.id == "e" or l.id.count("u") == l.id.count("U")]
    a = data.draw(st.sampled_from(balanced))
    b = data.draw(st.sampled_from(balanced))
    for lab, _m in ring.decompose(a, b):
        assert lab.id == "e" or lab.id.count("u") == lab.id.count("U"), (a.id, b.id, lab.id)


@given(st.data())
def test_conj_reverses_products(data):
    ring = au_ring()
    window = ring.enumerate(12)
    a = data.draw(st.sampled_from(window))
    b = data.draw(st.sampled_from(window))
    lhs = {(l.id, m) for l, m in ring.decompose(a, b)}
    rhs = {(ring.conj(l).id, m) for l, m in ring.decompose(ring.conj(b), ring.conj(a))}
    assert lhs == rhs

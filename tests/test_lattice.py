import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fusionring import IntegerLattice, canonical_sort, finite_group_ring
from oracles import abelian_group_table, hermite_normal_form


def test_membership_hand_cases():
    lat = IntegerLattice(2)
    lat.add([2, 0])
    lat.add([0, 2])
    assert lat.contains([2, 2])
    assert lat.contains([-4, 6])
    assert not lat.contains([1, 1])
    assert not lat.contains([2, 1])
    assert lat.rank == 2


def test_gcd_combination():
    lat = IntegerLattice(1)
    lat.add([6])
    lat.add([10])
    assert lat.contains([2])
    assert not lat.contains([1])
    assert lat.basis() == [[2]]


def test_adding_contained_vector_reports_no_change():
    lat = IntegerLattice(2)
    assert lat.add([1, 3])
    assert not lat.add([2, 6])
    assert not lat.add([0, 0])
    assert lat.rank == 1


def test_zero_lattice():
    lat = IntegerLattice(3)
    assert not lat.contains([1, 0, 0])
    assert lat.contains([0, 0, 0])
    assert lat.rank == 0 and lat.basis() == []


def test_non_principal_mixture():
    lat = IntegerLattice(2)
    lat.add([2, 1])
    lat.add([0, 3])
    # dets: lattice index 6; [2,1]+[0,3]=[2,4] inside, [1,2] outside
    assert lat.contains([2, 4])
    assert not lat.contains([1, 2])
    assert lat.contains([4, 2])
    assert lat.contains([2, -2])


def test_entries_that_are_not_integers_are_refused_not_truncated():
    lat = IntegerLattice(2)
    for vec in ([0.5, 0], [1.5, 0], ["3", 0], [Fraction(3), 0], [2.0, 0]):
        with pytest.raises(TypeError):
            lat.contains(vec)
        with pytest.raises(TypeError):
            lat.add(vec)
    assert lat.rank == 0
    # numpy integers are integers, read as Python ints
    assert lat.add([np.int64(2), np.int8(0)])
    assert lat.contains([4, 0]) and not lat.contains([np.int32(1), 0])
    assert lat.basis() == [[2, 0]] and all(type(x) is int for x in lat.basis()[0])


@given(st.data())
def test_integer_combinations_are_members(data):
    n = data.draw(st.integers(1, 4))
    rows = data.draw(
        st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=1, max_size=5)
    )
    lat = IntegerLattice(n)
    for row in rows:
        lat.add(row)
    coeffs = data.draw(st.lists(st.integers(-4, 4), min_size=len(rows), max_size=len(rows)))
    combo = [sum(c * row[i] for c, row in zip(coeffs, rows)) for i in range(n)]
    assert lat.contains(combo)


@given(st.data())
def test_basis_spans_the_same_lattice(data):
    n = data.draw(st.integers(1, 3))
    rows = data.draw(
        st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=1, max_size=4)
    )
    lat = IntegerLattice(n)
    for row in rows:
        lat.add(row)
    rebuilt = IntegerLattice(n)
    for row in lat.basis():
        rebuilt.add(row)
    rng = random.Random(0)
    for _ in range(10):
        combo = [0] * n
        for row in rows:
            c = rng.randint(-3, 3)
            combo = [x + c * y for x, y in zip(combo, row)]
        assert rebuilt.contains(combo)
    for row in rows:
        assert rebuilt.contains(row)


def test_basis_is_the_hermite_normal_form():
    # Reducing above the pivots in descending order left [1, 0, -1] here.
    lat = IntegerLattice(3)
    for row in ([1, -1, 0], [-1, -1, 0], [0, -1, -1]):
        lat.add(row)
    assert lat.basis() == [[1, 0, 1], [0, 1, 1], [0, 0, 2]]


@given(st.data())
def test_basis_matches_the_hermite_normal_form_oracle(data):
    n = data.draw(st.integers(1, 7))
    rows = data.draw(
        st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=1, max_size=8)
    )
    lat = IntegerLattice(n)
    for i, row in enumerate(rows):
        lat.add(row)
        assert lat.basis() == hermite_normal_form(rows[: i + 1], n)


# Rows of the size and sparsity dimension-ideal recovery feeds the lattice:
# up to 24 columns, one to three nonzero entries each.
def _sparse_rows(n, max_rows):
    entry = st.tuples(st.integers(0, n - 1), st.integers(-9, 9).filter(bool))
    row = st.lists(entry, min_size=1, max_size=3, unique_by=lambda e: e[0])
    return st.lists(row, min_size=1, max_size=max_rows).map(
        lambda rows: [[dict(r).get(c, 0) for c in range(n)] for r in rows]
    )


@given(st.data())
def test_sparse_rows_keep_the_hermite_normal_form_after_every_add(data):
    n = data.draw(st.integers(1, 24))
    rows = data.draw(_sparse_rows(n, 16))
    lat = IntegerLattice(n)
    before = []
    for i, row in enumerate(rows):
        grew = lat.add(row)
        after = lat.basis()
        assert after == hermite_normal_form(rows[: i + 1], n)
        assert grew == (after != before)
        before = after


@given(st.data())
def test_membership_of_sparse_combinations_and_non_members(data):
    n = data.draw(st.integers(1, 24))
    rows = data.draw(_sparse_rows(n, 10))
    lat = IntegerLattice(n)
    for row in rows:
        lat.add(row)
    coeffs = data.draw(st.lists(st.integers(-4, 4), min_size=len(rows), max_size=len(rows)))
    combo = [sum(c * row[i] for c, row in zip(coeffs, rows)) for i in range(n)]
    assert lat.contains(combo)
    spanned = hermite_normal_form(rows, n)
    for vec in data.draw(_sparse_rows(n, 4)):
        assert lat.contains(vec) == (hermite_normal_form(rows + [vec], n) == spanned)


def test_a_subgroup_of_an_abelian_group_in_recovery_order():
    # The vectors r*(a - 1) for r in the group and a in a subgroup, added in
    # the order dimension_ideal_recover adds them.
    rng = random.Random(1009)
    for orders in ((2, 12), (4, 6), (2, 2, 6), (6, 6), (2, 4, 6)):
        ring = finite_group_ring(abelian_group_table(orders), f"group:{orders}")
        elements = ring.enumerate(ring.num_irreducibles)
        index = {g: i for i, g in enumerate(elements)}
        unit = ring.unit()
        subgroup = {unit}
        for g in rng.sample(elements, 2):
            grown = None
            while grown != subgroup:
                grown, subgroup = subgroup, subgroup | {w for h in subgroup for w, _m in ring.decompose(h, g)}
        n = len(elements)
        lat, added, before = IntegerLattice(n), [], []
        for r in elements:
            for a in canonical_sort(subgroup):
                if a == unit:
                    continue
                vec = [0] * n
                for w, m in ring.decompose(r, a):
                    vec[index[w]] += m
                vec[index[r]] -= 1
                added.append(vec)
                grew = lat.add(vec)
                after = lat.basis()
                assert grew == (after != before)
                before = after
        assert lat.basis() == hermite_normal_form(added, n)
        assert lat.rank == n - n // len(subgroup)
        for u in elements:
            vec = [0] * n
            vec[index[u]] += 1
            vec[index[unit]] -= 1
            assert lat.contains(vec) == (u in subgroup)

import gc

import pytest

from fusionring import UnknownLabel, so3_ring, suq2_ring

import oracles


def test_suq2_labels_and_dims():
    ring = suq2_ring()
    window = ring.enumerate(5)
    assert [l.id for l in window] == ["u0", "u1", "u2", "u3", "u4"]
    assert [l.dim for l in window] == [1, 2, 3, 4, 5]
    assert all(ring.conj(l) == l for l in window)
    with pytest.raises(UnknownLabel):
        ring.parse_label("u-1")


def test_suq2_fusion_matches_weight_counting():
    ring = suq2_ring()
    for n in range(9):
        for m in range(9):
            dec = ring.decompose(ring.parse_label(f"u{n}"), ring.parse_label(f"u{m}"))
            got = {l.id: mult for l, mult in dec}
            expected = {}
            for k in range(n + m + 1):
                mult = oracles.su2_multiplicity(n, m, k)
                if mult:
                    expected[f"u{k}"] = mult
            assert got == expected, (n, m)


def test_so3_fusion_matches_weight_counting():
    ring = so3_ring()
    for j in range(7):
        for k in range(7):
            dec = ring.decompose(ring.parse_label(f"v{j}"), ring.parse_label(f"v{k}"))
            got = {l.id: mult for l, mult in dec}
            expected = {}
            for l in range(j + k + 1):
                mult = oracles.so3_multiplicity(j, k, l)
                if mult:
                    expected[f"v{l}"] = mult
            assert got == expected, (j, k)


def test_so3_dims_odd():
    ring = so3_ring()
    assert [l.dim for l in ring.enumerate(4)] == [1, 3, 5, 7]


def test_label_size_is_level():
    ring = suq2_ring()
    assert ring.label_size(ring.parse_label("u5")) == 5
    assert ring.label_size(ring.unit()) == 0


def _tracked_after(action) -> int:
    """GC-tracked objects that ``action()`` leaves behind."""
    gc.collect()
    before = len(gc.get_objects())
    action()
    return len(gc.get_objects()) - before


def test_a_cache_miss_product_keeps_a_fixed_number_of_tracked_objects():
    # A cached decomposition holds one dict, not a tuple per constituent,
    # so u60 (x) u60 (61 constituents) costs the cyclic GC what u1 (x) u1
    # (2 constituents) does.
    ring = suq2_ring()
    u0, u1, u60, u120 = map(ring.parse_label, ["u0", "u1", "u60", "u120"])
    ring.decompose(u0, u120)  # grows the level list past level 120
    small = _tracked_after(lambda: ring.decompose(u1, u1))
    large = _tracked_after(lambda: ring.decompose(u60, u60))
    assert len(ring.decompose(u60, u60)) == 61
    assert small == large <= 4

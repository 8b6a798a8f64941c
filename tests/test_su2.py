import gc
import tracemalloc

import pytest

from fusionring import UnknownLabel, so3_ring, suq2_ring
from fusionring.cli import parse_provider

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
    ring.enumerate(121)  # grows the level list past level 120
    ring.decompose(u0, u120)  # makes the first cache entry
    small = _tracked_after(lambda: ring.decompose(u1, u1))
    large = _tracked_after(lambda: ring.decompose(u60, u60))
    assert len(ring.decompose(u60, u60)) == 61
    assert small == large <= 4


FAR_PRODUCTS = [
    ("suq2", "u3000000", "u1", ["u2999999", "u3000001"]),
    ("so3", "v1000000", "v1", ["v999999", "v1000000", "v1000001"]),
    ("uqsu11", "u+1000000", "u+1", ["u+999999", "u+1000001"]),
    ("free(suq2,so3)", "u300000", "u1", ["u299999", "u300001"]),
]


@pytest.mark.parametrize("spec, left, right, want", FAR_PRODUCTS, ids=[c[0] for c in FAR_PRODUCTS])
def test_a_far_product_labels_only_its_constituents(spec, left, right, want):
    # A product far up the ladder costs memory for its few constituents,
    # not for a level list grown up to its top level.
    ring = parse_provider(spec)
    u, v = ring.parse_label(left), ring.parse_label(right)
    tracemalloc.start()
    try:
        dec = ring.decompose(u, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [(w.id, m) for w, m in dec] == [(i, 1) for i in want]
    assert peak < 64 * 1024


LEVEL_PAIRS = [(3000, 1), (0, 2), (2999, 3), (5, 5), (1, 1), (12, 3000), (40, 2), (0, 0)]


@pytest.mark.parametrize("spec, fmt", [("suq2", "u{}"), ("so3", "v{}"), ("uqsu11", "u-{}")])
def test_far_and_near_products_share_one_label_per_level(spec, fmt):
    # Far products label their constituents without growing the level
    # list, near ones slice and grow it; both must hand out the ring's
    # one label per level and agree with a fresh ring.
    ring = parse_provider(spec)
    for m, n in LEVEL_PAIRS:
        dec = ring.decompose(ring.parse_label(fmt.format(m)), ring.parse_label(fmt.format(n)))
        fresh = parse_provider(spec)
        want = fresh.decompose(fresh.parse_label(fmt.format(m)), fresh.parse_label(fmt.format(n)))
        assert [(w.id, k) for w, k in dec] == [(w.id, k) for w, k in want], (m, n)
        assert all(ring.parse_label(w.id) is w for w in dec.constituents())
    assert ring.enumerate(50) == parse_provider(spec).enumerate(50)
    assert all(ring.parse_label(w.id) is w for w in ring.enumerate(50))

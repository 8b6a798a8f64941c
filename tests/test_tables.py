import ast
import json

import pytest
from hypothesis import given, settings, strategies as st

from fusionring import (
    Budget,
    InvalidRing,
    NotAGroup,
    builtin_finite_rings,
    character_ring,
    check_axioms,
    dump_ring_json,
    finite_group_ring,
    load_ring_json,
)
from fusionring.rings.tables import S3_CHARACTER_TABLE

import oracles


def test_s3_group_ring_from_permutations():
    ring = finite_group_ring(oracles.s3_group_table(), name="S3")
    assert ring.num_irreducibles == 6
    report = check_axioms(ring, Budget(max_irreducibles=6), triple_samples=30, seed=0)
    assert report.ok
    unit = ring.unit()
    orders = sorted(ring.order_oracle(g) for g in ring.enumerate(6))
    assert orders == [1, 2, 2, 2, 3, 3]
    assert ring.order_oracle(unit) == 1


def test_non_group_table_rejected():
    table = oracles.s3_group_table()
    # break inverses: redirect one product so a row loses the identity
    table[("p102", "p102")] = "p102"
    with pytest.raises(NotAGroup):
        finite_group_ring(table, name="broken")


# Identity 0 and every element its own inverse, but (1*1)*2 = 2 while
# 1*(1*2) = 1*3 = 4: a loop that passes every check before associativity.
ORDER_5_LOOP = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]


def _rows_table(rows):
    return {(str(a), str(b)): str(c) for a, row in enumerate(rows) for b, c in enumerate(row)}


def _failing_triples(table):
    elems = sorted({g for g, _ in table})
    return {
        (a, b, c)
        for a in elems
        for b in elems
        for c in elems
        if table[(table[(a, b)], c)] != table[(a, table[(b, c)])]
    }


def test_order_5_loop_fails_associativity():
    table = _rows_table(ORDER_5_LOOP)
    with pytest.raises(NotAGroup, match="associativity fails at") as err:
        finite_group_ring(table)
    assert ast.literal_eval(str(err.value).split(" at ", 1)[1]) in _failing_triples(table)


@pytest.mark.parametrize(
    "table, message",
    [
        ({("a", "a"): ["x"]}, "leaves the element set"),
        ({("a", "a"): "x"}, "leaves the element set"),
        ({("a", "a"): "a", ("a", "b"): "b"}, "missing"),
        ({}, "empty table"),
    ],
    ids=["unhashable-product", "foreign-product", "missing-product", "empty"],
)
def test_bad_group_tables_raise_not_a_group(table, message):
    with pytest.raises(NotAGroup, match=message):
        finite_group_ring(table)


# Groups of order <= 6 by their rows over elements 0..n-1, 0 the identity:
# the cyclic groups, the Klein group and S3 (the identity permutation first).
_S3 = oracles.S3_ELEMENTS
_SMALL_GROUPS = [
    *([[(a + b) % n for b in range(n)] for a in range(n)] for n in range(1, 7)),
    [[a ^ b for b in range(4)] for a in range(4)],
    [[_S3.index(oracles._perm_compose(p, q)) for q in _S3] for p in _S3],
]


@st.composite
def _tables_with_identity_and_inverses(draw):
    """A group table of order <= 6 under random names, with entries
    outside the identity's row and column and off the inverse pairs
    overwritten at random (all of them, some or none)."""
    rows = [list(r) for r in draw(st.sampled_from(_SMALL_GROUPS))]
    n = len(rows)
    inverse = {a: rows[a].index(0) for a in range(n)}
    free = [(a, b) for a in range(1, n) for b in range(1, n) if b != inverse[a]]
    if free:
        for a, b in draw(st.lists(st.sampled_from(free), max_size=len(free))):
            rows[a][b] = draw(st.integers(0, n - 1))
    names = draw(st.permutations("abcdef"[:n]))
    return {(names[a], names[b]): names[c] for a, row in enumerate(rows) for b, c in enumerate(row)}


@settings(max_examples=300, deadline=None)
@given(_tables_with_identity_and_inverses())
def test_light_test_agrees_with_brute_force(table):
    failing = _failing_triples(table)
    if not failing:
        assert finite_group_ring(table).num_irreducibles == len({g for g, _ in table})
        return
    with pytest.raises(NotAGroup, match="associativity fails at") as err:
        finite_group_ring(table)
    assert ast.literal_eval(str(err.value).split(" at ", 1)[1]) in failing


def test_character_ring_matches_element_sum_oracle(fixtures_dir):
    ring = character_ring(fixtures_dir / "s3_characters.json")
    names = ["triv", "sgn", "std"]
    for a in names:
        for b in names:
            dec = ring.decompose(ring.parse_label(a), ring.parse_label(b))
            for c in names:
                assert dec.multiplicity(ring.parse_label(c)) == oracles.s3_fusion_mult(a, b, c), (a, b, c)


def test_character_fixture_bytes_are_canonical(fixtures_dir):
    data = {
        "name": "characters:S3",
        "class_sizes": [1, 3, 2],
        "characters": {"triv": [1, 1, 1], "sgn": [1, -1, 1], "std": [2, 0, -1]},
    }
    expected = json.dumps(data, sort_keys=True, indent=2) + "\n"
    assert (fixtures_dir / "s3_characters.json").read_text() == expected


def test_character_ring_rejects_non_orthonormal():
    with pytest.raises(InvalidRing):
        character_ring(
            {
                "class_sizes": [1, 3, 2],
                "characters": {"triv": [1, 1, 1], "sgn": [1, -1, 1], "std": [2, 1, -1]},
            }
        )


def test_character_ring_refuses_numbers_that_are_not_integers(fixtures_dir):
    # Each size and value here used to be coerced by int(), which loaded
    # the table as the Z2 character ring.
    with pytest.raises(InvalidRing, match="must be integers"):
        character_ring({"class_sizes": [1, 1.9], "characters": {"triv": [1, True], "sgn": ["1", -1.5]}})
    z2 = {"class_sizes": [1, 1], "characters": {"triv": [1, 1], "sgn": [1, -1]}}
    assert character_ring(z2).num_irreducibles == 2
    for bad in ({"class_sizes": [1, 1.0]}, {"class_sizes": [True, 1]},
                {"characters": {"triv": [1, True], "sgn": [1, -1]}},
                {"characters": {"triv": [1, 1], "sgn": ["1", -1]}},
                {"characters": {"triv": [1, 1], "sgn": [1, -1.0]}}):
        with pytest.raises(InvalidRing, match="must be integers"):
            character_ring({**z2, **bad})
    assert character_ring(fixtures_dir / "s3_characters.json").num_irreducibles == 3
    assert character_ring(S3_CHARACTER_TABLE).num_irreducibles == 3


def test_character_ring_refuses_class_sizes_below_one():
    # [1, -1] makes the group order 0, which used to end the inner
    # products in ZeroDivisionError.
    chars = {"triv": [1, 1], "sgn": [1, -1]}
    for sizes in ([1, -1], [1, 0]):
        with pytest.raises(InvalidRing, match="below 1"):
            character_ring({"class_sizes": sizes, "characters": chars})


def test_character_ring_refuses_characters_that_are_not_a_mapping():
    with pytest.raises(InvalidRing, match="malformed character table"):
        character_ring({"class_sizes": [1], "characters": [[1]]})


def test_empty_irreducible_id_is_an_invalid_ring():
    # An empty id used to reach IrrLabel and end in ValueError.
    with pytest.raises(InvalidRing, match="^empty irreducible id$"):
        character_ring({"class_sizes": [1, 1], "characters": {"triv": [1, 1], "": [1, -1]}})
    with pytest.raises(InvalidRing, match="^empty irreducible id$"):
        finite_group_ring({("e", "e"): "e", ("e", ""): "", ("", "e"): "", ("", ""): "e"})


def test_load_dump_round_trip(tmp_path):
    ring = character_ring(
        {
            "name": "s3chars",
            "class_sizes": [1, 3, 2],
            "characters": {"triv": [1, 1, 1], "sgn": [1, -1, 1], "std": [2, 0, -1]},
        }
    )
    path = tmp_path / "ring.json"
    dumped = dump_ring_json(ring, path)
    loaded = load_ring_json(path)
    assert dump_ring_json(loaded) == dumped


def test_load_rejects_axiom_violations(fixtures_dir):
    with pytest.raises(InvalidRing) as err:
        load_ring_json(fixtures_dir / "bad_ring.json")
    assert err.value.violations


def test_load_rejects_duplicate_pairs(tmp_path):
    data = {
        "unit": "e",
        "irreducibles": [{"id": "e", "dim": 1, "conj": "e"}],
        "fusion": [
            {"left": "e", "right": "e", "result": {"e": 1}},
            {"left": "e", "right": "e", "result": {"e": 1}},
        ],
    }
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(data))
    with pytest.raises(InvalidRing):
        load_ring_json(path)


def test_builtin_finite_rings_all_valid():
    rings = builtin_finite_rings()
    assert len(rings) >= 6
    names = [r.name for r in rings]
    assert len(set(names)) == len(names)
    for ring in rings:
        n = ring.num_irreducibles
        assert isinstance(n, int) and n <= 8
        report = check_axioms(ring, Budget(max_irreducibles=n), triple_samples=20, seed=0)
        assert report.ok, (ring.name, report.violations)


@pytest.mark.parametrize("content", ["[1, 2]", '"x"', "3"])
def test_load_rejects_a_document_that_is_not_an_object(tmp_path, content):
    path = tmp_path / "ring.json"
    path.write_text(content)
    with pytest.raises(InvalidRing, match="must hold a JSON object"):
        load_ring_json(path)


@pytest.mark.parametrize("loader", [load_ring_json, character_ring], ids=lambda f: f.__name__)
@pytest.mark.parametrize(
    "content, message",
    [
        (None, "cannot read ring file .*: No such file or directory"),
        ("[1, 2]", "ring file .* must hold a JSON object"),
        ("{", "ring file .* is not JSON"),
    ],
    ids=["missing", "list", "not-json"],
)
def test_unreadable_files_raise_invalid_ring(tmp_path, loader, content, message):
    # Both loaders read files the same way and word their errors alike.
    path = tmp_path / "ring.json"
    if content is not None:
        path.write_text(content)
    with pytest.raises(InvalidRing, match=message):
        loader(path)

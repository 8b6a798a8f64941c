import ast
import json

import pytest
from hypothesis import given, settings, strategies as st

from fusionring import (
    Budget,
    InvalidRing,
    NotAGroup,
    UnsupportedProvider,
    builtin_finite_rings,
    character_ring,
    check_axioms,
    dump_ring_json,
    finite_group_ring,
    load_ring_json,
    n_sequence_cocommutative,
    torsion_subcategory,
)
from fusionring.rings.tables import S3_CHARACTER_TABLE, FiniteTableProvider

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


# The characters of V4, named after the elements of ``group:V4`` that the
# duality V4 -> V4^ sends them to, so that the two rings share their ids.
V4_CHARACTER_TABLE = {
    "name": "characters:V4",
    "class_sizes": [1, 1, 1, 1],
    "characters": {
        "e": [1, 1, 1, 1], "x": [1, -1, 1, -1], "y": [1, 1, -1, -1], "xy": [1, -1, -1, 1]
    },
}


def _group_answers(ring):
    """Order oracle, torsion scan and n-sequence of ``ring``, with the
    ring's name left out."""
    budget = Budget(max_irreducibles=ring.num_irreducibles)
    scan = torsion_subcategory(ring, budget).to_dict()
    nseq = n_sequence_cocommutative(ring, budget).to_dict()
    del scan["provider"], nseq["provider"]
    return {g.id: ring.order_oracle(g) for g in ring.enumerate(ring.num_irreducibles)}, scan, nseq


@pytest.mark.parametrize("name", ["group:Z2", "group:Z4", "group:V4", "group:S3"])
def test_a_reloaded_group_table_answers_the_group_questions(tmp_path, name):
    # A group ring written to JSON and read back is a group ring too.
    built = next(r for r in builtin_finite_rings() if r.name == name)
    path = tmp_path / "group.json"
    dump_ring_json(built, path)
    want = _group_answers(built)
    assert _group_answers(load_ring_json(path)) == want
    assert _group_answers(load_ring_json(dump_ring_json(built))) == want


def test_the_character_ring_of_v4_answers_as_the_group_ring():
    # Every irreducible of V4 has dim 1, so its character ring is a group
    # ring, and the duality makes it the group ring of V4 itself.
    built = next(r for r in builtin_finite_rings() if r.name == "group:V4")
    answers = _group_answers(character_ring(V4_CHARACTER_TABLE))
    assert answers == _group_answers(built)
    assert answers[0] == {"e": 1, "x": 2, "y": 2, "xy": 2}


def test_tables_with_a_larger_dim_have_no_group_answers():
    ring = character_ring(S3_CHARACTER_TABLE)
    std = ring.parse_label("std")
    with pytest.raises(UnsupportedProvider, match="no order oracle"):
        ring.order_oracle(ring.parse_label("sgn"))
    with pytest.raises(UnsupportedProvider, match="needs a cocommutative"):
        ring.torsion_quotient()
    with pytest.raises(UnsupportedProvider, match="needs a cocommutative"):
        ring.stage_one_exponent(std, 8)
    with pytest.raises(UnsupportedProvider, match="needs a cocommutative"):
        n_sequence_cocommutative(load_ring_json(dump_ring_json(ring)))


def test_powers_that_never_reach_the_identity_are_an_invalid_ring():
    # Dims all 1, but no group: a (x) a = b and b (x) a = b, so the powers
    # of a stay at b.  The table is built directly, without the axiom check.
    products = {("a", "a"): "b", ("a", "b"): "e", ("b", "a"): "b", ("b", "b"): "a"}
    table = {
        (u, v): {products.get((u, v), v if u == "e" else u): 1} for u in "eab" for v in "eab"
    }
    conj = {"e": "e", "a": "b", "b": "a"}
    ring = FiniteTableProvider("loop", "e", dict.fromkeys("eab", 1), conj, table)
    with pytest.raises(InvalidRing, match="powers never reach the identity"):
        ring.order_oracle(ring.parse_label("a"))


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

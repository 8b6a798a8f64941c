import ast
import itertools
import json
import math
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from fusionring import (
    Budget,
    Decomposition,
    FusionError,
    InvalidRing,
    IrrLabel,
    NotAGroup,
    UnknownLabel,
    UnsupportedProvider,
    builtin_finite_rings,
    character_ring,
    check_axioms,
    dump_ring_json,
    finite_group_ring,
    load_ring_json,
    n_sequence_cocommutative,
    torsion_subcategory,
    word_group,
)
from fusionring.cli import main
from fusionring.rings import tables
from fusionring.errors import _quote
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
        # a long element is quoted short
        ({("a", "a"): "x" * 3000}, r"'\.\.\. \(3000 characters\) leaves the element set"),
        ({("a" * 3000, "a" * 3000): "a" * 3000, ("a" * 3000, "b"): "b", ("b", "b"): "b"},
         r"\('b', 'aaa.*\.\.\. \(3009 characters\) missing"),
        ({("e", "e"): "e", ("e", "x" * 3000): "x" * 3000, ("x" * 3000, "e"): "x" * 3000,
          ("x" * 3000, "x" * 3000): "x" * 3000}, r"'\.\.\. \(3000 characters\) has no inverse"),
    ],
    ids=["unhashable-product", "foreign-product", "missing-product", "empty",
         "long-foreign-product", "long-missing-product", "long-no-inverse"],
)
def test_bad_group_tables_raise_not_a_group(table, message):
    with pytest.raises(NotAGroup, match=message) as err:
        finite_group_ring(table)
    assert len(str(err.value)) < 200


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


def _relabelled(orders, seed=1009):
    """An abelian group table of ``orders`` under seeded names, listed in a
    seeded order: the shape of the benchmark's ``ideals`` groups."""
    table = oracles.abelian_group_table(orders)
    elems = sorted({g for g, _ in table})
    rng = random.Random(seed)
    names = dict(zip(elems, rng.sample([f"x{k:02d}" for k in range(len(elems))], len(elems))))
    keys = list(table)
    rng.shuffle(keys)
    return {(names[a], names[b]): names[table[a, b]] for a, b in keys}


@settings(max_examples=300, deadline=None)
@given(_tables_with_identity_and_inverses())
def test_light_test_names_the_triple_that_the_triple_loop_names(table):
    ids = sorted({g for g, _ in table})
    assert tables._light_failure(table, ids) == oracles.light_failure_reference(table, ids)


@pytest.mark.parametrize("orders", [(96,), (4, 12), (2, 2, 6)], ids=str)
def test_light_test_passes_groups_with_several_generators(orders):
    table = _relabelled(orders)
    ids = sorted({g for g, _ in table})
    assert tables._light_failure(table, ids) is None is oracles.light_failure_reference(table, ids)
    # One product changed: both name the same first failing triple.
    g = ids[-1]
    table[g, g] = next(h for h in ids if h != table[g, g])
    assert tables._light_failure(table, ids) == oracles.light_failure_reference(table, ids) is not None


@settings(max_examples=300, deadline=None)
@given(_tables_with_identity_and_inverses())
def test_the_constructor_runs_light_test_on_every_group_table(table):
    # The same tables given straight to FiniteTableProvider, with the unit
    # and each element's first two-sided inverse as its conjugate, which in
    # a table that is not associative need not be an involution.
    elems = sorted({g for g, _ in table})
    unit = next(e for e in elems if all(table[e, g] == g == table[g, e] for g in elems))
    conj = {g: next(h for h in elems if table[g, h] == unit == table[h, g]) for g in elems}
    args = ("table", unit, dict.fromkeys(elems, 1), conj, {key: {w: 1} for key, w in table.items()})
    failing = _failing_triples(table)
    if not failing:
        assert FiniteTableProvider(*args).num_irreducibles == len(elems)
        return
    with pytest.raises(NotAGroup, match="associativity fails at") as err:
        FiniteTableProvider(*args)
    assert ast.literal_eval(str(err.value).split(" at ", 1)[1]) in failing


def _z2_table():
    """The arguments after the name and unit of FiniteTableProvider for
    the group ring of Z2 on e and a: dims, conjugation and table."""
    table = {("e", "e"): {"e": 1}, ("e", "a"): {"a": 1}, ("a", "e"): {"a": 1}, ("a", "a"): {"e": 1}}
    return {"e": 1, "a": 1}, {"e": "e", "a": "a"}, table


def _monoid_table():
    """Unit, dims, conjugation and table of the monoid {e, a} with
    a (x) a = a: associative and with a two-sided unit, but a has no
    inverse, least of all its conjugate a."""
    table = {("e", "e"): {"e": 1}, ("e", "a"): {"a": 1}, ("a", "e"): {"a": 1}, ("a", "a"): {"a": 1}}
    return "e", {"e": 1, "a": 1}, {"e": "e", "a": "a"}, table


def _document(unit, dims, conj, table):
    """The JSON table format of a table given as FiniteTableProvider's
    arguments after the name."""
    return {
        "unit": unit,
        "irreducibles": [{"id": i, "dim": d, "conj": conj[i]} for i, d in dims.items()],
        "fusion": [{"left": a, "right": b, "result": dict(r)} for (a, b), r in table.items()],
    }


@pytest.mark.parametrize(
    "which, key, value, message",
    [
        *((0, "a", d, f"irreducible 'a' has dim {d!r}, not an integer of at least 1")
          for d in (0, -1, True, 1.5, "1")),
        (1, "a", "x", "conjugation mentions unknown id 'a' or 'x'"),
        (1, "e", "a", "conjugation not an involution at 'e'"),
        (1, "a", None, "conjugation map must cover every irreducible"),
        (2, ("a", "x"), {"a": 1}, "table mentions unknown pair ('a', 'x')"),
        (2, ("a", "a"), None, "table is missing pair ('a', 'a')"),
        (2, ("a", "a"), {"x": 1}, "product ('a', 'a') mentions unknown id 'x'"),
        (2, ("a", "a"), {"e": -1}, "product ('a', 'a') has bad multiplicity -1 for 'e'"),
        (2, ("a", "a"), {"e": True}, "product ('a', 'a') has bad multiplicity True for 'e'"),
    ],
    ids=["dim-0", "dim-negative", "dim-true", "dim-float", "dim-string", "conj-unknown-id",
         "conj-not-involution", "conj-not-covering", "unknown-pair", "missing-pair",
         "unknown-product-id", "negative-multiplicity", "true-multiplicity"],
)
def test_the_constructor_refuses_a_bad_table(which, key, value, message):
    # ``value`` replaces the entry ``key`` of argument ``which``; None drops it.
    args = list(_z2_table())
    args[which] = {**args[which], key: value}
    if value is None:
        del args[which][key]
    with pytest.raises(InvalidRing, match=f"^{re.escape(message)}$"):
        FiniteTableProvider("z2", "e", *args)


@pytest.mark.parametrize(
    "drop, add, shown",
    [
        (("a", "a"), ("a", "x"), "('a', 'x')"),
        (("a", "a"), ("a", "a", "a"), "('a', 'a', 'a')"),
        (("e", "a"), "ea", "'ea'"),
    ],
    ids=["unknown-id", "triple", "string"],
)
def test_an_unknown_pair_is_named_before_a_missing_one(drop, add, shown):
    # With n^2 keys, one of them unknown, a pair is missing too; the
    # unknown pair is the one refused, as with n^2 + 1 keys ("unknown-pair"
    # above).
    dims, conj, table = _z2_table()
    del table[drop]
    table[add] = {"e": 1}
    assert len(table) == 4
    with pytest.raises(InvalidRing, match=f"^table mentions unknown pair {re.escape(shown)}$"):
        FiniteTableProvider("z2", "e", dims, conj, table)


def test_a_table_without_a_two_sided_identity_is_not_a_group():
    # x * y = x: every element is a right identity, none a left one.
    with pytest.raises(NotAGroup, match="^no two-sided identity$"):
        finite_group_ring({(x, y): x for x in "ab" for y in "ab"})


def _steiner_loop() -> dict[tuple[str, str], str]:
    """A Steiner loop on g0..g255 that is not a group: (Z2)^8 under xor,
    whose blocks {x, y, x xor y} form a Steiner triple system, with the
    Pasch trade on the four blocks through 35, 69, 137 and their pairwise
    sums 102, 170, 204.  The trade keeps a Steiner triple system, so the
    table keeps its identity g0 and every element its own inverse."""
    a, b, c = 35, 69, 137
    product = {(x, y): x ^ y for x in range(256) for y in range(256)}
    for block in ((a, b, c), (a, a ^ b, a ^ c), (b, a ^ b, b ^ c), (c, a ^ c, b ^ c)):
        for x, y, z in itertools.permutations(block):
            product[x, y] = z
    return {(f"g{x}", f"g{y}"): f"g{z}" for (x, y), z in product.items()}


def _table_json(table, unit):
    """The JSON document of a group table, each element its own conjugate."""
    elems = sorted({g for g, _ in table})
    return {
        "unit": unit,
        "irreducibles": [{"id": g, "dim": 1, "conj": g} for g in elems],
        "fusion": [{"left": g, "right": h, "result": {w: 1}} for (g, h), w in table.items()],
    }


def test_the_steiner_loop_is_not_a_group_ring(tmp_path, capsys):
    table = _steiner_loop()
    assert table[("g35", "g69")] == "g137" and table[("g35", "g35")] == "g0"
    with pytest.raises(NotAGroup, match="associativity fails at") as err:
        load_ring_json(_table_json(table, "g0"))
    x, y, z = ast.literal_eval(str(err.value).split(" at ", 1)[1])
    assert table[table[x, y], z] != table[x, table[y, z]]
    path = tmp_path / "steiner.json"
    path.write_text(json.dumps(_table_json(table, "g0")))
    assert main(["nsequence", "--ring", f"json:{path}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invalid ring: ") and "associativity fails at" in captured.err
    assert captured.err.count("\n") == 1


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


@pytest.mark.parametrize(
    "table, message",
    [
        ({"class_sizes": [], "characters": {}}, "first class must be the identity class of size 1"),
        ({"class_sizes": [2, 1], "characters": {"triv": [1, 1], "sgn": [1, -1]}},
         "first class must be the identity class of size 1"),
        ({"class_sizes": [1, 1], "characters": {"triv": [1, 1]}}, "character count must match class count"),
        ({"class_sizes": [1, 1], "characters": {"triv": [1, 1], "sgn": [1]}},
         "character count must match class count"),
        ({"class_sizes": [1, 1], "characters": {"x": [1, -1], "y": [-1, -1]}}, "no trivial character"),
        # The characters of V4 with the last negated: x (x) y = -z.
        ({"class_sizes": [1, 1, 1, 1],
          "characters": {"t": [1, 1, 1, 1], "x": [1, -1, 1, -1], "y": [1, 1, -1, -1], "z": [-1, 1, 1, -1]}},
         "'x' (x) 'y' has coefficient -1 at 'z'"),
        # The sign character negated: orthonormal and closed, but of degree -1.
        ({"class_sizes": [1, 1], "characters": {"triv": [1, 1], "sgn": [-1, 1]}},
         "irreducible 'sgn' has dim -1, not an integer of at least 1"),
    ],
    ids=["no-classes", "identity-class", "too-few-characters", "short-character", "no-trivial",
         "negative-coefficient", "negative-degree"],
)
def test_character_ring_refuses_a_bad_table(table, message):
    with pytest.raises(InvalidRing, match=f"^{re.escape(message)}$"):
        character_ring(table)


def test_character_ring_refuses_characters_that_are_not_a_mapping():
    with pytest.raises(InvalidRing, match="malformed character table"):
        character_ring({"class_sizes": [1], "characters": [[1]]})


def test_empty_irreducible_id_is_an_invalid_ring():
    # An empty id used to reach IrrLabel and end in ValueError.
    with pytest.raises(InvalidRing, match="^empty irreducible id$"):
        character_ring({"class_sizes": [1, 1], "characters": {"triv": [1, 1], "": [1, -1]}})
    with pytest.raises(InvalidRing, match="^empty irreducible id$"):
        finite_group_ring({("e", "e"): "e", ("e", ""): "", ("", "e"): "", ("", ""): "e"})


@pytest.mark.parametrize(
    "table, shown",
    [
        ({(0, 0): 0}, "0"),
        ({(1, 1): 1, (1, 2): 2, (2, 1): 2, (2, 2): 1}, "1"),
        ({("e", "e"): "e", ("e", 1): 1, (1, "e"): 1, (1, 1): "e"}, "1"),
        ({(0.5, 0.5): 0.5}, "0.5"),
    ],
    ids=["zero", "ints", "mixed", "float"],
)
def test_a_group_table_over_ids_that_are_not_strings_is_an_invalid_ring(table, shown):
    # The element 0 used to end in ValueError from IrrLabel, and elements
    # 1, 2 built a ring whose decompositions could not be written.
    with pytest.raises(InvalidRing, match=f"^irreducible id {shown} is not a string$"):
        finite_group_ring(table)


def test_a_product_present_but_none_leaves_the_element_set():
    # The product is in the table, so it is not missing: it names no element.
    table = {("a", "a"): "a", ("a", "b"): "b", ("b", "a"): "b", ("b", "b"): None}
    with pytest.raises(NotAGroup, match=r"^product \('b', 'b'\) = None leaves the element set$"):
        finite_group_ring(table)


def test_a_product_absent_from_the_table_is_missing():
    table = {("a", "a"): "a", ("a", "b"): "b", ("b", "a"): "b"}
    with pytest.raises(NotAGroup, match=r"^product \('b', 'b'\) missing$"):
        finite_group_ring(table)


@pytest.mark.parametrize(
    "characters, shown",
    [({0: [1, 1], 1: [1, -1]}, "0"), ({"a": [1, 1], 1: [1, -1]}, "1")],
    ids=["ints", "mixed"],
)
def test_a_character_table_over_ids_that_are_not_strings_is_an_invalid_ring(characters, shown):
    # The ids used to be turned into text, so 0 and 1 loaded as '0' and '1'.
    with pytest.raises(InvalidRing, match=f"^irreducible id {shown} is not a string$"):
        character_ring({"class_sizes": [1, 1], "characters": characters})


def test_the_constructor_quotes_an_id_that_is_not_a_string():
    with pytest.raises(InvalidRing, match="^irreducible id 1 is not a string$"):
        FiniteTableProvider("x", 1, {1: 1}, {1: 1}, {(1, 1): {1: 1}})
    long_id = tuple(range(100))
    want = f"irreducible id {_quote(long_id)} is not a string"
    assert want.endswith("characters) is not a string")
    with pytest.raises(InvalidRing, match=f"^{re.escape(want)}$"):
        FiniteTableProvider("x", "e", {"e": 1, long_id: 1}, {}, {})


def test_the_loaders_keep_their_own_id_messages():
    # JSON ids are refused by the loader before the constructor sees them,
    # and an empty id still has its own message, through both loaders.
    data = {"unit": "e", "irreducibles": [{**_ONE, "id": 0}], "fusion": [_ONE_ROW]}
    with pytest.raises(InvalidRing, match="^malformed irreducible entry .*: id 0 is not a JSON string$"):
        load_ring_json(data)
    data = {"unit": "", "irreducibles": [{"id": "", "dim": 1, "conj": ""}],
            "fusion": [{"left": "", "right": "", "result": {"": 1}}]}
    with pytest.raises(InvalidRing, match="^empty irreducible id$"):
        load_ring_json(data)
    with pytest.raises(InvalidRing, match="^empty irreducible id$"):
        character_ring({"class_sizes": [1, 1], "characters": {"triv": [1, 1], "": [1, -1]}})


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
    # of a stay at b.  Built directly, without the axiom check, the table
    # is still refused, by Light's test.
    products = {("a", "a"): "b", ("a", "b"): "e", ("b", "a"): "b", ("b", "b"): "a"}
    table = {(u, v): products.get((u, v), v if u == "e" else u) for u in "eab" for v in "eab"}
    conj = {"e": "e", "a": "b", "b": "a"}
    fusion = {key: {w: 1} for key, w in table.items()}
    with pytest.raises(NotAGroup, match="associativity fails at") as err:
        FiniteTableProvider("loop", "e", dict.fromkeys("eab", 1), conj, fusion)
    assert ast.literal_eval(str(err.value).split(" at ", 1)[1]) in _failing_triples(table)
    # {e, a} with a (x) a = a is associative, so it is built, but a has no
    # inverse and its powers stay at a.  As a ring file it is refused by the
    # axiom harness (a (x) conj(a) holds no unit); built directly, it has no
    # group answers (test_a_monoid_table_is_not_certified_a_group).
    with pytest.raises(InvalidRing, match="^json-ring: 3 axiom violation") as err:
        load_ring_json(_document(*_monoid_table()))
    assert [(v.axiom, [u.id for u in v.labels]) for v in err.value.violations] == [
        ("frobenius", ["e", "a", "a"]), ("frobenius", ["a", "e", "a"]), ("unit-multiplicity", ["a", "a"]),
    ]


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


_ONE = {"id": "e", "dim": 1, "conj": "e"}
_ONE_ROW = {"left": "e", "right": "e", "result": {"e": 1}}


@pytest.mark.parametrize(
    "data, message",
    [
        ({"irreducibles": [_ONE], "fusion": [_ONE_ROW]}, "malformed ring file: missing 'unit'"),
        ({"unit": "e", "fusion": [_ONE_ROW]}, "malformed ring file: missing 'irreducibles'"),
        ({"unit": "e", "irreducibles": [_ONE]}, "malformed ring file: missing 'fusion'"),
        ({"unit": "e", "irreducibles": [_ONE], "fusion": {}},
         "malformed ring file: 'irreducibles' and 'fusion' must be lists"),
        ({"unit": "e", "irreducibles": [{"id": "e", "dim": 1}], "fusion": [_ONE_ROW]},
         "malformed irreducible entry {'id': 'e', 'dim': 1}: 'conj'"),
        ({"unit": "e", "irreducibles": ["e"], "fusion": [_ONE_ROW]}, "malformed irreducible entry 'e': "),
        ({"unit": "e", "irreducibles": [_ONE], "fusion": [{"left": "e", "right": "e"}]},
         "malformed fusion row {'left': 'e', 'right': 'e'}: 'result'"),
        ({"unit": "e", "irreducibles": [_ONE], "fusion": [{"left": "e", "right": "e", "result": [1]}]},
         "malformed fusion row {'left': 'e', 'right': 'e', 'result': [1]}: "),
        ({"unit": "e", "irreducibles": [_ONE, _ONE], "fusion": [_ONE_ROW]}, "duplicate irreducible id 'e'"),
    ],
    ids=["no-unit", "no-irreducibles", "no-fusion", "not-lists", "entry-without-conj", "entry-not-object",
         "row-without-result", "result-not-object", "duplicate-id"],
)
def test_load_refuses_a_malformed_document(data, message):
    with pytest.raises(InvalidRing, match=f"^{re.escape(message)}"):
        load_ring_json(data)


@pytest.mark.parametrize("value", [0, True, None], ids=["0", "true", "null"])
@pytest.mark.parametrize(
    "where, message",
    [
        ((), "malformed ring file: unit {v} is not a JSON string"),
        (("irreducibles", 0, "id"), "malformed irreducible entry {entry}: id {v} is not a JSON string"),
        (("irreducibles", 0, "conj"), "malformed irreducible entry {entry}: conj {v} is not a JSON string"),
        (("fusion", 0, "left"), "malformed fusion row {row}: left {v} is not a JSON string"),
        (("fusion", 0, "right"), "malformed fusion row {row}: right {v} is not a JSON string"),
    ],
    ids=["unit", "id", "conj", "left", "right"],
)
def test_load_refuses_ids_that_are_not_json_strings(tmp_path, where, message, value):
    data = {"unit": "e", "irreducibles": [dict(_ONE)], "fusion": [dict(_ONE_ROW)]}
    if where:
        container, index, key = where
        data[container][index][key] = value
    else:
        data["unit"] = value
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(data))
    want = message.format(v=repr(value), entry=data["irreducibles"][0], row=data["fusion"][0])
    with pytest.raises(InvalidRing, match=f"^{re.escape(want)}$"):
        load_ring_json(path)
    # A result id that is not a string names no irreducible.
    data = {"unit": "e", "irreducibles": [_ONE], "fusion": [{**_ONE_ROW, "result": {value: 1}}]}
    with pytest.raises(InvalidRing, match=f"^product \\('e', 'e'\\) mentions unknown id {re.escape(repr(value))}$"):
        load_ring_json(data)


def test_only_finite_rings_can_be_dumped():
    with pytest.raises(InvalidRing, match="^only finite rings can be dumped$"):
        dump_ring_json(word_group([math.inf]))


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


# Rep(A4): three characters of dim 1 and t of dim 3, with t (x) t holding t
# twice.
A4_REPRESENTATIONS = {
    "unit": "1",
    "irreducibles": [
        {"id": "1", "dim": 1, "conj": "1"}, {"id": "w", "dim": 1, "conj": "w2"},
        {"id": "w2", "dim": 1, "conj": "w"}, {"id": "t", "dim": 3, "conj": "t"},
    ],
    "fusion": [
        {"left": a, "right": b, "result": result}
        for a, row in {
            "1": {"1": {"1": 1}, "w": {"w": 1}, "w2": {"w2": 1}, "t": {"t": 1}},
            "w": {"1": {"w": 1}, "w": {"w2": 1}, "w2": {"1": 1}, "t": {"t": 1}},
            "w2": {"1": {"w2": 1}, "w": {"1": 1}, "w2": {"w": 1}, "t": {"t": 1}},
            "t": {"1": {"t": 1}, "w": {"t": 1}, "w2": {"t": 1}, "t": {"1": 1, "w": 1, "w2": 1, "t": 2}},
        }.items()
        for b, result in row.items()
    ],
}


def _z2_with_zero_entries():
    """Z2 on e and a with every product listing both ids, one of them 0 times."""
    dims, conj, table = _z2_table()
    return tables.FiniteTableProvider("z2-zeros", "e", dims, conj,
                                      {key: {"e": 0, "a": 0, **counts} for key, counts in table.items()})


_Z96_NAMES = [f"g{k:02d}" for k in range(96)]
Z96_DOCUMENT = dump_ring_json(finite_group_ring(
    {(_Z96_NAMES[a], _Z96_NAMES[b]): _Z96_NAMES[(a + b) % 96] for a in range(96) for b in range(96)}, "group:Z96"
))


def _z96_reloaded():
    return load_ring_json(json.loads(json.dumps(Z96_DOCUMENT)))


class _Recording(FiniteTableProvider):
    """A table provider that keeps the counts it was built from."""

    def __init__(self, name, unit_id, dims, conj, table):
        super().__init__(name, unit_id, dims, conj, table)
        self.counts = table


@pytest.fixture
def recording(monkeypatch):
    monkeypatch.setattr(tables, "FiniteTableProvider", _Recording)


TABLE_RINGS = {
    **{f"builtin-{k}": (lambda k=k: builtin_finite_rings()[k]) for k in range(6)},
    "characters-S3": lambda: character_ring(S3_CHARACTER_TABLE),
    "rep-A4": lambda: load_ring_json(A4_REPRESENTATIONS),
    "zero-entries": _z2_with_zero_entries,
    "Z96-json": _z96_reloaded,
}


@pytest.mark.parametrize("make", TABLE_RINGS.values(), ids=TABLE_RINGS.keys())
def test_every_product_is_the_decomposition_of_the_input_counts(recording, make):
    # The cache is full once the table is built, before any decompose call.
    ring = make()
    assert isinstance(ring, _Recording)
    assert len(ring._decompose_cache) == len(ring.counts) == ring.num_irreducibles ** 2
    read = ring.parse_label
    for (a, b), counts in ring.counts.items():
        by_label = {read(w): m for w, m in counts.items()}
        got = ring.decompose(read(a), read(b))
        assert got == Decomposition(by_label) and ring._decompose(read(a), read(b)) is got, (a, b)
        assert got.entries == oracles.decomposition_entries_reference(by_label)


def test_the_multiplicities_above_one_and_the_zero_entries_are_kept_and_dropped():
    ring = load_ring_json(A4_REPRESENTATIONS)
    t = ring.parse_label("t")
    assert str(ring.decompose(t, t)) == "1 + w + w2 + 2*t"
    z2 = _z2_with_zero_entries()
    e, a = z2.parse_label("e"), z2.parse_label("a")
    assert [z2.decompose(u, v).entries for u in (e, a) for v in (e, a)] == [
        ((e, 1),), ((a, 1),), ((a, 1),), ((e, 1),)
    ]


@pytest.mark.parametrize("make", TABLE_RINGS.values(), ids=TABLE_RINGS.keys())
def test_a_hand_built_label_decomposes_on_a_fresh_table(make):
    # Labels equal to the table's own, but not the objects it made, each
    # as the first question a fresh table is asked.
    built = make()
    labels = built.enumerate(3)[1:]
    for u in labels:
        for v in labels:
            a, b = IrrLabel(u.id, u.dim), IrrLabel(v.id, v.dim)
            assert make().decompose(a, b) == built.decompose(u, v)
            assert make()._decompose(a, b) == built.decompose(u, v)


@pytest.mark.parametrize(
    "bad", [IrrLabel("x", 1), IrrLabel("sgn", 2), IrrLabel("std", 1), IrrLabel("p012", 1)],
    ids=["unknown-id", "dim-2-for-1", "dim-1-for-2", "another-ring's"],
)
def test_a_label_the_table_does_not_hold_is_refused(bad):
    ring = character_ring(S3_CHARACTER_TABLE)
    std = ring.parse_label("std")
    for call in (ring.decompose, ring._decompose):
        for u, v in ((bad, std), (std, bad), (bad, bad)):
            with pytest.raises(UnknownLabel):
                call(u, v)
    assert len(ring._decompose_cache) == 9


def test_equal_products_of_a_group_table_are_one_object():
    for ring in (*builtin_finite_rings()[:5], _z96_reloaded()):
        labels = ring.enumerate(ring.num_irreducibles)
        products = {}
        for u in labels:
            for v in labels:
                dec = ring.decompose(u, v)
                assert products.setdefault(dec.constituents()[0], dec) is dec
        assert sorted(products) == sorted(labels)
    # A table that is no group has one Decomposition per pair.
    ring = character_ring(S3_CHARACTER_TABLE)
    assert len({id(dec) for dec in ring._decompose_cache.values()}) == 9


def test_a_monoid_table_is_not_certified_a_group():
    # Built with the group answers before the certificate required inverses:
    # n_sequence_cocommutative called it totally disconnected, and
    # torsion_subcategory raised InvalidRing ("powers never reach the
    # identity").  It now has the base class's answers.
    ring = FiniteTableProvider("monoid", *_monoid_table())
    a = ring.parse_label("a")
    assert not ring._group
    with pytest.raises(UnsupportedProvider, match="no order oracle"):
        ring.order_oracle(a)
    with pytest.raises(UnsupportedProvider, match="needs a cocommutative"):
        ring.torsion_quotient()
    with pytest.raises(UnsupportedProvider, match="needs a cocommutative"):
        ring.stage_one_exponent(a, 8)
    with pytest.raises(UnsupportedProvider, match="needs a cocommutative"):
        n_sequence_cocommutative(ring)
    scan = torsion_subcategory(ring)
    assert [v.reason for v in scan.verdicts] == [
        "generated subring saturated at 1 labels", "generated subring saturated at 2 labels",
    ]


def _z4():
    """Unit, dims, conjugation and table of Z4 on g0..g3."""
    ids = [f"g{k}" for k in range(4)]
    table = {(ids[a], ids[b]): {ids[(a + b) % 4]: 1} for a in range(4) for b in range(4)}
    return "g0", dict.fromkeys(ids, 1), {ids[k]: ids[-k % 4] for k in range(4)}, table


def _mutant(change):
    """Z4's arguments after ``change(dims, conj, table)`` has edited them."""
    unit, dims, conj, table = _z4()
    change(dims, conj, table)
    return unit, dims, conj, table


def _swap(table, p, q):
    table[p], table[q] = table[q], table[p]


LOADER_DOCUMENTS = {
    **{name: (lambda make=make: dump_ring_json(make())) for name, make in TABLE_RINGS.items()},
    **{f"ideals-Z{'xZ'.join(map(str, orders))}": (lambda orders=orders: dump_ring_json(
        finite_group_ring(_relabelled(orders)))) for orders in [(96,), (4, 12), (2, 24), (24,)]},
    "conj-involution-not-inverse": lambda: _document(*_mutant(lambda d, c, t: c.update(g1="g1", g3="g3"))),
    "conj-moves-the-unit": lambda: _document(*_mutant(lambda d, c, t: c.update(g0="g2", g2="g0"))),
    "left-unit-only": lambda: _document("e", {"e": 1, "a": 1}, {"e": "e", "a": "a"},
                                        {(x, y): {y: 1} for x in "ea" for y in "ea"}),
    # Associative, and each id its own conjugate and inverse, but the unit
    # is no identity.
    "every-product-the-unit": lambda: _document(*_mutant(lambda d, c, t: (
        c.update(g1="g1", g3="g3"), t.update(dict.fromkeys(t, {"g0": 1}))))),
    "swapped-product": lambda: _document(*_mutant(lambda d, c, t: _swap(t, ("g1", "g1"), ("g1", "g2")))),
    "z4-zero-entries": lambda: _document(*_mutant(
        lambda d, c, t: [r.update({"g3": 0, "g0": 0, **r}) for r in t.values()])),
    "z4-zero-entries-conj-not-inverse": lambda: _document(*_mutant(lambda d, c, t: (
        c.update(g1="g1", g3="g3"), [r.update({"g2": 0, **r}) for r in t.values()]))),
    "monoid": lambda: _document(*_monoid_table()),
}

# How each document loads: certified a group, accepted by the harness
# without the certificate, or refused (the swapped product by Light's test).
LOADER_OUTCOMES = {
    **dict.fromkeys(LOADER_DOCUMENTS, "group"),
    **dict.fromkeys(["builtin-5", "characters-S3", "rep-A4"], "table"),
    **dict.fromkeys(["conj-involution-not-inverse", "conj-moves-the-unit", "left-unit-only", "every-product-the-unit",
                     "z4-zero-entries-conj-not-inverse", "monoid"], InvalidRing),
    "swapped-product": NotAGroup,
}


def _outcome(load, source):
    """What ``load(source)`` does: the ring's name, certificate and
    document, or the refusal's type, message and violations."""
    try:
        ring = load(source)
    except FusionError as exc:
        return type(exc), str(exc), getattr(exc, "violations", None)
    return ring.name, ring._group, dump_ring_json(ring)


@pytest.mark.parametrize("case", LOADER_DOCUMENTS)
def test_the_loader_accepts_and_refuses_what_the_harness_does(tmp_path, monkeypatch, case):
    # The reference loader runs check_axioms on every table; the loader
    # skips it on a certified group, and must end every load the same way.
    document = LOADER_DOCUMENTS[case]()
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(document))
    runs = []
    monkeypatch.setattr(tables, "check_axioms", lambda *a, **k: runs.append(1) or check_axioms(*a, **k))
    for source in (document, path):
        want = _outcome(oracles.load_ring_json_reference, source)
        assert _outcome(load_ring_json, source) == want
    expected = LOADER_OUTCOMES[case]
    if expected in ("group", "table"):
        assert want[:2] == (f"json:{path}", expected == "group")
    else:
        assert want[0] is expected
    # The harness runs, on both sources, exactly on the tables that Light's
    # test passes and the certificate does not.
    assert len(runs) == (2 if expected in ("table", InvalidRing) else 0)


@pytest.mark.parametrize("make", TABLE_RINGS.values(), ids=TABLE_RINGS.keys())
def test_a_written_table_is_one_line_that_reloads_to_the_same_ring(tmp_path, make):
    ring = make()
    path = tmp_path / "ring.json"
    data = dump_ring_json(ring, path)
    text = path.read_text()
    assert text == json.dumps(data, sort_keys=True) + "\n" and text.count("\n") == 1
    # The same value as the file an indented dump wrote.
    assert json.loads(text) == data == json.loads(json.dumps(data, indent=2, sort_keys=True))
    loaded = load_ring_json(path)
    labels = ring.enumerate(ring.num_irreducibles)
    assert loaded.enumerate(loaded.num_irreducibles) == labels
    assert loaded._group == ring._group
    for u in labels:
        for v in labels:
            assert loaded.decompose(u, v).entries == ring.decompose(u, v).entries, (u, v)

import itertools
import json

import pytest

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

import oracles


def _s3_group_table():
    elems = list(itertools.permutations(range(3)))
    ids = {g: "p" + "".join(map(str, g)) for g in elems}
    table = {}
    for g in elems:
        for h in elems:
            table[(ids[g], ids[h])] = ids[oracles._perm_compose(g, h)]
    return table


def test_s3_group_ring_from_permutations():
    ring = finite_group_ring(_s3_group_table(), name="S3")
    assert ring.num_irreducibles == 6
    report = check_axioms(ring, Budget(max_irreducibles=6), triple_samples=30, seed=0)
    assert report.ok
    unit = ring.unit()
    orders = sorted(ring.order_oracle(g) for g in ring.enumerate(6))
    assert orders == [1, 2, 2, 2, 3, 3]
    assert ring.order_oracle(unit) == 1


def test_non_group_table_rejected():
    table = _s3_group_table()
    # break inverses: redirect one product so a row loses the identity
    table[("p102", "p102")] = "p102"
    with pytest.raises(NotAGroup):
        finite_group_ring(table, name="broken")


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


def test_load_dump_round_trip(tmp_path):
    ring = character_ring(
        {
            "class_sizes": [1, 3, 2],
            "characters": {"triv": [1, 1, 1], "sgn": [1, -1, 1], "std": [2, 0, -1]},
        },
        name="s3chars",
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

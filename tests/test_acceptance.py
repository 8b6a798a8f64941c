"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines;
under a plain captured run the pass/fail status of each criterion is the
pass/fail status of its test.
"""

import time

from fusionring import Budget
from fusionring.axioms import check_axioms
from fusionring.components import identity_component_report, restriction_hom_dim
from fusionring.rings import (
    au_ring,
    builtin_finite_rings,
    direct_product,
    finite_group_ring,
    free_product,
    parse_word_group_spec,
    so3_ring,
    suq2_ring,
    uq_su11_ring,
    word_group,
)
from fusionring.torsion import (
    ascending_chain_probe,
    central_closure,
    dimension_ideal_recover,
    enumerate_saturated_subrings,
    generated_subring,
    n_sequence_cocommutative,
    normality_consistency,
    torsion_subcategory,
)
from fusionring.uqnumeric import full_verification, verify_conjugate_equations

from oracles import (
    abelian_group_table,
    bf_abelian_subgroups,
    bf_normal_closure_in_ball,
    su2_multiplicity,
)

TOL = 1e-9


def _passline(n, detail):
    print(f"ACCEPTANCE {n} PASS: {detail}")


def test_acceptance_1_axioms_all_providers():
    providers = [
        suq2_ring(),
        so3_ring(),
        uq_su11_ring(),
        au_ring(),
        word_group(parse_word_group_spec("Z2*Z2")),
        free_product(so3_ring(), word_group(parse_word_group_spec("Z2"))),
        direct_product(suq2_ring(), word_group(parse_word_group_spec("Z2"))),
    ]
    budget = Budget(max_irreducibles=30)
    start = time.monotonic()
    for provider in providers:
        report = check_axioms(provider, budget, triple_samples=200, seed=0)
        assert report.ok, (provider.name, [v.to_dict() for v in report.violations])
        assert report.window == 30
        assert report.triples_checked >= 200
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"axiom sweep took {elapsed:.1f}s"
    _passline(1, f"7 providers, 30-label windows, 200 random triples each, "
                 f"0 violations in {elapsed:.1f}s")


def test_acceptance_2_double_ladder_torsion_structure():
    ring = uq_su11_ring()
    scan = torsion_subcategory(ring, Budget(max_irreducibles=20))
    assert [l.id for l in scan.certified] == ["u+0", "u-0"]
    assert scan.subcategory.status == "saturated"

    sign = ring.parse_label("u-0")
    generated = generated_subring(ring, [sign])
    assert generated.labels == (ring.unit(), sign)
    assert generated.status == "saturated"

    central = central_closure(ring, [sign])
    assert ring.parse_label("u-2") in central
    assert set(generated.labels) < set(central.labels)

    assert normality_consistency(ring, scan.certified, 20) == []
    _passline(2, "torsion set {u+0, u-0} certified at bound 20; "
                 "central closure strictly larger; normality probe clean")


def test_acceptance_3_component_group_and_hom_table():
    ring = uq_su11_ring()
    report = identity_component_report(ring, Budget(max_irreducibles=20))
    assert report.verdict == "normal_with_finite_component_group"
    assert report.component_group_order == 2

    pair = {ring.parse_label("u+0"), ring.parse_label("u-0")}
    single = suq2_ring()
    unit = single.unit()
    entries = 0
    for n in range(7):
        for m in range(7):
            for eps in "+-":
                for delta in "+-":
                    u = ring.parse_label(f"u{eps}{n}")
                    v = ring.parse_label(f"u{delta}{m}")
                    got = restriction_hom_dim(ring, pair, u, v)
                    vn = single.parse_label(f"u{n}")
                    vm = single.parse_label(f"u{m}")
                    reference = single.decompose(single.conj(vn), vm).multiplicity(unit)
                    assert got == reference == su2_multiplicity(n, m, 0)
                    entries += 1
    assert entries == 196
    _passline(3, "verdict normal_with_finite_component_group, order 2; "
                 "196 hom-table entries equal the single-ladder reference")


def test_acceptance_4_numeric_battery_both_q():
    start = time.monotonic()
    for q_num, q_den in ((-1, 2), (-2, 3)):
        from fractions import Fraction

        q = Fraction(q_num, q_den)
        report = full_verification(q, 6)
        assert report.ok, report.to_dict()
        names = [name for name, _ok, _d in report.checks]
        assert names == [
            "relations",
            "star",
            "compact-form obstruction",
            "conjugate equations",
            "permutation intertwiner",
            "fusion crosscheck",
        ]
        conj = verify_conjugate_equations(q)
        assert abs(conj.c - (-abs(float(q)))) <= TOL
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"numeric battery took {elapsed:.1f}s"
    _passline(4, f"all checks green at q = -1/2 and -2/3, residual tol {TOL:g}, "
                 f"{elapsed:.1f}s")


def test_acceptance_5_block_chain_probe():
    ring = au_ring()
    report = ascending_chain_probe(ring, 4)
    assert report.strictly_increasing_up_to == 4
    for d in range(1, 4):
        stage, next_stage = report.stages[d - 1], report.stages[d]
        witness = ring.parse_label("U" * (d + 1) + "u" * (d + 1))
        assert witness in next_stage.generators
        assert witness not in set(stage.subcategory.labels)
        assert witness in set(next_stage.subcategory.labels)
    for stage in report.stages:
        for label in stage.subcategory.labels:
            assert label.id.count("U") == label.id.count("u") or label.id == "e"
    _passline(5, "chain strict for d = 1..4 under cap d+3; each deeper balanced "
                 "generator escapes the previous truncated closure; labels balanced")


def test_acceptance_6_cocommutative_torsion_degrees():
    dih = n_sequence_cocommutative(word_group(parse_word_group_spec("Z2*Z2")), Budget(max_irreducibles=24))
    assert dih.degree == 1 and dih.totally_disconnected and dih.stabilized

    mixed_provider = word_group(parse_word_group_spec("Z2*Z"))
    mixed = n_sequence_cocommutative(mixed_provider, Budget(max_irreducibles=24))
    assert mixed.degree == 1 and not mixed.connected and not mixed.totally_disconnected

    free = n_sequence_cocommutative(word_group(parse_word_group_spec("Z*Z")), Budget(max_irreducibles=24))
    assert free.degree == 0 and free.connected

    orders = [2, None]
    brute = bf_normal_closure_in_ball(orders, [((0, 1),)], 6)
    checked = 0
    for label in mixed_provider.enumerate(4096):
        if mixed_provider.label_size(label) > 6:
            continue
        word = _to_tuple_word(label.id)
        assert (mixed_provider.stage_one_exponent(label, 1) == 1) == (word in brute), label.id
        checked += 1
    assert checked > 100
    _passline(6, f"degrees 1/1/0 as predicted; stage-one membership matches the "
                 f"brute-force closure on {checked} words of length <= 6")


def _to_tuple_word(label_id):
    import re

    if label_id == "e":
        return ()
    return tuple(
        ("ab".index(m.group(1)), int(m.group(2) or 1))
        for m in re.finditer(r"([a-z])(?:\^(-?\d+))?", label_id)
    )


def test_acceptance_7_dimension_ideal_recovery():
    total_subsets = 0
    for provider in builtin_finite_rings():
        assert provider.num_irreducibles <= 8
        for subset in enumerate_saturated_subrings(provider):
            report = dimension_ideal_recover(provider, subset)
            assert report.exact, (provider.name, report.to_dict())
            total_subsets += 1
    _passline(7, f"exact recovery for all {total_subsets} saturated subrings "
                 f"across {len(builtin_finite_rings())} builtin rings")


# Rank 3 included: Z2 x Z2 x Z8 has a subgroup that no two elements generate.
LARGER_GROUPS = [(2, 16), (4, 8), (2, 2, 8)]


def test_acceptance_7_on_group_rings_of_32_elements():
    total_subsets = 0
    for orders in LARGER_GROUPS:
        provider = finite_group_ring(abelian_group_table(orders), f"group:{orders}")
        found = enumerate_saturated_subrings(provider, limit=provider.num_irreducibles)
        assert {frozenset(l.id for l in s) for s in found} == bf_abelian_subgroups(orders), orders
        for subset in found:
            report = dimension_ideal_recover(provider, subset)
            assert report.exact, (provider.name, report.to_dict())
            total_subsets += 1
    _passline(7, f"every subgroup of {len(LARGER_GROUPS)} abelian groups of order 32 found "
                 f"by the subring search; exact recovery for all {total_subsets}")


def test_acceptance_8_non_normal_witness():
    ring = free_product(so3_ring(), word_group(parse_word_group_spec("Z2")))
    report = identity_component_report(ring, Budget(max_irreducibles=12))
    assert report.verdict == "non_normal_witness"
    assert report.witness == ring.parse_label("v1.a.v1")
    evidence = report.witness_evidence
    so3 = ring.factors[0]
    assert evidence["restriction"] == {so3.parse_label(f"v{n}"): 1 for n in range(3)}
    assert evidence["invariant_multiplicity"] == 1
    assert evidence["dim"] == 9
    assert report.torsion_degree_bound == 1
    _passline(8, "witness v1.a.v1 with restriction v0+v1+v2, invariant "
                 "multiplicity 1 against dimension 9; torsion degree 1 noted")

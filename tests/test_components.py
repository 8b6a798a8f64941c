"""Identity-component certification, restriction hom-dim tables and
non-normality witnesses."""

import pytest

from fusionring import Budget
from fusionring.components import identity_component_report, restriction_hom_dim
from fusionring.errors import UnsupportedProvider
from fusionring.rings import (
    builtin_finite_rings,
    free_product,
    parse_word_group_spec,
    so3_ring,
    uq_su11_ring,
    word_group,
)

from oracles import su2_multiplicity


def test_double_ladder_component_certificate():
    ring = uq_su11_ring()
    rep = identity_component_report(ring, Budget(max_irreducibles=20))
    assert rep.verdict == "normal_with_finite_component_group"
    assert rep.component_group_order == 2
    assert rep.tensorial and rep.commutative and rep.finite
    assert rep.normality_violations == []
    assert rep.torsion_degree_bound == 1
    assert len(rep.hom_table) == 64


def test_hom_table_matches_ladder_invariant_counting():
    # restricting along the sign pair counts the trivial constituent of
    # ubar (x) v, which the single-ladder weight oracle computes as the
    # multiplicity of the 1-dim label in n (x) m
    ring = uq_su11_ring()
    rep = identity_component_report(ring, Budget(max_irreducibles=20))
    for u, v, value in rep.hom_table:
        (_, n), (_, m) = ring.key_of(u), ring.key_of(v)
        assert value == su2_multiplicity(n, m, 0)


def test_restriction_hom_dim_symmetry_and_norm():
    rings = {p.name: p for p in builtin_finite_rings()}
    chars = rings["characters:S3"]
    labels = chars.enumerate(3)
    full = set(labels)
    for u in labels:
        for v in labels:
            duv = restriction_hom_dim(chars, full, u, v)
            dvu = restriction_hom_dim(chars, full, v, u)
            assert duv == dvu
        assert restriction_hom_dim(chars, full, u, u) == u.dim * u.dim


def test_restriction_hom_dim_on_an_unstable_subset():
    # {e, a} is not conjugation-stable in the free product; the count is
    # still the sum over S, here the unit in a (x) a.
    ring = free_product(so3_ring(), word_group(parse_word_group_spec("Z2")))
    a = ring.parse_label("a")
    assert restriction_hom_dim(ring, [ring.unit(), a], a, a) == 1


def test_free_product_yields_a_non_normal_witness():
    ring = free_product(so3_ring(), word_group(parse_word_group_spec("Z2")))
    rep = identity_component_report(ring, Budget(max_irreducibles=12))
    assert rep.verdict == "non_normal_witness"
    assert rep.witness == ring.parse_label("v1.a.v1")
    so3 = ring.factors[0]
    assert rep.witness_evidence == {
        "factor": 0,
        "factor_name": "so3",
        "restriction": {so3.parse_label(f"v{n}"): 1 for n in range(3)},
        "invariant_multiplicity": 1,
        "dim": 9,
    }
    assert rep.torsion_degree_bound == 1
    assert "factor 0" in rep.torsion_degree_note


def test_witness_restriction_disagrees_with_dimension():
    # the recorded evidence is exactly the refutation: a normal torsion
    # restriction would put the full dimension on the invariant part
    ring = free_product(so3_ring(), word_group(parse_word_group_spec("Z2")))
    rep = identity_component_report(ring, Budget(max_irreducibles=12))
    witness = rep.witness
    restriction = ring.factor_restriction(witness, rep.witness_evidence["factor"])
    unit0 = ring.factors[0].unit()
    assert restriction.multiplicity(unit0) == 1
    assert witness.dim == 9
    assert sum(c * l.dim for l, c in restriction) == witness.dim


def test_group_ring_component_order_is_group_order():
    rings = {p.name: p for p in builtin_finite_rings()}
    rep = identity_component_report(rings["group:S3"])
    assert rep.verdict == "normal_with_finite_component_group"
    assert rep.component_group_order == 6
    assert not rep.commutative
    abelian = identity_component_report(rings["group:V4"])
    assert abelian.component_group_order == 4
    assert abelian.commutative


def test_factor_restriction_needs_a_free_product():
    with pytest.raises(UnsupportedProvider):
        uq_su11_ring().factor_restriction(uq_su11_ring().unit(), 0)


def test_component_report_serializes():
    rep = identity_component_report(uq_su11_ring(), Budget(max_irreducibles=20))
    d = rep.to_dict()
    assert d["verdict"] == "normal_with_finite_component_group"
    assert d["component_group_order"] == 2
    assert d["torsion_set"]["labels"] == ["u+0", "u-0"]

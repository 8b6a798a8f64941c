"""Identity-component certification, hom-dim tables, connectedness probes."""

import warnings

import pytest

from fusionring import Budget, VirtualElement
from fusionring.components import (
    ConsistencyWarning,
    ComponentReport,
    connectedness_probe,
    identity_component_report,
    restriction_hom_dim,
    s_part,
)
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


def _ladder_index(label_id):
    return int(label_id[2:])


def test_double_ladder_component_certificate():
    ring = uq_su11_ring()
    rep = identity_component_report(ring, Budget(max_irreducibles=20), hom_table_bound=14)
    assert rep.verdict == "normal_with_finite_component_group"
    assert rep.component_group_order == 2
    assert rep.tensorial and rep.commutative and rep.finite
    assert rep.normality_violations == []
    assert rep.torsion_degree_bound == 1
    assert len(rep.hom_table) == 196


def test_hom_table_matches_ladder_invariant_counting():
    # restricting along the sign pair counts the trivial constituent of
    # ubar (x) v, which the single-ladder weight oracle computes as the
    # multiplicity of the 1-dim label in n (x) m
    ring = uq_su11_ring()
    rep = identity_component_report(ring, Budget(max_irreducibles=20), hom_table_bound=14)
    for uid, vid, value in rep.hom_table:
        n, m = _ladder_index(uid), _ladder_index(vid)
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


def test_s_part_projects_a_product():
    ring = uq_su11_ring()
    u1 = ring.parse_label("u+1")
    pair = {ring.parse_label("u+0"), ring.parse_label("u-0")}
    prod = ring.multiply_virtual(VirtualElement.of(u1), VirtualElement.of(u1))
    proj = s_part(ring, pair, prod)
    assert {l.id: c for l, c in proj.coeffs.items()} == {"u-0": 1}
    with pytest.raises(ValueError):
        s_part(ring, pair, prod - VirtualElement.of(ring.parse_label("u-2")) * 2)


def test_consistency_warning_for_unstable_subset():
    ring = free_product(so3_ring(), word_group(parse_word_group_spec("Z2")))
    a = ring.parse_label("a")
    s = [ring.unit(), a]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = restriction_hom_dim(ring, s, a, a, check_consistency=True)
    assert value == 1
    assert any(issubclass(w.category, ConsistencyWarning) for w in caught)


def test_free_product_yields_a_non_normal_witness():
    ring = free_product(so3_ring(), word_group(parse_word_group_spec("Z2")))
    rep = identity_component_report(ring, Budget(max_irreducibles=12))
    assert rep.verdict == "non_normal_witness"
    assert rep.witness == "v1.a.v1"
    assert rep.witness_evidence == {
        "factor": 0,
        "factor_name": "so3",
        "restriction": {"v0": 1, "v1": 1, "v2": 1},
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
    witness = ring.parse_label(rep.witness)
    restriction = ring.factor_restriction(witness, rep.witness_evidence["factor"])
    unit0 = ring.factors[0].unit()
    assert restriction.coeff(unit0) == 1
    assert witness.dim == 9
    assert sum(c * l.dim for l, c in restriction.coeffs.items()) == witness.dim


def test_group_ring_component_order_is_group_order():
    rings = {p.name: p for p in builtin_finite_rings()}
    rep = identity_component_report(rings["group:S3"])
    assert rep.verdict == "normal_with_finite_component_group"
    assert rep.component_group_order == 6
    assert not rep.commutative
    abelian = identity_component_report(rings["group:V4"])
    assert abelian.component_group_order == 4
    assert abelian.commutative


def test_connectedness_probe_verdicts():
    found = connectedness_probe(uq_su11_ring(), Budget(max_irreducibles=12))
    assert found.verdict == "torsion_found"
    assert found.witness == "u-0"
    free = connectedness_probe(word_group(parse_word_group_spec("Z*Z")), Budget(max_irreducibles=12))
    assert free.verdict == "no_torsion_found"
    assert free.witness is None
    assert free.unknowns == []


def test_factor_restriction_needs_a_free_product():
    with pytest.raises(UnsupportedProvider):
        uq_su11_ring().factor_restriction(uq_su11_ring().unit(), 0)


def test_component_report_serializes():
    rep = identity_component_report(uq_su11_ring(), Budget(max_irreducibles=20))
    d = rep.to_dict()
    assert d["verdict"] == "normal_with_finite_component_group"
    assert d["component_group_order"] == 2
    assert d["torsion_set"]["labels"] == ["u+0", "u-0"]

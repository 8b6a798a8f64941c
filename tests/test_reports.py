"""Report serialization: pinned ``to_dict()`` values of the reports the CLI
never prints, a JSON round trip of every report class, and every field
that names an irreducible seen holding labels, which ``to_dict()`` writes
as ids."""

import dataclasses
import json
from fractions import Fraction
from pathlib import Path

import pytest

from fusionring import Budget, InvalidRing, IrrLabel
from fusionring.axioms import check_axioms
from fusionring.cli import parse_provider
from fusionring.components import identity_component_report
from fusionring.core import Report
from fusionring.rings import (
    builtin_finite_rings,
    load_ring_json,
    uq_su11_ring,
)
from fusionring.torsion import (
    ascending_chain_probe,
    dimension_ideal_recover,
    n_sequence_cocommutative,
    torsion_subcategory,
)
from fusionring.uqnumeric import (
    build_u,
    check_star,
    full_verification,
    fusion_crosscheck,
    intertwiner_space,
    tensor_rep,
    unitarizability_witness,
    verify_conjugate_equations,
    verify_permutation_intertwiner,
)

Q = Fraction(-1, 2)


def approx(values):
    return pytest.approx(values, rel=1e-9, abs=1e-12)


def test_star_reports_are_pinned():
    assert check_star(build_u(1, 1, Q)).to_dict() == {"form": "su11", "residual": 0.0, "ok": True}
    assert check_star(build_u(1, 2, Q), "su2").to_dict() == {
        "form": "su2", "residual": approx(10 ** 0.5), "ok": False,
    }


def test_intertwiner_space_report_is_pinned():
    # The invariant vector of u(+,1) (x) u(-,1): dimension 1, one singular
    # value at rounding level.
    product = tensor_rep(build_u(1, 1, Q), build_u(-1, 1, Q))
    space = intertwiner_space(product, build_u(1, 0, Q))
    assert space.to_dict() == {
        "dim": 1,
        "singular_values": approx([3.3911649915626336, 5 ** 0.5, 2.1794494717703365, 0.0]),
    }


def test_conjugate_equations_and_permutation_reports_are_pinned():
    assert verify_conjugate_equations(Q).to_dict() == {
        "q": -0.5, "c": [-0.5, 0.0], "norm_sq": 1.25,
        "invariance_residual": approx(0.0), "snake_residual": 0.0, "ok": True,
    }
    assert verify_permutation_intertwiner(2, Q).to_dict() == {
        "n": 2, "q": -0.5, "residual": 0.0, "hom_dim": 1, "ok": True,
    }


def test_fusion_crosscheck_report_is_pinned():
    assert fusion_crosscheck(1, Q).to_dict() == {
        "q": -0.5, "n_max": 1, "pairs_checked": 16, "mismatches": [], "ok": True,
    }


def test_unitarizability_witness_reports_are_pinned():
    assert unitarizability_witness(1, 2, Q, form="su2").to_dict() == {
        "verdict": "obstruction",
        "form": "su2",
        "evidence": {
            "kind": "ef_spectrum",
            "detail": "eigenvalue -2.5 of E F at basis index 0 has the wrong sign for su2 (needs >= 0)",
            "index": 0,
            "eigenvalue": -2.5,
        },
    }
    assert unitarizability_witness(1j, 3, Q, form="su11").to_dict() == {
        "verdict": "unitarizable",
        "form": "su11",
        "evidence": {"kind": "diagonal_unitarizer"},
        "T": approx([1.0, 0.4364357804719847, 0.4364357804719847, 1.0]),
    }


WITNESSES = {
    "k_spectrum": (1, 1, Q, "su11"),
    "ef_spectrum": (1, 2, Q, "su2"),
    "diagonal_unitarizer": (1j, 3, Q, "su11"),
}


@pytest.mark.parametrize("kind", WITNESSES)
def test_unitarizability_witnesses_are_json(kind):
    report = unitarizability_witness(*WITNESSES[kind])
    assert report.evidence["kind"] == kind
    d = report.to_dict()
    assert json.loads(json.dumps(d)) == d


def test_k_spectrum_witness_writes_complex_values_as_pairs():
    # The K diagonal is purely imaginary: +-i q^(+-1/2) scaled to level 1.
    evidence = unitarizability_witness(*WITNESSES["k_spectrum"]).to_dict()["evidence"]
    assert evidence["k_diagonal"] == [[0.0, approx(0.5 ** 0.5)], [0.0, approx(-(2 ** 0.5))]]


@pytest.fixture(scope="module")
def examples() -> list[Report]:
    """Reports from real library calls, with every report nested in them.

    Their label fields hold labels (see ``LABEL_FIELDS``): the component
    reports carry a witness and its restriction on one ring and a hom
    table on the other, and the dimension ideal recovers a subgroup."""
    rings = {ring.name: ring for ring in builtin_finite_rings()}
    s3 = rings["group:S3"]
    free = parse_provider("free(so3,word:Z2)")
    budget = Budget(max_irreducibles=8, max_label_size=4)
    with pytest.raises(InvalidRing) as err:
        load_ring_json(Path(__file__).parent / "fixtures" / "bad_ring.json")
    top = [
        check_axioms(free, budget, triple_samples=10),
        *err.value.violations,
        torsion_subcategory(uq_su11_ring(), budget),
        n_sequence_cocommutative(rings["group:S3"], budget),
        ascending_chain_probe(free, 2, budget),
        dimension_ideal_recover(s3, [s3.unit(), s3.parse_label("p120"), s3.parse_label("p201")]),
        identity_component_report(free, budget),
        identity_component_report(uq_su11_ring(), budget),
        full_verification(Q, 1),
        check_star(build_u(1, 1, Q)),
        intertwiner_space(tensor_rep(build_u(1, 1, Q), build_u(-1, 1, Q)), build_u(1, 0, Q)),
        verify_conjugate_equations(Q),
        verify_permutation_intertwiner(1, Q),
        fusion_crosscheck(1, Q),
        *(unitarizability_witness(*args) for args in WITNESSES.values()),
    ]
    found = []

    def walk(value):
        if isinstance(value, Report):
            found.append(value)
            value = [getattr(value, f.name) for f in dataclasses.fields(value)]
        if isinstance(value, (list, tuple)):
            for item in value:
                walk(item)

    walk(top)
    return found


def _report_classes(base=Report) -> list[type]:
    found = []
    for cls in base.__subclasses__():
        found += [cls, *_report_classes(cls)]
    return found


@pytest.mark.parametrize("cls", _report_classes(), ids=lambda cls: cls.__name__)
def test_every_report_round_trips_through_json(cls, examples):
    mine = [r for r in examples if type(r) is cls]
    assert mine, f"no example of {cls.__name__}: add a library call that makes one to examples()"
    for report in mine:
        d = report.to_dict()
        assert json.loads(json.dumps(d)) == d


# Every report field that names irreducibles, with the examples' values
# holding labels in it: a field of labels is what ``to_dict`` turns into ids.
LABEL_FIELDS = [
    ("AxiomViolation", "labels"),
    ("NormalityViolation", "member"),
    ("NormalityViolation", "conjugator"),
    ("NormalityViolation", "product"),
    ("ChainStage", "generators"),
    ("ChainStage", "witnesses"),
    ("DimensionIdealReport", "given"),
    ("DimensionIdealReport", "recovered"),
    ("ComponentReport", "unknowns"),
    ("ComponentReport", "witness"),
    ("ComponentReport", "witness_evidence"),
    ("ComponentReport", "hom_table"),
]


def _labels_and_ids(value):
    """``value`` with every label replaced by its id (dict keys too), and
    whether it held a label at all."""
    if isinstance(value, IrrLabel):
        return value.id, True
    if isinstance(value, dict):
        pairs = [(_labels_and_ids(k), _labels_and_ids(v)) for k, v in value.items()]
        return {k: v for (k, _), (v, _) in pairs}, any(a or b for (_, a), (_, b) in pairs)
    if isinstance(value, (list, tuple)):
        items = [_labels_and_ids(v) for v in value]
        return [v for v, _ in items], any(held for _, held in items)
    return value, False


@pytest.mark.parametrize("cls, name", LABEL_FIELDS, ids=lambda x: x)
def test_label_fields_hold_labels_and_are_written_as_ids(cls, name, examples):
    held = False
    for report in (r for r in examples if type(r).__name__ == cls):
        ids, has_labels = _labels_and_ids(getattr(report, name))
        held |= has_labels
        assert report.to_dict()[name] == ids
    assert held, f"no example of {cls}.{name} holds a label: add a library call that makes one"

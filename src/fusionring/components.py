"""Identity-component analysis built on top of the torsion machinery.

The torsion part of a ring plays the role of the functions on a
component group; these helpers measure how far it is from being a
finite, normal, commutative piece, and either certify that structure or
exhibit a witness against normality.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Budget, FusionProvider, IrrLabel, Report
from .torsion import (
    SATURATED,
    NormalityViolation,
    Subcategory,
    TorsionScanReport,
    _conjugate,
    _forced,
    normality_consistency,
    torsion_subcategory,
)

__all__ = [
    "restriction_hom_dim",
    "identity_component_report",
    "ComponentReport",
]

_HOM_TABLE_WINDOW = 8
# labels of each free factor that ``_adjoint_degree_note`` searches for a
# nontrivial one-dimensional label
_ADJOINT_PROBE = 16


def restriction_hom_dim(provider: FusionProvider, s_labels, u: IrrLabel, v: IrrLabel) -> int:
    """Dimension of the intertwiner space of u and v after restricting
    along the subcategory S: ``sum over w in S of N^w_{ubar v} dim(w)``.

    Symmetric in u and v, and equal to dim(u)^2 when u = v lies in S.
    The count is a hom dimension only when S is conjugation-stable, which
    ``normality_consistency`` probes over a window; this function does not
    check it.
    """
    s_set = set(s_labels)
    dec = provider.decompose(provider.conj(u), v)
    return sum(m * w.dim for w, m in dec if w in s_set)


@dataclass
class ComponentReport(Report):
    provider: str
    torsion_set: Subcategory
    unknowns: tuple[IrrLabel, ...]
    tensorial: bool
    commutative: bool
    finite: bool | None
    normality_violations: list[NormalityViolation]
    verdict: str
    witness: IrrLabel | None = None
    witness_evidence: dict | None = None
    component_group_order: int | None = None
    hom_table: list[list] | None = None
    torsion_degree_bound: int | None = None
    torsion_degree_note: str = ""
    inconclusive_reason: str = ""


def _non_normal_witness(provider, violations) -> IrrLabel:
    """The forced conjugate behind the first violation that has one, else
    the first constituent of the first violation's product."""
    fallback = None
    for vio in violations:
        product = _conjugate(provider, vio.conjugator, vio.member)
        forced = _forced(product)
        if forced is not None:
            return forced
        if fallback is None:
            fallback = product.entries[0][0]
    return fallback


def _witness_evidence(provider, witness: IrrLabel) -> dict | None:
    for k, factor in enumerate(provider.free_factors()):
        restriction = provider.factor_restriction(witness, k)
        invariant = restriction.multiplicity(factor.unit())
        if invariant != witness.dim:
            return {
                "factor": k,
                "factor_name": factor.name,
                "restriction": dict(restriction),
                "invariant_multiplicity": invariant,
                "dim": witness.dim,
            }
    return None


def _adjoint_degree_note(provider) -> tuple[int | None, str]:
    """Degree-one note when some free factor's window has no nontrivial 1-dim label."""
    for k, factor in enumerate(provider.free_factors()):
        window = factor.enumerate(_ADJOINT_PROBE)
        funit = factor.unit()
        if not any(l.dim == 1 and l != funit for l in window):
            return 1, (
                f"factor {k} ({factor.name}) shows no nontrivial 1-dim label in a "
                f"{_ADJOINT_PROBE}-label window, so the torsion-closure sequence stops after one step"
            )
    return None, ""


def identity_component_report(provider: FusionProvider, budget: Budget | None = None) -> ComponentReport:
    """Certify the torsion part as a finite normal commutative piece, or refute it.

    Runs the torsion scan, re-tests tensor closure and pairwise
    commutativity of the certified set, probes conjugation stability
    over the window, and settles on one of three verdicts: the certified
    structure (with component group order and a restriction hom-dim
    table over the first ``_HOM_TABLE_WINDOW`` window labels), a
    concrete non-normality witness, or inconclusive.
    """
    budget = budget or Budget()
    scan: TorsionScanReport = torsion_subcategory(provider, budget)
    s_labels = list(scan.subcategory.labels)
    s_set = set(s_labels)

    tensorial = scan.subcategory.status == SATURATED
    commutative = all(
        provider.decompose(a, b) == provider.decompose(b, a)
        for a in s_labels
        for b in s_labels
    )
    violations = normality_consistency(provider, s_set, budget.max_irreducibles)
    report = ComponentReport(
        provider=provider.name,
        torsion_set=scan.subcategory,
        unknowns=tuple(scan.unknowns),
        tensorial=tensorial,
        commutative=commutative,
        finite=True if tensorial else None,
        normality_violations=violations,
        verdict="inconclusive",
    )

    if violations:
        witness = _non_normal_witness(provider, violations)
        report.verdict = "non_normal_witness"
        report.witness = witness
        report.witness_evidence = _witness_evidence(provider, witness)
        report.torsion_degree_bound, report.torsion_degree_note = _adjoint_degree_note(provider)
    elif tensorial:
        window = provider.enumerate(min(budget.max_irreducibles, _HOM_TABLE_WINDOW))
        report.verdict = "normal_with_finite_component_group"
        report.component_group_order = sum(l.dim * l.dim for l in s_labels)
        report.hom_table = [
            [u, v, restriction_hom_dim(provider, s_set, u, v)]
            for u in window
            for v in window
        ]
        report.torsion_degree_bound = 1
        report.torsion_degree_note = (
            "certified torsion set is finite and conjugation-stable over the window; "
            "its closure sequence stabilizes after one step"
        )
    else:
        report.inconclusive_reason = "certified torsion set failed closure re-verification"
    return report

"""Structural axiom checks for fusion-ring providers.

The harness is the trust boundary for every backend: exact multiset
identities over an enumeration window, plus seeded random associativity
triples.  Violations come back as data, never as exceptions, so callers
can report them or fail a load.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .core import Budget, FusionProvider, canonical_sort

__all__ = [
    "AxiomViolation",
    "AxiomReport",
    "check_axioms",
    "DEFAULT_TRIPLE_SAMPLES",
    "DEFAULT_SEED",
]

DEFAULT_TRIPLE_SAMPLES = 200
DEFAULT_SEED = 0

# Exhaustive associativity on a small prefix of the window; sampling covers
# the rest.
_EXHAUSTIVE_TRIPLE_PREFIX = 4


@dataclass(frozen=True)
class AxiomViolation:
    axiom: str
    labels: tuple[str, ...]
    detail: str

    def to_dict(self) -> dict:
        return {"axiom": self.axiom, "labels": list(self.labels), "detail": self.detail}


@dataclass
class AxiomReport:
    provider: str
    window: int
    pairs_checked: int
    triples_checked: int
    seed: int
    violations: list[AxiomViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "provider": self.provider,
            "window": self.window,
            "pairs_checked": self.pairs_checked,
            "triples_checked": self.triples_checked,
            "seed": self.seed,
            "ok": self.ok,
            "violations": [v.to_dict() for v in self.violations],
        }


def check_axioms(
    provider: FusionProvider,
    budget: Budget | None = None,
    *,
    triple_samples: int = DEFAULT_TRIPLE_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> AxiomReport:
    """Verify ring axioms over ``enumerate(budget.max_irreducibles)``.

    Checked exactly, pairwise over the window: dimension identity, unit
    law, conjugation involution, the unit fusion rule
    ``N^1_{uv} = [v == conj(u)]``, Frobenius reciprocity and conjugate
    reversal for every constituent of ``u (x) v``.  Associativity is
    checked as exact equality of integer combinations on an exhaustive
    small prefix plus ``triple_samples`` seeded random triples.
    """
    budget = budget or Budget()
    window = provider.enumerate(budget.max_irreducibles)
    unit = provider.unit()
    report = AxiomReport(
        provider=provider.name,
        window=len(window),
        pairs_checked=0,
        triples_checked=0,
        seed=seed,
    )
    bad = report.violations.append

    if unit not in window:
        bad(AxiomViolation("enumeration", (unit.id,), "unit missing from enumeration window"))
    if provider.conj(unit) != unit:
        bad(AxiomViolation("conjugation", (unit.id,), "unit is not self-conjugate"))

    for u in window:
        cu = provider.conj(u)
        if provider.conj(cu) != u:
            bad(AxiomViolation("conjugation", (u.id,), f"conj(conj({u.id})) = {provider.conj(cu).id}"))
        if cu.dim != u.dim:
            bad(AxiomViolation("conjugation", (u.id,), f"conj changes dim {u.dim} -> {cu.dim}"))
        left = provider.decompose(unit, u)
        right = provider.decompose(u, unit)
        single = {u: 1}
        if dict(left.entries) != single:
            bad(AxiomViolation("unit-law", (u.id,), f"1 (x) {u.id} != {u.id}"))
        if dict(right.entries) != single:
            bad(AxiomViolation("unit-law", (u.id,), f"{u.id} (x) 1 != {u.id}"))

    for u in window:
        ubar = provider.conj(u)
        for v in window:
            report.pairs_checked += 1
            dec = provider.decompose(u, v)
            got_dim = dec.total_dim()
            want_dim = u.dim * v.dim
            if got_dim != want_dim:
                bad(AxiomViolation(
                    "dimension", (u.id, v.id),
                    f"sum mult*dim = {got_dim}, expected {want_dim}"))
            unit_mult = dec.multiplicity(unit)
            want_unit = 1 if v == ubar else 0
            if unit_mult != want_unit:
                bad(AxiomViolation(
                    "unit-multiplicity", (u.id, v.id),
                    f"N^1 = {unit_mult}, expected {want_unit}"))
            vbar = provider.conj(v)
            for w, mult in dec:
                wbar = provider.conj(w)
                frob1 = provider.multiplicity(v, ubar, w)
                frob2 = provider.multiplicity(u, w, vbar)
                rev = provider.multiplicity(wbar, vbar, ubar)
                if frob1 != mult:
                    bad(AxiomViolation(
                        "frobenius", (u.id, v.id, w.id),
                        f"N^{w.id} = {mult} but N^{v.id}_{{{ubar.id},{w.id}}} = {frob1}"))
                if frob2 != mult:
                    bad(AxiomViolation(
                        "frobenius", (u.id, v.id, w.id),
                        f"N^{w.id} = {mult} but N^{u.id}_{{{w.id},{vbar.id}}} = {frob2}"))
                if rev != mult:
                    bad(AxiomViolation(
                        "conjugate-reversal", (u.id, v.id, w.id),
                        f"N^{w.id} = {mult} but conjugate-reversed = {rev}"))

    prefix = window[:_EXHAUSTIVE_TRIPLE_PREFIX]
    triples = [(u, v, w) for u in prefix for v in prefix for w in prefix]
    rng = random.Random(seed)
    if window:
        for _ in range(triple_samples):
            triples.append((rng.choice(window), rng.choice(window), rng.choice(window)))
    for u, v, w in triples:
        report.triples_checked += 1
        uu, vv, ww = {u: 1}, {v: 1}, {w: 1}
        lhs = provider.multiply_virtual(provider.multiply_virtual(uu, vv), ww)
        rhs = provider.multiply_virtual(uu, provider.multiply_virtual(vv, ww))
        if lhs != rhs:
            diff = {lab: lhs.get(lab, 0) - rhs.get(lab, 0) for lab in lhs.keys() | rhs.keys()}
            off = ", ".join(f"{lab.id}:{diff[lab]:+d}" for lab in canonical_sort(diff) if diff[lab])
            bad(AxiomViolation("associativity", (u.id, v.id, w.id), f"difference {off}"))

    return report

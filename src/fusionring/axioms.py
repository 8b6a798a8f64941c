"""Structural axiom checks for fusion-ring providers.

The harness is the trust boundary for every backend: exact multiset
identities over an enumeration window, plus seeded random associativity
triples.  Violations come back as data, never as exceptions, so callers
can report them or fail a load.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .core import Budget, FusionProvider, IrrLabel, Report, canonical_sort, constituents_of
from .errors import _clip

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
class AxiomViolation(Report):
    axiom: str
    labels: tuple[IrrLabel, ...]
    detail: str


@dataclass
class AxiomReport(Report):
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
        return {**super().to_dict(), "ok": self.ok}


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

    The products read from ``provider.decompose``: ``1 (x) u`` and
    ``u (x) 1`` for every window label; for every window pair, ``u (x) v``
    and, when it has a constituent, ``vbar (x) ubar`` (its dict serves
    every constituent's reversal); for every constituent ``w``,
    ``ubar (x) w`` and ``w (x) vbar``, each read once per call and kept in
    a dict local to it (per ``(u, w)`` and per ``(v, w)``); and the
    products that ``multiply_virtual`` forms for both associations of
    each triple.  Each label's conjugate is asked of the provider once
    per call.
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
    decompose = provider.decompose
    conj: dict[IrrLabel, IrrLabel] = {}

    def bar(u: IrrLabel) -> IrrLabel:
        """``provider.conj(u)``, asked once per label and call."""
        if u not in conj:
            conj[u] = provider.conj(u)
        return conj[u]

    if unit not in window:
        bad(AxiomViolation("enumeration", (unit,), "unit missing from enumeration window"))
    if bar(unit) != unit:
        bad(AxiomViolation("conjugation", (unit,), "unit is not self-conjugate"))

    for u in window:
        cu = bar(u)
        if bar(cu) != u:
            bad(AxiomViolation("conjugation", (u,), f"conj(conj({_clip(u.id)})) = {_clip(bar(cu).id)}"))
        if cu.dim != u.dim:
            bad(AxiomViolation("conjugation", (u,), f"conj changes dim {u.dim} -> {cu.dim}"))
        single = {u: 1}
        if constituents_of(decompose(unit, u)) != single:
            bad(AxiomViolation("unit-law", (u,), f"1 (x) {_clip(u.id)} != {_clip(u.id)}"))
        if constituents_of(decompose(u, unit)) != single:
            bad(AxiomViolation("unit-law", (u,), f"{_clip(u.id)} (x) 1 != {_clip(u.id)}"))

    # Constituent dicts of ubar (x) w for the current u and of w (x) vbar
    # for each v, by w: each is read from the provider once per call.
    w_vbar_of: dict[IrrLabel, dict[IrrLabel, dict[IrrLabel, int]]] = {v: {} for v in window}
    for u in window:
        ubar = bar(u)
        ubar_w: dict[IrrLabel, dict[IrrLabel, int]] = {}
        for v in window:
            report.pairs_checked += 1
            dec = decompose(u, v)
            got_dim = dec.total_dim()
            want_dim = u.dim * v.dim
            if got_dim != want_dim:
                bad(AxiomViolation(
                    "dimension", (u, v),
                    f"sum mult*dim = {got_dim}, expected {want_dim}"))
            unit_mult = dec.multiplicity(unit)
            want_unit = 1 if v == ubar else 0
            if unit_mult != want_unit:
                bad(AxiomViolation(
                    "unit-multiplicity", (u, v),
                    f"N^1 = {unit_mult}, expected {want_unit}"))
            vbar = bar(v)
            # vbar (x) ubar serves every constituent; a product with none
            # reads nothing.
            reversal = constituents_of(decompose(vbar, ubar)) if dec else {}
            w_vbar = w_vbar_of[v]
            for w, mult in constituents_of(dec).items():
                wbar = conj.get(w) or bar(w)  # a label is a non-empty tuple
                left = ubar_w.get(w)
                if left is None:
                    left = ubar_w[w] = constituents_of(decompose(ubar, w))
                right = w_vbar.get(w)
                if right is None:
                    right = w_vbar[w] = constituents_of(decompose(w, vbar))
                frob1 = left.get(v, 0)
                frob2 = right.get(u, 0)
                rev = reversal.get(wbar, 0)
                if frob1 != mult:
                    bad(AxiomViolation(
                        "frobenius", (u, v, w),
                        f"N^{_clip(w.id)} = {mult} but "
                        f"N^{_clip(v.id)}_{{{_clip(ubar.id)},{_clip(w.id)}}} = {frob1}"))
                if frob2 != mult:
                    bad(AxiomViolation(
                        "frobenius", (u, v, w),
                        f"N^{_clip(w.id)} = {mult} but "
                        f"N^{_clip(u.id)}_{{{_clip(w.id)},{_clip(vbar.id)}}} = {frob2}"))
                if rev != mult:
                    bad(AxiomViolation(
                        "conjugate-reversal", (u, v, w),
                        f"N^{_clip(w.id)} = {mult} but conjugate-reversed = {rev}"))

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
            off = ", ".join(f"{_clip(lab.id)}:{diff[lab]:+d}" for lab in canonical_sort(diff) if diff[lab])
            bad(AxiomViolation("associativity", (u, v, w), f"difference {off}"))

    return report

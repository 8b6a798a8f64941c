"""Torsion analysis: closures, per-label verdicts, chain and ideal probes.

Everything here works over a budgeted window of the ring and reports its
own truncation honestly: a closure is only ``saturated`` after a final
re-verification pass, and per-label torsion verdicts degrade to
``unknown`` rather than guessing when the budget runs out.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import chain, filterfalse, islice, repeat

from .core import (
    Budget,
    Decomposition,
    FusionProvider,
    IrrLabel,
    Report,
    _bilinear,
    _plain,
    canonical_sort,
    constituents_of,
)
from .errors import NotFinite, NotSaturated, UnsupportedProvider, _quote
from .lattice import IntegerLattice

__all__ = [
    "Subcategory",
    "TorsionVerdict",
    "TorsionScanReport",
    "NormalityViolation",
    "NSequenceReport",
    "ChainStage",
    "ChainProbeReport",
    "DimensionIdealReport",
    "generated_subring",
    "central_closure",
    "normal_forcing_closure",
    "normality_consistency",
    "is_torsion",
    "torsion_subcategory",
    "n_sequence_cocommutative",
    "ascending_chain_probe",
    "dimension_ideal_recover",
    "enumerate_saturated_subrings",
    "EXPONENT_BOUND",
]

EXPONENT_BOUND = 64
# The limit of every window that the scans below list: a finite group that
# ``n_sequence_cocommutative`` scans whole, and the budget's window of the
# torsion scan, the n-sequence, the conjugation closures and the normality
# probe.  On word:Z2*Z a window of 10^5 took 0.93 s and one of 10^6 took
# 10.6 s on a 2-core x86-64 machine.  The number is written only here, so
# the scans cannot disagree (tests/test_hygiene.py).
_SCAN_LIMIT = 10_000


def _window(provider: FusionProvider, count: int, limit: int, scope: str, noun: str = "labels") -> list[IrrLabel]:
    """``provider.enumerate`` of the smaller of ``count`` and the ring's
    size: the one window rule of every budgeted scan.

    A window of more than ``limit`` is refused with UnsupportedProvider
    before any label is listed; ``scope`` says what is scanned over which
    window, and ``noun`` what the window holds.
    """
    count = min(count, provider.num_irreducibles)
    if count > limit:
        raise UnsupportedProvider(
            f"{provider.name}: {scope}, and {count} {noun} are more than the limit of {limit}"
        )
    return provider.enumerate(count)


SATURATED = "saturated"
BUDGET_EXCEEDED = "budget_exceeded"


@dataclass(frozen=True)
class Subcategory(Report):
    """A conj-closed label set with its closure kind and truncation status.

    ``frontier`` lists what the final verification sweep and rule reach
    outside the labels, plus the generators that were not admitted.
    For every closure and for the torsion set it is empty exactly when
    the status is ``saturated``: ``_verified`` decides both.  The one
    exception is the n-sequence's stage on an infinite group, read off a
    window: it is ``budget_exceeded`` with no frontier.
    """

    kind: str
    labels: tuple[IrrLabel, ...]
    status: str
    frontier: tuple[IrrLabel, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(canonical_sort(self.labels)))
        object.__setattr__(self, "frontier", tuple(canonical_sort(self.frontier)))

    def __contains__(self, label: IrrLabel) -> bool:
        return label in set(self.labels)

    def to_dict(self) -> dict:
        out = super().to_dict()
        if not self.frontier:
            del out["frontier"]
        return out


def _sweep(provider: FusionProvider, new, old=()) -> dict[IrrLabel, object]:
    """``conj(u)`` for u in ``new``, then every constituent of ``a (x) b``
    for a in ``old`` and b in ``new``, then for a in ``new`` and b in
    ``old + new``, as one dict: its keys are each label reached, once, in
    the order first reached (its values mean nothing).

    ``old`` and ``new`` are snapshots, visited in their own order.  With
    ``old`` empty this is the full sweep: a set is closed under conj and
    products exactly when no key lies outside it, and its first key
    outside is the first escape.  With ``old`` already swept, it visits
    exactly the conjugates and pairs that involve ``new``.  Each product's
    constituent dict is merged with ``dict.update``, in C and with its
    stored hashes, so there is no Python step per constituent.
    """
    reached = dict.fromkeys(map(provider.conj, new))
    merge, decompose = reached.update, provider.decompose
    both = [*old, *new]
    for a, row in chain(zip(old, repeat(new)), zip(new, repeat(both))):
        deque(map(merge, map(constituents_of, map(decompose, repeat(a), row))), maxlen=0)
    return reached


def _verified(provider: FusionProvider, kind: str, labels, required=(), rule=None) -> Subcategory:
    """``labels`` as a ``Subcategory``, judged by one full sweep.

    The sweep visits every conjugate and every product of the labels, and
    everything ``rule(labels)`` yields for them; the frontier is what it
    reaches, together with ``required`` (a closure's unit and generators),
    outside the labels.  Both are recomputed from the labels and the
    closure's inputs, so the verdict can be checked without the loop that
    grew the labels.  The status is ``saturated`` exactly when that
    frontier is empty: this is the one place that decides it, for every
    closure and for the torsion set.
    """
    members = dict.fromkeys(labels)
    final = list(members)
    reached = set(_sweep(provider, final))
    reached.update(required)
    if rule is not None:
        reached.update(rule(final))
    frontier = reached.difference(members)
    status = BUDGET_EXCEEDED if frontier else SATURATED
    return Subcategory(kind=kind, labels=tuple(final), status=status, frontier=tuple(frontier))


def _conjugate(provider: FusionProvider, u: IrrLabel, v: IrrLabel) -> Decomposition:
    """The product ``ubar (x) v (x) u``, associated as ``(ubar (x) v) (x) u``.

    Read from cached decompositions: ``ubar (x) v`` first, then each of
    its constituents, in canonical order, times ``u``.  The result is
    memoized per ``(u, v)`` on the provider instance.
    """
    key = (u, v)
    hit = provider._conjugate_cache.get(key)
    if hit is None:
        ubar_v = constituents_of(provider.decompose(provider.conj(u), v))
        hit = provider._conjugate_cache[key] = Decomposition(_bilinear(provider, ubar_v, {u: 1}))
    return hit


def _forced(product: Decomposition) -> IrrLabel | None:
    """The irreducible ``product`` is, when it is one with multiplicity 1."""
    if len(product) == 1:
        (lab, mult), = product
        if mult == 1:
            return lab
    return None


def _close(
    provider: FusionProvider,
    kind: str,
    generators,
    budget: Budget,
    extra_candidates=None,
) -> Subcategory:
    """Shared closure loop: conj + products, plus an optional rule.

    Each round admits everything ``_sweep`` reaches from the members
    admitted since the previous round, then whatever
    ``extra_candidates(labels)`` yields for the members it has not been
    given before.  The loop is semi-naive: a round visits only the
    conjugates and pairs that involve a member admitted since the previous
    snapshot, since everything else was reached before.  For the same
    reason the rule must yield, label by label, candidates that depend on
    that label alone.  The loop only grows the set, for at most
    ``max_rounds`` rounds.  It skips, without recording, a label over the
    size cap and every label reached once the count cap is full; reached
    again, such a label is skipped again (its size is fixed, and a full
    cap stays full).  The returned status and frontier come from
    ``_verified``, which runs the whole sweep and rule over the finished
    set, adds the unit and the generators (the only skipped labels that
    no sweep of members need reach), and trusts nothing from the loop
    bookkeeping.  So a closure that its last allowed round happens to
    close is ``saturated``, and one the round limit cuts short has a
    frontier.
    """
    members: dict[IrrLabel, None] = {}
    cap, max_size = budget.max_irreducibles, budget.max_label_size
    label_size = provider.label_size

    def admit(labels: dict):
        # Each label once, in the order reached: the sweep's own dict, or
        # ``dict.fromkeys`` of a list or of the rule's candidates.
        for lab in filterfalse(members.__contains__, labels):
            if len(members) >= cap:
                return
            if label_size(lab) <= max_size:
                members[lab] = None

    generators = list(generators)
    for g in generators:
        label_size(g)  # a foreign generator raises here, even past the cap
    required = dict.fromkeys([provider.unit(), *generators])
    admit(required)

    swept = ruled = 0  # members[:swept] are swept pairwise; members[:ruled] ruled
    for _ in range(budget.max_rounds):
        before = len(members)
        snapshot = list(members)
        admit(_sweep(provider, snapshot[swept:], snapshot[:swept]))
        swept = before
        if extra_candidates is not None:
            unruled = list(islice(members, ruled, None))
            ruled += len(unruled)
            admit(dict.fromkeys(extra_candidates(unruled)))
        if len(members) == before:
            break

    return _verified(provider, kind, members, required, extra_candidates)


def generated_subring(
    provider: FusionProvider, generators, budget: Budget | None = None
) -> Subcategory:
    """Smallest conj- and product-closed label set containing the generators.

    An empty generator list yields the unit subcategory.  Monotone in
    both the generators and the budget; idempotent on its own output.
    """
    return _close(provider, "tensor_generated", generators, budget or Budget())


def _conjugates(provider: FusionProvider, members, window):
    """Yield ``(v, u, ubar (x) v (x) u)`` for each v in ``members`` and u in ``window``."""
    for v in members:
        for u in window:
            yield v, u, _conjugate(provider, u, v)


def _conjugation_closure(
    provider: FusionProvider, kind: str, generators, budget: Budget | None, forced_only: bool
) -> Subcategory:
    """``_close`` adjoining the constituents of ubar (x) v (x) u for u in the
    window, or only a product that is one irreducible when ``forced_only``."""
    budget = budget or Budget()
    scope = f"the {kind.replace('_', ' ')} conjugates by the budget's window"
    window = _window(provider, budget.max_irreducibles, _SCAN_LIMIT, scope)

    def rule(members):
        for _, _, product in _conjugates(provider, members, window):
            if not forced_only:
                yield from product.constituents()
            elif (lab := _forced(product)) is not None:
                yield lab

    return _close(provider, kind, generators, budget, rule)


def central_closure(
    provider: FusionProvider, generators, budget: Budget | None = None
) -> Subcategory:
    """Closure that also adjoins every constituent of ubar (x) v (x) u.

    Conjugating elements u run over the enumeration window, so the result
    is a budgeted lower approximation of the smallest normal subcategory
    containing the generators; it always contains the plain generated
    subring of the same generators at the same budget.

    Raises UnsupportedProvider for a window of more than 10,000 labels
    (the budget's, or the whole ring when it is smaller), before any
    label is listed.
    """
    return _conjugation_closure(provider, "central_closure", generators, budget, False)


def normal_forcing_closure(
    provider: FusionProvider, generators, budget: Budget | None = None
) -> Subcategory:
    """Closure adjoining ubar (x) v (x) u only when it is one irreducible.

    Sound even without normality: a product that collapses to a single
    irreducible must belong to any conj-stable subring containing v.  In
    a group-like ring every such product is a single irreducible, so the
    closure is the group normal closure of the generators.  Its window has
    the limit of ``central_closure``'s.
    """
    return _conjugation_closure(provider, "normal_forcing_closure", generators, budget, True)


@dataclass(frozen=True)
class NormalityViolation(Report):
    member: IrrLabel
    conjugator: IrrLabel
    product: tuple[IrrLabel, ...]


def normality_consistency(
    provider: FusionProvider, s_labels, bound: int
) -> list[NormalityViolation]:
    """Pairs (v in S, u in window) where ubar (x) v (x) u misses S entirely.

    An empty list is a budgeted consistency certificate for S being
    stable under conjugation by the window: the first ``bound`` labels,
    or the whole ring when it is smaller.  A window of more than 10,000
    labels is refused with UnsupportedProvider before any label is listed.
    """
    window = _window(provider, bound, _SCAN_LIMIT, "the normality probe conjugates by the bound's window")
    s_set = set(s_labels)
    return [
        NormalityViolation(v, u, tuple(product.constituents()))
        for v, u, product in _conjugates(provider, canonical_sort(s_set), window)
        if s_set.isdisjoint(product.constituents())
    ]


TORSION = "torsion"
NON_TORSION = "non_torsion"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class TorsionVerdict(Report):
    label: IrrLabel
    verdict: str
    closure: Subcategory | None = None
    reason: str = ""

    def to_dict(self) -> dict:
        out = super().to_dict()
        if self.closure is None:
            del out["closure"]
        return out


def is_torsion(
    provider: FusionProvider, u: IrrLabel, budget: Budget | None = None
) -> TorsionVerdict:
    """Decide whether the subcategory generated by u stays finite.

    Group-like rings answer through the exact order oracle; everywhere
    else a saturated generated subring certifies torsion and a truncated
    one leaves the question open.
    """
    budget = budget or Budget()
    closure = generated_subring(provider, [u], budget)
    try:
        order = provider.order_oracle(u)
    except UnsupportedProvider:
        order = None
    if order is not None:
        if order == math.inf:
            return TorsionVerdict(u, NON_TORSION, closure, "order oracle: infinite tensor order")
        return TorsionVerdict(u, TORSION, closure, f"order oracle: order {int(order)}")
    if closure.status == SATURATED:
        return TorsionVerdict(u, TORSION, closure, f"generated subring saturated at {len(closure.labels)} labels")
    return TorsionVerdict(u, UNKNOWN, closure, "generated subring exceeded budget")


@dataclass
class TorsionScanReport(Report):
    provider: str
    verdicts: list[TorsionVerdict]
    subcategory: Subcategory

    @property
    def certified(self) -> list[IrrLabel]:
        return [v.label for v in self.verdicts if v.verdict == TORSION]

    @property
    def unknowns(self) -> list[IrrLabel]:
        return [v.label for v in self.verdicts if v.verdict == UNKNOWN]

    @property
    def non_torsion(self) -> list[IrrLabel]:
        return [v.label for v in self.verdicts if v.verdict == NON_TORSION]

    def to_dict(self) -> dict:
        return {
            **super().to_dict(),
            "window": len(self.verdicts),
            "certified": _plain(self.certified),
            "unknown": _plain(self.unknowns),
            "non_torsion": _plain(self.non_torsion),
        }


def torsion_subcategory(provider: FusionProvider, budget: Budget | None = None) -> TorsionScanReport:
    """Scan the window label-by-label and collect the certified torsion set.

    The set's status is decided by re-verifying closure of the certified
    labels alone; unknown verdicts are reported but do not poison it.

    Raises UnsupportedProvider for a window of more than 10,000 labels
    (the budget's, or the whole ring when it is smaller), before any
    label is listed.
    """
    budget = budget or Budget()
    scope = "the torsion scan runs over the budget's window"
    window = _window(provider, budget.max_irreducibles, _SCAN_LIMIT, scope)
    verdicts = [is_torsion(provider, u, budget) for u in window]
    certified = [v.label for v in verdicts if v.verdict == TORSION]
    return TorsionScanReport(provider.name, verdicts, _verified(provider, "torsion_set", certified))


@dataclass
class NSequenceReport(Report):
    provider: str
    degree: int | None
    stabilized: bool
    connected: bool
    totally_disconnected: bool
    stages: list[Subcategory]
    quotient_note: str
    scanned: int
    exponent_bound: int
    counterexample: str | None = None

    def to_dict(self) -> dict:
        out = super().to_dict()
        out["quotient"] = out.pop("quotient_note")
        return out


def n_sequence_cocommutative(provider: FusionProvider, budget: Budget | None = None) -> NSequenceReport:
    """Stage sets of the iterated torsion-closure sequence for group rings.

    Stage one is the normal closure of all torsion elements; stage r+1
    adjoins roots of stage r.  Stabilization at stage one is never
    assumed: every scanned element g with g^n in stage one for some
    n <= EXPONENT_BOUND must itself lie in stage one, and any
    counterexample is reported instead of a degree.  A finite group is
    scanned whole, an infinite one over the budget's window.

    Raises UnsupportedProvider for rings that are not group rings (see
    ``FusionProvider.torsion_quotient``), for finite groups of more than
    10,000 elements and for windows of more than 10,000 labels.
    """
    budget = budget or Budget()
    connected, free_rank = provider.torsion_quotient()
    total = provider.num_irreducibles
    finite = isinstance(total, int)
    if finite:
        window = _window(provider, total, _SCAN_LIMIT, "a finite group is scanned whole", "elements")
    else:
        scope = "an infinite group is scanned over the budget's window"
        window = _window(provider, budget.max_irreducibles, _SCAN_LIMIT, scope)
    exponents = [provider.stage_one_exponent(g, EXPONENT_BOUND) for g in window]
    counterexample = next(
        (f"{g.id}^{n}" for g, n in zip(window, exponents) if n is not None and n > 1), None
    )
    stage = Subcategory(
        kind="normal_forcing_closure",
        labels=tuple(g for g, n in zip(window, exponents) if n == 1),
        status=SATURATED if finite else BUDGET_EXCEEDED,
    )
    return NSequenceReport(
        provider=provider.name,
        degree=0 if connected else (1 if counterexample is None else None),
        stabilized=counterexample is None,
        connected=connected,
        totally_disconnected=free_rank == 0,
        stages=[] if connected else [stage],
        quotient_note=(
            "trivial quotient"
            if free_rank == 0
            else f"free product of {free_rank} infinite cyclic factor(s)"
        ),
        scanned=len(window),
        exponent_bound=EXPONENT_BOUND,
        counterexample=counterexample,
    )


@dataclass
class ChainStage(Report):
    d: int
    generators: tuple[IrrLabel, ...]
    subcategory: Subcategory
    witnesses: tuple[IrrLabel, ...]
    strict: bool


@dataclass
class ChainProbeReport(Report):
    provider: str
    stages: list[ChainStage]
    strictly_increasing_up_to: int


def ascending_chain_probe(
    provider: FusionProvider, d_max: int, budget: Budget | None = None
) -> ChainProbeReport:
    """Track the chain of generated subrings for a growing generator family.

    ``provider.chain_generators(d)`` gives stage d's generators (expected
    to grow with d); ``provider.chain_size_cap(d)``, when not None,
    overrides the label-size cap per stage.  Stage d counts as strictly
    above stage d-1 when its new generators land in its own closure but
    are absent from the previous stage's closure; those generators are
    the recorded witnesses.  With infinite rings the closures are
    necessarily truncated (the stage status says so), which makes this a
    bounded certificate: absence is checked against the explored part of
    the previous stage.
    """
    budget = budget or Budget()
    prev_closure: set[IrrLabel] = {provider.unit()}
    prev_gens: set[IrrLabel] = set()
    stages: list[ChainStage] = []
    for d in range(1, d_max + 1):
        gens = list(provider.chain_generators(d))
        cap = provider.chain_size_cap(d)
        stage_budget = budget if cap is None else budget.replace(max_label_size=cap)
        sub = generated_subring(provider, gens, stage_budget)
        inside = set(sub.labels)
        new_gens = canonical_sort(set(gens) - prev_gens)
        strict = bool(new_gens) and all(
            g in inside and g not in prev_closure for g in new_gens
        )
        stages.append(
            ChainStage(
                d=d,
                generators=tuple(gens),
                subcategory=sub,
                witnesses=tuple(new_gens),
                strict=strict,
            )
        )
        prev_closure = inside
        prev_gens = set(gens)
    return ChainProbeReport(provider.name, stages, next((s.d - 1 for s in stages if not s.strict), len(stages)))


@dataclass
class DimensionIdealReport(Report):
    provider: str
    given: tuple[IrrLabel, ...]
    recovered: tuple[IrrLabel, ...]
    lattice_rank: int

    @property
    def exact(self) -> bool:
        return self.given == self.recovered

    def to_dict(self) -> dict:
        return {**super().to_dict(), "exact": self.exact}


def _finite_size(provider: FusionProvider, task: str = "dimension-ideal recovery") -> int:
    """The number of irreducibles of a finite ring; NotFinite, naming the
    ``task`` that needs one, for an infinite ring."""
    total = provider.num_irreducibles
    if not isinstance(total, int):
        raise NotFinite(f"{provider.name}: {task} needs a finite ring")
    return total


def dimension_ideal_recover(provider: FusionProvider, a_labels) -> DimensionIdealReport:
    """Recover a saturated subring from its dimension ideal.

    Builds the ideal generated by ``a - dim(a) * unit`` over the whole
    ring as an integer lattice and returns every irreducible u with
    ``u - dim(u) * unit`` in it.  Exact arithmetic throughout.

    Raises NotFinite for infinite rings and NotSaturated when the given
    labels are not a conj- and product-closed set containing the unit;
    the labels are checked in canonical order, so the error names the
    same label in every run.
    """
    total = _finite_size(provider)
    all_irr = provider.enumerate(total)
    index = {lab: i for i, lab in enumerate(all_irr)}
    unit = provider.unit()
    a_set = set(a_labels)
    if unit not in a_set:
        raise NotSaturated("the subset must contain the unit")
    given = canonical_sort(a_set)
    for a in given:
        if a not in index:
            raise NotSaturated(f"label {_quote(a.id)} is not an irreducible of {provider.name}")
    for w in _sweep(provider, given):
        if w not in a_set:
            raise NotSaturated(
                f"subset not closed under conjugation and products: {_quote(w.id)} is reached but not listed"
            )

    lattice = IntegerLattice(total)
    others = [(a, a.dim) for a in given if a != unit]
    for r in all_irr:
        at_r = index[r]
        for a, dim in others:
            vec = [0] * total
            for w, m in constituents_of(provider.decompose(r, a)).items():
                vec[index[w]] += m
            vec[at_r] -= dim
            lattice.add(vec)

    recovered = []
    for u in all_irr:
        vec = [0] * total
        vec[index[u]] += 1
        vec[index[unit]] -= u.dim
        if lattice.contains(vec):
            recovered.append(u)
    return DimensionIdealReport(
        provider=provider.name,
        given=tuple(given),
        recovered=tuple(canonical_sort(recovered)),
        lattice_rank=lattice.rank,
    )


def enumerate_saturated_subrings(provider: FusionProvider, limit: int = 16) -> list[tuple[IrrLabel, ...]]:
    """All conj- and product-closed subsets containing the unit.

    Searches the subring lattice from the unit subring: each subring
    found, in discovery order, is extended by each label outside it, in
    enumeration order, to the subring the two generate.  Every saturated
    subring is generated by its own labels, so a chain of one-label
    extensions reaches it.  Rings larger than ``limit`` are refused.
    """
    total = _finite_size(provider, "subring enumeration")
    if total > limit:
        raise NotFinite(f"{provider.name}: {total} irreducibles exceeds the limit {limit}")
    all_irr = provider.enumerate(total)
    # Room for the whole ring, so every closure saturates.
    budget = Budget(
        max_irreducibles=total,
        max_rounds=total,
        max_label_size=max(map(provider.label_size, all_irr)),
    )
    found = [(provider.unit(),)]
    seen = set(found)
    for subring in found:  # grows while it is walked
        inside = set(subring)
        for x in all_irr:
            if x in inside:
                continue
            sub = generated_subring(provider, [*subring, x], budget)
            if sub.status != SATURATED:
                raise NotSaturated(f"{provider.name}: the subring generated with {_quote(x.id)} did not saturate")
            if sub.labels not in seen:
                seen.add(sub.labels)
                found.append(sub.labels)
    found.sort(key=lambda subs: (len(subs), [l.id for l in subs]))
    return found

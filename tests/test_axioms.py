import math
from collections import Counter

import pytest

from fusionring import (
    Budget,
    Decomposition,
    FusionProvider,
    IrrLabel,
    character_ring,
    check_axioms,
    finite_group_ring,
    suq2_ring,
    uq_su11_ring,
    word_group,
)
from fusionring.cli import parse_provider
from fusionring.rings.au import AuProvider
from fusionring.rings.tables import S3_CHARACTER_TABLE
from fusionring.rings.words import WordGroupProvider, WordGroupSpec

import oracles


def test_clean_rings_report_no_violations():
    for ring in (suq2_ring(), uq_su11_ring(), word_group([2, 2])):
        report = check_axioms(ring, Budget(max_irreducibles=12), triple_samples=40, seed=1)
        assert report.ok, report.violations
        assert report.pairs_checked == 144


def test_report_is_deterministic():
    ring = suq2_ring()
    a = check_axioms(ring, Budget(max_irreducibles=8), seed=7)
    b = check_axioms(ring, Budget(max_irreducibles=8), seed=7)
    assert a.to_dict() == b.to_dict()


class _Base(FusionProvider):
    """Z3 group ring with hooks for sabotage."""

    name = "sabotage"

    def __init__(self):
        super().__init__()
        self.labels = [IrrLabel("e", 1), IrrLabel("g1", 1), IrrLabel("g2", 1)]

    def unit(self):
        return self.labels[0]

    def conj(self, u):
        if u.id == "g1":
            return self.labels[2]
        if u.id == "g2":
            return self.labels[1]
        return u

    def enumerate(self, count):
        return self.labels[: max(0, count)]

    def _decompose(self, u, v):
        i = self.labels.index(u)
        j = self.labels.index(v)
        return Decomposition({self.labels[(i + j) % 3]: 1})

    def parse_label(self, text):
        return {l.id: l for l in self.labels}[text]


class _DimensionBad(_Base):
    def _decompose(self, u, v):
        if (u.id, v.id) == ("g1", "g1"):
            return Decomposition({self.labels[2]: 2})
        return super()._decompose(u, v)


class _UnitRuleBad(_Base):
    def _decompose(self, u, v):
        if (u.id, v.id) == ("g1", "g1"):
            return Decomposition({self.labels[0]: 1})
        return super()._decompose(u, v)


class _ConjInvolutionBad(_Base):
    def conj(self, u):
        if u.id == "g1":
            return self.labels[2]
        return u  # conj(g2) = g2 breaks the involution pairing


class _UnitLawBad(_Base):
    def _decompose(self, u, v):
        if u.id == "e" and v.id == "g1":
            return Decomposition({self.labels[2]: 1})
        return super()._decompose(u, v)


class _AssociativityBad(_Base):
    def _decompose(self, u, v):
        # non-associative twist: g2*g2 wraps to g2 instead of g1
        if (u.id, v.id) == ("g2", "g2"):
            return Decomposition({self.labels[2]: 1})
        return super()._decompose(u, v)


class _Z7(FusionProvider):
    """Z7 group ring, g_i (x) g_j = g_{i+j}.  Its 3-label window
    {e, g1, g2} is not closed under conjugation, so reciprocity and
    reversal read products that neither the window pairs nor the
    associativity triples reach: sabotage there trips one axiom alone."""

    name = "sabotage7"

    def __init__(self):
        super().__init__()
        self.labels = [IrrLabel("e", 1)] + [IrrLabel(f"g{i}", 1) for i in range(1, 7)]

    def unit(self):
        return self.labels[0]

    def conj(self, u):
        return self.labels[-self.labels.index(u) % 7]

    def enumerate(self, count):
        return self.labels[: max(0, count)]

    def _decompose(self, u, v):
        return Decomposition({self.labels[(self.labels.index(u) + self.labels.index(v)) % 7]: 1})

    def parse_label(self, text):
        return {l.id: l for l in self.labels}[text]


class _FrobeniusBad(_Z7):
    # g3 (x) g6 is g2: only N^{g2}_{g3,g6} of (u, v, w) = (g2, g1, g3) reads it
    def _decompose(self, u, v):
        if (u.id, v.id) == ("g3", "g6"):
            return Decomposition({self.labels[1]: 1})
        return super()._decompose(u, v)


class _ReversalBad(_Z7):
    # g6 (x) g6 is g5: only the reversal of g1 (x) g1 = g2 reads it
    def _decompose(self, u, v):
        if (u.id, v.id) == ("g6", "g6"):
            return Decomposition({self.labels[4]: 1})
        return super()._decompose(u, v)


class _EmptyProductBad(_Z7):
    # g1 (x) g1 is zero, so no constituent reads its reversal g6 (x) g6
    def _decompose(self, u, v):
        if (u.id, v.id) == ("g1", "g1"):
            return Decomposition({})
        return super()._decompose(u, v)


SABOTAGE = {
    "dimension": _DimensionBad,
    "unit-rule": _UnitRuleBad,
    "conj-involution": _ConjInvolutionBad,
    "unit-law": _UnitLawBad,
    "associativity": _AssociativityBad,
    "frobenius": _FrobeniusBad,
    "conjugate-reversal": _ReversalBad,
    "empty-product": _EmptyProductBad,
}


def _sabotage_report(provider, check=check_axioms):
    return check(provider, Budget(max_irreducibles=3), triple_samples=10, seed=0)


def _violation_axioms(provider):
    return {v.axiom for v in _sabotage_report(provider).violations}


def test_detects_dimension_violation():
    assert "dimension" in _violation_axioms(_DimensionBad())


def test_detects_unit_rule_violation():
    axioms = _violation_axioms(_UnitRuleBad())
    # g1 (x) g1 containing the unit contradicts conj(g1) = g2
    assert any("unit" in a or "frobenius" in a for a in axioms)


def test_detects_conj_involution_violation():
    assert _violation_axioms(_ConjInvolutionBad())


def test_detects_unit_law_violation():
    assert "unit-law" in _violation_axioms(_UnitLawBad())


def test_detects_associativity_violation():
    assert _violation_axioms(_AssociativityBad())  # caught by some axiom (associativity or reciprocity)


def test_detects_frobenius_violation_alone():
    assert _violation_axioms(_FrobeniusBad()) == {"frobenius"}


def test_detects_conjugate_reversal_violation_alone():
    assert _violation_axioms(_ReversalBad()) == {"conjugate-reversal"}


def test_violations_are_data_not_exceptions():
    report = check_axioms(_DimensionBad(), Budget(max_irreducibles=3), triple_samples=5, seed=0)
    assert not report.ok
    v = report.violations[0]
    assert v.axiom and v.labels and v.detail
    assert isinstance(v.to_dict(), dict)


def test_seeded_triples_count():
    report = check_axioms(suq2_ring(), Budget(max_irreducibles=6), triple_samples=50, seed=3)
    # exhaustive prefix cube plus the seeded samples
    assert report.triples_checked == 4**3 + 50


def test_associativity_violation_text():
    provider = _AssociativityBad()
    report = _sabotage_report(provider)
    found = [(v.labels, v.detail) for v in report.violations if v.axiom == "associativity"]
    assert found == [(tuple(map(provider.parse_label, ids)), detail) for ids, detail in [
        (("g1", "g1", "g2"), "difference g1:-1, g2:+1"),
        (("g1", "g2", "g2"), "difference e:-1, g2:+1"),
        (("g2", "g1", "g1"), "difference g1:+1, g2:-1"),
        (("g2", "g2", "g1"), "difference e:+1, g2:-1"),
        (("g1", "g2", "g2"), "difference e:-1, g2:+1"),
        (("g2", "g1", "g1"), "difference g1:+1, g2:-1"),
    ]]


# Every violation of each sabotage provider, in report order, as the
# harness gave them when each reciprocity coefficient was its own lookup.
PINNED_VIOLATIONS = {
    "dimension": [
        ("dimension", ("g1", "g1"), "sum mult*dim = 2, expected 1"),
        ("frobenius", ("g1", "g1", "g2"), "N^g2 = 2 but N^g1_{g2,g2} = 1"),
        ("frobenius", ("g1", "g1", "g2"), "N^g2 = 2 but N^g1_{g2,g2} = 1"),
        ("conjugate-reversal", ("g1", "g1", "g2"), "N^g2 = 2 but conjugate-reversed = 1"),
        ("frobenius", ("g2", "g2", "g1"), "N^g1 = 1 but N^g2_{g1,g1} = 2"),
        ("frobenius", ("g2", "g2", "g1"), "N^g1 = 1 but N^g2_{g1,g1} = 2"),
        ("conjugate-reversal", ("g2", "g2", "g1"), "N^g1 = 1 but conjugate-reversed = 2"),
        ("associativity", ("g1", "g1", "g2"), "difference g1:+1"),
        ("associativity", ("g1", "g2", "g2"), "difference g2:-1"),
        ("associativity", ("g2", "g1", "g1"), "difference g1:-1"),
        ("associativity", ("g2", "g2", "g1"), "difference g2:+1"),
        ("associativity", ("g1", "g2", "g2"), "difference g2:-1"),
        ("associativity", ("g2", "g1", "g1"), "difference g1:-1"),
    ],
    "unit-rule": [
        ("unit-multiplicity", ("g1", "g1"), "N^1 = 1, expected 0"),
        ("frobenius", ("g1", "g1", "e"), "N^e = 1 but N^g1_{g2,e} = 0"),
        ("frobenius", ("g1", "g1", "e"), "N^e = 1 but N^g1_{e,g2} = 0"),
        ("conjugate-reversal", ("g1", "g1", "e"), "N^e = 1 but conjugate-reversed = 0"),
        ("frobenius", ("g2", "g2", "g1"), "N^g1 = 1 but N^g2_{g1,g1} = 0"),
        ("frobenius", ("g2", "g2", "g1"), "N^g1 = 1 but N^g2_{g1,g1} = 0"),
        ("conjugate-reversal", ("g2", "g2", "g1"), "N^g1 = 1 but conjugate-reversed = 0"),
        ("associativity", ("g1", "g1", "g2"), "difference g1:-1, g2:+1"),
        ("associativity", ("g1", "g2", "g2"), "difference e:-1, g2:+1"),
        ("associativity", ("g2", "g1", "g1"), "difference g1:+1, g2:-1"),
        ("associativity", ("g2", "g2", "g1"), "difference e:+1, g2:-1"),
        ("associativity", ("g1", "g2", "g2"), "difference e:-1, g2:+1"),
        ("associativity", ("g2", "g1", "g1"), "difference g1:+1, g2:-1"),
    ],
    "conj-involution": [
        ("conjugation", ("g1",), "conj(conj(g1)) = g2"),
        ("frobenius", ("e", "g2", "g2"), "N^g2 = 1 but N^e_{g2,g2} = 0"),
        ("conjugate-reversal", ("g1", "g1", "g2"), "N^g2 = 1 but conjugate-reversed = 0"),
        ("frobenius", ("g1", "g2", "e"), "N^e = 1 but N^g1_{e,g2} = 0"),
        ("conjugate-reversal", ("g1", "g2", "e"), "N^e = 1 but conjugate-reversed = 0"),
        ("frobenius", ("g2", "e", "g2"), "N^g2 = 1 but N^e_{g2,g2} = 0"),
        ("unit-multiplicity", ("g2", "g1"), "N^1 = 1, expected 0"),
        ("frobenius", ("g2", "g1", "e"), "N^e = 1 but N^g1_{g2,e} = 0"),
        ("conjugate-reversal", ("g2", "g1", "e"), "N^e = 1 but conjugate-reversed = 0"),
        ("unit-multiplicity", ("g2", "g2"), "N^1 = 0, expected 1"),
        ("frobenius", ("g2", "g2", "g1"), "N^g1 = 1 but N^g2_{g2,g1} = 0"),
        ("frobenius", ("g2", "g2", "g1"), "N^g1 = 1 but N^g2_{g1,g2} = 0"),
        ("conjugate-reversal", ("g2", "g2", "g1"), "N^g1 = 1 but conjugate-reversed = 0"),
    ],
    "unit-law": [
        ("unit-law", ("g1",), "1 (x) g1 != g1"),
        ("frobenius", ("e", "g1", "g2"), "N^g2 = 1 but N^g1_{e,g2} = 0"),
        ("frobenius", ("e", "g1", "g2"), "N^g2 = 1 but N^e_{g2,g2} = 0"),
        ("conjugate-reversal", ("e", "g1", "g2"), "N^g2 = 1 but conjugate-reversed = 0"),
        ("frobenius", ("g1", "g2", "e"), "N^e = 1 but N^g1_{e,g1} = 0"),
        ("conjugate-reversal", ("g2", "e", "g2"), "N^g2 = 1 but conjugate-reversed = 0"),
        ("associativity", ("e", "g1", "g1"), "difference e:+1, g2:-1"),
        ("associativity", ("e", "g1", "g2"), "difference e:-1, g1:+1"),
        ("associativity", ("e", "g2", "g2"), "difference g1:+1, g2:-1"),
        ("associativity", ("g1", "e", "g1"), "difference e:-1, g2:+1"),
        ("associativity", ("g1", "g2", "g1"), "difference g1:-1, g2:+1"),
        ("associativity", ("g2", "e", "g1"), "difference e:+1, g1:-1"),
        ("associativity", ("g2", "g1", "g1"), "difference g1:-1, g2:+1"),
        ("associativity", ("g1", "g2", "g1"), "difference g1:-1, g2:+1"),
        ("associativity", ("g2", "e", "g1"), "difference e:+1, g1:-1"),
        ("associativity", ("g2", "e", "g1"), "difference e:+1, g1:-1"),
        ("associativity", ("g2", "g1", "g1"), "difference g1:-1, g2:+1"),
    ],
    "associativity": [
        ("frobenius", ("g1", "g1", "g2"), "N^g2 = 1 but N^g1_{g2,g2} = 0"),
        ("frobenius", ("g1", "g1", "g2"), "N^g2 = 1 but N^g1_{g2,g2} = 0"),
        ("conjugate-reversal", ("g1", "g1", "g2"), "N^g2 = 1 but conjugate-reversed = 0"),
        ("frobenius", ("g2", "g2", "g2"), "N^g2 = 1 but N^g2_{g1,g2} = 0"),
        ("frobenius", ("g2", "g2", "g2"), "N^g2 = 1 but N^g2_{g2,g1} = 0"),
        ("conjugate-reversal", ("g2", "g2", "g2"), "N^g2 = 1 but conjugate-reversed = 0"),
        ("associativity", ("g1", "g1", "g2"), "difference g1:-1, g2:+1"),
        ("associativity", ("g1", "g2", "g2"), "difference e:-1, g2:+1"),
        ("associativity", ("g2", "g1", "g1"), "difference g1:+1, g2:-1"),
        ("associativity", ("g2", "g2", "g1"), "difference e:+1, g2:-1"),
        ("associativity", ("g1", "g2", "g2"), "difference e:-1, g2:+1"),
        ("associativity", ("g2", "g1", "g1"), "difference g1:+1, g2:-1"),
    ],
    "frobenius": [
        ("frobenius", ("g2", "g1", "g3"), "N^g3 = 1 but N^g2_{g3,g6} = 0"),
    ],
    "conjugate-reversal": [
        ("conjugate-reversal", ("g1", "g1", "g2"), "N^g2 = 1 but conjugate-reversed = 0"),
    ],
    "empty-product": [
        ("dimension", ("g1", "g1"), "sum mult*dim = 0, expected 1"),
        ("associativity", ("g1", "g1", "g2"), "difference g4:-1"),
        ("associativity", ("g2", "g1", "g1"), "difference g4:+1"),
        ("associativity", ("g2", "g1", "g1"), "difference g4:+1"),
    ],
}


@pytest.mark.parametrize("name", sorted(SABOTAGE))
def test_sabotage_violations_are_pinned_and_match_the_reference(name):
    provider, reference_provider = SABOTAGE[name](), SABOTAGE[name]()
    report = _sabotage_report(provider)
    assert [(v.axiom, v.labels, v.detail) for v in report.violations] == [
        (axiom, tuple(map(provider.parse_label, ids)), detail) for axiom, ids, detail in PINNED_VIOLATIONS[name]
    ]
    reference = _sabotage_report(reference_provider, check=oracles.check_axioms_reference)
    assert report.to_dict() == reference.to_dict()
    # the same products, a zero product's reversal not among them
    assert provider._decompose_cache.keys() == reference_provider._decompose_cache.keys()


# The benchmark's seven providers, with the number of distinct products
# a window-40 check at seed 0 leaves in the ring's ``decompose`` cache
# and in each factor's: the harness reads each product once, but reads
# the same set of products as the reference.
PINNED_PRODUCTS = {
    "suq2": (3442, []),
    "so3": (3576, []),
    "uqsu11": (3308, []),
    "au": (5892, []),
    "word:Z2*Z2": (2506, []),
    "prod(suq2,word:Z2)": (3308, [913, 4]),
    "free(so3,word:Z2)": (3700, [3220, 1]),
}
INFINITE_SPECS = [*PINNED_PRODUCTS, "word:Z*Z", "free(suq2,au)", "free(word:Z2,free(word:Z2,word:Z3))"]


@pytest.mark.parametrize("spec", INFINITE_SPECS)
def test_report_matches_the_reference_on_infinite_rings(spec):
    budget = Budget(max_irreducibles=40)
    got = check_axioms(parse_provider(spec), budget, seed=11).to_dict()
    assert got == oracles.check_axioms_reference(parse_provider(spec), budget, seed=11).to_dict()
    assert got["ok"] and got["window"] == 40


def test_report_matches_the_reference_on_the_s3_tables():
    for ring in (finite_group_ring(oracles.s3_group_table(), "group:S3"),
                 character_ring(S3_CHARACTER_TABLE)):
        budget = Budget(max_irreducibles=ring.num_irreducibles)
        got = check_axioms(ring, budget, seed=2).to_dict()
        assert got == oracles.check_axioms_reference(ring, budget, seed=2).to_dict()
        assert got["ok"]


@pytest.mark.parametrize("spec", sorted(PINNED_PRODUCTS))
def test_harness_computes_the_pinned_set_of_products(spec):
    provider = parse_provider(spec)
    check_axioms(provider, Budget(max_irreducibles=40))
    factors = getattr(provider, "factors", ())
    got = (len(provider._decompose_cache), [len(f._decompose_cache) for f in factors])
    assert got == PINNED_PRODUCTS[spec]


@pytest.mark.parametrize("spec", ["so3", "au", "free(so3,word:Z2)", "prod(suq2,word:Z2)"])
def test_harness_asks_each_conjugate_once(spec):
    provider = parse_provider(spec)
    calls = Counter()
    conj = provider.conj

    def counting(u):
        calls[u] += 1
        return conj(u)

    provider.conj = counting
    check_axioms(provider, Budget(max_irreducibles=40))
    assert calls and max(calls.values()) == 1
    # a second call asks again: the memo is the call's own
    check_axioms(provider, Budget(max_irreducibles=40))
    assert set(calls.values()) == {2}


# Infinite rings built broken, each in one product or one dim, checked
# over a window of 12: the report must be the reference's, which reads
# every product afresh.


class _AuWrongFrobenius(AuProvider):
    # UuU (x) uUuuUU drops uUU; only reciprocity for (uUu, uUU) reads it,
    # as ubar (x) w.
    def _decompose(self, u, v):
        dec = super()._decompose(u, v)
        if (u.id, v.id) == ("UuU", "uUuuUU"):
            return Decomposition.ordered(w for w in dec.constituents() if w.id != "uUU")
        return dec


class _WordWrongReversal(WordGroupProvider):
    # b^-1 (x) a^2 is a^2 b^-1 instead of b^-1 a^2 in Z3*Z.
    def _decompose(self, u, v):
        if (u.id, v.id) == ("b^-1", "a^2"):
            return Decomposition({self.parse_label("a^2b^-1"): 1})
        return super()._decompose(u, v)


class _AuWrongDim(AuProvider):
    # uUu is spelled with dim 4 instead of 3.
    def _spell(self, word):
        text, dim = super()._spell(word)
        return text, dim + (word == "uUu")


BROKEN_INFINITE = {
    "frobenius": lambda: _AuWrongFrobenius(),
    "reversal": lambda: _WordWrongReversal(WordGroupSpec((3, math.inf))),
    "dim": lambda: _AuWrongDim(3),
}


@pytest.mark.parametrize("name", sorted(BROKEN_INFINITE))
def test_broken_infinite_rings_report_as_the_reference(name):
    budget = Budget(max_irreducibles=12)
    got = check_axioms(BROKEN_INFINITE[name](), budget, triple_samples=20, seed=3)
    want = oracles.check_axioms_reference(BROKEN_INFINITE[name](), budget, triple_samples=20, seed=3)
    assert not got.ok
    assert got.to_dict() == want.to_dict()

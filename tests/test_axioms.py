import pytest

from fusionring import (
    Budget,
    Decomposition,
    FusionProvider,
    IrrLabel,
    check_axioms,
    suq2_ring,
    uq_su11_ring,
    word_group,
)


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


def _violation_axioms(provider):
    report = check_axioms(provider, Budget(max_irreducibles=3), triple_samples=10, seed=0)
    return {v.axiom for v in report.violations}


def test_detects_dimension_violation():
    class Bad(_Base):
        def _decompose(self, u, v):
            if (u.id, v.id) == ("g1", "g1"):
                return Decomposition({self.labels[2]: 2})
            return super()._decompose(u, v)

    axioms = _violation_axioms(Bad())
    assert "dimension" in axioms


def test_detects_unit_rule_violation():
    class Bad(_Base):
        def _decompose(self, u, v):
            if (u.id, v.id) == ("g1", "g1"):
                return Decomposition({self.labels[0]: 1})
            return super()._decompose(u, v)

    axioms = _violation_axioms(Bad())
    # g1 (x) g1 containing the unit contradicts conj(g1) = g2
    assert any("unit" in a or "frobenius" in a for a in axioms)


def test_detects_conj_involution_violation():
    class Bad(_Base):
        def conj(self, u):
            if u.id == "g1":
                return self.labels[2]
            return u  # conj(g2) = g2 breaks the involution pairing

    axioms = _violation_axioms(Bad())
    assert axioms


def test_detects_unit_law_violation():
    class Bad(_Base):
        def _decompose(self, u, v):
            if u.id == "e" and v.id == "g1":
                return Decomposition({self.labels[2]: 1})
            return super()._decompose(u, v)

    axioms = _violation_axioms(Bad())
    assert "unit-law" in axioms


def test_detects_associativity_violation():
    class Bad(_Base):
        def _decompose(self, u, v):
            # non-associative twist: g2*g2 wraps to g2 instead of g1
            if (u.id, v.id) == ("g2", "g2"):
                return Decomposition({self.labels[2]: 1})
            return super()._decompose(u, v)

    axioms = _violation_axioms(Bad())
    assert axioms  # caught by some axiom (associativity or reciprocity)


def test_violations_are_data_not_exceptions():
    class Bad(_Base):
        def _decompose(self, u, v):
            if (u.id, v.id) == ("g1", "g1"):
                return Decomposition({self.labels[2]: 2})
            return super()._decompose(u, v)

    report = check_axioms(Bad(), Budget(max_irreducibles=3), triple_samples=5, seed=0)
    assert not report.ok
    v = report.violations[0]
    assert v.axiom and v.labels and v.detail
    assert isinstance(v.to_dict(), dict)


def test_seeded_triples_count():
    report = check_axioms(suq2_ring(), Budget(max_irreducibles=6), triple_samples=50, seed=3)
    # exhaustive prefix cube plus the seeded samples
    assert report.triples_checked == 4**3 + 50

import math
import pickle

import pytest
from hypothesis import given, strategies as st

import oracles

from fusionring import (
    Budget,
    Decomposition,
    FusionProvider,
    IrrLabel,
    UnknownLabel,
    canonical_key,
    canonical_sort,
    character_ring,
)
from fusionring.cli import parse_provider
from fusionring.core import constituents_of


def test_label_validation():
    with pytest.raises(ValueError):
        IrrLabel("x", 0)
    with pytest.raises(ValueError):
        IrrLabel("x", -3)
    lab = IrrLabel("x", 4)
    assert lab.id == "x" and lab.dim == 4


LABEL_PARTS = st.tuples(st.text("ab", min_size=1, max_size=3), st.integers(1, 5))


@given(LABEL_PARTS, LABEL_PARTS)
def test_label_equality_hash_and_order_are_the_pairs(x, y):
    a, b = IrrLabel(*x), IrrLabel(*y)
    assert (a == b) == (x == y) and (a != b) == (x != y)
    assert (a < b) == (x < y) and (a <= b) == (x <= y) and (a > b) == (x > y)
    assert hash(a) == hash(x)
    assert (a.id, a.dim) == x


def test_label_repr_pickle_and_immutability():
    lab = IrrLabel("u3", 4)
    assert repr(lab) == "IrrLabel(id='u3', dim=4)"
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        again = pickle.loads(pickle.dumps(lab, protocol))
        assert type(again) is IrrLabel and again == lab and hash(again) == hash(lab)
    with pytest.raises(AttributeError):
        lab.id = "u4"
    with pytest.raises(AttributeError):
        lab.key = 3
    assert vars(IrrLabel)["__hash__"] is tuple.__hash__


def test_label_hash_can_be_swapped_and_restored():
    # What a tracer does to count label hashes: install a counting
    # ``__hash__`` from the class dict, then put the original back.
    labels = [IrrLabel(f"x{i}", i + 1) for i in range(50)]
    table = {lab: i for i, lab in enumerate(labels)}
    original = vars(IrrLabel)["__hash__"]
    calls = []

    def counted(label):
        calls.append(1)
        return original(label)

    IrrLabel.__hash__ = counted
    try:
        assert all(table[IrrLabel(lab.id, lab.dim)] == i for i, lab in enumerate(labels))
        assert len(calls) == len(labels)
        assert IrrLabel("x0", 2) not in table
    finally:
        IrrLabel.__hash__ = original
    assert vars(IrrLabel)["__hash__"] is tuple.__hash__
    assert all(table[IrrLabel(lab.id, lab.dim)] == i for i, lab in enumerate(labels))
    assert len(calls) == len(labels) + 1


def test_canonical_order_dim_then_id():
    labels = [IrrLabel("b", 2), IrrLabel("a", 2), IrrLabel("z", 1), IrrLabel("c", 5)]
    assert [l.id for l in canonical_sort(labels)] == ["z", "a", "b", "c"]
    assert canonical_key(IrrLabel("q", 3)) == (3, "q")


def test_decomposition_basics():
    a, b = IrrLabel("a", 2), IrrLabel("b", 3)
    dec = Decomposition({a: 2, b: 1})
    assert dec.multiplicity(a) == 2
    assert dec.multiplicity(IrrLabel("zz", 7)) == 0
    assert dec.total_dim() == 7
    assert a in dec and IrrLabel("zz", 7) not in dec
    assert list(dec) == [(a, 2), (b, 1)]
    assert dec == Decomposition({b: 1, a: 2})
    assert hash(dec) == hash(Decomposition({b: 1, a: 2}))


def test_decomposition_rejects_bad_multiplicities():
    a = IrrLabel("a", 2)
    assert Decomposition({a: 0}).entries == ()  # zeros drop silently
    with pytest.raises(ValueError):
        Decomposition({a: -1})


BACKENDS = [
    "suq2", "so3", "uqsu11", "au", "word:Z2*Z", "free(so3,word:Z2)", "prod(suq2,word:Z2)", "S3 table",
]


# Backends whose products go through ``Decomposition.ordered``.
ORDERED_BACKENDS = {"suq2", "so3", "uqsu11", "au", "word:Z2*Z"}


def _record_ordered(monkeypatch) -> list:
    """Patch ``Decomposition.ordered`` to keep every label run it is given."""
    runs = []
    ordered = Decomposition.ordered.__func__

    def recording(cls, labels):
        runs.append(list(labels))
        return ordered(cls, runs[-1])

    monkeypatch.setattr(Decomposition, "ordered", classmethod(recording))
    return runs


def _check_ordered_run(labels):
    got = Decomposition.ordered(labels)
    assert len(set(labels)) == len(labels)
    assert got.entries == oracles.decomposition_entries_reference(dict.fromkeys(labels, 1))
    assert got == Decomposition(dict.fromkeys(labels, 1))
    assert list(constituents_of(got)) == got.constituents() == labels


@pytest.mark.parametrize("spec", BACKENDS)
def test_decompositions_match_the_reference_constructor(spec, fixtures_dir, monkeypatch):
    # Every mapping a backend builds for its window-20 products, fed to
    # the sorting constructor and to the per-entry reference, and every
    # label run it hands to ``Decomposition.ordered``, against the same
    # reference with multiplicity 1.
    inputs = []
    build = Decomposition.__init__

    def recording(self, counts):
        inputs.append(dict(counts))
        build(self, counts)

    monkeypatch.setattr(Decomposition, "__init__", recording)
    runs = _record_ordered(monkeypatch)
    if spec == "S3 table":
        ring = character_ring(fixtures_dir / "s3_characters.json")
    else:
        ring = parse_provider(spec)
    window = ring.enumerate(20)
    for a in window:
        for b in window:
            ring.decompose(a, b)
    monkeypatch.undo()
    assert inputs or runs
    if spec in ORDERED_BACKENDS:
        assert runs and not inputs
    for counts in inputs:
        got = Decomposition(counts)
        assert got.entries == oracles.decomposition_entries_reference(counts)
        assert got.constituents() == [lab for lab, _ in got.entries]
        assert list(constituents_of(got)) == got.constituents()
        assert all(type(m) is int and got.multiplicity(lab) == m for lab, m in got)
    for labels in runs:
        _check_ordered_run(labels)


@pytest.mark.parametrize("spec", ["suq2", "so3", "uqsu11", "au", "au:3"])
def test_ordered_products_are_canonical_over_a_wide_window(spec, monkeypatch):
    # Products reach level 598 (suq2, so3) or 298 (uqsu11) and au words
    # of 16 letters; pairing each label with every 23rd one both ways
    # keeps the per-entry reference affordable.
    runs = _record_ordered(monkeypatch)
    ring = parse_provider(spec)
    window = ring.enumerate(300)
    for a in window:
        for b in window[::23]:
            ring.decompose(a, b)
            ring.decompose(b, a)
    monkeypatch.undo()
    assert len(runs) == len(ring._decompose_cache)
    for labels in runs:
        _check_ordered_run(labels)


@given(st.dictionaries(LABEL_PARTS, st.one_of(st.integers(-1, 3), st.booleans(), st.sampled_from([0.0, 2.0, 2.5])),
                       max_size=6))
def test_decomposition_constructor_matches_the_reference(parts):
    counts = {IrrLabel(*x): m for x, m in parts.items()}
    try:
        want = oracles.decomposition_entries_reference(counts)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            Decomposition(counts)
        return
    got = Decomposition(counts)
    assert got.entries == want
    assert [type(m) for _, m in got] == [int] * len(want)


def test_budget_replace():
    b = Budget()
    assert (b.max_irreducibles, b.max_rounds, b.max_label_size) == (64, 32, 8)
    c = b.replace(max_rounds=5)
    assert c.max_rounds == 5 and c.max_irreducibles == 64
    assert b.max_rounds == 32
    with pytest.raises(ValueError):
        b.replace(max_label_size=0)
    with pytest.raises(TypeError):
        b.replace(max_depth=3)


class TinyRing(FusionProvider):
    """Z2 group ring written directly against the provider base."""

    name = "tiny"

    def __init__(self):
        super().__init__()
        self.calls = 0
        self._e = IrrLabel("e", 1)
        self._g = IrrLabel("g", 1)

    def unit(self):
        return self._e

    def conj(self, u):
        return u

    def enumerate(self, count):
        return [self._e, self._g][: max(0, count)]

    def _decompose(self, u, v):
        self.calls += 1
        return Decomposition({self._e if u == v else self._g: 1})

    def parse_label(self, text):
        try:
            return {"e": self._e, "g": self._g}[text]
        except KeyError:
            raise UnknownLabel(f"tiny: no irreducible with id {text!r}") from None


def test_provider_decompose_memoized():
    ring = TinyRing()
    g = IrrLabel("g", 1)
    ring.decompose(g, g)
    ring.decompose(g, g)
    assert ring.calls == 1
    assert ring.multiplicity(ring.unit(), g, g) == 1
    assert ring.multiplicity(g, g, g) == 0


def test_provider_parse_label_is_the_backends_own():
    assert "parse_label" in FusionProvider.__abstractmethods__
    ring = TinyRing()
    assert ring.parse_label("g").id == "g"
    with pytest.raises(UnknownLabel):
        ring.parse_label("nope")


def test_multiply_virtual():
    ring = TinyRing()
    e, g = ring.unit(), IrrLabel("g", 1)
    assert ring.multiply_virtual({g: 1}, {g: 1}) == {e: 1}
    # signed coefficients multiply bilinearly: (2e - 3g)(e + g) = -e - g
    assert ring.multiply_virtual({e: 2, g: -3}, {e: 1, g: 1}) == {e: -1, g: -1}
    # (e - g)(e + g) = e - e: a cancelled coefficient is dropped, not kept as 0
    assert ring.multiply_virtual({e: 1, g: -1}, {e: 1, g: 1}) == {}
    assert ring.multiply_virtual({}, {g: 5}) == {}


def test_default_order_oracle_unsupported():
    from fusionring import UnsupportedProvider

    ring = TinyRing()
    with pytest.raises(UnsupportedProvider):
        ring.order_oracle(IrrLabel("g", 1))


def test_default_capabilities():
    from fusionring import UnsupportedProvider

    ring = TinyRing()
    g = IrrLabel("g", 1)
    with pytest.raises(UnsupportedProvider):
        ring.torsion_quotient()
    with pytest.raises(UnsupportedProvider):
        ring.stage_one_exponent(g, 8)
    assert ring.free_factors() == ()
    with pytest.raises(UnsupportedProvider):
        ring.factor_restriction(g, 0)
    assert ring.chain_generators(1) == [g] and ring.chain_generators(5) == [g]
    assert ring.chain_size_cap(1) is None

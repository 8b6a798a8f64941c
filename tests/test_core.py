import math

import pytest
from hypothesis import given, strategies as st

from fusionring import (
    Budget,
    Decomposition,
    FusionProvider,
    IrrLabel,
    UnknownLabel,
    VirtualElement,
    canonical_key,
    canonical_sort,
)


def test_label_validation():
    with pytest.raises(ValueError):
        IrrLabel("x", 0)
    with pytest.raises(ValueError):
        IrrLabel("x", -3)
    lab = IrrLabel("x", 4)
    assert lab.id == "x" and lab.dim == 4


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


def test_virtual_element_arithmetic():
    a, b = IrrLabel("a", 2), IrrLabel("b", 3)
    x = VirtualElement.of(a) + VirtualElement.of(b) * 2
    assert x.coeff(a) == 1 and x.coeff(b) == 2
    y = x - VirtualElement.of(a)
    assert y.coeff(a) == 0 and not y.is_zero()
    assert y.is_effective()
    z = y - VirtualElement.of(b) * 3
    assert not z.is_effective()
    assert (x - x).is_zero()
    assert set(x.support()) == {a, b}


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


def test_multiply_virtual_and_product_element():
    ring = TinyRing()
    g = IrrLabel("g", 1)
    x = ring.multiply_virtual(VirtualElement.of(g), VirtualElement.of(g))
    assert x.coeff(ring.unit()) == 1
    prod = ring.product_element([g, g, g])
    assert prod.coeff(g) == 1 and len(prod.coeffs) == 1


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


@given(st.lists(st.tuples(st.text("ab", min_size=1, max_size=3), st.integers(1, 5)), min_size=1, max_size=6))
def test_virtual_element_addition_commutes(pairs):
    elems = [VirtualElement.of(IrrLabel(s, d)) for s, d in pairs]
    total = elems[0]
    for e in elems[1:]:
        total = total + e
    rtotal = elems[-1]
    for e in reversed(elems[:-1]):
        rtotal = rtotal + e
    assert total.coeffs == rtotal.coeffs

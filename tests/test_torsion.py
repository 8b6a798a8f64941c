"""Closures, torsion scans, chain and sequence probes, ideal recovery."""

import itertools
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionring import Budget, IrrLabel, canonical_sort
from fusionring.errors import NotFinite, NotSaturated, UnknownLabel, UnsupportedProvider
from fusionring.cli import parse_provider
from fusionring.components import identity_component_report
from fusionring.rings import (
    au_ring,
    builtin_finite_rings,
    FiniteTableProvider,
    character_ring,
    finite_group_ring,
    free_product,
    parse_word_group_spec,
    so3_ring,
    suq2_ring,
    uq_su11_ring,
    word_group,
)
from fusionring.torsion import (
    _conjugate,
    _forced,
    _sweep,
    ascending_chain_probe,
    central_closure,
    dimension_ideal_recover,
    enumerate_saturated_subrings,
    generated_subring,
    is_torsion,
    n_sequence_cocommutative,
    normal_forcing_closure,
    normality_consistency,
    torsion_subcategory,
)

from oracles import (
    abelian_group_table,
    bf_ball,
    bf_inv,
    bf_mul,
    close_reference,
    conjugate_reference,
    n_sequence_reference,
    saturated_subrings_reference,
    sweep_reference,
)


def test_double_ladder_torsion_scan_is_the_sign_pair():
    ring = uq_su11_ring()
    report = torsion_subcategory(ring, Budget(max_irreducibles=20))
    assert [l.id for l in report.certified] == ["u+0", "u-0"]
    assert report.subcategory.status == "saturated"
    assert report.non_torsion == []
    # every higher-dimensional label generates an infinite ladder
    assert len(report.unknowns) == 18
    d = report.to_dict()
    assert d["certified"] == ["u+0", "u-0"]
    assert d["window"] == 20


@pytest.mark.parametrize(
    "spec, budget, certified, unknown",
    [
        ("uqsu11", Budget(max_irreducibles=12), ["u+0", "u-0"],
         ["u+1", "u-1", "u+2", "u-2", "u+3", "u-3", "u+4", "u-4", "u+5", "u-5"]),
        ("word:Z*Z", Budget(max_irreducibles=6), ["e"], []),
        ("word:Z*Z", Budget(max_irreducibles=12), ["e"], []),
        ("suq2", Budget(max_irreducibles=4, max_label_size=4), ["u0"], ["u1", "u2", "u3"]),
    ],
    ids=["uqsu11-12", "ZZ-6", "ZZ-12", "suq2-4-cap4"],
)
def test_torsion_scan_certified_and_unknown_labels_are_pinned(spec, budget, certified, unknown):
    # the first non-unit certified label (u-0, or none) and the undecided ones
    report = torsion_subcategory(parse_provider(spec), budget)
    assert [l.id for l in report.certified] == certified
    assert [l.id for l in report.unknowns] == unknown
    assert len(report.verdicts) == budget.max_irreducibles
    assert (report.subcategory.status == "saturated") == (not report.subcategory.frontier)


def test_sign_label_generates_the_saturated_pair():
    ring = uq_su11_ring()
    sub = generated_subring(ring, [ring.parse_label("u-0")])
    assert sub.labels == (ring.unit(), ring.parse_label("u-0"))
    assert sub.status == "saturated"
    assert sub.frontier == ()


def test_central_closure_escapes_the_sign_pair():
    ring = uq_su11_ring()
    sub = central_closure(ring, [ring.parse_label("u-0")])
    assert ring.parse_label("u-2") in sub
    assert sub.status == "budget_exceeded"
    # the plain generated subring is always inside the central closure
    plain = generated_subring(ring, [ring.parse_label("u-0")])
    assert set(plain.labels) <= set(sub.labels)


def test_torsion_set_passes_normality_consistency():
    ring = uq_su11_ring()
    report = torsion_subcategory(ring, Budget(max_irreducibles=20))
    assert normality_consistency(ring, report.certified, 12) == []


def test_free_product_torsion_set_fails_normality():
    ring = free_product(so3_ring(), word_group(parse_word_group_spec("Z2")))
    a = ring.parse_label("a")
    violations = normality_consistency(ring, [ring.unit(), a], 8)
    assert violations
    first = violations[0].to_dict()
    assert first["member"] == "a"
    assert first["conjugator"] == "v1"
    assert first["product"] == ["v1.a.v1"]


def test_closure_idempotent_and_monotone_on_finite_rings():
    for provider in builtin_finite_rings():
        window = provider.enumerate(provider.num_irreducibles)
        half = window[: max(1, len(window) // 2)]
        small = generated_subring(provider, half)
        big = generated_subring(provider, window)
        assert small.status == "saturated"
        assert set(small.labels) <= set(big.labels)
        again = generated_subring(provider, small.labels)
        assert again.labels == small.labels


def test_forcing_closure_matches_central_on_group_rings():
    # conjugation products in a group ring are single irreducibles, so
    # the cautious rule loses nothing there
    for provider in builtin_finite_rings():
        if not provider.name.startswith("group:"):
            continue
        gens = [l for l in provider.enumerate(provider.num_irreducibles)][1:2]
        forced = normal_forcing_closure(provider, gens)
        central = central_closure(provider, gens)
        assert forced.labels == central.labels
        assert forced.status == "saturated"


@settings(max_examples=20)
@given(st.integers(min_value=0, max_value=6), st.sampled_from([1, -1]))
def test_torsion_verdict_agrees_with_conjugate(n, sign):
    ring = uq_su11_ring()
    u = ring.parse_label(f"u{'+' if sign > 0 else '-'}{n}")
    mine = is_torsion(ring, u, Budget(max_irreducibles=16))
    theirs = is_torsion(ring, ring.conj(u), Budget(max_irreducibles=16))
    assert mine.verdict == theirs.verdict


def test_word_group_order_oracle_decides_torsion():
    wg = word_group(parse_word_group_spec("Z2*Z3"))
    a = wg.parse_label("a")
    ab = wg.parse_label("ab")
    assert is_torsion(wg, a).verdict == "torsion"
    assert is_torsion(wg, ab).verdict == "non_torsion"


def test_block_chain_probe_is_strict_through_stage_four():
    ring = au_ring()
    report = ascending_chain_probe(ring, 4)
    assert report.strictly_increasing_up_to == 4
    assert [s.witnesses for s in report.stages] == [
        (ring.parse_label("Uu"),),
        (ring.parse_label("UUuu"),),
        (ring.parse_label("UUUuuu"),),
        (ring.parse_label("UUUUuuuu"),),
    ]
    for stage in report.stages:
        assert stage.strict
        assert set(stage.witnesses) <= set(stage.subcategory.labels)


def test_chain_witnesses_missing_from_previous_stage():
    ring = au_ring()
    report = ascending_chain_probe(ring, 4)
    for prev, stage in zip(report.stages, report.stages[1:]):
        assert set(stage.witnesses).isdisjoint(prev.subcategory.labels)


def _char_s3():
    return next(p for p in builtin_finite_rings() if p.name == "characters:S3")


def test_chain_probe_without_growth_stops_counting():
    ring = _char_s3()
    labels = [l for l in ring.enumerate(3) if l != ring.unit()]
    ring.chain_generators = lambda d: labels
    report = ascending_chain_probe(ring, 3)
    # one-shot family: later stages repeat the generators, nothing new
    assert report.stages[0].strict
    assert not report.stages[1].strict
    assert report.strictly_increasing_up_to == 1


def test_sequence_for_infinite_dihedral():
    wg = word_group(parse_word_group_spec("Z2*Z2"))
    rep = n_sequence_cocommutative(wg, Budget(max_irreducibles=24))
    assert rep.degree == 1
    assert rep.totally_disconnected
    assert not rep.connected
    assert rep.stabilized
    assert len(rep.stages) == 1
    assert len(rep.stages[0].labels) == 24


def test_sequence_for_mixed_free_product():
    wg = word_group(parse_word_group_spec("Z2*Z"))
    rep = n_sequence_cocommutative(wg, Budget(max_irreducibles=24))
    assert rep.degree == 1
    assert not rep.totally_disconnected
    assert rep.quotient_note == "free product of 1 infinite cyclic factor(s)"
    assert {l.id for l in rep.stages[0].labels} == {"e", "a", "bab^-1", "b^-1ab"}


def test_sequence_for_free_group_is_connected():
    wg = word_group(parse_word_group_spec("Z*Z"))
    rep = n_sequence_cocommutative(wg, Budget(max_irreducibles=24))
    assert rep.degree == 0
    assert rep.connected
    assert rep.stages == []


def test_sequence_stage_matches_brute_force_conjugates():
    # stage one of Z2*Z: exactly the ball conjugates of the torsion letter
    wg = word_group(parse_word_group_spec("Z2*Z"))
    rep = n_sequence_cocommutative(wg, Budget(max_irreducibles=24))
    orders = [2, None]
    expected = {()}
    a_word = ((0, 1),)
    for w in bf_ball(orders, 2):
        expected.add(bf_mul(bf_mul(w, a_word, orders), bf_inv(w, orders), orders))
    short = {
        l.id
        for l in rep.stages[0].labels
        if wg.label_size(l) <= 3
    }
    got_words = {tuple(t) for t in map(_tuple_word, short)}
    assert got_words == {w for w in expected if sum(abs(e) for _f, e in w) <= 3}


def _tuple_word(label_id):
    if label_id == "e":
        return ()
    return tuple(
        ("ab".index(m.group(1)), int(m.group(2) or 1))
        for m in re.finditer(r"([a-z])(?:\^(-?\d+))?", label_id)
    )


def test_sequence_rejects_non_group_rings():
    with pytest.raises(UnsupportedProvider):
        n_sequence_cocommutative(suq2_ring())


def test_sequence_finite_group_degrees():
    rings = {p.name: p for p in builtin_finite_rings()}
    rep = n_sequence_cocommutative(rings["group:S3"])
    assert rep.degree == 1
    assert rep.stabilized
    assert len(rep.stages[0].labels) == 6


NSEQUENCE_GROUPS = ["Z", "Z2", "Z5", "Z7", "Z*Z", "Z2*Z", "Z2*Z2", "Z3*Z", "Z2*Z3*Z", "Z*Z*Z",
                    "Z2*Z3", "Z4*Z*Z"]


@pytest.mark.parametrize("spec", NSEQUENCE_GROUPS)
def test_sequence_matches_the_per_backend_reference(spec):
    group = word_group(parse_word_group_spec(spec))
    order = group.num_irreducibles
    for window in range(1, 65):
        got = n_sequence_cocommutative(group, Budget(max_irreducibles=window)).to_dict()
        if isinstance(order, int) and window < order:
            # The reference scanned a finite word group only over the window
            # and called that slice stage one; the whole group is stage one.
            want = n_sequence_reference(group, Budget(max_irreducibles=order)).to_dict()
            assert n_sequence_reference(group, Budget(max_irreducibles=window)).to_dict() != got
        else:
            want = n_sequence_reference(group, Budget(max_irreducibles=window)).to_dict()
        assert got == want, (spec, window)


def _uncertified_dim_one_tables() -> list[FiniteTableProvider]:
    """Tables of dims 1 without the group certificate: the monoid {e, a}
    with a (x) a = a, Z3 with each element its own conjugate, the right
    zero band x (x) y = y (unit a on one side only), and Z2 with
    a (x) a = e + a (a product that is not one irreducible)."""
    ea, self_conj = {"e": 1, "a": 1}, {"e": "e", "a": "a"}
    z3 = {"e": 0, "a": 1, "b": 2}
    return [
        FiniteTableProvider("monoid", "e", ea, self_conj, {
            (x, y): {"a" if "a" in x + y else "e": 1} for x in ea for y in ea}),
        FiniteTableProvider("z3-self-conjugate", "e", dict.fromkeys(z3, 1), {x: x for x in z3}, {
            (x, y): {"eab"[(z3[x] + z3[y]) % 3]: 1} for x in z3 for y in z3}),
        FiniteTableProvider("right-zero-band", "a", ea, self_conj, {(x, y): {y: 1} for x in ea for y in ea}),
        FiniteTableProvider("z2-e+a", "e", ea, self_conj, {
            ("e", "e"): {"e": 1}, ("e", "a"): {"a": 1}, ("a", "e"): {"a": 1}, ("a", "a"): {"e": 1, "a": 1}}),
    ]


def test_sequence_matches_the_reference_on_builtin_finite_rings():
    # A dim-1 table without the certificate is refused by both, with the
    # same message; the reference once called the monoid a group.
    for ring in [*builtin_finite_rings(), *_uncertified_dim_one_tables()]:
        for window in (1, 3, 64):
            budget = Budget(max_irreducibles=window)
            try:
                want = n_sequence_reference(ring, budget).to_dict()
            except UnsupportedProvider as exc:
                with pytest.raises(UnsupportedProvider, match=f"^{re.escape(str(exc))}$"):
                    n_sequence_cocommutative(ring, budget)
                continue
            assert n_sequence_cocommutative(ring, budget).to_dict() == want, (ring.name, window)


def test_finite_word_group_stage_one_is_the_whole_group():
    group = word_group([5])
    rep = n_sequence_cocommutative(group, Budget(max_irreducibles=3))
    assert rep.stages[0].labels == tuple(map(group.parse_label, ["a", "a^2", "a^3", "a^4", "e"]))
    assert rep.stages[0].status == "saturated"
    assert rep.scanned == 5


def test_finite_word_group_above_the_scan_limit_is_refused_before_listing():
    # Z10000 is scanned whole; one element more, or 10^20, is refused at once.
    assert n_sequence_cocommutative(word_group([10_000])).scanned == 10_000
    for order in (10_001, 10**20):
        group = word_group([order])
        with pytest.raises(UnsupportedProvider, match=f"{order} elements are more than the limit of 10000"):
            n_sequence_cocommutative(group)
        assert group._interned == {}


def test_infinite_word_group_window_above_the_scan_limit_is_refused_before_listing():
    # The window has the finite-group limit: 10^6 labels took 10.6 s.
    group = parse_provider("word:Z2*Z")
    with pytest.raises(UnsupportedProvider, match="10001 labels are more than the limit of 10000$"):
        n_sequence_cocommutative(group, Budget(max_irreducibles=10_001))
    assert group._interned == {}
    rep = n_sequence_cocommutative(group, Budget(max_irreducibles=10_000))
    assert (rep.scanned, rep.degree, rep.stabilized) == (10_000, 1, True)


def test_torsion_scan_window_above_the_scan_limit_is_refused_before_listing():
    # The torsion scan, and the component report that runs it, list the
    # window first: 10^8 labels gave no answer in 20 s.
    for count in (10_001, 10**8):
        ring = suq2_ring()
        with pytest.raises(UnsupportedProvider, match=f"{count} labels are more than the limit of 10000$"):
            torsion_subcategory(ring, Budget(max_irreducibles=count))
        with pytest.raises(UnsupportedProvider, match=f"{count} labels are more than the limit of 10000$"):
            identity_component_report(ring, Budget(max_irreducibles=count))
        assert ring._interned == {}


def test_a_finite_ring_below_the_scan_limit_is_scanned_whatever_its_budget():
    ring = next(r for r in builtin_finite_rings() if r.name == "group:S3")
    budget = Budget(max_irreducibles=20_000)
    report = torsion_subcategory(ring, budget)
    assert len(report.verdicts) == 6 and len(report.certified) == 6
    assert report.subcategory.status == "saturated"
    assert identity_component_report(ring, budget).component_group_order == 6


# Each scan of a window of ``count`` labels with generators, or S, ``labels``.
CONJUGATION_SCANS = {
    "central closure": lambda ring, labels, count: central_closure(ring, labels, Budget(max_irreducibles=count)),
    "normal forcing closure":
        lambda ring, labels, count: normal_forcing_closure(ring, labels, Budget(max_irreducibles=count)),
    "normality probe": lambda ring, labels, count: normality_consistency(ring, labels, count),
}


@pytest.mark.parametrize("spec", ["suq2", "word:Z2*Z"])
@pytest.mark.parametrize("scan", sorted(CONJUGATION_SCANS))
def test_conjugation_window_above_the_scan_limit_is_refused_before_listing(spec, scan, monkeypatch):
    # These scans listed the budget's window with no limit: the central and
    # forcing closures of suq2 <u1> at 10^8 gave no answer in 20 s.  Any
    # listing fails at once, so a scan that lists first cannot hang here.
    def enumerate_(n):
        raise AssertionError(f"listed a window of {n}")

    for count in (10_001, 10**8):
        ring = parse_provider(spec)
        monkeypatch.setattr(ring, "enumerate", enumerate_)
        with pytest.raises(UnsupportedProvider, match=f"{count} labels are more than the limit of 10000$"):
            CONJUGATION_SCANS[scan](ring, [], count)
        assert ring._interned == {}


@pytest.mark.parametrize("scan", sorted(CONJUGATION_SCANS))
def test_a_finite_ring_conjugates_by_all_its_labels_whatever_its_budget(scan):
    ring = next(r for r in builtin_finite_rings() if r.name == "group:S3")
    labels = [ring.unit(), ring.parse_label("p021")]  # a transposition: not normal
    answer = CONJUGATION_SCANS[scan](ring, labels, 10**8)
    assert answer and answer == CONJUGATION_SCANS[scan](ring, labels, 6)


def test_dimension_ideal_recovers_character_subrings():
    ring = _char_s3()
    by_id = {l.id: l for l in ring.enumerate(3)}
    for ids in (["triv"], ["sgn", "triv"], ["sgn", "std", "triv"]):
        rep = dimension_ideal_recover(ring, [by_id[i] for i in ids])
        assert rep.exact
        assert list(rep.recovered) == list(rep.given)


def test_dimension_ideal_recovers_every_saturated_subset():
    for provider in builtin_finite_rings():
        for subset in enumerate_saturated_subrings(provider):
            rep = dimension_ideal_recover(provider, subset)
            assert rep.exact, (provider.name, rep.to_dict())


def test_saturated_subring_counts():
    counts = {
        p.name: len(enumerate_saturated_subrings(p)) for p in builtin_finite_rings()
    }
    assert counts == {
        "group:Z2": 2,
        "group:Z3": 2,
        "group:Z4": 3,
        "group:V4": 5,
        "group:S3": 6,
        "characters:S3": 3,
    }


def _small_finite_rings(fixtures_dir):
    """Every ring of at most 16 irreducibles the tests build."""
    yield from builtin_finite_rings()
    for orders in [(16,), (4, 4), (2, 8)]:
        yield finite_group_ring(abelian_group_table(orders), f"group:{orders}")
    yield parse_provider("prod(word:Z2,word:Z4)")
    yield character_ring(fixtures_dir / "s3_characters.json")


def test_subring_search_matches_the_subset_scan(fixtures_dir):
    for ring in _small_finite_rings(fixtures_dir):
        assert enumerate_saturated_subrings(ring) == saturated_subrings_reference(ring), ring.name


def test_subring_search_refuses_a_ring_whose_products_leave_it():
    # Z3 cut down to {e, a}: a (x) a = a^2 lies outside the two labels,
    # so no closure through a can saturate.
    z3 = word_group([3])

    class CutZ3(type(z3)):
        num_irreducibles = 2

    ring = CutZ3(z3.spec)
    with pytest.raises(NotSaturated):
        enumerate_saturated_subrings(ring)


def test_subset_refusals_cut_a_long_id():
    # Z3 on e, a^3000 and b^3000 (a (x) a = b): each refusal names an id
    # by at most 60 characters and its length.
    ids = ("e", "a" * 3000, "b" * 3000)
    table = {(x, y): {ids[(ids.index(x) + ids.index(y)) % 3]: 1} for x in ids for y in ids}

    class CutZ3(FiniteTableProvider):
        num_irreducibles = 2

    ring = CutZ3("z3", "e", dict.fromkeys(ids, 1), {"e": "e", ids[1]: ids[2], ids[2]: ids[1]}, table)
    e, a = ring.enumerate(2)
    cut = {c: f"'{c * 60}'... (3000 characters)" for c in "aby"}
    with pytest.raises(NotSaturated, match=re.escape(f"label {cut['y']} is not an irreducible of z3")):
        dimension_ideal_recover(ring, [e, IrrLabel("y" * 3000, 1)])
    with pytest.raises(NotSaturated, match=re.escape(f"products: {cut['b']} is reached but not listed")):
        dimension_ideal_recover(ring, [e, a])
    with pytest.raises(NotSaturated, match=re.escape(f"z3: the subring generated with {cut['a']} did not saturate")):
        enumerate_saturated_subrings(ring)


def test_dimension_ideal_rejects_bad_subsets():
    ring = _char_s3()
    by_id = {l.id: l for l in ring.enumerate(3)}
    with pytest.raises(NotSaturated):
        dimension_ideal_recover(ring, [by_id["sgn"]])  # missing unit
    with pytest.raises(NotSaturated):
        dimension_ideal_recover(ring, [by_id["triv"], by_id["std"]])  # not closed
    with pytest.raises(NotFinite):
        dimension_ideal_recover(uq_su11_ring(), [uq_su11_ring().unit()])
    with pytest.raises(NotFinite):
        enumerate_saturated_subrings(suq2_ring())


# The rings and generators of the golden CLI digests.
REFERENCE_RINGS = {
    "suq2": "u1",
    "uqsu11": "u-1",
    "au": "uU",
    "word:Z2*Z": "ab",
    "free(so3,word:Z2)": "v1.a",
    "prod(suq2,word:Z2)": "(u1,a)",
    "S3 table": "std",
}


def _reference_ring(spec, fixtures_dir):
    if spec == "S3 table":
        return character_ring(fixtures_dir / "s3_characters.json")
    return parse_provider(spec)


CLOSURES = {
    "tensor_generated": generated_subring,
    "central_closure": central_closure,
    "normal_forcing_closure": normal_forcing_closure,
}
# Small enough that the count, size and round caps each cut some closure short.
CAPPED_BUDGETS = [
    Budget(max_irreducibles=n, max_label_size=size, max_rounds=rounds)
    for n in (3, 8, 24)
    for size in (1, 3)
    for rounds in (1, 2)
]
# Lifted size and round caps: the count cap fills in the middle of a round.
LIFTED_BUDGETS = [Budget(max_irreducibles=n, max_label_size=10**6, max_rounds=10**6) for n in (40, 64)]
LIFTED_RINGS = ("suq2", "au", "uqsu11")


@pytest.mark.parametrize("kind", CLOSURES)
@pytest.mark.parametrize("spec", REFERENCE_RINGS)
def test_closures_match_the_reference_engine_under_every_cap(spec, kind, fixtures_dir):
    ring = _reference_ring(spec, fixtures_dir)
    gens = [ring.parse_label(REFERENCE_RINGS[spec])]
    lifted = LIFTED_BUDGETS if spec in LIFTED_RINGS else []
    for budget in CAPPED_BUDGETS + lifted:
        got = CLOSURES[kind](ring, gens, budget)
        want = close_reference(ring, kind, gens, budget)
        assert (got.labels, got.status, got.frontier) == (want.labels, want.status, want.frontier), budget
        assert (got.status == "saturated") == (not got.frontier), budget
        if budget in lifted:
            assert len(got.labels) == budget.max_irreducibles


@pytest.mark.parametrize("kind", CLOSURES)
def test_closures_from_an_so3_letter_match_the_reference_engine_under_every_cap(kind):
    # From v1 the closures stay on so3 letters for longer, where the free
    # product returns so3's own cached products; the size cap keeps them there.
    ring = parse_provider("free(so3,word:Z2)")
    gens = [ring.parse_label("v1")]
    for budget in CAPPED_BUDGETS + LIFTED_BUDGETS:
        got = CLOSURES[kind](ring, gens, budget)
        want = close_reference(ring, kind, gens, budget)
        assert (got.labels, got.status, got.frontier) == (want.labels, want.status, want.frontier), budget
        assert (got.status == "saturated") == (not got.frontier), budget


def _rule_reference(ring, kind, labels, window):
    """What the closure ``kind``'s rule adjoins for ``labels``, from
    ``conjugate_reference``: every constituent of ubar (x) v (x) u for the
    central closure, a product that is one irreducible for the forcing
    closure, nothing for the generated subring."""
    out = set()
    if kind == "tensor_generated":
        return out
    for v in labels:
        for u in window:
            product = conjugate_reference(ring, u, v)
            if kind == "central_closure":
                out.update(lab for lab, _ in product)
            elif len(product) == 1 and product[0][1] == 1:
                out.add(product[0][0])
    return out


def _reached_reference(ring, kind, labels, budget):
    """Every label the full sweep and the rule reach from ``labels``."""
    window = ring.enumerate(budget.max_irreducibles)
    return {*sweep_reference(ring, labels), *_rule_reference(ring, kind, labels, window)}


@pytest.mark.parametrize("kind", CLOSURES)
@pytest.mark.parametrize("spec", REFERENCE_RINGS)
def test_a_closure_frontier_is_recomputed_from_its_labels_and_inputs(spec, kind, fixtures_dir):
    # The frontier is what the labels reach by conjugates, products and
    # the rule, with the unit and the generators, minus the labels: no
    # record of what the admission loop refused is needed.
    ring = _reference_ring(spec, fixtures_dir)
    gens = [ring.parse_label(REFERENCE_RINGS[spec])]
    lifted = LIFTED_BUDGETS if spec in LIFTED_RINGS else []
    for budget in CAPPED_BUDGETS + lifted:
        got = CLOSURES[kind](ring, gens, budget)
        reached = _reached_reference(ring, kind, got.labels, budget) | {ring.unit(), *gens}
        assert set(got.frontier) == reached - set(got.labels), budget


@pytest.mark.parametrize("kind", CLOSURES)
@pytest.mark.parametrize("gen, budget", [
    ("u5", Budget(max_label_size=3)),  # over the size cap
    ("u1", Budget(max_irreducibles=1)),  # the unit fills the count cap
])
def test_a_refused_generator_is_in_the_frontier_without_being_reached(kind, gen, budget):
    ring = suq2_ring()
    g = ring.parse_label(gen)
    got = CLOSURES[kind](ring, [g], budget)
    assert g not in got.labels and g in got.frontier and got.status == "budget_exceeded"
    assert g not in _reached_reference(ring, kind, got.labels, budget)
    # The central rule also adjoins constituents of ubar (x) u, such as u2.
    if kind != "central_closure":
        assert (got.labels, got.frontier) == ((ring.unit(),), (g,))


@pytest.mark.parametrize("kind", CLOSURES)
def test_a_closure_its_last_round_closes_is_saturated(kind):
    # Z4 is generated by g1 in one round; the re-verification then finds
    # nothing outside, so the round cap leaves no frontier and no doubt.
    ring = next(r for r in builtin_finite_rings() if r.name == "group:Z4")
    sub = CLOSURES[kind](ring, [ring.parse_label("g1")], Budget(max_rounds=1))
    assert sub.labels == tuple(map(ring.parse_label, ["g0", "g1", "g2", "g3"]))
    assert sub.status == "saturated"
    assert sub.frontier == ()


@pytest.mark.parametrize("spec", REFERENCE_RINGS)
def test_conjugate_matches_the_virtual_element_route(spec, fixtures_dir):
    # Over the 16-label window (S3 has 3 labels): 6 * 256 + 9 = 1,545
    # pairs.  The constituents are the reference's labels, in its order,
    # and the forced product is its single label of multiplicity 1.
    ring = _reference_ring(spec, fixtures_dir)
    window = ring.enumerate(16)
    for u in window:
        for v in window:
            want = conjugate_reference(ring, u, v)
            assert _conjugate(ring, u, v) == [lab for lab, _ in want], (u.id, v.id)
            forced = want[0][0] if len(want) == 1 and want[0][1] == 1 else None
            assert _forced(ring, u, v) == forced, (u.id, v.id)


def test_forcing_at_a_window_of_two_thousand_answers_with_a_bounded_cache():
    # On suq2, ubar (x) v is one irreducible only when u or v is the unit,
    # so the forcing rule forms w (x) u for those pairs alone.  The
    # decompose cache then holds the members' products, one ubar (x) v per
    # member and window label, and ubar (x) u per window label: not a
    # w (x) u for every constituent w of every ubar (x) v.
    ring = suq2_ring()
    budget = Budget(max_irreducibles=2000)
    got = normal_forcing_closure(ring, [ring.parse_label("u1")], budget)
    assert got.labels == tuple(ring.parse_label(f"u{k}") for k in range(9))
    assert got.status == "budget_exceeded"
    assert got.frontier == tuple(ring.parse_label(f"u{k}") for k in range(9, 17))
    members = len(got.labels)
    assert len(ring._decompose_cache) <= (members + 1) * budget.max_irreducibles + members ** 2


@pytest.mark.parametrize("kind", CLOSURES)
@pytest.mark.parametrize("cap", [1, 2])
def test_foreign_generator_past_the_cap_is_refused(kind, cap):
    # The unit fills a cap of 1; with a cap of 2 the foreign label comes
    # after the cap is full.  Both engines must still refuse it.
    ring = suq2_ring()
    gens = [ring.parse_label("u1"), IrrLabel("zz", 3)][2 - cap:]
    budget = Budget(max_irreducibles=cap)
    with pytest.raises(UnknownLabel):
        close_reference(ring, kind, gens, budget)
    with pytest.raises(UnknownLabel):
        CLOSURES[kind](ring, gens, budget)


SUBRING_WORK = """
from fusionring.rings import direct_product, word_group
from fusionring.torsion import enumerate_saturated_subrings
ring = direct_product(word_group([2]), word_group([4]))
calls = []
real = ring.decompose
ring.decompose = lambda u, v: calls.append(1) or real(u, v)
print(len(enumerate_saturated_subrings(ring)), len(calls))
"""


def test_subring_enumeration_work_is_independent_of_the_hash_seed():
    # Each closure of the search admits labels in a fixed order, so the
    # decompose calls it makes do not follow PYTHONHASHSEED.
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = set()
    for seed in ("0", "1", "2", "3"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", SUBRING_WORK], capture_output=True,
                              text=True, env=env, timeout=120, check=True)
        outputs.add(done.stdout)
    assert outputs == {"8 3032\n"}


# Every builtin infinite ring of the axiom workload, two more word groups,
# and the builtin finite tables.
SWEEP_RINGS = {
    spec: parse_provider(spec)
    for spec in ("suq2", "so3", "uqsu11", "au", "word:Z2*Z2", "word:Z2*Z", "prod(suq2,word:Z2)",
                 "free(so3,word:Z2)")
}
SWEEP_RINGS.update((r.name, r) for r in builtin_finite_rings())


@pytest.mark.parametrize("spec", SWEEP_RINGS)
def test_sweep_reaches_what_the_lazy_reference_yields(spec):
    # Snapshots in enumeration order and reversed, split into old and new at
    # several points, the full sweep (old empty) and an empty new included.
    ring = SWEEP_RINGS[spec]
    window = ring.enumerate(14)
    for labels in (window, window[::-1]):
        for cut in sorted({0, 1, len(labels) // 2, len(labels) - 1, len(labels)}):
            old, new = labels[:cut], labels[cut:]
            calls = []
            decompose = ring.decompose
            ring.decompose = lambda a, b: calls.append((a, b)) or decompose(a, b)
            try:
                got = list(_sweep(ring, new, old))
                got_calls, calls[:] = calls[:], []
                want = list(dict.fromkeys(sweep_reference(ring, new, old)))
            finally:
                del ring.decompose
            assert got == want, (spec, cut)
            assert got_calls == calls


@pytest.mark.parametrize("ring", builtin_finite_rings(), ids=lambda r: r.name)
def test_dimideal_names_the_first_escape_of_the_lazy_sweep(ring):
    # Every label set that holds the unit: a closed one is recovered, and
    # any other is refused naming the first label the reference sweep
    # reaches outside it, in canonical order.
    unit, *others = ring.enumerate(ring.num_irreducibles)
    refused = 0
    for r in range(len(others) + 1):
        for chosen in itertools.combinations(others, r):
            given = canonical_sort([unit, *chosen])
            escape = next((w for w in sweep_reference(ring, given) if w not in given), None)
            if escape is None:
                assert dimension_ideal_recover(ring, given).given == tuple(given)
                continue
            refused += 1
            with pytest.raises(NotSaturated, match=re.escape(f": {escape.id!r} is reached but not listed")):
                dimension_ideal_recover(ring, given)
    assert refused == 2 ** len(others) - len(enumerate_saturated_subrings(ring))

"""Independent oracles the tests compare the library against.

Everything here is computed by a different route than the library code:
multiplicities by weight counting instead of closed-form ranges, group
closures by brute-force tuple arithmetic instead of homomorphism
criteria, character fusion by summing over group elements instead of
classes, and sign rules from phase bookkeeping of the diagonal
generator.  Expected values quoted in tests were frozen from these
oracles by hand before the library existed.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction


# ---------------------------------------------------------------------------
# ladder tensor multiplicities by weight counting


def su2_multiplicity(n: int, m: int, k: int) -> int:
    """Multiplicity of the (k+1)-dim irreducible inside (n+1) (x) (m+1).

    Counts weights of the product and peels: mult(k) = #weights equal to
    k minus #weights equal to k + 2.
    """
    weights = Counter(
        (n - 2 * i) + (m - 2 * j) for i in range(n + 1) for j in range(m + 1)
    )
    return max(0, weights.get(k, 0) - weights.get(k + 2, 0))


def so3_multiplicity(j: int, k: int, l: int) -> int:
    """Same weight-counting argument for odd-dimensional labels only."""
    weights = Counter(
        (2 * j - 2 * i) + (2 * k - 2 * jj) for i in range(2 * j + 1) for jj in range(2 * k + 1)
    )
    return max(0, weights.get(2 * l, 0) - weights.get(2 * l + 2, 0))


# ---------------------------------------------------------------------------
# sign rule for the double ladder from diagonal-generator phases


def double_ladder_phase(sign: int, n: int) -> complex:
    """Twist of the (sign, n) model: sign when n is even, sign*i when odd."""
    return sign * (1j if n % 2 else 1)


def double_ladder_sign(eps: int, n: int, delta: int, m: int) -> int:
    """Output sign of every constituent of (eps,n) (x) (delta,m).

    The diagonal generator of the product carries the phase product, and
    a constituent at the forced parity (n + m mod 2) must match it; the
    resulting sign is constant along the whole range.
    """
    target = double_ladder_phase(eps, n) * double_ladder_phase(delta, m)
    parity = (n + m) % 2
    for sigma in (1, -1):
        if abs(double_ladder_phase(sigma, parity) - target) < 1e-12:
            return sigma
    raise AssertionError("phase bookkeeping failed")


# ---------------------------------------------------------------------------
# brute-force word group arithmetic (tuples of (factor, exponent))


def _reduce(word, orders):
    out = []
    for factor, exp in word:
        m = orders[factor]
        if m is not None:
            exp %= m
        if exp == 0:
            continue
        if out and out[-1][0] == factor:
            prev_f, prev_e = out.pop()
            e = prev_e + exp
            if m is not None:
                e %= m
            if e:
                out.append((prev_f, e))
        else:
            out.append((factor, exp))
    # merging can create fresh adjacencies; iterate until stable
    tup = tuple(out)
    return tup if tup == tuple(word) else _reduce(tup, orders)


def spell_word_reference(word) -> str:
    """The id of a reduced word ``((factor, exponent), ...)``, spelled one
    letter at a time as ``WordGroupProvider._spell`` did before it joined
    cached letter texts: factor k's letter (a-z without e), then ``^e``
    unless the exponent is 1; the empty word is ``e``."""
    letters = "abcdfghijklmnopqrstuvwxyz"
    return "".join(letters[k] + ("" if e == 1 else f"^{e}") for k, e in word) or "e"


def bf_mul(a, b, orders):
    return _reduce(tuple(a) + tuple(b), orders)


def bf_inv(a, orders):
    return _reduce(tuple((f, -e) for f, e in reversed(a)), orders)


def word_length(a, orders) -> int:
    total = 0
    for f, e in a:
        m = orders[f]
        total += abs(e) if m is None else min(e % m, (-e) % m)
    return total


def bf_ball(orders, radius: int):
    """All elements of length <= radius by breadth-first products."""
    letters = []
    for f, m in enumerate(orders):
        exps = range(1, m) if m is not None else range(-radius, radius + 1)
        for e in exps:
            if e == 0:
                continue
            w = _reduce(((f, e),), orders)
            if w and word_length(w, orders) <= radius:
                letters.append(w)
    seen = {(): 0}
    frontier = [()]
    while frontier:
        nxt = []
        for w in frontier:
            for l in letters:
                prod = bf_mul(w, l, orders)
                if prod not in seen and word_length(prod, orders) <= radius:
                    seen[prod] = 0
                    nxt.append(prod)
        frontier = nxt
    return set(seen)


def bf_normal_closure_in_ball(orders, generators, radius: int, slack: int = 2):
    """Normal closure of the generators intersected with the ball.

    Works inside the ball of radius + slack so products that leave and
    come back are not lost, then intersects down.
    """
    big = radius + slack
    ball = bf_ball(orders, big)
    gens = {_reduce(tuple(g), orders) for g in generators}
    conjugators = bf_ball(orders, slack + 1)
    closure = {()}
    closure |= {g for g in gens if g in ball}
    changed = True
    while changed:
        changed = False
        additions = set()
        for x in closure:
            for t in conjugators:
                c = bf_mul(bf_mul(t, x, orders), bf_inv(t, orders), orders)
                if c in ball and c not in closure:
                    additions.add(c)
            for y in closure:
                p = bf_mul(x, y, orders)
                if p in ball and p not in closure:
                    additions.add(p)
            inv = bf_inv(x, orders)
            if inv in ball and inv not in closure:
                additions.add(inv)
        if additions:
            closure |= additions
            changed = True
    return {w for w in closure if word_length(w, orders) <= radius}


def bf_order(word, orders, bound: int = 64):
    """Order by honest powering, None when it exceeds the bound."""
    w = _reduce(tuple(word), orders)
    acc = ()
    for k in range(1, bound + 1):
        acc = bf_mul(acc, w, orders)
        if not acc:
            return k
    return None


# ---------------------------------------------------------------------------
# S3 fusion by summing characters over the 6 permutations


S3_ELEMENTS = list(itertools.permutations(range(3)))


def _perm_compose(p, q):
    return tuple(p[q[i]] for i in range(3))


def s3_group_table() -> dict[tuple[str, str], str]:
    """Multiplication table of S3, each permutation named ``"p"`` and its images."""
    name = {p: "p" + "".join(map(str, p)) for p in S3_ELEMENTS}
    return {(name[p], name[q]): name[_perm_compose(p, q)] for p in S3_ELEMENTS for q in S3_ELEMENTS}


def s3_character_value(name: str, perm) -> int:
    fixed = sum(1 for i in range(3) if perm[i] == i)
    parity = 1
    seen = set()
    for start in range(3):
        if start in seen:
            continue
        length = 0
        cur = start
        while cur not in seen:
            seen.add(cur)
            cur = perm[cur]
            length += 1
        if length % 2 == 0:
            parity = -parity
    if name == "triv":
        return 1
    if name == "sgn":
        return parity
    if name == "std":
        return fixed - 1
    raise KeyError(name)


def s3_fusion_mult(a: str, b: str, c: str) -> int:
    total = Fraction(0)
    for g in S3_ELEMENTS:
        total += Fraction(
            s3_character_value(a, g) * s3_character_value(b, g) * s3_character_value(c, g)
        )
    val = total / len(S3_ELEMENTS)
    assert val.denominator == 1 and val >= 0
    return int(val)


# ---------------------------------------------------------------------------
# frozen q-integers at q = -1/2 (worked by hand from the defining ratio)


QINT_AT_MINUS_HALF = {
    0: Fraction(0),
    1: Fraction(1),
    2: Fraction(-5, 2),
    3: Fraction(21, 4),
    4: Fraction(-85, 8),
}


# ---------------------------------------------------------------------------
# stage one of the torsion-closure sequence by forming powers


def stage_one_contains(provider, u) -> bool:
    """Whether the label ``u`` of a word group lies in stage one, the
    kernel of the quotient that deletes every finite factor: the letters
    of its infinite factors, reduced here, cancel to the empty word."""
    orders = [None if m == float("inf") else m for m in provider.spec.factors]
    return not _reduce(tuple(l for l in provider.key_of(u) if orders[l[0]] is None), orders)


def power_stage_one_exponent(provider, g, bound: int):
    """Least n <= bound with g^n in stage one, None when there is none.

    Forms each power g^n in the ring itself and tests it with
    ``stage_one_contains`` (the kill-finite-factors image is trivial): the
    search the n-sequence ran before it multiplied images instead.
    """
    acc = provider.unit()
    for n in range(1, bound + 1):
        (acc, _mult), = provider.decompose(acc, g)
        if stage_one_contains(provider, acc):
            return n
    return None


# ---------------------------------------------------------------------------
# word-group enumeration by the weight loop that visits every letter weight


def enumerate_words_reference(provider, count: int):
    """The first ``count`` labels of a ``WordGroupProvider`` in its order.

    Builds each weight layer from every lighter layer and every letter
    weight up to the layer's own, asking the provider for the letters of
    each weight afresh per stem, then sorts all words by weight, length
    and letters: the loop ``enumerate`` ran before it capped letter
    weights for finite-factor groups, listed each weight's letters once
    and sorted layer by layer.
    """

    def word_key(w):
        return (provider._weight(w), len(w), tuple((k, abs(e), 0 if e > 0 else 1) for k, e in w))

    factors = provider.spec.factors
    finite_weights = [m // 2 for m in factors if m != float("inf")]
    max_lw = max(finite_weights, default=0)
    all_finite = len(finite_weights) == len(factors)
    words = [()]
    by_weight = {0: [()]}
    for weight in itertools.count(1):
        if len(words) >= count:
            break
        layer = []
        for j in range(1, weight + 1):
            for stem in by_weight.get(weight - j, ()):
                for letter in provider._letters_of_weight(j):
                    if stem and stem[-1][0] == letter[0]:
                        continue
                    layer.append(stem + (letter,))
        by_weight[weight] = layer
        words.extend(layer)
        if all_finite and all(not by_weight.get(weight - j) for j in range(max_lw)):
            break
    words.sort(key=word_key)
    return [provider.parse_label(provider._spell(w)[0]) for w in words[:count]]


# ---------------------------------------------------------------------------
# closure engine with every conj/product sweep and ubar (x) v (x) u product
# written out at its call site


def close_reference(provider, kind: str, generators, budget):
    """The closure ``kind`` ("tensor_generated", "central_closure" or
    "normal_forcing_closure") of ``generators`` as a ``Subcategory``.

    The loop, its final verification pass and the two conjugation rules
    are the library's closure engine as it stood before the sweep and the
    triple product became shared helpers, kept line for line so that the
    helpers can be compared against it at every cap.
    """
    # Imported here: perfbench loads this module before the package.
    from fusionring.core import FusionProvider, IrrLabel, canonical_sort
    from fusionring.torsion import BUDGET_EXCEEDED, SATURATED, Subcategory

    def _close(
        provider: FusionProvider,
        kind: str,
        generators,
        budget,
        extra_candidates=None,
    ) -> Subcategory:
        members: dict[IrrLabel, None] = {}
        overflow: set[IrrLabel] = set()

        def admit(lab: IrrLabel):
            if lab in members or lab in overflow:
                return
            if provider.label_size(lab) > budget.max_label_size:
                overflow.add(lab)
            elif len(members) >= budget.max_irreducibles:
                overflow.add(lab)
            else:
                members[lab] = None

        admit(provider.unit())
        for g in generators:
            admit(g)

        for _ in range(budget.max_rounds):
            before = len(members)
            current = list(members)
            for u in current:
                admit(provider.conj(u))
            for a in current:
                for b in current:
                    for w, _m in provider.decompose(a, b):
                        admit(w)
            if extra_candidates is not None:
                for lab in extra_candidates(list(members)):
                    admit(lab)
            if len(members) == before:
                break

        # Final pass: trust nothing from the loop bookkeeping.
        escaped: set[IrrLabel] = set()
        final = list(members)
        inside = set(final)
        for u in final:
            c = provider.conj(u)
            if c not in inside:
                escaped.add(c)
        for a in final:
            for b in final:
                for w, _m in provider.decompose(a, b):
                    if w not in inside:
                        escaped.add(w)
        if extra_candidates is not None:
            for lab in extra_candidates(final):
                if lab not in inside:
                    escaped.add(lab)

        frontier = overflow | escaped
        status = SATURATED if not frontier else BUDGET_EXCEEDED
        return Subcategory(kind=kind, labels=tuple(members), status=status, frontier=tuple(frontier))

    window = provider.enumerate(budget.max_irreducibles)

    def central_rule(members):
        for v in members:
            for u in window:
                ubar = provider.conj(u)
                prod = provider.multiply_virtual(
                    provider.multiply_virtual({ubar: 1}, {v: 1}), {u: 1}
                )
                for lab in canonical_sort(prod):
                    yield lab

    def forcing_rule(members):
        for v in members:
            for u in window:
                ubar = provider.conj(u)
                prod = provider.multiply_virtual(
                    provider.multiply_virtual({ubar: 1}, {v: 1}), {u: 1}
                )
                if len(prod) == 1:
                    (lab, mult), = prod.items()
                    if mult == 1:
                        yield lab

    rules = {
        "tensor_generated": None,
        "central_closure": central_rule,
        "normal_forcing_closure": forcing_rule,
    }
    return _close(provider, kind, generators, budget, rules[kind])


def conjugate_reference(provider, u, v):
    """``ubar (x) v (x) u`` as ``(label, multiplicity)`` pairs in canonical
    order, through two ``multiply_virtual`` calls on integer combinations:
    the route the library's triple product took before it was built from
    cached decompositions."""
    from fusionring.core import canonical_sort

    prod = provider.multiply_virtual(
        provider.multiply_virtual({provider.conj(u): 1}, {v: 1}), {u: 1}
    )
    return tuple((lab, prod[lab]) for lab in canonical_sort(prod))


# ---------------------------------------------------------------------------
# torsion-closure sequence by backend class, one routine per backend


def n_sequence_reference(provider, budget, exponent_bound: int = 64):
    """The ``NSequenceReport`` of ``provider`` as the library computed it
    when it picked a routine by backend class: word groups scanned over the
    budget's window, finite group tables scanned whole.

    Kept line for line, apart from reading the finite factors off the spec,
    testing stage-one membership with ``stage_one_contains`` above and
    telling a group table by its dims (all 1), so that the single
    capability-driven path can be compared against it.
    """
    # Imported here: perfbench loads this module before the package.
    import math

    from fusionring.errors import UnsupportedProvider
    from fusionring.rings import FiniteTableProvider, WordGroupProvider
    from fusionring.torsion import BUDGET_EXCEEDED, SATURATED, NSequenceReport, Subcategory

    def _n_sequence_words(provider, budget, exponent_bound):
        window = provider.enumerate(budget.max_irreducibles)
        finite_factors = [k for k, m in enumerate(provider.spec.factors) if m != math.inf]
        infinite_count = len(provider.spec.factors) - len(finite_factors)
        connected = not finite_factors
        totally_disconnected = infinite_count == 0

        counterexample = None
        for g in window:
            n = provider.stage_one_exponent(g, exponent_bound)
            if n is not None and n > 1:
                counterexample = f"{g.id}^{n}"
                break

        stage_labels = [u for u in window if stage_one_contains(provider, u)]
        stage_finite = connected or (len(provider.spec.factors) == 1 and not infinite_count)
        stage = Subcategory(
            kind="normal_forcing_closure",
            labels=tuple(stage_labels),
            status=SATURATED if stage_finite else BUDGET_EXCEEDED,
        )
        if connected:
            degree = 0
            stages = []
        elif counterexample is None:
            degree = 1
            stages = [stage]
        else:
            degree = None
            stages = [stage]
        quotient = (
            "trivial quotient"
            if totally_disconnected
            else f"free product of {infinite_count} infinite cyclic factor(s)"
        )
        return NSequenceReport(
            provider=provider.name,
            degree=degree,
            stabilized=counterexample is None,
            connected=connected,
            totally_disconnected=totally_disconnected,
            stages=stages,
            quotient_note=quotient,
            scanned=len(window),
            exponent_bound=exponent_bound,
            counterexample=counterexample,
        )

    def _n_sequence_finite(provider, budget, exponent_bound):
        window = provider.enumerate(provider.num_irreducibles)
        # Every element has finite order, so stage one is the whole group.
        stage = Subcategory(
            kind="normal_forcing_closure", labels=tuple(window), status=SATURATED
        )
        trivial = len(window) == 1
        return NSequenceReport(
            provider=provider.name,
            degree=0 if trivial else 1,
            stabilized=True,
            connected=trivial,
            totally_disconnected=True,
            stages=[] if trivial else [stage],
            quotient_note="trivial quotient",
            scanned=len(window),
            exponent_bound=exponent_bound,
        )

    if isinstance(provider, WordGroupProvider):
        return _n_sequence_words(provider, budget, exponent_bound)
    if isinstance(provider, FiniteTableProvider) and all(
        u.dim == 1 for u in provider.enumerate(provider.num_irreducibles)
    ):
        return _n_sequence_finite(provider, budget, exponent_bound)
    raise UnsupportedProvider(
        f"{provider.name}: torsion-closure sequence needs a cocommutative (group) ring"
    )


# ---------------------------------------------------------------------------
# decomposition entries with one Python step per entry


def decomposition_entries_reference(counts):
    """The ``entries`` of ``Decomposition(counts)``, built as the library
    built them before its constructor moved its work into C: one validation
    step, coercion and sort-key call per entry, the same ValueError on a
    negative multiplicity."""
    items = []
    for lab, mult in counts.items():
        if mult < 0:
            raise ValueError(f"negative multiplicity {mult} for {lab.id}")
        if mult > 0:
            items.append((lab, int(mult)))
    items.sort(key=lambda it: (it[0].dim, it[0].id))
    return tuple(items)


# ---------------------------------------------------------------------------
# Hermite normal form of a whole row set at once


def hermite_normal_form(rows, n: int) -> list[list[int]]:
    """Row Hermite normal form of the lattice spanned by ``rows`` in Z^n.

    Column by column, Euclid's algorithm on all remaining rows at once
    (the row of least absolute pivot entry reduces the others until one
    nonzero entry is left), then every entry above a pivot is reduced to
    its least nonnegative residue.  The result is unique for the lattice:
    pivots positive and strictly moving right, nothing but zeros below.
    """
    rest = [list(r) for r in rows if any(r)]
    out = []
    for col in range(n):
        while True:
            live = [r for r in rest if r[col]]
            if len(live) <= 1:
                break
            best = min(live, key=lambda r: abs(r[col]))
            for r in live:
                if r is not best:
                    q = r[col] // best[col]
                    r[:] = [a - q * b for a, b in zip(r, best)]
        live = [r for r in rest if r[col]]
        if live:
            row = live[0]
            rest = [r for r in rest if r is not row]
            out.append(row if row[col] > 0 else [-a for a in row])
        rest = [r for r in rest if any(r)]
    pivots = [next(c for c, a in enumerate(r) if a) for r in out]
    for i, (row, p) in enumerate(zip(out, pivots)):
        for j in range(i):
            q = out[j][p] // row[p]
            out[j] = [a - q * b for a, b in zip(out[j], row)]
    return out


# ---------------------------------------------------------------------------
# saturated subrings by a scan over every subset


def saturated_subrings_reference(provider):
    """Every conj- and product-closed label set containing the unit, in
    the library's order: the subset scan that ``enumerate_saturated_subrings``
    ran before it searched the subring lattice, kept line for line with
    the sweep written out.  It tests all 2^(n-1) subsets, so only small
    finite rings are sensible inputs."""
    from fusionring.core import canonical_sort

    total = provider.num_irreducibles
    all_irr = provider.enumerate(total)
    unit = provider.unit()
    rest = [l for l in all_irr if l != unit]
    out = []
    for mask in range(1 << len(rest)):
        subset = [l for i, l in enumerate(rest) if mask >> i & 1] + [unit]
        inside = set(subset)
        closed = all(provider.conj(u) in inside for u in subset) and all(
            w in inside for a in subset for b in subset for w, _ in provider.decompose(a, b)
        )
        if closed:
            out.append(tuple(canonical_sort(subset)))
    out.sort(key=lambda subs: (len(subs), [l.id for l in subs]))
    return out


# ---------------------------------------------------------------------------
# finite abelian groups by tuple arithmetic


def _abelian_name(x) -> str:
    return "g" + "_".join(map(str, x))


def abelian_group_table(orders) -> dict[tuple[str, str], str]:
    """Multiplication table of Z_orders[0] x Z_orders[1] x ..., with the
    element (k0, k1, ...) named ``"g" + "_".join(k)`` and ``g0_0...`` the
    identity."""
    elements = list(itertools.product(*(range(k) for k in orders)))
    return {
        (_abelian_name(x), _abelian_name(y)): _abelian_name(tuple((a + b) % k for a, b, k in zip(x, y, orders)))
        for x in elements
        for y in elements
    }


def bf_abelian_subgroups(orders) -> set[frozenset[str]]:
    """Every subgroup of Z_orders[0] x ... as a set of the names used by
    ``abelian_group_table``: the cyclic subgroups, then sums H + C of a
    subgroup found and a cyclic one until no sum is new."""
    elements = list(itertools.product(*(range(k) for k in orders)))
    zero = elements[0]

    def add(x, y):
        return tuple((a + b) % k for a, b, k in zip(x, y, orders))

    def cyclic(g):
        seen, x = [zero], add(zero, g)
        while x != zero:
            seen.append(x)
            x = add(x, g)
        return frozenset(seen)

    cyclics = {cyclic(g) for g in elements}
    subgroups = set(cyclics)
    while True:
        sums = {frozenset(add(h, c) for h in sub for c in cyc) for sub in subgroups for cyc in cyclics}
        if sums <= subgroups:
            break
        subgroups |= sums
    return {frozenset(map(_abelian_name, sub)) for sub in subgroups}


# ---------------------------------------------------------------------------
# one weight-space multiplicity at a time


def weight_count_reference(cand, E, K, full) -> int:
    """dim Hom(cand, M) for one irreducible ladder model ``cand``, M given
    by its E and K alone, ``full()`` returning the whole module: the
    per-candidate routine the per-pair ``uqnumeric._weight_counts``
    replaced, kept as written.  It reads K's diagonal and runs the
    off-diagonal test for every candidate, and decomposes a weight block
    even when it has no columns."""
    import numpy as np

    from fusionring.uqnumeric import RESIDUAL_TOL, SV_GAP, _stable_nullity, intertwiner_space

    k_diag = np.diag(K)
    lam = cand.K[0, 0]
    apart = np.abs(k_diag - lam) / abs(lam)
    same = apart <= RESIDUAL_TOL / SV_GAP
    if np.count_nonzero(K - np.diag(k_diag)) or np.any(~same & (apart < RESIDUAL_TOL)):
        return intertwiner_space(cand, full()).dim
    return _stable_nullity(np.linalg.svd(E[:, same], compute_uv=False))


# ---------------------------------------------------------------------------
# the axiom harness with three ``multiplicity`` lookups per constituent


def check_axioms_reference(provider, budget=None, *, triple_samples=200, seed=0):
    """``check_axioms`` as it was written before it read each product
    once: every reciprocity and reversal coefficient is its own
    ``provider.multiplicity`` call, and every conjugate its own
    ``provider.conj`` call.  Kept line for line, so that the library's
    report can be compared against it field by field."""
    import random

    from fusionring.axioms import _EXHAUSTIVE_TRIPLE_PREFIX, AxiomReport, AxiomViolation
    from fusionring.core import Budget, canonical_sort

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
        bad(AxiomViolation("enumeration", (unit,), "unit missing from enumeration window"))
    if provider.conj(unit) != unit:
        bad(AxiomViolation("conjugation", (unit,), "unit is not self-conjugate"))

    for u in window:
        cu = provider.conj(u)
        if provider.conj(cu) != u:
            bad(AxiomViolation("conjugation", (u,), f"conj(conj({u.id})) = {provider.conj(cu).id}"))
        if cu.dim != u.dim:
            bad(AxiomViolation("conjugation", (u,), f"conj changes dim {u.dim} -> {cu.dim}"))
        left = provider.decompose(unit, u)
        right = provider.decompose(u, unit)
        single = {u: 1}
        if dict(left.entries) != single:
            bad(AxiomViolation("unit-law", (u,), f"1 (x) {u.id} != {u.id}"))
        if dict(right.entries) != single:
            bad(AxiomViolation("unit-law", (u,), f"{u.id} (x) 1 != {u.id}"))

    for u in window:
        ubar = provider.conj(u)
        for v in window:
            report.pairs_checked += 1
            dec = provider.decompose(u, v)
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
            vbar = provider.conj(v)
            for w, mult in dec:
                wbar = provider.conj(w)
                frob1 = provider.multiplicity(v, ubar, w)
                frob2 = provider.multiplicity(u, w, vbar)
                rev = provider.multiplicity(wbar, vbar, ubar)
                if frob1 != mult:
                    bad(AxiomViolation(
                        "frobenius", (u, v, w),
                        f"N^{w.id} = {mult} but N^{v.id}_{{{ubar.id},{w.id}}} = {frob1}"))
                if frob2 != mult:
                    bad(AxiomViolation(
                        "frobenius", (u, v, w),
                        f"N^{w.id} = {mult} but N^{u.id}_{{{w.id},{vbar.id}}} = {frob2}"))
                if rev != mult:
                    bad(AxiomViolation(
                        "conjugate-reversal", (u, v, w),
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
            bad(AxiomViolation("associativity", (u, v, w), f"difference {off}"))

    return report


# ---------------------------------------------------------------------------
# free-product words multiplied as words, then labelled one by one


def free_product_decompose_reference(provider, u, v):
    """``u (x) v`` in a ``FreeProductProvider`` as it was computed before
    one-letter results were relabelled through a letter map: every merged
    constituent is sliced into a new word, summed by word, and each word
    is interned through ``provider._label``.  ``mul_words`` is the old
    ``_mul_words``, kept line for line."""
    from fusionring.core import Decomposition

    def mul_words(w1, w2):
        out = {}
        a, b, scale = len(w1), 0, 1
        while a and b < len(w2) and w1[a - 1][0] == w2[b][0]:
            k, la = w1[a - 1]
            factor = provider.factors[k]
            funit = factor.unit()
            dec = factor.decompose(la, w2[b][1])
            for c, mult in dec:
                if c != funit:
                    word = w1[: a - 1] + ((k, c),) + w2[b + 1 :]
                    out[word] = out.get(word, 0) + scale * mult
            scale *= dec.multiplicity(funit)
            if not scale:
                return out
            a, b = a - 1, b + 1
        word = w1[:a] + w2[b:]
        out[word] = out.get(word, 0) + scale
        return out

    prod = mul_words(provider.key_of(u), provider.key_of(v))
    return Decomposition({provider._label(w): m for w, m in prod.items()})


def direct_product_decompose_reference(provider, u, v):
    """``u (x) v`` in a ``DirectProductProvider`` as it was computed before
    the pair grid was built with ``itertools.product``: one nested loop
    over both factors' constituents, labelling each pair through
    ``provider._label``."""
    from fusionring.core import Decomposition

    a1, b1 = provider.key_of(u)
    a2, b2 = provider.key_of(v)
    counts = {}
    for wa, ma in provider.factors[0].decompose(a1, a2):
        for wb, mb in provider.factors[1].decompose(b1, b2):
            counts[provider._label((wa, wb))] = ma * mb
    return Decomposition(counts)


# ---------------------------------------------------------------------------
# the closure engine's sweep and the bilinear product, one step per constituent


def a4_representation_ring() -> dict:
    """Rep(A4) in the JSON table format: the trivial character ``1``, the
    two other linear characters ``w`` and ``w2`` (conjugate to each other,
    multiplying as the cube roots of unity) and the 3-dimensional ``t``,
    with ``w (x) t = w2 (x) t = t`` and ``t (x) t = 1 + w + w2 + 2*t``: a
    table with a multiplicity above 1."""
    linear = ["1", "w", "w2"]  # w^i (x) w^j = w^(i + j mod 3)
    fusion = {(a, b): {linear[(i + j) % 3]: 1} for i, a in enumerate(linear) for j, b in enumerate(linear)}
    for a in linear:
        fusion[a, "t"] = fusion["t", a] = {"t": 1}
    fusion["t", "t"] = {"1": 1, "w": 1, "w2": 1, "t": 2}
    return {
        "name": "Rep(A4)",
        "unit": "1",
        "irreducibles": [
            {"id": "1", "dim": 1, "conj": "1"}, {"id": "w", "dim": 1, "conj": "w2"},
            {"id": "w2", "dim": 1, "conj": "w"}, {"id": "t", "dim": 3, "conj": "t"},
        ],
        "fusion": [{"left": a, "right": b, "result": r} for (a, b), r in fusion.items()],
    }



def sweep_reference(provider, new, old=()):
    """The sweep as a lazy generator, as it was before it returned a dict:
    ``conj(u)`` for u in ``new``, then every constituent of ``a (x) b``
    for a in ``old`` and b in ``new``, then for a in ``new`` and b in
    ``old + new``, repeats included, each product decomposed only when
    the generator reaches it."""
    for u in new:
        yield provider.conj(u)
    both = [*old, *new]
    for a, row in itertools.chain(zip(old, itertools.repeat(new)), zip(new, itertools.repeat(both))):
        for b in row:
            for w, _ in provider.decompose(a, b):
                yield w


def multiply_virtual_reference(provider, x, y):
    """The bilinear product of two integer combinations as it was computed
    before coefficient-1 products were counted in C: every constituent of
    every pairwise product added in Python, zeros dropped at the end."""
    acc = {}
    for a, ca in x.items():
        for b, cb in y.items():
            for w, m in provider.decompose(a, b):
                acc[w] = acc.get(w, 0) + ca * cb * m
    return {w: c for w, c in acc.items() if c}


# ---------------------------------------------------------------------------
# word-group and au products one letter at a time


def word_group_decompose_reference(provider, u, v):
    """``u (x) v`` in a ``WordGroupProvider`` as it was computed before
    products were cut at the junction: ``v``'s letters pushed onto ``u``'s
    word one at a time, each merge normalized by ``provider._norm_exp``.
    ``mul_words`` is the old ``_mul_words``, kept line for line.  The
    label is spelled by ``spell_word_reference``, not by the provider."""
    from fusionring.core import Decomposition, IrrLabel

    def mul_words(w1, w2):
        out = list(w1)
        for letter in w2:
            if out and out[-1][0] == letter[0]:
                k = letter[0]
                e = provider._norm_exp(k, out[-1][1] + letter[1])
                out.pop()
                if e:
                    out.append((k, e))
            else:
                out.append(letter)
        return tuple(out)

    word = mul_words(provider.key_of(u), provider.key_of(v))
    return Decomposition.ordered((IrrLabel(spell_word_reference(word), 1),))


def au_dim_reference(word: str, d: int) -> int:
    """dim of an au word by the recursion along it, as ``AuProvider._spell``
    computed it for every new word: a repeated letter multiplies by ``d``,
    an alternation multiplies by ``d`` and subtracts the dim two back."""
    prev2, prev1 = 0, 1
    for k, ch in enumerate(word):
        cur = d * prev1 - (prev2 if k > 0 and word[k - 1] != ch else 0)
        prev2, prev1 = prev1, cur
    return prev1


def au_decompose_reference(provider, u, v):
    """``u (x) v`` in an ``AuProvider`` as it was computed before chains
    were cut at the junction: the junction letters stripped one pair at
    a time, every word of the chain built by slicing, and the labels
    sorted into canonical order.  Each label is ``(id, dim)`` with the dim
    from ``au_dim_reference``, not read from the provider."""
    from fusionring.core import Decomposition, IrrLabel

    w1, w2 = provider.key_of(u), provider.key_of(v)
    words = [w1 + w2]
    while w1 and w2 and w1[-1] != w2[0]:
        w1, w2 = w1[:-1], w2[1:]
        words.append(w1 + w2)
    return Decomposition({IrrLabel(w or "e", au_dim_reference(w, provider.d_gen)): 1 for w in words})


# ---------------------------------------------------------------------------
# the U_q models with dense rescaling, and the intertwiner SVD with its
# left vectors


def build_u_reference(sign: int, n: int, q, *, t_branch: str = "principal"):
    """``uqnumeric.build_u`` as it was written before its rescaling went
    entry by entry: the ladder filled index by index, the unitarizer
    returned as a diagonal matrix, and T E T^-1 and T F T^-1 formed by
    dense products with T and its inverse."""
    import numpy as np

    from fusionring.errors import BadParameter
    from fusionring.uqnumeric import RepMatrices, _out_of_range, _validate_q

    if sign not in (1, -1):
        raise BadParameter(f"sign must be +-1, got {sign!r}")
    qf = _validate_q(q)
    if qf >= 0:
        raise BadParameter(f"these models need q < 0, got {q}")
    w = sign * (1j if n % 2 else 1 + 0j)
    base, ints = ladder_model_reference(w, n, q, t_branch)
    T = unitarizer_reference(w, ints, sign_flip=True)
    if T is None:
        raise BadParameter(f"no star-preserving model at (sign={sign}, n={n}, q={q})")
    taus = np.diag(T)
    if taus.min() < np.finfo(float).tiny:
        raise _out_of_range(q)
    T_inv = np.diag(1 / taus)
    return RepMatrices(
        E=T @ base.E @ T_inv,
        F=T @ base.F @ T_inv,
        K=base.K,
        K_inv=base.K_inv,
        q=qf,
        w=w,
        form_tag="su11",
        t_branch=t_branch,
    )


def ladder_model_reference(w, n: int, q, t_branch: str):
    """``uqnumeric._ladder_model`` with its three index loops."""
    import numpy as np

    from fusionring.errors import BadParameter
    from fusionring.uqnumeric import RepMatrices, _q_ints, _t_value, _validate_q, _validate_w

    if not isinstance(n, int) or n < 0:
        raise BadParameter(f"n must be a nonnegative integer, got {n!r}")
    qf = _validate_q(q)
    wc = _validate_w(w)
    t = _t_value(qf, t_branch)
    ints = _q_ints(n, q)
    dim = n + 1
    E = np.zeros((dim, dim), dtype=complex)
    F = np.zeros((dim, dim), dtype=complex)
    K = np.zeros((dim, dim), dtype=complex)
    for r in range(1, dim):
        E[r - 1, r] = wc * ints[r]
    for r in range(dim - 1):
        F[r + 1, r] = wc * ints[n - r]
    for r in range(dim):
        K[r, r] = wc * t ** (n - 2 * r)
    K_inv = np.diag(1 / np.diag(K))
    rep = RepMatrices(E=E, F=F, K=K, K_inv=K_inv, q=qf, w=wc, form_tag="sl2", t_branch=t_branch)
    return rep, ints


def unitarizer_reference(w: complex, ints: list[float], sign_flip: bool):
    """``uqnumeric._unitarizer`` returning the diagonal matrix T, or None."""
    import numpy as np

    ratio = w.conjugate() / w
    if abs(ratio.imag) > 1e-12:
        return None
    n = len(ints) - 1
    sgn = -1.0 if sign_flip else 1.0
    taus = [1.0]
    for j in range(1, n + 1):
        step = sgn * ratio.real * ints[j] / ints[n - j + 1]
        if step <= 0:
            return None
        taus.append(taus[-1] * step**0.5)
    return np.diag(taus)


def unitarizability_witness_reference(w, n: int, q, form: str = "su11", *, t_branch: str = "principal"):
    """``uqnumeric.unitarizability_witness`` on the reference ladder and
    the matrix-returning unitarizer."""
    import numpy as np

    from fusionring.errors import BadParameter
    from fusionring.uqnumeric import RESIDUAL_TOL, UnitarizabilityWitness

    if form not in ("su2", "su11"):
        raise BadParameter(f"form must be su2 or su11, got {form!r}")
    base, ints = ladder_model_reference(w, n, q, t_branch)
    kdiag = np.diag(base.K)
    if float(np.max(np.abs(kdiag.imag))) > RESIDUAL_TOL:
        return UnitarizabilityWitness(
            verdict="obstruction",
            form=form,
            T=None,
            evidence={
                "kind": "k_spectrum",
                "detail": "K has non-real eigenvalues, so K* = K is impossible",
                "k_diagonal": [complex(x) for x in kdiag],
            },
        )
    T = unitarizer_reference(base.w, ints, sign_flip=(form == "su11"))
    if T is not None:
        return UnitarizabilityWitness(
            verdict="unitarizable", form=form, T=T, evidence={"kind": "diagonal_unitarizer"}
        )
    ef = np.diag(base.E @ base.F)
    want = -1 if form == "su2" else 1
    offenders = [(r, x.real) for r, x in enumerate(ef) if want * x.real > RESIDUAL_TOL]
    r, val = max(offenders, key=lambda it: abs(it[1]))
    return UnitarizabilityWitness(
        verdict="obstruction",
        form=form,
        T=None,
        evidence={
            "kind": "ef_spectrum",
            "detail": (
                f"eigenvalue {val:.6g} of E F at basis index {r} has the wrong sign "
                f"for {form} (needs {'>= 0' if form == 'su2' else '<= 0'})"
            ),
            "index": r,
            "eigenvalue": val,
        },
    )


def intertwiner_space_reference(a, b):
    """``uqnumeric.intertwiner_space`` by the full thin SVD of the stacked
    system, whose left vectors it never reads."""
    import numpy as np

    from fusionring.uqnumeric import IntertwinerSpace, _kron, _stable_nullity

    da, db = a.dim, b.dim
    Ia, Ib = np.eye(da), np.eye(db)
    blocks = []
    for rep_a, rep_b in ((a.E, b.E), (a.F, b.F), (a.K, b.K)):
        blocks.append(_kron(Ib, rep_a.T) - _kron(rep_b, Ia))
    M = np.vstack(blocks)
    _, s, vh = np.linalg.svd(M, full_matrices=False)
    nullity = _stable_nullity(s)
    total = db * da
    basis = [vh[row].conj().reshape(db, da) for row in range(total - nullity, total)]
    return IntertwinerSpace(dim=nullity, basis=basis, singular_values=s)


def verify_conjugate_equations_reference(q, *, t_branch: str = "principal"):
    """``uqnumeric.verify_conjugate_equations`` on the reference models,
    with its second duality vector (a copy of the first) and its second
    snake (the first, computed again)."""
    import numpy as np

    from fusionring.errors import BadParameter
    from fusionring.uqnumeric import (
        RESIDUAL_TOL,
        ConjugateEquationsReport,
        _kron,
        _maxabs,
        _validate_q,
        tensor_rep,
    )

    qf = _validate_q(q)
    if qf >= 0:
        raise BadParameter(f"needs q < 0, got {q}")
    u = build_u_reference(1, 1, q, t_branch=t_branch)
    ubar = build_u_reference(-1, 1, q, t_branch=t_branch)
    aq = abs(qf)
    R = np.zeros((4, 1), dtype=complex)
    R[1, 0] = 1.0
    R[2, 0] = -aq
    Rbar = R.copy()

    inv_res = 0.0
    for rep, vec in ((tensor_rep(ubar, u), R), (tensor_rep(u, ubar), Rbar)):
        inv_res = max(
            inv_res,
            _maxabs(rep.E @ vec),
            _maxabs(rep.F @ vec),
            _maxabs(rep.K @ vec - vec),
        )

    I2 = np.eye(2)
    snake1 = _kron(Rbar.conj().T, I2) @ _kron(I2, R)
    snake2 = _kron(R.conj().T, I2) @ _kron(I2, Rbar)
    c = complex(snake1[0, 0])
    snake_res = max(
        _maxabs(snake1 - c * I2),
        _maxabs(snake2 - c * I2),
    )
    norm_sq = float((R.conj().T @ R).real[0, 0])
    ok = (
        inv_res <= RESIDUAL_TOL
        and snake_res <= RESIDUAL_TOL
        and abs(c - (-aq)) <= RESIDUAL_TOL
        and abs(norm_sq - (1 + qf * qf)) <= RESIDUAL_TOL
    )
    return ConjugateEquationsReport(
        q=qf, c=c, norm_sq=norm_sq, invariance_residual=inv_res, snake_residual=snake_res, ok=ok
    )


# ---------------------------------------------------------------------------
# the JSON table loader that runs the axiom harness on every table


def load_ring_json_reference(source):
    """``load_ring_json`` as it was before group tables were certified:
    every table, a group's too, goes through ``check_axioms`` over its
    whole window.  Kept line for line, so that the library's acceptances
    and refusals can be compared against it."""
    from pathlib import Path

    from fusionring.axioms import check_axioms
    from fusionring.core import Budget
    from fusionring.errors import InvalidRing, _quote
    from fusionring.rings.tables import FiniteTableProvider, _read_json_object, _string

    if isinstance(source, (str, Path)):
        data = _read_json_object(source)
        name = f"json:{source}"
    else:
        data = source
        name = data.get("name", "json-ring")
    try:
        unit = _string(data, "unit")
        irr = data["irreducibles"]
        rows = data["fusion"]
    except KeyError as exc:
        raise InvalidRing(f"malformed ring file: missing {exc}") from None
    except TypeError as exc:
        raise InvalidRing(f"malformed ring file: {exc}") from None
    if not isinstance(irr, list) or not isinstance(rows, list):
        raise InvalidRing("malformed ring file: 'irreducibles' and 'fusion' must be lists")
    dims, conj = {}, {}
    for entry in irr:
        try:
            i, d, c = _string(entry, "id"), entry["dim"], _string(entry, "conj")
        except (KeyError, TypeError) as exc:
            raise InvalidRing(f"malformed irreducible entry {_quote(entry)}: {exc}") from None
        if i in dims:
            raise InvalidRing(f"duplicate irreducible id {_quote(i)}")
        dims[i], conj[i] = d, c
    table = {}
    for row in rows:
        try:
            key = (_string(row, "left"), _string(row, "right"))
            result = dict(row["result"].items())
        except (KeyError, TypeError, AttributeError) as exc:
            raise InvalidRing(f"malformed fusion row {_quote(row)}: {exc}") from None
        if key in table:
            raise InvalidRing(f"pair {_quote(key)} listed twice")
        table[key] = result
    provider = FiniteTableProvider(name, unit, dims, conj, table)
    report = check_axioms(provider, Budget(max_irreducibles=provider.num_irreducibles))
    if not report.ok:
        raise InvalidRing(
            f"{name}: {len(report.violations)} axiom violation(s), first: "
            f"{report.violations[0].detail}",
            violations=report.violations,
        )
    return provider


def light_failure_reference(product, ids):
    """Light's test as the table constructor ran it before it compared
    whole rows: triple by triple, a and c in ``ids`` order and b over the
    generators, three product lookups each.  The first failing triple, or
    None."""
    from fusionring.rings.tables import _generators

    gens = _generators(product, ids)
    for a in ids:
        for b in gens:
            ab = product[a, b]
            for c in ids:
                if product[ab, c] != product[a, product[b, c]]:
                    return a, b, c
    return None

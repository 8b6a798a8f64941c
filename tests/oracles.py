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


def power_stage_one_exponent(provider, g, bound: int):
    """Least n <= bound with g^n in stage one, None when there is none.

    Forms each power g^n in the ring itself and tests it with
    ``stage_one_contains`` (the kill-finite-factors image is trivial): the
    search the n-sequence ran before it multiplied images instead.
    """
    acc = provider.unit()
    for n in range(1, bound + 1):
        (acc, _mult), = provider.decompose(acc, g)
        if provider.stage_one_contains(acc):
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
        return (provider._weight(w), len(w), tuple((k, *provider._exp_key(e)) for k, e in w))

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

        exhausted_rounds = True
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
                exhausted_rounds = False
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
        status = SATURATED if not frontier and not exhausted_rounds else BUDGET_EXCEEDED
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
    so that the single capability-driven path can be compared against it.
    """
    # Imported here: perfbench loads this module before the package.
    import math

    from fusionring.errors import UnsupportedProvider
    from fusionring.rings import FiniteGroupProvider, WordGroupProvider
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

        stage_labels = [u for u in window if provider.stage_one_contains(u)]
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
    if isinstance(provider, FiniteGroupProvider):
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

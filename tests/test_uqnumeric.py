"""Numerical ladder models: relations, star forms, duality, crosschecks."""

import contextlib
import functools
import hashlib
import io
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionring import uqnumeric
from fusionring.cli import main
from fusionring.errors import BadParameter, IllConditioned
from fusionring.rings import UqSU11Provider
from fusionring.uqnumeric import (
    RepMatrices,
    _kron,
    _weight_counts,
    build_pi,
    build_u,
    check_star,
    fusion_crosscheck,
    full_verification,
    intertwiner_space,
    q_int,
    tensor_rep,
    unitarizability_witness,
    verify_conjugate_equations,
    verify_permutation_intertwiner,
)

from oracles import (
    QINT_AT_MINUS_HALF,
    build_u_reference,
    intertwiner_space_reference,
    unitarizability_witness_reference,
    verify_conjugate_equations_reference,
    weight_count_reference,
)

Q_VALUES = (Fraction(-1, 2), Fraction(-2, 3))


def test_q_integers_match_hand_values():
    for k, expected in QINT_AT_MINUS_HALF.items():
        got = q_int(k, Fraction(-1, 2))
        assert got == expected
        assert isinstance(got, Fraction)
    assert q_int(3, Fraction(-1, 2)) == Fraction(21, 4)


def test_q_int_rejects_degenerate_points():
    for bad in (0, 1, -1, Fraction(1)):
        with pytest.raises(BadParameter):
            q_int(2, bad)


@settings(max_examples=40)
@given(
    st.integers(min_value=0, max_value=12),
    st.fractions(min_value=Fraction(-4), max_value=Fraction(4)).filter(
        lambda f: f not in (0, 1, -1)
    ),
)
def test_q_int_symmetries(k, q):
    # balanced q-integers are invariant under q -> 1/q and pick up
    # (-1)^(k+1) under q -> -q; both exact over Fractions
    assert q_int(k, q) == q_int(k, 1 / q)
    assert q_int(k, -q) == (-1) ** (k + 1) * q_int(k, q)


def test_frozen_level_one_model():
    rep = build_u(1, 1, Fraction(-1, 2))
    np.testing.assert_allclose(rep.E, [[0, 1j], [0, 0]], atol=1e-15)
    np.testing.assert_allclose(rep.F, [[0, 0], [1j, 0]], atol=1e-15)
    half = 0.5**0.5
    np.testing.assert_allclose(np.diag(rep.K), [-half, 2 * half], atol=1e-15)


def test_frozen_level_two_k_matrix():
    rep = build_u(1, 2, Fraction(-1, 2))
    np.testing.assert_allclose(np.diag(rep.K), [-0.5, 1.0, -2.0], atol=1e-15)
    sign_flipped = build_u(-1, 2, Fraction(-1, 2))
    np.testing.assert_allclose(np.diag(sign_flipped.K), [0.5, -1.0, 2.0], atol=1e-15)


def test_level_zero_models_are_the_signs():
    for sign in (1, -1):
        rep = build_u(sign, 0, Fraction(-1, 2))
        assert rep.dim == 1
        assert rep.K[0, 0] == sign
        assert rep.E[0, 0] == 0 and rep.F[0, 0] == 0


def test_relations_hold_for_all_small_models():
    for q in Q_VALUES:
        for n in range(7):
            for sign in (1, -1):
                rep = build_u(sign, n, q)
                assert rep.relation_check()[0] <= 1e-12


def test_star_structure_of_the_models():
    for q in Q_VALUES:
        for n in range(7):
            for sign in (1, -1):
                rep = build_u(sign, n, q)
                assert check_star(rep).ok
                if n >= 1:
                    assert not check_star(rep, form="su2").ok


def test_bad_parameters_are_rejected():
    q = Fraction(-1, 2)
    with pytest.raises(BadParameter):
        build_u(2, 1, q)
    with pytest.raises(BadParameter):
        build_u(1, 1, Fraction(1, 2))  # these models need q < 0
    with pytest.raises(BadParameter):
        build_pi(0.5, 1, q)  # not a fourth root of unity
    with pytest.raises(BadParameter):
        build_pi(1, -1, q)
    with pytest.raises(BadParameter):
        build_pi(1, 1, 1j)
    with pytest.raises(BadParameter):
        build_pi(1, 1, q, t_branch="other")
    with pytest.raises(BadParameter):
        check_star(build_u(1, 1, q), form="sl2")


def test_wrong_parity_twist_blocks_any_star_form():
    # real twist on an odd level makes K imaginary at q < 0
    for form in ("su2", "su11"):
        wit = unitarizability_witness(1, 1, Fraction(-1, 2), form=form)
        assert wit.verdict == "obstruction"
        assert wit.evidence["kind"] == "k_spectrum"


def test_compact_form_is_obstructed_at_negative_q():
    for n in range(1, 7):
        w = 1j if n % 2 else 1
        wit = unitarizability_witness(w, n, Fraction(-1, 2), form="su2")
        assert wit.verdict == "obstruction"
        assert wit.evidence["kind"] == "ef_spectrum"


def test_compact_form_works_at_positive_q():
    wit = unitarizability_witness(1, 3, Fraction(1, 2), form="su2")
    assert wit.unitarizable
    base = build_pi(1, 3, Fraction(1, 2))
    T = wit.T
    T_inv = np.diag(1 / np.diag(T))
    E, F = T @ base.E @ T_inv, T @ base.F @ T_inv
    assert np.max(np.abs(E.conj().T - F)) <= 1e-12


def test_witness_transform_realizes_the_noncompact_star():
    wit = unitarizability_witness(1j, 3, Fraction(-1, 2), form="su11")
    assert wit.unitarizable
    base = build_pi(1j, 3, Fraction(-1, 2))
    T = wit.T
    T_inv = np.diag(1 / np.diag(T))
    E, F = T @ base.E @ T_inv, T @ base.F @ T_inv
    assert np.max(np.abs(E.conj().T + F)) <= 1e-12


def test_schur_dimensions():
    q = Fraction(-1, 2)
    a = build_u(1, 2, q)
    b = build_u(-1, 3, q)
    self_space = intertwiner_space(a, a)
    assert self_space.dim == 1
    basis = self_space.basis[0]
    np.testing.assert_allclose(basis, basis[0, 0] * np.eye(3), atol=1e-12)
    assert intertwiner_space(a, b).dim == 0


def test_intertwiner_basis_satisfies_the_equations():
    q = Fraction(-1, 2)
    big = tensor_rep(build_u(1, 1, q), build_u(1, 1, q))
    for sign, k, expect in ((-1, 0, 1), (-1, 2, 1), (1, 1, 0)):
        cand = build_u(sign, k, q)
        space = intertwiner_space(cand, big)
        assert space.dim == expect
        for T in space.basis:
            for x_small, x_big in ((cand.E, big.E), (cand.F, big.F), (cand.K, big.K)):
                assert np.max(np.abs(T @ x_small - x_big @ T)) <= 1e-9


def _hand_rep(E, F, K):
    return RepMatrices(
        E=np.asarray(E, dtype=complex),
        F=np.asarray(F, dtype=complex),
        K=np.asarray(K, dtype=complex),
        K_inv=np.diag(1 / np.diag(np.asarray(K, dtype=complex))),
        q=-0.5,
        w=1,
        form_tag="sl2",
    )


def test_rank_decision_refuses_tolerance_straddling():
    rep = _hand_rep([[0, 1], [0, 0]], np.zeros((2, 2)), np.diag([1.0, 1.0 + 1e-9]))
    with pytest.raises(IllConditioned, match="flips"):
        intertwiner_space(rep, rep)


def test_rank_decision_refuses_small_gaps():
    a = _hand_rep([[0, 1], [0, 0]], np.zeros((2, 2)), np.diag([1.0, 1.0 + 2e-8]))
    shifted = np.array([[0, 1], [0, 0]]) + 3e-11 * np.eye(2)
    b = _hand_rep(shifted, np.zeros((2, 2)), np.diag([1.0, 1.0 + 2e-8]))
    with pytest.raises(IllConditioned, match="gap"):
        intertwiner_space(a, b)


def test_tensor_factors_must_share_parameters():
    with pytest.raises(BadParameter):
        tensor_rep(build_u(1, 1, Fraction(-1, 2)), build_u(1, 1, Fraction(-2, 3)))
    with pytest.raises(BadParameter):
        tensor_rep(
            build_u(1, 1, Fraction(-1, 2)),
            build_u(1, 1, Fraction(-1, 2), t_branch="conjugate"),
        )


def test_conjugate_equations_scalar():
    for q in Q_VALUES:
        rep = verify_conjugate_equations(q)
        assert rep.ok
        assert abs(rep.c - (-abs(float(q)))) <= 1e-12
        assert abs(rep.norm_sq - (1 + float(q)) ** 2 + 2 * float(q)) <= 1e-12


def test_permutation_intertwiner_small_levels():
    for n in range(4):
        rep = verify_permutation_intertwiner(n, Fraction(-1, 2))
        assert rep.ok
        assert rep.residual == 0.0
        assert rep.hom_dim == 1


def test_fusion_crosscheck_small_window():
    rep = fusion_crosscheck(2, Fraction(-1, 2))
    assert rep.ok
    assert rep.pairs_checked == 36
    assert rep.mismatches == []


def test_fusion_crosscheck_refuses_a_negative_n_max():
    # n_max = -1 builds no model, so q = 5 would never be checked
    with pytest.raises(BadParameter, match="^n_max must be nonnegative, got -1$"):
        fusion_crosscheck(-1, 5)


@pytest.mark.parametrize("branch", ["principal", "conjugate"])
@pytest.mark.parametrize("q", [*Q_VALUES, Fraction(-1, 3), Fraction(-3, 2)], ids=str)
def test_weight_multiplicity_matches_intertwiner_space(q, branch, monkeypatch):
    oracle = intertwiner_space

    def no_fallback(*args, **kwargs):
        raise AssertionError("weight route fell back to intertwiner_space")

    monkeypatch.setattr(uqnumeric, "intertwiner_space", no_fallback)
    reps = {(s, k): build_u(s, k, q, t_branch=branch) for s in (1, -1) for k in range(11)}
    signs = (1, -1)
    for n in range(5):
        for m in range(5):
            for eps in signs:
                for delta in signs:
                    big = tensor_rep(reps[eps, n], reps[delta, m])
                    for k in range(n + m + 3):
                        for sigma in signs:
                            cand = reps[sigma, k]
                            assert _weight_counts([cand], big.E, big.K, lambda: big)[0] == oracle(cand, big).dim, (
                                n, m, eps, delta, k, sigma,
                            )


def test_weight_multiplicity_falls_back_without_diagonal_k():
    q = Fraction(-1, 2)
    big = tensor_rep(build_u(1, 1, q), build_u(1, 2, q))
    c, s = np.cos(0.3), np.sin(0.3)
    P = np.eye(big.dim)
    P[:2, :2] = [[c, -s], [s, c]]
    rotated = RepMatrices(
        E=P @ big.E @ P.T, F=P @ big.F @ P.T, K=P @ big.K @ P.T,
        K_inv=P @ big.K_inv @ P.T, q=big.q, w=big.w, form_tag=big.form_tag,
    )
    for sign, k, expect in ((1, 1, 1), (1, 3, 1), (-1, 1, 0), (1, 2, 0)):
        cand = build_u(sign, k, q)
        assert _weight_counts([cand], rotated.E, rotated.K, lambda: rotated)[0] == expect
        assert intertwiner_space(cand, rotated).dim == expect


@pytest.mark.parametrize(
    "singular_values, message",
    [([1.0, 1.5e-9], "flips"), ([1.0, 2e-8, 3e-11], "gap")],
)
def test_weight_block_rank_decision_refuses(singular_values, message):
    cand = _hand_rep([[0]], [[0]], [[1.0]])
    cols = len(singular_values)
    E = np.zeros((cols + 1, cols + 1))
    E[:cols, :cols] = np.diag(singular_values)
    big = _hand_rep(E, np.zeros_like(E), np.diag([1.0] * cols + [4.0]))
    with pytest.raises(IllConditioned, match=message):
        _weight_counts([cand], big.E, big.K, lambda: big)[0]


@pytest.mark.parametrize("branch", ["principal", "conjugate"])
def test_fusion_crosscheck_level_seven(branch):
    rep = fusion_crosscheck(7, Fraction(-1, 2), t_branch=branch)
    assert rep.ok, rep.mismatches[:2]
    assert rep.pairs_checked == 256


@pytest.mark.parametrize("branch", ["principal", "conjugate"])
@pytest.mark.parametrize("q, route", [(Fraction(-1, 2), "weights"),
                                      (-(1 + Fraction(1, 10**11)), "fallback")],
                         ids=["weights", "fallback"])
def test_fusion_crosscheck_forms_only_e_and_k(q, route, branch, monkeypatch):
    # every pair's E and K are tensor_rep's, bit for bit, and the whole
    # product is built only for a pair with a candidate that falls back
    formed, built = [], []
    tensor_e_k = uqnumeric._tensor_e_k

    def recorded_e_k(a, b):
        E, K = tensor_e_k(a, b)
        formed.append((a, b, E, K))
        return E, K

    def recorded_tensor_rep(a, b):
        built.append((a, b))
        return tensor_rep(a, b)

    monkeypatch.setattr(uqnumeric, "_tensor_e_k", recorded_e_k)
    monkeypatch.setattr(uqnumeric, "tensor_rep", recorded_tensor_rep)
    rep = fusion_crosscheck(3, q, t_branch=branch)
    monkeypatch.undo()
    assert rep.ok, rep.mismatches[:2]
    # tensor_rep forms its own E and K through the same helper
    assert len(formed) == rep.pairs_checked + len(built) == 64 + len(built)
    for a, b, E, K in formed:
        full = tensor_rep(a, b)
        assert np.array_equal(E, full.E) and np.array_equal(K, full.K)
        assert np.array_equal(E, np.kron(a.E, b.K_inv) + np.kron(a.K, b.E))
        assert np.array_equal(K, np.kron(a.K, b.K))
    pairs = [(id(a), id(b)) for a, b in built]
    assert len(set(pairs)) == len(pairs)
    assert (len(built) > 0) == (route == "fallback")


def test_fusion_crosscheck_near_minus_one_falls_back(monkeypatch):
    # weights q^2 apart differ by 2e-11 relative: too close to sort, so
    # those candidates go through the full intertwiner system
    calls = []

    def counted(a, b):
        calls.append((a.dim, b.dim))
        return intertwiner_space(a, b)

    monkeypatch.setattr(uqnumeric, "intertwiner_space", counted)
    rep = fusion_crosscheck(3, -(1 + Fraction(1, 10**11)))
    assert rep.ok, rep.mismatches[:2]
    assert rep.pairs_checked == 64
    assert calls


def test_full_verification_both_branches():
    for branch in ("principal", "conjugate"):
        rep = full_verification(Fraction(-1, 2), 3, t_branch=branch)
        assert rep.ok, rep.to_dict()
    names = [name for name, _ok, _d in full_verification(Fraction(-1, 2), 2).checks]
    assert names == [
        "relations",
        "star",
        "compact-form obstruction",
        "conjugate equations",
        "permutation intertwiner",
        "fusion crosscheck",
    ]


NEAR_MINUS_ONE = -(1 + Fraction(1, 10**11))


@pytest.mark.parametrize("branch", ["principal", "conjugate"])
@pytest.mark.parametrize("q", [*Q_VALUES, Fraction(-1, 3), Fraction(-3, 2), NEAR_MINUS_ONE], ids=str)
def test_weight_counts_match_the_per_candidate_reference(q, branch, monkeypatch):
    # every pair of the (n, m <= 4) grid, every candidate of its
    # cross-check, counted per pair and one at a time: the same counts,
    # and the same candidates sent to the full system, in the same order
    # (near -1 most of them; each system is solved once for both routes)
    sent, solved = [], {}

    def solve_once(a, b):
        sent.append(id(a))
        # the entry holds a and b, so their ids are not reused meanwhile
        if (id(a), id(b)) not in solved:
            solved[id(a), id(b)] = (a, b, intertwiner_space(a, b))
        return solved[id(a), id(b)][2]

    monkeypatch.setattr(uqnumeric, "intertwiner_space", solve_once)
    reps = {(s, k): build_u(s, k, q, t_branch=branch) for s in (1, -1) for k in range(9)}
    signs = (1, -1)
    for n in range(5):
        for m in range(5):
            for eps in signs:
                for delta in signs:
                    left, right = reps[eps, n], reps[delta, m]
                    E, K = uqnumeric._tensor_e_k(left, right)
                    full = functools.cache(lambda: tensor_rep(left, right))
                    cands = [reps[sigma, k] for k in range(n + m + 1) for sigma in signs]
                    sent.clear()
                    expected = [weight_count_reference(cand, E, K, full) for cand in cands]
                    expected_sent = list(sent)
                    sent.clear()
                    assert _weight_counts(cands, E, K, full) == expected, (n, m, eps, delta)
                    assert sent == expected_sent, (n, m, eps, delta)
    assert bool(solved) == (q == NEAR_MINUS_ONE)


def _refusal(call):
    with pytest.raises(IllConditioned) as caught:
        call()
    return str(caught.value)


@pytest.mark.parametrize("singular_values", [[1.0, 1.5e-9], [1.0, 2e-8, 3e-11]])
def test_weight_counts_refuse_like_the_reference(singular_values):
    # the blocks of test_weight_block_rank_decision_refuses, behind a
    # candidate whose weight has no column and one that is fine
    cand = _hand_rep([[0]], [[0]], [[1.0]])
    cols = len(singular_values)
    E = np.zeros((cols + 1, cols + 1))
    E[:cols, :cols] = np.diag(singular_values)
    big = _hand_rep(E, np.zeros_like(E), np.diag([1.0] * cols + [4.0]))
    absent = _hand_rep([[0]], [[0]], [[2.0]])
    fine = _hand_rep([[0]], [[0]], [[4.0]])
    assert _weight_counts([absent, fine], big.E, big.K, lambda: big) == [0, 1]
    expected = _refusal(lambda: weight_count_reference(cand, big.E, big.K, lambda: big))
    assert _refusal(lambda: _weight_counts([absent, fine, cand], big.E, big.K, lambda: big)) == expected
    assert _refusal(lambda: _weight_counts([cand], big.E, big.K, lambda: big)[0]) == expected


def test_weight_route_never_decomposes_an_empty_block(monkeypatch):
    shapes = []
    svd = np.linalg.svd

    def recorded(a, *args, **kwargs):
        shapes.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    rep = fusion_crosscheck(4, Fraction(-1, 2))
    monkeypatch.undo()
    assert rep.ok and rep.pairs_checked == 100
    assert shapes and all(cols > 0 for _rows, cols in shapes)
    # only candidates whose highest weight occurs are decomposed: of the
    # 2(n + m + 1), the one sign and the levels k <= n + m of the parity
    # of n + m that the product's twist allows
    assert len(shapes) == sum((n + m) // 2 + 1 for n in range(5) for m in range(5)) * 4


def test_kron_is_numpy_kron_bit_for_bit():
    rng = np.random.default_rng(5)
    for shape_a, shape_b in (((3, 3), (4, 4)), ((2, 5), (3, 1)), ((1, 1), (6, 6)), ((0, 2), (2, 2))):
        a = rng.normal(size=shape_a) + 1j * rng.normal(size=shape_a)
        b = rng.normal(size=shape_b) + 1j * rng.normal(size=shape_b)
        got, want = _kron(a, b), np.kron(a, b)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


# SHA-256 of the sorted JSON of fusion_crosscheck's report, recorded on
# the per-candidate weight route; both branches give the same report.
CROSSCHECK_DIGESTS = {
    (4, Fraction(-1, 2)): "056d8aed0a378a24391424b417800986c8c835e97bdd05b1b319ec1304adc34a",
    (5, Fraction(-3, 2)): "b1a8900263f027437ddadaa811545592e409386f94653a620f4e5c5782c76e70",
    (3, NEAR_MINUS_ONE): "ed7262230e9a725968631ec3ae71fba000fe4c82ac7af01794dd187de7d7f84a",
    (4, Fraction(-4, 5)): "d7eb027a482247da994f78ba7dcaa5bfead53ec35fa54466ea1c97d6022a9f76",
    (7, Fraction(-3, 7)): "579e426bd6d61df261c99d3439e0e0571f0175d2d6213f641179d9fca06b8610",
}


@pytest.mark.parametrize("branch", ["principal", "conjugate"])
@pytest.mark.parametrize("n_max, q", list(CROSSCHECK_DIGESTS), ids=lambda v: str(v))
def test_fusion_crosscheck_reports_are_pinned(n_max, q, branch):
    report = fusion_crosscheck(n_max, q, t_branch=branch)
    text = json.dumps(report.to_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == CROSSCHECK_DIGESTS[n_max, q]


def _uq_verify(q: str) -> tuple[int, dict]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["uq", "verify", "--q", q, "--nmax", "6", "--json"])
    return code, json.loads(buf.getvalue())["report"]


@pytest.mark.parametrize("q, residual", [("-1e2", "3.586e-06"), ("-1e3", "3.750e-01")])
def test_correct_models_pass_at_large_q(q, residual):
    # K^2 reaches |q|^6: residuals far above RESIDUAL_TOL are rounding,
    # about 1e-19 of the entries compared
    code, report = _uq_verify(q)
    assert code == 0 and report["ok"], report
    assert report["checks"][0]["detail"] == f"max residual {residual} over n <= 6"


def test_relative_judgement_still_fails_a_wrong_model_at_large_q(monkeypatch):
    # E off by one part in 10^6 breaks [E, F] and E* = -F relative to
    # their entries, far above the RESIDUAL_TOL rounding allowance
    build = uqnumeric.build_u

    def scaled(*args, **kwargs):
        rep = build(*args, **kwargs)
        rep.E = rep.E * (1 + 1e-6)
        return rep

    monkeypatch.setattr(uqnumeric, "build_u", scaled)
    code, report = _uq_verify("-1e3")
    verdicts = {check["name"]: check["ok"] for check in report["checks"]}
    assert code == 1 and not report["ok"]
    assert not verdicts["relations"] and not verdicts["star"]
    q = -1e3
    rep = scaled(1, 3, q)
    assert rep.relation_check()[1] is False and not check_star(rep).ok
    assert build(1, 3, q).relation_check()[1] is True and check_star(build(1, 3, q)).ok


# The first level whose unitarizer leaves the normal doubles, where the
# model used to come out with infinite and NaN entries.
FIRST_REFUSED_LEVEL = {Fraction(-2): 91, Fraction(-1, 2): 91, Fraction(-3, 2): 119,
                       Fraction(-10): 50, Fraction(-1, 10): 50}


@pytest.mark.parametrize("q, n", FIRST_REFUSED_LEVEL.items(), ids=str)
def test_models_past_double_range_are_refused_before_they_form(q, n):
    for sign in (1, -1):
        rep = build_u(sign, n - 1, q)
        assert all(np.isfinite(m).all() for m in (rep.E, rep.F, rep.K, rep.K_inv))
        with pytest.raises(BadParameter, match=r"^q = -\S+ is out of range for double precision$"):
            build_u(sign, n, q)


def test_fusion_crosscheck_reads_labels_without_parsing_ids(monkeypatch):
    def refuse(self, text):
        raise AssertionError(f"parse_label({text!r}) called")

    monkeypatch.setattr(UqSU11Provider, "parse_label", refuse)
    report = fusion_crosscheck(3, Fraction(-1, 2))
    assert report.to_dict() == {"q": -0.5, "n_max": 3, "pairs_checked": 64, "mismatches": [], "ok": True}


# Models entry by entry against the dense rescaling, from |q| = 10^5 down
# to 10^-3: the same matrices, or the same refusal at the same level.
DENSE_GRID_Q = (-10**5, -10.0, -2.0, Fraction(-3, 2), Fraction(-1, 2), Fraction(-2, 3), -0.1, -1e-3)


def _outcome(call):
    try:
        return call()
    except BadParameter as exc:
        return str(exc)


@pytest.mark.parametrize("branch", ["principal", "conjugate"])
@pytest.mark.parametrize("q", DENSE_GRID_Q, ids=str)
def test_build_u_matches_the_dense_rescaling(q, branch):
    refused = 0
    for sign in (1, -1):
        for n in range(60):
            got = _outcome(lambda: build_u(sign, n, q, t_branch=branch))
            want = _outcome(lambda: build_u_reference(sign, n, q, t_branch=branch))
            if isinstance(want, str):
                assert got == want, (sign, n)
                refused += 1
                continue
            for name in ("E", "F", "K", "K_inv"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), (sign, n, name)
    # the grid reaches the refusal at both ends of the range
    assert (refused > 0) == (q in (-10**5, -10.0, -1e-3, -0.1))


@pytest.mark.parametrize("q", [*Q_VALUES, Fraction(1, 2), -10.0], ids=str)
def test_unitarizability_witness_matches_the_matrix_unitarizer(q):
    for branch in ("principal", "conjugate"):
        for w in (1, -1, 1j, -1j):
            for form in ("su2", "su11"):
                for n in range(13):
                    got = unitarizability_witness(w, n, q, form, t_branch=branch)
                    want = unitarizability_witness_reference(w, n, q, form, t_branch=branch)
                    assert got.to_dict() == want.to_dict(), (branch, w, form, n)
                    assert (got.T is None) == (want.T is None)
                    if got.T is not None:
                        assert got.T.tobytes() == want.T.tobytes()


def _same_space(got, want) -> bool:
    return (
        got.dim == want.dim
        and got.singular_values.tobytes() == want.singular_values.tobytes()
        and len(got.basis) == len(want.basis)
        and all(g.tobytes() == w.tobytes() for g, w in zip(got.basis, want.basis))
    )


@pytest.mark.parametrize("q", [Fraction(-1, 2), NEAR_MINUS_ONE], ids=str)
def test_intertwiner_space_matches_the_full_svd(q):
    # every system of the weight-multiplicity differential at this q:
    # the SVD of the R factor gives the full SVD's bits, refusals included
    reps = {(s, k): build_u(s, k, q) for s in (1, -1) for k in range(11)}
    signs = (1, -1)
    for n in range(5):
        for m in range(5):
            for eps in signs:
                for delta in signs:
                    big = tensor_rep(reps[eps, n], reps[delta, m])
                    for k in range(n + m + 3):
                        for sigma in signs:
                            cand = reps[sigma, k]
                            try:
                                want = intertwiner_space_reference(cand, big)
                            except IllConditioned as exc:
                                assert _refusal(lambda: intertwiner_space(cand, big)) == str(exc)
                                continue
                            assert _same_space(intertwiner_space(cand, big), want), (n, m, eps, delta, k, sigma)


@pytest.mark.parametrize("branch", ["principal", "conjugate"])
@pytest.mark.parametrize("q", [*Q_VALUES, -10**5, -1e-8], ids=str)
def test_conjugate_equations_match_the_two_vector_reference(q, branch):
    got = verify_conjugate_equations(q, t_branch=branch)
    assert got.to_dict() == verify_conjugate_equations_reference(q, t_branch=branch).to_dict()

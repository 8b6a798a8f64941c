"""Numerical models for the sign-graded double ladder ring at real q < 0.

Matrices realize the usual ladder operators E, F and the group-like K on
an (n+1)-dimensional space; the deformation parameter enters through
q-integers, and a fourth root of unity w twists all three generators at
once.  For q < 0 the square root t of q is imaginary, which is exactly
what pushes these representations out of the compact star structure
(E* = F) and into the other real form (E* = -F), where a diagonal change
of basis makes them star-preserving.

Everything is double precision with a pinned residual tolerance,
relative to the size of the entries compared (they grow like |q|^n);
rank decisions use a hard relative singular-value gap and refuse to
answer without one.  A q that does not fit a double, or whose q-integers
or powers q^n and q^-n at the requested levels do not, is refused with
BadParameter.

Hom spaces come by two routes.  ``intertwiner_space`` solves the full
Kronecker system T a(X) = b(X) T for X in {E, F, K}; it is the general
route and the reference.  ``fusion_crosscheck`` counts multiplicities by
highest weights instead: K is diagonal in the tensor basis, so the
multiplicity of an irreducible with highest weight lam is the nullity of
E on the lam-eigenspace of K, a block of at most min(n, m) + 1 columns.
One table per tensor product sorts its weights against every candidate
(``_weight_counts``); a candidate whose weight does not occur counts 0
without a decomposition.  Each block's rank obeys the same gap and
tolerance rules, and a pair whose K is not diagonal, or a candidate
whose lam sits too close to a weight to sort, goes through the full
system.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from decimal import Context
from fractions import Fraction
from numbers import Rational

import numpy as np

from .errors import BadParameter, IllConditioned

__all__ = [
    "RESIDUAL_TOL",
    "SV_GAP",
    "q_int",
    "RepMatrices",
    "build_pi",
    "build_u",
    "check_star",
    "StarReport",
    "unitarizability_witness",
    "UnitarizabilityWitness",
    "tensor_rep",
    "intertwiner_space",
    "IntertwinerSpace",
    "verify_conjugate_equations",
    "ConjugateEquationsReport",
    "verify_permutation_intertwiner",
    "PermutationReport",
    "fusion_crosscheck",
    "FusionCrosscheckReport",
    "full_verification",
    "UqVerifyReport",
]

RESIDUAL_TOL = 1e-9
SV_GAP = 1e3


def q_int(k: int, q):
    """The balanced q-integer (q^k - q^-k) / (q - q^-1); exact for rational q."""
    if isinstance(q, Rational):
        q = Fraction(q)
    if q == 0 or q == 1 or q == -1:
        raise BadParameter(f"q must avoid 0 and +-1, got {q}")
    if k == 0:
        return q * 0
    return (q**k - q**-k) / (q - 1 / q)


def _out_of_range(q) -> BadParameter:
    """The refusal of a q that, or one of whose q-integers or powers,
    overflows a double."""
    qx = Fraction(q)
    shown = Context(prec=6).divide(qx.numerator, qx.denominator).normalize()
    return BadParameter(f"q = {shown:g} is out of range for double precision")


def _validate_q(q) -> float:
    if isinstance(q, complex):
        raise BadParameter(f"q must be real, got {q!r}")
    try:
        qf = float(q)
    except (TypeError, ValueError):
        raise BadParameter(f"q must be a real number, got {q!r}") from None
    except OverflowError:
        raise _out_of_range(q) from None
    if qf == 0.0 or qf == 1.0 or qf == -1.0:
        raise BadParameter(f"q must avoid 0 and +-1, got {q}")
    return qf


def _validate_w(w) -> complex:
    wc = complex(w)
    if abs(wc**4 - 1) > 1e-12:
        raise BadParameter(f"w must be a fourth root of unity, got {w!r}")
    return wc


def _t_value(q: float, t_branch: str) -> complex:
    if t_branch not in ("principal", "conjugate"):
        raise BadParameter(f"t_branch must be principal or conjugate, got {t_branch!r}")
    t = cmath.sqrt(q)
    return t if t_branch == "principal" else -t


@dataclass
class RepMatrices:
    """Matrices of one representation (or a tensor product of them).

    ``form_tag`` records which star form the matrices are meant for:
    "sl2" (none), "su2", "su11", and "mixed" for a tensor product whose
    factors differ in it.
    """

    E: np.ndarray
    F: np.ndarray
    K: np.ndarray
    K_inv: np.ndarray
    q: float
    w: complex
    form_tag: str
    t_branch: str = "principal"

    @property
    def dim(self) -> int:
        return self.E.shape[0]

    def _relation_sides(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Both sides of each defining relation, by name."""
        q = self.q
        comm = self.E @ self.F - self.F @ self.E
        casimir_rhs = (self.K @ self.K - self.K_inv @ self.K_inv) / (q - 1 / q)
        return {
            "KE=qEK": (self.K @ self.E, q * self.E @ self.K),
            "KF=q^-1FK": (self.K @ self.F, self.F @ self.K / q),
            "[E,F]": (comm, casimir_rhs),
            "KK^-1=1": (self.K @ self.K_inv, np.eye(self.dim)),
        }

    def relation_check(self) -> tuple[float, bool]:
        """The largest relation residual, and whether every relation holds
        to RESIDUAL_TOL relative to its two sides (``_judged``)."""
        return _judged(self._relation_sides().values())


def _maxabs(m: np.ndarray) -> float:
    return float(np.max(np.abs(m))) if m.size else 0.0


def _judged(sides) -> tuple[float, bool]:
    """The largest max |lhs - rhs| over pairs ``(lhs, rhs)`` of matrices,
    and whether each pair agrees: its residual is at most RESIDUAL_TOL
    times the largest |entry| of either side, or times 1 if that is
    smaller, and that entry is finite.  Entries of K^2 grow like |q|^n and
    keep only their relative precision, so an absolute bound would fail
    correct models at large |q|."""
    residuals, ok = [], True
    for lhs, rhs in sides:
        residual = _maxabs(lhs - rhs)
        scale = max(1.0, _maxabs(lhs), _maxabs(rhs))
        residuals.append(residual)
        ok = ok and math.isfinite(scale) and residual <= RESIDUAL_TOL * scale
    return max(residuals), ok


def _q_ints(n: int, q) -> list[float]:
    """The q-integers [0], ..., [n] as doubles: exact for rational q and
    rounded once, or in double precision for a float q.  Refused, like an
    overflowing q-integer, when q^n or q^-n does not fit a double: those
    are the extreme entries of K^2 and K^-2 in the level-n model, which
    the relation check forms."""
    qx = Fraction(q) if isinstance(q, Rational) else float(q)
    try:
        float(qx**n), float(qx**-n)
        return [float(q_int(k, qx)) for k in range(n + 1)]
    except OverflowError:
        raise _out_of_range(q) from None


def build_pi(w, n: int, q, *, t_branch: str = "principal") -> RepMatrices:
    """The (n+1)-dimensional ladder representation twisted by w.

    E lowers the basis index with coefficient w [r], F raises it with
    coefficient w [n-r], and K is diagonal w t^(n-2r) for t = sqrt(q).
    Relations: K E K^-1 = q E, K F K^-1 = q^-1 F,
    [E, F] = (K^2 - K^-2) / (q - q^-1).
    """
    return _ladder_model(w, n, q, t_branch)[0]


def _ladder_model(w, n: int, q, t_branch: str) -> tuple[RepMatrices, list[float]]:
    """``build_pi(w, n, q)`` and the q-integers [0], ..., [n] it is built
    from, which the unitarizer reads as well."""
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


def _phase_ratio(w: complex) -> complex:
    # conj(w)/w; +1 for real w, -1 for imaginary w
    return w.conjugate() / w


def _unitarizer(w: complex, ints: list[float], sign_flip: bool):
    """Diagonal scaling making the twisted ladder star-preserving.

    Solves tau_j^2 = (+-) (conj(w)/w) [j]/[n-j+1] tau_{j-1}^2 with the
    minus for the noncompact form, from the q-integers ``ints`` = [0..n].
    Returns None when some step has no real solution; that absence is
    the unitarizability obstruction.
    """
    ratio = _phase_ratio(w)
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


def build_u(sign: int, n: int, q, *, t_branch: str = "principal") -> RepMatrices:
    """Star-preserving model for the irreducible (sign, n) at q < 0.

    The twist is sign * i^n; for q < 0 that is precisely when K comes
    out real, and a diagonal rescaling then realizes E* = -F.  (sign, 0)
    gives the two one-dimensional representations, with K = sign.  The
    q-integers are computed once, for the ladder and the rescaling.
    """
    if sign not in (1, -1):
        raise BadParameter(f"sign must be +-1, got {sign!r}")
    qf = _validate_q(q)
    if qf >= 0:
        raise BadParameter(f"these models need q < 0, got {q}")
    w = sign * (1j if n % 2 else 1 + 0j)
    base, ints = _ladder_model(w, n, q, t_branch)
    T = _unitarizer(w, ints, sign_flip=True)
    if T is None:
        raise BadParameter(f"no star-preserving model at (sign={sign}, n={n}, q={q})")
    T_inv = np.diag(1 / np.diag(T))
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


@dataclass
class StarReport:
    form: str
    residual: float
    ok: bool

    def to_dict(self) -> dict:
        return {"form": self.form, "residual": self.residual, "ok": self.ok}


def check_star(rep: RepMatrices, form: str | None = None) -> StarReport:
    """Residual of the star relations for the chosen form, judged relative
    to the entries compared (``_judged``).

    su2:  E* = F,  K* = K.   su11:  E* = -F,  K* = K.
    """
    form = form or rep.form_tag
    if form == "su2":
        sides = ((rep.E.conj().T, rep.F), (rep.K.conj().T, rep.K))
    elif form == "su11":
        sides = ((rep.E.conj().T, -rep.F), (rep.K.conj().T, rep.K))
    else:
        raise BadParameter(f"no star structure for form {form!r}")
    residual, ok = _judged(sides)
    return StarReport(form=form, residual=residual, ok=ok)


@dataclass
class UnitarizabilityWitness:
    verdict: str  # "unitarizable" | "obstruction"
    form: str
    T: np.ndarray | None
    evidence: dict

    @property
    def unitarizable(self) -> bool:
        return self.verdict == "unitarizable"

    def to_dict(self) -> dict:
        out = {"verdict": self.verdict, "form": self.form, "evidence": dict(self.evidence)}
        if self.T is not None:
            out["T"] = [float(x) for x in np.diag(self.T).real]
        return out


def unitarizability_witness(w, n: int, q, form: str = "su11", *, t_branch: str = "principal") -> UnitarizabilityWitness:
    """Either a diagonal unitarizer for the twisted ladder, or why none exists.

    Obstructions come in two kinds: a non-real K spectrum (the twist has
    the wrong parity for any star form with K self-adjoint), and a
    definiteness failure visible in the spectrum of E F, which must be
    negative semidefinite for su11 (E F = -E E*) and positive
    semidefinite for su2.
    """
    if form not in ("su2", "su11"):
        raise BadParameter(f"form must be su2 or su11, got {form!r}")
    base, ints = _ladder_model(w, n, q, t_branch)
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
    T = _unitarizer(base.w, ints, sign_flip=(form == "su11"))
    if T is not None:
        return UnitarizabilityWitness(
            verdict="unitarizable", form=form, T=T, evidence={"kind": "diagonal_unitarizer"}
        )
    ef = np.diag(base.E @ base.F)
    want = -1 if form == "su2" else 1
    # su2 needs EF >= 0, su11 needs EF <= 0; report the worst offender.
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


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of two matrices: the same single product per entry,
    formed by one broadcast multiply and a reshape."""
    (ra, ca), (rb, cb) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(ra * rb, ca * cb)


def _tensor_e_k(a: RepMatrices, b: RepMatrices) -> tuple[np.ndarray, np.ndarray]:
    """E and K of ``tensor_rep(a, b)``, the two matrices the weight route reads."""
    return _kron(a.E, b.K_inv) + _kron(a.K, b.E), _kron(a.K, b.K)


def tensor_rep(a: RepMatrices, b: RepMatrices) -> RepMatrices:
    """Tensor product along the coproduct D(E) = E (x) K^-1 + K (x) E,
    D(F) = F (x) K^-1 + K (x) F, D(K) = K (x) K."""
    if abs(a.q - b.q) > 0 or a.t_branch != b.t_branch:
        raise BadParameter("tensor factors must share q and t_branch")
    E, K = _tensor_e_k(a, b)
    F = _kron(a.F, b.K_inv) + _kron(a.K, b.F)
    K_inv = _kron(a.K_inv, b.K_inv)
    form = a.form_tag if a.form_tag == b.form_tag else "mixed"
    return RepMatrices(E=E, F=F, K=K, K_inv=K_inv, q=a.q, w=a.w * b.w, form_tag=form, t_branch=a.t_branch)


@dataclass
class IntertwinerSpace:
    dim: int
    basis: list[np.ndarray]
    singular_values: np.ndarray

    def to_dict(self) -> dict:
        return {"dim": self.dim, "singular_values": [float(s) for s in self.singular_values]}


def _nullity_at(s: np.ndarray, tol: float, scale: float) -> int:
    return int(np.count_nonzero(s <= tol * scale))


def _stable_nullity(s: np.ndarray) -> int:
    """Nullity of a matrix with no more columns than rows, from its
    descending singular values ``s``.

    The rank decision demands a relative gap of SV_GAP between the kept
    and discarded singular values and must not move when the tolerance
    shifts a decade either way from RESIDUAL_TOL; otherwise IllConditioned.
    """
    tol = RESIDUAL_TOL
    scale = s[0] if s.size and s[0] > 0 else 1.0
    nullity = _nullity_at(s, tol, scale)
    for other in (tol / 10, tol * 10):
        if _nullity_at(s, other, scale) != nullity:
            raise IllConditioned(
                f"nullity flips between tolerances {tol / 10:g} and {tol * 10:g}"
            )
    total = s.size
    if 0 < nullity < total:
        smallest_kept = s[total - nullity - 1]
        largest_null = s[total - nullity]
        if largest_null > 0 and smallest_kept / largest_null < SV_GAP:
            raise IllConditioned(
                f"singular-value gap {smallest_kept / largest_null:.3g} below {SV_GAP:g}"
            )
    return nullity


def intertwiner_space(a: RepMatrices, b: RepMatrices) -> IntertwinerSpace:
    """Solutions T of T a(X) = b(X) T for X in {E, F, K}, by SVD nullspace.

    The rank decision follows the module's rules (``_stable_nullity``):
    a relative gap of SV_GAP between the kept and discarded singular
    values, stable when the tolerance shifts a decade either way;
    otherwise IllConditioned.
    """
    da, db = a.dim, b.dim
    Ia, Ib = np.eye(da), np.eye(db)
    blocks = []
    for rep_a, rep_b in ((a.E, b.E), (a.F, b.F), (a.K, b.K)):
        blocks.append(np.kron(Ib, rep_a.T) - np.kron(rep_b, Ia))
    M = np.vstack(blocks)
    # M is tall, so len(s) == db * da and vh is square without the full U
    _, s, vh = np.linalg.svd(M, full_matrices=False)
    nullity = _stable_nullity(s)
    total = db * da
    # null vectors are columns of V, i.e. conjugated rows of vh
    basis = [vh[row].conj().reshape(db, da) for row in range(total - nullity, total)]
    return IntertwinerSpace(dim=nullity, basis=basis, singular_values=s)


def _weight_multiplicity(cand: RepMatrices, big: RepMatrices) -> int:
    """dim Hom(cand, big) for an irreducible ladder model ``cand``; the
    one-candidate call of ``_weight_counts``."""
    return _weight_counts([cand], big.E, big.K, lambda: big)[0]


def _weight_counts(cands: list[RepMatrices], E: np.ndarray, K: np.ndarray, full) -> list[int]:
    """dim Hom(cand, M) for each irreducible ladder model in ``cands``,
    for the module M given by its E and K alone; ``full()`` returns the
    whole module for a candidate that falls back.

    A candidate's basis vector 0 is its highest-weight vector, of K-weight
    lam = cand.K[0, 0].  Finite-dimensional modules are semisimple at
    these q (no root of unity) and the highest weight fixes the
    irreducible, so the multiplicity is the number of independent vectors
    of weight lam that E kills: the nullity of E restricted to the
    lam-eigenspace of K (Kassel, Quantum Groups, ch. VI-VII).  That block
    has at most min(n, m) + 1 columns for a tensor product of levels n
    and m, and its rank follows the same rules as ``intertwiner_space``;
    a block with no columns has nullity 0 and needs no decomposition.

    K's diagonal is read, and tested for being all of K, once; the
    distances |k - lam| / |lam| of all weights to all candidates come from
    one broadcast.  Where K is not exactly diagonal, or a weight is
    neither equal to a candidate's lam (within RESIDUAL_TOL / SV_GAP,
    relative) nor clearly apart from it (at least RESIDUAL_TOL), that
    candidate's weight space cannot be read off and the full
    ``intertwiner_space`` system answers instead.  Candidates are decided
    in order, so the first refusal is the one raised.
    """
    k_diag = np.diag(K)
    lams = np.array([cand.K[0, 0] for cand in cands])
    # Python's abs, not np.abs: numpy's vectorised complex abs can differ
    # from it in the last bit, and this divisor decides the weight bands
    scales = np.array([abs(lam) for lam in lams])
    apart = np.abs(k_diag - lams[:, None]) / scales[:, None]
    same = apart <= RESIDUAL_TOL / SV_GAP
    falls_back = np.any(~same & (apart < RESIDUAL_TOL), axis=1)
    if np.count_nonzero(K - np.diag(k_diag)):
        falls_back[:] = True
    counts = []
    for cand, cols, fallback in zip(cands, same, falls_back):
        if fallback:
            counts.append(intertwiner_space(cand, full()).dim)
        elif cols.any():
            counts.append(_stable_nullity(np.linalg.svd(E[:, cols], compute_uv=False)))
        else:
            counts.append(0)
    return counts


@dataclass
class ConjugateEquationsReport:
    q: float
    c: complex
    norm_sq: float
    invariance_residual: float
    snake_residual: float
    ok: bool

    def to_dict(self) -> dict:
        return {
            "q": self.q,
            "c": [self.c.real, self.c.imag],
            "norm_sq": self.norm_sq,
            "invariance_residual": self.invariance_residual,
            "snake_residual": self.snake_residual,
            "ok": self.ok,
        }


def verify_conjugate_equations(q, *, t_branch: str = "principal") -> ConjugateEquationsReport:
    """Check the duality pair for the level-1 irreducible.

    R = psi_0 (x) psi_1 - |q| psi_1 (x) psi_0 is invariant in both
    conjugate (x) u and u (x) conjugate, and both snake compositions come
    out as the same scalar c = -|q| (the pair is normalized by the
    vector, not the scalar, so c is reported rather than forced to 1).
    """
    qf = _validate_q(q)
    if qf >= 0:
        raise BadParameter(f"needs q < 0, got {q}")
    u = build_u(1, 1, q, t_branch=t_branch)
    ubar = build_u(-1, 1, q, t_branch=t_branch)
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
    snake1 = np.kron(Rbar.conj().T, I2) @ np.kron(I2, R)
    snake2 = np.kron(R.conj().T, I2) @ np.kron(I2, Rbar)
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


@dataclass
class PermutationReport:
    n: int
    q: float
    residual: float
    hom_dim: int
    ok: bool

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "q": self.q,
            "residual": self.residual,
            "hom_dim": self.hom_dim,
            "ok": self.ok,
        }


def verify_permutation_intertwiner(n: int, q, *, t_branch: str = "principal") -> PermutationReport:
    """The flip intertwines (-,0) (x) (+,n) with (+,n) (x) (-,0).

    Both orders act on the same (n+1)-dimensional space and the flip is
    the identity matrix there; the residual measures how far the two
    tensor actions are from agreeing, and the hom dimension is
    cross-checked through the SVD route.
    """
    iota_minus = build_u(-1, 0, q, t_branch=t_branch)
    u = build_u(1, n, q, t_branch=t_branch)
    a = tensor_rep(iota_minus, u)
    b = tensor_rep(u, iota_minus)
    residual = max(_maxabs(a.E - b.E), _maxabs(a.F - b.F), _maxabs(a.K - b.K))
    space = intertwiner_space(a, b)
    return PermutationReport(
        n=n, q=float(q), residual=residual, hom_dim=space.dim, ok=residual <= RESIDUAL_TOL and space.dim == 1
    )


@dataclass
class FusionCrosscheckReport:
    q: float
    n_max: int
    pairs_checked: int
    mismatches: list[str]

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_dict(self) -> dict:
        return {
            "q": self.q,
            "n_max": self.n_max,
            "pairs_checked": self.pairs_checked,
            "mismatches": list(self.mismatches),
            "ok": self.ok,
        }


def fusion_crosscheck(n_max: int, q, *, t_branch: str = "principal") -> FusionCrosscheckReport:
    """Tensor-product multiplicities, measured numerically, against the ring.

    For every ordered pair of irreducibles up to level n_max, decompose
    the matrix tensor product by counting intertwiners from each
    candidate irreducible, and compare with the symbolic decomposition.
    Each count is the nullity of E on the candidate's highest-weight
    space of K, under the same SV_GAP and tolerance-flip refusals as
    ``intertwiner_space``, which answers instead where K is not diagonal
    or its weights are too close to sort (|q| near 1).  A pair sorts its
    weights against all 2(n + m + 1) candidates at once
    (``_weight_counts``), and decomposes only the blocks of candidates
    whose highest weight occurs.  Only E and K of each product are
    formed, by ``tensor_rep``'s expressions; a pair builds the full
    ``tensor_rep`` only when one of its candidates falls back.  The
    models are built once per call and shared by the pairs.
    """
    from .rings.su11 import uq_su11_ring

    ring = uq_su11_ring()
    reps: dict[tuple[int, int], RepMatrices] = {}

    def rep(sign, n):
        key = (sign, n)
        if key not in reps:
            reps[key] = build_u(sign, n, q, t_branch=t_branch)
        return reps[key]

    def name(sign, n):
        return f"u{'+' if sign == 1 else '-'}{n}"

    mismatches = []
    pairs = 0
    signs = (1, -1)
    for n in range(n_max + 1):
        for m in range(n_max + 1):
            for eps in signs:
                for delta in signs:
                    pairs += 1
                    a = ring.parse_label(name(eps, n))
                    b = ring.parse_label(name(delta, m))
                    symbolic = {
                        w.id: mult for w, mult in ring.decompose(a, b)
                    }
                    left, right = rep(eps, n), rep(delta, m)
                    E, K = _tensor_e_k(left, right)
                    # F and K^-1 only for a candidate that falls back
                    full = functools.cache(lambda: tensor_rep(left, right))
                    cands = [(k, sigma) for k in range(n + m + 1) for sigma in signs]
                    counts = _weight_counts([rep(sigma, k) for k, sigma in cands], E, K, full)
                    numeric = {name(sigma, k): d for (k, sigma), d in zip(cands, counts) if d}
                    if numeric != symbolic:
                        mismatches.append(
                            f"({a.id}) (x) ({b.id}): numeric {numeric} vs symbolic {symbolic}"
                        )
    return FusionCrosscheckReport(q=float(q), n_max=n_max, pairs_checked=pairs, mismatches=mismatches)


@dataclass
class UqVerifyReport:
    q: float
    n_max: int
    checks: list[tuple[str, bool, str]]

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def to_dict(self) -> dict:
        return {
            "q": self.q,
            "n_max": self.n_max,
            "ok": self.ok,
            "checks": [
                {"name": name, "ok": ok, "detail": detail} for name, ok, detail in self.checks
            ],
        }


def full_verification(q, n_max: int = 6, *, t_branch: str = "principal") -> UqVerifyReport:
    """Run the whole numerical battery at one q; every line is pinned to
    the module tolerances.  Relation and star residuals are judged
    relative to the entries compared (``_judged``); their lines print the
    largest absolute residual.  A negative ``n_max`` would check nothing
    and raises BadParameter."""
    if n_max < 0:
        raise BadParameter(f"n_max must be nonnegative, got {n_max}")
    qf = _validate_q(q)
    checks: list[tuple[str, bool, str]] = []

    worst_rel = worst_star = 0.0
    rel_ok = star_ok = True
    for n in range(n_max + 1):
        for sign in (1, -1):
            rep = build_u(sign, n, q, t_branch=t_branch)
            residual, ok = rep.relation_check()
            worst_rel, rel_ok = max(worst_rel, residual), rel_ok and ok
            star = check_star(rep)
            worst_star, star_ok = max(worst_star, star.residual), star_ok and star.ok
    checks.append(("relations", rel_ok, f"max residual {worst_rel:.3e} over n <= {n_max}"))
    checks.append(("star", star_ok, f"max residual {worst_star:.3e} over n <= {n_max}"))

    all_obstructed = True
    detail = ""
    for n in range(1, min(n_max, 6) + 1):
        w = 1j if n % 2 else 1
        witness = unitarizability_witness(w, n, q, form="su2", t_branch=t_branch)
        if witness.unitarizable:
            all_obstructed = False
            detail = f"n={n} unexpectedly unitarizable in the compact form"
            break
    checks.append(
        (
            "compact-form obstruction",
            all_obstructed,
            detail or f"every n in 1..{min(n_max, 6)} obstructed",
        )
    )

    conj = verify_conjugate_equations(q, t_branch=t_branch)
    checks.append(
        (
            "conjugate equations",
            conj.ok,
            f"c = {conj.c.real:.6g}{conj.c.imag:+.2g}i, target {-abs(qf):.6g}",
        )
    )

    perm_ok = True
    perm_detail = ""
    for n in range(min(n_max, 4) + 1):
        report = verify_permutation_intertwiner(n, q, t_branch=t_branch)
        if not report.ok:
            perm_ok = False
            perm_detail = f"n={n}: residual {report.residual:.3e}, hom dim {report.hom_dim}"
            break
    checks.append(
        ("permutation intertwiner", perm_ok, perm_detail or f"n <= {min(n_max, 4)} all exact")
    )

    cross = fusion_crosscheck(min(n_max, 3), q, t_branch=t_branch)
    checks.append(
        (
            "fusion crosscheck",
            cross.ok,
            f"{cross.pairs_checked} pairs, {len(cross.mismatches)} mismatches",
        )
    )

    return UqVerifyReport(q=qf, n_max=n_max, checks=checks)

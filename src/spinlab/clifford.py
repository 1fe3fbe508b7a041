"""Gamma-matrix algebra, spin generators, and the SL(2,C) covering map.

The chiral (Weyl) gamma matrices are built from the Pauli matrices

    s0 = I,  s1 = [[0,1],[1,0]],  s2 = [[0,-i],[i,0]],  s3 = [[1,0],[0,-1]]

as gamma0 = [[0, s0], [s0, 0]] and gamma_i = [[0, s_i], [-s_i, 0]], which
satisfy gamma_a gamma_b + gamma_b gamma_a = 2 eta_ab Id with signature
(+, -, -, -). A 2x2 special linear matrix S acts on Hermitian matrices by
H -> S H S^dag; reading that action off in the Pauli basis gives a
restricted Lorentz matrix, the double covering.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .minkowski import DEFAULT_TOL, ETA, _exponent, _ldexp, _metric_gap, _stacked

PAULI = np.array(
    [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)
PAULI.flags.writeable = False

#: The Levi-Civita symbol eps_ijk on {0, 1, 2}, in closed form (read-only).
LEVI_CIVITA = np.fromfunction(lambda i, j, k: (i - j) * (j - k) * (k - i) / 2, (3, 3, 3))
LEVI_CIVITA.flags.writeable = False


class NotUnimodular(ValueError):
    """Raised when a 2x2 matrix fed to the covering map has det != 1."""


class InvariantViolation(RuntimeError):
    """Raised when a numerical invariant that holds by construction fails."""


def weyl_gammas() -> np.ndarray:
    """Chiral-basis gamma matrices, shape (4, 4, 4)."""
    gammas = np.zeros((4, 4, 4), dtype=complex)
    gammas[0, :2, 2:] = PAULI[0]
    gammas[0, 2:, :2] = PAULI[0]
    for i in (1, 2, 3):
        gammas[i, :2, 2:] = PAULI[i]
        gammas[i, 2:, :2] = -PAULI[i]
    return gammas


def dirac_gammas() -> np.ndarray:
    """Standard-basis gamma matrices (diagonal gamma0), shape (4, 4, 4).

    The spatial gammas are the chiral basis's; only gamma0 differs.
    """
    gammas = weyl_gammas()
    gammas[0] = np.diag([1, 1, -1, -1])
    return gammas


def dirac_collection_check(gammas: np.ndarray) -> float:
    """Max deviation of the anticommutators from 2 eta_ab Id."""
    gammas = np.asarray(gammas, dtype=complex)
    prod = np.einsum("aij,bjk->abik", gammas, gammas)
    target = 2.0 * ETA[:, :, None, None] * np.eye(gammas.shape[1])
    return float(np.max(np.abs(prod + prod.transpose(1, 0, 2, 3) - target)))


def pauli_intertwiner(gammas_from: np.ndarray, gammas_to: np.ndarray) -> np.ndarray:
    """Invertible S with gammas_to[a] = S @ gammas_from[a] @ inv(S), unique up to scale.

    S solves t_a S - S g_a = 0 for a = 0..3, in row-major vec the 4 d^2 x d^2
    system [kron(t_a, I) - kron(I, g_a^T)] vec(S) = 0. By Schur's lemma its null
    space is one line when the collections are irreducible and conjugate, so S is
    the last right singular vector of one SVD (unit Frobenius norm); leading stacks of
    collections, (..., 4, d, d), broadcast and run in bounded chunks. ValueError unless
    both inputs are finite (4, d, d) stacks of one shape, when the smallest singular value
    exceeds 1e-8 of the largest (the inputs are not conjugate), and when the second
    smallest does not (they are not irreducible: S is not unique), naming a stack's index.
    """
    g = np.asarray(gammas_from, dtype=complex)
    t = np.asarray(gammas_to, dtype=complex)
    member = g.shape[-3:]
    if g.ndim < 3 or member[0] != 4 or not 0 < member[1] == member[2] or t.shape[-3:] != member:
        raise ValueError(f"expected two (4, d, d) stacks of one shape, got {g.shape}, {t.shape}")
    g, t = np.broadcast_arrays(g, t)
    _refuse(np.all(np.isfinite(g), axis=(-3, -2, -1)) & np.all(np.isfinite(t), axis=(-3, -2, -1)),
            ValueError, "pauli_intertwiner requires finite gamma matrices")
    dim = g.shape[-1]
    eye = np.eye(dim)

    def intertwiners(g, t):
        # rows (a, i, p), columns (j, q): t_a[i, j] I[p, q] - I[i, j] g_a[q, p], as np.kron forms
        system = (t[:, :, :, None, :, None] * eye[:, None, :]
                  - eye[:, None, :, None] * np.swapaxes(g, -1, -2)[:, :, None, :, None, :])
        _, sv, vh = np.linalg.svd(system.reshape(-1, 4 * dim * dim, dim * dim), full_matrices=False)
        null = np.count_nonzero(sv <= 1e-8 * sv[:, :1], axis=-1)
        return vh[:, -1].conj().reshape(-1, dim, dim), null

    # a member holds the system and its SVD's U (64 d^4 B each), V^H and the singular values
    found, null = _stacked(intertwiners, g.shape[:-3], 144 * dim**4 + 8 * dim**2, g, t)
    _refuse(null > 0, ValueError, "the collections are not conjugate (no intertwiner)")
    _refuse(null < 2, ValueError,
            "the collections are not irreducible (the intertwiner is not unique)")
    return found


def _build_spin_generators() -> tuple[np.ndarray, np.ndarray]:
    g = weyl_gammas()
    m = np.array([g[2] @ g[3], g[3] @ g[1], g[1] @ g[2]])
    n = np.array([g[i] @ g[0] for i in (1, 2, 3)])
    m.flags.writeable = n.flags.writeable = False
    return m, n


#: The 4x4 rotation and boost generators of :func:`spin_generators`, built once (read-only).
SPIN_M4, SPIN_N4 = _build_spin_generators()


def spin_generators() -> tuple[np.ndarray, np.ndarray]:
    """Rotation generators M_i and boost generators N_i, each (3, 4, 4), as fresh arrays.

    M_i = (1/2) eps_ijk gamma_j gamma_k (the cyclic product), N_i =
    gamma_i gamma_0. In the chiral basis these are block diagonal:
    M_i = diag(-i s_i, -i s_i) and N_i = diag(s_i, -s_i).
    """
    return SPIN_M4.copy(), SPIN_N4.copy()


def spin_generators_2x2() -> tuple[np.ndarray, np.ndarray]:
    """The 2x2 blocks of the spin generators: m_i = -i s_i, n_i = s_i."""
    return -1j * PAULI[1:], PAULI[1:].copy()


def _commutator_residual(gen_a, gen_b, coeff, gen_c) -> float:
    """Max over i, j of |[A_i, B_j] - coeff_ijk C_k|."""
    comm = gen_a[:, None] @ gen_b[None] - gen_b[None] @ gen_a[:, None]
    return float(np.max(np.abs(comm - np.einsum("ijk,kab->ijab", coeff, gen_c))))


def check_commutator_relations() -> dict:
    """Residuals of the commutator table in both the 4x4 and 2x2 forms.

    The table is [M_i, M_j] = 2 eps_ijk M_k, [N_i, N_j] = -2 eps_ijk M_k,
    [M_i, N_j] = 2 eps_ijk N_k, and identically for the 2x2 blocks.
    """
    report = {}
    for label, (gm, gn) in (
        ("four", spin_generators()),
        ("two", spin_generators_2x2()),
    ):
        report[f"{label}_mm"] = _commutator_residual(gm, gm, 2 * LEVI_CIVITA, gm)
        report[f"{label}_nn"] = _commutator_residual(gn, gn, -2 * LEVI_CIVITA, gm)
        report[f"{label}_mn"] = _commutator_residual(gm, gn, 2 * LEVI_CIVITA, gn)
    report["max"] = float(np.max(list(report.values())))
    return report


def _even_functions(s: float) -> tuple[float, float, float, float]:
    """cosh r, sinh(r)/r, (cosh r - 1)/r^2 and (sinh(r)/r - 1)/r^2 at r = sqrt(s).

    Each is even in r, so a real function of the real s (cos and sin for
    s < 0); their values at 0 are 1, 1, 1/2 and 1/6. The third is computed
    as (1/2)(sinh(r/2)/(r/2))^2, which cannot cancel, and the last, where
    |s| < 1, as its Taylor series sum_k s^k/(2k + 3)! (twelve terms reach 1/27!).
    """
    r = cmath.sqrt(s)
    shc = (cmath.sinh(r) / r).real if r else 1.0
    half = (cmath.sinh(r / 2) / (r / 2)).real if r else 1.0
    if abs(s) < 1.0:
        tail, term = 0.0, 1.0 / 6.0
        for k in range(12):
            tail += term
            term *= s / ((2 * k + 4) * (2 * k + 5))
    else:
        tail = (shc - 1.0) / s
    return cmath.cosh(r).real, shc, 0.5 * half**2, tail


def _split(diff: float, prod: float) -> tuple[float, float]:
    """(a, b), both >= 0, with a - b = diff and a b = prod (a negative prod counts as 0).

    The larger root comes from the sum a + b = hypot(diff, 2 sqrt(prod)) and
    the smaller one as prod over it, so neither cancels.
    """
    prod = max(prod, 0.0)
    total = math.hypot(diff, 2.0 * math.sqrt(prod))
    if diff >= 0.0:
        a = (total + diff) / 2.0
        return a, prod / a if a else 0.0
    b = (total - diff) / 2.0
    return prod / b, b


def _cubic(gen: np.ndarray, gen2: np.ndarray, diff: np.ndarray, prod: np.ndarray,
           coefficients) -> np.ndarray:
    """c0 I + c1 G + c2 G^2 + c3 G^3 per member of a (n, d, d) stack, given G and G^2, with
    the scalar ``coefficients(diff, prod)`` of its invariants: its bits are its own call's."""
    coeffs = np.array([coefficients(d, p) for d, p in zip(diff.tolist(), prod.tolist())])
    c0, c1, c2, c3 = coeffs.reshape(-1, 4).T[..., None, None]
    eye = np.eye(gen.shape[-1])
    return c0 * eye + c1 * gen + gen2 @ (c2 * eye + c3 * gen)


def _spin_coefficients(diff: float, prod: float) -> tuple[float, float, float, float]:
    """exp_spin's cubic coefficients from diff = x^2 - y^2 and prod = x^2 y^2."""
    x2, y2 = _split(diff, prod)
    cx, sx, ux, tx = _even_functions(x2)
    cy, sy, uy, ty = _even_functions(-y2)
    wx, wy = (x2 / (x2 + y2), y2 / (x2 + y2)) if x2 + y2 else (0.5, 0.5)
    c2 = sx * sy / 2.0
    c3 = (wx * (ux - tx) * sy + wy * (uy - ty) * sx) / 2.0
    return cx * cy - diff * c2, wx * sx * cy + wy * cx * sy - diff * c3, c2, c3


def _lorentz_coefficients(diff: float, prod: float) -> tuple[float, float, float, float]:
    """exp_lorentz's cubic coefficients from diff = alpha^2 - beta^2 and prod = alpha^2 beta^2."""
    a2, b2 = _split(diff, prod)
    ca, sa, ua, ta = _even_functions(a2)
    cb, sb, ub, tb = _even_functions(-b2)
    wa, wb = (a2 / (a2 + b2), b2 / (a2 + b2)) if a2 + b2 else (0.5, 0.5)
    return wa * cb + wb * ca, wa * sb + wb * sa, wa * ua + wb * ub, wa * ta + wb * tb


def exp_spin(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Exponentiate (1/2)(a . M + b . N) in the 2x2 and 4x4 representations.

    ``a`` holds rotation parameters (a full turn, |a| = 2 pi, gives
    S2 = -Id: the double cover is genuinely 2-to-1), ``b`` holds boost
    rapidities. Returns (S2, S4); S4 is block diagonal with blocks S2 and
    inv(S2^dag). S2 is the closed form cosh(lam) Id + (sinh(lam)/lam) w . s with
    w = (b - i a)/2 and lam = sqrt(w . w), since (w . s)^2 = (w . w) Id (the factor is
    1 at lam = 0, and both terms are even in lam).

    S4 is an independent route, computed on the 4x4 generator G alone. G has
    eigenvalues +-lam, +-conj(lam), lam = x + i y, and two invariants give them:
    tr G^2 = 4 (x^2 - y^2) and tr G^4 = 4 Re lam^4. So S4 is the cubic in G
    that agrees with exp at those four points (Lagrange-Sylvester). With
    C, S, U, T the even functions cosh r, sinh r / r, (cosh r - 1)/r^2 and
    (S - 1)/r^2 of r^2, read at x^2 and -y^2, and weights w_x, w_y = x^2, y^2
    over x^2 + y^2 (1/2 each at lam = 0, where G is nilpotent):

        c2 = S_x S_y / 2,                 c0 = C_x C_y - (x^2 - y^2) c2,
        c3 = (w_x (U - T)_x S_y + w_y (U - T)_y S_x) / 2,
        c1 = w_x S_x C_y + w_y C_x S_y - (x^2 - y^2) c3.

    No coefficient divides by a difference of eigenvalues, so null generators
    (lam = 0, G != 0) and real or imaginary lam need no special case.
    Leading stacks of ``a`` and ``b``, (..., 3), broadcast and run in bounded chunks, each
    member with its own call's bits. A NaN or infinite parameter raises ValueError, naming
    the first such member of a stack.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    _refuse(np.all(np.isfinite(a), axis=-1) & np.all(np.isfinite(b), axis=-1), ValueError,
            "exp_spin requires finite parameters")

    def exponentials(a, b):
        w = (b - 1j * a) / 2.0
        lam = np.sqrt((w[:, None, :] @ w[:, :, None])[:, 0, 0])  # w . w, as 1-d w @ w forms it
        shc = np.divide(np.sinh(lam), lam, out=np.ones_like(lam), where=lam != 0)
        s2 = (np.cosh(lam)[:, None, None] * PAULI[0]
              + shc[:, None, None] * np.einsum("ni,iab->nab", w, PAULI[1:]))
        gen = 0.5 * (np.einsum("ni,iab->nab", a, SPIN_M4) + np.einsum("ni,iab->nab", b, SPIN_N4))
        gen2 = gen @ gen
        diff = np.trace(gen2, axis1=1, axis2=2).real / 4.0
        prod = (diff * diff - np.trace(gen2 @ gen2, axis1=1, axis2=2).real / 4.0) / 4.0
        return s2, _cubic(gen, gen2, diff, prod, _spin_coefficients)

    # a member: w, lam, S2, invariants (160 B), G, G^2, the cubic's 3 temporaries and coefficients
    return _stacked(exponentials, a.shape[:-1], 160 + 5 * 256 + 32, a, b)


def exp_lorentz(gen) -> np.ndarray:
    """exp(K) for a real so(1,3) generator K (eta K antisymmetric), in closed form.

    K has eigenvalues +-alpha and +-i beta (alpha, beta >= 0), from the two
    invariants tr K^2 = 2 (alpha^2 - beta^2) and tr K^4 = 2 (alpha^4 + beta^4).
    So exp(K) is the cubic c0 + c1 K + c2 K^2 + c3 K^3 that agrees with exp
    at the four eigenvalues (Lagrange-Sylvester). With C, S, U, T the even
    functions of ``exp_spin``'s docstring and the weights w_a, w_b = alpha^2,
    beta^2 over alpha^2 + beta^2 (1/2 each where both vanish and K is nilpotent),
    each coefficient is a weighted mean that cannot cancel:

        c0 = w_a cos beta + w_b cosh alpha,   c1 = w_a S(-beta^2) + w_b S(alpha^2),
        c2 = w_a U(alpha^2) + w_b U(-beta^2), c3 = w_a T(alpha^2) + w_b T(-beta^2).

    A leading stack of ``gen`` runs in bounded chunks, each member with its own call's
    bits. ValueError for a non-finite K and for a K outside so(1,3), naming a stack's index.
    """
    gen = np.asarray(gen, dtype=float)
    if gen.shape[-2:] != (4, 4):
        raise ValueError("exp_lorentz needs a finite 4x4 generator")
    _refuse(np.all(np.isfinite(gen), axis=(-2, -1)), ValueError,
            "exp_lorentz needs a finite 4x4 generator")
    gap = np.max(np.abs(ETA @ gen + np.swapaxes(ETA @ gen, -1, -2)), axis=(-2, -1))
    _refuse(gap <= 1e-12 * np.maximum(1.0, np.max(np.abs(gen), axis=(-2, -1))),
            ValueError, "exp_lorentz needs eta K antisymmetric (a generator of so(1,3))")

    def exponentials(gen):
        gen2 = gen @ gen
        diff = np.trace(gen2, axis1=1, axis2=2) / 2.0
        prod = (np.trace(gen2 @ gen2, axis1=1, axis2=2) / 2.0 - diff * diff) / 2.0
        return _cubic(gen, gen2, diff, prod, _lorentz_coefficients)

    # a member: G^2, three 4x4 real temporaries of the cubic (one is exp K) and six floats
    return _stacked(exponentials, gen.shape[:-2], 4 * 128 + 48, gen)


def _refuse(ok: np.ndarray, exc: type[Exception], message: str, value=None) -> None:
    """Raise ``exc`` at the first False i of ``ok`` (with value[i]), naming i in a stack."""
    if not np.all(ok):
        i = np.unravel_index(np.argmin(ok), np.shape(ok))
        text = message.format(None if value is None else value[i])
        raise exc(text + (f" at index {', '.join(map(str, i))}" if i else ""))


def _require_unimodular(s2: np.ndarray) -> None:
    """Raise NotUnimodular unless |det S - 1| <= DEFAULT_TOL for S or every member of a stack."""
    # det of a NaN/inf member, or one whose det leaves the float range (read off its ray,
    # 2^s S, as det(2^s S) 4^-s), would warn: I stands in for it, and its det reads NaN or inf
    finite = np.all(np.isfinite(s2), axis=(-2, -1))
    s2 = np.where(finite[..., None, None], s2, np.eye(2))
    shift = 1 - _exponent(s2, 2)
    ray_det = np.linalg.det(_ldexp(s2, shift, 2))
    fits = (ray_det == 0) | (_exponent(ray_det, 0) - 2 * shift <= 1024)
    det = np.linalg.det(np.where(fits[..., None, None], s2, np.eye(2)))
    det = np.where(finite, np.where(fits, det, np.inf), np.nan)
    _refuse(np.abs(det - 1.0) <= DEFAULT_TOL, NotUnimodular, "det = {}, expected 1", det)


def covering_lambda(s2: np.ndarray) -> np.ndarray:
    """Restricted Lorentz matrices of H -> S H S^dag for one S or a (..., 2, 2) stack.

    Entry (a, b) is (1/2) tr(s_a S s_b S^dag), so the (..., 4, 4) result is the
    Kronecker form (1/2) conj(P) (S kron conj(S)) P^T, row a of P being s_a read
    row-major; S and -S give the same matrix. The product is formed on the ray of S
    and scaled back exactly, so no step leaves the float range before lam does.
    det S = 1 fixes the component, as det lam = |det S|^4 and lam[0, 0] = |S|_F^2 / 2 >=
    |det S|, so lam's one test is its metric gap, the formula's round-off, at most DEFAULT_TOL
    max(1, max|lam|^2). Raises NotUnimodular when |det S - 1| exceeds DEFAULT_TOL (NaN and inf
    fail closed, a det past the float range reads inf), OverflowError when lam leaves the float
    range, InvariantViolation when the coefficients come out complex or the gap passes its
    bound (each naming a stack's first failing index), and ValueError for a shape not ending
    in (2, 2).
    """
    s2 = np.asarray(s2, dtype=complex)
    if s2.shape[-2:] != (2, 2):
        raise ValueError(f"expected shape (..., 2, 2), got {s2.shape}")
    _require_unimodular(s2)
    # S read as its ray, 2^s S with a largest part in [1, 2): its Kronecker square cannot
    # overflow, and the coefficients come out scaled by exactly 4^s
    shift = 1 - _exponent(s2, 2)
    unit = _ldexp(s2, shift, 2)
    kron = unit[..., :, None, :, None] * unit.conj()[..., None, :, None, :]
    rows = PAULI.reshape(4, 4)
    coeff = rows.conj() @ kron.reshape(s2.shape[:-2] + (4, 4)) @ rows.T / 2.0
    _refuse(_exponent(coeff, 2) - 2 * shift <= 1024, OverflowError,
            "the Lorentz image of S leaves the float range")
    coeff = _ldexp(coeff, -2 * shift, 2)
    # S s_b S^dag is Hermitian for any S, so the Pauli coefficients are real.
    imag = np.max(np.abs(coeff.imag), axis=(-2, -1))
    _refuse(imag < 1e-10, InvariantViolation, "complex Pauli coefficients (imag {:.3e})", imag)
    lam = coeff.real
    gap, one, peak = _metric_gap(lam)
    _refuse(gap <= DEFAULT_TOL * np.maximum(one, peak), InvariantViolation,
            "covering output left the restricted group")
    return lam

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

import itertools

import numpy as np
from scipy.linalg import expm

from .minkowski import DEFAULT_TOL, ETA, _restricted

PAULI = np.array(
    [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)

_INTERTWINER_TRIES = 8


class NotUnimodular(ValueError):
    """Raised when a 2x2 matrix fed to the covering map has det != 1."""


class SingularIntertwiner(RuntimeError):
    """Raised when no invertible intertwiner candidate is found."""


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
    """Standard-basis gamma matrices (diagonal gamma0), shape (4, 4, 4)."""
    gammas = np.zeros((4, 4, 4), dtype=complex)
    gammas[0, :2, :2] = PAULI[0]
    gammas[0, 2:, 2:] = -PAULI[0]
    for i in (1, 2, 3):
        gammas[i, :2, 2:] = PAULI[i]
        gammas[i, 2:, :2] = -PAULI[i]
    return gammas


def dirac_collection_check(gammas: np.ndarray) -> float:
    """Max deviation of the anticommutators from 2 eta_ab Id."""
    gammas = np.asarray(gammas, dtype=complex)
    prod = np.einsum("aij,bjk->abik", gammas, gammas)
    target = 2.0 * ETA[:, :, None, None] * np.eye(gammas.shape[1])
    return float(np.max(np.abs(prod + prod.transpose(1, 0, 2, 3) - target)))


def clifford_basis_monomials(gammas: np.ndarray) -> np.ndarray:
    """The 16 ordered products gamma_{a1} ... gamma_{ar}, a1 < ... < ar.

    Subsets of {0, 1, 2, 3} are enumerated by bitmask; the empty product is
    the identity. For an irreducible collection these span the full matrix
    algebra, which is what makes the averaging construction in
    :func:`pauli_intertwiner` work.
    """
    gammas = np.asarray(gammas, dtype=complex)
    dim = gammas.shape[1]
    out = np.empty((16, dim, dim), dtype=complex)
    for mask in range(16):
        prod = np.eye(dim, dtype=complex)
        for a in range(4):
            if mask & (1 << a):
                prod = prod @ gammas[a]
        out[mask] = prod
    return out


def pauli_intertwiner(
    gammas_from: np.ndarray,
    gammas_to: np.ndarray,
    seed: int = 0,
) -> np.ndarray:
    """Invertible S with gammas_to[a] = S @ gammas_from[a] @ inv(S).

    Averages a random matrix F over the 16 basis monomials,
    S = sum_A m'_A F inv(m_A); the sum commutes with the two actions by
    construction, so any invertible candidate intertwines. Singular
    candidates are retried with fresh F up to 8 times. The seed is explicit
    so concurrent callers stay deterministic.
    """
    gammas_to = np.asarray(gammas_to, dtype=complex)
    mono_from = clifford_basis_monomials(gammas_from)
    mono_to = clifford_basis_monomials(gammas_to)
    inv_from = np.array([np.linalg.inv(m) for m in mono_from])
    rng = np.random.default_rng(seed)
    dim = mono_from.shape[1]
    for _ in range(_INTERTWINER_TRIES):
        f = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        cand = np.einsum("aij,jk,akl->il", mono_to, f, inv_from)
        sv = np.linalg.svd(cand, compute_uv=False)
        if sv[-1] > 1e-10 * sv[0]:
            # the averaging argument assumes genuine Clifford collections on
            # both sides; verify rather than hand back an arbitrary matrix
            conjugated = np.einsum("ij,ajk,kl->ail", cand, gammas_from, np.linalg.inv(cand))
            gap = float(np.max(np.abs(conjugated - gammas_to)))
            scale = max(float(np.max(np.abs(gammas_to))), 1.0)
            if gap > 1e-8 * scale:
                raise ValueError(
                    "candidate does not intertwine; the inputs are not "
                    "conjugate gamma collections"
                )
            return cand
    raise SingularIntertwiner(f"no invertible candidate after {_INTERTWINER_TRIES} tries")


def spin_generators() -> tuple[np.ndarray, np.ndarray]:
    """Rotation generators M_i and boost generators N_i, each (3, 4, 4).

    M_i = (1/2) eps_ijk gamma_j gamma_k (the cyclic product), N_i =
    gamma_i gamma_0. In the chiral basis these are block diagonal:
    M_i = diag(-i s_i, -i s_i) and N_i = diag(s_i, -s_i).
    """
    g = weyl_gammas()
    m = np.array([g[2] @ g[3], g[3] @ g[1], g[1] @ g[2]])
    n = np.array([g[i] @ g[0] for i in (1, 2, 3)])
    return m, n


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
    eps = np.zeros((3, 3, 3))
    for i, j, k in itertools.permutations(range(3)):
        eps[i, j, k] = np.linalg.det(np.eye(3)[[i, j, k]])
    report = {}
    for label, (gm, gn) in (
        ("four", spin_generators()),
        ("two", spin_generators_2x2()),
    ):
        report[f"{label}_mm"] = _commutator_residual(gm, gm, 2 * eps, gm)
        report[f"{label}_nn"] = _commutator_residual(gn, gn, -2 * eps, gm)
        report[f"{label}_mn"] = _commutator_residual(gm, gn, 2 * eps, gn)
    report["max"] = float(np.max(list(report.values())))
    return report


def exp_spin(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Exponentiate (1/2)(a . M + b . N) in the 2x2 and 4x4 representations.

    ``a`` holds rotation parameters (a full turn, |a| = 2 pi, gives
    S2 = -Id: the double cover is genuinely 2-to-1), ``b`` holds boost
    rapidities. Returns (S2, S4); S4 is block diagonal with blocks S2 and
    inv(S2^dag). S2 is the closed form cosh(lam) Id + (sinh(lam)/lam) w . s with
    w = (b - i a)/2 and lam = sqrt(w . w), since (w . s)^2 = (w . w) Id (the factor is
    1 at lam = 0, and both terms are even in lam); S4 is ``expm``, an independent route.
    A NaN or infinite parameter raises ValueError.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("exp_spin requires finite parameters")
    w = (b - 1j * a) / 2.0
    lam = np.sqrt(w @ w)
    shc = np.sinh(lam) / lam if lam != 0 else 1.0
    m4, n4 = spin_generators()
    gen4 = 0.5 * (np.einsum("i,iab->ab", a, m4) + np.einsum("i,iab->ab", b, n4))
    s2 = np.cosh(lam) * PAULI[0] + shc * np.einsum("i,iab->ab", w, PAULI[1:])
    return s2, expm(gen4)


def _refuse(ok: np.ndarray, exc: type[Exception], message: str, value=None) -> None:
    """Raise ``exc`` at the first False i of ``ok`` (with value[i]), naming i in a stack."""
    if not np.all(ok):
        i = np.unravel_index(np.argmin(ok), np.shape(ok))
        text = message.format(None if value is None else value[i])
        raise exc(text + (f" at index {', '.join(map(str, i))}" if i else ""))


def covering_lambda(s2: np.ndarray) -> np.ndarray:
    """Restricted Lorentz matrices of H -> S H S^dag for one S or a (..., 2, 2) stack.

    Entry (a, b) is (1/2) tr(s_a S s_b S^dag), so the (..., 4, 4) result is the
    Kronecker form (1/2) conj(P) (S kron conj(S)) P^T, row a of P being s_a read
    row-major; S and -S give the same matrix. Raises NotUnimodular when |det S - 1|
    exceeds DEFAULT_TOL (NaN and inf fail closed), InvariantViolation when the
    coefficients come out complex or a result fails the restricted-group test (each
    naming a stack's first failing index), and ValueError for a shape not ending in (2, 2).
    """
    s2 = np.asarray(s2, dtype=complex)
    if s2.shape[-2:] != (2, 2):
        raise ValueError(f"expected shape (..., 2, 2), got {s2.shape}")
    det = np.linalg.det(s2)
    _refuse(np.abs(det - 1.0) <= DEFAULT_TOL, NotUnimodular, "det = {}, expected 1", det)
    kron = s2[..., :, None, :, None] * s2.conj()[..., None, :, None, :]
    rows = PAULI.reshape(4, 4)
    coeff = rows.conj() @ kron.reshape(s2.shape[:-2] + (4, 4)) @ rows.T / 2.0
    # S s_b S^dag is Hermitian for any S, so the Pauli coefficients are real.
    imag = np.max(np.abs(coeff.imag), axis=(-2, -1))
    _refuse(imag < 1e-10, InvariantViolation, "complex Pauli coefficients (imag {:.3e})", imag)
    lam = coeff.real
    _refuse(_restricted(lam), InvariantViolation, "covering output left the restricted group")
    return lam

"""Twisted Dirac fibers: symbols, adjoints, and signature diagnostics.

A fiber element of type (k, l) has two sectors

    phi1: one undotted-upper chiral axis, then k undotted-upper and
          l dotted-lower twist axes (symmetric within each group)
    phi2: one dotted-lower chiral axis, then the same twist axes

The principal symbol acts on the chiral axes only and swaps the sectors;
contracting with sqrt(2) sigma = Pauli matrices makes its square exactly
eta(xi, xi) times the identity. The generalized pairing conjugates the
first argument, which swaps the roles of the two twist groups; for k = l
that closes up into a sesquilinear form which is Hermitian but indefinite
once k >= 2 (and already for k = 1).

Packed coordinates: symmetric tensors are stored by occupation count, in
the order sector (phi1, phi2) x chiral (0, 1) x undotted occupation x
dotted occupation, all ascending. One slot map gives every index of a
sector block its slot, (c (k+1) + ones among the k undotted axes) (l+1) +
ones among the l dotted axes, so the basis vector of a slot is the
indicator of its whole permutation orbit. Unpacking gathers each index's
coordinate through the map, and packing reads each slot's first
row-major index, the sorted representative; unpacking is the right
inverse of packing on symmetric tensors.

In that basis both fiber operators are Kronecker products of a 4 x 4
sector-chiral factor and a twist factor. The symbol is the identity on the
twist slots, symbol_matrix(k, l, xi) = kron(G(xi), I_{(k+1)(l+1)}) with G
the k = l = 0 symbol, which is Clifford multiplication xi^a gamma_a in the
chiral basis; the pairing is kron(P_0, W_k), where P_0 swaps the
sectors and W_k[(a, b), (b, a)] = C(k, a) C(k, b) swaps the twist
occupations, weighted by the orbit sizes. Both are built from these closed
forms; the tensor-level apply_symbol and gen_pairing stay as the
independent reference that the closed forms are checked against.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .clifford import PAULI, InvariantViolation, weyl_gammas
from .minkowski import LorentzVector, basis_vector, classify_causal, metric_eval
from .spinor_core import (
    DOTTED_LOW,
    DOTTED_UP,
    UNDOTTED_UP,
    Spinor,
    raise_lower,
    sym_dimension,
    symmetrize,
)


# read-only chiral-basis gammas that symbol_matrix contracts with xi^a
_GAMMAS = weyl_gammas()
_GAMMAS.flags.writeable = False


class KNotEqualL(ValueError):
    """Raised when an operation needs matching twist ranks k = l."""


class NotTimelikeFuture(ValueError):
    """Raised when a direction vector is not timelike future-pointing."""


class NoNegativeDirection(RuntimeError):
    """Raised when a negative Gram direction is requested but absent."""


@dataclass(frozen=True)
class DiracSpinor:
    """Plain 4-component spinor split into its two chiral halves."""

    psi1: np.ndarray
    psi2: np.ndarray

    def __post_init__(self) -> None:
        p1 = np.asarray(self.psi1, dtype=complex)
        p2 = np.asarray(self.psi2, dtype=complex)
        if p1.shape != (2,) or p2.shape != (2,):
            raise ValueError("each chiral half must have exactly 2 components")
        object.__setattr__(self, "psi1", p1)
        object.__setattr__(self, "psi2", p2)

    def as_higher(self) -> "HigherSpinVector":
        return HigherSpinVector(
            0,
            0,
            Spinor(self.psi1, (UNDOTTED_UP,)),
            Spinor(self.psi2, (DOTTED_LOW,)),
        )


def _phi1_tags(k: int, l: int) -> tuple[str, ...]:
    return (UNDOTTED_UP,) + (UNDOTTED_UP,) * k + (DOTTED_LOW,) * l


def _phi2_tags(k: int, l: int) -> tuple[str, ...]:
    return (DOTTED_LOW,) + (UNDOTTED_UP,) * k + (DOTTED_LOW,) * l


def _symmetry_residual(block: Spinor, k: int, l: int) -> float:
    """Max |Sym(block) - block| over the twist groups of two or more axes."""
    groups = [axes for axes in (range(1, k + 1), range(k + 1, k + 1 + l)) if len(axes) >= 2]
    gaps = [np.max(np.abs(symmetrize(block, tuple(axes)).data - block.data)) for axes in groups]
    return float(np.max(gaps, initial=0.0))


@dataclass(frozen=True)
class HigherSpinVector:
    """One fiber element of twist type (k, l)."""

    k: int
    l: int
    phi1: Spinor
    phi2: Spinor

    def __post_init__(self) -> None:
        k, l = self.k, self.l
        sym_dimension(k, l)  # refuses a negative rank
        if self.phi1.tags != _phi1_tags(k, l):
            raise ValueError(f"phi1 tags {self.phi1.tags} do not match type ({k},{l})")
        if self.phi2.tags != _phi2_tags(k, l):
            raise ValueError(f"phi2 tags {self.phi2.tags} do not match type ({k},{l})")
        # np.max keeps a NaN entry in the scale, so a NaN or inf block is refused
        # here at every (k, l), before symmetrize meets it (inf - inf warns)
        scale = np.max([np.max(np.abs(self.phi1.data)), np.max(np.abs(self.phi2.data)), 1e-30])
        if not np.isfinite(scale):
            raise ValueError(f"a block is not finite (scale {scale})")
        worst = np.max([_symmetry_residual(self.phi1, k, l), _symmetry_residual(self.phi2, k, l)])
        if not worst <= 1e-10 * scale:
            raise ValueError("twist axes are not symmetric "
                             f"(residual {worst:.3e}, scale {scale:.3e})")

    def __mul__(self, scalar: complex) -> "HigherSpinVector":
        return HigherSpinVector(
            self.k,
            self.l,
            Spinor(self.phi1.data * scalar, self.phi1.tags),
            Spinor(self.phi2.data * scalar, self.phi2.tags),
        )

    __rmul__ = __mul__


def fiber_dim(k: int, l: int) -> int:
    """Packed dimension: 2 sectors x 2 chiral x (k+1)(l+1) twist slots.

    Every fiber operator sizes itself through this, so sym_dimension refuses
    a negative or non-integral twist rank with ValueError.
    """
    return 4 * sym_dimension(k, l)


def _slots(k: int, l: int) -> np.ndarray:
    """Packed slot of every index of one sector block, shape (2,) * (1 + k + l).

    Index (c, undotted..., dotted...) lies in slot
    (c (k+1) + ones among the undotted axes) (l+1) + ones among the dotted
    axes, the position of its permutation orbit within the sector.
    """
    idx = np.indices((2,) * (1 + k + l))
    return (idx[0] * (k + 1) + idx[1:k + 1].sum(axis=0)) * (l + 1) + idx[k + 1:].sum(axis=0)


def pack(phi: HigherSpinVector) -> np.ndarray:
    """Packed coordinates of a fiber element (reads sorted representatives).

    A slot's first row-major index is its sorted representative: zeros
    before ones is the smallest index of each orbit.
    """
    _, first = np.unique(_slots(phi.k, phi.l), return_index=True)
    return np.concatenate([phi.phi1.data.ravel()[first], phi.phi2.data.ravel()[first]])


def unpack(vec: np.ndarray, k: int, l: int) -> HigherSpinVector:
    """Right inverse of :func:`pack`: every index takes its slot's coordinate."""
    vec = np.asarray(vec, dtype=complex)
    if vec.shape != (fiber_dim(k, l),):
        raise ValueError(f"expected {fiber_dim(k, l)} coordinates, got {vec.shape}")
    slots, half = _slots(k, l), fiber_dim(k, l) // 2
    return HigherSpinVector(
        k,
        l,
        Spinor(vec[:half][slots], _phi1_tags(k, l)),
        Spinor(vec[half:][slots], _phi2_tags(k, l)),
    )


def apply_symbol(xi: LorentzVector, phi: HigherSpinVector) -> HigherSpinVector:
    """Principal symbol action s(xi) on a fiber element.

    Requires covariant xi. The new phi1 is sqrt(2) xi^{A X} (phi2)_X, the
    new phi2 is sqrt(2) xi_{X A} (phi1)^A, with both epsilon lowerings done
    by the tensor engine; twist axes are untouched. The square of this
    action is eta(xi, xi) times the identity.
    """
    if not xi.covariant:
        raise ValueError("apply_symbol expects a covariant direction; use .lowered()")
    up = xi.raised().components
    xi_up = Spinor(np.einsum("a,aij->ij", up, PAULI), (UNDOTTED_UP, DOTTED_UP))
    xi_dn = raise_lower(raise_lower(xi_up, 0), 1)
    # phi1' ^A = xi_up[A, X] (phi2)_X ; contraction over the chiral axes only
    new1 = np.tensordot(xi_up.data, phi.phi2.data, axes=([1], [0]))
    # phi2' _X = xi_dn[A, X] (phi1)^A
    new2 = np.tensordot(xi_dn.data, phi.phi1.data, axes=([0], [0]))
    return HigherSpinVector(
        phi.k,
        phi.l,
        Spinor(new1, phi.phi1.tags),
        Spinor(new2, phi.phi2.tags),
    )


def symbol_matrix(k: int, l: int, xi: LorentzVector) -> np.ndarray:
    """Packed matrix of s(xi): kron(xi^a gamma_a, I), Clifford multiplication.

    On the chiral slots of a (0, 0) fiber the symbol is the chiral-basis
    gamma matrix of xi; it contracts those slots only, so it is the identity
    on the (k+1)(l+1) twist slots. Built independently of apply_symbol's
    epsilon lowering, which checks it. Returns a fresh array on every call.
    """
    chiral = np.einsum("a,aij->ij", xi.raised().components, _GAMMAS)
    return np.kron(chiral, np.eye(fiber_dim(k, l) // 4))


def _unit_fibers(k: int, l: int) -> list[HigherSpinVector]:
    return [unpack(unit, k, l) for unit in np.eye(fiber_dim(k, l), dtype=complex)]


def _symbol_matrix_reference(k: int, l: int, xi: LorentzVector) -> np.ndarray:
    """symbol_matrix built column by column through the tensor engine."""
    xi_low = xi.lowered()
    return np.stack([pack(apply_symbol(xi_low, phi)) for phi in _unit_fibers(k, l)], axis=1)


def dirac_adjoint(psi: DiracSpinor):
    """Dual functional phi -> conj(psi2) . phi1 + conj(psi1) . phi2."""

    def functional(phi: DiracSpinor) -> complex:
        return complex(
            np.dot(np.conj(psi.psi2), phi.psi1) + np.dot(np.conj(psi.psi1), phi.psi2)
        )

    return functional


def _pairing_axes(k: int) -> tuple[list[int], list[int]]:
    # first argument (conjugated): chiral, then its dotted-up group (the
    # conjugated undotted twist), then its undotted-low group; the partner
    # pairs those against chiral, its dotted-low group, its undotted-up group
    axes_a = list(range(2 * k + 1))
    axes_b = [0] + list(range(k + 1, 2 * k + 1)) + list(range(1, k + 1))
    return axes_a, axes_b


def gen_pairing(phi: HigherSpinVector, psi: HigherSpinVector) -> complex:
    """Generalized Dirac pairing <phi, psi>, antilinear in the first slot.

    Conjugation swaps the twist groups, so the conjugated undotted group of
    ``phi`` (now dotted-upper) contracts against the dotted-lower group of
    ``psi`` and vice versa. Only defined for k = l; reduces at k = 0 to the
    usual pairing through gamma0. Hermitian: conj of the result is the
    pairing with the arguments exchanged.
    """
    if phi.k != phi.l or psi.k != psi.l or phi.k != psi.k:
        raise KNotEqualL("generalized pairing needs matching twist ranks k = l")
    k = phi.k
    axes_a, axes_b = _pairing_axes(k)
    term1 = np.tensordot(np.conj(phi.phi2.data), psi.phi1.data, axes=(axes_a, axes_b))
    term2 = np.tensordot(np.conj(phi.phi1.data), psi.phi2.data, axes=(axes_a, axes_b))
    return complex(term1 + term2)


def gen_dirac_adjoint(phi: HigherSpinVector):
    """Dual functional psi -> <phi, psi> of the generalized pairing."""
    if phi.k != phi.l:
        raise KNotEqualL("generalized adjoint needs k = l")

    def functional(psi: HigherSpinVector) -> complex:
        return gen_pairing(phi, psi)

    return functional


def pairing_matrix(k: int) -> np.ndarray:
    """Gram matrix P of the generalized pairing in the packed basis.

    P = kron(P_0, W_k): P_0 pairs each sector with the other on the same
    chiral slot, and W_k pairs twist occupation (a, b) with (b, a), weighted
    by the orbit sizes C(k, a) C(k, b). Returns a fresh array on every call.
    """
    slots, n = fiber_dim(k, k) // 4, k + 1
    # the largest weight, checked first: the k + 1 exact binomials take seconds at k ~ 10^4
    if math.comb(k, k // 2) > sys.float_info.max:
        raise ValueError(f"the pairing weight C({k}, {k // 2}) exceeds the float range")
    orbit = np.array([math.comb(k, a) for a in range(n)], dtype=float)
    a, b = np.indices((n, n))
    twist = np.zeros((n, n, n, n), dtype=complex)
    twist[a, b, b, a] = np.outer(orbit, orbit)
    sectors = np.kron([[0.0, 1.0], [1.0, 0.0]], np.eye(2))
    return np.kron(sectors, twist.reshape(slots, slots))


def _pairing_matrix_reference(k: int) -> np.ndarray:
    """pairing_matrix built entry by entry through gen_pairing."""
    basis = _unit_fibers(k, k)
    return np.array([[gen_pairing(phi, psi) for psi in basis] for phi in basis])


def closed_form_residual(k: int, l: int, directions: list[LorentzVector]) -> float:
    """Max |closed form - tensor-engine reference| of the packed operators.

    Compares symbol_matrix at each direction and, when k = l, pairing_matrix
    against their builds through apply_symbol and gen_pairing.
    """
    gaps = [symbol_matrix(k, l, xi) - _symbol_matrix_reference(k, l, xi) for xi in directions]
    if k == l:
        gaps.append(pairing_matrix(k) - _pairing_matrix_reference(k))
    return float(np.max([np.max(np.abs(gap)) for gap in gaps]))


def xi_form(phi: HigherSpinVector, psi: HigherSpinVector, xi: LorentzVector) -> complex:
    """The direction-dependent form (phi, psi)_xi = <phi, s(xi) psi>."""
    return gen_pairing(phi, apply_symbol(xi.lowered(), psi))


def check_prenormal_factorization(
    xi: LorentzVector, mass: float, k: int, l: int
) -> float:
    """Max residual of (s(xi) + m)(s(xi) - m) = (eta(xi,xi) - m^2) Id.

    The cross terms cancel identically, so this is the Clifford-square
    identity shifted by the mass; the mass parameter is kept to make the
    factorized form explicit.
    """
    xi_low = xi.lowered()
    gam = symbol_matrix(k, l, xi_low)
    dim = fiber_dim(k, l)
    eye = np.eye(dim)
    q = metric_eval(xi_low, xi_low)
    lhs = (gam + mass * eye) @ (gam - mass * eye)
    return float(np.max(np.abs(lhs - (q - mass**2) * eye)))


def _require_timelike_future(xi: LorentzVector) -> LorentzVector:
    xi_low = xi.lowered()
    cls, orient = classify_causal(xi_low)
    if cls != "timelike" or orient != "future":
        raise NotTimelikeFuture(f"direction is ({cls}, {orient}), need timelike future")
    return xi_low


def gram_matrix(k: int, xi: LorentzVector) -> np.ndarray:
    """Hermitian matrix of (., .)_xi on the packed basis of type (k, k)."""
    mat = pairing_matrix(k) @ symbol_matrix(k, k, xi.lowered())
    herm_gap = float(np.max(np.abs(mat - mat.conj().T)))
    scale = max(float(np.max(np.abs(mat))), 1e-30)
    if not herm_gap <= 1e-10 * scale:
        raise InvariantViolation(f"xi-form Gram not Hermitian (gap {herm_gap:.3e})")
    return 0.5 * (mat + mat.conj().T)


def gram_signature(
    k: int,
    xi: LorentzVector | None = None,
    require_future: bool = True,
) -> tuple[int, int, int]:
    """Signature (n_plus, n_minus, n_zero) of the xi-form on type (k, k).

    ``xi`` defaults to the covariant time direction. The public contract
    wants timelike future-pointing xi; ``require_future=False`` lets tests
    evaluate past-pointing directions deliberately. Eigenvalues within
    1e-10 times the spectral radius count as zero.
    """
    if xi is None:
        xi = basis_vector(0, covariant=True)
    if require_future:
        xi = _require_timelike_future(xi)
    eig = np.linalg.eigvalsh(gram_matrix(k, xi))
    tol = 1e-10 * max(float(np.max(np.abs(eig))), 1e-30)
    n_plus = int(np.sum(eig > tol))
    n_minus = int(np.sum(eig < -tol))
    return n_plus, n_minus, len(eig) - n_plus - n_minus


def witness_pair(
    k: int, xi: LorentzVector | None = None
) -> tuple[tuple[HigherSpinVector, float], tuple[HigherSpinVector, float]]:
    """Unit fiber elements with certified positive and negative xi-form.

    The candidates are extreme eigenvectors of the Gram matrix; each value
    is re-evaluated through the tensor-level xi_form, so the certificate
    does not depend on the packed route. Raises NoNegativeDirection when
    the form has no negative direction (as for k = 0 or 1-sided cases).
    """
    if xi is None:
        xi = basis_vector(0, covariant=True)
    xi = _require_timelike_future(xi)
    gram = gram_matrix(k, xi)
    eig, vec = np.linalg.eigh(gram)
    tol = 1e-10 * max(float(np.max(np.abs(eig))), 1e-30)
    if eig[-1] <= tol:
        raise NoNegativeDirection("form has no positive direction either; degenerate")
    plus = unpack(vec[:, -1], k, k)
    q_plus = xi_form(plus, plus, xi).real
    if not q_plus > 0:
        raise InvariantViolation(f"positive witness failed certification ({q_plus:.3e})")
    if eig[0] >= -tol:
        raise NoNegativeDirection(f"smallest eigenvalue {eig[0]:.3e} is not negative")
    minus = unpack(vec[:, 0], k, k)
    q_minus = xi_form(minus, minus, xi).real
    if not q_minus < 0:
        raise InvariantViolation(f"negative witness failed certification ({q_minus:.3e})")
    return (plus, q_plus), (minus, q_minus)


def twisted_positivity_check(form: np.ndarray) -> bool:
    """Whether the Dirac form tensor a twist-factor form is positive definite.

    ``form`` is the Hermitian Gram matrix of the twist factor; the Dirac
    factor is the time-direction form at k = 0 (computed, not assumed).
    Positivity of the product form holds exactly when ``form`` itself is
    positive definite. The product counts as positive definite when its
    smallest eigenvalue exceeds 1e-12 times its spectral radius.
    """
    form = np.asarray(form, dtype=complex)
    if form.ndim != 2 or form.shape[0] != form.shape[1]:
        raise ValueError("form must be a square matrix")
    if form.shape[0] == 0:
        return True
    # a NaN/inf form skips the gap, where inf - inf would warn, and fails closed
    gap = float(np.max(np.abs(form - form.conj().T))) if np.all(np.isfinite(form)) else np.nan
    scale = max(float(np.max(np.abs(form))), 1e-30)
    if not gap <= 1e-10 * scale:
        raise ValueError("form must be finite and Hermitian")
    dirac_gram = gram_matrix(0, basis_vector(0, covariant=True))
    total = np.kron(dirac_gram, 0.5 * (form + form.conj().T))
    eig = np.linalg.eigvalsh(total)
    tol = 1e-12 * max(float(np.max(np.abs(eig))), 1e-30)
    return bool(eig[0] > tol)


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
occupations, weighted by the orbit sizes. P and the basis-axis symbols have
one nonzero per row and are handed out as column maps, u[..., cols] * w ==
u @ M.T: P is built from pairing_columns, and symbol_columns lifts G(e^a).
The tensor-level apply_symbol and gen_pairing stay as the independent
reference that the closed forms are checked against.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .clifford import PAULI, InvariantViolation, _refuse, weyl_gammas
from .minkowski import ETA_DIAG, LorentzVector, _ray, _stacked, basis_vector, classify_causal
from .spinor_core import (
    DOTTED_LOW,
    DOTTED_UP,
    UNDOTTED_UP,
    Spinor,
    raise_lower,
    sym_dimension,
    symmetrize,  # unused; perfbench's tracer test checks this binding (ROADMAP item 8)
)


# read-only chiral-basis gammas that symbol_matrix contracts with xi^a
_GAMMAS = weyl_gammas()
_GAMMAS.flags.writeable = False

# read-only Pauli matrices s^a_{A X}, both axes lowered with epsilon by the tensor engine;
# xi^a times them is apply_symbol's xi_{A X}
_PAULI_LOW = np.array([raise_lower(raise_lower(Spinor(s, (UNDOTTED_UP, DOTTED_UP)), 0), 1).data
                       for s in PAULI])
_PAULI_LOW.flags.writeable = False

_NOT_HERMITIAN = "xi-form Gram not Hermitian (gap {:.3e})"


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
        # here at every (k, l), before the orbit gaps meet it (inf - inf warns)
        scale = np.max([np.max(np.abs(self.phi1.data)), np.max(np.abs(self.phi2.data)), 1e-30])
        if not np.isfinite(scale):
            raise ValueError(f"a block is not finite (scale {scale})")
        # symmetric within each twist group is constant on each slot's orbit
        slots, first = _orbits(k, l)
        blocks = (self.phi1.data, self.phi2.data)
        worst = max(np.max(np.abs(b - b.ravel()[first][slots])) for b in blocks)
        if not worst <= 1e-10 * scale:
            raise ValueError("twist axes are not symmetric "
                             f"(residual {worst:.3e}, scale {scale:.3e})")


def fiber_dim(k: int, l: int) -> int:
    """Packed dimension: 2 sectors x 2 chiral x (k+1)(l+1) twist slots.

    Every fiber operator sizes itself through this, so sym_dimension refuses
    a negative or non-integral twist rank with ValueError.
    """
    return 4 * sym_dimension(k, l)


def _orbits(k: int, l: int) -> tuple[np.ndarray, np.ndarray]:
    """(slots, first): the packed slot of every index of one sector block, shape
    (2,) * (1 + k + l), and each slot's first row-major index.

    Index (c, undotted..., dotted...) lies in slot
    (c (k+1) + ones among the undotted axes) (l+1) + ones among the dotted
    axes, the position of its permutation orbit within the sector; the ones are
    counted off the bits of the row-major index. A slot's first row-major index
    is its sorted representative, zeros before ones, so slot (c, a, b) starts at
    (c 2^k + 2^a - 1) 2^l + 2^b - 1.
    """
    index = np.arange(2 ** (1 + k + l))
    undotted = np.bitwise_count(index >> l & (2**k - 1))
    dotted = np.bitwise_count(index & (2**l - 1))
    slots = ((index >> (k + l)) * (k + 1) + undotted) * (l + 1) + dotted
    first = ((np.array([0, 2**k])[:, None, None] + 2 ** np.arange(k + 1)[:, None] - 1) * 2**l
             + 2 ** np.arange(l + 1) - 1)
    return slots.reshape((2,) * (1 + k + l)), first.ravel()


def pack(phi: HigherSpinVector) -> np.ndarray:
    """Packed coordinates of a fiber element (reads sorted representatives)."""
    return _packed(phi.phi1.data, phi.phi2.data, phi.k, phi.l)


def _packed(phi1: np.ndarray, phi2: np.ndarray, k: int, l: int) -> np.ndarray:
    """Packed coordinates (..., F) of sector blocks with any leading stack."""
    first, rank = _orbits(k, l)[1], 1 + k + l
    return np.concatenate([b.reshape(b.shape[:b.ndim - rank] + (-1,))[..., first]
                           for b in (phi1, phi2)], axis=-1)


def unpack(vec: np.ndarray, k: int, l: int) -> HigherSpinVector:
    """Right inverse of :func:`pack`: every index takes its slot's coordinate."""
    vec = np.asarray(vec, dtype=complex)
    if vec.shape != (fiber_dim(k, l),):
        raise ValueError(f"expected {fiber_dim(k, l)} coordinates, got {vec.shape}")
    phi1, phi2 = _sector_blocks(vec, k, l)
    return HigherSpinVector(k, l, Spinor(phi1, _phi1_tags(k, l)), Spinor(phi2, _phi2_tags(k, l)))


def _sector_blocks(vec: np.ndarray, k: int, l: int) -> tuple[np.ndarray, np.ndarray]:
    """The two sector blocks of packed coordinates (..., F), each (...,) + (2,) * (1 + k + l):
    every index takes its slot's coordinate."""
    slots, half = _orbits(k, l)[0], fiber_dim(k, l) // 2
    return vec[..., :half][..., slots], vec[..., half:][..., slots]


def apply_symbol(xi: LorentzVector, phi: HigherSpinVector) -> HigherSpinVector:
    """Principal symbol action s(xi) on a fiber element.

    Requires covariant xi. The new phi1 is sqrt(2) xi^{A X} (phi2)_X, the
    new phi2 is sqrt(2) xi_{X A} (phi1)^A, with both epsilon lowerings done
    by the tensor engine; twist axes are untouched. The square of this
    action is eta(xi, xi) times the identity.
    """
    if not xi.covariant:
        raise ValueError("apply_symbol expects a covariant direction; use .lowered()")
    new1, new2 = _symbol_blocks(xi.components, phi.phi1.data, phi.phi2.data, 0)
    return HigherSpinVector(
        phi.k,
        phi.l,
        Spinor(new1, phi.phi1.tags),
        Spinor(new2, phi.phi2.tags),
    )


def _symbol_blocks(
    xi: np.ndarray, phi1: np.ndarray, phi2: np.ndarray, stack: int
) -> tuple[np.ndarray, np.ndarray]:
    """apply_symbol's contractions on sector blocks whose first ``stack`` axes are a stack,
    at covariant xi (..., 4): one direction per member, or one broadcast over the stack."""
    up = ETA_DIAG * xi
    xi_up = np.einsum("...a,aij->...ij", up, PAULI)
    xi_dn = np.einsum("...a,aij->...ij", up, _PAULI_LOW)
    chiral = phi1.shape[:stack] + (2, -1)  # the chiral axis, then every twist axis as one
    # phi1' ^A = xi_up[A, X] (phi2)_X ; contraction over the chiral axes only
    new1 = xi_up @ phi2.reshape(chiral)
    # phi2' _X = xi_dn[A, X] (phi1)^A
    new2 = np.swapaxes(xi_dn, -1, -2) @ phi1.reshape(chiral)
    return new1.reshape(phi2.shape), new2.reshape(phi1.shape)


def symbol_matrix(k: int, l: int, xi: LorentzVector) -> np.ndarray:
    """Packed matrix of s(xi): kron(xi^a gamma_a, I), Clifford multiplication.

    On the chiral slots of a (0, 0) fiber the symbol is the chiral-basis
    gamma matrix of xi; it contracts those slots only, so it is the identity
    on the (k+1)(l+1) twist slots. Built independently of apply_symbol's
    epsilon lowering, which checks it. Returns a fresh array on every call.
    """
    return _symbol_matrices(k, l, xi.lowered().components)


def _symbol_matrices(k: int, l: int, xi: np.ndarray) -> np.ndarray:
    """symbol_matrix at covariant xi (..., 4): (..., F, F), one matrix per member."""
    chiral = np.einsum("...a,aij->...ij", ETA_DIAG * xi, _GAMMAS)
    slots = fiber_dim(k, l) // 4
    # kron(chiral, I)[(i, p), (j, q)] = chiral[i, j] I[p, q], the products np.kron forms
    kron = chiral[..., :, None, :, None] * np.eye(slots)[:, None, :]
    return kron.reshape(xi.shape[:-1] + (4 * slots, 4 * slots))


def symbol_columns(k: int, l: int, *axes: int) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """(cols, weights), u[..., cols] * w == u @ symbol_matrix(k, l, e^a).T for each basis axis a.

    The map of kron(G(e^a), I) is that of the chiral factor G(e^a) =
    symbol_matrix(0, 0, e^a), lifted over the (k+1)(l+1) twist slots. Raises
    InvariantViolation unless every factor has one nonzero per row and all
    of them gather the same columns, each column once.
    """
    slots = fiber_dim(k, l) // 4
    chiral = np.stack([symbol_matrix(0, 0, basis_vector(a, covariant=True)) for a in axes])
    counts = np.count_nonzero(chiral, axis=-1)
    if np.any(counts != 1):
        raise InvariantViolation("not a generalized permutation matrix: row nonzero counts "
                                 f"{np.unique(counts).tolist()}")
    cols = np.argmax(chiral != 0, axis=-1)
    if not (np.all(cols == cols[0]) and np.array_equal(np.sort(cols[0]), np.arange(4))):
        raise InvariantViolation("the symbols do not gather the same columns, each column once")
    weights = np.take_along_axis(chiral, cols[..., None], axis=-1)[..., 0]
    lifted = (cols[0][:, None] * slots + np.arange(slots)).ravel()
    return lifted, tuple(np.repeat(w, slots) for w in weights)


def _symbol_matrix_reference(k: int, l: int, xi: LorentzVector) -> np.ndarray:
    """symbol_matrix through the tensor engine: apply_symbol's contractions on the
    unit basis, packed, as columns, one bounded chunk of basis elements at a time. Each
    entry is one product, so the chunks equal one basis element at a time, entry for entry."""
    dim, xi = fiber_dim(k, l), xi.lowered().components
    units = np.eye(dim)  # real: a chunk's sector blocks take half the bytes of complex ones
    # a member holds its two real sector blocks, the complex cast of one of them for the
    # chiral product, its two complex symbol blocks and its packed column
    member = 2 ** (1 + k + l) * (2 * units.itemsize + 3 * 16) + 16 * dim

    def columns(units):
        return _packed(*_symbol_blocks(xi, *_sector_blocks(units, k, l), 1), k, l)

    return _stacked(columns, (dim,), member, units).T


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
    return complex(_pairing_blocks(phi.k, (phi.phi1.data, phi.phi2.data),
                                   (psi.phi1.data, psi.phi2.data)))


def _pairing_blocks(k: int, phi: tuple[np.ndarray, np.ndarray],
                    psi: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """gen_pairing's contractions on sector blocks with leading stacks, one per argument:
    the result has the stack of ``phi`` followed by that of ``psi``."""
    rank = 2 * k + 1
    n_a, n_b = phi[0].ndim - rank, psi[0].ndim - rank
    axes_a, axes_b = _pairing_axes(k)
    axes = ([a + n_a for a in axes_a], [b + n_b for b in axes_b])
    term1 = np.tensordot(np.conj(phi[1]), psi[0], axes=axes)
    term2 = np.tensordot(np.conj(phi[0]), psi[1], axes=axes)
    return term1 + term2


def gen_dirac_adjoint(phi: HigherSpinVector):
    """Dual functional psi -> <phi, psi> of the generalized pairing."""
    if phi.k != phi.l:
        raise KNotEqualL("generalized adjoint needs k = l")

    def functional(psi: HigherSpinVector) -> complex:
        return gen_pairing(phi, psi)

    return functional


def pairing_columns(k: int) -> tuple[np.ndarray, np.ndarray]:
    """(cols, w) of the pairing's Gram matrix P = kron(P_0, W_k): u[..., cols] * w == u @ P.T.

    P_0 pairs each sector with the other on the same chiral slot (map [2, 3, 0, 1]), and
    W_k pairs twist occupation (a, b) with (b, a), weighted by orbit sizes C(k, a) C(k, b).
    """
    slots, n = fiber_dim(k, k) // 4, k + 1
    # the largest weight, checked first: the k + 1 exact binomials take seconds at k ~ 10^4
    if math.comb(k, k // 2) > sys.float_info.max:
        raise ValueError(f"the pairing weight C({k}, {k // 2}) exceeds the float range")
    orbit = np.array([math.comb(k, a) for a in range(n)], dtype=float)
    swap = np.arange(slots).reshape(n, n).T.ravel()
    cols = (np.array([2, 3, 0, 1])[:, None] * slots + swap).ravel()
    return cols, np.tile(np.outer(orbit, orbit).ravel(), 4)


def pairing_matrix(k: int) -> np.ndarray:
    """Gram matrix P of the pairing in the packed basis: pairing_columns(k) scattered, fresh."""
    cols, w = pairing_columns(k)
    return w[:, None] * np.eye(cols.size, dtype=complex)[cols]


def _pairing_matrix_reference(k: int) -> np.ndarray:
    """pairing_matrix through the tensor engine: gen_pairing's contractions of the unit
    basis against itself, one bounded chunk of rows against one of columns at a time.
    Each entry is an integer orbit count, so it is exact."""
    dim = fiber_dim(k, k)
    units = np.eye(dim)  # real: a chunk's sector blocks take half the bytes of complex ones
    # a member of either chunk holds its two real sector blocks and one real copy of a block
    # (conj's, or tensordot's transpose); the row chunk and the column chunk share the budget
    member = 2 * 3 * units.itemsize * 2 ** (1 + 2 * k)

    def rows(left):
        blocks = _sector_blocks(left, k, k)
        pair = lambda right: _pairing_blocks(k, blocks, _sector_blocks(right, k, k)).T
        return _stacked(pair, (dim,), member, units).T

    return _stacked(rows, (dim,), member, units)


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
    return float(_factorization_residuals(k, l, xi.lowered().components, mass))


def _factorization_residuals(k: int, l: int, xi: np.ndarray, mass) -> np.ndarray:
    """check_prenormal_factorization at covariant xi (..., 4) and masses broadcast to its
    stack, one residual per member, in bounded chunks: a member holds four F x F complex
    arrays at once, the symbol, its two mass shifts and their product."""
    xi = np.asarray(xi, dtype=complex)
    mass = np.broadcast_to(np.asarray(mass, dtype=float), xi.shape[:-1])
    dim = fiber_dim(k, l)
    eye = np.eye(dim)

    def residuals(xi, mass):
        gam = _symbol_matrices(k, l, xi)
        q = xi[:, None, :] @ (ETA_DIAG * xi)[:, :, None]  # eta(xi, xi), as metric_eval's dot
        mass = mass[:, None, None]
        lhs = (gam + mass * eye) @ (gam - mass * eye)
        return np.max(np.abs(lhs - (q - mass * mass) * eye), axis=(1, 2))

    return _stacked(residuals, mass.shape, 4 * 16 * dim * dim, xi, mass)


def _require_timelike_future(xi: LorentzVector) -> LorentzVector:
    xi_low = xi.lowered()
    cls, orient = classify_causal(xi_low)
    if cls != "timelike" or orient != "future":
        raise NotTimelikeFuture(f"direction is ({cls}, {orient}), need timelike future")
    return xi_low


def gram_matrix(k: int, xi: LorentzVector) -> np.ndarray:
    """Hermitian matrix of (., .)_xi on the packed basis of type (k, k)."""
    gram, hermitian, gap = _gram_matrices(k, xi.lowered().components)
    _refuse(hermitian, InvariantViolation, _NOT_HERMITIAN, gap)
    return gram


def _gram_matrices(k: int, xi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Hermitian parts, hermitian, gaps) of the xi-form at covariant xi (..., 4): whether each
    member's P s(xi) is Hermitian within 1e-10 of its largest entry, and by what gap."""
    cols, w = pairing_columns(k)
    mat = w[:, None] * _symbol_matrices(k, k, xi)[..., cols, :]  # P s(xi), one row of s per row
    adjoint = np.conj(np.swapaxes(mat, -1, -2))
    gap = np.max(np.abs(mat - adjoint), axis=(-2, -1))
    scale = np.maximum(np.max(np.abs(mat), axis=(-2, -1)), 1e-30)
    return 0.5 * (mat + adjoint), gap <= 1e-10 * scale, gap


def gram_signature(
    k: int,
    xi: LorentzVector | None = None,
    require_future: bool = True,
) -> tuple[int, int, int]:
    """Signature (n_plus, n_minus, n_zero) of the xi-form on type (k, k).

    ``xi`` defaults to the covariant time direction. The form is linear in
    xi, so only its ray counts, and xi is rescaled before it is classified.
    The public contract wants timelike future-pointing xi; ``require_future=False``
    lets tests evaluate past-pointing directions deliberately. Eigenvalues
    within 1e-10 times the spectral radius count as zero.
    """
    xi = basis_vector(0, covariant=True) if xi is None else _ray(xi)
    if require_future:
        xi = _require_timelike_future(xi)
    return tuple(int(n) for n in _gram_signatures(k, xi.lowered().components))


def _gram_signatures(k: int, xi: np.ndarray) -> np.ndarray:
    """gram_signature's counts at covariant rays xi (..., 4): (..., 3), in bounded chunks of
    members that hold at most four F x F complex arrays at once (P s(xi), its adjoint, their
    sum and their difference). A member whose Gram is not Hermitian is refused by its index."""
    dim = fiber_dim(k, k)

    def counts(xi):
        gram, hermitian, gap = _gram_matrices(k, xi)
        # a refused member, which may hold a NaN, is not read: the identity stands in
        eig = np.linalg.eigvalsh(np.where(hermitian[:, None, None], gram, np.eye(dim)))
        tol = 1e-10 * np.maximum(np.max(np.abs(eig), axis=1), 1e-30)[:, None]
        n_plus, n_minus = np.sum(eig > tol, axis=1), np.sum(eig < -tol, axis=1)
        return np.stack([n_plus, n_minus, dim - n_plus - n_minus], axis=1), hermitian, gap

    signatures, hermitian, gap = _stacked(counts, xi.shape[:-1], 4 * 16 * dim * dim, xi)
    _refuse(hermitian, InvariantViolation, _NOT_HERMITIAN, gap)
    return signatures


def witness_pair(
    k: int, xi: LorentzVector | None = None
) -> tuple[tuple[HigherSpinVector, float], tuple[HigherSpinVector, float]]:
    """Unit fiber elements with certified positive and negative xi-form.

    The candidates are extreme eigenvectors of the Gram matrix; each value
    is re-evaluated through the tensor-level xi_form, so the certificate
    does not depend on the packed route. As in gram_signature, only the ray
    of xi counts: xi is rescaled before it is classified, and both values q
    are taken at the rescaled xi. Raises NoNegativeDirection when the form
    has no negative direction (as for k = 0 or 1-sided cases).
    """
    xi = _require_timelike_future(basis_vector(0, covariant=True) if xi is None else _ray(xi))
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


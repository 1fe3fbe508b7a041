"""Two-spinor tensor calculus with explicit variance bookkeeping.

Every tensor axis carries one of four tags: undotted/dotted crossed with
upper/lower. The epsilon matrix [[0, 1], [-1, 0]] serves as all four
epsilon variants (the dotted ones are complex conjugates of the undotted
ones and the matrix is real). Index conventions:

    lower with the first epsilon index:   psi_B = eps_AB psi^A
    raise with the second epsilon index:  psi^A = eps^AB psi_B

so that raising after lowering is the identity (eps^AB eps_CB = delta^A_C).
Contractions are only legal between axes of the same dottedness and
opposite height; anything else raises instead of silently producing
convention-dependent numbers.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .clifford import PAULI, NotUnimodular, _require_unimodular, covering_lambda, weyl_gammas
from .minkowski import LorentzVector, metric_eval

UNDOTTED_UP = "u+"
UNDOTTED_LOW = "u-"
DOTTED_UP = "d+"
DOTTED_LOW = "d-"

_ALL_TAGS = (UNDOTTED_UP, UNDOTTED_LOW, DOTTED_UP, DOTTED_LOW)

EPS_MATRIX = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)

SQRT2 = float(np.sqrt(2.0))


class IllegalContraction(ValueError):
    """Raised on dotted-against-undotted or equal-height contractions."""


class MixedVariance(ValueError):
    """Raised when a symmetrization group mixes axis tags."""


def _is_dotted(tag: str) -> bool:
    return tag[0] == "d"


def _is_upper(tag: str) -> bool:
    return tag[1] == "+"


def _flip_height(tag: str) -> str:
    return tag[0] + ("-" if _is_upper(tag) else "+")


def _flip_dotted(tag: str) -> str:
    return ("u" if _is_dotted(tag) else "d") + tag[1]


@dataclass(frozen=True)
class Spinor:
    """Dense complex tensor whose axes all have extent 2, with tags."""

    data: np.ndarray
    tags: tuple[str, ...]

    def __post_init__(self) -> None:
        data = np.asarray(self.data, dtype=complex)
        if data.shape != (2,) * len(self.tags):
            raise ValueError(
                f"data shape {data.shape} does not match {len(self.tags)} tagged axes"
            )
        for tag in self.tags:
            if tag not in _ALL_TAGS:
                raise ValueError(f"unknown axis tag {tag!r}")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "tags", tuple(self.tags))

    @property
    def rank(self) -> int:
        return len(self.tags)

    def item(self) -> complex:
        """Value of a rank-0 spinor."""
        if self.rank != 0:
            raise ValueError("item() is only defined for rank-0 spinors")
        return complex(self.data)


def epsilon(variant: str) -> Spinor:
    """One of the four epsilon spinors.

    ``variant`` is "lower-undotted", "upper-undotted", "lower-dotted" or
    "upper-dotted". All four share the matrix [[0, 1], [-1, 0]].
    """
    table = {
        "lower-undotted": (UNDOTTED_LOW, UNDOTTED_LOW),
        "upper-undotted": (UNDOTTED_UP, UNDOTTED_UP),
        "lower-dotted": (DOTTED_LOW, DOTTED_LOW),
        "upper-dotted": (DOTTED_UP, DOTTED_UP),
    }
    if variant not in table:
        raise ValueError(f"unknown epsilon variant {variant!r}")
    return Spinor(EPS_MATRIX.copy(), table[variant])


def tensor(a: Spinor, b: Spinor) -> Spinor:
    """Tensor product, axes of ``a`` first."""
    data = np.tensordot(a.data, b.data, axes=0)
    return Spinor(data, a.tags + b.tags)


def _require_legal(verb: str, ta: str, tb: str) -> None:
    """Raise IllegalContraction unless the tags share dottedness and differ in height."""
    if _is_dotted(ta) != _is_dotted(tb):
        raise IllegalContraction(f"cannot {verb} {ta} against {tb}: dotted mismatch")
    if _is_upper(ta) == _is_upper(tb):
        raise IllegalContraction(f"cannot {verb} {ta} against {tb}: equal height")


def contract(a: Spinor, axis_a: int, b: Spinor, axis_b: int) -> Spinor:
    """Contract one axis of ``a`` against one axis of ``b``.

    Legal only for same dottedness and opposite height. Remaining axes of
    ``a`` come first in the result.
    """
    _require_legal("contract", a.tags[axis_a], b.tags[axis_b])
    data = np.tensordot(a.data, b.data, axes=(axis_a, axis_b))
    tags = tuple(t for i, t in enumerate(a.tags) if i != axis_a) + tuple(
        t for i, t in enumerate(b.tags) if i != axis_b
    )
    return Spinor(data, tags)


def trace_pair(a: Spinor, axis_i: int, axis_j: int) -> Spinor:
    """Contract two axes of the same spinor (same rules as contract)."""
    _require_legal("trace", a.tags[axis_i], a.tags[axis_j])
    data = np.trace(a.data, axis1=axis_i, axis2=axis_j)
    tags = tuple(t for i, t in enumerate(a.tags) if i not in (axis_i, axis_j))
    return Spinor(data, tags)


def raise_lower(s: Spinor, axis: int) -> Spinor:
    """Flip the height of one axis with the epsilon spinor.

    Lowering contracts the first epsilon index against an upper axis
    (psi_B = eps_AB psi^A); raising contracts the second epsilon index
    against a lower axis (psi^A = eps^AB psi_B). The two are mutually
    inverse.
    """
    tag = s.tags[axis]
    if _is_upper(tag):
        moved = np.tensordot(EPS_MATRIX, s.data, axes=([0], [axis]))
    else:
        moved = np.tensordot(EPS_MATRIX, s.data, axes=([1], [axis]))
    data = np.moveaxis(moved, 0, axis)
    tags = list(s.tags)
    tags[axis] = _flip_height(tag)
    return Spinor(data, tuple(tags))


def conjugate(s: Spinor) -> Spinor:
    """Complex conjugation: flips dotted-ness of every axis, keeps heights."""
    return Spinor(np.conj(s.data), tuple(_flip_dotted(t) for t in s.tags))


def symmetrize(s: Spinor, axes: tuple[int, ...] | None = None) -> Spinor:
    """Average over all permutations of the given axes (default: all).

    By cosets, not by listing the n! permutations: the identity and the
    transpositions (i n), i < n, represent the cosets of S_{n-1} in S_n, so
    Sym_n = (1/n)(id + sum_{i<n} (i n)) Sym_{n-1}, n(n-1)/2 transposes in all.
    The axes must share a single tag; mixing tags in one symmetrization
    group raises MixedVariance.
    """
    if axes is None:
        axes = tuple(range(s.rank))
    axes = tuple(axes)
    if len(axes) <= 1:
        return s
    tags_in_group = {s.tags[i] for i in axes}
    if len(tags_in_group) != 1:
        raise MixedVariance(f"symmetrization group mixes tags {sorted(tags_in_group)}")
    data = s.data
    for n, last in enumerate(axes[1:], start=2):
        data = (data + sum(np.swapaxes(data, i, last) for i in axes[: n - 1])) / n
    return Spinor(data, s.tags)


def sym_dimension(k: int, l: int) -> int:
    """Dimension of the symmetric (k, l) twist space: (k+1)(l+1); the one rank check.

    ValueError unless both ranks are nonnegative Python or numpy integers (a bool is not).
    """
    if not all(isinstance(r, numbers.Integral) and not isinstance(r, bool) for r in (k, l)):
        raise ValueError(f"twist ranks must be integers, got k = {k!r}, l = {l!r}")
    if k < 0 or l < 0:
        raise ValueError(f"twist ranks must be nonnegative, got k = {k}, l = {l}")
    return (k + 1) * (l + 1)


def apply_sl2(s: Spinor, s2: np.ndarray) -> Spinor:
    """Act with a special linear matrix on every axis per its tag.

    Upper undotted axes transform with S, upper dotted with conj(S), lower
    undotted with transpose(inv(S)), lower dotted with the conjugate of
    that. Raises NotUnimodular when det(S) strays from 1, since only then
    are the epsilon spinors invariant, and ValueError for a shape other than (2, 2).
    """
    s2 = np.asarray(s2, dtype=complex)
    if s2.shape != (2, 2):
        raise ValueError(f"expected shape (2, 2), got {s2.shape}")
    _require_unimodular(s2)
    inv_t = np.linalg.inv(s2).T
    matrices = {
        UNDOTTED_UP: s2,
        DOTTED_UP: np.conj(s2),
        UNDOTTED_LOW: inv_t,
        DOTTED_LOW: np.conj(inv_t),
    }
    data = s.data
    for axis, tag in enumerate(s.tags):
        moved = np.tensordot(matrices[tag], data, axes=([1], [axis]))
        data = np.moveaxis(moved, 0, axis)
    return Spinor(data, s.tags)


def sigma_map(x: LorentzVector) -> Spinor:
    """Soldering map x -> x^a sigma_a with both spinor indices upper.

    sigma_a = s_a / sqrt(2) in terms of the Pauli matrices, which makes the
    map an isometry onto Hermitian matrices: eta(x, y) turns into the
    epsilon pairing of the images. Requires a contravariant argument.
    """
    if x.covariant:
        raise ValueError("sigma_map expects a contravariant vector; use .raised()")
    mat = np.einsum("a,aij->ij", x.components, PAULI) / SQRT2
    return Spinor(mat, (UNDOTTED_UP, DOTTED_UP))


def sigma_inv(s: Spinor) -> LorentzVector:
    """Inverse of sigma_map, via the trace pairing tr(s_a s_b) = 2 delta_ab."""
    if s.tags != (UNDOTTED_UP, DOTTED_UP):
        raise ValueError(f"sigma_inv expects tags (u+, d+), got {s.tags}")
    comp = np.einsum("aij,ji->a", PAULI, s.data) / SQRT2
    return LorentzVector(comp, covariant=False)


def eta_from_eps_check(x: LorentzVector, y: LorentzVector) -> float:
    """Residual of eta(x, y) = eps_AB eps_XY x^AX y^BY under sigma_map.

    Both epsilon applications happen through :func:`raise_lower`, so the
    identity is evaluated with the engine's own conventions rather than a
    shortcut matrix formula.
    """
    sx = sigma_map(x)
    sy = raise_lower(raise_lower(sigma_map(y), 0), 1)
    first = contract(sx, 0, sy, 0)
    value = trace_pair(first, 0, 1).item()
    return abs(metric_eval(x, y) - value)


def clebsch_split(s: Spinor) -> tuple[Spinor, Spinor | None]:
    """Split a (chiral + k twist) undotted block into symmetric and trace parts.

    The input carries one chiral undotted-upper axis followed by k
    symmetric undotted-upper twist axes and any number of dotted axes that
    ride along untouched. Returns (high, low): ``high`` is the full
    symmetrization over the k+1 undotted axes, ``low`` is the epsilon trace
    tau^{B2..Bk} = eps_AC s^{A C B2..Bk} (None when k = 0).
    :func:`clebsch_reconstruct` reassembles the input from the pair.
    """
    k = sum(1 for t in s.tags if t == UNDOTTED_UP) - 1
    if k < 0:
        raise ValueError("input must have at least one undotted-upper axis")
    undotted_axes = tuple(range(k + 1))
    for i in undotted_axes:
        if s.tags[i] != UNDOTTED_UP:
            raise ValueError("undotted-upper axes must come first")
    high = symmetrize(s, undotted_axes)
    if k == 0:
        return high, None
    lowered = raise_lower(s, 0)
    low = trace_pair(lowered, 0, 1)
    if k >= 2:
        low = symmetrize(low, tuple(range(k - 1)))
    return high, low


def clebsch_reconstruct(high: Spinor, low: Spinor | None) -> Spinor:
    """Inverse of :func:`clebsch_split` on twist-symmetric inputs.

    The trace part embeds as (k/(k+1)) Sym_twist(eps^{A B1} tau^{B2..Bk}),
    symmetrizing over the k twist axes only; the constant makes the epsilon
    trace of the embedding reproduce tau.
    """
    if low is None:
        return high
    k = sum(1 for t in high.tags if t == UNDOTTED_UP) - 1
    embedded = tensor(epsilon("upper-undotted"), low)
    embedded = symmetrize(embedded, tuple(range(1, k + 1)))
    coeff = k / (k + 1.0)
    return Spinor(high.data + coeff * embedded.data, high.tags)


def frame_invariance_check(s2: np.ndarray) -> dict:
    """Deviation of epsilon, sigma, and gamma from frame invariance under S.

    Transforms every spinor index with the representation matrices from
    :func:`apply_sl2`, every vector index with the covering Lorentz matrix,
    and reports how far each invariant object moved. All entries should be
    at round-off for special linear S.
    """
    lam = covering_lambda(s2)
    lam_inv = np.linalg.inv(lam)
    report = {}
    for variant, name in (
        ("lower-undotted", "epsilon_lower"),
        ("upper-undotted", "epsilon_upper"),
    ):
        eps = epsilon(variant)
        moved = apply_sl2(eps, s2)
        report[name] = float(np.max(np.abs(moved.data - eps.data)))

    # sigma_a has one covariant vector index: sigma'_a = inv(lam)^b_a S sigma_b S^dag
    s2c = np.asarray(s2, dtype=complex)
    sigma = PAULI / SQRT2
    rotated = np.einsum("ba,bij->aij", lam_inv, s2c @ sigma @ s2c.conj().T)
    report["sigma"] = float(np.max(np.abs(rotated - sigma)))

    gammas = weyl_gammas()
    s4 = np.zeros((4, 4), dtype=complex)
    s4[:2, :2] = s2c
    s4[2:, 2:] = np.linalg.inv(s2c.conj().T)
    rotated_g = np.einsum("ba,bij->aij", lam_inv, s4 @ gammas @ np.linalg.inv(s4))
    report["gamma"] = float(np.max(np.abs(rotated_g - gammas)))

    report["max"] = float(np.max(list(report.values())))
    return report

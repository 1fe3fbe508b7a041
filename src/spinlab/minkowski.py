"""Minkowski vectors, the metric, and causal classification.

Conventions: signature (+, -, -, -), index 0 is time, spatial indices 1..3.
Components are stored as plain length-4 complex arrays; most physics entry
points require real components and say so.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

ETA_DIAG = np.array([1.0, -1.0, -1.0, -1.0])
ETA = np.diag(ETA_DIAG)
ETA_DIAG.flags.writeable = ETA.flags.writeable = False

DEFAULT_TOL = 1e-9

#: The byte budget of one chunk of a stacked computation (see ``_stacked``).
_CHUNK_BYTES = 16 << 20


@dataclass(frozen=True)
class LorentzVector:
    """A 4-vector with an explicit variance flag.

    ``covariant=False`` means the components are x^a (contravariant);
    ``covariant=True`` means x_a. Raising and lowering multiply the spatial
    components by -1, since the metric is diag(1, -1, -1, -1).
    """

    components: np.ndarray
    covariant: bool = False

    def __post_init__(self) -> None:
        comp = np.asarray(self.components, dtype=complex)
        if comp.shape != (4,):
            raise ValueError(f"expected 4 components, got shape {comp.shape}")
        object.__setattr__(self, "components", comp)

    def raised(self) -> "LorentzVector":
        """Contravariant version of this vector."""
        if not self.covariant:
            return self
        return LorentzVector(ETA_DIAG * self.components, covariant=False)

    def lowered(self) -> "LorentzVector":
        """Covariant version of this vector."""
        if self.covariant:
            return self
        return LorentzVector(ETA_DIAG * self.components, covariant=True)

    def __mul__(self, scalar: complex) -> "LorentzVector":
        return LorentzVector(self.components * scalar, self.covariant)

    __rmul__ = __mul__


def basis_vector(a: int, covariant: bool = False) -> LorentzVector:
    """Standard basis vector e_a (a in 0..3)."""
    comp = np.zeros(4, dtype=complex)
    comp[a] = 1.0
    return LorentzVector(comp, covariant=covariant)


def metric_eval(x: LorentzVector, y: LorentzVector) -> complex:
    """Metric pairing of two vectors, respecting their variance flags.

    Same variance on both sides inserts the (inverse) metric, which has the
    same diagonal in this signature; mixed variance is a direct contraction.
    """
    if x.covariant != y.covariant:
        return complex(np.dot(x.components, y.components))
    return complex(np.dot(x.components, ETA_DIAG * y.components))


def _exponent(a: np.ndarray, ndim: int = 1) -> np.ndarray:
    """Per block of the trailing ``ndim`` axes, the e with the largest part in [2^(e-1), 2^e)."""
    parts = np.maximum(np.abs(a.real), np.abs(a.imag))
    return np.frexp(np.max(parts, axis=tuple(range(-ndim, 0))))[1]


def _ldexp(a: np.ndarray, shift, ndim: int = 1) -> np.ndarray:
    """Complex a times 2^shift, one shift per block of the trailing ``ndim`` axes, exactly."""
    shift = np.asarray(shift)[(...,) + (None,) * ndim]
    return np.ldexp(a.real, shift) + 1j * np.ldexp(a.imag, shift)


def _stacked(fn, shape: tuple[int, ...], member_bytes: int, *arrays: np.ndarray):
    """``fn`` over the arrays' leading ``shape``, flattened, in chunks of at most
    _CHUNK_BYTES // member_bytes members (one at least): ``member_bytes`` is a member's share
    of what the chunk holds at once. ``fn``'s result, an array or a tuple of them with the chunk
    first, is joined and given ``shape`` back; an empty stack makes one call."""
    count = math.prod(shape)
    flat = [np.reshape(a, (count,) + np.shape(a)[len(shape):]) for a in arrays]
    step = max(1, _CHUNK_BYTES // max(1, member_bytes))
    parts = [fn(*(a[i:i + step] for a in flat)) for i in range(0, max(count, 1), step)]

    def join(*chunks):
        whole = np.concatenate(chunks)
        return whole.reshape(shape + whole.shape[1:])

    return tuple(map(join, *parts)) if isinstance(parts[0], tuple) else join(*parts)


def _ray(x: LorentzVector) -> LorentzVector:
    """x scaled by an exact power of two so that its largest part lies in [1, 2).

    Nothing is divided, so no component overflows, and only parts far below the
    largest one flush toward zero. A non-finite x comes back as it is, for the
    caller's own check.
    """
    comp = x.components
    if not np.all(np.isfinite(comp)):
        return x
    return LorentzVector(_ldexp(comp, 1 - _exponent(comp)), x.covariant)


def classify_causal(x: LorentzVector) -> tuple[str, str]:
    """Causal class and time orientation of a real vector.

    Returns (cls, orientation) with cls in {"timelike", "null", "spacelike"}
    and orientation in {"future", "past", "none"}. Vectors with
    |eta(x, x)| <= DEFAULT_TOL are reported null; for causal vectors the
    orientation follows the sign of the contravariant time component against
    the orientation vector e_0, with "none" inside the same tolerance.
    Spacelike vectors have no invariant time orientation and always report
    "none"; the zero vector is ("null", "none"). Raises ValueError on a
    complex, NaN or infinite component.

    eta(x, x) is evaluated once, on the ray of x (``_ray``), and scaled back by
    the same exact power of two, so every x whose form fits the float range gets
    exactly the unscaled value; a form past the float range is read off the ray,
    with the orientation of x itself.
    """
    if not np.all(np.isfinite(x.components)):
        raise ValueError("classify_causal requires finite components")
    if np.max(np.abs(x.components.imag)) > 1e-12:
        raise ValueError("classify_causal requires real components")
    up = x.raised()
    ray = _ray(x)
    q = metric_eval(ray, ray).real
    with contextlib.suppress(OverflowError):  # past the float range, the ray's form counts
        q = math.ldexp(q, 2 * (int(_exponent(x.components)) - 1))
    if abs(q) <= DEFAULT_TOL:
        cls = "null"
    elif q > 0:
        cls = "timelike"
    else:
        cls = "spacelike"
    t = up.components[0].real
    if cls == "spacelike" or abs(t) <= DEFAULT_TOL:
        orientation = "none"
    elif t > DEFAULT_TOL:
        orientation = "future"
    else:
        orientation = "past"
    return cls, orientation


def _metric_gap(lam: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(gap, one, peak) per matrix of a real (..., 4, 4) stack, read on unit = 2^-s lam, whose
    largest entry is below 2 (s >= 0), so nothing overflows: gap = max|unit^T eta unit - one
    eta|, one = 4^-s and peak = max|unit|^2. A caller bounds the gap by DEFAULT_TOL one, or by
    DEFAULT_TOL max(one, peak) to allow lam^T eta lam its round-off, about eps max|lam|^2."""
    shift = np.maximum(_exponent(lam, 2) - 1, 0)
    unit = np.ldexp(lam, -shift[..., None, None])
    one = np.ldexp(1.0, -2 * shift)
    gap = np.max(np.abs(np.swapaxes(unit, -1, -2) @ ETA @ unit - one[..., None, None] * ETA),
                 axis=(-2, -1))
    return gap, one, np.max(np.abs(unit), axis=(-2, -1)) ** 2


def is_restricted_lorentz(lam: np.ndarray) -> bool:
    """True when one (4, 4) lam has a metric gap (``_metric_gap``) at most DEFAULT_TOL, det > 0
    and lam[0, 0] >= 1 - DEFAULT_TOL, the proper orthochronous component. Any other shape, a
    NaN or infinite entry, or an imaginary part above DEFAULT_TOL gives False at once."""
    lam = np.asarray(lam)
    if lam.shape != (4, 4) or not np.all(np.isfinite(lam)) or np.max(abs(lam.imag)) > DEFAULT_TOL:
        return False
    lam = lam.real
    gap, one, _ = _metric_gap(lam)
    return bool(gap <= DEFAULT_TOL * one and np.linalg.slogdet(lam)[0] > 0
                and lam[0, 0] >= 1.0 - DEFAULT_TOL)

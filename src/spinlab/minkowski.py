"""Minkowski vectors, the metric, and causal classification.

Conventions: signature (+, -, -, -), index 0 is time, spatial indices 1..3.
Components are stored as plain length-4 complex arrays; most physics entry
points require real components and say so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ETA_DIAG = np.array([1.0, -1.0, -1.0, -1.0])
ETA = np.diag(ETA_DIAG)

DEFAULT_TOL = 1e-9


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


def _ray(x: LorentzVector, top: int = 1) -> LorentzVector:
    """x scaled by an exact power of two so that its largest part lies in [2^(top-1), 2^top).

    Nothing is divided, so no component overflows, and only parts far below the
    largest one flush toward zero. The zero vector and a non-finite x come back as
    they are, for the caller's own check.
    """
    comp = x.components
    peak = max(np.max(np.abs(comp.real)), np.max(np.abs(comp.imag)))
    if peak == 0 or not np.isfinite(peak):
        return x
    shift = top - int(np.frexp(peak)[1])
    return LorentzVector(np.ldexp(comp.real, shift) + 1j * np.ldexp(comp.imag, shift), x.covariant)


# with every part below 2^510, the three same-signed terms of eta(x, x) sum to under
# 3 * 2^1020, so the form cannot leave the float range
_FORM_SAFE_EXPONENT = 510


def _require_real(x: LorentzVector, what: str) -> np.ndarray:
    if not np.all(np.isfinite(x.components)):
        raise ValueError(f"{what} requires finite components")
    if np.max(np.abs(x.components.imag)) > 1e-12:
        raise ValueError(f"{what} requires real components")
    return x.components.real


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

    Where eta(x, x) could leave the float range, it is evaluated on x scaled by an
    exact power of two and scaled back, so every x whose form fits gets exactly
    the unscaled value; when the form does not fit, x is classified as its ray,
    scaled to a largest part in [1, 2), with the orientation of x itself.
    """
    _require_real(x, "classify_causal")
    up = x.raised()
    exponent = int(np.frexp(np.max(np.abs(x.components.real)))[1])
    if exponent <= _FORM_SAFE_EXPONENT:
        q = metric_eval(x, x).real
    else:
        # the same sums on x scaled by an exact power of two, then scaled back
        scaled = _ray(x, top=_FORM_SAFE_EXPONENT)
        try:
            q = math.ldexp(metric_eval(scaled, scaled).real, 2 * (exponent - _FORM_SAFE_EXPONENT))
        except OverflowError:  # eta(x, x) leaves the float range: only the ray of x counts
            ray = _ray(x)
            q = metric_eval(ray, ray).real
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


def _restricted(lam: np.ndarray, scale: float | np.ndarray = 1.0) -> np.ndarray:
    """Per-matrix restricted-group mask of a real (..., 4, 4) stack: metric gap at most
    DEFAULT_TOL * scale, det > 0 and lam[0, 0] >= 1 - DEFAULT_TOL (the two positivity tests
    pick the proper orthochronous component). ``scale`` (a number, or one per matrix) widens
    the metric gap alone: the round-off of lam^T eta lam grows like eps max|lam|^2. A NaN
    fails every comparison."""
    gap = np.max(np.abs(np.swapaxes(lam, -1, -2) @ ETA @ lam - ETA), axis=(-2, -1))
    metric = gap <= DEFAULT_TOL * scale
    return metric & (np.linalg.det(lam) > 0) & (lam[..., 0, 0] >= 1.0 - DEFAULT_TOL)


def is_restricted_lorentz(lam: np.ndarray) -> bool:
    """True when one (4, 4) lam passes ``_restricted``. Any other shape, a NaN or infinite
    entry, or an imaginary part above DEFAULT_TOL gives False before any arithmetic."""
    lam = np.asarray(lam)
    if lam.shape != (4, 4) or not np.all(np.isfinite(lam)):
        return False
    if np.max(np.abs(lam.imag)) > DEFAULT_TOL:
        return False
    return bool(_restricted(lam.real))

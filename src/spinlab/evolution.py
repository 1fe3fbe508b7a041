"""Flat 1+1D evolution, conserved slice products, and the retarded kernel.

The evolved equation is Gamma^0 d_t Phi + Gamma^3 d_z Phi + i m Phi = 0 on a
periodic z-interval, where Gamma^a is the packed principal-symbol matrix of
the covariant basis direction e^a. Solving for d_t gives

    d_t u = A D_z u + B u,   A = -Gamma0 Gamma3,   B = -i m Gamma0

with A Hermitian, B anti-Hermitian, A^2 = 1, B^2 = -m^2, AB + BA = 0. The
scheme is leapfrog with centered differences: it reaches exactly one cell
per step (so discrete causality can be asserted as exact zeros) and its
two-level quadratic form is conserved to round-off, which keeps slice
products flat far below generic one-step schemes. The startup half uses the
identity (A D_z + B)^2 ~ D2 - m^2 to stay both second order and one-cell.
Leapfrog is stable only while dt sqrt(dz^-2 + m^2) < 1, and the stepping
core refuses to start otherwise.

Every fiber operator the evolver, the slice products and the Green
operator use (A, Gamma0 and hence B, the currents X^a = P Gamma(e^a), and
the Dirac operator Gamma^0 d_t + Gamma^3 d_z +- i m) is a generalized
permutation matrix: one nonzero per row, because Gamma(e^a) = kron(G(e^a), I)
and P = kron(P_0, W_k) are. They are applied as a gather and a scale,
u[..., cols] * w, which is N F work per level instead of the N F^2 of a
dense product, and all of them take the one periodic centered z-difference
``_centered_difference``. One generator, ``_leapfrog``, is the only
time-stepping loop; it holds two levels. ``evolve`` stores what it yields;
every other consumer takes each level as it arrives. The slice-product
reductions are folds over levels, fed a stored field's ``data`` or
``_leapfrog`` itself.

The retarded Green operator convolves the source with the sampled kernel
E(t, z) over the whole (t, z) grid, then applies D - i m. It acts per fiber
component for any twist (k, l): E is scalar and Gamma(e^a) = kron(G(e^a), I)
touches only the chiral axes, so the twisted operator is the untwisted one
applied per twist slot. The convolution is linear (not periodic), and only
its retarded window, the n_t levels and n points of the source grid, is
needed. It transforms only the source's support: the levels up to its last
nonzero one, t1, its nonzero columns z0 .. z1 (width b) and its nonzero
fiber components. So it runs as a cyclic FFT convolution of size
next_fast_len(n_t + t1) x next_fast_len(n + b - 1), against the n + b - 1
kernel columns that reach the window. These are the smallest fast sizes for
which no wrapped term reaches the window: in z a wrapped index lands at or
below b - 2, left of it, as in overlap-save (see ``_retarded_convolution``).
A source that fills the grid gets next_fast_len(2 n_t - 1) x
next_fast_len(2 n - 1).
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Iterable, Iterator
from dataclasses import asdict, dataclass

import numpy as np
from scipy import fft as sfft
from scipy.special import j0

from .clifford import InvariantViolation
from .higher_spin import (
    KNotEqualL,
    fiber_dim,
    pairing_matrix,
    symbol_matrix,
    unpack,
)
from .minkowski import LorentzVector, basis_vector


class CFLViolation(ValueError):
    """Raised when the time step breaks the unit-speed or leapfrog stability bound."""


class ZeroProjection(RuntimeError):
    """Raised when every seed is annihilated by the on-shell projector."""


@dataclass(frozen=True)
class EvolutionConfig:
    """Grid and equation parameters for one run.

    ``extent`` is the periodic domain length, ``points`` the number of
    cells (dz = extent / points), ``steps`` the number of time steps taken
    beyond the initial level. The unit-speed constraint dt <= dz is
    enforced here; the stricter leapfrog bound dt sqrt(dz^-2 + m^2) < 1 is
    enforced when time stepping starts, because the aligned dt = dz grid of
    the Green operator is valid with mass but must never be time-stepped.
    """

    mass: float
    k: int
    l: int
    extent: float
    points: int
    dt: float
    steps: int

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in (self.mass, self.extent, self.dt)):
            raise ValueError("mass, extent, dt must be finite")
        if self.points < 8:
            raise ValueError("need at least 8 grid points")
        if self.extent <= 0 or self.dt <= 0 or self.steps < 1:
            raise ValueError("extent, dt, steps must be positive")
        fiber_dim(self.k, self.l)  # raises ValueError on a negative twist rank
        if self.dt > self.dz * (1 + 1e-12):
            raise CFLViolation(f"dt = {self.dt} exceeds dz = {self.dz}")

    @property
    def dz(self) -> float:
        return self.extent / self.points

    @property
    def fiber(self) -> int:
        return fiber_dim(self.k, self.l)

    def zgrid(self) -> np.ndarray:
        return np.arange(self.points) * self.dz

    def times(self) -> np.ndarray:
        return np.arange(self.steps + 1) * self.dt


@dataclass(frozen=True)
class GridField:
    """A fiber-valued field stored at every time level of a run.

    ``data`` has shape (steps + 1, points, fiber) in packed fiber
    coordinates; :meth:`at` unpacks a single grid value.
    """

    config: EvolutionConfig
    data: np.ndarray

    def __post_init__(self) -> None:
        expect = (self.config.steps + 1, self.config.points, self.config.fiber)
        data = np.asarray(self.data, dtype=complex)
        if data.shape != expect:
            raise ValueError(f"data shape {data.shape}, expected {expect}")
        object.__setattr__(self, "data", data)

    def at(self, t_index: int, j: int):
        return unpack(self.data[t_index, j], self.config.k, self.config.l)


def _monomial(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cols, w) with u[..., cols] * w == u @ mat.T for a one-nonzero-per-row mat.

    Raises InvariantViolation when some row of ``mat`` does not have exactly
    one nonzero entry.
    """
    counts = np.count_nonzero(mat, axis=1)
    if np.any(counts != 1):
        raise InvariantViolation(
            f"not a generalized permutation matrix: row nonzero counts {sorted(set(counts))}"
        )
    cols = np.argmax(mat != 0, axis=1)
    return cols, mat[np.arange(mat.shape[0]), cols]


def _symbol(cfg: EvolutionConfig, direction: int) -> np.ndarray:
    return symbol_matrix(cfg.k, cfg.l, basis_vector(direction, covariant=True))


def _centered_difference(u: np.ndarray, out: np.ndarray, dz: float) -> np.ndarray:
    """out = (u[j + 1] - u[j - 1]) / (2 dz) along axis 0, periodic, with no temporary."""
    np.subtract(u[2:], u[:-2], out=out[1:-1])
    np.subtract(u[1:2], u[-1:], out=out[:1])
    np.subtract(u[:1], u[-2:-1], out=out[-1:])
    return np.multiply(out, 1.0 / (2.0 * dz), out=out)


def _dirac(cfg: EvolutionConfig, u: np.ndarray, du_t: np.ndarray, sign: float) -> np.ndarray:
    """Gamma^0 du_t + Gamma^3 D_z u + sign i m u for a (levels, points, fiber) field u.

    ``du_t`` is the time derivative of u and is overwritten as scratch.
    Both Gamma^a are monomial, so each term is a gather and a scale; the
    z-difference and the result are the only fields allocated.
    """
    c0, w0 = _monomial(_symbol(cfg, 0))
    c3, w3 = _monomial(_symbol(cfg, 3))
    du_z = np.empty_like(u)
    _centered_difference(u.swapaxes(0, 1), du_z.swapaxes(0, 1), cfg.dz)
    out = np.take(du_t, c0, axis=-1)
    out *= w0
    out += np.multiply(np.take(du_z, c3, axis=-1, out=du_t, mode="clip"), w3, out=du_t)
    out += np.multiply(u, sign * 1j * cfg.mass, out=du_t)
    return out


def _coerce_initial(phi0, cfg: EvolutionConfig) -> np.ndarray:
    arr = np.asarray(phi0, dtype=complex)
    if arr.shape != (cfg.points, cfg.fiber):
        raise ValueError(f"initial data shape {arr.shape}, expected {(cfg.points, cfg.fiber)}")
    return arr


def _leapfrog(phi0, cfg: EvolutionConfig) -> Iterator[np.ndarray]:
    """Yield the levels u^0 .. u^steps from packed initial data, holding two.

    The first step is the Taylor half-step
    u^1 = u^0 + dt L u^0 + (dt^2/2)(D2 - m^2) u^0 with D2 the one-cell
    second difference; it matches L^2 through the operator identities in
    the module docstring, so no extra reach and no first-order startup
    error is introduced. Later levels are updated in place: a yielded
    array is overwritten two steps on, so a caller that keeps a level
    copies it (the last level is never overwritten). Raises ValueError on
    misshapen initial data and CFLViolation, both before the first level.
    """
    u0 = _coerce_initial(phi0, cfg)
    dz, dt = cfg.dz, cfg.dt
    if dt * math.sqrt(dz**-2 + cfg.mass**2) >= 1.0:
        raise CFLViolation(
            f"leapfrog needs dt sqrt(dz^-2 + m^2) < 1; dt = {dt}, dz = {dz}, m = {cfg.mass}"
        )
    g0 = _symbol(cfg, 0)
    a_cols, a_w = _monomial(-g0 @ _symbol(cfg, 3))
    b_cols, g0_w = _monomial(g0)
    b_w = -1j * cfg.mass * g0_w
    m2 = cfg.mass**2

    # Steps write into preallocated levels (mode="clip" keeps take unbuffered):
    # level-sized temporaries every step make glibc trim and refault its heap.
    dzu, out, term = np.empty_like(u0), np.empty_like(u0), np.empty_like(u0)

    def rhs(u):
        """L u = A D_z u + B u into ``out``."""
        _centered_difference(u, dzu, dz)
        np.multiply(np.take(dzu, a_cols, axis=1, out=out, mode="clip"), a_w, out=out)
        np.multiply(np.take(u, b_cols, axis=1, out=term, mode="clip"), b_w, out=term)
        return np.add(out, term, out=out)

    prev = u0.copy()
    yield prev
    lap = (np.roll(prev, -1, axis=0) - 2.0 * prev + np.roll(prev, 1, axis=0)) / dz**2
    cur = prev + dt * rhs(prev) + 0.5 * dt**2 * (lap - m2 * prev)
    yield cur
    for _ in range(2, cfg.steps + 1):
        step = rhs(cur)
        prev += np.multiply(step, 2.0 * dt, out=step)
        prev, cur = cur, prev
        yield cur


def evolve(phi0, cfg: EvolutionConfig) -> GridField:
    """Run the leapfrog scheme from packed (points, fiber) initial data.

    All time levels are stored; see ``_leapfrog`` for the scheme and its
    stability bound.
    """
    out = np.empty((cfg.steps + 1, cfg.points, cfg.fiber), dtype=complex)
    for n, u in enumerate(_leapfrog(phi0, cfg)):
        out[n] = u
    return GridField(cfg, out)


def final_level(phi0, cfg: EvolutionConfig) -> np.ndarray:
    """The last level u^steps of a run, stepped with two levels held."""
    return deque(_leapfrog(phi0, cfg), maxlen=1)[0]


@dataclass(frozen=True)
class PlaneWave:
    """On-shell plane wave u exp(-i (sign omega t - p z)) with packed profile u."""

    u: np.ndarray
    omega: float
    p: float
    sign: float

    def phase(self, t: float, z) -> np.ndarray:
        return np.exp(-1j * (self.sign * self.omega * t - self.p * np.asarray(z)))

    def sample(self, t: float, zgrid: np.ndarray) -> np.ndarray:
        """Packed field values on a grid, shape (len(zgrid), fiber)."""
        return self.phase(t, zgrid)[:, None] * self.u[None, :]


def plane_wave(
    p: float, mass: float, k: int = 0, l: int = 0, branch: str = "+", pol: int = 0
) -> PlaneWave:
    """Exact solution of the evolved equation with momentum p.

    ``branch`` picks the frequency sign in exp(-i (s omega t - p z)),
    ``pol`` picks the twist slot (0 .. (k+1)(l+1)-1) the wave rides on.
    The profile is the on-shell projection (s(P) + m) of a chiral seed,
    normalized; seeds annihilated by the projector are retried over all
    four sector/chirality slots before giving up with ZeroProjection.
    """
    if branch not in ("+", "-"):
        raise ValueError("branch must be '+' or '-'")
    twist_slots = (k + 1) * (l + 1)
    if not 0 <= pol < twist_slots:
        raise ValueError(f"pol must be in 0..{twist_slots - 1}")
    omega = float(np.sqrt(p * p + mass * mass))
    sign = +1.0 if branch == "+" else -1.0
    p_cov = LorentzVector(np.array([sign * omega, 0.0, 0.0, -p]), covariant=True)
    s_p = symbol_matrix(k, l, p_cov)
    dim = fiber_dim(k, l)
    projector = s_p + mass * np.eye(dim)
    for slot in range(4):
        seed = np.zeros(dim, dtype=complex)
        seed[slot * twist_slots + pol] = 1.0
        u = projector @ seed
        norm = float(np.linalg.norm(u))
        if norm > 1e-8:
            u = u / norm
            residual = float(np.linalg.norm(s_p @ u - mass * u))
            if not residual < 1e-12:
                raise InvariantViolation(f"plane wave off shell: residual {residual:.3e}")
            return PlaneWave(u, omega, p, sign)
    raise ZeroProjection("all chiral seeds were annihilated by the projector")


def _current(cfg: EvolutionConfig, direction: int) -> tuple[np.ndarray, np.ndarray]:
    """Monomial form of the pair-current matrix X^a = P s(e^a)."""
    if cfg.k != cfg.l:
        raise KNotEqualL("slice products need k = l")
    return _monomial(pairing_matrix(cfg.k) @ _symbol(cfg, direction))


def _current_density(a: np.ndarray, b: np.ndarray, current, scratch: np.ndarray) -> np.ndarray:
    """<a, X b> per point of a level, X = (cols, w) monomial, in two scratch levels."""
    cols, w = current
    prod = np.conjugate(a, out=scratch[0])
    prod *= np.take(b, cols, axis=1, out=scratch[1], mode="clip")
    return prod @ w


def conservation_fold(
    cfg: EvolutionConfig,
    levels_a: Iterable[np.ndarray],
    levels_b: Iterable[np.ndarray] | None = None,
) -> dict:
    """Slice products sum_j <A, s(e^0) B> dz, level by level, and their drift.

    ``levels_a``/``levels_b`` iterate the (points, fiber) levels of two runs
    (without ``levels_b`` the run pairs with itself). The drift denominator
    is the initial value when it is solidly nonzero, otherwise a positive
    scale from the initial level norms, so orthogonal data does not divide by 0.
    """
    x0 = _current(cfg, 0)
    pairs = ((u, u) for u in levels_a) if levels_b is None else zip(levels_a, levels_b)
    scratch = np.empty((2, cfg.points, cfg.fiber), dtype=complex)
    values = []
    for a, b in pairs:
        if not values:
            scale = cfg.dz * float(np.linalg.norm(a) * np.linalg.norm(b))
        values.append(np.sum(_current_density(a, b, x0, scratch)) * cfg.dz)
    values = np.array(values)
    denom = max(abs(values[0]), 1e-9 * scale, 1e-300)
    drift = float(np.max(np.abs(values - values[0])) / denom)
    return {"values": values, "initial": complex(values[0]), "drift": drift, "denominator": denom}


def divergence_fold(
    cfg: EvolutionConfig, levels_a: Iterable[np.ndarray], levels_b: Iterable[np.ndarray]
) -> float:
    """Max interior residual of d_t X^0 + d_z X^3 for the pair current of two runs.

    X^a(t, z) = <A, s(e^a) B> pointwise; both derivatives are centered, so
    the residual is evaluated on interior time levels only. For two
    solutions of the evolved equation this is a discrete conservation law
    and the residual converges to zero at second order. The fold keeps the
    X^0 densities of the last two levels and the X^3 density of the last.
    """
    if cfg.steps < 2:
        raise ValueError("need at least 3 time levels for a centered residual")
    x0 = _current(cfg, 0)
    x3 = _current(cfg, 3)
    # np.maximum, unlike max(), keeps a NaN residual visible in the result
    worst = 0.0
    before = here = flux = None
    scratch = np.empty((2, cfg.points, cfg.fiber), dtype=complex)
    dz_cur = np.empty(cfg.points, dtype=complex)
    for a, b in zip(levels_a, levels_b):
        ahead = _current_density(a, b, x0, scratch)
        if before is not None:
            dt_cur = (ahead - before) / (2.0 * cfg.dt)
            _centered_difference(flux, dz_cur, cfg.dz)
            worst = np.maximum(worst, np.max(np.abs(dt_cur + dz_cur)))
        before, here = here, ahead
        flux = _current_density(a, b, x3, scratch)
    return float(worst)


def slice_product(fa: GridField, fb: GridField, t_index: int) -> complex:
    """The slice product at one stored level: ``conservation_fold`` over it alone."""
    return conservation_fold(fa.config, [fa.data[t_index]], [fb.data[t_index]])["initial"]


def conservation_report(fa: GridField, fb: GridField | None = None) -> dict:
    """``conservation_fold`` over the stored levels of one field or two."""
    return conservation_fold(fa.config, fa.data, None if fb is None else fb.data)


def divergence_check(fa: GridField, fb: GridField) -> float:
    """``divergence_fold`` over the stored levels of two fields."""
    return divergence_fold(fa.config, fa.data, fb.data)


def causal_support_check(phi0, cfg: EvolutionConfig) -> dict:
    """Evolve and audit propagation speed against both cones.

    The discrete cone (one cell per step around the initial support) must
    hold with exact zeros: the update touches nearest neighbors only and
    IEEE arithmetic keeps exact zeros through linear updates, so any
    nonzero there is a genuine scheme bug, not round-off. The continuum
    cone widened by 3 cells is then checked as a relative amplitude leak.
    Each level is audited as the stepping core yields it; no field is
    stored. Returns {"exact_outside": ..., "cone_leak": ..., "peak": ...}.
    """
    u0 = _coerce_initial(phi0, cfg)
    profile = np.max(np.abs(u0), axis=1)
    nonzero = np.nonzero(profile)[0]
    if len(nonzero) == 0:
        raise ValueError("initial data is identically zero")
    if nonzero[0] == 0 or nonzero[-1] == cfg.points - 1:
        raise ValueError("initial support touches the periodic seam")
    ia, ib = int(nonzero[0]), int(nonzero[-1])
    # periodic distance in cells from each column to the initial support
    idx = np.arange(cfg.points)
    dist = np.minimum((ia - idx) % cfg.points, (idx - ib) % cfg.points)
    dist[ia : ib + 1] = 0
    # np.maximum, unlike max(), keeps a NaN level visible in the result
    peak = exact_outside = cone_leak = 0.0
    # one |u| buffer for every level: a level-sized temporary per step makes
    # glibc trim and refault its heap (see _leapfrog)
    mag, amp = np.empty(u0.shape), np.empty(cfg.points)
    for n, u in enumerate(_leapfrog(u0, cfg)):
        np.max(np.abs(u, out=mag), axis=1, out=amp)
        peak = np.maximum(peak, np.max(amp))
        exact_outside = np.maximum(exact_outside, np.max(amp[dist > n], initial=0.0))
        width = int(np.ceil(n * cfg.dt / cfg.dz)) + 3
        cone_leak = np.maximum(cone_leak, np.max(amp[dist > width], initial=0.0))
    peak, cone_leak = float(peak), float(cone_leak)
    return {
        "exact_outside": float(exact_outside),
        "cone_leak": cone_leak,
        "peak": peak,
        "cone_leak_rel": cone_leak / peak if peak > 0 else 0.0,
    }


def retarded_kernel(cfg: EvolutionConfig) -> np.ndarray:
    """Sampled retarded scalar kernel on the aligned dt = dz grid.

    E(t, z) = (1/2) theta(t - |z|) J0(m sqrt(t^2 - z^2)) with trapezoid
    weights: 1 inside the cone, 1/2 on the boundary t = |z| (which lies on
    grid points because dt = dz), 1/4 at the apex. Shape
    (steps + 1, 2 points - 1), column index z = (j - points + 1) dz.
    Raises ValueError off the aligned grid, where the cone edge falls
    between grid points and those weights would land on the wrong samples.
    """
    if abs(cfg.dt - cfg.dz) > 1e-12 * cfg.dz:
        raise ValueError("retarded kernel needs the aligned grid dt = dz")
    n_t = cfg.steps + 1
    n_z = 2 * cfg.points - 1
    t = (np.arange(n_t) * cfg.dt)[:, None]
    z = ((np.arange(n_z) - (cfg.points - 1)) * cfg.dz)[None, :]
    s = t * t - z * z
    inside = s > 1e-12 * cfg.dz**2
    on_edge = np.abs(np.abs(z) - t) <= 1e-12 * max(cfg.dz, 1.0)
    kernel = np.where(inside | on_edge, 0.5 * j0(cfg.mass * np.sqrt(np.maximum(s, 0.0))), 0.0)
    weight = np.ones_like(kernel)
    weight[on_edge] = 0.5
    weight[0, cfg.points - 1] = 0.25
    return kernel * weight


def _source_support(f: np.ndarray) -> tuple[int, int, int, np.ndarray]:
    """(t1, z0, z1, components): where a (levels, points, fiber) source is nonzero.

    t1 is its last nonzero level, z0 .. z1 its nonzero column range and
    components the indices of its nonzero fiber components (empty, with
    t1 = z0 = z1 = -1, for an all-zero source). The one pass over |f| that
    finds them also refuses a NaN or infinite entry with ValueError, which
    the transforms would otherwise spread over a whole output component.
    """
    amp = np.abs(f)
    # max keeps a NaN; the reductions run along whole rows, not the short fiber axis
    levels = amp.reshape(len(amp), -1).max(axis=1)
    columns = amp.max(axis=0)
    peaks = columns.max(axis=0)
    if not np.all(np.isfinite(peaks)):
        raise ValueError("source holds a non-finite value")
    components = np.flatnonzero(peaks)
    if components.size == 0:
        return -1, -1, -1, components
    rows = np.flatnonzero(levels)
    cols = np.flatnonzero(columns.max(axis=1))
    return int(rows[-1]), int(cols[0]), int(cols[-1]), components


def _retarded_convolution(f: np.ndarray, cfg: EvolutionConfig) -> np.ndarray:
    """u = E * f per fiber component, summed with the dt dz cell weight.

    The convolution is exact and transforms only the source's support:
    rows 0 .. t1 (t1 its last nonzero level; the leading rows stay, so the
    levels before the source are computed, not set to zero) and columns
    z0 .. z1 (width b), of each component that is not identically zero.
    Only the kernel columns n - 1 - z1 .. 2 n - 2 - z0 (n + b - 1 offsets)
    reach an output point, and the FFT size is
    (L_t, L_z) = (next_fast_len(n_t + t1), next_fast_len(n + b - 1)) for
    n_t levels and n points. Rows 0 .. n_t - 1 and columns b - 1 .. n + b - 2
    of the linear convolution of that kernel slice with the support are u,
    and the cyclic wrap cannot reach them: in t the full result spans
    n_t + t1 <= L_t rows, so nothing wraps, and in z it spans indices
    0 .. n + 2 b - 3, so an index that wraps lands at or below
    n + 2 b - 3 - L_z <= b - 2, left of the window (the valid part of an
    overlap-save step). A full-support source gets the sizes
    (next_fast_len(2 n_t - 1), next_fast_len(2 n - 1)); a zero component's
    output is exact zeros and an all-zero source runs no transform. The
    kernel is transformed once per call, each component along t on its b
    data columns only, and only the n window columns are transformed back
    along t. ValueError on a non-finite source (see ``_source_support``).
    """
    n_t, n_pts = cfg.steps + 1, cfg.points
    kernel = retarded_kernel(cfg)  # refuses a non-aligned grid, a zero source too
    t1, z0, z1, components = _source_support(f)
    u = np.zeros_like(f)
    if components.size == 0:
        return u
    width = z1 - z0 + 1
    shape = (sfft.next_fast_len(n_t + t1), sfft.next_fast_len(n_pts + width - 1))
    kernel_hat = sfft.fft2(kernel[:, n_pts - 1 - z1 : 2 * n_pts - 1 - z0], s=shape)
    window = slice(width - 1, width - 1 + n_pts)
    for c in components:
        support = f[: t1 + 1, z0 : z1 + 1, c]
        spec = sfft.fft(sfft.fft(support, n=shape[0], axis=0), n=shape[1], axis=1)
        spec *= kernel_hat
        cols = sfft.ifft(spec, axis=1, overwrite_x=True)[:, window]
        u[:, :, c] = sfft.ifft(cols, axis=0, overwrite_x=True)[:n_t]
        del spec, cols  # else they stay live while the next component's spectrum is built
    u *= cfg.dt * cfg.dz
    return u


def retarded_green_apply(source: GridField, cfg: EvolutionConfig) -> GridField:
    """Apply the retarded Green operator to a source field of any twist (k, l).

    Computes u = E * f by linear (zero padded, non-periodic) convolution in
    z and retarded summation in t, then G f = (D - i m) u with centered
    derivatives (one sided at the time ends). Applying the equation
    operator (D + i m) to the result reproduces f up to discretization
    error on interior levels, and the output vanishes to round-off at
    levels more than one stencil width before the source support.

    Precondition, not checked: the solution's cone, not only the source,
    must stay off columns 0 and n - 1 for the whole run. The convolution is
    non-periodic but D takes the periodic z-difference, so once the cone
    reaches the z-edge those columns pick up an O(1/dz) error and the
    residual grows under refinement.

    Any twist (k, l) works: E is scalar and Gamma(e^a) = kron(G(e^a), I)
    acts on the chiral axes only, so u is convolved per fiber component.
    ValueError when ``cfg`` is not ``source.config`` or not aligned, and
    when the source holds a NaN or infinite value.
    """
    if source.config != cfg:
        raise ValueError(f"source was built for {source.config}, not {cfg}")
    u = _retarded_convolution(source.data, cfg)
    du_t = np.gradient(u, cfg.dt, axis=0)
    return GridField(cfg, _dirac(cfg, u, du_t, -1.0))


def config_to_json(cfg: EvolutionConfig) -> dict:
    return asdict(cfg)


def _json_object(obj, what: str) -> dict:
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(obj).__name__}")
    return obj


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def config_from_json(obj: dict) -> EvolutionConfig:
    """Parse a config object; ValueError on a non-object, a non-number, or a
    fractional k, l, points or steps (refused rather than truncated)."""
    obj = _json_object(obj, "config")
    parsed = {}
    for name in ("mass", "k", "l", "extent", "points", "dt", "steps"):
        value, integral = obj[name], name in ("k", "l", "points", "steps")
        if not _is_number(value) or integral and value % 1 != 0:
            kind = "an integer" if integral else "a number"
            raise ValueError(f"config {name} must be {kind}, got {value!r}")
        parsed[name] = int(value) if integral else float(value)
    return EvolutionConfig(**parsed)


def snapshot_to_json(cfg: EvolutionConfig, level: np.ndarray, time: float) -> dict:
    """One (points, fiber) level at ``time`` as a JSON-ready dict.

    values[j] carries the packed coefficients of the two sectors as
    [re, im] pairs, phi1 first, in packed (chiral, undotted occupation,
    dotted occupation) order. A run restarted from a snapshot continues
    its clock from ``time``.
    """
    half = cfg.fiber // 2

    def pairs(vec):
        return [[float(c.real), float(c.imag)] for c in vec]

    values = [{"phi1": pairs(vec[:half]), "phi2": pairs(vec[half:])} for vec in level]
    return {"config": config_to_json(cfg), "time": time, "values": values}


def snapshot_from_json(obj: dict) -> tuple[EvolutionConfig, float, np.ndarray]:
    """Parse a snapshot dict back into (config, time, packed (points, fiber)).

    Raises ValueError on malformed or mistyped values and on any non-finite
    number: Python's json accepts NaN and Infinity tokens, and they must
    not reach the evolver.
    """
    obj = _json_object(obj, "snapshot")
    cfg = config_from_json(obj["config"])
    values = obj["values"]
    if not isinstance(values, list) or len(values) != cfg.points:
        raise ValueError(f"snapshot needs a list of {cfg.points} grid values")
    half = cfg.fiber // 2
    data = np.empty((cfg.points, cfg.fiber), dtype=complex)
    for j, entry in enumerate(values):
        entry = _json_object(entry, f"grid value {j}")
        pairs = np.asarray([entry["phi1"], entry["phi2"]])
        if pairs.shape != (2, half, 2) or pairs.dtype.kind not in "iuf":
            raise ValueError(f"grid value {j} needs phi1 and phi2 as {half} [re, im] number pairs")
        data[j] = pairs.reshape(-1, 2).astype(float).view(complex)[:, 0]
    time = obj.get("time", 0.0)
    if not (_is_number(time) and math.isfinite(time) and np.all(np.isfinite(data))):
        raise ValueError("snapshot holds a non-finite or non-numeric value")
    return cfg, float(time), data


def green_residual(result: GridField, source: GridField) -> float:
    """Relative interior residual of (D + i m) G f = f.

    Uses centered differences and drops two levels at each end of the time
    axis, where the one-sided derivatives inside the Green application
    contaminate the comparison. Raises ValueError when the two fields were
    built for different configs.
    """
    cfg = result.config
    if source.config != cfg:
        raise ValueError(f"result was built for {cfg}, source for {source.config}")
    if cfg.steps < 6:
        raise ValueError("need more time levels for an interior residual")
    u = result.data
    du_t = np.subtract(u[2:], u[:-2])
    du_t /= 2.0 * cfg.dt
    diff = _dirac(cfg, u[1:-1], du_t, 1.0)
    diff -= source.data[1:-1]
    # drop one more level at each time end (one-sided derivatives inside the
    # Green application live there) and the two seam columns the z-difference wraps
    interior = diff[1:-1, 1:-1]
    scale = max(float(np.max(np.abs(source.data))), 1e-300)
    return float(np.max(np.abs(interior)) / scale)

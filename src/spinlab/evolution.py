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
operator use (Gamma0, Gamma3, A, B and the currents X^a = P Gamma(e^a)) is a
generalized permutation matrix: one nonzero per row, because
Gamma(e^a) = kron(G(e^a), I) and P = kron(P_0, W_k) are. ``higher_spin``
owns that layout and hands them out as column maps: ``symbol_columns``
gives Gamma0 and Gamma3 one shared map and a weight each, ``pairing_columns``
gives P's, and A, B and X^a are composed from those maps; no dense fiber
matrix is built. The shared map is an involution, so A is diagonal with
entries +-1 in the packed chiral basis and the system is already in
characteristic form: each packed component moves left or right at unit
speed. One helper, ``_first_order``, builds the leapfrog's first-order operator

    L u = A D_z u + B u

on one level, applying A D_z as one multiply of the z-difference by a
level-shaped weight and B as a gather and a scale, u[..., cols] * w. The
Green operator (sigma = -1) and its residual (sigma = +1) apply the Dirac
operator a block of levels at a time through ``_dirac_levels``,

    (D + sigma i m) u = Gamma0 d_t u + Gamma3 D_z u + sigma i m u.

The two derivatives, each scaled by a weight indexed by source column, are
summed and gathered once per block; no level is divided. Both operators cost
N F work per level instead of the N F^2 of a dense product. X^0 and X^3
share their columns by construction, so the divergence fold gathers once for
both. One public generator, ``leapfrog``, is the only time-stepping loop; it
holds two levels and overwrites each yielded level two steps on. The folds
``conservation_fold`` and ``divergence_fold`` take its levels as they
arrive; ``evolve`` stores them, and ``conservation_report`` and
``divergence_check`` fold a stored field, for the benchmark's stored-field
workload. The causality audit reduces |u| over at most two contiguous row
slices per level, the rows outside the cone. ``_float_range`` is the one
owner of arithmetic that leaves the float range: each level of the stream,
the folds and each block of the Green operator runs under it and stops with
OverflowError; a block that fails names its first bad level.

The retarded Green operator is that of the cylinder R x S^1 the evolver
runs on: it convolves the source with the periodic kernel
E_per(t, z) = sum_j E(t, z + j L), the image sum of the sampled retarded
kernel, over the whole (t, z) grid, then applies D - i m to the result a
block of levels at a time, in place. It acts per fiber component for any
twist (k, l): E is scalar and Gamma(e^a) = kron(G(e^a), I) touches only the
chiral axes, so the twisted operator is the untwisted one applied per twist
slot. The convolution is cyclic in z, at size n, and
linear in t, at the first 5-smooth size >= n_t + t1, where t1 is the
source's last nonzero level. The kernel is real, so each nonzero real or
imaginary part of a fiber component convolves to a real output on its own:
its levels up to t1 take one real transform along z, and the inverse real
transform writes the result straight into that part of u. The source is
scanned a block of levels at a time, the kernel is kept as the quarter of its
spectrum that its symmetries leave, scaled once by the dt dz cell weight,
and one (n_fft, n // 2 + 1) spectrum is transformed in place for every
part; so the apply holds u, a spectrum the size of one fiber component
(a quarter field at k = 0) and the kernel's quarter at its peak, and the
kernel, built in blocks of levels, a few kernels. The Green operator's
level loops (the Dirac step, its residual and the source scan) take a
block of max(1, n_t // 64) levels per numpy call (``_block_length``), so
each holds a few blocks of at most 1/64 of the field, and the Dirac step
copies one level per block. The module needs numpy (>= 2.0, for the
transforms' ``out=``) alone: J0 is a trapezoid sum, or Hankel's
asymptotic form for large arguments, and the transforms are numpy.fft.
"""

from __future__ import annotations

import math
import numbers
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields

import numpy as np

from .clifford import InvariantViolation
from .higher_spin import (
    KNotEqualL,
    fiber_dim,
    pairing_columns,
    symbol_columns,
    symbol_matrix,
)
from .minkowski import LorentzVector


class CFLViolation(ValueError):
    """Raised when the time step breaks the unit-speed or leapfrog stability bound."""


class ZeroProjection(RuntimeError):
    """Raised for p = m = 0, where s(P) + m vanishes and no plane-wave profile exists."""


@dataclass(frozen=True)
class EvolutionConfig:
    """Grid and equation parameters for one run.

    ``extent`` is the periodic domain length, ``points`` the number of
    cells (dz = extent / points), ``steps`` the number of time steps taken
    beyond the initial level. Each real, non-bool value is stored as a Python
    float, or an int for an integral k, l, points or steps (16.0 points is 16);
    any other value is refused with ValueError. The unit-speed constraint
    dt <= dz is enforced here; the stricter leapfrog bound dt sqrt(dz^-2 + m^2) < 1 is
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
        for name in ("mass", "k", "l", "extent", "points", "dt", "steps"):
            value = getattr(self, name)
            if isinstance(value, numbers.Real) and not isinstance(value, bool):
                size = name in ("k", "l", "points", "steps") and (
                    isinstance(value, numbers.Integral) or float(value).is_integer())
                object.__setattr__(self, name, int(value) if size else float(value))
        for name, kind, what in (("mass", numbers.Real, "a real number"),
                                 ("extent", numbers.Real, "a real number"),
                                 ("dt", numbers.Real, "a real number"),
                                 ("points", numbers.Integral, "an integer"),
                                 ("steps", numbers.Integral, "an integer")):
            value = getattr(self, name)
            if not isinstance(value, kind) or isinstance(value, bool):
                raise ValueError(f"{name} must be {what}, got {value!r}")
        if not all(math.isfinite(v) for v in (self.mass, self.extent, self.dt)):
            raise ValueError("mass, extent, dt must be finite")
        if self.points < 8:
            raise ValueError("need at least 8 grid points")
        if self.extent <= 0 or self.dt <= 0 or self.steps < 1:
            raise ValueError("extent, dt, steps must be positive")
        fiber_dim(self.k, self.l)  # raises ValueError on a negative or non-integral twist rank
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
    coordinates. It is the Green operator's source and result, and what
    ``evolve`` stores; reductions take levels from ``leapfrog`` instead.
    """

    config: EvolutionConfig
    data: np.ndarray

    def __post_init__(self) -> None:
        expect = (self.config.steps + 1, self.config.points, self.config.fiber)
        data = np.asarray(self.data, dtype=complex)
        if data.shape != expect:
            raise ValueError(f"data shape {data.shape}, expected {expect}")
        object.__setattr__(self, "data", data)


@contextmanager
def _float_range(message: str | Callable[[], str]) -> Iterator[None]:
    """Run the block under raising numpy flags, as OverflowError(message); never around a yield.

    ``message`` may be a function, called only on failure, that names where
    the block failed, such as the first bad level of a block of levels.
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError:
        raise OverflowError(message() if callable(message) else message) from None


def _max_abs(x: np.ndarray, out: np.ndarray | None = None) -> float:
    """max |x| in a ``_float_range`` block, NaN kept: np.abs of a complex whose modulus
    passes the largest float gives inf without numpy's overflow flag, so that inf raises."""
    peak = np.max(np.abs(x, out=out))
    if np.isinf(peak):
        raise FloatingPointError("overflow encountered in absolute")
    return peak


def _block_length(levels: int) -> int:
    """Levels per block in the Green operator's level loops: max(1, levels // 64).

    A block is at most 1/64 of a field's levels, so the loops' few block
    buffers stay a fixed, small fraction of the field whatever its shape. At
    1024 points (513 levels of 64 KB at k = 0) the Dirac step's block
    buffers and the block of u it reads take about 1.7 MB, inside a 2 MB
    per-core L2 cache.
    """
    return max(1, levels // 64)


def _level_peaks(block: np.ndarray, out: np.ndarray) -> np.ndarray:
    """max |level| of each level of a (levels, points, fiber) block, its moduli written into
    ``out``. A NaN or inf entry, or a finite one whose modulus passes the largest float (see
    ``_max_abs``), gives its level a non-finite peak and raises no numpy flag."""
    return np.abs(block, out=out).reshape(len(block), -1).max(axis=1)


def _first_past(block: np.ndarray, out: np.ndarray) -> int:
    """The first level of ``block`` whose peak (``_level_peaks``) is not finite."""
    return int(np.argmin(np.isfinite(_level_peaks(block, out))))


def _source_peaks(block: np.ndarray, t0: int, out: np.ndarray) -> np.ndarray:
    """``_level_peaks`` of the source levels t0, t0 + 1, .. in ``block``, checked.

    The first level whose peak is not finite decides: ValueError naming it
    when it holds a NaN or inf entry, else FloatingPointError, for the
    caller's ``_float_range``, as a finite entry's modulus passes the float
    range. Only a failed block is rescanned.
    """
    peaks = _level_peaks(block, out)
    if not np.isfinite(peaks).all():
        t = int(np.argmin(np.isfinite(peaks)))
        if not np.isfinite(block[t]).all():
            raise ValueError(f"source level {t0 + t} holds a non-finite value")
        raise FloatingPointError("overflow encountered in absolute")
    return peaks


def level_maxima(data: np.ndarray) -> np.ndarray:
    """max |level| of each level of a (levels, points, fiber) field, a block of levels at a time."""
    size = _block_length(len(data))
    mag, peaks = np.empty((size,) + data.shape[1:]), np.empty(len(data))
    for t0 in range(0, len(data), size):
        block = data[t0 : t0 + size]
        peaks[t0 : t0 + len(block)] = _level_peaks(block, mag[: len(block)])
    return peaks


def _periodic_difference(u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = u[j + 1] - u[j - 1] along axis 0, periodic, with no temporary."""
    np.subtract(u[2:], u[:-2], out=out[1:-1])
    np.subtract(u[1:2], u[-1:], out=out[:1])
    np.subtract(u[:1], u[-2:-1], out=out[-1:])
    return out


def _first_order(cfg: EvolutionConfig):
    """L u = A D_z u + B u on one (points, fiber) level, the leapfrog's right-hand side.

    L writes into one buffer it owns, so its result is overwritten by the
    next call. Gamma0 and Gamma3 share one map, so row i of A = -Gamma0 Gamma3
    holds -w0[i] w3[cols[i]] in column cols[cols[i]]: InvariantViolation unless
    the map is an involution, that is unless A is diagonal in the packed basis.
    """
    cols, (w0, w3) = symbol_columns(cfg.k, cfg.l, 0, 3)
    if not np.array_equal(cols[cols], np.arange(cfg.fiber)):
        raise InvariantViolation("A = -Gamma0 Gamma3 is not diagonal in the packed basis")
    a_w = -w0 * w3[cols]
    # Calls write into preallocated levels (mode="clip" keeps take unbuffered):
    # level-sized temporaries every step make glibc trim and refault its heap.
    out, term = np.empty((2, cfg.points, cfg.fiber), dtype=complex)
    # Level-shaped weights: a multiply by a (fiber,) row broadcast along the
    # points costs about three same-shape multiplies. a_w = +-1, so folding
    # 1/(2 dz) into it rounds exactly; folding dt in would not.
    a_scale = np.broadcast_to(a_w * (1.0 / (2.0 * cfg.dz)), out.shape).copy()
    b_scale = np.broadcast_to(-1j * cfg.mass * w0, out.shape).copy()

    def rhs(u):
        """L u into ``out``; A is diagonal, so A D_z is a scale."""
        np.multiply(_periodic_difference(u, out), a_scale, out=out)
        np.multiply(np.take(u, cols, axis=1, out=term, mode="clip"), b_scale, out=term)
        return np.add(out, term, out=out)

    return rhs


def _dirac_levels(
    cfg: EvolutionConfig, u: np.ndarray, sigma: float
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (t0, block), rows t0, t0 + 1, .. of (D + sigma i m) u, a block of levels at a time.

    Row t is Gamma0 d_t u[t] + Gamma3 D_z u[t] + sigma i m u[t], with d_t the
    centered difference inside and the one-sided first difference at the
    two ends, levels 0 and steps. Blocks hold ``_block_length`` levels, the
    last one what is left. Gamma0 and Gamma3 gather the same columns, so
    (d_t u) w0 + (D_z u) w3, with each weight indexed by source column and
    1/(2 dt) and 1/(2 dz) folded in, is gathered once per block; the
    one-sided differences are doubled (exactly) to share the 1/(2 dt)
    weight, and nothing is divided. Each entry takes the arithmetic of a
    level-by-level step, so the result does not depend on the block length.
    Each yielded block is one reused buffer. u is never written: a block's
    first row reads the level before it from one copied level, the halo,
    taken before the previous block is yielded, so a caller may overwrite
    u[t0 : t0 + len(block)] with the block it gets. Raises InvariantViolation
    unless Gamma0 and Gamma3 gather the same columns, each column once, and
    OverflowError naming the first level that overflows: only a block that
    fails is rerun, a level at a time, to find it.
    """
    cols, (w0, w3) = symbol_columns(cfg.k, cfg.l, 0, 3)
    steps, size = cfg.steps, _block_length(cfg.steps + 1)
    # level-shaped weights (see _first_order) indexed by source column:
    # x[..., cols] * w == (x * v)[..., cols] for v[cols] = w, as cols is a permutation
    halo, t_scale, z_scale = np.empty((3, cfg.points, cfg.fiber), dtype=complex)
    scratch, out = np.empty((2, size, cfg.points, cfg.fiber), dtype=complex)
    t_scale[:, cols] = w0 * (1.0 / (2.0 * cfg.dt))
    z_scale[:, cols] = w3 * (1.0 / (2.0 * cfg.dz))
    mass = sigma * 1j * cfg.mass
    sign = "+" if sigma > 0 else "-"

    def step(t0: int, t1: int, before: np.ndarray) -> np.ndarray:
        """Rows t0 .. t1 - 1 into ``out``; ``before`` stands for u[t0 - 1] in row 0."""
        cur, d_t, row = u[t0:t1], scratch[: t1 - t0], out[: t1 - t0]
        # rows 1 .. of levels t < steps are centered, u[t + 1] - u[t - 1], and
        # level steps reads u[steps] itself
        last = min(t1, steps)
        np.subtract(u[t0 + 2 : last + 1], u[t0 : last - 1], out=d_t[1 : last - t0])
        np.subtract(u[min(t0 + 1, steps)], before, out=d_t[0])
        if t0 == 0:
            d_t[0] *= 2.0  # a one-sided difference spans dt, not 2 dt
        if t1 > steps:
            if len(d_t) > 1:
                np.subtract(u[steps], u[steps - 1], out=d_t[-1])
            d_t[-1] *= 2.0
        d_t *= t_scale
        _periodic_difference(cur.swapaxes(0, 1), row.swapaxes(0, 1))  # D_z u into row
        d_t += np.multiply(row, z_scale, out=row)
        np.take(d_t, cols, axis=2, out=row, mode="clip")
        row += np.multiply(cur, mass, out=d_t)
        return row

    def first_overflow(t0: int, t1: int) -> int:
        """The block's first level whose row overflows on its own; a level after t0 reads
        u[t - 1], which the caller has not overwritten yet."""
        for t in range(t0, t1 - 1):
            try:
                with _float_range(""):
                    step(t, t + 1, halo if t == t0 else u[t - 1])
            except OverflowError:
                return t
        return t1 - 1

    np.copyto(halo, u[0])  # at t = 0 the copy of u[0] stands in for u[-1]
    for t0 in range(0, steps + 1, size):
        t1 = min(t0 + size, steps + 1)
        with _float_range(lambda: f"(D {sign} i m) u overflows at level {first_overflow(t0, t1)}"):
            block = step(t0, t1, halo)
        np.copyto(halo, u[t1 - 1])
        yield t0, block


def _coerce_initial(phi0, cfg: EvolutionConfig) -> np.ndarray:
    arr = np.asarray(phi0, dtype=complex)
    if arr.shape != (cfg.points, cfg.fiber):
        raise ValueError(f"initial data shape {arr.shape}, expected {(cfg.points, cfg.fiber)}")
    if not np.isfinite(arr).all():
        raise ValueError("initial data holds a non-finite value")
    return arr


def leapfrog(phi0, cfg: EvolutionConfig) -> Iterator[np.ndarray]:
    """Yield the levels u^0 .. u^steps from packed initial data, holding two.

    L = A D_z + B comes from ``_first_order``. The first step is the
    Taylor half-step u^1 = u^0 + dt L u^0 + (dt^2/2)(D2 - m^2) u^0 with D2
    the one-cell second difference; it matches L^2 through the operator
    identities in the module docstring, so no extra reach and no
    first-order startup error is introduced. Later levels are updated in
    place. The contract: the array yielded as u^n is overwritten with
    u^(n+2), so u^n stays valid while u^(n+1) is yielded and a caller that
    keeps a level longer copies it; the last level is never overwritten.
    Raises ValueError on misshapen or non-finite initial data and CFLViolation
    before the first level, and OverflowError("level n of the run is not
    finite"), never a numpy warning, in place of a level n that overflows.
    """
    u0 = _coerce_initial(phi0, cfg)
    dz, dt = cfg.dz, cfg.dt
    if dt * math.sqrt(dz**-2 + cfg.mass**2) >= 1.0:
        raise CFLViolation(
            f"leapfrog needs dt sqrt(dz^-2 + m^2) < 1; dt = {dt}, dz = {dz}, m = {cfg.mass}"
        )
    rhs = _first_order(cfg)
    prev = u0.copy()
    yield prev
    for n in range(1, cfg.steps + 1):
        with _float_range(f"level {n} of the run is not finite"):
            if n == 1:
                lap = np.roll(prev, -1, axis=0) - 2.0 * prev + np.roll(prev, 1, axis=0)
                cur = prev + dt * rhs(prev) + 0.5 * dt**2 * (lap / dz**2 - cfg.mass**2 * prev)
            else:
                step = rhs(cur)
                prev += np.multiply(step, 2.0 * dt, out=step)
                prev, cur = cur, prev
        yield cur


def evolve(phi0, cfg: EvolutionConfig) -> GridField:
    """Run the leapfrog scheme from packed (points, fiber) initial data.

    All time levels are stored; see ``leapfrog`` for the scheme and its
    stability bound.
    """
    out = np.empty((cfg.steps + 1, cfg.points, cfg.fiber), dtype=complex)
    for n, u in enumerate(leapfrog(phi0, cfg)):
        out[n] = u
    return GridField(cfg, out)


def final_level(phi0, cfg: EvolutionConfig) -> np.ndarray:
    """The last level u^steps of a run, stepped with two levels held."""
    return deque(leapfrog(phi0, cfg), maxlen=1)[0]


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

    ``branch`` picks the frequency sign s in exp(-i (s omega t - p z)),
    ``pol`` picks the twist slot (0 .. (k+1)(l+1)-1) the wave rides on.
    Per slot, s(P) + m maps line 0 to m e0 + b e2 and line 1 to m e1 + a e3,
    b = s omega - p, a = s omega + p, a b = m^2. The profile is (m, b) / hypot
    on lines 0 and 2, b = m^2 / a where s omega - p would cancel (s p > 0), or
    e3 sign(a) at m = b = 0; p = m = 0 raises ZeroProjection. The 4 x 4 symbol, applied
    per twist slot and rounding at about 2 eps omega, checks it to 1e-12 max(1, omega).
    A non-finite p or mass raises ValueError, and an omega past the float
    range OverflowError, before the symbol is built.
    """
    if not (math.isfinite(p) and math.isfinite(mass)):
        raise ValueError(f"p and mass must be finite, got p = {p}, mass = {mass}")
    if branch not in ("+", "-"):
        raise ValueError("branch must be '+' or '-'")
    dim = fiber_dim(k, l)  # refuses a negative rank before pol is read against it
    twist_slots = dim // 4
    if not 0 <= pol < twist_slots:
        raise ValueError(f"pol must be in 0..{twist_slots - 1}")
    if p == 0 and mass == 0:
        raise ZeroProjection("p = m = 0: s(P) + m is zero, so no profile is on shell")
    omega = float(np.sqrt(p * p + mass * mass))  # a Python float overflows to inf silently
    if not math.isfinite(omega):
        raise OverflowError(f"omega = sqrt(p^2 + m^2) overflows at p = {p}, mass = {mass}")
    sign = +1.0 if branch == "+" else -1.0
    a = sign * omega + p
    b = mass * mass / a if sign * p > 0 else sign * omega - p
    u = np.zeros(dim, dtype=complex)
    if mass == 0 and b == 0:
        u[3 * twist_slots + pol] = a / abs(a)
    else:
        u[[pol, 2 * twist_slots + pol]] = np.array([mass, b]) / math.hypot(mass, b)
    p_cov = LorentzVector(np.array([sign * omega, 0.0, 0.0, -p]), covariant=True)
    lines = u.reshape(4, twist_slots)
    residual = float(np.linalg.norm(symbol_matrix(0, 0, p_cov) @ lines - mass * lines))
    if not residual <= 1e-12 * max(1.0, omega):
        raise InvariantViolation(f"plane wave off shell: residual {residual:.3e}")
    return PlaneWave(u, omega, p, sign)


def _currents(cfg: EvolutionConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(cols, x0, x3) of X^a = P Gamma^a: P's column map composed with that of Gamma0 and Gamma3."""
    if cfg.k != cfg.l:
        raise KNotEqualL("slice products need k = l")
    p_cols, p_w = pairing_columns(cfg.k)
    cols, (w0, w3) = symbol_columns(cfg.k, cfg.l, 0, 3)
    return cols[p_cols], p_w * w0[p_cols], p_w * w3[p_cols]


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
    Raises ValueError on empty or unequal streams, and OverflowError("the slice
    product at level n is not finite") at the first such n, or when the drift overflows.
    """
    cols, w0, _ = _currents(cfg)
    if levels_b is None:
        pairs = ((u, u) for u in levels_a)
    else:
        pairs = zip(levels_a, levels_b, strict=True)
    scratch = np.empty((2, cfg.points, cfg.fiber), dtype=complex)
    values = []
    for n, (a, b) in enumerate(pairs):
        with _float_range(f"the slice product at level {n} is not finite"):
            if n == 0:
                scale = cfg.dz * float(np.linalg.norm(a) * np.linalg.norm(b))
            prod = np.conjugate(a, out=scratch[0])
            prod *= np.take(b, cols, axis=1, out=scratch[1], mode="clip")
            values.append(np.sum(prod @ w0) * cfg.dz)
        if not np.isfinite(values[-1]):
            raise OverflowError(f"the slice product at level {n} is not finite")
    if not values:
        raise ValueError("the level stream is empty")
    values = np.array(values)
    denom = max(abs(values[0]), 1e-9 * scale, 1e-300)
    with _float_range("the slice-product drift is not finite"):
        drift = float(_max_abs(values - values[0]) / denom)
    return {"values": values, "initial": complex(values[0]), "drift": drift, "denominator": denom}


def divergence_fold(
    cfg: EvolutionConfig, levels_a: Iterable[np.ndarray], levels_b: Iterable[np.ndarray]
) -> float:
    """Max interior residual of d_t X^0 + d_z X^3 for the pair current of two runs.

    X^a(t, z) = <A, s(e^a) B> pointwise; both derivatives are centered, so
    the residual is evaluated on interior time levels only. For two
    solutions of the evolved equation this is a discrete conservation law
    and the residual converges to zero at second order. X^0 and X^3 gather
    the same fiber columns, so one gather of B's level and one
    (2, fiber) x (fiber, points) product give both densities; the fold keeps
    those of the last three levels. Raises ValueError when the streams are
    of unequal lengths or hold fewer than three levels, InvariantViolation unless Gamma0
    and Gamma3 share one column map, and OverflowError("the pair current at level n is not finite").
    """
    cols, w0, w3 = _currents(cfg)
    # one product gives both densities, pre-scaled: X^0 / (2 dt) and X^3 / (2 dz)
    weights = np.stack([w0 / (2.0 * cfg.dt), w3 / (2.0 * cfg.dz)])
    scratch = np.empty((2, cfg.points, cfg.fiber), dtype=complex)
    # the densities of the last three levels, rotating: before, here, ahead
    dens = np.empty((3, 2, cfg.points), dtype=complex)
    gap, dz_cur = np.empty(cfg.points, dtype=complex), np.empty(cfg.points, dtype=complex)
    mag = np.empty(cfg.points)
    # np.maximum, unlike max(), keeps a NaN residual visible in the result
    worst, n = 0.0, -1
    for n, (a, b) in enumerate(zip(levels_a, levels_b, strict=True)):
        before, here, ahead = dens[(n - 2) % 3], dens[(n - 1) % 3], dens[n % 3]
        with _float_range(f"the pair current at level {n} is not finite"):
            prod = np.conjugate(a, out=scratch[0])
            prod *= np.take(b, cols, axis=1, out=scratch[1], mode="clip")
            np.matmul(weights, prod.T, out=ahead)
            if n >= 2:
                np.subtract(ahead[0], before[0], out=gap)
                gap += _periodic_difference(here[1], dz_cur)
                worst = np.maximum(worst, _max_abs(gap, mag))
    if n < 2:
        raise ValueError("need at least 3 time levels for a centered residual")
    return float(worst)


def conservation_report(fa: GridField, fb: GridField | None = None) -> dict:
    """``conservation_fold`` over the stored levels of one field or two."""
    return conservation_fold(fa.config, fa.data, None if fb is None else fb.data)


def divergence_check(fa: GridField, fb: GridField) -> float:
    """``divergence_fold`` over the stored levels of two fields."""
    return divergence_fold(fa.config, fa.data, fb.data)


def _max_outside(mag: np.ndarray, lo: int, hi: int) -> float:
    """Max of ``mag`` over the rows outside the periodic row range lo .. hi.

    lo may be negative and hi may pass the last row; the range wraps. The
    rows outside form one contiguous periodic run, so this is the max of at
    most two slices: 0.0 when the range covers every row, NaN when an
    outside row holds one.
    """
    n = mag.shape[0]
    outside = n - (hi - lo + 1)
    if outside <= 0:
        return 0.0
    start = (hi + 1) % n
    stop = start + outside
    if stop <= n:
        return np.max(mag[start:stop])
    return np.maximum(np.max(mag[start:]), np.max(mag[: stop - n]))


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
    # np.maximum, unlike max(), keeps a NaN level visible in the result
    peak = exact_outside = cone_leak = 0.0
    # one |u| buffer for every level: a level-sized temporary per step makes
    # glibc trim and refault its heap (see _first_order)
    mag = np.empty(u0.shape)
    for n, u in enumerate(leapfrog(u0, cfg)):
        np.abs(u, out=mag)
        peak = np.maximum(peak, np.max(mag))
        exact_outside = np.maximum(exact_outside, _max_outside(mag, ia - n, ib + n))
        width = int(np.ceil(n * cfg.dt / cfg.dz)) + 3
        cone_leak = np.maximum(cone_leak, _max_outside(mag, ia - width, ib + width))
    peak, cone_leak = float(peak), float(cone_leak)
    return {
        "exact_outside": float(exact_outside),
        "cone_leak": cone_leak,
        "peak": peak,
        # a NaN peak keeps the ratio NaN; only an all-zero run reads 0.0
        "cone_leak_rel": cone_leak / peak if peak != 0 else 0.0,
    }


#: J0 takes Hankel's asymptotic form above this argument, the trapezoid sum at or below it.
_HANKEL_SWITCH = 100.0
#: c_n = prod_{j <= n} (2j - 1)^2 / (n! 8^n), n < 12: Hankel's P and Q at order 0 by powers of 1/x.
_HANKEL_COEFFS = np.cumprod([1.0] + [(2 * n - 1) ** 2 / (8 * n) for n in range(1, 12)])
_HANKEL_COEFFS.flags.writeable = False


def _trapezoid_j0(x: np.ndarray, top: float | None = None) -> np.ndarray:
    """J0(x) = (2/pi) int_0^{pi/2} cos(x sin theta) d theta (A&S 9.1.18), by the midpoint rule.

    The M midpoints on [0, pi/2] are, by the symmetries of sin, the periodic
    trapezoid rule with N = 4M nodes on the circle. It integrates every
    term of cos(x sin t) = J0(x) + 2 sum_m J_2m(x) cos(2mt) exactly but the
    aliases 2m = jN, so its error is at most 2 sum_{j >= 1} |J_jN(x)|, about
    2 (x/2)^N / N! (Trefethen and Weideman, SIAM Review 2014). M is the
    smallest count that puts that bound under 2^-56 at ``top``, by default
    the largest |x| given; every x shares the nodes, and the cost grows
    linearly with them.
    """
    if top is None:
        top = float(np.max(np.abs(x), initial=0.0))
    log_half_top = math.log(max(top, 1e-300) / 2)
    nodes = 1
    # the log of the bound 2 (top/2)^N / N! with N = 4 * nodes, against log 2^-56
    while 4 * nodes * log_half_top - math.lgamma(4 * nodes + 1) > -57 * math.log(2):
        nodes += 1
    total = np.zeros_like(x)
    for s in np.sin((np.arange(nodes) + 0.5) * (np.pi / (2 * nodes))):
        total += np.cos(x * s)
    return total / nodes


def _hankel_j0(x: np.ndarray) -> np.ndarray:
    """J0(x) for x > _HANKEL_SWITCH by Hankel's asymptotic expansion (A&S 9.2.5, 9.2.9, 9.2.10).

    J0 = sqrt(2 / (pi x)) (P cos chi - Q sin chi) with chi = x - pi/4,
    P = sum_k (-1)^k c_2k x^-2k and Q = sum_k (-1)^(k+1) c_2k+1 x^-(2k+1).
    For real x the error of a truncated P or Q is below its first omitted
    term; at x = 100 that is c_12 / 100^12 < 1e-20. The form
    ((P + Q) cos x + (P - Q) sin x) / sqrt(pi x) never rounds chi, which
    would cost an absolute error of about x eps sqrt(2 / (pi x)). Neither
    x^2 nor pi x is formed, so every finite x stays in the float range.
    """
    y = -((1.0 / x) ** 2)
    # P and -x Q are polynomials in y = -1/x^2; np.polyval takes the highest power first
    p = np.polyval(_HANKEL_COEFFS[::2][::-1], y)
    q = -np.polyval(_HANKEL_COEFFS[1::2][::-1], y) / x
    return ((p + q) * np.cos(x) + (p - q) * np.sin(x)) / (math.sqrt(math.pi) * np.sqrt(x))


def _bessel_j0(x, top: float | None = None) -> np.ndarray:
    """J0 by the trapezoid sum up to |x| = _HANKEL_SWITCH and Hankel's form beyond.

    The switch caps the trapezoid's node count (43 at 100), so the work per
    argument is bounded for any finite x. The node count serves the
    arguments up to ``top`` (capped at the switch), by default those given,
    so a caller that splits one set of arguments into parts gets the values
    of one call. A NaN or infinite argument raises ValueError: no node count
    reaches it.
    """
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("J0 needs finite arguments")
    near_top = None if top is None else min(top, _HANKEL_SWITCH)
    far = np.abs(x) > _HANKEL_SWITCH
    if not far.any():
        return _trapezoid_j0(x, near_top)
    out = np.empty_like(x)
    out[far] = _hankel_j0(np.abs(x[far]))
    out[~far] = _trapezoid_j0(x[~far], near_top)
    return out


def retarded_kernel(cfg: EvolutionConfig) -> np.ndarray:
    """Sampled periodic retarded scalar kernel on the aligned dt = dz grid.

    E(t, z) = (1/2) theta(t - |z|) J0(m sqrt(t^2 - z^2)) with trapezoid
    weights: 1 inside the cone, 1/2 on the boundary t = |z| (which lies on
    grid points because dt = dz), 1/4 at the apex. The z-axis is the circle
    of length L = points dz, so the kernel is the image sum
    E_per(t, z) = sum_j E(t, z + j L), summed over every image j whose
    offsets d = z / dz + j points reach the cone, |d| <= steps. Shape
    (steps + 1, points), column j at z = j dz. Raises ValueError off
    the aligned grid, where the cone edge falls between grid points and
    those weights would land on the wrong samples.

    On the lattice, m sqrt(t^2 - z^2) = m dz sqrt(q) with the integer
    q = level^2 - d^2. The cone is built and folded by its images in blocks
    of points // 4 levels, so each block's cone cells number at most a
    quarter of the kernel's and its temporaries stay within a few kernels
    whatever the steps. Every block takes J0's node count from the kernel's
    largest argument, m dz steps, so a block's values do not depend on
    where the blocks split.
    """
    if abs(cfg.dt - cfg.dz) > 1e-12 * cfg.dz:
        raise ValueError("retarded kernel needs the aligned grid dt = dz")
    n_t, n_pts = cfg.steps + 1, cfg.points
    # the largest argument, m dz sqrt(steps^2), in the order numpy forms them all below;
    # a Python float overflows to inf without a warning
    top = abs(cfg.mass) * cfg.dz * cfg.steps  # J0 is even; a negative top would take one node
    if not math.isfinite(top):
        raise ValueError(f"the kernel's largest argument m dz steps overflows at mass {cfg.mass}")
    kernel = np.zeros((n_t, n_pts))
    block = n_pts // 4  # at least 2: a config has 8 points or more
    for start in range(0, n_t, block):
        level = np.arange(start, min(start + block, n_t))
        reach = int(level[-1])  # the block's largest offset |d|
        # the cone cells of these levels, |d| = 0 .. t on level t, as one flat run
        width = level + 1
        row = np.repeat(level, width)
        dist = np.arange(row.size) - np.repeat(np.cumsum(width) - width, width)
        cone = np.zeros((level.size, reach + 1))  # E at these levels and |d| = 0 .. reach
        args = cfg.mass * cfg.dz * np.sqrt(row**2 - dist**2)
        cone[row - start, dist] = 0.5 * _bessel_j0(args, top)
        cone[level - start, level] *= 0.5  # the edge t = |d|
        if start == 0:
            cone[0, 0] *= 0.5  # the apex: 1/4
        # column i of line holds the offset d = i - reach; image j puts d = z + j n in column z
        line = np.concatenate([cone[:, :0:-1], cone], axis=1)
        for image in range((-reach) // n_pts, reach // n_pts + 1):
            first = image * n_pts + reach
            lo, hi = max(0, -first), min(n_pts, line.shape[1] - first)
            kernel[start : start + level.size, lo:hi] += line[:, first + lo : first + hi]
    return kernel


def _smooth_length(n: int) -> int:
    """The smallest length >= n with no prime factor above 5, a fast FFT size."""
    while True:
        rest = n
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return n
        n += 1


def _kernel_spectrum(kernel: np.ndarray, n_fft: int) -> np.ndarray:
    """A quarter of the kernel's 2-D DFT, zero-padded to n_fft levels: rows 0 .. n_fft // 2.

    E_per is real and even in z, so its z-spectrum is real: one real
    transform along z and one along t give the k = 0 .. n/2 columns of the
    (n_fft, points) spectrum, the columns a real z-transform of a source
    keeps, over rows 0 .. n_fft / 2; the other rows follow by
    X[-w, k] = conj(X[w, k]) (``_times_kernel_spectrum``). Shape
    (n_fft // 2 + 1, points // 2 + 1).
    """
    return np.fft.rfft(np.fft.rfft(kernel, axis=1).real, n=n_fft, axis=0)


def _times_kernel_spectrum(spec: np.ndarray, quarter: np.ndarray) -> None:
    """spec *= the (n_fft, points // 2 + 1) kernel spectrum, read from its quarter in place.

    Rows past n_fft / 2 read the quarter's rows in reverse, conjugated:
    a conj(b) is conj(conj(a) b) and conjugation is exact, so those rows of
    spec are conjugated in place, multiplied and conjugated back, with no
    conjugated copy, and every product is bitwise that of the full rows'.
    """
    rows = len(quarter)
    spec[:rows] *= quarter
    low = np.conjugate(spec[rows:], out=spec[rows:])
    low *= quarter[1 : (len(spec) + 1) // 2][::-1]
    np.conjugate(low, out=low)


def _source_support(f: np.ndarray) -> tuple[int, np.ndarray]:
    """(t1, components): where a (levels, points, fiber) source is nonzero.

    t1 is its last nonzero level and components the indices of its nonzero
    fiber components (empty, with t1 = -1, for an all-zero source). The
    scan takes |f| a block of levels at a time (``_block_length``) into one
    block-sized buffer, keeps each level's max and folds the block into a
    running max over levels, from which the component maxima are read, so
    it holds no field-sized temporary. The level peaks come from
    ``_source_peaks``, so a NaN or infinite entry, which the transforms would
    otherwise spread over a whole output component, is refused with
    ValueError naming its first level, and a finite entry whose modulus
    passes the float range raises FloatingPointError.
    """
    size = _block_length(len(f))
    amp, block_max = np.empty((size,) + f.shape[1:]), np.empty(f.shape[1:])
    columns = np.zeros(f.shape[1:])
    levels = np.empty(len(f))
    for t0 in range(0, len(f), size):
        block = f[t0 : t0 + size]
        mag = amp[: len(block)]
        levels[t0 : t0 + len(block)] = _source_peaks(block, t0, mag)
        np.maximum(columns, np.max(mag, axis=0, out=block_max), out=columns)
    components = np.flatnonzero(columns.max(axis=0))
    if components.size == 0:
        return -1, components
    return int(np.flatnonzero(levels)[-1]), components


def _retarded_convolution(f: np.ndarray, cfg: EvolutionConfig) -> np.ndarray:
    """u = E_per * f per fiber component, summed with the dt dz cell weight.

    The convolution is cyclic in z, at size n (the points), and linear in
    t, and it transforms each real or imaginary part of a fiber component
    that is not identically zero on its own: the kernel is real, so a real
    part convolves to a real output. A part's rows 0 .. t1 (t1 the source's
    last nonzero level; the leading rows stay, so the levels before the
    source are computed, not set to zero) take a real transform along z,
    whose n // 2 + 1 columns are all a real signal needs. Along t the FFT
    size is the first 5-smooth length >= n_t + t1 for n_t levels: the
    linear result spans n_t + t1 rows, so nothing wraps, and rows
    0 .. n_t - 1 are u. A zero part's output is exact zeros and an
    all-zero source runs no transform. The kernel is transformed once per
    call by real transforms, kept as the quarter of its spectrum they give
    (``_kernel_spectrum``) and scaled there by the dt dz cell weight; the
    kernel itself is dropped then. One (n_fft, n // 2 + 1) spectrum serves
    every part: the z-transform writes the part's rows into it, the rows
    after them are zeroed, the t-transform, the product with the kernel and
    the inverse t-transform run in place, and the inverse z-transform of
    the n_t kept levels is written straight into the part of u. So the call
    holds u, one spectrum the size of one fiber component and the kernel's
    quarter. ValueError on a non-finite source (see ``_source_support``),
    OverflowError when the source's modulus or the convolution leaves the
    float range.
    """
    with _float_range("the convolution E * f leaves the float range"):
        n_t, n_pts = cfg.steps + 1, cfg.points
        kernel = retarded_kernel(cfg)  # refuses a non-aligned grid, a zero source too
        t1, components = _source_support(f)
        u = np.zeros(f.shape, dtype=complex)
        if components.size == 0:
            return u
        n_fft = _smooth_length(n_t + t1)
        kernel_hat = _kernel_spectrum(kernel, n_fft)
        del kernel
        kernel_hat *= cfg.dt * cfg.dz
        spec = np.empty((n_fft, n_pts // 2 + 1), dtype=complex)
        for c in components:
            for part, dest in ((f.real, u.real), (f.imag, u.imag)):
                source = part[: t1 + 1, :, c]
                if not np.any(source):
                    continue
                np.fft.rfft(source, axis=1, out=spec[: t1 + 1])
                spec[t1 + 1 :] = 0.0
                np.fft.fft(spec, axis=0, out=spec)
                _times_kernel_spectrum(spec, kernel_hat)
                np.fft.ifft(spec, axis=0, out=spec)
                np.fft.irfft(spec[:n_t], n=n_pts, axis=1, out=dest[..., c])
        return u


def retarded_green_apply(source: GridField, cfg: EvolutionConfig) -> GridField:
    """Apply the retarded Green operator to a source field of any twist (k, l).

    Computes u = E_per * f, cyclic in z and a retarded sum in t, then
    G f = (D - i m) u = Gamma0 d_t u + Gamma3 D_z u - i m u a block of
    levels at a time (``_dirac_levels``), each block written over u in
    place, with D_z the leapfrog's periodic centered difference and d_t
    centered inside and one sided at the time ends. So the kernel, D and
    the leapfrog share the periodic grid's one boundary condition, and the
    Dirac step holds two blocks and three levels beyond u. Applying the
    equation operator (D + i m) to the result reproduces f up to
    discretization error on interior levels, on every column, and the
    output vanishes to round-off at levels more than one stencil width
    before the source support.

    Any twist (k, l) works: E is scalar and Gamma(e^a) = kron(G(e^a), I)
    acts on the chiral axes only, so u is convolved per fiber component.
    ValueError when ``cfg`` is not ``source.config`` or not aligned, and
    when the source holds a NaN or infinite value; OverflowError on overflow.
    """
    if source.config != cfg:
        raise ValueError(f"source was built for {source.config}, not {cfg}")
    u = _retarded_convolution(source.data, cfg)
    for t0, block in _dirac_levels(cfg, u, -1.0):
        u[t0 : t0 + len(block)] = block
    return GridField(cfg, u)


def config_to_json(cfg: EvolutionConfig) -> dict:
    return asdict(cfg)


def _json_object(obj, what: str) -> dict:
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(obj).__name__}")
    return obj


def config_from_json(obj: dict) -> EvolutionConfig:
    """Parse a config object: ValueError unless it is a JSON object, KeyError for a
    missing key; ``EvolutionConfig`` types and checks the seven values."""
    obj = _json_object(obj, "config")
    return EvolutionConfig(**{field.name: obj[field.name] for field in fields(EvolutionConfig)})


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
    numeric = isinstance(time, (int, float)) and not isinstance(time, bool)
    if not (numeric and math.isfinite(time) and np.all(np.isfinite(data))):
        raise ValueError("snapshot holds a non-finite or non-numeric value")
    return cfg, float(time), data


def green_residual(result: GridField, source: GridField) -> float:
    """Relative interior residual of (D + i m) G f = f.

    (D + i m) u = Gamma0 d_t u + Gamma3 D_z u + i m u is taken a block of
    levels at a time (``_dirac_levels``) with centered differences,
    periodic in z, on every column. The fold keeps max |(D + i m) u - f|
    over levels 2 .. steps - 2, so it drops two levels at each end of the
    time axis, where the one-sided derivatives inside the Green
    application contaminate the comparison, and max |f| over every level
    for the scale, each block's maxima in one call. The one whole-field
    temporary is the boolean mask of a single finiteness pass over
    ``result`` (1/16 of the field), reduced per level at once. Raises
    ValueError when the two fields were built for different configs and,
    naming the level, when ``result`` or ``source`` holds a NaN or inf. A
    finite result can still leave the float range, as G f carries m u and
    the fold multiplies it by m again: OverflowError names the level where
    (D + i m) u, or its gap to f, or the scale |f| of a finite source, does.
    Within a block these are checked in that order, so when two kinds of
    failure fall in one block, the first kind's first level is named.
    """
    cfg = result.config
    if source.config != cfg:
        raise ValueError(f"result was built for {cfg}, source for {source.config}")
    if cfg.steps < 6:
        raise ValueError("need more time levels for an interior residual")
    finite = np.isfinite(result.data).reshape(cfg.steps + 1, -1).all(axis=1)
    if not finite.all():
        raise ValueError(f"result level {int(np.argmin(finite))} holds a non-finite value")
    mag = np.empty((_block_length(cfg.steps + 1), cfg.points, cfg.fiber))
    worst = scale = 0.0
    for t0, block in _dirac_levels(cfg, result.data, 1.0):
        t1 = t0 + len(block)
        f = source.data[t0:t1]
        # an inf scale would divide worst to 0
        with _float_range(lambda: f"|f| at source level {t0 + _first_past(f, mag[: len(f)])} "
                          "leaves the float range"):
            scale = max(scale, _source_peaks(f, t0, mag[: len(f)]).max())
        lo, hi = max(t0, 2), min(t1, cfg.steps - 1)  # the block's interior levels
        if lo < hi:
            gap = block[lo - t0 : hi - t0]
            with _float_range(lambda: f"(D + i m) u - f overflows at level "
                              f"{lo + _first_past(gap, mag[: len(gap)])}"):
                gap -= source.data[lo:hi]
                worst = max(worst, _max_abs(gap, mag[: len(gap)]))
    with _float_range("the relative residual leaves the float range"):
        return float(worst / max(float(scale), 1e-300))

"""Leapfrog Cauchy evolution, conservation, causality, and the Green operator."""

import json
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import special

from spinlab import checks
from spinlab import evolution as ev
from spinlab import higher_spin as hs
from spinlab import minkowski as mk


def small_config(**overrides):
    params = dict(mass=1.0, k=0, l=0, extent=8.0, points=128, dt=0.03125, steps=32)
    params.update(overrides)
    return ev.EvolutionConfig(**params)


def bump(x):
    out = np.zeros_like(np.asarray(x, dtype=float))
    inside = np.abs(x) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - x[inside] ** 2))
    return out / np.exp(-1.0)


def test_config_rejects_superluminal_time_steps():
    with pytest.raises(ev.CFLViolation):
        small_config(dt=0.1)


def test_config_validates_grid_parameters():
    with pytest.raises(ValueError):
        small_config(points=4)
    with pytest.raises(ValueError):
        small_config(steps=0)
    with pytest.raises(ValueError):
        small_config(k=-1)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("k", 1.5, "twist ranks must be integers"),
        ("points", 16.5, "points must be an integer"),
        ("steps", 4.5, "steps must be an integer"),
        ("points", True, "points must be an integer"),
    ],
)
def test_config_refuses_a_non_integral_size(field, value, message):
    with pytest.raises(ValueError, match=message):
        small_config(**{field: value})


@pytest.mark.parametrize(
    "field, value",
    [("mass", "1"), ("mass", 1j), ("mass", True), ("extent", None), ("dt", False)],
    ids=["mass-str", "mass-complex", "mass-bool", "extent-none", "dt-bool"],
)
def test_config_refuses_a_parameter_that_is_not_a_real_number(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be a real number, got "):
        small_config(**{field: value})


def test_config_takes_numpy_integer_sizes():
    cfg = small_config(k=np.int64(1), l=np.int64(1), points=np.int64(16), steps=np.int32(4))
    assert cfg.fiber == 16 and cfg.zgrid().shape == (16,)
    # numpy scalars are real numbers too
    cfg = small_config(mass=np.float32(1.0), extent=np.int64(8), dt=np.float64(0.03125))
    assert cfg.dz == 0.0625


def test_config_stores_python_numbers_so_a_numpy_built_run_writes_json():
    cfg = small_config(mass=np.float32(1.0), k=np.int64(1), l=np.int64(1), extent=np.int64(8),
                       points=np.float64(16.0), dt=np.float64(0.03125), steps=np.int32(4))
    types = [type(value) for value in ev.config_to_json(cfg).values()]
    assert types == [float, int, int, float, int, float, int]
    level = np.arange(cfg.points * cfg.fiber).reshape(cfg.points, cfg.fiber) * (1 + 1j)
    snap = json.loads(checks.stable_json(ev.snapshot_to_json(cfg, level, 0.5)))
    back, time, data = ev.snapshot_from_json(snap)
    assert back == cfg and time == 0.5 and np.array_equal(data, level)


def test_config_takes_an_integral_float_for_a_size_as_the_json_reader_does():
    cfg = small_config(k=1.0, l=np.float32(1.0), points=128.0, steps=32.0)
    assert cfg == small_config(k=1, l=1) and type(cfg.points) is int
    assert ev.config_from_json({**ev.config_to_json(cfg), "points": 128.0}) == cfg


@pytest.mark.parametrize("field, value", [
    ("k", 0.7), ("l", -1), ("points", "128"), ("points", 4.0), ("steps", True), ("mass", None),
    ("extent", float("inf")), ("dt", 0.5), ("steps", 2.5),
])
def test_config_from_json_refuses_with_the_config_own_message(field, value):
    # the JSON reader makes no check of its own: every refusal is EvolutionConfig's
    with pytest.raises(ValueError) as direct:
        small_config(**{field: value})
    with pytest.raises(ValueError) as parsed:
        ev.config_from_json({**ev.config_to_json(small_config()), field: value})
    assert type(parsed.value) is type(direct.value) and str(parsed.value) == str(direct.value)


def test_config_rejects_non_finite_parameters():
    for field in ("mass", "extent", "dt"):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError):
                small_config(**{field: bad})


def test_stepping_enforces_the_leapfrog_stability_bound():
    # dt = dz passes the unit-speed check but with mass
    # dt sqrt(dz^-2 + m^2) > 1, where leapfrog grows without bound
    cfg = small_config(mass=2.0, dt=0.0625)
    u0 = np.zeros((cfg.points, 4), dtype=complex)
    u0[cfg.points // 2, 0] = 1.0
    with pytest.raises(ev.CFLViolation):
        next(ev.leapfrog(u0, cfg))
    with pytest.raises(ev.CFLViolation):
        ev.evolve(u0, cfg)
    with pytest.raises(ev.CFLViolation):
        ev.causal_support_check(u0, cfg)
    with pytest.raises(ev.CFLViolation):
        ev.evolve(u0, small_config(mass=0.0, dt=0.0625))


def test_grid_field_checks_its_shape():
    cfg = small_config()
    with pytest.raises(ValueError):
        ev.GridField(cfg, np.zeros((2, 2, 4), dtype=complex))


def test_plane_wave_is_on_shell():
    for mass in (0.0, 1.0, 2.5):
        for branch in ("+", "-"):
            wave = ev.plane_wave(1.3, mass, branch=branch)
            assert wave.omega == pytest.approx(np.hypot(1.3, mass))
            p_cov = mk.LorentzVector(
                np.array([wave.sign * wave.omega, 0.0, 0.0, -wave.p]), covariant=True
            )
            mat = hs.symbol_matrix(0, 0, p_cov)
            assert np.linalg.norm(mat @ wave.u - mass * wave.u) < 1e-12


def test_plane_wave_raises_when_the_profile_is_off_shell(monkeypatch):
    # a symbol that is not the on-shell matrix makes the projected seed fail
    # the residual check, which must raise even under python -O
    monkeypatch.setattr(ev, "symbol_matrix", lambda k, l, xi: np.ones((4, 4)))
    with pytest.raises(hs.InvariantViolation):
        ev.plane_wave(1.3, 1.0)


def test_plane_wave_validates_arguments():
    with pytest.raises(ev.ZeroProjection):
        ev.plane_wave(0.0, 0.0)
    with pytest.raises(ValueError):
        ev.plane_wave(1.0, 1.0, branch="x")
    with pytest.raises(ValueError):
        ev.plane_wave(1.0, 1.0, pol=7)


@pytest.mark.parametrize("p, mass", [(np.nan, 1.0), (1.0, np.inf), (-np.inf, 0.0), (1.0, np.nan)])
def test_plane_wave_refuses_a_non_finite_momentum_or_mass(p, mass):
    with pytest.raises(ValueError, match="^p and mass must be finite"):
        ev.plane_wave(p, mass)


def _seeded_profile(p, mass, k, l, branch, pol):
    """The profile by enumeration: (s(P) + m) of each chiral seed in turn, kept
    once its norm passes 1e-8, normalized. The closed form must agree with it."""
    sign = 1.0 if branch == "+" else -1.0
    omega = float(np.sqrt(p * p + mass * mass))
    p_cov = mk.LorentzVector(np.array([sign * omega, 0.0, 0.0, -p]), covariant=True)
    dim = hs.fiber_dim(k, l)
    projector = hs.symbol_matrix(k, l, p_cov) + mass * np.eye(dim)
    for line in range(4):
        seed = np.zeros(dim, dtype=complex)
        seed[line * (dim // 4) + pol] = 1.0
        u = projector @ seed
        if np.linalg.norm(u) > 1e-8:
            return u / np.linalg.norm(u)
    raise AssertionError("every seed was annihilated")


@pytest.mark.parametrize("k, l", [(k, l) for k in range(3) for l in range(3)])
def test_plane_wave_profile_is_the_seeded_projection(k, l):
    momenta = (-7.3, -2.5, -1.0, -0.3, 0.0, 0.3, 1.3, 2.0, 4.7, 9.0)
    for p in momenta:
        for mass in (0.0, 0.3, 1.0, 2.5):
            if p == 0.0 and mass == 0.0:
                continue
            for branch in ("+", "-"):
                for pol in range((k + 1) * (l + 1)):
                    wave = ev.plane_wave(p, mass, k, l, branch, pol)
                    expect = _seeded_profile(p, mass, k, l, branch, pol)
                    assert np.max(np.abs(wave.u - expect)) <= 1e-14, (p, mass, branch, pol)


@pytest.mark.parametrize("k, l", [(0, 0), (1, 1), (2, 1)])
@pytest.mark.parametrize("mass", [0.0, 1.0, 2.5])
def test_plane_wave_stays_on_shell_at_large_momenta(k, l, mass):
    # the symbol's entries are +-(s omega +- p) and round at about 2 eps omega,
    # while s omega - p cancels; an absolute 1e-12 refused p = 1e4 at m = 1
    for p in (1e2, -1e2, 1e4, -1e4, 1e6, -1e6, 1e8, -1e8):
        for branch in ("+", "-"):
            wave = ev.plane_wave(p, mass, k, l, branch)
            p_cov = mk.LorentzVector(
                np.array([wave.sign * wave.omega, 0.0, 0.0, -p]), covariant=True
            )
            mat = hs.symbol_matrix(k, l, p_cov)
            assert np.linalg.norm(wave.u) == pytest.approx(1.0, abs=1e-15)
            assert np.linalg.norm(mat @ wave.u - mass * wave.u) <= 1e-12 * max(1.0, wave.omega)


def test_zero_projection_is_raised_at_p_equal_m_equal_zero_only():
    for k, l in ((0, 0), (1, 0), (2, 2)):
        for branch in ("+", "-"):
            with pytest.raises(ev.ZeroProjection):
                ev.plane_wave(0.0, 0.0, k, l, branch)
            with pytest.raises(ev.ZeroProjection):
                ev.plane_wave(-0.0, -0.0, k, l, branch)
            for p, mass in ((0.0, 1.0), (0.0, -0.5), (1.0, 0.0), (-1.0, 0.0),
                            (1e-300, 0.0), (-1e-300, 0.0), (0.0, 1e-300)):
                wave = ev.plane_wave(p, mass, k, l, branch)
                assert np.linalg.norm(wave.u) == pytest.approx(1.0, abs=1e-15)


def test_plane_wave_names_a_negative_rank():
    # the rank is refused before pol is read against a slot count it makes meaningless
    with pytest.raises(ValueError) as exc:
        ev.plane_wave(1.0, 1.0, -1, 0)
    assert str(exc.value) == "twist ranks must be nonnegative, got k = -1, l = 0"


def test_evolver_tracks_an_exact_plane_wave():
    cfg = small_config(points=512, dt=8.0 / 512 / 2, steps=128)
    wave = ev.plane_wave(2 * np.pi * 2 / cfg.extent, cfg.mass)
    z = cfg.zgrid()
    final = ev.final_level(wave.sample(0.0, z), cfg)
    exact = wave.sample(cfg.steps * cfg.dt, z)
    err = np.sqrt(cfg.dz * np.sum(np.abs(final - exact) ** 2))
    assert err < 5e-4


def test_evolver_error_shrinks_at_second_order():
    errors = []
    for n_pts in (128, 256):
        dz = 8.0 / n_pts
        cfg = small_config(points=n_pts, dt=0.5 * dz, steps=int(round(1.0 / (0.5 * dz))))
        wave = ev.plane_wave(2 * np.pi * 2 / cfg.extent, cfg.mass)
        z = cfg.zgrid()
        final = ev.final_level(wave.sample(0.0, z), cfg)
        exact = wave.sample(cfg.steps * cfg.dt, z)
        errors.append(np.sqrt(cfg.dz * np.sum(np.abs(final - exact) ** 2)))
    order = np.log2(errors[0] / errors[1])
    assert order > 1.8


def test_initial_data_shape_is_validated():
    cfg = small_config()
    with pytest.raises(ValueError):
        ev.evolve(np.zeros((64, 4), dtype=complex), cfg)


def test_slice_product_is_conserved_for_a_wave_packet():
    n_pts = 512
    dz = 16.0 / n_pts
    cfg = small_config(extent=16.0, points=n_pts, dt=0.5 * dz, steps=100)
    wave = ev.plane_wave(2 * np.pi * 4 / cfg.extent, cfg.mass)
    z = cfg.zgrid()
    u0 = (bump((z - 8.0) / 3.0) * wave.phase(0.0, z))[:, None] * wave.u[None, :]
    report = ev.conservation_fold(cfg, ev.leapfrog(u0, cfg))
    assert report["drift"] < 1e-4
    assert report["initial"].real > 0


def test_conservation_report_survives_orthogonal_initial_data():
    cfg = small_config(k=0, l=0)
    z = cfg.zgrid()
    wave_a = ev.plane_wave(2 * np.pi * 2 / cfg.extent, cfg.mass, branch="+")
    wave_b = ev.plane_wave(2 * np.pi * 5 / cfg.extent, cfg.mass, branch="+")
    levels_a = ev.leapfrog(wave_a.sample(0.0, z), cfg)
    levels_b = ev.leapfrog(wave_b.sample(0.0, z), cfg)
    report = ev.conservation_fold(cfg, levels_a, levels_b)
    assert np.isfinite(report["drift"])
    assert abs(report["initial"]) < 1e-10


def test_pair_current_has_small_discrete_divergence():
    n_pts = 256
    dz = 16.0 / n_pts
    cfg = small_config(extent=16.0, points=n_pts, dt=0.5 * dz, steps=48)
    z = cfg.zgrid()
    wave_a = ev.plane_wave(2 * np.pi * 3 / cfg.extent, cfg.mass, branch="+")
    wave_b = ev.plane_wave(2 * np.pi * 5 / cfg.extent, cfg.mass, branch="-")
    levels_a = ev.leapfrog(wave_a.sample(0.0, z), cfg)
    levels_b = ev.leapfrog(wave_b.sample(0.0, z), cfg)
    assert ev.divergence_fold(cfg, levels_a, levels_b) < 1e-2


def test_slice_product_matches_the_fiber_form():
    rng = np.random.default_rng(12)
    cfg = small_config(k=1, l=1, points=16, extent=4.0, dt=0.1, steps=1)
    shape = (cfg.points, cfg.fiber)
    a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    b = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    packed = ev.conservation_fold(cfg, [a], [b])["initial"]
    e0 = mk.basis_vector(0, covariant=True)
    semantic = sum(
        hs.xi_form(hs.unpack(a_j, 1, 1), hs.unpack(b_j, 1, 1), e0) for a_j, b_j in zip(a, b)
    ) * cfg.dz
    assert packed == pytest.approx(semantic, abs=1e-11)


def test_slice_product_needs_matching_ranks():
    cfg = small_config(k=1, l=0, points=16, extent=4.0, dt=0.1, steps=1)
    level = np.zeros((16, cfg.fiber), dtype=complex)
    with pytest.raises(ev.KNotEqualL):
        ev.conservation_fold(cfg, [level], [level])


def test_rank_mismatch_is_one_exception_class():
    assert ev.KNotEqualL is hs.KNotEqualL


def test_support_stays_inside_the_discrete_cone():
    n_pts = 512
    dz = 25.6 / n_pts
    cfg = small_config(mass=2.0, extent=25.6, points=n_pts, dt=0.98 * dz, steps=50)
    z = cfg.zgrid()
    u0 = np.zeros((n_pts, 4), dtype=complex)
    u0[:, 0] = bump((z - 12.8) / (8 * dz))
    report = ev.causal_support_check(u0, cfg)
    assert report["exact_outside"] == 0.0
    assert report["cone_leak_rel"] < 1e-12
    assert report["peak"] > 0


def test_causality_audit_rejects_bad_initial_data():
    cfg = small_config()
    with pytest.raises(ValueError):
        ev.causal_support_check(np.zeros((cfg.points, 4), dtype=complex), cfg)
    touching = np.ones((cfg.points, 4), dtype=complex)
    with pytest.raises(ValueError):
        ev.causal_support_check(touching, cfg)


def _pulse_source(cfg):
    """A (t, z) bump on fiber components 0 and 3 of twist slot 0."""
    z = cfg.zgrid()
    t = cfg.times()
    tt, zz = np.meshgrid(t, z, indexing="ij")
    profile = bump((tt - cfg.extent / 4) / (cfg.extent / 8)) * bump(
        (zz - cfg.extent / 2) / (cfg.extent / 8)
    )
    data = np.zeros((cfg.steps + 1, cfg.points, cfg.fiber), dtype=complex)
    data[:, :, 0] = profile
    data[:, :, 3 * (cfg.k + 1) * (cfg.l + 1)] = 0.5j * profile
    return ev.GridField(cfg, data)


def test_green_operator_inverts_the_field_operator():
    # Gamma(e^a) = kron(G(e^a), I) and the kernel is scalar, so a pulse on one
    # twist slot sees exactly the untwisted problem
    n_pts = 128
    dz = 16.0 / n_pts
    for mass in (0.0, 1.0):
        residuals = []
        for k in (0, 1, 2):
            cfg = small_config(
                mass=mass, k=k, l=k, extent=16.0, points=n_pts, dt=dz, steps=n_pts // 2
            )
            source = _pulse_source(cfg)
            result = ev.retarded_green_apply(source, cfg)
            residuals.append(ev.green_residual(result, source))
        assert residuals[0] < 5e-2
        assert residuals[1:] == pytest.approx([residuals[0]] * 2, rel=1e-12)


def test_green_output_vanishes_before_the_source():
    n_pts = 128
    dz = 16.0 / n_pts
    cfg = small_config(mass=1.0, extent=16.0, points=n_pts, dt=dz, steps=n_pts // 2)
    source = _pulse_source(cfg)
    result = ev.retarded_green_apply(source, cfg)
    first = int(np.nonzero(np.max(np.abs(source.data), axis=(1, 2)))[0][0])
    peak = float(np.max(np.abs(result.data)))
    assert first > 2
    assert float(np.max(np.abs(result.data[: first - 1]))) < 1e-10 * peak


def _direct_green(f, cfg):
    """Reference: the retarded convolution as an explicit double sum, then D - i m.

    The sum is periodic in z, like the operator's kernel and its z-difference.
    """
    kernel = ev.retarded_kernel(cfg)
    n_t, n_pts = f.shape[:2]
    u = np.zeros_like(f)
    for t in range(n_t):
        for z in range(n_pts):
            for s in range(t + 1):
                for y in range(n_pts):
                    u[t, z] += kernel[t - s, (z - y) % n_pts] * f[s, y]
    u *= cfg.dt * cfg.dz
    g0 = hs.symbol_matrix(cfg.k, cfg.l, mk.basis_vector(0, covariant=True))
    g3 = hs.symbol_matrix(cfg.k, cfg.l, mk.basis_vector(3, covariant=True))
    du_t = np.gradient(u, cfg.dt, axis=0)
    du_z = (np.roll(u, -1, axis=1) - np.roll(u, 1, axis=1)) / (2.0 * cfg.dz)
    return du_t @ g0.T + du_z @ g3.T - 1j * cfg.mass * u


# at 12 points and 7 levels the t length pads, 2 n_t - 1 = 13 -> 14; the z length is n.
# With steps = points + 3 the cone wraps the circle more than once; at 9 points
# the kernel's z-spectrum has no Nyquist column to leave out of its mirror fill
@pytest.mark.parametrize(
    "mass, k", [(0.0, 0), (1.0, 0), (0.0, 1), (1.0, 1)], ids=["0.0", "1.0", "0.0-k1", "1.0-k1"]
)
@pytest.mark.parametrize("points", [8, 9, 12, 16])
@pytest.mark.parametrize("more_levels", [False, True])
def test_green_convolution_matches_a_direct_sum(points, mass, k, more_levels):
    steps = points + 3 if more_levels else points // 2
    dz = 4.0 / points
    cfg = small_config(mass=mass, k=k, l=k, extent=4.0, points=points, dt=dz, steps=steps)
    rng = np.random.default_rng(points + steps)
    shape = (steps + 1, points, cfg.fiber)
    source = ev.GridField(cfg, rng.normal(size=shape) + 1j * rng.normal(size=shape))
    expect = _direct_green(source.data, cfg)
    got = ev.retarded_green_apply(source, cfg).data
    assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect))


# (levels, columns, slots) the source is nonzero on, at 12 points and 16 levels;
# slot s is fiber component s (k + 1)(l + 1), as in the pulse. Rows before the
# support stay in the transform, rows after it do not
COMPACT_SUPPORTS = {
    "column-0": (slice(0, 16), slice(0, 3), [0, 3]),
    "column-last": (slice(2, 16), slice(9, 12), [0, 3]),
    "one-column": (slice(0, 16), slice(5, 6), [0, 3]),
    "trailing-zero-rows": (slice(3, 7), slice(4, 8), [0, 3]),
    # Gamma(e^0) and Gamma(e^3) map component c to c +- fiber / 2, an even
    # shift, so the output's odd components see only zero input components
    "zero-components": (slice(1, 12), slice(2, 10), [0, 2]),
    "across-seam": (slice(1, 14), [10, 11, 0, 1], [0, 3]),
    # as in the pulse, slot 0 is purely real and slot 3 purely imaginary, so
    # one part of each is zero and is not transformed
    "one-part-each": (slice(2, 14), slice(3, 9), [0, 3]),
}


@pytest.mark.parametrize("mass, k", [(0.0, 0), (1.0, 0), (1.0, 1)], ids=["0.0", "1.0", "1.0-k1"])
@pytest.mark.parametrize("support", list(COMPACT_SUPPORTS))
def test_green_convolution_matches_a_direct_sum_on_a_compact_support(support, mass, k):
    points, steps = 12, 15
    dz = 4.0 / points
    cfg = small_config(mass=mass, k=k, l=k, extent=4.0, points=points, dt=dz, steps=steps)
    rows, cols, components = COMPACT_SUPPORTS[support]
    rng = np.random.default_rng(points + steps)
    data = np.zeros((steps + 1, points, cfg.fiber), dtype=complex)
    slots = (k + 1) * (k + 1)
    for c in components:
        # indexing with a list of columns returns a copy, so write through the index
        shape = data[rows, cols, c * slots].shape
        values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        if support == "one-part-each":
            values = values.real if c == 0 else 1j * values.imag
        data[rows, cols, c * slots] = values
    expect = _direct_green(data, cfg)
    got = ev.retarded_green_apply(ev.GridField(cfg, data), cfg).data
    assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect))
    if support == "zero-components":
        assert np.all(got[..., 1::2] == 0.0)


def test_green_operator_of_a_zero_source_is_zero():
    cfg = small_config(points=16, extent=4.0, dt=0.25, steps=8)
    source = ev.GridField(cfg, np.zeros((9, 16, 4), dtype=complex))
    assert np.all(ev.retarded_green_apply(source, cfg).data == 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)], ids=["nan", "inf", "-inf-j"])
def test_green_operator_refuses_a_non_finite_source(bad):
    cfg = small_config(points=16, extent=4.0, dt=0.25, steps=8)
    data = np.ones((9, 16, 4), dtype=complex)
    data[4, 7, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        ev.retarded_green_apply(ev.GridField(cfg, data), cfg)


def test_green_operator_guards_its_preconditions():
    cfg = small_config(points=16, extent=4.0, dt=0.1, steps=8)
    field = ev.GridField(cfg, np.zeros((9, 16, 4), dtype=complex))
    with pytest.raises(ValueError):
        ev.retarded_green_apply(field, cfg)


def test_retarded_kernel_refuses_a_non_aligned_grid():
    # with dt != dz the cone edge t = |z| falls between samples, so the
    # 1/2 edge weights would sit on the wrong points
    with pytest.raises(ValueError, match="aligned"):
        ev.retarded_kernel(small_config(points=16, extent=4.0, dt=0.1, steps=8))


def test_green_apply_refuses_a_source_built_for_another_config():
    massless = small_config(mass=0.0, points=16, extent=4.0, dt=0.25, steps=8)
    source = ev.GridField(massless, np.ones((9, 16, 4), dtype=complex))
    with pytest.raises(ValueError):
        ev.retarded_green_apply(source, small_config(points=16, extent=4.0, dt=0.25, steps=8))


def test_green_residual_refuses_fields_of_different_configs():
    massless = small_config(mass=0.0, points=16, extent=4.0, dt=0.25, steps=8)
    massive = small_config(points=16, extent=4.0, dt=0.25, steps=8)
    source = ev.GridField(massless, np.ones((9, 16, 4), dtype=complex))
    result = ev.GridField(massive, np.zeros((9, 16, 4), dtype=complex))
    with pytest.raises(ValueError):
        ev.green_residual(result, source)


def test_green_operator_holds_at_most_five_fields():
    # u = E * f is the one field the apply returns: the Dirac step writes G f
    # into it level by level. The convolution before it holds u, one real
    # part's spectrum of at most (2 n_t)(n / 2 + 1) cells, a quarter of a
    # k = 0 field, and a quarter of the kernel's: under one and a half fields
    # at once. The bound leaves room for three more.
    n_pts = 256
    dz = 16.0 / n_pts
    cfg = small_config(mass=1.0, extent=16.0, points=n_pts, dt=dz, steps=n_pts // 2)
    source = _pulse_source(cfg)
    tracemalloc.start()
    try:
        ev.retarded_green_apply(source, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * source.data.nbytes


def _traced_peak(call):
    """Peak traced bytes allocated while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def _green_pulse_256():
    n_pts = 256
    dz = 16.0 / n_pts
    cfg = small_config(mass=1.0, extent=16.0, points=n_pts, dt=dz, steps=n_pts // 2)
    return cfg, _pulse_source(cfg)


def test_green_apply_holds_at_most_three_fields():
    # u, one quarter-field spectrum that every real or imaginary part reuses
    # in place and a quarter of the kernel's, about 1.39 fields: the source is
    # scanned one level at a time, the kernel is dropped once transformed, and
    # each part's inverse transform writes into u itself; the level-by-level
    # Dirac step adds a few levels, not a field
    cfg, source = _green_pulse_256()
    peak = _traced_peak(lambda: ev.retarded_green_apply(source, cfg))
    assert peak < 1.5 * source.data.nbytes


def test_green_pulse_holds_only_its_source_and_g_f():
    # the source, G f and the apply's own spectra, about 2.4 fields: no
    # meshgrid or profile beside the source and no |G f| of the whole field.
    # A first small call imports numpy.fft, which the trace would count
    field_nbytes = (256 // 2 + 1) * 256 * 4 * 16
    checks.green_pulse(1.0, 64)
    peak = _traced_peak(lambda: checks.green_pulse(1.0, 256))
    assert peak < 2.5 * field_nbytes


@pytest.mark.parametrize("mass", [0.0, 1.0])
@pytest.mark.parametrize("n_pts", [128, 256])
def test_green_pulse_matches_the_whole_field_reference(n_pts, mass):
    # the meshgrid-built source and |G f| of the whole field give the same
    # G f, residual and leak, bit for bit
    dz = 16.0 / n_pts
    cfg = small_config(mass=mass, extent=16.0, points=n_pts, dt=dz, steps=n_pts // 2)
    source = _pulse_source(cfg)
    expect = ev.retarded_green_apply(source, cfg)
    amp = np.abs(expect.data)
    first = np.flatnonzero(np.abs(source.data).max(axis=(1, 2)))[0]
    leak = amp[: first - 1].max() / amp.max()
    result, residual, got_leak = checks.green_pulse(mass, n_pts)
    assert result.config == cfg
    assert np.array_equal(result.data, expect.data)
    assert residual == ev.green_residual(expect, source)
    assert got_leak == leak


def test_source_support_scans_one_level_at_a_time():
    # the scan holds |f| of one level and a running max over levels, not |f|
    # of the whole field, half of it
    cfg, source = _green_pulse_256()
    peak = _traced_peak(lambda: ev._source_support(source.data))
    assert peak < source.data.nbytes / 8
    t1, components = ev._source_support(source.data)
    amp = np.abs(source.data)
    assert t1 == np.flatnonzero(amp.max(axis=(1, 2)))[-1]
    assert components.tolist() == [0, 3]


@pytest.mark.parametrize("where, bad", [(-1, np.nan), (5, complex(0.0, np.inf))],
                         ids=["nan-last-level", "inf-imaginary"])
def test_source_support_names_the_first_non_finite_level(where, bad):
    cfg, source = _green_pulse_256()
    data = source.data.copy()
    data[where, 200, 1] = bad
    level = where % len(data)
    with pytest.raises(ValueError, match=f"source level {level} holds a non-finite value"):
        ev._source_support(data)


@pytest.mark.parametrize("n_pts", [8, 9])
@pytest.mark.parametrize("n_fft", [10, 15])
def test_quarter_spectrum_multiply_is_the_full_product(n_pts, n_fft):
    # the points are the user's choice and 5-smooth lengths can be odd; a real
    # z-transform keeps columns 0 .. n / 2, whose rows are filled from the
    # quarter by conjugation
    rng = np.random.default_rng(n_pts * n_fft)
    kernel = rng.standard_normal((6, n_pts))
    kernel[:, 1:] += kernel[:, 1:][:, ::-1]  # real and even in z, as E_per is
    quarter = ev._kernel_spectrum(kernel, n_fft)
    rows, cols = quarter.shape
    assert (rows, cols) == (n_fft // 2 + 1, n_pts // 2 + 1)
    full = np.empty((n_fft, cols), dtype=complex)
    full[:rows] = quarter
    full[rows:] = quarter[1 : (n_fft + 1) // 2][::-1].conj()
    np.testing.assert_allclose(full, np.fft.fft2(kernel, s=(n_fft, n_pts))[:, :cols],
                               rtol=0, atol=1e-12)
    spec = rng.standard_normal((n_fft, cols)) + 1j * rng.standard_normal((n_fft, cols))
    expect = spec * full
    ev._times_kernel_spectrum(spec, quarter)
    np.testing.assert_array_equal(spec, expect)


def test_green_residual_holds_no_field():
    # the residual is a fold over levels, max |f| for its scale included; only
    # the one-pass finiteness mask, 1/16 of a complex field, is taken whole
    cfg, source = _green_pulse_256()
    result = ev.retarded_green_apply(source, cfg)
    peak = _traced_peak(lambda: ev.green_residual(result, source))
    assert peak < source.data.nbytes / 8


def _dense_green_residual(u, f, cfg):
    """Reference: (D + i m) u - f on levels 2 .. n_t - 3 from dense symbol matrices."""
    g0 = hs.symbol_matrix(cfg.k, cfg.l, mk.basis_vector(0, covariant=True))
    g3 = hs.symbol_matrix(cfg.k, cfg.l, mk.basis_vector(3, covariant=True))
    du_t = (u[2:] - u[:-2]) / (2.0 * cfg.dt)
    du_z = (np.roll(u, -1, axis=1) - np.roll(u, 1, axis=1)) / (2.0 * cfg.dz)
    gap = du_t @ g0.T + (du_z @ g3.T + 1j * cfg.mass * u - f)[1:-1]
    return np.max(np.abs(gap[1:-1])) / np.max(np.abs(f))


@pytest.mark.parametrize("mass", [0.0, 1.3])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_green_apply_matches_a_dense_dirac_operator_on_every_level(mass, k):
    # dt = dz = 1/3 is not a power of two, so the folded 1/(2 dt) and 1/(2 dz)
    # weights round; d_t is one sided on the first and last levels
    points = 12
    dz = 4.0 / points
    cfg = small_config(mass=mass, k=k, l=k, extent=4.0, points=points, dt=dz, steps=10)
    rng = np.random.default_rng(40 + k)
    source = _random_field(rng, cfg)
    u = ev._retarded_convolution(source.data, cfg)
    g0 = hs.symbol_matrix(cfg.k, cfg.l, mk.basis_vector(0, covariant=True))
    g3 = hs.symbol_matrix(cfg.k, cfg.l, mk.basis_vector(3, covariant=True))
    du_t = np.gradient(u, cfg.dt, axis=0)
    du_z = (np.roll(u, -1, axis=1) - np.roll(u, 1, axis=1)) / (2.0 * cfg.dz)
    expect = du_t @ g0.T + du_z @ g3.T - 1j * cfg.mass * u
    got = ev.retarded_green_apply(source, cfg).data
    assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))


@pytest.mark.parametrize("mass", [0.0, 1.0])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_green_residual_matches_a_dense_reference(mass, k):
    points = 12
    dz = 4.0 / points
    cfg = small_config(mass=mass, k=k, l=k, extent=4.0, points=points, dt=dz, steps=10)
    rng = np.random.default_rng(26 + k)
    result, source = _random_field(rng, cfg), _random_field(rng, cfg)
    expect = _dense_green_residual(result.data, source.data, cfg)
    assert ev.green_residual(result, source) == pytest.approx(expect, rel=1e-13)


NON_FINITE = {"nan": np.nan, "inf": np.inf, "-inf-j": complex(0.0, -np.inf)}
# the planted levels for a run of n steps; with two, the error names the
# first level, not the first planted
PLANTED = {"": lambda n: [n // 2], "first": lambda n: [0], "last": lambda n: [n],
           "two": lambda n: [n - 3, 5]}


@pytest.mark.parametrize(
    "bad, where",
    [(bad, where) for where in PLANTED for bad in NON_FINITE],
    ids=[f"{bad}-{where}" if where else bad for where in PLANTED for bad in NON_FINITE],
)
def test_green_residual_keeps_a_non_finite_level_visible(bad, where):
    cfg, source = _green_pulse_256()
    result = ev.retarded_green_apply(source, cfg)
    planted = PLANTED[where](cfg.steps)
    for t in planted:
        result.data[t, 7, 2] = NON_FINITE[bad]
    with pytest.raises(ValueError, match=f"result level {min(planted)} holds a non-finite"):
        ev.green_residual(result, source)


def test_retarded_kernel_weights_massless_case():
    cfg = small_config(mass=0.0, points=16, extent=4.0, dt=0.25, steps=8)
    kernel = ev.retarded_kernel(cfg)
    assert kernel.shape == (9, 16)
    assert kernel[0, 0] == pytest.approx(0.125)  # apex: 1/2 value, 1/4 weight
    assert kernel[4, 0] == pytest.approx(0.5)  # interior of the cone
    assert kernel[4, 4] == pytest.approx(0.25)  # boundary: 1/2 weight
    assert kernel[4, 12] == pytest.approx(0.25)  # boundary d = -4, column -4 mod 16
    assert kernel[4, 5] == 0.0  # outside
    # at t = L/2 the edges d = +-8 are images of one point, and their halves add up
    assert kernel[8, 8] == 0.5


def _cone_sample(level, offset, cfg):
    """E at (level dt, offset dz) with trapezoid weights, one sample at a time."""
    if abs(offset) > level:
        return 0.0
    weight = 0.25 if level == 0 else 0.5 if abs(offset) == level else 1.0
    return weight * 0.5 * float(special.j0(cfg.mass * cfg.dz * np.sqrt(level**2 - offset**2)))


def test_trapezoid_j0_matches_scipy_over_0_to_100():
    zeros = special.jn_zeros(0, 31)  # the 31 zeros below 100
    near = (zeros[:, None] + np.array([-1e-7, 0.0, 1e-7])).ravel()
    for top, atol in ((20.0, 1e-15), (100.0, 3e-15)):
        x = np.concatenate([np.linspace(0.0, top, 20001), near[near <= top]])
        np.testing.assert_allclose(ev._bessel_j0(x), special.j0(x), rtol=0, atol=atol)
    assert ev._bessel_j0(0.0) == 1.0
    assert ev._bessel_j0(np.zeros(3)).tolist() == [1.0, 1.0, 1.0]


def test_hankel_j0_matches_scipy_from_the_switch_to_1e4():
    # scipy forms chi = x - pi/4 in floating point, off by up to half an ulp of
    # x, x eps / 2, where J0's slope is about sqrt(2 / (pi x)); the rest, from
    # both sides' products, series and cos, sin, is a few eps at that scale.
    # The Hankel form here never rounds chi
    eps = np.finfo(float).eps
    zeros = special.jn_zeros(0, 3200)  # the last is above 1e4
    x = np.concatenate([np.linspace(ev._HANKEL_SWITCH, 1e4, 100001), zeros, zeros + 1e-9])
    x = x[(x > ev._HANKEL_SWITCH) & (x <= 1e4)]
    bound = np.sqrt(2.0 / (np.pi * x)) * (x / 2 + 16) * eps
    assert np.all(np.abs(ev._bessel_j0(x) - special.j0(x)) <= bound)
    # an array that straddles the switch takes each side's form; J0 is even
    near, far = np.array([8.0, ev._HANKEL_SWITCH]), np.array([150.0])
    np.testing.assert_array_equal(
        ev._bessel_j0([8.0, ev._HANKEL_SWITCH, 150.0, -150.0]),
        np.concatenate([ev._trapezoid_j0(near), ev._hankel_j0(far), ev._hankel_j0(far)]),
    )


def test_hankel_j0_stays_finite_up_to_the_largest_float():
    # neither x^2 (past 1.3e154) nor pi x (past 5.7e307) is formed; the suite
    # turns numpy's overflow warning into an error. P = 1 and Q is below
    # 1/x here, so J0 is (cos x + sin x) / sqrt(pi x) to round-off
    x = np.array([1.5e154, 1e300, np.finfo(float).max])
    got = ev._bessel_j0(x)
    scale = np.sqrt(2.0 / np.pi) / np.sqrt(x)
    expect = (np.cos(x) + np.sin(x)) / (np.sqrt(np.pi) * np.sqrt(x))
    assert np.all(np.abs(got - expect) <= 1e-14 * scale)


def test_green_residual_names_the_level_where_a_huge_mass_overflows():
    # G f carries m u and the residual multiplies it by m again; at m = 1e300
    # that leaves the float range: a typed error, not a warning (the suite
    # turns those into errors) or an inf residual
    with pytest.raises(OverflowError, match=r"overflows at level \d+$"):
        checks.green_pulse(1e300, 64)


def test_retarded_kernel_temporaries_stay_within_a_few_kernels():
    # 16 points and 1000 steps at m = 1, a 0.13 MB kernel: a whole
    # (steps + 1)^2 half-cone would take tens of MB, blocks of points // 4
    # levels hold about 0.6 MB
    cfg = small_config(mass=1.0, points=16, extent=4.0, dt=0.25, steps=1000)
    peak = _traced_peak(lambda: ev.retarded_kernel(cfg))
    assert peak < 2 * 2**20


def test_kernel_and_j0_refuse_a_non_finite_argument_without_hanging():
    # m dz sqrt(q) overflows to inf at mass 1e308, and on an infinite argument
    # J0's node count would never stop growing: a regression must fail on the
    # timeout, not hang the suite
    code = (
        "import warnings; warnings.simplefilter('error', RuntimeWarning)\n"
        "import numpy as np\n"
        "from spinlab import evolution as ev\n"
        "cfg = ev.EvolutionConfig(mass=1e308, k=0, l=0, extent=16.0, points=64, dt=0.25,\n"
        "                         steps=32)\n"
        "calls = [lambda: ev.retarded_kernel(cfg)]\n"
        "calls += [lambda bad=bad: ev._bessel_j0(np.array([1.0, bad]))\n"
        "          for bad in (np.nan, np.inf, -np.inf)]\n"
        "for call in calls:\n"
        "    try:\n"
        "        call()\n"
        "    except ValueError as exc:\n"
        "        print('ValueError', exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ev.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=60)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert len(lines) == 4 and all(line.startswith("ValueError") for line in lines)
    assert "overflows" in lines[0] and all("finite" in line for line in lines[1:])


@pytest.mark.parametrize("call, text", [
    (lambda: ev.retarded_kernel(small_config(mass=1e308, points=64, extent=16.0, dt=0.25)),
     "the kernel's largest argument m dz steps overflows at mass 1e+308"),
    (lambda: ev._bessel_j0(np.array([1.0, np.nan])), "J0 needs finite arguments"),
    (lambda: ev._bessel_j0(np.array([1.0, np.inf])), "J0 needs finite arguments"),
], ids=["kernel", "j0-nan", "j0-inf"])
def test_kernel_and_j0_refuse_a_non_finite_argument_in_process(call, text):
    # the subprocess test above guards against a hang; this one reads the typed error
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == text


@pytest.mark.parametrize("mass", [0.0, 1.0])
@pytest.mark.parametrize("steps", [5, 8, 40], ids=["below-half", "half", "above-twice"])
def test_retarded_kernel_is_the_image_sum_of_the_cone(mass, steps):
    n_pts = 16
    cfg = small_config(mass=mass, points=n_pts, extent=4.0, dt=0.25, steps=steps)
    expect = np.zeros((steps + 1, n_pts))
    for level in range(steps + 1):
        for j in range(n_pts):
            for image in range(-(steps // n_pts) - 1, steps // n_pts + 2):
                expect[level, j] += _cone_sample(level, j + image * n_pts, cfg)
    kernel = ev.retarded_kernel(cfg)
    assert kernel.shape == (steps + 1, n_pts)
    np.testing.assert_allclose(kernel, expect, rtol=1e-13, atol=1e-15)
    if mass == 0.0 and steps == 40:
        assert kernel[20, 0] == pytest.approx(1.5)  # offsets -16, 0, 16 inside
        assert kernel[40, 3] == pytest.approx(2.5)  # offsets -29, -13, 3, 19, 35 inside


@pytest.mark.parametrize("mass, points, steps", [(1.0, 64, 32), (2.5, 256, 128), (1.0, 16, 1000)],
                         ids=["64-points", "256-points", "1000-steps"])
def test_retarded_kernel_is_even_in_the_mass(mass, points, steps):
    # J0 is even, and its node count must come from |m|: a negative largest
    # argument took one node, and J0(5) read -0.923
    def kernel(m):
        return ev.retarded_kernel(small_config(mass=m, points=points, extent=points / 4,
                                               dt=0.25, steps=steps))
    assert np.array_equal(kernel(-mass), kernel(mass))


def test_green_pulse_with_a_negative_mass_meets_the_rows_bounds():
    # the bounds of the green-residual, green-monotone and green-support rows
    runs = {n: checks.green_pulse(-1.0, n) for n in (128, 256, 512)}
    residuals = {n: residual for n, (_, residual, _) in runs.items()}
    assert residuals[512] <= checks.GREEN_RESIDUAL_TOL
    assert residuals[256] / residuals[128] <= 0.99 and residuals[512] / residuals[256] <= 0.99
    assert max(leak for _, _, leak in runs.values()) <= checks.GREEN_SUPPORT_TOL


def test_green_residual_is_the_same_on_either_side_of_the_seam():
    # the built-in pulse at z = 8, 4 and 1 (half-width 2, so z = 1 straddles
    # the seam): a periodic operator sees one problem shifted by whole cells
    extent, mass = 16.0, 1.0
    by_centre = []
    for centre in (8.0, 4.0, 1.0):
        residuals = []
        for n_pts in (128, 256, 512):
            dz = extent / n_pts
            cfg = small_config(
                mass=mass, extent=extent, points=n_pts, dt=dz, steps=n_pts // 2
            )
            tt, zz = np.meshgrid(cfg.times(), cfg.zgrid(), indexing="ij")
            distance = (zz - centre + extent / 2) % extent - extent / 2
            profile = bump((tt - extent / 4) / (extent / 8)) * bump(distance / (extent / 8))
            data = np.zeros((cfg.steps + 1, n_pts, cfg.fiber), dtype=complex)
            data[:, :, 0] = profile
            data[:, :, 3] = 0.5j * profile
            source = ev.GridField(cfg, data)
            residuals.append(ev.green_residual(ev.retarded_green_apply(source, cfg), source))
        assert max(residuals) < checks.GREEN_RESIDUAL_TOL
        assert residuals[0] > 3.0 * residuals[1] and residuals[1] > 3.0 * residuals[2]
        by_centre.append(residuals)
    assert by_centre[1] == pytest.approx(by_centre[0], rel=1e-9)
    assert by_centre[2] == pytest.approx(by_centre[0], rel=1e-9)


def test_config_json_roundtrip():
    cfg = small_config(k=1, l=1)
    back = ev.config_from_json(ev.config_to_json(cfg))
    assert back == cfg


def test_snapshot_json_roundtrip():
    rng = np.random.default_rng(13)
    cfg = small_config(points=16, extent=4.0, dt=0.1, steps=2)
    shape = (cfg.steps + 1, cfg.points, cfg.fiber)
    field = ev.GridField(cfg, rng.normal(size=shape) + 1j * rng.normal(size=shape))
    snap = ev.snapshot_to_json(cfg, field.data[2], 2 * cfg.dt)
    cfg_back, time, data = ev.snapshot_from_json(snap)
    assert cfg_back == cfg
    assert time == pytest.approx(2 * cfg.dt)
    np.testing.assert_allclose(data, field.data[2], atol=1e-15)


def test_snapshot_parser_validates_lengths():
    cfg = small_config(points=16, extent=4.0, dt=0.1, steps=2)
    field = ev.GridField(cfg, np.zeros((3, 16, 4), dtype=complex))
    snap = ev.snapshot_to_json(cfg, field.data[0], 0.0)
    snap["values"] = snap["values"][:-1]
    with pytest.raises(ValueError):
        ev.snapshot_from_json(snap)


def _dense_leapfrog(u0, cfg):
    """Reference: the all-levels leapfrog with dense fiber operator products."""
    g0 = hs.symbol_matrix(cfg.k, cfg.l, mk.basis_vector(0, covariant=True))
    g3 = hs.symbol_matrix(cfg.k, cfg.l, mk.basis_vector(3, covariant=True))
    at = (-g0 @ g3).T.copy()
    bt = (-1j * cfg.mass * g0).T.copy()
    dz, dt = cfg.dz, cfg.dt
    inv2dz = 1.0 / (2.0 * dz)

    def rhs(u):
        dzu = (np.roll(u, -1, axis=0) - np.roll(u, 1, axis=0)) * inv2dz
        return dzu @ at + u @ bt

    out = np.empty((cfg.steps + 1, cfg.points, cfg.fiber), dtype=complex)
    out[0] = u0
    lap = (np.roll(u0, -1, axis=0) - 2.0 * u0 + np.roll(u0, 1, axis=0)) / dz**2
    out[1] = u0 + dt * rhs(u0) + 0.5 * dt**2 * (lap - cfg.mass**2 * u0)
    for n in range(1, cfg.steps):
        out[n + 1] = out[n - 1] + 2.0 * dt * rhs(out[n])
    return out


def _dense_currents(cfg, a, b, direction):
    e_cov = mk.basis_vector(direction, covariant=True)
    x = hs.pairing_matrix(cfg.k) @ hs.symbol_matrix(cfg.k, cfg.l, e_cov)
    return np.sum(np.conj(a) * (b @ x.T), axis=2)


def _random_levels(rng, cfg):
    shape = (cfg.steps + 1, cfg.points, cfg.fiber)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _random_field(rng, cfg):
    return ev.GridField(cfg, _random_levels(rng, cfg))


def test_evolve_is_bitwise_equal_to_the_dense_reference():
    rng = np.random.default_rng(21)
    for k in (0, 1, 2):
        for mass in (0.0, 1.0):
            cfg = small_config(mass=mass, k=k, l=k, points=32, extent=4.0, dt=0.0625, steps=12)
            u0 = rng.normal(size=(cfg.points, cfg.fiber)) + 1j * rng.normal(
                size=(cfg.points, cfg.fiber)
            )
            field = ev.evolve(u0, cfg)
            assert np.array_equal(field.data, _dense_leapfrog(u0, cfg))
            assert np.array_equal(field.data[0], u0)


def test_fold_reductions_match_dense_full_array_references():
    rng = np.random.default_rng(22)
    cfg = small_config(k=1, l=1, points=16, extent=4.0, dt=0.1, steps=10)
    a, b = _random_levels(rng, cfg), _random_levels(rng, cfg)
    cur0 = _dense_currents(cfg, a, b, 0)
    cur3 = _dense_currents(cfg, a, b, 3)

    values = np.sum(cur0, axis=1) * cfg.dz
    report = ev.conservation_fold(cfg, a, b)
    scale = np.max(np.abs(values))
    assert np.max(np.abs(report["values"] - values)) <= 1e-13 * scale
    assert report["initial"] == pytest.approx(values[0], rel=1e-13)
    for t_index in (0, 7, 10):
        one_level = ev.conservation_fold(cfg, a[t_index : t_index + 1], b[t_index : t_index + 1])
        assert one_level["initial"] == pytest.approx(values[t_index], rel=1e-13)

    dt_cur = (cur0[2:] - cur0[:-2]) / (2.0 * cfg.dt)
    dz_cur = (np.roll(cur3, -1, axis=1) - np.roll(cur3, 1, axis=1))[1:-1] / (2.0 * cfg.dz)
    expected = float(np.max(np.abs(dt_cur + dz_cur)))
    assert ev.divergence_fold(cfg, a, b) == pytest.approx(expected, rel=1e-13)


def test_streamed_and_stored_reductions_are_bitwise_equal():
    rng = np.random.default_rng(23)
    for k in (0, 1, 2):
        cfg = small_config(k=k, l=k, points=32, extent=4.0, dt=0.0625, steps=12)
        shape = (cfg.points, cfg.fiber)
        u_a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        u_b = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        fa, fb = ev.evolve(u_a, cfg), ev.evolve(u_b, cfg)
        a, b = ev.leapfrog(u_a, cfg), ev.leapfrog(u_b, cfg)
        pairs = [
            (ev.conservation_report(fa), ev.conservation_fold(cfg, ev.leapfrog(u_a, cfg))),
            (ev.conservation_report(fa, fb), ev.conservation_fold(cfg, a, b)),
        ]
        for stored, streamed in pairs:
            assert np.array_equal(stored["values"], streamed["values"])
            assert stored["drift"] == streamed["drift"]
            assert stored["denominator"] == streamed["denominator"]
        a, b = ev.leapfrog(u_a, cfg), ev.leapfrog(u_b, cfg)
        assert ev.divergence_check(fa, fb) == ev.divergence_fold(cfg, a, b)
        assert np.array_equal(ev.final_level(u_a, cfg), fa.data[-1])


def test_leapfrog_overwrites_a_level_two_steps_on_and_never_the_last():
    rng = np.random.default_rng(27)
    cfg = small_config(k=1, l=1, points=16, extent=4.0, dt=0.125, steps=7)
    u0 = rng.normal(size=(cfg.points, cfg.fiber)) + 1j * rng.normal(size=(cfg.points, cfg.fiber))
    given = u0.copy()
    reference = _dense_leapfrog(u0, cfg)
    held = []
    for n, level in enumerate(ev.leapfrog(u0, cfg)):
        assert np.array_equal(level, reference[n])
        if held:  # u^(n-1) stays valid while u^n is yielded
            assert np.array_equal(held[-1], reference[n - 1])
        held.append(level)
    # after the run, the array yielded as u^n holds the last level of its parity
    for n, level in enumerate(held):
        assert np.array_equal(level, reference[cfg.steps - (cfg.steps - n) % 2])
    assert np.array_equal(u0, given)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_leapfrog_conserves_the_two_level_pair_form_exactly(k):
    # Discrete Theorem 2. With X = P Gamma0 Hermitian and X L anti-Hermitian, the
    # update u^(n+1) = u^(n-1) + 2 dt L u^n keeps the dz-weighted pair form
    # Q^n = Re<u_a^(n+1), X u_b^n> + Re<u_b^(n+1), X u_a^n> equal to Q^(n-1) with no
    # truncation error. Round-off bound, fixed before any run: each step rounds every
    # level entry, which moves Q by at most about points * eps times S, the sum of the
    # form's absolute terms at the initial level; over `steps` steps
    # |Q^n - Q^0| <= steps * points * eps * S. The one-level form
    # q^n = Re<u_a^n, X u_b^n> + Re<u_b^n, X u_a^n> drifts at second order, far above.
    n_pts, extent = 256, 32.0
    dz = extent / n_pts
    cfg = ev.EvolutionConfig(
        mass=1.0, k=k, l=k, extent=extent, points=n_pts, dt=0.5 * dz, steps=256
    )
    x0 = hs.pairing_matrix(k) @ hs.symbol_matrix(k, k, mk.basis_vector(0, covariant=True))

    def form(a, b):
        return float(np.sum(np.conj(a) * (b @ x0.T)).real) * cfg.dz

    def size(a, b):
        return float(np.sum(np.abs(a) * (np.abs(b) @ np.abs(x0).T))) * cfg.dz

    u_a, u_b = (
        checks.packet_initial(cfg, ev.plane_wave(2 * np.pi * mode / extent, 1.0, k, k).u, 4.0, mode)
        for mode in (3, -5)
    )
    two, one, prev = [], [], None
    for a, b in zip(ev.leapfrog(u_a, cfg), ev.leapfrog(u_b, cfg)):
        if prev is not None:  # u^n is still valid while u^(n+1) is yielded
            two.append(form(a, prev[1]) + form(b, prev[0]))
        one.append(form(a, b) + form(b, a))
        prev = a, b
    bound = cfg.steps * cfg.points * np.finfo(float).eps * (size(u_a, u_b) + size(u_b, u_a))
    assert max(abs(q - two[0]) for q in two) <= bound
    assert max(abs(q - one[0]) for q in one) > bound


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)],
                         ids=["nan", "inf", "-inf-j"])
@pytest.mark.parametrize("run", [lambda u0, cfg: next(ev.leapfrog(u0, cfg)), ev.final_level,
                                 ev.causal_support_check],
                         ids=["leapfrog", "final_level", "causal_support_check"])
def test_stepping_refuses_non_finite_initial_data(run, bad):
    cfg = small_config(points=64, extent=8.0, dt=0.0625, steps=4)
    u0 = np.zeros((cfg.points, cfg.fiber), dtype=complex)
    u0[30:34, 0] = 1.0
    u0[31, 2] = bad
    with pytest.raises(ValueError, match="^initial data holds a non-finite value$"):
        run(u0, cfg)


def _huge_level(k, l):
    # finite values whose products overflow: |u|^2 at once, the leapfrog's first
    # step; zero at the seam, so the causality audit takes them too
    cfg = small_config(k=k, l=l, points=64, extent=16.0, dt=0.125, steps=8)
    level = np.zeros((cfg.points, cfg.fiber), dtype=complex)
    level[1:-1] = 1e308
    return cfg, level


@pytest.mark.parametrize("run", [lambda u0, cfg: list(ev.leapfrog(u0, cfg)), ev.final_level,
                                 ev.evolve, ev.causal_support_check],
                         ids=["leapfrog", "final_level", "evolve", "causal_support_check"])
def test_a_run_that_overflows_names_its_first_level_and_never_warns(run):
    cfg, level = _huge_level(1, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match="^level 1 of the run is not finite$"):
            run(level, cfg)


def test_leapfrog_yields_every_level_before_the_one_that_overflows():
    cfg, level = _huge_level(1, 0)
    levels = ev.leapfrog(level, cfg)
    assert np.array_equal(next(levels), level)
    with pytest.raises(OverflowError, match="^level 1 of the run is not finite$"):
        next(levels)


def test_leapfrog_leaves_the_callers_float_flags_alone():
    cfg = small_config(steps=4)
    u0 = np.zeros((cfg.points, cfg.fiber), dtype=complex)
    for _ in ev.leapfrog(u0, cfg):
        # the step's raising flags are not in force while the caller runs
        assert np.geterr()["over"] == "warn"


def test_conservation_fold_names_the_first_slice_product_that_overflows():
    cfg, level = _huge_level(1, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match="^the slice product at level 0 is not finite$"):
            ev.conservation_fold(cfg, ev.leapfrog(level, cfg))
        # a raw stream: the first two levels are finite, the third overflows
        u0 = np.ones((cfg.points, cfg.fiber), dtype=complex)
        with pytest.raises(OverflowError, match="^the slice product at level 2 is not finite$"):
            ev.conservation_fold(cfg, [u0, u0, level, u0])


def _apply_to_pulse(mass, amplitude):
    """G f for a pulse f of finite amplitude on the aligned grid, k = 0, 64 points."""
    cfg = small_config(mass=mass, points=64, extent=64.0, dt=1.0, steps=32)
    data = np.zeros((cfg.steps + 1, cfg.points, cfg.fiber), dtype=complex)
    data[3:6, 30:34, 0] = amplitude
    return ev.retarded_green_apply(ev.GridField(cfg, data), cfg)


def _residual_pair(mass, result_value, source_value):
    cfg = small_config(mass=mass, points=16, extent=16.0, dt=1.0, steps=8)
    shape = (cfg.steps + 1, cfg.points, cfg.fiber)
    return (ev.GridField(cfg, np.full(shape, result_value, dtype=complex)),
            ev.GridField(cfg, np.full(shape, source_value, dtype=complex)))


def _fold_constant_levels(fold, k, *values):
    """``fold`` of a stream paired with itself, one constant level per value, at k = l."""
    cfg = small_config(k=k, l=k, points=64, extent=16.0, dt=0.125, steps=8)
    levels = [np.full((cfg.points, cfg.fiber), v, dtype=complex) for v in values]
    return fold(cfg, levels, levels)


@pytest.mark.parametrize("call, text", [
    # E * f sums f dt dz over the cone: 1e307 leaves the float range in the transforms
    (lambda: _apply_to_pulse(0.0, 1e307), "the convolution E * f leaves the float range"),
    # E * f stays finite, but (D - i m) u carries m u
    (lambda: _apply_to_pulse(1e30, 1e290), "(D - i m) u overflows at level 3"),
    # every component of (D + i m) u - f is finite, its modulus is not
    (lambda: ev.green_residual(*_residual_pair(1.3e8, complex(1e300, 1e300), 1.0)),
     "(D + i m) u - f overflows at level 2"),
    # a zero source leaves the 1e-300 floor under a gap of about 1e10
    (lambda: ev.green_residual(*_residual_pair(1.0, 1e10, 0.0)),
     "the relative residual leaves the float range"),
    # the initial slice product is 0, so the drift divides by the 1e-300 floor
    (lambda: _fold_constant_levels(ev.conservation_fold, 1, 0.0, 1e10),
     "the slice-product drift is not finite"),
    (lambda: _fold_constant_levels(ev.divergence_fold, 0, 1e200, 1e200, 1e200),
     "the pair current at level 0 is not finite"),
    # p * p overflows a Python float to inf without a warning
    (lambda: ev.plane_wave(1e200, 1.0),
     "omega = sqrt(p^2 + m^2) overflows at p = 1e+200, mass = 1.0"),
], ids=["apply-convolution", "apply-dirac", "residual-gap", "residual-ratio", "conservation-drift",
        "divergence", "plane-wave"])
def test_arithmetic_that_leaves_the_float_range_raises_and_never_warns(call, text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError) as exc:
            call()
    assert str(exc.value) == text


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_green_residual_refuses_a_non_finite_source_level(bad):
    cfg, source = _green_pulse_256()
    result = ev.retarded_green_apply(source, cfg)
    source.data[40, 7, 2] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^source level 40 holds a non-finite value$"):
            ev.green_residual(result, source)


# numpy's complex abs gives inf, with no overflow flag, for a finite entry past the range
@pytest.mark.parametrize("bad, error, text", [
    (complex(1.7e308, 1.7e308), OverflowError, "the convolution E * f leaves the float range"),
    (complex(np.nan, 0.0), ValueError, "source level 40 holds a non-finite value"),
], ids=["finite", "nan"])
def test_green_apply_tells_a_modulus_past_the_float_range_from_a_non_finite_source(
        bad, error, text):
    cfg, source = _green_pulse_256()
    source.data[40, 7, 2] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as exc:
            ev.retarded_green_apply(source, cfg)
    assert type(exc.value) is error and str(exc.value) == text


@pytest.mark.parametrize("bad, error, text", [
    (complex(1.7e308, 1.7e308), OverflowError, "|f| at source level 40 leaves the float range"),
    (complex(0.0, -np.inf), ValueError, "source level 40 holds a non-finite value"),
], ids=["finite", "inf"])
def test_green_residual_tells_a_modulus_past_the_float_range_from_a_non_finite_source(
        bad, error, text):
    # an inf scale would divide the residual to 0, a silent pass
    cfg, source = _green_pulse_256()
    result = ev.retarded_green_apply(source, cfg)
    source.data[40, 7, 2] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as exc:
            ev.green_residual(result, source)
    assert type(exc.value) is error and str(exc.value) == text


def test_dirac_levels_leave_the_callers_float_flags_alone():
    cfg = small_config(steps=4)
    u = np.zeros((cfg.steps + 1, cfg.points, cfg.fiber), dtype=complex)
    for sigma in (1.0, -1.0):
        for _ in ev._dirac_levels(cfg, u, sigma):
            # the level's raising flags are not in force while the caller runs
            assert np.geterr()["over"] == "warn"


def _reference_dirac_levels(cfg, u, sigma):
    """The level-by-level Dirac step the block step replaced, kept as its bitwise reference."""
    cols, (w0, w3) = ev.symbol_columns(cfg.k, cfg.l, 0, 3)
    prev, cur, d_t, d_z, level, t_scale, z_scale = np.empty(
        (7, cfg.points, cfg.fiber), dtype=complex
    )
    t_scale[:, cols] = w0 * (1.0 / (2.0 * cfg.dt))
    z_scale[:, cols] = w3 * (1.0 / (2.0 * cfg.dz))
    mass = sigma * 1j * cfg.mass
    sign = "+" if sigma > 0 else "-"
    for t in range(cfg.steps + 1):
        with ev._float_range(f"(D {sign} i m) u overflows at level {t}"):
            np.copyto(cur, u[t])
            # u[t + 1] is not overwritten yet; at t = 0 the copy of u[t] stands in for u[t - 1]
            np.subtract(u[min(t + 1, cfg.steps)], prev if t > 0 else cur, out=d_t)
            if t in (0, cfg.steps):
                d_t *= 2.0  # a one-sided difference spans dt, not 2 dt
            d_t *= t_scale
            d_t += np.multiply(ev._periodic_difference(cur, d_z), z_scale, out=d_z)
            np.take(d_t, cols, axis=1, out=level, mode="clip")
            level += np.multiply(cur, mass, out=d_z)
        yield level
        prev, cur = cur, prev


def _reference_green_residual(result, source):
    """green_residual as a level-by-level fold over the reference Dirac step."""
    cfg = result.config
    worst = scale = 0.0
    for t, level in enumerate(_reference_dirac_levels(cfg, result.data, 1.0)):
        scale = max(scale, np.abs(source.data[t]).max())
        if 2 <= t <= cfg.steps - 2:
            worst = max(worst, np.abs(level - source.data[t]).max())
    return float(worst / max(float(scale), 1e-300))


def _reference_source_support(f):
    """(t1, components) of a source from |f| of the whole field."""
    amp = np.abs(f)
    components = np.flatnonzero(amp.max(axis=(0, 1)))
    if components.size == 0:
        return -1, components
    return int(np.flatnonzero(amp.max(axis=(1, 2)))[-1]), components


# 129 levels take blocks of 2 and 200 levels blocks of 3, each with a shorter last block
@pytest.mark.parametrize("levels", [129, 200])
@pytest.mark.parametrize("points", [8, 9, 64, 256])
@pytest.mark.parametrize("k, l", [(0, 0), (1, 1), (2, 1)])
def test_block_loops_are_bitwise_the_level_by_level_reference(k, l, points, levels):
    dz = 0.25
    cfg = small_config(k=k, l=l, points=points, extent=points * dz, dt=dz, steps=levels - 1)
    size = ev._block_length(levels)
    assert size > 1 and levels % size != 0
    rng = np.random.default_rng([k, l, points, levels])
    u, f = _random_levels(rng, cfg), _random_levels(rng, cfg)
    f[-5:] = 0.0  # the support ends before the last level
    for sigma in (1.0, -1.0):
        starts, blocks = zip(*[(t0, block.copy()) for t0, block in ev._dirac_levels(cfg, u, sigma)])
        # every block but the last holds ``size`` levels, and every level is in one
        assert list(starts) == list(range(0, levels, size))
        assert [len(b) for b in blocks] == [size] * (len(blocks) - 1) + [levels % size]
        expect = np.array([level.copy() for level in _reference_dirac_levels(cfg, u, sigma)])
        assert np.concatenate(blocks).tobytes() == expect.tobytes()
    source = ev.GridField(cfg, f)
    conv = ev._retarded_convolution(f, cfg)
    expect = np.array([level.copy() for level in _reference_dirac_levels(cfg, conv, -1.0)])
    assert ev.retarded_green_apply(source, cfg).data.tobytes() == expect.tobytes()
    result = ev.GridField(cfg, u)
    assert ev.green_residual(result, source) == _reference_green_residual(result, source)
    t1, components = ev._source_support(f)
    ref_t1, ref_components = _reference_source_support(f)
    assert t1 == ref_t1 == levels - 6 and np.array_equal(components, ref_components)


def _named_level_case(kind, t):
    """A call that fails at level t alone, and the message that must name it."""
    mass = {"apply-dirac": 1e30, "residual-gap": 1.3e8}.get(kind, 1.0)
    cfg = small_config(mass=mass, points=64, extent=64.0, dt=1.0, steps=200)
    shape = (cfg.steps + 1, cfg.points, cfg.fiber)
    result, source = np.zeros(shape, dtype=complex), np.ones(shape, dtype=complex)
    if kind == "apply-dirac":
        # E * f stays finite, but (D - i m) u carries m u from the source's first level on
        source[:] = 0.0
        source[t : t + 3, 30:34, 0] = 1e290
        return (lambda: ev.retarded_green_apply(ev.GridField(cfg, source), cfg),
                OverflowError, f"(D - i m) u overflows at level {t}")
    if kind == "apply-source":
        source[t, 7, 2] = np.nan
        return (lambda: ev.retarded_green_apply(ev.GridField(cfg, source), cfg),
                ValueError, f"source level {t} holds a non-finite value")
    if kind == "residual-dirac":
        # d_t u[t] = u[t + 1] - u[t - 1] overflows; the levels around t stay finite
        result[t - 1, 7, 2], result[t + 1, 7, 2] = 1e308, -1e308
        message, error = f"(D + i m) u overflows at level {t}", OverflowError
    elif kind == "residual-gap":
        # each component of (D + i m) u is finite on level t, its modulus is not
        result[t] = complex(1e300, 1e300)
        message, error = f"(D + i m) u - f overflows at level {t}", OverflowError
    elif kind == "residual-scale":
        source[t, 7, 2] = complex(1.7e308, 1.7e308)
        message, error = f"|f| at source level {t} leaves the float range", OverflowError
    elif kind == "residual-source":
        source[t, 7, 2] = complex(0.0, -np.inf)
        message, error = f"source level {t} holds a non-finite value", ValueError
    else:
        result[t, 7, 2] = np.inf
        message, error = f"result level {t} holds a non-finite value", ValueError
    return (lambda: ev.green_residual(ev.GridField(cfg, result), ev.GridField(cfg, source)),
            error, message)


@pytest.mark.parametrize("kind", ["apply-dirac", "apply-source", "residual-dirac", "residual-gap",
                                  "residual-scale", "residual-source", "residual-result"])
def test_a_failure_inside_a_block_names_its_own_level_and_never_warns(kind):
    t = 100
    size = ev._block_length(201)
    assert 0 < t % size < size - 1  # neither the first nor the last level of its block
    call, error, message = _named_level_case(kind, t)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as exc:
            call()
    assert type(exc.value) is error and str(exc.value) == message


def test_conservation_fold_refuses_an_empty_stream():
    cfg = small_config(k=1, l=1)
    with pytest.raises(ValueError, match="^the level stream is empty$"):
        ev.conservation_fold(cfg, [])
    with pytest.raises(ValueError, match="^the level stream is empty$"):
        ev.conservation_fold(cfg, [], [])


@pytest.mark.parametrize("fold", [ev.conservation_fold, ev.divergence_fold],
                         ids=["conservation", "divergence"])
@pytest.mark.parametrize("short", ["a", "b"])
def test_the_folds_refuse_streams_of_unequal_lengths(fold, short):
    rng = np.random.default_rng(25)
    cfg = small_config(k=1, l=1, points=16, extent=4.0, dt=0.1, steps=6)
    a, b = _random_levels(rng, cfg), _random_levels(rng, cfg)
    if short == "a":
        a = a[:-1]
    else:
        b = b[:-1]
    with pytest.raises(ValueError, match="zip"):
        fold(cfg, a, b)


def test_divergence_fold_needs_three_levels():
    # the levels it gets count, not the config's steps: a "below" row must not
    # pass on a stream cut short
    rng = np.random.default_rng(26)
    for steps in (1, 8):
        cfg = small_config(points=16, extent=4.0, dt=0.1, steps=steps)
        a, b = _random_levels(rng, cfg), _random_levels(rng, cfg)
        for count in range(3):
            with pytest.raises(ValueError) as exc:
                ev.divergence_fold(cfg, a[:count], b[:count])
            assert str(exc.value) == "need at least 3 time levels for a centered residual"
    assert ev.divergence_fold(cfg, a[:3], b[:3]) > 0.0


def test_divergence_fold_keeps_a_non_finite_level_visible():
    rng = np.random.default_rng(24)
    cfg = small_config(points=16, extent=4.0, dt=0.1, steps=6)
    a, b = _random_levels(rng, cfg), _random_levels(rng, cfg)
    a[3, 5, 0] = np.nan
    assert np.isnan(ev.divergence_fold(cfg, a, b))


def test_conservation_check_streams_levels_instead_of_storing_the_field():
    field_nbytes = 201 * 1024 * hs.fiber_dim(2, 2) * 16  # the row's 200-step run
    tracemalloc.start()
    try:
        drift = checks.conservation_drift(2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert drift < 1e-5
    assert peak < field_nbytes / 4


def test_causal_audit_streams_levels_instead_of_storing_the_field():
    n_pts = 512
    dz = 25.6 / n_pts
    cfg = small_config(k=1, l=1, extent=25.6, points=n_pts, dt=0.5 * dz, steps=200)
    z = cfg.zgrid()
    u0 = np.zeros((n_pts, cfg.fiber), dtype=complex)
    u0[:, 0] = bump((z - 12.8) / (8 * dz))
    field_nbytes = (cfg.steps + 1) * cfg.points * cfg.fiber * 16
    tracemalloc.start()
    try:
        report = ev.causal_support_check(u0, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report["exact_outside"] == 0.0
    assert peak < field_nbytes / 4


@pytest.mark.parametrize("name", ["conservation_fold", "divergence_fold", "plane_wave"])
def test_fiber_operators_stay_off_dense_matrices_at_large_rank(name):
    # k = l = 16 (fiber 1156), 8 points, 4 steps: one dense F x F complex matrix
    # is F^2 16 bytes, while the column maps and the levels need O(F) per point
    cfg = small_config(k=16, l=16, extent=8.0, points=8, dt=0.5, steps=4)
    u0 = np.zeros((cfg.points, cfg.fiber), dtype=complex)
    u0[3, ::7] = 1.0
    calls = {
        "conservation_fold": lambda: ev.conservation_fold(cfg, ev.leapfrog(u0, cfg)),
        "divergence_fold": lambda: ev.divergence_fold(
            cfg, ev.leapfrog(u0, cfg), ev.leapfrog(u0, cfg)),
        "plane_wave": lambda: ev.plane_wave(1.3, 1.0, k=16, l=16, pol=5),
    }
    assert _traced_peak(calls[name]) < cfg.fiber**2 * 16 / 4


def _dense(cols, w):
    """The generalized permutation matrix with row i holding w[i] in column cols[i]."""
    mat = np.zeros((cols.size, cols.size), dtype=complex)
    mat[np.arange(cols.size), cols] = w
    return mat


def test_leapfrog_operator_is_diagonal_and_currents_share_columns():
    # the composed maps against dense products of the matrices they are composed from
    for k in range(4):
        for l in range(4):
            cfg = small_config(k=k, l=l)
            g0, g3 = (hs.symbol_matrix(k, l, mk.basis_vector(d, covariant=True)) for d in (0, 3))
            a = -g0 @ g3
            assert np.array_equal(a, np.diag(np.diag(a)))
            assert set(np.diag(a).tolist()) <= {1.0, -1.0}
            cols, (w0, w3) = hs.symbol_columns(k, l, 0, 3)
            assert np.array_equal(cols[cols], np.arange(cfg.fiber))
            assert np.array_equal(_dense(cols, w0), g0) and np.array_equal(_dense(cols, w3), g3)
            assert np.array_equal(np.diag(-w0 * w3[cols]), a)
            if k == l:
                cols, x0, x3 = ev._currents(cfg)
                assert np.array_equal(np.sort(cols), np.arange(cols.size))
                # the closed form and the tensor engine's build of P, independently
                for pairing in (hs.pairing_matrix(k), hs._pairing_matrix_reference(k)):
                    assert np.array_equal(_dense(cols, x0), pairing @ g0)
                    assert np.array_equal(_dense(cols, x3), pairing @ g3)


def test_fast_paths_refuse_operators_without_their_structure(monkeypatch):
    cfg = small_config(k=1, l=1, points=16, extent=4.0, dt=0.1, steps=4)
    u0 = np.ones((cfg.points, cfg.fiber), dtype=complex)
    symbol_columns = ev.symbol_columns

    def cycled(k, l, *axes):  # a map Gamma0 and Gamma3 share, cycled on three components: no involution
        cols, weights = symbol_columns(k, l, *axes)
        return cols[[1, 2, 0, *range(3, cols.size)]], weights

    with monkeypatch.context() as patch:
        patch.setattr(ev, "symbol_columns", cycled)
        with pytest.raises(hs.InvariantViolation, match="diagonal"):
            next(ev.leapfrog(u0, cfg))
    symbol = hs.symbol_matrix
    shift = np.roll(np.eye(4), 1, axis=0)  # a cyclic column shift of the chiral factor

    def shifted(k, l, xi):  # Gamma3 alone gathers other columns than Gamma0
        mat = symbol(k, l, xi)
        return mat @ shift if xi.components[3] else mat

    monkeypatch.setattr(hs, "symbol_matrix", shifted)
    with pytest.raises(hs.InvariantViolation, match="same columns"):
        next(ev.leapfrog(u0, cfg))
    with pytest.raises(hs.InvariantViolation, match="same columns"):
        ev.divergence_fold(cfg, [u0] * 3, [u0] * 3)
    with pytest.raises(hs.InvariantViolation, match="same columns"):
        next(ev._dirac_levels(cfg, np.ones((cfg.steps + 1,) + u0.shape, dtype=complex), 1.0))


def _mask_max(mag, ia, ib, reach):
    """Reference: max |u| over the columns farther than ``reach`` cells from ia .. ib."""
    n = mag.shape[0]
    idx = np.arange(n)
    dist = np.minimum((ia - idx) % n, (idx - ib) % n)
    dist[ia : ib + 1] = 0
    return np.max(np.max(mag, axis=1)[dist > reach], initial=0.0)


@pytest.mark.parametrize(
    "ia, ib, reach, outside",
    [
        (2, 5, 4, range(10, 14)),  # the cone wraps past row 0
        (10, 13, 4, range(2, 6)),  # the cone wraps past the last row
        (4, 9, 3, [*range(0, 1), *range(13, 16)]),  # no wrap: two slices
        (4, 9, 5, []),  # the cone covers the grid
        (4, 9, 40, []),
    ],
)
def test_slice_maxima_match_the_distance_mask(ia, ib, reach, outside):
    rng = np.random.default_rng(25)
    mag = rng.random((16, 3))
    got = ev._max_outside(mag, ia - reach, ib + reach)
    assert got == _mask_max(mag, ia, ib, reach)
    assert got == (np.max(mag[list(outside)]) if len(outside) else 0.0)
    for row in range(16):
        planted = mag.copy()
        planted[row, 1] = np.nan
        got = ev._max_outside(planted, ia - reach, ib + reach)
        assert np.isnan(got) == (row in outside)
        assert np.array_equal(got, _mask_max(planted, ia, ib, reach), equal_nan=True)


def test_slice_maxima_match_the_distance_mask_on_every_support():
    rng = np.random.default_rng(26)
    for n in (8, 13):
        mag = rng.random((n, 2))
        for ia in range(1, n - 1):
            for ib in range(ia, n - 1):
                for reach in range(n + 1):
                    assert ev._max_outside(mag, ia - reach, ib + reach) == _mask_max(mag, ia, ib, reach)


@pytest.mark.parametrize("planted", [0.25, np.nan])
def test_causal_audit_reports_a_value_planted_outside_both_cones(monkeypatch, planted):
    cfg = small_config(points=64, extent=8.0, dt=0.0625, steps=3)
    u0 = np.zeros((cfg.points, cfg.fiber), dtype=complex)
    u0[30:34, 0] = 1.0

    def planted_levels(phi0, cfg):
        for n in range(cfg.steps + 1):
            level = np.zeros_like(u0)
            level[30 - n : 34 + n, 0] = 1.0
            if n == 2:
                level[50, 3] = planted  # 17 cells past the support: outside both cones
            yield level

    monkeypatch.setattr(ev, "leapfrog", planted_levels)
    report = ev.causal_support_check(u0, cfg)
    if np.isnan(planted):
        assert np.isnan(report["exact_outside"]) and np.isnan(report["cone_leak"])
        assert np.isnan(report["cone_leak_rel"])
    else:
        assert report["exact_outside"] == report["cone_leak"] == planted
        assert report["peak"] == 1.0

"""Stacked kernels: each against its one-sample calls, in bounded chunks, with stack refusals.

The per-sample loops that the report's stacked rows replaced are kept here as the reference
for their gaps, on the samples each row draws from its own generator.
"""

import functools
import sys
import tracemalloc
import zlib

import numpy as np
import pytest

from spinlab import checks
from spinlab import clifford as cl
from spinlab import higher_spin as hs
from spinlab import minkowski as mk

SHAPES = [(), (5,), (2, 3)]
GAMMAS = cl.weyl_gammas()


def _members(fn, shape, *arrays):
    """fn on each member of a stack of ``shape`` (the leading axes of every array), restacked."""
    out = [fn(*(a[index] for a in arrays)) for index in np.ndindex(shape)]
    if isinstance(out[0], tuple):
        return tuple(np.reshape(part, shape + np.shape(part[0])) for part in zip(*out))
    return np.reshape(out, shape + np.shape(out[0]))


def _assert_equal(stacked, looped):
    for got, want in zip(*(x if isinstance(x, tuple) else (x,) for x in (stacked, looped))):
        assert got.shape == want.shape
        assert np.array_equal(got, want)


def _planted_targets(rng, shape):
    planted = rng.normal(size=shape + (4, 4)) + 1j * rng.normal(size=shape + (4, 4))
    return planted[..., None, :, :] @ GAMMAS @ np.linalg.inv(planted)[..., None, :, :]


def _lorentz_generators(a, b):
    rot = np.zeros((3, 4, 4))
    rot[:, 1:, 1:] = -cl.LEVI_CIVITA.transpose(2, 0, 1)
    boost = np.zeros((3, 4, 4))
    boost[:, 0, 1:] = boost[:, 1:, 0] = np.eye(3)
    return np.einsum("...i,iab->...ab", a, rot) + np.einsum("...i,iab->...ab", b, boost)


# ---------------------------------------------------------------------------
# each stacked function equals its one-sample calls, bit for bit


@pytest.mark.parametrize("shape", SHAPES)
def test_clifford_stacks_equal_their_members(shape):
    rng = np.random.default_rng(40)
    a, b = rng.normal(size=shape + (3,)), rng.normal(size=shape + (3,))
    _assert_equal(cl.exp_spin(a, b), _members(cl.exp_spin, shape, a, b))
    gen = _lorentz_generators(a, b)
    _assert_equal(cl.exp_lorentz(gen), _members(cl.exp_lorentz, shape, gen))
    target = _planted_targets(rng, shape)
    _assert_equal(cl.pauli_intertwiner(GAMMAS, target),
                  _members(functools.partial(cl.pauli_intertwiner, GAMMAS), shape, target))


def test_a_single_input_keeps_its_shape():
    s2, s4 = cl.exp_spin([0.1, 0.2, 0.3], [0.0, 0.5, 0.0])
    assert s2.shape == (2, 2) and s4.shape == (4, 4)
    assert cl.exp_lorentz(np.zeros((4, 4))).shape == (4, 4)
    assert cl.pauli_intertwiner(GAMMAS, cl.dirac_gammas()).shape == (4, 4)


def test_exp_spin_broadcasts_its_parameters():
    rng = np.random.default_rng(41)
    a, b = rng.normal(size=(4, 3)), rng.normal(size=3)
    _assert_equal(cl.exp_spin(a, b), _members(lambda x: cl.exp_spin(x, b), (4,), a))


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("k, l", [(0, 0), (1, 2), (2, 2)])
def test_fiber_kernels_equal_their_one_sample_wrappers(shape, k, l):
    rng = np.random.default_rng(42)
    xi = rng.normal(size=shape + (4,)) + 0j
    mass = rng.normal(size=shape)
    vector = lambda x: mk.LorentzVector(x, covariant=True)
    _assert_equal(hs._symbol_matrices(k, l, xi),
                  _members(lambda x: hs.symbol_matrix(k, l, vector(x)), shape, xi))
    _assert_equal(hs._factorization_residuals(k, l, xi, mass),
                  _members(lambda x, m: hs.check_prenormal_factorization(vector(x), m, k, l),
                           shape, xi, mass))
    future = xi.copy()
    future[..., 0] = 1.0 + np.linalg.norm(xi[..., 1:], axis=-1)
    _assert_equal(hs._gram_signatures(k, future),
                  _members(lambda x: np.array(hs.gram_signature(k, vector(x))), shape, future))
    dim = hs.fiber_dim(k, l)
    packed = rng.normal(size=shape + (dim,)) + 1j * rng.normal(size=shape + (dim,))
    blocks = hs._sector_blocks(packed, k, l)

    def apply(x, u):
        moved = hs.apply_symbol(vector(x), hs.unpack(u, k, l))
        return moved.phi1.data, moved.phi2.data

    _assert_equal(hs._symbol_blocks(xi, *blocks, len(shape)), _members(apply, shape, xi, packed))


def test_the_pairing_diagonal_is_gen_pairing_member_by_member():
    # one matrix product for the outer stack may sum in another order than one pair at a time
    rng = np.random.default_rng(43)
    k = 2
    dim = hs.fiber_dim(k, k)
    u, v = (rng.normal(size=(5, dim)) + 1j * rng.normal(size=(5, dim)) for _ in range(2))
    diagonal = np.diagonal(hs._pairing_blocks(k, hs._sector_blocks(u, k, k),
                                              hs._sector_blocks(v, k, k)))
    looped = [hs.gen_pairing(hs.unpack(a, k, k), hs.unpack(b, k, k)) for a, b in zip(u, v)]
    np.testing.assert_allclose(diagonal, looped, rtol=1e-14, atol=1e-13)


# ---------------------------------------------------------------------------
# the chunks of one fixed budget give the bits of a single chunk


def test_the_chunk_helper_joins_chunks_and_keeps_the_stack_shape(monkeypatch):
    values = np.arange(24.0).reshape(2, 3, 4)
    double = lambda x: (2 * x, x.sum(axis=1))
    whole = mk._stacked(double, (2, 3), 32, values)
    calls = []
    monkeypatch.setattr(mk, "_CHUNK_BYTES", 64)
    chunked = mk._stacked(lambda x: calls.append(len(x)) or double(x), (2, 3), 32, values)
    assert calls == [2, 2, 2]
    _assert_equal(chunked, whole)
    assert whole[0].shape == (2, 3, 4) and whole[1].shape == (2, 3)
    empty = mk._stacked(lambda x: 2 * x, (0,), 32, np.zeros((0, 4)))
    assert empty.shape == (0, 4)


def test_many_chunks_give_the_bits_of_one(monkeypatch):
    rng = np.random.default_rng(44)
    a, b = rng.normal(size=(7, 3)), rng.normal(size=(7, 3))
    xi = rng.normal(size=(7, 4)) + 0j
    future = np.concatenate([1.0 + np.linalg.norm(xi[:, 1:], axis=1, keepdims=True), xi[:, 1:]], 1)
    target = _planted_targets(rng, (3,))
    direction = mk.LorentzVector(xi[0], covariant=True)

    def run():
        return (*cl.exp_spin(a, b), cl.exp_lorentz(_lorentz_generators(a, b)),
                cl.pauli_intertwiner(GAMMAS, target),
                hs._factorization_residuals(2, 1, xi, b[:, 0]), hs._gram_signatures(2, future),
                hs._symbol_matrix_reference(2, 1, direction), hs._pairing_matrix_reference(2))

    whole = run()
    monkeypatch.setattr(mk, "_CHUNK_BYTES", 1)  # one member per chunk
    _assert_equal(run(), whole)


def _peak_bytes(call, returned=lambda out: 0):
    """The traced peak of ``call``, less ``returned(result)`` bytes."""
    tracemalloc.start()
    try:
        out = call()
        return tracemalloc.get_traced_memory()[1] - returned(out)
    finally:
        tracemalloc.stop()


def test_a_chunk_holds_about_the_chunk_budget(monkeypatch):
    # a chunk is cut by a member's working set, four F x F complex arrays at k = l = 5
    rng = np.random.default_rng(46)
    xi, mass = rng.normal(size=(100, 4)) + 0j, rng.normal(size=100)
    future = np.concatenate([1.0 + np.linalg.norm(xi[:, 1:], axis=1, keepdims=True), xi[:, 1:]], 1)
    calls = {"factorization": lambda: hs._factorization_residuals(5, 5, xi, mass),
             "gram": lambda: hs._gram_signatures(5, future)}
    for name, call in calls.items():
        assert _peak_bytes(call) < 2 * mk._CHUNK_BYTES, name
    # and the arrays each clifford kernel holds: at a 1 MiB budget, these stacks would be one
    # chunk if a member counted its output alone (256, 128 and 64 d^4 bytes); the join holds
    # the chunks' results and their joined whole at once
    monkeypatch.setattr(mk, "_CHUNK_BYTES", 1 << 20)
    a, b = rng.normal(size=(2, 8192, 3))
    gen, target = _lorentz_generators(a, b), _planted_targets(rng, (64,))
    calls = {"exp_spin": lambda: cl.exp_spin(a[:4096], b[:4096]),
             "exp_lorentz": lambda: (cl.exp_lorentz(gen),),
             "pauli_intertwiner": lambda: (cl.pauli_intertwiner(GAMMAS, target),)}
    for name, call in calls.items():
        joined = _peak_bytes(call, lambda out: 2 * sum(x.nbytes for x in out))
        assert joined < 2 * mk._CHUNK_BYTES, name


def test_a_unit_basis_reference_holds_about_the_chunk_budget():
    # at k = l = 6 a member's sector blocks are 2^13 entries each; the references count
    # their symbol blocks, casts and copies too, not the real unit blocks alone
    direction = mk.LorentzVector(np.array([1.3, 0.2, -0.4, 0.5]), covariant=True)
    calls = {"symbol": lambda: hs._symbol_matrix_reference(6, 6, direction),
             "pairing": lambda: hs._pairing_matrix_reference(6)}
    for name, call in calls.items():
        assert _peak_bytes(call) < 2 * mk._CHUNK_BYTES, name


# ---------------------------------------------------------------------------
# a refusal in a stack names the first failing member


@pytest.mark.parametrize("shape, index", [((5,), "3"), ((2, 3), "1, 0")])
def test_a_nan_member_is_refused_by_its_index(shape, index):
    rng = np.random.default_rng(45)
    a, b = rng.normal(size=shape + (3,)), rng.normal(size=shape + (3,))
    member = np.unravel_index(3, shape)
    a[member + (1,)] = np.nan
    with pytest.raises(ValueError, match=f"exp_spin requires finite parameters at index {index}$"):
        cl.exp_spin(a, b)
    gen = _lorentz_generators(np.nan_to_num(a), b)
    gen[member + (0, 2)] = np.nan
    with pytest.raises(ValueError, match=f"finite 4x4 generator at index {index}$"):
        cl.exp_lorentz(gen)
    gen[member + (0, 2)] = 5.0
    with pytest.raises(ValueError, match=rf"so\(1,3\)\) at index {index}$"):
        cl.exp_lorentz(gen)
    target = _planted_targets(rng, shape)
    target[member + (2, 0, 0)] = np.nan
    with pytest.raises(ValueError, match=f"finite gamma matrices at index {index}$"):
        cl.pauli_intertwiner(GAMMAS, target)
    target[member] = np.zeros((4, 4, 4))
    with pytest.raises(ValueError, match=rf"not conjugate \(no intertwiner\) at index {index}$"):
        cl.pauli_intertwiner(GAMMAS, target)
    source = np.broadcast_to(GAMMAS, target.shape).copy()
    source[member] = target[member] = [np.diag([1.0, 2.0, 3.0, 4.0]) * (a + 1) for a in range(4)]
    with pytest.raises(ValueError, match=f"not irreducible .* at index {index}$"):
        cl.pauli_intertwiner(source, target)


def test_a_non_hermitian_gram_member_is_refused_by_its_index():
    xi = np.tile([1.0 + 0j, 0.0, 0.0, 0.0], (5, 1))
    xi[3, 2] = np.nan
    with pytest.raises(cl.InvariantViolation, match=r"not Hermitian \(gap nan\) at index 3$"):
        hs._gram_signatures(1, xi)
    with pytest.raises(cl.InvariantViolation, match=r"not Hermitian \(gap nan\)$"):
        hs.gram_signature(1, mk.LorentzVector(xi[3], covariant=True), require_future=False)


# ---------------------------------------------------------------------------
# the stacked rows draw the samples of the per-sample loops they replaced


def _factorization_by_sample(xi, mass, k, l):
    # check_prenormal_factorization before it became a wrapper of the stacked kernel
    xi_low = xi.lowered()
    gam = hs.symbol_matrix(k, l, xi_low)
    eye = np.eye(hs.fiber_dim(k, l))
    q = mk.metric_eval(xi_low, xi_low)
    lhs = (gam + mass * eye) @ (gam - mass * eye)
    return float(np.max(np.abs(lhs - (q - mass**2) * eye)))


def _row_stream(seed, row):
    return np.random.default_rng([seed, zlib.crc32(f"symbols/{row}".encode())])


def _symbols_rows_by_sample(seed, k):
    """The symbols suite's sample rows at pairs=[(k, k)] as per-sample loops, each row's gaps,
    with every sample each row drew from its generator."""
    rows, samples = {}, {}
    rng = _row_stream(seed, f"factorization-k{k}-l{k}")
    xis, masses = rng.normal(size=(100, 4)), rng.normal(size=100)
    draws = [(mk.LorentzVector(xi, covariant=True), float(m)) for xi, m in zip(xis, masses)]
    rows["factorization"] = [_factorization_by_sample(xi, m, k, k) for xi, m in draws]
    samples["factorization"] = draws

    gap_of = {  # each row's per-sample gap, as the loops computed it
        "pairing-hermitian": lambda a, b, _: abs(np.conj(hs.gen_pairing(a, b))
                                                 - hs.gen_pairing(b, a)),
        "self-adjoint-symbol": lambda a, b, xi: abs(hs.gen_pairing(a, hs.apply_symbol(xi, b))
                                                    - hs.gen_pairing(hs.apply_symbol(xi, a), b)),
        "xi-form-hermitian": lambda a, b, xi: abs(np.conj(hs.xi_form(a, b, xi))
                                                  - hs.xi_form(b, a, xi)),
    }
    for row, gap in gap_of.items():
        rng = _row_stream(seed, f"{row}-k{k}")  # a and b, real and imaginary parts, then xi
        parts, xis = rng.normal(size=(4, 20, hs.fiber_dim(k, k))), rng.normal(size=(20, 4))
        pairs = [(hs.unpack(a_re + 1j * a_im, k, k), hs.unpack(b_re + 1j * b_im, k, k),
                  mk.LorentzVector(xi, covariant=True))
                 for a_re, a_im, b_re, b_im, xi in zip(*parts, xis)]
        rows[row], samples[row] = [gap(*pair) for pair in pairs], pairs
    return rows, samples


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("k", [1, 2])
def test_the_stacked_symbol_rows_draw_the_per_sample_loops_samples(monkeypatch, seed, k):
    seen = {}

    def record(name):
        real = getattr(hs, name)

        def wrapped(*args):  # filed under the name of the function that called it
            seen.setdefault((sys._getframe(1).f_code.co_name, name), []).append(args)
            return real(*args)

        monkeypatch.setattr(hs, name, wrapped)

    for name in ("_factorization_residuals", "_pairing_blocks", "_symbol_blocks"):
        record(name)
    report = checks.SUITES["symbols"](seed, timings=False, pairs=[(k, k)]).report()
    residuals = {row["id"]: row["residual"] for row in report["checks"]}
    rows, samples = _symbols_rows_by_sample(seed, k)

    [(_, _, xi, mass)] = seen[("factorization", "_factorization_residuals")]
    assert np.array_equal(xi, [x.components.real for x, _ in samples["factorization"]])
    assert np.array_equal(mass, [m for _, m in samples["factorization"]])
    # the kernel squares the mass as m * m, where the loop took m**2
    assert residuals[f"factorization-k{k}-l{k}"] == pytest.approx(max(rows["factorization"]),
                                                                  abs=1e-15)
    # one contraction per pair, as the loop made, so the residuals are the loop's bits
    for row in ("pairing-hermitian", "self-adjoint-symbol", "xi-form-hermitian"):
        assert residuals[f"{row}-k{k}"] == max(rows[row])
    # each row pairs each of its 20 pairs twice, on that pair's blocks and their symbols
    monkeypatch.undo()
    assert len(seen[("symbols", "_symbol_blocks")]) == 2 * 2 * 20
    symbol = lambda xi, blocks: hs._symbol_blocks(xi.components, *blocks, 0)
    expected = {  # each pair's two pairings, in the row's order
        "pairing-hermitian": lambda a, b, xi: [(a, b), (b, a)],
        "self-adjoint-symbol": lambda a, b, xi: [(a, symbol(xi, b)), (symbol(xi, a), b)],
        "xi-form-hermitian": lambda a, b, xi: [(a, symbol(xi, b)), (b, symbol(xi, a))],
    }
    for row, pairing_arguments in expected.items():
        calls = seen[(row.replace("-", "_"), "_pairing_blocks")]
        want = [arguments for a, b, xi in samples[row] for arguments in pairing_arguments(
            (a.phi1.data, a.phi2.data), (b.phi1.data, b.phi2.data), xi)]
        assert len(calls) == len(want) == 2 * 20
        for (_, *got), arguments in zip(calls, want):
            assert all(np.array_equal(g, w) for pair in zip(got, arguments) for g, w in zip(*pair))

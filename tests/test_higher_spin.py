"""Twisted fibers: packing, symbols, pairings, and Gram signatures."""

import itertools

import numpy as np
import pytest

from spinlab import higher_spin as hs
from spinlab import minkowski as mk
from spinlab import spinor_core as sc
from spinlab.clifford import weyl_gammas

E0_COV = mk.basis_vector(0, covariant=True)


def random_fiber(rng, k, l):
    dim = hs.fiber_dim(k, l)
    return hs.unpack(rng.normal(size=dim) + 1j * rng.normal(size=dim), k, l)


def test_fiber_dimension_formula():
    assert hs.fiber_dim(0, 0) == 4
    assert hs.fiber_dim(1, 1) == 16
    assert hs.fiber_dim(2, 2) == 36
    assert hs.fiber_dim(2, 0) == 12


def test_pack_unpack_roundtrip():
    rng = np.random.default_rng(0)
    for k in range(4):
        for l in range(4):
            vec = rng.normal(size=hs.fiber_dim(k, l)) + 1j * rng.normal(
                size=hs.fiber_dim(k, l)
            )
            assert np.array_equal(hs.pack(hs.unpack(vec, k, l)), vec)


def _orbit_indicators(k, l):
    """Packed basis enumerated index by index: (sector, block) per slot, in packed order."""
    indices = list(itertools.product(range(2), repeat=1 + k + l))
    basis = []
    for sector, c, tu, td in itertools.product(range(2), range(2), range(k + 1), range(l + 1)):
        block = np.zeros((2,) * (1 + k + l))
        for idx in indices:
            if idx[0] == c and sum(idx[1:k + 1]) == tu and sum(idx[k + 1:]) == td:
                block[idx] = 1.0
        basis.append((sector, block))
    return basis


@pytest.mark.parametrize("k, l", list(itertools.product(range(4), repeat=2)))
def test_packed_slots_are_the_enumerated_orbit_indicators(k, l):
    basis = _orbit_indicators(k, l)
    units = np.eye(hs.fiber_dim(k, l), dtype=complex)
    assert len(basis) == len(units)
    for unit, (sector, block) in zip(units, basis):
        phi = hs.unpack(unit, k, l)
        blocks = (phi.phi1.data, phi.phi2.data)
        assert np.array_equal(blocks[sector], block)
        assert not np.any(blocks[1 - sector])
        assert np.array_equal(hs.pack(phi), unit)


@pytest.mark.parametrize("k, l", list(itertools.product(range(4), repeat=2)))
def test_pack_reads_the_sorted_representative(k, l):
    rng = np.random.default_rng(10 * k + l)
    dim = hs.fiber_dim(k, l)
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    phi = hs.unpack(vec, k, l)
    # an asymmetry far below the validation bound tells the orbit's entries apart
    blocks = [block.data + 1e-13 * rng.normal(size=block.data.shape)
              for block in (phi.phi1, phi.phi2)]
    packed = hs.pack(hs.HigherSpinVector(
        k, l, sc.Spinor(blocks[0], phi.phi1.tags), sc.Spinor(blocks[1], phi.phi2.tags)
    ))
    reps = [(c,) + (0,) * (k - tu) + (1,) * tu + (0,) * (l - td) + (1,) * td
            for c, tu, td in itertools.product(range(2), range(k + 1), range(l + 1))]
    expect = [block[rep] for block in blocks for rep in reps]
    assert np.array_equal(packed, expect)


def test_unpack_validates_length():
    with pytest.raises(ValueError):
        hs.unpack(np.zeros(5), 0, 0)


def test_fiber_vectors_enforce_twist_symmetry():
    data = np.zeros((2, 2, 2), dtype=complex)
    data[0, 0, 1] = 1.0  # antisymmetric part in the two twist axes
    data[0, 1, 0] = -1.0
    phi1 = sc.Spinor(data, (sc.UNDOTTED_UP,) * 3)
    phi2 = sc.Spinor(np.zeros((2, 2, 2), dtype=complex), (sc.DOTTED_LOW, sc.UNDOTTED_UP, sc.UNDOTTED_UP))
    with pytest.raises(ValueError):
        hs.HigherSpinVector(2, 0, phi1, phi2)


def test_fiber_dim_refuses_a_fractional_rank():
    with pytest.raises(ValueError, match="twist ranks must be integers"):
        hs.fiber_dim(1.5, 0)


def test_twist_typed_objects_refuse_a_negative_rank_with_one_text():
    # sym_dimension owns the rule; fiber_dim and the fiber vectors go through it
    phi = hs.unpack(np.ones(4), 0, 0)
    calls = [
        lambda: sc.sym_dimension(-1, 0),
        lambda: hs.fiber_dim(-1, 0),
        lambda: hs.HigherSpinVector(-1, 0, phi.phi1, phi.phi2),
    ]
    for call in calls:
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == "twist ranks must be nonnegative, got k = -1, l = 0"


@pytest.mark.parametrize("swap", ["phi1", "phi2"])
def test_fiber_vectors_refuse_blocks_with_the_wrong_tags(swap):
    phi = hs.unpack(np.ones(hs.fiber_dim(1, 0)), 1, 0)
    blocks = (phi.phi2, phi.phi2) if swap == "phi1" else (phi.phi1, phi.phi1)
    with pytest.raises(ValueError) as exc:
        hs.HigherSpinVector(1, 0, *blocks)
    wrong = blocks[0] if swap == "phi1" else blocks[1]
    assert str(exc.value) == f"{swap} tags {wrong.tags} do not match type (1,0)"


def test_dirac_spinor_refuses_a_half_of_the_wrong_length():
    with pytest.raises(ValueError, match="exactly 2 components"):
        hs.DiracSpinor([1.0, 0.0, 0.0], [1.0, 0.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)], ids=["nan", "inf", "-inf-j"])
@pytest.mark.parametrize("k, l", list(itertools.product(range(4), repeat=2)))
def test_fiber_vectors_refuse_a_non_finite_block(k, l, bad):
    # no errstate: the refusal comes before any arithmetic on the bad entry
    ones = np.ones(hs.fiber_dim(k, l), dtype=complex)
    phi = hs.unpack(ones, k, l)
    data = phi.phi2.data.copy()
    data.flat[-1] = bad
    with pytest.raises(ValueError, match="not finite"):
        hs.HigherSpinVector(k, l, phi.phi1, sc.Spinor(data, phi.phi2.tags))
    for pos in range(len(ones)):
        vec = ones.copy()
        vec[pos] = bad
        with pytest.raises(ValueError, match="not finite"):
            hs.unpack(vec, k, l)


def test_untwisted_symbol_matches_the_gamma_action():
    e3_cov = mk.basis_vector(3, covariant=True)
    gammas = weyl_gammas()
    np.testing.assert_allclose(hs.symbol_matrix(0, 0, E0_COV), gammas[0], atol=1e-13)
    np.testing.assert_allclose(hs.symbol_matrix(0, 0, e3_cov), -gammas[3], atol=1e-13)


def test_apply_symbol_requires_covariant_direction():
    rng = np.random.default_rng(1)
    phi = random_fiber(rng, 0, 0)
    with pytest.raises(ValueError):
        hs.apply_symbol(mk.basis_vector(0), phi)


def test_symbol_squares_to_the_metric():
    rng = np.random.default_rng(2)
    for k in range(3):
        for l in range(3):
            for _ in range(5):
                xi = mk.LorentzVector(rng.normal(size=4), covariant=True)
                assert hs.check_prenormal_factorization(xi, 0.7, k, l) < 1e-12


def test_symbol_matrix_is_linear_in_the_direction():
    rng = np.random.default_rng(3)
    a = mk.LorentzVector(rng.normal(size=4), covariant=True)
    b = mk.LorentzVector(rng.normal(size=4), covariant=True)
    lhs = hs.symbol_matrix(1, 1, a + b)
    rhs = hs.symbol_matrix(1, 1, a) + hs.symbol_matrix(1, 1, b)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_dirac_pairing_reduces_to_the_generalized_one():
    rng = np.random.default_rng(4)
    for _ in range(10):
        a = hs.DiracSpinor(
            rng.normal(size=2) + 1j * rng.normal(size=2),
            rng.normal(size=2) + 1j * rng.normal(size=2),
        )
        b = hs.DiracSpinor(
            rng.normal(size=2) + 1j * rng.normal(size=2),
            rng.normal(size=2) + 1j * rng.normal(size=2),
        )
        assert hs.dirac_adjoint(a)(b) == pytest.approx(
            hs.gen_pairing(a.as_higher(), b.as_higher()), abs=1e-13
        )


def test_gen_pairing_is_hermitian_and_sesquilinear():
    rng = np.random.default_rng(5)
    for k in range(3):
        a = random_fiber(rng, k, k)
        b = random_fiber(rng, k, k)
        lhs = hs.gen_pairing(a, b)
        assert np.conj(lhs) == pytest.approx(hs.gen_pairing(b, a), abs=1e-12)
        scaled = hs.gen_pairing(2j * a, b)
        assert scaled == pytest.approx(-2j * lhs, abs=1e-12)


def test_gen_dirac_adjoint_is_the_pairing_with_its_argument():
    rng = np.random.default_rng(13)
    for k in range(3):
        a = random_fiber(rng, k, k)
        b = random_fiber(rng, k, k)
        assert hs.gen_dirac_adjoint(a)(b) == hs.gen_pairing(a, b)


def test_gen_pairing_needs_matching_ranks():
    rng = np.random.default_rng(6)
    a = random_fiber(rng, 1, 0)
    b = random_fiber(rng, 1, 0)
    with pytest.raises(hs.KNotEqualL):
        hs.gen_pairing(a, b)
    with pytest.raises(hs.KNotEqualL):
        hs.gen_dirac_adjoint(a)


def test_symbol_is_self_adjoint_for_the_pairing():
    rng = np.random.default_rng(7)
    for k in range(3):
        a = random_fiber(rng, k, k)
        b = random_fiber(rng, k, k)
        xi = mk.LorentzVector(rng.normal(size=4), covariant=True)
        lhs = hs.gen_pairing(a, hs.apply_symbol(xi, b))
        rhs = hs.gen_pairing(hs.apply_symbol(xi, a), b)
        assert lhs == pytest.approx(rhs, abs=1e-11)


def test_xi_form_positive_example():
    phi = hs.DiracSpinor([1.0, 0.0], [1.0, 0.0]).as_higher()
    assert hs.xi_form(phi, phi, E0_COV) == pytest.approx(2.0)


def test_gram_signatures_at_the_time_direction():
    assert hs.gram_signature(0) == (4, 0, 0)
    assert hs.gram_signature(1) == (12, 4, 0)
    assert hs.gram_signature(2) == (24, 12, 0)


def test_gram_signature_constant_on_timelike_future_directions():
    rng = np.random.default_rng(8)
    for _ in range(10):
        space = rng.normal(size=3)
        t = np.linalg.norm(space) + 0.3 + rng.uniform(0, 1)
        xi = mk.LorentzVector(np.array([t, *space]), covariant=True)
        assert hs.gram_signature(0, xi) == (4, 0, 0)
        assert hs.gram_signature(1, xi) == (12, 4, 0)


def test_gram_signature_rejects_non_future_directions():
    with pytest.raises(hs.NotTimelikeFuture):
        hs.gram_signature(0, mk.basis_vector(1, covariant=True))
    with pytest.raises(hs.NotTimelikeFuture):
        hs.gram_signature(0, -1.0 * E0_COV)


def test_gram_signature_flips_at_the_past_direction():
    assert hs.gram_signature(0, -1.0 * E0_COV, require_future=False) == (0, 4, 0)


def test_witness_pair_certifies_both_signs_at_rank_two():
    (plus, q_plus), (minus, q_minus) = hs.witness_pair(2)
    assert q_plus > 0.1
    assert q_minus < -0.1
    assert hs.xi_form(plus, plus, E0_COV).real == pytest.approx(q_plus)
    assert hs.xi_form(minus, minus, E0_COV).real == pytest.approx(q_minus)


def test_witness_pair_refuses_the_definite_rank():
    with pytest.raises(hs.NoNegativeDirection):
        hs.witness_pair(0)


def test_twisted_positivity_accepts_positive_forms():
    rng = np.random.default_rng(9)
    for dim in range(1, 6):
        basis = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        form = basis.conj().T @ basis + 0.1 * np.eye(dim)
        assert hs.twisted_positivity_check(form)


def test_twisted_positivity_rejects_one_flipped_eigenvalue():
    rng = np.random.default_rng(10)
    for dim in range(1, 6):
        basis = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        form = basis.conj().T @ basis + 0.1 * np.eye(dim)
        eig, vec = np.linalg.eigh(form)
        eig[0] = -eig[0]
        flipped = vec @ np.diag(eig) @ vec.conj().T
        assert not hs.twisted_positivity_check(flipped)


def test_twisted_positivity_validates_input():
    assert hs.twisted_positivity_check(np.zeros((0, 0)))
    with pytest.raises(ValueError):
        hs.twisted_positivity_check(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        hs.twisted_positivity_check(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_twisted_positivity_refuses_a_non_finite_form(bad):
    form = np.eye(3, dtype=complex)
    form[1, 1] = bad
    with pytest.raises(ValueError, match="finite and Hermitian"):
        hs.twisted_positivity_check(form)


def test_closed_form_residual_keeps_a_nan_gap(monkeypatch):
    pairing = hs.pairing_matrix(1)
    pairing[0, 0] = np.nan
    monkeypatch.setattr(hs, "pairing_matrix", lambda k: pairing)
    # the pairing gap comes after the finite symbol gaps
    assert np.isnan(hs.closed_form_residual(1, 1, [E0_COV]))


def test_pairing_matrix_represents_gen_pairing():
    rng = np.random.default_rng(11)
    k = 1
    dim = hs.fiber_dim(k, k)
    p = hs.pairing_matrix(k)
    for _ in range(5):
        a = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        b = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        packed = complex(a.conj() @ p @ b)
        semantic = hs.gen_pairing(hs.unpack(a, k, k), hs.unpack(b, k, k))
        assert packed == pytest.approx(semantic, abs=1e-12)


def test_pairing_matrix_refuses_weights_past_the_float_range():
    # C(10000, 5000) ~ 1e3008: refused before the k + 1 binomials are converted
    with pytest.raises(ValueError) as exc:
        hs.pairing_matrix(10_000)
    assert str(exc.value) == "the pairing weight C(10000, 5000) exceeds the float range"


def test_gram_matrix_is_hermitian():
    gram = hs.gram_matrix(2, E0_COV)
    np.testing.assert_allclose(gram, gram.conj().T, atol=1e-13)


def test_fiber_operators_return_fresh_arrays():
    hs.symbol_matrix(0, 0, E0_COV)[:] = 0
    hs.pairing_matrix(1)[:] = 0
    np.testing.assert_array_equal(hs.symbol_matrix(0, 0, E0_COV), weyl_gammas()[0])
    np.testing.assert_array_equal(hs.pairing_matrix(1), hs._pairing_matrix_reference(1))


def test_closed_forms_match_the_tensor_engine_reference():
    rng = np.random.default_rng(12)
    for k in range(4):
        for l in range(4):
            directions = [mk.LorentzVector(rng.normal(size=4), covariant=True) for _ in range(2)]
            assert hs.closed_form_residual(k, l, directions) <= 1e-12


def test_gram_signature_matches_the_analytic_count():
    # Remark 6 / Lemma 4: with n = k + 1 the xi-form has 2n(n+1) positive
    # and 2n(n-1) negative directions and no null ones, so (60, 40, 0) at k = 4
    for k in range(5):
        n = k + 1
        assert hs.gram_signature(k) == (2 * n * (n + 1), 2 * n * (n - 1), 0)


def test_gram_matrix_raises_when_not_hermitian(monkeypatch):
    monkeypatch.setattr(hs, "pairing_matrix", lambda k: np.triu(np.ones((4, 4))))
    with pytest.raises(hs.InvariantViolation):
        hs.gram_matrix(0, E0_COV)


def test_witness_pair_raises_when_certification_fails(monkeypatch):
    monkeypatch.setattr(hs, "xi_form", lambda phi, psi, xi: -1.0 + 0j)
    with pytest.raises(hs.InvariantViolation):
        hs.witness_pair(2)

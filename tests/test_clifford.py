"""Gamma collections, spin generators, and the double cover of the Lorentz group."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import spinlab
from spinlab import clifford as cl
from spinlab import evolution as ev
from spinlab import higher_spin as hs
from spinlab import minkowski as mk
from spinlab import spinor_core as sc

small = st.floats(-1.5, 1.5, allow_nan=False, allow_infinity=False)
param6 = st.tuples(small, small, small, small, small, small)


def test_weyl_collection_satisfies_anticommutators():
    assert cl.dirac_collection_check(cl.weyl_gammas()) < 1e-13


def test_dirac_collection_satisfies_anticommutators():
    assert cl.dirac_collection_check(cl.dirac_gammas()) < 1e-13


def test_anticommutator_check_catches_a_broken_collection():
    gammas = cl.weyl_gammas()
    gammas[3] = 1j * gammas[3]
    assert cl.dirac_collection_check(gammas) > 1.0


def test_weyl_gammas_have_chiral_block_form():
    gammas = cl.weyl_gammas()
    for g in gammas:
        np.testing.assert_allclose(g[:2, :2], 0.0, atol=1e-15)
        np.testing.assert_allclose(g[2:, 2:], 0.0, atol=1e-15)
    np.testing.assert_allclose(gammas[0][:2, 2:], np.eye(2))


def test_commutator_table_closes_exactly():
    residuals = cl.check_commutator_relations()
    for key, value in residuals.items():
        assert value == 0.0, f"{key} residual {value}"


def test_generators_match_their_chiral_blocks():
    gen_m, gen_n = cl.spin_generators()
    m2, n2 = cl.spin_generators_2x2()
    for i in range(3):
        np.testing.assert_allclose(gen_m[i][:2, :2], m2[i], atol=1e-15)
        np.testing.assert_allclose(gen_m[i][2:, 2:], m2[i], atol=1e-15)
        np.testing.assert_allclose(gen_n[i][:2, :2], n2[i], atol=1e-15)
        np.testing.assert_allclose(gen_n[i][2:, 2:], -n2[i], atol=1e-15)


def test_exp_spin_is_unimodular_and_block_diagonal():
    rng = np.random.default_rng(3)
    for _ in range(10):
        s2, s4 = cl.exp_spin(rng.normal(size=3), rng.normal(size=3))
        assert np.linalg.det(s2) == pytest.approx(1.0, abs=1e-10)
        np.testing.assert_allclose(s4[:2, :2], s2, atol=1e-12)
        np.testing.assert_allclose(
            s4[2:, 2:], np.linalg.inv(s2.conj().T), atol=1e-12
        )
        np.testing.assert_allclose(s4[:2, 2:], 0.0, atol=1e-15)


def _exp_spin_by_expm(a, b):
    m2, n2 = cl.spin_generators_2x2()
    return expm(0.5 * (np.einsum("i,iab->ab", a, m2) + np.einsum("i,iab->ab", b, n2)))


def _generators(a, b):
    """(1/2)(a . M + b . N) on Dirac spinors and a . rot + b . boost on vectors."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    m4, n4 = cl.spin_generators()
    rot = np.zeros((3, 4, 4))
    rot[:, 1:, 1:] = -cl.LEVI_CIVITA.transpose(2, 0, 1)
    boost = np.zeros((3, 4, 4))
    boost[:, 0, 1:] = boost[:, 1:, 0] = np.eye(3)
    spin = 0.5 * (np.einsum("i,iab->ab", a, m4) + np.einsum("i,iab->ab", b, n4))
    return spin, np.einsum("i,iab->ab", a, rot) + np.einsum("i,iab->ab", b, boost)


def _relative_gap(got, reference):
    return np.max(np.abs(got - reference)) / max(1.0, np.max(np.abs(reference)))


def _assert_closed_forms_match_expm(a, b, vector_tol):
    s2, s4 = cl.exp_spin(a, b)
    reference = _exp_spin_by_expm(np.asarray(a), np.asarray(b))
    assert np.max(np.abs(s2 - reference)) <= 1e-13 * np.max(np.abs(reference))
    spin, vector = _generators(a, b)
    assert _relative_gap(s4, expm(spin)) <= 1e-14
    assert _relative_gap(cl.exp_lorentz(vector), expm(vector)) <= vector_tol


# lam^2 = w . w = (|b|^2 - |a|^2 - 2 i a . b)/4; the vector generator has alpha = 2 Re lam
# and beta = 2 |Im lam|, so a null spin generator is a nilpotent vector one
@pytest.mark.parametrize("a, b", [
    ([0.0, 1.0, 0.0], [1.0, 0.0, 0.0]),  # w = (b - i a)/2 is null: w . w = 0, w != 0
    ([1e-9, 0.0, 0.0], [0.0, 0.0, 0.0]),
    ([0.0, 0.0, 2 * np.pi], [0.0, 0.0, 0.0]),  # imaginary lam: a full turn, alpha = 0
    ([0.0, 0.0, 0.0], [0.0, 0.0, 0.0]),  # lam = 0, G = 0
    ([0.0, 3.0, 0.0], [3.0, 0.0, 0.0]),  # a larger null generator
    ([0.0, 1.0, 0.0], [1.0 + 1e-9, 0.0, 0.0]),  # next to null
    ([0.0, 0.0, 0.0], [0.0, 0.0, 1.3]),  # real lam: a pure boost, beta = 0
    ([0.5, 0.0, 0.0], [0.0, 2.0, 0.0]),  # real lam with a rotation part
    ([1.1, 0.0, 0.0], [0.0, 0.4, 0.0]),  # imaginary lam with a boost part
    ([1.0, 0.0, 0.0], [2.0, 0.0, 0.0]),  # a parallel to b: lam^2 complex, both nonzero
])
def test_closed_form_exp_spin_matches_expm_at_edge_cases(a, b):
    _assert_closed_forms_match_expm(a, b, vector_tol=1e-14)


def test_closed_form_exp_spin_matches_expm_on_random_parameters():
    rng = np.random.default_rng(17)
    for _ in range(2000):
        a, b = rng.normal(size=3) * 1.5, rng.normal(size=3) * 1.5
        # expm's own error on the non-normal real generator reaches about 1e-12 here
        _assert_closed_forms_match_expm(a, b, vector_tol=5e-12)


def test_exp_lorentz_refuses_what_is_not_a_finite_so13_generator():
    _, vector = _generators([0.1, 0.2, 0.3], [0.3, 0.2, 0.1])
    with pytest.raises(ValueError, match="antisymmetric"):
        cl.exp_lorentz(vector + np.diag([0.0, 1.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="finite"):
        cl.exp_lorentz(np.where(vector != 0, np.nan, 0.0))
    with pytest.raises(ValueError, match="4x4"):
        cl.exp_lorentz(np.zeros((3, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_exp_spin_refuses_a_non_finite_parameter(bad):
    with pytest.raises(ValueError, match="finite"):
        cl.exp_spin([0.0, bad, 0.0], [0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="finite"):
        cl.exp_spin([0.0, 0.0, 0.0], [bad, 0.0, 0.0])


def test_covering_of_a_pure_z_boost():
    s2, _ = cl.exp_spin([0.0, 0.0, 0.0], [0.0, 0.0, 1.0])
    lam = cl.covering_lambda(s2)
    assert lam[0, 0] == pytest.approx(np.cosh(1.0), abs=1e-12)
    assert lam[0, 3] == pytest.approx(np.sinh(1.0), abs=1e-12)
    assert lam[1, 1] == pytest.approx(1.0, abs=1e-12)


def test_full_turn_flips_the_spinor_but_not_the_vector():
    s2, _ = cl.exp_spin([0.0, 0.0, 2 * np.pi], [0.0, 0.0, 0.0])
    np.testing.assert_allclose(s2, -np.eye(2), atol=1e-12)
    np.testing.assert_allclose(cl.covering_lambda(s2), np.eye(4), atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(param6, param6)
def test_covering_is_a_homomorphism(pa, pb):
    sa, _ = cl.exp_spin(pa[:3], pa[3:])
    sb, _ = cl.exp_spin(pb[:3], pb[3:])
    lhs = cl.covering_lambda(sa @ sb)
    rhs = cl.covering_lambda(sa) @ cl.covering_lambda(sb)
    np.testing.assert_allclose(lhs, rhs, atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(param6)
def test_covering_has_the_two_element_kernel(params):
    s2, _ = cl.exp_spin(params[:3], params[3:])
    np.testing.assert_allclose(
        cl.covering_lambda(-s2), cl.covering_lambda(s2), atol=1e-10
    )


def test_covering_image_is_restricted_lorentz():
    rng = np.random.default_rng(5)
    for _ in range(50):
        mat = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        s2 = mat / np.sqrt(np.linalg.det(mat))
        assert mk.is_restricted_lorentz(cl.covering_lambda(s2))


def test_covering_rejects_non_unimodular_input():
    with pytest.raises(cl.NotUnimodular):
        cl.covering_lambda(2.0 * np.eye(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_covering_refuses_a_non_finite_matrix_as_not_unimodular(bad):
    s2 = np.eye(2, dtype=complex)
    s2[0, 1] = bad
    with pytest.raises(cl.NotUnimodular):
        cl.covering_lambda(s2)


def test_anticommutator_check_keeps_a_nan_entry():
    gammas = cl.weyl_gammas()
    gammas[2, 0, 2] = np.nan  # its anticommutators come after finite ones
    assert np.isnan(cl.dirac_collection_check(gammas))


def test_spin_generators_are_read_only_constants_handed_out_as_copies():
    m4, n4 = cl.spin_generators()
    for const, fresh in ((cl.SPIN_M4, m4), (cl.SPIN_N4, n4)):
        assert not const.flags.writeable
        assert np.array_equal(const, fresh)
        assert fresh.flags.writeable and not np.shares_memory(const, fresh)
    with pytest.raises(ValueError):
        cl.SPIN_M4[0, 0, 0] = 1.0


def test_commutator_table_keeps_a_nan_generator(monkeypatch):
    m2, n2 = cl.spin_generators_2x2()
    n2[1, 0, 0] = np.nan
    monkeypatch.setattr(cl, "spin_generators_2x2", lambda: (m2, n2))
    report = cl.check_commutator_relations()
    assert report["four_mm"] == report["four_nn"] == report["four_mn"] == 0.0
    assert np.isnan(report["two_nn"]) and np.isnan(report["two_mn"])
    assert np.isnan(report["max"])


# The neighbouring draws 646 and 647 of seed 10's covering-map-batch. Their
# product (|S|_2 = 78.9) has an image with entries near 3e3 that misses eta by
# 3.9e-9 from round-off alone, about eps max|lam|^2.
SEED10_FACTORS = np.array([
    [[0.8842709537188844 + 0.23629553722309335j, 2.4801266289232737 - 5.479204539041369j],
     [1.4964441434299134 - 5.381399585398526j, -32.226589696520406 - 15.754081451993308j]],
    [[0.04978944378737407 - 0.4991469901728117j, -0.5046186070699863 - 0.29001533692131004j],
     [0.10447166170138238 + 0.4257663256966173j, 0.6981669462553652 + 2.0755390625658237j]],
])
SEED10_PRODUCT = SEED10_FACTORS[0] @ SEED10_FACTORS[1]
# Unimodular within the det test's 1e-9, so the covering map takes it, but its
# image (1 + 9e-10) I misses eta by 1.8e-9 with max|lam|^2 about 1: an output
# outside the restricted group that no round-off allowance covers.
OFF_GROUP = np.sqrt(1 + 9e-10) * np.eye(2, dtype=complex)


def test_covering_raises_when_its_output_leaves_the_restricted_group():
    with pytest.raises(cl.InvariantViolation, match="restricted group"):
        cl.covering_lambda(OFF_GROUP)


def test_a_large_norm_product_passes_the_covering_rows_gates():
    # the metric gap is gated at 1e-9 max(1, max|lam|^2): an absolute 1e-9 refused this
    lam = cl.covering_lambda(SEED10_PRODUCT)
    assert np.linalg.norm(SEED10_PRODUCT, 2) > 70
    gap = np.max(np.abs(lam.T @ mk.ETA @ lam - mk.ETA))
    assert 1e-9 < gap <= 1e-9 * np.max(np.abs(lam)) ** 2
    # the covering-map-batch row's own gates, each at its 1e-9
    factors = cl.covering_lambda(SEED10_FACTORS)
    assert np.max(np.abs(lam - factors[0] @ factors[1])) <= 1e-9
    assert np.max(np.abs(cl.covering_lambda(-SEED10_PRODUCT) - lam)) <= 1e-9
    for x in np.random.default_rng(30).normal(size=(5, 4)):
        lhs = sc.sigma_map(mk.LorentzVector(lam @ x))
        rhs = sc.apply_sl2(sc.sigma_map(mk.LorentzVector(x)), SEED10_PRODUCT)
        assert np.max(np.abs(lhs.data - rhs.data)) <= 1e-9


def _random_sl2_stack(rng, n):
    mat = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
    return mat / np.sqrt(np.linalg.det(mat))[:, None, None]


def _trace_pairing(s2):
    """(1/2) tr(s_a S s_b S^dag), entry by entry."""
    return np.array([[0.5 * np.trace(cl.PAULI[a] @ s2 @ cl.PAULI[b] @ s2.conj().T).real
                      for b in range(4)] for a in range(4)])


def test_a_covering_stack_equals_the_per_matrix_calls_and_the_trace_pairing():
    stack = _random_sl2_stack(np.random.default_rng(23), 60)
    lam = cl.covering_lambda(stack)
    assert lam.shape == (60, 4, 4)
    for s2, lam_s in zip(stack, lam):
        single = cl.covering_lambda(s2)
        reference = _trace_pairing(s2)
        scale = np.max(np.abs(reference))
        assert np.max(np.abs(lam_s - single)) <= 1e-14 * scale
        assert np.max(np.abs(single - reference)) <= 1e-14 * scale
    np.testing.assert_allclose(cl.covering_lambda(stack.reshape(3, 20, 2, 2)),
                               lam.reshape(3, 20, 4, 4), rtol=0, atol=1e-14 * np.max(np.abs(lam)))


@pytest.mark.parametrize("j", [0, 5, 9])
def test_a_covering_stack_names_the_first_member_that_leaves_the_group(j):
    stack = _random_sl2_stack(np.random.default_rng(29), 10)
    stack[j] = OFF_GROUP
    with pytest.raises(cl.InvariantViolation, match=f"restricted group at index {j}$"):
        cl.covering_lambda(stack)
    stack[9] = OFF_GROUP
    with pytest.raises(cl.InvariantViolation, match=f"restricted group at index {j}$"):
        cl.covering_lambda(stack)


@pytest.mark.parametrize("bad", [2.0 * np.eye(2), np.full((2, 2), np.nan)])
def test_a_covering_stack_refuses_a_non_unimodular_member(bad):
    stack = _random_sl2_stack(np.random.default_rng(31), 8)
    stack[6] = bad
    stack[7] = SEED10_PRODUCT  # unimodular, so the det test names index 6 first
    with pytest.raises(cl.NotUnimodular, match="at index 6$"):
        cl.covering_lambda(stack)


@pytest.mark.parametrize("shape", [(3, 3), (2,), (), (5, 2, 3), (4, 2)])
def test_covering_refuses_a_shape_not_ending_in_two_by_two(shape):
    with pytest.raises(ValueError, match="expected shape"):
        cl.covering_lambda(np.ones(shape, dtype=complex))


def test_covering_check_survives_optimized_mode():
    env = dict(os.environ, PYTHONPATH=str(Path(spinlab.__file__).parent.parent))
    code = (
        "import numpy as np\n"
        "from spinlab import clifford as cl\n"
        "off = np.sqrt(1 + 9e-10) * np.eye(2, dtype=complex)\n"
        "for s2 in (off, np.array([np.eye(2), np.eye(2), off])):\n"
        "    try:\n"
        "        cl.covering_lambda(s2)\n"
        "    except cl.InvariantViolation as exc:\n"
        "        print('raised', exc)\n"
    )
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.splitlines() == [
        "raised covering output left the restricted group",
        "raised covering output left the restricted group at index 2",
    ]


def test_invariant_violation_is_one_exception_class():
    assert hs.InvariantViolation is cl.InvariantViolation
    assert ev.InvariantViolation is cl.InvariantViolation
    assert spinlab.InvariantViolation is cl.InvariantViolation


def test_intertwiner_conjugates_weyl_into_dirac():
    gw = cl.weyl_gammas()
    gd = cl.dirac_gammas()
    s = cl.pauli_intertwiner(gw, gd)
    s_inv = np.linalg.inv(s)
    for g, t in zip(gw, gd):
        np.testing.assert_allclose(s @ g @ s_inv, t, atol=1e-11)


def test_intertwiner_recovers_a_planted_conjugation_up_to_scalar():
    rng = np.random.default_rng(11)
    gammas = cl.weyl_gammas()
    for _ in range(5):
        while True:
            planted = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            if np.linalg.cond(planted) < 50.0:
                break
        target = np.array([planted @ g @ np.linalg.inv(planted) for g in gammas])
        found = cl.pauli_intertwiner(gammas, target)
        ratio = np.linalg.inv(planted) @ found
        scalar = np.trace(ratio) / 4.0
        np.testing.assert_allclose(ratio, scalar * np.eye(4), atol=1e-10 * abs(scalar))


_WEYL = cl.weyl_gammas()
_DIAGONAL = np.array([np.diag([1.0, 2.0, 3.0, 4.0]) * (a + 1) for a in range(4)])


@pytest.mark.parametrize(
    "gammas_from, gammas_to, match",
    [
        (_WEYL, _WEYL[:3], r"\(4, d, d\) stacks of one shape, got \(4, 4, 4\), \(3, 4, 4\)"),
        (_WEYL[:, :2, :2], _WEYL, r"\(4, d, d\) stacks of one shape, got \(4, 2, 2\), \(4, 4, 4\)"),
        (_WEYL, np.where(np.eye(4) == 1, np.nan, _WEYL), "finite"),
        (_WEYL, np.zeros_like(_WEYL), "not conjugate"),
        (_DIAGONAL, _DIAGONAL, "not irreducible"),
    ],
    ids=["three-gammas", "mismatched-shapes", "nan", "zero-target", "commuting-diagonal"],
)
def test_intertwiner_refuses_bad_input_with_a_value_error(gammas_from, gammas_to, match):
    with pytest.raises(ValueError, match=match):
        cl.pauli_intertwiner(gammas_from, gammas_to)

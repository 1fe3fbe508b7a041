"""Epsilon index calculus, the soldering map, and the symmetric-trace split."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinlab import clifford as cl
from spinlab import minkowski as mk
from spinlab import spinor_core as sc

finite = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
complex_num = st.builds(complex, finite, finite)
pair = st.tuples(complex_num, complex_num)


def spinor1(comps, tag):
    return sc.Spinor(np.array(comps, dtype=complex), (tag,))


def test_epsilon_variants_share_the_antisymmetric_matrix():
    for variant in ("lower-undotted", "upper-undotted", "lower-dotted", "upper-dotted"):
        eps = sc.epsilon(variant)
        np.testing.assert_allclose(eps.data, [[0, 1], [-1, 0]])
    assert sc.epsilon("upper-dotted").tags == (sc.DOTTED_UP, sc.DOTTED_UP)
    with pytest.raises(ValueError):
        sc.epsilon("sideways")


def test_epsilon_up_down_contract_to_identity():
    eps_up = sc.epsilon("upper-undotted")
    eps_low = sc.epsilon("lower-undotted")
    delta = sc.contract(eps_up, 1, eps_low, 1)
    np.testing.assert_allclose(delta.data, np.eye(2))


def test_contract_rejects_dotted_against_undotted():
    psi = spinor1([1, 2], sc.UNDOTTED_UP)
    chi = spinor1([3, 4], sc.DOTTED_LOW)
    with pytest.raises(sc.IllegalContraction):
        sc.contract(psi, 0, chi, 0)


def test_contract_rejects_equal_heights():
    psi = spinor1([1, 2], sc.UNDOTTED_UP)
    chi = spinor1([3, 4], sc.UNDOTTED_UP)
    with pytest.raises(sc.IllegalContraction):
        sc.contract(psi, 0, chi, 0)


def test_lowering_worked_examples():
    down = sc.raise_lower(spinor1([1, 0], sc.UNDOTTED_UP), 0)
    np.testing.assert_allclose(down.data, [0, 1])
    assert down.tags == (sc.UNDOTTED_LOW,)
    down2 = sc.raise_lower(spinor1([0, 1], sc.UNDOTTED_UP), 0)
    np.testing.assert_allclose(down2.data, [-1, 0])


@given(pair)
def test_raise_lower_roundtrip(comps):
    for tag in (sc.UNDOTTED_UP, sc.UNDOTTED_LOW, sc.DOTTED_UP, sc.DOTTED_LOW):
        psi = spinor1(comps, tag)
        back = sc.raise_lower(sc.raise_lower(psi, 0), 0)
        np.testing.assert_allclose(back.data, psi.data, atol=1e-13)
        assert back.tags == psi.tags


@given(pair)
def test_self_contraction_vanishes(comps):
    psi = spinor1(comps, sc.UNDOTTED_UP)
    lowered = sc.raise_lower(psi, 0)
    value = sc.contract(lowered, 0, psi, 0).item()
    assert abs(value) <= 1e-12 * (1 + max(abs(c) for c in comps)) ** 2


@given(pair, pair)
def test_contraction_is_antisymmetric(a, b):
    psi = spinor1(a, sc.UNDOTTED_UP)
    chi = spinor1(b, sc.UNDOTTED_UP)
    lhs = sc.contract(sc.raise_lower(psi, 0), 0, chi, 0).item()
    rhs = sc.contract(sc.raise_lower(chi, 0), 0, psi, 0).item()
    assert lhs == pytest.approx(-rhs, abs=1e-12 * (1 + abs(lhs)))


def test_conjugate_flips_dottedness_and_is_an_involution():
    psi = sc.Spinor(np.array([[1 + 2j, 0], [3, 4j]]), (sc.UNDOTTED_UP, sc.DOTTED_LOW))
    conj = sc.conjugate(psi)
    assert conj.tags == (sc.DOTTED_UP, sc.UNDOTTED_LOW)
    np.testing.assert_allclose(conj.data, psi.data.conj())
    back = sc.conjugate(conj)
    assert back.tags == psi.tags
    np.testing.assert_allclose(back.data, psi.data)


def test_symmetrize_is_idempotent_and_total_for_rank_two():
    rng = np.random.default_rng(0)
    data = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    s = sc.Spinor(data, (sc.UNDOTTED_UP, sc.UNDOTTED_UP))
    sym = sc.symmetrize(s)
    np.testing.assert_allclose(sym.data, 0.5 * (data + data.T))
    again = sc.symmetrize(sym)
    np.testing.assert_allclose(again.data, sym.data)


def test_symmetrize_rejects_mixed_tags():
    s = sc.Spinor(np.zeros((2, 2)), (sc.UNDOTTED_UP, sc.DOTTED_LOW))
    with pytest.raises(sc.MixedVariance):
        sc.symmetrize(s)


def test_sym_dimension_matches_enumeration():
    for k, l in [(0, 0), (1, 0), (2, 1), (3, 2)]:
        cols = []
        for idx in range(2 ** (k + l)):
            data = np.zeros(2 ** (k + l))
            data[idx] = 1.0
            s = sc.Spinor(
                data.reshape((2,) * (k + l)),
                (sc.UNDOTTED_UP,) * k + (sc.DOTTED_LOW,) * l,
            )
            if k >= 2:
                s = sc.symmetrize(s, tuple(range(k)))
            if l >= 2:
                s = sc.symmetrize(s, tuple(range(k, k + l)))
            cols.append(s.data.ravel())
        rank = np.linalg.matrix_rank(np.array(cols).T, tol=1e-10)
        assert rank == sc.sym_dimension(k, l) == (k + 1) * (l + 1)


def test_apply_sl2_rejects_non_unimodular_matrices():
    psi = spinor1([1, 0], sc.UNDOTTED_UP)
    with pytest.raises(sc.NotUnimodular):
        sc.apply_sl2(psi, 3.0 * np.eye(2))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # det of a non-finite matrix
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_apply_sl2_refuses_a_non_finite_matrix(bad):
    s2 = np.eye(2, dtype=complex)
    s2[1, 0] = bad
    with pytest.raises(sc.NotUnimodular):
        sc.apply_sl2(spinor1([1, 0], sc.UNDOTTED_UP), s2)


def test_frame_invariance_check_keeps_a_nan_gamma(monkeypatch):
    gammas = cl.weyl_gammas()
    gammas[1, 0, 3] = np.nan
    monkeypatch.setattr(cl, "weyl_gammas", lambda: gammas)
    report = sc.frame_invariance_check(np.eye(2))
    assert report["epsilon_lower"] == report["epsilon_upper"] == report["sigma"] == 0.0
    assert np.isnan(report["gamma"]) and np.isnan(report["max"])


def test_apply_sl2_uses_the_four_representations():
    rng = np.random.default_rng(1)
    mat = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    s2 = mat / np.sqrt(np.linalg.det(mat))
    vec = np.array([1.0 + 0.5j, -2.0])
    expect = {
        sc.UNDOTTED_UP: s2 @ vec,
        sc.DOTTED_UP: s2.conj() @ vec,
        sc.UNDOTTED_LOW: np.linalg.inv(s2).T @ vec,
        sc.DOTTED_LOW: np.linalg.inv(s2).conj().T @ vec,
    }
    for tag, want in expect.items():
        got = sc.apply_sl2(spinor1(vec, tag), s2)
        np.testing.assert_allclose(got.data, want, atol=1e-12)


def test_epsilon_is_invariant_under_the_spinor_action():
    rng = np.random.default_rng(2)
    for _ in range(10):
        mat = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        s2 = mat / np.sqrt(np.linalg.det(mat))
        report = sc.frame_invariance_check(s2)
        assert report["max"] < 1e-10


def test_sigma_map_of_the_time_direction():
    image = sc.sigma_map(mk.basis_vector(0))
    np.testing.assert_allclose(image.data, np.eye(2) / np.sqrt(2.0))
    assert image.tags == (sc.UNDOTTED_UP, sc.DOTTED_UP)


def test_sigma_map_requires_contravariant_input():
    with pytest.raises(ValueError):
        sc.sigma_map(mk.basis_vector(0, covariant=True))


@given(st.tuples(finite, finite, finite, finite))
def test_sigma_roundtrip(comps):
    x = mk.LorentzVector(np.array(comps))
    back = sc.sigma_inv(sc.sigma_map(x))
    np.testing.assert_allclose(back.components, x.components, atol=1e-12)


@settings(max_examples=50)
@given(st.tuples(finite, finite, finite, finite), st.tuples(finite, finite, finite, finite))
def test_metric_emerges_from_double_epsilon_trace(a, b):
    x = mk.LorentzVector(np.array(a))
    y = mk.LorentzVector(np.array(b))
    assert sc.eta_from_eps_check(x, y) < 1e-11


def test_sigma_intertwines_the_covering_action():
    rng = np.random.default_rng(4)
    for _ in range(20):
        mat = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        s2 = mat / np.sqrt(np.linalg.det(mat))
        lam = cl.covering_lambda(s2)
        x = mk.LorentzVector(rng.normal(size=4))
        lhs = sc.sigma_map(mk.LorentzVector(lam @ x.components))
        rhs = sc.apply_sl2(sc.sigma_map(x), s2)
        np.testing.assert_allclose(lhs.data, rhs.data, atol=1e-10)


def _random_twist_block(rng, k, l):
    tags = (sc.UNDOTTED_UP,) * (k + 1) + (sc.DOTTED_LOW,) * l
    data = rng.normal(size=(2,) * (k + 1 + l)) + 1j * rng.normal(size=(2,) * (k + 1 + l))
    s = sc.Spinor(data, tags)
    if k >= 2:
        s = sc.symmetrize(s, tuple(range(1, k + 1)))
    if l >= 2:
        s = sc.symmetrize(s, tuple(range(k + 1, k + 1 + l)))
    return s


def test_clebsch_split_reconstruct_roundtrip():
    rng = np.random.default_rng(6)
    for k in range(4):
        for l in range(2):
            s = _random_twist_block(rng, k, l)
            high, low = sc.clebsch_split(s)
            rec = sc.clebsch_reconstruct(high, low)
            np.testing.assert_allclose(rec.data, s.data, atol=1e-13)


def test_clebsch_high_part_is_fully_symmetric():
    rng = np.random.default_rng(7)
    s = _random_twist_block(rng, 2, 1)
    high, _ = sc.clebsch_split(s)
    sym = sc.symmetrize(high, (0, 1, 2))
    np.testing.assert_allclose(sym.data, high.data, atol=1e-13)


def test_clebsch_split_of_rank_one_has_no_trace_part():
    rng = np.random.default_rng(8)
    s = _random_twist_block(rng, 0, 0)
    high, low = sc.clebsch_split(s)
    assert low is None
    np.testing.assert_allclose(high.data, s.data)


def test_spinor_validates_shape_and_tags():
    with pytest.raises(ValueError):
        sc.Spinor(np.zeros((2, 3)), (sc.UNDOTTED_UP, sc.UNDOTTED_UP))
    with pytest.raises(ValueError):
        sc.Spinor(np.zeros(2), ("x+",))
    with pytest.raises(ValueError):
        sc.Spinor(np.zeros((2, 2)), (sc.UNDOTTED_UP,))


def test_item_requires_rank_zero():
    full = sc.contract(
        spinor1([1, 2], sc.UNDOTTED_LOW), 0, spinor1([3, 4], sc.UNDOTTED_UP), 0
    )
    assert full.item() == pytest.approx(11.0)
    with pytest.raises(ValueError):
        spinor1([1, 2], sc.UNDOTTED_UP).item()

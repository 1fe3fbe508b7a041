"""Epsilon index calculus, the soldering map, and the symmetric-trace split."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinlab import checks
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


@pytest.mark.parametrize("second, reason", [
    (sc.DOTTED_LOW, "dotted mismatch"),
    (sc.UNDOTTED_UP, "equal height"),
], ids=["dotted", "height"])
def test_contract_and_trace_pair_name_the_illegal_pair(second, reason):
    # one legality rule serves both; each names its own verb
    with pytest.raises(sc.IllegalContraction) as exc:
        sc.trace_pair(sc.Spinor(np.eye(2), (sc.UNDOTTED_UP, second)), 0, 1)
    assert str(exc.value) == f"cannot trace u+ against {second}: {reason}"
    with pytest.raises(sc.IllegalContraction) as exc:
        sc.contract(spinor1([1, 2], sc.UNDOTTED_UP), 0, spinor1([3, 4], second), 0)
    assert str(exc.value) == f"cannot contract u+ against {second}: {reason}"


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


@pytest.mark.parametrize("rank", [2, 3, 4, 5, 6])
def test_symmetrize_is_idempotent_and_total(rank):
    rng = np.random.default_rng(rank - 2)
    shape = (2,) * rank
    data = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    s = sc.Spinor(data, (sc.UNDOTTED_UP,) * rank)
    sym = sc.symmetrize(s)
    if rank == 2:
        np.testing.assert_allclose(sym.data, 0.5 * (data + data.T))
    for i in range(rank - 1):  # adjacent transpositions generate every permutation
        np.testing.assert_allclose(np.swapaxes(sym.data, i, i + 1), sym.data)
    np.testing.assert_allclose(np.sum(sym.data), np.sum(data))  # a projection, not zero
    again = sc.symmetrize(sym)
    np.testing.assert_allclose(again.data, sym.data)


def _permutation_sum(s: sc.Spinor, axes: tuple[int, ...]) -> np.ndarray:
    """The average over all n! permutations of ``axes``, term by term (the reference)."""
    acc = np.zeros_like(s.data)
    for perm in itertools.permutations(axes):
        order = list(range(s.rank))
        for src, dst in zip(axes, perm):
            order[dst] = src
        acc = acc + np.transpose(s.data, order)
    return acc / math.factorial(len(axes))


@pytest.mark.parametrize("rank", [2, 3, 4, 5, 6])
def test_coset_symmetrize_matches_the_permutation_sum(rank):
    rng = np.random.default_rng(100 + rank)
    shape = (2,) * rank
    gapped = offset = False
    for _ in range(8):
        group = tuple(int(a) for a in rng.permutation(rank)[: rng.integers(2, rank + 1)])
        tag, *others = rng.permutation(sc._ALL_TAGS)
        tags = tuple(tag if axis in group else str(rng.choice(others)) for axis in range(rank))
        data = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        s = sc.Spinor(data, tags)
        got = sc.symmetrize(s, group).data
        gap = np.max(np.abs(got - _permutation_sum(s, group)))
        assert gap <= 1e-13 * np.max(np.abs(data))
        gapped |= max(group) - min(group) >= len(group)
        offset |= min(group) > 0
    # from rank 3 on, the draws include a non-contiguous group and one that skips axis 0
    assert (gapped and offset) or rank == 2


def test_symmetrize_rejects_mixed_tags():
    s = sc.Spinor(np.zeros((2, 2)), (sc.UNDOTTED_UP, sc.DOTTED_LOW))
    with pytest.raises(sc.MixedVariance):
        sc.symmetrize(s)


@pytest.mark.parametrize("k, l", [(1.5, 0), (0, 2.5), (True, 0), (0, False), (2.0, 1), ("1", 0)])
def test_sym_dimension_refuses_a_rank_that_is_not_an_integer(k, l):
    with pytest.raises(ValueError, match="twist ranks must be integers"):
        sc.sym_dimension(k, l)


def test_sym_dimension_matches_enumeration():
    # the report's sym-dimension-enumeration row reads each rank as
    # round(trace P) of checks.sym_projector, which holds because P^2 = P;
    # the reference symmetrizes each basis spinor on its own
    for k in range(5):
        for l in range(5):
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
            enumerated = np.array(cols).T
            rank = np.linalg.matrix_rank(enumerated, tol=1e-10)
            assert rank == sc.sym_dimension(k, l) == (k + 1) * (l + 1)
            p = checks.sym_projector(k, l)
            assert np.array_equal(p, enumerated)
            assert np.abs(p @ p - p).max() < 1e-12
            assert round(np.trace(p).real) == rank


def test_apply_sl2_rejects_non_unimodular_matrices():
    psi = spinor1([1, 0], sc.UNDOTTED_UP)
    with pytest.raises(sc.NotUnimodular):
        sc.apply_sl2(psi, 3.0 * np.eye(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_apply_sl2_refuses_a_non_finite_matrix(bad):
    s2 = np.eye(2, dtype=complex)
    s2[1, 0] = bad
    with pytest.raises(sc.NotUnimodular) as exc:
        sc.apply_sl2(spinor1([1, 0], sc.UNDOTTED_UP), s2)
    assert str(exc.value) == "det = (nan+0j), expected 1"


@pytest.mark.parametrize("scale", [3.0, 1.0 + 2e-9, np.nan])
def test_apply_sl2_and_the_covering_map_share_one_unimodularity_test(scale):
    s2 = np.diag([scale, 1.0])
    with pytest.raises(cl.NotUnimodular) as covering:
        cl.covering_lambda(s2)
    with pytest.raises(sc.NotUnimodular) as action:
        sc.apply_sl2(spinor1([1, 0], sc.UNDOTTED_UP), s2)
    assert str(action.value) == str(covering.value)


def test_apply_sl2_refuses_a_stack():
    # the covering map takes stacks; the spinor action takes one matrix
    stack = np.broadcast_to(np.eye(2), (3, 2, 2))
    with pytest.raises(ValueError) as exc:
        sc.apply_sl2(spinor1([1, 0], sc.UNDOTTED_UP), stack)
    assert str(exc.value) == "expected shape (2, 2), got (3, 2, 2)"


def test_frame_invariance_check_keeps_a_nan_gamma(monkeypatch):
    gammas = cl.weyl_gammas()
    gammas[1, 0, 3] = np.nan
    monkeypatch.setattr(sc, "weyl_gammas", lambda: gammas)  # the name spinor_core imports
    report = sc.frame_invariance_check(np.eye(2))
    assert report["epsilon_lower"] == report["epsilon_upper"] == report["sigma"] == 0.0
    assert np.isnan(report["gamma"]) and np.isnan(report["max"])


def _random_sl2_stack(rng, shape):
    mat = rng.normal(size=shape + (2, 2)) + 1j * rng.normal(size=shape + (2, 2))
    return mat / np.sqrt(np.linalg.det(mat))[..., None, None]


@pytest.mark.parametrize("shape", [(), (5,), (2, 3)])
def test_stacked_action_equals_a_loop_of_apply_sl2(shape):
    rng = np.random.default_rng(7)
    tags_all = (sc.UNDOTTED_UP, sc.UNDOTTED_LOW, sc.DOTTED_UP, sc.DOTTED_LOW)
    for rank in range(4):
        for tags in itertools.product(tags_all, repeat=rank):
            s2 = _random_sl2_stack(rng, shape)
            data = rng.normal(size=shape + (2,) * rank) + 1j * rng.normal(size=shape + (2,) * rank)
            loop = [sc.apply_sl2(sc.Spinor(data[i], tags), s2[i]).data for i in np.ndindex(shape)]
            want = np.array(loop).reshape(shape + (2,) * rank)
            assert np.array_equal(sc._act(data, tags, s2), want), tags


def test_stacked_action_broadcasts_one_matrix_over_a_stack_of_spinors():
    rng = np.random.default_rng(8)
    s2 = _random_sl2_stack(rng, ())
    tags = (sc.UNDOTTED_UP, sc.DOTTED_LOW)
    data = rng.normal(size=(4, 2, 2)) + 1j * rng.normal(size=(4, 2, 2))
    want = np.array([sc.apply_sl2(sc.Spinor(d, tags), s2).data for d in data])
    assert np.array_equal(sc._act(data, tags, s2), want)


def test_frame_invariance_over_a_stack_is_the_max_of_the_per_matrix_reports():
    stack = _random_sl2_stack(np.random.default_rng(9), (2, 5))
    reports = [sc.frame_invariance_check(s2) for s2 in stack.reshape(-1, 2, 2)]
    report = sc.frame_invariance_check(stack)
    assert report.keys() == reports[0].keys()
    for key, value in report.items():
        assert np.array_equal(value, max(r[key] for r in reports)), key
    assert report["max"] < 1e-10


def test_frame_invariance_over_a_stack_keeps_a_nan_gamma(monkeypatch):
    gammas = cl.weyl_gammas()
    gammas[2, 1, 2] = np.nan
    monkeypatch.setattr(sc, "weyl_gammas", lambda: gammas)
    report = sc.frame_invariance_check(_random_sl2_stack(np.random.default_rng(10), (3,)))
    assert max(report["epsilon_lower"], report["epsilon_upper"], report["sigma"]) < 1e-10
    assert np.isnan(report["gamma"]) and np.isnan(report["max"])


def test_frame_invariance_refuses_a_stack_with_one_non_unimodular_member():
    stack = _random_sl2_stack(np.random.default_rng(11), (4,))
    stack[2] *= 2.0
    with pytest.raises(cl.NotUnimodular, match="at index 2$"):
        sc.frame_invariance_check(stack)


def _diagram_loop(s2, x):
    # one sample at a time, through the public spinor objects
    lam = cl.covering_lambda(s2)
    lhs = sc.sigma_map(mk.LorentzVector(lam @ x))
    return float(np.max(np.abs(lhs.data - sc.apply_sl2(sc.sigma_map(mk.LorentzVector(x)), s2).data)))


def test_covering_diagram_check_matches_the_per_sample_loop():
    rng = np.random.default_rng(12)
    s2 = _random_sl2_stack(rng, (50,))
    x = rng.normal(size=(50, 4))
    per_pair = [sc.covering_diagram_check(s, v) for s, v in zip(s2, x)]
    loop = [_diagram_loop(s, v) for s, v in zip(s2, x)]
    assert sc.covering_diagram_check(s2, x) == max(per_pair)
    np.testing.assert_allclose(per_pair, loop, rtol=0, atol=1e-14)
    assert max(per_pair) < 1e-12


def test_covering_diagram_check_broadcasts_its_stacks():
    rng = np.random.default_rng(13)
    s2 = _random_sl2_stack(rng, (3, 1))
    x = rng.normal(size=(4, 4))
    want = max(sc.covering_diagram_check(s2[i, 0], x[j]) for i in range(3) for j in range(4))
    assert sc.covering_diagram_check(s2, x) == want


def test_covering_diagram_check_refuses_bad_input():
    s2 = _random_sl2_stack(np.random.default_rng(14), (2,))
    with pytest.raises(ValueError, match=r"expected components of shape \(\.\.\., 4\), got \(2, 3\)"):
        sc.covering_diagram_check(s2, np.zeros((2, 3)))
    with pytest.raises(ValueError, match=r"expected shape \(\.\.\., 2, 2\)"):
        sc.covering_diagram_check(np.eye(3), np.zeros(4))
    with pytest.raises(cl.NotUnimodular):
        sc.covering_diagram_check(2.0 * np.eye(2), np.zeros(4))
    for bad in (np.nan, np.inf):
        x = np.zeros((2, 4))
        x[1, 2] = bad
        with pytest.raises(ValueError, match="the soldering map needs finite components"):
            sc.covering_diagram_check(s2, x)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sigma_map_refuses_a_non_finite_component(bad):
    with pytest.raises(ValueError) as exc:
        sc.sigma_map(mk.LorentzVector([bad, 0, 0, 0]))
    assert str(exc.value) == "the soldering map needs finite components"


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


def test_sigma_inv_requires_the_sigma_map_tags():
    with pytest.raises(ValueError) as exc:
        sc.sigma_inv(sc.Spinor(np.eye(2), (sc.UNDOTTED_UP, sc.UNDOTTED_LOW)))
    assert str(exc.value) == "sigma_inv expects tags (u+, d+), got ('u+', 'u-')"


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


@pytest.mark.parametrize("tags, text", [
    ((sc.DOTTED_UP, sc.DOTTED_LOW), "input must have at least one undotted-upper axis"),
    ((sc.DOTTED_LOW, sc.UNDOTTED_UP), "undotted-upper axes must come first"),
], ids=["no-undotted", "undotted-late"])
def test_clebsch_split_refuses_a_block_it_cannot_split(tags, text):
    with pytest.raises(ValueError) as exc:
        sc.clebsch_split(sc.Spinor(np.eye(2), tags))
    assert str(exc.value) == text


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

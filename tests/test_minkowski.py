"""Metric bookkeeping, causal classification, and Lorentz-matrix predicates."""

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinlab import higher_spin as hs
from spinlab import minkowski as mk

finite = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)
four_floats = st.tuples(finite, finite, finite, finite)


def test_metric_diagonal_on_basis():
    for a in range(4):
        for b in range(4):
            val = mk.metric_eval(mk.basis_vector(a), mk.basis_vector(b))
            expect = mk.ETA_DIAG[a] if a == b else 0.0
            assert val == pytest.approx(expect)


def test_variance_flags_on_basis_vectors():
    cov = mk.basis_vector(2, covariant=True)
    assert cov.covariant
    assert cov.raised().components[2] == -1.0
    assert not cov.raised().covariant


@given(four_floats)
def test_raise_lower_roundtrip(comps):
    x = mk.LorentzVector(np.array(comps))
    back = x.lowered().raised()
    np.testing.assert_allclose(back.components, x.components)
    assert not back.covariant


@given(four_floats, four_floats)
def test_metric_is_symmetric_and_variance_blind(a, b):
    x = mk.LorentzVector(np.array(a))
    y = mk.LorentzVector(np.array(b))
    same = mk.metric_eval(x, y)
    assert mk.metric_eval(y, x) == pytest.approx(same)
    mixed = mk.metric_eval(x.lowered(), y)
    assert mixed == pytest.approx(same, abs=1e-10)


def test_classify_causal_canonical_examples():
    e0 = mk.basis_vector(0)
    assert mk.classify_causal(e0) == ("timelike", "future")
    assert mk.classify_causal(-1.0 * e0) == ("timelike", "past")
    null = mk.LorentzVector(np.array([1.0, 0.0, 0.0, 1.0]))
    assert mk.classify_causal(null) == ("null", "future")
    assert mk.classify_causal(mk.basis_vector(1)) == ("spacelike", "none")
    zero = mk.LorentzVector(np.zeros(4))
    assert mk.classify_causal(zero) == ("null", "none")


def test_classify_causal_rejects_complex_components():
    with pytest.raises(ValueError):
        mk.classify_causal(mk.LorentzVector(np.array([1.0, 1j, 0.0, 0.0])))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_classify_causal_rejects_non_finite_components(bad):
    with pytest.raises(ValueError, match="finite"):
        mk.classify_causal(mk.LorentzVector(np.array([bad, 0.0, 0.0, 0.0])))
    with pytest.raises(ValueError, match="finite"):
        mk.classify_causal(mk.LorentzVector(np.array([2.0, 0.0, 0.0, bad]), covariant=True))


@pytest.mark.parametrize("comps, expect", [
    ([1e200, 2e200, 0.0, 0.0], ("spacelike", "none")),
    ([1e200, 0.0, 0.0, 1e200], ("null", "future")),
    ([-1e200, 0.0, 0.0, 1e200], ("null", "past")),
    ([2e200, 1e200, 0.0, 0.0], ("timelike", "future")),
    ([-1e308, 1e308, 1e308, 1e308], ("spacelike", "none")),
    ([-1.7e308, 1e308, 0.0, 0.0], ("timelike", "past")),
])
@pytest.mark.parametrize("covariant", [False, True])
def test_classify_causal_reads_a_form_past_the_float_range_off_the_ray(comps, expect, covariant):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert mk.classify_causal(mk.LorentzVector(comps, covariant=covariant)) == expect


def _unscaled_classification(x):
    # classify_causal's rule applied to eta(x, x) as computed without any scaling
    with np.errstate(over="ignore", invalid="ignore"):
        q = mk.metric_eval(x, x).real
    t = x.raised().components[0].real
    cls = "null" if abs(q) <= mk.DEFAULT_TOL else "timelike" if q > 0 else "spacelike"
    if cls == "spacelike" or abs(t) <= mk.DEFAULT_TOL:
        return q, (cls, "none")
    return q, (cls, "future" if t > mk.DEFAULT_TOL else "past")


def test_classify_causal_keeps_every_form_that_fits_the_float_range():
    # near and past the scaling threshold 2^510, including nearly null vectors whose huge
    # terms cancel, the class is that of the unscaled form wherever that form is finite
    rng = np.random.default_rng(3)
    checked = 0
    for exponent in range(505, 514):
        for _ in range(40):
            comps = np.ldexp(rng.normal(size=4), exponent)
            if rng.uniform() < 0.5:
                comps[3] = np.copysign(comps[0], rng.normal())
                comps[1:3] = rng.normal(size=2) * 10.0 ** rng.integers(-6, 2)
            x = mk.LorentzVector(comps, covariant=bool(rng.integers(2)))
            q, expect = _unscaled_classification(x)
            if np.isfinite(q):
                checked += 1
                assert mk.classify_causal(x) == expect, comps
    assert checked > 200


def test_non_finite_directions_surface_as_value_errors_in_the_gram_form():
    xi = mk.LorentzVector(np.array([np.nan, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="finite"):
        hs.gram_signature(1, xi)
    with pytest.raises(ValueError, match="finite"):
        hs.witness_pair(1, xi)


@given(four_floats)
def test_classification_flips_orientation_under_negation(comps):
    x = mk.LorentzVector(np.array(comps))
    cls, orient = mk.classify_causal(x)
    cls_neg, orient_neg = mk.classify_causal(-1.0 * x)
    assert cls_neg == cls
    flip = {"future": "past", "past": "future", "none": "none"}
    assert orient_neg == flip[orient]


def _z_boost(rapidity: float) -> np.ndarray:
    lam = np.eye(4)
    lam[0, 0] = lam[3, 3] = np.cosh(rapidity)
    lam[0, 3] = lam[3, 0] = np.sinh(rapidity)
    return lam


def test_classification_is_boost_invariant():
    lam = _z_boost(1.3)
    for comps, expect in [
        ([2.0, 0.3, -0.1, 0.5], ("timelike", "future")),
        ([-2.0, 0.3, -0.1, 0.5], ("timelike", "past")),
        ([0.1, 1.0, 2.0, -0.5], ("spacelike", "none")),
    ]:
        x = mk.LorentzVector(np.array(comps))
        boosted = mk.LorentzVector(lam @ x.components)
        assert mk.classify_causal(boosted) == expect


def test_restricted_lorentz_accepts_boosts_and_rotations():
    assert mk.is_restricted_lorentz(np.eye(4))
    assert mk.is_restricted_lorentz(_z_boost(0.7))
    rot = np.eye(4)
    c, s = np.cos(0.4), np.sin(0.4)
    rot[1, 1] = rot[2, 2] = c
    rot[1, 2], rot[2, 1] = -s, s
    assert mk.is_restricted_lorentz(rot)


def test_restricted_lorentz_rejects_other_components_and_junk():
    parity = np.diag([1.0, -1.0, -1.0, -1.0])
    assert not mk.is_restricted_lorentz(parity)
    time_reversal = np.diag([-1.0, 1.0, 1.0, 1.0])
    assert not mk.is_restricted_lorentz(time_reversal)
    assert not mk.is_restricted_lorentz(-np.eye(4))
    assert not mk.is_restricted_lorentz(2.0 * np.eye(4))
    assert not mk.is_restricted_lorentz(np.eye(4) + 1e-3)
    assert not mk.is_restricted_lorentz(np.eye(3))
    assert not mk.is_restricted_lorentz(np.eye(4) * (1 + 1j))


def test_metric_gap_over_a_stack_matches_it_per_matrix():
    rot = np.eye(4)
    rot[1:3, 1:3] = [[np.cos(0.4), -np.sin(0.4)], [np.sin(0.4), np.cos(0.4)]]
    stack = np.array([np.eye(4), _z_boost(0.7), rot, np.diag([1.0, -1.0, -1.0, -1.0]),
                      np.diag([-1.0, 1.0, 1.0, 1.0]), -np.eye(4), 2.0 * np.eye(4),
                      np.eye(4) + 1e-3, 3e100 * _z_boost(0.7)])
    gap, one, peak = mk._metric_gap(stack)
    assert gap.shape == one.shape == peak.shape == (9,)
    # the other components of O(1, 3) keep the metric; only the last three miss it
    assert (gap <= mk.DEFAULT_TOL * one).tolist() == [True] * 6 + [False] * 3
    for i, lam in enumerate(stack):
        assert [v[i] for v in (gap, one, peak)] == list(mk._metric_gap(lam))
    for v, whole in zip(mk._metric_gap(stack.reshape(3, 3, 4, 4)), (gap, one, peak)):
        assert np.array_equal(v, whole.reshape(3, 3))
    # the last matrix is read on its ray, 2^-s lam with entries below 2, against eta scaled by 4^-s
    assert 0 < one[-1] < 1e-190 and 1.0 <= peak[-1] < 4.0 and gap[-1] > one[-1]


def test_the_covering_bound_widens_the_metric_gap_alone_by_the_largest_entry_squared():
    boost = _z_boost(10.0)  # largest entry cosh 10, about 1.1e4
    boost[0, 0] += 1e-8  # misses eta by about 2e-4, inside 1e-9 max|lam|^2
    near = (1 + 1e-6) * np.eye(4)  # misses eta by 2e-6 at max|lam| = 1
    gap, one, peak = mk._metric_gap(np.array([boost, near]))
    assert (gap <= mk.DEFAULT_TOL * np.maximum(one, peak)).tolist() == [True, False]
    assert not (gap <= mk.DEFAULT_TOL * one).any()
    assert not mk.is_restricted_lorentz(boost)  # the public predicate keeps the absolute gap
    for other in (np.diag([1.0, -1.0, -1.0, -1.0]), np.diag([-1.0, 1.0, 1.0, 1.0]), -np.eye(4)):
        assert not mk.is_restricted_lorentz(other)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("slot", [(1, 2), (0, 0), (3, 3)])
def test_restricted_lorentz_rejects_non_finite_entries(bad, slot):
    lam = np.eye(4)
    lam[slot] = bad
    assert not mk.is_restricted_lorentz(lam)
    assert not mk.is_restricted_lorentz(lam.astype(complex))


def test_lorentz_vector_shape_is_validated():
    with pytest.raises(ValueError):
        mk.LorentzVector(np.zeros(3))

"""The one scaling rule: a vector or a matrix is read as its ray, scaled by an exact power of two.

``classify_causal`` evaluates eta(x, x) once on the ray of x and scales the value back;
``covering_lambda`` forms S's Kronecker square on the ray of S and takes its metric gap on
the ray of lam, so neither leaves the float range before the answer does.
"""

import warnings

import numpy as np
import pytest

from spinlab import clifford as cl
from spinlab import minkowski as mk


def _unscaled_class(x):
    # classify_causal's rule applied to eta(x, x) as computed without any scaling
    with np.errstate(over="ignore", invalid="ignore"):
        q = mk.metric_eval(x, x).real
    t = x.raised().components[0].real
    cls = "null" if abs(q) <= mk.DEFAULT_TOL else "timelike" if q > 0 else "spacelike"
    if cls == "spacelike" or abs(t) <= mk.DEFAULT_TOL:
        return q, (cls, "none")
    return q, (cls, "future" if t > mk.DEFAULT_TOL else "past")


def test_classify_causal_finds_the_unscaled_class_at_every_exponent():
    # every binade of the floats, subnormals included, in both variances, with generic and
    # nearly null vectors (the time part matched by the z part to a relative 1e-16 .. 1e-2)
    rng = np.random.default_rng(11)
    checked = unscaled_nulls = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for exponent in range(-1074, 1024):
            for nearly_null in (False, True):
                comps = np.ldexp(rng.uniform(-1.0, 1.0, size=4), exponent)
                if nearly_null:
                    comps[3] = comps[0] * (1.0 - 10.0 ** rng.uniform(-16, -2))
                    comps[1:3] = np.ldexp(rng.uniform(-1.0, 1.0, size=2), exponent - 30)
                x = mk.LorentzVector(comps, covariant=bool(rng.integers(2)))
                got = mk.classify_causal(x)
                q, expect = _unscaled_class(x)
                if np.isfinite(q):
                    checked += 1
                    unscaled_nulls += expect[0] == "null"
                    assert got == expect, (exponent, comps.tolist())
    assert checked > 2500 and 100 < unscaled_nulls < checked - 100


@pytest.mark.parametrize("comps, expect", [
    ([1e-320, 0.0, 0.0, 0.0], ("null", "none")),
    ([5e-324, 0.0, 0.0, 5e-324], ("null", "none")),
    ([0.0, 0.0, 0.0, 0.0], ("null", "none")),
    ([1.7e308, 0.0, 0.0, 1.7e308], ("null", "future")),
    ([1.7e308, 1e308, 0.0, 0.0], ("timelike", "future")),
    ([-1e308, 0.0, 1.7e308, 0.0], ("spacelike", "none")),
])
def test_classify_causal_reads_the_ends_of_the_float_range_without_a_warning(comps, expect):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert mk.classify_causal(mk.LorentzVector(comps)) == expect


def _z_boosts(rapidity):
    rapidity = np.asarray(rapidity, dtype=float)
    s2 = np.zeros(rapidity.shape + (2, 2))
    s2[..., 0, 0], s2[..., 1, 1] = np.exp(rapidity / 2), np.exp(-rapidity / 2)
    return s2


def test_a_huge_boost_keeps_its_image_without_a_warning():
    # det S = 1 fixes the component, so no test reads lam's determinant, which is rounding
    # noise from rapidity 15 or so on (cosh and sinh of the rapidity round to one float)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lam = cl.covering_lambda(np.diag([1e100, 1e-100]))
        assert lam[0, 0] == lam[0, 3] == lam[3, 3] == 5e199
        assert lam[1, 1] == lam[2, 2] == 1.0
        for rapidity in (15.0, 20.0, 30.0, 100.0, 700.0):
            lam = cl.covering_lambda(_z_boosts(rapidity))
            assert lam[0, 0] == pytest.approx(np.cosh(rapidity), rel=1e-15), rapidity


def test_no_z_boost_is_refused_at_any_rapidity():
    # 400 draws per rapidity band; a determinant test on lam refused 82, 351 and 347 of them
    rng = np.random.default_rng(1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for low, high in ((15.0, 20.0), (20.0, 30.0), (100.0, 700.0)):
            rapidity = rng.uniform(low, high, 400)
            lam = cl.covering_lambda(_z_boosts(rapidity))
            np.testing.assert_allclose(lam[:, 0, 0], np.cosh(rapidity), rtol=1e-15, atol=0)


def test_a_large_null_rotation_keeps_its_image_where_the_product_would_overflow():
    # lam has entries up to 5e307, so lam^T eta lam leaves the float range: the gap is
    # read on lam scaled by 2^-512
    shear = np.array([[1.0, 1e154], [0.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lam = cl.covering_lambda(shear)
    assert lam[0, 0] == pytest.approx(1.0 + 0.5e308, rel=1e-15)
    assert np.array_equal(lam[1:3, 1:3], np.array([[1.0, 0.0], [0.0, 1.0]]))


@pytest.mark.parametrize("stack, index", [(np.diag([1e160, 1e-160]), ""),
                                          (np.array([np.eye(2), np.diag([1e160, 1e-160])]),
                                           " at index 1")])
def test_an_image_past_the_float_range_raises_overflow_error_naming_its_index(stack, index):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError) as exc:
            cl.covering_lambda(stack)
    assert str(exc.value) == "the Lorentz image of S leaves the float range" + index


@pytest.mark.parametrize("scale", [1e154, 1e200, 1e308])
def test_a_determinant_past_the_float_range_reads_inf(scale):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(cl.NotUnimodular) as exc:
            cl.covering_lambda(np.array([np.eye(2), scale * np.eye(2)]))
    det = np.linalg.det(scale * np.eye(2)) if scale == 1e154 else np.inf  # 1e308 fits
    assert str(exc.value) == f"det = ({det}+0j), expected 1 at index 1"


def test_the_ray_of_a_stack_keeps_each_covering_image_bit_for_bit():
    # S scaled by 2^s gives coefficients scaled by exactly 4^s, so scaling back is exact
    rng = np.random.default_rng(41)
    mat = rng.normal(size=(40, 2, 2)) + 1j * rng.normal(size=(40, 2, 2))
    stack = mat / np.sqrt(np.linalg.det(mat))[:, None, None]
    rows = cl.PAULI.reshape(4, 4)
    kron = stack[:, :, None, :, None] * stack.conj()[:, None, :, None, :]
    direct = (rows.conj() @ kron.reshape(40, 4, 4) @ rows.T / 2.0).real
    assert np.array_equal(cl.covering_lambda(stack), direct)

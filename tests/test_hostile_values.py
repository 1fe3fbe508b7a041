"""Hostile values at the library's entry points: each call returns or raises its typed error.

One table crosses the values below with every argument slot of ``classify_causal``,
``gram_signature``, ``witness_pair``, ``EvolutionConfig``, ``config_from_json`` and
``covering_lambda``, and with the fields of ``retarded_green_apply`` and ``green_residual``,
where the value is planted at one entry of an interior level. Each case runs with every
warning turned into an error, so a numpy RuntimeWarning, or any exception outside the
slot's documented ones, fails it.
"""

import json
import warnings

import numpy as np
import pytest

from spinlab import checks
from spinlab import clifford as cl
from spinlab import evolution as ev
from spinlab import higher_spin as hs
from spinlab import minkowski as mk

VALUES = {
    "nan": float("nan"),
    "inf": float("inf"),
    "-inf": float("-inf"),
    "0.0": 0.0,
    "-0.0": -0.0,
    "1e-310": 1e-310,
    "1e154": 1e154,
    "1e308": 1e308,
    "-1e308": -1e308,
    "True": True,
    "str-1": "1",
    "np.int64": np.int64(2),
    "np.float32": np.float32(1.5),
}

CONFIG = {"mass": 1.0, "k": 0, "l": 0, "extent": 8.0, "points": 64, "dt": 0.0625, "steps": 8}


def _config(field, value):
    cfg = ev.EvolutionConfig(**{**CONFIG, field: value})
    # a config that is built is stored as Python numbers, so it writes as JSON and reads back
    assert ev.config_from_json(json.loads(checks.stable_json(ev.config_to_json(cfg)))) == cfg
    return cfg


def _config_json(field, value):
    return ev.config_from_json({**CONFIG, field: value})


#: an aligned dt = dz grid of 129 levels, so the Green loops take blocks of two levels
GREEN = {"mass": 1.0, "k": 0, "l": 0, "extent": 16.0, "points": 16, "dt": 1.0, "steps": 128}
GREEN_CONFIG = ev.EvolutionConfig(**GREEN)


def _green_field(value=None):
    """An all-ones field on the Green grid, with ``value`` at one entry of level 65."""
    data = np.ones((GREEN["steps"] + 1, GREEN["points"], GREEN_CONFIG.fiber), dtype=complex)
    if value is not None:
        data[65, 7, 2] = value
    return ev.GridField(GREEN_CONFIG, data)


SIGNATURE_ERRORS = (ValueError,)  # NotTimelikeFuture is a ValueError
WITNESS_ERRORS = (ValueError, hs.NoNegativeDirection)

#: slot -> (call of one value, the errors it may raise)
SLOTS = {
    "classify_causal-x": (lambda v: mk.classify_causal(mk.LorentzVector([v, 1.0, 0.0, 0.0])),
                          (ValueError,)),
    "classify_causal-covariant-x": (
        lambda v: mk.classify_causal(mk.LorentzVector([0.5, 0.0, 0.0, v], covariant=True)),
        (ValueError,)),
    "gram_signature-xi": (
        lambda v: hs.gram_signature(1, mk.LorentzVector([v, 0.0, 0.0, 0.0], covariant=True)),
        SIGNATURE_ERRORS),
    "gram_signature-k": (lambda v: hs.gram_signature(v), SIGNATURE_ERRORS),
    "witness_pair-xi": (
        lambda v: hs.witness_pair(1, mk.LorentzVector([v, 0.0, 0.0, 0.5], covariant=True)),
        WITNESS_ERRORS),
    "witness_pair-k": (lambda v: hs.witness_pair(v), WITNESS_ERRORS),
    **{f"EvolutionConfig-{field}": (lambda v, field=field: _config(field, v), (ValueError,))
       for field in CONFIG},
    **{f"config_from_json-{field}": (lambda v, field=field: _config_json(field, v), (ValueError,))
       for field in CONFIG},
    "covering_lambda-scalar": (lambda v: cl.covering_lambda([[v, 0], [0, v]]),
                               (ValueError, OverflowError, cl.InvariantViolation)),
    "covering_lambda-shear": (lambda v: cl.covering_lambda([[1, v], [0, 1]]),
                              (ValueError, OverflowError, cl.InvariantViolation)),
    "retarded_green_apply-source": (
        lambda v: ev.retarded_green_apply(_green_field(v), GREEN_CONFIG),
        (ValueError, OverflowError)),
    "green_residual-result": (lambda v: ev.green_residual(_green_field(v), _green_field()),
                              (ValueError, OverflowError)),
    "green_residual-source": (lambda v: ev.green_residual(_green_field(), _green_field(v)),
                              (ValueError, OverflowError)),
}


@pytest.mark.parametrize("slot, value", [(slot, value) for slot in SLOTS for value in VALUES],
                         ids=[f"{slot}-{value}" for slot in SLOTS for value in VALUES])
def test_a_hostile_value_returns_or_raises_a_typed_error(slot, value):
    call, errors = SLOTS[slot]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call(VALUES[value])
        except errors:
            pass

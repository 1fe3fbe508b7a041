"""Replays of the samples that the sample rows drew when each suite shared one generator.

Before each row drew from its own stream, every sample row of a suite read
``np.random.default_rng(seed)`` in row order. Regression tests that guard a
sample found that way replay it: the ``shared_stream`` fixture makes the
named rows draw the shared stream's samples, and the rows run as they are.
"""

import zlib

import numpy as np
import pytest

from spinlab import higher_spin as hs


class Draws:
    """A row generator's stand-in: each ``normal(size)`` call hands out the next fixed block."""

    def __init__(self, *blocks):
        self.blocks = list(blocks)

    def normal(self, size):
        block = self.blocks.pop(0)
        assert block.shape == tuple(size)
        return block


def _shared_algebra(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    rng.normal(size=(50, 6))  # the two exp rows' parameters, drawn once for both
    re, im, x = np.split(rng.normal(size=(1000, 12)), 3, axis=1)
    # intertwiner-planted's rejection draws came next, one at a time
    return {"covering-map-batch": Draws(np.stack([re, im, x])), "intertwiner-planted": rng}


def _shared_symbols(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    rng.normal(size=(9, 100, 5))  # factorization-k*-l* at the nine default pairs: xi, mass
    rng.normal(size=hs.fiber_dim(1, 0))  # adjoint-rank-guard
    stand_ins = {}
    for k in range(3):
        dim = hs.fiber_dim(k, k)
        # per pair: a's real and imaginary parts, b's, then (but for pairing-hermitian) xi
        for row, width in (("pairing-hermitian", 4 * dim), ("self-adjoint-symbol", 4 * dim + 4),
                           ("xi-form-hermitian", 4 * dim + 4)):
            draw = rng.normal(size=(20, width))
            parts = draw[:, :4 * dim].reshape(20, 4, dim).transpose(1, 0, 2)
            xi = draw[:, 4 * dim:] if width > 4 * dim else np.zeros((20, 4))  # read by neither
            stand_ins[f"{row}-k{k}"] = Draws(parts, xi)
    return stand_ins


SHARED = {"algebra": _shared_algebra, "symbols": _shared_symbols}


@pytest.fixture
def shared_stream(monkeypatch):
    """``replay(suite, seed, *rows)``: from then on, each named row of ``suite`` draws at
    ``seed`` what it drew from the suite's shared generator, every time it runs."""

    def replay(suite_name, seed, *rows):
        real = np.random.default_rng
        keys = {zlib.crc32(f"{suite_name}/{row}".encode()): row for row in rows}

        def default_rng(entropy=None):
            if isinstance(entropy, list) and entropy[0] == seed and entropy[1] in keys:
                return SHARED[suite_name](seed)[keys[entropy[1]]]
            return real(entropy)

        monkeypatch.setattr(np.random, "default_rng", default_rng)

    return replay

"""The `--check` inputs built the cheap way equal the references built one
validated operation, or one amplitude, at a time."""

import numpy as np
import pytest

from evebounds.cloner import ChannelParams, Constellation, qpsk
from reference import (
    bloch_messiah_amplitudes,
    bloch_messiah_amplitudes_loop,
    random_pair,
    random_pair_composed,
)


@pytest.mark.parametrize("seed", [11, 23, 53, 2024])
@pytest.mark.parametrize("with_displacement", [False, True])
def test_random_pair_equals_validated_composition(seed, with_displacement):
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for trial in range(6):
        nmodes = 1 + trial % 3
        pair = random_pair(rng, nmodes, with_displacement)
        reference = random_pair_composed(reference_rng, nmodes, with_displacement)
        assert np.array_equal(pair.e, reference.e)
        assert np.array_equal(pair.f, reference.f)
        assert np.array_equal(pair.alpha, reference.alpha)
    # both consumed the same draws
    assert rng.normal() == reference_rng.normal()


@pytest.mark.parametrize(
    "constellation",
    [qpsk(1.0), Constellation(amplitudes=[1.0, np.exp(1j * np.pi / 4), 0.3 - 0.7j],
                              probs=[0.5, 0.25, 0.25])],
    ids=["qpsk", "three-state"],
)
@pytest.mark.parametrize("tau, nbar", [(0.05, 0.01), (0.5, 0.02), (0.95, 0.1)])
def test_bloch_messiah_amplitudes_equal_per_amplitude_loop(constellation, tau, nbar):
    params = ChannelParams(tau=tau, nbar=nbar)
    batched = bloch_messiah_amplitudes(constellation, params)
    looped = bloch_messiah_amplitudes_loop(constellation, params)
    assert batched.shape == looped.shape == (constellation.amplitudes.size, 2)
    assert np.max(np.abs(batched - looped)) <= 1e-15

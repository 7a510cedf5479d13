import numpy as np
import pytest

from evebounds import checks, fock
from evebounds.cloner import ChannelParams, qpsk
from evebounds.unitaries import _squeezer_arrays, expm_i_hermitian


def test_switching_rules_residual_and_sparse_calls(monkeypatch):
    # Squeezers are the one generator kind left on the generic route, the
    # Chebyshev exponential: one for the probe and three for the rules, per
    # draw, over three draws.
    calls = []
    chebyshev = fock.apply_generator

    def counted(gen, ket):
        calls.append(type(gen))
        return chebyshev(gen, ket)

    monkeypatch.setattr(fock, "apply_generator", counted)
    result = checks.check_switching_rules_fock()
    assert calls == [fock.SqueezeGenerator] * 12
    # The residual is truncation leakage of the squeezer rules at cutoff
    # 50, measured without the cancellation of 1 - |<lhs|rhs>|^2.
    assert abs(result.residual - 7.90029790372787e-08) < 1e-12
    assert result.passed


def _beta_from_alpha(z, alpha):
    e, f = _squeezer_arrays(z)
    return e @ alpha - f @ alpha


def _zp_from_plus_phi(phi, z):
    u = expm_i_hermitian(phi)
    return u @ z @ u.T


def _gamma_from_plus_phi(phi, alpha):
    return expm_i_hermitian(phi) @ alpha


@pytest.mark.parametrize(
    "name, mutant",
    [
        ("switch_disp_squeezer", _beta_from_alpha),
        ("switch_squeezer_rotation", _zp_from_plus_phi),
        ("switch_disp_rotation", _gamma_from_plus_phi),
    ],
)
def test_wrong_rule_fails_the_check(monkeypatch, name, mutant):
    # Each rule is compared in its own pair of kets, so a wrong parameter
    # in any one of them must lift the worst distance past the gate.
    monkeypatch.setattr(checks, name, mutant)
    result = checks.check_switching_rules_fock()
    assert result.residual > 1e-6
    assert not result.passed


def test_pure_trace_distance_has_no_cancellation():
    rng = np.random.default_rng(5)
    ket = rng.normal(size=8) + 1j * rng.normal(size=8)
    ket /= np.linalg.norm(ket)
    tilt = 1e-9 * (rng.normal(size=8) + 1j * rng.normal(size=8))
    tilt -= np.vdot(ket, tilt) * ket
    other = (ket + tilt) / np.linalg.norm(ket + tilt)
    # tilt is orthogonal to ket, so |<ket|other>|^2 = 1 / (1 + |tilt|^2)
    # and the distance is |tilt| / sqrt(1 + |tilt|^2); 1 - |<ket|other>|^2
    # would lose it to round-off.  A global phase does not count.
    expected = np.linalg.norm(tilt) / np.linalg.norm(ket + tilt)
    distance = checks._pure_trace_distance(np.exp(0.7j) * other, ket)
    assert abs(distance - expected) < 1e-6 * expected
    assert checks._pure_trace_distance(ket, ket) < 1e-15


def test_nan_residual_fails_the_suite(monkeypatch):
    # `max(0.0, nan)` is 0.0, so a fold through `max` would pass a suite
    # whose computation turned NaN.
    monkeypatch.setattr(checks, "principal_sqrt", lambda g: np.full_like(g, np.nan))
    result = checks.check_takagi()
    assert np.isnan(result.residual)
    assert not result.passed


@pytest.mark.parametrize("residuals", [(np.nan, 0.0, 1.0), (0.0, np.nan), (2.0, 1.0, np.nan)])
def test_worst_keeps_nan_anywhere(residuals):
    assert np.isnan(checks._worst(*residuals))


def test_bloch_messiah_amplitudes_of_a_sequence_stack_the_cells():
    cells = [ChannelParams(tau=tau, nbar=nbar) for tau, nbar in ((0.05, 0.01), (0.5, 0.02), (0.95, 0.1))]
    stacked = checks.bloch_messiah_amplitudes(qpsk(1.0), cells)
    assert stacked.shape == (3, 4, 2)
    for amplitudes, params in zip(stacked, cells):
        np.testing.assert_array_equal(amplitudes, checks.bloch_messiah_amplitudes(qpsk(1.0), params))

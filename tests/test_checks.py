import numpy as np
import pytest

from evebounds import checks, fock
from evebounds.cloner import ChannelParams, qpsk
from evebounds.unitaries import _squeezer_arrays, expm_i_hermitian
from reference import bloch_messiah_amplitudes, draw_pair_sequential


def test_switching_rules_residual_and_sparse_calls(monkeypatch):
    # Squeezers are the one generator kind left on the generic route, the
    # Chebyshev exponential: one for the probe and two for the rules, per
    # draw, over three draws; S(z) psi and S(z) D(beta) psi share one call.
    calls = []
    chebyshev = fock.apply_generator

    def counted(gen, ket):
        calls.append(type(gen))
        return chebyshev(gen, ket)

    monkeypatch.setattr(fock, "apply_generator", counted)
    result = checks.check_switching_rules_fock()
    assert calls == [fock.SqueezeGenerator] * 9
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
    stacked = bloch_messiah_amplitudes(qpsk(1.0), cells)
    assert stacked.shape == (3, 4, 2)
    for amplitudes, params in zip(stacked, cells):
        np.testing.assert_array_equal(amplitudes, bloch_messiah_amplitudes(qpsk(1.0), params))


@pytest.mark.parametrize("nmodes", [1, 2, 3])
@pytest.mark.parametrize("with_displacement", [False, True])
def test_draw_pair_reads_the_stream_as_one_call_per_part(nmodes, with_displacement):
    rng, reference_rng = np.random.default_rng(nmodes), np.random.default_rng(nmodes)
    for _ in range(3):
        rounds, alpha = checks._draw_pair(rng, nmodes, with_displacement)
        want_rounds, want_alpha = draw_pair_sequential(reference_rng, nmodes, with_displacement)
        assert rounds.shape == (6, nmodes, nmodes)
        np.testing.assert_array_equal(rounds, want_rounds)
        if with_displacement:
            np.testing.assert_array_equal(alpha, want_alpha)
        else:
            assert alpha is None and want_alpha is None
    assert rng.normal() == reference_rng.normal()


def test_paired_squeezer_call_equals_two_single_calls():
    # the switching-rule check squeezes psi and D(beta) psi in one call
    rng = np.random.default_rng(53)
    alpha, _, sym = checks.random_rule_params(rng)
    ket = checks._random_gaussian_ket(50, rng)
    gen = fock.squeeze_generator(50, sym)
    other = fock.apply_displacement(alpha, ket, 50)
    paired = fock.apply_generator(gen, np.stack([ket, other]))
    assert np.array_equal(paired[0], fock.apply_generator(gen, ket))
    assert np.array_equal(paired[1], fock.apply_generator(gen, other))


def test_eca_pipeline_builds_each_reduced_covariance_once(monkeypatch):
    calls = []
    reduced = checks.eve_reduced_covariance

    def counted(params):
        calls.append(params)
        return reduced(params)

    monkeypatch.setattr(checks, "eve_reduced_covariance", counted)
    assert checks.check_eca_pipeline().passed
    assert len(calls) == len(set(calls)) == 30


def test_estimator_ordering_stack_equals_per_cell_calls(monkeypatch):
    # the suite's stacked kernels give each cell the library's values, so
    # it folds the residuals of the per-cell loop, bit for bit
    from evebounds.bounds import bm_get_entropy, bm_gme_entropy, eb_qpsk_entropy

    folded = []
    monkeypatch.setattr(checks, "_worst", lambda *residuals: folded.extend(residuals[1:]) or 0.0)
    checks.check_estimator_ordering()
    want = []
    for nbar in (0.01, 0.02):
        for tau in np.linspace(0.05, 0.95, 10):
            params = ChannelParams(tau=tau, nbar=nbar)
            gme = bm_gme_entropy(qpsk(1.0), params)
            get = bm_get_entropy(qpsk(1.0), params)
            want += [gme - get, get - eb_qpsk_entropy(1.0, params)]
    assert len(folded) == 40
    assert sorted(folded) == sorted(want)

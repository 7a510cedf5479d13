"""Self-check suites behind `--check`: each exercises one invariant family
and reports its worst residual against a fixed tolerance.

- `run_checks` runs and times every suite of `SUITES`; `format_report`
  prints one line per suite.
- Random Gaussian unitaries are validated once, as the final pair
  (`random_pair`), and the Bloch-Messiah reference moves all amplitudes at
  once (`bloch_messiah_amplitudes`).
- The Fock-space reordering check shares one displacement and one rotation
  of its probes between the three rules (`_switch_rule_distances`).
- Every suite folds its residuals with `_worst`, which keeps a NaN, so a
  suite whose computation turns NaN fails.
The suites run on numpy alone.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from . import fock
from .blochmessiah import bloch_messiah, factors_to_circuit
from .bounds import bm_get_entropy, bm_gme_entropy, eb_qpsk_entropy, gram_matrix
from .cloner import (
    ChannelParams,
    bs_symplectic,
    displaced_thermal_ensemble,
    eve_average_covariance,
    eve_reduced_covariance,
    eve_thermal_weights,
    initial_covariance,
    qpsk,
)
from .linalg import max_abs, principal_sqrt, unitarity_defect
from .states import (
    GaussianState,
    apply_symplectic,
    entropy_from_cov,
    partial_trace_modes,
    standard_symplectic_spectrum,
    williamson_standard_two_mode,
)
from .unitaries import (
    BogoliubovPair,
    _compose_arrays,
    _squeezer_arrays,
    expm_i_hermitian,
    from_symplectic,
    switch_disp_rotation,
    switch_disp_squeezer,
    switch_squeezer_rotation,
    to_symplectic,
)

__all__ = ["CheckResult", "run_checks", "format_report"]


@dataclass
class CheckResult:
    name: str
    residual: float
    tolerance: float
    seconds: float = 0.0  # the suite's wall time, set by `run_checks`

    @property
    def passed(self):
        return self.residual <= self.tolerance


def _worst(*residuals):
    """The largest residual, or NaN if any is NaN.

    `max` drops a NaN that is not its first argument (`max(0.0, nan)` is
    0.0), which would let a suite whose computation turns NaN pass; a NaN
    residual fails `CheckResult.passed` instead.
    """
    return math.nan if any(math.isnan(r) for r in residuals) else max(residuals)


def random_pair(rng, nmodes, with_displacement=False):
    """Random Gaussian unitary built by composing fundamental operations.

    Three rotation-squeezer rounds are composed as plain (E, F) arrays, and
    only the final pair is validated, by the `BogoliubovPair` returned; the
    draws and the arithmetic are those of composing `bogoliubov_of` pairs.
    """
    zeros = np.zeros((nmodes, nmodes), dtype=complex)
    pair = (expm_i_hermitian(zeros), zeros)
    for _ in range(3):
        herm = rng.normal(size=(nmodes, nmodes)) + 1j * rng.normal(size=(nmodes, nmodes))
        herm = (herm + herm.conj().T) / 2
        sym = rng.normal(size=(nmodes, nmodes)) + 1j * rng.normal(size=(nmodes, nmodes))
        sym = 0.25 * (sym + sym.T)
        pair = _compose_arrays(pair, (expm_i_hermitian(herm), zeros))
        pair = _compose_arrays(pair, _squeezer_arrays(sym))
    alpha = rng.normal(size=nmodes) + 1j * rng.normal(size=nmodes) if with_displacement else None
    return BogoliubovPair(e=pair[0], f=pair[1], alpha=alpha)


def check_bogoliubov_roundtrip():
    rng = np.random.default_rng(11)
    worst = 0.0
    for trial in range(20):
        pair = random_pair(rng, 1 + trial % 3, with_displacement=True)
        back = from_symplectic(to_symplectic(pair))
        worst = _worst(worst, max_abs(back.e - pair.e), max_abs(back.f - pair.f),
                       max_abs(back.alpha - pair.alpha))
    return CheckResult("bogoliubov-roundtrip", worst, 1e-10)


def check_bloch_messiah():
    rng = np.random.default_rng(23)
    worst = 0.0
    for trial in range(50):
        pair = random_pair(rng, 1 + trial % 3)
        factors = bloch_messiah(pair)
        e, f = factors.reconstruct()
        worst = _worst(worst, max_abs(e - pair.e), max_abs(f - pair.f))
        rot1, squeezer, rot2 = factors_to_circuit(factors)
        zeros = np.zeros_like(pair.f)
        total = _compose_arrays((expm_i_hermitian(rot1.phi), zeros), _squeezer_arrays(squeezer.z))
        total = _compose_arrays(total, (expm_i_hermitian(rot2.phi), zeros))
        worst = _worst(worst, max_abs(total[0] - pair.e), max_abs(total[1] - pair.f))
    return CheckResult("bloch-messiah-reconstruction", worst, 1e-9)


def check_takagi():
    rng = np.random.default_rng(37)
    worst = 0.0
    for _ in range(20):
        n = rng.integers(1, 5)
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        q = np.linalg.qr(m)[0]
        g = q @ q.T
        d = principal_sqrt(g)
        worst = _worst(worst, max_abs(d @ d.T - g), unitarity_defect(d))
    return CheckResult("takagi-reconstruction", worst, 1e-9)


def check_williamson_grid():
    worst = 0.0
    for tau in np.linspace(0.05, 0.95, 10):
        for nbar in (0.01, 0.02, 0.1):
            params = ChannelParams(tau=tau, nbar=nbar)
            std = eve_reduced_covariance(params)
            smap, nu1, nu2 = williamson_standard_two_mode(std)
            rebuilt = smap.s @ np.diag([nu2, nu2, nu1, nu1]) @ smap.s.T
            worst = _worst(worst, max_abs(rebuilt - std.as_matrix()))
            w1, w2 = smap.s[0, 0], smap.s[0, 2]
            worst = _worst(worst, abs(w1 * w1 - w2 * w2 - 1))
            closed_w1, closed_w2, nu1p = eve_thermal_weights(params)
            worst = _worst(worst, abs(closed_w1 - w1), abs(closed_w2 - w2),
                           abs(nu1p - (nu1 - 1) / 2), abs(nu2 - 1))
    return CheckResult("williamson-grid", worst, 1e-9)


def _switched_displacement(circuit, beta):
    """Displacement beta' with D(beta) R2 S R1 = R2 S R1 D(beta')."""
    rot1, squeezer, rot2 = circuit[:3]
    g = switch_disp_rotation(rot2.phi, beta)
    g = switch_disp_squeezer(squeezer.z, g)
    return switch_disp_rotation(rot1.phi, g)


def bloch_messiah_amplitudes(constellation, params):
    """K x 2 displacements of the eavesdropper's ensemble, obtained by pushing
    the conditional displacements (-r alpha_i, 0) through the Bloch-Messiah
    circuit of her thermal decomposition, all K at once as the columns of a
    2 x K matrix; the reference for the closed form in
    `displaced_thermal_ensemble`."""
    smap, _, _ = williamson_standard_two_mode(eve_reduced_covariance(params))
    circuit = factors_to_circuit(bloch_messiah(from_symplectic(smap)))
    amps = constellation.amplitudes
    betas = np.stack([-params.r * amps, np.zeros_like(amps)])
    return _switched_displacement(circuit, betas).T


def check_eca_pipeline():
    worst = 0.0
    constellation = qpsk(1.0)
    for tau in np.linspace(0.05, 0.95, 10):
        for nbar in (0.01, 0.02, 0.1):
            params = ChannelParams(tau=tau, nbar=nbar)
            state = GaussianState(mean=np.zeros(6), cov=initial_covariance(params))
            reduced = partial_trace_modes(apply_symplectic(state, bs_symplectic(params)), keep=(1, 2))
            worst = _worst(worst, max_abs(reduced.cov - eve_reduced_covariance(params).as_matrix()))
            nu1, nu2 = standard_symplectic_spectrum(eve_reduced_covariance(params))
            worst = _worst(worst, abs(nu1 - (2 * (1 - tau) * nbar + 1)), abs(nu2 - 1))
            closed = displaced_thermal_ensemble(constellation, params).mode_amplitudes()
            worst = _worst(worst, max_abs(closed - bloch_messiah_amplitudes(constellation, params)))
    return CheckResult("eca-pipeline", worst, 1e-9)


def check_entropy_unitary_invariance():
    worst = 0.0
    constellation = qpsk(1.0)
    for tau, nbar in ((0.3, 0.01), (0.5, 0.02), (0.8, 0.1)):
        params = ChannelParams(tau=tau, nbar=nbar)
        avg = eve_average_covariance(constellation, params)
        smap, _, _ = williamson_standard_two_mode(eve_reduced_covariance(params))
        conjugated = smap.s @ avg @ smap.s.T
        reference = entropy_from_cov(avg)
        worst = _worst(worst, abs(reference - entropy_from_cov(conjugated)),
                       abs(reference - bm_get_entropy(constellation, params)))
    return CheckResult("entropy-unitary-invariance", worst, 1e-9)


def check_estimator_ordering():
    worst = 0.0
    constellation = qpsk(1.0)
    for nbar in (0.01, 0.02):
        for tau in np.linspace(0.05, 0.95, 10):
            params = ChannelParams(tau=tau, nbar=nbar)
            gme = bm_gme_entropy(constellation, params)
            get = bm_get_entropy(constellation, params)
            eb = eb_qpsk_entropy(1.0, params)
            worst = _worst(worst, gme - get, get - eb)
    return CheckResult("estimator-ordering", worst, 1e-9)


def check_gram_validity():
    worst = 0.0
    constellation = qpsk(1.0)
    for tau in (0.2, 0.6, 0.9):
        ens = displaced_thermal_ensemble(constellation, ChannelParams(tau=tau, nbar=0.02))
        gram = gram_matrix(ens)
        worst = _worst(
            worst,
            max_abs(gram - gram.conj().T),
            abs(float(np.trace(gram).real) - 1.0),
            -float(np.linalg.eigvalsh(gram).min()),
        )
    return CheckResult("gram-validity", worst, 1e-8)


def random_rule_params(rng):
    """Rule parameters within |alpha| <= 1 and squeeze strength <= 0.5."""
    alpha = rng.normal(size=2) + 1j * rng.normal(size=2)
    alpha *= min(1.0, 1.0 / max(abs(alpha)))
    herm = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    herm = (herm + herm.conj().T) / 2
    sym = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    sym = (sym + sym.T) / 2
    sym *= min(1.0, 0.5 / np.linalg.svd(sym, compute_uv=False)[0])
    return alpha, herm, sym


def check_switching_rules_fock():
    # cutoff 50: at the |alpha| = 1, r = 0.5 corner the displaced-squeezed
    # probes still carry ~1e-8 population near level 30, well inside the
    # ladder.  The worst distance over the three draws, 7.9e-8 in the
    # squeezer rules, is truncation leakage, not round-off: it falls from
    # 1.9e-6 at cutoff 40 to 3.2e-9 at 60, while the displacement-rotation
    # rule, exact under truncation, stays near 2e-15.
    rng = np.random.default_rng(53)
    worst = 0.0
    for _ in range(3):
        alpha, herm, sym = random_rule_params(rng)
        worst = _worst(worst, _switch_rule_distances(50, alpha, herm, sym, rng))
    return CheckResult("switching-rules-fock", worst, 1e-6)


def _random_gaussian_ket(cutoff, rng):
    ket = np.zeros((cutoff + 1) ** 2, dtype=complex)
    ket[0] = 1.0
    sym = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    sym = (sym + sym.T) / 2
    sym *= min(1.0, 0.2 / np.linalg.svd(sym, compute_uv=False)[0])
    alpha = rng.normal(size=2) + 1j * rng.normal(size=2)
    alpha *= min(1.0, 0.3 / max(abs(alpha)))
    ket = fock.apply_generator(fock.squeeze_generator(cutoff, sym), ket)
    ket = fock.apply_displacement(alpha, ket, cutoff)
    return ket / np.linalg.norm(ket)


def _pure_trace_distance(k1, k2):
    """sqrt(1 - |<k1|k2>|^2) for unit kets, without its cancellation.

    With d0 = min_theta ||k1 - e^{i theta} k2||, |<k1|k2>| = 1 - d0^2 / 2,
    so the distance is d0 sqrt(1 - d0^2 / 4): it keeps full relative
    precision when the kets agree closely, where 1 - |<k1|k2>|^2 would be
    round-off.
    """
    overlap = np.vdot(k2, k1)
    phase = overlap / abs(overlap) if overlap != 0 else 1.0
    d0 = float(np.linalg.norm(k1 - phase * k2))
    return d0 * math.sqrt(1.0 - d0 * d0 / 4)  # d0 <= sqrt(2) after the phase


def _switch_rule_distances(cutoff, alpha, herm, sym, rng):
    """Worst trace distance between the two sides of the three reordering
    rules on a random Gaussian probe psi.

    Rules 2 and 3 are checked in their equivalent R(phi)^dag form,
    R(phi)^dag S(z) = S(z') R(phi)^dag and R(phi)^dag D(alpha) =
    D(gamma) R(phi)^dag, so that one displacement by alpha of
    [S(z) psi, psi] and one rotation by -phi of [S(z) psi, psi, D(alpha)
    psi] serve all three rules, and rule 2 reuses rule 1's S(z) psi.
    Squeezers go through the Chebyshev exponential of
    `fock.apply_generator`, three here after the one that builds the
    probe; displacements and rotations through a cached and a stacked
    tridiagonal eigenbasis, exact under truncation.
    """
    ket = _random_gaussian_ket(cutoff, rng)
    gen_s = fock.squeeze_generator(cutoff, sym)
    squeezed = fock.apply_generator(gen_s, ket)
    lhs_1, displaced = fock.apply_displacement(alpha, np.stack([squeezed, ket]), cutoff)
    lhs_2, unrotated, lhs_3 = fock.apply_rotation(
        -herm, np.stack([squeezed, ket, displaced]), cutoff
    )
    # D(alpha) S(z) = S(z) D(beta)
    beta = switch_disp_squeezer(sym, alpha)
    rhs_1 = fock.apply_generator(gen_s, fock.apply_displacement(beta, ket, cutoff))
    # S(z) R(phi) = R(phi) S(z')
    zp = switch_squeezer_rotation(herm, sym)
    rhs_2 = fock.apply_generator(fock.squeeze_generator(cutoff, zp), unrotated)
    # D(alpha) R(phi) = R(phi) D(gamma)
    gamma = switch_disp_rotation(herm, alpha)
    rhs_3 = fock.apply_displacement(gamma, unrotated, cutoff)
    return _worst(*(_pure_trace_distance(lhs, rhs)
                    for lhs, rhs in ((lhs_1, rhs_1), (lhs_2, rhs_2), (lhs_3, rhs_3))))


def check_oracle_entropy_agreement():
    worst = 0.0
    for nbar in (0.02, 0.5, 1.0):
        exact = fock.fock_entropy(fock.fock_thermal(nbar, 30))
        gauss = entropy_from_cov((2 * nbar + 1) * np.eye(2))
        worst = _worst(worst, abs(exact - gauss))
    marginal = fock.fock_partial_trace(fock.fock_tmsv(0.3, 20), (21, 21), keep=(0,))
    worst = _worst(worst, abs(fock.fock_entropy(marginal) - entropy_from_cov(1.6 * np.eye(2))))
    return CheckResult("oracle-entropy-agreement", worst, 1e-5)


SUITES = (
    check_bogoliubov_roundtrip,
    check_bloch_messiah,
    check_takagi,
    check_williamson_grid,
    check_eca_pipeline,
    check_entropy_unitary_invariance,
    check_estimator_ordering,
    check_gram_validity,
    check_switching_rules_fock,
    check_oracle_entropy_agreement,
)


def run_checks():
    """Run every suite and time it; failures are report content, not
    exceptions."""
    results = []
    for suite in SUITES:
        start = time.perf_counter()
        result = suite()
        result.seconds = time.perf_counter() - start
        results.append(result)
    return results


def format_report(results):
    """One line per suite.  The wall time is printed to 3 significant
    digits, so a suite that takes under half a millisecond does not read
    as 0."""
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(
            f"{r.name} max_residual={r.residual:.3e} tol={r.tolerance:.0e} "
            f"time={r.seconds:.3g}s {status}"
        )
    return lines

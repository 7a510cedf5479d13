"""Self-check suites behind `--check`: each exercises one invariant family
and reports its worst residual against a fixed tolerance.

- `run_checks` runs and times every suite of `SUITES`; `format_report`
  prints one line per suite.
- Most phase-space suites run their trials or cells as stacks, as set out
  below; one item is a stack of one, with no second code path.  The
  Williamson grid and the three-cell invariance and Gram suites run cell
  by cell.
- Random Gaussian unitaries are composed as plain arrays and validated
  once, as the final pair (`_composed_pairs`), and each draws its inputs
  with one `rng.normal` call (`_draw_pair`).  The Bloch-Messiah and
  round-trip suites draw every trial's inputs in rng order, then compose,
  decompose and rebuild the trials of each mode count (1, 2, 3) as one
  stack (`_random_pair_stacks`).  The Takagi suite draws its trials first
  and runs one QR and one `principal_sqrt` per matrix size.
- The cloner pipeline suite runs its 30 cells as one stacked
  `GaussianState` through the beam splitter and the partial trace, and
  builds each cell's reduced covariance once; the Bloch-Messiah
  reference for the eavesdropper's ensemble reuses them and moves all
  amplitudes of all cells at once, through one stacked decomposition of
  the cells' Williamson maps (`_circuit_amplitudes`).
- The estimator-ordering suite runs its 20 cells through the scan's
  stacked kernels, which give each cell its library value.
- The Fock-space reordering check shares one displacement and one rotation
  of its probes between the three rules, and squeezes psi and D(beta) psi
  in one call (`_switch_rule_distances`).  Squeezers with different
  generators stay separate calls, since one stack would run the Chebyshev
  series to its largest generator's order for every ket; Fock rotations
  are mostly their truncated-sector `eigh` and are not stacked either.
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
from .bounds import (
    _gram_spectra,
    bm_get_entropy,
    eb_qpsk_entropy,
    gaussian_extremality_entropy,
    gram_ensemble_entropy,
    gram_matrix,
)
from .cloner import (
    ChannelParams,
    Constellation,
    bs_symplectic,
    displaced_thermal_ensemble,
    eve_reduced_covariance,
    eve_thermal_weights,
    initial_covariance,
    qpsk,
)
from .linalg import _dagger, max_abs, principal_sqrt, unitarity_defect
from .states import (
    GaussianState,
    SymplecticMap,
    apply_symplectic,
    entropy_from_cov,
    make_tmsv,
    partial_trace_modes,
    standard_symplectic_spectrum,
    williamson_standard_two_mode,
)
from .unitaries import (
    BogoliubovPair,
    _compose_arrays,
    _squeezer_arrays,
    _switch_disp_rotation,
    _switch_disp_squeezer,
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


def _draw_pair(rng, nmodes, with_displacement):
    """The draws of one random N-mode Gaussian unitary: six complex
    Gaussian N x N matrices (generator, squeezing matrix, generator, ...),
    each its real part then its imaginary part, then alpha's or None.
    They are taken by one `rng.normal` call, which reads the stream as a
    call per part would."""
    square = 12 * nmodes * nmodes
    draws = rng.normal(size=square + (2 * nmodes if with_displacement else 0))
    re, im = draws[:square].reshape(6, 2, nmodes, nmodes).swapaxes(0, 1)
    rounds, alpha = re + 1j * im, None
    if with_displacement:
        re, im = draws[square:].reshape(2, nmodes)
        alpha = re + 1j * im
    return rounds, alpha


def _composed_pairs(rounds, alpha):
    """The `BogoliubovPair` of `_draw_pair`'s draws, for one unitary or,
    with (..., 6, N, N) rounds, a stack of them: three rotation-squeezer
    rounds composed as plain (E, F) arrays, with only the final pair
    validated; the arithmetic is that of composing validated pairs one
    operation at a time."""
    herm = rounds[..., 0::2, :, :]
    sym = rounds[..., 1::2, :, :]
    rotations = expm_i_hermitian((herm + _dagger(herm)) / 2)
    squeeze_e, squeeze_f = _squeezer_arrays(0.25 * (sym + sym.swapaxes(-1, -2)))
    zeros = np.zeros_like(rounds[..., 0, :, :])
    pair = (expm_i_hermitian(zeros), zeros)
    for k in range(3):
        pair = _compose_arrays(pair, (rotations[..., k, :, :], zeros))
        pair = _compose_arrays(pair, (squeeze_e[..., k, :, :], squeeze_f[..., k, :, :]))
    return BogoliubovPair(e=pair[0], f=pair[1], alpha=alpha)


def _random_pair_stacks(rng, trials, with_displacement=False):
    """A random (1 + trial % 3)-mode unitary for each trial, drawn in trial
    order and composed as one stacked pair per mode count: [the 1-mode
    trials, the 2-mode trials, the 3-mode trials]."""
    draws = [_draw_pair(rng, 1 + trial % 3, with_displacement) for trial in range(trials)]
    stacks = []
    for group in (draws[0::3], draws[1::3], draws[2::3]):
        rounds, alphas = zip(*group)
        stacks.append(_composed_pairs(np.stack(rounds), np.stack(alphas) if with_displacement else None))
    return stacks


def check_bogoliubov_roundtrip():
    worst = 0.0
    for pair in _random_pair_stacks(np.random.default_rng(11), 20, with_displacement=True):
        back = from_symplectic(to_symplectic(pair))
        worst = _worst(worst, max_abs(back.e - pair.e), max_abs(back.f - pair.f),
                       max_abs(back.alpha - pair.alpha))
    return CheckResult("bogoliubov-roundtrip", worst, 1e-10)


def check_bloch_messiah():
    worst = 0.0
    for pair in _random_pair_stacks(np.random.default_rng(23), 50):
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
    # Every trial is drawn first, in rng order (its size, then the real and
    # imaginary parts of its matrix); the trials of each size then go
    # through one QR and one `principal_sqrt`.
    rng = np.random.default_rng(37)
    by_size = {}
    for _ in range(20):
        n = rng.integers(1, 5)
        re, im = rng.normal(size=(2, n, n))
        by_size.setdefault(n, []).append(re + 1j * im)
    worst = 0.0
    for matrices in by_size.values():
        q = np.linalg.qr(np.stack(matrices))[0]
        g = q @ q.swapaxes(-1, -2)
        d = principal_sqrt(g)
        worst = _worst(worst, max_abs(d @ d.swapaxes(-1, -2) - g), unitarity_defect(d))
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
    """Displacement beta' with D(beta) R2 S R1 = R2 S R1 D(beta'), for one
    circuit or a stack of them; the circuit's operations are validated."""
    rot1, squeezer, rot2 = circuit
    g = _switch_disp_rotation(rot2, beta)
    g = _switch_disp_squeezer(squeezer, g)
    return _switch_disp_rotation(rot1, g)


def _circuit_amplitudes(constellation, cells, covs):
    """(cells, K, 2) displacements of the eavesdropper's ensemble at a
    sequence of cells, given their `eve_reduced_covariance`s: the
    conditional displacements (-r alpha_i, 0) pushed through the
    Bloch-Messiah circuit of each cell's thermal decomposition, the
    reference for the closed form of `displaced_thermal_ensemble`.  The
    cells' Williamson maps are decomposed as one stack, and their
    displacements moved through one stacked circuit."""
    smap = SymplecticMap(s=np.stack([williamson_standard_two_mode(std)[0].s for std in covs]))
    circuit = factors_to_circuit(bloch_messiah(from_symplectic(smap)))
    amps = -np.multiply.outer([p.r for p in cells], constellation.amplitudes)
    betas = np.stack([amps, np.zeros_like(amps)], axis=-2)
    return _switched_displacement(circuit, betas).swapaxes(-1, -2)


def check_eca_pipeline():
    # The 30 cells run as one stacked pipeline (initial state, beam
    # splitter, partial trace), and each cell's reduced covariance is
    # built once, for the comparison, its spectrum and its circuit.
    worst = 0.0
    cells = [ChannelParams(tau=tau, nbar=nbar)
             for tau in np.linspace(0.05, 0.95, 10) for nbar in (0.01, 0.02, 0.1)]
    covs = [eve_reduced_covariance(params) for params in cells]
    state = GaussianState(mean=np.zeros((len(cells), 6)), cov=initial_covariance(cells))
    reduced = partial_trace_modes(apply_symplectic(state, bs_symplectic(cells)), keep=(1, 2))
    worst = _worst(worst, max_abs(reduced.cov - np.stack([std.as_matrix() for std in covs])))
    for params, std in zip(cells, covs):
        nu1, nu2 = standard_symplectic_spectrum(std)
        worst = _worst(worst, abs(nu1 - (2 * (1 - params.tau) * params.nbar + 1)), abs(nu2 - 1))
    constellation = qpsk(1.0)
    closed = displaced_thermal_ensemble(constellation, cells).mode_amplitudes()
    worst = _worst(worst, max_abs(closed - _circuit_amplitudes(constellation, cells, covs)))
    return CheckResult("eca-pipeline", worst, 1e-9)


def check_entropy_unitary_invariance():
    worst = 0.0
    constellation = qpsk(1.0)
    for tau, nbar in ((0.3, 0.01), (0.5, 0.02), (0.8, 0.1)):
        params = ChannelParams(tau=tau, nbar=nbar)
        avg = displaced_thermal_ensemble(constellation, params).average_covariance()
        smap, _, _ = williamson_standard_two_mode(eve_reduced_covariance(params))
        conjugated = smap.s @ avg @ smap.s.T
        reference = entropy_from_cov(avg)
        worst = _worst(worst, abs(reference - entropy_from_cov(conjugated)),
                       abs(reference - bm_get_entropy(constellation, params)))
    return CheckResult("entropy-unitary-invariance", worst, 1e-9)


def check_estimator_ordering():
    # The 20 cells go through the scan's stacked kernels, whose values
    # equal the per-cell `bm_gme_entropy`, `bm_get_entropy` and
    # `eb_qpsk_entropy` (see `bounds`).
    worst = 0.0
    cells = [ChannelParams(tau=tau, nbar=nbar)
             for nbar in (0.01, 0.02) for tau in np.linspace(0.05, 0.95, 10)]
    ensemble = displaced_thermal_ensemble(qpsk(1.0), cells)
    gme = gram_ensemble_entropy(ensemble)
    get = np.array(gaussian_extremality_entropy(ensemble))
    eb = np.array(eb_qpsk_entropy(1.0, cells))
    worst = _worst(worst, *(gme - get).tolist(), *(get - eb).tolist())
    return CheckResult("estimator-ordering", worst, 1e-9)


def check_gram_validity():
    # `bm_gme_entropy` takes each cell's Gram spectrum from K blocks of R x R:
    # QPSK's are 1 x 1, its first rows' transforms, and 16 states on a square
    # grid give 4 x 4; each must match the eigensolve of the full matrix.
    worst = 0.0
    grid = 0.3 * np.array([-3, -1, 1, 3])
    qam = Constellation(amplitudes=np.add.outer(grid, 1j * grid).ravel(), probs=np.full(16, 1 / 16))
    for constellation in (qpsk(1.0), qam):
        ens = displaced_thermal_ensemble(constellation, [ChannelParams(tau=t, nbar=0.02) for t in (0.2, 0.6, 0.9)])
        gram = gram_matrix(ens)
        eigs = np.linalg.eigvalsh(gram)
        worst = _worst(
            worst,
            max_abs(gram - _dagger(gram)),
            max_abs(gram.trace(0, -2, -1).real - 1.0),
            -float(eigs.min()),
            max_abs(np.sort(_gram_spectra(ens)[1]) - eigs),
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
    S(z) psi and rule 1's S(z) D(beta) psi share one generator and are
    computed as one stack.  Squeezers go through the Chebyshev exponential
    of `fock.apply_generator`, two calls here after the one that builds
    the probe; displacements through a cached tridiagonal eigenbasis, and
    rotations as phase, cached beam splitter, phase on the complete
    photon-number sectors with an eigensolve only on the truncated ones;
    both are exact under truncation.
    """
    ket = _random_gaussian_ket(cutoff, rng)
    # D(alpha) S(z) = S(z) D(beta)
    beta = switch_disp_squeezer(sym, alpha)
    squeezed, rhs_1 = fock.apply_generator(
        fock.squeeze_generator(cutoff, sym), np.stack([ket, fock.apply_displacement(beta, ket, cutoff)])
    )
    lhs_1, displaced = fock.apply_displacement(alpha, np.stack([squeezed, ket]), cutoff)
    lhs_2, unrotated, lhs_3 = fock.apply_rotation(
        -herm, np.stack([squeezed, ket, displaced]), cutoff
    )
    # S(z) R(phi) = R(phi) S(z')
    zp = switch_squeezer_rotation(herm, sym)
    rhs_2 = fock.apply_generator(fock.squeeze_generator(cutoff, zp), unrotated)
    # D(alpha) R(phi) = R(phi) D(gamma)
    gamma = switch_disp_rotation(herm, alpha)
    rhs_3 = fock.apply_displacement(gamma, unrotated, cutoff)
    return _worst(*(_pure_trace_distance(lhs, rhs)
                    for lhs, rhs in ((lhs_1, rhs_1), (lhs_2, rhs_2), (lhs_3, rhs_3))))


def check_oracle_entropy_agreement():
    """The Fock entropy kernel against the Gaussian one on thermal states:
    `fock.fock_entropy` of truncated thermal states (nbar 0.02, 0.5 and 1
    at cutoff 30), and of nbar 0.3 at cutoff 20 against the phase-space
    TMSV marginal, each compared with `states.entropy_from_cov`.  It
    checks the entropy the oracle sums, not the oracle: it never calls
    `fock.eve_exact_entropy`."""
    worst = 0.0
    for nbar in (0.02, 0.5, 1.0):
        exact = fock.fock_entropy(fock.fock_thermal(nbar, 30))
        gauss = entropy_from_cov((2 * nbar + 1) * np.eye(2))
        worst = _worst(worst, abs(exact - gauss))
    # the TMSV marginal, traced in phase space, is the thermal state
    marginal = partial_trace_modes(make_tmsv(0.3), keep=(0,)).cov
    exact = fock.fock_entropy(fock.fock_thermal(0.3, 20))
    worst = _worst(worst, abs(exact - entropy_from_cov(marginal)))
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

"""Eavesdropper-entropy estimators for a discretely modulated protocol.

What each estimator assumes, and so what it is:

* `eb_qpsk_entropy`: the entangled-based bound.  The four-state average is
  purified, the purification's covariance is pushed through the channel,
  and the Gaussian entropy of the result is taken.  It assumes Gaussian
  extremality on that covariance and the purity of the global state
  (Leverrier and Grangier, PRL 102, 180504, 2009), and uses nothing of the
  attack but the channel's covariance; an upper bound.  Its one
  non-Gaussian input, the purification cross moment Z4, has a closed
  form, `eb_z4`.  Its domain is 0 < alpha <= `EB_ALPHA_MAX` and every nbar
  whose (X + b)^2 is a double (X and b the two modes' variances), about
  nbar < 6.7e153 / (1 - tau); from nbar = 1e6 to 1e150 it is within
  7.6e-14 bits of 400-digit arithmetic (tau in {0.02, 0.5, 0.98}, alpha
  in {0.05, 1, 100}).  The bound is valid but loose near tau = 1: at
  alpha = 1 it gives 2.0853 bits there for any nbar, where the true
  entropy is 0.
* `bm_get_entropy`: Gaussian extremality applied to the covariance of the
  displaced-thermal ensemble that carries the eavesdropper's average
  state under the entangling-cloner attack (`cloner`).  It bounds her
  entropy from above under that attack, the paper's setting, and claims
  nothing beyond it.  Its two-mode symplectic spectrum has one closed
  form for every constellation, from the ensemble's moments, in which
  nothing cancels where both eigenvalues are near 1
  (`gaussian_extremality_entropy`).
* `bm_gme_entropy`: the entropy of the ensemble's normalized Gram matrix,
  with the complex coherent-state overlaps of the displacement amplitudes
  as entries.  For a pure ensemble the Gram spectrum equals the
  average-state spectrum, so it is exact at nbar = 0.  For nbar > 0 it
  drops the thermal noise and is a lower bound on the true entropy, so
  not a security bound: at (tau, nbar, alpha) = (0.5, 0.01, 0.05) it
  gives 0.01404 bits against 0.05942 for the true entropy and for
  `bm_get_entropy`.  Why it cannot exceed the true entropy:
  - the ensemble's average state has the true entropy
    (`cloner.displaced_thermal_ensemble`), and each member is a coherent
    state on mode 1 times a displaced thermal state D(b) t D(b)^dag on
    mode 2, all with the one thermal state t;
  - t is a Gaussian mixture of coherent states (its P function is a
    positive Gaussian), so D(b) t D(b)^dag mixes the states
    D(beta) |b><b| D(beta)^dag with the same weights for every member;
  - so the average state is a random-displacement channel on mode 2
    applied to the pure surrogate sum_k p_k |b_k1, b_k2><b_k1, b_k2|,
    whose nonzero spectrum is that of the Gram matrix;
  - that channel is a mixture of unitaries, and by the concavity of the
    entropy a mixture of unitaries cannot lower it.
  `gram_matrix` returns the K x K array, a closed-form expression over the
  K x M displacement amplitudes (K states, M modes), and `gram_entropy`
  checks it (Hermitian, unit trace, no eigenvalue below -1e-8) with the
  one eigensolve that gives its entropy, the `states.spectrum_entropy` of
  its spectrum (one row per cell of a stack).  `bm_gme_entropy` goes
  through `gram_ensemble_entropy`, which takes them for every
  constellation but the cyclic ones, QPSK's among them: their Gram matrix
  is circulant, so its spectrum is the transform of its first row, with
  the same gates and no eigensolve.
* The Fock oracle, `fock.eve_exact_entropy`, is no bound: it is the
  brute-force check of the others where it converges.

The chain bm-gme <= bm-get <= eb is measured, not assumed: by
`checks.check_estimator_ordering` on 20 cells of the reference grid, to
1e-9 bits, and by tests/test_ordering_property.py over tau in [0, 1],
nbar up to 1e6 and alpha from 1e-6 to 6, to 1e-10 bits (bm-gme <= bm-get
also for BPSK, turned BPSK and a skewed 3-state set).  Where the tests
compare the oracle at converged cells, it lies between bm-gme and bm-get
to within 1e-6 bits.

The ensemble, `gram_matrix`, `gram_entropy`, `gram_ensemble_entropy` and
`gaussian_extremality_entropy` also take a leading axis of grid cells (see
`cloner.DisplacedThermalEnsemble`), and `eb_qpsk_entropy` a sequence of
cells.  What belongs to the constellation is taken once: QPSK's Gram
first rows, from the constellation's part and two numbers per cell, are
transformed and checked as one (cells, K) stack, other Gram matrices go
through one `eigvalsh`, `bm-get` takes the spread and determinant once
and `eb_qpsk_entropy` X and Z4, and both add `states.symplectic_entropy`'s
sum inline on floats per cell.  The library calls run the same code on
one cell, so a scan's value for a cell is the one the library returns.

The estimators import nothing from `fock`, the brute-force oracle that
checks them.
"""

import math
import sys
from functools import lru_cache

import numpy as np

from .cloner import ChannelParams, displaced_thermal_ensemble
from .linalg import (
    _NOT_CONSTRUCT,
    ATOL_CONSTRUCT,
    max_abs,
    require_at_least,
    require_at_most,
    require_hermitian,
)
from .states import (
    _log,
    _thermal_entropy,
    _physical_standard_spectrum,
    spectrum_entropy,
)

__all__ = [
    "gram_matrix",
    "gram_entropy",
    "gram_ensemble_entropy",
    "gaussian_extremality_entropy",
    "bm_get_entropy",
    "bm_gme_entropy",
    "eb_qpsk_entropy",
    "eb_z4",
]


def gram_matrix(ensemble):
    """Gram matrix of a displaced-thermal ensemble.

    Entries sqrt(p_m p_n) <psi_m|psi_n>, with the complex coherent-state
    overlap <a|b> = exp(-|b - a|^2 / 2 + i Im(conj(a) b)) taken per mode and
    multiplied over the modes.  Exact whenever the thermal photon numbers
    vanish; for mixed ensembles it deliberately drops the thermal
    covariance, keeping the overlap phases, and its entropy is then a lower
    bound on the true entropy (the module docstring gives the argument).

    The modulus is taken from |b - a|^2, not |a|^2 + |b|^2 - 2 Re(conj(a) b),
    which cancels for large amplitudes, and the phase as 0.5 (X - X^T) with
    X = Re a Im b - Im a Re b summed over the modes, antisymmetric by
    construction; so the matrix is Hermitian with a unit-modulus diagonal
    at any amplitude.

    Returns the K x K complex array unchecked, or a (cells, K, K) stack for
    an ensemble with a leading cell axis; `gram_entropy` checks it.
    """
    amps = ensemble.mode_amplitudes()
    root_p = np.sqrt(ensemble.probs)
    a, b = amps[..., :, None, :], amps[..., None, :, :]
    sq = (np.abs(b - a) ** 2).sum(axis=-1)
    x = (a.real * b.imag - a.imag * b.real).sum(axis=-1)
    phase = x - x.swapaxes(-1, -2)
    return root_p[:, None] * root_p[None, :] * np.exp(-0.5 * sq + 0.5j * phase)


def gram_entropy(matrix, base="bits"):
    """Entropy -sum lambda log lambda of a Gram matrix's spectrum.

    The one place a Gram matrix is checked: it must be square, Hermitian
    to 1e-10, have unit trace to 1e-9 and no eigenvalue below -1e-8.
    Eigenvalues in [-1e-8, 0) are clipped to zero (Hermitian eigensolves
    dip slightly negative) and the spectrum renormalized.  The entropy is
    that of `states.spectrum_entropy`: never negative, and 0.0 rather than
    -0.0 for a pure spectrum.

    A (..., K, K) stack is checked and diagonalized at once, by one
    `eigvalsh`, and gives an array of entropies of shape (...); one K x K
    matrix gives a float.
    """
    _log(base)
    matrix = np.asarray(matrix, dtype=complex)
    require_hermitian(matrix, "Gram matrix")  # and square
    traces = matrix.trace(0, -2, -1).real
    return _spectrum_entropy_checked(traces, np.linalg.eigvalsh(matrix), base)


def _spectrum_entropy_checked(traces, eigs, base):
    """`gram_entropy`'s trace and eigenvalue gates on a stack of Gram
    traces and spectra, then the entropy of each clipped, renormalized
    spectrum."""
    worst = float(traces.flat[abs(traces - 1.0).argmax()])
    require_at_most(abs(worst - 1.0), 1e-9, "Gram matrix trace is {1!r}, expected 1 within 1e-9", worst)
    require_at_least(eigs.min(), -1e-8, "Gram matrix has eigenvalue {:.3e} below -1e-8")
    eigs = eigs.clip(0.0)
    return spectrum_entropy(eigs / eigs.sum(axis=-1, keepdims=True), base)


# The relative tolerance of `gram_ensemble_entropy`'s cyclic test: a
# constellation is cyclic when alpha_k = w^k alpha_0 (w = e^(2 pi i / K))
# to within this times |alpha_0|; rounding leaves QPSK's near 1e-16.
CIRCULAR_RTOL = 1e-12


def gram_ensemble_entropy(ensemble, base="bits"):
    """`gram_entropy(gram_matrix(ensemble))`, with the Gram matrix of a
    cyclic constellation diagonalized in closed form.

    A constellation is cyclic when its probabilities are all exactly equal
    and its amplitudes go round one rotation in list order
    (`CIRCULAR_RTOL`), as QPSK's do.  Then each cell's Gram matrix is
    circulant, G_jl = g_(l-j mod K), so its spectrum is the discrete
    Fourier transform of its first row, lambda_q = sum_l G_0l w^(ql) with
    w = e^(2 pi i / K), and no K x K matrix is built or diagonalized.  The
    row is `gram_matrix`'s formula, in two parts (`_cyclic_spectra`), and
    the transform is a product with a root table cached per K
    (`_dft_table`).  `gram_entropy`'s gates apply with their messages,
    except that |Im lambda| <= `linalg.ATOL_CONSTRUCT` stands in for the
    Hermitian check: the trace to 1e-9, the eigenvalue floor -1e-8, then
    the clipped, renormalized spectrum's `states.spectrum_entropy`.  The
    closed form and `eigvalsh` of the full matrix agree to 1.5e-16 on
    `checks.check_gram_validity`'s cells.

    Accuracy at nbar = 0, where the spectrum is the mod-4 class weights of
    x = (1 - tau) alpha^2 for QPSK: against 50-digit arithmetic (alpha from
    1e-6 to 3) both routes are within 1e-13 bits absolute, but neither
    keeps relative accuracy below alpha of about 1e-3, where the small
    eigenvalues are differences of numbers near 1/4 (2.3e-3 relative at
    alpha = 1e-6).

    Any other constellation takes `gram_entropy(gram_matrix(...))`.  The
    route is decided once per constellation, and each cell's row is
    transformed by its own vector-matrix product, so a stack's value for a
    cell is bit for bit the one that cell gives alone.  A float for one
    ensemble, and for a leading cell axis an array of shape (cells,).
    """
    _log(base)
    if not _is_cyclic(ensemble.constellation):
        return gram_entropy(gram_matrix(ensemble), base)
    rows, spectra = _cyclic_spectra(ensemble.constellation, ensemble.scales)
    require_at_most(max_abs(spectra.imag), ATOL_CONSTRUCT, _NOT_CONSTRUCT,
                    "Gram matrix", "Hermitian", "Im lambda")
    values = _spectrum_entropy_checked(rows.shape[-1] * rows[:, 0].real, spectra.real, base)
    return values if ensemble.scales.ndim > 1 else float(values[0])


@lru_cache(maxsize=16)
def _dft_table(k):
    """table[l, q] = w^(ql) for K states, with w = e^(2 pi i / K); read-only."""
    steps = np.arange(k)
    table = np.exp(2j * np.pi * (np.outer(steps, steps) % k) / k)
    table.flags.writeable = False
    return table


def _unit_parts(constellation):
    """(parts, e): a constellation's amplitudes as K x 2 real parts over
    2^e, e the `math.frexp` exponent of the largest; exact, all below 1."""
    parts = np.ascontiguousarray(constellation.amplitudes).view(float).reshape(-1, 2)
    exponent = math.frexp(max_abs(parts))[1]
    return np.ldexp(parts, -exponent), exponent


def _is_cyclic(constellation):
    """Whether a constellation is cyclic (`gram_ensemble_entropy`)."""
    probs = constellation.probs
    if not (probs == probs[0]).all():
        return False
    amps = _unit_parts(constellation)[0].view(complex)[:, 0]
    return max_abs(amps - _dft_table(probs.size)[1 % probs.size] * amps[0]) <= CIRCULAR_RTOL * abs(amps[0])


def _cyclic_spectra(constellation, scales):
    """(rows, spectra), both (cells, K) complex: a cyclic constellation's
    Gram first rows at cells of `scales` (2,) or (cells, 2), and their
    transforms.  Displacements (s1 alpha, s2 conj(alpha)) make `gram_matrix`'s
    row G_0l = p exp(-A d_l / 2 + i B m_l), with d_l = |u_l - u_0|^2 and
    m_l = Im(conj(u_0) u_l) of u = alpha / 2^e (`_unit_parts`) taken once
    and only A, B = (s1 2^e)^2 +- (s2 2^e)^2 per cell."""
    parts, exponent = _unit_parts(constellation)
    d = ((parts - parts[0]) ** 2).sum(axis=-1)
    # real products keep m_0 exactly 0, which a fused complex product need not
    m = parts[0, 0] * parts[:, 1] - parts[0, 1] * parts[:, 0]
    sq1, sq2 = np.ldexp(scales, exponent).reshape(-1, 2).T[..., None] ** 2
    rows = constellation.probs[0] * np.exp(-0.5 * (sq1 + sq2) * d + 1j * ((sq1 - sq2) * m))
    # (cells, 1, K) @ (K, K): one vector-matrix product per cell, as a
    # cell alone takes; a (cells, K) matrix product rounds rows differently
    return rows, (rows[:, None, :] @ _dft_table(d.size))[:, 0, :]


def gaussian_extremality_entropy(ensemble, base="bits"):
    """Entropy of the Gaussian state with the average covariance of a
    displaced-thermal ensemble, an upper bound on its average state's
    entropy.

    The ensemble's mode-2 displacement b2 is a fixed real multiple of the
    conjugate of its mode-1 displacement b1
    (`cloner.DisplacedThermalEnsemble`).  So in the frame where the
    receiver is traced out, the average covariance is
    [[a I + M, c Z], [c Z, b I]] with ab - c^2 = nu = 2 nu1p + 1 and M the
    spread of the displacements; once mode 1 is turned to the principal
    axes of M (and mode 2 the other way), the q and p quadratures
    decouple, and nu+^2 and nu-^2 are the eigenvalues of Vq Vp.  In the
    ensemble's own moments, with [[A, C], [C, B]] the spread of the mode-1
    means about their average, T1 = A + B and T2 the mode-2 spread's trace:
      - n1, n2 = (T1 +- hypot(A - B, 2C)) / 2, the mode-1 spread's
        eigenvalues, taken as T1 f1 and T1 f2 with f1 = (1 + split) / 2,
        f2 = det / f1, det = (AB - C^2) / T1^2 and split = sqrt(1 - 4 det);
      - k = (T1 - T2) / T1, r = nu + T2 / T1 and e_i = k n_i - 2 nu1p;
      - nu+ nu- = sqrt(nu + r n1) sqrt(nu + r n2);
      - (nu+^2 - nu-^2)^2 = r^2 (n1 - n2)^2 + e1 e2 (e1 e2 + 2 r T1 + 4 nu);
      - nu+^2 + nu-^2 = 1 + nu^2 + T1 + nu T2 + k^2 n1 n2;
    so nu+ = sqrt((nu+^2 + nu-^2 + (nu+^2 - nu-^2)) / 2) and
    nu- = nu+ nu- / nu+.  Nothing there cancels where both are near 1, as
    at small alpha and small nbar.  split loses precision near a circular
    spread, but the spectrum depends on it only through n1 + n2, n1 n2
    and (n1 - n2)^2, which its error moves at second order.  AB - C^2 is
    taken by Cauchy-Binet, as
    sum_(j<k) p_j p_k (q_j p_k - q_k p_j)^2 over the centred amplitudes,
    which keeps n2 of a spread of rank 1 (BPSK, turned off the axes or
    not) to rounding of n2, not of n1.  For a circular constellation
    (QPSK, or any of rotation order K >= 3) n1 = n2, and this is the
    closed form of its standard-form covariance.

    Against 60-digit arithmetic (QPSK, BPSK turned and not, an off-centre
    3-ASK and a skewed 3-state set, alpha from 1e-6 to 1e4, nbar from 0 to
    1e6; tests/test_bounds.py) it is within 2e-10 of the value, relative
    to max(1, value); the error left is `states._thermal_entropy`'s skip
    of thermal photon numbers below 1e-12, up to 4.1e-11 bits at small
    alpha.  (nu+^2 - nu-^2)^2 is taken at the scale of its two terms, so
    the domain ends only where nu+^2 + nu-^2 is not a double (for QPSK at
    (tau, nbar) = (0.25, 5) from alpha of about 9.4e76); there, or at any
    other non-finite eigenvalue, it raises ("beyond double precision").

    The spread and det are the constellation's, taken once on its
    amplitudes over 2^e (`_unit_parts`), and T1, T2 = 4 (s 2^e)^2 spread
    with s a cell's two scales.  The closed form runs on floats per cell,
    in order, so a stack raises its first failing cell's error.  A float,
    or for a leading cell axis a list of each cell's float alone.
    """
    _log(base)
    probs = ensemble.probs
    parts, exponent = _unit_parts(ensemble.constellation)
    centred = parts - probs @ parts
    spread = float((probs @ (centred * centred)).sum())
    # p_j p_k (cross_jk / spread)^2 <= 1/4; a spread of 0 leaves each cross 0
    cross = np.multiply.outer(centred[:, 0], centred[:, 1])
    cross = (cross - cross.T) / max(spread, sys.float_info.min)
    det = float(probs @ (cross * cross) @ probs) / 2
    split = math.sqrt(1 - 4 * det) if det < 0.25 else 0.0
    f1 = (1 + split) / 2
    f2 = det / f1
    # (T1, T2) per cell
    traces = (4 * np.ldexp(ensemble.scales, exponent) ** 2 * spread).reshape(-1, 2)
    unit = math.log(2) if base == "bits" else 1.0
    values = []
    for (t1, t2), nu1p in zip(traces.tolist(), np.ravel(ensemble.nu1p).tolist()):
        nu = 2 * nu1p + 1
        larger, smaller = nu, 1.0
        if t1 > 0:
            # r T1 and k T1
            rt, kt = nu * t1 + t2, t1 - t2
            # nu+^2 - nu-^2 = sqrt(gap^2 + ee (ee + 2 r T1 + 4 nu)), taken at
            # the scale of hypot(gap, ee) so that no square overflows
            gap, ee = rt * split, (kt * f1 - 2 * nu1p) * (kt * f2 - 2 * nu1p)
            scale = math.hypot(gap, ee)
            inner = 1 + ee / scale * ((2 * rt + 4 * nu) / scale) if scale else 0.0
            root = scale * math.sqrt(inner) if inner > 0 else 0.0
            larger = math.sqrt((1 + nu * nu + t1 + nu * t2 + kt * (kt * det)) / 2 + root / 2)
            smaller = math.sqrt(nu + rt * f1) * math.sqrt(nu + rt * f2) / larger
        if not larger + smaller < math.inf:
            raise ValueError(
                f"two-mode covariance beyond double precision: its symplectic spectrum is not finite, T1 = {t1:.3e}"
            )
        # `symplectic_entropy((larger, smaller), base)`, bit for bit
        values.append(_thermal_entropy((larger - 1) / 2, unit) + _thermal_entropy((smaller - 1) / 2, unit))
    return values if ensemble.scales.ndim > 1 else values[0]


def bm_get_entropy(constellation, params, base="bits"):
    """Gaussian-extremality bound: entropy of the covariance of the
    eavesdropper's average state, through `gaussian_extremality_entropy`."""
    _log(base)
    return gaussian_extremality_entropy(displaced_thermal_ensemble(constellation, params), base)


def bm_gme_entropy(constellation, params, base="bits"):
    """Gram-matrix entropy of the eavesdropper's displaced-thermal ensemble,
    through `gram_ensemble_entropy`."""
    _log(base)
    return gram_ensemble_entropy(displaced_thermal_ensemble(constellation, params), base)


# The domain of `eb_qpsk_entropy`.  The value loses about alpha^2 eps: a, b
# and c are all near 2 alpha^2, and the spectrum depends on x - Z4, which
# tends to 1, so the rounding of a, b and c themselves is what is lost.
# Against 60-digit arithmetic (101 taus from 0 to 1 in steps of 0.01, nbar
# in {0, 0.01, 0.1, 1, 5}) it is off by at most 1.2e-14 bits at alpha = 4,
# 4.5e-10 at 1000 and 4.3e-8 at 1e4.
EB_ALPHA_MAX = 1e4


def eb_qpsk_entropy(alpha, params, base="bits"):
    """Entangled-based bound for the four-state protocol.

    Builds the two-mode covariance [[X I, Z4 Z], [Z4 Z, X I]] of the
    purification of the sender's average state, with X = 1 + 2 alpha^2 and
    Z4 the purification cross moment (closed form, `eb_z4`), sends the
    second mode through the channel (variance tau X + (1 - tau)(2 nbar + 1),
    correlation sqrt(tau) Z4) and returns the Gaussian entropy of the
    result, which bounds the eavesdropper entropy by global purity.  The
    result is already in standard form, so its symplectic spectrum is
    taken in closed form, once, with the physicality checks of
    `states.StandardTwoModeCov`.

    `params` is one `ChannelParams`, giving a float, or a sequence of them,
    giving a list of floats; X and Z4 are taken once for all of them.

    Raises ValueError outside 0 < alpha <= `EB_ALPHA_MAX`, and ("standard
    form beyond double precision") once (X + b)^2 overflows, with b the
    second mode's variance: about nbar > 6.7e153 / (1 - tau).
    """
    _log(base)
    if not 0 < alpha <= EB_ALPHA_MAX:
        raise ValueError(f"eb is defined for 0 < alpha <= {EB_ALPHA_MAX:g}, got {alpha}")
    x = 1 + 2 * alpha * alpha
    z4 = eb_z4(alpha)
    unit = math.log(2) if base == "bits" else 1.0
    single = isinstance(params, ChannelParams)
    values = []
    for p in [params] if single else params:
        bob = p.tau * x + (1 - p.tau) * (2 * p.nbar + 1)
        nu1, nu2 = _physical_standard_spectrum(x, bob, math.sqrt(p.tau) * z4)
        values.append(_thermal_entropy((nu1 - 1) / 2, unit) + _thermal_entropy((nu2 - 1) / 2, unit))
    return values[0] if single else values


# At and above this amplitude `eb_z4` takes the mod-4 class weights from
# their discrete Fourier form, which has no cancellation there: the smallest
# weight is within 2 exp(-16) of the largest.  Below it the four class
# power series, whose terms are all positive, keep the small weights
# accurate (lambda_3 ~ alpha^6 / 6) down to the smallest float amplitude.
Z4_FOURIER_ALPHA = 4.0


@lru_cache(maxsize=128)
def eb_z4(alpha):
    """q-q cross moment of the Schmidt purification of the four-state
    coherent average state, with partner vectors conjugated in the Fock
    basis (which makes the moment nonnegative).

    The average state is diagonal in the mod-4 photon-number classes, with
    eigenvalues lambda_k = exp(-alpha^2) sum_{n = k mod 4} alpha^(2n) / n!,
    and the moment is Z4 = 2 alpha^2 sum_k lambda_k^(3/2) lambda_{k+1}^(-1/2)
    (Leverrier and Grangier, PRL 102, 180504, 2009).

    Below `Z4_FOURIER_ALPHA` each weight is written
    lambda_k = exp(-alpha^2) alpha^(2k) / k! S_k with the power series
    S_k = sum_m alpha^(8m) k! / (4m + k)! >= 1 (`_class_sums`), so
    Z4 = 2 exp(-alpha^2) sum_k alpha^(e_k) mu_k^(3/2) mu_{k+1}^(-1/2) with
    mu_k = S_k / k! and e_k = 1, 3, 5, 11.  Nothing cancels and nothing
    underflows before 2 alpha does: only the powers alpha^3, alpha^5 and
    alpha^11 reach 0, where they are negligible beside alpha, so Z4 = 2 alpha
    to rounding for alpha far below 1.  Against 50-digit arithmetic it is
    off by at most 5e-16 relative from the smallest float up to just below 4.
    At and above the crossover the weights come from the four-point Fourier
    sum lambda_k = [1 + (-1)^k e^(-2 alpha^2) + 2 Re(i^(-k) e^(alpha^2 (i - 1)))] / 4,
    whose terms past the first are below 2 exp(-16).  With x = 1 + 2 alpha^2,
    x - Z4 tends to 1; the Poisson sums lose accuracy as alpha^2 eps there
    (log-space sums gave 1.0016 at alpha = 1000 and a negative value at
    5000), while this form keeps it at 1 to rounding.  Cached by value.
    alpha^2 is a product (libm's pow is not always correctly rounded).
    Raises ValueError ("beyond double precision") once 2 alpha^2
    overflows, from alpha = 9.4808e153.
    """
    if not 0 < alpha < math.inf:
        raise ValueError(f"amplitude must be positive and finite, got {alpha}")
    alpha = float(alpha)
    a2 = alpha * alpha
    if not math.isfinite(2 * a2):
        raise ValueError(f"eb_z4 is beyond double precision at alpha = {alpha}: 2 alpha^2 overflows")
    if alpha >= Z4_FOURIER_ALPHA:
        c, s = math.cos(a2), math.sin(a2)
        wave = 2 * math.exp(-a2) * np.array([c, s, -c, -s])
        lam = 0.25 * (1 + np.array([1, -1, 1, -1]) * math.exp(-2 * a2) + wave)
        return 2 * a2 * float((lam**1.5 / np.sqrt(np.roll(lam, -1))).sum())
    mu0, mu1, s2, s3 = _class_sums(a2 * a2 * a2 * a2)
    mu2, mu3 = s2 / 2, s3 / 6
    a5 = alpha * a2 * a2
    moment = (alpha * mu0 * math.sqrt(mu0 / mu1) + alpha * a2 * mu1 * math.sqrt(mu1 / mu2)
              + a5 * mu2 * math.sqrt(mu2 / mu3) + a5 * a2 * a2 * a2 * mu3 * math.sqrt(mu3 / mu0))
    return 2 * math.exp(-a2) * moment


def _class_sums(a8):
    """(S_0, S_1, S_2, S_3) with S_k = sum_m a8^m k! / (4m + k)!, in floats.

    Term m + 1 of class k is term m times a8 / ((n+1)(n+2)(n+3)(n+4)) with
    n = 4m + k.  The four series are summed in step, each until its last
    term is below 1e-17 of its sum; every term is positive, so nothing
    cancels.
    """
    t0 = t1 = t2 = t3 = s0 = s1 = s2 = s3 = 1.0
    n = 0.0
    while t0 >= 1e-17 * s0 or t1 >= 1e-17 * s1 or t2 >= 1e-17 * s2 or t3 >= 1e-17 * s3:
        p, q = (n + 2) * (n + 3) * (n + 4), (n + 4) * (n + 5) * (n + 6)
        t0 *= a8 / ((n + 1) * p)
        t1 *= a8 / (p * (n + 5))
        t2 *= a8 / ((n + 3) * q)
        t3 *= a8 / (q * (n + 7))
        s0, s1, s2, s3 = s0 + t0, s1 + t1, s2 + t2, s3 + t3
        n += 4
    return s0, s1, s2, s3

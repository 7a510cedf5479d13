"""Eavesdropper-entropy estimators for a discretely modulated protocol.

Three estimators are compared; the first two are upper bounds, the third
is not:

* `eb_qpsk_entropy`: the entangled-based bound.  The four-state average is
  purified, the purification's covariance is pushed through the channel,
  and the Gaussian entropy of the result is taken (Gaussian extremality
  plus global purity make it an upper bound).  Its one non-Gaussian input,
  the purification cross moment Z4, has a closed form, `eb_z4`.  Its
  domain is 0 < alpha <= `EB_ALPHA_MAX` and every nbar whose (X + b)^2 is
  a double (X and b the two modes' variances), about
  nbar < 6.7e153 / (1 - tau); from nbar = 1e6 to 1e150 it is within
  7.6e-14 bits of 400-digit arithmetic (tau in {0.02, 0.5, 0.98}, alpha
  in {0.05, 1, 100}).  The bound is valid but loose near tau = 1: at
  alpha = 1 it gives 2.0853 bits there for any nbar, where the true
  entropy is 0.
* `bm_get_entropy`: Gaussian extremality applied directly to the
  covariance of the displaced-thermal ensemble that carries the
  eavesdropper's average state; an upper bound.  Its two-mode symplectic
  spectrum is taken from the covariance's invariants (det A + det B +
  2 det C and det V), with no eigensolve.
* `bm_gme_entropy`: the entropy of the ensemble's normalized Gram matrix,
  with the complex coherent-state overlaps of the displacement amplitudes
  as entries.  For a pure ensemble the Gram spectrum equals the
  average-state spectrum, so it is exact at nbar = 0.  For nbar > 0 it
  drops the thermal noise and is a lower estimate, not a security bound:
  at (tau, nbar, alpha) = (0.5, 0.01, 0.05) it gives 0.01404 bits against
  0.05942 for the true entropy and for `bm_get_entropy`.  `gram_matrix`
  returns the K x K array, a closed-form expression over the K x M
  displacement amplitudes (K states, M modes), and `gram_entropy` checks
  it (Hermitian, unit trace, no eigenvalue below -1e-8) with the one
  eigensolve that gives its entropy, the `states.spectrum_entropy` of its
  spectrum (one row per cell of a stack).  `eb` and `bm-get` take theirs
  through `states.symplectic_entropy`.

The ensemble, `gram_matrix`, `gram_entropy` and
`gaussian_extremality_entropy` also take a leading axis of grid cells (see
`cloner.DisplacedThermalEnsemble`), and `eb_qpsk_entropy` a sequence of
cells: a scan builds its cells' Gram matrices as one (cells, K, K) stack,
checks them together and diagonalizes them with one stacked `eigvalsh`;
`gaussian_extremality_entropy` forms the cells' average covariances
together and takes their determinants with one stacked `det`; and
`eb_qpsk_entropy` takes X and Z4 once.  The closed-form tails of the last
two run on floats per cell.  The library calls run the same code on one
cell, so a scan's value for a cell is the one the library returns for it.

The estimators import nothing from `fock`, the brute-force oracle that
checks them.
"""

import math
from functools import lru_cache

import numpy as np

from .cloner import ChannelParams, displaced_thermal_ensemble
from .linalg import require_at_least, require_at_most, require_hermitian
from .states import (
    _log,
    _physical_standard_spectrum,
    _two_mode_symplectic_spectrum,
    spectrum_entropy,
    symplectic_entropy,
)

__all__ = [
    "gram_matrix",
    "gram_entropy",
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
    covariance, keeping the overlap phases (its entropy provably stays
    below the Gaussian-extremality bound because the true average state is
    the pure surrogate convolved with thermal noise).

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

    The one place a Gram matrix is checked: it must be Hermitian to 1e-10,
    have unit trace to 1e-9 and no eigenvalue below -1e-8.  Eigenvalues in
    [-1e-8, 0) are clipped to zero (Hermitian eigensolves dip slightly
    negative) and the spectrum renormalized.  The entropy is that of
    `states.spectrum_entropy`: never negative, and 0.0 rather than -0.0
    for a pure spectrum.

    A (..., K, K) stack is checked and diagonalized at once, by one
    `eigvalsh`, and gives an array of entropies of shape (...); one K x K
    matrix gives a float.
    """
    _log(base)
    matrix = np.asarray(matrix, dtype=complex)
    require_hermitian(matrix, "Gram matrix")
    traces = matrix.trace(0, -2, -1).real
    worst = float(traces.flat[abs(traces - 1.0).argmax()])
    require_at_most(abs(worst - 1.0), 1e-9, "Gram matrix trace is {1!r}, expected 1 within 1e-9", worst)
    eigs = np.linalg.eigvalsh(matrix)
    require_at_least(eigs.min(), -1e-8, "Gram matrix has eigenvalue {:.3e} below -1e-8")
    eigs = eigs.clip(0.0)
    return spectrum_entropy(eigs / eigs.sum(axis=-1, keepdims=True), base)


def gaussian_extremality_entropy(ensemble, base="bits"):
    """Entropy of the Gaussian state with the average covariance of a
    displaced-thermal ensemble, an upper bound on its average state's
    entropy.

    The symplectic spectrum comes from the two-mode invariants
    (`states._two_mode_symplectic_spectrum`); the average covariance is
    diag(nu2, nu2, nu1, nu1) >= 1 plus a positive-semidefinite spread, so
    it meets that function's positive-definite precondition.

    A float for one ensemble; for an ensemble with a leading cell axis,
    the average covariances are formed at once and their determinants
    taken by one stacked `np.linalg.det`, giving a list of floats.
    """
    _log(base)
    covs = ensemble.average_covariance()
    if covs.ndim == 2:
        return symplectic_entropy(_two_mode_symplectic_spectrum(covs), base)
    return [symplectic_entropy(nus, base) for nus in _two_mode_symplectic_spectrum(covs)]


def bm_get_entropy(constellation, params, base="bits"):
    """Gaussian-extremality bound: entropy of the covariance of the
    eavesdropper's average state, through `gaussian_extremality_entropy`."""
    _log(base)
    return gaussian_extremality_entropy(displaced_thermal_ensemble(constellation, params), base)


def bm_gme_entropy(constellation, params, base="bits"):
    """Gram-matrix entropy of the eavesdropper's displaced-thermal ensemble."""
    _log(base)
    return gram_entropy(gram_matrix(displaced_thermal_ensemble(constellation, params)), base=base)


# The domain of `eb_qpsk_entropy`.  The value loses about alpha^2 eps: a, b
# and c are all near 2 alpha^2, and the spectrum depends on x - Z4, which
# tends to 1, so the rounding of a, b and c themselves is what is lost.
# Against 60-digit arithmetic (tau in {0.1, 0.5, 0.99, 1}, nbar in
# {0, 0.01, 5}) it is off by at most 1e-14 bits at alpha = 4, 3.7e-10 at
# 1000 and 2.5e-8 at 1e4.
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
    single = isinstance(params, ChannelParams)
    values = []
    for p in [params] if single else params:
        bob = p.tau * x + (1 - p.tau) * (2 * p.nbar + 1)
        nus = _physical_standard_spectrum(x, bob, math.sqrt(p.tau) * z4)
        values.append(symplectic_entropy(nus, base))
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

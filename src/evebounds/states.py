"""Gaussian states in phase space: covariance matrices, symplectic maps,
thermal decomposition and von Neumann entropy.

Conventions: quadratures are q = a + a^dag and p = -i(a - a^dag), quadrature
vector ordering (q1, p1, ..., qN, pN), so the vacuum covariance matrix is the
identity and a coherent state |alpha> has mean (2 Re alpha, 2 Im alpha).
The symplectic form Omega is block diagonal with 2x2 blocks [[0, 1], [-1, 0]]
and physical covariances satisfy cov + i Omega >= 0.
"""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    ATOL_RECONSTRUCT,
    max_abs,
    require_at_least,
    require_at_most,
    require_distribution,
    require_finite,
    require_symmetric,
)

__all__ = [
    "GaussianState",
    "SymplecticMap",
    "StandardTwoModeCov",
    "omega",
    "make_tmsv",
    "symplectic_eigenvalues",
    "standard_symplectic_spectrum",
    "williamson_standard_two_mode",
    "entropy_from_cov",
    "thermal_entropy",
    "symplectic_entropy",
    "spectrum_entropy",
    "apply_symplectic",
    "partial_trace_modes",
    "average_covariance",
]

PHYSICALITY_ATOL = 1e-9

# Entropy units: bits (log2) or nats (natural log).
LOG_BASES = ("bits", "nats")

# The spectrum entropies skip eigenvalues at or below this: a zero
# eigenvalue comes out of `eigvalsh`, or of the transform of a cyclic Gram
# matrix's first row (`bounds.gram_ensemble_entropy`), as rounding noise of
# either sign.
EIGENVALUE_SKIP = 1e-15


def omega(nmodes):
    """Symplectic form for `nmodes` modes in (q1, p1, ...) ordering."""
    om = np.zeros((2 * nmodes, 2 * nmodes))
    q = np.arange(0, 2 * nmodes, 2)
    om[q, q + 1] = 1.0
    om[q + 1, q] = -1.0
    return om


def _check_symmetric(cov):
    """A finite symmetric 2N x 2N covariance, or a (..., 2N, 2N) stack."""
    cov = np.asarray(cov, dtype=float)
    if cov.ndim < 2 or cov.shape[-1] != cov.shape[-2] or cov.shape[-1] % 2:
        raise ValueError(f"covariance matrix must be square 2N x 2N, got {cov.shape}")
    require_finite(cov, "covariance matrix")
    require_symmetric(cov, "covariance matrix")
    return cov


def _check_cov(cov):
    """`_check_symmetric` and cov + i Omega >= 0, for one covariance or
    every member of a stack, by one stacked `eigvalsh`."""
    cov = _check_symmetric(cov)
    n = cov.shape[-1] // 2
    require_at_least(float(np.linalg.eigvalsh(cov + 1j * omega(n)).min()), -PHYSICALITY_ATOL,
                     "unphysical covariance matrix: min eig of cov + i Omega is {:.3e}")
    return cov


@dataclass
class GaussianState:
    """First and second moments of an N-mode bosonic Gaussian state, or of
    a stack of them: mean of shape (..., 2N) and cov of shape
    (..., 2N, 2N).  A stack is checked at once and fails if any member
    fails, with that check's message.

    Args:
        mean (array[float]): length-2N vector of quadrature means.
        cov (array[float]): 2N x 2N covariance matrix, vacuum = identity.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        self.cov = _check_cov(self.cov)
        self.mean = np.asarray(self.mean, dtype=float)
        require_finite(self.mean, "mean vector")
        size = math.prod(self.cov.shape[:-1])  # 2N, times the stack's length
        if self.mean.size != size:
            raise ValueError(f"mean length {self.mean.size} does not match covariance size {size}")
        self.mean = self.mean.reshape(self.cov.shape[:-1])

    @property
    def nmodes(self):
        return self.cov.shape[-1] // 2


@dataclass
class SymplecticMap:
    """Affine phase-space map r -> S r + d with S symplectic, or a stack of
    them: S of shape (..., 2N, 2N) and d of shape (..., 2N)."""

    s: np.ndarray
    d: np.ndarray = None

    def __post_init__(self):
        self.s = np.asarray(self.s, dtype=float)
        if self.s.ndim < 2 or self.s.shape[-1] != self.s.shape[-2] or self.s.shape[-1] % 2:
            raise ValueError(f"symplectic matrix must be square 2N x 2N, got {self.s.shape}")
        require_finite(self.s, "symplectic matrix")
        if self.d is None:
            self.d = np.zeros(self.s.shape[:-1])
        self.d = np.asarray(self.d, dtype=float)
        if self.d.size != math.prod(self.s.shape[:-1]):
            raise ValueError("displacement length does not match symplectic matrix size")
        self.d = self.d.reshape(self.s.shape[:-1])
        om = omega(self.s.shape[-1] // 2)
        require_at_most(max_abs(self.s @ om @ self.s.swapaxes(-1, -2) - om), ATOL_RECONSTRUCT,
                        "matrix is not symplectic: max |S Omega S^T - Omega| = {:.3e}")

    @property
    def nmodes(self):
        return self.s.shape[-1] // 2


@dataclass
class StandardTwoModeCov:
    """Two-mode covariance in standard form [[a I, c Z], [c Z, b I]]."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        _physical_standard_spectrum(self.a, self.b, self.c)

    def as_matrix(self):
        return _standard_block(self.a, self.b, self.c)


def _standard_block(a, b, c):
    """[[a I, c Z], [c Z, b I]]: a standard-form covariance, or with
    (w1, w1, w2) the Williamson map; arrays a, b, c of shape (...) give a
    (..., 4, 4) stack."""
    m = np.zeros(np.shape(a) + (4, 4))
    m[..., 0, 0] = m[..., 1, 1] = a
    m[..., 2, 2] = m[..., 3, 3] = b
    m[..., 0, 2] = m[..., 2, 0] = c
    m[..., 1, 3] = m[..., 3, 1] = -c
    return m


def make_tmsv(nbar):
    """Two-mode squeezed vacuum purifying a thermal state of `nbar` photons.

    The covariance matrix is [[nu I, s Z], [s Z, nu I]] with nu = 2 nbar + 1
    and s = 2 sqrt(nbar^2 + nbar) = sqrt(nu^2 - 1).
    """
    if not 0 <= nbar < math.inf:
        raise ValueError(f"mean photon number must be finite and >= 0, got {nbar}")
    nu = 2 * nbar + 1
    return GaussianState(
        mean=np.zeros(4),
        cov=StandardTwoModeCov(a=nu, b=nu, c=math.sqrt(nu * nu - 1)).as_matrix(),
    )


def symplectic_eigenvalues(cov):
    """Symplectic spectrum of a physical covariance matrix.

    The eigenvalues of i Omega cov come in +/- pairs; their magnitudes are
    sorted in decreasing order and every other one kept.  Adjacent pair
    members must agree to 1e-8 relative.

    A covariance is physical (cov + i Omega >= 0) exactly when it is
    positive definite and every symplectic eigenvalue is >= 1, so the
    spectrum itself decides physicality, after a Cholesky test for
    positive definiteness.

    Returns:
        array[float]: N symplectic eigenvalues, decreasing, each >= 1 - 1e-9.
    """
    cov = _check_symmetric(cov)
    if cov.ndim != 2:
        raise ValueError(f"covariance matrix must be square 2N x 2N, got {cov.shape}")
    try:
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise ValueError("unphysical covariance matrix: not positive definite") from None
    n = cov.shape[0] // 2
    mags = np.sort(np.abs(np.linalg.eigvals(1j * omega(n) @ cov)))[::-1]
    pair_gap = np.abs(mags[0::2] - mags[1::2]) / np.maximum(mags[0::2], 1.0)
    require_at_most(pair_gap.max(), 1e-8, "symplectic eigenvalues did not pair up: relative gap {:.3e}")
    nus = mags[0::2]
    require_at_least(nus[-1], 1 - PHYSICALITY_ATOL,
                     "unphysical covariance matrix: symplectic eigenvalue {:.12g} below 1")
    return nus


def standard_symplectic_spectrum(std):
    """Closed-form symplectic eigenvalues of a standard-form covariance.

    nu_{1,2} = [sqrt((a+b)^2 - 4c^2) +/- (b - a)] / 2, so nu1 is the larger
    eigenvalue whenever b >= a.
    """
    return _physical_standard_spectrum(std.a, std.b, std.c)


def _physical_standard_spectrum(a, b, c):
    """`standard_symplectic_spectrum` of [[a I, c Z], [c Z, b I]] after the
    checks of `StandardTwoModeCov`: finite entries, a, b >= 1 and both
    symplectic eigenvalues >= 1, each to `PHYSICALITY_ATOL`.

    The larger eigenvalue is taken as (root + |b - a|) / 2 and the smaller
    as (ab - c^2) / larger, since their product is ab - c^2: the difference
    (root - |b - a|) / 2 cancels when |b - a| >> 1, as Bob's variance makes
    it in `bounds.eb_qpsk_entropy` at large nbar.  Squares are taken
    as products, so an (a + b)^2 past the largest double raises the named
    "beyond double precision" error, not OverflowError."""
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c)):
        name = next(name for name, value in zip("abc", (a, b, c)) if not math.isfinite(value))
        raise ValueError(f"standard-form entry {name} is not finite")
    require_at_least(min(a, b), 1 - PHYSICALITY_ATOL, "standard form needs a, b >= 1, got a={1}, b={2}", a, b)
    total = (a + b) * (a + b)
    if total == math.inf:
        raise ValueError(f"standard form beyond double precision: (a+b)^2 is not finite, a={a}, b={b}")
    disc = total - 4 * (c * c)
    if not disc > 0:
        raise ValueError(f"unphysical standard form: (a+b)^2 - 4c^2 = {disc:.3e} must be positive")
    # With a, b >= 1, cov + i Omega >= 0 exactly when both symplectic
    # eigenvalues are >= 1, so the closed-form spectrum decides it.
    larger = (math.sqrt(disc) + abs(b - a)) / 2
    smaller = (a * b - c * c) / larger
    require_at_least(smaller, 1 - PHYSICALITY_ATOL,
                     "unphysical standard form: symplectic eigenvalue {:.12g} below 1")
    return (larger, smaller) if b >= a else (smaller, larger)


def williamson_standard_two_mode(std):
    """Thermal decomposition of a standard-form two-mode covariance.

    Returns (map, nu1, nu2) where map.s = [[w1 I, w2 Z], [w2 Z, w1 I]] with
    w_{1,2} = sqrt((a+b) / (2 root) +/- 1/2), root = sqrt((a+b)^2 - 4 c^2),
    so w1^2 - w2^2 = 1; w2 carries the sign of c.  w2^2 is taken as
    2 c^2 / (root (a + b + root)), which equals (a + b - root) / (2 root)
    without its cancellation when c is small.  nu1, nu2 come from
    `standard_symplectic_spectrum`.

    The diagonal form pairs nu2 with the first mode:
    S diag(nu2, nu2, nu1, nu1) S^T reconstructs the input.  (Pairing nu1
    with the first mode reconstructs the mode-swapped matrix instead; only
    this assignment returns the input.)  For c < 0 the sign is carried by
    the w2 entries of S.

    Raises:
        ValueError: if (a+b)^2 - 4c^2 <= 0.
    """
    nu1, nu2 = standard_symplectic_spectrum(std)
    total = std.a + std.b
    root = math.sqrt(total**2 - 4 * std.c**2)
    w1 = math.sqrt(total / (2 * root) + 0.5)
    w2 = math.copysign(math.sqrt(2 * std.c**2 / (root * (total + root))), std.c)
    return SymplecticMap(s=_standard_block(w1, w1, w2)), nu1, nu2


def _log(base):
    """The log of `base`; each entropy function calls this first, so a pure
    state or an invalid input rejects a bad base too."""
    if base not in LOG_BASES:
        raise ValueError(f"log base must be 'bits' or 'nats', got {base!r}")
    return np.log2 if base == "bits" else np.log


def thermal_entropy(nbar, base="bits"):
    """g(nbar) = (nbar+1) log(nbar+1) - nbar log(nbar), the entropy of a
    thermal state with mean photon number nbar; g(0) = 0.  It is taken as
    log1p(nbar) + nbar log1p(1/nbar) nats, whose terms do not cancel.
    Raises ValueError for an nbar that is negative or not finite."""
    _log(base)
    if not 0 <= nbar < math.inf:
        raise ValueError(f"mean photon number must be finite and >= 0, got {nbar}")
    return float(_thermal_entropy(nbar, math.log(2) if base == "bits" else 1.0))


def _thermal_entropy(nbar, unit):
    """`thermal_entropy` in nats / `unit`, with no check of the base."""
    if nbar < 1e-12:
        return 0.0
    return (math.log1p(nbar) + nbar * math.log1p(1 / nbar)) / unit


def symplectic_entropy(nus, base="bits"):
    """Sum of g((nu_k - 1)/2) over a symplectic spectrum, the entropy of its
    Gaussian state; a nu_k below 1 by rounding counts as 1 (its thermal
    photon number is below 0, which `_thermal_entropy` takes as 0)."""
    _log(base)
    unit = math.log(2) if base == "bits" else 1.0
    total = 0.0
    for nu in nus:
        total += _thermal_entropy((nu - 1.0) / 2, unit)
    return float(total)


def spectrum_entropy(spectra, base="bits"):
    """-sum lambda log lambda over the last axis of a density or Gram
    spectrum: a float for one spectrum, an array of shape (...,) for a
    (..., n) stack.  Eigenvalues <= `EIGENVALUE_SKIP` count as 1, whose
    term is 0; a NaN is not skipped, so its row's entropy is NaN.  A pure
    state's eigenvalue can come out as 1 + 4e-16, so each row's sum is
    floored at 0.0 on its own (never -0.0), and a pure row's overshoot is
    never netted against a mixed one.  numpy adds fewer than 8 terms in
    order, so for n < 8 a skipped term adds an exact 0; longer rows are
    summed pairwise."""
    log = _log(base)
    kept = np.where(spectra <= EIGENVALUE_SKIP, 1.0, spectra)
    rows = np.maximum(-(kept * log(kept)).sum(axis=-1), 0.0) + 0.0
    return float(rows) if rows.ndim == 0 else rows


def entropy_from_cov(cov, base="bits"):
    """Von Neumann entropy, in `base` units, of the Gaussian state with
    physical covariance `cov`: `symplectic_entropy` of its
    `symplectic_eigenvalues`."""
    _log(base)
    return symplectic_entropy(symplectic_eigenvalues(cov), base)


def apply_symplectic(state, smap):
    """Transform a Gaussian state by an affine symplectic map; stacks of
    states and of maps broadcast against each other."""
    if smap.nmodes != state.nmodes:
        raise ValueError(
            f"mode mismatch: map acts on {smap.nmodes} modes, state has {state.nmodes}"
        )
    return GaussianState(
        mean=(smap.s @ state.mean[..., None])[..., 0] + smap.d,
        cov=smap.s @ state.cov @ smap.s.swapaxes(-1, -2),
    )


def partial_trace_modes(state, keep):
    """Restrict a Gaussian state, or each state of a stack, to the modes
    listed in `keep` (0-based)."""
    keep = sorted(set(int(k) for k in keep))
    if not keep:
        raise ValueError("must keep at least one mode")
    if keep[0] < 0 or keep[-1] >= state.nmodes:
        raise ValueError(f"mode indices {keep} out of range for {state.nmodes}-mode state")
    idx = np.array([2 * k + o for k in keep for o in (0, 1)])
    return GaussianState(mean=state.mean[..., idx], cov=state.cov[..., idx[:, None], idx])


def average_covariance(means, probs, common_cov):
    """Covariance of a mixture of equal-covariance Gaussian states.

    The mixture covariance is the shared covariance plus the second central
    moment of the displacement vectors:
    common_cov + sum_k p_k (m_k - mbar)(m_k - mbar)^T.  Leading axes of
    `means` and `common_cov` are cells, each its own mixture over the same
    probabilities.

    Args:
        means (array[float]): K x 2N matrix of mean vectors, or a
            (..., K, 2N) stack of them.
        probs (array[float]): K probabilities, checked by
            `linalg.require_distribution`.
        common_cov (array[float]): shared 2N x 2N covariance, or a
            (..., 2N, 2N) stack matching the means.
    """
    means = np.atleast_2d(np.asarray(means, dtype=float))
    probs = np.asarray(probs, dtype=float)
    require_distribution(probs)
    if means.shape[-2] != probs.size:
        raise ValueError("number of means and probabilities differ")
    common_cov = np.asarray(common_cov, dtype=float)
    if means.shape[-1] != common_cov.shape[-1]:
        raise ValueError("mean dimension does not match covariance size")
    mbar = probs @ means
    centered = means - mbar[..., None, :]
    spread = (centered * probs[:, np.newaxis]).swapaxes(-1, -2) @ centered
    return common_cov + spread

"""Entangling-cloner eavesdropping model for a thermal-loss channel.

The eavesdropper replaces a channel of transmittance tau and thermal photon
number nbar by a beam splitter of the same transmittance fed with one arm
of a two-mode squeezed vacuum chosen so the channel statistics are
unchanged.  She keeps the second beam-splitter output and the retained
squeezed-vacuum arm.  Conditioned on the sender's coherent amplitude her
two-mode state is Gaussian with an amplitude-independent covariance, so it
reduces to a fixed Gaussian unitary acting on a displaced pair of thermal
modes; only the displacement carries the signal.

The ensemble, `DisplacedThermalEnsemble`, is one constellation plus the
channel cells it is sent through.  It, `initial_covariance` and
`bs_symplectic` take one `ChannelParams` or a sequence of them.  A
sequence gives one ensemble for all the cells at once, whose views carry
a leading cell axis, and (cells, 6, 6) stacks of initial covariances and
beam splitters.

`_rotation_orbits` finds a constellation's rotation symmetry and one
amplitude per orbit; the Fock oracle (`fock.eve_exact_entropy`) takes its
entropy from those representatives alone.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .linalg import max_abs, require_distribution, require_finite
from .states import (
    StandardTwoModeCov,
    SymplecticMap,
    _standard_block,
    average_covariance,
)

__all__ = [
    "ChannelParams",
    "Constellation",
    "DisplacedThermalEnsemble",
    "qpsk",
    "initial_covariance",
    "bs_symplectic",
    "eve_reduced_covariance",
    "eve_thermal_weights",
    "displaced_thermal_ensemble",
]


@dataclass(frozen=True)
class ChannelParams:
    """Thermal-loss channel: transmittance tau in [0, 1], finite nbar >= 0."""

    tau: float
    nbar: float

    def __post_init__(self):
        if not 0 <= self.tau <= 1:
            raise ValueError(f"transmittance must lie in [0, 1], got {self.tau}")
        if not 0 <= self.nbar < math.inf:
            raise ValueError(f"thermal photon number must be finite and >= 0, got {self.nbar}")

    @property
    def t(self):
        return math.sqrt(self.tau)

    @property
    def r(self):
        return math.sqrt(1 - self.tau)


@dataclass(frozen=True)
class Constellation:
    """Discrete coherent-state ensemble: amplitudes with probabilities."""

    amplitudes: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "amplitudes", np.atleast_1d(np.asarray(self.amplitudes, dtype=complex)))
        object.__setattr__(self, "probs", np.atleast_1d(np.asarray(self.probs, dtype=float)))
        if self.amplitudes.size != self.probs.size:
            raise ValueError("need one probability per amplitude")
        require_finite(self.amplitudes, "amplitudes")
        require_distribution(self.probs)


# The unit phases exp(i (2k - 1) pi / 4), k = 1..4, of `qpsk`; read-only.
QPSK_PHASES = np.exp(1j * (2 * np.arange(1, 5) - 1) * np.pi / 4)
QPSK_PHASES.flags.writeable = False


def qpsk(alpha):
    """Four equiprobable coherent states alpha * exp(i (2k - 1) pi / 4)."""
    if alpha <= 0:
        raise ValueError(f"amplitude must be positive, got {alpha}")
    return Constellation(amplitudes=alpha * QPSK_PHASES, probs=np.full(4, 0.25))


def _read_only(constellation):
    """A copy of a constellation with read-only arrays, not validated again."""
    copy = object.__new__(Constellation)
    for name in ("amplitudes", "probs"):
        array = getattr(constellation, name).copy()
        array.flags.writeable = False
        object.__setattr__(copy, name, array)
    return copy


# `_rotation_orbits` pairs an amplitude's rotated image with an amplitude
# that lies within this of it, relative to max(1, max |alpha|).
SYMMETRY_RTOL = 1e-12


def _rotation_orbits(constellation):
    """(K, representatives): the rotation order of a constellation and one
    amplitude per orbit.

    K is the largest divisor of the number of amplitudes such that rotating
    every amplitude by 2 pi / K lands, within `SYMMETRY_RTOL`
    max(1, max |alpha|), on an amplitude of exactly the same probability,
    with every orbit of that rotation K amplitudes long (an amplitude at
    the origin is its own image, so it leaves K = 1).  The representatives
    are the lowest-indexed amplitude of each orbit, weighted by K p, as a
    `Constellation` with read-only arrays.  With K = 1 it is the
    constellation itself.

    The result depends only on the amplitudes and probabilities, so it is
    cached by their bytes (`_orbits_by_value`), not by the object: a scan
    builds an equal constellation for every cell, and a constellation
    changed in place gets the orbits of its new values.
    """
    order, representatives = _orbits_by_value(
        constellation.amplitudes.tobytes(), constellation.probs.tobytes()
    )
    return order, (representatives if order > 1 else constellation)


@lru_cache(maxsize=32)
def _orbits_by_value(amplitudes, probs):
    """`_rotation_orbits` of the amplitudes and probabilities given as the
    bytes of their complex and float arrays; (1, None) with no symmetry."""
    amps, probs = np.frombuffer(amplitudes, dtype=complex), np.frombuffer(probs)
    n = amps.size
    # Distances are taken between amplitudes scaled to at most 1, so that
    # amplitudes near the largest double do not overflow a difference.
    unit = amps / max(1.0, float(np.abs(amps).max()))
    for order in range(n, 1, -1):
        if n % order:
            continue
        dist = np.abs(unit[:, None] * np.exp(2j * math.pi / order) - unit)
        image = dist.argmin(axis=1)
        if dist[np.arange(n), image].max() > SYMMETRY_RTOL or not np.array_equal(probs[image], probs):
            continue
        # walk[j] is the index of each amplitude's j-th image.  If the K-th
        # image is the amplitude itself, `image` is a permutation whose
        # cycles divide K, and there are n / K of them only if each has K
        # members; each cycle is represented by its lowest index.
        walk = [np.arange(n)]
        for _ in range(order):
            walk.append(image[walk[-1]])
        reps = np.flatnonzero(np.min(walk[:-1], axis=0) == walk[0])
        if np.array_equal(walk[-1], walk[0]) and reps.size * order == n:
            return order, _read_only(Constellation(amplitudes=amps[reps], probs=order * probs[reps]))
    return 1, None


# An ensemble's means must stay below this in magnitude.  `bounds.gram_matrix`
# sums |b - a|^2 over both modes and `average_covariance` the spread of the
# means; each is at most 4 max |mean|^2, which this keeps below 4e306, under
# the largest double (1.8e308), so neither overflows in numpy.
MEAN_LIMIT = 1e153


@dataclass(frozen=True)
class DisplacedThermalEnsemble:
    """Equal-covariance displaced two-mode thermal ensemble: a
    constellation sent through one `ChannelParams` or a sequence of them.

    Member k is displaced by (-w1 r alpha_k, w2 r conj(alpha_k)).  nu1p is
    the thermal photon number (nu1 - 1)/2 of the larger symplectic
    eigenvalue of the eavesdropper covariance.  The other eigenvalue is 1,
    so mode 1 (the beam-splitter output she keeps) is pure by construction,
    and mode 2 (the retained squeezed-vacuum arm) is thermal with nu1p.
    That pairing is the one whose transformed moments match the Fock-space
    reference.

    The build takes nu1p and `scales` = (-w1 r, w2 r) per cell
    (`eve_thermal_weights`) and checks the means (twice the parts of the
    displacements) once, as max |scale| max |part of alpha| < MEAN_LIMIT / 2,
    with no overflowing product.  It keeps its own read-only copy of the
    constellation.  `probs`, `means` (K x 4), `mode_amplitudes()`,
    `common_covariance()` and `average_covariance()` derive from them; for
    a sequence of cells, nu1p, `scales` and every view lead with a cell axis.
    """

    constellation: Constellation
    cells: object
    nu1p: object = field(init=False)
    scales: np.ndarray = field(init=False)

    def __post_init__(self):
        cells = self.cells if isinstance(self.cells, ChannelParams) else tuple(self.cells)
        constellation = _read_only(self.constellation)
        tau, nbar = _tau_nbar(cells)
        w1, w2, nu1p = _thermal_weights(tau, nbar)
        r = np.sqrt(1 - tau)
        scales = np.stack([-w1 * r, w2 * r], axis=-1)
        largest = max_abs(scales) * max_abs(constellation.amplitudes.view(float))
        if not largest < MEAN_LIMIT / 2:  # so NaN is caught too
            require_finite(constellation.amplitudes, "ensemble means")
            raise ValueError(
                f"ensemble means beyond double precision: max |mean| = {2 * largest:.3e}, "
                f"the limit is {MEAN_LIMIT:.0e}"
            )
        for name, value in dict(constellation=constellation, cells=cells, nu1p=nu1p, scales=scales).items():
            object.__setattr__(self, name, value)

    @property
    def probs(self):
        """The constellation's K probabilities, read-only."""
        return self.constellation.probs

    @property
    def means(self):
        """K x 4 means per cell, twice the parts of `mode_amplitudes()`."""
        return 2 * self.mode_amplitudes().view(float)

    def common_covariance(self):
        """Shared covariance diag(1, 1, nu1, nu1) of the ensemble, per cell."""
        nu1 = 2 * self.nu1p + 1
        cov = np.zeros(np.shape(self.nu1p) + (4, 4))
        cov[..., 0, 0] = cov[..., 1, 1] = 1.0
        cov[..., 2, 2] = cov[..., 3, 3] = nu1
        return cov

    def average_covariance(self):
        """4x4 covariance of the ensemble's average state, per cell: the
        common covariance plus the spread of the means."""
        return average_covariance(self.means, self.probs, self.common_covariance())

    def mode_amplitudes(self):
        """K x 2 complex displacement amplitudes per cell, one column per mode."""
        amps = self.scales[..., None, :] * self.constellation.amplitudes[:, None]
        # s2 conj(alpha) as conj(s2 alpha), s2 being real
        np.conjugate(amps[..., 1], out=amps[..., 1])
        return amps


def _tau_nbar(params):
    """(tau, nbar) of one `ChannelParams` as floats, or of a sequence of
    them as arrays of shape (cells,)."""
    if isinstance(params, ChannelParams):
        return params.tau, params.nbar
    return np.array([(p.tau, p.nbar) for p in params]).T


def initial_covariance(params):
    """6x6 covariance of sender mode (x) two-mode squeezed vacuum, in mode
    order (A, C, E): identity block for the coherent signal, TMSV block
    [[nu I, s Z], [s Z, nu I]] for the eavesdropper ancilla, with
    nu = 2 nbar + 1 and s = sqrt(nu^2 - 1) as in `states.make_tmsv`.  A
    sequence of cells gives a (cells, 6, 6) stack.  The matrix is not
    validated here; a `GaussianState` built from it is."""
    nu = 2 * np.asarray(_tau_nbar(params)[1]) + 1
    cov = np.zeros(nu.shape + (6, 6))
    cov[..., :2, :2] = np.eye(2)
    cov[..., 2:, 2:] = _standard_block(nu, nu, np.sqrt(nu * nu - 1))
    return cov


def bs_symplectic(params):
    """Beam splitter on modes (A, C), identity on E.

    First output t A + r C, second output -r A + t C, with t = sqrt(tau)
    and r = sqrt(1 - tau).  A sequence of cells gives one `SymplecticMap`
    of a (cells, 6, 6) stack.
    """
    tau = np.asarray(_tau_nbar(params)[0])
    t, r = (np.sqrt(v)[..., None, None] * np.eye(2) for v in (tau, 1 - tau))
    s = np.zeros(tau.shape + (6, 6))
    s[..., 0:2, 0:2] = s[..., 2:4, 2:4] = t
    s[..., 0:2, 2:4] = r
    s[..., 2:4, 0:2] = -r
    s[..., 4:, 4:] = np.eye(2)
    return SymplecticMap(s=s)


def eve_reduced_covariance(params):
    """Eavesdropper covariance after tracing out the receiver mode.

    Standard form with a = 2 tau nbar + 1, b = 2 nbar + 1,
    c = 2 sqrt(tau) sqrt(nbar^2 + nbar); equal to the
    initial-covariance -> beam-splitter -> partial-trace pipeline.
    """
    return StandardTwoModeCov(
        a=2 * params.tau * params.nbar + 1,
        b=2 * params.nbar + 1,
        c=2 * params.t * math.sqrt(params.nbar * params.nbar + params.nbar),
    )


def eve_thermal_weights(params):
    """(w1, w2, nu1p) of the eavesdropper's covariance in closed form: the
    entries of its thermal decomposition S = [[w1 I, w2 Z], [w2 Z, w1 I]]
    and the thermal photon number of its larger symplectic eigenvalue.

    The cloner's global state is pure and the receiver holds one mode, so
    her symplectic spectrum is {1 + 2 (1 - tau) nbar, 1}.  With
    s = 1 + (1 - tau) nbar, w1^2 = (1 + nbar) / s, w2^2 = tau nbar / s and
    nu1p = (1 - tau) nbar.  None of these cancels, whereas the general
    `states.williamson_standard_two_mode` of `eve_reduced_covariance` takes
    nu2 as a difference of numbers near 2 nbar: at (tau, nbar) = (0.4, 1e6)
    it gives 0.99999999980.  `checks.check_williamson_grid` compares the
    two.
    """
    return _thermal_weights(params.tau, params.nbar)


def _thermal_weights(tau, nbar):
    """`eve_thermal_weights` of floats, or of arrays for a stack: + - * /
    and `np.sqrt` are correctly rounded, so an array's entries equal the
    floats' bit for bit."""
    s = 1 + (1 - tau) * nbar
    return np.sqrt((1 + nbar) / s), np.sqrt(tau * nbar / s), (1 - tau) * nbar


def displaced_thermal_ensemble(constellation, params):
    """Reduce the eavesdropper's conditional states to displaced thermals.

    The thermal decomposition S = [[w1 I, w2 Z], [w2 Z, w1 I]] of her
    covariance supplies the fixed Gaussian unitary.  Pulling the conditional
    displacement (-r alpha_i, 0) through its Bloch-Messiah
    rotation-squeezer-rotation circuit leaves the displacement
    (-w1 r alpha_i, w2 r conj(alpha_i)) on a pair of thermal modes, an
    ensemble with the same entropy as her true average state.  The
    displacement is taken in that closed form from the entries w1, w2 of S
    (`eve_thermal_weights`), so no `SymplecticMap` is built or
    re-validated; `checks.check_williamson_grid` verifies the map and
    `checks.check_eca_pipeline` rebuilds the displacement through the
    circuit.

    `params` is one `ChannelParams`, or a sequence of them for a stack of
    ensembles with a leading cell axis (`DisplacedThermalEnsemble`).
    """
    return DisplacedThermalEnsemble(constellation, params)

"""Brute-force reference calculations in a truncated Fock space.

Dense simulation at desk scale, used to validate the phase-space
pipeline: moment extraction, operator-reordering identities and exact
ensemble entropies of the eavesdropper state.  The module also holds
`eb_z4`, the cross moment of the purification of a four-state coherent
ensemble; it is computed in closed form from the mod-4 photon-number
classes, and the tests check it against the purification built in a
truncated Fock space.

States are plain arrays at an explicit cutoff: `coherent_ket` and
`tmsv_ket` return a ket with the trace lost to truncation, and
`fock_thermal` and `fock_tmsv` return a density matrix, or raise
FockConvergenceError if more than `DEFICIT_LIMIT` is lost.  Unitaries are
exponentials of the truncated anti-Hermitian generator, so they stay
exactly unitary; truncation error shows up as population reaching the top
of the photon ladder, which is what the leakage checks measure.

The oracle works in real arithmetic.  The beam splitter
exp(theta (a^dag b - a b^dag)) has a real antisymmetric generator, so its
Fock matrix is real orthogonal.  It conserves the total photon number N of
its two modes, and its generator is -i theta H_N in sector N with a
tridiagonal H_N that does not depend on tau; `_bs_sectors` diagonalizes
each H_N once per cutoff as a real symmetric block and caches the real
eigenvectors, the 2 cutoff + 1 sectors packed into cutoff + 1 blocks of
cutoff + 1 states (sectors N and N + cutoff + 1 share a block), so a beam
splitter at a new tau costs one cosine and one sine per eigenvalue and one
real stacked product.  The oracle never forms the dense unitary: the TMSV
input is diagonal, |e>_C |e>_E, so each input state lies in one sector and
each output amplitude is a single product, which `_eve_factor` scatters
for all amplitudes at once through a layout cached per cutoff and
rotation order (`_eve_layout`).  A coherent ket's phase is linear in the
photon number, exp(i n arg alpha), so it splits into a row phase and a
column phase of the eavesdropper's factor, and neither changes the
spectrum of a Gram block as long as every simulated amplitude has the
same arg alpha: the factor is built from the real ket of |alpha|, and
only representatives of different phases take their relative column
phases, which makes the Gram blocks complex.  The eavesdropper's entropy
is taken from pure-state amplitudes: her average state rho = M^T conj(M)
has the same nonzero spectrum as the much smaller Gram matrix
conj(M) M^T, so rho itself is never formed.  The oracle also
reduces by the constellation's rotation symmetry (`_rotation_orbits`; the
argument is in `eve_exact_entropy`): for QPSK at cutoff 18 it takes four
real 19 x 19 Gram blocks, formed by one stacked product and diagonalized
by one stacked `eigvalsh`, in place of one complex 76 x 76 Gram matrix.

The `--check` switching-rule probes exponentiate two of their three
generator kinds from exact structure on the truncated space.  The two
single-mode displacement generators commute even when truncated, so
`apply_displacement` is a tensor product of two (cutoff+1)-level
exponentials.  A rotation exp(i a^dag phi a) keeps the total photon number
fixed, so `apply_rotation` exponentiates one tridiagonal sector block at a
time.  Every sector block, the beam splitter's included, is diagonalized
by `_tridiagonal_eigh`: one real `eigh` and a diagonal phase similarity.
The beam splitter is the rotation at phi = theta [[0, -i], [i, 0]], and the
dense `fock_bs` is `apply_rotation` of every basis ket, an uncached route
the tests check the oracle's blocks against.  Squeezers mix the sectors:
`squeeze_generator` returns the ladder weights of their Hermitian
generator, and `apply_generator` exponentiates it by a Chebyshev
expansion, in which the generator acts as six shifted slice products on
flat kets and no sparse matrix is formed.

The module keeps only what the oracle and `--check` call, and it runs on
numpy alone.  The sparse operators and generators, scipy's
`expm_multiply` and the dense exponential that the structured and
Chebyshev exponentials are checked against live with the tests
(`tests/reference.py`).
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .cloner import Constellation
from .states import _log, spectrum_entropy

__all__ = [
    "FockSpace",
    "FockConvergenceError",
    "OracleEntropy",
    "fock_thermal",
    "fock_tmsv",
    "fock_bs",
    "fock_partial_trace",
    "fock_entropy",
    "eve_exact_entropy",
    "eb_z4",
]

# Truncation leakage above this disqualifies a value as a reference.
DEFICIT_LIMIT = 1e-6
# The oracle recomputes its entropy `SWEEP_STEP` levels below the cutoff
# and counts it as converged only if the two values differ by less than
# `DRIFT_LIMIT`.
DRIFT_LIMIT = 1e-4
SWEEP_STEP = 5


class FockConvergenceError(RuntimeError):
    """Raised when a truncated computation fails its convergence check."""


@dataclass(frozen=True)
class FockSpace:
    """Truncated tensor-product Fock space: `cutoff`+1 levels per mode."""

    cutoff: int
    nmodes: int = 1

    def __post_init__(self):
        if self.cutoff < 1:
            raise ValueError(f"cutoff must be >= 1, got {self.cutoff}")
        if self.nmodes < 1:
            raise ValueError(f"nmodes must be >= 1, got {self.nmodes}")

    @property
    def ldim(self):
        return self.cutoff + 1

    @property
    def dim(self):
        return self.ldim**self.nmodes


def _normalized(c):
    """(c / |c|, 1 - |c|^2); c unscaled, deficit 1, if its squares all
    underflow."""
    norm2 = float(np.vdot(c, c).real)
    return (c / math.sqrt(norm2) if norm2 > 0 else c), 1.0 - norm2


def coherent_ket(alpha, cutoff):
    """(ket, deficit) for |alpha> truncated at `cutoff` photons; deficit 1
    where the amplitudes underflow (|alpha| >~ 27 at cutoff 18)."""
    alpha = complex(alpha)
    c = np.zeros(cutoff + 1, dtype=complex)
    c[0] = math.exp(-0.5 * abs(alpha) ** 2)
    for n in range(1, cutoff + 1):
        c[n] = c[n - 1] * alpha / math.sqrt(n)
    return _normalized(c)


def tmsv_ket(nbar, cutoff):
    """(ket, deficit) for a two-mode squeezed vacuum, Schmidt coefficients
    sqrt(1 - lam^2) lam^n with lam = tanh(arccosh(2 nbar + 1) / 2).

    The coefficients are taken with a uniform positive sign, which makes
    the q-q correlation of the two arms positive, matching the phase-space
    convention used for the covariance matrices in this package.  The
    deficit is 1 once 1 - lam^2 rounds to 0 (nbar >~ 1e17).
    """
    if not 0 <= nbar < math.inf:
        raise ValueError(f"mean photon number must be finite and >= 0, got {nbar}")
    nu = 2 * nbar + 1
    lam = math.tanh(0.5 * math.acosh(nu))
    d = cutoff + 1
    c = math.sqrt(max(1 - lam * lam, 0.0)) * lam ** np.arange(d) if lam > 0 else np.eye(1, d, 0)[0]
    psi = np.zeros((d, d))
    psi[np.arange(d), np.arange(d)] = c
    ket, deficit = _normalized(psi.reshape(-1))
    return ket.astype(complex), deficit


def fock_thermal(nbar, cutoff):
    """Density matrix of the thermal state with mean photon number `nbar`,
    truncated at `cutoff` photons and renormalized."""
    if not 0 <= nbar < math.inf:
        raise ValueError(f"mean photon number must be finite and >= 0, got {nbar}")
    n = np.arange(cutoff + 1)
    p = (1.0 / (1.0 + nbar)) * (nbar / (1.0 + nbar)) ** n if nbar > 0 else np.eye(1, cutoff + 1, 0)[0]
    _require_deficit(1.0 - float(p.sum()), f"thermal nbar={nbar}")
    return np.diag(p / p.sum())


def fock_tmsv(nbar, cutoff):
    """Density matrix of the two-mode squeezed vacuum, truncated at `cutoff`
    photons per mode."""
    ket, deficit = tmsv_ket(nbar, cutoff)
    _require_deficit(deficit, f"tmsv nbar={nbar}")
    return np.outer(ket, ket.conj())


def _require_deficit(deficit, what):
    if deficit > DEFICIT_LIMIT:
        raise FockConvergenceError(
            f"truncation leakage {deficit:.3e} > {DEFICIT_LIMIT:.0e} for {what}; raise the cutoff"
        )


class SqueezeGenerator(NamedTuple):
    """The Hermitian generator H of a two-mode squeezer, S(z) = exp(-i H),
    as the weights of its three raising terms on a (d, d) ket grid
    K[n0, n1].  H also holds the three conjugate lowering terms, which
    `apply_generator` takes from the same arrays.

    mode0[n0] raises n0 by two, cross[n0, n1] raises both modes by one and
    mode1[n1] raises n1 by two; mode0 has shape (d-2, 1) and mode1 (d-2,),
    so each broadcasts over the other mode.
    """

    mode0: np.ndarray
    cross: np.ndarray
    mode1: np.ndarray

    @property
    def ldim(self):
        """Levels per mode, d = cutoff + 1."""
        return self.cross.shape[0] + 1


def squeeze_generator(space, z):
    """Generator of S(z) = exp((a^dag z a^dag - a z^dag a) / 2) on a two-mode
    space, as the weights of H = i (C - C^dag) with
    C = sum_jk z_jk a_j^dag a_k^dag / 2.

    a_j^dag a_k^dag = a_k^dag a_j^dag, so the cross term weighs
    (z_01 + z_10) / 2 and a z that is symmetric only to rounding still
    gives a Hermitian H.
    """
    if space.nmodes != 2:
        raise ValueError(f"squeeze_generator needs two modes, got {space.nmodes}")
    z = np.asarray(z, dtype=complex)
    if z.shape != (2, 2):
        raise ValueError(f"squeezing matrix must be 2 x 2, got shape {z.shape}")
    root = np.sqrt(np.arange(1, space.ldim))  # sqrt(n + 1), n = 0 .. d-2
    pair = root[:-1] * root[1:]  # sqrt((n + 1)(n + 2)), n = 0 .. d-3
    return SqueezeGenerator(
        mode0=0.5j * z[0, 0] * pair[:, None],
        cross=0.5j * (z[0, 1] + z[1, 0]) * np.outer(root, root),
        mode1=0.5j * z[1, 1] * pair,
    )


def _ladder_terms(gen):
    """(weight, dst, src) for the six shifted products that apply H to a
    (k, d^2) stack of flat kets: out[dst] += weight * ket[src].

    On the flat index n0 d + n1 a raising term is a shift by 2d, d + 1 or
    2, so each product is one contiguous slice of every ket.  A weight
    array is indexed by the lower of the two states it links and is zero
    where a shift would run past the end of a row.  Each raising term maps
    the low end of the ket to the high one, and its conjugate maps it
    back.
    """
    d = gen.ldim
    size = d * d
    terms = []
    for weight, (s0, s1) in zip(gen, ((2, 0), (1, 1), (0, 2))):
        shift = s0 * d + s1
        grid = np.zeros((d, d), dtype=complex)
        grid[: d - s0, : d - s1] = weight
        flat = grid.reshape(-1)[: size - shift]
        high, low = (Ellipsis, slice(shift, None)), (Ellipsis, slice(None, size - shift))
        terms += [(flat, high, low), (flat.conj(), low, high)]
    return terms


# Chebyshev terms whose Bessel factor is below this are dropped; the tail
# they leave is below 1e-16 of the ket's norm.
CHEBYSHEV_FLOOR = 1e-17


def _bessel_j(x):
    """[J_0(x), J_1(x), ..., J_N(x)] for x > 0, N the last order with
    |J_N(x)| > `CHEBYSHEV_FLOOR`, by Miller's backward recurrence.

    J_{k-1} = (2k / x) J_k - J_{k+1} is run down from an order far above x,
    where J is negligible, and normalized by J_0 + 2 sum_k J_2k = 1.  The
    recurrence is stable downwards; values are rescaled before they could
    overflow (orders far above x grow fastest when x is small).
    """
    top = 2 * math.ceil((x + 12 * x ** (1 / 3) + 40) / 2)
    vals = [0.0] * (top + 2)
    vals[top] = 1.0
    for k in range(top, 0, -1):
        vals[k - 1] = 2 * k / x * vals[k] - vals[k + 1]
        if abs(vals[k - 1]) > 1e250:
            vals[k - 1 :] = [v * 1e-250 for v in vals[k - 1 :]]
    j = np.array(vals[: top + 1]) / (vals[0] + 2 * math.fsum(vals[2::2]))
    return j[: np.flatnonzero(np.abs(j) > CHEBYSHEV_FLOOR)[-1] + 1]


def apply_generator(gen, kets):
    """S(z) = exp(-i H) applied to two-mode kets (a (d^2,) ket or a
    (k, d^2) stack), for the `SqueezeGenerator` H of `squeeze_generator`.

    Chebyshev expansion on [-rho, rho] (Tal-Ezer and Kosloff, J. Chem.
    Phys. 81, 3967, 1984): exp(-i H) = J_0(rho) + 2 sum_k (-i)^k J_k(rho)
    T_k(H / rho), with rho the largest row sum of |H|, which bounds its
    spectrum.  The Bessel factors come from `_bessel_j`.  T_k(H / rho) psi
    follows the three-term recurrence T_{k+1} = 2 (H / rho) T_k - T_{k-1}
    in two buffers that take turns, and H acts by the six contiguous
    shifted products of `_ladder_terms` through one scratch stack; the
    views of both turns are made once, so no array is allocated per term.
    """
    kets = np.asarray(kets, dtype=complex)
    size = gen.ldim**2
    terms = _ladder_terms(gen)
    row_sums = np.zeros(size)
    for weight, dst, _ in terms:
        row_sums[dst] += np.abs(weight)
    rho = float(row_sums.max())
    if rho == 0.0:
        return kets.copy()
    bessel = _bessel_j(rho)
    # The recurrence is run on s_k T_k with signs s_k = +, +, -, -, ...
    # (period 4), so that each step only adds products and never negates:
    # s_{k+1} T_{k+1} = s_{k-1} T_{k-1} + (s_{k+1} / s_k) 2 (H / rho) s_k T_k.
    # The coefficient of s_k T_k is then 2 (-i)^k s_k J_k = 2 J_k, -2i J_k
    # for even and odd k.
    coeffs = 2 * bessel * np.array([1, -1j])[np.arange(bessel.size) % 2]
    start = kets.reshape(-1, size)
    out = bessel[0] * start
    # s_1 T_1 is written into the first buffer, s_2 T_2 into the second
    # (over T_0), and so on.
    bufs = (np.zeros_like(start), start.copy())
    scratch = np.empty_like(start)
    turns = [
        [(sign * 2 / rho * weight, bufs[j][dst], bufs[1 - j][src], scratch[dst])
         for weight, dst, src in terms]
        for j, sign in ((0, 1), (1, -1))
    ]
    for k, c in enumerate(coeffs[1:]):
        target = bufs[k % 2]
        for weight, dst, src, tmp in turns[k % 2]:
            np.multiply(weight, src, out=tmp)
            dst += tmp
        if k == 0:
            target *= 0.5  # T_1 = (H / rho) T_0
        np.multiply(target, c, out=scratch)
        out += scratch
    return out.reshape(kets.shape)


def _bs_angle(tau):
    if not 0 <= tau <= 1:
        raise ValueError(f"transmittance must lie in [0, 1], got {tau}")
    return math.acos(math.sqrt(tau))


def _tridiagonal_eigh(diag, sub):
    """(vals, vecs, phase): the eigenvalues of the Hermitian tridiagonal h
    with real diagonal `diag` and subdiagonal `sub` (h[k+1, k] = sub[k]),
    the real eigenvector columns V of a real symmetric t, and the phases
    of the diagonal P with h = P t P^dag, from one real `eigh`.

    P = diag(phase), phase_k = exp(i theta_k) with theta_k the running sum
    of arg(sub[:k]), and t has diagonal `diag` and off-diagonal |sub|, so
    h's eigenvector columns are P V.
    """
    off = np.abs(sub)
    t = np.diag(diag) + np.diag(off, -1) + np.diag(off, 1)
    vals, vecs = np.linalg.eigh(t)
    phase = np.exp(1j * np.concatenate(([0.0], np.cumsum(np.angle(sub)))))
    return vals, vecs, phase


def _expm_tridiagonal(diag, sub):
    """exp(-i h) = basis exp(-i vals) basis^dag for the Hermitian
    tridiagonal h of `_tridiagonal_eigh`, basis = P V."""
    vals, vecs, phase = _tridiagonal_eigh(diag, sub)
    basis = phase[:, None] * vecs
    return (basis * np.exp(-1j * vals)) @ basis.conj().T


def _displacement_factor(alpha, cutoff):
    """exp(alpha a^dag - conj(alpha) a) on one mode truncated at `cutoff`:
    exp(-i h) for the Hermitian tridiagonal generator h = i (alpha a^dag -
    conj(alpha) a)."""
    hop = np.sqrt(np.arange(1, cutoff + 1))
    return _expm_tridiagonal(np.zeros(cutoff + 1), 1j * alpha * hop)


def apply_displacement(alpha, kets, cutoff):
    """D(alpha) applied to two-mode kets (a (d^2,) ket or a (k, d^2) stack,
    d = cutoff + 1), equal to the exponential of the sparse displacement
    generator sum_k alpha_k a_k^dag - h.c.

    The two truncated single-mode generators act on different tensor
    factors and so commute exactly, so D(alpha) = D0 (x) D1, and a ket
    reshaped to (d, d) becomes D0 K D1^T.
    """
    alpha = np.asarray(alpha, dtype=complex)
    if alpha.shape != (2,):
        raise ValueError("one displacement amplitude per mode required")
    d = cutoff + 1
    kets = np.asarray(kets, dtype=complex)
    square = kets.reshape(-1, d, d)
    out = _displacement_factor(alpha[0], cutoff) @ square @ _displacement_factor(alpha[1], cutoff).T
    return out.reshape(kets.shape)


def _rotation_sector(phi, total, cutoff):
    """(states, diag, sub): the two-mode basis states n d + total - n
    (d = cutoff + 1) of the kets |n, total - n> of photon-number sector
    `total`, and the real diagonal and the subdiagonal of the Hermitian
    tridiagonal block h of -a^dag phi a there, so that
    R(phi) = exp(i a^dag phi a) is exp(-i h) on that sector.

    h has diagonal -(phi00 n + phi11 (total - n)) and
    <n+1, total-n-1| h |n, total-n> = -phi01 sqrt(n+1) sqrt(total-n).
    """
    n = np.arange(max(0, total - cutoff), min(total, cutoff) + 1)
    hop = np.sqrt(n[:-1] + 1) * np.sqrt(total - n[:-1])
    diag = -(phi[0, 0].real * n + phi[1, 1].real * (total - n))
    return n * (cutoff + 1) + total - n, diag, -phi[0, 1] * hop


def apply_rotation(phi, kets, cutoff):
    """R(phi) = exp(i a^dag phi a) applied to two-mode kets (a (d^2,) ket
    or a (k, d^2) stack, d = cutoff + 1), equal to the exponential of the
    sparse generator i a^dag phi a for a Hermitian 2 x 2 phi.

    R(phi) keeps the total photon number fixed, so it is exponentiated one
    sector at a time: each block of `_rotation_sector` is exponentiated
    once, by `_expm_tridiagonal`, and acts on every ket of the stack.
    """
    phi = np.asarray(phi, dtype=complex)
    d = cutoff + 1
    kets = np.asarray(kets, dtype=complex)
    flat = kets.reshape(-1, d * d)
    out = np.empty_like(flat)
    for total in range(2 * cutoff + 1):
        states, diag, sub = _rotation_sector(phi, total, cutoff)
        out[:, states] = flat[:, states] @ _expm_tridiagonal(diag, sub).T
    return out.reshape(kets.shape)


# The beam splitter exp(theta (a^dag b - a b^dag)) is R(theta _BS_PHI).
_BS_PHI = np.array([[0, -1j], [1j, 0]])


@lru_cache(maxsize=8)
def _bs_sectors(cutoff):
    """Tau-free real eigenbasis of the beam-splitter generator, its 2 cutoff + 1
    photon-number sectors packed into d = cutoff + 1 blocks of d states.

    The generator keeps the total photon number N fixed.  In sector N the
    basis is |n, N - n> with 0 <= n, N - n <= cutoff, and the generator is
    -i theta H_N with H_N the `_rotation_sector` block of `_BS_PHI`,
    tridiagonal and free of tau:
    <n+1, N-n-1| H_N |n, N-n> = i sqrt(n+1) sqrt(N-n).  Every subdiagonal
    entry has phase i, so `_tridiagonal_eigh` writes H_N = P T P^dag with
    P = diag(i^j), j the position in the sector, and diagonalizes the real
    symmetric T = V diag(vals) V^T once per cutoff.  The beam splitter's
    block is then U_jk = i^(j-k) sum_m V_jm V_km exp(-i theta vals_m).  T
    has a zero diagonal, so cos(theta T) links only states with even j - k
    and sin(theta T) only states with odd j - k, and U is real orthogonal:
    U_jk = sign_jk C_jk for even j - k and sign_jk S_jk for odd j - k, with
    C = V cos(theta vals) V^T, S = V sin(theta vals) V^T and
    sign_jk = (-1)^floor((j - k) / 2).

    Sector N < cutoff has N + 1 states and sector N + d has cutoff - N, so
    the two share block N, and sector cutoff fills block cutoff alone: the
    state |n0, n1> sits in block (n0 + n1) mod d at position n0.  Each
    sector's eigenvectors are placed on its block's diagonal, so the
    entries between the two sectors of a block are exact zeros, and C and
    S of every block come from one product of a (2, d, d, d) stack.

    Returns:
        (vecs, vecs_t, vals, index, sign, row, col): the (d, d, d) stacks of
        real block eigenvectors and their transposes, the (d, d) block
        eigenvalues, the flat index of each in-sector entry into the
        (2, d, d, d) stack of C and S blocks (into C for even j - k, into S
        for odd), its sign, and the two-mode basis states n0 d + n1 of its
        row and its column.  All arrays are read-only, since every caller
        shares them.
    """
    d = cutoff + 1
    vecs = np.zeros((d, d, d))
    vals = np.empty((d, d))
    for total in range(2 * cutoff + 1):
        states, diag, sub = _rotation_sector(_BS_PHI, total, cutoff)
        n0 = states // d
        vals[total % d, n0], vecs[total % d, n0[:, None], n0], _ = _tridiagonal_eigh(diag, sub)
    vecs_t = np.ascontiguousarray(vecs.transpose(0, 2, 1))
    block, pos = np.ogrid[:d, :d]
    labels = pos * d + (block - pos) % d
    low = pos <= block  # the lower sector of each block
    slot = np.flatnonzero(low[:, :, None] == low[:, None, :])
    _, j, k = np.unravel_index(slot, vecs.shape)
    index = slot + (j - k) % 2 * vecs.size
    sign = (-1.0) ** ((j - k) // 2)
    row = np.broadcast_to(labels[:, :, None], vecs.shape).reshape(-1)[slot]
    col = np.broadcast_to(labels[:, None, :], vecs.shape).reshape(-1)[slot]
    for arr in (vecs, vecs_t, vals, index, sign, row, col):
        arr.flags.writeable = False
    return vecs, vecs_t, vals, index, sign, row, col


def _bs_slot_values(tau, cutoff):
    """The in-sector entries of the real beam splitter
    exp(theta (a^dag b - a b^dag)), in the order of the `_bs_sectors` row
    and column labels: one stacked product of the cached blocks scaled by
    cos(theta vals) and sin(theta vals), one gather and the parity signs."""
    vecs, vecs_t, vals, index, sign, _, _ = _bs_sectors(cutoff)
    angle = _bs_angle(tau) * vals
    trig = np.array((np.cos(angle), np.sin(angle)))[:, :, None, :]
    return ((vecs * trig) @ vecs_t).take(index) * sign


def fock_bs(tau, cutoff):
    """Dense two-mode beam-splitter unitary exp(theta (a^dag b - a b^dag)),
    cos(theta) = sqrt(tau): `apply_rotation` at phi = theta `_BS_PHI`
    applied to every basis ket.  It takes no cached block, so the tests
    check the oracle's `_bs_sectors` blocks against it; the oracle itself
    never forms the dense unitary.
    """
    dim = (cutoff + 1) ** 2
    return apply_rotation(_bs_angle(tau) * _BS_PHI, np.eye(dim, dtype=complex), cutoff).T


def fock_partial_trace(rho, dims, keep):
    """Partial trace of a dense multimode density matrix.

    Args:
        rho: density matrix over a tensor product of spaces of sizes `dims`.
        dims: per-mode dimensions.
        keep: mode indices (0-based) to keep, in increasing order.
    """
    dims = tuple(int(d) for d in dims)
    keep = sorted(set(int(k) for k in keep))
    n = len(dims)
    if not keep or keep[0] < 0 or keep[-1] >= n:
        raise ValueError(f"invalid mode selection {keep} for {n} modes")
    t = np.asarray(rho).reshape(dims + dims)
    for mode in reversed([m for m in range(n) if m not in keep]):
        nleft = t.ndim // 2
        t = np.trace(t, axis1=mode, axis2=mode + nleft)
    dkeep = int(np.prod([dims[m] for m in keep]))
    return t.reshape(dkeep, dkeep)


def fock_entropy(rho, base="bits"):
    """Von Neumann entropy, `states.spectrum_entropy` of the `eigvalsh`
    spectrum (eigenvalues <= 1e-15 skipped, the sum floored at 0.0)."""
    _log(base)
    return spectrum_entropy(np.linalg.eigvalsh(rho), base)


@dataclass
class OracleEntropy:
    """Exact-entropy result with its cutoff-sweep convergence record."""

    value: float
    value_check: float
    cutoff: int
    check_cutoff: int

    @property
    def drift(self):
        return abs(self.value - self.value_check)


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
    `Constellation`.  With K = 1 it is the constellation itself.
    """
    amps, probs = constellation.amplitudes, constellation.probs
    n = amps.size
    tol = SYMMETRY_RTOL * max(1.0, float(np.abs(amps).max()))
    for order in range(n, 1, -1):
        if n % order:
            continue
        dist = np.abs(amps[:, None] * np.exp(2j * math.pi / order) - amps)
        image = dist.argmin(axis=1)
        if dist[np.arange(n), image].max() > tol or not np.array_equal(probs[image], probs):
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
            return order, Constellation(amplitudes=amps[reps], probs=order * probs[reps])
    return 1, constellation


@lru_cache(maxsize=16)
def _eve_layout(order, cutoff):
    """(dest, top, shift): where each in-sector entry of the beam splitter
    lands in the eavesdropper's factor, split into the K = `order` rotation
    classes of her columns.  d = cutoff + 1.

    The entry of `_bs_sectors` in row (b, c') and column (a, e) carries the
    factor's entry at row b and column (c', e), with a = b + c' - e.  Her
    columns fall into the classes q = (c' - e) mod K, each listed in
    increasing order of c' d + e and padded with zeros to the width of the
    largest; `dest` is the flat index of the entry in the (K, d, width)
    class blocks, and `shift` holds the (K, width) offsets c' - e of the
    class columns (0 in the padding).  `top`, 0 to 3, counts how many of b,
    c' and e sit at the top level `cutoff`, so sum top |entry|^2 is the
    population on the three top faces of the output, the leakage.
    Read-only, since every caller shares it.
    """
    d = cutoff + 1
    *_, row, col = _bs_sectors(cutoff)
    b, c = np.divmod(row, d)
    e = col % d
    offsets = np.subtract.outer(np.arange(d), np.arange(d)).reshape(-1)
    classes = offsets % order
    sizes = np.bincount(classes, minlength=order)
    rank = np.empty(d * d, dtype=int)  # each column's place in its class
    shift = np.zeros((order, sizes.max()), dtype=int)
    for q in range(order):
        members = np.flatnonzero(classes == q)
        rank[members] = np.arange(members.size)
        shift[q, : members.size] = offsets[members]
    column = c * d + e
    dest = (classes[column] * d + b) * shift.shape[1] + rank[column]
    top = np.add.reduce([b == cutoff, c == cutoff, e == cutoff], dtype=float)
    for arr in (dest, top, shift):
        arr.flags.writeable = False
    return dest, top, shift


def _eve_factor(representatives, order, params, cutoff):
    """(blocks, leak): the real factor of the eavesdropper's state for the
    R orbit representatives of `_rotation_orbits`, as an (R, K, d, width)
    stack of her K = `order` rotation-class blocks (`_eve_layout`), and
    the worst truncation leakage.

    For each amplitude alpha: coherent (x) TMSV on modes (A, C, E), beam
    splitter on (A, C), and the output tensor's rows indexed by the first
    output b, weighted by sqrt(p).  The TMSV is diagonal,
    lam_e |e>_C |e>_E, so the input |a, e, e> lies in photon-number sector
    a + e, and each output entry is one product with no sum:
    out[b, c', e] = ket[a] lam_e U[(b, c'), (a, e)], with a = b + c' - e,
    and the input weight ket[a] lam_e is read at the column label a d + e
    of the beam splitter's entry.  The coherent ket is the real ket of
    |alpha| times exp(i a arg alpha), and
    exp(i a arg alpha) = exp(i b arg alpha) exp(i (c' - e) arg alpha): a row
    phase and a column phase, which `_eve_entropy` restores only where
    they change a spectrum.  So the blocks here are built from the real
    kets and the real `_bs_slot_values`, and the leakage, which the phases
    do not change, is taken from them.
    """
    d = cutoff + 1
    dest, top, shift = _eve_layout(order, cutoff)
    col = _bs_sectors(cutoff)[-1]
    psi_ce, tmsv_deficit = tmsv_ket(params.nbar, cutoff)
    lam = psi_ce[:: d + 1].real  # the Schmidt coefficients, diagonal of the d x d ket
    kets, deficits = zip(*(coherent_ket(abs(amp), cutoff) for amp in representatives.amplitudes))
    weights = np.multiply.outer(np.array(kets).real, lam).reshape(len(kets), d * d)
    entries = weights.take(col, axis=1)
    entries *= _bs_slot_values(params.tau, cutoff)
    leaks = (entries * entries) @ top
    entries *= np.sqrt(representatives.probs)[:, None]
    blocks = np.zeros((len(kets), order * d * shift.shape[1]))
    blocks[:, dest] = entries
    worst_leak = max(tmsv_deficit, *deficits, *leaks.tolist())
    return blocks.reshape(len(kets), order, d, -1), worst_leak


def _eve_entropy(representatives, order, params, cutoff, base):
    """Eavesdropper entropy at one cutoff from the orbit representatives of
    `_rotation_orbits`: the sum, over the K = `order` rotation classes, of
    the entropy of the Gram block conj(M_q) M_q^T of the class-q columns
    M_q of the representatives' factor (`_eve_factor`).

    The row phases exp(i b arg alpha_k) of the factor are a diagonal
    unitary similarity of each Gram block, and its column phases
    exp(i (c' - e) arg alpha_k) cancel in the block when every
    representative has the same arg alpha: then the real blocks have the
    spectra of the complex ones.  Only where the representatives' phases
    differ are the relative column phases
    exp(i (c' - e) (arg alpha_k - arg alpha_0)) applied and the blocks
    formed complex.  All K Gram blocks come from one stacked product and
    one stacked `eigvalsh`; each block's spectrum goes through
    `spectrum_entropy` on its own, which keeps its floor at 0."""
    blocks, leak = _eve_factor(representatives, order, params, cutoff)
    _require_deficit(leak, f"the oracle state at cutoff {cutoff}")
    phase = np.angle(representatives.amplitudes)
    if np.any(phase != phase[0]):
        shift = _eve_layout(order, cutoff)[-1]
        blocks = blocks * np.exp(1j * np.multiply.outer(phase - phase[0], shift))[:, :, None, :]
    count, _, d, width = blocks.shape
    blocks = blocks.transpose(1, 0, 2, 3).reshape(order, count * d, width)
    spectra = np.linalg.eigvalsh(blocks.conj() @ blocks.transpose(0, 2, 1))
    return sum(spectrum_entropy(spectrum, base) for spectrum in spectra)


def eve_exact_entropy(constellation, params, cutoff=18, base="bits"):
    """Exact average-state entropy of the eavesdropper in a truncated Fock
    space.

    The state of the eavesdropper's two modes is rho = M^T conj(M), with M
    the K*d x d^2 factor of the K amplitudes (d = cutoff+1 levels) that
    `_eve_factor` builds.  Its entropy is taken from the Gram side
    conj(M) M^T, which has the same nonzero spectrum, reduced by the
    constellation's rotation symmetry (`_rotation_orbits`, amplitudes
    paired within `SYMMETRY_RTOL` = 1e-12 relative to max(1, max |alpha|)).
    Rotating an amplitude by 2 pi / K turns the eavesdropper's state into
    W rho W^dag, W = exp(2 pi i (n_C' - n_E) / K), so averaging over an orbit
    of K amplitudes pinches a representative's state onto the eigenspaces
    of W: the classes q = (c' - e) mod K of her (c', e) index.  The entropy
    of that block-diagonal state is the sum of its blocks' entropies, each
    taken from the Gram block of the representatives alone, weighted by
    K p.  For QPSK (K = 4) that is four d x d blocks, 19 x 19 at cutoff 18,
    instead of one 76 x 76; with no symmetry (K = 1) it is the single
    K*d x K*d Gram.  The leakage is taken from the representatives, which
    is exact because a rotation keeps photon numbers.

    The work is real.  The beam splitter's generator a^dag b - a b^dag is
    real and antisymmetric in the Fock basis, so its unitary is real
    orthogonal (`_bs_sectors`), and a coherent ket's phase is linear in
    the photon number, exp(i n arg alpha), so it splits into a row phase
    and a column phase of M that leave the Gram blocks' spectra unchanged
    when every representative has the same arg alpha (`_eve_entropy`).
    The K blocks are formed by one stacked product and diagonalized by one
    stacked `eigvalsh`.

    The same entropy is recomputed at cutoff - `SWEEP_STEP` (5 levels
    lower); the run only counts as converged if the two values agree
    within `DRIFT_LIMIT` = 1e-4 and the truncation leakage stays below
    `DEFICIT_LIMIT` = 1e-6, otherwise FockConvergenceError is raised and
    no value is returned.

    Returns:
        OracleEntropy: entropy in `base` units plus the sweep record.
    """
    _log(base)
    if cutoff < 7:
        raise ValueError(f"cutoff must be >= 7 to allow the convergence sweep, got {cutoff}")
    order, representatives = _rotation_orbits(constellation)
    check_cutoff = cutoff - SWEEP_STEP
    value, value_check = (
        _eve_entropy(representatives, order, params, c, base) for c in (cutoff, check_cutoff)
    )
    result = OracleEntropy(
        value=value, value_check=value_check, cutoff=cutoff, check_cutoff=check_cutoff
    )
    if result.drift >= DRIFT_LIMIT:
        raise FockConvergenceError(
            f"entropy drift {result.drift:.3e} >= {DRIFT_LIMIT:.0e} between cutoffs "
            f"{cutoff} and {check_cutoff}"
        )
    return result


# At and above this amplitude `eb_z4` takes the mod-4 class weights from
# their discrete Fourier form, which has no cancellation there: the smallest
# weight is within 2 exp(-16) of the largest.  Below it the log-space
# Poisson sums keep the small weights accurate (lambda_3 ~ alpha^6 / 6).
Z4_FOURIER_ALPHA = 4.0


@lru_cache(maxsize=128)
def eb_z4(alpha):
    """q-q cross moment of the Schmidt purification of the four-state
    coherent average state, with partner vectors conjugated in the Fock
    basis (which makes the moment nonnegative).

    The average state is diagonal in the mod-4 photon-number classes, with
    eigenvalues lambda_k = exp(-alpha^2) sum_{n = k mod 4} alpha^(2n) / n!,
    and the moment is Z4 = 2 alpha^2 sum_k lambda_k^(3/2) lambda_{k+1}^(-1/2)
    (Leverrier and Grangier, PRL 102, 180504, 2009).  Below
    `Z4_FOURIER_ALPHA` the Poisson sums and the powers are taken in log
    space, so the small weights stay accurate where the differences of cosh
    and cos (sinh and sin) cancel.  At and above it the weights come from
    the four-point Fourier sum
    lambda_k = [1 + (-1)^k e^(-2 alpha^2) + 2 Re(i^(-k) e^(alpha^2 (i - 1)))] / 4,
    whose terms past the first are below 2 exp(-16).  With x = 1 + 2 alpha^2,
    x - Z4 tends to 1; the log-space sums lose accuracy as alpha^2 eps and
    gave 1.0016 at alpha = 1000 and a negative value at 5000, while this
    form keeps it at 1 to rounding.  Cached by value.
    """
    if alpha <= 0:
        raise ValueError(f"amplitude must be positive, got {alpha}")
    a2 = float(alpha) ** 2
    if alpha >= Z4_FOURIER_ALPHA:
        c, s = math.cos(a2), math.sin(a2)
        wave = 2 * math.exp(-a2) * np.array([c, s, -c, -s])
        lam = 0.25 * (1 + np.array([1, -1, 1, -1]) * math.exp(-2 * a2) + wave)
        return 2 * a2 * float((lam**1.5 / np.sqrt(np.roll(lam, -1))).sum())
    # The sums run over the Poisson mean +- (12 standard deviations + 40
    # terms), starting at a multiple of 4; the mass left out is below 1e-25.
    reach = 12 * math.sqrt(a2) + 40
    n = np.arange(4 * max(0, math.floor((a2 - reach) / 4)), 4 * math.ceil((a2 + reach) / 4))
    log_factorials = np.fromiter(map(math.lgamma, n + 1.0), float, n.size)
    log_terms = (n * math.log(a2) - log_factorials - a2).reshape(-1, 4)
    peak = log_terms.max(axis=0)
    log_lam = peak + np.log(np.exp(log_terms - peak).sum(axis=0))
    return 2 * a2 * float(np.exp(1.5 * log_lam - 0.5 * np.roll(log_lam, -1)).sum())

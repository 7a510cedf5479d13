"""Brute-force reference calculations in a truncated Fock space: the oracle
that checks the estimators of `bounds`, which import nothing from it.

A map of the module; each argument is made once, in the docstring named.
- States (`fock_thermal`, the oracle's kets) are plain arrays at an
  explicit cutoff; losing more than `DEFICIT_LIMIT` raises
  FockConvergenceError.
- The `--check` exponentials act on two-mode kets: `apply_displacement`
  through a cached tridiagonal eigenbasis, `apply_rotation` as
  phase, cached beam splitter, phase on the complete photon-number
  sectors with an eigensolve only on the truncated ones, and
  `apply_generator` as a Chebyshev expansion of `squeeze_generator`
  weights.
- The photon-number sectors a rotation keeps are laid out in blocks
  (`_packed_sectors` for all of them, `_truncated_sectors` for the ones
  truncation cuts short) and diagonalized by one stacked eigensolve
  (`_sector_blocks`).
- The beam splitter's real eigenbasis, `_sector_blocks` of `_BS_PHI` on
  the `_packed_sectors` layout, is cached per cutoff (`_bs_basis`) and
  shared by `apply_rotation` and the oracle's gather arrays
  (`_bs_sectors`), and the dense `fock_bs` goes through `apply_rotation`.
- The oracle, `eve_exact_entropy`, takes the eavesdropper's entropy from
  the Gram side of her real factor (`_sweep_factors` argues the real
  arithmetic), reduced to one amplitude per rotation orbit
  (`cloner._rotation_orbits`; `eve_exact_entropy` argues the reduction).
  Its sweep of two cutoffs is one unit: both take their inputs from one
  run of each recurrence (`_sweep_inputs`), one layout places both
  factors and their top faces (`_sweep_layout`), and the beam splitter's
  entries at one transmittance are cached with one key per tau, both
  cutoffs in the factors' layout (`_eve_bs_values`).  The leakage is
  gated from the top faces alone (`_sweep_leaks`), before the gather of
  both factors (`_sweep_factors`).
- `fock_entropy` serves the `--check` suites.
The module runs on numpy alone; the sparse and scipy references it is
checked against live in `tests/reference.py`.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

# Kept only for the benchmark: bench/tracer.py wraps the `fock.eb_z4` span
# and bench/run.py reads `evebounds.fock.eb_z4.cache_info()`.
from .bounds import eb_z4
from .cloner import _rotation_orbits
from .linalg import require_finite, require_hermitian
from .states import _log, spectrum_entropy
from .unitaries import expm_i_hermitian

__all__ = [
    "FockConvergenceError",
    "OracleEntropy",
    "fock_thermal",
    "fock_bs",
    "fock_entropy",
    "eve_exact_entropy",
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


def _normalized(c):
    """(c / |c|, 1 - |c|^2); c unscaled, deficit 1, if its squares all
    underflow."""
    norm2 = float(np.vdot(c, c).real)
    return (c / math.sqrt(norm2) if norm2 > 0 else c), 1.0 - norm2


def fock_thermal(nbar, cutoff):
    """Density matrix of the thermal state with mean photon number `nbar`,
    truncated at `cutoff` photons and renormalized: the squared Schmidt
    coefficients of `_tmsv_schmidt`, the reduced state of its purification."""
    if not 0 <= nbar < math.inf:
        raise ValueError(f"mean photon number must be finite and >= 0, got {nbar}")
    c, deficit = _tmsv_schmidt(nbar, cutoff)
    _require_deficit(deficit, f"thermal nbar={nbar}")
    return np.diag(c * c)


def _require_deficit(deficit, what):
    if not deficit <= DEFICIT_LIMIT:
        raise FockConvergenceError(
            f"truncation leakage {deficit:.3e} > {DEFICIT_LIMIT:.0e} for {what}; raise the cutoff"
        )


def _tmsv_schmidt(nbar, cutoff):
    """(coefficients, deficit): the d = cutoff + 1 normalized Schmidt
    coefficients sqrt(1 - lam^2) lam^n of a two-mode squeezed vacuum, with
    lam = tanh(arccosh(2 nbar + 1) / 2), and the trace they lose.  nbar is
    taken as valid.

    The coefficients are taken with a uniform positive sign, which makes
    the q-q correlation of the two arms positive, matching the phase-space
    convention used for the covariance matrices in this package.  The
    deficit is 1 once 1 - lam^2 rounds to 0 (nbar >~ 1e17)."""
    return _normalized(_tmsv_series(nbar, cutoff))


def _tmsv_series(nbar, cutoff):
    lam = math.tanh(0.5 * math.acosh(2 * nbar + 1))
    d = cutoff + 1
    return math.sqrt(max(1 - lam * lam, 0.0)) * lam ** np.arange(d) if lam > 0 else np.eye(1, d)[0]


def _modulus_ket(modulus, cutoff):
    """(ket, deficit) for the coherent state |modulus> of a real amplitude,
    truncated at `cutoff` photons; deficit 1 where the amplitudes
    underflow.  It equals the real part of the complex recurrence
    c_n = c_(n-1) alpha / sqrt(n) (`coherent_ket` in `tests/reference.py`)
    bit for bit.  Both square the modulus as a product: libm's pow is not
    always correctly rounded (glibc 2.36's differs from the product in
    about 1 of 1200 random moduli), and a modulus past 1.34e154 squares to
    inf and gives a zero ket with deficit 1, where modulus**2 raises
    OverflowError.

    The recurrence runs on floats: numpy divides a complex number by the
    real sqrt(n) as a product with 1 / sqrt(n), and the imaginary parts are
    exact zeros, so c_n = c_(n-1) modulus (1 / sqrt(n)) is the complex
    recurrence.  The norm is summed over a complex copy, so it takes the
    same BLAS sum as the complex ket's."""
    ket, deficit = _normalized(_coherent_series(modulus, cutoff))
    return ket.real, deficit


def _coherent_series(modulus, cutoff):
    c = [math.exp(-0.5 * (modulus * modulus))]
    for n in range(1, cutoff + 1):
        c.append(c[-1] * modulus * (1.0 / math.sqrt(n)))
    return np.array(c, dtype=complex)


def _sweep_inputs(moduli, nbar, cutoff):
    """(kets, lam, deficits) of a sweep from `cutoff`: the kets of the R
    moduli and the Schmidt coefficients at `cutoff`, then at cutoff -
    `SWEEP_STEP`, side by side in one real (R, d + d') array and one
    (d + d' + 1,) array closed by a zero, bit for bit `_modulus_ket` and
    `_tmsv_schmidt` at each cutoff, and each cutoff's worst deficit.  Their
    outer product is the weight vector that `_sweep_layout` gathers from.

    Each builder's series runs once, at `cutoff`; its first levels are its
    series at a lower cutoff, so the check cutoff normalizes them alone.
    A ket keeps the complex norm of `_normalized` and scales its real part
    by 1 / sqrt(norm2), which is how numpy divides a complex number by a
    real one (`_modulus_ket`)."""
    coherent = [_coherent_series(m, cutoff) for m in moduli]
    schmidt = _tmsv_series(nbar, cutoff)
    levels = 2 * (cutoff + 1) - SWEEP_STEP
    kets = np.empty((len(coherent), levels))
    lam = np.zeros(levels + 1)
    deficits = []
    first = 0
    for d in (cutoff + 1, cutoff + 1 - SWEEP_STEP):
        lam[first : first + d], deficit = _normalized(schmidt[:d])
        for ket, c in zip(kets, coherent):
            norm2 = float(np.vdot(c[:d], c[:d]).real)
            np.multiply(c[:d].real, 1 / math.sqrt(norm2) if norm2 > 0 else 1.0, out=ket[first : first + d])
            deficit = max(deficit, 1.0 - norm2)
        deficits.append(deficit)
        first += d
    return kets, lam, deficits


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


def squeeze_generator(cutoff, z):
    """Generator of S(z) = exp((a^dag z a^dag - a z^dag a) / 2) on two modes
    truncated at `cutoff` photons each, as the weights of H = i (C - C^dag) with
    C = sum_jk z_jk a_j^dag a_k^dag / 2.

    a_j^dag a_k^dag = a_k^dag a_j^dag, so the cross term weighs
    (z_01 + z_10) / 2 and a z that is symmetric only to rounding still
    gives a Hermitian H.
    """
    z = np.asarray(z, dtype=complex)
    if z.shape != (2, 2):
        raise ValueError(f"squeezing matrix must be 2 x 2, got shape {z.shape}")
    root = np.sqrt(np.arange(1, cutoff + 1))  # sqrt(n + 1), n = 0 .. d-2
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


@lru_cache(maxsize=8)
def _quadrature_basis(cutoff):
    """(mu, V): the eigenvalues and real eigenvector columns of the truncated
    a + a^dag on one mode, read-only, since every caller shares them."""
    hop = np.sqrt(np.arange(1, cutoff + 1))
    basis = np.linalg.eigh(np.diag(hop, -1) + np.diag(hop, 1))
    for arr in basis:
        arr.flags.writeable = False
    return basis


def _displacement_factor(alpha, cutoff):
    """exp(alpha a^dag - conj(alpha) a) on one mode truncated at `cutoff`:
    P V exp(-i |alpha| mu) V^T P^dag, P = diag(exp(i arg(i alpha) n)), from
    the alpha-free basis (mu, V) of a + a^dag (`_quadrature_basis`), with no
    eigensolve.  At alpha = 0 it is V V^T, the identity to about 1e-15."""
    vals, vecs = _quadrature_basis(cutoff)
    basis = np.exp(1j * np.angle(1j * alpha) * np.arange(cutoff + 1))[:, None] * vecs
    return (basis * np.exp(-1j * abs(alpha) * vals)) @ basis.conj().T


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


def _sector_blocks(phi, n0, n1):
    """(vals, vecs, phase): the generator h = -a^dag phi a of
    R(phi) = exp(i a^dag phi a), for a complex 2 x 2 phi, on blocks of
    photon-number-sector states, as one stacked eigensolve of real blocks.

    Position p of block k holds the two-mode state |n0[k, p], n1[k, p]>,
    and n0 steps up by one along each sector in a block.  R(phi) keeps the
    total photon number N.  In sector N, on the kets |n0, N - n0>, h is
    tridiagonal with diagonal -(phi00 n0 + phi11 n1) and
    <n0+1, n1-1| h |n0, n1> = -phi01 sqrt(n0+1) sqrt(n1); the hop between
    two neighbours of different sectors is an exact zero.  Every hop has
    phase arg(-phi01), so h = P T P^dag with T real symmetric and
    P = diag(exp(i arg(-phi01) p)) by position, which is
    exp(i arg(-phi01) n0) up to one constant phase per sector.  One
    stacked `eigh` gives every block's T = V diag(vals) V^T.  LAPACK splits
    T at the zeros, so each eigenvector column is nonzero in one sector
    only, and any V f(vals) V^T links no two sectors: its entries between
    them are exact zeros.

    Returns:
        (vals, vecs, phase): the (blocks, w) eigenvalues, the
        (blocks, w, w) stack of real eigenvector columns V and the (w,)
        phases of P by position.
    """
    blocks, width = np.broadcast_shapes(n0.shape, n1.shape)
    t = np.zeros((blocks, width * width))
    t[:, :: width + 1] = -(phi[0, 0].real * n0 + phi[1, 1].real * n1)
    hop = abs(phi[0, 1]) * np.sqrt(n0[:, 1:] * n1[:, :-1])
    t[:, 1 :: width + 1] = t[:, width :: width + 1] = np.where(np.diff(n0 + n1) == 0, hop, 0.0)
    vals, vecs = np.linalg.eigh(t.reshape(blocks, width, width))
    phase = np.exp(1j * np.angle(-phi[0, 1]) * np.arange(width))
    return vals, vecs, phase


def _packed_sectors(cutoff):
    """(n0, n1): the `_sector_blocks` layout of all 2 cutoff + 1
    photon-number sectors of two modes truncated at `cutoff`, packed into
    d = cutoff + 1 blocks of d states.

    Sector N < cutoff has N + 1 states and sector N + d has cutoff - N, so
    the two share block N, and sector cutoff fills block cutoff alone:
    |n0, n1> sits in block (n0 + n1) mod d at position n0, so the P of
    `_sector_blocks` is diag(exp(i arg(-phi01) n0)), and the hop between
    the two sectors of a block is the one at n1 = 0.  n0 is the (1, d) row
    of positions and n1 the (d, d) grid of second-mode photon numbers, so
    n0 d + n1 labels each block position with its two-mode basis state.
    """
    d = cutoff + 1
    block, n0 = np.ogrid[:d, :d]
    return n0, (block - n0) % d


def _truncated_sectors(cutoff):
    """(n0, n1): the `_sector_blocks` layout of the cutoff sectors
    N > cutoff, the ones truncation cuts short, packed two to a block of
    w = cutoff | 1 states (the odd one of cutoff and cutoff + 1).

    Sector 2 cutoff + 1 - s holds the s states n0 = cutoff + 1 - s .. cutoff,
    s = 1 .. cutoff.  Block k holds the sector of size s = k + w - cutoff at
    its first s positions and the sector of size w - s after them, so the
    sizes pair up as (1, cutoff), (2, cutoff - 1), ... for an even cutoff
    and as (0, cutoff), (1, cutoff - 1), ... for an odd one: ceil(cutoff / 2)
    blocks hold every state once, with no padding.
    """
    width = cutoff | 1
    small = np.arange((cutoff + 1) // 2)[:, None] + width - cutoff
    p = np.arange(width)
    first = p < small
    n0 = p + cutoff + 1 - np.where(first, small, width)
    n1 = cutoff - p + np.where(first, 0, small)
    return n0, n1


def _euler_angles(v):
    """(theta, left, right) with v = D1 B(theta) D2 for a 2 x 2 unitary v:
    B(theta) = exp(i theta `_BS_PHI`) = [[cos, sin], [-sin, cos]] with
    theta in [0, pi / 2], D1 = diag(exp(i left)) and D2 = diag(exp(i right)).

    With D1's first phase 0, v00 = exp(i right0) cos theta,
    v01 = exp(i right1) sin theta and det v = exp(i (left1 + right0 + right1)).
    D1's second phase is taken from det v, not from
    -v10 = exp(i (left1 + right0)) sin theta, whose phase is lost at
    theta = 0.  Where cos theta or sin theta is 0, the phase read from the
    vanishing entry is arbitrary and the product still equals v.
    """
    theta = math.atan2(abs(v[0, 1]), abs(v[0, 0]))
    right = np.angle(v[0])
    det = v[0, 0] * v[1, 1] - v[0, 1] * v[1, 0]
    return theta, np.array([0.0, np.angle(det) - right.sum()]), right


def _rotate_blocks(out, flat, labels, vecs, spin, left, right):
    """out[:, labels] = left V (spin V^T (right flat[:, labels])) on every
    block of the (k, d^2) stack `flat`, with the (blocks, w) `labels` of a
    sector layout, its real (blocks, w, w) eigenvectors V, and the factors
    spin (by eigenvalue) and left and right (by position) broadcast over
    the blocks.  V acts by two real products on (re, im) pairs."""
    spun = vecs.transpose(0, 2, 1) @ (flat.T[labels] * right[..., None]).view(float)
    spun = spun.view(complex) * spin[..., None]
    out.T[labels] = (vecs @ spun.view(float)).view(complex) * left[..., None]


def apply_rotation(phi, kets, cutoff):
    """R(phi) = exp(i a^dag phi a) applied to two-mode kets (a (d^2,) ket
    or a (k, d^2) stack, d = cutoff + 1), equal to the exponential of the
    sparse generator i a^dag phi a for a Hermitian 2 x 2 phi.

    The paper's split of a passive two-mode unitary: V = exp(i phi) is
    D1 B(theta) D2, two diagonal phases around a beam splitter
    (`_euler_angles`).  On the cutoff + 1 complete sectors N <= cutoff,
    which truncation leaves whole, V -> R(V) is a group representation, so
    R = R(D1) R(B) R(D2): the phases act as exp(i (c0 n0 + c1 n1)) on the
    Fock basis and the beam splitter as exp(-i theta vals) in its cached,
    phi-free eigenbasis (`_bs_basis`), with no eigensolve.  Only the
    truncated sectors N > cutoff, where truncation breaks the group law,
    take an eigensolve of their own generator: ceil(cutoff / 2) blocks of
    at most d states (`_truncated_sectors`).  Both routes run
    `_rotate_blocks` on sector layouts; the beam splitter's blocks also
    hold the truncated sectors, whose output the second route overwrites.
    A ket in one sector stays in it exactly.
    """
    phi = np.asarray(phi, dtype=complex)
    if phi.shape != (2, 2):
        raise ValueError(f"rotation generator must be 2 x 2, got shape {phi.shape}")
    require_finite(phi, "rotation generator")
    require_hermitian(phi, "rotation generator")
    d = cutoff + 1
    kets = np.asarray(kets, dtype=complex)
    flat = kets.reshape(-1, d * d)
    out = np.empty_like(flat)
    # every sector as R(D1) R(B(theta)) R(D2), right for N <= cutoff only
    theta, left, right = _euler_angles(expm_i_hermitian(phi))
    vals, vecs, phase, labels = _bs_basis(cutoff)
    n0, n1 = np.divmod(labels, d)
    left, right = (np.exp(1j * (c[0] * n0 + c[1] * n1)) for c in (left, right))
    _rotate_blocks(out, flat, labels, vecs, np.exp(-1j * theta * vals),
                   phase * left, phase.conj() * right)
    # the sectors N > cutoff again, from their own truncated generator
    n0, n1 = _truncated_sectors(cutoff)
    vals, vecs, phase = _sector_blocks(phi, n0, n1)
    _rotate_blocks(out, flat, n0 * d + n1, vecs, np.exp(-1j * vals), phase, phase.conj())
    return out.reshape(kets.shape)


# The beam splitter exp(theta (a^dag b - a b^dag)) is R(theta _BS_PHI).
_BS_PHI = np.array([[0, -1j], [1j, 0]])


@lru_cache(maxsize=8)
def _bs_basis(cutoff):
    """(vals, vecs, phase, labels): the `_sector_blocks` of `_BS_PHI` on
    the `_packed_sectors` layout, with P = diag(i^n0), and the (d, d)
    two-mode basis states n0 d + n1 of each block position: the real
    eigenbasis of the beam splitter's tau-free generator.  `apply_rotation`
    and the oracle's `_bs_sectors` share it, so a cutoff costs one
    eigensolve.  Read-only, since every caller shares it."""
    n0, n1 = _packed_sectors(cutoff)
    basis = (*_sector_blocks(_BS_PHI, n0, n1), n0 * (cutoff + 1) + n1)
    for arr in basis:
        arr.flags.writeable = False
    return basis


@lru_cache(maxsize=8)
def _bs_sectors(cutoff):
    """Tau-free real eigenbasis of the beam-splitter generator: the
    `_packed_sectors` blocks of `_BS_PHI` (`_bs_basis`), d = cutoff + 1
    blocks of d states, with the oracle's gather arrays.

    There P = diag(i^j), j = n0 the position in the block, so the beam
    splitter's block is U_jk = i^(j-k) sum_m V_jm V_km exp(-i theta vals_m).
    T, with hops sqrt(n0+1) sqrt(n1), is free of tau and has a zero
    diagonal, so cos(theta T) links only states with even j - k and
    sin(theta T) only states with odd j - k, and U is real
    orthogonal: U_jk = sign_jk C_jk for even j - k and sign_jk S_jk for odd
    j - k, with C = V cos(theta vals) V^T, S = V sin(theta vals) V^T and
    sign_jk = (-1)^floor((j - k) / 2).  C and S of every block come from one
    product of a (2, d, d, d) stack, exactly zero between the two sectors
    of a block.

    Returns:
        (vecs, vecs_t, vals, index, sign, row, col): the (d, d, d) stacks of
        real block eigenvectors and their transposes, the (d, d) block
        eigenvalues, the flat index of each in-sector entry into the
        (2, d, d, d) stack of C and S blocks (into C for even j - k, into S
        for odd), its sign, and the two-mode basis states n0 d + n1 of its
        row and its column.  All arrays are read-only, since every caller
        shares them.
    """
    vals, vecs, _, labels = _bs_basis(cutoff)
    vecs_t = np.ascontiguousarray(vecs.transpose(0, 2, 1))
    low = np.tri(cutoff + 1, dtype=bool)  # position <= block: the lower sector
    slot = np.flatnonzero(low[:, :, None] == low[:, None, :])
    _, j, k = np.unravel_index(slot, vecs.shape)
    index = slot + (j - k) % 2 * vecs.size
    sign = (-1.0) ** ((j - k) // 2)
    row = np.broadcast_to(labels[:, :, None], vecs.shape).reshape(-1)[slot]
    col = np.broadcast_to(labels[:, None, :], vecs.shape).reshape(-1)[slot]
    for arr in (vecs_t, index, sign, row, col):
        arr.flags.writeable = False
    return vecs, vecs_t, vals, index, sign, row, col


def _bs_slot_values(tau, cutoff):
    """The in-sector entries of the real beam splitter
    exp(theta (a^dag b - a b^dag)), in the order of the `_bs_sectors` row
    and column labels: one stacked product of the cached blocks scaled by
    cos(theta vals) and sin(theta vals), one gather and the parity signs.
    An invalid tau raises."""
    vecs, vecs_t, vals, index, sign, _, _ = _bs_sectors(cutoff)
    angle = _bs_angle(tau) * vals
    trig = np.empty((2, cutoff + 1, 1, cutoff + 1))
    np.cos(angle, out=trig[0, :, 0])
    np.sin(angle, out=trig[1, :, 0])
    values = ((vecs * trig) @ vecs_t).take(index)
    values *= sign
    return values


def fock_bs(tau, cutoff):
    """Dense two-mode beam-splitter unitary exp(theta (a^dag b - a b^dag)),
    cos(theta) = sqrt(tau): `apply_rotation` at phi = theta `_BS_PHI`
    applied to every basis ket.  On the complete sectors it runs on the
    cached `_bs_basis` that the oracle's `_bs_sectors` reads, so the tests
    check both against the dense exponential of `tests/reference.py`; the
    oracle itself never forms the dense unitary.
    """
    dim = (cutoff + 1) ** 2
    return apply_rotation(_bs_angle(tau) * _BS_PHI, np.eye(dim, dtype=complex), cutoff).T


def fock_entropy(rho, base="bits"):
    """Von Neumann entropy, `states.spectrum_entropy` of the `eigvalsh`
    spectrum (eigenvalues <= 1e-15 add 0, the sum floored at 0.0)."""
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


def _class_positions(order, cutoff):
    """(dest, a, e, top, shift): where each entry of `_bs_sectors` at
    `cutoff` lands in the eavesdropper's factor, as (K, d, width) blocks of
    the K = `order` rotation classes of her columns, and what it reads.

    The entry in row (b, c') and column (a, e) carries the factor's entry
    at row b and column (c', e), with a = b + c' - e.  Her columns fall
    into the classes q = (c' - e) mod K, each listed in increasing order of
    c' d + e and padded with zeros to the width of the largest
    (d = cutoff + 1).  `dest` is each entry's flat position in the blocks,
    a and e index its input weight ket[a] lam_e, and `top`, 0 to 3, counts
    how many of b, c' and e sit at the top level `cutoff`, so
    sum top |entry|^2 is the leakage.  `shift` holds the (K, width) offsets
    c' - e of the class columns (0 in the padding)."""
    d = cutoff + 1
    *_, row, col = _bs_sectors(cutoff)
    b, c = np.divmod(row, d)
    a, e = np.divmod(col, d)
    offsets = np.subtract.outer(np.arange(d), np.arange(d)).reshape(-1)
    classes = offsets % order
    sizes = np.bincount(classes, minlength=order)
    rank = np.empty(d * d, dtype=int)  # each column's place in its class
    shift = np.zeros((order, sizes.max()), dtype=int)
    for q in range(order):
        members = np.flatnonzero(classes == q)
        rank[members] = np.arange(members.size)
        shift[q, : members.size] = offsets[members]
    ce = c * d + e  # her column (c', e)
    dest = (classes[ce] * d + b) * shift.shape[1] + rank[ce]
    top = np.add.reduce([b == cutoff, c == cutoff, e == cutoff], dtype=float)
    return dest, a, e, top, shift


class SweepLayout(NamedTuple):
    """What each position of a sweep's two factors and of their leakage
    reads, for K = `order` rotation classes and a top cutoff
    (`_sweep_layout`).

    The positions are the top cutoff's (K, d, width) blocks, the check
    cutoff's (K, d', width') blocks, then the top faces of each: the
    positions where any of b, c' and e sits at its cutoff, in the order of
    the `_bs_sectors` entries, `ends` closing each of the four runs.  At
    each position `slot` indexes its entry among both cutoffs'
    `_bs_slot_values` (-1, an appended zero, in the padding) and `column`
    its weight ket[a] lam_e in the flat outer product of the
    `_sweep_inputs`, the appended zero lam in the padding.  `top` holds each
    cutoff's face counts and `shift` its (K, width) class offsets
    (`_class_positions`).  Read-only, since every caller shares it."""

    slot: np.ndarray
    column: np.ndarray
    ends: tuple
    top: tuple
    shift: tuple


@lru_cache(maxsize=16)
def _sweep_layout(order, cutoff):
    """The `SweepLayout` of K = `order` classes for a sweep from `cutoff`."""
    levels = 2 * (cutoff + 1) - SWEEP_STEP  # the kets' levels, d + d'
    slots, columns, faces, tops, shifts = [], [], [], [], []
    entries = first = size = 0  # the earlier cutoff's entries, levels and positions
    for c in (cutoff, cutoff - SWEEP_STEP):
        dest, a, e, top, shift = _class_positions(order, c)
        slot = np.full(order * (c + 1) * shift.shape[1], -1)
        slot[dest] = entries + np.arange(dest.size)
        column = np.full(slot.size, levels)
        column[dest] = (first + a) * (levels + 1) + first + e
        face = np.flatnonzero(top)
        slots.append(slot)
        columns.append(column)
        faces.append(size + dest[face])
        tops.append(top[face])
        shifts.append(shift)
        entries, first, size = entries + dest.size, first + c + 1, size + slot.size
    faces = np.concatenate(faces)
    slot, column = np.concatenate(slots), np.concatenate(columns)
    slot, column = np.append(slot, slot[faces]), np.append(column, column[faces])
    ends = tuple(np.cumsum([run.size for run in (*slots, *tops)]).tolist())
    for arr in (slot, column, *tops, *shifts):
        arr.flags.writeable = False
    return SweepLayout(slot, column, ends, tuple(tops), tuple(shifts))


# Four keys, one per tau: a tau-major scan (`cli`) needs one, and a
# replayed grid of three taus, as in the oracle-scan benchmark, needs
# three.  A QPSK key at cutoff 18 costs 84 KB: 55 KB of cutoff-18 blocks,
# 22 KB of cutoff-13 blocks and 7 KB of faces.  A kept result is not
# reused as scratch, so each miss writes to memory the last calls did not
# touch.
@lru_cache(maxsize=4)
def _eve_bs_values(tau, cutoff, order):
    """The beam splitter's in-sector entries (`_bs_slot_values`) of both
    cutoffs of a sweep from `cutoff` at each position of its
    `_sweep_layout` of K = `order` classes, 0 in the padding: one key per
    tau.  Cached by (tau, cutoff, order) and read-only, since every caller
    shares it: cells of a scan that differ in nbar or alpha alone reuse
    it.  An invalid tau raises, and exceptions are not cached."""
    entries = [_bs_slot_values(tau, c) for c in (cutoff, cutoff - SWEEP_STEP)]
    values = np.concatenate([*entries, [0.0]]).take(_sweep_layout(order, cutoff).slot)
    values.flags.writeable = False
    return values


def _sweep_leaks(weights, values, layout):
    """Each cutoff's (R,) truncation leakage of the R representatives, from
    the top faces of its factor alone: the same products ket[a] lam_e U as
    the factor's (`_sweep_factors`) and the same dot of their squares with
    the face counts."""
    blocks_end, top_end = layout.ends[1:3]
    faces = weights.take(layout.column[blocks_end:], axis=1)
    faces *= values[blocks_end:]
    np.square(faces, out=faces)
    split = top_end - blocks_end
    return faces[:, :split] @ layout.top[0], faces[:, split:] @ layout.top[1]


def _sweep_factors(representatives, weights, values, layout):
    """The eavesdropper's factors at both cutoffs of a sweep, for the R
    orbit representatives of `cloner._rotation_orbits`, each an
    (R, K, d, width) stack of her K rotation-class blocks
    (`_class_positions`), from the outer product `weights` of the
    `_sweep_inputs` and the cached entries `values` (`_eve_bs_values`).

    For each amplitude alpha: coherent (x) TMSV on modes (A, C, E), beam
    splitter on (A, C), and the output tensor's rows indexed by the first
    output b, weighted by sqrt(p).  The TMSV is diagonal,
    lam_e |e>_C |e>_E, so the input |a, e, e> lies in photon-number sector
    a + e, and each output entry is one product with no sum:
    out[b, c', e] = ket[a] lam_e U[(b, c'), (a, e)], with a = b + c' - e.
    So both factors are one gather of the input weights ket[a] lam_e
    times the beam splitter's entries in the same layout, one multiply
    and one sqrt(p) scale, taken only once both leakage gates have passed.

    The oracle's arithmetic is real.  The beam splitter's generator
    a^dag b - a b^dag is real and antisymmetric in the Fock basis, so U is
    real orthogonal (`_bs_sectors`).  The coherent ket is the real ket of
    |alpha| times exp(i a arg alpha), and
    exp(i a arg alpha) = exp(i b arg alpha) exp(i (c' - e) arg alpha): a row
    phase and a column phase of the factor.  The row phases are a diagonal
    unitary similarity of each Gram block conj(M_q) M_q^T, and the column
    phases cancel in it when every representative has the same arg alpha,
    so the real blocks have the spectra of the complex ones.  Only where
    the representatives' phases differ, tested once per cell and never for
    one representative, are the relative column phases
    exp(i (c' - e) (arg alpha_k - arg alpha_0)) applied, making complex
    blocks.  The leakage, which no phase changes, is taken from the real
    entries (`_sweep_leaks`)."""
    count = len(weights)
    blocks_end = layout.ends[1]
    blocks = weights.take(layout.column[:blocks_end], axis=1)
    blocks *= values[:blocks_end]
    blocks *= np.sqrt(representatives.probs)[:, None]
    top_end = layout.ends[0]
    factors = [f.reshape(count, len(s), -1, s.shape[1])
               for f, s in zip((blocks[:, :top_end], blocks[:, top_end:]), layout.shift)]
    if count > 1:
        phase = np.angle(representatives.amplitudes)
        if np.any(phase != phase[0]):
            factors = [f * np.exp(1j * np.multiply.outer(phase - phase[0], s))[:, :, None, :]
                       for f, s in zip(factors, layout.shift)]
    return factors


def _eve_entropy(order, blocks, base):
    """Eavesdropper entropy at one cutoff from the `_sweep_factors` blocks
    of the orbit representatives, which have passed their leakage gate:
    the sum, over the K = `order` rotation classes, of the entropy of the
    Gram block conj(M_q) M_q^T of the class-q columns M_q.  All K Gram
    blocks come from one stacked product and one stacked `eigvalsh`, and
    their K spectra go through one `states.spectrum_entropy` pass, which
    floors each block's entropy at 0 on its own."""
    count, _, d, width = blocks.shape
    blocks = blocks.transpose(1, 0, 2, 3).reshape(order, count * d, width)
    rows = blocks.conj() if np.iscomplexobj(blocks) else blocks
    spectra = np.linalg.eigvalsh(rows @ blocks.transpose(0, 2, 1))
    return float(spectrum_entropy(spectra, base).sum())


def eve_exact_entropy(constellation, params, cutoff=18, base="bits"):
    """Exact average-state entropy of the eavesdropper in a truncated Fock
    space.

    The state of the eavesdropper's two modes is rho = M^T conj(M), with M
    the K*d x d^2 factor of the K amplitudes (d = cutoff+1 levels) that
    `_sweep_factors` builds.  Its entropy is taken from the Gram side
    conj(M) M^T, which has the same nonzero spectrum, reduced by the
    constellation's rotation symmetry (`cloner._rotation_orbits`,
    amplitudes paired within `cloner.SYMMETRY_RTOL` = 1e-12 relative to
    max(1, max |alpha|)).
    Rotating an amplitude by 2 pi / K turns the eavesdropper's state into
    W rho W^dag, W = exp(2 pi i (n_C' - n_E) / K), so averaging over an orbit
    of K amplitudes pinches a representative's state onto the eigenspaces
    of W: the classes q = (c' - e) mod K of her (c', e) index.  The entropy
    of that block-diagonal state is the sum of its blocks' entropies, each
    taken from the Gram block of the representatives alone, weighted by
    K p.  For QPSK (K = 4) that is four d x d blocks, 19 x 19 at cutoff 18,
    instead of one 76 x 76; with no symmetry (K = 1) it is the single
    K*d x K*d Gram.  The leakage is taken from the representatives, which
    is exact because a rotation keeps photon numbers.  M is real
    (`_sweep_factors` argues why), and the K blocks are formed,
    diagonalized and summed together (`_eve_entropy`).

    The same entropy is recomputed at cutoff - `SWEEP_STEP` (5 levels
    lower), from the first levels of the same input series
    (`_sweep_inputs`), with the beam splitter's entries of both cutoffs
    under one key per tau (`_eve_bs_values`).  The truncation leakage must
    stay below `DEFICIT_LIMIT` = 1e-6 at the cutoff, then at the check
    cutoff, taken from the factors' top faces alone and gated before the
    gather of either factor (`_sweep_leaks`), and the two values must
    agree within `DRIFT_LIMIT` = 1e-4; otherwise FockConvergenceError is
    raised and no value is returned.  `cutoff` must be an integer, not a
    bool, and at least 7, or ValueError is raised.

    Returns:
        OracleEntropy: entropy in `base` units plus the sweep record.
    """
    _log(base)
    if isinstance(cutoff, bool) or not isinstance(cutoff, (int, np.integer)):
        raise ValueError(f"cutoff must be an integer, got {cutoff!r}")
    if cutoff < 7:
        raise ValueError(f"cutoff must be >= 7 to allow the convergence sweep, got {cutoff}")
    order, representatives = _rotation_orbits(constellation)
    check_cutoff = cutoff - SWEEP_STEP
    layout = _sweep_layout(order, cutoff)
    kets, lam, deficits = _sweep_inputs(np.abs(representatives.amplitudes).tolist(), params.nbar, cutoff)
    weights = np.multiply.outer(kets, lam).reshape(len(kets), -1)
    # a float key: a 0-d array tau would be unhashable
    values = _eve_bs_values(float(params.tau), cutoff, order)
    for c, deficit, leaks in zip((cutoff, check_cutoff), deficits, _sweep_leaks(weights, values, layout)):
        _require_deficit(max(deficit, *leaks.tolist()), f"the oracle state at cutoff {c}")
    factors = _sweep_factors(representatives, weights, values, layout)
    value, value_check = (_eve_entropy(order, f, base) for f in factors)
    result = OracleEntropy(
        value=value, value_check=value_check, cutoff=cutoff, check_cutoff=check_cutoff
    )
    if not result.drift < DRIFT_LIMIT:
        raise FockConvergenceError(
            f"entropy drift {result.drift:.3e} >= {DRIFT_LIMIT:.0e} between cutoffs "
            f"{cutoff} and {check_cutoff}"
        )
    return result

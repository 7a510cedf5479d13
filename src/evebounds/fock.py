"""Brute-force reference calculations in a truncated Fock space: the oracle
that checks the estimators of `bounds`, which import nothing from it.

A map of the module; each argument is made once, in the docstring named.
- States (`tmsv_ket`, `fock_thermal`, `fock_tmsv`) are plain arrays at an
  explicit cutoff; losing more than `DEFICIT_LIMIT` raises
  FockConvergenceError.
- The `--check` exponentials act on two-mode kets: `apply_displacement`
  through a cached tridiagonal eigenbasis, `apply_rotation` through the
  packed photon-number sectors of `_packed_sectors`, and `apply_generator`
  as a Chebyshev expansion of `squeeze_generator` weights.
- The beam splitter's real eigenbasis, the `_packed_sectors` blocks of
  `_BS_PHI`, is cached per cutoff (`_bs_sectors`); the dense `fock_bs` goes
  through `apply_rotation`.
- The oracle, `eve_exact_entropy`, takes the eavesdropper's entropy from
  the Gram side of her real factor (`_eve_factor` argues the real
  arithmetic), reduced to one amplitude per rotation orbit
  (`cloner._rotation_orbits`; `eve_exact_entropy` argues the reduction).
- `fock_entropy` and `fock_partial_trace` serve the `--check` suites.
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
from .states import _log, spectrum_entropy

__all__ = [
    "FockConvergenceError",
    "OracleEntropy",
    "fock_thermal",
    "fock_tmsv",
    "fock_bs",
    "fock_partial_trace",
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


def tmsv_ket(nbar, cutoff):
    """(ket, deficit) for a two-mode squeezed vacuum: the flat d x d ket
    (d = cutoff + 1) with the Schmidt coefficients of `_tmsv_schmidt` on
    its diagonal."""
    if not 0 <= nbar < math.inf:
        raise ValueError(f"mean photon number must be finite and >= 0, got {nbar}")
    c, deficit = _tmsv_schmidt(nbar, cutoff)
    return np.diag(c).reshape(-1).astype(complex), deficit


def fock_thermal(nbar, cutoff):
    """Density matrix of the thermal state with mean photon number `nbar`,
    truncated at `cutoff` photons and renormalized: the squared Schmidt
    coefficients of `_tmsv_schmidt`, the reduced state of its purification."""
    if not 0 <= nbar < math.inf:
        raise ValueError(f"mean photon number must be finite and >= 0, got {nbar}")
    c, deficit = _tmsv_schmidt(nbar, cutoff)
    _require_deficit(deficit, f"thermal nbar={nbar}")
    return np.diag(c * c)


def fock_tmsv(nbar, cutoff):
    """Density matrix of the two-mode squeezed vacuum, truncated at `cutoff`
    photons per mode."""
    ket, deficit = tmsv_ket(nbar, cutoff)
    _require_deficit(deficit, f"tmsv nbar={nbar}")
    return np.outer(ket, ket.conj())


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
    lam = math.tanh(0.5 * math.acosh(2 * nbar + 1))
    d = cutoff + 1
    c = math.sqrt(max(1 - lam * lam, 0.0)) * lam ** np.arange(d) if lam > 0 else np.eye(1, d, 0)[0]
    return _normalized(c)


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
    c = [math.exp(-0.5 * (modulus * modulus))]
    for n in range(1, cutoff + 1):
        c.append(c[-1] * modulus * (1.0 / math.sqrt(n)))
    ket, deficit = _normalized(np.array(c, dtype=complex))
    return ket.real, deficit


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


def _packed_sectors(phi, cutoff):
    """(vals, vecs, phase, labels): the generator h = -a^dag phi a of
    R(phi) = exp(i a^dag phi a) = exp(-i h) on two modes truncated at
    `cutoff`, for a complex 2 x 2 phi, as one eigensolve of d = cutoff + 1
    real blocks of d states.

    R(phi) keeps the total photon number N.  In sector N, on the kets
    |n0, N - n0>, h is tridiagonal with diagonal -(phi00 n0 + phi11 n1) and
    <n0+1, n1-1| h |n0, n1> = -phi01 sqrt(n0+1) sqrt(n1).  Sector N < cutoff
    has N + 1 states and sector N + d has cutoff - N, so the two share
    block N, and sector cutoff fills block cutoff alone: |n0, n1> sits in
    block (n0 + n1) mod d at position n0, and the hop between the two
    sectors of a block, at n1 = 0, is an exact zero.  Every hop has phase
    arg(-phi01), so h = P T P^dag with P = diag(exp(i arg(-phi01) n0)) and
    T real symmetric.  One stacked `eigh` gives every block's
    T = V diag(vals) V^T.  LAPACK splits T at the zero, so each eigenvector
    column is nonzero in one sector only, and any V f(vals) V^T links no
    two sectors: its entries between them are exact zeros.

    Returns:
        (vals, vecs, phase, labels): the (d, d) block eigenvalues, the
        (d, d, d) stack of real eigenvector columns V, the (d, 1) phases of
        P by position, and the (d, d) two-mode basis states n0 d + n1 of
        each block position.
    """
    d = cutoff + 1
    block, n0 = np.ogrid[:d, :d]
    n1 = (block - n0) % d
    t = np.zeros((d, d * d))
    t[:, :: d + 1] = -(phi[0, 0].real * n0 + phi[1, 1].real * n1)
    t[:, 1 :: d + 1] = t[:, d :: d + 1] = abs(phi[0, 1]) * np.sqrt(n0[:, 1:] * n1[:, :-1])
    vals, vecs = np.linalg.eigh(t.reshape(d, d, d))
    phase = np.exp(1j * np.angle(-phi[0, 1]) * np.arange(d))[:, None]
    return vals, vecs, phase, n0 * d + n1


def apply_rotation(phi, kets, cutoff):
    """R(phi) = exp(i a^dag phi a) applied to two-mode kets (a (d^2,) ket
    or a (k, d^2) stack, d = cutoff + 1), equal to the exponential of the
    sparse generator i a^dag phi a for a Hermitian 2 x 2 phi.

    On every block of `_packed_sectors`, P V exp(-i vals) V^T P^dag acts as
    two real products on (re, im) pairs, so a ket in one sector stays in it
    exactly.
    """
    phi = np.asarray(phi, dtype=complex)
    d = cutoff + 1
    kets = np.asarray(kets, dtype=complex)
    flat = kets.reshape(-1, d * d)
    vals, vecs, phase, labels = _packed_sectors(phi, cutoff)
    spun = vecs.transpose(0, 2, 1) @ (flat.T[labels] * phase.conj()).view(float)
    spun = spun.view(complex) * np.exp(-1j * vals)[:, :, None]
    out = np.empty_like(flat)
    out.T[labels] = (vecs @ spun.view(float)).view(complex) * phase
    return out.reshape(kets.shape)


# The beam splitter exp(theta (a^dag b - a b^dag)) is R(theta _BS_PHI).
_BS_PHI = np.array([[0, -1j], [1j, 0]])


@lru_cache(maxsize=8)
def _bs_sectors(cutoff):
    """Tau-free real eigenbasis of the beam-splitter generator: the
    `_packed_sectors` blocks of `_BS_PHI`, d = cutoff + 1 blocks of d states.

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
    vals, vecs, _, labels = _packed_sectors(_BS_PHI, cutoff)
    vecs_t = np.ascontiguousarray(vecs.transpose(0, 2, 1))
    low = np.tri(cutoff + 1, dtype=bool)  # position <= block: the lower sector
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
    applied to every basis ket.  It shares `_packed_sectors` with the
    oracle's `_bs_sectors`, so the tests check both against the dense
    exponential of `tests/reference.py`; the oracle itself never forms the
    dense unitary.
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
    R orbit representatives of `cloner._rotation_orbits`, as an (R, K, d, width)
    stack of her K = `order` rotation-class blocks (`_eve_layout`), and
    the worst truncation leakage.

    For each amplitude alpha: coherent (x) TMSV on modes (A, C, E), beam
    splitter on (A, C), and the output tensor's rows indexed by the first
    output b, weighted by sqrt(p).  The TMSV is diagonal,
    lam_e |e>_C |e>_E, so the input |a, e, e> lies in photon-number sector
    a + e, and each output entry is one product with no sum:
    out[b, c', e] = ket[a] lam_e U[(b, c'), (a, e)], with a = b + c' - e,
    and the input weight ket[a] lam_e is read at the column label a d + e
    of the beam splitter's entry.

    The oracle's arithmetic is real.  The beam splitter's generator
    a^dag b - a b^dag is real and antisymmetric in the Fock basis, so U is
    real orthogonal (`_bs_sectors`).  The coherent ket is the real ket of
    |alpha| times exp(i a arg alpha), and
    exp(i a arg alpha) = exp(i b arg alpha) exp(i (c' - e) arg alpha): a row
    phase and a column phase of the factor.  The row phases are a diagonal
    unitary similarity of each Gram block conj(M_q) M_q^T, and the column
    phases cancel in it when every representative has the same arg alpha,
    so the real blocks have the spectra of the complex ones.  Only where
    the representatives' phases differ does `_eve_entropy` apply the
    relative column phases exp(i (c' - e) (arg alpha_k - arg alpha_0)) and
    form complex blocks.  The leakage, which no phase changes, is taken
    from the real blocks.  The real inputs come from their closed forms:
    the d Schmidt coefficients lam_e (`_tmsv_schmidt`) and the real ket of
    each |alpha| (`_modulus_ket`).
    """
    d = cutoff + 1
    dest, top, shift = _eve_layout(order, cutoff)
    col = _bs_sectors(cutoff)[-1]
    lam, tmsv_deficit = _tmsv_schmidt(params.nbar, cutoff)
    moduli = np.abs(representatives.amplitudes).tolist()
    kets, deficits = zip(*(_modulus_ket(m, cutoff) for m in moduli))
    weights = np.multiply.outer(np.array(kets), lam).reshape(len(kets), d * d)
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
    `cloner._rotation_orbits`: the sum, over the K = `order` rotation
    classes, of the entropy of the Gram block conj(M_q) M_q^T of the
    class-q columns M_q of the representatives' factor (`_eve_factor`,
    which argues when the relative column phases applied here are needed).
    All K Gram blocks come from one stacked product and one stacked
    `eigvalsh`, and their K spectra go through one `states.spectrum_entropy`
    pass, which floors each block's entropy at 0 on its own."""
    blocks, leak = _eve_factor(representatives, order, params, cutoff)
    _require_deficit(leak, f"the oracle state at cutoff {cutoff}")
    phase = np.angle(representatives.amplitudes)
    if np.any(phase != phase[0]):
        shift = _eve_layout(order, cutoff)[-1]
        blocks = blocks * np.exp(1j * np.multiply.outer(phase - phase[0], shift))[:, :, None, :]
    count, _, d, width = blocks.shape
    blocks = blocks.transpose(1, 0, 2, 3).reshape(order, count * d, width)
    spectra = np.linalg.eigvalsh(blocks.conj() @ blocks.transpose(0, 2, 1))
    return float(spectrum_entropy(spectra, base).sum())


def eve_exact_entropy(constellation, params, cutoff=18, base="bits"):
    """Exact average-state entropy of the eavesdropper in a truncated Fock
    space.

    The state of the eavesdropper's two modes is rho = M^T conj(M), with M
    the K*d x d^2 factor of the K amplitudes (d = cutoff+1 levels) that
    `_eve_factor` builds.  Its entropy is taken from the Gram side
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
    (`_eve_factor` argues why), and the K blocks are formed, diagonalized
    and summed together (`_eve_entropy`).

    The same entropy is recomputed at cutoff - `SWEEP_STEP` (5 levels
    lower); the run only counts as converged if the two values agree
    within `DRIFT_LIMIT` = 1e-4 and the truncation leakage stays below
    `DEFICIT_LIMIT` = 1e-6, otherwise FockConvergenceError is raised and
    no value is returned.  `cutoff` must be an integer, not a bool, and at
    least 7, or ValueError is raised.

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
    value, value_check = (
        _eve_entropy(representatives, order, params, c, base) for c in (cutoff, check_cutoff)
    )
    result = OracleEntropy(
        value=value, value_check=value_check, cutoff=cutoff, check_cutoff=check_cutoff
    )
    if not result.drift < DRIFT_LIMIT:
        raise FockConvergenceError(
            f"entropy drift {result.drift:.3e} >= {DRIFT_LIMIT:.0e} between cutoffs "
            f"{cutoff} and {check_cutoff}"
        )
    return result

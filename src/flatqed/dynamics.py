"""Exact single-excitation dynamics and vacuum Rabi analysis.

A single excitation shared by the emitters and the bath never leaves

    span{emitters} + span{P_E g_j chi_j},

where P_E projects onto the bath eigenspace of energy E and g_j chi_j is the
coupling vector of emitter j (modified eigenproblems: Golub, SIAM Rev. 15,
318 (1973); exact emitter dynamics in structured baths: Gonzalez-Tudela &
Cirac, PRA 96, 043811 (2017)).  :func:`evolve` works in that subspace for
every model, in the resolvent seam's basis
(:func:`flatqed.greens.spectral_basis`: the dense eigensystem or the Bloch
basis):

1. the amplitude columns C = U^H [g_1 chi_1 ... g_n chi_n], plus the photon
   part of an explicit initial vector;
2. the sorted bath energies are cut into runs whose neighbours lie within
   tol = ``MERGE_PHASE`` / max|t|.  A run whose whole spread is within tol
   is merged into one level at its mean energy, so no phase moves by more
   than spread * max|t| <= 1e-10 over the time grid; the levels of a wider
   run stay separate;
3. each level's rows of C are reduced to their numerical rank by one small
   SVD, and the modes that no column reaches are dropped;
4. each mode's free phase makes its coupling to the first column real and
   non-negative (B/|B| exactly: +-1 for a real coupling), and the bordered
   ("arrowhead") matrix of the emitters and the M reduced modes,
   [[diag(omega0), B^H], [B, diag(E)]], is diagonalized by
   :func:`propagate`; real couplings in a real basis keep it real.

One emitter sees the N-fold flat band of the sawtooth as one mode, so the
Rabi run on 1000 sites is a 253 x 253 problem instead of 1001 x 1001.  A
disordered model takes the same path.  Disorder splits most levels, but
off-diagonal (chiral) disorder keeps the N zero modes of the stub
degenerate, and they merge into one level.

:func:`propagate` computes only the rows its caller reads (the emitters, and
the site field through ``basis.synthesize`` when photons are stored), a
chunk of times at a time, so no (modes x n_t) or (sites x n_t) temporary
grows with the time grid.  Its phases are factorized in blocks of B times,

    exp(-i w t_{sB+j}) = exp(-i w t_{sB}) exp(-i w (t_j - t_0)),   j < B,

one complex product per entry from a (modes x B) step table and one start
column per block, so each mode takes B + ceil(n_t / B) cos/sin pairs
instead of n_t (the Rabi run: 155 instead of 6001).  B = ceil(sqrt(n_t)),
capped by the chunk, on a grid whose every block repeats the first block's
steps within 4 eps max|t|, as every ``linspace`` or ``arange`` grid does;
on any other grid B = 1 and every phase is evaluated directly.  A
factorized phase is then within about 8 eps |w| max|t| of the direct one, a
small multiple of the direct path's own rounding of w t.

On resonance with an isolated flat band the atomic population oscillates as
cos^2(Omega t) with

    Omega = g sqrt(<chi| P_FB |chi>),

the coupling of the emitter to its single effective flat-band mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from flatqed.boundstate import EmitterSpec
from flatqed.flatband import cls_set
from flatqed.greens import (fb_weights, spectral_amplitudes, spectral_basis,
                            synthesize)
from flatqed.lattice import LatticeModel

CHUNK_ELEMENTS = 1 << 18   # entries of one (rows x times) temporary
MERGE_PHASE = 1e-10        # largest phase error of a merged level, spread * max|t|
RANK_RTOL = 1e-12          # singular values of unit-norm columns kept above this
RABI_MIN_DEPTH = 1e-2      # Rabi minima lie at least this fraction of p[0] below p[0]


@dataclass(frozen=True)
class TimeSeries:
    """Exact evolution output: atomic populations (and optional photon field)."""

    t_grid: np.ndarray
    atom_populations: np.ndarray       # shape (n_t, n_emitters)
    norm_residual: float               # bound on |norm^2 - 1| over the grid
    photon_populations: np.ndarray | None = None   # shape (n_t, n_sites)


def _unit_phases(w: np.ndarray, t: np.ndarray) -> np.ndarray:
    """exp(-i w t) of shape (len(w), len(t)), from a real cos and sin: half
    the cost of a complex exp."""
    theta = np.multiply.outer(w, -t)
    phases = np.empty(theta.shape, dtype=complex)
    np.cos(theta, out=phases.real)
    np.sin(theta, out=phases.imag)
    return phases


def _block_length(t_grid: np.ndarray, chunk: int) -> int:
    """The block length B of the phase factorization: min(chunk,
    ceil(sqrt(n_t))) when every block of B times repeats the steps of the
    first, |t_{sB+j} - t_{sB} - (t_j - t_0)| <= 4 eps max|t| for every s
    and j < B, else 1 (every phase evaluated directly)."""
    n_t = len(t_grid)
    block = min(chunk, math.isqrt(max(n_t - 1, 0)) + 1)
    if block > 1:
        j = np.arange(n_t) % block
        steps = t_grid - t_grid[np.arange(n_t) - j]
        drift = np.max(np.abs(steps - (t_grid[j] - t_grid[0])))
        if drift > 4 * np.finfo(float).eps * np.max(np.abs(t_grid)):
            return 1
    return block


def propagate(H: np.ndarray, c0: np.ndarray, t_grid: np.ndarray,
              rows: np.ndarray | None = None,
              readout: Callable[[np.ndarray], np.ndarray] | None = None,
              chunk: int | None = None) -> tuple[np.ndarray, float]:
    """Components ``rows`` (all by default) of exp(-i H t) c0 at every t, of
    shape (n_t, len(rows)), and a bound on the deviation of the squared norm
    of the state from 1.

    A Hermitian H without imaginary part is diagonalized as a real matrix,
    and its real eigenvectors are never cast to complex.  Times are taken
    ``chunk`` at a time, by default as many as keep the (dim x times) phase
    array within ``CHUNK_ELEMENTS`` entries, rounded down to whole blocks.  ``readout``, when given, maps
    each chunk of amplitudes (rows x times) to the (values x times) array
    returned in their place.  With a = V^H c0 for the eigenvectors V, the
    bound |a^H a - 1| + ||V^H V - I||_F a^H a holds at every t, since the
    phases have unit modulus.

    The phases are factorized in blocks of B times (:func:`_block_length`):
    exp(-i w t_{sB+j}) = exp(-i w t_{sB}) exp(-i w (t_j - t_0)), from one
    (dim x B) step table and one start column per block, so each mode takes
    B + ceil(n_t / B) cos/sin pairs instead of n_t.  B = ceil(sqrt(n_t)) on
    any grid whose blocks repeat the first block's steps within
    4 eps max|t| (every ``linspace`` or ``arange`` grid); on any other grid
    B = 1, which evaluates every phase directly.  A factorized phase
    differs from the direct one by at most |w| (4 eps max|t| + the
    rounding of w t_{sB}, of w (t_j - t_0) and of t_j - t_0) plus a few eps
    from the product, about 8 eps |w| max|t|: a small multiple of the
    direct path's own rounding of w t, eps/2 |w t|."""
    if not H.imag.any():
        H = H.real
    w, V = np.linalg.eigh(H)
    a = spectral_amplitudes(V, c0)
    Vr = V if rows is None else V[rows]
    if chunk is None:
        chunk = max(1, CHUNK_ELEMENTS // len(w))
    n_t = len(t_grid)
    block = _block_length(t_grid, chunk)
    chunk -= chunk % block                    # blocks never straddle chunks
    step = _unit_phases(w, t_grid[:block] - t_grid[:1])       # (dim x B)
    out = None
    for s in range(0, max(n_t, 1), chunk):   # one pass sizes an empty grid
        times = t_grid[s:s + chunk]
        start = _unit_phases(w, times[::block]) * a[:, None]  # one per block
        phases = (start[:, :, None] * step[:, None, :]).reshape(
            len(w), start.shape[1] * block)[:, :len(times)]
        x = synthesize(Vr, phases)
        y = (x if readout is None else readout(x)).T
        if out is None:
            out = np.empty((n_t, y.shape[1]), dtype=y.dtype)
        out[s:s + chunk] = y
    gram = V.conj().T @ V
    gram[np.diag_indices_from(gram)] -= 1.0
    weight = float(np.vdot(a, a).real)
    return out, abs(weight - 1.0) + float(np.linalg.norm(gram)) * weight


def _initial_state(initial: int | np.ndarray, n_index: int, dim: int,
                   t_grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The unit initial vector of length ``dim`` and the time grid as a
    float array.  ``initial`` is an index below ``n_index`` or a vector of
    length ``dim``, with a finite non-zero norm; the times must be a
    one-dimensional array of finite values.  A bool is neither."""
    if isinstance(initial, (bool, np.bool_)):
        raise ValueError(f"initial state {initial!r} is a bool, not an index")
    if isinstance(initial, (int, np.integer)):
        if not 0 <= initial < n_index:
            raise ValueError(f"initial index {initial} outside range({n_index})")
        c0 = np.zeros(dim, dtype=complex)
        c0[int(initial)] = 1.0
    else:
        c0 = np.asarray(initial, dtype=complex)
        if c0.shape != (dim,):
            raise ValueError(f"initial state must have length {dim}")
        norm = np.linalg.norm(c0)
        if not 0 < norm < math.inf:     # a nan norm fails both comparisons
            raise ValueError("initial state must be finite and non-zero")
        c0 = c0 / norm
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1:
        raise ValueError("times must be a one-dimensional array")
    if not np.isfinite(t_grid).all():
        raise ValueError("times must be finite")
    return c0, t_grid


def _reduced_problem(model: LatticeModel, emitters: tuple[EmitterSpec, ...],
                     c0: np.ndarray, t_max: float
                     ) -> tuple[np.ndarray, np.ndarray,
                                Callable[[np.ndarray], np.ndarray]]:
    """The bordered Hamiltonian of the emitters and the bath modes they
    (and the photon part of ``c0``, when non-zero) reach, the initial vector
    in its basis, and the map from a chunk of reduced photon amplitudes
    (modes x times) to the site field."""
    n_e = len(emitters)
    basis = spectral_basis(model)
    cols = [em.chi(model.n_sites) * em.gbar for em in emitters]
    photons = c0[n_e:].any()
    if photons:
        cols.append(c0[n_e:])
    C = basis.amplitudes(np.column_stack(cols))
    norms = np.linalg.norm(C, axis=0)
    norms[norms == 0] = 1.0

    order = np.argsort(basis.w, kind="stable")
    w = basis.w[order]
    tol = MERGE_PHASE / t_max if t_max > 0 else math.inf
    run_start = np.r_[True, np.diff(w) > tol]
    first = np.flatnonzero(run_start)
    last = np.r_[first[1:], len(w)] - 1
    wide = (w[last] - w[first] > tol)[np.cumsum(run_start) - 1]
    starts = np.flatnonzero(run_start | wide)
    sizes = np.diff(np.r_[starts, len(w)])

    Cn = C[order] / norms
    energies, couplings = [np.zeros(0)], [np.zeros((0, len(cols)))]
    embedding = []
    n_modes = 0
    for m in np.unique(sizes):
        pos = starts[sizes == m][:, None] + np.arange(m)        # (levels, m)
        W, s, Vh = np.linalg.svd(Cn[pos], full_matrices=False)
        level_energy = w[pos].mean(axis=1)
        # one entry per rank index: its modes lie in distinct levels, so
        # their basis indices never collide when the field is synthesized
        for i in range(s.shape[1]):
            keep = s[:, i] > RANK_RTOL
            count = int(keep.sum())
            if count == 0:
                continue
            energies.append(level_energy[keep])
            couplings.append(s[keep, i, None] * Vh[keep, i] * norms)
            embedding.append((order[pos[keep]], W[keep, :, i],
                              np.arange(n_modes, n_modes + count)))
            n_modes += count
    B = np.concatenate(couplings)
    # a mode's phase is free: make its coupling to the first column real and
    # non-negative.  B/|B| is exact, so real couplings keep H real
    phase = np.sign(B[:, 0])
    phase[phase == 0] = 1.0
    B = B * phase.conj()[:, None]
    B[:, 0] = np.abs(B[:, 0])
    embedding = [(idx, coef * phase[modes, None], modes)
                 for idx, coef, modes in embedding]

    H = np.diag(np.concatenate([[em.omega0 for em in emitters],
                                *energies])).astype(B.dtype)
    H[n_e:, :n_e] = B[:, :n_e]
    H[:n_e, n_e:] = B[:, :n_e].conj().T
    c_red = np.concatenate([c0[:n_e], B[:, n_e] if photons
                            else np.zeros(n_modes)])

    def to_sites(x: np.ndarray) -> np.ndarray:
        c = np.zeros((len(w), x.shape[1]), dtype=complex)
        for idx, coef, modes in embedding:
            c[idx] += coef[:, :, None] * x[modes][:, None, :]
        return basis.synthesize(c)

    return H, c_red, to_sites


def evolve(model: LatticeModel, emitters: Sequence[EmitterSpec],
           initial: int | np.ndarray, t_grid: np.ndarray,
           store_photons: bool = False) -> TimeSeries:
    """Evolve a single excitation under the full atom+bath Hamiltonian.

    ``initial`` is either an emitter index or an explicit amplitude vector in
    the (emitters..., sites...) ordering; it is normalized before use.

    Every model, clean or disordered, is evolved in the subspace the
    emitters (and the photon part of ``initial``) couple to, as described in
    the module docstring: degenerate bath levels are merged only where
    spread * max|t| <= ``MERGE_PHASE``, so populations agree with the dense
    evolution of the full atom+bath Hamiltonian to ~1e-10.  With
    ``store_photons`` the site populations are synthesized a chunk of times
    at a time."""
    emitters = tuple(emitters)
    n_e = len(emitters)
    n = model.n_sites
    c0, t_grid = _initial_state(initial, n_e, n_e + n, t_grid)
    t_max = float(np.max(np.abs(t_grid))) if t_grid.size else 0.0
    H, c0, to_sites = _reduced_problem(model, emitters, c0, t_max)

    if not store_photons:
        pops, norm_residual = propagate(H, c0, t_grid, np.arange(n_e),
                                        lambda x: np.abs(x) ** 2)
        return TimeSeries(t_grid, pops, norm_residual)

    def readout(x: np.ndarray) -> np.ndarray:
        return np.abs(np.concatenate([x[:n_e], to_sites(x[n_e:])])) ** 2

    chunk = max(1, CHUNK_ELEMENTS // max(H.shape[0], n))
    pops, norm_residual = propagate(H, c0, t_grid, readout=readout,
                                    chunk=chunk)
    return TimeSeries(t_grid, np.ascontiguousarray(pops[:, :n_e]),
                      norm_residual, pops[:, n_e:])


def rabi_frequency(model: LatticeModel, emitter: EmitterSpec) -> float:
    """Omega = gbar sqrt(<chi| P_FB |chi>), the vacuum Rabi frequency of an
    emitter resonant with the model's flat band (at ``cls_set(model).omega_fb``,
    whatever the emitter's own omega0): the flat-band weight of
    :func:`~flatqed.greens.fb_weights`, one amplitude pass."""
    inside, _outside = fb_weights(model, cls_set(model).omega_fb,
                                  emitter.chi(model.n_sites))
    return emitter.gbar * math.sqrt(float(inside))


def fit_rabi_frequency(ts: TimeSeries) -> float:
    """Extract Omega from the first minimum of the first emitter's P_e(t):
    Omega = pi / (2 t_min).

    A local minimum less than ``RABI_MIN_DEPTH`` p[0] below p[0] is a
    wiggle, not a Rabi half-period, and is skipped.  The discrete minimum is
    refined by a parabola through its three neighbouring samples; a series
    with a negative entry is no population and raises ``ValueError``."""
    p = ts.atom_populations[:, 0]
    t = ts.t_grid
    if np.any(p < 0):
        raise ValueError("population series has a negative entry")
    interior = np.arange(1, len(p) - 1)
    minima = interior[(p[interior] < p[interior - 1]) & (p[interior] <= p[interior + 1])
                      & (p[0] - p[interior] >= RABI_MIN_DEPTH * p[0])]
    if minima.size == 0:
        raise ValueError("no population minimum inside the time grid")
    i = int(minima[0])
    # parabolic refinement on a (locally) uniform grid; with p >= 0 the
    # second difference at a minimum, p[i-1] > p[i] <= p[i+1], is > 0
    shift = 0.5 * (p[i - 1] - p[i + 1]) / (p[i - 1] - 2.0 * p[i] + p[i + 1])
    t_min = t[i] + shift * (0.5 * (t[i + 1] - t[i - 1]))
    if t_min <= 0:
        raise ValueError("population minimum at non-positive time")
    return math.pi / (2.0 * t_min)

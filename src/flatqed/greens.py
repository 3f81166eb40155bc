"""Bath resolvent G_B(omega), self-energy, and flat-band weights and projector.

Every consumer reaches the bath through one seam: a spectral basis of the
model's Hamiltonian, H = U diag(w) U^H, with the maps chi -> c = U^H chi
(amplitudes) and c -> U c (synthesis).  G_B(omega)|chi> = U (c / (omega - w))
costs one amplitude and one synthesis.  The self-energy of n site states,
Sigma_ij(omega_j) = <chi_i|G_B(omega_j)|chi_j> = sum_a conj(C_ai) C_aj /
(omega_j - w_a), and its omega-derivative come from one amplitude matrix
C = U^H [chi_1 ... chi_n] at O(N n^2) per evaluation (:func:`self_energy`);
the pole solver reads its n = 1 case and the interaction matrix the rest.

:func:`spectral_basis` picks the basis.  Disordered models, and clean models
with at most ``DENSE_MAX_SITES`` sites, use the cached dense eigensystem of
the real-space Hamiltonian (:func:`eigensystem`); builders with real hoppings
give a real U, which is never cast to complex (complex vectors are split into
real and imaginary parts).  Its cache is an LRU of 4 pairs of which at most
one belongs to a disordered model: a sweep over disorder seeds never asks
for a realisation twice, so each new one replaces the last and the sweep
holds one N x N pair at a time.  One dense solver, :func:`_dense_eigh`,
serves the cache and :func:`eigenvalues`: a dense ``eigh``, except for
off-diagonally disordered models whose sublattices two-colour with zero
on-site energies (the stub): such a model is chiral, H = [[0, T], [T^H, 0]],
and one SVD of the inter-sublattice block T, scattered straight from the
bond list, gives every eigenpair and its exact zero modes (Lieb, PRL 62,
1201 (1989); Inui, Trugman & Abrahams, PRB 49, 3190 (1994)).  Larger clean
models use the Bloch basis (:func:`bloch_basis`): the Q x Q Bloch blocks on
the commensurate k-grid, exactly ``lattice.bloch_hamiltonian`` at each k,
solved at the lower index of each {k, -k} pair, in closed form for Q = 2
and by ``eigh`` otherwise (the solve ``spectrum.band_structure`` shares),
and reached from site space by FFTs over the cell axes, so no N x N matrix
is ever formed (lattice Green's functions as Bloch sums; Economou, *Green's
Functions in Quantum Physics*).  The dense eigensystem stays the oracle
and the basis of the dense flat-band projector.

Two of these choices keep ``eigh`` round-off that ``benchmarks/golden.json``
pins: the recorded 1D decay lengths are fitted from tails down to
``boundstate.AMPLITUDE_FLOOR``, where psi is round-off.  So the clean stub,
chiral too, stays on ``eigh`` (the SVD fits the exact rate there, and 6 of
the 28 ``scan1d`` ops would fail their golden check), and clean models of
at most ``DENSE_MAX_SITES`` sites stay dense although both bases agree to
round-off (a change of basis moves fitted lengths by up to ~1e-3
relative).  Both can go once those golden values stop pinning round-off
(a benchmark change listed in ROADMAP.md).
"""

from __future__ import annotations

from collections import OrderedDict, namedtuple
from dataclasses import dataclass
from functools import lru_cache, partial, wraps
from typing import Callable

import numpy as np

from flatqed.errors import NoFlatBand, PoleProximity
from flatqed.lattice import (LatticeModel, _hopping_entries,
                             bipartite_sites, real_space_hamiltonian)
from flatqed.spectrum import _bloch_eigh

POLE_GUARD = 1e-12     # in units of J
FB_TOL = 1e-8          # flat-band selection window, in units of J
DENSE_MAX_SITES = 1024  # clean models above this size use the Bloch basis


@dataclass(frozen=True)
class FlatBandProjector:
    """Hermitian idempotent projector onto the FB eigenspace."""

    P: np.ndarray

    @property
    def degeneracy(self) -> int:
        return int(round(np.trace(self.P).real))


def _chiral_block(model: LatticeModel
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """(T, A, B) with T = H[A][:, B] for a model on the chiral path, else
    None: off-diagonal disorder, zero on-site energies and sublattices that
    two-colour (``lattice.bipartite_sites``, n_A >= n_B).

    T is scattered straight from the hopping entries of the real-space
    Hamiltonian, no N x N matrix being formed: every bond joins A and B, so
    exactly one of its entries, t at (i, j) or t* at (j, i), has its row in
    A, and those entries are summed in the order ``real_space_hamiltonian``
    sums them, so T equals its (A, B) block bit for bit."""
    if (model.disorder is None or model.disorder.kind != "off-diagonal"
            or any(model.onsite)):
        return None
    sites = bipartite_sites(model)
    if sites is None:
        return None
    A, B = sites
    in_a = np.zeros(model.n_sites, dtype=bool)
    in_a[A] = True
    pos = np.empty(model.n_sites, dtype=np.intp)
    pos[A] = np.arange(len(A))
    pos[B] = np.arange(len(B))
    rows, cols, vals = _hopping_entries(model)
    keep = in_a[rows]
    T = np.zeros((len(A), len(B)), dtype=vals.dtype)
    np.add.at(T, (pos[rows[keep]], pos[cols[keep]]), vals[keep])
    return T, A, B


def _dense_eigh(model: LatticeModel, vectors: bool
                ) -> tuple[np.ndarray, np.ndarray | None]:
    """(w, U) of the real-space Hamiltonian, w ascending and U None without
    ``vectors``: the dense counterpart of ``spectrum._bloch_eigh``.

    Chiral path (off-diagonally disordered models with zero on-site energies
    whose sublattices two-colour, see :func:`_chiral_block`): one SVD of the
    n_A x n_B block, T = X S Y^H, gives the eigenvalues -s_i and +s_i with
    vectors (x_i, -y_i)/sqrt(2) and (x_i, y_i)/sqrt(2), and n_A - n_B exact
    zeros (x_j, 0) from X's trailing columns, at about a third of the cost
    of ``eigh`` and with no N x N Hamiltonian formed.  Squaring T
    (``eigh(T^H T)``) would lose the small s_i where the bands touch.  Every
    other model, the clean stub included (for the golden values, see the
    module docstring), takes ``eigh``, or ``eigvalsh`` without vectors."""
    chiral = _chiral_block(model)
    if chiral is None:
        H = real_space_hamiltonian(model)
        return np.linalg.eigh(H) if vectors else (np.linalg.eigvalsh(H), None)
    T, A, B = chiral
    n_a, n_b = T.shape
    U = None
    if vectors:
        # U before the SVD's temporaries: a cached U allocated after them
        # pins the heap above their freed space (a 40-model sweep then
        # peaks ~13 MB higher with glibc malloc)
        U = np.zeros((n_a + n_b, n_a + n_b), dtype=T.dtype)
        X, s, Yh = np.linalg.svd(T)
        X_s = X[:, :n_b] / np.sqrt(2.0)
        Y = Yh.conj().T / np.sqrt(2.0)
        U[A] = np.hstack([X_s, X[:, n_b:], X_s[:, ::-1]])
        U[B, :n_b] = -Y
        U[B, n_a:] = Y[:, ::-1]
    else:
        s = np.linalg.svd(T, compute_uv=False)
    return np.concatenate([-s, np.zeros(n_a - n_b), s[::-1]]), U


def eigenvalues(model: LatticeModel) -> np.ndarray:
    """Ascending eigenvalues of the real-space Hamiltonian, without
    eigenvectors and outside the :func:`eigensystem` cache."""
    return _dense_eigh(model, vectors=False)[0]


_CacheInfo = namedtuple("CacheInfo", ["hits", "misses", "maxsize", "currsize"])


def _one_disordered_pair(decompose: Callable) -> Callable:
    """Cache ``decompose(model)`` in an LRU of 4 entries of which at most one
    belongs to a disordered model.

    A disorder sweep makes a new model per realisation and never asks for an
    old one again, so a disordered model that misses first drops the held
    disordered pair, and its memory is free before the new pair is
    allocated; a repeated call on one disordered model (a bound state, then
    an evolve) still hits.  Clean models keep the plain LRU.
    ``cache_info()`` and ``cache_clear()`` behave as those of
    ``functools.lru_cache``, counting every call."""
    maxsize = 4
    held: OrderedDict = OrderedDict()
    hits = misses = 0

    @wraps(decompose)
    def cached(model: LatticeModel):
        nonlocal hits, misses
        pair = held.get(model)
        if pair is not None:
            hits += 1
            held.move_to_end(model)
            return pair
        misses += 1
        if model.disorder is not None:
            for old in [m for m in held if m.disorder is not None]:
                del held[old]
        held[model] = pair = decompose(model)
        if len(held) > maxsize:
            held.popitem(last=False)
        return pair

    def cache_info() -> _CacheInfo:
        return _CacheInfo(hits, misses, maxsize, len(held))

    def cache_clear() -> None:
        nonlocal hits, misses
        held.clear()
        hits = misses = 0

    cached.cache_info = cache_info
    cached.cache_clear = cache_clear
    return cached


@_one_disordered_pair
def eigensystem(model: LatticeModel) -> tuple[np.ndarray, np.ndarray]:
    """Cached (eigenvalues, eigenvectors) of the real-space Hamiltonian from
    :func:`_dense_eigh`, both read-only, eigenvalues ascending, U real
    exactly when the hoppings are.  The cache holds up to 4 pairs, at most
    one of them for a disordered model (see :func:`_one_disordered_pair`)."""
    w, U = _dense_eigh(model, vectors=True)
    w.setflags(write=False)
    U.setflags(write=False)
    return w, U


def _check_pole(model: LatticeModel, omega, denom: np.ndarray) -> None:
    """ValueError for a non-finite omega (any column of it), PoleProximity
    if any denominator omega - w_a is within the guard."""
    if not np.isfinite(omega).all():
        raise ValueError(f"omega = {omega} is not finite")
    guard = POLE_GUARD * model.J
    if np.min(np.abs(denom)) < guard:
        raise PoleProximity(
            f"omega = {omega} within {guard} of a bath eigenvalue")


def spectral_amplitudes(U: np.ndarray, chi: np.ndarray) -> np.ndarray:
    """c = U^H chi for a vector or a matrix of column vectors chi.

    A real U is never cast to complex: a complex chi is split into real and
    imaginary parts, and the imaginary product is skipped when it vanishes
    (the result is then real)."""
    if np.iscomplexobj(U):
        return U.conj().T @ chi
    chi = np.asarray(chi)
    c = U.T @ chi.real
    if chi.imag.any():
        return c + 1j * (U.T @ chi.imag)
    return c


def synthesize(U: np.ndarray, c: np.ndarray) -> np.ndarray:
    """U c as a complex array, for a vector or a matrix of columns c.

    A real U multiplies the real and imaginary parts of c in one real
    product (the interleaved real view of c), so it is never cast to
    complex."""
    if np.iscomplexobj(U):
        return U @ c
    if not np.iscomplexobj(c):
        return (U @ c).astype(complex)
    c = np.ascontiguousarray(c)
    cols = c.reshape(c.shape[0], -1).view(float)
    return (U @ cols).view(complex).reshape((U.shape[0],) + c.shape[1:])


@dataclass(frozen=True)
class SpectralBasis:
    """An orthonormal eigenbasis of the bath Hamiltonian.

    ``w[a]`` is the energy of basis state a; ``amplitudes`` maps a site
    vector (or a matrix of site columns) to c = U^H chi and ``synthesize``
    maps amplitudes back to site space, U c (always complex)."""

    w: np.ndarray
    amplitudes: Callable[[np.ndarray], np.ndarray]
    synthesize: Callable[[np.ndarray], np.ndarray]


@lru_cache(maxsize=4)
def bloch_basis(model: LatticeModel) -> SpectralBasis:
    """Eigenbasis of a clean model from its Bloch blocks on the commensurate
    k-grid, cached per model like :func:`eigensystem` (an entry holds
    O(Q N) numbers, not N^2).  The blocks, ``bloch_hamiltonian`` on
    ``default_k_grid`` bit for bit, are solved by ``spectrum._bloch_eigh``
    (the closed form for Q = 2 and ``eigh`` for any other Q, over batches of
    k-points) at the lower index of each {k, -k} pair, with
    u(-k) = u(k)* copied to the partner by one mirror of the grid when the
    hoppings are real, and at every k with a complex hopping.  At a
    self-partner k (every component 0 or pi) the phases are exactly +-1, so
    a real model's u there is real.  ``band_structure`` takes its energies
    from the same solve, so ``w`` equals its bands bit for bit.

    With the phase convention of ``bloch_hamiltonian``, basis state (k, m)
    is e^{-ik.n} u_k[:, m] / sqrt(N_cells) on cell n; its index is
    k * Q + m, k running over ``default_k_grid``.  Amplitudes are an inverse
    FFT over the cell axes followed by u_k^H; synthesis is u_k followed by an
    FFT (both unitary, ``norm="ortho"``)."""
    _k, bands, u = _bloch_eigh(model, vectors=True)      # u: (n_k, Q, Q)
    u_conj = u.conj()
    w = bands.T.reshape(-1)
    w.setflags(write=False)
    cells, Q = model.shape, model.Q
    axes = tuple(range(model.dim))

    def amplitudes(chi: np.ndarray) -> np.ndarray:
        chi = np.asarray(chi)
        cols = chi.shape[1:]
        xk = np.fft.ifftn(chi.reshape(cells + (Q,) + cols), axes=axes,
                          norm="ortho")
        c = np.einsum("kvm,kv...->km...", u_conj,
                      xk.reshape((model.n_cells, Q) + cols))
        return c.reshape((model.n_sites,) + cols)

    def synthesize_bloch(c: np.ndarray) -> np.ndarray:
        cols = c.shape[1:]
        x = np.einsum("kvm,km...->kv...", u,
                      c.reshape((model.n_cells, Q) + cols))
        psi = np.fft.fftn(x.reshape(cells + (Q,) + cols), axes=axes,
                          norm="ortho")
        return psi.reshape((model.n_sites,) + cols)

    return SpectralBasis(w, amplitudes, synthesize_bloch)


def spectral_basis(model: LatticeModel) -> SpectralBasis:
    """The basis the seam uses: Bloch for clean models above
    ``DENSE_MAX_SITES`` sites, the dense eigensystem otherwise (small models
    stay dense for the golden values, see the module docstring)."""
    if model.disorder is None and model.n_sites > DENSE_MAX_SITES:
        return bloch_basis(model)
    w, U = eigensystem(model)
    return SpectralBasis(w, partial(spectral_amplitudes, U),
                         partial(synthesize, U))


def resolvent_vector(model: LatticeModel, omega: float,
                     chi: np.ndarray) -> np.ndarray:
    """G_B(omega) |chi> for an arbitrary site-space vector |chi>."""
    basis = spectral_basis(model)
    denom = omega - basis.w
    _check_pole(model, omega, denom)
    return basis.synthesize(basis.amplitudes(chi) / denom)


def self_energy(model: LatticeModel, chis: np.ndarray
                ) -> Callable[[float | np.ndarray],
                              tuple[np.ndarray, np.ndarray]]:
    """omega -> (Sigma, Sigma') as n x n arrays for a site vector chi or the
    columns chi_j of a matrix, at one omega or one omega_j per column:

        Sigma_ij  = <chi_i| G_B(omega_j) |chi_j>
                  =  sum_a conj(C_ai) C_aj / (omega_j - w_a),
        Sigma'_ij = -(G_B(omega_j) chi_i)^H (G_B(omega_j) chi_j).

    The amplitude matrix C = U^H [chi_1 ... chi_n] is computed once; each
    evaluation costs O(N n^2) and enforces the pole guard on every omega_j."""
    basis = spectral_basis(model)
    w = basis.w[:, None]
    C = basis.amplitudes(chis).reshape(w.size, -1)
    C_h = C.conj().T

    def sigma(omega: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        denom = np.asarray(omega, dtype=float) - w
        _check_pole(model, omega, denom)
        terms = C / denom
        return C_h @ terms, -(C_h @ (terms / denom))

    return sigma


def _fb_mask(model: LatticeModel, w: np.ndarray, omega_fb: float) -> np.ndarray:
    """Basis states within ``FB_TOL * J`` of omega_fb; raises
    :class:`NoFlatBand` when there are none."""
    mask = np.abs(w - omega_fb) < FB_TOL * model.J
    if not mask.any():
        raise NoFlatBand(
            f"no eigenvalues within {FB_TOL * model.J} of omega = {omega_fb}")
    return mask


def fb_projector(model: LatticeModel, omega_fb: float) -> FlatBandProjector:
    """Sum of eigenprojectors of all states within ``FB_TOL * J`` of omega_fb,
    as a dense N x N matrix from the dense eigensystem (the oracle of
    :func:`fb_weights`).

    The eigenvalues are sorted, so the states are one contiguous slice of U
    (a view, not a copy)."""
    w, U = eigensystem(model)
    sel = np.flatnonzero(_fb_mask(model, w, omega_fb))
    V = U[:, sel[0]:sel[-1] + 1]
    return FlatBandProjector(P=V @ V.conj().T)


def fb_weights(model: LatticeModel, omega_fb: float,
               chi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(inside, outside) flat-band weights of a site vector chi, or of each
    column of a matrix of site vectors: with c = U^H chi in the seam's basis,

        inside  = sum_{a in FB} |c_a|^2 = <chi| P_FB |chi>,
        outside = sum_{a not in FB} |c_a|^2 = ||(1 - P_FB) chi||^2,

    the flat band being the states of :func:`fb_projector`.  One amplitude
    pass and no synthesis; ``outside`` is summed directly, not taken as
    ``|chi|^2 - inside``, so a state inside the flat band reads round-off,
    not a cancellation."""
    basis = spectral_basis(model)
    mask = _fb_mask(model, basis.w, omega_fb)
    c = basis.amplitudes(chi)
    # vecdot sums conj(c_a) c_a per column by a BLAS dot, as np.vdot does
    return (np.vecdot(c[mask], c[mask], axis=0).real,
            np.vecdot(c[~mask], c[~mask], axis=0).real)

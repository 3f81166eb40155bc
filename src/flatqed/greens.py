"""Bath resolvent G_B(omega), self-energy, and flat-band weights and projector.

Every consumer reaches the bath through one seam: a spectral basis of the
model's Hamiltonian, H = U diag(w) U^H, with the maps chi -> c = U^H chi
(amplitudes) and c -> U c (synthesis).  G_B(omega)|chi> = U (c / (omega - w))
costs one amplitude and one synthesis, and the self-energy
<chi|G_B(omega)|chi> = sum_a |c_a|^2 / (omega - w_a) costs O(N) per
evaluation once the weights |c_a|^2 are known.

:func:`spectral_basis` picks the basis.  Disordered models, and clean models
with at most ``DENSE_MAX_SITES`` sites, use the cached dense ``eigh`` of the
real-space Hamiltonian (:func:`eigensystem`); builders with real hoppings
give a real U, which is never cast to complex (complex vectors are split into
real and imaginary parts).  Larger clean models use the Bloch basis
(:func:`bloch_basis`): one batched ``eigh`` of the Q x Q Bloch blocks on the
commensurate k-grid, reached from site space by FFTs over the cell axes, so
no N x N matrix is ever formed (lattice Green's functions as Bloch sums;
Economou, *Green's Functions in Quantum Physics*).  The dense eigensystem
stays the oracle and the basis of the dense flat-band projector.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from flatqed.errors import NoFlatBand, PoleProximity
from flatqed.lattice import (LatticeModel, bloch_hamiltonian,
                             real_space_hamiltonian)
from flatqed.spectrum import default_k_grid

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


@lru_cache(maxsize=4)
def eigensystem(model: LatticeModel) -> tuple[np.ndarray, np.ndarray]:
    """Cached (eigenvalues, eigenvectors) of the real-space Hamiltonian."""
    w, U = np.linalg.eigh(real_space_hamiltonian(model))
    w.setflags(write=False)
    U.setflags(write=False)
    return w, U


def _check_pole(model: LatticeModel, omega: float, w: np.ndarray) -> None:
    guard = POLE_GUARD * model.J
    if np.min(np.abs(omega - w)) < guard:
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
    k-grid (one batched ``eigh`` over every k, cached per model like
    :func:`eigensystem`; an entry holds O(Q N) numbers, not N^2).  This is
    the one place Bloch eigenvectors are computed; ``spectrum.band_structure``
    takes eigenvalues only.

    With the phase convention of ``bloch_hamiltonian``, basis state (k, m)
    is e^{-ik.n} u_k[:, m] / sqrt(N_cells) on cell n; its index is
    k * Q + m, k running over ``default_k_grid``.  Amplitudes are an inverse
    FFT over the cell axes followed by u_k^H; synthesis is u_k followed by an
    FFT (both unitary, ``norm="ortho"``)."""
    w, u = np.linalg.eigh(bloch_hamiltonian(model, default_k_grid(model)))
    u_conj = u.conj()                                     # u: (n_k, Q, Q)
    w = w.reshape(-1)
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
    ``DENSE_MAX_SITES`` sites, the dense eigensystem otherwise.

    Small models stay dense although both bases agree to round-off: the
    recorded 1D results (``benchmarks/golden.json``) fit tails down to
    ``boundstate.AMPLITUDE_FLOOR``, where psi is eigh round-off, so a change
    of basis there moves fitted lengths by up to ~1e-3 relative."""
    if model.disorder is None and model.n_sites > DENSE_MAX_SITES:
        return bloch_basis(model)
    w, U = eigensystem(model)
    return SpectralBasis(w, partial(spectral_amplitudes, U),
                         partial(synthesize, U))


def resolvent_vector(model: LatticeModel, omega: float,
                     chi: np.ndarray) -> np.ndarray:
    """G_B(omega) |chi> for an arbitrary site-space vector |chi>."""
    basis = spectral_basis(model)
    _check_pole(model, omega, basis.w)
    return basis.synthesize(basis.amplitudes(chi) / (omega - basis.w))


def self_energy(model: LatticeModel,
                chi: np.ndarray) -> Callable[[float], tuple[float, float]]:
    """omega -> (Sigma, Sigma'): Sigma = <chi| G_B(omega) |chi> =
    sum_a |c_a|^2 / (omega - w_a), Sigma' = -sum_a |c_a|^2 / (omega - w_a)^2.

    The spectral weights |c_a|^2 are computed once; each evaluation of the
    returned function is an O(N) sum and still enforces the pole guard."""
    basis = spectral_basis(model)
    w = basis.w
    weights = np.abs(basis.amplitudes(chi)) ** 2

    def sigma(omega: float) -> tuple[float, float]:
        _check_pole(model, omega, w)
        denom = omega - w
        terms = weights / denom
        return float(np.sum(terms)), -float(np.sum(terms / denom))

    return sigma


def resolvent_form(model: LatticeModel, omegas: np.ndarray,
                   chis: np.ndarray) -> np.ndarray:
    """M_ij = <chi_i| G_B(omega_j) |chi_j> for the columns chi_j of ``chis``.

    One amplitude matrix C = U^H [chi_1 ... chi_n] serves every entry:
    M_ij = sum_a conj(C_ai) C_aj / (omega_j - w_a).  Each omega_j is checked
    against the pole guard."""
    basis = spectral_basis(model)
    w = basis.w
    omegas = np.asarray(omegas, dtype=float)
    for omega in omegas:
        _check_pole(model, float(omega), w)
    C = basis.amplitudes(chis)
    return C.conj().T @ (C / (omegas[None, :] - w[:, None]))


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

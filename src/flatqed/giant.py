"""Giant atoms: multi-site couplings shaped as CLSs or smooth envelopes.

A giant atom couples to several sites at once; all of its physics is carried
by the normalized site state |chi> with chi(x_l) = g_l / gbar.  When |chi>
lies in the flat-band eigenspace the bath resolvent acts on it as the scalar
1/(omega - omega_FB), making bound states and interactions exact and local.
"""

from __future__ import annotations

import math
import warnings
from typing import Sequence

import numpy as np

from flatqed.boundstate import BoundStateResult, EmitterSpec, bs_wavefunction
from flatqed.flatband import cls_set, reconstruct_from_weights
from flatqed.greens import fb_weights
from flatqed.interactions import InteractionMatrix, _common_emitters
from flatqed.lattice import LatticeModel

ENVELOPE_CUTOFF = 1e-12
FB_MEMBERSHIP_TOL = 1e-8


def _emitter_from_vector(omega0: float, g: float,
                         vec: np.ndarray) -> EmitterSpec:
    """Couplings g_l = g * vec_l / ||vec|| on the support of vec."""
    norm = np.linalg.norm(vec)
    if norm == 0:
        raise ValueError("CLS superposition vanishes")
    vec = vec / norm
    support = np.nonzero(np.abs(vec) > 0)[0]
    couplings = tuple((int(x), complex(g * vec[x])) for x in support)
    return EmitterSpec(omega0=float(omega0), couplings=couplings)


def cls_emitter(model: LatticeModel, omega0: float, g: float,
                cell: Sequence[int] | int) -> EmitterSpec:
    """Giant atom whose site state is exactly the CLS of one cell."""
    w = np.eye(1, model.n_cells, model.cell_index(cell))
    return _emitter_from_vector(
        omega0, g, reconstruct_from_weights(cls_set(model), model, w))


def cls_superposition_emitter(model: LatticeModel, omega0: float, g: float,
                              cells: Sequence[Sequence[int] | int],
                              coeffs: Sequence[complex]) -> EmitterSpec:
    """Giant atom coupled to  sum_n c_n |phi_n>, renormalized to unit norm
    (coefficients of a repeated cell add up).

    Neighbouring CLSs are not orthogonal, so the renormalization uses the
    actual vector norm, not sum |c_n|^2."""
    if len(cells) != len(coeffs):
        raise ValueError("cells and coeffs must have equal length")
    w = np.zeros(model.n_cells, dtype=complex)
    np.add.at(w, [model.cell_index(cell) for cell in cells], coeffs)
    return _emitter_from_vector(
        omega0, g, reconstruct_from_weights(cls_set(model), model, w))


def envelope_emitter(model: LatticeModel, omega0: float, g: float,
                     center: Sequence[int] | int, ell: float) -> EmitterSpec:
    """Giant atom with an exponential envelope of CLSs,  c_n = e^{-r_n/ell}.

    r_n is the distance from n to the center around the periodic lattice
    (the shorter way along each axis), so every cell carries exactly one
    coefficient; coefficients below 1e-12 are dropped."""
    if ell <= 0:
        raise ValueError("envelope length ell must be positive")
    center = np.atleast_1d(center)
    if len(center) != model.dim:
        raise ValueError("center dimension mismatch")
    shape = np.asarray(model.shape)
    d = (np.indices(model.shape).reshape(model.dim, -1).T - center) % shape
    d = np.minimum(d, shape - d)
    # math.exp, not np.exp: the two differ in the last bit
    c = np.array([math.exp(-math.hypot(*r) / ell) for r in d.tolist()])
    w = np.where(c < ENVELOPE_CUTOFF, 0.0, c).astype(complex)
    return _emitter_from_vector(
        omega0, g, reconstruct_from_weights(cls_set(model), model, w))


def fb_membership_defect(model: LatticeModel,
                         chi: np.ndarray) -> float | np.ndarray:
    """|| (1 - P_FB) chi || for a site vector chi, or per column of a matrix
    of site vectors, at the model's flat band: zero iff chi lies in the
    flat-band eigenspace."""
    _inside, outside = fb_weights(model, cls_set(model).omega_fb, chi)
    return np.sqrt(outside)


def _warn_if_outside_flat_band(model: LatticeModel, chi: np.ndarray) -> None:
    """Warn when a site state (a column of chi) is not (numerically) inside
    the flat-band eigenspace: CLS-shaped results then hold only
    approximately."""
    defect = float(np.max(fb_membership_defect(model, chi)))
    if defect > FB_MEMBERSHIP_TOL:
        warnings.warn(
            f"site state leaks out of the flat band (defect {defect:.2e}); "
            "CLS-shaped results are only approximate", stacklevel=3)


def giant_bound_state(model: LatticeModel,
                      emitter: EmitterSpec) -> BoundStateResult:
    """Bound state of a giant atom, psi_BS = gbar G_B(omega0) |chi>.

    Evaluated at the bare frequency (leading order in g), so for chi inside
    the FB eigenspace the photonic part is exactly chi / (omega0 - omega_FB)
    up to normalization.  If the site state is not (numerically) inside the
    flat-band eigenspace a warning is emitted: the CLS-shaped results then
    hold only approximately."""
    _warn_if_outside_flat_band(model, emitter.chi(model.n_sites))
    return bs_wavefunction(model, emitter, omega_bs=emitter.omega0)


def giant_interaction(model: LatticeModel,
                      emitters: Sequence[EmitterSpec]) -> InteractionMatrix:
    """Flat-band-only interaction of FB-member giants:

        K_{nn'} = gbar^2 / (omega0 - omega_FB) * <chi_n | chi_n'>.

    Exact when every chi lies in the FB eigenspace (the resolvent acts as the
    scalar 1/(omega0 - omega_FB) there); all emitters are checked in one
    amplitude pass and a warning raised otherwise.  The emitters must share
    omega0 and |g|, as for :func:`~flatqed.interactions.interaction_matrix`."""
    emitters, omega0, gbar = _common_emitters(model, emitters)
    omega_fb = cls_set(model).omega_fb
    chis = np.column_stack([em.chi(model.n_sites) for em in emitters])
    _warn_if_outside_flat_band(model, chis)
    gram = chis.conj().T @ chis
    K = gbar ** 2 / (omega0 - omega_fb) * gram
    return InteractionMatrix(emitters=emitters, K=K)

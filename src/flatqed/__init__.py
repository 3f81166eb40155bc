"""flatqed: single-excitation quantum optics of emitters coupled to flat-band photonic lattices.

Numerical library and CLI covering tight-binding lattice models hosting flat
bands, atom-photon bound states, compact-localized-state (CLS) algebra,
closed-form localization lengths, photon-mediated interactions (including
giant atoms), and exact single-excitation dynamics.
"""

from flatqed.errors import (
    ConfigError,
    InsufficientData,
    NoFlatBand,
    NoRootInGap,
    PoleProximity,
    SingularF,
    UnsupportedLattice,
)
from flatqed.lattice import (
    DisorderSpec,
    LatticeModel,
    apply_disorder,
    bloch_hamiltonian,
    build_chain,
    build_checkerboard,
    build_double_comb,
    build_kagome1d,
    build_sawtooth,
    build_stub,
    model_from_spec,
    real_space_hamiltonian,
    site_index,
)
from flatqed.spectrum import (
    BandStructure,
    band_structure,
    default_k_grid,
)
from flatqed.greens import (
    FlatBandProjector,
    eigensystem,
    fb_projector,
    resolvent_vector,
)
from flatqed.flatband import (
    ClsSet,
    bs_cls_weights,
    cls_set,
    lambda_1d,
    lambda_2d,
    projector_cls_expansion,
    settsech,
    xi_2d_axis,
    xi_analytic_1d,
    xi_numeric,
)
from flatqed.boundstate import (
    BoundStateResult,
    EmitterSpec,
    bs_wavefunction,
    localization_length_fit,
    solve_pole,
)
from flatqed.interactions import (
    InteractionMatrix,
    SpinTrace,
    interaction_matrix,
    spin_dynamics,
)
from flatqed.giant import (
    cls_emitter,
    cls_superposition_emitter,
    envelope_emitter,
    giant_bound_state,
    giant_interaction,
)
from flatqed.dynamics import (
    TimeSeries,
    evolve,
    fit_rabi_frequency,
    rabi_frequency,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

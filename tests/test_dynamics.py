import math

import numpy as np
import pytest
from scipy.linalg import expm

from flatqed.boundstate import EmitterSpec, small_atom, total_hamiltonian
from flatqed.dynamics import (evolve, fit_rabi_frequency, propagate,
                              rabi_frequency)
from flatqed.giant import cls_emitter
from flatqed.lattice import build_chain, build_sawtooth, build_stub


def test_decoupled_emitter_stays_excited():
    model = build_sawtooth(10)
    em = EmitterSpec(omega0=0.5, couplings=((0, 0.0),))
    ts = evolve(model, [em], 0, np.linspace(0, 50, 101))
    assert np.allclose(ts.atom_populations[:, 0], 1.0, atol=1e-12)


def test_single_cavity_vacuum_rabi():
    """Resonant Jaynes-Cummings: P_e(t) = cos^2(g t)."""
    g = 0.02
    model = build_chain(1, onsite=0.0)
    em = small_atom(model, 0.0, g, 0, "a")
    t = np.linspace(0, 2 * math.pi / g, 401)
    ts = evolve(model, [em], 0, t)
    assert np.max(np.abs(ts.atom_populations[:, 0] - np.cos(g * t) ** 2)) < 1e-12


def test_norm_conserved_and_photon_populations():
    model = build_sawtooth(20)
    em = small_atom(model, -1.9, 0.1, 10, "a")
    ts = evolve(model, [em], 0, np.linspace(0, 100, 51), store_photons=True)
    assert ts.norm_residual < 1e-10
    total = ts.atom_populations.sum(axis=1) + ts.photon_populations.sum(axis=1)
    assert np.allclose(total, 1.0, atol=1e-10)


def test_atom_populations_do_not_hold_the_photon_field():
    model = build_sawtooth(20)
    em = small_atom(model, -1.9, 0.1, 10, "a")
    ts = evolve(model, [em], 0, np.linspace(0, 100, 51))
    assert ts.atom_populations.shape == (51, 1)
    assert ts.atom_populations.base is None


def test_sawtooth_rabi_frequency_value():
    """On FB resonance from an a-site: Omega/g = sqrt(1 - 1/sqrt(3))."""
    g = 1e-3
    model = build_sawtooth(40)
    em = small_atom(model, -2.0, g, 20, "a")
    Omega = rabi_frequency(model, em, -2.0)
    assert Omega / g == pytest.approx(math.sqrt(1 - 1 / math.sqrt(3)), rel=1e-10)


def test_rabi_fit_matches_projector_formula():
    g = 1e-3
    model = build_sawtooth(40)
    em = small_atom(model, -2.0, g, 20, "a")
    Omega = rabi_frequency(model, em, -2.0)
    t = np.linspace(0, 1.3 * math.pi / Omega, 4001)
    ts = evolve(model, [em], 0, t)
    fitted = fit_rabi_frequency(ts)
    assert fitted == pytest.approx(Omega, rel=2e-3)
    # population follows cos^2(Omega t) over one period
    period = t <= math.pi / Omega
    assert np.max(np.abs(ts.atom_populations[period, 0]
                         - np.cos(Omega * t[period]) ** 2)) < 1e-3


def test_giant_cls_rabi_is_exactly_g():
    """chi inside the FB eigenspace: <chi|P|chi> = 1 so Omega = g."""
    g = 1e-3
    model = build_sawtooth(30)
    em = cls_emitter(model, -2.0, g, 15)
    assert rabi_frequency(model, em, -2.0) == pytest.approx(g, rel=1e-10)


def test_stub_b_site_no_rabi():
    """The b sublattice has no FB weight: no oscillations on resonance."""
    model = build_stub(30, Delta=4.0)
    em = small_atom(model, 0.0, 1e-3, 15, "b")
    assert rabi_frequency(model, em, 0.0) < 1e-8
    ts = evolve(model, [em], 0, np.linspace(0, 1e3, 501))
    assert np.max(np.abs(ts.atom_populations[:, 0] - 1.0)) < 1e-6


def test_dispersive_population_bound():
    """Detuned from the FB by delta >> g: the population dip is bounded by
    the FB term 4(Omega/delta)^2 plus the dispersive-band admixture
    ~(g/gap)^2 (the distance to the dispersive band is 2J - delta)."""
    g, delta = 1e-3, 0.1
    model = build_sawtooth(30)
    em = small_atom(model, -2.0 + delta, g, 15, "a")
    Omega = rabi_frequency(model, em, -2.0)
    ts = evolve(model, [em], 0, np.linspace(0, 2e3, 801))
    bound = 1.0 - 4 * (Omega / delta) ** 2 - 4 * (g / (2.0 - delta)) ** 2
    assert np.min(ts.atom_populations[:, 0]) >= bound


def test_evolve_validates_initial():
    model = build_chain(4)
    em = small_atom(model, -2.1, 1e-2, 0, "a")
    with pytest.raises(ValueError):
        evolve(model, [em], 3, np.array([0.0]))
    with pytest.raises(ValueError):
        evolve(model, [em], np.zeros(3), np.array([0.0]))


def test_fit_requires_minimum():
    model = build_chain(1)
    em = small_atom(model, 0.0, 1e-3, 0, "a")
    ts = evolve(model, [em], 0, np.linspace(0, 1.0, 11))  # << Rabi period
    with pytest.raises(ValueError):
        fit_rabi_frequency(ts)


def test_propagate_real_and_complex_paths_agree():
    """A diagonal gauge D H D^dag makes the Hamiltonian complex without
    changing site populations: the real path (eigh of H.real) and the
    complex path must agree, conserve the norm, and match expm."""
    model = build_sawtooth(8)
    em = small_atom(model, -1.9, 0.1, 4, "a")
    H = total_hamiltonian(model, [em])
    dim = H.shape[0]
    phase = np.exp(1j * np.linspace(0.0, 2.0, dim))
    H_gauge = phase[:, None] * H * phase.conj()[None, :]
    assert not H.imag.any() and H_gauge.imag.any()
    c0 = np.zeros(dim, dtype=complex)
    c0[[0, 3]] = (0.6, 0.8j)
    t = np.linspace(0.0, 30.0, 61)
    amps, res = propagate(H, c0, t)
    amps_g, res_g = propagate(H_gauge, phase * c0, t)
    assert res < 1e-12 and res_g < 1e-12
    assert np.max(np.abs(np.abs(amps) ** 2 - np.abs(amps_g) ** 2)) < 1e-12
    for i in (7, 60):
        exact = expm(-1j * H * t[i]) @ c0
        assert np.max(np.abs(amps[i] - exact)) < 1e-10
        assert np.max(np.abs(amps_g[i] - phase * exact)) < 1e-10

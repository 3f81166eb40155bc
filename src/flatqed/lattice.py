"""Tight-binding photonic lattice models.

A :class:`LatticeModel` stores a Bravais lattice (1D or 2D, periodic), a set of
sublattices with on-site energies, and a Hermitian-closed hopping list.  Each
hopping entry ``(nu, nup, offset, amp)`` stands for the term

    amp * a^dag_{nu, n} a_{nup, n + offset}  +  h.c.

summed over all cells ``n`` (periodic wrap on every axis).  Models are
immutable and hashable, so eigendecompositions can be cached per model.

A flat-band builder also attaches the compact localized state (CLS) that
spans its flat band, as a :class:`ClsSet` next to the hoppings that produce
it (flat-band lattices generated from their CLS: Maimaiti et al., PRB 95,
115135 (2017)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from flatqed.errors import ConfigError, UnsupportedLattice

Hopping = tuple[int, int, tuple[int, ...], complex]
StencilEntry = tuple[int, tuple[int, ...], float]


@dataclass(frozen=True)
class DisorderSpec:
    """Uniform disorder drawn on [-strength, +strength] with a fixed seed
    (a non-negative int or numpy integer).

    ``kind`` is ``"diagonal"`` (on-site energies) or ``"off-diagonal"``
    (hopping magnitudes only; Hermiticity and any chiral symmetry of the
    hopping pattern are preserved).
    """

    kind: str
    strength: float
    seed: int

    def __post_init__(self) -> None:
        if self.kind not in ("diagonal", "off-diagonal"):
            raise ConfigError(f"unknown disorder kind {self.kind!r}")
        if not (math.isfinite(2.0 * self.strength) and self.strength >= 0):
            raise ConfigError("disorder strength must be finite and >= 0, "
                              "with the draw's width 2 * strength finite")
        if (not isinstance(self.seed, (int, np.integer))
                or isinstance(self.seed, bool) or self.seed < 0):
            raise ConfigError(f"disorder seed must be an integer >= 0, "
                              f"got {self.seed!r}")


@dataclass(frozen=True)
class ClsSet:
    """Per-cell compact-localized-state stencil of a flat band at omega_fb.

    ``stencil`` lists (sublattice id, cell offset, coefficient); the CLS of
    cell n is the translate of the stencil by n."""

    omega_fb: float
    stencil: tuple[StencilEntry, ...]

    @property
    def alphas(self) -> tuple[float, ...]:
        """Signed nearest-neighbour overlaps <phi_0|phi_{e_d}> per direction d:
        the sum of conj(c) c' over stencil entries on the same sublattice
        whose offsets differ by e_d (c the phi_0 coefficient)."""
        dim = len(self.stencil[0][1])
        steps = [tuple(int(i == d) for i in range(dim)) for d in range(dim)]
        return tuple(
            sum((c.conjugate() * cp
                 for s, o, c in self.stencil for sp, op, cp in self.stencil
                 if s == sp and tuple(a - b for a, b in zip(o, op)) == step), 0.0)
            for step in steps)


@dataclass(frozen=True)
class LatticeModel:
    """Immutable tight-binding model on a periodic 1D or 2D lattice."""

    name: str
    dim: int
    shape: tuple[int, ...]           # cells per axis
    sublattices: tuple[str, ...]
    onsite: tuple[float, ...]        # per sublattice, units of J
    hoppings: tuple[Hopping, ...]    # one entry per bond; h.c. implied
    J: float
    cls: ClsSet | None = None        # flat-band CLS of the clean model
    disorder: DisorderSpec | None = None

    def __post_init__(self) -> None:
        if self.dim not in (1, 2) or len(self.shape) != self.dim:
            raise ConfigError("dimension/shape mismatch")
        if len(self.onsite) != self.Q:
            raise ConfigError("one on-site energy per sublattice required")
        if not 0 < self.J < math.inf:
            raise ConfigError("J must be positive and finite")
        amps = [*self.onsite, *(amp for *_ignore, amp in self.hoppings)]
        if not np.isfinite(np.asarray(amps, dtype=complex)).all():
            raise ConfigError("on-site energies and hoppings must be finite")
        for nu, nup, off, _amp in self.hoppings:
            if not (0 <= nu < self.Q and 0 <= nup < self.Q):
                raise ConfigError("hopping sublattice index out of range")
            if len(off) != self.dim:
                raise ConfigError("hopping offset dimension mismatch")
            if any(abs(o) >= n for o, n in zip(off, self.shape)):
                raise ConfigError("hopping offset wraps onto itself")

    @property
    def Q(self) -> int:
        return len(self.sublattices)

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.shape))

    @property
    def n_sites(self) -> int:
        return self.Q * self.n_cells

    def cell_index(self, cell: Sequence[int] | int) -> int:
        """Linear index of a cell (lexicographic, periodic wrap)."""
        cell = np.atleast_1d(cell)
        if len(cell) != self.dim:
            raise ConfigError("cell coordinate dimension mismatch")
        return int(np.ravel_multi_index(tuple(cell), self.shape, mode="wrap"))

    def sublattice_id(self, sub: str | int) -> int:
        if isinstance(sub, (int, np.integer)):
            if not 0 <= sub < self.Q:
                raise ConfigError(
                    f"sublattice id {sub} outside range({self.Q})")
            return int(sub)
        try:
            return self.sublattices.index(sub)
        except ValueError:
            raise ConfigError(f"unknown sublattice {sub!r}") from None


def site_index(model: LatticeModel, cell: Sequence[int] | int, sub: str | int) -> int:
    """Flat site index: sites are ordered cell-major, sublattice-minor."""
    return model.cell_index(cell) * model.Q + model.sublattice_id(sub)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def build_chain(N: int, J: float = 1.0, onsite: float = 0.0) -> LatticeModel:
    """Homogeneous chain (Q=1): single band  onsite + 2J cos k.

    ``N == 1`` is allowed as the degenerate single-cavity case (no hopping);
    ``N == 2`` is rejected (the wrap bond would coincide with the direct one).
    """
    if N != 1 and N < 3:
        raise ConfigError("chain requires N = 1 or N >= 3")
    hops: tuple[Hopping, ...] = () if N == 1 else ((0, 0, (1,), J),)
    return LatticeModel("chain", 1, (N,), ("a",), (onsite,), hops, J)


def build_sawtooth(N: int, J: float = 1.0) -> LatticeModel:
    """Sawtooth lattice (Q=2): flat band at -2J, dispersive band 2J(1+cos k).

    Hopping signs (+J between b neighbours, +sqrt(2) J on the a-b zigzag) are
    fixed so that the flat band sits at -2J below the dispersive band.
    """
    if N < 4:
        raise ConfigError("sawtooth requires N >= 4")
    s2 = math.sqrt(2.0)
    hops: tuple[Hopping, ...] = (
        (1, 1, (1,), J),        # b_n -- b_{n+1}
        (0, 1, (0,), s2 * J),   # a_n -- b_n
        (0, 1, (-1,), s2 * J),  # a_n -- b_{n-1}
    )
    # CLS: a_n + a_{n+1} - sqrt(2) b_n, normalized
    h = 0.5
    cls = ClsSet(-2.0 * J, ((0, (0,), h), (0, (1,), h), (1, (0,), -s2 * h)))
    return LatticeModel("sawtooth", 1, (N,), ("a", "b"), (0.0, 0.0), hops, J,
                        cls)


def build_stub(N: int, J: float = 1.0, Delta: float = 4.0) -> LatticeModel:
    """Stub lattice (Q=3): bands {0, +-J sqrt(Delta + 2(1+cos k))}.

    The a-sublattice is side-coupled to b with rate J sqrt(Delta); Delta = 0
    closes the gap (band touching at k = pi).
    """
    if N < 4:
        raise ConfigError("stub requires N >= 4")
    if Delta < 0:
        raise ConfigError("require Delta >= 0")
    hops: tuple[Hopping, ...] = (
        (0, 1, (0,), math.sqrt(Delta) * J),  # a_n -- b_n
        (1, 2, (0,), J),                     # b_n -- c_n
        (2, 1, (1,), J),                     # c_n -- b_{n+1}
    )
    # CLS: a_n + a_{n+1} - sqrt(Delta) c_n, normalized
    norm = 1.0 / math.sqrt(2.0 + Delta)
    cls = ClsSet(0.0, ((0, (0,), norm), (0, (1,), norm),
                       (2, (0,), -math.sqrt(Delta) * norm)))
    return LatticeModel(
        "stub", 1, (N,), ("a", "b", "c"), (0.0, 0.0, 0.0), hops, J, cls)


def build_double_comb(N: int, J: float = 1.0, t: float = 1.0,
                      omega_c: float = 0.0) -> LatticeModel:
    """Double-comb lattice (Q=3): two side cavities a, b at frequency omega_c
    hanging off every site of a c-chain.  Exact flat band at omega_c with
    orthogonal CLSs (|a_n> - |b_n>)/sqrt(2)."""
    if N < 3:
        raise ConfigError("double-comb requires N >= 3")
    if t <= 0:
        raise ConfigError("require t > 0")
    hops: tuple[Hopping, ...] = (
        (0, 2, (0,), t),   # a_n -- c_n
        (1, 2, (0,), t),   # b_n -- c_n
        (2, 2, (1,), J),   # c_n -- c_{n+1}
    )
    r = 1.0 / math.sqrt(2.0)
    cls = ClsSet(float(omega_c), ((0, (0,), r), (1, (0,), -r)))
    return LatticeModel(
        "doublecomb", 1, (N,), ("a", "b", "c"),
        (float(omega_c), float(omega_c), 0.0), hops, J, cls)


def build_kagome1d(N: int, J: float = 1.0) -> LatticeModel:
    """1D analog of the Kagome lattice (Q=5): flat band at +2J touching the
    upper edge of a dispersive band quadratically."""
    if N < 4:
        raise ConfigError("kagome1d requires N >= 4")
    # sublattices a,b,c,d,e = 0..4
    hops: tuple[Hopping, ...] = (
        (0, 1, (0,), J),    # + a_n b_n
        (1, 2, (0,), -J),   # - b_n c_n
        (2, 3, (0,), -J),   # - c_n d_n
        (3, 4, (0,), J),    # + d_n e_n
        (4, 2, (1,), -J),   # - e_n c_{n+1}
        (2, 0, (-1,), -J),  # - c_{n+1} a_n
        (0, 1, (1,), -J),   # - a_n b_{n+1}
        (3, 4, (-1,), -J),  # - d_{n+1} e_n
    )
    # CLS: c_n + c_{n+1} - a_n - b_n - d_n - e_n, normalized
    r = 1.0 / math.sqrt(6.0)
    cls = ClsSet(2.0 * J, ((2, (0,), r), (2, (1,), r), (0, (0,), -r),
                           (1, (0,), -r), (3, (0,), -r), (4, (0,), -r)))
    return LatticeModel(
        "kagome1d", 1, (N,), ("a", "b", "c", "d", "e"), (0.0,) * 5, hops, J,
        cls)


def build_checkerboard(Nx: int, Ny: int, J: float = 1.0) -> LatticeModel:
    """2D checkerboard lattice (Q=2): flat band at 0 touching the dispersive
    band 2J(2 - cos kx - cos ky) quadratically at the Gamma point.

    Bloch form H_k = omega_d(k) I - J v_k v_k^dag with
    v_k = (1 - e^{-i kx}, 1 - e^{i ky}).
    """
    if Nx < 4 or Ny < 4:
        raise ConfigError("checkerboard requires Nx, Ny >= 4")
    hops: tuple[Hopping, ...] = (
        (0, 0, (0, 1), -J),    # a_n -- a_{n+y}
        (1, 1, (1, 0), -J),    # b_n -- b_{n+x}
        (0, 1, (0, 0), -J),
        (0, 1, (1, 0), J),
        (0, 1, (0, 1), J),
        (0, 1, (1, 1), -J),
    )
    # CLS on one plaquette: a_n - a_{n-x} + b_n - b_{n+y}, normalized
    h = 0.5
    cls = ClsSet(0.0, ((0, (0, 0), h), (0, (-1, 0), -h), (1, (0, 0), h),
                       (1, (0, 1), -h)))
    return LatticeModel(
        "checkerboard", 2, (Nx, Ny), ("a", "b"), (2.0 * J, 2.0 * J), hops, J,
        cls)


# name -> (builder, dimension, spec params passed on to the builder); the
# builder signatures supply every default
_BUILDERS = {
    "chain": (build_chain, 1, ()),
    "sawtooth": (build_sawtooth, 1, ()),
    "stub": (build_stub, 1, ("Delta",)),
    "doublecomb": (build_double_comb, 1, ("t", "omega_c")),
    "kagome1d": (build_kagome1d, 1, ()),
    "checkerboard": (build_checkerboard, 2, ()),
}
MODELS = tuple(_BUILDERS)   # the names model_from_spec accepts


def model_from_spec(spec: Mapping) -> LatticeModel:
    """Build a model from a JSON-style dict.

    Schema: ``{"model": name, "N": int or [Nx, Ny], "J": float,
    "params": {"Delta"|"t"|"omega_c": float}, "disorder": {"kind": ...,
    "strength": float, "seed": int}}``.  ``N`` is an int (a square lattice
    in 2D) or one cell count per dimension.  Malformed input, including a
    param the model does not take, raises :class:`ConfigError`.
    """
    try:
        name = spec["model"]
    except KeyError:
        raise ConfigError("lattice spec missing 'model'") from None
    if name not in _BUILDERS:
        raise ConfigError(f"unknown lattice model {name!r}")
    builder, dim, accepted = _BUILDERS[name]
    N = spec.get("N")
    if N is None:
        raise ConfigError("lattice spec missing 'N'")
    shape = [N] * dim if np.isscalar(N) else list(N)
    if len(shape) != dim:
        raise ConfigError(f"{name} is {dim}-dimensional; N must be an int "
                          f"or a list of length {dim}, got {N!r}")
    try:
        params = dict(spec.get("params", {}))
        unknown = sorted(set(params) - set(accepted))
        if unknown:
            raise ConfigError(f"{name} takes no params {unknown}; "
                              f"it accepts {list(accepted)}")
        kwargs = {p: float(v) for p, v in params.items()}
        if "J" in spec:
            kwargs["J"] = float(spec["J"])
        cells = [int(n) for n in shape]
        if cells != shape:
            raise ConfigError(f"cell counts must be integers, got {N!r}")
        model = builder(*cells, **kwargs)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad lattice spec: {exc}") from exc
    dis = spec.get("disorder")
    if dis:
        if not isinstance(dis, Mapping) or not {"kind", "strength"} <= dis.keys():
            raise ConfigError("disorder spec needs 'kind' and 'strength'")
        seed = dis.get("seed", 0)
        try:
            strength = float(dis["strength"])
            if int(seed) != seed:
                raise ValueError(f"seed must be an integer, got {seed!r}")
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad disorder spec: {exc}") from exc
        model = apply_disorder(model, DisorderSpec(dis["kind"], strength,
                                                   int(seed)))
    return model


# ---------------------------------------------------------------------------
# Hamiltonians
# ---------------------------------------------------------------------------

def _is_real(model: LatticeModel) -> bool:
    return all(complex(amp).imag == 0.0 for *_ignore, amp in model.hoppings)


def bipartite_sites(model: LatticeModel) -> tuple[np.ndarray, np.ndarray] | None:
    """Site indices (A, B) of a two-colouring of the sublattices in which
    every hopping joins the two colours, the larger colour first; ``None``
    when the model has no hopping or no such colouring exists (an odd cycle
    of sublattices, or a hopping within one sublattice).

    Off-diagonal disorder keeps the colouring, so a model with zero on-site
    energies stays chiral, H = [[0, T], [T^H, 0]] in (A, B) order, and has
    at least n_A - n_B exact zero modes (Lieb, PRL 62, 1201 (1989))."""
    if not model.hoppings:
        return None
    colour = [-1] * model.Q
    for root in range(model.Q):
        if colour[root] >= 0:
            continue
        colour[root] = 0
        todo = [root]
        while todo:
            s = todo.pop()
            for nu, nup, _off, _amp in model.hoppings:
                if s not in (nu, nup):
                    continue
                other = nup if s == nu else nu
                if colour[other] < 0:
                    colour[other] = 1 - colour[s]
                    todo.append(other)
                elif colour[other] == colour[s]:
                    return None
    sites = np.tile(colour, model.n_cells)
    A, B = np.flatnonzero(sites == 0), np.flatnonzero(sites == 1)
    return (A, B) if len(A) >= len(B) else (B, A)


def _disorder_draws(model: LatticeModel) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Deterministic disorder draws (diagonal per site, off-diagonal per bond)."""
    if model.disorder is None:
        return None, None
    rng = np.random.default_rng(model.disorder.seed)
    d = model.disorder.strength
    if model.disorder.kind == "diagonal":
        return rng.uniform(-d, d, size=model.n_sites), None
    n_bonds = model.n_cells * len(model.hoppings)
    return None, rng.uniform(-d, d, size=n_bonds)


def _hopping_entries(model: LatticeModel
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, vals) of every off-diagonal entry of the real-space
    Hamiltonian, in the order they are summed.

    Bonds are numbered cell-major, hopping-minor (the order of the
    off-diagonal disorder draws); each bond gives t at (i, j) and then t* at
    (j, i).  Wrap-around can repeat an (i, j), so the entries are summed
    with one ordered scatter (``np.add.at``)."""
    Q, n_hops = model.Q, len(model.hoppings)
    dtype = float if _is_real(model) else complex
    _diag_dis, hop_dis = _disorder_draws(model)
    cell = np.arange(model.n_cells)
    coords = np.indices(model.shape).reshape(model.dim, -1)
    rows = np.empty((model.n_cells, n_hops, 2), dtype=np.intp)
    vals = np.empty((model.n_cells, n_hops, 2), dtype=dtype)
    for h, (nu, nup, off, amp) in enumerate(model.hoppings):
        target = np.ravel_multi_index(
            tuple(coords + np.asarray(off)[:, None]), model.shape, mode="wrap")
        t = complex(amp) if dtype is complex else float(np.real(amp))
        if hop_dis is not None and t != 0:
            t = t * (abs(t) + hop_dis[h::n_hops]) / abs(t)
        rows[:, h, 0] = cell * Q + nu
        rows[:, h, 1] = target * Q + nup
        vals[:, h, 0] = t
        vals[:, h, 1] = np.conj(t)
    return rows.ravel(), rows[..., ::-1].ravel(), vals.ravel()


def real_space_hamiltonian(model: LatticeModel) -> np.ndarray:
    """Dense Hermitian single-excitation Hamiltonian over all sites: the
    on-site energies and diagonal disorder, then the ordered scatter of
    :func:`_hopping_entries`."""
    n, Q = model.n_sites, model.Q
    H = np.zeros((n, n), dtype=float if _is_real(model) else complex)
    diag_dis, _hop_dis = _disorder_draws(model)
    for s, eps in enumerate(model.onsite):
        idx = np.arange(s, n, Q)
        H[idx, idx] += eps
    if diag_dis is not None:
        H[np.arange(n), np.arange(n)] += diag_dis
    rows, cols, vals = _hopping_entries(model)
    np.add.at(H, (rows, cols), vals)
    return H


def bloch_hamiltonian(model: LatticeModel,
                      k: float | Sequence[float] | np.ndarray) -> np.ndarray:
    """Q x Q Bloch Hamiltonian at wavevector k (components in [-pi, pi)).

    ``k`` has shape (D,) (a scalar is accepted in 1D) or, for a batch of
    wavevectors, (..., D); the result then has shape (..., Q, Q).

    Convention: a hopping ``amp * a^dag_{nu,n} a_{nup,n+off}`` contributes
    ``amp * exp(-i k . off)`` to ``H_k[nu, nup]`` (plus Hermitian conjugate),
    so real-space eigenvalues on the commensurate grid coincide with the union
    of Bloch eigenvalues.  The phase is the product over axes of
    exp(-i k_d off_d), one complex exponential per distinct (axis, offset
    component), exact at the quarter turns (:func:`_unit_phases`); a single
    k is evaluated as a batch of one, so it matches its row of any batch
    bit for bit.  The result is a view of entry-major storage: each
    H[..., nu, nup] is one contiguous array over the batch.  The blocks are
    assembled by :func:`_bloch_blocks`, which ``spectrum._bloch_eigh``
    shares with the same phases tabulated per axis of ``default_k_grid``,
    so its solved blocks are this function's on that grid bit for bit.
    """
    kv = np.asarray(k, dtype=float)
    if kv.ndim == 0:
        kv = kv[None]
    if kv.shape[-1] != model.dim:
        raise ConfigError("wavevector dimension mismatch")
    kf = kv.reshape(-1, model.dim)
    H = _bloch_blocks(model, lambda d, o: _unit_phases(o * kf[:, d]),
                      len(kf))
    return np.moveaxis(H.reshape(H.shape[:2] + kv.shape[:-1]), (0, 1), (-2, -1))


def _unit_phases(theta: np.ndarray) -> np.ndarray:
    """exp(-i theta) of a float array, exactly 1, -i, -1 or i where theta is
    an integer multiple of the float pi/2, so that a block at k_d = 0 or pi
    is as real as its hoppings (e^{-i pi} would be -1 - 1.2e-16i)."""
    quarter = np.rint(theta / (np.pi / 2))
    exact = theta - quarter * (np.pi / 2) == 0    # false for inf and nan
    phases = np.exp(-1j * theta)
    phases[exact] = np.array([1, -1j, -1, 1j])[quarter[exact].astype(int) % 4]
    return phases


def _bloch_blocks(model: LatticeModel,
                  phase: Callable[[int, int], np.ndarray],
                  n: int) -> np.ndarray:
    """Entry-major Bloch blocks of shape (Q, Q, n) for a batch of n
    wavevectors, ``phase(d, o)`` giving exp(-i k_d o) over the batch; it is
    called once per distinct (axis, non-zero offset component).  Both
    callers take the phase as :func:`_unit_phases` of o k_d, per k or read
    from a per-axis table."""
    if model.disorder is not None:
        raise UnsupportedLattice("Bloch Hamiltonian undefined for disordered models")
    components = {(d, o) for *_ignore, off, _amp in model.hoppings
                  for d, o in enumerate(off) if o != 0}
    factor = {c: phase(*c) for c in components}
    H = np.zeros((model.Q, model.Q, n), dtype=complex)
    for s, eps in enumerate(model.onsite):
        H[s, s] = eps
    for nu, nup, off, amp in model.hoppings:
        term = amp
        for d, o in enumerate(off):
            if o != 0:
                term = term * factor[d, o]
        H[nu, nup] += term
        H[nup, nu] += np.conj(term)
    return H


def apply_disorder(model: LatticeModel, spec: DisorderSpec) -> LatticeModel:
    """Return a disordered copy of the model (deterministic given the seed).

    Strength 0 returns the model unchanged.  Disorder is realized when the
    real-space Hamiltonian is assembled; diagonal disorder shifts on-site
    energies site-by-site, off-diagonal disorder shifts hopping magnitudes
    bond-by-bond (leaving on-site energies untouched).
    """
    if spec.strength == 0:
        return model
    if model.disorder is not None:
        raise ConfigError("model already carries disorder")
    return replace(model, disorder=spec)

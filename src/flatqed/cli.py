"""Batch command-line front end.

Subcommands: bands, boundstate, loclen, xi, interactions, giants, dynamics,
disorder.  Results go to CSV (header row, 17-significant-digit floats) or
JSON; reruns with identical config and seed are byte-identical.  Exit codes:
0 success, 2 configuration error, 3 numerical failure (error name on stderr).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from typing import Sequence

import numpy as np

from flatqed.boundstate import (bs_wavefunction, localization_length_fit,
                                omega0_for_detuning, small_atom)
from flatqed.dynamics import evolve, fit_rabi_frequency, rabi_frequency
from flatqed.errors import ConfigError, FlatQedError, UnsupportedLattice
from flatqed.flatband import cls_set, xi_analytic_1d, xi_numeric
from flatqed.giant import cls_emitter, giant_interaction
from flatqed.greens import eigenvalues
from flatqed.interactions import InteractionMatrix, interaction_matrix
from flatqed.lattice import (MODELS, DisorderSpec, LatticeModel,
                             apply_disorder, model_from_spec)
from flatqed.spectrum import band_structure, flat_band_width_real_space

# ---------------------------------------------------------------------------
# parsing helpers
# ---------------------------------------------------------------------------


def _parse_cell(text: str) -> tuple[int, ...]:
    """'50' -> (50,);  '10,12' -> (10, 12)."""
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad cell syntax {text!r}; expected n or n,m") from exc


def _parse_site(text: str) -> tuple[str, tuple[int, ...]]:
    """'a:50' -> ('a', (50,));  'b:10,12' -> ('b', (10, 12))."""
    try:
        sub, cell_text = text.split(":")
        return sub, _parse_cell(cell_text)
    except (ValueError, ConfigError) as exc:
        raise ConfigError(f"bad site syntax {text!r}; expected sub:cell") from exc


def _parse_scan(text: str) -> list[float]:
    """'start:stop:spacing:count' with spacing linear|log."""
    parts = text.split(":")
    if len(parts) != 4:
        raise ConfigError(f"bad scan syntax {text!r}; expected start:stop:spacing:count")
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[3])
    except ValueError as exc:
        raise ConfigError(f"bad scan numbers in {text!r}") from exc
    spacing = parts[2]
    if count < 1:
        raise ConfigError("scan count must be >= 1")
    if spacing == "linear":
        return list(np.linspace(start, stop, count))
    if spacing == "log":
        if start <= 0 or stop <= 0:
            raise ConfigError("log scan needs positive endpoints")
        return list(np.geomspace(start, stop, count))
    raise ConfigError(f"unknown scan spacing {spacing!r}")


def _model(args: argparse.Namespace) -> LatticeModel:
    """The model named by the flags: ``--N 40`` is a square lattice in 2D,
    ``--N 40x30`` gives one cell count per axis.  Only the model parameters
    given on the command line are passed on, so the builder signatures
    supply every default and a parameter the model does not take is a
    configuration error."""
    try:
        shape = [int(p) for p in args.N.lower().split("x")]
    except ValueError as exc:
        raise ConfigError(f"bad lattice size {args.N!r}") from exc
    params = {"Delta": args.Delta, "t": args.t, "omega_c": args.omega_c}
    return model_from_spec({
        "model": args.model, "N": shape[0] if len(shape) == 1 else shape,
        "J": args.J,
        "params": {k: v for k, v in params.items() if v is not None}})


def _omega0(model: LatticeModel, args: argparse.Namespace) -> float:
    if args.omega0 is not None:
        return args.omega0
    if args.delta is None:
        raise ConfigError("provide --omega0 or --delta")
    return omega0_for_detuning(model, args.delta, reference=args.detune_from)


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write_rows(rows: list[dict], fieldnames: list[str],
                out: str | None, fmt: str) -> None:
    """Write the rows as JSON or CSV text, to ``out`` or to stdout."""
    if fmt == "json":
        text = json.dumps(
            [{k: (_fmt(r[k]) if isinstance(r[k], float) else r[k])
              for k in fieldnames} for r in rows],
            indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(fieldnames)
        writer.writerows([_fmt(r[k]) for k in fieldnames] for r in rows)
        text = buf.getvalue()
    if out:
        try:
            with open(out, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(
                f"cannot write output {out!r}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _write_K(K: InteractionMatrix, args: argparse.Namespace) -> None:
    """One ``i,j,re,im`` row per entry of the K matrix."""
    rows = [{"i": i, "j": j,
             "re": float(K.K[i, j].real), "im": float(K.K[i, j].imag)}
            for i in range(K.n) for j in range(K.n)]
    _write_rows(rows, ["i", "j", "re", "im"], args.out, args.format)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_bands(args: argparse.Namespace) -> None:
    model = _model(args)
    bs = band_structure(model)
    rows = []
    for i, k in enumerate(bs.k_grid):
        for m in range(bs.n_bands):
            row = {f"k{d}": float(k[d]) for d in range(model.dim)}
            row.update(band=m, energy=float(bs.bands[m, i]))
            rows.append(row)
    fields = [f"k{d}" for d in range(model.dim)] + ["band", "energy"]
    _write_rows(rows, fields, args.out, args.format)


def _cmd_boundstate(args: argparse.Namespace) -> None:
    model = _model(args)
    omega0 = _omega0(model, args)
    sub, cell = args.site
    res = bs_wavefunction(model, small_atom(model, omega0, args.g, cell, sub))
    rows = [{
        "omega0": omega0,
        "omega_bs": res.omega_bs,
        "residual": res.pole_residual,
        "c_e": res.c_e,
        "photon_weight": 1.0 - res.c_e ** 2,
    }]
    _write_rows(rows, list(rows[0]), args.out, args.format)


def _cmd_loclen(args: argparse.Namespace) -> None:
    if args.omega0 is not None:
        raise ConfigError("loclen scans the detuning: give --delta or "
                          "--scan-delta, not --omega0")
    deltas = args.scan_delta or [args.delta]
    if deltas == [None]:
        raise ConfigError("provide --delta or --scan-delta")
    sub, cell = args.site
    model = _model(args)
    rows = []
    for d in deltas:
        omega0 = omega0_for_detuning(model, d, reference=args.detune_from)
        res = bs_wavefunction(model,
                              small_atom(model, omega0, args.g, cell, sub))
        lam, r2 = localization_length_fit(res, model, args.fit_sub or sub,
                                          axis=args.axis)
        rows.append({"delta": float(d), "omega0": omega0,
                     "omega_bs": res.omega_bs, "lambda": lam, "r2": r2})
    _write_rows(rows, list(rows[0]), args.out, args.format)


def _cmd_xi(args: argparse.Namespace) -> None:
    alphas = tuple(args.alpha)
    if args.dim != len(alphas):
        if len(alphas) == 1 and args.dim == 2:
            alphas = (alphas[0], alphas[0])
        else:
            raise ConfigError("--alpha count must match --dim")
    if args.max_dist < 0:
        raise ConfigError("--max-dist must be >= 0")
    if args.compare and args.dim != 1:
        raise ConfigError("--compare needs --dim 1 (the closed form is 1D)")
    rows = []
    for d in range(args.max_dist + 1):
        dn = (d,) if args.dim == 1 else (d, 0)
        num = xi_numeric(alphas, dn, n_k=args.nk)
        row = {"d": d, "xi_numeric": num}
        if args.compare:
            ana = xi_analytic_1d(alphas[0], d)
            row.update(xi_analytic=ana, abs_err=abs(num - ana))
        rows.append(row)
    _write_rows(rows, list(rows[0]), args.out, args.format)


def _cmd_interactions(args: argparse.Namespace) -> None:
    if len(args.site) < 2:
        raise ConfigError("interactions needs at least two --site entries")
    model = _model(args)
    omega0 = _omega0(model, args)
    emitters = [small_atom(model, omega0, args.g, cell, sub)
                for sub, cell in args.site]
    _write_K(interaction_matrix(model, emitters, exact_pole=args.exact_pole),
             args)


def _cmd_giants(args: argparse.Namespace) -> None:
    if not args.cls:
        raise ConfigError("giants needs at least one --cls entry")
    model = _model(args)
    omega0 = _omega0(model, args)
    emitters = [cls_emitter(model, omega0, args.g, cell) for cell in args.cls]
    _write_K(giant_interaction(model, emitters), args)


def _cmd_dynamics(args: argparse.Namespace) -> None:
    if not np.isfinite(args.tmax):      # before np.linspace warns on inf
        raise ValueError("times must be finite")
    model = _model(args)
    if args.omega0 is None and args.delta is None:
        omega0 = cls_set(model).omega_fb     # resonant with the flat band
    else:
        omega0 = _omega0(model, args)
    sub, cell = args.site
    em = small_atom(model, omega0, args.g, cell, sub)
    t_grid = np.linspace(0.0, args.tmax, args.nt)
    ts = evolve(model, [em], 0, t_grid)
    # the report can fail (exit 2), so it is formed before any row is written
    report = (f"rabi_predicted={_fmt(rabi_frequency(model, em))} "
              f"rabi_fitted={_fmt(fit_rabi_frequency(ts))}\n"
              if args.report_rabi else "")
    rows = [{"t": float(t), "population": float(p)}
            for t, p in zip(ts.t_grid, ts.atom_populations[:, 0])]
    _write_rows(rows, ["t", "population"], args.out, args.format)
    sys.stderr.write(report)


def _cmd_disorder(args: argparse.Namespace) -> None:
    if args.seeds < 0:
        raise ConfigError("--seeds must be >= 0")
    if not 0 < args.zero_tol < np.inf:
        raise ConfigError("--zero-tol must be finite and > 0")
    model = _model(args)
    cls = cls_set(model)
    rows = []
    for seed in range(args.seeds):
        spec = DisorderSpec(kind=args.kind, strength=args.strength, seed=seed)
        dis = apply_disorder(model, spec)
        w = eigenvalues(dis)
        n_zero = int(np.sum(np.abs(w - cls.omega_fb) < args.zero_tol))
        width = flat_band_width_real_space(w, model.n_cells,
                                           center=cls.omega_fb)
        rows.append({"seed": seed, "n_flat_modes": n_zero, "fb_width": width})
    _write_rows(rows, ["seed", "n_flat_modes", "fb_width"], args.out, args.format)


# ---------------------------------------------------------------------------
# argument parser
# ---------------------------------------------------------------------------


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True, choices=MODELS)
    p.add_argument("--N", required=True,
                   help="number of unit cells, e.g. 100 or 40x40")
    p.add_argument("--J", type=float, default=1.0, help="hopping scale")
    p.add_argument("--Delta", type=float, default=None,
                   help="stub coupling ratio parameter")
    p.add_argument("--omega-c", dest="omega_c", type=float, default=None,
                   help="doublecomb cavity frequency")
    p.add_argument("--t", type=float, default=None,
                   help="doublecomb comb-to-chain coupling")


def _add_output_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=["csv", "json"], default="csv")


def _add_emitter_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--g", type=float, default=1e-3, help="coupling strength")
    p.add_argument("--omega0", type=float, default=None,
                   help="emitter frequency (overrides --delta)")
    p.add_argument("--delta", type=float, default=None,
                   help="detuning into the gap")
    p.add_argument("--detune-from", dest="detune_from", default="fb",
                   choices=["fb", "lower_edge"],
                   help="reference energy for --delta")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flatqed",
        description="Flat-band waveguide-QED experiments (batch, CSV/JSON output).")
    parser.add_argument("--config", default=None,
                        help="JSON file of flags (overridden by explicit flags)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bands", help="Bloch band structure on the commensurate grid")
    _add_model_args(p)
    _add_output_args(p)
    p.set_defaults(func=_cmd_bands)

    p = sub.add_parser("boundstate", help="solve the bound-state pole for one emitter")
    _add_model_args(p)
    _add_emitter_args(p)
    _add_output_args(p)
    p.add_argument("--site", required=True, type=_parse_site,
                   help="coupling site, e.g. a:50")
    p.set_defaults(func=_cmd_boundstate)

    p = sub.add_parser("loclen", help="localization length vs detuning")
    _add_model_args(p)
    _add_emitter_args(p)
    _add_output_args(p)
    p.add_argument("--site", required=True, type=_parse_site,
                   help="coupling site, e.g. a:50")
    p.add_argument("--scan-delta", dest="scan_delta", default=None,
                   type=_parse_scan,
                   help="detuning scan start:stop:spacing:count")
    p.add_argument("--fit-sub", dest="fit_sub", default=None,
                   help="sublattice for the tail fit (default: coupling sublattice)")
    p.add_argument("--axis", type=int, default=0, help="fit axis (2D lattices)")
    p.set_defaults(func=_cmd_loclen)

    p = sub.add_parser("xi", help="CLS weight function xi(d)")
    _add_output_args(p)
    p.add_argument("--alpha", type=float, nargs="+", required=True,
                   help="CLS overlap(s), one per dimension")
    p.add_argument("--dim", type=int, choices=[1, 2], default=1)
    p.add_argument("--max-dist", dest="max_dist", type=int, default=10)
    p.add_argument("--nk", type=int, default=4096, help="BZ grid points per axis")
    p.add_argument("--compare", action="store_true",
                   help="add the 1D closed form and the absolute error")
    p.set_defaults(func=_cmd_xi)

    p = sub.add_parser("interactions", help="photon-mediated K matrix of small atoms")
    _add_model_args(p)
    _add_emitter_args(p)
    _add_output_args(p)
    p.add_argument("--site", action="append", default=[], type=_parse_site,
                   help="coupling site (repeatable)")
    p.add_argument("--exact-pole", dest="exact_pole", action="store_true")
    p.set_defaults(func=_cmd_interactions)

    p = sub.add_parser("giants", help="flat-band interaction of CLS-coupled giants")
    _add_model_args(p)
    _add_emitter_args(p)
    _add_output_args(p)
    p.add_argument("--cls", action="append", default=[], type=_parse_cell,
                   help="CLS cell, e.g. 10 or 10,12 (repeatable)")
    p.set_defaults(func=_cmd_giants)

    p = sub.add_parser("dynamics", help="exact single-excitation evolution")
    _add_model_args(p)
    _add_emitter_args(p)
    _add_output_args(p)
    p.add_argument("--site", required=True, type=_parse_site,
                   help="coupling site, e.g. a:50")
    p.add_argument("--tmax", type=float, required=True)
    p.add_argument("--nt", type=int, default=1001)
    p.add_argument("--report-rabi", dest="report_rabi", action="store_true",
                   help="print predicted and fitted Rabi frequencies to stderr")
    p.set_defaults(func=_cmd_dynamics)

    p = sub.add_parser("disorder", help="flat-band robustness across disorder seeds")
    _add_model_args(p)
    _add_output_args(p)
    p.add_argument("--kind", choices=["diagonal", "off-diagonal"], required=True)
    p.add_argument("--strength", type=float, required=True)
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--zero-tol", dest="zero_tol", type=float, default=1e-10)
    p.set_defaults(func=_cmd_disorder)

    return parser


def _apply_config_file(argv: Sequence[str]) -> list[str]:
    """Expand --config file.json into flags placed before the explicit ones."""
    argv = list(argv)
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    try:
        path = argv[i + 1]
    except IndexError as exc:
        raise ConfigError("--config needs a file path") from exc
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    if not isinstance(cfg, dict) or "command" not in cfg:
        raise ConfigError("config must be an object with a 'command' key")
    flags: list[str] = [str(cfg["command"])]
    for key, value in cfg.items():
        if key == "command":
            continue
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool):
            if value:
                flags.append(flag)
        elif isinstance(value, list):
            for v in value:
                flags.extend([flag, str(v)])
        else:
            flags.extend([flag, str(value)])
    # explicit flags after the config expansion win in argparse
    rest = argv[:i] + argv[i + 2:]
    return flags + rest


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        argv = _apply_config_file(argv)
        parser = build_parser()
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            # argparse exits 2 on bad usage and 0 on --help; pass both through
            return int(exc.code or 0)
        args.func(args)
    except (ConfigError, UnsupportedLattice, ValueError) as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return 2
    except FlatQedError as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

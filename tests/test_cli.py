import csv
import json
import math
import warnings

import numpy as np
import pytest

from flatqed import greens
from flatqed.boundstate import omega0_for_detuning, small_atom
from flatqed.cli import _model, build_parser, main
from flatqed.interactions import interaction_matrix
from flatqed.lattice import (DisorderSpec, apply_disorder, build_chain,
                             build_checkerboard, build_double_comb,
                             build_kagome1d, build_sawtooth, build_stub)
from flatqed.spectrum import flat_band_width_real_space


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_bands_shape(tmp_path, capsys):
    out = tmp_path / "bands.csv"
    code, _o, _e = run(["bands", "--model", "sawtooth", "--N", "256",
                        "--J", "1", "--out", str(out)], capsys)
    assert code == 0
    rows = read_csv(out)
    assert len(rows) == 2 * 256          # 2 bands x 256 k-points
    assert set(rows[0]) == {"k0", "band", "energy"}
    code, out, _e = run(["bands", "--model", "checkerboard", "--N", "8"],
                        capsys)
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert len(rows) == 2 * 64           # 2 bands x 8 x 8 k-points
    assert set(rows[0]) == {"k0", "k1", "band", "energy"}


def test_loclen_scan(tmp_path, capsys):
    out = tmp_path / "loclen.csv"
    for scan, deltas in (("1e-3:1e-1:log:7", np.geomspace(1e-3, 1e-1, 7)),
                         ("1e-2:1e-1:linear:3", np.linspace(1e-2, 1e-1, 3))):
        code, _o, _e = run(["loclen", "--model", "sawtooth", "--N", "100",
                            "--site", "a:50", "--g", "1e-3",
                            "--scan-delta", scan, "--out", str(out)], capsys)
        assert code == 0
        rows = read_csv(out)
        assert [float(row["delta"]) for row in rows] == list(deltas)
        for row in rows:
            assert abs(float(row["lambda"]) - 0.759) / 0.759 < 0.03


def test_xi_compare(capsys):
    code, out, _e = run(["xi", "--alpha", "0.25", "--dim", "1",
                         "--max-dist", "10", "--compare"], capsys)
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert len(rows) == 11
    for row in rows:
        assert float(row["abs_err"]) < 1e-8


def test_byte_identical_reruns(tmp_path, capsys):
    args = ["disorder", "--model", "stub", "--N", "12", "--kind", "diagonal",
            "--strength", "0.1", "--seeds", "5"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run(args + ["--out", str(a)], capsys)[0] == 0
    assert run(args + ["--out", str(b)], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("kind", ["diagonal", "off-diagonal"])
def test_disorder_rows_need_no_eigenvectors(kind, capsys):
    """Counts and widths equal those from the dense eigensystem, and the
    sweep leaves nothing in its cache.  Off-diagonal disorder keeps the
    stub chiral: its N zero modes are exact, so the width is 0.0."""
    greens.eigensystem.cache_clear()
    code, out, _e = run(["disorder", "--model", "stub", "--N", "12",
                         "--kind", kind, "--strength", "0.5", "--seeds", "3"],
                        capsys)
    assert code == 0
    assert greens.eigensystem.cache_info().currsize == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert len(rows) == 3
    clean = build_stub(12)
    omega_fb = clean.cls.omega_fb
    for seed, row in enumerate(rows):
        dis = apply_disorder(clean, DisorderSpec(kind, 0.5, seed))
        w = greens.eigensystem(dis)[0]
        assert int(row["n_flat_modes"]) == int(np.sum(np.abs(w - omega_fb) < 1e-10))
        width = flat_band_width_real_space(w, clean.n_cells, center=omega_fb)
        assert abs(float(row["fb_width"]) - width) < 1e-12
        if kind == "off-diagonal":
            assert float(row["fb_width"]) == 0.0


@pytest.mark.parametrize("argv,lo,hi", [
    (["boundstate", "--model", "sawtooth", "--N", "50", "--delta", "1e-2",
      "--site", "a:25"], -2.0, 0.0),
    (["boundstate", "--model", "chain", "--N", "50", "--delta", "0.1",
      "--detune-from", "lower_edge", "--site", "a:25", "--g", "10"],
     -math.inf, -2.0),
], ids=["sawtooth-bounded-gap", "chain-below-the-band"])
def test_boundstate_row_solves_the_pole(argv, lo, hi, capsys):
    """The pole lies in the gap the emitter is detuned into: the sawtooth's
    gap between its flat band (-2) and the dispersive band (from 0), and
    the unbounded side below the chain's band, far below it at g = 10."""
    code, out, _e = run(argv, capsys)
    assert code == 0
    [row] = list(csv.DictReader(out.splitlines()))
    omega_bs = float(row["omega_bs"])
    assert lo < omega_bs < hi
    assert abs(float(row["residual"])) <= 1e-12 * abs(omega_bs)


@pytest.mark.parametrize("flags,exact", [([], False),
                                         (["--exact-pole"], True)],
                         ids=["at-omega0", "exact-pole"])
def test_interactions_rows_are_the_library_K(flags, exact, capsys):
    """Each i,j row is K_ij from ``interaction_matrix`` to the last digit,
    at omega0 or at each emitter's solved pole with ``--exact-pole``."""
    code, out, _e = run(["interactions", "--model", "sawtooth", "--N", "50",
                         "--delta", "1e-2", "--site", "a:25",
                         "--site", "a:27"] + flags, capsys)
    assert code == 0
    model = build_sawtooth(50)
    omega0 = omega0_for_detuning(model, 1e-2)
    K = interaction_matrix(model, [small_atom(model, omega0, 1e-3, c, "a")
                                   for c in (25, 27)], exact_pole=exact).K
    rows = list(csv.DictReader(out.splitlines()))
    assert [(int(r["i"]), int(r["j"])) for r in rows] == [
        (0, 0), (0, 1), (1, 0), (1, 1)]
    assert [complex(float(r["re"]), float(r["im"])) for r in rows] == \
        K.reshape(-1).tolist()


def test_interactions_output(capsys):
    code, out, _e = run(["interactions", "--model", "doublecomb", "--N", "20",
                         "--delta", "1e-3", "--g", "1e-3",
                         "--site", "a:5", "--site", "b:5"], capsys)
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert len(rows) == 4


def test_giants_json(capsys):
    code, out, _e = run(["giants", "--model", "sawtooth", "--N", "40",
                         "--delta", "0.05", "--g", "1e-3",
                         "--cls", "10", "--cls", "11",
                         "--format", "json"], capsys)
    assert code == 0
    recs = json.loads(out)
    assert len(recs) == 4
    k01 = next(r for r in recs if r["i"] == 0 and r["j"] == 1)
    k00 = next(r for r in recs if r["i"] == 0 and r["j"] == 0)
    assert float(k01["re"]) / float(k00["re"]) == pytest.approx(0.25)


def test_dynamics_runs(tmp_path, capsys):
    out = tmp_path / "dyn.csv"
    code, _o, _e = run(["dynamics", "--model", "sawtooth", "--N", "20",
                        "--site", "a:10", "--g", "1e-3",
                        "--tmax", "100", "--nt", "11",
                        "--out", str(out)], capsys)
    assert code == 0
    rows = read_csv(out)
    assert len(rows) == 11
    assert float(rows[0]["population"]) == pytest.approx(1.0)


def test_detuned_dynamics_reports_rabi_at_the_flat_band(capsys):
    """The predicted Rabi frequency is taken at the model's flat band, not
    at the detuned emitter frequency, and the run exits 0."""
    code, _o, err = run(["dynamics", "--model", "sawtooth", "--N", "100",
                         "--site", "a:50", "--tmax", "6000", "--nt", "601",
                         "--delta", "1e-4", "--report-rabi"], capsys)
    assert code == 0
    fields = dict(item.split("=") for item in err.split())
    assert float(fields["rabi_predicted"]) == pytest.approx(
        1e-3 * math.sqrt(1.0 - 1.0 / math.sqrt(3.0)), rel=1e-12)


def test_report_rabi_without_flat_band_exit_2(capsys):
    code, _o, err = run(["dynamics", "--model", "chain", "--N", "50",
                         "--site", "a:25", "--tmax", "100", "--nt", "11",
                         "--omega0", "-2.5", "--report-rabi"], capsys)
    assert code == 2
    assert "UnsupportedLattice" in err


def test_report_rabi_without_oscillation_exit_2(capsys):
    """A stub b-site has no flat-band weight: its population never falls
    more than ~5e-7 below 1, and that wiggle is no Rabi half-period."""
    code, out, err = run(["dynamics", "--model", "stub", "--N", "30",
                          "--site", "b:10", "--tmax", "500", "--nt", "50",
                          "--report-rabi"], capsys)
    assert code == 2
    assert out == ""           # the failing report leaves no partial table
    assert "no population minimum" in err
    assert "rabi_fitted" not in err


def test_report_rabi_failure_writes_no_file(tmp_path, capsys):
    out = tmp_path / "f.csv"
    code, _o, err = run(["dynamics", "--model", "stub", "--N", "30",
                         "--site", "b:10", "--tmax", "500", "--nt", "50",
                         "--report-rabi", "--out", str(out)], capsys)
    assert code == 2
    assert "no population minimum" in err
    assert not out.exists()


def test_config_error_exit_2(capsys):
    for scan, message in (("bad", "bad scan syntax"),
                          ("1e-3:x:log:3", "bad scan numbers"),
                          ("1e-3:1e-1:cubic:3", "unknown scan spacing")):
        code, _o, err = run(["loclen", "--model", "sawtooth", "--N", "100",
                             "--site", "a:50", "--scan-delta", scan], capsys)
        assert code == 2
        assert "ConfigError" in err and message in err


def test_bad_site_syntax_exit_2(capsys):
    code, _o, err = run(["boundstate", "--model", "sawtooth", "--N", "20",
                         "--site", "nonsense", "--delta", "0.01"], capsys)
    assert code == 2


@pytest.mark.parametrize("cell", ["1x", "1,", "a:1"])
def test_bad_cls_cell_syntax_exit_2(cell, capsys):
    """A ``--cls`` cell is parsed like the cell of a ``--site``: a
    malformed one is a configuration error, not an uncaught int()."""
    code, out, err = run(["giants", "--model", "sawtooth", "--N", "40",
                          "--delta", "0.05", "--cls", cell], capsys)
    assert code == 2
    assert out == "" and f"ConfigError: bad cell syntax {cell!r}" in err


def test_numerical_failure_exit_3(capsys):
    # fit window too small on a tiny lattice -> InsufficientData
    code, _o, err = run(["loclen", "--model", "sawtooth", "--N", "12",
                         "--site", "a:6", "--delta", "1e-2"], capsys)
    assert code == 3
    assert "InsufficientData" in err


@pytest.mark.parametrize("argv", [
    ["disorder", "--model", "stub", "--N", "10", "--kind", "diagonal",
     "--strength", "nan", "--seeds", "1"],
    ["disorder", "--model", "stub", "--N", "10", "--kind", "diagonal",
     "--strength", "inf", "--seeds", "1"],
    ["boundstate", "--model", "stub", "--N", "10", "--Delta", "nan",
     "--delta", "0.01", "--site", "a:5"],
    ["boundstate", "--model", "stub", "--N", "10", "--Delta", "inf",
     "--delta", "0.01", "--site", "a:5"],
    ["boundstate", "--model", "doublecomb", "--N", "10", "--t", "nan",
     "--delta", "0.01", "--site", "a:5"],
    ["boundstate", "--model", "doublecomb", "--N", "10", "--omega-c", "nan",
     "--delta", "0.01", "--site", "a:5"],
    ["boundstate", "--model", "stub", "--N", "10", "--delta", "nan",
     "--site", "a:5"],
    ["boundstate", "--model", "stub", "--N", "10", "--delta", "0.01",
     "--g", "nan", "--site", "a:5"],
    ["xi", "--alpha", "nan"],
    ["dynamics", "--model", "sawtooth", "--N", "20", "--site", "a:10",
     "--tmax", "nan", "--nt", "5"],
    ["dynamics", "--model", "sawtooth", "--N", "20", "--site", "a:10",
     "--tmax", "inf", "--nt", "5"],
    ["disorder", "--model", "stub", "--N", "8", "--kind", "off-diagonal",
     "--strength", "0.5", "--seeds", "2", "--zero-tol", "nan"],
    ["disorder", "--model", "stub", "--N", "8", "--kind", "off-diagonal",
     "--strength", "0.5", "--seeds", "2", "--zero-tol", "inf"],
], ids=["strength-nan", "strength-inf", "Delta-nan", "Delta-inf", "t-nan",
        "omega_c-nan", "delta-nan", "g-nan", "alpha-nan", "tmax-nan",
        "tmax-inf", "zero-tol-nan", "zero-tol-inf"])
def test_nonfinite_parameter_exit_2(argv, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(argv, capsys)
    assert code == 2
    assert out == "" and "must be finite" in err
    assert caught == []


@pytest.mark.parametrize("argv,message", [
    (["boundstate", "--model", "sawtooth", "--N", "20", "--site", "a:3",
      "--delta", "1e-3", "--g", "1e300"], "ValueError: emitter coupling"),
    (["disorder", "--model", "stub", "--N", "10", "--kind", "diagonal",
      "--strength", "1e308", "--seeds", "1"], "ConfigError: disorder strength"),
], ids=["g-squared-overflows", "draw-width-overflows"])
def test_finite_parameter_that_overflows_exit_2(argv, message, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == "" and message in err


@pytest.mark.parametrize("argv", [
    ["giants", "--model", "sawtooth", "--N", "40", "--omega0", "-2",
     "--cls", "10", "--cls", "11"],
    ["giants", "--model", "stub", "--N", "20", "--omega0", "0", "--cls", "3"],
], ids=["sawtooth", "stub"])
def test_giants_at_the_flat_band_exit_3(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 3
    assert out == "" and "PoleProximity" in err


@pytest.mark.parametrize("argv", [
    ["xi", "--alpha", "0.2", "--max-dist", "-1"],
    ["loclen", "--model", "sawtooth", "--N", "20", "--delta", "0.01",
     "--site", "a:3", "--axis", "1"],
    ["disorder", "--model", "stub", "--N", "8", "--kind", "off-diagonal",
     "--strength", "0.5", "--seeds", "2", "--zero-tol", "-1"],
    ["disorder", "--model", "stub", "--N", "8", "--kind", "off-diagonal",
     "--strength", "0.5", "--seeds", "2", "--zero-tol", "0"],
    ["loclen", "--model", "sawtooth", "--N", "20", "--site", "a:3",
     "--scan-delta", "0:1e-1:log:3"],
], ids=["max-dist-negative", "axis-beyond-dim", "zero-tol-negative",
        "zero-tol-zero", "log-scan-from-zero"])
def test_out_of_range_argument_exit_2(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == "" and "ConfigError" in err


@pytest.mark.parametrize("argv,message", [
    (["xi", "--alpha", "0.2", "--nk", "0"], "ValueError: n_k must be >= 1"),
    (["xi", "--dim", "2", "--alpha", "0.2", "--nk", "-3"],
     "ValueError: n_k must be >= 1"),
    (["disorder", "--model", "stub", "--N", "8", "--kind", "diagonal",
      "--strength", "0.1", "--seeds", "-2"],
     "ConfigError: --seeds must be >= 0"),
    (["loclen", "--model", "sawtooth", "--N", "20", "--site", "a:3",
      "--scan-delta", "1e-3:1e-1:linear:0"],
     "ConfigError: scan count must be >= 1"),
    (["xi", "--dim", "1", "--alpha", "0.1", "0.2"],
     "ConfigError: --alpha count must match --dim"),
    (["interactions", "--model", "sawtooth", "--N", "20", "--delta", "0.01",
      "--site", "a:3"],
     "ConfigError: interactions needs at least two --site entries"),
    (["giants", "--model", "sawtooth", "--N", "20", "--delta", "0.01"],
     "ConfigError: giants needs at least one --cls entry"),
], ids=["xi-nk-0", "xi-2d-nk-negative", "disorder-seeds-negative",
        "scan-count-0", "xi-alpha-count", "interactions-one-site",
        "giants-no-cls"])
def test_bad_count_exit_2(argv, message, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == "" and message in err


@pytest.mark.parametrize("argv,message", [
    (["giants", "--cls", "1x"], "ConfigError: bad cell syntax '1x'"),
    (["giants"], "ConfigError: giants needs at least one --cls entry"),
    (["interactions", "--site", "a:1"],
     "ConfigError: interactions needs at least two --site entries"),
    (["interactions", "--site", "a:1", "--site", "1x"],
     "ConfigError: bad site syntax '1x'"),
    (["boundstate", "--site", "a"], "ConfigError: bad site syntax 'a'"),
    (["dynamics", "--site", "a:1:2", "--tmax", "1"],
     "ConfigError: bad site syntax 'a:1:2'"),
    (["loclen", "--site", "a1"], "ConfigError: bad site syntax 'a1'"),
    (["loclen", "--site", "a:1", "--scan-delta", "1e-3:1e-1:cubic:3"],
     "ConfigError: unknown scan spacing 'cubic'"),
], ids=["giants-bad-cls", "giants-no-cls", "interactions-one-site",
        "interactions-bad-site", "boundstate-bad-site", "dynamics-bad-site",
        "loclen-bad-site", "loclen-bad-scan"])
def test_malformed_flags_exit_2_before_any_spectrum(argv, message,
                                                    monkeypatch, capsys):
    """Site, cell and scan texts and the emitter counts are checked before
    the 1000-site model is decomposed."""
    def no_spectrum(model):
        raise AssertionError("spectrum built before the flags were checked")

    monkeypatch.setattr(greens, "eigensystem", no_spectrum)
    code, out, err = run(argv[:1] + ["--model", "sawtooth", "--N", "500",
                                     "--delta", "0.05"] + argv[1:], capsys)
    assert code == 2
    assert out == "" and message in err


@pytest.mark.parametrize("flags", [
    ["--scan-delta", "1e-3:1e-1:log:3"], ["--delta", "0.5"]],
    ids=["scan", "one-delta"])
def test_loclen_rejects_omega0(flags, capsys):
    """loclen scans the detuning: a fixed --omega0 would label every row
    with a detuning it was not computed at."""
    code, out, err = run(["loclen", "--model", "sawtooth", "--N", "40",
                          "--site", "a:20", "--omega0", "-2.01"] + flags,
                         capsys)
    assert code == 2
    assert out == "" and "ConfigError" in err and "--omega0" in err


@pytest.mark.parametrize("argv", [
    ["xi", "--alpha", "0.2", "--max-dist", "2"],
    ["boundstate", "--model", "sawtooth", "--N", "50", "--delta", "1e-2",
     "--site", "a:25", "--format", "json"],
], ids=["xi-csv", "boundstate-json"])
def test_unwritable_out_exit_2(argv, tmp_path, capsys):
    path = str(tmp_path / "missing" / "x.out")
    code, out, err = run(argv + ["--out", path], capsys)
    assert code == 2
    assert out == "" and f"ConfigError: cannot write output {path!r}" in err


def test_disorder_without_seeds_is_an_empty_table(capsys):
    code, out, _e = run(["disorder", "--model", "stub", "--N", "8", "--kind",
                         "diagonal", "--strength", "0.1", "--seeds", "0"],
                        capsys)
    assert code == 0
    assert out.splitlines() == ["seed,n_flat_modes,fb_width"]


def test_xi_compare_in_2d_exit_2(capsys):
    """The closed form is 1D only: --compare with --dim 2 is an error, not
    a table without the columns it asked for."""
    code, out, err = run(["xi", "--alpha", "0.15", "--dim", "2",
                          "--max-dist", "3", "--compare"], capsys)
    assert code == 2
    assert out == "" and "ConfigError" in err and "--compare" in err


@pytest.mark.parametrize("flags,code", [
    (["--alpha", "0.6"], 3),
    (["--alpha", "-0.7"], 3),
    (["--dim", "2", "--alpha", "0.3"], 3),
    (["--dim", "2", "--alpha", "-0.26"], 3),
    (["--dim", "2", "--alpha", "-0.24"], 0),
], ids=["1d-0.6", "1d-minus-0.7", "2d-0.3", "2d-minus-0.26", "2d-minus-0.24"])
def test_xi_needs_a_positive_gram_symbol(flags, code, capsys):
    """f(k) = 1 + 2 alpha sum_i cos k_i is positive only for |alpha| < 1/2
    in 1D and |alpha| < 1/4 in 2D; elsewhere xi is a numerical failure."""
    rc, out, err = run(["xi", "--max-dist", "3"] + flags, capsys)
    assert rc == code
    if code == 3:
        assert out == "" and "SingularF" in err
    else:
        rows = list(csv.DictReader(out.splitlines()))
        assert len(rows) == 4
        assert all(math.isfinite(float(r["xi_numeric"])) for r in rows)


def test_missing_detuning_exit_2(capsys):
    code, _o, err = run(["boundstate", "--model", "sawtooth", "--N", "20",
                         "--site", "a:10"], capsys)
    assert code == 2
    code, out, err = run(["loclen", "--model", "sawtooth", "--N", "20",
                          "--site", "a:10"], capsys)
    assert code == 2
    assert out == "" and "provide --delta or --scan-delta" in err


def test_config_file_expansion(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "command": "xi", "alpha": 0.25, "dim": 1,
        "max-dist": 4, "compare": True}))
    code, out, _e = run(["--config", str(cfg)], capsys)
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert len(rows) == 5
    # a list value is one flag with all its values
    cfg.write_text(json.dumps({
        "command": "interactions", "model": "sawtooth", "N": 20,
        "delta": 0.01, "site": ["a:5", "a:7"]}))
    code, out, _e = run(["--config", str(cfg)], capsys)
    assert code == 0
    assert len(list(csv.DictReader(out.splitlines()))) == 4


def test_config_list_fills_multi_value_flag(tmp_path, capsys):
    """A config list fills --alpha with all its values, as the flag form
    does; one --site with several values is the repeated flag; a list for a
    single-valued --site is a usage error."""
    flags = ["--dim", "2", "--max-dist", "2", "--nk", "64"]
    code, want, _e = run(["xi", "--alpha", "0.2", "0.05"] + flags, capsys)
    assert code == 0
    assert want.splitlines()[1] == "0,1.0995643681322691"
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"command": "xi", "alpha": [0.2, 0.05],
                               "dim": 2, "max_dist": 2, "nk": 64}))
    assert run(["--config", str(cfg)], capsys)[:2] == (0, want)
    base = ["interactions", "--model", "sawtooth", "--N", "20",
            "--delta", "0.01"]
    one = run(base + ["--site", "a:5", "a:7"], capsys)
    assert one[0] == 0
    assert one == run(base + ["--site", "a:5", "--site", "a:7"], capsys)
    cfg.write_text(json.dumps({"command": "boundstate", "model": "sawtooth",
                               "N": 20, "delta": 0.01,
                               "site": ["a:5", "a:7"]}))
    code, out, _e = run(["--config", str(cfg)], capsys)
    assert code == 2 and out == ""


def test_bad_config_file(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("not json")
    code, _o, err = run(["--config", str(cfg)], capsys)
    assert code == 2
    for text in ('["xi"]', '{"alpha": 0.2}'):
        cfg.write_text(text)
        code, _o, err = run(["--config", str(cfg)], capsys)
        assert code == 2
        assert "config must be an object with a 'command' key" in err
    code, _o, err = run(["--config"], capsys)
    assert code == 2
    assert "--config needs a file path" in err


@pytest.mark.parametrize("argv,code", [(["bands", "--model", "chain"], 2),
                                       (["--help"], 0)],
                         ids=["usage-error", "help"])
def test_argparse_exit_passes_through(argv, code, monkeypatch, capsys):
    """``main()`` reads ``sys.argv`` as the console script does, and returns
    argparse's own exit status instead of raising SystemExit."""
    monkeypatch.setattr("sys.argv", ["flatqed"] + argv)
    assert main() == code
    out, err = capsys.readouterr()
    assert ("usage: flatqed" in err) if code else ("usage: flatqed" in out)


@pytest.mark.parametrize("flags,direct", [
    (["--model", "chain", "--N", "9", "--J", "0.7"],
     lambda: build_chain(9, J=0.7)),
    (["--model", "sawtooth", "--N", "12", "--J", "1.3"],
     lambda: build_sawtooth(12, J=1.3)),
    (["--model", "stub", "--N", "10", "--J", "0.9", "--Delta", "2.5"],
     lambda: build_stub(10, J=0.9, Delta=2.5)),
    (["--model", "doublecomb", "--N", "8", "--J", "1.1", "--t", "1.4",
      "--omega-c", "0.3"],
     lambda: build_double_comb(8, J=1.1, t=1.4, omega_c=0.3)),
    (["--model", "kagome1d", "--N", "6", "--J", "2.0"],
     lambda: build_kagome1d(6, J=2.0)),
    (["--model", "checkerboard", "--N", "6x5", "--J", "0.5"],
     lambda: build_checkerboard(6, 5, J=0.5)),
    (["--model", "stub", "--N", "8"], lambda: build_stub(8)),
    (["--model", "doublecomb", "--N", "8"], lambda: build_double_comb(8)),
], ids=["chain", "sawtooth", "stub", "doublecomb", "kagome1d",
        "checkerboard", "stub-defaults", "doublecomb-defaults"])
def test_cli_models_equal_direct_builder_calls(flags, direct):
    args = build_parser().parse_args(["bands"] + flags)
    assert _model(args) == direct()


def test_cli_param_the_model_does_not_take_exit_2(capsys):
    code, _o, err = run(["bands", "--model", "sawtooth", "--N", "8",
                         "--Delta", "2"], capsys)
    assert code == 2
    assert "ConfigError" in err and "Delta" in err


def test_cli_square_checkerboard_from_one_size():
    args = build_parser().parse_args(["bands", "--model", "checkerboard",
                                      "--N", "5"])
    assert _model(args) == build_checkerboard(5, 5)


@pytest.mark.parametrize("model,size", [("chain", "10x10"),
                                        ("checkerboard", "4x4x4"),
                                        ("sawtooth", "ten")])
def test_cli_wrong_lattice_dimension_exit_2(model, size, capsys):
    code, _o, err = run(["bands", "--model", model, "--N", size], capsys)
    assert code == 2
    assert "ConfigError" in err

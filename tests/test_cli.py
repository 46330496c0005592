"""End-to-end tests of the command-line front end."""
import json
import os
import stat

import numpy as np
import pytest

from nhwind import (Band, Boundary, Gauge, band_winding, chain_spectrum,
                    classify, lee, localization_profile, loop_period,
                    spectrum_scan, winding_report)
from nhwind.berry import (AmbiguousTracking, NoClosure, _check_normalization,
                          _zone_step)
from nhwind.bloch import _check_finite
from nhwind.cli import _build_parser, main
from nhwind.lattice import SIDES, MatchFailure, _check_cells


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    meta, header, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


def test_winding_defaults_to_json(capsys):
    code, out, _ = run_cli(capsys, ["winding", "--model", "demo",
                                    "--gauge", "first", "--grid", "1024",
                                    "--lee-normalization", "0.5"])
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["model"] == "demo"
    assert payload["meta"]["gauge"] == "first"
    assert payload["columns"] == ["period_over_pi", "raw_integral",
                                  "gamma_b", "w", "lee_normalization",
                                  "w_lee"]
    row = payload["rows"][0]
    assert row[0] == pytest.approx(2.0)
    assert row[1]["im"] == pytest.approx(-np.pi, abs=1e-9)
    assert row[2]["re"] == pytest.approx(np.pi, abs=1e-9)
    assert row[3]["re"] == pytest.approx(1.0, abs=1e-9)
    assert row[5]["re"] == pytest.approx(2.0, abs=1e-9)


def test_winding_csv_expands_complex_columns(capsys):
    code, out, _ = run_cli(capsys, ["winding", "--grid", "1024",
                                    "--format", "csv"])
    assert code == 0
    meta, header, rows = parse_csv(out)
    assert meta["command"] == "winding"
    assert header == ["period_over_pi", "re_raw_integral", "im_raw_integral",
                      "re_gamma_b", "im_gamma_b", "re_w", "im_w"]
    assert len(rows) == 1
    assert float(rows[0][0]) == pytest.approx(4.0)
    assert float(rows[0][5]) == pytest.approx(1.0, abs=1e-9)


def test_reductio_lee_keeps_loop_count_integer(capsys):
    code, out, _ = run_cli(capsys, ["reductio", "--grid", "1024"])
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["gauge"] == "first"
    assert payload["meta"]["lee_normalization"] == 2.0
    row = dict(zip(payload["columns"], payload["rows"][0]))
    assert row["period_over_pi"] == pytest.approx(4.0)
    assert row["w"]["re"] == pytest.approx(1.0, abs=1e-6)
    assert row["w_lee"]["re"] == pytest.approx(0.5, abs=1e-6)
    assert row["w_is_integer"] == 1
    assert row["w_lee_is_integer"] == 0


def test_reductio_demo_doubles_the_count(capsys):
    code, out, _ = run_cli(capsys, ["reductio", "--model", "demo",
                                    "--grid", "512"])
    assert code == 0
    row = dict(zip(json.loads(out)["columns"], json.loads(out)["rows"][0]))
    assert row["w"]["re"] == pytest.approx(1.0, abs=1e-6)
    assert row["w_lee"]["re"] == pytest.approx(2.0, abs=1e-6)
    assert row["w_is_integer"] == 1
    assert row["w_lee_is_integer"] == 1


def test_bands_table_covers_the_full_loop(capsys):
    code, out, _ = run_cli(capsys, ["bands", "--grid", "256"])
    assert code == 0
    meta, header, rows = parse_csv(out)
    assert header == ["k", "re_energy", "im_energy", "re_energy_other",
                      "im_energy_other"]
    assert float(meta["period_over_pi"]) == pytest.approx(4.0)
    assert meta["start_band"] == "1"
    assert float(meta["closure_error"]) <= 1e-8
    assert len(rows) == 512
    assert float(rows[0][0]) == 0.0


def test_band_windings_rows(capsys):
    code, out, _ = run_cli(capsys, ["band-windings", "--grid", "2048"])
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header == ["band", "re_winding", "im_winding"]
    table = {row[0]: complex(float(row[1]), float(row[2])) for row in rows}
    assert set(table) == {"plus", "minus", "sum"}
    assert table["sum"] == pytest.approx(table["plus"] + table["minus"])
    assert table["sum"].real == pytest.approx(1.0, abs=1e-6)
    assert abs(table["plus"].real - 0.5) > 0.01


def test_chain_table_and_meta(capsys):
    code, out, _ = run_cli(capsys, ["chain", "--n", "6"])
    assert code == 0
    meta, header, rows = parse_csv(out)
    assert header == ["index", "re_eigenvalue", "im_eigenvalue", "ipr",
                      "label"]
    assert len(rows) == 12
    assert meta["bc"] == "open"
    assert meta["balancing"] == "on"
    assert float(meta["gap"]) > 0.0
    assert float(meta["defectiveness"]) > 0.0
    assert [row[0] for row in rows] == [str(i) for i in range(12)]
    assert all(row[4] in {"extended", "intermediate", "localized"}
               for row in rows)


def test_localize_emits_site_resolved_rows(capsys):
    code, out, _ = run_cli(capsys, ["localize", "--n", "4",
                                    "--side", "left"])
    assert code == 0
    meta, header, rows = parse_csv(out)
    assert header == ["state", "site", "probability", "ipr", "label"]
    assert meta["side"] == "left"
    assert len(rows) == 64
    weights = np.array([float(row[2]) for row in rows]).reshape(8, 8)
    assert np.allclose(weights.sum(axis=1), 1.0, atol=1e-12)


def test_scan_columns_and_golden_values(capsys):
    code, out, _ = run_cli(capsys, ["scan", "--n-list", "4,6"])
    assert code == 0
    meta, header, rows = parse_csv(out)
    assert header == ["n_cells", "max_abs_imag", "gap", "median_ipr_open",
                      "median_ipr_periodic"]
    assert meta["n_list"] == "4;6"
    first = [float(cell) for cell in rows[0]]
    assert first[0] == 4
    assert first[1] < 1e-12
    assert first[2] == pytest.approx(0.839379544945, abs=1e-9)
    assert first[3] == pytest.approx(0.391511985653, abs=1e-9)
    assert first[4] == pytest.approx(0.199508268584, abs=1e-9)


def test_output_is_byte_deterministic(capsys):
    for argv in (["scan", "--n-list", "4,6"],
                 ["winding", "--model", "demo", "--gauge", "first",
                  "--grid", "512"]):
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        assert first == second


def test_out_writes_atomically(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, ["winding", "--model", "demo",
                                    "--gauge", "first", "--grid", "512",
                                    "--out", str(target)])
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["meta"]["model"] == "demo"
    # No stray temp files next to the target.
    assert os.listdir(tmp_path) == ["report.json"]


def test_out_file_gets_the_mode_open_would_give(capsys, tmp_path):
    # A new file gets 0666 less the umask, an existing one keeps its
    # mode, as a plain open(out, "w") would leave them.
    target = tmp_path / "chain.csv"
    umask = os.umask(0o022)
    try:
        assert run_cli(capsys, ["chain", "--n", "4",
                                "--out", str(target)])[0] == 0
        assert stat.S_IMODE(target.stat().st_mode) == 0o644
        target.chmod(0o640)
        assert run_cli(capsys, ["chain", "--n", "4",
                                "--out", str(target)])[0] == 0
        assert stat.S_IMODE(target.stat().st_mode) == 0o640
    finally:
        os.umask(umask)


def test_out_writes_through_a_symlink(capsys, tmp_path):
    # open(out, "w") follows a link: the link stays, the target gets
    # the table and keeps its mode.
    target = tmp_path / "target.csv"
    target.write_text("old")
    target.chmod(0o640)
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    code, out, _ = run_cli(capsys, ["chain", "--n", "2",
                                    "--out", str(link)])
    assert code == 0 and out == ""
    assert link.is_symlink()
    assert os.readlink(link) == str(target)
    table = target.read_text()
    assert table.startswith("#") and "eigenvalue" in table
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
    assert sorted(os.listdir(tmp_path)) == ["link.csv", "target.csv"]


def test_out_naming_a_directory_exits_2_and_leaves_no_temp_file(
        capsys, tmp_path):
    target = tmp_path / "taken"
    target.mkdir()
    code, out, err = run_cli(capsys, ["chain", "--n", "2",
                                      "--out", str(target)])
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {target}")
    assert os.listdir(tmp_path) == ["taken"]
    assert os.listdir(target) == []


def test_usage_errors_exit_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, ["winding", "--grid", "63"])
    assert code == 2 and "grid" in err
    code, _, err = run_cli(capsys, ["scan", "--n-list", "4,x"])
    assert code == 2 and "n-list" in err
    code, _, err = run_cli(capsys, ["chain", "--n", "0"])
    assert code == 2
    for command, value in (("winding", "nan"), ("reductio", "inf"),
                           ("reductio", "-inf")):
        code, out, err = run_cli(capsys, [command, "--grid", "256",
                                          f"--lee-normalization={value}"])
        assert code == 2 and out == "" and "lee-normalization" in err
    missing = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, ["winding", "--grid", "256",
                                      "--out", str(missing)])
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {missing}")
    assert not missing.parent.exists()
    with pytest.raises(SystemExit) as info:
        main(["winding", "--gauge", "sideways"])
    assert info.value.code == 2


def test_coarse_quadrature_refusal_exits_2_with_a_hint(capsys):
    # 128 samples per zone miss this loop's integer winding by 2.5e-6.
    model = ["winding", "--v", "0.8", "--r", "0.5", "--gamma", "0.5"]
    code, out, err = run_cli(capsys, [*model, "--grid", "128"])
    assert code == 2 and out == ""
    assert "not near-integer at grid 128" in err
    assert err.endswith("a finer --grid resolves it\n")
    code, _, _ = run_cli(capsys, [*model, "--grid", "256"])
    assert code == 0


def test_gauge_singularity_exits_3(capsys):
    # The demo transpose pairing is self-orthogonal at k = pi/2.
    code, _, err = run_cli(capsys, ["winding", "--model", "demo",
                                    "--grid", "256"])
    assert code == 3 and "error:" in err


def test_defective_point_exits_6(capsys):
    # Exceptional point on the sampled loop at k = pi.
    code, _, err = run_cli(capsys, ["winding", "--v", "0.75", "--r", "0.5",
                                    "--gamma", "0.5", "--grid", "128"])
    assert code == 6 and "non-diagonalizable" in err


def test_tracking_and_closure_failures_map_to_4_and_5(capsys, monkeypatch):
    def ambiguous(*args, **kwargs):
        raise AmbiguousTracking("forced tie")

    def unclosed(*args, **kwargs):
        raise NoClosure("forced drift")

    monkeypatch.setattr("nhwind.cli.winding_report", ambiguous)
    assert run_cli(capsys, ["winding"])[0] == 4
    monkeypatch.setattr("nhwind.cli.winding_report", unclosed)
    assert run_cli(capsys, ["winding"])[0] == 5


def test_solver_failures_map_to_6_not_2(capsys, monkeypatch):
    # LinAlgError subclasses ValueError; the CLI must classify solver
    # breakdowns before the generic usage branch.
    def pairing_failure(*args, **kwargs):
        raise MatchFailure("forced mismatch")

    def solver_failure(*args, **kwargs):
        raise np.linalg.LinAlgError("forced non-convergence")

    monkeypatch.setattr("nhwind.cli.chain_spectrum", pairing_failure)
    assert run_cli(capsys, ["chain"])[0] == 6
    monkeypatch.setattr("nhwind.cli.chain_spectrum", solver_failure)
    assert run_cli(capsys, ["chain"])[0] == 6


# Names outside a flag's choices: argparse refuses them and exits 2.
CHOICE_REFUSALS = (
    ["winding", "--model", "x"],
    ["winding", "--gauge", "x"],
    ["bands", "--band", "0"],
    ["chain", "--bc", "x"],
    ["localize", "--side", "x"],
    ["chain", "--format", "xml"],
)
# Flags no command takes, the removed --derivative among them: argparse
# refuses them and exits 2.
UNKNOWN_FLAGS = (
    ["winding", "--derivative", "fd2"],
    ["band-windings", "--derivative", "analytic"],
)
# Values no choices list can express: main returns 2 and names the flag.
# Each refusal but --n-list's is the library check's own message, called
# with the flag's name: (argv, flag, check, value).
NAN, INF = float("nan"), float("inf")
VALUE_REFUSALS = (
    (["winding", "--grid", "63"], "--grid", _zone_step, 63),
    (["winding", "--grid", "70001"], "--grid", _zone_step, 70001),
    (["chain", "--n", "0"], "--n", _check_cells, 0),
    (["localize", "--n", "-2"], "--n", _check_cells, -2),
    (["scan", "--n-list", ""], "--n-list", None, None),
    (["scan", "--n-list", "0"], "--n-list", None, None),
    (["winding", "--lee-normalization", "0"], "--lee-normalization",
     _check_normalization, 0.0),
    (["reductio", "--lee-normalization", "inf"], "--lee-normalization",
     _check_normalization, INF),
    (["winding", "--v", "nan"], "--v", _check_finite, NAN),
    (["chain", "--model", "demo", "--v", "nan"], "--v", _check_finite, NAN),
    (["chain", "--r", "inf"], "--r", _check_finite, INF),
    (["bands", "--gamma", "nan"], "--gamma", _check_finite, NAN),
)


def _choices(command):
    """``{flag: choices}`` of one subcommand's parser."""
    sub = next(action for action in _build_parser()._actions
               if action.dest == "command")
    return {action.option_strings[0]: list(action.choices)
            for action in sub.choices[command]._actions
            if action.choices is not None}


def test_choice_lists_are_the_library_names():
    gauges = [gauge.value for gauge in Gauge if gauge is not Gauge.SMOOTH]
    owners = {"--gauge": gauges, "--band": [int(band) for band in Band],
              "--bc": [bc.value for bc in Boundary], "--side": list(SIDES)}
    seen = set()
    for command in ("bands", "winding", "band-windings", "reductio",
                    "chain", "scan", "localize"):
        for flag, choices in _choices(command).items():
            if flag in owners:
                assert choices == owners[flag], (command, flag)
                seen.add(flag)
    assert seen == set(owners)


def test_flag_refusals_exit_2(capsys):
    for argv in CHOICE_REFUSALS:
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2, argv
        assert "invalid choice" in capsys.readouterr().err, argv
    for argv in UNKNOWN_FLAGS:
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err, argv
    for argv, flag, check, value in VALUE_REFUSALS:
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == "", argv
        assert err.startswith(f"error: {flag} "), argv
        if check is not None:
            with pytest.raises(ValueError) as info:
                check(value, flag)
            assert err == f"error: {info.value}\n", argv


# The library columns each command prints, for one small argv each.
def _bands_columns():
    traj = loop_period(lee(), 256, Gauge("transpose"), 1)
    return {"k": traj.k_grid, "energy": traj.energies,
            "energy_other": traj.energies_other}


def _winding_columns():
    rep = winding_report(lee(), Gauge("transpose"), 256,
                         lee_normalization=2.0)
    return {"period_over_pi": [rep.period / np.pi],
            "raw_integral": [rep.raw_integral], "gamma_b": [rep.gamma_b],
            "w": [rep.w], "lee_normalization": [2.0], "w_lee": [rep.w_lee]}


def _band_windings_columns():
    plus, minus = (band_winding(lee(), band, Gauge("transpose"), 256)
                   for band in (1, -1))
    return {"band": ["plus", "minus", "sum"],
            "winding": [plus, minus, plus + minus]}


def _reductio_columns():
    rep = winding_report(lee(), Gauge("first"), 256, lee_normalization=2.0)
    return {"period_over_pi": [rep.period / np.pi], "w": [rep.w],
            "w_lee": [rep.w_lee], "w_is_integer": [1],
            "w_lee_is_integer": [0]}


def _chain_columns():
    spectrum = chain_spectrum(lee(), 4, Boundary.PERIODIC)
    return {"index": list(range(8)), "eigenvalue": spectrum.eigenvalues,
            "ipr": spectrum.iprs,
            "label": [classify(p, 8) for p in spectrum.iprs]}


def _localize_columns():
    # State-major: all sites of one state, then the next state; a
    # state's ipr and label repeat on each of its sites.
    profile = localization_profile(chain_spectrum(lee(), 3), "left")
    pairs = [(state, site) for state in range(6) for site in range(6)]
    return {"state": [state for state, _ in pairs],
            "site": [site for _, site in pairs],
            "probability": [profile.probabilities[site, state]
                            for state, site in pairs],
            "ipr": [profile.iprs[state] for state, _ in pairs],
            "label": [profile.labels[state] for state, _ in pairs]}


def _scan_columns():
    rows = spectrum_scan(lee(), (3, 4), Boundary.OPEN)
    periodic = spectrum_scan(lee(), (3, 4), Boundary.PERIODIC)
    return {"n_cells": [3, 4],
            "max_abs_imag": [row.max_abs_imag for row in rows],
            "gap": [row.gap for row in rows],
            "median_ipr_open": [row.median_ipr for row in rows],
            "median_ipr_periodic": [row.median_ipr for row in periodic]}


RENDERER_CASES = {
    "bands --grid 256": _bands_columns,
    "winding --grid 256 --lee-normalization 2": _winding_columns,
    "band-windings --grid 256": _band_windings_columns,
    "reductio --grid 256": _reductio_columns,
    "chain --n 4 --bc periodic": _chain_columns,
    "localize --n 3 --side left": _localize_columns,
    "scan --n-list 3,4": _scan_columns,
}
INTEGER_COLUMNS = {"index", "state", "site", "n_cells", "w_is_integer",
                   "w_lee_is_integer"}


@pytest.mark.parametrize("argv", RENDERER_CASES)
def test_csv_and_json_print_the_same_library_table(capsys, argv):
    code, csv_out, _ = run_cli(capsys, argv.split() + ["--format", "csv"])
    assert code == 0
    code, json_out, _ = run_cli(capsys, argv.split() + ["--format", "json"])
    assert code == 0
    meta, header, csv_rows = parse_csv(csv_out)
    payload = json.loads(json_out)
    assert set(meta) == set(payload["meta"])
    for key, value in payload["meta"].items():
        if isinstance(value, float):
            assert float(meta[key]) == value, key
        else:
            assert meta[key] == str(value), key
    expected = RENDERER_CASES[argv]()
    assert payload["columns"] == list(expected)
    assert len(csv_rows) == len(payload["rows"])
    csv_columns = dict(zip(header, zip(*csv_rows)))
    json_columns = dict(zip(payload["columns"], zip(*payload["rows"])))
    for name, want in expected.items():
        cells = json_columns[name]
        assert len(cells) == len(want), name
        if isinstance(cells[0], dict):
            assert all(set(cell) == {"re", "im"} for cell in cells), name
            re, im = csv_columns[f"re_{name}"], csv_columns[f"im_{name}"]
            assert name not in csv_columns
            for r, i, cell, value in zip(re, im, cells, want):
                assert float(r) == cell["re"] == value.real, name
                assert float(i) == cell["im"] == value.imag, name
            continue
        for text, cell, value in zip(csv_columns[name], cells, want):
            if isinstance(cell, str):
                assert text == cell == value, name
            elif name in INTEGER_COLUMNS:
                assert type(cell) is int and text == str(cell), name
                assert cell == value, name
            else:
                assert float(text) == cell == value, name
    assert set(header) == {
        column for name, cells in json_columns.items()
        for column in ([f"re_{name}", f"im_{name}"]
                       if isinstance(cells[0], dict) else [name])}

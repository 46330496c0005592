"""End-to-end tests of the command-line front end."""
import json
import os

import numpy as np
import pytest

from nhwind.berry import AmbiguousTracking, NoClosure
from nhwind.cli import RunConfig, main
from nhwind.lattice import MatchFailure


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


def test_usage_errors_exit_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, ["winding", "--grid", "63"])
    assert code == 2 and "grid" in err
    code, _, err = run_cli(capsys, ["scan", "--n-list", "4,x"])
    assert code == 2 and "n-list" in err
    code, _, err = run_cli(capsys, ["chain", "--n", "0"])
    assert code == 2
    missing = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, ["winding", "--grid", "256",
                                      "--out", str(missing)])
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {missing}")
    assert not missing.parent.exists()
    with pytest.raises(SystemExit) as info:
        main(["winding", "--gauge", "sideways"])
    assert info.value.code == 2


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


def test_runconfig_validation():
    good = RunConfig(command="winding")
    assert good.gauge == "transpose"
    for kwargs in (dict(model="x"), dict(gauge="x"), dict(grid=63),
                   dict(grid=70001), dict(band=0), dict(derivative="fd2"),
                   dict(n=0), dict(bc="x"), dict(side="x"),
                   dict(n_list=()), dict(n_list=(0,)),
                   dict(lee_normalization=0.0), dict(fmt="xml"),
                   dict(v=np.nan)):
        with pytest.raises(ValueError):
            RunConfig(command="winding", **kwargs)

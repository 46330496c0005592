"""Self-tests of the benchmark: op lists, verifier, tracer, smoke runs.

Run with ``PYTHONPATH=src python -m pytest bench``.
"""
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nhwind
import nhwind.cli
from nhwind.bloch import Gauge
from nhwind.lattice import Boundary, MatchFailure

import run
from checks import CLI_EXPECT, verify
from spans import Tracer
from workloads import WORKLOADS, make_ops

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_ops(workload):
    assert make_ops(workload, 7) == make_ops(workload, 7)
    assert make_ops(workload, 7) != make_ops(workload, 8)


def test_op_mix():
    loop = make_ops("loop", 3)
    assert sum(op["model"]["braided"] for op in loop) * 4 == 3 * len(loop)
    assert {op["grid"] for op in loop} == {4096, 8192}
    for op in loop:
        m = op["model"]
        half, d = m["gamma"] / 2, m["v"] - m["r"]
        assert d > 0 and abs(half - d) >= 0.05 and m["v"] + m["r"] - half >= 0.05
    chain = make_ops("chain", 3)
    kinds = [op["kind"] for op in chain]
    assert kinds.count("plain") == 21 and kinds.count("profile") == 5
    mid = [op for op in chain if op["n"] == 64]
    assert {(op["bc"], op["model"]["gamma"] == 0) for op in mid} == {
        (bc, hermitian) for bc in ("open", "periodic")
        for hermitian in (True, False)}
    assert kinds.count("refusal") >= 1
    assert all(op["bc"] == "periodic" for op in chain if op["kind"] == "paired")
    cli = make_ops("cli", 3)
    assert {tuple(op["argv"]) for op in cli} == set(CLI_EXPECT)


def _loop_outcome(braided):
    v, r, gamma = (0.52, 0.5, 1.0) if braided else (0.8, 0.5, 0.2)
    op = {"kind": "report", "gauge": "transpose", "grid": 256,
          "model": {"v": v, "r": r, "gamma": gamma, "braided": braided}}
    model = nhwind.lee(op["model"]["v"], op["model"]["r"],
                       op["model"]["gamma"])
    report = nhwind.winding_report(model, Gauge.TRANSPOSE, 256,
                                   lee_normalization=2.0, with_bands=True)
    split = nhwind.split_check(model, Gauge.TRANSPOSE, 256) if braided else None
    return op, (report, split)


def test_verifier_rejects_flipped_winding_parity():
    op, (report, split) = _loop_outcome(True)
    assert verify("loop", op, (report, split)) == []
    flipped = dataclasses.replace(report, w=report.w + 1,
                                  w_lee=(report.w + 1) / 2,
                                  w_plus=report.w_plus + 1)
    assert any("parity" in p for p in verify("loop", op, (flipped, split)))


def test_verifier_rejects_wrong_period():
    op, outcome = _loop_outcome(False)
    assert verify("loop", op, outcome) == []
    op["model"]["braided"] = True
    assert verify("loop", op, outcome)


def _chain_op(kind, n, bc, gamma=0.6):
    return {"kind": kind, "n": n, "bc": bc,
            "model": {"v": 0.7, "r": 0.5, "gamma": gamma, "braided": False}}


def _spectrum(op):
    m = op["model"]
    return nhwind.chain_spectrum(nhwind.lee(m["v"], m["r"], m["gamma"]),
                                 op["n"], Boundary(op["bc"]),
                                 with_left=op["kind"] == "paired")


@pytest.mark.parametrize("bc", ["open", "periodic"])
def test_verifier_rejects_perturbed_eigenvalue(bc):
    op = _chain_op("plain", 12, bc)
    spectrum = _spectrum(op)
    assert verify("chain", op, spectrum) == []
    values = np.array(spectrum.eigenvalues)
    values[-1] += 1e-7j
    bad = dataclasses.replace(spectrum, eigenvalues=values)
    assert verify("chain", op, bad)


def test_verifier_rejects_swapped_left_row():
    op = _chain_op("paired", 8, "periodic")
    spectrum = _spectrum(op)
    assert verify("chain", op, spectrum) == []
    left = np.array(spectrum.left_vectors)
    left[[0, 1]] = left[[1, 0]]
    bad = dataclasses.replace(spectrum, left_vectors=left)
    assert any("L R - I" in p for p in verify("chain", op, bad))


def test_verifier_checks_left_profile():
    op = _chain_op("profile", 10, "open", gamma=0.0)
    spectrum = _spectrum(op)
    profile = nhwind.localization_profile(spectrum, side="left")
    assert verify("chain", op, (spectrum, profile)) == []
    bad = dataclasses.replace(profile, labels=("localized",) * 20)
    assert verify("chain", op, (spectrum, bad))


def test_verifier_rejects_return_where_refusal_expected():
    op = {"kind": "refusal", "model": None, "n": 30, "bc": "open",
          "expect": "MatchFailure"}
    assert verify("chain", op, MatchFailure("refused")) == []
    assert verify("chain", op, ValueError("other"))
    spectrum = _spectrum(_chain_op("plain", 30, "open"))
    assert any("expected" in p for p in verify("chain", op, spectrum))
    cli_op = {"kind": "cli",
              "argv": ["winding", "--v", "0.75", "--r", "0.5", "--gamma", "0.5"]}
    assert verify("cli", cli_op, (6, b"", "error: defective")) == []
    assert verify("cli", cli_op, (0, b"{}", ""))


def test_verifier_rejects_wrong_cli_value(capsys):
    op = {"kind": "cli", "argv": ["reductio"]}
    assert nhwind.cli.main(["reductio", "--grid", "256"]) == 0
    good = capsys.readouterr().out
    assert verify("cli", op, (0, good.encode(), "")) == []
    bad = good.replace('"re": 0.5', '"re": 0.25')
    assert verify("cli", op, (0, bad.encode(), ""))


def test_tracer_spans_and_restore():
    original = nhwind.berry.hk
    with Tracer() as tracer:
        assert nhwind.berry.hk is not original
        nhwind.winding_report(nhwind.lee(), Gauge.FIRST_COMPONENT_ONE, 256,
                              with_bands=True)
    assert nhwind.berry.hk is original and nhwind.bloch.hk is original
    summary = tracer.summary()
    calls = summary["calls"]
    assert calls["berry.winding_report"] == 1
    assert calls["berry.loop_period"] == 1 and calls["berry.band_winding"] == 2
    # braided: loop_period probes one zone (257 samples), then two (513)
    assert summary["loop_period_hk_samples"] == 257 + 513
    assert summary["amount"]["berry.loop_period"] == 512
    total = sum(summary["self_s"].values())
    assert 0 < total <= summary["total_s"]["berry.winding_report"] + 1e-9
    assert all(v >= 0 for v in summary["self_s"].values())


def test_import_time_report():
    report = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |     numpy",
        "import time:         5 |          5 |       scipy.sparse",
        "import time:        20 |         25 |     scipy.optimize",
        "import time:         3 |         38 |   nhwind.lattice",
        "import time:         2 |         40 | nhwind",
        "import time:         1 |          1 | json",
        "import time:         4 |          4 | nhwind.cli",
    ])
    assert run.import_times(report) == pytest.approx((44e-6, 25e-6))


def test_per_layer_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = {"spans": {}, "traced_walls": [1.0], "untraced_walls": [1.0],
              "ops_per_pass": 4, "output_bytes": 0}
    names = set(run.per_layer(result, [(0.5, 0.4)]))
    assert names == {m["name"] for m in spec["per_layer"]}
    result = {"latencies": [0.1, 0.2], "untraced_walls": [0.3],
              "calibration": [[0.02, 0.02, 0.02]], "reference_s": 0.01,
              "ops_per_pass": 2, "peak_rss_mb": 80.0, "failed": 0,
              "attempted": 2}
    names = set(run.end_to_end(result, [0.5]))
    assert names == {m["name"] for m in spec["end_to_end"]}


def test_times_scaled_by_reference_kernel():
    # Each op is scaled by the mean of the kernel runs around it.
    result = {"latencies": [0.1, 0.3, 0.2, 0.2], "ops_per_pass": 2,
              "calibration": [[0.02, 0.02, 0.04], [0.01, 0.01, 0.01]],
              "reference_s": 0.01}
    slow, quiet = run.scaled_latencies(result)
    assert slow == pytest.approx([0.05, 0.1])
    assert quiet == pytest.approx([0.2, 0.2])
    assert run.host_speed(result) == pytest.approx(0.01 / 0.015)


def _env():
    src = str(ROOT / "src")
    return dict(os.environ, PYTHONPATH=src)


def test_cli_child_matches_plain_cli():
    argv = ["reductio", "--grid", "256"]
    plain = subprocess.run([sys.executable, "-m", "nhwind.cli"] + argv,
                           capture_output=True, env=_env(), timeout=60)
    traced = subprocess.run([sys.executable, str(BENCH_DIR / "cli_child.py")]
                            + argv, capture_output=True, env=_env(),
                            timeout=60)
    assert traced.returncode == plain.returncode == 0
    assert traced.stdout == plain.stdout
    line = traced.stderr.decode().splitlines()[-1]
    summary = json.loads(line.split(" ", 1)[1])
    assert summary["calls"]["cli.main"] == 1
    assert summary["calls"]["berry.winding_report"] == 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run(workload):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] == len(make_ops(workload, 1))
    assert all(m["value"] > 0 for m in result["metrics"].values())

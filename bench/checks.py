"""Correctness checks for every benchmark op, outside the timed region.

The references here do not reuse code under test: model blocks come
from the documented formula of ``lee``, chains are assembled with
``np.kron``, Bloch spectra come from ``np.linalg.eigvals`` on 2x2
matrices, and the loop's period and winding parity follow from the
braid condition.  Each ``check_*`` function returns a list of problems;
an empty list means the op passed.
"""
from __future__ import annotations

import json
import math

import numpy as np

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# Backward error of a dense eigenpair, relative to ||H||_F ||v||.
BACKWARD_TOL = 1e-12
# Periodic chain eigenvalues against the Bloch roots, relative to ||h||.
BLOCH_TOL = 1e-8
PAIRING_TOL = 1e-8
LOCALIZED_IPR = 0.1
EXTENDED_FACTOR = 3.0


def lee_blocks(v: float, r: float, gamma: float):
    """(hop_minus, hop_zero, hop_plus) of ``x sigma_x + z sigma_z`` with
    ``x = v + r cos k`` and ``z = r sin k + i gamma / 2``."""
    zero = v * SIGMA_X + 0.5j * gamma * SIGMA_Z
    plus = 0.5 * r * SIGMA_X - 0.5j * r * SIGMA_Z
    minus = 0.5 * r * SIGMA_X + 0.5j * r * SIGMA_Z
    return minus, zero, plus


def op_blocks(op: dict):
    m = op["model"]
    return lee_blocks(m["v"], m["r"], m["gamma"])


def reference_chain(blocks, n: int, bc: str) -> np.ndarray:
    """Chain Hamiltonian: cell j couples to j+1 through ``hop_plus``."""
    minus, zero, plus = blocks
    shift = np.eye(n, k=1)
    if bc == "periodic":
        shift = shift + np.eye(n, k=-(n - 1))
    return (np.kron(np.eye(n), zero) + np.kron(shift, plus)
            + np.kron(shift.T, minus))


def bloch_roots(blocks, n: int) -> np.ndarray:
    """Both eigenvalues of h(k) at the n momenta of a periodic chain."""
    minus, zero, plus = blocks
    phase = np.exp(2j * np.pi * np.arange(n) / n)[:, None, None]
    h = np.conj(phase) * minus + zero + phase * plus
    return np.linalg.eigvals(h).ravel()


def _multiset_gap(a: np.ndarray, b: np.ndarray) -> float:
    """Hausdorff distance between two point sets."""
    d = np.abs(a[:, None] - b[None, :])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def _spectrum_problems(values, h, blocks, n, bc, label) -> list[str]:
    out = []
    scale = max(1.0, float(np.linalg.norm(h)))
    if abs(complex(np.sum(values)) - complex(np.trace(h))) > 1e-10 * scale:
        out.append(f"{label}: eigenvalue sum misses the trace")
    if bc == "periodic":
        ref = bloch_roots(blocks, n)
        gap = _multiset_gap(np.asarray(values), ref)
        sums = [abs(np.sum(values ** p) - np.sum(ref ** p))
                for p in (1, 2)]
        if gap > BLOCH_TOL * scale or max(sums) > BLOCH_TOL * scale * h.shape[0]:
            out.append(f"{label}: periodic spectrum misses the Bloch roots "
                       f"by {gap:.2e}")
    return out


def _ipr(vectors: np.ndarray) -> np.ndarray:
    p = np.abs(vectors) ** 2
    return np.sum(p * p, axis=0) / np.sum(p, axis=0) ** 2


def check_spectrum(op: dict, spectrum, blocks=None) -> list[str]:
    """A ``ChainSpectrum`` against a chain built here from the blocks."""
    blocks = op_blocks(op) if blocks is None else blocks
    n, bc = op["n"], op["bc"]
    h = reference_chain(blocks, n, bc)
    size = 2 * n
    values = np.asarray(spectrum.eigenvalues)
    right = np.asarray(spectrum.right_vectors)
    if values.shape != (size,) or right.shape != (size, size):
        return [f"spectrum has shape {values.shape}/{right.shape}"]
    out = []
    for got, want in zip(spectrum.model.blocks(), blocks):
        if not np.array_equal(np.asarray(got), want):
            out.append("model blocks differ from the lee formula")
            break
    resid = np.linalg.norm(h @ right - right * values, axis=0)
    worst = float(np.max(resid / np.linalg.norm(right, axis=0)))
    if worst > BACKWARD_TOL * np.linalg.norm(h):
        out.append(f"eigenpair backward error {worst:.2e}")
    out += _spectrum_problems(values, h, blocks, n, bc, "right spectrum")
    iprs = np.asarray(spectrum.iprs)
    if np.max(np.abs(iprs - _ipr(right))) > 1e-12:
        out.append("participation ratios do not match the vectors")
    if np.any(iprs < 1.0 / size - 1e-12) or np.any(iprs > 1.0 + 1e-12):
        out.append("participation ratio outside [1/size, 1]")
    if spectrum.max_abs_imag != float(np.max(np.abs(values.imag))):
        out.append("max_abs_imag is not max |Im|")
    if not 0.0 < spectrum.defectiveness <= 1.0 + 1e-12:
        out.append(f"defectiveness {spectrum.defectiveness} outside (0, 1]")
    if spectrum.gap < 0.0:
        out.append("negative gap")
    left = spectrum.left_vectors
    if op["kind"] == "paired":
        if left is None:
            out.append("left vectors missing")
        else:
            err = float(np.max(np.abs(np.asarray(left) @ right
                                      - np.eye(size))))
            if err > PAIRING_TOL:
                out.append(f"||L R - I|| = {err:.2e}")
    elif left is not None:
        out.append("left vectors computed without being asked for")
    return out


def check_profile(op: dict, profile, blocks=None) -> list[str]:
    """A left ``LocalizationProfile`` of the op's chain."""
    blocks = op_blocks(op) if blocks is None else blocks
    n, bc = op["n"], op["bc"]
    size = 2 * n
    p = np.asarray(profile.probabilities)
    if profile.side != "left" or p.shape != (size, size):
        return [f"profile side {profile.side!r}, shape {p.shape}"]
    out = []
    if np.max(np.abs(p.sum(axis=0) - 1.0)) > 1e-10:
        out.append("state weights do not sum to 1")
    iprs = np.asarray(profile.iprs)
    if np.max(np.abs(iprs - np.sum(p * p, axis=0))) > 1e-12:
        out.append("profile participation ratios do not match the weights")
    if np.any(iprs < 1.0 / size - 1e-12) or np.any(iprs > 1.0 + 1e-12):
        out.append("profile participation ratio outside [1/size, 1]")
    for value, label in zip(iprs, profile.labels):
        want = ("extended" if value < EXTENDED_FACTOR / size else
                "localized" if value > LOCALIZED_IPR else "intermediate")
        if label != want:
            out.append(f"label {label!r} for ipr {value:.3g}")
            break
    h = reference_chain(blocks, n, bc)
    out += _spectrum_problems(np.asarray(profile.eigenvalues), h, blocks,
                              n, bc, "left spectrum")
    return out


def check_chain(op: dict, result) -> list[str]:
    if op["kind"] == "profile":
        spectrum, profile = result
        blocks = op_blocks(op)
        return (check_spectrum(op, spectrum, blocks)
                + check_profile(op, profile, blocks))
    return check_spectrum(op, result)


def check_loop(op: dict, result) -> list[str]:
    """Period and winding parity from the braid condition, and sums."""
    report, split = result
    braided = op["model"]["braided"]
    out = []
    period = (4.0 if braided else 2.0) * math.pi
    if abs(report.period - period) > 1e-9:
        out.append(f"period {report.period / math.pi:.6g} pi, "
                   f"expected {period / math.pi:g} pi")
    w = complex(report.w)
    if abs(w.imag) > 1e-6 or abs(w.real - round(w.real)) > 1e-6:
        out.append(f"winding {w} is not a real integer")
    elif round(w.real) % 2 != int(braided):
        out.append(f"winding {round(w.real)} has the wrong parity for a "
                   f"{'braided' if braided else 'unbraided'} loop")
    if report.w_lee is None or abs(report.w_lee - w / 2.0) > 1e-12:
        out.append("w_lee is not w / 2")
    if (report.w_plus is None or report.w_minus is None
            or abs(report.w_plus + report.w_minus - w) > 1e-6):
        out.append("band windings do not sum to w")
    if report.gauge.value != op["gauge"] or report.grid_size != op["grid"]:
        out.append("report carries the wrong gauge or grid")
    if braided:
        if split is None or abs(split.w_plus + split.w_minus - w) > 1e-6:
            out.append("split halves do not sum to w")
    elif split is not None:
        out.append("split_check ran on an unbraided loop")
    return out


# ---------------------------------------------------------------- cli

def parse_csv(text: str):
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


def _json_number(cell) -> complex:
    if isinstance(cell, dict):
        return complex(cell["re"], cell["im"])
    return complex(cell)


def _loop_record(text: str, want: dict) -> list[str]:
    payload = json.loads(text)
    row = dict(zip(payload["columns"], payload["rows"][0]))
    out = []
    for key, value in want.items():
        got = _json_number(row.get(key, float("nan")))
        if not abs(got - value) <= 1e-6:
            out.append(f"{key} = {got}, expected {value}")
    return out


def _bands(text: str, grid: int) -> list[str]:
    meta, header, rows = parse_csv(text)
    if header != ["k", "re_energy", "im_energy", "re_energy_other",
                  "im_energy_other"]:
        return [f"bands header {header}"]
    if float(meta["period_over_pi"]) != 4.0 or len(rows) != 2 * grid:
        return [f"bands gave {len(rows)} rows over "
                f"{meta['period_over_pi']} pi"]
    data = np.array(rows, dtype=float)
    k = data[:, 0]
    e = data[:, 1] + 1j * data[:, 2]
    other = data[:, 3] + 1j * data[:, 4]
    x = 0.52 + 0.5 * np.cos(k)
    z = 0.5 * np.sin(k) + 0.5j
    out = []
    if np.max(np.abs(k - np.arange(2 * grid) * 2 * np.pi / grid)) > 1e-12:
        out.append("bands momenta are off the grid")
    if (np.max(np.abs(e * e - (x * x + z * z))) > 1e-9
            or np.max(np.abs(e + other)) > 1e-9):
        out.append("bands energies are not the roots of h(k)")
    if np.max(np.abs(np.diff(e))) > 50 * 2 * np.pi / grid:
        out.append("tracked band jumps")
    return out


def _chain30(text: str) -> list[str]:
    meta, header, rows = parse_csv(text)
    if header != ["index", "re_eigenvalue", "im_eigenvalue", "ipr", "label"]:
        return [f"chain header {header}"]
    values = np.array([complex(float(r[1]), float(r[2])) for r in rows])
    iprs = np.array([float(r[3]) for r in rows])
    h = reference_chain(lee_blocks(0.52, 0.5, 1.0), 30, "open")
    out = []
    if values.size != 60 or float(meta["max_abs_imag"]) > 1e-6:
        out.append("open 30-cell chain is not real to 1e-6")
    if not float(meta["gap"]) > 0.0:
        out.append("open 30-cell chain has no gap")
    if _multiset_gap(values, np.linalg.eigvals(h)) > 1e-6:
        out.append("chain eigenvalues differ from the reference solve")
    if np.any(iprs < 1 / 60 - 1e-12) or np.any(iprs > 1 + 1e-12):
        out.append("chain ipr outside [1/size, 1]")
    return out


def _localize4(text: str) -> list[str]:
    meta, header, rows = parse_csv(text)
    if meta.get("side") != "left" or len(rows) != 64:
        return [f"localize gave {len(rows)} rows, side {meta.get('side')}"]
    weights = np.array([float(r[2]) for r in rows]).reshape(8, 8)
    iprs = np.array([float(r[3]) for r in rows]).reshape(8, 8)[:, 0]
    out = []
    if np.max(np.abs(weights.sum(axis=1) - 1.0)) > 1e-12:
        out.append("localize weights do not sum to 1 per state")
    if np.max(np.abs(iprs - np.sum(weights ** 2, axis=1))) > 1e-12:
        out.append("localize ipr does not match its weights")
    return out


def _scan(text: str) -> list[str]:
    _, header, rows = parse_csv(text)
    if header != ["n_cells", "max_abs_imag", "gap", "median_ipr_open",
                  "median_ipr_periodic"]:
        return [f"scan header {header}"]
    if [int(r[0]) for r in rows] != [10, 20, 30]:
        return ["scan sizes are not 10, 20, 30"]
    out = []
    for r in rows:
        lo = 1 / (2 * int(r[0])) - 1e-12
        if not (float(r[1]) >= 0 and float(r[2]) >= 0
                and lo <= float(r[3]) <= 1 and lo <= float(r[4]) <= 1):
            out.append(f"scan row {r} out of range")
    return out


# argv -> (exit code, stdout check); refusals must print nothing.
CLI_EXPECT = {
    ("winding", "--lee-normalization", "2"): (0, lambda t: _loop_record(
        t, {"period_over_pi": 4, "w": 1, "w_lee": 0.5,
            "gamma_b": math.pi, "raw_integral": -1j * math.pi})),
    ("reductio", "--model", "demo"): (0, lambda t: _loop_record(
        t, {"period_over_pi": 2, "w": 1, "w_lee": 2,
            "w_is_integer": 1, "w_lee_is_integer": 1})),
    ("reductio",): (0, lambda t: _loop_record(
        t, {"period_over_pi": 4, "w": 1, "w_lee": 0.5,
            "w_is_integer": 1, "w_lee_is_integer": 0})),
    ("bands", "--grid", "256", "--format", "csv"): (0, lambda t: _bands(t, 256)),
    ("bands",): (0, lambda t: _bands(t, 8192)),
    ("chain", "--n", "30"): (0, _chain30),
    ("localize", "--n", "4", "--side", "left"): (0, _localize4),
    ("scan",): (0, _scan),
    ("bands", "--model", "demo"): (3, None),
    ("winding", "--v", "0.75", "--r", "0.5", "--gamma", "0.5"): (6, None),
}


def check_cli(op: dict, result) -> list[str]:
    """``result`` is ``(exit code, stdout bytes, stderr text)``."""
    code, stdout, stderr = result
    want_code, check = CLI_EXPECT[tuple(op["argv"])]
    if code != want_code:
        return [f"exit code {code}, expected {want_code}: {stderr[-200:]}"]
    if check is None:
        if stdout or "error:" not in stderr:
            return ["refusal printed output or no error message"]
        return []
    try:
        return check(stdout.decode())
    except (ValueError, KeyError, IndexError) as exc:
        return [f"unparsable output: {exc!r}"]


CHECKS = {"loop": check_loop, "chain": check_chain, "cli": check_cli}


def verify(workload: str, op: dict, outcome) -> list[str]:
    """Problems with one op's outcome, a result or a raised exception.

    An op fails when its result is wrong, when it raises an exception
    it was not expected to, or when it returns where the documented
    refusal named by ``op["expect"]`` was expected.
    """
    expect = op.get("expect")
    if isinstance(outcome, Exception):
        if expect and type(outcome).__name__ == expect:
            return []
        return [f"raised {outcome!r}"]
    if expect:
        return [f"returned a value where {expect} was expected"]
    return CHECKS[workload](op, outcome)
